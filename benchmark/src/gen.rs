//! Seeded input for the relay workloads.
//!
//! Everything the relay under test receives is generated here from the
//! run's `--seed`: per flow a real bootstrap handshake and a run of
//! Base-mode exchanges between two in-memory endpoints (only the
//! client-direction S1 and S2 are kept — a relay verifies an S2 against
//! the S1 pre-signature alone), and, for the flood mix, attack
//! datagrams of four classes placed among them.
//!
//! A trace is a byte arena, a list of datagrams in it, and a list of
//! *sends*: each send is one batched transmission of consecutive
//! datagrams from one socket, made of whole exchanges, so a repetition
//! may stop after any send and leave no exchange half injected.

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, Timestamp};
use alpha_crypto::{Algorithm, Digest};
use alpha_wire::{bundle, Body, Packet, PacketView, PreSignature};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Hash algorithm of every association the benchmark creates.
pub const ALG: Algorithm = Algorithm::Sha1;

/// What a generated datagram is, which fixes what the relay must do
/// with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Legitimate S1: forwarded.
    LegitS1,
    /// Legitimate S2: verified, extracted, forwarded.
    LegitS2,
    /// The current exchange's S2 with one payload bit flipped, sent
    /// ahead of the real one: dropped as `BadMac`.
    BadMac,
    /// A replay of this flow's S2 from two exchanges earlier, whose
    /// exchange the relay no longer holds: dropped as `Unsolicited`.
    Unsolicited,
    /// An S1 for an association nobody announced, from a source with no
    /// route: dropped as `UnknownAssociation`.
    UnknownAssoc,
    /// A truncated or random frame: counted as a parse error.
    Garbage,
}

impl Kind {
    /// Every kind, legitimate first.
    pub const ALL: [Kind; 6] = [
        Kind::LegitS1,
        Kind::LegitS2,
        Kind::BadMac,
        Kind::Unsolicited,
        Kind::UnknownAssoc,
        Kind::Garbage,
    ];
    /// The four attack classes.
    pub const ATTACKS: [Kind; 4] = [
        Kind::BadMac,
        Kind::Unsolicited,
        Kind::UnknownAssoc,
        Kind::Garbage,
    ];

    /// Stable label for reports and metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::LegitS1 => "legit_s1",
            Kind::LegitS2 => "legit_s2",
            Kind::BadMac => "bad_mac",
            Kind::Unsolicited => "unsolicited",
            Kind::UnknownAssoc => "unknown_assoc",
            Kind::Garbage => "parse_error",
        }
    }

    /// Position in [`Kind::ALL`], for per-kind count arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the relay must forward it.
    #[must_use]
    pub fn is_legit(self) -> bool {
        matches!(self, Kind::LegitS1 | Kind::LegitS2)
    }
}

/// One datagram of a trace.
#[derive(Debug, Clone, Copy)]
pub struct Dgram {
    off: u32,
    len: u16,
    /// What it is.
    pub kind: Kind,
}

/// The socket a send leaves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A flow's client socket (routed through the relay).
    Flow(u16),
    /// One of the attacker sockets (no route).
    Attacker(u8),
}

/// One batched transmission: `count` consecutive datagrams from
/// `first`, all leaving `source`.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// Where it leaves from.
    pub source: Source,
    /// Index of its first datagram.
    pub first: u32,
    /// How many datagrams.
    pub count: u16,
}

/// Shape of a relay trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    /// Concurrent flows (one client socket and one sink each).
    pub flows: usize,
    /// Exchanges generated per flow.
    pub exchanges: usize,
    /// Payload bytes per message.
    pub payload: usize,
    /// Whether attack datagrams are mixed in.
    pub flood: bool,
}

/// Exchanges per send: 16 fill one 32-datagram batch; the flood mix
/// makes room for its six in-flow attack datagrams.
#[must_use]
pub const fn exchanges_per_send(flood: bool) -> usize {
    if flood {
        12
    } else {
        16
    }
}
/// In-flow attack datagrams per flood send, per class (bad MAC,
/// unsolicited, garbage).
const FLOOD_PER_CLASS: usize = 2;
/// Flow sends between attacker sends; with 32 unknown-association S1s
/// per attacker send this makes the four classes equal and the whole
/// mix one attack datagram per three legitimate ones.
const FLOW_SENDS_PER_ATTACKER_SEND: usize = 16;
const UNKNOWN_PER_ATTACKER_SEND: usize = FLOW_SENDS_PER_ATTACKER_SEND * FLOOD_PER_CLASS;
/// Attacker sockets the unknown-association S1s are spread over.
pub const ATTACKER_SOCKETS: usize = 8;

/// A generated relay workload input.
pub struct RelayTrace {
    /// The shape it was generated for.
    pub shape: TraceShape,
    arena: Vec<u8>,
    /// Every datagram, flow by flow, attacker datagrams last.
    pub dgrams: Vec<Dgram>,
    /// Transmission order.
    pub sends: Vec<Send>,
    /// Per flow: the HS1 and HS2 the relay learns the association from.
    pub handshakes: Vec<[Vec<u8>; 2]>,
}

impl RelayTrace {
    /// Bytes of datagram `i`.
    #[must_use]
    pub fn bytes(&self, i: usize) -> &[u8] {
        let d = &self.dgrams[i];
        &self.arena[d.off as usize..d.off as usize + d.len as usize]
    }

    /// Datagrams of a send, as indexes.
    #[must_use]
    pub fn range(&self, send: &Send) -> std::ops::Range<usize> {
        send.first as usize..send.first as usize + send.count as usize
    }

    /// Datagrams of each kind over the whole trace.
    #[cfg(test)]
    #[must_use]
    pub fn kind_counts(&self) -> [u64; Kind::ALL.len()] {
        let mut counts = [0u64; Kind::ALL.len()];
        for d in &self.dgrams {
            counts[d.kind.index()] += 1;
        }
        counts
    }

    fn push(&mut self, bytes: &[u8], kind: Kind) {
        let off = u32::try_from(self.arena.len()).expect("trace arena under 4 GiB");
        let len = u16::try_from(bytes.len()).expect("datagram under 64 KiB");
        self.arena.extend_from_slice(bytes);
        self.dgrams.push(Dgram { off, len, kind });
    }
}

/// Independent generator stream `stream` of run seed `seed`.
#[must_use]
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    // splitmix64 step keeps neighbouring (seed, stream) pairs apart.
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(x ^ (x >> 31))
}

/// Protocol configuration of the generated client/server pairs: chains
/// long enough for every exchange (two elements each) with a margin.
#[must_use]
pub fn relay_protocol(exchanges: usize) -> Config {
    Config::new(ALG).with_chain_len(2 * exchanges as u64 + 16)
}

/// Message payload of `(flow, exchange)`: both indexes, then seeded
/// filler — unique per message, so a forwarded or delivered copy names
/// the message it came from.
fn payload(flow: usize, exchange: usize, len: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut p = vec![0u8; len];
    rng.fill_bytes(&mut p);
    let tag = ((flow as u64) << 32 | exchange as u64).to_be_bytes();
    let n = tag.len().min(len);
    p[..n].copy_from_slice(&tag[..n]);
    p
}

fn random_digest(rng: &mut StdRng) -> Digest {
    let mut d = [0u8; 20];
    rng.fill_bytes(&mut d);
    Digest::from_slice(&d)
}

/// Whether a relay would count `bytes` as a parse error.
fn fails_to_parse(bytes: &[u8]) -> bool {
    let mut slices: [&[u8]; alpha_wire::limits::MAX_BUNDLE] = [&[]; alpha_wire::limits::MAX_BUNDLE];
    match bundle::split(bytes, &mut slices) {
        Err(_) => true,
        Ok(n) => slices[..n].iter().any(|s| PacketView::parse(s).is_err()),
    }
}

/// A frame that does not parse: a truncation of `template` or random
/// bytes, redrawn until the decoder rejects it. Never starts with 0x00,
/// which the engine's worker reserves for its stats and mesh control
/// lanes (those are answered, not parsed).
fn garbage(template: &[u8], rng: &mut StdRng) -> Vec<u8> {
    loop {
        let candidate = if rng.gen_bool(0.5) {
            template[..rng.gen_range(1..template.len())].to_vec()
        } else {
            let mut g = vec![0u8; rng.gen_range(8..=64usize)];
            rng.fill_bytes(&mut g);
            g
        };
        if candidate[0] != 0 && fails_to_parse(&candidate) {
            return candidate;
        }
    }
}

/// `s2` with one payload bit flipped. The payload is the tail of an S2.
fn flip_payload_bit(s2: &[u8], payload_len: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut forged = s2.to_vec();
    let byte = forged.len() - 1 - rng.gen_range(0..payload_len);
    forged[byte] ^= 1 << rng.gen_range(0..8u32);
    forged
}

/// An S1 for an association nobody announced.
fn unknown_assoc_s1(rng: &mut StdRng) -> Vec<u8> {
    Packet {
        // Generated flows use small ids; the top bit keeps these apart.
        assoc_id: rng.gen::<u64>() | 1 << 63,
        alg: ALG,
        chain_index: u64::from(rng.gen::<u16>()) | 1,
        body: Body::S1 {
            element: random_digest(rng),
            presig: PreSignature::Cumulative(vec![random_digest(rng)]),
        },
    }
    .emit()
}

/// `k` distinct values from `range`, ascending.
fn pick_distinct(range: std::ops::Range<usize>, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut all: Vec<usize> = range.collect();
    for i in 0..k.min(all.len()) {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(k);
    all.sort_unstable();
    all
}

/// Generate the trace of `shape` from `seed`.
#[must_use]
pub fn relay_trace(seed: u64, shape: TraceShape) -> RelayTrace {
    assert!(shape.flows > 0 && shape.flows <= usize::from(u16::MAX));
    assert!(shape.payload >= 8, "payload carries an 8-byte message tag");
    let cfg = relay_protocol(shape.exchanges);
    let per_send = exchanges_per_send(shape.flood);
    let mut trace = RelayTrace {
        shape,
        arena: Vec::new(),
        dgrams: Vec::new(),
        sends: Vec::new(),
        handshakes: Vec::with_capacity(shape.flows),
    };
    // Per flow, the sends it contributes, in order; interleaved
    // round-robin across flows below.
    let mut flow_sends: Vec<Vec<Send>> = Vec::with_capacity(shape.flows);

    for flow in 0..shape.flows {
        let mut rng = stream_rng(seed, flow as u64);
        let (hs, hs1) = bootstrap::initiate(cfg, flow as u64 + 1, None, &mut rng);
        let (mut server, hs2, _) =
            bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng)
                .expect("generated HS1 is well-formed");
        let (mut client, _) = hs
            .complete(&hs2, AuthRequirement::None)
            .expect("generated HS2 is well-formed");
        trace.handshakes.push([hs1.emit(), hs2.emit()]);

        // The full ping-pong runs locally; the reverse direction (A1)
        // is consumed here and never sent.
        let mut s2s: Vec<Vec<u8>> = Vec::with_capacity(shape.exchanges);
        let mut sends = Vec::with_capacity(shape.exchanges.div_ceil(per_send));
        for block in (0..shape.exchanges).step_by(per_send) {
            let block_end = (block + per_send).min(shape.exchanges);
            let first = trace.dgrams.len();
            // Which exchanges of this block carry an in-flow attack.
            let (bad_mac_at, replay_at, garbage_at) = if shape.flood {
                (
                    pick_distinct(block..block_end, FLOOD_PER_CLASS, &mut rng),
                    // A replay needs an S2 two exchanges back.
                    pick_distinct(block.max(2)..block_end, FLOOD_PER_CLASS, &mut rng),
                    pick_distinct(block..block_end, FLOOD_PER_CLASS, &mut rng),
                )
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
            for x in block..block_end {
                let now = Timestamp::from_millis(10 + x as u64);
                let message = payload(flow, x, shape.payload, &mut rng);
                let s1 = client
                    .sign(&message, now)
                    .expect("chain sized for the trace");
                let a1 = server
                    .handle(&s1, now, &mut rng)
                    .expect("server accepts generated S1")
                    .packet()
                    .expect("S1 is answered by an A1");
                let s2 = client
                    .handle(&a1, now, &mut rng)
                    .expect("client accepts generated A1")
                    .packet()
                    .expect("A1 is answered by the S2");
                server
                    .handle(&s2, now, &mut rng)
                    .expect("server verifies generated S2");
                let s2 = s2.emit();
                trace.push(&s1.emit(), Kind::LegitS1);
                if bad_mac_at.contains(&x) {
                    let forged = flip_payload_bit(&s2, shape.payload, &mut rng);
                    trace.push(&forged, Kind::BadMac);
                }
                trace.push(&s2, Kind::LegitS2);
                if replay_at.contains(&x) {
                    let old = s2s[x - 2].clone();
                    trace.push(&old, Kind::Unsolicited);
                }
                if garbage_at.contains(&x) {
                    let junk = garbage(&s2, &mut rng);
                    trace.push(&junk, Kind::Garbage);
                }
                s2s.push(s2);
            }
            sends.push(Send {
                source: Source::Flow(flow as u16),
                first: first as u32,
                count: (trace.dgrams.len() - first) as u16,
            });
        }
        flow_sends.push(sends);
    }

    // Transmission order: send k of every flow, then send k+1 of every
    // flow; in the flood mix an attacker send after every few.
    let mut attacker_rng = stream_rng(seed, u64::MAX);
    let mut since_attacker = 0;
    let rounds = flow_sends.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for sends in &flow_sends {
            let Some(send) = sends.get(round) else {
                continue;
            };
            trace.sends.push(*send);
            since_attacker += 1;
            if shape.flood && since_attacker == FLOW_SENDS_PER_ATTACKER_SEND {
                since_attacker = 0;
                let first = trace.dgrams.len();
                for _ in 0..UNKNOWN_PER_ATTACKER_SEND {
                    let s1 = unknown_assoc_s1(&mut attacker_rng);
                    trace.push(&s1, Kind::UnknownAssoc);
                }
                trace.sends.push(Send {
                    source: Source::Attacker(attacker_rng.gen_range(0..ATTACKER_SOCKETS as u8)),
                    first: first as u32,
                    count: UNKNOWN_PER_ATTACKER_SEND as u16,
                });
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_core::{DropReason, Relay, RelayConfig, RelayDecision};

    fn shape(flood: bool) -> TraceShape {
        TraceShape {
            flows: 32,
            exchanges: 30,
            payload: 16,
            flood,
        }
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        for flood in [false, true] {
            let a = relay_trace(7, shape(flood));
            let b = relay_trace(7, shape(flood));
            let c = relay_trace(8, shape(flood));
            assert_eq!(a.arena, b.arena);
            assert_eq!(a.handshakes, b.handshakes);
            assert_eq!(a.sends.len(), b.sends.len());
            assert_eq!(a.kind_counts(), b.kind_counts());
            assert_ne!(a.arena, c.arena);
            // The shape of the mix does not depend on the seed.
            assert_eq!(a.kind_counts(), c.kind_counts());
            assert_eq!(a.sends.len(), c.sends.len());
        }
    }

    #[test]
    fn attack_classes_are_equal_and_a_third_of_legit() {
        // 32 flows x 24 exchanges = 2 flood sends per flow, 4 attacker
        // sends: every class has 128 datagrams.
        let t = relay_trace(
            3,
            TraceShape {
                flows: 32,
                exchanges: 24,
                payload: 16,
                flood: true,
            },
        );
        let c = t.kind_counts();
        assert_eq!(c[Kind::LegitS1.index()], 32 * 24);
        assert_eq!(c[Kind::LegitS2.index()], 32 * 24);
        // The first send of a flow has 10 slots for a replay and still
        // places both; every class ends at two per flow send.
        for class in Kind::ATTACKS {
            assert_eq!(c[class.index()], 128, "{}", class.label());
        }
        let attack: u64 = Kind::ATTACKS.iter().map(|k| c[k.index()]).sum();
        assert_eq!(
            attack * 3,
            c[Kind::LegitS1.index()] + c[Kind::LegitS2.index()]
        );
        assert_eq!(
            relay_trace(3, shape(false)).kind_counts()[2..],
            [0, 0, 0, 0]
        );
    }

    #[test]
    fn every_send_is_whole_exchanges_from_one_source() {
        let t = relay_trace(5, shape(true));
        let mut covered = 0usize;
        for send in &t.sends {
            let kinds: Vec<Kind> = t.range(send).map(|i| t.dgrams[i].kind).collect();
            covered += kinds.len();
            match send.source {
                Source::Attacker(a) => {
                    assert!((a as usize) < ATTACKER_SOCKETS);
                    assert!(kinds.iter().all(|&k| k == Kind::UnknownAssoc));
                }
                Source::Flow(_) => {
                    let s1 = kinds.iter().filter(|&&k| k == Kind::LegitS1).count();
                    let s2 = kinds.iter().filter(|&&k| k == Kind::LegitS2).count();
                    assert_eq!(s1, s2);
                    assert!(kinds.len() <= 32, "a send fits one sendmmsg batch");
                    assert!(!kinds.contains(&Kind::UnknownAssoc));
                }
            }
        }
        assert_eq!(
            covered,
            t.dgrams.len(),
            "every datagram is sent exactly once"
        );
    }

    /// The reference relay of `alpha-core` must judge every generated
    /// datagram the way its kind says, in transmission order — this is
    /// what makes the live run's exact drop-count check meaningful.
    #[test]
    fn reference_relay_judges_each_kind_as_labelled() {
        let t = relay_trace(9, shape(true));
        let cfg = RelayConfig::default();
        let mut relays: Vec<Relay> = (0..t.shape.flows).map(|_| Relay::new(cfg)).collect();
        for (relay, hs) in relays.iter_mut().zip(&t.handshakes) {
            for frame in hs {
                let view = PacketView::parse(frame).expect("handshake parses");
                let (decision, _) = relay.observe_view(&view, frame.len(), Timestamp::ZERO);
                assert_eq!(decision, RelayDecision::Forward);
            }
        }
        let mut verified = 0;
        for send in &t.sends {
            for i in t.range(send) {
                let (bytes, kind) = (t.bytes(i), t.dgrams[i].kind);
                if kind == Kind::Garbage {
                    assert!(fails_to_parse(bytes));
                    assert_ne!(bytes[0], 0);
                    continue;
                }
                let view = PacketView::parse(bytes).expect("non-garbage parses");
                let Source::Flow(flow) = send.source else {
                    // No route: the engine drops it before any relay
                    // sees it; here only its shape is checked.
                    assert_eq!(kind, Kind::UnknownAssoc);
                    assert!(view.assoc_id > t.shape.flows as u64);
                    continue;
                };
                let now = Timestamp::from_millis(1);
                let (decision, outcome) =
                    relays[flow as usize].observe_view(&view, bytes.len(), now);
                let expected = match kind {
                    Kind::LegitS1 | Kind::LegitS2 => RelayDecision::Forward,
                    Kind::BadMac => RelayDecision::Drop(DropReason::BadMac),
                    Kind::Unsolicited => RelayDecision::Drop(DropReason::Unsolicited),
                    Kind::UnknownAssoc | Kind::Garbage => unreachable!(),
                };
                assert_eq!(decision, expected, "datagram {i} ({})", kind.label());
                assert_eq!(outcome.verified_s2.is_some(), kind == Kind::LegitS2);
                verified += u64::from(kind == Kind::LegitS2);
            }
        }
        assert_eq!(verified, t.kind_counts()[Kind::LegitS2.index()]);
    }

    #[test]
    fn payload_names_its_message() {
        let mut rng = stream_rng(1, 1);
        let p = payload(3, 9, 16, &mut rng);
        assert_eq!(&p[..8], &(3u64 << 32 | 9).to_be_bytes());
        assert_eq!(p.len(), 16);
    }
}
