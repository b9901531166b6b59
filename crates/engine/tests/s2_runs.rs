//! A bundle of S2s is verified as one run: one shard lock, one batched
//! crypto sweep, each Merkle node the bundle shares hashed once. That must
//! decide exactly what the same S2s decide one per datagram. The first two
//! properties feed seeded scenarios to twin engines — one receives
//! bundles, the other single packets — and compare everything observable
//! at every step; ci.sh runs this suite under each digest backend. The
//! last two pin what one bundle costs each verifying role, in hashes.

mod common;

use std::net::SocketAddr;
use std::sync::atomic::Ordering;

use alpha_core::signal::Signal;
use alpha_core::{Association, Config, DropReason, Mode, Reliability, Timestamp};
use alpha_crypto::{counting, Algorithm, Digest};
use alpha_engine::{EngineConfig, EngineCore, EngineOutput, FlowKey};
use alpha_wire::limits::MAX_BUNDLE;
use alpha_wire::{bundle, Body, Packet};
use common::net::{client, packets, server, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DROPS: [DropReason; 7] = [
    DropReason::BadChainElement,
    DropReason::BadMac,
    DropReason::Unsolicited,
    DropReason::BadVerdict,
    DropReason::RateLimited,
    DropReason::UnknownAssociation,
    DropReason::Malformed,
];

const NOW: Timestamp = Timestamp(1_000);

/// Everything one engine shows after a delivery step.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    delivered: Vec<(u64, u32, Vec<u8>)>,
    extracted: Vec<(u64, Vec<u8>)>,
    /// Packets sent, taken out of their datagrams, with destination.
    sent: Vec<(SocketAddr, Vec<u8>)>,
    drops: [u64; 7],
    s2_verified: u64,
    buffered: i64,
}

fn seen(engine: &EngineCore, out: EngineOutput) -> Seen {
    let mut sent = Vec::new();
    for (dst, frame) in &out.datagrams {
        sent.extend(packets(frame).iter().map(|p| (*dst, p.to_vec())));
    }
    let m = engine.metrics();
    Seen {
        delivered: out.delivered,
        extracted: out
            .extracted
            .iter()
            .map(|(id, p)| (id, p.to_vec()))
            .collect(),
        sent,
        drops: DROPS.map(|r| m.drops(r)),
        s2_verified: m.s2_verified.load(Ordering::Relaxed),
        buffered: engine.buffered_bytes(),
    }
}

/// Two engines in the same state, one fed bundles, one single packets.
struct Twin {
    bundled: (EngineCore, StdRng),
    single: (EngineCore, StdRng),
}

impl Twin {
    fn new(cfg: EngineConfig, seed: u64) -> Twin {
        let rng = || StdRng::seed_from_u64(seed);
        Twin {
            bundled: (EngineCore::new(cfg), rng()),
            single: (EngineCore::new(cfg), rng()),
        }
    }

    /// Deliver encoded `packets` from `from` to both engines — as bundles
    /// of up to [`MAX_BUNDLE`] to one, one per datagram to the other —
    /// and require both to show the same.
    fn deliver(&mut self, from: SocketAddr, packets: &[Vec<u8>]) -> Seen {
        let feed = |(engine, rng): &mut (EngineCore, StdRng), datagrams: &[Vec<u8>]| {
            let batch: Vec<(SocketAddr, &[u8])> =
                datagrams.iter().map(|d| (from, d.as_slice())).collect();
            let out = engine.handle_datagrams(&batch, NOW, rng);
            seen(engine, out)
        };
        let b = feed(&mut self.bundled, &bundles(packets));
        let s = feed(&mut self.single, packets);
        assert_eq!(b, s, "bundled and one-per-datagram delivery disagree");
        b
    }
}

/// What the scenario puts between two data exchanges.
#[derive(Debug, Clone, Copy)]
enum Barrier {
    None,
    Signal,
    Renewal,
}

/// A copy of S2 `p` with one byte flipped in its payload, a sibling or
/// its disclosed key.
fn forged(p: &Packet, how: u32) -> Packet {
    let mut p = p.clone();
    let flip = |d: &mut Digest| {
        let mut b = d.as_bytes().to_vec();
        let mid = b.len() / 2;
        b[mid] ^= 0x10;
        *d = Digest::from_slice(&b);
    };
    if let Body::S2 {
        key, path, payload, ..
    } = &mut p.body
    {
        match how % 3 {
            0 if !payload.is_empty() => {
                let mid = payload.len() / 2;
                payload[mid] ^= 1;
            }
            1 if !path.is_empty() => flip(&mut path[0]),
            _ => flip(key),
        }
    }
    p
}

/// Drive `alice` through three exchanges — data, the barrier, data —
/// handing every batch of packets bound for the verifying side to `hop`,
/// which returns what comes back. S2s go out in random slices of the
/// queue, shuffled, duplicated, with a forged copy of one item, and S2s
/// of an exchange are held back (unreliable) or repeated (reliable) to
/// arrive among the next exchange's.
fn drive(
    rng: &mut StdRng,
    alice: &mut Association,
    mode: Mode,
    barrier: Barrier,
    hop: &mut dyn FnMut(&[Vec<u8>]) -> Vec<Packet>,
) {
    let reliable = alice.config().reliability == Reliability::Reliable;
    let mut late: Vec<Packet> = Vec::new();
    let mut serial = 0u32;
    for round in 0..3 {
        if !alice.signer().is_idle() {
            break;
        }
        let mut offer = None;
        let s1 = match (round, barrier) {
            (1, Barrier::Signal) => {
                let sig = Signal::RateLimit {
                    bytes_per_sec: 1 << 20,
                };
                alice.send_signal(&sig, NOW)
            }
            (1, Barrier::Renewal) => alice.begin_renewal(NOW, rng).map(|(o, s1)| {
                offer = Some(o);
                s1
            }),
            _ => {
                let n = rng.gen_range(2..=24);
                let msgs: Vec<Vec<u8>> = (0..n)
                    .map(|_| {
                        serial += 1;
                        let len: usize = rng.gen_range(1..200);
                        format!("message {serial} ")
                            .repeat(len / 10 + 1)
                            .into_bytes()
                    })
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                alice.sign_batch(&refs, mode, NOW)
            }
        }
        .expect("alice signs");
        let respond = |alice: &mut Association, replies: Vec<Packet>| -> Vec<Packet> {
            let mut rng = StdRng::seed_from_u64(0);
            replies
                .iter()
                .filter_map(|r| alice.handle(r, NOW, &mut rng).ok())
                .flat_map(|resp| resp.packets)
                .collect()
        };
        let mut queue = respond(alice, hop(&[s1.emit()]));
        let fresh = queue.len();
        for p in late.drain(..) {
            let at = rng.gen_range(0..=queue.len());
            queue.insert(at, p);
        }
        if offer.is_none() && fresh > 1 {
            let keep = rng.gen_range(0..fresh / 2 + 1);
            if reliable {
                late.extend(queue.iter().take(keep).cloned());
            } else {
                late.extend(queue.drain(queue.len() - keep..));
            }
        }
        for _ in 0..64 {
            if queue.is_empty() {
                break;
            }
            let take = rng.gen_range(1..=queue.len().min(MAX_BUNDLE - 2));
            let mut batch: Vec<Packet> = queue.drain(..take).collect();
            if rng.gen_bool(0.3) {
                for i in (1..batch.len()).rev() {
                    batch.swap(i, rng.gen_range(0..=i));
                }
            }
            if rng.gen_bool(0.3) {
                let dup = batch[rng.gen_range(0..batch.len())].clone();
                batch.insert(rng.gen_range(0..=batch.len()), dup);
            }
            if rng.gen_bool(0.5) {
                let bad = forged(&batch[rng.gen_range(0..batch.len())], rng.gen());
                batch.insert(rng.gen_range(0..=batch.len()), bad);
            }
            let bytes: Vec<Vec<u8>> = batch.iter().map(Packet::emit).collect();
            queue.extend(respond(alice, hop(&bytes)));
        }
        if let Some(offer) = offer {
            let _ = alice.commit_renewal(offer);
        }
    }
    if !late.is_empty() {
        let bytes: Vec<Vec<u8>> = late.iter().map(Packet::emit).collect();
        hop(&bytes);
    }
}

/// Every mode with S2 runs × both reliabilities × each barrier, a few
/// seeds each, across the three hash algorithms.
fn scenarios() -> Vec<(u64, Config, Mode, Barrier)> {
    let modes = [
        Mode::Merkle,
        Mode::CumulativeMerkle { leaves_per_tree: 5 },
        Mode::Cumulative,
    ];
    let mut out = Vec::new();
    let mut seed = 0u64;
    for mode in modes {
        for reliability in [Reliability::Unreliable, Reliability::Reliable] {
            for barrier in [Barrier::None, Barrier::Signal, Barrier::Renewal] {
                for _ in 0..3 {
                    seed += 1;
                    let alg = Algorithm::ALL[seed as usize % 3];
                    let cfg = Config::new(alg)
                        .with_chain_len(64)
                        .with_reliability(reliability);
                    out.push((seed, cfg, mode, barrier));
                }
            }
        }
    }
    out
}

#[test]
fn host_bundles_decide_as_single_packets() {
    let ca = client();
    for (seed, cfg, mode, barrier) in scenarios() {
        let pair = || Association::pair(cfg, 7, &mut StdRng::seed_from_u64(seed));
        let (mut alice, bob) = pair();
        let mut twin = Twin::new(EngineConfig::new(cfg), seed);
        twin.bundled.0.add_host(ca, bob, NOW);
        twin.single.0.add_host(ca, pair().1, NOW);
        let mut delivered = 0;
        let mut hop = |packets: &[Vec<u8>]| {
            let seen = twin.deliver(ca, packets);
            delivered += seen.delivered.len();
            seen.sent
                .iter()
                .map(|(dst, bytes)| {
                    assert_eq!(*dst, ca);
                    Packet::parse(bytes).expect("own encoding")
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        drive(&mut rng, &mut alice, mode, barrier, &mut hop);
        assert!(delivered > 0, "seed {seed}: nothing delivered");
    }
}

/// The relay twins learn the association from the handshake of a
/// client and a server engine, carried by a bypassed relay they stand
/// in for; then `drive` runs the client's association and the server's
/// answers it.
#[test]
fn relay_bundles_decide_as_single_packets() {
    let (ca, sa) = (client(), server());
    for (seed, cfg, mode, barrier) in scenarios() {
        let cfg = EngineConfig::new(cfg);
        let (mut net, ra) = Net::path(seed, cfg, cfg, Some(cfg));
        net.bypass(ra);
        let key = net.connect(ca, ra, 9);
        let mut twin = Twin::new(cfg, seed);
        for relay in [&twin.bundled.0, &twin.single.0] {
            relay.add_route(ca, sa);
        }
        for handshake in std::mem::take(&mut net.bypassed) {
            twin.deliver(handshake.src, &[handshake.frame]);
        }
        let bob = net.engine(sa);
        let bob_key = FlowKey { peer: ra, ..key };
        let mut extracted = 0;
        let mut bob_rng = StdRng::seed_from_u64(seed);
        let mut hop = |packets: &[Vec<u8>]| {
            let seen = twin.deliver(ca, packets);
            extracted += seen.extracted.len();
            let mut back = Vec::new();
            for (dst, bytes) in seen.sent {
                assert_eq!(dst, sa);
                let pkt = Packet::parse(&bytes).expect("own encoding");
                let resp = bob.with_association(bob_key, |bob| bob.handle(&pkt, NOW, &mut bob_rng));
                let Some(Ok(resp)) = resp else {
                    continue;
                };
                for reply in resp.packets {
                    for (dst, bytes) in twin.deliver(sa, &[reply.emit()]).sent {
                        assert_eq!(dst, ca);
                        back.push(Packet::parse(&bytes).expect("own encoding"));
                    }
                }
            }
            back
        };
        let mut rng = StdRng::seed_from_u64(seed);
        net.engine(ca)
            .with_association(key, |alice| {
                drive(&mut rng, alice, mode, barrier, &mut hop);
            })
            .expect("the client's flow");
        assert!(extracted > 0, "seed {seed}: nothing verified in transit");
    }
}

/// A client engine and the verifying engine under measurement: the
/// server, or the relay engine before it.
struct Path {
    net: Net,
    key: FlowKey,
    verifier: SocketAddr,
    rng: StdRng,
}

impl Path {
    fn new(cfg: Config, relay: bool) -> Path {
        let cfg = EngineConfig::new(cfg);
        let (mut net, verifier) = Net::path(5, cfg, cfg, relay.then_some(cfg));
        let key = net.connect(client(), verifier, 3);
        Path {
            net,
            key,
            verifier,
            rng: StdRng::seed_from_u64(5),
        }
    }

    /// Sign `msgs` in `mode` and run the exchange up to the S2s, which
    /// are returned undelivered, one packet each.
    fn s2s(&mut self, msgs: &[&[u8]], mode: Mode) -> Vec<Vec<u8>> {
        self.net.sign(client(), self.key, msgs, mode).expect("sign");
        let held = self.net.pump_holding(|d| d.carries_s2());
        held.iter()
            .flat_map(|d| packets(&d.frame))
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// Hashes the verifying engine computes on `frames` from the client,
    /// and the payloads it verified.
    fn hashes(&mut self, frames: &[Vec<u8>]) -> (u64, usize) {
        let batch: Vec<(SocketAddr, &[u8])> =
            frames.iter().map(|f| (client(), f.as_slice())).collect();
        let engine = self.net.engine(self.verifier);
        let scope = counting::Scope::start();
        let out = engine.handle_datagrams(&batch, NOW, &mut self.rng);
        let hashes = scope.finish().invocations;
        let verified = out.delivered.len() + out.extracted.len();
        self.net.send(self.verifier, out);
        self.net.pump();
        (hashes, verified)
    }
}

/// Encoded packets framed as bundles of up to [`MAX_BUNDLE`].
fn bundles(packets: &[Vec<u8>]) -> Vec<Vec<u8>> {
    packets
        .chunks(MAX_BUNDLE)
        .map(|chunk| {
            let slices: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
            let mut frame = Vec::new();
            bundle::emit_slices_into(&slices, &mut frame).expect("bundle fits");
            frame
        })
        .collect()
}

/// Disclosing an exchange's key costs its first S2 one chain hash
/// (`derive(announce index, key) == announce`); later S2s compare it.
const KEY_ACCEPT: u64 = 1;

#[test]
fn merkle_bundle_costs_each_distinct_node_once_on_host_and_relay() {
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 1024]).collect();
    let msgs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    for relay in [false, true] {
        let mut path = Path::new(cfg, relay);
        // A 32-leaf tree in two bundles of 16: 16 leaf + 15 node + 1
        // keyed-root hashes each, the key accepted once.
        let s2s = path.s2s(&msgs, Mode::Merkle);
        let frames = bundles(&s2s);
        assert_eq!(path.hashes(&frames[..1]), (16 + 15 + 1 + KEY_ACCEPT, 16));
        assert_eq!(path.hashes(&frames[1..]), (16 + 15 + 1, 16));
        // One S2 per datagram: Table 1's 1 + log2 n each.
        let s2s = path.s2s(&msgs, Mode::Merkle);
        assert_eq!(path.hashes(&s2s[..1]), (1 + 5 + KEY_ACCEPT, 1));
        for s2 in &s2s[1..] {
            assert_eq!(path.hashes(std::slice::from_ref(s2)), (1 + 5, 1));
        }
    }
}

#[test]
fn mac_modes_cost_the_same_bundled_or_not() {
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 100]).collect();
    let msgs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    // An HMAC is two hash passes.
    const HMAC: u64 = 2;
    for relay in [false, true] {
        let mut path = Path::new(cfg, relay);
        let s2s = path.s2s(&msgs[..1], Mode::Base);
        assert_eq!(path.hashes(&s2s), (HMAC + KEY_ACCEPT, 1), "Base");
        let s2s = path.s2s(&msgs, Mode::Cumulative);
        assert_eq!(path.hashes(&bundles(&s2s)), (8 * HMAC + KEY_ACCEPT, 8));
        let s2s = path.s2s(&msgs, Mode::Cumulative);
        let single: Vec<(u64, usize)> = s2s
            .iter()
            .map(|s2| path.hashes(std::slice::from_ref(s2)))
            .collect();
        assert_eq!(single[0], (HMAC + KEY_ACCEPT, 1));
        assert!(single[1..].iter().all(|&c| c == (HMAC, 1)));
    }
}
