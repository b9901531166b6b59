//! A relay runs the receiver's own check (§3.1, §3.3), so the two must
//! agree: an on-path [`Relay`] verifies exactly the S2s the receiving
//! host accepts — a first delivery or a duplicate — and forwards exactly
//! the A2s the sending host accepts. Seeded exchanges in every mode and
//! both reliabilities feed every S2 and A2, genuine or mutated, to the
//! relay and to the host it is bound for, and both judgments are held to
//! one table of what each side reports per case. ci.sh runs this suite
//! under each digest backend.

use std::collections::{HashSet, VecDeque};

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{
    Association, Config, DropReason, Mode, ProtocolError, Relay, RelayConfig, RelayDecision,
    RelayEvent, Reliability, Timestamp,
};
use alpha_crypto::chain::ChainError;
use alpha_crypto::{Algorithm, Digest};
use alpha_wire::{A2Disclosure, Body, Packet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const T0: Timestamp = Timestamp::ZERO;
const EXCHANGES: usize = 6;
const SEEDS: u64 = 8;

/// How an S2 reaches both judges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum S2Case {
    /// As signed: a first delivery, or a retransmission.
    Genuine,
    /// A replay of an S2 of the current exchange.
    Duplicate,
    /// An S2 of the previous exchange, after the next exchange's S1.
    Late,
    /// A replay of an S2 two or more exchanges old.
    Stale,
    /// Claims an exchange no S1 announced.
    NoS1,
    FlipPayload,
    FlipKey,
    FlipPath,
    /// One sibling more or fewer than the tree is deep.
    WrongDepth,
    /// A sequence number the pre-signature does not cover.
    SeqBeyond,
}

use S2Case::*;

/// What each side reports for an S2: the relay's drop reason (`None`:
/// forwarded and verified) and the receiving host's verdict (a reliable
/// host answers a bad MAC with a nack, which reads as `BadMac` here).
const S2_TABLE: [(S2Case, Option<DropReason>, Result<(), ProtocolError>); 10] = [
    (Genuine, None, Ok(())),
    (Duplicate, None, Ok(())),
    (Late, None, Ok(())),
    (
        Stale,
        Some(DropReason::Unsolicited),
        Err(ProtocolError::NoExchange),
    ),
    (
        NoS1,
        Some(DropReason::Unsolicited),
        Err(ProtocolError::NoExchange),
    ),
    (
        FlipPayload,
        Some(DropReason::BadMac),
        Err(ProtocolError::BadMac),
    ),
    (
        FlipKey,
        Some(DropReason::BadChainElement),
        Err(ProtocolError::Chain(ChainError::Mismatch)),
    ),
    (
        FlipPath,
        Some(DropReason::BadMac),
        Err(ProtocolError::BadMac),
    ),
    (
        WrongDepth,
        Some(DropReason::BadMac),
        Err(ProtocolError::BadMac),
    ),
    // The one role difference: the host refuses a seq outside the bundle
    // before its key, the relay after.
    (
        SeqBeyond,
        Some(DropReason::BadMac),
        Err(ProtocolError::BadSeq),
    ),
];

/// The same for an A2 and the sending host, while it awaits verdicts.
const A2_TABLE: [(bool, Option<DropReason>, Result<(), ProtocolError>); 2] = [
    (true, None, Ok(())),
    (
        false,
        Some(DropReason::BadVerdict),
        Err(ProtocolError::BadMac),
    ),
];

fn expected(case: S2Case) -> (Option<DropReason>, Result<(), ProtocolError>) {
    let row = S2_TABLE.iter().find(|row| row.0 == case).unwrap();
    (row.1, row.2)
}

/// Alice → relay → Bob, handshake learned by the relay. No S1 rate
/// limit: every exchange happens at one instant.
fn relayed_pair(cfg: Config, seed: u64) -> (Association, Association, Relay, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relay = Relay::new(RelayConfig {
        s1_bytes_per_sec: None,
        ..RelayConfig::default()
    });
    let (hs, init) = bootstrap::initiate(cfg, 9, None, &mut rng);
    assert_eq!(relay.observe(&init, T0).0, RelayDecision::Forward);
    let (bob, reply, _) =
        bootstrap::respond(cfg, &init, None, AuthRequirement::None, &mut rng).unwrap();
    assert_eq!(relay.observe(&reply, T0).0, RelayDecision::Forward);
    let (alice, _) = hs.complete(&reply, AuthRequirement::None).unwrap();
    (alice, bob, relay, rng)
}

fn flip_bit(bytes: &mut [u8], rng: &mut StdRng) {
    let i = rng.gen_range(0..bytes.len());
    bytes[i] ^= 1u8 << rng.gen_range(0..8u32);
}

fn flip(d: &Digest, rng: &mut StdRng) -> Digest {
    let mut bytes = d.as_bytes().to_vec();
    flip_bit(&mut bytes, rng);
    Digest::from_slice(&bytes)
}

/// `case`'s copy of a genuine S2 of a bundle of `covered` messages, or
/// `None` where the mutation does not apply: no path to corrupt, or a
/// MAC mode (`!merkle`), whose check does not read the path.
fn mutate(
    s2: &Packet,
    case: S2Case,
    covered: u32,
    merkle: bool,
    rng: &mut StdRng,
) -> Option<Packet> {
    let mut p = s2.clone();
    let Body::S2 {
        key,
        seq,
        path,
        payload,
    } = &mut p.body
    else {
        unreachable!("an S2")
    };
    match case {
        FlipPayload => flip_bit(payload, rng),
        FlipKey => *key = flip(key, rng),
        FlipPath if !path.is_empty() => {
            let i = rng.gen_range(0..path.len());
            path[i] = flip(&path[i], rng);
        }
        WrongDepth if merkle => {
            if !path.is_empty() && rng.gen_bool(0.5) {
                path.pop();
            } else {
                path.push(*key);
            }
        }
        SeqBeyond => *seq = covered + rng.gen_range(0..3u32),
        NoS1 => p.chain_index -= 2,
        Duplicate => {}
        _ => return None,
    }
    Some(p)
}

fn is_nack(pkt: &Packet) -> bool {
    match &pkt.body {
        Body::A2 {
            disclosure: A2Disclosure::Flat { ack, .. },
            ..
        } => !ack,
        Body::A2 {
            disclosure: A2Disclosure::Amt(items),
            ..
        } => items.iter().any(|item| !item.ack),
        _ => false,
    }
}

fn relay_verdict(decision: RelayDecision) -> Option<DropReason> {
    match decision {
        RelayDecision::Forward => None,
        RelayDecision::Drop(reason) => Some(reason),
    }
}

/// One direction of one association under test, and what it has seen.
struct Path {
    mode: Mode,
    alice: Association,
    bob: Association,
    relay: Relay,
    rng: StdRng,
    /// `(key index, seq)` Bob has delivered.
    delivered: HashSet<(u64, u32)>,
    cases: HashSet<S2Case>,
    a2s: [usize; 2],
}

impl Path {
    /// Judge one S2 on the relay and on Bob, against the table. Returns
    /// Bob's replies.
    fn s2(&mut self, pkt: &Packet, case: S2Case) -> Vec<Packet> {
        let ctx = format!("{:?} {case:?} {pkt:?}", self.mode);
        let (decision, events) = self.relay.observe(pkt, T0);
        let relay = relay_verdict(decision);
        let (host, replies) = match self.bob.handle(pkt, T0, &mut self.rng) {
            Err(e) => (Err(e), Vec::new()),
            Ok(r) if r.packets.iter().any(is_nack) => (Err(ProtocolError::BadMac), r.packets),
            Ok(r) => {
                let Body::S2 { seq, payload, .. } = &pkt.body else {
                    unreachable!("an S2")
                };
                let first = self.delivered.insert((pkt.chain_index, *seq));
                let expect: &[(u32, Vec<u8>)] = &[(*seq, payload.clone())];
                assert_eq!(r.deliveries, &expect[..usize::from(first)], "{ctx}");
                (Ok(()), r.packets)
            }
        };
        assert_eq!((relay, host), expected(case), "{ctx}");
        if relay.is_none() {
            let verified = events
                .iter()
                .any(|e| matches!(e, RelayEvent::VerifiedPayload { .. }));
            assert!(verified, "forwarded unverified: {ctx}");
        }
        self.cases.insert(case);
        replies
    }

    /// Judge one A2 on the relay and on Alice, against the table, while
    /// Alice awaits verdicts (after that she has no exchange to judge it
    /// by). Returns her retransmissions.
    fn a2(&mut self, pkt: &Packet, genuine: bool) -> Vec<Packet> {
        if self.alice.signer().is_idle() {
            return Vec::new();
        }
        let ctx = format!("{:?} genuine={genuine} {pkt:?}", self.mode);
        let (decision, events) = self.relay.observe(pkt, T0);
        let (host, retx) = match self.alice.handle(pkt, T0, &mut self.rng) {
            Err(e) => (Err(e), Vec::new()),
            Ok(r) => (Ok(()), r.packets),
        };
        let row = A2_TABLE.iter().find(|row| row.0 == genuine).unwrap();
        assert_eq!((relay_verdict(decision), host), (row.1, row.2), "{ctx}");
        if genuine {
            assert!(!events.is_empty(), "no verdict extracted: {ctx}");
        }
        self.a2s[usize::from(genuine)] += 1;
        retx
    }
}

/// An A2 with one verdict that does not verify.
fn forge_a2(a2: &Packet, rng: &mut StdRng) -> Packet {
    let mut p = a2.clone();
    match &mut p.body {
        Body::A2 {
            disclosure: A2Disclosure::Flat { secret, .. },
            ..
        } => secret[rng.gen_range(0..secret.len())] ^= 1,
        Body::A2 {
            disclosure: A2Disclosure::Amt(items),
            ..
        } => {
            let mut junk = items[rng.gen_range(0..items.len())].clone();
            junk.secret[0] ^= 1;
            let at = rng.gen_range(0..=items.len());
            items.insert(at, junk);
        }
        _ => unreachable!("an A2"),
    }
    p
}

const MUTATIONS: [S2Case; 7] = [
    Duplicate,
    NoS1,
    FlipPayload,
    FlipKey,
    FlipPath,
    WrongDepth,
    SeqBeyond,
];

/// One seeded run: `EXCHANGES` bundles from Alice to Bob through the
/// relay, each S2 possibly preceded by a mutated copy, each A2 possibly
/// preceded by a forged one.
fn run(mode: Mode, reliability: Reliability, seed: u64) -> Path {
    let cfg = Config::new(Algorithm::Sha1)
        .with_chain_len(64)
        .with_reliability(reliability)
        .with_max_retries(64);
    let (alice, bob, relay, rng) = relayed_pair(cfg, seed);
    let mut t = Path {
        mode,
        alice,
        bob,
        relay,
        rng,
        delivered: HashSet::new(),
        cases: HashSet::new(),
        a2s: [0; 2],
    };
    let reliable = reliability == Reliability::Reliable;
    let merkle = !matches!(mode, Mode::Base | Mode::Cumulative);
    // The held S2 of the previous exchange, and S2s of those before it.
    let (mut late, mut previous, mut stale) = (None, Vec::new(), Vec::new());
    let mut rotation = MUTATIONS.iter().cycle().skip(seed as usize);
    for exchange in 0..EXCHANGES {
        let n = match mode {
            Mode::Base => 1,
            _ => t.rng.gen_range(1..=8),
        };
        let msgs: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = t.rng.gen_range(1..48);
                (0..len).map(|_| t.rng.gen()).collect()
            })
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1 = t.alice.sign_batch(&refs, mode, T0).unwrap();
        assert_eq!(t.relay.observe(&s1, T0).0, RelayDecision::Forward);
        let a1 = t.bob.handle(&s1, T0, &mut t.rng).unwrap().packet().unwrap();
        // Overtaken by the S1: replies to these answer an exchange Alice
        // has closed, so they are not judged.
        if let Some(s2) = late.take() {
            t.s2(&s2, Late);
        }
        if let Some(s2) = stale.choose(&mut t.rng).cloned() {
            t.s2(&s2, Stale);
        }
        assert_eq!(t.relay.observe(&a1, T0).0, RelayDecision::Forward);
        let mut s2s = t.alice.handle(&a1, T0, &mut t.rng).unwrap().packets;
        assert_eq!(s2s.len(), n);
        s2s.shuffle(&mut t.rng);
        // One S2 comes again after the next S1. Every other unreliable
        // exchange it comes only then, a late first delivery; a reliable
        // Alice waits for every ack, so there the late one is a copy.
        let held = s2s[0].clone();
        let mut queue: VecDeque<(Packet, bool)> = s2s.iter().cloned().map(|p| (p, true)).collect();
        if !reliable && exchange % 2 == 1 {
            queue.pop_front();
        }
        while let Some((s2, original)) = queue.pop_front() {
            let mut a2s = VecDeque::new();
            // Each signed S2 brings one mutation along, in turn: a
            // corrupted copy ahead of it or a replay after it.
            let case = if original { rotation.next() } else { None };
            let copy = case.and_then(|&case| mutate(&s2, case, n as u32, merkle, &mut t.rng));
            if let (Some(&case), Some(copy)) = (case, &copy) {
                if case != Duplicate {
                    a2s.extend(t.s2(copy, case));
                }
            }
            a2s.extend(t.s2(&s2, Genuine));
            if case == Some(&Duplicate) {
                a2s.extend(t.s2(&s2, Duplicate));
            }
            while let Some(a2) = a2s.pop_front() {
                if t.rng.gen_bool(0.5) {
                    let forged = forge_a2(&a2, &mut t.rng);
                    assert!(t.a2(&forged, false).is_empty());
                }
                queue.extend(t.a2(&a2, true).into_iter().map(|p| (p, false)));
            }
        }
        assert!(t.alice.signer().is_idle(), "exchange left open");
        late = Some(held);
        stale.extend(std::mem::replace(&mut previous, s2s));
    }
    t
}

/// Every mutation the mode admits is exercised, and in reliable mode
/// genuine and forged A2s both reach the judges.
fn check_mode(mode: Mode) {
    for reliability in [Reliability::Unreliable, Reliability::Reliable] {
        let (mut cases, mut a2s) = (HashSet::new(), [0; 2]);
        for seed in 0..SEEDS {
            let t = run(mode, reliability, seed);
            cases.extend(t.cases);
            a2s = [a2s[0] + t.a2s[0], a2s[1] + t.a2s[1]];
        }
        let merkle = !matches!(mode, Mode::Base | Mode::Cumulative);
        for (case, ..) in S2_TABLE {
            let applies = merkle || !matches!(case, FlipPath | WrongDepth);
            assert_eq!(
                cases.contains(&case),
                applies,
                "{mode:?} {reliability:?} {case:?}"
            );
        }
        let reliable = reliability == Reliability::Reliable;
        assert_eq!(
            a2s.map(|n| n > 0),
            [reliable; 2],
            "{mode:?} {reliability:?}"
        );
    }
}

#[test]
fn base_relay_judges_as_the_hosts_do() {
    check_mode(Mode::Base);
}

#[test]
fn cumulative_relay_judges_as_the_hosts_do() {
    check_mode(Mode::Cumulative);
}

#[test]
fn merkle_relay_judges_as_the_hosts_do() {
    check_mode(Mode::Merkle);
}

#[test]
fn cumulative_merkle_relay_judges_as_the_hosts_do() {
    check_mode(Mode::CumulativeMerkle { leaves_per_tree: 3 });
}
