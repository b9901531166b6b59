//! Hostile bytes against a host: a seeded mutation fuzzer over
//! `EngineCore::handle_datagrams` on a populated host engine, the host
//! half of `relay_fuzz.rs`.
//!
//! The host under test carries two flows, and signs and verifies on
//! both: a Base unreliable flow it accepted by handshake, and an ALPHA-M
//! reliable flow installed from a pre-built association. So its valid
//! trace holds every packet type a host is handed — HS1, S1, A1, a
//! bundle of S2s, S2, A2 — interleaved with the host's own signing
//! calls. Half the cases run on a deployment with HMACs and half on one
//! with prefix MACs. Each case stands a fresh host up on the trace up to
//! one datagram (the host's randomness seeded as when the trace was
//! recorded, so it is the same host), applies one to three mutations to
//! that datagram — a bit flip, a truncation, a splice with another
//! datagram of the trace, a bundle's count or length prefix rewritten,
//! or a packet's type byte swapped (`common::mutate`) — feeds it, and
//! holds the host to these rules:
//!
//! - nothing panics;
//! - every packet that is not accepted is counted once: a datagram that
//!   does not split and parse is one parse error and nothing else, and
//!   otherwise no packet is counted under more than one drop reason
//!   (protocol drops, admission, the byte-budget valve);
//! - a datagram every packet of which is dropped sends nothing, delivers
//!   nothing and leaves the engine's `snapshot()` as it was, apart from
//!   the input and drop counters;
//! - every delivery is a payload of the valid trace, and no payload is
//!   delivered twice in one case.
//!
//! The generator is seeded, so every run makes the same cases. ci.sh
//! runs the suite under every forced digest backend, and the ignored
//! long run (ten times the cases, release build) as a time-boxed smoke.

mod common;

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;

use alpha_core::{Association, Config, MacScheme, Mode, Reliability, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore, EngineOutput, FlowKey};
use common::mutate::{mutate, split};
use common::net::addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Mutated cases per tier-1 run, half under each MAC construction.
const CASES: usize = 10_000;

const NOW: Timestamp = Timestamp(1_000);

/// Seeds the host's randomness, when the trace is recorded and each time
/// it is replayed.
const HOST_SEED: u64 = 0x4057_F022;

/// Seeds the pre-built ALPHA-M association.
const PAIR_SEED: u64 = 0x4057_0002;

fn host_addr() -> SocketAddr {
    addr(3000)
}

/// The Base peer, which handshakes with the host.
fn base_peer() -> SocketAddr {
    addr(1001)
}

/// The ALPHA-M peer, whose association is installed on both ends.
fn merkle_peer() -> SocketAddr {
    addr(1002)
}

/// What the host is handed, in order: a datagram from a peer, or a
/// signing call of its own on one of its flows.
enum Step {
    Datagram(SocketAddr, Vec<u8>),
    Sign(FlowKey, Vec<Vec<u8>>, Mode),
}

/// The valid input and what it delivers.
struct Trace {
    base: Config,
    merkle: Config,
    steps: Vec<Step>,
    /// Every payload the host delivered on the valid trace.
    payloads: HashSet<Vec<u8>>,
}

impl Trace {
    /// Indices of the datagram steps.
    fn datagram_steps(&self) -> Vec<usize> {
        (0..self.steps.len())
            .filter(|&i| matches!(self.steps[i], Step::Datagram(..)))
            .collect()
    }

    fn datagrams(&self) -> Vec<&[u8]> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Datagram(_, bytes) => Some(bytes.as_slice()),
                Step::Sign(..) => None,
            })
            .collect()
    }
}

/// The host as each case starts it: the deployment's engine with the
/// ALPHA-M flow installed, and its seeded randomness.
fn host(base: Config, merkle: Config) -> (EngineCore, StdRng) {
    let engine = EngineCore::new(EngineConfig::new(base).with_shards(1));
    let (_, assoc) = Association::pair(merkle, 2, &mut StdRng::seed_from_u64(PAIR_SEED));
    engine.add_host(merkle_peer(), assoc, NOW);
    (engine, StdRng::seed_from_u64(HOST_SEED))
}

/// Hand `step` to the host; returns its output.
fn apply(host: &EngineCore, step: &Step, rng: &mut StdRng) -> EngineOutput {
    match step {
        Step::Datagram(from, bytes) => host.handle_datagrams(&[(*from, bytes)], NOW, rng),
        Step::Sign(key, msgs, mode) => {
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            host.sign_batch(*key, &refs, *mode, NOW).expect("sign")
        }
    }
}

/// The network the trace is recorded on: the host, its two peers and
/// the datagrams in flight between them.
struct Recording {
    host: EngineCore,
    host_rng: StdRng,
    base_peer: EngineCore,
    merkle_peer: EngineCore,
    peer_rng: StdRng,
    flight: VecDeque<(SocketAddr, SocketAddr, Vec<u8>)>,
    steps: Vec<Step>,
    payloads: HashSet<Vec<u8>>,
}

impl Recording {
    fn send(&mut self, src: SocketAddr, out: EngineOutput) {
        for (dst, frame) in &out.datagrams {
            self.flight.push_back((src, *dst, frame.to_vec()));
        }
    }

    /// Hand `step` to the host and record it.
    fn host_step(&mut self, step: Step) {
        let out = apply(&self.host, &step, &mut self.host_rng);
        self.payloads
            .extend(out.delivered.iter().map(|(_, _, p)| p.clone()));
        self.steps.push(step);
        self.send(host_addr(), out);
    }

    /// Carry every datagram in order until the network falls quiet.
    fn carry(&mut self) {
        while let Some((src, dst, bytes)) = self.flight.pop_front() {
            if dst == host_addr() {
                self.host_step(Step::Datagram(src, bytes));
                continue;
            }
            let peer = if dst == base_peer() {
                &self.base_peer
            } else {
                &self.merkle_peer
            };
            let out = peer.handle_datagram(src, &bytes, NOW, &mut self.peer_rng);
            self.send(dst, out);
        }
    }
}

/// The host, its two peers and four rounds: in each, both peers sign
/// toward the host and the host signs toward both (the ALPHA-M flow in
/// the first two rounds only), and every datagram is carried in order
/// until the network falls quiet. All MACs are of the `mac`
/// construction.
fn trace(mac: MacScheme) -> Trace {
    let base = Config::new(Algorithm::Sha1)
        .with_chain_len(64)
        .with_mac_scheme(mac);
    let merkle = base
        .with_mode(Mode::Merkle)
        .with_reliability(Reliability::Reliable);
    let (host_engine, host_rng) = host(base, merkle);
    let mut net = Recording {
        host: host_engine,
        host_rng,
        base_peer: EngineCore::new(EngineConfig::new(base)),
        merkle_peer: EngineCore::new(EngineConfig::new(merkle)),
        peer_rng: StdRng::seed_from_u64(7),
        flight: VecDeque::new(),
        steps: Vec::new(),
        payloads: HashSet::new(),
    };
    let (assoc, _) = Association::pair(merkle, 2, &mut StdRng::seed_from_u64(PAIR_SEED));
    let to_host_m = net.merkle_peer.add_host(host_addr(), assoc, NOW);
    let (to_host_b, out) = net
        .base_peer
        .connect(host_addr(), 1, NOW, &mut net.peer_rng);
    net.send(base_peer(), out);
    net.carry();
    let to_base = FlowKey {
        peer: base_peer(),
        assoc_id: 1,
    };
    let to_merkle = FlowKey {
        peer: merkle_peer(),
        assoc_id: 2,
    };
    let msg = |who: &str, x: usize, m: usize| format!("{who} exchange {x} message {m}");
    for x in 0..4 {
        let m = msg("base peer", x, 0);
        let out = net
            .base_peer
            .sign_batch(to_host_b, &[m.as_bytes()], Mode::Base, NOW)
            .expect("sign");
        net.send(base_peer(), out);
        net.host_step(Step::Sign(
            to_base,
            vec![msg("host", x, 0).into_bytes()],
            Mode::Base,
        ));
        if x < 2 {
            let msgs: Vec<Vec<u8>> = (0..4)
                .map(|m| msg("merkle peer", x, m).into_bytes())
                .collect();
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            let out = net
                .merkle_peer
                .sign_batch(to_host_m, &refs, Mode::Merkle, NOW)
                .expect("sign");
            net.send(merkle_peer(), out);
            let msgs = (0..4).map(|m| msg("host", x, m).into_bytes()).collect();
            net.host_step(Step::Sign(to_merkle, msgs, Mode::Merkle));
        }
        net.carry();
    }
    assert_eq!(
        net.payloads.len(),
        4 + 2 * 4,
        "the host delivered every message"
    );
    assert!(
        net.host.flow_is_idle(to_base) && net.host.flow_is_idle(to_merkle),
        "the host's exchanges completed"
    );
    Trace {
        base,
        merkle,
        steps: net.steps,
        payloads: net.payloads,
    }
}

/// Counters a judged datagram may move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    drops: u64,
    parse_errors: u64,
}

fn counts(host: &EngineCore) -> Counts {
    let m = host.metrics();
    Counts {
        drops: m.total_drops()
            + m.admission_drops.load(Relaxed)
            + m.backpressure_drops.load(Relaxed),
        parse_errors: m.parse_errors.load(Relaxed),
    }
}

/// The snapshot without the counters any judged datagram moves: input
/// and drop counters.
fn state(host: &EngineCore) -> Value {
    let Value::Object(mut snapshot) = host.snapshot() else {
        panic!("a snapshot is an object");
    };
    let Some(Value::Object(metrics)) = snapshot.get_mut("metrics") else {
        panic!("a snapshot has metrics");
    };
    for counter in [
        "packets_in",
        "bytes_in",
        "drops",
        "verify_failures",
        "parse_errors",
        "admission_drops",
        "backpressure_drops",
    ] {
        metrics.remove(counter);
    }
    Value::Object(std::mem::take(&mut snapshot))
}

/// Every rule above for one mutated datagram `bytes` from `from`, fed to
/// `host`, whose earlier deliveries in this case are `seen`; `Err` names
/// the rule it broke.
fn check(
    host: &EngineCore,
    rng: &mut StdRng,
    from: SocketAddr,
    bytes: &[u8],
    trace: &Trace,
    seen: &mut HashSet<Vec<u8>>,
) -> Result<(), String> {
    let (before, state_before) = (counts(host), state(host));
    let out = catch_unwind(AssertUnwindSafe(|| {
        host.handle_datagrams(&[(from, bytes)], NOW, rng)
    }))
    .map_err(|_| "handle_datagrams panicked".to_owned())?;
    let after = counts(host);
    let parsed = split(bytes).filter(|slices| {
        slices
            .iter()
            .all(|s| alpha_wire::PacketView::parse(s).is_ok())
    });
    for (_, _, payload) in &out.delivered {
        if !trace.payloads.contains(payload) {
            return Err("delivered a payload the valid trace does not hold".to_owned());
        }
        if !seen.insert(payload.clone()) {
            return Err("delivered a payload twice".to_owned());
        }
    }
    let rejected = match &parsed {
        None => {
            let want = Counts {
                parse_errors: before.parse_errors + 1,
                ..before
            };
            if after != want {
                return Err(format!("unparseable: {before:?} → {after:?}"));
            }
            true
        }
        Some(packets) => {
            let dropped = after.drops - before.drops;
            if after.parse_errors != before.parse_errors || dropped > packets.len() as u64 {
                return Err(format!("{} packets: {before:?} → {after:?}", packets.len()));
            }
            dropped == packets.len() as u64
        }
    };
    if rejected {
        if !out.datagrams.is_empty() || !out.delivered.is_empty() {
            return Err("a rejected datagram sent or delivered".to_owned());
        }
        if state(host) != state_before {
            return Err("a rejected datagram changed the snapshot".to_owned());
        }
    }
    Ok(())
}

/// `cases` cases, half on each MAC construction.
fn fuzz(cases: usize) {
    for mac in [MacScheme::Hmac, MacScheme::Prefix] {
        fuzz_deployment(mac, cases / 2);
    }
}

fn fuzz_deployment(mac: MacScheme, cases: usize) {
    let trace = trace(mac);
    let datagram_steps = trace.datagram_steps();
    let others = trace.datagrams();
    // The valid trace replayed: nothing drops, everything delivers.
    let (host_, mut rng) = host(trace.base, trace.merkle);
    let mut seen = HashSet::new();
    for step in &trace.steps {
        match step {
            Step::Datagram(from, bytes) => {
                check(&host_, &mut rng, *from, bytes, &trace, &mut seen).expect("the valid trace")
            }
            Step::Sign(..) => drop(apply(&host_, step, &mut rng)),
        }
    }
    let m = host_.metrics();
    assert_eq!(
        (m.total_drops(), m.parse_errors.load(Relaxed)),
        (0, 0),
        "{mac:?}"
    );
    assert_eq!(
        seen, trace.payloads,
        "{mac:?}: the replay delivers the trace"
    );

    let mut cases_rng = StdRng::seed_from_u64(0x4057_F0A2);
    let mut failures: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut accepted = 0;
    for _ in 0..cases {
        let k = datagram_steps[cases_rng.gen_range(0..datagram_steps.len())];
        let (host, mut rng) = host(trace.base, trace.merkle);
        let mut seen = HashSet::new();
        for step in &trace.steps[..k] {
            let out = apply(&host, step, &mut rng);
            seen.extend(out.delivered.into_iter().map(|(_, _, p)| p));
        }
        let Step::Datagram(from, valid) = &trace.steps[k] else {
            unreachable!("a datagram step");
        };
        let mut bytes = valid.clone();
        let mut log = Vec::new();
        for _ in 0..cases_rng.gen_range(1..=3) {
            mutate(&mut bytes, &others, &mut cases_rng, &mut log);
        }
        let drops = counts(&host);
        match check(&host, &mut rng, *from, &bytes, &trace, &mut seen) {
            Ok(()) => {}
            Err(rule) => failures
                .entry(rule)
                .or_default()
                .push(format!("step {k}: {}", log.join(", "))),
        }
        accepted += usize::from(counts(&host) == drops);
    }
    // Most mutations must be caught, but some must get through (to
    // exercise the accept path): an unauthenticated field of an S1 or an
    // A1, a handshake.
    assert!(
        accepted > 0 && accepted < cases / 2,
        "{mac:?}: {accepted} of {cases} mutated datagrams accepted whole"
    );
    let report: Vec<String> = failures
        .iter()
        .map(|(rule, cases)| format!("{mac:?}: {} × {rule}; first: {}", cases.len(), cases[0]))
        .collect();
    assert!(report.is_empty(), "{report:#?}");
}

#[test]
fn mutated_datagrams_never_panic_and_are_judged_once() {
    fuzz(CASES);
}

/// Ten times the cases; ci.sh runs it in a release build, time-boxed.
#[test]
#[ignore = "long run: ci.sh's fuzz smoke"]
fn mutated_datagrams_long_run() {
    fuzz(10 * CASES);
}
