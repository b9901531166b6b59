//! Hostile bytes against a relay: a seeded mutation fuzzer over
//! `EngineCore::handle_datagrams` on a routed source.
//!
//! The valid trace is two learned associations crossing one relay
//! engine: a Base unreliable flow (S1, A1 and S2 datagrams) and an
//! ALPHA-M reliable flow (S1, A1, a bundle of S2s, A2). Half the cases
//! run on a deployment with HMACs and half on one with prefix MACs; the
//! relay is built from the deployment's config, as a relay engine
//! judging for those hosts is. Each case stands
//! a fresh relay up on the trace up to one datagram, applies one to
//! three mutations to that datagram — a bit flip, a truncation, a splice
//! with another datagram of the trace, a bundle's count or length prefix
//! rewritten, or a packet's type byte swapped (`common::mutate`) — feeds
//! it, and holds the relay to these rules:
//!
//! - nothing panics;
//! - every packet is accounted for exactly once: a datagram that does
//!   not split and parse is one parse error and nothing else, and
//!   otherwise each of its packets is either forwarded or counted under
//!   one drop reason (protocol drops, admission, the byte-budget valve);
//! - a datagram of which nothing is forwarded leaves the engine's
//!   `snapshot()` as it was, apart from the input and drop counters;
//! - what is forwarded is the datagram's own packets, unchanged and in
//!   order, to the route's far end — and every forwarded S2 (the data
//!   the relay vouches for) is byte-identical to an S2 of the valid
//!   trace.
//!
//! The generator is seeded, so every run makes the same cases. ci.sh
//! runs the suite under every forced digest backend, and the ignored
//! long run (ten times the cases, release build) as a time-boxed smoke.

mod common;

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;

use alpha_core::{Config, MacScheme, Mode, RelayConfig, Reliability, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore};
use common::mutate::{mutate, split};
use common::net::{addr, is_s2, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Mutated cases per tier-1 run, half under each MAC construction.
const CASES: usize = 10_000;

const NOW: Timestamp = Timestamp(1_000);

/// The valid input: datagrams in arrival order with their sources, and
/// the routes they travel.
struct Trace {
    /// The deployment's protocol config.
    protocol: Config,
    routes: Vec<(SocketAddr, SocketAddr)>,
    datagrams: Vec<(SocketAddr, Vec<u8>)>,
}

impl Trace {
    /// Every packet of the trace, and every S2 of it.
    fn packets(&self) -> (HashSet<Vec<u8>>, HashSet<Vec<u8>>) {
        let (mut all, mut s2s) = (HashSet::new(), HashSet::new());
        for (_, bytes) in &self.datagrams {
            for slice in split(bytes).expect("valid framing") {
                if is_s2(slice) {
                    s2s.insert(slice.to_vec());
                }
                all.insert(slice.to_vec());
            }
        }
        (all, s2s)
    }

    /// The far end of `from`'s route.
    fn dst(&self, from: SocketAddr) -> SocketAddr {
        self.routes
            .iter()
            .find_map(|&(a, b)| match from {
                f if f == a => Some(b),
                f if f == b => Some(a),
                _ => None,
            })
            .expect("a routed source")
    }
}

/// Two client and server engine pairs, one Base unreliable flow and one
/// ALPHA-M reliable flow, both routed over one relay, and what that
/// relay is handed: both handshakes, then four Base exchanges of one
/// message and two ALPHA-M exchanges of four, in step — all MACs of the
/// `mac` construction.
fn trace(mac: MacScheme) -> Trace {
    let base = Config::new(Algorithm::Sha1)
        .with_chain_len(64)
        .with_mac_scheme(mac);
    let merkle = base
        .with_mode(Mode::Merkle)
        .with_reliability(Reliability::Reliable);
    let routes = vec![(addr(1001), addr(2001)), (addr(1002), addr(2002))];
    let ra = addr(3000);
    let mut net = Net::new(0x0FA2_2E1A);
    for (&(ca, sa), cfg) in routes.iter().zip([base, merkle]) {
        net.host(ca, EngineConfig::new(cfg));
        net.host(sa, EngineConfig::new(cfg));
    }
    net.relay(ra, EngineConfig::new(base), &routes);
    net.bypass(ra);
    let flows = [
        (
            routes[0].0,
            net.connect(routes[0].0, ra, 1),
            4,
            1,
            Mode::Base,
        ),
        (
            routes[1].0,
            net.connect(routes[1].0, ra, 2),
            2,
            4,
            Mode::Merkle,
        ),
    ];
    for x in 0..4 {
        for &(ca, key, exchanges, msgs, mode) in &flows {
            if x >= exchanges {
                continue;
            }
            let messages: Vec<Vec<u8>> = (0..msgs)
                .map(|m| format!("flow {} exchange {x} message {m}", key.assoc_id).into_bytes())
                .collect();
            let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            net.sign(ca, key, &refs, mode).expect("sign");
        }
        net.pump();
    }
    let datagrams = net.bypassed.into_iter().map(|d| (d.src, d.frame)).collect();
    Trace {
        protocol: base,
        routes,
        datagrams,
    }
}

/// A relay on the trace's routes and its deployment's config that drops
/// what it cannot verify, so only authenticated data and handshakes pass.
fn relay(trace: &Trace) -> EngineCore {
    let strict = RelayConfig {
        forward_unknown: false,
        ..RelayConfig::default()
    };
    let cfg = EngineConfig::new(trace.protocol)
        .with_shards(1)
        .with_relay(strict);
    let relay = EngineCore::new(cfg);
    for &(a, b) in &trace.routes {
        relay.add_route(a, b);
    }
    relay
}

/// Counters a judged datagram may move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    drops: u64,
    parse_errors: u64,
}

fn counts(relay: &EngineCore) -> Counts {
    let m = relay.metrics();
    Counts {
        drops: m.total_drops()
            + m.admission_drops.load(Relaxed)
            + m.backpressure_drops.load(Relaxed),
        parse_errors: m.parse_errors.load(Relaxed),
    }
}

/// The snapshot without the counters any judged datagram moves: input
/// and drop counters.
fn state(relay: &EngineCore) -> Value {
    let Value::Object(mut snapshot) = relay.snapshot() else {
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
/// `relay`; `Err` names the rule it broke.
fn check(
    relay: &EngineCore,
    from: SocketAddr,
    bytes: &[u8],
    trace: &Trace,
    valid_s2s: &HashSet<Vec<u8>>,
) -> Result<(), String> {
    let (before, state_before) = (counts(relay), state(relay));
    let out = catch_unwind(AssertUnwindSafe(|| {
        relay.handle_datagrams(&[(from, bytes)], NOW, &mut StdRng::seed_from_u64(1))
    }))
    .map_err(|_| "handle_datagrams panicked".to_owned())?;
    let after = counts(relay);
    let parsed = split(bytes).filter(|slices| {
        slices
            .iter()
            .all(|s| alpha_wire::PacketView::parse(s).is_ok())
    });
    let mut forwarded: Vec<&[u8]> = Vec::new();
    for (dst, frame) in &out.datagrams {
        if *dst != trace.dst(from) {
            return Err(format!("forwarded to {dst}, not the route's far end"));
        }
        forwarded.extend(split(frame).ok_or("forwarded an unsplittable frame")?);
    }
    match &parsed {
        None => {
            let want = Counts {
                parse_errors: before.parse_errors + 1,
                ..before
            };
            if after != want || !forwarded.is_empty() {
                return Err(format!(
                    "unparseable: {before:?} → {after:?}, {} forwarded",
                    forwarded.len()
                ));
            }
        }
        Some(packets) => {
            let judged = forwarded.len() as u64 + after.drops - before.drops;
            if after.parse_errors != before.parse_errors || judged != packets.len() as u64 {
                return Err(format!(
                    "{} packets: {} forwarded, {before:?} → {after:?}",
                    packets.len(),
                    forwarded.len()
                ));
            }
            // Forwarded packets are the datagram's own, in order.
            let mut own = packets.iter();
            if !forwarded.iter().all(|f| own.any(|p| p == f)) {
                return Err("forwarded bytes that are not the datagram's packets".to_owned());
            }
        }
    }
    for packet in &forwarded {
        if is_s2(packet) && !valid_s2s.contains(*packet) {
            return Err("forwarded an S2 the valid trace does not hold".to_owned());
        }
    }
    if forwarded.is_empty() && state(relay) != state_before {
        return Err("a rejected datagram changed the snapshot".to_owned());
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
    let (_, valid_s2s) = trace.packets();
    // The valid trace itself: everything passes, nothing drops.
    let relay_ = relay(&trace);
    for (from, bytes) in &trace.datagrams {
        check(&relay_, *from, bytes, &trace, &valid_s2s).expect("the valid trace");
    }
    let m = relay_.metrics();
    assert_eq!(
        (m.total_drops(), m.parse_errors.load(Relaxed)),
        (0, 0),
        "{mac:?}"
    );
    assert_eq!(m.handshakes.load(Relaxed), 2, "both associations learned");
    assert_eq!(
        m.s2_verified.load(Relaxed),
        4 + 2 * 4,
        "{mac:?}: every S2 verified"
    );

    let others: Vec<&[u8]> = trace.datagrams.iter().map(|(_, d)| d.as_slice()).collect();
    let mut rng = StdRng::seed_from_u64(0x0F0A_2E1A);
    let mut failures: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut forwarded = 0;
    for _ in 0..cases {
        let k = rng.gen_range(0..trace.datagrams.len());
        let relay = relay(&trace);
        for (from, bytes) in &trace.datagrams[..k] {
            relay.handle_datagrams(&[(*from, bytes)], NOW, &mut rng);
        }
        let (from, valid) = &trace.datagrams[k];
        let mut bytes = valid.clone();
        let mut log = Vec::new();
        for _ in 0..rng.gen_range(1..=3) {
            mutate(&mut bytes, &others, &mut rng, &mut log);
        }
        let packets_out = relay.metrics().packets_out.load(Relaxed);
        match check(&relay, *from, &bytes, &trace, &valid_s2s) {
            Ok(()) => {}
            Err(rule) => failures
                .entry(rule)
                .or_default()
                .push(format!("datagram {k}: {}", log.join(", "))),
        }
        forwarded += usize::from(relay.metrics().packets_out.load(Relaxed) > packets_out);
    }
    // Most mutations must be caught, but some must get through (to
    // exercise the forward path): an unauthenticated field of an S1 or
    // A1, a handshake.
    assert!(
        forwarded > 0 && forwarded < cases / 2,
        "{mac:?}: {forwarded} of {cases} mutated datagrams forwarded"
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
