//! Every schedule at small scope. A client and a server engine talk
//! through a relay engine on 8-element chains, each end renewing once
//! in two exchanges, and a stateless search runs every schedule within
//! a bound: every interleaving of the two ends' exchanges and of a
//! freeze of each end, plus at most `k` deviations from in-order
//! delivery, as in iterative context bounding (Musuvathi & Qadeer, PLDI
//! 2007). Engines are not `Clone`, so each schedule re-executes from
//! the start; nothing is snapshotted.
//!
//! An end acts (signs, or freezes just before a datagram wakes it) when
//! all is quiet or the next datagram in flight is for it: its actions
//! commute with deliveries to the other engines. A deviation is the loss
//! or a copy of the head of the flight, or a datagram overtaking the
//! head to the same engine: losing a datagram earlier changes nothing
//! else, and overtaking one bound elsewhere commutes.
//!
//! After every step the run holds the engines to what the public API
//! and the snapshot can observe of the protocol's invariants:
//!
//! - a host delivers only a message its peer signed, and each once;
//! - every S2 the relay forwards is byte-identical to one an end sent;
//! - every datagram is addressed along the route (host to relay, relay
//!   to host);
//! - no `ChainExhausted` on a flow whose peer answers: no sign fails
//!   with it, and no host drops a packet for it (as malformed), unless
//!   a datagram was lost;
//! - after the final drain, with no deviation or in reliable mode,
//!   every signed message has been delivered exactly once.
//!
//! A failure panics with its bound and the decisive prefix of its
//! schedule (up to the last step that is not the in-order default) as
//! a `replay` call to paste into a regression test here.

mod common;

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use alpha_core::{Config, DropReason, Mode, ProtocolError, Reliability};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineError, FlowKey};
use alpha_store::PacerConfig;
use common::net::{addr, client, is_s2, packets, relay, server, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use alpha_core::Mode::{Base, Merkle};
use alpha_core::Reliability::{Reliable, Unreliable};
use End::{Client, Server};
use Step::{Advance, Deliver, Drop, Duplicate, Freeze, Sign};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    Client,
    Server,
}

/// One action of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Hand in-flight datagram `i` over; `Deliver(0)` is in order.
    Deliver(usize),
    /// Lose in-flight datagram `i`.
    Drop(usize),
    /// Send in-flight datagram `i` twice.
    Duplicate(usize),
    /// The end signs its next exchange.
    Sign(End),
    /// The end's idle flow freezes.
    Freeze(End),
    /// The clock moves to the next deadline and every engine is polled.
    Advance,
}

impl Step {
    fn deviates(self) -> bool {
        matches!(self, Deliver(1..) | Drop(_) | Duplicate(_))
    }
}

/// What one search covers.
#[derive(Clone, Copy, Debug)]
struct Bound {
    mode: Mode,
    reliability: Reliability,
    /// Exchanges each end signs.
    exchanges: u32,
    /// Deviations from in-order delivery.
    k: u32,
}

const CHAIN_LEN: u64 = 8;
/// Low enough that an end renews once in two exchanges.
const RENEW_BELOW: u64 = 1;
const IDLE_US: u64 = 1_000_000;
/// Steps a schedule may take before it counts as never settling.
const SETTLES_WITHIN: usize = 1_000;

fn at(end: End) -> SocketAddr {
    match end {
        Client => client(),
        Server => server(),
    }
}

fn other(end: End) -> End {
    match end {
        Client => Server,
        Server => Client,
    }
}

/// One schedule in execution.
struct Run {
    bound: Bound,
    net: Net,
    keys: [FlowKey; 2],
    signed: [u32; 2],
    frozen: [bool; 2],
    deviations: u32,
    lost: bool,
    /// Each signed payload, its signer and how often it was delivered.
    payloads: HashMap<Vec<u8>, (End, u32)>,
    /// Every S2 an end sent.
    sent_s2s: HashSet<Vec<u8>>,
}

impl Run {
    fn new(bound: Bound) -> Run {
        let proto = Config::new(Algorithm::Sha1)
            .with_chain_len(CHAIN_LEN)
            .with_reliability(bound.reliability);
        let jitter_free = PacerConfig {
            max_jitter_us: 0,
            ..PacerConfig::default()
        };
        let host = EngineConfig::new(proto)
            .with_shards(1)
            .with_pacer(jitter_free)
            .with_renew_below(RENEW_BELOW)
            .with_hibernate_after(Some(IDLE_US));
        let relay_cfg = EngineConfig::new(proto).with_shards(1);
        let (mut net, hop) = Net::path(33, host, host, Some(relay_cfg));
        let key = net.connect(client(), hop, 1);
        let peer = FlowKey { peer: hop, ..key };
        Run {
            bound,
            net,
            keys: [key, peer],
            signed: [0; 2],
            frozen: [false; 2],
            deviations: 0,
            lost: false,
            payloads: HashMap::new(),
            sent_s2s: HashSet::new(),
        }
    }

    /// `Some(idle)` for an awake flow, `None` for a frozen one.
    fn idle(&self, end: End) -> Option<bool> {
        let engine = self.net.engine(at(end));
        engine.with_association(self.keys[end as usize], |a| a.signer().is_idle())
    }

    /// The steps enabled now, in-order delivery first.
    fn enabled(&self) -> Vec<Step> {
        let flight = &self.net.flight;
        let mut steps = Vec::new();
        if !flight.is_empty() {
            steps.push(Deliver(0));
        }
        // An end acts where it is next to act or all is quiet: its
        // steps commute with deliveries to the other engines.
        for end in [Client, Server] {
            let turn = flight.first().is_none_or(|d| d.dst == at(end));
            if !turn || self.idle(end) != Some(true) {
                continue;
            }
            if self.signed[end as usize] < self.bound.exchanges {
                steps.push(Sign(end));
            }
            // Frozen just before a datagram wakes it (a flow frozen in a
            // quiet spell cannot sign until one does), once an end.
            if !flight.is_empty() && !self.frozen[end as usize] {
                steps.push(Freeze(end));
            }
        }
        if flight.is_empty()
            && [Client, Server]
                .iter()
                .any(|&e| self.idle(e) == Some(false))
        {
            steps.push(Advance);
        }
        // A loss or a copy is taken at the head (losing a datagram
        // earlier changes nothing else); a reordering overtakes the head
        // with a different datagram for the same engine.
        if let (Some(head), true) = (flight.first(), self.deviations < self.bound.k) {
            steps.push(Drop(0));
            steps.push(Duplicate(0));
            for (i, d) in flight.iter().enumerate().skip(1) {
                if d.dst == head.dst && !flight[..i].contains(d) {
                    steps.push(Deliver(i));
                }
            }
        }
        steps
    }

    fn apply(&mut self, step: Step) -> Result<(), String> {
        self.deviations += u32::from(step.deviates());
        // Datagrams behind this index after the step are new.
        let kept = self.net.flight.len() - usize::from(matches!(step, Deliver(_) | Drop(_)));
        match step {
            Deliver(i) => self.net.deliver(i),
            Drop(i) => {
                self.net.drop(i);
                self.lost = true;
            }
            Duplicate(i) => self.net.duplicate(i),
            Sign(end) => self.sign(end)?,
            Freeze(end) => {
                self.frozen[end as usize] = true;
                self.net.freeze(at(end));
            }
            Advance => {
                self.net.advance();
            }
        }
        self.check(kept)
    }

    fn sign(&mut self, end: End) -> Result<(), String> {
        let n = self.signed[end as usize];
        self.signed[end as usize] += 1;
        let messages: Vec<Vec<u8>> = match self.bound.mode {
            Base => vec![format!("{end:?} {n}").into_bytes()],
            _ => (0..2)
                .map(|m| format!("{end:?} {n}.{m}").into_bytes())
                .collect(),
        };
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        match self
            .net
            .sign(at(end), self.keys[end as usize], &refs, self.bound.mode)
        {
            Ok(()) => {}
            Err(EngineError::Protocol(ProtocolError::ChainExhausted)) if !self.lost => {
                return Err(format!("{end:?} signs on an exhausted chain"));
            }
            Err(e) => return Err(format!("{end:?} cannot sign: {e}")),
        }
        for m in messages {
            self.payloads.insert(m, (end, 0));
        }
        Ok(())
    }

    /// The invariants every step keeps; datagrams from `fresh` on in
    /// the flight are new.
    fn check(&mut self, fresh: usize) -> Result<(), String> {
        for end in [Client, Server] {
            for payload in self.net.delivered(at(end)) {
                let what = String::from_utf8_lossy(&payload).into_owned();
                match self.payloads.get_mut(&payload) {
                    Some((signer, n)) if *signer == other(end) => {
                        *n += 1;
                        if *n > 1 {
                            return Err(format!("{end:?} delivered {what:?} twice"));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "{end:?} delivered {what:?}, which its peer never signed"
                        ))
                    }
                }
            }
            let m = self.net.engine(at(end)).metrics();
            if !self.lost && m.drops(DropReason::Malformed) > 0 {
                return Err(format!("{end:?} dropped a packet on an exhausted chain"));
            }
        }
        self.net.take(relay());
        for d in &self.net.flight[fresh..] {
            let routed = match d.src {
                s if s == relay() => d.dst == at(Client) || d.dst == at(Server),
                _ => d.dst == relay(),
            };
            if !routed {
                return Err(format!("{} sent a datagram to {}", d.src, d.dst));
            }
            for s2 in packets(&d.frame).into_iter().filter(|p| is_s2(p)) {
                if d.src != relay() {
                    self.sent_s2s.insert(s2.to_vec());
                } else if !self.sent_s2s.contains(s2) {
                    return Err("the relay forwarded an S2 no end sent".to_owned());
                }
            }
        }
        Ok(())
    }

    /// Deliver, and run the timers, until both ends are idle and
    /// nothing is in flight; then, with nothing lost or duplicated or
    /// in reliable mode, every message must have arrived once.
    fn finish(&mut self) -> Result<(), String> {
        for _ in 0..64 {
            while !self.net.flight.is_empty() {
                self.apply(Deliver(0))?;
            }
            let busy = [Client, Server]
                .iter()
                .any(|&e| self.idle(e) == Some(false));
            let kept = self.net.flight.len();
            if !busy || !self.net.advance() {
                break;
            }
            self.check(kept)?;
        }
        let reliable = self.bound.reliability == Reliable;
        if self.deviations > 0 && !reliable {
            return Ok(());
        }
        let mut missing: Vec<String> = self
            .payloads
            .iter()
            .filter(|(_, (_, n))| *n != 1)
            .map(|(p, _)| String::from_utf8_lossy(p).into_owned())
            .collect();
        missing.sort();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("never delivered: {missing:?}"))
        }
    }
}

/// One step taken, and every step that was enabled in its place.
type Taken = (Step, Vec<Step>);

/// Run `schedule`, then go on in order (the first enabled step each
/// time) to the end. Returns every step taken and the first broken
/// invariant.
fn execute(bound: Bound, schedule: &[Step]) -> (Vec<Taken>, Result<(), String>) {
    let mut run = Run::new(bound);
    let mut taken: Vec<Taken> = Vec::new();
    loop {
        let enabled = run.enabled();
        let step = match schedule.get(taken.len()) {
            Some(&step) => step,
            None => match enabled.first() {
                Some(&step) => step,
                None => return (taken, unpanicked(|| run.finish())),
            },
        };
        assert!(
            enabled.contains(&step),
            "{step:?} is not enabled after {:?}",
            steps(&taken)
        );
        taken.push((step, enabled));
        if let Err(broken) = unpanicked(|| run.apply(step)) {
            return (taken, Err(broken));
        }
        if taken.len() > SETTLES_WITHIN {
            return (taken, Err("the run did not settle".to_owned()));
        }
    }
}

/// `f`'s result, with a panic in the engines as one more broken
/// invariant, so that it too is reported with its schedule.
fn unpanicked(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("an engine panicked".to_owned()))
}

fn steps(taken: &[Taken]) -> Vec<Step> {
    taken.iter().map(|(s, _)| *s).collect()
}

/// The schedule up to its last step that is not the first enabled one:
/// `execute` takes the rest by itself.
fn decisive(taken: &[Taken]) -> Vec<Step> {
    let last = taken
        .iter()
        .rposition(|(step, enabled)| enabled[0] != *step);
    steps(&taken[..last.map_or(0, |i| i + 1)])
}

/// What a search of one bound found.
struct Found {
    bound: Bound,
    schedules: u64,
    /// The failure with the shortest decisive schedule: that schedule,
    /// the steps it ran and the broken invariant.
    shortest: Option<(Vec<Step>, usize, String)>,
}

/// Every schedule within `bound`, depth first: after each run, the
/// deepest step with an untried alternative takes its next one, and
/// the run re-executes from the start. A branch taken at step `p`
/// decides at least `p + 1` steps, so once a failure deciding in
/// `shortest` steps is known (by any search sharing it), branches at
/// `shortest - 1` and deeper are not taken.
fn search(bound: Bound, shortest: &AtomicUsize) -> Found {
    let mut found = Found {
        bound,
        schedules: 0,
        shortest: None,
    };
    let mut prefix: Vec<Step> = Vec::new();
    loop {
        let (mut taken, result) = execute(bound, &prefix);
        found.schedules += 1;
        if let Err(broken) = result {
            let schedule = decisive(&taken);
            shortest.fetch_min(schedule.len(), Relaxed);
            if found
                .shortest
                .as_ref()
                .is_none_or(|(s, _, _)| schedule.len() < s.len())
            {
                found.shortest = Some((schedule, taken.len(), broken));
            }
        }
        loop {
            let Some((step, enabled)) = taken.pop() else {
                return found;
            };
            if taken.len() + 1 >= shortest.load(Relaxed) {
                continue;
            }
            let i = enabled.iter().position(|&s| s == step).expect("enabled");
            if let Some(&next) = enabled.get(i + 1) {
                prefix = steps(&taken);
                prefix.push(next);
                break;
            }
        }
    }
}

/// Re-run one schedule (then in order to the end) and require every
/// invariant to hold.
fn replay(bound: Bound, schedule: &[Step]) {
    let (taken, result) = execute(bound, schedule);
    if let Err(broken) = result {
        panic!("{broken}\n{}", pasteable(bound, &decisive(&taken)));
    }
}

fn pasteable(bound: Bound, schedule: &[Step]) -> String {
    format!("replay({bound:?}, &{schedule:?});")
}

/// Search each mode and reliability within each `(exchanges, k)`, one
/// thread per mode and reliability, and fail on the shortest schedule
/// that breaks an invariant.
fn sweep(bounds: &[(u32, u32)]) {
    let started = Instant::now();
    let shortest = AtomicUsize::new(usize::MAX);
    let found: Vec<Found> = std::thread::scope(|scope| {
        let threads: Vec<_> = [Base, Merkle]
            .into_iter()
            .flat_map(|mode| [Unreliable, Reliable].map(|reliability| (mode, reliability)))
            .map(|(mode, reliability)| {
                let shortest = &shortest;
                scope.spawn(move || {
                    bounds
                        .iter()
                        .map(|&(exchanges, k)| {
                            let bound = Bound {
                                mode,
                                reliability,
                                exchanges,
                                k,
                            };
                            search(bound, shortest)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("a search thread"))
            .collect()
    });
    let schedules: u64 = found.iter().map(|f| f.schedules).sum();
    eprintln!("{schedules} schedules in {:.1?}", started.elapsed());
    let failure = found
        .iter()
        .filter_map(|f| f.shortest.as_ref().map(|s| (f.bound, s)))
        .min_by_key(|(_, (schedule, _, _))| schedule.len());
    if let Some((bound, (schedule, ran, broken))) = failure {
        panic!(
            "{broken}, after {ran} steps, of which these decide:\n{}",
            pasteable(bound, schedule)
        );
    }
}

/// Two exchanges an end, each end renewing once, in order: every
/// interleaving of the ends' exchanges and freezes.
#[test]
fn every_schedule_of_two_exchanges_in_order() {
    sweep(&[(2, 0)]);
}

/// One exchange an end, with one datagram lost, copied or overtaken.
#[test]
fn every_schedule_of_one_exchange_and_one_deviation() {
    sweep(&[(1, 1)]);
}

/// The deeper bound ci.sh runs in a release build, time-boxed: three
/// exchanges an end in order, and one exchange an end with two
/// deviations.
#[test]
#[ignore = "deep bound: ci.sh's small-scope smoke"]
fn every_schedule_of_the_deep_bound() {
    sweep(&[(3, 0), (1, 2)]);
}

/// Found by the search at two exchanges an end and one deviation, in
/// reliable mode: the server's renewal S2 is lost between the relay and
/// the client. The relay re-anchored the server's chains when it passed
/// that S2, so it drops the server's retransmissions of it and, once
/// the server gives the renewal up, every S1 of the chain the server
/// keeps: nothing the server signs is delivered again. Passing needs a
/// relay that holds a replaced signature chain until the new one is
/// used, a protocol change.
#[test]
#[ignore = "known defect: a relay re-anchors on a renewal its receiver may never get"]
fn a_renewal_lost_past_the_relay_stalls_its_sender() {
    replay(
        Bound {
            mode: Base,
            reliability: Reliable,
            exchanges: 2,
            k: 1,
        },
        &[
            Sign(Client),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Sign(Client),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Deliver(0),
            Drop(0),
        ],
    );
}

/// The in-memory twin of the live loopback test of the same name in
/// `tests/integration.rs`: 32 client and 32 server engines, each pair
/// its own association, all routed through one 8-shard relay engine,
/// every handshake and then every exchange in flight at once and
/// delivered in a seeded random order, for each of 100 seeds. Every
/// server delivers exactly its own client's payload, and the relay holds
/// one flow per association and verifies every payload.
#[test]
fn engine_relays_32_concurrent_associations_without_bleed() {
    const FLOWS: u16 = 32;
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let client = |i: u16| addr(1000 + i);
    let server = |i: u16| addr(2000 + i);
    let relay_at = addr(3000);
    let routes: Vec<_> = (0..FLOWS).map(|i| (client(i), server(i))).collect();
    for seed in 0..100 {
        let mut net = Net::new(seed);
        net.relay(relay_at, EngineConfig::new(cfg).with_shards(8), &routes);
        for i in 0..FLOWS {
            net.host(client(i), EngineConfig::new(cfg));
            net.host(server(i), EngineConfig::new(cfg));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<FlowKey> = (0..FLOWS)
            .map(|i| {
                let engine = net.engine(client(i));
                let (key, out) = engine.connect(relay_at, 1000 + u64::from(i), net.now, &mut rng);
                net.send(client(i), out);
                key
            })
            .collect();
        scramble(&mut net, &mut rng);
        for (i, &key) in (0..FLOWS).zip(&keys) {
            let payload = format!("flow {i} payload");
            net.sign(client(i), key, &[payload.as_bytes()], Base)
                .unwrap_or_else(|e| panic!("seed {seed}: client {i} send: {e}"));
        }
        scramble(&mut net, &mut rng);
        for i in 0..FLOWS {
            assert_eq!(
                net.delivered(server(i)),
                vec![format!("flow {i} payload").into_bytes()],
                "seed {seed}: server {i} must see exactly its own flow's payload"
            );
        }
        let relay = net.engine(relay_at);
        let what = format!("seed {seed}");
        assert_eq!(
            relay.flow_count(),
            FLOWS as usize,
            "{what}: one relay flow per association"
        );
        let m = relay.metrics();
        assert_eq!(
            m.s2_verified.load(Relaxed),
            FLOWS as u64,
            "{what}: relay verified every payload"
        );
        assert_eq!(
            m.handshakes.load(Relaxed),
            FLOWS as u64,
            "{what}: relay learned every association"
        );
    }
}

/// Deliver what is in flight in a random order until nothing is.
fn scramble(net: &mut Net, rng: &mut StdRng) {
    while !net.flight.is_empty() {
        let i = rng.gen_range(0..net.flight.len());
        net.deliver(i);
    }
}
