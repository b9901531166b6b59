//! `flow_churn_thaw`: the flow lifecycle, in process.
//!
//! No sockets and a virtual clock: a verifier `EngineCore` with
//! hibernation on establishes 1024 host flows by real HS1/HS2 through
//! its datagram path and runs one exchange on each (set-up). A timed
//! cycle then steps the clock past `hibernate_after` and polls, which
//! freezes every flow into the store, and wakes every flow again in a
//! seeded random order with ordinary signed traffic (thaw + trial
//! verify, then the rest of the exchange). Cycles repeat until the
//! repetition's time is up.
//!
//! This is the state-write counterpart of the relay's read-mostly
//! steady state: engine lifecycle, `alpha-store`, freeze/thaw and chain
//! rebuild do the work and transport does none. Only time inside calls
//! on the verifier engine is counted — the client half shares the
//! thread but is the load generator.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Association, Config, Mode, Timestamp};
use alpha_crypto::counting;
use alpha_engine::{EngineConfig, EngineCore, EngineOutput, FlowKey};
use alpha_wire::PacketView;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use super::pair::{self, EnginePair, Fill};
use super::{price_rows, Rep, RunOpts, SutInfo, Workload};
use crate::gen::{self, ALG};
use crate::micro;
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// Flows in the cohort.
const FLOWS: usize = 1024;
/// Repetitions per run (see [`Workload::reps`]). Establishing the
/// cohort takes over a second, which caps how many a run can afford.
const REPS: usize = 3;
/// Payload bytes of the wake message.
const PAYLOAD: usize = 64;
/// Idle time after which the verifier freezes a flow (µs, virtual).
const HIBERNATE_US: u64 = 100_000;
/// Flow-table shards.
const SHARDS: usize = 64;

/// The churn workload.
pub struct ChurnWorkload {
    opts: RunOpts,
    fill: Fill,
    gen_s: f64,
    sut: SutInfo,
}

fn proto() -> Config {
    Config::new(ALG)
}

fn server_config() -> EngineConfig {
    EngineConfig::new(proto())
        .with_shards(SHARDS)
        .with_hibernate_after(Some(HIBERNATE_US))
        .with_frozen_budget(None)
}

/// An established cohort: every flow handshaken and one exchange in.
struct Cohort {
    pair: EnginePair,
    keys: Vec<FlowKey>,
    serials: Vec<u32>,
    now: Timestamp,
    rng: StdRng,
    /// Nanoseconds the handshakes took on the verifier's side.
    handshake_server_ns: u64,
}

/// Time spent inside verifier-engine calls, by kind.
#[derive(Default)]
struct Busy {
    freeze_ns: u64,
    wake_ns: u64,
    /// Duration of each flow's first datagram after hibernation — the
    /// thaw plus trial verification.
    first_ns: Vec<u64>,
    bytes: u64,
    dgrams: u64,
}

impl ChurnWorkload {
    /// Build the workload (its generated input is the message filler;
    /// the exchanges themselves need the verifier's replies).
    pub fn new(opts: &RunOpts) -> ChurnWorkload {
        let started = Instant::now();
        let mut rng = gen::stream_rng(opts.seed, 0xc0de);
        let fill = Fill::new(&mut rng, PAYLOAD);
        ChurnWorkload {
            opts: *opts,
            fill,
            gen_s: started.elapsed().as_secs_f64(),
            sut: SutInfo {
                udp_backend: "none".to_owned(),
                wait_backend: "none".to_owned(),
                chain_storage: alpha_engine::chainstore::name(
                    server_config().protocol.chain_storage,
                )
                .to_owned(),
                pinned: opts.pinned,
                link: "none",
            },
        }
    }

    fn flows(&self) -> usize {
        if self.opts.quick {
            FLOWS / 16
        } else {
            FLOWS
        }
    }

    /// Establish the cohort: handshakes through the datagram path, then
    /// one exchange per flow so wakes resume mid-chain.
    fn establish(&self) -> Result<Cohort, String> {
        let flows = self.flows();
        let pair = EnginePair::new(server_config());
        let mut rng = gen::stream_rng(self.opts.seed, 0xe57a);
        let t0 = Timestamp::from_millis(1);
        let mut handshake_server_ns = 0u64;
        let mut keys = Vec::with_capacity(flows);
        for flow in 0..flows {
            let (key, out) =
                pair.client
                    .connect(pair::server_addr(), flow as u64 + 1, t0, &mut rng);
            pair.pump(flow, out, t0, &mut rng, &mut |_, call| {
                let started = Instant::now();
                let out = call();
                handshake_server_ns += started.elapsed().as_nanos() as u64;
                out
            })?;
            keys.push(key);
        }
        let up = pair.server.metrics().handshakes.load(Ordering::Relaxed);
        if up != flows as u64 {
            return Err(format!("verifier established {up} of {flows} associations"));
        }
        let mut cohort = Cohort {
            pair,
            keys,
            serials: vec![0; flows],
            now: t0.plus_micros(5_000),
            rng,
            handshake_server_ns,
        };
        let mut busy = Busy::default();
        for flow in 0..flows {
            self.exchange(&mut cohort, flow, &mut busy, None)?;
        }
        Ok(cohort)
    }

    /// One Base exchange on `flow`, every verifier call timed into
    /// `busy` (and spanned when `tracer` is given).
    fn exchange(
        &self,
        cohort: &mut Cohort,
        flow: usize,
        busy: &mut Busy,
        mut tracer: Option<(&mut Tracer, usize, &mut Vec<usize>)>,
    ) -> Result<(), String> {
        let mut msg = Vec::with_capacity(PAYLOAD);
        self.fill
            .write(&mut msg, flow as u32, cohort.serials[flow], 0);
        cohort.serials[flow] += 1;
        let out = cohort
            .pair
            .client
            .sign_batch(cohort.keys[flow], &[&msg], Mode::Base, cohort.now)
            .map_err(|e| format!("sign on flow {flow}: {e}"))?;
        let mut first = true;
        let mut on_server = |bytes: &[u8], call: &mut dyn FnMut() -> EngineOutput| {
            let started = Instant::now();
            let out = match tracer.as_mut() {
                Some((t, root, spans)) => {
                    let (out, span) =
                        t.span("engine.handle_datagrams", Some(*root), busy.dgrams, call);
                    spans.push(span);
                    out
                }
                None => call(),
            };
            let ns = started.elapsed().as_nanos() as u64;
            busy.wake_ns += ns;
            if std::mem::take(&mut first) {
                busy.first_ns.push(ns);
            }
            busy.dgrams += 1;
            busy.bytes += bytes.len() as u64;
            busy.bytes += out
                .datagrams
                .iter()
                .map(|(_, f)| f.len() as u64)
                .sum::<u64>();
            out
        };
        let delivered = cohort
            .pair
            .pump(flow, out, cohort.now, &mut cohort.rng, &mut on_server)?;
        if delivered.len() != 1 || delivered[0] != msg {
            return Err(format!(
                "flow {flow}: verifier delivered {} payloads, want exactly the signed one",
                delivered.len()
            ));
        }
        Ok(())
    }

    /// Step the clock past the idle threshold and poll: every flow
    /// freezes.
    fn freeze_all(&self, cohort: &mut Cohort, busy: &mut Busy) -> Result<(), String> {
        cohort.now = cohort.now.plus_micros(HIBERNATE_US + 50_000);
        let started = Instant::now();
        drop(cohort.pair.server.poll(cohort.now, &mut cohort.rng));
        busy.freeze_ns += started.elapsed().as_nanos() as u64;
        let store = &cohort.pair.server.metrics().store;
        let hibernated = store.flows_hibernated.load(Ordering::Relaxed);
        if hibernated != cohort.keys.len() as u64 {
            return Err(format!(
                "{hibernated} of {} idle flows hibernated",
                cohort.keys.len()
            ));
        }
        cohort.now = cohort.now.plus_micros(1_000);
        Ok(())
    }

    /// One repetition; with `tracer`, verifier calls of the wake phase
    /// are spanned.
    fn run(
        &self,
        duration: Duration,
        mut tracer: Option<(&mut Tracer, usize, &mut Vec<usize>)>,
    ) -> Result<(Rep, Busy, u64), String> {
        let setup = Instant::now();
        let mut cohort = self.establish()?;
        let setup_s = setup.elapsed().as_secs_f64();
        let flows = cohort.keys.len();
        let metrics = cohort.pair.server.metrics();
        let handshakes = metrics.handshakes.load(Ordering::Relaxed);
        let thawed_before = metrics.store.thawed.load(Ordering::Relaxed);
        let verified_before = metrics.s2_verified.load(Ordering::Relaxed);

        let mut busy = Busy::default();
        let mut order: Vec<usize> = (0..flows).collect();
        let mut shuffle_rng = gen::stream_rng(self.opts.seed, 0x5417);
        let mut cycles = 0u64;
        let started = Instant::now();
        while cycles == 0 || started.elapsed() < duration {
            self.freeze_all(&mut cohort, &mut busy)?;
            order.shuffle(&mut shuffle_rng);
            for &flow in &order {
                let tracer = tracer
                    .as_mut()
                    .map(|(t, root, spans)| (&mut **t, *root, &mut **spans));
                self.exchange(&mut cohort, flow, &mut busy, tracer)?;
            }
            cycles += 1;
        }
        let wakes = cycles * flows as u64;

        let metrics = cohort.pair.server.metrics();
        let thawed = metrics.store.thawed.load(Ordering::Relaxed) - thawed_before;
        let verified = metrics.s2_verified.load(Ordering::Relaxed) - verified_before;
        let mut problems = Vec::new();
        if metrics.handshakes.load(Ordering::Relaxed) != handshakes {
            problems.push("a wake moved the verifier's handshake counter".to_owned());
        }
        if thawed != wakes {
            problems.push(format!("{thawed} thaws for {wakes} wakes"));
        }
        if verified != wakes {
            problems.push(format!("{verified} messages verified for {wakes} wakes"));
        }
        let evictions = metrics.store.evicted.load(Ordering::Relaxed);
        let busy_ns = busy.freeze_ns + busy.wake_ns;
        let mut latency_us: Vec<f64> = busy.first_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        latency_us.sort_by(f64::total_cmp);
        let rep = Rep {
            setup_s,
            // Only time inside the verifier engine counts: it is both
            // the elapsed time of the system under test and, on a
            // thread of its own, its CPU time.
            elapsed_s: busy_ns as f64 / 1e9,
            verified,
            payload_bytes: verified * PAYLOAD as u64,
            sut_cpu_ns: busy_ns,
            wire_bytes: busy.bytes,
            latency_us,
            attempted: wakes,
            failed: wakes.saturating_sub(verified) + wakes.abs_diff(thawed),
            problems,
            detail: vec![
                ("cycles".to_owned(), serde::Value::U64(cycles)),
                ("flows".to_owned(), serde::Value::U64(flows as u64)),
                (
                    "freeze_ns_per_flow".to_owned(),
                    serde::Value::F64(busy.freeze_ns as f64 / wakes.max(1) as f64),
                ),
                (
                    "wall_s".to_owned(),
                    serde::Value::F64(started.elapsed().as_secs_f64()),
                ),
                (
                    "handshakes_per_s".to_owned(),
                    serde::Value::F64(
                        flows as f64 * 1e9 / cohort.handshake_server_ns.max(1) as f64,
                    ),
                ),
            ],
        };
        Ok((rep, busy, evictions))
    }
}

/// Resident bytes per flow, hot and frozen, by the allocation counter:
/// associations are bootstrapped out of band (client half dropped at
/// once) and installed with `add_host`, then the cohort hibernates.
fn footprint(flows: usize, rng: &mut StdRng) -> Result<(f64, f64), String> {
    let cfg = server_config();
    let t0 = Timestamp::from_millis(1);
    let (core, hot) = sys::count_allocs(|| {
        let core = EngineCore::new(cfg);
        for flow in 0..flows {
            let id = flow as u64 + 1;
            let (hs, hs1) = bootstrap::initiate(cfg.protocol, id, None, rng);
            let (server, hs2, _) =
                bootstrap::respond(cfg.protocol, &hs1, None, AuthRequirement::None, rng)
                    .expect("own HS1");
            drop(hs.complete(&hs2, AuthRequirement::None));
            core.add_host(pair::flow_addr(flow), server, t0);
        }
        core
    });
    let (_, frozen_delta) = sys::count_allocs(|| {
        drop(core.poll(t0.plus_micros(HIBERNATE_US + 50_000), rng));
    });
    let hibernated = core
        .metrics()
        .store
        .flows_hibernated
        .load(Ordering::Relaxed);
    if hibernated != flows as u64 {
        return Err(format!(
            "footprint cohort: {hibernated} of {flows} hibernated"
        ));
    }
    let frozen = hot.live_bytes + frozen_delta.live_bytes;
    Ok((
        hot.live_bytes as f64 / flows as f64,
        frozen as f64 / flows as f64,
    ))
}

impl Workload for ChurnWorkload {
    fn reps(&self) -> usize {
        if self.opts.quick {
            2
        } else {
            REPS
        }
    }

    fn rep(&mut self, duration: Duration) -> Result<Rep, String> {
        let (rep, _, _) = self.run(duration, None)?;
        Ok(rep)
    }

    fn traced(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let mut rng = gen::stream_rng(self.opts.seed, 0x7ace);
        let prices = micro::prices(&mut rng, proto().chain_len);

        // P2 — the run itself, verifier calls spanned; and once bare.
        let root = tracer.push("pass.engine", 0, 0, None, 0);
        let mut engine_spans = Vec::new();
        let (traced_rep, traced_busy, _) =
            self.run(duration, Some((tracer, root, &mut engine_spans)))?;
        let (bare_rep, busy, evictions) = self.run(duration, None)?;
        for rep in [&traced_rep, &bare_rep] {
            if !rep.problems.is_empty() {
                return Err(rep.problems.join("; "));
            }
        }
        let flows = self.flows();
        let dgrams = busy.dgrams as f64;
        let engine_ns = busy.wake_ns as f64 / dgrams;
        let traced_ns = traced_busy.wake_ns as f64 / traced_busy.dgrams.max(1) as f64;

        // P1/P0 — the same wake on bare associations: decode + thaw,
        // then parse + handle the S1 and the S2, then freeze again.
        let cfg = server_config().protocol;
        let sample = flows.min(512);
        let mut pairs: Vec<(Association, Vec<u8>)> = (0..sample)
            .map(|f| {
                let (client, server) = Association::pair(cfg, f as u64 + 1, &mut rng);
                let record = server.freeze().expect("idle association freezes").encode();
                (client, record)
            })
            .collect();
        let core_root = tracer.push("pass.core", 0, 0, None, 0);
        let wire_root = tracer.push("pass.wire", 0, 0, None, 0);
        let (mut core_ns, mut wire_ns, mut core_dgrams) = (0u64, 0u64, 0u64);
        let mut core_spans = Vec::new();
        let mut wire_spans = Vec::new();
        let mut server_hashes = counting::Counts::default();
        let mut count = |scope: counting::Scope| {
            let c = scope.finish();
            server_hashes.invocations += c.invocations;
            server_hashes.input_bytes += c.input_bytes;
        };
        let now = Timestamp::from_millis(9);
        let mut msg = Vec::new();
        for (flow, (client, record)) in pairs.iter_mut().enumerate() {
            self.fill.write(&mut msg, flow as u32, 0, 0);
            let s1 = client
                .sign(&msg, now)
                .map_err(|e| format!("sign: {e}"))?
                .emit();
            let id = core_dgrams;
            let scope = counting::Scope::start();
            let ((mut server, a1), span) =
                tracer.span("core.thaw_handle", Some(core_root), id, || {
                    let frozen = alpha_core::FrozenAssociation::decode(record).expect("own record");
                    let mut server = Association::thaw(cfg, &frozen);
                    let view = PacketView::parse(&s1).expect("own S1");
                    let resp = server
                        .handle(&view.to_packet(), now, &mut rng)
                        .expect("own S1");
                    (server, resp.packet().expect("S1 draws an A1"))
                });
            count(scope);
            core_ns += tracer.spans()[span].duration_ns();
            core_spans.push(span);
            let s2 = client
                .handle(&a1, now, &mut rng)
                .map_err(|e| format!("A1: {e}"))?
                .packet()
                .ok_or("A1 drew no S2")?
                .emit();
            let scope = counting::Scope::start();
            let (delivered, span) = tracer.span("core.handle", Some(core_root), id + 1, || {
                let view = PacketView::parse(&s2).expect("own S2");
                let n = server
                    .handle(&view.to_packet(), now, &mut rng)
                    .expect("own S2")
                    .deliveries
                    .len();
                *record = server.freeze().expect("idle association freezes").encode();
                n
            });
            count(scope);
            if delivered != 1 {
                return Err("core pass: wake delivered nothing".to_owned());
            }
            core_ns += tracer.spans()[span].duration_ns();
            core_spans.push(span);
            for bytes in [&s1, &s2] {
                let ((), span) = tracer.span("wire.parse", Some(wire_root), core_dgrams, || {
                    std::hint::black_box(PacketView::parse(std::hint::black_box(bytes)).is_ok());
                });
                wire_ns += tracer.spans()[span].duration_ns();
                wire_spans.push(span);
                core_dgrams += 1;
            }
        }
        pair::nest(tracer, &wire_spans, &core_spans, &engine_spans);

        let core_dgrams = core_dgrams as f64;
        let wire = wire_ns as f64 / core_dgrams;
        let crypto = prices.hash().price(&server_hashes) / core_dgrams;
        let core_per = core_ns as f64 / core_dgrams;
        let core_self = (core_per - wire - crypto).max(0.0);
        let engine_self = (engine_ns - core_per).max(0.0);
        let (hot, frozen) = footprint(flows.min(1024), &mut rng)?;
        let first: Vec<f64> = {
            let mut v: Vec<f64> = busy.first_ns.iter().map(|&ns| ns as f64).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let (_, allocs) = sys::count_allocs(|| self.run(Duration::ZERO, None).map(|_| ()));
        let alloc_dgrams = (self.flows() * 4) as f64; // handshake + first exchange + one wake cycle
        let idle_core = EngineCore::new(server_config());
        let idle = Timestamp::from_millis(2);
        let poll_ns = micro::time_ns(2_000, || drop(idle_core.poll(idle, &mut rng)));
        let handshake_ns = 1e9 / bare_rep.detail_f64("handshakes_per_s").max(1e-9);

        let mut rows = price_rows(&prices);
        rows.extend([
            ("wire.self_ns_per_dgram", wire),
            ("wire.emit_ns_per_dgram", micro::emit_ns(PAYLOAD, 0)),
            ("wire.bytes_per_dgram", busy.bytes as f64 / dgrams / 2.0),
            (
                "crypto.hashes_per_msg",
                server_hashes.invocations as f64 / sample as f64,
            ),
            (
                "crypto.hash_bytes_per_msg",
                server_hashes.input_bytes as f64 / sample as f64,
            ),
            ("crypto.self_ns_per_dgram", crypto),
            ("core.self_ns_per_dgram", core_self),
            ("core.verify_ns_per_msg", core_ns as f64 / sample as f64),
            ("engine.self_ns_per_dgram", engine_self),
            (
                "engine.allocs_per_dgram",
                allocs.allocs as f64 / alloc_dgrams,
            ),
            ("engine.poll_ns_per_call", poll_ns),
            ("engine.handshake_ns", handshake_ns),
            (
                "engine.handshakes_per_s",
                bare_rep.detail_f64("handshakes_per_s"),
            ),
            ("engine.wake_ns_p50", stats::percentile_sorted(&first, 50.0)),
            ("engine.hot_bytes_per_flow", hot),
            ("store.frozen_bytes_per_flow", frozen),
            ("store.evictions", evictions as f64),
            // No sockets: the engine's own time is the whole cost.
            ("transport.worker_cpu_ns_per_dgram", engine_ns),
            ("transport.worker_util", 1.0),
            (
                "transport.latency_p90_us",
                stats::percentile_sorted(&bare_rep.latency_us, 90.0),
            ),
            (
                "transport.latency_p99_us",
                stats::percentile_sorted(&bare_rep.latency_us, 99.0),
            ),
            (
                "trace.overhead_share",
                (traced_ns - engine_ns) / engine_ns.max(1.0),
            ),
            (
                "trace.ledger_sum_ns_per_dgram",
                wire + crypto + core_self + engine_self,
            ),
        ]);
        Ok(rows)
    }

    fn sut(&self) -> SutInfo {
        self.sut.clone()
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_freezes_and_wakes_every_flow_without_a_handshake() {
        let w = ChurnWorkload::new(&RunOpts {
            seed: 2,
            seconds: 0.1,
            quick: true,
            pinned: false,
        });
        let (rep, busy, evictions) = w.run(Duration::ZERO, None).expect("one cycle");
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(
            rep.verified,
            (FLOWS / 16) as u64,
            "one cycle wakes the cohort once"
        );
        assert_eq!(rep.failed, 0);
        assert_eq!(busy.first_ns.len() as u64, rep.verified);
        assert_eq!(busy.dgrams, 2 * rep.verified, "an S1 and an S2 per wake");
        assert_eq!(evictions, 0);
        assert!(rep.wire_bytes > rep.payload_bytes);
    }

    #[test]
    fn frozen_flows_take_less_memory_than_hot_ones() {
        let mut rng = gen::stream_rng(1, 1);
        let (hot, frozen) = footprint(64, &mut rng).expect("footprint");
        assert!(
            frozen > 0.0 && hot > frozen,
            "hot {hot} B/flow, frozen {frozen} B/flow"
        );
    }
}
