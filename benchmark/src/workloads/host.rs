//! `host_merkle_1k` and `host_base_paced`: one live single-worker
//! verifier `Engine` with a delivery sink, driven over loopback by a
//! client `EngineCore` that lives on the generator thread.
//!
//! - **Merkle**: closed loop, 32 flows; every idle flow at once signs
//!   its next ALPHA-M bundle of 32 × 1 KiB. Byte-heavy: hashing, Merkle
//!   work and copies dominate on both sides; signer (generator thread)
//!   and verifier (worker) take turns on the run's one CPU, so goodput
//!   is one over the sum of their costs.
//! - **Paced**: open loop, a fixed schedule of 2000 Base exchanges a
//!   second round-robin over 32 flows, each message carrying its due
//!   time; latency is due time → verified delivery in the sink. A slot
//!   whose flow is still busy waits for it (ALPHA runs one exchange per
//!   flow at a time) and keeps its due time, so the wait a stall
//!   imposes on later slots is in their latency. Nothing is saturated,
//!   so the worker's wake-up path sets the median.
//!
//! The sink runs on the engine's worker thread. It checks every
//! delivered payload byte for byte against what the header says was
//! signed, and that each flow's messages arrive exactly once in order.

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alpha_core::{Config, Mode, Timestamp};
use alpha_engine::{EngineConfig, EngineCore, EngineOutput, FlowKey, IoTotals};
use alpha_transport::io::MAX_BATCH;
use alpha_transport::{DeliverySink, Engine, RxDatagram, UdpIo};
use alpha_wire::FramePool;
use rand::rngs::StdRng;

use super::pair::{self, Fill, PassShape};
use super::{
    generator_io, io_since, median_live, price_rows, transport_rows, Rep, RunOpts, SutInfo,
    Workload,
};
use crate::gen::{self, ALG};
use crate::micro;
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// Concurrent flows of both host workloads.
const FLOWS: usize = 32;
/// Flow-table shards of the verifier.
const SHARDS: usize = 64;

/// Which load the client offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Closed-loop ALPHA-M bundles of 32 × 1 KiB.
    Merkle,
    /// Open-loop Base exchanges at a fixed rate.
    Paced,
}

impl Load {
    fn payload(self) -> usize {
        match self {
            Load::Merkle => 1024,
            Load::Paced => 64,
        }
    }

    fn bundle(self) -> usize {
        match self {
            Load::Merkle => 32,
            Load::Paced => 1,
        }
    }

    fn mode(self) -> Mode {
        match self {
            Load::Merkle => Mode::Merkle,
            Load::Paced => Mode::Base,
        }
    }

    /// Chain length: the protocol default. An exchange takes two
    /// elements; within one repetition a saturated Merkle flow runs a
    /// few hundred exchanges and a paced one a few dozen.
    fn chain_len(self) -> u64 {
        Config::new(ALG).chain_len
    }

    fn proto(self) -> Config {
        Config::new(ALG).with_chain_len(self.chain_len())
    }
}

/// Repetitions per run (see [`Workload::reps`]).
const REPS: usize = 16;

/// Exchanges per second the paced schedule fires.
const PACED_RATE: f64 = 2000.0;

/// A host workload.
pub struct HostWorkload {
    opts: RunOpts,
    load: Load,
    fill: Arc<Fill>,
    gen_s: f64,
    sut: SutInfo,
}

/// What the sink has seen, shared between worker and generator.
struct SinkState {
    epoch: Instant,
    fill: Arc<Fill>,
    delivered: AtomicU64,
    /// Nanoseconds since `epoch` of the latest delivery.
    last_ns: AtomicU64,
    inner: Mutex<SinkInner>,
}

#[derive(Default)]
struct SinkInner {
    next_serial: Vec<u32>,
    latency_ns: Vec<u64>,
    /// Payloads that differ from what was signed.
    corrupt: u64,
    /// Payloads delivered twice, skipped or out of order.
    misordered: u64,
}

impl SinkState {
    fn sink(self: &Arc<SinkState>) -> DeliverySink {
        let state = Arc::clone(self);
        Box::new(move |out: &EngineOutput| {
            if out.delivered.is_empty() {
                return;
            }
            let now_ns = state.epoch.elapsed().as_nanos() as u64;
            let mut inner = state.inner.lock().expect("sink state lock");
            for (_, _, payload) in &out.delivered {
                match state.fill.check(payload) {
                    Some((flow, serial, ts_ns)) if (flow as usize) < inner.next_serial.len() => {
                        let next = &mut inner.next_serial[flow as usize];
                        if *next == serial {
                            *next += 1;
                        } else {
                            *next = serial + 1;
                            inner.misordered += 1;
                        }
                        inner.latency_ns.push(now_ns.saturating_sub(ts_ns));
                    }
                    _ => inner.corrupt += 1,
                }
            }
            drop(inner);
            state.last_ns.store(now_ns, Ordering::Relaxed);
            state
                .delivered
                .fetch_add(out.delivered.len() as u64, Ordering::Release);
        })
    }
}

/// The client half: engine core, socket, flows.
struct Client {
    core: EngineCore,
    io: UdpIo,
    pool: FramePool,
    rx: Vec<RxDatagram>,
    keys: Vec<FlowKey>,
    rng: StdRng,
    epoch: Instant,
    server: SocketAddr,
}

impl Client {
    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn send(&self, out: &EngineOutput) -> Result<(), String> {
        self.io
            .send_batch(&out.datagrams)
            .map(|_| ())
            .map_err(|e| format!("client send: {e}"))
    }

    /// Handle whatever has arrived; returns flows that completed a
    /// handshake.
    fn receive(&mut self) -> Result<usize, String> {
        self.rx.clear();
        self.io
            .recv_batch(&self.pool, &mut self.rx, MAX_BATCH)
            .map_err(|e| format!("client recv: {e}"))?;
        let now = self.now();
        let mut completed = 0;
        for d in std::mem::take(&mut self.rx) {
            let out = self
                .core
                .handle_datagram(d.from, &d.frame, now, &mut self.rng);
            completed += out.completed.len();
            self.send(&out)?;
        }
        Ok(completed)
    }

    /// Run the client's timers (handshake and S1 retransmissions).
    fn poll(&mut self) -> Result<usize, String> {
        let out = self.core.poll(self.now(), &mut self.rng);
        self.send(&out)?;
        Ok(out.completed.len())
    }
}

struct Live {
    rep: Rep,
    consumed: u64,
    io: IoTotals,
    sut: SutInfo,
    gen_late_us: Vec<f64>,
}

impl HostWorkload {
    /// Build the workload; its only generated input is the message
    /// filler (exchanges need the live verifier's replies).
    pub fn new(opts: &RunOpts, load: Load) -> HostWorkload {
        let started = Instant::now();
        let mut rng = gen::stream_rng(opts.seed, 0xf111);
        let fill = Arc::new(Fill::new(&mut rng, load.payload()));
        HostWorkload {
            opts: *opts,
            load,
            fill,
            gen_s: started.elapsed().as_secs_f64(),
            sut: SutInfo::default(),
        }
    }

    fn live(&self, duration: Duration, rep_index: u64) -> Result<Live, String> {
        let load = self.load;
        // --- set-up of the system under test (timed as setup_s) -------
        let tasks_before = sys::task_ids();
        let setup = Instant::now();
        let epoch = Instant::now();
        let state = Arc::new(SinkState {
            epoch,
            fill: Arc::clone(&self.fill),
            delivered: AtomicU64::new(0),
            last_ns: AtomicU64::new(0),
            inner: Mutex::new(SinkInner {
                next_serial: vec![0; FLOWS],
                ..SinkInner::default()
            }),
        });
        let server_core = EngineCore::new(EngineConfig::new(load.proto()).with_shards(SHARDS));
        let engine = Engine::bind_with_sink("127.0.0.1:0", server_core, 1, Some(state.sink()))
            .map_err(|e| format!("verifier bind: {e}"))?;
        let server = engine.local_addr().map_err(|e| e.to_string())?;

        let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        socket.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut client = Client {
            core: EngineCore::new(EngineConfig::new(load.proto())),
            io: generator_io(socket),
            pool: FramePool::new(2048, 4 * MAX_BATCH),
            rx: Vec::with_capacity(MAX_BATCH),
            keys: Vec::with_capacity(FLOWS),
            // The client's chains come from the run seed; the verifier
            // draws its own from the system, as deployed.
            rng: gen::stream_rng(self.opts.seed, 0xc11e_0000 + rep_index),
            epoch,
            server,
        };
        for flow in 0..FLOWS {
            let now = client.now();
            let (key, out) =
                client
                    .core
                    .connect(client.server, flow as u64 + 1, now, &mut client.rng);
            client.send(&out)?;
            client.keys.push(key);
        }
        let mut up = 0;
        while up < FLOWS {
            if setup.elapsed() > Duration::from_secs(10) {
                return Err(format!("only {up} of {FLOWS} flows connected within 10 s"));
            }
            up += client.receive()? + client.poll()?;
        }
        let setup_s = setup.elapsed().as_secs_f64();

        let core = Arc::clone(engine.core());
        let metrics = core.metrics();
        let sut_tids = sys::new_tasks(&tasks_before, &sys::task_ids());
        let base_io = metrics.io.totals();
        let base_bytes =
            metrics.bytes_in.load(Ordering::Relaxed) + metrics.bytes_out.load(Ordering::Relaxed);
        let base_verified = metrics.s2_verified.load(Ordering::Relaxed);
        let cpu_before = sys::tasks_cpu_ns(&sut_tids);
        let gen_cpu_before = sys::current_tid().and_then(sys::task_cpu_ns).unwrap_or(0);

        // --- timed region -------------------------------------------
        let bundle = load.bundle();
        let mut scratch: Vec<Vec<u8>> = vec![Vec::new(); bundle];
        let mut serials = [0u32; FLOWS];
        let mut signed = 0u64;
        let mut slots = 0u64;
        // Paced slots whose flow was busy when they fell due, per flow
        // in due order, and how many wait in all.
        let mut waiting: Vec<VecDeque<u64>> = vec![VecDeque::new(); FLOWS];
        let (mut queued, mut queued_max, mut deferred) = (0usize, 0usize, 0u64);
        let mut gen_late_us = Vec::new();
        let started = Instant::now();
        let started_ns = (started - epoch).as_nanos() as u64;
        let interval_ns = (1e9 / PACED_RATE) as u64;
        let total_slots = (duration.as_secs_f64() * PACED_RATE).ceil() as u64;
        let mut stop_at: Option<Instant> = None;
        let mut spins = 0u64;
        let mut sign = |client: &mut Client,
                        flow: usize,
                        ts_ns: u64,
                        scratch: &mut Vec<Vec<u8>>|
         -> Result<(), String> {
            for buf in scratch.iter_mut() {
                self.fill.write(buf, flow as u32, serials[flow], ts_ns);
                serials[flow] += 1;
            }
            let msgs: Vec<&[u8]> = scratch.iter().map(Vec::as_slice).collect();
            let now = client.now();
            let out = client
                .core
                .sign_batch(client.keys[flow], &msgs, load.mode(), now)
                .map_err(|e| format!("sign on flow {flow}: {e}"))?;
            client.send(&out)
        };
        loop {
            client.receive()?;
            spins += 1;
            if spins.is_multiple_of(1024) {
                client.poll()?;
            }
            match (load, stop_at) {
                (Load::Merkle, None) => {
                    for flow in 0..FLOWS {
                        if client.core.flow_is_idle(client.keys[flow]) {
                            let ts = epoch.elapsed().as_nanos() as u64;
                            sign(&mut client, flow, ts, &mut scratch)?;
                            signed += bundle as u64;
                        }
                    }
                    if started.elapsed() >= duration {
                        stop_at = Some(Instant::now());
                    }
                }
                (Load::Paced, None) => {
                    let due_ns = started_ns + slots * interval_ns;
                    let now_ns = epoch.elapsed().as_nanos() as u64;
                    if slots < total_slots && now_ns >= due_ns {
                        gen_late_us.push((now_ns - due_ns) as f64 / 1e3);
                        let flow = (slots % FLOWS as u64) as usize;
                        if waiting[flow].is_empty() && client.core.flow_is_idle(client.keys[flow]) {
                            sign(&mut client, flow, due_ns, &mut scratch)?;
                            signed += 1;
                        } else {
                            waiting[flow].push_back(due_ns);
                            queued += 1;
                            queued_max = queued_max.max(queued);
                            deferred += 1;
                        }
                        slots += 1;
                    }
                    if queued > 0 {
                        for (flow, slots_waiting) in waiting.iter_mut().enumerate() {
                            if !slots_waiting.is_empty()
                                && client.core.flow_is_idle(client.keys[flow])
                            {
                                let due_ns = slots_waiting.pop_front().expect("non-empty");
                                sign(&mut client, flow, due_ns, &mut scratch)?;
                                signed += 1;
                                queued -= 1;
                            }
                        }
                    }
                    if slots >= total_slots && queued == 0 {
                        stop_at = Some(Instant::now());
                    }
                }
                (_, Some(stopped)) => {
                    // Drain: everything signed must be delivered.
                    if state.delivered.load(Ordering::Acquire) >= signed {
                        break;
                    }
                    if stopped.elapsed() > Duration::from_secs(3) {
                        break;
                    }
                }
            }
        }
        let delivered = state.delivered.load(Ordering::Acquire);
        let last_ns = state.last_ns.load(Ordering::Relaxed);
        let elapsed_s = last_ns.saturating_sub(started_ns) as f64 / 1e9;
        let all_tids = sys::new_tasks(&tasks_before, &sys::task_ids());
        let sut_cpu_ns = sys::tasks_cpu_ns(&all_tids).saturating_sub(cpu_before);
        let gen_cpu_ns = sys::current_tid()
            .and_then(sys::task_cpu_ns)
            .unwrap_or(0)
            .saturating_sub(gen_cpu_before);

        // --- read-out and checks ----------------------------------------
        let io_now = metrics.io.totals();
        let io = io_since(&io_now, &base_io);
        let verified = metrics.s2_verified.load(Ordering::Relaxed) - base_verified;
        let wire_bytes = metrics.bytes_in.load(Ordering::Relaxed)
            + metrics.bytes_out.load(Ordering::Relaxed)
            - base_bytes;
        let handshakes = metrics.handshakes.load(Ordering::Relaxed);
        let sut = SutInfo::live(&core, self.opts.pinned);
        let sent_to_server = client.io.counters().datagrams_out.load(Ordering::Relaxed);
        engine.shutdown();
        let inner = std::mem::take(&mut *state.inner.lock().expect("sink state lock"));

        let mut problems = Vec::new();
        if delivered != signed {
            problems.push(format!("sink saw {delivered} of {signed} signed messages"));
        }
        if verified != delivered {
            problems.push(format!(
                "engine counted {verified} verified messages, sink saw {delivered}"
            ));
        }
        if inner.corrupt + inner.misordered > 0 {
            problems.push(format!(
                "sink: {} payloads differ from what was signed, {} out of order or repeated",
                inner.corrupt, inner.misordered
            ));
        }
        if handshakes != FLOWS as u64 {
            problems.push(format!("{handshakes} handshakes for {FLOWS} flows"));
        }
        let mut latency_us: Vec<f64> = inner.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        latency_us.sort_by(f64::total_cmp);
        gen_late_us.sort_by(f64::total_cmp);
        let attempted = match load {
            Load::Merkle => signed,
            Load::Paced => slots,
        };
        let rep = Rep {
            setup_s,
            elapsed_s,
            verified: delivered,
            payload_bytes: delivered * load.payload() as u64,
            sut_cpu_ns,
            wire_bytes,
            latency_us,
            attempted,
            failed: attempted.saturating_sub(delivered) + inner.corrupt + inner.misordered,
            problems,
            detail: vec![
                ("signed".to_owned(), serde::Value::U64(signed)),
                ("deferred_slots".to_owned(), serde::Value::U64(deferred)),
                (
                    "deferred_slots_max_waiting".to_owned(),
                    serde::Value::U64(queued_max as u64),
                ),
                (
                    "worker_util".to_owned(),
                    serde::Value::F64(sut_cpu_ns as f64 / 1e9 / elapsed_s.max(1e-9)),
                ),
                (
                    "signer_cpu_us_per_msg".to_owned(),
                    serde::Value::F64(gen_cpu_ns as f64 / 1e3 / delivered.max(1) as f64),
                ),
                (
                    "gen_late_p99_us".to_owned(),
                    serde::Value::F64(stats::percentile_sorted(&gen_late_us, 99.0)),
                ),
                (
                    "rx_unconsumed".to_owned(),
                    serde::Value::U64(
                        // Handshake datagrams were consumed before the
                        // baseline; compare totals.
                        sent_to_server.saturating_sub(io_now.datagrams_in),
                    ),
                ),
            ],
        };
        Ok(Live {
            rep,
            consumed: io.datagrams_in,
            io,
            sut,
            gen_late_us,
        })
    }

    /// Shape of the traced run's in-memory passes.
    fn pass_shape(&self) -> PassShape {
        let scale = if self.opts.quick { 4 } else { 1 };
        PassShape {
            flows: FLOWS / 4,
            exchanges: match self.load {
                Load::Merkle => 48 / scale,
                Load::Paced => 400 / scale,
            },
            bundle: self.load.bundle(),
            mode: self.load.mode(),
            proto: EngineConfig::new(self.load.proto()).protocol,
        }
    }
}

impl Workload for HostWorkload {
    fn reps(&self) -> usize {
        if self.opts.quick {
            4
        } else {
            REPS
        }
    }

    fn rep(&mut self, duration: Duration) -> Result<Rep, String> {
        let live = self.live(duration, 0)?;
        self.sut = live.sut;
        Ok(live.rep)
    }

    fn traced(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let shape = self.pass_shape();
        let mut rng = gen::stream_rng(self.opts.seed, 0x7ace);
        let prices = micro::prices(&mut rng, self.load.chain_len());

        let core = pair::assoc_pass(&shape, &self.fill, &mut rng, tracer)?;
        let wire = pair::wire_pass(&core.recorded, tracer);
        let engine = pair::engine_pass(&shape, &self.fill, &mut rng, Some(tracer))?;
        let bare = pair::engine_pass(&shape, &self.fill, &mut rng, None)?;
        // Counting slows the allocator, so allocations are counted on a
        // pass of their own.
        let (counted, allocs) =
            sys::count_allocs(|| pair::engine_pass(&shape, &self.fill, &mut rng, None));
        counted?;
        pair::nest(tracer, &wire.spans, &core.spans, &engine.spans);

        let cpu_per_dgram = |l: &Live| l.rep.sut_cpu_ns as f64 / l.consumed.max(1) as f64;
        let live = median_live(
            duration,
            |each| self.live(each, 1),
            |l| &l.rep.problems,
            cpu_per_dgram,
        )?;
        let p3 = cpu_per_dgram(&live);

        let dgrams = core.dgrams as f64;
        let msgs = shape.messages() as f64;
        let wire_ns = wire.server_ns as f64 / dgrams;
        let crypto = prices.hash().price(&core.hashes) / dgrams;
        let core_ns = core.server_ns as f64 / dgrams;
        let engine_ns = bare.server_ns as f64 / bare.dgrams as f64;
        let core_self = (core_ns - wire_ns - crypto).max(0.0);
        let engine_self = (engine_ns - core_ns).max(0.0);
        let transport = p3 - engine_ns;
        let bytes: usize = core.recorded.iter().map(Vec::len).sum();
        let path_len = match self.load {
            Load::Merkle => 5,
            Load::Paced => 0,
        };

        // Handshake and idle-poll prices on an engine holding the
        // workload's flows.
        let hs_pair = pair::EnginePair::new(EngineConfig::new(shape.proto).with_shards(SHARDS));
        let hs_started = Instant::now();
        hs_pair.connect(FLOWS, Timestamp::from_millis(1), &mut rng)?;
        let hs_ns = hs_started.elapsed().as_nanos() as f64 / FLOWS as f64;
        let idle = Timestamp::from_millis(2);
        let poll_ns = micro::time_ns(2_000, || drop(hs_pair.server.poll(idle, &mut rng)));

        self.sut = live.sut;
        let mut rows = price_rows(&prices);
        rows.extend(transport_rows(
            &live.io,
            &live.rep,
            p3,
            engine_ns,
            live.rep.detail_f64("rx_unconsumed"),
        ));
        rows.extend([
            ("wire.self_ns_per_dgram", wire_ns),
            (
                "wire.emit_ns_per_dgram",
                micro::emit_ns(self.load.payload(), path_len),
            ),
            ("wire.bytes_per_dgram", bytes as f64 / dgrams),
            (
                "crypto.hashes_per_msg",
                core.hashes.invocations as f64 / msgs,
            ),
            (
                "crypto.hash_bytes_per_msg",
                core.hashes.input_bytes as f64 / msgs,
            ),
            ("crypto.self_ns_per_dgram", crypto),
            ("core.self_ns_per_dgram", core_self),
            ("core.sign_ns_per_msg", core.client_ns as f64 / msgs),
            ("core.verify_ns_per_msg", core.server_ns as f64 / msgs),
            ("engine.self_ns_per_dgram", engine_self),
            (
                "engine.allocs_per_dgram",
                allocs.allocs as f64 / bare.dgrams as f64,
            ),
            ("engine.poll_ns_per_call", poll_ns),
            // Both ends of the handshake run on this thread, chain
            // generation included.
            ("engine.handshake_ns", hs_ns),
            ("engine.handshakes_per_s", 1e9 / hs_ns.max(1.0)),
            (
                "transport.gen_late_p99_us",
                stats::percentile_sorted(&live.gen_late_us, 99.0),
            ),
            (
                "trace.overhead_share",
                (engine.server_ns as f64 / engine.dgrams as f64 - engine_ns) / engine_ns.max(1.0),
            ),
            (
                "trace.ledger_sum_ns_per_dgram",
                wire_ns + crypto + core_self + engine_self + transport,
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

    fn opts() -> RunOpts {
        RunOpts {
            seed: 3,
            seconds: 0.5,
            quick: true,
            pinned: false,
        }
    }

    #[test]
    fn live_merkle_repetition_delivers_what_was_signed() {
        let mut w = HostWorkload::new(&opts(), Load::Merkle);
        let rep = w.rep(Duration::from_millis(60)).expect("live repetition");
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(rep.failed, 0);
        assert!(
            rep.verified >= 32 * FLOWS as u64,
            "every flow signs at least one bundle"
        );
        assert_eq!(rep.verified % 32, 0);
        assert_eq!(rep.payload_bytes, rep.verified * 1024);
        assert!(rep.wire_bytes > rep.payload_bytes);
    }

    #[test]
    fn live_paced_repetition_meets_its_schedule() {
        let mut w = HostWorkload::new(&opts(), Load::Paced);
        let rep = w.rep(Duration::from_millis(100)).expect("live repetition");
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(rep.attempted, 200, "2000 slots a second for 100 ms");
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.latency_us.len() as u64, rep.verified);
    }
}
