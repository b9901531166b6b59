//! `relay_base_min` and `relay_flood_mix`: one live single-worker relay
//! `Engine` on loopback, fed a pre-generated seeded trace.
//!
//! Method (after the repo's `udp_io` bench): per flow a client socket
//! and a sink socket with a route between them; the relay learns each
//! association from its handshake fed straight to the core; the timed
//! region injects the trace's sends in order from the flows' client
//! sockets, keeping at most [`WINDOW`] datagrams between injector and
//! relay so its receive queue stays loaded but never overflows.
//! Forwards land on the sinks. Sinks are never read, except those of
//! the first [`PROBE_FLOWS`] flows: the generator reads these to time
//! injection → forwarded arrival and to check that what the relay
//! forwards is byte-identical to what was injected.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alpha_core::{DropReason, Relay, RelayConfig, RelayDecision, Timestamp};
use alpha_crypto::counting;
use alpha_engine::{EngineConfig, EngineCore, IoTotals};
use alpha_transport::io::MAX_BATCH;
use alpha_transport::{Engine, UdpIo};
use alpha_wire::{bundle, Frame, FramePool, PacketView};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    generator_io, io_since, median_live, price_rows, transport_rows, Rep, RunOpts, SutInfo,
    Workload,
};
use crate::gen::{self, Kind, RelayTrace, Source, TraceShape, ATTACKER_SOCKETS};
use crate::micro;
use crate::sys;
use crate::trace::Tracer;

/// Concurrent flows.
const FLOWS: usize = 512;
/// Payload bytes per message: the smallest the trace's message tag
/// allows, so per-datagram cost dominates.
const PAYLOAD: usize = 16;
/// Flow-table shards of the relay.
const SHARDS: usize = 64;
/// Most datagrams allowed between injector and relay. A full window of
/// these small frames fits the 4 MiB receive buffer the engine asks
/// for, so the receive queue never sheds.
const WINDOW: u64 = 1024;
/// Flows whose sink the generator reads.
const PROBE_FLOWS: usize = 4;
/// Datagram rate the trace is sized for, per second of repetition. A
/// relay that outruns it ends its repetitions early (still a valid
/// rate); on the reference host, sharing its CPU with the generator,
/// the relay reaches about half of it.
const RATE_CAP: f64 = 280_000.0;
/// Repetitions per run (see [`Workload::reps`]): the relay comes up in
/// milliseconds, so a run can afford many short ones.
const REPS: usize = 24;
/// Repetitions of a `--quick` run.
const QUICK_REPS: usize = 4;
/// Datagrams of the trace the traced run's passes replay.
const TRACE_SLICE: usize = 160_000;

/// A relay workload: its input and the sockets the input travels over.
pub struct RelayWorkload {
    opts: RunOpts,
    trace: RelayTrace,
    gen_s: f64,
    socks: Sockets,
    sut: SutInfo,
}

struct Sockets {
    injectors: Vec<UdpIo>,
    sinks: Vec<UdpSocket>,
    attackers: Vec<UdpIo>,
    pool: FramePool,
}

impl Sockets {
    fn open(flows: usize) -> Result<Sockets, String> {
        let limit = sys::raise_nofile_limit();
        let bind = |n: usize| -> Result<Vec<UdpSocket>, String> {
            (0..n)
                .map(|_| UdpSocket::bind("127.0.0.1:0"))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("open endpoint sockets (open-file limit {limit}): {e}"))
        };
        let sinks = bind(flows)?;
        for sink in sinks.iter().take(PROBE_FLOWS) {
            sink.set_nonblocking(true).map_err(|e| e.to_string())?;
        }
        Ok(Sockets {
            injectors: bind(flows)?.into_iter().map(generator_io).collect(),
            sinks,
            attackers: bind(ATTACKER_SOCKETS)?
                .into_iter()
                .map(generator_io)
                .collect(),
            pool: FramePool::new(2048, 2 * MAX_BATCH),
        })
    }

    fn client_addr(&self, flow: usize) -> SocketAddr {
        self.injectors[flow].socket().local_addr().expect("bound")
    }

    fn sink_addr(&self, flow: usize) -> SocketAddr {
        self.sinks[flow].local_addr().expect("bound")
    }

    /// Throw away whatever a previous repetition left in the probe
    /// sinks.
    fn flush_probes(&self) {
        let mut buf = [0u8; 2048];
        for sink in self.sinks.iter().take(PROBE_FLOWS) {
            while sink.recv(&mut buf).is_ok() {}
        }
    }
}

/// Engine configuration of the relay under test: defaults, except the
/// engine-level S1 admission budget, which is policy, not cost, and
/// handshake acceptance, which a pure relay leaves off.
fn relay_engine_config(exchanges: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(gen::relay_protocol(exchanges))
        .with_shards(SHARDS)
        .with_s1_budget(None);
    cfg.accept_handshakes = false;
    cfg
}

/// A relay core that has learned every flow of `trace`, with routes
/// between `client(flow)` and `sink(flow)`.
fn learned_core(
    trace: &RelayTrace,
    client: impl Fn(usize) -> SocketAddr,
    sink: impl Fn(usize) -> SocketAddr,
) -> Result<EngineCore, String> {
    let core = EngineCore::new(relay_engine_config(trace.shape.exchanges));
    let mut rng = StdRng::seed_from_u64(7);
    let t0 = Timestamp::from_millis(1);
    for (flow, hs) in trace.handshakes.iter().enumerate() {
        core.add_route(client(flow), sink(flow));
        core.handle_datagram(client(flow), &hs[0], t0, &mut rng);
        core.handle_datagram(sink(flow), &hs[1], t0, &mut rng);
    }
    let learned = core.metrics().handshakes.load(Ordering::Relaxed);
    if learned != trace.handshakes.len() as u64 {
        return Err(format!(
            "relay learned {learned} of {} associations from their handshakes",
            trace.handshakes.len()
        ));
    }
    Ok(core)
}

/// Drop counters a relay repetition is checked against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Judged {
    forwarded: u64,
    s2_verified: u64,
    bad_mac: u64,
    unsolicited: u64,
    unknown_assoc: u64,
    parse_errors: u64,
    other_drops: u64,
}

impl Judged {
    fn read(core: &EngineCore, io: &IoTotals) -> Judged {
        let m = core.metrics();
        let (bad_mac, unsolicited, unknown_assoc) = (
            m.drops(DropReason::BadMac),
            m.drops(DropReason::Unsolicited),
            m.drops(DropReason::UnknownAssociation),
        );
        Judged {
            forwarded: io.datagrams_out,
            s2_verified: m.s2_verified.load(Ordering::Relaxed),
            bad_mac,
            unsolicited,
            unknown_assoc,
            parse_errors: m.parse_errors.load(Ordering::Relaxed),
            other_drops: m.total_drops() - bad_mac - unsolicited - unknown_assoc
                + m.admission_drops.load(Ordering::Relaxed)
                + m.backpressure_drops.load(Ordering::Relaxed),
        }
    }

    /// What the relay must report after exactly `injected` (datagrams
    /// per kind) went in.
    fn expected(injected: &[u64; Kind::ALL.len()]) -> Judged {
        let n = |k: Kind| injected[k.index()];
        Judged {
            forwarded: n(Kind::LegitS1) + n(Kind::LegitS2),
            s2_verified: n(Kind::LegitS2),
            bad_mac: n(Kind::BadMac),
            unsolicited: n(Kind::Unsolicited),
            unknown_assoc: n(Kind::UnknownAssoc),
            parse_errors: n(Kind::Garbage),
            other_drops: 0,
        }
    }

    /// Datagrams the relay has finished with, one way or another.
    fn settled(&self) -> u64 {
        self.forwarded
            + self.bad_mac
            + self.unsolicited
            + self.unknown_assoc
            + self.parse_errors
            + self.other_drops
    }

    /// Operations whose outcome differs from `want`.
    fn mismatches(&self, want: &Judged) -> u64 {
        want.s2_verified.saturating_sub(self.s2_verified)
            + self.forwarded.abs_diff(want.forwarded)
            + self.bad_mac.abs_diff(want.bad_mac)
            + self.unsolicited.abs_diff(want.unsolicited)
            + self.unknown_assoc.abs_diff(want.unknown_assoc)
            + self.parse_errors.abs_diff(want.parse_errors)
            + self.other_drops
    }
}

/// What the generator learned from the sinks it reads.
#[derive(Default)]
struct Probe {
    /// Per probe flow: index and send time of every legitimate datagram
    /// injected, in order.
    sent: Vec<Vec<(u32, Instant)>>,
    /// Per probe flow: how many forwards have arrived.
    arrived: Vec<usize>,
    latency_us: Vec<f64>,
    mismatched: u64,
    unexpected: u64,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            sent: vec![Vec::new(); PROBE_FLOWS],
            arrived: vec![0; PROBE_FLOWS],
            ..Probe::default()
        }
    }

    /// Read every forward waiting in the probe sinks; the k-th arrival
    /// on a flow must be that flow's k-th legitimate datagram, byte for
    /// byte (single worker: per-flow order is preserved).
    fn drain(&mut self, trace: &RelayTrace, sinks: &[UdpSocket]) {
        let mut buf = [0u8; 2048];
        for (flow, sink) in sinks.iter().take(PROBE_FLOWS).enumerate() {
            while let Ok(n) = sink.recv(&mut buf) {
                let now = Instant::now();
                let Some(&(index, at)) = self.sent[flow].get(self.arrived[flow]) else {
                    self.unexpected += 1;
                    continue;
                };
                self.arrived[flow] += 1;
                if trace.bytes(index as usize) != &buf[..n] {
                    self.mismatched += 1;
                } else if trace.dgrams[index as usize].kind == Kind::LegitS2 {
                    self.latency_us.push((now - at).as_secs_f64() * 1e6);
                }
            }
        }
    }

    fn outstanding(&self) -> usize {
        self.sent
            .iter()
            .zip(&self.arrived)
            .map(|(s, &a)| s.len() - a)
            .sum()
    }
}

/// Raw result of one live repetition.
struct Live {
    rep: Rep,
    consumed: u64,
    io: IoTotals,
    sut: SutInfo,
}

impl RelayWorkload {
    /// Generate the input for `opts` and open the endpoint sockets.
    pub fn new(opts: &RunOpts, flood: bool) -> Result<RelayWorkload, String> {
        let per_send = gen::exchanges_per_send(flood);
        let reps = if opts.quick { QUICK_REPS } else { REPS };
        let dgrams = RATE_CAP * opts.rep_duration(reps).as_secs_f64();
        let per_flow = (dgrams / 2.0 / FLOWS as f64).ceil() as usize;
        let shape = TraceShape {
            flows: FLOWS,
            exchanges: per_flow.div_ceil(per_send).max(2) * per_send,
            payload: PAYLOAD,
            flood,
        };
        let started = Instant::now();
        let trace = gen::relay_trace(opts.seed, shape);
        Ok(RelayWorkload {
            opts: *opts,
            gen_s: started.elapsed().as_secs_f64(),
            socks: Sockets::open(FLOWS)?,
            trace,
            sut: SutInfo::default(),
        })
    }

    /// One live repetition: fresh relay, inject for `duration`, drain.
    fn live(&self, duration: Duration) -> Result<Live, String> {
        let (trace, socks) = (&self.trace, &self.socks);
        socks.flush_probes();

        // --- set-up of the system under test (timed as setup_s) -------
        let tasks_before = sys::task_ids();
        let setup = Instant::now();
        let core = learned_core(trace, |f| socks.client_addr(f), |f| socks.sink_addr(f))?;
        let relay = Engine::bind("127.0.0.1:0", core, 1).map_err(|e| format!("relay bind: {e}"))?;
        let setup_s = setup.elapsed().as_secs_f64();

        let relay_addr = relay.local_addr().map_err(|e| e.to_string())?;
        let core = Arc::clone(relay.core());
        let metrics = core.metrics();
        let sut_tids = sys::new_tasks(&tasks_before, &sys::task_ids());
        let base_io = metrics.io.totals();
        let base_bytes =
            metrics.bytes_in.load(Ordering::Relaxed) + metrics.bytes_out.load(Ordering::Relaxed);
        let io_now = || io_since(&metrics.io.totals(), &base_io);
        let consumed = || io_now().datagrams_in;
        let cpu_before = sys::tasks_cpu_ns(&sut_tids);
        let gen_cpu_before = sys::current_tid().and_then(sys::task_cpu_ns).unwrap_or(0);

        // --- timed region -------------------------------------------
        let mut probe = Probe::new();
        let mut injected = [0u64; Kind::ALL.len()];
        let mut injected_total = 0u64;
        let mut msgs: Vec<(SocketAddr, Frame)> = Vec::with_capacity(MAX_BATCH);
        let stall = |what: &str, n: u64| {
            format!(
                "relay stopped {what} with {n} datagrams outstanding\n{}",
                metrics.to_json()
            )
        };
        let started = Instant::now();
        let mut slices: Vec<f64> = Vec::new();
        let (mut slice_at, mut slice_base) = (started, 0u64);
        for (nth, send) in trace.sends.iter().enumerate() {
            let io = match send.source {
                Source::Flow(f) => &socks.injectors[f as usize],
                Source::Attacker(a) => &socks.attackers[a as usize],
            };
            msgs.clear();
            for i in trace.range(send) {
                let mut frame = socks.pool.checkout();
                frame.buf_mut().extend_from_slice(trace.bytes(i));
                msgs.push((relay_addr, frame));
            }
            let at = Instant::now();
            let sent = io.send_batch(&msgs).map_err(|e| format!("inject: {e}"))?;
            if sent != msgs.len() {
                return Err(format!("inject: sent {sent} of {}", msgs.len()));
            }
            for i in trace.range(send) {
                let kind = trace.dgrams[i].kind;
                injected[kind.index()] += 1;
                if let Source::Flow(f) = send.source {
                    if (f as usize) < PROBE_FLOWS && kind.is_legit() {
                        probe.sent[f as usize].push((i as u32, at));
                    }
                }
            }
            injected_total += sent as u64;
            if nth % 8 == 0 {
                probe.drain(trace, &socks.sinks);
            }
            let stalled = Instant::now();
            while injected_total.saturating_sub(consumed()) >= WINDOW {
                if stalled.elapsed() > Duration::from_secs(10) {
                    return Err(stall("draining", injected_total - consumed()));
                }
                probe.drain(trace, &socks.sinks);
                std::thread::sleep(Duration::from_micros(100));
            }
            if slice_at.elapsed() >= Duration::from_millis(100) {
                let done = consumed();
                slices.push((done - slice_base) as f64 / slice_at.elapsed().as_secs_f64());
                (slice_at, slice_base) = (Instant::now(), done);
            }
            if started.elapsed() >= duration {
                break;
            }
        }
        // Drain: every consumed datagram is forwarded or dropped, so the
        // repetition ends when forwards + drops reach the injected
        // count; `finished` is when that count was first seen.
        let settled = || Judged::read(&core, &io_now()).settled();
        let mut last = settled();
        let mut finished = Instant::now();
        while last < injected_total {
            let now_settled = settled();
            if now_settled != last {
                last = now_settled;
                finished = Instant::now();
            } else if finished.elapsed() > Duration::from_secs(10) {
                return Err(stall("settling", injected_total - last));
            }
            probe.drain(trace, &socks.sinks);
            std::thread::sleep(Duration::from_micros(50));
        }
        let elapsed_s = (finished - started).as_secs_f64();
        let all_tids = sys::new_tasks(&tasks_before, &sys::task_ids());
        let sut_cpu_ns = sys::tasks_cpu_ns(&all_tids).saturating_sub(cpu_before);
        let gen_cpu_ns = sys::current_tid()
            .and_then(sys::task_cpu_ns)
            .unwrap_or(0)
            .saturating_sub(gen_cpu_before);
        // Forwards still in flight to the probe sinks arrive within
        // microseconds on loopback; give them a bounded moment.
        let patience = Instant::now();
        while probe.outstanding() > 0 && patience.elapsed() < Duration::from_millis(200) {
            probe.drain(trace, &socks.sinks);
            std::thread::sleep(Duration::from_micros(200));
        }

        // --- read-out and checks ----------------------------------------
        let io = io_now();
        let got = Judged::read(&core, &io);
        let want = Judged::expected(&injected);
        let wire_bytes = metrics.bytes_in.load(Ordering::Relaxed)
            + metrics.bytes_out.load(Ordering::Relaxed)
            - base_bytes;
        let sut = SutInfo::live(&core, self.opts.pinned);
        relay.shutdown();

        let mut problems = Vec::new();
        if got != want {
            problems.push(format!("relay judged {got:?}, input calls for {want:?}"));
        }
        if io.datagrams_in != injected_total {
            problems.push(format!(
                "relay consumed {} of {injected_total} injected datagrams",
                io.datagrams_in
            ));
        }
        if probe.mismatched + probe.unexpected > 0 || probe.outstanding() > 0 {
            problems.push(format!(
                "probe sinks: {} forwards differ from what was injected, {} unexpected, {} missing",
                probe.mismatched,
                probe.unexpected,
                probe.outstanding()
            ));
        }
        let attacks: u64 = Kind::ATTACKS.iter().map(|k| injected[k.index()]).sum();
        let unconsumed = injected_total.saturating_sub(io.datagrams_in);
        probe.latency_us.sort_by(f64::total_cmp);
        let count = |n: u64| serde::Value::U64(n);
        let drops = |k: Kind| format!("drops.{}", k.label());
        let rep = Rep {
            setup_s,
            elapsed_s,
            verified: got.s2_verified,
            payload_bytes: got.s2_verified * PAYLOAD as u64,
            sut_cpu_ns,
            wire_bytes,
            latency_us: probe.latency_us,
            attempted: injected[Kind::LegitS2.index()] + attacks,
            failed: got.mismatches(&want) + unconsumed + probe.mismatched + probe.unexpected,
            problems,
            detail: vec![
                ("injected".to_owned(), count(injected_total)),
                ("forwarded".to_owned(), count(got.forwarded)),
                (drops(Kind::BadMac), count(got.bad_mac)),
                (drops(Kind::Unsolicited), count(got.unsolicited)),
                (drops(Kind::UnknownAssoc), count(got.unknown_assoc)),
                (drops(Kind::Garbage), count(got.parse_errors)),
                ("drops.other".to_owned(), count(got.other_drops)),
                ("attack_datagrams".to_owned(), count(attacks)),
                (
                    "attack_datagrams_forwarded".to_owned(),
                    count(got.forwarded.saturating_sub(want.forwarded)),
                ),
                (
                    "worker_util".to_owned(),
                    serde::Value::F64(sut_cpu_ns as f64 / 1e9 / elapsed_s.max(1e-9)),
                ),
                ("wait_calls".to_owned(), count(io.wait_calls)),
                ("send_calls".to_owned(), count(io.send_calls)),
                ("wakeups".to_owned(), count(io.wakeups)),
                ("gen_cpu_ns".to_owned(), count(gen_cpu_ns)),
                (
                    "datagrams_per_s".to_owned(),
                    serde::Value::F64(injected_total as f64 / elapsed_s.max(1e-9)),
                ),
                (
                    "datagrams_per_s_100ms_slices".to_owned(),
                    serde::Value::Array(
                        slices
                            .iter()
                            .map(|&r| serde::Value::F64(r.round()))
                            .collect(),
                    ),
                ),
            ],
        };
        Ok(Live {
            rep,
            consumed: io.datagrams_in,
            io,
            sut,
        })
    }

    /// The sends the traced passes replay: a prefix of the trace.
    fn slice(&self) -> &[gen::Send] {
        let limit = if self.opts.quick {
            TRACE_SLICE / 8
        } else {
            TRACE_SLICE
        };
        let mut dgrams = 0usize;
        let n = self
            .trace
            .sends
            .iter()
            .take_while(|s| {
                dgrams += s.count as usize;
                dgrams <= limit
            })
            .count();
        &self.trace.sends[..n.max(1)]
    }
}

/// Synthetic addresses for the in-process passes (no sockets there).
fn pass_addr(role: u8, i: usize) -> SocketAddr {
    SocketAddr::from((
        [10, role, (i >> 8) as u8, i as u8],
        40_000 + u16::from(role),
    ))
}

fn source_addr(source: Source) -> SocketAddr {
    match source {
        Source::Flow(f) => pass_addr(0, f as usize),
        Source::Attacker(a) => pass_addr(2, a as usize),
    }
}

/// Virtual time of the in-process passes: the live relay sees about one
/// datagram every 5 µs, and the relay's per-association S1 limiter
/// reads the clock.
fn pass_time(dgrams_before: usize) -> Timestamp {
    Timestamp::from_micros(1_000 + 5 * dgrams_before as u64)
}

/// Split and parse one datagram the way the engine's intake does.
/// Returns how many packets parsed (0 for a frame the decoder rejects).
fn parse_datagram<'a>(
    bytes: &'a [u8],
    views: &mut [Option<(PacketView<'a>, usize)>; alpha_wire::limits::MAX_BUNDLE],
) -> usize {
    let mut slices: [&[u8]; alpha_wire::limits::MAX_BUNDLE] = [&[]; alpha_wire::limits::MAX_BUNDLE];
    let Ok(n) = bundle::split(bytes, &mut slices) else {
        return 0;
    };
    for i in 0..n {
        match PacketView::parse(slices[i]) {
            Ok(v) => views[i] = Some((v, slices[i].len())),
            Err(_) => return 0,
        }
    }
    n
}

impl Workload for RelayWorkload {
    fn reps(&self) -> usize {
        if self.opts.quick {
            QUICK_REPS
        } else {
            REPS
        }
    }

    fn rep(&mut self, duration: Duration) -> Result<Rep, String> {
        let live = self.live(duration)?;
        self.sut = live.sut;
        Ok(live.rep)
    }

    fn traced(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let trace = &self.trace;
        let sends = self.slice();
        let dgrams: usize = sends.iter().map(|s| s.count as usize).sum();
        let legit_s2 = sends
            .iter()
            .flat_map(|s| trace.range(s))
            .filter(|&i| trace.dgrams[i].kind == Kind::LegitS2)
            .count();
        let bytes: usize = sends
            .iter()
            .flat_map(|s| trace.range(s))
            .map(|i| trace.bytes(i).len())
            .sum();
        let per_dgram = |ns: u64| ns as f64 / dgrams as f64;
        let mut rng = gen::stream_rng(self.opts.seed, 0x7ace);
        let prices = micro::prices(&mut rng, trace.shape.exchanges as u64 * 2 + 16);

        // P0 — wire: split + parse every datagram.
        let p0_root = tracer.push("pass.wire", 0, 0, None, 0);
        let mut p0_spans = Vec::with_capacity(sends.len());
        let mut p0_ns = 0u64;
        for (burst, send) in sends.iter().enumerate() {
            let ((), span) = tracer.span("wire.parse", Some(p0_root), burst as u64, || {
                for i in trace.range(send) {
                    let mut views = [None; alpha_wire::limits::MAX_BUNDLE];
                    std::hint::black_box(parse_datagram(trace.bytes(i), &mut views));
                    std::hint::black_box(&views);
                }
            });
            p0_ns += tracer.spans()[span].duration_ns();
            p0_spans.push(span);
        }

        // P1 — wire + core: parse, then `Relay::observe_view` on the
        // flow's relay state. Datagrams the engine judges before any
        // relay sees them (no route, parse error) stop at the parse.
        let relay_cfg = RelayConfig::default();
        let mut relays: Vec<Relay> = (0..trace.shape.flows)
            .map(|_| Relay::new(relay_cfg))
            .collect();
        for (relay, hs) in relays.iter_mut().zip(&trace.handshakes) {
            for frame in hs {
                let view = PacketView::parse(frame).map_err(|e| format!("handshake: {e:?}"))?;
                relay.observe_view(&view, frame.len(), Timestamp::ZERO);
            }
        }
        let p1_root = tracer.push("pass.core", 0, 0, None, 0);
        let mut p1_spans = Vec::with_capacity(sends.len());
        let (mut p1_ns, mut p1_verified, mut seen) = (0u64, 0usize, 0usize);
        let hashes = counting::Scope::start();
        for (burst, send) in sends.iter().enumerate() {
            let now = pass_time(seen);
            seen += send.count as usize;
            let (verified, span) = tracer.span("core.observe", Some(p1_root), burst as u64, || {
                let mut verified = 0usize;
                for i in trace.range(send) {
                    let mut views = [None; alpha_wire::limits::MAX_BUNDLE];
                    let n = parse_datagram(trace.bytes(i), &mut views);
                    let Source::Flow(flow) = send.source else {
                        continue;
                    };
                    for (view, len) in views[..n].iter().flatten() {
                        let (decision, outcome) =
                            relays[flow as usize].observe_view(view, *len, now);
                        verified += usize::from(outcome.verified_s2.is_some());
                        std::hint::black_box(decision == RelayDecision::Forward);
                    }
                }
                verified
            });
            p1_verified += verified;
            p1_ns += tracer.spans()[span].duration_ns();
            p1_spans.push(span);
        }
        let hashes = hashes.finish();
        if p1_verified != legit_s2 {
            return Err(format!(
                "core pass verified {p1_verified} of {legit_s2} legitimate S2s"
            ));
        }

        // P2 — the engine: `EngineCore::handle_datagrams`, a burst per
        // call as the worker feeds it; once with a span per call, once
        // bare for the tracing overhead.
        let engine_pass =
            |tracer: Option<(&mut Tracer, usize)>| -> Result<(u64, Vec<usize>, f64), String> {
                let core = learned_core(trace, |f| pass_addr(0, f), |f| pass_addr(1, f))?;
                let mut rng = StdRng::seed_from_u64(11);
                let pool_before = core.frame_pool().stats().fresh;
                let mut spans = Vec::new();
                let mut tracer = tracer;
                let mut seen = 0usize;
                let started = Instant::now();
                for (burst, send) in sends.iter().enumerate() {
                    let from = source_addr(send.source);
                    let now = pass_time(seen);
                    seen += send.count as usize;
                    let mut batch: [(SocketAddr, &[u8]); MAX_BATCH] = [(from, &[]); MAX_BATCH];
                    for (slot, i) in batch.iter_mut().zip(trace.range(send)) {
                        slot.1 = trace.bytes(i);
                    }
                    let batch = &batch[..send.count as usize];
                    match tracer.as_mut() {
                        Some((t, root)) => {
                            let ((), span) = t.span(
                                "engine.handle_datagrams",
                                Some(*root),
                                burst as u64,
                                || {
                                    drop(std::hint::black_box(
                                        core.handle_datagrams(batch, now, &mut rng),
                                    ));
                                },
                            );
                            spans.push(span);
                        }
                        None => drop(std::hint::black_box(
                            core.handle_datagrams(batch, now, &mut rng),
                        )),
                    }
                }
                let ns = started.elapsed().as_nanos() as u64;
                let verified = core.metrics().s2_verified.load(Ordering::Relaxed);
                if verified != legit_s2 as u64 {
                    return Err(format!(
                        "engine pass verified {verified} of {legit_s2} legitimate S2s"
                    ));
                }
                let misses = (core.frame_pool().stats().fresh - pool_before) as f64;
                Ok((ns, spans, misses))
            };
        let p2_root = tracer.push("pass.engine", 0, 0, None, 0);
        let (_, p2_spans, _) = engine_pass(Some((tracer, p2_root)))?;
        let p2_traced_ns: u64 = p2_spans
            .iter()
            .map(|&s| tracer.spans()[s].duration_ns())
            .sum();
        let (p2_ns, _, pool_misses) = engine_pass(None)?;
        // Counting slows the allocator, so allocations are counted on a
        // pass of their own.
        let (counted, allocs) = sys::count_allocs(|| engine_pass(None));
        counted?;

        // Nest the passes: for each burst, the wire span under the core
        // span under the engine span. Self times then fall out of the
        // ordinary span arithmetic.
        for ((&wire, &core_span), &engine) in p0_spans.iter().zip(&p1_spans).zip(&p2_spans) {
            tracer.adopt(engine, core_span);
            tracer.adopt(core_span, wire);
        }

        // Per-kind cost through the engine, a call per datagram (only the
        // flood mix has attack kinds to price).
        let mut kind_ns = [0f64; Kind::ALL.len()];
        let mut kind_n = [0u64; Kind::ALL.len()];
        if trace.shape.flood {
            let core = learned_core(trace, |f| pass_addr(0, f), |f| pass_addr(1, f))?;
            let mut rng = StdRng::seed_from_u64(11);
            let mut seen = 0usize;
            for send in sends {
                let from = source_addr(send.source);
                for i in trace.range(send) {
                    let now = pass_time(seen);
                    seen += 1;
                    let started = Instant::now();
                    drop(std::hint::black_box(core.handle_datagram(
                        from,
                        trace.bytes(i),
                        now,
                        &mut rng,
                    )));
                    let k = trace.dgrams[i].kind.index();
                    kind_ns[k] += started.elapsed().as_nanos() as f64;
                    kind_n[k] += 1;
                }
            }
        }
        let kind_cost = |k: Kind| {
            let n = kind_n[k.index()];
            if n == 0 {
                0.0
            } else {
                (kind_ns[k.index()] / n as f64 - prices.timer_ns).max(0.0)
            }
        };

        // P3 — the live relay's worker CPU per datagram.
        let cpu_per_dgram = |l: &Live| l.rep.sut_cpu_ns as f64 / l.consumed.max(1) as f64;
        let live = median_live(
            duration,
            |each| self.live(each),
            |l| &l.rep.problems,
            cpu_per_dgram,
        )?;
        let p3 = cpu_per_dgram(&live);
        self.sut = live.sut;

        let wire = per_dgram(p0_ns);
        let crypto = prices.hash().price(&hashes) / dgrams as f64;
        let core_self = (per_dgram(p1_ns) - wire - crypto).max(0.0);
        let engine = (per_dgram(p2_ns) - per_dgram(p1_ns)).max(0.0);
        let transport = p3 - per_dgram(p2_ns);
        let mut rows = price_rows(&prices);
        rows.extend(transport_rows(
            &live.io,
            &live.rep,
            p3,
            per_dgram(p2_ns),
            live.rep.detail_f64("injected") - live.consumed as f64,
        ));
        rows.extend([
            ("wire.self_ns_per_dgram", wire),
            ("wire.emit_ns_per_dgram", micro::emit_ns(PAYLOAD, 0)),
            ("wire.bytes_per_dgram", bytes as f64 / dgrams as f64),
            ("wire.pool_misses_per_dgram", pool_misses / dgrams as f64),
            (
                "crypto.hashes_per_msg",
                hashes.invocations as f64 / legit_s2.max(1) as f64,
            ),
            (
                "crypto.hash_bytes_per_msg",
                hashes.input_bytes as f64 / legit_s2.max(1) as f64,
            ),
            ("crypto.self_ns_per_dgram", crypto),
            ("core.self_ns_per_dgram", core_self),
            // A relay verifies; it signs nothing.
            (
                "core.verify_ns_per_msg",
                (p1_ns as f64 - p0_ns as f64).max(0.0) / legit_s2.max(1) as f64,
            ),
            ("engine.self_ns_per_dgram", engine),
            (
                "engine.allocs_per_dgram",
                allocs.allocs as f64 / dgrams as f64,
            ),
            ("engine.drop_ns.bad_mac", kind_cost(Kind::BadMac)),
            ("engine.drop_ns.unsolicited", kind_cost(Kind::Unsolicited)),
            (
                "engine.drop_ns.unknown_assoc",
                kind_cost(Kind::UnknownAssoc),
            ),
            ("engine.drop_ns.parse_error", kind_cost(Kind::Garbage)),
            (
                "trace.overhead_share",
                (p2_traced_ns as f64 - p2_ns as f64) / p2_ns.max(1) as f64,
            ),
            (
                "trace.ledger_sum_ns_per_dgram",
                wire + crypto + core_self + engine + transport,
            ),
        ]);
        // One relay core to price a handshake and an idle timer poll.
        let core = learned_core(trace, |f| pass_addr(0, f), |f| pass_addr(1, f))?;
        let mut poll_rng = StdRng::seed_from_u64(3);
        let idle = Timestamp::from_millis(2);
        rows.push((
            "engine.poll_ns_per_call",
            micro::time_ns(2_000, || drop(core.poll(idle, &mut poll_rng))),
        ));
        let hs_started = Instant::now();
        drop(learned_core(
            trace,
            |f| pass_addr(0, f),
            |f| pass_addr(1, f),
        )?);
        let hs_ns = hs_started.elapsed().as_nanos() as f64 / trace.handshakes.len() as f64;
        rows.push(("engine.handshake_ns", hs_ns));
        rows.push(("engine.handshakes_per_s", 1e9 / hs_ns.max(1.0)));
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

    fn quick_opts() -> RunOpts {
        RunOpts {
            seed: 5,
            seconds: 0.25,
            quick: true,
            pinned: false,
        }
    }

    #[test]
    fn expected_judgement_follows_the_injected_mix() {
        let mut injected = [0u64; Kind::ALL.len()];
        for (k, n) in Kind::ALL.iter().zip([10, 10, 2, 3, 4, 5]) {
            injected[k.index()] = n;
        }
        let want = Judged::expected(&injected);
        assert_eq!(want.forwarded, 20);
        assert_eq!(want.s2_verified, 10);
        assert_eq!(want.settled(), 34);
        assert_eq!(want.mismatches(&want), 0);
        let mut got = want;
        got.bad_mac -= 1; // one forged S2 not dropped as such
        got.forwarded += 1; // ... but forwarded
        assert_eq!(got.mismatches(&want), 2);
    }

    #[test]
    fn parse_datagram_counts_packets_and_rejects_garbage() {
        let t = gen::relay_trace(
            2,
            TraceShape {
                flows: 2,
                exchanges: 12,
                payload: PAYLOAD,
                flood: true,
            },
        );
        for (i, d) in t.dgrams.iter().enumerate() {
            let mut views = [None; alpha_wire::limits::MAX_BUNDLE];
            let n = parse_datagram(t.bytes(i), &mut views);
            assert_eq!(n, usize::from(d.kind != Kind::Garbage));
            if d.kind == Kind::LegitS2 {
                let (view, len) = views[0].as_ref().expect("parsed");
                assert_eq!(*len, t.bytes(i).len());
                match &view.body {
                    alpha_wire::BodyView::S2 { payload, .. } => assert_eq!(payload.len(), PAYLOAD),
                    other => panic!("legitimate S2 parsed as {other:?}"),
                }
            }
        }
    }

    /// A short live flood repetition end to end: every legitimate S2
    /// verifies, every attack class is dropped under its own reason,
    /// the probe sinks see byte-identical forwards.
    #[test]
    fn live_flood_repetition_is_correct() {
        let mut w = RelayWorkload::new(&quick_opts(), true).expect("workload");
        let rep = w.rep(Duration::from_millis(50)).expect("live repetition");
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(rep.failed, 0);
        assert!(rep.verified > 0 && rep.attempted > rep.verified);
        assert!(!rep.latency_us.is_empty());
        assert!(rep.detail_f64("drops.bad_mac") > 0.0);
        assert_eq!(w.sut().link, "loopback");
    }
}
