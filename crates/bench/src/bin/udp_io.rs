//! UDP I/O bench — aggregate relayed datagrams/s of the relay engine
//! over real loopback sockets: the `mmsg` rung (batched sockets, epoll
//! wait) vs the portable rung (`recv_from`, blocking wait), at 1/2/4/8
//! workers. Each run also reports `syscalls_per_datagram` (recv + send
//! + wait kernel entries over datagrams moved).
//!
//! Methodology (loaded-queue, flow-controlled): per flow, a full
//! association is bootstrapped out-of-band and its client-direction
//! exchange datagrams (S1 then S2, Base mode) are pre-generated. The
//! handshake is fed straight into the engine core (unmeasured, no
//! sockets), then the measured region injects the exchange datagrams
//! into the engine's real socket(s) from per-flow injector sockets,
//! keeping a bounded number in flight so the kernel receive queue stays
//! loaded — every `recvmmsg` sees a full backlog — but never overflows
//! (no receive-queue loss, every run relays the same datagrams).
//! Forwards land on per-flow sink sockets that are never read; the
//! relayed count and syscall tallies come from the engine's own
//! per-worker I/O counters. Injection always uses the batched sender so
//! injector overhead is identical across configurations. Every
//! measurement is the best of [`ATTEMPTS`] runs (the host is a shared
//! virtualized core with heavy steal-time jitter).
//!
//! Two execution models, mirroring BENCH_engine_scaling.json's
//! share-nothing makespan methodology on single-core hosts:
//!
//! - **wall-clock**: the configuration runs exactly as deployed and the
//!   aggregate rate is relayed/elapsed. Used for the shared-socket
//!   fallback at every worker count (its syscalls serialize on one
//!   socket by construction — that serialization *is* the baseline
//!   being measured) and for single-worker mmsg.
//! - **share-nothing makespan**: per-worker `SO_REUSEPORT` sockets make
//!   multi-worker mmsg a share-nothing system — kernel RSS pins each
//!   flow to one member socket and worker, so workers touch disjoint
//!   flows, sockets, and shards. On a host with fewer cores than
//!   workers the concurrent run measures timeslicing, not the
//!   deployment, so each worker's slice (its flows through its own
//!   single-worker engine socket) is timed *sequentially* and the
//!   aggregate is total relayed / max(per-worker time), exactly like
//!   the engine_scaling bench. The concurrent reuseport path itself is
//!   exercised by the transport tests and the backend-equivalence test;
//!   this bench scores it.
//!
//! The host core count and each run's model are recorded in the JSON so
//! nobody misreads the numbers.
//!
//! Output: a table on stdout and `BENCH_udp_io.json`. `--quick` runs a
//! reduced trace as a CI smoke test (same JSON, throughput assertions
//! skipped — the quick trace is too short to time honestly).

use std::fmt::Write as _;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alpha_bench::table;
use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore, IoWorker};
use alpha_transport::io::{self, MAX_BATCH};
use alpha_transport::{Engine, UdpBackend, UdpIo};
use alpha_wire::FramePool;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shards per engine, one deployment constant across worker counts.
const SHARDS: usize = 64;
/// Most datagrams allowed in flight between injector and engine. The
/// engine requests 4 MiB receive buffers per worker socket; a full
/// window of these small frames fits a single socket even at the
/// kernel's per-datagram bookkeeping overhead (~1 KiB truesize each),
/// so nothing is ever shed at the receive queue, and the injector's
/// coarse 100 µs flow-control naps never let the workers run dry.
const WINDOW: u64 = 1024;
/// Measurements per configuration; the best (shortest) is kept.
const ATTEMPTS: usize = 2;

/// One flow's pre-generated traffic: handshake datagrams (fed to the
/// core directly, unmeasured) and the client-direction exchange
/// datagrams injected through the socket in the measured region.
struct FlowTraffic {
    handshake: [Vec<u8>; 2],
    frames: Vec<Vec<u8>>,
}

fn generate_flow(i: usize, cfg: Config, exchanges: usize) -> FlowTraffic {
    let mut rng = StdRng::seed_from_u64(0x10aded + i as u64);
    let payload = format!("udp_io flow {i} payload").into_bytes();

    let (hs, hs1) = bootstrap::initiate(cfg, i as u64, None, &mut rng);
    let (mut server, hs2, _) = bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng)
        .expect("bootstrap respond");
    let (mut client, _) = hs
        .complete(&hs2, AuthRequirement::None)
        .expect("bootstrap complete");
    let handshake = [hs1.emit(), hs2.emit()];

    // Full Base-mode ping-pong locally; only the client-sourced
    // datagrams (S1, S2) are injected. The relay verifies S2 against the
    // S1 pre-signature alone, so the reverse direction can stay silent.
    let mut frames = Vec::with_capacity(2 * exchanges);
    for x in 0..exchanges {
        let now = Timestamp::from_millis(10 + x as u64);
        let mut from_client = true;
        let mut pkt = Some(client.sign(&payload, now).expect("sign"));
        while let Some(p) = pkt {
            if from_client {
                frames.push(p.emit());
            }
            let handler = if from_client {
                &mut server
            } else {
                &mut client
            };
            pkt = handler.handle(&p, now, &mut rng).expect("handle").packet();
            from_client = !from_client;
        }
    }
    FlowTraffic { handshake, frames }
}

/// One timed injection run (one engine, however many workers).
struct Measured {
    relayed: u64,
    drops: u64,
    elapsed_secs: f64,
    recv_calls: u64,
    send_calls: u64,
    wait_calls: u64,
    s2_verified: u64,
    injected: u64,
    per_worker_sockets: bool,
    /// Times two workers met in one shard (`lock_contended`).
    lock_contended: u64,
}

/// A scored configuration for the table/JSON.
struct RunResult {
    backend: UdpBackend,
    workers: usize,
    per_worker_sockets: bool,
    model: &'static str,
    relayed: u64,
    drops: u64,
    elapsed_secs: f64,
    relayed_per_sec: f64,
    recv_calls: u64,
    send_calls: u64,
    wait_calls: u64,
    datagrams_per_recv: f64,
    syscalls_per_datagram: f64,
    s2_verified: u64,
    lock_contended: u64,
    per_worker_secs: Vec<f64>,
}

/// `recv + send + wait` kernel entries over datagrams moved (in +
/// out).
fn syscalls_per_datagram(recv: u64, send: u64, wait: u64, datagrams: u64) -> f64 {
    if datagrams == 0 {
        return 0.0;
    }
    (recv + send + wait) as f64 / datagrams as f64
}

/// Datagrams per receive syscall.
fn datagrams_per_recv(injected: u64, recv: u64) -> f64 {
    if recv == 0 {
        return 0.0;
    }
    injected as f64 / recv as f64
}

fn run_measured(
    traffic: &[&FlowTraffic],
    backend: UdpBackend,
    workers: usize,
    cfg: Config,
) -> Measured {
    io::force(backend).expect("backend supported");
    let flows = traffic.len();

    // Fresh endpoint sockets per run: per-flow injectors (the relay's
    // notion of the client) and per-flow sinks that are never read —
    // loopback silently drops at a full destination queue, which cannot
    // stall or skew the relay under measurement.
    let bind = |_: usize| UdpSocket::bind("127.0.0.1:0").expect("bind endpoint");
    let injectors: Vec<_> = (0..flows).map(bind).collect();
    let sinks: Vec<_> = (0..flows).map(bind).collect();

    // The S1 buffering budget is an admission policy, not I/O; left on
    // it would throttle whichever backend drains the queue faster.
    let mut ecfg = EngineConfig::new(cfg)
        .with_shards(SHARDS)
        .with_s1_budget(None);
    ecfg.accept_handshakes = false;
    let core = EngineCore::new(ecfg);
    let mut rng = StdRng::seed_from_u64(7);
    let t0 = Timestamp::from_millis(1);
    for (i, t) in traffic.iter().enumerate() {
        let client = injectors[i].local_addr().unwrap();
        let sink = sinks[i].local_addr().unwrap();
        core.add_route(client, sink);
        // Unmeasured: the relay learns the association from the
        // handshake without any socket traffic.
        core.handle_datagram(client, &t.handshake[0], t0, &mut rng);
        core.handle_datagram(sink, &t.handshake[1], t0, &mut rng);
    }

    let relay = Engine::bind("127.0.0.1:0", core, workers).expect("relay bind");
    let relay_addr = relay.local_addr().unwrap();
    let per_worker_sockets = relay.per_worker_sockets();
    let core = relay.core().clone();
    let metrics = core.metrics();
    let base = metrics.io.totals();
    let base_drops = metrics.total_drops();
    let processed = || metrics.io.totals().datagrams_in - base.datagrams_in;

    // Injection always batches (explicit backend, independent of the
    // process-wide force) so its syscall cost is a constant across runs.
    let inject_backend = if UdpBackend::Mmsg.is_supported() {
        UdpBackend::Mmsg
    } else {
        UdpBackend::Fallback
    };
    let inject_pool = FramePool::new(2048, 2 * MAX_BATCH);
    let inject_ios: Vec<UdpIo> = injectors
        .into_iter()
        .map(|s| UdpIo::with_backend(s, inject_backend, Arc::new(IoWorker::default())))
        .collect();

    // Measured region: round-robin blocks of exchanges across flows,
    // one batched send per (flow, block), window-limited in flight.
    let block_frames = MAX_BATCH;
    let max_frames = traffic.iter().map(|t| t.frames.len()).max().unwrap_or(0);
    let mut injected = 0u64;
    let started = Instant::now();
    let mut stalled;
    for lo in (0..max_frames).step_by(block_frames) {
        for (i, t) in traffic.iter().enumerate() {
            let hi = (lo + block_frames).min(t.frames.len());
            if lo >= hi {
                continue;
            }
            let msgs: Vec<(SocketAddr, alpha_wire::Frame)> = t.frames[lo..hi]
                .iter()
                .map(|bytes| {
                    let mut f = inject_pool.checkout();
                    f.buf_mut().extend_from_slice(bytes);
                    (relay_addr, f)
                })
                .collect();
            let sent = inject_ios[i].send_batch(&msgs).expect("inject send");
            injected += sent as u64;
            stalled = Instant::now();
            while injected.saturating_sub(processed()) >= WINDOW {
                assert!(
                    stalled.elapsed() < Duration::from_secs(10),
                    "engine stopped draining with {} datagrams in flight",
                    injected - processed()
                );
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
    // Drain: every consumed datagram either forwards or is dropped by
    // relay policy (a shared socket drained by several workers does not
    // preserve per-flow FIFO, so a reordered S2 can land unsolicited),
    // so the run ends when forwards + drops reach the injected count —
    // watching the input counter would race the final batch's dispatch.
    // `finished` is the instant the final count was first observed.
    let settled = || {
        metrics.io.totals().datagrams_out - base.datagrams_out + metrics.total_drops() - base_drops
    };
    let mut last = settled();
    let mut finished = Instant::now();
    loop {
        let s = settled();
        if s != last {
            last = s;
            finished = Instant::now();
        }
        if s >= injected {
            break;
        }
        assert!(
            finished.elapsed() < Duration::from_secs(10),
            "engine stalled at {s}/{injected} settled datagrams\n{}",
            metrics.to_json()
        );
        std::thread::sleep(Duration::from_micros(100));
    }
    let elapsed = (finished - started).as_secs_f64();

    let totals = metrics.io.totals();
    let s2_verified = metrics.s2_verified.load(Ordering::Relaxed);
    let drops = metrics.total_drops() - base_drops;
    let lock_contended = core.lock_contended();
    relay.shutdown();

    assert_eq!(
        processed(),
        injected,
        "every injected datagram must be consumed"
    );
    Measured {
        relayed: totals.datagrams_out - base.datagrams_out,
        drops,
        elapsed_secs: elapsed,
        recv_calls: totals.recv_calls - base.recv_calls,
        send_calls: totals.send_calls - base.send_calls,
        wait_calls: totals.wait_calls - base.wait_calls,
        s2_verified,
        injected,
        per_worker_sockets,
        lock_contended,
    }
}

/// Best-of-[`ATTEMPTS`] wrapper: rerun the same measurement and keep
/// the fastest (identical work each time; the host's steal-time spikes
/// only ever slow a run down).
fn best_measured(
    traffic: &[&FlowTraffic],
    backend: UdpBackend,
    workers: usize,
    cfg: Config,
) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..ATTEMPTS {
        let m = run_measured(traffic, backend, workers, cfg);
        if best
            .as_ref()
            .is_none_or(|b| m.elapsed_secs < b.elapsed_secs)
        {
            best = Some(m);
        }
    }
    best.expect("at least one attempt")
}

/// Check exchange-level correctness of a measured run: single-worker
/// (or per-worker-socket) runs preserve per-flow FIFO, so every
/// exchange must verify; several workers draining one shared socket can
/// reorder a flow's S1/S2 and shed the odd unsolicited packet, so those
/// runs are held to a near-complete floor instead.
fn check_verified(m: &Measured, exchanges_total: u64, fifo: bool, label: &str) {
    if fifo {
        assert_eq!(
            m.s2_verified, exchanges_total,
            "every exchange must verify at the relay ({label})"
        );
    } else {
        assert!(
            m.s2_verified * 100 >= exchanges_total * 95,
            "shared-socket run verified too little ({label}): {}/{}",
            m.s2_verified,
            exchanges_total
        );
    }
}

/// Wall-clock model: the configuration as deployed, aggregate =
/// relayed/elapsed.
fn run_wall_clock(
    traffic: &[FlowTraffic],
    backend: UdpBackend,
    workers: usize,
    cfg: Config,
) -> RunResult {
    let subset: Vec<&FlowTraffic> = traffic.iter().collect();
    let m = best_measured(&subset, backend, workers, cfg);
    let exchanges_total: u64 = traffic.iter().map(|t| t.frames.len() as u64 / 2).sum();
    check_verified(
        &m,
        exchanges_total,
        workers == 1 || m.per_worker_sockets,
        &format!("{}/{workers} workers, wall-clock", backend.name()),
    );
    RunResult {
        backend,
        workers,
        per_worker_sockets: m.per_worker_sockets,
        model: "wall-clock",
        relayed: m.relayed,
        drops: m.drops,
        elapsed_secs: m.elapsed_secs,
        relayed_per_sec: m.relayed as f64 / m.elapsed_secs,
        recv_calls: m.recv_calls,
        send_calls: m.send_calls,
        wait_calls: m.wait_calls,
        datagrams_per_recv: datagrams_per_recv(m.injected, m.recv_calls),
        syscalls_per_datagram: syscalls_per_datagram(
            m.recv_calls,
            m.send_calls,
            m.wait_calls,
            m.injected + m.relayed,
        ),
        s2_verified: m.s2_verified,
        lock_contended: m.lock_contended,
        per_worker_secs: vec![m.elapsed_secs],
    }
}

/// Share-nothing makespan model for per-worker `SO_REUSEPORT` sockets:
/// kernel RSS pins each flow to one member socket/worker, so worker
/// slices are independent. Time each slice sequentially (its flows
/// through its own single-worker engine socket) and aggregate as total
/// relayed / slowest slice — the engine_scaling methodology.
fn run_share_nothing(
    traffic: &[FlowTraffic],
    backend: UdpBackend,
    workers: usize,
    cfg: Config,
) -> RunResult {
    let mut total_relayed = 0u64;
    let mut total_drops = 0u64;
    let mut total_recv = 0u64;
    let mut total_send = 0u64;
    let mut total_wait = 0u64;
    let mut total_s2 = 0u64;
    let mut total_injected = 0u64;
    let mut total_contended = 0u64;
    let mut per_worker_secs = Vec::with_capacity(workers);
    for w in 0..workers {
        let slice: Vec<&FlowTraffic> = traffic
            .iter()
            .enumerate()
            .filter(|(i, _)| i % workers == w)
            .map(|(_, t)| t)
            .collect();
        if slice.is_empty() {
            per_worker_secs.push(0.0);
            continue;
        }
        let m = best_measured(&slice, backend, 1, cfg);
        let exchanges: u64 = slice.iter().map(|t| t.frames.len() as u64 / 2).sum();
        check_verified(
            &m,
            exchanges,
            true,
            &format!("{}/{workers} workers, slice {w}", backend.name()),
        );
        total_relayed += m.relayed;
        total_drops += m.drops;
        total_recv += m.recv_calls;
        total_send += m.send_calls;
        total_wait += m.wait_calls;
        total_s2 += m.s2_verified;
        total_injected += m.injected;
        total_contended += m.lock_contended;
        per_worker_secs.push(m.elapsed_secs);
    }
    let makespan = per_worker_secs.iter().copied().fold(0.0f64, f64::max);
    RunResult {
        backend,
        workers,
        per_worker_sockets: true,
        model: "share-nothing makespan",
        relayed: total_relayed,
        drops: total_drops,
        elapsed_secs: makespan,
        relayed_per_sec: total_relayed as f64 / makespan,
        recv_calls: total_recv,
        send_calls: total_send,
        wait_calls: total_wait,
        datagrams_per_recv: datagrams_per_recv(total_injected, total_recv),
        syscalls_per_datagram: syscalls_per_datagram(
            total_recv,
            total_send,
            total_wait,
            total_injected + total_relayed,
        ),
        s2_verified: total_s2,
        lock_contended: total_contended,
        per_worker_secs,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (flows, exchanges) = if quick { (8, 16) } else { (64, 192) };
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(2 * exchanges as u64 + 16);

    let traffic: Vec<FlowTraffic> = (0..flows)
        .map(|i| generate_flow(i, cfg, exchanges))
        .collect();
    let datagrams: usize = traffic.iter().map(|t| t.frames.len()).sum();

    let mut backends = vec![UdpBackend::Fallback];
    if UdpBackend::Mmsg.is_supported() {
        backends.push(UdpBackend::Mmsg);
    }

    // Live (wall-clock concurrent) reuseport runs are bounded by what
    // the host can meaningfully parallelize; beyond that they measure
    // timeslicing. Always include 2 workers so the live path itself is
    // exercised end-to-end even on one core.
    let live_cap = alpha_bench::host_cores().max(2);
    println!(
        "live reuseport runs up to {live_cap} workers (host has {} core(s)); \
         larger counts are makespan-only",
        alpha_bench::host_cores()
    );

    let mut results: Vec<RunResult> = Vec::new();
    let mut rows = Vec::new();
    for &backend in &backends {
        for &workers in &WORKER_COUNTS {
            // The fallback shares one socket at every worker count (its
            // serialized syscalls are the baseline under test), so it is
            // always measured wall-clock. Multi-worker mmsg deploys
            // per-worker reuseport sockets — share-nothing, scored by
            // sequential per-worker timing on single-core hosts, *and*
            // additionally run live (all worker threads concurrent over
            // their own reuseport sockets) up to `live_cap` workers so
            // the JSON records both the makespan projection and a true
            // thread-parallel measurement.
            let mut runs = Vec::new();
            if backend == UdpBackend::Mmsg && workers > 1 {
                runs.push(run_share_nothing(&traffic, backend, workers, cfg));
                if workers <= live_cap {
                    runs.push(run_wall_clock(&traffic, backend, workers, cfg));
                }
            } else {
                runs.push(run_wall_clock(&traffic, backend, workers, cfg));
            }
            for r in runs {
                rows.push(vec![
                    backend.name().to_string(),
                    workers.to_string(),
                    if r.per_worker_sockets { "yes" } else { "no" }.to_string(),
                    r.model.to_string(),
                    r.relayed.to_string(),
                    r.drops.to_string(),
                    format!("{:.1}", r.elapsed_secs * 1e3),
                    format!("{:.0}", r.relayed_per_sec),
                    format!("{:.1}", r.datagrams_per_recv),
                    format!("{:.4}", r.syscalls_per_datagram),
                    r.lock_contended.to_string(),
                ]);
                results.push(r);
            }
        }
    }

    table::print(
        "UDP I/O — loopback relay forwarding: mmsg vs recv_from fallback",
        &[
            "backend",
            "workers",
            "reuseport",
            "model",
            "relayed",
            "drops",
            "ms",
            "dgrams/s",
            "dgrams/recv",
            "sys/dgram",
            "contended",
        ],
        &rows,
    );

    let max_workers = *WORKER_COUNTS.last().unwrap();
    let tput = |b: UdpBackend| {
        results
            .iter()
            .find(|r| r.backend == b && r.workers == max_workers)
            .map(|r| r.relayed_per_sec)
            .unwrap_or(0.0)
    };
    let sys_per_dgram = |b: UdpBackend| {
        results
            .iter()
            .find(|r| r.backend == b && r.workers == max_workers)
            .map(|r| r.syscalls_per_datagram)
            .unwrap_or(0.0)
    };
    let mmsg_supported = UdpBackend::Mmsg.is_supported();
    let ratio = if mmsg_supported {
        tput(UdpBackend::Mmsg) / tput(UdpBackend::Fallback)
    } else {
        0.0
    };
    let batch_depth = results
        .iter()
        .find(|r| r.backend == UdpBackend::Mmsg && r.workers == max_workers)
        .map(|r| r.datagrams_per_recv)
        .unwrap_or(0.0);
    if mmsg_supported {
        println!(
            "\n{max_workers} workers: {:.0} dgrams/s shared-socket fallback (wall-clock) -> \
             {:.0} dgrams/s mmsg+reuseport (share-nothing makespan): {ratio:.2}x, \
             {batch_depth:.1} datagrams per recvmmsg",
            tput(UdpBackend::Fallback),
            tput(UdpBackend::Mmsg)
        );
    }
    println!(
        "host cores: {} (reuseport configs scored by sequential per-worker timing, \
         like engine_scaling)",
        alpha_bench::host_cores()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"udp_io\",");
    let _ = writeln!(
        json,
        "  \"model\": \"loaded-queue loopback relay, flow-controlled injection; \
         shared-socket fallback wall-clock, reuseport share-nothing makespan \
         (sequential per-worker timing)\","
    );
    let _ = writeln!(
        json,
        "  {},",
        alpha_bench::runtime_fields("model", max_workers)
    );
    let _ = writeln!(
        json,
        "  \"digest_backend\": \"{}\",",
        alpha_crypto::backend::active().name()
    );
    let _ = writeln!(json, "  \"udp_backend\": \"{}\",", io::active().name());
    let _ = writeln!(
        json,
        "  \"chain_storage\": \"{}\",",
        alpha_engine::chainstore::name(cfg.chain_storage)
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"flows\": {flows},");
    let _ = writeln!(json, "  \"exchanges_per_flow\": {exchanges},");
    let _ = writeln!(json, "  \"datagrams_per_run\": {datagrams},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"window\": {WINDOW},");
    let _ = writeln!(json, "  \"attempts\": {ATTEMPTS},");
    let _ = writeln!(
        json,
        "  \"mmsg_vs_fallback_at_{max_workers}_workers\": {ratio:.4},"
    );
    let _ = writeln!(
        json,
        "  \"datagrams_per_recvmmsg_at_{max_workers}_workers\": {batch_depth:.4},"
    );
    let _ = writeln!(
        json,
        "  \"syscalls_per_datagram_at_{max_workers}_workers\": {{\"fallback\": {:.4}, \
         \"mmsg\": {:.4}}},",
        sys_per_dgram(UdpBackend::Fallback),
        sys_per_dgram(UdpBackend::Mmsg),
    );
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        let secs = r
            .per_worker_secs
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"workers\": {}, \"per_worker_sockets\": {}, \
             \"model\": \"{}\", \"runtime_mode\": \"{}\", \
             \"relayed\": {}, \"drops\": {}, \"elapsed_secs\": {:.6}, \
             \"relayed_per_sec\": {:.1}, \
             \"recv_calls\": {}, \"send_calls\": {}, \"wait_calls\": {}, \
             \"datagrams_per_recv\": {:.3}, \"syscalls_per_datagram\": {:.4}, \
             \"s2_verified\": {}, \"lock_contended\": {}, \"per_worker_secs\": [{secs}]}}{}",
            r.backend.name(),
            r.workers,
            r.per_worker_sockets,
            r.model,
            if r.model == "wall-clock" {
                "live"
            } else {
                "model"
            },
            r.relayed,
            r.drops,
            r.elapsed_secs,
            r.relayed_per_sec,
            r.recv_calls,
            r.send_calls,
            r.wait_calls,
            r.datagrams_per_recv,
            r.syscalls_per_datagram,
            r.s2_verified,
            r.lock_contended,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    alpha_bench::write_artefact("BENCH_udp_io.json", &json);

    if !quick && mmsg_supported {
        assert!(
            ratio >= 2.0,
            "mmsg must relay >=2x the aggregate datagrams/s of the single-socket \
             fallback at {max_workers} workers, got {ratio:.2}x"
        );
        assert!(
            batch_depth > 4.0,
            "recvmmsg must average >4 datagrams per syscall under load, got {batch_depth:.1}"
        );
    }
}
