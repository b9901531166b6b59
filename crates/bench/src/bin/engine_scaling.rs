//! Engine scaling — aggregate S2-verify throughput of the sharded
//! multi-flow relay engine as flows grow 1 → 4096 and workers 1 → 8.
//!
//! Methodology (honest on any core count): the engine's workers share
//! nothing — each owns a disjoint set of shards and flows land on shards
//! by stable address hashing — so a W-worker deployment is W independent
//! single-threaded engines over a partition of the flows. We therefore
//! time each worker's partition **sequentially** on one core and model
//! the W-worker wall clock as the makespan (the slowest partition),
//! which is exactly what a W-core host achieves for a share-nothing
//! workload. The host's actual core count is recorded in the output so
//! nobody mistakes the projection for a measured multicore run.
//!
//! For every flow a full wire-level association is bootstrapped and M
//! exchanges are pre-generated (client S1 → relay → server A1 → relay →
//! client S2 → relay, Base mode); the measured region is the relay
//! engine ingesting those datagrams — buffering pre-signatures,
//! verifying S2s in transit, forwarding. Per-flow isolation is asserted:
//! every flow's payloads, and only them, verify on that flow.
//!
//! Output: a table on stdout and `BENCH_engine_scaling.json` in the
//! working directory. The JSON carries two sections: the makespan-model
//! sweep above (`runtime_mode: "model"`) and a `live` section measured
//! by the saturation load generator — real sender threads driving a
//! real multi-worker engine over loopback sockets (`runtime_mode:
//! "live"`), with `host_cores` recorded so nobody reads a parallel
//! speedup off a single-core host. `--quick` shrinks the sweep for CI
//! and skips the model-scaling assertions. The live ratio at
//! min(host_cores, 4) workers is printed and recorded, not asserted: the
//! load generator is a closed loop, so it measures round-trip latency,
//! not what the workers could carry.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use alpha_bench::table;
use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore, ShardAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exchanges pre-generated per flow.
const EXCHANGES: usize = 4;
/// Shards per engine: one deployment constant for every worker count.
const SHARDS: usize = 64;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const FLOW_COUNTS: [usize; 5] = [1, 16, 256, 1024, 4096];

/// One flow's pre-generated traffic: addresses, the handshake frames
/// (setup, unmeasured) and the exchange frames (measured), each tagged
/// with the address it is sent *from*.
struct FlowTraffic {
    client: SocketAddr,
    server: SocketAddr,
    handshake: Vec<(SocketAddr, Vec<u8>)>,
    frames: Vec<(SocketAddr, Vec<u8>)>,
    payload: Vec<u8>,
}

fn flow_addrs(i: usize) -> (SocketAddr, SocketAddr) {
    // Distinct loopback-ish addresses per flow; ports keep the pair apart.
    let ip = [10u8, (i >> 16) as u8, (i >> 8) as u8, i as u8];
    (
        SocketAddr::from((ip, 40_000)),
        SocketAddr::from((ip, 50_000)),
    )
}

fn generate_flow(i: usize, cfg: Config) -> FlowTraffic {
    let (client_addr, server_addr) = flow_addrs(i);
    let mut rng = StdRng::seed_from_u64(0x5ca1e + i as u64);
    let assoc_id = i as u64;
    let payload = format!("flow {i} payload").into_bytes();

    let (hs, hs1) = bootstrap::initiate(cfg, assoc_id, None, &mut rng);
    let (mut server, hs2, _) = bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng)
        .expect("bootstrap respond");
    let (mut client, _) = hs
        .complete(&hs2, AuthRequirement::None)
        .expect("bootstrap complete");
    let handshake = vec![(client_addr, hs1.emit()), (server_addr, hs2.emit())];

    let mut frames = Vec::new();
    for x in 0..EXCHANGES {
        let now = Timestamp::from_millis(10 + x as u64);
        // Record the full S1/A1/S2(/A2) ping-pong in wire order.
        let mut from_client = true;
        let mut pkt = Some(client.sign(&payload, now).expect("sign"));
        while let Some(p) = pkt {
            let from = if from_client {
                client_addr
            } else {
                server_addr
            };
            frames.push((from, p.emit()));
            let handler = if from_client {
                &mut server
            } else {
                &mut client
            };
            pkt = handler.handle(&p, now, &mut rng).expect("handle").packet();
            from_client = !from_client;
        }
    }
    FlowTraffic {
        client: client_addr,
        server: server_addr,
        handshake,
        frames,
        payload,
    }
}

struct RunResult {
    flows: usize,
    workers: usize,
    verified: u64,
    makespan_secs: f64,
    per_worker_secs: Vec<f64>,
    aggregate_per_sec: f64,
}

/// Run one (flows, workers) configuration: partition flows across W
/// fresh engine cores the way the threaded engine does (by source-address
/// shard), feed each partition, and time each worker's measured region.
fn run_config(traffic: &[FlowTraffic], workers: usize, cfg: Config) -> RunResult {
    let mut rng = StdRng::seed_from_u64(99);
    // One core per worker; identical shard layout in each.
    let cores: Vec<EngineCore> = (0..workers)
        .map(|_| {
            let mut ecfg = EngineConfig::new(cfg).with_shards(SHARDS);
            ecfg.accept_handshakes = false;
            EngineCore::new(ecfg)
        })
        .collect();
    // Partition flows the way the threaded front end demuxes datagrams:
    // by shard of the source address. Shards are placed on workers with
    // the least-loaded (LPT greedy) assignment over per-shard flow
    // counts — the load-oblivious `shard % workers` mapping regressed at
    // 8 workers/1024 flows (0.49M S2/s vs 0.61M at 4 workers) because a
    // few hot shards landed on the same worker while others idled.
    let mut shard_of_flow = Vec::with_capacity(traffic.len());
    let mut loads = vec![0u64; SHARDS];
    for t in traffic {
        cores[0].add_route(t.client, t.server); // resolve shard via route
        let shard = cores[0].shard_of_source(t.client);
        loads[shard] += 1;
        shard_of_flow.push(shard);
    }
    let assignment = ShardAssignment::least_loaded(&loads, workers);
    let mut partitions: Vec<Vec<&FlowTraffic>> = vec![Vec::new(); workers];
    for (t, &shard) in traffic.iter().zip(&shard_of_flow) {
        partitions[assignment.worker_of(shard)].push(t);
    }
    for (w, part) in partitions.iter().enumerate() {
        for t in part {
            cores[w].add_route(t.client, t.server);
        }
    }

    // Unmeasured setup: the relay observes every flow's handshake.
    for (w, part) in partitions.iter().enumerate() {
        for t in part {
            for (from, bytes) in &t.handshake {
                cores[w].handle_datagram(*from, bytes, Timestamp::from_millis(1), &mut rng);
            }
        }
    }

    // Measured region, one worker at a time (share-nothing makespan
    // model — see module docs). Frames interleave across the worker's
    // flows to keep many flows simultaneously mid-exchange.
    let mut verified: HashMap<u64, u64> = HashMap::new();
    let mut per_worker_secs = Vec::with_capacity(workers);
    for (w, part) in partitions.iter().enumerate() {
        let max_frames = part.iter().map(|t| t.frames.len()).max().unwrap_or(0);
        let started = Instant::now();
        for idx in 0..max_frames {
            for t in part {
                let Some((from, bytes)) = t.frames.get(idx) else {
                    continue;
                };
                let now = Timestamp::from_millis(100 + idx as u64);
                let out = cores[w].handle_datagram(*from, bytes, now, &mut rng);
                for (assoc_id, payload) in out.extracted.iter() {
                    assert_eq!(payload, &t.payload, "cross-flow payload bleed");
                    *verified.entry(assoc_id).or_default() += 1;
                }
            }
        }
        per_worker_secs.push(started.elapsed().as_secs_f64());
    }

    // Per-flow isolation: every flow verified exactly its own payloads.
    for (i, t) in traffic.iter().enumerate() {
        assert_eq!(
            verified.get(&(i as u64)).copied().unwrap_or(0),
            EXCHANGES as u64,
            "flow {i} ({}) must verify exactly {EXCHANGES} payloads",
            t.client
        );
    }
    let total: u64 = verified.values().sum();
    let makespan = per_worker_secs
        .iter()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    RunResult {
        flows: traffic.len(),
        workers,
        verified: total,
        makespan_secs: makespan,
        per_worker_secs,
        aggregate_per_sec: total as f64 / makespan,
    }
}

/// One live (thread-parallel, real loopback sockets) measurement per
/// worker count, via the saturation load generator.
struct LiveRun {
    report: alpha_transport::loadgen::LoadgenReport,
}

/// Drive the live engine through `alpha_transport::loadgen` at each
/// worker count: N real sender threads saturating a real multi-worker
/// engine, verified-S2 throughput measured after all handshakes.
fn run_live(worker_counts: &[usize], quick: bool) -> Vec<LiveRun> {
    use alpha_transport::loadgen::{run, LoadgenConfig};
    let mut live = Vec::new();
    for &workers in worker_counts {
        let cfg = LoadgenConfig {
            workers,
            senders: 2,
            flows_per_sender: 8,
            duration: std::time::Duration::from_millis(if quick { 300 } else { 1000 }),
            shards: SHARDS,
            ..LoadgenConfig::default()
        };
        match run(&cfg) {
            Ok(report) => live.push(LiveRun { report }),
            Err(e) => panic!("live loadgen run at {workers} workers failed: {e}"),
        }
    }
    live
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let flow_counts: &[usize] = if quick { &[1, 16, 256] } else { &FLOW_COUNTS };
    let worker_counts: &[usize] = if quick { &[1, 2, 4] } else { &WORKER_COUNTS };
    let mut results: Vec<RunResult> = Vec::new();
    let mut rows = Vec::new();

    for &flows in flow_counts {
        let traffic: Vec<FlowTraffic> = (0..flows).map(|i| generate_flow(i, cfg)).collect();
        for &workers in worker_counts {
            if workers > flows {
                continue;
            }
            let r = run_config(&traffic, workers, cfg);
            rows.push(vec![
                r.flows.to_string(),
                r.workers.to_string(),
                r.verified.to_string(),
                format!("{:.3}", r.makespan_secs * 1e3),
                format!("{:.0}", r.aggregate_per_sec),
            ]);
            results.push(r);
        }
    }

    table::print(
        "Engine scaling — relay S2-verify throughput (share-nothing makespan model)",
        &["flows", "workers", "verified", "makespan ms", "agg S2/s"],
        &rows,
    );

    // The acceptance ratio: aggregate throughput at the largest worker
    // count vs 1, at the largest flow count.
    let max_flows = *flow_counts.last().unwrap();
    let max_workers = *worker_counts.last().unwrap();
    let tput = |w: usize| {
        results
            .iter()
            .find(|r| r.flows == max_flows && r.workers == w)
            .map(|r| r.aggregate_per_sec)
            .unwrap_or(0.0)
    };
    let ratio = tput(max_workers) / tput(1);
    println!(
        "\n{max_flows} flows: {:.0} S2/s at 1 worker -> {:.0} S2/s at {max_workers} workers \
         ({ratio:.2}x)",
        tput(1),
        tput(max_workers)
    );
    println!(
        "host cores: {} (multi-worker numbers are share-nothing projections)",
        alpha_bench::host_cores()
    );

    // Live runs: a real multi-worker engine saturated over loopback by
    // real sender threads — true thread-parallel throughput, not a
    // projection. The reported ratio is taken at min(host_cores, 4)
    // workers; the runs themselves always happen so the live path stays
    // exercised.
    let live_workers: Vec<usize> = worker_counts.iter().copied().filter(|&w| w <= 4).collect();
    let live = run_live(&live_workers, quick);
    let hc = alpha_bench::host_cores();
    let top_workers = hc.min(4);
    let live_tput = |w: usize| {
        live.iter()
            .find(|l| l.report.workers == w)
            .map(|l| l.report.s2_per_sec)
            .unwrap_or(0.0)
    };
    for l in &live {
        println!(
            "live: {} workers -> {:.0} verified S2/s ({} exchanges, handoff in/out/overflow \
             {}/{}/{}, contended locks {})",
            l.report.workers,
            l.report.s2_per_sec,
            l.report.s2_verified,
            l.report.io.handoff_in,
            l.report.io.handoff_out,
            l.report.io.handoff_overflow,
            l.report.lock_contended,
        );
    }
    let live_speedup = if live_tput(1) > 0.0 {
        live_tput(top_workers) / live_tput(1)
    } else {
        0.0
    };

    // Hand-rolled JSON: stable layout, no serializer dependency needed.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"engine_scaling\",");
    let _ = writeln!(
        json,
        "  \"model\": \"share-nothing makespan (sequential per-worker timing)\","
    );
    let _ = writeln!(
        json,
        "  {},",
        alpha_bench::runtime_fields("model", max_workers)
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
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
    let _ = writeln!(json, "  \"exchanges_per_flow\": {EXCHANGES},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(
        json,
        "  \"assignment_policy\": \"{}\",",
        ShardAssignment::least_loaded(&[0], 1).policy_name()
    );
    let _ = writeln!(
        json,
        "  \"speedup_{max_workers}_workers_vs_1\": {ratio:.4},"
    );
    let _ = writeln!(json, "  \"live\": {{");
    let _ = writeln!(
        json,
        "    \"speedup_{top_workers}_workers_vs_1\": {live_speedup:.4},"
    );
    let _ = writeln!(json, "    \"runs\": [");
    for (i, l) in live.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {}{}",
            l.report.json(),
            if i + 1 == live.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        let per_worker: Vec<String> = r
            .per_worker_secs
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"flows\": {}, \"workers\": {}, \"s2_verified\": {}, \
             \"makespan_secs\": {:.6}, \"aggregate_s2_per_sec\": {:.1}, \
             \"per_worker_secs\": [{}]}}{}",
            r.flows,
            r.workers,
            r.verified,
            r.makespan_secs,
            r.aggregate_per_sec,
            per_worker.join(", "),
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    alpha_bench::write_artefact("BENCH_engine_scaling.json", &json);

    if !quick {
        assert!(
            ratio >= 4.0,
            "aggregate S2-verify throughput must scale >=4x from 1 to 8 workers, got {ratio:.2}x"
        );
    }

    // Reported, not gated: `loadgen` is a closed loop (~2k S2/s at every
    // worker count on this host), so the ratio says how long a round trip
    // takes, not how the workers scale.
    println!(
        "live speedup at {top_workers} workers on {hc} core(s): {live_speedup:.2}x (no gate: the \
         multi-worker gate belongs to ROADMAP item 1's open-loop workloads)"
    );

    // The shard-imbalance regression the least-loaded assignment fixes:
    // under modulo placement, 1024 flows ran *slower* at 8 workers than
    // at 4 (0.49M vs 0.61M S2/s) because hot shards stacked on one
    // worker. More workers must never cost throughput.
    let tput_at = |flows: usize, w: usize| {
        results
            .iter()
            .find(|r| r.flows == flows && r.workers == w)
            .map(|r| r.aggregate_per_sec)
            .unwrap_or(0.0)
    };
    if !quick {
        assert!(
            tput_at(1024, 8) >= tput_at(1024, 4),
            "1024 flows: 8 workers ({:.0} S2/s) regressed below 4 workers ({:.0} S2/s)",
            tput_at(1024, 8),
            tput_at(1024, 4)
        );
    }
}
