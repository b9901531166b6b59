//! Mesh chain — end-to-end goodput of a chained relay mesh as the hop
//! count grows 1 → 4, plus the failover recovery time when a mid-path
//! relay dies under live traffic.
//!
//! Methodology: the discrete-event simulator runs the full protocol
//! (real wire bytes, full ALPHA verification at every relay) over ideal
//! links with the paper's Geode-LX relay cost model, so the goodput
//! numbers isolate the per-hop verification cost from link effects.
//! The failover scenario shadows the middle relay of a 3-relay chain
//! with a standby, kills the primary mid-stream, and measures the time
//! from the kill to the next verified delivery at the far endpoint —
//! the window in which probes must notice the death (`down_after`
//! consecutive misses) and both neighbours must re-route live flows.
//!
//! Output: a table on stdout and `BENCH_mesh_chain.json` in the working
//! directory. `--quick` shrinks the message counts for CI.

use std::fmt::Write as _;

use alpha_bench::table;
use alpha_core::{Config, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_sim::{chained_mesh_path, App, DeviceModel, LinkConfig, SenderApp, Simulator};

const BATCH: usize = 8;
const PAYLOAD: usize = 256;
const HOP_COUNTS: [usize; 4] = [1, 2, 3, 4];

fn mesh_cfg() -> alpha_mesh::MeshConfig {
    alpha_mesh::MeshConfig {
        probe_interval_us: 50_000,
        initial_rto_us: 100_000,
        ..alpha_mesh::MeshConfig::default()
    }
}

struct HopResult {
    relays: usize,
    delivered: u64,
    virtual_secs: f64,
    goodput_kbit: f64,
    median_latency_ms: f64,
}

/// The endpoints' association: 1024-element chains, every element kept
/// (they bootstrap directly, without the engine's storage ladder).
fn endpoint_config() -> Config {
    Config::new(Algorithm::Sha1).with_chain_len(1024)
}

/// Goodput through a chain of `relays` verifying hops.
fn run_chain(relays: usize, messages: usize, seed: u64) -> HopResult {
    let mut sim = Simulator::new(seed);
    let chain = chained_mesh_path(
        &mut sim,
        relays,
        None,
        DeviceModel::xeon(),
        DeviceModel::geode_lx(),
        LinkConfig::ideal(),
        endpoint_config(),
        mesh_cfg(),
        App::Sender(SenderApp::new(Mode::Cumulative, BATCH, PAYLOAD, messages)),
    );
    // Step the clock until the stream completes: the mesh keeps probing
    // forever, so completion time (not queue-drain time) is the measure.
    let mut t = 0u64;
    while sim.metrics[chain.verifier].delivered_msgs < messages as u64 {
        t += 50;
        assert!(
            t < 600_000,
            "{relays}-hop chain stalled (delivered {}, drops: {:?})",
            sim.metrics[chain.verifier].delivered_msgs,
            sim.metrics[chain.verifier].drops
        );
        sim.run_until(Timestamp::from_millis(t));
    }
    let m = &sim.metrics[chain.verifier];
    let secs = t as f64 / 1e3;
    let mut lat = m.latencies_us.clone();
    lat.sort_unstable();
    HopResult {
        relays,
        delivered: m.delivered_msgs,
        virtual_secs: secs,
        goodput_kbit: m.delivered_bytes as f64 * 8.0 / secs / 1e3,
        median_latency_ms: lat.get(lat.len() / 2).copied().unwrap_or(0) as f64 / 1e3,
    }
}

struct FailoverResult {
    kill_at_ms: u64,
    recovered_at_ms: u64,
    recovery_ms: u64,
    delivered: u64,
    neighbour_failovers: (u64, u64),
}

/// Kill the shadowed middle relay of a 3-relay chain mid-stream and
/// measure the outage window at the far endpoint.
fn run_failover(messages: usize, seed: u64) -> FailoverResult {
    let mut sim = Simulator::new(seed);
    let mut app = SenderApp::new(Mode::Cumulative, 4, PAYLOAD, messages);
    app.interval_us = 50_000; // pace the stream so the kill lands mid-flight
    let chain = chained_mesh_path(
        &mut sim,
        3,
        Some(1),
        DeviceModel::xeon(),
        DeviceModel::geode_lx(),
        LinkConfig::ideal(),
        endpoint_config(),
        mesh_cfg(),
        App::Sender(app),
    );
    let standby = chain.standby.expect("standby relay");
    // Let half the stream through, then crash the primary.
    let mut t = 0u64;
    while sim.metrics[chain.verifier].delivered_msgs < (messages / 2) as u64 {
        t += 50;
        assert!(t < 60_000, "stream stalled before the crash");
        sim.run_until(Timestamp::from_millis(t));
    }
    let before = sim.metrics[chain.verifier].delivered_msgs;
    assert!(before < messages as u64, "kill must land mid-stream");
    sim.node_mut(chain.relays[1])
        .as_mesh_relay_mut()
        .expect("mesh relay")
        .kill();
    let kill_at_ms = t;
    // Step until the endpoint sees the first post-kill delivery: that
    // gap is the failover recovery time.
    let mut recovered_at_ms = kill_at_ms;
    loop {
        recovered_at_ms += 10;
        assert!(
            recovered_at_ms < kill_at_ms + 30_000,
            "no delivery within 30s of the kill"
        );
        sim.run_until(Timestamp::from_millis(recovered_at_ms));
        if sim.metrics[chain.verifier].delivered_msgs > before {
            break;
        }
    }
    // Drain the rest of the stream.
    sim.run_until(Timestamp::from_millis(recovered_at_ms + 60_000));
    let m = &sim.metrics[chain.verifier];
    assert!(
        m.delivered_msgs >= messages as u64,
        "flow completed after failover (delivered {}, drops: {:?})",
        m.delivered_msgs,
        m.drops
    );
    use std::sync::atomic::Ordering::Relaxed;
    let sb = sim.node(standby).as_mesh_relay().expect("standby");
    assert!(
        sb.core.metrics().s2_verified.load(Relaxed) > 0,
        "standby verified traffic after taking over"
    );
    let fo = |id| {
        sim.node(id)
            .as_mesh_relay()
            .map(alpha_sim::MeshRelayNode::failovers)
            .unwrap_or(0)
    };
    FailoverResult {
        kill_at_ms,
        recovered_at_ms,
        recovery_ms: recovered_at_ms - kill_at_ms,
        delivered: m.delivered_msgs,
        neighbour_failovers: (fo(chain.relays[0]), fo(chain.relays[2])),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let messages = if quick { 48 } else { 240 };

    let results: Vec<HopResult> = HOP_COUNTS
        .iter()
        .map(|&n| run_chain(n, messages, 7 + n as u64))
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.relays.to_string(),
                r.delivered.to_string(),
                format!("{:.3}", r.virtual_secs),
                format!("{:.1}", r.goodput_kbit),
                format!("{:.1}", r.median_latency_ms),
            ]
        })
        .collect();
    table::print(
        "Mesh chain — goodput vs verifying hop count (ideal links, Geode LX relays)",
        &["relays", "delivered", "virtual s", "kbit/s", "med lat ms"],
        &rows,
    );

    let fo = run_failover(messages.min(120), 23);
    let probe_ms = mesh_cfg().probe_interval_us / 1000;
    println!(
        "\nfailover: relay killed at {} ms, first post-kill delivery at {} ms \
         (recovery {} ms, probe interval {} ms); neighbours re-routed {}+{} time(s)",
        fo.kill_at_ms,
        fo.recovered_at_ms,
        fo.recovery_ms,
        probe_ms,
        fo.neighbour_failovers.0,
        fo.neighbour_failovers.1,
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"mesh_chain\",");
    let _ = writeln!(json, "  {},", alpha_bench::runtime_fields("model", 1));
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"chain_storage\": \"{}\",",
        alpha_engine::chainstore::name(endpoint_config().chain_storage)
    );
    let _ = writeln!(json, "  \"mode\": \"cumulative\",");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"payload_bytes\": {PAYLOAD},");
    let _ = writeln!(json, "  \"messages\": {messages},");
    let _ = writeln!(json, "  \"relay_device\": \"geode_lx\",");
    let _ = writeln!(json, "  \"goodput_vs_hops\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"relays\": {}, \"delivered\": {}, \"virtual_secs\": {:.6}, \
             \"goodput_kbit_per_sec\": {:.1}, \"median_latency_ms\": {:.1}}}{}",
            r.relays,
            r.delivered,
            r.virtual_secs,
            r.goodput_kbit,
            r.median_latency_ms,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"failover\": {{");
    let _ = writeln!(json, "    \"relays\": 3, \"standby_for\": 1,");
    let _ = writeln!(json, "    \"probe_interval_ms\": {probe_ms},");
    let _ = writeln!(json, "    \"kill_at_ms\": {},", fo.kill_at_ms);
    let _ = writeln!(json, "    \"recovered_at_ms\": {},", fo.recovered_at_ms);
    let _ = writeln!(json, "    \"recovery_ms\": {},", fo.recovery_ms);
    let _ = writeln!(json, "    \"delivered\": {},", fo.delivered);
    let _ = writeln!(
        json,
        "    \"neighbour_failovers\": [{}, {}]",
        fo.neighbour_failovers.0, fo.neighbour_failovers.1
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    alpha_bench::write_artefact("BENCH_mesh_chain.json", &json);
}
