//! Extra experiment (not a paper table): relay state and CPU as the number
//! of concurrent flows grows — quantifying §3.1.1's claim that
//! pre-signatures make hash-chain signatures scale on forwarding devices.
//!
//! For each flow count, a star of independent ALPHA-C streams crosses one
//! AR2315-class relay. We report the relay's total buffered protocol
//! state (chains + pre-signatures), the per-flow share, and the virtual
//! CPU consumed — all of which should grow linearly with flows and stay
//! tiny in absolute terms (tens of bytes per flow beyond the four chain
//! trackers, matching Table 2's `n·h`).

use alpha_bench::table;
use alpha_core::{Config, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_sim::{star_through_engine, App, DeviceModel, LinkConfig, SenderApp, Simulator};

fn main() {
    let mut rows = Vec::new();
    for flows in [1usize, 4, 16, 64] {
        let mut sim = Simulator::new(flows as u64);
        sim.set_tick_us(5_000);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(512);
        let (relay, endpoints) = star_through_engine(
            &mut sim,
            flows,
            DeviceModel::xeon(),
            DeviceModel::ar2315(),
            LinkConfig::ideal(),
            cfg,
            |_| App::Sender(SenderApp::new(Mode::Cumulative, 10, 256, 50)),
        );
        sim.run_until(Timestamp::from_millis(60_000));
        let delivered: u64 = endpoints
            .iter()
            .map(|(_, r)| sim.metrics[*r].delivered_msgs)
            .sum();
        let core = &sim.node(relay).as_engine_relay().expect("relay").core;
        let total = core.buffered_bytes() as usize;
        rows.push(vec![
            flows.to_string(),
            delivered.to_string(),
            (flows * 50).to_string(),
            total.to_string(),
            (total / flows).to_string(),
            format!("{:.1}", sim.metrics[relay].cpu_ns / 1e6),
            format!("{:.1}", sim.metrics[relay].energy_uj / 1e3),
        ]);
    }
    table::print(
        "Flow scaling — one AR2315 relay, ALPHA-C streams (10 presigs, 256 B)",
        &[
            "flows",
            "delivered",
            "expected",
            "relay state B",
            "per-flow B",
            "relay cpu ms",
            "relay mJ",
        ],
        &rows,
    );
    println!(
        "\nPer-flow relay state is constant (4 chain trackers + ≤1 exchange's\n\
         pre-signatures) — the paper's scalability argument, measured."
    );
}
