//! Wireless-mesh scenario (§4.1.2): a high-volume ALPHA-C stream crosses a
//! three-relay mesh path with loss and jitter, while an on-path *tamperer*
//! corrupts packets — which the next ALPHA-aware relay drops before they
//! waste any further bandwidth.
//!
//! Run with: `cargo run --example mesh_stream`

use alpha::core::{Config, Mode, Reliability, Timestamp};
use alpha::crypto::Algorithm;
use alpha::sim::{App, Attacker, DeviceModel, LinkConfig, Node, SenderApp, Simulator};

fn main() {
    let mut sim = Simulator::new(0xA19A);
    sim.set_tick_us(5_000);

    let mut cfg = Config::new(Algorithm::Sha1)
        .with_chain_len(4096)
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(100_000);
    cfg.max_retries = 12;

    // Topology: signer — relay — tamperer — relay — verifier.
    // Node ids are assigned in insertion order.
    let app = App::Sender(SenderApp::new(Mode::Merkle, 16, 900, 320));
    let signer = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::nokia770(),
        cfg,
        1,
        4, // verifier id, known by construction
        app,
    )));
    let relay_a = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::ar2315(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(signer, 4)], // the pair it serves: signer and verifier
    )));
    let tamperer = sim.add_node(Node::Attacker {
        device: DeviceModel::geode_lx(),
        attacker: Attacker::Tamperer {
            probability: 0.15,
            tampered: 0,
        },
    });
    let relay_b = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::ar2315(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(signer, 4)], // the pair it serves: signer and verifier
    )));
    let verifier = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::nokia770(),
        cfg,
        1,
        signer,
        App::Sink,
    )));

    let link = LinkConfig::mesh().with_loss(0.02);
    for w in [signer, relay_a, tamperer, relay_b, verifier].windows(2) {
        sim.add_link(w[0], w[1], link);
    }

    sim.run_until(Timestamp::from_millis(120_000));

    let v = &sim.metrics[verifier];
    let rb = &sim.metrics[relay_b];
    let tampered = match &sim.node(tamperer) {
        Node::Attacker {
            attacker: Attacker::Tamperer { tampered, .. },
            ..
        } => *tampered,
        _ => unreachable!(),
    };
    println!(
        "mesh stream over {} hops with 2% loss and an on-path tamperer:",
        4
    );
    println!(
        "  delivered   : {} / 320 messages ({} KB)",
        v.delivered_msgs,
        v.delivered_bytes / 1024
    );
    println!("  tampered    : {tampered} S2 packets corrupted in transit");
    println!("  relay B     : dropped {:?}", rb.drops);
    println!(
        "  relay B     : verified {} payloads in transit",
        rb.extracted_payloads
    );
    println!("  signer      : drops {:?}", sim.metrics[signer].drops);
    println!(
        "  verifier    : drops {:?}, ready {}",
        v.drops,
        sim.node(verifier).as_endpoint().unwrap().is_ready()
    );
    println!(
        "  signer      : pending {}",
        sim.node(signer).as_endpoint().unwrap().pending_messages()
    );
    println!("  relay A     : dropped {:?}", sim.metrics[relay_a].drops);
    if !v.latencies_us.is_empty() {
        let mut lat = v.latencies_us.clone();
        lat.sort_unstable();
        println!(
            "  latency     : median {} ms, p95 {} ms",
            lat[lat.len() / 2] / 1000,
            lat[lat.len() * 95 / 100] / 1000
        );
    }
    assert_eq!(
        v.delivered_msgs, 320,
        "reliability must repair tampering + loss"
    );
    assert!(
        rb.drops.contains_key("bad-mac"),
        "relay B must catch tampered packets"
    );
    println!(
        "  => every tampered packet was caught by the first ALPHA-aware relay behind the attacker,"
    );
    println!("     and selective repeat (AMT nacks + RTO) recovered all 320 messages end-to-end.");
}
