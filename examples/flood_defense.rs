//! Flooding mitigation (§3.5): a forger floods a victim with fake S1
//! packets through an ALPHA-aware relay while a legitimate stream runs.
//!
//! Two defences combine: the relay serves only the endpoint pair it was
//! configured with and judges every packet of that pair (forged traffic
//! dies one hop from the attacker), and the receiver-consent rule means
//! unsolicited data never earns an A1, so nothing heavier than small S1
//! packets can even be attempted.
//!
//! Run with: `cargo run --example flood_defense`

use alpha::core::{Config, Mode, Timestamp};
use alpha::crypto::Algorithm;
use alpha::sim::{App, Attacker, DeviceModel, LinkConfig, Node, SenderApp, Simulator};

fn main() {
    let mut sim = Simulator::new(0xF100D);
    sim.set_tick_us(5_000);
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(2048);

    // Topology:  sender ── relay ── victim
    //                       │
    //                    flooder
    let app = App::Sender(SenderApp::new(Mode::Cumulative, 10, 512, 300));
    let sender = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        2, // victim's id
        app,
    )));
    let relay = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::ar2315(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(sender, 2)], // the pair it serves: sender and victim
    )));
    let victim = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::nokia770(),
        cfg,
        1,
        sender,
        App::Sink,
    )));
    let flooder = sim.add_node(Node::Attacker {
        device: DeviceModel::xeon(),
        attacker: Attacker::Flooder {
            dst: victim,
            assoc_id: 1, // claims the victim's association
            alg: Algorithm::Sha1,
            per_tick: 20, // 4000 forged S1/s
            injected: 0,
        },
    });

    sim.add_link(sender, relay, LinkConfig::mesh());
    sim.add_link(relay, victim, LinkConfig::mesh());
    sim.add_link(flooder, relay, LinkConfig::mesh());

    sim.run_until(Timestamp::from_millis(10_000));

    let injected = match sim.node(flooder) {
        Node::Attacker {
            attacker: Attacker::Flooder { injected, .. },
            ..
        } => *injected,
        _ => unreachable!(),
    };
    let r = &sim.metrics[relay];
    let v = &sim.metrics[victim];
    println!("10 s of legitimate traffic under a 4000-pps forged-S1 flood:");
    println!("  flooder : injected {injected} forged S1 packets");
    println!("  relay   : drops {:?}", r.drops);
    println!(
        "  victim  : received {} frames, delivered {} genuine messages",
        v.recv_frames, v.delivered_msgs
    );
    let reached = v.recv_frames;
    let legit = v.delivered_msgs;
    // Unreliable mode: the 2 x 1% lossy links cost a few messages, the
    // flood costs none.
    assert!(
        legit >= 280,
        "legitimate stream must be essentially unaffected, got {legit}"
    );
    // Link loss is counted on the sending node; every other drop is a
    // frame the node refused. The victim refuses none of the legitimate
    // exchange, so each of its refusals is a forged frame that got there.
    let refused = |m: &alpha::sim::NodeMetrics| -> u64 {
        m.drops
            .iter()
            .filter(|(reason, _)| **reason != "link-loss")
            .map(|(_, n)| n)
            .sum()
    };
    let forged_reaching_victim = refused(v);
    println!(
        "  => {injected} forged packets, {} stopped at the relay, {forged_reaching_victim} reached the victim;",
        refused(r)
    );
    assert_eq!(forged_reaching_victim, 0, "victim drops: {:?}", v.drops);
    println!("     the victim's {reached} received frames are the legitimate exchange only.");
}
