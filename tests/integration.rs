//! Cross-crate integration tests: full scenarios through the simulator,
//! attacks end to end, and interplay between the protocol core, wire
//! format, simulator and baselines.

#[path = "../crates/engine/tests/common/net.rs"]
mod net;

use alpha::core::{Config, MacScheme, Mode, Reliability, Timestamp};
use alpha::crypto::Algorithm;
use alpha::sim::{
    protected_path, App, Attacker, DeviceModel, LinkConfig, Node, SenderApp, Simulator,
};

fn base_cfg() -> Config {
    Config::new(Algorithm::Sha1).with_chain_len(2048)
}

#[test]
fn five_hop_path_delivers_all_modes() {
    for (mode, batch) in [
        (Mode::Base, 1usize),
        (Mode::Cumulative, 8),
        (Mode::Merkle, 8),
    ] {
        let mut sim = Simulator::new(7);
        let app = App::Sender(SenderApp::new(mode, batch, 200, 40));
        let (_s, relays, v) = protected_path(
            &mut sim,
            4,
            DeviceModel::xeon(),
            DeviceModel::geode_lx(),
            LinkConfig::ideal(),
            base_cfg(),
            app,
        );
        sim.run_until(Timestamp::from_millis(30_000));
        assert_eq!(sim.metrics[v].delivered_msgs, 40, "mode {mode:?}");
        // Every relay on the path verified the payloads in transit.
        for r in relays {
            assert!(sim.metrics[r].extracted_payloads >= 40, "mode {mode:?}");
        }
    }
}

#[test]
fn reliable_stream_survives_heavy_loss() {
    let mut sim = Simulator::new(8);
    let cfg = base_cfg()
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(60_000);
    let app = App::Sender(SenderApp::new(Mode::Merkle, 8, 300, 96));
    let (_s, _r, v) = protected_path(
        &mut sim,
        2,
        DeviceModel::xeon(),
        DeviceModel::geode_lx(),
        LinkConfig::ideal().with_loss(0.10),
        cfg,
        app,
    );
    sim.run_until(Timestamp::from_millis(240_000));
    assert_eq!(
        sim.metrics[v].delivered_msgs, 96,
        "10% loss per hop must be repaired; drops: {:?}",
        sim.metrics[v].drops
    );
}

#[test]
fn replay_attacker_cannot_duplicate_deliveries() {
    // A compromised forwarder replays every frame 50 ms later. Chain
    // descent and per-seq dedup must keep deliveries exact.
    let mut sim = Simulator::new(9);
    let cfg = base_cfg();
    let app = App::Sender(SenderApp::new(Mode::Cumulative, 5, 100, 50));
    let signer = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        2,
        app,
    )));
    let replayer = sim.add_node(Node::Attacker {
        device: DeviceModel::xeon(),
        attacker: Attacker::ReplayRelay {
            delay_us: 50_000,
            pending: Vec::new(),
            replayed: 0,
        },
    });
    let verifier = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::xeon(),
        cfg,
        1,
        signer,
        App::Sink,
    )));
    sim.add_link(signer, replayer, LinkConfig::ideal());
    sim.add_link(replayer, verifier, LinkConfig::ideal());
    sim.run_until(Timestamp::from_millis(30_000));

    let replayed = match sim.node(replayer) {
        Node::Attacker {
            attacker: Attacker::ReplayRelay { replayed, .. },
            ..
        } => *replayed,
        _ => unreachable!(),
    };
    assert!(replayed > 20, "attacker replayed traffic ({replayed})");
    assert_eq!(
        sim.metrics[verifier].delivered_msgs, 50,
        "each message delivered exactly once despite replay"
    );
}

#[test]
fn incremental_deployment_with_dumb_relay() {
    // One ALPHA-aware relay plus one legacy forwarder: the paper's
    // incremental-deployment story — isolated ALPHA relays still verify.
    let mut sim = Simulator::new(10);
    let cfg = base_cfg();
    let app = App::Sender(SenderApp::new(Mode::Base, 1, 100, 20));
    let signer = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        3,
        app,
    )));
    let dumb = sim.add_node(Node::DumbRelay {
        device: DeviceModel::geode_lx(),
    });
    let aware = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::geode_lx(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(signer, 3)],
    )));
    let verifier = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::xeon(),
        cfg,
        1,
        signer,
        App::Sink,
    )));
    sim.add_link(signer, dumb, LinkConfig::ideal());
    sim.add_link(dumb, aware, LinkConfig::ideal());
    sim.add_link(aware, verifier, LinkConfig::ideal());
    sim.run_until(Timestamp::from_millis(20_000));
    assert_eq!(sim.metrics[verifier].delivered_msgs, 20);
    assert!(
        sim.metrics[dumb].forwarded > 0,
        "legacy node forwards blindly"
    );
    assert!(
        sim.metrics[aware].extracted_payloads >= 20,
        "the isolated ALPHA relay still verifies everything"
    );
}

#[test]
fn corrupted_frames_rejected_by_parsers_or_macs() {
    // Byte-level corruption on the wire: either the parser rejects the
    // frame or the MAC check does; deliveries never contain corrupted
    // payloads (payload integrity is end-to-end).
    let mut sim = Simulator::new(11);
    // A generous retry budget: with 8% per-link corruption an unlucky
    // streak can eat the default 5 retries and abandon the exchange,
    // which would test the corruption pattern rather than integrity.
    let cfg = base_cfg()
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(60_000)
        .with_max_retries(40);
    let app = App::Sender(SenderApp::new(Mode::Cumulative, 4, 120, 40));
    let (_s, _r, v) = protected_path(
        &mut sim,
        1,
        DeviceModel::xeon(),
        DeviceModel::geode_lx(),
        LinkConfig::ideal().with_corrupt(0.08),
        cfg,
        app,
    );
    sim.run_until(Timestamp::from_millis(240_000));
    let m = &sim.metrics[v];
    // Corruption must be caught, not delivered. Full delivery is NOT
    // guaranteed under corruption: a retransmitted S1 reuses its chain
    // element, so a relay that saw the original announcement treats the
    // retry as a replay and an unlucky pattern can abandon the exchange
    // (bounded by max_retries). Require a high floor plus evidence that
    // the abandon accounting explains every missing message.
    assert!(
        m.delivered_msgs >= 36,
        "delivered {}/40, drops: {:?}",
        m.delivered_msgs,
        m.drops
    );
    let abandoned = sim
        .metrics
        .iter()
        .map(|nm| *nm.drops.get("exchange-abandoned").unwrap_or(&0))
        .sum::<u64>();
    assert!(
        m.delivered_msgs + abandoned >= 40,
        "missing messages unaccounted for: delivered {}, abandoned {abandoned}",
        m.delivered_msgs
    );
    // Latency headers decode on every delivery: corrupted payloads would
    // produce nonsense timestamps; all recorded latencies must be sane.
    assert!(m.latencies_us.iter().all(|&l| l < 240_000_000));
}

#[test]
fn mmo_prefix_mac_deployment_end_to_end() {
    // The §4.1.3 sensor profile: MMO hashing + prefix MACs through relays.
    let mut sim = Simulator::new(12);
    let cfg = Config::new(Algorithm::MmoAes)
        .with_chain_len(1024)
        .with_mac_scheme(MacScheme::Prefix)
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(400_000);
    let app = App::Sender(SenderApp::new(Mode::Cumulative, 5, 64, 30));
    let (_s, relays, v) = protected_path(
        &mut sim,
        2,
        DeviceModel::cc2430(),
        DeviceModel::cc2430(),
        LinkConfig::sensor(),
        cfg,
        app,
    );
    sim.run_until(Timestamp::from_millis(200_000));
    assert_eq!(
        sim.metrics[v].delivered_msgs, 30,
        "drops: {:?}",
        sim.metrics[v].drops
    );
    assert!(sim.metrics[relays[0]].extracted_payloads >= 30);
    // The CC2430's virtual CPU cost must reflect MMO pricing (≈ms scale).
    assert!(sim.metrics[relays[0]].cpu_ns > 1e6);
}

#[test]
fn tesla_vs_alpha_latency_profile() {
    // Qualitative §2.1.1 comparison, executed: TESLA delivers only after
    // the disclosure delay, ALPHA after 1.5 RTT.
    use alpha::baselines::tesla::{TeslaConfig, TeslaReceiver, TeslaSender};
    let mut rng = alpha::test_rng(13);
    let tcfg = TeslaConfig::new(Algorithm::Sha1); // 100 ms epochs, lag 2
    let sender = TeslaSender::new(tcfg, Timestamp::ZERO, &mut rng);
    let (anchor, start) = sender.commitment();
    let mut receiver = TeslaReceiver::new(tcfg, anchor, start);
    let pkt = sender.send(b"reading", Timestamp::from_millis(10)).unwrap();
    // Arrives after 5 ms of network delay: not yet verifiable.
    assert!(receiver
        .receive(pkt, Timestamp::from_millis(15))
        .unwrap()
        .is_empty());
    // ALPHA on an equivalent 5 ms link: delivered within ~3 link crossings.
    let mut sim = Simulator::new(14);
    let app = App::Sender(SenderApp::new(Mode::Base, 1, 64, 1));
    let link = LinkConfig {
        latency_us: 5_000,
        ..LinkConfig::ideal()
    };
    let (_s, _r, v) = protected_path(
        &mut sim,
        0,
        DeviceModel::xeon(),
        DeviceModel::xeon(),
        link,
        base_cfg(),
        app,
    );
    sim.run_until(Timestamp::from_millis(5_000));
    let alpha_latency_us = sim.metrics[v].latencies_us[0];
    // TESLA's floor here is 2 epochs = 200 ms; ALPHA's measured latency is
    // far below it.
    assert!(
        alpha_latency_us < 100_000,
        "ALPHA delivered in {alpha_latency_us} µs"
    );
}

#[test]
fn renewal_works_across_simulated_path() {
    // Chain renewal end to end over the simulator: a short-chained sender
    // streams more messages than one chain allows; the sim app cannot
    // renew automatically, so this drives the association manually through
    // in-memory "links" with both sides renewing.
    let mut rng = alpha::test_rng(77);
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(8);
    let (mut alice, mut bob) = alpha::core::Association::pair(cfg, 1, &mut rng);
    let t = Timestamp::ZERO;
    let mut delivered = 0;
    for round in 0..12 {
        let msg = format!("long-lived round {round}");
        let s1 = alice.sign(msg.as_bytes(), t).unwrap();
        let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
        let s2 = alice.handle(&a1, t, &mut rng).unwrap().packets.remove(0);
        delivered += bob.handle(&s2, t, &mut rng).unwrap().deliveries.len();
        // Renew both directions every round (chain_len 8 = 3 pairs).
        for _ in 0..1 {
            let (offer, s1) = alice.begin_renewal(t, &mut rng).unwrap();
            let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
            let s2 = alice.handle(&a1, t, &mut rng).unwrap().packets.remove(0);
            assert!(bob.handle(&s2, t, &mut rng).unwrap().peer_renewed);
            alice.commit_renewal(offer).unwrap();
            let (offer, s1) = bob.begin_renewal(t, &mut rng).unwrap();
            let a1 = alice.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
            let s2 = bob.handle(&a1, t, &mut rng).unwrap().packets.remove(0);
            assert!(alice.handle(&s2, t, &mut rng).unwrap().peer_renewed);
            bob.commit_renewal(offer).unwrap();
        }
    }
    assert_eq!(delivered, 12);
}

/// §3.1.1's *bypass attack*, demonstrated: two colluding attackers divert
/// genuine signature packets around a victim relay, then — after the real
/// key disclosure — replay a reformatted exchange carrying a forged
/// message. The victim relay accepts it (its data-extraction function is
/// compromised, exactly as the paper states), while end-to-end integrity
/// at the verifier is unaffected. The paper's fix is keeping the relay set
/// static / adding n-hop neighbor checks, which is out of ALPHA's core.
#[test]
fn bypass_attack_compromises_relay_extraction_not_end_to_end() {
    use alpha::core::bootstrap::{self, AuthRequirement};
    use alpha::core::message_mac;
    use alpha::core::{Relay, RelayConfig, RelayDecision, RelayEvent};
    use alpha::wire::{Body, Packet, PreSignature};

    let mut rng = alpha::test_rng(666);
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let t = Timestamp::ZERO;

    // Handshake observed by the victim relay (it is on the original path).
    let (hs, init) = bootstrap::initiate(cfg, 9, None, &mut rng);
    let mut victim = Relay::new(RelayConfig {
        s1_bytes_per_sec: None,
        ..RelayConfig::default()
    });
    victim.observe(&init, t);
    let (mut bob, reply, _) =
        bootstrap::respond(cfg, &init, None, AuthRequirement::None, &mut rng).unwrap();
    victim.observe(&reply, t);
    let (mut alice, _) = hs.complete(&reply, AuthRequirement::None).unwrap();

    // The colluders divert this exchange AROUND the victim: alice and bob
    // complete it without the victim seeing any packet.
    let s1 = alice.sign(b"pay 5 to bob", t).unwrap();
    let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
    let s2 = alice.handle(&a1, t, &mut rng).unwrap().packets.remove(0);
    assert_eq!(
        bob.handle(&s2, t, &mut rng).unwrap().payload().unwrap(),
        b"pay 5 to bob"
    );

    // The attackers captured everything and now know the disclosed MAC key.
    let (s1_element, s1_index) = match (&s1.body, s1.chain_index) {
        (Body::S1 { element, .. }, idx) => (*element, idx),
        _ => unreachable!(),
    };
    let (disclosed_key, key_index) = match (&s2.body, s2.chain_index) {
        (Body::S2 { key, .. }, idx) => (*key, idx),
        _ => unreachable!(),
    };
    // Forge a pre-signature for an attacker-chosen message with the now
    // public key, replay the (element, forged MAC) to the victim...
    let evil = b"pay 5000 to mallory";
    let forged_mac = message_mac(Algorithm::Sha1, cfg.mac_scheme, &disclosed_key, 0, evil);
    let forged_s1 = Packet {
        assoc_id: 9,
        alg: Algorithm::Sha1,
        chain_index: s1_index,
        body: Body::S1 {
            element: s1_element,
            presig: PreSignature::Cumulative(vec![forged_mac]),
        },
    };
    assert_eq!(victim.observe(&forged_s1, t).0, RelayDecision::Forward);
    // ...then "disclose".
    let forged_s2 = Packet {
        assoc_id: 9,
        alg: Algorithm::Sha1,
        chain_index: key_index,
        body: Body::S2 {
            key: disclosed_key,
            seq: 0,
            path: vec![],
            payload: evil.to_vec(),
        },
    };
    let (decision, events) = victim.observe(&forged_s2, t);
    // The victim relay verifies and extracts the FORGED message: its
    // signaling function is compromised by the bypass, as §3.1.1 warns.
    assert_eq!(decision, RelayDecision::Forward);
    assert!(events.iter().any(|e| matches!(
        e,
        RelayEvent::VerifiedPayload { payload, .. } if payload == evil
    )));
    // End-to-end integrity is NOT affected: bob still buffers the GENUINE
    // pre-signature for this exchange, so the replayed S1 only provokes an
    // idempotent A1 replay (no state change) and the forged S2 fails the
    // MAC check against the genuine commitment.
    let resp = bob.handle(&forged_s1, t, &mut rng).unwrap();
    assert!(resp.deliveries.is_empty() && !resp.peer_renewed);
    let err = bob.handle(&forged_s2, t, &mut rng).unwrap_err();
    assert_eq!(err, alpha::core::ProtocolError::BadMac);
}

#[test]
fn route_change_mid_stream_recovers_with_reliability() {
    // ALPHA needs ~2 RTTs of path stability (§3.5). A route flap in the
    // middle of a reliable stream: packets in flight on the dead link are
    // lost, the new path's relay has never seen the association (it
    // forwards unknown traffic), and retransmission repairs the rest.
    let mut sim = Simulator::new(21);
    let cfg = base_cfg()
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(80_000);
    let mut sender_app = SenderApp::new(Mode::Merkle, 8, 200, 80);
    sender_app.interval_us = 30_000; // pace the stream across the reroute
    let app = App::Sender(sender_app);
    let signer = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        3,
        app,
    )));
    let relay_a = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::geode_lx(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(signer, 3)],
    )));
    let relay_b = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::geode_lx(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(signer, 3)],
    )));
    let verifier = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::xeon(),
        cfg,
        1,
        signer,
        App::Sink,
    )));
    // Primary path through relay A; relay B is the (longer) backup.
    sim.add_link(signer, relay_a, LinkConfig::ideal());
    sim.add_link(relay_a, verifier, LinkConfig::ideal());
    let slow = LinkConfig {
        latency_us: 4_000,
        ..LinkConfig::ideal()
    };
    sim.add_link(signer, relay_b, slow);
    sim.add_link(relay_b, verifier, slow);

    // Let the stream start on the primary path…
    sim.run_until(Timestamp::from_millis(300));
    assert!(sim.metrics[relay_a].forwarded > 0, "primary path in use");
    // …then kill it.
    sim.remove_link(signer, relay_a);
    sim.remove_link(relay_a, verifier);
    sim.run_until(Timestamp::from_millis(120_000));

    let v = &sim.metrics[verifier];
    assert_eq!(
        v.delivered_msgs, 80,
        "all messages recovered after reroute; drops {:?}",
        v.drops
    );
    assert!(sim.metrics[relay_b].forwarded > 0, "backup path took over");
}

#[test]
fn energy_accounting_tracks_device_class() {
    // Same workload on sensor-class vs router-class hardware: the sensor
    // spends far more CPU time (MMO at ms per hash) and its radio charges
    // ~7x more per byte, but its 30 mW CPU draws far less power, so the
    // *composition* of its energy differs. The check: energy is recorded,
    // nonzero, and consistent with the device model's own pricing.
    let mut sim = Simulator::new(22);
    let cfg = Config::new(Algorithm::MmoAes)
        .with_chain_len(512)
        .with_mac_scheme(MacScheme::Prefix)
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(400_000);
    let app = App::Sender(SenderApp::new(Mode::Cumulative, 5, 64, 25));
    let (s, relays, v) = protected_path(
        &mut sim,
        1,
        DeviceModel::cc2430(),
        DeviceModel::cc2430(),
        LinkConfig::sensor(),
        cfg,
        app,
    );
    sim.run_until(Timestamp::from_millis(120_000));
    assert_eq!(
        sim.metrics[v].delivered_msgs, 25,
        "drops: {:?}",
        sim.metrics[v].drops
    );
    for id in [s, relays[0], v] {
        let m = &sim.metrics[id];
        assert!(m.energy_uj > 0.0);
        let dev = DeviceModel::cc2430();
        let expected = dev.energy_uj(m.cpu_ns, m.sent_bytes);
        assert!((m.energy_uj - expected).abs() < 1.0, "node {id}");
    }
}

#[test]
fn trace_records_exchange_structure() {
    use alpha::sim::PacketKind;
    let mut sim = Simulator::new(23);
    sim.enable_trace();
    let app = App::Sender(SenderApp::new(Mode::Cumulative, 4, 100, 12));
    let (_s, _r, v) = protected_path(
        &mut sim,
        1,
        DeviceModel::xeon(),
        DeviceModel::geode_lx(),
        LinkConfig::ideal(),
        base_cfg(),
        app,
    );
    sim.run_until(Timestamp::from_millis(10_000));
    assert_eq!(sim.metrics[v].delivered_msgs, 12);
    let trace = sim.trace().expect("tracing enabled");
    // 3 exchanges of 4 messages: per exchange one S1, one A1 and one
    // piggyback bundle of 4 S2s, each crossing 2 hops.
    assert_eq!(trace.count_kind(PacketKind::S1), 3 * 2);
    assert_eq!(trace.count_kind(PacketKind::A1), 3 * 2);
    assert_eq!(trace.count_kind(PacketKind::Bundle), 3 * 2);
    assert_eq!(trace.count_kind(PacketKind::Handshake), 2 * 2);
    // JSON round trip preserves everything.
    let json = trace.to_json_lines();
    let back = alpha::sim::Trace::from_json_lines(&json).unwrap();
    assert_eq!(back.entries().len(), trace.entries().len());
}

#[test]
fn full_duplex_streams_in_both_directions() {
    // Each host is signer AND verifier (§3.1): two independent simplex
    // channels share the association, so streams can flow both ways
    // concurrently.
    let mut sim = Simulator::new(24);
    let cfg = base_cfg();
    let app_a = App::Sender(SenderApp::new(Mode::Cumulative, 5, 100, 40));
    let app_b = App::Sender(SenderApp::new(Mode::Cumulative, 5, 100, 40));
    let a = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        2,
        app_a,
    )));
    let relay = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::geode_lx(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(a, 2)],
    )));
    let b = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::xeon(),
        cfg,
        1,
        a,
        app_b,
    )));
    sim.add_link(a, relay, LinkConfig::ideal());
    sim.add_link(relay, b, LinkConfig::ideal());
    sim.run_until(Timestamp::from_millis(30_000));
    assert_eq!(sim.metrics[b].delivered_msgs, 40, "a→b stream");
    assert_eq!(sim.metrics[a].delivered_msgs, 40, "b→a stream");
    // The relay verified both directions.
    assert!(sim.metrics[relay].extracted_payloads >= 80);
}

#[test]
fn latency_floor_is_one_and_a_half_rtts() {
    // §3.5: "For scenarios in which the maximum acceptable latency is below
    // 1.5 RTTs, ALPHA signatures are not applicable." Measure it: with a
    // symmetric one-way delay d, a message needs S1 (d) + A1 (d) + S2 (d) =
    // 3d = 1.5 RTT before delivery.
    let one_way_ms = 20u64;
    let mut sim = Simulator::new(25);
    sim.set_tick_us(1_000);
    let app = App::Sender(SenderApp::new(Mode::Base, 1, 64, 5));
    let link = LinkConfig {
        latency_us: one_way_ms * 1000,
        ..LinkConfig::ideal()
    };
    let (_s, _r, v) = protected_path(
        &mut sim,
        0,
        DeviceModel::xeon(),
        DeviceModel::xeon(),
        link,
        base_cfg(),
        app,
    );
    sim.run_until(Timestamp::from_millis(10_000));
    let m = &sim.metrics[v];
    assert_eq!(m.delivered_msgs, 5);
    let floor_us = 3 * one_way_ms * 1000;
    for &l in &m.latencies_us {
        assert!(
            l >= floor_us,
            "latency {l} µs below the 1.5-RTT floor {floor_us} µs"
        );
        assert!(
            l < floor_us + 10_000,
            "latency {l} µs far above the floor (tick slack only)"
        );
    }
}

#[test]
fn relay_scales_across_many_flows() {
    // §3.1.1: "on forwarding devices in particular, pre-signatures offer
    // significantly better scalability with the number of flows". Run 8
    // independent flows through one relay and check (a) everything
    // delivers, (b) per-flow relay state stays at the Table 2 level.
    use alpha::sim::star_through_engine;
    let mut sim = Simulator::new(30);
    let cfg = base_cfg();
    let pairs = 8;
    let (relay, endpoints) = star_through_engine(
        &mut sim,
        pairs,
        DeviceModel::xeon(),
        DeviceModel::geode_lx(),
        LinkConfig::ideal(),
        cfg,
        |_k| App::Sender(SenderApp::new(Mode::Cumulative, 5, 100, 20)),
    );
    sim.run_until(Timestamp::from_millis(30_000));
    for (k, (_s, r)) in endpoints.iter().enumerate() {
        assert_eq!(sim.metrics[*r].delivered_msgs, 20, "flow {k}");
    }
    // The relay verified every flow's payloads.
    assert!(sim.metrics[relay].extracted_payloads >= (pairs * 20) as u64);
    // Per-flow relay state: 4 chain trackers (~28 B each) + at most one
    // outstanding exchange's pre-signatures (5 × 20 B) + ack state.
    let core = &sim.node(relay).as_engine_relay().unwrap().core;
    assert_eq!(core.flow_count(), pairs);
    let per_flow = core.buffered_bytes() as usize / pairs;
    assert!(per_flow < 400, "per-flow relay bytes: {per_flow}");
}

#[test]
fn forged_s1_flood_dies_at_the_relay() {
    // §3.5: forged traffic dies one hop from the attacker. A flooder
    // wired to the relay claims the victim's association at 4,000
    // packets/s while a genuine stream runs; the relay serves only the
    // sender–victim pair it was built with, so no forged frame reaches
    // the victim and the stream loses nothing.
    let mut sim = Simulator::new(0xF100D);
    sim.set_tick_us(5_000);
    let cfg = base_cfg();
    let msgs = 100;
    let sender = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        2,
        App::Sender(SenderApp::new(Mode::Cumulative, 10, 512, msgs)),
    )));
    let relay = sim.add_node(Node::EngineRelay(alpha::sim::EngineRelayNode::new(
        DeviceModel::ar2315(),
        cfg,
        alpha::core::RelayConfig::default(),
        &[(sender, 2)],
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
            assoc_id: 1,
            alg: Algorithm::Sha1,
            per_tick: 20,
            injected: 0,
        },
    });
    sim.add_link(sender, relay, LinkConfig::ideal());
    sim.add_link(relay, victim, LinkConfig::ideal());
    sim.add_link(flooder, relay, LinkConfig::ideal());
    sim.run_until(Timestamp::from_millis(3_000));

    let Node::Attacker {
        attacker: Attacker::Flooder { injected, .. },
        ..
    } = *sim.node(flooder)
    else {
        unreachable!()
    };
    let v = &sim.metrics[victim];
    // Lossless links: the victim refuses a frame only if it is forged.
    assert!(
        v.drops.is_empty(),
        "forged frames reached the victim: {:?}",
        v.drops
    );
    assert_eq!(v.delivered_msgs, msgs as u64, "every genuine message");
    // Each forged S1 was dropped at the relay, under the engine's label;
    // only the last tick's batch may still be on the wire.
    let stopped = sim.metrics[relay].drops.get("unknown-association").copied();
    assert!(
        stopped.is_some_and(|n| n + 20 >= injected && n <= injected),
        "relay drops {:?} of {injected} injected",
        sim.metrics[relay].drops
    );
}

#[test]
fn tampered_s2_is_counted_under_bad_mac_at_the_next_relay() {
    // An on-path tamperer between two engine relays flips a payload byte
    // in S2s. The relay behind it drops each one, and the node counts
    // the drop under the engine's own reason label.
    use alpha::core::DropReason;
    let mut sim = Simulator::new(0x7A3);
    let cfg = base_cfg();
    let msgs = 40;
    let signer = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        4,
        App::Sender(SenderApp::new(Mode::Base, 1, 64, msgs)),
    )));
    let relay = || {
        Node::EngineRelay(alpha::sim::EngineRelayNode::new(
            DeviceModel::geode_lx(),
            cfg,
            alpha::core::RelayConfig::default(),
            &[(signer, 4)],
        ))
    };
    let relay_a = sim.add_node(relay());
    let tamperer = sim.add_node(Node::Attacker {
        device: DeviceModel::xeon(),
        attacker: Attacker::Tamperer {
            probability: 0.5,
            tampered: 0,
        },
    });
    let relay_b = sim.add_node(relay());
    let verifier = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::xeon(),
        cfg,
        1,
        signer,
        App::Sink,
    )));
    for w in [signer, relay_a, tamperer, relay_b, verifier].windows(2) {
        sim.add_link(w[0], w[1], LinkConfig::ideal());
    }
    sim.run_until(Timestamp::from_millis(20_000));

    let Node::Attacker {
        attacker: Attacker::Tamperer { tampered, .. },
        ..
    } = *sim.node(tamperer)
    else {
        unreachable!()
    };
    assert!(tampered > 0, "the tamperer struck");
    let rb = &sim.metrics[relay_b];
    let core = &sim.node(relay_b).as_engine_relay().unwrap().core;
    assert_eq!(core.metrics().drops(DropReason::BadMac), tampered);
    assert_eq!(
        rb.drops,
        [("bad-mac", tampered)].into_iter().collect(),
        "relay B counts each tampered S2 under its reason, and nothing else"
    );
    for (id, m) in sim.metrics.iter().enumerate() {
        assert!(
            !m.drops.contains_key("engine-drop"),
            "node {id}: {:?}",
            m.drops
        );
    }
    // Unreliable mode: a tampered message is lost, every other delivered.
    assert_eq!(sim.metrics[verifier].delivered_msgs + tampered, msgs as u64);
}

#[test]
fn echo_app_measures_round_trips() {
    // Request-response over ALPHA: the responder echoes each payload back
    // through its own signing channel. The requester's measured latency is
    // two full signature exchanges = 2 x 1.5 RTT = 3 RTT (echo preserves
    // the original timestamp header).
    let one_way_ms = 10u64;
    let mut sim = Simulator::new(40);
    sim.set_tick_us(1_000);
    let cfg = base_cfg();
    let requester = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::initiator(
        DeviceModel::xeon(),
        cfg,
        1,
        1, // peer is the echo server (next node)
        App::Sender(SenderApp::new(Mode::Base, 1, 64, 6)),
    )));
    let server = sim.add_node(Node::Endpoint(alpha::sim::Endpoint::responder(
        DeviceModel::xeon(),
        cfg,
        1,
        requester,
        App::Echo {
            pending: Vec::new(),
            echoed: 0,
        },
    )));
    let link = LinkConfig {
        latency_us: one_way_ms * 1000,
        ..LinkConfig::ideal()
    };
    sim.add_link(requester, server, link);
    sim.run_until(Timestamp::from_millis(20_000));

    assert_eq!(sim.metrics[server].delivered_msgs, 6, "requests arrived");
    assert_eq!(sim.metrics[requester].delivered_msgs, 6, "echoes arrived");
    let rtt_floor = 6 * one_way_ms * 1000; // 2 exchanges x 3 one-way trips
    for &l in &sim.metrics[requester].latencies_us {
        assert!(l >= rtt_floor, "round trip {l} µs below 2x1.5 RTT floor");
        assert!(l < rtt_floor + 40_000, "round trip {l} µs far above floor");
    }
    match sim.node(server).as_endpoint().unwrap().app {
        App::Echo { echoed, .. } => assert_eq!(echoed, 6),
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------------------
// Engine: many concurrent associations through one in-process relay
// ---------------------------------------------------------------------------

/// 32 simultaneous associations, each its own client/server pair, all
/// routed through ONE in-process relay engine over loopback UDP. Every
/// server must receive exactly its own client's payload — nothing less
/// (lost flows) and nothing more (cross-flow bleed).
#[test]
fn engine_relays_32_concurrent_associations_without_bleed() {
    use alpha::engine::{EngineConfig, EngineCore};
    use alpha::transport::Engine;
    use alpha::transport::UdpHost;
    use std::net::UdpSocket;
    use std::time::Duration;

    use alpha::transport::HandshakeAuth;

    const FLOWS: usize = 32;
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);

    // Reserve distinct loopback sockets for every endpoint up front so
    // the relay can be routed before anyone transmits. The sockets stay
    // bound and are handed to the hosts — releasing and re-binding the
    // addresses would race other ephemeral-port allocations.
    let reserve = |_: usize| UdpSocket::bind("127.0.0.1:0").unwrap();
    let client_socks: Vec<_> = (0..FLOWS).map(reserve).collect();
    let server_socks: Vec<_> = (0..FLOWS).map(reserve).collect();
    let client_addrs: Vec<_> = client_socks
        .iter()
        .map(|s| s.local_addr().unwrap())
        .collect();
    let server_addrs: Vec<_> = server_socks
        .iter()
        .map(|s| s.local_addr().unwrap())
        .collect();

    // One relay engine; all 32 address pairs are its routes.
    let relay_core = EngineCore::new(EngineConfig::new(cfg).with_shards(8));
    for i in 0..FLOWS {
        relay_core.add_route(client_addrs[i], server_addrs[i]);
    }
    let relay = Engine::bind("127.0.0.1:0", relay_core, 4).expect("relay bind");
    let relay_addr = relay.local_addr().unwrap();

    let servers: Vec<_> = server_socks
        .into_iter()
        .enumerate()
        .map(|(i, sock)| {
            std::thread::spawn(move || {
                let mut host = UdpHost::accept_socket(
                    cfg,
                    sock,
                    Duration::from_secs(30),
                    HandshakeAuth::default(),
                )
                .unwrap_or_else(|e| panic!("server {i} accept: {e}"));
                host.serve(Duration::from_millis(4000))
                    .unwrap_or_else(|e| panic!("server {i} serve: {e}"))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let clients: Vec<_> = client_socks
        .into_iter()
        .enumerate()
        .map(|(i, sock)| {
            std::thread::spawn(move || {
                let mut host = UdpHost::connect_socket(
                    cfg,
                    1000 + i as u64,
                    sock,
                    relay_addr,
                    Duration::from_secs(30),
                    HandshakeAuth::default(),
                )
                .unwrap_or_else(|e| panic!("client {i} connect: {e}"));
                let payload = format!("flow {i} payload");
                host.send_batch(&[payload.as_bytes()], Mode::Base, Duration::from_secs(20))
                    .unwrap_or_else(|e| panic!("client {i} send: {e}"));
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    for (i, s) in servers.into_iter().enumerate() {
        let delivered = s.join().expect("server thread");
        assert_eq!(
            delivered,
            vec![format!("flow {i} payload").into_bytes()],
            "server {i} must see exactly its own flow's payload"
        );
    }

    use std::sync::atomic::Ordering::Relaxed;
    let core = relay.core();
    assert_eq!(core.flow_count(), FLOWS, "one relay flow per association");
    let m = core.metrics();
    assert_eq!(
        m.s2_verified.load(Relaxed),
        FLOWS as u64,
        "relay verified every payload"
    );
    assert_eq!(
        m.handshakes.load(Relaxed),
        FLOWS as u64,
        "relay learned every association"
    );
    relay.shutdown();
}

/// Cross-flow forgery: with two flows mid-exchange (S1 buffered, S2
/// pending) at one relay engine, replaying flow B's perfectly valid S2
/// on flow A's route must be rejected — flow A's buffered pre-signature
/// must never authenticate another flow's traffic — and must not damage
/// flow A, whose own S2 still verifies afterwards.
#[test]
fn engine_relay_rejects_cross_flow_forged_s2() {
    use alpha::engine::EngineConfig;
    use net::{addr, Net};
    use std::sync::atomic::Ordering::Relaxed;

    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let mut rng = alpha::test_rng(4242);
    let (relay_addr, a_client, a_server, b_client, b_server) =
        (addr(1), addr(100), addr(101), addr(200), addr(201));

    // Endpoints address the relay, the relay addresses endpoints; source
    // addresses drive routing.
    let mut net = Net::new(4242);
    let mut ecfg = EngineConfig::new(cfg);
    ecfg.accept_handshakes = false;
    net.relay(
        relay_addr,
        ecfg,
        &[(a_client, a_server), (b_client, b_server)],
    );
    // Endpoint engines, each standing in for one UDP socket. Both flows
    // deliberately share assoc id 7: only addressing separates them.
    for endpoint in [a_client, a_server, b_client, b_server] {
        net.host(endpoint, EngineConfig::new(cfg));
    }
    let a_key = net.connect(a_client, relay_addr, 7);
    let b_key = net.connect(b_client, relay_addr, 7);
    // Handshakes completed; now put both flows mid-exchange, capturing
    // the S2s instead of delivering them.
    let (a_cli, b_cli) = (net.engine(a_client), net.engine(b_client));
    assert!(
        a_cli.flow_is_idle(a_key) && b_cli.flow_is_idle(b_key),
        "handshakes done"
    );
    net.now = Timestamp::from_millis(100);
    net.sign(a_client, a_key, &[b"payload of flow A"], Mode::Base)
        .unwrap();
    net.sign(b_client, b_key, &[b"payload of flow B"], Mode::Base)
        .unwrap();
    let held_s2: Vec<_> = net
        .pump_holding(|d| d.carries_s2())
        .into_iter()
        .map(|d| (d.src, d.frame))
        .collect();
    let relay_extracted = net.take(relay_addr).extracted.len();
    let relay = net.engine(relay_addr);
    // Both S1s traversed the relay (pre-signatures buffered), both A1s
    // came back, and both S2s are captured in our hand.
    assert_eq!(held_s2.len(), 2, "both S2s intercepted");
    assert_eq!(relay.flow_count(), 2, "two relay flows resident");
    assert!(
        relay.buffered_bytes() > 0,
        "relay holds buffered pre-signatures"
    );
    assert_eq!(relay_extracted, 0, "nothing verified yet");
    let (b_src, b_s2) = held_s2
        .iter()
        .find(|(s, _)| *s == b_client)
        .cloned()
        .unwrap();
    let (_, a_s2) = held_s2
        .iter()
        .find(|(s, _)| *s == a_client)
        .cloned()
        .unwrap();

    // THE FORGERY: flow B's valid S2 injected on flow A's route. Same
    // assoc id, same relay, valid chain — for the *other* flow. The
    // relay must verify it against flow A's pre-signature and refuse.
    let now = Timestamp::from_millis(500);
    let fails_before = relay.metrics().verify_failures.load(Relaxed);
    let out = relay.handle_datagram(a_client, &b_s2, now, &mut rng);
    assert!(out.datagrams.is_empty(), "forged S2 must not be forwarded");
    assert!(out.extracted.is_empty(), "forged S2 must not verify");
    assert!(
        relay.metrics().verify_failures.load(Relaxed) > fails_before,
        "forgery recorded as a verification failure"
    );
    assert_eq!(
        relay.flow_count(),
        2,
        "forgery must not create or destroy flows"
    );

    // Both legitimate S2s, from their true sources, still verify.
    let out = relay.handle_datagram(a_client, &a_s2, now, &mut rng);
    assert_eq!(
        out.extracted.len(),
        1,
        "flow A's own S2 verifies after the forgery"
    );
    assert_eq!(
        out.extracted.iter().next().map(|(_, p)| p),
        Some(&b"payload of flow A"[..])
    );
    assert_eq!(
        out.datagrams.len(),
        1,
        "flow A's S2 forwarded to its server"
    );
    let out = relay.handle_datagram(b_src, &b_s2, now, &mut rng);
    assert_eq!(
        out.extracted.len(),
        1,
        "flow B's S2 verifies on its own route"
    );
    assert_eq!(
        out.extracted.iter().next().map(|(_, p)| p),
        Some(&b"payload of flow B"[..])
    );
}
