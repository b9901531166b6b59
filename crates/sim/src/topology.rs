//! Topology builders for the paper's scenarios.
//!
//! Every ALPHA-aware relay a builder places is an engine relay, and the
//! builder hands it the endpoint pairs it serves, as `alpha engine
//! serve --route` takes them: [`protected_path`] and
//! [`star_through_engine`] build [`EngineRelayNode`]s,
//! [`chained_mesh_path`] builds [`MeshRelayNode`]s with static peer sets.

use alpha_core::{Config, RelayConfig};

use crate::device::DeviceModel;
use crate::link::LinkConfig;
use crate::node::{sim_node_addr, App, Endpoint, EngineRelayNode, MeshRelayNode, Node};
use crate::sim::{NodeId, Simulator};

/// The protected path of Fig. 1: a signer, `n_relays` ALPHA-aware relays,
/// and a verifier, connected in a chain over identical links.
///
/// Returns `(signer, relays, verifier)` node ids. The signer runs `app`;
/// the verifier is a sink.
pub fn protected_path(
    sim: &mut Simulator,
    n_relays: usize,
    endpoint_device: DeviceModel,
    relay_device: DeviceModel,
    link: LinkConfig,
    cfg: Config,
    app: App,
) -> (NodeId, Vec<NodeId>, NodeId) {
    let assoc_id = 0xA19A;
    // Ids are sequential: signer, relays…, verifier.
    let signer_id = sim.add_node(Node::Endpoint(Endpoint::initiator(
        endpoint_device,
        cfg,
        assoc_id,
        // Peer id is known by construction: signer + relays + 1.
        1 + n_relays,
        app,
    )));
    let served = [(signer_id, signer_id + 1 + n_relays)];
    let mut relays = Vec::with_capacity(n_relays);
    for _ in 0..n_relays {
        let relay = EngineRelayNode::new(relay_device, cfg, RelayConfig::default(), &served);
        relays.push(sim.add_node(Node::EngineRelay(relay)));
    }
    let verifier_id = sim.add_node(Node::Endpoint(Endpoint::responder(
        endpoint_device,
        cfg,
        assoc_id,
        signer_id,
        App::Sink,
    )));
    // Chain links.
    let chain: Vec<NodeId> = std::iter::once(signer_id)
        .chain(relays.iter().copied())
        .chain(std::iter::once(verifier_id))
        .collect();
    for w in chain.windows(2) {
        sim.add_link(w[0], w[1], link);
    }
    (signer_id, relays, verifier_id)
}

/// A star of `pairs` independent sender→receiver flows all crossing one
/// shared ALPHA-aware relay — the layout for relay-scalability
/// experiments ("pre-signatures offer significantly better scalability
/// with the number of flows", §3.1.1). The hub is one multi-flow
/// [`alpha_engine::EngineCore`] ([`crate::EngineRelayNode`]) serving
/// every pair: all `pairs` associations share one flow table, one
/// admission policy and one metrics registry — the deployment shape of
/// `alpha engine serve` under simulated time.
///
/// Returns `(engine_relay, [(sender, receiver); pairs])`.
pub fn star_through_engine(
    sim: &mut Simulator,
    pairs: usize,
    endpoint_device: DeviceModel,
    relay_device: DeviceModel,
    link: LinkConfig,
    cfg: Config,
    mut app_for_pair: impl FnMut(usize) -> App,
) -> (NodeId, Vec<(NodeId, NodeId)>) {
    let relay_cfg = RelayConfig {
        s1_bytes_per_sec: None,
        ..RelayConfig::default()
    };
    let hub = EngineRelayNode::new(relay_device, cfg, relay_cfg, &[]);
    let relay = sim.add_node(Node::EngineRelay(hub));
    let mut endpoints = Vec::with_capacity(pairs);
    for k in 0..pairs {
        let assoc_id = 0xE00u64 + k as u64;
        // Ids are sequential: relay is 0, then (sender, receiver) pairs.
        let sender_id = sim.add_node(Node::Endpoint(Endpoint::initiator(
            endpoint_device,
            cfg,
            assoc_id,
            relay + 2 + 2 * k, // the receiver added right after this sender
            app_for_pair(k),
        )));
        let receiver_id = sim.add_node(Node::Endpoint(Endpoint::responder(
            endpoint_device,
            cfg,
            assoc_id,
            sender_id,
            App::Sink,
        )));
        let hub = sim.node(relay).as_engine_relay().expect("the hub");
        hub.core
            .add_route(sim_node_addr(sender_id), sim_node_addr(receiver_id));
        sim.add_link(sender_id, relay, link);
        sim.add_link(receiver_id, relay, link);
        endpoints.push((sender_id, receiver_id));
    }
    (relay, endpoints)
}

/// Node ids of a [`chained_mesh_path`] topology.
pub struct MeshChain {
    /// The sending endpoint.
    pub signer: NodeId,
    /// The chain relays, in path order.
    pub relays: Vec<NodeId>,
    /// The standby relay, when `standby_for` was given.
    pub standby: Option<NodeId>,
    /// The receiving endpoint.
    pub verifier: NodeId,
}

/// A chained mesh path: signer → `n_relays` mesh relays → verifier,
/// every hop a [`MeshRelayNode`] with a *static* peer set (the paper's
/// bypass defense) that verifies before forwarding. With
/// `standby_for = Some(j)` (mid-path: `1 ≤ j ≤ n_relays - 2`), a
/// standby relay shadows `relays[j]`: relay `j-1` carries it as a
/// second next hop (and replicates handshakes to it), relay `j+1`
/// accepts it as a second upstream, and killing `relays[j]` mid-run
/// makes both neighbours fail the live path over to it within a
/// bounded number of probe intervals.
#[allow(clippy::too_many_arguments)] // a topology is its parameter list
pub fn chained_mesh_path(
    sim: &mut Simulator,
    n_relays: usize,
    standby_for: Option<usize>,
    endpoint_device: DeviceModel,
    relay_device: DeviceModel,
    link: LinkConfig,
    cfg: Config,
    mesh: alpha_mesh::MeshConfig,
    app: App,
) -> MeshChain {
    assert!(n_relays >= 1, "a mesh chain needs at least one relay");
    if let Some(j) = standby_for {
        assert!(
            j >= 1 && j + 1 < n_relays,
            "standby must shadow a mid-path relay (1 ≤ j ≤ n_relays - 2)"
        );
    }
    let assoc_id = 0xA19B;
    // Ids are sequential by construction: signer, relays…, verifier,
    // then the standby (if any) — so every relay can be configured with
    // its neighbours' ids before those nodes exist.
    let signer = 0;
    let relays: Vec<NodeId> = (1..=n_relays).collect();
    let verifier = n_relays + 1;
    let standby = standby_for.map(|_| n_relays + 2);

    let relay_cfg = RelayConfig::default();
    let signer_id = sim.add_node(Node::Endpoint(Endpoint::initiator(
        endpoint_device,
        cfg,
        assoc_id,
        verifier,
        app,
    )));
    debug_assert_eq!(signer_id, signer);
    for i in 0..n_relays {
        let prev = if i == 0 { signer } else { relays[i - 1] };
        let next = if i + 1 == n_relays {
            verifier
        } else {
            relays[i + 1]
        };
        let mut upstreams = vec![prev];
        let mut next_hops = vec![next];
        if let (Some(j), Some(sb)) = (standby_for, standby) {
            if i + 1 == j {
                // The relay upstream of the shadowed one forwards to it
                // by default but holds the standby in reserve.
                next_hops.push(sb);
            }
            if i == j + 1 {
                // The relay downstream accepts traffic from either.
                upstreams.push(sb);
            }
        }
        let id = sim.add_node(Node::MeshRelay(MeshRelayNode::new(
            relay_device,
            cfg,
            relay_cfg,
            mesh,
            &upstreams,
            &next_hops,
            &[prev],
        )));
        debug_assert_eq!(id, relays[i]);
    }
    let verifier_id = sim.add_node(Node::Endpoint(Endpoint::responder(
        endpoint_device,
        cfg,
        assoc_id,
        signer,
        App::Sink,
    )));
    debug_assert_eq!(verifier_id, verifier);
    if let (Some(j), Some(sb)) = (standby_for, standby) {
        let id = sim.add_node(Node::MeshRelay(MeshRelayNode::new(
            relay_device,
            cfg,
            relay_cfg,
            mesh,
            &[relays[j - 1]],
            &[relays[j + 1]],
            &[relays[j - 1]],
        )));
        debug_assert_eq!(id, sb);
    }

    // Chain links, plus the detour around the shadowed relay.
    let chain: Vec<NodeId> = std::iter::once(signer)
        .chain(relays.iter().copied())
        .chain(std::iter::once(verifier))
        .collect();
    for w in chain.windows(2) {
        sim.add_link(w[0], w[1], link);
    }
    if let (Some(j), Some(sb)) = (standby_for, standby) {
        sim.add_link(relays[j - 1], sb, link);
        sim.add_link(sb, relays[j + 1], link);
    }
    MeshChain {
        signer,
        relays,
        standby,
        verifier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SenderApp;
    use alpha_core::{Mode, Timestamp};
    use alpha_crypto::Algorithm;

    #[test]
    fn handshake_completes_over_three_hops() {
        let mut sim = Simulator::new(1);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
        let (s, relays, v) = protected_path(
            &mut sim,
            2,
            DeviceModel::xeon(),
            DeviceModel::geode_lx(),
            LinkConfig::ideal(),
            cfg,
            App::Sink,
        );
        sim.run_until(Timestamp::from_millis(200));
        assert!(sim.node(s).as_endpoint().unwrap().is_ready());
        assert!(sim.node(v).as_endpoint().unwrap().is_ready());
        for r in relays {
            let core = &sim.node(r).as_engine_relay().unwrap().core;
            assert_eq!(core.flow_count(), 1);
        }
    }

    #[test]
    fn multi_flow_star_through_engine_delivers_and_isolates() {
        let mut sim = Simulator::new(7);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(256);
        const PAIRS: usize = 8;
        const MSGS: usize = 20;
        let (relay, endpoints) = star_through_engine(
            &mut sim,
            PAIRS,
            DeviceModel::xeon(),
            DeviceModel::ar2315(),
            LinkConfig::ideal(),
            cfg,
            |_| App::Sender(SenderApp::new(Mode::Cumulative, 5, 64, MSGS)),
        );
        sim.run_until(Timestamp::from_millis(20_000));
        for (k, (_s, r)) in endpoints.iter().enumerate() {
            assert_eq!(
                sim.metrics[*r].delivered_msgs, MSGS as u64,
                "flow {k} delivered fully (drops: {:?})",
                sim.metrics[*r].drops
            );
        }
        // One engine carried every flow: a flow-table entry per pair, a
        // verified payload per message, a learned association per pair.
        let core = &sim.node(relay).as_engine_relay().unwrap().core;
        assert_eq!(core.flow_count(), PAIRS);
        use std::sync::atomic::Ordering::Relaxed;
        let m = core.metrics();
        assert!(m.s2_verified.load(Relaxed) >= (PAIRS * MSGS) as u64 / 5);
        assert_eq!(m.handshakes.load(Relaxed), PAIRS as u64);
        assert_eq!(
            sim.metrics[relay].extracted_payloads,
            m.s2_verified.load(Relaxed),
            "sim metrics and engine metrics agree"
        );
    }

    #[test]
    fn stream_delivers_over_lossless_path() {
        let mut sim = Simulator::new(2);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(256);
        let app = App::Sender(SenderApp::new(Mode::Cumulative, 5, 64, 50));
        let (_s, relays, v) = protected_path(
            &mut sim,
            2,
            DeviceModel::xeon(),
            DeviceModel::geode_lx(),
            LinkConfig::ideal(),
            cfg,
            app,
        );
        sim.run_until(Timestamp::from_millis(5_000));
        let m = &sim.metrics[v];
        assert_eq!(m.delivered_msgs, 50, "drops: {:?}", m.drops);
        // Relays verified every delivered payload in transit.
        assert!(sim.metrics[relays[0]].extracted_payloads >= 50);
        // Latencies were recorded and are plausible (≥ 3 link crossings).
        assert_eq!(m.latencies_us.len(), 50);
        assert!(m.latencies_us.iter().all(|&l| l >= 3_000));
    }

    fn fast_mesh() -> alpha_mesh::MeshConfig {
        alpha_mesh::MeshConfig {
            probe_interval_us: 50_000,
            initial_rto_us: 100_000,
            ..alpha_mesh::MeshConfig::default()
        }
    }

    #[test]
    fn mesh_chain_delivers_with_verification_at_every_hop() {
        let mut sim = Simulator::new(11);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(256);
        const MSGS: usize = 30;
        let chain = chained_mesh_path(
            &mut sim,
            3,
            None,
            DeviceModel::xeon(),
            DeviceModel::geode_lx(),
            LinkConfig::ideal(),
            cfg,
            fast_mesh(),
            App::Sender(SenderApp::new(Mode::Cumulative, 5, 64, MSGS)),
        );
        sim.run_until(Timestamp::from_millis(20_000));
        let m = &sim.metrics[chain.verifier];
        assert_eq!(m.delivered_msgs, MSGS as u64, "drops: {:?}", m.drops);
        // Every hop ran full ALPHA verification: each relay's engine
        // verified every S2 (and extracted its payload in transit).
        use std::sync::atomic::Ordering::Relaxed;
        for &r in &chain.relays {
            let core = &sim.node(r).as_mesh_relay().unwrap().core;
            assert_eq!(
                core.metrics().s2_verified.load(Relaxed),
                MSGS as u64,
                "relay {r} verified every payload hop-by-hop"
            );
            assert_eq!(core.flow_count(), 1);
            assert_eq!(sim.metrics[r].extracted_payloads, MSGS as u64);
        }
    }

    #[test]
    fn mesh_chain_rejects_traffic_from_outside_the_relay_set() {
        // An attacker wired directly to a mid-chain relay: its frames
        // reach the relay but its address is not in the upstream set,
        // so the engine's mesh filter drops them all (bypass defense).
        let mut sim = Simulator::new(13);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(256);
        const MSGS: usize = 10;
        let chain = chained_mesh_path(
            &mut sim,
            3,
            None,
            DeviceModel::xeon(),
            DeviceModel::geode_lx(),
            LinkConfig::ideal(),
            cfg,
            fast_mesh(),
            App::Sender(SenderApp::new(Mode::Base, 1, 64, MSGS)),
        );
        let intruder = sim.add_node(Node::Attacker {
            device: DeviceModel::xeon(),
            attacker: crate::node::Attacker::Flooder {
                dst: chain.relays[1],
                assoc_id: 0xA19B,
                alg: Algorithm::Sha1,
                per_tick: 2,
                injected: 0,
            },
        });
        sim.add_link(intruder, chain.relays[1], LinkConfig::ideal());
        sim.run_until(Timestamp::from_millis(20_000));
        use std::sync::atomic::Ordering::Relaxed;
        let core = &sim.node(chain.relays[1]).as_mesh_relay().unwrap().core;
        let rejects = core.metrics().mesh.upstream_rejects.load(Relaxed);
        assert!(rejects > 0, "intruder frames rejected by the peer filter");
        // Legitimate traffic is unharmed.
        assert_eq!(
            sim.metrics[chain.verifier].delivered_msgs, MSGS as u64,
            "drops: {:?}",
            sim.metrics[chain.verifier].drops
        );
    }

    #[test]
    fn mesh_chain_mid_relay_death_fails_over_to_standby() {
        let mut sim = Simulator::new(17);
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(1024)
            .with_rto_micros(100_000);
        const MSGS: usize = 40;
        // Pace the sender so the stream is still in flight at the kill.
        let mut app = SenderApp::new(Mode::Cumulative, 4, 64, MSGS);
        app.interval_us = 50_000;
        let chain = chained_mesh_path(
            &mut sim,
            3,
            Some(1),
            DeviceModel::xeon(),
            DeviceModel::geode_lx(),
            LinkConfig::ideal(),
            cfg,
            fast_mesh(),
            App::Sender(app),
        );
        let standby = chain.standby.unwrap();
        // Let roughly half the stream through, then crash the shadowed
        // mid-path relay.
        let mut t = 0;
        while sim.metrics[chain.verifier].delivered_msgs < (MSGS / 2) as u64 {
            t += 50;
            assert!(t < 30_000, "stream stalled before the crash");
            sim.run_until(Timestamp::from_millis(t));
        }
        let before = sim.metrics[chain.verifier].delivered_msgs;
        assert!(
            before < MSGS as u64,
            "the crash must land mid-stream, not after it"
        );
        sim.node_mut(chain.relays[1])
            .as_mesh_relay_mut()
            .unwrap()
            .kill();
        sim.run_until(Timestamp::from_millis(t + 60_000));

        // The flow completed despite the mid-path death (the abandoned
        // in-flight exchange was re-offered, so duplicates are possible
        // but losses are not).
        let m = &sim.metrics[chain.verifier];
        assert!(
            m.delivered_msgs >= MSGS as u64,
            "delivered {} of {MSGS} (drops: {:?})",
            m.delivered_msgs,
            m.drops
        );
        // Both neighbours of the dead relay applied a failover: the
        // upstream one moved its forward path, the downstream one its
        // reverse path.
        let up = sim.node(chain.relays[0]).as_mesh_relay().unwrap();
        let down = sim.node(chain.relays[2]).as_mesh_relay().unwrap();
        assert!(up.failovers() >= 1, "upstream neighbour failed over");
        assert!(down.failovers() >= 1, "downstream neighbour failed over");
        // The standby carried the rest of the stream, verifying it.
        use std::sync::atomic::Ordering::Relaxed;
        let sb = sim.node(standby).as_mesh_relay().unwrap();
        assert!(
            sb.core.metrics().s2_verified.load(Relaxed) > 0,
            "standby verified traffic after taking over"
        );
        // The dead relay swallowed whatever still reached it.
        assert!(
            sim.metrics[chain.relays[1]]
                .drops
                .get("dead-relay")
                .copied()
                > Some(0)
        );
    }

    #[test]
    fn stream_survives_lossy_path_with_reliability() {
        let mut sim = Simulator::new(3);
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(1024)
            .with_reliability(alpha_core::Reliability::Reliable)
            .with_rto_micros(50_000);
        let app = App::Sender(SenderApp::new(Mode::Merkle, 8, 64, 64));
        let (_s, _relays, v) = protected_path(
            &mut sim,
            1,
            DeviceModel::xeon(),
            DeviceModel::geode_lx(),
            LinkConfig::ideal().with_loss(0.05),
            cfg,
            app,
        );
        sim.run_until(Timestamp::from_millis(60_000));
        let m = &sim.metrics[v];
        assert_eq!(m.delivered_msgs, 64, "drops: {:?}", m.drops);
    }
}
