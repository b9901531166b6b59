//! The engine's deterministic in-memory unit tests: engines on the
//! shared virtual network (`tests/common/net.rs`), with no sockets and
//! a virtual clock. Compiled only under `cfg(test)`.
#[cfg(test)]
use super::*;
use std::sync::atomic::Ordering;

use alpha_core::{Config, Mode};
use alpha_crypto::Algorithm;
use alpha_store::PacerConfig;
use alpha_wire::Packet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mesh;

#[path = "../../tests/common/net.rs"]
mod net;
use net::{addr, client as ca, packets, server as sa, Datagram, Net};

fn cfg() -> EngineConfig {
    EngineConfig::new(Config::new(Algorithm::Sha1).with_chain_len(64))
}

/// A client engine with one flow to a server engine.
fn connected(
    client: EngineConfig,
    server: EngineConfig,
    seed: u64,
    assoc_id: u64,
) -> (Net, FlowKey) {
    let (mut net, hop) = Net::path(seed, client, server, None);
    let key = net.connect(ca(), hop, assoc_id);
    (net, key)
}

/// Sign `msgs` on the client's flow and pump: what the server delivered.
fn exchange(net: &mut Net, key: FlowKey, msgs: &[&[u8]], mode: Mode) -> EngineOutput {
    net.sign(ca(), key, msgs, mode).expect("sign");
    net.pump();
    net.take(sa())
}

#[test]
fn connect_accept_and_exchange_in_memory() {
    let (mut net, key) = connected(cfg(), cfg(), 7, 42);
    let (from_client, from_server) = (net.take(ca()), net.take(sa()));
    assert_eq!(
        from_client.completed,
        vec![key],
        "client handshake completed"
    );
    assert_eq!(from_server.completed.len(), 1, "server stood up the flow");
    let (client, server) = (net.engine(ca()), net.engine(sa()));
    assert_eq!(client.flow_count(), 1);
    assert_eq!(server.flow_count(), 1);
    assert_eq!(server.metrics().handshakes.load(Ordering::Relaxed), 1);

    let from_server = exchange(&mut net, key, &[b"engine hello"], Mode::Base);
    assert_eq!(from_server.delivered.len(), 1);
    assert_eq!(from_server.delivered[0].2, b"engine hello");
    let client = net.engine(ca());
    assert!(client.flow_is_idle(key), "exchange finished");
    assert_eq!(client.metrics().rtt_us.count(), 1, "RTT sampled");
}

/// A bundle's `u16` length prefix cannot frame a maximum-payload S2, so
/// a batch of them goes out one packet per datagram instead of
/// mis-framed (or not at all).
#[test]
fn packets_too_long_for_a_bundle_go_out_unbundled() {
    let (mut net, key) = connected(cfg(), cfg(), 8, 42);
    let big = vec![0x5A; alpha_wire::limits::MAX_PAYLOAD];
    let from_server = exchange(&mut net, key, &[&big, &big], Mode::Cumulative);
    let delivered: Vec<&[u8]> = from_server
        .delivered
        .iter()
        .map(|d| d.2.as_slice())
        .collect();
    assert_eq!(delivered, [&big[..], &big[..]]);
}

#[test]
fn steady_state_s2_path_is_uncontended_within_its_lock_budget() {
    // With no other worker in the shard, the steady-state S2 verify
    // path acquires zero *contended* (blocking) locks — and in debug
    // builds the per-thread lock counter bounds the uncontended
    // acquisitions to the documented budget of at most two per
    // datagram (kind peek + state update).
    let (mut net, key) = connected(cfg(), cfg(), 99, 77);

    // Stage one steady-state exchange by hand: S1 -> A1 -> S2.
    net.sign(ca(), key, &[b"steady-state"], Mode::Base)
        .expect("sign");
    net.deliver(0);
    net.deliver(0);
    let s2: Vec<Datagram> = net.flight.drain(..).collect();
    assert!(!s2.is_empty(), "client staged its S2");

    // Measure the S2 verify path alone, as the receiving worker.
    let server = net.engine(sa());
    crate::shard::reset_thread_lock_count();
    let contended_before = server.lock_contended();
    let s2r: Vec<(SocketAddr, &[u8])> = s2.iter().map(|d| (d.src, &d.frame[..])).collect();
    let out = server.handle_datagrams(&s2r, net.now, &mut StdRng::seed_from_u64(99));
    assert_eq!(out.delivered.len(), 1, "payload delivered");
    assert_eq!(
        server.lock_contended() - contended_before,
        0,
        "a lone worker's S2 path is contention-free"
    );
    #[cfg(debug_assertions)]
    {
        let taken = crate::shard::locks_taken_on_thread();
        assert!(
            taken >= 1 && taken <= 2 * s2r.len() as u64,
            "lock budget: {taken} acquisitions for {} datagrams",
            s2r.len()
        );
    }
    // The runtime snapshot carries the same counter.
    let snap = server.snapshot();
    let runtime = snap.get("runtime").expect("runtime section");
    assert_eq!(
        runtime.get("lock_contended").and_then(serde::Value::as_u64),
        Some(server.lock_contended())
    );
}

#[test]
fn relay_flow_verifies_and_forwards() {
    let (mut net, ra) = Net::path(8, cfg(), cfg(), Some(cfg()));

    // Every datagram passes through the relay engine.
    let key = net.connect(ca(), ra, 9);
    assert!(
        net.take(ca()).completed.contains(&key),
        "handshake completed through the relay"
    );
    assert_eq!(
        net.engine(ra).flow_count(),
        1,
        "one relay flow for the pair"
    );

    net.sign(ca(), key, &[b"via relay"], Mode::Base).unwrap();
    net.pump();
    let s2_verified = |at| {
        let e: &EngineCore = net.engine(at);
        e.metrics().s2_verified.load(Ordering::Relaxed)
    };
    assert_eq!(s2_verified(ra), 1);
    assert_eq!(s2_verified(sa()), 1);
}

/// A relay flow verifies with the deployment's MAC construction: under
/// prefix MACs, every mode reaches the server through a relay engine on
/// the hosts' own config, and the relay drops nothing as a bad MAC.
#[test]
fn relay_flows_verify_with_the_deployment_mac_scheme() {
    use alpha_core::{MacScheme, Reliability};
    for (reliability, mode, n) in [
        (Reliability::Unreliable, Mode::Base, 1),
        (Reliability::Unreliable, Mode::Cumulative, 2),
        (Reliability::Unreliable, Mode::Merkle, 4),
        (Reliability::Reliable, Mode::Base, 1),
    ] {
        let proto = Config::new(Algorithm::Sha1)
            .with_chain_len(64)
            .with_mac_scheme(MacScheme::Prefix)
            .with_reliability(reliability);
        let c = EngineConfig::new(proto);
        let (mut net, ra) = Net::path(41, c, c, Some(c));
        let key = net.connect(ca(), ra, 5);
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("prefix {i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let from_server = exchange(&mut net, key, &refs, mode);
        let delivered: Vec<Vec<u8>> = from_server
            .delivered
            .into_iter()
            .map(|(_, _, p)| p)
            .collect();
        assert_eq!(delivered, msgs, "{mode:?}, {reliability:?}");
        let relay = net.engine(ra).metrics();
        assert_eq!(relay.drops(DropReason::BadMac), 0, "{mode:?}");
        assert_eq!(relay.s2_verified.load(Ordering::Relaxed), n as u64);
    }
}

#[test]
fn mesh_filter_rejects_unregistered_sources() {
    let relay = EngineCore::new(cfg());
    let ca = addr(1150);
    let sa = addr(2150);
    let intruder = addr(6666);
    relay.add_route(ca, sa);
    relay.mesh_register_peer(ca);
    relay.mesh_register_peer(sa);
    relay.mesh_enable(true);
    let mut rng = StdRng::seed_from_u64(21);
    let now = Timestamp::from_millis(1);

    // A legitimate HS1 from the registered upstream passes.
    let client = EngineCore::new(cfg());
    let (_key, out) = client.connect(sa, 9, now, &mut rng);
    let hs1 = out.datagrams[0].1.clone();
    let o = relay.handle_datagram(ca, &hs1, now, &mut rng);
    assert_eq!(o.datagrams.len(), 1, "registered upstream forwarded");

    // The same bytes from an unregistered source are rejected
    // before any flow-table work.
    let flows_before = relay.flow_count();
    let o = relay.handle_datagram(intruder, &hs1, now, &mut rng);
    assert!(o.datagrams.is_empty(), "bypass attempt not forwarded");
    assert_eq!(relay.flow_count(), flows_before, "no flow stood up");
    assert_eq!(
        relay
            .metrics()
            .mesh
            .upstream_rejects
            .load(Ordering::Relaxed),
        1
    );
}

#[test]
fn mesh_replicates_handshakes_and_standby_absorbs_learn_only() {
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let relay = EngineCore::new(cfg());
    let standby = EngineCore::new(cfg());
    let ca = addr(1160);
    let sa = addr(2160);
    let sb = addr(3160);
    relay.add_route(ca, sa);
    relay.mesh_add_standby(sb);
    standby.add_route(ca, sa);
    let mut rng = StdRng::seed_from_u64(22);
    let now = Timestamp::from_millis(1);

    // HS1 through the relay: forwarded to the server AND replicated
    // (wrapped) to the standby.
    let (key, out) = client.connect(sa, 11, now, &mut rng);
    let o = relay.handle_datagram(ca, &out.datagrams[0].1, now, &mut rng);
    let fwd: Vec<_> = o.datagrams.iter().filter(|(d, _)| *d == sa).collect();
    let rep: Vec<_> = o.datagrams.iter().filter(|(d, _)| *d == sb).collect();
    assert_eq!((fwd.len(), rep.len()), (1, 1));
    let inner_hs1 = mesh::parse_replica(&rep[0].1)
        .expect("replica wrapped")
        .to_vec();
    standby.absorb_replica(ca, &inner_hs1, now, &mut rng);

    // HS2 back through the relay: same replication, then both the
    // client and the standby see it.
    let o2 = server.handle_datagram(ca, &fwd[0].1, now, &mut rng);
    let o3 = relay.handle_datagram(sa, &o2.datagrams[0].1, now, &mut rng);
    let fwd2: Vec<_> = o3.datagrams.iter().filter(|(d, _)| *d == ca).collect();
    let rep2: Vec<_> = o3.datagrams.iter().filter(|(d, _)| *d == sb).collect();
    assert_eq!((fwd2.len(), rep2.len()), (1, 1));
    let inner_hs2 = mesh::parse_replica(&rep2[0].1)
        .expect("replica wrapped")
        .to_vec();
    standby.absorb_replica(ca, &inner_hs2, now, &mut rng);
    client.handle_datagram(sa, &fwd2[0].1, now, &mut rng);
    assert_eq!(
        standby
            .metrics()
            .mesh
            .replicas_absorbed
            .load(Ordering::Relaxed),
        2
    );
    assert_eq!(standby.flow_count(), 1, "standby learned the pair");

    // The standby can now verify live traffic it never handshook:
    // an S2 bundle fed straight at it passes verification.
    let out = client
        .sign_batch(key, &[b"failover data".as_slice()], Mode::Base, now)
        .unwrap();
    let o = standby.handle_datagram(ca, &out.datagrams[0].1, now, &mut rng);
    assert_eq!(o.datagrams.len(), 1, "S1 forwarded by the standby");
    assert_eq!(
        standby.metrics().handshakes.load(Ordering::Relaxed),
        1,
        "association learned from replicas alone"
    );
}

#[test]
fn reroute_moves_relay_pair_with_buffered_state() {
    // Addresses chosen so the canonical pair key IS the old next
    // hop: reroute must re-key the relay flow, preserving buffered
    // pre-signatures.
    let ca = addr(2170); // client ranks ABOVE both next hops
    let sa = addr(1170); // primary next hop = canonical left
    let sa2 = addr(1171); // standby next hop
    let ra = addr(3170);
    let mut net = Net::new(23);
    net.host(ca, cfg());
    net.host(sa, cfg());
    net.relay(ra, cfg(), &[(ca, sa)]);

    // Handshake + one buffered S1 through the relay.
    let key = net.connect(ca, ra, 13);
    net.sign(ca, key, &[b"inflight"], Mode::Base).unwrap();
    let s1 = net.flight[0].frame.clone();
    net.deliver(0);
    let relay = net.engine(ra);
    let buffered = relay.buffered_bytes();
    assert!(buffered > 0, "pre-signature buffered before failover");

    // Failover: the pair's flow moves to the new canonical key with
    // its buffered state intact, and forwarding retargets sa2.
    let moved = relay.reroute(sa, sa2);
    assert_eq!(moved, 1, "one relay flow moved");
    assert_eq!(relay.buffered_bytes(), buffered, "buffer state moved");
    assert_eq!(relay.metrics().mesh.failovers.load(Ordering::Relaxed), 1);
    let mut rng = StdRng::seed_from_u64(23);
    let o = relay.handle_datagram(ca, &s1, net.now, &mut rng);
    assert!(
        o.datagrams.iter().all(|(d, _)| *d == sa2),
        "traffic re-routed to the standby"
    );
    // Reverse direction follows the back-pointer.
    net.deliver(0);
    for reply in std::mem::take(&mut net.flight) {
        let o = net
            .engine(ra)
            .handle_datagram(sa2, &reply.frame, net.now, &mut rng);
        assert!(o.datagrams.iter().all(|(d, _)| *d == ca));
    }
}

#[test]
fn reroute_moves_host_flows_to_new_peer() {
    // Verifier-side failover: established host flows keyed to the
    // old upstream re-key to the new one and keep delivering.
    let ca2 = addr(1001);
    let (mut net, key) = connected(cfg(), cfg(), 24, 31);
    assert_eq!(net.engine(sa()).flow_count(), 1);

    let moved = net.engine(sa()).reroute(ca(), ca2);
    assert_eq!(moved, 1, "host flow moved to the new peer key");
    // Traffic now arrives from ca2 (the standby path) and is
    // handled by the moved association; replies target ca2.
    let key = standby_path(&mut net, ca2, key);
    net.sign(ca(), key, &[b"after failover"], Mode::Base)
        .unwrap();
    let replies = net.pump_holding(|d| d.src == sa());
    assert!(
        replies.iter().all(|d| d.dst == ca2),
        "server replies to the new peer"
    );
    net.flight.extend(replies);
    net.pump();
    let delivered = net.take(sa()).delivered.len();
    assert_eq!(delivered, 1, "flow completed after the move");
}

/// Carry the client's flow `key` over a standby path at `via`: the
/// client sends to it, and it passes datagrams on between the client
/// and the server as if from itself. Returns the flow's new key.
fn standby_path(net: &mut Net, via: SocketAddr, key: FlowKey) -> FlowKey {
    net.relay(via, cfg(), &[(ca(), sa())]);
    net.bypass(via);
    assert_eq!(net.engine(ca()).reroute(key.peer, via), 1);
    FlowKey { peer: via, ..key }
}

#[test]
fn tx_frames_recycle_through_the_pool() {
    let (mut net, key) = connected(cfg(), cfg(), 13, 4);
    // Each exchange checks frames out of both engines' pools and the
    // network drops them again: once warm, exchanges reuse, not allocate.
    let fresh = |net: &Net| [ca(), sa()].map(|at| net.engine(at).frame_pool().stats().fresh);
    for i in 0..4u8 {
        exchange(&mut net, key, &[[i; 16].as_slice()], Mode::Base);
    }
    let warm = fresh(&net);
    assert!(warm.iter().all(|&f| f > 0), "both engines sent: {warm:?}");
    for i in 4..16u8 {
        exchange(&mut net, key, &[[i; 16].as_slice()], Mode::Base);
    }
    assert_eq!(
        fresh(&net),
        warm,
        "client and server allocated after warm-up"
    );
}

#[test]
fn handshake_resends_use_backoff_and_give_up() {
    let client = EngineCore::new(cfg());
    let sa = addr(2200);
    let mut rng = StdRng::seed_from_u64(9);
    let (_key, out) = client.connect(sa, 5, Timestamp::from_millis(1), &mut rng);
    assert_eq!(out.datagrams.len(), 1, "HS1 sent immediately");
    // No reply ever arrives: polling far in the future must resend
    // (with growing gaps) and eventually abandon the flow.
    let mut resends = 0;
    let mut t = Timestamp::from_millis(1);
    for _ in 0..4000 {
        t = t.plus_micros(20_000);
        let o = client.poll(t, &mut rng);
        resends += o.datagrams.len();
        if client.flow_count() == 0 {
            break;
        }
    }
    assert!(
        resends > 3,
        "multiple resends before giving up, got {resends}"
    );
    assert!(
        resends <= timers::HANDSHAKE_RETRIES as usize + 1,
        "bounded by the retry budget, got {resends}"
    );
    assert_eq!(client.flow_count(), 0, "abandoned flow was reaped");
}

#[test]
fn admission_limiter_sheds_s1_floods() {
    let mut c = cfg();
    c.s1_bytes_per_sec = Some(512); // tiny budget
    let (mut net, key) = connected(cfg(), c, 10, 77);
    // Replay one S1 far past the 512 B/s budget: the engine must start
    // shedding, charging the flow's bucket under the one shard lock
    // that judging the S1 takes anyway, admitted or shed.
    net.sign(ca(), key, &[b"flood"], Mode::Base).unwrap();
    let s1 = net.drop(0).frame;
    let server = net.engine(sa());
    for _ in 0..64 {
        crate::shard::reset_thread_lock_count();
        server.handle_datagram(ca(), &s1, net.now, &mut StdRng::seed_from_u64(10));
        #[cfg(debug_assertions)]
        assert_eq!(
            crate::shard::locks_taken_on_thread(),
            1,
            "one S1 on a host flow takes one shard lock"
        );
    }
    let shed = server.metrics().admission_drops.load(Ordering::Relaxed);
    assert!(shed > 32, "flood was shed by admission, got {shed}");
}

/// An S1 whose element (the hash of `seed`) is on nobody's chain, for
/// the right association: what a stranger can aim at a flow from its
/// peer's address.
fn forged_s1(assoc_id: u64, chain_index: u64, seed: u64) -> Vec<u8> {
    use alpha_wire::{Body, Packet, PreSignature};
    let junk = Algorithm::Sha1.hash(&seed.to_le_bytes());
    Packet {
        assoc_id,
        alg: Algorithm::Sha1,
        chain_index,
        body: Body::S1 {
            element: junk,
            presig: PreSignature::Cumulative(vec![junk]),
        },
    }
    .emit()
}

/// A relay flow's one S1 bucket is the relay's own, charged only once
/// the chain element authenticates: forged S1s from the sender's
/// address, however many, die at the chain check and leave the
/// sender's budget whole.
#[test]
fn forged_s1s_at_a_relay_do_not_starve_the_sender() {
    let relay = cfg().with_s1_budget(Some(4096));
    let (mut net, ra) = Net::path(36, cfg(), cfg(), Some(relay));
    let key = net.connect(ca(), ra, 5);
    let first_s1 = cfg().protocol.chain_len - 2; // the client's next S1
    let forgeries = 64;
    for seed in 0..forgeries {
        net.flight.push(Datagram {
            src: ca(),
            dst: ra,
            frame: forged_s1(5, first_s1, seed),
        });
    }
    net.pump();
    net.sign(ca(), key, &[b"authentic"], Mode::Base).unwrap();
    net.pump();
    assert_eq!(net.delivered(sa()), [b"authentic".to_vec()]);
    let relay = net.engine(ra).metrics();
    assert_eq!(relay.admission_drops.load(Ordering::Relaxed), 0);
    assert_eq!(relay.drops(DropReason::BadChainElement), forgeries);
}

/// The host twin of the relay test above: the server's flow charges its
/// S1 bucket before the verifier judges the chain element, so forged
/// S1s from the client's address spend the client's budget and the
/// authentic message that follows is shed. Passing needs the verifier
/// to report whether the element authenticated before the charge.
#[test]
#[ignore = "known defect: a host flow's S1 bucket charges before authentication (ROADMAP item 10)"]
fn forged_s1s_at_a_host_do_not_starve_the_sender() {
    let server = cfg().with_s1_budget(Some(4096));
    let (mut net, host) = Net::path(37, cfg(), server, None);
    let key = net.connect(ca(), host, 5);
    let first_s1 = cfg().protocol.chain_len - 2; // the client's next S1
    for seed in 0..64 {
        net.flight.push(Datagram {
            src: ca(),
            dst: host,
            frame: forged_s1(5, first_s1, seed),
        });
    }
    net.pump();
    net.sign(ca(), key, &[b"authentic"], Mode::Base).unwrap();
    net.pump();
    let shed = net
        .engine(host)
        .metrics()
        .admission_drops
        .load(Ordering::Relaxed);
    assert_eq!(
        net.delivered(host),
        [b"authentic".to_vec()],
        "admission_drops {shed}"
    );
}

#[test]
fn backpressure_valve_sheds_when_buffers_full() {
    let mut c = cfg();
    c.max_buffered_bytes = Some(0); // valve closed as soon as anything buffers
    let (mut net, ra) = Net::path(11, cfg(), cfg(), Some(c));
    // The relay learns the association from the handshake it carries.
    let key = net.connect(ca(), ra, 3);
    // First S1 buffers a pre-signature; gauge goes positive; the
    // next S1 must hit the valve.
    net.sign(ca(), key, &[b"one"], Mode::Base).unwrap();
    let s1a = net.drop(0).frame;
    let relay = net.engine(ra);
    let mut rng = StdRng::seed_from_u64(11);
    relay.handle_datagram(ca(), &s1a, net.now, &mut rng);
    assert!(relay.buffered_bytes() > 0, "pre-signature buffered");
    relay.handle_datagram(ca(), &s1a, net.now, &mut rng);
    assert!(
        relay.metrics().backpressure_drops.load(Ordering::Relaxed) >= 1,
        "valve shed the second S1"
    );
}

#[test]
fn stats_json_roundtrips() {
    let engine = EngineCore::new(cfg());
    let v: serde::Value = serde_json::from_str(&engine.stats_json()).unwrap();
    assert_eq!(v.get("flows").unwrap().as_u64(), Some(0));
    assert!(v.get("metrics").unwrap().get("packets_in").is_some());
}

#[test]
fn adaptive_flow_escalates_under_loss_and_reports_in_snapshot() {
    let proto = Config::new(Algorithm::Sha1).with_chain_len(512);
    let acfg = alpha_adapt::AdaptConfig {
        dwell: 2,
        ..alpha_adapt::AdaptConfig::default()
    };
    let adaptive = EngineConfig::new(proto).with_adapt(acfg);
    let (mut net, key) = connected(adaptive, EngineConfig::new(proto), 12, 21);

    // Clean phase: offer a full buffer each exchange; AIMD must walk
    // the bundle size up to the cap on the Cumulative rung.
    let msgs: Vec<Vec<u8>> = (0..acfg.max_n).map(|i| vec![i as u8; 32]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut last_take = 0;
    for _ in 0..12 {
        net.now = net.now.plus_micros(10_000);
        let (take, out) = net
            .engine(ca())
            .sign_adaptive(key, &refs, net.now)
            .expect("sign");
        last_take = take;
        net.send(ca(), out);
        net.pump();
        assert!(
            net.engine(ca()).flow_is_idle(key),
            "clean exchange must finish"
        );
    }
    assert_eq!(last_take, acfg.max_n, "AIMD grew the bundle to the cap");
    let client = net.engine(ca());
    client
        .with_adapt(key, |a| {
            assert_eq!(a.decision().kind, alpha_adapt::ModeKind::Cumulative);
            assert!(a.estimator().srtt_us().is_some(), "RTT sampled");
        })
        .expect("adaptive flow state");

    // Loss phase: sign and then drop every datagram on the floor; the
    // signer retries through the timer wheel until it abandons, and
    // each abandoned exchange drives the loss estimate up the ladder.
    let (mut now, mut rng) = (net.now, StdRng::seed_from_u64(12));
    for _ in 0..10 {
        now = now.plus_micros(10_000);
        let (_take, _out) = client.sign_adaptive(key, &refs, now).expect("sign");
        let mut spins = 0;
        while !client.flow_is_idle(key) {
            now = now.plus_micros(250_000);
            let _ = client.poll(now, &mut rng); // datagrams dropped
            spins += 1;
            assert!(spins < 200, "exchange never abandoned");
        }
    }
    let (kind, n) = client
        .with_adapt(key, |a| (a.decision().kind, a.decision().n))
        .expect("adaptive flow state");
    assert_eq!(
        kind,
        alpha_adapt::ModeKind::Merkle,
        "sustained loss tops out the ladder"
    );
    assert!(n <= acfg.merkle_max_n);
    assert!(
        client.metrics().adapt_switches.load(Ordering::Relaxed) >= 2,
        "switches surfaced in metrics"
    );

    // The JSON snapshot carries the per-flow controller state.
    let snap: serde::Value = serde_json::from_str(&client.stats_json()).unwrap();
    let flows = snap.get("adapt_flows").unwrap();
    let serde::Value::Array(rows) = flows else {
        panic!("adapt_flows should be an array")
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("assoc_id").unwrap().as_u64(), Some(21));
    let adapt = rows[0].get("adapt").unwrap();
    assert_eq!(adapt.get("mode").unwrap().as_str(), Some("merkle"));
    assert!(adapt.get("switches").unwrap().as_u64().unwrap() >= 2);
    // An engine without adaptation reports an empty array.
    let snap: serde::Value = serde_json::from_str(&net.engine(sa()).stats_json()).unwrap();
    let serde::Value::Array(rows) = snap.get("adapt_flows").unwrap() else {
        panic!("adapt_flows should be an array")
    };
    assert!(rows.is_empty());
}

/// Store metric loads, in one tuple: (frozen, thawed, evicted,
/// thaw_rejected).
fn store_counts(e: &EngineCore) -> (u64, u64, u64, u64) {
    let s = &e.metrics().store;
    (
        s.frozen.load(Ordering::Relaxed),
        s.thawed.load(Ordering::Relaxed),
        s.evicted.load(Ordering::Relaxed),
        s.thaw_rejected.load(Ordering::Relaxed),
    )
}

#[test]
fn idle_flow_hibernates_and_wakes_on_next_datagram() {
    let sleepy = cfg().with_hibernate_after(Some(50_000));
    let (mut net, key) = connected(cfg(), sleepy, 31, 42);
    let from_server = exchange(&mut net, key, &[b"before sleep"], Mode::Base);
    assert_eq!(from_server.delivered.len(), 1);

    // 60 ms of silence: the idle check fires and freezes the flow.
    net.now = net.now.plus_micros(60_000);
    net.poll(sa());
    let server = net.engine(sa());
    assert_eq!(store_counts(server), (1, 0, 0, 0), "flow froze");
    assert_eq!(server.flow_count(), 1, "tombstone stays in the table");
    let m = server.metrics();
    assert_eq!(m.store.flows_hibernated.load(Ordering::Relaxed), 1);
    assert!(m.store.bytes_frozen.load(Ordering::Relaxed) > 0);

    // The next datagram wakes it mid-stream: no handshake, same
    // verifier decisions, payload delivered.
    net.now = net.now.plus_micros(1_000);
    let from_server = exchange(&mut net, key, &[b"after wake"], Mode::Base);
    assert_eq!(from_server.delivered.len(), 1);
    assert_eq!(from_server.delivered[0].2, b"after wake");
    let server = net.engine(sa());
    assert_eq!(store_counts(server), (1, 1, 0, 0), "woke exactly once");
    let m = server.metrics();
    assert_eq!(m.store.flows_hibernated.load(Ordering::Relaxed), 0);
    assert_eq!(m.store.bytes_frozen.load(Ordering::Relaxed), 0);
    assert_eq!(m.store.thaw_latency_us.count(), 1);
    assert_eq!(
        m.handshakes.load(Ordering::Relaxed),
        1,
        "wake needed no re-handshake"
    );

    // The woken flow keeps working like it never slept.
    let from_server = exchange(&mut net, key, &[b"steady state"], Mode::Base);
    assert_eq!(from_server.delivered[0].2, b"steady state");
}

#[test]
fn forged_datagram_cannot_force_a_thaw() {
    let sleepy = cfg().with_hibernate_after(Some(50_000));
    let (mut net, key) = connected(cfg(), sleepy, 32, 42);
    net.now = net.now.plus_micros(60_000);
    net.poll(sa());
    assert_eq!(store_counts(net.engine(sa())), (1, 0, 0, 0), "flow frozen");

    // An attacker who observed the flow key forges an S1 from a
    // different association claiming the same id and source.
    let (ma, da) = (addr(1011), addr(2011));
    net.host(ma, cfg());
    net.host(da, cfg());
    let mkey = net.connect(ma, da, 42);
    net.sign(ma, mkey, &[b"let me in"], Mode::Base).unwrap();
    let forged = net.drop(0).frame;
    net.now = net.now.plus_micros(1_000);
    let server = net.engine(sa());
    let o = server.handle_datagram(ca(), &forged, net.now, &mut StdRng::seed_from_u64(32));
    assert!(o.delivered.is_empty() && o.datagrams.is_empty());
    let (frozen, thawed, evicted, rejected) = store_counts(server);
    assert_eq!(
        (frozen, thawed, evicted, rejected),
        (1, 0, 0, 1),
        "forgery bounced off the frozen record"
    );
    assert_eq!(server.flow_count(), 1, "tombstone intact");
    assert_eq!(
        server
            .metrics()
            .store
            .flows_hibernated
            .load(Ordering::Relaxed),
        1
    );

    // The record survived untouched: the real peer still wakes it.
    let from_server = exchange(&mut net, key, &[b"genuine"], Mode::Base);
    assert_eq!(from_server.delivered[0].2, b"genuine");
    assert_eq!(store_counts(net.engine(sa())), (1, 1, 0, 1));
}

#[test]
fn forged_wake_costs_a_trial_verification_not_a_chain_rebuild() {
    use alpha_crypto::chain::DEFAULT_MAX_SKIP;
    // Default chain length: the √n layout a deployed host runs.
    let protocol = Config::new(Algorithm::Sha1);
    let sleepy = EngineConfig::new(protocol).with_hibernate_after(Some(50_000));
    let (mut net, key) = connected(EngineConfig::new(protocol), sleepy, 34, 42);
    exchange(&mut net, key, &[b"before sleep"], Mode::Base);
    net.now = net.now.plus_micros(60_000);
    net.poll(sa());
    let server = net.engine(sa());
    assert_eq!(store_counts(server), (1, 0, 0, 0), "flow frozen");
    let server_key = FlowKey {
        peer: ca(),
        assoc_id: 42,
    };
    let stored = || {
        let mut store = server.store.lock();
        let record = store.remove(&server_key).expect("record in the store");
        let _ = store.insert(server_key, record.clone());
        record
    };
    let before = stored();

    // Right source and association id, an element that is on nobody's
    // chain, and the lowest index the verifier will still hash up from:
    // the dearest S1 a stranger can aim at a sleeping flow.
    let verifier_at = protocol.chain_len - 2; // one exchange consumed
    let forged = forged_s1(42, verifier_at - DEFAULT_MAX_SKIP + 1, 0);
    let t2 = net.now.plus_micros(1_000);
    let scope = alpha_crypto::counting::Scope::start();
    let o = server.handle_datagram(ca(), &forged, t2, &mut StdRng::seed_from_u64(34));
    let hashes = scope.finish().invocations;
    assert!(o.delivered.is_empty() && o.datagrams.is_empty());
    assert!(
        (DEFAULT_MAX_SKIP - 1..=DEFAULT_MAX_SKIP + 16).contains(&hashes),
        "a forged wake cost {hashes} hashes"
    );
    assert_eq!(store_counts(server), (1, 0, 0, 1), "forgery rejected");
    assert_eq!(stored(), before, "record untouched");

    // The genuine datagram after it still wakes the flow mid-stream.
    net.now = t2;
    let from_server = exchange(&mut net, key, &[b"genuine"], Mode::Base);
    assert_eq!(from_server.delivered[0].2, b"genuine");
    let server = net.engine(sa());
    assert_eq!(store_counts(server), (1, 1, 0, 1));
    let handshakes = server.metrics().handshakes.load(Ordering::Relaxed);
    assert_eq!(handshakes, 1, "wake needed no re-handshake");
}

/// The most hashing a forged S1 can buy, per role, with the claimed
/// index swept over a whole default chain: a host walks its one
/// verifier chain up to `max_skip`, a relay both signature chains
/// while it searches for the sender's direction.
#[test]
fn a_forged_s1_costs_at_most_one_skip_window_per_chain() {
    use alpha_crypto::chain::DEFAULT_MAX_SKIP;
    let protocol = Config::new(Algorithm::Sha1);
    assert_eq!(protocol.chain_len, 1024);
    let engine = EngineConfig::new(protocol).with_s1_budget(None);
    for (relay, bound) in [
        (None, DEFAULT_MAX_SKIP),
        (Some(engine), 2 * DEFAULT_MAX_SKIP),
    ] {
        let (mut net, hop) = Net::path(37, engine, engine, relay);
        net.connect(ca(), hop, 9);
        let target = net.engine(hop);
        let mut rng = StdRng::seed_from_u64(37);
        let mut worst = 0;
        for index in 0..protocol.chain_len {
            let forged = forged_s1(9, index, index);
            let scope = alpha_crypto::counting::Scope::start();
            let o = target.handle_datagram(ca(), &forged, net.now, &mut rng);
            worst = worst.max(scope.finish().invocations);
            assert!(o.delivered.is_empty() && o.datagrams.is_empty());
        }
        let role = if relay.is_some() { "relay" } else { "host" };
        assert!(
            (DEFAULT_MAX_SKIP - 1..=bound).contains(&worst),
            "a forged S1 cost a {role} flow {worst} hashes"
        );
    }
}

#[test]
fn frozen_budget_evicts_coldest_and_reaps_tombstones() {
    // A one-byte budget cannot hold two records: each freeze evicts
    // the previous (soft budget keeps the newest resident).
    let tight = cfg()
        .with_hibernate_after(Some(50_000))
        .with_frozen_budget(Some(1));
    let (mut net, _) = connected(cfg(), tight, 33, 1);
    for id in 2..=3 {
        net.connect(ca(), sa(), id);
    }
    assert_eq!(net.engine(sa()).flow_count(), 3);

    net.now = net.now.plus_micros(60_000);
    net.poll(sa());
    let server = net.engine(sa());
    let (frozen, _, evicted, _) = store_counts(server);
    assert_eq!(frozen, 3, "all three idle flows froze");
    assert_eq!(evicted, 2, "budget kept only the newest record");
    assert_eq!(server.flow_count(), 1, "evicted tombstones were reaped");
    assert_eq!(
        server
            .metrics()
            .store
            .flows_hibernated
            .load(Ordering::Relaxed),
        1
    );
}

/// Renewal is armed on the datagram path: the A1 that leaves the
/// signer idle under `renew_below` begins it at once (a jitter-free
/// pacer with tokens to spare admits it), its S1 rides out with that
/// datagram's answer, and the exchange commits fresh chains within the
/// same round trip. No renewal timer is left behind.
#[test]
fn chain_renewal_is_armed_jitter_free_and_commits() {
    let pacer = PacerConfig {
        max_jitter_us: 0,
        rate_per_sec: 256,
        burst: 64,
    };
    // renew_below above the whole chain: every completed exchange
    // arms a renewal, so one exchange is enough to trigger it.
    let eager = cfg().with_renew_below(64).with_pacer(pacer);
    let (mut net, key) = connected(eager, cfg(), 34, 7);
    let remaining = |net: &Net| {
        let client = net.engine(ca());
        client
            .with_association(key, |a| a.remaining_exchanges())
            .unwrap()
    };
    let fresh = remaining(&net);
    let from_server = exchange(&mut net, key, &[b"spend the chain"], Mode::Base);
    assert_eq!(
        from_server.delivered.len(),
        1,
        "the message, not the renewal"
    );
    let m = net.engine(ca()).metrics();
    assert_eq!(m.store.renewals_started.load(Ordering::Relaxed), 1);
    assert_eq!(m.store.renewals_deferred.load(Ordering::Relaxed), 0);
    let after = remaining(&net);
    assert_eq!(
        after, fresh,
        "renewal replenished the chain the exchange spent"
    );

    // Nothing was left for the timer path.
    net.now = net.now.plus_micros(2_000);
    assert_eq!(net.poll(ca()), 0, "no renewal timer fires");
    let m = net.engine(ca()).metrics();
    assert_eq!(m.store.renewals_started.load(Ordering::Relaxed), 1);

    // The renewed flow goes on exchanging.
    let from_server = exchange(&mut net, key, &[b"on fresh chains"], Mode::Base);
    assert_eq!(from_server.delivered[0].2, b"on fresh chains");
}

#[test]
fn renewal_pacer_defers_when_bucket_is_empty() {
    let pacer = PacerConfig {
        max_jitter_us: 0,
        rate_per_sec: 0,
        burst: 0,
    };
    let dry = cfg().with_renew_below(64).with_pacer(pacer);
    let (mut net, key) = connected(dry, cfg(), 35, 8);
    exchange(&mut net, key, &[b"idle now"], Mode::Base);

    net.now = net.now.plus_micros(2_000);
    assert_eq!(net.poll(ca()), 0, "no renewal admitted");
    let m = net.engine(ca()).metrics();
    assert_eq!(m.store.renewals_started.load(Ordering::Relaxed), 0);
    assert!(m.store.renewals_deferred.load(Ordering::Relaxed) >= 1);
}

/// Wheel entries across all shards.
fn wheel_pending(e: &EngineCore) -> usize {
    e.shards.iter().map(|s| s.read().wheel.pending()).sum()
}

/// An engine driven only by `sign_batch` and `handle_datagram`, never
/// polled, keeps one protocol-poll entry per flow however many
/// exchanges it runs — and, renewing both ends on the datagram path,
/// runs ten chains' worth of exchanges without a `ChainExhausted`.
#[test]
fn never_polled_flows_keep_one_poll_entry_each() {
    const FLOWS: u16 = 4;
    let (mut net, first) = connected(cfg(), cfg(), 43, 60);
    let keys: Vec<FlowKey> = std::iter::once(first)
        .chain((1..FLOWS).map(|f| net.connect(ca(), sa(), 60 + u64::from(f))))
        .collect();
    let chain_len = cfg().protocol.chain_len as usize;
    for round in 0..10 * chain_len {
        net.now = net.now.plus_micros(1_000);
        for (f, &key) in keys.iter().enumerate() {
            let msg = format!("flow {f} exchange {round}");
            net.sign(ca(), key, &[msg.as_bytes()], Mode::Base)
                .unwrap_or_else(|e| panic!("flow {f}, exchange {round}: {e}"));
            net.pump();
            let from_server = net.take(sa());
            assert_eq!(from_server.delivered.len(), 1, "flow {f}, exchange {round}");
            assert_eq!(from_server.delivered[0].2, msg.as_bytes());
        }
    }
    let (client, server) = (net.engine(ca()), net.engine(sa()));
    assert!(
        client
            .metrics()
            .store
            .renewals_started
            .load(Ordering::Relaxed)
            > 0
    );
    assert!(
        server
            .metrics()
            .store
            .renewals_started
            .load(Ordering::Relaxed)
            > 0
    );
    for (side, e) in [("client", client), ("server", server)] {
        let pending = wheel_pending(e);
        assert!(
            pending <= 3 * FLOWS as usize,
            "{side}: {pending} wheel entries for {FLOWS} flows"
        );
    }
}

#[test]
fn reroute_keeps_host_idle_check_armed() {
    // Regression: reroute re-armed a moved host flow from
    // `assoc.poll_at()` alone, so its idle check stayed on the wheel
    // under the old key and the flow never hibernated again.
    let ca2 = addr(1001);
    let sleepy = cfg().with_hibernate_after(Some(50_000));
    let (mut net, key) = connected(cfg(), sleepy, 41, 51);

    assert_eq!(net.engine(sa()).reroute(ca(), ca2), 1);
    net.now = net.now.plus_micros(60_000);
    net.poll(sa());
    assert_eq!(
        store_counts(net.engine(sa())),
        (1, 0, 0, 0),
        "rerouted flow still freezes once idle"
    );

    // The record froze under the new key: the new peer wakes it.
    let key = standby_path(&mut net, ca2, key);
    let from_server = exchange(&mut net, key, &[b"via standby"], Mode::Base);
    assert_eq!(from_server.delivered[0].2, b"via standby");
    assert_eq!(store_counts(net.engine(sa())), (1, 1, 0, 0));
}

#[test]
fn reroute_keeps_scheduled_renewal_armed() {
    // Regression: a flow rerouted while its renewal was `Scheduled`
    // lost the wheel entry and — since only an `Idle` slot is ever
    // armed — never renewed its chain.
    let pacer = PacerConfig {
        max_jitter_us: 0,
        rate_per_sec: 1,
        burst: 1,
    };
    let stingy = cfg().with_renew_below(64).with_pacer(pacer);
    let sa2 = addr(2001);
    let (mut net, key) = connected(stingy, cfg(), 42, 52);
    // The first exchange spends the pacer's one token on a renewal; the
    // second finds the bucket dry, so its renewal is deferred to a
    // (jitter-free) timer.
    for msg in [b"renew now".as_slice(), b"arm the renewal"] {
        exchange(&mut net, key, &[msg], Mode::Base);
    }
    let client = net.engine(ca());
    let store = &client.metrics().store;
    assert_eq!(store.renewals_started.load(Ordering::Relaxed), 1);
    assert_eq!(store.renewals_deferred.load(Ordering::Relaxed), 1);

    assert_eq!(client.reroute(sa(), sa2), 1);
    net.now = net.now.plus_micros(1_500_000);
    net.poll(ca());
    assert!(
        !net.flight.is_empty() && net.flight.iter().all(|d| d.dst == sa2),
        "renewal S1 goes out, toward the new peer"
    );
    let store = &net.engine(ca()).metrics().store;
    assert_eq!(store.renewals_started.load(Ordering::Relaxed), 2);
}

#[test]
fn relay_single_and_run_paths_agree() {
    // The same S2s — four of one exchange (one with a flipped payload
    // bit) and a trailing signal-carrying S2 — through two relay
    // engines: one datagram each (single-packet path) versus one
    // bundle (S2-run path). Everything observable must match.
    use alpha_core::signal::Signal;
    let (ca, sa) = (ca(), sa());
    let now = Timestamp::from_millis(1);
    for mode in [Mode::Cumulative, Mode::Merkle] {
        // The handshake and two exchanges' S1s and A1s, carried by a
        // bypassed relay; the S2s held back.
        let c = EngineConfig::new(Config::new(Algorithm::Sha256).with_chain_len(64));
        let (mut net, ra) = Net::path(77, c, c, Some(cfg()));
        net.bypass(ra);
        let key = net.connect(ca, ra, 9);
        let msgs: Vec<Vec<u8>> = (0..4).map(|i| format!("run {i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        net.sign(ca, key, &refs, mode).unwrap();
        let mut held = net.pump_holding(|d| d.carries_s2());
        let signal = Signal::RateLimit { bytes_per_sec: 512 };
        let s1b = net
            .engine(ca)
            .with_association(key, |a| a.send_signal(&signal, now));
        net.flight.push(Datagram {
            src: ca,
            dst: ra,
            frame: s1b.unwrap().unwrap().emit(),
        });
        held.extend(net.pump_holding(|d| d.carries_s2()));
        let mut s2s: Vec<Packet> = held
            .iter()
            .flat_map(|d| bundle::parse(&d.frame).unwrap())
            .collect();
        assert_eq!(s2s.len(), 5);
        if let alpha_wire::Body::S2 { payload, .. } = &mut s2s[2].body {
            payload[0] ^= 1;
        }

        let single = EngineCore::new(cfg());
        let run = EngineCore::new(cfg());
        let mut rng = StdRng::seed_from_u64(77);
        let mut seen = Vec::new();
        for (relay, bundled) in [(&single, false), (&run, true)] {
            relay.add_route(ca, sa);
            for setup in &net.bypassed {
                let o = relay.handle_datagram(setup.src, &setup.frame, now, &mut rng);
                assert_eq!(o.datagrams.len(), 1, "setup packet forwarded");
            }
            let datagrams: Vec<Vec<u8>> = if bundled {
                vec![bundle::emit(&s2s).unwrap()]
            } else {
                s2s.iter().map(Packet::emit).collect()
            };
            // Forwarded datagrams, flattened to per-packet bytes.
            let mut forwarded: Vec<Vec<u8>> = Vec::new();
            let mut extracted = Vec::new();
            for datagram in &datagrams {
                let o = relay.handle_datagram(ca, datagram, now, &mut rng);
                for (dst, frame) in &o.datagrams {
                    assert_eq!(*dst, sa);
                    forwarded.extend(packets(frame).iter().map(|p| p.to_vec()));
                }
                extracted.extend(o.extracted.iter().map(|(id, p)| (id, p.to_vec())));
            }
            let m = relay.metrics();
            let drops = [
                DropReason::BadChainElement,
                DropReason::BadMac,
                DropReason::Unsolicited,
                DropReason::BadVerdict,
                DropReason::RateLimited,
                DropReason::UnknownAssociation,
                DropReason::Malformed,
            ]
            .map(|reason| m.drops(reason));
            seen.push((
                forwarded,
                extracted,
                drops,
                m.s2_verified.load(Ordering::Relaxed),
                relay.buffered_bytes(),
            ));
        }
        assert_eq!(seen[0], seen[1], "mode {mode:?}");
        let (forwarded, extracted, drops, s2_verified, _) = &seen[0];
        assert_eq!(forwarded.len(), 4, "all but the tampered S2 forwarded");
        assert_eq!((extracted.len(), *s2_verified), (4, 4));
        assert_eq!(drops[1], 1, "the tampered S2 dropped as bad-mac");
    }
}

/// Only a handshake stands up relay state. Routed S1s, A1s, A2s and S2
/// runs under association ids the relay saw no HS1 for are forwarded or
/// dropped as unknown, by `forward_unknown`, and leave no flow behind.
#[test]
fn relay_keeps_no_state_for_packets_without_a_handshake() {
    let (ca, sa) = (addr(1960), addr(2960));
    let now = Timestamp::from_millis(1);
    let mut rng = StdRng::seed_from_u64(96);
    let c = Config::new(Algorithm::Sha1)
        .with_chain_len(64)
        .with_reliability(alpha_core::Reliability::Reliable);
    let (mut alice, mut bob) = alpha_core::Association::pair(c, 1, &mut rng);
    let s1 = alice
        .sign_batch(&[b"x0".as_slice(), b"x1"], Mode::Cumulative, now)
        .unwrap();
    let a1 = bob.handle(&s1, now, &mut rng).unwrap().packet().unwrap();
    let s2s = alice.handle(&a1, now, &mut rng).unwrap().packets;
    bob.handle(&s2s[0], now, &mut rng).unwrap();
    let a2 = bob
        .handle(&s2s[1], now, &mut rng)
        .unwrap()
        .packet()
        .unwrap();
    let mut kinds = [vec![s1], vec![a1], vec![a2], s2s];

    for forward_unknown in [true, false] {
        let relay_cfg = alpha_core::RelayConfig {
            forward_unknown,
            ..alpha_core::RelayConfig::default()
        };
        let relay = EngineCore::new(cfg().with_relay(relay_cfg));
        relay.add_route(ca, sa);
        let mut packets = 0;
        for i in 0..10_000 {
            let kind = &mut kinds[i % 4];
            let assoc_id = rand::Rng::gen(&mut rng);
            kind.iter_mut().for_each(|p| p.assoc_id = assoc_id);
            let datagram = match kind.as_slice() {
                [one] => one.emit(),
                run => bundle::emit(run).unwrap(),
            };
            let from = if i % 2 == 0 { ca } else { sa };
            let o = relay.handle_datagram(from, &datagram, now, &mut rng);
            assert_eq!(o.datagrams.len(), usize::from(forward_unknown), "{i}");
            packets += kind.len() as u64;
        }
        assert_eq!(relay.flow_count(), 0, "forward_unknown {forward_unknown}");
        let dropped = relay.metrics().drops(DropReason::UnknownAssociation);
        assert_eq!(dropped, if forward_unknown { 0 } else { packets });
    }
}

#[test]
fn frozen_record_codec_is_total_and_round_trips() {
    use super::lifecycle::{decode_frozen_record, encode_frozen_record};
    use alpha_core::ChainStorage;
    let adapt = FlowAdapt::new(alpha_adapt::AdaptConfig::default()).freeze();
    for (n, storage) in [ChainStorage::Full, ChainStorage::Sqrt]
        .into_iter()
        .enumerate()
    {
        let cfg = EngineConfig::new(cfg().protocol.with_chain_storage(storage));
        let (net, key) = connected(cfg, cfg, 43 + n as u64, 53);
        let frozen = net
            .engine(ca())
            .with_association(key, |a| a.freeze())
            .expect("host flow")
            .expect("idle association freezes");

        for adapt in [None, Some(&adapt)] {
            let record = encode_frozen_record(&frozen, adapt);
            assert_eq!(
                record.capacity(),
                record.len(),
                "sized from the body, no slack"
            );
            let (f, a) = decode_frozen_record(&record).expect("own record decodes");
            assert_eq!(a.is_some(), adapt.is_some());
            assert_eq!(
                encode_frozen_record(&f, a.as_ref()),
                record,
                "encode → decode → encode is byte-identical"
            );
            for cut in 0..record.len() {
                assert!(
                    decode_frozen_record(&record[..cut]).is_none(),
                    "truncation at {cut} of {} rejected",
                    record.len()
                );
            }
            let mut trailing = record.clone();
            trailing.push(0);
            assert!(decode_frozen_record(&trailing).is_none(), "trailing byte");
            let tag_at = 4 + u32::from_be_bytes(record[..4].try_into().unwrap()) as usize;
            for tag in 2..=u8::MAX {
                let mut bad = record.clone();
                bad[tag_at] = tag;
                assert!(decode_frozen_record(&bad).is_none(), "adapt tag {tag}");
            }

            // The signature chain's record: behind the length prefix,
            // version, algorithm and association id, its layout, length,
            // cursor and seed hash, then the tag saying which digests
            // follow — whatever the layout, the checkpoint under the
            // cursor and (tag 2) the super-checkpoint under that.
            let (layout_at, cursor_at, chain_tag_at) = (4 + 10, 4 + 10 + 9, 4 + 10 + 17 + 20);
            let held = 2;
            assert_eq!(record[chain_tag_at], held as u8, "{storage:?}");
            // The chain's tail rewritten as `tag` and `digests` digests,
            // the length prefix kept in step.
            let with_tail = |record: &[u8], tag: u8, digests: usize| {
                let mut bytes = record.to_vec();
                let tail = std::iter::once(tag).chain(std::iter::repeat_n(0xAB, 20 * digests));
                bytes.splice(chain_tag_at..chain_tag_at + 1 + 20 * held, tail);
                let body = tag_at - 4 + 20 * digests - 20 * held;
                bytes[..4].copy_from_slice(&u32::try_from(body).unwrap().to_be_bytes());
                bytes
            };
            assert!(decode_frozen_record(&with_tail(&record, held as u8, held)).is_some());
            for tag in 3..=u8::MAX {
                let bad = with_tail(&record, tag, held);
                assert!(decode_frozen_record(&bad).is_none(), "chain tag {tag}");
            }
            // Without its super-checkpoint a record still thaws (the walk
            // under the floor starts at the seed); with one where the
            // cursor leaves it no position — over checkpoint 0 — it does
            // not decode.
            assert!(decode_frozen_record(&with_tail(&record, 1, 1)).is_some());
            let mut low = record.clone();
            low[cursor_at..cursor_at + 8].copy_from_slice(&1u64.to_be_bytes());
            assert!(decode_frozen_record(&with_tail(&low, 1, 1)).is_some());
            assert!(
                decode_frozen_record(&low).is_none(),
                "{storage:?}: super-checkpoint under checkpoint 0"
            );
            // Nor without a checkpoint (a walk from the seed, which
            // nothing writes), nor in a layout no chain has.
            let bare = with_tail(&record, 0, 0);
            assert!(decode_frozen_record(&bare).is_none(), "{storage:?} tag 0");
            for layout in 2..=u8::MAX {
                let mut bad = record.clone();
                bad[layout_at] = layout;
                assert!(decode_frozen_record(&bad).is_none(), "layout {layout}");
            }
        }
    }
}
