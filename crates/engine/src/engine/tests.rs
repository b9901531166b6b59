//! The engine's deterministic in-memory unit tests: pairs (or chains)
//! of `EngineCore`s pumped against each other with no sockets and a
//! caller-supplied clock. Compiled only under `cfg(test)`.
#[cfg(test)]
use super::*;
use std::sync::atomic::Ordering;

use alpha_core::{Config, Mode};
use alpha_crypto::Algorithm;
use alpha_store::PacerConfig;
use alpha_wire::Frame;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mesh;

fn cfg() -> EngineConfig {
    EngineConfig::new(Config::new(Algorithm::Sha1).with_chain_len(64))
}

fn addr(port: u16) -> SocketAddr {
    format!("127.0.0.1:{port}").parse().unwrap()
}

/// Drive two engines against each other in memory: `a`'s datagrams
/// to `a_addr`'s counterpart are handed to `b` and vice versa.
fn pump(
    a: &EngineCore,
    a_addr: SocketAddr,
    b: &EngineCore,
    b_addr: SocketAddr,
    mut pending: Vec<(SocketAddr, Frame)>,
    now: Timestamp,
    rng: &mut StdRng,
) -> (EngineOutput, EngineOutput) {
    let mut out_a = EngineOutput::default();
    let mut out_b = EngineOutput::default();
    let mut hops = 0;
    while !pending.is_empty() {
        hops += 1;
        assert!(hops < 64, "in-memory exchange did not converge");
        let mut next = Vec::new();
        for (dst, bytes) in pending.drain(..) {
            let o = if dst == a_addr {
                let o = a.handle_datagram(b_addr, &bytes, now, rng);
                next.extend(o.datagrams.iter().cloned());
                out_a.absorb(o);
                continue;
            } else {
                assert_eq!(dst, b_addr, "unexpected destination");
                b.handle_datagram(a_addr, &bytes, now, rng)
            };
            next.extend(o.datagrams.iter().cloned());
            out_b.absorb(o);
        }
        pending = next;
    }
    (out_a, out_b)
}

#[test]
fn connect_accept_and_exchange_in_memory() {
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let ca = addr(1000);
    let sa = addr(2000);
    let mut rng = StdRng::seed_from_u64(7);
    let now = Timestamp::from_millis(1);

    let (key, out) = client.connect(sa, 42, now, &mut rng);
    let (from_client, from_server) = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
    assert_eq!(
        from_client.completed,
        vec![key],
        "client handshake completed"
    );
    assert_eq!(from_server.completed.len(), 1, "server stood up the flow");
    assert_eq!(client.flow_count(), 1);
    assert_eq!(server.flow_count(), 1);
    assert_eq!(server.metrics().handshakes.load(Ordering::Relaxed), 1);

    let out = client
        .sign_batch(key, &[b"engine hello".as_slice()], Mode::Base, now)
        .expect("sign");
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
    assert_eq!(from_server.delivered.len(), 1);
    assert_eq!(from_server.delivered[0].2, b"engine hello");
    assert!(client.flow_is_idle(key), "exchange finished");
    assert_eq!(client.metrics().rtt_us.count(), 1, "RTT sampled");
}

/// A bundle's `u16` length prefix cannot frame a maximum-payload S2, so
/// a batch of them goes out one packet per datagram instead of
/// mis-framed (or not at all).
#[test]
fn packets_too_long_for_a_bundle_go_out_unbundled() {
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let (ca, sa) = (addr(1000), addr(2000));
    let mut rng = StdRng::seed_from_u64(8);
    let now = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 42, now, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);

    let big = vec![0x5A; alpha_wire::limits::MAX_PAYLOAD];
    let out = client
        .sign_batch(key, &[&big, &big], Mode::Cumulative, now)
        .expect("sign");
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
    let delivered: Vec<&[u8]> = from_server
        .delivered
        .iter()
        .map(|d| d.2.as_slice())
        .collect();
    assert_eq!(delivered, [&big[..], &big[..]]);
}

#[test]
fn owned_steady_state_s2_path_zero_contended_locks() {
    // The share-nothing claim, pinned: when the receiving worker
    // owns the flow's shard (single-toucher via handoff rings), the
    // steady-state S2 verify path acquires zero *shared* (blocking,
    // contended) locks — and in debug builds the per-thread lock
    // counter bounds the uncontended CAS acquisitions to the
    // documented budget of at most two per datagram (kind peek +
    // state update).
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let ca = addr(1310);
    let sa = addr(2310);
    let mut rng = StdRng::seed_from_u64(99);
    let now = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 77, now, &mut rng);
    let _ = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);

    // The live runtime's first-receiver claim.
    let shard = server.shard_of_source(ca);
    assert_eq!(server.claim_shard(shard, 0), 0);
    assert_eq!(server.shard_owner(shard), Some(0));

    // Stage one steady-state exchange by hand: S1 -> A1 -> S2.
    let batch_of = |from: SocketAddr, out: &EngineOutput| -> Vec<(SocketAddr, Vec<u8>)> {
        out.datagrams
            .iter()
            .map(|(_, b)| (from, b.to_vec()))
            .collect()
    };
    let s1 = client
        .sign_batch(key, &[b"steady-state".as_slice()], Mode::Base, now)
        .expect("sign");
    let s1b = batch_of(ca, &s1);
    let s1r: Vec<(SocketAddr, &[u8])> = s1b.iter().map(|(a, b)| (*a, &b[..])).collect();
    let a1 = server.handle_datagrams(&s1r, now, &mut rng);
    let a1b = batch_of(sa, &a1);
    let a1r: Vec<(SocketAddr, &[u8])> = a1b.iter().map(|(a, b)| (*a, &b[..])).collect();
    let s2 = client.handle_datagrams(&a1r, now, &mut rng);
    assert!(!s2.datagrams.is_empty(), "client staged its S2");

    // Measure the S2 verify path alone, as the owning worker.
    crate::shard::reset_thread_lock_count();
    let contended_before = server.lock_contended();
    let s2b = batch_of(ca, &s2);
    let s2r: Vec<(SocketAddr, &[u8])> = s2b.iter().map(|(a, b)| (*a, &b[..])).collect();
    let out = server.handle_datagrams(&s2r, now, &mut rng);
    assert_eq!(out.delivered.len(), 1, "payload delivered");
    assert_eq!(
        server.lock_contended() - contended_before,
        0,
        "owned S2 path is contention-free"
    );
    #[cfg(debug_assertions)]
    {
        let taken = crate::shard::locks_taken_on_thread();
        assert!(
            taken >= 1 && taken <= 2 * s2r.len() as u64,
            "single-toucher lock budget: {taken} acquisitions for {} datagrams",
            s2r.len()
        );
    }
    // The runtime snapshot carries the same discipline counters.
    let snap = server.snapshot();
    let runtime = snap.get("runtime").expect("runtime section");
    assert_eq!(
        runtime.get("lock_contended").and_then(serde::Value::as_u64),
        Some(server.lock_contended())
    );
    assert_eq!(
        runtime.get("shards_claimed").and_then(serde::Value::as_u64),
        Some(1)
    );
}

#[test]
fn relay_flow_verifies_and_forwards() {
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let relay = EngineCore::new(cfg());
    let ca = addr(1100);
    let sa = addr(2100);
    relay.add_route(ca, sa);
    let mut rng = StdRng::seed_from_u64(8);
    let now = Timestamp::from_millis(1);

    // Every datagram passes through the relay engine.
    let relay_hop =
        |pending: Vec<(SocketAddr, Frame)>, rng: &mut StdRng| -> Vec<(SocketAddr, Frame)> {
            let mut forwarded = Vec::new();
            for (dst, bytes) in pending {
                let from = if dst == sa { ca } else { sa };
                let o = relay.handle_datagram(from, &bytes, now, rng);
                forwarded.extend(o.datagrams);
            }
            forwarded
        };

    let (key, out) = client.connect(sa, 9, now, &mut rng);
    let mut pending = relay_hop(out.datagrams, &mut rng);
    let mut done = false;
    for _ in 0..16 {
        if pending.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for (dst, bytes) in pending.drain(..) {
            let o = if dst == sa {
                server.handle_datagram(ca, &bytes, now, &mut rng)
            } else {
                client.handle_datagram(sa, &bytes, now, &mut rng)
            };
            done |= !o.completed.is_empty() && o.completed[0] == key;
            next.extend(relay_hop(o.datagrams, &mut rng));
        }
        pending = next;
    }
    assert!(done, "handshake completed through the relay");
    assert_eq!(relay.flow_count(), 1, "one relay flow for the pair");

    let out = client
        .sign_batch(key, &[b"via relay".as_slice()], Mode::Base, now)
        .unwrap();
    let mut pending = relay_hop(out.datagrams, &mut rng);
    for _ in 0..16 {
        if pending.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for (dst, bytes) in pending.drain(..) {
            let o = if dst == sa {
                server.handle_datagram(ca, &bytes, now, &mut rng)
            } else {
                client.handle_datagram(sa, &bytes, now, &mut rng)
            };
            next.extend(relay_hop(o.datagrams, &mut rng));
        }
        pending = next;
    }
    assert_eq!(relay.metrics().s2_verified.load(Ordering::Relaxed), 1);
    assert_eq!(server.metrics().s2_verified.load(Ordering::Relaxed), 1);
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
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let relay = EngineCore::new(cfg());
    let ca = addr(2170); // client ranks ABOVE both next hops
    let sa = addr(1170); // primary next hop = canonical left
    let sa2 = addr(1171); // standby next hop
    relay.add_route(ca, sa);
    let mut rng = StdRng::seed_from_u64(23);
    let now = Timestamp::from_millis(1);

    // Handshake + one buffered S1 through the relay.
    let (key, _out) = relay_pair_handshake(&client, &server, &relay, ca, sa, now, &mut rng);
    let s1 = client
        .sign_batch(key, &[b"inflight".as_slice()], Mode::Base, now)
        .unwrap()
        .datagrams
        .remove(0)
        .1;
    relay.handle_datagram(ca, &s1, now, &mut rng);
    let buffered = relay.buffered_bytes();
    assert!(buffered > 0, "pre-signature buffered before failover");

    // Failover: the pair's flow moves to the new canonical key with
    // its buffered state intact, and forwarding retargets sa2.
    let moved = relay.reroute(sa, sa2);
    assert_eq!(moved, 1, "one relay flow moved");
    assert_eq!(relay.buffered_bytes(), buffered, "buffer state moved");
    assert_eq!(relay.metrics().mesh.failovers.load(Ordering::Relaxed), 1);
    let o = relay.handle_datagram(ca, &s1, now, &mut rng);
    assert!(
        o.datagrams.iter().all(|(d, _)| *d == sa2),
        "traffic re-routed to the standby"
    );
    // Reverse direction follows the back-pointer.
    let o2 = server.handle_datagram(ca, &s1, now, &mut rng);
    for (_, frame) in o2.datagrams {
        let o = relay.handle_datagram(sa2, &frame, now, &mut rng);
        assert!(o.datagrams.iter().all(|(d, _)| *d == ca));
    }
}

#[test]
fn reroute_moves_host_flows_to_new_peer() {
    // Verifier-side failover: established host flows keyed to the
    // old upstream re-key to the new one and keep delivering.
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let ca = addr(1180);
    let ca2 = addr(1181);
    let sa = addr(2180);
    let mut rng = StdRng::seed_from_u64(24);
    let now = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 31, now, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
    assert_eq!(server.flow_count(), 1);

    let moved = server.reroute(ca, ca2);
    assert_eq!(moved, 1, "host flow moved to the new peer key");
    // Traffic now arrives from ca2 (the standby path) and is
    // handled by the moved association; replies target ca2.
    let out = client
        .sign_batch(key, &[b"after failover".as_slice()], Mode::Base, now)
        .unwrap();
    let mut pending = out.datagrams;
    let mut delivered = 0;
    for _ in 0..16 {
        if pending.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for (dst, frame) in pending.drain(..) {
            if dst == sa {
                let o = server.handle_datagram(ca2, &frame, now, &mut rng);
                delivered += o.delivered.len();
                assert!(o.datagrams.iter().all(|(d, _)| *d == ca2));
                next.extend(o.datagrams);
            } else {
                assert_eq!(dst, ca2, "server replies to the new peer");
                let o = client.handle_datagram(sa, &frame, now, &mut rng);
                next.extend(o.datagrams);
            }
        }
        pending = next;
    }
    assert_eq!(delivered, 1, "flow completed after the move");
}

/// Complete a handshake for `client`→`server` through `relay`
/// (routed `ca`↔`sa`), returning the client's flow key.
fn relay_pair_handshake(
    client: &EngineCore,
    server: &EngineCore,
    relay: &EngineCore,
    ca: SocketAddr,
    sa: SocketAddr,
    now: Timestamp,
    rng: &mut StdRng,
) -> (FlowKey, EngineOutput) {
    let (key, out) = client.connect(sa, 13, now, rng);
    let o = relay.handle_datagram(ca, &out.datagrams[0].1, now, rng);
    let o2 = server.handle_datagram(ca, &o.datagrams[0].1, now, rng);
    let o3 = relay.handle_datagram(sa, &o2.datagrams[0].1, now, rng);
    let out = client.handle_datagram(sa, &o3.datagrams[0].1, now, rng);
    assert_eq!(out.completed, vec![key], "handshake completed via relay");
    (key, out)
}

#[test]
fn tx_frames_recycle_through_the_pool() {
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let ca = addr(1600);
    let sa = addr(2600);
    let mut rng = StdRng::seed_from_u64(13);
    let now = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 4, now, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
    // Each exchange checks frames out of both engines' pools and the
    // pump drops them again: steady state must reuse, not allocate.
    for i in 0..8u8 {
        let out = client
            .sign_batch(key, &[[i; 16].as_slice()], Mode::Base, now)
            .expect("sign");
        pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
    }
    for (name, core) in [("client", &client), ("server", &server)] {
        let s = core.frame_pool().stats();
        assert!(s.returned > 0, "{name} frames returned, got {s:?}");
        assert!(s.reused > 0, "{name} frames reused, got {s:?}");
    }
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
        resends <= client.config().handshake_retries as usize + 1,
        "bounded by the retry budget, got {resends}"
    );
    assert_eq!(client.flow_count(), 0, "abandoned flow was reaped");
}

#[test]
fn admission_limiter_sheds_s1_floods() {
    let mut c = cfg();
    c.s1_bytes_per_sec = Some(512); // tiny budget
    let server = EngineCore::new(c);
    let client = EngineCore::new(cfg());
    let ca = addr(1300);
    let sa = addr(2300);
    let mut rng = StdRng::seed_from_u64(10);
    let now = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 77, now, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
    // Replay one S1 far past the 512 B/s budget: the engine must
    // start shedding without write-locking the shard.
    let s1 = client
        .sign_batch(key, &[b"flood".as_slice()], Mode::Base, now)
        .unwrap()
        .datagrams
        .remove(0)
        .1;
    for _ in 0..64 {
        server.handle_datagram(ca, &s1, now, &mut rng);
    }
    let shed = server.metrics().admission_drops.load(Ordering::Relaxed);
    assert!(shed > 32, "flood was shed by admission, got {shed}");
}

#[test]
fn backpressure_valve_sheds_when_buffers_full() {
    let mut c = cfg();
    c.max_buffered_bytes = Some(0); // valve closed as soon as anything buffers
    let relay = EngineCore::new(c);
    let client = EngineCore::new(cfg());
    let ca = addr(1400);
    let sa = addr(2400);
    relay.add_route(ca, sa);
    let mut rng = StdRng::seed_from_u64(11);
    let now = Timestamp::from_millis(1);
    // Learn the association at the relay via the handshake pair.
    let (key, out) = client.connect(sa, 3, now, &mut rng);
    let hs1 = out.datagrams[0].1.clone();
    let o = relay.handle_datagram(ca, &hs1, now, &mut rng);
    // Fabricate the HS2 by letting a server engine answer.
    let server = EngineCore::new(cfg());
    let hs2 = server.handle_datagram(ca, &o.datagrams[0].1, now, &mut rng);
    relay.handle_datagram(sa, &hs2.datagrams[0].1, now, &mut rng);
    client.handle_datagram(sa, &hs2.datagrams[0].1, now, &mut rng);
    // First S1 buffers a pre-signature; gauge goes positive; the
    // next S1 must hit the valve.
    let s1a = client
        .sign_batch(key, &[b"one".as_slice()], Mode::Base, now)
        .unwrap()
        .datagrams
        .remove(0)
        .1;
    relay.handle_datagram(ca, &s1a, now, &mut rng);
    assert!(relay.buffered_bytes() > 0, "pre-signature buffered");
    relay.handle_datagram(ca, &s1a, now, &mut rng);
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
    let client = EngineCore::new(EngineConfig::new(proto).with_adapt(acfg));
    let server = EngineCore::new(EngineConfig::new(proto));
    let ca = addr(1500);
    let sa = addr(2500);
    let mut rng = StdRng::seed_from_u64(12);
    let mut now = Timestamp::from_millis(1);

    let (key, out) = client.connect(sa, 21, now, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);

    // Clean phase: offer a full buffer each exchange; AIMD must walk
    // the bundle size up to the cap on the Cumulative rung.
    let msgs: Vec<Vec<u8>> = (0..acfg.max_n).map(|i| vec![i as u8; 32]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut last_take = 0;
    for _ in 0..12 {
        now = now.plus_micros(10_000);
        let (take, out) = client.sign_adaptive(key, &refs, now).expect("sign");
        last_take = take;
        pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        assert!(client.flow_is_idle(key), "clean exchange must finish");
    }
    assert_eq!(last_take, acfg.max_n, "AIMD grew the bundle to the cap");
    client
        .with_adapt(key, |a| {
            assert_eq!(a.decision().kind, alpha_adapt::ModeKind::Cumulative);
            assert!(a.estimator().srtt_us().is_some(), "RTT sampled");
        })
        .expect("adaptive flow state");

    // Loss phase: sign and then drop every datagram on the floor; the
    // signer retries through the timer wheel until it abandons, and
    // each abandoned exchange drives the loss estimate up the ladder.
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
    let snap: serde::Value = serde_json::from_str(&server.stats_json()).unwrap();
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
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg().with_hibernate_after(Some(50_000)));
    let ca = addr(1700);
    let sa = addr(2700);
    let mut rng = StdRng::seed_from_u64(31);
    let t0 = Timestamp::from_millis(1);

    let (key, out) = client.connect(sa, 42, t0, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    let out = client
        .sign_batch(key, &[b"before sleep".as_slice()], Mode::Base, t0)
        .unwrap();
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    assert_eq!(from_server.delivered.len(), 1);

    // 60 ms of silence: the idle check fires and freezes the flow.
    let t1 = t0.plus_micros(60_000);
    let _ = server.poll(t1, &mut rng);
    assert_eq!(store_counts(&server), (1, 0, 0, 0), "flow froze");
    assert_eq!(server.flow_count(), 1, "tombstone stays in the table");
    let m = server.metrics();
    assert_eq!(m.store.flows_hibernated.load(Ordering::Relaxed), 1);
    assert!(m.store.bytes_frozen.load(Ordering::Relaxed) > 0);

    // The next datagram wakes it mid-stream: no handshake, same
    // verifier decisions, payload delivered.
    let t2 = t1.plus_micros(1_000);
    let out = client
        .sign_batch(key, &[b"after wake".as_slice()], Mode::Base, t2)
        .unwrap();
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t2, &mut rng);
    assert_eq!(from_server.delivered.len(), 1);
    assert_eq!(from_server.delivered[0].2, b"after wake");
    assert_eq!(store_counts(&server), (1, 1, 0, 0), "woke exactly once");
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
    let out = client
        .sign_batch(key, &[b"steady state".as_slice()], Mode::Base, t2)
        .unwrap();
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t2, &mut rng);
    assert_eq!(from_server.delivered[0].2, b"steady state");
}

#[test]
fn forged_datagram_cannot_force_a_thaw() {
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg().with_hibernate_after(Some(50_000)));
    let ca = addr(1710);
    let sa = addr(2710);
    let mut rng = StdRng::seed_from_u64(32);
    let t0 = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 42, t0, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    let t1 = t0.plus_micros(60_000);
    let _ = server.poll(t1, &mut rng);
    assert_eq!(store_counts(&server), (1, 0, 0, 0), "flow frozen");

    // An attacker who observed the flow key forges an S1 from a
    // different association claiming the same id and source.
    let mallory = EngineCore::new(cfg());
    let decoy = EngineCore::new(cfg());
    let ma = addr(1711);
    let da = addr(2711);
    let (mkey, out) = mallory.connect(da, 42, t0, &mut rng);
    pump(&mallory, ma, &decoy, da, out.datagrams, t0, &mut rng);
    let forged = mallory
        .sign_batch(mkey, &[b"let me in".as_slice()], Mode::Base, t1)
        .unwrap()
        .datagrams;
    let t2 = t1.plus_micros(1_000);
    let o = server.handle_datagram(ca, &forged[0].1, t2, &mut rng);
    assert!(o.delivered.is_empty() && o.datagrams.is_empty());
    let (frozen, thawed, evicted, rejected) = store_counts(&server);
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
    let out = client
        .sign_batch(key, &[b"genuine".as_slice()], Mode::Base, t2)
        .unwrap();
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t2, &mut rng);
    assert_eq!(from_server.delivered[0].2, b"genuine");
    assert_eq!(store_counts(&server), (1, 1, 0, 1));
}

#[test]
fn forged_wake_costs_a_trial_verification_not_a_chain_rebuild() {
    use alpha_crypto::chain::DEFAULT_MAX_SKIP;
    use alpha_wire::{Body, Packet, PreSignature};
    // Default chain length: the √n layout a deployed host runs.
    let protocol = Config::new(Algorithm::Sha1);
    assert_eq!(protocol.max_skip, DEFAULT_MAX_SKIP);
    let client = EngineCore::new(EngineConfig::new(protocol));
    let server = EngineCore::new(EngineConfig::new(protocol).with_hibernate_after(Some(50_000)));
    let ca = addr(1715);
    let sa = addr(2715);
    let mut rng = StdRng::seed_from_u64(34);
    let t0 = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 42, t0, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    let out = client
        .sign_batch(key, &[b"before sleep".as_slice()], Mode::Base, t0)
        .unwrap();
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    let t1 = t0.plus_micros(60_000);
    let _ = server.poll(t1, &mut rng);
    assert_eq!(store_counts(&server), (1, 0, 0, 0), "flow frozen");
    let server_key = FlowKey {
        peer: ca,
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
    let junk = Algorithm::Sha1.hash(b"not on the chain");
    let forged = Packet {
        assoc_id: 42,
        alg: Algorithm::Sha1,
        chain_index: verifier_at - DEFAULT_MAX_SKIP + 1,
        body: Body::S1 {
            element: junk,
            presig: PreSignature::Cumulative(vec![junk]),
        },
    }
    .emit();
    let t2 = t1.plus_micros(1_000);
    let scope = alpha_crypto::counting::Scope::start();
    let o = server.handle_datagram(ca, &forged, t2, &mut rng);
    let hashes = scope.finish().invocations;
    assert!(o.delivered.is_empty() && o.datagrams.is_empty());
    assert!(
        (DEFAULT_MAX_SKIP - 1..=DEFAULT_MAX_SKIP + 16).contains(&hashes),
        "a forged wake cost {hashes} hashes"
    );
    assert_eq!(store_counts(&server), (1, 0, 0, 1), "forgery rejected");
    assert_eq!(stored(), before, "record untouched");

    // The genuine datagram after it still wakes the flow mid-stream.
    let out = client
        .sign_batch(key, &[b"genuine".as_slice()], Mode::Base, t2)
        .unwrap();
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t2, &mut rng);
    assert_eq!(from_server.delivered[0].2, b"genuine");
    assert_eq!(store_counts(&server), (1, 1, 0, 1));
    let handshakes = server.metrics().handshakes.load(Ordering::Relaxed);
    assert_eq!(handshakes, 1, "wake needed no re-handshake");
}

#[test]
fn frozen_budget_evicts_coldest_and_reaps_tombstones() {
    let client = EngineCore::new(cfg());
    // A one-byte budget cannot hold two records: each freeze evicts
    // the previous (soft budget keeps the newest resident).
    let server = EngineCore::new(
        cfg()
            .with_hibernate_after(Some(50_000))
            .with_frozen_budget(Some(1)),
    );
    let ca = addr(1720);
    let sa = addr(2720);
    let mut rng = StdRng::seed_from_u64(33);
    let t0 = Timestamp::from_millis(1);
    for id in 1..=3 {
        let (_, out) = client.connect(sa, id, t0, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    }
    assert_eq!(server.flow_count(), 3);

    let t1 = t0.plus_micros(60_000);
    let _ = server.poll(t1, &mut rng);
    let (frozen, _, evicted, _) = store_counts(&server);
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
    let client = EngineCore::new(cfg().with_renew_below(64).with_pacer(pacer));
    let server = EngineCore::new(cfg());
    let ca = addr(1730);
    let sa = addr(2730);
    let mut rng = StdRng::seed_from_u64(34);
    let t0 = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 7, t0, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    let fresh = client
        .with_association(key, |a| a.remaining_exchanges())
        .unwrap();
    let out = client
        .sign_batch(key, &[b"spend the chain".as_slice()], Mode::Base, t0)
        .unwrap();
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    assert_eq!(
        from_server.delivered.len(),
        1,
        "the message, not the renewal"
    );
    let m = client.metrics();
    assert_eq!(m.store.renewals_started.load(Ordering::Relaxed), 1);
    assert_eq!(m.store.renewals_deferred.load(Ordering::Relaxed), 0);
    let after = client
        .with_association(key, |a| a.remaining_exchanges())
        .unwrap();
    assert_eq!(
        after, fresh,
        "renewal replenished the chain the exchange spent"
    );

    // Nothing was left for the timer path.
    let out = client.poll(t0.plus_micros(2_000), &mut rng);
    assert!(out.datagrams.is_empty(), "no renewal timer fires");
    assert_eq!(m.store.renewals_started.load(Ordering::Relaxed), 1);

    // The renewed flow goes on exchanging.
    let out = client
        .sign_batch(key, &[b"on fresh chains".as_slice()], Mode::Base, t0)
        .unwrap();
    let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    assert_eq!(from_server.delivered[0].2, b"on fresh chains");
}

#[test]
fn renewal_pacer_defers_when_bucket_is_empty() {
    let pacer = PacerConfig {
        max_jitter_us: 0,
        rate_per_sec: 0,
        burst: 0,
    };
    let client = EngineCore::new(cfg().with_renew_below(64).with_pacer(pacer));
    let server = EngineCore::new(cfg());
    let ca = addr(1740);
    let sa = addr(2740);
    let mut rng = StdRng::seed_from_u64(35);
    let t0 = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 8, t0, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    let out = client
        .sign_batch(key, &[b"idle now".as_slice()], Mode::Base, t0)
        .unwrap();
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);

    let out = client.poll(t0.plus_micros(2_000), &mut rng);
    assert!(out.datagrams.is_empty(), "no renewal admitted");
    let m = client.metrics();
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
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg());
    let sa = addr(2750);
    let mut rng = StdRng::seed_from_u64(43);
    let mut now = Timestamp::from_millis(1);
    let keys: Vec<(SocketAddr, FlowKey)> = (0..FLOWS)
        .map(|f| {
            let ca = addr(1750 + f);
            let (key, out) = client.connect(sa, 60 + u64::from(f), now, &mut rng);
            pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
            (ca, key)
        })
        .collect();
    let chain_len = cfg().protocol.chain_len as usize;
    for round in 0..10 * chain_len {
        now = now.plus_micros(1_000);
        for (f, &(ca, key)) in keys.iter().enumerate() {
            let msg = format!("flow {f} exchange {round}");
            let out = client
                .sign_batch(key, &[msg.as_bytes()], Mode::Base, now)
                .unwrap_or_else(|e| panic!("flow {f}, exchange {round}: {e}"));
            let (_, from_server) = pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
            assert_eq!(from_server.delivered.len(), 1, "flow {f}, exchange {round}");
            assert_eq!(from_server.delivered[0].2, msg.as_bytes());
        }
    }
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
    for (side, e) in [("client", &client), ("server", &server)] {
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
    let client = EngineCore::new(cfg());
    let server = EngineCore::new(cfg().with_hibernate_after(Some(50_000)));
    let ca = addr(1190);
    let ca2 = addr(1191);
    let sa = addr(2190);
    let mut rng = StdRng::seed_from_u64(41);
    let t0 = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 51, t0, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);

    assert_eq!(server.reroute(ca, ca2), 1);
    let t1 = t0.plus_micros(60_000);
    let _ = server.poll(t1, &mut rng);
    assert_eq!(
        store_counts(&server),
        (1, 0, 0, 0),
        "rerouted flow still freezes once idle"
    );

    // The record froze under the new key: the new peer wakes it.
    let out = client
        .sign_batch(key, &[b"via standby".as_slice()], Mode::Base, t1)
        .unwrap();
    let (_, from_server) = pump(&client, ca2, &server, sa, out.datagrams, t1, &mut rng);
    assert_eq!(from_server.delivered[0].2, b"via standby");
    assert_eq!(store_counts(&server), (1, 1, 0, 0));
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
    let client = EngineCore::new(cfg().with_renew_below(64).with_pacer(pacer));
    let server = EngineCore::new(cfg());
    let ca = addr(1195);
    let sa = addr(2195);
    let sa2 = addr(2196);
    let mut rng = StdRng::seed_from_u64(42);
    let t0 = Timestamp::from_millis(1);
    let (key, out) = client.connect(sa, 52, t0, &mut rng);
    pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    // The first exchange spends the pacer's one token on a renewal; the
    // second finds the bucket dry, so its renewal is deferred to a
    // (jitter-free) timer.
    for msg in [b"renew now".as_slice(), b"arm the renewal"] {
        let out = client.sign_batch(key, &[msg], Mode::Base, t0).unwrap();
        pump(&client, ca, &server, sa, out.datagrams, t0, &mut rng);
    }
    let store = &client.metrics().store;
    assert_eq!(store.renewals_started.load(Ordering::Relaxed), 1);
    assert_eq!(store.renewals_deferred.load(Ordering::Relaxed), 1);

    assert_eq!(client.reroute(sa, sa2), 1);
    let out = client.poll(t0.plus_micros(1_500_000), &mut rng);
    assert!(
        !out.datagrams.is_empty() && out.datagrams.iter().all(|(d, _)| *d == sa2),
        "renewal S1 goes out, toward the new peer"
    );
    assert_eq!(store.renewals_started.load(Ordering::Relaxed), 2);
}

#[test]
fn relay_single_and_run_paths_agree() {
    // The same S2s — four of one exchange (one with a flipped payload
    // bit) and a trailing signal-carrying S2 — through two relay
    // engines: one datagram each (single-packet path) versus one
    // bundle (S2-run path). Everything observable must match.
    use alpha_core::signal::Signal;
    let ca = addr(1900);
    let sa = addr(2900);
    let now = Timestamp::from_millis(1);
    for mode in [Mode::Cumulative, Mode::Merkle] {
        let c = Config::new(Algorithm::Sha256).with_chain_len(64);
        let mut rng = StdRng::seed_from_u64(77);
        let (hs, hs1) = bootstrap::initiate(c, 9, None, &mut rng);
        let (mut bob, hs2, _) =
            bootstrap::respond(c, &hs1, None, AuthRequirement::None, &mut rng).unwrap();
        let (mut alice, _) = hs.complete(&hs2, AuthRequirement::None).unwrap();

        let msgs: Vec<Vec<u8>> = (0..4).map(|i| format!("run {i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1a = alice.sign_batch(&refs, mode, now).unwrap();
        let a1a = bob.handle(&s1a, now, &mut rng).unwrap().packet().unwrap();
        let mut s2s = alice.handle(&a1a, now, &mut rng).unwrap().packets;
        let signal = Signal::RateLimit { bytes_per_sec: 512 };
        let s1b = alice.send_signal(&signal, now).unwrap();
        let a1b = bob.handle(&s1b, now, &mut rng).unwrap().packet().unwrap();
        s2s.extend(alice.handle(&a1b, now, &mut rng).unwrap().packets);
        assert_eq!(s2s.len(), 5);
        if let alpha_wire::Body::S2 { payload, .. } = &mut s2s[2].body {
            payload[0] ^= 1;
        }

        let single = EngineCore::new(cfg());
        let run = EngineCore::new(cfg());
        let mut seen = Vec::new();
        for (relay, bundled) in [(&single, false), (&run, true)] {
            relay.add_route(ca, sa);
            for (from, pkt) in [
                (ca, &hs1),
                (sa, &hs2),
                (ca, &s1a),
                (sa, &a1a),
                (ca, &s1b),
                (sa, &a1b),
            ] {
                let o = relay.handle_datagram(from, &pkt.emit(), now, &mut rng);
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
                    let mut slices: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
                    let n = bundle::split(frame, &mut slices).unwrap();
                    forwarded.extend(slices[..n].iter().map(|s| s.to_vec()));
                }
                extracted.extend(o.extracted);
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
        let client = EngineCore::new(cfg);
        let server = EngineCore::new(cfg);
        let ca = addr(1910 + n as u16);
        let sa = addr(2910 + n as u16);
        let mut rng = StdRng::seed_from_u64(43);
        let now = Timestamp::from_millis(1);
        let (key, out) = client.connect(sa, 53, now, &mut rng);
        pump(&client, ca, &server, sa, out.datagrams, now, &mut rng);
        let frozen = client
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
