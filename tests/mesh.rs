//! Multi-hop relay mesh: chained per-hop verification, the static
//! relay-set bypass defense, and live path failover over loopback UDP.

#[path = "../crates/engine/tests/common/net.rs"]
mod net;

use std::net::SocketAddr;

use alpha::core::{Config, Mode, Timestamp};
use alpha::crypto::Algorithm;
use alpha::engine::{EngineConfig, EngineCore};
use net::{addr, Net};

fn base_cfg() -> Config {
    Config::new(Algorithm::Sha1).with_chain_len(64)
}

/// A relay-role engine in mesh mode: accepts traffic only from `up` and
/// `down`, routes `left`'s datagrams toward `right` (and back).
fn mesh_relay(cfg: Config, up: SocketAddr, down: SocketAddr) -> EngineCore {
    let mut ecfg = EngineConfig::new(cfg);
    ecfg.accept_handshakes = false;
    let core = EngineCore::new(ecfg);
    core.mesh_enable(true);
    core.mesh_register_peer(up);
    core.mesh_register_peer(down);
    core
}

/// A 3-hop chain of mesh relays (client → R1 → R2 → R3 → server), all
/// verifying. A perfectly timed forgery of the payload inside a legit
/// S2 must die at hop 2 — the hop that sees it first — and the original
/// S2 must still deliver end-to-end afterwards. A replay of the valid
/// S2 from an address outside the relay set must be rejected before any
/// crypto (the §3.5 static-relay-set bypass defense).
#[test]
fn forged_s2_dies_at_hop_two_and_foreign_sources_are_rejected() {
    use std::sync::atomic::Ordering::Relaxed;
    let cfg = base_cfg();
    let mut rng = alpha::test_rng(77);
    let (c, r1, r2, r3, s) = (addr(100), addr(1), addr(2), addr(3), addr(200));

    let mut net = Net::new(77);
    net.host(c, EngineConfig::new(cfg));
    net.host(s, EngineConfig::new(cfg));
    for (at, up, down) in [(r1, c, r2), (r2, r1, r3), (r3, r2, s)] {
        let relay = mesh_relay(cfg, up, down);
        relay.add_route(up, down);
        net.add(at, relay);
    }

    // Bootstrap through the chain, then stage one Base exchange and
    // intercept the S2 on the wire between hop 1 and hop 2.
    let key = net.connect(c, r1, 7);
    assert!(net.engine(c).flow_is_idle(key), "handshake completed");

    let payload = b"hop-by-hop authenticated payload";
    net.now = Timestamp::from_millis(5);
    net.sign(c, key, &[payload], Mode::Base).expect("sign");
    let held = net.pump_holding(|d| d.src == r1 && d.dst == r2 && d.carries_s2());
    let s2 = held
        .into_iter()
        .next()
        .expect("S2 must appear on the r1 → r2 link");
    let (src, s2_bytes) = (s2.src, s2.frame);
    assert_eq!(src, r1);
    let (rc2, rc3) = (net.engine(r2), net.engine(r3));

    // Forge: flip one byte of the payload inside the otherwise-valid S2.
    let at = s2_bytes
        .windows(payload.len())
        .position(|w| w == payload)
        .expect("payload travels inside the S2");
    let mut forged = s2_bytes.clone();
    forged[at] ^= 0x01;
    let hop3_seen = rc3.metrics().packets_in.load(Relaxed);
    let now = Timestamp::from_millis(20);
    let out = rc2.handle_datagram(r1, &forged, now, &mut rng);
    assert!(
        out.datagrams.is_empty() && out.extracted.is_empty(),
        "hop 2 must drop the forged S2, not forward it"
    );
    assert_eq!(rc2.metrics().verify_failures.load(Relaxed), 1);
    assert_eq!(
        rc3.metrics().packets_in.load(Relaxed),
        hop3_seen,
        "the forgery never reached hop 3"
    );

    // Bypass attempt: the *valid* S2 replayed from an address outside
    // the registered relay set is refused without inspection.
    let intruder = addr(666);
    let out = rc2.handle_datagram(intruder, &s2_bytes, now, &mut rng);
    assert!(out.datagrams.is_empty() && out.extracted.is_empty());
    assert_eq!(
        rc2.core_mesh_upstream_rejects(),
        1,
        "foreign source counted as an upstream reject"
    );

    // The original S2 still verifies at hop 2 and delivers end-to-end.
    let out = rc2.handle_datagram(r1, &s2_bytes, now, &mut rng);
    assert!(!out.datagrams.is_empty(), "legit S2 forwarded");
    net.send(r2, out);
    net.pump();
    for (rc, hop) in [
        (net.engine(r1), 1),
        (net.engine(r2), 2),
        (net.engine(r3), 3),
    ] {
        assert_eq!(
            rc.metrics().s2_verified.load(Relaxed),
            1,
            "hop {hop} verified the payload in transit"
        );
    }
    assert_eq!(
        net.engine(s).metrics().s2_verified.load(Relaxed),
        1,
        "server delivered the payload"
    );
}

/// Convenience: `metrics().mesh.upstream_rejects` through one call.
trait MeshRejects {
    fn core_mesh_upstream_rejects(&self) -> u64;
}

impl MeshRejects for EngineCore {
    fn core_mesh_upstream_rejects(&self) -> u64 {
        use std::sync::atomic::Ordering::Relaxed;
        self.metrics().mesh.upstream_rejects.load(Relaxed)
    }
}

/// The flagship end-to-end scenario over real loopback UDP: a 3-hop
/// chain (client → R1 → R2 → verifier) where R2 is shadowed by a
/// standby R2b. Mid-stream, R2 is killed. R1 (forward path) and the
/// verifier (reverse path) must each detect the death within a bounded
/// number of probe intervals and re-route the live flow to R2b, and the
/// stream must complete with full verification at every surviving hop.
#[test]
fn live_three_hop_chain_survives_mid_path_relay_death() {
    use alpha::mesh::{MeshConfig, MeshNode, MeshNodeConfig};
    use alpha::transport::{HandshakeAuth, UdpHost};
    use std::net::UdpSocket;
    use std::sync::atomic::Ordering::Relaxed;
    use std::time::Duration;

    let cfg = base_cfg().with_reliability(alpha::core::Reliability::Reliable);
    let fast = MeshConfig {
        probe_interval_us: 20_000,
        initial_rto_us: 40_000,
        ..MeshConfig::default()
    };
    let relay_engine = || {
        let mut ecfg = EngineConfig::new(cfg);
        ecfg.accept_handshakes = false;
        ecfg
    };
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();

    // The client's socket is reserved first: R1 needs its address both
    // in the upstream accept set and as a route source.
    let client_sock = UdpSocket::bind("127.0.0.1:0").expect("client sock");
    let client_addr = client_sock.local_addr().unwrap();

    // Spawn back-to-front so each node knows its next hop's address.
    let mut vcfg = MeshNodeConfig::new(any, EngineConfig::new(cfg));
    vcfg.mesh = fast;
    let verifier = MeshNode::spawn(vcfg).expect("verifier");
    let v_addr = verifier.local_addr().unwrap();

    let spawn_mid = |label: &str| {
        let mut c = MeshNodeConfig::new(any, relay_engine());
        c.mesh = fast;
        c.next_hops = vec![v_addr];
        let node = MeshNode::spawn(c).unwrap_or_else(|e| panic!("{label}: {e}"));
        let addr = node.local_addr().unwrap();
        (node, addr)
    };
    let (r2, r2_addr) = spawn_mid("r2");
    let (r2b, r2b_addr) = spawn_mid("r2b");

    let mut c1 = MeshNodeConfig::new(any, relay_engine());
    c1.mesh = fast;
    c1.upstreams = vec![client_addr];
    c1.next_hops = vec![r2_addr, r2b_addr]; // primary + standby
    c1.route_sources = vec![client_addr];
    let r1 = MeshNode::spawn(c1).expect("r1");
    let r1_addr = r1.local_addr().unwrap();

    // Close the bind-order cycle: the mid relays learn their upstream,
    // and the verifier registers both mid relays so its reverse path
    // has a failover candidate (probing both).
    for mid in [&r2, &r2b] {
        mid.join_upstream(r1_addr);
        mid.core().add_route(r1_addr, v_addr);
    }
    verifier.join_upstream(r2_addr);
    verifier.join_upstream(r2b_addr);

    // Stream 6 reliable Cumulative batches; kill R2 after the second.
    const BATCHES: usize = 6;
    const PER_BATCH: usize = 5;
    let mut host = UdpHost::connect_socket(
        cfg,
        42,
        client_sock,
        r1_addr,
        Duration::from_secs(20),
        HandshakeAuth::default(),
    )
    .expect("client handshake through the chain");
    let mut r2_alive = Some(r2);
    for b in 0..BATCHES {
        let msgs: Vec<String> = (0..PER_BATCH)
            .map(|i| format!("batch {b} message {i}"))
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(String::as_bytes).collect();
        host.send_batch(&refs, Mode::Cumulative, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("batch {b} failed: {e}"));
        if b == 1 {
            // Mid-stream crash of the primary mid-path relay.
            r2_alive.take().expect("r2 still running").shutdown();
        }
    }

    // Both neighbours of the dead relay re-routed the live flow.
    assert!(
        r1.failovers() >= 1,
        "R1 never failed the forward path over: {}",
        r1.peers_json()
    );
    assert!(
        verifier.failovers() >= 1,
        "verifier never failed the reverse path over: {}",
        verifier.peers_json()
    );
    // The standby carried (and verified) the tail of the stream.
    assert!(
        r2b.core().metrics().s2_verified.load(Relaxed) > 0,
        "standby verified no traffic: {}",
        r2b.stats_json()
    );
    // Every hop of the surviving path ran full verification; the
    // verifier delivered every exchange of the stream.
    assert!(r1.core().metrics().s2_verified.load(Relaxed) >= BATCHES as u64);
    assert!(verifier.core().metrics().s2_verified.load(Relaxed) >= BATCHES as u64);
    assert!(
        r1.peers_json().contains("\"health\":\"down\""),
        "R1's registry records the dead peer: {}",
        r1.peers_json()
    );

    r1.shutdown();
    r2b.shutdown();
    verifier.shutdown();
}
