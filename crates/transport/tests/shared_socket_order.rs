//! A shared socket judges each flow's datagrams in the order they
//! arrived. A relay engine with two workers on the forced portable rung
//! (one socket, shared) is handed many flows' back-to-back S1 and S2
//! datagrams, a batch at a time; every exchange must verify, and no
//! datagram may be dropped as unsolicited (an S2 judged before its S1)
//! or for a bad chain element (an S1 judged before the S2 it follows).
//! Several runs, since an ordering race shows up in some runs only.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, DropReason, RelayConfig, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore};
use alpha_transport::io::{self, UdpBackend};
use alpha_transport::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FLOWS: usize = 16;
const EXCHANGES: usize = 48;
const RUNS: usize = 4;

/// One flow's handshake and the client's S1 and S2 of each exchange.
struct Flow {
    handshake: [Vec<u8>; 2],
    datagrams: Vec<Vec<u8>>,
}

fn flow(i: usize, cfg: Config) -> Flow {
    let mut rng = StdRng::seed_from_u64(0x5a0e + i as u64);
    let (hs, hs1) = bootstrap::initiate(cfg, i as u64 + 1, None, &mut rng);
    let (mut server, hs2, _) =
        bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng).expect("respond");
    let (mut client, _) = hs.complete(&hs2, AuthRequirement::None).expect("complete");
    let mut datagrams = Vec::with_capacity(2 * EXCHANGES);
    for x in 0..EXCHANGES {
        let now = Timestamp::from_millis(10 + x as u64);
        let payload = format!("flow {i} exchange {x}");
        let s1 = client.sign(payload.as_bytes(), now).expect("sign");
        let a1 = server
            .handle(&s1, now, &mut rng)
            .expect("S1")
            .packet()
            .expect("A1");
        let s2 = client
            .handle(&a1, now, &mut rng)
            .expect("A1")
            .packet()
            .expect("S2");
        server.handle(&s2, now, &mut rng).expect("S2");
        datagrams.push(s1.emit());
        datagrams.push(s2.emit());
    }
    Flow {
        handshake: [hs1.emit(), hs2.emit()],
        datagrams,
    }
}

/// One run: returns (verified S2s, unsolicited drops, bad-chain drops).
fn run(flows: &[Flow], cfg: Config) -> (u64, u64, u64) {
    let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind");
    let clients: Vec<UdpSocket> = flows.iter().map(|_| bind()).collect();
    let sinks: Vec<UdpSocket> = flows.iter().map(|_| bind()).collect();
    let mut ecfg = EngineConfig::new(cfg)
        .with_s1_budget(None)
        .with_relay(RelayConfig {
            s1_bytes_per_sec: None,
            ..RelayConfig::default()
        });
    ecfg.accept_handshakes = false;
    let core = EngineCore::new(ecfg);
    let mut rng = StdRng::seed_from_u64(1);
    let t0 = Timestamp::from_millis(1);
    for ((f, c), s) in flows.iter().zip(&clients).zip(&sinks) {
        let (c, s) = (c.local_addr().unwrap(), s.local_addr().unwrap());
        core.add_route(c, s);
        core.handle_datagram(c, &f.handshake[0], t0, &mut rng);
        core.handle_datagram(s, &f.handshake[1], t0, &mut rng);
    }
    let relay = Engine::bind("127.0.0.1:0", core, 2).expect("relay bind");
    assert!(
        !relay.per_worker_sockets(),
        "the portable rung shares one socket"
    );
    let to: SocketAddr = relay.local_addr().unwrap();
    let metrics = relay.core().metrics();
    let base = metrics.io.totals().datagrams_in;
    // Each flow's datagrams in order, flows interleaved a few exchanges
    // at a time, as fast as the sockets take them.
    let mut sent = 0u64;
    for block in (0..2 * EXCHANGES).step_by(8) {
        for (f, c) in flows.iter().zip(&clients) {
            for d in &f.datagrams[block..(block + 8).min(f.datagrams.len())] {
                c.send_to(d, to).expect("send");
                sent += 1;
            }
        }
        // Keep well inside the receive buffer.
        let started = Instant::now();
        while metrics.io.totals().datagrams_in - base + 256 < sent {
            assert!(started.elapsed() < Duration::from_secs(10), "relay stalled");
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let settled = || metrics.io.totals().datagrams_out + metrics.total_drops();
    let started = Instant::now();
    while settled() < sent {
        assert!(started.elapsed() < Duration::from_secs(10), "relay stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let verified = metrics
        .s2_verified
        .load(std::sync::atomic::Ordering::Relaxed);
    let unsolicited = metrics.drops(DropReason::Unsolicited);
    let bad_chain = metrics.drops(DropReason::BadChainElement);
    relay.shutdown();
    (verified, unsolicited, bad_chain)
}

#[test]
fn a_shared_socket_relays_every_exchange_in_arrival_order() {
    io::force(UdpBackend::Fallback).expect("the portable rung runs everywhere");
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(2 * EXCHANGES as u64 + 8);
    let flows: Vec<Flow> = (0..FLOWS).map(|i| flow(i, cfg)).collect();
    for r in 0..RUNS {
        let (verified, unsolicited, bad_chain) = run(&flows, cfg);
        assert_eq!(
            (unsolicited, bad_chain),
            (0, 0),
            "run {r}: unsolicited and bad-chain-element drops"
        );
        assert_eq!(
            verified,
            (FLOWS * EXCHANGES) as u64,
            "run {r}: verified S2s"
        );
    }
}
