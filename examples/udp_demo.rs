//! ALPHA over real UDP sockets: client → verifying middlebox → server on
//! localhost, three OS threads.
//!
//! The middlebox is an [`alpha::transport::Engine`] with one worker and
//! one route, as `alpha relay` runs it: it forwards datagrams while
//! running full relay verification, and a delivery sink collects each
//! payload it authenticated in transit.
//!
//! Run with: `cargo run --example udp_demo`

use std::net::UdpSocket;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use alpha::core::{Config, Mode};
use alpha::crypto::Algorithm;
use alpha::engine::{EngineConfig, EngineCore};
use alpha::transport::{DeliverySink, Engine, UdpHost};

fn main() {
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(128);

    // Reserve addresses for both endpoints so the relay knows its sides.
    let server_addr = {
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let a = probe.local_addr().unwrap();
        drop(probe);
        a
    };
    let client_addr = {
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let a = probe.local_addr().unwrap();
        drop(probe);
        a
    };

    // Server thread: accept one association, serve for 3 s.
    let server = std::thread::spawn(move || {
        let mut host = UdpHost::accept(cfg, server_addr, Duration::from_secs(10)).expect("accept");
        host.serve(Duration::from_millis(3000)).expect("serve")
    });

    // Middlebox: a relay engine (no host flows of its own) routing the
    // client's traffic to the server, on its own worker thread.
    let mut ecfg = EngineConfig::new(cfg);
    ecfg.accept_handshakes = false;
    let core = EngineCore::new(ecfg);
    core.add_route(client_addr, server_addr);
    let extracted = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
    let into = Arc::clone(&extracted);
    let sink: DeliverySink = Box::new(move |out| {
        let mut into = into.lock().unwrap();
        into.extend(out.extracted.iter().map(|(_, p)| p.to_vec()));
    });
    let relay = Engine::bind_with_sink("127.0.0.1:0", core, 1, Some(sink)).expect("relay bind");
    let relay_addr = relay.local_addr().unwrap();

    // Client: handshake *through* the middlebox, then send a batch.
    let mut client = UdpHost::connect(cfg, 42, client_addr, relay_addr, Duration::from_secs(10))
        .expect("connect");
    println!("client connected through middlebox {relay_addr}");
    client
        .send_batch(
            &[
                b"telemetry frame 0".as_slice(),
                b"telemetry frame 1".as_slice(),
                b"telemetry frame 2".as_slice(),
                b"telemetry frame 3".as_slice(),
            ],
            Mode::Cumulative,
            Duration::from_secs(5),
        )
        .expect("batch send");
    println!("client: ALPHA-C batch dispatched over UDP");

    let delivered = server.join().expect("server thread");
    let m = relay.core().metrics();
    let forwarded = m.packets_out.load(Relaxed);
    let dropped = m.total_drops()
        + m.admission_drops.load(Relaxed)
        + m.backpressure_drops.load(Relaxed)
        + m.parse_errors.load(Relaxed);
    relay.shutdown();
    let extracted = extracted.lock().unwrap();
    println!("server delivered ({}):", delivered.len());
    for d in &delivered {
        println!("  {:?}", String::from_utf8_lossy(d));
    }
    println!("middlebox: forwarded {forwarded} datagrams, dropped {dropped}, verified {} payloads in transit:", extracted.len());
    for e in extracted.iter() {
        println!("  {:?}", String::from_utf8_lossy(e));
    }
    assert_eq!(delivered.len(), 4);
    assert_eq!(extracted.len(), 4);
}
