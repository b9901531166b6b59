//! Runtime-rung equivalence test: the portable rung (`recv_from`
//! sockets, blocking-timeout wait) and the Linux rung (`mmsg` sockets,
//! epoll wait) must be interchangeable — same multi-flow relay
//! scenario, byte-identical delivered payloads, and identical protocol
//! decisions (handshakes learned, S2 exchanges verified, zero failures,
//! zero drops). Only the syscall count, how the workers sleep, and
//! whether runs of equal-size datagrams travel coalesced (segment
//! offload engages on the Linux rung only, and must) may differ.

use std::net::UdpSocket;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

use alpha_core::{Config, Mode};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore};
use alpha_transport::{io, Engine, HandshakeAuth, UdpBackend, UdpHost};

const FLOWS: usize = 4;
const PAYLOADS: usize = 6;
/// Messages of the closing ALPHA-C exchange: the S2s leave the client
/// sixteen to a datagram, so three equal-size datagrams in one batch —
/// a run, for the client's sender and again for the relay's.
const RUN_PAYLOADS: usize = 48;

/// Everything one run of the scenario produces that must not depend on
/// the rung: what each server received, and what the relay decided.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Per-flow payloads, in delivery order.
    delivered: Vec<Vec<Vec<u8>>>,
    handshakes: u64,
    s2_verified: u64,
    verify_failures: u64,
    parse_errors: u64,
    total_drops: u64,
    flow_count: usize,
}

fn payload(flow: usize, j: usize) -> Vec<u8> {
    format!("flow {flow} payload {j:02}").into_bytes()
}

/// The outcome, and the relay's `(gso_sends, gro_recvs)`.
fn run_scenario(backend: UdpBackend) -> (Outcome, (u64, u64)) {
    io::force(backend).expect("backend supported");
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);

    // Reserve every endpoint socket up front and keep them bound, so the
    // relay can be routed before traffic flows and no address can be
    // reallocated out from under a thread.
    let reserve = |_: usize| UdpSocket::bind("127.0.0.1:0").unwrap();
    let client_socks: Vec<_> = (0..FLOWS).map(reserve).collect();
    let server_socks: Vec<_> = (0..FLOWS).map(reserve).collect();

    let relay_core = EngineCore::new(EngineConfig::new(cfg).with_shards(4));
    for i in 0..FLOWS {
        relay_core.add_route(
            client_socks[i].local_addr().unwrap(),
            server_socks[i].local_addr().unwrap(),
        );
    }
    let relay = Engine::bind("127.0.0.1:0", relay_core, 2).expect("relay bind");
    let relay_addr = relay.local_addr().unwrap();
    let io = &relay.core().metrics().io;
    assert_eq!(
        (io.backend_name(), io.wait_backend_name()),
        (backend.name(), backend.wait_name()),
        "stats must name the rung that ran: the forced backend and the wait derived from it"
    );

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
                host.serve(Duration::from_millis(2500))
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
                    500 + i as u64,
                    sock,
                    relay_addr,
                    Duration::from_secs(30),
                    HandshakeAuth::default(),
                )
                .unwrap_or_else(|e| panic!("client {i} connect: {e}"));
                // One exchange per payload: timers, resends and the
                // relay's exchange rotation all get exercised on each
                // rung, not just a single verified S2.
                for j in 0..PAYLOADS {
                    host.send_batch(&[&payload(i, j)], Mode::Base, Duration::from_secs(20))
                        .unwrap_or_else(|e| panic!("client {i} send {j}: {e}"));
                }
                // Then one exchange whose S2s leave as a run.
                let run: Vec<Vec<u8>> = (PAYLOADS..PAYLOADS + RUN_PAYLOADS)
                    .map(|j| payload(i, j))
                    .collect();
                let refs: Vec<&[u8]> = run.iter().map(Vec::as_slice).collect();
                host.send_batch(&refs, Mode::Cumulative, Duration::from_secs(20))
                    .unwrap_or_else(|e| panic!("client {i} send run: {e}"));
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let delivered: Vec<Vec<Vec<u8>>> = servers
        .into_iter()
        .map(|s| s.join().expect("server thread"))
        .collect();

    let core = relay.core().clone();
    relay.shutdown();
    let m = core.metrics();
    let outcome = Outcome {
        delivered,
        handshakes: m.handshakes.load(Relaxed),
        s2_verified: m.s2_verified.load(Relaxed),
        verify_failures: m.verify_failures.load(Relaxed),
        parse_errors: m.parse_errors.load(Relaxed),
        total_drops: m.total_drops(),
        flow_count: core.flow_count(),
    };
    let io = m.io.totals();
    (outcome, (io.gso_sends, io.gro_recvs))
}

fn check_outcome(o: &Outcome, label: &str) {
    for (i, flow) in o.delivered.iter().enumerate() {
        let want: Vec<Vec<u8>> = (0..PAYLOADS + RUN_PAYLOADS)
            .map(|j| payload(i, j))
            .collect();
        assert_eq!(flow, &want, "{label}: server {i} payloads");
    }
    assert_eq!(o.handshakes, FLOWS as u64, "{label}: handshakes learned");
    assert_eq!(o.flow_count, FLOWS, "{label}: relay flows resident");
    assert!(
        o.s2_verified >= FLOWS as u64,
        "{label}: at least one verified exchange per flow (got {})",
        o.s2_verified
    );
    assert_eq!(o.verify_failures, 0, "{label}: verify failures");
    assert_eq!(o.parse_errors, 0, "{label}: parse errors");
    assert_eq!(o.total_drops, 0, "{label}: relay drops");
}

/// Both rungs run the identical scenario in one process; everything
/// protocol-visible must match exactly. (Single #[test] on purpose:
/// `io::force` is process-wide, so the legs must be sequenced.)
#[test]
fn rungs_are_delivery_and_decision_identical() {
    let (mut fallback, offload) = run_scenario(UdpBackend::Fallback);
    // The portable rung's two workers drain one shared socket, so the
    // three back-to-back datagrams of the closing exchange may be
    // forwarded in any order (ALPHA-C delivers S2s as they arrive):
    // there the run is held to "every payload, once". The Linux rung
    // pins a flow to one worker and is held to the order as well.
    for flow in &mut fallback.delivered {
        if let Some(run) = flow.get_mut(PAYLOADS..) {
            run.sort();
        }
    }
    check_outcome(&fallback, "fallback");
    assert_eq!(offload, (0, 0), "the portable rung never coalesces");

    if !UdpBackend::Mmsg.is_supported() {
        eprintln!("skipping mmsg leg: not supported on this platform");
        return;
    }
    let (mmsg, (gso_sends, gro_recvs)) = run_scenario(UdpBackend::Mmsg);
    check_outcome(&mmsg, "mmsg + epoll");
    assert!(
        gso_sends > 0 && gro_recvs > 0,
        "segment offload must engage on the relay: {gso_sends} coalesced sends, \
         {gro_recvs} coalesced receives"
    );

    assert_eq!(
        mmsg, fallback,
        "both rungs must deliver identical bytes and make identical relay decisions"
    );
}
