//! Saturation load generator for a live engine over real sockets.
//!
//! Every scaling number the benches publish by default comes from the
//! share-nothing *makespan model* (workers timed sequentially); this
//! module is the live counterpart. It binds a real multi-worker
//! [`Engine`] on loopback, stands up N sender threads each driving F
//! concurrent flows through full ALPHA exchanges (S1 → A1 → S2) over
//! their own UDP sockets, and measures the server's verified-S2
//! throughput with all threads actually running concurrently — kernel
//! RSS, SO_REUSEPORT, shard locks, timer wheels and all.
//!
//! The measurement window opens only after every flow has completed its
//! handshake, so the number reported is steady-state verify throughput,
//! not handshake throughput. `host_cores` rides along in the report:
//! on a single-core host the live number is a scheduling exercise, and
//! consumers (ci.sh, BENCH_engine_scaling.json) must not read a
//! speedup off it.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alpha_core::{Config, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore, IoTotals};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::io::MAX_DATAGRAM;
use crate::server::Engine;

/// Load-generator run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server worker threads (each with its own SO_REUSEPORT socket
    /// when the mmsg backend is active).
    pub workers: usize,
    /// Sender threads, each with its own socket and client engine.
    pub senders: usize,
    /// Concurrent flows per sender thread.
    pub flows_per_sender: usize,
    /// Payload bytes per exchange.
    pub payload: usize,
    /// Measurement window (after all handshakes complete).
    pub duration: Duration,
    /// Server flow-table shards.
    pub shards: usize,
}

/// Hash-chain length of every association the load generator drives.
const CHAIN_LEN: u64 = 1024;

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            workers: 4,
            senders: 4,
            flows_per_sender: 16,
            payload: 256,
            duration: Duration::from_secs(2),
            shards: 64,
        }
    }
}

impl LoadgenConfig {
    /// The ci.sh smoke preset: small, sub-second, still end-to-end.
    #[must_use]
    pub fn quick() -> LoadgenConfig {
        LoadgenConfig {
            workers: 2,
            senders: 2,
            flows_per_sender: 8,
            duration: Duration::from_millis(500),
            ..LoadgenConfig::default()
        }
    }

    /// Total concurrent flows across all senders.
    #[must_use]
    pub fn total_flows(&self) -> usize {
        self.senders * self.flows_per_sender
    }
}

/// What a load-generator run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The configuration that produced this report.
    pub workers: usize,
    /// Sender threads.
    pub senders: usize,
    /// Total flows driven.
    pub flows: usize,
    /// Cores the host actually has (`host_cores < 2` means the live
    /// number cannot demonstrate parallel speedup).
    pub host_cores: usize,
    /// Measurement window actually elapsed.
    pub elapsed: Duration,
    /// Verified S2 exchanges inside the window.
    pub s2_verified: u64,
    /// Verified S2 exchanges per second (the headline number).
    pub s2_per_sec: f64,
    /// Server-side I/O totals over the whole run (includes handshakes).
    pub io: IoTotals,
    /// Contended shard-lock acquisitions on the server over the whole
    /// run, handshakes included: how often two workers met in one
    /// shard.
    pub lock_contended: u64,
    /// Whether workers got their own SO_REUSEPORT sockets.
    pub reuseport: bool,
    /// Active UDP backend name.
    pub udp_backend: &'static str,
    /// Wait backend the server's workers actually ran (from the
    /// engine's metrics, so a doorbell-setup fallback is reported
    /// truthfully).
    pub wait_backend: &'static str,
    /// Worker wakeups per second measured with the engine bound but no
    /// client traffic — the wasted-CPU number the epoll wait collapses
    /// (blocking wait: ~`1s / RECV_TIMEOUT` per worker).
    pub idle_wakeups_per_sec: f64,
    /// Client-side signing errors (chain exhaustion etc.; should be 0).
    pub sign_errors: u64,
}

impl LoadgenReport {
    /// Hand-rolled JSON rendering (same dialect as the BENCH emitters).
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            concat!(
                "{{\"runtime_mode\":\"live\",\"host_cores\":{},\"workers\":{},",
                "\"senders\":{},\"flows\":{},\"elapsed_sec\":{:.3},",
                "\"s2_verified\":{},\"s2_per_sec\":{:.1},",
                "\"lock_contended\":{},\"reuseport\":{},\"udp_backend\":\"{}\",",
                "\"wait_backend\":\"{}\",\"idle_wakeups_per_sec\":{:.1},",
                "\"send_retries\":{},\"syscalls_per_datagram\":{:.4},",
                "\"gso_sends\":{},\"gso_segments\":{},\"gro_recvs\":{},",
                "\"gro_segments\":{},\"gso_refused\":{},",
                "\"sign_errors\":{}}}"
            ),
            self.host_cores,
            self.workers,
            self.senders,
            self.flows,
            self.elapsed.as_secs_f64(),
            self.s2_verified,
            self.s2_per_sec,
            self.lock_contended,
            self.reuseport,
            self.udp_backend,
            self.wait_backend,
            self.idle_wakeups_per_sec,
            self.io.send_retries,
            self.io.syscalls_per_datagram(),
            self.io.gso_sends,
            self.io.gso_segments,
            self.io.gro_recvs,
            self.io.gro_segments,
            self.io.gso_refused,
            self.sign_errors,
        )
    }
}

/// Number of cores this host can actually run in parallel.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn proto() -> Config {
    Config::new(Algorithm::Sha1).with_chain_len(CHAIN_LEN)
}

/// Drive a live engine at saturation and report verified-S2 throughput.
///
/// Binds the server on an ephemeral loopback port, spawns the senders,
/// waits for every flow to finish its handshake, then opens the
/// measurement window.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let engine_cfg = EngineConfig::new(proto()).with_shards(cfg.shards);
    let server = Engine::bind("127.0.0.1:0", EngineCore::new(engine_cfg), cfg.workers)?;
    let server_addr = server.local_addr()?;

    // Idle section: the engine is up, no client traffic yet, no timers
    // armed. The wakeup rate with nothing to do is pure overhead — the
    // number the epoll wait collapses from `workers / 5ms` to a few
    // backstop ticks per second.
    let idle_window = cfg
        .duration
        .clamp(Duration::from_millis(100), Duration::from_millis(400));
    let idle_before = server.core().metrics().io.totals().wakeups;
    std::thread::sleep(idle_window);
    let idle_wakeups = server
        .core()
        .metrics()
        .io
        .totals()
        .wakeups
        .saturating_sub(idle_before);
    let idle_wakeups_per_sec = idle_wakeups as f64 / idle_window.as_secs_f64();

    let stop = Arc::new(AtomicBool::new(false));
    let connected = Arc::new(AtomicUsize::new(0));
    let sign_errors = Arc::new(AtomicU64::new(0));
    let mut senders = Vec::with_capacity(cfg.senders);
    for s in 0..cfg.senders {
        let cfg = cfg.clone();
        let stop = Arc::clone(&stop);
        let connected = Arc::clone(&connected);
        let sign_errors = Arc::clone(&sign_errors);
        senders.push(std::thread::spawn(move || {
            sender_thread(s, server_addr, &cfg, &stop, &connected, &sign_errors)
        }));
    }

    // Handshake barrier: the window opens when every flow is up.
    let total = cfg.total_flows();
    let deadline = Instant::now() + Duration::from_secs(30);
    while connected.load(Ordering::Relaxed) < total {
        if Instant::now() >= deadline {
            stop.store(true, Ordering::Relaxed);
            for t in senders {
                let _ = t.join();
            }
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "only {}/{} flows connected within 30s",
                    connected.load(Ordering::Relaxed),
                    total
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let metrics = server.core().metrics();
    let s2_before = metrics.s2_verified.load(Ordering::Relaxed);
    let window = Instant::now();
    std::thread::sleep(cfg.duration);
    let elapsed = window.elapsed();
    let s2_after = metrics.s2_verified.load(Ordering::Relaxed);

    stop.store(true, Ordering::Relaxed);
    for t in senders {
        let _ = t.join();
    }

    let s2_verified = s2_after.saturating_sub(s2_before);
    let io_totals = metrics.io.totals();
    let report = LoadgenReport {
        workers: cfg.workers,
        senders: cfg.senders,
        flows: total,
        host_cores: host_cores(),
        elapsed,
        s2_verified,
        s2_per_sec: s2_verified as f64 / elapsed.as_secs_f64(),
        io: io_totals,
        lock_contended: server.core().lock_contended(),
        reuseport: server.per_worker_sockets(),
        udp_backend: crate::io::active().name(),
        wait_backend: metrics.io.wait_backend_name(),
        idle_wakeups_per_sec,
        sign_errors: sign_errors.load(Ordering::Relaxed),
    };
    server.shutdown();
    Ok(report)
}

/// One sender: its own socket, its own client engine, F flows pumped
/// as hard as they will go — every idle flow immediately signs the
/// next exchange.
fn sender_thread(
    index: usize,
    server_addr: SocketAddr,
    cfg: &LoadgenConfig,
    stop: &AtomicBool,
    connected: &AtomicUsize,
    sign_errors: &AtomicU64,
) -> u64 {
    let core = EngineCore::new(EngineConfig::new(proto()));
    let socket = UdpSocket::bind("127.0.0.1:0").expect("sender bind");
    socket
        .set_read_timeout(Some(Duration::from_millis(1)))
        .expect("sender timeout");
    let start = Instant::now();
    let now = |s: Instant| Timestamp::from_micros(s.elapsed().as_micros() as u64);
    let mut rng = StdRng::seed_from_u64(0xA1FA_0000 + index as u64);
    let payload = vec![0x5A_u8; cfg.payload];

    let mut keys = Vec::with_capacity(cfg.flows_per_sender);
    let mut up = std::collections::HashSet::new();
    let send_out = |socket: &UdpSocket, datagrams: &[(SocketAddr, alpha_wire::Frame)]| {
        for (dst, bytes) in datagrams {
            let _ = socket.send_to(bytes, *dst);
        }
    };
    for f in 0..cfg.flows_per_sender {
        let assoc = (index * 100_000 + f) as u64 + 1;
        let (key, out) = core.connect(server_addr, assoc, now(start), &mut rng);
        send_out(&socket, &out.datagrams);
        keys.push(key);
    }

    let mut exchanges = 0u64;
    let mut buf = vec![0u8; MAX_DATAGRAM];
    while !stop.load(Ordering::Relaxed) {
        let t = now(start);
        // Timers: connect resends, renewals, protocol polls.
        let out = core.poll(t, &mut rng);
        send_out(&socket, &out.datagrams);
        for key in &out.completed {
            if up.insert(*key) {
                connected.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Drain a burst of responses.
        for _ in 0..64 {
            match socket.recv_from(&mut buf) {
                Ok((n, from)) => {
                    let out = core.handle_datagram(from, &buf[..n], t, &mut rng);
                    send_out(&socket, &out.datagrams);
                    for key in &out.completed {
                        if up.insert(*key) {
                            connected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(_) => break, // timeout: go sign / poll timers
            }
        }
        // Saturation: every idle established flow starts its next
        // exchange immediately.
        for key in &keys {
            if up.contains(key) && core.flow_is_idle(*key) {
                match core.sign_batch(*key, &[&payload[..]], Mode::Base, t) {
                    Ok(out) => {
                        exchanges += 1;
                        send_out(&socket, &out.datagrams);
                    }
                    Err(_) => {
                        sign_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    exchanges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_verifies_exchanges_live() {
        let mut cfg = LoadgenConfig::quick();
        cfg.duration = Duration::from_millis(300);
        let report = run(&cfg).expect("loadgen run");
        assert!(
            report.s2_verified > 0,
            "live engine verified no S2 exchanges: {report:?}"
        );
        assert!(report.s2_per_sec > 0.0);
        assert_eq!(report.flows, cfg.total_flows());
        assert_eq!(report.sign_errors, 0);
        // The readiness fields carry the wait the workers ran.
        assert_eq!(report.wait_backend, crate::io::active().wait_name());
        assert!(report.idle_wakeups_per_sec >= 0.0);
        // The JSON render carries the honesty fields.
        let json = report.json();
        assert!(json.contains("\"runtime_mode\":\"live\""));
        assert!(json.contains("\"host_cores\":"));
        assert!(json.contains("\"wait_backend\":"));
        assert!(json.contains("\"idle_wakeups_per_sec\":"));
        assert!(json.contains("\"send_retries\":"));
        assert!(json.contains("\"syscalls_per_datagram\":"));
        assert!(json.contains("\"lock_contended\":"));
        let v: serde::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(
            v.get("workers").and_then(serde::Value::as_u64),
            Some(cfg.workers as u64)
        );
        assert_eq!(
            v.get("wait_backend").and_then(serde::Value::as_str),
            Some(report.wait_backend)
        );
    }
}
