#![warn(missing_docs)]

//! UDP transport for ALPHA: drives the sans-io protocol core over real
//! sockets.
//!
//! The simulator (`alpha-sim`) exercises the protocol under controlled
//! loss and timing; this crate shows the same state machines working over
//! an actual OS network stack:
//!
//! - [`UdpHost`] — an end host: blocking handshake with jittered
//!   exponential-backoff resends, batch send with retransmission driven
//!   by the engine's timer wheel, and a serve loop for the receiving
//!   side.
//! - [`UdpRelay`] — an on-path middlebox that forwards datagrams between
//!   two hosts while running [`alpha_core::Relay`] verification, dropping
//!   forged or unsolicited traffic before it wastes downstream bandwidth.
//! - [`Engine`] — the threaded multi-flow front end (`alpha engine
//!   serve`): worker threads over an [`alpha_engine::EngineCore`], with
//!   per-worker `SO_REUSEPORT` sockets on the batched backend.
//!
//! All of them move datagrams through the runtime-selected backends in
//! [`io`]: `recvmmsg`/`sendmmsg` batching on Linux ([`mmsg`]), a
//! portable `recv_from` loop elsewhere, overridable per process with
//! `ALPHA_UDP_BACKEND=mmsg|fallback|auto`. Receives land in pooled
//! frames ([`alpha_wire::FramePool`]) and whole bursts go to the engine
//! in one call, so the batched syscall layer lines up with the engine's
//! batch verification; the transport owns sockets and the clock, the
//! engine owns flow state, timers, admission and metrics.

/// Hand-declared Linux FFI for `epoll`, `eventfd` and `timerfd` —
/// the readiness wait of the `mmsg` rung (empty on other platforms).
pub mod epoll;
pub mod io;
pub mod loadgen;
/// Hand-declared Linux FFI for `recvmmsg`/`sendmmsg` and
/// `SO_REUSEPORT` socket groups (empty on other platforms).
pub mod mmsg;
mod server;

pub use io::{RxDatagram, UdpBackend, UdpIo};
pub use loadgen::{probe_handoff, HandoffProbe, LoadgenConfig, LoadgenReport};
pub use server::{query_stats, DeliverySink, Engine, RECV_TIMEOUT, STATS_MAGIC};

use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Association, Config, Mode, RelayConfig, Timestamp};
use alpha_engine::{
    Backoff, EngineConfig, EngineCore, EngineError, EngineOutput, FlowKey, IoWorker,
};
use alpha_pk::{PublicKey, Signer};
use alpha_wire::FramePool;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::io::{MAX_BATCH, MAX_DATAGRAM};

/// Transport errors.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The protocol rejected a packet or operation.
    Protocol(alpha_core::ProtocolError),
    /// The operation did not complete before its deadline. `attempts`
    /// counts the transmissions made (first try + resends), so callers
    /// can distinguish "peer unreachable despite retries" from "gave up
    /// early".
    Timeout {
        /// Transmissions attempted before the deadline passed.
        attempts: u32,
    },
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

impl From<alpha_core::ProtocolError> for TransportError {
    fn from(e: alpha_core::ProtocolError) -> TransportError {
        TransportError::Protocol(e)
    }
}

impl From<EngineError> for TransportError {
    fn from(e: EngineError) -> TransportError {
        match e {
            EngineError::Protocol(p) => TransportError::Protocol(p),
            other => TransportError::Io(std::io::Error::other(other.to_string())),
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "io error: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
            TransportError::Timeout { attempts } => {
                write!(f, "operation timed out after {attempts} attempt(s)")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Floor for the dynamic read timeout: short enough to notice deadline
/// expiry promptly, long enough not to spin.
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(1);
/// Ceiling for the dynamic read timeout, used when no timer is armed.
const MAX_READ_TIMEOUT: Duration = Duration::from_millis(50);

fn rx_pool() -> FramePool {
    // Full-datagram frames so a receive can never truncate; two bursts
    // deep so a burst can be in flight while the next one lands.
    FramePool::new(MAX_DATAGRAM, 2 * MAX_BATCH)
}

/// An ALPHA end host over UDP: one association, served by an engine.
pub struct UdpHost {
    io: UdpIo,
    pool: FramePool,
    rx: Vec<RxDatagram>,
    core: EngineCore,
    key: FlowKey,
    start: Instant,
    rng: StdRng,
    peer_key: Option<PublicKey>,
}

/// How a [`UdpHost`] authenticates its handshake (§3.4).
#[derive(Default)]
pub struct HandshakeAuth<'a> {
    /// Sign our half of the handshake with this identity.
    pub identity: Option<&'a dyn Signer>,
    /// Demand a valid signature from the peer (trust-on-first-use; the
    /// verified key is surfaced via [`UdpHost::peer_key`]).
    pub require_peer: bool,
}

fn single_flow_engine(cfg: Config) -> EngineCore {
    // A UdpHost serves exactly the association it handshook; stray HS1s
    // from other parties are dropped, as the pre-engine transport did.
    let mut ecfg = EngineConfig::new(cfg);
    ecfg.accept_handshakes = false;
    EngineCore::new(ecfg)
}

impl UdpHost {
    /// Initiate: bind `bind`, handshake with `peer`, block until HS2 (or
    /// `timeout`). Unprotected bootstrap; see [`UdpHost::connect_with`].
    pub fn connect<A: ToSocketAddrs, B: ToSocketAddrs>(
        cfg: Config,
        assoc_id: u64,
        bind: A,
        peer: B,
        timeout: Duration,
    ) -> Result<UdpHost, TransportError> {
        Self::connect_with(cfg, assoc_id, bind, peer, timeout, HandshakeAuth::default())
    }

    /// [`UdpHost::connect`] with optional protected bootstrapping.
    ///
    /// The HS1 is resent on a full-jitter exponential backoff schedule
    /// (~100 ms doubling to 1.6 s) instead of a fixed interval, so a
    /// thundering herd of connecting hosts decorrelates; on timeout the
    /// attempt count is reported in [`TransportError::Timeout`].
    pub fn connect_with<A: ToSocketAddrs, B: ToSocketAddrs>(
        cfg: Config,
        assoc_id: u64,
        bind: A,
        peer: B,
        timeout: Duration,
        auth: HandshakeAuth<'_>,
    ) -> Result<UdpHost, TransportError> {
        let socket = UdpSocket::bind(bind)?;
        Self::connect_socket(cfg, assoc_id, socket, peer, timeout, auth)
    }

    /// [`UdpHost::connect_with`] over a socket the caller already bound
    /// (e.g. one reserved early so the address could be routed before
    /// any traffic flows).
    pub fn connect_socket<B: ToSocketAddrs>(
        cfg: Config,
        assoc_id: u64,
        socket: UdpSocket,
        peer: B,
        timeout: Duration,
        auth: HandshakeAuth<'_>,
    ) -> Result<UdpHost, TransportError> {
        let peer = peer
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no peer addr"))?;
        let mut rng = StdRng::from_entropy();
        let (hs, init_pkt) = bootstrap::initiate(cfg, assoc_id, auth.identity, &mut rng);
        let require = if auth.require_peer {
            AuthRequirement::AnyKey
        } else {
            AuthRequirement::None
        };
        let deadline = Instant::now() + timeout;
        let init_bytes = init_pkt.emit();
        let mut backoff = Backoff::handshake();
        socket.send_to(&init_bytes, peer)?;
        let mut next_resend = Instant::now() + backoff.next_delay(&mut rng);
        // The engine core (and its I/O metrics registry) only exists
        // after the handshake; count into a detached block for now and
        // fold it in via `from_parts`.
        let pool = rx_pool();
        let mut io = UdpIo::new(socket, Arc::new(IoWorker::default()));
        let mut rx: Vec<RxDatagram> = Vec::with_capacity(MAX_BATCH);
        loop {
            let now = Instant::now();
            if now > deadline {
                return Err(TransportError::Timeout {
                    attempts: backoff.attempts(),
                });
            }
            if now >= next_resend {
                io.socket().send_to(&init_bytes, peer)?;
                next_resend = now + backoff.next_delay(&mut rng);
            }
            let wait = next_resend
                .saturating_duration_since(now)
                .clamp(MIN_READ_TIMEOUT, MAX_READ_TIMEOUT);
            io.socket().set_read_timeout(Some(wait))?;
            rx.clear();
            if io.recv_batch(&pool, &mut rx, MAX_BATCH)? == 0 {
                continue;
            }
            for d in &rx {
                let Ok(pkt) = alpha_wire::Packet::parse(&d.frame) else {
                    continue;
                };
                match hs.complete(&pkt, require) {
                    Ok((assoc, peer_key)) => {
                        return Ok(UdpHost::from_parts(io, pool, peer, assoc, rng, peer_key));
                    }
                    Err(e) => return Err(TransportError::Protocol(e)),
                }
            }
        }
    }

    /// Accept: bind `bind`, wait for an HS1 (up to `timeout`), reply.
    /// Unprotected bootstrap; see [`UdpHost::accept_with`].
    pub fn accept<A: ToSocketAddrs>(
        cfg: Config,
        bind: A,
        timeout: Duration,
    ) -> Result<UdpHost, TransportError> {
        Self::accept_with(cfg, bind, timeout, HandshakeAuth::default())
    }

    /// [`UdpHost::accept`] with optional protected bootstrapping.
    pub fn accept_with<A: ToSocketAddrs>(
        cfg: Config,
        bind: A,
        timeout: Duration,
        auth: HandshakeAuth<'_>,
    ) -> Result<UdpHost, TransportError> {
        let socket = UdpSocket::bind(bind)?;
        Self::accept_socket(cfg, socket, timeout, auth)
    }

    /// [`UdpHost::accept_with`] over a socket the caller already bound.
    pub fn accept_socket(
        cfg: Config,
        socket: UdpSocket,
        timeout: Duration,
        auth: HandshakeAuth<'_>,
    ) -> Result<UdpHost, TransportError> {
        socket.set_read_timeout(Some(MAX_READ_TIMEOUT))?;
        let require = if auth.require_peer {
            AuthRequirement::AnyKey
        } else {
            AuthRequirement::None
        };
        let deadline = Instant::now() + timeout;
        let mut rng = StdRng::from_entropy();
        let pool = rx_pool();
        let mut io = UdpIo::new(socket, Arc::new(IoWorker::default()));
        let mut rx: Vec<RxDatagram> = Vec::with_capacity(MAX_BATCH);
        loop {
            if Instant::now() > deadline {
                // The acceptor never transmits before an HS1 arrives.
                return Err(TransportError::Timeout { attempts: 0 });
            }
            rx.clear();
            if io.recv_batch(&pool, &mut rx, MAX_BATCH)? == 0 {
                continue;
            }
            for d in &rx {
                let Ok(pkt) = alpha_wire::Packet::parse(&d.frame) else {
                    continue;
                };
                match bootstrap::respond(cfg, &pkt, auth.identity, require, &mut rng) {
                    Ok((assoc, reply, peer_key)) => {
                        io.socket().send_to(&reply.emit(), d.from)?;
                        return Ok(UdpHost::from_parts(io, pool, d.from, assoc, rng, peer_key));
                    }
                    Err(_) => continue, // stray or unauthorized handshake
                }
            }
        }
    }

    fn from_parts(
        io: UdpIo,
        pool: FramePool,
        peer: SocketAddr,
        assoc: Association,
        rng: StdRng,
        peer_key: Option<PublicKey>,
    ) -> UdpHost {
        let start = Instant::now();
        let core = single_flow_engine(*assoc.config());
        // Adopt the handshake-phase counters so the host's metrics cover
        // the socket's whole life.
        core.metrics().io.set_backend(io.backend().name());
        core.metrics().io.adopt_worker(Arc::clone(io.counters()));
        let key = core.add_host(peer, assoc, Timestamp::ZERO);
        UdpHost {
            io,
            pool,
            rx: Vec::with_capacity(MAX_BATCH),
            core,
            key,
            start,
            rng,
            peer_key,
        }
    }

    /// The peer's verified public key, when the handshake was protected.
    #[must_use]
    pub fn peer_key(&self) -> Option<&PublicKey> {
        self.peer_key.as_ref()
    }

    /// Local address (useful with port 0 binds).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.io.socket().local_addr()
    }

    /// Protocol-time now.
    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// The engine core serving this host's association.
    #[must_use]
    pub fn engine(&self) -> &EngineCore {
        &self.core
    }

    /// Run `f` against the association (e.g. for buffer statistics).
    pub fn with_association<R>(&self, f: impl FnOnce(&mut Association) -> R) -> R {
        // Allowlist: the constructor registers this host flow and nothing
        // removes it while the handle is alive.
        self.core
            .with_association(self.key, f)
            .expect("host flow always present")
    }

    /// Block on the socket until the engine's next timer deadline (or
    /// the caps), then drain one burst of datagrams through the engine.
    fn pump_once(&mut self, inbound: &mut Vec<Vec<u8>>) -> Result<(), TransportError> {
        let wait = match self.core.next_deadline() {
            Some(t) => {
                Duration::from_micros(t.since(self.now())).clamp(MIN_READ_TIMEOUT, MAX_READ_TIMEOUT)
            }
            None => MAX_READ_TIMEOUT,
        };
        self.io.socket().set_read_timeout(Some(wait))?;
        self.rx.clear();
        if self.io.recv_batch(&self.pool, &mut self.rx, MAX_BATCH)? > 0 {
            let now = self.now();
            let batch: Vec<(SocketAddr, &[u8])> =
                self.rx.iter().map(|d| (d.from, &d.frame[..])).collect();
            let out = self.core.handle_datagrams(&batch, now, &mut self.rng);
            drop(batch);
            self.flush(out, inbound)?;
        }
        let out = self.core.poll(self.now(), &mut self.rng);
        self.flush(out, inbound)?;
        Ok(())
    }

    fn flush(&self, out: EngineOutput, inbound: &mut Vec<Vec<u8>>) -> Result<(), TransportError> {
        self.io.send_batch(&out.datagrams)?;
        inbound.extend(out.delivered.into_iter().map(|(_, _, p)| p));
        Ok(())
    }

    /// Send one batch through a full signature exchange, driving
    /// retransmissions until the exchange completes, is abandoned, or
    /// `timeout` passes. Returns payloads that were *delivered to us* by
    /// the peer while we waited (full duplex).
    pub fn send_batch(
        &mut self,
        messages: &[&[u8]],
        mode: Mode,
        timeout: Duration,
    ) -> Result<Vec<Vec<u8>>, TransportError> {
        let now = self.now();
        let out = self.core.sign_batch(self.key, messages, mode, now)?;
        let mut attempts = out.datagrams.len() as u32;
        let mut inbound = Vec::new();
        self.flush(out, &mut inbound)?;
        let deadline = Instant::now() + timeout;
        while !self.core.flow_is_idle(self.key) {
            if Instant::now() > deadline {
                return Err(TransportError::Timeout { attempts });
            }
            let sent_before = self.core.metrics().packets_out.load(Relaxed);
            self.pump_once(&mut inbound)?;
            let sent_after = self.core.metrics().packets_out.load(Relaxed);
            attempts += (sent_after - sent_before) as u32;
        }
        Ok(inbound)
    }

    /// Serve the receiving side for `duration`, answering protocol packets
    /// and collecting verified deliveries.
    pub fn serve(&mut self, duration: Duration) -> Result<Vec<Vec<u8>>, TransportError> {
        let deadline = Instant::now() + duration;
        let mut delivered = Vec::new();
        while Instant::now() < deadline {
            self.pump_once(&mut delivered)?;
        }
        Ok(delivered)
    }
}

/// An on-path UDP middlebox: forwards datagrams between two sides while
/// verifying them with a relay-role engine flow per association.
pub struct UdpRelay {
    io: UdpIo,
    pool: FramePool,
    rx: Vec<RxDatagram>,
    core: EngineCore,
    start: Instant,
    /// Verified payloads extracted in transit.
    pub extracted: Vec<Vec<u8>>,
    /// Packets dropped, by any cause (verification, admission,
    /// backpressure, or unparseable frames).
    pub dropped: u64,
    /// Datagrams forwarded.
    pub forwarded: u64,
}

impl UdpRelay {
    /// Bind `bind`; traffic from `left` forwards to `right` and back.
    /// More routes can be added through [`UdpRelay::engine`].
    pub fn new<A: ToSocketAddrs>(
        bind: A,
        left: SocketAddr,
        right: SocketAddr,
        cfg: RelayConfig,
    ) -> Result<UdpRelay, TransportError> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(MAX_READ_TIMEOUT))?;
        // Relay-only engine: host config is irrelevant but required, and
        // unknown-flow HS1s must never stand up host state here.
        let mut ecfg = EngineConfig::new(Config::new(alpha_crypto::Algorithm::Sha1));
        ecfg.relay = cfg;
        ecfg.accept_handshakes = false;
        let core = EngineCore::new(ecfg);
        core.add_route(left, right);
        let io = UdpIo::new(socket, core.metrics().io.register_worker());
        core.metrics().io.set_backend(io.backend().name());
        Ok(UdpRelay {
            io,
            pool: rx_pool(),
            rx: Vec::with_capacity(MAX_BATCH),
            core,
            start: Instant::now(),
            extracted: Vec::new(),
            dropped: 0,
            forwarded: 0,
        })
    }

    /// Local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.io.socket().local_addr()
    }

    /// The relay's engine core (metrics, flow counts, extra routes).
    #[must_use]
    pub fn engine(&self) -> &EngineCore {
        &self.core
    }

    /// Forward and verify for `duration`, draining whole bursts so the
    /// relay's batched signature verification gets full batches.
    pub fn run_for(&mut self, duration: Duration) -> Result<(), TransportError> {
        let deadline = Instant::now() + duration;
        let mut rng = StdRng::from_entropy();
        while Instant::now() < deadline {
            self.rx.clear();
            if self.io.recv_batch(&self.pool, &mut self.rx, MAX_BATCH)? == 0 {
                continue;
            }
            let now = Timestamp::from_micros(self.start.elapsed().as_micros() as u64);
            let batch: Vec<(SocketAddr, &[u8])> =
                self.rx.iter().map(|d| (d.from, &d.frame[..])).collect();
            let out = self.core.handle_datagrams(&batch, now, &mut rng);
            drop(batch);
            self.io.send_batch(&out.datagrams)?;
            self.forwarded += out.datagrams.len() as u64;
            self.extracted
                .extend(out.extracted.iter().map(|(_, p)| p.to_vec()));
            let m = self.core.metrics();
            self.dropped = m.total_drops()
                + m.admission_drops.load(Relaxed)
                + m.backpressure_drops.load(Relaxed)
                + m.parse_errors.load(Relaxed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_crypto::Algorithm;

    fn cfg() -> Config {
        Config::new(Algorithm::Sha1).with_chain_len(64)
    }

    #[test]
    fn udp_roundtrip_direct() {
        let c = cfg();
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let socket_probe = UdpSocket::bind("127.0.0.1:0").unwrap();
            let addr = socket_probe.local_addr().unwrap();
            drop(socket_probe);
            tx.send(addr).unwrap();
            let mut host = UdpHost::accept(c, addr, Duration::from_secs(10)).expect("accept");
            host.serve(Duration::from_millis(1500)).expect("serve")
        });
        let addr = rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut client =
            UdpHost::connect(c, 7, "127.0.0.1:0", addr, Duration::from_secs(10)).expect("connect");
        client
            .send_batch(&[b"over real udp"], Mode::Base, Duration::from_secs(5))
            .expect("send");
        // The host's metrics now carry I/O accounting for its socket.
        let totals = client.engine().metrics().io.totals();
        assert!(totals.datagrams_in > 0, "host counted received datagrams");
        assert!(totals.datagrams_out > 0, "host counted sent datagrams");
        let delivered = server.join().expect("server thread");
        assert_eq!(delivered, vec![b"over real udp".to_vec()]);
    }

    #[test]
    fn udp_batch_through_relay() {
        let c = cfg();
        // Server.
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
            let addr = probe.local_addr().unwrap();
            drop(probe);
            tx.send(addr).unwrap();
            let mut host = UdpHost::accept(c, addr, Duration::from_secs(10)).expect("accept");
            host.serve(Duration::from_millis(2500)).expect("serve")
        });
        let server_addr = rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));

        // Client binds first so the relay knows both sides.
        let client_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client_addr = client_sock.local_addr().unwrap();
        drop(client_sock);

        let (rtx, rrx) = std::sync::mpsc::channel();
        let relay_thread = std::thread::spawn(move || {
            let mut relay = UdpRelay::new(
                "127.0.0.1:0",
                client_addr,
                server_addr,
                RelayConfig::default(),
            )
            .expect("relay");
            rtx.send(relay.local_addr().unwrap()).unwrap();
            relay
                .run_for(Duration::from_millis(2500))
                .expect("relay run");
            (relay.forwarded, relay.dropped, relay.extracted)
        });
        let relay_addr = rrx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));

        let mut client = UdpHost::connect(c, 7, client_addr, relay_addr, Duration::from_secs(10))
            .expect("connect");
        client
            .send_batch(
                &[
                    b"first".as_slice(),
                    b"second".as_slice(),
                    b"third".as_slice(),
                ],
                Mode::Cumulative,
                Duration::from_secs(5),
            )
            .expect("send");
        let delivered = server.join().expect("server");
        let (forwarded, _dropped, extracted) = relay_thread.join().expect("relay");
        assert_eq!(delivered.len(), 3);
        assert!(forwarded >= 5, "handshake + exchange forwarded");
        assert_eq!(extracted.len(), 3, "relay verified every payload");
    }

    #[test]
    fn timeout_reports_attempts() {
        // Nobody listens on this socket: connect must retry with
        // backoff and report how often it tried.
        let victim = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = victim.local_addr().unwrap();
        let res = UdpHost::connect(cfg(), 9, "127.0.0.1:0", addr, Duration::from_millis(900));
        match res {
            Err(TransportError::Timeout { attempts }) => {
                assert!(
                    (2..=8).contains(&attempts),
                    "expected a few backoff attempts in 900 ms, got {attempts}"
                );
            }
            Err(other) => panic!("expected timeout, got {other}"),
            Ok(_) => panic!("expected timeout, connected to a mute socket"),
        }
    }
}

#[cfg(test)]
mod protected_tests {
    use super::*;
    use alpha_crypto::Algorithm;

    #[test]
    fn protected_udp_handshake_verifies_identities() {
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let server_key = alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut rng);
        let client_key = alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut rng);

        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
            let addr = probe.local_addr().unwrap();
            drop(probe);
            tx.send(addr).unwrap();
            let auth = HandshakeAuth {
                identity: Some(&server_key),
                require_peer: true,
            };
            let mut host =
                UdpHost::accept_with(cfg, addr, Duration::from_secs(10), auth).expect("accept");
            assert!(host.peer_key().is_some(), "client identity verified");
            host.serve(Duration::from_millis(1200)).expect("serve")
        });
        let addr = rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let auth = HandshakeAuth {
            identity: Some(&client_key),
            require_peer: true,
        };
        let mut client =
            UdpHost::connect_with(cfg, 5, "127.0.0.1:0", addr, Duration::from_secs(10), auth)
                .expect("connect");
        assert!(client.peer_key().is_some(), "server identity verified");
        client
            .send_batch(
                &[b"authenticated hello"],
                Mode::Base,
                Duration::from_secs(5),
            )
            .expect("send");
        let delivered = server.join().expect("server");
        assert_eq!(delivered, vec![b"authenticated hello".to_vec()]);
    }

    #[test]
    fn unauthenticated_client_rejected_when_auth_required() {
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let server_key = alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut rng);
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
            let addr = probe.local_addr().unwrap();
            drop(probe);
            tx.send(addr).unwrap();
            let auth = HandshakeAuth {
                identity: Some(&server_key),
                require_peer: true,
            };
            // The anonymous client below never completes a handshake, so
            // accept times out.
            UdpHost::accept_with(cfg, addr, Duration::from_millis(1500), auth).is_ok()
        });
        let addr = rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let res = UdpHost::connect(cfg, 5, "127.0.0.1:0", addr, Duration::from_millis(1200));
        assert!(res.is_err(), "anonymous client cannot associate");
        assert!(!server.join().unwrap(), "server refused the handshake");
    }
}
