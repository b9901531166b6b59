//! The relay peer registry: membership and liveness.
//!
//! Each registered peer carries:
//!
//! - a **role** ([`PeerRole`]) — where it sits relative to this node,
//! - a **health** verdict ([`PeerHealth`]) driven by probe/echo
//!   round-trips: a peer that answers within its RTO is `Up`; each
//!   timed-out probe increments a miss counter that walks it through
//!   `Suspect` to `Down`,
//! - an RFC 6298 estimator (`alpha_adapt::ChannelEstimator`) smoothing
//!   probe RTTs into the RTO that times the *next* probe out — exactly
//!   the machinery host flows use for retransmission, reused for
//!   liveness so detection adapts to the path instead of a fixed
//!   timeout.
//!
//! The registry is sans-io: [`Registry::poll`] returns encoded probes
//! to transmit and health events to act on; [`Registry::on_pong`]
//! consumes echoes. Callers own sockets and clocks.

use std::net::SocketAddr;

use alpha_adapt::{AdaptConfig, ChannelEstimator};
use alpha_core::Timestamp;
use alpha_engine::mesh::{encode_ping, parse_pong};
use alpha_engine::metrics::{health_label, HEALTH_DOWN, HEALTH_SUSPECT, HEALTH_UNKNOWN, HEALTH_UP};
use alpha_engine::PeerCounters;
use serde::Value;

/// Tunables for probing and health transitions.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Gap between probes to one peer while it answers (µs).
    pub probe_interval_us: u64,
    /// Consecutive missed probes before a peer turns [`PeerHealth::Suspect`].
    pub suspect_after: u32,
    /// Consecutive missed probes before a peer turns [`PeerHealth::Down`].
    /// Failover triggers on this transition, so detection is bounded by
    /// `down_after` probe timeouts.
    pub down_after: u32,
    /// RFC 6298 estimator tunables (SRTT/RTTVAR smoothing, RTO clamps).
    pub rto: AdaptConfig,
    /// Probe timeout before the first RTT sample exists (µs).
    pub initial_rto_us: u64,
    /// Upper bound on the deterministic per-peer jitter added to each
    /// idle probe interval (µs). Peers that joined together would
    /// otherwise probe in lockstep forever, turning every interval tick
    /// into a synchronized probe burst; the jitter is derived from the
    /// peer address, so schedules stay reproducible. `0` disables it.
    pub probe_jitter_us: u64,
}

impl Default for MeshConfig {
    fn default() -> MeshConfig {
        MeshConfig {
            probe_interval_us: 100_000,
            suspect_after: 1,
            down_after: 3,
            rto: AdaptConfig::default(),
            initial_rto_us: 200_000,
            probe_jitter_us: 10_000,
        }
    }
}

/// Deterministic probe-phase jitter for `addr`: a stable hash of the
/// address mapped into `[0, cfg.probe_jitter_us]`. Same address, same
/// config → same jitter, every process, every run.
#[must_use]
pub fn probe_jitter_us(addr: SocketAddr, cfg: &MeshConfig) -> u64 {
    alpha_store::mix64(alpha_engine::addr_hash(&addr)) % (cfg.probe_jitter_us + 1)
}

/// Where a peer sits relative to this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRole {
    /// A peer we accept traffic from (the bypass-defense set).
    Upstream,
    /// The peer we forward verified traffic toward.
    NextHop,
    /// A standby next-hop: receives handshake replicas, takes over on
    /// failover.
    Standby,
}

impl PeerRole {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PeerRole::Upstream => "upstream",
            PeerRole::NextHop => "next-hop",
            PeerRole::Standby => "standby",
        }
    }
}

/// Probe-driven liveness verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// No verdict yet (not probed, or no probe answered/missed so far).
    Unknown,
    /// Last probe answered within the RTO.
    Up,
    /// Missed at least [`MeshConfig::suspect_after`] consecutive probes.
    Suspect,
    /// Missed at least [`MeshConfig::down_after`] consecutive probes.
    Down,
}

impl PeerHealth {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        health_label(self.code())
    }

    fn code(self) -> u64 {
        match self {
            PeerHealth::Unknown => HEALTH_UNKNOWN,
            PeerHealth::Up => HEALTH_UP,
            PeerHealth::Suspect => HEALTH_SUSPECT,
            PeerHealth::Down => HEALTH_DOWN,
        }
    }
}

/// A health transition the caller should act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshEvent {
    /// Peer (re-)entered [`PeerHealth::Up`].
    PeerUp(SocketAddr),
    /// Peer entered [`PeerHealth::Suspect`].
    PeerSuspect(SocketAddr),
    /// Peer entered [`PeerHealth::Down`] — failover trigger.
    PeerDown(SocketAddr),
}

/// One registered peer.
pub struct Peer {
    /// The peer's datagram address (probe target and routing identity).
    pub addr: SocketAddr,
    /// Role in this node's topology.
    pub role: PeerRole,
    /// Latest liveness verdict.
    pub health: PeerHealth,
    /// Whether this node actively probes the peer. Plain hosts don't
    /// answer probes, so upstream peers are usually probed only when
    /// there are at least two of them (i.e. failover is possible).
    pub probe: bool,
    est: ChannelEstimator,
    outstanding: Option<(u64, Timestamp)>,
    missed: u32,
    next_probe: Timestamp,
    /// Deterministic per-peer phase offset added to every idle probe
    /// interval (see [`probe_jitter_us`]).
    jitter_us: u64,
    /// Engine counter row mirrored by the supervisor (None in sans-io
    /// uses like the simulator's standalone registries).
    pub counters: Option<std::sync::Arc<PeerCounters>>,
}

impl Peer {
    /// Smoothed probe round-trip time, if sampled.
    #[must_use]
    pub fn srtt_us(&self) -> Option<u64> {
        self.est.srtt_us()
    }

    /// Current probe timeout: the estimator's RTO once a sample exists,
    /// the configured initial RTO before that.
    #[must_use]
    pub fn rto_us(&self, cfg: &MeshConfig) -> u64 {
        self.est.rto_us().unwrap_or(cfg.initial_rto_us)
    }

    /// Consecutive missed probes.
    #[must_use]
    pub fn missed(&self) -> u32 {
        self.missed
    }

    fn set_health(&mut self, health: PeerHealth, events: &mut Vec<MeshEvent>) {
        if self.health == health {
            return;
        }
        self.health = health;
        if let Some(c) = &self.counters {
            c.health
                .store(health.code(), std::sync::atomic::Ordering::Relaxed);
        }
        events.push(match health {
            PeerHealth::Up => MeshEvent::PeerUp(self.addr),
            PeerHealth::Suspect => MeshEvent::PeerSuspect(self.addr),
            PeerHealth::Down => MeshEvent::PeerDown(self.addr),
            PeerHealth::Unknown => return,
        });
    }
}

/// What one [`Registry::poll`] produced.
#[derive(Default)]
pub struct PollOutput {
    /// Encoded probe datagrams to transmit: `(peer address, bytes)`.
    pub probes: Vec<(SocketAddr, Vec<u8>)>,
    /// Health transitions, in occurrence order.
    pub events: Vec<MeshEvent>,
}

/// The peer table. Sans-io; see the module docs.
pub struct Registry {
    cfg: MeshConfig,
    peers: Vec<Peer>,
    nonce_seq: u64,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new(cfg: MeshConfig) -> Registry {
        Registry {
            cfg,
            peers: Vec::new(),
            nonce_seq: 0,
        }
    }

    /// The registry's tunables.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Register a peer (idempotent per address: re-joining updates the
    /// role and probe flag, keeping health and RTT history).
    pub fn join(&mut self, addr: SocketAddr, role: PeerRole, probe: bool) {
        if let Some(p) = self.peers.iter_mut().find(|p| p.addr == addr) {
            p.role = role;
            p.probe = probe;
            return;
        }
        self.peers.push(Peer {
            addr,
            role,
            health: PeerHealth::Unknown,
            probe,
            est: ChannelEstimator::new(self.cfg.rto),
            outstanding: None,
            missed: 0,
            next_probe: Timestamp::ZERO,
            jitter_us: probe_jitter_us(addr, &self.cfg),
            counters: None,
        });
    }

    /// Remove a peer, returning whether it was registered.
    pub fn leave(&mut self, addr: SocketAddr) -> bool {
        let before = self.peers.len();
        self.peers.retain(|p| p.addr != addr);
        self.peers.len() != before
    }

    /// The peer registered at `addr`.
    #[must_use]
    pub fn peer(&self, addr: SocketAddr) -> Option<&Peer> {
        self.peers.iter().find(|p| p.addr == addr)
    }

    /// Mutable access to the peer registered at `addr`.
    pub fn peer_mut(&mut self, addr: SocketAddr) -> Option<&mut Peer> {
        self.peers.iter_mut().find(|p| p.addr == addr)
    }

    /// All registered peers, in join order.
    #[must_use]
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// Registered peers with `role`.
    pub fn peers_with_role(&self, role: PeerRole) -> impl Iterator<Item = &Peer> {
        self.peers.iter().filter(move |p| p.role == role)
    }

    /// Advance probe state to `now`: time out overdue probes (walking
    /// health toward `Down`), and emit fresh probes for peers whose
    /// interval elapsed. Call at least once per expected RTO.
    pub fn poll(&mut self, now: Timestamp) -> PollOutput {
        let mut out = PollOutput::default();
        let cfg = self.cfg;
        for p in &mut self.peers {
            if !p.probe {
                continue;
            }
            // Time out the outstanding probe, if it is past its RTO.
            if let Some((_nonce, sent_at)) = p.outstanding {
                if now.since(sent_at) >= p.rto_us(&cfg) {
                    p.outstanding = None;
                    p.missed = p.missed.saturating_add(1);
                    if p.missed >= cfg.down_after {
                        p.set_health(PeerHealth::Down, &mut out.events);
                    } else if p.missed >= cfg.suspect_after {
                        p.set_health(PeerHealth::Suspect, &mut out.events);
                    }
                    // Re-probe immediately: a suspect peer is probed at
                    // RTO cadence, not the idle interval.
                    p.next_probe = now;
                }
            }
            if p.outstanding.is_none() && now >= p.next_probe {
                self.nonce_seq = self.nonce_seq.wrapping_add(1);
                let nonce = self.nonce_seq;
                p.outstanding = Some((nonce, now));
                p.next_probe = now.plus_micros(cfg.probe_interval_us + p.jitter_us);
                if let Some(c) = &p.counters {
                    c.probes_sent
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                out.probes.push((p.addr, encode_ping(nonce)));
            }
        }
        out
    }

    /// Consume a probe echo from `from`. Returns the health events the
    /// echo caused (at most a `PeerUp`).
    pub fn on_pong(&mut self, from: SocketAddr, bytes: &[u8], now: Timestamp) -> Vec<MeshEvent> {
        let mut events = Vec::new();
        let Some(nonce) = parse_pong(bytes) else {
            return events;
        };
        let Some(p) = self.peers.iter_mut().find(|p| p.addr == from) else {
            return events;
        };
        let Some((expect, sent_at)) = p.outstanding else {
            return events;
        };
        if expect != nonce {
            return events;
        }
        p.outstanding = None;
        p.missed = 0;
        let rtt = now.since(sent_at).max(1);
        p.est.rtt_sample(rtt);
        if let Some(c) = &p.counters {
            use std::sync::atomic::Ordering::Relaxed;
            c.pongs_received.fetch_add(1, Relaxed);
            c.srtt_us.store(p.est.srtt_us().unwrap_or(0), Relaxed);
        }
        p.set_health(PeerHealth::Up, &mut events);
        events
    }

    /// The first registered peer with `role` that is not `Down`
    /// (preferring join order — the seed list is a priority list).
    #[must_use]
    pub fn best(&self, role: PeerRole) -> Option<SocketAddr> {
        self.peers
            .iter()
            .find(|p| p.role == role && p.health != PeerHealth::Down)
            .map(|p| p.addr)
    }

    /// Snapshot the peer table as a JSON array.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        Value::Array(
            self.peers
                .iter()
                .map(|p| {
                    Value::object([
                        ("peer".to_owned(), Value::Str(p.addr.to_string())),
                        ("role".to_owned(), Value::Str(p.role.label().to_owned())),
                        ("health".to_owned(), Value::Str(p.health.label().to_owned())),
                        ("probed".to_owned(), Value::Bool(p.probe)),
                        ("missed".to_owned(), Value::U64(u64::from(p.missed))),
                        ("srtt_us".to_owned(), Value::U64(p.srtt_us().unwrap_or(0))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn reg() -> Registry {
        Registry::new(MeshConfig::default())
    }

    #[test]
    fn join_leave_and_rejoin_semantics() {
        let mut r = reg();
        r.join(addr(1), PeerRole::NextHop, true);
        r.join(addr(2), PeerRole::Upstream, false);
        assert_eq!(r.peers().len(), 2);
        // Re-join updates role without duplicating.
        r.join(addr(2), PeerRole::Standby, true);
        assert_eq!(r.peers().len(), 2);
        assert_eq!(r.peer(addr(2)).unwrap().role, PeerRole::Standby);
        assert!(r.leave(addr(1)));
        assert!(!r.leave(addr(1)));
        assert_eq!(r.peers().len(), 1);
    }

    #[test]
    fn probe_echo_cycle_tracks_rtt_and_health() {
        let mut r = reg();
        r.join(addr(7), PeerRole::NextHop, true);
        let t0 = Timestamp::from_millis(10);
        let out = r.poll(t0);
        assert_eq!(out.probes.len(), 1, "first poll probes immediately");
        let (to, ping) = &out.probes[0];
        assert_eq!(*to, addr(7));
        // Echo comes back 3 ms later.
        let nonce = alpha_engine::mesh::parse_ping(ping).unwrap();
        let pong = alpha_engine::mesh::encode_pong(nonce);
        let events = r.on_pong(addr(7), &pong, t0.plus_micros(3_000));
        assert_eq!(events, vec![MeshEvent::PeerUp(addr(7))]);
        let p = r.peer(addr(7)).unwrap();
        assert_eq!(p.health, PeerHealth::Up);
        assert_eq!(p.srtt_us(), Some(3_000));
        // No re-probe before the interval elapses; the next one lands
        // within the interval plus the peer's deterministic jitter.
        assert!(r.poll(t0.plus_micros(50_000)).probes.is_empty());
        let jitter = probe_jitter_us(addr(7), r.config());
        assert!(r.poll(t0.plus_micros(99_999 + jitter)).probes.is_empty());
        assert_eq!(r.poll(t0.plus_micros(101_000 + jitter)).probes.len(), 1);
    }

    #[test]
    fn probe_jitter_is_deterministic_bounded_and_spreads_peers() {
        let cfg = MeshConfig::default();
        let j7 = probe_jitter_us(addr(7), &cfg);
        assert_eq!(j7, probe_jitter_us(addr(7), &cfg), "stable per address");
        assert!(j7 <= cfg.probe_jitter_us);
        // A same-instant cohort fans out: distinct addresses land on
        // distinct phases (deterministic, so assert the actual spread).
        let phases: std::collections::HashSet<u64> =
            (1..=16).map(|p| probe_jitter_us(addr(p), &cfg)).collect();
        assert!(phases.len() > 8, "cohort did not spread: {phases:?}");
        // Disabled jitter pins every peer to phase zero.
        let flat = MeshConfig {
            probe_jitter_us: 0,
            ..MeshConfig::default()
        };
        assert_eq!(probe_jitter_us(addr(7), &flat), 0);
    }

    #[test]
    fn missed_probes_walk_health_to_down_within_bounded_intervals() {
        let cfg = MeshConfig::default();
        let mut r = Registry::new(cfg);
        r.join(addr(9), PeerRole::NextHop, true);
        let mut now = Timestamp::from_millis(1);
        let out = r.poll(now);
        assert_eq!(out.probes.len(), 1);
        // Never answer: each RTO expiry is one miss; the peer must be
        // Down after exactly `down_after` misses, i.e. within
        // down_after * initial_rto (bounded detection).
        let mut events = Vec::new();
        let mut probes_sent = 1;
        for _ in 0..cfg.down_after {
            now = now.plus_micros(cfg.initial_rto_us);
            let out = r.poll(now);
            probes_sent += out.probes.len();
            events.extend(out.events);
        }
        assert!(
            events.contains(&MeshEvent::PeerSuspect(addr(9))),
            "suspect on the way down: {events:?}"
        );
        assert!(
            events.contains(&MeshEvent::PeerDown(addr(9))),
            "down after {} misses: {events:?}",
            cfg.down_after
        );
        assert_eq!(r.peer(addr(9)).unwrap().health, PeerHealth::Down);
        assert_eq!(
            probes_sent,
            1 + cfg.down_after as usize,
            "one probe per RTO while failing"
        );
        // Recovery: the next answered probe brings it straight back Up.
        now = now.plus_micros(cfg.initial_rto_us);
        let out = r.poll(now);
        let nonce = alpha_engine::mesh::parse_ping(&out.probes[0].1).unwrap();
        let events = r.on_pong(
            addr(9),
            &alpha_engine::mesh::encode_pong(nonce),
            now.plus_micros(2_000),
        );
        assert_eq!(events, vec![MeshEvent::PeerUp(addr(9))]);
    }

    #[test]
    fn stale_and_foreign_pongs_are_ignored() {
        let mut r = reg();
        r.join(addr(3), PeerRole::NextHop, true);
        let t0 = Timestamp::from_millis(5);
        let out = r.poll(t0);
        let nonce = alpha_engine::mesh::parse_ping(&out.probes[0].1).unwrap();
        // Wrong nonce: ignored.
        assert!(r
            .on_pong(addr(3), &alpha_engine::mesh::encode_pong(nonce ^ 1), t0)
            .is_empty());
        // Unregistered sender: ignored.
        assert!(r
            .on_pong(addr(99), &alpha_engine::mesh::encode_pong(nonce), t0)
            .is_empty());
        // Correct echo still lands after the noise.
        assert_eq!(
            r.on_pong(
                addr(3),
                &alpha_engine::mesh::encode_pong(nonce),
                t0.plus_micros(500)
            ),
            vec![MeshEvent::PeerUp(addr(3))]
        );
    }

    #[test]
    fn unprobed_peers_never_transition() {
        let mut r = reg();
        r.join(addr(6), PeerRole::Upstream, false);
        let mut now = Timestamp::from_millis(1);
        for _ in 0..20 {
            now = now.plus_micros(500_000);
            let out = r.poll(now);
            assert!(out.probes.is_empty());
            assert!(out.events.is_empty());
        }
        assert_eq!(r.peer(addr(6)).unwrap().health, PeerHealth::Unknown);
    }

    #[test]
    fn snapshot_lists_every_peer() {
        let mut r = reg();
        r.join(addr(1), PeerRole::NextHop, true);
        r.join(addr(2), PeerRole::Standby, true);
        let Value::Array(rows) = r.snapshot() else {
            panic!("array snapshot");
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("role").unwrap().as_str(), Some("next-hop"));
        assert_eq!(rows[1].get("health").unwrap().as_str(), Some("unknown"));
    }
}
