#![warn(missing_docs)]

//! The ALPHA adaptation plane: per-flow channel estimation and online
//! mode / bundle-size control.
//!
//! The "A" in ALPHA is *adaptive*: §3.3 of the paper frames Base,
//! ALPHA-C, ALPHA-M and C+M as points on a latency/overhead/buffer
//! trade-off that an association should move between **per exchange**.
//! This crate is the control plane behind that claim:
//!
//! - [`ChannelEstimator`] — EWMA effective-loss, RFC 6298 SRTT/RTTVAR/RTO
//!   (with Karn's rule), and goodput-per-auth-byte accounting.
//! - [`ModePolicy`] / [`HysteresisPolicy`] — a pluggable controller; the
//!   default is a dwell-damped threshold ladder
//!   `Cumulative ⇄ CumulativeMerkle ⇄ Merkle` with AIMD power-of-two
//!   bundle sizing.
//! - [`FlowAdapt`] — the per-flow facade the engine, simulator and
//!   benches embed: it watches outgoing S1/S2 packets and
//!   [`SignerEvent`]s, closes the loop after every exchange, and answers
//!   [`FlowAdapt::plan`] with the mode and bundle size for the next one.
//!
//! Everything here is sans-io and allocation-light, in the style of
//! `alpha-core`: the caller feeds packets, events and timestamps in and
//! reads decisions out. Nothing reads a clock or does I/O.

mod estimator;
mod policy;

pub use estimator::{ChannelEstimator, ExchangeSample, FrozenEstimator, ModeKind};
pub use policy::{Decision, HysteresisPolicy, ModePolicy};

use alpha_core::{Mode, SignerEvent, Timestamp};
use alpha_wire::{Body, BodyView, Packet, PacketType, PacketView};
use serde::Value;

/// Tunables for the estimator and the default policy. `Copy` so it can
/// ride inside engine configuration structs.
#[derive(Debug, Clone, Copy)]
pub struct AdaptConfig {
    /// EWMA gain for the loss and efficiency signals (0 < α ≤ 1).
    pub loss_alpha: f64,
    /// Smallest bundle size the controller may pick.
    pub min_n: usize,
    /// Largest bundle size the controller may pick (power of two).
    pub max_n: usize,
    /// Bundle-size cap on the Merkle rung (keeps per-S2 paths shallow).
    pub merkle_max_n: usize,
    /// Messages per tree in CumulativeMerkle mode.
    pub leaves_per_tree: usize,
    /// Consecutive beyond-threshold exchanges before a rung change.
    pub dwell: u32,
    /// Raw per-exchange loss sample at which Cumulative escalates to
    /// the forest rung. Set well above the spike one short burst causes
    /// inside a large flat-ack bundle, so only *sustained* loss climbs
    /// the ladder.
    pub forest_enter_loss: f64,
    /// Raw loss sample below which the forest rung relaxes to
    /// Cumulative.
    pub forest_exit_loss: f64,
    /// Raw loss sample at which the forest rung escalates to Merkle.
    pub merkle_enter_loss: f64,
    /// Raw loss sample below which Merkle relaxes to the forest rung.
    pub merkle_exit_loss: f64,
    /// Lower clamp for the RFC 6298 RTO (µs).
    pub min_rto_us: u64,
    /// Upper clamp for the RFC 6298 RTO (µs).
    pub max_rto_us: u64,
}

impl Default for AdaptConfig {
    fn default() -> AdaptConfig {
        AdaptConfig {
            loss_alpha: 0.25,
            min_n: 1,
            max_n: 64,
            merkle_max_n: 16,
            leaves_per_tree: 4,
            dwell: 3,
            forest_enter_loss: 0.15,
            forest_exit_loss: 0.02,
            merkle_enter_loss: 0.30,
            merkle_exit_loss: 0.15,
            min_rto_us: 20_000,
            max_rto_us: 2_000_000,
        }
    }
}

/// One controller decision change, kept in a bounded per-flow log so
/// tests (and operators) can audit convergence and flap rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchRecord {
    /// Index of the exchange whose outcome triggered the switch
    /// (1-based: the first exchange is 1).
    pub exchange: u64,
    /// Decision before the switch.
    pub from: Decision,
    /// Decision after the switch.
    pub to: Decision,
    /// Loss estimate at the moment of the switch.
    pub loss: f64,
}

/// Accumulator for the exchange currently in flight.
#[derive(Debug, Clone)]
struct InFlight {
    kind: ModeKind,
    n: u32,
    payload_bytes: u64,
    started: Timestamp,
    s1_transmissions: u32,
    s2_transmissions: u32,
    nacks: u32,
    auth_bytes: u64,
    rtt_us: Option<u64>,
}

/// Per-flow adaptation state: one estimator, one policy, one in-flight
/// exchange accumulator, and a bounded switch log.
///
/// Protocol integration (the engine, the simulator and the benches all
/// follow the same shape):
///
/// 1. [`FlowAdapt::plan`] → `(Mode, take)` for the next bundle.
/// 2. [`FlowAdapt::begin_exchange`] right after `sign_batch` succeeds.
/// 3. [`FlowAdapt::observe`] on every signer-side response — outgoing
///    packets **and** signer events together (S1/S2 retransmissions from
///    `poll` included).
/// 4. [`FlowAdapt::on_a1`] when an A1 for the flow arrives (RTT).
///
/// The exchange closes itself on `ExchangeComplete` /
/// `ExchangeAbandoned`, feeds the estimator, consults the policy, and
/// logs a [`SwitchRecord`] when the decision changed.
#[derive(Debug, Clone)]
pub struct FlowAdapt {
    cfg: AdaptConfig,
    est: ChannelEstimator,
    policy: Box<dyn ModePolicy>,
    decision: Decision,
    cur: Option<InFlight>,
    switches: Vec<SwitchRecord>,
    switches_total: u64,
}

/// Switch records kept per flow (oldest dropped first).
const SWITCH_LOG_CAP: usize = 128;

impl FlowAdapt {
    /// A flow controlled by the default [`HysteresisPolicy`].
    #[must_use]
    pub fn new(cfg: AdaptConfig) -> FlowAdapt {
        FlowAdapt::with_policy(cfg, Box::new(HysteresisPolicy::new(cfg)))
    }

    /// A flow controlled by a custom policy.
    #[must_use]
    pub fn with_policy(cfg: AdaptConfig, policy: Box<dyn ModePolicy>) -> FlowAdapt {
        let decision = policy.initial();
        FlowAdapt {
            cfg,
            est: ChannelEstimator::new(cfg),
            policy,
            decision,
            cur: None,
            switches: Vec::new(),
            switches_total: 0,
        }
    }

    /// The mode and message count for the next exchange, given
    /// `available` buffered messages: `take = min(n*, available)`.
    #[must_use]
    pub fn plan(&self, available: usize) -> (Mode, usize) {
        let take = self.decision.n.min(available).max(1);
        (self.decision.mode_for(take, self.cfg.leaves_per_tree), take)
    }

    /// Start accounting a new exchange of `n` messages totalling
    /// `payload_bytes`, signed at `now` in `mode`. Any exchange still
    /// open is closed as abandoned first (defensive; the signer
    /// serializes exchanges).
    pub fn begin_exchange(&mut self, mode: Mode, n: usize, payload_bytes: u64, now: Timestamp) {
        if self.cur.is_some() {
            self.finish(false);
        }
        self.cur = Some(InFlight {
            kind: ModeKind::of(mode),
            n: n as u32,
            payload_bytes,
            started: now,
            s1_transmissions: 0,
            s2_transmissions: 0,
            nacks: 0,
            auth_bytes: 0,
            rtt_us: None,
        });
    }

    /// Account outgoing packets and signer events from one response.
    /// Packets are counted before events so the bytes of S2s emitted in
    /// the same response as `ExchangeComplete` land in the right sample.
    pub fn observe(&mut self, packets: &[Packet], events: &[SignerEvent]) {
        self.observe_packets(packets);
        self.observe_events(events);
    }

    /// Account outgoing signer-side packets (original transmissions and
    /// retransmissions alike). Non-signer packets (A1/A2 of the reverse
    /// direction, handshakes) are ignored.
    pub fn observe_packets(&mut self, packets: &[Packet]) {
        for p in packets {
            let payload = match &p.body {
                Body::S2 { payload, .. } => payload.len(),
                _ => 0,
            };
            self.account(p.packet_type(), p.wire_len(), payload);
        }
    }

    /// [`FlowAdapt::observe`] over encoded packets, each read in place
    /// as a [`PacketView`]: what a byte-path caller sends.
    pub fn observe_encoded<'a>(
        &mut self,
        packets: impl IntoIterator<Item = &'a [u8]>,
        events: &[SignerEvent],
    ) {
        for bytes in packets {
            if let Ok(view) = PacketView::parse(bytes) {
                let payload = match &view.body {
                    BodyView::S2 { payload, .. } => payload.len(),
                    _ => 0,
                };
                self.account(view.packet_type(), bytes.len(), payload);
            }
        }
        self.observe_events(events);
    }

    /// Count one outgoing packet of `wire_len` bytes carrying `payload`
    /// bytes of message toward the open exchange's sample.
    fn account(&mut self, ptype: PacketType, wire_len: usize, payload: usize) {
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        match ptype {
            PacketType::S1 => {
                cur.s1_transmissions += 1;
                cur.auth_bytes += wire_len as u64;
            }
            PacketType::S2 => {
                cur.s2_transmissions += 1;
                cur.auth_bytes += (wire_len - payload) as u64;
            }
            _ => {}
        }
    }

    /// Account signer events; closes the exchange on completion or
    /// abandonment.
    pub fn observe_events(&mut self, events: &[SignerEvent]) {
        for ev in events {
            match ev {
                SignerEvent::Nacked(_) => {
                    if let Some(cur) = self.cur.as_mut() {
                        cur.nacks += 1;
                    }
                }
                SignerEvent::Acked(_) => {}
                SignerEvent::ExchangeComplete => self.finish(true),
                SignerEvent::ExchangeAbandoned => self.finish(false),
            }
        }
    }

    /// Record the arrival of the A1 opening the current exchange. Karn's
    /// rule: only an exchange whose S1 went out exactly once yields an
    /// RTT sample, and only the first A1 counts.
    pub fn on_a1(&mut self, now: Timestamp) {
        if let Some(cur) = self.cur.as_mut() {
            if cur.s1_transmissions == 1 && cur.rtt_us.is_none() {
                cur.rtt_us = Some(now.since(cur.started));
            }
        }
    }

    fn finish(&mut self, completed: bool) {
        let Some(cur) = self.cur.take() else {
            return;
        };
        let sample = ExchangeSample {
            kind: cur.kind,
            n: cur.n,
            s1_transmissions: cur.s1_transmissions.max(1),
            s2_transmissions: cur.s2_transmissions,
            nacks: cur.nacks,
            auth_bytes: cur.auth_bytes,
            payload_bytes: if completed { cur.payload_bytes } else { 0 },
            rtt_us: cur.rtt_us,
            completed,
        };
        self.est.observe(&sample);
        let next = self.policy.decide(&self.est, &sample, self.decision);
        if next != self.decision {
            if self.switches.len() == SWITCH_LOG_CAP {
                self.switches.remove(0);
            }
            self.switches.push(SwitchRecord {
                exchange: self.est.exchanges(),
                from: self.decision,
                to: next,
                loss: self.est.loss_estimate(),
            });
            self.switches_total += 1;
            self.decision = next;
        }
    }

    /// The current decision (mode family and target bundle size).
    #[must_use]
    pub fn decision(&self) -> Decision {
        self.decision
    }

    /// The channel estimator (read-only).
    #[must_use]
    pub fn estimator(&self) -> &ChannelEstimator {
        &self.est
    }

    /// Exchanges observed so far.
    #[must_use]
    pub fn exchanges(&self) -> u64 {
        self.est.exchanges()
    }

    /// The bounded switch log, oldest first.
    #[must_use]
    pub fn switches(&self) -> &[SwitchRecord] {
        &self.switches
    }

    /// Decision changes over the flow's lifetime (not capped).
    #[must_use]
    pub fn switches_total(&self) -> u64 {
        self.switches_total
    }

    /// Mode-family decision changes over the flow's lifetime — switches
    /// that altered only the bundle size are excluded. This is the flap
    /// count hysteresis is meant to bound.
    #[must_use]
    pub fn mode_switches_total(&self) -> u64 {
        self.switches
            .iter()
            .filter(|s| s.from.kind != s.to.kind)
            .count() as u64
    }

    /// The RFC 6298 RTO for this flow, if an RTT sample exists.
    #[must_use]
    pub fn rto_us(&self) -> Option<u64> {
        self.est.rto_us()
    }

    /// Freeze the adaptation state for hibernation: the estimator
    /// snapshot, the current decision, and the lifetime switch count.
    /// Call only between exchanges (the engine freezes idle flows, so an
    /// in-flight accumulator never exists here); the bounded switch log
    /// and the policy's dwell streaks restart on restore — both only
    /// delay the next rung change, they never alter verifier decisions.
    #[must_use]
    pub fn freeze(&self) -> FrozenAdapt {
        FrozenAdapt {
            est: self.est.freeze(),
            decision: self.decision,
            switches_total: self.switches_total,
        }
    }

    /// Rebuild adaptation state from a hibernation snapshot.
    #[must_use]
    pub fn restore(cfg: AdaptConfig, frozen: &FrozenAdapt) -> FlowAdapt {
        let mut fa = FlowAdapt::new(cfg);
        fa.est = ChannelEstimator::restore(cfg, &frozen.est);
        fa.decision = frozen.decision;
        fa.switches_total = frozen.switches_total;
        fa
    }

    /// JSON snapshot: current decision plus every estimator signal.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        Value::object([
            (
                "mode".to_owned(),
                Value::Str(self.decision.kind.label().to_owned()),
            ),
            ("n".to_owned(), Value::U64(self.decision.n as u64)),
            ("switches".to_owned(), Value::U64(self.switches_total)),
            ("estimator".to_owned(), self.est.snapshot()),
        ])
    }
}

/// The hibernated form of a [`FlowAdapt`]: what survives a freeze/thaw
/// cycle (see [`FlowAdapt::freeze`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrozenAdapt {
    /// Estimator snapshot.
    pub est: FrozenEstimator,
    /// Controller decision at freeze time.
    pub decision: Decision,
    /// Lifetime decision changes.
    pub switches_total: u64,
}

/// Serialized size of a [`FrozenAdapt`] record.
const FROZEN_ADAPT_LEN: usize = 4 * 8 + 3 + 4 * 8 + 1 + 8 + 8;

impl FrozenAdapt {
    /// Serialize into the compact byte record held by the hibernation
    /// store.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FROZEN_ADAPT_LEN);
        for f in [
            self.est.loss,
            self.est.srtt_us,
            self.est.rttvar_us,
            self.est.efficiency,
        ] {
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        out.push(u8::from(self.est.have_loss));
        out.push(u8::from(self.est.have_rtt));
        out.push(u8::from(self.est.have_efficiency));
        for v in [
            self.est.total_exchanges,
            self.est.total_abandoned,
            self.est.total_auth_bytes,
            self.est.total_payload_bytes,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.push(match self.decision.kind {
            ModeKind::Base => 0,
            ModeKind::Cumulative => 1,
            ModeKind::Merkle => 2,
            ModeKind::CumulativeMerkle => 3,
        });
        out.extend_from_slice(&(self.decision.n as u64).to_be_bytes());
        out.extend_from_slice(&self.switches_total.to_be_bytes());
        out
    }

    /// Parse a record produced by [`FrozenAdapt::to_bytes`]; `None` on any
    /// malformed input.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<FrozenAdapt> {
        if bytes.len() != FROZEN_ADAPT_LEN {
            return None;
        }
        let f64_at = |i: usize| {
            let raw: [u8; 8] = bytes[i..i + 8].try_into().expect("8 bytes");
            f64::from_bits(u64::from_be_bytes(raw))
        };
        let u64_at = |i: usize| {
            let raw: [u8; 8] = bytes[i..i + 8].try_into().expect("8 bytes");
            u64::from_be_bytes(raw)
        };
        let kind = match bytes[67] {
            0 => ModeKind::Base,
            1 => ModeKind::Cumulative,
            2 => ModeKind::Merkle,
            3 => ModeKind::CumulativeMerkle,
            _ => return None,
        };
        Some(FrozenAdapt {
            est: FrozenEstimator {
                loss: f64_at(0),
                srtt_us: f64_at(8),
                rttvar_us: f64_at(16),
                efficiency: f64_at(24),
                have_loss: bytes[32] != 0,
                have_rtt: bytes[33] != 0,
                have_efficiency: bytes[34] != 0,
                total_exchanges: u64_at(35),
                total_abandoned: u64_at(43),
                total_auth_bytes: u64_at(51),
                total_payload_bytes: u64_at(59),
            },
            decision: Decision {
                kind,
                n: u64_at(68) as usize,
            },
            switches_total: u64_at(76),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_core::{Association, Config, Reliability};
    use alpha_crypto::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> (Association, Association, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(512)
            .with_reliability(Reliability::Reliable);
        let (a, b) = Association::pair(cfg, 7, &mut rng);
        (a, b, rng)
    }

    /// Run one full lossless exchange through real associations with the
    /// FlowAdapt observing, and check the accounting matches the wire
    /// formulas exactly.
    #[test]
    fn accounting_matches_wire_formulas_on_a_real_exchange() {
        let (mut alice, mut bob, mut rng) = pair();
        let mut fa = FlowAdapt::new(AdaptConfig::default());
        let now = Timestamp::ZERO;
        let h = Algorithm::Sha1.digest_len();

        let msgs: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 100]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let (mode, take) = (Mode::Cumulative, refs.len());
        let s1 = alice.sign_batch(&refs, mode, now).unwrap();
        fa.begin_exchange(mode, take, 400, now);
        fa.observe_packets(std::slice::from_ref(&s1));
        assert_eq!(s1.wire_len(), mode.s1_wire_len(take, h));

        let a1 = bob.handle(&s1, now, &mut rng).unwrap().packet().unwrap();
        let later = now.plus_micros(5_000);
        fa.on_a1(later);
        let resp = alice.handle(&a1, later, &mut rng).unwrap();
        fa.observe(&resp.packets, &resp.signer_events);
        let mut s2_auth = 0usize;
        for s2 in &resp.packets {
            let Body::S2 { payload, .. } = &s2.body else {
                panic!("expected S2")
            };
            s2_auth += s2.wire_len() - payload.len();
            let r = bob.handle(s2, later, &mut rng).unwrap();
            if let Some(a2) = r.packet() {
                let done = alice.handle(&a2, later, &mut rng).unwrap();
                fa.observe(&done.packets, &done.signer_events);
            }
        }

        assert_eq!(fa.exchanges(), 1, "exchange should have closed");
        let est = fa.estimator();
        let expected = mode.s1_wire_len(take, h) + s2_auth;
        assert_eq!(est.auth_bytes(), expected as u64);
        assert_eq!(est.payload_bytes(), 400);
        assert_eq!(est.loss_estimate(), 0.0);
        assert_eq!(est.srtt_us(), Some(5_000));
    }

    #[test]
    fn plan_caps_take_and_degrades_to_base() {
        let fa = FlowAdapt::new(AdaptConfig::default());
        let (mode, take) = fa.plan(100);
        assert!(take >= 1 && take <= AdaptConfig::default().max_n);
        let (mode1, take1) = fa.plan(1);
        assert_eq!(take1, 1);
        assert_eq!(mode1, Mode::Base);
        let _ = mode;
    }

    #[test]
    fn abandoned_exchange_credits_no_payload_and_reads_as_loss() {
        let mut fa = FlowAdapt::new(AdaptConfig::default());
        fa.begin_exchange(Mode::Cumulative, 4, 1024, Timestamp::ZERO);
        fa.observe_events(&[SignerEvent::ExchangeAbandoned]);
        assert_eq!(fa.estimator().payload_bytes(), 0);
        assert_eq!(fa.estimator().loss_estimate(), 1.0);
        assert_eq!(fa.exchanges(), 1);
    }

    #[test]
    fn switch_log_records_mode_changes_with_exchange_index() {
        let mut fa = FlowAdapt::new(AdaptConfig::default());
        // Hammer the flow with abandoned exchanges until the ladder tops
        // out, then verify the log shape.
        for i in 0..20 {
            fa.begin_exchange(Mode::Cumulative, 4, 1024, Timestamp::from_millis(i));
            fa.observe_events(&[SignerEvent::ExchangeAbandoned]);
        }
        assert_eq!(fa.decision().kind, ModeKind::Merkle);
        assert!(fa.mode_switches_total() >= 2);
        assert!(fa.switches_total() >= fa.mode_switches_total());
        let log = fa.switches();
        assert!(!log.is_empty());
        assert!(log.windows(2).all(|w| w[0].exchange <= w[1].exchange));
        let snap = fa.snapshot();
        assert_eq!(snap.get("mode").unwrap().as_str(), Some("merkle"));
    }

    #[test]
    fn karn_rule_skips_rtt_after_s1_retransmission() {
        let mut fa = FlowAdapt::new(AdaptConfig::default());
        fa.begin_exchange(Mode::Base, 1, 64, Timestamp::ZERO);
        // Two S1 transmissions (a retransmission) → no RTT sample.
        let (mut alice, _bob, _rng) = pair();
        let s1 = alice.sign(b"x", Timestamp::ZERO).unwrap();
        fa.observe_packets(&[s1.clone(), s1]);
        fa.on_a1(Timestamp::from_millis(50));
        fa.observe_events(&[SignerEvent::ExchangeComplete]);
        assert_eq!(fa.estimator().srtt_us(), None);
    }
}
