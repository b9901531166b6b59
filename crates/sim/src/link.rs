//! Link models: latency, jitter, loss, corruption, duplication, bandwidth.
//!
//! Wireless multi-hop links are the reason ALPHA tolerates loss and
//! reordering (§3.3.2); the link model makes those conditions reproducible.
//! Packets traverse links as raw wire bytes, so corruption lands on real
//! encodings and is caught by `alpha-wire` parsing or MAC checks, exactly
//! as it would be in deployment.

use alpha_core::Timestamp;
use rand::Rng;

/// Parameters of a two-state Gilbert–Elliott bursty-loss channel.
///
/// The channel is a Markov chain over `{Good, Bad}`: each offered packet
/// first rolls the state transition, then is lost with the loss
/// probability of the state it landed in. Mean burst length is
/// `1 / p_exit_bad` packets, stationary bad-state occupancy is
/// `p_enter_bad / (p_enter_bad + p_exit_bad)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of moving Good → Bad.
    pub p_enter_bad: f64,
    /// Per-packet probability of moving Bad → Good.
    pub p_exit_bad: f64,
    /// Loss probability while in the Good state.
    pub loss_good: f64,
    /// Loss probability while in the Bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Stationary probability of being in the Bad state.
    #[must_use]
    pub fn bad_occupancy(&self) -> f64 {
        let e = self.p_enter_bad.clamp(0.0, 1.0);
        let x = self.p_exit_bad.clamp(0.0, 1.0);
        if e + x == 0.0 {
            0.0
        } else {
            e / (e + x)
        }
    }

    /// Long-run average loss rate of the channel.
    #[must_use]
    pub fn mean_loss(&self) -> f64 {
        let bad = self.bad_occupancy();
        (1.0 - bad) * self.loss_good + bad * self.loss_bad
    }
}

/// Runtime state of one Gilbert–Elliott channel: the parameters plus the
/// current Markov state. Public so harnesses outside the simulator (the
/// `adaptive_modes` bench) can drive the same burst model packet by
/// packet.
#[derive(Debug, Clone, Copy)]
pub struct GeChannel {
    params: GilbertElliott,
    in_bad: bool,
}

impl GeChannel {
    /// A channel starting in the Good state.
    #[must_use]
    pub fn new(params: GilbertElliott) -> GeChannel {
        GeChannel {
            params,
            in_bad: false,
        }
    }

    /// Roll the state transition for one offered packet, then decide
    /// whether it is lost.
    pub fn lose(&mut self, rng: &mut impl Rng) -> bool {
        let flip = if self.in_bad {
            self.params.p_exit_bad
        } else {
            self.params.p_enter_bad
        };
        if rng.gen_bool(flip.clamp(0.0, 1.0)) {
            self.in_bad = !self.in_bad;
        }
        let p = if self.in_bad {
            self.params.loss_bad
        } else {
            self.params.loss_good
        };
        rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Whether the channel is currently in the Bad state.
    #[must_use]
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }

    /// The channel parameters.
    #[must_use]
    pub fn params(&self) -> GilbertElliott {
        self.params
    }
}

/// Configuration of one directed link.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Propagation delay (µs).
    pub latency_us: u64,
    /// Uniform jitter added on top (µs, 0..=jitter).
    pub jitter_us: u64,
    /// Packet loss probability (0..1).
    pub loss: f64,
    /// Probability that one byte of the packet is flipped (0..1).
    pub corrupt: f64,
    /// Probability the packet is delivered twice (0..1).
    pub duplicate: f64,
    /// Link rate in bits/s for serialization delay (None = infinite).
    pub bandwidth_bps: Option<u64>,
    /// Bursty-loss model layered on top of the i.i.d. `loss` roll: when
    /// set, a packet surviving the Bernoulli roll still traverses the
    /// Gilbert–Elliott channel. Set `loss` to 0 for a pure GE link.
    pub ge: Option<GilbertElliott>,
}

impl LinkConfig {
    /// An ideal link: 1 ms latency, nothing else.
    #[must_use]
    pub fn ideal() -> LinkConfig {
        LinkConfig {
            latency_us: 1_000,
            jitter_us: 0,
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            bandwidth_bps: None,
            ge: None,
        }
    }

    /// An 802.11-flavoured mesh link: 2 ms ± 1 ms, 1% loss, 20 Mbit/s.
    #[must_use]
    pub fn mesh() -> LinkConfig {
        LinkConfig {
            latency_us: 2_000,
            jitter_us: 1_000,
            loss: 0.01,
            corrupt: 0.0,
            duplicate: 0.0,
            bandwidth_bps: Some(20_000_000),
            ge: None,
        }
    }

    /// An 802.15.4-flavoured sensor link: 5 ms ± 3 ms, 2% loss, 250 kbit/s
    /// (the nominal rate §4.1.3 compares against).
    #[must_use]
    pub fn sensor() -> LinkConfig {
        LinkConfig {
            latency_us: 5_000,
            jitter_us: 3_000,
            loss: 0.02,
            corrupt: 0.0,
            duplicate: 0.0,
            bandwidth_bps: Some(250_000),
            ge: None,
        }
    }

    /// A bursty wireless link: ideal latency with a Gilbert–Elliott
    /// channel layered on top (no i.i.d. loss).
    #[must_use]
    pub fn bursty(ge: GilbertElliott) -> LinkConfig {
        LinkConfig {
            loss: 0.0,
            ge: Some(ge),
            ..LinkConfig::ideal()
        }
    }

    /// Set the loss probability.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> LinkConfig {
        self.loss = loss;
        self
    }

    /// Set the corruption probability.
    #[must_use]
    pub fn with_corrupt(mut self, corrupt: f64) -> LinkConfig {
        self.corrupt = corrupt;
        self
    }
}

/// Runtime state of one directed link.
pub(crate) struct Link {
    pub cfg: LinkConfig,
    /// Time the transmitter is free again (serialization queueing).
    pub free_at: Timestamp,
    /// Burst-channel state, present when `cfg.ge` is set.
    pub ge: Option<GeChannel>,
}

/// What happened to a packet offered to the link.
pub(crate) enum Transit {
    /// Lost in flight.
    Dropped,
    /// Delivered (possibly corrupted) at the given times.
    Deliver {
        /// Arrival time of the (first) copy.
        at: Timestamp,
        /// Possibly mutated bytes.
        bytes: Vec<u8>,
        /// Arrival time of a duplicate copy, if the link duplicated.
        duplicate_at: Option<Timestamp>,
    },
}

impl Link {
    pub fn new(cfg: LinkConfig) -> Link {
        Link {
            cfg,
            free_at: Timestamp::ZERO,
            ge: cfg.ge.map(GeChannel::new),
        }
    }

    /// Offer `bytes` to the link at `now`.
    pub fn transmit(&mut self, mut bytes: Vec<u8>, now: Timestamp, rng: &mut impl Rng) -> Transit {
        // Serialization: the transmitter owns the medium for len*8/bps.
        let start = now.max(self.free_at);
        let ser_us = self.cfg.bandwidth_bps.map_or(0, |bps| {
            (bytes.len() as u64 * 8).saturating_mul(1_000_000) / bps.max(1)
        });
        self.free_at = start.plus_micros(ser_us);

        if rng.gen_bool(self.cfg.loss.clamp(0.0, 1.0)) {
            return Transit::Dropped;
        }
        if let Some(ge) = self.ge.as_mut() {
            if ge.lose(rng) {
                return Transit::Dropped;
            }
        }
        if !bytes.is_empty() && rng.gen_bool(self.cfg.corrupt.clamp(0.0, 1.0)) {
            let idx = rng.gen_range(0..bytes.len());
            let bit = 1u8 << rng.gen_range(0..8);
            bytes[idx] ^= bit;
        }
        let jitter = if self.cfg.jitter_us == 0 {
            0
        } else {
            rng.gen_range(0..=self.cfg.jitter_us)
        };
        let at = self.free_at.plus_micros(self.cfg.latency_us + jitter);
        let duplicate_at = if rng.gen_bool(self.cfg.duplicate.clamp(0.0, 1.0)) {
            Some(at.plus_micros(self.cfg.latency_us / 2 + 1))
        } else {
            None
        };
        Transit::Deliver {
            at,
            bytes,
            duplicate_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn ideal_link_delivers_unchanged() {
        let mut l = Link::new(LinkConfig::ideal());
        let mut r = rng();
        match l.transmit(vec![1, 2, 3], Timestamp::ZERO, &mut r) {
            Transit::Deliver {
                at,
                bytes,
                duplicate_at,
            } => {
                assert_eq!(at, Timestamp::from_micros(1000));
                assert_eq!(bytes, vec![1, 2, 3]);
                assert!(duplicate_at.is_none());
            }
            Transit::Dropped => panic!("ideal link dropped"),
        }
    }

    #[test]
    fn bandwidth_serializes_back_to_back_packets() {
        let cfg = LinkConfig {
            bandwidth_bps: Some(8_000),
            ..LinkConfig::ideal()
        };
        // 8 kbit/s: a 100-byte packet takes 100 ms on the wire.
        let mut l = Link::new(cfg);
        let mut r = rng();
        let t0 = Timestamp::ZERO;
        let first = match l.transmit(vec![0; 100], t0, &mut r) {
            Transit::Deliver { at, .. } => at,
            Transit::Dropped => panic!(),
        };
        let second = match l.transmit(vec![0; 100], t0, &mut r) {
            Transit::Deliver { at, .. } => at,
            Transit::Dropped => panic!(),
        };
        assert_eq!(first.micros(), 100_000 + 1_000);
        assert_eq!(second.micros(), 200_000 + 1_000);
    }

    #[test]
    fn loss_rate_roughly_respected() {
        let cfg = LinkConfig::ideal().with_loss(0.5);
        let mut l = Link::new(cfg);
        let mut r = rng();
        let mut lost = 0;
        for _ in 0..1000 {
            if matches!(
                l.transmit(vec![0], Timestamp::ZERO, &mut r),
                Transit::Dropped
            ) {
                lost += 1;
            }
        }
        assert!((350..650).contains(&lost), "lost {lost}/1000");
    }

    #[test]
    fn gilbert_elliott_loss_is_bursty_but_mean_respecting() {
        let ge = GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.25,
            loss_good: 0.005,
            loss_bad: 0.6,
        };
        // Stationary occupancy 0.02/0.27 ≈ 7.4%, mean loss ≈ 4.9%.
        assert!((ge.bad_occupancy() - 0.074).abs() < 0.001);
        let mut chan = GeChannel::new(ge);
        let mut r = rng();
        let n = 100_000;
        let mut lost = 0u32;
        let mut runs = Vec::new(); // lengths of consecutive-loss runs
        let mut run = 0u32;
        for _ in 0..n {
            if chan.lose(&mut r) {
                lost += 1;
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        let mean = f64::from(lost) / f64::from(n);
        assert!(
            (mean - ge.mean_loss()).abs() < 0.01,
            "mean loss {mean} vs analytic {}",
            ge.mean_loss()
        );
        // Burstiness: consecutive losses must occur far more often than
        // an i.i.d. channel of the same mean rate would produce. For
        // i.i.d. at ~5%, P(run ≥ 2 | loss) = 5%; GE with loss_bad = 0.6
        // chains losses, so well over a tenth of runs exceed length 1.
        let multi = runs.iter().filter(|&&r| r >= 2).count();
        assert!(
            multi * 10 > runs.len(),
            "only {multi}/{} loss runs were bursts",
            runs.len()
        );
    }

    #[test]
    fn ge_link_config_drops_through_transmit() {
        let always_bad = GilbertElliott {
            p_enter_bad: 1.0,
            p_exit_bad: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut l = Link::new(LinkConfig::bursty(always_bad));
        let mut r = rng();
        for _ in 0..10 {
            assert!(matches!(
                l.transmit(vec![0], Timestamp::ZERO, &mut r),
                Transit::Dropped
            ));
        }
        let never = GilbertElliott {
            p_enter_bad: 0.0,
            p_exit_bad: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut l = Link::new(LinkConfig::bursty(never));
        assert!(matches!(
            l.transmit(vec![0], Timestamp::ZERO, &mut r),
            Transit::Deliver { .. }
        ));
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = LinkConfig::ideal().with_corrupt(1.0);
        let mut l = Link::new(cfg);
        let mut r = rng();
        let original = vec![0u8; 64];
        match l.transmit(original.clone(), Timestamp::ZERO, &mut r) {
            Transit::Deliver { bytes, .. } => {
                let diff: u32 = original
                    .iter()
                    .zip(&bytes)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(diff, 1);
            }
            Transit::Dropped => panic!(),
        }
    }
}
