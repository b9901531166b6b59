#![warn(missing_docs)]

//! The ALPHA protocol core: sans-io state machines for signer, verifier
//! and relay roles.
//!
//! This crate implements §3 of the paper end to end:
//!
//! - [`SignerChannel`] / [`VerifierChannel`] — one *simplex* protected
//!   channel each (§3.1): a signature chain on the signing side paired with
//!   an acknowledgment chain on the verifying side.
//! - [`Association`] — the duplex end-host view: each host runs one signer
//!   and one verifier channel, giving the four-anchor shared context
//!   `{h^As, h^Aa, h^Bs, h^Ba}` of §3.1.
//! - [`Relay`] — the on-path view: chain trackers for both directions,
//!   buffered pre-signatures and pre-acks, per-packet verification, early
//!   dropping of forged or unsolicited traffic, and signed-data extraction
//!   for middlebox signalling.
//! - [`Mode`] — Base, ALPHA-C (cumulative pre-signatures, §3.3.1) and
//!   ALPHA-M (pre-signed Merkle trees, §3.3.2), combinable per exchange.
//! - [`Reliability`] — unreliable (three-way) and reliable (four-way with
//!   pre-acks / AMTs, §3.2.2 and §3.3.3) delivery, including
//!   retransmission driven by [`SignerChannel::poll`].
//! - [`bootstrap`] — the anchor-exchange handshake of §3.4, unprotected or
//!   signed with RSA / DSA / ECDSA via `alpha-pk`.
//!
//! ## Sans-io design
//!
//! No state machine does I/O or reads a clock. Callers feed parsed
//! [`alpha_wire::Packet`]s plus a [`Timestamp`] in, and get packets to
//! transmit, payload deliveries, and verdicts back in a [`Response`].
//! The same machines run unmodified under the discrete-event simulator
//! (`alpha-sim`), the UDP transport (`alpha-transport`), unit tests, and
//! the benchmark harnesses — which is also what lets the Table 1 harness
//! count the *exact* hash operations each role performs.

mod association;
mod batch;
pub mod bootstrap;
mod error;
mod exchange;
pub mod freeze;
mod limiter;
mod relay;
pub mod renewal;
pub mod signal;
mod signer;
mod verifier;

pub use alpha_crypto::chain::ChainStorage;
pub use association::{Association, Response};
pub use batch::S2BatchItem;
pub use error::ProtocolError;
pub use freeze::FrozenAssociation;
pub use limiter::S1Limiter;
pub use relay::{
    AssociationRelay, DropReason, Relay, RelayConfig, RelayDecision, RelayEvent, RelayViewOutcome,
};
pub use signer::message_mac;
pub use signer::{SignerChannel, SignerEvent};
pub use verifier::{S2Verdict, VerifierChannel};

use alpha_crypto::Algorithm;

/// Microsecond-resolution protocol time. Sans-io: always supplied by the
/// caller (wall clock, simulator clock, or test constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Time zero, usable wherever timers are irrelevant.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Timestamp {
        Timestamp(us)
    }

    /// Construct from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms * 1_000)
    }

    /// Microseconds since time zero.
    #[must_use]
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Saturating time difference in microseconds.
    #[must_use]
    pub const fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// This time plus `us` microseconds.
    #[must_use]
    pub const fn plus_micros(self, us: u64) -> Timestamp {
        Timestamp(self.0 + us)
    }
}

/// Operating mode for a signature exchange (§3.3). A single association can
/// switch modes per exchange — that is the "adaptive" in ALPHA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One message per three-way exchange (Fig. 2).
    Base,
    /// ALPHA-C: one S1 carries one MAC per buffered message; S2 packets
    /// then flow without further round trips (§3.3.1).
    Cumulative,
    /// ALPHA-M: one S1 carries a keyed Merkle root; each S2 carries its
    /// authentication path and verifies independently (§3.3.2).
    Merkle,
    /// ALPHA-C + ALPHA-M combined (§3.3.2, closing paragraph): the S1
    /// carries several shallow Merkle roots. Relays buffer one root per
    /// tree instead of one per bundle, and every S2's authentication path
    /// shrinks to the depth of its own tree — a tunable point between
    /// ALPHA-C's O(n) buffering and ALPHA-M's log2(n) per-packet overhead.
    CumulativeMerkle {
        /// Messages per tree (the last tree may be smaller).
        leaves_per_tree: usize,
    },
}

impl Mode {
    /// Estimated S1 wire size for a bundle of `n` messages with hash size
    /// `h` — lets applications pick batch sizes against a link MTU before
    /// signing (§3.5 recommends relays police S1 sizes, so senders should
    /// not exceed them). The constant 21 is the packet header; tags and
    /// counts per the wire format.
    #[must_use]
    pub fn s1_wire_len(&self, n: usize, h: usize) -> usize {
        let header = 21 + h + 1; // header + chain element + discriminant
        match self {
            Mode::Base | Mode::Cumulative => header + 2 + n * h,
            Mode::Merkle => header + 4 + h,
            Mode::CumulativeMerkle { leaves_per_tree } => {
                let trees = n.div_ceil((*leaves_per_tree).max(1));
                header + 2 + trees * (4 + h)
            }
        }
    }

    /// Per-S2 signature overhead in bytes (disclosed element + path) for a
    /// bundle of `n`: the `s_h(⌈log2 n⌉ + 1)` of eq. (1) in ALPHA-M, one
    /// element otherwise.
    #[must_use]
    pub fn s2_overhead(&self, n: usize, h: usize) -> usize {
        match self {
            Mode::Base | Mode::Cumulative => h,
            Mode::Merkle => h * (alpha_crypto::merkle::log2_ceil(n.max(1) as u64) as usize + 1),
            Mode::CumulativeMerkle { leaves_per_tree } => {
                let per_tree = (*leaves_per_tree).max(1).min(n);
                h * (alpha_crypto::merkle::log2_ceil(per_tree as u64) as usize + 1)
            }
        }
    }
}

/// Delivery guarantee for an exchange (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Three-way exchange; no delivery confirmation.
    Unreliable,
    /// Four-way exchange with pre-acks (Base/C) or AMTs (M), plus
    /// timer-driven retransmission.
    Reliable,
}

/// MAC construction for pre-signatures. A deployment-wide parameter: all
/// hosts and relays of a network must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacScheme {
    /// RFC 2104 HMAC — two hash passes per MAC. The conservative default.
    Hmac,
    /// Single-pass prefix MAC `H(key | seq | m)` — half the hashing cost,
    /// sound within ALPHA because the MAC is committed (S1) before its key
    /// is disclosed (S2); this is the construction the paper's sensor-node
    /// cost figures assume (§4.1.3).
    Prefix,
}

/// Tunables shared by all protocol entities of one association.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Hash algorithm for chains, MACs and trees.
    pub algorithm: Algorithm,
    /// Elements per hash chain (an even number; each exchange consumes two
    /// per direction).
    pub chain_len: u64,
    /// Default operating mode for [`Association::sign`].
    pub mode: Mode,
    /// Delivery guarantee.
    pub reliability: Reliability,
    /// Retransmission timeout in microseconds.
    pub rto_micros: u64,
    /// Retransmissions before an exchange is abandoned.
    pub max_retries: u32,
    /// MAC construction for pre-signatures.
    pub mac_scheme: MacScheme,
    /// How this host stores its own chains: a memory/recompute trade-off
    /// for constrained devices.
    pub chain_storage: ChainStorage,
}

impl Config {
    /// Paper-flavoured defaults: SHA-1, 1024-element chains, Base mode,
    /// unreliable delivery, 200 ms RTO.
    #[must_use]
    pub fn new(algorithm: Algorithm) -> Config {
        Config {
            algorithm,
            chain_len: 1024,
            mode: Mode::Base,
            reliability: Reliability::Unreliable,
            rto_micros: 200_000,
            max_retries: 5,
            mac_scheme: MacScheme::Hmac,
            chain_storage: ChainStorage::Full,
        }
    }

    /// Set the mode.
    #[must_use]
    pub fn with_mode(mut self, mode: Mode) -> Config {
        self.mode = mode;
        self
    }

    /// Set the delivery guarantee.
    #[must_use]
    pub fn with_reliability(mut self, reliability: Reliability) -> Config {
        self.reliability = reliability;
        self
    }

    /// Set the chain length.
    #[must_use]
    pub fn with_chain_len(mut self, chain_len: u64) -> Config {
        self.chain_len = chain_len;
        self
    }

    /// Set the retransmission timeout.
    #[must_use]
    pub fn with_rto_micros(mut self, rto: u64) -> Config {
        self.rto_micros = rto;
        self
    }

    /// Set the retransmission budget before an exchange is abandoned.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Config {
        self.max_retries = max_retries;
        self
    }

    /// Set the MAC construction.
    #[must_use]
    pub fn with_mac_scheme(mut self, mac_scheme: MacScheme) -> Config {
        self.mac_scheme = mac_scheme;
        self
    }

    /// Choose the chain storage strategy.
    #[must_use]
    pub fn with_chain_storage(mut self, storage: ChainStorage) -> Config {
        self.chain_storage = storage;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_millis(3);
        assert_eq!(t.micros(), 3000);
        assert_eq!(t.plus_micros(500).micros(), 3500);
        assert_eq!(t.plus_micros(500).since(t), 500);
        assert_eq!(t.since(t.plus_micros(500)), 0); // saturates
    }

    #[test]
    fn config_builders() {
        let c = Config::new(Algorithm::Sha1)
            .with_mode(Mode::Merkle)
            .with_reliability(Reliability::Reliable)
            .with_chain_len(64)
            .with_rto_micros(1000);
        assert_eq!(c.mode, Mode::Merkle);
        assert_eq!(c.reliability, Reliability::Reliable);
        assert_eq!(c.chain_len, 64);
        assert_eq!(c.rto_micros, 1000);
    }
}
