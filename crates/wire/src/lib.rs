#![warn(missing_docs)]

//! On-the-wire packet formats for ALPHA.
//!
//! The protocol's packet vocabulary (Figs. 2, 3 of the paper):
//!
//! | packet | direction | carries |
//! |---|---|---|
//! | **S1** | signer → verifier | fresh signature-chain element + pre-signature(s) (MACs in Base/ALPHA-C, a keyed Merkle root in ALPHA-M) |
//! | **A1** | verifier → signer | fresh acknowledgment-chain element (+ pre-ack/pre-nack commitments or an AMT root in reliable mode) |
//! | **S2** | signer → verifier | disclosed MAC key + message (+ Merkle authentication path in ALPHA-M) |
//! | **A2** | verifier → signer | disclosed ack-chain element + verdict disclosure(s) |
//! | **HS1/HS2** | both | bootstrap handshake: hash-chain anchors, optionally signed with a public key (§3.4) |
//!
//! Every packet is parsed by *relays that trust nothing*: the crate's
//! one decoder, [`PacketView::parse`], never allocates, bounds every
//! claimed count ([`limits`]), rejects trailing bytes, and returns typed
//! [`Error`]s instead of panicking on any input; [`Packet::parse`] is
//! that view copied out. Round-tripping (`emit` → `parse`) and its
//! converse (accepted bytes re-encode to themselves) are exercised by
//! unit and property tests.

mod cursor;
mod packet;
mod pool;
mod view;

pub use packet::{
    bundle, A2Disclosure, AckCommit, Body, Handshake, HandshakeAuth, HandshakeRole, Packet,
    PacketType, PreSignature, TreeDescriptor,
};
pub use pool::{Frame, FramePool, PoolStats};
pub use view::{
    A2DisclosureView, AmtSlice, BodyView, DigestPath, DigestSlice, HandshakeAuthView,
    HandshakeView, PacketView, PreSignatureView, TreeSlice,
};

/// Parse-time resource limits.
///
/// A malicious S1 flood must not be able to force unbounded allocation on
/// relays (§3.5 discusses limiting S1 size for exactly this reason); these
/// caps bound what a single packet can ask for.
pub mod limits {
    /// Maximum pre-signatures in one ALPHA-C S1 packet.
    pub const MAX_PRESIGS: usize = 4096;
    /// Maximum Merkle authentication path length (2^64 leaves is absurd;
    /// 64 keeps the arithmetic honest). Aliases the capacity of the shared
    /// [`alpha_crypto::merkle::DigestPath`] stack path.
    pub const MAX_PATH: usize = alpha_crypto::merkle::MAX_PATH;
    /// Maximum payload bytes in one S2 packet.
    pub const MAX_PAYLOAD: usize = 65_535;
    /// Maximum verdict disclosures batched in one A2 packet.
    pub const MAX_DISCLOSURES: usize = 1024;
    /// Maximum opaque key/signature blob in a handshake packet.
    pub const MAX_AUTH_BLOB: usize = 4096;
    /// Maximum packets in one piggyback bundle frame.
    pub const MAX_BUNDLE: usize = 16;
    /// Maximum leaves announced for one ALPHA-M bundle.
    pub const MAX_LEAVES: u32 = 1 << 24;
}

/// Wire parsing/encoding errors. Every variant is reachable from
/// attacker-controlled input and handled without panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Buffer ended before the structure did.
    Truncated,
    /// Leading magic bytes are not `0xA1FA`.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown packet type byte.
    UnknownType(u8),
    /// Unknown hash algorithm byte.
    UnknownAlgorithm(u8),
    /// Unknown enum discriminant inside a body.
    BadDiscriminant(u8),
    /// A count or length field exceeds the [`limits`].
    LimitExceeded,
    /// Bytes remained after the structure ended.
    TrailingBytes,
    /// A structurally impossible combination (e.g. zero leaves).
    Malformed,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated => write!(f, "packet truncated"),
            Error::BadMagic => write!(f, "bad magic"),
            Error::BadVersion(v) => write!(f, "unsupported version {v}"),
            Error::UnknownType(t) => write!(f, "unknown packet type {t}"),
            Error::UnknownAlgorithm(a) => write!(f, "unknown hash algorithm {a}"),
            Error::BadDiscriminant(d) => write!(f, "bad discriminant {d}"),
            Error::LimitExceeded => write!(f, "length or count limit exceeded"),
            Error::TrailingBytes => write!(f, "trailing bytes after packet"),
            Error::Malformed => write!(f, "malformed packet"),
        }
    }
}

impl std::error::Error for Error {}
