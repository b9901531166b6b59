//! Packet structures and their binary encoding.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! 0        2        3        4        5            13           21
//! +--------+--------+--------+--------+------------+------------+------
//! | magic  | version| type   | alg    | assoc id   | chain index| body…
//! | 0xA1FA |  0x01  |        |        |   u64      |    u64     |
//! +--------+--------+--------+--------+------------+------------+------
//! ```
//!
//! `chain index` is the 1-based hash-chain position of the chain element
//! carried by the packet (announce element for S1/A1, disclosed key for
//! S2/A2, unused = 0 for handshakes). Carrying the index explicitly lets
//! verifiers and relays catch up over lost packets by hashing forward,
//! instead of discarding everything after a gap.

use crate::cursor::Writer;
use crate::encode;
use crate::view::PacketView;
use crate::Error;
use alpha_crypto::amt::{AmtDisclosure, SECRET_LEN};
use alpha_crypto::{Algorithm, Digest};

pub(crate) const MAGIC: u16 = 0xA1FA;
pub(crate) const VERSION: u8 = 1;

/// Discriminants for the packet types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketType {
    /// Pre-signature announcement.
    S1 = 1,
    /// Acknowledgment / willingness to receive.
    A1 = 2,
    /// Key disclosure + message.
    S2 = 3,
    /// Verdict disclosure.
    A2 = 4,
    /// Handshake initiation.
    Hs1 = 5,
    /// Handshake reply.
    Hs2 = 6,
}

/// A piggyback bundle: several packets in one frame (§3.2.1: "a host that
/// acts as signer and verifier can combine the packet transmissions of
/// both directions and send A and S packets of independent simplex
/// channels in the same packet"). Encoded as a one-byte magic-breaking
/// prefix so a bundle can never be confused with a single packet.
pub mod bundle {
    use super::Packet;
    use crate::{limits, Error};

    /// Leading byte of a bundle frame (a plain packet starts with 0xA1).
    pub const BUNDLE_TAG: u8 = 0xB1;

    /// Encode up to [`limits::MAX_BUNDLE`] packets into one frame.
    /// Returns [`Error::LimitExceeded`] for 0 or more than
    /// `MAX_BUNDLE` packets (API misuse must not abort a relay).
    pub fn emit(packets: &[Packet]) -> Result<Vec<u8>, Error> {
        let mut out = Vec::new();
        emit_into(packets, &mut out)?;
        Ok(out)
    }

    /// [`emit`] into a caller-supplied buffer (appended; callers clear
    /// between frames to reuse the allocation). Like
    /// [`emit_slices_into`], a packet too long for the `u16` length
    /// prefix is [`Error::LimitExceeded`]; `out` is as it was found on
    /// error.
    pub fn emit_into(packets: &[Packet], out: &mut Vec<u8>) -> Result<(), Error> {
        if !(1..=limits::MAX_BUNDLE).contains(&packets.len()) {
            return Err(Error::LimitExceeded);
        }
        let start = out.len();
        out.push(BUNDLE_TAG);
        out.push(packets.len() as u8);
        for p in packets {
            let Ok(len) = u16::try_from(p.wire_len()) else {
                out.truncate(start);
                return Err(Error::LimitExceeded);
            };
            out.extend_from_slice(&len.to_be_bytes());
            p.encode_into(out);
        }
        Ok(())
    }

    /// Bundle already-encoded packets without re-encoding them: one slice
    /// is copied through as a bare packet frame, several get the bundle
    /// framing. This is the relay's zero-copy forwarding path — inner
    /// packets that passed verification are spliced from the incoming
    /// datagram straight into the outgoing frame.
    pub fn emit_slices_into(packets: &[&[u8]], out: &mut Vec<u8>) -> Result<(), Error> {
        match packets {
            [] => Err(Error::LimitExceeded),
            [one] => {
                out.extend_from_slice(one);
                Ok(())
            }
            many => frame_slices_into(many, out),
        }
    }

    /// Bundle framing around 1 to [`limits::MAX_BUNDLE`] encoded
    /// packets, even one: the frame [`emit_into`] makes of the same
    /// packets. Like [`emit_into`], `out` is as it was found on error.
    pub fn frame_slices_into(packets: &[&[u8]], out: &mut Vec<u8>) -> Result<(), Error> {
        if !(1..=limits::MAX_BUNDLE).contains(&packets.len())
            || packets.iter().any(|p| p.len() > u16::MAX as usize)
        {
            return Err(Error::LimitExceeded);
        }
        out.push(BUNDLE_TAG);
        out.push(packets.len() as u8);
        for p in packets {
            out.extend_from_slice(&(p.len() as u16).to_be_bytes());
            out.extend_from_slice(p);
        }
        Ok(())
    }

    /// Split a frame into its constituent packet slices without parsing
    /// or allocating: a non-bundle frame yields itself as the single
    /// entry. Validates the bundle framing (count, length prefixes, no
    /// trailing bytes) but not the inner packets. Returns the number of
    /// slices written into `out`.
    pub fn split<'a>(
        frame: &'a [u8],
        out: &mut [&'a [u8]; limits::MAX_BUNDLE],
    ) -> Result<usize, Error> {
        if frame.first() != Some(&BUNDLE_TAG) {
            out[0] = frame;
            return Ok(1);
        }
        let count = *frame.get(1).ok_or(Error::Truncated)? as usize;
        if count == 0 || count > limits::MAX_BUNDLE {
            return Err(Error::LimitExceeded);
        }
        let mut rest = &frame[2..];
        for slot in out.iter_mut().take(count) {
            if rest.len() < 2 {
                return Err(Error::Truncated);
            }
            let len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
            if rest.len() < 2 + len {
                return Err(Error::Truncated);
            }
            *slot = &rest[2..2 + len];
            rest = &rest[2 + len..];
        }
        if !rest.is_empty() {
            return Err(Error::TrailingBytes);
        }
        Ok(count)
    }

    /// Parse a frame that may be either a bundle or a single packet;
    /// returns the contained packets in order. [`split`], then
    /// [`Packet::parse`] per slice — the engine's order, so a framing
    /// error is reported ahead of an inner packet's.
    pub fn parse(frame: &[u8]) -> Result<Vec<Packet>, Error> {
        let mut slices: [&[u8]; limits::MAX_BUNDLE] = [&[]; limits::MAX_BUNDLE];
        let n = split(frame, &mut slices)?;
        slices[..n].iter().map(|s| Packet::parse(s)).collect()
    }
}

/// The pre-signature material in an S1 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreSignature {
    /// One MAC per covered message (Base mode sends exactly one; ALPHA-C
    /// packs many, §3.3.1).
    Cumulative(Vec<Digest>),
    /// A single Merkle-tree root covering `leaves` messages (ALPHA-M,
    /// §3.3.2). The root is keyed with the undisclosed chain element.
    MerkleRoot {
        /// Keyed root `H(h | b0 | b1)`.
        root: Digest,
        /// Number of real leaves (S2 packets to expect).
        leaves: u32,
    },
    /// Multiple Merkle-tree roots in one S1 — the ALPHA-C + ALPHA-M
    /// combination of §3.3.2's closing paragraph: shallower trees trade a
    /// little relay buffer (one root per tree) for shorter authentication
    /// paths in every S2.
    MerkleForest(Vec<TreeDescriptor>),
}

/// One tree of a [`PreSignature::MerkleForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeDescriptor {
    /// Keyed root of this tree.
    pub root: Digest,
    /// Real leaves under this root.
    pub leaves: u32,
}

impl PreSignature {
    /// Number of messages this pre-signature covers.
    #[must_use]
    pub fn covered(&self) -> u32 {
        match self {
            PreSignature::Cumulative(v) => v.len() as u32,
            PreSignature::MerkleRoot { leaves, .. } => *leaves,
            PreSignature::MerkleForest(trees) => trees.iter().map(|t| t.leaves).sum(),
        }
    }
}

/// The acknowledgment commitment in an A1 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckCommit {
    /// Unreliable mode: A1 only authenticates willingness to receive.
    None,
    /// Reliable Base/ALPHA-C: flat pre-ack + pre-nack hashes (§3.2.2).
    Flat {
        /// `H(h | "1" | s_ack)`.
        pre_ack: Digest,
        /// `H(h | "0" | s_nack)`.
        pre_nack: Digest,
    },
    /// Reliable ALPHA-M: an Acknowledgment Merkle Tree root (§3.3.3).
    Amt {
        /// Keyed AMT root `H(left | right | h)`.
        root: Digest,
        /// Number of packets the AMT can acknowledge.
        leaves: u32,
    },
}

/// The verdict disclosure in an A2 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum A2Disclosure {
    /// Flat pre-(n)ack disclosure: verdict flag + matching secret.
    Flat {
        /// `true` = ack, `false` = nack.
        ack: bool,
        /// The disclosed secret.
        secret: [u8; SECRET_LEN],
    },
    /// One or more AMT verdict disclosures (selective acknowledgment).
    Amt(Vec<AmtDisclosure>),
}

/// Handshake direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeRole {
    /// First packet of the bootstrap exchange.
    Init,
    /// Responder's half.
    Reply,
}

/// Optional public-key authentication of a handshake (§3.4 *protected
/// bootstrapping*). The key and signature are scheme-tagged opaque blobs;
/// `alpha-core` interprets them via `alpha-pk`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeAuth {
    /// Scheme tag: 1 = RSA, 2 = DSA, 3 = ECDSA (mirrors `alpha_pk::PublicKey`).
    pub scheme: u8,
    /// Serialized public key.
    pub public_key: Vec<u8>,
    /// Signature over the handshake's anchor fields.
    pub signature: Vec<u8>,
}

/// Bootstrap handshake body: the four hash-chain anchors of §3.1 are
/// exchanged as two per direction (each host sends its signature and
/// acknowledgment anchors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// Init or reply.
    pub role: HandshakeRole,
    /// Sender's signature-chain anchor.
    pub sig_anchor: Digest,
    /// Index (= length) of the signature chain.
    pub sig_anchor_index: u64,
    /// Sender's acknowledgment-chain anchor.
    pub ack_anchor: Digest,
    /// Index (= length) of the acknowledgment chain.
    pub ack_anchor_index: u64,
    /// Optional public-key authentication.
    pub auth: Option<HandshakeAuth>,
}

impl Handshake {
    /// The byte string a protected bootstrap signs: both anchors with
    /// their indices, domain-separated.
    #[must_use]
    pub fn signed_bytes(&self, assoc_id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(80);
        out.extend_from_slice(b"ALPHA-HS");
        out.extend_from_slice(&assoc_id.to_be_bytes());
        out.push(match self.role {
            HandshakeRole::Init => 1,
            HandshakeRole::Reply => 2,
        });
        out.extend_from_slice(&self.sig_anchor_index.to_be_bytes());
        out.extend_from_slice(self.sig_anchor.as_bytes());
        out.extend_from_slice(&self.ack_anchor_index.to_be_bytes());
        out.extend_from_slice(self.ack_anchor.as_bytes());
        out
    }
}

/// Packet bodies, one per [`PacketType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// S1: fresh chain element + pre-signature(s).
    S1 {
        /// Announce-role signature-chain element (index in the header).
        element: Digest,
        /// Pre-signature material.
        presig: PreSignature,
    },
    /// A1: fresh acknowledgment-chain element + optional commitments.
    A1 {
        /// Announce-role acknowledgment-chain element.
        element: Digest,
        /// Reliability commitment.
        commit: AckCommit,
    },
    /// S2: disclosed MAC key + one message.
    S2 {
        /// Disclosed signature-chain element (the MAC key).
        key: Digest,
        /// Message index within the covered bundle (0 in Base mode).
        seq: u32,
        /// Merkle authentication path (empty outside ALPHA-M).
        path: Vec<Digest>,
        /// The protected message.
        payload: Vec<u8>,
    },
    /// A2: disclosed acknowledgment-chain element + verdict(s).
    A2 {
        /// Disclosed acknowledgment-chain element.
        element: Digest,
        /// Verdict disclosure.
        disclosure: A2Disclosure,
    },
    /// HS1/HS2: bootstrap handshake.
    Handshake(Handshake),
}

/// A complete ALPHA packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Association identifier (shared context between the two hosts).
    pub assoc_id: u64,
    /// Hash algorithm of every digest in the packet.
    pub alg: Algorithm,
    /// Chain position of the carried element (0 for handshakes).
    pub chain_index: u64,
    /// Type-specific body.
    pub body: Body,
}

impl Packet {
    /// The packet's type tag.
    #[must_use]
    pub fn packet_type(&self) -> PacketType {
        match &self.body {
            Body::S1 { .. } => PacketType::S1,
            Body::A1 { .. } => PacketType::A1,
            Body::S2 { .. } => PacketType::S2,
            Body::A2 { .. } => PacketType::A2,
            Body::Handshake(h) => match h.role {
                HandshakeRole::Init => PacketType::Hs1,
                HandshakeRole::Reply => PacketType::Hs2,
            },
        }
    }

    /// Serialize to a fresh byte vector. Hot paths should prefer
    /// [`Packet::encode_into`] with a reused buffer.
    #[must_use]
    pub fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Serialize by appending to a caller-supplied buffer. The caller
    /// clears (not drops) the buffer between packets to recycle its
    /// allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (alg, id, index) = (self.alg, self.assoc_id, self.chain_index);
        match &self.body {
            Body::S1 { element, presig } => encode::s1(out, alg, id, index, element, presig),
            Body::A1 { element, commit } => encode::a1(out, alg, id, index, element, commit),
            Body::S2 {
                key,
                seq,
                path,
                payload,
            } => encode::s2(
                out,
                alg,
                id,
                index,
                key,
                *seq,
                path.iter().copied(),
                payload,
            ),
            Body::A2 {
                element,
                disclosure: A2Disclosure::Flat { ack, secret },
            } => encode::a2_flat(out, alg, id, index, element, *ack, secret),
            Body::A2 {
                element,
                disclosure: A2Disclosure::Amt(items),
            } => {
                let items = items.iter().map(|it| encode::AmtItem {
                    packet_index: it.packet_index,
                    ack: it.ack,
                    secret: &it.secret,
                    path: &it.path,
                });
                encode::a2_amt(out, alg, id, index, element, items);
            }
            Body::Handshake(h) => {
                let mut w = Writer::new(out);
                encode::header(&mut w, self.packet_type(), alg, id, index);
                w.u64(h.sig_anchor_index);
                w.digest(&h.sig_anchor);
                w.u64(h.ack_anchor_index);
                w.digest(&h.ack_anchor);
                match &h.auth {
                    None => w.u8(0),
                    Some(a) => {
                        w.u8(1);
                        w.u8(a.scheme);
                        w.u16(a.public_key.len() as u16);
                        w.bytes(&a.public_key);
                        w.u16(a.signature.len() as u16);
                        w.bytes(&a.signature);
                    }
                }
            }
        }
    }

    /// Encoded length, computed arithmetically — no allocation, exact
    /// per construction (checked against `emit` by the property tests).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let dl = self.alg.digest_len();
        match &self.body {
            Body::S1 { presig, .. } => encode::s1_len(self.alg, presig),
            Body::S2 { path, payload, .. } => encode::s2_len(self.alg, path.len(), payload.len()),
            Body::A1 { commit, .. } => {
                encode::HEADER
                    + dl
                    + 1
                    + match commit {
                        AckCommit::None => 0,
                        AckCommit::Flat { .. } => 2 * dl,
                        AckCommit::Amt { .. } => 4 + dl,
                    }
            }
            Body::A2 { disclosure, .. } => {
                encode::HEADER
                    + dl
                    + 1
                    + match disclosure {
                        A2Disclosure::Flat { .. } => 1 + SECRET_LEN,
                        A2Disclosure::Amt(items) => {
                            2 + items
                                .iter()
                                .map(|it| 4 + 1 + SECRET_LEN + 1 + it.path.len() * dl)
                                .sum::<usize>()
                        }
                    }
            }
            Body::Handshake(h) => {
                encode::HEADER
                    + 8
                    + dl
                    + 8
                    + dl
                    + 1
                    + match &h.auth {
                        None => 0,
                        Some(a) => 1 + 2 + a.public_key.len() + 2 + a.signature.len(),
                    }
            }
        }
    }

    /// Parse a packet; rejects any malformed, oversized, or trailing
    /// input. The decoding is [`PacketView::parse`]'s — this only copies
    /// the borrowed regions out.
    pub fn parse(buf: &[u8]) -> Result<Packet, Error> {
        PacketView::parse(buf).map(|v| v.to_packet())
    }
}

pub(crate) fn alg_tag(alg: Algorithm) -> u8 {
    match alg {
        Algorithm::Sha1 => 1,
        Algorithm::Sha256 => 2,
        Algorithm::MmoAes => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(alg: Algorithm, s: &str) -> Digest {
        alg.hash(s.as_bytes())
    }

    fn roundtrip(p: &Packet) {
        let bytes = p.emit();
        let parsed = Packet::parse(&bytes).expect("parses");
        assert_eq!(&parsed, p);
    }

    #[test]
    fn s1_roundtrips() {
        for alg in Algorithm::ALL {
            roundtrip(&Packet {
                assoc_id: 7,
                alg,
                chain_index: 15,
                body: Body::S1 {
                    element: d(alg, "el"),
                    presig: PreSignature::Cumulative(vec![d(alg, "m1"), d(alg, "m2")]),
                },
            });
            roundtrip(&Packet {
                assoc_id: 7,
                alg,
                chain_index: 15,
                body: Body::S1 {
                    element: d(alg, "el"),
                    presig: PreSignature::MerkleRoot {
                        root: d(alg, "r"),
                        leaves: 64,
                    },
                },
            });
        }
    }

    #[test]
    fn a1_roundtrips() {
        let alg = Algorithm::Sha1;
        for commit in [
            AckCommit::None,
            AckCommit::Flat {
                pre_ack: d(alg, "a"),
                pre_nack: d(alg, "n"),
            },
            AckCommit::Amt {
                root: d(alg, "amt"),
                leaves: 16,
            },
        ] {
            roundtrip(&Packet {
                assoc_id: 1,
                alg,
                chain_index: 9,
                body: Body::A1 {
                    element: d(alg, "ae"),
                    commit,
                },
            });
        }
    }

    #[test]
    fn s2_roundtrips() {
        let alg = Algorithm::MmoAes;
        roundtrip(&Packet {
            assoc_id: 2,
            alg,
            chain_index: 14,
            body: Body::S2 {
                key: d(alg, "key"),
                seq: 3,
                path: vec![d(alg, "p0"), d(alg, "p1"), d(alg, "p2")],
                payload: b"the protected message".to_vec(),
            },
        });
        // Empty payload and empty path both legal.
        roundtrip(&Packet {
            assoc_id: 2,
            alg,
            chain_index: 14,
            body: Body::S2 {
                key: d(alg, "key"),
                seq: 0,
                path: vec![],
                payload: vec![],
            },
        });
    }

    #[test]
    fn a2_roundtrips() {
        let alg = Algorithm::Sha256;
        roundtrip(&Packet {
            assoc_id: 3,
            alg,
            chain_index: 8,
            body: Body::A2 {
                element: d(alg, "ack el"),
                disclosure: A2Disclosure::Flat {
                    ack: true,
                    secret: [9u8; SECRET_LEN],
                },
            },
        });
        roundtrip(&Packet {
            assoc_id: 3,
            alg,
            chain_index: 8,
            body: Body::A2 {
                element: d(alg, "ack el"),
                disclosure: A2Disclosure::Amt(vec![
                    AmtDisclosure {
                        packet_index: 0,
                        ack: true,
                        secret: [1u8; SECRET_LEN],
                        path: vec![d(alg, "x"), d(alg, "y")],
                    },
                    AmtDisclosure {
                        packet_index: 5,
                        ack: false,
                        secret: [2u8; SECRET_LEN],
                        path: vec![d(alg, "z"), d(alg, "w")],
                    },
                ]),
            },
        });
    }

    #[test]
    fn handshake_roundtrips() {
        let alg = Algorithm::Sha1;
        for (role, auth) in [
            (HandshakeRole::Init, None),
            (
                HandshakeRole::Reply,
                Some(HandshakeAuth {
                    scheme: 1,
                    public_key: vec![4u8; 128],
                    signature: vec![5u8; 128],
                }),
            ),
        ] {
            roundtrip(&Packet {
                assoc_id: 4,
                alg,
                chain_index: 0,
                body: Body::Handshake(Handshake {
                    role,
                    sig_anchor: d(alg, "sa"),
                    sig_anchor_index: 1000,
                    ack_anchor: d(alg, "aa"),
                    ack_anchor_index: 1000,
                    auth,
                }),
            });
        }
    }

    #[test]
    fn rejects_bad_magic_version_type() {
        let alg = Algorithm::Sha1;
        let p = Packet {
            assoc_id: 1,
            alg,
            chain_index: 1,
            body: Body::A1 {
                element: d(alg, "e"),
                commit: AckCommit::None,
            },
        };
        let mut bytes = p.emit();
        let good = bytes.clone();

        bytes[0] = 0;
        assert_eq!(Packet::parse(&bytes), Err(Error::BadMagic));
        bytes = good.clone();
        bytes[2] = 99;
        assert_eq!(Packet::parse(&bytes), Err(Error::BadVersion(99)));
        bytes = good.clone();
        bytes[3] = 77;
        assert_eq!(Packet::parse(&bytes), Err(Error::UnknownType(77)));
        bytes = good.clone();
        bytes[4] = 0;
        assert_eq!(Packet::parse(&bytes), Err(Error::UnknownAlgorithm(0)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let alg = Algorithm::Sha1;
        let p = Packet {
            assoc_id: 1,
            alg,
            chain_index: 5,
            body: Body::S2 {
                key: d(alg, "k"),
                seq: 1,
                path: vec![d(alg, "p")],
                payload: b"data".to_vec(),
            },
        };
        let bytes = p.emit();
        for cut in 0..bytes.len() {
            let err = Packet::parse(&bytes[..cut]).unwrap_err();
            assert_eq!(err, Error::Truncated, "cut={cut}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let alg = Algorithm::Sha1;
        let p = Packet {
            assoc_id: 1,
            alg,
            chain_index: 1,
            body: Body::A1 {
                element: d(alg, "e"),
                commit: AckCommit::None,
            },
        };
        let mut bytes = p.emit();
        bytes.push(0);
        assert_eq!(Packet::parse(&bytes), Err(Error::TrailingBytes));
    }

    #[test]
    fn rejects_zero_and_oversized_counts() {
        let alg = Algorithm::Sha1;
        // Zero pre-signatures.
        let p = Packet {
            assoc_id: 1,
            alg,
            chain_index: 1,
            body: Body::S1 {
                element: d(alg, "e"),
                presig: PreSignature::Cumulative(vec![d(alg, "m")]),
            },
        };
        let mut bytes = p.emit();
        // count field sits right after header (22) + digest (20) + tag (1).
        let count_off = 21 + 20 + 1;
        bytes[count_off] = 0;
        bytes[count_off + 1] = 0;
        assert_eq!(Packet::parse(&bytes), Err(Error::LimitExceeded));
        // Oversized count with no matching data: limit check fires first.
        bytes[count_off] = 0xff;
        bytes[count_off + 1] = 0xff;
        assert_eq!(Packet::parse(&bytes), Err(Error::LimitExceeded));
    }

    #[test]
    fn rejects_bad_bool_and_discriminant() {
        let alg = Algorithm::Sha1;
        let p = Packet {
            assoc_id: 1,
            alg,
            chain_index: 1,
            body: Body::A2 {
                element: d(alg, "e"),
                disclosure: A2Disclosure::Flat {
                    ack: true,
                    secret: [0u8; SECRET_LEN],
                },
            },
        };
        let mut bytes = p.emit();
        let good = bytes.clone();
        let flag_off = 21 + 20 + 1; // header + element + discriminant
        bytes[flag_off] = 7;
        assert_eq!(Packet::parse(&bytes), Err(Error::BadDiscriminant(7)));
        bytes = good;
        bytes[flag_off - 1] = 9; // the disclosure discriminant itself
        assert_eq!(Packet::parse(&bytes), Err(Error::BadDiscriminant(9)));
    }

    #[test]
    fn signed_bytes_bind_all_anchor_fields() {
        let alg = Algorithm::Sha1;
        let hs = Handshake {
            role: HandshakeRole::Init,
            sig_anchor: d(alg, "sa"),
            sig_anchor_index: 10,
            ack_anchor: d(alg, "aa"),
            ack_anchor_index: 12,
            auth: None,
        };
        let base = hs.signed_bytes(1);
        let mut changed = hs.clone();
        changed.sig_anchor_index = 11;
        assert_ne!(base, changed.signed_bytes(1));
        assert_ne!(base, hs.signed_bytes(2));
        let mut changed = hs.clone();
        changed.role = HandshakeRole::Reply;
        assert_ne!(base, changed.signed_bytes(1));
    }

    #[test]
    fn wire_len_matches_emit() {
        let alg = Algorithm::Sha1;
        let p = Packet {
            assoc_id: 1,
            alg,
            chain_index: 1,
            body: Body::S1 {
                element: d(alg, "e"),
                presig: PreSignature::Cumulative(vec![d(alg, "m"); 20]),
            },
        };
        assert_eq!(p.wire_len(), p.emit().len());
        // S1 with 20 pre-signatures (the WMN configuration): header 21 +
        // element 20 + tag 1 + count 2 + 20·20.
        assert_eq!(p.wire_len(), 21 + 20 + 1 + 2 + 400);
    }
}

#[cfg(test)]
mod bundle_tests {
    use super::*;

    fn sample(alg: Algorithm, i: u64) -> Packet {
        Packet {
            assoc_id: i,
            alg,
            chain_index: i,
            body: Body::A1 {
                element: alg.hash(&i.to_be_bytes()),
                commit: AckCommit::None,
            },
        }
    }

    #[test]
    fn bundle_roundtrip() {
        let pkts: Vec<Packet> = (0..5).map(|i| sample(Algorithm::Sha1, i)).collect();
        let frame = bundle::emit(&pkts).unwrap();
        assert_eq!(frame[0], bundle::BUNDLE_TAG);
        assert_eq!(bundle::parse(&frame).unwrap(), pkts);
    }

    #[test]
    fn emit_rejects_bad_counts_without_panicking() {
        assert_eq!(bundle::emit(&[]), Err(Error::LimitExceeded));
        let pkts: Vec<Packet> = (0..crate::limits::MAX_BUNDLE as u64 + 1)
            .map(|i| sample(Algorithm::Sha1, i))
            .collect();
        assert_eq!(bundle::emit(&pkts), Err(Error::LimitExceeded));
        let mut out = Vec::new();
        assert_eq!(
            bundle::emit_into(&pkts, &mut out),
            Err(Error::LimitExceeded)
        );
        assert_eq!(
            bundle::emit_slices_into(&[], &mut out),
            Err(Error::LimitExceeded)
        );
        // A packet the u16 length prefix cannot frame: a 4096-MAC SHA-256
        // S1 (131 KB), a maximum-payload S2. `out` stays as it was found.
        let alg = Algorithm::Sha256;
        let s1 = Packet {
            assoc_id: 1,
            alg,
            chain_index: 1,
            body: Body::S1 {
                element: alg.hash(b"e"),
                presig: PreSignature::Cumulative(vec![alg.hash(b"m"); crate::limits::MAX_PRESIGS]),
            },
        };
        let s2 = Packet {
            assoc_id: 1,
            alg,
            chain_index: 1,
            body: Body::S2 {
                key: alg.hash(b"k"),
                seq: 0,
                path: vec![],
                payload: vec![0; crate::limits::MAX_PAYLOAD],
            },
        };
        out.extend_from_slice(b"kept");
        for big in [s1, s2] {
            assert!(Packet::parse(&big.emit()).is_ok(), "legal on its own");
            let pair = [sample(Algorithm::Sha1, 0), big];
            assert_eq!(bundle::emit(&pair), Err(Error::LimitExceeded));
            assert_eq!(
                bundle::emit_into(&pair, &mut out),
                Err(Error::LimitExceeded)
            );
            assert_eq!(out, b"kept");
        }
    }

    #[test]
    fn split_matches_parse() {
        let pkts: Vec<Packet> = (0..4).map(|i| sample(Algorithm::Sha1, i)).collect();
        let frame = bundle::emit(&pkts).unwrap();
        let mut slices: [&[u8]; crate::limits::MAX_BUNDLE] = [&[]; crate::limits::MAX_BUNDLE];
        let n = bundle::split(&frame, &mut slices).unwrap();
        assert_eq!(n, 4);
        for (s, p) in slices[..n].iter().zip(&pkts) {
            assert_eq!(&Packet::parse(s).unwrap(), p);
        }
        // A bare packet splits into itself.
        let one = pkts[0].emit();
        let n = bundle::split(&one, &mut slices).unwrap();
        assert_eq!(n, 1);
        assert_eq!(slices[0], &one[..]);
    }

    #[test]
    fn emit_slices_roundtrip() {
        let pkts: Vec<Packet> = (0..3).map(|i| sample(Algorithm::MmoAes, i)).collect();
        let encoded: Vec<Vec<u8>> = pkts.iter().map(Packet::emit).collect();
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let mut frame = Vec::new();
        bundle::emit_slices_into(&refs, &mut frame).unwrap();
        assert_eq!(bundle::parse(&frame).unwrap(), pkts);
        // Single slice comes through as a bare packet, not a bundle.
        frame.clear();
        bundle::emit_slices_into(&refs[..1], &mut frame).unwrap();
        assert_eq!(frame, encoded[0]);
    }

    #[test]
    fn single_packet_passes_through_bundle_parse() {
        let p = sample(Algorithm::MmoAes, 7);
        assert_eq!(bundle::parse(&p.emit()).unwrap(), vec![p]);
    }

    #[test]
    fn bundle_truncation_and_trailing_rejected() {
        let pkts: Vec<Packet> = (0..3).map(|i| sample(Algorithm::Sha1, i)).collect();
        let frame = bundle::emit(&pkts).unwrap();
        for cut in 1..frame.len() {
            assert!(bundle::parse(&frame[..cut]).is_err(), "cut={cut}");
        }
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(bundle::parse(&long), Err(Error::TrailingBytes));
    }

    #[test]
    fn bundle_count_limits() {
        let mut bad = vec![bundle::BUNDLE_TAG, 0];
        assert_eq!(bundle::parse(&bad), Err(Error::LimitExceeded));
        bad[1] = (crate::limits::MAX_BUNDLE + 1) as u8;
        assert_eq!(bundle::parse(&bad), Err(Error::LimitExceeded));
    }

    #[test]
    fn corrupt_inner_packet_rejected() {
        let pkts: Vec<Packet> = (0..2).map(|i| sample(Algorithm::Sha1, i)).collect();
        let mut frame = bundle::emit(&pkts).unwrap();
        frame[4] = 0; // smash the first inner packet's magic
        assert!(bundle::parse(&frame).is_err());
    }
}
