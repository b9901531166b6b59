//! Borrowed packet views: zero-copy decoding over an incoming datagram.
//!
//! [`PacketView::parse`] is the crate's one decoder: every check on wire
//! bytes happens there, and the owned [`Packet::parse`] is this view
//! copied out ([`PacketView::to_packet`]). It borrows variable-length
//! regions (pre-signature MACs, Merkle paths, payloads, AMT disclosures,
//! handshake auth blobs) from the input buffer instead of copying them
//! into fresh vectors and never allocates, so a relay forwarding an S2
//! can verify it and splice the original bytes into the outgoing frame
//! without a single heap allocation. Accepted encodings are canonical —
//! `parse(b)?.to_packet().emit() == b` — which is what lets a relay
//! forward the slice it judged instead of a re-encoding.

use crate::cursor::Reader;
use crate::packet::{
    A2Disclosure, AckCommit, Body, Handshake, HandshakeAuth, HandshakeRole, Packet, PacketType,
    PreSignature, TreeDescriptor,
};
use crate::{limits, Error};
use alpha_crypto::amt::{AmtDisclosure, SECRET_LEN};
use alpha_crypto::merkle::Siblings;
use alpha_crypto::{Algorithm, Digest};

/// A borrowed run of fixed-width digests inside a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestSlice<'a> {
    alg: Algorithm,
    count: usize,
    bytes: &'a [u8],
}

impl<'a> DigestSlice<'a> {
    fn new(alg: Algorithm, count: usize, bytes: &'a [u8]) -> DigestSlice<'a> {
        debug_assert_eq!(bytes.len(), count * alg.digest_len());
        DigestSlice { alg, count, bytes }
    }

    /// Number of digests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the run is empty (legal for S2 paths outside ALPHA-M).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th digest, copied out of the wire bytes.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Digest> {
        if i >= self.count {
            return None;
        }
        let dl = self.alg.digest_len();
        Some(Digest::from_slice(&self.bytes[i * dl..(i + 1) * dl]))
    }

    /// Iterate the digests in order.
    pub fn iter(&self) -> impl Iterator<Item = Digest> + 'a {
        self.bytes
            .chunks_exact(self.alg.digest_len())
            .map(Digest::from_slice)
    }

    /// Copy into an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Digest> {
        self.iter().collect()
    }

    /// The run as a Merkle authentication path read in place: what the
    /// verifiers hash siblings from, without copying the path out.
    #[must_use]
    pub fn siblings(&self) -> Siblings<'a> {
        Siblings::packed(self.alg, self.bytes)
    }

    /// Copy into a fixed-capacity stack path. Only valid for runs that
    /// passed the S2 path-length limit (`count <= MAX_PATH`, guaranteed
    /// by [`PacketView::parse`]).
    #[must_use]
    pub fn to_path(&self) -> DigestPath {
        debug_assert!(self.count <= limits::MAX_PATH);
        let mut p = DigestPath::empty(self.alg);
        for d in self.iter().take(limits::MAX_PATH) {
            p.push(d);
        }
        p
    }
}

/// Fixed-capacity Merkle authentication path, shared with the sender-side
/// tree emitter ([`alpha_crypto::merkle::MerkleTree::auth_path_into`]).
pub use alpha_crypto::merkle::DigestPath;

/// A borrowed run of Merkle-forest tree descriptors (`u32` leaves +
/// root digest each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSlice<'a> {
    alg: Algorithm,
    count: usize,
    bytes: &'a [u8],
}

impl<'a> TreeSlice<'a> {
    /// Number of trees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when there are no trees (never produced by `parse`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the tree descriptors in order.
    pub fn iter(&self) -> impl Iterator<Item = TreeDescriptor> + 'a {
        let alg = self.alg;
        self.bytes.chunks_exact(4 + alg.digest_len()).map(|c| {
            let leaves = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
            TreeDescriptor {
                root: Digest::from_slice(&c[4..]),
                leaves,
            }
        })
    }

    /// Copy into an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TreeDescriptor> {
        self.iter().collect()
    }

    /// Total leaves across the forest.
    #[must_use]
    pub fn covered(&self) -> u32 {
        self.iter().map(|t| t.leaves).sum()
    }
}

/// Borrowed pre-signature material of an S1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreSignatureView<'a> {
    /// One MAC per covered message, borrowed from the datagram.
    Cumulative(DigestSlice<'a>),
    /// A single keyed Merkle root.
    MerkleRoot {
        /// Keyed root `H(h | b0 | b1)`.
        root: Digest,
        /// Number of real leaves.
        leaves: u32,
    },
    /// Multiple keyed roots (ALPHA-C + ALPHA-M combination).
    MerkleForest(TreeSlice<'a>),
}

impl PreSignatureView<'_> {
    /// Number of messages this pre-signature covers.
    #[must_use]
    pub fn covered(&self) -> u32 {
        match self {
            PreSignatureView::Cumulative(macs) => macs.len() as u32,
            PreSignatureView::MerkleRoot { leaves, .. } => *leaves,
            PreSignatureView::MerkleForest(trees) => trees.covered(),
        }
    }

    /// Copy into the owned representation.
    #[must_use]
    pub fn to_presignature(&self) -> PreSignature {
        match self {
            PreSignatureView::Cumulative(macs) => PreSignature::Cumulative(macs.to_vec()),
            PreSignatureView::MerkleRoot { root, leaves } => PreSignature::MerkleRoot {
                root: *root,
                leaves: *leaves,
            },
            PreSignatureView::MerkleForest(trees) => PreSignature::MerkleForest(trees.to_vec()),
        }
    }
}

/// A borrowed run of AMT verdict disclosures (variable-width items,
/// validated during parse; iteration re-walks the bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmtSlice<'a> {
    alg: Algorithm,
    count: usize,
    bytes: &'a [u8],
}

impl<'a> AmtSlice<'a> {
    /// Number of disclosures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when there are no disclosures (never produced by `parse`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the disclosures, copying each into its owned form (A2
    /// processing is off the hot path).
    pub fn iter(&self) -> impl Iterator<Item = AmtDisclosure> + 'a {
        let alg = self.alg;
        let mut r = Reader::new(self.bytes);
        (0..self.count).map_while(move |_| parse_amt_item(&mut r, alg).ok())
    }

    /// Copy into an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<AmtDisclosure> {
        self.iter().collect()
    }

    /// Iterate the disclosures in place: each item's path stays borrowed
    /// from the datagram, so a walk allocates nothing.
    pub fn items(&self) -> impl Iterator<Item = AmtItemView<'a>> + 'a {
        let alg = self.alg;
        let mut r = Reader::new(self.bytes);
        (0..self.count).map_while(move |_| {
            let (packet_index, ack, secret, path_len) = amt_item_head(&mut r).ok()?;
            let path = r.take(path_len * alg.digest_len()).ok()?;
            Some(AmtItemView {
                packet_index,
                ack,
                secret,
                path: DigestSlice::new(alg, path_len, path),
            })
        })
    }
}

/// One AMT verdict disclosure of an A2, read in place
/// ([`AmtSlice::items`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmtItemView<'a> {
    /// Packet index within the covered bundle.
    pub packet_index: u32,
    /// `true` = acknowledged.
    pub ack: bool,
    /// The disclosed leaf secret.
    pub secret: [u8; SECRET_LEN],
    /// Authentication path, borrowed.
    pub path: DigestSlice<'a>,
}

/// Borrowed verdict disclosure of an A2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum A2DisclosureView<'a> {
    /// Flat pre-(n)ack disclosure.
    Flat {
        /// `true` = ack, `false` = nack.
        ack: bool,
        /// The disclosed secret.
        secret: [u8; SECRET_LEN],
    },
    /// AMT verdict disclosures.
    Amt(AmtSlice<'a>),
}

impl A2DisclosureView<'_> {
    /// Copy into the owned representation.
    #[must_use]
    pub fn to_disclosure(&self) -> A2Disclosure {
        match self {
            A2DisclosureView::Flat { ack, secret } => A2Disclosure::Flat {
                ack: *ack,
                secret: *secret,
            },
            A2DisclosureView::Amt(items) => A2Disclosure::Amt(items.to_vec()),
        }
    }
}

/// Borrowed optional public-key authentication of a handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeAuthView<'a> {
    /// Scheme tag (mirrors `alpha_pk::PublicKey`).
    pub scheme: u8,
    /// Serialized public key, borrowed.
    pub public_key: &'a [u8],
    /// Signature over the anchor fields, borrowed.
    pub signature: &'a [u8],
}

/// Borrowed bootstrap handshake body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeView<'a> {
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
    pub auth: Option<HandshakeAuthView<'a>>,
}

impl HandshakeView<'_> {
    /// The byte string a protected bootstrap signs
    /// ([`Handshake::signed_bytes`]).
    #[must_use]
    pub fn signed_bytes(&self, assoc_id: u64) -> Vec<u8> {
        let anchors = Handshake {
            role: self.role,
            sig_anchor: self.sig_anchor,
            sig_anchor_index: self.sig_anchor_index,
            ack_anchor: self.ack_anchor,
            ack_anchor_index: self.ack_anchor_index,
            auth: None,
        };
        anchors.signed_bytes(assoc_id)
    }

    /// Copy into the owned representation.
    #[must_use]
    pub fn to_handshake(&self) -> Handshake {
        Handshake {
            role: self.role,
            sig_anchor: self.sig_anchor,
            sig_anchor_index: self.sig_anchor_index,
            ack_anchor: self.ack_anchor,
            ack_anchor_index: self.ack_anchor_index,
            auth: self.auth.map(|a| HandshakeAuth {
                scheme: a.scheme,
                public_key: a.public_key.to_vec(),
                signature: a.signature.to_vec(),
            }),
        }
    }
}

/// Borrowed packet bodies, one per [`PacketType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyView<'a> {
    /// S1: fresh chain element + pre-signature(s).
    S1 {
        /// Announce-role signature-chain element.
        element: Digest,
        /// Pre-signature material, borrowed.
        presig: PreSignatureView<'a>,
    },
    /// A1: fresh acknowledgment-chain element + optional commitments.
    A1 {
        /// Announce-role acknowledgment-chain element.
        element: Digest,
        /// Reliability commitment (fixed-size; held by value).
        commit: AckCommit,
    },
    /// S2: disclosed MAC key + one message.
    S2 {
        /// Disclosed signature-chain element (the MAC key).
        key: Digest,
        /// Message index within the covered bundle.
        seq: u32,
        /// Merkle authentication path, borrowed.
        path: DigestSlice<'a>,
        /// The protected message, borrowed.
        payload: &'a [u8],
    },
    /// A2: disclosed acknowledgment-chain element + verdict(s).
    A2 {
        /// Disclosed acknowledgment-chain element.
        element: Digest,
        /// Verdict disclosure, borrowed.
        disclosure: A2DisclosureView<'a>,
    },
    /// HS1/HS2: bootstrap handshake.
    Handshake(HandshakeView<'a>),
}

/// A borrowed decode of a complete ALPHA packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Association identifier.
    pub assoc_id: u64,
    /// Hash algorithm of every digest in the packet.
    pub alg: Algorithm,
    /// Chain position of the carried element (0 for handshakes).
    pub chain_index: u64,
    /// Type-specific body, borrowing from the datagram.
    pub body: BodyView<'a>,
}

impl<'a> PacketView<'a> {
    /// The packet's type tag.
    #[must_use]
    pub fn packet_type(&self) -> PacketType {
        match &self.body {
            BodyView::S1 { .. } => PacketType::S1,
            BodyView::A1 { .. } => PacketType::A1,
            BodyView::S2 { .. } => PacketType::S2,
            BodyView::A2 { .. } => PacketType::A2,
            BodyView::Handshake(h) => match h.role {
                HandshakeRole::Init => PacketType::Hs1,
                HandshakeRole::Reply => PacketType::Hs2,
            },
        }
    }

    /// Copy into the owned representation — this is where (and only
    /// where) the deferred allocations happen.
    #[must_use]
    pub fn to_packet(&self) -> Packet {
        let body = match &self.body {
            BodyView::S1 { element, presig } => Body::S1 {
                element: *element,
                presig: presig.to_presignature(),
            },
            BodyView::A1 { element, commit } => Body::A1 {
                element: *element,
                commit: *commit,
            },
            BodyView::S2 {
                key,
                seq,
                path,
                payload,
            } => Body::S2 {
                key: *key,
                seq: *seq,
                path: path.to_vec(),
                payload: payload.to_vec(),
            },
            BodyView::A2 {
                element,
                disclosure,
            } => Body::A2 {
                element: *element,
                disclosure: disclosure.to_disclosure(),
            },
            BodyView::Handshake(h) => Body::Handshake(h.to_handshake()),
        };
        Packet {
            assoc_id: self.assoc_id,
            alg: self.alg,
            chain_index: self.chain_index,
            body,
        }
    }

    /// Parse a packet without copying variable-length regions or
    /// allocating; rejects any malformed, oversized, or trailing input.
    pub fn parse(buf: &'a [u8]) -> Result<PacketView<'a>, Error> {
        let mut r = Reader::new(buf);
        if r.u16()? != crate::packet::MAGIC {
            return Err(Error::BadMagic);
        }
        let version = r.u8()?;
        if version != crate::packet::VERSION {
            return Err(Error::BadVersion(version));
        }
        let ptype = r.u8()?;
        let alg = parse_alg(r.u8()?)?;
        let assoc_id = r.u64()?;
        let chain_index = r.u64()?;
        let dl = alg.digest_len();
        let body = match ptype {
            1 => {
                let element = r.digest(alg)?;
                let presig = match r.u8()? {
                    1 => {
                        let count = r.u16()? as usize;
                        if count == 0 || count > limits::MAX_PRESIGS {
                            return Err(Error::LimitExceeded);
                        }
                        let bytes = r.take(count * dl)?;
                        PreSignatureView::Cumulative(DigestSlice::new(alg, count, bytes))
                    }
                    2 => {
                        let leaves = r.u32()?;
                        if leaves == 0 || leaves > limits::MAX_LEAVES {
                            return Err(Error::LimitExceeded);
                        }
                        PreSignatureView::MerkleRoot {
                            root: r.digest(alg)?,
                            leaves,
                        }
                    }
                    3 => {
                        let count = r.u16()? as usize;
                        if count == 0 || count > limits::MAX_PRESIGS {
                            return Err(Error::LimitExceeded);
                        }
                        // Walk (and validate) the descriptors one by one,
                        // then keep the raw region.
                        let start = buf.len() - r.remaining();
                        let mut total: u64 = 0;
                        for _ in 0..count {
                            let leaves = r.u32()?;
                            if leaves == 0 {
                                return Err(Error::Malformed);
                            }
                            total += u64::from(leaves);
                            if total > u64::from(limits::MAX_LEAVES) {
                                return Err(Error::LimitExceeded);
                            }
                            r.take(dl)?;
                        }
                        let end = buf.len() - r.remaining();
                        PreSignatureView::MerkleForest(TreeSlice {
                            alg,
                            count,
                            bytes: &buf[start..end],
                        })
                    }
                    d => return Err(Error::BadDiscriminant(d)),
                };
                BodyView::S1 { element, presig }
            }
            2 => {
                let element = r.digest(alg)?;
                let commit = match r.u8()? {
                    0 => AckCommit::None,
                    1 => AckCommit::Flat {
                        pre_ack: r.digest(alg)?,
                        pre_nack: r.digest(alg)?,
                    },
                    2 => {
                        let leaves = r.u32()?;
                        if leaves == 0 || leaves > limits::MAX_LEAVES {
                            return Err(Error::LimitExceeded);
                        }
                        AckCommit::Amt {
                            root: r.digest(alg)?,
                            leaves,
                        }
                    }
                    d => return Err(Error::BadDiscriminant(d)),
                };
                BodyView::A1 { element, commit }
            }
            3 => {
                let key = r.digest(alg)?;
                let seq = r.u32()?;
                let path_len = r.u8()? as usize;
                if path_len > limits::MAX_PATH {
                    return Err(Error::LimitExceeded);
                }
                let path_bytes = r.take(path_len * dl)?;
                let payload_len = r.u16()? as usize;
                if payload_len > limits::MAX_PAYLOAD {
                    return Err(Error::LimitExceeded);
                }
                let payload = r.take(payload_len)?;
                BodyView::S2 {
                    key,
                    seq,
                    path: DigestSlice::new(alg, path_len, path_bytes),
                    payload,
                }
            }
            4 => {
                let element = r.digest(alg)?;
                let disclosure = match r.u8()? {
                    1 => {
                        let ack = parse_bool(r.u8()?)?;
                        let mut secret = [0u8; SECRET_LEN];
                        secret.copy_from_slice(r.take(SECRET_LEN)?);
                        A2DisclosureView::Flat { ack, secret }
                    }
                    2 => {
                        let count = r.u16()? as usize;
                        if count == 0 || count > limits::MAX_DISCLOSURES {
                            return Err(Error::LimitExceeded);
                        }
                        // Validate every item once, by length — a relay
                        // may reject this packet on its chain element, so
                        // nothing is materialised here; iteration re-walks
                        // the kept region.
                        let start = buf.len() - r.remaining();
                        for _ in 0..count {
                            let (.., path_len) = amt_item_head(&mut r)?;
                            r.take(path_len * dl)?;
                        }
                        let end = buf.len() - r.remaining();
                        A2DisclosureView::Amt(AmtSlice {
                            alg,
                            count,
                            bytes: &buf[start..end],
                        })
                    }
                    d => return Err(Error::BadDiscriminant(d)),
                };
                BodyView::A2 {
                    element,
                    disclosure,
                }
            }
            t @ (5 | 6) => {
                let sig_anchor_index = r.u64()?;
                let sig_anchor = r.digest(alg)?;
                let ack_anchor_index = r.u64()?;
                let ack_anchor = r.digest(alg)?;
                let auth = match r.u8()? {
                    0 => None,
                    1 => {
                        let scheme = r.u8()?;
                        let klen = r.u16()? as usize;
                        if klen > limits::MAX_AUTH_BLOB {
                            return Err(Error::LimitExceeded);
                        }
                        let public_key = r.take(klen)?;
                        let slen = r.u16()? as usize;
                        if slen > limits::MAX_AUTH_BLOB {
                            return Err(Error::LimitExceeded);
                        }
                        let signature = r.take(slen)?;
                        Some(HandshakeAuthView {
                            scheme,
                            public_key,
                            signature,
                        })
                    }
                    d => return Err(Error::BadDiscriminant(d)),
                };
                BodyView::Handshake(HandshakeView {
                    role: if t == 5 {
                        HandshakeRole::Init
                    } else {
                        HandshakeRole::Reply
                    },
                    sig_anchor,
                    sig_anchor_index,
                    ack_anchor,
                    ack_anchor_index,
                    auth,
                })
            }
            t => return Err(Error::UnknownType(t)),
        };
        r.finish()?;
        Ok(PacketView {
            assoc_id,
            alg,
            chain_index,
            body,
        })
    }
}

fn parse_alg(tag: u8) -> Result<Algorithm, Error> {
    match tag {
        1 => Ok(Algorithm::Sha1),
        2 => Ok(Algorithm::Sha256),
        3 => Ok(Algorithm::MmoAes),
        t => Err(Error::UnknownAlgorithm(t)),
    }
}

fn parse_bool(b: u8) -> Result<bool, Error> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        d => Err(Error::BadDiscriminant(d)),
    }
}

/// The fixed fields of one AMT disclosure item — packet index, verdict
/// flag, secret — and the length of the path that follows them.
fn amt_item_head(r: &mut Reader<'_>) -> Result<(u32, bool, [u8; SECRET_LEN], usize), Error> {
    let packet_index = r.u32()?;
    let ack = parse_bool(r.u8()?)?;
    let mut secret = [0u8; SECRET_LEN];
    secret.copy_from_slice(r.take(SECRET_LEN)?);
    let path_len = r.u8()? as usize;
    if path_len > limits::MAX_PATH {
        return Err(Error::LimitExceeded);
    }
    Ok((packet_index, ack, secret, path_len))
}

/// Copy one AMT disclosure item out of a region [`PacketView::parse`]
/// already validated ([`AmtSlice::iter`]).
fn parse_amt_item(r: &mut Reader<'_>, alg: Algorithm) -> Result<AmtDisclosure, Error> {
    let (packet_index, ack, secret, path_len) = amt_item_head(r)?;
    Ok(AmtDisclosure {
        packet_index,
        ack,
        secret,
        path: r.digests(alg, path_len)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PreSignature;

    fn d(alg: Algorithm, s: &str) -> Digest {
        alg.hash(s.as_bytes())
    }

    fn view_agrees(p: &Packet) {
        let bytes = p.emit();
        let v = PacketView::parse(&bytes).expect("view parses");
        assert_eq!(&v.to_packet(), p);
        assert_eq!(v.packet_type(), p.packet_type());
    }

    #[test]
    fn views_agree_with_owned_decode() {
        let alg = Algorithm::Sha1;
        view_agrees(&Packet {
            assoc_id: 7,
            alg,
            chain_index: 15,
            body: Body::S1 {
                element: d(alg, "el"),
                presig: PreSignature::Cumulative(vec![d(alg, "m1"), d(alg, "m2")]),
            },
        });
        view_agrees(&Packet {
            assoc_id: 7,
            alg,
            chain_index: 15,
            body: Body::S1 {
                element: d(alg, "el"),
                presig: PreSignature::MerkleForest(vec![
                    TreeDescriptor {
                        root: d(alg, "t0"),
                        leaves: 4,
                    },
                    TreeDescriptor {
                        root: d(alg, "t1"),
                        leaves: 8,
                    },
                ]),
            },
        });
        view_agrees(&Packet {
            assoc_id: 2,
            alg,
            chain_index: 14,
            body: Body::S2 {
                key: d(alg, "key"),
                seq: 3,
                path: vec![d(alg, "p0"), d(alg, "p1")],
                payload: b"message".to_vec(),
            },
        });
        view_agrees(&Packet {
            assoc_id: 3,
            alg,
            chain_index: 8,
            body: Body::A2 {
                element: d(alg, "ae"),
                disclosure: A2Disclosure::Amt(vec![AmtDisclosure {
                    packet_index: 1,
                    ack: true,
                    secret: [7u8; SECRET_LEN],
                    path: vec![d(alg, "x")],
                }]),
            },
        });
        view_agrees(&Packet {
            assoc_id: 4,
            alg,
            chain_index: 0,
            body: Body::Handshake(Handshake {
                role: HandshakeRole::Reply,
                sig_anchor: d(alg, "sa"),
                sig_anchor_index: 100,
                ack_anchor: d(alg, "aa"),
                ack_anchor_index: 100,
                auth: Some(HandshakeAuth {
                    scheme: 1,
                    public_key: vec![4u8; 32],
                    signature: vec![5u8; 40],
                }),
            }),
        });
    }

    #[test]
    fn s2_view_borrows_payload_and_path() {
        let alg = Algorithm::Sha256;
        let p = Packet {
            assoc_id: 9,
            alg,
            chain_index: 5,
            body: Body::S2 {
                key: d(alg, "k"),
                seq: 1,
                path: vec![d(alg, "p0"), d(alg, "p1"), d(alg, "p2")],
                payload: b"zero copy".to_vec(),
            },
        };
        let bytes = p.emit();
        let v = PacketView::parse(&bytes).unwrap();
        let BodyView::S2 { path, payload, .. } = v.body else {
            panic!("S2 view");
        };
        assert_eq!(payload, b"zero copy");
        // Borrowed region sits inside the original buffer.
        let buf_range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(buf_range.contains(&(payload.as_ptr() as usize)));
        assert_eq!(path.len(), 3);
        assert_eq!(path.get(2).unwrap(), d(alg, "p2"));
        assert!(path.get(3).is_none());
        let siblings = path.siblings();
        assert_eq!(siblings.len(), 3);
        assert_eq!(siblings.get(1), d(alg, "p1").as_bytes());
        assert!(buf_range.contains(&(siblings.get(0).as_ptr() as usize)));
        let stack = path.to_path();
        assert_eq!(
            stack.as_slice(),
            &[d(alg, "p0"), d(alg, "p1"), d(alg, "p2")]
        );
    }

    #[test]
    fn amt_items_are_validated_by_length_with_the_decoder_errors() {
        let alg = Algorithm::Sha1;
        let items: Vec<AmtDisclosure> = (0..3u32)
            .map(|i| AmtDisclosure {
                packet_index: i,
                ack: i % 2 == 0,
                secret: [i as u8; SECRET_LEN],
                path: (0..i).map(|j| d(alg, &format!("p{i}{j}"))).collect(),
            })
            .collect();
        let bytes = Packet {
            assoc_id: 1,
            alg,
            chain_index: 5,
            body: Body::A2 {
                element: d(alg, "e"),
                disclosure: A2Disclosure::Amt(items.clone()),
            },
        }
        .emit();
        let BodyView::A2 {
            disclosure: A2DisclosureView::Amt(slice),
            ..
        } = PacketView::parse(&bytes).unwrap().body
        else {
            panic!("AMT view");
        };
        assert_eq!(slice.len(), 3);
        assert_eq!(slice.to_vec(), items);
        for cut in 0..bytes.len() {
            assert_eq!(
                PacketView::parse(&bytes[..cut]).unwrap_err(),
                Error::Truncated,
                "cut={cut}"
            );
        }
        // First item: header 21 + element 20 + tag 1 + count 2, then
        // index 4, verdict flag 1, secret 16, path length 1.
        let flag = 21 + 20 + 1 + 2 + 4;
        let mut bad = bytes.clone();
        bad[flag] = 2;
        assert_eq!(PacketView::parse(&bad), Err(Error::BadDiscriminant(2)));
        let path_len = flag + 1 + SECRET_LEN;
        let mut bad = bytes.clone();
        bad[path_len] = (limits::MAX_PATH + 1) as u8;
        assert_eq!(PacketView::parse(&bad), Err(Error::LimitExceeded));
        // A longer (in-limit) path than the bytes hold is a truncation,
        // not an allocation.
        bad[path_len] = limits::MAX_PATH as u8;
        assert_eq!(PacketView::parse(&bad), Err(Error::Truncated));
    }
}
