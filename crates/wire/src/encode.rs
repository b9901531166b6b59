//! The crate's one encoder, field by field: each function appends one
//! packet of its type to a caller's buffer, from fields however the
//! caller holds them. [`Packet::encode_into`](crate::Packet::encode_into)
//! is these functions over an owned packet's fields; the protocol
//! machines call them directly, so a packet is encoded where it is made
//! and never built as an owned [`Packet`](crate::Packet) first.
//!
//! [`PacketList`] is what they encode into on the hot path: packets back
//! to back in one buffer.

use alpha_crypto::amt::SECRET_LEN;
use alpha_crypto::{Algorithm, Digest};

use crate::cursor::Writer;
use crate::packet::{alg_tag, PacketType, MAGIC, VERSION};
use crate::{AckCommit, PreSignature};

/// Bytes of the header every packet starts with: magic 2, version 1,
/// type 1, algorithm 1, association id 8, chain index 8.
pub(crate) const HEADER: usize = 21;

/// The [`HEADER`] every packet starts with.
pub(crate) fn header(
    w: &mut Writer<'_>,
    ptype: PacketType,
    alg: Algorithm,
    assoc_id: u64,
    chain_index: u64,
) {
    w.u16(MAGIC);
    w.u8(VERSION);
    w.u8(ptype as u8);
    w.u8(alg_tag(alg));
    w.u64(assoc_id);
    w.u64(chain_index);
}

/// Append an S1: the announce element and the pre-signature.
pub fn s1(
    out: &mut Vec<u8>,
    alg: Algorithm,
    assoc_id: u64,
    chain_index: u64,
    element: &Digest,
    presig: &PreSignature,
) {
    let mut w = Writer::new(out);
    header(&mut w, PacketType::S1, alg, assoc_id, chain_index);
    w.digest(element);
    match presig {
        PreSignature::Cumulative(macs) => {
            w.u8(1);
            w.u16(macs.len() as u16);
            for m in macs {
                w.digest(m);
            }
        }
        PreSignature::MerkleRoot { root, leaves } => {
            w.u8(2);
            w.u32(*leaves);
            w.digest(root);
        }
        PreSignature::MerkleForest(trees) => {
            w.u8(3);
            w.u16(trees.len() as u16);
            for t in trees {
                w.u32(t.leaves);
                w.digest(&t.root);
            }
        }
    }
}

/// Encoded length of an S1 carrying `presig`.
#[must_use]
pub fn s1_len(alg: Algorithm, presig: &PreSignature) -> usize {
    let dl = alg.digest_len();
    HEADER
        + dl
        + 1
        + match presig {
            PreSignature::Cumulative(macs) => 2 + macs.len() * dl,
            PreSignature::MerkleRoot { .. } => 4 + dl,
            PreSignature::MerkleForest(trees) => 2 + trees.len() * (4 + dl),
        }
}

/// Append an A1: the announce element and the verdict commitment.
pub fn a1(
    out: &mut Vec<u8>,
    alg: Algorithm,
    assoc_id: u64,
    chain_index: u64,
    element: &Digest,
    commit: &AckCommit,
) {
    let mut w = Writer::new(out);
    header(&mut w, PacketType::A1, alg, assoc_id, chain_index);
    w.digest(element);
    match commit {
        AckCommit::None => w.u8(0),
        AckCommit::Flat { pre_ack, pre_nack } => {
            w.u8(1);
            w.digest(pre_ack);
            w.digest(pre_nack);
        }
        AckCommit::Amt { root, leaves } => {
            w.u8(2);
            w.u32(*leaves);
            w.digest(root);
        }
    }
}

/// Append an S2: the disclosed key, the sequence number, the
/// authentication path (empty outside ALPHA-M) and the payload.
#[allow(clippy::too_many_arguments)] // one S2's fields
pub fn s2(
    out: &mut Vec<u8>,
    alg: Algorithm,
    assoc_id: u64,
    chain_index: u64,
    key: &Digest,
    seq: u32,
    path: impl ExactSizeIterator<Item = Digest>,
    payload: &[u8],
) {
    let mut w = Writer::new(out);
    header(&mut w, PacketType::S2, alg, assoc_id, chain_index);
    w.digest(key);
    w.u32(seq);
    w.u8(path.len() as u8);
    for p in path {
        w.digest(&p);
    }
    w.u16(payload.len() as u16);
    w.bytes(payload);
}

/// Encoded length of an S2 with a path of `path_len` siblings and a
/// payload of `payload_len` bytes.
#[must_use]
pub fn s2_len(alg: Algorithm, path_len: usize, payload_len: usize) -> usize {
    let dl = alg.digest_len();
    HEADER + dl + 4 + 1 + path_len * dl + 2 + payload_len
}

/// Append an A2 disclosing a flat pre-(n)ack.
pub fn a2_flat(
    out: &mut Vec<u8>,
    alg: Algorithm,
    assoc_id: u64,
    chain_index: u64,
    element: &Digest,
    ack: bool,
    secret: &[u8; SECRET_LEN],
) {
    let mut w = Writer::new(out);
    header(&mut w, PacketType::A2, alg, assoc_id, chain_index);
    w.digest(element);
    w.u8(1);
    w.u8(u8::from(ack));
    w.bytes(secret);
}

/// One AMT verdict of an A2, as [`a2_amt`] writes it.
#[derive(Debug, Clone, Copy)]
pub struct AmtItem<'a> {
    /// Packet index within the covered bundle.
    pub packet_index: u32,
    /// `true` = acknowledged.
    pub ack: bool,
    /// The disclosed leaf secret.
    pub secret: &'a [u8; SECRET_LEN],
    /// Authentication path to the children of the keyed root.
    pub path: &'a [Digest],
}

/// Append an A2 disclosing AMT verdicts, one per item.
pub fn a2_amt<'a>(
    out: &mut Vec<u8>,
    alg: Algorithm,
    assoc_id: u64,
    chain_index: u64,
    element: &Digest,
    items: impl ExactSizeIterator<Item = AmtItem<'a>>,
) {
    let mut w = Writer::new(out);
    header(&mut w, PacketType::A2, alg, assoc_id, chain_index);
    w.digest(element);
    w.u8(2);
    w.u16(items.len() as u16);
    for it in items {
        w.u32(it.packet_index);
        w.u8(u8::from(it.ack));
        w.bytes(it.secret);
        w.u8(it.path.len() as u8);
        for p in it.path {
            w.digest(p);
        }
    }
}

/// Encoded packets back to back in one buffer, each packet's end
/// recorded: what the protocol machines encode into, and what the engine
/// bundles from. [`PacketList::clear`] keeps both allocations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PacketList {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl PacketList {
    /// Make room for `packets` more packets of `bytes` more bytes.
    pub fn reserve(&mut self, packets: usize, bytes: usize) {
        self.ends.reserve(packets);
        self.bytes.reserve(bytes);
    }

    /// Append one packet, encoded by `write` onto the end of the buffer.
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        write(&mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// Append a copy of one encoded packet.
    pub fn push(&mut self, packet: &[u8]) {
        self.push_with(|out| out.extend_from_slice(packet));
    }

    /// Number of packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the list holds no packet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Packet `i`'s bytes.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.bytes[start..end])
    }

    /// The last packet's bytes (empty when there is none).
    #[must_use]
    pub fn last(&self) -> &[u8] {
        self.len()
            .checked_sub(1)
            .and_then(|i| self.get(i))
            .unwrap_or(&[])
    }

    /// Forget every packet, keeping the buffers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }
}
