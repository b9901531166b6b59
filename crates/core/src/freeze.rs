//! Freezing an idle association into a compact record and thawing it back.
//!
//! A hibernated flow keeps what cannot be re-derived — chain cursors and
//! the seed hash (the [`alpha_crypto::chain::FrozenChain`] form — no
//! element vectors), the peer-chain verifier positions, and, when the
//! flow slept mid-bundle, the verifier's buffered exchange(s) including
//! pre-signatures and undisclosed acknowledgment secrets — plus two
//! digests per chain that could be: the checkpoint under its cursor, so
//! that waking hashes nothing before the datagram that caused it has been
//! verified, and the super-checkpoint below it, so that the next freeze
//! past a checkpoint boundary does not walk from the seed. Thawing
//! rebuilds the full channel state machines; every subsequent packet
//! takes exactly the decisions a never-frozen association would have
//! taken.
//!
//! The signer side must be idle (no exchange outstanding) to freeze: an
//! in-flight S1/S2 burst holds message payloads and Merkle trees whose
//! retransmission timers are about to fire anyway, so the engine simply
//! does not hibernate such a flow. The verifier side freezes mid-bundle —
//! a silent sender must not pin its receiver's full state in memory. A
//! buffered exchange has one form, asleep or awake: the record holds the
//! verifier's own `BufferedExchange`, and only the
//! byte layout differs — an AMT is written as its leaf secrets, and
//! decoding rebuilds the tree.
//!
//! Records serialize to a private, versioned byte layout via
//! [`FrozenAssociation::encode`], stated once: the same writer fills the
//! record and, counting instead, sizes it
//! ([`FrozenAssociation::encoded_len`]). [`FrozenAssociation::decode`] is
//! total (returns `None` on any malformed input) so a corrupt record can
//! never panic the engine.

use alpha_crypto::amt::AckMerkleTree;
use alpha_crypto::chain::{ChainKind, FrozenChain};
use alpha_crypto::preack::{PreAckPair, PreAckSecrets, SECRET_LEN};
use alpha_crypto::{Algorithm, Digest};
use alpha_wire::{Packet, PreSignature, TreeDescriptor};

use crate::exchange::{Announced, Presig};
use crate::verifier::{AckState, BufferedExchange};
use crate::Timestamp;

/// Frozen form of a [`crate::SignerChannel`] (idle channels only).
pub struct FrozenSigner {
    pub(crate) chain: FrozenChain,
    pub(crate) peer_ack_index: u64,
    pub(crate) peer_ack_last: Digest,
    /// The adaptively tuned RTO survives hibernation: the path estimate is
    /// better than the configured constant even after a long sleep.
    pub(crate) rto_micros: u64,
}

/// Frozen form of a [`crate::VerifierChannel`]. Its buffered exchanges
/// are the channel's own, as they were when it froze.
pub struct FrozenVerifier {
    pub(crate) ack_chain: FrozenChain,
    pub(crate) peer_sig_index: u64,
    pub(crate) peer_sig_last: Digest,
    pub(crate) accepting: bool,
    pub(crate) current: Option<BufferedExchange>,
    pub(crate) previous: Option<BufferedExchange>,
}

/// A whole association, frozen. Build with [`crate::Association::freeze`],
/// revive with [`crate::Association::thaw`].
pub struct FrozenAssociation {
    pub(crate) assoc_id: u64,
    pub(crate) alg: Algorithm,
    pub(crate) signer: FrozenSigner,
    pub(crate) verifier: FrozenVerifier,
}

/// Byte-layout version tag; bump on any layout change (the chains'
/// included: [`FrozenChain::encode_into`] owns theirs). Version 2 added
/// the optional checkpoint to each chain, 3 the super-checkpoint. Every
/// chain now carries its checkpoint, and a version-3 chain record
/// without one is refused rather than re-versioned: nothing writes it,
/// and records live only in memory, never across a restart.
const VERSION: u8 = 3;

impl FrozenAssociation {
    /// Association identifier of the frozen flow.
    #[must_use]
    pub fn assoc_id(&self) -> u64 {
        self.assoc_id
    }

    /// Hash algorithm the flow runs on.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.alg
    }

    /// Serialize to the compact record held by the hibernation store.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Length of the record [`FrozenAssociation::encode`] returns: a
    /// buffer with this much spare capacity takes
    /// [`FrozenAssociation::encode_into`] without growing. The encoder
    /// itself, counting instead of writing.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let mut count = Count(0);
        self.write(&mut count);
        count.0
    }

    /// Append the record [`FrozenAssociation::encode`] returns to `out`.
    /// Allocates nothing when `out` has [`FrozenAssociation::encoded_len`]
    /// bytes to spare.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    /// The record layout, the one place it is written down.
    fn write(&self, w: &mut impl Sink) {
        w.u8(VERSION);
        w.u8(alg_code(self.alg));
        w.u64(self.assoc_id);
        w.chain(&self.signer.chain);
        w.u64(self.signer.peer_ack_index);
        w.digest(&self.signer.peer_ack_last);
        w.u64(self.signer.rto_micros);
        w.chain(&self.verifier.ack_chain);
        w.u64(self.verifier.peer_sig_index);
        w.digest(&self.verifier.peer_sig_last);
        w.u8(u8::from(self.verifier.accepting));
        write_opt_exchange(w, self.verifier.current.as_ref());
        write_opt_exchange(w, self.verifier.previous.as_ref());
    }

    /// Parse a record produced by [`FrozenAssociation::encode`]. Returns
    /// `None` on any structural problem — truncation, bad tags, trailing
    /// bytes — rather than panicking.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<FrozenAssociation> {
        let mut r = Reader::new(bytes);
        if r.u8()? != VERSION {
            return None;
        }
        let alg = alg_from_code(r.u8()?)?;
        let assoc_id = r.u64()?;
        let chain = FrozenChain::decode(&mut r.buf, alg, ChainKind::RoleBoundSignature)?;
        let peer_ack_index = r.u64()?;
        let peer_ack_last = r.digest(alg)?;
        let rto_micros = r.u64()?;
        let signer = FrozenSigner {
            chain,
            peer_ack_index,
            peer_ack_last,
            rto_micros,
        };
        let ack_chain = FrozenChain::decode(&mut r.buf, alg, ChainKind::RoleBoundAck)?;
        let peer_sig_index = r.u64()?;
        let peer_sig_last = r.digest(alg)?;
        let accepting = r.bool()?;
        let current = decode_opt_exchange(&mut r, alg)?;
        let previous = decode_opt_exchange(&mut r, alg)?;
        if !r.done() {
            return None;
        }
        Some(FrozenAssociation {
            assoc_id,
            alg,
            signer,
            verifier: FrozenVerifier {
                ack_chain,
                peer_sig_index,
                peer_sig_last,
                accepting,
                current,
                previous,
            },
        })
    }
}

fn alg_code(alg: Algorithm) -> u8 {
    match alg {
        Algorithm::Sha1 => 0,
        Algorithm::Sha256 => 1,
        Algorithm::MmoAes => 2,
    }
}

fn alg_from_code(code: u8) -> Option<Algorithm> {
    match code {
        0 => Some(Algorithm::Sha1),
        1 => Some(Algorithm::Sha256),
        2 => Some(Algorithm::MmoAes),
        _ => None,
    }
}

fn write_opt_exchange(w: &mut impl Sink, ex: Option<&BufferedExchange>) {
    let Some(ex) = ex else {
        w.u8(0);
        return;
    };
    w.u8(1);
    w.u64(ex.s1.index);
    w.digest(&ex.s1.announce);
    match ex.s1.presig.wire() {
        PreSignature::Cumulative(macs) => {
            w.u8(0);
            w.u32(macs.len() as u32);
            for m in macs {
                w.digest(m);
            }
        }
        PreSignature::MerkleRoot { root, leaves } => {
            w.u8(1);
            w.digest(root);
            w.u32(*leaves);
        }
        PreSignature::MerkleForest(trees) => {
            w.u8(2);
            w.u32(trees.len() as u32);
            for t in trees {
                w.digest(&t.root);
                w.u32(t.leaves);
            }
            // The leaves per tree, which is the first tree's count.
            w.u32(trees.first().map_or(0, |t| t.leaves));
        }
    }
    w.u32(ex.a1.wire_len() as u32);
    w.packet(&ex.a1);
    w.u64(ex.ack_key_index);
    w.digest(&ex.ack_key);
    match &ex.ack {
        AckState::None => w.u8(0),
        AckState::Flat {
            pair,
            secrets,
            verdict_sent,
        } => {
            w.u8(1);
            w.digest(&pair.pre_ack);
            w.digest(&pair.pre_nack);
            w.bytes(&secrets.to_bytes());
            w.u8(u8::from(*verdict_sent));
        }
        // The tree is a function of its leaf secrets: only they are kept,
        // and decoding rebuilds it.
        AckState::Amt(amt) => {
            w.u8(2);
            w.u32(amt.secrets().len() as u32);
            for s in amt.secrets() {
                w.bytes(s);
            }
        }
    }
    // The received bitmap: message i is bit i % 8 of byte i / 8.
    w.u32(ex.received().len() as u32);
    for flags in ex.received().chunks(8) {
        let byte = flags
            .iter()
            .enumerate()
            .fold(0u8, |byte, (bit, &got)| byte | u8::from(got) << bit);
        w.u8(byte);
    }
    w.u64(ex.created_at.micros());
    match ex.first_s2_at {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            w.u64(t.micros());
        }
    }
    w.u64(ex.last_nack_at.micros());
}

fn decode_opt_exchange(r: &mut Reader<'_>, alg: Algorithm) -> Option<Option<BufferedExchange>> {
    match r.u8()? {
        0 => return Some(None),
        1 => {}
        _ => return None,
    }
    let index = r.u64()?;
    let announce = r.digest(alg)?;
    let presig = match r.u8()? {
        0 => {
            let n = r.u32()? as usize;
            if n > alpha_wire::limits::MAX_LEAVES as usize {
                return None;
            }
            let h = alg.digest_len();
            let macs = r.take(n * h)?.chunks_exact(h).map(Digest::from_slice);
            PreSignature::Cumulative(macs.collect())
        }
        1 => {
            let root = r.digest(alg)?;
            let leaves = r.u32()?;
            PreSignature::MerkleRoot { root, leaves }
        }
        2 => {
            let n = r.u32()? as usize;
            if n > alpha_wire::limits::MAX_PRESIGS {
                return None;
            }
            let h = alg.digest_len();
            let trees: Vec<_> = r
                .take(n * (h + 4))?
                .chunks_exact(h + 4)
                .map(|t| TreeDescriptor {
                    root: Digest::from_slice(&t[..h]),
                    leaves: u32::from_be_bytes(t[h..].try_into().expect("4 bytes")),
                })
                .collect();
            if trees.first().map(|t| t.leaves) != Some(r.u32()?) {
                return None;
            }
            PreSignature::MerkleForest(trees)
        }
        _ => return None,
    };
    // The constructor an S1 goes through: thaw serves only what wire
    // intake would have buffered.
    let presig = Presig::new(presig)?;
    let a1_len = r.u32()? as usize;
    let a1 = Packet::parse(r.take(a1_len)?).ok()?;
    let ack_key_index = r.u64()?;
    let ack_key = r.digest(alg)?;
    let ack = match r.u8()? {
        0 => AckState::None,
        1 => {
            let pre_ack = r.digest(alg)?;
            let pre_nack = r.digest(alg)?;
            let secrets = PreAckSecrets::from_bytes(r.take(2 * SECRET_LEN)?.try_into().ok()?);
            let verdict_sent = r.bool()?;
            AckState::Flat {
                pair: PreAckPair { pre_ack, pre_nack },
                secrets,
                verdict_sent,
            }
        }
        2 => {
            let n = r.u32()? as usize;
            if n == 0 || !n.is_multiple_of(2) || n > 2 * alpha_wire::limits::MAX_LEAVES as usize {
                return None;
            }
            // Only the leaf secrets were kept: the tree is rebuilt.
            let secrets = r.take(n * SECRET_LEN)?.chunks_exact(SECRET_LEN);
            let secrets = secrets.map(|s| s.try_into().expect("SECRET_LEN bytes"));
            AckState::Amt(AckMerkleTree::from_secrets(alg, secrets.collect()))
        }
        _ => return None,
    };
    // One received flag per covered message, and — for an AMT — an ack
    // and a nack secret per message: what a thawed S2 or nack indexes.
    let covered = r.u32()? as usize;
    if covered != presig.covered()
        || covered > alpha_wire::limits::MAX_LEAVES as usize
        || matches!(&ack, AckState::Amt(amt) if amt.capacity() != covered)
    {
        return None;
    }
    let bits = r.take(covered.div_ceil(8))?;
    // The last byte's bits past `covered` are padding, written as zeros.
    let used = covered % 8;
    if bits
        .last()
        .is_some_and(|&last| used != 0 && last >> used != 0)
    {
        return None;
    }
    let received = (0..covered)
        .map(|i| bits[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    let created_at = Timestamp::from_micros(r.u64()?);
    let first_s2_at = match r.u8()? {
        0 => None,
        1 => Some(Timestamp::from_micros(r.u64()?)),
        _ => return None,
    };
    let last_nack_at = Timestamp::from_micros(r.u64()?);
    let s1 = Announced {
        index,
        announce,
        presig,
    };
    let mut ex = BufferedExchange::new(s1, a1, ack_key_index, ack_key, ack, received, created_at);
    ex.first_s2_at = first_s2_at;
    ex.last_nack_at = last_nack_at;
    Some(Some(ex))
}

/// Where [`FrozenAssociation::write`] puts the record: into a buffer,
/// or into a [`Count`] of its bytes.
trait Sink {
    fn bytes(&mut self, v: &[u8]);
    fn chain(&mut self, chain: &FrozenChain);
    fn packet(&mut self, pkt: &Packet);
    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }
    fn digest(&mut self, d: &Digest) {
        self.bytes(d.as_bytes());
    }
}

impl Sink for Vec<u8> {
    fn bytes(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
    fn chain(&mut self, chain: &FrozenChain) {
        chain.encode_into(self);
    }
    fn packet(&mut self, pkt: &Packet) {
        pkt.encode_into(self);
    }
}

/// A sink that only counts: [`FrozenAssociation::encoded_len`].
struct Count(usize);

impl Sink for Count {
    fn bytes(&mut self, v: &[u8]) {
        self.0 += v.len();
    }
    fn chain(&mut self, chain: &FrozenChain) {
        self.0 += chain.stored_bytes();
    }
    fn packet(&mut self, pkt: &Packet) {
        self.0 += pkt.wire_len();
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    /// A flag, written as 0 or 1: any other byte is refused.
    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }
    fn digest(&mut self, alg: Algorithm) -> Option<Digest> {
        self.take(alg.digest_len()).map(Digest::from_slice)
    }
    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Association, Config, Mode, Reliability};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A verifier asleep mid-bundle: four messages of `mode` announced
    /// under a reliable A1 (an AMT for ALPHA-M, a flat pre-(n)ack for
    /// ALPHA-C), the first one delivered.
    fn asleep(mode: Mode) -> FrozenAssociation {
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(64)
            .with_reliability(Reliability::Reliable);
        let (t, mut rng) = (Timestamp::ZERO, StdRng::seed_from_u64(7));
        let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
        let msgs: [&[u8]; 4] = [b"m0", b"m1", b"m2", b"m3"];
        let s1 = alice.sign_batch(&msgs, mode, t).unwrap();
        let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
        let s2s = alice.handle(&a1, t, &mut rng).unwrap().packets;
        bob.handle(&s2s[0], t, &mut rng).unwrap();
        bob.freeze().unwrap()
    }

    fn mid_bundle() -> FrozenAssociation {
        asleep(Mode::Merkle)
    }

    /// The one byte at which the records of `a` and of `a` after `edit`
    /// differ.
    fn byte_of(a: FrozenAssociation, edit: impl FnOnce(&mut FrozenAssociation)) -> usize {
        let before = a.encode();
        let mut b = a;
        edit(&mut b);
        let after = b.encode();
        assert_eq!(before.len(), after.len());
        let diff: Vec<usize> = (0..before.len())
            .filter(|&i| before[i] != after[i])
            .collect();
        assert_eq!(diff.len(), 1, "{diff:?}");
        diff[0]
    }

    /// Bytes `record_fuzz.rs` found decode accepting although no record
    /// is written with them, so that two byte strings thawed alike: a
    /// flag byte other than 0 or 1, and a set padding bit past the
    /// received bitmap's last flag.
    #[test]
    fn decode_refuses_non_canonical_flags_and_bitmap_padding() {
        let accepting = byte_of(mid_bundle(), |f| {
            f.verifier.accepting = !f.verifier.accepting;
        });
        let verdict_sent = byte_of(asleep(Mode::Cumulative), |f| {
            let ex = f.verifier.current.as_mut().unwrap();
            let AckState::Flat { verdict_sent, .. } = &mut ex.ack else {
                panic!("a flat pre-(n)ack");
            };
            *verdict_sent = !*verdict_sent;
        });
        // Flags [true, false, false, false] → [true, false, false, true].
        let bitmap = byte_of(mid_bundle(), |f| {
            let ex = f.verifier.current.as_mut().unwrap();
            let (s1, a1, ack) = (ex.s1.clone(), ex.a1.clone(), ex.ack.clone());
            let flags = vec![true, false, false, true];
            let (key_index, key) = (ex.ack_key_index, ex.ack_key);
            let mut other =
                BufferedExchange::new(s1, a1, key_index, key, ack, flags, ex.created_at);
            other.first_s2_at = ex.first_s2_at;
            other.last_nack_at = ex.last_nack_at;
            *ex = other;
        });
        for (record, at, bad) in [
            (mid_bundle(), accepting, [2, 0x80]),
            (asleep(Mode::Cumulative), verdict_sent, [2, 0xff]),
            // Four flags use bits 0-3; bits 4-7 are padding.
            (mid_bundle(), bitmap, [0x11, 0x81]),
        ] {
            let mut bytes = record.encode();
            assert!(FrozenAssociation::decode(&bytes).is_some());
            for value in bad {
                bytes[at] = value;
                assert!(
                    FrozenAssociation::decode(&bytes).is_none(),
                    "{value:#x} at {at}"
                );
            }
        }
    }

    fn forest(ex: &mut BufferedExchange, leaves: &[u32]) {
        let root = ex.s1.announce;
        let trees = leaves.iter().map(|&leaves| TreeDescriptor { root, leaves });
        ex.s1.presig = Presig::unchecked(PreSignature::MerkleForest(trees.collect()));
        ex.ack = AckState::None;
    }

    /// Each record covers fewer messages than it has received flags —
    /// or maps them ambiguously — so the thawed flow's next authentic S2
    /// would index past its pre-signature or AMT. Decode refuses them.
    #[test]
    fn decode_refuses_records_thaw_could_not_serve() {
        let good = mid_bundle();
        let ex = good.verifier.current.as_ref().unwrap();
        assert_eq!(ex.received(), [true, false, false, false]);
        assert!(matches!(&ex.ack, AckState::Amt(amt) if amt.secrets().len() == 8));
        assert!(FrozenAssociation::decode(&good.encode()).is_some());

        type Corrupt = fn(&mut BufferedExchange);
        let cases: [(&str, Corrupt); 5] = [
            ("MACs short", |ex| {
                let macs = vec![ex.s1.announce; 3];
                ex.s1.presig = Presig::unchecked(PreSignature::Cumulative(macs));
                ex.ack = AckState::None;
            }),
            ("forest short", |ex| forest(ex, &[2])),
            ("forest empty", |ex| forest(ex, &[])),
            ("forest not uniform", |ex| forest(ex, &[2, 1, 1])),
            ("AMT short", |ex| {
                if let AckState::Amt(amt) = &ex.ack {
                    let secrets = amt.secrets()[..6].to_vec();
                    ex.ack = AckState::Amt(AckMerkleTree::from_secrets(Algorithm::Sha1, secrets));
                }
            }),
        ];
        for (what, corrupt) in cases {
            let mut record = mid_bundle();
            corrupt(record.verifier.current.as_mut().unwrap());
            assert!(
                FrozenAssociation::decode(&record.encode()).is_none(),
                "{what}"
            );
        }
    }
}
