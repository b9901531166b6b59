//! What an association's byte-path calls produce: encoded packets to
//! send, in order, and the signer's events.
//!
//! Every packet is encoded once, where it is made. The S2s of a signer
//! exchange are encoded when the exchange is signed and kept, encoded,
//! by the exchange ([`crate::SignerChannel`]); an outbox that sends them
//! shares that buffer instead of copying it, so a reliable exchange can
//! resend them by index while its first transmission is still being
//! framed. Everything else — S1, A1, A2, a renewal's S1 — is written
//! into the outbox's own list. The shared S2s go out first, then the
//! outbox's own packets.

use std::sync::Arc;

use alpha_wire::{Packet, PacketList};

use crate::signer::SignerEvent;

/// Encoded packets and signer events from one or more calls on the
/// association byte path ([`crate::Association::handle_view`],
/// [`crate::Association::sign_into`], [`crate::Association::poll_into`]).
/// A caller that [`Outbox::clear`]s one outbox between calls reuses its
/// buffers.
#[derive(Debug, Default)]
pub struct Outbox {
    /// An exchange's encoded S2s, shared with the exchange.
    shared: Option<Arc<PacketList>>,
    /// The shared S2s to send, by sequence number; all of them when
    /// `all` is set.
    picked: Vec<u32>,
    all: bool,
    /// Packets encoded for this outbox, sent after the shared ones.
    own: PacketList,
    /// Signer-side events (acks, nacks, completion), in order.
    pub events: Vec<SignerEvent>,
}

impl Outbox {
    /// Number of packets to send.
    #[must_use]
    pub fn packet_count(&self) -> usize {
        self.shared_count() + self.own.len()
    }

    fn shared_count(&self) -> usize {
        match &self.shared {
            None => 0,
            Some(s2s) if self.all => s2s.len(),
            Some(_) => self.picked.len(),
        }
    }

    /// Packet `k` of [`Outbox::packets`] (`k` below the count).
    fn packet(&self, k: usize) -> &[u8] {
        let shared = self.shared_count();
        let found = match &self.shared {
            Some(s2s) if k < shared => s2s.get(if self.all { k } else { self.picked[k] as usize }),
            _ => self.own.get(k - shared),
        };
        // Allowlist: `picked` only holds indices below the shared list's
        // length, and `k` is in range by contract.
        found.expect("a packet of the outbox")
    }

    /// The packets to send, in order.
    pub fn packets(&self) -> impl ExactSizeIterator<Item = &[u8]> + Clone + '_ {
        (0..self.packet_count()).map(|k| self.packet(k))
    }

    /// Each packet decoded into an owned [`Packet`]: the owned API's
    /// view of what the byte path encoded.
    #[must_use]
    pub fn to_packets(&self) -> Vec<Packet> {
        self.packets()
            // Allowlist: every packet was encoded by this crate.
            .map(|p| Packet::parse(p).expect("an encoded packet decodes"))
            .collect()
    }

    /// Forget every packet and event, keeping the buffers.
    pub fn clear(&mut self) {
        self.shared = None;
        self.picked.clear();
        self.all = false;
        self.own.clear();
        self.events.clear();
    }

    /// The list the calls encode their own packets into.
    pub(crate) fn own(&mut self) -> &mut PacketList {
        &mut self.own
    }

    /// Send every one of an exchange's encoded S2s.
    pub(crate) fn share_all(&mut self, s2s: &Arc<PacketList>) {
        self.share(s2s);
        self.all = true;
    }

    /// Send the S2s of an exchange's encoded `s2s` at `seqs`, in order;
    /// seqs past its end are skipped.
    pub(crate) fn share_picked(&mut self, s2s: &Arc<PacketList>, seqs: impl Iterator<Item = u32>) {
        self.share(s2s);
        self.picked
            .extend(seqs.filter(|&seq| (seq as usize) < s2s.len()));
    }

    fn share(&mut self, s2s: &Arc<PacketList>) {
        // A call sends S2s of at most one exchange: one signer, one
        // exchange at a time.
        debug_assert!(self.shared.is_none(), "one exchange's S2s per outbox");
        self.shared = Some(Arc::clone(s2s));
    }
}
