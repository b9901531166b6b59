//! Relay-role flows: a routed datagram's packets are verified in
//! transit and what passes is re-bundled. Single packets and runs of
//! same-association S2s differ only in how they ask the [`Relay`] for
//! decisions; the rest is one shared [`EngineCore::relay_step`].

use std::collections::hash_map::Entry;

use super::*;

/// What relaying one datagram has produced so far: the engine output,
/// plus the packets that passed, held as borrowed slices — the relay
/// hot path never materialises an owned packet or clones bytes.
struct Relayed<'a, 'o> {
    out: &'o mut EngineOutput,
    pass: [&'a [u8]; MAX_BUNDLE],
    npass: usize,
}

impl EngineCore {
    pub(super) fn relay_datagram(
        &self,
        from: SocketAddr,
        dst: SocketAddr,
        slices: &[&[u8]],
        views: &[Option<PacketView<'_>>],
        now: Timestamp,
        out: &mut EngineOutput,
    ) {
        let left = canonical(from, dst);
        let mut tx = Relayed {
            out,
            pass: [&[]; MAX_BUNDLE],
            npass: 0,
        };
        // Consecutive S2 packets of the same association are verified as
        // one batch (one shard write lock, digests computed in lane
        // sweeps); everything else takes the single-packet path.
        let mut i = 0;
        while i < slices.len() {
            let Some(view) = &views[i] else {
                i += 1;
                continue;
            };
            let mut run_end = i + 1;
            if matches!(view.body, BodyView::S2 { .. }) {
                while views
                    .get(run_end)
                    .and_then(Option::as_ref)
                    .is_some_and(|v| {
                        v.assoc_id == view.assoc_id && matches!(v.body, BodyView::S2 { .. })
                    })
                {
                    run_end += 1;
                }
            }
            let key = FlowKey {
                peer: left,
                assoc_id: view.assoc_id,
            };
            if run_end - i >= 2 {
                self.relay_s2_run(key, &slices[i..run_end], &views[i..run_end], now, &mut tx);
            } else {
                self.relay_single(key, slices[i], view, now, &mut tx);
            }
            i = run_end;
        }
        let Relayed { out, pass, npass } = tx;
        if npass > 0 {
            let mut frame = self.pool.checkout();
            // Allowlist: npass is 1..=MAX_BUNDLE, and multi-packet
            // slices came out of a bundle frame, so each length already
            // fit the u16 prefix.
            bundle::emit_slices_into(&pass[..npass], frame.buf_mut()).expect("valid re-bundle");
            self.push_datagram(out, dst, frame);
        }
        if self.mesh_active.load(Ordering::Relaxed) {
            self.mesh_after_relay(dst, npass > 0, slices, views, out);
        }
    }

    /// Single-packet relay path: one shard write lock, one
    /// [`Relay::observe_view`] call, no heap allocation besides the
    /// extraction copy.
    fn relay_single<'a>(
        &self,
        key: FlowKey,
        slice: &'a [u8],
        view: &PacketView<'a>,
        now: Timestamp,
        tx: &mut Relayed<'a, '_>,
    ) {
        let idx = self.shard_index(&key);
        if !self.admit(idx, &key, view.packet_type(), slice.len(), now) {
            return;
        }
        let packets = std::iter::once((slice, view));
        let observe = |relay: &mut Relay| [relay.observe_view(view, slice.len(), now)];
        self.relay_step(idx, key, now, packets, observe, tx);
    }

    /// A run of two or more consecutive S2 packets of one association,
    /// verified in a single [`Relay::observe_s2_batch`] call under one
    /// shard write lock: the MAC / Merkle digests run through the batched
    /// backend, each Merkle node the bundle shares hashed once, the
    /// fields read in place from the datagram, and the buffered-byte
    /// accounting is reconciled once per run instead of once per packet.
    /// Decisions come back in input order, so forwarded slices keep their
    /// bundle order.
    fn relay_s2_run<'a>(
        &self,
        key: FlowKey,
        slices: &[&'a [u8]],
        views: &[Option<PacketView<'a>>],
        now: Timestamp,
        tx: &mut Relayed<'a, '_>,
    ) {
        let idx = self.shard_index(&key);
        // S2s verify or drop, they are never refused at admission
        // (`admit` vets S1 / HS1 only), so the whole run goes in.
        let items = s2_run_items(views);
        let items = &items[..views.len()];
        let packets = slices
            .iter()
            .zip(views)
            .filter_map(|(&slice, view)| Some((slice, view.as_ref()?)));
        tx.out.extracted.reserve(items.len());
        let observe = |relay: &mut Relay| relay.observe_s2_batch(key.assoc_id, items, now);
        self.relay_step(idx, key, now, packets, observe, tx);
    }

    /// The relay step both paths share. Under one shard write lock:
    /// find the relay flow at `key` (only an HS1 stands one up), let
    /// `observe` judge the admitted `packets`, and reconcile the flow's
    /// share of the global pre-signature gauge. Then, lock released, act
    /// on one verdict per packet in order: count learned associations,
    /// copy out verified payloads, and forward or count the drop.
    fn relay_step<'a, 'v, D>(
        &self,
        idx: usize,
        key: FlowKey,
        now: Timestamp,
        packets: impl Iterator<Item = (&'a [u8], &'v PacketView<'a>)> + Clone,
        observe: impl FnOnce(&mut Relay) -> D,
        tx: &mut Relayed<'a, '_>,
    ) where
        'a: 'v,
        D: IntoIterator<Item = (RelayDecision, RelayViewOutcome)>,
    {
        let mut shard = self.shards.write(idx);
        let entry = match shard.flows.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(vacant) => match packets.clone().next() {
                Some((slice, view)) if view.packet_type() == PacketType::Hs1 => {
                    vacant.insert(self.new_relay_flow(slice.len(), now))
                }
                _ => {
                    drop(shard);
                    self.relay_unknown(packets, tx);
                    return;
                }
            },
        };
        let FlowState::Relay { relay, buffered } = &mut entry.state else {
            // A host flow keyed like a routed pair: treat as
            // mis-routed and drop.
            for _ in packets {
                self.metrics.record_drop(DropReason::UnknownAssociation);
            }
            return;
        };
        let decisions = observe(relay);
        let new_buffered = relay.total_buffered_bytes();
        let delta = new_buffered as i64 - *buffered as i64;
        *buffered = new_buffered;
        drop(shard);
        if delta != 0 {
            self.buffered.fetch_add(delta, Ordering::Relaxed);
        }
        for ((slice, view), (decision, outcome)) in packets.zip(decisions) {
            if outcome.learned.is_some() {
                self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
            }
            if outcome.verified_s2.is_some() {
                if let BodyView::S2 { payload, .. } = &view.body {
                    self.metrics.s2_verified.fetch_add(1, Ordering::Relaxed);
                    // The extraction copy is the only allocation on the
                    // verified-forward path.
                    tx.out.extracted.push((view.assoc_id, payload.to_vec()));
                }
            }
            match decision {
                RelayDecision::Forward => {
                    tx.pass[tx.npass] = slice;
                    tx.npass += 1;
                }
                RelayDecision::Drop(reason) => self.metrics.record_drop(reason),
            }
        }
    }

    /// Packets of a flow no HS1 has taught this relay: nothing to verify
    /// them against, and no state is kept for them. A handshake reply
    /// passes, as [`Relay::observe_view`] passes one without its init;
    /// the rest go by [`alpha_core::RelayConfig::forward_unknown`].
    fn relay_unknown<'a, 'v>(
        &self,
        packets: impl Iterator<Item = (&'a [u8], &'v PacketView<'a>)>,
        tx: &mut Relayed<'a, '_>,
    ) where
        'a: 'v,
    {
        for (slice, view) in packets {
            if self.cfg.relay.forward_unknown || view.packet_type() == PacketType::Hs2 {
                tx.pass[tx.npass] = slice;
                tx.npass += 1;
            } else {
                self.metrics.record_drop(DropReason::UnknownAssociation);
            }
        }
    }

    /// A fresh relay-role flow entry, charged for the packet that created
    /// it (established flows were charged in [`EngineCore::admit`]).
    fn new_relay_flow(&self, wire_len: usize, now: Timestamp) -> FlowEntry {
        self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
        let limiter = self.new_limiter();
        limiter.allow(wire_len as u64, now);
        FlowEntry {
            limiter,
            state: FlowState::Relay {
                relay: Box::new(Relay::new(self.cfg.relay)),
                buffered: 0,
            },
        }
    }
}
