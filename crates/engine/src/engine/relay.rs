//! Relay-role flows: a routed datagram's packets are verified in
//! transit and what passes is re-bundled. Single packets and runs of
//! same-association S2s differ only in how they ask the flow's
//! [`AssociationRelay`] for decisions; the rest is one shared
//! [`EngineCore::relay_step`], which takes one shard lock and makes one
//! flow-table lookup.

use std::collections::hash_map::Entry;

use super::ingress::Route;
use super::*;

/// What relaying one datagram has produced so far: the engine output,
/// plus the packets that passed, held as borrowed slices — the relay
/// hot path never materialises an owned packet or clones bytes.
struct Relayed<'a, 'o> {
    out: &'o mut EngineOutput,
    pass: [&'a [u8]; MAX_BUNDLE],
    npass: usize,
}

/// What the relay step keeps of one packet's judgment once the shard
/// lock is released.
#[derive(Clone, Copy)]
struct Verdict {
    decision: RelayDecision,
    learned: bool,
    verified: bool,
}

impl EngineCore {
    pub(super) fn relay_datagram(
        &self,
        route: Route,
        slices: &[&[u8]],
        views: &[Option<PacketView<'_>>],
        now: Timestamp,
        out: &mut EngineOutput,
    ) {
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
                peer: route.left,
                assoc_id: view.assoc_id,
            };
            if run_end - i >= 2 {
                let (slices, views) = (&slices[i..run_end], &views[i..run_end]);
                self.relay_s2_run(route.shard, key, slices, views, now, &mut tx);
            } else {
                self.relay_single(route.shard, key, slices[i], view, now, &mut tx);
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
            out.push_datagram(route.dst, frame);
        }
        if self.mesh_active.load(Ordering::Relaxed) {
            self.mesh_after_relay(route.dst, npass > 0, slices, views, out);
        }
    }

    /// Single-packet relay path: the byte-budget valve (no lock), then
    /// one [`AssociationRelay::observe_view`] call in the relay step.
    fn relay_single<'a>(
        &self,
        idx: usize,
        key: FlowKey,
        slice: &'a [u8],
        view: &PacketView<'a>,
        now: Timestamp,
        tx: &mut Relayed<'a, '_>,
    ) {
        if !self.valve_admits(view.packet_type(), tx.out) {
            return;
        }
        let packets = std::iter::once((slice, view));
        let observe = |relay: &mut AssociationRelay, sink: &mut dyn FnMut(_)| {
            sink(relay.observe_view(view, slice.len(), now));
        };
        self.relay_step(idx, key, packets, observe, tx);
    }

    /// A run of two or more consecutive S2 packets of one association,
    /// verified in a single [`AssociationRelay::observe_s2_run`] call
    /// under one shard write lock: the MAC / Merkle digests run through
    /// the batched backend, each Merkle node the bundle shares hashed
    /// once, the fields read in place from the datagram, and the
    /// buffered-byte accounting is reconciled once per run instead of
    /// once per packet. Decisions come back in input order, so forwarded
    /// slices keep their bundle order.
    fn relay_s2_run<'a>(
        &self,
        idx: usize,
        key: FlowKey,
        slices: &[&'a [u8]],
        views: &[Option<PacketView<'a>>],
        now: Timestamp,
        tx: &mut Relayed<'a, '_>,
    ) {
        let items = s2_run_items(views);
        let items = &items[..views.len()];
        let packets = slices
            .iter()
            .zip(views)
            .filter_map(|(&slice, view)| Some((slice, view.as_ref()?)));
        let observe = |relay: &mut AssociationRelay, sink: &mut dyn FnMut(_)| {
            relay.observe_s2_run(items, now, sink);
        };
        self.relay_step(idx, key, packets, observe, tx);
    }

    /// The relay step both paths share. Under one shard write lock and
    /// one flow-table lookup: find the relay flow at `key` (only an HS1
    /// stands one up), let `observe` judge the `packets` (an S1 is
    /// charged to the association's bucket once its chain element
    /// authenticates), and reconcile the flow's share of the relay buffer
    /// gauge from its one association. Then, lock released, act on one
    /// verdict per packet in order: count learned associations, copy
    /// verified payloads into the output's arena, and forward or count
    /// the drop. Nothing here allocates.
    fn relay_step<'a, 'v>(
        &self,
        idx: usize,
        key: FlowKey,
        packets: impl Iterator<Item = (&'a [u8], &'v PacketView<'a>)> + Clone,
        observe: impl FnOnce(&mut AssociationRelay, &mut dyn FnMut((RelayDecision, RelayViewOutcome))),
        tx: &mut Relayed<'a, '_>,
    ) where
        'a: 'v,
    {
        let Some((_, first_view)) = packets.clone().next() else {
            return;
        };
        let mut shard = self.shards.write(idx);
        let state = match shard.flows.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(vacant) if first_view.packet_type() == PacketType::Hs1 => {
                vacant.insert(self.new_relay_flow(key.assoc_id))
            }
            Entry::Vacant(_) => {
                drop(shard);
                self.relay_unknown(packets, tx);
                return;
            }
        };
        let FlowState::Relay { relay, buffered } = state else {
            // A host flow keyed like a routed pair: treat as
            // mis-routed and drop.
            drop(shard);
            for _ in packets {
                self.metrics.record_drop(DropReason::UnknownAssociation);
            }
            return;
        };
        let none = Verdict {
            decision: RelayDecision::Forward,
            learned: false,
            verified: false,
        };
        let mut verdicts = [none; MAX_BUNDLE];
        let mut judged = 0;
        observe(relay, &mut |(decision, outcome)| {
            verdicts[judged] = Verdict {
                decision,
                learned: outcome.learned.is_some(),
                verified: outcome.verified_s2.is_some(),
            };
            judged += 1;
        });
        let now_buffered = relay.buffered_bytes();
        tx.out.pending.buffered += now_buffered as i64 - *buffered as i64;
        *buffered = now_buffered;
        drop(shard);
        for ((slice, view), verdict) in packets.zip(&verdicts[..judged]) {
            if verdict.learned {
                self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
            }
            if verdict.verified {
                if let BodyView::S2 { payload, .. } = &view.body {
                    tx.out.extract(view.assoc_id, payload);
                }
            }
            match verdict.decision {
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
    /// passes, as [`AssociationRelay::observe_view`] passes one without
    /// its init; the rest go by [`alpha_core::RelayConfig::forward_unknown`].
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

    /// A fresh relay-role flow for association `assoc_id`.
    fn new_relay_flow(&self, assoc_id: u64) -> FlowState {
        self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
        FlowState::Relay {
            relay: Box::new(AssociationRelay::new(
                self.cfg.relay,
                &self.cfg.protocol,
                assoc_id,
            )),
            buffered: 0,
        }
    }
}
