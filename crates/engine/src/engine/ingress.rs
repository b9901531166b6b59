//! Datagram intake: `handle_datagram(s)`, the mesh source filter,
//! flood-vector admission, and the demux to `relay` (routed sources)
//! or, by flow state, to `host` / `lifecycle`.

use super::*;

/// Where a routed source's datagrams go, resolved once per run of
/// consecutive datagrams from it (the receive path hands a coalesced
/// burst's datagrams over back to back): the next hop, and the key
/// address and shard of the pair's relay flows.
#[derive(Clone, Copy)]
pub(super) struct Route {
    pub(super) dst: SocketAddr,
    /// The pair's canonical endpoint, which keys its relay flows.
    pub(super) left: SocketAddr,
    pub(super) shard: usize,
}

impl EngineCore {
    /// Feed one received datagram through the engine: a burst of one
    /// ([`EngineCore::handle_datagrams`]).
    ///
    /// Zero-copy path: the datagram is split into per-packet slices
    /// ([`bundle::split`]) and decoded as borrowed [`PacketView`]s; no
    /// owned packet is materialised on the relay path or the host S2
    /// path. Any malformed packet drops the whole datagram (parity with
    /// wholesale bundle parsing).
    pub fn handle_datagram(
        &self,
        from: SocketAddr,
        bytes: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> EngineOutput {
        self.handle_datagrams(&[(from, bytes)], now, rng)
    }

    /// Feed a burst of received datagrams through the engine in one
    /// call. Each datagram is judged exactly as it would be alone —
    /// within one datagram the relay and host paths already batch
    /// consecutive same-association S2s — but the burst shares one
    /// output, one route lookup per run of datagrams from one source,
    /// and one publication of the datagram-path counters (see
    /// [`EngineOutput`]).
    pub fn handle_datagrams(
        &self,
        batch: &[(SocketAddr, &[u8])],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> EngineOutput {
        let bytes = batch.iter().map(|(_, b)| b.len()).sum();
        let mut out = EngineOutput::for_burst(batch.len(), bytes);
        let mut source: Option<(SocketAddr, Option<Route>)> = None;
        for &(from, bytes) in batch {
            let route = match source {
                Some((src, route)) if src == from => route,
                _ => {
                    let route = self.route_from(from);
                    source = Some((from, route));
                    route
                }
            };
            self.handle_datagram_into(from, route, bytes, now, rng, &mut out);
        }
        self.publish(&mut out);
        out
    }

    /// One datagram of a burst, appending to the burst's output.
    fn handle_datagram_into(
        &self,
        from: SocketAddr,
        route: Option<Route>,
        bytes: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        out.pending.packets_in += 1;
        out.pending.bytes_in += bytes.len() as u64;
        if !self.admits_source(from) {
            return;
        }
        let mut slices: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
        let Ok(n) = bundle::split(bytes, &mut slices) else {
            self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut views: [Option<PacketView<'_>>; MAX_BUNDLE] = [None; MAX_BUNDLE];
        for i in 0..n {
            match PacketView::parse(slices[i]) {
                Ok(v) => views[i] = Some(v),
                Err(_) => {
                    self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        match route {
            Some(route) => self.relay_datagram(route, &slices[..n], &views[..n], now, out),
            None => {
                // Consecutive S2s of one association are verified as one
                // run; everything else packet by packet.
                let s2_of = |v: &Option<PacketView<'_>>| {
                    v.as_ref()
                        .filter(|v| matches!(v.body, BodyView::S2 { .. }))
                        .map(|v| v.assoc_id)
                };
                let mut i = 0;
                while i < n {
                    let Some(assoc_id) = s2_of(&views[i]) else {
                        if let Some(view) = &views[i] {
                            self.host_packet(from, slices[i], view, now, rng, out);
                        }
                        i += 1;
                        continue;
                    };
                    let run = views[i..n]
                        .iter()
                        .take_while(|v| s2_of(v) == Some(assoc_id))
                        .count();
                    let key = FlowKey {
                        peer: from,
                        assoc_id,
                    };
                    let (slices, views) = (&slices[i..i + run], &views[i..i + run]);
                    self.host_s2_run(key, slices, views, now, rng, out);
                    i += run;
                }
            }
        }
    }

    /// The route of a source's datagrams, if it is routed.
    fn route_from(&self, from: SocketAddr) -> Option<Route> {
        let dst = self.route_of(from)?;
        let left = canonical(from, dst);
        Some(Route {
            dst,
            left,
            shard: self.shard_of_addr(&left),
        })
    }

    /// Bypass defense: when this core is a mesh relay, traffic from a
    /// source outside the registered peer set is rejected before any
    /// parsing or flow-table work. Counts the datagram against its
    /// peer row otherwise.
    fn admits_source(&self, from: SocketAddr) -> bool {
        if !self.mesh_active.load(Ordering::Relaxed) {
            return true;
        }
        let guard = self.mesh.read();
        let Some(ctrl) = guard.as_ref() else {
            return true;
        };
        match ctrl.peers.get(&from) {
            Some(pc) => {
                pc.datagrams_in.fetch_add(1, Ordering::Relaxed);
            }
            None if ctrl.enforce => {
                self.metrics
                    .mesh
                    .upstream_rejects
                    .fetch_add(1, Ordering::Relaxed);
                return false;
            }
            None => {}
        }
        true
    }

    /// The global byte-budget valve over every relay pre-signature
    /// buffer: an S1 is refused while the gauge — as published, plus the
    /// calling burst's own unpublished change — is over budget. Needs no
    /// lock.
    pub(super) fn valve_admits(&self, ptype: PacketType, out: &EngineOutput) -> bool {
        let Some(max) = self.cfg.max_buffered_bytes else {
            return true;
        };
        if ptype == PacketType::S1
            && self.buffered.load(Ordering::Relaxed) + out.pending.buffered > max as i64
        {
            self.metrics
                .backpressure_drops
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// The flow's admission veto for flood-vector packets (S1/HS1, which
    /// nothing can verify yet): `false` when its budget refuses the
    /// packet, which must then drop. Other packets always pass.
    pub(super) fn limiter_admits(
        &self,
        entry: &FlowEntry,
        ptype: PacketType,
        wire_len: usize,
        now: Timestamp,
    ) -> bool {
        if !matches!(ptype, PacketType::S1 | PacketType::Hs1)
            || entry.limiter.allow(wire_len as u64, now)
        {
            return true;
        }
        self.metrics.admission_drops.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Host-path admission for flood-vector packets: the valve, then the
    /// flow's budget under the shard *read* lock, so over-budget traffic
    /// is shed without any write contention. Flows not yet in the table
    /// are admitted here and charged at insertion instead.
    fn admit(
        &self,
        shard_idx: usize,
        key: &FlowKey,
        ptype: PacketType,
        wire_len: usize,
        now: Timestamp,
        out: &EngineOutput,
    ) -> bool {
        if !matches!(ptype, PacketType::S1 | PacketType::Hs1) {
            return true;
        }
        if !self.valve_admits(ptype, out) {
            return false;
        }
        let shard = self.shards.read(shard_idx);
        shard
            .flows
            .get(key)
            .is_none_or(|entry| self.limiter_admits(entry, ptype, wire_len, now))
    }

    pub(super) fn host_packet(
        &self,
        from: SocketAddr,
        slice: &[u8],
        view: &PacketView<'_>,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let key = FlowKey {
            peer: from,
            assoc_id: view.assoc_id,
        };
        let idx = self.shard_index(&key);
        if !self.admit(idx, &key, view.packet_type(), slice.len(), now, out) {
            return;
        }
        // One write lock per packet: look the flow up and hand the
        // held lock to the handler for its state, so no transition can
        // race in between. Only an unknown flow lets go first — standing
        // up an association builds hash chains, too slow to do locked.
        let guard = self.shards.write(idx);
        match guard.flows.get(&key).map(|e| &e.state) {
            None => {
                drop(guard);
                self.accept_handshake(key, view, slice.len(), now, rng, out);
            }
            Some(FlowState::Connecting { .. }) => {
                self.complete_handshake(guard, key, view, now, out)
            }
            Some(FlowState::Host(_)) => self.host_handle(guard, key, view, now, rng, out),
            Some(FlowState::Hibernated) => self.host_thaw(guard, key, view, now, rng, out),
            Some(FlowState::Relay { .. }) => {
                // A relay pair keyed like this unrouted source.
                self.metrics.record_drop(DropReason::UnknownAssociation);
            }
        }
    }
}
