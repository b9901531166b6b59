//! Datagram intake: `handle_datagram(s)`, the mesh source filter,
//! flood-vector admission, and the demux to `relay` (routed sources)
//! or, by flow state, to `host` / `lifecycle`.

use super::*;

impl EngineCore {
    /// Feed one received datagram through the engine.
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
        let mut out = EngineOutput::default();
        self.handle_datagram_into(from, bytes, now, rng, &mut out);
        out
    }

    /// [`EngineCore::handle_datagram`], appending to the caller's
    /// output: a burst shares one `EngineOutput` instead of building
    /// and merging one per datagram.
    fn handle_datagram_into(
        &self,
        from: SocketAddr,
        bytes: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        self.metrics.packets_in.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_in
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
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
        match self.route_of(from) {
            Some(dst) => self.relay_datagram(from, dst, &slices[..n], &views[..n], now, out),
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

    /// Feed a burst of received datagrams through the engine in one
    /// call, merging all outputs. Each datagram is processed exactly as
    /// [`EngineCore::handle_datagram`] would — within one datagram the
    /// relay path already batches consecutive same-association S2s — so
    /// draining a receive queue through this keeps worker loops simple
    /// without changing semantics.
    pub fn handle_datagrams(
        &self,
        batch: &[(SocketAddr, &[u8])],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> EngineOutput {
        let mut out = EngineOutput::default();
        for &(from, bytes) in batch {
            self.handle_datagram_into(from, bytes, now, rng, &mut out);
        }
        out
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

    /// Admission veto for flood-vector packets (S1/HS1, which nothing
    /// can verify yet), taken under the shard *read* lock: over-budget
    /// traffic is shed without any write contention. Returns `false`
    /// when the packet must drop. Flows not yet in the table are
    /// admitted here and charged at insertion instead.
    pub(super) fn admit(
        &self,
        shard_idx: usize,
        key: &FlowKey,
        ptype: PacketType,
        wire_len: usize,
        now: Timestamp,
    ) -> bool {
        if !matches!(ptype, PacketType::S1 | PacketType::Hs1) {
            return true;
        }
        if ptype == PacketType::S1 {
            if let Some(max) = self.cfg.max_buffered_bytes {
                if self.buffered.load(Ordering::Relaxed) > max as i64 {
                    self.metrics
                        .backpressure_drops
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let shard = self.shards.read(shard_idx);
        if let Some(entry) = shard.flows.get(key) {
            if !entry.limiter.allow(wire_len as u64, now) {
                self.metrics.admission_drops.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        true
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
        if !self.admit(idx, &key, view.packet_type(), slice.len(), now) {
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
