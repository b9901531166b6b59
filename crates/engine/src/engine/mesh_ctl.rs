//! Mesh-role control plane: the registered peer set, standby next
//! hops, learn-only replica absorption and `reroute` (failover).

use super::*;

/// Mesh-role state: the registered peer set (with per-peer counters)
/// and the standby next-hops that receive handshake replicas. Installed
/// by [`EngineCore::mesh_enable`]; absent for non-mesh engines, whose
/// hot path skips all of it behind one relaxed flag load.
#[derive(Default)]
pub(super) struct MeshControl {
    /// Registered peers — upstreams we accept traffic from and next
    /// hops we forward toward. With `enforce`, a datagram whose source
    /// is not in this set is rejected before parsing (the paper's
    /// static-relay-set bypass defense).
    pub(super) peers: HashMap<SocketAddr, Arc<PeerCounters>>,
    pub(super) enforce: bool,
    /// Standby next-hops: every forwarded handshake is also replicated
    /// to these, learn-only, so a failover target already knows the
    /// association when live flows re-route to it.
    standbys: Vec<SocketAddr>,
}

impl EngineCore {
    /// Turn on mesh-relay behaviour: per-peer accounting, handshake
    /// replication to standbys, and — with `enforce` — rejection of any
    /// datagram whose source address is not a registered peer (the
    /// static-relay-set bypass defense: a relay only accepts traffic
    /// from its configured upstream/downstream set).
    pub fn mesh_enable(&self, enforce: bool) {
        self.mesh
            .write()
            .get_or_insert_with(Default::default)
            .enforce = enforce;
        self.mesh_active.store(true, Ordering::Release);
    }

    /// Register `peer` in the mesh peer set (enabling the mesh if it
    /// was off), returning its counter row. Registering an address
    /// twice returns the same row.
    pub fn mesh_register_peer(&self, peer: SocketAddr) -> Arc<PeerCounters> {
        let row = self.metrics.mesh.register_peer(peer);
        let mut guard = self.mesh.write();
        let ctrl = guard.get_or_insert_with(Default::default);
        ctrl.peers.insert(peer, Arc::clone(&row));
        drop(guard);
        self.mesh_active.store(true, Ordering::Release);
        row
    }

    /// Remove `peer` from the mesh peer set (and the standby list),
    /// returning whether it was registered. Its counter row remains in
    /// the metrics snapshot — departure does not erase history.
    pub fn mesh_remove_peer(&self, peer: SocketAddr) -> bool {
        let mut guard = self.mesh.write();
        let Some(ctrl) = guard.as_mut() else {
            return false;
        };
        ctrl.standbys.retain(|&s| s != peer);
        ctrl.peers.remove(&peer).is_some()
    }

    /// Add a standby next-hop: forwarded handshakes are replicated to
    /// it ([`mesh::REPLICA_MAGIC`]-wrapped) so it learns associations
    /// ahead of any failover. Also registers it as a peer.
    pub fn mesh_add_standby(&self, peer: SocketAddr) {
        let _ = self.mesh_register_peer(peer);
        let mut guard = self.mesh.write();
        let ctrl = guard.as_mut().expect("mesh enabled by register");
        if !ctrl.standbys.contains(&peer) {
            ctrl.standbys.push(peer);
        }
    }

    /// Absorb a replicated datagram learn-only: state updates (relay
    /// association learning, pre-signature buffering) happen exactly as
    /// for live traffic, but nothing is forwarded or delivered — the
    /// original relay already did that. `from` must be the replicating
    /// upstream so relay flows key identically to post-failover
    /// traffic.
    pub fn absorb_replica(
        &self,
        from: SocketAddr,
        inner: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) {
        let out = self.handle_datagram(from, inner, now, rng);
        drop(out);
        self.metrics
            .mesh
            .replicas_absorbed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Mesh bookkeeping after a routed datagram was relayed toward
    /// `dst`: count the forward against the next hop, and replicate
    /// every handshake in the datagram to the standby next-hops — they
    /// must learn each association this relay carries, so they can
    /// verify the flow the moment a failover re-routes it at them.
    pub(super) fn mesh_after_relay(
        &self,
        dst: SocketAddr,
        forwarded: bool,
        slices: &[&[u8]],
        views: &[Option<PacketView<'_>>],
        out: &mut EngineOutput,
    ) {
        let is_hs = |v: &Option<PacketView<'_>>| {
            v.as_ref()
                .is_some_and(|v| matches!(v.body, BodyView::Handshake(_)))
        };
        let mut standbys = Vec::new();
        if let Some(ctrl) = self.mesh.read().as_ref() {
            if forwarded {
                if let Some(pc) = ctrl.peers.get(&dst) {
                    pc.datagrams_out.fetch_add(1, Ordering::Relaxed);
                }
            }
            if views.iter().any(is_hs) {
                standbys.clone_from(&ctrl.standbys);
            }
        }
        if forwarded {
            self.metrics.mesh.forwarded.fetch_add(1, Ordering::Relaxed);
        }
        for (slice, _) in slices.iter().zip(views).filter(|(_, v)| is_hs(v)) {
            for &standby in &standbys {
                let mut frame = self.pool.checkout();
                frame.buf_mut().extend_from_slice(mesh::REPLICA_MAGIC);
                frame.buf_mut().extend_from_slice(slice);
                out.push_datagram(standby, frame);
            }
        }
    }

    /// Re-route live flows from peer `old` to peer `new`: every route
    /// toward `old` now points at `new`, and the flows carried by those
    /// routes — relay pairs keyed through `old`, plus host/connecting
    /// flows peered with `old` — are re-keyed and re-installed so
    /// in-flight associations survive the switch (pre-signature
    /// buffers, chain state and every armed deadline move with them).
    /// Returns the number of flows moved. Timers left in the old
    /// shard's wheel fire on missing keys and are skipped harmlessly.
    pub fn reroute(&self, old: SocketAddr, new: SocketAddr) -> usize {
        if old == new {
            return 0;
        }
        // Every applied switch is a failover, whether or not flows were
        // live at that moment (an idle path moving to a standby still
        // changes where the next handshake goes).
        self.metrics.mesh.failovers.fetch_add(1, Ordering::Relaxed);
        // Phase 1: rewrite the route table, collecting the relay-pair
        // key renames implied by each rewritten route.
        let mut relay_renames: HashMap<SocketAddr, SocketAddr> = HashMap::new();
        {
            let mut routes = self.routes.write();
            let srcs: Vec<SocketAddr> = routes
                .iter()
                .filter(|&(src, dst)| *dst == old && *src != old)
                .map(|(src, _)| *src)
                .collect();
            routes.remove(&old);
            for src in srcs {
                routes.insert(src, new);
                routes.insert(new, src);
                let old_left = canonical(src, old);
                let new_left = canonical(src, new);
                if old_left != new_left {
                    relay_renames.insert(old_left, new_left);
                }
            }
        }
        // Phase 2: extract affected flows under each shard lock.
        let mut moved: Vec<(FlowKey, FlowKey, FlowState)> = Vec::new();
        for idx in 0..self.shards.len() {
            let mut shard = self.shards.write(idx);
            let affected = shard.flows.extract_if(|k, state| match state {
                FlowState::Relay { .. } => relay_renames.contains_key(&k.peer),
                _ => k.peer == old,
            });
            for (old_key, state) in affected {
                let peer = match &state {
                    FlowState::Relay { .. } => relay_renames[&old_key.peer],
                    _ => new,
                };
                let assoc_id = old_key.assoc_id;
                moved.push((FlowKey { peer, assoc_id }, old_key, state));
            }
        }
        // Phase 3: install each flow at its destination shard, which
        // re-arms every deadline it owns under the new key. Hibernated
        // flows bring their frozen record along (so the next datagram
        // from the new peer still thaws).
        let n = moved.len();
        for (key, old_key, state) in moved {
            if matches!(state, FlowState::Hibernated { .. }) {
                self.rekey_frozen(old_key, key);
            }
            let mut shard = self.shards.write(self.shard_index(&key));
            if let Some(prev) = self.install(&mut shard, key, state) {
                // Displaced a flow already keyed at the destination
                // (e.g. stray traffic stood one up): keep gauges honest.
                if let FlowState::Relay { buffered, .. } = prev {
                    self.buffered.fetch_sub(buffered as i64, Ordering::Relaxed);
                }
                self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
            }
        }
        n
    }
}
