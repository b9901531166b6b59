//! Flow lifecycle against the frozen store: freeze (from `timers`),
//! thaw (from `ingress`), reap, and the frozen-record codec.
//! The only code that touches `EngineCore::store`.

use super::*;

/// Frozen-record codec for the store: the `alpha-core` hibernation
/// record plus the optional adaptation snapshot, length-prefixed so
/// both decode totally.
pub(super) fn encode_frozen_record(
    frozen: &FrozenAssociation,
    adapt: Option<&FrozenAdapt>,
) -> Vec<u8> {
    // The store keeps this for as long as the flow sleeps, so it is
    // sized exactly: slack here is bytes per hibernated flow.
    let body_len = frozen.encoded_len();
    let prefix = u32::try_from(body_len).expect("record fits u32");
    let adapt = adapt.map(FrozenAdapt::to_bytes);
    let mut out = Vec::with_capacity(4 + body_len + 1 + adapt.as_ref().map_or(0, Vec::len));
    out.extend_from_slice(&prefix.to_be_bytes());
    frozen.encode_into(&mut out);
    debug_assert_eq!(out.len(), 4 + body_len);
    match adapt {
        Some(a) => {
            out.push(1);
            out.extend_from_slice(&a);
        }
        None => out.push(0),
    }
    out
}

pub(super) fn decode_frozen_record(
    bytes: &[u8],
) -> Option<(FrozenAssociation, Option<FrozenAdapt>)> {
    let len = u32::from_be_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let body = bytes.get(4..4usize.checked_add(len)?)?;
    let frozen = FrozenAssociation::decode(body)?;
    let rest = &bytes[4 + len..];
    let adapt = match rest.first()? {
        0 if rest.len() == 1 => None,
        1 => Some(FrozenAdapt::from_bytes(&rest[1..])?),
        _ => return None,
    };
    Some((frozen, adapt))
}

impl EngineCore {
    /// Run `f` on the frozen store, then republish its byte gauge —
    /// every store mutation goes through here so the gauge cannot lag.
    /// A shard lock may be held by the caller, never taken inside `f`.
    fn with_store<R>(&self, f: impl FnOnce(&mut FrozenStore<FlowKey>) -> R) -> R {
        let mut store = self.store.lock();
        let r = f(&mut store);
        let gauges = &self.metrics.store;
        gauges.bytes_frozen.store(store.bytes(), Ordering::Relaxed);
        r
    }

    /// Re-key a hibernated flow's frozen record (reroute). Re-keying
    /// never grows the store, so the insert cannot evict.
    pub(super) fn rekey_frozen(&self, old: FlowKey, new: FlowKey) {
        self.with_store(|store| {
            if let Some(record) = store.remove(&old) {
                let _ = store.insert(new, record);
            }
        });
    }

    /// Remove a hibernation tombstone whose record is gone for good.
    fn reap_tombstone(&self, shard: &mut Shard, key: &FlowKey) {
        shard.flows.remove(key);
        self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
        self.metrics
            .store
            .flows_hibernated
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Wake a hibernated flow: pull its frozen record, thaw the
    /// association, and ingest this datagram *before* re-admitting the
    /// flow to the table. Only a packet that verifies against the
    /// thawed chains wakes the flow — a forged datagram aimed at a
    /// frozen flow gets the record re-frozen untouched, so hibernation
    /// adds no spoofing surface, and at the default (√n) chain layout
    /// the thaw hashes nothing, so that trial verification (at most
    /// `max_skip` hashes) is all a stranger's datagram can buy. The
    /// thawed flow is installed, then the response settles on it like
    /// any datagram's: it resumes mid-stream with no handshake and
    /// decisions identical to a never-slept one.
    pub(super) fn host_thaw(
        &self,
        mut guard: RwLockWriteGuard<'_, Shard>,
        key: FlowKey,
        view: &PacketView<'_>,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        // Wall-clock latency of the wake itself (metrics only; protocol
        // decisions still run on the caller-supplied Timestamp).
        let wake_timer = std::time::Instant::now();
        let shard = &mut *guard;
        let Some(FlowState::Hibernated { limiter }) = shard.flows.get(&key) else {
            return;
        };
        let limiter = limiter.clone();
        let Some(record) = self.with_store(|store| store.remove(&key)) else {
            // Tombstone without a record: the budget evicted this flow
            // (it is gone for good).
            self.reap_tombstone(shard, &key);
            self.metrics.record_drop(DropReason::UnknownAssociation);
            return;
        };
        let Some((frozen, frozen_adapt)) = decode_frozen_record(&record) else {
            // Unreachable for records this engine wrote; fail closed
            // rather than panicking mid-datapath.
            self.reap_tombstone(shard, &key);
            self.metrics.record_drop(DropReason::Malformed);
            return;
        };
        let mut assoc = Association::thaw(self.cfg.protocol, &frozen);
        let mut outbox = out.lend_outbox();
        match ingest(&mut assoc, view, now, rng, &mut outbox, out) {
            Ok(()) => {
                let adapt = match (self.cfg.adapt, &frozen_adapt) {
                    (Some(cfg), Some(fa)) => Some(Box::new(FlowAdapt::restore(cfg, fa))),
                    _ => self.new_adapt(),
                };
                let flow = self.fresh_host(assoc, adapt, limiter, now);
                self.install(shard, key, flow);
                if let Some(FlowState::Host(flow)) = shard.flows.get_mut(&key) {
                    self.settle(&mut shard.wheel, key, flow, &mut outbox, now, Some(rng));
                }
                self.cache_deadline(shard);
                self.metrics.store.thawed.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .store
                    .flows_hibernated
                    .fetch_sub(1, Ordering::Relaxed);
                self.metrics
                    .store
                    .thaw_latency_us
                    .record(wake_timer.elapsed().as_micros() as u64);
                drop(guard);
                self.push_packets(out, key.peer, outbox.packets());
            }
            Err(e) => {
                // Forged or stale: re-freeze the record exactly as it
                // was. Same-size reinsertion cannot exceed the budget,
                // but route any eviction through the normal reaper.
                let evicted = self.with_store(|store| store.insert(key, record));
                self.metrics
                    .store
                    .thaw_rejected
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.record_drop(protocol_drop_reason(e));
                drop(guard);
                self.reap_evicted(evicted);
            }
        }
        out.return_outbox(outbox);
    }

    /// Freeze one idle host flow into the store, leaving a
    /// [`FlowState::Hibernated`] tombstone in the table. Caller holds
    /// the shard's write lock. Returns records evicted by the byte
    /// budget, which the caller must pass to
    /// [`EngineCore::reap_evicted`] *after* releasing the shard lock
    /// (victims can live in any shard).
    pub(super) fn freeze_flow(
        &self,
        shard: &mut Shard,
        key: FlowKey,
        now: Timestamp,
    ) -> Vec<(FlowKey, Vec<u8>)> {
        let Some(state) = shard.flows.get_mut(&key) else {
            return Vec::new();
        };
        let FlowState::Host(flow) = state else {
            return Vec::new();
        };
        // A flow mid-renewal holds fresh chains outside the record, and
        // one with a signer exchange outstanding cannot freeze: let it
        // finish, and bring the idle check back around a period later.
        let frozen = match flow.renewal {
            RenewalSlot::Offered(_) => None,
            _ => flow.assoc.freeze().ok(),
        };
        let Some(frozen) = frozen else {
            let idle_us = self.cfg.hibernate_after.unwrap_or(0);
            flow.idle_deadline = now.plus_micros(idle_us.max(1));
            shard.wheel.schedule(flow.idle_deadline, key);
            return Vec::new();
        };
        let adapt = flow.adapt.as_deref().map(FlowAdapt::freeze);
        let record = encode_frozen_record(&frozen, adapt.as_ref());
        let limiter = flow.limiter.clone();
        *state = FlowState::Hibernated { limiter };
        let evicted = self.with_store(|store| store.insert(key, record));
        self.metrics.store.frozen.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .store
            .flows_hibernated
            .fetch_add(1, Ordering::Relaxed);
        evicted
    }

    /// Remove the table tombstones of records the byte budget evicted.
    /// Must be called with no shard lock held.
    pub(super) fn reap_evicted(&self, evicted: Vec<(FlowKey, Vec<u8>)>) {
        for (key, _record) in evicted {
            let mut shard = self.shards.write(self.shard_index(&key));
            if matches!(shard.flows.get(&key), Some(FlowState::Hibernated { .. })) {
                self.reap_tombstone(&mut shard, &key);
            }
            self.metrics.store.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
}
