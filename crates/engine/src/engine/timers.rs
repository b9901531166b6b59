//! Timers: the lock-free deadline reads workers size their sleeps
//! from, and `poll` / `poll_shard`, which advance a shard's wheel and
//! let each fired flow decide which of its deadlines is actually due.

use super::*;

/// How long a due renewal waits before retrying when the signer is
/// mid-exchange or the pacer said not now (the latter adds the flow's
/// own jitter on top, so the herd spreads instead of re-stampeding).
const RENEWAL_RETRY_US: u64 = 100_000;

/// Handshake resend attempts before a connecting flow is abandoned.
pub(super) const HANDSHAKE_RETRIES: u32 = 10;

impl EngineCore {
    /// Earliest timer deadline across all shards, if any. Lock-free:
    /// reads the per-shard deadline caches maintained under the shard
    /// write locks.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Timestamp> {
        let min = self.deadlines.iter().map(|d| d.load(Ordering::Acquire));
        deadline_of(min.min()?)
    }

    /// Advance every shard's timers to `now`.
    pub fn poll(&self, now: Timestamp, rng: &mut dyn RngCore) -> EngineOutput {
        let mut out = EngineOutput::default();
        for idx in 0..self.shards.len() {
            self.poll_shard(idx, now, rng, &mut out);
        }
        out
    }

    /// Advance one shard's timers to `now` (workers poll only the
    /// shards they own).
    pub fn poll_shard(
        &self,
        idx: usize,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        // Lock-free fast path: nothing can be due before the cached
        // earliest deadline, and workers call this once per loop
        // iteration — skipping the write lock here is what keeps the
        // timer scan off the per-datagram cost.
        if self.deadlines[idx].load(Ordering::Acquire) > now.micros() {
            return;
        }
        let mut fired = Vec::new();
        let mut guard = self.shards.write(idx);
        let shard = &mut *guard;
        shard.wheel.advance(now, &mut fired);
        if fired.is_empty() {
            self.cache_deadline(shard);
            return;
        }
        self.metrics
            .timer_fires
            .fetch_add(fired.len() as u64, Ordering::Relaxed);
        let mut staged: Vec<(FlowKey, Response)> = Vec::new();
        let mut dead: Vec<FlowKey> = Vec::new();
        let mut to_freeze: Vec<FlowKey> = Vec::new();
        for key in fired {
            let Some(state) = shard.flows.get_mut(&key) else {
                continue;
            };
            match state {
                FlowState::Connecting {
                    wire,
                    backoff,
                    next_resend,
                    ..
                } => {
                    if now < *next_resend {
                        shard.wheel.schedule(*next_resend, key);
                        continue;
                    }
                    if backoff.attempts() > HANDSHAKE_RETRIES {
                        dead.push(key);
                        continue;
                    }
                    self.push_bytes(out, key.peer, wire);
                    *next_resend = now.plus_micros(backoff.next_delay(rng).as_micros() as u64);
                    shard.wheel.schedule(*next_resend, key);
                }
                FlowState::Host(flow) => {
                    if self.poll_host(&mut shard.wheel, key, flow, now, rng, &mut staged) {
                        to_freeze.push(key);
                    }
                }
                FlowState::Hibernated { .. } | FlowState::Relay { .. } => {}
            }
        }
        for key in dead {
            shard.flows.remove(&key);
            self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
        }
        let mut evicted = Vec::new();
        for key in to_freeze {
            evicted.extend(self.freeze_flow(shard, key, now));
        }
        self.cache_deadline(shard);
        drop(guard);
        self.reap_evicted(evicted);
        for (key, resp) in staged {
            self.stage(out, key, resp);
        }
        self.publish(out);
    }

    /// A wheel fire is just a wake-up; the host flow decides which of
    /// its deadlines — idle check, renewal, protocol poll — is actually
    /// due. Responses are queued on `staged` for the caller to stage
    /// once the shard lock is released. Returns `true` when the flow
    /// has been quiet for the whole hibernation period and should be
    /// frozen.
    fn poll_host(
        &self,
        wheel: &mut TimerWheel<FlowKey>,
        key: FlowKey,
        flow: &mut HostFlow,
        now: Timestamp,
        rng: &mut dyn RngCore,
        staged: &mut Vec<(FlowKey, Response)>,
    ) -> bool {
        if flow.poll_armed.is_some_and(|t| t <= now) {
            flow.poll_armed = None;
        }
        if let Some(idle_us) = self.cfg.hibernate_after {
            if flow.idle_deadline <= now {
                // The armed idle entry has fired; freeze if the flow
                // really has been quiet, otherwise re-arm at the honest
                // next idle deadline. A renewal due now does not keep a
                // quiet flow awake: it sleeps, and renews on the
                // datagram that wakes it.
                let idle_due = flow.last_seen.plus_micros(idle_us);
                if idle_due <= now
                    && flow.assoc.signer().is_idle()
                    && !matches!(flow.renewal, RenewalSlot::Offered(_))
                {
                    return true;
                }
                // Mid-exchange flows retry after a full quiet period;
                // active flows re-arm at last_seen + h.
                flow.idle_deadline = idle_due.max(now.plus_micros(idle_us.max(1)));
                wheel.schedule(flow.idle_deadline, key);
            }
        }
        let signer_idle = flow.assoc.signer().is_idle();
        if matches!(flow.renewal, RenewalSlot::Scheduled(due) if due <= now) {
            // Offer the renewal if the signer is free and the global
            // pacer admits it; otherwise push it back.
            flow.renewal = if !signer_idle {
                RenewalSlot::Scheduled(now.plus_micros(RENEWAL_RETRY_US))
            } else if !self.pacer.lock().admit(now.micros()) {
                self.metrics
                    .store
                    .renewals_deferred
                    .fetch_add(1, Ordering::Relaxed);
                let jitter = self.pacer.lock().jitter_us(key.stable_hash());
                RenewalSlot::Scheduled(now.plus_micros(RENEWAL_RETRY_US + jitter))
            } else {
                let mut resp = Response::default();
                let slot = self.offer_renewal(flow, now, rng, &mut resp.packets);
                if !resp.packets.is_empty() {
                    staged.push((key, resp));
                }
                slot
            };
            if let RenewalSlot::Scheduled(retry) = flow.renewal {
                wheel.schedule(retry, key);
            }
        }
        match flow.assoc.poll_at() {
            None => {}
            Some(due) if due > now => {
                flow.arm_poll(wheel, key);
            }
            Some(_) => {
                // Timer-driven: no datagram arrived, so the idle clock
                // is not refreshed and no renewal begins here.
                let mut resp = flow.assoc.poll(now);
                self.settle(wheel, key, flow, &mut resp, now, None);
                staged.push((key, resp));
            }
        }
        false
    }
}
