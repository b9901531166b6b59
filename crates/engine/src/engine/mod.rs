//! The sans-io multi-flow engine core.
//!
//! [`EngineCore`] multiplexes many ALPHA associations — host role *and*
//! relay role — behind one datagram entry point. Like the protocol
//! machines it wraps, it does no I/O and reads no clock: callers feed
//! `(source address, datagram bytes, Timestamp)` in and get datagrams
//! to transmit plus verified deliveries back in an [`EngineOutput`].
//! The same core is driven by the threaded UDP front end
//! (`alpha_transport::Engine`, which owns the sockets and the worker
//! loop), the benches, and the deterministic tests in `tests.rs`.
//!
//! ## Structure
//!
//! - Flows live in a [`Sharded`] table keyed by [`FlowKey`]. Shard
//!   selection hashes only the flow's *address* ([`addr_hash`] +
//!   [`jump_hash`]), so a packet never takes locks on two shards: the
//!   worker that receives a datagram judges it under that one shard's
//!   lock, and shard `s`'s timers belong to worker `s mod W`.
//! - Each shard embeds a [`TimerWheel`] holding every deadline its
//!   flows own: handshake resends, protocol retransmission, the idle
//!   check, paced chain renewal.
//! - S1/HS1 packets (the unverifiable flood vectors) pass a global
//!   byte-budget valve over all relay pre-signature buffers, and each
//!   flow has one S1 bucket: a host flow's [`S1Limiter`], charged on
//!   arrival, or a relay flow's in its [`AssociationRelay`], charged
//!   only once the chain element authenticates. A relayed datagram,
//!   and a host packet on a resident flow, is judged under one shard
//!   write lock and one flow-table lookup, admission included.
//! - Every event lands in an [`EngineMetrics`] registry snapshotable as
//!   JSON while traffic flows. The datagram path's own counters (packets
//!   and bytes in and out, verified S2s, the relay buffer gauge) are
//!   summed per call and published once when it returns.
//!
//! The code is split one file per seam, each extending
//! `impl EngineCore`; DESIGN.md §7 maps what each file owns and what
//! calls into it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use alpha_adapt::{FlowAdapt, FrozenAdapt};
use alpha_core::bootstrap::{self, AuthRequirement, Handshaker};
use alpha_core::renewal::RenewalOffer;
use alpha_core::{
    Association, AssociationRelay, DropReason, FrozenAssociation, Mode, Outbox, ProtocolError,
    RelayDecision, RelayViewOutcome, S1Limiter, S2BatchItem, SignerEvent, Timestamp,
};
use alpha_store::{FrozenStore, RenewalPacer};
use alpha_wire::limits::MAX_BUNDLE;
use alpha_wire::{bundle, BodyView, FramePool, HandshakeRole, PacketType, PacketView};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use rand::RngCore;

use crate::backoff::Backoff;
use crate::chainstore;
use crate::mesh;
use crate::metrics::{EngineMetrics, PeerCounters};
use crate::shard::{addr_hash, jump_hash, FlowKey, Sharded};
use crate::timer::TimerWheel;

// The files below are pieces of one `impl EngineCore`; each opens with
// `use super::*`, so this import block is written once for all of them.
mod config;
mod host;
mod ingress;
mod lifecycle;
mod mesh_ctl;
mod relay;
mod snapshot;
mod timers;

pub use config::{EngineConfig, EngineError, EngineOutput, Extracted, ExtractedIter};
use host::{ingest, protocol_drop_reason, HostFlow, RenewalSlot};
use mesh_ctl::MeshControl;

/// Per-flow state: one flow-table entry. Boxed so the table's entries
/// stay small. The three host states carry the flow's S1 / HS1 bucket
/// ([`EngineConfig::s1_bytes_per_sec`]) from state to state.
enum FlowState {
    /// Initiator waiting for HS2. `wire` is the HS1 for resends.
    Connecting {
        hs: Option<Box<Handshaker>>,
        wire: Vec<u8>,
        backoff: Backoff,
        started: Timestamp,
        next_resend: Timestamp,
        limiter: S1Limiter,
    },
    /// Established end-host association.
    Host(HostFlow),
    /// Hibernated host flow: the association is frozen in the engine's
    /// [`FrozenStore`]; this tombstone, only the flow's S1 bucket, is
    /// all that stays resident. The next datagram that *verifies*
    /// against the thawed association wakes it; anything else
    /// re-freezes the record untouched.
    Hibernated { limiter: S1Limiter },
    /// On-path verifier of one association between the canonical pair
    /// of endpoints. Its one S1 bucket is the association's own, which
    /// charges only S1s whose chain element authenticates.
    Relay {
        relay: Box<AssociationRelay>,
        /// Last observed pre-signature buffer total, for the valve
        /// gauge delta.
        buffered: usize,
    },
}

/// One shard: its slice of the flow table plus the timer wheel driving
/// those flows. A worker write-locks a shard only while touching it.
struct Shard {
    /// This shard's index, which is also its slot in
    /// [`EngineCore::deadlines`].
    idx: usize,
    flows: HashMap<FlowKey, FlowState>,
    wheel: TimerWheel<FlowKey>,
}

/// Per-worker earliest-deadline hints for readiness-driven worker
/// loops. Installed once by the transport front end
/// ([`EngineCore::install_worker_hints`]); absent in sans-io use.
///
/// `mins[w]` is a *conservative* lower bound on the earliest deadline
/// among the shards worker `w` polls: [`EngineCore::cache_deadline`]
/// pushes every new shard deadline into the polling worker's slot with
/// a `fetch_min` (so the hint can never be later than a real
/// deadline), and only the owning worker raises its own slot — by
/// rescanning its shards on a timer wake
/// ([`EngineCore::refresh_worker_deadline`]). A stale-low hint costs
/// one spurious wake; a too-high hint would delay a timer, and the
/// fetch_min/CAS split makes that unreachable.
struct WorkerHints {
    workers: u32,
    mins: Vec<AtomicU64>,
    /// Called (with the worker index) whenever a `fetch_min` actually
    /// lowered that worker's hint, so a readiness loop can re-arm its
    /// timerfd early. `None` under the fallback wait backend, which
    /// re-reads the hint every loop iteration anyway.
    waker: Option<Box<dyn Fn(u32) + Send + Sync>>,
}

/// The sans-io engine: sharded flow table + timers + metrics.
pub struct EngineCore {
    cfg: EngineConfig,
    shards: Sharded<Shard>,
    /// next-hop routing for relay role: `from → dst` (bidirectional
    /// entries). Read-only on the hot path.
    routes: RwLock<HashMap<SocketAddr, SocketAddr>>,
    /// Global relay pre-signature buffer gauge (bytes). Signed: deltas
    /// from concurrent shards may transiently dip below zero.
    buffered: AtomicI64,
    /// Reusable TX/RX frame buffers; each worker thread recycles
    /// through its own cache of them.
    pool: FramePool,
    /// Per-shard cached earliest timer deadline, in micros since the
    /// epoch (`u64::MAX` = no timers armed). Every wheel mutation
    /// happens under that shard's write lock and refreshes this cache
    /// before the lock drops, so workers can size their socket read
    /// timeouts and skip idle `poll_shard` calls without touching the
    /// lock at all — the deadline scan was a per-datagram cost.
    deadlines: Vec<AtomicU64>,
    /// Mesh peer set + standby list, when this core runs as a mesh
    /// relay. `mesh_active` mirrors `mesh.is_some()` so the hot path
    /// pays one relaxed load, not a lock, when the mesh is off.
    mesh: RwLock<Option<MeshControl>>,
    mesh_active: AtomicBool,
    /// Frozen records of hibernated flows. Lock order: a shard lock may
    /// be held when taking this mutex, never the reverse.
    store: Mutex<FrozenStore<FlowKey>>,
    /// Global renewal token bucket + per-flow jitter source.
    pacer: Mutex<RenewalPacer>,
    /// True once any relay route exists. Host-only engines (the common
    /// deployment) skip the `routes` read lock on every datagram (see
    /// [`EngineCore::route_of`]).
    has_routes: AtomicBool,
    /// Per-worker min-deadline hints (see [`WorkerHints`]); empty until
    /// a threaded front end installs them.
    hints: OnceLock<WorkerHints>,
    metrics: EngineMetrics,
}

/// Order addresses so both directions of a relay pair map to one flow.
fn addr_rank(a: &SocketAddr) -> (u8, u128, u16) {
    match a {
        SocketAddr::V4(v) => (4, u128::from(u32::from_be_bytes(v.ip().octets())), v.port()),
        SocketAddr::V6(v) => (6, u128::from_be_bytes(v.ip().octets()), v.port()),
    }
}

fn canonical(a: SocketAddr, b: SocketAddr) -> SocketAddr {
    if addr_rank(&a) <= addr_rank(&b) {
        a
    } else {
        b
    }
}

/// The fields of a run of S2 views, as the batched verifiers take them,
/// borrowed from the views; entries past `views.len()` repeat the first.
/// Only for runs the intake grouped (`ingress` for hosts,
/// `relay_datagram` for relays): at most a bundle of views, each decoded
/// as an S2.
fn s2_run_items<'a>(views: &'a [Option<PacketView<'_>>]) -> [S2BatchItem<'a>; MAX_BUNDLE] {
    // Allowlist: both callers group only views that decoded as S2s.
    let item = |k: usize| {
        views[k]
            .as_ref()
            .and_then(S2BatchItem::from_view)
            .expect("a grouped S2 run")
    };
    let mut items = [item(0); MAX_BUNDLE];
    for (k, slot) in items.iter_mut().enumerate().take(views.len()).skip(1) {
        *slot = item(k);
    }
    items
}

/// The worker (of `workers` total) that polls `shard`'s timers: shard
/// `s` belongs to worker `s mod workers`, so every wheel has exactly
/// one poller.
fn poller_of(shard: usize, workers: u32) -> u32 {
    shard as u32 % workers.max(1)
}

/// A cached deadline word as a timestamp (`u64::MAX` = none armed).
fn deadline_of(v: u64) -> Option<Timestamp> {
    (v != u64::MAX).then_some(Timestamp::from_micros(v))
}

impl EngineCore {
    /// Build an engine with no flows and no routes.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> EngineCore {
        let shards = Sharded::new(cfg.shards, |idx| Shard {
            idx,
            flows: HashMap::new(),
            wheel: TimerWheel::with_default_tick(Timestamp::ZERO),
        });
        let deadlines = (0..cfg.shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        EngineCore {
            cfg,
            shards,
            routes: RwLock::new(HashMap::new()),
            buffered: AtomicI64::new(0),
            pool: FramePool::new(2048, 4096),
            deadlines,
            mesh: RwLock::new(None),
            mesh_active: AtomicBool::new(false),
            store: Mutex::new(FrozenStore::new(cfg.frozen_budget)),
            pacer: Mutex::new(RenewalPacer::new(cfg.pacer)),
            has_routes: AtomicBool::new(false),
            hints: OnceLock::new(),
            metrics: EngineMetrics::new(),
        }
    }

    /// Refresh a shard's cached earliest deadline from its wheel.
    /// Callers must hold the shard's write lock (proven by the `&mut
    /// Shard`): the lock serialises all wheel mutations, so these
    /// stores are totally ordered and the cache never goes stale —
    /// at worst a concurrent reader sees the previous value and
    /// revisits one socket-timeout later.
    fn cache_deadline(&self, shard: &mut Shard) {
        let v = shard.wheel.next_deadline().map_or(u64::MAX, |t| t.micros());
        self.deadlines[shard.idx].store(v, Ordering::Release);
        self.note_deadline(shard.idx, v);
    }

    /// Fold shard `idx`'s deadline `v` into the polling worker's hint,
    /// waking that worker if the hint actually moved earlier. No-op
    /// until [`EngineCore::install_worker_hints`] runs.
    fn note_deadline(&self, idx: usize, v: u64) {
        let Some(h) = self.hints.get() else { return };
        let w = poller_of(idx, h.workers);
        let old = h.mins[w as usize].fetch_min(v, Ordering::AcqRel);
        if v < old {
            if let Some(waker) = &h.waker {
                waker(w);
            }
        }
    }

    /// Install per-worker min-deadline tracking for `workers` polling
    /// threads, with an optional waker called when a worker's earliest
    /// deadline moves forward (see [`WorkerHints`]). First caller wins;
    /// later calls are ignored (one threaded front end per core).
    pub fn install_worker_hints(
        &self,
        workers: u32,
        waker: Option<Box<dyn Fn(u32) + Send + Sync>>,
    ) {
        let workers = workers.max(1);
        let hints = WorkerHints {
            workers,
            mins: (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            waker,
        };
        if self.hints.set(hints).is_err() {
            return;
        }
        // Timers armed before installation (e.g. flows added during
        // setup) were never noted; absorb every shard's current cache.
        for idx in 0..self.deadlines.len() {
            self.note_deadline(idx, self.deadlines[idx].load(Ordering::Acquire));
        }
    }

    /// Whether `worker` (of `workers` total) polls `shard`'s timers:
    /// shard `s` belongs to worker `s mod workers`.
    #[must_use]
    pub fn polls_shard(&self, shard: usize, worker: u32, workers: u32) -> bool {
        poller_of(shard, workers) == worker
    }

    /// The conservative earliest deadline among the shards `worker`
    /// polls, from the installed hints — O(1), not O(shards). `None`
    /// when hints are absent or no timer is armed.
    #[must_use]
    pub fn worker_next_deadline(&self, worker: u32) -> Option<Timestamp> {
        let h = self.hints.get()?;
        deadline_of(h.mins[worker as usize].load(Ordering::Acquire))
    }

    /// Recompute `worker`'s hint by scanning its shards' deadline
    /// caches — the only operation allowed to *raise* a hint, so only
    /// the worker itself calls it, after its timers fired. Returns the
    /// resulting deadline. The scan races concurrent `note_deadline`
    /// lowers; the CAS from the pre-scan value keeps whichever is
    /// earlier, so the hint stays conservative.
    pub fn refresh_worker_deadline(&self, worker: u32) -> Option<Timestamp> {
        let h = self.hints.get()?;
        let slot = &h.mins[worker as usize];
        let observed = slot.load(Ordering::Acquire);
        let mut min = u64::MAX;
        for idx in 0..self.deadlines.len() {
            if self.polls_shard(idx, worker, h.workers) {
                min = min.min(self.deadlines[idx].load(Ordering::Acquire));
            }
        }
        let v = match slot.compare_exchange(observed, min, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => min,
            // A concurrent lower won the slot; it is ≤ every deadline
            // noted since `observed`, so it stands.
            Err(cur) => cur,
        };
        deadline_of(v)
    }

    /// The engine's frame pool. RX loops should fill checkouts from
    /// this pool so receive buffers recycle alongside TX frames.
    #[must_use]
    pub fn frame_pool(&self) -> &FramePool {
        &self.pool
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Register a bidirectional relay route: datagrams from `a` forward
    /// to `b` and vice versa, through per-association relay verifiers.
    pub fn add_route(&self, a: SocketAddr, b: SocketAddr) {
        let mut routes = self.routes.write();
        routes.insert(a, b);
        routes.insert(b, a);
        self.has_routes.store(true, Ordering::Release);
    }

    /// Next hop for traffic *from* `from`, if it is routed. Host-only
    /// engines never have routes: one load instead of a read lock on
    /// every received datagram.
    fn route_of(&self, from: SocketAddr) -> Option<SocketAddr> {
        if !self.has_routes.load(Ordering::Acquire) {
            return None;
        }
        self.routes.read().get(&from).copied()
    }

    /// Shard index of traffic *from* this address (resolving relay
    /// routes to the canonical pair endpoint), known without parsing
    /// the datagram.
    #[must_use]
    pub fn shard_of_source(&self, from: SocketAddr) -> usize {
        let addr = self.route_of(from).map_or(from, |dst| canonical(from, dst));
        self.shard_of_addr(&addr)
    }

    /// Contended shard-lock acquisitions since start (see
    /// [`Sharded::contended`]): how often two workers met in one shard.
    #[must_use]
    pub fn lock_contended(&self) -> u64 {
        self.shards.contended()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Flows resident across all shards.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().flows.len()).sum()
    }

    /// Current global relay buffer gauge in bytes.
    #[must_use]
    pub fn buffered_bytes(&self) -> i64 {
        self.buffered.load(Ordering::Relaxed)
    }

    fn shard_index(&self, key: &FlowKey) -> usize {
        self.shard_of_addr(&key.peer)
    }

    fn shard_of_addr(&self, addr: &SocketAddr) -> usize {
        jump_hash(addr_hash(addr), self.shards.len() as u32) as usize
    }

    /// Publish what `out`'s call counted on its datagram path (see
    /// [`config::Pending`]): one atomic add per counter that moved.
    /// Every public call that fills an output runs this before it
    /// returns.
    fn publish(&self, out: &mut EngineOutput) {
        let p = std::mem::take(&mut out.pending);
        let m = &self.metrics;
        for (counter, n) in [
            (&m.packets_in, p.packets_in),
            (&m.bytes_in, p.bytes_in),
            (&m.packets_out, p.packets_out),
            (&m.bytes_out, p.bytes_out),
            (&m.s2_verified, p.s2_verified),
        ] {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        if p.buffered != 0 {
            self.buffered.fetch_add(p.buffered, Ordering::Relaxed);
        }
    }

    /// Stage encoded packets for `dst`, framed as they always have
    /// been: one packet is a datagram of its own; several go out in
    /// bundles of up to `MAX_BUNDLE` packets, a trailing single one
    /// bundled too. Each bundle is spliced from the packets' bytes into a
    /// pooled frame ([`bundle::frame_slices_into`]), the one copy between
    /// an encoded packet and the socket.
    fn push_packets<'p>(
        &self,
        out: &mut EngineOutput,
        dst: SocketAddr,
        packets: impl ExactSizeIterator<Item = &'p [u8]> + Clone,
    ) {
        if packets.len() == 1 {
            packets.for_each(|one| self.push_bytes(out, dst, one));
            return;
        }
        let mut rest = packets;
        while rest.len() > 0 {
            let mut chunk: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
            let n = rest.len().min(MAX_BUNDLE);
            for slot in &mut chunk[..n] {
                // Allowlist: `n` is at most what is left.
                *slot = rest.next().expect("a packet left");
            }
            let mut frame = self.pool.checkout();
            // Only a packet longer than the bundle's u16 length prefix
            // (a 64 KiB S2) can be refused; the frame is then as checked
            // out and the chunk goes out unbundled.
            match bundle::frame_slices_into(&chunk[..n], frame.buf_mut()) {
                Ok(()) => out.push_datagram(dst, frame),
                Err(_) => chunk[..n]
                    .iter()
                    .for_each(|one| self.push_bytes(out, dst, one)),
            }
        }
    }

    /// Stage one encoded packet (or a handshake resend) as a datagram of
    /// its own, copied into a pooled frame.
    fn push_bytes(&self, out: &mut EngineOutput, dst: SocketAddr, bytes: &[u8]) {
        let mut frame = self.pool.checkout();
        frame.buf_mut().extend_from_slice(bytes);
        out.push_datagram(dst, frame);
    }
}

#[cfg(test)]
mod tests;
