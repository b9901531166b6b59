//! Engine metrics: lock-free counters and fixed-bucket histograms,
//! snapshotable as JSON.
//!
//! Workers on the hot path touch only relaxed atomics — a snapshot
//! (CLI `engine stats`, bench reporters) walks the same atomics without
//! stopping traffic, so the numbers are a consistent-enough view for
//! operations, not a linearizable one.
//!
//! Each block of metrics is declared once, in a `metrics!` table: a
//! row is a field's docs, name and type, and the block's JSON carries
//! every row under its field name.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alpha_core::DropReason;
use parking_lot::Mutex;
use serde::Value;

/// Every [`DropReason`] with its stable label, in declaration order, so
/// `reason as usize` indexes it.
const DROPS: [(DropReason, &str); 7] = [
    (DropReason::BadChainElement, "bad-chain-element"),
    (DropReason::BadMac, "bad-mac"),
    (DropReason::Unsolicited, "unsolicited"),
    (DropReason::BadVerdict, "bad-verdict"),
    (DropReason::RateLimited, "rate-limited"),
    (DropReason::UnknownAssociation, "unknown-association"),
    (DropReason::Malformed, "malformed"),
];

const _: () = {
    let mut i = 0;
    while i < DROPS.len() {
        assert!(DROPS[i].0 as usize == i, "DROPS is out of order");
        i += 1;
    }
};

/// Stable label for a [`DropReason`]: its key in the snapshot's `drops`
/// object.
#[must_use]
pub fn drop_label(reason: DropReason) -> &'static str {
    DROPS[reason as usize].1
}

/// How a metrics row reads in the JSON snapshot.
trait Metric {
    fn json(&self) -> Value;
}

impl Metric for AtomicU64 {
    fn json(&self) -> Value {
        Value::U64(self.load(Ordering::Relaxed))
    }
}

/// Blocks whose JSON is their `snapshot`.
macro_rules! snapshot_metric {
    ($($block:ty),+) => {
        $(impl Metric for $block {
            fn json(&self) -> Value {
                self.snapshot()
            }
        })+
    };
}

snapshot_metric!(Histogram, IoMetrics, MeshMetrics, StoreMetrics);

/// Declares a block of metrics once.
///
/// A row is a field's docs and name, then its type; the field is `pub`
/// and `rows` returns it under its name, an `AtomicU64` as its value
/// and anything else as its snapshot. Fields after `;` are the block's
/// own and stay out of `rows`.
///
/// A block of bare names followed by `pub struct Totals;` declares
/// per-worker `AtomicU64` counters and their plain-`u64` sum: `load`
/// reads one block, `add` sums, and the totals' `rows` are the JSON.
macro_rules! metrics {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[doc = $doc:literal])+ $field:ident,)+
        }
        $(#[$tmeta:meta])*
        pub struct $totals:ident;
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[doc = $doc])+ pub $field: AtomicU64,)+
        }

        $(#[$tmeta])*
        pub struct $totals {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl $name {
            fn load(&self) -> $totals {
                $totals { $($field: self.$field.load(Ordering::Relaxed),)+ }
            }
        }

        impl $totals {
            fn add(&mut self, other: &$totals) {
                $(self.$field += other.$field;)+
            }

            fn rows(&self) -> Vec<(String, Value)> {
                vec![$((stringify!($field).to_owned(), Value::U64(self.$field)),)+]
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[doc = $doc:literal])+ $field:ident: $ty:ty,)+
            $(; $($(#[$xmeta:meta])* $xvis:vis $xfield:ident: $xty:ty,)+)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[doc = $doc])+ pub $field: $ty,)+
            $($($(#[$xmeta])* $xvis $xfield: $xty,)+)?
        }

        impl $name {
            fn rows(&self) -> Vec<(String, Value)> {
                vec![$((stringify!($field).to_owned(), Metric::json(&self.$field)),)+]
            }
        }
    };
}

/// A fixed-bucket latency histogram (microsecond samples).
///
/// Bucket upper bounds follow a 1-2-5 decade ladder from 1 µs to
/// 10 s; the last bucket is unbounded. Fixed buckets keep `record` to
/// one relaxed fetch-add with no allocation.
pub struct Histogram {
    buckets: [AtomicU64; Histogram::BOUNDS.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Upper bounds (µs, inclusive) of each bounded bucket: one 1-2-5
    /// ladder from 1 µs (a hash-chain thaw or a handshake is tens of µs)
    /// to 10 s.
    pub const BOUNDS: [u64; 22] = [
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
        200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
    ];

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value_us: u64) {
        let idx = Self::BOUNDS.partition_point(|&b| b < value_us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(value_us, Ordering::Relaxed);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (µs), 0 when empty.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate quantile from bucket boundaries (upper bound of the
    /// bucket holding the q-th sample).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::BOUNDS.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Snapshot as a JSON object.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let buckets: Vec<Value> = self.buckets.iter().map(Metric::json).collect();
        Value::object([
            ("count".to_owned(), self.count.json()),
            ("sum_us".to_owned(), self.sum_us.json()),
            ("mean_us".to_owned(), Value::F64(self.mean_us())),
            ("p50_us".to_owned(), Value::U64(self.quantile_us(0.50))),
            ("p99_us".to_owned(), Value::U64(self.quantile_us(0.99))),
            ("buckets".to_owned(), Value::Array(buckets)),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

metrics! {
    /// Socket-I/O counters for one worker (or one transport endpoint).
    ///
    /// The I/O layer lives in `alpha-transport`, but the counters live here
    /// so they ride the same snapshot path as every other engine metric:
    /// each worker registers one `IoWorker` via
    /// [`IoMetrics::register_worker`] and bumps it from its recv/send loop.
    #[derive(Default)]
    pub struct IoWorker {
        /// Receive syscalls issued (`recvmmsg` or `recv_from`), including
        /// ones that returned no data.
        recv_calls,
        /// Send syscalls issued (`sendmmsg` or `send_to`).
        send_calls,
        /// Datagrams received.
        datagrams_in,
        /// Datagrams sent.
        datagrams_out,
        /// Receive syscalls that returned empty (timeout / EAGAIN).
        eagain,
        /// `sendmmsg` calls that accepted fewer datagrams than offered and
        /// forced a resubmission of the tail.
        partial_sends,
        /// Send-side transient-failure resubmissions (EAGAIN / ENOBUFS /
        /// EINTR): a datagram handed back by the kernel and retried. These
        /// were silent spins before this counter existed.
        send_retries,
        /// Coalesced messages sent: runs of two or more datagrams that left
        /// as one `UDP_SEGMENT` message (one trip through the kernel's
        /// UDP/IP path instead of one per datagram).
        gso_sends,
        /// Datagrams that left inside coalesced messages (also counted in
        /// `datagrams_out`).
        gso_segments,
        /// Coalesced messages received: `UDP_GRO` frames carrying two or
        /// more datagrams.
        gro_recvs,
        /// Datagrams that arrived inside coalesced messages (also counted
        /// in `datagrams_in`).
        gro_segments,
        /// Coalesced sends the kernel refused (route MTU, no checksum
        /// offload, old kernel): the run went out uncoalesced and the
        /// socket stopped coalescing. At most one per socket.
        gso_refused,
        /// Wait syscalls issued around the datagram path: `epoll_wait`
        /// returns under the epoll wait. Zero under the blocking wait,
        /// where the receive syscall *is* the wait (already in
        /// `recv_calls`).
        wait_calls,
        /// Times this worker's wait returned (one blocking receive on the
        /// fallback wait backend, one `epoll_wait` return on the readiness
        /// backend). An idle engine's wakeup *rate* is the wasted-CPU
        /// measure the readiness backend exists to shrink.
        wakeups,
        /// Failures arming the worker's wait (`set_read_timeout` on the
        /// fallback backend, `timerfd_settime` on the readiness backend).
        /// Nonzero means timers are running on the backstop timeout only.
        read_timeout_errors,
    }

    /// Summed [`IoWorker`] counters across every registered worker.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IoTotals;
}

impl IoTotals {
    /// Datagrams received per receive syscall (the batching win); 0.0
    /// when no receive syscalls were made.
    #[must_use]
    pub fn datagrams_per_recv(&self) -> f64 {
        if self.recv_calls == 0 {
            0.0
        } else {
            self.datagrams_in as f64 / self.recv_calls as f64
        }
    }

    /// Kernel crossings per datagram moved: every receive, send and
    /// wait syscall over every datagram in or out (portable loop ~1,
    /// mmsg ~1/batch). 0.0 before any datagrams move.
    #[must_use]
    pub fn syscalls_per_datagram(&self) -> f64 {
        let datagrams = self.datagrams_in + self.datagrams_out;
        if datagrams == 0 {
            0.0
        } else {
            (self.recv_calls + self.send_calls + self.wait_calls) as f64 / datagrams as f64
        }
    }
}

/// Registry of per-worker socket-I/O counters plus the UDP backend the
/// transport selected (`mmsg` or `fallback`; `none` before any I/O
/// layer attaches, e.g. in sans-io tests).
#[derive(Default)]
pub struct IoMetrics {
    backend: Mutex<Option<&'static str>>,
    /// The wait each worker loop installed, in the order they did.
    waits: Mutex<Vec<&'static str>>,
    workers: Mutex<Vec<Arc<IoWorker>>>,
}

impl IoMetrics {
    /// Record which UDP backend serves this engine.
    pub fn set_backend(&self, name: &'static str) {
        *self.backend.lock() = Some(name);
    }

    /// The recorded UDP backend name, `"none"` when no I/O layer has
    /// attached.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend.lock().unwrap_or("none")
    }

    /// Record the wait one worker loop installed (`"epoll"` or
    /// `"fallback"`), once it has installed it.
    pub fn record_worker_wait(&self, name: &'static str) {
        self.waits.lock().push(name);
    }

    /// The wait the engine's workers block in, from what each recorded:
    /// `"epoll"` when every one runs the epoll wait, `"fallback"` when
    /// none does, `"mixed"` otherwise; `"none"` when no worker loop has
    /// attached (sans-io tests, single-threaded endpoints).
    #[must_use]
    pub fn wait_backend_name(&self) -> &'static str {
        let waits = self.waits.lock();
        let epoll = waits.iter().filter(|&&w| w == "epoll").count();
        match (waits.len(), epoll) {
            (0, _) => "none",
            (n, e) if e == n => "epoll",
            (_, 0) => "fallback",
            _ => "mixed",
        }
    }

    /// Register (and return) a fresh per-worker counter block.
    #[must_use]
    pub fn register_worker(&self) -> Arc<IoWorker> {
        let w = Arc::new(IoWorker::default());
        self.workers.lock().push(Arc::clone(&w));
        w
    }

    /// Adopt a counter block that predates this registry (e.g. one that
    /// counted a host handshake before the engine core existed).
    pub fn adopt_worker(&self, worker: Arc<IoWorker>) {
        self.workers.lock().push(worker);
    }

    /// Sum every registered worker's counters.
    #[must_use]
    pub fn totals(&self) -> IoTotals {
        let mut t = IoTotals::default();
        for w in self.workers.lock().iter() {
            t.add(&w.load());
        }
        t
    }

    /// Snapshot as a JSON object: backend, totals, the
    /// datagrams-per-syscall ratio, and one row per worker.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let t = self.totals();
        let per_worker = self
            .workers
            .lock()
            .iter()
            .map(|w| Value::object(w.load().rows()))
            .collect();
        let name = |s: &str| Value::Str(s.to_owned());
        Value::object(t.rows().into_iter().chain([
            ("udp_backend".to_owned(), name(self.backend_name())),
            ("wait_backend".to_owned(), name(self.wait_backend_name())),
            (
                "datagrams_per_recv_call".to_owned(),
                Value::F64(t.datagrams_per_recv()),
            ),
            (
                "syscalls_per_datagram".to_owned(),
                Value::F64(t.syscalls_per_datagram()),
            ),
            ("per_worker".to_owned(), Value::Array(per_worker)),
        ]))
    }
}

/// Peer-health codes stored in [`PeerCounters::health`]: no probe
/// verdict yet.
pub const HEALTH_UNKNOWN: u64 = 0;
/// Peer answered its most recent probe within the RTO.
pub const HEALTH_UP: u64 = 1;
/// Peer missed at least one probe; not yet declared down.
pub const HEALTH_SUSPECT: u64 = 2;
/// Peer missed enough consecutive probes to be declared down.
pub const HEALTH_DOWN: u64 = 3;

/// Stable label for a [`PeerCounters::health`] code.
#[must_use]
pub fn health_label(code: u64) -> &'static str {
    match code {
        HEALTH_UP => "up",
        HEALTH_SUSPECT => "suspect",
        HEALTH_DOWN => "down",
        _ => "unknown",
    }
}

metrics! {
    /// Per-peer counters for one registered mesh peer.
    ///
    /// The datapath (engine core) bumps the datagram counters; the mesh
    /// supervisor (in `alpha-mesh`) owns the probe counters and mirrors the
    /// registry's health verdict and smoothed RTT here so `engine stats`
    /// can report them without a second wire protocol.
    #[derive(Default)]
    pub struct PeerCounters {
        /// Datagrams accepted from this peer.
        datagrams_in: AtomicU64,
        /// Verified datagrams forwarded to this peer.
        datagrams_out: AtomicU64,
        /// Liveness probes sent to this peer.
        probes_sent: AtomicU64,
        /// Probe echoes received from this peer.
        pongs_received: AtomicU64,
        /// Smoothed probe round-trip time (µs), 0 before the first sample.
        srtt_us: AtomicU64,
        ;
        /// Latest health verdict (`HEALTH_*` code).
        pub health: AtomicU64,
    }
}

metrics! {
    /// Registry of mesh forwarding counters: aggregate hop counters plus
    /// one [`PeerCounters`] row per registered peer. Mirrors the
    /// [`IoMetrics`] shape so mesh state rides the ordinary stats snapshot.
    #[derive(Default)]
    pub struct MeshMetrics {
        /// Verified datagrams re-emitted toward a downstream peer (hop
        /// traversals through this node).
        forwarded: AtomicU64,
        /// Datagrams rejected because the source is not a registered
        /// upstream peer (the static-relay-set bypass defense).
        upstream_rejects: AtomicU64,
        /// Path failovers applied (live flows re-routed to another peer).
        failovers: AtomicU64,
        /// Replicated handshakes absorbed learn-only from an upstream.
        replicas_absorbed: AtomicU64,
        ;
        peers: Mutex<Vec<(std::net::SocketAddr, Arc<PeerCounters>)>>,
    }
}

impl MeshMetrics {
    /// Register (and return) the counter row for `peer`. Re-registering
    /// an address returns the existing row.
    pub fn register_peer(&self, peer: std::net::SocketAddr) -> Arc<PeerCounters> {
        let mut peers = self.peers.lock();
        if let Some((_, row)) = peers.iter().find(|(a, _)| *a == peer) {
            return Arc::clone(row);
        }
        let row = Arc::new(PeerCounters::default());
        peers.push((peer, Arc::clone(&row)));
        row
    }

    /// Registered peer count.
    #[must_use]
    pub fn peer_count(&self) -> usize {
        self.peers.lock().len()
    }

    /// Snapshot as a JSON object with aggregate counters and a
    /// `per_peer` array.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let per_peer = self
            .peers
            .lock()
            .iter()
            .map(|(addr, c)| {
                let health = health_label(c.health.load(Ordering::Relaxed));
                Value::object(c.rows().into_iter().chain([
                    ("peer".to_owned(), Value::Str(addr.to_string())),
                    ("health".to_owned(), Value::Str(health.to_owned())),
                ]))
            })
            .collect();
        let per_peer = Value::Array(per_peer);
        Value::object(
            self.rows()
                .into_iter()
                .chain([("per_peer".to_owned(), per_peer)]),
        )
    }
}

metrics! {
    /// Flow lifecycle store counters: hibernation freezes, wakes and
    /// evictions, plus the frozen-byte gauge and the wake latency
    /// histogram. Mirrors the [`IoMetrics`] / [`MeshMetrics`] shape so the
    /// store section rides the ordinary stats snapshot.
    #[derive(Default)]
    pub struct StoreMetrics {
        /// Idle host flows frozen into the store.
        frozen: AtomicU64,
        /// Hibernated flows rehydrated by an arriving datagram.
        thawed: AtomicU64,
        /// Frozen records evicted by the store's byte budget (those flows
        /// are gone for good; the next datagram is a fresh handshake).
        evicted: AtomicU64,
        /// Datagrams that failed verification against a thawed association
        /// and therefore did NOT wake the flow (the record was re-frozen).
        thaw_rejected: AtomicU64,
        /// Paced chain renewals started.
        renewals_started: AtomicU64,
        /// Renewal deadlines deferred by the global token bucket.
        renewals_deferred: AtomicU64,
        /// Gauge: bytes currently charged against the frozen-record budget.
        bytes_frozen: AtomicU64,
        /// Gauge: flows currently hibernated.
        flows_hibernated: AtomicU64,
        /// Wake-from-hibernate latency (decode + thaw + first dispatch).
        thaw_latency_us: Histogram,
    }
}

impl StoreMetrics {
    /// Snapshot as a JSON object.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        Value::object(self.rows())
    }
}

metrics! {
    /// The engine's metrics registry. One instance per engine, shared by
    /// every worker through an `Arc`.
    #[derive(Default)]
    pub struct EngineMetrics {
        /// Datagrams handed to the engine.
        packets_in: AtomicU64,
        /// Datagrams the engine emitted.
        packets_out: AtomicU64,
        /// Bytes handed to the engine.
        bytes_in: AtomicU64,
        /// Bytes the engine emitted.
        bytes_out: AtomicU64,
        /// S2 payloads verified (host deliveries + relay extractions).
        s2_verified: AtomicU64,
        /// Packets rejected by protocol verification (any drop reason that
        /// implies a failed integrity check).
        verify_failures: AtomicU64,
        /// Completed bootstrap handshakes.
        handshakes: AtomicU64,
        /// Flows currently resident in the flow table.
        flows_active: AtomicU64,
        /// S1 / HS1 packets a host flow's admission bucket refused
        /// ([`EngineConfig::s1_bytes_per_sec`](crate::EngineConfig::s1_bytes_per_sec)).
        admission_drops: AtomicU64,
        /// Packets refused by the global byte-budget valve.
        backpressure_drops: AtomicU64,
        /// Timer-wheel entries fired.
        timer_fires: AtomicU64,
        /// Datagrams that did not parse as ALPHA traffic.
        parse_errors: AtomicU64,
        /// Controller decision changes (mode or bundle size) across all
        /// adaptive host flows.
        adapt_switches: AtomicU64,
        /// Handshake completion latency.
        handshake_us: Histogram,
        /// S1→A1 round-trip latency observed by host flows.
        rtt_us: Histogram,
        /// Per-worker socket-I/O counters (filled by the transport layer).
        io: IoMetrics,
        /// Mesh forwarding counters (filled when the core runs as a mesh
        /// relay; all-zero otherwise).
        mesh: MeshMetrics,
        /// Flow lifecycle store counters (hibernation; all-zero when
        /// hibernation is disabled).
        store: StoreMetrics,
        ;
        drops: [AtomicU64; DROPS.len()],
    }
}

impl EngineMetrics {
    /// Fresh registry.
    #[must_use]
    pub fn new() -> EngineMetrics {
        EngineMetrics::default()
    }

    /// Record a relay/protocol drop by cause.
    pub fn record_drop(&self, reason: DropReason) {
        self.drops[reason as usize].fetch_add(1, Ordering::Relaxed);
        if matches!(
            reason,
            DropReason::BadChainElement | DropReason::BadMac | DropReason::BadVerdict
        ) {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops recorded for `reason`.
    #[must_use]
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.drops[reason as usize].load(Ordering::Relaxed)
    }

    /// Total drops across causes.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().map(|d| d.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot every counter as a JSON object.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let drops = DROPS.iter().zip(&self.drops);
        let drops = drops.map(|((_, label), n)| ((*label).to_owned(), n.json()));
        let drops = ("drops".to_owned(), Value::object(drops));
        Value::object(self.rows().into_iter().chain([drops]))
    }

    /// Snapshot rendered as a JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        // Allowlist: serialising an in-memory value we just built; no
        // network input reaches this.
        serde_json::to_string(&self.snapshot()).expect("metrics serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0, 3, 50, 150, 150, 900, 40_000, 9_000_000, 60_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert!(h.mean_us() > 0.0);
        // The ladder resolves below 100 µs: 0 lands in the first bucket,
        // 3 in (2, 5], 50 in (20, 50].
        assert_eq!(h.quantile_us(0.01), 1);
        assert_eq!(h.quantile_us(0.2), 5);
        assert_eq!(h.quantile_us(0.3), 50);
        assert_eq!(h.quantile_us(0.5), 200);
        assert_eq!(h.quantile_us(1.0), u64::MAX); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.get("count").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn drops_split_by_reason_and_count_verify_failures() {
        let m = EngineMetrics::new();
        m.record_drop(DropReason::BadMac);
        m.record_drop(DropReason::BadMac);
        m.record_drop(DropReason::RateLimited);
        assert_eq!(m.drops(DropReason::BadMac), 2);
        assert_eq!(m.drops(DropReason::RateLimited), 1);
        assert_eq!(m.total_drops(), 3);
        assert_eq!(m.verify_failures.load(Ordering::Relaxed), 2);
        let snap = m.snapshot();
        let drops = snap.get("drops").unwrap();
        assert_eq!(drops.get("bad-mac").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn io_metrics_sum_workers_and_report_ratio() {
        let m = EngineMetrics::new();
        assert_eq!(m.io.backend_name(), "none");
        m.io.set_backend("mmsg");
        let a = m.io.register_worker();
        let b = m.io.register_worker();
        a.recv_calls.fetch_add(2, Ordering::Relaxed);
        a.datagrams_in.fetch_add(20, Ordering::Relaxed);
        b.recv_calls.fetch_add(2, Ordering::Relaxed);
        b.datagrams_in.fetch_add(12, Ordering::Relaxed);
        b.partial_sends.fetch_add(1, Ordering::Relaxed);
        a.gso_sends.fetch_add(1, Ordering::Relaxed);
        a.gso_segments.fetch_add(16, Ordering::Relaxed);
        b.gso_sends.fetch_add(2, Ordering::Relaxed);
        b.gso_segments.fetch_add(5, Ordering::Relaxed);
        b.gro_recvs.fetch_add(1, Ordering::Relaxed);
        b.gro_segments.fetch_add(12, Ordering::Relaxed);
        b.gso_refused.fetch_add(1, Ordering::Relaxed);
        let t = m.io.totals();
        assert_eq!(t.recv_calls, 4);
        assert_eq!(t.datagrams_in, 32);
        assert_eq!(t.partial_sends, 1);
        assert_eq!((t.gso_sends, t.gso_segments), (3, 21));
        assert_eq!((t.gro_recvs, t.gro_segments, t.gso_refused), (1, 12, 1));
        assert!((t.datagrams_per_recv() - 8.0).abs() < 1e-9);
        let snap = m.snapshot();
        let io = snap.get("io").unwrap();
        assert_eq!(io.get("udp_backend").unwrap().as_str(), Some("mmsg"));
        assert_eq!(io.get("datagrams_in").unwrap().as_u64(), Some(32));
        let Some(Value::Array(rows)) = io.get("per_worker") else {
            panic!("per_worker array");
        };
        assert_eq!(rows.len(), 2);
        // The segment-offload counters ride both levels of the snapshot.
        for (key, total, of_b) in [
            ("gso_sends", 3, 2),
            ("gso_segments", 21, 5),
            ("gro_recvs", 1, 1),
            ("gro_segments", 12, 12),
            ("gso_refused", 1, 1),
        ] {
            assert_eq!(io.get(key).unwrap().as_u64(), Some(total), "{key}");
            assert_eq!(rows[1].get(key).unwrap().as_u64(), Some(of_b), "{key}");
        }
    }

    #[test]
    fn mesh_metrics_register_dedupes_and_snapshot_rows() {
        let m = EngineMetrics::new();
        let addr: std::net::SocketAddr = "127.0.0.1:9001".parse().unwrap();
        let row = m.mesh.register_peer(addr);
        let again = m.mesh.register_peer(addr);
        assert_eq!(m.mesh.peer_count(), 1, "re-registration dedupes");
        again.datagrams_in.fetch_add(3, Ordering::Relaxed);
        row.health.store(HEALTH_SUSPECT, Ordering::Relaxed);
        m.mesh.forwarded.fetch_add(7, Ordering::Relaxed);
        let snap = m.snapshot();
        let mesh = snap.get("mesh").unwrap();
        assert_eq!(mesh.get("forwarded").unwrap().as_u64(), Some(7));
        let Some(Value::Array(rows)) = mesh.get("per_peer") else {
            panic!("per_peer array");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("datagrams_in").unwrap().as_u64(), Some(3));
        assert_eq!(rows[0].get("health").unwrap().as_str(), Some("suspect"));
        assert_eq!(
            rows[0].get("peer").unwrap().as_str(),
            Some("127.0.0.1:9001")
        );
    }

    /// Every leaf counter and histogram of a populated registry set to a
    /// distinct value: the JSON it serialises to is pinned byte for byte.
    #[test]
    fn populated_snapshot_json_is_pinned() {
        let m = EngineMetrics::new();
        let mut next = 0;
        let mut set = |a: &AtomicU64| {
            next += 1;
            a.store(next, Ordering::Relaxed);
        };
        for a in [
            &m.packets_in,
            &m.packets_out,
            &m.bytes_in,
            &m.bytes_out,
            &m.s2_verified,
            &m.handshakes,
            &m.flows_active,
            &m.admission_drops,
            &m.backpressure_drops,
            &m.timer_fires,
            &m.parse_errors,
            &m.adapt_switches,
            &m.mesh.forwarded,
            &m.mesh.upstream_rejects,
            &m.mesh.failovers,
            &m.mesh.replicas_absorbed,
            &m.store.frozen,
            &m.store.thawed,
            &m.store.evicted,
            &m.store.thaw_rejected,
            &m.store.renewals_started,
            &m.store.renewals_deferred,
            &m.store.bytes_frozen,
            &m.store.flows_hibernated,
        ] {
            set(a);
        }
        m.io.set_backend("mmsg");
        m.io.record_worker_wait("epoll");
        for _ in 0..2 {
            let w = m.io.register_worker();
            for a in [
                &w.recv_calls,
                &w.send_calls,
                &w.datagrams_in,
                &w.datagrams_out,
                &w.eagain,
                &w.partial_sends,
                &w.send_retries,
                &w.gso_sends,
                &w.gso_segments,
                &w.gro_recvs,
                &w.gro_segments,
                &w.gso_refused,
                &w.wait_calls,
                // The numbers three deleted counters held, so every
                // other value keeps the number the golden pins.
                &AtomicU64::new(0),
                &AtomicU64::new(0),
                &AtomicU64::new(0),
                &w.wakeups,
                &w.read_timeout_errors,
            ] {
                set(a);
            }
        }
        for (port, health) in [(9001, HEALTH_UP), (9002, HEALTH_DOWN)] {
            let p = m
                .mesh
                .register_peer(std::net::SocketAddr::from(([127, 0, 0, 1], port)));
            for a in [
                &p.datagrams_in,
                &p.datagrams_out,
                &p.probes_sent,
                &p.pongs_received,
                &p.srtt_us,
            ] {
                set(a);
            }
            p.health.store(health, Ordering::Relaxed);
        }
        for (i, reason) in [
            DropReason::BadChainElement,
            DropReason::BadMac,
            DropReason::Unsolicited,
            DropReason::BadVerdict,
            DropReason::RateLimited,
            DropReason::UnknownAssociation,
            DropReason::Malformed,
        ]
        .into_iter()
        .enumerate()
        {
            for _ in 0..=i {
                m.record_drop(reason);
            }
        }
        for (h, samples) in [
            (&m.handshake_us, [40, 90, 700]),
            (&m.rtt_us, [3, 150, 2_500]),
            (&m.store.thaw_latency_us, [8, 9, 60]),
        ] {
            for v in samples {
                h.record(v);
            }
        }
        let golden = concat!(
            r#"{"adapt_switches":12,"admission_drops":8,"backpressure_drops":9,"bytes_in":3,"#,
            r#""bytes_out":4,"drops":{"bad-chain-element":1,"bad-mac":2,"bad-verdict":4,"#,
            r#""malformed":7,"rate-limited":5,"unknown-association":6,"unsolicited":3},"#,
            r#""flows_active":7,"handshake_us":{"buckets":[0,0,0,0,0,1,1,0,0,1,0,0,0,0,0,0,0,0,"#,
            r#"0,0,0,0,0],"count":3,"mean_us":276.6666666666667,"p50_us":100,"p99_us":1000,"#,
            r#""sum_us":830},"handshakes":6,"io":{"datagrams_in":72,"datagrams_out":74,"#,
            r#""datagrams_per_recv_call":1.0588235294117647,"eagain":76,"gro_recvs":86,"#,
            r#""gro_segments":88,"gso_refused":90,"gso_segments":84,"gso_sends":82,"#,
            r#""partial_sends":78,"per_worker":[{"datagrams_in":27,"#,
            r#""datagrams_out":28,"eagain":29,"gro_recvs":34,"gro_segments":35,"#,
            r#""gso_refused":36,"gso_segments":33,"gso_sends":32,"partial_sends":30,"#,
            r#""read_timeout_errors":42,"recv_calls":25,"send_calls":26,"send_retries":31,"#,
            r#""wait_calls":37,"wakeups":41},{"datagrams_in":45,"datagrams_out":46,"eagain":47,"#,
            r#""gro_recvs":52,"gro_segments":53,"gso_refused":54,"gso_segments":51,"#,
            r#""gso_sends":50,"partial_sends":48,"read_timeout_errors":60,"recv_calls":43,"send_calls":44,"#,
            r#""send_retries":49,"wait_calls":55,"wakeups":59}],"read_timeout_errors":102,"#,
            r#""recv_calls":68,"send_calls":70,"send_retries":80,"#,
            r#""syscalls_per_datagram":1.5753424657534247,"udp_backend":"mmsg","#,
            r#""wait_backend":"epoll","wait_calls":92,"wakeups":100},"mesh":{"failovers":15,"#,
            r#""forwarded":13,"per_peer":[{"datagrams_in":61,"datagrams_out":62,"health":"up","#,
            r#""peer":"127.0.0.1:9001","pongs_received":64,"probes_sent":63,"srtt_us":65},"#,
            r#"{"datagrams_in":66,"datagrams_out":67,"health":"down","peer":"127.0.0.1:9002","#,
            r#""pongs_received":69,"probes_sent":68,"srtt_us":70}],"replicas_absorbed":16,"#,
            r#""upstream_rejects":14},"packets_in":1,"packets_out":2,"parse_errors":11,"#,
            r#""rtt_us":{"buckets":[0,0,1,0,0,0,0,1,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0],"count":3,"#,
            r#""mean_us":884.3333333333334,"p50_us":200,"p99_us":5000,"sum_us":2653},"#,
            r#""s2_verified":5,"store":{"bytes_frozen":23,"evicted":19,"flows_hibernated":24,"#,
            r#""frozen":17,"renewals_deferred":22,"renewals_started":21,"#,
            r#""thaw_latency_us":{"buckets":[0,0,0,2,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
            r#""count":3,"mean_us":25.666666666666668,"p50_us":10,"p99_us":100,"sum_us":77},"#,
            r#""thaw_rejected":20,"thawed":18},"timer_fires":10,"verify_failures":7}"#,
        );
        assert_eq!(m.to_json(), golden);
    }

    #[test]
    fn json_snapshot_parses_back() {
        let m = EngineMetrics::new();
        m.packets_in.fetch_add(5, Ordering::Relaxed);
        m.handshake_us.record(1234);
        let text = m.to_json();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("packets_in").unwrap().as_u64(), Some(5));
        assert_eq!(
            v.get("handshake_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}
