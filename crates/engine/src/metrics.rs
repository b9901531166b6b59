//! Engine metrics: lock-free counters and fixed-bucket histograms,
//! snapshotable as JSON.
//!
//! Workers on the hot path touch only relaxed atomics — a snapshot
//! (CLI `engine stats`, bench reporters) walks the same atomics without
//! stopping traffic, so the numbers are a consistent-enough view for
//! operations, not a linearizable one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alpha_core::DropReason;
use parking_lot::Mutex;
use serde::Value;

/// Labels for [`DropReason`] buckets, in index order.
pub const DROP_LABELS: [&str; 7] = [
    "bad-chain-element",
    "bad-mac",
    "unsolicited",
    "bad-verdict",
    "rate-limited",
    "unknown-association",
    "malformed",
];

fn drop_index(reason: DropReason) -> usize {
    match reason {
        DropReason::BadChainElement => 0,
        DropReason::BadMac => 1,
        DropReason::Unsolicited => 2,
        DropReason::BadVerdict => 3,
        DropReason::RateLimited => 4,
        DropReason::UnknownAssociation => 5,
        DropReason::Malformed => 6,
    }
}

/// A fixed-bucket latency histogram (microsecond samples).
///
/// Bucket upper bounds follow a 1-2-5 decade ladder from 100 µs to
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
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .map(|b| Value::U64(b.load(Ordering::Relaxed)))
            .collect();
        Value::object([
            ("count".to_owned(), Value::U64(self.count())),
            (
                "sum_us".to_owned(),
                Value::U64(self.sum_us.load(Ordering::Relaxed)),
            ),
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
    pub recv_calls: AtomicU64,
    /// Send syscalls issued (`sendmmsg` or `send_to`).
    pub send_calls: AtomicU64,
    /// Datagrams received.
    pub datagrams_in: AtomicU64,
    /// Datagrams sent.
    pub datagrams_out: AtomicU64,
    /// Receive syscalls that returned empty (timeout / EAGAIN).
    pub eagain: AtomicU64,
    /// `sendmmsg` calls that accepted fewer datagrams than offered and
    /// forced a resubmission of the tail.
    pub partial_sends: AtomicU64,
    /// Send-side transient-failure resubmissions (EAGAIN / ENOBUFS /
    /// EINTR): a datagram handed back by the kernel and retried. These
    /// were silent spins before this counter existed.
    pub send_retries: AtomicU64,
    /// Coalesced messages sent: runs of two or more datagrams that left
    /// as one `UDP_SEGMENT` message (one trip through the kernel's
    /// UDP/IP path instead of one per datagram).
    pub gso_sends: AtomicU64,
    /// Datagrams that left inside coalesced messages (also counted in
    /// `datagrams_out`).
    pub gso_segments: AtomicU64,
    /// Coalesced messages received: `UDP_GRO` frames carrying two or
    /// more datagrams.
    pub gro_recvs: AtomicU64,
    /// Datagrams that arrived inside coalesced messages (also counted
    /// in `datagrams_in`).
    pub gro_segments: AtomicU64,
    /// Coalesced sends the kernel refused (route MTU, no checksum
    /// offload, old kernel): the run went out uncoalesced and the
    /// socket stopped coalescing. At most one per socket.
    pub gso_refused: AtomicU64,
    /// Wait syscalls issued around the datagram path: `epoll_wait`
    /// returns under the epoll wait. Zero under the blocking wait,
    /// where the receive syscall *is* the wait (already in
    /// `recv_calls`).
    pub wait_calls: AtomicU64,
    /// Datagrams this worker drained from its handoff rings (they
    /// arrived on another worker's socket but this worker owns the
    /// shard).
    pub handoff_in: AtomicU64,
    /// Datagrams this worker received but pushed to the owning worker's
    /// handoff ring instead of processing (RSS/shard mismatch).
    pub handoff_out: AtomicU64,
    /// Handoff pushes rejected by a full ring; the datagram is dropped
    /// and the sender retries end-to-end (backpressure is a counted
    /// drop, never a cross-worker stall).
    pub handoff_overflow: AtomicU64,
    /// Times this worker's wait returned (one blocking receive on the
    /// fallback wait backend, one `epoll_wait` return on the readiness
    /// backend). An idle engine's wakeup *rate* is the wasted-CPU
    /// measure the readiness backend exists to shrink.
    pub wakeups: AtomicU64,
    /// Failures arming the worker's wait (`set_read_timeout` on the
    /// fallback backend, `timerfd_settime` on the readiness backend).
    /// Nonzero means timers are running on the backstop timeout only.
    pub read_timeout_errors: AtomicU64,
}

/// Summed [`IoWorker`] counters across every registered worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// Receive syscalls issued.
    pub recv_calls: u64,
    /// Send syscalls issued.
    pub send_calls: u64,
    /// Datagrams received.
    pub datagrams_in: u64,
    /// Datagrams sent.
    pub datagrams_out: u64,
    /// Empty receive syscalls (timeout / EAGAIN).
    pub eagain: u64,
    /// Partial `sendmmsg` resubmissions.
    pub partial_sends: u64,
    /// Send-side transient-failure resubmissions.
    pub send_retries: u64,
    /// Coalesced (`UDP_SEGMENT`) messages sent.
    pub gso_sends: u64,
    /// Datagrams sent inside coalesced messages.
    pub gso_segments: u64,
    /// Coalesced (`UDP_GRO`) messages received.
    pub gro_recvs: u64,
    /// Datagrams received inside coalesced messages.
    pub gro_segments: u64,
    /// Coalesced sends the kernel refused (sockets that stopped
    /// coalescing).
    pub gso_refused: u64,
    /// Wait syscalls around the datagram path.
    pub wait_calls: u64,
    /// Datagrams drained from handoff rings.
    pub handoff_in: u64,
    /// Datagrams pushed to other workers' handoff rings.
    pub handoff_out: u64,
    /// Handoff pushes dropped on full rings.
    pub handoff_overflow: u64,
    /// Worker wait returns (blocking receives or `epoll_wait` returns).
    pub wakeups: u64,
    /// Failures arming a worker wait (read timeout / timerfd).
    pub read_timeout_errors: u64,
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
    wait_backend: Mutex<Option<&'static str>>,
    workers: Mutex<Vec<Arc<IoWorker>>>,
    /// Time a cross-worker handed-off datagram waited in its ring
    /// before the owning worker drained it (push-to-drain, µs). The
    /// eventfd doorbells exist to collapse this histogram's tail.
    pub handoff_wait_us: Histogram,
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

    /// Record which wait backend the engine's workers block in.
    pub fn set_wait_backend(&self, name: &'static str) {
        *self.wait_backend.lock() = Some(name);
    }

    /// The recorded wait backend name, `"none"` when no worker loop has
    /// attached (sans-io tests, single-threaded endpoints).
    #[must_use]
    pub fn wait_backend_name(&self) -> &'static str {
        self.wait_backend.lock().unwrap_or("none")
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
            t.recv_calls += w.recv_calls.load(Ordering::Relaxed);
            t.send_calls += w.send_calls.load(Ordering::Relaxed);
            t.datagrams_in += w.datagrams_in.load(Ordering::Relaxed);
            t.datagrams_out += w.datagrams_out.load(Ordering::Relaxed);
            t.eagain += w.eagain.load(Ordering::Relaxed);
            t.partial_sends += w.partial_sends.load(Ordering::Relaxed);
            t.send_retries += w.send_retries.load(Ordering::Relaxed);
            t.gso_sends += w.gso_sends.load(Ordering::Relaxed);
            t.gso_segments += w.gso_segments.load(Ordering::Relaxed);
            t.gro_recvs += w.gro_recvs.load(Ordering::Relaxed);
            t.gro_segments += w.gro_segments.load(Ordering::Relaxed);
            t.gso_refused += w.gso_refused.load(Ordering::Relaxed);
            t.wait_calls += w.wait_calls.load(Ordering::Relaxed);
            t.handoff_in += w.handoff_in.load(Ordering::Relaxed);
            t.handoff_out += w.handoff_out.load(Ordering::Relaxed);
            t.handoff_overflow += w.handoff_overflow.load(Ordering::Relaxed);
            t.wakeups += w.wakeups.load(Ordering::Relaxed);
            t.read_timeout_errors += w.read_timeout_errors.load(Ordering::Relaxed);
        }
        t
    }

    /// Snapshot as a JSON object: backend, totals, the
    /// datagrams-per-syscall ratio, and one row per worker.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let t = self.totals();
        let per_worker: Vec<Value> = self
            .workers
            .lock()
            .iter()
            .map(|w| {
                let ld = |a: &AtomicU64| Value::U64(a.load(Ordering::Relaxed));
                Value::object([
                    ("recv_calls".to_owned(), ld(&w.recv_calls)),
                    ("send_calls".to_owned(), ld(&w.send_calls)),
                    ("datagrams_in".to_owned(), ld(&w.datagrams_in)),
                    ("datagrams_out".to_owned(), ld(&w.datagrams_out)),
                    ("eagain".to_owned(), ld(&w.eagain)),
                    ("partial_sends".to_owned(), ld(&w.partial_sends)),
                    ("send_retries".to_owned(), ld(&w.send_retries)),
                    ("gso_sends".to_owned(), ld(&w.gso_sends)),
                    ("gso_segments".to_owned(), ld(&w.gso_segments)),
                    ("gro_recvs".to_owned(), ld(&w.gro_recvs)),
                    ("gro_segments".to_owned(), ld(&w.gro_segments)),
                    ("gso_refused".to_owned(), ld(&w.gso_refused)),
                    ("wait_calls".to_owned(), ld(&w.wait_calls)),
                    ("handoff_in".to_owned(), ld(&w.handoff_in)),
                    ("handoff_out".to_owned(), ld(&w.handoff_out)),
                    ("handoff_overflow".to_owned(), ld(&w.handoff_overflow)),
                    ("wakeups".to_owned(), ld(&w.wakeups)),
                    ("read_timeout_errors".to_owned(), ld(&w.read_timeout_errors)),
                ])
            })
            .collect();
        Value::object([
            (
                "udp_backend".to_owned(),
                Value::Str(self.backend_name().to_owned()),
            ),
            (
                "wait_backend".to_owned(),
                Value::Str(self.wait_backend_name().to_owned()),
            ),
            ("recv_calls".to_owned(), Value::U64(t.recv_calls)),
            ("send_calls".to_owned(), Value::U64(t.send_calls)),
            ("datagrams_in".to_owned(), Value::U64(t.datagrams_in)),
            ("datagrams_out".to_owned(), Value::U64(t.datagrams_out)),
            ("eagain".to_owned(), Value::U64(t.eagain)),
            ("partial_sends".to_owned(), Value::U64(t.partial_sends)),
            ("send_retries".to_owned(), Value::U64(t.send_retries)),
            ("gso_sends".to_owned(), Value::U64(t.gso_sends)),
            ("gso_segments".to_owned(), Value::U64(t.gso_segments)),
            ("gro_recvs".to_owned(), Value::U64(t.gro_recvs)),
            ("gro_segments".to_owned(), Value::U64(t.gro_segments)),
            ("gso_refused".to_owned(), Value::U64(t.gso_refused)),
            ("wait_calls".to_owned(), Value::U64(t.wait_calls)),
            ("handoff_in".to_owned(), Value::U64(t.handoff_in)),
            ("handoff_out".to_owned(), Value::U64(t.handoff_out)),
            (
                "handoff_overflow".to_owned(),
                Value::U64(t.handoff_overflow),
            ),
            ("wakeups".to_owned(), Value::U64(t.wakeups)),
            (
                "read_timeout_errors".to_owned(),
                Value::U64(t.read_timeout_errors),
            ),
            (
                "datagrams_per_recv_call".to_owned(),
                Value::F64(t.datagrams_per_recv()),
            ),
            (
                "syscalls_per_datagram".to_owned(),
                Value::F64(t.syscalls_per_datagram()),
            ),
            (
                "handoff_wait_us".to_owned(),
                self.handoff_wait_us.snapshot(),
            ),
            ("per_worker".to_owned(), Value::Array(per_worker)),
        ])
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

/// Per-peer counters for one registered mesh peer.
///
/// The datapath (engine core) bumps the datagram counters; the mesh
/// supervisor (in `alpha-mesh`) owns the probe counters and mirrors the
/// registry's health verdict and smoothed RTT here so `engine stats`
/// can report them without a second wire protocol.
#[derive(Default)]
pub struct PeerCounters {
    /// Datagrams accepted from this peer.
    pub datagrams_in: AtomicU64,
    /// Verified datagrams forwarded to this peer.
    pub datagrams_out: AtomicU64,
    /// Liveness probes sent to this peer.
    pub probes_sent: AtomicU64,
    /// Probe echoes received from this peer.
    pub pongs_received: AtomicU64,
    /// Latest health verdict (`HEALTH_*` code).
    pub health: AtomicU64,
    /// Smoothed probe round-trip time (µs), 0 before the first sample.
    pub srtt_us: AtomicU64,
}

/// Registry of mesh forwarding counters: aggregate hop counters plus
/// one [`PeerCounters`] row per registered peer. Mirrors the
/// [`IoMetrics`] shape so mesh state rides the ordinary stats snapshot.
#[derive(Default)]
pub struct MeshMetrics {
    /// Verified datagrams re-emitted toward a downstream peer (hop
    /// traversals through this node).
    pub forwarded: AtomicU64,
    /// Datagrams rejected because the source is not a registered
    /// upstream peer (the static-relay-set bypass defense).
    pub upstream_rejects: AtomicU64,
    /// Path failovers applied (live flows re-routed to another peer).
    pub failovers: AtomicU64,
    /// Replicated handshakes absorbed learn-only from an upstream.
    pub replicas_absorbed: AtomicU64,
    peers: Mutex<Vec<(std::net::SocketAddr, Arc<PeerCounters>)>>,
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
        let ld = |a: &AtomicU64| Value::U64(a.load(Ordering::Relaxed));
        let per_peer: Vec<Value> = self
            .peers
            .lock()
            .iter()
            .map(|(addr, c)| {
                Value::object([
                    ("peer".to_owned(), Value::Str(addr.to_string())),
                    ("datagrams_in".to_owned(), ld(&c.datagrams_in)),
                    ("datagrams_out".to_owned(), ld(&c.datagrams_out)),
                    ("probes_sent".to_owned(), ld(&c.probes_sent)),
                    ("pongs_received".to_owned(), ld(&c.pongs_received)),
                    (
                        "health".to_owned(),
                        Value::Str(health_label(c.health.load(Ordering::Relaxed)).to_owned()),
                    ),
                    ("srtt_us".to_owned(), ld(&c.srtt_us)),
                ])
            })
            .collect();
        Value::object([
            ("forwarded".to_owned(), ld(&self.forwarded)),
            ("upstream_rejects".to_owned(), ld(&self.upstream_rejects)),
            ("failovers".to_owned(), ld(&self.failovers)),
            ("replicas_absorbed".to_owned(), ld(&self.replicas_absorbed)),
            ("per_peer".to_owned(), Value::Array(per_peer)),
        ])
    }
}

/// Flow lifecycle store counters: hibernation freezes, wakes and
/// evictions, plus the frozen-byte gauge and the wake latency
/// histogram. Mirrors the [`IoMetrics`] / [`MeshMetrics`] shape so the
/// store section rides the ordinary stats snapshot.
#[derive(Default)]
pub struct StoreMetrics {
    /// Idle host flows frozen into the store.
    pub frozen: AtomicU64,
    /// Hibernated flows rehydrated by an arriving datagram.
    pub thawed: AtomicU64,
    /// Frozen records evicted by the store's byte budget (those flows
    /// are gone for good; the next datagram is a fresh handshake).
    pub evicted: AtomicU64,
    /// Datagrams that failed verification against a thawed association
    /// and therefore did NOT wake the flow (the record was re-frozen).
    pub thaw_rejected: AtomicU64,
    /// Paced chain renewals started.
    pub renewals_started: AtomicU64,
    /// Renewal deadlines deferred by the global token bucket.
    pub renewals_deferred: AtomicU64,
    /// Gauge: bytes currently charged against the frozen-record budget.
    pub bytes_frozen: AtomicU64,
    /// Gauge: flows currently hibernated.
    pub flows_hibernated: AtomicU64,
    /// Wake-from-hibernate latency (decode + thaw + first dispatch).
    pub thaw_latency_us: Histogram,
}

impl StoreMetrics {
    /// Snapshot as a JSON object.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let ld = |a: &AtomicU64| Value::U64(a.load(Ordering::Relaxed));
        Value::object([
            ("frozen".to_owned(), ld(&self.frozen)),
            ("thawed".to_owned(), ld(&self.thawed)),
            ("evicted".to_owned(), ld(&self.evicted)),
            ("thaw_rejected".to_owned(), ld(&self.thaw_rejected)),
            ("renewals_started".to_owned(), ld(&self.renewals_started)),
            ("renewals_deferred".to_owned(), ld(&self.renewals_deferred)),
            ("bytes_frozen".to_owned(), ld(&self.bytes_frozen)),
            ("flows_hibernated".to_owned(), ld(&self.flows_hibernated)),
            (
                "thaw_latency_us".to_owned(),
                self.thaw_latency_us.snapshot(),
            ),
        ])
    }
}

/// The engine's metrics registry. One instance per engine, shared by
/// every worker through an `Arc`.
#[derive(Default)]
pub struct EngineMetrics {
    /// Datagrams handed to the engine.
    pub packets_in: AtomicU64,
    /// Datagrams the engine emitted.
    pub packets_out: AtomicU64,
    /// Bytes handed to the engine.
    pub bytes_in: AtomicU64,
    /// Bytes the engine emitted.
    pub bytes_out: AtomicU64,
    /// S2 payloads verified (host deliveries + relay extractions).
    pub s2_verified: AtomicU64,
    /// Packets rejected by protocol verification (any drop reason that
    /// implies a failed integrity check).
    pub verify_failures: AtomicU64,
    /// Completed bootstrap handshakes.
    pub handshakes: AtomicU64,
    /// Flows currently resident in the flow table.
    pub flows_active: AtomicU64,
    /// S1 / HS1 packets a host flow's admission bucket refused
    /// ([`EngineConfig::s1_bytes_per_sec`](crate::EngineConfig::s1_bytes_per_sec)).
    pub admission_drops: AtomicU64,
    /// Packets refused by the global byte-budget valve.
    pub backpressure_drops: AtomicU64,
    /// Timer-wheel entries fired.
    pub timer_fires: AtomicU64,
    /// Datagrams that did not parse as ALPHA traffic.
    pub parse_errors: AtomicU64,
    /// Controller decision changes (mode or bundle size) across all
    /// adaptive host flows.
    pub adapt_switches: AtomicU64,
    drops: [AtomicU64; DROP_LABELS.len()],
    /// Handshake completion latency.
    pub handshake_us: Histogram,
    /// S1→A1 round-trip latency observed by host flows.
    pub rtt_us: Histogram,
    /// Per-worker socket-I/O counters (filled by the transport layer).
    pub io: IoMetrics,
    /// Mesh forwarding counters (filled when the core runs as a mesh
    /// relay; all-zero otherwise).
    pub mesh: MeshMetrics,
    /// Flow lifecycle store counters (hibernation; all-zero when
    /// hibernation is disabled).
    pub store: StoreMetrics,
}

impl EngineMetrics {
    /// Fresh registry.
    #[must_use]
    pub fn new() -> EngineMetrics {
        EngineMetrics::default()
    }

    /// Record a relay/protocol drop by cause.
    pub fn record_drop(&self, reason: DropReason) {
        self.drops[drop_index(reason)].fetch_add(1, Ordering::Relaxed);
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
        self.drops[drop_index(reason)].load(Ordering::Relaxed)
    }

    /// Total drops across causes.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().map(|d| d.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot every counter as a JSON object.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let ld = |a: &AtomicU64| Value::U64(a.load(Ordering::Relaxed));
        let drops = Value::object(
            DROP_LABELS
                .iter()
                .zip(&self.drops)
                .map(|(label, v)| ((*label).to_owned(), ld(v))),
        );
        Value::object([
            ("packets_in".to_owned(), ld(&self.packets_in)),
            ("packets_out".to_owned(), ld(&self.packets_out)),
            ("bytes_in".to_owned(), ld(&self.bytes_in)),
            ("bytes_out".to_owned(), ld(&self.bytes_out)),
            ("s2_verified".to_owned(), ld(&self.s2_verified)),
            ("verify_failures".to_owned(), ld(&self.verify_failures)),
            ("handshakes".to_owned(), ld(&self.handshakes)),
            ("flows_active".to_owned(), ld(&self.flows_active)),
            ("admission_drops".to_owned(), ld(&self.admission_drops)),
            (
                "backpressure_drops".to_owned(),
                ld(&self.backpressure_drops),
            ),
            ("timer_fires".to_owned(), ld(&self.timer_fires)),
            ("parse_errors".to_owned(), ld(&self.parse_errors)),
            ("adapt_switches".to_owned(), ld(&self.adapt_switches)),
            ("drops".to_owned(), drops),
            ("handshake_us".to_owned(), self.handshake_us.snapshot()),
            ("rtt_us".to_owned(), self.rtt_us.snapshot()),
            ("io".to_owned(), self.io.snapshot()),
            ("mesh".to_owned(), self.mesh.snapshot()),
            ("store".to_owned(), self.store.snapshot()),
        ])
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
