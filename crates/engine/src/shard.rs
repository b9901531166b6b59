//! Sharded flow table: consistent-hash shard selection over
//! per-shard `parking_lot::RwLock`s.
//!
//! Flows are keyed by `(peer SocketAddr, association id)` and mapped to
//! a shard with Jump Consistent Hash, so growing the shard count (a
//! restart-time decision today) moves only `1/n` of the flows — the
//! property that matters once flow state is checkpointed or handed
//! between processes. A worker judges every datagram it receives under
//! that datagram's shard lock, and a datagram never locks two shards,
//! so two workers only ever meet when they receive for one shard at
//! the same moment — counted as `lock_contended`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(debug_assertions)]
thread_local! {
    /// Debug-mode count of shard-lock acquisitions made by this thread
    /// through the counted [`Sharded::read`]/[`Sharded::write`] guards.
    /// Tests use it to pin the lock budget of the steady-state
    /// path (e.g. "one batched write per S2 run, nothing else").
    static LOCKS_TAKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Debug builds: shard-lock acquisitions made by the calling thread via
/// the counted guards since the last [`reset_thread_lock_count`].
/// Release builds: always 0 (the counter is compiled out of the hot
/// path).
#[must_use]
pub fn locks_taken_on_thread() -> u64 {
    #[cfg(debug_assertions)]
    {
        LOCKS_TAKEN.with(std::cell::Cell::get)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Reset the debug per-thread lock counter (no-op in release builds).
pub fn reset_thread_lock_count() {
    #[cfg(debug_assertions)]
    LOCKS_TAKEN.with(|c| c.set(0));
}

#[inline]
fn count_thread_lock() {
    #[cfg(debug_assertions)]
    LOCKS_TAKEN.with(|c| c.set(c.get() + 1));
}

/// Identity of one flow through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// The peer (for relay flows: the canonical left endpoint).
    pub peer: SocketAddr,
    /// ALPHA association id from the wire header.
    pub assoc_id: u64,
}

impl FlowKey {
    /// Stable 64-bit hash of the key (FNV-1a over address + id).
    ///
    /// Deliberately not `DefaultHasher`: shard placement must be stable
    /// across processes so a restarted engine re-shards identically.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        match self.peer {
            SocketAddr::V4(a) => {
                eat(4);
                a.ip().octets().into_iter().for_each(&mut eat);
            }
            SocketAddr::V6(a) => {
                eat(6);
                a.ip().octets().into_iter().for_each(&mut eat);
            }
        }
        self.peer
            .port()
            .to_le_bytes()
            .into_iter()
            .for_each(&mut eat);
        self.assoc_id.to_le_bytes().into_iter().for_each(&mut eat);
        h
    }
}

/// Stable FNV-1a hash of an address alone (no association id).
///
/// The engine places all flows of one peer (or one relay address pair)
/// on the same shard, so a datagram locks one shard, found from its
/// source address — before parsing the packet to learn the association
/// id.
#[must_use]
pub fn addr_hash(addr: &SocketAddr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    match addr {
        SocketAddr::V4(a) => {
            eat(4);
            a.ip().octets().into_iter().for_each(&mut eat);
        }
        SocketAddr::V6(a) => {
            eat(6);
            a.ip().octets().into_iter().for_each(&mut eat);
        }
    }
    addr.port().to_le_bytes().into_iter().for_each(&mut eat);
    h
}

/// Jump Consistent Hash (Lamping & Veach): maps `key` to a bucket in
/// `[0, buckets)` such that changing `buckets` from n to n+1 remaps
/// only 1/(n+1) of the keys.
#[must_use]
pub fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    assert!(buckets > 0, "jump_hash needs at least one bucket");
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        let r = ((key >> 33) + 1) as f64;
        j = (((b + 1) as f64) * ((1u64 << 31) as f64 / r)) as i64;
    }
    b as u32
}

/// How shards are distributed across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentPolicy {
    /// Shard `s` belongs to worker `s % workers`. Load-oblivious: with
    /// few hot shards and many workers, whole workers can end up idle
    /// while one carries several hot shards.
    Modulo,
    /// Longest-processing-time greedy: shards are sorted by measured
    /// load and each is placed on the currently lightest worker.
    /// Requires a load estimate per shard (e.g. flow counts).
    LeastLoaded,
}

/// A computed shard→worker assignment (see [`AssignmentPolicy`]).
#[derive(Debug, Clone)]
pub struct ShardAssignment {
    policy: AssignmentPolicy,
    workers: Vec<usize>,
}

impl ShardAssignment {
    /// The load-oblivious modulo assignment of `shards` over `workers`.
    #[must_use]
    pub fn modulo(shards: usize, workers: usize) -> ShardAssignment {
        let workers = workers.max(1);
        ShardAssignment {
            policy: AssignmentPolicy::Modulo,
            workers: (0..shards).map(|s| s % workers).collect(),
        }
    }

    /// LPT greedy assignment: place each shard, heaviest first, on the
    /// worker with the least load assigned so far. `loads[s]` is any
    /// monotone per-shard load estimate (flow count, packet count).
    /// Guarantees a makespan within 4/3 of optimal, which in practice
    /// erases the idle-worker pathology of [`ShardAssignment::modulo`]
    /// when hot shards are few.
    #[must_use]
    pub fn least_loaded(loads: &[u64], workers: usize) -> ShardAssignment {
        let workers_n = workers.max(1);
        let mut order: Vec<usize> = (0..loads.len()).collect();
        // Sort by descending load; ties broken by shard index so the
        // assignment is deterministic.
        order.sort_by_key(|&s| (std::cmp::Reverse(loads[s]), s));
        let mut assigned = vec![0usize; loads.len()];
        let mut worker_load = vec![0u64; workers_n];
        let mut worker_shards = vec![0usize; workers_n];
        for s in order {
            // Least-loaded worker; ties broken by fewest shards, then
            // index, so empty shards still spread evenly.
            let w = (0..workers_n)
                .min_by_key(|&w| (worker_load[w], worker_shards[w], w))
                .expect("at least one worker");
            assigned[s] = w;
            worker_load[w] += loads[s];
            worker_shards[w] += 1;
        }
        ShardAssignment {
            policy: AssignmentPolicy::LeastLoaded,
            workers: assigned,
        }
    }

    /// The worker owning `shard`.
    #[must_use]
    pub fn worker_of(&self, shard: usize) -> usize {
        self.workers[shard]
    }

    /// Stable label of the policy that produced this assignment.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        match self.policy {
            AssignmentPolicy::Modulo => "modulo",
            AssignmentPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// A fixed set of shards, each behind its own `RwLock`, with lock
/// discipline accounting: every hot-path acquisition goes through the
/// counted [`Sharded::read`]/[`Sharded::write`] guards, which try the
/// lock first and count a *contended* acquisition (another thread held
/// the shard) before falling back to a blocking acquire. The count is
/// how often two workers met in one shard, which `engine stats`
/// exposes as `lock_contended`; with one worker it stays at zero.
pub struct Sharded<T> {
    shards: Vec<RwLock<T>>,
    contended: AtomicU64,
}

impl<T> Sharded<T> {
    /// Build `n` shards with `init(shard_index)`.
    pub fn new(n: usize, mut init: impl FnMut(usize) -> T) -> Sharded<T> {
        let n = n.max(1);
        Sharded {
            shards: (0..n).map(|i| RwLock::new(init(i))).collect(),
            contended: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false (there is at least one shard).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Shard index owning `key`.
    #[must_use]
    pub fn shard_of(&self, key: &FlowKey) -> usize {
        jump_hash(key.stable_hash(), self.shards.len() as u32) as usize
    }

    /// Counted shared acquisition of shard `idx`: tries the lock first
    /// and records a contended acquisition if another thread holds it.
    pub fn read(&self, idx: usize) -> RwLockReadGuard<'_, T> {
        count_thread_lock();
        if let Some(g) = self.shards[idx].try_read() {
            return g;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.shards[idx].read()
    }

    /// Counted exclusive acquisition of shard `idx` (see [`Sharded::read`]).
    pub fn write(&self, idx: usize) -> RwLockWriteGuard<'_, T> {
        count_thread_lock();
        if let Some(g) = self.shards[idx].try_write() {
            return g;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.shards[idx].write()
    }

    /// Total contended acquisitions since construction: times a counted
    /// guard found the shard held by another thread and had to block.
    #[must_use]
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// The lock for shard `idx` (cold paths: stats walks, shutdown;
    /// acquisitions here are not lock-discipline counted).
    #[must_use]
    pub fn shard(&self, idx: usize) -> &RwLock<T> {
        &self.shards[idx]
    }

    /// Iterate over all shard locks (stats walks, shutdown).
    pub fn iter(&self) -> impl Iterator<Item = &RwLock<T>> {
        self.shards.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(port: u16, assoc: u64) -> FlowKey {
        FlowKey {
            peer: format!("10.0.0.1:{port}").parse().unwrap(),
            assoc_id: assoc,
        }
    }

    #[test]
    fn stable_hash_is_stable_and_spreads() {
        let a = key(1000, 1).stable_hash();
        assert_eq!(a, key(1000, 1).stable_hash());
        assert_ne!(a, key(1000, 2).stable_hash());
        assert_ne!(a, key(1001, 1).stable_hash());
    }

    #[test]
    fn jump_hash_in_range_and_balanced() {
        let buckets = 8u32;
        let mut counts = vec![0u32; buckets as usize];
        for i in 0..8000u64 {
            let b = jump_hash(key(1024 + (i % 40_000) as u16, i).stable_hash(), buckets);
            counts[b as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((600..1400).contains(&c), "bucket {i} got {c}/8000");
        }
    }

    #[test]
    fn jump_hash_minimal_disruption() {
        // Growing 8 -> 9 buckets must move roughly 1/9 of keys.
        let mut moved = 0u32;
        for i in 0..9000u64 {
            let h = key((i % 50_000) as u16, i).stable_hash();
            if jump_hash(h, 8) != jump_hash(h, 9) {
                moved += 1;
            }
        }
        assert!((500..1600).contains(&moved), "moved {moved}/9000 keys");
    }

    #[test]
    fn least_loaded_balances_hot_shards_modulo_cannot() {
        // 8 workers, 64 shards, but only 4 shards carry load — and all
        // four land on the same modulo class (s % 8 == 0).
        let workers = 8;
        let mut loads = vec![0u64; 64];
        for s in [0, 8, 16, 24] {
            loads[s] = 100;
        }
        let modulo = ShardAssignment::modulo(loads.len(), workers);
        let mut mod_load = vec![0u64; workers];
        for (s, &l) in loads.iter().enumerate() {
            mod_load[modulo.worker_of(s)] += l;
        }
        assert_eq!(mod_load[0], 400, "modulo piles every hot shard on w0");

        let lpt = ShardAssignment::least_loaded(&loads, workers);
        let mut lpt_load = vec![0u64; workers];
        for (s, &l) in loads.iter().enumerate() {
            lpt_load[lpt.worker_of(s)] += l;
        }
        assert_eq!(
            *lpt_load.iter().max().unwrap(),
            100,
            "LPT spreads one hot shard per worker: {lpt_load:?}"
        );
        assert_eq!(modulo.policy_name(), "modulo");
        assert_eq!(lpt.policy_name(), "least-loaded");
    }

    #[test]
    fn least_loaded_is_deterministic_and_total() {
        let loads: Vec<u64> = (0..33).map(|i| (i * 7) % 13).collect();
        let a = ShardAssignment::least_loaded(&loads, 4);
        let b = ShardAssignment::least_loaded(&loads, 4);
        for s in 0..loads.len() {
            assert_eq!(a.worker_of(s), b.worker_of(s));
            assert!(a.worker_of(s) < 4);
        }
    }

    #[test]
    fn sharded_routing_consistent() {
        let table: Sharded<Vec<u64>> = Sharded::new(4, |_| Vec::new());
        let k = key(5555, 42);
        let idx = table.shard_of(&k);
        table.shard(idx).write().push(k.assoc_id);
        assert_eq!(table.shard(idx).read().as_slice(), &[42]);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn assignment_with_more_workers_than_flows() {
        // 16 workers, 4 shards, only 2 shards carry any flows: every
        // shard must still get a valid worker, and the two loaded
        // shards must not share one.
        let mut loads = vec![0u64; 4];
        loads[1] = 7;
        loads[3] = 9;
        let lpt = ShardAssignment::least_loaded(&loads, 16);
        for s in 0..4 {
            assert!(lpt.worker_of(s) < 16);
        }
        assert_ne!(lpt.worker_of(1), lpt.worker_of(3));

        let modulo = ShardAssignment::modulo(4, 16);
        for s in 0..4 {
            assert_eq!(modulo.worker_of(s), s);
        }
    }

    #[test]
    fn assignment_all_zero_weight_shards_spread_evenly() {
        // Zero-weight shards must still spread by count (ties broken by
        // fewest-shards-first), not pile onto worker 0.
        let loads = vec![0u64; 12];
        let lpt = ShardAssignment::least_loaded(&loads, 4);
        let mut per_worker = vec![0usize; 4];
        for s in 0..12 {
            per_worker[lpt.worker_of(s)] += 1;
        }
        assert_eq!(
            per_worker,
            vec![3, 3, 3, 3],
            "zero-weight spread: {per_worker:?}"
        );
    }

    #[test]
    fn assignment_recomputes_after_reroute_load_shift() {
        // Reroute moves all flows from shard 0 to shard 5; a fresh
        // assignment over the new loads must follow the load, and the
        // now-empty shard must not pin the heavy worker.
        let mut loads = vec![0u64; 8];
        loads[0] = 100;
        let before = ShardAssignment::least_loaded(&loads, 2);
        loads[5] = loads[0];
        loads[0] = 0;
        let after = ShardAssignment::least_loaded(&loads, 2);
        // The heavy shard (wherever it lives) is always alone-heaviest
        // on its worker.
        let heavy_worker = after.worker_of(5);
        let heavy_load: u64 = (0..8)
            .filter(|&s| after.worker_of(s) == heavy_worker)
            .map(|s| loads[s])
            .sum();
        assert_eq!(heavy_load, 100);
        assert!(before.worker_of(0) < 2 && after.worker_of(5) < 2);
    }

    #[test]
    fn counted_guards_track_contention_and_thread_locks() {
        let table: Sharded<u64> = Sharded::new(2, |_| 0);
        reset_thread_lock_count();
        {
            let mut g = table.write(0);
            *g += 1;
        }
        {
            let g = table.read(0);
            assert_eq!(*g, 1);
        }
        // Single-toucher: no other thread held the shard, so nothing
        // was contended.
        assert_eq!(table.contended(), 0);
        #[cfg(debug_assertions)]
        assert_eq!(locks_taken_on_thread(), 2);

        // Force contention: hold the write lock on another thread,
        // then take a counted read.
        let table = std::sync::Arc::new(table);
        let held = table.clone();
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                let g = held.shard(0).write();
                tx.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(30));
                drop(g);
            });
            rx.recv().unwrap();
            let g = table.read(0);
            assert_eq!(*g, 1);
        });
        assert_eq!(table.contended(), 1, "blocking acquire was counted");
    }
}
