//! A freelist of reusable datagram buffers.
//!
//! Steady-state packet processing should do zero malloc/free per packet:
//! RX loops check a [`Frame`] out of a [`FramePool`], fill it from the
//! socket, hand it through the engine, and the frame returns itself to
//! the pool when dropped. Depletion falls back to fresh allocation (and
//! is counted), so the pool is a fast path, never a correctness limit.
//!
//! The freelist has two tiers. Each thread keeps its own cache of each
//! pool's idle frames: a checkout pops from the calling thread's cache
//! and a dropped frame is pushed onto the dropping thread's. That cycle
//! takes no lock, clones no `Arc` and makes no atomic read-modify-write
//! — a frame names its pool by a plain id, and each thread's counters
//! are written by that thread alone. Behind the caches, one mutex guards
//! the pool's depot: a full cache spills half of itself there, and an
//! empty one refills half of itself from it before anything is
//! allocated. A frame checked out on one thread and dropped on another
//! (a datagram handed to the worker that owns its flow) is recycled on
//! the dropping thread, and under a one-way handoff the frames flow back
//! through the depot, half a cache per lock. Each thread caches at most
//! `max_frames` of a pool's frames and the depot holds as many; only a
//! miss of both allocates, and bumps a shared counter.
//!
//! In debug builds, frames are poisoned with a marker byte when they
//! return to the pool, so stale reads of recycled buffers show up as
//! garbage instead of silently reading the previous packet.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Byte written over returned frames in debug builds.
#[cfg(debug_assertions)]
pub const POISON: u8 = 0xDB;

/// Id of the next pool built; 0 marks a detached frame.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Every live pool by id, for a thread that first meets one through a
/// frame it drops (it checked none out, so it has no cache of that pool
/// yet).
static LIVE: Mutex<Vec<(u64, Weak<Shared>)>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's caches, one per pool it has touched.
    static CACHES: RefCell<Vec<Cache>> = const { RefCell::new(Vec::new()) };
}

/// A panic while holding a pool lock loses at most pooled buffers and
/// counts; carry on with what is there.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What every clone of a pool shares, on every thread.
struct Shared {
    id: u64,
    /// Capacity each fresh frame is allocated with.
    capacity: usize,
    /// Per-thread cache and depot high-water mark; frames returned
    /// beyond both are freed.
    max_frames: usize,
    fresh: AtomicU64,
    depot: Mutex<Depot>,
}

/// What the pool's threads share behind its one lock.
#[derive(Default)]
struct Depot {
    /// Idle frames spilled by full caches, at most `max_frames`.
    free: Vec<Vec<u8>>,
    /// The counters of every cache of this pool alive on some thread.
    threads: Vec<Arc<ThreadCounters>>,
    /// What caches since dropped counted: `reused`, `returned`,
    /// `discarded`.
    retired: [u64; 3],
}

impl Drop for Shared {
    fn drop(&mut self) {
        let id = self.id;
        lock(&LIVE).retain(|(live, _)| *live != id);
        // Free this thread's cache now; other threads drop theirs the
        // next time they meet a new pool, or when they exit.
        let _ = CACHES.try_with(|caches| {
            if let Ok(mut caches) = caches.try_borrow_mut() {
                caches.retain(|c| c.id != id);
            }
        });
    }
}

/// One thread's counters for one pool. Only that thread writes them (a
/// load and a store, never a read-modify-write); [`FramePool::stats`]
/// reads them from any thread.
#[derive(Default)]
struct ThreadCounters {
    reused: AtomicU64,
    returned: AtomicU64,
    discarded: AtomicU64,
    idle: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Relaxed) + 1, Relaxed);
}

/// One thread's idle frames of one pool.
struct Cache {
    id: u64,
    max_frames: usize,
    free: Vec<Vec<u8>>,
    counters: Arc<ThreadCounters>,
    pool: Weak<Shared>,
}

impl Cache {
    fn new(shared: &Arc<Shared>) -> Cache {
        let counters = Arc::new(ThreadCounters::default());
        lock(&shared.depot).threads.push(Arc::clone(&counters));
        Cache {
            id: shared.id,
            max_frames: shared.max_frames,
            free: Vec::new(),
            counters,
            pool: Arc::downgrade(shared),
        }
    }

    fn pop(&mut self) -> Option<Vec<u8>> {
        if self.free.is_empty() {
            self.trade(|depot, cache, half| {
                let keep = depot.len().saturating_sub(half);
                cache.extend(depot.drain(keep..));
            });
        }
        let mut buf = self.free.pop()?;
        bump(&self.counters.reused);
        self.counters.idle.store(self.free.len() as u64, Relaxed);
        buf.clear();
        Some(buf)
    }

    fn push(&mut self, buf: Vec<u8>) {
        if self.free.len() >= self.max_frames {
            let max = self.max_frames;
            self.trade(|depot, cache, half| {
                let n = half.min(max.saturating_sub(depot.len()));
                depot.extend(cache.drain(cache.len() - n..));
            });
        }
        if self.free.len() < self.max_frames {
            self.free.push(buf);
            bump(&self.counters.returned);
        } else {
            bump(&self.counters.discarded);
        }
        self.counters.idle.store(self.free.len() as u64, Relaxed);
    }

    /// Move frames between the depot and this cache under the pool's
    /// lock: `f(depot, cache, half a cache)`. Nothing moves once the
    /// pool is gone.
    fn trade(&mut self, f: impl FnOnce(&mut Vec<Vec<u8>>, &mut Vec<Vec<u8>>, usize)) {
        if let Some(pool) = self.pool.upgrade() {
            f(
                &mut lock(&pool.depot).free,
                &mut self.free,
                self.max_frames.div_ceil(2),
            );
        }
    }
}

impl Drop for Cache {
    /// Fold this cache's counts into the pool's, so a pool's bookkeeping
    /// does not grow with the threads that ever touched it. Its idle
    /// frames are freed.
    fn drop(&mut self) {
        let Some(pool) = self.pool.upgrade() else {
            return;
        };
        let mut depot = lock(&pool.depot);
        depot.threads.retain(|t| !Arc::ptr_eq(t, &self.counters));
        let [reused, returned, discarded] = &mut depot.retired;
        *reused += self.counters.reused.load(Relaxed);
        *returned += self.counters.returned.load(Relaxed);
        *discarded += self.counters.discarded.load(Relaxed);
    }
}

/// Run `f` on the calling thread's cache of pool `id`, making the cache
/// first (from `pool`, else from the live registry). `None` when there
/// is none to be had: the thread is exiting, or the pool is gone.
fn with_cache<R>(
    id: u64,
    pool: Option<&Arc<Shared>>,
    f: impl FnOnce(&mut Cache) -> R,
) -> Option<R> {
    CACHES
        .try_with(|caches| {
            let mut caches = caches.try_borrow_mut().ok()?;
            let i = match caches.iter().position(|c| c.id == id) {
                Some(i) => i,
                None => {
                    let shared = match pool {
                        Some(shared) => Arc::clone(shared),
                        None => lock(&LIVE)
                            .iter()
                            .find(|(live, _)| *live == id)
                            .and_then(|(_, pool)| pool.upgrade())?,
                    };
                    caches.retain(|c| c.pool.strong_count() > 0);
                    caches.push(Cache::new(&shared));
                    caches.len() - 1
                }
            };
            Some(f(&mut caches[i]))
        })
        .ok()
        .flatten()
}

/// Counters describing a pool's behaviour so far, summed over every
/// thread that has cached its frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from a thread's cache (refilled from the depot
    /// if need be).
    pub reused: u64,
    /// Checkouts that had to allocate (the calling thread's cache and
    /// the depot were empty).
    pub fresh: u64,
    /// Frames accepted back into a thread's cache.
    pub returned: u64,
    /// Frames freed on return because the dropping thread's cache and
    /// the depot were full.
    pub discarded: u64,
    /// Frames currently sitting in thread caches and the depot.
    pub idle: usize,
}

/// A freelist of fixed-capacity byte buffers, cached per thread in
/// front of a shared depot. Cloning is cheap (an `Arc` bump); all clones share one pool.
#[derive(Clone)]
pub struct FramePool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for FramePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FramePool")
            .field("capacity", &self.shared.capacity)
            .field("max_frames", &self.shared.max_frames)
            .field("stats", &s)
            .finish()
    }
}

impl FramePool {
    /// A pool of frames allocated `frame_capacity` bytes each, keeping at
    /// most `max_frames` idle buffers per thread and as many in the
    /// depot.
    #[must_use]
    pub fn new(frame_capacity: usize, max_frames: usize) -> FramePool {
        let shared = Arc::new(Shared {
            id: NEXT_ID.fetch_add(1, Relaxed),
            capacity: frame_capacity.max(1),
            max_frames: max_frames.max(1),
            fresh: AtomicU64::new(0),
            depot: Mutex::new(Depot::default()),
        });
        lock(&LIVE).push((shared.id, Arc::downgrade(&shared)));
        FramePool { shared }
    }

    /// Check a cleared frame out of the pool. Served from the calling
    /// thread's cache when possible, refilling it from the depot when it
    /// is empty; allocates (and counts it) when both are.
    #[must_use]
    pub fn checkout(&self) -> Frame {
        let shared = &self.shared;
        let buf = with_cache(shared.id, Some(shared), Cache::pop)
            .flatten()
            .unwrap_or_else(|| {
                shared.fresh.fetch_add(1, Relaxed);
                Vec::with_capacity(shared.capacity)
            });
        Frame {
            buf,
            pool: shared.id,
        }
    }

    /// Counters since construction, over every thread.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let depot = lock(&self.shared.depot);
        let [reused, returned, discarded] = depot.retired;
        let mut s = PoolStats {
            reused,
            fresh: self.shared.fresh.load(Relaxed),
            returned,
            discarded,
            idle: depot.free.len(),
        };
        for t in &depot.threads {
            s.reused += t.reused.load(Relaxed);
            s.returned += t.returned.load(Relaxed);
            s.discarded += t.discarded.load(Relaxed);
            s.idle += t.idle.load(Relaxed) as usize;
        }
        s
    }

    /// The calling thread's idle frames of this pool.
    #[cfg(test)]
    fn idle_frames_for_test(&self) -> Vec<Vec<u8>> {
        with_cache(self.shared.id, Some(&self.shared), |c| c.free.clone()).unwrap_or_default()
    }
}

/// A byte buffer on loan from a [`FramePool`] (or detached, if built
/// from a plain vector). Dereferences to its filled bytes; returns
/// itself to the dropping thread's cache of its pool on drop.
pub struct Frame {
    buf: Vec<u8>,
    /// The pool's id; 0 when detached.
    pool: u64,
}

impl Frame {
    /// A detached frame owning `bytes` (no pool to return to).
    #[must_use]
    pub fn detached(bytes: Vec<u8>) -> Frame {
        Frame {
            buf: bytes,
            pool: 0,
        }
    }

    /// Mutable access to the underlying vector for filling.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Detach from the pool and take the bytes (the buffer is not
    /// recycled).
    #[must_use]
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pool = 0;
        std::mem::take(&mut self.buf)
    }

    /// Copy the filled bytes into a fresh vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if self.pool == 0 {
            return;
        }
        #[cfg_attr(not(debug_assertions), allow(unused_mut))]
        let mut buf = std::mem::take(&mut self.buf);
        #[cfg(debug_assertions)]
        {
            // Poison the whole allocation so stale reads through a
            // dangling view are loud. Checkout clears before reuse.
            buf.clear();
            buf.resize(buf.capacity(), POISON);
        }
        // No cache to be had (thread exiting, pool gone): `buf` is
        // freed with the closure.
        with_cache(self.pool, None, |cache| cache.push(buf));
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Clone for Frame {
    /// Cloning detaches: the copy owns its bytes and is not returned to
    /// the pool (only the original loan is).
    fn clone(&self) -> Frame {
        Frame::detached(self.buf.clone())
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("len", &self.buf.len())
            .field("pooled", &(self.pool != 0))
            .finish()
    }
}

impl From<Frame> for Vec<u8> {
    fn from(f: Frame) -> Vec<u8> {
        f.into_vec()
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Frame {
        Frame::detached(bytes)
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.buf == other.buf
    }
}
impl Eq for Frame {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reissued_frames_come_back_cleared() {
        let pool = FramePool::new(64, 4);
        let mut f = pool.checkout();
        f.buf_mut().extend_from_slice(b"secret bytes");
        drop(f);
        let f = pool.checkout();
        assert!(f.is_empty(), "recycled frame must be cleared");
        let s = pool.stats();
        assert_eq!((s.fresh, s.reused, s.returned), (1, 1, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn returned_frames_are_poisoned() {
        let pool = FramePool::new(32, 4);
        let mut f = pool.checkout();
        f.buf_mut().extend_from_slice(b"plaintext");
        drop(f);
        let idle = pool.idle_frames_for_test();
        assert_eq!(idle.len(), 1);
        assert!(!idle[0].is_empty());
        assert!(idle[0].iter().all(|&b| b == POISON));
    }

    #[test]
    fn depletion_allocates_and_counts() {
        let pool = FramePool::new(16, 2);
        let frames: Vec<Frame> = (0..5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.stats().fresh, 5);
        // The cache fills at 2 and twice spills one frame to the depot,
        // which then holds max_frames = 2 too: the fifth is freed.
        drop(frames);
        let s = pool.stats();
        assert_eq!((s.returned, s.discarded, s.idle), (4, 1, 4));
        assert_eq!(pool.idle_frames_for_test().len(), 2);
        // Two from the cache, two refilled from the depot, then fresh.
        let again: Vec<Frame> = (0..5).map(|_| pool.checkout()).collect();
        let s = pool.stats();
        assert_eq!((s.reused, s.fresh, s.idle), (4, 6, 0));
        drop(again);
    }

    #[test]
    fn clone_detaches_and_into_vec_skips_recycling() {
        let pool = FramePool::new(16, 4);
        let mut f = pool.checkout();
        f.buf_mut().extend_from_slice(b"abc");
        let copy = f.clone();
        drop(copy); // detached: freelist untouched
        assert_eq!(pool.stats().returned, 0);
        let v = f.into_vec();
        assert_eq!(v, b"abc");
        assert_eq!(pool.stats().returned, 0);
    }

    #[test]
    fn concurrent_checkout_checkin_smoke() {
        let pool = FramePool::new(256, 8);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let mut f = pool.checkout();
                        assert!(f.is_empty());
                        f.buf_mut().extend_from_slice(&(t * 1000 + i).to_be_bytes());
                        assert_eq!(f.len(), 4);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread");
        }
        let s = pool.stats();
        assert_eq!(s.reused + s.fresh, 2000);
        assert!(s.reused > 0, "steady state must recycle");
        // Each thread allocated its one frame once; exiting freed it.
        assert_eq!((s.fresh, s.idle), (4, 0));
    }

    #[test]
    fn a_frame_dropped_on_another_thread_is_recycled_there() {
        let pool = FramePool::new(64, 4);
        let mut f = pool.checkout();
        f.buf_mut().extend_from_slice(b"handed off");
        let there = pool.clone();
        std::thread::spawn(move || {
            drop(f);
            assert_eq!(
                there.idle_frames_for_test().len(),
                1,
                "cached where dropped"
            );
            let again = there.checkout();
            assert!(again.is_empty());
            assert_eq!(there.stats().fresh, 1, "served from this thread's cache");
        })
        .join()
        .expect("dropping thread");
        assert!(
            pool.idle_frames_for_test().is_empty(),
            "not where checked out"
        );
        let s = pool.stats();
        assert_eq!((s.fresh, s.reused, s.returned, s.idle), (1, 1, 2, 0));
    }

    #[test]
    fn no_thread_caches_more_than_max_frames() {
        const MAX: usize = 3;
        let pool = FramePool::new(32, MAX);
        let here: Vec<Frame> = (0..2 * MAX).map(|_| pool.checkout()).collect();
        let there: Vec<Frame> = (0..2 * MAX).map(|_| pool.checkout()).collect();
        let far = pool.clone();
        std::thread::spawn(move || {
            drop(there);
            assert_eq!(far.idle_frames_for_test().len(), MAX);
        })
        .join()
        .expect("dropping thread");
        let depot = pool.stats().idle;
        assert!(depot <= MAX, "the exited thread's cache was freed");
        drop(here);
        assert_eq!(pool.idle_frames_for_test().len(), MAX);
        let s = pool.stats();
        assert_eq!(s.returned + s.discarded, 4 * MAX as u64);
        assert_eq!(s.idle, 2 * MAX, "this thread's cache and a full depot");
        assert_eq!(s.fresh, 4 * MAX as u64);
    }

    #[test]
    fn one_way_handoff_recycles_through_the_depot() {
        const MAX: usize = 4;
        const TRIPS: u64 = 1_000;
        let pool = FramePool::new(64, MAX);
        let (to_owner, handed) = std::sync::mpsc::sync_channel::<Frame>(0);
        let owner = std::thread::spawn(move || handed.into_iter().for_each(drop));
        for _ in 0..TRIPS {
            to_owner.send(pool.checkout()).expect("owner alive");
        }
        drop(to_owner);
        owner.join().expect("owner thread");
        let s = pool.stats();
        assert_eq!(s.reused + s.fresh, TRIPS);
        // At most a cache on either side and the depot are ever idle.
        assert!(s.fresh <= 3 * MAX as u64, "frames come back: {s:?}");
        assert_eq!(s.discarded, 0, "{s:?}");
    }

    #[test]
    fn exited_threads_leave_their_counts_not_their_bookkeeping() {
        let pool = FramePool::new(32, 4);
        for _ in 0..8 {
            let pool = pool.clone();
            std::thread::spawn(move || drop(pool.checkout()))
                .join()
                .expect("thread");
        }
        assert!(lock(&pool.shared.depot).threads.is_empty());
        let s = pool.stats();
        assert_eq!((s.fresh, s.returned, s.idle), (8, 8, 0));
    }

    #[test]
    fn a_dead_pool_frees_its_cache_and_its_late_frames() {
        let pool = FramePool::new(32, 4);
        let id = pool.shared.id;
        let cached = || CACHES.with(|c| c.borrow().iter().any(|c| c.id == id));
        let late = pool.checkout();
        drop(pool.checkout());
        assert!(cached());
        drop(pool);
        assert!(!cached(), "cache freed with its pool");
        drop(late);
        assert!(!cached(), "a frame outliving its pool is freed");
    }
}
