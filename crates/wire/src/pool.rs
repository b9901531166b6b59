//! A freelist of reusable datagram buffers.
//!
//! Steady-state packet processing should do zero malloc/free per packet:
//! RX loops check a [`Frame`] out of a [`FramePool`], fill it from the
//! socket, hand it through the engine, and the frame returns itself to
//! the pool when dropped. Depletion falls back to fresh allocation (and
//! is counted), so the pool is a fast path, never a correctness limit.
//!
//! Each thread keeps its own cache of each pool's idle frames: a
//! checkout pops from the calling thread's cache and a dropped frame is
//! pushed onto the dropping thread's. That cycle takes no lock, clones
//! no `Arc` and makes no atomic read-modify-write — a frame names its
//! pool by a plain id. A thread caches at most `max_frames` of a pool's
//! frames; a frame dropped beyond that, or on a thread that never
//! checked a frame out of its pool, is freed. The engine and transport
//! drop every frame on the thread that checked it out, so only a miss of
//! the calling thread's cache allocates, and bumps the pool's one shared
//! counter.
//!
//! In debug builds, frames are poisoned with a marker byte when they
//! return to the pool, so stale reads of recycled buffers show up as
//! garbage instead of silently reading the previous packet.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Weak};

/// Byte written over returned frames in debug builds.
#[cfg(debug_assertions)]
pub const POISON: u8 = 0xDB;

/// Id of the next pool built; 0 marks a detached frame.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's caches, one per pool it has checked frames out of.
    static CACHES: RefCell<Vec<Cache>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on the calling thread's caches. `None` when they cannot be
/// had: the thread is exiting, or they are already borrowed.
fn with_caches<R>(f: impl FnOnce(&mut Vec<Cache>) -> R) -> Option<R> {
    CACHES
        .try_with(|caches| caches.try_borrow_mut().ok().map(|mut c| f(&mut c)))
        .ok()
        .flatten()
}

/// What every clone of a pool shares, on every thread.
struct Shared {
    id: u64,
    /// Capacity each fresh frame is allocated with.
    capacity: usize,
    /// Per-thread cache high-water mark; frames returned beyond it are
    /// freed.
    max_frames: usize,
    fresh: AtomicU64,
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Free this thread's cache now; other threads drop theirs the
        // next time they meet a new pool, or when they exit.
        let id = self.id;
        with_caches(|caches| caches.retain(|c| c.id != id));
    }
}

/// One thread's idle frames of one pool.
struct Cache {
    id: u64,
    max_frames: usize,
    free: Vec<Vec<u8>>,
    /// Dead once the pool is, so the cache can be pruned.
    pool: Weak<Shared>,
}

/// Counters describing a pool's behaviour so far, over every thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts that had to allocate (the calling thread's cache was
    /// empty).
    pub fresh: u64,
}

/// A freelist of fixed-capacity byte buffers, cached per thread.
/// Cloning is cheap (an `Arc` bump); all clones share one pool.
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
    /// most `max_frames` idle buffers per thread.
    #[must_use]
    pub fn new(frame_capacity: usize, max_frames: usize) -> FramePool {
        FramePool {
            shared: Arc::new(Shared {
                id: NEXT_ID.fetch_add(1, Relaxed),
                capacity: frame_capacity.max(1),
                max_frames: max_frames.max(1),
                fresh: AtomicU64::new(0),
            }),
        }
    }

    /// Check a cleared frame out of the pool. Served from the calling
    /// thread's cache when possible; allocates (and counts it) when that
    /// is empty.
    #[must_use]
    pub fn checkout(&self) -> Frame {
        let shared = &self.shared;
        let cached = with_caches(|caches| {
            let i = match caches.iter().position(|c| c.id == shared.id) {
                Some(i) => i,
                None => {
                    caches.retain(|c| c.pool.strong_count() > 0);
                    caches.push(Cache {
                        id: shared.id,
                        max_frames: shared.max_frames,
                        free: Vec::new(),
                        pool: Arc::downgrade(shared),
                    });
                    caches.len() - 1
                }
            };
            caches[i].free.pop()
        });
        let buf = match cached.flatten() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => {
                shared.fresh.fetch_add(1, Relaxed);
                Vec::with_capacity(shared.capacity)
            }
        };
        Frame {
            buf,
            pool: shared.id,
        }
    }

    /// Counters since construction, over every thread.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.shared.fresh.load(Relaxed),
        }
    }

    /// The calling thread's idle frames of this pool.
    #[cfg(test)]
    fn idle_frames_for_test(&self) -> Vec<Vec<u8>> {
        let id = self.shared.id;
        with_caches(|caches| caches.iter().find(|c| c.id == id).map(|c| c.free.clone()))
            .flatten()
            .unwrap_or_default()
    }
}

/// A byte buffer on loan from a [`FramePool`] (or detached, if built
/// from a plain vector). Dereferences to its filled bytes; returns
/// itself to the dropping thread's cache of its pool on drop, if that
/// thread has one with room.
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
        // No cache of this pool on this thread, or a full one: `buf` is
        // freed with the closure.
        let id = self.pool;
        with_caches(|caches| {
            if let Some(cache) = caches.iter_mut().find(|c| c.id == id) {
                if cache.free.len() < cache.max_frames {
                    cache.free.push(buf);
                }
            }
        });
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
        assert_eq!(pool.stats().fresh, 1, "the second checkout reused");
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
        // The cache fills at 2; the other three are freed.
        drop(frames);
        assert_eq!(pool.idle_frames_for_test().len(), 2);
        // Two from the cache, then fresh.
        let again: Vec<Frame> = (0..5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.stats().fresh, 8);
        assert!(pool.idle_frames_for_test().is_empty());
        drop(again);
    }

    #[test]
    fn clone_detaches_and_into_vec_skips_recycling() {
        let pool = FramePool::new(16, 4);
        let mut f = pool.checkout();
        f.buf_mut().extend_from_slice(b"abc");
        let copy = f.clone();
        drop(copy); // detached: freelist untouched
        assert!(pool.idle_frames_for_test().is_empty());
        let v = f.into_vec();
        assert_eq!(v, b"abc");
        assert!(pool.idle_frames_for_test().is_empty());
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
        // Each thread allocated its one frame once and recycled it.
        assert_eq!(pool.stats().fresh, 4);
    }

    #[test]
    fn a_frame_dropped_on_another_thread_is_recycled_there() {
        let pool = FramePool::new(64, 4);
        let (mut f, stray) = (pool.checkout(), pool.checkout());
        f.buf_mut().extend_from_slice(b"handed off");
        let there = pool.clone();
        std::thread::spawn(move || {
            // This thread has no cache of the pool yet: freed.
            drop(stray);
            assert!(there.idle_frames_for_test().is_empty(), "no cache made");
            drop(there.checkout());
            drop(f);
            assert_eq!(
                there.idle_frames_for_test().len(),
                2,
                "cached where dropped"
            );
            let again = there.checkout();
            assert!(again.is_empty());
            assert_eq!(there.stats().fresh, 3, "served from this thread's cache");
        })
        .join()
        .expect("dropping thread");
        assert!(
            pool.idle_frames_for_test().is_empty(),
            "not where checked out"
        );
    }

    #[test]
    fn no_thread_caches_more_than_max_frames() {
        const MAX: usize = 3;
        let pool = FramePool::new(32, MAX);
        let here: Vec<Frame> = (0..2 * MAX).map(|_| pool.checkout()).collect();
        let there: Vec<Frame> = (0..2 * MAX).map(|_| pool.checkout()).collect();
        let far = pool.clone();
        std::thread::spawn(move || {
            drop(far.checkout());
            drop(there);
            assert_eq!(far.idle_frames_for_test().len(), MAX);
        })
        .join()
        .expect("dropping thread");
        drop(here);
        assert_eq!(pool.idle_frames_for_test().len(), MAX);
        assert_eq!(pool.stats().fresh, 4 * MAX as u64 + 1);
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
        // Each exited thread's cache, and with it its link to the pool,
        // went with the thread.
        assert_eq!(Arc::weak_count(&pool.shared), 0);
        assert_eq!(pool.stats().fresh, 8);
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
