//! What the benchmark asks of the operating system: CPU pinning, per
//! thread on-CPU time, the task list, and an allocation counter.
//!
//! Everything is read from procfs or goes through two hand-declared
//! libc calls (std already links libc; no crate is needed).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

// ---------------------------------------------------------------------
// CPU affinity
// ---------------------------------------------------------------------

/// Words in the CPU mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs the calling thread may run on, ascending. Empty when the
/// platform cannot say.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    {
        Vec::new()
    }
}

/// Restrict the calling thread (and threads it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn set_affinity(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        for &cpu in cpus {
            if cpu < MASK_WORDS * 64 {
                mask[cpu / 64] |= 1 << (cpu % 64);
            }
        }
        if mask.iter().all(|&w| w == 0) {
            return false;
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// Pin the calling thread, and every thread it spawns afterwards, to
/// one CPU: the last one it may run on, away from CPU 0 where the
/// kernel's housekeeping lands. Returns the CPU, or `None` when the
/// kernel refused and the run stays unpinned.
///
/// A run pins *everything* to that one CPU — load generator, the engine
/// worker under test and whatever helper threads the engine starts. On a
/// shared virtual host the cost of a producer on one vCPU feeding a
/// consumer on another follows wherever the hypervisor happens to have
/// placed the two vCPUs: the same relay forwarded 180k or 250k
/// datagrams/s for seconds at a time and flipped between the two. On one
/// CPU no cache line crosses a vCPU boundary and the same run repeats to
/// a few percent.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    set_affinity(&[cpu]).then_some(cpu)
}

// ---------------------------------------------------------------------
// File descriptors
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut [u64; 2]) -> i32;
    fn setrlimit(resource: i32, rlim: *const [u64; 2]) -> i32;
}

/// Raise the soft open-file limit to the hard limit and return it. The
/// relay workloads hold two sockets per flow, more than the common
/// soft default of 1024.
pub fn raise_nofile_limit() -> u64 {
    #[cfg(target_os = "linux")]
    {
        const RLIMIT_NOFILE: i32 = 7;
        let mut lim = [0u64; 2]; // [soft, hard], both `rlim_t` = u64
                                 // SAFETY: `lim` is a live, writable `struct rlimit`-shaped
                                 // buffer (two 64-bit words on Linux).
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        if lim[0] < lim[1] {
            let want = [lim[1], lim[1]];
            // SAFETY: `want` is a live `struct rlimit`-shaped buffer.
            if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                return lim[1];
            }
        }
        lim[0]
    }
    #[cfg(not(target_os = "linux"))]
    {
        u64::MAX
    }
}

// ---------------------------------------------------------------------
// Tasks and their on-CPU time
// ---------------------------------------------------------------------

/// Thread ids of this process, from `/proc/self/task`.
#[must_use]
pub fn task_ids() -> BTreeSet<u32> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return BTreeSet::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Tasks present in `after` but not in `before`: the SUT's threads when
/// the two lists bracket `Engine::bind` (plus, re-listed later, any
/// kernel I/O helper threads its backend starts lazily).
#[must_use]
pub fn new_tasks(before: &BTreeSet<u32>, after: &BTreeSet<u32>) -> Vec<u32> {
    after.difference(before).copied().collect()
}

/// First field of a `schedstat` line: nanoseconds spent on a CPU.
/// (`<on-cpu ns> <runqueue-wait ns> <timeslices>`.)
#[must_use]
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of task `tid`; `None` once it has exited or when
/// the kernel has no schedstats.
#[must_use]
pub fn task_cpu_ns(tid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    parse_schedstat(&text)
}

/// Summed on-CPU nanoseconds of `tids` (exited tasks count 0).
#[must_use]
pub fn tasks_cpu_ns(tids: &[u32]) -> u64 {
    tids.iter().filter_map(|&t| task_cpu_ns(t)).sum()
}

/// Kernel thread id of the calling thread.
#[must_use]
pub fn current_tid() -> Option<u32> {
    // `/proc/thread-self` is a symlink to `<pid>/task/<tid>`.
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

// ---------------------------------------------------------------------
// Allocation counter
// ---------------------------------------------------------------------

/// System allocator that counts while [`count_allocs`] is switched on.
/// Off (the default, and during every timed end-to-end repetition) it
/// costs one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// What the allocator saw while counting was on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// `alloc` + `realloc` calls.
    pub allocs: u64,
    /// Bytes requested minus bytes released (can be negative when
    /// memory allocated before the window is freed inside it).
    pub live_bytes: i64,
}

/// Run `f` with allocation counting on and return what it allocated.
/// Counts are process-wide, so callers use it only while no other
/// thread of the process is doing work.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let value = f();
    COUNTING.store(false, Ordering::SeqCst);
    let counts = AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed) - live,
    };
    (value, counts)
}

// ---------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------

/// `uname -r`, from procfs.
#[must_use]
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cores the process can run on in parallel, as of the first call
/// (`main` makes it before any thread is pinned — afterwards the
/// calling thread's own mask would be the answer).
#[must_use]
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Commit of the repository the benchmark was built in, read straight
/// from `.git` (no subprocess); `"unknown"` in a checkout that is not a
/// git repository.
#[must_use]
pub fn git_commit(repo_root: &std::path::Path) -> String {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                // A packed ref: `<sha> <ref>` lines in packed-refs.
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
                        .unwrap_or_default()
                })
            })
            .unwrap_or_default(),
    };
    if commit.len() >= 7 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        commit
    } else {
        "unknown".to_owned()
    }
}

/// Every `ALPHA_*` variable in the environment, sorted by name. The
/// benchmark sets none; one found here changed a backend choice and the
/// run records it.
#[must_use]
pub fn alpha_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ALPHA_"))
        .collect();
    vars.sort();
    vars
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("not-a-number 1 2"), None);
    }

    #[test]
    fn a_spawned_thread_is_discovered_and_has_cpu_time() {
        let before = task_ids();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let mut x = 0u64;
            while !flag.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            current_tid()
        });
        // Other tests may start threads too, so the new task is looked
        // for by id once the worker reports it.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let fresh = new_tasks(&before, &task_ids());
        let busy_ns = tasks_cpu_ns(&fresh);
        stop.store(true, Ordering::Relaxed);
        let tid = worker.join().expect("worker thread").expect("procfs tid");
        assert!(fresh.contains(&tid), "new task {tid} not in {fresh:?}");
        assert!(!before.contains(&tid));
        assert!(busy_ns > 0, "a spinning thread accrues on-CPU time");
    }

    #[test]
    fn new_tasks_is_a_set_difference() {
        let before: BTreeSet<u32> = [1, 2, 3].into();
        let after: BTreeSet<u32> = [2, 3, 7, 9].into();
        assert_eq!(new_tasks(&before, &after), vec![7, 9]);
        assert!(new_tasks(&after, &after).is_empty());
    }

    #[test]
    fn pinning_narrows_a_thread_and_its_children_to_one_cpu() {
        let allowed = allowed_cpus();
        // Pin a scratch thread, not the test runner's.
        let (cpu, seen, child) = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            let child = std::thread::spawn(allowed_cpus)
                .join()
                .expect("child thread");
            (cpu, allowed_cpus(), child)
        })
        .join()
        .expect("scratch thread");
        match cpu {
            Some(cpu) => {
                assert_eq!(Some(&cpu), allowed.last());
                assert_eq!(seen, vec![cpu]);
                assert_eq!(child, vec![cpu], "spawned threads inherit the mask");
            }
            None => assert_eq!(seen, allowed),
        }
    }
}
