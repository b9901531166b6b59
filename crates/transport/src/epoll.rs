//! Raw Linux readiness FFI: `epoll`, `eventfd` doorbells and `timerfd`
//! microsecond timers. One of two FFI modules in the crate containing
//! `unsafe` (the other is [`crate::mmsg`], whose style this module
//! mirrors).
//!
//! No crates.io access means no `libc`: the ABI is declared by hand —
//! `epoll_event` and `itimerspec` as `#[repr(C)]` types matching the
//! x86_64 / aarch64 Linux layouts (`epoll_event` is packed on x86_64
//! only, a historical quirk of the 32/64-bit compat layer), and the
//! calls as plain `extern "C"` glibc imports. The layouts and semantics
//! are locked down by the property tests in `tests/epoll_props.rs`:
//! struct sizes, doorbell ring/drain round trips, timer precision and
//! socket readiness over a real loopback pair.
//!
//! Safety argument, once for the whole module: every `unsafe` block
//! here is one of exactly two shapes.
//!
//! 1. A call to an imported C function whose pointer arguments (if any)
//!    are derived from live Rust allocations (stack arrays or locals)
//!    that outlive the call, with lengths taken from the same
//!    allocation. The kernel reads/writes only within those bounds.
//! 2. `OwnedFd::from_raw_fd` on a file descriptor this module just
//!    created and exclusively owns, transferring ownership to the
//!    returned handle (which closes it on drop).
//!
//! Wiring (one instance of everything per worker, see
//! `crate::server`): an [`Epoll`] set watches the worker's socket, its
//! [`EventFd`] control bell and one [`TimerFd`] armed from the engine's
//! per-worker cached min-deadline. The bell carries no data: the
//! engine's deadline waker rings it after lowering the worker's hint,
//! and shutdown after setting its flag, so the woken worker reads the
//! new hint or the flag. A bell rung twice is one wake; a bell rung
//! while the worker is awake is a harmless spurious wake later.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

/// Most readiness events drained per `epoll_wait` call: the socket,
/// the timer and the control bell fit with room to spare.
pub const MAX_EVENTS: usize = 64;

// ---------------------------------------------------------------------------
// ABI constants (x86_64 / aarch64 Linux values).
// ---------------------------------------------------------------------------

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
/// Readable (level-triggered, the default).
const EPOLLIN: u32 = 0x001;
/// Wake only one of the epoll instances watching this fd — the
/// SO_REUSEPORT-less shared-socket case, where every worker's set
/// holds the same underlying socket.
const EPOLLEXCLUSIVE: u32 = 1 << 28;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const CLOCK_MONOTONIC: c_int = 1;
const TFD_CLOEXEC: c_int = 0o2000000;
const TFD_NONBLOCK: c_int = 0o4000;

// ---------------------------------------------------------------------------
// ABI types.
// ---------------------------------------------------------------------------

/// `struct epoll_event`. Packed on x86_64 (12 bytes) so the 64-bit
/// kernel shares one layout with 32-bit userspace; naturally aligned
/// (16 bytes) everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` et al.).
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim; the worker loop stores
    /// its token here.
    pub data: u64,
}

/// `struct timespec` (x86_64/aarch64: both fields are 64-bit).
#[repr(C)]
#[derive(Clone, Copy)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct itimerspec`: interval (zero = one-shot) + initial expiry.
#[repr(C)]
#[derive(Clone, Copy)]
struct ITimerSpec {
    it_interval: TimeSpec,
    it_value: TimeSpec,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
    fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new_value: *const ITimerSpec,
        old_value: *mut ITimerSpec,
    ) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

// ---------------------------------------------------------------------------
// Epoll.
// ---------------------------------------------------------------------------

/// One readiness set (`epoll_create1` instance). Closed on drop.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// A fresh, empty readiness set.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: shape 1 — no pointers; returns a fresh fd or -1.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: shape 2 — `fd` was just created above and nothing
        // else holds it.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Watch `fd` for readability, tagging events with `token`.
    /// `exclusive` requests `EPOLLEXCLUSIVE` — use it when several
    /// workers' sets watch one shared socket so the kernel wakes only
    /// one of them per datagram instead of thundering the whole herd.
    pub fn add(&self, fd: RawFd, token: u64, exclusive: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | if exclusive { EPOLLEXCLUSIVE } else { 0 },
            data: token,
        };
        // SAFETY: shape 1 — `ev` is a live stack value; the kernel
        // copies it during the call and keeps no pointer to it.
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block up to `timeout_ms` for readiness (negative = forever),
    /// appending the token of every ready fd to `tokens`. Returns how
    /// many fired; `Ok(0)` on timeout. `EINTR` is treated as a timeout
    /// (the worker loop re-checks shutdown either way).
    pub fn wait(&self, timeout_ms: i32, tokens: &mut Vec<u64>) -> io::Result<usize> {
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: shape 1 — `events` is a live stack array of
        // MAX_EVENTS entries and the length passed matches; the kernel
        // writes at most that many entries.
        let rc = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                MAX_EVENTS as c_int,
                timeout_ms as c_int,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        let n = (rc as usize).min(MAX_EVENTS);
        for ev in &events[..n] {
            // Copy out of the (possibly packed) struct by value; no
            // reference to a packed field is ever formed.
            let token = ev.data;
            tokens.push(token);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// EventFd doorbell.
// ---------------------------------------------------------------------------

/// A nonblocking `eventfd` used as a wake-up doorbell: writers add to a
/// kernel counter, the owner's `epoll_wait` reports it readable while
/// the counter is nonzero, and [`EventFd::drain`] zeroes it again.
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// A fresh doorbell with a zero counter.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: shape 1 — no pointers; returns a fresh fd or -1.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: shape 2 — `fd` was just created above and nothing
        // else holds it.
        Ok(EventFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Ring the doorbell (add 1 to the counter). Infallible by design:
    /// `EAGAIN` means the counter is already saturated — the owner is
    /// guaranteed a pending wake, which is all a doorbell promises.
    pub fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: shape 1 — `one` is a live stack u64 and the length
        // matches its size; the kernel only reads those 8 bytes.
        let _ = unsafe {
            write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast::<c_void>(),
                8,
            )
        };
    }

    /// Reset the counter; returns how many rings had accumulated
    /// (0 when the bell was silent).
    pub fn drain(&self) -> u64 {
        let mut count: u64 = 0;
        // SAFETY: shape 1 — `count` is a live stack u64 and the length
        // matches its size; the kernel writes exactly 8 bytes on
        // success.
        let rc = unsafe {
            read(
                self.fd.as_raw_fd(),
                (&mut count as *mut u64).cast::<c_void>(),
                8,
            )
        };
        if rc == 8 {
            count
        } else {
            0
        }
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

// ---------------------------------------------------------------------------
// TimerFd.
// ---------------------------------------------------------------------------

/// A nonblocking one-shot `timerfd` on the monotonic clock: armed with
/// a relative delay at nanosecond ABI precision (the worker loop feeds
/// it microseconds), readable once expired, silent after
/// [`TimerFd::disarm`].
pub struct TimerFd {
    fd: OwnedFd,
}

impl TimerFd {
    /// A fresh, disarmed timer.
    pub fn new() -> io::Result<TimerFd> {
        // SAFETY: shape 1 — no pointers; returns a fresh fd or -1.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: shape 2 — `fd` was just created above and nothing
        // else holds it.
        Ok(TimerFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn settime(&self, value: TimeSpec) -> io::Result<()> {
        let spec = ITimerSpec {
            it_interval: TimeSpec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: value,
        };
        // SAFETY: shape 1 — `spec` is a live stack value the kernel
        // copies during the call; the old-value pointer is null.
        let rc = unsafe { timerfd_settime(self.fd.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Arm (or re-arm) the timer to fire once, `delay` from now. A zero
    /// delay is clamped to 1 ns — an all-zero `itimerspec` means
    /// *disarm*, and an already-due deadline must still fire.
    pub fn arm_in(&self, delay: Duration) -> io::Result<()> {
        let mut secs = delay.as_secs() as i64;
        let mut nanos = i64::from(delay.subsec_nanos());
        if secs == 0 && nanos == 0 {
            nanos = 1;
        }
        if secs < 0 {
            secs = i64::MAX;
        }
        self.settime(TimeSpec {
            tv_sec: secs,
            tv_nsec: nanos,
        })
    }

    /// Cancel any pending expiry.
    pub fn disarm(&self) -> io::Result<()> {
        self.settime(TimeSpec {
            tv_sec: 0,
            tv_nsec: 0,
        })
    }

    /// Acknowledge an expiry so the fd reads as quiet again; returns
    /// the kernel's expiration count (0 when the timer had not fired).
    pub fn drain(&self) -> u64 {
        let mut count: u64 = 0;
        // SAFETY: shape 1 — `count` is a live stack u64 and the length
        // matches its size; the kernel writes exactly 8 bytes on
        // success.
        let rc = unsafe {
            read(
                self.fd.as_raw_fd(),
                (&mut count as *mut u64).cast::<c_void>(),
                8,
            )
        };
        if rc == 8 {
            count
        } else {
            0
        }
    }
}

impl AsRawFd for TimerFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}
