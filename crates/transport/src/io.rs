//! Runtime-selected batched UDP I/O backends.
//!
//! Mirrors `alpha_crypto::backend`: a process-wide backend resolved
//! once — `ALPHA_UDP_BACKEND` if set (`mmsg`, `fallback`, `auto`),
//! otherwise auto-detection — behind [`active`], with [`force`] for
//! benches and tests that compare the two in one process. Both
//! backends move byte-identical datagrams; selection only changes how
//! many syscalls that takes. It is the runtime's one override: how an
//! engine worker *waits* is derived from it ([`UdpBackend::wait_name`]),
//! not selected separately.
//!
//! - [`UdpBackend::Mmsg`] — Linux `recvmmsg`/`sendmmsg` via the
//!   hand-declared FFI in [`crate::mmsg`]: up to [`MAX_BATCH`]
//!   messages per syscall, received straight into pooled frames, with
//!   UDP segment offload inside it — a run of equal-size datagrams to
//!   one destination leaves as one `UDP_SEGMENT` message, and a socket
//!   that asked for `UDP_GRO` ([`crate::mmsg::set_gro`]) receives such a
//!   run as one frame of several [`RxDatagram::segments`].
//! - [`UdpBackend::Fallback`] — portable `recv_from`/`send_to`, one
//!   datagram per syscall, into a reused scratch buffer then one copy
//!   into a pooled frame (no per-datagram allocation either way).
//!
//! Every [`UdpIo`] feeds a per-worker counter block
//! ([`alpha_engine::IoWorker`]) so `engine stats` reports syscalls,
//! datagrams-per-syscall, EAGAIN wakeups and partial sends per worker.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use alpha_engine::IoWorker;
use alpha_wire::{Frame, FramePool};

/// Largest UDP datagram we size receive buffers for.
pub const MAX_DATAGRAM: usize = 65_536;

/// Most datagrams one batched syscall moves (the fallback backend still
/// honors it as its per-call cap of 1..).
#[cfg(target_os = "linux")]
pub const MAX_BATCH: usize = crate::mmsg::VLEN;
/// Most datagrams one batched syscall moves.
#[cfg(not(target_os = "linux"))]
pub const MAX_BATCH: usize = 32;

/// Identifies one of the compiled-in UDP I/O backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdpBackend {
    /// Linux `recvmmsg`/`sendmmsg` batching (see [`crate::mmsg`]).
    Mmsg,
    /// Portable one-datagram-per-syscall loop; always available, the
    /// behavioural reference the batched backend must match.
    Fallback,
}

impl UdpBackend {
    /// Stable lowercase name, as accepted by `ALPHA_UDP_BACKEND` and
    /// reported in `engine stats` / BENCH_*.json outputs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            UdpBackend::Mmsg => "mmsg",
            UdpBackend::Fallback => "fallback",
        }
    }

    /// Parse a backend name (the inverse of [`UdpBackend::name`]).
    #[must_use]
    pub fn parse(name: &str) -> Option<UdpBackend> {
        match name {
            "mmsg" => Some(UdpBackend::Mmsg),
            "fallback" => Some(UdpBackend::Fallback),
            _ => None,
        }
    }

    /// Whether this backend can run on the current platform.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            UdpBackend::Fallback => true,
            UdpBackend::Mmsg => cfg!(target_os = "linux"),
        }
    }

    /// Name of the wait an engine worker pairs with this backend, as
    /// reported in `wait_backend`: `"epoll"` (readiness set, doorbells,
    /// timerfd) with `mmsg`, `"fallback"` (blocking receive behind a
    /// read timeout) with the portable backend. Stats report the waits
    /// the workers actually installed: an engine whose doorbells fail
    /// to come up at bind reports `"fallback"` whatever this says, and
    /// one where only some workers' epoll sets came up `"mixed"`.
    #[must_use]
    pub fn wait_name(self) -> &'static str {
        match self {
            UdpBackend::Mmsg => "epoll",
            UdpBackend::Fallback => "fallback",
        }
    }
}

impl std::fmt::Display for UdpBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Backends usable on this platform, in increasing preference order.
#[must_use]
pub fn available() -> Vec<UdpBackend> {
    let mut v = vec![UdpBackend::Fallback];
    if UdpBackend::Mmsg.is_supported() {
        v.push(UdpBackend::Mmsg);
    }
    v
}

/// What auto-detection picks on this platform (ignoring the override).
#[must_use]
pub fn detect() -> UdpBackend {
    if UdpBackend::Mmsg.is_supported() {
        UdpBackend::Mmsg
    } else {
        UdpBackend::Fallback
    }
}

// 0 = not yet resolved; otherwise backend code below.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn code(kind: UdpBackend) -> u8 {
    match kind {
        UdpBackend::Mmsg => 1,
        UdpBackend::Fallback => 2,
    }
}

/// The UDP backend in effect for this process.
///
/// Resolved once on first use: `ALPHA_UDP_BACKEND` if set and valid,
/// otherwise [`detect`]. Subsequent calls are one relaxed atomic load.
#[must_use]
pub fn active() -> UdpBackend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => UdpBackend::Mmsg,
        2 => UdpBackend::Fallback,
        _ => {
            let kind = resolve();
            ACTIVE.store(code(kind), Ordering::Relaxed);
            kind
        }
    }
}

fn resolve() -> UdpBackend {
    match std::env::var("ALPHA_UDP_BACKEND") {
        Ok(raw) => {
            let name = raw.trim().to_ascii_lowercase();
            if name.is_empty() || name == "auto" {
                return detect();
            }
            match UdpBackend::parse(&name) {
                Some(kind) if kind.is_supported() => kind,
                Some(kind) => {
                    eprintln!(
                        "alpha-transport: ALPHA_UDP_BACKEND={} not supported on this \
                         platform; falling back to {}",
                        kind.name(),
                        detect().name()
                    );
                    detect()
                }
                None => {
                    eprintln!(
                        "alpha-transport: unknown ALPHA_UDP_BACKEND={raw:?} \
                         (expected mmsg|fallback|auto); falling back to {}",
                        detect().name()
                    );
                    detect()
                }
            }
        }
        Err(_) => detect(),
    }
}

/// Error returned by [`force`] for a backend this platform lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedBackend(
    /// The backend that was requested.
    pub UdpBackend,
);

impl std::fmt::Display for UnsupportedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "udp backend {} not supported on this platform", self.0)
    }
}

impl std::error::Error for UnsupportedBackend {}

/// Force the process-wide backend. Intended for benches and tests that
/// compare backends in one process; both backends move identical bytes,
/// so switching mid-flight only changes which syscalls run.
pub fn force(kind: UdpBackend) -> Result<(), UnsupportedBackend> {
    if !kind.is_supported() {
        return Err(UnsupportedBackend(kind));
    }
    ACTIVE.store(code(kind), Ordering::Relaxed);
    Ok(())
}

/// One received message: its source, its pooled frame, and whether the
/// kernel had to cut it to fit the frame. One datagram — except on a
/// socket that asked for coalesced receives ([`crate::mmsg::set_gro`];
/// the engine's `mmsg` workers do, nothing else), where a frame may
/// carry a run of datagrams from one source, to be read through
/// [`RxDatagram::segments`].
#[derive(Debug)]
pub struct RxDatagram {
    /// Source address.
    pub from: SocketAddr,
    /// The payload, in a frame on loan from the receive pool.
    pub frame: Frame,
    /// The datagram was longer than the frame and lost its tail.
    pub truncated: bool,
    /// 0: the frame is one datagram. Otherwise the frame is a coalesced
    /// run of two or more datagrams of this many bytes each, the last
    /// possibly shorter.
    pub segment_len: usize,
}

impl RxDatagram {
    /// The datagrams in the frame, in arrival order: the whole frame
    /// when it is not coalesced, `segment_len`-byte pieces when it is.
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        // `chunks` cannot express "one piece, even if empty".
        let (whole, pieces): (_, &[u8]) = if self.segment_len == 0 {
            (Some(&self.frame[..]), &[])
        } else {
            (None, &self.frame)
        };
        whole
            .into_iter()
            .chain(pieces.chunks(self.segment_len.max(1)))
    }

    /// How many datagrams [`RxDatagram::segments`] yields.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        if self.segment_len == 0 {
            1
        } else {
            self.frame.len().div_ceil(self.segment_len)
        }
    }
}

/// A socket plus the backend that moves datagrams through it and the
/// per-worker counters it reports into.
pub struct UdpIo {
    socket: UdpSocket,
    backend: UdpBackend,
    counters: Arc<IoWorker>,
    /// Fallback receive staging: one reused buffer instead of a fresh
    /// allocation per datagram.
    scratch: Vec<u8>,
    /// Batched-receive staging kept across calls (see
    /// [`crate::mmsg::RecvScratch`]).
    #[cfg(target_os = "linux")]
    rx: crate::mmsg::RecvScratch,
    /// Latched by the first coalesced send the kernel refuses on this
    /// socket: from then on every datagram goes out as its own message.
    gso_refused: AtomicBool,
}

impl UdpIo {
    /// Wrap `socket` with the process-wide [`active`] backend.
    #[must_use]
    pub fn new(socket: UdpSocket, counters: Arc<IoWorker>) -> UdpIo {
        UdpIo::with_backend(socket, active(), counters)
    }

    /// Wrap `socket` with an explicit backend (downgraded to
    /// [`UdpBackend::Fallback`] if unsupported here).
    #[must_use]
    pub fn with_backend(socket: UdpSocket, backend: UdpBackend, counters: Arc<IoWorker>) -> UdpIo {
        let backend = if backend.is_supported() {
            backend
        } else {
            UdpBackend::Fallback
        };
        UdpIo {
            socket,
            backend,
            counters,
            scratch: Vec::new(),
            #[cfg(target_os = "linux")]
            rx: crate::mmsg::RecvScratch::default(),
            gso_refused: AtomicBool::new(false),
        }
    }

    /// The wrapped socket (timeouts, local address, direct sends).
    #[must_use]
    pub fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// The backend in effect for this socket.
    #[must_use]
    pub fn backend(&self) -> UdpBackend {
        self.backend
    }

    /// This endpoint's counter block.
    #[must_use]
    pub fn counters(&self) -> &Arc<IoWorker> {
        &self.counters
    }

    /// Receive up to `max` messages into pooled frames appended to
    /// `out`, blocking for the first one up to the socket's read
    /// timeout. Returns how many datagrams arrived (the segments of a
    /// coalesced frame counted one by one); `Ok(0)` on timeout. The
    /// batched backend drains whatever else is queued in the same
    /// syscall; the fallback moves exactly one datagram per call.
    pub fn recv_batch(
        &mut self,
        pool: &FramePool,
        out: &mut Vec<RxDatagram>,
        max: usize,
    ) -> io::Result<usize> {
        match self.backend {
            #[cfg(target_os = "linux")]
            UdpBackend::Mmsg => {
                self.counters.recv_calls.fetch_add(1, Ordering::Relaxed);
                let before = out.len();
                match crate::mmsg::recv_batch(&self.socket, pool, &mut self.rx, out, max) {
                    Ok(0) => {
                        self.counters.eagain.fetch_add(1, Ordering::Relaxed);
                        Ok(0)
                    }
                    Ok(n) => {
                        self.counters
                            .datagrams_in
                            .fetch_add(n as u64, Ordering::Relaxed);
                        let frames = &out[before..];
                        let coalesced = frames.iter().filter(|d| d.segment_len != 0).count();
                        if coalesced > 0 {
                            // Every other frame is one of the `n`.
                            let segments = n - (frames.len() - coalesced);
                            self.counters
                                .gro_recvs
                                .fetch_add(coalesced as u64, Ordering::Relaxed);
                            self.counters
                                .gro_segments
                                .fetch_add(segments as u64, Ordering::Relaxed);
                        }
                        Ok(n)
                    }
                    Err(e) if recoverable(&e) => {
                        self.counters.eagain.fetch_add(1, Ordering::Relaxed);
                        Ok(0)
                    }
                    Err(e) => Err(e),
                }
            }
            #[cfg(not(target_os = "linux"))]
            UdpBackend::Mmsg => unreachable!("mmsg backend rejected at construction"),
            UdpBackend::Fallback => {
                let _ = max;
                if self.scratch.is_empty() {
                    self.scratch.resize(MAX_DATAGRAM, 0);
                }
                self.counters.recv_calls.fetch_add(1, Ordering::Relaxed);
                match self.socket.recv_from(&mut self.scratch) {
                    Ok((n, from)) => {
                        self.counters.datagrams_in.fetch_add(1, Ordering::Relaxed);
                        let mut frame = pool.checkout();
                        frame.buf_mut().extend_from_slice(&self.scratch[..n]);
                        out.push(RxDatagram {
                            from,
                            frame,
                            // recv_from cannot distinguish a datagram of
                            // exactly scratch size from a truncated one.
                            truncated: n == self.scratch.len(),
                            segment_len: 0,
                        });
                        Ok(1)
                    }
                    Err(e) if recoverable(&e) => {
                        self.counters.eagain.fetch_add(1, Ordering::Relaxed);
                        Ok(0)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Send every datagram in `msgs`, gathering up to [`MAX_BATCH`] per
    /// syscall on the batched backend — runs of equal-size datagrams to
    /// one destination coalesced into one message each, until the
    /// kernel first refuses that on this socket — and resubmitting any
    /// tail a partial `sendmmsg` leaves behind. Returns the count sent.
    pub fn send_batch(&self, msgs: &[(SocketAddr, Frame)]) -> io::Result<usize> {
        match self.backend {
            #[cfg(target_os = "linux")]
            UdpBackend::Mmsg => {
                let mut sent = 0usize;
                while sent < msgs.len() {
                    let chunk = (msgs.len() - sent).min(MAX_BATCH);
                    let coalesce = !self.gso_refused.load(Ordering::Relaxed);
                    match crate::mmsg::send_batch(&self.socket, &msgs[sent..sent + chunk], coalesce)
                    {
                        Ok(crate::mmsg::Sent { datagrams: 0, .. }) => {
                            // The kernel accepted nothing but reported
                            // success: treat as an error rather than spin.
                            return Err(io::Error::other("sendmmsg accepted 0 datagrams"));
                        }
                        Ok(s) => {
                            // A refusal is one more (failed) syscall.
                            self.counters
                                .send_calls
                                .fetch_add(1 + u64::from(s.refused), Ordering::Relaxed);
                            self.counters
                                .datagrams_out
                                .fetch_add(s.datagrams as u64, Ordering::Relaxed);
                            if s.datagrams < chunk {
                                self.counters.partial_sends.fetch_add(1, Ordering::Relaxed);
                            }
                            if s.gso_sends > 0 {
                                self.counters
                                    .gso_sends
                                    .fetch_add(s.gso_sends as u64, Ordering::Relaxed);
                                self.counters
                                    .gso_segments
                                    .fetch_add(s.gso_segments as u64, Ordering::Relaxed);
                            }
                            if s.refused {
                                self.gso_refused.store(true, Ordering::Relaxed);
                                self.counters.gso_refused.fetch_add(1, Ordering::Relaxed);
                            }
                            sent += s.datagrams;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                            // Resubmitted below; was a silent spin
                            // before send_retries existed.
                            self.counters.send_retries.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(sent)
            }
            #[cfg(not(target_os = "linux"))]
            UdpBackend::Mmsg => unreachable!("mmsg backend rejected at construction"),
            UdpBackend::Fallback => {
                for (dst, frame) in msgs {
                    loop {
                        self.counters.send_calls.fetch_add(1, Ordering::Relaxed);
                        match self.socket.send_to(frame, *dst) {
                            Ok(_) => break,
                            Err(e) if recoverable(&e) => {
                                // Transient backpressure: resubmit the
                                // same datagram, visibly.
                                self.counters.send_retries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    self.counters.datagrams_out.fetch_add(1, Ordering::Relaxed);
                }
                Ok(msgs.len())
            }
        }
    }
}

fn recoverable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in [UdpBackend::Mmsg, UdpBackend::Fallback] {
            assert_eq!(UdpBackend::parse(kind.name()), Some(kind));
        }
        assert_eq!(UdpBackend::parse("carrier-pigeon"), None);
    }

    #[test]
    fn available_always_has_fallback() {
        let avail = available();
        assert!(avail.contains(&UdpBackend::Fallback));
        assert!(avail.contains(&detect()));
    }
}
