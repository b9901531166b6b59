//! Raw Linux batched-UDP FFI: `recvmmsg` / `sendmmsg`, `SO_REUSEPORT`
//! socket construction, and receive-buffer sizing. One of the two FFI
//! modules in the crate containing `unsafe` (the other is
//! [`crate::epoll`], the readiness/timer syscalls).
//!
//! No crates.io access means no `libc`: the ABI is declared by hand —
//! `iovec`, `msghdr`, `mmsghdr` and the `sockaddr` encodings as
//! `#[repr(C)]` types matching the x86_64 / aarch64 Linux layouts, and
//! the socket calls as plain `extern "C"` glibc imports. The layouts
//! are locked down by the property tests in `tests/mmsg_props.rs`,
//! which round-trip real datagrams of every awkward size through a
//! loopback socket pair and assert lengths, payload bytes, source
//! addresses and truncation flags all survive the packing.
//!
//! Safety argument, once for the whole module: every `unsafe` block
//! here is one of exactly three shapes.
//!
//! 1. A call to an imported C function whose pointer arguments are
//!    derived from live Rust allocations (stack arrays or `Vec`
//!    buffers) that outlive the call, with lengths taken from the same
//!    allocation. The kernel reads/writes only within those bounds.
//! 2. `Vec::set_len(n)` on a receive buffer after the kernel reported
//!    writing `n` bytes into it, with `n` clamped to the buffer's
//!    capacity. The bytes are initialized by the kernel's copy.
//! 3. `UdpSocket::from_raw_fd` on a file descriptor this module just
//!    created and exclusively owns, transferring ownership to the
//!    returned socket (which closes it on drop).
//!
//! Blocking model: sockets stay in blocking mode with `SO_RCVTIMEO`
//! (`UdpSocket::set_read_timeout`) as the deadline. [`recv_batch`]
//! passes `MSG_WAITFORONE`, so the *first* datagram may block up to the
//! timeout and everything already queued behind it drains in the same
//! syscall without further waiting — the worker-loop semantics the
//! engine front end wants, with no user-space poll loop.

#![cfg(target_os = "linux")]

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};

use alpha_wire::{Frame, FramePool};

use crate::io::RxDatagram;

/// Most datagrams moved by one `recvmmsg`/`sendmmsg` call. 32 matches
/// the engine's burst cap (`MAX_BURST`), so one syscall fills one
/// engine burst.
pub const VLEN: usize = 32;

// ---------------------------------------------------------------------------
// ABI constants (x86_64 / aarch64 Linux values).
// ---------------------------------------------------------------------------

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_DGRAM: c_int = 2;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_RCVBUF: c_int = 8;
const SO_REUSEPORT: c_int = 15;
const SO_RCVBUFFORCE: c_int = 33;
/// Per-message flag set by the kernel when a datagram was cut to fit.
const MSG_TRUNC: c_int = 0x20;
/// Block for the first message only; drain the rest nonblocking.
const MSG_WAITFORONE: c_int = 0x10000;

// ---------------------------------------------------------------------------
// ABI types.
// ---------------------------------------------------------------------------

/// `struct iovec`: one scatter/gather element.
#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    iov_base: *mut c_void,
    iov_len: usize,
}

/// `struct msghdr` (x86_64/aarch64: 4 bytes of padding after
/// `msg_namelen` and after `msg_flags`, which `#[repr(C)]` reproduces).
#[repr(C)]
#[derive(Clone, Copy)]
struct MsgHdr {
    msg_name: *mut c_void,
    msg_namelen: u32,
    msg_iov: *mut IoVec,
    msg_iovlen: usize,
    msg_control: *mut c_void,
    msg_controllen: usize,
    msg_flags: c_int,
}

/// `struct mmsghdr`: a `msghdr` plus the kernel-filled datagram length.
#[repr(C)]
#[derive(Clone, Copy)]
struct MMsgHdr {
    msg_hdr: MsgHdr,
    msg_len: c_uint,
}

/// A `sockaddr_storage`-sized, suitably aligned name buffer. The
/// kernel writes a `sockaddr_in` (16 bytes) or `sockaddr_in6`
/// (28 bytes) into it; we decode by hand from the documented offsets.
#[repr(C, align(8))]
#[derive(Clone, Copy)]
struct SockaddrStorage {
    bytes: [u8; 128],
}

impl SockaddrStorage {
    const fn zeroed() -> SockaddrStorage {
        SockaddrStorage { bytes: [0u8; 128] }
    }
}

extern "C" {
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn getsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut u32,
    ) -> c_int;
    fn recvmmsg(
        fd: c_int,
        msgvec: *mut MMsgHdr,
        vlen: c_uint,
        flags: c_int,
        timeout: *mut c_void,
    ) -> c_int;
    fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
}

// ---------------------------------------------------------------------------
// sockaddr encode / decode (safe byte manipulation at fixed offsets).
// ---------------------------------------------------------------------------

/// Write `addr` into `store` as the kernel expects it; returns the
/// encoded length. Layouts: `sockaddr_in` = family:u16(native) |
/// port:u16(BE) | addr:4B | zero:8B; `sockaddr_in6` = family:u16 |
/// port:u16(BE) | flowinfo:u32 | addr:16B | scope_id:u32(native).
fn encode_addr(addr: &SocketAddr, store: &mut SockaddrStorage) -> u32 {
    store.bytes = [0u8; 128];
    match addr {
        SocketAddr::V4(a) => {
            store.bytes[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
            store.bytes[2..4].copy_from_slice(&a.port().to_be_bytes());
            store.bytes[4..8].copy_from_slice(&a.ip().octets());
            16
        }
        SocketAddr::V6(a) => {
            store.bytes[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            store.bytes[2..4].copy_from_slice(&a.port().to_be_bytes());
            store.bytes[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            store.bytes[8..24].copy_from_slice(&a.ip().octets());
            store.bytes[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            28
        }
    }
}

/// Decode a kernel-written name back into a [`SocketAddr`]; `None` for
/// families we do not speak (the caller skips the datagram).
fn decode_addr(store: &SockaddrStorage, len: u32) -> Option<SocketAddr> {
    let b = &store.bytes;
    let family = u16::from_ne_bytes([b[0], b[1]]);
    if family == AF_INET && len as usize >= 16 {
        let port = u16::from_be_bytes([b[2], b[3]]);
        let ip = Ipv4Addr::new(b[4], b[5], b[6], b[7]);
        Some(SocketAddr::V4(SocketAddrV4::new(ip, port)))
    } else if family == AF_INET6 && len as usize >= 28 {
        let port = u16::from_be_bytes([b[2], b[3]]);
        let flowinfo = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&b[8..24]);
        let scope = u32::from_ne_bytes([b[24], b[25], b[26], b[27]]);
        Some(SocketAddr::V6(SocketAddrV6::new(
            Ipv6Addr::from(octets),
            port,
            flowinfo,
            scope,
        )))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Socket construction.
// ---------------------------------------------------------------------------

fn set_int_opt(fd: RawFd, opt: c_int, value: c_int) -> io::Result<()> {
    // SAFETY: shape 1 — `&value` points at a live c_int for the
    // duration of the call, and optlen matches its size.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            (&value as *const c_int).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Bind a UDP socket to `addr` with `SO_REUSEPORT` set *before* the
/// bind (std's `UdpSocket::bind` offers no hook between `socket()` and
/// `bind()`, so the socket is built by hand). Several sockets bound
/// this way to one address form a kernel-balanced group: the 4-tuple
/// hash pins each remote source to one member socket, in order.
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    let family = match addr {
        SocketAddr::V4(_) => c_int::from(AF_INET),
        SocketAddr::V6(_) => c_int::from(AF_INET6),
    };
    // SAFETY: shape 1 — no pointers; returns a fresh fd or -1.
    let fd = unsafe { socket(family, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: shape 3 — `fd` was just created above and nothing else
    // holds it; the UdpSocket now owns it (and closes it on any early
    // return below).
    let sock = unsafe { UdpSocket::from_raw_fd(fd) };
    set_int_opt(fd, SO_REUSEPORT, 1)?;
    let mut store = SockaddrStorage::zeroed();
    let len = encode_addr(&addr, &mut store);
    // SAFETY: shape 1 — `store` is a live 128-byte buffer and
    // `len` ≤ 128 bytes of it are the encoded sockaddr.
    let rc = unsafe { bind(fd, store.bytes.as_ptr().cast::<c_void>(), len) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(sock)
}

/// Bind `n` `SO_REUSEPORT` sockets to one address (resolving port 0
/// once, via the first bind). Any failure fails the whole group, so the
/// caller can fall back to a single shared socket.
pub fn bind_reuseport_group(addr: SocketAddr, n: usize) -> io::Result<Vec<UdpSocket>> {
    let first = bind_reuseport(addr)?;
    let resolved = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..n.max(1) {
        sockets.push(bind_reuseport(resolved)?);
    }
    Ok(sockets)
}

/// Ask for a `bytes`-sized kernel receive buffer: `SO_RCVBUFFORCE`
/// (exceeds `rmem_max`, needs CAP_NET_ADMIN) when permitted, plain
/// `SO_RCVBUF` (clamped to `rmem_max`) otherwise.
pub fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> io::Result<()> {
    let fd = sock.as_raw_fd();
    let v = c_int::try_from(bytes.min(c_int::MAX as usize / 2)).unwrap_or(c_int::MAX / 2);
    if set_int_opt(fd, SO_RCVBUFFORCE, v).is_ok() {
        return Ok(());
    }
    set_int_opt(fd, SO_RCVBUF, v)
}

/// The effective kernel receive-buffer size (the kernel doubles the
/// requested value for bookkeeping overhead; this reports its number).
pub fn recv_buffer(sock: &UdpSocket) -> io::Result<usize> {
    let mut value: c_int = 0;
    let mut len = std::mem::size_of::<c_int>() as u32;
    // SAFETY: shape 1 — `value`/`len` are live stack slots sized for
    // the option the kernel writes back.
    let rc = unsafe {
        getsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&mut value as *mut c_int).cast::<c_void>(),
            &mut len,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(value.max(0) as usize)
}

// ---------------------------------------------------------------------------
// Batched receive / send.
// ---------------------------------------------------------------------------

/// Receive up to `max.min(VLEN)` datagrams in one `recvmmsg` call, each
/// landing directly in its own pooled frame (one iovec per frame, no
/// intermediate copy), appended to `out`. Blocks for the first datagram
/// up to the socket's read timeout; returns `Ok(0)` on timeout.
///
/// `scratch` is the caller's persistent stash of checked-out frames:
/// it is topped up from `pool` to the batch size, and only frames that
/// actually received a datagram are consumed. Keeping it across calls
/// means an idle poll costs zero pool traffic — checking out (and
/// dropping) a full batch of frames per wakeup is measurably expensive,
/// pathologically so in debug builds where every returned frame is
/// poisoned over its whole capacity.
pub fn recv_batch(
    sock: &UdpSocket,
    pool: &FramePool,
    scratch: &mut Vec<Frame>,
    out: &mut Vec<RxDatagram>,
    max: usize,
) -> io::Result<usize> {
    let want = max.clamp(1, VLEN);
    while scratch.len() < want {
        scratch.push(pool.checkout());
    }
    let mut names = [SockaddrStorage::zeroed(); VLEN];
    let mut iovs = [IoVec {
        iov_base: std::ptr::null_mut(),
        iov_len: 0,
    }; VLEN];
    let mut hdrs = [MMsgHdr {
        msg_hdr: MsgHdr {
            msg_name: std::ptr::null_mut(),
            msg_namelen: 0,
            msg_iov: std::ptr::null_mut(),
            msg_iovlen: 0,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        },
        msg_len: 0,
    }; VLEN];
    for i in 0..want {
        let buf = scratch[i].buf_mut();
        if buf.capacity() == 0 {
            buf.reserve(1);
        }
        iovs[i] = IoVec {
            iov_base: buf.as_mut_ptr().cast::<c_void>(),
            iov_len: buf.capacity(),
        };
        hdrs[i].msg_hdr = MsgHdr {
            msg_name: (&mut names[i] as *mut SockaddrStorage).cast::<c_void>(),
            msg_namelen: 128,
            msg_iov: &mut iovs[i],
            msg_iovlen: 1,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        };
    }
    // SAFETY: shape 1 — `hdrs[..want]` points into live stack arrays;
    // each header references one `names[i]` (128 bytes live) and one
    // `iovs[i]` whose base/len describe the spare capacity of
    // `scratch[i]`'s heap buffer, which stays put (`scratch` is not
    // resized between the pointer captures and the call, and a Vec's
    // heap data does not move when the Vec of Frames itself is left
    // alone) and outlives the call. Null timeout: blocking is governed
    // by SO_RCVTIMEO + MSG_WAITFORONE.
    let rc = unsafe {
        recvmmsg(
            sock.as_raw_fd(),
            hdrs.as_mut_ptr(),
            want as c_uint,
            MSG_WAITFORONE,
            std::ptr::null_mut(),
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let got = (rc as usize).min(want);
    // One stamp for the whole batch: every datagram in it became
    // visible to user space when this recvmmsg returned.
    let received = std::time::Instant::now();
    for (i, mut frame) in scratch.drain(..got).enumerate() {
        let cap = frame.buf_mut().capacity();
        let n = (hdrs[i].msg_len as usize).min(cap);
        // SAFETY: shape 2 — the kernel wrote `msg_len` bytes into this
        // buffer's allocation (clamped to its capacity).
        unsafe { frame.buf_mut().set_len(n) };
        let truncated = hdrs[i].msg_hdr.msg_flags & MSG_TRUNC != 0;
        let Some(from) = decode_addr(&names[i], hdrs[i].msg_hdr.msg_namelen) else {
            continue; // unknown address family: skip the datagram
        };
        out.push(RxDatagram {
            from,
            frame,
            truncated,
            received,
        });
    }
    Ok(got)
}

/// Send up to `VLEN` of `msgs` in one `sendmmsg` call; returns how many
/// the kernel accepted (possibly fewer — the caller resubmits the
/// tail).
pub fn send_batch(sock: &UdpSocket, msgs: &[(SocketAddr, Frame)]) -> io::Result<usize> {
    let n = msgs.len().min(VLEN);
    if n == 0 {
        return Ok(0);
    }
    let mut names = [SockaddrStorage::zeroed(); VLEN];
    let mut iovs = [IoVec {
        iov_base: std::ptr::null_mut(),
        iov_len: 0,
    }; VLEN];
    let mut hdrs = [MMsgHdr {
        msg_hdr: MsgHdr {
            msg_name: std::ptr::null_mut(),
            msg_namelen: 0,
            msg_iov: std::ptr::null_mut(),
            msg_iovlen: 0,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        },
        msg_len: 0,
    }; VLEN];
    for (i, (dst, frame)) in msgs.iter().take(n).enumerate() {
        let namelen = encode_addr(dst, &mut names[i]);
        iovs[i] = IoVec {
            // Sends only read through iov_base; the *mut is an ABI
            // artifact of sharing iovec with the receive path.
            iov_base: frame.as_ptr().cast_mut().cast::<c_void>(),
            iov_len: frame.len(),
        };
        hdrs[i].msg_hdr = MsgHdr {
            msg_name: (&mut names[i] as *mut SockaddrStorage).cast::<c_void>(),
            msg_namelen: namelen,
            msg_iov: &mut iovs[i],
            msg_iovlen: 1,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        };
    }
    // SAFETY: shape 1 — `hdrs[..n]` references live stack `names`/
    // `iovs`; each iovec covers `frame.len()` initialized bytes of a
    // borrowed frame that outlives the call. The kernel only reads
    // through these pointers on the send path.
    let rc = unsafe { sendmmsg(sock.as_raw_fd(), hdrs.as_mut_ptr(), n as c_uint, 0) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((rc as usize).min(n))
}
