//! Raw Linux batched-UDP FFI: `recvmmsg` / `sendmmsg` with UDP segment
//! offload (`UDP_SEGMENT` control messages on send, `UDP_GRO` on
//! receive), `SO_REUSEPORT` socket construction, and receive-buffer
//! sizing. One of the two FFI modules in the crate containing `unsafe`
//! (the other is [`crate::epoll`], the readiness/timer syscalls).
//!
//! No crates.io access means no `libc`: the ABI is declared by hand —
//! `iovec`, `msghdr`, `mmsghdr` as `#[repr(C)]` types matching the
//! x86_64 / aarch64 Linux layouts, the `sockaddr` and `cmsghdr`
//! encodings as aligned byte buffers written and read at their
//! documented offsets, and the socket calls as plain `extern "C"` glibc
//! imports. The layouts are locked down by the property tests in
//! `tests/mmsg_props.rs`, which pin the control-message bytes and
//! round-trip real datagrams of every awkward size, alone and in
//! coalesced runs, through a loopback socket pair and assert lengths,
//! payload bytes, order, source addresses and truncation flags all
//! survive the packing.
//!
//! Safety argument, once for the whole module: every `unsafe` block
//! here is one of exactly three shapes.
//!
//! 1. A call to an imported C function whose pointer arguments are
//!    derived from live Rust allocations (stack arrays, boxed arrays or
//!    `Vec` buffers) that outlive the call, with lengths taken from the
//!    same allocation. The kernel reads/writes only within those
//!    bounds. The calls: `socket`, `bind`, `setsockopt`, `recvmmsg`,
//!    `sendmmsg`; a control-message buffer is one more such array
//!    beside the names and iovecs. Arrays only the kernel reads
//!    (`sendmmsg`'s headers, names, iovecs, control messages) are
//!    `MaybeUninit` with exactly the entries the call is told about
//!    written, by safe code, first; nothing reads them back.
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
use std::mem::MaybeUninit;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};

use alpha_wire::{Frame, FramePool};

use crate::io::RxDatagram;

/// Most messages moved by one `recvmmsg`/`sendmmsg` call, and most
/// datagrams one coalesced send carries. 32 matches the engine's burst
/// cap (`MAX_BURST`).
pub const VLEN: usize = 32;

/// Largest datagram [`send_batch`] coalesces: the UDP payload of a
/// 1500-byte-MTU IPv4 path. The kernel refuses a coalesced message
/// whose segments exceed the route's MTU, so anything larger goes out
/// on its own.
pub const MAX_SEGMENT: usize = 1472;

// ---------------------------------------------------------------------------
// ABI constants (x86_64 / aarch64 Linux values).
// ---------------------------------------------------------------------------

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_DGRAM: c_int = 2;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_RCVBUF: c_int = 8;
const SO_NO_CHECK: c_int = 11;
const SO_REUSEPORT: c_int = 15;
const SO_RCVBUFFORCE: c_int = 33;
const SOL_UDP: c_int = 17;
/// Control message on send: cut this message into datagrams of the
/// given size (`u16`).
const UDP_SEGMENT: c_int = 103;
/// Socket option: deliver coalesced receives whole. Control message on
/// receive: the size (`int`) the frame is to be cut at.
const UDP_GRO: c_int = 104;
const EIO: i32 = 5;
const EINVAL: i32 = 22;
const EMSGSIZE: i32 = 90;
const ENOPROTOOPT: i32 = 92;
const EOPNOTSUPP: i32 = 95;
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

/// One control message carrying a segment size: `struct cmsghdr`
/// (`cmsg_len: size_t` | `cmsg_level: int` | `cmsg_type: int`, 16 bytes
/// on the 64-bit ABIs) followed by the value and padded to
/// `CMSG_SPACE` — 24 bytes for both values used here, the `u16` of
/// `UDP_SEGMENT` and the `int` of `UDP_GRO`. Written and read by hand
/// at those offsets, like the sockaddrs.
#[repr(C, align(8))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cmsg {
    /// The message as the kernel reads or wrote it.
    pub bytes: [u8; 24],
}

/// `sizeof(struct cmsghdr)`: where a control message's value starts.
const CMSG_HDR: usize = 16;

impl Cmsg {
    const fn zeroed() -> Cmsg {
        Cmsg { bytes: [0u8; 24] }
    }

    fn header(len: usize, ty: c_int) -> Cmsg {
        let mut c = Cmsg::zeroed();
        c.bytes[0..8].copy_from_slice(&len.to_ne_bytes());
        c.bytes[8..12].copy_from_slice(&SOL_UDP.to_ne_bytes());
        c.bytes[12..16].copy_from_slice(&ty.to_ne_bytes());
        c
    }

    /// The `SOL_UDP`/`UDP_SEGMENT` message that makes one send leave as
    /// datagrams of `segment` bytes each (the last may be shorter).
    #[must_use]
    pub fn segment(segment: u16) -> Cmsg {
        let mut c = Cmsg::header(CMSG_HDR + 2, UDP_SEGMENT);
        c.bytes[16..18].copy_from_slice(&segment.to_ne_bytes());
        c
    }

    /// The segment size a kernel-written `SOL_UDP`/`UDP_GRO` message
    /// announces, when the first `controllen` bytes hold exactly that;
    /// `None` for an empty control buffer or any other message.
    #[must_use]
    pub fn gro_segment(&self, controllen: usize) -> Option<usize> {
        let b = &self.bytes;
        if controllen < CMSG_HDR + 4 || b[..16] != Cmsg::header(CMSG_HDR + 4, UDP_GRO).bytes[..16] {
            return None;
        }
        let size = i32::from_ne_bytes([b[16], b[17], b[18], b[19]]);
        usize::try_from(size).ok().filter(|&s| s > 0)
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

/// `addr` as the kernel expects it, and the encoded length. Layouts:
/// `sockaddr_in` = family:u16(native) | port:u16(BE) | addr:4B |
/// zero:8B; `sockaddr_in6` = family:u16 | port:u16(BE) | flowinfo:u32 |
/// addr:16B | scope_id:u32(native).
fn encode_addr(addr: &SocketAddr) -> (SockaddrStorage, u32) {
    let mut store = SockaddrStorage::zeroed();
    let len = match addr {
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
    };
    (store, len)
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

fn set_int_opt(fd: RawFd, level: c_int, opt: c_int, value: c_int) -> io::Result<()> {
    // SAFETY: shape 1 — `&value` points at a live c_int for the
    // duration of the call, and optlen matches its size.
    let rc = unsafe {
        setsockopt(
            fd,
            level,
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
    set_int_opt(fd, SOL_SOCKET, SO_REUSEPORT, 1)?;
    let (store, len) = encode_addr(&addr);
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
    if set_int_opt(fd, SOL_SOCKET, SO_RCVBUFFORCE, v).is_ok() {
        return Ok(());
    }
    set_int_opt(fd, SOL_SOCKET, SO_RCVBUF, v)
}

/// Ask for coalesced receives (`UDP_GRO`): a run of equal-size
/// datagrams from one source — a sender's `UDP_SEGMENT` message on
/// loopback, whatever the NIC's GRO merged on a wire — then arrives as
/// one message with a segment-size control message, which
/// [`recv_batch`] turns into [`RxDatagram::segments`]. Only for sockets
/// whose reader walks `segments()`; every other reader takes a frame
/// for one datagram.
pub fn set_gro(sock: &UdpSocket) -> io::Result<()> {
    set_int_opt(sock.as_raw_fd(), SOL_UDP, UDP_GRO, 1)
}

/// Turn UDP checksums on transmit off or on (`SO_NO_CHECK`). The
/// kernel refuses `UDP_SEGMENT` on a socket without them, which makes
/// this the portable way to drive [`send_batch`]'s refusal path.
pub fn set_no_check(sock: &UdpSocket, on: bool) -> io::Result<()> {
    set_int_opt(sock.as_raw_fd(), SOL_SOCKET, SO_NO_CHECK, c_int::from(on))
}

// ---------------------------------------------------------------------------
// Batched receive / send.
// ---------------------------------------------------------------------------

/// Receive state a caller keeps across [`recv_batch`] calls, so a call
/// sets up nothing it does not use: checked-out frames (an idle poll
/// costs zero pool traffic — checking out and dropping a full batch of
/// frames per wakeup is measurably expensive, pathologically so in
/// debug builds where every returned frame is poisoned over its whole
/// capacity), and the name and control buffers the kernel fills, which
/// need no clearing between calls (the kernel's lengths say what is
/// valid).
pub struct RecvScratch {
    frames: Vec<Frame>,
    names: Box<[SockaddrStorage; VLEN]>,
    cmsgs: Box<[Cmsg; VLEN]>,
}

impl Default for RecvScratch {
    fn default() -> RecvScratch {
        RecvScratch {
            frames: Vec::new(),
            names: Box::new([SockaddrStorage::zeroed(); VLEN]),
            cmsgs: Box::new([Cmsg::zeroed(); VLEN]),
        }
    }
}

const NO_MSG: MMsgHdr = MMsgHdr {
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
};

/// Receive up to `max.min(VLEN)` messages in one `recvmmsg` call, each
/// landing directly in its own pooled frame (one iovec per frame, no
/// intermediate copy), appended to `out`. Blocks for the first message
/// up to the socket's read timeout; returns `Ok(0)` on timeout.
///
/// A message is one datagram, except on a socket with [`set_gro`]: there
/// a coalesced run arrives as one message whose control message gives
/// the segment size, recorded in [`RxDatagram::segment_len`]. Returns
/// the number of datagrams, segments counted one by one.
///
/// `scratch` is the caller's [`RecvScratch`]: its frames are topped up
/// from `pool` to the batch size, and only frames that actually
/// received a message are consumed.
pub fn recv_batch(
    sock: &UdpSocket,
    pool: &FramePool,
    scratch: &mut RecvScratch,
    out: &mut Vec<RxDatagram>,
    max: usize,
) -> io::Result<usize> {
    let want = max.clamp(1, VLEN);
    let RecvScratch {
        frames,
        names,
        cmsgs,
    } = scratch;
    while frames.len() < want {
        frames.push(pool.checkout());
    }
    let mut iovs = [MaybeUninit::<IoVec>::uninit(); VLEN];
    for (iov, frame) in iovs.iter_mut().zip(&mut frames[..want]) {
        let buf = frame.buf_mut();
        if buf.capacity() == 0 {
            buf.reserve(1);
        }
        iov.write(IoVec {
            iov_base: buf.as_mut_ptr().cast::<c_void>(),
            iov_len: buf.capacity(),
        });
    }
    let iov_base = iovs.as_mut_ptr().cast::<IoVec>();
    let (name_base, cmsg_base) = (names.as_mut_ptr(), cmsgs.as_mut_ptr());
    let mut hdrs: [MMsgHdr; VLEN] = std::array::from_fn(|i| {
        if i >= want {
            return NO_MSG;
        }
        MMsgHdr {
            msg_hdr: MsgHdr {
                msg_name: name_base.wrapping_add(i).cast::<c_void>(),
                msg_namelen: 128,
                msg_iov: iov_base.wrapping_add(i),
                msg_iovlen: 1,
                msg_control: cmsg_base.wrapping_add(i).cast::<c_void>(),
                msg_controllen: std::mem::size_of::<Cmsg>(),
                msg_flags: 0,
            },
            msg_len: 0,
        }
    });
    // SAFETY: shape 1 — `hdrs[..want]` is a live stack array; header
    // `i` references `names[i]` (128 bytes) and `cmsgs[i]` (24 bytes)
    // of the caller's boxed arrays and `iovs[i]`, written above, whose
    // base/len describe the spare capacity of `frames[i]`'s heap
    // buffer, which stays put (`frames` is not resized between the
    // pointer captures and the call, and a Vec's heap data does not
    // move when the Vec of Frames itself is left alone) and outlives
    // the call. Null timeout: blocking is governed by SO_RCVTIMEO +
    // MSG_WAITFORONE.
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
    let mut datagrams = 0;
    for (i, mut frame) in frames.drain(..got).enumerate() {
        let hdr = &hdrs[i].msg_hdr;
        let cap = frame.buf_mut().capacity();
        let n = (hdrs[i].msg_len as usize).min(cap);
        // SAFETY: shape 2 — the kernel wrote `msg_len` bytes into this
        // buffer's allocation (clamped to its capacity).
        unsafe { frame.buf_mut().set_len(n) };
        let Some(from) = decode_addr(&names[i], hdr.msg_namelen) else {
            continue; // unknown address family: skip the message
        };
        let d = RxDatagram {
            from,
            frame,
            truncated: hdr.msg_flags & MSG_TRUNC != 0,
            // Only a frame the announced size actually cuts is
            // coalesced.
            segment_len: cmsgs[i]
                .gro_segment(hdr.msg_controllen)
                .filter(|&size| size < n)
                .unwrap_or(0),
        };
        datagrams += d.segment_count();
        out.push(d);
    }
    Ok(datagrams)
}

/// Length of the run at the front of `msgs` that [`send_batch`] sends
/// as one coalesced message: datagrams to one destination, each as long
/// as the first — except that a shorter one may end the run, since the
/// kernel cuts a coalesced message every `segment` bytes and only the
/// tail can come up short. An empty datagram never joins a run (it
/// would vanish from the byte stream), one over [`MAX_SEGMENT`] never
/// starts one, and no run exceeds [`VLEN`]. 1 means "send it as it is";
/// 0 only for empty input.
#[must_use]
pub fn run_len(msgs: &[(SocketAddr, Frame)]) -> usize {
    let Some((dst, first)) = msgs.first() else {
        return 0;
    };
    let segment = first.len();
    if segment == 0 || segment > MAX_SEGMENT {
        return 1;
    }
    let mut run = 1;
    for (d, frame) in msgs[1..].iter().take(VLEN - 1) {
        if d != dst || frame.is_empty() || frame.len() > segment {
            break;
        }
        run += 1;
        if frame.len() < segment {
            break;
        }
    }
    run
}

/// What one [`send_batch`] call moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    /// Datagrams the kernel accepted (possibly fewer than offered — the
    /// caller resubmits the tail).
    pub datagrams: usize,
    /// Coalesced messages among what was accepted.
    pub gso_sends: usize,
    /// Datagrams inside those coalesced messages.
    pub gso_segments: usize,
    /// The kernel refused the first coalesced message and this call
    /// sent the batch again uncoalesced, successfully. The caller
    /// should stop asking this socket to coalesce.
    pub refused: bool,
}

/// Whether `e` is how the kernel turns down `UDP_SEGMENT` itself, as
/// opposed to the datagrams: `EMSGSIZE` (segment over the route's MTU;
/// measured on 6.18 — a plain datagram of that size is fragmented, not
/// refused) or `EINVAL` (the same on older kernels; transmit checksums
/// off; over the kernel's segment count), `EIO` (no checksum offload on
/// the route), `ENOPROTOOPT` / `EOPNOTSUPP` (kernels before 4.18). A
/// plain send can fail with some of these too; the caller finds out by
/// sending plain.
fn refuses_segmentation(e: &io::Error) -> bool {
    matches!(
        e.raw_os_error(),
        Some(EMSGSIZE | EINVAL | EIO | ENOPROTOOPT | EOPNOTSUPP)
    )
}

/// Send up to `VLEN` of `msgs` in one `sendmmsg` call.
///
/// With `coalesce`, each maximal run ([`run_len`]) of two or more
/// datagrams leaves as one message — the run's frames gathered under
/// one header with a `UDP_SEGMENT` control message — and so takes one
/// trip through the kernel's UDP/IP path, not one per datagram; the
/// receiver sees the same datagrams in the same order either way. A run
/// of one is the plain message it always was. If the kernel refuses
/// the call's first coalesced message, the batch is sent again with
/// every run a run of one and [`Sent::refused`] says so.
pub fn send_batch(
    sock: &UdpSocket,
    msgs: &[(SocketAddr, Frame)],
    mut coalesce: bool,
) -> io::Result<Sent> {
    let n = msgs.len().min(VLEN);
    if n == 0 {
        return Ok(Sent::default());
    }
    // Only the kernel reads these arrays, and only the entries the
    // call hands it, so only those are written.
    let mut iovs = [MaybeUninit::<IoVec>::uninit(); VLEN];
    for (iov, (_, frame)) in iovs.iter_mut().zip(&msgs[..n]) {
        iov.write(IoVec {
            // Sends only read through iov_base; the *mut is an ABI
            // artifact of sharing iovec with the receive path.
            iov_base: frame.as_ptr().cast_mut().cast::<c_void>(),
            iov_len: frame.len(),
        });
    }
    let iov_base = iovs.as_mut_ptr().cast::<IoVec>();
    let mut names = [MaybeUninit::<SockaddrStorage>::uninit(); VLEN];
    let mut cmsgs = [MaybeUninit::<Cmsg>::uninit(); VLEN];
    let mut hdrs = [MaybeUninit::<MMsgHdr>::uninit(); VLEN];
    // ends[h]: datagrams covered by messages 0..=h.
    let mut ends = [0usize; VLEN];
    let mut refused = false;
    loop {
        let (mut built, mut next) = (0, 0);
        while next < n {
            let run = if coalesce { run_len(&msgs[next..n]) } else { 1 };
            let (dst, first) = &msgs[next];
            let (name, namelen) = encode_addr(dst);
            names[built].write(name);
            let (msg_control, msg_controllen) = if run > 1 {
                // `run_len` keeps a run's segment within MAX_SEGMENT.
                cmsgs[built].write(Cmsg::segment(first.len() as u16));
                (
                    cmsgs[built].as_mut_ptr().cast::<c_void>(),
                    std::mem::size_of::<Cmsg>(),
                )
            } else {
                (std::ptr::null_mut(), 0)
            };
            hdrs[built].write(MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: names[built].as_mut_ptr().cast::<c_void>(),
                    msg_namelen: namelen,
                    msg_iov: iov_base.wrapping_add(next),
                    msg_iovlen: run,
                    msg_control,
                    msg_controllen,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
            next += run;
            ends[built] = next;
            built += 1;
        }
        // SAFETY: shape 1 — `hdrs[..built]` were written above and
        // reference live stack `names`/`cmsgs` entries written with
        // them and `run` consecutive `iovs` entries, all below `n` and
        // written before the loop; each iovec covers `frame.len()`
        // initialized bytes of a borrowed frame that outlives the call.
        // The kernel only reads through these pointers on the send
        // path, apart from `msg_len`, which lands in `hdrs` itself.
        let rc = unsafe {
            sendmmsg(
                sock.as_raw_fd(),
                hdrs.as_mut_ptr().cast::<MMsgHdr>(),
                built as c_uint,
                0,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            // An error is always the first message's. If that was a
            // coalesced one and the error is how the kernel says "not
            // segmented, not here", the same datagrams go out plain.
            if ends[0] > 1 && refuses_segmentation(&e) {
                coalesce = false;
                refused = true;
                continue;
            }
            return Err(e);
        }
        let accepted = (rc as usize).min(built);
        let mut sent = Sent {
            refused,
            ..Sent::default()
        };
        for &end in &ends[..accepted] {
            let run = end - sent.datagrams;
            sent.datagrams = end;
            if run > 1 {
                sent.gso_sends += 1;
                sent.gso_segments += run;
            }
        }
        return Ok(sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The refusal set cannot be provoked in full on one host (MTU,
    /// checksum offload, kernel age), so the errno values are pinned
    /// here; `tests/mmsg_props.rs` drives the one refusal a socket
    /// option can cause.
    #[test]
    fn segmentation_refusals_are_told_from_other_errors() {
        // EMSGSIZE EINVAL EIO ENOPROTOOPT EOPNOTSUPP
        for errno in [90, 22, 5, 92, 95] {
            assert!(refuses_segmentation(&io::Error::from_raw_os_error(errno)));
        }
        // EINTR EAGAIN ENOBUFS ECONNREFUSED EAFNOSUPPORT EPERM
        for errno in [4, 11, 105, 111, 97, 1] {
            assert!(!refuses_segmentation(&io::Error::from_raw_os_error(errno)));
        }
        assert!(!refuses_segmentation(&io::Error::other("not an errno")));
    }
}
