//! FFI-layout property tests for the hand-declared `recvmmsg`/`sendmmsg`
//! ABI in `alpha_transport::mmsg` (Linux only).
//!
//! The hand-written `#[repr(C)]` headers are only right if real
//! datagrams survive them: batches of every awkward size (0 bytes, 1
//! byte, odd lengths, ~MTU) go through a loopback socket pair and come
//! back with the same lengths, payload bytes and source addresses;
//! undersized receive frames must surface the kernel's truncation flag;
//! oversized send batches must be chunked and resubmitted completely.
//!
//! The same goes for segment offload: the two control-message layouts
//! are pinned byte for byte, the run splitter is checked against the
//! kernel's rules on random input, coalesced runs of every shape must
//! arrive as the datagrams that were sent — at a plain socket and, as
//! segments, at a `UDP_GRO` one — and a kernel that refuses to segment
//! must cost nothing but the coalescing.

#![cfg(target_os = "linux")]

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use alpha_engine::IoWorker;
use alpha_transport::io::MAX_BATCH;
use alpha_transport::mmsg::{self, Cmsg, RecvScratch, Sent, MAX_SEGMENT};
use alpha_transport::{RxDatagram, UdpBackend, UdpIo};
use alpha_wire::{Frame, FramePool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bound(addr: &str) -> UdpSocket {
    let s = UdpSocket::bind(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn pair() -> (UdpSocket, UdpSocket) {
    (bound("127.0.0.1:0"), bound("127.0.0.1:0"))
}

/// Payload for message `i` of a round: length-patterned bytes so a
/// mixed-up iovec or msg_len shows as a mismatch, not a coincidence.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i * 131 + j * 7) as u8).collect()
}

fn frame_of(pool: &FramePool, bytes: &[u8]) -> Frame {
    let mut f = pool.checkout();
    f.buf_mut().extend_from_slice(bytes);
    f
}

/// Receive exactly `n` datagrams (the segments of a coalesced frame
/// counted one by one), however many syscalls that takes.
fn recv_all(sock: &UdpSocket, pool: &FramePool, n: usize) -> Vec<RxDatagram> {
    let mut out = Vec::new();
    let mut scratch = RecvScratch::default();
    let mut have = 0;
    while have < n {
        let got = mmsg::recv_batch(sock, pool, &mut scratch, &mut out, MAX_BATCH).expect("recv");
        assert!(got > 0, "timed out with {have}/{n} datagrams");
        have += got;
    }
    assert_eq!(have, n, "more datagrams arrived than were sent");
    out
}

/// Send all of `msgs`, resubmitting the tail a partial call leaves.
fn send_all(tx: &UdpSocket, msgs: &[(SocketAddr, Frame)], coalesce: bool) -> Sent {
    let mut total = Sent::default();
    while total.datagrams < msgs.len() {
        let s = mmsg::send_batch(tx, &msgs[total.datagrams..], coalesce).expect("send_batch");
        assert!(s.datagrams > 0, "kernel accepted nothing");
        total.datagrams += s.datagrams;
        total.gso_sends += s.gso_sends;
        total.gso_segments += s.gso_segments;
        total.refused |= s.refused;
    }
    total
}

#[test]
fn batches_of_awkward_sizes_survive_the_packing() {
    let (tx, rx) = pair();
    let rx_addr = rx.local_addr().unwrap();
    let tx_addr = tx.local_addr().unwrap();
    let pool = FramePool::new(65_536, 4 * MAX_BATCH);

    // 0, 1, odd, and ~MTU sizes, batch sizes 1..=VLEN.
    let sizes = [0usize, 1, 3, 17, 255, 999, 1473];
    for batch in [1usize, 2, 3, 7, MAX_BATCH / 2, MAX_BATCH] {
        let msgs: Vec<(SocketAddr, Frame)> = (0..batch)
            .map(|i| {
                (
                    rx_addr,
                    frame_of(&pool, &payload(i, sizes[i % sizes.len()])),
                )
            })
            .collect();
        send_all(&tx, &msgs, true);
        let got = recv_all(&rx, &pool, batch);
        assert_eq!(got.len(), batch);
        // Loopback preserves order from one sender socket.
        for (i, d) in got.iter().enumerate() {
            let want = payload(i, sizes[i % sizes.len()]);
            assert_eq!(d.frame.len(), want.len(), "length of message {i}");
            assert_eq!(&d.frame[..], &want[..], "payload of message {i}");
            assert_eq!(d.from, tx_addr, "source address of message {i}");
            assert!(!d.truncated, "message {i} fit its frame");
            assert_eq!(d.segment_len, 0, "message {i} is one datagram");
        }
    }
}

#[test]
fn truncation_is_flagged_and_length_clamped() {
    let (tx, rx) = pair();
    let rx_addr = rx.local_addr().unwrap();
    // Frames with room for 128 bytes; datagrams of 300 must be cut and
    // flagged.
    let small_pool = FramePool::new(128, 8);
    let big_pool = FramePool::new(65_536, 8);
    let want = payload(1, 300);
    send_all(&tx, &[(rx_addr, frame_of(&big_pool, &want))], true);
    let got = recv_all(&rx, &small_pool, 1);
    assert!(got[0].truncated, "kernel truncation must be surfaced");
    assert_eq!(got[0].frame.len(), 128, "clamped to frame capacity");
    assert_eq!(&got[0].frame[..], &want[..128], "prefix preserved");
}

#[test]
fn oversized_batches_chunk_and_resubmit_through_udp_io() {
    let (tx, rx) = pair();
    let rx_addr = rx.local_addr().unwrap();
    let pool = FramePool::new(2048, 4 * MAX_BATCH);
    let counters = Arc::new(IoWorker::default());
    let io_tx = UdpIo::with_backend(tx, UdpBackend::Mmsg, Arc::clone(&counters));

    // More than one VLEN's worth in one call: UdpIo must chunk it into
    // several syscalls and deliver every message.
    let total = 2 * MAX_BATCH + 5;
    let msgs: Vec<(SocketAddr, Frame)> = (0..total)
        .map(|i| (rx_addr, frame_of(&pool, &payload(i, 100 + i))))
        .collect();
    let sent = io_tx.send_batch(&msgs).expect("send_batch");
    assert_eq!(sent, total);

    let got = recv_all(&rx, &pool, total);
    for (i, d) in got.iter().enumerate() {
        assert_eq!(&d.frame[..], &payload(i, 100 + i)[..], "message {i}");
    }
    assert_eq!(counters.datagrams_out.load(Relaxed), total as u64);
    assert!(
        counters.send_calls.load(Relaxed) >= 3,
        "chunking needs at least ceil(total/VLEN) syscalls"
    );
}

// ---------------------------------------------------------------------------
// Segment offload.
// ---------------------------------------------------------------------------

#[test]
fn control_message_layouts_are_pinned() {
    // struct cmsghdr { size_t cmsg_len; int cmsg_level; int cmsg_type; }
    // + value, padded to CMSG_SPACE: 24 bytes, 8-aligned, for both.
    assert_eq!(std::mem::size_of::<Cmsg>(), 24);
    assert_eq!(std::mem::align_of::<Cmsg>(), 8);
    let message = |len: usize, level: i32, ty: i32, value: &[u8]| {
        let mut bytes = [0u8; 24];
        bytes[0..8].copy_from_slice(&len.to_ne_bytes());
        bytes[8..12].copy_from_slice(&level.to_ne_bytes());
        bytes[12..16].copy_from_slice(&ty.to_ne_bytes());
        bytes[16..16 + value.len()].copy_from_slice(value);
        Cmsg { bytes }
    };

    // Send: SOL_UDP (17) / UDP_SEGMENT (103), u16, cmsg_len 16 + 2.
    assert_eq!(
        Cmsg::segment(1200),
        message(18, 17, 103, &1200u16.to_ne_bytes())
    );

    // Receive: SOL_UDP / UDP_GRO (104), int, cmsg_len 16 + 4; the
    // kernel reports CMSG_SPACE (24) as the control length it used.
    let gro = message(20, 17, 104, &1200i32.to_ne_bytes());
    assert_eq!(gro.gro_segment(24), Some(1200));
    assert_eq!(gro.gro_segment(20), Some(1200));
    assert_eq!(gro.gro_segment(0), None, "nothing was written");
    let not_gro = [
        message(20, 17, 103, &1200i32.to_ne_bytes()),
        message(20, 1, 104, &1200i32.to_ne_bytes()),
        message(18, 17, 104, &1200i32.to_ne_bytes()),
        message(20, 17, 104, &0i32.to_ne_bytes()),
        message(20, 17, 104, &(-5i32).to_ne_bytes()),
    ];
    for other in not_gro {
        assert_eq!(other.gro_segment(24), None, "{other:?}");
    }
}

/// The rule `run` breaks as one message — the kernel's rules for
/// `UDP_SEGMENT` plus our own caps — or `None` if it may be sent so. A
/// run of one is a plain message: anything goes.
fn violation(run: &[(SocketAddr, Frame)]) -> Option<&'static str> {
    let [(dst, first), body @ .., (last_dst, last)] = run else {
        return None;
    };
    if run.len() > MAX_BATCH {
        Some("more than VLEN segments")
    } else if !(1..=MAX_SEGMENT).contains(&first.len()) {
        Some("segment size out of range")
    } else if body.iter().any(|(d, _)| d != dst) || last_dst != dst {
        Some("two destinations")
    } else if body.iter().any(|(_, f)| f.len() != first.len()) {
        Some("a length change before the last segment")
    } else if !(1..=first.len()).contains(&last.len()) {
        Some("last segment empty or longer than the rest")
    } else {
        None
    }
}

#[test]
fn run_splitter_partitions_into_maximal_sendable_runs() {
    let pool = FramePool::new(2048, 256);
    let dsts: [SocketAddr; 3] = [
        "127.0.0.1:4000".parse().unwrap(),
        "127.0.0.1:4001".parse().unwrap(),
        "[::1]:4000".parse().unwrap(),
    ];
    // Few distinct lengths, repeated often, so runs actually form; the
    // edge values sit next to each other.
    let lens = [0, 1, 64, 64, 64, 100, MAX_SEGMENT, MAX_SEGMENT + 1];
    assert_eq!(mmsg::run_len(&[]), 0);
    let mut coalesced = 0;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=3 * MAX_BATCH);
        let (mut dst, mut len) = (dsts[0], 64);
        let msgs: Vec<(SocketAddr, Frame)> = (0..n)
            .map(|i| {
                if rng.gen_range(0..8) == 0 {
                    dst = dsts[rng.gen_range(0..dsts.len())];
                }
                if rng.gen_range(0..5) == 0 {
                    len = lens[rng.gen_range(0..lens.len())];
                }
                (dst, frame_of(&pool, &payload(i, len)))
            })
            .collect();
        let mut at = 0;
        while at < n {
            let run = mmsg::run_len(&msgs[at..]);
            assert!(run >= 1 && at + run <= n, "seed {seed}: run {run} at {at}");
            assert_eq!(violation(&msgs[at..at + run]), None, "seed {seed}: at {at}");
            // Maximal: the datagram after the run could not have joined.
            if at + run < n {
                assert!(
                    violation(&msgs[at..=at + run]).is_some(),
                    "seed {seed}: run of {run} at {at} stopped early"
                );
            }
            coalesced += usize::from(run > 1);
            at += run;
        }
    }
    assert!(coalesced > 500, "the input must exercise real runs");
}

/// One round-trip case: `(destination index, length)` per datagram and
/// the runs the splitter must form from them.
struct Case {
    name: &'static str,
    msgs: Vec<(usize, usize)>,
    runs: Vec<usize>,
}

fn cases() -> Vec<Case> {
    let same = |n: usize, len: usize| vec![(0, len); n];
    let case = |name, msgs, runs: &[usize]| Case {
        name,
        msgs,
        runs: runs.to_vec(),
    };
    vec![
        case("2 equal", same(2, 64), &[2]),
        case("31 equal", same(31, 64), &[31]),
        case("32 equal", same(32, 64), &[32]),
        case("shorter last", [same(5, 200), same(1, 77)].concat(), &[6]),
        case(
            "length change",
            [same(3, 64), same(4, 65), same(2, 66)].concat(),
            &[3, 4, 2],
        ),
        case(
            "destination change",
            vec![(0, 64), (0, 64), (1, 64), (1, 64), (1, 64), (0, 64)],
            &[2, 3, 1],
        ),
        case(
            "empty datagram mid-batch",
            vec![(0, 64), (0, 64), (0, 0), (0, 64), (0, 64)],
            &[2, 1, 2],
        ),
        case("1-byte segments", same(9, 1), &[9]),
        case("1472-byte segments", same(8, MAX_SEGMENT), &[8]),
        case(
            "1473 bytes are not coalesced",
            same(3, MAX_SEGMENT + 1),
            &[1, 1, 1],
        ),
        case("short then long", vec![(0, 10), (0, 64), (0, 64)], &[1, 2]),
    ]
}

/// Send every case from one socket to two receivers and check that what
/// arrives is what was sent: datagram by datagram at plain sockets,
/// segment by segment (and frame by run) at `UDP_GRO` sockets.
fn round_trip_runs(loopback: &str, gro: bool) {
    let pool = FramePool::new(65_536, 8 * MAX_BATCH);
    let tx = bound(loopback);
    let tx_addr = tx.local_addr().unwrap();
    let rx = [bound(loopback), bound(loopback)];
    if gro {
        for s in &rx {
            mmsg::set_gro(s).expect("UDP_GRO");
        }
    }
    let addr = [rx[0].local_addr().unwrap(), rx[1].local_addr().unwrap()];
    for case in cases() {
        let label = format!("{} ({loopback}, gro {gro})", case.name);
        let msgs: Vec<(SocketAddr, Frame)> = case
            .msgs
            .iter()
            .enumerate()
            .map(|(i, &(dst, len))| (addr[dst], frame_of(&pool, &payload(i, len))))
            .collect();

        // The splitter forms exactly the expected runs ...
        let mut at = 0;
        for &want in &case.runs {
            assert_eq!(mmsg::run_len(&msgs[at..]), want, "{label}: run at {at}");
            at += want;
        }
        assert_eq!(at, msgs.len(), "{label}: runs cover the batch");
        // ... and the send reports them.
        let sent = send_all(&tx, &msgs, true);
        let coalesced = case.runs.iter().filter(|&&r| r > 1);
        assert_eq!(
            sent,
            Sent {
                datagrams: msgs.len(),
                gso_sends: coalesced.clone().count(),
                gso_segments: coalesced.sum(),
                refused: false,
            },
            "{label}"
        );

        for (dst, sock) in rx.iter().enumerate() {
            let want: Vec<Vec<u8>> = case
                .msgs
                .iter()
                .enumerate()
                .filter(|(_, m)| m.0 == dst)
                .map(|(i, &(_, len))| payload(i, len))
                .collect();
            if want.is_empty() {
                continue;
            }
            let frames = recv_all(sock, &pool, want.len());
            let got: Vec<Vec<u8>> = frames
                .iter()
                .flat_map(|d| d.segments().map(<[u8]>::to_vec))
                .collect();
            assert_eq!(got, want, "{label}: datagrams at receiver {dst}");
            for d in &frames {
                assert_eq!(d.from, tx_addr, "{label}: source");
                assert!(!d.truncated, "{label}: fits its frame");
                assert_eq!(d.segments().count(), d.segment_count(), "{label}");
            }
            if gro {
                // Loopback hands a coalesced message over whole: one
                // frame per run.
                let mut at = 0;
                let runs_here = case.runs.iter().filter(|&&r| {
                    let here = case.msgs[at].0 == dst;
                    at += r;
                    here
                });
                let counts: Vec<usize> = frames.iter().map(RxDatagram::segment_count).collect();
                assert_eq!(
                    counts,
                    runs_here.copied().collect::<Vec<_>>(),
                    "{label}: frames at receiver {dst}"
                );
            } else {
                assert!(
                    frames.iter().all(|d| d.segment_len == 0),
                    "{label}: a plain socket sees plain datagrams"
                );
            }
        }
    }
}

#[test]
fn coalesced_runs_arrive_as_sent_at_plain_sockets() {
    round_trip_runs("127.0.0.1:0", false);
}

#[test]
fn coalesced_runs_arrive_as_segments_at_gro_sockets() {
    round_trip_runs("127.0.0.1:0", true);
}

#[test]
fn coalesced_runs_round_trip_over_ipv6_loopback() {
    if UdpSocket::bind("[::1]:0").is_err() {
        eprintln!("skipping: no IPv6 loopback here");
        return;
    }
    round_trip_runs("[::1]:0", false);
    round_trip_runs("[::1]:0", true);
}

/// A sender the kernel will not segment for (`SO_NO_CHECK`: no transmit
/// checksums) loses the coalescing, once, and nothing else.
#[test]
fn a_refused_coalesced_send_goes_out_plain_and_latches_off() {
    let (tx, rx) = pair();
    let rx_addr = rx.local_addr().unwrap();
    let pool = FramePool::new(2048, 4 * MAX_BATCH);
    mmsg::set_no_check(&tx, true).expect("SO_NO_CHECK");
    let batch = |round: usize| -> Vec<(SocketAddr, Frame)> {
        // A plain datagram, then a run: the refusal meets a batch the
        // kernel has already accepted the head of.
        [50, 100, 100, 100, 100, 100, 100, 100]
            .into_iter()
            .enumerate()
            .map(|(i, len)| (rx_addr, frame_of(&pool, &payload(round * 8 + i, len))))
            .collect()
    };

    // The FFI layer alone: refused, resent in the same call, reported.
    let first = batch(0);
    let head = mmsg::send_batch(&tx, &first, true).expect("head");
    assert_eq!(
        head.datagrams, 1,
        "the kernel stops at the message it refuses"
    );
    let tail = mmsg::send_batch(&tx, &first[1..], true).expect("tail");
    assert_eq!(
        tail,
        Sent {
            datagrams: 7,
            gso_sends: 0,
            gso_segments: 0,
            refused: true,
        }
    );

    // Through UdpIo: every datagram once, in order; one refusal
    // counted; later batches never try again.
    let counters = Arc::new(IoWorker::default());
    let io_tx = UdpIo::with_backend(tx, UdpBackend::Mmsg, Arc::clone(&counters));
    assert_eq!(io_tx.send_batch(&batch(1)).expect("refused batch"), 8);
    assert_eq!(counters.gso_refused.load(Relaxed), 1);
    // Head, refused tail, tail again.
    assert_eq!(counters.send_calls.load(Relaxed), 3);
    assert_eq!(io_tx.send_batch(&batch(2)).expect("later batch"), 8);
    assert_eq!(counters.gso_refused.load(Relaxed), 1);
    assert_eq!(counters.send_calls.load(Relaxed), 4, "one plain sendmmsg");
    assert_eq!(counters.gso_sends.load(Relaxed), 0);
    assert_eq!(counters.datagrams_out.load(Relaxed), 16);

    let got = recv_all(&rx, &pool, 24);
    for (i, d) in got.iter().enumerate() {
        let len = if i % 8 == 0 { 50 } else { 100 };
        assert_eq!(&d.frame[..], &payload(i, len)[..], "datagram {i}");
    }
    rx.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut extra = Vec::new();
    let n = mmsg::recv_batch(&rx, &pool, &mut RecvScratch::default(), &mut extra, 1);
    assert!(
        !matches!(n, Ok(n) if n > 0),
        "a refused run must not arrive twice"
    );

    // With checksums back the kernel would segment again — but this
    // UdpIo has latched.
    mmsg::set_no_check(io_tx.socket(), false).expect("SO_NO_CHECK off");
    assert_eq!(io_tx.send_batch(&batch(3)).expect("latched"), 8);
    assert_eq!(counters.gso_sends.load(Relaxed), 0, "the latch holds");
}
