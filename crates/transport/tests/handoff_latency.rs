//! Handoff-latency regression test: a cross-worker datagram must reach
//! its owning worker fast.
//!
//! A 2-worker live-loopback engine runs with every shard pre-claimed by
//! worker 0, so any datagram the kernel steers to worker 1's
//! SO_REUSEPORT socket *must* cross a handoff ring. The measured ring
//! wait (receive-stamp to drain) is the wake-up path: the pushing
//! worker rings the owner's eventfd doorbell, so the owner wakes in
//! microseconds. The bound here is deliberately slack (scheduler noise
//! on a loaded CI host), but far below a read-timeout period.
//!
//! Only the epoll wait has doorbells to test: on the portable rung
//! there is one shared socket and no cross-worker path at all, so the
//! test skips rather than asserting on zero samples.

use std::time::Duration;

use alpha_transport::probe_handoff;

const PROBE_WINDOW: Duration = Duration::from_millis(600);

#[test]
fn preclaimed_handoffs_drain_within_doorbell_bounds() {
    let ep = probe_handoff(PROBE_WINDOW, true).expect("handoff probe");
    if !ep.reuseport {
        eprintln!("skipping: single-socket UDP backend, no cross-worker path to measure");
        return;
    }
    eprintln!("epoll probe: {ep:?}");
    assert_eq!(
        ep.wait_backend, "epoll",
        "per-worker sockets imply the epoll wait"
    );
    assert!(
        ep.samples > 0,
        "preclaimed shards must force handoffs: {ep:?}"
    );
    // Tight bounds in release: the doorbell must beat the read-timeout
    // clock by a wide margin even on a slow single-core host (measured
    // p50 ≤ 100 µs, p99 ≤ 200 µs). Debug builds spend milliseconds per
    // exchange in unoptimized hash chains, so the measurement is
    // dominated by crypto, not the wake path — only the pathological
    // "stranded until an unrelated wake" regression is gated there.
    let (p50_bound, p99_bound) = if cfg!(debug_assertions) {
        (500_000, 1_000_000)
    } else {
        (2_000, 100_000)
    };
    assert!(
        ep.p50_us <= p50_bound,
        "epoll handoff p50 {}us exceeds {}us — doorbells are not waking the owner: {ep:?}",
        ep.p50_us,
        p50_bound
    );
    assert!(
        ep.p99_us <= p99_bound,
        "epoll handoff p99 {}us exceeds {}us: {ep:?}",
        ep.p99_us,
        p99_bound
    );
}
