//! Shutdown-latency regression test: `Engine::shutdown` on an idle
//! engine must not wait out a worker's sleep.
//!
//! On the mmsg rung an idle worker parks in `epoll_wait` with a 250 ms
//! backstop; shutdown rings its control doorbell, so the join returns
//! in microseconds. A lost doorbell wake would still exit — at the next
//! backstop tick — which is why it needs a time bound to show up as a
//! failure rather than a slow exit. On the portable rung there is no
//! doorbell: the worker notices within one `RECV_TIMEOUT` read window.
//!
//! (Single #[test] on purpose: `io::force` is process-wide, so the two
//! rungs must be sequenced.)

use std::time::{Duration, Instant};

use alpha_core::Config;
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore};
use alpha_transport::{io, Engine, UdpBackend, RECV_TIMEOUT};

/// Scheduler allowance on a loaded CI host; well under the backstop.
const SLACK: Duration = Duration::from_millis(100);

/// Fastest of three idle-engine shutdowns on `backend`: a stalled
/// scheduler can slow one, a lost wake slows all of them.
fn idle_shutdown(backend: UdpBackend) -> Duration {
    io::force(backend).expect("backend supported");
    (0..3)
        .map(|_| {
            let cfg = EngineConfig::new(Config::new(Algorithm::Sha1).with_chain_len(64));
            let engine = Engine::bind("127.0.0.1:0", EngineCore::new(cfg), 2).expect("bind");
            let io = &engine.core().metrics().io;
            assert_eq!(io.wait_backend_name(), backend.wait_name());
            // `bind` returns once both workers installed their wait;
            // give them time to be asleep in it, early in the backstop
            // period.
            std::thread::sleep(Duration::from_millis(50));
            let t = Instant::now();
            engine.shutdown();
            t.elapsed()
        })
        .min()
        .expect("three attempts")
}

#[test]
fn idle_engine_shuts_down_without_waiting_out_the_sleep() {
    let portable = idle_shutdown(UdpBackend::Fallback);
    assert!(
        portable <= RECV_TIMEOUT + SLACK,
        "portable rung took {portable:?} to shut down, read window is {RECV_TIMEOUT:?}"
    );

    if !UdpBackend::Mmsg.is_supported() {
        eprintln!("skipping mmsg leg: not supported on this platform");
        return;
    }
    let mmsg = idle_shutdown(UdpBackend::Mmsg);
    assert!(
        mmsg <= SLACK,
        "mmsg rung took {mmsg:?} to shut down: the control doorbell did not wake the workers"
    );
}
