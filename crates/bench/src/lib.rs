//! Shared harness code for regenerating every table and figure of the
//! ALPHA paper.
//!
//! Each `--bin` target reproduces one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — hash computations per message, per role × mode |
//! | `table2` | Table 2 — buffering memory for n parallel messages |
//! | `table3` | Table 3 — additional memory for n parallel acknowledgments |
//! | `table4` | Table 4 — ALPHA vs RSA/DSA step latency (N770, Xeon, native) |
//! | `table5` | Table 5 — SHA-1 latency on the three router platforms |
//! | `table6` | Table 6 — ALPHA-M processing / payload / throughput estimates |
//! | `fig5`   | Figure 5 — signed bytes per S1 vs bundle size |
//! | `fig6`   | Figure 6 — transferred bytes per signed byte |
//! | `wmn_estimate` | §4.1.2 — ALPHA-C verifiable throughput on mesh routers |
//! | `wsn_estimate` | §4.1.3 — ALPHA-C on CC2430 sensor nodes |
//!
//! Everything measured here goes through the *real* protocol state
//! machines with hash-operation instrumentation
//! ([`alpha_crypto::counting`]); device-scaled numbers price those counts
//! with the paper's own per-operation measurements
//! ([`alpha_sim::DeviceModel`]).

pub mod roles;
pub mod table;

use std::time::Instant;

/// Mean wall-clock nanoseconds over `iters` runs (the paper's Table 4 uses
/// the mean of 300 signatures).
pub fn time_mean_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Render nanoseconds as milliseconds with paper-style precision (more
/// digits below 10 µs so sub-millisecond steps stay readable).
#[must_use]
pub fn ms(ns: f64) -> String {
    if ns < 10_000.0 {
        format!("{:.4}", ns / 1e6)
    } else {
        format!("{:.2}", ns / 1e6)
    }
}

/// Render nanoseconds as microseconds.
#[must_use]
pub fn us(ns: f64) -> String {
    format!("{:.0}", ns / 1e3)
}

/// Number of cores this host can actually run in parallel.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The standard provenance fragment every `BENCH_*.json` carries:
/// `"runtime_mode": …, "host_cores": …, "workers": …, "wait_backend": …`
/// (no surrounding braces, no trailing comma).
///
/// `runtime_mode` is `"model"` when the numbers come from sequential
/// single-thread timing (device scaling, makespan projection) and
/// `"live"` when real threads ran concurrently over real sockets;
/// `host_cores` lets a reader judge whether a live number could have
/// exhibited parallelism at all, `workers` is the worker/thread count
/// the artifact was produced with (1 for single-threaded benches), and
/// `wait_backend` records how engine workers sleep on the resolved UDP
/// backend and `kernel_release` names the kernel the numbers were
/// taken on — both ride along even in model-mode artifacts so every
/// file names the full runtime configuration.
#[must_use]
pub fn runtime_fields(runtime_mode: &str, workers: usize) -> String {
    assert!(
        runtime_mode == "model" || runtime_mode == "live",
        "runtime_mode is 'model' or 'live', got '{runtime_mode}'"
    );
    format!(
        "\"runtime_mode\": \"{runtime_mode}\", \"host_cores\": {}, \"workers\": {workers}, \
         \"wait_backend\": \"{}\", \"kernel_release\": \"{}\"",
        host_cores(),
        alpha_transport::io::active().wait_name(),
        kernel_release()
    )
}

/// The running kernel's release string (`uname -r`), read from procfs
/// so no uname FFI is needed; `"unknown"` off Linux or when procfs is
/// unreadable.
#[must_use]
pub fn kernel_release() -> String {
    match std::fs::read_to_string("/proc/sys/kernel/osrelease") {
        Ok(s) if !s.trim().is_empty() => s.trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Write a bench artefact and say where it went. A full run refreshes
/// `name` in the working directory (the repo root, where the committed
/// `BENCH_*.json` live); a `--quick` smoke writes under
/// `target/bench-quick/` instead, so running `ci.sh` never replaces
/// committed full-run numbers with smoke numbers.
pub fn write_artefact(name: &str, json: &str) {
    let path = if std::env::args().any(|a| a == "--quick") {
        let dir = std::path::Path::new("target/bench-quick");
        std::fs::create_dir_all(dir).expect("create target/bench-quick");
        dir.join(name)
    } else {
        std::path::PathBuf::from(name)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
