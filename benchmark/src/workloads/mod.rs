//! The five workloads and what they have in common.
//!
//! A workload is one seeded input plus a way to run it: timed
//! repetitions on a fresh system under test for the end-to-end metrics,
//! and a traced run for the per-layer ledger. The repetition loop, the
//! metric arithmetic and the names every report must carry live here so
//! the workloads cannot drift apart.

use std::time::Duration;

use alpha_engine::{EngineCore, IoTotals, IoWorker};
use alpha_transport::{UdpBackend, UdpIo};

use crate::stats::{self, Better, Summary};
use crate::trace::Tracer;

pub mod churn;
pub mod host;
pub mod pair;
pub mod relay;

/// Workload names, in report order. Stable: later issues cite them.
pub const WORKLOADS: [&str; 5] = [
    "relay_base_min",
    "relay_flood_mix",
    "host_merkle_1k",
    "host_base_paced",
    "flow_churn_thaw",
];

/// End-to-end metrics `(name, unit, which way is better)`, reported by
/// every workload on an untraced run. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("verified_msgs_per_s", "1/s", Better::Higher),
    ("goodput_mbit_s", "Mbit/s", Better::Higher),
    ("worker_cpu_us_per_msg", "us", Better::Lower),
    ("latency_p50_us", "us", Better::Lower),
    ("wire_bytes_per_payload_byte", "B/B", Better::Lower),
];

/// Per-layer metrics `(name, unit)`, reported by every workload on a
/// traced run; a layer that is not on a workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("wire.self_ns_per_dgram", "ns"),
    ("wire.emit_ns_per_dgram", "ns"),
    ("wire.bytes_per_dgram", "B"),
    ("wire.pool_misses_per_dgram", "count"),
    ("crypto.digest_ns_per_64B", "ns"),
    ("crypto.digest_ns_per_1KiB", "ns"),
    ("crypto.mac_ns_per_1KiB", "ns"),
    ("crypto.merkle_build_ns_n32", "ns"),
    ("crypto.merkle_path_verify_ns_n32", "ns"),
    ("crypto.chain_build_ns_len1024", "ns"),
    ("crypto.hashes_per_msg", "count"),
    ("crypto.hash_bytes_per_msg", "B"),
    ("crypto.self_ns_per_dgram", "ns"),
    ("core.self_ns_per_dgram", "ns"),
    ("core.sign_ns_per_msg", "ns"),
    ("core.verify_ns_per_msg", "ns"),
    ("core.freeze_ns_per_flow", "ns"),
    ("core.thaw_ns_per_flow", "ns"),
    ("engine.self_ns_per_dgram", "ns"),
    ("engine.allocs_per_dgram", "count"),
    ("engine.poll_ns_per_call", "ns"),
    ("engine.handshake_ns", "ns"),
    ("engine.handshakes_per_s", "1/s"),
    ("engine.wake_ns_p50", "ns"),
    ("engine.hot_bytes_per_flow", "B"),
    ("engine.drop_ns.bad_mac", "ns"),
    ("engine.drop_ns.unsolicited", "ns"),
    ("engine.drop_ns.unknown_assoc", "ns"),
    ("engine.drop_ns.parse_error", "ns"),
    ("store.insert_ns", "ns"),
    ("store.remove_ns", "ns"),
    ("store.record_bytes", "B"),
    ("store.frozen_bytes_per_flow", "B"),
    ("store.evictions", "count"),
    ("transport.self_ns_per_dgram", "ns"),
    ("transport.worker_cpu_ns_per_dgram", "ns"),
    ("transport.syscalls_per_dgram", "count"),
    ("transport.dgrams_per_recv", "count"),
    ("transport.worker_util", "share"),
    ("transport.wakeups_per_s", "1/s"),
    ("transport.send_retries", "count"),
    ("transport.rx_unconsumed", "count"),
    ("transport.latency_p90_us", "us"),
    ("transport.latency_p99_us", "us"),
    ("transport.gen_late_p99_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.ledger_sum_ns_per_dgram", "ns"),
];

/// How a run was asked to behave.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed all input is generated from.
    pub seed: u64,
    /// Seconds the run measures, split evenly over the workload's
    /// repetitions ([`Workload::reps`]).
    pub seconds: f64,
    /// Reduced input sizes for the smoke run.
    pub quick: bool,
    /// Whether the process was pinned to one CPU before the run
    /// ([`crate::sys::pin_to_one_cpu`]).
    pub pinned: bool,
}

impl RunOpts {
    /// Length of one of `reps` timed repetitions.
    #[must_use]
    pub fn rep_duration(&self, reps: usize) -> Duration {
        Duration::from_secs_f64(self.seconds / reps.max(1) as f64)
    }
}

/// What one repetition on a fresh system under test measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seconds the system under test took to come up (construction,
    /// bind, association establishment), before the first timed
    /// datagram.
    pub setup_s: f64,
    /// Timed seconds, first datagram to last verified message.
    pub elapsed_s: f64,
    /// Messages the system under test verified.
    pub verified: u64,
    /// Payload bytes of those messages.
    pub payload_bytes: u64,
    /// On-CPU nanoseconds of the system under test's threads.
    pub sut_cpu_ns: u64,
    /// Datagram bytes in and out of the system under test.
    pub wire_bytes: u64,
    /// Per-message latencies in µs, sorted ascending.
    pub latency_us: Vec<f64>,
    /// Operations attempted: legitimate messages plus attack datagrams.
    pub attempted: u64,
    /// Attempted operations with the wrong outcome.
    pub failed: u64,
    /// Correctness violations; empty when every output checked out.
    pub problems: Vec<String>,
    /// Workload-specific counters for the detail file.
    pub detail: Vec<(String, serde::Value)>,
}

impl Rep {
    /// Look up a numeric detail by name (0 when absent).
    #[must_use]
    pub fn detail_f64(&self, name: &str) -> f64 {
        self.detail
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
    }
}

/// What a workload knows about the system it ran.
#[derive(Debug, Clone, Default)]
pub struct SutInfo {
    /// UDP backend the engine selected (`none` without sockets).
    pub udp_backend: String,
    /// Wait backend the engine's workers ran.
    pub wait_backend: String,
    /// Chain storage the protocol config resolved to.
    pub chain_storage: String,
    /// Whether generator and system under test ran pinned to one CPU.
    pub pinned: bool,
    /// `"loopback"` for the live workloads, `"none"` in-process.
    pub link: &'static str,
}

impl SutInfo {
    /// Describe a live engine.
    #[must_use]
    pub fn live(core: &EngineCore, pinned: bool) -> SutInfo {
        let io = &core.metrics().io;
        SutInfo {
            udp_backend: io.backend_name().to_owned(),
            wait_backend: io.wait_backend_name().to_owned(),
            chain_storage: alpha_engine::chainstore::name(core.config().protocol.chain_storage)
                .to_owned(),
            pinned,
            link: "loopback",
        }
    }
}

/// The engine's I/O counters since `base` (the fields the reports use).
#[must_use]
pub fn io_since(now: &IoTotals, base: &IoTotals) -> IoTotals {
    IoTotals {
        recv_calls: now.recv_calls - base.recv_calls,
        send_calls: now.send_calls - base.send_calls,
        datagrams_in: now.datagrams_in - base.datagrams_in,
        datagrams_out: now.datagrams_out - base.datagrams_out,
        wait_calls: now.wait_calls - base.wait_calls,
        wakeups: now.wakeups - base.wakeups,
        send_retries: now.send_retries - base.send_retries,
        ..IoTotals::default()
    }
}

/// The generator's own sockets always take the batched sender when the
/// platform has one, so its cost does not follow the backend the engine
/// under test selected.
#[must_use]
pub fn generator_io(socket: std::net::UdpSocket) -> UdpIo {
    let backend = if UdpBackend::Mmsg.is_supported() {
        UdpBackend::Mmsg
    } else {
        UdpBackend::Fallback
    };
    UdpIo::with_backend(socket, backend, std::sync::Arc::new(IoWorker::default()))
}

/// The `transport.*` rows of a live workload's ledger: `live_io` and
/// `rep` are the live repetition's counters, `p3_ns` its worker CPU per
/// datagram consumed, `engine_ns` the engine pass's cost per datagram.
#[must_use]
pub fn transport_rows(
    live_io: &IoTotals,
    rep: &Rep,
    p3_ns: f64,
    engine_ns: f64,
    rx_unconsumed: f64,
) -> Vec<(&'static str, f64)> {
    let moved = (live_io.datagrams_in + live_io.datagrams_out).max(1) as f64;
    let syscalls = live_io.recv_calls + live_io.send_calls + live_io.wait_calls;
    vec![
        ("transport.self_ns_per_dgram", p3_ns - engine_ns),
        ("transport.worker_cpu_ns_per_dgram", p3_ns),
        ("transport.syscalls_per_dgram", syscalls as f64 / moved),
        ("transport.dgrams_per_recv", live_io.datagrams_per_recv()),
        ("transport.worker_util", rep.detail_f64("worker_util")),
        (
            "transport.wakeups_per_s",
            live_io.wakeups as f64 / rep.elapsed_s.max(1e-9),
        ),
        ("transport.send_retries", live_io.send_retries as f64),
        ("transport.rx_unconsumed", rx_unconsumed),
        (
            "transport.latency_p90_us",
            stats::percentile_sorted(&rep.latency_us, 90.0),
        ),
        (
            "transport.latency_p99_us",
            stats::percentile_sorted(&rep.latency_us, 99.0),
        ),
    ]
}

/// One workload: a seeded input and the two ways to run it.
pub trait Workload {
    /// Timed repetitions per run. Every repetition runs on a fresh
    /// system under test, so this is how many instances of the system a
    /// run samples. The reported value is the good-side quartile over
    /// them ([`stats::good_quartile`]): the host slows down in bursts of
    /// a second or several, and many short repetitions leave enough of
    /// them undisturbed.
    fn reps(&self) -> usize;

    /// One repetition of `duration` on a fresh system under test.
    fn rep(&mut self, duration: Duration) -> Result<Rep, String>;

    /// The traced run: record spans into `tracer`, return per-layer
    /// values by [`PER_LAYER`] name. `duration` bounds its live part.
    fn traced(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String>;

    /// Description of the system under test, valid after a run.
    fn sut(&self) -> SutInfo;

    /// Seconds spent generating the seeded input.
    fn gen_s(&self) -> f64;
}

/// Build workload `name` for `opts`.
pub fn build(name: &str, opts: &RunOpts) -> Result<Box<dyn Workload>, String> {
    match name {
        "relay_base_min" => Ok(Box::new(relay::RelayWorkload::new(opts, false)?)),
        "relay_flood_mix" => Ok(Box::new(relay::RelayWorkload::new(opts, true)?)),
        "host_merkle_1k" => Ok(Box::new(host::HostWorkload::new(opts, host::Load::Merkle))),
        "host_base_paced" => Ok(Box::new(host::HostWorkload::new(opts, host::Load::Paced))),
        "flow_churn_thaw" => Ok(Box::new(churn::ChurnWorkload::new(opts))),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// An untraced run: every repetition, and the metrics they reduce to.
pub struct EndToEnd {
    /// The timed repetitions (warm-up excluded).
    pub reps: Vec<Rep>,
    /// Set-up seconds of every repetition, warm-up included.
    pub setups: Vec<f64>,
    /// `(name, unit, per-repetition summary)` in [`END_TO_END`] order.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Pooled latency percentiles `(p50, p90, p99)` in µs and the
    /// number of samples behind them.
    pub latency: (f64, f64, f64, usize),
}

/// Per-repetition value of each end-to-end metric except `setup_s`.
fn rep_values(rep: &Rep) -> [f64; 5] {
    let verified = rep.verified.max(1) as f64;
    let secs = rep.elapsed_s.max(1e-9);
    [
        rep.verified as f64 / secs,
        rep.payload_bytes as f64 * 8.0 / secs / 1e6,
        rep.sut_cpu_ns as f64 / 1e3 / verified,
        stats::percentile_sorted(&rep.latency_us, 50.0),
        rep.wire_bytes as f64 / rep.payload_bytes.max(1) as f64,
    ]
}

/// Run the warm-up and the timed repetitions of `workload`.
pub fn run_end_to_end(workload: &mut dyn Workload, opts: &RunOpts) -> Result<EndToEnd, String> {
    let count = workload.reps();
    let duration = opts.rep_duration(count);
    // One discarded warm-up repetition: page faults, allocator growth
    // and socket buffers filling are paid before anything is timed.
    let warmup = workload.rep(duration.min(Duration::from_millis(500)))?;
    let mut setups = vec![warmup.setup_s];
    let mut reps = Vec::with_capacity(count);
    for _ in 0..count {
        let rep = workload.rep(duration)?;
        setups.push(rep.setup_s);
        reps.push(rep);
    }
    let (name, unit, better) = END_TO_END[0];
    let mut metrics = vec![(name, unit, Summary::of(&setups, better))];
    for (i, &(name, unit, better)) in END_TO_END.iter().enumerate().skip(1) {
        let values: Vec<f64> = reps.iter().map(|r| rep_values(r)[i - 1]).collect();
        metrics.push((name, unit, Summary::of(&values, better)));
    }
    let mut pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let latency = (
        stats::percentile_sorted(&pooled, 50.0),
        stats::percentile_sorted(&pooled, 90.0),
        stats::percentile_sorted(&pooled, 99.0),
        pooled.len(),
    );
    Ok(EndToEnd {
        reps,
        setups,
        metrics,
        latency,
    })
}

/// Live repetitions a traced run takes for its P3 figure.
pub const TRACED_LIVE_REPS: usize = 5;

/// Run `live` [`TRACED_LIVE_REPS`] times, each on a fresh system under
/// test for a share of `duration`, and keep the repetition whose `cost`
/// (worker CPU per datagram) is the median — one live repetition alone
/// is at the mercy of the host's slow periods. Any repetition with a
/// correctness problem fails the run.
pub fn median_live<L>(
    duration: Duration,
    mut live: impl FnMut(Duration) -> Result<L, String>,
    problems: impl Fn(&L) -> &[String],
    cost: impl Fn(&L) -> f64,
) -> Result<L, String> {
    let each = duration / TRACED_LIVE_REPS as u32;
    let mut runs = Vec::with_capacity(TRACED_LIVE_REPS);
    for _ in 0..TRACED_LIVE_REPS {
        let run = live(each)?;
        if !problems(&run).is_empty() {
            return Err(problems(&run).join("; "));
        }
        runs.push(run);
    }
    runs.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    Ok(runs.swap_remove(TRACED_LIVE_REPS / 2))
}

/// Complete a traced run's values to the full [`PER_LAYER`] list, in
/// table order, rejecting names the table does not have.
pub fn complete_per_layer(
    values: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    for (name, _) in values {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            return Err(format!("traced run reported unknown metric '{name}'"));
        }
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, unit, value)
        })
        .collect())
}

/// Per-layer rows every workload fills from the micro-timings.
#[must_use]
pub fn price_rows(p: &crate::micro::Prices) -> Vec<(&'static str, f64)> {
    vec![
        ("crypto.digest_ns_per_64B", p.digest_ns_64),
        ("crypto.digest_ns_per_1KiB", p.digest_ns_1k),
        ("crypto.mac_ns_per_1KiB", p.mac_ns_1k),
        ("crypto.merkle_build_ns_n32", p.merkle_build_ns_32),
        ("crypto.merkle_path_verify_ns_n32", p.merkle_path_ns_32),
        ("crypto.chain_build_ns_len1024", p.chain_build_ns_1024),
        ("core.freeze_ns_per_flow", p.freeze_ns),
        ("core.thaw_ns_per_flow", p.thaw_ns),
        ("store.insert_ns", p.store_insert_ns),
        ("store.remove_ns", p.store_remove_ns),
        ("store.record_bytes", p.store_record_bytes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _, _)| *n)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .chain(WORKLOADS)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(char::is_alphanumeric));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END.iter().map(|(_, u, _)| u);
        for unit in units.chain(PER_LAYER.iter().map(|(_, u)| u)) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn per_layer_completion_fills_zeros_and_rejects_strays() {
        let rows = complete_per_layer(&[("wire.self_ns_per_dgram", 12.5)]).expect("known name");
        assert_eq!(rows.len(), PER_LAYER.len());
        assert_eq!(rows[0], ("wire.self_ns_per_dgram", "ns", 12.5));
        assert!(rows[1..].iter().all(|r| r.2 == 0.0));
        assert!(complete_per_layer(&[("wire.no_such_metric", 1.0)]).is_err());
    }

    #[test]
    fn rep_values_follow_their_definitions() {
        let rep = Rep {
            elapsed_s: 2.0,
            verified: 1000,
            payload_bytes: 1_000_000,
            sut_cpu_ns: 4_000_000,
            wire_bytes: 1_500_000,
            latency_us: vec![10.0, 20.0, 30.0],
            ..Rep::default()
        };
        let v = rep_values(&rep);
        assert_eq!(v, [500.0, 4.0, 4.0, 20.0, 1.5]);
    }
}
