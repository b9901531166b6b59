//! What a run prints and writes.
//!
//! A single-workload run prints its metrics by name with their units,
//! writes a detail file (`out/<workload>-seed<N>-trace<T>.json`:
//! provenance, per-repetition samples, quartiles, checks) and ends its
//! standard output with the one-line result object the driver reads.

use std::path::{Path, PathBuf};

use serde::Value;
use serde_json::json;

use crate::stats::Summary;
use crate::sys;
use crate::workloads::{EndToEnd, Rep, RunOpts, SutInfo};

/// Directory of the benchmark package (where `out/` lives).
#[must_use]
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Root of the repository checkout the benchmark was built in.
#[must_use]
pub fn repo_root() -> PathBuf {
    package_dir()
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Path of a run's detail file.
#[must_use]
pub fn detail_path(out_dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ))
}

/// The provenance block every detail file carries.
#[must_use]
pub fn provenance(opts: &RunOpts, sut: &SutInfo) -> Value {
    let env: Vec<Value> = sys::alpha_env()
        .into_iter()
        .map(|(k, v)| Value::Str(format!("{k}={v}")))
        .collect();
    json!({
        "udp_backend": (sut.udp_backend.as_str()),
        "wait_backend": (sut.wait_backend.as_str()),
        "digest_backend": (alpha_crypto::backend::active().name()),
        "chain_storage": (sut.chain_storage.as_str()),
        "kernel_release": (sys::kernel_release()),
        "host_cores": (sys::host_cores() as u64),
        "pinned": (sut.pinned),
        "seed": (opts.seed),
        "git_commit": (sys::git_commit(&repo_root())),
        "alpha_env": (Value::Array(env)),
        "link": (sut.link)
    })
}

/// One finished single-workload run, ready to print and write.
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every check held.
    pub correct: bool,
    /// Operations attempted over the timed repetitions.
    pub attempted: u64,
    /// Operations with the wrong outcome.
    pub failed: u64,
    /// `(name, unit, value)` of every reported metric.
    pub metrics: Vec<(String, String, f64)>,
    /// The detail file's content.
    pub detail: Value,
}

fn rep_value(rep: &Rep) -> Value {
    let mut fields = vec![
        ("setup_s".to_owned(), Value::F64(rep.setup_s)),
        ("elapsed_s".to_owned(), Value::F64(rep.elapsed_s)),
        ("verified".to_owned(), Value::U64(rep.verified)),
        ("payload_bytes".to_owned(), Value::U64(rep.payload_bytes)),
        ("sut_cpu_ns".to_owned(), Value::U64(rep.sut_cpu_ns)),
        ("wire_bytes".to_owned(), Value::U64(rep.wire_bytes)),
        (
            "latency_samples".to_owned(),
            Value::U64(rep.latency_us.len() as u64),
        ),
        ("attempted".to_owned(), Value::U64(rep.attempted)),
        ("failed".to_owned(), Value::U64(rep.failed)),
    ];
    fields.extend(rep.detail.iter().cloned());
    Value::object(fields)
}

impl RunReport {
    /// Report of an untraced run.
    #[must_use]
    pub fn end_to_end(
        workload: &str,
        opts: &RunOpts,
        sut: &SutInfo,
        gen_s: f64,
        run: &EndToEnd,
    ) -> RunReport {
        let problems: Vec<Value> = run
            .reps
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                r.problems
                    .iter()
                    .map(move |p| Value::Str(format!("repetition {i}: {p}")))
            })
            .collect();
        let attempted: u64 = run.reps.iter().map(|r| r.attempted).sum();
        let failed: u64 = run.reps.iter().map(|r| r.failed).sum();
        let summaries: Vec<(String, Value)> = run
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                let mut v = s.to_value();
                if let Value::Object(m) = &mut v {
                    m.insert("unit".to_owned(), Value::Str((*unit).to_owned()));
                }
                ((*name).to_owned(), v)
            })
            .collect();
        let (p50, p90, p99, n) = run.latency;
        let detail = json!({
            "workload": workload,
            "trace": false,
            "quick": (opts.quick),
            "seconds": (opts.seconds),
            "provenance": (provenance(opts, sut)),
            "input_generation_s": gen_s,
            "end_to_end": (Value::object(summaries)),
            "latency_us_pooled": {"p50": p50, "p90": p90, "p99": p99, "samples": (n as u64)},
            "setup_s_samples": (Value::Array(run.setups.iter().map(|&s| Value::F64(s)).collect())),
            "repetitions": (Value::Array(run.reps.iter().map(rep_value).collect())),
            "attempted": attempted,
            "failed": failed,
            "fail_share": (failed as f64 / attempted.max(1) as f64),
            "problems": (Value::Array(problems.clone()))
        });
        RunReport {
            workload: workload.to_owned(),
            traced: false,
            correct: problems.is_empty(),
            attempted: attempted.max(1),
            failed,
            metrics: run
                .metrics
                .iter()
                .map(|(n, u, s)| ((*n).to_owned(), (*u).to_owned(), s.value))
                .collect(),
            detail,
        }
    }

    /// Report of a traced run.
    #[must_use]
    pub fn per_layer(
        workload: &str,
        opts: &RunOpts,
        sut: &SutInfo,
        rows: &[(&'static str, &'static str, f64)],
        spans: usize,
        trace_file: &Path,
    ) -> RunReport {
        let values: Vec<(String, Value)> = rows
            .iter()
            .map(|(name, unit, v)| ((*name).to_owned(), json!({"value": (*v), "unit": (*unit)})))
            .collect();
        let detail = json!({
            "workload": workload,
            "trace": true,
            "quick": (opts.quick),
            "seconds": (opts.seconds),
            "provenance": (provenance(opts, sut)),
            "per_layer": (Value::object(values)),
            "spans": (spans as u64),
            "trace_file": (trace_file.display().to_string())
        });
        RunReport {
            workload: workload.to_owned(),
            traced: true,
            correct: true,
            // A traced run's passes verify every message they replay
            // (a shortfall is an error, not a count).
            attempted: 1,
            failed: 0,
            metrics: rows
                .iter()
                .map(|(n, u, v)| ((*n).to_owned(), (*u).to_owned(), *v))
                .collect(),
            detail,
        }
    }

    /// The one-line object the driver reads from the end of stdout.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = Value::object(self.metrics.iter().map(|(name, unit, value)| {
            (
                name.clone(),
                json!({"value": (*value), "unit": (unit.as_str())}),
            )
        }));
        let line = json!({
            "correct": (self.correct),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "metrics": metrics
        });
        serde_json::to_string(&line).expect("in-memory value serialises")
    }

    /// Human-readable table of the metrics.
    #[must_use]
    pub fn table(&self, summaries: Option<&[(&'static str, &'static str, Summary)]>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "== {} ({kind}) ==", self.workload);
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let _ = write!(out, "  {name:<36} {value:>16.4} {unit:<7}");
            if let Some((_, _, s)) = summaries.and_then(|s| s.get(i)) {
                let _ = write!(
                    out,
                    "  [min {:.4}  q1 {:.4}  median {:.4}  q3 {:.4}  max {:.4}  n={}]",
                    s.min, s.q1, s.median, s.q3, s.max, s.n
                );
            }
            out.push('\n');
        }
        out
    }

    /// Write the detail file; returns its path.
    pub fn write_detail(&self, out_dir: &Path, seed: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(out_dir)?;
        let path = detail_path(out_dir, &self.workload, seed, self.traced);
        let text = serde_json::to_string_pretty(&self.detail).expect("in-memory value serialises");
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            workload: "relay_base_min".to_owned(),
            traced: false,
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s".to_owned(), "s".to_owned(), 0.812_734_5)],
            detail: Value::Null,
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.812_734_5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }
}
