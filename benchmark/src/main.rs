//! The repo's benchmark: five seeded workloads over the ALPHA runtime,
//! end-to-end metrics from untraced runs and a per-crate cost ledger
//! from traced ones. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! alpha-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     object (this is what BENCHMARK.json's `command` invokes)
//! alpha-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
//!     every workload, each in a child process, untraced and traced
//!     unless --trace picks one; writes out/result-seed<n>.json
//! alpha-benchmark --compare <a.json> <b.json>
//!     hold two result files against BENCHMARK.json's bounds
//! ```

mod compare;
mod gen;
mod micro;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use report::RunReport;
use workloads::{RunOpts, WORKLOADS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: alpha-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--out <dir>] | --compare <a.json> <b.json>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                let b = PathBuf::from(value("--compare")?);
                parsed.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// `run_seconds` of BENCHMARK.json — the run length when none is given.
fn default_seconds() -> f64 {
    read_json(&report::repo_root().join("BENCHMARK.json"))
        .ok()
        .and_then(|v| v.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(10.0)
}

/// Length of a `--quick` run: a smoke test, too short for its numbers
/// to mean anything.
const QUICK_SECONDS: f64 = 0.3;

/// One workload, in this process.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or_else(|| {
            if args.quick {
                QUICK_SECONDS
            } else {
                default_seconds()
            }
        }),
        quick: args.quick,
        pinned: sys::pin_to_one_cpu().is_some(),
    };
    micro::set_quick(opts.quick);
    let traced = args.trace.unwrap_or(false);
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| report::package_dir().join("out"));
    let mut workload = workloads::build(name, &opts)?;
    println!(
        "{name}: seed {} · {} s · {} · input generated in {:.3} s",
        opts.seed,
        opts.seconds,
        if traced { "traced" } else { "untraced" },
        workload.gen_s()
    );
    let report = if traced {
        let mut tracer = trace::Tracer::new();
        // The traced run's live part gets a third of the run length.
        let live = std::time::Duration::from_secs_f64(opts.seconds / 3.0);
        let rows = workload.traced(live, &mut tracer)?;
        let rows = workloads::complete_per_layer(&rows)?;
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let trace_file = out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&trace_file, trace::to_json(name, opts.seed, tracer.spans()))
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        println!("self time by span name (ns total, spans):");
        for (span, own, n) in trace::self_time_by_name(tracer.spans()) {
            println!("  {span:<28} {own:>14} {n:>9}");
        }
        let report = RunReport::per_layer(
            name,
            &opts,
            &workload.sut(),
            &rows,
            tracer.spans().len(),
            &trace_file,
        );
        print!("{}", report.table(None));
        report
    } else {
        let run = workloads::run_end_to_end(workload.as_mut(), &opts)?;
        let report = RunReport::end_to_end(name, &opts, &workload.sut(), workload.gen_s(), &run);
        print!("{}", report.table(Some(&run.metrics)));
        let (p50, p90, p99, n) = run.latency;
        println!(
            "  latency over all repetitions: p50 {p50:.1} us, p90 {p90:.1} us, p99 {p99:.1} us \
             ({n} samples; p90/p99 are reported, not bounded)"
        );
        println!(
            "  attempted {} · failed {} · fail_share {:.6}",
            report.attempted,
            report.failed,
            report.failed as f64 / report.attempted as f64
        );
        if let Some(problems) = report.detail.get("problems").and_then(Value::as_array) {
            for p in problems {
                println!("  CHECK FAILED: {}", p.as_str().unwrap_or("?"));
            }
        }
        report
    };
    let sut = workload.sut();
    println!(
        "  link {} · udp {} · wait {} · digest {} · chains {} · pinned {} · {} core(s)",
        sut.link,
        sut.udp_backend,
        sut.wait_backend,
        alpha_crypto::backend::active().name(),
        sut.chain_storage,
        sut.pinned,
        sys::host_cores()
    );
    let path = report
        .write_detail(&out_dir, opts.seed)
        .map_err(|e| format!("write detail file: {e}"))?;
    println!("  detail: {}", path.display());
    println!("{}", report.result_line());
    Ok(report.correct)
}

/// Every workload, each in a child process of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| report::package_dir().join("out"));
    let kinds: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut all_correct = true;
    let mut per_workload: Vec<(String, Value)> = Vec::new();
    for name in WORKLOADS {
        let mut entry: Vec<(String, Value)> = Vec::new();
        for &traced in kinds {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out_dir)
                .stdin(Stdio::null());
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.quick {
                cmd.arg("--quick");
            }
            // The child's stdout passes through; `status` waits for it.
            let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
            all_correct &= status.success();
            let detail = read_json(&report::detail_path(&out_dir, name, args.seed, traced));
            match (status.success(), detail) {
                (true, Ok(detail)) if traced => {
                    entry.extend(
                        detail
                            .get("per_layer")
                            .cloned()
                            .map(|v| ("per_layer".to_owned(), v)),
                    );
                }
                (true, Ok(detail)) => {
                    for key in [
                        "end_to_end",
                        "fail_share",
                        "attempted",
                        "failed",
                        "provenance",
                    ] {
                        entry.extend(detail.get(key).cloned().map(|v| (key.to_owned(), v)));
                    }
                }
                (_, Err(e)) if status.success() => return Err(e),
                _ => println!("{name}: run failed ({status})"),
            }
        }
        per_workload.push((name.to_owned(), Value::object(entry)));
    }
    let result = serde_json::json!({
        "seed": (args.seed),
        "quick": (args.quick),
        "workloads": (Value::object(per_workload))
    });
    let path = out_dir.join(format!("result-seed{}.json", args.seed));
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&result).expect("in-memory value serialises"),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("result: {}", path.display());
    Ok(all_correct)
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let benchmark = read_json(&report::repo_root().join("BENCHMARK.json"))?;
    let (table, any_worse) = compare::compare(&read_json(a)?, &read_json(b)?, &benchmark)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let _ = sys::host_cores(); // read before any pinning narrows the answer
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => run_compare(a, b),
        (None, Some(name)) => run_one(name, &args),
        (None, None) => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("alpha-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a = args(&[
            "--workload",
            "relay_base_min",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("relay_base_min"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(12.0), Some(true)));
        assert!(!a.quick);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--compare", "only-one.json"]).is_err());
        assert_eq!(args(&[]).expect("empty is fine"), Args::default());
    }

    /// `BENCHMARK.json` and the tables in `workloads` must name the
    /// same workloads and metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let v = read_json(&report::repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        let end_to_end: Vec<(&str, &str)> = workloads::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u))
            .collect();
        assert_eq!(names("end_to_end"), own(&end_to_end));
        assert_eq!(names("per_layer"), own(&workloads::PER_LAYER));
        let listed: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed, WORKLOADS);
        let bounds = compare::bounds(&v).expect("bounds");
        assert!(bounds.iter().all(|b| b.bound <= 0.25));
        let directions: Vec<_> = bounds.iter().map(|b| b.better).collect();
        let own_directions: Vec<_> = workloads::END_TO_END.iter().map(|m| m.2).collect();
        assert_eq!(directions, own_directions);
    }
}
