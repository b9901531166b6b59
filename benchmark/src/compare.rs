//! `--compare a.json b.json`: hold two complete result files against
//! the bounds `BENCHMARK.json` fixes.
//!
//! One row per end-to-end metric × workload, each side's value being
//! what a run reports: the good-side quartile of its repetitions
//! ([`stats::good_quartile`]). With `a` the baseline:
//!
//! - **unresolved** — the repetitions of either side spread (quartile
//!   distance over median) wider than the metric's bound, so a
//!   difference of that size cannot be told from noise; unless every
//!   repetition of `b` beats every repetition of `a`, which is
//!   **better** however wide the spread;
//! - **worse** — `b`'s value is worse than `a`'s by more than the
//!   bound;
//! - **better** — `b`'s value is better by more than `a`'s own
//!   quartile distance;
//! - **within bound** — anything else.
//!
//! `fail_share` (failed ÷ attempted) gets a row per workload with an
//! absolute bound.

use serde::Value;

use crate::stats::{self, Better};

/// Most `fail_share` may rise, absolute.
pub const FAIL_SHARE_BOUND: f64 = 0.005;

/// A metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Which way the metric improves.
    pub better: Better,
    /// Share of the baseline's value it may worsen by.
    pub bound: f64,
}

/// The end-to-end bounds of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks '{k}'"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                better: match field("better")?.as_str() {
                    Some("higher") => Better::Higher,
                    Some("lower") => Better::Lower,
                    other => return Err(format!("better is {other:?}, not higher or lower")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the baseline's own spread.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric from the per-repetition samples of both sides.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64) {
    let higher = bound.better == Better::Higher;
    let (va, vb) = (
        stats::good_quartile(a, bound.better),
        stats::good_quartile(b, bound.better),
    );
    // Positive = b is worse, as a share of a's value.
    let worse_by = if va == 0.0 {
        0.0
    } else if higher {
        (va - vb) / va.abs()
    } else {
        (vb - va) / va.abs()
    };
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    let b_always_wins = !a.is_empty()
        && !b.is_empty()
        && a.iter()
            .all(|&x| b.iter().all(|&y| if higher { y > x } else { y < x }));
    let verdict = if spread > bound.bound {
        if b_always_wins {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if -worse_by > stats::iqr_share(a) && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

/// Per-repetition samples of `metric` on `workload` in a result file.
fn samples(result: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn fail_share(result: &Value, workload: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("fail_share")?
        .as_f64()
}

/// Compare two result files; returns the printed table and whether any
/// row is worse than its bound.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let bounds = bounds(benchmark)?;
    let workloads: Vec<&String> = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("first file has no workloads")?
        .keys()
        .collect();
    let mut out = String::new();
    let mut any_worse = false;
    let quick = [a, b]
        .iter()
        .any(|r| r.get("quick").and_then(Value::as_bool) == Some(true));
    let _ = writeln!(
        out,
        "{:<17} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "b worse", "bound"
    );
    for workload in workloads {
        for bound in &bounds {
            let (Some(sa), Some(sb)) = (
                samples(a, workload, &bound.name),
                samples(b, workload, &bound.name),
            ) else {
                return Err(format!(
                    "{workload}/{}: missing from one of the files",
                    bound.name
                ));
            };
            let (verdict, worse_by) = judge(&sa, &sb, bound);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<17} {:<28} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                workload,
                bound.name,
                stats::good_quartile(&sa, bound.better),
                stats::good_quartile(&sb, bound.better),
                worse_by * 100.0,
                bound.bound * 100.0,
                verdict.label()
            );
        }
        let (Some(fa), Some(fb)) = (fail_share(a, workload), fail_share(b, workload)) else {
            return Err(format!(
                "{workload}/fail_share: missing from one of the files"
            ));
        };
        let worse = fb - fa > FAIL_SHARE_BOUND;
        any_worse |= worse;
        let _ = writeln!(
            out,
            "{:<17} {:<28} {:>14.6} {:>14.6} {:>+8.4}  {:>6.3}  {}",
            workload,
            "fail_share",
            fa,
            fb,
            fb - fa,
            FAIL_SHARE_BOUND,
            if worse { "WORSE" } else { "within bound" }
        );
    }
    if quick {
        let _ = writeln!(
            out,
            "a --quick result is a smoke test: its numbers mean nothing and no bound applies"
        );
    }
    Ok((out, any_worse && !quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency".to_owned(),
            better: Better::Lower,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "rate".to_owned(),
            better: Better::Higher,
            bound,
        }
    }

    const STEADY: [f64; 5] = [100.0, 101.0, 100.5, 99.5, 100.2];

    #[test]
    fn same_numbers_are_within_bound() {
        assert_eq!(judge(&STEADY, &STEADY, &lower(0.1)).0, Verdict::WithinBound);
        assert_eq!(
            judge(&STEADY, &STEADY, &higher(0.1)).0,
            Verdict::WithinBound
        );
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let up: Vec<f64> = STEADY.iter().map(|x| x * 1.2).collect();
        let (v, by) = judge(&STEADY, &up, &lower(0.1));
        assert_eq!(v, Verdict::Worse);
        assert!((by - 0.2).abs() < 0.01);
        assert_eq!(judge(&STEADY, &up, &higher(0.1)).0, Verdict::Better);
        let down: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&STEADY, &down, &higher(0.1)).0, Verdict::Worse);
        assert_eq!(judge(&STEADY, &down, &lower(0.1)).0, Verdict::Better);
    }

    #[test]
    fn small_worsening_stays_within_bound() {
        let up: Vec<f64> = STEADY.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&STEADY, &up, &lower(0.1)).0, Verdict::WithinBound);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_repetition_wins() {
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(judge(&noisy, &STEADY, &lower(0.1)).0, Verdict::Unresolved);
        let far_better = [10.0, 30.0, 20.0, 5.0, 40.0];
        assert_eq!(judge(&noisy, &far_better, &lower(0.1)).0, Verdict::Better);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let v: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"x","unit":"s","better":"lower","bound":0.2},
                              {"name":"y","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("json");
        let b = bounds(&v).expect("bounds");
        assert_eq!(b.len(), 2);
        assert_eq!((b[0].better, b[1].better), (Better::Lower, Better::Higher));
        assert_eq!(b[1].bound, 0.1);
    }
}
