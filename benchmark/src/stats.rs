//! Order statistics the reports are built from.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because the driver that judges this benchmark
//! computes its spreads with exactly that function; percentiles use the
//! nearest-rank rule so a reported p99 is always a value that occurred.

/// Sorted copy of `values` (NaNs, which no measurement here produces,
/// would sort last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0.0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice;
/// 0.0 for an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// Fewer than two values have no spread: all three are the value (or 0).
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        // Exclusive method: position i*(n+1)/4 on a 1-based scale,
        // clamped so the interpolation stays inside the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound. 0.0 when the median is 0.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, costs).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

/// The value a run reports for a metric: the quartile of its
/// per-repetition samples on the metric's *good* side — the first
/// quartile of a cost, the third of a rate — kept inside the samples'
/// range.
///
/// Not the median, because what disturbs a run on a shared host only
/// ever slows it down, and in bursts: for seconds at a time something
/// else is busy on the sibling hardware thread and code that issues
/// several instructions a cycle runs up to 1.5x slower (a pointer chase
/// or a dependent multiply chain, which wait on latency, do not move at
/// all). How much of a run such bursts cover changes from run to run, so
/// the median lands in the quiet level on one run and in the disturbed
/// level on the next. The good-side quartile stays in the quiet level as
/// long as a quarter of the repetitions were left alone. It is not the
/// best repetition either: an engine instance now and then comes up a
/// fifth faster than the rest, and one such instance must not set the
/// reported value. A change to the program shifts every repetition, so
/// it moves this quartile as it would the median.
#[must_use]
pub fn good_quartile(values: &[f64], better: Better) -> f64 {
    let v = sorted(values);
    let (Some(&min), Some(&max)) = (v.first(), v.last()) else {
        return 0.0;
    };
    let (q1, _, q3) = quartiles(&v);
    match better {
        Better::Lower => q1,
        Better::Higher => q3,
    }
    .clamp(min, max)
}

/// What a report keeps of one metric's per-repetition samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// The reported value: [`good_quartile`] of the samples.
    pub value: f64,
    /// The samples, in the order they were taken.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarise `values` (all zeros when empty).
    #[must_use]
    pub fn of(values: &[f64], better: Better) -> Summary {
        let v = sorted(values);
        let (q1, _, q3) = quartiles(&v);
        Summary {
            n: v.len(),
            min: v.first().copied().unwrap_or(0.0),
            q1,
            median: median(&v),
            q3,
            max: v.last().copied().unwrap_or(0.0),
            value: good_quartile(&v, better),
            samples: values.to_vec(),
        }
    }

    /// JSON rendering used in the per-run detail files.
    #[must_use]
    pub fn to_value(&self) -> serde::Value {
        serde_json::json!({
            "n": (self.n as u64),
            "min": (self.min),
            "q1": (self.q1),
            "median": (self.median),
            "q3": (self.q3),
            "max": (self.max),
            "value": (self.value),
            "samples": (self.samples.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    /// Reference values computed with Python 3's
    /// `statistics.quantiles(values, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[42.0]), (42.0, 42.0, 42.0));
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0], Better::Lower);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.value, s.q1);
    }

    #[test]
    fn good_quartile_takes_the_side_the_metric_improves_on() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(good_quartile(&ten, Better::Lower), 2.75);
        assert_eq!(good_quartile(&ten, Better::Higher), 8.25);
        // A burst that slows six repetitions of ten leaves it where it was;
        // the median moves to the disturbed level.
        let cost = [10.0, 10.1, 15.0, 15.2, 9.9, 15.1, 15.0, 10.2, 15.3, 15.1];
        assert!(good_quartile(&cost, Better::Lower) < 10.2);
        assert!(median(&cost) >= 15.0);
        // One unusually fast repetition does not set it.
        let one_fast = [10.0, 10.1, 7.0, 10.2, 9.9, 10.1, 10.0, 10.2];
        assert!(good_quartile(&one_fast, Better::Lower) > 9.0);
        // Never outside the samples, however few there are.
        assert_eq!(good_quartile(&[10.0, 20.0], Better::Lower), 10.0);
        assert_eq!(good_quartile(&[10.0, 20.0], Better::Higher), 20.0);
        assert_eq!(good_quartile(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(good_quartile(&[42.0], Better::Higher), 42.0);
        assert_eq!(good_quartile(&[], Better::Lower), 0.0);
    }
}
