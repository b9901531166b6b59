//! In-memory spans for the traced run.
//!
//! The benchmark measures the program from outside, so a span brackets
//! one call into a crate's public function. Layers nest inside each
//! other (`EngineCore::handle_datagrams` calls `Relay::observe_view`,
//! which was handed a `PacketView::parse` result), but the inner calls
//! cannot be bracketed from here. The traced run therefore replays the
//! same input through cumulative passes — wire only, wire + core, the
//! whole engine — and records, for every burst of datagrams, one span
//! per pass sharing the burst's id, the inner pass's span a child of
//! the next-outer one. Child spans are rebased to start when their
//! parent starts, so a layer's self time is the ordinary "duration
//! minus the part children cover" of [`self_times`].
//!
//! Spans stay in memory until the run ends and are then written to
//! `benchmark/out/trace-<workload>.json`.

use std::time::Instant;

/// One bracketed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `engine.handle_datagrams`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index (into the tracer's span list) of the span that caused this
    /// one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one request — here one burst
    /// of the replayed input.
    pub id: u64,
}

impl Span {
    /// Length of the span.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Bracket `f` with a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        (value, self.push(name, start, end, parent, id))
    }

    /// Make span `child` a child of `parent`, moved (keeping its
    /// duration) so it starts when the parent starts. This is how a
    /// span measured in an inner pass is placed under the span the
    /// next-outer pass measured for the same burst.
    pub fn adopt(&mut self, parent: usize, child: usize) {
        let start = self.spans[parent].start_ns;
        let duration = self.spans[child].duration_ns();
        let span = &mut self.spans[child];
        span.parent = Some(parent);
        span.start_ns = start;
        span.end_ns = start + duration;
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent,
/// overlapping children counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, in first-seen order.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => rows.push((span.name, own, 1)),
        }
    }
    rows
}

/// The trace file: one array row per span, plus the column names.
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + spans.len() * 48);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\
         \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"id\"],\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "[\"{}\",{},{},{parent},{}]",
            s.name, s.start_ns, s.end_ns, s.id
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = [
            span(100, 200, None),
            span(90, 150, Some(0)),  // hangs out the front: 100..150
            span(140, 180, Some(0)), // overlaps the first: adds 150..180
            span(190, 260, Some(0)), // hangs out the back: 190..200
            span(300, 400, Some(0)), // entirely outside: nothing
        ];
        assert_eq!(self_times(&spans)[0], 100 - (50 + 30 + 10));
    }

    #[test]
    fn child_longer_than_parent_saturates_at_zero() {
        let spans = [span(0, 10, None), span(0, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 50]);
    }

    #[test]
    fn adopt_rebases_a_span_from_another_pass() {
        let mut t = Tracer::new();
        let inner = t.push("wire.parse", 1_000, 1_300, None, 7);
        let outer = t.push("core.observe", 5_000, 5_900, None, 7);
        t.adopt(outer, inner);
        let s = &t.spans()[inner];
        assert_eq!(
            (s.start_ns, s.end_ns, s.parent),
            (5_000, 5_300, Some(outer))
        );
        let own = self_times(t.spans());
        assert_eq!(own[outer], 600);
        assert_eq!(own[inner], 300);
        let by_name = self_time_by_name(t.spans());
        assert_eq!(
            by_name,
            vec![("wire.parse", 300, 1), ("core.observe", 600, 1)]
        );
    }

    #[test]
    fn trace_file_parses_back() {
        let mut t = Tracer::new();
        let (_, root) = t.span("pass", None, 0, || ());
        t.push("engine.handle_datagrams", 5, 9, Some(root), 3);
        let text = to_json("relay_base_min", 11, t.spans());
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let rows = v
            .get("spans")
            .and_then(serde::Value::as_array)
            .expect("spans");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].as_array().expect("row")[3].as_u64(),
            Some(root as u64)
        );
        assert_eq!(v.get("seed").and_then(serde::Value::as_u64), Some(11));
    }
}
