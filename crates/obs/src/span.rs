//! Plane 2: wall-clock span profiling for bench/CLI drivers.
//!
//! This module is the *only* library code in the workspace allowed to
//! read the monotonic clock: rule `R2` of the determinism contract bans
//! wall-clock sources (clippy's `disallowed_methods`), and
//! [`SpanTimer::enter`]'s one clock read carries R2's only
//! `#[expect]` waiver, with its reason. The boundary is kept honest by
//! construction: a [`SpanTimer`] only ever *observes* durations — no
//! simulated value may depend on one — and the drivers that arm it
//! (the experiments CLI under `--profile`, `step_kernel_capture`)
//! route its output to `metrics.json`'s clearly-nondeterministic
//! `spans` block or to stderr, never into a golden-gated artifact.
//!
//! Spans nest: entering `step` while `run` is open records the leaf
//! under the path `run/step`, so a report reads like a call tree
//! flattened to dotted paths with per-path count/min/mean/max/total.

use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregated timings for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpanStats {
    /// Times the span was entered and exited.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Shortest single entry, in nanoseconds.
    pub min_ns: u64,
    /// Longest single entry, in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }

    /// Mean nanoseconds per entry (`0` when never entered).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One row of a [`SpanReport`]: a span path with its statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpanEntry {
    /// Slash-joined nesting path, e.g. `run/step/apply`.
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across entries.
    pub total_ns: u64,
    /// Shortest entry in nanoseconds.
    pub min_ns: u64,
    /// Mean nanoseconds per entry.
    pub mean_ns: u64,
    /// Longest entry in nanoseconds.
    pub max_ns: u64,
}

/// A finished profile: every span path observed, in sorted path order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpanReport {
    /// Rows in ascending path order (BTree iteration order).
    pub spans: Vec<SpanEntry>,
}

impl SpanReport {
    /// Renders the report as an aligned text table for stderr display.
    /// Returns an empty string when no spans were recorded.
    pub fn render_table(&self) -> String {
        if self.spans.is_empty() {
            return String::new();
        }
        let mut width = "span".len();
        for e in &self.spans {
            width = width.max(e.path.len());
        }
        let mut out = format!(
            "{:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>14}\n",
            "span", "count", "min_ns", "mean_ns", "max_ns", "total_ns"
        );
        for e in &self.spans {
            out.push_str(&format!(
                "{:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>14}\n",
                e.path, e.count, e.min_ns, e.mean_ns, e.max_ns, e.total_ns
            ));
        }
        out
    }
}

/// A hierarchical wall-clock profiler.
///
/// Construct disarmed ([`SpanTimer::disarmed`]) to make every call a
/// no-op — drivers thread one timer unconditionally and only arm it
/// under `--profile`. Spans are entered/exited in LIFO order; the
/// scoped [`SpanTimer::time`] wrapper keeps that pairing safe.
///
/// # Example
///
/// ```
/// let mut t = manet_obs::SpanTimer::armed();
/// let x = t.time("outer", |t| t.time("inner", |_| 2 + 2));
/// assert_eq!(x, 4);
/// let report = t.report();
/// let paths: Vec<&str> = report.spans.iter().map(|e| e.path.as_str()).collect();
/// assert_eq!(paths, ["outer", "outer/inner"]);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    armed: bool,
    /// Open spans: (full path, entry instant).
    stack: Vec<(String, Instant)>,
    stats: BTreeMap<String, SpanStats>,
}

impl SpanTimer {
    /// A timer that records every span.
    pub fn armed() -> SpanTimer {
        SpanTimer {
            armed: true,
            stack: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    /// A timer whose every operation is a no-op (reports stay empty).
    pub fn disarmed() -> SpanTimer {
        SpanTimer {
            armed: false,
            stack: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    /// Whether this timer records spans.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Opens a span named `name`, nested under the currently open span
    /// (if any). Pair with [`SpanTimer::exit`], or prefer
    /// [`SpanTimer::time`].
    #[expect(
        clippy::disallowed_methods,
        reason = "the span-profiling plane of manet-obs: the one library module allowed to read \
                  the monotonic clock; disarmed unless a bench/CLI --profile flag arms it, and \
                  span reports go to stderr/metrics.json spans, never into deterministic outputs"
    )]
    pub fn enter(&mut self, name: &str) {
        if !self.armed {
            return;
        }
        let path = match self.stack.last() {
            Some((parent, _)) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        self.stack.push((path, Instant::now()));
    }

    /// Closes the innermost open span and records its duration. A
    /// no-op when disarmed or when no span is open.
    pub fn exit(&mut self) {
        if let Some((path, start)) = self.stack.pop() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.stats.entry(path).or_default().record(ns);
        }
    }

    /// Runs `f` inside a span named `name`, passing the timer back in
    /// so `f` can open child spans.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanTimer) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Snapshots the recorded statistics (open spans are not included
    /// until exited).
    pub fn report(&self) -> SpanReport {
        SpanReport {
            spans: self
                .stats
                .iter()
                .map(|(path, s)| SpanEntry {
                    path: path.clone(),
                    count: s.count,
                    total_ns: s.total_ns,
                    min_ns: s.min_ns,
                    mean_ns: s.mean_ns(),
                    max_ns: s.max_ns,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_timer_records_nothing() {
        let mut t = SpanTimer::disarmed();
        assert!(!t.is_armed());
        t.enter("a");
        t.exit();
        let r = t.time("b", |t| {
            t.enter("c");
            t.exit();
            5
        });
        assert_eq!(r, 5);
        assert!(t.report().spans.is_empty());
        assert_eq!(t.report().render_table(), "");
    }

    #[test]
    fn nesting_builds_slash_paths_and_counts() {
        let mut t = SpanTimer::armed();
        for _ in 0..3 {
            t.time("run", |t| {
                t.time("step", |_| ());
                t.time("step", |_| ());
            });
        }
        let report = t.report();
        let paths: Vec<(&str, u64)> = report
            .spans
            .iter()
            .map(|e| (e.path.as_str(), e.count))
            .collect();
        assert_eq!(paths, [("run", 3), ("run/step", 6)]);
        for e in &report.spans {
            assert!(e.min_ns <= e.mean_ns && e.mean_ns <= e.max_ns);
            assert!(e.total_ns >= e.max_ns);
        }
        let table = report.render_table();
        assert!(table.contains("run/step") && table.contains("mean_ns"));
    }

    #[test]
    fn unbalanced_exit_is_a_no_op() {
        let mut t = SpanTimer::armed();
        t.exit(); // nothing open
        assert!(t.report().spans.is_empty());
        t.enter("open-but-never-exited");
        assert!(t.report().spans.is_empty());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn report_serializes() {
        let mut t = SpanTimer::armed();
        t.time("x", |_| ());
        let json = serde_json::to_string(&t.report()).unwrap();
        assert!(json.contains("\"path\":\"x\""));
        let back: SpanReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spans.len(), 1);
    }
}
