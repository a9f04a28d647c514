//! Per-invocation observability session: run manifest, labeled kernel
//! counters, span profiling and progress lines for `manet-repro`.
//!
//! One [`ObsSession`] is created in `main` and threaded through every
//! subcommand. The deterministic plane (manifest + counters) feeds the
//! `--metrics PATH` artifact, whose bytes are a pure function of the
//! configuration (thread count appears only as the manifest's declared
//! field). The wall-clock plane (`--profile` spans, timed by
//! `SpanTimer`, whose clock read is rule R2's one waiver) and the
//! `--progress` lines go exclusively to stderr, never into stdout
//! tables or artifacts.

use crate::common::RunOptions;
use manet_core::graph::FloorCounts;
use manet_core::obs::{KernelMetrics, RunManifest, SpanEntry, SpanTimer};
use manet_core::CoreError;
use serde::ser::SerializeStruct;
use std::path::PathBuf;

/// One labeled counter snapshot, e.g. a `(model, range)` sweep cell.
#[derive(serde::Serialize)]
struct CounterEntry {
    label: String,
    kernel: KernelMetrics,
}

/// One labeled critical-range finder snapshot: a `critical-scaling`
/// cell's `FloorProfile` counters.
#[derive(serde::Serialize)]
struct FinderEntry {
    label: String,
    finder: FloorCounts,
}

/// The `metrics.json` schema: provenance, then the deterministic
/// counters (the kernel counters, then the finder counters when a
/// command recorded any), then the (non-deterministic, possibly empty)
/// span plane.
struct MetricsArtifact {
    manifest: RunManifest,
    counters: Vec<CounterEntry>,
    finder: Vec<FinderEntry>,
    spans: Vec<SpanEntry>,
}

impl serde::Serialize for MetricsArtifact {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Commands without a finder keep the artifact's old bytes.
        let finder = !self.finder.is_empty();
        let mut out = serializer.serialize_struct("MetricsArtifact", 3 + usize::from(finder))?;
        out.serialize_field("manifest", &self.manifest)?;
        out.serialize_field("counters", &self.counters)?;
        if finder {
            out.serialize_field("finder", &self.finder)?;
        }
        out.serialize_field("spans", &self.spans)?;
        out.end()
    }
}

/// Observability state for one `manet-repro` invocation.
pub struct ObsSession {
    manifest: RunManifest,
    counters: Vec<CounterEntry>,
    finder: Vec<FinderEntry>,
    timer: SpanTimer,
    metrics_path: Option<PathBuf>,
    progress: bool,
}

impl ObsSession {
    /// Creates the session for `command`, seeding the manifest from the
    /// parsed options and the facade's compiled feature list.
    pub fn new(command: &str, opts: &RunOptions) -> Self {
        let mut manifest = RunManifest::new(command);
        manifest.seed = opts.seed;
        manifest.iterations = opts.iterations;
        manifest.steps = opts.steps;
        manifest.threads = opts.threads.unwrap_or(0); // 0 = auto
        manifest.features = manet_core::compiled_features()
            .into_iter()
            .map(String::from)
            .collect();
        ObsSession {
            manifest,
            counters: Vec::new(),
            finder: Vec::new(),
            timer: if opts.profile {
                SpanTimer::armed()
            } else {
                SpanTimer::disarmed()
            },
            metrics_path: opts.metrics.clone(),
            progress: opts.progress,
        }
    }

    /// Records a mobility model name in the manifest (deduplicated,
    /// insertion-ordered).
    pub fn note_model(&mut self, name: &str) {
        if !self.manifest.models.iter().any(|m| m == name) {
            self.manifest.models.push(name.to_string());
        }
    }

    /// Records a node count in the manifest (deduplicated).
    pub fn note_nodes(&mut self, n: usize) {
        if !self.manifest.nodes.contains(&n) {
            self.manifest.nodes.push(n);
        }
    }

    /// Records a transmitting range in the manifest (deduplicated by
    /// bit pattern; ranges are derived, not free parameters).
    pub fn note_range(&mut self, r: f64) {
        if !self
            .manifest
            .ranges
            .iter()
            .any(|x| x.to_bits() == r.to_bits())
        {
            self.manifest.ranges.push(r);
        }
    }

    /// Appends a labeled deterministic counter snapshot.
    pub fn record_counters(&mut self, label: &str, kernel: &KernelMetrics) {
        self.counters.push(CounterEntry {
            label: label.to_string(),
            kernel: *kernel,
        });
    }

    /// Appends a labeled critical-range finder counter snapshot.
    pub fn record_finder(&mut self, label: &str, finder: &FloorCounts) {
        self.finder.push(FinderEntry {
            label: label.to_string(),
            finder: *finder,
        });
    }

    /// Opens a named wall-clock span (no-op unless `--profile`).
    pub fn span_enter(&mut self, name: &str) {
        self.timer.enter(name);
    }

    /// Closes the innermost open span (no-op unless `--profile`).
    pub fn span_exit(&mut self) {
        self.timer.exit();
    }

    /// Prints one coarse progress line to stderr (no-op unless
    /// `--progress`). Never touches stdout or artifacts.
    pub fn progress(&self, msg: &str) {
        if self.progress {
            eprintln!("progress: {msg}");
        }
    }

    /// Finishes the session: prints the span table to stderr under
    /// `--profile` and writes the `metrics.json` artifact under
    /// `--metrics PATH`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the artifact cannot be
    /// serialized or written.
    pub fn finish(self) -> Result<(), CoreError> {
        let report = self.timer.report();
        if !report.spans.is_empty() {
            eprint!("{}", report.render_table());
        }
        let Some(path) = self.metrics_path else {
            return Ok(());
        };
        let artifact = MetricsArtifact {
            manifest: self.manifest,
            counters: self.counters,
            finder: self.finder,
            spans: report.spans,
        };
        let json = serde_json::to_string(&artifact).map_err(|e| CoreError::Invalid {
            reason: format!("cannot serialize metrics artifact: {e}"),
        })?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| CoreError::Invalid {
                    reason: format!("cannot create metrics directory: {e}"),
                })?;
            }
        }
        std::fs::write(&path, json).map_err(|e| CoreError::Invalid {
            reason: format!("cannot write metrics artifact: {e}"),
        })?;
        eprintln!("wrote metrics to {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOptions {
        RunOptions::default()
    }

    #[test]
    fn manifest_seeds_from_options() {
        let mut o = opts();
        o.seed = 99;
        o.iterations = 7;
        o.steps = 11;
        o.threads = Some(4);
        let s = ObsSession::new("trace", &o);
        assert_eq!(s.manifest.command, "trace");
        assert_eq!(s.manifest.seed, 99);
        assert_eq!(s.manifest.iterations, 7);
        assert_eq!(s.manifest.steps, 11);
        assert_eq!(s.manifest.threads, 4);
        assert!(s.manifest.models.is_empty());
    }

    #[test]
    fn notes_deduplicate() {
        let mut s = ObsSession::new("trace", &opts());
        s.note_model("waypoint");
        s.note_model("drunkard");
        s.note_model("waypoint");
        assert_eq!(s.manifest.models, ["waypoint", "drunkard"]);
        s.note_nodes(32);
        s.note_nodes(32);
        assert_eq!(s.manifest.nodes, [32]);
        s.note_range(1.5);
        s.note_range(1.5);
        s.note_range(2.0);
        assert_eq!(s.manifest.ranges, [1.5, 2.0]);
    }

    #[test]
    fn metrics_artifact_is_written_and_deterministic() {
        let dir = std::env::temp_dir().join("manet_obs_session_test");
        let path = dir.join("metrics.json");
        let mut o = opts();
        o.metrics = Some(path.clone());
        let write_once = || -> String {
            let mut s = ObsSession::new("trace", &o);
            s.note_model("waypoint");
            s.note_nodes(32);
            s.note_range(40.0);
            s.record_counters("waypoint@x1", &KernelMetrics::default());
            s.finish().unwrap();
            std::fs::read_to_string(&path).unwrap()
        };
        let a = write_once();
        let b = write_once();
        assert_eq!(a, b, "identical sessions must serialize identically");
        // Schema: the three top-level planes in declaration order.
        assert!(a.starts_with("{\"manifest\":{\"command\":\"trace\""));
        assert!(a.contains("\"counters\":[{\"label\":\"waypoint@x1\""));
        assert!(a.contains("\"spans\":[]"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disarmed_session_has_no_spans() {
        let mut s = ObsSession::new("figs", &opts());
        s.span_enter("outer");
        s.span_exit();
        assert!(s.timer.report().spans.is_empty());
    }
}
