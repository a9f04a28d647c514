//! Run provenance: what invocation produced an artifact.
//!
//! A `metrics.json` (or any derived artifact) is only as trustworthy
//! as the record of how it was made. [`RunManifest`] captures the
//! knobs that determine a run's output — subcommand, seed, model
//! list, sweep sizes, thread count and compiled cargo features — in a
//! flat, declaration-ordered struct so the serialized form is
//! byte-stable. Every field is either copied from parsed CLI options
//! or from `cfg!` feature probes; nothing here reads clocks or the
//! environment, so the manifest itself stays inside the deterministic
//! plane (thread count is recorded, and the CI identity gate
//! normalizes that one field before diffing across thread counts).

/// Provenance block written at the head of every `metrics.json`.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunManifest {
    /// Subcommand that produced the artifact (e.g. `trace`, `fig3`).
    pub command: String,
    /// Base RNG seed for the run.
    pub seed: u64,
    /// Mobility models in sweep order.
    pub models: Vec<String>,
    /// Node counts in sweep order.
    pub nodes: Vec<usize>,
    /// Monte-Carlo iterations per sweep point.
    pub iterations: usize,
    /// Mobility steps per iteration.
    pub steps: usize,
    /// Transmission ranges swept, when the subcommand sweeps ranges
    /// directly (empty when ranges are derived per sweep point).
    pub ranges: Vec<f64>,
    /// Worker thread count the run was invoked with.
    pub threads: usize,
    /// Cargo features compiled into the binary, sorted.
    pub features: Vec<String>,
}

impl RunManifest {
    /// Starts a manifest for `command` with everything else defaulted.
    pub fn new(command: &str) -> RunManifest {
        RunManifest {
            command: command.to_string(),
            ..RunManifest::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "serde")]
    #[test]
    fn serializes_in_declaration_order() {
        let mut m = RunManifest::new("trace");
        m.seed = 7;
        m.models = vec!["waypoint".into()];
        m.threads = 4;
        m.features = vec!["serde".into()];
        let json = serde_json::to_string(&m).unwrap();
        let keys = [
            "\"command\"",
            "\"seed\"",
            "\"models\"",
            "\"nodes\"",
            "\"iterations\"",
            "\"steps\"",
            "\"ranges\"",
            "\"threads\"",
            "\"features\"",
        ];
        let positions: Vec<usize> = keys.iter().map(|k| json.find(k).unwrap()).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn new_sets_only_the_command() {
        let m = RunManifest::new("uptime");
        assert_eq!(m.command, "uptime");
        assert_eq!(m.seed, 0);
        assert!(m.models.is_empty() && m.features.is_empty());
    }
}
