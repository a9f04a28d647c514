//! Plane 1: deterministic kernel counters.
//!
//! Every field in these structs is a plain event count incremented by
//! kernel code on the path that did the work. No clocks, no hashing,
//! no floats: the values are a pure function of the simulated
//! trajectory, so two runs with the same seed produce bit-identical
//! metrics regardless of thread count, and `u64` sums over iterations
//! commute — per-iteration metrics merged in any order give the same
//! totals. That property is what lets `metrics.json` sit behind the
//! same byte-identity CI gates as the trace goldens.
//!
//! The structs are deliberately flat and field-ordered: the vendored
//! `serde` derive emits fields in declaration order, so the JSON/CSV
//! encodings are byte-stable as long as the declarations are.

/// Counters for the [`MovingCellGrid`] incremental spatial index.
///
/// [`MovingCellGrid`]: https://example.invalid/manet
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GridMetrics {
    /// Committed relocation passes (one per `relocate`/`update` call).
    pub relocations: u64,
    /// Nodes examined by relocation passes (the moved sets' total size).
    pub nodes_moved: u64,
    /// Moved nodes that actually crossed a cell boundary.
    pub boundary_crossings: u64,
    /// Cell buckets mutated: two per boundary crossing (source and
    /// destination), plus every occupied bucket cleared by a reset.
    pub cells_touched: u64,
    /// Bulk re-bucketing passes (`reset` calls).
    pub resets: u64,
}

impl GridMetrics {
    /// Adds `other`'s counts into `self` (commutative, associative).
    pub fn merge(&mut self, other: &GridMetrics) {
        self.relocations += other.relocations;
        self.nodes_moved += other.nodes_moved;
        self.boundary_crossings += other.boundary_crossings;
        self.cells_touched += other.cells_touched;
        self.resets += other.resets;
    }
}

/// Counters for the zero-rebuild step kernel (`DynamicGraph::step`).
///
/// `incremental_steps + bulk_rescan_steps + cache_verify_steps +
/// fallback_steps == steps` always holds: every step commits through
/// exactly one path. Verlet-cache rebuild steps are a subset of the
/// bulk bucket (`cache_rebuilds <= bulk_rescan_steps`): a rebuild *is*
/// a bulk rescan, just at the inflated `r + skin` radius.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StepKernelMetrics {
    /// Steps committed (excluding the initial build).
    pub steps: u64,
    /// Steps served by the moved-node incremental rescan.
    pub incremental_steps: u64,
    /// Steps that fell back to a full bulk rescan (moved fraction at or
    /// above the bulk threshold).
    pub bulk_rescan_steps: u64,
    /// Steps that violated the declared displacement bound and rebuilt
    /// against the oracle.
    pub fallback_steps: u64,
    /// Total size of the moved sets across all steps.
    pub moved_nodes: u64,
    /// Candidate pairs examined by incremental (moved-node) rescans.
    pub moved_rescan_candidates: u64,
    /// Candidate pairs examined by bulk rescans.
    pub bulk_rescan_candidates: u64,
    /// Directed edge insertions applied across all step diffs.
    pub edges_added: u64,
    /// Directed edge removals applied across all step diffs.
    pub edges_removed: u64,
    /// Steps served by streaming the Verlet candidate arena (no cell
    /// neighborhood rescans).
    pub cache_verify_steps: u64,
    /// Verlet candidate-arena (re)builds; each such step is also
    /// counted in `bulk_rescan_steps`.
    pub cache_rebuilds: u64,
    /// Candidate pairs stored by cache (re)builds (arena sizes).
    pub cached_pairs: u64,
    /// Candidate pairs streamed by cache-verify steps.
    pub verify_candidates: u64,
}

impl StepKernelMetrics {
    /// Adds `other`'s counts into `self` (commutative, associative).
    pub fn merge(&mut self, other: &StepKernelMetrics) {
        self.steps += other.steps;
        self.incremental_steps += other.incremental_steps;
        self.bulk_rescan_steps += other.bulk_rescan_steps;
        self.fallback_steps += other.fallback_steps;
        self.moved_nodes += other.moved_nodes;
        self.moved_rescan_candidates += other.moved_rescan_candidates;
        self.bulk_rescan_candidates += other.bulk_rescan_candidates;
        self.edges_added += other.edges_added;
        self.edges_removed += other.edges_removed;
        self.cache_verify_steps += other.cache_verify_steps;
        self.cache_rebuilds += other.cache_rebuilds;
        self.cached_pairs += other.cached_pairs;
        self.verify_candidates += other.verify_candidates;
    }

    /// Fraction of steps served by the incremental path (`0.0` when no
    /// steps were taken).
    pub fn incremental_fraction(&self) -> f64 {
        fraction(self.incremental_steps, self.steps)
    }

    /// Fraction of steps that took the bulk-rescan path.
    pub fn bulk_fraction(&self) -> f64 {
        fraction(self.bulk_rescan_steps, self.steps)
    }

    /// Fraction of steps that fell back to the rebuild oracle.
    pub fn fallback_fraction(&self) -> f64 {
        fraction(self.fallback_steps, self.steps)
    }

    /// Fraction of steps served by streaming the Verlet candidate
    /// arena.
    pub fn cache_verify_fraction(&self) -> f64 {
        fraction(self.cache_verify_steps, self.steps)
    }
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Counters for the dynamic component tracker
/// (`DynamicComponents::apply`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ComponentMetrics {
    /// Diff applications (one per simulation step).
    pub applies: u64,
    /// DSU unions that actually merged two distinct components.
    pub dsu_merges: u64,
    /// Always 0: removal steps relabel the whole snapshot. Kept so the
    /// serialized counter block keeps its shape.
    pub partial_rebuilds: u64,
    /// Full relabels: one per step that removed an edge.
    pub full_rebuilds: u64,
    /// Always 0, like `partial_rebuilds`.
    pub partial_nodes_relabeled: u64,
    /// Nodes relabeled by full rebuilds (`n` per relabel).
    pub full_nodes_relabeled: u64,
}

impl ComponentMetrics {
    /// Adds `other`'s counts into `self` (commutative, associative).
    pub fn merge(&mut self, other: &ComponentMetrics) {
        self.applies += other.applies;
        self.dsu_merges += other.dsu_merges;
        self.partial_rebuilds += other.partial_rebuilds;
        self.full_rebuilds += other.full_rebuilds;
        self.partial_nodes_relabeled += other.partial_nodes_relabeled;
        self.full_nodes_relabeled += other.full_nodes_relabeled;
    }
}

/// Per-step roll-up of all three kernel layers, as exposed on the
/// connectivity stream's step view and folded into trace artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct KernelMetrics {
    /// Moving-grid counters.
    pub grid: GridMetrics,
    /// Step-kernel counters.
    pub step: StepKernelMetrics,
    /// Component-tracker counters.
    pub components: ComponentMetrics,
}

impl KernelMetrics {
    /// Adds `other`'s counts into `self` (commutative, associative).
    pub fn merge(&mut self, other: &KernelMetrics) {
        self.grid.merge(&other.grid);
        self.step.merge(&other.step);
        self.components.merge(&other.components);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> KernelMetrics {
        KernelMetrics {
            grid: GridMetrics {
                relocations: k,
                nodes_moved: 2 * k,
                boundary_crossings: 3 * k,
                cells_touched: 6 * k,
                resets: k,
            },
            step: StepKernelMetrics {
                steps: 10 * k,
                incremental_steps: 6 * k,
                bulk_rescan_steps: 2 * k,
                fallback_steps: k,
                moved_nodes: 20 * k,
                moved_rescan_candidates: 100 * k,
                bulk_rescan_candidates: 50 * k,
                edges_added: 5 * k,
                edges_removed: 4 * k,
                cache_verify_steps: k,
                cache_rebuilds: k,
                cached_pairs: 40 * k,
                verify_candidates: 35 * k,
            },
            components: ComponentMetrics {
                applies: 10 * k,
                dsu_merges: 3 * k,
                partial_rebuilds: 2 * k,
                full_rebuilds: k,
                partial_nodes_relabeled: 8 * k,
                full_nodes_relabeled: 30 * k,
            },
        }
    }

    #[test]
    fn merge_is_commutative_and_sums_fields() {
        let (a, b) = (sample(3), sample(5));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, sample(8));
        assert_eq!(ab.step.steps, 80);
        assert_eq!(ab.grid.cells_touched, 48);
    }

    #[test]
    fn default_is_all_zero_and_merge_identity() {
        let mut m = KernelMetrics::default();
        m.merge(&KernelMetrics::default());
        assert_eq!(m, KernelMetrics::default());
        assert_eq!(m.step.steps, 0);
        let mut n = sample(2);
        n.merge(&KernelMetrics::default());
        assert_eq!(n, sample(2));
    }

    #[test]
    fn fractions_partition_the_step_count() {
        let s = sample(4).step;
        let total = s.incremental_fraction()
            + s.bulk_fraction()
            + s.cache_verify_fraction()
            + s.fallback_fraction();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(s.cache_rebuilds <= s.bulk_rescan_steps);
        assert_eq!(StepKernelMetrics::default().fallback_fraction(), 0.0);
        assert_eq!(StepKernelMetrics::default().cache_verify_fraction(), 0.0);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn json_round_trips_and_is_field_ordered() {
        let m = sample(7);
        let json = serde_json::to_string(&m).unwrap();
        let back: KernelMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        // Declaration order is the byte-stability contract.
        let grid_pos = json.find("\"grid\"").unwrap();
        let step_pos = json.find("\"step\"").unwrap();
        let comp_pos = json.find("\"components\"").unwrap();
        assert!(grid_pos < step_pos && step_pos < comp_pos);
    }
}
