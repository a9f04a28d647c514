//! Graph algorithms for geometric point graphs.
//!
//! The paper's *communication graph* `G_M(t)` places an edge between
//! two nodes iff their Euclidean distance is at most the common
//! transmitting range `r` (a *point graph*, after Sen & Huson). This
//! crate implements, from scratch, everything the reproduction needs to
//! reason about such graphs:
//!
//! * [`UnionFind`] — disjoint sets with size tracking, the engine
//!   behind component counting and the Kruskal merge process;
//! * [`AdjacencyList`] — point-graph construction (grid-accelerated or
//!   brute force) and degree/isolation queries;
//! * [`components`] — connected components, largest component size;
//! * [`mst`] — the Euclidean MST (dense Prim at small `n`, exact
//!   grid-Kruskal at large `n`) and the **critical
//!   transmitting range** (the bottleneck = longest MST edge), the
//!   single quantity from which all of the paper's `r_f` metrics are
//!   derived, plus [`CriticalRangeTracker`], which certifies it along
//!   a trajectory from the previous step's tree;
//! * [`merge`] — the Kruskal merge profile over the same MST's edges:
//!   largest component size as a step function of the range;
//! * [`dynamic`] — edge deltas between snapshots and [`DynamicGraph`],
//!   the streaming path that feeds the temporal-connectivity subsystem
//!   (`manet-trace`) with per-step changed edges instead of `O(n²)`
//!   rebuilds;
//! * [`dynamic_components`] — [`DynamicComponents`], the incremental
//!   component summary maintained under that delta stream (DSU
//!   insertions, epoch-based partial rebuilds for deletions), the
//!   engine behind every per-step connectivity query in `manet-sim`;
//! * [`bfs`] — hop distances (multi-hop relay depth);
//! * [`kconn`] — vertex connectivity (an extension beyond the paper's
//!   1-connectivity, useful for dependability margins).
//!
//! # Example
//!
//! ```
//! use manet_geom::Point;
//! use manet_graph::{critical_range, AdjacencyList};
//!
//! let pts = vec![
//!     Point::new([0.0, 0.0]),
//!     Point::new([1.0, 0.0]),
//!     Point::new([2.5, 0.0]),
//! ];
//! // Longest MST edge: the 1.5 gap.
//! let ctr = critical_range(&pts);
//! assert!((ctr - 1.5).abs() < 1e-12);
//!
//! let graph = AdjacencyList::from_points_brute_force(&pts, 1.5);
//! assert!(manet_graph::components::is_connected(&graph));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod adjacency;
pub mod bfs;
pub mod components;
pub mod dsu;
pub mod dynamic;
pub mod dynamic_components;
pub mod kconn;
pub mod merge;
pub mod mst;

pub use adjacency::AdjacencyList;
pub use components::ComponentSummary;
pub use dsu::UnionFind;
pub use dynamic::{DynamicGraph, EdgeDiff, Skin};
pub use dynamic_components::{DynamicComponents, FULL_REBUILD_CHURN_FRACTION};
pub use merge::MergeProfile;
pub use mst::{
    critical_range, minimum_spanning_tree, CriticalRangeTracker, MstEdge, TrackerCounts,
};
