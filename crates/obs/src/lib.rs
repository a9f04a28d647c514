//! Two-plane telemetry for the simulation spine.
//!
//! The kernels of this workspace (the moving grid, the zero-rebuild
//! step kernel, the dynamic component tracker) make per-step *path
//! decisions* — moved-rescan vs bulk rescan vs oracle fallback, DSU
//! union vs full relabel — that determine
//! their cost but were invisible to every artifact the repo emitted.
//! This crate provides the observability substrate in two strictly
//! separated planes:
//!
//! * **Plane 1 — deterministic counters** ([`metrics`]): plain-integer
//!   event counts ([`GridMetrics`], [`StepKernelMetrics`],
//!   [`ComponentMetrics`], rolled up into [`KernelMetrics`]) that are a
//!   pure function of the simulated trajectory. Summed across
//!   iterations they are independent of thread count and wall-clock by
//!   construction, so they slot straight into the byte-identity CI
//!   gates alongside the trace goldens.
//! * **Plane 2 — wall-clock span profiling** ([`span`]): a hierarchical
//!   [`SpanTimer`] for bench/CLI drivers. Timing is inherently
//!   nondeterministic, so this plane is confined by the determinism
//!   contract's `R2` rule to tool code; the [`span`] module itself
//!   carries the one documented R2 waiver.
//!
//! [`manifest::RunManifest`] records run provenance (command, seed,
//! models, sizes, thread count, compiled features) so any `metrics.json`
//! artifact can be traced back to the exact invocation that produced it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod manifest;
pub mod metrics;
pub mod span;

pub use manifest::RunManifest;
pub use metrics::{ComponentMetrics, GridMetrics, KernelMetrics, StepKernelMetrics};
pub use span::{SpanEntry, SpanReport, SpanStats, SpanTimer};
