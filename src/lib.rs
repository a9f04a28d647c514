//! # manet — connectivity evaluation for mobile wireless ad hoc networks
//!
//! Umbrella crate of the MANET connectivity workspace, a reproduction
//! of Santi & Blough, *"An Evaluation of Connectivity in Mobile
//! Wireless Ad Hoc Networks"* (DSN 2002). It re-exports the full
//! public API of [`manet_core`]; see that crate's documentation for
//! the guided tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-versus-measured record.
//!
//! ```
//! use manet::{theorems, MtrProblem};
//!
//! // Exact stationary MTR for a known 1-D placement:
//! let r = manet::one_dim::critical_range_1d(&[0.0, 3.0, 4.0])?;
//! assert_eq!(r, 3.0);
//!
//! // Theorem 5's threshold range for 64 nodes on a 4096-length line:
//! let r_star = theorems::threshold_range(64, 4096.0)?;
//! assert!(r_star > 0.0);
//!
//! // Worst-case (adversarial) placement needs the full diameter:
//! let problem = MtrProblem::<2>::new(64, 4096.0)?;
//! assert!(problem.worst_case_range() > r_star);
//! # Ok::<(), manet::CoreError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use manet_core::*;
