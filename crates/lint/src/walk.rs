//! Workspace traversal and per-file rule context.
//!
//! The walker visits every `.rs` file under the scan root in sorted
//! (byte-order) path order — the report must be byte-stable — skipping
//! `vendor/` (third-party stand-ins), build output, VCS metadata and
//! lint fixture trees. Each file is classified once into the
//! [`FileContext`] the rules dispatch on.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
pub const SKIP_DIRS: [&str; 5] = ["vendor", "target", ".git", "fixtures", "node_modules"];

/// Crates whose *purpose* is timing or orchestration rather than
/// deterministic simulation: the bench harness, the `manet-repro` CLI,
/// and this lint itself. `R2`/`R3` do not apply there.
pub const TOOL_CRATES: [&str; 3] = ["bench", "experiments", "lint"];

/// Crates holding the numeric hot kernels `R5` guards.
pub const KERNEL_CRATES: [&str; 3] = ["geom", "graph", "stats"];

/// Library modules exempt from `R2` by design, each with the reason
/// the exemption is sound. This is the narrow, documented doorway for
/// wall-clock code in library crates: the module must be inert by
/// default and its output must never feed a deterministic artifact.
pub const R2_EXEMPT_MODULES: [(&str, &str); 1] = [(
    "crates/obs/src/span.rs",
    "the span-profiling plane of manet-obs: the one library module allowed to read \
     the monotonic clock; disarmed unless a bench/CLI --profile flag arms it, and \
     span reports go to stderr/metrics.json spans, never into deterministic outputs",
)];

/// The library module exempt from `R6` by design: the one sanctioned
/// `std::thread` fan-out site. Everywhere else, library code must stay
/// single-threaded so determinism never depends on a merge order that
/// is not spelled out and tested. Mirrored by `disallowed-methods` in
/// the root `clippy.toml`.
pub const R6_EXEMPT_MODULES: [(&str, &str); 1] = [(
    "crates/graph/src/parallel.rs",
    "run_indexed, the workspace's one fan-out: workers claim owned jobs off one \
     shared cursor and results are sorted back into job-index order after the \
     scope joins, so the step kernel's shards, the engine's iterations and the \
     sweep's cells are byte-identical across thread counts (pinned by unit, \
     property, and CLI byte-identity tests)",
)];

/// Where a file sits in the workspace, from the rules' point of view.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the scan root, forward slashes.
    pub rel: String,
    /// Test/example/bench source (a `tests/`, `examples/` or
    /// `benches/` directory anywhere in the path): no rules apply.
    pub exempt: bool,
    /// File belongs to a timing/orchestration crate (see
    /// [`TOOL_CRATES`]): `R2`/`R3` do not apply.
    pub tool_crate: bool,
    /// Binary-target source (`src/main.rs` or under `src/bin/`):
    /// `R2`/`R3` do not apply.
    pub bin_target: bool,
    /// A library crate root (`src/lib.rs`): `R4` applies.
    pub lib_root: bool,
    /// File belongs to a numeric kernel crate (see [`KERNEL_CRATES`]):
    /// `R5` applies.
    pub kernel_crate: bool,
    /// Library module listed in [`R2_EXEMPT_MODULES`]: `R2` does not
    /// apply (all other rules still do).
    pub r2_exempt: bool,
    /// Library module listed in [`R6_EXEMPT_MODULES`]: `R6` does not
    /// apply (all other rules still do).
    pub r6_exempt: bool,
}

/// Classifies one workspace-relative path.
pub fn classify(rel: &str) -> FileContext {
    let parts: Vec<&str> = rel.split('/').collect();
    let exempt = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "examples" | "benches"));
    // `crates/<name>/src/…` names the crate; a bare `src/…` is the
    // umbrella library at the workspace root.
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 2 {
        parts.get(1).copied().unwrap_or("")
    } else {
        ""
    };
    let src_idx = parts.iter().position(|p| *p == "src");
    let under_src = src_idx.is_some();
    let bin_target = under_src
        && (parts.last() == Some(&"main.rs")
            || src_idx.is_some_and(|i| parts.get(i + 1) == Some(&"bin")));
    let lib_root = under_src
        && src_idx.is_some_and(|i| i + 2 == parts.len())
        && parts.last() == Some(&"lib.rs");
    FileContext {
        rel: rel.to_string(),
        exempt,
        tool_crate: TOOL_CRATES.contains(&crate_name),
        bin_target,
        lib_root,
        kernel_crate: KERNEL_CRATES.contains(&crate_name),
        r2_exempt: R2_EXEMPT_MODULES.iter().any(|(path, _)| *path == rel),
        r6_exempt: R6_EXEMPT_MODULES.iter().any(|(path, _)| *path == rel),
    }
}

/// Collects every `.rs` file under `root` (excluding [`SKIP_DIRS`]) in
/// sorted relative-path order.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_lib_roots_and_modules() {
        let c = classify("crates/graph/src/lib.rs");
        assert!(c.lib_root && c.kernel_crate && !c.tool_crate && !c.exempt);
        let m = classify("crates/graph/src/dynamic.rs");
        assert!(!m.lib_root && m.kernel_crate);
        let u = classify("src/lib.rs");
        assert!(u.lib_root && !u.kernel_crate && !u.tool_crate);
    }

    #[test]
    fn classifies_tool_crates_and_bin_targets() {
        assert!(classify("crates/bench/src/lib.rs").tool_crate);
        assert!(classify("crates/experiments/src/main.rs").tool_crate);
        let b = classify("crates/demo/src/bin/tool.rs");
        assert!(b.bin_target && !b.tool_crate);
        assert!(classify("crates/experiments/src/main.rs").bin_target);
        assert!(!classify("crates/demo/src/binary.rs").bin_target);
    }

    #[test]
    fn classifies_test_and_example_trees_as_exempt() {
        assert!(classify("tests/determinism.rs").exempt);
        assert!(classify("examples/quickstart.rs").exempt);
        assert!(classify("crates/graph/tests/properties.rs").exempt);
        assert!(classify("crates/bench/benches/kernels.rs").exempt);
    }

    #[test]
    fn r2_exemption_is_per_module_not_per_crate() {
        let span = classify("crates/obs/src/span.rs");
        assert!(span.r2_exempt && !span.tool_crate && !span.exempt);
        // The rest of the obs crate stays under the full contract.
        assert!(!classify("crates/obs/src/lib.rs").r2_exempt);
        assert!(!classify("crates/obs/src/metrics.rs").r2_exempt);
    }

    #[test]
    fn r6_exemption_covers_only_the_sanctioned_fanout_sites() {
        let par = classify("crates/graph/src/parallel.rs");
        assert!(par.r6_exempt && !par.tool_crate && !par.exempt);
        // Its callers, and the rest of both crates, stay under R6.
        assert!(!classify("crates/sim/src/engine.rs").r6_exempt);
        assert!(!classify("crates/sim/src/sweep.rs").r6_exempt);
        assert!(!classify("crates/graph/src/dynamic.rs").r6_exempt);
        assert!(!classify("crates/sim/src/stream.rs").r6_exempt);
        assert!(!classify("crates/sim/src/scaling.rs").r6_exempt);
    }
}
