//! The determinism contract's static rules (R1–R6, see DESIGN.md,
//! "Determinism contract & static analysis") are rustc and clippy
//! lints. These tests prove the lints still fire and still reach every
//! crate they are meant to reach:
//!
//! - `fixture_findings_are_exactly_one_per_rule` runs clippy on the
//!   deliberately violating package in `tests/lint_fixture/` and pins
//!   the exact set of (lint, line) findings;
//! - the inheritance guards check that every workspace member inherits
//!   `[workspace.lints]`, that every non-tool library root denies the
//!   R3 panicking-call lints, and that the fixture's `[lints]` table is
//!   the workspace's.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Deserialize;

/// Crates whose purpose is timing or orchestration: R3 does not apply.
const TOOL_CRATES: [&str; 2] = ["crates/bench", "crates/experiments"];

/// The R3 deny every non-tool library root carries.
const R3_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";

/// Every finding the fixture must produce: the lint, and a snippet
/// that occurs on exactly one fixture line.
const EXPECTED: [(&str, &str); 11] = [
    ("clippy::disallowed_types", "std::collections::HashMap"),
    ("clippy::disallowed_methods", "std::time::Instant::now()"),
    ("clippy::disallowed_methods", "std::time::SystemTime::now()"),
    ("clippy::unwrap_used", "let a = o.unwrap();"),
    ("clippy::expect_used", "o.expect(\"some\")"),
    ("clippy::expect_used", "r.expect_err(\"err\")"),
    ("clippy::panic", "panic!(\"zero\")"),
    ("unsafe_code", "unsafe {"),
    ("missing_docs", "pub fn r4_undocumented()"),
    ("clippy::disallowed_methods", "std::thread::spawn"),
    (
        "clippy::allow_attributes_without_reason",
        "#[allow(clippy::unwrap_used)]",
    ),
];

/// Fixture lines that must produce no finding.
const QUIET: [&str; 3] = [
    "#[expect(clippy::unwrap_used",
    "waived.unwrap()",
    "\"1\".parse::<u8>().unwrap()",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The 1-based number of the one line of `source` containing `snippet`.
fn line_of(source: &str, snippet: &str) -> u64 {
    let hits: Vec<usize> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(snippet))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "`{snippet}` must occur on exactly one fixture line"
    );
    hits[0] as u64
}

#[derive(Deserialize)]
struct CargoMessage {
    reason: String,
}

#[derive(Deserialize)]
struct CompilerMessage {
    message: Diagnostic,
}

#[derive(Deserialize)]
struct Diagnostic {
    code: Option<DiagnosticCode>,
    spans: Vec<DiagnosticSpan>,
}

#[derive(Deserialize)]
struct DiagnosticCode {
    code: String,
}

#[derive(Deserialize)]
struct DiagnosticSpan {
    file_name: String,
    line_start: u64,
    is_primary: bool,
}

/// Runs CI's clippy gate (`--all-targets -- -D warnings`) on the
/// fixture and returns every (lint, line) finding in its `src/lib.rs`,
/// from the library and its unit-test build alike.
fn fixture_findings() -> BTreeSet<(String, u64)> {
    let fixture = root().join("tests/lint_fixture");
    let target_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_fixture");
    // A fresh target directory: cargo would otherwise replay cached
    // diagnostics from an earlier clippy configuration.
    let _ = fs::remove_dir_all(&target_dir);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(&fixture)
        .args([
            "clippy",
            "--offline",
            "--all-targets",
            "--message-format=json",
        ])
        .arg("--target-dir")
        .arg(&target_dir)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    assert!(
        !output.status.success(),
        "clippy must reject the fixture; stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("cargo emits UTF-8 JSON");
    let mut findings = BTreeSet::new();
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        let kind: CargoMessage = serde_json::from_str(line).expect("cargo JSON message");
        if kind.reason != "compiler-message" {
            continue;
        }
        let msg: CompilerMessage = serde_json::from_str(line).expect("compiler message");
        let Some(code) = msg.message.code else {
            continue;
        };
        for span in msg.message.spans.iter().filter(|s| s.is_primary) {
            assert_eq!(
                span.file_name, "src/lib.rs",
                "finding outside the fixture source"
            );
            findings.insert((code.code.clone(), span.line_start));
        }
    }
    findings
}

#[test]
fn fixture_findings_are_exactly_one_per_rule() {
    let source = read(&root().join("tests/lint_fixture/src/lib.rs"));
    let expected: BTreeSet<(String, u64)> = EXPECTED
        .iter()
        .map(|(lint, snippet)| (lint.to_string(), line_of(&source, snippet)))
        .collect();
    assert_eq!(
        expected.len(),
        EXPECTED.len(),
        "one finding per fixture line"
    );
    let found = fixture_findings();
    assert_eq!(
        found, expected,
        "clippy findings on tests/lint_fixture/src/lib.rs"
    );
    // The sites the rules must leave alone: a reasoned `#[expect]`
    // (fulfilled, so no `unfulfilled_lint_expectations` either) and an
    // unwrap in a `#[cfg(test)]` module.
    for quiet in QUIET {
        let line = line_of(&source, quiet);
        assert!(
            found.iter().all(|(_, l)| *l != line),
            "a finding on quiet line {line} (`{quiet}`)"
        );
    }
}

/// The non-empty, non-comment lines of the manifest table `[header]`.
fn table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// The root package plus every `[workspace] members` path.
fn workspace_members() -> Vec<String> {
    let manifest = read(&root().join("Cargo.toml"));
    let members: Vec<String> = manifest
        .lines()
        .skip_while(|l| !l.starts_with("members = ["))
        .skip(1)
        .take_while(|l| !l.starts_with(']'))
        .map(|l| l.trim().trim_end_matches(',').trim_matches('"').to_string())
        .collect();
    assert!(!members.is_empty(), "no [workspace] members found");
    std::iter::once(".".to_string()).chain(members).collect()
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    for member in workspace_members() {
        let manifest = read(&root().join(&member).join("Cargo.toml"));
        assert_eq!(
            table(&manifest, "[lints]"),
            ["workspace = true"],
            "{member}/Cargo.toml must inherit [workspace.lints]"
        );
    }
}

#[test]
fn every_non_tool_library_root_denies_panicking_calls() {
    let roots: Vec<String> = workspace_members()
        .into_iter()
        .filter(|m| !m.starts_with("vendor/") && !TOOL_CRATES.contains(&m.as_str()))
        .map(|m| format!("{m}/src/lib.rs"))
        .filter(|lib| root().join(lib).exists())
        .collect();
    assert_eq!(roots.len(), 10, "library roots: {roots:?}");
    for lib in roots {
        let source = read(&root().join(&lib));
        assert!(
            source.lines().any(|l| l == R3_DENY),
            "{lib} must carry `{R3_DENY}`"
        );
    }
}

#[test]
fn fixture_lints_are_the_workspace_lints() {
    let workspace = read(&root().join("Cargo.toml"));
    let fixture = read(&root().join("tests/lint_fixture/Cargo.toml"));
    for (ours, theirs) in [
        ("[workspace.lints.rust]", "[lints.rust]"),
        ("[workspace.lints.clippy]", "[lints.clippy]"),
    ] {
        let expected = table(&workspace, ours);
        assert!(!expected.is_empty(), "root Cargo.toml lacks {ours}");
        assert_eq!(
            table(&fixture, theirs),
            expected,
            "fixture {theirs} drifted"
        );
    }
}
