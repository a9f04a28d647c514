//! The `manet-lint` binary: lints the workspace tree and exits
//! nonzero on any unwaived finding. See the library docs
//! (`manet_lint`) for the rule set and waiver syntax.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
manet-lint — static determinism & invariant analysis for the MANET workspace

USAGE:
    manet-lint [OPTIONS]

OPTIONS:
    --root <PATH>   Tree to lint (default: the workspace root containing
                    this crate, or the current directory as a fallback)
    --json          Emit the machine-readable JSON report instead of text
    --check         Explicitly gate: exit 1 on unwaived findings (this is
                    also the default behavior; the flag documents intent
                    in CI invocations)
    --list-rules    Print the rule table and exit
    -h, --help      Print this help
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--json" => json = true,
            "--check" => {} // gating on findings is the default
            "--list-rules" => {
                for rule in manet_lint::rules::RULE_IDS {
                    println!("{rule}  {}", manet_lint::rules::rule_description(rule));
                }
                println!();
                println!("R2-exempt library modules (documented exceptions):");
                for (path, reason) in manet_lint::walk::R2_EXEMPT_MODULES {
                    println!("  {path}\n    {reason}");
                }
                println!();
                println!("R6-exempt library module (the sanctioned fan-out site):");
                for (path, reason) in manet_lint::walk::R6_EXEMPT_MODULES {
                    println!("  {path}\n    {reason}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(default_root);
    match manet_lint::run_lint(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.to_human(&root.display().to_string()));
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("manet-lint: {}: {err}", root.display());
            ExitCode::from(2)
        }
    }
}

/// The workspace root two levels above this crate when running via
/// `cargo run -p manet-lint`, else the current directory.
fn default_root() -> PathBuf {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled.join("Cargo.toml").is_file() {
        compiled
    } else {
        PathBuf::from(".")
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("manet-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
