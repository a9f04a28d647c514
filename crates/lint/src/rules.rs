//! The determinism & safety rule set.
//!
//! Each rule encodes one clause of the repo's determinism contract
//! (see `DESIGN.md`, "Determinism contract & static analysis"):
//!
//! | rule | contract clause |
//! |------|-----------------|
//! | `R1` | no hash-ordered collections (`HashMap`/`HashSet`) whose iteration order could reach outputs — use `BTreeMap`/`BTreeSet` |
//! | `R2` | no wall-clock or entropy sources (`Instant::now`, `SystemTime`, `thread_rng`, `from_entropy`) outside bench/CLI timing code |
//! | `R3` | no `unwrap()`/`expect()`/`panic!` in non-test library code paths (`assert!`-family macros are the sanctioned panic: they state invariants) |
//! | `R4` | every library crate root carries `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` |
//! | `R5` | no float reductions (`.sum::<f64>()`, `.fold`) over hash-backed containers in the geom/graph/stats kernels |
//! | `R6` | no ad-hoc threading (`thread::spawn`, `thread::scope`) in library code — fan-out goes through `run_indexed`, the one sanctioned site in `R6_EXEMPT_MODULES`, whose index-order merge is documented and byte-identity-tested |
//!
//! Rules run against the scanner's *code* view of each line (comments,
//! strings and char literals removed) and respect its `#[cfg(test)]`
//! classification; waivers (`// lint:allow(<rule>): <reason>`) are
//! resolved by the caller in [`crate::run_lint`].

use crate::scan::ScannedLine;
use crate::walk::FileContext;

/// All rule identifiers, in report order.
pub const RULE_IDS: [&str; 6] = ["R1", "R2", "R3", "R4", "R5", "R6"];

/// One finding: a rule violated at a file location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`R1`…`R6`).
    pub rule: String,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Returns a short description for a rule id, for `--list-rules`.
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        "R1" => "hash-ordered collection (HashMap/HashSet); use BTreeMap/BTreeSet",
        "R2" => "wall-clock or entropy source outside bench/CLI timing code",
        "R3" => "unwrap()/expect()/panic! in non-test library code",
        "R4" => "crate root missing #![forbid(unsafe_code)] / #![deny(missing_docs)]",
        "R5" => "unordered float reduction over a hash-backed container",
        "R6" => "ad-hoc threading outside the sanctioned fan-out module",
        _ => "unknown rule",
    }
}

/// Identifier tokens that trigger `R1`.
const R1_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
/// Identifier tokens that trigger `R2`.
const R2_TOKENS: [&str; 4] = ["Instant::now", "SystemTime", "thread_rng", "from_entropy"];
/// Identifier tokens that trigger `R6`.
const R6_TOKENS: [&str; 2] = ["thread::spawn", "thread::scope"];

/// Runs every applicable line rule over one scanned file, appending
/// findings (waivers not yet applied).
pub fn check_file(ctx: &FileContext, lines: &[ScannedLine], findings: &mut Vec<Finding>) {
    if ctx.exempt {
        return;
    }
    // R5's import clause: a hash container named anywhere in the
    // file's non-test code (the import site itself is an R1 finding).
    let file_mentions_hash = ctx.kernel_crate
        && lines
            .iter()
            .filter(|l| !l.in_test)
            .any(|l| R1_TOKENS.iter().any(|t| has_token(&l.code, t)));

    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let mut push = |rule: &str, message: String| {
            findings.push(Finding {
                file: ctx.rel.clone(),
                line: lineno,
                rule: rule.to_string(),
                message,
                snippet: line_snippet(line),
            });
        };

        // R1 — hash-ordered collections.
        for tok in R1_TOKENS {
            if has_token(&line.code, tok) {
                push(
                    "R1",
                    format!(
                        "`{tok}` iterates in hash order; use the BTree equivalent \
                         (or waive with a proof that the order never escapes)"
                    ),
                );
            }
        }

        // R2 — wall-clock / entropy sources. Besides tool crates and
        // binary targets, the modules in `R2_EXEMPT_MODULES` opt out
        // with a documented justification.
        if !ctx.tool_crate && !ctx.bin_target && !ctx.r2_exempt {
            for tok in R2_TOKENS {
                if has_token(&line.code, tok) {
                    push(
                        "R2",
                        format!(
                            "`{tok}` is a nondeterministic source; library code must \
                             take time/seeds as inputs (timing belongs in bench/CLI crates)"
                        ),
                    );
                }
            }
        }

        // R3 — panicking calls in library code.
        if !ctx.tool_crate && !ctx.bin_target {
            for (needle, what) in [
                (".unwrap()", "unwrap()"),
                (".expect(", "expect()"),
                ("panic!", "panic!"),
            ] {
                if has_needle(&line.code, needle) {
                    push(
                        "R3",
                        format!(
                            "`{what}` in library code: return a Result, or waive with \
                             the invariant that makes the panic unreachable"
                        ),
                    );
                }
            }
        }

        // R6 — ad-hoc threading in library code. Spawning threads
        // anywhere but the module in `R6_EXEMPT_MODULES` risks a
        // merge order nobody documented or tested; route fan-out
        // through its `run_indexed` instead.
        if !ctx.tool_crate && !ctx.bin_target && !ctx.r6_exempt {
            for tok in R6_TOKENS {
                if has_token(&line.code, tok) {
                    push(
                        "R6",
                        format!(
                            "`{tok}` outside the sanctioned fan-out modules: route \
                             parallelism through a documented site whose merge order \
                             is deterministic (see R6_EXEMPT_MODULES)"
                        ),
                    );
                }
            }
        }

        // R5 — unordered float reductions in kernel crates.
        if ctx.kernel_crate {
            let reduces = line.code.contains(".sum::<f64>()")
                || line.code.contains(".sum::<f32>()")
                || line.code.contains(".fold(");
            let hash_fed = R1_TOKENS.iter().any(|t| has_token(&line.code, t))
                || (file_mentions_hash
                    && (line.code.contains(".values()") || line.code.contains(".keys()")));
            if reduces && hash_fed {
                push(
                    "R5",
                    "float reduction over a hash-backed container: the summation order \
                     (hence the rounding) depends on the hasher"
                        .to_string(),
                );
            }
        }
    }

    // R4 — crate-root attributes (file-level; reported at line 1).
    if ctx.lib_root {
        for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !lines.iter().any(|l| l.code.contains(attr)) {
                findings.push(Finding {
                    file: ctx.rel.clone(),
                    line: 1,
                    rule: "R4".to_string(),
                    message: format!("crate root is missing `{attr}`"),
                    snippet: lines.first().map(line_snippet).unwrap_or_default(),
                });
            }
        }
    }
}

fn line_snippet(line: &ScannedLine) -> String {
    let code = line.raw.trim();
    let mut s: String = code.chars().take(96).collect();
    if code.chars().count() > 96 {
        s.push('…');
    }
    s
}

/// Whether `code` contains `needle` as an identifier-bounded token
/// (the characters adjacent to the match must not continue an
/// identifier). `needle` itself may contain `::`.
fn has_token(code: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let ok_before = code[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let ok_after = code[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

/// Whether `code` contains `needle` verbatim (needles carry their own
/// boundary characters, e.g. the leading `.` and trailing `(`).
fn has_needle(code: &str, needle: &str) -> bool {
    code.contains(needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn lib_ctx() -> FileContext {
        FileContext {
            rel: "crates/demo/src/lib.rs".to_string(),
            exempt: false,
            tool_crate: false,
            bin_target: false,
            lib_root: true,
            kernel_crate: false,
            r2_exempt: false,
            r6_exempt: false,
        }
    }

    fn check(ctx: &FileContext, src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        check_file(ctx, &scan_source(src), &mut f);
        f
    }

    const ROOT_ATTRS: &str = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";

    #[test]
    fn r1_flags_hash_collections_but_not_btree() {
        let f = check(
            &lib_ctx(),
            &format!("{ROOT_ATTRS}use std::collections::{{HashMap, BTreeMap}};\n"),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R1");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn r1_ignores_identifier_suffixes() {
        let f = check(&lib_ctx(), &format!("{ROOT_ATTRS}struct HashMapLike;\n"));
        assert!(f.is_empty());
    }

    #[test]
    fn r2_flags_entropy_in_lib_but_not_tool_crates() {
        let src = format!("{ROOT_ATTRS}fn f() {{ let t = Instant::now(); }}\n");
        let f = check(&lib_ctx(), &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R2");
        let mut tool = lib_ctx();
        tool.tool_crate = true;
        assert!(check(&tool, &src).is_empty());
    }

    #[test]
    fn r2_exempt_modules_skip_r2_but_keep_other_rules() {
        let src = format!(
            "{ROOT_ATTRS}use std::collections::HashMap;\nfn f() {{ let t = Instant::now(); }}\n"
        );
        let mut ctx = lib_ctx();
        ctx.r2_exempt = true;
        let f = check(&ctx, &src);
        assert!(f.iter().all(|x| x.rule != "R2"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "R1"), "{f:?}");
    }

    #[test]
    fn r3_flags_unwrap_but_not_unwrap_or() {
        let src = format!("{ROOT_ATTRS}fn f(x: Option<u8>) {{ x.unwrap(); x.unwrap_or(0); }}\n");
        let f = check(&lib_ctx(), &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R3");
    }

    #[test]
    fn r3_skips_expect_err_and_attribute_expect() {
        let src = format!("{ROOT_ATTRS}fn f(x: Result<u8, u8>) {{ let _ = x.expect_err; }}\n");
        assert!(check(&lib_ctx(), &src).is_empty());
    }

    #[test]
    fn r3_skips_cfg_test_blocks() {
        let src = format!(
            "{ROOT_ATTRS}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ None::<u8>.unwrap(); }}\n}}\n"
        );
        assert!(check(&lib_ctx(), &src).is_empty());
    }

    #[test]
    fn r4_reports_each_missing_attribute() {
        let f = check(&lib_ctx(), "//! docs\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == "R4" && x.line == 1));
    }

    #[test]
    fn r4_only_applies_to_lib_roots() {
        let mut ctx = lib_ctx();
        ctx.lib_root = false;
        assert!(check(&ctx, "//! a module without the attributes\n").is_empty());
    }

    #[test]
    fn r6_flags_thread_spawn_and_scope_in_lib_but_not_tool_crates() {
        let src =
            format!("{ROOT_ATTRS}fn f() {{ std::thread::scope(|s| {{ s.spawn(|| 1); }}); }}\n");
        let f = check(&lib_ctx(), &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R6");
        let spawn = format!("{ROOT_ATTRS}fn f() {{ std::thread::spawn(|| 1); }}\n");
        assert_eq!(check(&lib_ctx(), &spawn).len(), 1);
        let mut tool = lib_ctx();
        tool.tool_crate = true;
        assert!(check(&tool, &src).is_empty());
    }

    #[test]
    fn r6_exempt_modules_skip_r6_but_keep_other_rules() {
        let src = format!(
            "{ROOT_ATTRS}use std::collections::HashMap;\nfn f() {{ std::thread::scope(|s| {{ let _ = s; }}); }}\n"
        );
        let mut ctx = lib_ctx();
        ctx.r6_exempt = true;
        let f = check(&ctx, &src);
        assert!(f.iter().all(|x| x.rule != "R6"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "R1"), "{f:?}");
    }

    #[test]
    fn r6_ignores_lookalike_identifiers() {
        let src =
            format!("{ROOT_ATTRS}fn f() {{ my_thread::spawner(); within_thread::scoped(); }}\n");
        assert!(check(&lib_ctx(), &src).is_empty());
    }

    #[test]
    fn r5_flags_hash_fed_float_sums_in_kernel_crates() {
        let mut ctx = lib_ctx();
        ctx.kernel_crate = true;
        let src = format!(
            "{ROOT_ATTRS}use std::collections::HashMap;\nfn f(m: &HashMap<u32, f64>) -> f64 {{\n    m.values().sum::<f64>()\n}}\n"
        );
        let f = check(&ctx, &src);
        assert!(f.iter().any(|x| x.rule == "R5" && x.line == 5), "{f:?}");
        // The same reduction over a BTreeMap is ordered: no R5.
        let ordered = format!(
            "{ROOT_ATTRS}use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, f64>) -> f64 {{\n    m.values().sum::<f64>()\n}}\n"
        );
        assert!(check(&ctx, &ordered).is_empty());
    }

    #[test]
    fn rules_ignore_strings_and_comments() {
        let src = format!(
            "{ROOT_ATTRS}// HashMap in a comment, x.unwrap() too\nconst MSG: &str = \"HashMap Instant::now panic!\";\n"
        );
        assert!(check(&lib_ctx(), &src).is_empty());
    }
}
