//! End-to-end tests of the `manet-repro` binary: spawn the real
//! executable, parse its stdout, verify its CSV artifacts.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_manet-repro"))
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("manet_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = repro().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage"));
    assert!(text.contains("fig2"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = repro().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn bad_option_fails() {
    let out = repro().args(["fig2", "--bogus"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn stationary_produces_csv_with_all_sizes() {
    let dir = temp_out("stationary");
    let out = repro()
        .args([
            "stationary",
            "--iterations",
            "2",
            "--steps",
            "10",
            "--placements",
            "50",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("stationary.csv")).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 system sizes");
    assert!(lines[0].starts_with("l,n,"));
    for (i, l) in ["256", "1024", "4096", "16384"].iter().enumerate() {
        assert!(
            lines[i + 1].starts_with(l),
            "row {i} should start with {l}: {}",
            lines[i + 1]
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn fig7_sweep_covers_fine_window() {
    let dir = temp_out("fig7");
    let out = repro()
        .args([
            "fig7",
            "--iterations",
            "2",
            "--steps",
            "20",
            "--placements",
            "30",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("fig7.csv")).unwrap();
    // Coarse points + the 0.40..0.60 fine sweep (11 points) + header.
    let rows = csv.lines().count() - 1;
    assert_eq!(rows, 15, "expected 15 sweep points, got {rows}");
    // Ratios are positive numbers.
    for line in csv.lines().skip(1) {
        let ratio: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!(ratio > 0.0);
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn trace_artifacts_byte_identical_across_thread_counts() {
    let mut outputs = Vec::new();
    for threads in ["1", "3"] {
        let dir = temp_out(&format!("trace_t{threads}"));
        let out = repro()
            .args([
                "trace",
                "--iterations",
                "2",
                "--steps",
                "30",
                "--placements",
                "30",
                "--threads",
                threads,
                "--out",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        let csv = std::fs::read_to_string(dir.join("trace.csv")).unwrap();
        outputs.push((json, csv));
        std::fs::remove_dir_all(dir).ok();
    }
    assert_eq!(
        outputs[0], outputs[1],
        "trace artifacts must not depend on the worker thread count"
    );
    let json = &outputs[0].0;
    // The JSON carries the temporal summaries the subsystem promises.
    for key in [
        "link_lifetime",
        "inter_contact",
        "outage",
        "repair",
        "path_availability",
        "survival",
        "r_stationary",
    ] {
        assert!(json.contains(key), "trace.json missing `{key}`");
    }
    // 4 default models (waypoint, drunkard, gauss-markov, rpgm)
    // x 4 multipliers.
    assert_eq!(json.matches("\"multiplier\"").count(), 16);
    for model in ["waypoint", "drunkard", "gauss-markov", "rpgm"] {
        assert!(
            json.contains(&format!("\"{model}\"")),
            "trace.json missing default model `{model}`"
        );
    }
    let csv = &outputs[0].1;
    assert_eq!(csv.lines().count(), 17, "header + 16 sweep rows");
}

#[test]
fn models_flag_selects_the_sweep_and_rejects_unknown_names() {
    let dir = temp_out("models_flag");
    let out = repro()
        .args([
            "fixed",
            "--iterations",
            "2",
            "--steps",
            "20",
            "--placements",
            "30",
            "--models",
            "gauss-markov-wrap,walk-bounce",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("fixed.csv")).unwrap();
    assert_eq!(csv.lines().count(), 9, "header + 2 models x 4 multipliers");
    assert!(csv.contains("gauss-markov-wrap"));
    assert!(csv.contains("walk-bounce"));
    assert!(!csv.contains("drunkard"));
    std::fs::remove_dir_all(dir).ok();

    let out = repro()
        .args(["fixed", "--models", "no-such-model"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown model"), "stderr: {err}");
    assert!(err.contains("rpgm"), "error should list known names: {err}");
}

#[test]
fn theory_t4_reports_gap_probabilities() {
    let dir = temp_out("t4");
    let out = repro()
        .args(["theory", "t4", "--placements", "50", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("theory_t4.csv")).unwrap();
    let mut window_col = Vec::new();
    let mut connected_col = Vec::new();
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        window_col.push(cells[1].parse::<f64>().unwrap());
        connected_col.push(cells[3].parse::<f64>().unwrap());
    }
    // Theorem 4: bounded away from zero in the window...
    assert!(window_col.iter().all(|&p| p > 0.9));
    // ...Theorem 3: decaying above the threshold.
    assert!(connected_col.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    std::fs::remove_dir_all(dir).ok();
}

/// The incremental connectivity spine must not move a single output
/// byte: `fixed` and `uptime` at the pinned golden configuration
/// (pinned to the paper's two models, the pre-registry default) match
/// the goldens captured from the pre-refactor rebuild-and-relabel
/// engine, at any thread count.
#[test]
fn fixed_and_uptime_match_goldens_across_thread_counts() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    for threads in ["1", "3"] {
        let dir = temp_out(&format!("goldens_t{threads}"));
        for cmd in ["fixed", "uptime"] {
            let out = repro()
                .args([
                    cmd,
                    "--iterations",
                    "3",
                    "--steps",
                    "120",
                    "--placements",
                    "200",
                    "--seed",
                    "20020623",
                    "--threads",
                    threads,
                    "--models",
                    "waypoint,drunkard",
                    "--out",
                ])
                .arg(&dir)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        for artifact in ["fixed.csv", "uptime_x2.csv"] {
            let got = std::fs::read_to_string(dir.join(artifact)).unwrap();
            let want = std::fs::read_to_string(golden_dir.join(artifact)).unwrap();
            assert_eq!(
                got, want,
                "{artifact} diverged from tests/goldens at --threads {threads}"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Three small goldens: `fixed` at n = 600, where grid-Kruskal builds
/// the spanning tree, and `--k-target 2` and `3` sweeps, whose cells
/// pool each step's exact k-connectivity threshold (one positions-only
/// campaign per cell). All must hold byte for byte at any thread
/// count.
#[test]
fn fixed_large_and_k2_critical_scaling_match_goldens_across_thread_counts() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    let cases: [(&[&str], &str, &str); 3] = [
        (
            &[
                "fixed",
                "--nodes",
                "600",
                "--iterations",
                "2",
                "--steps",
                "20",
                "--placements",
                "20",
                "--models",
                "waypoint,rpgm,gauss-markov",
            ],
            "fixed.csv",
            "fixed_large.csv",
        ),
        (
            &[
                "critical-scaling",
                "--k-target",
                "2",
                "--n-sweep",
                "8,12,16",
                "--iterations",
                "2",
                "--steps",
                "30",
                "--models",
                "waypoint,drunkard",
            ],
            "critical_scaling.csv",
            "critical_scaling_k2.csv",
        ),
        (
            &[
                "critical-scaling",
                "--k-target",
                "3",
                "--n-sweep",
                "16,32,64",
                "--iterations",
                "1",
                "--steps",
                "20",
            ],
            "critical_scaling.csv",
            "critical_scaling_k3.csv",
        ),
    ];
    for (args, artifact, golden) in cases {
        let want = std::fs::read_to_string(golden_dir.join(golden)).unwrap();
        for threads in ["1", "3"] {
            let dir = temp_out(&format!("{golden}_t{threads}"));
            let out = repro()
                .args(args)
                .args(["--seed", "20020623", "--threads", threads, "--out"])
                .arg(&dir)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let got = std::fs::read_to_string(dir.join(artifact)).unwrap();
            assert_eq!(
                got, want,
                "{artifact} diverged from tests/goldens/{golden} at --threads {threads}"
            );
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// `quantity`, the one remaining `solve()` reader besides `figs` and
/// `uptime`, reproduces `tests/goldens/quantity_x1.csv` byte-for-byte
/// at any thread count.
#[test]
fn quantity_matches_golden_across_thread_counts() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/quantity_x1.csv");
    for threads in ["1", "3"] {
        let dir = temp_out(&format!("quantity_golden_t{threads}"));
        let out = repro()
            .args([
                "quantity",
                "--iterations",
                "3",
                "--steps",
                "120",
                "--placements",
                "200",
                "--seed",
                "20020623",
                "--threads",
                threads,
                "--out",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = std::fs::read_to_string(dir.join("quantity_x1.csv")).unwrap();
        let want = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(
            got, want,
            "quantity_x1.csv diverged from tests/goldens at --threads {threads}"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The paper's figures — fig2/fig3 from the per-step MST bottleneck,
/// fig4–fig6 from the per-step merge profile, fig7–fig9 from the
/// stationary and theory paths — reproduce `tests/goldens/figs/`
/// byte-for-byte at any thread count.
#[test]
fn figs_match_goldens_across_thread_counts() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/figs");
    for threads in ["1", "3"] {
        let dir = temp_out(&format!("figs_goldens_t{threads}"));
        let out = repro()
            .args([
                "figs",
                "--iterations",
                "2",
                "--steps",
                "60",
                "--placements",
                "40",
                "--seed",
                "20020623",
                "--threads",
                threads,
                "--out",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for fig in 2..=9 {
            let artifact = format!("fig{fig}.csv");
            let got = std::fs::read_to_string(dir.join(&artifact)).unwrap();
            let want = std::fs::read_to_string(golden_dir.join(&artifact)).unwrap();
            assert_eq!(
                got, want,
                "{artifact} diverged from tests/goldens/figs at --threads {threads}"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A figure run alone gets a fresh campaign memo; `figs` shares one
/// across Figures 2–9 and fuses the side-sweep campaigns. The profile
/// readers (figs 4–6) and the sweeps sharing Figure 2's base point
/// (figs 8–9) must reproduce `tests/goldens/figs/` byte-for-byte
/// either way.
#[test]
fn lone_figures_match_the_shared_memo_goldens() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/figs");
    let dir = temp_out("figs_lone");
    for fig in ["fig4", "fig5", "fig6", "fig8", "fig9"] {
        let out = repro()
            .args([
                fig,
                "--iterations",
                "2",
                "--steps",
                "60",
                "--placements",
                "40",
                "--seed",
                "20020623",
                "--out",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{fig} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let artifact = format!("{fig}.csv");
        let got = std::fs::read_to_string(dir.join(&artifact)).unwrap();
        let want = std::fs::read_to_string(golden_dir.join(&artifact)).unwrap();
        assert_eq!(
            got, want,
            "{artifact} run alone diverged from tests/goldens/figs"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Blanks the value following `start_pat` (up to `end`) so manifest
/// fields that legitimately vary between runs — the recorded worker
/// thread count and the build-profile `features` provenance — don't
/// break byte comparison. Everything else must match exactly.
fn blank_manifest_field(s: &str, start_pat: &str, end: char) -> String {
    match s.find(start_pat) {
        Some(i) => {
            let vstart = i + start_pat.len();
            let vend = vstart + s[vstart..].find(end).unwrap();
            format!("{}{}", &s[..vstart], &s[vend..])
        }
        None => s.to_string(),
    }
}

fn normalize_metrics(json: &str) -> String {
    let s = blank_manifest_field(json, "\"threads\":", ',');
    blank_manifest_field(&s, "\"features\":[", ']')
}

/// The deterministic telemetry artifact: `--metrics` writes a
/// manifest + counters JSON that reproduces the committed golden
/// byte-for-byte (modulo the recorded thread count and build-profile
/// provenance, which legitimately vary) at any thread count. The
/// counters themselves are `u64` event totals merged commutatively
/// over iterations — the byte identity below is the proof.
#[test]
fn metrics_artifact_matches_golden_across_thread_counts() {
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/trace_metrics.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    for threads in ["1", "3"] {
        let dir = temp_out(&format!("metrics_t{threads}"));
        let metrics_path = dir.join("metrics.json");
        let out = repro()
            .args([
                "trace",
                "--iterations",
                "2",
                "--steps",
                "30",
                "--placements",
                "30",
                "--seed",
                "20020623",
                "--threads",
                threads,
                "--models",
                "gauss-markov,rpgm",
                "--metrics",
            ])
            .arg(&metrics_path)
            .arg("--out")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = std::fs::read_to_string(&metrics_path).unwrap();
        assert_eq!(
            normalize_metrics(&got),
            normalize_metrics(&golden),
            "metrics.json diverged from tests/goldens at --threads {threads}"
        );
        // Un-normalized, the artifact records what was actually asked.
        assert!(got.contains(&format!("\"threads\":{threads}")));
        // Both planes are present; the span plane is empty without
        // `--profile` (it is the nondeterministic one).
        assert!(got.contains("\"counters\":["));
        assert!(got.ends_with("\"spans\":[]}"));
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Runs `trace` at a small shape with `extra` options into a fresh
/// directory and returns its exit code with `(trace.json, trace.csv)`
/// when it succeeded.
fn run_small_trace(tag: &str, extra: &[&str]) -> (Option<i32>, Option<(String, String)>) {
    let dir = temp_out(tag);
    let out = repro()
        .args([
            "trace",
            "--iterations",
            "2",
            "--steps",
            "30",
            "--placements",
            "30",
            "--models",
            "waypoint,drunkard",
        ])
        .args(extra)
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    let artifacts = out.status.success().then(|| {
        (
            std::fs::read_to_string(dir.join("trace.json")).unwrap(),
            std::fs::read_to_string(dir.join("trace.csv")).unwrap(),
        )
    });
    std::fs::remove_dir_all(dir).ok();
    (out.status.code(), artifacts)
}

/// The step kernel is serial: `--step-threads 1` is accepted (and
/// moves no byte of the trace artifacts) and any other count is a
/// usage error.
#[test]
fn trace_step_threads_accepts_only_one() {
    let (code, default) = run_small_trace("trace_st_default", &[]);
    assert_eq!(code, Some(0));
    let (code, one) = run_small_trace("trace_st1", &["--step-threads", "1"]);
    assert_eq!(code, Some(0));
    assert_eq!(one, default, "--step-threads 1 changed the trace artifacts");
    let (code, four) = run_small_trace("trace_st4", &["--step-threads", "4"]);
    assert_eq!(
        (code, four),
        (Some(2), None),
        "--step-threads 4 must be a usage error"
    );
}

/// Strips every embedded `kernel` counter block from an artifact:
/// the path counters (bulk vs verify vs rebuild) are *supposed* to
/// differ across skin settings — they record which kernel path ran —
/// while everything observable must not.
fn strip_kernel_counters(json: &str) -> String {
    let mut s = json.to_string();
    while let Some(start) = s.find("\"kernel\":{") {
        // The counter block holds only numeric fields (no strings), so
        // brace counting finds its end without a full JSON parse.
        let open = start + "\"kernel\":".len();
        let mut depth = 0usize;
        let mut end = s.len();
        for (j, c) in s[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        // Swallow one adjacent comma so the remainder stays valid JSON.
        if s[end..].starts_with(',') {
            s.replace_range(start..end + 1, "");
        } else if s[..start].ends_with(',') {
            s.replace_range(start - 1..end, "");
        } else {
            s.replace_range(start..end, "");
        }
    }
    s
}

/// The Verlet cache is a performance knob, not a semantics one: the
/// cached verify/rebuild path (`--skin auto`, the default) must
/// produce the same observables as the legacy kernel with the cache
/// off (`--skin 0`). The CSV is
/// compared byte-for-byte; trace.json embeds kernel path counters
/// (which record *how* each step committed and so legitimately vary),
/// so those blocks are stripped first. This is the end-to-end
/// cache-path identity gate the CI smoke mirrors at larger n.
#[test]
fn trace_artifacts_byte_identical_across_skin_settings() {
    let run = |skin: &str| {
        let tag = format!("trace_skin{skin}");
        let (code, artifacts) = run_small_trace(&tag, &["--nodes", "48", "--skin", skin]);
        assert_eq!(code, Some(0), "--skin {skin} failed");
        let (json, csv) = artifacts.unwrap();
        (strip_kernel_counters(&json), csv)
    };
    assert_eq!(
        run("0"),
        run("auto"),
        "trace observables must not depend on --skin"
    );
}

/// `critical-scaling` runs no step kernel, so `--skin` and any
/// `--step-threads` but 1 are usage errors there. perfbench's argv
/// passes `--step-threads 1`, which still runs, and `metrics.json`
/// records no kernel counters.
#[test]
fn critical_scaling_rejects_skin_and_step_threads() {
    let run = |tag: &str, extra: &[&str]| {
        let dir = temp_out(tag);
        let out = repro()
            .args([
                "critical-scaling",
                "--iterations",
                "2",
                "--steps",
                "30",
                "--n-sweep",
                "8,12",
                "--models",
                "waypoint,drunkard",
            ])
            .args(extra)
            .arg("--metrics")
            .arg(dir.join("metrics.json"))
            .arg("--out")
            .arg(&dir)
            .output()
            .unwrap();
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).ok();
        std::fs::remove_dir_all(dir).ok();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            metrics,
        )
    };
    let (code, stderr, metrics) = run("critical_st1", &["--step-threads", "1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(metrics.unwrap().contains("\"counters\":[]"));
    for (tag, extra, flag) in [
        ("critical_skin0", ["--skin", "0"], "--skin"),
        ("critical_skin_auto", ["--skin", "auto"], "--skin"),
        ("critical_st2", ["--step-threads", "2"], "--step-threads"),
    ] {
        let (code, stderr, metrics) = run(tag, &extra);
        assert_eq!(code, Some(2), "{extra:?} must be a usage error");
        assert!(stderr.contains(flag), "{extra:?}: {stderr}");
        assert_eq!(metrics, None, "{extra:?} wrote metrics");
    }
}

/// `--nodes` reaches every pipeline (PR 5 wired it into `trace` only):
/// `fixed`, `uptime`, and `quantity` all honor the override, so large-n
/// runs are reachable from each.
#[test]
fn nodes_override_reaches_every_pipeline() {
    for (cmd, artifact) in [
        ("fixed", "fixed.csv"),
        ("uptime", "uptime_x2.csv"),
        ("quantity", "quantity_x1.csv"),
    ] {
        let dir = temp_out(&format!("nodes_{cmd}"));
        let out = repro()
            .args([
                cmd,
                "--iterations",
                "2",
                "--steps",
                "20",
                "--placements",
                "30",
                "--models",
                "waypoint",
                "--nodes",
                "12",
                "--step-threads",
                "1",
                "--out",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{cmd} --nodes 12 failed; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read_to_string(dir.join(artifact)).unwrap();
        assert!(
            csv.lines().count() > 1,
            "{artifact} should have at least one data row"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}

/// `--progress` is a stderr-only affordance: it must not move a byte
/// of stdout or of any artifact.
#[test]
fn progress_lines_stay_on_stderr_and_leave_artifacts_untouched() {
    let base = [
        "fixed",
        "--iterations",
        "2",
        "--steps",
        "20",
        "--placements",
        "30",
        "--seed",
        "20020623",
        "--threads",
        "1",
        "--models",
        "waypoint",
    ];
    let mut artifacts = Vec::new();
    for progress in [false, true] {
        let dir = temp_out(&format!("progress_{progress}"));
        let mut cmd = repro();
        cmd.args(base);
        if progress {
            cmd.arg("--progress");
        }
        let out = cmd.arg("--out").arg(&dir).output().unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(
            stderr.contains("progress:"),
            progress,
            "progress lines present iff --progress was given; stderr: {stderr}"
        );
        // The `wrote <path>` lines embed the per-run temp dir; drop
        // them before comparing the rest of stdout byte-for-byte.
        let stdout: String = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .map(|l| format!("{l}\n"))
            .collect();
        artifacts.push((
            stdout,
            std::fs::read_to_string(dir.join("fixed.csv")).unwrap(),
        ));
        std::fs::remove_dir_all(dir).ok();
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "--progress must not change stdout or artifacts"
    );
}

/// The zoo's golden: the trace sweep over the two *new* model families
/// (`gauss-markov`, `rpgm`) at a pinned configuration reproduces
/// `tests/goldens/trace_zoo.csv` byte-for-byte at any thread count —
/// the same contract `fixed.csv` holds for the paper's models.
#[test]
fn trace_zoo_matches_golden_across_thread_counts() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/trace_zoo.csv");
    for threads in ["1", "3"] {
        let dir = temp_out(&format!("trace_zoo_t{threads}"));
        let out = repro()
            .args([
                "trace",
                "--iterations",
                "3",
                "--steps",
                "120",
                "--placements",
                "200",
                "--seed",
                "20020623",
                "--threads",
                threads,
                "--models",
                "gauss-markov,rpgm",
                "--out",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = std::fs::read_to_string(dir.join("trace.csv")).unwrap();
        let want = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(
            got, want,
            "trace_zoo.csv diverged from tests/goldens at --threads {threads}"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn critical_scaling_matches_golden_across_thread_counts() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    let want_csv = std::fs::read_to_string(golden_dir.join("critical_scaling.csv")).unwrap();
    let mut reference_json: Option<String> = None;
    // The acceptance bar: byte-identical artifacts at --threads 1/2/4.
    for threads in ["1", "2", "4"] {
        let dir = temp_out(&format!("critical_t{threads}"));
        let out = repro()
            .args([
                "critical-scaling",
                "--iterations",
                "3",
                "--steps",
                "120",
                "--n-sweep",
                "16,32,64",
                "--seed",
                "20020623",
                "--threads",
                threads,
                "--models",
                "waypoint,drunkard",
                "--out",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("beta"), "missing fit table: {stdout}");
        let got = std::fs::read_to_string(dir.join("critical_scaling.csv")).unwrap();
        assert_eq!(
            got, want_csv,
            "critical_scaling.csv diverged from tests/goldens at --threads {threads}"
        );
        let json = std::fs::read_to_string(dir.join("critical_scaling.json")).unwrap();
        assert!(json.contains("\"fits\""));
        match &reference_json {
            Some(want) => assert_eq!(
                &json, want,
                "critical_scaling.json diverged at --threads {threads}"
            ),
            None => reference_json = Some(json),
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The exact finder replaced 13 bisection probes per cell. Bisection
/// answers the smallest range its bracket proves, at most one
/// tolerance (`1e-3 · side`) above the true threshold, so every cell of
/// the regenerated golden must sit at or below the bisected one, and
/// within that tolerance of it. The rows are the golden as bisection
/// wrote it.
#[test]
fn critical_scaling_golden_moved_down_within_the_bisection_tolerance() {
    const BISECTED: [&str; 6] = [
        "waypoint,16,256.000,105.005,0.4102,13",
        "drunkard,16,256.000,118.617,0.4633,13",
        "waypoint,32,362.039,103.750,0.2866,13",
        "drunkard,32,362.039,100.500,0.2776,13",
        "waypoint,64,512.000,97.227,0.1899,13",
        "drunkard,64,512.000,113.137,0.2210,13",
    ];
    let dir = temp_out("critical_golden_move");
    let out = repro()
        .args([
            "critical-scaling",
            "--iterations",
            "3",
            "--steps",
            "120",
            "--n-sweep",
            "16,32,64",
            "--seed",
            "20020623",
            "--models",
            "waypoint,drunkard",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("critical_scaling.csv")).unwrap();
    assert_moved_down_from_bisection(&csv, &BISECTED, "2");
    std::fs::remove_dir_all(dir).ok();
}

/// Checks a `critical_scaling.csv` against the rows bisection wrote
/// for the same cells: the same model, `n` and side, an `r_c` at or
/// below the bisected one by at most `1e-3 · side`, and `probes`
/// campaigns per cell.
fn assert_moved_down_from_bisection(csv: &str, bisected: &[&str], probes: &str) {
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), bisected.len(), "{csv}");
    let field = |row: &str, i: usize| row.split(',').nth(i).unwrap().to_string();
    for (new, old) in rows.iter().zip(bisected) {
        for i in 0..3 {
            assert_eq!(field(new, i), field(old, i), "{new} vs {old}");
        }
        let side: f64 = field(old, 2).parse().unwrap();
        let (new_r, old_r): (f64, f64) = (
            field(new, 3).parse().unwrap(),
            field(old, 3).parse().unwrap(),
        );
        assert!(
            new_r <= old_r && old_r - new_r <= 1e-3 * side,
            "exact {new} vs bisected {old}"
        );
        assert_eq!(field(new, 5), probes, "{new}");
    }
}

/// The exact k-connectivity finder replaced 13 bisection probes per
/// `--k-target 2` cell, so `critical_scaling_k2.csv` moved the same way
/// (its CLI run is pinned by
/// `fixed_large_and_k2_critical_scaling_match_goldens_across_thread_counts`).
/// The rows are the golden as bisection wrote it.
#[test]
fn k2_golden_moved_down_within_the_bisection_tolerance() {
    const BISECTED: [&str; 6] = [
        "waypoint,8,181.019,125.125,0.6912,13",
        "drunkard,8,181.019,131.375,0.7258,13",
        "waypoint,12,221.703,124.924,0.5635,13",
        "drunkard,12,221.703,121.097,0.5462,13",
        "waypoint,16,256.000,142.305,0.5559,13",
        "drunkard,16,256.000,145.841,0.5697,13",
    ];
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/critical_scaling_k2.csv");
    let csv = std::fs::read_to_string(golden).unwrap();
    assert_moved_down_from_bisection(&csv, &BISECTED, "1");
}

/// A 256-node cell runs end to end. No finder rule builds a graph at a
/// probed range any more: the giant fraction reads merge profiles, and
/// `--k-target` >= 2 builds its graphs from sorted pair distances. The
/// grid branch of `AdjacencyList::from_points` at the bisection
/// oracle's `r = 1e-9` floor, where a grid sized `(side/r)^D` used to
/// overflow, is pinned by `tiny_range_in_huge_region_matches_brute_force`
/// in `manet-graph`.
#[test]
fn critical_scaling_runs_on_the_grid_branch_at_tiny_first_probe() {
    let dir = temp_out("critical_grid_branch");
    let out = repro()
        .args([
            "critical-scaling",
            "--n-sweep",
            "256",
            "--models",
            "waypoint",
            "--iterations",
            "1",
            "--steps",
            "5",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("critical_scaling.csv")).unwrap();
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 1, "one (model, n) row: {csv}");
    assert!(rows[0].starts_with("waypoint,256,"), "row: {}", rows[0]);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn k_target_thresholds_k_connectivity() {
    let run = |extra: &[&str], tag: &str| {
        let dir = temp_out(tag);
        let out = repro()
            .args([
                "critical-scaling",
                "--iterations",
                "2",
                "--steps",
                "30",
                "--n-sweep",
                "8,12,16",
                "--models",
                "waypoint",
                "--target",
                "1.0",
            ])
            .args(extra)
            .args(["--out"])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read_to_string(dir.join("critical_scaling.csv")).unwrap();
        let r_c: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        std::fs::remove_dir_all(dir).ok();
        r_c
    };
    // Oracle: biconnectivity needs at least the range plain
    // connectivity needs, cell by cell.
    let k1 = run(&["--k-target", "1"], "ktarget_k1");
    let k2 = run(&["--k-target", "2"], "ktarget_k2");
    assert_eq!(k1.len(), 3);
    for (a, b) in k1.iter().zip(&k2) {
        assert!(b >= a, "k=2 range {b} below k=1 range {a}");
    }
    assert!(
        k2.iter().zip(&k1).any(|(b, a)| b > a),
        "k=2 should strictly exceed k=1 somewhere on sparse placements"
    );

    // Infeasible k (>= n) is rejected with a clear message.
    let out = repro()
        .args([
            "critical-scaling",
            "--iterations",
            "1",
            "--steps",
            "5",
            "--n-sweep",
            "8",
            "--models",
            "waypoint",
            "--k-target",
            "8",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("k-connectivity"));
}

#[test]
fn zero_threads_is_a_clean_usage_error() {
    for cmd in ["critical-scaling", "fixed"] {
        let out = repro().args([cmd, "--threads", "0"]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: stderr: {err}");
        assert!(err.contains("--threads must be positive"), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd} panicked: {err}");
    }
}

/// A repeated sweep entry would rerun identical cells and feed
/// duplicate points to the exponent fit (three copies of two points
/// gave a "fit" with a zero-width CI), so it is a usage error naming
/// the repeat, before any cell runs or any artifact is written.
#[test]
fn repeated_sweep_entries_are_clean_usage_errors() {
    let dir = temp_out("repeated_entries");
    for (flag, value, message) in [
        ("--n-sweep", "16,16,32", "--n-sweep repeats node count 16"),
        (
            "--models",
            "waypoint,waypoint",
            "--models repeats model `waypoint`",
        ),
    ] {
        let out = repro()
            .args(["critical-scaling", "--iterations", "2", "--steps", "50"])
            .args([flag, value, "--out"])
            .arg(&dir)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: stderr: {err}");
        assert!(err.contains(message), "{flag} {value}: {err}");
        assert!(!dir.join("critical_scaling.csv").exists(), "{flag} {value}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// One node has no critical range (its `r_stationary` is 0), so
/// `--nodes 1` is a usage error before any campaign runs or any
/// artifact is written.
#[test]
fn single_node_is_a_clean_usage_error() {
    let dir = temp_out("nodes_one");
    let out = repro()
        .args([
            "uptime",
            "--nodes",
            "1",
            "--iterations",
            "2",
            "--steps",
            "10",
            "--placements",
            "5",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("--nodes must be at least 2"), "{err}");
    assert!(!dir.join("uptime_x2.csv").exists());
    std::fs::remove_dir_all(dir).ok();
}
