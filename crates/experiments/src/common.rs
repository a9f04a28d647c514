//! Shared experiment plumbing: options, parameter sets, table/CSV
//! output, and the `r_stationary` calibration used by every figure.

use manet_core::sim::config::SimConfigBuilder;
use manet_core::{AnyModel, CoreError, ModelRegistry, MtrProblem, PaperScale, SimConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The paper's system sizes: `l ∈ {256, 1K, 4K, 16K}`, `n = √l`.
pub const L_VALUES: [f64; 4] = [256.0, 1024.0, 4096.0, 16384.0];

/// `n = √l` for each entry of [`L_VALUES`].
pub fn nodes_for_side(l: f64) -> usize {
    (l.sqrt().round() as usize).max(2)
}

/// The connection-probability quantile defining `r_stationary`.
pub const R_STATIONARY_QUANTILE: f64 = 0.99;

/// The paper's simulation horizon, to which pause times are anchored.
pub const PAPER_STEPS: usize = 10_000;

/// Scale preset / overrides parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Iterations per campaign.
    pub iterations: usize,
    /// Mobility steps per iteration.
    pub steps: usize,
    /// Stationary placements for `r_stationary`.
    pub placements: usize,
    /// Master seed.
    pub seed: u64,
    /// Pinned thread count (None = auto).
    pub threads: Option<usize>,
    /// CSV output directory.
    pub out_dir: PathBuf,
    /// Mobility models to sweep (`--models a,b,c`); `None` keeps each
    /// experiment's default list.
    pub models: Option<Vec<String>>,
    /// Node-count override (`--nodes N`) for the `trace`, `fixed`,
    /// `uptime` and `quantity` experiments — the large-`n` lever: the
    /// step kernel at scale in `trace`, the spanning-tree kernels in
    /// `fixed` and `uptime`, mobility alone in `quantity`; `None` keeps
    /// each experiment's paper-tied default. At least 2: one node has
    /// no critical range.
    pub nodes: Option<usize>,
    /// `--metrics PATH`: write a `metrics.json` artifact (run manifest,
    /// deterministic kernel counters, spans when profiling) on success.
    pub metrics: Option<PathBuf>,
    /// `--profile`: arm the wall-clock span timer and print the span
    /// table to stderr (wall clock, so never in an artifact; rule R2).
    pub profile: bool,
    /// `--progress`: coarse stderr progress lines (sweep point i/N),
    /// kept strictly off stdout and artifacts.
    pub progress: bool,
    /// `--target F`: connectivity level in `(0, 1]` the critical range
    /// must reach (critical-scaling; default 0.99).
    pub target: f64,
    /// `--k-target K`: threshold on `k`-vertex-connectivity instead of
    /// the giant-component fraction (critical-scaling), from each
    /// step's exact k-connectivity threshold.
    pub k_target: Option<usize>,
    /// `--n-sweep a,b,c`: node counts of the finite-size scaling sweep
    /// (critical-scaling); `None` keeps the default sweep.
    pub n_sweep: Option<Vec<usize>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            iterations: 20,
            steps: 2_000,
            placements: 1_000,
            seed: 20_020_623, // DSN 2002 conference date
            threads: None,
            out_dir: PathBuf::from("results"),
            models: None,
            nodes: None,
            metrics: None,
            profile: false,
            progress: false,
            target: 0.99,
            k_target: None,
            n_sweep: None,
        }
    }
}

impl RunOptions {
    /// Parses `--flag value` style options. A bare word is an error:
    /// the caller strips `theory`'s selector, the only one a command
    /// takes, before parsing.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = RunOptions::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    opts.iterations = 5;
                    opts.steps = 500;
                    opts.placements = 200;
                }
                "--paper" => {
                    opts.iterations = 50;
                    opts.steps = PAPER_STEPS;
                    opts.placements = 5_000;
                }
                "--iterations" => opts.iterations = take_usize(args, &mut i)?,
                "--steps" => opts.steps = take_usize(args, &mut i)?,
                "--placements" => opts.placements = take_usize(args, &mut i)?,
                "--nodes" => opts.nodes = Some(take_usize(args, &mut i)?),
                "--seed" => opts.seed = take_usize(args, &mut i)? as u64,
                "--threads" => opts.threads = Some(take_usize(args, &mut i)?),
                // The step kernel is serial. The flag stays only until
                // ROADMAP item 1(d) stops perfbench from passing it.
                "--step-threads" => {
                    let t = take_usize(args, &mut i)?;
                    if t != 1 {
                        return Err(format!(
                            "--step-threads must be 1 (intra-step sharding was removed), got {t}"
                        ));
                    }
                }
                "--out" => {
                    i += 1;
                    let v = args.get(i).ok_or("--out requires a directory")?;
                    opts.out_dir = PathBuf::from(v);
                }
                "--metrics" => {
                    i += 1;
                    let v = args.get(i).ok_or("--metrics requires a file path")?;
                    opts.metrics = Some(PathBuf::from(v));
                }
                "--profile" => opts.profile = true,
                "--progress" => opts.progress = true,
                "--target" => opts.target = take_f64(args, &mut i)?,
                "--k-target" => opts.k_target = Some(take_usize(args, &mut i)?),
                "--n-sweep" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or("--n-sweep requires a comma-separated list")?;
                    let ns: Vec<usize> = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(|s| {
                            s.parse()
                                .map_err(|_| format!("invalid node count `{s}` in --n-sweep"))
                        })
                        .collect::<Result<_, String>>()?;
                    if ns.is_empty() {
                        return Err("--n-sweep requires at least one node count".into());
                    }
                    if let Some(n) = first_repeat(&ns) {
                        return Err(format!("--n-sweep repeats node count {n}"));
                    }
                    opts.n_sweep = Some(ns);
                }
                "--models" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or("--models requires a comma-separated list")?;
                    let registry = ModelRegistry::<2>::with_builtins();
                    let names: Vec<String> = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect();
                    if names.is_empty() {
                        return Err("--models requires at least one model name".into());
                    }
                    if let Some(name) = first_repeat(&names) {
                        return Err(format!("--models repeats model `{name}`"));
                    }
                    for name in &names {
                        if !registry.contains(name) {
                            return Err(format!(
                                "unknown model `{name}`; known models: {}",
                                registry.names().join(", ")
                            ));
                        }
                    }
                    opts.models = Some(names);
                }
                w if !w.starts_with("--") => return Err(format!("unexpected argument `{w}`")),
                other => return Err(format!("unknown option `{other}`")),
            }
            i += 1;
        }
        if opts.iterations == 0 || opts.steps == 0 || opts.placements == 0 {
            return Err("iterations, steps and placements must be positive".into());
        }
        if opts.nodes.is_some_and(|n| n < 2) {
            return Err("--nodes must be at least 2".into());
        }
        if opts.threads == Some(0) {
            return Err("--threads must be positive".into());
        }
        if !(opts.target.is_finite() && opts.target > 0.0 && opts.target <= 1.0) {
            return Err(format!("--target must be in (0, 1], got {}", opts.target));
        }
        if opts.k_target == Some(0) {
            return Err("--k-target must be at least 1".into());
        }
        if let Some(ns) = &opts.n_sweep {
            if ns.iter().any(|&n| n < 2) {
                return Err("--n-sweep node counts must be at least 2".into());
            }
        }
        Ok(opts)
    }

    /// The campaign configuration of `nodes` nodes in `[0, side]²` at
    /// this run's iterations, steps, seed and thread count — the
    /// one place a command-line option reaches a [`SimConfig`]. Callers
    /// add what only they set (a profile stride, a pinned thread
    /// count) before building.
    pub fn sim_config(&self, nodes: usize, side: f64) -> SimConfigBuilder<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(nodes)
            .side(side)
            .iterations(self.iterations)
            .steps(self.steps)
            .seed(self.seed);
        if let Some(t) = self.threads {
            b.threads(t);
        }
        b
    }

    /// Pause times the paper anchors to its 10000-step horizon, scaled
    /// to this run's horizon (identity under `--paper`).
    pub fn scale_steps(&self, paper_value: u32) -> u32 {
        ((paper_value as f64) * self.steps as f64 / PAPER_STEPS as f64).round() as u32
    }

    /// The registry scale for side `l`: the paper's pause horizon
    /// scaled to this run's step count.
    pub fn paper_scale(&self, l: f64) -> PaperScale {
        PaperScale::new(l).with_pause(self.scale_steps(2000))
    }

    /// Resolves one registry model at side `l` with run-scaled pauses.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Model`] for unknown names or
    /// scale-incompatible parameters.
    pub fn model(&self, name: &str, l: f64) -> Result<AnyModel<2>, CoreError> {
        Ok(ModelRegistry::<2>::with_builtins().build(name, &self.paper_scale(l))?)
    }

    /// The model sweep for an experiment: the `--models` list when
    /// given, otherwise `default_names`, each resolved through the
    /// registry at side `l` and paired with its registry name.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Model`].
    pub fn resolve_models(
        &self,
        default_names: &[&str],
        l: f64,
    ) -> Result<Vec<(String, AnyModel<2>)>, CoreError> {
        let names: Vec<String> = match &self.models {
            Some(list) => list.clone(),
            None => default_names.iter().map(|s| s.to_string()).collect(),
        };
        // One registry for the whole sweep, not one per name.
        let registry = ModelRegistry::<2>::with_builtins();
        let scale = self.paper_scale(l);
        names
            .into_iter()
            .map(|name| {
                let model = registry.build(&name, &scale)?;
                Ok((name, model))
            })
            .collect()
    }
}

/// The first entry of a list that an earlier entry already holds: a
/// repeated sweep entry would rerun identical cells.
fn first_repeat<T: PartialEq>(items: &[T]) -> Option<&T> {
    items
        .iter()
        .enumerate()
        .find_map(|(i, x)| items[..i].contains(x).then_some(x))
}

fn take_usize(args: &[String], i: &mut usize) -> Result<usize, String> {
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| format!("{} requires a value", args[*i - 1]))?;
    v.parse()
        .map_err(|_| format!("invalid value `{v}` for {}", args[*i - 1]))
}

fn take_f64(args: &[String], i: &mut usize) -> Result<f64, String> {
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| format!("{} requires a value", args[*i - 1]))?;
    v.parse()
        .map_err(|_| format!("invalid value `{v}` for {}", args[*i - 1]))
}

/// Density-preserving region side for `n` nodes: anchored so the
/// paper's smallest system (`n = 16`, `l = 256`) keeps its node
/// density at every sweep size (`l ∝ √n`, i.e. `n / l²` constant).
pub fn side_for(n: usize) -> f64 {
    64.0 * (n as f64).sqrt()
}

/// Computes `r_stationary` for `(n, l)` at the standard quantile.
pub fn r_stationary(opts: &RunOptions, l: f64) -> Result<f64, CoreError> {
    r_stationary_for(opts, l, nodes_for_side(l))
}

/// [`r_stationary`] at an explicit node count (the `--nodes` override).
pub fn r_stationary_for(opts: &RunOptions, l: f64, n: usize) -> Result<f64, CoreError> {
    mtr_problem(opts, l, n)?.r_stationary(
        R_STATIONARY_QUANTILE,
        opts.placements,
        opts.seed ^ 0x5747,
    )
}

/// The stationary MTR instance of `n` nodes on side `l`, sampled on
/// `--threads` workers when that is set.
pub fn mtr_problem(opts: &RunOptions, l: f64, n: usize) -> Result<MtrProblem<2>, CoreError> {
    let problem = MtrProblem::<2>::new(n, l)?;
    Ok(match opts.threads {
        Some(threads) => problem.with_threads(threads),
        None => problem,
    })
}

/// A simple aligned-table printer for stdout.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        println!("{}", line.trim_end());
        println!("{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:>w$}  ");
            }
            println!("{}", line.trim_end());
        }
    }

    /// Writes the table as CSV to `out_dir/name.csv`.
    pub fn write_csv(&self, out_dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("{name}.csv"));
        let mut text = self.headers.join(",");
        text.push('\n');
        for row in &self.rows {
            text.push_str(&row.join(","));
            text.push('\n');
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

/// Formats a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunOptions::parse(&owned)
    }

    #[test]
    fn defaults_are_mid_scale() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.iterations, 20);
        assert_eq!(o.steps, 2_000);
        assert_eq!(o.placements, 1_000);
        assert_eq!(o.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn quick_and_paper_presets() {
        let q = parse(&["--quick"]).unwrap();
        assert_eq!((q.iterations, q.steps), (5, 500));
        let p = parse(&["--paper"]).unwrap();
        assert_eq!((p.iterations, p.steps), (50, PAPER_STEPS));
        assert_eq!(p.placements, 5_000);
    }

    #[test]
    fn overrides_after_preset_win() {
        let o = parse(&["--paper", "--iterations", "7", "--steps", "123"]).unwrap();
        assert_eq!((o.iterations, o.steps), (7, 123));
    }

    #[test]
    fn option_errors() {
        assert!(parse(&["--iterations"]).is_err());
        assert!(parse(&["--iterations", "abc"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--iterations", "0"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        for n in ["0", "1"] {
            let err = parse(&["--nodes", n]).unwrap_err();
            assert!(err.contains("--nodes"), "{err}");
        }
        assert_eq!(parse(&["--nodes", "2"]).unwrap().nodes, Some(2));
    }

    /// The Verlet-cache skin is the step kernel's own choice: every
    /// value the deleted `--skin` flag took is now an unknown option.
    #[test]
    fn skin_flag_is_an_unknown_option() {
        for value in ["auto", "off", "0", "12.5", "-3", "warm"] {
            assert_eq!(
                parse(&["--skin", value]).unwrap_err(),
                "unknown option `--skin`",
                "--skin {value}"
            );
        }
        assert_eq!(parse(&["--skin"]).unwrap_err(), "unknown option `--skin`");
    }

    #[test]
    fn bare_words_are_rejected() {
        for args in [&["t3", "--quick"][..], &["--quick", "waypoint"]] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with("unexpected argument"), "{args:?}: {err}");
        }
        // An option's value is not a bare word.
        assert_eq!(
            parse(&["--out", "t3"]).unwrap().out_dir,
            PathBuf::from("t3")
        );
    }

    #[test]
    fn step_threads_flag_parses_and_validates() {
        assert!(parse(&["--step-threads", "1"]).is_ok());
        let err = parse(&["--step-threads", "2"]).unwrap_err();
        assert!(err.contains("intra-step sharding was removed"), "{err}");
        assert!(parse(&["--step-threads"]).is_err());
        assert!(parse(&["--step-threads", "0"]).is_err());
        assert!(parse(&["--step-threads", "x"]).is_err());
    }

    #[test]
    fn sim_config_carries_every_run_option() {
        let o = parse(&[
            "--threads",
            "3",
            "--seed",
            "9",
            "--iterations",
            "2",
            "--steps",
            "5",
        ])
        .unwrap();
        let c = o.sim_config(16, 256.0).build().unwrap();
        assert_eq!((c.nodes(), c.side()), (16, 256.0));
        assert_eq!((c.iterations(), c.steps(), c.seed()), (2, 5, 9));
        assert_eq!(c.threads(), Some(3));
        // Unset knobs keep the SimConfig defaults.
        let c = parse(&[]).unwrap().sim_config(16, 256.0).build().unwrap();
        assert_eq!(c.threads(), None);
    }

    /// The step kernel's one remaining flag, `--step-threads`, stops
    /// in `RunOptions::parse`: no other experiment source names it.
    #[test]
    fn kernel_knobs_are_read_only_by_sim_config() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name == "common.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                !text.contains("step_threads"),
                "{name} names `step_threads`; set it through RunOptions::sim_config"
            );
        }
    }

    #[test]
    fn observability_flags_parse() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.metrics, None);
        assert!(!o.profile);
        assert!(!o.progress);
        let o = parse(&["--metrics", "out/m.json", "--profile", "--progress"]).unwrap();
        assert_eq!(o.metrics, Some(PathBuf::from("out/m.json")));
        assert!(o.profile);
        assert!(o.progress);
        assert!(parse(&["--metrics"]).is_err());
    }

    #[test]
    fn critical_scaling_flags_parse_and_validate() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.target, 0.99);
        assert_eq!(o.k_target, None);
        assert_eq!(o.n_sweep, None);

        let o = parse(&[
            "--target",
            "0.9",
            "--k-target",
            "2",
            "--n-sweep",
            " 16, 32 ,64 ",
        ])
        .unwrap();
        assert_eq!(o.target, 0.9);
        assert_eq!(o.k_target, Some(2));
        assert_eq!(o.n_sweep.as_deref().unwrap(), [16, 32, 64]);

        assert!(parse(&["--target"]).is_err());
        assert!(parse(&["--target", "0"]).is_err());
        assert!(parse(&["--target", "1.5"]).is_err());
        assert!(parse(&["--target", "nope"]).is_err());
        assert!(parse(&["--k-target", "0"]).is_err());
        assert!(parse(&["--n-sweep"]).is_err());
        assert!(parse(&["--n-sweep", ""]).is_err());
        assert!(parse(&["--n-sweep", "16,x"]).is_err());
        assert!(parse(&["--n-sweep", "16,1"]).is_err());
        // A repeated node count would rerun identical cells and feed
        // duplicate points to the exponent fit.
        assert_eq!(
            parse(&["--n-sweep", "16,32,16"]).unwrap_err(),
            "--n-sweep repeats node count 16"
        );
    }

    #[test]
    fn side_for_preserves_the_paper_base_density() {
        assert_eq!(side_for(16), 256.0);
        // n / l² is constant across the sweep.
        let d16 = 16.0 / (side_for(16) * side_for(16));
        let d64 = 64.0 / (side_for(64) * side_for(64));
        assert!((d16 - d64).abs() < 1e-15);
        assert!(side_for(64) > side_for(16));
    }

    #[test]
    fn scale_steps_anchors_to_paper_horizon() {
        let mut o = RunOptions {
            steps: PAPER_STEPS,
            ..RunOptions::default()
        };
        assert_eq!(o.scale_steps(2000), 2000);
        o.steps = 1000;
        assert_eq!(o.scale_steps(2000), 200);
        assert_eq!(o.scale_steps(0), 0);
    }

    #[test]
    fn nodes_follow_sqrt_l() {
        assert_eq!(nodes_for_side(256.0), 16);
        assert_eq!(nodes_for_side(1024.0), 32);
        assert_eq!(nodes_for_side(4096.0), 64);
        assert_eq!(nodes_for_side(16384.0), 128);
    }

    #[test]
    fn paper_models_match_section_4_2() {
        let o = RunOptions::default();
        assert!(o.model("waypoint", 4096.0).is_ok());
        assert!(o.model("drunkard", 4096.0).is_ok());
        // Tiny region: waypoint speed range is empty.
        assert!(o.model("waypoint", 5.0).is_err());
    }

    #[test]
    fn models_flag_parses_and_validates() {
        let o = parse(&["--models", "gauss-markov,rpgm"]).unwrap();
        assert_eq!(
            o.models.as_deref().unwrap(),
            ["gauss-markov".to_string(), "rpgm".to_string()]
        );
        let o = parse(&["--models", " waypoint , drunkard "]).unwrap();
        assert_eq!(o.models.as_deref().unwrap().len(), 2);
        assert!(parse(&["--models"]).is_err());
        assert!(parse(&["--models", "bogus"]).is_err());
        assert!(parse(&["--models", ""]).is_err());
        assert_eq!(
            parse(&["--models", "waypoint, rpgm,waypoint"]).unwrap_err(),
            "--models repeats model `waypoint`"
        );
    }

    #[test]
    fn resolve_models_defaults_and_overrides() {
        let o = parse(&[]).unwrap();
        let resolved = o.resolve_models(&["waypoint", "drunkard"], 1024.0).unwrap();
        let names: Vec<&str> = resolved.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["waypoint", "drunkard"]);

        let o = parse(&["--models", "rpgm,gauss-markov-wrap"]).unwrap();
        let resolved = o.resolve_models(&["waypoint", "drunkard"], 1024.0).unwrap();
        let names: Vec<&str> = resolved.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["rpgm", "gauss-markov-wrap"]);
    }

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let dir = std::env::temp_dir().join("manet_experiments_test");
        let path = t.write_csv(&dir, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,bb\n1,2\n333,4\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_covers_magnitudes() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234567), "0.1235");
        assert_eq!(fmt(4.5678), "4.568");
        assert_eq!(fmt(12345.6), "12345.6");
    }
}
