//! `manet-repro` — regenerates every figure of Santi & Blough
//! (DSN 2002) plus the Section 3 theory-validation experiments.
//!
//! ```text
//! manet-repro <command> [options]
//!
//! commands:
//!   fig2 .. fig9     one paper figure each
//!   figs             figures 2-9
//!   stationary       S1: r_stationary calibration table
//!   theory [tN]      T1-T5 Section 3 validations (default: all)
//!   quantity         X1: quantity-of-mobility comparison (extension)
//!   uptime           X2: outage structure (MTBF/MTTR) at the tiers (extension)
//!   trace            X3: temporal connectivity traces (extension)
//!   fixed            X4: fixed-range simulator sweep (extension)
//!   critical-scaling X5: critical-range finite-size scaling (extension)
//!   all              everything above
//!
//! options:
//!   --quick          CI-sized run (5 iterations x 500 steps)
//!   --paper          paper-fidelity run (50 iterations x 10000 steps)
//!   --iterations N   override iteration count
//!   --steps N        override mobility steps per iteration
//!   --placements N   stationary placements for r_stationary
//!   --seed N         master seed (default 20020623)
//!   --threads N      pin worker threads
//!   --out DIR        CSV output directory (default results/)
//!   --models A,B,..  mobility models for quantity/uptime/fixed/trace
//!                    (registry names, e.g. gauss-markov,rpgm)
//!   --nodes N        node-count override for trace/fixed/uptime/
//!                    quantity (defaults n = 32, 32, 64, 32; N >= 2)
//!   --step-threads 1 accepted for compatibility; the step kernel is
//!                    serial and any other value is an error
//!   --metrics PATH   write metrics.json (run manifest + deterministic
//!                    kernel counters + spans) to PATH
//!   --profile        arm wall-clock span profiling; span table goes
//!                    to stderr (and into --metrics when given)
//!   --progress       coarse progress lines on stderr (sweep point
//!                    i/N); stdout and artifacts stay byte-identical
//!   --target F       connectivity level the critical-scaling
//!                    critical range must reach (default 0.99)
//!   --k-target K     critical-scaling: threshold k-vertex-
//!                    connectivity instead of giant-component fraction,
//!                    exactly, from each step's k-connectivity
//!                    threshold (k >= 4 runs max-flows: slow past
//!                    n = 32)
//!   --n-sweep A,B,.. critical-scaling node counts (default 16,32,64);
//!                    the region side scales as side_for(n) so node
//!                    density stays at the paper's base density
//! ```
//!
//! Without `--paper`, pause times and sweep axes that the paper ties to
//! its 10000-step horizon are scaled by `steps / 10000` so the mobility
//! mix stays comparable at smaller horizons (see DESIGN.md).

mod common;
mod figures;
mod fixed;
mod obs;
mod quantity;
mod scaling;
mod stationary;
mod theory;
mod trace;
mod uptime;

use common::RunOptions;
use obs::ObsSession;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        print_usage();
        return;
    }
    let command = args[0].clone();
    // `theory` takes one bare word, its selector, right after the
    // command; every other argument is an option.
    let (selector, rest) = match args.get(1).map(String::as_str) {
        Some(w @ ("t1" | "t2" | "t3" | "t4" | "t5" | "all")) if command == "theory" => {
            (Some(w), &args[2..])
        }
        _ => (None, &args[1..]),
    };
    let opts = match RunOptions::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };

    let mut session = ObsSession::new(&command, &opts);
    let s = &mut session;
    let result = match command.as_str() {
        "fig2" => figures::fig2(&opts, s, &mut Default::default()),
        "fig3" => figures::fig3(&opts, s, &mut Default::default()),
        "fig4" => figures::fig4(&opts, s, &mut Default::default()),
        "fig5" => figures::fig5(&opts, s, &mut Default::default()),
        "fig6" => figures::fig6(&opts, s, &mut Default::default()),
        "fig7" => figures::fig7(&opts, s, &mut Default::default()),
        "fig8" => figures::fig8(&opts, s, &mut Default::default()),
        "fig9" => figures::fig9(&opts, s, &mut Default::default()),
        "figs" => figures::all(&opts, s),
        "stationary" => stationary::run(&opts, s),
        "quantity" => quantity::run(&opts, s),
        "uptime" => uptime::run(&opts, s),
        "fixed" => fixed::run(&opts, s),
        "trace" => trace::run(&opts, s),
        "critical-scaling" => scaling::run(&opts, s),
        "theory" => theory::run(selector.unwrap_or("all"), &opts, s),
        "all" => stationary::run(&opts, s)
            .and_then(|_| figures::all(&opts, s))
            .and_then(|_| theory::run("all", &opts, s))
            .and_then(|_| quantity::run(&opts, s))
            .and_then(|_| uptime::run(&opts, s))
            .and_then(|_| fixed::run(&opts, s))
            .and_then(|_| trace::run(&opts, s))
            .and_then(|_| scaling::run(&opts, s)),
        other => {
            eprintln!("error: unknown command `{other}`");
            print_usage();
            std::process::exit(2);
        }
    };

    let result = result.and_then(|()| session.finish());
    if let Err(e) = result {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}

fn print_usage() {
    println!(
        "manet-repro: reproduce Santi & Blough (DSN 2002)\n\n\
         usage: manet-repro <fig2|...|fig9|figs|stationary|theory [tN]|quantity|uptime|fixed|trace|critical-scaling|all> [options]\n\
         options: --quick | --paper | --iterations N | --steps N | --placements N\n\
         \x20        --seed N | --threads N | --step-threads 1 | --out DIR\n\
         \x20        --models A,B,.. | --nodes N (trace/fixed/uptime/quantity)\n\
         \x20        --metrics PATH | --profile | --progress\n\
         \x20        --target F | --k-target K | --n-sweep A,B,.. (critical-scaling)"
    );
}
