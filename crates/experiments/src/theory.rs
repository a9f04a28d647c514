//! T1–T5: numerical validation of the Section 3 theory.

use crate::common::{banner, fmt, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::{occupancy, one_dim, stats, CoreError};
use occupancy::{montecarlo, patterns, LimitLaw, Occupancy, OccupancyDomain};
use rand::{RngExt, SeedableRng};

/// Dispatches the requested theory experiment(s), timing each under a
/// `theory/<tN>` span and reporting coarse progress.
pub fn run(which: &str, opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    let timed = |name: &str,
                 session: &mut ObsSession,
                 f: fn(&RunOptions) -> Result<(), CoreError>|
     -> Result<(), CoreError> {
        session.progress(&format!("theory: {name}"));
        session.span_enter(&format!("theory/{name}"));
        let out = f(opts);
        session.span_exit();
        out
    };
    match which {
        "t1" => timed("t1", session, t1),
        "t2" => timed("t2", session, t2),
        "t3" => timed("t3", session, t3),
        "t4" => timed("t4", session, t4),
        "t5" => timed("t5", session, t5),
        "all" => {
            timed("t1", session, t1)?;
            timed("t2", session, t2)?;
            timed("t3", session, t3)?;
            timed("t4", session, t4)?;
            timed("t5", session, t5)
        }
        other => Err(CoreError::Invalid {
            reason: format!("unknown theory experiment `{other}` (t1..t5|all)"),
        }),
    }
}

/// T1 — Theorem 5 phase transition in 1-D.
///
/// With `n = l` nodes on `[0, l]` and `r = β·(l ln l)/n`, the paper
/// predicts a connectivity threshold at a fixed `β` (for `n = l` the
/// max-gap law puts it at `β = ln n / ln l = 1`): `P(connected) → 0`
/// below, `→ 1` above, sharpening as `l` grows.
pub fn t1(opts: &RunOptions) -> Result<(), CoreError> {
    banner("T1: Theorem 5 phase transition, d=1, n=l (P(connected) vs beta)");
    let betas = [0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5, 2.0];
    let sides = [256.0, 1024.0, 4096.0];
    let trials = (opts.placements / 2).max(100);
    let mut headers: Vec<String> = vec!["l".into(), "n".into()];
    headers.extend(betas.iter().map(|b| format!("b={b}")));
    let mut table = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed ^ 0x71);
    for &l in &sides {
        let n = l as usize;
        let mut cells = vec![fmt(l), n.to_string()];
        for &beta in &betas {
            let r = beta * l * l.ln() / n as f64;
            let mut connected = 0usize;
            for _ in 0..trials {
                let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..l)).collect();
                if one_dim::is_connected_1d(&xs, r)? {
                    connected += 1;
                }
            }
            cells.push(fmt(connected as f64 / trials as f64));
        }
        table.row(cells);
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, "theory_t1")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());

    // Scaling fit: measured threshold r*·n against l·ln l.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &l in &sides {
        let n = l as usize;
        // Bisect beta to the P = 0.5 crossing with modest trials.
        let mut lo = 0.2;
        let mut hi = 2.5;
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            let r = mid * l * l.ln() / n as f64;
            let mut connected = 0usize;
            let probe = 200;
            for _ in 0..probe {
                let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..l)).collect();
                if one_dim::is_connected_1d(&xs, r)? {
                    connected += 1;
                }
            }
            if connected * 2 >= probe {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let beta_star = 0.5 * (lo + hi);
        xs.push(l * l.ln());
        ys.push(beta_star * l * l.ln());
    }
    let fit = stats::LinearFit::through_origin(&xs, &ys)?;
    println!(
        "scaling fit: r*·n = {:.3} · (l ln l), R² = {:.4} (Theorem 5 predicts a constant slope)",
        fit.slope, fit.r_squared
    );
    Ok(())
}

/// T2 — Theorem 1: exact vs asymptotic vs Monte-Carlo moments of
/// `µ(n, C)` in all five occupancy domains.
pub fn t2(opts: &RunOptions) -> Result<(), CoreError> {
    banner("T2: E[mu] and Var[mu] — exact vs Theorem 1 asymptotics vs Monte Carlo");
    let cases: [(&str, u64, u64); 5] = [
        ("CD", 1000, 1000),
        ("RHD", 1711, 300),  // n = C ln C
        ("LHD", 50, 2500),   // n = sqrt(C)
        ("RHID", 2400, 800), // n = 3C
        ("LHID", 500, 2000), // n = C/4
    ];
    let trials = (opts.placements * 10).max(2000) as u64;
    let mut table = Table::new(&[
        "domain", "n", "C", "E_exact", "E_asym", "E_mc", "V_exact", "V_asym", "V_mc",
    ]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed ^ 0x72);
    for (name, n, c) in cases {
        let occ = Occupancy::new(n, c)?;
        let classified = OccupancyDomain::classify(n, c);
        let mut mc = stats::RunningMoments::new();
        for _ in 0..trials {
            mc.push(montecarlo::sample_empty_cells(n, c, &mut rng) as f64);
        }
        table.row(vec![
            format!("{name}({classified:?})"),
            n.to_string(),
            c.to_string(),
            fmt(occ.expected_empty()),
            fmt(occupancy::asymptotic::expected_empty_asymptotic(&occ)),
            fmt(mc.mean()),
            fmt(occ.variance_empty()),
            fmt(occupancy::asymptotic::variance_empty_asymptotic(&occ)),
            fmt(mc.sample_variance()),
        ]);
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, "theory_t2")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// T3 — Theorem 2: the limit law of `µ(n, C)` per domain, measured as
/// the total-variation and max-CDF distance between the **exact** pmf
/// and the limit law.
pub fn t3(opts: &RunOptions) -> Result<(), CoreError> {
    banner("T3: Theorem 2 limit laws — exact pmf vs limit distribution");
    let cases: [(&str, u64, u64); 5] = [
        ("CD", 2000, 2000),
        ("RHD", 2855, 500), // n = C ln C
        ("LHD", 63, 4000),  // n = sqrt(C)
        ("RHID", 6000, 2000),
        ("LHID", 1000, 4000),
    ];
    let mut table = Table::new(&["domain", "n", "C", "limit_law", "tv_dist", "max_cdf_err"]);
    for (name, n, c) in cases {
        let occ = Occupancy::new(n, c)?;
        let law = LimitLaw::for_occupancy(&occ, None)?;
        let pmf = occ.try_distribution()?;
        let mut tv = 0.0;
        let mut max_cdf_err: f64 = 0.0;
        let mut exact_cdf = 0.0;
        for (k, &p) in pmf.iter().enumerate() {
            exact_cdf += p;
            // Limit pmf mass at integer k (continuity-corrected for
            // the Normal case).
            let limit_mass = law.cdf(k as f64 + 0.5) - law.cdf(k as f64 - 0.5);
            tv += (p - limit_mass).abs();
            max_cdf_err = max_cdf_err.max((law.cdf(k as f64 + 0.5) - exact_cdf).abs());
        }
        table.row(vec![
            name.to_string(),
            n.to_string(),
            c.to_string(),
            law.describe(),
            fmt(0.5 * tv),
            fmt(max_cdf_err),
        ]);
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, "theory_t3")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// T4 — Theorem 4: the `{10*1}` gap probability across the threshold.
///
/// With `n = α·C` balls in `C` cells (`α = r·n/l`), Theorem 4 says the
/// gap probability stays bounded away from zero throughout the window
/// `1 << α << ln C`, while Theorem 3 sends it to zero for
/// `α ≳ ln C`. Rows report the exact probability at `α = √(ln C)`
/// (inside the window), `α = ln C` (threshold) and `α = 1.5·ln C`
/// (a.a.s.-connected regime), with a Monte-Carlo cross-check.
pub fn t4(opts: &RunOptions) -> Result<(), CoreError> {
    banner("T4: P(10*1 gap) across the connectivity threshold");
    let cells = [64u64, 256, 1024, 2048];
    let mut table = Table::new(&[
        "C",
        "P_gap(a=sqrt(lnC))",
        "P_gap(a=lnC)",
        "P_gap(a=1.5lnC)",
        "mc_gap(a=sqrt(lnC))",
    ]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed ^ 0x74);
    for &c in &cells {
        let ln_c = (c as f64).ln();
        let alphas = [ln_c.sqrt(), ln_c, 1.5 * ln_c];
        let mut cells_out = vec![c.to_string()];
        let mut first_n = 0u64;
        for (i, &alpha) in alphas.iter().enumerate() {
            let n = (alpha * c as f64).round() as u64;
            if i == 0 {
                first_n = n;
            }
            let occ = Occupancy::new(n, c)?;
            cells_out.push(fmt(patterns::gap_probability(&occ)?));
        }
        // Monte-Carlo cross-check of the first column.
        let trials = (opts.placements * 2).max(500) as u64;
        let mut hits = 0u64;
        for _ in 0..trials {
            let bits = montecarlo::sample_occupancy_bits(first_n, c, &mut rng);
            if patterns::has_gap_pattern(&bits) {
                hits += 1;
            }
        }
        cells_out.push(fmt(hits as f64 / trials as f64));
        table.row(cells_out);
    }
    table.print();
    println!(
        "expectation: the first column stays bounded away from 0 as C grows \
         (Theorem 4); the third tends to 0 (Theorem 3)."
    );
    let path = table
        .write_csv(&opts.out_dir, "theory_t4")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// T5 — why the paper's occupancy bound is the right tool: the
/// `{10*1}` gap witness versus the isolated-node witness of the
/// earlier analysis (\[11\]), against the true disconnection
/// probability, across the critical window (d = 1, Monte Carlo).
pub fn t5(opts: &RunOptions) -> Result<(), CoreError> {
    banner("T5: disconnection witnesses across the window (d=1, l=4096, n=256)");
    let (l, n) = (4096.0, 256usize);
    let trials = (opts.placements * 2).max(500);
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed ^ 0x75);
    // r·n / l = alpha sweep from 1 (window floor) past ln l.
    let alphas = [1.0, 2.0, 4.0, 6.0, 8.0, 8.32, 10.0, 12.0];
    let mut table = Table::new(&[
        "alpha=rn/l",
        "r",
        "P(disconnected)",
        "P(gap witness)",
        "P(isolated witness)",
    ]);
    for &alpha in &alphas {
        let r = alpha * l / n as f64;
        let (mut disc, mut gap, mut iso) = (0u32, 0u32, 0u32);
        for _ in 0..trials {
            let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..l)).collect();
            if !one_dim::is_connected_1d(&xs, r)? {
                disc += 1;
            }
            if one_dim::lemma1_gap_witness(&xs, l, r) {
                gap += 1;
            }
            if one_dim::has_isolated_node(&xs, r)? {
                iso += 1;
            }
        }
        let t = trials as f64;
        table.row(vec![
            fmt(alpha),
            fmt(r),
            fmt(disc as f64 / t),
            fmt(gap as f64 / t),
            fmt(iso as f64 / t),
        ]);
    }
    table.print();
    println!(
        "both witnesses lower-bound P(disconnected); the gap witness tracks it \
         far more tightly across the window (ln l = {:.2})",
        l.ln()
    );
    let path = table
        .write_csv(&opts.out_dir, "theory_t5")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}
