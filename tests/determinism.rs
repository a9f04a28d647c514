//! Reproducibility guarantees: every public pipeline is a pure
//! function of its configuration (including the master seed), and is
//! invariant to the worker thread count.

use manet::mobility::RandomWaypoint;
use manet::{AnyModel, ModelRegistry, MtrmProblem, PaperScale, SimConfig};

fn build(seed: u64, threads: usize) -> MtrmProblem<2> {
    build_with(
        RandomWaypoint::new(0.1, 4.0, 10, 0.25).unwrap().into(),
        seed,
        threads,
    )
}

fn build_with(model: AnyModel<2>, seed: u64, threads: usize) -> MtrmProblem<2> {
    MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(14)
            .side(200.0)
            .iterations(6)
            .steps(60)
            .seed(seed)
            .threads(threads)
            .build()
            .unwrap(),
        model,
    )
}

#[test]
fn identical_seeds_identical_solutions() {
    let a = build(42, 2).solve().unwrap();
    let b = build(42, 2).solve().unwrap();
    assert_eq!(a.ranges.r100.mean(), b.ranges.r100.mean());
    assert_eq!(a.ranges.r0.mean(), b.ranges.r0.mean());
    for (x, y) in a
        .critical
        .per_iteration()
        .iter()
        .zip(b.critical.per_iteration())
    {
        assert_eq!(x.as_sorted(), y.as_sorted());
    }
}

#[test]
fn different_seeds_differ() {
    let a = build(42, 2).solve().unwrap();
    let b = build(43, 2).solve().unwrap();
    assert_ne!(a.ranges.r100.mean(), b.ranges.r100.mean());
}

#[test]
fn thread_count_is_invisible() {
    let single = build(7, 1).solve().unwrap();
    let multi = build(7, 4).solve().unwrap();
    for (x, y) in single
        .critical
        .per_iteration()
        .iter()
        .zip(multi.critical.per_iteration())
    {
        assert_eq!(x.as_sorted(), y.as_sorted());
    }
}

/// The second, orthogonal thread knob: `step_threads` pins the
/// intra-step worker count of the sharded bulk rescan inside
/// `DynamicGraph::step`, independently of the per-iteration `threads`
/// fan-out. Both knobs, alone and combined, must be invisible in every
/// artifact — the fixed-range report and (when serde is on) the
/// temporal-trace JSON, byte for byte.
#[test]
fn step_thread_count_is_invisible() {
    let run = |threads: usize, step_threads: usize| {
        MtrmProblem::new(
            SimConfig::<2>::builder()
                .nodes(14)
                .side(200.0)
                .iterations(6)
                .steps(60)
                .seed(20020623)
                .threads(threads)
                .step_threads(step_threads)
                .build()
                .unwrap(),
            AnyModel::from(RandomWaypoint::<2>::new(0.1, 4.0, 10, 0.25).unwrap()),
        )
    };
    let reference = run(1, 1).fixed_range_reports(&[45.0]).unwrap();
    for (threads, step_threads) in [(1, 2), (1, 7), (3, 4)] {
        assert_eq!(
            reference,
            run(threads, step_threads)
                .fixed_range_reports(&[45.0])
                .unwrap(),
            "report depends on (threads={threads}, step_threads={step_threads})"
        );
    }

    #[cfg(feature = "serde")]
    {
        let trace = |threads: usize, step_threads: usize| {
            let summary = run(threads, step_threads).temporal_trace(45.0).unwrap();
            serde_json::to_string(&summary).unwrap()
        };
        let reference = trace(1, 1);
        assert_eq!(reference, trace(1, 4), "step_threads leaked into trace");
        assert_eq!(reference, trace(2, 7), "combined knobs leaked into trace");
    }
}

#[test]
fn campaign_profiles_and_component_fraction_ranges_deterministic() {
    let c1 = build(9, 1).campaign().unwrap();
    let c2 = build(9, 3).campaign().unwrap();
    let a = c1.component_profiles().pooled().unwrap();
    let b = c2.component_profiles().pooled().unwrap();
    assert_eq!(a, b);
    let ra = c1.ranges_for_component_fractions(&[0.75]).unwrap();
    let rb = c2.ranges_for_component_fractions(&[0.75]).unwrap();
    assert_eq!(ra, rb);
}

#[test]
fn fixed_range_reports_deterministic() {
    let a = build(11, 1).fixed_range_reports(&[50.0]).unwrap();
    let b = build(11, 4).fixed_range_reports(&[50.0]).unwrap();
    assert_eq!(a, b);
}

/// The temporal-trace pipeline behind `manet-repro trace` — the
/// delta-stream `DynamicGraph` path, the per-iteration recorders and
/// the campaign aggregation — must produce byte-identical JSON
/// artifacts with the seed held fixed, regardless of the worker
/// thread count.
#[cfg(feature = "serde")]
#[test]
fn trace_artifacts_byte_identical_across_seeds_and_threads() {
    let artifact = |seed: u64, threads: usize| {
        let summary = build(seed, threads).temporal_trace(45.0).unwrap();
        serde_json::to_string(&summary).unwrap()
    };
    // Same seed, same bytes — across reruns and thread counts.
    let reference = artifact(20020623, 1);
    assert_eq!(reference, artifact(20020623, 1));
    assert_eq!(reference, artifact(20020623, 2));
    assert_eq!(reference, artifact(20020623, 4));
    assert!(reference.contains("link_lifetime"));
    assert!(reference.contains("inter_contact"));
    assert!(reference.contains("outage"));
    assert!(reference.contains("repair"));
    // A different seed really changes the artifact.
    assert_ne!(reference, artifact(20020624, 2));
}

/// The deterministic telemetry plane: the kernel counters folded into
/// a trace summary are `u64` event counts merged commutatively across
/// iterations, so their JSON encoding must be byte-identical across
/// thread counts — the exact property the `--metrics` artifact's CI
/// gate relies on — and must actually count the work (nonzero).
#[cfg(feature = "serde")]
#[test]
fn kernel_counters_byte_identical_across_threads() {
    let counters = |threads: usize| {
        let summary = build(20020623, threads).temporal_trace(45.0).unwrap();
        serde_json::to_string(&summary.kernel).unwrap()
    };
    let reference = counters(1);
    assert_eq!(reference, counters(2));
    assert_eq!(reference, counters(4));

    let kernel = build(20020623, 2).temporal_trace(45.0).unwrap().kernel;
    // 6 iterations x 60 views: view 0 builds the graph, the other 59
    // advance it, and the component tracker applies all 60 diffs.
    assert_eq!(kernel.step.steps, 6 * 59);
    assert_eq!(
        kernel.step.incremental_steps
            + kernel.step.bulk_rescan_steps
            + kernel.step.cache_verify_steps
            + kernel.step.fallback_steps,
        kernel.step.steps
    );
    assert_eq!(kernel.components.applies, 6 * 60);
    assert!(kernel.step.moved_nodes > 0, "nothing moved?");
    // With the Verlet cache armed (the default), verify steps leave the
    // grid frozen: movement shows up as relocations on legacy steps or
    // as widened-cell rebuild resets, whichever path the run took.
    assert!(
        kernel.grid.relocations + kernel.grid.resets > 0,
        "grid never touched"
    );
}

/// Every registry model — including the zoo families added on top of
/// the paper's two — must produce identical solutions and fixed-range
/// reports regardless of the worker thread count, and the trace JSON
/// must be byte-identical (seed fixed).
#[test]
fn registry_zoo_is_thread_invariant() {
    let registry = ModelRegistry::<2>::with_builtins();
    let scale = PaperScale::new(200.0).with_pause(10);
    for name in ["gauss-markov", "rpgm", "walk-wrap", "gauss-markov-bounce"] {
        let run = |threads: usize| {
            let model = registry.build(name, &scale).unwrap();
            let p = build_with(model, 20020623, threads);
            let sol = p.solve().unwrap();
            let report = p.fixed_range_reports(&[45.0]).unwrap();
            (sol, report)
        };
        let (sol_1, rep_1) = run(1);
        let (sol_4, rep_4) = run(4);
        assert_eq!(
            sol_1.ranges.r100.mean(),
            sol_4.ranges.r100.mean(),
            "{name}: r100 depends on thread count"
        );
        assert_eq!(rep_1, rep_4, "{name}: fixed-range report not invariant");

        #[cfg(feature = "serde")]
        {
            let trace = |threads: usize| {
                let model = registry.build(name, &scale).unwrap();
                let summary = build_with(model, 20020623, threads)
                    .temporal_trace(45.0)
                    .unwrap();
                serde_json::to_string(&summary).unwrap()
            };
            assert_eq!(trace(1), trace(3), "{name}: trace JSON not byte-identical");
        }
    }
}

/// Workspace smoke test: the entire stack — geometry, mobility, graph,
/// simulation, statistics, and (when enabled) serde — reproduces
/// byte-identical artifacts from identical seeds in a single pass.
#[test]
fn workspace_smoke_identical_seeds_identical_artifacts() {
    let run = |seed: u64| {
        let solution = build(seed, 2).solve().unwrap();
        let report = build(seed, 2).fixed_range_reports(&[45.0]).unwrap();
        (solution, report)
    };
    let (sol_a, rep_a) = run(20020623);
    let (sol_b, rep_b) = run(20020623);

    assert_eq!(sol_a.ranges.r100.mean(), sol_b.ranges.r100.mean());
    assert_eq!(sol_a.ranges.r90.mean(), sol_b.ranges.r90.mean());
    assert_eq!(sol_a.ranges.r10.mean(), sol_b.ranges.r10.mean());
    assert_eq!(sol_a.ranges.r0.mean(), sol_b.ranges.r0.mean());
    assert_eq!(rep_a, rep_b);

    #[cfg(feature = "serde")]
    {
        let json_a = serde_json::to_string(&rep_a).unwrap();
        let json_b = serde_json::to_string(&rep_b).unwrap();
        assert_eq!(json_a, json_b);
        assert!(!json_a.is_empty());
    }

    // And a different seed really does change the artifact.
    let (sol_c, _) = run(20020624);
    assert_ne!(sol_a.ranges.r100.mean(), sol_c.ranges.r100.mean());
}

/// The batched sweep scheduler is a pure function of (jobs, cached
/// slots, job function): full simulation campaigns scheduled across
/// {1, 2, 4, 7} workers produce bit-identical results.
#[test]
fn sweep_scheduler_thread_count_and_budget_are_invisible() {
    use manet::sim::SweepScheduler;

    let seeds: Vec<u64> = vec![3, 7, 20020623];
    let job = |_: usize, seed: &u64| {
        let sol = build(*seed, 1)
            .solve()
            .map_err(|e| manet::sim::SimError::InvalidConfig {
                reason: e.to_string(),
            })?;
        Ok(sol.ranges.r100.mean().to_bits())
    };
    let fresh = || seeds.iter().map(|_| None).collect::<Vec<_>>();

    let reference = SweepScheduler::new(1)
        .run(&seeds, fresh(), job)
        .unwrap()
        .into_complete()
        .unwrap();
    for threads in [2, 4, 7] {
        let bits = SweepScheduler::new(threads)
            .run(&seeds, fresh(), job)
            .unwrap()
            .into_complete()
            .unwrap();
        assert_eq!(bits, reference, "sweep bits changed at {threads} threads");
    }
}
