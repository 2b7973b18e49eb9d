//! Property tests tying the online engine back to the offline pipeline.
//!
//! * **Offline equivalence** — with every release at 0 the canonical trace
//!   admits everything in one epoch; under an arrivals-only trigger the
//!   engine's `LpOrder` policy then *is* the offline §2.2 pipeline (same
//!   LP, same rounding seed, same order) driven by the same shared fluid
//!   allocator, so the weighted completion times must agree exactly.
//! * **Feasibility invariants** — on arbitrary arrival streams, every
//!   policy's realized schedule passes the §1.1 checker: rate allocations
//!   never exceed any link capacity at any event time, releases are
//!   respected, and all demanded volume is delivered.

use coflow_core::circuit::lp_free::{solve_free_paths_lp_paths, FreePathsLpConfig};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig};
use coflow_core::order::lp_order;
use coflow_engine::{run, EngineConfig, EpochTrigger, Fifo, Greedy, LpOrder, WeightedFair};
use coflow_sim::fluid::{simulate, SimConfig};
use coflow_workloads::gen::{generate, GenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All releases at 0 + a single epoch ⇒ `LpOrder` reproduces the
    /// offline circuit schedule's weighted completion time exactly.
    #[test]
    fn single_epoch_lp_order_matches_offline(n in 1usize..4, w in 1usize..4, seed in 0u64..200) {
        let topo = coflow_net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &GenConfig {
            n_coflows: n,
            width: w,
            size_mean: 3.0,
            arrival_rate: 0.0,
            jitter_rate: 0.0,
            seed,
            ..Default::default()
        });
        let lp_cfg = FreePathsLpConfig::default();
        let round_cfg = FreeRoundingConfig { seed, ..Default::default() };

        // Offline reference: LP → rounding → LP order → fluid simulation.
        let lp = solve_free_paths_lp_paths(&inst, &lp_cfg).unwrap();
        let rounding = round_free_paths(&inst, &lp, &round_cfg);
        let order = lp_order(&inst, &lp.base);
        let offline = simulate(&inst, &rounding.paths, &order, &SimConfig::default());

        // Online engine, single epoch (everything arrives at t = 0 and the
        // trigger never fires again).
        let mut pol = LpOrder::new(lp_cfg, round_cfg);
        let cfg = EngineConfig { trigger: EpochTrigger::arrivals_only(), ..Default::default() };
        let online = run(&inst, &mut pol, &cfg);

        // All arrivals at 0 must make exactly one epoch.
        prop_assert_eq!(online.engine.epochs, 1);
        prop_assert!(
            (online.metrics.weighted_sum - offline.metrics.weighted_sum).abs() < 1e-9,
            "online {} vs offline {}",
            online.metrics.weighted_sum,
            offline.metrics.weighted_sum
        );
        for (a, b) in online.flow_completion.iter().zip(&offline.flow_completion) {
            prop_assert!((a - b).abs() < 1e-9, "flow completions diverge: {a} vs {b}");
        }
    }

    /// On Poisson arrival streams, every policy's fluid rate allocations
    /// never exceed link capacity at any event time (and the schedule is
    /// feasible end to end: releases respected, volume delivered).
    #[test]
    fn rates_never_exceed_capacity(n in 1usize..4, w in 1usize..3, seed in 0u64..200) {
        let topo = coflow_net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &GenConfig {
            n_coflows: n,
            width: w,
            size_mean: 3.0,
            arrival_rate: 0.7,
            jitter_rate: 2.0,
            seed,
            ..Default::default()
        });
        let (mut fifo, mut greedy, mut fair, mut lp) =
            (Fifo, Greedy, WeightedFair, LpOrder::default());
        let policies: Vec<(&str, &mut dyn coflow_engine::OnlinePolicy)> = vec![
            ("Fifo", &mut fifo),
            ("Greedy", &mut greedy),
            ("WeightedFair", &mut fair),
            ("LpOrder", &mut lp),
        ];
        for (name, pol) in policies {
            let out = run(&inst, pol, &EngineConfig::default());
            let routed = inst.with_paths(&out.paths);
            // The checker enforces per-edge capacity at *every* segment
            // boundary (i.e. every event time), release times, and exact
            // demand delivery.
            let violations = out.schedule.check(&routed, 1e-6, 1e-6);
            prop_assert!(violations.is_empty(), "{name}: {violations:?}");
            for (_, flat, spec) in inst.flows() {
                prop_assert!(
                    out.flow_completion[flat] >= spec.release - 1e-9,
                    "{name}: flow {flat} completes before release"
                );
            }
            let delivered: f64 = out.schedule.flows.iter().map(|f| f.delivered()).sum();
            prop_assert!(
                (delivered - inst.total_size()).abs() < 1e-5 * (1.0 + inst.total_size()),
                "{name}: delivered {delivered} vs demand {}",
                inst.total_size()
            );
        }
    }

    /// Warm-started epoch sequences reach the same realized objective as
    /// cold ones (the basis reuse is a pure speed lever), while reusing
    /// the previous basis in most epochs.
    #[test]
    fn warm_and_cold_lp_runs_agree(seed in 0u64..100) {
        let topo = coflow_net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &GenConfig {
            n_coflows: 3,
            width: 2,
            size_mean: 3.0,
            arrival_rate: 0.5,
            jitter_rate: 0.0,
            seed,
            ..Default::default()
        });
        let mk = || (FreePathsLpConfig::default(), FreeRoundingConfig { seed, ..Default::default() });
        let (lc, rc) = mk();
        let warm = run(&inst, &mut LpOrder::new(lc, rc), &EngineConfig::default());
        let (lc, rc) = mk();
        let cold = run(&inst, &mut LpOrder::cold(lc, rc), &EngineConfig::default());
        prop_assert!(
            (warm.metrics.weighted_sum - cold.metrics.weighted_sum).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.metrics.weighted_sum,
            cold.metrics.weighted_sum
        );
        prop_assert_eq!(cold.engine.warm_attempted, 0);
        if warm.engine.epochs > 1 {
            prop_assert!(warm.engine.warm_attempted > 0);
        }
    }
}

/// Column-generation epoch re-solves with a cross-epoch pool: the realized
/// schedule stays feasible, colgen metrics land in the engine log, and the
/// pooled run never generates more columns than the cold-pool baseline
/// (later epochs are seeded with earlier epochs' discoveries).
#[test]
fn colgen_pooled_epochs_feasible_and_reuse_columns() {
    let topo = coflow_net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 4,
            width: 3,
            size_mean: 3.0,
            arrival_rate: 0.5,
            jitter_rate: 0.0,
            seed: 7,
            ..Default::default()
        },
    );
    let mk = || {
        (
            FreePathsLpConfig::default(),
            FreeRoundingConfig {
                seed: 7,
                ..Default::default()
            },
        )
    };
    let (lc, rc) = mk();
    let mut pooled_policy = LpOrder::colgen(lc, rc);
    let pooled = run(&inst, &mut pooled_policy, &EngineConfig::default());
    let (lc, rc) = mk();
    let coldpool = run(
        &inst,
        &mut LpOrder::colgen_cold_pool(lc, rc),
        &EngineConfig::default(),
    );

    for out in [&pooled, &coldpool] {
        let routed = inst.with_paths(&out.paths);
        let violations = out.schedule.check(&routed, 1e-6, 1e-6);
        assert!(violations.is_empty(), "{violations:?}");
    }
    assert!(
        pooled.engine.total_columns > 0,
        "colgen stats must be logged"
    );
    assert!(pooled
        .engine
        .epoch_log
        .iter()
        .all(|e| e.solve.is_none() || e.colgen.is_some()));
    assert!(
        pooled.engine.total_columns_generated <= coldpool.engine.total_columns_generated,
        "pooled epochs must not price more columns than cold pools ({} vs {})",
        pooled.engine.total_columns_generated,
        coldpool.engine.total_columns_generated
    );
    assert!(
        pooled_policy.pooled_paths() > 0,
        "the cross-epoch pool must retain generated paths"
    );
}

/// Steady-state epoch re-solves run entirely inside retained scratch:
/// with every coflow arriving at t = 0 there is a single admission, so
/// after the first epoch the LP keeps its shape (completed flows freeze
/// at size 0 instead of dropping out) and every warm re-solve through the
/// pooled colgen policy must report `allocs == 0` — the certificate that
/// the whole solve (assembly, factorization, pricing, warm-start probing)
/// was served from capacity retained in the policy's `Scratch`. See the
/// counting contract on `coflow_lp::scratch`.
#[test]
fn steady_state_epochs_allocate_nothing() {
    let topo = coflow_net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 5,
            width: 3,
            size_mean: 3.0,
            arrival_rate: 0.0,
            jitter_rate: 0.0,
            seed: 11,
            ..Default::default()
        },
    );
    let lc = FreePathsLpConfig::default();
    let rc = FreeRoundingConfig {
        seed: 11,
        ..Default::default()
    };
    let mut pol = LpOrder::colgen(lc, rc);
    let out = run(&inst, &mut pol, &EngineConfig::default());
    let solves: Vec<_> = out
        .engine
        .epoch_log
        .iter()
        .filter_map(|e| e.solve)
        .collect();
    assert!(
        solves.len() >= 2,
        "need completion-triggered epochs after the first (got {})",
        solves.len()
    );
    assert!(
        solves[0].scratch_reuse > 0,
        "even the first epoch's colgen rounds reuse scratch within the solve chain"
    );
    for (i, s) in solves.iter().enumerate().skip(1) {
        assert_eq!(
            s.allocs, 0,
            "epoch {i} re-solve allocated outside retained scratch (reuse {})",
            s.scratch_reuse
        );
    }
    // The allocs == 0 contract above held with the trace sink attached:
    // the recorder lives inside the same retained scratch, so recording
    // epoch/plan spans and the resolve histogram must not count as an
    // allocation. The trace proves the sink was live, not a no-op.
    let trace = &out.trace;
    assert!(!trace.is_empty(), "engine trace must record spans");
    assert_eq!(
        trace.span_count(coflow_obs::SpanName::Epoch),
        out.engine.epochs,
        "one epoch span per engine epoch"
    );
    assert_eq!(
        trace.counter(coflow_obs::Counter::Epochs) as usize,
        out.engine.epochs,
        "epoch counter tracks the epoch count"
    );
    assert_eq!(
        trace.hists[coflow_obs::HistId::Resolve as usize].total() as usize,
        out.engine.epochs,
        "one resolve-latency sample per epoch"
    );
}

/// The allocation-free steady-state contract survives the threaded
/// configuration: candidate-list pricing plus concurrent colgen oracles
/// (`threads >= 2`) route all per-worker state through retained scratch,
/// so warm epoch re-solves still report `allocs == 0` and record the
/// thread knob in their stats.
#[test]
fn steady_state_epochs_allocate_nothing_with_parallel_oracles() {
    use coflow_lp::SolverOptions;
    let topo = coflow_net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 5,
            width: 3,
            size_mean: 3.0,
            arrival_rate: 0.0,
            jitter_rate: 0.0,
            seed: 11,
            ..Default::default()
        },
    );
    let lc = FreePathsLpConfig {
        solver: SolverOptions {
            threads: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let rc = FreeRoundingConfig {
        seed: 11,
        ..Default::default()
    };
    let mut pol = LpOrder::colgen(lc, rc);
    let out = run(&inst, &mut pol, &EngineConfig::default());
    let solves: Vec<_> = out
        .engine
        .epoch_log
        .iter()
        .filter_map(|e| e.solve)
        .collect();
    assert!(
        solves.len() >= 2,
        "need completion-triggered epochs after the first (got {})",
        solves.len()
    );
    for (i, s) in solves.iter().enumerate() {
        assert_eq!(s.threads, 4, "epoch {i} must record the thread knob");
        if i > 0 {
            assert_eq!(
                s.allocs, 0,
                "epoch {i} threaded re-solve allocated outside retained scratch (reuse {})",
                s.scratch_reuse
            );
        }
    }
}
