//! LP solver benchmark: the §2.2 path LP at the paper-scale fat-tree k=8
//! and the scale-up k=16, a pure-LP transportation stress series
//! (including transport/1000 and a 1-vs-4-thread A/B at transport/500), a
//! warm-vs-cold grid-sequence comparison, and the
//! delayed-column-generation vs eager-enumeration A/B.
//!
//! Run with `cargo bench -p coflow-bench --bench lp_bench [-- --quick]`.
//! The run writes a machine-readable snapshot to `results/BENCH_lp.json`
//! (wall times + per-solve [`SolveStats`] with the
//! pricing/FTRAN-BTRAN/factorization time breakdown), so factorization
//! behavior, the warm-start win, and the column-generation win are
//! *measured* artifacts, not claims, plus a traced colgen run in
//! `results/TRACE_lp.jsonl`. Every point runs ≥ 3 samples and reports the
//! median **and** the min; `--quick` / `COFLOW_BENCH_QUICK=1` drops from 7
//! to the 3-sample floor for CI runs.

// Experiment binaries fail fast by design: unwrap/expect on I/O and
// solver results is the intended error handling here.
#![allow(clippy::unwrap_used)]

use coflow_core::circuit::lp_free::{
    solve_free_paths_lp_colgen_on_grid, solve_free_paths_lp_paths,
    solve_free_paths_lp_paths_on_grid, ColumnMode, FreePathsLpConfig, PathPool,
};
use coflow_core::intervals::IntervalGrid;
use coflow_core::model::Instance;
use coflow_core::tol;
use coflow_lp::{
    solve_colgen, Cmp, ColGenStats, Model, RowId, SolveStats, SolverOptions, WarmChain,
};
use coflow_net::topo;
use coflow_workloads::gen::generate;
use coflow_workloads::suite::fig3_config;
use std::time::Instant;

/// Transportation-style stress LP: `n` supplies, `n` demands, `n²`
/// variables, dense-ish costs — the classic degenerate phase-1 workload.
fn transport(n: usize) -> Model {
    let mut m = Model::new();
    let mut vars = vec![vec![]; n];
    for (i, row) in vars.iter_mut().enumerate() {
        for j in 0..n {
            row.push(m.add_nonneg(transport_cost(i, j), format!("x{i}_{j}")));
        }
    }
    for (i, row) in vars.iter().enumerate() {
        let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_row(Cmp::Eq, transport_supply(i), &terms);
    }
    for j in 0..n {
        let terms: Vec<_> = vars.iter().map(|row| (row[j], 1.0)).collect();
        m.add_row(Cmp::Le, transport_demand_cap(n), &terms);
    }
    m
}

fn transport_cost(i: usize, j: usize) -> f64 {
    ((i * 7 + j * 13) % 10) as f64 + 1.0
}

fn transport_supply(i: usize) -> f64 {
    1.0 + (i % 3) as f64
}

fn transport_demand_cap(n: usize) -> f64 {
    let total: f64 = (0..n).map(transport_supply).sum();
    total / n as f64 + 1.0
}

/// The same transport LP solved by delayed column generation: the
/// restricted master seeds four spread columns per supply row and each
/// pricing round injects the most-negative-reduced-cost column per supply
/// row (`d_ij = c_ij − y_supply(i) − y_demand(j)` — no search structure
/// needed, the oracle is a scan). Returns the final master's solve stats,
/// the colgen stats, and the objective.
fn transport_colgen(n: usize, opts: &SolverOptions) -> (SolveStats, ColGenStats, f64) {
    let mut m = Model::new();
    let supply_rows: Vec<RowId> = (0..n)
        .map(|i| m.add_row(Cmp::Eq, transport_supply(i), &[]))
        .collect();
    let demand_rows: Vec<RowId> = (0..n)
        .map(|_| m.add_row(Cmp::Le, transport_demand_cap(n), &[]))
        .collect();
    let mut present = vec![false; n * n];
    let add_col = |m: &mut Model, i: usize, j: usize| {
        m.add_column(
            transport_cost(i, j),
            0.0,
            f64::INFINITY,
            format!("x{i}_{j}"),
            &[(supply_rows[i], 1.0), (demand_rows[j], 1.0)],
        );
    };
    for i in 0..n {
        // Small contiguous offsets: enough spread for a feasible seed
        // (any contiguous supply run of length L reaches L+3 demands,
        // comfortably within the demand caps) without accidentally
        // aligning with the periodic cost lattice — the cheap columns
        // still have to be *priced in*.
        for o in [0, 1, 2, 3] {
            let j = (i + o) % n;
            if !std::mem::replace(&mut present[i * n + j], true) {
                add_col(&mut m, i, j);
            }
        }
    }
    let mut chain = WarmChain::new();
    let (sol, cg) = solve_colgen(&mut m, opts, &mut chain, 500, |sol, m| {
        let mut added = 0usize;
        for i in 0..n {
            let yi = sol.dual(supply_rows[i]);
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                if present[i * n + j] {
                    continue;
                }
                let d = transport_cost(i, j) - yi - sol.dual(demand_rows[j]);
                if d < -tol::DUAL_EPS && best.is_none_or(|(_, b)| d < b) {
                    best = Some((j, d));
                }
            }
            if let Some((j, _)) = best {
                present[i * n + j] = true;
                add_col(m, i, j);
                added += 1;
            }
        }
        added
    })
    .expect("transport colgen master must stay solvable");
    (sol.stats, cg, sol.objective)
}

/// Production solver options for benchmarking (no debug verification).
fn production_opts() -> SolverOptions {
    SolverOptions {
        verify: false,
        ..Default::default()
    }
}

/// The threaded configuration for the large points: refill scans whose
/// window reaches `PAR_SCAN_MIN_COLS` (4096 columns, i.e. `m >= 1024`
/// rows) are sectioned across a fixed four workers. Fixed rather than
/// detected so the recorded numbers are comparable across machines; the
/// pivot sequence itself is thread-count invariant by construction.
fn parallel_opts() -> SolverOptions {
    SolverOptions {
        threads: 4,
        ..production_opts()
    }
}

struct Point {
    name: String,
    backend: &'static str,
    wall_ms_median: f64,
    wall_ms_min: f64,
    samples: usize,
    stats: SolveStats,
}

/// One colgen-vs-eager comparison row.
struct ColgenRow {
    name: String,
    eager_wall_ms: f64,
    colgen_wall_ms: f64,
    eager_cols: usize,
    colgen_cols: usize,
    colgen: ColGenStats,
    eager_objective: f64,
    objective_delta: f64,
}

fn fmt_stats(s: &SolveStats) -> String {
    format!(
        concat!(
            "{{\"iterations\":{},\"phase1_iterations\":{},\"refactorizations\":{},",
            "\"factor_nnz\":{},\"basis_nnz\":{},\"fill_ratio\":{:.4},",
            "\"rows\":{},\"cols\":{},\"warm_attempted\":{},\"warm_used\":{},",
            "\"allocs\":{},\"scratch_reuse\":{},",
            "\"pricing_full_scans\":{},\"pricing_list_hits\":{},\"threads\":{},",
            "\"pricing_ms\":{:.3},\"ftran_btran_ms\":{:.3},\"factor_ms\":{:.3}}}"
        ),
        s.iterations,
        s.phase1_iterations,
        s.refactorizations,
        s.factor_nnz,
        s.basis_nnz,
        s.fill_ratio(),
        s.rows,
        s.cols,
        s.warm_attempted,
        s.warm_used,
        s.allocs,
        s.scratch_reuse,
        s.pricing_full_scans,
        s.pricing_list_hits,
        s.threads,
        s.pricing_ms,
        s.ftran_btran_ms,
        s.factor_ms,
    )
}

/// Times `solve` over `samples` runs; returns `(median, min, last result)`
/// wall times in ms.
fn measure_with<T>(samples: usize, mut solve: impl FnMut() -> T) -> (f64, f64, T) {
    assert!(samples >= 3, "report median + min over at least 3 samples");
    let mut times = Vec::with_capacity(samples);
    let mut out = None;
    for _ in 0..samples {
        let t0 = Instant::now();
        out = Some(solve());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], times[0], out.unwrap())
}

fn k8_instance() -> Instance {
    generate(&topo::fat_tree(8, 1.0), &fig3_config(8, 0))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("COFLOW_BENCH_QUICK").is_some_and(|v| v != "0");
    // ≥ 3 samples even in quick mode: single-sample medians are noise.
    let samples = if quick { 3 } else { 7 };
    let mut points: Vec<Point> = Vec::new();
    let mut colgen_rows: Vec<ColgenRow> = Vec::new();

    // Transportation series, production configuration; the 250/500 points
    // double as the eager side of the colgen A/B.
    for n in [100usize, 250, 500] {
        let m = transport(n);
        let (ms, ms_min, sol) = measure_with(samples, || m.solve_with(&production_opts()).unwrap());
        points.push(Point {
            name: format!("raw_simplex/transport/{n}"),
            backend: "sparse-lu",
            wall_ms_median: ms,
            wall_ms_min: ms_min,
            samples,
            stats: sol.stats,
        });
        if n >= 250 {
            let (cg_ms, _, (cg_stats, cg, cg_obj)) =
                measure_with(samples, || transport_colgen(n, &production_opts()));
            colgen_rows.push(ColgenRow {
                name: format!("raw_simplex/transport/{n}"),
                eager_wall_ms: ms,
                colgen_wall_ms: cg_ms,
                eager_cols: sol.stats.cols,
                colgen_cols: cg_stats.cols,
                colgen: cg,
                eager_objective: sol.objective,
                objective_delta: (cg_obj - sol.objective).abs(),
            });
        }
    }
    // The same transport/500 model at four threads. Its m = 1000 rows give
    // a refill window of 4000 columns, under `PAR_SCAN_MIN_COLS` = 4096,
    // so the scan never sections and the pivots and pricing work match the
    // serial "sparse-lu" point above. `perf_gate`'s 2x pricing cut against
    // the committed serial baseline therefore measures the candidate list
    // alone; of the transport points only transport/1000 (m = 2000)
    // sections its scans.
    {
        let m = transport(500);
        let (ms, ms_min, sol) = measure_with(samples, || m.solve_with(&parallel_opts()).unwrap());
        points.push(Point {
            name: "raw_simplex/transport/500".into(),
            backend: "sparse-lu-parallel",
            wall_ms_median: ms,
            wall_ms_min: ms_min,
            samples,
            stats: sol.stats,
        });
    }
    // The scale-up transport point only runs under the threaded
    // configuration: serially it is a multi-second solve per sample.
    {
        let m = transport(1000);
        let (ms, ms_min, sol) = measure_with(samples, || m.solve_with(&parallel_opts()).unwrap());
        points.push(Point {
            name: "raw_simplex/transport/1000".into(),
            backend: "sparse-lu-parallel",
            wall_ms_median: ms,
            wall_ms_min: ms_min,
            samples,
            stats: sol.stats,
        });
    }
    // Paper-scale interval LP (fat-tree k=8, width 8), eager and colgen.
    {
        let inst = k8_instance();
        let cfg = FreePathsLpConfig {
            solver: production_opts(),
            ..Default::default()
        };
        let (ms, ms_min, eager) =
            measure_with(samples, || solve_free_paths_lp_paths(&inst, &cfg).unwrap());
        points.push(Point {
            name: "free_paths_lp/fat_tree_k8/8".into(),
            backend: "sparse-lu",
            wall_ms_median: ms,
            wall_ms_min: ms_min,
            samples,
            stats: eager.base.stats,
        });
        let cfg_cg = FreePathsLpConfig {
            columns: ColumnMode::delayed(),
            ..cfg
        };
        let (cg_ms, cg_ms_min, (cg_lp, cg)) = measure_with(samples, || {
            let grid = IntervalGrid::cover(cfg_cg.eps, inst.horizon());
            let mut pool = PathPool::new();
            solve_free_paths_lp_colgen_on_grid(
                &inst,
                &cfg_cg,
                grid,
                &mut WarmChain::new(),
                &mut pool,
            )
            .unwrap()
        });
        points.push(Point {
            name: "free_paths_lp/fat_tree_k8/8".into(),
            backend: "sparse-lu-colgen",
            wall_ms_median: cg_ms,
            wall_ms_min: cg_ms_min,
            samples,
            stats: cg_lp.base.stats,
        });
        colgen_rows.push(ColgenRow {
            name: "free_paths_lp/fat_tree_k8/8".into(),
            eager_wall_ms: ms,
            colgen_wall_ms: cg_ms,
            eager_cols: eager.base.stats.cols,
            colgen_cols: cg_lp.base.stats.cols,
            colgen: cg,
            eager_objective: eager.base.objective,
            objective_delta: (cg_lp.base.objective - eager.base.objective).abs(),
        });
    }
    // Scale-up interval LP (fat-tree k=16, 1024 hosts, width 8) under the
    // threaded configuration: ~20k eager path columns, so this point is
    // only tractable as a colgen-vs-eager A/B with concurrent oracles.
    {
        let inst = generate(&topo::fat_tree(16, 1.0), &fig3_config(8, 0));
        let cfg = FreePathsLpConfig {
            solver: parallel_opts(),
            ..Default::default()
        };
        let (ms, ms_min, eager) =
            measure_with(samples, || solve_free_paths_lp_paths(&inst, &cfg).unwrap());
        points.push(Point {
            name: "free_paths_lp/fat_tree_k16/8".into(),
            backend: "sparse-lu-parallel",
            wall_ms_median: ms,
            wall_ms_min: ms_min,
            samples,
            stats: eager.base.stats,
        });
        let cfg_cg = FreePathsLpConfig {
            columns: ColumnMode::delayed(),
            ..cfg
        };
        let (cg_ms, cg_ms_min, (cg_lp, cg)) = measure_with(samples, || {
            let grid = IntervalGrid::cover(cfg_cg.eps, inst.horizon());
            let mut pool = PathPool::new();
            solve_free_paths_lp_colgen_on_grid(
                &inst,
                &cfg_cg,
                grid,
                &mut WarmChain::new(),
                &mut pool,
            )
            .unwrap()
        });
        points.push(Point {
            name: "free_paths_lp/fat_tree_k16/8".into(),
            backend: "sparse-lu-colgen-parallel",
            wall_ms_median: cg_ms,
            wall_ms_min: cg_ms_min,
            samples,
            stats: cg_lp.base.stats,
        });
        colgen_rows.push(ColgenRow {
            name: "free_paths_lp/fat_tree_k16/8".into(),
            eager_wall_ms: ms,
            colgen_wall_ms: cg_ms,
            eager_cols: eager.base.stats.cols,
            colgen_cols: cg_lp.base.stats.cols,
            colgen: cg,
            eager_objective: eager.base.objective,
            objective_delta: (cg_lp.base.objective - eager.base.objective).abs(),
        });
    }

    // Warm vs cold on a growing grid sequence of the path LP.
    let inst = generate(&topo::fat_tree(4, 1.0), &fig3_config(4, 0));
    let cfg = FreePathsLpConfig {
        solver: production_opts(),
        ..Default::default()
    };
    let h = inst.horizon();
    let scales = [1.0, 2.0, 4.0];
    let t0 = Instant::now();
    let mut chain = WarmChain::new();
    for s in scales {
        let grid = IntervalGrid::cover(cfg.eps, h * s);
        solve_free_paths_lp_paths_on_grid(&inst, &cfg, grid, &mut chain).unwrap();
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_stats = chain.stats();
    let t0 = Instant::now();
    let mut cold_iters = 0usize;
    for s in scales {
        let grid = IntervalGrid::cover(cfg.eps, h * s);
        let sol =
            solve_free_paths_lp_paths_on_grid(&inst, &cfg, grid, &mut WarmChain::new()).unwrap();
        cold_iters += sol.base.iterations;
    }
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Derived headline numbers.
    let serial500 = points
        .iter()
        .find(|p| p.name.ends_with("transport/500") && p.backend == "sparse-lu")
        .unwrap();
    let par500 = points
        .iter()
        .find(|p| p.name.ends_with("transport/500") && p.backend == "sparse-lu-parallel")
        .unwrap();
    let pricing_speedup = serial500.stats.pricing_ms / par500.stats.pricing_ms;

    let mut json = String::from("{\n  \"schema\": \"coflow-lp-bench/v2\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n  \"points\": [\n"));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\":\"{}\",\"backend\":\"{}\",\"wall_ms_median\":{:.3},\"wall_ms_min\":{:.3},\"samples\":{},\"stats\":{}}}{}\n",
            p.name,
            p.backend,
            p.wall_ms_median,
            p.wall_ms_min,
            p.samples,
            fmt_stats(&p.stats),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"colgen_vs_eager\": [\n");
    for (i, r) in colgen_rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"name\":\"{}\",\"eager_wall_ms\":{:.3},\"colgen_wall_ms\":{:.3},",
                "\"speedup\":{:.2},\"eager_cols\":{},\"colgen_cols\":{},\"column_fraction\":{:.4},",
                "\"rounds\":{},\"seeded_cols\":{},\"generated_cols\":{},",
                "\"pricing_ms\":{:.3},\"master_ms\":{:.3},\"objective_delta\":{:.3e}}}{}\n"
            ),
            r.name,
            r.eager_wall_ms,
            r.colgen_wall_ms,
            r.eager_wall_ms / r.colgen_wall_ms,
            r.eager_cols,
            r.colgen_cols,
            r.colgen_cols as f64 / r.eager_cols as f64,
            r.colgen.rounds,
            r.colgen.seeded_cols,
            r.colgen.generated_cols,
            r.colgen.pricing_ms,
            r.colgen.master_ms,
            r.objective_delta,
            if i + 1 < colgen_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        concat!(
            "  \"warm_vs_cold\": {{\"sequence\":\"free_paths_lp/fat_tree_k4/4 grids x{}\",",
            "\"warm_total_iterations\":{},\"cold_total_iterations\":{},",
            "\"warm_total_phase1\":{},\"warm_used\":{},\"warm_wall_ms\":{:.3},\"cold_wall_ms\":{:.3}}},\n"
        ),
        scales.len(),
        warm_stats.total_iterations,
        cold_iters,
        warm_stats.total_phase1,
        warm_stats.warm_used,
        warm_ms,
        cold_ms,
    ));
    json.push_str(&format!(
        "  \"derived\": {{\"transport500_pricing_speedup_candidate4t_vs_serial\":{pricing_speedup:.2}}}\n}}\n"
    ));

    // Cargo runs benches with the package dir as CWD; anchor the artifact
    // at the workspace-level results/ directory.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).ok();
    std::fs::write(results.join("BENCH_lp.json"), &json).expect("write results/BENCH_lp.json");

    // One traced k16 colgen solve through a persistent chain. The chain's
    // recorder backs both the ColGenStats view and the trace, so the
    // master/oracle span sums must reproduce the stats to float rounding;
    // the JSONL lands next to BENCH_lp.json for `trace_view` and for the
    // CI lane that byte-diffs logical-clock traces between runs.
    {
        let inst = generate(&topo::fat_tree(16, 1.0), &fig3_config(8, 0));
        let cfg_cg = FreePathsLpConfig {
            solver: parallel_opts(),
            columns: ColumnMode::delayed(),
            ..Default::default()
        };
        let grid = IntervalGrid::cover(cfg_cg.eps, inst.horizon());
        let mut pool = PathPool::new();
        let mut chain = WarmChain::new();
        let (_, cg) =
            solve_free_paths_lp_colgen_on_grid(&inst, &cfg_cg, grid, &mut chain, &mut pool)
                .unwrap();
        let trace = chain.take_trace();
        let master_ms = trace.span_total_ms(coflow_obs::SpanName::Master);
        let oracle_ms = trace.span_total_ms(coflow_obs::SpanName::Oracle);
        assert!(
            (master_ms - cg.master_ms).abs() <= tol::OBJ_REL_EPS * (1.0 + cg.master_ms.abs()),
            "trace master span sum {master_ms} disagrees with ColGenStats.master_ms {}",
            cg.master_ms
        );
        assert!(
            (oracle_ms - cg.pricing_ms).abs() <= tol::OBJ_REL_EPS * (1.0 + cg.pricing_ms.abs()),
            "trace oracle span sum {oracle_ms} disagrees with ColGenStats.pricing_ms {}",
            cg.pricing_ms
        );
        assert_eq!(trace.span_count(coflow_obs::SpanName::Master), cg.rounds);
        coflow_workloads::io::write_trace(&results.join("TRACE_lp.jsonl"), &trace)
            .expect("write results/TRACE_lp.jsonl");
        println!(
            "  trace k16 colgen: {} spans ({} rounds), master {master_ms:.1}ms oracle \
             {oracle_ms:.1}ms, clock {} — results/TRACE_lp.jsonl",
            trace.spans.len(),
            cg.rounds,
            trace.mode.as_str(),
        );
    }
    println!(
        "lp_snapshot: warm grid chain {} iters vs cold {} — results/BENCH_lp.json",
        warm_stats.total_iterations, cold_iters,
    );
    println!(
        "  transport/500 at 4 threads: pricing {:.1}ms vs serial {:.1}ms \
         ({pricing_speedup:.2}x), wall {:.1}ms vs {:.1}ms",
        par500.stats.pricing_ms,
        serial500.stats.pricing_ms,
        par500.wall_ms_median,
        serial500.wall_ms_median,
    );
    for r in &colgen_rows {
        println!(
            "  colgen {}: {:.1}ms vs eager {:.1}ms ({:.1}x), {} of {} cols ({:.0}%), \
             {} rounds, obj delta {:.2e}",
            r.name,
            r.colgen_wall_ms,
            r.eager_wall_ms,
            r.eager_wall_ms / r.colgen_wall_ms,
            r.colgen_cols,
            r.eager_cols,
            100.0 * r.colgen_cols as f64 / r.eager_cols as f64,
            r.colgen.rounds,
            r.objective_delta,
        );
    }
    assert!(
        warm_stats.total_iterations < cold_iters,
        "warm-started sequence must need fewer total iterations"
    );
    // Column generation must reproduce the eager optimum on every recorded
    // point and materialize at most a quarter of the eager columns on the
    // headline points (transport/500, fat-tree k8/k16); transport/500 and
    // the k16 scale-up must also be measured wall-clock wins.
    for r in &colgen_rows {
        assert!(
            r.objective_delta <= tol::OBJ_REL_EPS * (1.0 + r.eager_objective.abs()),
            "{}: colgen objective drifted by {:.3e} (eager {})",
            r.name,
            r.objective_delta,
            r.eager_objective
        );
        if r.name.ends_with("transport/500")
            || r.name.contains("fat_tree_k8")
            || r.name.contains("fat_tree_k16")
        {
            assert!(
                4 * r.colgen_cols <= r.eager_cols,
                "{}: colgen cols {} exceed 25% of eager {}",
                r.name,
                r.colgen_cols,
                r.eager_cols
            );
        }
        if r.name.ends_with("transport/500") || r.name.contains("fat_tree_k16") {
            assert!(
                r.colgen_wall_ms < r.eager_wall_ms,
                "{}: colgen {:.1}ms not faster than eager {:.1}ms",
                r.name,
                r.colgen_wall_ms,
                r.eager_wall_ms
            );
        }
    }
}
