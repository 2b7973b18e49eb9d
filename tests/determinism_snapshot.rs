//! Byte-reproducibility audit for the full pipeline (coflow-lint rule L3's
//! end-to-end counterpart): generate a seeded instance, solve the free-paths
//! LP, round it, run the online engine, and serialize everything —
//! twice, in the same process — and require the two serializations to be
//! *byte-identical*. Any nondeterminism (hash-map iteration leaking into
//! output order, unseeded randomness, time-dependent tie-breaks) shows up
//! here as a diff, not as a flaky downstream test.

use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};
use coflow::workloads::io::to_json;

/// Formats a float with full round-trip precision so the snapshot is
/// sensitive to the last bit, not just display rounding.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// One full pipeline run serialized into a canonical byte string.
fn pipeline_snapshot() -> String {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let instance = generate(
        &topo,
        &GenConfig {
            n_coflows: 6,
            width: 3,
            size_mean: 2.0,
            weight_mean: 1.0,
            arrival_rate: 0.5,
            jitter_rate: 0.0,
            seed: 7,
        },
    );
    assert!(instance.validate().is_empty());

    let mut out = String::new();

    // 1. The instance itself (JSON round-trip surface).
    out.push_str("== instance ==\n");
    out.push_str(&to_json(&instance).expect("instance serializes"));
    out.push('\n');

    // 2. Offline LP solve + rounding. The simplex's refill scans honor
    // `SolverOptions::threads` (defaulted from `COFLOW_LP_THREADS`); the
    // parallel sectioned merge is exact, so these bits must not move at
    // any thread count. CI byte-diffs this whole snapshot between
    // `COFLOW_LP_THREADS=1` and `=4` runs. (Deliberately no thread count
    // in the output — only solver results belong in the snapshot.)
    let lp = solve_free_paths_lp_paths(&instance, &FreePathsLpConfig::default())
        .expect("generated instance is feasible");
    out.push_str("== lp ==\n");
    out.push_str(&format!("objective {}\n", bits(lp.base.objective)));
    for (i, c) in lp.base.flow_completion.iter().enumerate() {
        out.push_str(&format!("c[{i}] {}\n", bits(*c)));
    }
    let rounding = round_free_paths(&instance, &lp, &FreeRoundingConfig::default());
    out.push_str("== rounding ==\n");
    for (i, p) in rounding.paths.iter().enumerate() {
        let edges: Vec<String> = p.edges.iter().map(|e| e.0.to_string()).collect();
        out.push_str(&format!("path[{i}] {}\n", edges.join(",")));
    }
    for (i, s) in rounding.rounded.schedule.flows.iter().enumerate() {
        for seg in &s.segments {
            out.push_str(&format!(
                "seg[{i}] {} {} {}\n",
                bits(seg.start),
                bits(seg.end),
                bits(seg.rate)
            ));
        }
    }

    // 3. Online engine epochs over the canonical arrival trace.
    let mut policy = LpOrder::default();
    let outcome = run_online(&instance, &mut policy, &EngineConfig::default());
    out.push_str("== engine ==\n");
    for (i, c) in outcome.flow_completion.iter().enumerate() {
        out.push_str(&format!("done[{i}] {}\n", bits(*c)));
    }
    for (i, p) in outcome.paths.iter().enumerate() {
        let edges: Vec<String> = p.edges.iter().map(|e| e.0.to_string()).collect();
        out.push_str(&format!("route[{i}] {}\n", edges.join(",")));
    }
    out.push_str(&format!(
        "weighted_sum {}\nepochs {}\n",
        bits(outcome.metrics.weighted_sum),
        outcome.engine.epochs
    ));
    out
}

#[test]
fn pipeline_is_byte_reproducible_in_process() {
    let a = pipeline_snapshot();
    let b = pipeline_snapshot();
    // CI's determinism lane sets `COFLOW_SNAPSHOT_OUT` and runs this test
    // under different `COFLOW_LP_THREADS` values, then byte-diffs the
    // written snapshots across runs.
    if let Ok(path) = std::env::var("COFLOW_SNAPSHOT_OUT") {
        std::fs::write(&path, &a).expect("write snapshot to COFLOW_SNAPSHOT_OUT");
    }
    // Compare as bytes and report the first diverging line on failure.
    if a != b {
        for (la, lb) in a.lines().zip(b.lines()) {
            assert_eq!(la, lb, "first diverging snapshot line");
        }
        panic!(
            "snapshots differ in length: {} vs {} bytes",
            a.len(),
            b.len()
        );
    }
    assert_eq!(a.as_bytes(), b.as_bytes());
}
