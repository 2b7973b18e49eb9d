//! Byte-reproducibility audit for the full pipeline (coflow-lint rule L3's
//! end-to-end counterpart): generate a seeded instance, solve the free-paths
//! LP, round it, run the online engine, solve the given-paths LP on BFS
//! routes, run both packet pipelines on a small grid instance, and
//! serialize everything — twice, in the same process — and require the two
//! serializations to be *byte-identical*. Any nondeterminism (hash-map iteration leaking into
//! output order, unseeded randomness, time-dependent tie-breaks) shows up
//! here as a diff, not as a flaky downstream test.

use coflow::algo::PacketSchedule;
use coflow::net::Path;
use coflow::prelude::*;
use coflow::workloads::gen::{generate, generate_packets, GenConfig};
use coflow::workloads::io::to_json;

/// Formats a float with full round-trip precision so the snapshot is
/// sensitive to the last bit, not just display rounding.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Appends one `name[i] e0,e1,...` line per path.
fn push_paths<'a>(out: &mut String, name: &str, paths: impl Iterator<Item = &'a Path>) {
    for (i, p) in paths.enumerate() {
        let edges: Vec<String> = p.edges.iter().map(|e| e.0.to_string()).collect();
        out.push_str(&format!("{name}[{i}] {}\n", edges.join(",")));
    }
}

/// Appends a packet pipeline's LP objective, moves and realized objective.
fn push_packet_run(out: &mut String, lp_objective: f64, schedule: &PacketSchedule, m: &Metrics) {
    out.push_str(&format!("objective {}\n", bits(lp_objective)));
    for (i, moves) in schedule.packets.iter().enumerate() {
        let mv: Vec<String> = moves
            .iter()
            .map(|m| format!("{}@{}", m.edge.0, m.depart))
            .collect();
        out.push_str(&format!("moves[{i}] {}\n", mv.join(",")));
    }
    out.push_str(&format!("weighted_sum {}\n", bits(m.weighted_sum)));
}

/// BFS shortest path per flow, in flat order.
fn bfs_routes(instance: &Instance) -> Vec<Path> {
    instance
        .flows()
        .map(|(_, _, f)| {
            coflow::net::paths::bfs_shortest_path(&instance.graph, f.src, f.dst)
                .expect("generated endpoints are connected")
        })
        .collect()
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
    push_paths(&mut out, "path", rounding.paths.iter());
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
    push_paths(&mut out, "route", outcome.paths.iter());
    out.push_str(&format!(
        "weighted_sum {}\nepochs {}\n",
        bits(outcome.metrics.weighted_sum),
        outcome.engine.epochs
    ));

    // 4. §2.1: the given-paths LP on the same instance with BFS routes.
    let routed = instance.with_paths(&bfs_routes(&instance));
    let given = solve_given_paths_lp(&routed, &GivenPathsLpConfig::default())
        .expect("routed instance is feasible");
    out.push_str("== lp given ==\n");
    out.push_str(&format!("objective {}\n", bits(given.objective)));
    for (i, c) in given.flow_completion.iter().enumerate() {
        out.push_str(&format!("c[{i}] {}\n", bits(*c)));
    }

    // 5. §3.1 and §3.2 on a small unit-packet instance.
    let grid = coflow::net::topo::grid(4, 4, 1.0);
    let packets = generate_packets(
        &grid,
        &GenConfig {
            n_coflows: 4,
            width: 3,
            seed: 7,
            ..Default::default()
        },
    );
    let routed = packets.with_paths(&bfs_routes(&packets));
    let jobshop = schedule_given_paths(&routed, &PacketConfig::default())
        .expect("routed packet instance is feasible");
    out.push_str("== packet given ==\n");
    push_packet_run(
        &mut out,
        jobshop.lp_objective,
        &jobshop.schedule,
        &jobshop.metrics,
    );
    let free = route_and_schedule(&packets, &PacketFreeConfig::default())
        .expect("packet instance is feasible");
    out.push_str("== packet free ==\n");
    push_paths(&mut out, "path", free.paths.iter());
    push_packet_run(&mut out, free.lp_objective, &free.schedule, &free.metrics);
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
