//! A coflow without flows is a valid `Instance` (its completion variable
//! has no rows and settles at 0). Every interval-LP builder must accept
//! it: none may pass the empty coflow's `+inf` earliest release into a
//! variable bound.

use coflow_core::circuit::lp_free::{
    solve_free_paths_lp_colgen_on_grid, solve_free_paths_lp_paths, FreePathsLpConfig, PathPool,
};
use coflow_core::circuit::lp_given::{solve_given_paths_lp, GivenPathsLpConfig};
use coflow_core::packet::free::{route_and_schedule, PacketFreeConfig};
use coflow_core::packet::jobshop::{schedule_given_paths, PacketConfig};
use coflow_core::packet::timexp_lp::packet_lp_lower_bound;
use coflow_core::{Coflow, FlowSpec, Instance, IntervalGrid};
use coflow_lp::{SolverOptions, WarmChain};
use coflow_net::{paths, topo};

/// Coflow 0 holds one unit flow across a 3x3 grid; coflow 1 is empty.
fn with_empty_coflow(routed: bool) -> Instance {
    let t = topo::grid(3, 3, 1.0);
    let (s, d) = (t.hosts[0], t.hosts[8]);
    let flow = if routed {
        let p = paths::bfs_shortest_path(&t.graph, s, d).expect("grid is connected");
        FlowSpec::with_path(s, d, 1.0, 0.0, p)
    } else {
        FlowSpec::new(s, d, 1.0, 0.0)
    };
    Instance::new(
        t.graph,
        vec![Coflow::new(1.0, vec![flow]), Coflow::new(2.0, Vec::new())],
    )
}

#[test]
fn every_lp_entry_point_accepts_an_empty_coflow() {
    let routed = with_empty_coflow(true);
    let free = with_empty_coflow(false);

    let lp = solve_given_paths_lp(&routed, &GivenPathsLpConfig::default()).expect("§2.1");
    assert_eq!(lp.coflow_completion.len(), 2);
    assert!(lp.coflow_completion[1].abs() < 1e-9, "empty coflow at 0");

    let cfg = FreePathsLpConfig::default();
    solve_free_paths_lp_paths(&free, &cfg).expect("§2.2 eager");
    let grid = IntervalGrid::cover(cfg.eps, free.horizon());
    solve_free_paths_lp_colgen_on_grid(
        &free,
        &cfg,
        grid,
        &mut WarmChain::new(),
        &mut PathPool::new(),
    )
    .expect("§2.2 colgen master");

    let r = schedule_given_paths(&routed, &PacketConfig::default()).expect("§3.1");
    assert!(r.schedule.check(&routed).is_empty());
    let r = route_and_schedule(&free, &PacketFreeConfig::default()).expect("§3.2");
    assert!(r.schedule.check(&free).is_empty());

    packet_lp_lower_bound(&free, 8, &SolverOptions::default()).expect("time-expanded LP");
}
