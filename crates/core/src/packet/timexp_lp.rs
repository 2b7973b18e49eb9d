//! The exact time-expanded-graph LP of §3.2 (constraints (25)–(32)),
//! implemented for small horizons as a *reference lower bound*.
//!
//! For each packet `f` we ship one unit of flow through `G^T` from
//! `(s_f, ⌈r_f⌉)` toward the destination copies `(d_f, t)`; the mass
//! arriving at `(d_f, t)` is the fractional probability of completing at
//! step `t`, and `c_f >= Σ_t t · arrival_t`. Transit-edge copies have unit
//! capacity shared across packets (one packet per edge per step); queue
//! edges are free. This is the paper's LP with exact per-step indexing
//! instead of geometric intervals (tighter, but `O(F·T·(E+V))` variables —
//! hence tests-only).

use crate::circuit::lp_free::PathPool;
use crate::model::Instance;
use coflow_lp::{
    solve_colgen, Cmp, ColGenStats, LpError, Model, RowId, SolveStats, SolverOptions, VarId,
    WarmChain,
};
use coflow_net::{pricing, EdgeId, NodeId, TimeExpandedGraph};

/// Solves the time-expanded LP with horizon `T` steps.
///
/// Returns the LP objective — a valid lower bound on the optimal weighted
/// packet-coflow completion time (Lemma 7) *provided* `T` is at least the
/// optimal makespan; choose `T` generously (e.g.
/// `horizon_steps` (in `packet::jobshop`)).
pub fn packet_lp_lower_bound(
    instance: &Instance,
    horizon: usize,
    solver: &SolverOptions,
) -> Result<f64, LpError> {
    packet_lp_lower_bound_warm(instance, horizon, solver, &mut WarmChain::new()).map(|(o, _)| o)
}

/// [`packet_lp_lower_bound`] warm-started through `chain`, additionally
/// returning the solver statistics.
///
/// The time-expanded graph is built timestamp-major, so expanded edge ids —
/// and with them every `z` variable name — are stable when the horizon
/// grows. Threading one [`WarmChain`] through a growing horizon sequence
/// (e.g. probing for the smallest `T` that stops lowering the bound) reuses
/// each optimal basis instead of cold-starting every solve.
pub fn packet_lp_lower_bound_warm(
    instance: &Instance,
    horizon: usize,
    solver: &SolverOptions,
    chain: &mut WarmChain,
) -> Result<(f64, SolveStats), LpError> {
    assert!(horizon >= 1);
    let g = &instance.graph;
    // Queue edges are effectively uncapacitated (no LP row is generated for
    // them); the graph builder requires a finite value.
    let tx = TimeExpandedGraph::build(g, horizon, 1e12);
    let mut m = Model::new();

    let c_cof: Vec<VarId> = instance
        .coflows
        .iter()
        .enumerate()
        .map(|(i, c)| {
            m.add_var(
                c.weight,
                c.completion_floor(),
                f64::INFINITY,
                format!("C{i}"),
            )
        })
        .collect();

    // Per flow: z variables on expanded edges (skip edges out of the
    // destination and edges before the release), arrival bookkeeping.
    let nf = instance.flow_count();
    // lint: allow(hash_order) — per-flow var maps are lookup-only, never iterated
    let mut z: Vec<std::collections::HashMap<u32, VarId>> = Vec::with_capacity(nf);
    let mut c_flow = Vec::with_capacity(nf);

    for (id, flat, spec) in instance.flows() {
        let rel = spec.release.ceil() as usize;
        assert!(
            rel < horizon,
            "horizon {horizon} too small for release {rel} of packet {flat}"
        );
        // lint: allow(hash_order) — lookup-only index from edge id to variable
        let mut vars = std::collections::HashMap::new();
        for e in tx.graph.edges() {
            let (u, v) = tx.graph.endpoints(e);
            let (bu, tu) = tx.split(u);
            let (bv, _tv) = tx.split(v);
            if tu < rel {
                continue; // before release
            }
            if bu == spec.dst {
                continue; // no flow leaves the destination
            }
            if bv == spec.src && bu != spec.src {
                continue; // *transit* back to the source is never useful
                          // (the source's own queue edges must stay: packets
                          // may wait at their origin)
            }
            // Queue edges are modeled with infinite capacity; transit
            // edges get a [0,1] variable.
            let ub = 1.0;
            let v = m.add_var(0.0, 0.0, ub, format!("z{flat}:{e:?}"));
            vars.insert(e.0, v);
        }
        // Conservation: supply 1 at (src, rel); zero at intermediates.
        for t in rel..=horizon {
            for v in g.nodes() {
                if v == spec.dst {
                    continue; // destination copies absorb
                }
                let xv = tx.node_at(v, t);
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &e in tx.graph.out_edges(xv) {
                    if let Some(&var) = vars.get(&e.0) {
                        terms.push((var, 1.0));
                    }
                }
                for &e in tx.graph.in_edges(xv) {
                    if let Some(&var) = vars.get(&e.0) {
                        terms.push((var, -1.0));
                    }
                }
                let rhs = if v == spec.src && t == rel { 1.0 } else { 0.0 };
                // lint: allow(float_cmp) — rhs is exactly 0.0 or 1.0 by construction
                if !terms.is_empty() || rhs != 0.0 {
                    m.add_row_named(
                        coflow_lp::Cmp::Eq,
                        rhs,
                        &terms,
                        format!("con{flat}:{t}:{}", v.index()),
                    );
                }
            }
        }
        // Completion: c_f >= Σ_t t * arrival_t (26).
        let cf = m.add_var(
            0.0,
            (rel as f64).max(0.0),
            f64::INFINITY,
            format!("c{flat}"),
        );
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for t in rel + 1..=horizon {
            let dv = tx.node_at(spec.dst, t);
            for &e in tx.graph.in_edges(dv) {
                if tx.is_queue_edge(e) {
                    continue; // queue edges to dst carry already-arrived mass? dst has no out-flow, so no queue in-flow exists either
                }
                if let Some(&var) = vars.get(&e.0) {
                    terms.push((var, t as f64));
                }
            }
        }
        terms.push((cf, -1.0));
        m.add_row_named(coflow_lp::Cmp::Le, 0.0, &terms, format!("cmp{flat}"));
        // (27) coflow precedence.
        m.add_row_named(
            coflow_lp::Cmp::Le,
            0.0,
            &[(cf, 1.0), (c_cof[id.coflow as usize], -1.0)],
            format!("prec{flat}"),
        );
        c_flow.push(cf);
        z.push(vars);
    }

    // Capacity: each transit edge copy carries at most one packet total.
    for e in tx.graph.edges() {
        if tx.is_queue_edge(e) {
            continue;
        }
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for vars in &z {
            if let Some(&var) = vars.get(&e.0) {
                terms.push((var, 1.0));
            }
        }
        if terms.len() > 1 {
            m.add_row_named(coflow_lp::Cmp::Le, 1.0, &terms, format!("cap{}", e.0));
        }
    }

    let sol = chain.solve(&m, solver)?;
    Ok((sol.objective, sol.stats))
}

/// The §3.2 bound by **delayed column generation** over time-expanded
/// *paths*: instead of one variable per (flow, expanded edge) with explicit
/// conservation rows, the master carries one variable `w_{f,q}` per
/// generated path `q` from `(s_f, ⌈r_f⌉)` to a destination copy
/// `(d_f, t(q))`, with the convexity row `Σ_q w = 1`, the completion row
/// `c_f ≥ Σ_q t(q)·w_q`, and the shared unit-capacity rows on transit edge
/// copies. On the (acyclic) time-expanded graph every feasible edge flow
/// decomposes into such paths, so the path formulation's optimum equals the
/// eager edge formulation's — [`packet_lp_lower_bound`] remains the
/// cross-check oracle.
///
/// Pricing is one [`pricing::dijkstra_tree`] per flow per round: transit
/// edge copies are priced `−y_cap ≥ 0`, queue edges are free, inadmissible
/// edges (before release, out of the destination, transiting back into the
/// source) are priced `∞`, and each destination copy adds the arrival cost
/// `t·(−y_cmp)`; the most negative reduced-cost path over *all* arrival
/// times falls out of one search. Restricted masters can be infeasible
/// (unit capacities!), so each flow carries a big-M relief column on its
/// convexity row; relief still in use after convergence means the horizon
/// is genuinely too small and the solve reports [`LpError::Infeasible`].
///
/// `pool` persists generated time-expanded paths across growing horizons —
/// expanded edge ids are timestamp-major, hence stable when `T` grows — so
/// probing sequences re-solve without re-pricing. Returns the bound and the
/// run's [`ColGenStats`].
pub fn packet_lp_lower_bound_colgen(
    instance: &Instance,
    horizon: usize,
    solver: &SolverOptions,
    max_rounds: usize,
    chain: &mut WarmChain,
    pool: &mut PathPool,
) -> Result<(f64, ColGenStats), LpError> {
    assert!(horizon >= 1);
    let g = &instance.graph;
    let tx = TimeExpandedGraph::build(g, horizon, 1e12);
    let txg = &tx.graph;
    let mut m = Model::new();

    let c_cof: Vec<VarId> = instance
        .coflows
        .iter()
        .enumerate()
        .map(|(i, c)| {
            m.add_var(
                c.weight,
                c.completion_floor(),
                f64::INFINITY,
                format!("C{i}"),
            )
        })
        .collect();

    // Relief cost: strictly dominates any achievable objective, so relief
    // survives at optimum only when no admissible path set is feasible.
    let total_weight: f64 = instance.coflows.iter().map(|c| c.weight).sum();
    let big_m = 10.0 * (1.0 + total_weight * horizon as f64);

    let nf = instance.flow_count();
    let mut c_flow = Vec::with_capacity(nf);
    let mut sum_row = Vec::with_capacity(nf);
    let mut cmp_row = Vec::with_capacity(nf);
    let mut releases = Vec::with_capacity(nf);

    for (id, flat, spec) in instance.flows() {
        let rel = spec.release.ceil() as usize;
        assert!(
            rel < horizon,
            "horizon {horizon} too small for release {rel} of packet {flat}"
        );
        releases.push(rel);
        let cf = m.add_var(0.0, rel as f64, f64::INFINITY, format!("c{flat}"));
        c_flow.push(cf);
        sum_row.push(m.add_row_named(Cmp::Eq, 1.0, &[], format!("sum{flat}")));
        cmp_row.push(m.add_row_named(Cmp::Le, 0.0, &[(cf, -1.0)], format!("cmp{flat}")));
        m.add_row_named(
            Cmp::Le,
            0.0,
            &[(cf, 1.0), (c_cof[id.coflow as usize], -1.0)],
            format!("prec{flat}"),
        );
    }

    // Unit-capacity rows on every transit edge copy (queue edges are free).
    // Created empty; presolve drops the untouched ones per solve.
    let mut cap_row: Vec<Option<RowId>> = vec![None; txg.edge_count()];
    for e in txg.edges() {
        if !tx.is_queue_edge(e) {
            cap_row[e.index()] = Some(m.add_row_named(Cmp::Le, 1.0, &[], format!("cap{}", e.0)));
        }
    }

    // Admissibility mirrors the eager builder's variable filter exactly.
    let admissible = |flat: usize, e: EdgeId| -> bool {
        let spec = instance.flow(instance.id_of_flat(flat));
        let (u, v) = txg.endpoints(e);
        let (bu, tu) = tx.split(u);
        let (bv, _) = tx.split(v);
        tu >= releases[flat] && bu != spec.dst && !(bv == spec.src && bu != spec.src)
    };
    let arrival_of = |p: &coflow_net::Path| -> usize {
        // lint: allow(no_panic) — generated packet paths always have at least one edge
        let last = txg.edge_dst(*p.edges.last().expect("packet paths are nonempty"));
        tx.split(last).1
    };

    // Adds the column of one generated path (convexity + completion +
    // transit capacities) and returns its variable.
    let add_path_column = |m: &mut Model, flat: usize, pi: u32, p: &coflow_net::Path| -> VarId {
        let t = arrival_of(p);
        let mut terms: Vec<(RowId, f64)> = vec![(sum_row[flat], 1.0), (cmp_row[flat], t as f64)];
        for &e in p.edges.iter() {
            if let Some(r) = cap_row[e.index()] {
                terms.push((r, 1.0));
            }
        }
        m.add_column(0.0, 0.0, 1.0, format!("w{flat}:{pi}"), &terms)
    };

    // Per-flow pricing search: cheapest admissible path under the given
    // transit prices + arrival weight. `None` when the destination is
    // unreachable within the horizon.
    let price_search = |flat: usize,
                        edge_price: &dyn Fn(EdgeId) -> f64,
                        arr_w: f64|
     -> Option<(coflow_net::Path, f64)> {
        let spec = instance.flow(instance.id_of_flat(flat));
        let start = tx.node_at(spec.src, releases[flat]);
        let (dist, pred) = pricing::dijkstra_tree(txg, start, |e| {
            if !admissible(flat, e) {
                f64::INFINITY
            } else {
                edge_price(e)
            }
        });
        let mut best: Option<(NodeId, f64)> = None;
        for t in releases[flat] + 1..=horizon {
            let dv = tx.node_at(spec.dst, t);
            let d = dist[dv.index()];
            if d.is_finite() {
                let total = d + arr_w * t as f64;
                if best.is_none_or(|(_, b)| total < b) {
                    best = Some((dv, total));
                }
            }
        }
        let (sink, cost) = best?;
        let p = pricing::path_from_preds(txg, start, sink, &pred)?;
        Some((p, cost))
    };

    // Seed: every pooled path, plus (at least) the earliest-arrival path
    // found by a zero-dual search, plus the big-M relief column.
    let mut relief = Vec::with_capacity(nf);
    #[allow(clippy::needless_range_loop)]
    for flat in 0..nf {
        if pool.group(flat).is_empty() {
            let (p, _) = price_search(flat, &|_| 0.0, 1.0).ok_or_else(|| {
                LpError::Numerical(format!("packet {flat}: destination unreachable in horizon"))
            })?;
            pool.insert_with(flat, pricing::path_signature(&p), || p);
        }
        let seeds: Vec<(u32, coflow_net::Path)> = pool
            .group(flat)
            .iter()
            .enumerate()
            .map(|(pi, p)| (pi as u32, p.clone()))
            .collect();
        for (pi, p) in seeds {
            add_path_column(&mut m, flat, pi, &p);
        }
        relief.push(m.add_column(big_m, 0.0, 1.0, format!("u{flat}"), &[(sum_row[flat], 1.0)]));
    }

    let price_tol = solver.tol.max(1e-9);
    let (sol, stats) = solve_colgen(&mut m, solver, chain, max_rounds, |sol, m| {
        let mut added = 0usize;
        for flat in 0..nf {
            let y_sum = sol.dual(sum_row[flat]);
            let y_cmp = sol.dual(cmp_row[flat]);
            let arr_w = (-y_cmp).max(0.0);
            let edge_price = |e: EdgeId| match cap_row[e.index()] {
                Some(r) => (-sol.dual(r)).max(0.0),
                None => 0.0,
            };
            let Some((p, cost)) = price_search(flat, &edge_price, arr_w) else {
                continue;
            };
            if -y_sum + cost < -price_tol {
                let sig = pricing::path_signature(&p);
                let (pi, fresh) = pool.insert_with(flat, sig, || p.clone());
                if fresh {
                    add_path_column(m, flat, pi, &p);
                    added += 1;
                }
            }
        }
        added
    })?;

    // Relief still carrying mass after *convergence* means no admissible
    // path combination fits the horizon. If the round budget ran out
    // first, infeasibility is not proven (more pricing rounds might have
    // displaced the relief) — report the budget exhaustion instead of a
    // wrong verdict.
    let relief_used: f64 = relief.iter().map(|&v| sol.value(v)).sum();
    if relief_used > 1e-6 {
        return Err(if stats.converged {
            LpError::Infeasible
        } else {
            LpError::IterationLimit
        });
    }
    Ok((sol.objective, stats))
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_lp::SolverOptions;
    use coflow_net::{paths, topo, NodeId};

    #[test]
    fn single_packet_exact_distance() {
        // One packet across a 3-hop line: LP bound = 3 exactly.
        let t = topo::line(4, 1.0);
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(NodeId(0), NodeId(3), 1.0, 0.0)],
            )],
        );
        let lb = packet_lp_lower_bound(&inst, 8, &SolverOptions::default()).unwrap();
        assert!((lb - 3.0).abs() < 1e-6, "bound {lb}");
    }

    #[test]
    fn contention_raises_bound() {
        // Two packets over the same 2-hop line: one finishes at 2, the
        // other at 3 at best (edge shared at step 0) => sum >= 5.
        let t = topo::line(3, 1.0);
        let mk = || Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(2), 1.0, 0.0)]);
        let inst = Instance::new(t.graph.clone(), vec![mk(), mk()]);
        let lb = packet_lp_lower_bound(&inst, 10, &SolverOptions::default()).unwrap();
        assert!(lb >= 5.0 - 1e-6, "bound {lb}");
    }

    #[test]
    fn release_shifts_bound() {
        let t = topo::line(3, 1.0);
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(NodeId(0), NodeId(2), 1.0, 4.0)],
            )],
        );
        let lb = packet_lp_lower_bound(&inst, 12, &SolverOptions::default()).unwrap();
        assert!((lb - 6.0).abs() < 1e-6, "release 4 + 2 hops, bound {lb}");
    }

    #[test]
    fn alternative_routes_lower_the_bound() {
        // Two packets, same endpoints, on a triangle: one can take the
        // 2-hop detour, so both can arrive by step 2: optimal sum 1+... —
        // direct packet arrives at 1, detour at 2 => LP <= 3 and >= 3
        // (each needs >= its distance; they can't share the direct edge at
        // step 0). On a single line it would be 1 + 2 = 3 too... use
        // coflow weights to check the objective weighting instead.
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let inst = Instance::new(
            t.graph.clone(),
            vec![
                Coflow::new(5.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
            ],
        );
        let lb = packet_lp_lower_bound(&inst, 8, &SolverOptions::default()).unwrap();
        // Best: heavy packet direct (arrives 1), light detours (arrives 2):
        // 5*1 + 1*2 = 7.
        assert!((lb - 7.0).abs() < 1e-5, "bound {lb}");
    }

    /// A growing time horizon warm-started through one chain: the bound at
    /// each horizon matches the cold solve, and the chain reports warm
    /// starts taken.
    #[test]
    fn warm_chain_on_growing_horizons_matches_cold() {
        let t = topo::line(3, 1.0);
        let mk = || Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(2), 1.0, 0.0)]);
        let inst = Instance::new(t.graph.clone(), vec![mk(), mk()]);
        let opts = SolverOptions::default();
        let horizons = [6usize, 8, 10];

        let mut chain = WarmChain::new();
        let mut warm = Vec::new();
        for &h in &horizons {
            let (obj, _) = packet_lp_lower_bound_warm(&inst, h, &opts, &mut chain).unwrap();
            warm.push(obj);
        }
        assert_eq!(chain.stats().warm_used, horizons.len() - 1);
        for (&h, w) in horizons.iter().zip(&warm) {
            let cold = packet_lp_lower_bound(&inst, h, &opts).unwrap();
            assert!((w - cold).abs() < 1e-6, "T={h}: warm {w} vs cold {cold}");
        }
    }

    /// Path-based column generation must reproduce the eager edge LP's
    /// bound on a contended instance — which forces it to generate
    /// time-shifted paths beyond the earliest-arrival seeds.
    #[test]
    fn colgen_matches_eager_edge_lp_under_contention() {
        let t = topo::line(3, 1.0);
        let mk = || Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(2), 1.0, 0.0)]);
        let inst = Instance::new(t.graph.clone(), vec![mk(), mk()]);
        let opts = SolverOptions::default();
        let eager = packet_lp_lower_bound(&inst, 10, &opts).unwrap();
        let mut pool = PathPool::new();
        let (cg, stats) =
            packet_lp_lower_bound_colgen(&inst, 10, &opts, 100, &mut WarmChain::new(), &mut pool)
                .unwrap();
        assert!((cg - eager).abs() < 1e-6, "colgen {cg} vs eager {eager}");
        assert!(
            stats.generated_cols > 0,
            "contention must generate time-shifted paths"
        );
        assert!(pool.len() >= inst.flow_count() + stats.generated_cols);
    }

    /// Weighted multi-route instance: colgen agrees with the eager bound
    /// and a pool threaded across growing horizons re-prices nothing.
    #[test]
    fn colgen_pool_reuse_across_growing_horizons() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let inst = Instance::new(
            t.graph.clone(),
            vec![
                Coflow::new(5.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
            ],
        );
        let opts = SolverOptions::default();
        let mut pool = PathPool::new();
        let mut chain = WarmChain::new();
        let mut generated = Vec::new();
        for h in [6usize, 8, 10] {
            let eager = packet_lp_lower_bound(&inst, h, &opts).unwrap();
            let (cg, stats) =
                packet_lp_lower_bound_colgen(&inst, h, &opts, 100, &mut chain, &mut pool).unwrap();
            assert!(
                (cg - eager).abs() < 1e-6,
                "T={h}: colgen {cg} vs eager {eager}"
            );
            generated.push(stats.generated_cols);
        }
        assert!(
            generated[1] == 0 && generated[2] == 0,
            "pooled paths must seed the grown horizons: {generated:?}"
        );
    }

    /// A horizon too small for the contention level leaves the big-M
    /// relief columns in use, which must surface as `Infeasible` — the
    /// same verdict the eager formulation reaches.
    #[test]
    fn colgen_reports_infeasible_tight_horizon() {
        let t = topo::line(2, 1.0);
        let mk = || Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]);
        let inst = Instance::new(t.graph.clone(), vec![mk(), mk()]);
        let opts = SolverOptions::default();
        assert_eq!(
            packet_lp_lower_bound(&inst, 1, &opts).unwrap_err(),
            LpError::Infeasible
        );
        let mut pool = PathPool::new();
        let err =
            packet_lp_lower_bound_colgen(&inst, 1, &opts, 50, &mut WarmChain::new(), &mut pool)
                .unwrap_err();
        assert_eq!(err, LpError::Infeasible);
    }

    #[test]
    fn reference_bounds_pipeline_results() {
        // The §3.2 pipeline's realized cost must dominate the exact LP
        // bound on the same instance.
        use crate::packet::free::{route_and_schedule, PacketFreeConfig};
        let t = topo::grid(2, 2, 1.0);
        let coflows: Vec<Coflow> = (0..3)
            .map(|i| {
                Coflow::new(
                    1.0,
                    vec![FlowSpec::new(t.hosts[i], t.hosts[3 - i.min(2)], 1.0, 0.0)],
                )
            })
            .filter(|c| c.flows[0].src != c.flows[0].dst)
            .collect();
        let inst = Instance::new(t.graph.clone(), coflows);
        let lb = packet_lp_lower_bound(&inst, 16, &SolverOptions::default()).unwrap();
        let r = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        assert!(
            lb <= r.metrics.weighted_sum + 1e-6,
            "exact LP {lb} must lower-bound realized {}",
            r.metrics.weighted_sum
        );
        // And the packet's own LP (interval-indexed) is also a bound.
        assert!(paths::bfs_shortest_path(
            &inst.graph,
            inst.flow(crate::FlowId { coflow: 0, flow: 0 }).src,
            inst.flow(crate::FlowId { coflow: 0, flow: 0 }).dst
        )
        .is_some());
    }
}
