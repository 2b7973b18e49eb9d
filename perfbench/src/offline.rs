//! `offline-k8`: the §2.2 circuit pipeline and the three §4.3 heuristics
//! on many small instances of a k=8 fat-tree, each LP solved cold.

use crate::spans::Tracer;
use crate::workload::{input_seed, solver, Unit, Workload};
use coflow_core::baselines::{self, BaselineConfig};
use coflow_core::bounds::circuit_lower_bound;
use coflow_core::circuit::lp_free::{solve_free_paths_lp_paths_on_grid, FreePathsLpConfig};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig, PathSelection};
use coflow_core::order::lp_order;
use coflow_core::{Instance, IntervalGrid};
use coflow_lp::WarmChain;
use coflow_net::topo::{self, Topology};
use coflow_sim::fluid::{simulate, SimConfig};
use coflow_workloads::gen::{generate, GenConfig};
use std::time::Instant;

/// Distinct instances generated per set-up. Each instance holds its own
/// copy of the topology, so a run that gets through more cycles back to
/// the first rather than growing the benchmark's own memory.
const INPUTS: usize = 512;

/// An 8-coflow × 4-flow instance with the generator's defaults.
fn gen_config(seed: u64) -> GenConfig {
    GenConfig {
        n_coflows: 8,
        width: 4,
        seed,
        ..GenConfig::default()
    }
}

pub struct Offline {
    pool: Vec<Instance>,
    lp_cfg: FreePathsLpConfig,
}

impl Offline {
    fn pipeline(&self, inst: &Instance, i: usize, tr: &mut Tracer) -> Unit {
        let mut u = Unit::default();
        let seed = i as u64;

        // LP-Based: the decision is LP → rounding → order.
        let t_plan = Instant::now();
        let tok = tr.enter("core.lp_free");
        let grid = IntervalGrid::cover(self.lp_cfg.eps, inst.horizon());
        let lp = solve_free_paths_lp_paths_on_grid(inst, &self.lp_cfg, grid, &mut WarmChain::new());
        tr.exit(tok);
        let lp = match lp {
            Ok(lp) => lp,
            Err(e) => {
                u.fail(format!("LP-Based: lp error {e}"));
                return u;
            }
        };
        let round_cfg = FreeRoundingConfig {
            seed,
            selection: PathSelection::LoadAware,
            ..FreeRoundingConfig::default()
        };
        let rounding = tr.time("core.round", || round_free_paths(inst, &lp, &round_cfg));
        let order = tr.time("core.order", || lp_order(inst, &lp.base));
        u.plan_ms.push(t_plan.elapsed().as_secs_f64() * 1e3);

        let sim_cfg = SimConfig::default();
        let out = tr.time("sim.fluid", || {
            simulate(inst, &rounding.paths, &order, &sim_cfg)
        });
        let lb = circuit_lower_bound(lp.base.objective, lp.base.grid.eps);
        u.check_circuit(
            tr,
            "LP-Based",
            inst,
            &rounding.paths,
            &out.schedule,
            &out.flow_completion,
            out.metrics.weighted_sum,
            lb,
        );
        u.cost_over_lb = out.metrics.weighted_sum / lb;
        u.primary_cct = out.metrics.avg_coflow_completion;

        let st = &lp.base.stats;
        u.check_threads("LP-Based", st.threads);
        u.count("lp.pivots", lp.base.iterations as f64);
        u.count("lp.phase1_pivots", st.phase1_iterations as f64);
        u.count("lp.refactorizations", st.refactorizations as f64);
        u.count("lp.rows", st.rows as f64);
        u.count("lp.cols", st.cols as f64);
        u.count("lp.pricing_ms", st.pricing_ms);
        u.count("lp.ftran_btran_ms", st.ftran_btran_ms);
        u.count("lp.factor_ms", st.factor_ms);

        // The three §4.3 heuristics on the same instance.
        let tok = tr.enter("core.baselines");
        let bcfg = BaselineConfig {
            path_slack: self.lp_cfg.path_slack,
            max_paths: self.lp_cfg.max_paths,
            seed,
        };
        let heuristics: [fn(&Instance, &BaselineConfig) -> baselines::Scheme; 3] = [
            baselines::route_only,
            baselines::schedule_only,
            baselines::baseline_random,
        ];
        for heuristic in heuristics {
            let scheme = heuristic(inst, &bcfg);
            let out = tr.time("sim.fluid", || {
                simulate(inst, &scheme.paths, &scheme.order, &sim_cfg)
            });
            u.check_circuit(
                tr,
                scheme.name,
                inst,
                &scheme.paths,
                &out.schedule,
                &out.flow_completion,
                out.metrics.weighted_sum,
                lb,
            );
            if scheme.name == "Baseline" {
                u.baseline_cct = out.metrics.avg_coflow_completion;
            }
        }
        tr.exit(tok);
        u
    }
}

impl Workload for Offline {
    const MIN_SAMPLES: usize = 100;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let topo: Topology = tr.time("net.topo", || topo::fat_tree(8, 1.0));
        let pool = tr.time("workloads.gen", || {
            (0..INPUTS)
                .map(|i| generate(&topo, &gen_config(input_seed(seed, i))))
                .collect()
        });
        Offline {
            pool,
            lp_cfg: FreePathsLpConfig {
                solver: solver(),
                ..FreePathsLpConfig::default()
            },
        }
    }

    fn run_unit(&mut self, i: usize, tr: &mut Tracer) -> Unit {
        let inst = &self.pool[i % self.pool.len()];
        let t0 = Instant::now();
        let mut u = self.pipeline(inst, i, tr);
        u.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        u.settle_instance();
        u
    }

    fn not_applicable() -> &'static [(&'static str, &'static str)] {
        &[
            ("engine", "offline pipeline: the online engine is not run"),
            ("lp.pivots_per_epoch.p50", "offline pipeline: no epochs"),
            (
                "lp.warm_accept_ratio",
                "every LP is solved from a cold WarmChain",
            ),
            ("net.bfs_paths.ms", "packet-only layer"),
            ("core.packet", "packet-only layer"),
            ("sim.packetsim.ms", "packet-only layer"),
            ("packet.blocks", "packet-only layer"),
        ]
    }
}
