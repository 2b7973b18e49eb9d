//! `online-lp-k8` and `online-heuristic-k8`: Poisson arrival traces on a
//! k=8 fat-tree replayed through `engine::run` in simulated time.

use crate::spans::Tracer;
use crate::workload::{input_seed, solver, Unit, Workload, LP_THREADS};
use coflow_core::bounds::trivial_lower_bound;
use coflow_core::circuit::lp_free::FreePathsLpConfig;
use coflow_core::circuit::round_free::{FreeRoundingConfig, PathSelection};
use coflow_core::Instance;
use coflow_engine::{
    run, EngineConfig, EngineOutcome, EpochPlan, EpochView, Greedy, LpOrder, OnlinePolicy,
    PolicyError, WeightedFair,
};
use coflow_lp::{ChainStats, ColGenStats, SolveStats};
use coflow_net::topo;
use coflow_workloads::gen::{generate, GenConfig};
use std::time::{Duration, Instant};

/// Times every `plan` call of the policy it wraps and records an
/// `engine.plan` span per call. Every other trait method is forwarded, so
/// the engine's metrics are the same as for the bare policy.
pub struct Timed<'a> {
    inner: &'a mut dyn OnlinePolicy,
    tr: &'a mut Tracer,
    /// Start and duration of every `plan` call.
    pub plans: Vec<(Instant, Duration)>,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn OnlinePolicy, tr: &'a mut Tracer) -> Self {
        Timed {
            inner,
            tr,
            plans: Vec::new(),
        }
    }
}

impl OnlinePolicy for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        let tok = self
            .tr
            .enter_epoch("engine.plan", Some(self.plans.len() as u32));
        let t0 = Instant::now();
        let plan = self.inner.plan(view);
        self.plans.push((t0, t0.elapsed()));
        self.tr.exit(tok);
        plan
    }

    fn last_solve(&self) -> Option<SolveStats> {
        self.inner.last_solve()
    }

    fn chain_stats(&self) -> Option<ChainStats> {
        self.inner.chain_stats()
    }

    fn last_colgen(&self) -> Option<ColGenStats> {
        self.inner.last_colgen()
    }
}

/// With `LP`, traces are replayed with `LpOrder` (timed) and an untimed
/// `Greedy` baseline; without, with `Greedy` and `WeightedFair`, both
/// timed, `WeightedFair` being the baseline.
pub struct Online<const LP: bool> {
    pool: Vec<Instance>,
    lp_cfg: FreePathsLpConfig,
}

pub type OnlineLp = Online<true>;
pub type OnlineHeuristic = Online<false>;

impl<const LP: bool> Online<LP> {
    fn gen_config(seed: u64, n_coflows: usize) -> GenConfig {
        if LP {
            GenConfig {
                n_coflows,
                width: 4,
                size_mean: 3.0,
                arrival_rate: 0.5,
                jitter_rate: 2.0,
                seed,
                ..GenConfig::default()
            }
        } else {
            GenConfig {
                n_coflows,
                width: 8,
                arrival_rate: 1.0,
                seed,
                ..GenConfig::default()
            }
        }
    }

    fn lp_policy(&self, seed: u64) -> LpOrder {
        LpOrder::new(
            self.lp_cfg.clone(),
            FreeRoundingConfig {
                seed,
                selection: PathSelection::LoadAware,
                ..FreeRoundingConfig::default()
            },
        )
    }

    /// Replays `inst` with `policy` wrapped in [`Timed`]; returns the
    /// outcome, the plan samples and the wall time at which `run` returned.
    fn timed_replay(
        inst: &Instance,
        policy: &mut dyn OnlinePolicy,
        tr: &mut Tracer,
    ) -> (EngineOutcome, Vec<(Instant, Duration)>, Instant) {
        let tok = tr.enter("engine.run");
        let mut timed = Timed::new(policy, tr);
        let out = run(inst, &mut timed, &EngineConfig::default());
        let end = Instant::now();
        let plans = std::mem::take(&mut timed.plans);
        tr.exit(tok);
        (out, plans, end)
    }

    /// Records samples, counts and checks of one measured replay.
    fn account(
        u: &mut Unit,
        tr: &mut Tracer,
        label: &str,
        inst: &Instance,
        lb: f64,
        (out, plans, end): (EngineOutcome, Vec<(Instant, Duration)>, Instant),
    ) -> EngineOutcome {
        for (k, &(start, dur)) in plans.iter().enumerate() {
            u.plan_ms.push(dur.as_secs_f64() * 1e3);
            let next = plans.get(k + 1).map_or(end, |p| p.0);
            u.step_ms.push((next - start).as_secs_f64() * 1e3);
        }
        let failed_before = u.reasons.len();
        u.check_circuit(
            tr,
            label,
            inst,
            &out.paths,
            &out.schedule,
            &out.flow_completion,
            out.metrics.weighted_sum,
            lb,
        );
        let e = &out.engine;
        if e.degraded_epochs > 0 {
            u.fail(format!("{label}: {} degraded epochs", e.degraded_epochs));
        }
        u.count("engine.epochs", e.epochs as f64);
        u.count("engine.events", e.events as f64);
        u.count("engine.degraded_epochs", e.degraded_epochs as f64);
        u.count("engine.fallback_uses", e.fallback_policy_uses as f64);
        u.count(
            "engine.retries",
            e.epoch_log.iter().map(|r| r.retries).sum::<usize>() as f64,
        );
        u.count("lp.pivots", e.total_pivots as f64);
        u.count("lp.phase1_pivots", e.total_phase1_pivots as f64);
        u.count("lp.warm_used", e.warm_used as f64);
        u.count("lp.warm_attempted", e.warm_attempted as f64);
        let mut refactor = 0.0;
        let mut threads = LP_THREADS;
        let (mut pricing, mut ftran, mut factor) = (0.0, 0.0, 0.0);
        for r in &e.epoch_log {
            u.count("engine.live_flows", r.live_flows as f64);
            if let Some(s) = &r.solve {
                threads = threads.max(s.threads);
                u.count("lp.pivots_per_epoch", s.iterations as f64);
                u.count("lp.rows", s.rows as f64);
                u.count("lp.cols", s.cols as f64);
                refactor += s.refactorizations as f64;
                pricing += s.pricing_ms;
                ftran += s.ftran_btran_ms;
                factor += s.factor_ms;
            }
        }
        u.check_threads(label, threads);
        u.count("lp.refactorizations", refactor);
        u.count("lp.pricing_ms", pricing);
        u.count("lp.ftran_btran_ms", ftran);
        u.count("lp.factor_ms", factor);
        // Every epoch of a replay that failed a check counts as failed.
        u.attempted += e.epochs;
        u.failed += if u.reasons.len() > failed_before {
            e.epochs.max(1)
        } else {
            0
        };
        out
    }

    /// Replays `inst` with `LpOrder` bare and wrapped in [`Timed`]; the
    /// wrapper must leave epochs, pivots, warm starts and Σ ω·C unchanged.
    fn wrapper_self_test(&self, inst: &Instance) -> Vec<String> {
        let cfg = EngineConfig::default();
        let bare = run(inst, &mut self.lp_policy(0), &cfg).engine;
        let mut pol = self.lp_policy(0);
        let mut off = Tracer::off();
        let wrapped = run(inst, &mut Timed::new(&mut pol, &mut off), &cfg).engine;
        let key = |e: &coflow_engine::EngineMetrics| {
            (
                e.epochs,
                e.total_pivots,
                e.warm_used,
                e.warm_attempted,
                e.weighted_sum.to_bits(),
            )
        };
        let (a, b) = (key(&bare), key(&wrapped));
        if a == b && a.1 > 0 {
            Vec::new()
        } else {
            vec![format!(
                "wrapper self-test: (epochs, pivots, warm_used, warm_attempted, wsum bits) \
                 bare {a:?} vs wrapped {b:?}"
            )]
        }
    }
}

impl<const LP: bool> Workload for Online<LP> {
    const MIN_SAMPLES: usize = 200;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let (traces, coflows) = if LP { (32, 50) } else { (64, 150) };
        let topo = tr.time("net.topo", || topo::fat_tree(8, 1.0));
        let pool = tr.time("workloads.gen", || {
            (0..traces)
                .map(|i| generate(&topo, &Self::gen_config(input_seed(seed, i), coflows)))
                .collect()
        });
        Online {
            pool,
            lp_cfg: FreePathsLpConfig {
                solver: solver(),
                ..FreePathsLpConfig::default()
            },
        }
    }

    /// For the LP mix, the wrapper self-test on a short fixed trace
    /// outside the seeded inputs.
    fn self_test(&self) -> Vec<String> {
        if !LP {
            return Vec::new();
        }
        let topo = topo::fat_tree(8, 1.0);
        self.wrapper_self_test(&generate(&topo, &Self::gen_config(0, 12)))
    }

    fn run_unit(&mut self, i: usize, tr: &mut Tracer) -> Unit {
        let inst = &self.pool[i % self.pool.len()];
        let mut u = Unit::default();
        let lb = trivial_lower_bound(inst);
        if LP {
            let mut pol = self.lp_policy(i as u64);
            let replay = Self::timed_replay(inst, &mut pol, tr);
            let out = Self::account(&mut u, tr, "LpOrder", inst, lb, replay);
            u.cost_over_lb = out.metrics.weighted_sum / lb;
            u.primary_cct = out.metrics.avg_coflow_completion;

            let tok = tr.enter("engine.baseline_run");
            let base = run(inst, &mut Greedy, &EngineConfig::default());
            tr.exit(tok);
            let failed_before = u.reasons.len();
            u.check_circuit(
                tr,
                "Greedy baseline",
                inst,
                &base.paths,
                &base.schedule,
                &base.flow_completion,
                base.metrics.weighted_sum,
                lb,
            );
            u.attempted += 1;
            u.failed += usize::from(u.reasons.len() > failed_before);
            u.baseline_cct = base.metrics.avg_coflow_completion;
        } else {
            let replay = Self::timed_replay(inst, &mut Greedy, tr);
            let out = Self::account(&mut u, tr, "Greedy", inst, lb, replay);
            u.cost_over_lb = out.metrics.weighted_sum / lb;
            u.primary_cct = out.metrics.avg_coflow_completion;
            // Free the Greedy schedule before the larger WeightedFair one grows.
            drop(out);
            let replay = Self::timed_replay(inst, &mut WeightedFair, tr);
            let out = Self::account(&mut u, tr, "WeightedFair", inst, lb, replay);
            u.baseline_cct = out.metrics.avg_coflow_completion;
        }
        u
    }

    fn not_applicable() -> &'static [(&'static str, &'static str)] {
        if LP {
            &[
                (
                    "core.lp_free.ms",
                    "the LP runs inside OnlinePolicy::plan, timed as engine.plan.ms",
                ),
                ("core.round.ms", "rounding runs inside OnlinePolicy::plan"),
                ("core.order.ms", "ordering runs inside OnlinePolicy::plan"),
                (
                    "sim.fluid.ms",
                    "the engine's executor replaces the offline simulator",
                ),
                (
                    "core.baselines.ms",
                    "the Greedy baseline replay is timed as engine.baseline_run",
                ),
                ("net.bfs_paths.ms", "packet-only layer"),
                ("core.packet", "packet-only layer"),
                ("sim.packetsim.ms", "packet-only layer"),
                ("packet.blocks", "packet-only layer"),
            ]
        } else {
            &[
                ("core.lp_free.ms", "solver-free policies: no LP"),
                ("lp.", "solver-free policies: no LP"),
                ("core.round.ms", "solver-free policies: no rounding"),
                ("core.order.ms", "solver-free policies: no LP order"),
                (
                    "sim.fluid.ms",
                    "the engine's executor replaces the offline simulator",
                ),
                (
                    "core.baselines.ms",
                    "both policies are measured; WeightedFair is the baseline",
                ),
                ("net.bfs_paths.ms", "packet-only layer"),
                ("core.packet", "packet-only layer"),
                ("sim.packetsim.ms", "packet-only layer"),
                ("packet.blocks", "packet-only layer"),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_wrapper_forwards_solver_statistics() {
        let w = OnlineLp::setup(7, &mut Tracer::off());
        assert!(w.self_test().is_empty());
        let topo = topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &OnlineLp::gen_config(3, 6));
        assert!(w.wrapper_self_test(&inst).is_empty());
    }

    #[test]
    fn traced_replay_records_one_plan_span_per_plan_call() {
        let topo = topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &OnlineHeuristic::gen_config(5, 6));
        let mut tr = Tracer::on();
        let (out, plans, _) = OnlineHeuristic::timed_replay(&inst, &mut Greedy, &mut tr);
        let spans = crate::spans::summarize(tr.spans(), |_| true);
        assert_eq!(spans["engine.plan"].calls, plans.len());
        assert_eq!(plans.len(), out.engine.epochs);
        assert!(tr
            .spans()
            .iter()
            .filter(|s| s.name == "engine.plan")
            .all(|s| s.parent == Some(0)));
    }
}
