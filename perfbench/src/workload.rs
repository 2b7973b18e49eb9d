//! What every workload shares: the pinned solver options, the per-unit
//! record, and the correctness checks every realized schedule passes.

use crate::spans::Tracer;
use coflow_core::{CircuitSchedule, Instance};
use coflow_lp::SolverOptions;
use coflow_net::Path;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// LP threads every workload pins, whatever `COFLOW_LP_THREADS` says.
pub const LP_THREADS: usize = 1;
/// Volume and capacity tolerance handed to the circuit checker.
pub const CHECK_TOL: f64 = 1e-6;
/// Realized cost may undercut the lower bound by this relative slack.
pub const LB_TOL: f64 = 1e-6;

/// Solver options of every workload: the experiment settings with the
/// thread count pinned.
pub fn solver() -> SolverOptions {
    SolverOptions {
        threads: LP_THREADS,
        ..SolverOptions::for_experiments()
    }
}

/// Generator seed of input `i` of a run seeded with `seed`.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// What one unit of work (an offline instance or an online trace) reports.
#[derive(Debug, Default)]
pub struct Unit {
    /// Instances or epochs attempted.
    pub attempted: usize,
    /// Of those, how many failed.
    pub failed: usize,
    /// Why, one line per failure.
    pub reasons: Vec<String>,
    /// Wall time of each scheduling decision, ms.
    pub plan_ms: Vec<f64>,
    /// Wall time of each step (instance or epoch), ms.
    pub step_ms: Vec<f64>,
    /// Realized Σ ω·C of the primary schedule over its lower bound.
    pub cost_over_lb: f64,
    /// Mean coflow completion time of the primary schedule.
    pub primary_cct: f64,
    /// Mean coflow completion time of the baseline schedule.
    pub baseline_cct: f64,
    /// Bits of every realized Σ ω·C, in a fixed order.
    pub wsum_bits: Vec<u64>,
    /// Layer counts and samples, keyed by per-layer metric source.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Unit {
    /// Records a failure reason.
    pub fn fail(&mut self, reason: String) {
        self.reasons.push(reason);
    }

    /// Adds one sample to the layer count `key`.
    pub fn count(&mut self, key: &'static str, v: f64) {
        self.counts.entry(key).or_default().push(v);
    }

    /// Settles `attempted`/`failed` for a unit that is one instance.
    pub fn settle_instance(&mut self) {
        self.attempted = 1;
        self.failed = usize::from(!self.reasons.is_empty());
    }

    /// Checks the cost of a realized schedule against its lower bound and
    /// records its bits.
    pub fn check_cost(&mut self, label: &str, cost: f64, lb: f64) {
        // A NaN on either side fails too.
        let floor = lb * (1.0 - LB_TOL);
        if matches!(cost.partial_cmp(&floor), None | Some(Ordering::Less)) {
            self.fail(format!("{label}: cost {cost} below lower bound {lb}"));
        }
        self.wsum_bits.push(cost.to_bits());
    }

    /// Runs the circuit checker on `schedule` routed over `paths` and
    /// checks that every flow finished and the cost respects `lb`.
    #[allow(clippy::too_many_arguments)]
    pub fn check_circuit(
        &mut self,
        tr: &mut Tracer,
        label: &str,
        inst: &Instance,
        paths: &[Path],
        schedule: &CircuitSchedule,
        completion: &[f64],
        cost: f64,
        lb: f64,
    ) {
        let tok = tr.enter("core.check");
        let routed = inst.with_paths(paths);
        let violations = schedule.check(&routed, CHECK_TOL, CHECK_TOL);
        tr.exit(tok);
        if let Some(v) = violations.first() {
            self.fail(format!(
                "{label}: checker found {} violations, first {v:?}",
                violations.len()
            ));
        }
        self.check_finished(label, completion);
        self.check_cost(label, cost, lb);
        let segments: usize = schedule.flows.iter().map(|f| f.segments.len()).sum();
        self.count("sim.segments", segments as f64);
    }

    /// Checks that a solve ran with the pinned thread count.
    pub fn check_threads(&mut self, label: &str, threads: usize) {
        if threads != LP_THREADS {
            self.fail(format!(
                "{label}: LP ran with {threads} threads, not {LP_THREADS}"
            ));
        }
    }

    /// Checks that every flow has a finite completion time.
    pub fn check_finished(&mut self, label: &str, completion: &[f64]) {
        let unfinished = completion.iter().filter(|c| !c.is_finite()).count();
        if unfinished > 0 {
            self.fail(format!("{label}: {unfinished} flows unfinished"));
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Fewest decision samples a run collects before it may stop.
    const MIN_SAMPLES: usize;

    /// Builds the topology and generates the inputs from `seed`.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;

    /// Checks run once after set-up, untimed; returns why any failed.
    fn self_test(&self) -> Vec<String> {
        Vec::new()
    }

    /// Runs unit `i` (on input `i` modulo the inputs generated) from
    /// input to checked schedules.
    fn run_unit(&mut self, i: usize, tr: &mut Tracer) -> Unit;

    /// Per-layer metrics that do not apply to this workload, and why.
    fn not_applicable() -> &'static [(&'static str, &'static str)];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_below_bound_or_nan_fails() {
        let mut u = Unit::default();
        u.check_cost("at bound", 2.0, 2.0);
        assert!(u.reasons.is_empty());
        u.check_cost("below", 1.9, 2.0);
        u.check_cost("nan", f64::NAN, 2.0);
        assert_eq!(u.reasons.len(), 2);
        assert_eq!(u.wsum_bits.len(), 3);
    }
}
