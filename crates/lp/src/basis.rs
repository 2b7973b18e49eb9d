//! Basis snapshots for warm-started LP sequences, and per-solve statistics.
//!
//! The coflow algorithms solve *sequences* of structurally related LPs: the
//! interval-indexed LPs of §2.1/§2.2 re-solved on a grown interval grid, and
//! the time-expanded LP of §3.2 re-solved on a longer horizon. Each model in
//! such a sequence embeds its predecessor: every old variable keeps its
//! meaning (and its *name*), and new variables/rows only extend the problem.
//!
//! A [`Basis`] therefore records the final simplex state **keyed by variable
//! name**, not by index: variable indices shift when the grid grows (each
//! flow's interval block gains columns), but names like `x{flat}:{l}` are
//! stable. Mapping a snapshot onto a grown model is then a hash lookup per
//! variable. Basic *slacks* are remembered by row name when the row is named
//! and by original row index always (exact whenever the grown model keeps
//! the old rows as a prefix); rows the mapping cannot account for are
//! completed by a rank-revealing elimination (see
//! `sparse_lu::complete_basis_into`) with a bounded feasibility-repair loop.
//!
//! Snapshots only store the *exceptional* statuses (basic, nonbasic at upper
//! bound); everything else defaults to nonbasic at lower bound, which is
//! also the status assigned to variables the snapshot has never seen. A
//! warm start can always be rejected: if the mapped basis is singular or the
//! resulting point is primally infeasible, the solver silently falls back to
//! its cold crash basis (recorded in [`SolveStats::warm_used`]).

use std::collections::BTreeMap;

/// Status of a variable in a basis snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SnapStat {
    /// In the basis.
    Basic,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// A reusable snapshot of an optimal simplex basis, keyed by variable name.
///
/// Produced by [`crate::Model::solve_with_basis`] / [`crate::Model::solve_warm`]
/// and consumed by [`crate::Model::solve_warm`] on a structurally related
/// (typically grown) model. Opaque: only size accessors are public.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Basis {
    /// Exceptional statuses by variable name (absent = at lower bound).
    pub(crate) stat: BTreeMap<String, SnapStat>,
    /// Names of *rows* whose slack was basic (named rows only). Names
    /// survive arbitrary row reordering between related models.
    pub(crate) basic_slacks: std::collections::BTreeSet<String>,
    /// Original row indices whose slack was basic (recorded for every
    /// basic slack, named or not). Valid as long as the grown model keeps
    /// its predecessor's rows as a prefix — the common growth pattern —
    /// and harmless otherwise: a mis-mapped slack just fails the warm
    /// start's feasibility validation and triggers a cold start.
    pub(crate) basic_slack_rows: std::collections::BTreeSet<u32>,
    /// Original indices of the rows that made it into the snapshot's
    /// *working* problem (survived presolve). A related model's row that is
    /// **not** in this set — presolved away back then (empty or singleton,
    /// e.g. a column-generation capacity row no column touched yet), or
    /// genuinely new — was satisfied strictly at the old optimum, so its
    /// slack is implicitly basic: the warm-start mapping seeds those slacks
    /// to keep the implied point exactly at the old optimum instead of
    /// letting the basis completion cover such rows with structural
    /// columns and scramble it.
    pub(crate) kept_rows: std::collections::BTreeSet<u32>,
    /// Row count of the model this snapshot was taken from (diagnostics).
    pub(crate) rows: usize,
}

impl Basis {
    /// Number of variables recorded with a non-default status.
    pub fn len(&self) -> usize {
        self.stat.len()
    }

    /// True when the snapshot carries no information (cold start).
    pub fn is_empty(&self) -> bool {
        self.stat.is_empty() && self.basic_slack_rows.is_empty()
    }

    /// Number of basic variables recorded (structurals + slacks).
    pub fn basic_count(&self) -> usize {
        self.stat
            .values()
            .filter(|s| **s == SnapStat::Basic)
            .count()
            + self.basic_slack_rows.len()
    }

    /// Row count of the originating model (diagnostics).
    pub fn source_rows(&self) -> usize {
        self.rows
    }
}

/// Per-solve statistics of the revised simplex.
///
/// Returned on every [`crate::Solution`] (as `stats`); the benchmark
/// harness serializes these into `BENCH_lp.json` so factorization and
/// warm-start behavior is measured, not asserted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Total simplex pivots across both phases.
    pub iterations: usize,
    /// Pivots spent minimizing infeasibility (phase 1).
    pub phase1_iterations: usize,
    /// Basis (re)factorizations performed, including the initial one.
    pub refactorizations: usize,
    /// Nonzeros of the last basis factorization (L + U).
    pub factor_nnz: usize,
    /// Nonzeros of the basis matrix itself at the last factorization
    /// (`factor_nnz / basis_nnz` is the fill-in ratio).
    pub basis_nnz: usize,
    /// Working rows after presolve.
    pub rows: usize,
    /// Working columns (structurals + slacks) after presolve.
    pub cols: usize,
    /// A warm-start basis was supplied.
    pub warm_attempted: bool,
    /// The warm basis was accepted (primal-feasible after mapping); when
    /// false despite `warm_attempted`, the solver cold-started.
    pub warm_used: bool,
    /// Milliseconds spent scanning reduced costs / maintaining devex
    /// weights (the pricing side of each pivot).
    pub pricing_ms: f64,
    /// Milliseconds spent in FTRAN/BTRAN solves against the factorization
    /// (duals, entering-column images, basic-value recomputation).
    pub ftran_btran_ms: f64,
    /// Milliseconds spent (re)factorizing the basis.
    pub factor_ms: f64,
    /// Workspace acquisitions that had to allocate (grow a scratch
    /// buffer). Zero means the whole solve ran inside capacity retained
    /// by earlier solves on the same [`Scratch`](crate::Scratch) — the
    /// steady-state goal of warm-chained epoch re-solves. See the
    /// counting contract on [`crate::scratch`].
    pub allocs: usize,
    /// Workspace acquisitions served from retained scratch capacity.
    pub scratch_reuse: usize,
    /// Full pricing scans over every column (parallel across fixed
    /// sections when [`SolverOptions::threads`](crate::SolverOptions) >
    /// 1): the expensive pivots candidate-list pricing tries to avoid.
    pub pricing_full_scans: usize,
    /// Pivots priced from the candidate list, without a refill scan.
    pub pricing_list_hits: usize,
    /// Worker threads the solve ran with (`SolverOptions::threads`,
    /// clamped to at least 1). Purely informational: results are byte
    /// identical at any thread count.
    pub threads: usize,
    /// The solve returned a budget-truncated (feasible, possibly
    /// suboptimal) point — see [`crate::Budget`].
    pub truncated: bool,
    /// Times the anti-cycling monitor saw a repeated basis signature on a
    /// degenerate pivot and locked pricing to Bland's rule for the rest of
    /// the phase.
    pub cycles_detected: usize,
    /// Recovery-ladder rung 1: refactorize-in-place retries after a
    /// numerical failure mid-phase.
    pub recovery_refactorizations: usize,
    /// Recovery-ladder rung 2: basis repairs (rebuild the crash basis and
    /// restore feasibility from the current point).
    pub recovery_basis_repairs: usize,
    /// Recovery-ladder rung 3: cold restarts from the all-artificial
    /// identity basis (the factorization that cannot fail).
    pub recovery_cold_restarts: usize,
}

impl SolveStats {
    /// Fill-in ratio of the factorization (`factor_nnz / basis_nnz`);
    /// 0 when no factorization happened (trivial LPs).
    pub fn fill_ratio(&self) -> f64 {
        if self.basis_nnz == 0 {
            0.0
        } else {
            self.factor_nnz as f64 / self.basis_nnz as f64
        }
    }
}

/// Chains solves of structurally related (typically growing) models,
/// warm-starting each solve from the previous one's optimal basis.
///
/// The coflow call sites thread one `WarmChain` through a sequence of LPs
/// built on a growing interval grid or time horizon; a fresh chain degrades
/// to plain cold solves, so wrappers for one-shot solves can share the same
/// code path.
#[derive(Clone, Debug, Default)]
pub struct WarmChain {
    basis: Option<Basis>,
    stats: ChainStats,
    /// Reusable solver workspace: buffers and factors retained between
    /// the chain's solves (cloning a chain resets it — capacity is a
    /// cache, not state).
    scratch: crate::scratch::Scratch,
}

/// Aggregate statistics over a [`WarmChain`]'s solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Solves performed through the chain.
    pub solves: usize,
    /// Solves that had a basis snapshot to attempt.
    pub warm_attempted: usize,
    /// Solves where the warm basis was accepted.
    pub warm_used: usize,
    /// Total simplex iterations across all solves.
    pub total_iterations: usize,
    /// Total phase-1 (feasibility) iterations across all solves.
    pub total_phase1: usize,
    /// Total basis refactorizations across all solves.
    pub total_refactorizations: usize,
}

impl WarmChain {
    /// A chain with no snapshot yet (first solve is cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves `model`, warm-starting from the previous solve's basis when
    /// one exists, and keeps the new optimal basis for the next call.
    pub fn solve(
        &mut self,
        model: &crate::Model,
        opts: &crate::SolverOptions,
    ) -> Result<crate::Solution, crate::LpError> {
        let (sol, next) = match self.basis.take() {
            Some(b) => model.solve_warm_in(&b, opts, &mut self.scratch)?,
            None => model.solve_with_basis_in(opts, &mut self.scratch)?,
        };
        self.basis = Some(next);
        self.stats.solves += 1;
        self.stats.warm_attempted += sol.stats.warm_attempted as usize;
        self.stats.warm_used += sol.stats.warm_used as usize;
        self.stats.total_iterations += sol.stats.iterations;
        self.stats.total_phase1 += sol.stats.phase1_iterations;
        self.stats.total_refactorizations += sol.stats.refactorizations;
        Ok(sol)
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// The chain's trace recorder (lives in the scratch workspace, so it
    /// spans every solve of the chain). Callers use it to nest their own
    /// spans around solves, merge per-worker counter sets, or force the
    /// logical clock in tests.
    pub fn obs(&mut self) -> &mut coflow_obs::Recorder {
        self.scratch.obs()
    }

    /// Drains the recorder into a [`Trace`](coflow_obs::Trace) snapshot
    /// (spans recorded so far, cumulative accumulators and counters).
    pub fn take_trace(&mut self) -> coflow_obs::Trace {
        self.scratch.obs().drain()
    }

    /// True once a basis snapshot is available for the next solve.
    pub fn has_basis(&self) -> bool {
        self.basis.is_some()
    }

    /// Installs a fault-injection hook consulted by this chain's solves
    /// (see [`FaultHook`](crate::FaultHook)); `None` removes it. Hooks are
    /// a test/chaos facility: production chains never set one.
    pub fn set_fault_hook(&mut self, hook: Option<Box<dyn crate::FaultHook>>) {
        self.scratch.state.hook = hook;
    }

    /// The installed fault hook, if any (consulted by `solve_colgen` for
    /// round-level faults).
    pub fn fault_hook_mut(&mut self) -> Option<&mut Box<dyn crate::FaultHook>> {
        self.scratch.state.hook.as_mut()
    }

    /// Drops the snapshot (next solve is cold); statistics are kept.
    pub fn reset(&mut self) {
        self.basis = None;
    }
}
