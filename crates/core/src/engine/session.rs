//! Resumable solve sessions: the algorithm cores as step-by-step state
//! machines behind one object-safe interface.
//!
//! A [`SolveSession`] is an in-progress solve that advances one *round*
//! at a time ([`SolveSession::step`]), exposes its partial solution at
//! any point ([`SolveSession::snapshot`]), and produces the same
//! [`SolveReport`] a one-shot [`super::Solver::solve`] call would
//! ([`SolveSession::finish`]). Three consumers are built on it:
//!
//! * **Warm k-axis sweeps** — for greedy-family solvers one round never
//!   looks at the budget `k` except to stop, so the solution for budget
//!   `k` is a strict prefix of the solution for `k′ > k` — items, value
//!   trajectory, *and* oracle-call counts. Sessions that guarantee this
//!   report [`SolveSession::prefix_exact`]` = true` and serve any
//!   smaller budget via [`SolveSession::solution_at`]; the bench
//!   harness uses this to run an entire k-axis in `O(max k)` rounds
//!   instead of `O(Σ k)`.
//! * **Anytime serving** — a service can run a session in bounded step
//!   chunks, reporting per-round progress between chunks, and park the
//!   session (which owns no borrow of the registry) across requests.
//! * **Uniformity** — solvers without a native incremental core are
//!   wrapped by the run-to-completion [`OneShotSession`] adapter, so
//!   schedulers can treat every solver as a session.
//! * **Sharded serving** — the GreeDi and Sieve-Streaming sessions also
//!   open on a [`ShardedInstance`] ([`GreediSession::sharded`],
//!   [`SieveSession::sharded`]): the same session type, stepping the
//!   same core against the instance's own oracles, which is how the
//!   daemon serves `"shards": p` requests.
//!
//! Sessions are opened through [`super::Solver::open_session`] (or
//! [`super::SolverRegistry::open_session`]); the
//! [`super::Capabilities::resumable`] flag marks solvers with a native
//! incremental session. Every `step`/`solution_at`/`finish` call must
//! receive the **same system** the session was opened on — the parked
//! incremental state is only meaningful against it (stepping with a
//! different system panics on the state downcast or silently corrupts
//! results).
//!
//! The binding invariant (DESIGN.md §7): for every session, stepping to
//! completion is **bit-identical** (items, objective, oracle-call
//! counts) to the one-shot solve with the same parameters, and for
//! prefix-exact sessions `solution_at(k)` is bit-identical to a cold
//! one-shot run at budget `k`. `tests/session_equivalence.rs` enforces
//! both across substrates and thread counts.

use std::sync::Arc;

use crate::aggregate::MeanUtility;
use crate::algorithms::bsm_saturate::{BsmSaturateConfig, BsmSaturateStepper};
use crate::algorithms::distributed::{shard_partition, GreediFold};
use crate::algorithms::greedy::GreedyEngine;
use crate::algorithms::saturate::{SaturateConfig, SaturateStepper};
use crate::algorithms::streaming::{SieveConfig, SieveCore};
use crate::algorithms::tsgreedy::{TsGreedyConfig, TsGreedyStepper};
use crate::items::ItemId;
use crate::metrics::evaluate;
use crate::system::{SolutionState, StateParts};

use super::erased::{DynState, DynUtilitySystem, ErasedSystem};
use super::params::ScenarioParams;
use super::report::{SolveReport, SolverError};
use super::sharded::ShardedInstance;

/// Whether a session has more rounds to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// More rounds remain; call [`SolveSession::step`] again.
    Running,
    /// The session has finished; [`SolveSession::finish`] (or
    /// [`SolveSession::solution_at`]) yields the report.
    Done,
}

/// A cheap snapshot of an in-progress solve: what an anytime consumer
/// reports between step chunks.
#[derive(Clone, Debug)]
pub struct PartialSolution {
    /// Rounds completed so far (solver-specific unit: greedy inserts,
    /// bisection probes, algorithm stages).
    pub round: usize,
    /// Items chosen so far, in insertion order (best witness so far for
    /// bisection solvers).
    pub items: Vec<ItemId>,
    /// Per-group utility sums of `items` where the solver tracks them
    /// incrementally; empty otherwise.
    pub group_sums: Vec<f64>,
    /// The solver's current objective value (aggregate value for
    /// greedy, witnessed `g` for Saturate, `α_min` for BSM-Saturate).
    pub objective: f64,
    /// Oracle calls performed so far.
    pub oracle_calls: u64,
    /// Whether the session has finished.
    pub done: bool,
}

/// An in-progress, resumable solve behind an object-safe interface.
///
/// Obtain one from [`super::Solver::open_session`]. See the module docs
/// for the contract; in particular, every method taking a `system` must
/// receive the session's own system.
pub trait SolveSession: Send {
    /// Registry name of the solver this session runs.
    fn solver(&self) -> &'static str;

    /// Whether the session has finished.
    fn done(&self) -> bool;

    /// Rounds completed so far — the [`PartialSolution::round`] counter
    /// without the snapshot's allocations, for callers that poll
    /// progress every step (the warm-sweep stepping loop).
    fn rounds(&self) -> usize;

    /// Advances the session by one round.
    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus;

    /// Snapshot of the current progress (no oracle work).
    fn snapshot(&self) -> PartialSolution;

    /// Whether [`SolveSession::solution_at`] serves *any* budget
    /// `k ≤` the session's own `k` bit-identically to a cold one-shot
    /// run at that budget. Greedy-family sessions are prefix-exact;
    /// bisection-based sessions (whose probes depend on `k`) are not.
    fn prefix_exact(&self) -> bool {
        false
    }

    /// The report a cold run at budget `k` would have produced.
    ///
    /// Prefix-exact sessions serve any `k` up to the rounds stepped so
    /// far (or any `k` once done); other sessions only serve their own
    /// `k`, and only once done. Returns
    /// [`SolverError::InvalidParams`] otherwise.
    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError>;

    /// Runs any remaining rounds and returns the final report —
    /// bit-identical (up to `seconds`, which sessions leave at 0) to
    /// the one-shot `solve` with the same parameters.
    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError>;
}

/// Run-to-completion adapter: wraps a finished [`SolveReport`] as a
/// [`SolveSession`] so solvers without a native incremental core sit
/// behind the same interface. The solve happens when the session is
/// opened; `step` is a no-op that reports `Done`.
pub struct OneShotSession {
    solver: &'static str,
    report: SolveReport,
}

impl OneShotSession {
    /// Wraps an already-computed report.
    pub fn new(solver: &'static str, report: SolveReport) -> Self {
        Self { solver, report }
    }
}

impl SolveSession for OneShotSession {
    fn solver(&self) -> &'static str {
        self.solver
    }

    fn done(&self) -> bool {
        true
    }

    fn rounds(&self) -> usize {
        self.report.items.len()
    }

    fn step(&mut self, _system: &dyn DynUtilitySystem) -> SessionStatus {
        SessionStatus::Done
    }

    fn snapshot(&self) -> PartialSolution {
        PartialSolution {
            round: self.report.items.len(),
            items: self.report.items.clone(),
            group_sums: Vec::new(),
            objective: self.report.objective,
            oracle_calls: self.report.oracle_calls,
            done: true,
        }
    }

    fn solution_at(
        &self,
        _system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        if k == self.report.k {
            Ok(self.report.clone())
        } else {
            Err(SolverError::InvalidParams {
                solver: self.solver.to_string(),
                message: format!(
                    "one-shot session only serves its own budget k = {} (asked {k})",
                    self.report.k
                ),
            })
        }
    }

    fn finish(&mut self, _system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        Ok(self.report.clone())
    }
}

/// Native greedy session: one item insertion per step, prefix-exact.
///
/// Powers the warm k-axis sweeps: open at the largest `k` of the axis,
/// step to round `k_i`, and [`GreedySession::solution_at`] every
/// smaller budget from the recorded round boundaries.
pub struct GreedySession {
    tau: f64,
    k: usize,
    engine: GreedyEngine<MeanUtility>,
    parts: Option<StateParts<DynState>>,
}

impl GreedySession {
    /// Opens a session for the `Greedy` solver on `system` (initial
    /// state only; no oracle work until the first step).
    pub fn open(system: &dyn DynUtilitySystem, params: &ScenarioParams) -> Self {
        let erased = ErasedSystem(system);
        let mut state = SolutionState::new(&erased);
        let f = MeanUtility::new(system.dyn_num_users());
        let cfg = crate::algorithms::greedy::GreedyConfig {
            variant: params.variant.clone(),
            seed: params.seed,
            ..crate::algorithms::greedy::GreedyConfig::lazy(params.k)
        };
        let engine = GreedyEngine::new(&mut state, f, cfg);
        Self {
            tau: params.tau,
            k: params.k,
            engine,
            parts: Some(state.into_parts()),
        }
    }

    fn parts(&self) -> &StateParts<DynState> {
        self.parts.as_ref().expect("state parked between steps")
    }
}

impl SolveSession for GreedySession {
    fn solver(&self) -> &'static str {
        "Greedy"
    }

    fn done(&self) -> bool {
        self.engine.is_done()
    }

    fn rounds(&self) -> usize {
        self.engine.rounds()
    }

    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus {
        let erased = ErasedSystem(system);
        let mut state = SolutionState::from_parts(
            &erased,
            self.parts.take().expect("state parked between steps"),
        );
        let running = self.engine.step(&mut state);
        self.parts = Some(state.into_parts());
        if running {
            SessionStatus::Running
        } else {
            SessionStatus::Done
        }
    }

    fn snapshot(&self) -> PartialSolution {
        let parts = self.parts();
        PartialSolution {
            round: self.engine.rounds(),
            items: parts.items().to_vec(),
            group_sums: parts.group_sums().to_vec(),
            objective: self.engine.value(),
            oracle_calls: parts.oracle_calls(),
            done: self.engine.is_done(),
        }
    }

    fn prefix_exact(&self) -> bool {
        true
    }

    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        if k > self.k {
            return Err(SolverError::InvalidParams {
                solver: self.solver().to_string(),
                message: format!("session budget is k = {} (asked {k})", self.k),
            });
        }
        if k > self.engine.rounds() && !self.engine.is_done() {
            return Err(SolverError::InvalidParams {
                solver: self.solver().to_string(),
                message: format!(
                    "session has only run {} rounds (asked k = {k}); step it further",
                    self.engine.rounds()
                ),
            });
        }
        let r = k.min(self.engine.rounds());
        let items = self.parts().items()[..r].to_vec();
        let value = self.engine.value_at(k);
        // Mirrors `GreedySolver::solve` field for field, so warm
        // extraction is bit-identical to a cold run at budget `k`.
        let erased = ErasedSystem(system);
        let eval = evaluate(&erased, &items);
        let mut report = SolveReport::from_eval(self.solver(), k, self.tau, items, &eval, value);
        report.opt_f_estimate = value;
        report.oracle_calls = self.engine.calls_at(k);
        report.gain_kernel = system.dyn_gain_kernel().to_string();
        Ok(report)
    }

    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        while self.step(system) == SessionStatus::Running {}
        self.solution_at(system, self.k)
    }
}

/// Native Saturate session: one bisection probe per step.
pub struct SaturateSession {
    tau: f64,
    k: usize,
    stepper: SaturateStepper,
}

impl SaturateSession {
    /// Opens a session for the `Saturate` solver on `system`.
    pub fn open(system: &dyn DynUtilitySystem, params: &ScenarioParams) -> Self {
        let erased = ErasedSystem(system);
        Self {
            tau: params.tau,
            k: params.k,
            stepper: SaturateStepper::new(&erased, &saturate_config_for(params)),
        }
    }
}

/// Builds the Saturate configuration the adapters use (shared so the
/// session and the one-shot solver can never drift apart).
pub(crate) fn saturate_config_for(params: &ScenarioParams) -> SaturateConfig {
    let mut cfg = SaturateConfig::new(params.k);
    cfg.variant = params.variant.clone();
    if params.approximate_saturate {
        cfg = cfg.approximate_only();
    }
    cfg
}

/// Builds the BSM-TSGreedy configuration (shared by session and
/// one-shot solver). `params.tau` must already be validated.
pub(crate) fn ts_greedy_config_for(params: &ScenarioParams) -> TsGreedyConfig {
    TsGreedyConfig {
        variant: params.variant.clone(),
        saturate: saturate_config_for(params),
        ..TsGreedyConfig::new(params.k, params.tau)
    }
}

/// Builds the BSM-Saturate configuration (shared by session and
/// one-shot solver). `params.tau` and `params.epsilon` must already be
/// validated.
pub(crate) fn bsm_saturate_config_for(params: &ScenarioParams) -> BsmSaturateConfig {
    BsmSaturateConfig {
        variant: params.variant.clone(),
        saturate: saturate_config_for(params),
        ..BsmSaturateConfig::new(params.k, params.tau).with_epsilon(params.epsilon)
    }
}

impl SolveSession for SaturateSession {
    fn solver(&self) -> &'static str {
        "Saturate"
    }

    fn done(&self) -> bool {
        self.stepper.is_done()
    }

    fn rounds(&self) -> usize {
        self.stepper.rounds()
    }

    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus {
        let erased = ErasedSystem(system);
        if self.stepper.step(&erased) {
            SessionStatus::Running
        } else {
            SessionStatus::Done
        }
    }

    fn snapshot(&self) -> PartialSolution {
        let (items, objective) = match self.stepper.best_witness() {
            Some((items, value)) => (items.to_vec(), value),
            None => (Vec::new(), 0.0),
        };
        PartialSolution {
            round: self.stepper.rounds(),
            items,
            group_sums: self.stepper.best_witness_sums().to_vec(),
            objective,
            oracle_calls: self.stepper.oracle_calls(),
            done: self.stepper.is_done(),
        }
    }

    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        let run = match (k == self.k, self.stepper.outcome()) {
            (true, Some(run)) => run,
            (false, _) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: format!(
                        "Saturate sessions only serve their own budget k = {} (asked {k})",
                        self.k
                    ),
                })
            }
            (_, None) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: "session not finished; step it to completion first".into(),
                })
            }
        };
        // Mirrors `SaturateSolver::solve` field for field.
        let erased = ErasedSystem(system);
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.solver(),
            k,
            self.tau,
            run.items.clone(),
            &eval,
            run.opt_g_estimate,
        )
        .note("rounds", run.rounds as f64)
        .note("exact_path", if run.exact { 1.0 } else { 0.0 });
        report.opt_g_estimate = run.opt_g_estimate;
        report.oracle_calls = run.oracle_calls;
        report.gain_kernel = system.dyn_gain_kernel().to_string();
        Ok(report)
    }

    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        while self.step(system) == SessionStatus::Running {}
        self.solution_at(system, self.k)
    }
}

/// Native BSM-Saturate session: estimate stages, then one α probe per
/// step.
pub struct BsmSaturateSession {
    tau: f64,
    k: usize,
    stepper: BsmSaturateStepper,
}

impl BsmSaturateSession {
    /// Opens a session for the `BSM-Saturate` solver on `system`
    /// (parameters must already be validated).
    pub fn open(system: &dyn DynUtilitySystem, params: &ScenarioParams) -> Self {
        let erased = ErasedSystem(system);
        Self {
            tau: params.tau,
            k: params.k,
            stepper: BsmSaturateStepper::new(&erased, &bsm_saturate_config_for(params)),
        }
    }
}

impl SolveSession for BsmSaturateSession {
    fn solver(&self) -> &'static str {
        "BSM-Saturate"
    }

    fn done(&self) -> bool {
        self.stepper.is_done()
    }

    fn rounds(&self) -> usize {
        self.stepper.rounds()
    }

    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus {
        let erased = ErasedSystem(system);
        if self.stepper.step(&erased) {
            SessionStatus::Running
        } else {
            SessionStatus::Done
        }
    }

    fn snapshot(&self) -> PartialSolution {
        let (alpha_min, _) = self.stepper.alpha_bounds();
        PartialSolution {
            round: self.stepper.rounds(),
            items: self.stepper.best_items().to_vec(),
            group_sums: Vec::new(),
            objective: alpha_min,
            oracle_calls: self.stepper.oracle_calls(),
            done: self.stepper.is_done(),
        }
    }

    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        let run = match (k == self.k, self.stepper.outcome()) {
            (true, Some(run)) => run,
            (false, _) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: format!(
                        "BSM-Saturate sessions only serve their own budget k = {} (asked {k})",
                        self.k
                    ),
                })
            }
            (_, None) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: "session not finished; step it to completion first".into(),
                })
            }
        };
        // Mirrors `BsmSaturateSolver::solve` field for field. The f/g
        // fields come from the outcome's own oracle-exact evaluation;
        // harness-style re-evaluation happens in the caller.
        let objective = run.bsm.eval.f;
        let mut report = SolveReport::from_eval(
            self.solver(),
            k,
            self.tau,
            run.bsm.items.clone(),
            &run.bsm.eval,
            objective,
        )
        .note("alpha_min", run.alpha_min)
        .note("alpha_max", run.alpha_max)
        .note("rounds", run.rounds as f64);
        report.opt_f_estimate = run.bsm.opt_f_estimate;
        report.opt_g_estimate = run.bsm.opt_g_estimate;
        report.fell_back = run.bsm.fell_back;
        report.oracle_calls = run.bsm.oracle_calls;
        let _ = system;
        report.gain_kernel = system.dyn_gain_kernel().to_string();
        Ok(report)
    }

    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        while self.step(system) == SessionStatus::Running {}
        self.solution_at(system, self.k)
    }
}

/// Native BSM-TSGreedy session: estimate stages, one stage-1 cover
/// round per step, then the top-up.
pub struct TsGreedySession {
    tau: f64,
    k: usize,
    steps: usize,
    stepper: TsGreedyStepper<DynState>,
}

impl TsGreedySession {
    /// Opens a session for the `BSM-TSGreedy` solver on `system`
    /// (parameters must already be validated).
    pub fn open(system: &dyn DynUtilitySystem, params: &ScenarioParams) -> Self {
        let erased = ErasedSystem(system);
        Self {
            tau: params.tau,
            k: params.k,
            steps: 0,
            stepper: TsGreedyStepper::new(&erased, &ts_greedy_config_for(params)),
        }
    }
}

impl SolveSession for TsGreedySession {
    fn solver(&self) -> &'static str {
        "BSM-TSGreedy"
    }

    fn done(&self) -> bool {
        self.stepper.is_done()
    }

    fn rounds(&self) -> usize {
        self.steps
    }

    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus {
        if self.stepper.is_done() {
            // Post-done steps are no-ops and must not inflate the round
            // counter (finish() always issues one trailing step).
            return SessionStatus::Done;
        }
        let erased = ErasedSystem(system);
        let running = self.stepper.step(&erased);
        self.steps += 1;
        if running {
            SessionStatus::Running
        } else {
            SessionStatus::Done
        }
    }

    fn snapshot(&self) -> PartialSolution {
        let items = self.stepper.current_items();
        PartialSolution {
            round: self.steps,
            items,
            group_sums: self.stepper.current_sums(),
            objective: self.stepper.current_f(),
            oracle_calls: self.stepper.oracle_calls(),
            done: self.stepper.is_done(),
        }
    }

    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        let run = match (k == self.k, self.stepper.outcome()) {
            (true, Some(run)) => run,
            (false, _) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: format!(
                        "BSM-TSGreedy sessions only serve their own budget k = {} (asked {k})",
                        self.k
                    ),
                })
            }
            (_, None) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: "session not finished; step it to completion first".into(),
                })
            }
        };
        // Mirrors `TsGreedySolver::solve` field for field.
        let objective = run.bsm.eval.f;
        let mut report = SolveReport::from_eval(
            self.solver(),
            k,
            self.tau,
            run.bsm.items.clone(),
            &run.bsm.eval,
            objective,
        )
        .note("stage1_len", run.stage1_len as f64);
        report.opt_f_estimate = run.bsm.opt_f_estimate;
        report.opt_g_estimate = run.bsm.opt_g_estimate;
        report.fell_back = run.bsm.fell_back;
        report.oracle_calls = run.bsm.oracle_calls;
        let _ = system;
        report.gain_kernel = system.dyn_gain_kernel().to_string();
        Ok(report)
    }

    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        while self.step(system) == SessionStatus::Running {}
        self.solution_at(system, self.k)
    }
}

/// Where a [`GreediSession`]'s rounds get their oracles.
enum GreediSource {
    /// Shards of the system passed to `step`, cut by [`shard_partition`].
    Central(Vec<Vec<ItemId>>),
    /// A sharded instance that owns its shard and merge oracles.
    Sharded(Arc<ShardedInstance>),
}

/// Native GreeDi session: one shard's round-1 greedy per step, then one
/// merge step (round 2 over the union pool).
///
/// Steps the one GreeDi fold of [`crate::algorithms::distributed`] —
/// the fold [`crate::algorithms::distributed::greedi`] and
/// [`ShardedInstance::solve_greedi`] step — from either source: the
/// system passed to `step` ([`GreediSession::open`]) or a
/// [`ShardedInstance`] ([`GreediSession::sharded`], the daemon's path
/// for instances held as shard oracles). A sharded session ignores the
/// system passed to `step`; either way `solution_at`/`finish` evaluate
/// against the passed (centralized) system, so the finish report is
/// bit-identical to [`super::adapters::GreediSolver`]'s.
pub struct GreediSession {
    tau: f64,
    k: usize,
    source: GreediSource,
    fold: GreediFold,
    /// First shard-build failure (out-of-core scratch I/O); terminal —
    /// surfaced by `solution_at`/`finish` instead of a panic.
    failure: Option<SolverError>,
    steps: usize,
}

impl GreediSession {
    /// Opens a session for the `GreeDi` solver on `system` (parameters
    /// must already be validated; no oracle work until the first step).
    pub fn open(system: &dyn DynUtilitySystem, params: &ScenarioParams) -> Self {
        let shards = params.shards.max(1);
        let partition = shard_partition(system.dyn_num_items(), shards, params.seed);
        Self::with_source(GreediSource::Central(partition), shards, params)
    }

    /// Opens a session over `instance` (parameters must already be
    /// validated; no oracle work until the first step). The instance's
    /// own shard count drives the schedule — `params.shards` is ignored
    /// here because the partition is already baked into the instance.
    pub fn sharded(instance: Arc<ShardedInstance>, params: &ScenarioParams) -> Self {
        let shards = instance.num_shards();
        Self::with_source(GreediSource::Sharded(instance), shards, params)
    }

    fn with_source(source: GreediSource, shards: usize, params: &ScenarioParams) -> Self {
        Self {
            tau: params.tau,
            k: params.k,
            source,
            fold: GreediFold::new(params.k, shards, &params.variant),
            failure: None,
            steps: 0,
        }
    }
}

impl SolveSession for GreediSession {
    fn solver(&self) -> &'static str {
        "GreeDi"
    }

    fn done(&self) -> bool {
        self.fold.outcome().is_some() || self.failure.is_some()
    }

    fn rounds(&self) -> usize {
        self.steps
    }

    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus {
        if self.done() {
            // Post-done steps are no-ops and must not inflate the round
            // counter (finish() always issues one trailing step).
            return SessionStatus::Done;
        }
        let stepped = match &self.source {
            GreediSource::Central(partition) => {
                let f = MeanUtility::new(system.dyn_num_users());
                Ok(self.fold.step_central(&ErasedSystem(system), &f, partition))
            }
            GreediSource::Sharded(instance) => instance.step_greedi(&mut self.fold),
        };
        match stepped {
            Ok(running) => {
                self.steps += 1;
                if running {
                    SessionStatus::Running
                } else {
                    SessionStatus::Done
                }
            }
            Err(err) => {
                self.failure = Some(err);
                SessionStatus::Done
            }
        }
    }

    fn snapshot(&self) -> PartialSolution {
        let (items, objective) = self.fold.best();
        PartialSolution {
            round: self.steps,
            items,
            group_sums: Vec::new(),
            objective,
            oracle_calls: self.fold.oracle_calls(),
            done: self.done(),
        }
    }

    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        if let Some(err) = &self.failure {
            return Err(SolverError::InvalidParams {
                solver: self.solver().to_string(),
                message: format!("shard materialization failed: {err}"),
            });
        }
        let run = match (k == self.k, self.fold.outcome()) {
            (true, Some(run)) => run,
            (false, _) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: format!(
                        "GreeDi sessions only serve their own budget k = {} (asked {k})",
                        self.k
                    ),
                })
            }
            (_, None) => {
                return Err(SolverError::InvalidParams {
                    solver: self.solver().to_string(),
                    message: "session not finished; step it to completion first".into(),
                })
            }
        };
        // Mirrors `GreediSolver::solve` field for field.
        let erased = ErasedSystem(system);
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.solver(),
            k,
            self.tau,
            run.items.clone(),
            &eval,
            run.value,
        )
        .note("shards", self.fold.shards() as f64)
        .note("best_shard_value", run.best_shard_value);
        report.oracle_calls = run.oracle_calls;
        report.gain_kernel = system.dyn_gain_kernel().to_string();
        Ok(report)
    }

    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        while self.step(system) == SessionStatus::Running {}
        self.solution_at(system, self.k)
    }
}

/// Native Sieve-Streaming session: one stream arrival per step.
///
/// Wraps the same `SieveCore` the one-shot free function and
/// [`ShardedInstance::solve_sieve`] drive, so the grid of OPT guesses,
/// acceptance thresholds, and oracle-call accounting are shared by
/// construction. A session opened with [`SieveSession::sharded`] owns
/// its stream — the sorted union of shard ids and the merge oracle over
/// them — and ignores the system passed to `step`; either way
/// `solution_at`/`finish` evaluate against the passed (centralized)
/// system, so the finish report is byte-identical to the centralized
/// `SieveStreaming` solver's.
pub struct SieveSession {
    tau: f64,
    k: usize,
    /// Owned stream: global ids of the union oracle's local items, and
    /// the union oracle itself.
    owned: Option<(Vec<ItemId>, Arc<dyn DynUtilitySystem>)>,
    core: SieveCore<DynState>,
    steps: usize,
}

impl SieveSession {
    /// Opens a session for the `SieveStreaming` solver on `system`
    /// (parameters must already be validated).
    pub fn open(system: &dyn DynUtilitySystem, params: &ScenarioParams) -> Self {
        let erased = ErasedSystem(system);
        let cfg = SieveConfig {
            k: params.k,
            epsilon: params.epsilon,
        };
        Self {
            tau: params.tau,
            k: params.k,
            owned: None,
            core: SieveCore::new(&erased, &cfg),
            steps: 0,
        }
    }

    /// Opens a session streaming `instance`'s shard union (parameters
    /// must already be validated). Materializes the union merge oracle
    /// once.
    pub fn sharded(instance: &ShardedInstance, params: &ScenarioParams) -> Self {
        let (union, system) = instance.union_system();
        Self {
            owned: Some((union, Arc::clone(&system))),
            ..Self::open(system.as_ref(), params)
        }
    }

    /// `items` of the streamed oracle as global ids.
    fn global(&self, items: Vec<ItemId>) -> Vec<ItemId> {
        match &self.owned {
            Some((union, _)) => items.iter().map(|&j| union[j as usize]).collect(),
            None => items,
        }
    }
}

impl SolveSession for SieveSession {
    fn solver(&self) -> &'static str {
        "SieveStreaming"
    }

    fn done(&self) -> bool {
        self.core.done()
    }

    fn rounds(&self) -> usize {
        self.steps
    }

    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus {
        if self.core.done() {
            // Post-done steps are no-ops and must not inflate the round
            // counter (finish() always issues one trailing step).
            return SessionStatus::Done;
        }
        let system = self
            .owned
            .as_ref()
            .map_or(system, |(_, owned)| owned.as_ref());
        let f = MeanUtility::new(system.dyn_num_users());
        self.core.step(&ErasedSystem(system), &f);
        self.steps += 1;
        if self.core.done() {
            SessionStatus::Done
        } else {
            SessionStatus::Running
        }
    }

    fn snapshot(&self) -> PartialSolution {
        let run = self.core.outcome();
        PartialSolution {
            round: self.steps,
            items: self.global(run.items),
            group_sums: Vec::new(),
            objective: run.value,
            oracle_calls: run.oracle_calls,
            done: self.core.done(),
        }
    }

    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        if k != self.k {
            return Err(SolverError::InvalidParams {
                solver: self.solver().to_string(),
                message: format!(
                    "SieveStreaming sessions only serve their own budget k = {} (asked {k})",
                    self.k
                ),
            });
        }
        if !self.core.done() {
            return Err(SolverError::InvalidParams {
                solver: self.solver().to_string(),
                message: "session not finished; step it to completion first".into(),
            });
        }
        // Mirrors `SieveStreamingSolver::solve` field for field.
        let run = self.core.outcome();
        let items = self.global(run.items);
        let erased = ErasedSystem(system);
        let eval = evaluate(&erased, &items);
        let mut report =
            SolveReport::from_eval(self.solver(), k, self.tau, items, &eval, run.value)
                .note("candidates", run.candidates as f64);
        report.oracle_calls = run.oracle_calls;
        report.gain_kernel = system.dyn_gain_kernel().to_string();
        Ok(report)
    }

    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        while self.step(system) == SessionStatus::Running {}
        self.solution_at(system, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::super::SolverRegistry;
    use super::*;
    use crate::toy;

    fn strip_seconds(mut report: SolveReport) -> SolveReport {
        report.seconds = 0.0;
        report
    }

    #[test]
    fn greedy_session_prefixes_match_cold_runs() {
        let sys = toy::random_coverage(30, 90, 3, 0.1, 4);
        let registry = SolverRegistry::default();
        let params = ScenarioParams::new(7, 0.5);
        let mut session = GreedySession::open(&sys, &params);
        assert!(session.prefix_exact());
        // Not stepped far enough yet: k beyond the current round errors.
        assert!(session.solution_at(&sys, 5).is_err());
        while session.step(&sys) == SessionStatus::Running {}
        for k in 0..=7usize {
            let mut cold_params = params.clone();
            cold_params.k = k;
            let cold = strip_seconds(registry.solve("Greedy", &sys, &cold_params).unwrap());
            let warm = session.solution_at(&sys, k).unwrap();
            assert_eq!(warm, cold, "k = {k}");
        }
        assert!(session.solution_at(&sys, 8).is_err(), "beyond the budget");
    }

    #[test]
    fn native_sessions_finish_bit_identically_to_one_shot_solves() {
        let sys = toy::random_coverage(24, 72, 2, 0.12, 9);
        let registry = SolverRegistry::default();
        let params = ScenarioParams::new(4, 0.7);
        for name in ["Greedy", "Saturate", "BSM-Saturate", "BSM-TSGreedy"] {
            let one_shot = strip_seconds(registry.solve(name, &sys, &params).unwrap());
            let mut session = registry.open_session(name, &sys, &params).unwrap();
            assert_eq!(session.solver(), name);
            let report = session.finish(&sys).unwrap();
            assert_eq!(report, one_shot, "{name}");
        }
    }

    #[test]
    fn sessions_report_progress_between_steps() {
        let sys = toy::random_coverage(20, 60, 2, 0.15, 2);
        let params = ScenarioParams::new(5, 0.5);
        let mut session = GreedySession::open(&sys, &params);
        let before = session.snapshot();
        assert_eq!(before.round, 0);
        assert!(!before.done);
        session.step(&sys);
        let after = session.snapshot();
        assert_eq!(after.round, 1);
        assert_eq!(after.items.len(), 1);
        assert!(after.oracle_calls > 0);
        assert_eq!(after.group_sums.len(), 2);
    }

    #[test]
    fn one_shot_sessions_wrap_non_resumable_solvers() {
        let sys = toy::figure1();
        let registry = SolverRegistry::default();
        let params = ScenarioParams::new(2, 0.5);
        let mut session = registry.open_session("MWU", &sys, &params).unwrap();
        assert!(session.done());
        assert!(!session.prefix_exact());
        assert_eq!(session.step(&sys), SessionStatus::Done);
        let report = session.finish(&sys).unwrap();
        let one_shot = strip_seconds(registry.solve("MWU", &sys, &params).unwrap());
        assert_eq!(report, one_shot);
        assert!(session.solution_at(&sys, 1).is_err());
    }

    #[test]
    fn open_session_propagates_typed_errors() {
        let sys = toy::figure1();
        let registry = SolverRegistry::default();
        let bad_tau = ScenarioParams::new(2, 1.5);
        for name in ["BSM-Saturate", "BSM-TSGreedy"] {
            let err = registry
                .open_session(name, &sys, &bad_tau)
                .err()
                .expect("invalid tau must be rejected");
            assert!(matches!(err, SolverError::InvalidParams { .. }), "{name}");
        }
        let err = registry
            .open_session("NotASolver", &sys, &ScenarioParams::new(2, 0.5))
            .err()
            .expect("unknown solver must be rejected");
        assert!(matches!(err, SolverError::UnknownSolver { .. }));
    }
}
