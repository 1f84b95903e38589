//! [`Solver`] adapters for every `core::algorithms` entry point.
//!
//! Each adapter lives next to the algorithm it wraps conceptually: it
//! translates [`ScenarioParams`] into the algorithm's own config type,
//! runs the free function over the type-erased oracle, and folds the
//! outcome into the uniform [`SolveReport`]. Capability gaps the free
//! functions express as panics/asserts (SMSC's two-group requirement,
//! exact blow-ups) are checked *before* the call and surface as typed
//! [`SolverError`]s.
//!
//! `oracle_calls` is reported wherever the underlying routine accounts
//! for it; adapters whose routine does not expose a call count
//! (`Random`, `TopSingletons`, `ParetoSweep`) report 0.
//!
//! The adapters that run the τ-independent BSM stages (`Saturate`,
//! `BSM-TSGreedy`, `BSM-Saturate`, and `LocalSearch`'s TSGreedy start)
//! compute them first and seed the algorithm's stepper with them,
//! taking them from the system's [`super::StageMemo`] when it carries
//! one; the report is bit-identical either way.

use crate::aggregate::MeanUtility;
use crate::algorithms::baselines::{random_subset, top_singletons};
use crate::algorithms::bsm_saturate::bsm_saturate_seeded;
use crate::algorithms::distributed::{greedi, GreediConfig};
use crate::algorithms::exact::{branch_and_bound_bsm, brute_force_bsm, ExactConfig};
use crate::algorithms::greedy::{greedy, GreedyConfig};
use crate::algorithms::knapsack::{knapsack_greedy, KnapsackConfig};
use crate::algorithms::local_search::{local_search_refine, LocalSearchConfig};
use crate::algorithms::mwu::{mwu_robust, MwuConfig};
use crate::algorithms::nonmonotone::{random_greedy, RandomGreedyConfig};
use crate::algorithms::pareto::{pareto_frontier, FrontierConfig, FrontierSolver};
use crate::algorithms::saturate::SaturateConfig;
use crate::algorithms::smsc::{smsc, SmscConfig};
use crate::algorithms::streaming::{sieve_streaming, SieveConfig};
use crate::algorithms::tsgreedy::{bsm_tsgreedy_seeded, TsGreedyOutcome};
use crate::items::binomial;
use crate::metrics::evaluate;

use super::erased::{DynUtilitySystem, ErasedSystem};
use super::memo::{greedy_f_stage, saturate_stage};
use super::params::ScenarioParams;
use super::registry::{Capabilities, Solver};
use super::report::{SolveReport, SolverError};
use super::session::{
    bsm_saturate_config_for, saturate_config_for, ts_greedy_config_for, BsmSaturateSession,
    GreediSession, GreedySession, SaturateSession, SieveSession, SolveSession, TsGreedySession,
};

/// The default suite: one boxed adapter per `core::algorithms` entry
/// point, in the paper's presentation order followed by the extensions.
pub fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(GreedySolver),
        Box::new(SaturateSolver),
        Box::new(SmscSolver),
        Box::new(TsGreedySolver),
        Box::new(BsmSaturateSolver),
        Box::new(BsmOptimalSolver),
        Box::new(BruteForceSolver),
        Box::new(RandomSolver),
        Box::new(TopSingletonsSolver),
        Box::new(SieveStreamingSolver),
        Box::new(GreediSolver),
        Box::new(KnapsackSolver),
        Box::new(LocalSearchSolver),
        Box::new(RandomGreedySolver),
        Box::new(MwuSolver),
        Box::new(ParetoSweepSolver),
    ]
}

fn check_tau(solver: &str, tau: f64) -> Result<(), SolverError> {
    if (0.0..=1.0).contains(&tau) {
        Ok(())
    } else {
        Err(SolverError::InvalidParams {
            solver: solver.to_string(),
            message: format!("tau must lie in [0, 1], got {tau}"),
        })
    }
}

fn check_epsilon(solver: &str, epsilon: f64) -> Result<(), SolverError> {
    if epsilon > 0.0 && epsilon < 1.0 {
        Ok(())
    } else {
        Err(SolverError::InvalidParams {
            solver: solver.to_string(),
            message: format!("epsilon must lie in (0, 1), got {epsilon}"),
        })
    }
}

/// Maps an algorithm-level [`crate::algorithms::InvalidConfig`] onto the
/// engine's typed rejection — the seam that upholds the registry
/// contract ("never a panic") for entry points whose free functions
/// validate their own configs.
fn invalid_config(solver: &str, err: crate::algorithms::InvalidConfig) -> SolverError {
    SolverError::InvalidParams {
        solver: solver.to_string(),
        message: err.message,
    }
}

fn saturate_config(params: &ScenarioParams) -> SaturateConfig {
    saturate_config_for(params)
}

/// BSM-TSGreedy from seeded stages (shared by `BSM-TSGreedy` and
/// `LocalSearch`). `params.tau` must already be validated.
fn ts_greedy_run(system: &dyn DynUtilitySystem, params: &ScenarioParams) -> TsGreedyOutcome {
    let cfg = ts_greedy_config_for(params);
    let greedy_f = greedy_f_stage(system, &cfg.greedy_f_config());
    let sat = saturate_stage(system, &cfg.saturate);
    bsm_tsgreedy_seeded(&ErasedSystem(system), &cfg, greedy_f, sat)
}

fn greedy_config(params: &ScenarioParams) -> GreedyConfig {
    GreedyConfig {
        variant: params.variant.clone(),
        seed: params.seed,
        ..GreedyConfig::lazy(params.k)
    }
}

/// Builds the GreeDi configuration (shared by `solve` and
/// `open_session` so the two can never drift apart).
fn greedi_config(params: &ScenarioParams) -> GreediConfig {
    GreediConfig {
        k: params.k,
        shards: params.shards,
        variant: params.variant.clone(),
        seed: params.seed,
    }
}

/// Classic greedy on `f` — the fairness-unaware utility anchor.
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            resumable: true,
            prefix_exact: true,
            ..Capabilities::default()
        }
    }

    fn open_session(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<Box<dyn SolveSession>, SolverError> {
        Ok(Box::new(GreedySession::open(system, params)))
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let erased = ErasedSystem(system);
        let f = MeanUtility::new(system.dyn_num_users());
        let run = greedy(&erased, &f, &greedy_config(params));
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &eval,
            run.value,
        );
        report.opt_f_estimate = run.value;
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// Saturate on `g` — the fairness-only robust anchor.
pub struct SaturateSolver;

impl Solver for SaturateSolver {
    fn name(&self) -> &'static str {
        "Saturate"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            resumable: true,
            ..Capabilities::default()
        }
    }

    fn open_session(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<Box<dyn SolveSession>, SolverError> {
        Ok(Box::new(SaturateSession::open(system, params)))
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let erased = ErasedSystem(system);
        let run = saturate_stage(system, &saturate_config(params));
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &eval,
            run.opt_g_estimate,
        )
        .note("rounds", run.rounds as f64)
        .note("exact_path", if run.exact { 1.0 } else { 0.0 });
        report.opt_g_estimate = run.opt_g_estimate;
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// The SMSC baseline — defined only for exactly two groups.
pub struct SmscSolver;

impl Solver for SmscSolver {
    fn name(&self) -> &'static str {
        "SMSC"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            requires_two_groups: true,
            ..Capabilities::default()
        }
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let c = system.dyn_num_groups();
        if c != 2 {
            return Err(SolverError::UnsupportedGroupCount {
                solver: self.name().to_string(),
                required: 2,
                got: c,
            });
        }
        let erased = ErasedSystem(system);
        let mut cfg = SmscConfig::new(params.k);
        cfg.variant = params.variant.clone();
        let run = smsc(&erased, &cfg);
        let objective = run.eval.g;
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &run.eval,
            objective,
        );
        report.fell_back = run.fell_back;
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// BSM-TSGreedy (Algorithm 1 of the paper).
pub struct TsGreedySolver;

impl Solver for TsGreedySolver {
    fn name(&self) -> &'static str {
        "BSM-TSGreedy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            uses_tau: true,
            resumable: true,
            ..Capabilities::default()
        }
    }

    fn open_session(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<Box<dyn SolveSession>, SolverError> {
        check_tau(self.name(), params.tau)?;
        Ok(Box::new(TsGreedySession::open(system, params)))
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        check_tau(self.name(), params.tau)?;
        let run = ts_greedy_run(system, params);
        let objective = run.bsm.eval.f;
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.bsm.items,
            &run.bsm.eval,
            objective,
        )
        .note("stage1_len", run.stage1_len as f64);
        report.opt_f_estimate = run.bsm.opt_f_estimate;
        report.opt_g_estimate = run.bsm.opt_g_estimate;
        report.fell_back = run.bsm.fell_back;
        report.oracle_calls = run.bsm.oracle_calls;
        Ok(report)
    }
}

/// BSM-Saturate (Algorithm 2 of the paper).
pub struct BsmSaturateSolver;

impl Solver for BsmSaturateSolver {
    fn name(&self) -> &'static str {
        "BSM-Saturate"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            uses_tau: true,
            resumable: true,
            ..Capabilities::default()
        }
    }

    fn open_session(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<Box<dyn SolveSession>, SolverError> {
        check_tau(self.name(), params.tau)?;
        check_epsilon(self.name(), params.epsilon)?;
        Ok(Box::new(BsmSaturateSession::open(system, params)))
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        check_tau(self.name(), params.tau)?;
        check_epsilon(self.name(), params.epsilon)?;
        let cfg = bsm_saturate_config_for(params);
        let greedy_f = greedy_f_stage(system, &cfg.greedy_f_config());
        let sat = saturate_stage(system, &cfg.saturate);
        let run = bsm_saturate_seeded(&ErasedSystem(system), &cfg, greedy_f, sat);
        let objective = run.bsm.eval.f;
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.bsm.items,
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
        Ok(report)
    }
}

/// Exact `BSM-Optimal` via submodular branch-and-bound. Refuses ground
/// sets beyond [`ScenarioParams::exact_item_cap`].
pub struct BsmOptimalSolver;

impl Solver for BsmOptimalSolver {
    fn name(&self) -> &'static str {
        "BSM-Optimal"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: true,
            uses_tau: true,
            ..Capabilities::default()
        }
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        check_tau(self.name(), params.tau)?;
        let n = system.dyn_num_items();
        if n > params.exact_item_cap {
            return Err(SolverError::GridTooLarge {
                solver: self.name().to_string(),
                cap: format!("n <= {}", params.exact_item_cap),
                size: format!("n = {n}"),
            });
        }
        let erased = ErasedSystem(system);
        let mut cfg = ExactConfig::new(params.k, params.tau);
        cfg.node_limit = params.exact_node_limit;
        let run = branch_and_bound_bsm(&erased, &cfg);
        let objective = run.eval.f;
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &run.eval,
            objective,
        )
        .note("nodes", run.nodes as f64)
        .note("complete", if run.complete { 1.0 } else { 0.0 })
        .note("feasible", if run.feasible { 1.0 } else { 0.0 });
        report.opt_g_estimate = run.opt_g;
        report.fell_back = !run.complete;
        Ok(report)
    }
}

/// Exact BSM via full `C(n, k)` enumeration. Refuses grids whose subset
/// count exceeds [`ScenarioParams::exact_subset_limit`].
pub struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "BruteForce"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: true,
            uses_tau: true,
            ..Capabilities::default()
        }
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        check_tau(self.name(), params.tau)?;
        let n = system.dyn_num_items();
        let subsets = binomial(n, params.k.min(n));
        if subsets > params.exact_subset_limit {
            return Err(SolverError::GridTooLarge {
                solver: self.name().to_string(),
                cap: format!("C(n, k) <= {:.0}", params.exact_subset_limit),
                size: format!("C({n}, {}) = {subsets:.3e}", params.k.min(n)),
            });
        }
        let erased = ErasedSystem(system);
        let run = brute_force_bsm(&erased, params.k, params.tau);
        let objective = run.eval.f;
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &run.eval,
            objective,
        )
        .note("subsets", subsets)
        .note("feasible", if run.feasible { 1.0 } else { 0.0 });
        report.opt_g_estimate = run.opt_g;
        Ok(report)
    }
}

/// Uniformly random size-`k` baseline (deterministic per seed).
pub struct RandomSolver;

impl Solver for RandomSolver {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            randomized: true,
            ..Capabilities::default()
        }
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let erased = ErasedSystem(system);
        let (items, eval) = random_subset(&erased, params.k, params.seed);
        let objective = eval.f;
        Ok(SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            items,
            &eval,
            objective,
        ))
    }
}

/// Top-`k` singleton items by `f`-gain.
pub struct TopSingletonsSolver;

impl Solver for TopSingletonsSolver {
    fn name(&self) -> &'static str {
        "TopSingletons"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let erased = ErasedSystem(system);
        let f = MeanUtility::new(system.dyn_num_users());
        let (items, eval) = top_singletons(&erased, &f, params.k);
        let objective = eval.f;
        Ok(SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            items,
            &eval,
            objective,
        ))
    }
}

/// Single-pass Sieve-Streaming on `f`.
pub struct SieveStreamingSolver;

impl Solver for SieveStreamingSolver {
    fn name(&self) -> &'static str {
        "SieveStreaming"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            resumable: true,
            streaming: true,
            ..Capabilities::default()
        }
    }

    fn open_session(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<Box<dyn SolveSession>, SolverError> {
        check_epsilon(self.name(), params.epsilon)?;
        Ok(Box::new(SieveSession::open(system, params)))
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        check_epsilon(self.name(), params.epsilon)?;
        let erased = ErasedSystem(system);
        let f = MeanUtility::new(system.dyn_num_users());
        let cfg = SieveConfig {
            k: params.k,
            epsilon: params.epsilon,
        };
        let run = sieve_streaming(&erased, &f, &cfg).map_err(|e| invalid_config(self.name(), e))?;
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &eval,
            run.value,
        )
        .note("candidates", run.candidates as f64);
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// Two-round distributed GreeDi on `f`.
pub struct GreediSolver;

impl Solver for GreediSolver {
    fn name(&self) -> &'static str {
        "GreeDi"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            randomized: true,
            resumable: true,
            sharded: true,
            ..Capabilities::default()
        }
    }

    fn open_session(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<Box<dyn SolveSession>, SolverError> {
        greedi_config(params)
            .validate()
            .map_err(|e| invalid_config(self.name(), e))?;
        Ok(Box::new(GreediSession::open(system, params)))
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let erased = ErasedSystem(system);
        let f = MeanUtility::new(system.dyn_num_users());
        let cfg = greedi_config(params);
        let run = greedi(&erased, &f, &cfg).map_err(|e| invalid_config(self.name(), e))?;
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &eval,
            run.value,
        )
        .note("shards", params.shards as f64)
        .note("best_shard_value", run.best_shard_value);
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// Cost-benefit greedy + best singleton under a unit-cost budget of `k`
/// (or [`ScenarioParams::knapsack_budget`] when set).
pub struct KnapsackSolver;

impl Solver for KnapsackSolver {
    fn name(&self) -> &'static str {
        "Knapsack"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let budget = params.knapsack_budget.unwrap_or(params.k as f64);
        if !(budget > 0.0) {
            return Err(SolverError::InvalidParams {
                solver: self.name().to_string(),
                message: format!("budget must be positive, got {budget}"),
            });
        }
        let erased = ErasedSystem(system);
        let f = MeanUtility::new(system.dyn_num_users());
        let cfg = KnapsackConfig::uniform(system.dyn_num_items(), budget);
        let run = knapsack_greedy(&erased, &f, &cfg);
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &eval,
            run.value,
        )
        .note("cost", run.cost)
        .note("singleton_won", if run.singleton_won { 1.0 } else { 0.0 });
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// BSM-TSGreedy followed by fairness-constrained pairwise-interchange
/// refinement on `f` (swaps keep `g(S) ≥ τ·OPT'_g`).
pub struct LocalSearchSolver;

impl Solver for LocalSearchSolver {
    fn name(&self) -> &'static str {
        "LocalSearch"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            uses_tau: true,
            ..Capabilities::default()
        }
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        check_tau(self.name(), params.tau)?;
        let erased = ErasedSystem(system);
        let start = ts_greedy_run(system, params).bsm;
        let g_floor = params.tau * start.opt_g_estimate - 1e-9;
        let constraint = |items: &[crate::items::ItemId]| evaluate(&erased, items).g >= g_floor;
        let f = MeanUtility::new(system.dyn_num_users());
        let refined = local_search_refine(
            &erased,
            &f,
            &start.items,
            &constraint,
            &LocalSearchConfig::default(),
        );
        let eval = evaluate(&erased, &refined.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            refined.items,
            &eval,
            refined.value,
        )
        .note("swaps", refined.swaps as f64)
        .note("initial_f", refined.initial_value);
        report.opt_f_estimate = start.opt_f_estimate;
        report.opt_g_estimate = start.opt_g_estimate;
        report.fell_back = start.fell_back;
        report.oracle_calls = start.oracle_calls + refined.oracle_calls;
        Ok(report)
    }
}

/// Random Greedy (uniform choice among the top-`k` gains each round).
pub struct RandomGreedySolver;

impl Solver for RandomGreedySolver {
    fn name(&self) -> &'static str {
        "RandomGreedy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            randomized: true,
            ..Capabilities::default()
        }
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let erased = ErasedSystem(system);
        let f = MeanUtility::new(system.dyn_num_users());
        let cfg = RandomGreedyConfig {
            k: params.k,
            seed: params.seed,
        };
        let run = random_greedy(&erased, &f, &cfg);
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &eval,
            run.value,
        );
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// Multiplicative-weight updates for the maximin objective `g`.
pub struct MwuSolver;

impl Solver for MwuSolver {
    fn name(&self) -> &'static str {
        "MWU"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let erased = ErasedSystem(system);
        let cfg = MwuConfig {
            k: params.k,
            rounds: params.mwu_rounds,
            eta: None,
            variant: params.variant.clone(),
        };
        let run = mwu_robust(&erased, &cfg);
        let eval = evaluate(&erased, &run.items);
        let mut report = SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            run.items,
            &eval,
            run.opt_g_estimate,
        )
        .note("rounds", run.rounds as f64);
        report.opt_g_estimate = run.opt_g_estimate;
        report.oracle_calls = run.oracle_calls;
        Ok(report)
    }
}

/// τ-sweep Pareto frontier (BSM-Saturate driven, with the request's
/// `epsilon`, `variant` and Saturate path): returns the knee point
/// (maximum `f + g` on the frontier) and reports the sweep's
/// hypervolume as the objective.
pub struct ParetoSweepSolver;

impl Solver for ParetoSweepSolver {
    fn name(&self) -> &'static str {
        "ParetoSweep"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        if params.sweep_taus.is_empty() {
            return Err(SolverError::InvalidParams {
                solver: self.name().to_string(),
                message: "sweep_taus must be non-empty".into(),
            });
        }
        check_epsilon(self.name(), params.epsilon)?;
        let erased = ErasedSystem(system);
        let cfg = FrontierConfig {
            k: params.k,
            taus: params.sweep_taus.clone(),
            solver: FrontierSolver::BsmSaturate,
            epsilon: params.epsilon,
            variant: params.variant.clone(),
            saturate: saturate_config(params),
        };
        let frontier = pareto_frontier(&erased, &cfg);
        let knee = frontier
            .points
            .iter()
            .filter(|p| p.on_frontier)
            .max_by(|a, b| (a.f + a.g).partial_cmp(&(b.f + b.g)).expect("finite"))
            .ok_or_else(|| SolverError::InvalidParams {
                solver: self.name().to_string(),
                message: "sweep produced an empty frontier".into(),
            })?;
        let eval = evaluate(&erased, &knee.items);
        let on_frontier = frontier.points.iter().filter(|p| p.on_frontier).count();
        Ok(SolveReport::from_eval(
            self.name(),
            params.k,
            params.tau,
            knee.items.clone(),
            &eval,
            frontier.hypervolume,
        )
        .note("hypervolume", frontier.hypervolume)
        .note("points", frontier.points.len() as f64)
        .note("frontier_points", on_frontier as f64)
        .note("knee_tau", knee.tau))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SolverRegistry;
    use crate::toy;

    #[test]
    fn figure1_matches_the_direct_calls() {
        let sys = toy::figure1();
        let registry = SolverRegistry::default();
        let params = ScenarioParams::new(2, 0.8);
        let ts = registry.solve("BSM-TSGreedy", &sys, &params).unwrap();
        let mut items = ts.items.clone();
        items.sort_unstable();
        assert_eq!(items, vec![0, 3]); // falls back to S_g at τ = 0.8
        assert!(ts.fell_back);
        let greedy = registry
            .solve("Greedy", &sys, &ScenarioParams::new(2, 0.0))
            .unwrap();
        assert_eq!(greedy.items, vec![0, 1]);
        assert!((greedy.f - 0.75).abs() < 1e-12);
        assert!((greedy.objective - 0.75).abs() < 1e-12);
        assert!(greedy.oracle_calls > 0);
    }

    #[test]
    fn smsc_rejects_non_two_group_systems_cleanly() {
        let sys = toy::random_coverage(10, 30, 3, 0.2, 1);
        let registry = SolverRegistry::default();
        let err = registry
            .solve("SMSC", &sys, &ScenarioParams::new(2, 0.5))
            .unwrap_err();
        assert_eq!(
            err,
            SolverError::UnsupportedGroupCount {
                solver: "SMSC".into(),
                required: 2,
                got: 3,
            }
        );
    }

    #[test]
    fn exact_solvers_refuse_grids_beyond_their_caps() {
        let sys = toy::random_coverage(40, 60, 2, 0.2, 3);
        let registry = SolverRegistry::default();
        let mut params = ScenarioParams::new(8, 0.5);
        params.exact_subset_limit = 1_000.0; // C(40, 8) >> 1000
        let err = registry.solve("BruteForce", &sys, &params).unwrap_err();
        assert!(matches!(err, SolverError::GridTooLarge { .. }), "{err}");
        params.exact_item_cap = 20; // n = 40 > 20
        let err = registry.solve("BSM-Optimal", &sys, &params).unwrap_err();
        assert!(matches!(err, SolverError::GridTooLarge { .. }), "{err}");
        // Within the caps, both run and agree on OPT_g.
        let mut small = ScenarioParams::new(3, 0.5);
        small.exact_node_limit = 1_000_000;
        let tiny = toy::random_coverage(10, 30, 2, 0.2, 5);
        let bb = registry.solve("BSM-Optimal", &tiny, &small).unwrap();
        let bf = registry.solve("BruteForce", &tiny, &small).unwrap();
        assert!((bb.opt_g_estimate - bf.opt_g_estimate).abs() < 1e-9);
        assert!((bb.f - bf.f).abs() < 1e-9);
    }

    #[test]
    fn invalid_params_are_typed_not_panics() {
        let sys = toy::figure1();
        let registry = SolverRegistry::default();
        let bad_tau = ScenarioParams::new(2, 1.5);
        for name in ["BSM-TSGreedy", "BSM-Saturate", "BSM-Optimal", "LocalSearch"] {
            let err = registry.solve(name, &sys, &bad_tau).unwrap_err();
            assert!(
                matches!(err, SolverError::InvalidParams { .. }),
                "{name}: {err}"
            );
        }
        let bad_eps = ScenarioParams::new(2, 0.5).with_epsilon(1.0);
        for name in ["BSM-Saturate", "SieveStreaming", "ParetoSweep"] {
            assert!(registry.solve(name, &sys, &bad_eps).is_err(), "{name}");
            assert!(
                registry.open_session(name, &sys, &bad_eps).is_err(),
                "{name}"
            );
        }
        let mut bad_shards = ScenarioParams::new(2, 0.5);
        bad_shards.shards = 0;
        for run in [
            registry.solve("GreeDi", &sys, &bad_shards).map(|_| ()),
            registry
                .open_session("GreeDi", &sys, &bad_shards)
                .map(|_| ()),
        ] {
            let err = run.unwrap_err();
            assert!(matches!(err, SolverError::InvalidParams { .. }), "{err}");
        }
    }

    #[test]
    fn pareto_sweep_reports_the_knee_and_hypervolume() {
        let sys = toy::figure1();
        let registry = SolverRegistry::default();
        let mut params = ScenarioParams::new(2, 0.5);
        params.sweep_taus = vec![0.0, 0.3, 0.8];
        let report = registry.solve("ParetoSweep", &sys, &params).unwrap();
        assert!(report.objective > 0.0);
        assert!(report.items.len() <= 2);
        assert!(report.notes.iter().any(|(l, _)| l == "hypervolume"));
    }

    /// ParetoSweep runs its points with the request's `epsilon` (and
    /// variant and Saturate path), as the BSM-Saturate adapter does: at
    /// ε = 0.2 it reports the knee and hypervolume of BSM-Saturate
    /// solves at ε = 0.2 over the same τ grid.
    #[test]
    fn pareto_sweep_runs_at_the_requested_epsilon() {
        use crate::algorithms::pareto::{hypervolume, pareto_filter};
        let sys = toy::random_coverage(30, 90, 3, 0.08, 2);
        let registry = SolverRegistry::default();
        let taus = vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let knee_of_solves = |epsilon: f64| {
            let reports: Vec<SolveReport> = taus
                .iter()
                .map(|&tau| {
                    let params = ScenarioParams::new(4, tau).with_epsilon(epsilon);
                    registry.solve("BSM-Saturate", &sys, &params).unwrap()
                })
                .collect();
            let flags = pareto_filter(&reports.iter().map(|r| (r.f, r.g)).collect::<Vec<_>>());
            let on: Vec<&SolveReport> = reports
                .iter()
                .zip(flags)
                .filter_map(|(r, on)| on.then_some(r))
                .collect();
            let hv = hypervolume(&on.iter().map(|r| (r.f, r.g)).collect::<Vec<_>>());
            let knee = on
                .iter()
                .max_by(|a, b| (a.f + a.g).partial_cmp(&(b.f + b.g)).unwrap())
                .unwrap();
            (knee.items.clone(), knee.tau, hv)
        };
        let expected = knee_of_solves(0.2);
        assert_ne!(expected, knee_of_solves(0.05), "ε must matter here");

        let mut params = ScenarioParams::new(4, 0.5).with_epsilon(0.2);
        params.sweep_taus = taus.clone();
        let report = registry.solve("ParetoSweep", &sys, &params).unwrap();
        let knee_tau = report
            .notes
            .iter()
            .find(|(l, _)| l == "knee_tau")
            .unwrap()
            .1;
        assert_eq!(report.items, expected.0);
        assert_eq!(knee_tau, expected.1);
        assert_eq!(report.objective.to_bits(), expected.2.to_bits());
    }

    #[test]
    fn local_search_never_worsens_tsgreedy_and_keeps_feasibility() {
        let sys = toy::random_coverage(20, 60, 2, 0.12, 4);
        let registry = SolverRegistry::default();
        let params = ScenarioParams::new(4, 0.6);
        let ts = registry.solve("BSM-TSGreedy", &sys, &params).unwrap();
        let ls = registry.solve("LocalSearch", &sys, &params).unwrap();
        assert!(ls.f + 1e-9 >= ts.f, "refinement lost utility");
        assert!(ls.g + 1e-9 >= params.tau * ls.opt_g_estimate - 1e-9);
    }
}
