//! Approximation, baseline, and exact algorithms for (bicriteria)
//! submodular maximization.
//!
//! * [`greedy`] — the classic greedy for monotone submodular maximization
//!   (Nemhauser et al., 1978) with naive, lazy-forward (Leskovec et al.,
//!   2007), and stochastic (Mirzasoleiman et al., 2015) evaluation modes.
//! * [`cover`] — greedy submodular cover (Wolsey, 1982).
//! * [`saturate`] — Saturate for robust submodular maximization
//!   (Krause et al., 2008).
//! * [`tsgreedy`] — **BSM-TSGreedy** (Algorithm 1 of the paper).
//! * [`bsm_saturate`] — **BSM-Saturate** (Algorithm 2 of the paper).
//! * [`smsc`] — the SMSC baseline (Ohsaka & Matsuoka, 2021;
//!   two groups only), reconstructed as documented in DESIGN.md §5.
//! * [`baselines`] — random and top-singleton baselines.
//! * [`exact`] — brute force and submodular branch-and-bound
//!   (`BSM-Optimal`).
//!
//! Extensions beyond the paper's core algorithms (related/future work):
//!
//! * [`streaming`] — Sieve-Streaming (Badanidiyuru et al., 2014).
//! * [`mwu`] — multiplicative-weight updates for robust submodular
//!   maximization (Udwani, 2018), an alternative to Saturate.
//! * [`nonmonotone`] — Random Greedy (Buchbinder et al., 2014) and
//!   utility-minus-cost penalized systems.
//! * [`knapsack`] — cost-benefit greedy + best singleton under a budget.
//! * [`distributed`] — two-round GreeDi (Mirzasoleiman et al., 2016).
//! * [`pareto`] — τ-sweep Pareto frontier extraction with hypervolume.
//! * [`local_search`] — pairwise-interchange refinement (optionally
//!   fairness-constrained).
//!
//! Every entry point above is also registered, by name, as a
//! [`crate::engine::Solver`] in [`crate::engine::SolverRegistry`] — the
//! uniform execution boundary the experiment harness, examples, and
//! cross-solver tests drive. Call the free functions directly when you
//! hold a concrete system and want an algorithm's full typed outcome;
//! go through the registry when you are sweeping a scenario grid or
//! need solvers behind one interface.

pub mod baselines;
pub mod bsm_saturate;
pub mod cover;
pub mod distributed;
pub mod exact;
pub mod greedy;
pub mod knapsack;
pub mod local_search;
pub mod mwu;
pub mod nonmonotone;
pub mod pareto;
pub mod saturate;
pub mod smsc;
pub mod streaming;
pub mod tsgreedy;

use crate::aggregate::MeanUtility;
use crate::items::ItemId;
use crate::metrics::Evaluation;
use crate::system::UtilitySystem;

use self::greedy::{GreedyConfig, GreedyOutcome};

/// Line 1 of both BSM schemes (Algorithms 1 and 2): greedy on the
/// utility `f`, whose value is the estimate `OPT'_f`. A pure function
/// of `system` and `cfg`, so its outcome can be computed once and
/// reused across `τ` (see [`tsgreedy::TsGreedyStepper::seeded`] and
/// [`bsm_saturate::BsmSaturateStepper::seeded`]).
pub(crate) fn utility_greedy<S: UtilitySystem>(system: &S, cfg: &GreedyConfig) -> GreedyOutcome {
    greedy::greedy(system, &MeanUtility::new(system.num_users()), cfg)
}

/// Typed rejection of an algorithm configuration.
///
/// Entry points whose configs carry numeric domains (`ε ∈ (0, 1)`,
/// `shards ≥ 1`) return this instead of asserting, so a bad parameter in
/// a scenario spec surfaces as a recoverable error: the engine adapters
/// map it onto [`crate::engine::SolverError::InvalidParams`], upholding
/// the registry contract that a solve never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidConfig {
    /// The rejecting algorithm (free-function name).
    pub algorithm: &'static str,
    /// What was wrong with the configuration.
    pub message: String,
}

impl InvalidConfig {
    pub(crate) fn new(algorithm: &'static str, message: impl Into<String>) -> Self {
        Self {
            algorithm,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: invalid config: {}", self.algorithm, self.message)
    }
}

impl std::error::Error for InvalidConfig {}

/// Common result shape for BSM solvers (TSGreedy, BSM-Saturate, SMSC,
/// exact solvers), rich enough for the experiment harness to report the
/// paper's figures.
#[derive(Clone, Debug)]
pub struct BsmOutcome {
    /// Chosen items in insertion order.
    pub items: Vec<ItemId>,
    /// Evaluation of the solution (`f`, `g`, per-group means).
    pub eval: Evaluation,
    /// Greedy estimate `OPT'_f` used internally (0 when not computed).
    pub opt_f_estimate: f64,
    /// Saturate estimate `OPT'_g` used internally (0 when not computed).
    pub opt_g_estimate: f64,
    /// Whether the algorithm fell back to the Saturate solution `S_g`
    /// (Alg. 1 lines 8–9, and our documented BSM-Saturate fallback).
    pub fell_back: bool,
    /// Total oracle (`group_gains`) evaluations across all phases.
    pub oracle_calls: u64,
}
