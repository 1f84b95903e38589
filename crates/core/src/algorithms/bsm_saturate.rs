//! **BSM-Saturate** — the improved algorithm for BSM (Algorithm 2 of the
//! paper).
//!
//! Bisects on the utility factor `α ∈ \[0, 1\]`. For each probe it greedily
//! maximizes the combined objective (Lemma 4.4)
//!
//! ```text
//! F'_α(S) = min{1, f(S)/(α·OPT'_f)} + (1/c) Σ_i min{1, f_i(S)/(τ·OPT'_g)}
//! ```
//!
//! with a solution-size budget, and declares `α` feasible when the greedy
//! solution reaches `F'_α(S) ≥ 2(1 − ε/c)`. The search keeps the solution
//! of the largest feasible `α`.
//!
//! Guarantee (Theorem 4.5): with budget `k·ln(c/ε)` the result is a
//! `((1−3ε−ε_f)·α*, 1−2ε−ε_g)`-approximate solution where `α*` is the
//! instance's best achievable factor. The paper's experiments substitute
//! budget `k` for comparability; [`BsmSaturateConfig::size_cap`] selects
//! between the two.
//!
//! When *no* probed `α` is feasible at the chosen budget (possible at
//! `budget = k` with large `τ`), the paper leaves the behavior
//! unspecified; we return the Saturate solution `S_g`, mirroring
//! TSGreedy's fallback, and flag it via [`super::BsmOutcome::fell_back`].

use crate::aggregate::BsmObjective;
use crate::metrics::evaluate;
use crate::system::UtilitySystem;

use super::greedy::{greedy, GreedyConfig, GreedyOutcome, GreedyVariant};
use super::saturate::{saturate, SaturateConfig, SaturateOutcome};
use super::{utility_greedy, BsmOutcome};

/// Solution-size budget for the per-`α` greedy runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SizeCap {
    /// Budget `k` — the paper's experimental setting (size-`k` output).
    Exact,
    /// Budget `⌈k·ln(c/ε)⌉` — the theoretical setting of Theorem 4.5.
    Theory,
}

/// Configuration for [`bsm_saturate`].
#[derive(Clone, Debug)]
pub struct BsmSaturateConfig {
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Balance factor `τ ∈ \[0, 1\]`.
    pub tau: f64,
    /// Error parameter `ε ∈ (0, 1)`; the paper uses 0.05 throughout.
    pub epsilon: f64,
    /// Greedy-budget policy (paper experiments: [`SizeCap::Exact`]).
    pub size_cap: SizeCap,
    /// Greedy evaluation strategy.
    pub variant: GreedyVariant,
    /// Saturate configuration for `OPT'_g`.
    pub saturate: SaturateConfig,
    /// Hard cap on bisection rounds (the loop provably needs
    /// `O(log(1/(α*ε)))`, this is a safety net).
    pub max_rounds: usize,
}

impl BsmSaturateConfig {
    /// Paper defaults for a `(k, τ)` instance: `ε = 0.05`, size cap `k`,
    /// lazy-forward greedy.
    pub fn new(k: usize, tau: f64) -> Self {
        assert!((0.0..=1.0).contains(&tau), "τ must lie in [0, 1]");
        Self {
            k,
            tau,
            epsilon: 0.05,
            size_cap: SizeCap::Exact,
            variant: GreedyVariant::Lazy,
            saturate: SaturateConfig::new(k),
            max_rounds: 64,
        }
    }

    /// Sets the error parameter `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "ε must lie in (0, 1)");
        self.epsilon = epsilon;
        self
    }

    /// The configuration of line 1 (greedy on `f` for `OPT'_f`).
    /// Depends on `k` and the variant only, never on `τ` or `ε`.
    pub fn greedy_f_config(&self) -> GreedyConfig {
        GreedyConfig {
            variant: self.variant.clone(),
            ..GreedyConfig::lazy(self.k)
        }
    }

    fn budget(&self, c: usize) -> usize {
        match self.size_cap {
            SizeCap::Exact => self.k,
            SizeCap::Theory => {
                let blow = ((c.max(2)) as f64 / self.epsilon).ln().max(1.0);
                ((self.k as f64) * blow).ceil() as usize
            }
        }
    }
}

/// Detailed result of [`bsm_saturate`].
#[derive(Clone, Debug)]
pub struct BsmSaturateOutcome {
    /// The BSM outcome.
    pub bsm: BsmOutcome,
    /// Final lower bound `α_min` of the bisection (0 if never feasible).
    pub alpha_min: f64,
    /// Final upper bound `α_max`.
    pub alpha_max: f64,
    /// Bisection rounds performed.
    pub rounds: usize,
}

/// Runs BSM-Saturate (Algorithm 2 of the paper).
///
/// ```
/// use fair_submod_core::prelude::*;
/// use fair_submod_core::toy;
///
/// let system = toy::figure1();
/// // τ = 0.8 forces the fair solution {v1, v4} (Example 4.6).
/// let cfg = BsmSaturateConfig::new(2, 0.8).with_epsilon(0.1);
/// let out = bsm_saturate(&system, &cfg);
/// let mut items = out.items.clone();
/// items.sort();
/// assert_eq!(items, vec![0, 3]);
/// ```
pub fn bsm_saturate<S: UtilitySystem>(system: &S, cfg: &BsmSaturateConfig) -> BsmOutcome {
    bsm_saturate_detailed(system, cfg).bsm
}

/// Runs BSM-Saturate and additionally reports the bisection bounds.
///
/// Computes lines 1–2 and seeds a [`BsmSaturateStepper`] with them
/// ([`BsmSaturateStepper::seeded`]), so one-shot calls and resumable
/// sessions run the same stepper and produce bit-identical outcomes.
pub fn bsm_saturate_detailed<S: UtilitySystem>(
    system: &S,
    cfg: &BsmSaturateConfig,
) -> BsmSaturateOutcome {
    let greedy_f = utility_greedy(system, &cfg.greedy_f_config());
    let sat = saturate(system, &cfg.saturate);
    bsm_saturate_seeded(system, cfg, greedy_f, sat)
}

/// Runs BSM-Saturate from precomputed lines 1–2: `greedy_f` must be
/// greedy on `f` with [`BsmSaturateConfig::greedy_f_config`] and `sat`
/// Saturate with `cfg.saturate`, both on `system`. Neither depends on
/// `τ` or `ε`, so a τ-sweep computes them once (see
/// [`BsmSaturateStepper::seeded`]).
pub(crate) fn bsm_saturate_seeded<S: UtilitySystem>(
    system: &S,
    cfg: &BsmSaturateConfig,
    greedy_f: GreedyOutcome,
    sat: SaturateOutcome,
) -> BsmSaturateOutcome {
    let mut stepper = BsmSaturateStepper::seeded(system, cfg, greedy_f, sat);
    while stepper.step(system) {}
    stepper.into_outcome()
}

enum BsmSaturatePhase {
    /// Line 1: greedy on `f` for `OPT'_f` (one step).
    GreedyF,
    /// Line 2: Saturate on `g` — one inner Saturate step per step.
    Saturate,
    /// Lines 3–14: one α feasibility probe per step.
    Bisect,
    /// Finished; the outcome is ready.
    Done,
}

/// BSM-Saturate as a resumable state machine: one ingredient estimate or
/// α-bisection probe per [`BsmSaturateStepper::step`].
///
/// The inner Saturate run advances through its own
/// [`SaturateStepper`](super::saturate::SaturateStepper), and each α
/// probe is a greedy run on the combined
/// objective — both exactly the operations of the historical
/// run-to-completion function, cut at round boundaries, so stepping to
/// completion is bit-identical to [`bsm_saturate_detailed`] (which is
/// itself implemented over this stepper). Every `step` call must receive
/// the same `system` the stepper was created with.
pub struct BsmSaturateStepper {
    cfg: BsmSaturateConfig,
    sizes: Vec<usize>,
    m: usize,
    phase: BsmSaturatePhase,
    saturate: Option<super::saturate::SaturateStepper>,
    sat: Option<SaturateOutcome>,
    opt_f_estimate: f64,
    alpha_min: f64,
    alpha_max: f64,
    rounds: usize,
    best: Option<Vec<crate::items::ItemId>>,
    oracle_calls: u64,
    outcome: Option<BsmSaturateOutcome>,
}

impl BsmSaturateStepper {
    /// Prepares a run of `cfg` on `system` (no oracle work yet).
    pub fn new<S: UtilitySystem>(system: &S, cfg: &BsmSaturateConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            sizes: system.group_sizes().to_vec(),
            m: system.num_users(),
            phase: BsmSaturatePhase::GreedyF,
            saturate: None,
            sat: None,
            opt_f_estimate: 0.0,
            alpha_min: 0.0,
            alpha_max: 1.0,
            rounds: 0,
            best: None,
            oracle_calls: 0,
            outcome: None,
        }
    }

    /// Prepares a run whose lines 1–2 are already done: `greedy_f` is
    /// greedy on `f` with [`BsmSaturateConfig::greedy_f_config`] and
    /// `sat` is Saturate with `cfg.saturate`, both on `system`. The
    /// stepper starts at the bisection and charges the stages' recorded
    /// oracle calls, so stepping it to completion is bit-identical to a
    /// run from [`BsmSaturateStepper::new`], `oracle_calls` included.
    pub fn seeded<S: UtilitySystem>(
        system: &S,
        cfg: &BsmSaturateConfig,
        greedy_f: GreedyOutcome,
        sat: SaturateOutcome,
    ) -> Self {
        let mut stepper = Self::new(system, cfg);
        stepper.oracle_calls = greedy_f.oracle_calls + sat.oracle_calls;
        stepper.opt_f_estimate = greedy_f.value;
        stepper.sat = Some(sat);
        stepper.phase = BsmSaturatePhase::Bisect;
        stepper
    }

    /// Whether the run has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, BsmSaturatePhase::Done)
    }

    /// α-bisection probes performed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Current bisection bounds `(α_min, α_max)`.
    pub fn alpha_bounds(&self) -> (f64, f64) {
        (self.alpha_min, self.alpha_max)
    }

    /// Items of the best feasible probe so far (empty before one
    /// succeeds).
    pub fn best_items(&self) -> &[crate::items::ItemId] {
        self.best.as_deref().unwrap_or(&[])
    }

    /// Oracle calls performed so far, including the in-flight inner
    /// Saturate run (so per-step progress metering never freezes
    /// through the Saturate phase).
    pub fn oracle_calls(&self) -> u64 {
        self.oracle_calls + self.saturate.as_ref().map_or(0, |s| s.oracle_calls())
    }

    /// Performs one unit of work (the greedy-on-`f` estimate, one inner
    /// Saturate step, or one α probe). Returns `true` while more work
    /// remains.
    pub fn step<S: UtilitySystem>(&mut self, system: &S) -> bool {
        match self.phase {
            BsmSaturatePhase::GreedyF => {
                // Line 1: greedy on f for OPT'_f.
                let run_f = utility_greedy(system, &self.cfg.greedy_f_config());
                self.oracle_calls += run_f.oracle_calls;
                self.opt_f_estimate = run_f.value;
                self.saturate = Some(super::saturate::SaturateStepper::new(
                    system,
                    &self.cfg.saturate,
                ));
                self.phase = BsmSaturatePhase::Saturate;
            }
            BsmSaturatePhase::Saturate => {
                // Line 2: Saturate on g for OPT'_g, one inner step at a
                // time.
                let inner = self.saturate.as_mut().expect("set by GreedyF");
                if !inner.step(system) {
                    let sat = self.saturate.take().expect("checked above").into_outcome();
                    self.oracle_calls += sat.oracle_calls;
                    self.sat = Some(sat);
                    self.phase = BsmSaturatePhase::Bisect;
                }
            }
            BsmSaturatePhase::Bisect => {
                // Lines 3–14: bisection on α.
                if (1.0 - self.cfg.epsilon) * self.alpha_max > self.alpha_min
                    && self.rounds < self.cfg.max_rounds
                {
                    self.probe(system);
                } else {
                    self.finalize(system);
                }
            }
            BsmSaturatePhase::Done => {}
        }
        !self.is_done()
    }

    /// One α feasibility probe at the current midpoint.
    fn probe<S: UtilitySystem>(&mut self, system: &S) {
        let c = self.sizes.len();
        let sat = self.sat.as_ref().expect("bisect follows saturate");
        let tau_opt_g = self.cfg.tau * sat.opt_g_estimate;
        let budget = self.cfg.budget(c);
        let threshold = 2.0 * (1.0 - self.cfg.epsilon / c as f64);
        self.rounds += 1;
        let alpha = 0.5 * (self.alpha_max + self.alpha_min);
        let objective =
            BsmObjective::new(self.m, &self.sizes, alpha * self.opt_f_estimate, tau_opt_g);
        // Paper's Algorithm 2 line 8: the greedy loop always runs the
        // full budget; the threshold is only checked afterwards (line
        // 11). Early-stopping at the threshold would shrink solutions
        // (hurting f) as ε grows — exactly what Figure 9 shows does NOT
        // happen.
        let run = greedy(
            system,
            &objective,
            &GreedyConfig {
                variant: self.cfg.variant.clone(),
                ..GreedyConfig::lazy(budget)
            },
        );
        self.oracle_calls += run.oracle_calls;
        if run.value + 1e-12 >= threshold {
            self.alpha_min = alpha;
            self.best = Some(run.items);
        } else {
            self.alpha_max = alpha;
        }
    }

    fn finalize<S: UtilitySystem>(&mut self, system: &S) {
        let sat = self.sat.as_ref().expect("bisect follows saturate");
        let (items, fell_back) = match self.best.clone() {
            Some(items) => (items, false),
            // Unspecified in the paper: fall back to S_g (see module
            // docs).
            None => (sat.items.clone(), true),
        };
        let eval = evaluate(system, &items);
        self.outcome = Some(BsmSaturateOutcome {
            bsm: BsmOutcome {
                items,
                eval,
                opt_f_estimate: self.opt_f_estimate,
                opt_g_estimate: sat.opt_g_estimate,
                fell_back,
                oracle_calls: self.oracle_calls,
            },
            alpha_min: self.alpha_min,
            alpha_max: self.alpha_max,
            rounds: self.rounds,
        });
        self.phase = BsmSaturatePhase::Done;
    }

    /// The finished outcome (call after stepping to completion).
    ///
    /// # Panics
    /// Panics if the run has not finished.
    pub fn into_outcome(self) -> BsmSaturateOutcome {
        self.outcome
            .expect("BsmSaturateStepper stepped to completion")
    }

    /// Borrowed view of the finished outcome, if done.
    pub fn outcome(&self) -> Option<&BsmSaturateOutcome> {
        self.outcome.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    /// Example 4.6, τ = 0.2 and τ = 0.5 (ε = 0.1, size cap k): the
    /// bisection terminates with Ŝ = {v1, v3}.
    #[test]
    fn figure1_low_tau_returns_v1_v3() {
        let sys = toy::figure1();
        for tau in [0.2, 0.5] {
            let cfg = BsmSaturateConfig::new(2, tau).with_epsilon(0.1);
            let out = bsm_saturate_detailed(&sys, &cfg);
            let mut items = out.bsm.items.clone();
            items.sort_unstable();
            assert_eq!(items, vec![0, 2], "tau {tau}");
            assert!(out.alpha_min > 0.9, "tau {tau}: α_min = {}", out.alpha_min);
        }
    }

    /// Example 4.6, τ = 0.8: the bisection settles on α ≈ 0.8125 with
    /// Ŝ = {v1, v4}.
    #[test]
    fn figure1_tau_08_returns_v1_v4() {
        let sys = toy::figure1();
        let cfg = BsmSaturateConfig::new(2, 0.8).with_epsilon(0.1);
        let out = bsm_saturate_detailed(&sys, &cfg);
        let mut items = out.bsm.items.clone();
        items.sort_unstable();
        assert_eq!(items, vec![0, 3]);
        assert!((out.bsm.eval.g - 5.0 / 9.0).abs() < 1e-9);
        assert!(out.alpha_min >= 0.75 && out.alpha_min <= 0.875);
    }

    #[test]
    fn weak_constraint_holds_on_exact_oracles() {
        for seed in 1..6u64 {
            let sys = toy::random_coverage(25, 75, 3, 0.1, seed);
            for tau in [0.2, 0.5, 0.8] {
                let cfg = BsmSaturateConfig::new(5, tau);
                let out = bsm_saturate(&sys, &cfg);
                assert!(out.items.len() <= 5);
                // ε-relaxed weak constraint: per Lemma 4.4 the fairness
                // part only certifies g ≥ (1−2ε)·τ·OPT'_g.
                let slack = (1.0 - 2.0 * cfg.epsilon) * tau * out.opt_g_estimate;
                assert!(
                    out.eval.g + 1e-9 >= slack,
                    "seed {seed} tau {tau}: g {} < {}",
                    out.eval.g,
                    slack
                );
            }
        }
    }

    #[test]
    fn theory_cap_allows_larger_solutions() {
        let sys = toy::random_coverage(40, 80, 4, 0.05, 2);
        let mut cfg = BsmSaturateConfig::new(4, 0.9);
        cfg.size_cap = SizeCap::Theory;
        let out = bsm_saturate(&sys, &cfg);
        let budget = cfg.budget(4);
        assert!(budget > 4);
        assert!(out.items.len() <= budget);
        // A larger budget can only help the combined objective.
        let exact_cfg = BsmSaturateConfig::new(4, 0.9);
        let exact_out = bsm_saturate(&sys, &exact_cfg);
        assert!(out.eval.g + 1e-9 >= exact_out.eval.g * 0.999);
    }

    #[test]
    fn bisection_rounds_are_logarithmic() {
        let sys = toy::figure1();
        let cfg = BsmSaturateConfig::new(2, 0.5).with_epsilon(0.05);
        let out = bsm_saturate_detailed(&sys, &cfg);
        // (1-ε)·α_max ≤ α_min at termination ⇒ ~log2(1/ε) rounds.
        assert!(out.rounds <= 20);
        assert!((1.0 - cfg.epsilon) * out.alpha_max <= out.alpha_min + 1e-12);
    }
}
