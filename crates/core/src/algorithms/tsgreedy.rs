//! **BSM-TSGreedy** — the two-stage greedy algorithm for BSM
//! (Algorithm 1 of the paper).
//!
//! Stage 0 computes the ingredient estimates: `S_f, OPT'_f` by greedy on
//! `f` and `S_g, OPT'_g` by Saturate on `g`. Stage 1 greedily covers
//! `g'_τ(S) = (1/c) Σ_i min{1, f_i(S)/(τ·OPT'_g)}` up to value 1 (at most
//! `k` items); if that fails at size `k`, the solution is replaced by
//! `S_g` (which satisfies `g'_τ(S_g) = 1` by construction, lines 8–9).
//! Stage 2 tops the solution up to size `k` with the greedy-for-`f`
//! prefix, in greedy order (lines 10–15).
//!
//! Guarantee (Theorem 4.2): a
//! `(1 − e^{−k'/k}, 1 − ε_g)`-approximate size-`k` solution, where `k'`
//! is the number of stage-2 items.

use crate::aggregate::TruncatedMean;
use crate::metrics::evaluate_state;
use crate::system::{SolutionState, UtilitySystem};

use super::greedy::{GreedyConfig, GreedyOutcome, GreedyVariant};
use super::saturate::{saturate, SaturateConfig, SaturateOutcome};
use super::{utility_greedy, BsmOutcome};

/// Configuration for [`bsm_tsgreedy`].
#[derive(Clone, Debug)]
pub struct TsGreedyConfig {
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Balance factor `τ ∈ \[0, 1\]`.
    pub tau: f64,
    /// Greedy evaluation strategy (lazy-forward by default, as in the
    /// paper's experiments).
    pub variant: GreedyVariant,
    /// Saturate configuration for estimating `OPT'_g` / computing `S_g`.
    pub saturate: SaturateConfig,
}

impl TsGreedyConfig {
    /// Paper defaults for a `(k, τ)` instance.
    pub fn new(k: usize, tau: f64) -> Self {
        assert!((0.0..=1.0).contains(&tau), "τ must lie in [0, 1]");
        Self {
            k,
            tau,
            variant: GreedyVariant::Lazy,
            saturate: SaturateConfig::new(k),
        }
    }

    /// The configuration of line 1 (greedy on `f`), which the top-up
    /// also fills with. Depends on `k` and the variant only, never on
    /// `τ`.
    pub fn greedy_f_config(&self) -> GreedyConfig {
        GreedyConfig {
            variant: self.variant.clone(),
            ..GreedyConfig::lazy(self.k)
        }
    }
}

/// Detailed result of a [`bsm_tsgreedy`] run.
#[derive(Clone, Debug)]
pub struct TsGreedyOutcome {
    /// The BSM outcome (items, evaluation, estimates, fallback flag).
    pub bsm: BsmOutcome,
    /// Number of items chosen in stage 1 (cover on `g'_τ`); `k'` of
    /// Theorem 4.2 equals `k − stage1_len` when no fallback occurred.
    pub stage1_len: usize,
}

/// Runs BSM-TSGreedy (Algorithm 1 of the paper).
///
/// ```
/// use fair_submod_core::prelude::*;
/// use fair_submod_core::toy;
///
/// let system = toy::figure1();
/// // τ = 0.2: stage 1 covers g'_τ with v3, stage 2 tops up with v1.
/// let out = bsm_tsgreedy(&system, &TsGreedyConfig::new(2, 0.2));
/// let mut items = out.items.clone();
/// items.sort();
/// assert_eq!(items, vec![0, 2]);
/// assert!(out.eval.g >= 0.2 * out.opt_g_estimate);
/// ```
pub fn bsm_tsgreedy<S: UtilitySystem>(system: &S, cfg: &TsGreedyConfig) -> BsmOutcome {
    bsm_tsgreedy_detailed(system, cfg).bsm
}

/// Runs BSM-TSGreedy and additionally reports stage sizes.
///
/// Computes lines 1–2 and seeds a [`TsGreedyStepper`] with them
/// ([`TsGreedyStepper::seeded`]), so one-shot calls and resumable
/// sessions run the same stepper and produce bit-identical outcomes.
pub fn bsm_tsgreedy_detailed<S: UtilitySystem>(
    system: &S,
    cfg: &TsGreedyConfig,
) -> TsGreedyOutcome {
    let greedy_f = utility_greedy(system, &cfg.greedy_f_config());
    let sat = saturate(system, &cfg.saturate);
    bsm_tsgreedy_seeded(system, cfg, greedy_f, sat)
}

/// Runs BSM-TSGreedy from precomputed lines 1–2: `greedy_f` must be
/// greedy on `f` with [`TsGreedyConfig::greedy_f_config`] and `sat`
/// Saturate with `cfg.saturate`, both on `system`. Neither depends on
/// `τ`, so a τ-sweep computes them once (see [`TsGreedyStepper::seeded`]).
pub(crate) fn bsm_tsgreedy_seeded<S: UtilitySystem>(
    system: &S,
    cfg: &TsGreedyConfig,
    greedy_f: GreedyOutcome,
    sat: SaturateOutcome,
) -> TsGreedyOutcome {
    let mut stepper = TsGreedyStepper::seeded(system, cfg, greedy_f, sat);
    while stepper.step(system) {}
    stepper.into_outcome()
}

enum TsGreedyPhase {
    /// Line 1: greedy on `f` (one step).
    GreedyF,
    /// Line 2: Saturate on `g` — one inner Saturate step per step.
    Saturate,
    /// Lines 3–9: one stage-1 cover round per step.
    Stage1,
    /// Lines 10–15: top-up with the greedy-for-`f` prefix (one step).
    TopUp,
    /// Finished; the outcome is ready.
    Done,
}

/// BSM-TSGreedy as a resumable state machine: estimate stages, then one
/// stage-1 cover round per [`TsGreedyStepper::step`], then the top-up.
///
/// The stage-1 cover drives a greedy engine round by round over a
/// solution state that is parked between steps, so the operation
/// sequence — and therefore every item choice and oracle-call count —
/// is identical to the historical run-to-completion function (which is
/// itself implemented over this stepper). The stepper is generic over
/// the system's incremental state type `I = S::Inner`; every `step`
/// call must receive the same `system` the stepper was created with.
pub struct TsGreedyStepper<I> {
    cfg: TsGreedyConfig,
    sizes: Vec<usize>,
    m: usize,
    phase: TsGreedyPhase,
    run_f: Option<GreedyOutcome>,
    saturate_stepper: Option<super::saturate::SaturateStepper>,
    sat: Option<SaturateOutcome>,
    cover: Option<super::greedy::GreedyEngine<TruncatedMean>>,
    parts: Option<crate::system::StateParts<I>>,
    oracle_calls: u64,
    fell_back: bool,
    stage1_len: usize,
    outcome: Option<TsGreedyOutcome>,
}

impl<I> TsGreedyStepper<I> {
    /// Prepares a run of `cfg` on `system` (no oracle work yet).
    pub fn new<S: UtilitySystem<Inner = I>>(system: &S, cfg: &TsGreedyConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            sizes: system.group_sizes().to_vec(),
            m: system.num_users(),
            phase: TsGreedyPhase::GreedyF,
            run_f: None,
            saturate_stepper: None,
            sat: None,
            cover: None,
            parts: None,
            oracle_calls: 0,
            fell_back: false,
            stage1_len: 0,
            outcome: None,
        }
    }

    /// Prepares a run whose lines 1–2 are already done: `greedy_f` is
    /// greedy on `f` with [`TsGreedyConfig::greedy_f_config`] and `sat`
    /// is Saturate with `cfg.saturate`, both on `system`. The stepper
    /// starts at stage 1 and charges the stages' recorded oracle calls,
    /// so stepping it to completion is bit-identical to a run from
    /// [`TsGreedyStepper::new`], `oracle_calls` included.
    pub fn seeded<S: UtilitySystem<Inner = I>>(
        system: &S,
        cfg: &TsGreedyConfig,
        greedy_f: GreedyOutcome,
        sat: SaturateOutcome,
    ) -> Self {
        let mut stepper = Self::new(system, cfg);
        stepper.oracle_calls = greedy_f.oracle_calls;
        stepper.run_f = Some(greedy_f);
        stepper.begin_stage1(system, sat);
        stepper
    }

    /// Whether the run has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, TsGreedyPhase::Done)
    }

    /// Human-readable name of the current stage.
    pub fn stage(&self) -> &'static str {
        match self.phase {
            TsGreedyPhase::GreedyF => "estimate_f",
            TsGreedyPhase::Saturate => "saturate",
            TsGreedyPhase::Stage1 => "stage1_cover",
            TsGreedyPhase::TopUp => "topup",
            TsGreedyPhase::Done => "done",
        }
    }

    /// Items of the in-progress solution (stage-1 state, or the final
    /// solution once done).
    pub fn current_items(&self) -> Vec<crate::items::ItemId> {
        if let Some(outcome) = &self.outcome {
            return outcome.bsm.items.clone();
        }
        self.parts
            .as_ref()
            .map(|p| p.items().to_vec())
            .unwrap_or_default()
    }

    /// Per-group utility sums of the in-progress solution (empty before
    /// stage 1 starts).
    pub fn current_sums(&self) -> Vec<f64> {
        self.parts
            .as_ref()
            .map(|p| p.group_sums().to_vec())
            .unwrap_or_default()
    }

    /// Oracle calls performed so far: settled stages plus the parked
    /// stage-1 state plus the in-flight inner Saturate run (so per-step
    /// progress metering never freezes through the Saturate phase).
    pub fn oracle_calls(&self) -> u64 {
        if let Some(outcome) = &self.outcome {
            return outcome.bsm.oracle_calls;
        }
        self.oracle_calls
            + self.parts.as_ref().map_or(0, |p| p.oracle_calls())
            + self
                .saturate_stepper
                .as_ref()
                .map_or(0, |s| s.oracle_calls())
    }

    /// The utility objective `f` of the in-progress solution — the
    /// solver's own objective, for anytime progress reporting. Reports
    /// the final evaluation once done, the parked stage-1 state's value
    /// while covering, and `0` before any solution state exists.
    pub fn current_f(&self) -> f64 {
        if let Some(outcome) = &self.outcome {
            return outcome.bsm.eval.f;
        }
        self.parts
            .as_ref()
            .map(|p| p.group_sums().iter().sum::<f64>() / self.m as f64)
            .unwrap_or(0.0)
    }

    fn stage1_greedy_f(&self) -> crate::aggregate::MeanUtility {
        crate::aggregate::MeanUtility::new(self.m)
    }

    /// Settles line 2's outcome and sets up lines 3–7: a greedy cover
    /// on `g'_τ` (threshold `τ·OPT'_g`); a vacuous threshold (`τ = 0`
    /// or `OPT'_g = 0`) makes stage 1 a no-op.
    fn begin_stage1<S: UtilitySystem<Inner = I>>(&mut self, system: &S, sat: SaturateOutcome) {
        self.oracle_calls += sat.oracle_calls;
        let threshold = self.cfg.tau * sat.opt_g_estimate;
        self.sat = Some(sat);
        let mut state = SolutionState::new(system);
        if threshold > 0.0 {
            let g_tau = TruncatedMean::uniform(&self.sizes, threshold);
            let cover_cfg = super::cover::cover_config(1.0, self.cfg.k, self.cfg.variant.clone());
            self.cover = Some(super::greedy::GreedyEngine::new(
                &mut state, g_tau, cover_cfg,
            ));
            self.phase = TsGreedyPhase::Stage1;
        } else {
            self.phase = TsGreedyPhase::TopUp;
        }
        self.parts = Some(state.into_parts());
    }

    /// Performs one unit of work (an estimate stage, one stage-1 cover
    /// round, or the top-up). Returns `true` while more work remains.
    pub fn step<S: UtilitySystem<Inner = I>>(&mut self, system: &S) -> bool {
        match self.phase {
            TsGreedyPhase::GreedyF => {
                // Line 1: greedy on f.
                let run_f = utility_greedy(system, &self.cfg.greedy_f_config());
                self.oracle_calls += run_f.oracle_calls;
                self.run_f = Some(run_f);
                self.saturate_stepper = Some(super::saturate::SaturateStepper::new(
                    system,
                    &self.cfg.saturate,
                ));
                self.phase = TsGreedyPhase::Saturate;
            }
            TsGreedyPhase::Saturate => {
                // Line 2: Saturate on g, one inner step at a time.
                let inner = self.saturate_stepper.as_mut().expect("set by GreedyF");
                if !inner.step(system) {
                    let sat = self
                        .saturate_stepper
                        .take()
                        .expect("checked above")
                        .into_outcome();
                    self.begin_stage1(system, sat);
                }
            }
            TsGreedyPhase::Stage1 => {
                let mut state = SolutionState::from_parts(
                    system,
                    self.parts.take().expect("stage 1 state parked"),
                );
                let engine = self.cover.as_mut().expect("stage 1 engine parked");
                if !engine.step(&mut state) {
                    let covered = engine.reached_target();
                    self.stage1_len = state.len();
                    // Lines 8–9: fall back to S_g when the cover failed.
                    // (If greedy stalled below size k, submodularity
                    // implies no superset can reach g'_τ = 1 either, so
                    // the fallback is also correct then.)
                    if !covered {
                        self.oracle_calls += state.oracle_calls();
                        let sat = self.sat.as_ref().expect("stage 1 follows saturate");
                        let mut fresh = SolutionState::new(system);
                        fresh.insert_all(&sat.items);
                        self.fell_back = true;
                        self.stage1_len = fresh.len();
                        state = fresh;
                    }
                    self.cover = None;
                    self.phase = TsGreedyPhase::TopUp;
                }
                self.parts = Some(state.into_parts());
            }
            TsGreedyPhase::TopUp => {
                let mut state = SolutionState::from_parts(
                    system,
                    self.parts.take().expect("top-up state parked"),
                );
                let run_f = self.run_f.as_ref().expect("set by GreedyF");
                // Lines 10–15: top up with the greedy-for-f prefix, in
                // greedy order.
                for &v in &run_f.items {
                    if state.len() >= self.cfg.k {
                        break;
                    }
                    state.insert(v);
                }
                // If S_f's items all overlapped (possible when stage 1
                // chose them already), fill with the best remaining items
                // for f to honor |S'| = k.
                if state.len() < self.cfg.k {
                    let f = self.stage1_greedy_f();
                    let _ = super::greedy::greedy_into(&mut state, &f, &self.cfg.greedy_f_config());
                }
                // Zero-gain padding: the paper's greedy runs exactly k
                // argmax rounds, so |S'| = k always; padding with useless
                // items changes neither f nor g (monotone utilities) but
                // honors the size contract.
                if state.len() < self.cfg.k {
                    for v in 0..system.num_items() as crate::items::ItemId {
                        if state.len() >= self.cfg.k {
                            break;
                        }
                        state.insert(v);
                    }
                }

                self.oracle_calls += state.oracle_calls();
                let eval = evaluate_state(&state);
                let sat = self.sat.as_ref().expect("top-up follows saturate");
                self.outcome = Some(TsGreedyOutcome {
                    bsm: BsmOutcome {
                        items: state.items().to_vec(),
                        eval,
                        opt_f_estimate: run_f.value,
                        opt_g_estimate: sat.opt_g_estimate,
                        fell_back: self.fell_back,
                        oracle_calls: self.oracle_calls,
                    },
                    stage1_len: self.stage1_len,
                });
                self.phase = TsGreedyPhase::Done;
            }
            TsGreedyPhase::Done => {}
        }
        !self.is_done()
    }

    /// The finished outcome (call after stepping to completion).
    ///
    /// # Panics
    /// Panics if the run has not finished.
    pub fn into_outcome(self) -> TsGreedyOutcome {
        self.outcome.expect("TsGreedyStepper stepped to completion")
    }

    /// Borrowed view of the finished outcome, if done.
    pub fn outcome(&self) -> Option<&TsGreedyOutcome> {
        self.outcome.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::greedy::greedy;
    use crate::system::SystemExt;
    use crate::toy;

    /// Example 4.1 of the paper, τ = 0.2: stage 1 picks v3 (g'({v3}) = 1),
    /// stage 2 adds v1 (first item of S_f); result {v1, v3}.
    #[test]
    fn figure1_tau_02_returns_v1_v3() {
        let sys = toy::figure1();
        let out = bsm_tsgreedy_detailed(&sys, &TsGreedyConfig::new(2, 0.2));
        let mut items = out.bsm.items.clone();
        items.sort_unstable();
        assert_eq!(items, vec![0, 2]);
        assert_eq!(out.stage1_len, 1);
        assert!(!out.bsm.fell_back);
        assert!((out.bsm.eval.f - 8.0 / 12.0).abs() < 1e-12);
    }

    /// Example 4.1, τ = 0.5: stage 1 picks v3 then v1 or v2; the solution
    /// stays feasible for the weak constraint g ≥ τ·OPT'_g.
    #[test]
    fn figure1_tau_05_is_weakly_feasible() {
        let sys = toy::figure1();
        let out = bsm_tsgreedy(&sys, &TsGreedyConfig::new(2, 0.5));
        assert_eq!(out.items.len(), 2);
        assert!(out.eval.g + 1e-9 >= 0.5 * out.opt_g_estimate);
    }

    /// Example 4.1, τ = 0.8: no 2-set built by stage 1 covers g'_0.8, so
    /// the algorithm falls back to S_g = {v1, v4}.
    #[test]
    fn figure1_tau_08_falls_back_to_sg() {
        let sys = toy::figure1();
        let out = bsm_tsgreedy(&sys, &TsGreedyConfig::new(2, 0.8));
        let mut items = out.items.clone();
        items.sort_unstable();
        assert_eq!(items, vec![0, 3]);
        assert!(out.fell_back);
        assert!((out.eval.g - 5.0 / 9.0).abs() < 1e-9);
    }

    /// τ = 0 reduces BSM to plain submodular maximization: S12 = {v1, v2}.
    #[test]
    fn tau_zero_matches_plain_greedy() {
        let sys = toy::figure1();
        let out = bsm_tsgreedy(&sys, &TsGreedyConfig::new(2, 0.0));
        assert_eq!(out.items, vec![0, 1]);
        assert!((out.eval.f - 0.75).abs() < 1e-12);
    }

    #[test]
    fn always_returns_k_items_and_weak_feasibility() {
        for seed in 1..6u64 {
            let sys = toy::random_coverage(25, 75, 3, 0.1, seed);
            for tau in [0.1, 0.4, 0.7, 0.9] {
                let cfg = TsGreedyConfig::new(5, tau);
                let out = bsm_tsgreedy(&sys, &cfg);
                assert_eq!(out.items.len(), 5, "seed {seed} tau {tau}");
                // Weak constraint g(S) ≥ τ·OPT'_g (exact oracle ⇒ always).
                assert!(
                    out.eval.g + 1e-9 >= tau * out.opt_g_estimate,
                    "seed {seed} tau {tau}: g {} < τ·OPT'_g {}",
                    out.eval.g,
                    tau * out.opt_g_estimate
                );
            }
        }
    }

    #[test]
    fn utility_never_exceeds_unconstrained_greedy_substantially() {
        let sys = toy::random_coverage(20, 60, 2, 0.12, 9);
        let unconstrained = {
            let f = crate::aggregate::MeanUtility::new(sys.num_users());
            greedy(&sys, &f, &GreedyConfig::lazy(4)).value
        };
        let out = bsm_tsgreedy(&sys, &TsGreedyConfig::new(4, 0.8));
        // Not an approximation claim — sanity: f(S') is bounded by f(V).
        assert!(out.eval.f <= sys.eval_f(&(0..20).collect::<Vec<_>>()) + 1e-12);
        assert!(out.eval.f <= 1.0 + 1e-12);
        let _ = unconstrained;
    }
}
