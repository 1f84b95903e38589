//! Sieve-Streaming for cardinality-constrained monotone submodular
//! maximization (Badanidiyuru et al., KDD 2014) — the single-pass
//! streaming setting the paper cites as related work \[3\].
//!
//! The algorithm guesses `OPT` on a geometric grid
//! `{(1+ε)^j} ∩ [Δ, k·Δ]` (where `Δ` is the best singleton value seen so
//! far), keeps one candidate solution per guess, and adds an arriving
//! item to a candidate whenever its marginal gain is at least
//! `(v/2 − value)/(k − |S|)`. Guarantee: `(1/2 − ε)·OPT` in one pass with
//! `O((k/ε)·log k)` memory.
//!
//! Usefulness here: a low-memory drop-in for the greedy-for-`f`
//! subroutine of the BSM schemes when items arrive as a stream, and an
//! independently-implemented cross-check of the greedy engines.
//!
//! The pass itself lives in `SieveCore`, a per-arrival stepper: one
//! `step` processes one arriving item against the whole candidate grid.
//! [`sieve_streaming`] drives the core to exhaustion; the native
//! `SolveSession` in `crate::engine::session` drives the *same* core one
//! arrival at a time, which is what makes session-vs-one-shot
//! bit-identity (DESIGN.md §7) a structural fact rather than a test
//! coincidence.

use crate::aggregate::Aggregate;
use crate::items::ItemId;
use crate::system::{SolutionState, StateParts, UtilitySystem};

use super::InvalidConfig;

/// Configuration for [`sieve_streaming`].
#[derive(Clone, Debug)]
pub struct SieveConfig {
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Grid resolution `ε ∈ (0, 1)`.
    pub epsilon: f64,
}

impl SieveConfig {
    /// Default `ε = 0.1`.
    pub fn new(k: usize) -> Self {
        Self { k, epsilon: 0.1 }
    }

    /// Checks the config's numeric domain (`ε ∈ (0, 1)`).
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if self.epsilon > 0.0 && self.epsilon < 1.0 {
            Ok(())
        } else {
            Err(InvalidConfig::new(
                "sieve_streaming",
                format!("epsilon must lie in (0, 1), got {}", self.epsilon),
            ))
        }
    }
}

/// Result of a [`sieve_streaming`] pass.
#[derive(Clone, Debug)]
pub struct SieveOutcome {
    /// Best candidate solution across all threshold guesses.
    pub items: Vec<ItemId>,
    /// Its aggregate value.
    pub value: f64,
    /// Number of threshold candidates materialized over the pass.
    pub candidates: usize,
    /// Total oracle calls.
    pub oracle_calls: u64,
}

/// One candidate solution of the OPT-guess grid, parked between
/// arrivals.
struct SieveCandidate<I> {
    /// Grid exponent `j`: this candidate's guess is `(1+ε)^j`.
    exponent: i32,
    /// Its solution state with the system borrow stripped.
    parts: Option<StateParts<I>>,
    /// Its current aggregate value (cached so the final argmax and the
    /// acceptance threshold need no oracle).
    value: f64,
}

/// The Sieve-Streaming pass as a per-arrival stepper.
///
/// Holds the probe state (Δ tracking), the live candidate grid, and the
/// arrival cursor with the system borrow stripped ([`StateParts`]), so a
/// `'static` session object can own it and rehydrate against whatever
/// system reference each step receives. Every oracle-visible action —
/// gain probes, grid retention, candidate creation order, acceptance
/// thresholds, call accounting — is performed by this type alone;
/// [`sieve_streaming`] and the native session are both thin drivers, so
/// they cannot disagree.
pub(crate) struct SieveCore<I> {
    k: usize,
    base: f64,
    n: usize,
    next: ItemId,
    /// Best singleton value seen so far (Δ).
    delta: f64,
    probe: Option<StateParts<I>>,
    candidates: Vec<SieveCandidate<I>>,
    /// Candidates ever materialized (including later-retired ones).
    ever: usize,
}

impl<I: Clone> SieveCore<I> {
    /// Fresh pass over `0..system.num_items()`. The config must already
    /// be validated. At `k = 0` no item can be kept, so the pass is
    /// empty: done at once, with no oracle call.
    pub(crate) fn new<S: UtilitySystem<Inner = I>>(system: &S, cfg: &SieveConfig) -> Self {
        Self {
            k: cfg.k,
            base: 1.0 + cfg.epsilon,
            n: if cfg.k == 0 { 0 } else { system.num_items() },
            next: 0,
            delta: 0.0,
            probe: Some(SolutionState::new(system).into_parts()),
            candidates: Vec::new(),
            ever: 0,
        }
    }

    /// Whether every item of the stream has arrived.
    pub(crate) fn done(&self) -> bool {
        (self.next as usize) >= self.n
    }

    /// Processes the next arriving item against the candidate grid.
    /// A no-op once the pass is done.
    pub(crate) fn step<S, A>(&mut self, system: &S, aggregate: &A)
    where
        S: UtilitySystem<Inner = I>,
        A: Aggregate,
    {
        if self.done() {
            return;
        }
        let v = self.next;
        self.next += 1;
        let k = self.k;
        let base = self.base;

        // Track Δ = max singleton value.
        let mut probe = SolutionState::from_parts(system, self.probe.take().expect("probe parked"));
        let singleton = probe.gain(aggregate, v);
        self.probe = Some(probe.into_parts());
        if singleton > self.delta {
            self.delta = singleton;
            // Re-derive the live grid: exponents j with
            // Δ ≤ (1+ε)^j ≤ 2kΔ (the textbook window).
            let lo = (self.delta.ln() / base.ln()).floor() as i32;
            let hi = ((2.0 * k as f64 * self.delta).ln() / base.ln()).ceil() as i32;
            self.candidates
                .retain(|c| c.exponent >= lo && c.exponent <= hi);
            for j in lo..=hi {
                if self.candidates.iter().all(|c| c.exponent != j) {
                    self.candidates.push(SieveCandidate {
                        exponent: j,
                        parts: Some(SolutionState::new(system).into_parts()),
                        value: 0.0,
                    });
                    self.ever += 1;
                }
            }
        }
        // Offer v to every candidate.
        for cand in self.candidates.iter_mut() {
            let mut state =
                SolutionState::from_parts(system, cand.parts.take().expect("candidate parked"));
            if state.len() >= k {
                cand.parts = Some(state.into_parts());
                continue;
            }
            let guess = base.powi(cand.exponent);
            let threshold = (guess / 2.0 - cand.value) / (k - state.len()) as f64;
            let gain = state.gain(aggregate, v);
            if gain >= threshold && gain > 1e-15 {
                state.insert(v);
                cand.value = state.value(aggregate);
            }
            cand.parts = Some(state.into_parts());
        }
    }

    /// The outcome as of the arrivals processed so far: best candidate
    /// by cached value, oracle calls of the probe plus the *live* grid
    /// (retired candidates take their counts with them — the historical
    /// accounting of this pass, kept so every driver reports the same
    /// totals).
    pub(crate) fn outcome(&self) -> SieveOutcome {
        let mut oracle_calls = self.probe.as_ref().expect("probe parked").oracle_calls();
        let mut best_items = Vec::new();
        let mut best_value = 0.0;
        for cand in &self.candidates {
            let parts = cand.parts.as_ref().expect("candidate parked");
            oracle_calls += parts.oracle_calls();
            if cand.value > best_value {
                best_value = cand.value;
                best_items = parts.items().to_vec();
            }
        }
        SieveOutcome {
            items: best_items,
            value: best_value,
            candidates: self.ever,
            oracle_calls,
        }
    }
}

/// One pass of Sieve-Streaming over the items `0..n` in index order
/// (callers with a real stream can pre-permute ids).
///
/// Rejects `ε ∉ (0, 1)` with a typed [`InvalidConfig`] instead of
/// asserting: the engine adapter forwards the rejection as a
/// [`crate::engine::SolverError::InvalidParams`], so a bad scenario spec
/// never takes down a grid run.
pub fn sieve_streaming<S: UtilitySystem, A: Aggregate>(
    system: &S,
    aggregate: &A,
    cfg: &SieveConfig,
) -> Result<SieveOutcome, InvalidConfig> {
    cfg.validate()?;
    let mut core = SieveCore::new(system, cfg);
    while !core.done() {
        core.step(system, aggregate);
    }
    Ok(core.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::MeanUtility;
    use crate::algorithms::greedy::{greedy, GreedyConfig};
    use crate::toy;

    #[test]
    fn sieve_achieves_half_of_greedy() {
        for seed in 1..6u64 {
            let sys = toy::random_coverage(40, 120, 3, 0.1, seed);
            let f = MeanUtility::new(sys.num_users());
            let k = 6;
            let gre = greedy(&sys, &f, &GreedyConfig::lazy(k));
            let sieve = sieve_streaming(&sys, &f, &SieveConfig::new(k)).expect("valid config");
            // (1/2 − ε)·OPT ≥ (1/2 − ε)·greedy; use 0.4·greedy as slack.
            assert!(
                sieve.value + 1e-9 >= 0.4 * gre.value,
                "seed {seed}: sieve {} vs greedy {}",
                sieve.value,
                gre.value
            );
            assert!(sieve.items.len() <= k);
        }
    }

    #[test]
    fn sieve_on_figure1_is_sensible() {
        let sys = toy::figure1();
        let f = MeanUtility::new(sys.num_users());
        let out = sieve_streaming(&sys, &f, &SieveConfig::new(2)).expect("valid config");
        assert!(out.value >= 0.5); // greedy gets 0.75; half is guaranteed
        assert!(out.candidates > 0);
    }

    #[test]
    fn sieve_respects_cardinality() {
        let sys = toy::random_coverage(30, 60, 2, 0.3, 9);
        let f = MeanUtility::new(sys.num_users());
        for k in [0usize, 1, 3, 10] {
            let out = sieve_streaming(&sys, &f, &SieveConfig::new(k)).expect("valid config");
            assert!(out.items.len() <= k, "k = {k}");
        }
    }

    #[test]
    fn tighter_epsilon_never_hurts_much() {
        let sys = toy::random_coverage(50, 100, 2, 0.08, 4);
        let f = MeanUtility::new(sys.num_users());
        let loose =
            sieve_streaming(&sys, &f, &SieveConfig { k: 5, epsilon: 0.5 }).expect("valid config");
        let tight = sieve_streaming(
            &sys,
            &f,
            &SieveConfig {
                k: 5,
                epsilon: 0.05,
            },
        )
        .expect("valid config");
        assert!(tight.value + 0.05 >= loose.value);
        assert!(tight.candidates >= loose.candidates);
    }

    #[test]
    fn bad_epsilon_is_a_typed_rejection() {
        let sys = toy::figure1();
        let f = MeanUtility::new(sys.num_users());
        for eps in [0.0, 1.0, -0.2, 1.5] {
            let err = sieve_streaming(&sys, &f, &SieveConfig { k: 2, epsilon: eps }).unwrap_err();
            assert_eq!(err.algorithm, "sieve_streaming");
            assert!(err.message.contains("epsilon"), "{}", err.message);
        }
    }

    #[test]
    fn stepped_core_matches_one_shot_driver() {
        let sys = toy::random_coverage(40, 120, 3, 0.1, 2);
        let f = MeanUtility::new(sys.num_users());
        let cfg = SieveConfig::new(5);
        let one_shot = sieve_streaming(&sys, &f, &cfg).expect("valid config");
        let mut core = SieveCore::new(&sys, &cfg);
        let mut steps = 0usize;
        while !core.done() {
            core.step(&sys, &f);
            steps += 1;
        }
        assert_eq!(steps, sys.num_items());
        let stepped = core.outcome();
        assert_eq!(stepped.items, one_shot.items);
        assert_eq!(stepped.value.to_bits(), one_shot.value.to_bits());
        assert_eq!(stepped.candidates, one_shot.candidates);
        assert_eq!(stepped.oracle_calls, one_shot.oracle_calls);
    }
}
