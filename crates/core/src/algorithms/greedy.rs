//! Greedy maximization of a monotone submodular aggregate under a
//! cardinality constraint, with three evaluation strategies.
//!
//! * **Naive** — evaluates every candidate each round: `O(nk)` oracle
//!   calls, the reference implementation.
//! * **Lazy** (lazy-forward, Leskovec et al. 2007) — keeps stale upper
//!   bounds in a max-heap and re-evaluates only the top candidate;
//!   valid because marginal gains of a submodular function only shrink.
//!   The paper uses this strategy for *all* algorithms in its experiments.
//! * **Stochastic** (Mirzasoleiman et al. 2015) — each round evaluates a
//!   random sample of `⌈(n/k)·ln(1/δ)⌉` candidates, giving
//!   `(1 − 1/e − δ)` expected quality at `O(n log(1/δ))` total calls.
//!
//! The same routine doubles as greedy **submodular cover** (Wolsey 1982)
//! through [`GreedyConfig::stop_at`]: stop as soon as the aggregate value
//! reaches a target, or at the cardinality cap, whichever comes first.
//!
//! ## Resumable core
//!
//! The algorithm itself lives in `GreedyEngine` (crate-internal), a one-round-per-step
//! state machine: `step()` performs exactly one argmax round (select +
//! insert) and records the post-round value and cumulative oracle-call
//! count at every round boundary. The free functions [`greedy`] /
//! [`greedy_into`] are thin drivers that step the engine to completion —
//! their outputs are bit-identical to the historical run-to-completion
//! loops because the engine *is* those loops, cut at the round boundary.
//! A crate-internal constructor restricts the candidates to an ascending
//! pool of ids; GreeDi's rounds over a central system run through it
//! (`algorithms::distributed`), so GreeDi has no greedy loop of its own.
//!
//! Because one greedy round never looks at the budget `k` except to
//! decide whether to stop, the solution for budget `k` is a strict prefix
//! of the solution for any `k′ > k` — including the per-round value
//! trajectory and the oracle-call count at each boundary. That is the
//! prefix property the engine layer's warm k-axis sweeps
//! ([`crate::engine::SolveSession`]) are built on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::aggregate::Aggregate;
use crate::items::ItemId;
use crate::system::{SolutionState, UtilitySystem};

/// Candidate evaluation strategy for [`greedy`].
#[derive(Clone, Debug, PartialEq)]
pub enum GreedyVariant {
    /// Evaluate every candidate every round.
    Naive,
    /// Lazy-forward (CELF): re-evaluate only stale heap tops, in
    /// geometrically growing batches through the `group_gains_batch`
    /// seam (default everywhere, as in the paper's experiments).
    Lazy,
    /// Evaluate a uniform random sample of `sample_size` candidates per
    /// round (sampling without replacement, fresh each round).
    Stochastic { sample_size: usize },
}

/// CELF is the default everywhere a variant isn't specified explicitly.
impl Default for GreedyVariant {
    fn default() -> Self {
        GreedyVariant::Lazy
    }
}

/// Ceiling on one CELF re-evaluation batch. Batches grow 1, 2, 4, … per
/// selection round, so total re-evaluations stay within 2× of the
/// one-at-a-time walk while large stale prefixes are still evaluated in
/// parallel-friendly slabs.
const CELF_BATCH_CAP: usize = 1024;

/// Configuration for [`greedy`].
#[derive(Clone, Debug)]
pub struct GreedyConfig {
    /// Cardinality constraint `k` (maximum number of items to pick).
    pub k: usize,
    /// Evaluation strategy.
    pub variant: GreedyVariant,
    /// Optional cover-mode target: stop once the aggregate value is
    /// `≥ stop_at − stop_slack`.
    pub stop_at: Option<f64>,
    /// Numerical slack for `stop_at` comparisons.
    pub stop_slack: f64,
    /// Seed for the stochastic variant.
    pub seed: u64,
}

impl GreedyConfig {
    /// Standard lazy greedy with cardinality `k`.
    pub fn lazy(k: usize) -> Self {
        Self {
            k,
            variant: GreedyVariant::Lazy,
            stop_at: None,
            stop_slack: 1e-9,
            seed: 0,
        }
    }

    /// Naive greedy with cardinality `k`.
    pub fn naive(k: usize) -> Self {
        Self {
            variant: GreedyVariant::Naive,
            ..Self::lazy(k)
        }
    }

    /// Cover mode: grow until `value ≥ target` or `max_size` items.
    pub fn cover(target: f64, max_size: usize) -> Self {
        Self {
            stop_at: Some(target),
            ..Self::lazy(max_size)
        }
    }

    /// Cover mode with an explicit greedy variant.
    pub fn cover_with(target: f64, max_size: usize, variant: GreedyVariant) -> Self {
        Self {
            variant,
            ..Self::cover(target, max_size)
        }
    }
}

/// Result of a greedy run.
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    /// Chosen items in insertion order.
    pub items: Vec<ItemId>,
    /// Aggregate value after each insertion (`trajectory.len() == items.len()`).
    pub trajectory: Vec<f64>,
    /// Final aggregate value.
    pub value: f64,
    /// Whether a `stop_at` target (or the aggregate's saturation value)
    /// was reached.
    pub reached_target: bool,
    /// Oracle (`group_gains`) evaluations performed.
    pub oracle_calls: u64,
}

/// Max-heap entry for lazy-forward: stale upper bound on an item's gain.
struct HeapEntry {
    bound: f64,
    item: ItemId,
    round: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.item == other.item
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on bound; ties broken toward the smaller item id so the
        // lazy variant matches the naive variant's deterministic argmax.
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// Runs greedy maximization of `aggregate` over `system`.
///
/// Stops when `cfg.k` items are chosen, when no candidate has positive
/// gain, or when a `stop_at`/saturation target is reached.
///
/// ```
/// use fair_submod_core::prelude::*;
/// use fair_submod_core::toy;
///
/// let system = toy::figure1();
/// let f = MeanUtility::new(system.num_users());
/// let run = greedy(&system, &f, &GreedyConfig::lazy(2));
/// assert_eq!(run.items, vec![0, 1]); // {v1, v2}, f = 0.75
/// assert!((run.value - 0.75).abs() < 1e-12);
/// ```
pub fn greedy<S: UtilitySystem, A: Aggregate>(
    system: &S,
    aggregate: &A,
    cfg: &GreedyConfig,
) -> GreedyOutcome {
    let mut state = SolutionState::new(system);

    greedy_into(&mut state, aggregate, cfg)
}

/// Runs greedy starting from an existing (possibly non-empty) state —
/// used by the two-stage algorithms. See [`greedy`].
pub fn greedy_into<S: UtilitySystem, A: Aggregate>(
    state: &mut SolutionState<'_, S>,
    aggregate: &A,
    cfg: &GreedyConfig,
) -> GreedyOutcome {
    let mut engine = GreedyEngine::new(state, aggregate, cfg.clone());
    while engine.step(state) {}
    engine.into_outcome(state)
}

/// Runs `cfg` from an empty state with the candidates restricted to the
/// ascending `pool` — one GreeDi round over a central system
/// (`algorithms::distributed`).
pub(crate) fn greedy_over_pool<S: UtilitySystem, A: Aggregate>(
    system: &S,
    aggregate: &A,
    cfg: &GreedyConfig,
    pool: Option<Vec<ItemId>>,
) -> GreedyOutcome {
    let mut state = SolutionState::new(system);
    let mut engine = GreedyEngine::with_pool(&mut state, aggregate, cfg.clone(), pool);
    while engine.step(&mut state) {}
    engine.into_outcome(&state)
}

fn effective_target<A: Aggregate>(aggregate: &A, cfg: &GreedyConfig) -> Option<f64> {
    match (cfg.stop_at, aggregate.saturation_value()) {
        (Some(t), Some(s)) => Some(t.min(s)),
        (Some(t), None) => Some(t),
        (None, Some(s)) => Some(s),
        (None, None) => None,
    }
}

fn target_reached(value: f64, target: Option<f64>, slack: f64) -> bool {
    matches!(target, Some(t) if value + slack >= t)
}

/// Evaluates `candidates` through one [`SolutionState::gains_batch_into`]
/// call and returns the argmax under `aggregate` — scanning rows in
/// candidate order with the same strict `> best + 1e-15` improvement rule
/// as the historical per-item loop, so the winner (and every tie-break)
/// is identical to evaluating candidates one at a time.
fn best_candidate<S: UtilitySystem, A: Aggregate>(
    state: &mut SolutionState<'_, S>,
    aggregate: &A,
    candidates: &[ItemId],
    gains: &mut Vec<f64>,
) -> Option<(f64, ItemId)> {
    if candidates.is_empty() {
        return None;
    }
    let c = state.system().num_groups();
    gains.clear();
    gains.resize(candidates.len() * c, 0.0);
    state.gains_batch_into(candidates, gains);
    let mut best: Option<(f64, ItemId)> = None;
    for (j, &v) in candidates.iter().enumerate() {
        let gain = aggregate.gain(state.group_sums(), &gains[j * c..(j + 1) * c]);
        let better = match best {
            None => true,
            Some((bg, _)) => gain > bg + 1e-15,
        };
        if better {
            best = Some((gain, v));
        }
    }
    best
}

/// Refills `out` with the live candidates in ascending id order: the
/// items of `pool` (the whole ground set when `None`) not yet in `state`.
fn live_candidates<S: UtilitySystem>(
    state: &SolutionState<'_, S>,
    pool: Option<&[ItemId]>,
    out: &mut Vec<ItemId>,
) {
    out.clear();
    match pool {
        Some(pool) => out.extend(pool.iter().copied().filter(|&v| !state.contains(v))),
        None => {
            let n = state.system().num_items() as ItemId;
            out.extend((0..n).filter(|&v| !state.contains(v)));
        }
    }
}

/// Per-variant incremental state of a [`GreedyEngine`].
enum VariantState {
    Naive {
        candidates: Vec<ItemId>,
        gains: Vec<f64>,
    },
    Lazy {
        /// Seeded by the first step's full scan (`None` until then, so
        /// that an already-finished start state never pays the scan).
        heap: Option<BinaryHeap<HeapEntry>>,
        round: usize,
        /// Reused stale-batch and gain-matrix buffers.
        batch: Vec<ItemId>,
        gains: Vec<f64>,
    },
    Stochastic {
        pool: Vec<ItemId>,
        rng: StdRng,
        sample_size: usize,
        gains: Vec<f64>,
    },
}

/// The greedy algorithm as a resumable one-round-per-step state machine.
///
/// Construction captures the start state's value and stop condition;
/// each [`GreedyEngine::step`] performs exactly one greedy round against
/// a [`SolutionState`] **of the same run** (the engine does not hold the
/// state so that callers — sessions in particular — can park the state
/// as parts between steps). After every successful round the engine
/// records the post-round aggregate value and the state's cumulative
/// oracle-call count; those boundary logs are exactly what a cold run
/// with a smaller budget would have reported, which is what makes greedy
/// solutions prefix-extractable per `k`.
pub(crate) struct GreedyEngine<A: Aggregate> {
    cfg: GreedyConfig,
    aggregate: A,
    /// Ascending candidate pool; `None` is the whole ground set.
    pool: Option<Vec<ItemId>>,
    target: Option<f64>,
    variant: VariantState,
    initial_value: f64,
    value: f64,
    reached: bool,
    done: bool,
    trajectory: Vec<f64>,
    /// `state.oracle_calls()` at each round boundary (after insert `r`).
    round_calls: Vec<u64>,
    /// `state.oracle_calls()` when the engine finished (includes the
    /// final failed scan of an early stop, which a cold run with a
    /// budget beyond the stop point also performs).
    final_calls: Option<u64>,
}

impl<A: Aggregate> GreedyEngine<A> {
    /// Prepares a run of `cfg` continuing from `state` (which may be
    /// non-empty, as in the two-stage algorithms).
    pub(crate) fn new<S: UtilitySystem>(
        state: &mut SolutionState<'_, S>,
        aggregate: A,
        cfg: GreedyConfig,
    ) -> Self {
        Self::with_pool(state, aggregate, cfg, None)
    }

    /// [`GreedyEngine::new`] choosing only among the ascending `pool`
    /// (`None` is the whole ground set). Scans visit the pool in
    /// ascending id order, so a pool run makes exactly the selections,
    /// tie-breaks and oracle calls of a run over a system holding only
    /// the pool's items.
    pub(crate) fn with_pool<S: UtilitySystem>(
        state: &mut SolutionState<'_, S>,
        aggregate: A,
        cfg: GreedyConfig,
        pool: Option<Vec<ItemId>>,
    ) -> Self {
        let target = effective_target(&aggregate, &cfg);
        let value = state.value(&aggregate);
        let reached = target_reached(value, target, cfg.stop_slack);
        let variant = match cfg.variant {
            GreedyVariant::Naive => VariantState::Naive {
                candidates: Vec::new(),
                gains: Vec::new(),
            },
            GreedyVariant::Lazy => VariantState::Lazy {
                heap: None,
                round: 0,
                batch: Vec::new(),
                gains: Vec::new(),
            },
            GreedyVariant::Stochastic { sample_size } => {
                let mut live = Vec::new();
                live_candidates(state, pool.as_deref(), &mut live);
                VariantState::Stochastic {
                    pool: live,
                    rng: StdRng::seed_from_u64(cfg.seed),
                    sample_size,
                    gains: Vec::new(),
                }
            }
        };
        Self {
            cfg,
            aggregate,
            pool,
            target,
            variant,
            initial_value: value,
            value,
            reached,
            done: false,
            trajectory: Vec::new(),
            round_calls: Vec::new(),
            final_calls: None,
        }
    }

    /// Performs one greedy round. Returns `true` while more rounds
    /// remain, `false` once the run has finished (budget exhausted,
    /// target reached, or no candidate with positive gain).
    pub(crate) fn step<S: UtilitySystem>(&mut self, state: &mut SolutionState<'_, S>) -> bool {
        if self.done {
            return false;
        }
        if state.len() >= self.cfg.k || self.reached {
            return self.finish(state);
        }
        let aggregate = &self.aggregate;
        let pool = self.pool.as_deref();
        let inserted = match &mut self.variant {
            VariantState::Naive { candidates, gains } => {
                // One batched oracle call per round: every remaining
                // candidate in ascending id order, so the argmax
                // tie-breaking matches the historical per-item scan.
                live_candidates(state, pool, candidates);
                match best_candidate(state, aggregate, candidates, gains) {
                    Some((gain, v)) if gain > 1e-15 => {
                        state.insert(v);
                        true
                    }
                    _ => false,
                }
            }
            VariantState::Lazy {
                heap,
                round,
                batch,
                gains,
            } => {
                if heap.is_none() {
                    // Round 0: evaluate everything once — through the
                    // batch seam, so the full scan that dominates lazy
                    // greedy's cost runs in parallel — to seed the heap.
                    let mut candidates = Vec::new();
                    live_candidates(state, pool, &mut candidates);
                    let c = state.system().num_groups();
                    let mut seed_gains = vec![0.0; candidates.len() * c];
                    state.gains_batch_into(&candidates, &mut seed_gains);
                    let mut seeded = BinaryHeap::with_capacity(candidates.len());
                    for (j, &v) in candidates.iter().enumerate() {
                        let bound =
                            aggregate.gain(state.group_sums(), &seed_gains[j * c..(j + 1) * c]);
                        seeded.push(HeapEntry {
                            bound,
                            item: v,
                            round: 0,
                        });
                    }
                    *heap = Some(seeded);
                }
                let heap = heap.as_mut().expect("seeded above");
                // CELF with batched refreshes: while the top is stale,
                // pop a slab of consecutive stale entries, re-evaluate
                // them in ONE `gains_batch_into` call, and push them
                // back fresh. Stale bounds only overestimate (submodular
                // gains shrink), so whichever fresh entry surfaces is
                // the exact argmax with the exact heap tie-break the
                // one-at-a-time walk selects; batching only changes how
                // many refreshes happen, never which item wins. Slabs
                // double from 1 so the refresh total stays within 2× of
                // the strict walk while big stale prefixes still hit the
                // parallel batch path.
                let c = state.system().num_groups();
                let mut slab = 1usize;
                let chosen = loop {
                    match heap.peek() {
                        None => break None,
                        Some(entry) if entry.round == *round => {
                            break heap.pop();
                        }
                        Some(_) => {}
                    }
                    batch.clear();
                    while batch.len() < slab {
                        match heap.peek() {
                            Some(entry) if entry.round != *round => {
                                batch.push(heap.pop().expect("peeked").item);
                            }
                            _ => break,
                        }
                    }
                    gains.clear();
                    gains.resize(batch.len() * c, 0.0);
                    state.gains_batch_into(batch, gains);
                    for (j, &v) in batch.iter().enumerate() {
                        let bound = aggregate.gain(state.group_sums(), &gains[j * c..(j + 1) * c]);
                        heap.push(HeapEntry {
                            bound,
                            item: v,
                            round: *round,
                        });
                    }
                    slab = (slab * 2).min(CELF_BATCH_CAP);
                };
                match chosen {
                    Some(entry) if entry.bound > 1e-15 => {
                        state.insert(entry.item);
                        *round += 1;
                        true
                    }
                    _ => false,
                }
            }
            VariantState::Stochastic {
                pool,
                rng,
                sample_size,
                gains,
            } => {
                if pool.is_empty() {
                    false
                } else {
                    let s = (*sample_size).max(1).min(pool.len());
                    // Partial Fisher–Yates: the first `s` entries become
                    // the sample, then one batched oracle call evaluates
                    // the whole sample.
                    for i in 0..s {
                        let j = i + (rand::Rng::gen_range(rng, 0..pool.len() - i));
                        pool.swap(i, j);
                    }
                    let sample: Vec<ItemId> = pool[..s].to_vec();
                    let mut inserted = false;
                    match best_candidate(state, aggregate, &sample, gains) {
                        Some((gain, v)) if gain > 1e-15 => {
                            state.insert(v);
                            pool.retain(|&x| x != v);
                            inserted = true;
                        }
                        _ => {
                            // The sample had no improving candidate; with
                            // monotone aggregates this can only be sampling
                            // bad luck or true exhaustion — reshuffle once
                            // more and fall back to a full scan to decide.
                            pool.shuffle(rng);
                            let mut any = None;
                            for &v in pool.iter() {
                                let gain = state.gain(aggregate, v);
                                if gain > 1e-15 {
                                    any = Some(v);
                                    break;
                                }
                            }
                            if let Some(v) = any {
                                state.insert(v);
                                pool.retain(|&x| x != v);
                                inserted = true;
                            }
                        }
                    }
                    inserted
                }
            }
        };
        if !inserted {
            return self.finish(state);
        }
        self.value = state.value(&self.aggregate);
        self.trajectory.push(self.value);
        self.round_calls.push(state.oracle_calls());
        self.reached = target_reached(self.value, self.target, self.cfg.stop_slack);
        if state.len() >= self.cfg.k || self.reached {
            return self.finish(state);
        }
        true
    }

    fn finish<S: UtilitySystem>(&mut self, state: &mut SolutionState<'_, S>) -> bool {
        self.done = true;
        self.final_calls = Some(state.oracle_calls());
        false
    }

    /// Whether the run has finished.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Rounds completed so far (= items inserted by this engine).
    pub(crate) fn rounds(&self) -> usize {
        self.trajectory.len()
    }

    /// Current aggregate value.
    pub(crate) fn value(&self) -> f64 {
        self.value
    }

    /// Whether the stop target (or aggregate saturation) was reached.
    pub(crate) fn reached_target(&self) -> bool {
        self.reached
    }

    /// The aggregate value a cold run with budget `k` would have ended
    /// at: the round-`k` boundary value, or the final value when the run
    /// stopped before round `k`. Only meaningful once enough rounds ran
    /// (`rounds() >= k` or [`GreedyEngine::is_done`]).
    pub(crate) fn value_at(&self, k: usize) -> f64 {
        if k == 0 {
            self.initial_value
        } else if k <= self.trajectory.len() {
            self.trajectory[k - 1]
        } else {
            self.value
        }
    }

    /// The cumulative oracle-call count a cold run with budget `k`
    /// would have reported. For `k` beyond the stop point this includes
    /// the final failed scan (a cold run performs it too).
    pub(crate) fn calls_at(&self, k: usize) -> u64 {
        if k == 0 {
            0
        } else if k <= self.round_calls.len() {
            self.round_calls[k - 1]
        } else {
            self.final_calls
                .expect("calls_at beyond rounds requires a finished engine")
        }
    }

    /// Whether a cold run with budget `k` would have reported reaching
    /// its target (only the final round can reach it). Exercised by the
    /// round-boundary equivalence test; sessions report only the final
    /// `reached` state.
    #[cfg(test)]
    pub(crate) fn reached_at(&self, k: usize) -> bool {
        self.reached && k >= self.trajectory.len()
    }

    /// Finalizes the historical [`GreedyOutcome`] shape from a finished
    /// (or abandoned) run.
    pub(crate) fn into_outcome<S: UtilitySystem>(
        self,
        state: &SolutionState<'_, S>,
    ) -> GreedyOutcome {
        GreedyOutcome {
            items: state.items().to_vec(),
            trajectory: self.trajectory,
            value: self.value,
            reached_target: self.reached,
            oracle_calls: state.oracle_calls(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{MeanUtility, TruncatedMean};
    use crate::toy;

    #[test]
    fn figure1_greedy_picks_v1_v2() {
        // Example 3.1: greedy on f returns S12 = {v1, v2} with f = 0.75.
        let sys = toy::figure1();
        let f = MeanUtility::new(sys.num_users());
        for cfg in [GreedyConfig::naive(2), GreedyConfig::lazy(2)] {
            let out = greedy(&sys, &f, &cfg);
            assert_eq!(out.items, vec![0, 1]);
            assert!((out.value - 0.75).abs() < 1e-12);
            assert_eq!(out.trajectory.len(), 2);
        }
    }

    #[test]
    fn lazy_matches_naive_on_random_instances() {
        for seed in 1..6u64 {
            let sys = toy::random_coverage(24, 80, 4, 0.12, seed);
            let f = MeanUtility::new(sys.num_users());
            let naive = greedy(&sys, &f, &GreedyConfig::naive(6));
            let lazy = greedy(&sys, &f, &GreedyConfig::lazy(6));
            assert_eq!(naive.items, lazy.items, "seed {seed}");
            assert!((naive.value - lazy.value).abs() < 1e-12);
            // Lazy should never evaluate more than naive.
            assert!(lazy.oracle_calls <= naive.oracle_calls);
        }
    }

    #[test]
    fn stochastic_greedy_is_reasonable() {
        let sys = toy::random_coverage(40, 120, 3, 0.1, 11);
        let f = MeanUtility::new(sys.num_users());
        let exactish = greedy(&sys, &f, &GreedyConfig::naive(8));
        let mut cfg = GreedyConfig::lazy(8);
        cfg.variant = GreedyVariant::Stochastic { sample_size: 20 };
        cfg.seed = 3;
        let stoch = greedy(&sys, &f, &cfg);
        assert_eq!(stoch.items.len(), 8);
        assert!(stoch.value >= 0.7 * exactish.value);
    }

    #[test]
    fn naive_oracle_calls_are_counted_exactly_once_per_candidate() {
        // Batched rounds must account one call per evaluated candidate:
        // round r scans (n − r) candidates, plus one call per insert.
        let sys = toy::random_coverage(24, 80, 4, 0.12, 2);
        let f = MeanUtility::new(sys.num_users());
        let n = sys.num_items() as u64;
        let k = 6u64;
        let naive = greedy(&sys, &f, &GreedyConfig::naive(k as usize));
        assert_eq!(naive.items.len() as u64, k, "instance saturated early");
        let scans: u64 = (0..k).map(|r| n - r).sum();
        assert_eq!(naive.oracle_calls, scans + k);
        // Lazy evaluates the same round-0 scan but strictly fewer calls
        // afterwards on any instance where stale bounds survive.
        let lazy = greedy(&sys, &f, &GreedyConfig::lazy(k as usize));
        assert!(lazy.oracle_calls >= n + k);
        assert!(lazy.oracle_calls < naive.oracle_calls);
    }

    #[test]
    fn cover_mode_stops_at_target() {
        let sys = toy::figure1();
        let t = TruncatedMean::uniform(sys.group_sizes(), 0.3);
        let cfg = GreedyConfig::cover(1.0, 4);
        let out = greedy(&sys, &t, &cfg);
        assert!(out.reached_target);
        assert!(out.value + 1e-9 >= 1.0);
        assert!(out.items.len() <= 4);
    }

    #[test]
    fn greedy_stops_when_no_gain() {
        let sys = toy::figure1();
        let f = MeanUtility::new(sys.num_users());
        // k=10 > n: greedy must stop once everything useful is chosen.
        let out = greedy(&sys, &f, &GreedyConfig::lazy(10));
        assert!(out.items.len() <= 4);
        assert!((out.value - 1.0).abs() < 1e-12); // all 12 users covered by all 4 items
    }

    #[test]
    fn greedy_into_respects_existing_items() {
        let sys = toy::figure1();
        let f = MeanUtility::new(sys.num_users());
        let mut state = crate::system::SolutionState::new(&sys);
        state.insert(3); // v4
        let out = greedy_into(&mut state, &f, &GreedyConfig::lazy(2));
        assert_eq!(out.items.len(), 2);
        assert_eq!(out.items[0], 3);
        assert_eq!(out.items[1], 0); // v1 is the best complement to v4
    }

    /// The engine's round-boundary logs must equal cold runs at every
    /// smaller budget — the invariant behind warm k-axis sweeps.
    #[test]
    fn engine_round_boundaries_match_cold_runs_at_every_k() {
        let sys = toy::random_coverage(30, 90, 3, 0.1, 7);
        let f = MeanUtility::new(sys.num_users());
        let variants = [
            GreedyVariant::Naive,
            GreedyVariant::Lazy,
            GreedyVariant::Stochastic { sample_size: 9 },
        ];
        for variant in variants {
            let max_k = 8;
            let warm_cfg = GreedyConfig {
                variant: variant.clone(),
                seed: 5,
                ..GreedyConfig::lazy(max_k)
            };
            let mut state = SolutionState::new(&sys);
            let mut engine = GreedyEngine::new(&mut state, &f, warm_cfg.clone());
            while engine.step(&mut state) {}
            for k in 0..=max_k {
                let cold_cfg = GreedyConfig {
                    k,
                    ..warm_cfg.clone()
                };
                let cold = greedy(&sys, &f, &cold_cfg);
                let r = k.min(engine.rounds());
                assert_eq!(cold.items, state.items()[..r], "{variant:?} k={k}");
                assert_eq!(
                    cold.value.to_bits(),
                    engine.value_at(k).to_bits(),
                    "{variant:?} k={k}"
                );
                assert_eq!(cold.oracle_calls, engine.calls_at(k), "{variant:?} k={k}");
                assert_eq!(
                    cold.reached_target,
                    engine.reached_at(k),
                    "{variant:?} k={k}"
                );
            }
        }
    }
}
