//! Two-round distributed greedy — GreeDi (Mirzasoleiman et al.,
//! JMLR 2016), the paper's related-work reference \[46\] for the
//! distributed setting.
//!
//! Round 1 partitions the ground set into `p` shards and runs greedy
//! independently on each (in a real deployment, on separate machines);
//! round 2 runs greedy on the union of the shard solutions and returns
//! the better of (a) the round-2 solution and (b) the best shard
//! solution. Guarantee: `(1 − 1/e)/min(√k, p)·OPT` in general, and
//! `(1 − 1/e)` under random partitioning in expectation for many
//! practical instances — in tests it lands within a few percent of
//! centralized greedy.
//!
//! This makes the greedy-for-`f` stage of both BSM schemes shardable;
//! the fairness stages operate on the merged candidate pool.

use std::convert::Infallible;

use crate::aggregate::Aggregate;
use crate::items::ItemId;
use crate::system::UtilitySystem;

use super::greedy::{greedy_over_pool, GreedyConfig, GreedyOutcome, GreedyVariant};
use super::InvalidConfig;

/// Configuration for [`greedi`].
#[derive(Clone, Debug)]
pub struct GreediConfig {
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Number of shards `p ≥ 1`.
    pub shards: usize,
    /// Greedy evaluation strategy within shards and in round 2.
    pub variant: GreedyVariant,
    /// Shard assignment seed (items are assigned round-robin after a
    /// seeded shuffle).
    pub seed: u64,
}

impl GreediConfig {
    /// Defaults: 4 shards, lazy greedy.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            shards: 4,
            variant: GreedyVariant::Lazy,
            seed: 0,
        }
    }

    /// Checks the config's numeric domain (`shards ≥ 1`).
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if self.shards >= 1 {
            Ok(())
        } else {
            Err(InvalidConfig::new(
                "greedi",
                format!("shards must be >= 1, got {}", self.shards),
            ))
        }
    }
}

/// The seeded round-robin partition GreeDi shards the ground set with:
/// a Fisher–Yates shuffle driven by an xorshift stream on `seed | 1`,
/// then shard `s` takes positions `s, s + p, s + 2p, …` of the shuffled
/// order. Shared by [`greedi`], the native GreeDi session, and
/// [`crate::engine::ShardedInstance`], so every sharded consumer agrees
/// on the partition bit for bit.
///
/// Each shard's members are returned in ascending id order — the order
/// every greedy round scans them in.
pub fn shard_partition(n: usize, shards: usize, seed: u64) -> Vec<Vec<ItemId>> {
    let shards = shards.max(1);
    let mut order: Vec<ItemId> = (0..n as ItemId).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    (0..shards)
        .map(|shard| {
            let mut members: Vec<ItemId> =
                order.iter().copied().skip(shard).step_by(shards).collect();
            members.sort_unstable();
            members
        })
        .collect()
}

/// Result of [`greedi`].
#[derive(Clone, Debug)]
pub struct GreediOutcome {
    /// Final solution (≤ k items).
    pub items: Vec<ItemId>,
    /// Its aggregate value.
    pub value: f64,
    /// Value of the best single-shard solution (diagnostics).
    pub best_shard_value: f64,
    /// Oracle calls across both rounds.
    pub oracle_calls: u64,
}

/// Runs two-round GreeDi over `0..n` with a seeded random partition.
///
/// Rejects `shards = 0` with a typed [`InvalidConfig`] instead of
/// asserting: the engine adapter forwards the rejection as a
/// [`crate::engine::SolverError::InvalidParams`], so a bad scenario spec
/// never takes down a grid run.
pub fn greedi<S: UtilitySystem, A: Aggregate>(
    system: &S,
    aggregate: &A,
    cfg: &GreediConfig,
) -> Result<GreediOutcome, InvalidConfig> {
    cfg.validate()?;
    let partition = shard_partition(system.num_items(), cfg.shards, cfg.seed);
    let mut fold = GreediFold::new(cfg.k, cfg.shards, &cfg.variant);
    while fold.step_central(system, aggregate, &partition) {}
    Ok(fold.into_outcome())
}

/// GreeDi as a fold stepped one round at a time: each
/// [`GreediFold::step`] runs round 1 on the next shard or, once every
/// shard has run, round 2 on the merged pool and the final comparison.
///
/// This is the one place GreeDi's decision rule lives. Its callers —
/// [`greedi`], the engine's `GreediSession` and
/// `ShardedInstance::solve_greedi` — step it in shard order and differ
/// only in where a round's oracle comes from, so they cannot drift.
pub(crate) struct GreediFold {
    /// The greedy every round runs: budget `k` and the config's variant,
    /// with `Stochastic` run as `Naive` on a restricted pool.
    round: GreedyConfig,
    shards: usize,
    next_shard: usize,
    oracle_calls: u64,
    pool: Vec<ItemId>,
    best_shard: (f64, Vec<ItemId>),
    outcome: Option<GreediOutcome>,
}

impl GreediFold {
    /// A fold over `shards ≥ 1` shards at budget `k`.
    pub(crate) fn new(k: usize, shards: usize, variant: &GreedyVariant) -> Self {
        let variant = match variant {
            GreedyVariant::Stochastic { .. } => GreedyVariant::Naive,
            other => other.clone(),
        };
        Self {
            round: GreedyConfig {
                variant,
                ..GreedyConfig::lazy(k)
            },
            shards,
            next_shard: 0,
            oracle_calls: 0,
            pool: Vec::new(),
            best_shard: (f64::NEG_INFINITY, Vec::new()),
            outcome: None,
        }
    }

    /// Runs the next round and returns whether more remain. `shard(s,
    /// cfg)` runs `cfg` on shard `s`; `merge(pool, cfg)` runs it on the
    /// ascending round-2 pool. Both report items as global ids.
    ///
    /// An empty pool (`k = 0`, or no shard found a positive gain) leaves
    /// round 2 nothing to choose from, so `merge` is not called: round 2
    /// returns the empty set, worth what every shard's empty start is
    /// worth.
    pub(crate) fn step<E>(
        &mut self,
        shard: impl FnOnce(usize, &GreedyConfig) -> Result<GreedyOutcome, E>,
        merge: impl FnOnce(&[ItemId], &GreedyConfig) -> Result<GreedyOutcome, E>,
    ) -> Result<bool, E> {
        if self.outcome.is_some() {
            return Ok(false);
        }
        if self.next_shard < self.shards {
            let run = shard(self.next_shard, &self.round)?;
            self.oracle_calls += run.oracle_calls;
            if run.value > self.best_shard.0 {
                self.best_shard = (run.value, run.items.clone());
            }
            self.pool.extend(run.items);
            self.next_shard += 1;
            return Ok(true);
        }
        self.pool.sort_unstable();
        self.pool.dedup();
        let (items, value) = if self.pool.is_empty() {
            (Vec::new(), self.best_shard.0)
        } else {
            let run = merge(&self.pool, &self.round)?;
            self.oracle_calls += run.oracle_calls;
            (run.items, run.value)
        };
        // The better of round 2 and the best single shard; ties go to
        // round 2.
        let best_shard_value = self.best_shard.0;
        let (items, value) = if value >= best_shard_value {
            (items, value)
        } else {
            (std::mem::take(&mut self.best_shard.1), best_shard_value)
        };
        self.outcome = Some(GreediOutcome {
            items,
            value,
            best_shard_value,
            oracle_calls: self.oracle_calls,
        });
        Ok(false)
    }

    /// [`GreediFold::step`] over one central `system`: round 1 scans
    /// shard `s`'s members of `partition`, round 2 the pool.
    pub(crate) fn step_central<S: UtilitySystem, A: Aggregate>(
        &mut self,
        system: &S,
        aggregate: &A,
        partition: &[Vec<ItemId>],
    ) -> bool {
        let round = |pool: &[ItemId], cfg: &GreedyConfig| -> Result<GreedyOutcome, Infallible> {
            Ok(greedy_over_pool(
                system,
                aggregate,
                cfg,
                Some(pool.to_vec()),
            ))
        };
        match self.step(|s, cfg| round(&partition[s], cfg), round) {
            Ok(running) => running,
            Err(never) => match never {},
        }
    }

    /// Number of shards round 1 runs over.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Oracle calls of the rounds run so far.
    pub(crate) fn oracle_calls(&self) -> u64 {
        self.oracle_calls
    }

    /// The final outcome, once round 2 has run.
    pub(crate) fn outcome(&self) -> Option<&GreediOutcome> {
        self.outcome.as_ref()
    }

    /// The best solution so far and its value: the outcome once
    /// finished, else the best shard, else the empty set at 0.
    pub(crate) fn best(&self) -> (Vec<ItemId>, f64) {
        match &self.outcome {
            Some(run) => (run.items.clone(), run.value),
            None if self.best_shard.0.is_finite() => (self.best_shard.1.clone(), self.best_shard.0),
            None => (Vec::new(), 0.0),
        }
    }

    /// The outcome of a finished fold.
    pub(crate) fn into_outcome(self) -> GreediOutcome {
        self.outcome.expect("GreeDi fold stepped to completion")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::MeanUtility;
    use crate::algorithms::greedy::greedy;
    use crate::toy;

    #[test]
    fn greedi_close_to_centralized_greedy() {
        for seed in 1..5u64 {
            let sys = toy::random_coverage(60, 150, 3, 0.08, seed);
            let f = MeanUtility::new(sys.num_users());
            let central = greedy(&sys, &f, &GreedyConfig::lazy(6));
            let mut cfg = GreediConfig::new(6);
            cfg.seed = seed;
            let dist = greedi(&sys, &f, &cfg).expect("valid config");
            assert!(
                dist.value + 1e-9 >= 0.7 * central.value,
                "seed {seed}: greedi {} vs central {}",
                dist.value,
                central.value
            );
            assert!(dist.items.len() <= 6);
        }
    }

    #[test]
    fn single_shard_equals_plain_greedy_value() {
        let sys = toy::random_coverage(30, 80, 2, 0.15, 7);
        let f = MeanUtility::new(sys.num_users());
        let central = greedy(&sys, &f, &GreedyConfig::naive(5));
        let mut cfg = GreediConfig::new(5);
        cfg.shards = 1;
        let dist = greedi(&sys, &f, &cfg).expect("valid config");
        assert!((dist.value - central.value).abs() < 1e-9);
    }

    #[test]
    fn round2_never_below_best_shard() {
        let sys = toy::random_coverage(40, 100, 2, 0.1, 3);
        let f = MeanUtility::new(sys.num_users());
        let mut cfg = GreediConfig::new(5);
        cfg.shards = 8;
        let dist = greedi(&sys, &f, &cfg).expect("valid config");
        assert!(dist.value + 1e-12 >= dist.best_shard_value);
    }

    #[test]
    fn deterministic_per_seed() {
        let sys = toy::random_coverage(40, 100, 2, 0.1, 9);
        let f = MeanUtility::new(sys.num_users());
        let cfg = GreediConfig::new(4);
        let a = greedi(&sys, &f, &cfg).expect("valid config");
        let b = greedi(&sys, &f, &cfg).expect("valid config");
        assert_eq!(a.items, b.items);
    }

    #[test]
    fn zero_shards_is_a_typed_rejection() {
        let sys = toy::random_coverage(10, 20, 2, 0.2, 1);
        let f = MeanUtility::new(sys.num_users());
        let mut cfg = GreediConfig::new(3);
        cfg.shards = 0;
        let err = greedi(&sys, &f, &cfg).unwrap_err();
        assert_eq!(err.algorithm, "greedi");
        assert!(err.message.contains("shards"), "{}", err.message);
    }

    #[test]
    fn lazy_subset_greedy_matches_naive_subset_greedy() {
        // The pool-restricted CELF must select the same items as the
        // pool-restricted naive scan (integer coverage gains: ties are
        // exact and both tie-break toward the smaller id), with fewer
        // calls.
        for seed in 1..5u64 {
            let sys = toy::random_coverage(50, 120, 3, 0.1, seed);
            let f = MeanUtility::new(sys.num_users());
            let candidates: Vec<ItemId> = (0..50).filter(|v| v % 3 != 1).collect();
            let naive =
                greedy_over_pool(&sys, &f, &GreedyConfig::naive(8), Some(candidates.clone()));
            let lazy = greedy_over_pool(&sys, &f, &GreedyConfig::lazy(8), Some(candidates));
            assert_eq!(naive.items, lazy.items, "seed {seed}");
            assert_eq!(naive.value.to_bits(), lazy.value.to_bits(), "seed {seed}");
            assert!(
                lazy.oracle_calls <= naive.oracle_calls,
                "seed {seed}: {} vs {}",
                lazy.oracle_calls,
                naive.oracle_calls
            );
        }
    }

    #[test]
    fn shard_partition_covers_ground_set_exactly_once() {
        for shards in [1usize, 2, 4, 8] {
            let partition = shard_partition(37, shards, 5);
            assert_eq!(partition.len(), shards);
            let mut all: Vec<ItemId> = partition.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..37).collect::<Vec<ItemId>>());
        }
    }
}
