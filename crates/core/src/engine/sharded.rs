//! The sharded solve tier: instances too large for one oracle build,
//! represented as per-shard oracles plus a merge phase.
//!
//! A [`ShardedInstance`] holds `p` independent shard oracles — each a
//! type-erased [`DynUtilitySystem`] over only its shard's items (local
//! ids `0..len` mapped to ascending global ids) — and a merge builder
//! that can materialize an oracle over any small global-id subset (the
//! round-2 candidate pool, at most `p·k` items). No single oracle over
//! the full ground set ever exists.
//!
//! [`ShardedInstance::solve_greedi`] runs two-round GreeDi over that
//! representation by stepping the one GreeDi fold of
//! [`crate::algorithms::distributed`] in shard order: round 1 runs
//! greedy on each shard against its own sub-oracle, round 2 on the union
//! candidate pool against the merge oracle, and the final answer is the
//! better of round 2 and the best single shard — the decision rule
//! [`crate::algorithms::distributed::greedi`] steps over a central
//! system. [`ShardedInstance::solve_sieve`] streams the sorted union of
//! all shard members through the same `SieveCore` the centralized
//! solver drives, against the merge oracle over that union.
//!
//! **Determinism invariant (DESIGN.md §8):** when the shard members come
//! from [`shard_partition`] with the same `(n, p, seed)`, and every
//! sub-oracle reports bit-identical per-item gains to the centralized
//! oracle (which holds whenever shards carry the *full user universe*
//! and per-item oracle data is row-separable — true for all three
//! substrates), `solve_greedi` is **bit-identical** to `greedi` on the
//! centralized system: same items, same `f64` bits, same oracle-call
//! counts, at every thread count. `tests/sharded_equivalence.rs`
//! enforces this.
//!
//! [`SubsetSystem`] is the reference sub-oracle: a view of an existing
//! erased system restricted to a member list, forwarding every gain
//! query to the base oracle's rows. It is what the equivalence suite
//! compares real per-shard oracles (coverage over per-shard CSR slices,
//! shard-restricted `RisOracle`s, column-partitioned `FacilityOracle`s)
//! against, and the default shard/merge builder for
//! [`ShardedInstance::from_central`]. The substrate crates provide
//! *owned* restrictions of the same shape (`restrict`/`partition_shards`
//! on each oracle), which plug in through
//! [`ShardedInstance::from_restrictor`].
//!
//! The daemon serves this tier through the engine's own sessions:
//! [`super::session::GreediSession::sharded`] steps one shard per
//! `step()` (then one merge step), and
//! [`super::session::SieveSession::sharded`] streams one union arrival
//! per step. Both own their sharded oracles and *ignore* the system
//! passed to `step`, but evaluate their `solution_at`/`finish` reports
//! against the passed (centralized) system — so a parked daemon session
//! produces a report byte-identical to the centralized solver's.

use std::sync::Arc;

use rayon::prelude::*;

use crate::aggregate::MeanUtility;
use crate::algorithms::distributed::{shard_partition, GreediFold, GreediOutcome};
use crate::algorithms::greedy::{greedy, GreedyConfig, GreedyOutcome, GreedyVariant};
use crate::algorithms::streaming::{SieveConfig, SieveCore, SieveOutcome};
use crate::items::ItemId;
use crate::system::UtilitySystem;

use super::erased::{DynState, DynUtilitySystem, ErasedSystem};
use super::report::SolverError;

/// Checks one shard's member list against the shard-oracle contract:
/// non-empty, strictly ascending (which implies deduplicated), and every
/// id `< n`. Returns [`SolverError::InvalidParams`] (attributed to
/// `solver`) on violation — the shared validation path for the
/// substrate-owned `restrict` implementations, so malformed shard specs
/// are typed rejections everywhere, never panics.
pub fn validate_shard_members(
    solver: &str,
    n: usize,
    members: &[ItemId],
) -> Result<(), SolverError> {
    let invalid = |message: String| SolverError::InvalidParams {
        solver: solver.to_string(),
        message,
    };
    if members.is_empty() {
        return Err(invalid("shard member list must not be empty".into()));
    }
    if !members.windows(2).all(|w| w[0] < w[1]) {
        return Err(invalid(
            "shard members must be strictly ascending (sorted, no duplicates)".into(),
        ));
    }
    if let Some(&bad) = members.iter().find(|&&v| v as usize >= n) {
        return Err(invalid(format!(
            "member id {bad} out of range for a {n}-item ground set"
        )));
    }
    Ok(())
}

/// Checks a full shard partition: at least one shard, every shard valid
/// per [`validate_shard_members`], no id owned by two shards, and the
/// shards jointly covering the whole ground set `0..n`. Typed
/// [`SolverError::InvalidParams`] on violation.
pub fn validate_shard_partition(
    solver: &str,
    n: usize,
    partition: &[Vec<ItemId>],
) -> Result<(), SolverError> {
    let invalid = |message: String| SolverError::InvalidParams {
        solver: solver.to_string(),
        message,
    };
    if partition.is_empty() {
        return Err(invalid("a partition needs at least one shard".into()));
    }
    let mut owner = vec![false; n];
    let mut total = 0usize;
    for (s, members) in partition.iter().enumerate() {
        validate_shard_members(solver, n, members)
            .map_err(|e| invalid(format!("shard {s}: {e}")))?;
        for &v in members {
            if owner[v as usize] {
                return Err(invalid(format!(
                    "item {v} is owned by two shards (overlap at shard {s})"
                )));
            }
            owner[v as usize] = true;
        }
        total += members.len();
    }
    if total != n {
        return Err(invalid(format!(
            "partition covers {total} of {n} items; shards must exactly cover the ground set"
        )));
    }
    Ok(())
}

/// A view of an erased system restricted to a sorted member list:
/// local item `j` is the base system's item `members[j]`, users and
/// groups pass through unchanged.
///
/// Because every query forwards to the base oracle's own rows, gains
/// through a `SubsetSystem` are bit-identical to gains through the base
/// system by construction — which makes it both the reference
/// implementation of the shard-oracle contract and the cheapest way to
/// shard an instance that *does* fit in memory (tests, medium scale).
pub struct SubsetSystem {
    base: Arc<dyn DynUtilitySystem>,
    members: Vec<ItemId>,
}

impl SubsetSystem {
    /// Restricts `base` to `members` (sorted and deduplicated here).
    ///
    /// Returns a typed error if any member id is out of the base
    /// system's range.
    pub fn new(base: Arc<dyn DynUtilitySystem>, members: Vec<ItemId>) -> Result<Self, SolverError> {
        let n = base.dyn_num_items();
        let mut members = members;
        members.sort_unstable();
        members.dedup();
        if let Some(&bad) = members.iter().find(|&&v| v as usize >= n) {
            return Err(SolverError::InvalidParams {
                solver: "SubsetSystem".into(),
                message: format!("member id {bad} out of range for a {n}-item base system"),
            });
        }
        Ok(Self { base, members })
    }

    /// The sorted global ids this view exposes as local ids `0..len`.
    pub fn members(&self) -> &[ItemId] {
        &self.members
    }
}

impl UtilitySystem for SubsetSystem {
    type Inner = DynState;

    fn num_items(&self) -> usize {
        self.members.len()
    }

    fn num_users(&self) -> usize {
        self.base.dyn_num_users()
    }

    fn group_sizes(&self) -> &[usize] {
        self.base.dyn_group_sizes()
    }

    fn init_inner(&self) -> Self::Inner {
        self.base.dyn_init()
    }

    fn group_gains(&self, inner: &Self::Inner, item: ItemId, out: &mut [f64]) {
        self.base
            .dyn_group_gains(inner, self.members[item as usize], out);
    }

    fn group_gains_batch(&self, inner: &Self::Inner, items: &[ItemId], out: &mut [f64]) {
        // Translate to global ids and forward one batch, preserving any
        // parallel override the base substrate installed.
        let globals: Vec<ItemId> = items.iter().map(|&j| self.members[j as usize]).collect();
        self.base.dyn_group_gains_batch(inner, &globals, out);
    }

    fn apply(&self, inner: &mut Self::Inner, item: ItemId) {
        self.base.dyn_apply(inner, self.members[item as usize]);
    }

    fn gain_kernel(&self) -> &'static str {
        self.base.dyn_gain_kernel()
    }

    /// The view pins its base oracle resident, so it reports the base's
    /// footprint plus its own member table — a conservative estimate
    /// when several views share one base (each view counts the base it
    /// keeps alive).
    fn approx_bytes(&self) -> usize {
        self.base.dyn_approx_bytes() + self.members.len() * std::mem::size_of::<ItemId>()
    }
}

/// One shard of a [`ShardedInstance`]: a sub-oracle over exactly the
/// listed members (local id `j` ↔ `members[j]`, members ascending).
pub struct ShardOracle {
    /// Ascending global ids of the shard's items.
    pub members: Vec<ItemId>,
    /// Oracle whose item `j` is global item `members[j]`. Must report
    /// the full user universe (`num_users`, `group_sizes` equal across
    /// shards) so aggregate values stay comparable across shards.
    pub system: Arc<dyn DynUtilitySystem>,
}

/// Builds a merge oracle over an arbitrary ascending global-id subset —
/// the round-2 candidate pool. Receives at most `p·k` ids.
pub type MergeBuilder = Box<dyn Fn(&[ItemId]) -> Arc<dyn DynUtilitySystem> + Send + Sync>;

/// Builds shard `s`'s oracle on demand — for an out-of-core instance,
/// typically by loading a spilled `CsrSlice` back from the scratch dir
/// and constructing the substrate oracle over it. Must be
/// deterministic: the same `(shard, members)` must produce an oracle
/// with bit-identical gains on every call, so reload order can never
/// change a solve.
pub type ShardBuilder =
    Box<dyn Fn(usize, &[ItemId]) -> Result<Arc<dyn DynUtilitySystem>, SolverError> + Send + Sync>;

/// A large instance represented as per-shard oracles plus a merge
/// builder; see the module docs for the determinism contract.
///
/// Every shard oracle is reached through one [`ShardBuilder`]: for
/// [`ShardedInstance::new`] and friends it hands out the resident
/// oracles, for [`ShardedInstance::out_of_core`] it rebuilds each shard
/// from scratch storage when its round-1 step runs (DESIGN.md §11).
pub struct ShardedInstance {
    /// Ascending global ids per shard.
    members: Vec<Vec<ItemId>>,
    build: ShardBuilder,
    merge: MergeBuilder,
}

impl ShardedInstance {
    /// Assembles an instance from prebuilt shards.
    ///
    /// Validates the shard-oracle contract: at least one shard, members
    /// strictly ascending, each sub-oracle sized to its member list, and
    /// a consistent user universe across shards.
    pub fn new(shards: Vec<ShardOracle>, merge: MergeBuilder) -> Result<Self, SolverError> {
        let invalid = |message: String| SolverError::InvalidParams {
            solver: "ShardedInstance".into(),
            message,
        };
        if shards.is_empty() {
            return Err(invalid("at least one shard is required".into()));
        }
        for (i, shard) in shards.iter().enumerate() {
            if !shard.members.windows(2).all(|w| w[0] < w[1]) {
                return Err(invalid(format!(
                    "shard {i} members must be strictly ascending"
                )));
            }
            if shard.system.dyn_num_items() != shard.members.len() {
                return Err(invalid(format!(
                    "shard {i} oracle has {} items for {} members",
                    shard.system.dyn_num_items(),
                    shard.members.len()
                )));
            }
            if shard.system.dyn_num_users() != shards[0].system.dyn_num_users()
                || shard.system.dyn_group_sizes() != shards[0].system.dyn_group_sizes()
            {
                return Err(invalid(format!(
                    "shard {i} reports a different user universe than shard 0"
                )));
            }
        }
        let (members, resident): (Vec<_>, Vec<_>) =
            shards.into_iter().map(|s| (s.members, s.system)).unzip();
        let build: ShardBuilder = Box::new(move |s, _| Ok(Arc::clone(&resident[s])));
        Ok(Self {
            members,
            build,
            merge,
        })
    }

    /// Assembles an **out-of-core** instance: shard oracles are *not*
    /// held resident — each is materialized from `build` when its
    /// round-1 step runs (typically by loading a spilled slice back
    /// from the scratch dir) and dropped as soon as the step finishes.
    ///
    /// Member lists are validated eagerly (non-empty, strictly
    /// ascending); the builder's output is validated lazily at each
    /// materialization (item count must match the member list). Builder
    /// failures surface as typed errors through
    /// [`ShardedInstance::solve_greedi`] and the sharded GreeDi session —
    /// a corrupt scratch dir must never panic a solve.
    pub fn out_of_core(
        members: Vec<Vec<ItemId>>,
        build: ShardBuilder,
        merge: MergeBuilder,
    ) -> Result<Self, SolverError> {
        let invalid = |message: String| SolverError::InvalidParams {
            solver: "ShardedInstance".into(),
            message,
        };
        if members.is_empty() {
            return Err(invalid("at least one shard is required".into()));
        }
        for (i, shard) in members.iter().enumerate() {
            if shard.is_empty() {
                return Err(invalid(format!("shard {i} member list must not be empty")));
            }
            if !shard.windows(2).all(|w| w[0] < w[1]) {
                return Err(invalid(format!(
                    "shard {i} members must be strictly ascending"
                )));
            }
        }
        Ok(Self {
            members,
            build,
            merge,
        })
    }

    /// Materializes shard `s`'s oracle: the resident `Arc`, or a fresh
    /// build from the scratch dir for an out-of-core instance — the
    /// caller drops the returned `Arc` to release the shard, which is
    /// what keeps only one rebuilt shard resident at a time during a
    /// solve.
    pub fn shard_system(&self, s: usize) -> Result<Arc<dyn DynUtilitySystem>, SolverError> {
        let system = (self.build)(s, &self.members[s])?;
        if system.dyn_num_items() != self.members[s].len() {
            return Err(SolverError::InvalidParams {
                solver: "ShardedInstance".into(),
                message: format!(
                    "shard {s} builder produced {} items for {} members",
                    system.dyn_num_items(),
                    self.members[s].len()
                ),
            });
        }
        Ok(system)
    }

    /// Partitions the ground set `0..n` with [`shard_partition`] and
    /// builds every shard oracle through `restrict` — the substrate-
    /// agnostic assembly path. `restrict` receives an ascending member
    /// list and must return an oracle whose local item `j` is global
    /// item `members[j]`; the substrate-owned restrictions
    /// (`RisOracle::restrict`, `FacilityOracle::restrict`,
    /// `CoverageOracle::restrict`) and the [`SubsetSystem`] view all fit
    /// this shape. Shard builds run embarrassingly parallel on the
    /// rayon pool; the same `restrict` then serves as the merge builder.
    pub fn from_restrictor<F>(
        n: usize,
        shards: usize,
        seed: u64,
        restrict: F,
    ) -> Result<Self, SolverError>
    where
        F: Fn(&[ItemId]) -> Result<Arc<dyn DynUtilitySystem>, SolverError> + Send + Sync + 'static,
    {
        // Embarrassingly parallel shard builds: each restriction touches
        // only its own members' rows.
        let shard_oracles = shard_partition(n, shards, seed)
            .into_par_iter()
            .map(|members| {
                let system = restrict(&members)?;
                Ok(ShardOracle { members, system })
            })
            .collect::<Vec<Result<ShardOracle, SolverError>>>()
            .into_iter()
            .collect::<Result<Vec<_>, SolverError>>()?;
        let merge: MergeBuilder =
            Box::new(move |pool| restrict(pool).expect("pool ids come from shard members"));
        Self::new(shard_oracles, merge)
    }

    /// Shards an in-memory erased system with [`shard_partition`] — each
    /// shard and the merge phase become [`SubsetSystem`] views of the
    /// base. The reference path for equivalence tests and for instances
    /// that fit centrally anyway.
    pub fn from_central(
        base: Arc<dyn DynUtilitySystem>,
        shards: usize,
        seed: u64,
    ) -> Result<Self, SolverError> {
        let n = base.dyn_num_items();
        Self::from_restrictor(n, shards, seed, move |members| {
            Ok(Arc::new(SubsetSystem::new(
                Arc::clone(&base),
                members.to_vec(),
            )?))
        })
    }

    /// Number of shards `p`.
    pub fn num_shards(&self) -> usize {
        self.members.len()
    }

    /// Total items across all shards.
    pub fn num_items(&self) -> usize {
        self.members.iter().map(|m| m.len()).sum()
    }

    /// Ascending global ids of shard `s`'s items.
    pub fn shard_members(&self, s: usize) -> &[ItemId] {
        &self.members[s]
    }

    /// The sorted union of all shard members.
    pub fn union_members(&self) -> Vec<ItemId> {
        let mut union: Vec<ItemId> = Vec::with_capacity(self.num_items());
        for members in &self.members {
            union.extend_from_slice(members);
        }
        union.sort_unstable();
        union.dedup();
        union
    }

    /// Materializes the merge oracle over the whole ground set (the
    /// sorted union of all shard members) — what the streaming path
    /// solves against. When the shards partition `0..n`, local ids in
    /// this oracle coincide with global ids.
    pub fn union_system(&self) -> (Vec<ItemId>, Arc<dyn DynUtilitySystem>) {
        let union = self.union_members();
        let system = (self.merge)(&union);
        (union, system)
    }

    /// Two-round GreeDi over the sharded representation; see the module
    /// docs for the bit-identity contract with
    /// [`crate::algorithms::distributed::greedi`].
    ///
    /// Steps the GreeDi fold in shard order, exactly as the sharded
    /// GreeDi session does, so an out-of-core instance holds one rebuilt
    /// shard oracle at a time. A shard build that fails (scratch I/O)
    /// is a typed error, never a panic.
    pub fn solve_greedi(
        &self,
        k: usize,
        variant: GreedyVariant,
    ) -> Result<GreediOutcome, SolverError> {
        let mut fold = GreediFold::new(k, self.num_shards(), &variant);
        while self.step_greedi(&mut fold)? {}
        Ok(fold.into_outcome())
    }

    /// Runs `fold`'s next round on this instance's own oracles: round 1
    /// on the next shard's oracle (materialized for the round, then
    /// dropped), round 2 on a merge oracle over the pool. Returns whether
    /// more rounds remain.
    pub(crate) fn step_greedi(&self, fold: &mut GreediFold) -> Result<bool, SolverError> {
        fold.step(
            |s, cfg| {
                Ok(greedy_mapped(
                    self.shard_system(s)?.as_ref(),
                    cfg,
                    &self.members[s],
                ))
            },
            |pool, cfg| Ok(greedy_mapped((self.merge)(pool).as_ref(), cfg, pool)),
        )
    }

    /// Sieve-Streaming over the sharded representation: streams the
    /// sorted union of shard members through the same `SieveCore` the
    /// centralized solver drives, against the merge oracle over that
    /// union. Because the shards partition `0..n` and the stream visits
    /// items in ascending id order, this is bit-identical to
    /// [`crate::algorithms::streaming::sieve_streaming`] on the
    /// centralized system (items reported as global ids).
    pub fn solve_sieve(&self, cfg: &SieveConfig) -> SieveOutcome {
        let (union, system) = self.union_system();
        let erased = ErasedSystem(system.as_ref());
        let f = MeanUtility::new(system.dyn_num_users());
        let mut core = SieveCore::new(&erased, cfg);
        while !core.done() {
            core.step(&erased, &f);
        }
        let mut run = core.outcome();
        run.items = run.items.iter().map(|&j| union[j as usize]).collect();
        run
    }
}

/// One GreeDi round on an owned oracle whose local item `j` is global
/// item `ids[j]`, reported in global ids.
fn greedy_mapped(
    system: &dyn DynUtilitySystem,
    cfg: &GreedyConfig,
    ids: &[ItemId],
) -> GreedyOutcome {
    let f = MeanUtility::new(system.dyn_num_users());
    let mut run = greedy(&ErasedSystem(system), &f, cfg);
    for item in &mut run.items {
        *item = ids[*item as usize];
    }
    run
}

#[cfg(test)]
mod tests {
    use super::super::params::ScenarioParams;
    use super::super::session::{GreediSession, SieveSession, SolveSession};
    use super::*;
    use crate::algorithms::distributed::{greedi, GreediConfig};
    use crate::algorithms::greedy::{greedy, GreedyConfig};
    use crate::algorithms::streaming::sieve_streaming;
    use crate::toy;

    fn central(seed: u64) -> Arc<dyn DynUtilitySystem> {
        Arc::new(toy::random_coverage(60, 150, 3, 0.08, seed))
    }

    #[test]
    fn subset_system_gains_match_the_base_rows() {
        let base = central(3);
        let members = vec![5u32, 9, 12, 40];
        let sub = SubsetSystem::new(Arc::clone(&base), members.clone()).unwrap();
        let c = base.dyn_num_groups();
        let state = base.dyn_init();
        let sub_state = sub.init_inner();
        let mut through = vec![0.0; c];
        let mut direct = vec![0.0; c];
        for (local, &global) in members.iter().enumerate() {
            sub.group_gains(&sub_state, local as ItemId, &mut through);
            base.dyn_group_gains(&state, global, &mut direct);
            let same = through
                .iter()
                .zip(&direct)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "local {local} / global {global}");
        }
    }

    #[test]
    fn sharded_greedi_is_bit_identical_to_centralized_greedi() {
        for seed in 1..4u64 {
            let base = central(seed);
            for shards in [1usize, 2, 4, 8] {
                let instance = ShardedInstance::from_central(Arc::clone(&base), shards, seed)
                    .expect("valid sharding");
                let sharded = instance
                    .solve_greedi(6, GreedyVariant::Lazy)
                    .expect("resident shards");
                let mut cfg = GreediConfig::new(6);
                cfg.shards = shards;
                cfg.seed = seed;
                let erased = ErasedSystem(base.as_ref());
                let f = MeanUtility::new(base.dyn_num_users());
                let one_shot = greedi(&erased, &f, &cfg).expect("valid config");
                assert_eq!(sharded.items, one_shot.items, "seed {seed} p {shards}");
                assert_eq!(sharded.value.to_bits(), one_shot.value.to_bits());
                assert_eq!(
                    sharded.best_shard_value.to_bits(),
                    one_shot.best_shard_value.to_bits()
                );
                assert_eq!(sharded.oracle_calls, one_shot.oracle_calls);
            }
        }
    }

    #[test]
    fn sharded_sieve_is_bit_identical_to_centralized_sieve() {
        for shards in [1usize, 3, 4] {
            let base = central(11);
            let instance =
                ShardedInstance::from_central(Arc::clone(&base), shards, 11).expect("valid");
            let cfg = SieveConfig::new(6);
            let sharded = instance.solve_sieve(&cfg);
            let erased = ErasedSystem(base.as_ref());
            let f = MeanUtility::new(base.dyn_num_users());
            let central = sieve_streaming(&erased, &f, &cfg).expect("valid config");
            assert_eq!(sharded.items, central.items, "p {shards}");
            assert_eq!(sharded.value.to_bits(), central.value.to_bits());
            assert_eq!(sharded.candidates, central.candidates);
            assert_eq!(sharded.oracle_calls, central.oracle_calls);
        }
    }

    #[test]
    fn single_shard_solve_equals_centralized_greedy_value() {
        let base = central(7);
        let instance = ShardedInstance::from_central(Arc::clone(&base), 1, 0).unwrap();
        let out = instance
            .solve_greedi(5, GreedyVariant::Naive)
            .expect("resident shards");
        let erased = ErasedSystem(base.as_ref());
        let f = MeanUtility::new(base.dyn_num_users());
        let plain = greedy(&erased, &f, &GreedyConfig::naive(5));
        assert_eq!(out.value.to_bits(), plain.value.to_bits());
    }

    #[test]
    fn sharded_sessions_match_one_shot_solves() {
        let base = central(5);
        let instance =
            Arc::new(ShardedInstance::from_central(Arc::clone(&base), 4, 5).expect("valid"));
        let params = {
            let mut p = ScenarioParams::new(6, 0.0);
            p.seed = 5;
            p.shards = 4;
            p
        };

        let mut session = GreediSession::sharded(Arc::clone(&instance), &params);
        assert_eq!(session.rounds(), 0);
        let report = session.finish(base.as_ref()).expect("finishes");
        // One step per shard + one merge step.
        assert_eq!(session.rounds(), 5);
        let one_shot = instance
            .solve_greedi(6, params.variant.clone())
            .expect("resident shards");
        assert_eq!(report.items, one_shot.items);
        assert_eq!(report.objective.to_bits(), one_shot.value.to_bits());
        assert_eq!(report.oracle_calls, one_shot.oracle_calls);

        let mut sieve = SieveSession::sharded(&instance, &params);
        let report = sieve.finish(base.as_ref()).expect("finishes");
        let cfg = SieveConfig {
            k: 6,
            epsilon: params.epsilon,
        };
        let one_shot = instance.solve_sieve(&cfg);
        assert_eq!(report.items, one_shot.items);
        assert_eq!(report.objective.to_bits(), one_shot.value.to_bits());
        assert_eq!(report.oracle_calls, one_shot.oracle_calls);
        // One step per streamed item.
        assert_eq!(sieve.rounds(), instance.num_items());
    }

    #[test]
    fn out_of_core_solve_is_bit_identical_to_in_core() {
        for seed in [2u64, 9] {
            for shards in [2usize, 4] {
                let base = central(seed);
                let in_core = ShardedInstance::from_central(Arc::clone(&base), shards, seed)
                    .expect("valid sharding");
                let members: Vec<Vec<ItemId>> = (0..in_core.num_shards())
                    .map(|s| in_core.shard_members(s).to_vec())
                    .collect();
                let build_base = Arc::clone(&base);
                let build: ShardBuilder = Box::new(move |_s, members| {
                    Ok(Arc::new(SubsetSystem::new(
                        Arc::clone(&build_base),
                        members.to_vec(),
                    )?))
                });
                let merge_base = Arc::clone(&base);
                let merge: MergeBuilder = Box::new(move |pool| {
                    Arc::new(SubsetSystem::new(Arc::clone(&merge_base), pool.to_vec()).unwrap())
                });
                let out_of_core =
                    ShardedInstance::out_of_core(members, build, merge).expect("valid shards");

                let a = in_core
                    .solve_greedi(6, GreedyVariant::Lazy)
                    .expect("resident shards");
                let b = out_of_core
                    .solve_greedi(6, GreedyVariant::Lazy)
                    .expect("builder cannot fail here");
                assert_eq!(a.items, b.items, "seed {seed} p {shards}");
                assert_eq!(a.value.to_bits(), b.value.to_bits());
                assert_eq!(a.best_shard_value.to_bits(), b.best_shard_value.to_bits());
                assert_eq!(a.oracle_calls, b.oracle_calls);

                // The stepped session over the out-of-core instance
                // reaches the same outcome (one rebuild per step).
                let params = {
                    let mut p = ScenarioParams::new(6, 0.0);
                    p.seed = seed;
                    p.shards = shards;
                    p
                };
                let mut session = GreediSession::sharded(Arc::new(out_of_core), &params);
                let report = session.finish(base.as_ref()).expect("finishes");
                assert_eq!(report.items, a.items);
                assert_eq!(report.objective.to_bits(), a.value.to_bits());
                assert_eq!(report.oracle_calls, a.oracle_calls);
            }
        }
    }

    #[test]
    fn out_of_core_builder_failures_are_typed_errors() {
        let base = central(4);
        let instance = ShardedInstance::from_central(Arc::clone(&base), 3, 4).expect("valid");
        let members: Vec<Vec<ItemId>> = (0..instance.num_shards())
            .map(|s| instance.shard_members(s).to_vec())
            .collect();
        let build: ShardBuilder = Box::new(|s, _members| {
            Err(SolverError::InvalidParams {
                solver: "test".into(),
                message: format!("scratch file for shard {s} is corrupt"),
            })
        });
        let merge_base = Arc::clone(&base);
        let merge: MergeBuilder = Box::new(move |pool| {
            Arc::new(SubsetSystem::new(Arc::clone(&merge_base), pool.to_vec()).unwrap())
        });
        let broken = ShardedInstance::out_of_core(members, build, merge).expect("members valid");
        assert!(broken.solve_greedi(4, GreedyVariant::Lazy).is_err());

        // The stepped session surfaces the failure as a typed error
        // through finish(), never a panic.
        let params = {
            let mut p = ScenarioParams::new(4, 0.0);
            p.shards = 3;
            p
        };
        let mut session = GreediSession::sharded(Arc::new(broken), &params);
        let err = session.finish(base.as_ref());
        assert!(err.is_err(), "builder failure must surface from finish()");
        assert!(session.done());
    }

    #[test]
    fn malformed_shards_are_typed_rejections() {
        let base = central(1);
        assert!(SubsetSystem::new(Arc::clone(&base), vec![1000]).is_err());
        let merge_base = Arc::clone(&base);
        let merge: MergeBuilder = Box::new(move |pool| {
            Arc::new(SubsetSystem::new(Arc::clone(&merge_base), pool.to_vec()).unwrap())
        });
        assert!(ShardedInstance::new(Vec::new(), merge).is_err());
        // Unsorted members are rejected.
        let sub = SubsetSystem::new(Arc::clone(&base), vec![0, 1, 2]).unwrap();
        let shard = ShardOracle {
            members: vec![2, 1, 0],
            system: Arc::new(sub),
        };
        let merge_base = Arc::clone(&base);
        let merge: MergeBuilder = Box::new(move |pool| {
            Arc::new(SubsetSystem::new(Arc::clone(&merge_base), pool.to_vec()).unwrap())
        });
        assert!(ShardedInstance::new(vec![shard], merge).is_err());
    }

    #[test]
    fn partition_validation_rejects_each_malformation() {
        let n = 8usize;
        // Valid exact cover passes.
        assert!(validate_shard_partition("t", n, &[vec![0, 2, 4, 6], vec![1, 3, 5, 7]]).is_ok());
        // Empty partition list.
        assert!(validate_shard_partition("t", n, &[]).is_err());
        // Empty shard.
        assert!(validate_shard_partition("t", n, &[(0..8).collect(), vec![]]).is_err());
        // Not ascending.
        assert!(validate_shard_members("t", n, &[3, 1]).is_err());
        // Duplicate inside a shard.
        assert!(validate_shard_members("t", n, &[1, 1, 2]).is_err());
        // Out of range.
        assert!(validate_shard_members("t", n, &[7, 8]).is_err());
        // Overlap across shards.
        assert!(
            validate_shard_partition("t", n, &[vec![0, 1, 2, 3], vec![3, 4, 5, 6, 7]]).is_err()
        );
        // Not an exact cover.
        assert!(validate_shard_partition("t", n, &[vec![0, 1, 2], vec![4, 5, 6, 7]]).is_err());
    }
}
