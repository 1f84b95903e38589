//! The maximum-coverage utility oracle: decremental per-item
//! uncovered-overlap counters over a packed word-parallel kernel.

use fair_submod_core::bitset::{pack_sparse, FixedBitset, WORD_BITS};
use fair_submod_core::engine::{validate_shard_members, validate_shard_partition, SolverError};
use fair_submod_core::items::ItemId;
use fair_submod_core::system::UtilitySystem;
use fair_submod_graphs::Groups;
use rayon::prelude::*;

use crate::set_system::SetSystem;

/// Coverage utility system: `f_u(S) = 1` iff user `u` is covered by the
/// union of the chosen sets (Section 5.1 of the paper).
///
/// Incremental state ([`CoverageInner`]) is a packed per-user coverage
/// bitset **plus per-item uncovered-overlap counters** (DESIGN.md §9):
/// `counts[v·c + g]` tracks how many still-uncovered group-`g` users
/// item `v` would newly cover, so a marginal-gain query is `c` counter
/// reads. `apply` ORs the chosen item's `(word, mask)` pairs into the
/// coverage bitset and decrements the counters of every item containing
/// a newly covered user (via a user → items inverted index built from
/// the same packed bits, so duplicate listings can never
/// double-decrement). Each user is drained exactly once per run.
///
/// The seed `Vec<bool>` element-at-a-time kernel is retained for
/// equivalence tests and benchmarks as
/// [`CoverageOracle::unpacked_reference`]. It reads the raw element
/// lists, not the packed words, so a packing bug cannot hide in both.
#[derive(Clone, Debug)]
pub struct CoverageOracle {
    sets: SetSystem,
    group_of: Vec<u32>,
    group_sizes: Vec<usize>,
    /// CSR over items into `item_words`.
    item_offsets: Vec<usize>,
    /// Sparse `(word, element mask)` pairs per item.
    item_words: Vec<(u32, u64)>,
    /// CSR over users into `user_items`: the items whose element masks
    /// contain each user. Drives the decremental counter updates.
    user_offsets: Vec<usize>,
    user_items: Vec<u32>,
    /// Uncovered-overlap counters at `S = ∅`: `base_counts[v·c + g]` =
    /// group-`g` elements of item `v` (deduplicated, like the masks).
    base_counts: Vec<u32>,
}

impl CoverageOracle {
    /// Builds the oracle from a set system and a group partition of the
    /// element universe.
    ///
    /// # Panics
    /// Panics if the group partition's user count differs from the set
    /// system's element universe.
    pub fn new(sets: SetSystem, groups: &Groups) -> Self {
        assert_eq!(
            sets.num_elements(),
            groups.num_users(),
            "set system universe and group partition disagree"
        );
        let m = sets.num_elements();
        let c = groups.num_groups();
        let group_of = groups.assignment().to_vec();

        let mut item_offsets = Vec::with_capacity(sets.num_sets() + 1);
        let mut item_words: Vec<(u32, u64)> = Vec::new();
        item_offsets.push(0);
        for v in 0..sets.num_sets() {
            item_words.extend(pack_sparse(sets.set(v)));
            item_offsets.push(item_words.len());
        }

        // User → items inverted index and the base counters, both read
        // off the packed masks (not the raw element lists) so duplicate
        // listings contribute exactly one bit, one index entry, and one
        // count — consistent with the word kernels.
        let n = sets.num_sets();
        let mut user_offsets = vec![0usize; m + 1];
        for &(w, mask) in &item_words {
            let base = w as usize * WORD_BITS;
            let mut bits = mask;
            while bits != 0 {
                let u = base + bits.trailing_zeros() as usize;
                user_offsets[u + 1] += 1;
                bits &= bits - 1;
            }
        }
        for u in 0..m {
            user_offsets[u + 1] += user_offsets[u];
        }
        let mut cursor = user_offsets.clone();
        let mut user_items = vec![0u32; *user_offsets.last().expect("m + 1 > 0")];
        let mut base_counts = vec![0u32; n * c];
        for v in 0..n {
            for &(w, mask) in &item_words[item_offsets[v]..item_offsets[v + 1]] {
                let base = w as usize * WORD_BITS;
                let mut bits = mask;
                while bits != 0 {
                    let u = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    user_items[cursor[u]] = v as u32;
                    cursor[u] += 1;
                    base_counts[v * c + group_of[u] as usize] += 1;
                }
            }
        }

        Self {
            sets,
            group_of,
            group_sizes: groups.sizes().to_vec(),
            item_offsets,
            item_words,
            user_offsets,
            user_items,
            base_counts,
        }
    }

    /// The underlying set system.
    pub fn sets(&self) -> &SetSystem {
        &self.sets
    }

    /// Restricts the oracle to an ascending member list: a standalone
    /// shard oracle over only the members' element lists, with the full
    /// element universe and group partition passing through unchanged.
    ///
    /// Every per-item structure (packed masks, inverted-index entries,
    /// base counters) is a pure function of the item's own element list,
    /// so the rebuilt shard rows are bitwise equal to the centralized
    /// rows and gains — integer counter reads — are bit-identical for
    /// every member under any shared apply sequence (DESIGN.md §8).
    /// Malformed member lists are typed rejections, never panics.
    pub fn restrict(&self, members: &[ItemId]) -> Result<CoverageOracle, SolverError> {
        validate_shard_members("CoverageOracle::restrict", self.sets.num_sets(), members)?;
        let member_sets: Vec<Vec<u32>> = members
            .iter()
            .map(|&v| self.sets.set(v as usize).to_vec())
            .collect();
        let sets = SetSystem::new(member_sets, self.sets.num_elements());
        Ok(CoverageOracle::new(
            sets,
            &Groups::from_assignment(self.group_of.clone()),
        ))
    }

    /// Restricts the oracle to every shard of an exact partition of the
    /// ground set, building the shard oracles in parallel on the rayon
    /// pool. Empty, overlapping, unsorted, or out-of-range partitions
    /// are typed [`SolverError::InvalidParams`] rejections.
    pub fn partition_shards(
        &self,
        partition: &[Vec<ItemId>],
    ) -> Result<Vec<CoverageOracle>, SolverError> {
        validate_shard_partition(
            "CoverageOracle::partition_shards",
            self.sets.num_sets(),
            partition,
        )?;
        partition
            .iter()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|members| self.restrict(members))
            .collect::<Vec<Result<CoverageOracle, SolverError>>>()
            .into_iter()
            .collect()
    }

    /// The element-at-a-time `Vec<bool>` kernel over the same instance —
    /// the pre-bitset implementation, kept as the equivalence and
    /// benchmark reference.
    pub fn unpacked_reference(&self) -> UnpackedCoverageOracle {
        UnpackedCoverageOracle {
            sets: self.sets.clone(),
            group_of: self.group_of.clone(),
            group_sizes: self.group_sizes.clone(),
        }
    }

    #[inline]
    fn words_of(&self, item: usize) -> &[(u32, u64)] {
        &self.item_words[self.item_offsets[item]..self.item_offsets[item + 1]]
    }
}

/// Incremental evaluation state of [`CoverageOracle`]: the packed
/// covered bitset plus the live uncovered-overlap counters.
#[derive(Clone, Debug)]
pub struct CoverageInner {
    /// Packed covered flag per user.
    covered: FixedBitset,
    /// `counts[v·c + g]` = uncovered group-`g` users item `v` covers.
    counts: Vec<u32>,
}

impl UtilitySystem for CoverageOracle {
    type Inner = CoverageInner;

    fn num_items(&self) -> usize {
        self.sets.num_sets()
    }

    fn num_users(&self) -> usize {
        self.sets.num_elements()
    }

    fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    fn init_inner(&self) -> Self::Inner {
        CoverageInner {
            covered: FixedBitset::zeros(self.sets.num_elements()),
            counts: self.base_counts.clone(),
        }
    }

    /// Counter read: `c` loads per query. Coverage gains are exact
    /// integers, so this is trivially bit-identical to the unpacked
    /// reference kernel.
    fn group_gains(&self, inner: &Self::Inner, item: ItemId, out: &mut [f64]) {
        let c = self.group_sizes.len();
        let row = &inner.counts[item as usize * c..item as usize * c + c];
        for (o, &cnt) in out.iter_mut().zip(row) {
            *o = cnt as f64;
        }
    }

    fn group_gains_batch(&self, inner: &Self::Inner, items: &[ItemId], out: &mut [f64]) {
        fair_submod_core::system::parallel_group_gains(self, inner, items, out);
    }

    /// Decremental maintenance: OR the item's masks into the coverage
    /// bitset, then walk only the **newly** covered users and decrement
    /// the counters of every item containing them. Each user is drained
    /// at most once per run, so total apply work is bounded by the
    /// inverted index size.
    fn apply(&self, inner: &mut Self::Inner, item: ItemId) {
        let c = self.group_sizes.len();
        let covered = inner.covered.words_mut();
        for &(w, mask) in self.words_of(item as usize) {
            let new = mask & !covered[w as usize];
            if new == 0 {
                continue;
            }
            covered[w as usize] |= mask;
            let base = w as usize * WORD_BITS;
            let mut bits = new;
            while bits != 0 {
                let u = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = self.group_of[u] as usize;
                for &t in &self.user_items[self.user_offsets[u]..self.user_offsets[u + 1]] {
                    inner.counts[t as usize * c + g] -= 1;
                }
            }
        }
    }

    fn gain_kernel(&self) -> &'static str {
        "incremental_counters"
    }

    /// Advisory footprint for the byte-budgeted instance store
    /// (DESIGN.md §11): the set-system CSR plus every derived structure
    /// (packed masks, inverted index, base counters).
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sets.approx_bytes()
            + self.group_of.len() * size_of::<u32>()
            + self.group_sizes.len() * size_of::<usize>()
            + self.item_offsets.len() * size_of::<usize>()
            + self.item_words.len() * size_of::<(u32, u64)>()
            + self.user_offsets.len() * size_of::<usize>()
            + self.user_items.len() * size_of::<u32>()
            + self.base_counts.len() * size_of::<u32>()
    }
}

/// The seed `Vec<bool>` coverage kernel: one byte per user, one branch
/// per element. Semantically identical to [`CoverageOracle`] (both count
/// newly covered users per group as exact integers); kept so equivalence
/// tests and `perfbase` can pit the packed kernel against it.
#[derive(Clone, Debug)]
pub struct UnpackedCoverageOracle {
    sets: SetSystem,
    group_of: Vec<u32>,
    group_sizes: Vec<usize>,
}

impl UtilitySystem for UnpackedCoverageOracle {
    type Inner = Vec<bool>;

    fn num_items(&self) -> usize {
        self.sets.num_sets()
    }

    fn num_users(&self) -> usize {
        self.sets.num_elements()
    }

    fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    fn init_inner(&self) -> Self::Inner {
        vec![false; self.sets.num_elements()]
    }

    fn group_gains(&self, inner: &Self::Inner, item: ItemId, out: &mut [f64]) {
        out.fill(0.0);
        for &u in self.sets.set(item as usize) {
            if !inner[u as usize] {
                out[self.group_of[u as usize] as usize] += 1.0;
            }
        }
    }

    fn apply(&self, inner: &mut Self::Inner, item: ItemId) {
        for &u in self.sets.set(item as usize) {
            inner[u as usize] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_submod_core::metrics::evaluate;
    use fair_submod_core::system::{SolutionState, SystemExt};

    fn figure1_oracle() -> CoverageOracle {
        let sets = SetSystem::new(
            vec![
                vec![0, 1, 2, 3, 4],
                vec![5, 6, 7, 8],
                vec![5, 8, 9],
                vec![10, 11],
            ],
            12,
        );
        let mut assignment = vec![0u32; 12];
        for g in assignment.iter_mut().skip(9) {
            *g = 1;
        }
        CoverageOracle::new(sets, &Groups::from_assignment(assignment))
    }

    #[test]
    fn restricted_oracle_matches_central_gains_bitwise() {
        let oracle = figure1_oracle();
        let members: Vec<u32> = vec![0, 2, 3];
        let shard = oracle.restrict(&members).expect("valid members");
        assert_eq!(shard.num_items(), 3);
        assert_eq!(shard.num_users(), oracle.num_users());
        assert_eq!(shard.group_sizes(), oracle.group_sizes());
        let mut central = SolutionState::new(&oracle);
        let mut restricted = SolutionState::new(&shard);
        let c = oracle.num_groups();
        let mut through = vec![0.0; c];
        let mut direct = vec![0.0; c];
        for &pick in &[1u32, 0] {
            for (local, &global) in members.iter().enumerate() {
                restricted.gains_into(local as u32, &mut through);
                central.gains_into(global, &mut direct);
                for g in 0..c {
                    assert_eq!(through[g].to_bits(), direct[g].to_bits(), "member {global}");
                }
            }
            restricted.insert(pick);
            central.insert(members[pick as usize]);
            assert_eq!(restricted.group_sums(), central.group_sums());
        }
    }

    #[test]
    fn partition_shards_rejects_malformed_partitions() {
        let oracle = figure1_oracle();
        assert!(oracle.partition_shards(&[]).is_err());
        assert!(oracle
            .partition_shards(&[vec![0, 1, 2, 3], vec![]])
            .is_err());
        assert!(oracle
            .partition_shards(&[vec![0, 1], vec![1, 2, 3]])
            .is_err());
        assert!(oracle.partition_shards(&[vec![0, 1, 2], vec![4]]).is_err());
        assert!(oracle.partition_shards(&[vec![0, 1]]).is_err());
        assert!(oracle.restrict(&[]).is_err());
        assert!(oracle.restrict(&[2, 0]).is_err());
        let shards = oracle
            .partition_shards(&[vec![0, 3], vec![1, 2]])
            .expect("valid partition");
        assert_eq!(shards.len(), 2);
    }

    #[test]
    fn matches_paper_figure1_numbers() {
        let oracle = figure1_oracle();
        assert!((oracle.eval_f(&[0, 1]) - 0.75).abs() < 1e-12);
        assert!((oracle.eval_g(&[0, 3]) - 5.0 / 9.0).abs() < 1e-12);
        let e = evaluate(&oracle, &[0, 2]);
        assert!((e.f - 8.0 / 12.0).abs() < 1e-12);
        assert!((e.g - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gains_shrink_with_larger_solutions_submodularity() {
        let oracle = figure1_oracle();
        let mut small = SolutionState::new(&oracle);
        let mut big = SolutionState::new(&oracle);
        big.insert(1); // {v2} ⊂ every superset
        let mut gs = [0.0; 2];
        let mut gb = [0.0; 2];
        for v in 0..4 {
            small.gains_into(v, &mut gs);
            big.gains_into(v, &mut gb);
            for i in 0..2 {
                assert!(gs[i] + 1e-12 >= gb[i], "item {v}, group {i}");
            }
        }
    }

    #[test]
    fn coverage_is_monotone_and_capped() {
        let oracle = figure1_oracle();
        let all: Vec<u32> = (0..4).collect();
        let e = evaluate(&oracle, &all);
        assert!((e.f - 1.0).abs() < 1e-12);
        assert!((e.g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_unpacked_reference() {
        let oracle = figure1_oracle();
        let reference = oracle.unpacked_reference();
        let mut gp = [0.0; 2];
        let mut gq = [0.0; 2];
        for order in [[1u32, 3, 0, 2], [2, 0, 3, 1]] {
            let mut packed = SolutionState::new(&oracle);
            let mut plain = SolutionState::new(&reference);
            for step in order {
                for v in 0..4u32 {
                    packed.gains_into(v, &mut gp);
                    plain.gains_into(v, &mut gq);
                    assert_eq!(
                        gp.map(f64::to_bits),
                        gq.map(f64::to_bits),
                        "order {order:?}, item {v}"
                    );
                }
                packed.insert(step);
                plain.insert(step);
                assert_eq!(packed.group_sums(), plain.group_sums());
            }
        }
    }

    #[test]
    fn overlapping_sets_drain_each_user_once() {
        // Items 0 and 1 share users 5 and 8: applying one must drop the
        // other's counters for exactly the shared users, and re-applying
        // must change nothing.
        let oracle = figure1_oracle();
        let mut inner = oracle.init_inner();
        let mut out = [0.0; 2];
        oracle.apply(&mut inner, 2); // covers {5, 8, 9}
        oracle.group_gains(&inner, 1, &mut out); // {5,6,7,8} minus {5,8}
        assert_eq!(out, [2.0, 0.0]);
        let snapshot = inner.counts.clone();
        oracle.apply(&mut inner, 2);
        assert_eq!(inner.counts, snapshot);
    }
}
