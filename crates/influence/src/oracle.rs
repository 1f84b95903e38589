//! The group-aware RIS (reverse influence sampling) oracle.
//!
//! [`RisOracle`] materializes a stratified collection of RR sets — at
//! least [`RisConfig::min_per_group`] per group, the rest allocated
//! proportionally to group sizes — and exposes the induced weighted
//! coverage problem as a [`UtilitySystem`]:
//!
//! * group sum estimate: `σ_i(S) = m_i · (covered group-i RR sets)/r_i`,
//!   an unbiased estimator of `Σ_{u∈U_i} P_u(S)`;
//! * marginal gains from **per-item uncovered-coverage counters**
//!   maintained decrementally (DESIGN.md §9): `Δ_i(v|S) = w_i ·
//!   #{uncovered group-i RR sets containing v}`, so a gain query is `c`
//!   counter reads and an `apply` touches only the nodes of the RR sets
//!   it newly covers — each RR set is drained exactly once per run,
//!   making a full greedy round loop near-linear in the arena size
//!   instead of rescan-quadratic. [`RisOracle::rescan_reference`] keeps
//!   the index-scanning kernel for equivalence tests and `perfbase`;
//! * one **flat arena** (DESIGN.md §11): every RR set's node list, in
//!   sampling order, in one shared `u32` buffer with offsets, so an
//!   `apply` drains a set as a plain slice walk.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use fair_submod_core::bitset::FixedBitset;
use fair_submod_core::engine::{validate_shard_members, validate_shard_partition, SolverError};
use fair_submod_core::items::ItemId;
use fair_submod_core::system::UtilitySystem;
use fair_submod_graphs::csr::NodeId;
use fair_submod_graphs::{CsrSlice, Graph, Groups};

use crate::models::{DiffusionModel, EdgeWeighting};
use crate::rr::{sample_rr_into, sample_rr_masked_into, RrInMasks, RrScratch};

/// RR-sampling configuration.
#[derive(Clone, Debug)]
pub struct RisConfig {
    /// Total number of RR sets (before per-group floors).
    pub num_rr: usize,
    /// Minimum RR sets per group (stratification floor).
    pub min_per_group: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl RisConfig {
    /// A sensible default: `num_rr` total, floor 50 per group.
    pub fn new(num_rr: usize, seed: u64) -> Self {
        Self {
            num_rr,
            min_per_group: 50,
            seed,
        }
    }
}

/// Per-RR-set RNG seed: a SplitMix64-style mix of the oracle seed and
/// the RR index, so set `i` samples from its own stream regardless of
/// which worker thread draws it.
fn rr_stream_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flat RR-set arena (DESIGN.md §11): set `i`'s nodes are
/// `nodes[offsets[i]..offsets[i + 1]]`, in sampling order. Order inside
/// a set is never observed: the index build files each node under the
/// set's id, and [`RisOracle::apply`] decrements one counter per node,
/// and decrements commute.
#[derive(Debug, PartialEq, Eq)]
struct RrArena {
    /// `num_sets + 1` span boundaries, seeded with 0.
    offsets: Vec<usize>,
    nodes: Vec<u32>,
}

impl RrArena {
    #[inline]
    fn set(&self, rr: usize) -> &[u32] {
        &self.nodes[self.offsets[rr]..self.offsets[rr + 1]]
    }
}

/// Weighted RR-set coverage oracle for group-fair influence maximization.
#[derive(Clone, Debug)]
pub struct RisOracle {
    n: usize,
    m: usize,
    group_sizes: Vec<usize>,
    /// Group of each RR set's root. Shared (not cloned) across every
    /// shard restriction — RR ids stay global, so one copy serves all.
    rr_group: Arc<[u32]>,
    /// `m_i / r_i` per group: converting covered counts to group sums.
    weight: Vec<f64>,
    /// Flat RR-set arena (DESIGN.md §11). Shared behind an `Arc` with
    /// every restricted view.
    arena: Arc<RrArena>,
    /// Inverted index: CSR of node → RR-set ids containing it. Shared
    /// with every restricted view.
    idx_offsets: Arc<Vec<usize>>,
    idx_rr: Arc<Vec<u32>>,
    /// Uncovered-coverage counters at `S = ∅`: `base_counts[v·c + g]` =
    /// number of group-`g` RR sets containing node `v`. Shared with
    /// every restricted view; [`RisOracle::init_inner`] copies out the
    /// rows a solve actually owns.
    base_counts: Arc<Vec<u32>>,
    num_rr: usize,
    /// `Some(members)` marks this oracle as a zero-copy restriction
    /// (DESIGN.md §8): local item `j` is central item `members[j]`
    /// (ascending), and the arena/index/counters above belong to the
    /// root oracle. `None` for the root itself.
    members: Option<Arc<Vec<ItemId>>>,
}

/// Wall-clock split of [`RisOracle::generate_profiled`]: where oracle
/// construction spends its time.
#[derive(Clone, Copy, Debug, Default)]
pub struct RisBuildPhases {
    /// RR-set sampling (the parallel reverse-BFS sweep).
    pub sample_seconds: f64,
    /// Arena splice + inverted-index + base-counter construction.
    pub index_seconds: f64,
    /// Always 0.0: the arena is stored as sampled, with no encoding
    /// pass. Kept so traced runs that report it keep their shape.
    pub compress_seconds: f64,
}

impl RisOracle {
    /// Samples RR sets under `model` with roots stratified by `groups`.
    pub fn generate(
        graph: &Graph,
        model: DiffusionModel,
        groups: &Groups,
        cfg: &RisConfig,
    ) -> Self {
        Self::generate_profiled(graph, model, groups, cfg).0
    }

    /// [`RisOracle::generate`] with per-phase wall-clock timings, the
    /// measurement hook behind `perfbase --profile`.
    pub fn generate_profiled(
        graph: &Graph,
        model: DiffusionModel,
        groups: &Groups,
        cfg: &RisConfig,
    ) -> (Self, RisBuildPhases) {
        assert_eq!(graph.num_nodes(), groups.num_users());
        let n = graph.num_nodes();
        let m = groups.num_users();
        let c = groups.num_groups();
        let sizes = groups.sizes().to_vec();

        // Per-group allocation: proportional with a floor.
        let alloc: Vec<usize> = sizes
            .iter()
            .map(|&mi| {
                let prop = (cfg.num_rr as f64 * mi as f64 / m as f64).round() as usize;
                prop.max(cfg.min_per_group).max(1)
            })
            .collect();

        // Users bucketed per group for root sampling.
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); c];
        for u in 0..m {
            members[groups.group_of(u) as usize].push(u as NodeId);
        }

        let total_rr: usize = alloc.iter().sum();
        let mut rr_group: Vec<u32> = Vec::with_capacity(total_rr);
        for (gi, &count) in alloc.iter().enumerate() {
            rr_group.extend(std::iter::repeat(gi as u32).take(count));
        }

        // Sample RR sets batched across worker threads. Each RR set `i`
        // derives its own RNG from `(seed, i)` — never from a shared
        // sequential stream — so the sample is identical for any thread
        // count; chunk boundaries depend only on `total_rr`, and the
        // ordered collect reassembles sets in RR-id order. One
        // `RrScratch` (an `n`-sized visited buffer) and one node arena
        // live per in-flight chunk — created and dropped inside the task
        // — so each worker appends every sampled set into a single
        // growing buffer instead of allocating a `Vec` per RR set, and
        // peak scratch memory scales with the worker count, not the
        // chunk count.
        let t0 = Instant::now();
        // Small uniform-`p` IC graphs get the mask-accelerated sampler
        // (same RNG stream, same sets — see `sample_rr_masked_into`);
        // the shared read-only mask table is built once, outside the
        // parallel loop.
        let masks = RrInMasks::applies(graph, model).then(|| RrInMasks::build(graph));
        let uniform_p = match model {
            DiffusionModel::IndependentCascade(EdgeWeighting::Uniform(p)) => p,
            _ => 0.0,
        };
        let ids: Vec<u32> = (0..total_rr as u32).collect();
        let chunk_size = total_rr.div_ceil(64).max(1);
        let sampled: Vec<(Vec<NodeId>, Vec<u32>)> = ids
            .par_chunks(chunk_size)
            .map(|chunk| {
                let mut scratch = RrScratch::new(n);
                let mut arena: Vec<NodeId> = Vec::with_capacity(chunk.len() * 8);
                let mut lens: Vec<u32> = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let mut rng = StdRng::seed_from_u64(rr_stream_seed(cfg.seed, i as usize));
                    let bucket = &members[rr_group[i as usize] as usize];
                    let root = bucket[rng.gen_range(0..bucket.len())];
                    let len = match &masks {
                        Some(m) => sample_rr_masked_into(
                            m,
                            uniform_p,
                            root,
                            &mut rng,
                            &mut scratch,
                            &mut arena,
                        ),
                        None => {
                            sample_rr_into(graph, model, root, &mut rng, &mut scratch, &mut arena)
                        }
                    };
                    lens.push(len as u32);
                }
                (arena, lens)
            })
            .collect();
        let sample_seconds = t0.elapsed().as_secs_f64();

        // Splice the per-chunk arenas (already in RR-id order) into the
        // oracle's flat arena, then invert it into the node → RR-set
        // index by counting sort — no per-pair materialization: the
        // counting pass reads the arena directly.
        let t1 = Instant::now();
        let total_nodes: usize = sampled.iter().map(|(a, _)| a.len()).sum();
        let mut arena = RrArena {
            offsets: Vec::with_capacity(total_rr + 1),
            nodes: Vec::with_capacity(total_nodes),
        };
        arena.offsets.push(0);
        for (chunk, lens) in &sampled {
            arena.nodes.extend_from_slice(chunk);
            for &len in lens {
                let last = *arena.offsets.last().expect("seeded with 0");
                arena.offsets.push(last + len as usize);
            }
        }
        drop(sampled);

        let mut idx_offsets = vec![0usize; n + 1];
        for &node in &arena.nodes {
            idx_offsets[node as usize + 1] += 1;
        }
        for i in 0..n {
            idx_offsets[i + 1] += idx_offsets[i];
        }
        let mut cursor = idx_offsets.clone();
        let mut idx_rr = vec![0u32; arena.nodes.len()];
        let mut base_counts = vec![0u32; n * c];
        for rr_id in 0..total_rr {
            let gi = rr_group[rr_id] as usize;
            for &node in arena.set(rr_id) {
                idx_rr[cursor[node as usize]] = rr_id as u32;
                cursor[node as usize] += 1;
                base_counts[node as usize * c + gi] += 1;
            }
        }
        let index_seconds = t1.elapsed().as_secs_f64();

        let weight = sizes
            .iter()
            .zip(&alloc)
            .map(|(&mi, &ri)| mi as f64 / ri as f64)
            .collect();

        (
            Self {
                n,
                m,
                group_sizes: sizes,
                rr_group: rr_group.into(),
                weight,
                arena: Arc::new(arena),
                idx_offsets: Arc::new(idx_offsets),
                idx_rr: Arc::new(idx_rr),
                base_counts: Arc::new(base_counts),
                num_rr: total_rr,
                members: None,
            },
            RisBuildPhases {
                sample_seconds,
                index_seconds,
                compress_seconds: 0.0,
            },
        )
    }

    /// [`RisOracle::generate`] from per-shard CSR slices instead of a
    /// resident [`Graph`] — the slice-backed build path of the sharded
    /// tier. Reverse-reachable sampling walks *in*-neighbors across
    /// shard boundaries, so the slices (which jointly carry every
    /// adjacency row) are first reassembled via [`Graph::from_slices`];
    /// because slice rows are bitwise equal to the rows of the graph
    /// they were cut from, the reassembled CSR — and therefore every RR
    /// set, sampled from its own per-index seeded stream — is
    /// bit-identical to a build from the original graph.
    pub fn generate_from_slices(
        slices: &[CsrSlice],
        num_nodes: usize,
        directed: bool,
        model: DiffusionModel,
        groups: &Groups,
        cfg: &RisConfig,
    ) -> Self {
        let graph = Graph::from_slices(slices, num_nodes, directed);
        Self::generate(&graph, model, groups, cfg)
    }

    /// Restricts the oracle to an ascending member list, producing a
    /// zero-copy shard **view** whose local item `j` is central item
    /// `members[j]`: the RR-set arena, inverted index, and base
    /// counters stay shared behind `Arc`s (RR-set ids are global, so
    /// covered-set semantics are shared across shards), and only the
    /// member list itself is materialized. A restrict therefore costs
    /// O(|members|) time and memory — never O(n) or O(num_rr) — which
    /// is what keeps shard fan-out cheaper than a centralized solve.
    ///
    /// This is the DESIGN.md §8 row-separability construction for RIS:
    /// a gain query reads only the member's own counter row (gathered
    /// into the view's [`RisInner`] at `init_inner`), and an `apply`
    /// drains globally-id'd RR sets, decrementing member rows only —
    /// non-members are filtered by binary search over the ascending
    /// member list, and since decrements commute the filtering is
    /// unobservable to any member gain. Restricted gains are therefore
    /// **bit-identical** to centralized gains for every member under
    /// any shared apply sequence. Malformed member lists (empty,
    /// unsorted, duplicated, out of range) are typed rejections, never
    /// panics; the row-separability invariant itself — counter rows
    /// consistent with each member's index degree — is structural
    /// (both sides are built by the same counting pass over the
    /// sample) and is asserted in debug builds. Restricting a view
    /// composes the member lists, so the result always chains directly
    /// to the root oracle.
    pub fn restrict(&self, members: &[ItemId]) -> Result<RisOracle, SolverError> {
        validate_shard_members("RisOracle::restrict", self.n, members)?;
        // Compose through an existing view: local ids chain to central
        // ids (ascending in, ascending out — `members` is ascending and
        // so is the view's own list).
        let central: Vec<ItemId> = match &self.members {
            None => members.to_vec(),
            Some(own) => members.iter().map(|&j| own[j as usize]).collect(),
        };
        // §8 row-separability invariant: each member's counter row must
        // total exactly its inverted-index degree — the structural fact
        // that makes shard gains a verbatim read of central rows. Both
        // sides come from the same counting pass in `generate`, so this
        // is a debug assertion rather than a release-path scan, keeping
        // a release restrict a pure O(|members|) id translation.
        #[cfg(debug_assertions)]
        {
            let c = self.weight.len();
            for &v in &central {
                let v = v as usize;
                let degree = self.idx_offsets[v + 1] - self.idx_offsets[v];
                let total: u32 = self.base_counts[v * c..(v + 1) * c].iter().sum();
                debug_assert_eq!(
                    total as usize, degree,
                    "row-separability violated at member {v}"
                );
            }
        }
        Ok(RisOracle {
            n: members.len(),
            m: self.m,
            group_sizes: self.group_sizes.clone(),
            rr_group: Arc::clone(&self.rr_group),
            weight: self.weight.clone(),
            arena: Arc::clone(&self.arena),
            idx_offsets: Arc::clone(&self.idx_offsets),
            idx_rr: Arc::clone(&self.idx_rr),
            base_counts: Arc::clone(&self.base_counts),
            num_rr: self.num_rr,
            members: Some(Arc::new(central)),
        })
    }

    /// Restricts the oracle to every shard of an exact partition of the
    /// ground set, building the shard oracles in parallel on the rayon
    /// pool. Empty, overlapping, unsorted, or out-of-range partitions
    /// are typed [`SolverError::InvalidParams`] rejections.
    pub fn partition_shards(
        &self,
        partition: &[Vec<ItemId>],
    ) -> Result<Vec<RisOracle>, SolverError> {
        validate_shard_partition("RisOracle::partition_shards", self.n, partition)?;
        partition
            .iter()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|members| self.restrict(members))
            .collect::<Vec<Result<RisOracle, SolverError>>>()
            .into_iter()
            .collect()
    }

    /// Number of materialized RR sets.
    pub fn num_rr_sets(&self) -> usize {
        self.num_rr
    }

    /// Total nodes across all RR sets (the arena length). A restricted
    /// view counts its members' incidences only, so the shard lengths
    /// of an exact partition sum to the central length.
    pub fn arena_len(&self) -> usize {
        match &self.members {
            None => self.arena.nodes.len(),
            Some(ms) => ms
                .iter()
                .map(|&v| self.idx_offsets[v as usize + 1] - self.idx_offsets[v as usize])
                .sum(),
        }
    }

    /// Size of the arena's node payload in bytes: 4 per node, so
    /// `4 · arena_len()` for the root oracle; views report the shared
    /// payload they pin, not a per-shard cut.
    pub fn arena_bytes(&self) -> usize {
        self.arena.nodes.len() * 4
    }

    /// Approximate resident footprint of the oracle in bytes: the
    /// RR-set arena, the inverted index, the base counters, and the
    /// per-set/per-group metadata. Drives the service's byte-budgeted
    /// instance store (DESIGN.md §11). A restricted view counts the
    /// shared structures it keeps alive in full — deliberately
    /// conservative for budgeting, since dropping the view may or may
    /// not free them.
    pub fn approx_bytes(&self) -> usize {
        let usz = std::mem::size_of::<usize>();
        self.arena_bytes()
            + self.arena.offsets.len() * usz
            + self.idx_offsets.len() * usz
            + self.idx_rr.len() * 4
            + self.base_counts.len() * 4
            + self.rr_group.len() * 4
            + (self.weight.len() + self.group_sizes.len()) * 8
            + self.members.as_ref().map_or(0, |ms| ms.len() * 4)
    }

    /// Central id of local item `j` (identity for the root oracle).
    #[inline]
    fn central_of(&self, j: usize) -> usize {
        match &self.members {
            None => j,
            Some(ms) => ms[j] as usize,
        }
    }

    /// RR sets containing local item `item` (its central row).
    #[inline]
    fn rr_of(&self, item: usize) -> &[u32] {
        let v = self.central_of(item);
        &self.idx_rr[self.idx_offsets[v]..self.idx_offsets[v + 1]]
    }

    /// Estimated overall spread (expected influenced users) of `items`.
    pub fn estimated_spread(&self, items: &[ItemId]) -> f64 {
        let eval = fair_submod_core::metrics::evaluate(self, items);
        eval.f * self.m as f64
    }

    /// The index-scanning kernel over the same RR sample: every gain
    /// query walks the item's inverted-index slice instead of reading
    /// counters. Bit-identical to the incremental oracle (both compute
    /// count-then-multiply per group) and kept as the "before" side of
    /// the `ris_incremental_vs_rescan` perfbase scenario and the
    /// incremental-equivalence property tests.
    pub fn rescan_reference(&self) -> RisRescanOracle {
        RisRescanOracle(self.clone())
    }
}

/// Incremental evaluation state of [`RisOracle`]: which RR sets are
/// covered, plus the live uncovered-coverage counters (DESIGN.md §9).
#[derive(Clone, Debug)]
pub struct RisInner {
    /// Covered flag per RR set.
    covered: FixedBitset,
    /// `counts[v·c + g]` = uncovered group-`g` RR sets containing `v`.
    counts: Vec<u32>,
}

impl UtilitySystem for RisOracle {
    type Inner = RisInner;

    fn num_items(&self) -> usize {
        self.n
    }

    fn num_users(&self) -> usize {
        self.m
    }

    fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    fn init_inner(&self) -> Self::Inner {
        // A view gathers just its members' counter rows — the solve's
        // mutable state is O(members · groups), never O(n · groups).
        let counts = match &self.members {
            None => (*self.base_counts).clone(),
            Some(ms) => {
                let c = self.weight.len();
                let mut counts = Vec::with_capacity(ms.len() * c);
                for &v in ms.iter() {
                    let v = v as usize;
                    counts.extend_from_slice(&self.base_counts[v * c..(v + 1) * c]);
                }
                counts
            }
        };
        RisInner {
            covered: FixedBitset::zeros(self.num_rr),
            counts,
        }
    }

    /// Counter read: `c` loads and one multiply per group. The product
    /// `(count as f64) · w_g` is exactly what the rescan kernel computes
    /// (it accumulates the integer count in `f64` — exact below 2^53 —
    /// then multiplies once), so both kernels agree bit for bit. Batches
    /// take the trait's sequential `group_gains_batch`: a row this cheap
    /// costs less than handing it to another thread.
    fn group_gains(&self, inner: &Self::Inner, item: ItemId, out: &mut [f64]) {
        let c = self.weight.len();
        let row = &inner.counts[item as usize * c..item as usize * c + c];
        for ((o, &cnt), &w) in out.iter_mut().zip(row).zip(&self.weight) {
            *o = cnt as f64 * w;
        }
    }

    /// Decremental maintenance: for each RR set this item newly covers,
    /// mark it covered and decrement the counter of every node in its
    /// arena slice. Each RR set is drained at most once per run, so the
    /// total apply work over a whole greedy run is bounded by the arena
    /// size — gains stay exact without ever rescanning, and the order
    /// inside a set is unobservable because the decrements commute. A
    /// restricted view decrements member rows only: central node ids
    /// are filtered and remapped to local rows by binary search over
    /// the ascending member list, which changes nothing any member gain
    /// can observe (non-member rows don't exist in the view's counters).
    fn apply(&self, inner: &mut Self::Inner, item: ItemId) {
        let c = self.weight.len();
        let RisInner { covered, counts } = inner;
        for &rr in self.rr_of(item as usize) {
            if !covered.contains(rr as usize) {
                covered.insert(rr as usize);
                let gi = self.rr_group[rr as usize] as usize;
                let set = self.arena.set(rr as usize);
                match &self.members {
                    None => {
                        for &node in set {
                            counts[node as usize * c + gi] -= 1;
                        }
                    }
                    Some(ms) => {
                        for node in set {
                            if let Ok(local) = ms.binary_search(node) {
                                counts[local * c + gi] -= 1;
                            }
                        }
                    }
                }
            }
        }
    }

    fn gain_kernel(&self) -> &'static str {
        "incremental_counters"
    }

    fn approx_bytes(&self) -> usize {
        RisOracle::approx_bytes(self)
    }
}

/// The pre-incremental [`RisOracle`] kernel: rescan-per-query over the
/// inverted index. See [`RisOracle::rescan_reference`].
#[derive(Clone, Debug)]
pub struct RisRescanOracle(RisOracle);

impl UtilitySystem for RisRescanOracle {
    /// Covered flag per RR set (no counters to maintain).
    type Inner = FixedBitset;

    fn num_items(&self) -> usize {
        self.0.n
    }

    fn num_users(&self) -> usize {
        self.0.m
    }

    fn group_sizes(&self) -> &[usize] {
        &self.0.group_sizes
    }

    fn init_inner(&self) -> Self::Inner {
        FixedBitset::zeros(self.0.num_rr)
    }

    fn group_gains(&self, inner: &Self::Inner, item: ItemId, out: &mut [f64]) {
        out.fill(0.0);
        // Accumulate integer counts in f64 (exact), multiply once at the
        // end — the same count-then-multiply the counter kernel does.
        for &rr in self.0.rr_of(item as usize) {
            if !inner.contains(rr as usize) {
                out[self.0.rr_group[rr as usize] as usize] += 1.0;
            }
        }
        for (o, &w) in out.iter_mut().zip(&self.0.weight) {
            *o *= w;
        }
    }

    fn group_gains_batch(&self, inner: &Self::Inner, items: &[ItemId], out: &mut [f64]) {
        fair_submod_core::system::parallel_group_gains(self, inner, items, out);
    }

    fn apply(&self, inner: &mut Self::Inner, item: ItemId) {
        for &rr in self.0.rr_of(item as usize) {
            inner.insert(rr as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::monte_carlo_evaluate;
    use fair_submod_core::metrics::evaluate;
    use fair_submod_graphs::generators::sbm;
    use fair_submod_graphs::GraphBuilder;

    #[test]
    fn oracle_shape_and_allocation() {
        let g = sbm(&[20, 80], 0.2, 0.05, 3);
        let groups = Groups::from_ratios(100, &[("a", 0.2), ("b", 0.8)], 1);
        let oracle = RisOracle::generate(
            &g,
            DiffusionModel::ic(0.1),
            &groups,
            &RisConfig::new(1000, 7),
        );
        assert_eq!(oracle.num_items(), 100);
        assert_eq!(oracle.num_users(), 100);
        assert!(oracle.num_rr_sets() >= 1000);
    }

    #[test]
    fn seeding_everything_covers_every_rr_set() {
        let g = sbm(&[30, 30], 0.2, 0.1, 5);
        let groups = Groups::from_ratios(60, &[("a", 0.5), ("b", 0.5)], 2);
        let oracle = RisOracle::generate(
            &g,
            DiffusionModel::ic(0.2),
            &groups,
            &RisConfig::new(500, 11),
        );
        let all: Vec<ItemId> = (0..60).collect();
        let e = evaluate(&oracle, &all);
        // Every RR set contains its root, so seeding V covers all of them.
        assert!((e.f - 1.0).abs() < 1e-12);
        assert!((e.g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ris_estimate_agrees_with_monte_carlo() {
        // Closed-form check on a path: 0 → 1 → 2, p = 0.5, seed {0}:
        // P = [1, 0.5, 0.25] → f = 7/12, groups {0,1} vs {2}: g = 0.25.
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let groups = Groups::from_assignment(vec![0, 0, 1]);
        let model = DiffusionModel::ic(0.5);
        let oracle = RisOracle::generate(&g, model, &groups, &RisConfig::new(60_000, 13));
        let ris = evaluate(&oracle, &[0]);
        let mc = monte_carlo_evaluate(&g, model, &groups, &[0], 60_000, 17);
        assert!((ris.f - mc.f).abs() < 0.02, "ris {} mc {}", ris.f, mc.f);
        assert!((ris.g - mc.g).abs() < 0.02, "ris {} mc {}", ris.g, mc.g);
        assert!((ris.g - 0.25).abs() < 0.02);
    }

    #[test]
    fn generation_is_thread_count_invariant() {
        let g = sbm(&[40, 40], 0.2, 0.05, 9);
        let groups = Groups::from_ratios(80, &[("a", 0.5), ("b", 0.5)], 4);
        let cfg = RisConfig::new(2_000, 23);
        rayon::set_num_threads(1);
        let seq = RisOracle::generate(&g, DiffusionModel::ic(0.15), &groups, &cfg);
        rayon::set_num_threads(6);
        let par = RisOracle::generate(&g, DiffusionModel::ic(0.15), &groups, &cfg);
        rayon::set_num_threads(0);
        assert_eq!(seq.rr_group, par.rr_group);
        assert_eq!(seq.arena, par.arena);
        assert_eq!(seq.idx_offsets, par.idx_offsets);
        assert_eq!(seq.idx_rr, par.idx_rr);
        assert_eq!(seq.base_counts, par.base_counts);
        assert_eq!(seq.weight, par.weight);
    }

    #[test]
    fn counter_kernel_matches_rescan_reference_bitwise() {
        use fair_submod_core::system::SolutionState;
        let g = sbm(&[40, 40], 0.2, 0.05, 13);
        let groups = Groups::from_ratios(80, &[("a", 0.5), ("b", 0.5)], 4);
        let oracle = RisOracle::generate(
            &g,
            DiffusionModel::ic(0.15),
            &groups,
            &RisConfig::new(1_500, 29),
        );
        let rescan = oracle.rescan_reference();
        let mut inc = SolutionState::new(&oracle);
        let mut refc = SolutionState::new(&rescan);
        let c = oracle.num_groups();
        let mut gi = vec![0.0; c];
        let mut gr = vec![0.0; c];
        for &step in &[3u32, 61, 0, 17, 42] {
            for v in 0..80u32 {
                inc.gains_into(v, &mut gi);
                refc.gains_into(v, &mut gr);
                for g in 0..c {
                    assert_eq!(gi[g].to_bits(), gr[g].to_bits(), "item {v} group {g}");
                }
            }
            inc.insert(step);
            refc.insert(step);
            assert_eq!(inc.group_sums(), refc.group_sums());
        }
    }

    #[test]
    fn restricted_oracle_reads_central_rows_bitwise() {
        use fair_submod_core::system::SolutionState;
        let g = sbm(&[30, 30], 0.2, 0.08, 17);
        let groups = Groups::from_ratios(60, &[("a", 0.5), ("b", 0.5)], 6);
        let oracle = RisOracle::generate(
            &g,
            DiffusionModel::ic(0.15),
            &groups,
            &RisConfig::new(800, 31),
        );
        let members: Vec<ItemId> = vec![1, 7, 20, 21, 44, 59];
        let shard = oracle.restrict(&members).expect("valid members");
        assert_eq!(shard.num_items(), members.len());
        assert_eq!(shard.num_users(), oracle.num_users());
        assert_eq!(shard.num_rr_sets(), oracle.num_rr_sets());

        let mut central = SolutionState::new(&oracle);
        let mut restricted = SolutionState::new(&shard);
        let c = oracle.num_groups();
        let mut through = vec![0.0; c];
        let mut direct = vec![0.0; c];
        // Apply a shared member sequence; gains must stay bitwise equal
        // throughout (the sequence drains RR sets on both sides).
        for &pick in &[2u32, 0, 5] {
            for (local, &global) in members.iter().enumerate() {
                restricted.gains_into(local as ItemId, &mut through);
                central.gains_into(global, &mut direct);
                for g in 0..c {
                    assert_eq!(
                        through[g].to_bits(),
                        direct[g].to_bits(),
                        "member {global} group {g}"
                    );
                }
            }
            restricted.insert(pick);
            central.insert(members[pick as usize]);
            assert_eq!(restricted.group_sums(), central.group_sums());
        }
    }

    #[test]
    fn partition_shards_rejects_malformed_partitions() {
        let g = sbm(&[10, 10], 0.3, 0.1, 3);
        let groups = Groups::from_ratios(20, &[("a", 0.5), ("b", 0.5)], 2);
        let oracle = RisOracle::generate(
            &g,
            DiffusionModel::ic(0.2),
            &groups,
            &RisConfig::new(200, 5),
        );
        // Empty partition list.
        assert!(oracle.partition_shards(&[]).is_err());
        // Empty shard.
        assert!(oracle
            .partition_shards(&[(0..20).collect(), vec![]])
            .is_err());
        // Overlap.
        assert!(oracle
            .partition_shards(&[(0..11).collect(), (10..20).collect()])
            .is_err());
        // Out of range.
        assert!(oracle
            .partition_shards(&[(0..19).collect(), vec![25]])
            .is_err());
        // Not an exact cover.
        assert!(oracle.partition_shards(&[(0..19).collect()]).is_err());
        // Restrict alone: unsorted and empty member lists are typed
        // rejections too.
        assert!(oracle.restrict(&[]).is_err());
        assert!(oracle.restrict(&[5, 2]).is_err());
        // A valid partition round-trips.
        let shards = oracle
            .partition_shards(&[(0..7).collect(), (7..13).collect(), (13..20).collect()])
            .expect("valid partition");
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.num_items()).sum::<usize>(), 20);
    }

    #[test]
    fn slice_backed_generation_matches_resident_graph() {
        let g = sbm(&[25, 25], 0.2, 0.06, 21);
        let groups = Groups::from_ratios(50, &[("a", 0.5), ("b", 0.5)], 3);
        let cfg = RisConfig::new(600, 37);
        let central = RisOracle::generate(&g, DiffusionModel::ic(0.12), &groups, &cfg);
        // Cut the graph into three ragged slices and rebuild from them.
        let slices = vec![
            g.slice_rows(&(0..20).collect::<Vec<_>>()),
            g.slice_rows(&(20..21).collect::<Vec<_>>()),
            g.slice_rows(&(21..50).collect::<Vec<_>>()),
        ];
        let sliced = RisOracle::generate_from_slices(
            &slices,
            50,
            g.is_directed(),
            DiffusionModel::ic(0.12),
            &groups,
            &cfg,
        );
        assert_eq!(sliced.rr_group, central.rr_group);
        assert_eq!(sliced.arena, central.arena);
        assert_eq!(sliced.idx_offsets, central.idx_offsets);
        assert_eq!(sliced.idx_rr, central.idx_rr);
        assert_eq!(sliced.base_counts, central.base_counts);
        assert_eq!(sliced.weight, central.weight);
    }

    #[test]
    fn greedy_on_ris_picks_influential_seeds() {
        use fair_submod_core::aggregate::MeanUtility;
        use fair_submod_core::algorithms::greedy::{greedy, GreedyConfig};
        // A hub (node 0) pointing at everyone should be picked first.
        let mut b = GraphBuilder::new(50, true);
        for v in 1..50 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let groups = Groups::from_ratios(50, &[("a", 0.5), ("b", 0.5)], 3);
        let oracle = RisOracle::generate(
            &g,
            DiffusionModel::ic(0.3),
            &groups,
            &RisConfig::new(3000, 19),
        );
        let f = MeanUtility::new(oracle.num_users());
        let run = greedy(&oracle, &f, &GreedyConfig::lazy(1));
        assert_eq!(run.items, vec![0]);
    }
}
