//! Reverse-reachable (RR) set sampling (Borgs et al., SODA 2014).
//!
//! An RR set for root `u` under the IC model is the random set of nodes
//! `w` such that `u` is reachable from `w` in the "live-edge" graph where
//! each arc `(w→x)` survives independently with probability `p(w→x)`.
//! Sampling proceeds by reverse BFS from `u`, flipping each *incoming*
//! arc's coin on first touch.
//!
//! Under the LT model, each node activates through at most one in-arc
//! (chosen uniformly when in-weights are `1/in_degree`), so an RR set is
//! a reverse random walk.

use rand::rngs::StdRng;
use rand::Rng;

use fair_submod_graphs::csr::NodeId;
use fair_submod_graphs::Graph;

use crate::models::{DiffusionModel, EdgeWeighting, UniformCoin};

/// Reusable per-worker sampling scratch: epoch-stamped visited marks,
/// bundled so batched parallel sampling holds exactly one scratch per
/// worker thread instead of threading loose `&mut` parameters through
/// every call. The BFS frontier needs no buffer of its own — the run a
/// sample appends to its output arena *is* the queue.
#[derive(Clone, Debug, Default)]
pub struct RrScratch {
    /// Epoch stamp per node; `visited[v] == stamp` means "in this RR set".
    visited: Vec<u32>,
    stamp: u32,
    /// Visited bitmap for the mask-accelerated sampler
    /// ([`sample_rr_masked_into`]); zeroed per sample (≤
    /// [`RR_MASK_NODE_CAP`]/64 words, cheaper than epoch bookkeeping).
    visited_bits: Vec<u64>,
}

impl RrScratch {
    /// Scratch pre-sized for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            visited: vec![0; n],
            stamp: 0,
            visited_bits: Vec::new(),
        }
    }

    /// Begins a new sample over `n` nodes, returning the fresh epoch
    /// mark. Resizing and stamp wrap-around are handled here so repeated
    /// calls never clear the `n`-sized buffer.
    fn next_epoch(&mut self, n: usize) -> u32 {
        if self.visited.len() != n {
            self.visited.clear();
            self.visited.resize(n, 0);
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// Samples one RR set for `root`; the result always contains `root`.
///
/// `scratch` persists across calls (epoch marking avoids clearing).
/// Convenience wrapper over [`sample_rr_into`] that allocates a fresh
/// `Vec` per sample; batch producers should append into a reused arena
/// instead.
pub fn sample_rr(
    graph: &Graph,
    model: DiffusionModel,
    root: NodeId,
    rng: &mut StdRng,
    scratch: &mut RrScratch,
) -> Vec<NodeId> {
    let mut rr = Vec::with_capacity(8);
    sample_rr_into(graph, model, root, rng, scratch, &mut rr);
    rr
}

/// Samples one RR set for `root`, **appending** its nodes to `arena`
/// and returning how many were appended. The appended run always starts
/// with `root`, in the exact order [`sample_rr`] would have produced —
/// batch generation pushes thousands of sets into one growing arena
/// per worker instead of allocating (and later re-walking) a `Vec` per
/// RR set.
pub fn sample_rr_into(
    graph: &Graph,
    model: DiffusionModel,
    root: NodeId,
    rng: &mut StdRng,
    scratch: &mut RrScratch,
    arena: &mut Vec<NodeId>,
) -> usize {
    let n = graph.num_nodes();
    let mark = scratch.next_epoch(n);

    let start = arena.len();
    let rr = arena;
    scratch.visited[root as usize] = mark;
    rr.push(root);

    match model {
        DiffusionModel::IndependentCascade(EdgeWeighting::Uniform(p)) => {
            // Hot path for the paper's uniform-`p` setting. Two
            // rewrites of the general loop below, both decision-exact:
            // the appended arena run doubles as the BFS queue (the
            // queue's contents *are* `rr[start..]`, in the same push
            // order), and the per-arc coin `gen::<f64>() < p` becomes
            // `UniformCoin`'s integer compare on the same draw.
            let coin = UniformCoin::new(p);
            let mut head = start;
            while head < rr.len() {
                let u = rr[head];
                head += 1;
                for &w in graph.in_neighbors(u) {
                    if scratch.visited[w as usize] == mark {
                        continue;
                    }
                    if coin.flip(rng) {
                        scratch.visited[w as usize] = mark;
                        rr.push(w);
                    }
                }
            }
        }
        DiffusionModel::IndependentCascade(weighting) => {
            let mut head = start;
            while head < rr.len() {
                let u = rr[head];
                head += 1;
                for &w in graph.in_neighbors(u) {
                    if scratch.visited[w as usize] != mark
                        && rng.gen::<f64>() < weighting.probability(graph, w, u)
                    {
                        scratch.visited[w as usize] = mark;
                        rr.push(w);
                    }
                }
            }
        }
        DiffusionModel::LinearThreshold => {
            // Reverse random walk: each node is influenced through exactly
            // one (uniform) in-neighbor in the live-edge view.
            let mut cur = root;
            loop {
                let ins = graph.in_neighbors(cur);
                if ins.is_empty() {
                    break;
                }
                let w = ins[rng.gen_range(0..ins.len())];
                if scratch.visited[w as usize] == mark {
                    break; // walked into the set: stop (cycle)
                }
                scratch.visited[w as usize] = mark;
                rr.push(w);
                cur = w;
            }
        }
    }
    rr.len() - start
}

/// Largest node count at which batch generation precomputes in-neighbor
/// bitmasks ([`RrInMasks`]): `n · ⌈n/64⌉` words of mask memory, so the
/// cap keeps the table at ≤ 2 MiB (cache-resident alongside the 64-byte
/// visited bitmap).
pub const RR_MASK_NODE_CAP: usize = 2048;

/// Per-node in-neighbor bitmasks for the mask-accelerated IC sampler.
///
/// Row `u` holds an `n`-bit mask of `in_neighbors(u)`. The BFS then
/// finds the *unvisited* in-neighbors of a node with `⌈n/64⌉` AND-NOT
/// word operations instead of one visited-array probe per arc — on the
/// paper's dense-percolation instances ~3 of 4 arc examinations hit an
/// already-visited target and consume no randomness, so skipping them
/// word-parallel removes most of the sampling loop's work.
#[derive(Clone, Debug)]
pub struct RrInMasks {
    words: usize,
    bits: Vec<u64>,
}

impl RrInMasks {
    /// Whether the masked sampler applies: uniform-probability IC (the
    /// per-arc coin must not depend on the arc) on a graph small enough
    /// for the mask table.
    pub fn applies(graph: &Graph, model: DiffusionModel) -> bool {
        graph.num_nodes() <= RR_MASK_NODE_CAP
            && matches!(
                model,
                DiffusionModel::IndependentCascade(EdgeWeighting::Uniform(_))
            )
    }

    /// Builds the mask table (one pass over the in-adjacency).
    pub fn build(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for u in 0..n as NodeId {
            let row = &mut bits[u as usize * words..(u as usize + 1) * words];
            for &w in graph.in_neighbors(u) {
                row[w as usize / 64] |= 1u64 << (w % 64);
            }
        }
        Self { words, bits }
    }
}

/// Mask-accelerated twin of [`sample_rr_into`] for uniform-`p` IC.
///
/// Produces the **same appended run from the same RNG stream** as the
/// scalar sampler: `in_neighbors(u)` is stored ascending (CSR counting
/// sort), and ascending bit iteration over `mask[u] & !visited` visits
/// exactly the unvisited in-neighbors in that same order — and those
/// are precisely the arcs the scalar loop consumes a coin for. Word
/// snapshots stay coherent because an accepted node's bit is already
/// cleared from the snapshot and no node appears twice in a row's mask.
pub fn sample_rr_masked_into(
    masks: &RrInMasks,
    uniform_p: f64,
    root: NodeId,
    rng: &mut StdRng,
    scratch: &mut RrScratch,
    arena: &mut Vec<NodeId>,
) -> usize {
    let words = masks.words;
    let coin = UniformCoin::new(uniform_p);
    let visited = &mut scratch.visited_bits;
    visited.clear();
    visited.resize(words, 0);

    let start = arena.len();
    let rr = arena;
    visited[root as usize / 64] |= 1u64 << (root % 64);
    rr.push(root);

    let mut head = start;
    while head < rr.len() {
        let u = rr[head] as usize;
        head += 1;
        let row = &masks.bits[u * words..(u + 1) * words];
        for (wi, (&m, vis)) in row.iter().zip(visited.iter_mut()).enumerate() {
            let mut cand = m & !*vis;
            while cand != 0 {
                let bit = cand.trailing_zeros();
                cand &= cand - 1;
                if coin.flip(rng) {
                    *vis |= 1u64 << bit;
                    rr.push((wi * 64) as NodeId + bit);
                }
            }
        }
    }
    rr.len() - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_submod_graphs::GraphBuilder;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn rr_contains_root() {
        let g = GraphBuilder::new(4, true).build();
        let mut scratch = RrScratch::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let rr = sample_rr(&g, DiffusionModel::ic(0.5), 2, &mut rng, &mut scratch);
        assert_eq!(rr, vec![2]);
    }

    #[test]
    fn rr_with_p1_is_full_reverse_reachability() {
        // 0 → 1 → 2: RR(2) at p=1 must be {2, 1, 0}.
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let mut scratch = RrScratch::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut rr = sample_rr(&g, DiffusionModel::ic(1.0), 2, &mut rng, &mut scratch);
        rr.sort_unstable();
        assert_eq!(rr, vec![0, 1, 2]);
    }

    #[test]
    fn rr_with_p0_is_just_the_root() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let mut scratch = RrScratch::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        let rr = sample_rr(&g, DiffusionModel::ic(0.0), 2, &mut rng, &mut scratch);
        assert_eq!(rr, vec![2]);
    }

    #[test]
    fn rr_frequency_matches_edge_probability() {
        // Single arc 0 → 1 with p = 0.3: RR(1) contains 0 w.p. 0.3.
        let mut b = GraphBuilder::new(2, true);
        b.add_edge(0, 1);
        let g = b.build();
        let mut scratch = RrScratch::new(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0usize;
        let runs = 50_000;
        for _ in 0..runs {
            let rr = sample_rr(&g, DiffusionModel::ic(0.3), 1, &mut rng, &mut scratch);
            if rr.len() == 2 {
                hits += 1;
            }
        }
        let freq = hits as f64 / runs as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn lt_rr_is_a_path() {
        let g = fair_submod_graphs::generators::erdos_renyi(30, 0.2, 7);
        let mut scratch = RrScratch::new(30);
        let mut rng = StdRng::seed_from_u64(9);
        for root in 0..30u32 {
            let rr = sample_rr(
                &g,
                DiffusionModel::LinearThreshold,
                root,
                &mut rng,
                &mut scratch,
            );
            // A reverse random walk has no duplicate nodes.
            let mut sorted = rr.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), rr.len());
        }
    }

    #[test]
    fn arena_sampling_appends_identical_sets() {
        let g = fair_submod_graphs::generators::erdos_renyi(40, 0.1, 3);
        let mut scratch = RrScratch::new(40);
        // Two RNG clones from the same seed: per-call Vecs vs one arena.
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let mut arena: Vec<NodeId> = Vec::new();
        let mut lens = Vec::new();
        let mut separate = Vec::new();
        for root in 0..40u32 {
            separate.push(sample_rr(
                &g,
                DiffusionModel::ic(0.2),
                root,
                &mut rng_a,
                &mut scratch,
            ));
            lens.push(sample_rr_into(
                &g,
                DiffusionModel::ic(0.2),
                root,
                &mut rng_b,
                &mut scratch,
                &mut arena,
            ));
        }
        let mut offset = 0usize;
        for (rr, &len) in separate.iter().zip(&lens) {
            assert_eq!(&arena[offset..offset + len], &rr[..]);
            offset += len;
        }
        assert_eq!(offset, arena.len());
    }

    #[test]
    fn masked_sampler_replays_the_scalar_stream_exactly() {
        // Across graph shapes, densities, and probabilities, the masked
        // sampler must append the identical node run from the identical
        // RNG stream — including the final RNG state (same number of
        // draws), checked via a post-sample draw.
        for (n, density, seed) in [
            (30usize, 0.05, 1u64),
            (64, 0.2, 2),
            (130, 0.1, 3),
            (500, 0.04, 4),
        ] {
            let g = fair_submod_graphs::generators::erdos_renyi(n, density, seed);
            let masks = RrInMasks::build(&g);
            for p in [0.0, 0.05, 0.3, 1.0] {
                let mut scratch_a = RrScratch::new(n);
                let mut scratch_b = RrScratch::new(n);
                for root in (0..n as NodeId).step_by(7) {
                    let mut rng_a = StdRng::seed_from_u64(seed * 1000 + root as u64);
                    let mut rng_b = StdRng::seed_from_u64(seed * 1000 + root as u64);
                    let mut scalar: Vec<NodeId> = Vec::new();
                    let mut masked: Vec<NodeId> = Vec::new();
                    let la = sample_rr_into(
                        &g,
                        DiffusionModel::ic(p),
                        root,
                        &mut rng_a,
                        &mut scratch_a,
                        &mut scalar,
                    );
                    let lb = sample_rr_masked_into(
                        &masks,
                        p,
                        root,
                        &mut rng_b,
                        &mut scratch_b,
                        &mut masked,
                    );
                    assert_eq!(la, lb, "n={n} p={p} root={root}");
                    assert_eq!(scalar, masked, "n={n} p={p} root={root}");
                    assert_eq!(
                        rng_a.next_u64(),
                        rng_b.next_u64(),
                        "RNG streams desynced: n={n} p={p} root={root}"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_applicability_is_gated_on_size_and_model() {
        let small = fair_submod_graphs::generators::erdos_renyi(40, 0.1, 3);
        assert!(RrInMasks::applies(&small, DiffusionModel::ic(0.1)));
        assert!(!RrInMasks::applies(&small, DiffusionModel::LinearThreshold));
        assert!(!RrInMasks::applies(
            &small,
            DiffusionModel::IndependentCascade(EdgeWeighting::WeightedCascade)
        ));
    }

    #[test]
    fn default_scratch_resizes_on_first_use() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let mut scratch = RrScratch::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut rr = sample_rr(&g, DiffusionModel::ic(1.0), 2, &mut rng, &mut scratch);
        rr.sort_unstable();
        assert_eq!(rr, vec![0, 1, 2]);
    }
}
