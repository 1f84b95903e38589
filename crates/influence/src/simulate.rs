//! Forward Monte-Carlo diffusion simulation.
//!
//! Ground-truth evaluation of `f(S)` and `g(S)` for IM: run the diffusion
//! `runs` times and average per-group influenced fractions. The paper
//! reports all IM values from 10,000 simulations; this module
//! parallelizes the runs with rayon and is deterministic for a fixed
//! `(seed, runs)` pair regardless of thread count (each run derives its
//! own RNG from `seed ⊕ run_index`).
//!
//! The per-run state uses epoch stamps rather than clearing an
//! `n`-sized bitmap, so one cascade costs `O(touched arcs)` — essential
//! on the 100k-node Pokec stand-in where cascades are tiny under
//! `p = 0.01` but `runs` is in the thousands. Each rayon chunk
//! allocates one stamp array; the LT threshold and pressure arrays
//! exist only under the LT model, because an IC cascade never reads
//! them. Under uniform-`p` IC each arc's coin is the integer compare
//! RR sampling uses (DESIGN.md §9): the same draw and the same accept
//! bit as `gen::<f64>() < p`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use fair_submod_core::items::ItemId;
use fair_submod_core::metrics::Evaluation;
use fair_submod_graphs::csr::NodeId;
use fair_submod_graphs::{Graph, Groups};

use crate::models::{DiffusionModel, EdgeWeighting, UniformCoin};

/// Reusable per-thread simulation scratch with epoch marking.
struct Scratch {
    /// Epoch stamp per node; `stamp[v] == epoch` means active this run.
    stamp: Vec<u32>,
    epoch: u32,
    /// Activation order of the current run (exactly the influenced set).
    queue: Vec<NodeId>,
    /// LT-only: per-node threshold and accumulated pressure, epoch-tagged.
    /// Empty under IC.
    lt_mark: Vec<u32>,
    lt_threshold: Vec<f64>,
    lt_pressure: Vec<f64>,
}

impl Scratch {
    fn new(n: usize, model: DiffusionModel) -> Self {
        let lt = match model {
            DiffusionModel::LinearThreshold => n,
            DiffusionModel::IndependentCascade(_) => 0,
        };
        Self {
            stamp: vec![0; n],
            epoch: 0,
            queue: Vec::with_capacity(64),
            lt_mark: vec![0; lt],
            lt_threshold: vec![0.0; lt],
            lt_pressure: vec![0.0; lt],
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.lt_mark.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
        self.epoch
    }
}

/// One IC cascade; on return `scratch.queue` holds the influenced nodes.
fn simulate_ic(
    graph: &Graph,
    weighting: EdgeWeighting,
    seeds: &[NodeId],
    rng: &mut StdRng,
    scratch: &mut Scratch,
) {
    match weighting {
        EdgeWeighting::Uniform(p) => {
            let coin = UniformCoin::new(p);
            cascade_ic(graph, seeds, scratch, |_, _| coin.flip(rng));
        }
        _ => cascade_ic(graph, seeds, scratch, |u, v| {
            rng.gen::<f64>() < weighting.probability(graph, u, v)
        }),
    }
}

/// The IC breadth-first cascade; `live(u, v)` flips arc `u → v`'s coin
/// and is called once per arc into a node not yet active, in BFS order.
fn cascade_ic(
    graph: &Graph,
    seeds: &[NodeId],
    scratch: &mut Scratch,
    mut live: impl FnMut(NodeId, NodeId) -> bool,
) {
    let epoch = scratch.next_epoch();
    for &s in seeds {
        if scratch.stamp[s as usize] != epoch {
            scratch.stamp[s as usize] = epoch;
            scratch.queue.push(s);
        }
    }
    let mut head = 0usize;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        for &v in graph.out_neighbors(u) {
            if scratch.stamp[v as usize] != epoch && live(u, v) {
                scratch.stamp[v as usize] = epoch;
                scratch.queue.push(v);
            }
        }
    }
}

/// One LT cascade with uniform in-edge weights `1/in_degree` and
/// uniformly random thresholds, drawn lazily per touched node.
fn simulate_lt(graph: &Graph, seeds: &[NodeId], rng: &mut StdRng, scratch: &mut Scratch) {
    let epoch = scratch.next_epoch();
    for &s in seeds {
        if scratch.stamp[s as usize] != epoch {
            scratch.stamp[s as usize] = epoch;
            scratch.queue.push(s);
        }
    }
    let mut head = 0usize;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        for &v in graph.out_neighbors(u) {
            let vi = v as usize;
            if scratch.stamp[vi] == epoch {
                continue;
            }
            let d = graph.in_degree(v);
            if d == 0 {
                continue;
            }
            if scratch.lt_mark[vi] != epoch {
                scratch.lt_mark[vi] = epoch;
                scratch.lt_threshold[vi] = rng.gen::<f64>();
                scratch.lt_pressure[vi] = 0.0;
            }
            scratch.lt_pressure[vi] += 1.0 / d as f64;
            if scratch.lt_pressure[vi] >= scratch.lt_threshold[vi] {
                scratch.stamp[vi] = epoch;
                scratch.queue.push(v);
            }
        }
    }
}

/// Estimates `f(S)`, `g(S)`, and all group means by `runs` independent
/// forward simulations. Deterministic in `(seed, runs)`.
pub fn monte_carlo_evaluate(
    graph: &Graph,
    model: DiffusionModel,
    groups: &Groups,
    seeds: &[ItemId],
    runs: usize,
    seed: u64,
) -> Evaluation {
    assert!(runs > 0);
    assert_eq!(graph.num_nodes(), groups.num_users());
    let c = groups.num_groups();
    let node_seeds: Vec<NodeId> = seeds.to_vec();

    let totals: Vec<f64> = (0..runs)
        .into_par_iter()
        .fold(
            || (vec![0.0f64; c], Scratch::new(graph.num_nodes(), model)),
            |(mut acc, mut scratch), run| {
                let mut rng = StdRng::seed_from_u64(seed ^ (run as u64).wrapping_mul(0x9E37_79B9));
                match model {
                    DiffusionModel::IndependentCascade(w) => {
                        simulate_ic(graph, w, &node_seeds, &mut rng, &mut scratch);
                    }
                    DiffusionModel::LinearThreshold => {
                        simulate_lt(graph, &node_seeds, &mut rng, &mut scratch);
                    }
                }
                // The queue is exactly the influenced set.
                for &v in &scratch.queue {
                    acc[groups.group_of(v as usize) as usize] += 1.0;
                }
                (acc, scratch)
            },
        )
        .map(|(acc, _)| acc)
        .reduce(
            || vec![0.0; c],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            },
        );

    let m = groups.num_users() as f64;
    let sizes = groups.sizes();
    let group_means: Vec<f64> = totals
        .iter()
        .zip(sizes)
        .map(|(&t, &mi)| t / (runs as f64 * mi as f64))
        .collect();
    let f = totals.iter().sum::<f64>() / (runs as f64 * m);
    let g = group_means.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    Evaluation {
        f,
        g,
        group_means,
        size: seeds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_submod_graphs::GraphBuilder;

    fn path_graph() -> Graph {
        // 0 → 1 → 2, directed.
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1).add_edge(1, 2);
        b.build()
    }

    #[test]
    fn deterministic_p1_cascade_influences_everything() {
        let g = path_graph();
        let groups = Groups::from_assignment(vec![0, 0, 1]);
        let e = monte_carlo_evaluate(&g, DiffusionModel::ic(1.0), &groups, &[0], 50, 7);
        assert!((e.f - 1.0).abs() < 1e-12);
        assert!((e.g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p0_cascade_influences_only_seeds() {
        let g = path_graph();
        let groups = Groups::from_assignment(vec![0, 0, 1]);
        let e = monte_carlo_evaluate(&g, DiffusionModel::ic(0.0), &groups, &[0], 20, 7);
        assert!((e.f - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.g, 0.0); // group 1 (node 2) never influenced
        assert!((e.group_means[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intermediate_probability_matches_closed_form() {
        // Seed {0}: P(1 influenced) = p; P(2) = p².
        let g = path_graph();
        let groups = Groups::from_assignment(vec![0, 1, 2]);
        let p = 0.3;
        let e = monte_carlo_evaluate(&g, DiffusionModel::ic(p), &groups, &[0], 60_000, 11);
        assert!((e.group_means[1] - p).abs() < 0.01, "{}", e.group_means[1]);
        assert!(
            (e.group_means[2] - p * p).abs() < 0.01,
            "{}",
            e.group_means[2]
        );
    }

    #[test]
    fn lt_on_path_is_deterministic_diffusion() {
        // In LT with in-degree-1 nodes, weight 1 ≥ any threshold < 1, so a
        // seeded path cascades fully (thresholds are U(0,1), P(t=1)=0).
        let g = path_graph();
        let groups = Groups::from_assignment(vec![0, 0, 1]);
        let e = monte_carlo_evaluate(&g, DiffusionModel::LinearThreshold, &groups, &[0], 30, 3);
        assert!((e.f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lt_pressure_accumulates_across_neighbors() {
        // Node 2 has in-degree 2 (weights 1/2 each); seeding both 0 and 1
        // always activates 2 (pressure reaches 1 ≥ threshold).
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 2).add_edge(1, 2);
        let g = b.build();
        let groups = Groups::from_assignment(vec![0, 0, 1]);
        let e = monte_carlo_evaluate(
            &g,
            DiffusionModel::LinearThreshold,
            &groups,
            &[0, 1],
            200,
            5,
        );
        assert!((e.g - 1.0).abs() < 1e-9, "g = {}", e.g);
    }

    #[test]
    fn evaluation_is_deterministic_in_seed() {
        let g = fair_submod_graphs::generators::erdos_renyi(40, 0.1, 5);
        let groups = Groups::from_ratios(40, &[("a", 0.5), ("b", 0.5)], 1);
        let a = monte_carlo_evaluate(&g, DiffusionModel::ic(0.2), &groups, &[0, 3], 500, 9);
        let b = monte_carlo_evaluate(&g, DiffusionModel::ic(0.2), &groups, &[0, 3], 500, 9);
        assert_eq!(a.f, b.f);
        assert_eq!(a.group_means, b.group_means);
    }

    #[test]
    fn duplicate_seeds_are_counted_once() {
        let g = path_graph();
        let groups = Groups::from_assignment(vec![0, 0, 1]);
        let e = monte_carlo_evaluate(&g, DiffusionModel::ic(0.0), &groups, &[0, 0, 0], 10, 1);
        assert!((e.f - 1.0 / 3.0).abs() < 1e-12);
    }
}
