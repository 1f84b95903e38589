//! Utility–fairness Pareto frontier extraction.
//!
//! The BSM framework answers one `(k, τ)` query at a time; practitioners
//! usually want the whole trade-off curve (the paper's Figures 3/5/7 are
//! exactly that). This module sweeps τ over a grid with a chosen BSM
//! solver, collects `(f, g)` outcomes, extracts the non-dominated
//! frontier, and computes the dominated-area (hypervolume) indicator so
//! that solvers can be compared by a single scalar.
//!
//! Lines 1–2 of both BSM schemes (greedy on `f`, Saturate on `g`) do not
//! depend on `τ`, so the sweep computes them once and seeds every point's
//! stepper with them; each point is bit-identical to a standalone solve
//! at its `τ`.

use crate::items::ItemId;
use crate::system::UtilitySystem;

use super::bsm_saturate::{bsm_saturate_seeded, BsmSaturateConfig};
use super::greedy::{GreedyConfig, GreedyVariant};
use super::saturate::{saturate, SaturateConfig};
use super::tsgreedy::{bsm_tsgreedy_seeded, TsGreedyConfig};
use super::utility_greedy;

/// Which BSM solver drives the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontierSolver {
    /// BSM-TSGreedy (Algorithm 1) — faster.
    TsGreedy,
    /// BSM-Saturate (Algorithm 2) — better trade-offs.
    BsmSaturate,
}

/// Configuration for [`pareto_frontier`].
#[derive(Clone, Debug)]
pub struct FrontierConfig {
    /// Cardinality constraint `k`.
    pub k: usize,
    /// τ grid (deduplicated, clamped to `\[0, 1\]`).
    pub taus: Vec<f64>,
    /// Solver choice.
    pub solver: FrontierSolver,
    /// BSM-Saturate's error parameter `ε ∈ (0, 1)` (ignored by
    /// TSGreedy).
    pub epsilon: f64,
    /// Greedy evaluation strategy of every stage.
    pub variant: GreedyVariant,
    /// Saturate configuration for `OPT'_g` / `S_g`.
    pub saturate: SaturateConfig,
}

impl FrontierConfig {
    /// Default grid τ ∈ {0.0, 0.1, …, 1.0} with BSM-Saturate and the
    /// paper's solver defaults (`ε = 0.05`, lazy-forward greedy).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            taus: (0..=10).map(|i| i as f64 / 10.0).collect(),
            solver: FrontierSolver::BsmSaturate,
            epsilon: 0.05,
            variant: GreedyVariant::Lazy,
            saturate: SaturateConfig::new(k),
        }
    }
}

/// One point of the sweep.
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// τ that produced this point.
    pub tau: f64,
    /// Utility value.
    pub f: f64,
    /// Fairness value.
    pub g: f64,
    /// The solution.
    pub items: Vec<ItemId>,
    /// Whether the point survives Pareto filtering.
    pub on_frontier: bool,
}

/// Result of [`pareto_frontier`].
#[derive(Clone, Debug)]
pub struct Frontier {
    /// All swept points, in τ order.
    pub points: Vec<FrontierPoint>,
    /// Dominated-area indicator (w.r.t. the origin reference point):
    /// the area of `∪_{p on frontier} [0, f_p] × [0, g_p]`.
    pub hypervolume: f64,
}

impl Frontier {
    /// The non-dominated points, sorted by ascending `g`.
    pub fn frontier_points(&self) -> Vec<&FrontierPoint> {
        let mut pts: Vec<&FrontierPoint> = self.points.iter().filter(|p| p.on_frontier).collect();
        pts.sort_by(|a, b| a.g.partial_cmp(&b.g).unwrap());
        pts
    }
}

/// Sweeps τ and extracts the utility–fairness Pareto frontier.
///
/// # Panics
/// Panics if [`FrontierSolver::BsmSaturate`] runs with `ε ∉ (0, 1)`
/// (see [`BsmSaturateConfig::with_epsilon`]).
pub fn pareto_frontier<S: UtilitySystem>(system: &S, cfg: &FrontierConfig) -> Frontier {
    let mut taus: Vec<f64> = cfg.taus.iter().map(|t| t.clamp(0.0, 1.0)).collect();
    taus.sort_by(|a, b| a.partial_cmp(b).unwrap());
    taus.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    // Lines 1–2 of both schemes, once per sweep.
    let greedy_f = utility_greedy(
        system,
        &GreedyConfig {
            variant: cfg.variant.clone(),
            ..GreedyConfig::lazy(cfg.k)
        },
    );
    let sat = saturate(system, &cfg.saturate);

    let mut points: Vec<FrontierPoint> = taus
        .into_iter()
        .map(|tau| {
            let out = match cfg.solver {
                FrontierSolver::TsGreedy => {
                    let ts_cfg = TsGreedyConfig {
                        variant: cfg.variant.clone(),
                        saturate: cfg.saturate.clone(),
                        ..TsGreedyConfig::new(cfg.k, tau)
                    };
                    bsm_tsgreedy_seeded(system, &ts_cfg, greedy_f.clone(), sat.clone()).bsm
                }
                FrontierSolver::BsmSaturate => {
                    let bs_cfg = BsmSaturateConfig {
                        variant: cfg.variant.clone(),
                        saturate: cfg.saturate.clone(),
                        ..BsmSaturateConfig::new(cfg.k, tau).with_epsilon(cfg.epsilon)
                    };
                    bsm_saturate_seeded(system, &bs_cfg, greedy_f.clone(), sat.clone()).bsm
                }
            };
            FrontierPoint {
                tau,
                f: out.eval.f,
                g: out.eval.g,
                items: out.items,
                on_frontier: true,
            }
        })
        .collect();

    let flags = pareto_filter(&points.iter().map(|p| (p.f, p.g)).collect::<Vec<_>>());
    for (p, on) in points.iter_mut().zip(flags) {
        p.on_frontier = on;
    }

    let hypervolume = hypervolume(
        &points
            .iter()
            .filter(|p| p.on_frontier)
            .map(|p| (p.f, p.g))
            .collect::<Vec<_>>(),
    );
    Frontier {
        points,
        hypervolume,
    }
}

/// Marks the non-dominated points of a set of `(f, g)` pairs: entry `i`
/// is `true` iff no other point is ≥ in both coordinates and > in one.
pub fn pareto_filter(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(fi, gi))| {
            !points.iter().enumerate().any(|(j, q)| {
                j != i
                    && q.0 >= fi - 1e-12
                    && q.1 >= gi - 1e-12
                    && (q.0 > fi + 1e-12 || q.1 > gi + 1e-12)
            })
        })
        .collect()
}

/// Dominated-area indicator of a frontier of `(f, g)` pairs w.r.t. the
/// origin: the area of `∪_p [0, f_p] × [0, g_p]`, computed as a
/// staircase integral.
pub fn hypervolume(points: &[(f64, f64)]) -> f64 {
    let mut frontier: Vec<(f64, f64)> = points.iter().map(|&(f, g)| (g, f)).collect();
    frontier.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut volume = 0.0;
    let mut prev_g = 0.0;
    // Descending-f staircase from left (low g, high f) to right; the
    // block before the first point uses the overall max f
    // (f_at_or_right(0)) via prev_g = 0.
    for &(g, _) in &frontier {
        volume += (g - prev_g).max(0.0) * f_at_or_right(&frontier, g);
        prev_g = g;
    }
    volume
}

/// The best `f` among frontier points with `g ≥ g0` (staircase height).
fn f_at_or_right(frontier: &[(f64, f64)], g0: f64) -> f64 {
    frontier
        .iter()
        .filter(|&&(g, _)| g >= g0 - 1e-12)
        .map(|&(_, f)| f)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn frontier_on_figure1_has_the_three_regimes() {
        let sys = toy::figure1();
        let cfg = FrontierConfig {
            taus: vec![0.0, 0.3, 0.8],
            solver: FrontierSolver::BsmSaturate,
            ..FrontierConfig::new(2)
        };
        let frontier = pareto_frontier(&sys, &cfg);
        assert_eq!(frontier.points.len(), 3);
        // Example 3.1's optimal regimes give three distinct trade-offs:
        // (0.75, 0), (2/3, 1/3), (7/12, 5/9) — all non-dominated.
        let on: Vec<_> = frontier.frontier_points();
        assert!(on.len() >= 2, "frontier collapsed: {on:?}");
        assert!(frontier.hypervolume > 0.0);
    }

    #[test]
    fn dominated_points_are_filtered() {
        let sys = toy::random_coverage(20, 60, 2, 0.15, 3);
        let frontier = pareto_frontier(&sys, &FrontierConfig::new(4));
        // Frontier must be an antichain: no point dominates another.
        let pts = frontier.frontier_points();
        for a in &pts {
            for b in &pts {
                let dominates = a.f > b.f + 1e-12 && a.g > b.g + 1e-12;
                assert!(!dominates, "frontier contains dominated points");
            }
        }
    }

    #[test]
    fn frontier_f_decreases_as_g_increases() {
        let sys = toy::random_coverage(25, 80, 2, 0.1, 5);
        let frontier = pareto_frontier(&sys, &FrontierConfig::new(5));
        let pts = frontier.frontier_points();
        for w in pts.windows(2) {
            assert!(w[0].g <= w[1].g + 1e-12);
            assert!(w[0].f + 1e-9 >= w[1].f, "staircase must fall in f");
        }
    }

    #[test]
    fn hypervolume_bounded_by_anchor_product() {
        let sys = toy::random_coverage(25, 80, 2, 0.1, 7);
        let frontier = pareto_frontier(&sys, &FrontierConfig::new(5));
        let max_f = frontier.points.iter().map(|p| p.f).fold(0.0, f64::max);
        let max_g = frontier.points.iter().map(|p| p.g).fold(0.0, f64::max);
        assert!(frontier.hypervolume <= max_f * max_g + 1e-9);
        assert!(frontier.hypervolume >= 0.0);
    }

    #[test]
    fn tsgreedy_solver_works_too() {
        let sys = toy::figure1();
        let cfg = FrontierConfig {
            taus: vec![0.1, 0.9],
            solver: FrontierSolver::TsGreedy,
            ..FrontierConfig::new(2)
        };
        let frontier = pareto_frontier(&sys, &cfg);
        assert_eq!(frontier.points.len(), 2);
    }
}
