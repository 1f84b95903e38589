//! Solution evaluation and fairness/utility reporting.

use crate::items::ItemId;
use crate::system::{SolutionState, UtilitySystem};

/// Full evaluation of a solution: utility, fairness, and per-group means.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Utility objective `f(S) = (1/m) Σ_u f_u(S)`.
    pub f: f64,
    /// Fairness objective `g(S) = min_i f_i(S)`.
    pub g: f64,
    /// Per-group mean utilities `f_i(S)`.
    pub group_means: Vec<f64>,
    /// Solution size `|S|`.
    pub size: usize,
}

impl Evaluation {
    /// Whether the BSM fairness constraint `g(S) ≥ τ·opt_g` holds
    /// (with a small numerical slack).
    pub fn satisfies(&self, tau: f64, opt_g: f64) -> bool {
        self.g + 1e-9 >= tau * opt_g
    }
}

/// Evaluates a solution under `system`, computing `f`, `g`, and all `f_i`.
pub fn evaluate<S: UtilitySystem>(system: &S, items: &[ItemId]) -> Evaluation {
    let mut state = SolutionState::new(system);
    state.insert_all(items);
    evaluate_state(&state)
}

/// Evaluates an already-built [`SolutionState`] without recomputation.
pub fn evaluate_state<S: UtilitySystem>(state: &SolutionState<'_, S>) -> Evaluation {
    let system = state.system();
    let m = system.num_users() as f64;
    let sizes = system.group_sizes();
    let sums = state.group_sums();
    let group_means: Vec<f64> = sums
        .iter()
        .zip(sizes)
        .map(|(&s, &m_i)| s / m_i as f64)
        .collect();
    let f = sums.iter().sum::<f64>() / m;
    let g = group_means.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    Evaluation {
        f,
        g,
        group_means,
        size: state.len(),
    }
}

/// Price of fairness: relative loss in utility of `fair` versus the
/// fairness-unaware optimum/approximation `unconstrained`,
/// `1 − f(fair)/f(unconstrained)`. Returns 0 when the denominator is 0.
pub fn price_of_fairness(unconstrained_f: f64, fair_f: f64) -> f64 {
    if unconstrained_f <= 0.0 {
        0.0
    } else {
        1.0 - fair_f / unconstrained_f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn figure1_worked_numbers() {
        // Example 3.1 of the paper.
        let sys = toy::figure1();
        let e12 = evaluate(&sys, &[0, 1]); // S12 = {v1, v2}
        assert!((e12.f - 0.75).abs() < 1e-12);
        let e14 = evaluate(&sys, &[0, 3]); // S14 = {v1, v4}
        assert!((e14.g - 5.0 / 9.0).abs() < 1e-12);
        assert!((e14.group_means[0] - 5.0 / 9.0).abs() < 1e-12);
        assert!((e14.group_means[1] - 2.0 / 3.0).abs() < 1e-12);
        let e13 = evaluate(&sys, &[0, 2]); // S13 = {v1, v3}
        assert!((e13.g - 1.0 / 3.0).abs() < 1e-12);
        assert!((e13.f - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn satisfies_constraint_with_slack() {
        let e = Evaluation {
            f: 1.0,
            g: 0.5,
            group_means: vec![0.5, 0.9],
            size: 2,
        };
        assert!(e.satisfies(0.9, 0.5555));
        assert!(!e.satisfies(1.0, 0.6));
    }

    #[test]
    fn price_of_fairness_bounds() {
        assert_eq!(price_of_fairness(0.0, 0.5), 0.0);
        assert!((price_of_fairness(1.0, 0.75) - 0.25).abs() < 1e-12);
        assert_eq!(price_of_fairness(2.0, 2.0), 0.0);
    }
}
