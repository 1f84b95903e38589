//! # fair-submod-coverage
//!
//! Maximum-coverage (MC) substrate: bipartite set systems, the
//! dominating-set construction used by the paper (`S(v) = N_out(v) ∪ {v}`
//! per node `v`), and [`CoverageOracle`] — the
//! [`UtilitySystem`](fair_submod_core::system::UtilitySystem)
//! implementation that drives all BSM algorithms on MC instances.
//!
//! In the paper's MC formulation, user `u`'s utility of a set `S` of
//! items is `1` if `u` is covered by the union of the chosen sets and `0`
//! otherwise, so `f(S)` is the average coverage and `g(S)` the minimum
//! average group coverage (Section 5.1).
//!
//! ## Example
//!
//! Fair maximum coverage on a tiny hand-built instance — the flow of
//! `examples/fair_coverage.rs`, minus the dataset generator. Set 0 is
//! the only set reaching the minority group (users 0–1), so the
//! fairness constraint forces it into the solution:
//!
//! ```
//! use fair_submod_core::prelude::*;
//! use fair_submod_coverage::{CoverageOracle, SetSystem};
//! use fair_submod_graphs::Groups;
//!
//! // 4 candidate sets over 6 users split into two groups ({0,1} | {2..5}).
//! let sets = vec![vec![0, 1], vec![2, 3], vec![3, 4, 5], vec![2, 4, 5]];
//! let groups = Groups::from_assignment(vec![0, 0, 1, 1, 1, 1]);
//! let oracle = CoverageOracle::new(SetSystem::new(sets, 6), &groups);
//!
//! // Fairness-unaware lazy greedy vs BSM-Saturate at τ = 0.8.
//! let f = MeanUtility::new(oracle.num_users());
//! let base = greedy(&oracle, &f, &GreedyConfig::lazy(2));
//! let fair = bsm_saturate(&oracle, &BsmSaturateConfig::new(2, 0.8));
//!
//! assert_eq!(base.items.len(), 2);
//! assert_eq!(fair.eval.size, 2);
//! // The minority group is served: its mean coverage is positive.
//! assert!(fair.eval.g > 0.0);
//! ```

pub mod dominating;
pub mod oracle;
pub mod set_system;

pub use dominating::{dominating_set_system, dominating_slice_system};
pub use oracle::{CoverageOracle, UnpackedCoverageOracle};
pub use set_system::SetSystem;
