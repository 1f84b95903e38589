//! # fair-submod-influence
//!
//! Influence-maximization (IM) substrate: the independent-cascade (IC)
//! and linear-threshold (LT) diffusion models (Kempe et al., 2003),
//! forward Monte-Carlo spread estimation (rayon-parallel; the paper uses
//! 10,000 runs per reported value), reverse-reachable (RR) set sampling
//! (Borgs et al., 2014), and [`RisOracle`] — the group-aware RIS
//! estimator that plugs IM into the BSM algorithm suite as a
//! [`UtilitySystem`](fair_submod_core::system::UtilitySystem).
//!
//! ## Estimator design
//!
//! An RR set rooted at a user `u` is the set of nodes that would have
//! influenced `u` under one random realization of the diffusion. For any
//! seed set `S`, `Pr[S covers a u-rooted RR set] = P_u(S)`, the
//! probability that `u` is influenced. Sampling roots per group therefore
//! yields unbiased estimates of every group utility
//! `f_i(S) = (1/m_i) Σ_{u∈U_i} P_u(S)` — IM becomes a *weighted coverage*
//! problem over RR sets, and the entire BSM machinery applies unchanged.
//! Final reported values always come from independent forward Monte-Carlo
//! simulation, as in the paper.
//!
//! The sample lives in one flat `u32` arena of RR-set node lists plus a
//! node → RR-set inverted index; per-node uncovered counters make a gain
//! query a counter read and an `apply` a walk over the arena slices of
//! the sets it newly covers (DESIGN.md §9, §11).
//!
//! ## Example
//!
//! Fair influence maximization on a tiny two-community graph — the flow
//! of `examples/fair_influence.rs`: select seeds on the stratified RIS
//! estimator, then report spread with independent forward simulation:
//!
//! ```
//! use fair_submod_core::prelude::*;
//! use fair_submod_graphs::{GraphBuilder, Groups};
//! use fair_submod_influence::oracle::RisConfig;
//! use fair_submod_influence::{monte_carlo_evaluate, DiffusionModel, RisOracle};
//!
//! // Two triangles bridged by a single edge; one group per community.
//! let mut builder = GraphBuilder::new(6, false);
//! builder.extend([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
//! let graph = builder.build();
//! let groups = Groups::from_assignment(vec![0, 0, 0, 1, 1, 1]);
//! let model = DiffusionModel::ic(0.3);
//!
//! // Seed selection happens on the group-stratified RIS oracle…
//! let oracle = RisOracle::generate(&graph, model, &groups, &RisConfig::new(500, 7));
//! let fair = bsm_saturate(&oracle, &BsmSaturateConfig::new(2, 0.8));
//! assert_eq!(fair.items.len(), 2);
//!
//! // …while reported numbers come from forward Monte-Carlo runs.
//! let eval = monte_carlo_evaluate(&graph, model, &groups, &fair.items, 200, 99);
//! assert!(eval.f > 0.0 && eval.g > 0.0);
//! ```

pub mod models;
pub mod oracle;
pub mod rr;
pub mod simulate;

pub use models::{DiffusionModel, EdgeWeighting};
pub use oracle::RisOracle;
pub use simulate::monte_carlo_evaluate;
