//! The scenario engine: one uniform execution boundary over the whole
//! solver suite.
//!
//! The paper's experiments form a grid of `(dataset, algorithm, k, τ)`
//! cells, and production workloads generalize that grid to arbitrary
//! scenarios. Historically every consumer of [`crate::algorithms`]
//! re-encoded the suite by hand — one `match` per algorithm, one config
//! type per call site. This module replaces that with three pieces:
//!
//! * **Type erasure** ([`DynUtilitySystem`] / [`ErasedSystem`]) — an
//!   object-safe view of [`crate::system::UtilitySystem`] so solvers
//!   can run behind trait objects while the generic algorithms (and
//!   their parallel batch overrides) execute unchanged.
//! * **The [`Solver`] trait + [`SolverRegistry`]** — every algorithm
//!   entry point wrapped as a named, capability-flagged adapter
//!   ([`adapters`]) with a uniform
//!   `solve(&dyn DynUtilitySystem, &ScenarioParams) -> SolveReport`
//!   boundary. Capability gaps (SMSC needs `c = 2`, exact solvers cap
//!   instance sizes) are typed [`SolverError`]s, never panics.
//! * **Serializable cells** — [`ScenarioParams`] and [`SolveReport`]
//!   round-trip through the serde shim's JSON layer, so scenario specs
//!   and results persist as artifacts.
//! * **Resumable sessions** ([`session`]) — every solver opens as a
//!   [`SolveSession`] state machine (`step`/`snapshot`/`solution_at`);
//!   the greedy family, Saturate, both BSM schemes, GreeDi, and
//!   Sieve-Streaming step natively ([`Capabilities::resumable`]), and
//!   greedy sessions serve an entire budget axis from one warm run via
//!   exact prefix extraction.
//! * **Stage reuse** ([`StageMemo`], [`MemoSystem`]) — compute-once
//!   slots for the τ-independent stages of the BSM schemes, carried by
//!   the system so many `(k, τ)` queries against one resident instance
//!   pay for greedy on `f` and Saturate on `g` once.
//! * **The sharded tier** ([`sharded`]) — [`ShardedInstance`] holds an
//!   instance as per-shard oracles plus a merge builder (no full-ground-
//!   set oracle ever exists) and solves it with two-round GreeDi,
//!   bit-identically to the centralized algorithm.
//!
//! ```
//! use fair_submod_core::engine::{ScenarioParams, SolverRegistry};
//! use fair_submod_core::toy;
//!
//! let system = toy::figure1();
//! let registry = SolverRegistry::default();
//! let report = registry
//!     .solve("BSM-Saturate", &system, &ScenarioParams::new(2, 0.8))
//!     .unwrap();
//! assert_eq!(report.items.len(), 2);
//! assert!(report.weakly_feasible());
//! ```

pub mod adapters;
mod erased;
mod memo;
mod params;
mod registry;
mod report;
pub mod session;
pub mod sharded;

pub use erased::{DynState, DynUtilitySystem, ErasedSystem};
pub use memo::{MemoSystem, StageMemo};
pub use params::ScenarioParams;
pub use registry::{Capabilities, Solver, SolverRegistry};
pub use report::{SolveReport, SolverError};
pub use session::{OneShotSession, PartialSolution, SessionStatus, SolveSession};
pub use sharded::{
    validate_shard_members, validate_shard_partition, MergeBuilder, ShardBuilder, ShardOracle,
    ShardedInstance, SubsetSystem,
};
