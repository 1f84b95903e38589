//! # fair-submod-bench
//!
//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (Section 5 and Appendix B), built on the solver
//! registry in [`fair_submod_core::engine`]:
//!
//! * [`harness`] — the registry-driven grid executor: expands a
//!   `(solver, k, τ, ε) × repetitions` grid into cells, runs them
//!   concurrently, and records capability gaps as typed errors.
//! * [`scenario`] — the declarative layer: serde-backed
//!   [`scenario::ScenarioSpec`]s (dataset recipes + substrate + solver
//!   list + grids) executed by [`scenario::run_spec`], with every run
//!   persisted as a JSON report artifact.
//! * [`report`] — aligned stdout tables and CSV export.
//! * [`args`] — the shared `--quick`/`--out`/… CLI flags.
//!
//! Each paper artifact is a built-in spec (see
//! [`scenario::builtin_specs`]) run by the one `scenarios` binary:
//!
//! | Spec | Paper artifact |
//! |---|---|
//! | `table1`, `table2` | dataset statistics |
//! | `fig3` | MC, vary τ (RAND c=2/c=4, DBLP) incl. `BSM-Optimal` |
//! | `fig4` | MC, vary k + runtime (Facebook, Pokec) |
//! | `fig5` | IM, vary τ (RAND c=2/c=4, DBLP) |
//! | `fig6` | IM, vary k + runtime (Facebook, Pokec) |
//! | `fig7` | FL, vary τ (RAND c=2/c=3, Adult-Small) incl. `BSM-Optimal` |
//! | `fig8` | FL, vary k + runtime (Adult, FourSquare) |
//! | `fig9` | BSM-Saturate, vary ε (Appendix B) |
//! | `fig10` | MC+IM, vary τ on Facebook (Appendix B) |
//! | `fig11` | MC+IM, vary k on DBLP (Appendix B) |
//! | `smoke` | CI: every registered solver on tiny instances |
//!
//! Run any spec with `cargo run -p fair-submod-bench --release --bin
//! scenarios -- --spec fig3`, and custom experiments with `--spec
//! path/to/spec.json` (schema: `crates/bench/specs/README.md`).
//! Common flags: `--quick` (thinned grids, exact solvers dropped),
//! `--out <dir>` (CSV/report output directory, default `experiments/`),
//! `--strict` (non-zero exit on rejected cells or empty solutions),
//! `--report <path>` (JSON artifact path), `--pokec-nodes <n>`,
//! `--mc-runs <n>`, `--rr-sets <n>`.
//!
//! Beyond the scenario runner, two bespoke binaries measure the system
//! itself: `perfbase` (oracle/kernel hot-path timings,
//! `BENCH_baseline.json`) and `loadgen` (latency percentiles and
//! throughput against the `fair-submod-service` solve daemon,
//! `BENCH_service.json`).

pub mod args;
pub mod harness;
pub mod report;
pub mod scenario;
