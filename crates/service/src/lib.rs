//! # fair-submod-service
//!
//! Solve-as-a-service: a long-running BSM daemon speaking HTTP/1.1 +
//! JSON over [`std::net`] — no external dependencies beyond the
//! workspace's offline shims.
//!
//! After PR 3 every solve still paid full dataset materialization and
//! oracle construction per process invocation. This crate amortizes
//! that cost across requests: an [`store::InstanceStore`] materializes
//! each [`fair_submod_bench::scenario::DatasetRecipe`] once, builds the
//! substrate oracle, and caches the immutable
//! [`instance::Instance`] behind an `Arc` keyed by the FNV-1a hash of
//! its canonical JSON, with LRU eviction. Requests then pick solver
//! and parameters per call (τ/ε are query-time knobs over a fixed
//! ground set, exactly the query-primitive framing of the paper), and
//! the shared [`fair_submod_core::engine::SolverRegistry`] answers
//! them from any worker thread.
//!
//! Start the daemon with `cargo run -p fair-submod-service` (instance
//! flags: `--addr host:port`, `--capacity N` instances, `--rr-sets`,
//! `--mc-runs`, `--pokec-nodes`, `--quick`). It prints one line,
//! `fair-submod-service listening on <addr>`, once the socket is
//! bound.
//!
//! ## Concurrency model
//!
//! The server is an event-driven readiness loop
//! ([`event_loop::EventServer`], running on the workspace `polling`
//! shim — epoll on Linux, poll(2) elsewhere): one thread owns every
//! nonblocking connection, parses requests incrementally, and
//! dispatches them to a fixed [`workers::WorkerPool`] through a
//! bounded queue. Keep-alive connections may pipeline; responses are
//! re-sequenced into request order. When the queue is full the loop
//! sheds `503 + Retry-After` inline; a timer wheel reaps idle
//! connections and slowloris half-requests (`--idle-timeout-secs`,
//! `--read-timeout-secs`); bodies over [`http::MAX_BODY_BYTES`] draw
//! `413`; SIGINT/SIGTERM drain in-flight work before exit. Knobs:
//! `--workers`, `--queue-capacity`, `--max-connections`,
//! `--max-pipeline`. `tests/golden/surface.jsonl` pins the bytes of
//! every endpoint's answers (timing and host fields masked), and
//! `tests/service_concurrency.rs` replays the server against it.
//!
//! Per-tenant quotas ([`tenants::TenantQuotas`], keyed by the
//! `X-Tenant` header, default off) enforce a token bucket on solve
//! admissions (`--tenant-rate`/`--tenant-burst`, `429 + Retry-After`
//! past it) and occupancy caps on instance-store slots and parked
//! anytime sessions (`--tenant-max-instances`,
//! `--tenant-max-sessions`). Enforcement lives in the handler layer,
//! not the I/O loop. See DESIGN.md §10.
//!
//! ## Endpoints
//!
//! | Method + path | Purpose |
//! |---|---|
//! | `GET /healthz` | liveness + uptime, cache and request counters |
//! | `GET /registry` | solver capability listing from the registry |
//! | `GET /instances` | admin view of the instance store (keys, hit counts, LRU state) |
//! | `POST /solve` | one solver on one cell; returns the `SolveReport` JSON |
//! | `POST /solve/anytime` | a resumable solve in bounded step chunks with per-round progress |
//! | `POST /batch` | a solver grid on one instance, run concurrently on the shared pool |
//!
//! `POST /solve` takes a dataset recipe, a substrate, a registry
//! solver name, and scenario parameters:
//!
//! ```json
//! {
//!   "dataset": {"kind": "rand_mc", "c": 2, "n": 500},
//!   "substrate": "coverage",
//!   "solver": "BSM-TSGreedy",
//!   "params": {"k": 5, "tau": 0.8}
//! }
//! ```
//!
//! and answers with the solver's `SolveReport` (items, `f`, `g`,
//! per-group utilities, oracle calls, seconds). The
//! `X-Instance-Cache: hit|miss` response header reports whether the
//! instance came from the store; `X-Instance-Cache-Hits` carries the
//! store's cumulative hit counter. Typed solver rejections map to
//! statuses (unknown solver → 404, capability gap → 422, bad
//! parameters → 400) with the error's JSON in the body.
//!
//! `POST /batch` takes the same grid-job shape scenario specs use
//! (`solvers` × `ks` × `taus` × `epsilons` × `repetitions`) and runs
//! the expanded cells concurrently through
//! [`fair_submod_bench::harness::run_suite`] on the one shared
//! instance:
//!
//! ```json
//! {
//!   "dataset": {"kind": "rand_mc", "c": 2, "n": 500},
//!   "substrate": "coverage",
//!   "solvers": ["Greedy", "BSM-TSGreedy", "BSM-Saturate"],
//!   "ks": [5, 10],
//!   "taus": [0.2, 0.8]
//! }
//! ```
//!
//! `POST /solve/anytime` is the incremental variant of `/solve`: it
//! opens a resumable [`fair_submod_core::engine::SolveSession`] on the
//! cached instance, steps it for at most `max_rounds` rounds (default
//! 16), and reports per-round progress (`round`, `objective`,
//! `group_sums`, `solution_size`, `oracle_calls`). If the solve did
//! not finish, the response carries a `session` handle — embedding the
//! instance-store key — that a follow-up request resumes with
//! `{"session": "<handle>", "max_rounds": N}`; when it finishes, the
//! final `SolveReport` (bit-identical to `/solve` up to timing) is
//! included and the handle expires. Solvers whose registry capability
//! `resumable` is `false` complete in a single chunk.
//!
//! Load generation lives in the bench crate:
//! `cargo run -p fair-submod-bench --release --bin loadgen -- --quick
//! --spawn` spawns a daemon and drives a mixed read/solve workload
//! through an event-driven client (`--connections N`, `--pipeline D`,
//! `--mode closed|open`, `--no-keepalive`), writing p50/p95/p99/max
//! latencies, throughput, and error/shed counts to
//! `BENCH_service.json`; `--sweep` repeats the run at 16/256/1024
//! connections.

pub mod event_loop;
pub mod http;
pub mod instance;
pub mod server;
pub mod sessions;
pub mod store;
pub mod tenants;
pub mod workers;

pub use event_loop::{EventConfig, EventServer, ServerMetrics, ShutdownHandle};
pub use instance::{canonical_key, Instance, InstanceConfig};
pub use server::{serve, serve_with, ServiceState};
pub use sessions::{ParkedSession, SessionStore};
pub use store::{CacheStatus, InstanceStore};
pub use tenants::{QuotaConfig, TenantQuotas};
