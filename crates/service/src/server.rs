//! The request layer: shared service state and the endpoint router.
//!
//! One [`ServiceState`] lives for the whole daemon: the solver
//! registry (built once), the instance store, and request counters.
//! Every worker thread routes through [`ServiceState::handle`],
//! which is a pure `&self` function — all mutability is behind the
//! store's internal lock and atomic counters, so requests on different
//! instances never serialize on each other.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::json::{obj, parse_bytes, Value};
use serde::{FromJson, ToJson};

use rayon::prelude::*;

use fair_submod_bench::harness::{run_suite, GridConfig};
use fair_submod_bench::scenario::{cell_to_json, DatasetRecipe, GridJob, SubstrateSpec};
use fair_submod_core::engine::{
    MergeBuilder, ScenarioParams, ShardOracle, ShardedGreediSession, ShardedInstance,
    ShardedSieveSession, SolveSession, SolverError, SolverRegistry,
};
use fair_submod_core::prelude::shard_partition;

use crate::event_loop::{EventConfig, EventServer};
use crate::http::{Request, Response};
use crate::instance::{
    canonical_key, shard_canonical_key, validate_request, Instance, InstanceConfig,
};
use crate::sessions::{ParkedSession, SessionStore};
use crate::store::{CacheStatus, InstanceStore, OccupancyExceeded, StoreEntry};
use crate::tenants::{QuotaConfig, TenantQuotas};

/// Maximum parked anytime sessions (oldest evicted past this; see
/// [`SessionStore`]).
pub const ANYTIME_SESSION_CAPACITY: usize = 64;

/// Default (and maximum) session steps per `POST /solve/anytime` chunk.
const DEFAULT_ANYTIME_CHUNK: usize = 16;
const MAX_ANYTIME_CHUNK: usize = 100_000;

/// Maximum shard count a `POST /solve` request may ask for. Each shard
/// registers its own instance-store slot, so an unbounded `shards`
/// would let one request flood the LRU cache.
pub const MAX_SOLVE_SHARDS: usize = 64;

/// Long-lived daemon state shared by all worker threads.
pub struct ServiceState {
    /// The full solver suite, built once at startup.
    pub registry: SolverRegistry,
    /// The cached instance store.
    pub store: InstanceStore,
    /// Parked anytime solve sessions (`POST /solve/anytime`).
    pub sessions: SessionStore,
    /// Build knobs for new instances (part of the cache key).
    pub instance_cfg: InstanceConfig,
    /// Per-tenant admission and occupancy limits (unlimited unless
    /// configured via [`Self::with_quotas`]).
    pub quotas: TenantQuotas,
    started: Instant,
    requests: AtomicU64,
    solves: AtomicU64,
}

impl ServiceState {
    /// Fresh state with the default registry and an empty store
    /// holding at most `capacity` instances.
    pub fn new(capacity: usize, instance_cfg: InstanceConfig) -> Self {
        Self {
            registry: SolverRegistry::default(),
            store: InstanceStore::new(capacity),
            sessions: SessionStore::new(ANYTIME_SESSION_CAPACITY),
            instance_cfg,
            quotas: TenantQuotas::new(QuotaConfig::unlimited()),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            solves: AtomicU64::new(0),
        }
    }

    /// Replaces the tenant quota limits (builder-style, before the
    /// state is shared).
    pub fn with_quotas(mut self, config: QuotaConfig) -> Self {
        self.quotas = TenantQuotas::new(config);
        self
    }

    /// Caps the instance store's total advisory footprint at `budget`
    /// bytes (builder-style; `usize::MAX` = unlimited). Past the budget
    /// the store evicts least-recently-used built entries after each
    /// build (DESIGN.md §11).
    pub fn with_instance_byte_budget(mut self, budget: usize) -> Self {
        let store = std::mem::replace(&mut self.store, InstanceStore::new(1));
        self.store = store.with_byte_budget(budget);
        self
    }

    /// Routes one request. Panics in handlers (there should be none —
    /// solver rejections are typed errors) are caught and mapped to a
    /// 500. A stack overflow is not a panic and would abort the
    /// process; request bodies cannot cause one because the JSON
    /// parser caps nesting at [`serde::json::MAX_DEPTH`].
    pub fn handle(&self, request: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| self.route(request)));
        result.unwrap_or_else(|_| {
            Response::json(
                500,
                &obj([("error", Value::Str("internal handler panic".into()))]),
            )
        })
    }

    fn route(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/registry") => self.registry_listing(),
            ("GET", "/instances") => self.instances(),
            // The CPU-heavy endpoints pay a tenant rate token first.
            ("POST", "/solve") => match self.admit_tenant(request) {
                Ok(tenant) => self.solve(tenant, &request.body),
                Err(refused) => *refused,
            },
            ("POST", "/solve/anytime") => match self.admit_tenant(request) {
                Ok(tenant) => self.solve_anytime(tenant, &request.body),
                Err(refused) => *refused,
            },
            ("POST", "/batch") => match self.admit_tenant(request) {
                Ok(tenant) => self.batch(tenant, &request.body),
                Err(refused) => *refused,
            },
            ("GET", "/solve" | "/solve/anytime" | "/batch")
            | ("POST", "/healthz" | "/registry" | "/instances") => {
                error_response(405, "method not allowed for this endpoint")
            }
            _ => error_response(404, "no such endpoint"),
        }
    }

    /// Charges one solve token to the request's tenant; a drained
    /// bucket becomes the `429` + `Retry-After` refusal.
    fn admit_tenant<'r>(&self, request: &'r Request) -> Result<&'r str, Box<Response>> {
        let tenant = request.tenant();
        match self.quotas.admit_solve(tenant) {
            Ok(()) => Ok(tenant),
            Err(refusal) => Err(Box::new(
                Response::json(
                    429,
                    &obj([
                        (
                            "error",
                            Value::Str("tenant solve rate limit exceeded".into()),
                        ),
                        ("tenant", Value::Str(tenant.to_string())),
                        (
                            "retry_after_seconds",
                            Value::Num(refusal.retry_after_secs as f64),
                        ),
                    ]),
                )
                .with_header("Retry-After", refusal.retry_after_secs.to_string()),
            )),
        }
    }

    /// The `/instances` admin view: the store snapshot (per-entry
    /// advisory bytes, store-wide totals, byte budget) plus the
    /// daemon's own peak RSS — self-reported so clients that spawned
    /// the daemon through a wrapper (`cargo run`) can still read it.
    fn instances(&self) -> Response {
        let mut snapshot = self.store.snapshot_json();
        if let Value::Obj(pairs) = &mut snapshot {
            pairs.push((
                "peak_rss_mib".to_string(),
                peak_rss_mib().map_or(Value::Null, Value::Num),
            ));
        }
        Response::json(200, &snapshot)
    }

    fn healthz(&self) -> Response {
        let stats = self.store.stats();
        Response::json(
            200,
            &obj([
                ("status", Value::Str("ok".into())),
                (
                    "uptime_seconds",
                    Value::Num(self.started.elapsed().as_secs_f64()),
                ),
                ("solvers", Value::Num(self.registry.len() as f64)),
                ("instances", Value::Num(stats.len as f64)),
                ("cache_hits", Value::Num(stats.hits as f64)),
                ("cache_misses", Value::Num(stats.misses as f64)),
                (
                    "requests",
                    Value::Num(self.requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "solves",
                    Value::Num(self.solves.load(Ordering::Relaxed) as f64),
                ),
                ("anytime_sessions", Value::Num(self.sessions.len() as f64)),
                ("threads", Value::Num(rayon::current_num_threads() as f64)),
            ]),
        )
    }

    fn registry_listing(&self) -> Response {
        let solvers: Vec<Value> = self
            .registry
            .names()
            .into_iter()
            .map(|name| {
                let caps = self
                    .registry
                    .get(name)
                    .expect("listed names resolve")
                    .capabilities();
                obj([
                    ("name", Value::Str(name.into())),
                    ("capabilities", caps.to_json()),
                ])
            })
            .collect();
        Response::json(
            200,
            &obj([
                ("count", Value::Num(solvers.len() as f64)),
                ("solvers", Value::Arr(solvers)),
            ]),
        )
    }

    /// Registers + builds (or reuses) the instance for a validated
    /// request, returning the entry and whether the store already knew
    /// the key. A miss that would push the tenant past its
    /// instance-occupancy cap is refused with `429`.
    fn instance_entry(
        &self,
        recipe: DatasetRecipe,
        substrate: SubstrateSpec,
        tenant: &str,
    ) -> Result<(Arc<StoreEntry>, CacheStatus), Box<Response>> {
        let (key, canonical) = canonical_key(&recipe, &substrate, &self.instance_cfg);
        let max = self.quotas.config().max_instances;
        let (entry, status) = self
            .store
            .get_or_insert_for(&key, &canonical, tenant, max)
            .map_err(occupancy_response)?;
        entry.get_or_build(|| Instance::build(recipe, substrate, &self.instance_cfg));
        // The build just changed the store's resident footprint; evict
        // colder entries past the byte budget (never this one).
        self.store.enforce_byte_budget(&key);
        Ok((entry, status))
    }

    /// Builds (or reuses) the `num_shards` shard oracles of `entry`'s
    /// central instance and assembles them into a [`ShardedInstance`]
    /// whose merge phase restricts the central oracle to the round-2
    /// pool. Every shard is its own instance-store entry under
    /// [`shard_canonical_key`], built in parallel on the worker pool —
    /// so a repeat request with the same recipe, shard count, and seed
    /// reuses all of them. The returned status is `hit` only when every
    /// shard entry (the central one is the caller's) was already
    /// registered.
    fn sharded_instance(
        &self,
        tenant: &str,
        entry: &Arc<StoreEntry>,
        solver: &str,
        params: &ScenarioParams,
        num_shards: usize,
    ) -> Result<(Arc<ShardedInstance>, CacheStatus), Box<Response>> {
        let central = entry.built().expect("instance_entry builds");
        let invalid = |message: String| {
            let error = SolverError::InvalidParams {
                solver: solver.to_string(),
                message,
            };
            Box::new(Response::json(400, &error.to_json()))
        };
        if num_shards > central.num_items {
            return Err(invalid(format!(
                "shards must not exceed the instance's {} items (got {num_shards})",
                central.num_items
            )));
        }
        // Mirror the centralized SieveStreaming adapter's domain check
        // before doing any shard work.
        if solver == "SieveStreaming" && !(params.epsilon > 0.0 && params.epsilon < 1.0) {
            return Err(invalid(format!(
                "epsilon must lie in (0, 1), got {}",
                params.epsilon
            )));
        }
        let mut partition = shard_partition(central.num_items, num_shards, params.seed);
        for members in &mut partition {
            members.sort_unstable();
        }
        let max = self.quotas.config().max_instances;
        let seed = params.seed;
        let indexed: Vec<(usize, Vec<u32>)> = partition.into_iter().enumerate().collect();
        let built = indexed
            .into_par_iter()
            .map(|(s, members)| {
                let (key, canonical) = shard_canonical_key(&entry.canonical, s, num_shards, seed);
                let (shard_entry, status) = self
                    .store
                    .get_or_insert_for(&key, &canonical, tenant, max)
                    .map_err(occupancy_response)?;
                shard_entry.get_or_build(|| {
                    Instance::build_shard(central, s, num_shards, &members)
                        .expect("shard_partition members are a valid restriction")
                });
                self.store.enforce_byte_budget(&key);
                Ok((shard_entry, status, members))
            })
            .collect::<Vec<Result<_, Box<Response>>>>()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let all_hit = built.iter().all(|(_, s, _)| *s == CacheStatus::Hit);
        let shards: Vec<ShardOracle> = built
            .into_iter()
            .map(|(shard_entry, _, members)| {
                let system = shard_entry
                    .built()
                    .expect("get_or_build built the shard entry")
                    .shard_system()
                    .expect("shard keys only ever hold shard instances");
                ShardOracle { members, system }
            })
            .collect();
        // The merge oracle restricts the *central* instance to the
        // round-2 pool; holding the entry's Arc keeps it alive across
        // LRU eviction for the sharded instance's whole life.
        let central_entry = Arc::clone(entry);
        let merge: MergeBuilder = Box::new(move |pool| {
            central_entry
                .built()
                .expect("merge runs on a built central entry")
                .restrict_system(pool)
                .expect("merge pool ids come from shard members")
        });
        let instance = ShardedInstance::new(shards, merge)
            .map_err(|e| Box::new(Response::json(solver_error_status(&e), &e.to_json())))?;
        Ok((
            Arc::new(instance),
            if all_hit {
                CacheStatus::Hit
            } else {
                CacheStatus::Miss
            },
        ))
    }

    /// Opens the sharded session for one of the two shard-capable
    /// solvers (the only names [`parse_shards`] admits).
    fn open_sharded_session(
        instance: &Arc<ShardedInstance>,
        solver: &str,
        params: &ScenarioParams,
    ) -> Box<dyn SolveSession> {
        match solver {
            "GreeDi" => Box::new(ShardedGreediSession::open(Arc::clone(instance), params)),
            _ => Box::new(ShardedSieveSession::open(instance, params)),
        }
    }

    /// `POST /solve` with a `shards` field: drives the sharded session
    /// to completion server-side and finishes it against the central
    /// system, so the report is identical to the centralized solver's
    /// for the same recipe and params (up to wall-clock `seconds`).
    fn solve_sharded(
        &self,
        tenant: &str,
        entry: &Arc<StoreEntry>,
        central_status: CacheStatus,
        solver: &str,
        params: &ScenarioParams,
        num_shards: usize,
    ) -> Response {
        let started = Instant::now();
        let (sharded, shard_status) =
            match self.sharded_instance(tenant, entry, solver, params, num_shards) {
                Ok(ok) => ok,
                Err(refused) => return *refused,
            };
        let status = combine_status(central_status, shard_status);
        let mut session = Self::open_sharded_session(&sharded, solver, params);
        let central = entry.built().expect("instance_entry builds");
        let system = central.system();
        while !session.done() {
            session.step(system);
        }
        self.solves.fetch_add(1, Ordering::Relaxed);
        match session.finish(system) {
            Ok(mut report) => {
                let eval = central.evaluate(&report.items);
                report.f = eval.f;
                report.g = eval.g;
                report.group_utilities = eval.group_means;
                report.seconds = started.elapsed().as_secs_f64();
                Response::json(200, &report.to_json())
                    .with_header("X-Instance-Cache", status.as_str())
                    .with_header("X-Instance-Key", entry.key.clone())
                    .with_header("X-Instance-Cache-Hits", self.store.stats().hits.to_string())
            }
            Err(error) => Response::json(solver_error_status(&error), &error.to_json())
                .with_header("X-Instance-Cache", status.as_str()),
        }
    }

    fn solve(&self, tenant: &str, body: &[u8]) -> Response {
        let (recipe, substrate, value) = match parse_instance_request(body) {
            Ok(parts) => parts,
            Err(response) => return *response,
        };
        let solver = match value.get("solver").and_then(Value::as_str) {
            Some(s) => s.to_string(),
            None => return error_response(400, "request needs a 'solver' name"),
        };
        let mut params = match value.get("params") {
            Some(p) => match ScenarioParams::from_json(p) {
                Ok(params) => params,
                Err(e) => return error_response(400, &format!("bad params: {e}")),
            },
            None => return error_response(400, "request needs a 'params' object with k and tau"),
        };
        let shards = match parse_shards(&value, &solver) {
            Ok(shards) => shards,
            Err(refused) => return *refused,
        };

        let (entry, status) = match self.instance_entry(recipe, substrate, tenant) {
            Ok(found) => found,
            Err(refused) => return *refused,
        };
        if let Some(num_shards) = shards {
            // Keep the report's "shards" note consistent with the
            // partition actually used (and with a centralized GreeDi
            // run of the same params, which reads `params.shards`).
            params.shards = num_shards;
            return self.solve_sharded(tenant, &entry, status, &solver, &params, num_shards);
        }
        let instance = entry.built().expect("instance_entry builds");
        self.solves.fetch_add(1, Ordering::Relaxed);
        match self.registry.solve(&solver, instance.system(), &params) {
            Ok(mut report) => {
                // Re-evaluate the solution the way the harness does
                // (Monte-Carlo for influence, oracle-exact otherwise).
                let eval = instance.evaluate(&report.items);
                report.f = eval.f;
                report.g = eval.g;
                report.group_utilities = eval.group_means;
                Response::json(200, &report.to_json())
                    .with_header("X-Instance-Cache", status.as_str())
                    .with_header("X-Instance-Key", entry.key.clone())
                    .with_header("X-Instance-Cache-Hits", self.store.stats().hits.to_string())
            }
            Err(error) => Response::json(solver_error_status(&error), &error.to_json())
                .with_header("X-Instance-Cache", status.as_str()),
        }
    }

    /// `POST /solve/anytime`: runs a resumable solve in bounded step
    /// chunks with per-round progress.
    ///
    /// Opening request: the `/solve` body plus optional `max_rounds`
    /// (steps this chunk, default 16). If the session finishes within
    /// the chunk the final `report` is returned; otherwise the response
    /// carries a `session` handle (embedding the instance-store key) to
    /// resume with `{"session": "<handle>", "max_rounds": N}`. Solvers
    /// without a native incremental core (capability `resumable =
    /// false`) complete in one chunk by construction. A handle is
    /// single-flight: while one request steps it, concurrent resumes
    /// see 404.
    fn solve_anytime(&self, tenant: &str, body: &[u8]) -> Response {
        let Ok(value) = parse_bytes(body) else {
            return error_response(400, "bad JSON body");
        };
        let max_rounds = value
            .get("max_rounds")
            .and_then(Value::as_usize)
            .unwrap_or(DEFAULT_ANYTIME_CHUNK)
            .clamp(1, MAX_ANYTIME_CHUNK);

        // Resume path: handle only, no dataset re-validation needed —
        // the parked session pins its instance through the entry Arc.
        if let Some(handle) = value.get("session").and_then(Value::as_str) {
            let Some(parked) = self.sessions.take(handle) else {
                return error_response(
                    404,
                    "unknown session handle (finished, evicted, or being stepped)",
                );
            };
            return self.step_session_chunk(parked, max_rounds);
        }

        // Open path: same shape as /solve (the body was parsed once
        // above for max_rounds/session).
        let (recipe, substrate) = match parse_instance_value(&value) {
            Ok(parts) => parts,
            Err(response) => return *response,
        };
        let solver = match value.get("solver").and_then(Value::as_str) {
            Some(s) => s.to_string(),
            None => return error_response(400, "request needs a 'solver' name"),
        };
        let mut params = match value.get("params") {
            Some(p) => match ScenarioParams::from_json(p) {
                Ok(params) => params,
                Err(e) => return error_response(400, &format!("bad params: {e}")),
            },
            None => return error_response(400, "request needs a 'params' object with k and tau"),
        };
        let shards = match parse_shards(&value, &solver) {
            Ok(shards) => shards,
            Err(refused) => return *refused,
        };

        let (entry, mut status) = match self.instance_entry(recipe, substrate, tenant) {
            Ok(found) => found,
            Err(refused) => return *refused,
        };
        let instance = entry.built().expect("instance_entry builds");
        let session = if let Some(num_shards) = shards {
            params.shards = num_shards;
            let (sharded, shard_status) =
                match self.sharded_instance(tenant, &entry, &solver, &params, num_shards) {
                    Ok(ok) => ok,
                    Err(refused) => return *refused,
                };
            status = combine_status(status, shard_status);
            // Sharded sessions own their shard oracles and ignore the
            // system passed to `step`; parking them on the *central*
            // entry makes `finish` evaluate against the central oracle,
            // so the final report matches the centralized solver's.
            Self::open_sharded_session(&sharded, &solver, &params)
        } else {
            match self
                .registry
                .open_session(&solver, instance.system(), &params)
            {
                Ok(session) => session,
                Err(error) => {
                    return Response::json(solver_error_status(&error), &error.to_json())
                        .with_header("X-Instance-Cache", status.as_str())
                }
            }
        };
        self.solves.fetch_add(1, Ordering::Relaxed);
        let parked = ParkedSession {
            id: self.sessions.mint_id(&entry.key),
            tenant: tenant.to_string(),
            solver,
            k: params.k,
            entry: Arc::clone(&entry),
            session,
            steps: 0,
        };
        self.step_session_chunk(parked, max_rounds)
            .with_header("X-Instance-Cache", status.as_str())
    }

    /// Steps a (fresh or resumed) session for up to `max_rounds`
    /// rounds, collecting one progress row per round, and either
    /// returns the final report or parks the session for the next
    /// chunk.
    fn step_session_chunk(&self, mut parked: ParkedSession, max_rounds: usize) -> Response {
        let start = Instant::now();
        let mut progress: Vec<Value> = Vec::new();
        {
            let instance = parked
                .entry
                .built()
                .expect("parked sessions hold built entries");
            let system = instance.system();
            let mut chunk_steps = 0usize;
            while chunk_steps < max_rounds && !parked.session.done() {
                parked.session.step(system);
                parked.steps += 1;
                chunk_steps += 1;
                let snap = parked.session.snapshot();
                progress.push(obj([
                    ("round", Value::Num(snap.round as f64)),
                    ("objective", Value::Num(snap.objective)),
                    (
                        "group_sums",
                        Value::Arr(snap.group_sums.iter().map(|&s| Value::Num(s)).collect()),
                    ),
                    ("solution_size", Value::Num(snap.items.len() as f64)),
                    ("oracle_calls", Value::Num(snap.oracle_calls as f64)),
                ]));
            }
        }
        let done = parked.session.done();
        let mut pairs: Vec<(&'static str, Value)> = vec![
            ("solver", Value::Str(parked.solver.clone())),
            ("k", Value::Num(parked.k as f64)),
            ("done", Value::Bool(done)),
            ("steps_total", Value::Num(parked.steps as f64)),
            ("instance_key", Value::Str(parked.entry.key.clone())),
            ("seconds", Value::Num(start.elapsed().as_secs_f64())),
            ("progress", Value::Arr(progress)),
        ];
        if done {
            let instance = parked
                .entry
                .built()
                .expect("parked sessions hold built entries");
            let mut report = match parked.session.finish(instance.system()) {
                Ok(report) => report,
                Err(error) => return Response::json(solver_error_status(&error), &error.to_json()),
            };
            // Re-evaluate the way /solve does (Monte-Carlo for
            // influence, oracle-exact otherwise).
            let eval = instance.evaluate(&report.items);
            report.f = eval.f;
            report.g = eval.g;
            report.group_utilities = eval.group_means;
            pairs.push(("report", report.to_json()));
            // Finished sessions are not re-parked; the handle dies.
        } else {
            let handle = parked.id.clone();
            let max = self.quotas.config().max_sessions;
            if self.sessions.park_for(parked, max).is_err() {
                // The chunk's work is discarded — honest accounting:
                // a tenant at its session cap cannot bank more state.
                return Response::json(
                    429,
                    &obj([
                        (
                            "error",
                            Value::Str("tenant session quota exceeded; progress discarded".into()),
                        ),
                        ("limit", Value::Num(max as f64)),
                    ]),
                )
                .with_header("Retry-After", "1");
            }
            pairs.push(("session", Value::Str(handle)));
        }
        Response::json(200, &obj(pairs))
    }

    fn batch(&self, tenant: &str, body: &[u8]) -> Response {
        let job = match parse_bytes(body)
            .map_err(|e| e.to_string())
            .and_then(|v| GridJob::from_json(&v).map_err(|e| e.to_string()))
        {
            Ok(job) => job,
            Err(message) => return error_response(400, &format!("bad batch job: {message}")),
        };
        if let Err(message) = job.validate() {
            return error_response(400, &message);
        }
        if let Err(message) = validate_request(&job.dataset, &job.substrate) {
            return error_response(400, &message);
        }
        let mut base = ScenarioParams::new(job.ks[0], job.taus[0]);
        if let Some(limit) = job.exact_node_limit {
            base.exact_node_limit = limit;
        }
        let grid = GridConfig {
            solvers: job.solvers.clone(),
            ks: job.ks.clone(),
            taus: job.taus.clone(),
            epsilons: job.epsilons.clone(),
            shards: job.shards.clone(),
            repetitions: job.repetitions.max(1),
            warm_sweeps: true,
            base,
        };
        let num_cells = match grid.num_cells() {
            Ok(n) => n,
            Err(e) => return error_response(400, &format!("bad batch grid: {e}")),
        };

        let (entry, status) =
            match self.instance_entry(job.dataset.clone(), job.substrate.clone(), tenant) {
                Ok(found) => found,
                Err(refused) => return *refused,
            };
        let instance = entry.built().expect("instance_entry builds");
        self.solves.fetch_add(num_cells as u64, Ordering::Relaxed);
        let results = match run_suite(
            instance.system(),
            &|items| instance.evaluate_capped(items, job.mc_runs_cap),
            &self.registry,
            &grid,
        ) {
            Ok(results) => results,
            Err(e) => return error_response(400, &format!("bad batch grid: {e}")),
        };
        let label = format!("{}{}", instance.dataset_name, job.label_suffix);
        let mut ok_cells = 0usize;
        let mut capability_gaps = 0usize;
        let mut error_cells = 0usize;
        let cells: Vec<Value> = results
            .iter()
            .map(|cell| {
                match &cell.outcome {
                    Ok(_) => ok_cells += 1,
                    Err(
                        SolverError::UnsupportedGroupCount { .. }
                        | SolverError::GridTooLarge { .. },
                    ) => capability_gaps += 1,
                    Err(_) => error_cells += 1,
                }
                cell_to_json(&label, cell)
            })
            .collect();
        Response::json(
            200,
            &obj([
                ("dataset", Value::Str(label)),
                ("ok_cells", Value::Num(ok_cells as f64)),
                ("capability_gaps", Value::Num(capability_gaps as f64)),
                ("error_cells", Value::Num(error_cells as f64)),
                ("cells", Value::Arr(cells)),
            ]),
        )
        .with_header("X-Instance-Cache", status.as_str())
        .with_header("X-Instance-Key", entry.key.clone())
    }
}

/// Parses and validates the `dataset` + `substrate` of a request body,
/// returning the remaining JSON for endpoint-specific fields.
fn parse_instance_request(
    body: &[u8],
) -> Result<(DatasetRecipe, SubstrateSpec, Value), Box<Response>> {
    let value = parse_bytes(body)
        .map_err(|e| Box::new(error_response(400, &format!("bad JSON body: {e}"))))?;
    let (recipe, substrate) = parse_instance_value(&value)?;
    Ok((recipe, substrate, value))
}

/// [`parse_instance_request`] over an already-parsed body, for handlers
/// that read other fields first.
fn parse_instance_value(value: &Value) -> Result<(DatasetRecipe, SubstrateSpec), Box<Response>> {
    let recipe = value
        .get("dataset")
        .ok_or_else(|| Box::new(error_response(400, "request needs a 'dataset' recipe")))
        .and_then(|v| {
            DatasetRecipe::from_json(v)
                .map_err(|e| Box::new(error_response(400, &format!("bad dataset: {e}"))))
        })?;
    let substrate = value
        .get("substrate")
        .ok_or_else(|| Box::new(error_response(400, "request needs a 'substrate'")))
        .and_then(|v| {
            SubstrateSpec::from_json(v)
                .map_err(|e| Box::new(error_response(400, &format!("bad substrate: {e}"))))
        })?;
    validate_request(&recipe, &substrate).map_err(|m| Box::new(error_response(400, &m)))?;
    Ok((recipe, substrate))
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux. Self-reported through
/// `/instances` so benchmark clients that spawned the daemon behind a
/// wrapper process can read the daemon's own high-water mark.
#[cfg(target_os = "linux")]
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_mib() -> Option<f64> {
    None
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, &obj([("error", Value::Str(message.into()))]))
}

/// The `429` a tenant gets when a registration would push it past its
/// instance-occupancy cap (shared by the central and shard entries).
fn occupancy_response(occupancy: OccupancyExceeded) -> Box<Response> {
    Box::new(
        Response::json(
            429,
            &obj([
                ("error", Value::Str("tenant instance quota exceeded".into())),
                ("tenant", Value::Str(occupancy.tenant)),
                ("held", Value::Num(occupancy.held as f64)),
                ("limit", Value::Num(occupancy.limit as f64)),
            ]),
        )
        .with_header("Retry-After", "1"),
    )
}

/// `hit` only when both the central entry and every shard entry were
/// already registered — a partial reuse still rebuilt something.
fn combine_status(a: CacheStatus, b: CacheStatus) -> CacheStatus {
    if a == CacheStatus::Hit && b == CacheStatus::Hit {
        CacheStatus::Hit
    } else {
        CacheStatus::Miss
    }
}

/// Parses the optional top-level `shards` field of a solve body:
/// `None` means a centralized solve, `Some(p)` a validated sharded one.
/// Rejections are the engine's typed `invalid_params` JSON, not bare
/// strings, so clients can dispatch on `kind`.
fn parse_shards(value: &Value, solver: &str) -> Result<Option<usize>, Box<Response>> {
    let Some(raw) = value.get("shards") else {
        return Ok(None);
    };
    let invalid = |message: String| {
        let error = SolverError::InvalidParams {
            solver: solver.to_string(),
            message,
        };
        Box::new(Response::json(400, &error.to_json()))
    };
    let shards = raw
        .as_usize()
        .filter(|p| (1..=MAX_SOLVE_SHARDS).contains(p))
        .ok_or_else(|| {
            invalid(format!(
                "'shards' must be an integer in 1..={MAX_SOLVE_SHARDS} (got {raw:?})"
            ))
        })?;
    if !matches!(solver, "GreeDi" | "SieveStreaming") {
        return Err(invalid(format!(
            "sharded solves support GreeDi and SieveStreaming (got {solver})"
        )));
    }
    Ok(Some(shards))
}

fn solver_error_status(error: &SolverError) -> u16 {
    match error {
        SolverError::UnknownSolver { .. } => 404,
        SolverError::UnsupportedGroupCount { .. } | SolverError::GridTooLarge { .. } => 422,
        SolverError::InvalidParams { .. } => 400,
    }
}

/// Binds `addr` and serves `state` on the **event-driven** server with
/// default [`EventConfig`] (the readiness loop blocks the calling
/// thread; it returns only after a graceful shutdown). Reports the
/// bound address through `on_bound` before entering the loop, so
/// callers can log the ephemeral port.
pub fn serve(
    addr: &str,
    state: Arc<ServiceState>,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<()> {
    serve_with(addr, state, EventConfig::default(), on_bound)
}

/// [`serve`] with explicit event-loop knobs.
pub fn serve_with(
    addr: &str,
    state: Arc<ServiceState>,
    config: EventConfig,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<()> {
    let server = EventServer::bind(addr, config)?;
    on_bound(server.local_addr()?);
    server.run(Arc::new(move |request: &Request| state.handle(request)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn state() -> ServiceState {
        ServiceState::new(4, InstanceConfig::default().quick())
    }

    const TINY_SOLVE: &str = r#"{
        "dataset": {"kind": "rand_mc", "c": 2, "n": 40},
        "substrate": "coverage",
        "solver": "Greedy",
        "params": {"k": 3, "tau": 0.8}
    }"#;

    #[test]
    fn healthz_and_registry_respond() {
        let s = state();
        let health = s.handle(&get("/healthz"));
        assert_eq!(health.status, 200);
        let body = parse_bytes(&health.body).unwrap();
        assert_eq!(body.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(body.get("solvers").and_then(Value::as_usize), Some(16));

        let registry = s.handle(&get("/registry"));
        assert_eq!(registry.status, 200);
        let body = parse_bytes(&registry.body).unwrap();
        let solvers = body.get("solvers").and_then(Value::as_arr).unwrap();
        assert_eq!(solvers.len(), 16);
        assert!(solvers.iter().any(|v| {
            v.get("name").and_then(Value::as_str) == Some("SMSC")
                && v.get("capabilities")
                    .and_then(|c| c.get("requires_two_groups"))
                    .and_then(Value::as_bool)
                    == Some(true)
        }));
    }

    #[test]
    fn instances_view_reports_bytes_and_rss() {
        let s = state();
        assert_eq!(s.handle(&post("/solve", TINY_SOLVE)).status, 200);
        let view = s.handle(&get("/instances"));
        assert_eq!(view.status, 200);
        let body = parse_bytes(&view.body).unwrap();
        let total = body.get("total_bytes").and_then(Value::as_f64).unwrap();
        assert!(total > 0.0, "built entry must report a footprint");
        assert!(matches!(body.get("byte_budget"), Some(Value::Null)));
        let rows = body.get("instances").and_then(Value::as_arr).unwrap();
        let per_entry = rows[0]
            .get("instance")
            .and_then(|i| i.get("approx_bytes"))
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(per_entry, total);
        #[cfg(target_os = "linux")]
        assert!(
            body.get("peak_rss_mib").and_then(Value::as_f64).unwrap() > 0.0,
            "daemon self-reports its VmHWM on Linux"
        );
    }

    #[test]
    fn byte_budget_bounds_the_store_across_solves() {
        // Budget small enough that the two distinct instances below can
        // never be resident together; every solve still succeeds.
        let s =
            ServiceState::new(4, InstanceConfig::default().quick()).with_instance_byte_budget(1);
        const OTHER_SOLVE: &str = r#"{
            "dataset": {"kind": "rand_mc", "c": 2, "n": 44},
            "substrate": "coverage",
            "solver": "Greedy",
            "params": {"k": 3, "tau": 0.8}
        }"#;
        assert_eq!(s.handle(&post("/solve", TINY_SOLVE)).status, 200);
        assert_eq!(s.handle(&post("/solve", OTHER_SOLVE)).status, 200);
        assert_eq!(s.handle(&post("/solve", TINY_SOLVE)).status, 200);
        let stats = s.store.stats();
        assert_eq!(stats.len, 1, "over-budget entries are evicted");
        assert!(stats.byte_evictions >= 2);
        let body = parse_bytes(&s.handle(&get("/instances")).body).unwrap();
        assert_eq!(body.get("byte_budget").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn solve_reports_cache_status_and_report() {
        let s = state();
        let first = s.handle(&post("/solve", TINY_SOLVE));
        assert_eq!(
            first.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&first.body)
        );
        let cache = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "X-Instance-Cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(cache(&first).as_deref(), Some("miss"));
        let report = parse_bytes(&first.body).unwrap();
        assert_eq!(report.get("solver").and_then(Value::as_str), Some("Greedy"));
        assert_eq!(
            report
                .get("items")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(3)
        );

        let second = s.handle(&post("/solve", TINY_SOLVE));
        assert_eq!(second.status, 200);
        assert_eq!(cache(&second).as_deref(), Some("hit"));
        let stats = s.store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn solve_maps_typed_errors_to_statuses() {
        let s = state();
        let unknown = TINY_SOLVE.replace("Greedy", "NotASolver");
        assert_eq!(s.handle(&post("/solve", &unknown)).status, 404);
        // SMSC on a c=4 instance: a capability gap, 422.
        let gap = r#"{
            "dataset": {"kind": "rand_mc", "c": 4, "n": 40},
            "substrate": "coverage",
            "solver": "SMSC",
            "params": {"k": 3, "tau": 0.8}
        }"#;
        let resp = s.handle(&post("/solve", gap));
        assert_eq!(resp.status, 422);
        let body = parse_bytes(&resp.body).unwrap();
        assert_eq!(
            body.get("kind").and_then(Value::as_str),
            Some("unsupported_group_count")
        );
    }

    #[test]
    fn bad_requests_are_400s_not_panics() {
        let s = state();
        assert_eq!(s.handle(&post("/solve", "not json")).status, 400);
        assert_eq!(s.handle(&post("/solve", "{}")).status, 400);
        // rand_mc c=3 would panic in the builder; validation rejects it.
        let bad_c = TINY_SOLVE.replace("\"c\": 2", "\"c\": 3");
        assert_eq!(s.handle(&post("/solve", &bad_c)).status, 400);
        // Mismatched substrate/dataset family.
        let mismatch = TINY_SOLVE.replace("\"coverage\"", "\"facility\"");
        assert_eq!(s.handle(&post("/solve", &mismatch)).status, 400);
        // Unknown endpoints and wrong methods.
        assert_eq!(s.handle(&get("/nope")).status, 404);
        assert_eq!(s.handle(&get("/solve")).status, 405);
        assert_eq!(s.handle(&post("/healthz", "")).status, 405);
    }

    /// The report body with wall-clock `seconds` stripped — the only
    /// field the sharded and centralized paths may legitimately differ
    /// in.
    fn sans_seconds(body: &[u8]) -> String {
        let Value::Obj(pairs) = parse_bytes(body).unwrap() else {
            panic!("report bodies are objects")
        };
        Value::Obj(pairs.into_iter().filter(|(k, _)| k != "seconds").collect()).to_compact_string()
    }

    fn solve_body(solver: &str, shards: Option<usize>) -> String {
        let top = shards.map_or(String::new(), |p| format!("\"shards\": {p},"));
        format!(
            r#"{{
                "dataset": {{"kind": "rand_mc", "c": 2, "n": 48}},
                "substrate": "coverage",
                "solver": "{solver}",
                {top}
                "params": {{"k": 4, "tau": 0.8, "shards": 3, "epsilon": 0.1}}
            }}"#
        )
    }

    #[test]
    fn sharded_solve_reports_are_byte_identical_to_centralized() {
        for solver in ["GreeDi", "SieveStreaming"] {
            let s = state();
            let sharded = s.handle(&post("/solve", &solve_body(solver, Some(3))));
            let central = s.handle(&post("/solve", &solve_body(solver, None)));
            assert_eq!(
                sharded.status,
                200,
                "{}",
                String::from_utf8_lossy(&sharded.body)
            );
            assert_eq!(central.status, 200);
            assert_eq!(
                sans_seconds(&sharded.body),
                sans_seconds(&central.body),
                "{solver} sharded report must match the centralized one"
            );
        }
    }

    #[test]
    fn repeated_sharded_solves_reuse_every_shard_entry() {
        let s = state();
        let cache = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "X-Instance-Cache")
                .map(|(_, v)| v.clone())
        };
        let first = s.handle(&post("/solve", &solve_body("GreeDi", Some(2))));
        assert_eq!(first.status, 200);
        assert_eq!(cache(&first).as_deref(), Some("miss"));
        // Central + 2 shard entries registered.
        assert_eq!(s.store.stats().len, 3);
        let second = s.handle(&post("/solve", &solve_body("GreeDi", Some(2))));
        assert_eq!(second.status, 200);
        assert_eq!(
            cache(&second).as_deref(),
            Some("hit"),
            "central and both shard entries were cached"
        );
        assert_eq!(s.store.stats().len, 3, "no new entries on the repeat");
        // A different shard count cuts different columns: partial miss.
        let recut = s.handle(&post("/solve", &solve_body("GreeDi", Some(3))));
        assert_eq!(cache(&recut).as_deref(), Some("miss"));
    }

    #[test]
    fn bad_shards_are_typed_400s() {
        let s = state();
        for bad in [
            solve_body("GreeDi", Some(0)),
            solve_body("GreeDi", Some(MAX_SOLVE_SHARDS + 1)),
            solve_body("GreeDi", Some(49)), // > num_items = 48
            solve_body("Greedy", Some(2)),  // not a shard-capable solver
            solve_body("GreeDi", None).replace("\"solver\"", "\"shards\": 1.5, \"solver\""),
        ] {
            let resp = s.handle(&post("/solve", &bad));
            assert_eq!(resp.status, 400, "{bad}");
            let body = parse_bytes(&resp.body).unwrap();
            assert_eq!(
                body.get("kind").and_then(Value::as_str),
                Some("invalid_params"),
                "{bad}"
            );
        }
    }

    #[test]
    fn sharded_anytime_steps_one_shard_per_round_and_matches_solve() {
        let s = state();
        // 3 shard rounds + 1 merge round for GreeDi over 3 shards.
        let open = format!(
            r#"{{"max_rounds": 2, {}"#,
            solve_body("GreeDi", Some(3))
                .trim_start()
                .trim_start_matches('{')
        );
        let first = s.handle(&post("/solve/anytime", &open));
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        let body = parse_bytes(&first.body).unwrap();
        assert_eq!(body.get("done").and_then(Value::as_bool), Some(false));
        let handle = body
            .get("session")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let resume = s.handle(&post(
            "/solve/anytime",
            &format!(r#"{{"session": "{handle}", "max_rounds": 10}}"#),
        ));
        assert_eq!(resume.status, 200);
        let body = parse_bytes(&resume.body).unwrap();
        assert_eq!(body.get("done").and_then(Value::as_bool), Some(true));
        assert_eq!(body.get("steps_total").and_then(Value::as_usize), Some(4));
        let report = body.get("report").unwrap();
        // The finished anytime report matches the one-shot sharded (and
        // therefore centralized) report.
        let oneshot = s.handle(&post("/solve", &solve_body("GreeDi", Some(3))));
        let oneshot = parse_bytes(&oneshot.body).unwrap();
        assert_eq!(
            report.get("items").unwrap().to_compact_string(),
            oneshot.get("items").unwrap().to_compact_string()
        );
        assert_eq!(
            report.get("f").and_then(Value::as_f64).unwrap().to_bits(),
            oneshot.get("f").and_then(Value::as_f64).unwrap().to_bits()
        );
    }

    #[test]
    fn batch_runs_a_grid_on_one_shared_instance() {
        let s = state();
        let job = r#"{
            "dataset": {"kind": "rand_mc", "c": 2, "n": 40},
            "substrate": "coverage",
            "solvers": ["Greedy", "BSM-TSGreedy", "SMSC"],
            "ks": [2, 3],
            "taus": [0.5]
        }"#;
        let resp = s.handle(&post("/batch", job));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let body = parse_bytes(&resp.body).unwrap();
        assert_eq!(body.get("ok_cells").and_then(Value::as_usize), Some(6));
        assert_eq!(
            body.get("cells")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(6)
        );
        // A follow-up solve on the same recipe reuses the instance.
        let resp = s.handle(&post("/solve", TINY_SOLVE));
        assert_eq!(
            resp.headers
                .iter()
                .find(|(n, _)| n == "X-Instance-Cache")
                .map(|(_, v)| v.as_str()),
            Some("hit")
        );
    }

    #[test]
    fn batch_honors_mc_runs_cap_like_the_scenario_runner() {
        let s = state();
        let job = |cap: &str| {
            format!(
                r#"{{
                    "dataset": {{"kind": "rand_mc", "c": 2, "n": 40, "seed_offset": 2}},
                    "substrate": {{"influence_p": 0.1}},
                    "solvers": ["Greedy"],
                    "ks": [2],
                    "taus": [0.5]{cap}
                }}"#
            )
        };
        let capped = s.handle(&post("/batch", &job(r#", "mc_runs_cap": 10"#)));
        let uncapped = s.handle(&post("/batch", &job("")));
        assert_eq!(capped.status, 200);
        assert_eq!(uncapped.status, 200);
        let f_of = |resp: &Response| {
            parse_bytes(&resp.body)
                .unwrap()
                .get("cells")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .get("report")
                .unwrap()
                .get("f")
                .and_then(Value::as_f64)
                .unwrap()
        };
        // 10 MC runs vs the quick default (1000) must give different
        // evaluation estimates for the same selection — proof the cap
        // reaches the evaluator, matching scenario.rs semantics.
        assert_ne!(f_of(&capped).to_bits(), f_of(&uncapped).to_bits());
    }
}
