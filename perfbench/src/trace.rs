//! The traced run's instruments, all applied from outside the program
//! through seams it already exposes: an in-memory span recorder, a
//! counting [`DynUtilitySystem`] proxy around the gain kernels, and
//! timing [`Solver`] wrappers collected into a [`SolverRegistry`].
//!
//! None of this is installed on an untraced run, so the end-to-end
//! numbers never pay for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::json::{obj, Value};

use fair_submod_core::engine::{
    adapters, Capabilities, DynState, DynUtilitySystem, PartialSolution, ScenarioParams,
    SessionStatus, SolveReport, SolveSession, Solver, SolverError, SolverRegistry,
};
use fair_submod_core::items::ItemId;

/// One recorded span: a timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one.
    pub parent: u64,
    /// Layer seam name, e.g. `datasets.build`.
    pub name: &'static str,
    /// The cell or request this span belongs to.
    pub tag: String,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
}

/// In-memory span recorder and named accumulators; written out once,
/// when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// Parent for spans opened on threads with no open span of their
    /// own (rayon workers running a suite's cells).
    ambient: AtomicU64,
    spans: Mutex<Vec<Span>>,
    sums: Mutex<BTreeMap<String, f64>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide recorder (created on first use; only traced runs
/// ever use it).
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        ambient: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
        sums: Mutex::new(BTreeMap::new()),
    })
}

/// An open span; recorded when dropped.
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    tag: String,
    start: Instant,
}

impl SpanGuard {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Seconds since the span opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let t = tracer();
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            tag: std::mem::take(&mut self.tag),
            start: (self.start - t.origin).as_secs_f64(),
            end: (end - t.origin).as_secs_f64(),
        };
        if let Ok(mut spans) = t.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    /// Opens a span under the calling thread's innermost open span (or
    /// the ambient parent when there is none).
    pub fn span(&self, name: &'static str, tag: impl Into<String>) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.ambient.load(Ordering::Relaxed));
            open.push(id);
            parent
        });
        SpanGuard {
            id,
            parent,
            name,
            tag: tag.into(),
            start: Instant::now(),
        }
    }

    /// Makes `id` the parent of spans opened on threads without an open
    /// span (0 clears it).
    pub fn set_ambient(&self, id: u64) {
        self.ambient.store(id, Ordering::Relaxed);
    }

    /// Adds `value` to the named accumulator.
    pub fn add(&self, name: &str, value: f64) {
        let mut sums = self.sums.lock().expect("trace sums poisoned");
        *sums.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The named accumulators so far.
    pub fn sums(&self) -> BTreeMap<String, f64> {
        self.sums.lock().expect("trace sums poisoned").clone()
    }

    /// Total self time per span name: each span's duration minus the
    /// part of its interval that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("trace spans poisoned");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter() {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get(&s.id)
                .map_or(0.0, |kids| covered_length(kids, s.start, s.end));
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
        }
        out
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("trace spans poisoned").len()
    }

    /// The spans and the per-name self times as one JSON document.
    pub fn to_json(&self) -> Value {
        let self_times = self.self_times();
        let spans = self.spans.lock().expect("trace spans poisoned");
        obj([
            (
                "self_time_s",
                Value::Obj(
                    self_times
                        .into_iter()
                        .map(|(name, s)| (name.to_string(), Value::Num(s)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            obj([
                                ("id", Value::Num(s.id as f64)),
                                ("parent", Value::Num(s.parent as f64)),
                                ("name", Value::Str(s.name.to_string())),
                                ("tag", Value::Str(s.tag.clone())),
                                ("start", Value::Num(s.start)),
                                ("end", Value::Num(s.end)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_length(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Counts and times the gain-kernel calls solvers make.
#[derive(Debug, Default)]
pub struct OracleCounters {
    /// `group_gains` and `group_gains_batch` calls.
    pub gain_calls: AtomicU64,
    /// Nanoseconds inside those calls.
    pub gain_ns: AtomicU64,
    /// Items evaluated through batch calls.
    pub batch_items: AtomicU64,
    /// `apply` calls.
    pub apply_calls: AtomicU64,
    /// Nanoseconds inside `apply`.
    pub apply_ns: AtomicU64,
}

/// A [`DynUtilitySystem`] proxy that forwards every call to `inner`
/// and counts the gain-kernel work on the way through.
pub struct CountingSystem<'a> {
    inner: &'a dyn DynUtilitySystem,
    counters: Arc<OracleCounters>,
}

impl<'a> CountingSystem<'a> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: &'a dyn DynUtilitySystem, counters: Arc<OracleCounters>) -> Self {
        Self { inner, counters }
    }
}

impl DynUtilitySystem for CountingSystem<'_> {
    fn dyn_num_items(&self) -> usize {
        self.inner.dyn_num_items()
    }

    fn dyn_num_users(&self) -> usize {
        self.inner.dyn_num_users()
    }

    fn dyn_group_sizes(&self) -> &[usize] {
        self.inner.dyn_group_sizes()
    }

    fn dyn_init(&self) -> DynState {
        self.inner.dyn_init()
    }

    fn dyn_group_gains(&self, state: &DynState, item: ItemId, out: &mut [f64]) {
        let start = Instant::now();
        self.inner.dyn_group_gains(state, item, out);
        self.counters
            .gain_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.counters.gain_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn dyn_group_gains_batch(&self, state: &DynState, items: &[ItemId], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.dyn_group_gains_batch(state, items, out);
        self.counters
            .gain_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.counters.gain_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batch_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
    }

    fn dyn_apply(&self, state: &mut DynState, item: ItemId) {
        let start = Instant::now();
        self.inner.dyn_apply(state, item);
        self.counters
            .apply_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.counters.apply_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn dyn_gain_kernel(&self) -> &'static str {
        self.inner.dyn_gain_kernel()
    }

    fn dyn_approx_bytes(&self) -> usize {
        self.inner.dyn_approx_bytes()
    }
}

/// Per-solver engine counters.
#[derive(Debug, Default)]
pub struct SolverCounters {
    /// One-shot solves plus sessions opened.
    pub calls: AtomicU64,
    /// Nanoseconds in `solve`, `open_session`, and session work.
    pub solve_ns: AtomicU64,
    /// Oracle calls the solver actually spent.
    pub oracle_calls: AtomicU64,
}

/// Session-stepping counters shared by every wrapped session.
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// `step` calls.
    pub steps: AtomicU64,
    /// Nanoseconds inside `step`.
    pub step_ns: AtomicU64,
}

/// The engine counters of one timing registry.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Per registry name.
    pub solvers: BTreeMap<&'static str, Arc<SolverCounters>>,
    /// All sessions together.
    pub sessions: Arc<SessionCounters>,
}

struct TimingSolver {
    inner: Box<dyn Solver>,
    counters: Arc<SolverCounters>,
    sessions: Arc<SessionCounters>,
}

impl Solver for TimingSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn solve(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<SolveReport, SolverError> {
        let _span = tracer().span("engine.solve", self.inner.name());
        let start = Instant::now();
        let result = self.inner.solve(system, params);
        self.counters
            .solve_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(report) = &result {
            self.counters
                .oracle_calls
                .fetch_add(report.oracle_calls, Ordering::Relaxed);
        }
        result
    }

    fn open_session(
        &self,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> Result<Box<dyn SolveSession>, SolverError> {
        let start = Instant::now();
        let session = self.inner.open_session(system, params)?;
        self.counters
            .solve_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(TimingSession {
            inner: session,
            counters: Arc::clone(&self.counters),
            sessions: Arc::clone(&self.sessions),
        }))
    }
}

/// Times every step of a wrapped session; on drop, books the oracle
/// calls the session actually spent.
struct TimingSession {
    inner: Box<dyn SolveSession>,
    counters: Arc<SolverCounters>,
    sessions: Arc<SessionCounters>,
}

impl TimingSession {
    fn timed<T>(&mut self, f: impl FnOnce(&mut Box<dyn SolveSession>) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.counters
            .solve_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        out
    }
}

impl SolveSession for TimingSession {
    fn solver(&self) -> &'static str {
        self.inner.solver()
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn step(&mut self, system: &dyn DynUtilitySystem) -> SessionStatus {
        let _span = tracer().span("engine.session.step", self.inner.solver());
        let start = Instant::now();
        let status = self.timed(|s| s.step(system));
        self.sessions
            .step_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.sessions.steps.fetch_add(1, Ordering::Relaxed);
        status
    }

    fn snapshot(&self) -> PartialSolution {
        self.inner.snapshot()
    }

    fn prefix_exact(&self) -> bool {
        self.inner.prefix_exact()
    }

    fn solution_at(
        &self,
        system: &dyn DynUtilitySystem,
        k: usize,
    ) -> Result<SolveReport, SolverError> {
        let start = Instant::now();
        let report = self.inner.solution_at(system, k);
        self.counters
            .solve_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        report
    }

    fn finish(&mut self, system: &dyn DynUtilitySystem) -> Result<SolveReport, SolverError> {
        self.timed(|s| s.finish(system))
    }
}

impl Drop for TimingSession {
    fn drop(&mut self) {
        self.counters
            .oracle_calls
            .fetch_add(self.inner.snapshot().oracle_calls, Ordering::Relaxed);
    }
}

/// The full solver suite, each entry wrapped in a timing [`Solver`],
/// plus the counters the wrappers fill.
pub fn timing_registry() -> (SolverRegistry, EngineCounters) {
    let mut registry = SolverRegistry::new();
    let mut counters = EngineCounters::default();
    for inner in adapters::all_solvers() {
        let solver_counters = Arc::new(SolverCounters::default());
        counters
            .solvers
            .insert(inner.name(), Arc::clone(&solver_counters));
        registry.register(Box::new(TimingSolver {
            inner,
            counters: solver_counters,
            sessions: Arc::clone(&counters.sessions),
        }));
    }
    (registry, counters)
}

/// Nanoseconds in an atomic as seconds.
pub fn secs(ns: &AtomicU64) -> f64 {
    ns.load(Ordering::Relaxed) as f64 * 1e-9
}

/// An atomic count as a float.
pub fn count(n: &AtomicU64) -> f64 {
    n.load(Ordering::Relaxed) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_length_merges_overlaps_and_clips() {
        let kids = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)];
        assert_eq!(covered_length(&kids, 0.0, 10.0), 3.0 + 1.0 + 1.0);
        assert_eq!(covered_length(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tracer();
        let before = t.self_times().get("test.parent").copied().unwrap_or(0.0);
        {
            let parent = t.span("test.parent", "cell-1");
            {
                let _child = t.span("test.child", "cell-1");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            assert!(parent.elapsed() >= 0.02);
        }
        let self_parent = t.self_times()["test.parent"] - before;
        assert!(self_parent < 0.015, "child time leaked into self time");
        assert!(t.self_times()["test.child"] >= 0.02);
    }

    #[test]
    fn timing_registry_keeps_answers_and_counts() {
        let system = fair_submod_core::toy::figure1();
        let (timed, counters) = timing_registry();
        let plain = SolverRegistry::default();
        assert_eq!(timed.names(), plain.names());
        let oracle = Arc::new(OracleCounters::default());
        let proxy = CountingSystem::new(&system, Arc::clone(&oracle));
        let params = ScenarioParams::new(2, 0.8);
        let a = timed.solve("BSM-Saturate", &proxy, &params).unwrap();
        let b = plain.solve("BSM-Saturate", &system, &params).unwrap();
        assert_eq!(a.items, b.items);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.oracle_calls, b.oracle_calls);
        let c = &counters.solvers["BSM-Saturate"];
        assert_eq!(count(&c.calls), 1.0);
        assert_eq!(count(&c.oracle_calls), a.oracle_calls as f64);
        assert!(count(&oracle.gain_calls) > 0.0);
    }
}
