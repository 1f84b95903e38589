//! Compute-once storage for the τ-independent stages of the BSM schemes.
//!
//! Lines 1–2 of BSM-TSGreedy (Algorithm 1) and BSM-Saturate
//! (Algorithm 2) run greedy on `f` and Saturate on `g`; neither reads
//! `τ`, and the `Saturate` baseline is the second stage on its own. A
//! [`StageMemo`] keeps each stage's outcome per exact stage config, so
//! many `(k, τ)` queries against one instance pay for the stages once.
//! The stages are pure functions of `(system, config)`, so a memo hit
//! returns exactly what a cold run computes — `oracle_calls` included,
//! which the solvers then charge as if they had run the stage — and the
//! result never depends on which caller filled a slot first (DESIGN.md
//! §7).
//!
//! A memo belongs to one system. [`MemoSystem`] pairs the two so the
//! memo travels with the system through any [`Solver`](super::Solver)
//! wrapper; the `Saturate`, `BSM-TSGreedy`, `BSM-Saturate` and
//! `LocalSearch` adapters find it through
//! [`DynUtilitySystem::dyn_stage_memo`].

use std::mem::size_of;
use std::sync::{Arc, Mutex, OnceLock};

use crate::algorithms::greedy::{GreedyConfig, GreedyOutcome};
use crate::algorithms::saturate::{saturate, SaturateConfig, SaturateOutcome};
use crate::algorithms::utility_greedy;
use crate::items::ItemId;
use crate::system::UtilitySystem;

use super::erased::{DynState, DynUtilitySystem, ErasedSystem};

/// Most stage configs one memo stores; stages for further configs run
/// without being stored, so a memo's size stays bounded whatever the
/// request stream.
pub(crate) const STAGE_MEMO_MAX_KEYS: usize = 64;

type Slots<K, V> = Vec<(K, Arc<OnceLock<V>>)>;

#[derive(Default)]
struct Keys {
    greedy_f: Slots<GreedyConfig, GreedyOutcome>,
    saturate: Slots<SaturateConfig, SaturateOutcome>,
}

impl Keys {
    fn len(&self) -> usize {
        self.greedy_f.len() + self.saturate.len()
    }
}

/// Compute-once slots for the τ-independent BSM stages of one system,
/// keyed by the exact [`GreedyConfig`] / [`SaturateConfig`] a stage
/// runs with (floats compared by bit pattern).
///
/// The key map's lock is held only to find or register a slot, never
/// while a stage runs: concurrent callers for one key wait on that
/// slot alone, callers for other keys proceed. A stage that panics
/// leaves its slot empty, so the next caller computes it afresh.
#[derive(Default)]
pub struct StageMemo {
    keys: Mutex<Keys>,
}

impl StageMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Line 1 of both BSM schemes on `system` with `cfg`: from the memo
    /// when a caller already computed it, computed (and stored, while
    /// there is room) otherwise.
    pub fn greedy_f<S: UtilitySystem>(&self, system: &S, cfg: &GreedyConfig) -> GreedyOutcome {
        self.get_or_run(
            |keys| &mut keys.greedy_f,
            cfg,
            same_greedy_config,
            || utility_greedy(system, cfg),
        )
    }

    /// Line 2 of both BSM schemes (and the `Saturate` baseline) on
    /// `system` with `cfg`, memoized like [`StageMemo::greedy_f`].
    pub fn saturate<S: UtilitySystem>(&self, system: &S, cfg: &SaturateConfig) -> SaturateOutcome {
        self.get_or_run(
            |keys| &mut keys.saturate,
            cfg,
            same_saturate_config,
            || saturate(system, cfg),
        )
    }

    /// Stage configs registered so far (at most 64).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no stage config is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advisory resident footprint of the stored outcomes and their
    /// keys, in bytes; 0 for an empty memo.
    pub fn approx_bytes(&self) -> usize {
        let keys = self.lock();
        let greedy: usize = filled(&keys.greedy_f)
            .map(|run| {
                size_of::<GreedyConfig>()
                    + size_of::<GreedyOutcome>()
                    + run.items.len() * size_of::<ItemId>()
                    + run.trajectory.len() * size_of::<f64>()
            })
            .sum();
        let sat: usize = filled(&keys.saturate)
            .map(|run| {
                size_of::<SaturateConfig>()
                    + size_of::<SaturateOutcome>()
                    + run.items.len() * size_of::<ItemId>()
            })
            .sum();
        greedy + sat
    }

    /// The stored outcome for `key`, or `run`'s — stored when `key`
    /// has a slot. The key map is locked only to find or register the
    /// slot (registration stops at [`STAGE_MEMO_MAX_KEYS`]); `run`
    /// executes after the guard is dropped.
    fn get_or_run<K: Clone, V: Clone>(
        &self,
        slots: impl FnOnce(&mut Keys) -> &mut Slots<K, V>,
        key: &K,
        same: fn(&K, &K) -> bool,
        run: impl FnOnce() -> V,
    ) -> V {
        let slot = {
            let mut keys = self.lock();
            let room = keys.len() < STAGE_MEMO_MAX_KEYS;
            let slots = slots(&mut keys);
            match slots.iter().find(|(k, _)| same(k, key)) {
                Some((_, slot)) => Some(Arc::clone(slot)),
                None if room => {
                    let slot = Arc::new(OnceLock::new());
                    slots.push((key.clone(), Arc::clone(&slot)));
                    Some(slot)
                }
                None => None,
            }
        };
        match slot {
            Some(slot) => slot.get_or_init(run).clone(),
            None => run(),
        }
    }

    /// The key map. No stage runs under this lock and the map is only
    /// ever pushed to, so a guard poisoned by an unrelated panic still
    /// holds a consistent map.
    fn lock(&self) -> std::sync::MutexGuard<'_, Keys> {
        self.keys
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

fn filled<K, V>(slots: &Slots<K, V>) -> impl Iterator<Item = &V> {
    slots.iter().filter_map(|(_, slot)| slot.get())
}

/// Exact config equality: every field, floats by bit pattern. The
/// destructuring makes a new config field a compile error here.
fn same_greedy_config(a: &GreedyConfig, b: &GreedyConfig) -> bool {
    let GreedyConfig {
        k,
        variant,
        stop_at,
        stop_slack,
        seed,
    } = a;
    *k == b.k
        && *variant == b.variant
        && stop_at.map(f64::to_bits) == b.stop_at.map(f64::to_bits)
        && stop_slack.to_bits() == b.stop_slack.to_bits()
        && *seed == b.seed
}

/// Exact config equality, as [`same_greedy_config`].
fn same_saturate_config(a: &SaturateConfig, b: &SaturateConfig) -> bool {
    let SaturateConfig {
        k,
        budget_factor,
        tolerance,
        max_rounds,
        variant,
        exact_subset_limit,
    } = a;
    *k == b.k
        && budget_factor.to_bits() == b.budget_factor.to_bits()
        && tolerance.to_bits() == b.tolerance.to_bits()
        && *max_rounds == b.max_rounds
        && *variant == b.variant
        && exact_subset_limit.to_bits() == b.exact_subset_limit.to_bits()
}

/// Line 1 of both BSM schemes on `system`, through its stage memo when
/// it carries one.
pub(crate) fn greedy_f_stage(system: &dyn DynUtilitySystem, cfg: &GreedyConfig) -> GreedyOutcome {
    let erased = ErasedSystem(system);
    match system.dyn_stage_memo() {
        Some(memo) => memo.greedy_f(&erased, cfg),
        None => utility_greedy(&erased, cfg),
    }
}

/// Line 2 of both BSM schemes on `system`, through its stage memo when
/// it carries one.
pub(crate) fn saturate_stage(
    system: &dyn DynUtilitySystem,
    cfg: &SaturateConfig,
) -> SaturateOutcome {
    let erased = ErasedSystem(system);
    match system.dyn_stage_memo() {
        Some(memo) => memo.saturate(&erased, cfg),
        None => saturate(&erased, cfg),
    }
}

/// A system paired with the [`StageMemo`] of its τ-independent stages:
/// forwards every oracle call to `system` unchanged and answers
/// [`DynUtilitySystem::dyn_stage_memo`] with `memo`. The memo must only
/// ever be paired with this one system.
#[derive(Clone, Copy)]
pub struct MemoSystem<'a> {
    system: &'a dyn DynUtilitySystem,
    memo: &'a StageMemo,
}

impl<'a> MemoSystem<'a> {
    /// Pairs `system` with its memo.
    pub fn new(system: &'a dyn DynUtilitySystem, memo: &'a StageMemo) -> Self {
        Self { system, memo }
    }
}

impl DynUtilitySystem for MemoSystem<'_> {
    fn dyn_num_items(&self) -> usize {
        self.system.dyn_num_items()
    }

    fn dyn_num_users(&self) -> usize {
        self.system.dyn_num_users()
    }

    fn dyn_group_sizes(&self) -> &[usize] {
        self.system.dyn_group_sizes()
    }

    fn dyn_init(&self) -> DynState {
        self.system.dyn_init()
    }

    fn dyn_group_gains(&self, state: &DynState, item: ItemId, out: &mut [f64]) {
        self.system.dyn_group_gains(state, item, out);
    }

    fn dyn_group_gains_batch(&self, state: &DynState, items: &[ItemId], out: &mut [f64]) {
        self.system.dyn_group_gains_batch(state, items, out);
    }

    fn dyn_apply(&self, state: &mut DynState, item: ItemId) {
        self.system.dyn_apply(state, item);
    }

    fn dyn_gain_kernel(&self) -> &'static str {
        self.system.dyn_gain_kernel()
    }

    fn dyn_approx_bytes(&self) -> usize {
        self.system.dyn_approx_bytes()
    }

    fn dyn_stage_memo(&self) -> Option<&StageMemo> {
        Some(self.memo)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    use super::*;
    use crate::engine::{ScenarioParams, SolveReport, SolverRegistry};
    use crate::toy;

    /// Forwards to `inner`, counting every oracle call, and panics on
    /// the first gain evaluation while `armed`.
    struct Probe<'a> {
        inner: &'a dyn DynUtilitySystem,
        calls: AtomicU64,
        armed: AtomicBool,
    }

    impl<'a> Probe<'a> {
        fn new(inner: &'a dyn DynUtilitySystem) -> Self {
            Self {
                inner,
                calls: AtomicU64::new(0),
                armed: AtomicBool::new(false),
            }
        }

        fn gain_call(&self) {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("armed probe: the stage fails");
            }
            self.calls.fetch_add(1, Ordering::SeqCst);
        }

        fn calls(&self) -> u64 {
            self.calls.load(Ordering::SeqCst)
        }
    }

    impl DynUtilitySystem for Probe<'_> {
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
            self.gain_call();
            self.inner.dyn_group_gains(state, item, out);
        }
        fn dyn_group_gains_batch(&self, state: &DynState, items: &[ItemId], out: &mut [f64]) {
            self.gain_call();
            self.inner.dyn_group_gains_batch(state, items, out);
        }
        fn dyn_apply(&self, state: &mut DynState, item: ItemId) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.dyn_apply(state, item);
        }
        fn dyn_gain_kernel(&self) -> &'static str {
            self.inner.dyn_gain_kernel()
        }
        fn dyn_approx_bytes(&self) -> usize {
            self.inner.dyn_approx_bytes()
        }
    }

    fn cold(
        registry: &SolverRegistry,
        name: &str,
        system: &dyn DynUtilitySystem,
        params: &ScenarioParams,
    ) -> SolveReport {
        let mut report = registry.solve(name, system, params).unwrap();
        report.seconds = 0.0;
        report
    }

    fn same_greedy_outcome(a: &GreedyOutcome, b: &GreedyOutcome) -> bool {
        a.items == b.items
            && a.value.to_bits() == b.value.to_bits()
            && a.trajectory
                .iter()
                .map(|v| v.to_bits())
                .eq(b.trajectory.iter().map(|v| v.to_bits()))
            && a.reached_target == b.reached_target
            && a.oracle_calls == b.oracle_calls
    }

    fn same_saturate_outcome(a: &SaturateOutcome, b: &SaturateOutcome) -> bool {
        a.items == b.items
            && a.opt_g_estimate.to_bits() == b.opt_g_estimate.to_bits()
            && a.rounds == b.rounds
            && a.exact == b.exact
            && a.oracle_calls == b.oracle_calls
    }

    /// Eight concurrent solves at one `k` and eight different `τ` run
    /// each stage once between them: the oracle sees one cold run's
    /// stage work plus each solve's own τ-dependent work, and every
    /// report equals its cold solve.
    #[test]
    fn concurrent_solves_compute_each_stage_once() {
        let sys = toy::random_coverage(40, 120, 3, 0.08, 5);
        let registry = SolverRegistry::default();
        let k = 5;
        let jobs: Vec<(&str, ScenarioParams)> = (0..8)
            .map(|i| {
                let name = ["BSM-Saturate", "BSM-TSGreedy"][i % 2];
                (name, ScenarioParams::new(k, i as f64 / 8.0))
            })
            .collect();

        // Stage work alone, and each solve's total, measured cold.
        let stage_probe = Probe::new(&sys);
        let template = crate::engine::session::bsm_saturate_config_for(&jobs[0].1);
        utility_greedy(&ErasedSystem(&stage_probe), &template.greedy_f_config());
        saturate(&ErasedSystem(&stage_probe), &template.saturate);
        let stage_calls = stage_probe.calls();
        assert!(stage_calls > 0);
        let mut expected = stage_calls;
        let mut cold_reports = Vec::new();
        for (name, params) in &jobs {
            let probe = Probe::new(&sys);
            cold_reports.push(cold(&registry, name, &probe, params));
            expected += probe.calls() - stage_calls;
        }

        let probe = Probe::new(&sys);
        let memo = StageMemo::new();
        let system = MemoSystem::new(&probe, &memo);
        let start = Barrier::new(jobs.len());
        let reports: Vec<SolveReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|(name, params)| {
                    let (registry, system, start) = (&registry, &system, &start);
                    scope.spawn(move || {
                        start.wait();
                        cold(registry, name, system, params)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(probe.calls(), expected, "stages ran more than once");
        assert_eq!(memo.len(), 2, "one greedy-on-f and one Saturate key");
        for ((name, params), (memo_fed, cold)) in jobs.iter().zip(reports.iter().zip(&cold_reports))
        {
            assert_eq!(memo_fed, cold, "{name} τ = {}", params.tau);
        }
    }

    /// Past the key cap new configs still answer exactly, unstored: the
    /// memo's key count and byte count stop growing.
    #[test]
    fn past_the_key_cap_stages_run_unstored() {
        let sys = toy::random_coverage(80, 160, 2, 0.05, 3);
        let erased = ErasedSystem(&sys);
        let memo = StageMemo::new();
        assert_eq!(memo.approx_bytes(), 0, "an empty memo counts nothing");
        for k in 1..=STAGE_MEMO_MAX_KEYS {
            memo.greedy_f(&erased, &GreedyConfig::lazy(k));
        }
        assert_eq!(memo.len(), STAGE_MEMO_MAX_KEYS);
        let full = memo.approx_bytes();
        assert!(full > 0);

        let greedy_cfg = GreedyConfig::lazy(STAGE_MEMO_MAX_KEYS + 1);
        let sat_cfg = SaturateConfig::new(4);
        for _ in 0..2 {
            let run = memo.greedy_f(&erased, &greedy_cfg);
            assert!(same_greedy_outcome(
                &run,
                &utility_greedy(&sys, &greedy_cfg)
            ));
            let sat = memo.saturate(&erased, &sat_cfg);
            assert!(same_saturate_outcome(&sat, &saturate(&sys, &sat_cfg)));
            assert_eq!(memo.len(), STAGE_MEMO_MAX_KEYS);
            assert_eq!(memo.approx_bytes(), full, "memo grew past its cap");
        }
        // Stored keys keep answering from the memo.
        let stored = GreedyConfig::lazy(7);
        assert!(same_greedy_outcome(
            &memo.greedy_f(&erased, &stored),
            &utility_greedy(&sys, &stored)
        ));
    }

    /// A stage that panics leaves its slot empty; the next caller
    /// computes it afresh instead of meeting a poisoned lock.
    #[test]
    fn a_panicking_stage_leaves_its_slot_empty() {
        let sys = toy::random_coverage(30, 90, 3, 0.1, 8);
        let probe = Probe::new(&sys);
        let erased = ErasedSystem(&probe);
        let memo = StageMemo::new();
        let cfg = SaturateConfig::new(3).approximate_only();

        probe.armed.store(true, Ordering::SeqCst);
        let failed = catch_unwind(AssertUnwindSafe(|| memo.saturate(&erased, &cfg)));
        assert!(failed.is_err(), "the armed probe must panic the stage");
        assert_eq!(memo.len(), 1, "the key stays registered");
        assert_eq!(memo.approx_bytes(), 0, "but its slot stays empty");

        let before = probe.calls();
        let sat = memo.saturate(&erased, &cfg);
        assert!(probe.calls() > before, "the next caller recomputes");
        assert!(same_saturate_outcome(&sat, &saturate(&sys, &cfg)));
        assert!(memo.approx_bytes() > 0);
        // And the key map itself still serves other keys.
        let greedy_cfg = GreedyConfig::lazy(3);
        assert!(same_greedy_outcome(
            &memo.greedy_f(&erased, &greedy_cfg),
            &utility_greedy(&sys, &greedy_cfg)
        ));
    }
}
