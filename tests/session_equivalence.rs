//! Session/one-shot equivalence suite (DESIGN.md §7): resumable
//! sessions must be a pure re-cutting of the algorithms at round
//! boundaries — never a different algorithm.
//!
//! Two invariants, enforced on every substrate:
//!
//! 1. **Run equivalence** — for every solver whose capabilities declare
//!    `resumable`, opening a session and stepping it to completion
//!    yields a report bit-identical (items, objective, f/g, oracle-call
//!    counts; everything except wall-clock `seconds`) to the one-shot
//!    `registry.solve` with the same parameters.
//! 2. **Prefix equivalence** — for prefix-exact sessions (the greedy
//!    family), `solution_at(k)` for *every* `k` of a sweep is
//!    bit-identical to a cold one-shot run at budget `k`. This is the
//!    invariant the bench harness's warm k-axis sweeps and the
//!    `grid_warm_vs_cold` benchmark rest on.
//! 3. **Stage-reuse equivalence** — solves fed the τ-independent BSM
//!    stages from a [`StageMemo`] (as the daemon's `/solve` is), and
//!    every point of a `pareto_frontier` sweep (which computes the
//!    stages once), are bit-identical to cold one-shot solves. Since
//!    one-shot solves seed their steppers with precomputed stages while
//!    sessions step them, invariant 1 also pins seeded == stepped.
//!
//! CI re-runs this suite under `RAYON_NUM_THREADS=1`; the in-test
//! thread sweep covers the multi-worker configuration, so the prefix
//! property holds at any thread count.

use std::sync::{Mutex, MutexGuard, OnceLock};

use fair_submod::core::engine::{
    MemoSystem, ScenarioParams, SessionStatus, SolveReport, SolverRegistry, StageMemo,
};
use fair_submod::core::metrics::evaluate;
use fair_submod::core::prelude::*;
use fair_submod::datasets::{rand_fl, rand_mc, seeds};
use fair_submod::influence::DiffusionModel;
use fair_submod_bench::harness::{run_suite, GridConfig};

/// Serializes tests that touch the process-global rayon override (same
/// rationale as `tests/parallel_equivalence.rs`).
fn thread_override_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct RestoreThreads;
impl Drop for RestoreThreads {
    fn drop(&mut self) {
        rayon::set_num_threads(0);
    }
}

fn strip_seconds(mut report: SolveReport) -> SolveReport {
    report.seconds = 0.0;
    report
}

/// Bit-identity of two reports apart from `seconds`: the struct
/// equality plus every float by bit pattern.
fn assert_same_report(a: &SolveReport, b: &SolveReport, context: &str) {
    assert_eq!(a, b, "{context}");
    let bits = |r: &SolveReport| {
        let notes: Vec<(String, u64)> = r
            .notes
            .iter()
            .map(|(l, v)| (l.clone(), v.to_bits()))
            .collect();
        let floats = [r.objective, r.f, r.g, r.opt_f_estimate, r.opt_g_estimate].map(f64::to_bits);
        (floats, notes)
    };
    assert_eq!(bits(a), bits(b), "{context}: float bits");
}

/// The solvers that share the τ-independent stages, and the τ grid the
/// stage-reuse checks sweep.
const STAGE_SOLVERS: [&str; 3] = ["Saturate", "BSM-TSGreedy", "BSM-Saturate"];
const STAGE_TAUS: [f64; 4] = [0.0, 0.2, 0.6, 1.0];

/// Memo-fed solves, in an order that interleaves solvers and τ, equal
/// cold solves; the memo ends up holding one entry per stage.
fn check_memo_fed_solves(system: &dyn DynUtilitySystem, label: &str, k: usize) {
    let registry = SolverRegistry::default();
    let memo = StageMemo::new();
    let memo_fed = MemoSystem::new(system, &memo);
    let cells: Vec<(&str, f64)> = STAGE_SOLVERS
        .iter()
        .flat_map(|&name| STAGE_TAUS.iter().map(move |&tau| (name, tau)))
        .collect();
    // Stride 5 is coprime to the 12 cells: a fixed shuffle.
    for i in 0..cells.len() {
        let (name, tau) = cells[(i * 5) % cells.len()];
        let params = ScenarioParams::new(k, tau);
        let cold = strip_seconds(registry.solve(name, system, &params).unwrap());
        let fed = strip_seconds(registry.solve(name, &memo_fed, &params).unwrap());
        assert_same_report(
            &fed,
            &cold,
            &format!("{label}/{name} τ={tau}: memo-fed != cold"),
        );
    }
    assert_eq!(
        memo.len(),
        2,
        "{label}: one greedy-on-f and one Saturate key"
    );
}

/// Every point of a sweep (stages computed once) equals the cold
/// per-point solve, for both frontier solvers.
fn check_frontier_points(system: &dyn DynUtilitySystem, label: &str, k: usize) {
    let registry = SolverRegistry::default();
    for (solver, name) in [
        (FrontierSolver::TsGreedy, "BSM-TSGreedy"),
        (FrontierSolver::BsmSaturate, "BSM-Saturate"),
    ] {
        let cfg = FrontierConfig {
            taus: STAGE_TAUS.to_vec(),
            solver,
            ..FrontierConfig::new(k)
        };
        let frontier = pareto_frontier(&ErasedSystem(system), &cfg);
        assert_eq!(frontier.points.len(), STAGE_TAUS.len(), "{label}/{name}");
        for point in &frontier.points {
            let cold = registry
                .solve(name, system, &ScenarioParams::new(k, point.tau))
                .unwrap();
            let context = format!("{label}/{name} τ={}: sweep point != cold", point.tau);
            assert_eq!(point.items, cold.items, "{context}");
            assert_eq!(point.f.to_bits(), cold.f.to_bits(), "{context}");
            assert_eq!(point.g.to_bits(), cold.g.to_bits(), "{context}");
        }
    }
}

/// For every resumable solver: session-to-completion == one-shot, and
/// for prefix-exact sessions every `k` of the sweep == a cold run; then
/// the stage-reuse checks at the largest `k`.
fn check_sessions_on(system: &dyn DynUtilitySystem, label: &str) {
    let registry = SolverRegistry::default();
    let ks = [1usize, 2, 4, 6];
    let max_k = *ks.last().unwrap();
    let resumable: Vec<&str> = registry
        .names()
        .into_iter()
        .filter(|name| {
            registry
                .get(name)
                .is_some_and(|s| s.capabilities().resumable)
        })
        .collect();
    assert!(
        resumable.len() >= 6,
        "{label}: expected the greedy/Saturate/BSM family plus the scale \
         solvers (GreeDi, SieveStreaming) to be resumable, got {resumable:?}"
    );
    for name in resumable {
        let params = ScenarioParams::new(max_k, 0.6);
        // (1) Run equivalence at the session's own budget.
        let one_shot = strip_seconds(registry.solve(name, system, &params).unwrap());
        let mut session = registry.open_session(name, system, &params).unwrap();
        // The static capability (what grid planners group on) must
        // agree with the opened session's own answer.
        assert_eq!(
            session.prefix_exact(),
            registry.get(name).unwrap().capabilities().prefix_exact,
            "{label}/{name}: prefix_exact capability drifted from the session"
        );
        while session.step(system) == SessionStatus::Running {}
        assert!(session.done());
        let finished = session.finish(system).unwrap();
        assert_eq!(finished, one_shot, "{label}/{name}: session != one-shot");

        // (2) Prefix equivalence across the whole sweep.
        if session.prefix_exact() {
            for &k in &ks {
                let mut cold_params = params.clone();
                cold_params.k = k;
                let cold = strip_seconds(registry.solve(name, system, &cold_params).unwrap());
                let warm = session.solution_at(system, k).unwrap();
                assert_eq!(
                    warm, cold,
                    "{label}/{name}: prefix at k={k} differs from a cold run"
                );
            }
        } else {
            // Non-prefix sessions refuse other budgets instead of
            // silently answering them wrong.
            assert!(session.solution_at(system, max_k - 1).is_err(), "{name}");
            let own = session.solution_at(system, max_k).unwrap();
            assert_eq!(own, one_shot, "{label}/{name}");
        }
    }
    // (3) Stage reuse: memo-fed solves and seeded sweep points.
    check_memo_fed_solves(system, label, max_k);
    check_frontier_points(system, label, max_k);
}

#[test]
fn sessions_match_one_shot_runs_on_coverage() {
    let dataset = rand_mc(2, 120, seeds::RAND + 11);
    let oracle = dataset.coverage_oracle();
    check_sessions_on(&oracle, "coverage");
}

#[test]
fn sessions_match_one_shot_runs_on_facility() {
    let dataset = rand_fl(3, seeds::FL + 11);
    let oracle = dataset.oracle();
    check_sessions_on(&oracle, "facility");
}

#[test]
fn sessions_match_one_shot_runs_on_influence() {
    let dataset = rand_mc(2, 100, seeds::RAND + 12);
    let oracle = dataset.ris_oracle(DiffusionModel::ic(0.1), 2_000, 13);
    check_sessions_on(&oracle, "influence");
}

#[test]
fn greedy_prefixes_match_cold_runs_for_every_variant_and_thread_count() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let dataset = rand_mc(2, 200, seeds::RAND + 13);
    let oracle = dataset.coverage_oracle();
    let registry = SolverRegistry::default();
    let variants = [
        GreedyVariant::Naive,
        GreedyVariant::Lazy,
        GreedyVariant::Stochastic { sample_size: 25 },
    ];
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        for variant in &variants {
            let mut params = ScenarioParams::new(8, 0.5).with_seed(17);
            params.variant = variant.clone();
            let mut session = registry.open_session("Greedy", &oracle, &params).unwrap();
            assert!(session.prefix_exact());
            while session.step(&oracle) == SessionStatus::Running {}
            for k in 1..=8usize {
                let mut cold_params = params.clone();
                cold_params.k = k;
                let cold = strip_seconds(registry.solve("Greedy", &oracle, &cold_params).unwrap());
                let warm = session.solution_at(&oracle, k).unwrap();
                assert_eq!(warm, cold, "{variant:?} k={k} threads={threads}");
            }
        }
    }
}

/// The native GreeDi session works at shard granularity: one step per
/// shard (round 1), then one merge step — and the finished report is
/// bit-identical to the one-shot solver. Mid-run snapshots expose the
/// best shard found so far, which a serving layer can return early.
#[test]
fn greedi_sessions_step_one_shard_per_round() {
    let dataset = rand_mc(2, 150, seeds::RAND + 15);
    let oracle = dataset.coverage_oracle();
    let registry = SolverRegistry::default();
    let mut params = ScenarioParams::new(5, 0.5).with_seed(7);
    params.shards = 4;
    let one_shot = strip_seconds(registry.solve("GreeDi", &oracle, &params).unwrap());

    let mut session = registry.open_session("GreeDi", &oracle, &params).unwrap();
    assert!(!session.done());
    // Round 1: one step per shard, all still Running.
    for shard in 0..params.shards {
        assert_eq!(
            session.step(&oracle),
            SessionStatus::Running,
            "shard {shard} ended the session early"
        );
        let snap = session.snapshot();
        assert_eq!(snap.round, shard + 1);
        assert!(!snap.done);
        assert!(snap.items.len() <= params.k, "partial solution over budget");
        assert!(snap.objective >= 0.0 && snap.oracle_calls > 0);
    }
    // Asking for a solution before the merge is a typed refusal.
    assert!(session.solution_at(&oracle, params.k).is_err());
    // The merge step finishes it; further steps are no-ops.
    assert_eq!(session.step(&oracle), SessionStatus::Done);
    assert_eq!(session.rounds(), params.shards + 1);
    assert_eq!(session.step(&oracle), SessionStatus::Done);
    assert_eq!(
        session.rounds(),
        params.shards + 1,
        "post-done step counted"
    );
    let finished = strip_seconds(session.finish(&oracle).unwrap());
    assert_eq!(finished, one_shot, "GreeDi session != one-shot");
    assert_eq!(finished.notes.len(), 2, "shards + best_shard_value notes");
}

/// The native Sieve-Streaming session consumes one stream arrival per
/// step — exactly `n` steps — and finishes bit-identical to the
/// one-shot solver.
#[test]
fn sieve_sessions_step_one_arrival_per_item() {
    let dataset = rand_mc(2, 80, seeds::RAND + 16);
    let oracle = dataset.coverage_oracle();
    let n = oracle.dyn_num_items();
    let registry = SolverRegistry::default();
    let params = ScenarioParams::new(4, 0.5);
    let one_shot = strip_seconds(registry.solve("SieveStreaming", &oracle, &params).unwrap());

    let mut session = registry
        .open_session("SieveStreaming", &oracle, &params)
        .unwrap();
    let mut arrivals = 0usize;
    while session.step(&oracle) == SessionStatus::Running {
        arrivals += 1;
        let snap = session.snapshot();
        assert_eq!(snap.round, arrivals);
        assert!(snap.items.len() <= params.k, "sieve overflowed the budget");
    }
    arrivals += 1;
    assert_eq!(arrivals, n, "one step per stream arrival");
    assert_eq!(session.rounds(), n);
    let finished = strip_seconds(session.finish(&oracle).unwrap());
    assert_eq!(finished, one_shot, "Sieve session != one-shot");
}

/// The harness-level statement of the same invariant: a warm suite run
/// equals a cold suite run cell for cell (items, objective, f/g bits,
/// oracle calls) on every substrate the grid executor serves.
#[test]
fn warm_suite_equals_cold_suite_across_substrates() {
    let registry = SolverRegistry::default();
    let mut grid = GridConfig::paper(6, 0.7);
    grid.ks = vec![2, 4, 6];
    grid.repetitions = 2;

    let mc = rand_mc(2, 100, seeds::RAND + 14);
    let coverage = mc.coverage_oracle();
    let fl = rand_fl(2, seeds::FL + 14);
    let facility = fl.oracle();

    let check = |system: &dyn DynUtilitySystem, label: &str| {
        let evaluator = |items: &[ItemId]| evaluate(&ErasedSystem(system), items);
        let warm = run_suite(system, &evaluator, &registry, &grid).unwrap();
        let cold = run_suite(system, &evaluator, &registry, &grid.clone().cold()).unwrap();
        assert_eq!(warm.len(), cold.len(), "{label}");
        let mut warm_count = 0usize;
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(
                (w.solver.as_str(), w.k, w.rep),
                (c.solver.as_str(), c.k, c.rep)
            );
            match (&w.outcome, &c.outcome) {
                (Ok(wr), Ok(cr)) => {
                    assert_eq!(wr.items, cr.items, "{label} {} k={}", w.solver, w.k);
                    assert_eq!(wr.objective.to_bits(), cr.objective.to_bits());
                    assert_eq!(wr.f.to_bits(), cr.f.to_bits());
                    assert_eq!(wr.g.to_bits(), cr.g.to_bits());
                    assert_eq!(wr.oracle_calls, cr.oracle_calls);
                }
                (Err(we), Err(ce)) => assert_eq!(we, ce),
                (w, c) => panic!("{label}: warm {w:?} vs cold {c:?}"),
            }
            warm_count += usize::from(w.warm);
        }
        assert!(
            warm_count > 0,
            "{label}: no cell rode the warm path on a multi-k grid"
        );
    };
    check(&coverage, "coverage");
    check(&facility, "facility");
}
