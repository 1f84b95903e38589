//! Equivalence suite for the parallel / batched / packed hot paths: on
//! seeded RAND instances of every substrate, the optimized paths must
//! produce **bit-identical values and identical selected sets** to the
//! sequential reference implementations, for any worker-thread count.
//!
//! The thread-count sweeps here use the rayon shim's runtime override
//! ([`rayon::set_num_threads`]), serialized through a shared lock so
//! concurrent tests cannot perturb each other's configured counts. CI
//! additionally re-runs this suite under `RAYON_NUM_THREADS=1`, which
//! pins the tests that *don't* override (the in-test override takes
//! precedence over the environment variable for the ones that do).

use std::sync::{Mutex, MutexGuard, OnceLock};

use fair_submod::core::prelude::*;
use fair_submod::core::system::{SolutionState, UtilitySystem};
use fair_submod::datasets::{facebook_like, rand_fl, rand_mc, seeds};
use fair_submod::facility::BenefitMatrix;
use fair_submod::graphs::{Graph, Groups};
use fair_submod::influence::oracle::{RisConfig, RisOracle};
use fair_submod::influence::{monte_carlo_evaluate, DiffusionModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `rayon::set_num_threads` is a process-global override, and the test
/// harness runs `#[test]`s concurrently — without serialization, one
/// test's "sequential" run could silently execute at another test's
/// thread count and this suite would stop exercising the configurations
/// it claims to compare. Every test that touches the override holds
/// this guard for its whole body (and restores the default on drop).
fn thread_override_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restores the auto thread count when a test exits (even by panic).
struct RestoreThreads;
impl Drop for RestoreThreads {
    fn drop(&mut self) {
        rayon::set_num_threads(0);
    }
}

/// Batch rows must equal per-item `group_gains` bit-for-bit.
fn assert_batch_matches_per_item<S: UtilitySystem>(system: &S, grown: &[u32]) {
    let c = system.num_groups();
    let n = system.num_items();
    let mut state = SolutionState::new(system);
    state.insert_all(grown);
    let items: Vec<u32> = (0..n as u32).collect();
    let mut batch = vec![0.0; n * c];
    state.gains_batch_into(&items, &mut batch);
    let mut row = vec![0.0; c];
    for (j, &v) in items.iter().enumerate() {
        state.gains_into(v, &mut row);
        for g in 0..c {
            assert_eq!(
                batch[j * c + g].to_bits(),
                row[g].to_bits(),
                "batch row diverged: item {v}, group {g}"
            );
        }
    }
}

#[test]
fn batch_gains_match_per_item_on_every_substrate() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let mc = rand_mc(2, 300, seeds::RAND);
    let coverage = mc.coverage_oracle();
    let ris = mc.ris_oracle(DiffusionModel::ic(0.1), 3_000, 7);
    let fl = rand_fl(3, seeds::FL);
    let facility = fl.oracle();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        assert_batch_matches_per_item(&coverage, &[0, 11, 42]);
        assert_batch_matches_per_item(&ris, &[3, 77]);
        assert_batch_matches_per_item(&facility, &[1, 19]);
    }
}

/// The seed per-item naive greedy, retained as the reference the
/// batched implementation must reproduce exactly.
fn reference_naive_greedy<S: UtilitySystem, A: Aggregate>(
    system: &S,
    aggregate: &A,
    k: usize,
) -> (Vec<u32>, f64, u64) {
    let n = system.num_items();
    let mut state = SolutionState::new(system);
    let mut value = state.value(aggregate);
    while state.len() < k {
        let mut best: Option<(f64, u32)> = None;
        for v in 0..n as u32 {
            if state.contains(v) {
                continue;
            }
            let gain = state.gain(aggregate, v);
            let better = match best {
                None => true,
                Some((bg, _)) => gain > bg + 1e-15,
            };
            if better {
                best = Some((gain, v));
            }
        }
        match best {
            Some((gain, v)) if gain > 1e-15 => {
                state.insert(v);
                value = state.value(aggregate);
            }
            _ => break,
        }
    }
    (state.items().to_vec(), value, state.oracle_calls())
}

#[test]
fn batched_naive_greedy_equals_per_item_reference() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let mc = rand_mc(2, 300, seeds::RAND + 3);
    let coverage = mc.coverage_oracle();
    let fl = rand_fl(2, seeds::FL + 1);
    let facility = fl.oracle();

    fn check<S: UtilitySystem>(system: &S, k: usize) {
        let f = MeanUtility::new(system.num_users());
        let (ref_items, ref_value, ref_calls) = reference_naive_greedy(system, &f, k);
        for threads in [1usize, 4] {
            rayon::set_num_threads(threads);
            let run = greedy(system, &f, &GreedyConfig::naive(k));
            assert_eq!(run.items, ref_items, "{threads} threads");
            assert_eq!(
                run.value.to_bits(),
                ref_value.to_bits(),
                "{threads} threads"
            );
            assert_eq!(run.oracle_calls, ref_calls, "{threads} threads");
        }
    }
    check(&coverage, 8);
    check(&facility, 6);
}

#[test]
fn packed_coverage_kernel_selects_identically_to_vec_bool() {
    let mc = rand_mc(4, 400, seeds::RAND + 4);
    let packed = mc.coverage_oracle();
    let unpacked = packed.unpacked_reference();
    let f = MeanUtility::new(packed.num_users());
    for cfg in [GreedyConfig::naive(10), GreedyConfig::lazy(10)] {
        let a = greedy(&packed, &f, &cfg);
        let b = greedy(&unpacked, &f, &cfg);
        assert_eq!(a.items, b.items);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.oracle_calls, b.oracle_calls);
    }
    let sat_a = saturate(&packed, &SaturateConfig::new(6).approximate_only());
    let sat_b = saturate(&unpacked, &SaturateConfig::new(6).approximate_only());
    assert_eq!(sat_a.items, sat_b.items);
    assert_eq!(
        sat_a.opt_g_estimate.to_bits(),
        sat_b.opt_g_estimate.to_bits()
    );
}

#[test]
fn end_to_end_solvers_are_thread_count_invariant() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let mc = rand_mc(2, 250, seeds::RAND + 5);
    let oracle = mc.coverage_oracle();
    let run_all = || {
        let ts = bsm_tsgreedy(&oracle, &TsGreedyConfig::new(6, 0.8));
        let bs = bsm_saturate(&oracle, &BsmSaturateConfig::new(6, 0.8));
        (ts.items, ts.eval.f.to_bits(), bs.items, bs.eval.f.to_bits())
    };
    rayon::set_num_threads(1);
    let seq = run_all();
    rayon::set_num_threads(4);
    let par = run_all();
    assert_eq!(seq, par);
}

#[test]
fn ris_sampling_and_monte_carlo_are_thread_count_invariant() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let mc = rand_mc(2, 150, seeds::RAND + 6);
    let model = DiffusionModel::ic(0.1);
    let run_all = || {
        let oracle = RisOracle::generate(&mc.graph, model, &mc.groups, &RisConfig::new(2_000, 31));
        let f = MeanUtility::new(oracle.num_users());
        let sel = greedy(&oracle, &f, &GreedyConfig::lazy(5));
        let eval = monte_carlo_evaluate(&mc.graph, model, &mc.groups, &sel.items, 1_000, 17);
        (sel.items, eval.f.to_bits(), eval.g.to_bits())
    };
    rayon::set_num_threads(1);
    let seq = run_all();
    rayon::set_num_threads(5);
    let par = run_all();
    assert_eq!(seq, par);
}

/// Forward uniform-`p` IC simulation with the float coin
/// `gen::<f64>() < p`, run by run on one thread: the per-run seeds,
/// BFS order and estimator formulas of `monte_carlo_evaluate`, none of
/// its code. Returns `(f, g, group means)`.
fn float_coin_ic_reference(
    graph: &Graph,
    groups: &Groups,
    p: f64,
    seeds: &[u32],
    runs: usize,
    seed: u64,
) -> (f64, f64, Vec<f64>) {
    let n = graph.num_nodes();
    let mut totals = vec![0.0f64; groups.num_groups()];
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed ^ (run as u64).wrapping_mul(0x9E37_79B9));
        let mut active = vec![false; n];
        let mut queue = Vec::new();
        for &s in seeds {
            if !active[s as usize] {
                active[s as usize] = true;
                queue.push(s);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in graph.out_neighbors(u) {
                if !active[v as usize] && rng.gen::<f64>() < p {
                    active[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        for &v in &queue {
            totals[groups.group_of(v as usize) as usize] += 1.0;
        }
    }
    let means: Vec<f64> = totals
        .iter()
        .zip(groups.sizes())
        .map(|(&t, &mi)| t / (runs as f64 * mi as f64))
        .collect();
    let f = totals.iter().sum::<f64>() / (runs as f64 * groups.num_users() as f64);
    let g = means.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    (f, g, means)
}

#[test]
fn monte_carlo_uniform_ic_matches_the_float_coin_reference() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let cases = [
        (
            facebook_like(2, seeds::FACEBOOK),
            0.01,
            vec![0u32, 5, 40, 300],
        ),
        (facebook_like(4, seeds::FACEBOOK), 0.1, vec![7u32, 7, 1000]),
        (rand_mc(2, 100, seeds::RAND), 0.1, vec![1u32, 20, 21, 99]),
        (rand_mc(4, 100, seeds::RAND + 1), 0.5, vec![0u32, 60]),
    ];
    for (data, p, seed_items) in &cases {
        let (f, g, means) =
            float_coin_ic_reference(&data.graph, &data.groups, *p, seed_items, 300, 23);
        for threads in [1usize, 4] {
            rayon::set_num_threads(threads);
            let model = DiffusionModel::ic(*p);
            let eval = monte_carlo_evaluate(&data.graph, model, &data.groups, seed_items, 300, 23);
            let label = format!("{} p={p} threads={threads}", data.name);
            assert_eq!(eval.f.to_bits(), f.to_bits(), "f: {label}");
            assert_eq!(eval.g.to_bits(), g.to_bits(), "g: {label}");
            assert_eq!(eval.group_means.len(), means.len(), "{label}");
            for (i, (a, b)) in eval.group_means.iter().zip(&means).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "group {i} mean: {label}");
            }
        }
    }
}

#[test]
fn benefit_matrix_is_thread_count_invariant() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let fl = rand_fl(2, seeds::FL + 2);
    rayon::set_num_threads(1);
    let seq = BenefitMatrix::rbf(&fl.users, &fl.items);
    rayon::set_num_threads(4);
    let par = BenefitMatrix::rbf(&fl.users, &fl.items);
    assert_eq!(seq.num_users(), par.num_users());
    for u in 0..seq.num_users() {
        let (a, b) = (seq.row(u), par.row(u));
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "row {u} diverged"
        );
    }
}
