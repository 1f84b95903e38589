//! Equivalence suite for the PR-7 kernel pass (DESIGN.md §9): the
//! incremental gain kernels must be **bit-identical** to the retained
//! rescan references after *arbitrary* apply sequences, and CELF (lazy
//! greedy with batched stale refreshes — the default variant) must
//! select exactly what the naive full-scan argmax selects, across
//! seeds, thread counts, and every greedy-using algorithm core.
//!
//! Three substrates, three incremental strategies:
//! * RIS — per-node uncovered-RR-set counters (`incremental_counters`),
//!   reference = [`RisOracle::rescan_reference`], on the root oracle and
//!   on its zero-copy restricted views (DESIGN.md §11), whose `apply`
//!   filters the shared arena down to member rows;
//! * coverage — per-item uncovered-user counters
//!   (`incremental_counters`), reference =
//!   [`CoverageOracle::unpacked_reference`], which reads the raw
//!   element lists rather than the packed words the counters are built
//!   from;
//! * facility — saturation-filtered active-user scans (`active_set`),
//!   reference = [`FacilityOracle::rescan_reference`].
//!
//! Oracle-call accounting must also agree: a counter read answers the
//! same `group_gains` contract as a rescan, so both sides of every pair
//! report identical `oracle_calls` on identical runs (the PR-2 batched
//! accounting rule, extended to the fast paths).

use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;

use fair_submod::core::prelude::*;
use fair_submod::core::system::UtilitySystem;
use fair_submod::coverage::CoverageOracle;
use fair_submod::datasets::{rand_fl, rand_mc, seeds};
use fair_submod::facility::FacilityOracle;
use fair_submod::influence::oracle::RisOracle;
use fair_submod::influence::DiffusionModel;

/// Serializes tests that touch the process-global rayon override (same
/// rationale as `tests/parallel_equivalence.rs`).
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

/// Shared oracles for the proptest cases (built once; the RIS build in
/// particular is too expensive to repeat per generated case).
fn shared_coverage() -> &'static CoverageOracle {
    static ORACLE: OnceLock<CoverageOracle> = OnceLock::new();
    ORACLE.get_or_init(|| rand_mc(2, 120, seeds::RAND + 21).coverage_oracle())
}

fn shared_ris() -> &'static RisOracle {
    static ORACLE: OnceLock<RisOracle> = OnceLock::new();
    ORACLE.get_or_init(|| {
        rand_mc(2, 120, seeds::RAND + 22).ris_oracle(DiffusionModel::ic(0.1), 3_000, 17)
    })
}

/// A zero-copy view over [`shared_ris`] (every third item), shared
/// across proptest cases like the root oracle.
fn shared_ris_view() -> &'static RisOracle {
    static VIEW: OnceLock<RisOracle> = OnceLock::new();
    VIEW.get_or_init(|| {
        let members: Vec<ItemId> = (0..shared_ris().num_items() as ItemId).step_by(3).collect();
        shared_ris().restrict(&members).expect("valid members")
    })
}

fn shared_facility() -> &'static FacilityOracle {
    static ORACLE: OnceLock<FacilityOracle> = OnceLock::new();
    ORACLE.get_or_init(|| rand_fl(2, seeds::FL + 3).oracle())
}

/// Drives `fast` and `reference` through the same apply sequence,
/// asserting every per-item/per-group gain bit-identical at every
/// prefix (including the empty set) and after the full sequence.
fn assert_incremental_matches_reference<A, B>(fast: &A, reference: &B, applies: &[u32])
where
    A: UtilitySystem,
    B: UtilitySystem,
{
    assert_eq!(fast.num_items(), reference.num_items());
    let n = fast.num_items();
    let c = fast.num_groups();
    let mut fs = fast.init_inner();
    let mut rs = reference.init_inner();
    let mut fg = vec![0.0; c];
    let mut rg = vec![0.0; c];
    let check_all = |fs: &A::Inner, rs: &B::Inner, fg: &mut [f64], rg: &mut [f64], step: usize| {
        for v in 0..n as u32 {
            fast.group_gains(fs, v, fg);
            reference.group_gains(rs, v, rg);
            for g in 0..c {
                assert_eq!(
                    fg[g].to_bits(),
                    rg[g].to_bits(),
                    "gain diverged at step {step}, item {v}, group {g}: {} vs {}",
                    fg[g],
                    rg[g]
                );
            }
        }
    };
    check_all(&fs, &rs, &mut fg, &mut rg, 0);
    for (step, &v) in applies.iter().enumerate() {
        let v = v % n as u32;
        fast.apply(&mut fs, v);
        reference.apply(&mut rs, v);
        check_all(&fs, &rs, &mut fg, &mut rg, step + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn coverage_counters_match_scan_after_any_apply_sequence(
        applies in proptest::collection::vec(any::<u32>(), 0..12)
    ) {
        let oracle = shared_coverage();
        assert_incremental_matches_reference(oracle, &oracle.unpacked_reference(), &applies);
    }

    #[test]
    fn ris_counters_match_rescan_after_any_apply_sequence(
        applies in proptest::collection::vec(any::<u32>(), 0..12)
    ) {
        let oracle = shared_ris();
        assert_incremental_matches_reference(oracle, &oracle.rescan_reference(), &applies);
    }

    #[test]
    fn ris_view_counters_match_rescan_after_any_apply_sequence(
        applies in proptest::collection::vec(any::<u32>(), 0..12)
    ) {
        let view = shared_ris_view();
        assert_incremental_matches_reference(view, &view.rescan_reference(), &applies);
    }

    #[test]
    fn facility_active_set_matches_rescan_after_any_apply_sequence(
        applies in proptest::collection::vec(any::<u32>(), 0..12)
    ) {
        let oracle = shared_facility();
        assert_incremental_matches_reference(oracle, &oracle.rescan_reference(), &applies);
    }
}

/// Greedy over the fast kernel vs greedy over the rescan reference:
/// same items, same value bits, same oracle-call accounting — for both
/// variants, so the counter-read fast path counts exactly like the
/// rescan path it replaced.
fn assert_greedy_parity<A: UtilitySystem, B: UtilitySystem>(fast: &A, reference: &B, k: usize) {
    let f = MeanUtility::new(fast.num_users());
    for cfg in [GreedyConfig::naive(k), GreedyConfig::lazy(k)] {
        let a = greedy(fast, &f, &cfg);
        let b = greedy(reference, &f, &cfg);
        assert_eq!(a.items, b.items, "selection diverged ({cfg:?})");
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "objective diverged ({cfg:?})"
        );
        assert_eq!(
            a.oracle_calls, b.oracle_calls,
            "fast-kernel call accounting diverged from rescan ({cfg:?})"
        );
    }
}

#[test]
fn greedy_runs_identically_on_fast_and_rescan_kernels() {
    let coverage = shared_coverage();
    assert_greedy_parity(coverage, &coverage.unpacked_reference(), 8);
    let ris = shared_ris();
    assert_greedy_parity(ris, &ris.rescan_reference(), 8);
    let facility = shared_facility();
    assert_greedy_parity(facility, &facility.rescan_reference(), 8);
}

/// A restricted view solves like the rescan kernel over the same view,
/// and so does a restrict-of-restrict, whose member lists compose back
/// to the root oracle.
#[test]
fn greedy_runs_identically_on_ris_views_and_their_rescan_twins() {
    let view = shared_ris_view();
    assert_greedy_parity(view, &view.rescan_reference(), 6);
    let nested_members: Vec<ItemId> = (0..view.num_items() as ItemId).step_by(2).collect();
    let nested = view.restrict(&nested_members).expect("valid members");
    assert_greedy_parity(&nested, &nested.rescan_reference(), 4);
}

/// CELF == naive across every greedy-using core, seeds, and thread
/// counts. Coverage instances have two groups so the BSM schemes run.
#[test]
fn lazy_default_matches_naive_across_cores_seeds_and_threads() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    for seed in [1u64, 2, 3] {
        let oracle = rand_mc(2, 150, seeds::RAND + 30 + seed).coverage_oracle();
        let f = MeanUtility::new(oracle.num_users());
        for threads in [1usize, 4] {
            rayon::set_num_threads(threads);

            // 1. Plain greedy.
            let lz = greedy(&oracle, &f, &GreedyConfig::lazy(6));
            let nv = greedy(&oracle, &f, &GreedyConfig::naive(6));
            assert_eq!(lz.items, nv.items, "greedy seed {seed} threads {threads}");
            assert_eq!(lz.value.to_bits(), nv.value.to_bits());
            assert!(
                lz.oracle_calls < nv.oracle_calls,
                "CELF must save calls: {} vs {} (seed {seed})",
                lz.oracle_calls,
                nv.oracle_calls
            );

            // 2. Saturate (bisection over greedy covers). Its probes
            // aggregate through `TruncatedMean`, whose real-valued
            // gains can near-tie within one ULP — the naive argmax's
            // `> best + 1e-15` slack keeps the earlier candidate while
            // the lazy heap's exact compare takes the true max (see
            // DESIGN.md §9), so item-for-item equality is not
            // guaranteed here. What both variants do guarantee is the
            // same bisection convergence: the returned coverage-level
            // estimates must agree to well under bisection precision.
            let mut sat_lazy = SaturateConfig::new(5).approximate_only();
            sat_lazy.variant = GreedyVariant::Lazy;
            let mut sat_naive = SaturateConfig::new(5).approximate_only();
            sat_naive.variant = GreedyVariant::Naive;
            let sl = saturate(&oracle, &sat_lazy);
            let sn = saturate(&oracle, &sat_naive);
            assert!(
                (sl.opt_g_estimate - sn.opt_g_estimate).abs() <= 1e-9,
                "saturate estimates diverged beyond near-tie noise: \
                 {} vs {} (seed {seed} threads {threads})",
                sl.opt_g_estimate,
                sn.opt_g_estimate
            );
            assert!(!sl.items.is_empty() && !sn.items.is_empty());

            // 3–4. The two BSM schemes.
            let mut bs_lazy = BsmSaturateConfig::new(5, 0.8);
            bs_lazy.variant = GreedyVariant::Lazy;
            let mut bs_naive = BsmSaturateConfig::new(5, 0.8);
            bs_naive.variant = GreedyVariant::Naive;
            let bl = bsm_saturate(&oracle, &bs_lazy);
            let bn = bsm_saturate(&oracle, &bs_naive);
            assert_eq!(
                bl.items, bn.items,
                "bsm_saturate seed {seed} threads {threads}"
            );
            assert_eq!(bl.eval.f.to_bits(), bn.eval.f.to_bits());
            assert_eq!(bl.eval.g.to_bits(), bn.eval.g.to_bits());
            assert_eq!(bl.fell_back, bn.fell_back);

            let mut ts_lazy = TsGreedyConfig::new(5, 0.8);
            ts_lazy.variant = GreedyVariant::Lazy;
            let mut ts_naive = TsGreedyConfig::new(5, 0.8);
            ts_naive.variant = GreedyVariant::Naive;
            let tl = bsm_tsgreedy(&oracle, &ts_lazy);
            let tn = bsm_tsgreedy(&oracle, &ts_naive);
            assert_eq!(
                tl.items, tn.items,
                "bsm_tsgreedy seed {seed} threads {threads}"
            );
            assert_eq!(tl.eval.f.to_bits(), tn.eval.f.to_bits());
            assert_eq!(tl.eval.g.to_bits(), tn.eval.g.to_bits());
            assert_eq!(tl.fell_back, tn.fell_back);
        }
    }
}

/// CELF == naive on the real-valued facility substrate (where gains are
/// `f64` sums, not integer counts) and on RIS.
#[test]
fn lazy_matches_naive_on_facility_and_ris() {
    let facility = shared_facility();
    let f = MeanUtility::new(facility.num_users());
    for k in [3usize, 8] {
        let lz = greedy(facility, &f, &GreedyConfig::lazy(k));
        let nv = greedy(facility, &f, &GreedyConfig::naive(k));
        assert_eq!(lz.items, nv.items, "facility k={k}");
        assert_eq!(lz.value.to_bits(), nv.value.to_bits());
    }
    let ris = shared_ris();
    let f = MeanUtility::new(ris.num_users());
    for k in [3usize, 8] {
        let lz = greedy(ris, &f, &GreedyConfig::lazy(k));
        let nv = greedy(ris, &f, &GreedyConfig::naive(k));
        assert_eq!(lz.items, nv.items, "ris k={k}");
        assert_eq!(lz.value.to_bits(), nv.value.to_bits());
    }
}

/// The default greedy variant is Lazy everywhere a config defaults.
#[test]
fn lazy_is_the_default_variant() {
    assert!(matches!(GreedyVariant::default(), GreedyVariant::Lazy));
    assert!(matches!(
        SaturateConfig::new(3).variant,
        GreedyVariant::Lazy
    ));
    assert!(matches!(
        BsmSaturateConfig::new(3, 0.5).variant,
        GreedyVariant::Lazy
    ));
    assert!(matches!(
        TsGreedyConfig::new(3, 0.5).variant,
        GreedyVariant::Lazy
    ));
    assert!(matches!(GreediConfig::new(3).variant, GreedyVariant::Lazy));
}

/// The registry stamps each substrate's kernel label into the report.
#[test]
fn reports_carry_the_gain_kernel_label() {
    let registry = SolverRegistry::default();
    let params = ScenarioParams::new(4, 0.8);
    let coverage = shared_coverage();
    let report = registry.solve("Greedy", coverage, &params).unwrap();
    assert_eq!(report.gain_kernel, "incremental_counters");
    let facility = shared_facility();
    let report = registry.solve("Greedy", facility, &params).unwrap();
    assert_eq!(report.gain_kernel, "active_set");
    // The rescan references keep the default label.
    let rescan = facility.rescan_reference();
    let report = registry.solve("Greedy", &rescan, &params).unwrap();
    assert_eq!(report.gain_kernel, "rescan");
}
