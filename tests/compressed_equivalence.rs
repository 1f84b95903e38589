//! Greedy parity and kernel labels of the RR arena (DESIGN.md §11).
//! The arena was once delta-encoded and held here against a flat twin;
//! it is now the flat `u32` layout itself, so both tests below hold it
//! against the rescan kernel (`RisOracle::rescan_reference`) under
//! the names they had then. The per-prefix gain proptests and the
//! restricted-view cases live in `tests/incremental_equivalence.rs`.
//!
//! Greedy parity also pins `oracle_calls`: a counter read answers the
//! same `group_gains` contract as a rescan, so both sides report
//! identical call accounting on identical runs.

use fair_submod::core::prelude::*;
use fair_submod::core::system::UtilitySystem;
use fair_submod::datasets::{rand_mc, seeds};
use fair_submod::influence::DiffusionModel;

/// Restores the auto thread count when a test exits (even by panic).
struct RestoreThreads;
impl Drop for RestoreThreads {
    fn drop(&mut self) {
        rayon::set_num_threads(0);
    }
}

/// Greedy over `fast` vs greedy over `reference`: same items, same
/// value bits, same oracle-call accounting, for both variants.
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
            "counter-kernel call accounting diverged from rescan ({cfg:?})"
        );
    }
}

/// Both greedy variants, three seeds, thread counts 1 and 4: the RIS
/// counters over the flat arena and the rescan kernel must agree
/// item-for-item and bit-for-bit however gain batches are scheduled.
#[test]
fn greedy_runs_identically_on_compressed_and_flat_arenas() {
    let _restore = RestoreThreads;
    for seed in [1u64, 2, 3] {
        let oracle =
            rand_mc(2, 100, seeds::RAND + 50 + seed).ris_oracle(DiffusionModel::ic(0.12), 2_000, 7);
        let rescan = oracle.rescan_reference();
        for threads in [1usize, 4] {
            rayon::set_num_threads(threads);
            assert_greedy_parity(&oracle, &rescan, 6);
        }
    }
}

/// The registry stamps the kernel labels: the RIS oracle reports
/// `incremental_counters`, its rescan twin the default `rescan`.
#[test]
fn reports_carry_the_compressed_kernel_label() {
    let registry = SolverRegistry::default();
    let params = ScenarioParams::new(4, 0.8);
    let oracle = rand_mc(2, 120, seeds::RAND + 40).ris_oracle(DiffusionModel::ic(0.1), 3_000, 19);
    let report = registry.solve("Greedy", &oracle, &params).unwrap();
    assert_eq!(report.gain_kernel, "incremental_counters");
    let rescan = oracle.rescan_reference();
    let report = registry.solve("Greedy", &rescan, &params).unwrap();
    assert_eq!(report.gain_kernel, "rescan");
}
