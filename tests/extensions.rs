//! Integration tests for the extension APIs (streaming, distributed,
//! MWU, knapsack, non-monotone, Pareto frontier, curvature, contract
//! validation) on realistic dataset-crate instances — the features that
//! go beyond the paper's core algorithms but stay within its related /
//! future work.

use fair_submod::core::curvature::total_curvature;
use fair_submod::core::metrics::evaluate;
use fair_submod::core::prelude::*;
use fair_submod::core::validate::{check_contract, ValidationConfig};
use fair_submod::datasets::{rand_fl, rand_mc, seeds};
use fair_submod::influence::DiffusionModel;

#[test]
fn all_dataset_oracles_satisfy_the_contract() {
    let cfg = ValidationConfig {
        trials: 4,
        max_depth: 4,
        ..Default::default()
    };
    let mc = rand_mc(2, 80, seeds::RAND).coverage_oracle();
    check_contract(&mc, &cfg).unwrap();

    let fl = rand_fl(2, seeds::FL).oracle();
    check_contract(&fl, &cfg).unwrap();

    let im = rand_mc(2, 80, seeds::RAND).ris_oracle(DiffusionModel::ic(0.1), 2_000, 3);
    check_contract(&im, &cfg).unwrap();
}

#[test]
fn sieve_streaming_works_on_dataset_scale() {
    let dataset = rand_mc(2, 500, seeds::RAND);
    let oracle = dataset.coverage_oracle();
    let f = MeanUtility::new(500);
    let sieve = sieve_streaming(&oracle, &f, &SieveConfig::new(5)).expect("valid config");
    let central = greedy(&oracle, &f, &GreedyConfig::lazy(5));
    assert!(sieve.value >= 0.45 * central.value);
    // Memory bound: number of parallel candidates is O(log(k)/ε).
    assert!(sieve.candidates < 400, "{} candidates", sieve.candidates);
}

#[test]
fn greedi_scales_out_the_utility_stage() {
    let dataset = rand_mc(4, 500, seeds::RAND + 1);
    let oracle = dataset.coverage_oracle();
    let f = MeanUtility::new(500);
    let central = greedy(&oracle, &f, &GreedyConfig::lazy(8));
    let mut cfg = GreediConfig::new(8);
    cfg.shards = 8;
    let dist = greedi(&oracle, &f, &cfg).expect("valid config");
    assert!(dist.value >= 0.8 * central.value);
}

#[test]
fn mwu_and_saturate_agree_on_opt_g_scale() {
    let dataset = rand_mc(2, 500, seeds::RAND);
    let oracle = dataset.coverage_oracle();
    let sat = saturate(&oracle, &SaturateConfig::new(5).approximate_only());
    let mwu = mwu_robust(&oracle, &MwuConfig::new(5));
    let ratio = mwu.opt_g_estimate / sat.opt_g_estimate.max(1e-12);
    assert!(
        (0.5..=2.0).contains(&ratio),
        "MWU {} vs Saturate {}",
        mwu.opt_g_estimate,
        sat.opt_g_estimate
    );
}

#[test]
fn knapsack_greedy_with_distance_costs_on_fl() {
    // Facility opening cost proportional to distance from the city
    // center: remote facilities must pay for themselves.
    let dataset = rand_fl(2, seeds::FL);
    let oracle = dataset.oracle();
    let f = MeanUtility::new(oracle.num_users());
    let costs: Vec<f64> = (0..dataset.num_items())
        .map(|i| {
            let p = dataset.items.point(i);
            1.0 + p.iter().map(|x| x * x).sum::<f64>().sqrt()
        })
        .collect();
    let budget = 8.0;
    let out = knapsack_greedy(
        &oracle,
        &f,
        &KnapsackConfig {
            costs: costs.clone(),
            budget,
        },
    );
    assert!(out.cost <= budget + 1e-9);
    assert!(out.value > 0.0);
    let recomputed = evaluate(&oracle, &out.items).f;
    assert!((recomputed - out.value).abs() < 1e-9);
}

#[test]
fn pareto_frontier_prefers_bsm_saturate_on_mc() {
    // The paper's headline: BSM-Saturate offers better trade-offs. On
    // the c=4 RAND instance its frontier hypervolume must be at least
    // competitive with TSGreedy's.
    let dataset = rand_mc(4, 500, seeds::RAND + 1);
    let oracle = dataset.coverage_oracle();
    let taus: Vec<f64> = (0..=5).map(|i| i as f64 / 5.0).collect();
    let hv = |solver| {
        pareto_frontier(
            &oracle,
            &FrontierConfig {
                taus: taus.clone(),
                solver,
                ..FrontierConfig::new(5)
            },
        )
        .hypervolume
    };
    let ts = hv(FrontierSolver::TsGreedy);
    let bs = hv(FrontierSolver::BsmSaturate);
    assert!(
        bs + 1e-9 >= 0.9 * ts,
        "BSM-Saturate hypervolume {bs} far below TSGreedy {ts}"
    );
}

#[test]
fn curvature_explains_facility_location_ease() {
    // FL with RBF benefits has κ < 1 (every facility retains marginal
    // value even added last), so greedy's curvature bound beats 1−1/e;
    // MC dominating sets are near κ = 1.
    let fl = rand_fl(2, seeds::FL).oracle();
    let c_fl = total_curvature(&fl, &MeanUtility::new(100));
    assert!(c_fl.kappa < 1.0 - 1e-6, "FL κ = {}", c_fl.kappa);
    assert!(c_fl.greedy_factor > 1.0 - 1.0 / std::f64::consts::E);

    let mc = rand_mc(2, 150, seeds::RAND).coverage_oracle();
    let c_mc = total_curvature(&mc, &MeanUtility::new(150));
    assert!(c_mc.kappa > c_fl.kappa - 1e-9, "MC should be more curved");
}

#[test]
fn random_greedy_handles_penalized_im_style_instance() {
    // Utility minus per-item cost on a coverage instance: non-monotone.
    let dataset = rand_mc(2, 100, seeds::RAND + 2);
    let oracle = dataset.coverage_oracle();
    let costs = vec![2.0; 100]; // each item costs 2 user-equivalents
    let penalized = PenalizedSystem::new(oracle, costs);
    let f = MeanUtility::new(100);
    let out = random_greedy(&penalized, &f, &RandomGreedyConfig { k: 10, seed: 11 });
    // The solver must stop before forcing net-negative additions.
    assert!(out.value >= 0.0, "value {}", out.value);
    assert!(out.items.len() <= 10);
}
