//! Cross-validation of the three exact solvers — brute force, submodular
//! branch-and-bound, and the Appendix-A ILP — on random MC and FL
//! instances. Any disagreement indicates a bug in one of them; they are
//! implemented independently (combinatorial vs simplex-based).
//!
//! The second half iterates the *full* `SolverRegistry` generically:
//! every registered solver must respect the budget `k`, report
//! non-negative per-group utilities, and be deterministic across two
//! runs — invariants that hold for any present or future registry
//! entry, so new solvers are covered the moment they register.

use fair_submod::core::engine::SessionStatus;
use fair_submod::core::prelude::*;
use fair_submod::coverage::{CoverageOracle, SetSystem};
use fair_submod::facility::{BenefitMatrix, FacilityOracle};
use fair_submod::graphs::Groups;
use fair_submod::lp::bsm_ilp::{fl_bsm_optimal, mc_bsm_optimal};
use fair_submod::lp::IlpConfig;
use serde::json::Value;
use serde::ToJson;

/// Small deterministic PRNG for instance generation.
struct Xorshift(u64);

impl Xorshift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_range(&mut self, hi: usize) -> usize {
        (self.next_f64() * hi as f64) as usize % hi
    }
}

fn random_mc_instance(seed: u64, n: usize, m: usize, c: usize) -> (SetSystem, Vec<u32>) {
    let mut rng = Xorshift(seed | 1);
    let sets: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let size = 1 + rng.next_range(m / 2);
            (0..size).map(|_| rng.next_range(m) as u32).collect()
        })
        .collect();
    let group_of: Vec<u32> = (0..m).map(|u| (u % c) as u32).collect();
    (SetSystem::new(sets, m), group_of)
}

#[test]
fn mc_ilp_agrees_with_branch_and_bound_and_brute_force() {
    for seed in 1..6u64 {
        let (sets, group_of) = random_mc_instance(seed, 9, 18, 2);
        let oracle = CoverageOracle::new(sets.clone(), &Groups::from_assignment(group_of.clone()));
        for tau in [0.0, 0.5, 1.0] {
            let bf = brute_force_bsm(&oracle, 3, tau);
            let bb = branch_and_bound_bsm(&oracle, &ExactConfig::new(3, tau));
            let ilp = mc_bsm_optimal(&sets, &group_of, 3, tau, &IlpConfig::default());
            assert!(bb.complete && ilp.complete, "seed {seed} tau {tau}");
            assert!(
                (bf.opt_g - bb.opt_g).abs() < 1e-6,
                "seed {seed} tau {tau}: OPT_g bf {} vs bb {}",
                bf.opt_g,
                bb.opt_g
            );
            assert!(
                (bf.opt_g - ilp.opt_g).abs() < 1e-6,
                "seed {seed} tau {tau}: OPT_g bf {} vs ilp {}",
                bf.opt_g,
                ilp.opt_g
            );
            assert!(
                (bf.eval.f - bb.eval.f).abs() < 1e-6,
                "seed {seed} tau {tau}: f bf {} vs bb {}",
                bf.eval.f,
                bb.eval.f
            );
            assert!(
                (bf.eval.f - ilp.f_value).abs() < 1e-5,
                "seed {seed} tau {tau}: f bf {} vs ilp {}",
                bf.eval.f,
                ilp.f_value
            );
        }
    }
}

#[test]
fn fl_ilp_agrees_with_branch_and_bound_and_brute_force() {
    for seed in 1..5u64 {
        let mut rng = Xorshift(seed.wrapping_mul(77) | 1);
        let m = 8;
        let n = 6;
        let b: Vec<f64> = (0..m * n).map(|_| rng.next_f64()).collect();
        let benefits = BenefitMatrix::new(b, m, n);
        let group_of: Vec<u32> = (0..m).map(|u| (u % 2) as u32).collect();
        let oracle = FacilityOracle::new(benefits.clone(), group_of.clone());
        for tau in [0.0, 0.6, 1.0] {
            let bf = brute_force_bsm(&oracle, 2, tau);
            let bb = branch_and_bound_bsm(&oracle, &ExactConfig::new(2, tau));
            let ilp = fl_bsm_optimal(&benefits, &group_of, 2, tau, &IlpConfig::default());
            assert!(
                (bf.opt_g - bb.opt_g).abs() < 1e-6,
                "seed {seed} tau {tau}: OPT_g {} vs {}",
                bf.opt_g,
                bb.opt_g
            );
            assert!(
                (bf.opt_g - ilp.opt_g).abs() < 1e-5,
                "seed {seed} tau {tau}: OPT_g {} vs ilp {}",
                bf.opt_g,
                ilp.opt_g
            );
            assert!(
                (bf.eval.f - bb.eval.f).abs() < 1e-6,
                "seed {seed} tau {tau}: f {} vs {}",
                bf.eval.f,
                bb.eval.f
            );
            assert!(
                (bf.eval.f - ilp.f_value).abs() < 1e-5,
                "seed {seed} tau {tau}: f {} vs ilp {}",
                bf.eval.f,
                ilp.f_value
            );
        }
    }
}

#[test]
fn approximate_algorithms_never_beat_the_feasible_optimum() {
    for seed in 10..14u64 {
        let (sets, group_of) = random_mc_instance(seed, 10, 20, 2);
        let oracle = CoverageOracle::new(sets, &Groups::from_assignment(group_of));
        let tau = 0.7;
        let opt = brute_force_bsm(&oracle, 3, tau);
        for out in [
            bsm_tsgreedy(&oracle, &TsGreedyConfig::new(3, tau)),
            bsm_saturate(&oracle, &BsmSaturateConfig::new(3, tau)),
        ] {
            if out.eval.g >= tau * opt.opt_g - 1e-9 {
                assert!(
                    out.eval.f <= opt.eval.f + 1e-9,
                    "seed {seed}: feasible approx beat the optimum"
                );
            }
        }
    }
}

// ── Registry-generic invariants over the whole solver suite. ─────────

/// Every registered solver on a two-group coverage instance: respects
/// the budget `k`, returns non-negative group utilities of the right
/// arity, and is deterministic across two runs. At `k = 0` a typed
/// `InvalidParams` rejection also counts as within budget.
#[test]
fn every_registered_solver_respects_budget_and_is_deterministic() {
    let (sets, group_of) = random_mc_instance(3, 12, 24, 2);
    let oracle = CoverageOracle::new(sets, &Groups::from_assignment(group_of));
    let registry = SolverRegistry::default();
    for k in [3, 0] {
        let params = ScenarioParams::new(k, 0.5);
        for name in registry.names() {
            let first = match registry.solve(name, &oracle, &params) {
                Ok(report) => report,
                Err(SolverError::InvalidParams { .. }) if k == 0 => continue,
                Err(e) => panic!("{name} rejected a c=2 instance at k = {k}: {e}"),
            };
            assert!(
                first.items.len() <= k,
                "{name} returned {} items for k = {k}",
                first.items.len()
            );
            assert_eq!(
                first.group_utilities.len(),
                2,
                "{name} reported wrong group arity"
            );
            assert!(
                first.group_utilities.iter().all(|&x| x >= 0.0),
                "{name} reported a negative group utility: {:?}",
                first.group_utilities
            );
            assert!(
                first.f >= 0.0 && first.g >= 0.0,
                "{name}: f = {}, g = {}",
                first.f,
                first.g
            );
            assert!(first.solver == name, "{name} mislabeled its report");

            let second = registry
                .solve(name, &oracle, &params)
                .unwrap_or_else(|e| panic!("{name} second run rejected: {e}"));
            assert_eq!(first.items, second.items, "{name} is non-deterministic");
            assert_eq!(
                first.f.to_bits(),
                second.f.to_bits(),
                "{name} f drifted across runs"
            );
            assert_eq!(
                first.g.to_bits(),
                second.g.to_bits(),
                "{name} g drifted across runs"
            );
        }
    }
}

/// The only acceptable failures on a three-group instance are typed
/// capability rejections (SMSC's two-group requirement); everything
/// else must still run and keep the same invariants.
#[test]
fn registry_capability_gaps_are_typed_on_three_groups() {
    let (sets, group_of) = random_mc_instance(7, 12, 24, 3);
    let oracle = CoverageOracle::new(sets, &Groups::from_assignment(group_of));
    let registry = SolverRegistry::default();
    let params = ScenarioParams::new(3, 0.5);
    for name in registry.names() {
        match registry.solve(name, &oracle, &params) {
            Ok(report) => {
                assert!(report.items.len() <= 3, "{name} ignored the budget");
                assert_eq!(report.group_utilities.len(), 3);
            }
            Err(SolverError::UnsupportedGroupCount {
                solver,
                required,
                got,
            }) => {
                assert_eq!(solver, "SMSC");
                assert_eq!((required, got), (2, 3));
                assert_eq!(name, "SMSC");
            }
            Err(other) => panic!("{name} failed unexpectedly: {other}"),
        }
    }
}

/// The scale capability flags gate behaviour generically — no solver
/// names appear below, so any future registry entry that declares
/// `sharded` or `streaming` is held to the same contract the moment it
/// registers:
///
/// - solvers that do NOT declare `sharded` must ignore the shard axis
///   (bit-identical reports for different `params.shards`);
/// - solvers that DO declare it must accept every shard count ≥ 1,
///   deterministically, and their native sessions run one step per
///   shard plus a merge;
/// - streaming solvers' native sessions consume one arrival per step —
///   exactly `n` steps to completion.
#[test]
fn capability_flags_gate_scale_behaviour_generically() {
    let (sets, group_of) = random_mc_instance(5, 14, 28, 2);
    let oracle = CoverageOracle::new(sets, &Groups::from_assignment(group_of));
    let n = oracle.dyn_num_items();
    let registry = SolverRegistry::default();
    let strip = |mut r: SolveReport| {
        r.seconds = 0.0;
        r
    };
    for name in registry.names() {
        let caps = registry.get(name).unwrap().capabilities();
        let mut params = ScenarioParams::new(3, 0.5).with_seed(13);
        if caps.sharded {
            for shards in [1usize, 2, 4] {
                params.shards = shards;
                let a = strip(registry.solve(name, &oracle, &params).unwrap());
                let b = strip(registry.solve(name, &oracle, &params).unwrap());
                assert_eq!(a, b, "{name} non-deterministic at p={shards}");
                assert!(a.items.len() <= params.k, "{name} over budget");
            }
            if caps.resumable {
                params.shards = 3;
                let mut session = registry.open_session(name, &oracle, &params).unwrap();
                let mut steps = 0usize;
                while session.step(&oracle) == SessionStatus::Running {
                    steps += 1;
                }
                steps += 1;
                assert_eq!(
                    steps,
                    params.shards + 1,
                    "{name}: sharded sessions step once per shard plus a merge"
                );
            }
        } else {
            params.shards = 3;
            let a = strip(registry.solve(name, &oracle, &params).unwrap());
            params.shards = 7;
            let b = strip(registry.solve(name, &oracle, &params).unwrap());
            assert_eq!(a, b, "{name} read the shard axis without declaring sharded");
        }
        if caps.streaming && caps.resumable {
            let params = ScenarioParams::new(3, 0.5).with_seed(13);
            let mut session = registry.open_session(name, &oracle, &params).unwrap();
            let mut steps = 0usize;
            while session.step(&oracle) == SessionStatus::Running {
                steps += 1;
            }
            steps += 1;
            assert_eq!(
                steps, n,
                "{name}: streaming sessions consume one arrival per step"
            );
        }
    }
}

/// Every solver's capability flags round-trip through the JSON surface
/// the service layer publishes — so a new flag (like `sharded` or
/// `streaming`) is picked up by clients without per-solver wiring.
#[test]
fn capability_flags_serialize_for_every_solver() {
    let registry = SolverRegistry::default();
    for name in registry.names() {
        let caps = registry.get(name).unwrap().capabilities();
        let json = caps.to_json();
        for (key, value) in [
            ("requires_two_groups", caps.requires_two_groups),
            ("exact", caps.exact),
            ("randomized", caps.randomized),
            ("uses_tau", caps.uses_tau),
            ("resumable", caps.resumable),
            ("prefix_exact", caps.prefix_exact),
            ("sharded", caps.sharded),
            ("streaming", caps.streaming),
        ] {
            assert_eq!(
                json.get(key).and_then(Value::as_bool),
                Some(value),
                "{name}: flag {key} missing or wrong in the JSON surface"
            );
        }
    }
}

/// Weak feasibility holds for the fairness-aware solvers on exact
/// oracles, reported uniformly through the engine.
#[test]
fn registry_fairness_solvers_are_weakly_feasible_on_exact_oracles() {
    let (sets, group_of) = random_mc_instance(11, 14, 30, 2);
    let oracle = CoverageOracle::new(sets, &Groups::from_assignment(group_of));
    let registry = SolverRegistry::default();
    for tau in [0.3, 0.7] {
        let params = ScenarioParams::new(3, tau);
        let ts = registry.solve("BSM-TSGreedy", &oracle, &params).unwrap();
        assert!(ts.weakly_feasible(), "TSGreedy broke the weak constraint");
        let ls = registry.solve("LocalSearch", &oracle, &params).unwrap();
        assert!(
            ls.g + 1e-9 >= tau * ls.opt_g_estimate - 1e-9,
            "LocalSearch refinement broke the fairness floor"
        );
        assert!(ls.f + 1e-9 >= ts.f, "refinement lost utility");
    }
}
