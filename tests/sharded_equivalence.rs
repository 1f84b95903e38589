//! Scale-equivalence suite for the sharded solve tier: every substrate
//! (coverage, influence, facility location) must shard into owned
//! restricted oracles — the same concrete oracle type over local ids —
//! and solve through `engine::ShardedInstance` with results
//! bit-identical to the centralized algorithms. Sharding is a
//! re-plumbing of the computation, never a different algorithm.
//!
//! Five invariants, each a test below:
//!
//! 1. **Bit identity (GreeDi)** — a `ShardedInstance` over the
//!    substrate-owned restrictions (`CoverageOracle::restrict`,
//!    `RisOracle::restrict`, `FacilityOracle::restrict`), over
//!    `from_central` subset views, and over per-shard CSR slices parsed
//!    from edge-list bytes all return the same items, value bits,
//!    best-shard bits, and oracle-call counts as the centralized
//!    [`greedi`] — for every substrate × shard count × seed cell.
//! 2. **Bit identity (Sieve)** — `solve_sieve` over the shard union is
//!    bit-identical to the centralized [`sieve_streaming`] pass.
//! 3. **Degenerate shard count** — `shards = 1` equals centralized
//!    greedy exactly (one shard *is* the ground set).
//! 4. **Approximation floor** — every shard count stays above the
//!    GreeDi guarantee `(1 − 1/e)/min(√k, p)` relative to centralized
//!    greedy (a lower bound on OPT).
//! 5. **Determinism** — fixed seed ⇒ identical outputs across repeat
//!    runs, rayon thread counts, and the session-based (daemon) drive
//!    path.
//!
//! CI re-runs this suite under `RAYON_NUM_THREADS=1`; the in-test
//! thread sweep covers the multi-worker configurations.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::ToJson;

use fair_submod::core::engine::session::{GreediSession, SieveSession};
use fair_submod::core::engine::{MergeBuilder, ShardedInstance};
use fair_submod::core::prelude::*;
use fair_submod::coverage::{dominating_slice_system, CoverageOracle, SetSystem};
use fair_submod::datasets::{rand_fl, rand_mc, seeds};
use fair_submod::graphs::io::{read_shard_slices, write_edge_list};
use fair_submod::graphs::CsrSlice;
use fair_submod::influence::oracle::RisConfig;
use fair_submod::influence::{DiffusionModel, RisOracle};

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

/// One substrate under test: the centralized base oracle plus its owned
/// restriction — the substrate-specific `restrict` returning the same
/// concrete oracle type over local ids.
struct Substrate {
    label: &'static str,
    base: Arc<dyn DynUtilitySystem>,
    restrict:
        Arc<dyn Fn(&[ItemId]) -> Result<Arc<dyn DynUtilitySystem>, SolverError> + Send + Sync>,
}

impl Substrate {
    /// A `ShardedInstance` whose shards and merge oracle are the owned
    /// substrate restrictions (the production daemon path).
    fn owned_instance(&self, shards: usize, seed: u64) -> ShardedInstance {
        let restrict = Arc::clone(&self.restrict);
        ShardedInstance::from_restrictor(self.base.dyn_num_items(), shards, seed, move |m| {
            restrict(m)
        })
        .expect("valid sharding")
    }

    /// The `from_central` reference path (subset views of one base).
    fn central_instance(&self, shards: usize, seed: u64) -> ShardedInstance {
        ShardedInstance::from_central(Arc::clone(&self.base), shards, seed).expect("valid sharding")
    }
}

/// The three paper substrates, sized for fast exhaustive sweeps.
fn substrates() -> Vec<Substrate> {
    let coverage = Arc::new(rand_mc(2, 150, seeds::RAND + 21).coverage_oracle());
    let influence =
        Arc::new(rand_mc(2, 100, seeds::RAND + 22).ris_oracle(DiffusionModel::ic(0.1), 1_500, 9));
    let facility = Arc::new(rand_fl(3, seeds::FL + 21).oracle());
    let (c, i, f) = (
        Arc::clone(&coverage),
        Arc::clone(&influence),
        Arc::clone(&facility),
    );
    vec![
        Substrate {
            label: "coverage",
            base: coverage,
            restrict: Arc::new(move |m| Ok(Arc::new(c.restrict(m)?) as Arc<dyn DynUtilitySystem>)),
        },
        Substrate {
            label: "influence",
            base: influence,
            restrict: Arc::new(move |m| Ok(Arc::new(i.restrict(m)?) as Arc<dyn DynUtilitySystem>)),
        },
        Substrate {
            label: "facility",
            base: facility,
            restrict: Arc::new(move |m| Ok(Arc::new(f.restrict(m)?) as Arc<dyn DynUtilitySystem>)),
        },
    ]
}

/// Centralized GreeDi on the erased system — the reference every
/// sharded run is compared against, bit for bit.
fn central_greedi(
    base: &dyn DynUtilitySystem,
    k: usize,
    shards: usize,
    seed: u64,
) -> GreediOutcome {
    let mut cfg = GreediConfig::new(k);
    cfg.shards = shards;
    cfg.seed = seed;
    let f = MeanUtility::new(base.dyn_num_users());
    greedi(&ErasedSystem(base), &f, &cfg).expect("valid config")
}

/// Sharded lazy GreeDi over resident shards, which cannot fail to
/// materialize.
fn solve(instance: &ShardedInstance, k: usize) -> GreediOutcome {
    instance
        .solve_greedi(k, GreedyVariant::Lazy)
        .expect("resident shards")
}

fn assert_bit_identical(sharded: &GreediOutcome, central: &GreediOutcome, label: &str) {
    assert_eq!(sharded.items, central.items, "{label}: items diverged");
    assert_eq!(
        sharded.value.to_bits(),
        central.value.to_bits(),
        "{label}: value {} vs {}",
        sharded.value,
        central.value
    );
    assert_eq!(
        sharded.best_shard_value.to_bits(),
        central.best_shard_value.to_bits(),
        "{label}: best-shard value diverged"
    );
    assert_eq!(
        sharded.oracle_calls, central.oracle_calls,
        "{label}: oracle accounting diverged"
    );
}

/// Invariant 1: the full matrix — three substrates × budgets × shard
/// counts × seeds × both assembly paths (owned restrictions and
/// `from_central` subset views), every cell bit-identical to the
/// one-shot algorithm. `k = 0` leaves round 2 an empty pool.
#[test]
fn sharded_solves_are_bit_identical_to_greedi_on_all_substrates() {
    for substrate in substrates() {
        for k in [0usize, 6] {
            for shards in [1usize, 2, 4, 8] {
                for seed in [21 + shards as u64, 1_021 + shards as u64] {
                    let central = central_greedi(substrate.base.as_ref(), k, shards, seed);
                    for (path, instance) in [
                        ("restricted", substrate.owned_instance(shards, seed)),
                        ("from_central", substrate.central_instance(shards, seed)),
                    ] {
                        assert_eq!(instance.num_shards(), shards);
                        assert_eq!(instance.num_items(), substrate.base.dyn_num_items());
                        let sharded = solve(&instance, k);
                        assert_bit_identical(
                            &sharded,
                            &central,
                            &format!("{}/{path}/k={k}/p={shards}/seed={seed}", substrate.label),
                        );
                    }
                }
            }
        }
    }
}

/// Invariant 2: the streaming twin — Sieve-Streaming over the shard
/// union matches the centralized single pass on every substrate, for
/// both assembly paths.
#[test]
fn sharded_sieve_is_bit_identical_to_centralized_sieve_on_all_substrates() {
    for substrate in substrates() {
        let erased = ErasedSystem(substrate.base.as_ref());
        let f = MeanUtility::new(substrate.base.dyn_num_users());
        let cfg = SieveConfig::new(6);
        let central = sieve_streaming(&erased, &f, &cfg).expect("valid config");
        for shards in [1usize, 3, 4, 8] {
            for (path, instance) in [
                ("restricted", substrate.owned_instance(shards, 13)),
                ("from_central", substrate.central_instance(shards, 13)),
            ] {
                let sharded = instance.solve_sieve(&cfg);
                let label = format!("{}/{path}/p={shards}", substrate.label);
                assert_eq!(sharded.items, central.items, "{label}: items diverged");
                assert_eq!(
                    sharded.value.to_bits(),
                    central.value.to_bits(),
                    "{label}: value diverged"
                );
                assert_eq!(
                    sharded.candidates, central.candidates,
                    "{label}: candidate accounting diverged"
                );
                assert_eq!(
                    sharded.oracle_calls, central.oracle_calls,
                    "{label}: oracle accounting diverged"
                );
            }
        }
    }
}

/// Invariant 1, coverage slice form: per-shard CSR slices parsed
/// straight from edge-list bytes (never materializing the full graph on
/// the sharded side), each backing its own dominating-set sub-oracle,
/// still reproduce the centralized run bit for bit — the small-scale
/// twin of the `sharded_1m` perfbase scenario.
#[test]
fn slice_backed_shards_match_the_centralized_solve() {
    let dataset = rand_mc(2, 400, seeds::RAND + 23);
    let n = dataset.graph.num_nodes();
    let mut bytes = Vec::new();
    write_edge_list(&dataset.graph, &mut bytes).expect("in-memory write");

    let (k, num_shards, seed) = (8usize, 4usize, 77u64);
    let central = central_greedi(&dataset.coverage_oracle(), k, num_shards, seed);

    let partition = shard_partition(n, num_shards, seed);
    let mut owner = vec![0u32; n];
    for (s, members) in partition.iter().enumerate() {
        for &v in members {
            owner[v as usize] = s as u32;
        }
    }
    // A tiny chunk size forces ragged chunk boundaries through the
    // streaming parser on the way to the slices.
    let slices: Vec<Arc<CsrSlice>> = read_shard_slices(
        &bytes[..],
        n,
        dataset.graph.is_directed(),
        &owner,
        num_shards,
        64,
    )
    .expect("well-formed edge list")
    .into_iter()
    .map(Arc::new)
    .collect();
    let shard_oracles = slices
        .iter()
        .map(|slice| ShardOracle {
            members: slice.nodes().to_vec(),
            system: Arc::new(CoverageOracle::new(
                dominating_slice_system(slice, n),
                &dataset.groups,
            )),
        })
        .collect();
    let merge_slices = slices.clone();
    let merge_groups = dataset.groups.clone();
    let merge: MergeBuilder = Box::new(move |pool| {
        let sets = pool
            .iter()
            .map(|&v| {
                let mut s = merge_slices
                    .iter()
                    .find_map(|sl| sl.neighbors_of(v))
                    .expect("pool ids come from shard members")
                    .to_vec();
                s.push(v);
                s
            })
            .collect();
        Arc::new(CoverageOracle::new(SetSystem::new(sets, n), &merge_groups))
    });
    let instance = ShardedInstance::new(shard_oracles, merge).expect("valid slice shards");
    let sharded = solve(&instance, k);
    assert_bit_identical(&sharded, &central, "slice-backed coverage");
}

/// Invariant 1, influence slice form: the RR arena is regenerated from
/// per-shard `CsrSlice`s (reassembled into the sampling graph, which is
/// bitwise equal to the original CSR), then shard-restricted per
/// member list — the slice-backed RIS path the daemon's sharded
/// influence solves ride on.
#[test]
fn slice_backed_ris_shards_match_the_resident_oracle_solve() {
    let dataset = rand_mc(2, 120, seeds::RAND + 27);
    let n = dataset.graph.num_nodes();
    let model = DiffusionModel::ic(0.1);
    let cfg = RisConfig::new(1_200, 7);
    let resident = RisOracle::generate(&dataset.graph, model, &dataset.groups, &cfg);

    let (k, num_shards, seed) = (6usize, 3usize, 55u64);
    let central = central_greedi(&resident, k, num_shards, seed);

    let mut bytes = Vec::new();
    write_edge_list(&dataset.graph, &mut bytes).expect("in-memory write");
    let partition = shard_partition(n, num_shards, seed);
    let mut owner = vec![0u32; n];
    for (s, members) in partition.iter().enumerate() {
        for &v in members {
            owner[v as usize] = s as u32;
        }
    }
    let slices = read_shard_slices(
        &bytes[..],
        n,
        dataset.graph.is_directed(),
        &owner,
        num_shards,
        64,
    )
    .expect("well-formed edge list");
    // RR sampling walks in-neighbors across shard boundaries, so the
    // slice-backed oracle samples over the reassembled graph; each
    // shard then owns its members' counter rows (§8 row separability).
    let sliced = Arc::new(RisOracle::generate_from_slices(
        &slices,
        n,
        dataset.graph.is_directed(),
        model,
        &dataset.groups,
        &cfg,
    ));
    let restrictor = Arc::clone(&sliced);
    let instance = ShardedInstance::from_restrictor(n, num_shards, seed, move |members| {
        Ok(Arc::new(restrictor.restrict(members)?) as Arc<dyn DynUtilitySystem>)
    })
    .expect("valid sharding");
    let sharded = solve(&instance, k);
    assert_bit_identical(&sharded, &central, "slice-backed influence");
}

/// Invariant 3: with a single shard, round 1 is plain greedy over the
/// whole ground set, so both GreeDi forms land exactly on centralized
/// greedy's value — on every substrate.
#[test]
fn single_shard_greedi_equals_centralized_greedy() {
    for substrate in substrates() {
        let f = MeanUtility::new(substrate.base.dyn_num_users());
        let plain = greedy(
            &ErasedSystem(substrate.base.as_ref()),
            &f,
            &GreedyConfig::lazy(6),
        );
        let central = central_greedi(substrate.base.as_ref(), 6, 1, 5);
        for (path, instance) in [
            ("restricted", substrate.owned_instance(1, 5)),
            ("from_central", substrate.central_instance(1, 5)),
        ] {
            let sharded = solve(&instance, 6);
            assert_eq!(
                sharded.value.to_bits(),
                plain.value.to_bits(),
                "{}/{path}: p=1 sharded {} vs greedy {}",
                substrate.label,
                sharded.value,
                plain.value
            );
        }
        assert_eq!(
            central.value.to_bits(),
            plain.value.to_bits(),
            "{}",
            substrate.label
        );
    }
}

/// Invariant 4: a shard sweep stays above the paper guarantee
/// `(1 − 1/e)/min(√k, p)` relative to centralized greedy (which lower
/// bounds OPT, so this is implied by — and weaker than — the true
/// guarantee, yet catches any broken merge phase immediately).
#[test]
fn shard_sweep_respects_the_greedi_guarantee() {
    let k = 8usize;
    for substrate in substrates() {
        let f = MeanUtility::new(substrate.base.dyn_num_users());
        let greedy_value = greedy(
            &ErasedSystem(substrate.base.as_ref()),
            &f,
            &GreedyConfig::lazy(k),
        )
        .value;
        for shards in [1usize, 2, 4, 8] {
            let out = solve(&substrate.owned_instance(shards, 3), k);
            let bound = (1.0 - (-1.0f64).exp()) / (k as f64).sqrt().min(shards as f64);
            assert!(
                out.value + 1e-9 >= bound * greedy_value,
                "{}/p={shards}: sharded {} below {bound:.3} x greedy {greedy_value}",
                substrate.label,
                out.value
            );
            assert!(
                out.value + 1e-12 >= out.best_shard_value,
                "{}/p={shards}: merge returned less than its best shard",
                substrate.label
            );
        }
    }
}

/// Invariant 5a: the daemon's session drive path — one shard per
/// `step()`, finished against the centralized system — produces reports
/// identical (up to wall-clock) to the centralized registry solvers, on
/// every substrate.
#[test]
fn sharded_sessions_match_the_centralized_registry_reports() {
    let registry = SolverRegistry::default();
    for substrate in substrates() {
        let mut params = ScenarioParams::new(6, 0.8);
        params.shards = 3;
        params.seed = 17;
        params.epsilon = 0.1;

        let instance = Arc::new(substrate.owned_instance(3, params.seed));
        let mut greedi_session = GreediSession::sharded(Arc::clone(&instance), &params);
        let mut rounds = 0usize;
        while !greedi_session.done() {
            greedi_session.step(substrate.base.as_ref());
            rounds += 1;
        }
        assert_eq!(rounds, 4, "{}: 3 shard rounds + 1 merge", substrate.label);
        let mut report = greedi_session
            .finish(substrate.base.as_ref())
            .expect("finished session reports");
        let mut central = registry
            .solve("GreeDi", substrate.base.as_ref(), &params)
            .expect("centralized GreeDi");
        report.seconds = 0.0;
        central.seconds = 0.0;
        assert_eq!(
            report.to_json().to_compact_string(),
            central.to_json().to_compact_string(),
            "{}: GreeDi session report diverged",
            substrate.label
        );

        let mut sieve_session = SieveSession::sharded(&instance, &params);
        while !sieve_session.done() {
            sieve_session.step(substrate.base.as_ref());
        }
        let mut report = sieve_session
            .finish(substrate.base.as_ref())
            .expect("finished session reports");
        let mut central = registry
            .solve("SieveStreaming", substrate.base.as_ref(), &params)
            .expect("centralized sieve");
        report.seconds = 0.0;
        central.seconds = 0.0;
        assert_eq!(
            report.to_json().to_compact_string(),
            central.to_json().to_compact_string(),
            "{}: Sieve session report diverged",
            substrate.label
        );
    }
}

/// Invariant 5b: fixed seed ⇒ identical outputs across repeat runs and
/// across rayon thread counts (shard builds and batched gain scans run
/// on the pool, so worker count must never show in the result) — for
/// both the owned-restriction and subset-view assembly paths.
#[test]
fn sharded_solves_are_deterministic_per_seed_and_thread_count() {
    let _serial = thread_override_lock();
    let _restore = RestoreThreads;
    let substrate = &substrates()[0];

    let reference = solve(&substrate.owned_instance(4, 11), 6);
    let central = central_greedi(substrate.base.as_ref(), 6, 4, 11);
    assert_bit_identical(&reference, &central, "reference");
    let sieve_reference = substrate
        .owned_instance(4, 11)
        .solve_sieve(&SieveConfig::new(6));

    for threads in [1usize, 2, 4, 8] {
        rayon::set_num_threads(threads);
        for rerun in 0..2 {
            for (path, instance) in [
                ("restricted", substrate.owned_instance(4, 11)),
                ("from_central", substrate.central_instance(4, 11)),
            ] {
                let out = solve(&instance, 6);
                assert_bit_identical(
                    &out,
                    &reference,
                    &format!("{path} threads={threads} rerun={rerun}"),
                );
                let sieve = instance.solve_sieve(&SieveConfig::new(6));
                assert_eq!(sieve.items, sieve_reference.items);
                assert_eq!(sieve.value.to_bits(), sieve_reference.value.to_bits());
            }
        }
    }
}

/// Satellite hardening: malformed member lists and partitions are typed
/// `InvalidParams` rejections from every substrate's `restrict` /
/// `partition_shards` — never panics — and the sharded assembly
/// propagates them.
#[test]
fn malformed_partitions_are_typed_rejections_on_every_substrate() {
    for substrate in substrates() {
        let n = substrate.base.dyn_num_items();
        let restrict = &substrate.restrict;
        // Valid ragged partition as a control.
        let thirds: Vec<Vec<ItemId>> = vec![
            (0..5).collect(),
            (5..6).collect(),
            (6..n as ItemId).collect(),
        ];
        for members in &thirds {
            let shard = restrict(members).expect("valid ragged shard");
            assert_eq!(shard.dyn_num_items(), members.len(), "{}", substrate.label);
        }
        for (case, members) in [
            ("empty members", vec![]),
            ("unsorted members", vec![3 as ItemId, 1]),
            ("duplicate members", vec![2 as ItemId, 2]),
            ("out-of-range member", vec![n as ItemId]),
        ] {
            assert!(
                matches!(restrict(&members), Err(SolverError::InvalidParams { .. })),
                "{}: {case} must be a typed rejection",
                substrate.label
            );
        }
        // A restrictor wrapping the owned restrict must surface typed
        // errors through `from_restrictor` (empty ground set => every
        // shard's member list is empty).
        let bad = ShardedInstance::from_restrictor(0, 2, 1, {
            let r = Arc::clone(&substrate.restrict);
            move |m| r(m)
        });
        assert!(
            matches!(bad, Err(SolverError::InvalidParams { .. })),
            "{}: empty ground set must be a typed rejection",
            substrate.label
        );
    }
}
