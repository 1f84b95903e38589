//! Perf baseline runner: times the oracle hot paths before/after the
//! parallel + packed-kernel optimizations and records the numbers as
//! JSON, so speedups are measured rather than asserted and the baseline
//! can never bit-rot (CI runs `perfbase --quick` on every push).
//!
//! Each scenario is timed twice in one process:
//!
//! * **before** — the sequential/seed configuration: worker count forced
//!   to 1 via [`rayon::set_num_threads`], and for the coverage kernel
//!   the retained `Vec<bool>` reference implementation
//!   ([`UnpackedCoverageOracle`](fair_submod_coverage::UnpackedCoverageOracle));
//! * **after** — the shipped configuration: default worker count and the
//!   packed `u64` bitset kernel.
//!
//! Selections are asserted identical between the two runs (the
//! parallel paths are deterministic by construction), so `perfbase`
//! doubles as an end-to-end equivalence smoke test.
//!
//! The `grid_warm_vs_cold` scenario measures the session layer instead
//! of thread counts: a Greedy k-sweep (k = 5..50) run cold (every cell
//! from the empty set) versus warm (the whole k-axis served from one
//! resumable session by prefix extraction), with bit-identical
//! solutions asserted between the two.
//!
//! The `sharded_1m` scenario exercises the sharded solve tier at its
//! design scale: a million-node synthetic coverage instance solved
//! centrally (full graph + full oracle + `greedi`) versus through
//! [`ShardedInstance`] fed by per-shard CSR slices streamed straight
//! off the edge list (`read_shard_slices` — no full graph ever built).
//! Selections are asserted bit-identical, and the sharded run is held
//! to explicit wall-clock and peak-RSS budgets (the process aborts when
//! either is blown, so CI's `scale-smoke` step fails loudly). The
//! `sharded_ris_100k` and `sharded_fl_50k` scenarios hold the other two
//! substrates to the same contract at their own design scales:
//! centralized GreeDi over the resident oracle versus
//! [`ShardedInstance`] over the substrate-owned `restrict` partitions
//! (the daemon's sharded-solve path), bit-identical selections, and
//! wall-clock/peak-RSS budgets. All three run in full mode and under
//! `--only NAME`; plain `--quick` skips them to keep the per-push perf
//! gate fast (CI's `scale-smoke` step runs each one `--quick`).
//!
//! The memory-tier scenario `sharded_1m_spill` re-runs the
//! million-node solve through the out-of-core path (per-shard slices
//! spilled to a scratch dir and reloaded one at a time per GreeDi step),
//! asserts bit-identical selections (DESIGN.md §11), and asserts the
//! peak-RSS floor sits at ≤60% of the fully resident sharded run — the
//! floor assert only fires under `--only sharded_1m_spill` because
//! `VmHWM` is process-monotone, so any earlier scenario's peak would
//! pollute the in-process comparison.
//!
//! The PR-7 kernel scenarios pit the incremental gain kernels against
//! their retained rescan references on identical workloads:
//! `ris_incremental_vs_rescan` (counter reads vs per-item RR-set
//! rescans under naive greedy rounds) and `celf_vs_naive_rounds` (lazy
//! batched-refresh greedy vs full candidate scans). Selections/counts
//! are asserted bit-identical in-process, as everywhere else, and each
//! asserts a speedup floor (3.0× and 1.2×).
//!
//! Every budget, floor and identity check is an assert in this binary,
//! so a breach exits non-zero before the report is written; the report
//! itself is a [`serde::json::Value`] tree printed by the serde shim.
//!
//! `--profile` additionally records a per-phase wall-clock breakdown
//! (sample / build-index / solve-rounds) as a `phases` array on the
//! scenario rows that have one.
//!
//! Usage: `cargo run -p fair-submod-bench --release --bin perfbase --
//! [--quick] [--profile] [--only NAME] [--out BENCH_baseline.json]`.

use std::sync::Arc;
use std::time::Instant;

use fair_submod_bench::harness::{run_suite, GridConfig};
use fair_submod_core::engine::{MergeBuilder, ShardBuilder};
use fair_submod_core::prelude::*;
use fair_submod_coverage::{
    dominating_set_system, dominating_slice_system, CoverageOracle, SetSystem,
};
use fair_submod_datasets::{facebook_like, rand_fl, rand_mc, seeds};
use fair_submod_facility::{BenefitMatrix, FacilityOracle};
use fair_submod_graphs::io::{read_edge_list, read_shard_slices, spill_shard_slices};
use fair_submod_graphs::{CsrSlice, Groups};
use fair_submod_influence::oracle::{RisConfig, RisOracle};
use fair_submod_influence::{monte_carlo_evaluate, DiffusionModel};
use serde::json::{obj, Value};

struct Scenario {
    name: &'static str,
    before_label: &'static str,
    after_label: &'static str,
    before_seconds: f64,
    after_seconds: f64,
    /// Extra fields for scenarios that record more than the two
    /// timings — e.g. budget checks.
    extra: Vec<(&'static str, Value)>,
    /// Per-phase wall-clock breakdown of the *after* pipeline
    /// (sample / build-index / solve-rounds / merge …), emitted as a
    /// `phases` array when `--profile` is passed.
    phases: Vec<(&'static str, f64)>,
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
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

/// `x` rounded to `places` decimals, the precision each report field
/// is recorded at. A non-finite `x` stays non-finite and prints as
/// `null`.
fn rounded(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((x * scale).round() / scale)
}

/// A peak-RSS reading in MiB to one decimal, `null` off Linux.
fn rss_value(mib: Option<f64>) -> Value {
    mib.map_or(Value::Null, |r| rounded(r, 1))
}

/// A count or a small integer knob as a JSON number.
fn int(x: usize) -> Value {
    Value::Num(x as f64)
}

/// Deterministic million-scale edge list: a ring plus `chords` xorshift
/// chords per node, as text, so both load paths parse the same bytes.
fn synth_edge_list(n: usize, chords: usize, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(n * (chords + 1) * 15);
    let mut state = seed | 1;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    for v in 0..n {
        let _ = writeln!(text, "{} {}", v, (v + 1) % n);
        for _ in 0..chords {
            let w = next(n as u64);
            let _ = writeln!(text, "{v} {w}");
        }
    }
    text
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times `f` with the worker count forced to 1, then at the default.
fn time_seq_vs_par<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    rayon::set_num_threads(1);
    let seq = time_best(reps, &mut f);
    rayon::set_num_threads(0);
    let par = time_best(reps, &mut f);
    (seq, par)
}

fn main() {
    let mut quick = false;
    let mut profile = false;
    let mut only: Option<String> = None;
    let mut out_path = String::from("BENCH_baseline.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--only" => only = Some(args.next().expect("--only needs a scenario name")),
            "--out" => out_path = args.next().expect("--out needs a value"),
            other => panic!("unknown flag {other}"),
        }
    }
    // `--only NAME` runs a single scenario; otherwise everything runs,
    // except that plain `--quick` skips the heavyweight million-node
    // scenario (CI runs it separately as the `scale-smoke` step).
    let should_run = |name: &str| match &only {
        Some(o) => o == name,
        None => {
            !(quick
                && matches!(
                    name,
                    "sharded_1m" | "sharded_ris_100k" | "sharded_fl_50k" | "sharded_1m_spill"
                ))
        }
    };
    let reps = if quick { 3 } else { 5 };
    let mut scenarios: Vec<Scenario> = Vec::new();

    // ── 1. Coverage gain kernel: packed u64 bitset vs Vec<bool>. ──────
    if should_run("coverage_gain_kernel") {
        eprintln!("[perfbase] coverage kernel ...");
        let n = if quick { 400 } else { 1_000 };
        let dataset = rand_mc(2, n, seeds::RAND);
        let packed = dataset.coverage_oracle();
        let unpacked = packed.unpacked_reference();
        let sweeps = if quick { 40 } else { 100 };
        // Identical workload on both kernels: scan all candidate gains
        // from a partially grown solution.
        fn kernel_workload<S: fair_submod_core::system::UtilitySystem>(
            sys: &S,
            sweeps: usize,
        ) -> f64 {
            let mut st = SolutionState::new(sys);
            for v in 0..5 {
                st.insert(v * 7);
            }
            let mut out = vec![0.0; sys.num_groups()];
            let mut acc = 0.0;
            for _ in 0..sweeps {
                for v in 0..sys.num_items() as u32 {
                    st.gains_into(v, &mut out);
                    acc += out[0];
                }
            }
            acc
        }
        let before_seconds = time_best(reps, || kernel_workload(&unpacked, sweeps));
        let after_seconds = time_best(reps, || kernel_workload(&packed, sweeps));
        assert_eq!(
            kernel_workload(&unpacked, 1).to_bits(),
            kernel_workload(&packed, 1).to_bits(),
            "packed and unpacked coverage kernels disagree"
        );
        scenarios.push(Scenario {
            name: "coverage_gain_kernel",
            before_label: "vec_bool",
            after_label: "u64_bitset",
            before_seconds,
            after_seconds,
            extra: Vec::new(),
            phases: Vec::new(),
        });
    }

    // ── 2. Naive-greedy rounds: batched candidate scan, 1 thread vs default. ──
    if should_run("naive_greedy_round") {
        eprintln!("[perfbase] naive greedy rounds ...");
        let n = if quick { 400 } else { 1_000 };
        let dataset = rand_mc(2, n, seeds::RAND + 1);
        let oracle = dataset.coverage_oracle();
        let f = MeanUtility::new(oracle.num_users());
        let k = if quick { 5 } else { 10 };
        let (before_seconds, after_seconds) =
            time_seq_vs_par(reps, || greedy(&oracle, &f, &GreedyConfig::naive(k)));
        rayon::set_num_threads(1);
        let seq_items = greedy(&oracle, &f, &GreedyConfig::naive(k)).items;
        rayon::set_num_threads(0);
        let par_items = greedy(&oracle, &f, &GreedyConfig::naive(k)).items;
        assert_eq!(
            seq_items, par_items,
            "thread count changed greedy selection"
        );
        scenarios.push(Scenario {
            name: "naive_greedy_round",
            before_label: "1_thread",
            after_label: "default_threads",
            before_seconds,
            after_seconds,
            extra: Vec::new(),
            phases: Vec::new(),
        });
    }

    // ── 3. Batched RR-set sampling, 1 thread vs default. ──────────────
    if should_run("rr_sampling_batch") {
        eprintln!("[perfbase] rr sampling ...");
        let dataset = rand_mc(2, if quick { 200 } else { 500 }, seeds::RAND + 2);
        let model = DiffusionModel::ic(0.1);
        let rr = if quick { 5_000 } else { 20_000 };
        let cfg = RisConfig::new(rr, 11);
        let (before_seconds, after_seconds) = time_seq_vs_par(reps, || {
            RisOracle::generate(&dataset.graph, model, &dataset.groups, &cfg)
        });
        let probe: Vec<u32> = vec![0, 3, 17];
        rayon::set_num_threads(1);
        let seq = RisOracle::generate(&dataset.graph, model, &dataset.groups, &cfg);
        rayon::set_num_threads(0);
        let (par, build) =
            RisOracle::generate_profiled(&dataset.graph, model, &dataset.groups, &cfg);
        assert_eq!(
            seq.estimated_spread(&probe).to_bits(),
            par.estimated_spread(&probe).to_bits(),
            "thread count changed RR sampling"
        );
        scenarios.push(Scenario {
            name: "rr_sampling_batch",
            before_label: "1_thread",
            after_label: "default_threads",
            before_seconds,
            after_seconds,
            extra: Vec::new(),
            phases: vec![
                ("sample", build.sample_seconds),
                ("build_index", build.index_seconds),
            ],
        });
    }

    // ── 4. Benefit-matrix construction (row-parallel RBF kernel). ─────
    if should_run("benefit_matrix_rbf") {
        eprintln!("[perfbase] benefit matrix ...");
        let dataset = rand_fl(2, seeds::FL);
        let (before_seconds, after_seconds) =
            time_seq_vs_par(reps, || BenefitMatrix::rbf(&dataset.users, &dataset.items));
        rayon::set_num_threads(1);
        let seq = BenefitMatrix::rbf(&dataset.users, &dataset.items);
        rayon::set_num_threads(0);
        let par = BenefitMatrix::rbf(&dataset.users, &dataset.items);
        for u in 0..seq.num_users() {
            assert!(
                seq.row(u)
                    .iter()
                    .zip(par.row(u))
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "thread count changed benefit matrix row {u}"
            );
        }
        scenarios.push(Scenario {
            name: "benefit_matrix_rbf",
            before_label: "1_thread",
            after_label: "default_threads",
            before_seconds,
            after_seconds,
            extra: Vec::new(),
            phases: Vec::new(),
        });
    }

    // ── 5. End-to-end fig6-style IM sweep (RIS + suite + MC eval). ────
    if should_run("fig6_style_sweep") {
        eprintln!("[perfbase] fig6-style sweep ...");
        let dataset = facebook_like(2, seeds::FACEBOOK);
        let model = DiffusionModel::ic(0.01);
        let rr = if quick { 2_000 } else { 5_000 };
        let mc_runs = if quick { 200 } else { 500 };
        let registry = SolverRegistry::default();
        let sweep = || {
            let oracle = dataset.ris_oracle(model, rr, seeds::FACEBOOK ^ 0x11);
            let evaluator = |items: &[u32]| {
                monte_carlo_evaluate(
                    &dataset.graph,
                    model,
                    &dataset.groups,
                    items,
                    mc_runs,
                    seeds::FACEBOOK ^ 0x22,
                )
            };
            let mut fs = Vec::new();
            for k in [5usize, 10] {
                let results = run_suite(&oracle, &evaluator, &registry, &GridConfig::paper(k, 0.8))
                    .expect("paper grid is valid");
                fs.extend(
                    results
                        .into_iter()
                        .map(|r| r.outcome.expect("paper solvers run on c = 2").f),
                );
            }
            fs
        };
        let (before_seconds, after_seconds) = time_seq_vs_par(1.max(reps / 2), sweep);
        rayon::set_num_threads(1);
        let seq_fs = sweep();
        rayon::set_num_threads(0);
        let par_fs = sweep();
        assert!(
            seq_fs.len() == par_fs.len()
                && seq_fs
                    .iter()
                    .zip(&par_fs)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "thread count changed sweep results"
        );
        scenarios.push(Scenario {
            name: "fig6_style_sweep",
            before_label: "1_thread",
            after_label: "default_threads",
            before_seconds,
            after_seconds,
            extra: Vec::new(),
            phases: Vec::new(),
        });
    }

    // ── 6. Warm vs cold k-axis sweep (session prefix extraction). ────
    if should_run("grid_warm_vs_cold") {
        eprintln!("[perfbase] grid warm vs cold k-sweep ...");
        let n = if quick { 400 } else { 1_000 };
        let dataset = rand_mc(2, n, seeds::RAND + 7);
        let oracle = dataset.coverage_oracle();
        let registry = SolverRegistry::default();
        let ks: Vec<usize> = (1..=10).map(|i| i * 5).collect(); // 5, 10, …, 50
        let grid = GridConfig {
            solvers: vec!["Greedy".into()],
            ks,
            taus: vec![0.8],
            epsilons: vec![0.05],
            shards: vec![4],
            repetitions: 1,
            warm_sweeps: true,
            base: fair_submod_core::engine::ScenarioParams::new(5, 0.8),
        };
        let run = |grid: &GridConfig| {
            run_suite(
                &oracle,
                &|items| fair_submod_core::metrics::evaluate(&oracle, items),
                &registry,
                grid,
            )
            .expect("k-sweep grid is valid")
        };
        let cold_grid = grid.clone().cold();
        let before_seconds = time_best(reps, || run(&cold_grid));
        let after_seconds = time_best(reps, || run(&grid));
        // Warm prefix extraction must be bit-identical to cold solves.
        let warm = run(&grid);
        let cold = run(&cold_grid);
        for (w, c) in warm.iter().zip(&cold) {
            let (wr, cr) = (
                w.report().expect("greedy runs"),
                c.report().expect("greedy runs"),
            );
            assert_eq!(wr.items, cr.items, "warm sweep changed selections");
            assert_eq!(
                wr.objective.to_bits(),
                cr.objective.to_bits(),
                "warm sweep changed objectives"
            );
            assert_eq!(
                wr.oracle_calls, cr.oracle_calls,
                "warm sweep changed call accounting"
            );
        }
        scenarios.push(Scenario {
            name: "grid_warm_vs_cold",
            before_label: "cold_per_cell",
            after_label: "warm_k_axis_session",
            before_seconds,
            after_seconds,
            extra: Vec::new(),
            phases: Vec::new(),
        });
    }

    // ── 7. Sharded million-element solve tier vs centralized GreeDi. ──
    if should_run("sharded_1m") {
        eprintln!("[perfbase] sharded 1M-node solve tier ...");
        let n = 1_000_000usize;
        let num_shards = 8usize;
        let k = if quick { 8 } else { 16 };
        let seed = 42u64;
        let text = synth_edge_list(n, 2, 0xA5A5_5A5A);
        let groups = Groups::from_assignment((0..n).map(|v| (v % 2) as u32).collect());
        let f = MeanUtility::new(n);
        let mut cfg = GreediConfig::new(k);
        cfg.shards = num_shards;
        cfg.seed = seed;

        // Before: the centralized pipeline — parse the whole edge list
        // into one Graph, build one full dominating-set oracle, run the
        // in-memory `greedi`.
        let start = Instant::now();
        let central_out = {
            let graph =
                read_edge_list(text.as_bytes(), n, false).expect("synthetic list is well-formed");
            let oracle = CoverageOracle::new(dominating_set_system(&graph), &groups);
            greedi(&oracle, &f, &cfg).expect("valid config")
        };
        let before_seconds = start.elapsed().as_secs_f64();

        // After: the sharded tier — stream the same bytes into per-shard
        // CSR slices (no full Graph), build one sub-oracle per shard,
        // and solve through ShardedInstance. The merge oracle is built
        // on demand over the round-2 pool only.
        let start = Instant::now();
        let sharded_out = {
            let partition = shard_partition(n, num_shards, seed);
            let mut owner = vec![0u32; n];
            for (s, members) in partition.iter().enumerate() {
                for &v in members {
                    owner[v as usize] = s as u32;
                }
            }
            let slices: Vec<Arc<CsrSlice>> =
                read_shard_slices(text.as_bytes(), n, false, &owner, num_shards, 1 << 20)
                    .expect("synthetic list is well-formed")
                    .into_iter()
                    .map(Arc::new)
                    .collect();
            let shard_oracles = slices
                .iter()
                .map(|slice| {
                    let oracle = CoverageOracle::new(dominating_slice_system(slice, n), &groups);
                    ShardOracle {
                        members: slice.nodes().to_vec(),
                        system: Arc::new(oracle),
                    }
                })
                .collect();
            let merge_slices = slices.clone();
            let merge_groups = groups.clone();
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
            let instance =
                ShardedInstance::new(shard_oracles, merge).expect("slice shards are valid");
            instance
                .solve_greedi(k, cfg.variant.clone())
                .expect("resident shards")
        };
        let after_seconds = start.elapsed().as_secs_f64();

        // The scale-equivalence contract, enforced at design scale.
        assert_eq!(
            central_out.items, sharded_out.items,
            "sharded tier changed the 1M-node selection"
        );
        assert_eq!(
            central_out.value.to_bits(),
            sharded_out.value.to_bits(),
            "sharded tier changed the 1M-node objective"
        );
        assert_eq!(
            central_out.oracle_calls, sharded_out.oracle_calls,
            "sharded tier changed the 1M-node call accounting"
        );

        // Hard budgets: the sharded pipeline's wall clock and this
        // process's peak RSS. Blowing either aborts (CI scale-smoke
        // fails on the non-zero exit).
        // Measured on the baseline host: ~1.5s / ~320 MiB (quick).
        // Budgets leave ~20x headroom for slow shared CI runners while
        // still catching an accidental O(n·p) blow-up or a full-graph
        // materialization sneaking back into the sharded path.
        let wall_budget_seconds = if quick { 120.0 } else { 240.0 };
        let rss_budget_mib = 2048.0;
        let rss_mib = peak_rss_mib();
        assert!(
            after_seconds <= wall_budget_seconds,
            "sharded_1m blew its wall-clock budget: {after_seconds:.1}s > {wall_budget_seconds:.0}s"
        );
        if let Some(rss) = rss_mib {
            assert!(
                rss <= rss_budget_mib,
                "sharded_1m blew its peak-RSS budget: {rss:.0} MiB > {rss_budget_mib:.0} MiB"
            );
        }
        scenarios.push(Scenario {
            name: "sharded_1m",
            before_label: "centralized_greedi",
            after_label: "sharded_slices",
            before_seconds,
            after_seconds,
            extra: vec![
                ("nodes", int(n)),
                ("shards", int(num_shards)),
                ("k", int(k)),
                ("wallclock_budget_seconds", rounded(wall_budget_seconds, 1)),
                ("peak_rss_mib", rss_value(rss_mib)),
                ("peak_rss_budget_mib", rounded(rss_budget_mib, 1)),
            ],
            phases: Vec::new(),
        });
    }

    // ── 7b. Sharded RIS substrate at scale: centralized GreeDi over the
    // resident RR-set oracle vs ShardedInstance over the oracle's own
    // `restrict` partitions (the daemon's sharded-solve path). The RR
    // sample is generated once and shared, so the timings isolate the
    // shard build + solve, and the budgets catch a restriction path
    // that re-materializes the arena per shard.
    if should_run("sharded_ris_100k") {
        eprintln!("[perfbase] sharded RIS solve tier ...");
        let n = if quick { 30_000 } else { 100_000 };
        let num_rr = if quick { 60_000 } else { 150_000 };
        let num_shards = 8usize;
        let k = 8;
        let seed = 42u64;
        // A sparse ring+chords graph (same generator as `sharded_1m`,
        // average degree ≈ 6): IC(0.05) stays subcritical, so RR sets
        // are small and the arena stays linear in `num_rr`. The dense
        // SBM RAND family is the wrong substrate here — its RR sets
        // would span the whole graph.
        let text = synth_edge_list(n, 2, 0x1357_9BDF);
        let graph = read_edge_list(text.as_bytes(), n, false).expect("synthetic list parses");
        let groups = Groups::from_assignment((0..n).map(|v| (v % 2) as u32).collect());
        let oracle = Arc::new(RisOracle::generate(
            &graph,
            DiffusionModel::ic(0.05),
            &groups,
            &RisConfig::new(num_rr, 17),
        ));
        let f = MeanUtility::new(n);
        let mut cfg = GreediConfig::new(k);
        cfg.shards = num_shards;
        cfg.seed = seed;

        let start = Instant::now();
        let central_out = greedi(&*oracle, &f, &cfg).expect("valid config");
        let before_seconds = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let sharded_out = {
            let restrict = Arc::clone(&oracle);
            let instance = ShardedInstance::from_restrictor(n, num_shards, seed, move |m| {
                Ok(Arc::new(restrict.restrict(m)?) as Arc<dyn DynUtilitySystem>)
            })
            .expect("valid sharding");
            instance
                .solve_greedi(k, cfg.variant.clone())
                .expect("resident shards")
        };
        let after_seconds = start.elapsed().as_secs_f64();

        assert_eq!(
            central_out.items, sharded_out.items,
            "sharded RIS tier changed the selection"
        );
        assert_eq!(
            central_out.value.to_bits(),
            sharded_out.value.to_bits(),
            "sharded RIS tier changed the objective"
        );
        assert_eq!(
            central_out.oracle_calls, sharded_out.oracle_calls,
            "sharded RIS tier changed the call accounting"
        );

        let wall_budget_seconds = if quick { 120.0 } else { 240.0 };
        let rss_budget_mib = 2048.0;
        let rss_mib = peak_rss_mib();
        assert!(
            after_seconds <= wall_budget_seconds,
            "sharded_ris_100k blew its wall-clock budget: \
             {after_seconds:.1}s > {wall_budget_seconds:.0}s"
        );
        if let Some(rss) = rss_mib {
            assert!(
                rss <= rss_budget_mib,
                "sharded_ris_100k blew its peak-RSS budget: {rss:.0} MiB > {rss_budget_mib:.0} MiB"
            );
        }
        scenarios.push(Scenario {
            name: "sharded_ris_100k",
            before_label: "centralized_greedi",
            after_label: "sharded_restrict",
            before_seconds,
            after_seconds,
            extra: vec![
                ("nodes", int(n)),
                ("rr_sets", int(num_rr)),
                ("shards", int(num_shards)),
                ("k", int(k)),
                ("wallclock_budget_seconds", rounded(wall_budget_seconds, 1)),
                ("peak_rss_mib", rss_value(rss_mib)),
                ("peak_rss_budget_mib", rounded(rss_budget_mib, 1)),
            ],
            phases: Vec::new(),
        });
    }

    // ── 7c. Sharded facility substrate at scale: centralized GreeDi
    // over a dense benefit matrix vs ShardedInstance over
    // column-partitioned shard views (`FacilityOracle::restrict`).
    if should_run("sharded_fl_50k") {
        eprintln!("[perfbase] sharded facility solve tier ...");
        let m = 256usize;
        let n = if quick { 20_000 } else { 50_000 };
        let num_shards = 8usize;
        let k = 8;
        let seed = 42u64;
        let mut state = 0x5EED_F00Du64 | 1;
        let b: Vec<f64> = (0..m * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000) as f64 / 250.0
            })
            .collect();
        let group_of: Vec<u32> = (0..m).map(|u| (u % 2) as u32).collect();
        let oracle = Arc::new(FacilityOracle::new(BenefitMatrix::new(b, m, n), group_of));
        let f = MeanUtility::new(m);
        let mut cfg = GreediConfig::new(k);
        cfg.shards = num_shards;
        cfg.seed = seed;

        let start = Instant::now();
        let central_out = greedi(&*oracle, &f, &cfg).expect("valid config");
        let before_seconds = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let sharded_out = {
            let restrict = Arc::clone(&oracle);
            let instance = ShardedInstance::from_restrictor(n, num_shards, seed, move |mm| {
                Ok(Arc::new(restrict.restrict(mm)?) as Arc<dyn DynUtilitySystem>)
            })
            .expect("valid sharding");
            instance
                .solve_greedi(k, cfg.variant.clone())
                .expect("resident shards")
        };
        let after_seconds = start.elapsed().as_secs_f64();

        assert_eq!(
            central_out.items, sharded_out.items,
            "sharded facility tier changed the selection"
        );
        assert_eq!(
            central_out.value.to_bits(),
            sharded_out.value.to_bits(),
            "sharded facility tier changed the objective"
        );
        assert_eq!(
            central_out.oracle_calls, sharded_out.oracle_calls,
            "sharded facility tier changed the call accounting"
        );

        let wall_budget_seconds = if quick { 120.0 } else { 240.0 };
        let rss_budget_mib = 2048.0;
        let rss_mib = peak_rss_mib();
        assert!(
            after_seconds <= wall_budget_seconds,
            "sharded_fl_50k blew its wall-clock budget: \
             {after_seconds:.1}s > {wall_budget_seconds:.0}s"
        );
        if let Some(rss) = rss_mib {
            assert!(
                rss <= rss_budget_mib,
                "sharded_fl_50k blew its peak-RSS budget: {rss:.0} MiB > {rss_budget_mib:.0} MiB"
            );
        }
        scenarios.push(Scenario {
            name: "sharded_fl_50k",
            before_label: "centralized_greedi",
            after_label: "sharded_restrict",
            before_seconds,
            after_seconds,
            extra: vec![
                ("users", int(m)),
                ("items", int(n)),
                ("shards", int(num_shards)),
                ("k", int(k)),
                ("wallclock_budget_seconds", rounded(wall_budget_seconds, 1)),
                ("peak_rss_mib", rss_value(rss_mib)),
                ("peak_rss_budget_mib", rounded(rss_budget_mib, 1)),
            ],
            phases: Vec::new(),
        });
    }

    // ── 7d. Out-of-core sharded solve: spilled CSR slices reloaded one
    // shard at a time vs the fully resident sharded tier. The win
    // metric is the peak-RSS floor, not wall clock — the spill pipeline
    // streams the edge list once per shard and rebuilds each shard
    // oracle on demand, trading repeated parsing for a resident set
    // that tracks the largest single shard (DESIGN.md §11). The spill
    // run goes FIRST so its `VmHWM` reading is its own; the floor
    // assert (spill peak ≤ 60% of in-core peak) only fires under
    // `--only sharded_1m_spill`, where no earlier scenario has already
    // raised the process-monotone high-water mark.
    if should_run("sharded_1m_spill") {
        eprintln!("[perfbase] sharded out-of-core spill tier ...");
        let n = 1_000_000usize;
        let num_shards = 8usize;
        let k = if quick { 8 } else { 16 };
        let seed = 42u64;
        let text = synth_edge_list(n, 2, 0xA5A5_5A5A);
        let groups = Groups::from_assignment((0..n).map(|v| (v % 2) as u32).collect());
        let mut cfg = GreediConfig::new(k);
        cfg.shards = num_shards;
        cfg.seed = seed;

        let partition = shard_partition(n, num_shards, seed);
        let mut owner = vec![0u32; n];
        for (s, members) in partition.iter().enumerate() {
            for &v in members {
                owner[v as usize] = s as u32;
            }
        }
        // Ascending member lists per shard — the numbering shared by
        // `read_shard_slices` and `spill_shard_slices`.
        let mut members: Vec<Vec<ItemId>> = vec![Vec::new(); num_shards];
        for v in 0..n {
            members[owner[v] as usize].push(v as ItemId);
        }

        // After (run first — see above): stream the edge list once per
        // shard into a scratch-dir slice, then solve out-of-core; each
        // round-1 step reloads one slice, builds its oracle, and drops
        // both before the next shard is touched.
        let scratch =
            std::env::temp_dir().join(format!("fair-submod-spill-{}", std::process::id()));
        let start = Instant::now();
        let (spill_out, spill_rss) = {
            let spilled = Arc::new(
                spill_shard_slices(
                    || Ok(std::io::Cursor::new(text.as_bytes())),
                    n,
                    false,
                    &owner,
                    num_shards,
                    1 << 20,
                    &scratch,
                )
                .expect("scratch dir is writable"),
            );
            let build_spilled = Arc::clone(&spilled);
            let build_groups = groups.clone();
            let build: ShardBuilder = Box::new(move |s, _members| {
                let slice = build_spilled[s]
                    .load()
                    .map_err(|e| SolverError::InvalidParams {
                        solver: "sharded_1m_spill".into(),
                        message: format!("scratch reload failed: {e}"),
                    })?;
                Ok(Arc::new(CoverageOracle::new(
                    dominating_slice_system(&slice, n),
                    &build_groups,
                )) as Arc<dyn DynUtilitySystem>)
            });
            let merge_spilled = Arc::clone(&spilled);
            let merge_owner = owner.clone();
            let merge_groups = groups.clone();
            let merge: MergeBuilder = Box::new(move |pool| {
                // One spilled slice resident at a time: collect the
                // pool ids' neighbor rows shard by shard, then emit the
                // sets in pool order (the same order the resident merge
                // builder produces, so the merge oracles are
                // bit-identical).
                let mut rows: Vec<Option<Vec<u32>>> = vec![None; pool.len()];
                for (s, handle) in merge_spilled.iter().enumerate() {
                    if pool.iter().all(|&v| merge_owner[v as usize] as usize != s) {
                        continue;
                    }
                    let slice = handle.load().expect("scratch reload failed");
                    for (row, &v) in rows.iter_mut().zip(pool) {
                        if merge_owner[v as usize] as usize == s {
                            let mut set = slice
                                .neighbors_of(v)
                                .expect("pool ids come from shard members")
                                .to_vec();
                            set.push(v);
                            *row = Some(set);
                        }
                    }
                }
                let sets = rows
                    .into_iter()
                    .map(|r| r.expect("every pool id is owned by a shard"))
                    .collect();
                Arc::new(CoverageOracle::new(SetSystem::new(sets, n), &merge_groups))
            });
            let instance =
                ShardedInstance::out_of_core(members, build, merge).expect("partition is valid");
            let out = instance
                .solve_greedi(k, cfg.variant.clone())
                .expect("scratch dir stays readable");
            (out, peak_rss_mib())
        };
        let after_seconds = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&scratch);

        // Before (run second, so its larger peak cannot mask the spill
        // floor): the fully resident sharded tier — the same assembly
        // as `sharded_1m`'s after-side.
        let start = Instant::now();
        let (incore_out, incore_rss) = {
            let slices: Vec<Arc<CsrSlice>> =
                read_shard_slices(text.as_bytes(), n, false, &owner, num_shards, 1 << 20)
                    .expect("synthetic list is well-formed")
                    .into_iter()
                    .map(Arc::new)
                    .collect();
            let shard_oracles = slices
                .iter()
                .map(|slice| {
                    let oracle = CoverageOracle::new(dominating_slice_system(slice, n), &groups);
                    ShardOracle {
                        members: slice.nodes().to_vec(),
                        system: Arc::new(oracle),
                    }
                })
                .collect();
            let merge_slices = slices.clone();
            let merge_groups = groups.clone();
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
            let instance =
                ShardedInstance::new(shard_oracles, merge).expect("slice shards are valid");
            let out = instance
                .solve_greedi(k, cfg.variant.clone())
                .expect("resident shards");
            (out, peak_rss_mib())
        };
        let before_seconds = start.elapsed().as_secs_f64();

        // The spill path must be a pure residency change: bit-identical
        // reports, both against each other and therefore against the
        // `sharded_1m` centralized contract.
        assert_eq!(
            incore_out.items, spill_out.items,
            "out-of-core spill tier changed the selection"
        );
        assert_eq!(
            incore_out.value.to_bits(),
            spill_out.value.to_bits(),
            "out-of-core spill tier changed the objective"
        );
        assert_eq!(
            incore_out.oracle_calls, spill_out.oracle_calls,
            "out-of-core spill tier changed the call accounting"
        );

        let wall_budget_seconds = if quick { 120.0 } else { 240.0 };
        let rss_budget_mib = 2048.0;
        let rss_floor_frac = 0.6;
        assert!(
            after_seconds <= wall_budget_seconds,
            "sharded_1m_spill blew its wall-clock budget: \
             {after_seconds:.1}s > {wall_budget_seconds:.0}s"
        );
        if let Some(rss) = spill_rss {
            assert!(
                rss <= rss_budget_mib,
                "sharded_1m_spill blew its peak-RSS budget: {rss:.0} MiB > {rss_budget_mib:.0} MiB"
            );
        }
        let isolated = only.as_deref() == Some("sharded_1m_spill");
        if isolated {
            if let (Some(spill), Some(incore)) = (spill_rss, incore_rss) {
                assert!(
                    spill <= rss_floor_frac * incore,
                    "out-of-core spill tier did not lower the peak-RSS floor: \
                     {spill:.0} MiB > {rss_floor_frac:.2} x {incore:.0} MiB in-core"
                );
            }
        }
        scenarios.push(Scenario {
            name: "sharded_1m_spill",
            before_label: "sharded_in_core",
            after_label: "sharded_out_of_core_spill",
            before_seconds,
            after_seconds,
            extra: vec![
                ("nodes", int(n)),
                ("shards", int(num_shards)),
                ("k", int(k)),
                ("wallclock_budget_seconds", rounded(wall_budget_seconds, 1)),
                ("spill_peak_rss_mib", rss_value(spill_rss)),
                ("in_core_peak_rss_mib", rss_value(incore_rss)),
                ("peak_rss_budget_mib", rounded(rss_budget_mib, 1)),
                ("rss_floor_frac", rounded(rss_floor_frac, 2)),
                ("rss_floor_enforced", Value::Bool(isolated)),
            ],
            phases: Vec::new(),
        });
    }

    // ── 8. RIS greedy rounds: incremental counters vs rescan kernel. ──
    if should_run("ris_incremental_vs_rescan") {
        eprintln!("[perfbase] ris incremental vs rescan ...");
        let dataset = rand_mc(2, if quick { 200 } else { 500 }, seeds::RAND + 3);
        let model = DiffusionModel::ic(0.1);
        let rr = if quick { 5_000 } else { 20_000 };
        let cfg = RisConfig::new(rr, 13);
        let (oracle, build) =
            RisOracle::generate_profiled(&dataset.graph, model, &dataset.groups, &cfg);
        let rescan = oracle.rescan_reference();
        let f = MeanUtility::new(oracle.num_users());
        let k = if quick { 10 } else { 20 };
        // Naive full-scan rounds on both sides, so the only difference
        // is the gain kernel: counter reads vs per-item RR-set rescans.
        let gcfg = GreedyConfig::naive(k);
        let before_seconds = time_best(reps, || greedy(&rescan, &f, &gcfg));
        let after_seconds = time_best(reps, || greedy(&oracle, &f, &gcfg));
        let inc = greedy(&oracle, &f, &gcfg);
        let res = greedy(&rescan, &f, &gcfg);
        assert_eq!(inc.items, res.items, "incremental kernel changed selection");
        assert_eq!(
            inc.value.to_bits(),
            res.value.to_bits(),
            "incremental kernel changed the objective"
        );
        assert_eq!(
            inc.oracle_calls, res.oracle_calls,
            "incremental kernel changed call accounting"
        );
        // Regression floor: a fallback to the rescan path reads ~1x;
        // the committed full run (BENCH_baseline.json) reads 21.8x.
        let floor = 3.0;
        assert!(
            before_seconds / after_seconds >= floor,
            "ris_incremental_vs_rescan: {:.2}x below regression floor {floor}x \
             (rescan_rr_sets {before_seconds:.4}s vs incremental_counters {after_seconds:.4}s)",
            before_seconds / after_seconds
        );
        scenarios.push(Scenario {
            name: "ris_incremental_vs_rescan",
            before_label: "rescan_rr_sets",
            after_label: "incremental_counters",
            before_seconds,
            after_seconds,
            extra: vec![("k", int(k)), ("rr_sets", int(rr))],
            phases: vec![
                ("sample", build.sample_seconds),
                ("build_index", build.index_seconds),
                ("solve_rounds", after_seconds),
            ],
        });
    }

    // ── 9. CELF (lazy, batched refreshes) vs naive full-scan rounds. ──
    if should_run("celf_vs_naive_rounds") {
        eprintln!("[perfbase] celf vs naive rounds ...");
        // Facility location: gain evaluation costs O(active users) per
        // candidate, so skipped evaluations — CELF's whole point — are
        // the dominant term. (On the counter-read coverage kernel a
        // full naive scan is already nearly free, which is exactly what
        // `ris_incremental_vs_rescan` measures instead.)
        let (m, n) = if quick { (800, 400) } else { (2_000, 1_000) };
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        // Skewed per-item quality (cube of a uniform draw): real
        // benefit data has popularity skew, and a flat IID landscape is
        // CELF's degenerate worst case (every stale bound ties).
        let quality: Vec<f64> = (0..n).map(|_| next().powi(3)).collect();
        let values: Vec<f64> = (0..m * n).map(|i| next() * quality[i % n]).collect();
        let benefits = BenefitMatrix::new(values, m, n);
        let group_of: Vec<u32> = (0..m as u32).map(|u| u % 2).collect();
        let oracle = fair_submod_facility::FacilityOracle::new(benefits, group_of);
        let f = MeanUtility::new(oracle.num_users());
        let k = if quick { 20 } else { 50 };
        let before_seconds = time_best(reps, || greedy(&oracle, &f, &GreedyConfig::naive(k)));
        let after_seconds = time_best(reps, || greedy(&oracle, &f, &GreedyConfig::lazy(k)));
        let nv = greedy(&oracle, &f, &GreedyConfig::naive(k));
        let lz = greedy(&oracle, &f, &GreedyConfig::lazy(k));
        assert_eq!(lz.items, nv.items, "CELF changed the greedy selection");
        assert_eq!(
            lz.value.to_bits(),
            nv.value.to_bits(),
            "CELF changed the greedy objective"
        );
        assert!(
            lz.oracle_calls < nv.oracle_calls,
            "CELF did not save oracle calls: {} vs {}",
            lz.oracle_calls,
            nv.oracle_calls
        );
        // Regression floor: a fallback to full scans reads ~1x; the
        // committed full run (BENCH_baseline.json) reads 2.37x.
        let floor = 1.2;
        assert!(
            before_seconds / after_seconds >= floor,
            "celf_vs_naive_rounds: {:.2}x below regression floor {floor}x \
             (naive_full_scans {before_seconds:.4}s vs celf_lazy_batched {after_seconds:.4}s)",
            before_seconds / after_seconds
        );
        scenarios.push(Scenario {
            name: "celf_vs_naive_rounds",
            before_label: "naive_full_scans",
            after_label: "celf_lazy_batched",
            before_seconds,
            after_seconds,
            extra: vec![
                ("k", int(k)),
                ("naive_oracle_calls", Value::Num(nv.oracle_calls as f64)),
                ("lazy_oracle_calls", Value::Num(lz.oracle_calls as f64)),
            ],
            phases: vec![("solve_rounds", after_seconds)],
        });
    }

    // ── Report. ───────────────────────────────────────────────────────
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let speedup = s.before_seconds / s.after_seconds;
        eprintln!(
            "[perfbase] {:<24} {}: {:.4}s  {}: {:.4}s  speedup {:.2}x",
            s.name, s.before_label, s.before_seconds, s.after_label, s.after_seconds, speedup
        );
        let mut row = vec![
            ("name", Value::Str(s.name.into())),
            ("before_label", Value::Str(s.before_label.into())),
            ("before_seconds", rounded(s.before_seconds, 6)),
            ("after_label", Value::Str(s.after_label.into())),
            ("after_seconds", rounded(s.after_seconds, 6)),
            ("speedup", rounded(speedup, 4)),
        ];
        row.extend(s.extra);
        // `--profile`: per-phase wall-clock of the shipped pipeline.
        if profile && !s.phases.is_empty() {
            let phases = s
                .phases
                .iter()
                .map(|&(name, secs)| {
                    obj([
                        ("name", Value::Str(name.into())),
                        ("seconds", rounded(secs, 6)),
                    ])
                })
                .collect();
            row.push(("phases", Value::Arr(phases)));
        }
        rows.push(obj(row));
    }
    let report = obj([
        ("generated_by", Value::Str("perfbase".into())),
        ("quick", Value::Bool(quick)),
        ("cores", int(cores)),
        ("threads_default", int(threads)),
        (
            "note",
            Value::Str(
                "1_thread-vs-default scenarios only show speedup when threads_default > 1; \
                 on a single-core host they record ~1.0x by construction. The kernel scenario \
                 (vec_bool vs u64_bitset) is thread-independent."
                    .into(),
            ),
        ),
        ("scenarios", Value::Arr(rows)),
    ]);
    std::fs::write(&out_path, report.to_pretty_string()).expect("write baseline json");
    eprintln!("[perfbase] wrote {out_path}");
}
