//! The two offline workloads: a generated [`ScenarioSpec`] driven from
//! spec to written report through the same public functions
//! `scenario::run_spec` calls (`DatasetRecipe::build`, the substrate
//! oracle builders, `harness::run_suite`, `monte_carlo_evaluate`,
//! `cell_to_json`), so the untraced numbers are what `scenarios --spec`
//! pays, and the traced run can put instruments at each seam.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{obj, Value};
use serde::{FromJson, ToJson};

use fair_submod_bench::args::ExpArgs;
use fair_submod_bench::harness::{run_suite, CellOutcome, GridConfig, PAPER_SOLVERS};
use fair_submod_bench::scenario::{
    cell_to_json, BuiltDataset, DatasetRecipe, GridJob, JobSpec, ScenarioSpec, SubstrateSpec,
};
use fair_submod_core::engine::{DynUtilitySystem, ScenarioParams, SolverError, SolverRegistry};
use fair_submod_core::items::ItemId;
use fair_submod_core::metrics::{evaluate, Evaluation};
use fair_submod_influence::oracle::{RisConfig, RisOracle};
use fair_submod_influence::{monte_carlo_evaluate, DiffusionModel};

use crate::stats::{median, summarize, Summary};
use crate::trace::{self, tracer, CountingSystem, EngineCounters, OracleCounters};
use crate::{Metrics, Outcome};

/// The offline workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// Influence maximization: a k-sweep on the Facebook stand-in and a
    /// τ-sweep on seed-driven RAND graphs (the Fig. 6 / Fig. 5 shapes).
    Im,
    /// Coverage and facility location k- and τ-sweeps, evaluated
    /// oracle-exactly (the Fig. 4 / Fig. 7 / Fig. 8 shapes).
    Exact,
}

impl Sweep {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Im => "im_sweep",
            Sweep::Exact => "exact_sweep",
        }
    }
}

/// Build knobs fixed by the benchmark definition.
#[derive(Clone, Copy, Debug)]
pub struct Knobs {
    /// RR sets per influence oracle.
    pub rr_sets: usize,
    /// Monte-Carlo runs per influence evaluation.
    pub mc_runs: usize,
}

fn grid(dataset: Value, substrate: Value, ks: &[usize], taus: &[f64]) -> Value {
    let nums = |xs: Vec<f64>| Value::Arr(xs.into_iter().map(Value::Num).collect());
    obj([(
        "grid",
        obj([
            ("dataset", dataset),
            ("substrate", substrate),
            (
                "solvers",
                Value::Arr(
                    PAPER_SOLVERS
                        .iter()
                        .map(|s| Value::Str(s.to_string()))
                        .collect(),
                ),
            ),
            ("ks", nums(ks.iter().map(|&k| k as f64).collect())),
            ("taus", nums(taus.to_vec())),
        ]),
    )])
}

fn recipe(pairs: &[(&'static str, Value)]) -> Value {
    obj(pairs.iter().cloned())
}

/// The workload's spec as the JSON text `scenarios --spec` would read.
/// `seed` becomes the `seed_offset` of every RAND recipe; the paper
/// stand-ins keep their canonical seeds.
pub fn spec_json(sweep: Sweep, seed: u64) -> String {
    let kind = |k: &str| ("kind", Value::Str(k.to_string()));
    let num = |x: f64| Value::Num(x);
    let offset = ("seed_offset", num(seed as f64));
    let taus = [0.2, 0.4, 0.6, 0.8];
    let jobs = match sweep {
        Sweep::Im => {
            let ic = |p: f64| obj([("influence_p", num(p))]);
            let facebook = |c: f64| recipe(&[kind("facebook_like"), ("c", num(c))]);
            let rand = |c: f64| {
                recipe(&[
                    kind("rand_mc"),
                    ("c", num(c)),
                    ("n", num(100.0)),
                    offset.clone(),
                ])
            };
            let ks = [5, 10, 15, 20];
            vec![
                grid(facebook(2.0), ic(0.01), &ks, &[0.8]),
                grid(facebook(4.0), ic(0.01), &ks, &[0.8]),
                grid(rand(2.0), ic(0.1), &[5], &taus),
                grid(rand(4.0), ic(0.1), &[5], &taus),
            ]
        }
        Sweep::Exact => {
            let coverage = || Value::Str("coverage".into());
            let facility = || Value::Str("facility".into());
            let ks: Vec<usize> = (1..=10).map(|i| 5 * i).collect();
            vec![
                grid(
                    recipe(&[kind("facebook_like"), ("c", num(2.0))]),
                    coverage(),
                    &ks,
                    &[0.8],
                ),
                grid(
                    recipe(&[
                        kind("rand_mc"),
                        ("c", num(2.0)),
                        ("n", num(500.0)),
                        offset.clone(),
                    ]),
                    coverage(),
                    &[5],
                    &taus,
                ),
                grid(
                    recipe(&[
                        kind("adult_like"),
                        ("variant", Value::Str("small_race".into())),
                    ]),
                    facility(),
                    &[5],
                    &taus,
                ),
                grid(
                    recipe(&[kind("rand_fl"), ("c", num(2.0)), offset.clone()]),
                    facility(),
                    &[5, 10, 15],
                    &taus,
                ),
            ]
        }
    };
    obj([
        ("name", Value::Str(sweep.name().to_string())),
        (
            "title",
            Value::Str(format!("{} (seed {seed})", sweep.name())),
        ),
        ("jobs", Value::Arr(jobs)),
    ])
    .to_pretty_string()
}

/// The seed whose outputs the committed reference digest records.
pub const DEFAULT_SEED: u64 = 0;

/// RAND recipes take `seed_offset = seed mod OFFSET_RANGE`, which keeps
/// the canonical seed plus the offset far from overflow.
const OFFSET_RANGE: u64 = 1_000_000;

/// Cells per grid job recomputed cold through `SolverRegistry::solve`.
const COLD_SAMPLES_PER_JOB: usize = 3;

/// Iterations every run times at least, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

const REFERENCE_DIGEST: &str = include_str!("../reference_digest.json");

/// One cell's output identity: dataset, solver, `k`, `τ`, and either
/// `(items, objective bits, oracle calls)` or the typed rejection.
pub fn digest_line(label: &str, cell: &CellOutcome) -> String {
    let head = format!("{label}|{}|k={}|tau={}", cell.solver, cell.k, cell.tau);
    match &cell.outcome {
        Ok(r) => format!(
            "{head}|ok|{:?}|{:016x}|{}",
            r.items,
            r.objective.to_bits(),
            r.oracle_calls
        ),
        Err(e) => {
            let kind = e
                .to_json()
                .get("kind")
                .and_then(Value::as_str)
                .map(str::to_string);
            format!("{head}|rejected|{}", kind.unwrap_or_default())
        }
    }
}

/// Differences between a reference digest and a run's, one line each
/// (empty when they agree).
pub fn digest_mismatches(reference: &[String], got: &[String]) -> Vec<String> {
    let mut out: Vec<String> = reference
        .iter()
        .zip(got)
        .filter(|(r, g)| r != g)
        .map(|(r, g)| format!("expected {r}, got {g}"))
        .collect();
    if reference.len() != got.len() {
        out.push(format!(
            "expected {} cells, got {}",
            reference.len(),
            got.len()
        ));
    }
    out
}

/// The committed reference digest for `sweep`, if it was recorded with
/// these knobs.
fn reference_digest(sweep: Sweep, knobs: Knobs) -> Result<Vec<String>, String> {
    let doc = serde::json::parse(REFERENCE_DIGEST).map_err(|e| format!("reference digest: {e}"))?;
    let recorded = doc.get("rr_sets").and_then(Value::as_usize);
    if recorded != Some(knobs.rr_sets) {
        return Err(format!(
            "reference digest was recorded with rr_sets {recorded:?}, this run uses {}; \
             regenerate it with --emit-digest",
            knobs.rr_sets
        ));
    }
    doc.get("workloads")
        .and_then(|w| w.get(sweep.name()))
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("reference digest has no entry for {}", sweep.name()))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "reference digest lines must be strings".to_string())
        })
        .collect()
}

/// The traced run's in-process instruments.
struct Instruments {
    registry: SolverRegistry,
    engine: EngineCounters,
    oracle: Arc<OracleCounters>,
}

/// What one spec-to-report pass measured and produced.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    setup_s: f64,
    build_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    /// Monte-Carlo evaluator time (influence jobs only).
    mc_s: f64,
    mc_calls: usize,
    digest: Vec<String>,
    attempted: usize,
    hard_errors: usize,
    warm_cells: usize,
    saved_oracle_calls: f64,
    cold_mismatches: Vec<String>,
    /// Labels of the jobs whose recipe does not follow the seed.
    fixed_labels: Vec<String>,
}

/// Per-job execution context.
struct JobRun<'a> {
    job: &'a GridJob,
    label: String,
    registry: &'a SolverRegistry,
    instruments: Option<&'a Instruments>,
    cold_check: Option<u64>,
}

impl JobRun<'_> {
    /// `run_suite` on `system`, with the evaluator timed per call and,
    /// when traced, the system behind the counting proxy.
    fn suite(
        &self,
        system: &dyn DynUtilitySystem,
        evaluator: &(dyn Fn(&[ItemId]) -> Evaluation + Sync),
        pass: &mut Pass,
    ) -> Result<Vec<CellOutcome>, String> {
        let job = self.job;
        let mut base = ScenarioParams::new(job.ks[0], job.taus[0]);
        if let Some(limit) = job.exact_node_limit {
            base.exact_node_limit = limit;
        }
        let grid = GridConfig {
            solvers: job.solvers.clone(),
            ks: job.ks.clone(),
            taus: job.taus.clone(),
            epsilons: job.epsilons.clone(),
            shards: job.shards.clone(),
            repetitions: job.repetitions,
            warm_sweeps: true,
            base,
        };
        let eval_ms = Mutex::new(Vec::new());
        let timed_eval = |items: &[ItemId]| {
            let _span = self
                .instruments
                .map(|_| tracer().span("harness.evaluate", self.label.clone()));
            let start = Instant::now();
            let eval = evaluator(items);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            eval_ms.lock().expect("eval times poisoned").push(ms);
            eval
        };
        let proxy = self
            .instruments
            .map(|inst| CountingSystem::new(system, Arc::clone(&inst.oracle)));
        let target: &dyn DynUtilitySystem = match &proxy {
            Some(p) => p,
            None => system,
        };
        let span = self
            .instruments
            .map(|_| tracer().span("harness.run_suite", self.label.clone()));
        if let Some(s) = &span {
            tracer().set_ambient(s.id());
        }
        let cells = run_suite(target, &timed_eval, self.registry, &grid)
            .map_err(|e| format!("grid expansion: {e}"))?;
        if span.is_some() {
            tracer().set_ambient(0);
        }
        drop(span);
        let eval_ms = eval_ms.into_inner().expect("eval times poisoned");
        if matches!(job.substrate, SubstrateSpec::Influence { .. }) {
            pass.mc_calls += eval_ms.len();
            pass.mc_s += eval_ms.iter().sum::<f64>() / 1e3;
        }
        pass.eval_ms.extend(eval_ms);
        if let Some(seed) = self.cold_check {
            self.recompute_cold(system, &grid, &cells, seed, pass);
        }
        Ok(cells)
    }

    /// Re-solves a seeded sample of the ok cells cold through the plain
    /// registry and records any cell whose items, objective bits, or
    /// oracle calls differ from what the sweep reported.
    fn recompute_cold(
        &self,
        system: &dyn DynUtilitySystem,
        grid: &GridConfig,
        cells: &[CellOutcome],
        seed: u64,
        pass: &mut Pass,
    ) {
        let ok: Vec<&CellOutcome> = cells.iter().filter(|c| c.outcome.is_ok()).collect();
        if ok.is_empty() {
            return;
        }
        let registry = SolverRegistry::default();
        let mut rng = StdRng::seed_from_u64(seed ^ fnv(&self.label));
        for _ in 0..COLD_SAMPLES_PER_JOB.min(ok.len()) {
            let cell = ok[rng.gen_range(0..ok.len())];
            let mut params = grid.base.clone();
            params.k = cell.k;
            params.tau = cell.tau;
            params.epsilon = cell.epsilon;
            params.shards = cell.shards;
            params.seed = grid.base.seed.wrapping_add(cell.rep as u64);
            let swept = cell.report().expect("filtered to ok cells");
            let same = match registry.solve(&cell.solver, system, &params) {
                Ok(cold) => {
                    cold.items == swept.items
                        && cold.objective.to_bits() == swept.objective.to_bits()
                        && cold.oracle_calls == swept.oracle_calls
                }
                Err(_) => false,
            };
            if !same {
                pass.cold_mismatches.push(format!(
                    "{} {} k={} tau={}: cold solve differs from the sweep",
                    self.label, cell.solver, cell.k, cell.tau
                ));
            }
        }
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `f`, adding its seconds to the named trace sum when traced.
fn timed<T>(traced: bool, sum: &'static str, tag: &str, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let span = tracer().span(sum, tag);
    let out = f();
    tracer().add(sum, span.elapsed());
    out
}

/// One spec-to-report pass, written to `report_path`.
fn run_pass(
    spec: &ScenarioSpec,
    knobs: Knobs,
    registry: &SolverRegistry,
    instruments: Option<&Instruments>,
    cold_check: Option<u64>,
    report_path: &str,
) -> Result<Pass, String> {
    let traced = instruments.is_some();
    let _pass_span = traced.then(|| tracer().span("sweep.pass", spec.name.clone()));
    let start = Instant::now();
    let args = ExpArgs {
        rr_sets: knobs.rr_sets,
        mc_runs: knobs.mc_runs,
        ..ExpArgs::default()
    };
    let mut pass = Pass::default();
    let mut report_cells: Vec<Value> = Vec::new();
    let (mut ok_cells, mut gaps, mut empty) = (0usize, 0usize, 0usize);
    for job in &spec.jobs {
        let JobSpec::Grid(job) = job else {
            continue;
        };
        let build_start = Instant::now();
        let tag = format!("{:?}", job.dataset);
        let built = timed(traced, "datasets.build_s", &tag, || {
            job.dataset.build(&args)
        });
        if traced {
            tracer().add("datasets.builds", 1.0);
        }
        if !matches!(
            job.dataset,
            DatasetRecipe::RandMc { .. } | DatasetRecipe::RandFl { .. }
        ) {
            pass.fixed_labels
                .push(format!("{}{}", built.name(), job.label_suffix));
        }
        let run = JobRun {
            job,
            label: format!("{}{}", built.name(), job.label_suffix),
            registry,
            instruments,
            cold_check,
        };
        let seed = job.dataset.seed();
        let cells = match (&job.substrate, &built) {
            (SubstrateSpec::Coverage, BuiltDataset::Graph(d)) => {
                let oracle = timed(traced, "coverage.build_s", &tag, || d.coverage_oracle());
                pass.build_ms
                    .push(build_start.elapsed().as_secs_f64() * 1e3);
                run.suite(&oracle, &|items| evaluate(&oracle, items), &mut pass)?
            }
            (SubstrateSpec::Influence { p }, BuiltDataset::Graph(d)) => {
                let model = DiffusionModel::ic(*p);
                let oracle = if traced {
                    let span = tracer().span("influence.rr.build_s", tag.clone());
                    let (oracle, phases) = RisOracle::generate_profiled(
                        &d.graph,
                        model,
                        &d.groups,
                        &RisConfig::new(knobs.rr_sets, seed ^ 0x11),
                    );
                    let t = tracer();
                    t.add("influence.rr.build_s", span.elapsed());
                    t.add("influence.rr.sample_s", phases.sample_seconds);
                    t.add("influence.rr.index_s", phases.index_seconds);
                    t.add("influence.rr.compress_s", phases.compress_seconds);
                    t.add("influence.rr.arena_bytes", oracle.arena_bytes() as f64);
                    oracle
                } else {
                    d.ris_oracle(model, knobs.rr_sets, seed ^ 0x11)
                };
                pass.build_ms
                    .push(build_start.elapsed().as_secs_f64() * 1e3);
                let evaluator = |items: &[ItemId]| {
                    monte_carlo_evaluate(
                        &d.graph,
                        model,
                        &d.groups,
                        items,
                        knobs.mc_runs,
                        seed ^ 0x22,
                    )
                };
                run.suite(&oracle, &evaluator, &mut pass)?
            }
            (SubstrateSpec::Facility, BuiltDataset::Points(d)) => {
                let oracle = timed(traced, "facility.build_s", &tag, || d.oracle());
                pass.build_ms
                    .push(build_start.elapsed().as_secs_f64() * 1e3);
                run.suite(&oracle, &|items| evaluate(&oracle, items), &mut pass)?
            }
            (substrate, _) => {
                return Err(format!(
                    "substrate {substrate:?} does not match dataset {:?}",
                    job.dataset
                ))
            }
        };
        pass.setup_s += pass.build_ms.last().copied().unwrap_or(0.0) / 1e3;
        let mut groups: Vec<((String, u64, usize), f64)> = Vec::new();
        for cell in &cells {
            pass.attempted += 1;
            pass.digest.push(digest_line(&run.label, cell));
            match &cell.outcome {
                Ok(report) => {
                    ok_cells += 1;
                    if report.items.is_empty() {
                        empty += 1;
                    }
                    pass.solve_ms.push(report.seconds * 1e3);
                    if cell.warm {
                        pass.warm_cells += 1;
                        let key = (cell.solver.clone(), cell.tau.to_bits(), cell.rep);
                        let saved = report
                            .notes
                            .iter()
                            .find(|(l, _)| l == "warm_saved_oracle_calls")
                            .map_or(0.0, |(_, v)| *v);
                        if !groups.iter().any(|(k, _)| *k == key) {
                            groups.push((key, saved));
                        }
                    }
                }
                Err(
                    SolverError::UnsupportedGroupCount { .. } | SolverError::GridTooLarge { .. },
                ) => gaps += 1,
                Err(_) => pass.hard_errors += 1,
            }
            report_cells.push(cell_to_json(&run.label, cell));
        }
        pass.saved_oracle_calls += groups.iter().map(|(_, v)| v).sum::<f64>();
    }
    let report = obj([
        ("spec", Value::Str(spec.name.clone())),
        ("quick", Value::Bool(false)),
        ("ok_cells", Value::Num(ok_cells as f64)),
        ("capability_gaps", Value::Num(gaps as f64)),
        ("error_cells", Value::Num(pass.hard_errors as f64)),
        ("empty_solutions", Value::Num(empty as f64)),
        ("cells", Value::Arr(report_cells)),
    ]);
    timed(traced, "report.write_s", &spec.name, || {
        std::fs::write(report_path, report.to_pretty_string())
    })
    .map_err(|e| format!("write report {report_path}: {e}"))?;
    pass.hard_errors += empty;
    pass.wall_s = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// Runs one offline workload for `seconds` of timed passes after an
/// untimed warm-up pass that also carries the output check.
pub fn run(
    sweep: Sweep,
    seed: u64,
    seconds: f64,
    trace_run: bool,
    knobs: Knobs,
    out_dir: &str,
) -> Result<Outcome, String> {
    let text = spec_json(sweep, seed % OFFSET_RANGE);
    let spec = ScenarioSpec::from_json_str(&text).map_err(|e| format!("generated spec: {e}"))?;
    spec.validate()?;
    let spec_path = format!("{out_dir}/{}_spec.json", sweep.name());
    std::fs::write(&spec_path, &text).map_err(|e| format!("write {spec_path}: {e}"))?;
    let report_path = format!("{out_dir}/{}_report.json", sweep.name());
    let plain = SolverRegistry::default();

    let mut outcome = Outcome::default();
    let warm = run_pass(&spec, knobs, &plain, None, Some(seed), &report_path)?;
    outcome.attempted += warm.attempted as u64;
    outcome.failed += (warm.hard_errors + warm.cold_mismatches.len()) as u64;
    outcome
        .problems
        .extend(warm.cold_mismatches.iter().cloned());
    // The reference covers every cell at the default seed, and the
    // paper stand-ins' cells (which no seed changes) at any seed.
    let checked = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .filter(|line| {
                seed == DEFAULT_SEED
                    || warm
                        .fixed_labels
                        .iter()
                        .any(|label| line.split('|').next() == Some(label.as_str()))
            })
            .collect()
    };
    let mismatches = digest_mismatches(
        &checked(reference_digest(sweep, knobs)?),
        &checked(warm.digest.clone()),
    );
    outcome.failed += mismatches.len() as u64;
    outcome.problems.extend(mismatches);

    let instruments = trace_run.then(|| {
        let (registry, engine) = trace::timing_registry();
        Instruments {
            registry,
            engine,
            oracle: Arc::new(OracleCounters::default()),
        }
    });
    let (mut plain_passes, mut traced_passes) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    loop {
        let enough = plain_passes.len() >= MIN_ITERATIONS
            && (!trace_run || traced_passes.len() >= MIN_ITERATIONS);
        if enough && Instant::now() >= deadline {
            break;
        }
        // Traced runs alternate, so both sides see the same machine.
        let traced = trace_run && plain_passes.len() > traced_passes.len();
        let pass = if traced {
            let inst = instruments.as_ref().expect("traced runs build instruments");
            run_pass(&spec, knobs, &inst.registry, Some(inst), None, &report_path)?
        } else {
            run_pass(&spec, knobs, &plain, None, None, &report_path)?
        };
        let drift = digest_mismatches(&warm.digest, &pass.digest);
        outcome.attempted += pass.attempted as u64;
        outcome.failed += (pass.hard_errors + drift.len()) as u64;
        outcome.problems.extend(drift);
        if traced {
            traced_passes.push(pass);
        } else {
            plain_passes.push(pass);
        }
    }

    // Every pass does the same work, so per-pass figures are summarized
    // first and the median over passes taken, which keeps a preempted
    // pass from moving a tail.
    let per_pass = |f: fn(&Pass) -> &Vec<f64>| -> Result<(f64, f64, Summary), String> {
        let sums: Vec<Summary> = plain_passes
            .iter()
            .map(|p| summarize(f(p)).ok_or("a pass produced no samples"))
            .collect::<Result<_, _>>()?;
        let p50 = median(&sums.iter().map(|s| s.p50).collect::<Vec<_>>());
        let tail = median(&sums.iter().map(|s| s.tail).collect::<Vec<_>>());
        Ok((p50, tail, sums[0]))
    };
    let of = |f: fn(&Pass) -> f64| median(&plain_passes.iter().map(f).collect::<Vec<_>>());
    let (solve_p50, solve_tail, solve) = per_pass(|p| &p.solve_ms)?;
    let mut m = Metrics::default();
    m.push("wall_s", of(|p| p.wall_s), "s");
    m.push("setup_s", of(|p| p.setup_s), "s");
    m.push("peak_rss_mib", crate::peak_rss_mib(), "MiB");
    m.push("solve_p50_ms", solve_p50, "ms");
    m.push("solve_p99_ms", solve_tail, "ms");
    m.push(
        "build_p50_ms",
        of(|p| p.build_ms.iter().sum::<f64>() / p.build_ms.len().max(1) as f64),
        "ms",
    );
    m.push("max_rps", of(|p| p.attempted as f64 / p.wall_s), "1/s");
    outcome.end_to_end = m;
    outcome
        .context
        .push(("passes", Value::Num(plain_passes.len() as f64)));
    outcome
        .context
        .push(("cells_per_pass", Value::Num(solve.samples as f64)));
    outcome
        .context
        .push(("solve_tail_percentile", Value::Num(solve.tail_percentile)));
    outcome.context.push(("spec", Value::Str(spec_path)));
    outcome.context.push(("report", Value::Str(report_path)));

    if let Some(inst) = &instruments {
        outcome.per_layer = per_layer(inst, &traced_passes, &plain_passes);
    }
    Ok(outcome)
}

/// The traced passes' per-layer figures, each a per-pass mean so runs
/// with different pass counts compare.
fn per_layer(inst: &Instruments, traced: &[Pass], plain: &[Pass]) -> Metrics {
    let n = traced.len().max(1) as f64;
    let sums = tracer().sums();
    let sum = |name: &str| sums.get(name).copied().unwrap_or(0.0) / n;
    let mut m = Metrics::default();
    m.push("datasets.build_s", sum("datasets.build_s"), "s");
    m.push("datasets.builds", sum("datasets.builds"), "count");
    for (name, unit) in [
        ("influence.rr.build_s", "s"),
        ("influence.rr.sample_s", "s"),
        ("influence.rr.index_s", "s"),
        ("influence.rr.compress_s", "s"),
        ("influence.rr.arena_bytes", "bytes"),
    ] {
        m.push(name, sum(name), unit);
    }
    let per = |f: fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>() / n;
    m.push("influence.mc.calls", per(|p| p.mc_calls as f64), "count");
    m.push("influence.mc.busy_s", per(|p| p.mc_s), "s");
    m.push("coverage.build_s", sum("coverage.build_s"), "s");
    m.push("facility.build_s", sum("facility.build_s"), "s");
    let o = &inst.oracle;
    let gain_s = trace::secs(&o.gain_ns) / n;
    let apply_s = trace::secs(&o.apply_ns) / n;
    m.push(
        "oracle.gain_calls",
        trace::count(&o.gain_calls) / n,
        "count",
    );
    m.push("oracle.gain_s", gain_s, "s");
    m.push(
        "oracle.batch_items",
        trace::count(&o.batch_items) / n,
        "count",
    );
    m.push(
        "oracle.apply_calls",
        trace::count(&o.apply_calls) / n,
        "count",
    );
    m.push("oracle.apply_s", apply_s, "s");
    let engine_s = crate::push_engine(&mut m, &inst.engine, n);
    m.push("engine.self_s", engine_s - gain_s - apply_s, "s");
    m.push(
        "harness.evaluate_s",
        per(|p| p.eval_ms.iter().sum::<f64>() / 1e3),
        "s",
    );
    let attempted = per(|p| p.attempted as f64);
    m.push(
        "harness.warm_cell_ratio",
        per(|p| p.warm_cells as f64) / attempted.max(1.0),
        "ratio",
    );
    m.push(
        "harness.saved_oracle_calls",
        per(|p| p.saved_oracle_calls),
        "count",
    );
    let med = |ps: &[Pass], f: fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
    let p50 = |ps: &[Pass]| {
        summarize(
            &ps.iter()
                .flat_map(|p| p.solve_ms.iter().copied())
                .collect::<Vec<_>>(),
        )
        .map_or(0.0, |s| s.p50)
    };
    m.push(
        "trace.overhead_wall_s",
        med(traced, |p| p.wall_s) - med(plain, |p| p.wall_s),
        "s",
    );
    m.push(
        "trace.overhead_solve_p50_ms",
        p50(traced) - p50(plain),
        "ms",
    );
    m.push("trace.spans", tracer().span_count() as f64 / n, "count");
    m
}

/// The reference digest document for both offline workloads at
/// [`DEFAULT_SEED`] (what `--emit-digest` prints).
pub fn emit_digest(knobs: Knobs, out_dir: &str) -> Result<String, String> {
    let registry = SolverRegistry::default();
    let mut workloads = Vec::new();
    for sweep in [Sweep::Im, Sweep::Exact] {
        let spec = ScenarioSpec::from_json_str(&spec_json(sweep, DEFAULT_SEED))
            .map_err(|e| format!("generated spec: {e}"))?;
        let path = format!("{out_dir}/{}_report.json", sweep.name());
        let pass = run_pass(&spec, knobs, &registry, None, Some(DEFAULT_SEED), &path)?;
        if pass.hard_errors > 0 || !pass.cold_mismatches.is_empty() {
            return Err(format!(
                "{}: the reference pass itself failed",
                sweep.name()
            ));
        }
        workloads.push((
            sweep.name().to_string(),
            Value::Arr(pass.digest.into_iter().map(Value::Str).collect()),
        ));
    }
    Ok(obj([
        ("seed", Value::Num(DEFAULT_SEED as f64)),
        ("rr_sets", Value::Num(knobs.rr_sets as f64)),
        ("workloads", Value::Obj(workloads)),
    ])
    .to_pretty_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_generation_is_seed_deterministic() {
        for sweep in [Sweep::Im, Sweep::Exact] {
            assert_eq!(spec_json(sweep, 7), spec_json(sweep, 7));
            assert_ne!(spec_json(sweep, 7), spec_json(sweep, 8));
            let spec = ScenarioSpec::from_json_str(&spec_json(sweep, 7)).unwrap();
            spec.validate().unwrap();
            // Only the RAND recipes follow the seed.
            for job in &spec.jobs {
                let JobSpec::Grid(job) = job else {
                    panic!("grid jobs only")
                };
                match job.dataset {
                    DatasetRecipe::RandMc { seed_offset, .. }
                    | DatasetRecipe::RandFl { seed_offset, .. } => assert_eq!(seed_offset, 7),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn digest_check_fails_on_a_perturbed_report() {
        let spec = ScenarioSpec::from_json_str(&spec_json(Sweep::Exact, 3)).unwrap();
        let mut small = spec.clone();
        small.jobs.truncate(1);
        let knobs = Knobs {
            rr_sets: 1000,
            mc_runs: 10,
        };
        let path = std::env::temp_dir().join("perfbench-digest-test.json");
        let path = path.to_str().unwrap();
        let registry = SolverRegistry::default();
        let a = run_pass(&small, knobs, &registry, None, Some(3), path).unwrap();
        let b = run_pass(&small, knobs, &registry, None, None, path).unwrap();
        assert!(a.cold_mismatches.is_empty(), "{:?}", a.cold_mismatches);
        assert!(digest_mismatches(&a.digest, &b.digest).is_empty());

        // Perturb one ok cell's objective by one ulp.
        let mut cells: Vec<CellOutcome> = Vec::new();
        let JobSpec::Grid(job) = &small.jobs[0] else {
            unreachable!()
        };
        let built = job.dataset.build(&ExpArgs::default());
        let BuiltDataset::Graph(d) = &built else {
            unreachable!()
        };
        let oracle = d.coverage_oracle();
        let mut grid = GridConfig::paper(5, 0.8);
        grid.solvers = vec!["Greedy".into()];
        cells.extend(run_suite(&oracle, &|i| evaluate(&oracle, i), &registry, &grid).unwrap());
        let good: Vec<String> = cells.iter().map(|c| digest_line("x", c)).collect();
        if let Ok(r) = &mut cells[0].outcome {
            r.objective = f64::from_bits(r.objective.to_bits() + 1);
        }
        let bad: Vec<String> = cells.iter().map(|c| digest_line("x", c)).collect();
        assert_eq!(digest_mismatches(&good, &bad).len(), 1);
        // A dropped cell is a mismatch too.
        assert_eq!(digest_mismatches(&good, &good[..0]).len(), 1);
    }

    #[test]
    fn reference_digest_parses() {
        let doc = serde::json::parse(REFERENCE_DIGEST).unwrap();
        for sweep in [Sweep::Im, Sweep::Exact] {
            let lines = doc.get("workloads").and_then(|w| w.get(sweep.name()));
            assert!(lines.and_then(Value::as_arr).is_some_and(|l| !l.is_empty()));
        }
    }
}
