//! The repository benchmark: three workloads measured end to end, and a
//! separate traced run that times each layer through public seams.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --daemon PATH --rr-sets N --mc-runs N
//!           --ladder R1,R2,.. --p99-limit-ms X --max-lag-ms X --max-backlog N
//! perfbench --emit-digest --rr-sets N --mc-runs N
//! ```
//!
//! `perfbench/run.py` builds this binary and the daemon and supplies the
//! knobs frozen in `BENCHMARK.json`; see `perfbench/README.md` for the
//! metric catalogue. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod serve;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;

use serde::json::{obj, Value};

use crate::trace::EngineCounters;

/// Metrics in declaration order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        obj([
                            ("value", Value::Num(*value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells offline, requests online).
    pub attempted: u64,
    /// Attempts that failed or returned a wrong answer.
    pub failed: u64,
    /// One line per failed output check.
    pub problems: Vec<String>,
    /// The end-to-end metrics (untraced).
    pub end_to_end: Metrics,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Run conditions stamped next to the result.
    pub context: Vec<(&'static str, Value)>,
}

/// The end-to-end metrics every untraced run prints, in the order of
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("build_p50_ms", "ms"),
    ("max_rps", "1/s"),
];

/// The solvers whose engine counters every traced run reports: the
/// paper's five plus GreeDi.
const ENGINE_SOLVERS: &[&str] = &[
    "Greedy",
    "Saturate",
    "SMSC",
    "BSM-TSGreedy",
    "BSM-Saturate",
    "GreeDi",
];

/// The per-layer metrics every traced run prints, in the order of
/// `BENCHMARK.json`; a layer a workload does not exercise reads 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("datasets.build_s", "s"),
        ("datasets.builds", "count"),
        ("influence.rr.build_s", "s"),
        ("influence.rr.sample_s", "s"),
        ("influence.rr.index_s", "s"),
        ("influence.rr.compress_s", "s"),
        ("influence.rr.arena_bytes", "bytes"),
        ("influence.mc.calls", "count"),
        ("influence.mc.busy_s", "s"),
        ("coverage.build_s", "s"),
        ("facility.build_s", "s"),
        ("oracle.gain_calls", "count"),
        ("oracle.gain_s", "s"),
        ("oracle.batch_items", "count"),
        ("oracle.apply_calls", "count"),
        ("oracle.apply_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for solver in ENGINE_SOLVERS {
        out.push((format!("engine.{solver}.solve_s"), "s"));
        out.push((format!("engine.{solver}.calls"), "count"));
        out.push((format!("engine.{solver}.oracle_calls"), "count"));
    }
    let rest: &[(&str, &str)] = &[
        ("engine.session.steps", "count"),
        ("engine.session.step_s", "s"),
        ("engine.self_s", "s"),
        ("harness.evaluate_s", "s"),
        ("harness.warm_cell_ratio", "ratio"),
        ("harness.saved_oracle_calls", "count"),
    ];
    out.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    for class in ["solve", "sharded", "anytime", "build", "healthz"] {
        out.push((format!("service.handler_ms.{class}.p50"), "ms"));
        out.push((format!("service.handler_ms.{class}.p99"), "ms"));
    }
    let service: &[(&str, &str)] = &[
        ("service.healthz_ms.p50", "ms"),
        ("service.healthz_ms.p99", "ms"),
        ("service.wait_ms.p50", "ms"),
        ("service.wait_ms.p99", "ms"),
        ("service.store.hits", "count"),
        ("service.store.misses", "count"),
        ("service.store.evictions", "count"),
        ("service.store.hit_ratio", "ratio"),
        ("service.loop.accepted", "count"),
        ("service.loop.shed_503", "count"),
        ("service.loop.malformed_400", "count"),
        ("trace.overhead_wall_s", "s"),
        ("trace.overhead_solve_p50_ms", "ms"),
        ("trace.spans", "count"),
    ];
    out.extend(service.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

impl Metrics {
    /// The metrics in `catalogue` order. A name this run did not measure
    /// reads 0 when `fill` is set and is an error otherwise; a measured
    /// name missing from the catalogue, or with another unit, is an error.
    fn ordered(&self, catalogue: &[(String, &'static str)], fill: bool) -> Result<Metrics, String> {
        for (name, _, unit) in &self.0 {
            match catalogue.iter().find(|(n, _)| n == name) {
                Some((_, u)) if u == unit => {}
                _ => return Err(format!("metric {name} ({unit}) is not in the catalogue")),
            }
        }
        let mut out = Metrics::default();
        for (name, unit) in catalogue {
            match self.0.iter().find(|(n, _, _)| n == name) {
                Some((_, value, _)) => out.push(name, *value, unit),
                None if fill => out.push(name, 0.0, unit),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(out)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line
                .trim_start_matches("VmHWM:")
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Pushes the per-solver and session engine metrics (per-pass means
/// over `n` passes) and returns the total solver seconds.
pub fn push_engine(m: &mut Metrics, engine: &EngineCounters, n: f64) -> f64 {
    for name in ENGINE_SOLVERS {
        let c = &engine.solvers[name];
        m.push(
            &format!("engine.{name}.solve_s"),
            trace::secs(&c.solve_ns) / n,
            "s",
        );
        m.push(
            &format!("engine.{name}.calls"),
            trace::count(&c.calls) / n,
            "count",
        );
        m.push(
            &format!("engine.{name}.oracle_calls"),
            trace::count(&c.oracle_calls) / n,
            "count",
        );
    }
    m.push(
        "engine.session.steps",
        trace::count(&engine.sessions.steps) / n,
        "count",
    );
    m.push(
        "engine.session.step_s",
        trace::secs(&engine.sessions.step_ns) / n,
        "s",
    );
    engine
        .solvers
        .values()
        .map(|c| trace::secs(&c.solve_ns))
        .sum::<f64>()
        / n
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_digest: bool,
    daemon: String,
    knobs: sweep::Knobs,
    load: serve::LoadPlan,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        emit_digest: false,
        daemon: String::new(),
        knobs: sweep::Knobs {
            rr_sets: 0,
            mc_runs: 0,
        },
        load: serve::LoadPlan::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-digest" {
            args.emit_digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--daemon" => args.daemon = value,
            "--rr-sets" => args.knobs.rr_sets = value.parse().map_err(|e| bad(&e))?,
            "--mc-runs" => args.knobs.mc_runs = value.parse().map_err(|e| bad(&e))?,
            "--ladder" => {
                args.load.ladder = value
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|e| bad(&e))?
            }
            "--p99-limit-ms" => args.load.p99_limit_ms = value.parse().map_err(|e| bad(&e))?,
            "--max-lag-ms" => args.load.max_lag_ms = value.parse().map_err(|e| bad(&e))?,
            "--max-backlog" => args.load.max_backlog = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.knobs.rr_sets == 0 || args.knobs.mc_runs == 0 {
        return Err("--rr-sets and --mc-runs are required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let out_dir = ".bench_out";
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    if args.emit_digest {
        println!("{}", sweep::emit_digest(args.knobs, out_dir)?);
        return Ok(ExitCode::SUCCESS);
    }
    let mut outcome = match args.workload.as_str() {
        "im_sweep" | "exact_sweep" => {
            let which = if args.workload == "im_sweep" {
                sweep::Sweep::Im
            } else {
                sweep::Sweep::Exact
            };
            sweep::run(
                which,
                args.seed,
                args.seconds,
                args.trace,
                args.knobs,
                out_dir,
            )?
        }
        "serve_mixed" => {
            if args.load.ladder.is_empty() || args.daemon.is_empty() {
                return Err("serve_mixed needs --ladder and --daemon".into());
            }
            serve::run(
                &args.daemon,
                args.seed,
                args.seconds,
                args.trace,
                args.knobs,
                &args.load,
            )?
        }
        other => return Err(format!("unknown workload {other:?}")),
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut context = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::Num(nproc as f64)),
        (
            "rayon_threads",
            Value::Num(rayon::current_num_threads() as f64),
        ),
        (
            "ladder_rps",
            Value::Arr(args.load.ladder.iter().map(|&r| Value::Num(r)).collect()),
        ),
        ("rr_sets", Value::Num(args.knobs.rr_sets as f64)),
        ("mc_runs", Value::Num(args.knobs.mc_runs as f64)),
    ];
    context.append(&mut outcome.context);
    if args.trace {
        let path = format!("{out_dir}/{}-seed{}-trace.json", args.workload, args.seed);
        let doc = obj([
            ("context", Value::Obj(own(&context))),
            ("trace", trace::tracer().to_json()),
        ]);
        std::fs::write(&path, doc.to_compact_string()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("perfbench: spans written to {path}");
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: output check: {problem}");
    }
    let metrics = if args.trace {
        outcome.per_layer.ordered(&per_layer_catalogue(), true)?
    } else {
        let catalogue: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        outcome.end_to_end.ordered(&catalogue, false)?
    };
    for (name, value, unit) in &metrics.0 {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        obj([("context", Value::Obj(own(&context)))]).to_compact_string()
    );
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(outcome.attempted as f64)),
            ("failed", Value::Num(outcome.failed as f64)),
            ("metrics", metrics.to_json()),
        ])
        .to_compact_string()
    );
    Ok(ExitCode::SUCCESS)
}

fn own(pairs: &[(&'static str, Value)]) -> Vec<(String, Value)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The binary's catalogues are the ones `BENCHMARK.json` declares.
    #[test]
    fn catalogues_match_the_benchmark_definition() {
        let doc = serde::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            declared("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(declared("per_layer"), own(per_layer_catalogue()));
    }
}
