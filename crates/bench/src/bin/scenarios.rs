//! The scenario runner: executes any built-in or on-disk
//! [`ScenarioSpec`](fair_submod_bench::scenario::ScenarioSpec) through
//! the solver registry, and exits non-zero on failure (or on
//! `--strict` violations).
//!
//! ```text
//! scenarios --list                       # show the built-in specs
//! scenarios --spec fig3 [--quick]        # run a paper artifact
//! scenarios --spec my_experiment.json    # run a custom spec file
//! scenarios --spec smoke --quick --strict  # the CI smoke gate
//! scenarios --spec fig4 --solvers Greedy,BSM-Saturate  # subset rerun
//! scenarios --spec smoke --quick --cold  # disable warm k-axis sweeps
//! scenarios diff warm.json cold.json     # warm vs cold report check
//! ```

use fair_submod_bench::args::ExpArgs;
use fair_submod_bench::scenario::{builtin_specs, diff_warm_cold, load_spec, run_spec};
use serde::json::{parse_bytes, Value};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("diff") {
        let [warm, cold] = &argv[1..] else {
            eprintln!("usage: scenarios diff <warm-report> <cold-report>");
            std::process::exit(2);
        };
        diff(warm, cold);
        return;
    }
    let args = ExpArgs::from_iter(argv);
    if args.list {
        println!("built-in scenario specs:");
        for (name, _) in builtin_specs() {
            let spec = load_spec(name).expect("built-in specs always parse");
            println!("  {name:<8} {}", spec.title);
        }
        return;
    }
    let Some(name) = args.spec.as_deref() else {
        eprintln!(
            "usage: scenarios --spec <name-or-path> [--quick] [--strict] \
             [--solvers a,b] [--cold]"
        );
        eprintln!("       scenarios diff <warm-report> <cold-report>");
        eprintln!("       scenarios --list");
        std::process::exit(2);
    };
    let spec = load_spec(name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    match run_spec(&spec, &args) {
        Ok(summary) if args.strict && summary.strict_failure() => {
            eprintln!(
                "strict failure: {} ok cells, {} errors, {} empty solutions",
                summary.ok_cells, summary.error_cells, summary.empty_solutions
            );
            std::process::exit(1);
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// `scenarios diff`: the grid-reuse check on two written reports
/// ([`diff_warm_cold`]); exits 1 on any difference, 2 on an unreadable
/// report.
fn diff(warm: &str, cold: &str) {
    let read = |path: &str| -> Value {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("error: read {path}: {e}");
            std::process::exit(2);
        });
        parse_bytes(&bytes).unwrap_or_else(|e| {
            eprintln!("error: parse {path}: {e}");
            std::process::exit(2);
        })
    };
    match diff_warm_cold(&read(warm), &read(cold)) {
        Ok((cells, warmed)) => {
            println!("grid-reuse smoke: {cells} cells identical, {warmed} served warm");
        }
        Err(e) => {
            eprintln!("grid-reuse diff failed: {e}");
            std::process::exit(1);
        }
    }
}
