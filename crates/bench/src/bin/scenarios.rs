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
//! ```

use fair_submod_bench::args::ExpArgs;
use fair_submod_bench::scenario::{builtin_specs, load_spec, run_spec};

fn main() {
    let args = ExpArgs::parse();
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
