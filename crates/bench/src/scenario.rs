//! The declarative scenario layer: serde-backed [`ScenarioSpec`]s and
//! the runner that executes them through the solver registry.
//!
//! A spec is a list of jobs — solver *grids* (dataset recipe ×
//! substrate × solver names × `k`/`τ`/`ε` axes × repetitions) and
//! dataset *stats* tables — that fully describes one experiment
//! artifact. The 11 paper artifacts (`fig3`–`fig11`, `table1`,
//! `table2`) are thin JSON files embedded at build time
//! ([`builtin_specs`]); the `scenarios` binary loads any built-in or
//! on-disk spec by name and hands it to [`run_spec`]. New experiments
//! are new spec files, not new binaries.
//!
//! `--quick` thins every grid axis to at most three points, caps
//! repetitions at one, and drops exact solvers (unless the job pins
//! `keep_exact_in_quick`), mirroring the historical smoke behavior.
//! Every run also writes a JSON report artifact with one entry per
//! cell. Typed rejections are split in two: *capability gaps*
//! (`UnsupportedGroupCount` / `GridTooLarge`) are expected outcomes a
//! spec may deliberately sweep into and do not trip `--strict`, while
//! hard errors (`UnknownSolver` / `InvalidParams`) always do.

use std::collections::BTreeMap;
use std::path::Path;

use serde::json::{obj, Error as JsonError, Value};
use serde::{FromJson, ToJson};

use fair_submod_core::engine::{ScenarioParams, SolverError, SolverRegistry};
use fair_submod_core::metrics::evaluate;
use fair_submod_datasets::tables::{format_groups, table1_row, table2_row};
use fair_submod_datasets::{
    adult_like, dblp_like, facebook_like, foursquare_like, pokec_like, rand_fl, rand_mc, seeds,
    AdultSize, City, FlDataset, GraphDataset, PokecAttr,
};
use fair_submod_influence::{monte_carlo_evaluate, DiffusionModel};

use crate::args::ExpArgs;
use crate::harness::{run_suite, CellOutcome, GridConfig};
use crate::report::{push_results, Table, RESULT_HEADERS};

/// A named, seed-deterministic dataset recipe.
#[derive(Clone, Debug, PartialEq)]
pub enum DatasetRecipe {
    /// The paper's RAND SBM graph (`c ∈ {2, 4}`).
    RandMc {
        /// Number of groups.
        c: usize,
        /// Number of nodes.
        n: usize,
        /// Offset added to the canonical RAND seed.
        seed_offset: u64,
    },
    /// Facebook stand-in graph (`c ∈ {2, 4}`).
    FacebookLike {
        /// Number of groups.
        c: usize,
    },
    /// DBLP stand-in graph (`c = 5`).
    DblpLike,
    /// Pokec stand-in graph; node count comes from `--pokec-nodes`.
    PokecLike {
        /// Group attribute.
        attr: PokecAttr,
    },
    /// The paper's RAND FL blobs (`c ∈ {2, 3}`).
    RandFl {
        /// Number of groups.
        c: usize,
        /// Offset added to the canonical FL seed.
        seed_offset: u64,
    },
    /// Adult stand-in point set.
    AdultLike {
        /// Size/attribute variant.
        variant: AdultSize,
    },
    /// FourSquare stand-in point set (`c = 1000` singleton groups).
    FoursquareLike {
        /// City variant.
        city: City,
    },
}

/// A materialized dataset: either a graph (MC/IM) or a point set (FL).
pub enum BuiltDataset {
    /// Graph substrate datasets.
    Graph(GraphDataset),
    /// Facility-location datasets.
    Points(FlDataset),
}

impl BuiltDataset {
    /// The dataset's display name.
    pub fn name(&self) -> &str {
        match self {
            BuiltDataset::Graph(d) => &d.name,
            BuiltDataset::Points(d) => &d.name,
        }
    }
}

impl DatasetRecipe {
    /// Whether this recipe produces a graph (MC/IM substrates) rather
    /// than a point set (FL substrate).
    pub fn is_graph(&self) -> bool {
        matches!(
            self,
            DatasetRecipe::RandMc { .. }
                | DatasetRecipe::FacebookLike { .. }
                | DatasetRecipe::DblpLike
                | DatasetRecipe::PokecLike { .. }
        )
    }

    /// The canonical seed of the built instance — RIS sampling and
    /// Monte-Carlo evaluation derive their streams from it.
    pub fn seed(&self) -> u64 {
        match self {
            DatasetRecipe::RandMc { seed_offset, .. } => seeds::RAND + seed_offset,
            DatasetRecipe::FacebookLike { .. } => seeds::FACEBOOK,
            DatasetRecipe::DblpLike => seeds::DBLP,
            DatasetRecipe::PokecLike { .. } => seeds::POKEC,
            DatasetRecipe::RandFl { seed_offset, .. } => seeds::FL + seed_offset,
            DatasetRecipe::AdultLike { variant } => match variant {
                AdultSize::SmallRace => seeds::FL + 2,
                AdultSize::Gender => seeds::FL + 3,
                AdultSize::Race => seeds::FL + 3,
            },
            DatasetRecipe::FoursquareLike { city } => match city {
                City::Nyc => seeds::FL + 4,
                City::Tky => seeds::FL + 5,
            },
        }
    }

    /// Materializes the dataset (`--pokec-nodes` sizes the Pokec
    /// stand-in).
    pub fn build(&self, args: &ExpArgs) -> BuiltDataset {
        match self {
            DatasetRecipe::RandMc { c, n, .. } => BuiltDataset::Graph(rand_mc(*c, *n, self.seed())),
            DatasetRecipe::FacebookLike { c } => {
                BuiltDataset::Graph(facebook_like(*c, self.seed()))
            }
            DatasetRecipe::DblpLike => BuiltDataset::Graph(dblp_like(self.seed())),
            DatasetRecipe::PokecLike { attr } => {
                BuiltDataset::Graph(pokec_like(args.pokec_nodes, *attr, self.seed()))
            }
            DatasetRecipe::RandFl { c, .. } => BuiltDataset::Points(rand_fl(*c, self.seed())),
            DatasetRecipe::AdultLike { variant } => {
                BuiltDataset::Points(adult_like(*variant, self.seed()))
            }
            DatasetRecipe::FoursquareLike { city } => {
                BuiltDataset::Points(foursquare_like(*city, self.seed()))
            }
        }
    }
}

impl ToJson for DatasetRecipe {
    fn to_json(&self) -> Value {
        match self {
            DatasetRecipe::RandMc { c, n, seed_offset } => obj([
                ("kind", Value::Str("rand_mc".into())),
                ("c", Value::Num(*c as f64)),
                ("n", Value::Num(*n as f64)),
                ("seed_offset", Value::Num(*seed_offset as f64)),
            ]),
            DatasetRecipe::FacebookLike { c } => obj([
                ("kind", Value::Str("facebook_like".into())),
                ("c", Value::Num(*c as f64)),
            ]),
            DatasetRecipe::DblpLike => obj([("kind", Value::Str("dblp_like".into()))]),
            DatasetRecipe::PokecLike { attr } => obj([
                ("kind", Value::Str("pokec_like".into())),
                (
                    "attr",
                    Value::Str(
                        match attr {
                            PokecAttr::Gender => "gender",
                            PokecAttr::Age => "age",
                        }
                        .into(),
                    ),
                ),
            ]),
            DatasetRecipe::RandFl { c, seed_offset } => obj([
                ("kind", Value::Str("rand_fl".into())),
                ("c", Value::Num(*c as f64)),
                ("seed_offset", Value::Num(*seed_offset as f64)),
            ]),
            DatasetRecipe::AdultLike { variant } => obj([
                ("kind", Value::Str("adult_like".into())),
                (
                    "variant",
                    Value::Str(
                        match variant {
                            AdultSize::SmallRace => "small_race",
                            AdultSize::Gender => "gender",
                            AdultSize::Race => "race",
                        }
                        .into(),
                    ),
                ),
            ]),
            DatasetRecipe::FoursquareLike { city } => obj([
                ("kind", Value::Str("foursquare_like".into())),
                (
                    "city",
                    Value::Str(
                        match city {
                            City::Nyc => "nyc",
                            City::Tky => "tky",
                        }
                        .into(),
                    ),
                ),
            ]),
        }
    }
}

impl FromJson for DatasetRecipe {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| JsonError::msg("dataset recipe needs a 'kind'"))?;
        let usize_field = |key: &str| -> Result<usize, JsonError> {
            value
                .get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| JsonError::msg(format!("recipe '{kind}' needs integer '{key}'")))
        };
        let offset = value
            .get("seed_offset")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        match kind {
            "rand_mc" => Ok(DatasetRecipe::RandMc {
                c: usize_field("c")?,
                n: usize_field("n")?,
                seed_offset: offset,
            }),
            "facebook_like" => Ok(DatasetRecipe::FacebookLike {
                c: usize_field("c")?,
            }),
            "dblp_like" => Ok(DatasetRecipe::DblpLike),
            "pokec_like" => {
                let attr = match value.get("attr").and_then(Value::as_str) {
                    Some("gender") => PokecAttr::Gender,
                    Some("age") => PokecAttr::Age,
                    other => {
                        return Err(JsonError::msg(format!(
                            "pokec_like attr must be 'gender' or 'age', got {other:?}"
                        )))
                    }
                };
                Ok(DatasetRecipe::PokecLike { attr })
            }
            "rand_fl" => Ok(DatasetRecipe::RandFl {
                c: usize_field("c")?,
                seed_offset: offset,
            }),
            "adult_like" => {
                let variant = match value.get("variant").and_then(Value::as_str) {
                    Some("small_race") => AdultSize::SmallRace,
                    Some("gender") => AdultSize::Gender,
                    Some("race") => AdultSize::Race,
                    other => {
                        return Err(JsonError::msg(format!(
                            "adult_like variant must be small_race/gender/race, got {other:?}"
                        )))
                    }
                };
                Ok(DatasetRecipe::AdultLike { variant })
            }
            "foursquare_like" => {
                let city = match value.get("city").and_then(Value::as_str) {
                    Some("nyc") => City::Nyc,
                    Some("tky") => City::Tky,
                    other => {
                        return Err(JsonError::msg(format!(
                            "foursquare_like city must be nyc/tky, got {other:?}"
                        )))
                    }
                };
                Ok(DatasetRecipe::FoursquareLike { city })
            }
            other => Err(JsonError::msg(format!("unknown dataset kind '{other}'"))),
        }
    }
}

/// Which oracle the grid runs on (and how solutions are evaluated).
#[derive(Clone, Debug, PartialEq)]
pub enum SubstrateSpec {
    /// Maximum coverage: dominating-set oracle, oracle-exact evaluation.
    Coverage,
    /// Influence maximization: RIS oracle for selection, Monte-Carlo
    /// forward simulation for evaluation.
    Influence {
        /// IC edge probability.
        p: f64,
    },
    /// Facility location: benefit-matrix oracle, oracle-exact
    /// evaluation.
    Facility,
}

impl ToJson for SubstrateSpec {
    fn to_json(&self) -> Value {
        match self {
            SubstrateSpec::Coverage => Value::Str("coverage".into()),
            SubstrateSpec::Facility => Value::Str("facility".into()),
            SubstrateSpec::Influence { p } => obj([("influence_p", Value::Num(*p))]),
        }
    }
}

impl FromJson for SubstrateSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Str(s) if s == "coverage" => Ok(SubstrateSpec::Coverage),
            Value::Str(s) if s == "facility" => Ok(SubstrateSpec::Facility),
            Value::Obj(_) => {
                let p = value
                    .get("influence_p")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| JsonError::msg("influence substrate needs 'influence_p'"))?;
                Ok(SubstrateSpec::Influence { p })
            }
            other => Err(JsonError::msg(format!("unknown substrate {other}"))),
        }
    }
}

/// One solver grid over one dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct GridJob {
    /// Dataset recipe.
    pub dataset: DatasetRecipe,
    /// Substrate (must match the recipe family).
    pub substrate: SubstrateSpec,
    /// Registry names of the solvers to run.
    pub solvers: Vec<String>,
    /// Cardinality axis.
    pub ks: Vec<usize>,
    /// Balance-factor axis.
    pub taus: Vec<f64>,
    /// Error-parameter axis.
    pub epsilons: Vec<f64>,
    /// Shard-count axis (GreeDi partitioning; other solvers ignore it).
    pub shards: Vec<usize>,
    /// Repetitions per cell.
    pub repetitions: usize,
    /// Suffix appended to the dataset name in tables (e.g. `" (MC)"`).
    pub label_suffix: String,
    /// Branch-and-bound node budget override.
    pub exact_node_limit: Option<u64>,
    /// Cap applied to `--mc-runs` for this job (slow IM datasets).
    pub mc_runs_cap: Option<usize>,
    /// Keep exact solvers in `--quick` runs (the smoke spec covers the
    /// whole registry on tiny instances).
    pub keep_exact_in_quick: bool,
}

impl GridJob {
    /// A single-dataset grid with the paper's defaults: `ε = 0.05`, one
    /// repetition, no overrides.
    pub fn new(dataset: DatasetRecipe, substrate: SubstrateSpec, solvers: &[&str]) -> Self {
        Self {
            dataset,
            substrate,
            solvers: solvers.iter().map(|s| s.to_string()).collect(),
            ks: vec![5],
            taus: vec![0.8],
            epsilons: vec![0.05],
            shards: vec![4],
            repetitions: 1,
            label_suffix: String::new(),
            exact_node_limit: None,
            mc_runs_cap: None,
            keep_exact_in_quick: false,
        }
    }

    /// Checks that the substrate matches the dataset family.
    pub fn validate(&self) -> Result<(), String> {
        let needs_graph = !matches!(self.substrate, SubstrateSpec::Facility);
        if needs_graph != self.dataset.is_graph() {
            return Err(format!(
                "substrate {:?} does not match dataset {:?}",
                self.substrate, self.dataset
            ));
        }
        if self.solvers.is_empty()
            || self.ks.is_empty()
            || self.taus.is_empty()
            || self.epsilons.is_empty()
            || self.shards.is_empty()
        {
            return Err(
                "grid job needs at least one solver, k, tau, epsilon, and shard count".into(),
            );
        }
        if self.shards.contains(&0) {
            return Err("shard counts must be >= 1".into());
        }
        Ok(())
    }
}

impl ToJson for GridJob {
    fn to_json(&self) -> Value {
        let mut pairs: Vec<(&'static str, Value)> = vec![
            ("dataset", self.dataset.to_json()),
            ("substrate", self.substrate.to_json()),
            (
                "solvers",
                Value::Arr(self.solvers.iter().map(|s| Value::Str(s.clone())).collect()),
            ),
            (
                "ks",
                Value::Arr(self.ks.iter().map(|&k| Value::Num(k as f64)).collect()),
            ),
            (
                "taus",
                Value::Arr(self.taus.iter().map(|&t| Value::Num(t)).collect()),
            ),
            (
                "epsilons",
                Value::Arr(self.epsilons.iter().map(|&e| Value::Num(e)).collect()),
            ),
            (
                "shards",
                Value::Arr(self.shards.iter().map(|&p| Value::Num(p as f64)).collect()),
            ),
            ("repetitions", Value::Num(self.repetitions as f64)),
        ];
        if !self.label_suffix.is_empty() {
            pairs.push(("label_suffix", Value::Str(self.label_suffix.clone())));
        }
        if let Some(limit) = self.exact_node_limit {
            pairs.push(("exact_node_limit", Value::Num(limit as f64)));
        }
        if let Some(cap) = self.mc_runs_cap {
            pairs.push(("mc_runs_cap", Value::Num(cap as f64)));
        }
        if self.keep_exact_in_quick {
            pairs.push(("keep_exact_in_quick", Value::Bool(true)));
        }
        obj(pairs)
    }
}

impl FromJson for GridJob {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let dataset = DatasetRecipe::from_json(
            value
                .get("dataset")
                .ok_or_else(|| JsonError::msg("grid job needs a dataset"))?,
        )?;
        let substrate = SubstrateSpec::from_json(
            value
                .get("substrate")
                .ok_or_else(|| JsonError::msg("grid job needs a substrate"))?,
        )?;
        let solvers = value
            .get("solvers")
            .and_then(Value::as_arr)
            .ok_or_else(|| JsonError::msg("grid job needs a solvers array"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| JsonError::msg("solvers must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let usize_arr = |key: &str| -> Result<Option<Vec<usize>>, JsonError> {
            match value.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_usize_vec()
                    .map(Some)
                    .ok_or_else(|| JsonError::msg(format!("'{key}' must be an array of integers"))),
            }
        };
        let f64_arr = |key: &str| -> Result<Option<Vec<f64>>, JsonError> {
            match value.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_f64_vec()
                    .map(Some)
                    .ok_or_else(|| JsonError::msg(format!("'{key}' must be an array of numbers"))),
            }
        };
        Ok(Self {
            dataset,
            substrate,
            solvers,
            ks: usize_arr("ks")?.unwrap_or_else(|| vec![5]),
            taus: f64_arr("taus")?.unwrap_or_else(|| vec![0.8]),
            epsilons: f64_arr("epsilons")?.unwrap_or_else(|| vec![0.05]),
            shards: usize_arr("shards")?.unwrap_or_else(|| vec![4]),
            repetitions: value
                .get("repetitions")
                .and_then(Value::as_usize)
                .unwrap_or(1),
            label_suffix: value
                .get("label_suffix")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            exact_node_limit: value.get("exact_node_limit").and_then(Value::as_u64),
            mc_runs_cap: value.get("mc_runs_cap").and_then(Value::as_usize),
            keep_exact_in_quick: value
                .get("keep_exact_in_quick")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        })
    }
}

/// One job of a scenario: a solver grid or a dataset statistics table.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// A solver grid.
    Grid(GridJob),
    /// Table-1-style statistics over graph datasets.
    GraphStats(Vec<DatasetRecipe>),
    /// Table-2-style statistics over FL datasets.
    FlStats(Vec<DatasetRecipe>),
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Value {
        match self {
            JobSpec::Grid(job) => obj([("grid", job.to_json())]),
            JobSpec::GraphStats(datasets) => obj([(
                "graph_stats",
                Value::Arr(datasets.iter().map(ToJson::to_json).collect()),
            )]),
            JobSpec::FlStats(datasets) => obj([(
                "fl_stats",
                Value::Arr(datasets.iter().map(ToJson::to_json).collect()),
            )]),
        }
    }
}

impl FromJson for JobSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        if let Some(grid) = value.get("grid") {
            return Ok(JobSpec::Grid(GridJob::from_json(grid)?));
        }
        let recipes = |v: &Value| -> Result<Vec<DatasetRecipe>, JsonError> {
            v.as_arr()
                .ok_or_else(|| JsonError::msg("stats job needs a dataset array"))?
                .iter()
                .map(DatasetRecipe::from_json)
                .collect()
        };
        if let Some(v) = value.get("graph_stats") {
            return Ok(JobSpec::GraphStats(recipes(v)?));
        }
        if let Some(v) = value.get("fl_stats") {
            return Ok(JobSpec::FlStats(recipes(v)?));
        }
        Err(JsonError::msg(
            "job must be one of 'grid', 'graph_stats', 'fl_stats'",
        ))
    }
}

/// A complete, serializable experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Spec name (CSV/report file stem, `--spec` key).
    pub name: String,
    /// Table title.
    pub title: String,
    /// The jobs, executed in order.
    pub jobs: Vec<JobSpec>,
}

impl ScenarioSpec {
    /// Checks every grid job for substrate/dataset mismatches.
    pub fn validate(&self) -> Result<(), String> {
        for job in &self.jobs {
            if let JobSpec::Grid(grid) = job {
                grid.validate()
                    .map_err(|e| format!("spec '{}': {e}", self.name))?;
            }
        }
        Ok(())
    }
}

impl ToJson for ScenarioSpec {
    fn to_json(&self) -> Value {
        obj([
            ("name", Value::Str(self.name.clone())),
            ("title", Value::Str(self.title.clone())),
            (
                "jobs",
                Value::Arr(self.jobs.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for ScenarioSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| JsonError::msg("spec needs a name"))?
            .to_string();
        let title = value
            .get("title")
            .and_then(Value::as_str)
            .unwrap_or(&name)
            .to_string();
        let jobs = value
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or_else(|| JsonError::msg("spec needs a jobs array"))?
            .iter()
            .map(JobSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { name, title, jobs })
    }
}

/// The built-in specs, one per paper artifact plus the CI smoke spec.
pub fn builtin_specs() -> &'static [(&'static str, &'static str)] {
    &[
        ("fig3", include_str!("../specs/fig3.json")),
        ("fig4", include_str!("../specs/fig4.json")),
        ("fig5", include_str!("../specs/fig5.json")),
        ("fig6", include_str!("../specs/fig6.json")),
        ("fig7", include_str!("../specs/fig7.json")),
        ("fig8", include_str!("../specs/fig8.json")),
        ("fig9", include_str!("../specs/fig9.json")),
        ("fig10", include_str!("../specs/fig10.json")),
        ("fig11", include_str!("../specs/fig11.json")),
        ("table1", include_str!("../specs/table1.json")),
        ("table2", include_str!("../specs/table2.json")),
        ("smoke", include_str!("../specs/smoke.json")),
    ]
}

/// Loads a spec by built-in name, falling back to a JSON file path.
pub fn load_spec(name_or_path: &str) -> Result<ScenarioSpec, String> {
    let text: String = match builtin_specs()
        .iter()
        .find(|(name, _)| *name == name_or_path)
    {
        Some((_, text)) => (*text).to_string(),
        None => {
            let path = Path::new(name_or_path);
            std::fs::read_to_string(path).map_err(|e| {
                format!("no built-in spec '{name_or_path}' and no readable file: {e}")
            })?
        }
    };
    let spec = ScenarioSpec::from_json_str(&text).map_err(|e| e.to_string())?;
    spec.validate()?;
    Ok(spec)
}

/// Counts of one scenario run, for strict/CI gating.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Spec name.
    pub name: String,
    /// Grid cells that produced a report.
    pub ok_cells: usize,
    /// Cells rejected for a *known* capability gap
    /// (`UnsupportedGroupCount` / `GridTooLarge`) — specs deliberately
    /// include these (e.g. SMSC on c ≠ 2) so the gap is recorded in the
    /// artifact; they are not failures.
    pub capability_gaps: usize,
    /// Cells that failed hard (`UnknownSolver` / `InvalidParams`):
    /// always a spec or registry bug.
    pub error_cells: usize,
    /// Successful cells whose solution came back empty.
    pub empty_solutions: usize,
    /// Stats rows emitted.
    pub stats_rows: usize,
    /// Path of the JSON report artifact.
    pub report_path: String,
}

impl RunSummary {
    /// Whether a `--strict` run should fail: nothing ran at all, a cell
    /// failed hard, or a solver returned an empty solution. Expected
    /// capability gaps do **not** trip strict mode — they are the
    /// documented behavior of specs that sweep SMSC/exact solvers over
    /// datasets beyond their reach.
    pub fn strict_failure(&self) -> bool {
        (self.ok_cells == 0 && self.stats_rows == 0)
            || self.error_cells > 0
            || self.empty_solutions > 0
    }
}

/// Thins a grid axis to at most three points (first, middle, last) for
/// `--quick` runs.
fn thin<T: Clone>(xs: &[T]) -> Vec<T> {
    if xs.len() <= 3 {
        return xs.to_vec();
    }
    vec![
        xs[0].clone(),
        xs[xs.len() / 2].clone(),
        xs[xs.len() - 1].clone(),
    ]
}

/// Executes one spec end to end: builds datasets, drives the solver
/// registry over every grid, prints/exports the tables, and writes the
/// JSON report artifact.
pub fn run_spec(spec: &ScenarioSpec, args: &ExpArgs) -> Result<RunSummary, String> {
    spec.validate()?;
    let registry = SolverRegistry::default();
    // A typo'd `--solvers` filter would silently empty every grid job
    // and exit 0; unknown names are a hard error instead.
    if let Some(filter) = &args.solvers {
        let unknown: Vec<&str> = filter
            .iter()
            .filter(|name| registry.get(name).is_none())
            .map(String::as_str)
            .collect();
        if !unknown.is_empty() {
            return Err(format!(
                "--solvers names not in the registry: {unknown:?} (known: {:?})",
                registry.names()
            ));
        }
    }
    let mut summary = RunSummary {
        name: spec.name.clone(),
        ..RunSummary::default()
    };
    let mut grid_table = Table::new(&spec.title, RESULT_HEADERS);
    let mut stats_tables: Vec<Table> = Vec::new();
    let mut report_cells: Vec<Value> = Vec::new();

    for job in &spec.jobs {
        match job {
            JobSpec::Grid(job) => {
                let grid = grid_config_for(job, &registry, args);
                if grid.solvers.is_empty() {
                    // A `--solvers` filter (or `--quick` exact-solver
                    // drop) can empty a job's solver list; skip the job
                    // instead of failing the whole spec on an empty axis.
                    eprintln!(
                        "[{}] skipping a grid job: no solvers left after filtering",
                        spec.name
                    );
                    continue;
                }
                let built = job.dataset.build(args);
                let label = format!("{}{}", built.name(), job.label_suffix);
                eprintln!("[{}] {} ...", spec.name, label);
                let results = run_grid_job(job, &built, &registry, &grid, args)?;
                for cell in &results {
                    match &cell.outcome {
                        Ok(report) => {
                            summary.ok_cells += 1;
                            if report.items.is_empty() {
                                summary.empty_solutions += 1;
                            }
                        }
                        Err(
                            SolverError::UnsupportedGroupCount { .. }
                            | SolverError::GridTooLarge { .. },
                        ) => summary.capability_gaps += 1,
                        Err(_) => summary.error_cells += 1,
                    }
                    report_cells.push(cell_to_json(&label, cell));
                }
                push_results(&mut grid_table, &label, &results);
            }
            JobSpec::GraphStats(recipes) => {
                let mut table = Table::new(&spec.title, &["dataset", "n (= m)", "|E|", "groups"]);
                for recipe in recipes {
                    let BuiltDataset::Graph(dataset) = recipe.build(args) else {
                        return Err(format!("graph_stats got non-graph recipe {recipe:?}"));
                    };
                    let row = table1_row(&dataset);
                    table.push(vec![
                        row.dataset,
                        row.n.to_string(),
                        row.edges.to_string(),
                        format_groups(&row.groups),
                    ]);
                }
                summary.stats_rows += table.len();
                stats_tables.push(table);
            }
            JobSpec::FlStats(recipes) => {
                let mut table = Table::new(&spec.title, &["dataset", "n", "m", "d", "groups"]);
                for recipe in recipes {
                    let BuiltDataset::Points(dataset) = recipe.build(args) else {
                        return Err(format!("fl_stats got non-FL recipe {recipe:?}"));
                    };
                    let row = table2_row(&dataset);
                    table.push(vec![
                        row.dataset,
                        row.n.to_string(),
                        row.m.to_string(),
                        row.d.to_string(),
                        format_groups(&row.groups),
                    ]);
                }
                summary.stats_rows += table.len();
                stats_tables.push(table);
            }
        }
    }

    if !grid_table.is_empty() {
        grid_table.print();
        grid_table
            .write_csv(&args.out_dir, &spec.name)
            .map_err(|e| format!("write csv: {e}"))?;
    }
    for (i, table) in stats_tables.iter().enumerate() {
        table.print();
        let name = if stats_tables.len() == 1 && grid_table.is_empty() {
            spec.name.clone()
        } else {
            format!("{}_stats{}", spec.name, i + 1)
        };
        table
            .write_csv(&args.out_dir, &name)
            .map_err(|e| format!("write csv: {e}"))?;
    }

    // JSON report artifact: one entry per cell, typed errors included.
    let report = obj([
        ("spec", Value::Str(spec.name.clone())),
        ("quick", Value::Bool(args.quick)),
        ("ok_cells", Value::Num(summary.ok_cells as f64)),
        (
            "capability_gaps",
            Value::Num(summary.capability_gaps as f64),
        ),
        ("error_cells", Value::Num(summary.error_cells as f64)),
        (
            "empty_solutions",
            Value::Num(summary.empty_solutions as f64),
        ),
        ("cells", Value::Arr(report_cells)),
    ]);
    let report_path = args
        .report
        .clone()
        .unwrap_or_else(|| format!("{}/{}_report.json", args.out_dir, spec.name));
    if let Some(parent) = Path::new(&report_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("create report dir: {e}"))?;
        }
    }
    std::fs::write(&report_path, report.to_pretty_string())
        .map_err(|e| format!("write report: {e}"))?;
    eprintln!(
        "[{}] {} ok / {} capability-gap / {} error cells; report at {}",
        spec.name, summary.ok_cells, summary.capability_gaps, summary.error_cells, report_path
    );
    summary.report_path = report_path;
    Ok(summary)
}

fn grid_config_for(job: &GridJob, registry: &SolverRegistry, args: &ExpArgs) -> GridConfig {
    let mut solvers: Vec<String> = if args.quick && !job.keep_exact_in_quick {
        job.solvers
            .iter()
            .filter(|name| registry.get(name).is_none_or(|s| !s.capabilities().exact))
            .cloned()
            .collect()
    } else {
        job.solvers.clone()
    };
    // `--solvers a,b` reruns the spec for a subset of registry entries
    // without editing the JSON (job order preserved).
    if let Some(filter) = &args.solvers {
        solvers.retain(|name| filter.iter().any(|f| f == name));
    }
    let mut base = ScenarioParams::new(job.ks[0], job.taus[0]);
    if let Some(limit) = job.exact_node_limit {
        base.exact_node_limit = limit;
    }
    GridConfig {
        solvers,
        ks: if args.quick {
            thin(&job.ks)
        } else {
            job.ks.clone()
        },
        taus: if args.quick {
            thin(&job.taus)
        } else {
            job.taus.clone()
        },
        epsilons: if args.quick {
            thin(&job.epsilons)
        } else {
            job.epsilons.clone()
        },
        shards: if args.quick {
            thin(&job.shards)
        } else {
            job.shards.clone()
        },
        repetitions: if args.quick { 1 } else { job.repetitions },
        warm_sweeps: !args.cold,
        base,
    }
}

fn run_grid_job(
    job: &GridJob,
    built: &BuiltDataset,
    registry: &SolverRegistry,
    grid: &GridConfig,
    args: &ExpArgs,
) -> Result<Vec<CellOutcome>, String> {
    let grid_err = |e: crate::harness::GridError| format!("grid expansion: {e}");
    match (&job.substrate, built) {
        (SubstrateSpec::Coverage, BuiltDataset::Graph(dataset)) => {
            let oracle = dataset.coverage_oracle();
            run_suite(&oracle, &|items| evaluate(&oracle, items), registry, grid).map_err(grid_err)
        }
        (SubstrateSpec::Influence { p }, BuiltDataset::Graph(dataset)) => {
            let model = DiffusionModel::ic(*p);
            let seed = job.dataset.seed();
            let oracle = dataset.ris_oracle(model, args.rr_sets, seed ^ 0x11);
            let mc_runs = job
                .mc_runs_cap
                .map_or(args.mc_runs, |cap| args.mc_runs.min(cap));
            let evaluator = |items: &[u32]| {
                monte_carlo_evaluate(
                    &dataset.graph,
                    model,
                    &dataset.groups,
                    items,
                    mc_runs,
                    seed ^ 0x22,
                )
            };
            run_suite(&oracle, &evaluator, registry, grid).map_err(grid_err)
        }
        (SubstrateSpec::Facility, BuiltDataset::Points(dataset)) => {
            let oracle = dataset.oracle();
            run_suite(&oracle, &|items| evaluate(&oracle, items), registry, grid).map_err(grid_err)
        }
        (substrate, _) => Err(format!(
            "substrate {substrate:?} does not match dataset {:?}",
            job.dataset
        )),
    }
}

/// Serializes one executed grid cell — report or typed rejection — as a
/// JSON object, tagging it with the dataset label. Shared by the
/// scenario report artifacts and the solve service's `/batch` endpoint.
pub fn cell_to_json(dataset: &str, cell: &CellOutcome) -> Value {
    let mut pairs: Vec<(&'static str, Value)> = vec![
        ("dataset", Value::Str(dataset.to_string())),
        ("solver", Value::Str(cell.solver.clone())),
        ("k", Value::Num(cell.k as f64)),
        ("tau", Value::Num(cell.tau)),
        ("epsilon", Value::Num(cell.epsilon)),
        ("shards", Value::Num(cell.shards as f64)),
        ("rep", Value::Num(cell.rep as f64)),
        ("warm", Value::Bool(cell.warm)),
    ];
    match &cell.outcome {
        Ok(report) => {
            pairs.push(("status", Value::Str("ok".into())));
            pairs.push(("report", report.to_json()));
        }
        Err(
            error @ (SolverError::UnsupportedGroupCount { .. } | SolverError::GridTooLarge { .. }),
        ) => {
            pairs.push(("status", Value::Str("rejected".into())));
            pairs.push(("error", error.to_json()));
        }
        Err(error) => {
            pairs.push(("status", Value::Str("error".into())));
            pairs.push(("error", error.to_json()));
        }
    }
    obj(pairs)
}

/// The grid-reuse check (`scenarios diff WARM COLD`): the report of
/// a warm run and the report of a `--cold` run of the same spec must
/// expand to the same cells, keyed by `(dataset, solver, k, τ, rep)`,
/// and agree on every cell's `(status, items, objective,
/// oracle_calls)`. Warm k-axis sweeps are an execution strategy, not
/// an approximation, so any difference is a bug. At least one cell of
/// the warm report must have ridden the warm path, or the spec's
/// k-axis never exercised it. Returns `(cells, warm cells)`.
///
/// Two jobs of one spec can share a key (the smoke spec runs coverage
/// and influence on the same dataset), so a key's `i`-th cell in one
/// report is paired with its `i`-th cell in the other: every cell is
/// compared, none is shadowed by a later one.
pub fn diff_warm_cold(warm: &Value, cold: &Value) -> Result<(usize, usize), String> {
    let warm_cells = report_cells(warm, "warm")?;
    let cold_cells = report_cells(cold, "cold")?;
    if !warm_cells.keys().eq(cold_cells.keys()) {
        return Err("warm/cold grids expanded differently".into());
    }
    let diffs: Vec<&str> = warm_cells
        .iter()
        .filter(|(key, outcome)| cold_cells[*key] != **outcome)
        .map(|(key, _)| key.as_str())
        .collect();
    if !diffs.is_empty() {
        return Err(format!("warm sweep diverged from cold on {diffs:?}"));
    }
    let warmed = warm
        .get("cells")
        .and_then(Value::as_arr)
        .map_or(0, |cells| {
            cells
                .iter()
                .filter(|cell| cell.get("warm").and_then(Value::as_bool) == Some(true))
                .count()
        });
    if warmed == 0 {
        return Err("no cell rode the warm path; the spec's k-axis must be multi-k".into());
    }
    Ok((warm_cells.len(), warmed))
}

/// A report's cells as `(dataset, solver, k, τ, rep, occurrence)` key
/// (compact JSON) → `[status, items, objective, oracle_calls]`, where
/// `occurrence` counts earlier cells with the same five fields; a cell
/// without a report (a typed rejection) has null outcome fields.
fn report_cells(report: &Value, side: &str) -> Result<BTreeMap<String, [Value; 4]>, String> {
    let cells = report
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{side} report has no 'cells' array"))?;
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for cell in cells {
        let field = |name: &str| {
            cell.get(name)
                .cloned()
                .ok_or_else(|| format!("{side} report: a cell has no '{name}'"))
        };
        let mut key = ["dataset", "solver", "k", "tau", "rep"]
            .into_iter()
            .map(field)
            .collect::<Result<Vec<_>, _>>()?;
        let occurrence = seen
            .entry(Value::Arr(key.clone()).to_compact_string())
            .or_insert(0);
        key.push(Value::Num(*occurrence as f64));
        *occurrence += 1;
        let solved = |name: &str| {
            cell.get("report")
                .and_then(|r| r.get(name))
                .cloned()
                .unwrap_or(Value::Null)
        };
        let outcome = [
            field("status")?,
            solved("items"),
            solved("objective"),
            solved("oracle_calls"),
        ];
        out.insert(Value::Arr(key).to_compact_string(), outcome);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_specs_parse_and_validate() {
        for (name, text) in builtin_specs() {
            let spec =
                ScenarioSpec::from_json_str(text).unwrap_or_else(|e| panic!("spec {name}: {e}"));
            assert_eq!(&spec.name, name);
            spec.validate()
                .unwrap_or_else(|e| panic!("spec {name}: {e}"));
            assert!(!spec.jobs.is_empty(), "spec {name} has no jobs");
        }
    }

    #[test]
    fn spec_round_trips_through_the_serde_shim() {
        let spec = load_spec("fig3").unwrap();
        let json = spec.to_json_pretty();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        assert_eq!(back, spec);
        // And the smoke spec, which exercises the optional fields.
        let smoke = load_spec("smoke").unwrap();
        let back = ScenarioSpec::from_json_str(&smoke.to_json_pretty()).unwrap();
        assert_eq!(back, smoke);
    }

    #[test]
    fn mismatched_substrate_is_rejected() {
        let job = GridJob::new(
            DatasetRecipe::RandFl {
                c: 2,
                seed_offset: 0,
            },
            SubstrateSpec::Coverage,
            &["Greedy"],
        );
        assert!(job.validate().is_err());
        let spec = ScenarioSpec {
            name: "bad".into(),
            title: "bad".into(),
            jobs: vec![JobSpec::Grid(job)],
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn empty_grid_axes_are_rejected() {
        let good = GridJob::new(
            DatasetRecipe::RandMc {
                c: 2,
                n: 60,
                seed_offset: 0,
            },
            SubstrateSpec::Coverage,
            &["Greedy"],
        );
        assert!(good.validate().is_ok());
        // An empty axis would silently expand to zero cells — rejected.
        let mut bad = good.clone();
        bad.epsilons.clear();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.taus.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn thin_keeps_first_middle_last() {
        let xs: Vec<usize> = (1..=10).map(|i| i * 5).collect();
        assert_eq!(thin(&xs), vec![5, 30, 50]);
        let short = vec![1, 2];
        assert_eq!(thin(&short), short);
    }

    #[test]
    fn smoke_spec_runs_end_to_end_in_quick_mode() {
        let dir = std::env::temp_dir().join("fair-submod-smoke-test");
        let mut args = ExpArgs::from_iter(["--quick".to_string()]);
        args.out_dir = dir.to_str().unwrap().to_string();
        let spec = load_spec("smoke").unwrap();
        let summary = run_spec(&spec, &args).unwrap();
        assert!(summary.ok_cells > 0);
        assert_eq!(summary.error_cells, 0, "smoke rejected cells");
        assert_eq!(summary.empty_solutions, 0, "smoke produced empty solutions");
        assert!(!summary.strict_failure());
        // The JSON report artifact exists and parses.
        let text = std::fs::read_to_string(&summary.report_path).unwrap();
        let report = serde::json::parse(&text).unwrap();
        assert_eq!(report.get("spec").and_then(Value::as_str), Some("smoke"));
        assert!(report.get("cells").and_then(Value::as_arr).unwrap().len() > 0);
    }

    #[test]
    fn warm_cold_diff_catches_divergence_and_unwarmed_reports() {
        let report = |items: &str, warm: bool| {
            serde::json::parse(&format!(
                r#"{{"cells": [
                    {{"dataset": "D", "solver": "Greedy", "k": 2, "tau": 0.5, "rep": 0,
                      "warm": false, "status": "ok",
                      "report": {{"items": [0, 3], "objective": 0.25, "oracle_calls": 9}}}},
                    {{"dataset": "D", "solver": "Greedy", "k": 3, "tau": 0.5, "rep": 0,
                      "warm": {warm}, "status": "ok",
                      "report": {{"items": {items}, "objective": 0.5, "oracle_calls": 12}}}},
                    {{"dataset": "D", "solver": "SMSC", "k": 3, "tau": 0.5, "rep": 0,
                      "warm": false, "status": "rejected", "error": {{}}}},
                    {{"dataset": "D", "solver": "Greedy", "k": 3, "tau": 0.5, "rep": 0,
                      "warm": false, "status": "ok",
                      "report": {{"items": [0, 3, 7], "objective": 0.5, "oracle_calls": 12}}}}
                ]}}"#
            ))
            .unwrap()
        };
        let cold = report("[0, 3, 7]", false);
        assert_eq!(
            diff_warm_cold(&report("[0, 3, 7]", true), &cold),
            Ok((4, 1))
        );
        // The edited cell shares its key with the report's last cell;
        // it is compared all the same.
        let diverged = diff_warm_cold(&report("[0, 3, 8]", true), &cold).unwrap_err();
        assert!(diverged.contains("diverged"), "{diverged}");
        let unwarmed = diff_warm_cold(&report("[0, 3, 7]", false), &cold).unwrap_err();
        assert!(unwarmed.contains("warm path"), "{unwarmed}");
        let Value::Obj(mut pairs) = report("[0, 3, 7]", true) else {
            unreachable!()
        };
        if let Value::Arr(cells) = &mut pairs[0].1 {
            cells.pop();
        }
        let fewer = diff_warm_cold(&Value::Obj(pairs), &cold).unwrap_err();
        assert!(fewer.contains("expanded differently"), "{fewer}");
    }

    #[test]
    fn unknown_spec_is_an_error() {
        assert!(load_spec("not-a-spec").is_err());
    }
}
