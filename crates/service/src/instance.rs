//! A cached solve instance: one materialized dataset recipe with its
//! substrate oracle, canonically keyed so identical requests share one
//! build.
//!
//! Materializing a [`DatasetRecipe`] and constructing the oracle on top
//! (dominating-set incidence, RR-set sampling, benefit matrices) is by
//! far the most expensive part of answering a solve request — often
//! orders of magnitude more work than the greedy selection itself. The
//! service therefore builds each `(recipe, substrate, build knobs)`
//! combination once, identified by the FNV-1a hash of its canonical
//! JSON ([`canonical_key`]), and answers every later request against
//! the shared, immutable [`Instance`].
//!
//! Each instance also owns a [`StageMemo`]: the τ-independent stages of
//! the BSM schemes (greedy on `f`, Saturate on `g`) are computed once
//! per stage config and reused by every later `/solve` and `/batch` on
//! the instance. The memo counts in [`Instance::approx_bytes`] and is
//! dropped with the instance.

use std::sync::Arc;
use std::time::Instant;

use serde::json::{obj, Value};
use serde::ToJson;

use fair_submod_bench::args::ExpArgs;
use fair_submod_bench::scenario::{BuiltDataset, DatasetRecipe, SubstrateSpec};
use fair_submod_core::engine::{
    DynUtilitySystem, ErasedSystem, MemoSystem, SolverError, StageMemo,
};
use fair_submod_core::items::ItemId;
use fair_submod_core::metrics::{evaluate, Evaluation};
use fair_submod_coverage::CoverageOracle;
use fair_submod_facility::FacilityOracle;
use fair_submod_influence::oracle::RisOracle;
use fair_submod_influence::{monte_carlo_evaluate, DiffusionModel};

/// Build-time knobs that shape a materialized instance (and therefore
/// participate in its cache key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceConfig {
    /// RR sets for influence oracles.
    pub rr_sets: usize,
    /// Monte-Carlo runs per influence evaluation.
    pub mc_runs: usize,
    /// Node count of the Pokec stand-in.
    pub pokec_nodes: usize,
}

impl Default for InstanceConfig {
    /// The experiment harness defaults (see [`ExpArgs`]).
    fn default() -> Self {
        let args = ExpArgs::default();
        Self {
            rr_sets: args.rr_sets,
            mc_runs: args.mc_runs,
            pokec_nodes: args.pokec_nodes,
        }
    }
}

impl InstanceConfig {
    /// Smoke-sized knobs, mirroring the harness `--quick` caps.
    pub fn quick(mut self) -> Self {
        self.pokec_nodes = self.pokec_nodes.min(20_000);
        self.mc_runs = self.mc_runs.min(1_000);
        self.rr_sets = self.rr_sets.min(5_000);
        self
    }

    fn exp_args(&self) -> ExpArgs {
        ExpArgs {
            pokec_nodes: self.pokec_nodes,
            mc_runs: self.mc_runs,
            rr_sets: self.rr_sets,
            ..ExpArgs::default()
        }
    }
}

/// The canonical identity of an instance: its compact canonical JSON
/// and the 64-bit FNV-1a hash of that JSON (hex), which is the cache
/// key. Two requests share an instance iff their canonical JSON —
/// recipe, substrate, and the build knobs — is byte-identical.
pub fn canonical_key(
    recipe: &DatasetRecipe,
    substrate: &SubstrateSpec,
    cfg: &InstanceConfig,
) -> (String, String) {
    let canonical = obj([
        ("dataset", recipe.to_json()),
        ("substrate", substrate.to_json()),
        ("rr_sets", Value::Num(cfg.rr_sets as f64)),
        ("mc_runs", Value::Num(cfg.mc_runs as f64)),
        ("pokec_nodes", Value::Num(cfg.pokec_nodes as f64)),
    ])
    .to_compact_string();
    (format!("{:016x}", fnv1a64(canonical.as_bytes())), canonical)
}

/// The canonical identity of one shard of a sharded solve: the central
/// instance's canonical JSON suffixed with the shard coordinates and
/// the partition seed, hashed the same way as [`canonical_key`]. Two
/// requests share a shard oracle iff they share the central instance
/// *and* ask for the same `(shard, num_shards, seed)` cut — a different
/// shard count or partition seed selects different member columns, so
/// it must (and does) key a different cache slot.
pub fn shard_canonical_key(
    central_canonical: &str,
    shard: usize,
    num_shards: usize,
    seed: u64,
) -> (String, String) {
    let canonical = format!("{central_canonical}#shard={shard}/{num_shards}@seed={seed}");
    (format!("{:016x}", fnv1a64(canonical.as_bytes())), canonical)
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Upper bound on client-requested `rand_mc` node counts. The SBM's
/// expected edge count grows as `p·n²` (`p_in = 0.1`), so an unbounded
/// `n` would let one request allocate the daemon to death — the
/// paper's own RAND sizes are 500/100, so 20k leaves two orders of
/// magnitude of headroom while keeping the worst-case build bounded.
pub const MAX_RAND_MC_NODES: usize = 20_000;

/// Rejects recipe/substrate combinations the builders would panic on
/// (or whose size would exhaust memory), so client input can never
/// take down the daemon.
pub fn validate_request(recipe: &DatasetRecipe, substrate: &SubstrateSpec) -> Result<(), String> {
    let needs_graph = !matches!(substrate, SubstrateSpec::Facility);
    if needs_graph != recipe.is_graph() {
        return Err(format!(
            "substrate {substrate:?} does not match dataset {recipe:?}"
        ));
    }
    match recipe {
        DatasetRecipe::RandMc { c, n, .. } => {
            if ![2, 4].contains(c) {
                return Err(format!("rand_mc is defined for c in {{2, 4}} (got {c})"));
            }
            if *n < 4 * c {
                return Err(format!("rand_mc needs n >= 4c (got n = {n}, c = {c})"));
            }
            if *n > MAX_RAND_MC_NODES {
                return Err(format!(
                    "rand_mc n is capped at {MAX_RAND_MC_NODES} for the service (got {n})"
                ));
            }
        }
        DatasetRecipe::FacebookLike { c } => {
            if ![2, 4].contains(c) {
                return Err(format!(
                    "facebook_like is partitioned into 2 or 4 groups (got {c})"
                ));
            }
        }
        DatasetRecipe::RandFl { c, .. } => {
            if ![2, 3].contains(c) {
                return Err(format!("rand_fl is defined for c in {{2, 3}} (got {c})"));
            }
        }
        _ => {}
    }
    if let SubstrateSpec::Influence { p } = substrate {
        if !(0.0..=1.0).contains(p) {
            return Err(format!("influence_p must be in [0, 1] (got {p})"));
        }
    }
    Ok(())
}

enum InstanceOracle {
    Coverage(CoverageOracle),
    Influence {
        oracle: RisOracle,
        model: DiffusionModel,
    },
    Facility(FacilityOracle),
    /// A shard-restricted view built by [`Instance::build_shard`]: the
    /// substrate's own owned restriction (same concrete oracle type,
    /// local ids), type-erased because the service only ever hands it
    /// to a [`fair_submod_core::engine::ShardedInstance`].
    Shard(Arc<dyn DynUtilitySystem>),
}

/// One materialized, immutable solve instance: the built dataset, its
/// substrate oracle, and everything needed to re-evaluate solutions
/// (Monte-Carlo forward simulation for influence, oracle-exact
/// otherwise). Shareable across threads — solvers only take `&self`.
pub struct Instance {
    /// The recipe this instance was built from.
    pub recipe: DatasetRecipe,
    /// The substrate the oracle serves.
    pub substrate: SubstrateSpec,
    /// Human-readable dataset name.
    pub dataset_name: String,
    /// Ground-set size `n`.
    pub num_items: usize,
    /// User count `m`.
    pub num_users: usize,
    /// Group count `c`.
    pub num_groups: usize,
    /// Wall-clock seconds spent materializing dataset + oracle.
    pub build_seconds: f64,
    dataset: Arc<BuiltDataset>,
    oracle: InstanceOracle,
    memo: StageMemo,
    mc_runs: usize,
    seed: u64,
}

impl Instance {
    /// Materializes the dataset and oracle. Call
    /// [`validate_request`] first — this panics on combinations the
    /// builders reject.
    pub fn build(recipe: DatasetRecipe, substrate: SubstrateSpec, cfg: &InstanceConfig) -> Self {
        let start = Instant::now();
        let args = cfg.exp_args();
        let dataset = recipe.build(&args);
        let seed = recipe.seed();
        let oracle = match (&substrate, &dataset) {
            (SubstrateSpec::Coverage, BuiltDataset::Graph(d)) => {
                InstanceOracle::Coverage(d.coverage_oracle())
            }
            (SubstrateSpec::Influence { p }, BuiltDataset::Graph(d)) => {
                let model = DiffusionModel::ic(*p);
                InstanceOracle::Influence {
                    oracle: d.ris_oracle(model, cfg.rr_sets, seed ^ 0x11),
                    model,
                }
            }
            (SubstrateSpec::Facility, BuiltDataset::Points(d)) => {
                InstanceOracle::Facility(d.oracle())
            }
            _ => panic!("validate_request admits only matching substrate/dataset pairs"),
        };
        let system: &dyn DynUtilitySystem = match &oracle {
            InstanceOracle::Coverage(o) => o,
            InstanceOracle::Influence { oracle, .. } => oracle,
            InstanceOracle::Facility(o) => o,
            InstanceOracle::Shard(_) => unreachable!("build never produces shard oracles"),
        };
        let (num_items, num_users, num_groups) = (
            system.dyn_num_items(),
            system.dyn_num_users(),
            system.dyn_num_groups(),
        );
        Self {
            recipe,
            substrate,
            dataset_name: dataset.name().to_string(),
            num_items,
            num_users,
            num_groups,
            build_seconds: start.elapsed().as_secs_f64(),
            dataset: Arc::new(dataset),
            oracle,
            memo: StageMemo::new(),
            mc_runs: cfg.mc_runs,
            seed,
        }
    }

    /// The substrate's owned restriction to an ascending member list —
    /// the same concrete oracle type over local ids, bitwise equal to
    /// the central oracle on the members' rows (see DESIGN.md §8).
    /// Serves both the per-shard builds and the GreeDi merge phase.
    /// Malformed member lists (empty, unsorted, out of range) are typed
    /// [`SolverError::InvalidParams`] rejections from the substrate.
    pub fn restrict_system(
        &self,
        members: &[ItemId],
    ) -> Result<Arc<dyn DynUtilitySystem>, SolverError> {
        match &self.oracle {
            InstanceOracle::Coverage(o) => Ok(Arc::new(o.restrict(members)?)),
            InstanceOracle::Influence { oracle, .. } => Ok(Arc::new(oracle.restrict(members)?)),
            InstanceOracle::Facility(o) => Ok(Arc::new(o.restrict(members)?)),
            InstanceOracle::Shard(_) => Err(SolverError::InvalidParams {
                solver: "ShardedInstance".into(),
                message: "shard instances cannot be restricted further".into(),
            }),
        }
    }

    /// One shard of `central`: shard `shard` of `num_shards` holding
    /// exactly `members` (ascending global ids), sharing the central
    /// instance's dataset through its `Arc`. The restriction itself is
    /// the substrate-owned one, so shard gains are bitwise equal to the
    /// central oracle's on the shard's items.
    pub fn build_shard(
        central: &Instance,
        shard: usize,
        num_shards: usize,
        members: &[ItemId],
    ) -> Result<Self, SolverError> {
        let start = Instant::now();
        let system = central.restrict_system(members)?;
        let num_users = system.dyn_num_users();
        let num_groups = system.dyn_num_groups();
        Ok(Self {
            recipe: central.recipe.clone(),
            substrate: central.substrate.clone(),
            dataset_name: format!("{}[shard {shard}/{num_shards}]", central.dataset_name),
            num_items: members.len(),
            num_users,
            num_groups,
            build_seconds: start.elapsed().as_secs_f64(),
            dataset: Arc::clone(&central.dataset),
            oracle: InstanceOracle::Shard(system),
            memo: StageMemo::new(),
            mc_runs: central.mc_runs,
            seed: central.seed,
        })
    }

    /// The type-erased shard oracle, when this instance is a shard view
    /// built by [`Instance::build_shard`].
    pub fn shard_system(&self) -> Option<Arc<dyn DynUtilitySystem>> {
        match &self.oracle {
            InstanceOracle::Shard(system) => Some(Arc::clone(system)),
            _ => None,
        }
    }

    /// The type-erased oracle solvers run on.
    pub fn system(&self) -> &dyn DynUtilitySystem {
        match &self.oracle {
            InstanceOracle::Coverage(o) => o,
            InstanceOracle::Influence { oracle, .. } => oracle,
            InstanceOracle::Facility(o) => o,
            InstanceOracle::Shard(system) => system.as_ref(),
        }
    }

    /// The oracle paired with the instance's stage memo: what `/solve`
    /// and `/batch` solve on, so repeated `(k, τ)` queries share the
    /// τ-independent BSM stages. Reports are bit-identical to solving on
    /// [`Instance::system`].
    pub(crate) fn memo_system(&self) -> MemoSystem<'_> {
        MemoSystem::new(self.system(), &self.memo)
    }

    /// Re-evaluates a solution the way the experiment harness does:
    /// oracle-exact for coverage/facility, Monte-Carlo forward
    /// simulation (with the instance's canonical seed) for influence.
    pub fn evaluate(&self, items: &[ItemId]) -> Evaluation {
        self.evaluate_capped(items, None)
    }

    /// [`Instance::evaluate`] with an optional cap on the Monte-Carlo
    /// run count, mirroring the scenario runner's `mc_runs_cap`
    /// grid-job field (no effect on oracle-exact substrates).
    pub fn evaluate_capped(&self, items: &[ItemId], mc_runs_cap: Option<usize>) -> Evaluation {
        match (&self.oracle, &*self.dataset) {
            (InstanceOracle::Coverage(o), _) => evaluate(o, items),
            (InstanceOracle::Facility(o), _) => evaluate(o, items),
            // Shard views evaluate oracle-exactly over local ids; the
            // service re-evaluates final solutions on the central
            // instance, so this only serves diagnostics.
            (InstanceOracle::Shard(system), _) => evaluate(&ErasedSystem(system.as_ref()), items),
            (InstanceOracle::Influence { model, .. }, BuiltDataset::Graph(d)) => {
                let mc_runs = mc_runs_cap.map_or(self.mc_runs, |cap| self.mc_runs.min(cap));
                monte_carlo_evaluate(
                    &d.graph,
                    *model,
                    &d.groups,
                    items,
                    mc_runs,
                    self.seed ^ 0x22,
                )
            }
            _ => unreachable!("influence oracles are only built over graphs"),
        }
    }

    /// Advisory resident footprint of the instance's oracle plus its
    /// stage memo, in bytes — what the byte-budgeted store evicts
    /// against (DESIGN.md §11). Purely advisory: 0 means the substrate
    /// does not report one and the memo is empty.
    pub fn approx_bytes(&self) -> usize {
        self.system().dyn_approx_bytes() + self.memo.approx_bytes()
    }

    /// The `/instances` summary row for this instance.
    pub fn summary_json(&self) -> Value {
        obj([
            ("dataset", Value::Str(self.dataset_name.clone())),
            ("substrate", self.substrate.to_json()),
            ("num_items", Value::Num(self.num_items as f64)),
            ("num_users", Value::Num(self.num_users as f64)),
            ("num_groups", Value::Num(self.num_groups as f64)),
            ("build_seconds", Value::Num(self.build_seconds)),
            ("approx_bytes", Value::Num(self.approx_bytes() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_recipe() -> DatasetRecipe {
        DatasetRecipe::RandMc {
            c: 2,
            n: 60,
            seed_offset: 0,
        }
    }

    #[test]
    fn canonical_keys_are_deterministic_and_discriminating() {
        let cfg = InstanceConfig::default();
        let (k1, c1) = canonical_key(&tiny_recipe(), &SubstrateSpec::Coverage, &cfg);
        let (k2, c2) = canonical_key(&tiny_recipe(), &SubstrateSpec::Coverage, &cfg);
        assert_eq!(k1, k2);
        assert_eq!(c1, c2);
        let (k3, _) = canonical_key(&tiny_recipe(), &SubstrateSpec::Influence { p: 0.05 }, &cfg);
        assert_ne!(k1, k3, "substrate must discriminate");
        let (k4, _) = canonical_key(
            &DatasetRecipe::RandMc {
                c: 2,
                n: 61,
                seed_offset: 0,
            },
            &SubstrateSpec::Coverage,
            &cfg,
        );
        assert_ne!(k1, k4, "recipe parameters must discriminate");
    }

    #[test]
    fn validation_rejects_builder_panics() {
        let cfg = SubstrateSpec::Coverage;
        assert!(validate_request(&tiny_recipe(), &cfg).is_ok());
        assert!(validate_request(
            &DatasetRecipe::RandMc {
                c: 3,
                n: 60,
                seed_offset: 0
            },
            &cfg
        )
        .is_err());
        assert!(validate_request(
            &DatasetRecipe::RandFl {
                c: 5,
                seed_offset: 0
            },
            &SubstrateSpec::Facility
        )
        .is_err());
        // A build-size bomb is rejected up front, not attempted.
        assert!(validate_request(
            &DatasetRecipe::RandMc {
                c: 2,
                n: MAX_RAND_MC_NODES + 1,
                seed_offset: 0
            },
            &cfg
        )
        .is_err());
        // Substrate/dataset family mismatch.
        assert!(validate_request(&tiny_recipe(), &SubstrateSpec::Facility).is_err());
        assert!(validate_request(&tiny_recipe(), &SubstrateSpec::Influence { p: 1.5 }).is_err());
    }

    #[test]
    fn built_instance_solves_and_evaluates() {
        let instance = Instance::build(
            tiny_recipe(),
            SubstrateSpec::Coverage,
            &InstanceConfig::default().quick(),
        );
        assert_eq!(instance.num_items, 60);
        assert_eq!(instance.num_groups, 2);
        let eval = instance.evaluate(&[0, 1, 2]);
        assert!(eval.f > 0.0 && eval.f <= 1.0);
        assert_eq!(eval.group_means.len(), 2);
        assert!(instance.summary_json().get("dataset").is_some());
    }
}
