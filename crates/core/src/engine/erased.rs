//! Object-safe erasure of [`UtilitySystem`] so solvers can be stored
//! behind trait objects in a registry.
//!
//! [`UtilitySystem`] has an associated `Inner` state type, so it cannot
//! be a trait object directly. [`DynUtilitySystem`] is its object-safe
//! twin: the incremental state travels as a boxed [`DynState`], and a
//! blanket impl covers every concrete system whose state is
//! `'static + Clone + Send`. [`ErasedSystem`] then adapts a
//! `&dyn DynUtilitySystem` *back* into a [`UtilitySystem`], so every
//! generic algorithm in [`crate::algorithms`] runs unchanged behind the
//! registry boundary — including each substrate's parallel
//! `group_gains_batch` override, which the erasure forwards verbatim.

use std::any::Any;

use crate::items::ItemId;
use crate::system::UtilitySystem;

use super::memo::StageMemo;

/// A boxed, clonable incremental-evaluation state.
pub struct DynState(Box<dyn AnyCloneState>);

trait AnyCloneState: Any + Send {
    fn clone_box(&self) -> Box<dyn AnyCloneState>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + Clone + Send> AnyCloneState for T {
    fn clone_box(&self) -> Box<dyn AnyCloneState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Clone for DynState {
    fn clone(&self) -> Self {
        DynState(self.0.clone_box())
    }
}

impl DynState {
    fn downcast_ref<T: Any>(&self) -> &T {
        self.0
            .as_any()
            .downcast_ref::<T>()
            .expect("DynState used with a different system than it came from")
    }

    fn downcast_mut<T: Any>(&mut self) -> &mut T {
        self.0
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("DynState used with a different system than it came from")
    }
}

/// Object-safe view of a [`UtilitySystem`]: what [`crate::engine`]
/// solvers receive. Implemented automatically for every system whose
/// `Inner` state is `'static + Clone + Send`.
///
/// The `Send + Sync` supertraits make erased systems *shareable*: a
/// long-running service can hold a built oracle behind
/// `Arc<dyn DynUtilitySystem>` (or an `Arc` of any concrete system) and
/// serve concurrent solve requests from many threads against the same
/// instance — solvers only ever take `&self`, so no synchronization
/// beyond the `Arc` is needed.
pub trait DynUtilitySystem: Send + Sync {
    /// Number of items in the ground set `V`.
    ///
    /// Accessors carry a `dyn_` prefix so the blanket impl never
    /// shadows the inherent [`UtilitySystem`] methods on concrete
    /// systems (both traits are commonly in scope together).
    fn dyn_num_items(&self) -> usize;
    /// Number of users `m`.
    fn dyn_num_users(&self) -> usize;
    /// Sizes `m_i` of the `c` user groups.
    fn dyn_group_sizes(&self) -> &[usize];
    /// Fresh boxed evaluation state for `S = ∅`.
    fn dyn_init(&self) -> DynState;
    /// Type-erased [`UtilitySystem::group_gains`].
    fn dyn_group_gains(&self, state: &DynState, item: ItemId, out: &mut [f64]);
    /// Type-erased [`UtilitySystem::group_gains_batch`] — forwards to
    /// the concrete batch implementation, preserving any parallel
    /// override the substrate installed.
    fn dyn_group_gains_batch(&self, state: &DynState, items: &[ItemId], out: &mut [f64]);
    /// Type-erased [`UtilitySystem::apply`].
    fn dyn_apply(&self, state: &mut DynState, item: ItemId);

    /// Type-erased [`UtilitySystem::gain_kernel`] — the substrate's
    /// marginal-gain evaluation strategy label, surfaced in
    /// [`crate::engine::SolveReport::gain_kernel`].
    fn dyn_gain_kernel(&self) -> &'static str;

    /// Type-erased [`UtilitySystem::approx_bytes`] — the substrate's
    /// resident-footprint estimate for byte-budgeted serving.
    fn dyn_approx_bytes(&self) -> usize;

    /// Number of groups `c`.
    fn dyn_num_groups(&self) -> usize {
        self.dyn_group_sizes().len()
    }

    /// The memo this system keeps its τ-independent BSM stages in, if
    /// any (see [`crate::engine::MemoSystem`]). Solvers that run those
    /// stages read it; a memo only changes how fast they run, never
    /// what they report. Plain systems carry none.
    fn dyn_stage_memo(&self) -> Option<&StageMemo> {
        None
    }
}

impl<S> DynUtilitySystem for S
where
    S: UtilitySystem + Send + Sync,
    S::Inner: Any + Clone + Send,
{
    fn dyn_num_items(&self) -> usize {
        UtilitySystem::num_items(self)
    }

    fn dyn_num_users(&self) -> usize {
        UtilitySystem::num_users(self)
    }

    fn dyn_group_sizes(&self) -> &[usize] {
        UtilitySystem::group_sizes(self)
    }

    fn dyn_init(&self) -> DynState {
        DynState(Box::new(self.init_inner()))
    }

    fn dyn_group_gains(&self, state: &DynState, item: ItemId, out: &mut [f64]) {
        self.group_gains(state.downcast_ref::<S::Inner>(), item, out);
    }

    fn dyn_group_gains_batch(&self, state: &DynState, items: &[ItemId], out: &mut [f64]) {
        self.group_gains_batch(state.downcast_ref::<S::Inner>(), items, out);
    }

    fn dyn_apply(&self, state: &mut DynState, item: ItemId) {
        self.apply(state.downcast_mut::<S::Inner>(), item);
    }

    fn dyn_gain_kernel(&self) -> &'static str {
        UtilitySystem::gain_kernel(self)
    }

    fn dyn_approx_bytes(&self) -> usize {
        UtilitySystem::approx_bytes(self)
    }
}

/// Adapts a type-erased system back into a [`UtilitySystem`], so the
/// generic algorithm suite runs on it unchanged.
#[derive(Clone, Copy)]
pub struct ErasedSystem<'a>(pub &'a dyn DynUtilitySystem);

impl UtilitySystem for ErasedSystem<'_> {
    type Inner = DynState;

    fn num_items(&self) -> usize {
        self.0.dyn_num_items()
    }

    fn num_users(&self) -> usize {
        self.0.dyn_num_users()
    }

    fn group_sizes(&self) -> &[usize] {
        self.0.dyn_group_sizes()
    }

    fn init_inner(&self) -> Self::Inner {
        self.0.dyn_init()
    }

    fn group_gains(&self, inner: &Self::Inner, item: ItemId, out: &mut [f64]) {
        self.0.dyn_group_gains(inner, item, out);
    }

    fn group_gains_batch(&self, inner: &Self::Inner, items: &[ItemId], out: &mut [f64]) {
        self.0.dyn_group_gains_batch(inner, items, out);
    }

    fn apply(&self, inner: &mut Self::Inner, item: ItemId) {
        self.0.dyn_apply(inner, item);
    }

    fn gain_kernel(&self) -> &'static str {
        self.0.dyn_gain_kernel()
    }

    fn approx_bytes(&self) -> usize {
        self.0.dyn_approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::MeanUtility;
    use crate::algorithms::greedy::{greedy, GreedyConfig};
    use crate::metrics::evaluate;
    use crate::toy;

    #[test]
    fn erased_system_matches_concrete_system() {
        let sys = toy::random_coverage(30, 90, 3, 0.1, 7);
        let erased = ErasedSystem(&sys);
        let f = MeanUtility::new(sys.num_users());
        let direct = greedy(&sys, &f, &GreedyConfig::lazy(5));
        let through = greedy(&erased, &f, &GreedyConfig::lazy(5));
        assert_eq!(direct.items, through.items);
        assert_eq!(direct.value.to_bits(), through.value.to_bits());
        assert_eq!(direct.oracle_calls, through.oracle_calls);
    }

    #[test]
    fn erased_batch_matches_per_item() {
        let sys = toy::figure1();
        let erased = ErasedSystem(&sys);
        let c = UtilitySystem::num_groups(&erased);
        let mut state = erased.init_inner();
        erased.apply(&mut state, 1);
        let items: Vec<ItemId> = (0..4).collect();
        let mut batch = vec![0.0; items.len() * c];
        erased.group_gains_batch(&state, &items, &mut batch);
        let mut row = vec![0.0; c];
        for (j, &v) in items.iter().enumerate() {
            erased.group_gains(&state, v, &mut row);
            assert_eq!(&batch[j * c..(j + 1) * c], &row[..]);
        }
    }

    #[test]
    fn erased_systems_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn DynUtilitySystem>();
        // An Arc'd concrete system can serve solves from many threads.
        let sys = std::sync::Arc::new(toy::random_coverage(20, 60, 2, 0.15, 3));
        let f = MeanUtility::new(UtilitySystem::num_users(sys.as_ref()));
        let baseline = greedy(sys.as_ref(), &f, &GreedyConfig::lazy(3)).items;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sys = std::sync::Arc::clone(&sys);
                std::thread::spawn(move || {
                    let shared: &dyn DynUtilitySystem = sys.as_ref();
                    let erased = ErasedSystem(shared);
                    let f = MeanUtility::new(erased.num_users());
                    greedy(&erased, &f, &GreedyConfig::lazy(3)).items
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), baseline);
        }
    }

    #[test]
    fn erased_evaluation_matches() {
        let sys = toy::figure1();
        let erased = ErasedSystem(&sys);
        let a = evaluate(&sys, &[0, 3]);
        let b = evaluate(&erased, &[0, 3]);
        assert_eq!(a.f.to_bits(), b.f.to_bits());
        assert_eq!(a.g.to_bits(), b.g.to_bits());
        assert_eq!(a.group_means, b.group_means);
    }
}
