//! The data-mining context and its Galois connection.
//!
//! A context `D = (O, I, R)` induces the Galois connection of the paper's
//! Section 2:
//!
//! * `g` ([`MiningContext::extent`]): itemset → set of objects related to
//!   every item (the *extent*),
//! * `f` ([`MiningContext::intent`]): object set → set of items common to
//!   every object (the *intent*),
//! * `h = f ∘ g` ([`MiningContext::closure`]): the closure operator that
//!   maps an itemset to the maximal itemset with the same extent — "the
//!   intersection of the objects containing `I`".
//!
//! [`MiningContext`] pairs the horizontal store with a pluggable
//! [`SupportEngine`] (dense bitsets or tid-lists — see
//! [`crate::engine`]) wrapped in a memoizing closure cache: every
//! support/extent/closure query in the workspace flows through that one
//! engine, so the representation is swappable per workload and repeated
//! closures are answered from the cache.

use crate::bitset::BitSet;
use crate::engine::{
    CacheStats, CachedEngine, DeltaError, DeltaSupportEngine, EngineKind, SupportEngine, TxDelta,
};
use crate::itemset::Itemset;
use crate::pool::Parallelism;
use crate::support::{MinSupport, Support};
use crate::transaction::TransactionDb;
use std::sync::Arc;

/// A data-mining context: the horizontal view plus a pluggable
/// support/closure engine.
///
/// Cloning is cheap (both views are shared behind `Arc`s); clones share
/// the closure cache.
///
/// # Examples
///
/// ```
/// use rulebases_dataset::{MiningContext, TransactionDb, Itemset};
///
/// let db = TransactionDb::from_rows(vec![
///     vec![1, 3, 4],
///     vec![2, 3, 5],
///     vec![1, 2, 3, 5],
///     vec![2, 5],
///     vec![1, 2, 3, 5],
/// ]);
/// let ctx = MiningContext::new(db);
/// // h({B}) = {B, E}: every transaction with B also has E.
/// assert_eq!(ctx.closure(&Itemset::from_ids([2])), Itemset::from_ids([2, 5]));
/// assert!(ctx.is_closed(&Itemset::from_ids([2, 5])));
/// ```
///
/// Picking a specific backend (the default is density-driven
/// [`EngineKind::Auto`]):
///
/// ```
/// use rulebases_dataset::{paper_example, EngineKind, MiningContext, Itemset};
///
/// let ctx = MiningContext::with_engine(paper_example(), EngineKind::TidList);
/// assert_eq!(ctx.engine_name(), "tid-list");
/// assert_eq!(ctx.support(&Itemset::from_ids([2, 5])), 4);
/// ```
#[derive(Clone, Debug)]
pub struct MiningContext {
    horizontal: Arc<TransactionDb>,
    engine: Arc<CachedEngine>,
}

impl MiningContext {
    /// Builds a context with the density-selected default engine.
    pub fn new(db: TransactionDb) -> Self {
        Self::with_engine(db, EngineKind::Auto)
    }

    /// Builds a context with an explicit [`SupportEngine`] backend.
    pub fn with_engine(db: TransactionDb, kind: EngineKind) -> Self {
        Self::with_engine_arc(Arc::new(db), kind)
    }

    /// [`MiningContext::with_engine`], kept for callers that still pass
    /// a thread policy. The policy no longer affects the engine (engines
    /// never spawn; the miners take their own [`Parallelism`]).
    pub fn with_engine_par(db: TransactionDb, kind: EngineKind, _parallelism: Parallelism) -> Self {
        Self::with_engine(db, kind)
    }

    /// Builds a context over an already-shared database without cloning
    /// it (the context stores the `Arc` directly), with an explicit
    /// backend.
    pub fn with_engine_arc(db: Arc<TransactionDb>, kind: EngineKind) -> Self {
        let engine = kind.build_cached(&db);
        MiningContext {
            horizontal: db,
            engine,
        }
    }

    /// [`MiningContext::with_engine_arc`], kept for callers that still
    /// pass a thread policy. The policy no longer affects the engine.
    pub fn with_engine_arc_par(
        db: Arc<TransactionDb>,
        kind: EngineKind,
        _parallelism: Parallelism,
    ) -> Self {
        Self::with_engine_arc(db, kind)
    }

    /// The horizontal view.
    #[inline]
    pub fn horizontal(&self) -> &TransactionDb {
        &self.horizontal
    }

    /// The support/closure engine (cached; shared by clones).
    #[inline]
    pub fn engine(&self) -> &dyn SupportEngine {
        self.engine.as_ref()
    }

    /// The active backend's name (`"dense"` or `"tid-list"`).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The concrete [`EngineKind`] the backend resolved to at
    /// construction (never `Auto` — the density choice is made once when
    /// the engine is built).
    pub fn resolved_kind(&self) -> EngineKind {
        self.engine.resolved_kind()
    }

    /// The append epoch of the data the engine reflects (see
    /// [`TransactionDb::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Absorbs one batch delta — an append or a prefix expiry: the
    /// engine catches up incrementally (covers extend or drop their
    /// heads, the closure cache drops only the entries the delta can
    /// change) and the context's horizontal view switches to the
    /// post-delta snapshot.
    ///
    /// Fails with [`DeltaError::SharedEngine`] when the context has live
    /// clones (clones share the engine, which must be unique to mutate in
    /// place). No library path drives this — a streaming session
    /// answers from its lattice and holds no engine; the repo
    /// benchmark's `mine-sparse` delta load and its traced shadow of a
    /// push measure it.
    pub fn apply_delta(&mut self, delta: &TxDelta) -> Result<(), DeltaError> {
        Arc::get_mut(&mut self.engine)
            .ok_or(DeltaError::SharedEngine)?
            .apply_delta(delta)?;
        self.horizontal = Arc::clone(delta.db_arc());
        Ok(())
    }

    /// Closure-cache counters (hits, misses, evictions) of the context's
    /// cache layer, plus its pass-through query tallies.
    pub fn closure_cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Number of objects `|O|`.
    #[inline]
    pub fn n_objects(&self) -> usize {
        self.horizontal.n_transactions()
    }

    /// Size of the item universe `|I|`.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.horizontal.n_items()
    }

    /// `g(itemset)`: the extent.
    pub fn extent(&self, itemset: &Itemset) -> BitSet {
        self.engine.tidset_of(itemset)
    }

    /// `f(objects)`: the intent — items common to every object in the set.
    ///
    /// The intent of the empty object set is the full universe (the
    /// intersection over nothing), matching the Galois-connection
    /// convention.
    pub fn intent(&self, objects: &BitSet) -> Itemset {
        self.engine.closure_of_tidset(objects)
    }

    /// The Galois closure `h(itemset) = f(g(itemset))`, answered from the
    /// closure cache when the itemset was closed before.
    pub fn closure(&self, itemset: &Itemset) -> Itemset {
        self.engine.closure(itemset)
    }

    /// Closure of an itemset whose extent is already known (saves the
    /// extent recomputation in levelwise miners).
    pub fn closure_of_extent(&self, extent: &BitSet) -> Itemset {
        self.engine.closure_of_tidset(extent)
    }

    /// Whether `h(itemset) = itemset`.
    pub fn is_closed(&self, itemset: &Itemset) -> bool {
        // The closure always contains the itemset, so equal length suffices.
        self.closure(itemset).len() == itemset.len()
    }

    /// Absolute support (via the engine).
    pub fn support(&self, itemset: &Itemset) -> Support {
        self.engine.support(itemset)
    }

    /// Relative support in `[0, 1]`.
    pub fn frequency(&self, itemset: &Itemset) -> f64 {
        if self.n_objects() == 0 {
            return 0.0;
        }
        self.support(itemset) as f64 / self.n_objects() as f64
    }

    /// Converts a threshold to an absolute count for this context.
    pub fn min_support_count(&self, minsup: MinSupport) -> Support {
        minsup.to_count(self.n_objects())
    }
}

impl From<TransactionDb> for MiningContext {
    fn from(db: TransactionDb) -> Self {
        MiningContext::new(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    /// Objects: o1=ACD, o2=BCE, o3=ABCE, o4=BE, o5=ABCE with
    /// A=1 B=2 C=3 D=4 E=5.
    fn ctx() -> MiningContext {
        MiningContext::new(TransactionDb::from_rows(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
            vec![1, 2, 3, 5],
        ]))
    }

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn closures_match_paper_example() {
        let c = ctx();
        // Known closures of the running example lattice:
        assert_eq!(c.closure(&set(&[1])), set(&[1, 3])); // h(A) = AC
        assert_eq!(c.closure(&set(&[2])), set(&[2, 5])); // h(B) = BE
        assert_eq!(c.closure(&set(&[3])), set(&[3])); // C closed
        assert_eq!(c.closure(&set(&[5])), set(&[2, 5])); // h(E) = BE
        assert_eq!(c.closure(&set(&[4])), set(&[1, 3, 4])); // h(D) = ACD
        assert_eq!(c.closure(&set(&[1, 2])), set(&[1, 2, 3, 5])); // h(AB) = ABCE
        assert_eq!(c.closure(&set(&[2, 3])), set(&[2, 3, 5])); // h(BC) = BCE
        assert_eq!(c.closure(&set(&[1, 3])), set(&[1, 3])); // AC closed
    }

    #[test]
    fn closure_of_empty_set() {
        let c = ctx();
        // No item is common to all five objects.
        assert_eq!(c.closure(&Itemset::empty()), Itemset::empty());

        // With a column full of 9s, the empty set closes to {9}.
        let c2 = MiningContext::new(TransactionDb::from_rows(vec![vec![1, 9], vec![2, 9]]));
        assert_eq!(c2.closure(&Itemset::empty()), set(&[9]));
    }

    #[test]
    fn intent_of_empty_extent_is_universe() {
        let c = ctx();
        let empty = BitSet::new(c.n_objects());
        assert_eq!(c.intent(&empty), Itemset::universe(c.n_items()));
        // Consequently the closure of an unsupported itemset is everything.
        assert_eq!(c.closure(&set(&[1, 4, 5])), Itemset::universe(6));
    }

    #[test]
    fn closure_axioms_on_example() {
        let c = ctx();
        for ids in [
            vec![],
            vec![1],
            vec![2],
            vec![1, 2],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
        ] {
            let x = Itemset::from_ids(ids);
            let hx = c.closure(&x);
            assert!(x.is_subset_of(&hx), "extensive on {x:?}");
            assert_eq!(c.closure(&hx), hx, "idempotent on {x:?}");
            assert_eq!(c.support(&x), c.support(&hx), "support-preserving on {x:?}");
        }
    }

    #[test]
    fn is_closed_matches_definition() {
        let c = ctx();
        for (ids, closed) in [
            (vec![3], true),
            (vec![1, 3], true),
            (vec![2, 5], true),
            (vec![2, 3, 5], true),
            (vec![1, 2, 3, 5], true),
            (vec![1, 3, 4], true),
            (vec![1], false),
            (vec![2], false),
            (vec![2, 3], false),
        ] {
            assert_eq!(
                c.is_closed(&Itemset::from_ids(ids.clone())),
                closed,
                "{ids:?}"
            );
        }
    }

    #[test]
    fn extent_and_support_are_consistent() {
        let c = ctx();
        let x = set(&[2, 3]);
        let ext = c.extent(&x);
        assert_eq!(ext.count() as u64, c.support(&x));
        assert_eq!(c.closure_of_extent(&ext), set(&[2, 3, 5]));
    }

    #[test]
    fn frequency_and_min_support() {
        let c = ctx();
        assert!((c.frequency(&set(&[2, 5])) - 0.8).abs() < 1e-12);
        assert_eq!(c.min_support_count(MinSupport::Fraction(0.4)), 2);
        assert_eq!(c.min_support_count(MinSupport::Count(3)), 3);
    }

    #[test]
    fn galois_antitone_on_example() {
        // X ⊆ Y ⇒ g(Y) ⊆ g(X).
        let c = ctx();
        let gx = c.extent(&set(&[2]));
        let gy = c.extent(&set(&[2, 3]));
        assert!(gy.is_subset_of(&gx));
        let _ = Item(0); // silence unused import in some cfg combinations
    }

    #[test]
    fn every_backend_yields_the_same_context_semantics() {
        let probes = [set(&[1]), set(&[2, 3]), set(&[1, 4, 5]), Itemset::empty()];
        let reference = ctx();
        for kind in EngineKind::BACKENDS {
            let c = MiningContext::with_engine(
                TransactionDb::from_rows(vec![
                    vec![1, 3, 4],
                    vec![2, 3, 5],
                    vec![1, 2, 3, 5],
                    vec![2, 5],
                    vec![1, 2, 3, 5],
                ]),
                kind,
            );
            assert_eq!(c.engine_name(), kind.name());
            for probe in &probes {
                assert_eq!(c.support(probe), reference.support(probe), "{kind}");
                assert_eq!(c.closure(probe), reference.closure(probe), "{kind}");
                assert_eq!(c.extent(probe), reference.extent(probe), "{kind}");
            }
        }
    }

    #[test]
    fn clones_share_the_closure_cache() {
        let c = ctx();
        let clone = c.clone();
        let probe = set(&[2]);
        let _ = c.closure(&probe);
        let _ = clone.closure(&probe);
        let stats = c.closure_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }
}
