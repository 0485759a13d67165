//! The memoizing closure cache.

use super::delta::{DeltaError, DeltaSupportEngine, TxDelta};
use super::{EngineKind, SupportEngine};
use crate::bitset::BitSet;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::support::Support;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many distinct closures the cache holds before it is wiped and
/// refilled (a simple epoch policy — closure working sets are bursty, so
/// LRU bookkeeping would cost more than it saves).
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Closure-cache counters, plus pass-through query counters for the
/// uncached engine primitives — together they measure how much engine
/// work a pipeline actually performs (the fused-vs-staged ablation reads
/// exactly these numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Closure queries answered from the cache.
    pub hits: u64,
    /// Closure queries that had to compute.
    pub misses: u64,
    /// Times the cache hit capacity and was wiped.
    pub evictions: u64,
    /// Extent queries passed through uncached (`tidset_of`, per-item
    /// `cover` materializations, one-item `extend_tidset` refinements, and
    /// one per candidate of a `close_candidates` batch — whether the
    /// backend builds that extent or rules the candidate out in its pair
    /// pass).
    pub extents: u64,
    /// Support queries passed through uncached (`support` plus one per
    /// candidate in a `count_candidates` batch).
    pub supports: u64,
    /// Intent computations passed through uncached (`closure_of_tidset`,
    /// plus one per candidate a `close_candidates` batch closes — the
    /// frequent ones).
    pub intents: u64,
    /// Bytes of horizontal row storage (CSR items + offsets) this engine
    /// stack copied into engine structures while absorbing append deltas
    /// ([`DeltaSupportEngine::apply_delta`]): each backend charges the
    /// appended rows only. The streaming acceptance pins read this
    /// counter: a delta-sized pipeline charges O(batch) here, never
    /// O(database).
    pub bytes_copied: u64,
}

impl CacheStats {
    /// Total closure queries seen (hits + misses).
    pub fn lookups(self) -> u64 {
        self.hits + self.misses
    }

    /// Every engine query this layer observed: closure lookups plus the
    /// pass-through extent, support, and intent queries. The scalar the
    /// pipeline ablations compare.
    pub fn engine_calls(self) -> u64 {
        self.lookups() + self.extents + self.supports + self.intents
    }
}

/// Wraps any [`SupportEngine`] with a memoizing closure cache keyed by
/// itemset hash (with full-equality verification on collision).
///
/// NextClosure and the pseudo-closed (stem-base) construction probe
/// `close(A ∪ {i})` for many `(A, i)` pairs while walking the lectic
/// order, and distinct steps re-derive identical candidate sets; the
/// levelwise miners re-close generators shared across runs at different
/// thresholds. Memoizing turns every repeat into a hash lookup. Support
/// and tidset queries pass through uncached — they are cheaper than the
/// closures and far less repetitive.
///
/// The cache is internally synchronized (`Mutex` around the map, atomic
/// counters), so a context can be shared across threads.
#[derive(Debug)]
pub struct CachedEngine {
    inner: Arc<dyn SupportEngine>,
    closures: Mutex<HashMap<Itemset, (Itemset, Support)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    extents: AtomicU64,
    supports: AtomicU64,
    intents: AtomicU64,
}

impl CachedEngine {
    /// Wraps `inner` with the default cache capacity.
    pub fn new(inner: Arc<dyn SupportEngine>) -> Self {
        Self::with_capacity(inner, DEFAULT_CAPACITY)
    }

    /// Wraps `inner`, wiping the cache whenever it exceeds `capacity`
    /// entries.
    pub fn with_capacity(inner: Arc<dyn SupportEngine>, capacity: usize) -> Self {
        CachedEngine {
            inner,
            closures: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            extents: AtomicU64::new(0),
            supports: AtomicU64::new(0),
            intents: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &dyn SupportEngine {
        &*self.inner
    }

    /// Drops every cached closure (counters survive).
    pub fn clear_cache(&self) {
        self.closures
            .lock()
            .expect("closure cache poisoned")
            .clear();
    }

    /// Drops exactly the cached closures a batch delta can change, and
    /// returns how many were dropped. An entry `X ↦ (h(X), supp X)` stays
    /// valid across the batch unless the extent of `X` intersects the
    /// delta — i.e. some appended row contains `X` (then the support
    /// grows and the closure may shrink), or some *expired* row contained
    /// `X` (then the support shrinks and the closure may grow; the
    /// expired rows are read from the delta's pre-expiry snapshot). One
    /// special case rides along on appends: when the batch grew the item
    /// universe, entries for unsupported itemsets (`supp = 0`, closure =
    /// the old, smaller universe) are dropped too. Expiry never shrinks
    /// the universe, so unsupported entries survive it untouched — no
    /// expired row contains their key.
    fn invalidate_delta(&self, delta: &TxDelta) -> usize {
        let mut cache = self.closures.lock().expect("closure cache poisoned");
        let before = cache.len();
        match delta {
            TxDelta::Append(append) => {
                let db = append.db();
                let grew = append.grew_universe();
                cache.retain(|key, (_, support)| {
                    if grew && *support == 0 {
                        return false;
                    }
                    !(append.start()..append.end()).any(|t| db.transaction_contains(t, key))
                });
            }
            TxDelta::Expire(expire) => {
                let prior = expire.prior();
                cache.retain(|key, _| {
                    !(0..expire.rows()).any(|t| prior.transaction_contains(t, key))
                });
            }
        }
        before - cache.len()
    }

    fn cached_closure(&self, itemset: &Itemset) -> (Itemset, Support) {
        {
            let cache = self.closures.lock().expect("closure cache poisoned");
            if let Some(found) = cache.get(itemset) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return found.clone();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = self.inner.closure_and_support(itemset);
        let mut cache = self.closures.lock().expect("closure cache poisoned");
        if cache.len() >= self.capacity {
            cache.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        cache.insert(itemset.clone(), computed.clone());
        computed
    }
}

impl DeltaSupportEngine for CachedEngine {
    /// Applies the delta to the wrapped backend, then performs the
    /// epoch-keyed invalidation: only the closure classes whose extents
    /// intersect the delta are dropped (an entry stays valid unless some
    /// appended or expired row contains its key, plus the
    /// unsupported-closure entries when an append grew the universe);
    /// everything else keeps serving hits across the batch.
    fn apply_delta(&mut self, delta: &TxDelta) -> Result<(), DeltaError> {
        let name = self.inner.name();
        let inner = Arc::get_mut(&mut self.inner).ok_or(DeltaError::SharedEngine)?;
        inner
            .as_delta_mut()
            .ok_or(DeltaError::NotDeltaAware(name))?
            .apply_delta(delta)?;
        self.invalidate_delta(delta);
        Ok(())
    }
}

impl SupportEngine for CachedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resolved_kind(&self) -> EngineKind {
        self.inner.resolved_kind()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn as_delta_mut(&mut self) -> Option<&mut dyn DeltaSupportEngine> {
        Some(self)
    }

    fn n_objects(&self) -> usize {
        self.inner.n_objects()
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn cover(&self, item: Item) -> BitSet {
        self.extents.fetch_add(1, Ordering::Relaxed);
        self.inner.cover(item)
    }

    fn tidset_of(&self, itemset: &Itemset) -> BitSet {
        self.extents.fetch_add(1, Ordering::Relaxed);
        self.inner.tidset_of(itemset)
    }

    fn extend_tidset(&self, tidset: &BitSet, item: Item) -> BitSet {
        self.extents.fetch_add(1, Ordering::Relaxed);
        self.inner.extend_tidset(tidset, item)
    }

    fn support(&self, itemset: &Itemset) -> Support {
        self.supports.fetch_add(1, Ordering::Relaxed);
        self.inner.support(itemset)
    }

    fn item_supports(&self) -> Vec<Support> {
        self.inner.item_supports()
    }

    fn closure_of_tidset(&self, tidset: &BitSet) -> Itemset {
        self.intents.fetch_add(1, Ordering::Relaxed);
        self.inner.closure_of_tidset(tidset)
    }

    fn closure(&self, itemset: &Itemset) -> Itemset {
        self.cached_closure(itemset).0
    }

    fn closure_and_support(&self, itemset: &Itemset) -> (Itemset, Support) {
        self.cached_closure(itemset)
    }

    fn count_candidates(&self, candidates: &[Itemset]) -> Vec<Support> {
        self.supports
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        self.inner.count_candidates(candidates)
    }

    /// Passes the batch through uncached, tallying what the per-candidate
    /// path (`tidset_of` → `count` → `closure_of_tidset`) would: one
    /// extent per candidate and one intent per candidate returned.
    fn close_candidates<'c>(
        &self,
        candidates: &'c [Itemset],
        min_count: Support,
    ) -> Vec<(&'c Itemset, Itemset, Support)> {
        let closed = self.inner.close_candidates(candidates, min_count);
        self.extents
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        self.intents
            .fetch_add(closed.len() as u64, Ordering::Relaxed);
        closed
    }

    /// This cache layer's counters. `bytes_copied` is the backend's: the
    /// cache layer itself never copies row storage, so the backend's
    /// delta-copy tally passes through.
    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            extents: self.extents.load(Ordering::Relaxed),
            supports: self.supports.load(Ordering::Relaxed),
            intents: self.intents.load(Ordering::Relaxed),
            bytes_copied: self.inner.cache_stats().bytes_copied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::EngineKind;
    use super::*;
    use crate::paper_example;
    use crate::transaction::TransactionDb;

    fn cached() -> CachedEngine {
        let db = Arc::new(paper_example());
        CachedEngine::new(EngineKind::Dense.build(&db))
    }

    #[test]
    fn repeated_closures_hit() {
        let engine = cached();
        let probe = Itemset::from_ids([2]);
        let first = engine.closure(&probe);
        let second = engine.closure(&probe);
        assert_eq!(first, second);
        assert_eq!(first, Itemset::from_ids([2, 5]));
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn closure_and_support_share_the_cache() {
        let engine = cached();
        let probe = Itemset::from_ids([2, 3]);
        let (closure, support) = engine.closure_and_support(&probe);
        assert_eq!(closure, Itemset::from_ids([2, 3, 5]));
        assert_eq!(support, 3);
        let _ = engine.closure(&probe);
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn capacity_overflow_wipes_and_counts() {
        let db = Arc::new(paper_example());
        let engine = CachedEngine::with_capacity(EngineKind::Dense.build(&db), 2);
        for ids in [vec![1u32], vec![2], vec![3], vec![5]] {
            let _ = engine.closure(&Itemset::from_ids(ids));
        }
        let stats = engine.cache_stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn clear_cache_resets_entries_not_counters() {
        let engine = cached();
        let probe = Itemset::from_ids([1]);
        let _ = engine.closure(&probe);
        engine.clear_cache();
        let _ = engine.closure(&probe);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn passthrough_queries_stay_uncached_but_counted() {
        let engine = cached();
        let probe = Itemset::from_ids([2, 5]);
        assert_eq!(engine.support(&probe), 4);
        assert_eq!(engine.tidset_of(&probe).count(), 4);
        let _ = engine.cover(Item::new(2));
        let extent = engine.tidset_of(&probe);
        let _ = engine.extend_tidset(&extent, Item::new(3));
        let _ = engine.closure_of_tidset(&extent);
        let _ = engine.count_candidates(&[probe.clone(), Itemset::from_ids([3])]);
        // {B, E} (support 4) is closed, {D, E} (support 0) is not.
        let batch = [probe.clone(), Itemset::from_ids([4, 5])];
        let closed = engine.close_candidates(&batch, 1);
        assert_eq!(closed, vec![(&probe, probe.clone(), 4)]);
        let stats = engine.cache_stats();
        // No closure lookup was asked: the cache itself stays empty...
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 0, 0));
        // ...but the pass-through work is tallied.
        assert_eq!(
            stats.extents, 6,
            "2× tidset_of + cover + extend + 2-candidate close"
        );
        assert_eq!(stats.supports, 3, "support + 2-candidate batch");
        assert_eq!(stats.intents, 2, "closure_of_tidset + 1 closed candidate");
        assert_eq!(stats.engine_calls(), 11);
    }

    #[test]
    fn works_over_every_backend() {
        let db = Arc::new(paper_example());
        for kind in EngineKind::BACKENDS {
            let engine = CachedEngine::new(kind.build(&db));
            assert_eq!(
                engine.closure(&Itemset::from_ids([2])),
                Itemset::from_ids([2, 5]),
                "{}",
                engine.name()
            );
            let _ = engine.closure(&Itemset::from_ids([2]));
            assert_eq!(engine.cache_stats().hits, 1, "{}", engine.name());
        }
    }

    #[test]
    fn apply_delta_invalidates_only_intersecting_closure_classes() {
        use super::super::delta::TxDelta;
        let mut db = paper_example();
        let shared = Arc::new(db.clone());
        let mut engine = CachedEngine::new(EngineKind::Dense.build(&shared));

        let b = Itemset::from_ids([2]); // will be contained in the new row
        let d = Itemset::from_ids([4]); // untouched by the new row
        assert_eq!(engine.closure(&b), Itemset::from_ids([2, 5]));
        assert_eq!(engine.closure(&d), Itemset::from_ids([1, 3, 4]));
        assert_eq!(engine.cache_stats().misses, 2);

        // Append the row {B, C}: it contains B but not D, so only B's
        // closure class intersects the delta.
        let info = db.append_rows(vec![vec![2, 3]]).unwrap();
        let delta = TxDelta::new(Arc::new(db.clone()), info);
        engine.apply_delta(&delta).unwrap();
        assert_eq!(engine.epoch(), 1);

        // D's class survived the append: answered from cache.
        assert_eq!(engine.closure(&d), Itemset::from_ids([1, 3, 4]));
        assert_eq!(engine.cache_stats().hits, 1);
        // B's class was invalidated and recomputed: supp grew 4 → 5 and
        // the closure shrank BE → B (the new row has B without E).
        let (closure, support) = engine.closure_and_support(&b);
        assert_eq!(closure, Itemset::from_ids([2]));
        assert_eq!(support, 5);
        assert_eq!(engine.cache_stats().misses, 3);
    }

    #[test]
    fn expiry_evicts_only_classes_the_expired_rows_witnessed() {
        use super::super::delta::TxDelta;
        let mut db = paper_example();
        let shared = Arc::new(db.clone());
        let mut engine = CachedEngine::new(EngineKind::Dense.build(&shared));

        let b = Itemset::from_ids([2]); // absent from the doomed row
        let d = Itemset::from_ids([4]); // contained in the doomed row
        assert_eq!(engine.closure(&b), Itemset::from_ids([2, 5]));
        assert_eq!(engine.closure(&d), Itemset::from_ids([1, 3, 4]));
        assert_eq!(engine.cache_stats().misses, 2);

        // Expire the first row {A, C, D}: it contains D but not B, so
        // only D's closure class intersects the delta.
        let prior = Arc::new(db.clone());
        let info = db.expire_rows(1);
        let delta = TxDelta::expire(prior, Arc::new(db.clone()), info);
        engine.apply_delta(&delta).unwrap();
        assert_eq!(engine.epoch(), 1);

        // B's class survived the expiry: answered from cache.
        assert_eq!(engine.closure(&b), Itemset::from_ids([2, 5]));
        assert_eq!(engine.cache_stats().hits, 1);
        // D's class was evicted and recomputed: the expired row was its
        // only witness, so it is now unsupported and closes to the
        // universe.
        let (closure, support) = engine.closure_and_support(&d);
        assert_eq!(closure, Itemset::universe(6));
        assert_eq!(support, 0);
        assert_eq!(engine.cache_stats().misses, 3);
    }

    #[test]
    fn universe_growth_drops_unsupported_closure_entries() {
        use super::super::delta::TxDelta;
        let mut db = TransactionDb::from_rows(vec![vec![0, 1], vec![1, 2]]);
        let shared = Arc::new(db.clone());
        let mut engine = CachedEngine::new(EngineKind::Dense.build(&shared));
        // Unsupported itemsets close to the universe — which is about to
        // grow, so the cached answer must not survive.
        let probe = Itemset::from_ids([0, 2]);
        assert_eq!(engine.closure(&probe), Itemset::universe(3));

        let info = db.append_rows(vec![vec![7]]).unwrap();
        let delta = TxDelta::new(Arc::new(db.clone()), info);
        engine.apply_delta(&delta).unwrap();
        assert_eq!(engine.closure(&probe), Itemset::universe(8));
        assert_eq!(engine.cache_stats().hits, 0);
        assert_eq!(engine.cache_stats().misses, 2);
    }

    #[test]
    fn empty_context_closure_is_cached_too() {
        let db = Arc::new(TransactionDb::from_rows(vec![]));
        let engine = CachedEngine::new(EngineKind::Dense.build(&db));
        assert_eq!(engine.closure(&Itemset::empty()), Itemset::empty());
        assert_eq!(engine.closure(&Itemset::empty()), Itemset::empty());
        assert_eq!(engine.cache_stats().hits, 1);
    }
}
