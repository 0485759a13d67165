//! The row-sharded parallel backend.
//!
//! [`ShardedEngine`] partitions the object set `O` into `K` contiguous
//! row shards ([`TransactionDb::partition`]) and holds one inner
//! [`SupportEngine`] per shard — any backend, resolved per shard by that
//! shard's own density when the inner kind is `Auto`, so a relation whose
//! regions differ (a dense head, a sparse tail) gets the right
//! representation piecewise. Every query of the `SupportEngine` surface
//! is answered per shard and the shard answers combined:
//!
//! * **supports add** — `|g(X)| = Σ_s |g_s(X)|`, so [`support`] and the
//!   batch [`count_candidates`] reduce to per-shard sums and never
//!   materialize a global tidset;
//! * **extents concatenate** — shard `s` owns the global transaction ids
//!   `offsets[s]..offsets[s+1]`, so a global tidset is the shard tidsets
//!   written back at their shard offsets. Interior offsets start as
//!   multiples of 64, which makes the stitching whole-word copies:
//!   [`BitSet::extract_block`] slices a global tidset down to one shard's
//!   local view (re-based at zero) and [`BitSet::splice_block`] writes a
//!   local answer back at the shard's offset. A prefix expiry renumbers
//!   every boundary down by the expired row count, which can de-align
//!   them — both block primitives then take their bit-shifting unaligned
//!   path and the algebra is unchanged;
//! * **intents intersect** — the items common to a global object set are
//!   the intersection of the items common to each shard's slice of it,
//!   with an empty slice contributing the full universe (the intersection
//!   over nothing), so [`closure_of_tidset`] distributes over shards
//!   exactly.
//!
//! **Thread model.** Point queries ([`cover`], [`tidset_of`],
//! [`extend_tidset`], [`support`], [`closure_of_tidset`],
//! [`closure_and_support`]) walk the shards on the calling thread: one
//! query is microseconds of work, far below a thread start-up, and the
//! miners already fan a whole level of them over chunks
//! (`mining::counting::map_level`), so nothing spawns inside a fanned
//! chunk. Only the batch calls — [`count_candidates`] and
//! [`item_supports`], one whole level or universe per call — fan the
//! shards out over scoped threads ([`pool::parallel_chunks`]), under a
//! [`Parallelism`] knob: `Auto` (resolved once at construction) only
//! spawns when the relation is large enough for per-thread work to
//! dominate thread start-up, while an explicit `Fixed(n)` always fans
//! with exactly `n` workers — shard indices are chunked over the worker
//! budget, so eight shards under `Fixed(2)` run four-and-four on two
//! threads (the equivalence suite uses `Fixed` to drive the threaded
//! paths on tiny contexts). The degenerate 1-thread path walks the
//! shards sequentially and is bit-for-bit equivalent — cross-checked
//! against every serial backend by the dataset proptests and
//! `tests/equivalence.rs`.
//!
//! [`cover`]: SupportEngine::cover
//! [`tidset_of`]: SupportEngine::tidset_of
//! [`extend_tidset`]: SupportEngine::extend_tidset
//! [`closure_and_support`]: SupportEngine::closure_and_support
//! [`item_supports`]: SupportEngine::item_supports
//! [`support`]: SupportEngine::support
//! [`count_candidates`]: SupportEngine::count_candidates
//! [`closure_of_tidset`]: SupportEngine::closure_of_tidset
//! [`TransactionDb::partition`]: crate::TransactionDb::partition

use super::delta::{
    check_epoch, AppendDelta, DeltaError, DeltaSupportEngine, ExpireDelta, TxDelta,
};
use super::{CacheStats, CachedEngine, EngineKind, SupportEngine, AUTO_SHARD_MIN_ROWS};
use crate::bitset::BitSet;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::pool::{self, Parallelism};
use crate::support::Support;
use crate::transaction::{AppendInfo, ExpireInfo, TransactionDb};
use std::sync::Arc;

/// How many rows the tail shard may hold before an append spills it: the
/// rows past the largest 64-aligned boundary stay the (new) tail and the
/// sealed prefix becomes a regular shard. 64 rows is one tidset word —
/// the same alignment quantum [`TransactionDb::partition`] promises, so
/// every spill boundary keeps whole-word stitching valid.
pub const SHARD_SPILL_BUDGET: usize = 64;

/// A [`SupportEngine`] over `K` row shards, each served by its own inner
/// backend, with shard answers stitched back together (see the module
/// docs for the stitching algebra and the thread model).
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Arc<dyn SupportEngine>>,
    /// `offsets[s]` is the global transaction id of shard `s`'s first
    /// row; `offsets[s + 1] - offsets[s]` is its row count. Interior
    /// offsets start as multiples of 64 (see `TransactionDb::partition`)
    /// but a prefix expiry can renumber them off alignment — the block
    /// stitching primitives handle both.
    offsets: Vec<usize>,
    n_objects: usize,
    n_items: usize,
    parallelism: Parallelism,
    /// `Parallelism::Auto`'s thread count, resolved once at construction
    /// (env + machine lookups have no business on the per-call path).
    auto_threads: usize,
    /// The configured inner kind — kept so an append can re-resolve the
    /// tail shard's backend (`Auto` picks per density) and build spilled
    /// shards consistently.
    inner_kind: EngineKind,
    /// Whether shard backends are wrapped in per-shard caches
    /// ([`ShardedEngine::with_shard_caches`]); rebuilt shards follow suit.
    cached: bool,
    /// Append epoch of the data the shards reflect.
    epoch: u64,
    /// Row-storage bytes this engine read into rebuilt shard backends
    /// during delta applications (spills and density flips — the slices
    /// themselves are zero-copy views since the segmented store). Folded
    /// into [`SupportEngine::cache_stats`] alongside the per-shard
    /// counters.
    bytes_copied: u64,
}

impl ShardedEngine {
    /// Partitions `db` into `n_shards` row shards (at least 1) and builds
    /// one inner backend per shard. An `Auto` inner kind is resolved
    /// against each shard's own density, so mixed-density relations get
    /// per-shard representations.
    pub fn from_horizontal(db: &Arc<TransactionDb>, n_shards: usize, inner: &EngineKind) -> Self {
        Self::build_shards(db, n_shards, inner, false)
    }

    /// Like [`ShardedEngine::from_horizontal`], but wraps every shard
    /// backend in its own memoizing [`CachedEngine`]; the per-shard cache
    /// counters surface, merged, through
    /// [`SupportEngine::cache_stats`].
    pub fn with_shard_caches(db: &Arc<TransactionDb>, n_shards: usize, inner: &EngineKind) -> Self {
        Self::build_shards(db, n_shards, inner, true)
    }

    fn build_shards(
        db: &Arc<TransactionDb>,
        n_shards: usize,
        inner: &EngineKind,
        cached: bool,
    ) -> Self {
        let n_shards = n_shards.max(1);
        let mut offsets = Vec::with_capacity(n_shards + 1);
        offsets.push(0usize);
        let mut shards: Vec<Arc<dyn SupportEngine>> = Vec::with_capacity(n_shards);
        for part in db.partition(n_shards) {
            offsets.push(offsets.last().unwrap() + part.n_transactions());
            shards.push(shard_backend(Arc::new(part), inner, cached));
        }
        ShardedEngine {
            shards,
            offsets,
            n_objects: db.n_transactions(),
            n_items: db.n_items(),
            parallelism: Parallelism::default(),
            auto_threads: Parallelism::Auto.threads(),
            inner_kind: inner.clone(),
            cached,
            epoch: db.epoch(),
            bytes_copied: 0,
        }
    }

    /// Sets the batch-call fan-out policy (default [`Parallelism::Auto`],
    /// whose thread count is resolved once at engine construction).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Number of row shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The backend names chosen per shard (the per-shard density
    /// resolution made at construction).
    pub fn shard_names(&self) -> Vec<&'static str> {
        self.shards.iter().map(|s| s.name()).collect()
    }

    /// How many worker threads a batch call ([`SupportEngine::count_candidates`],
    /// [`SupportEngine::item_supports`]) may use. `Fixed(n)` pins exactly
    /// `n`; `Auto` uses the construction-time thread count, but only
    /// when the relation is big enough ([`AUTO_SHARD_MIN_ROWS`]) for
    /// per-thread work to dominate thread start-up — so an auto-sharded
    /// engine (which shards at the same floor) always fans its batches.
    /// Point queries never consult this: they run inline.
    fn fan_threads(&self) -> usize {
        if self.shards.len() <= 1 {
            return 1;
        }
        match self.parallelism {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => {
                if self.n_objects >= AUTO_SHARD_MIN_ROWS {
                    self.auto_threads
                } else {
                    1
                }
            }
        }
    }

    /// Runs a batch call's `f` once per shard index — shard indices
    /// chunked over at most [`ShardedEngine::fan_threads`] scoped
    /// threads, or an inline walk when the budget is one — returning
    /// results in shard order.
    fn fan<R: Send>(&self, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let threads = self.fan_threads();
        if threads <= 1 {
            return (0..self.shards.len()).map(f).collect();
        }
        let indices: Vec<usize> = (0..self.shards.len()).collect();
        pool::parallel_chunks(&indices, threads, |chunk| {
            chunk.iter().map(|&s| f(s)).collect()
        })
    }

    /// Shard `s`'s slice of a global tidset, re-based at zero.
    fn local(&self, tidset: &BitSet, s: usize) -> BitSet {
        tidset.extract_block(self.offsets[s], self.offsets[s + 1] - self.offsets[s])
    }

    /// Writes per-shard local tidsets, in shard order, back at their
    /// shard offsets.
    fn stitch(&self, locals: impl Iterator<Item = BitSet>) -> BitSet {
        let mut global = BitSet::new(self.n_objects);
        for (s, local) in locals.enumerate() {
            global.splice_block(self.offsets[s], &local);
        }
        global
    }

    /// Applies a shard-local slice of an append `delta` to shard `s`:
    /// rows `offsets[s]..hi_new` of the grown snapshot become the shard's
    /// new view (for non-tail shards `hi_new` is the old boundary — only
    /// the universe can have changed; for the tail it is the grown row
    /// count). The local delta's epochs are synthesized from the shard's
    /// own epoch, so nested sharded inners keep their bookkeeping.
    fn apply_local(
        &mut self,
        s: usize,
        delta: &AppendDelta,
        hi_new: usize,
    ) -> Result<(), DeltaError> {
        let lo = self.offsets[s];
        let hi_old = self.offsets[s + 1];
        let local_db = Arc::new(delta.db().slice_rows(lo, hi_new));
        let info = AppendInfo {
            start: hi_old - lo,
            base_epoch: self.shards[s].epoch(),
            epoch: delta.epoch(),
            prior_items: delta.prior_items(),
        };
        let local = TxDelta::new(local_db, info);
        self.apply_shard_delta(s, &local)
    }

    /// Hands a synthesized shard-local delta to shard `s`'s inner
    /// backend.
    fn apply_shard_delta(&mut self, s: usize, local: &TxDelta) -> Result<(), DeltaError> {
        let name = self.shards[s].name();
        let engine = Arc::get_mut(&mut self.shards[s]).ok_or(DeltaError::SharedEngine)?;
        engine
            .as_delta_mut()
            .ok_or(DeltaError::NotDeltaAware(name))?
            .apply_delta(local)
    }

    /// Rebuilds shard `s` as rows `lo..hi` of `db` with a backend
    /// re-resolved by the slice's own density — how a spilled or
    /// density-flipped tail gets its representation. The slice is a
    /// zero-copy view; the rows it covers are charged to the engine's
    /// `bytes_copied` tally because the new backend reads them all.
    fn rebuild_shard(
        &mut self,
        db: &TransactionDb,
        lo: usize,
        hi: usize,
    ) -> Arc<dyn SupportEngine> {
        self.bytes_copied +=
            crate::storage::row_storage_bytes(hi - lo, db.entries_in_rows(lo, hi)) as u64;
        shard_backend(
            Arc::new(db.slice_rows(lo, hi)),
            &self.inner_kind,
            self.cached,
        )
    }

    /// Intersects per-shard intents into the global intent; an empty
    /// shard list (impossible by construction, but cheap to honour)
    /// yields the universe, the intent over no objects.
    fn meet_intents(&self, mut intents: impl Iterator<Item = Itemset>) -> Itemset {
        let Some(first) = intents.next() else {
            return Itemset::universe(self.n_items);
        };
        intents.fold(first, |acc, intent| {
            if acc.is_empty() {
                acc
            } else {
                acc.intersection(&intent)
            }
        })
    }
}

/// Builds one shard's backend: the inner kind resolved against the
/// slice's own density, optionally wrapped in a per-shard cache.
fn shard_backend(
    part: Arc<TransactionDb>,
    inner: &EngineKind,
    cached: bool,
) -> Arc<dyn SupportEngine> {
    let backend = inner.select_flat(&part).build(&part);
    if cached {
        Arc::new(CachedEngine::new(backend))
    } else {
        backend
    }
}

impl DeltaSupportEngine for ShardedEngine {
    /// Routes an append to the *tail* shard and a prefix expiry to the
    /// *head*: the shards whose rows a batch cannot touch are left
    /// alone.
    ///
    /// For an append, after the tail absorbs its local slice:
    ///
    /// * when the batch grew the item universe, the non-tail shards are
    ///   refreshed with empty local deltas so their universes agree —
    ///   without this, the intent of an empty extent would meet at the
    ///   *old* universe. Since the segmented store, the refreshed shard
    ///   views are zero-copy windows (`n_items` lives on the view), so
    ///   this touches no row storage;
    /// * when the configured inner kind is `Auto` and the batch flipped
    ///   the tail across a density threshold
    ///   ([`EngineKind::select_by_density`]), the tail backend is rebuilt
    ///   as the newly appropriate representation;
    /// * when the tail would outgrow [`SHARD_SPILL_BUDGET`], it spills
    ///   instead of delta-applying: the prefix up to the largest
    ///   64-aligned boundary is sealed as a regular shard and the
    ///   remainder (at most 64 rows) becomes the new tail, both built
    ///   fresh from the grown snapshot with their density re-resolved.
    ///   After any over-budget append the tail holds ≤ 64 rows, so every
    ///   later delta is batch-sized; a session seeded with large shards
    ///   pays one O(shard) seal on its first over-budget append,
    ///   amortized across the stream.
    ///
    /// For an expiry, shards that the expired prefix covers entirely are
    /// dropped wholesale (their delta-copy tallies folded into the
    /// engine's own so the merged counter stays monotone), the shard the
    /// cut lands in absorbs a synthesized shard-local expiry, and every
    /// surviving boundary renumbers down by the expired row count —
    /// possibly off 64-alignment, which the stitching primitives accept.
    /// When everything expires, one empty shard is rebuilt over the
    /// empty snapshot. No row data is read, so nothing is charged to
    /// `bytes_copied`.
    fn apply_delta(&mut self, delta: &TxDelta) -> Result<(), DeltaError> {
        check_epoch(self.epoch, delta)?;
        match delta {
            TxDelta::Append(append) => self.apply_append(append)?,
            TxDelta::Expire(expire) => self.apply_expire(expire)?,
        }
        self.epoch = delta.epoch();
        Ok(())
    }
}

impl ShardedEngine {
    fn apply_append(&mut self, delta: &AppendDelta) -> Result<(), DeltaError> {
        let n_new = delta.db().n_transactions();
        let tail = self.shards.len() - 1;
        if delta.grew_universe() {
            for s in 0..tail {
                let hi = self.offsets[s + 1];
                self.apply_local(s, delta, hi)?;
            }
        }
        let lo = self.offsets[tail];
        let tail_len = n_new - lo;
        if tail_len > SHARD_SPILL_BUDGET {
            // Seal everything up to the largest interior 64-aligned
            // boundary; the remainder (1..=64 rows) is the new tail. The
            // budget is ≥ one alignment quantum, so the split is always
            // interior — and rebuilding both sides directly from the
            // snapshot beats delta-applying a tail that is about to be
            // re-cut anyway.
            let split = lo + (tail_len - 1) / 64 * 64;
            // The replaced tail's own delta-copy tally must survive the
            // swap (the fold in cache_stats reads live shards only), or
            // the merged bytes_copied counter would run backwards across
            // a spill and underflow windowed before/after readings.
            self.bytes_copied += self.shards[tail].cache_stats().bytes_copied;
            let sealed = self.rebuild_shard(delta.db(), lo, split);
            let new_tail = self.rebuild_shard(delta.db(), split, n_new);
            self.shards[tail] = sealed;
            self.shards.push(new_tail);
            self.offsets.insert(self.offsets.len() - 1, split);
        } else {
            self.apply_local(tail, delta, n_new)?;
            if matches!(self.inner_kind, EngineKind::Auto) {
                // Re-evaluate the construction-time density choice for
                // the tail only: an appended batch can flip one shard's
                // regime.
                let want = self
                    .inner_kind
                    .select_by_density(delta.db().rows_density(lo, n_new), tail_len);
                if want != self.shards[tail].resolved_kind() {
                    // Same monotonicity guard as the spill path above.
                    self.bytes_copied += self.shards[tail].cache_stats().bytes_copied;
                    let flipped = self.rebuild_shard(delta.db(), lo, n_new);
                    self.shards[tail] = flipped;
                }
            }
        }
        self.n_objects = n_new;
        self.n_items = delta.db().n_items();
        *self.offsets.last_mut().unwrap() = n_new;
        Ok(())
    }

    fn apply_expire(&mut self, expire: &ExpireDelta) -> Result<(), DeltaError> {
        let k = expire.rows();
        if k == 0 {
            return Ok(());
        }
        // Shards the expired prefix swallows whole are dropped — keeping
        // their delta-copy tallies, so the merged counter stays monotone.
        let dropped = self
            .offsets
            .windows(2)
            .take_while(|bounds| bounds[1] <= k)
            .count();
        for shard in &self.shards[..dropped] {
            self.bytes_copied += shard.cache_stats().bytes_copied;
        }
        self.shards.drain(..dropped);
        self.offsets.drain(..dropped);
        if self.shards.is_empty() {
            // Everything expired (k was the whole view): restart with one
            // empty shard over the empty snapshot.
            self.shards.push(shard_backend(
                Arc::clone(expire.db_arc()),
                &self.inner_kind,
                self.cached,
            ));
            self.offsets = vec![0, 0];
            self.n_objects = 0;
            return Ok(());
        }
        // The first survivor straddles the cut (or starts exactly on
        // it): it absorbs a shard-local expiry of its slice of the
        // prefix, with epochs synthesized from its own bookkeeping.
        let lo = self.offsets[0];
        if lo < k {
            let hi = self.offsets[1];
            let prior = Arc::new(expire.prior().slice_rows(lo, hi));
            let shrunk = Arc::new(expire.db().slice_rows(0, hi - k));
            let info = ExpireInfo {
                rows: k - lo,
                base_epoch: self.shards[0].epoch(),
                epoch: expire.epoch(),
            };
            let local = TxDelta::expire(prior, shrunk, info);
            self.apply_shard_delta(0, &local)?;
        }
        // Surviving boundaries renumber down by the cut; the head clamps
        // to zero (it owned rows lo..hi with lo ≤ k).
        for offset in self.offsets.iter_mut() {
            *offset = offset.saturating_sub(k);
        }
        self.n_objects -= k;
        Ok(())
    }
}

impl SupportEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn resolved_kind(&self) -> EngineKind {
        EngineKind::Sharded {
            shards: self.shards.len(),
            inner: Box::new(self.inner_kind.clone()),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn as_delta_mut(&mut self) -> Option<&mut dyn DeltaSupportEngine> {
        Some(self)
    }

    fn is_sharded(&self) -> bool {
        true
    }

    fn n_objects(&self) -> usize {
        self.n_objects
    }

    fn n_items(&self) -> usize {
        self.n_items
    }

    // Point queries walk the shards on the calling thread (see the
    // module docs' thread model); only the batch calls below fan.

    fn cover(&self, item: Item) -> BitSet {
        self.stitch(self.shards.iter().map(|shard| shard.cover(item)))
    }

    fn tidset_of(&self, itemset: &Itemset) -> BitSet {
        self.stitch(self.shards.iter().map(|shard| shard.tidset_of(itemset)))
    }

    fn extend_tidset(&self, tidset: &BitSet, item: Item) -> BitSet {
        let locals = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| shard.extend_tidset(&self.local(tidset, s), item));
        self.stitch(locals)
    }

    fn support(&self, itemset: &Itemset) -> Support {
        self.shards.iter().map(|shard| shard.support(itemset)).sum()
    }

    fn item_supports(&self) -> Vec<Support> {
        let mut totals = vec![0; self.n_items];
        for shard_supports in self.fan(|s| self.shards[s].item_supports()) {
            for (total, support) in totals.iter_mut().zip(shard_supports) {
                *total += support;
            }
        }
        totals
    }

    fn closure_of_tidset(&self, tidset: &BitSet) -> Itemset {
        let intents = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| shard.closure_of_tidset(&self.local(tidset, s)));
        self.meet_intents(intents)
    }

    fn closure(&self, itemset: &Itemset) -> Itemset {
        self.closure_and_support(itemset).0
    }

    fn closure_and_support(&self, itemset: &Itemset) -> (Itemset, Support) {
        // One walk computes intent and support per shard, through the
        // shard's own closure path (and shard cache, when present).
        let per_shard: Vec<(Itemset, Support)> = self
            .shards
            .iter()
            .map(|shard| shard.closure_and_support(itemset))
            .collect();
        let support = per_shard.iter().map(|(_, s)| s).sum();
        let intents = per_shard.into_iter().map(|(intent, _)| intent);
        (self.meet_intents(intents), support)
    }

    fn count_candidates(&self, candidates: &[Itemset]) -> Vec<Support> {
        if candidates.is_empty() {
            return Vec::new();
        }
        // One fan-out per batch: each shard batch-counts every candidate
        // through its inner backend's own count_candidates, and the
        // shard partial counts sum columnwise.
        let mut totals = vec![0; candidates.len()];
        for shard_counts in self.fan(|s| self.shards[s].count_candidates(candidates)) {
            for (total, count) in totals.iter_mut().zip(shard_counts) {
                *total += count;
            }
        }
        totals
    }

    fn cache_stats(&self) -> CacheStats {
        let own = CacheStats {
            bytes_copied: self.bytes_copied,
            ..CacheStats::default()
        };
        self.shards
            .iter()
            .fold(own, |acc, shard| acc.merge(shard.cache_stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::DenseEngine;
    use super::*;
    use crate::paper_example;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    /// 200 objects over 12 items with a mixed structure: large enough for
    /// multi-shard partitions with non-trivial boundaries.
    fn wide_db() -> Arc<TransactionDb> {
        Arc::new(TransactionDb::from_rows(
            (0..200u32)
                .map(|t| vec![t % 7, 7 + t % 5, (t / 3) % 12])
                .collect(),
        ))
    }

    fn probes() -> Vec<Itemset> {
        vec![
            Itemset::empty(),
            set(&[0]),
            set(&[3]),
            set(&[7]),
            set(&[0, 7]),
            set(&[2, 9, 11]),
            set(&[99]),
        ]
    }

    #[test]
    fn agrees_with_dense_on_every_query() {
        let db = wide_db();
        let dense = DenseEngine::from_horizontal(&db);
        for k in [1, 2, 3, 5, 8] {
            for parallelism in [Parallelism::Off, Parallelism::Fixed(3)] {
                let sharded = ShardedEngine::from_horizontal(&db, k, &EngineKind::Auto)
                    .parallelism(parallelism);
                assert_eq!(sharded.n_shards(), k);
                assert_eq!(sharded.n_objects(), dense.n_objects());
                assert_eq!(sharded.n_items(), dense.n_items());
                assert_eq!(sharded.item_supports(), dense.item_supports());
                for probe in probes() {
                    assert_eq!(
                        sharded.support(&probe),
                        dense.support(&probe),
                        "k={k} support {probe:?}"
                    );
                    assert_eq!(
                        sharded.tidset_of(&probe),
                        dense.tidset_of(&probe),
                        "k={k} tidset {probe:?}"
                    );
                    assert_eq!(
                        sharded.closure(&probe),
                        dense.closure(&probe),
                        "k={k} closure {probe:?}"
                    );
                    assert_eq!(
                        sharded.closure_and_support(&probe),
                        dense.closure_and_support(&probe),
                        "k={k} closure+support {probe:?}"
                    );
                }
                let candidates = probes();
                assert_eq!(
                    sharded.count_candidates(&candidates),
                    dense.count_candidates(&candidates),
                    "k={k} batch"
                );
                let item = Item::new(7);
                assert_eq!(sharded.cover(item), dense.cover(item), "k={k} cover");
                let base = dense.tidset_of(&set(&[0]));
                assert_eq!(
                    sharded.extend_tidset(&base, item),
                    dense.extend_tidset(&base, item),
                    "k={k} extend"
                );
            }
        }
    }

    #[test]
    fn paper_example_closures_survive_sharding() {
        let db = Arc::new(paper_example());
        for k in [1, 2, 4, 8] {
            let engine = ShardedEngine::from_horizontal(&db, k, &EngineKind::Dense);
            assert_eq!(engine.closure(&set(&[2])), set(&[2, 5]), "k={k}");
            assert_eq!(engine.closure(&set(&[4])), set(&[1, 3, 4]), "k={k}");
            let (closure, support) = engine.closure_and_support(&set(&[2, 3]));
            assert_eq!(closure, set(&[2, 3, 5]), "k={k}");
            assert_eq!(support, 3, "k={k}");
            // Unsupported itemsets close to the universe across shards too.
            assert_eq!(engine.closure(&set(&[1, 4, 5])), Itemset::universe(6));
        }
    }

    #[test]
    fn per_shard_density_resolution() {
        // A dense head (density > 0.6 within the first 64 rows) and a
        // long mid-density tail: Auto picks per shard.
        let rows: Vec<Vec<u32>> = (0..128u32)
            .map(|t| {
                if t < 64 {
                    (0..6).filter(|i| *i != t % 6).collect()
                } else {
                    vec![t % 3, 3 + t % 2]
                }
            })
            .collect();
        let db = Arc::new(TransactionDb::from_rows(rows));
        let engine = ShardedEngine::from_horizontal(&db, 2, &EngineKind::Auto);
        assert_eq!(engine.shard_names(), vec!["diffset", "dense"]);
        // And the split engine still answers like the dense reference.
        let dense = DenseEngine::from_horizontal(&db);
        for probe in probes() {
            assert_eq!(engine.support(&probe), dense.support(&probe), "{probe:?}");
            assert_eq!(engine.closure(&probe), dense.closure(&probe), "{probe:?}");
        }
    }

    #[test]
    fn empty_database() {
        let db = Arc::new(TransactionDb::from_rows(vec![]));
        let engine = ShardedEngine::from_horizontal(&db, 4, &EngineKind::Auto);
        assert_eq!(engine.n_objects(), 0);
        assert_eq!(engine.support(&Itemset::empty()), 0);
        assert!(engine.item_supports().is_empty());
        assert_eq!(engine.closure(&Itemset::empty()), Itemset::empty());
    }

    #[test]
    fn shard_caches_aggregate_through_cache_stats() {
        let db = wide_db();
        let engine = ShardedEngine::with_shard_caches(&db, 3, &EngineKind::Dense)
            .parallelism(Parallelism::Off);
        assert_eq!(engine.cache_stats(), CacheStats::default());
        let _ = engine.closure(&set(&[0]));
        let first = engine.cache_stats();
        assert_eq!(first.misses, 3, "one miss per shard cache");
        let _ = engine.closure(&set(&[0]));
        let second = engine.cache_stats();
        assert_eq!(second.hits, 3, "one hit per shard cache");
        assert_eq!(second.misses, 3);
    }

    #[test]
    fn plain_shards_report_zero_stats() {
        let db = wide_db();
        let engine = ShardedEngine::from_horizontal(&db, 2, &EngineKind::Dense);
        let _ = engine.closure(&set(&[1]));
        assert_eq!(engine.cache_stats(), CacheStats::default());
    }

    fn assert_engines_agree(sharded: &ShardedEngine, reference: &DenseEngine, label: &str) {
        assert_eq!(sharded.n_objects(), reference.n_objects(), "{label}");
        assert_eq!(sharded.n_items(), reference.n_items(), "{label}");
        assert_eq!(
            sharded.item_supports(),
            reference.item_supports(),
            "{label}"
        );
        for probe in probes() {
            assert_eq!(
                sharded.support(&probe),
                reference.support(&probe),
                "{label}: support {probe:?}"
            );
            assert_eq!(
                sharded.tidset_of(&probe),
                reference.tidset_of(&probe),
                "{label}: tidset {probe:?}"
            );
            assert_eq!(
                sharded.closure_and_support(&probe),
                reference.closure_and_support(&probe),
                "{label}: closure {probe:?}"
            );
        }
    }

    #[test]
    fn apply_delta_routes_to_tail_and_answers_like_fresh() {
        let mut db = TransactionDb::clone(&wide_db());
        let shared = Arc::new(db.clone());
        let mut engine = ShardedEngine::from_horizontal(&shared, 3, &EngineKind::Auto);
        assert_eq!(engine.epoch(), 0);
        // Three appends: a plain batch, a universe-growing batch, an
        // empty batch. After each the engine answers like a fresh build.
        let batches: Vec<Vec<Vec<u32>>> = vec![
            (0..40u32).map(|t| vec![t % 7, 7 + t % 5]).collect(),
            vec![vec![2, 13], vec![0, 1, 2]],
            vec![],
        ];
        for (i, batch) in batches.into_iter().enumerate() {
            let info = db.append_rows(batch).unwrap();
            let grown = Arc::new(db.clone());
            let delta = TxDelta::new(grown.clone(), info);
            engine.apply_delta(&delta).unwrap();
            assert_eq!(engine.epoch(), info.epoch);
            let reference = DenseEngine::from_horizontal(&grown);
            assert_engines_agree(&engine, &reference, &format!("batch {i}"));
        }
        // Out-of-order deltas are rejected.
        let info = db.append_rows(vec![vec![1]]).unwrap();
        let _skipped = TxDelta::new(Arc::new(db.clone()), info);
        let info2 = db.append_rows(vec![vec![2]]).unwrap();
        let stale = TxDelta::new(Arc::new(db.clone()), info2);
        assert_eq!(
            engine.apply_delta(&stale),
            Err(DeltaError::EpochMismatch {
                engine: 3,
                delta: 4
            })
        );
    }

    #[test]
    fn tail_spills_past_the_64_row_budget_on_aligned_boundaries() {
        let mut db = TransactionDb::from_rows((0..64u32).map(|t| vec![t % 5]).collect());
        let shared = Arc::new(db.clone());
        let mut engine = ShardedEngine::from_horizontal(&shared, 1, &EngineKind::Auto);
        assert_eq!(engine.n_shards(), 1);
        // +60 rows: tail 124 > 64 → spill seals rows 0..64, tail = 60.
        let info = db
            .append_rows((0..60u32).map(|t| vec![t % 5, 5]).collect())
            .unwrap();
        let grown = Arc::new(db.clone());
        engine
            .apply_delta(&TxDelta::new(grown.clone(), info))
            .unwrap();
        assert_eq!(engine.n_shards(), 2);
        // Interior boundaries stay 64-aligned.
        for &offset in &engine.offsets[1..engine.offsets.len() - 1] {
            assert_eq!(offset % 64, 0, "boundary {offset} unaligned");
        }
        assert_engines_agree(
            &engine,
            &DenseEngine::from_horizontal(&grown),
            "after spill",
        );
        // A big batch seals one large aligned prefix in a single spill.
        let info = db
            .append_rows((0..200u32).map(|t| vec![t % 5]).collect())
            .unwrap();
        let grown = Arc::new(db.clone());
        engine
            .apply_delta(&TxDelta::new(grown.clone(), info))
            .unwrap();
        assert_eq!(engine.n_shards(), 3);
        let tail_len = engine.offsets[3] - engine.offsets[2];
        assert!(
            tail_len <= SHARD_SPILL_BUDGET,
            "tail {tail_len} over budget"
        );
        for &offset in &engine.offsets[1..engine.offsets.len() - 1] {
            assert_eq!(offset % 64, 0, "boundary {offset} unaligned");
        }
        assert_engines_agree(
            &engine,
            &DenseEngine::from_horizontal(&grown),
            "after second spill",
        );
    }

    #[test]
    fn tail_density_flip_is_reevaluated_at_the_exact_boundary() {
        // Head: 64 mid-density rows. Tail: 32 rows at density exactly
        // 0.60 over the 5-item universe — the Auto rule is *strictly*
        // above 0.60, so the tail resolves dense.
        let rows: Vec<Vec<u32>> = (0..96u32)
            .map(|t| {
                if t < 64 {
                    vec![t % 5, (t + 2) % 5]
                } else {
                    vec![t % 5, (t + 1) % 5, (t + 2) % 5]
                }
            })
            .collect();
        let mut db = TransactionDb::from_rows(rows);
        let shared = Arc::new(db.clone());
        let mut engine = ShardedEngine::from_horizontal(&shared, 2, &EngineKind::Auto);
        assert_eq!(engine.shard_names(), vec!["dense", "dense"]);

        // Appending rows of exactly 3 items keeps the tail at density
        // 0.60 — at the boundary, not across it: no flip.
        let info = db
            .append_rows(
                (0..8u32)
                    .map(|t| vec![t % 5, (t + 1) % 5, (t + 2) % 5])
                    .collect(),
            )
            .unwrap();
        engine
            .apply_delta(&TxDelta::new(Arc::new(db.clone()), info))
            .unwrap();
        assert_eq!(engine.shard_names(), vec!["dense", "dense"], "at boundary");

        // Appending full rows pushes the tail strictly past 0.60: the
        // batch flips the shard and apply_delta re-resolves it.
        let info = db
            .append_rows((0..8u32).map(|_| vec![0, 1, 2, 3, 4]).collect())
            .unwrap();
        let grown = Arc::new(db.clone());
        engine
            .apply_delta(&TxDelta::new(grown.clone(), info))
            .unwrap();
        assert_eq!(
            engine.shard_names(),
            vec!["dense", "diffset"],
            "past boundary"
        );
        assert_eq!(
            engine.resolved_kind(),
            EngineKind::Sharded {
                shards: 2,
                inner: Box::new(EngineKind::Auto),
            }
        );
        // And still answers like a fresh dense build.
        assert_engines_agree(&engine, &DenseEngine::from_horizontal(&grown), "after flip");

        // An explicit (non-Auto) inner kind never flips.
        let mut db2 = TransactionDb::from_rows((0..96u32).map(|t| vec![t % 5]).collect());
        let mut pinned =
            ShardedEngine::from_horizontal(&Arc::new(db2.clone()), 2, &EngineKind::TidList);
        let info = db2
            .append_rows((0..8u32).map(|_| vec![0, 1, 2, 3, 4]).collect())
            .unwrap();
        pinned
            .apply_delta(&TxDelta::new(Arc::new(db2), info))
            .unwrap();
        assert_eq!(pinned.shard_names(), vec!["tid-list", "tid-list"]);
    }

    #[test]
    fn bytes_copied_is_monotone_across_spills_and_flips() {
        // Regression: replacing the tail shard (spill or density flip)
        // must not drop that shard's accumulated delta-copy tally — the
        // merged counter is read in before/after windows and must never
        // run backwards.
        let mut db = TransactionDb::from_rows((0..64u32).map(|t| vec![t % 5]).collect());
        let mut engine =
            ShardedEngine::from_horizontal(&Arc::new(db.clone()), 1, &EngineKind::Auto);
        let mut last = 0u64;
        // 70 single-row appends cross the 64-row spill budget (and flip
        // densities as full rows arrive).
        for i in 0..70u32 {
            let row = if i % 3 == 0 {
                vec![0, 1, 2, 3, 4]
            } else {
                vec![i % 5]
            };
            let info = db.append_rows(vec![row]).unwrap();
            engine
                .apply_delta(&TxDelta::new(Arc::new(db.clone()), info))
                .unwrap();
            let now = engine.cache_stats().bytes_copied;
            assert!(now >= last, "bytes_copied ran backwards: {last} -> {now}");
            last = now;
        }
        assert!(engine.n_shards() >= 2, "the stream must have spilled");
    }

    #[test]
    fn expiry_drops_head_shards_and_survives_dealigned_boundaries() {
        let mut db = TransactionDb::clone(&wide_db());
        let shared = Arc::new(db.clone());
        let mut engine = ShardedEngine::from_horizontal(&shared, 3, &EngineKind::Auto);
        assert_eq!(engine.n_shards(), 3);
        // Expire 70 rows: the first 64-row shard dies wholesale, the
        // straddler absorbs a local expiry, and the surviving boundaries
        // renumber off 64-alignment.
        let prior = Arc::new(db.clone());
        let info = db.expire_rows(70);
        let shrunk = Arc::new(db.clone());
        engine
            .apply_delta(&TxDelta::expire(prior, shrunk.clone(), info))
            .unwrap();
        assert_eq!(engine.n_shards(), 2);
        assert_eq!(engine.n_objects(), 130);
        assert!(
            engine.offsets[1..engine.offsets.len() - 1]
                .iter()
                .any(|o| o % 64 != 0),
            "the cut must de-align a boundary: {:?}",
            engine.offsets
        );
        assert_engines_agree(
            &engine,
            &DenseEngine::from_horizontal(&shrunk),
            "after expiry",
        );
        // Appends keep working on the renumbered shards.
        let info = db
            .append_rows((0..10u32).map(|t| vec![t % 7]).collect())
            .unwrap();
        let grown = Arc::new(db.clone());
        engine
            .apply_delta(&TxDelta::new(grown.clone(), info))
            .unwrap();
        assert_engines_agree(
            &engine,
            &DenseEngine::from_horizontal(&grown),
            "append after expiry",
        );
        // Expiring the whole view restarts with one empty shard.
        let prior = Arc::new(db.clone());
        let rows = db.n_transactions();
        let info = db.expire_rows(rows);
        let empty = Arc::new(db.clone());
        engine
            .apply_delta(&TxDelta::expire(prior, empty, info))
            .unwrap();
        assert_eq!(engine.n_shards(), 1);
        assert_eq!(engine.n_objects(), 0);
        assert_eq!(engine.support(&Itemset::empty()), 0);
        // Expiry never shrinks the universe, so the intent over no
        // objects is the full 12-item universe (unlike a fresh empty db).
        assert_eq!(engine.closure(&Itemset::empty()), Itemset::universe(12));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let db = Arc::new(paper_example());
        let engine = ShardedEngine::from_horizontal(&db, 0, &EngineKind::Dense);
        assert_eq!(engine.n_shards(), 1);
        assert_eq!(engine.support(&set(&[2, 5])), 4);
    }
}
