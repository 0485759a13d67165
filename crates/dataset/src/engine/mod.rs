//! Pluggable support-counting and closure engines.
//!
//! Every construction in this workspace — the Close/A-Close/CHARM miners,
//! NextClosure, the pseudo-closed (stem-base) computation, the rule-base
//! derivations — reduces to one hot primitive: given an itemset, find its
//! *extent* (tidset), its *support*, and its Galois *closure*. The seed
//! implemented that primitive independently in five places with no shared
//! caching and no way to pick a representation per workload;
//! [`SupportEngine`] is the single interface they all go through now.
//!
//! # Backends
//!
//! Two interchangeable representations of the per-item covers:
//!
//! * [`DenseEngine`] — one dense [`BitSet`] per item (the transposed
//!   relation). Intersections are word-wise `AND` + popcount: unbeatable
//!   when covers occupy a sizable fraction of `|O|` (MUSHROOMS, census
//!   extracts) and perfectly fine in the mid range, which is why it is
//!   the default.
//! * [`TidListEngine`] — one sorted `Vec<u32>` of transaction ids per
//!   item (the paper-era vertical format of Eclat/CHARM). Intersection
//!   cost scales with the cover *sizes* rather than with `|O|/64` words,
//!   so tid-lists win when covers are tiny relative to `|O|`: very sparse
//!   baskets (T10I4-style) over large object counts.
//!
//! Both backends agree bit-for-bit on every query (cross-backend
//! equivalence is property-tested in `tests/proptests.rs` and
//! `tests/equivalence.rs`); they differ only in time/space trade-offs,
//! which makes the representation an ablatable axis — the `counting`
//! bench swaps backends with one [`EngineKind`] value. Engines never
//! spawn threads: parallel mining fans whole candidate levels over
//! chunks instead (see [`crate::pool`]).
//!
//! # Close's level step
//!
//! Besides the point queries, [`SupportEngine::close_candidates`] answers
//! one whole candidate level at once: given the candidates and a
//! threshold, it returns `(closure, support)` for every candidate that
//! reaches it and nothing for the rest. Both backends answer it with two
//! mechanisms:
//!
//! * **The pair pass.** When every candidate is a 2-itemset, one pass
//!   over the horizontal rows adds each pair of batch items a row holds
//!   into a triangular `u32` array over the items the batch mentions;
//!   extents are then built for the frequent pairs only.
//!   [`SupportEngine::count_candidates`] takes the same pass. The pass is
//!   taken only when it costs less than the per-candidate intersections,
//!   a rule that reads nothing but the relation and the batch: the pass
//!   costs `rows × L̄(L̄−1)/2` (with `L̄` the mean row length) plus the
//!   triangle's cells; answering per candidate costs `candidates ×
//!   ⌈rows/64⌉` words on dense bitsets and the sum of the candidates'
//!   cover lengths on tid-lists. Wide pair levels over many short rows
//!   (sparse baskets) take the pass; small or dense relations, where one
//!   cover is a few words, keep the per-candidate path.
//! * **The generator floor.** Every row of `g(X)` contains `X`, so
//!   `h(X) ⊇ X`: an intent merged from the extent of a known `X` stops
//!   intersecting rows once it has shrunk to `|X|` items. The backends'
//!   [`SupportEngine::closure`] and [`SupportEngine::closure_and_support`]
//!   stop there too; [`SupportEngine::closure_of_tidset`], which knows no
//!   generator, visits every row of its tidset as before.
//!
//! # Intents on dense covers
//!
//! [`DenseEngine`] holds every item's cover, so it can also find an
//! intent the other way round: `f(T) = {i : T ⊆ cover(i)}`, and only items
//! whose support reaches `|T|` can pass. Each of its intents — in
//! `close_candidates`, `closure_and_support` and `closure_of_tidset`
//! alike — takes the cheaper of two paths, again a rule over the relation
//! with no knob: the cover tests cost `(items with support ≥ |T|) ×
//! ⌈|O|/64⌉` words, each test exiting at the first word group of `T`
//! outside the cover; the row merge costs `|T| × L̄` entries at most. A
//! census extent of hundreds of rows over a few dozen frequent items
//! takes the cover tests; a small extent under long covers keeps the
//! merge and its floor. The item supports are counted once per state of
//! the covers, by the first intent after [`DeltaSupportEngine::apply_delta`]
//! moves them, never per candidate. [`TidListEngine`] always merges rows.
//!
//! # Streaming
//!
//! Every backend is *delta-aware*, in both directions: when transactions
//! are appended to the database ([`TransactionDb::append_rows`]) or a
//! prefix of rows expires out of a window
//! ([`TransactionDb::expire_rows`]), a [`TxDelta`] describes the batch
//! and [`DeltaSupportEngine::apply_delta`] absorbs it in place. On
//! append, dense covers extend, tid-lists tail-append, and the closure
//! cache invalidates only the entries the delta can change. On expiry,
//! dense covers drop their prefix bits, tid-lists drain their sorted
//! heads and renumber, and the cache evicts exactly the entries some
//! expired row witnessed. See the [`delta`] module.
//!
//! [`TransactionDb::append_rows`]: crate::TransactionDb::append_rows
//! [`TransactionDb::expire_rows`]: crate::TransactionDb::expire_rows
//!
//! # Selection and caching
//!
//! [`EngineKind::Auto`] picks a backend from the relation's density and
//! row count (see [`EngineKind::select`]). [`CachedEngine`] wraps any
//! backend with a memoizing closure cache keyed by itemset hash:
//! NextClosure and the stem-base construction re-close the same
//! candidate sets many times while walking the lectic order, and the
//! cache turns those repeats into lookups. [`MiningContext`] always
//! installs the cache, so every consumer rides it transparently.
//!
//! [`MiningContext`]: crate::MiningContext

mod cache;
pub mod delta;
mod dense;
mod tidlist;

pub use cache::{CacheStats, CachedEngine};
pub use delta::{AppendDelta, DeltaError, DeltaSupportEngine, ExpireDelta, TxDelta};
pub use dense::DenseEngine;
pub use tidlist::{intersect, intersect_count, TidList, TidListEngine};

use crate::bitset::BitSet;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::support::Support;
use crate::transaction::TransactionDb;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// The unified support-counting and closure interface.
///
/// An engine represents one data-mining context `D = (O, I, R)` in some
/// vertical format and answers the Galois-connection queries every miner
/// and basis construction needs. Tidsets cross the trait boundary as
/// [`BitSet`]s (the canonical dense form) regardless of the backend's
/// internal representation.
///
/// Implementations must be consistent: for every itemset `X`,
/// `support(X) == tidset_of(X).count()` and
/// `closure(X) == closure_of_tidset(&tidset_of(X))`; and for every batch,
/// `close_candidates(candidates, min_count)` lists, in candidate order,
/// `(X, closure_of_tidset(&t), t.count())` with `t = tidset_of(X)` for
/// exactly the candidates `X` with `t.count() >= min_count`.
pub trait SupportEngine: fmt::Debug + Send + Sync {
    /// Stable backend identifier for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// The concrete [`EngineKind`] this engine resolved to at
    /// construction — never `Auto`. `Auto` picks a backend exactly once,
    /// when the engine is built; deltas absorbed through
    /// [`DeltaSupportEngine::apply_delta`] never re-resolve it, even when
    /// they move the density across the selection threshold. Wrappers
    /// delegate.
    fn resolved_kind(&self) -> EngineKind;

    /// The append epoch of the data this engine reflects (see
    /// [`TransactionDb::epoch`](crate::TransactionDb::epoch)). Engines
    /// built before any append report 0; a successful
    /// [`DeltaSupportEngine::apply_delta`] advances it.
    fn epoch(&self) -> u64 {
        0
    }

    /// This engine as a [`DeltaSupportEngine`], when the backend supports
    /// in-place append batches. The default (`None`) marks a backend that
    /// must be rebuilt instead.
    fn as_delta_mut(&mut self) -> Option<&mut dyn DeltaSupportEngine> {
        None
    }

    /// Number of objects `|O|`.
    fn n_objects(&self) -> usize;

    /// Size of the item universe `|I|`.
    fn n_items(&self) -> usize;

    /// The cover (tidset) of a single item, materialized as a bitset.
    /// Items outside the universe have an empty cover.
    fn cover(&self, item: Item) -> BitSet;

    /// The extent `g(X)`: objects containing every item of `X`. The
    /// extent of `∅` is all of `O`; items outside the universe empty it.
    fn tidset_of(&self, itemset: &Itemset) -> BitSet;

    /// Refines a known extent by one item: `g(X ∪ {i}) = g(X) ∩ g({i})`.
    fn extend_tidset(&self, tidset: &BitSet, item: Item) -> BitSet {
        tidset.intersection(&self.cover(item))
    }

    /// Absolute support `|g(X)|`. Backends override this with paths that
    /// avoid materializing the tidset where possible.
    fn support(&self, itemset: &Itemset) -> Support {
        self.tidset_of(itemset).count() as Support
    }

    /// Per-item supports (level 1 of every levelwise miner).
    fn item_supports(&self) -> Vec<Support>;

    /// The intent `f(T)` of an object set: items common to every object
    /// of `T`. The intent of the empty tidset is the full universe.
    fn closure_of_tidset(&self, tidset: &BitSet) -> Itemset;

    /// The Galois closure `h(X) = f(g(X))`.
    fn closure(&self, itemset: &Itemset) -> Itemset {
        self.closure_and_support(itemset).0
    }

    /// Closure and support in one pass over the extent. A row merge
    /// stops at the generator floor `|X|`; dense covers may answer by
    /// cover tests instead (see the module docs).
    fn closure_and_support(&self, itemset: &Itemset) -> (Itemset, Support) {
        let tidset = self.tidset_of(itemset);
        let support = tidset.count() as Support;
        (self.closure_of_tidset(&tidset), support)
    }

    /// Batch support counting for a candidate level. The default maps
    /// [`SupportEngine::support`]; backends may reuse partial
    /// intersections across candidates, and count an all-pairs batch in
    /// one pass over the rows when that is cheaper (see the module docs).
    fn count_candidates(&self, candidates: &[Itemset]) -> Vec<Support> {
        candidates.iter().map(|c| self.support(c)).collect()
    }

    /// Close's level step: `(X, h(X), supp X)` for every candidate `X`
    /// with `supp X >= min_count`, in candidate order, and nothing for the
    /// rest. Equal to `tidset_of` → `count` → `closure_of_tidset` per
    /// candidate, kept at `min_count` (see the consistency contract
    /// above), but answered as one batch: an all-pairs level is counted in
    /// one pass over the rows when that is cheaper, so extents are built
    /// for its frequent pairs only, and every intent merged from rows
    /// stops at its candidate's size (see the module docs).
    fn close_candidates<'c>(
        &self,
        candidates: &'c [Itemset],
        min_count: Support,
    ) -> Vec<(&'c Itemset, Itemset, Support)>;

    /// Closure-cache statistics, when the engine carries a cache (see
    /// [`CachedEngine`]). Plain backends report zeros everywhere except
    /// [`CacheStats::bytes_copied`], the delta-copy tally every
    /// delta-aware backend maintains.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// Computes the intent of the objects `tids` (ascending) by
/// merge-intersecting their horizontal transactions — the tid-list
/// backend's only closure path, and the dense backend's whenever it
/// prices below cover tests (see the module docs).
///
/// `floor` is the size of the itemset `X` whose extent `tids` is, or 0 for
/// an arbitrary object set. Every row of `g(X)` contains `X`, so the
/// intent never shrinks below `|X|`, and once it is down to `|X|` items it
/// *is* `X`: the merge stops there instead of visiting every row (the
/// generator floor). An empty `tids` yields the universe whatever the
/// floor. Cost is `|T| · L̄` row entries at most (`L̄` the mean row
/// length); on dense extents of hundreds of rows the floor rarely stops
/// it early.
pub(crate) fn intent_of(
    db: &TransactionDb,
    tids: impl IntoIterator<Item = usize>,
    floor: usize,
) -> Itemset {
    let mut tids = tids.into_iter();
    let Some(first) = tids.next() else {
        return Itemset::universe(db.n_items());
    };
    let mut intent = Itemset::from_sorted(db.transaction(first).to_vec());
    for t in tids {
        if intent.len() <= floor {
            break;
        }
        intent.intersect_with(db.transaction(t));
    }
    intent
}

/// An all-pairs candidate batch counted in one pass over the horizontal
/// rows: every pair of batch items a row holds is added into a triangular
/// `u32` array over the items the batch mentions. Shared by both backends'
/// [`SupportEngine::count_candidates`] and
/// [`SupportEngine::close_candidates`].
pub(crate) struct PairPass {
    /// Triangle index of each item the batch mentions (numbered in item
    /// order, so a sorted row maps to ascending indices), [`PairPass::NONE`]
    /// for every other item of the universe.
    index: Vec<u32>,
    mentioned: usize,
}

impl PairPass {
    const NONE: u32 = u32::MAX;

    /// Plans the pass for `candidates` over `db`. `None` unless every
    /// candidate is a 2-itemset and the pass costs less than
    /// `per_candidate`, the backend's cost of answering the batch one
    /// extent at a time: the pass costs `rows × L̄(L̄−1)/2` pair visits
    /// (`L̄` the mean row length) plus the triangle's cells.
    pub(crate) fn plan(
        db: &TransactionDb,
        candidates: &[Itemset],
        per_candidate: impl FnOnce() -> f64,
    ) -> Option<PairPass> {
        if candidates.is_empty()
            || candidates.iter().any(|c| c.len() != 2)
            || u32::try_from(db.n_transactions()).is_err()
        {
            return None;
        }
        let mut index = vec![Self::NONE; db.n_items()];
        for item in candidates.iter().flat_map(Itemset::iter) {
            if let Some(slot) = index.get_mut(item.index()) {
                *slot = 0;
            }
        }
        let mut mentioned = 0;
        for slot in index.iter_mut().filter(|slot| **slot != Self::NONE) {
            *slot = mentioned as u32;
            mentioned += 1;
        }
        let len = db.avg_transaction_len();
        let pass = db.n_transactions() as f64 * (len * (len - 1.0) / 2.0).max(0.0)
            + triangle(mentioned) as f64;
        (pass < per_candidate()).then_some(PairPass { index, mentioned })
    }

    /// Takes the pass: counts every pair of mentioned items over `db`.
    pub(crate) fn count(self, db: &TransactionDb) -> PairCounts {
        let mut cells = vec![0u32; triangle(self.mentioned)];
        let mut held: Vec<usize> = Vec::new();
        for row in db.iter() {
            held.clear();
            held.extend(
                row.iter()
                    .map(|item| self.index[item.index()])
                    .filter(|&slot| slot != Self::NONE)
                    .map(|slot| slot as usize),
            );
            for (k, &a) in held.iter().enumerate() {
                let cells_of_a = &mut cells[self.row_start(a)..];
                for &b in &held[k + 1..] {
                    cells_of_a[b - a - 1] += 1;
                }
            }
        }
        PairCounts { pass: self, cells }
    }

    /// Row `a` of the triangle starts at `a·(2m − a − 1)/2`; the pair
    /// `(a, b)`, `a < b`, sits `b − a − 1` cells into it.
    fn row_start(&self, a: usize) -> usize {
        a * (2 * self.mentioned - a - 1) / 2
    }
}

/// The triangle a [`PairPass`] filled, read one pair at a time.
pub(crate) struct PairCounts {
    pass: PairPass,
    cells: Vec<u32>,
}

impl PairCounts {
    /// The support of a 2-itemset of the planned batch; 0 when it names
    /// an item outside the universe.
    pub(crate) fn support(&self, pair: &Itemset) -> Support {
        let slot = |item: Item| match self.pass.index.get(item.index()) {
            Some(&slot) if slot != PairPass::NONE => Some(slot as usize),
            _ => None,
        };
        match (slot(pair.as_slice()[0]), slot(pair.as_slice()[1])) {
            (Some(a), Some(b)) => Support::from(self.cells[self.pass.row_start(a) + b - a - 1]),
            _ => 0,
        }
    }
}

/// Cells of a strict triangle over `m` items: `m(m−1)/2`.
fn triangle(m: usize) -> usize {
    m * m.saturating_sub(1) / 2
}

/// Close's level step on a backend: candidates the pair pass (when the
/// backend takes it) counted below `min_count` are dropped without an
/// extent, and `close_one` answers every other candidate from its own
/// extent — `(h(X), supp X)`, or `None` below `min_count`.
pub(crate) fn close_level<'c>(
    db: &TransactionDb,
    candidates: &'c [Itemset],
    min_count: Support,
    pass: Option<PairPass>,
    close_one: impl Fn(&Itemset) -> Option<(Itemset, Support)>,
) -> Vec<(&'c Itemset, Itemset, Support)> {
    let counts = pass.map(|pass| pass.count(db));
    candidates
        .iter()
        .filter(|candidate| {
            counts
                .as_ref()
                .is_none_or(|counts| counts.support(candidate) >= min_count)
        })
        .filter_map(|candidate| {
            close_one(candidate).map(|(closure, support)| (candidate, closure, support))
        })
        .collect()
}

/// Which [`SupportEngine`] backend to build for a context.
///
/// Spelled `auto` / `dense` / `tid-list` in CLI and environment contexts
/// (see the [`FromStr`] and [`fmt::Display`] implementations; the two
/// round-trip).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Pick a backend from the dataset's density and size (see
    /// [`EngineKind::select`]).
    #[default]
    Auto,
    /// Dense bitset covers ([`DenseEngine`]).
    Dense,
    /// Sorted tid-lists ([`TidListEngine`]).
    TidList,
}

impl EngineKind {
    /// The concrete backends — the ablation axis for benchmarks and
    /// equivalence tests.
    pub const BACKENDS: [EngineKind; 2] = [EngineKind::Dense, EngineKind::TidList];

    /// Stable identifier, also the [`fmt::Display`] form.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Dense => "dense",
            EngineKind::TidList => "tid-list",
        }
    }

    /// Resolves `Auto` against a concrete database by density alone:
    /// tid-lists for very sparse relations over many rows (density
    /// strictly below 0.02 with at least 1024 rows — intersections then
    /// touch only the occupied entries), dense bitsets for everything
    /// else. Explicit kinds resolve to themselves.
    pub fn select(&self, db: &TransactionDb) -> EngineKind {
        match self {
            EngineKind::Auto if db.density() < 0.02 && db.n_transactions() >= 1024 => {
                EngineKind::TidList
            }
            EngineKind::Auto => EngineKind::Dense,
            other => *other,
        }
    }

    /// Builds the backend for a database (resolving `Auto` first).
    pub fn build(&self, db: &Arc<TransactionDb>) -> Arc<dyn SupportEngine> {
        match self.select(db) {
            EngineKind::Auto => unreachable!("select() returns a concrete kind"),
            EngineKind::Dense => Arc::new(DenseEngine::from_horizontal(db)),
            EngineKind::TidList => Arc::new(TidListEngine::from_horizontal(db)),
        }
    }

    /// Builds the backend and wraps it in a memoizing [`CachedEngine`].
    pub fn build_cached(&self, db: &Arc<TransactionDb>) -> Arc<CachedEngine> {
        Arc::new(CachedEngine::new(self.build(db)))
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing an [`EngineKind`] from its textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseEngineKindError(String);

impl fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown engine kind {:?}: expected auto, dense, or tid-list",
            self.0
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl FromStr for EngineKind {
    type Err = ParseEngineKindError;

    /// Parses `auto` / `dense` / `tid-list` (or `tidlist`), ignoring
    /// surrounding whitespace.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "auto" => Ok(EngineKind::Auto),
            "dense" => Ok(EngineKind::Dense),
            "tid-list" | "tidlist" => Ok(EngineKind::TidList),
            other => Err(ParseEngineKindError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    fn engines() -> Vec<Arc<dyn SupportEngine>> {
        let db = Arc::new(paper_example());
        EngineKind::BACKENDS.iter().map(|k| k.build(&db)).collect()
    }

    #[test]
    fn backends_agree_on_paper_example() {
        let probes = [
            Itemset::empty(),
            set(&[1]),
            set(&[2, 5]),
            set(&[2, 3, 5]),
            set(&[1, 2, 3, 5]),
            set(&[1, 4, 5]),
            set(&[0]),
            set(&[99]),
        ];
        let engines = engines();
        let reference = &engines[0];
        for engine in &engines[1..] {
            assert_eq!(engine.n_objects(), reference.n_objects());
            assert_eq!(engine.n_items(), reference.n_items());
            assert_eq!(engine.item_supports(), reference.item_supports());
            for probe in &probes {
                assert_eq!(
                    engine.support(probe),
                    reference.support(probe),
                    "{}: support of {probe:?}",
                    engine.name()
                );
                assert_eq!(
                    engine.tidset_of(probe),
                    reference.tidset_of(probe),
                    "{}: tidset of {probe:?}",
                    engine.name()
                );
                assert_eq!(
                    engine.closure(probe),
                    reference.closure(probe),
                    "{}: closure of {probe:?}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn known_closures_via_every_backend() {
        for engine in engines() {
            assert_eq!(
                engine.closure(&set(&[2])),
                set(&[2, 5]),
                "{}",
                engine.name()
            );
            assert_eq!(
                engine.closure(&set(&[4])),
                set(&[1, 3, 4]),
                "{}",
                engine.name()
            );
            assert_eq!(
                engine.closure(&set(&[1, 2])),
                set(&[1, 2, 3, 5]),
                "{}",
                engine.name()
            );
            let (closure, support) = engine.closure_and_support(&set(&[2, 3]));
            assert_eq!(closure, set(&[2, 3, 5]));
            assert_eq!(support, 3);
        }
    }

    /// 600 short rows over 40 items (some empty): a wide pair level over
    /// many short rows, where both backends take the pair pass.
    fn sparse_rows() -> Arc<TransactionDb> {
        Arc::new(TransactionDb::from_rows(
            (0..600u32)
                .map(|t| (0..t % 4).map(|k| (t * 7 + k * 13) % 40).collect())
                .collect(),
        ))
    }

    fn all_pairs(items: u32) -> Vec<Itemset> {
        (0..items)
            .flat_map(|a| (a + 1..items).map(move |b| set(&[a, b])))
            .collect()
    }

    #[test]
    fn batch_counting_matches_pointwise() {
        let candidates = vec![set(&[1, 3]), set(&[2, 5]), set(&[4, 5]), set(&[3])];
        for engine in engines() {
            let batch = engine.count_candidates(&candidates);
            let pointwise: Vec<Support> = candidates.iter().map(|c| engine.support(c)).collect();
            assert_eq!(batch, pointwise, "{}", engine.name());
        }
        // An all-pairs batch over many short rows goes through the pair
        // pass on both backends (pairs past the universe included).
        let db = sparse_rows();
        let mut pairs = all_pairs(40);
        pairs.push(set(&[3, 45]));
        assert!(DenseEngine::from_horizontal(&db).takes_pair_pass(&pairs));
        assert!(TidListEngine::from_horizontal(&db).takes_pair_pass(&pairs));
        for kind in EngineKind::BACKENDS {
            let engine = kind.build(&db);
            let batch = engine.count_candidates(&pairs);
            let pointwise: Vec<Support> = pairs.iter().map(|c| engine.support(c)).collect();
            assert_eq!(batch, pointwise, "{kind}");
            assert!(batch.iter().any(|&n| n > 0), "{kind}: a vacuous batch");
        }
    }

    #[test]
    fn the_generator_floor_never_changes_an_intent() {
        // Pseudo-random probes over the paper example and the sparse rows,
        // out-of-universe items (empty extents) included.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for db in [Arc::new(paper_example()), sparse_rows()] {
            let vertical = crate::vertical::VerticalDb::from_horizontal(&db);
            let span = db.n_items() as u64 + 2;
            for _ in 0..300 {
                let len = next(4);
                let x = Itemset::from_ids((0..len).map(|_| next(span) as u32));
                let extent = vertical.extent(&x);
                let floored = intent_of(&db, extent.iter(), x.len());
                assert_eq!(floored, intent_of(&db, extent.iter(), 0), "{x:?}");
                if extent.is_empty() {
                    assert_eq!(floored, Itemset::universe(db.n_items()), "{x:?}");
                }
            }
        }
    }

    #[test]
    fn extend_tidset_refines_by_one_item() {
        for engine in engines() {
            let base = engine.tidset_of(&set(&[2]));
            let refined = engine.extend_tidset(&base, Item::new(5));
            assert_eq!(
                refined,
                engine.tidset_of(&set(&[2, 5])),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn auto_selection_follows_density() {
        // Paper example: 16/30 density, tiny — dense bitsets.
        let db = paper_example();
        assert_eq!(EngineKind::Auto.select(&db), EngineKind::Dense);
        // Explicit kinds resolve to themselves.
        assert_eq!(EngineKind::TidList.select(&db), EngineKind::TidList);
        assert_eq!(EngineKind::Dense.select(&db), EngineKind::Dense);

        // A large sparse relation selects tid-lists...
        let sparse =
            |n: u32| TransactionDb::from_rows((0..n).map(|t| vec![t % 97, 97 + t % 101]).collect());
        let large = sparse(2000);
        assert!(large.density() < 0.02);
        assert_eq!(EngineKind::Auto.select(&large), EngineKind::TidList);
        // ...at any size past the row floor (no promotion to anything
        // else on big relations)...
        assert_eq!(
            EngineKind::Auto.select(&sparse(20_000)),
            EngineKind::TidList
        );
        // ...but not below it, however sparse.
        let small = sparse(1023);
        assert!(small.density() < 0.02);
        assert_eq!(EngineKind::Auto.select(&small), EngineKind::Dense);

        // A near-saturated relation stays on dense bitsets.
        let dense = TransactionDb::from_rows(
            (0..100u32)
                .map(|t| (0..8).filter(|i| *i != t % 8).collect())
                .collect(),
        );
        assert!(dense.density() > 0.60);
        assert_eq!(EngineKind::Auto.select(&dense), EngineKind::Dense);
    }

    #[test]
    fn display_and_fromstr_round_trip() {
        for kind in [EngineKind::Auto, EngineKind::Dense, EngineKind::TidList] {
            let text = kind.to_string();
            assert_eq!(text.parse::<EngineKind>().unwrap(), kind, "{text}");
        }
        assert_eq!(
            "tidlist".parse::<EngineKind>().unwrap(),
            EngineKind::TidList
        );
        assert_eq!(" dense ".parse::<EngineKind>().unwrap(), EngineKind::Dense);
        // Removed spellings (diffsets, row sharding) fail like any other
        // unknown kind, naming the accepted ones.
        for bad in [
            "bogus",
            "diffset",
            "sharded",
            "sharded:4",
            "sharded:x:dense",
            "sharded:0:dense",
            "sharded:2:auto",
            "sharded:4:dense",
        ] {
            let err = bad.parse::<EngineKind>().expect_err(bad).to_string();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.ends_with("expected auto, dense, or tid-list"), "{err}");
        }
    }

    #[test]
    fn empty_database_on_every_backend() {
        let db = Arc::new(TransactionDb::from_rows(vec![]));
        for kind in EngineKind::BACKENDS {
            let engine = kind.build(&db);
            assert_eq!(engine.n_objects(), 0);
            assert_eq!(engine.support(&Itemset::empty()), 0);
            assert!(engine.item_supports().is_empty());
        }
    }
}
