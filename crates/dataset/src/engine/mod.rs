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
//! Three interchangeable representations of the per-item covers, one per
//! density regime:
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
//! * [`DiffsetEngine`] — one sorted list of *missing* transaction ids per
//!   item (Zaki & Hsiao's dEclat representation). The complement of a
//!   near-full cover is tiny, so diffsets shine on extremely dense data
//!   where even bitsets waste work scanning runs of ones.
//!
//! All backends agree bit-for-bit on every query (cross-backend
//! equivalence is property-tested in `tests/proptests.rs` and
//! `tests/equivalence.rs`); they differ only in time/space trade-offs,
//! which makes the representation an ablatable axis — the `counting`
//! bench swaps backends with one [`EngineKind`] value.
//!
//! # Sharding
//!
//! On top of the serial backends, [`ShardedEngine`] partitions the
//! object set row-wise into `K` shards, holds one inner backend per shard
//! (any of the three, resolved per shard by that shard's density), and
//! answers every query by combining per-shard answers: supports add,
//! extents stitch at 64-aligned shard offsets, intents intersect. Point
//! queries walk the shards on the calling thread; only the batch calls
//! fan the shards across scoped threads (the miners parallelize whole
//! candidate levels instead). [`EngineKind::Sharded`] names such a configuration
//! (spelled `sharded:<k>:<inner>` in CLI/env contexts — [`EngineKind`]
//! implements [`FromStr`]), and [`EngineKind::Auto`]
//! promotes itself to a sharded engine above a row-count threshold when
//! more than one thread is available.
//!
//! # Streaming
//!
//! Every backend is *delta-aware*, in both directions: when transactions
//! are appended to the database ([`TransactionDb::append_rows`]) or a
//! prefix of rows expires out of a window
//! ([`TransactionDb::expire_rows`]), a [`TxDelta`] describes the batch
//! and [`DeltaSupportEngine::apply_delta`] absorbs it in place. On
//! append, dense covers extend, tid-lists tail-append, diffsets record
//! the new missing ids, the sharded engine routes the delta to its tail
//! shard (spilling into a new shard past the 64-row budget), and the
//! closure cache invalidates only the entries the delta can change. On
//! expiry, dense covers drop their prefix bits, tid-lists and diffsets
//! drain their sorted heads and renumber, the sharded engine drops
//! fully-expired head shards and hands the straddling shard a local
//! expiry, and the cache evicts exactly the entries some expired row
//! witnessed. See the [`delta`] module.
//!
//! [`TransactionDb::append_rows`]: crate::TransactionDb::append_rows
//! [`TransactionDb::expire_rows`]: crate::TransactionDb::expire_rows
//!
//! # Selection and caching
//!
//! [`EngineKind::Auto`] picks a backend from [`DatasetStats`]-style
//! density measurements (see [`EngineKind::select`]). [`CachedEngine`]
//! wraps any backend with a memoizing closure cache keyed by itemset
//! hash: NextClosure and the stem-base construction re-close the same
//! candidate sets many times while walking the lectic order, and the
//! cache turns those repeats into lookups. [`MiningContext`] always
//! installs the cache, so every consumer rides it transparently.
//!
//! [`MiningContext`]: crate::MiningContext
//! [`DatasetStats`]: crate::DatasetStats

mod cache;
pub mod delta;
mod dense;
mod diffset;
mod sharded;
mod tidlist;

pub use cache::{CacheStats, CachedEngine};
pub use delta::{AppendDelta, DeltaError, DeltaSupportEngine, ExpireDelta, TxDelta};
pub use dense::DenseEngine;
pub use diffset::DiffsetEngine;
pub use sharded::{ShardedEngine, SHARD_SPILL_BUDGET};
pub use tidlist::{intersect, intersect_count, TidList, TidListEngine};

use crate::bitset::BitSet;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::pool::Parallelism;
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
/// `closure(X) == closure_of_tidset(&tidset_of(X))`.
pub trait SupportEngine: fmt::Debug + Send + Sync {
    /// Stable backend identifier for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// The concrete [`EngineKind`] this engine resolved to at
    /// construction — never `Auto`. `Auto` picks a backend exactly once,
    /// when the engine is built; streaming appends do not re-resolve a
    /// flat engine (only the sharded backend re-evaluates its *tail
    /// shard* on [`DeltaSupportEngine::apply_delta`], where a batch can
    /// flip one shard across a density threshold). Wrappers delegate.
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

    /// Whether the engine fans its batch calls
    /// ([`SupportEngine::count_candidates`],
    /// [`SupportEngine::item_supports`]) over row shards internally (the
    /// sharded backend). Point queries never spawn on any engine, so a
    /// level of them may be fanned over chunks whatever the backend;
    /// only callers that would split one batch call into chunks use this
    /// to avoid nesting thread pools. Wrappers must delegate.
    fn is_sharded(&self) -> bool {
        false
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
        self.closure_of_tidset(&self.tidset_of(itemset))
    }

    /// Closure and support in one pass over the extent.
    fn closure_and_support(&self, itemset: &Itemset) -> (Itemset, Support) {
        let tidset = self.tidset_of(itemset);
        let support = tidset.count() as Support;
        (self.closure_of_tidset(&tidset), support)
    }

    /// Batch support counting for a candidate level. The default maps
    /// [`SupportEngine::support`]; backends may reuse partial
    /// intersections across candidates.
    fn count_candidates(&self, candidates: &[Itemset]) -> Vec<Support> {
        candidates.iter().map(|c| self.support(c)).collect()
    }

    /// Closure-cache statistics, when the engine carries a cache (see
    /// [`CachedEngine`]). Plain backends report zeros everywhere except
    /// [`CacheStats::bytes_copied`], the delta-copy tally every
    /// delta-aware backend maintains.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// Computes the intent of `tidset` by merge-intersecting horizontal
/// transactions — the closure path shared by every backend.
///
/// Cost is `O(|T| · avg|t|)`, which beats per-item cover subset tests
/// whenever extents are small (the common case once mining is below the
/// first levels).
pub(crate) fn intent_of(db: &TransactionDb, tidset: &BitSet) -> Itemset {
    let mut ones = tidset.iter();
    let Some(first) = ones.next() else {
        return Itemset::universe(db.n_items());
    };
    let mut intent = Itemset::from_sorted(db.transaction(first).to_vec());
    for t in ones {
        if intent.is_empty() {
            break;
        }
        intent.intersect_with(db.transaction(t));
    }
    intent
}

/// Which [`SupportEngine`] backend to build for a context.
///
/// Spelled `auto` / `dense` / `tid-list` / `diffset` /
/// `sharded:<k>:<inner>` in CLI and environment contexts (see the
/// [`FromStr`] and [`fmt::Display`] implementations; the two
/// round-trip).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Pick a backend from the dataset's density and size (see
    /// [`EngineKind::select`]).
    #[default]
    Auto,
    /// Dense bitset covers ([`DenseEngine`]).
    Dense,
    /// Sorted tid-lists ([`TidListEngine`]).
    TidList,
    /// Sorted complement lists ([`DiffsetEngine`]).
    Diffset,
    /// Row-sharded parallel engine ([`ShardedEngine`]): `shards` shards,
    /// each served by an `inner` backend resolved against that shard's
    /// own density.
    Sharded {
        /// Number of row shards (clamped to at least 1 when built).
        shards: usize,
        /// Backend built per shard; `Auto` resolves per shard by density
        /// (never to nested sharding), an explicit `Sharded` nests.
        inner: Box<EngineKind>,
    },
}

/// `Auto` promotes itself to a sharded engine at or above this row count
/// (when more than one thread is available): below it, fan-out overhead
/// eats the parallel win. [`ShardedEngine`] uses the same floor to
/// decide whether an `Auto`-policy engine actually spawns threads for its
/// batch calls, so a relation big enough to auto-shard is always big
/// enough to fan them.
pub const AUTO_SHARD_MIN_ROWS: usize = 1 << 14;

/// `Auto` caps its shard count here — past one socket's worth of cores,
/// support counting is memory-bandwidth-bound and extra shards only add
/// stitching work.
const AUTO_SHARD_MAX: usize = 8;

impl EngineKind {
    /// The three concrete serial backends — the ablation axis for
    /// benchmarks and equivalence tests (sharded configurations are
    /// parameterized and enumerated by the tests that need them).
    pub const BACKENDS: [EngineKind; 3] =
        [EngineKind::Dense, EngineKind::TidList, EngineKind::Diffset];

    /// Stable identifier (shard count and inner kind are carried by the
    /// [`fmt::Display`] form, not the name).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Dense => "dense",
            EngineKind::TidList => "tid-list",
            EngineKind::Diffset => "diffset",
            EngineKind::Sharded { .. } => "sharded",
        }
    }

    /// Resolves `Auto` against a concrete database, under the default
    /// ([`Parallelism::Auto`]) thread policy. Large relations
    /// (≥ [`AUTO_SHARD_MIN_ROWS`] rows) shard across the available
    /// threads; everything else gets the flat density choice of
    /// [`EngineKind::select_flat`].
    pub fn select(&self, db: &TransactionDb) -> EngineKind {
        self.select_par(db, Parallelism::Auto)
    }

    /// Resolves `Auto` against a concrete database and an explicit
    /// thread policy: the promotion to sharding only happens when the
    /// policy grants more than one thread (so `Off` never shards), and
    /// the shard count follows the policy's thread count. The inner kind
    /// stays `Auto` so each shard resolves its own density at build time
    /// (a dense head and a sparse tail get different representations).
    pub fn select_par(&self, db: &TransactionDb, parallelism: Parallelism) -> EngineKind {
        match self {
            EngineKind::Auto => {
                let threads = parallelism.threads();
                if threads > 1 && db.n_transactions() >= AUTO_SHARD_MIN_ROWS {
                    EngineKind::Sharded {
                        shards: threads.min(AUTO_SHARD_MAX),
                        inner: Box::new(EngineKind::Auto),
                    }
                } else {
                    self.select_flat(db)
                }
            }
            other => other.clone(),
        }
    }

    /// Resolves `Auto` by density alone, never choosing sharding:
    /// tid-lists for very sparse relations over large object counts
    /// (intersections touch only the occupied entries), diffsets for
    /// near-saturated relations (complements are tiny), dense bitsets —
    /// the robust middle — for everything else. This is also how a
    /// [`ShardedEngine`] resolves its inner kind per shard.
    pub fn select_flat(&self, db: &TransactionDb) -> EngineKind {
        self.select_by_density(db.density(), db.n_transactions())
    }

    /// The density rule behind [`EngineKind::select_flat`], on raw
    /// measurements — the form the sharded engine uses to re-resolve its
    /// tail shard after an append without materializing the slice
    /// (density from [`TransactionDb::rows_density`]). Thresholds:
    /// tid-lists strictly below density 0.02 (with at least 1024 rows),
    /// diffsets strictly above 0.60, dense bitsets between.
    ///
    /// [`TransactionDb::rows_density`]: crate::TransactionDb::rows_density
    pub fn select_by_density(&self, density: f64, n_rows: usize) -> EngineKind {
        match self {
            EngineKind::Auto => {
                if density < 0.02 && n_rows >= 1024 {
                    EngineKind::TidList
                } else if density > 0.60 {
                    EngineKind::Diffset
                } else {
                    EngineKind::Dense
                }
            }
            other => other.clone(),
        }
    }

    /// Builds the backend for a database (resolving `Auto` first) under
    /// the default thread policy.
    pub fn build(&self, db: &Arc<TransactionDb>) -> Arc<dyn SupportEngine> {
        self.build_par(db, Parallelism::Auto)
    }

    /// Builds the backend for a database under an explicit thread
    /// policy: the policy steers the `Auto` sharding promotion and is
    /// installed on a sharded engine (so `Off` yields genuinely
    /// sequential engines and `Fixed(n)` caps the fan-out of each batch
    /// call at `n` workers; point queries always run inline). Flat
    /// backends have no threads to configure.
    pub fn build_par(
        &self,
        db: &Arc<TransactionDb>,
        parallelism: Parallelism,
    ) -> Arc<dyn SupportEngine> {
        match self.select_par(db, parallelism) {
            EngineKind::Auto => unreachable!("select_par() returns a concrete kind"),
            EngineKind::Dense => Arc::new(DenseEngine::from_horizontal(db)),
            EngineKind::TidList => Arc::new(TidListEngine::from_horizontal(db)),
            EngineKind::Diffset => Arc::new(DiffsetEngine::from_horizontal(db)),
            EngineKind::Sharded { shards, inner } => Arc::new(
                ShardedEngine::from_horizontal(db, shards, &inner).parallelism(parallelism),
            ),
        }
    }

    /// Builds the backend and wraps it in a memoizing [`CachedEngine`].
    pub fn build_cached(&self, db: &Arc<TransactionDb>) -> Arc<CachedEngine> {
        self.build_cached_par(db, Parallelism::Auto)
    }

    /// Builds the backend under an explicit thread policy (see
    /// [`EngineKind::build_par`]) and wraps it in a memoizing
    /// [`CachedEngine`].
    pub fn build_cached_par(
        &self,
        db: &Arc<TransactionDb>,
        parallelism: Parallelism,
    ) -> Arc<CachedEngine> {
        Arc::new(CachedEngine::new(self.build_par(db, parallelism)))
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Sharded { shards, inner } => write!(f, "sharded:{shards}:{inner}"),
            other => f.write_str(other.name()),
        }
    }
}

/// Error parsing an [`EngineKind`] from its textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseEngineKindError(String);

impl fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected auto, dense, tid-list, diffset, or sharded:<k>:<inner>",
            self.0
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl FromStr for EngineKind {
    type Err = ParseEngineKindError;

    /// Parses `auto` / `dense` / `tid-list` (or `tidlist`) / `diffset` /
    /// `sharded:<k>:<inner>`, where `<inner>` is itself any parseable
    /// kind (so `sharded:4:auto` and even nested shardings round-trip).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "auto" => Ok(EngineKind::Auto),
            "dense" => Ok(EngineKind::Dense),
            "tid-list" | "tidlist" => Ok(EngineKind::TidList),
            "diffset" => Ok(EngineKind::Diffset),
            _ => {
                let err = || ParseEngineKindError(format!("unknown engine kind {s:?}"));
                let rest = s.strip_prefix("sharded:").ok_or_else(err)?;
                let (count, inner) = rest.split_once(':').ok_or_else(err)?;
                let shards: usize = count.parse().map_err(|_| err())?;
                if shards == 0 {
                    return Err(ParseEngineKindError(format!(
                        "invalid shard count in {s:?}: must be at least 1"
                    )));
                }
                Ok(EngineKind::Sharded {
                    shards,
                    inner: Box::new(inner.parse()?),
                })
            }
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

    #[test]
    fn batch_counting_matches_pointwise() {
        let candidates = vec![set(&[1, 3]), set(&[2, 5]), set(&[4, 5]), set(&[3])];
        for engine in engines() {
            let batch = engine.count_candidates(&candidates);
            let pointwise: Vec<Support> = candidates.iter().map(|c| engine.support(c)).collect();
            assert_eq!(batch, pointwise, "{}", engine.name());
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
        assert_eq!(EngineKind::Diffset.select(&db), EngineKind::Diffset);

        // A large sparse relation selects tid-lists.
        let sparse =
            TransactionDb::from_rows((0..2000).map(|t| vec![t % 97, 97 + t % 101]).collect());
        assert!(sparse.density() < 0.02);
        assert_eq!(EngineKind::Auto.select(&sparse), EngineKind::TidList);

        // A near-saturated relation selects diffsets.
        let dense = TransactionDb::from_rows(
            (0..100u32)
                .map(|t| (0..8).filter(|i| *i != t % 8).collect())
                .collect(),
        );
        assert!(dense.density() > 0.60);
        assert_eq!(EngineKind::Auto.select(&dense), EngineKind::Diffset);
    }

    #[test]
    fn display_and_fromstr_round_trip() {
        let kinds = [
            EngineKind::Auto,
            EngineKind::Dense,
            EngineKind::TidList,
            EngineKind::Diffset,
            EngineKind::Sharded {
                shards: 4,
                inner: Box::new(EngineKind::Dense),
            },
            EngineKind::Sharded {
                shards: 2,
                inner: Box::new(EngineKind::Sharded {
                    shards: 3,
                    inner: Box::new(EngineKind::TidList),
                }),
            },
        ];
        for kind in kinds {
            let text = kind.to_string();
            assert_eq!(text.parse::<EngineKind>().unwrap(), kind, "{text}");
        }
        assert_eq!(
            "sharded:4:diffset".parse::<EngineKind>().unwrap(),
            EngineKind::Sharded {
                shards: 4,
                inner: Box::new(EngineKind::Diffset),
            }
        );
        assert_eq!(
            "tidlist".parse::<EngineKind>().unwrap(),
            EngineKind::TidList
        );
        assert_eq!(" dense ".parse::<EngineKind>().unwrap(), EngineKind::Dense);
        for bad in [
            "bogus",
            "sharded",
            "sharded:4",
            "sharded:x:dense",
            "sharded:0:dense",
        ] {
            assert!(bad.parse::<EngineKind>().is_err(), "{bad}");
        }
    }

    #[test]
    fn sharded_kind_builds_and_agrees() {
        let db = Arc::new(paper_example());
        let reference = EngineKind::Dense.build(&db);
        let kind = EngineKind::Sharded {
            shards: 3,
            inner: Box::new(EngineKind::Auto),
        };
        assert_eq!(kind.name(), "sharded");
        let engine = kind.build(&db);
        assert_eq!(engine.name(), "sharded");
        for probe in [set(&[1]), set(&[2, 5]), Itemset::empty(), set(&[99])] {
            assert_eq!(engine.support(&probe), reference.support(&probe));
            assert_eq!(engine.closure(&probe), reference.closure(&probe));
            assert_eq!(engine.tidset_of(&probe), reference.tidset_of(&probe));
        }
    }

    #[test]
    fn auto_shard_threshold_is_the_documented_16384_rows() {
        // ROADMAP.md and CHANGES.md both document "Auto promotes itself
        // to sharding at ≥ 16384 rows"; this pin keeps code and docs from
        // drifting apart again (they did once: an early changelog said
        // 8192).
        assert_eq!(AUTO_SHARD_MIN_ROWS, 16384);
        let rows_at = |n: usize| {
            TransactionDb::from_rows((0..n as u32).map(|t| vec![t % 11, 11 + t % 7]).collect())
        };
        // One row below the floor: never sharded, whatever the policy.
        let below = rows_at(AUTO_SHARD_MIN_ROWS - 1);
        assert_eq!(
            EngineKind::Auto.select_par(&below, Parallelism::Fixed(4)),
            EngineKind::Auto.select_flat(&below)
        );
        // Exactly at the floor: sharded as soon as threads are granted.
        let at = rows_at(AUTO_SHARD_MIN_ROWS);
        assert_eq!(
            EngineKind::Auto.select_par(&at, Parallelism::Fixed(4)),
            EngineKind::Sharded {
                shards: 4,
                inner: Box::new(EngineKind::Auto),
            }
        );
    }

    #[test]
    fn auto_shards_large_relations_when_threads_allow() {
        let big = TransactionDb::from_rows(
            (0..AUTO_SHARD_MIN_ROWS as u32)
                .map(|t| vec![t % 11, 11 + t % 7])
                .collect(),
        );
        let selected = EngineKind::Auto.select(&big);
        if Parallelism::Auto.is_parallel() {
            match selected {
                EngineKind::Sharded { shards, inner } => {
                    assert!((2..=8).contains(&shards));
                    // The inner kind stays Auto so each shard resolves
                    // its own density at build time.
                    assert_eq!(*inner, EngineKind::Auto);
                }
                other => panic!("expected sharding, got {other}"),
            }
        } else {
            // Single-threaded environments never shard automatically.
            assert_eq!(selected, EngineKind::Auto.select_flat(&big));
        }
        // An explicit policy steers the promotion regardless of the
        // environment: Off never shards, Fixed(4) always does.
        assert_eq!(
            EngineKind::Auto.select_par(&big, Parallelism::Off),
            EngineKind::Auto.select_flat(&big)
        );
        assert_eq!(
            EngineKind::Auto.select_par(&big, Parallelism::Fixed(4)),
            EngineKind::Sharded {
                shards: 4,
                inner: Box::new(EngineKind::Auto),
            }
        );
        // select_flat never shards, whatever the size.
        assert!(!matches!(
            EngineKind::Auto.select_flat(&big),
            EngineKind::Sharded { .. }
        ));
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
