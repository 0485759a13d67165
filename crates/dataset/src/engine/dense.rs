//! The dense bitset backend.

use super::delta::{check_epoch, DeltaError, DeltaSupportEngine, TxDelta};
use super::{close_level, intent_of, CacheStats, EngineKind, PairPass, SupportEngine};
use crate::bitset::BitSet;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::support::Support;
use crate::transaction::TransactionDb;
use crate::vertical::VerticalDb;
use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

/// Dense [`BitSet`] covers (today's [`VerticalDb`]) behind the
/// [`SupportEngine`] interface.
///
/// Support counting is word-wise `AND` + popcount. An intent `f(T)` takes
/// whichever of two paths prices lower (see the [module docs](super)):
/// testing `T ⊆ cover(i)` for the items whose support reaches `|T|`, at
/// `⌈|O|/64⌉` words each, or merge-intersecting the rows of `T` down to
/// the generator floor, at `|T| × L̄` entries at most. Extents of
/// hundreds of rows over a few dozen items in use (census) take the cover
/// tests; a few short rows under long covers keep the merge. An
/// all-pairs batch is counted in one pass over the rows when that costs
/// less than `candidates × ⌈|O|/64⌉` words of cover intersections. The
/// robust default for everything that is not extremely sparse or
/// near-saturated.
///
/// Append batches extend the covers in place: each bitset widens by the
/// appended rows and only the delta's bits are inserted (see
/// [`VerticalDb::extend_from`]). Expiry batches clear the cover prefix
/// in place: each bitset drops its first `rows` bits and the survivors
/// renumber down (see [`VerticalDb::expire_prefix`]).
#[derive(Clone, Debug)]
pub struct DenseEngine {
    vertical: VerticalDb,
    horizontal: Arc<TransactionDb>,
    /// `(support, item)` over the universe, by descending support: an
    /// extent of `n` objects can only lie in the covers of the prefix with
    /// support `≥ n`. Counted from the covers by the first intent after
    /// they move, so absorbing a delta costs nothing here.
    ranked: OnceLock<Vec<(Support, Item)>>,
    epoch: u64,
    /// Row-storage bytes ingested by delta applications (delta-sized by
    /// construction: only the appended rows are read).
    bytes_copied: u64,
}

impl DenseEngine {
    /// Transposes a horizontal database into bitset covers.
    pub fn from_horizontal(db: &Arc<TransactionDb>) -> Self {
        DenseEngine {
            vertical: VerticalDb::from_horizontal(db),
            ranked: OnceLock::new(),
            horizontal: Arc::clone(db),
            epoch: db.epoch(),
            bytes_copied: 0,
        }
    }

    /// The underlying vertical store.
    pub fn vertical(&self) -> &VerticalDb {
        &self.vertical
    }

    /// Whether [`SupportEngine::count_candidates`] and
    /// [`SupportEngine::close_candidates`] count `candidates` in one pass
    /// over the rows rather than one cover intersection at a time.
    pub fn takes_pair_pass(&self, candidates: &[Itemset]) -> bool {
        self.pair_pass(candidates).is_some()
    }

    fn pair_pass(&self, candidates: &[Itemset]) -> Option<PairPass> {
        PairPass::plan(&self.horizontal, candidates, || {
            candidates.len() as f64 * self.n_objects().div_ceil(64) as f64
        })
    }

    /// Whether the intent of `itemset`'s extent is found by cover tests
    /// rather than by merging the extent's rows.
    pub fn takes_cover_tests(&self, itemset: &Itemset) -> bool {
        self.cover_tests(self.vertical.support(itemset) as usize)
            .is_some()
    }

    /// The items an extent of `size` objects may lie under, when testing
    /// their covers (`⌈|O|/64⌉` words each) prices below merging `size`
    /// rows of mean length `L̄`; `None` when the merge is cheaper, which
    /// it always is for an empty extent (it merges nothing).
    fn cover_tests(&self, size: usize) -> Option<&[(Support, Item)]> {
        let ranked = self.ranked.get_or_init(|| rank(&self.vertical));
        let held = ranked.partition_point(|&(support, _)| support as usize >= size);
        let covers = (held * self.n_objects().div_ceil(64)) as f64;
        let rows = size as f64 * self.horizontal.avg_transaction_len();
        (covers < rows).then(|| &ranked[..held])
    }

    /// The intent `f(T)` of the `size` objects of `extent`, the one
    /// closure routine behind every intent query: cover tests or the row
    /// merge, whichever prices lower. `floor` is the size of an itemset
    /// whose extent this is (0 when none is known); only the merge reads
    /// it. An empty extent yields the universe (through the merge).
    fn intent(&self, extent: &BitSet, size: usize, floor: usize) -> Itemset {
        let Some(held) = self.cover_tests(size) else {
            return intent_of(&self.horizontal, extent.iter(), floor);
        };
        let mut items: Vec<Item> = held
            .iter()
            .map(|&(_, item)| item)
            .filter(|&item| extent.is_subset_of(self.vertical.cover(item)))
            .collect();
        items.sort_unstable();
        Itemset::from_sorted(items)
    }
}

/// Every item with its support, by descending support.
fn rank(vertical: &VerticalDb) -> Vec<(Support, Item)> {
    let mut ranked: Vec<(Support, Item)> = vertical
        .item_supports()
        .into_iter()
        .zip((0..).map(Item::new))
        .collect();
    ranked.sort_by_key(|&(support, _)| Reverse(support));
    ranked
}

impl DeltaSupportEngine for DenseEngine {
    fn apply_delta(&mut self, delta: &TxDelta) -> Result<(), DeltaError> {
        check_epoch(self.epoch, delta)?;
        match delta {
            TxDelta::Append(append) => {
                self.vertical.extend_from(append.db(), append.start());
                self.bytes_copied += append.appended_bytes();
            }
            // Expiry reads no row data, so nothing is charged to
            // bytes_copied.
            TxDelta::Expire(expire) => self.vertical.expire_prefix(expire.rows()),
        }
        self.ranked = OnceLock::new();
        self.horizontal = Arc::clone(delta.db_arc());
        self.epoch = delta.epoch();
        Ok(())
    }
}

impl SupportEngine for DenseEngine {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn resolved_kind(&self) -> EngineKind {
        EngineKind::Dense
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn as_delta_mut(&mut self) -> Option<&mut dyn DeltaSupportEngine> {
        Some(self)
    }

    fn n_objects(&self) -> usize {
        self.vertical.n_objects()
    }

    fn n_items(&self) -> usize {
        self.vertical.n_items()
    }

    fn cover(&self, item: Item) -> BitSet {
        if item.index() >= self.vertical.n_items() {
            return BitSet::new(self.n_objects());
        }
        self.vertical.cover(item).clone()
    }

    fn tidset_of(&self, itemset: &Itemset) -> BitSet {
        self.vertical.extent(itemset)
    }

    fn extend_tidset(&self, tidset: &BitSet, item: Item) -> BitSet {
        if item.index() >= self.vertical.n_items() {
            return BitSet::new(self.n_objects());
        }
        self.vertical.extend_extent(tidset, item)
    }

    fn support(&self, itemset: &Itemset) -> Support {
        self.vertical.support(itemset)
    }

    fn count_candidates(&self, candidates: &[Itemset]) -> Vec<Support> {
        match self.pair_pass(candidates) {
            Some(pass) => {
                let counts = pass.count(&self.horizontal);
                candidates.iter().map(|pair| counts.support(pair)).collect()
            }
            // Cache-blocked: candidate×row tiles reuse resident cover
            // blocks (see [`VerticalDb::count_candidates`]).
            None => self.vertical.count_candidates(candidates),
        }
    }

    fn close_candidates<'c>(
        &self,
        candidates: &'c [Itemset],
        min_count: Support,
    ) -> Vec<(&'c Itemset, Itemset, Support)> {
        let pass = self.pair_pass(candidates);
        close_level(&self.horizontal, candidates, min_count, pass, |candidate| {
            let extent = self.vertical.extent(candidate);
            let size = extent.count();
            (size as Support >= min_count)
                .then(|| (self.intent(&extent, size, candidate.len()), size as Support))
        })
    }

    fn item_supports(&self) -> Vec<Support> {
        self.vertical.item_supports()
    }

    fn closure_of_tidset(&self, tidset: &BitSet) -> Itemset {
        self.intent(tidset, tidset.count(), 0)
    }

    fn closure_and_support(&self, itemset: &Itemset) -> (Itemset, Support) {
        let extent = self.vertical.extent(itemset);
        let size = extent.count();
        (self.intent(&extent, size, itemset.len()), size as Support)
    }

    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            bytes_copied: self.bytes_copied,
            ..CacheStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn matches_raw_vertical_db() {
        let db = Arc::new(paper_example());
        let engine = DenseEngine::from_horizontal(&db);
        let raw = VerticalDb::from_horizontal(&db);
        let probe = Itemset::from_ids([2, 3, 5]);
        assert_eq!(engine.support(&probe), raw.support(&probe));
        assert_eq!(engine.tidset_of(&probe), raw.extent(&probe));
        assert_eq!(engine.cover(Item::new(2)), raw.cover(Item::new(2)).clone());
        assert!(engine.cover(Item::new(99)).is_empty());
    }

    #[test]
    fn closure_uses_transaction_intent() {
        let db = Arc::new(paper_example());
        let engine = DenseEngine::from_horizontal(&db);
        assert_eq!(
            engine.closure(&Itemset::from_ids([2])),
            Itemset::from_ids([2, 5])
        );
        // Unsupported itemsets close to the universe.
        assert_eq!(
            engine.closure(&Itemset::from_ids([1, 4, 5])),
            Itemset::universe(6)
        );
    }
}
