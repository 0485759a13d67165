//! The sparse tid-list backend (absorbs the former
//! `rulebases_mining::tidlist::TidListDb`).

use super::delta::{check_epoch, DeltaError, DeltaSupportEngine, TxDelta};
use super::{close_level, intent_of, CacheStats, EngineKind, PairPass, SupportEngine};
use crate::bitset::BitSet;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::kernels;
use crate::support::Support;
use crate::transaction::TransactionDb;
use std::sync::Arc;

/// A sorted list of transaction ids.
pub type TidList = Vec<u32>;

/// Intersects two sorted tid-lists, galloping when the lengths are
/// skewed by at least [`kernels::GALLOP_RATIO`] (a rare item meeting a
/// frequent one — the common shape below the first levels) and merging
/// branch-light when balanced.
pub fn intersect(a: &[u32], b: &[u32]) -> TidList {
    kernels::intersect_sorted(a, b)
}

/// Size of the intersection of two sorted tid-lists, without
/// materializing it — same adaptive gallop/merge selection as
/// [`intersect`].
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    kernels::intersect_count_sorted(a, b)
}

/// Sorted per-item tid-lists (the paper-era vertical representation of
/// Eclat/CHARM) behind the [`SupportEngine`] interface.
///
/// Intersection cost scales with the cover sizes rather than with
/// `|O|/64` words, so this backend wins when covers are tiny relative to
/// the object count — very sparse basket data over many transactions.
/// An all-pairs batch is counted in one pass over the rows when that
/// costs less than the sum of the candidates' cover lengths (see the
/// [module docs](super)); closures merge rows down to the generator
/// floor.
///
/// Append batches are sorted tail appends: every new transaction id is
/// larger than everything already listed, so extending a cover is a push.
/// Expiry batches are sorted head drains: the expired ids form each
/// list's prefix, so a cut at `partition_point` plus a downward renumber
/// keeps every list sorted.
#[derive(Clone, Debug)]
pub struct TidListEngine {
    covers: Vec<TidList>,
    n_objects: usize,
    horizontal: Arc<TransactionDb>,
    epoch: u64,
    /// Row-storage bytes ingested by delta applications.
    bytes_copied: u64,
}

impl TidListEngine {
    /// Transposes a horizontal database into sorted tid-lists.
    pub fn from_horizontal(db: &Arc<TransactionDb>) -> Self {
        let mut covers = vec![Vec::new(); db.n_items()];
        for (t, row) in db.iter().enumerate() {
            for &item in row {
                covers[item.index()].push(t as u32);
            }
        }
        // Rows are visited in ascending tid order, so lists are sorted.
        TidListEngine {
            covers,
            n_objects: db.n_transactions(),
            horizontal: Arc::clone(db),
            epoch: db.epoch(),
            bytes_copied: 0,
        }
    }

    /// The tid-list of one item (empty for out-of-universe items).
    pub fn tid_cover(&self, item: Item) -> &[u32] {
        self.covers
            .get(item.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The extent of an itemset as a tid-list (all tids for `∅`).
    pub fn extent_tids(&self, itemset: &Itemset) -> TidList {
        let mut items = itemset.iter();
        let Some(first) = items.next() else {
            return (0..self.n_objects as u32).collect();
        };
        let mut acc = self.tid_cover(first).to_vec();
        for item in items {
            if acc.is_empty() {
                break;
            }
            // In-place compaction: the accumulator only shrinks, so no
            // per-level allocation, and it gallops into the new cover
            // once the extent is much smaller than it.
            kernels::intersect_in_place(&mut acc, self.tid_cover(item));
        }
        acc
    }

    fn tids_to_bitset(&self, tids: &[u32]) -> BitSet {
        BitSet::from_indices(self.n_objects, tids.iter().map(|&t| t as usize))
    }

    fn intent_of_tids(&self, tids: &[u32], floor: usize) -> Itemset {
        intent_of(&self.horizontal, tids.iter().map(|&t| t as usize), floor)
    }

    /// Whether [`SupportEngine::count_candidates`] and
    /// [`SupportEngine::close_candidates`] count `candidates` in one pass
    /// over the rows rather than one tid-list intersection at a time.
    pub fn takes_pair_pass(&self, candidates: &[Itemset]) -> bool {
        self.pair_pass(candidates).is_some()
    }

    fn pair_pass(&self, candidates: &[Itemset]) -> Option<PairPass> {
        PairPass::plan(&self.horizontal, candidates, || {
            candidates
                .iter()
                .flat_map(Itemset::iter)
                .map(|item| self.tid_cover(item).len() as f64)
                .sum()
        })
    }
}

impl DeltaSupportEngine for TidListEngine {
    fn apply_delta(&mut self, delta: &TxDelta) -> Result<(), DeltaError> {
        check_epoch(self.epoch, delta)?;
        match delta {
            TxDelta::Append(append) => {
                let db = append.db();
                self.covers.resize_with(db.n_items(), Vec::new);
                for t in append.start()..append.end() {
                    for &item in db.transaction(t) {
                        // t exceeds every listed id, so the push keeps
                        // the list sorted.
                        self.covers[item.index()].push(t as u32);
                    }
                }
                self.bytes_copied += append.appended_bytes();
            }
            TxDelta::Expire(expire) => {
                let k = expire.rows() as u32;
                for cover in &mut self.covers {
                    // Expired ids form the sorted prefix; survivors
                    // renumber down by the cut.
                    let cut = cover.partition_point(|&t| t < k);
                    cover.drain(..cut);
                    for t in cover.iter_mut() {
                        *t -= k;
                    }
                }
            }
        }
        self.n_objects = delta.db().n_transactions();
        self.horizontal = Arc::clone(delta.db_arc());
        self.epoch = delta.epoch();
        Ok(())
    }
}

impl SupportEngine for TidListEngine {
    fn name(&self) -> &'static str {
        "tid-list"
    }

    fn resolved_kind(&self) -> EngineKind {
        EngineKind::TidList
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn as_delta_mut(&mut self) -> Option<&mut dyn DeltaSupportEngine> {
        Some(self)
    }

    fn n_objects(&self) -> usize {
        self.n_objects
    }

    fn n_items(&self) -> usize {
        self.covers.len()
    }

    fn cover(&self, item: Item) -> BitSet {
        self.tids_to_bitset(self.tid_cover(item))
    }

    fn tidset_of(&self, itemset: &Itemset) -> BitSet {
        self.tids_to_bitset(&self.extent_tids(itemset))
    }

    fn support(&self, itemset: &Itemset) -> Support {
        let mut items = itemset.iter();
        let Some(first) = items.next() else {
            return self.n_objects as Support;
        };
        let Some(second) = items.next() else {
            return self.tid_cover(first).len() as Support;
        };
        // Two-item sets never materialize the intersection; longer sets
        // compact one accumulator in place.
        let Some(third) = items.next() else {
            return intersect_count(self.tid_cover(first), self.tid_cover(second)) as Support;
        };
        let mut acc = intersect(self.tid_cover(first), self.tid_cover(second));
        for item in std::iter::once(third).chain(items) {
            if acc.is_empty() {
                return 0;
            }
            kernels::intersect_in_place(&mut acc, self.tid_cover(item));
        }
        acc.len() as Support
    }

    fn count_candidates(&self, candidates: &[Itemset]) -> Vec<Support> {
        if let Some(pass) = self.pair_pass(candidates) {
            let counts = pass.count(&self.horizontal);
            return candidates.iter().map(|pair| counts.support(pair)).collect();
        }
        // Levelwise generation emits candidates in lexicographic order,
        // so runs of them share a (k-1)-prefix: materialize each prefix
        // extent once and count every candidate of the run with one
        // adaptive (gallop/merge) intersection against its last cover.
        let mut cached: Option<(&[Item], TidList)> = None;
        candidates
            .iter()
            .map(|cand| {
                let Some((&last, prefix)) = cand.as_slice().split_last() else {
                    return self.n_objects as Support;
                };
                if prefix.is_empty() {
                    return self.tid_cover(last).len() as Support;
                }
                if !matches!(&cached, Some((p, _)) if *p == prefix) {
                    let extent = self.extent_tids(&Itemset::from_sorted(prefix.to_vec()));
                    cached = Some((prefix, extent));
                }
                let (_, extent) = cached.as_ref().expect("cached above");
                intersect_count(extent, self.tid_cover(last)) as Support
            })
            .collect()
    }

    fn item_supports(&self) -> Vec<Support> {
        self.covers.iter().map(|c| c.len() as Support).collect()
    }

    fn close_candidates<'c>(
        &self,
        candidates: &'c [Itemset],
        min_count: Support,
    ) -> Vec<(&'c Itemset, Itemset, Support)> {
        let pass = self.pair_pass(candidates);
        close_level(&self.horizontal, candidates, min_count, pass, |candidate| {
            let tids = self.extent_tids(candidate);
            let support = tids.len() as Support;
            (support >= min_count).then(|| (self.intent_of_tids(&tids, candidate.len()), support))
        })
    }

    fn closure_of_tidset(&self, tidset: &BitSet) -> Itemset {
        intent_of(&self.horizontal, tidset.iter(), 0)
    }

    fn closure_and_support(&self, itemset: &Itemset) -> (Itemset, Support) {
        let tids = self.extent_tids(itemset);
        (
            self.intent_of_tids(&tids, itemset.len()),
            tids.len() as Support,
        )
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
    fn intersection_basics() {
        assert_eq!(intersect(&[1, 3, 5], &[2, 3, 5, 9]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect_count(&[1, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(intersect_count(&[1, 2], &[3, 4]), 0);
    }

    #[test]
    fn lists_are_sorted_and_match_columns() {
        let db = Arc::new(paper_example());
        let engine = TidListEngine::from_horizontal(&db);
        for i in 0..engine.n_items() as u32 {
            let cover = engine.tid_cover(Item::new(i));
            assert!(cover.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(engine.tid_cover(Item::new(1)), &[0, 2, 4]);
        assert_eq!(engine.tid_cover(Item::new(4)), &[0]);
        assert!(engine.tid_cover(Item::new(99)).is_empty());
    }

    #[test]
    fn out_of_universe_items_are_unsupported() {
        let db = Arc::new(paper_example());
        let engine = TidListEngine::from_horizontal(&db);
        assert_eq!(engine.support(&Itemset::from_ids([99])), 0);
        assert_eq!(engine.support(&Itemset::from_ids([1, 99])), 0);
    }

    #[test]
    fn empty_extent_closes_to_universe() {
        let db = Arc::new(paper_example());
        let engine = TidListEngine::from_horizontal(&db);
        assert_eq!(
            engine.closure(&Itemset::from_ids([1, 4, 5])),
            Itemset::universe(6)
        );
    }
}
