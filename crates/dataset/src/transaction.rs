//! Horizontal transaction database.
//!
//! [`TransactionDb`] presents the binary relation `R ⊆ O × I` of a
//! data-mining context row by row: each object (transaction) is a sorted
//! run of items in CSR layout. Since PR 5 the rows live in **append-only
//! shared segments** (see [`crate::storage`]): a `TransactionDb` value is
//! a cheap epoch-versioned *view* over `Arc`-shared [`Segment`]s, so
//! cloning a snapshot, appending a batch, or expiring a prefix never
//! copies existing row data.

use crate::error::DatasetError;
use crate::item::{Item, ItemDictionary};
use crate::itemset::Itemset;
use crate::storage::Segment;
use crate::support::Support;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One window into a shared segment: rows `lo..hi` of `seg`.
#[derive(Clone, Debug)]
struct SegmentSlice {
    seg: Arc<Segment>,
    lo: usize,
    hi: usize,
}

impl SegmentSlice {
    #[inline]
    fn n_rows(&self) -> usize {
        self.hi - self.lo
    }

    #[inline]
    fn entries(&self) -> usize {
        self.seg.entries_in(self.lo, self.hi)
    }
}

/// An append-only horizontal transaction database (CSR layout over shared
/// segments).
///
/// Build one with [`TransactionDbBuilder`] or the `From` impls, which sort
/// and deduplicate each transaction. Existing rows are immutable, but the
/// database can *grow*: [`TransactionDb::append_rows`] allocates **one new
/// segment** for the batch and stamps a monotone
/// [`TransactionDb::epoch`], which the delta-aware engines use to keep
/// derived structures in sync (see [`crate::engine::TxDelta`]).
///
/// A `TransactionDb` is a *view*: cloning shares the segments (`Arc`s),
/// [`TransactionDb::expire_rows`] re-windows them without copying, and
/// the universe size (`n_items`) lives on the view — growing it never
/// rewrites storage. Snapshots pinned by engines
/// across an append therefore share every pre-append segment with the
/// grown view ([`TransactionDb::segment_addrs`] makes the sharing
/// observable).
///
/// # Examples
///
/// ```
/// use rulebases_dataset::{TransactionDb, Itemset};
///
/// let db = TransactionDb::from_rows(vec![
///     vec![1, 3, 4],
///     vec![2, 3, 5],
///     vec![1, 2, 3, 5],
///     vec![2, 5],
/// ]);
/// assert_eq!(db.n_transactions(), 4);
/// assert_eq!(db.support(&Itemset::from_ids([2, 5])), 3);
/// ```
#[derive(Clone, Debug)]
pub struct TransactionDb {
    /// Ordered, row-disjoint segment windows.
    slices: Vec<SegmentSlice>,
    /// `starts[i]` is the view-global index of slice `i`'s first row;
    /// the final entry is the total row count.
    starts: Vec<usize>,
    /// Total `(object, item)` entries across the view.
    n_entries: usize,
    /// Size of the item universe: all item ids are `< n_items`.
    n_items: usize,
    /// Optional label dictionary (shared — views and snapshots alias it).
    dict: Option<Arc<ItemDictionary>>,
    /// Monotone append counter: 0 at construction, +1 per
    /// [`TransactionDb::append_rows`] or [`TransactionDb::expire_rows`]
    /// call.
    epoch: u64,
}

/// What one [`TransactionDb::append_rows`] call did — everything a
/// [`TxDelta`](crate::engine::TxDelta) needs to describe the append to a
/// delta-aware engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendInfo {
    /// Index of the first appended row (= the row count before the append).
    pub start: usize,
    /// The database epoch before the append.
    pub base_epoch: u64,
    /// The database epoch after the append (`base_epoch + 1`).
    pub epoch: u64,
    /// Universe size before the append (the append may have grown it).
    pub prior_items: usize,
}

/// What one [`TransactionDb::expire_rows`] call did — the expiry
/// counterpart of [`AppendInfo`], from which a
/// [`TxDelta`](crate::engine::TxDelta) describes the prefix expiry to a
/// delta-aware engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpireInfo {
    /// Number of prefix rows expired; surviving rows renumber down by
    /// this amount.
    pub rows: usize,
    /// The database epoch before the expiry.
    pub base_epoch: u64,
    /// The database epoch after the expiry (`base_epoch + 1`).
    pub epoch: u64,
}

/// Normalizes raw id rows into one CSR segment (each row sorted and
/// deduplicated), returning the segment and the largest item id seen.
fn segment_from_rows(rows: Vec<Vec<u32>>) -> (Segment, Option<u32>) {
    let mut items: Vec<Item> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(rows.len() + 1);
    offsets.push(0);
    let mut max_item: Option<u32> = None;
    let mut scratch: Vec<Item> = Vec::new();
    for row in rows {
        scratch.clear();
        scratch.extend(row.into_iter().map(Item::new));
        scratch.sort_unstable();
        scratch.dedup();
        if let Some(last) = scratch.last() {
            max_item = Some(max_item.map_or(last.id(), |m| m.max(last.id())));
        }
        items.extend_from_slice(&scratch);
        offsets.push(items.len());
    }
    (Segment::from_parts(items, offsets), max_item)
}

impl TransactionDb {
    /// Builds a database from raw id rows. Rows are sorted and deduplicated;
    /// the universe is sized by the largest id seen. Empty rows are kept
    /// (they are legitimate objects related to no item).
    pub fn from_rows(rows: Vec<Vec<u32>>) -> Self {
        let (segment, max_item) = segment_from_rows(rows);
        Self::from_segment(segment, max_item.map_or(0, |m| m as usize + 1))
    }

    /// Builds a database from itemsets.
    pub fn from_itemsets<I: IntoIterator<Item = Itemset>>(rows: I) -> Self {
        let mut builder = TransactionDbBuilder::new();
        for row in rows {
            builder.push_itemset(&row);
        }
        builder.build()
    }

    /// Wraps one freshly built segment as a whole-database view.
    fn from_segment(segment: Segment, n_items: usize) -> Self {
        let n_rows = segment.n_rows();
        let n_entries = segment.entries_in(0, n_rows);
        let (slices, starts) = if n_rows == 0 {
            (Vec::new(), vec![0])
        } else {
            (
                vec![SegmentSlice {
                    seg: Arc::new(segment),
                    lo: 0,
                    hi: n_rows,
                }],
                vec![0, n_rows],
            )
        };
        TransactionDb {
            slices,
            starts,
            n_entries,
            n_items,
            dict: None,
            epoch: 0,
        }
    }

    /// Attaches a label dictionary (consuming `self`).
    ///
    /// # Panics
    ///
    /// Panics if the dictionary is smaller than the item universe.
    pub fn with_dictionary(mut self, dict: ItemDictionary) -> Self {
        assert!(
            dict.len() >= self.n_items,
            "dictionary covers {} items but the universe has {}",
            dict.len(),
            self.n_items
        );
        self.n_items = self.n_items.max(dict.len());
        self.dict = Some(Arc::new(dict));
        self
    }

    /// Forces the universe size to `n_items` (useful when some items never
    /// occur in the data but exist conceptually). This sets a *floor*, not
    /// a pin: a later [`TransactionDb::append_rows`] carrying an item id
    /// `≥ n_items` still grows the universe (only a dictionary pins it).
    /// The universe lives on the view, so this touches no row storage.
    ///
    /// # Panics
    ///
    /// Panics if `n_items` is smaller than the largest id present.
    pub fn with_universe(mut self, n_items: usize) -> Self {
        let max_seen = self
            .iter()
            .filter_map(|row| row.last())
            .map(|i| i.index() + 1)
            .max()
            .unwrap_or(0);
        assert!(
            n_items >= max_seen,
            "universe {n_items} smaller than max item id + 1 = {max_seen}"
        );
        self.n_items = n_items;
        self
    }

    /// The label dictionary, if any.
    pub fn dictionary(&self) -> Option<&ItemDictionary> {
        self.dict.as_deref()
    }

    /// The append epoch: 0 at construction, incremented by every
    /// [`TransactionDb::append_rows`] and [`TransactionDb::expire_rows`]
    /// call.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends a batch of transactions to the end of the database and
    /// advances the epoch (even for an empty batch — every call is one
    /// epoch). The batch lands in **one new segment**: nothing already
    /// stored is copied or moved, so snapshots of the pre-append state
    /// (cheap clones of this view) keep sharing every earlier segment.
    ///
    /// Rows are sorted and deduplicated exactly like
    /// [`TransactionDb::from_rows`]. An item id at or beyond the current
    /// universe **grows the universe** — a view-local field, so growth
    /// rewrites no storage — unless a dictionary is attached, in which
    /// case the universe is pinned to the labels and the append fails
    /// deterministically with [`DatasetError::UniversePinned`] *before*
    /// mutating anything (the database is unchanged on error).
    ///
    /// Returns the [`AppendInfo`] describing the append, from which a
    /// [`TxDelta`](crate::engine::TxDelta) is built for the delta-aware
    /// engines.
    pub fn append_rows(&mut self, rows: Vec<Vec<u32>>) -> Result<AppendInfo, DatasetError> {
        // Validate the whole batch up front: an error must leave the
        // database untouched.
        if let Some(dict) = &self.dict {
            for (offset, row) in rows.iter().enumerate() {
                if let Some(&bad) = row.iter().find(|&&id| id as usize >= dict.len()) {
                    return Err(DatasetError::UniversePinned {
                        item: bad,
                        universe: dict.len(),
                        row: self.n_transactions() + offset,
                    });
                }
            }
        }
        let info = AppendInfo {
            start: self.n_transactions(),
            base_epoch: self.epoch,
            epoch: self.epoch + 1,
            prior_items: self.n_items,
        };
        self.epoch += 1;
        if rows.is_empty() {
            return Ok(info);
        }
        let (segment, max_item) = segment_from_rows(rows);
        if let Some(m) = max_item {
            self.n_items = self.n_items.max(m as usize + 1);
        }
        let n_rows = segment.n_rows();
        self.n_entries += segment.entries_in(0, n_rows);
        self.starts.push(info.start + n_rows);
        self.slices.push(SegmentSlice {
            seg: Arc::new(segment),
            lo: 0,
            hi: n_rows,
        });
        Ok(info)
    }

    /// Expires the first `rows` transactions from the view and advances
    /// the epoch (even for `rows == 0` — every call is one epoch).
    /// Surviving rows renumber down by `rows`; the universe, dictionary,
    /// and other views are untouched.
    ///
    /// Expiry is a view operation: slices whose rows are *fully*
    /// expired are dropped on the spot — releasing their ref-counted
    /// segments once no snapshot pins them, which is what makes
    /// [`TransactionDb::storage_bytes`] shrink as a window slides — and
    /// a slice the boundary lands inside merely advances its window
    /// start (its segment stays charged until
    /// [`TransactionDb::compact`] rewrites the view).
    ///
    /// Returns the [`ExpireInfo`] describing the expiry, from which a
    /// [`TxDelta`](crate::engine::TxDelta) is built for the delta-aware
    /// engines.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the transaction count.
    pub fn expire_rows(&mut self, rows: usize) -> ExpireInfo {
        assert!(
            rows <= self.n_transactions(),
            "cannot expire {rows} of {} rows",
            self.n_transactions()
        );
        let info = ExpireInfo {
            rows,
            base_epoch: self.epoch,
            epoch: self.epoch + 1,
        };
        self.epoch += 1;
        if rows == 0 {
            return info;
        }
        let mut remaining = rows;
        let mut fully_expired = 0;
        for slice in self.slices.iter_mut() {
            let n = slice.n_rows();
            if remaining >= n {
                remaining -= n;
                fully_expired += 1;
            } else {
                slice.lo += remaining;
                break;
            }
        }
        self.slices.drain(..fully_expired);
        self.starts = std::iter::once(0)
            .chain(self.slices.iter().scan(0, |acc, s| {
                *acc += s.n_rows();
                Some(*acc)
            }))
            .collect();
        self.n_entries = self.slices.iter().map(SegmentSlice::entries).sum();
        info
    }

    /// Number of transactions `|O|`.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        *self.starts.last().expect("starts never empty")
    }

    /// Size of the item universe `|I|` (max id + 1, or dictionary size).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total number of `(object, item)` pairs in the relation.
    #[inline]
    pub fn n_entries(&self) -> usize {
        self.n_entries
    }

    /// Locates view row `t`: the slice index and the row's offset within
    /// that slice's window.
    #[inline]
    fn locate(&self, t: usize) -> (usize, usize) {
        if self.slices.len() == 1 {
            return (0, t);
        }
        let i = self.starts.partition_point(|&s| s <= t) - 1;
        (i, t - self.starts[i])
    }

    /// The `t`-th transaction as a sorted item slice.
    ///
    /// # Panics
    ///
    /// Panics if `t >= n_transactions()`.
    #[inline]
    pub fn transaction(&self, t: usize) -> &[Item] {
        assert!(
            t < self.n_transactions(),
            "transaction {t} out of range (n = {})",
            self.n_transactions()
        );
        let (i, local) = self.locate(t);
        let slice = &self.slices[i];
        slice.seg.row(slice.lo + local)
    }

    /// Iterates over all transactions in object order (streaming straight
    /// through the segments — no per-row lookup).
    pub fn iter(&self) -> impl Iterator<Item = &[Item]> + '_ {
        self.slices
            .iter()
            .flat_map(|slice| (slice.lo..slice.hi).map(move |r| slice.seg.row(r)))
    }

    /// Whether transaction `t` contains every item of `query`.
    #[inline]
    pub fn transaction_contains(&self, t: usize, query: &Itemset) -> bool {
        sorted_contains(self.transaction(t), query.as_slice())
    }

    /// Absolute support of `itemset` by a full scan.
    ///
    /// Levelwise miners count many candidates per scan; this method is the
    /// one-off variant used by tests and the high-level API. The empty
    /// itemset is supported by every transaction.
    pub fn support(&self, itemset: &Itemset) -> Support {
        self.iter()
            .filter(|t| sorted_contains(t, itemset.as_slice()))
            .count() as Support
    }

    /// Relative support (frequency) of `itemset` in `[0, 1]`.
    pub fn frequency(&self, itemset: &Itemset) -> f64 {
        if self.n_transactions() == 0 {
            return 0.0;
        }
        self.support(itemset) as f64 / self.n_transactions() as f64
    }

    /// Per-item supports: `result[i]` = number of transactions containing
    /// item `i`.
    pub fn item_supports(&self) -> Vec<Support> {
        let mut counts = vec![0; self.n_items];
        for row in self.iter() {
            for &item in row {
                counts[item.index()] += 1;
            }
        }
        counts
    }

    /// Average transaction length.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.n_transactions() == 0 {
            return 0.0;
        }
        self.n_entries as f64 / self.n_transactions() as f64
    }

    /// Density of the relation: `n_entries / (|O| · |I|)`, or 0 for an
    /// empty relation.
    pub fn density(&self) -> f64 {
        let cells = self.n_transactions() * self.n_items;
        if cells == 0 {
            return 0.0;
        }
        self.n_entries as f64 / cells as f64
    }

    /// Number of `(object, item)` entries in rows `start..end`, read off
    /// the segment offsets without touching row data.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > n_transactions()`.
    pub fn entries_in_rows(&self, start: usize, end: usize) -> usize {
        assert!(
            start <= end && end <= self.n_transactions(),
            "invalid row range {start}..{end} of {}",
            self.n_transactions()
        );
        self.slices
            .iter()
            .enumerate()
            .filter_map(|(i, slice)| {
                let g_lo = self.starts[i];
                let g_hi = self.starts[i + 1];
                if g_hi <= start || g_lo >= end {
                    return None;
                }
                let lo = slice.lo + start.max(g_lo) - g_lo;
                let hi = slice.lo + end.min(g_hi) - g_lo;
                Some(slice.seg.entries_in(lo, hi))
            })
            .sum()
    }

    /// Number of storage segments behind this view: 1 after a fresh build,
    /// +1 per non-empty [`TransactionDb::append_rows`] (until
    /// [`TransactionDb::compact`] folds them).
    pub fn n_segments(&self) -> usize {
        self.slices.len()
    }

    /// The identity of each segment behind this view, in row order — two
    /// views returning the same address at some position share that
    /// segment's storage. This is how the zero-copy invariants are pinned
    /// in tests: after an append, the grown view must report exactly the
    /// old addresses plus one new one.
    pub fn segment_addrs(&self) -> Vec<usize> {
        self.slices
            .iter()
            .map(|s| Arc::as_ptr(&s.seg) as usize)
            .collect()
    }

    /// Bytes of row storage (items + offsets) held by the segments behind
    /// this view.
    pub fn storage_bytes(&self) -> usize {
        self.slices.iter().map(|s| s.seg.storage_bytes()).sum()
    }

    /// Folds the view's segments into a single freshly-owned segment — one
    /// linear pass that trades a copy now for flat row lookups afterwards.
    /// Contents, universe, dictionary, and epoch are unchanged (other
    /// views sharing the old segments are unaffected). A view already
    /// backed by one whole segment is left alone.
    ///
    /// After a prefix expiry this is also the storage-reclamation step:
    /// a partially-expired head slice keeps its whole segment charged to
    /// [`TransactionDb::storage_bytes`] until the fold rewrites the view
    /// as exactly the surviving rows.
    pub fn compact(&mut self) {
        if self.slices.len() == 1 {
            let slice = &self.slices[0];
            if slice.lo == 0 && slice.hi == slice.seg.n_rows() {
                return;
            }
        }
        if self.slices.is_empty() {
            return;
        }
        let mut items: Vec<Item> = Vec::with_capacity(self.n_entries);
        let mut offsets: Vec<usize> = Vec::with_capacity(self.n_transactions() + 1);
        offsets.push(0);
        for row in self.iter() {
            items.extend_from_slice(row);
            offsets.push(items.len());
        }
        let n_rows = offsets.len() - 1;
        self.slices = vec![SegmentSlice {
            seg: Arc::new(Segment::from_parts(items, offsets)),
            lo: 0,
            hi: n_rows,
        }];
        self.starts = vec![0, n_rows];
    }
}

/// The on-wire shape of a [`TransactionDb`]: the flattened CSR the
/// pre-segmented representation serialized, kept stable so snapshots
/// round-trip across the storage refactor. (The segment structure is a
/// sharing optimization, not data — deserialization lands in one
/// segment.)
#[derive(Serialize, Deserialize)]
struct TransactionDbWire {
    items: Vec<Item>,
    offsets: Vec<usize>,
    n_items: usize,
    dict: Option<ItemDictionary>,
    epoch: u64,
}

impl Serialize for TransactionDb {
    fn to_value(&self) -> serde::Value {
        let mut items = Vec::with_capacity(self.n_entries);
        let mut offsets = Vec::with_capacity(self.n_transactions() + 1);
        offsets.push(0);
        for row in self.iter() {
            items.extend_from_slice(row);
            offsets.push(items.len());
        }
        TransactionDbWire {
            items,
            offsets,
            n_items: self.n_items,
            dict: self.dict.as_deref().cloned(),
            epoch: self.epoch,
        }
        .to_value()
    }
}

impl Deserialize for TransactionDb {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = TransactionDbWire::from_value(v)?;
        if wire.offsets.first() != Some(&0)
            || wire.offsets.last() != Some(&wire.items.len())
            || wire.offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(serde::Error::custom("inconsistent transaction offsets"));
        }
        let segment = Segment::from_parts(wire.items, wire.offsets);
        let mut db = TransactionDb::from_segment(segment, wire.n_items);
        db.dict = wire.dict.map(Arc::new);
        db.epoch = wire.epoch;
        Ok(db)
    }
}

/// Membership of a sorted needle inside a sorted haystack.
#[inline]
fn sorted_contains(haystack: &[Item], needle: &[Item]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut h = 0;
    'outer: for &x in needle {
        while h < haystack.len() {
            if haystack[h] < x {
                h += 1;
            } else if haystack[h] == x {
                h += 1;
                continue 'outer;
            } else {
                return false;
            }
        }
        return false;
    }
    true
}

/// Incremental builder for [`TransactionDb`].
#[derive(Clone, Debug, Default)]
pub struct TransactionDbBuilder {
    items: Vec<Item>,
    offsets: Vec<usize>,
    max_item: Option<u32>,
    scratch: Vec<Item>,
}

impl TransactionDbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TransactionDbBuilder {
            items: Vec::new(),
            offsets: vec![0],
            max_item: None,
            scratch: Vec::new(),
        }
    }

    /// Creates a builder with room for `n_transactions × avg_len` entries.
    pub fn with_capacity(n_transactions: usize, avg_len: usize) -> Self {
        let mut b = Self::new();
        b.items.reserve(n_transactions * avg_len);
        b.offsets.reserve(n_transactions);
        b
    }

    /// Appends one transaction given as raw ids (sorted + deduplicated
    /// internally).
    pub fn push_ids<I: IntoIterator<Item = u32>>(&mut self, ids: I) {
        self.scratch.clear();
        self.scratch.extend(ids.into_iter().map(Item::new));
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.push_sorted_scratch();
    }

    /// Appends one transaction given as an itemset (already sorted).
    pub fn push_itemset(&mut self, set: &Itemset) {
        self.scratch.clear();
        self.scratch.extend_from_slice(set.as_slice());
        self.push_sorted_scratch();
    }

    fn push_sorted_scratch(&mut self) {
        if let Some(last) = self.scratch.last() {
            self.max_item = Some(self.max_item.map_or(last.id(), |m| m.max(last.id())));
        }
        self.items.extend_from_slice(&self.scratch);
        self.offsets.push(self.items.len());
    }

    /// Number of transactions pushed so far.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes the database (one segment).
    pub fn build(self) -> TransactionDb {
        let segment = Segment::from_parts(self.items, self.offsets);
        TransactionDb::from_segment(segment, self.max_item.map_or(0, |m| m as usize + 1))
    }
}

impl From<Vec<Vec<u32>>> for TransactionDb {
    fn from(rows: Vec<Vec<u32>>) -> Self {
        TransactionDb::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example context of the paper family (Pasquier et al.):
    /// five objects over items {A=1, B=2, C=3, D=4, E=5}.
    pub(crate) fn paper_db() -> TransactionDb {
        TransactionDb::from_rows(vec![
            vec![1, 3, 4],    // o1: A C D
            vec![2, 3, 5],    // o2: B C E
            vec![1, 2, 3, 5], // o3: A B C E
            vec![2, 5],       // o4: B E
            vec![1, 2, 3, 5], // o5: A B C E
        ])
    }

    #[test]
    fn shape_and_rows() {
        let db = paper_db();
        assert_eq!(db.n_transactions(), 5);
        assert_eq!(db.n_items(), 6); // ids 0..=5, id 0 unused
        assert_eq!(db.n_entries(), 3 + 3 + 4 + 2 + 4);
        assert_eq!(db.transaction(2), &[Item(1), Item(2), Item(3), Item(5)]);
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let db = TransactionDb::from_rows(vec![vec![4, 2, 4, 1]]);
        assert_eq!(db.transaction(0), &[Item(1), Item(2), Item(4)]);
    }

    #[test]
    fn empty_rows_are_kept() {
        let db = TransactionDb::from_rows(vec![vec![], vec![1], vec![]]);
        assert_eq!(db.n_transactions(), 3);
        assert!(db.transaction(0).is_empty());
        assert_eq!(db.support(&Itemset::empty()), 3);
        assert_eq!(db.support(&Itemset::from_ids([1])), 1);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::from_rows(vec![]);
        assert_eq!(db.n_transactions(), 0);
        assert_eq!(db.n_items(), 0);
        assert_eq!(db.frequency(&Itemset::empty()), 0.0);
        assert_eq!(db.density(), 0.0);
        assert_eq!(db.n_segments(), 0);
    }

    #[test]
    fn supports_match_paper_example() {
        let db = paper_db();
        let s = |ids: &[u32]| db.support(&Itemset::from_ids(ids.iter().copied()));
        assert_eq!(s(&[1]), 3); // A
        assert_eq!(s(&[2]), 4); // B
        assert_eq!(s(&[3]), 4); // C
        assert_eq!(s(&[4]), 1); // D
        assert_eq!(s(&[5]), 4); // E
        assert_eq!(s(&[2, 5]), 4); // BE
        assert_eq!(s(&[1, 3]), 3); // AC
        assert_eq!(s(&[2, 3, 5]), 3); // BCE
        assert_eq!(s(&[1, 2, 3, 5]), 2); // ABCE
        assert_eq!(s(&[1, 4, 5]), 0);
        assert_eq!(db.support(&Itemset::empty()), 5);
    }

    #[test]
    fn item_supports_vector() {
        let db = paper_db();
        assert_eq!(db.item_supports(), vec![0, 3, 4, 4, 1, 4]);
    }

    #[test]
    fn frequency_and_stats() {
        let db = paper_db();
        assert!((db.frequency(&Itemset::from_ids([2, 5])) - 0.8).abs() < 1e-12);
        assert!((db.avg_transaction_len() - 16.0 / 5.0).abs() < 1e-12);
        assert!((db.density() - 16.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn with_universe_grows_only() {
        let db = TransactionDb::from_rows(vec![vec![1, 2]]).with_universe(10);
        assert_eq!(db.n_items(), 10);
    }

    #[test]
    #[should_panic(expected = "smaller than max item")]
    fn with_universe_cannot_shrink() {
        let _ = TransactionDb::from_rows(vec![vec![5]]).with_universe(3);
    }

    #[test]
    fn with_dictionary_sets_universe() {
        let dict = ItemDictionary::from_labels(["a", "b", "c"]);
        let db = TransactionDb::from_rows(vec![vec![0, 2]]).with_dictionary(dict);
        assert_eq!(db.n_items(), 3);
        assert_eq!(db.dictionary().unwrap().label(Item(1)), Some("b"));
    }

    #[test]
    fn builder_incremental() {
        let mut b = TransactionDbBuilder::with_capacity(2, 3);
        assert!(b.is_empty());
        b.push_ids([3, 1]);
        b.push_itemset(&Itemset::from_ids([0, 2]));
        assert_eq!(b.len(), 2);
        let db = b.build();
        assert_eq!(db.transaction(0), &[Item(1), Item(3)]);
        assert_eq!(db.transaction(1), &[Item(0), Item(2)]);
    }

    #[test]
    fn append_rows_grows_view_and_epoch() {
        let mut db = paper_db();
        assert_eq!(db.epoch(), 0);
        let info = db.append_rows(vec![vec![4, 2, 4, 1], vec![]]).unwrap();
        assert_eq!(
            info,
            AppendInfo {
                start: 5,
                base_epoch: 0,
                epoch: 1,
                prior_items: 6
            }
        );
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.n_transactions(), 7);
        assert_eq!(db.n_entries(), 16 + 3);
        // Appended rows are sorted + deduplicated like from_rows.
        assert_eq!(db.transaction(5), &[Item(1), Item(2), Item(4)]);
        assert!(db.transaction(6).is_empty());
        // Supports see the new rows.
        assert_eq!(db.support(&Itemset::from_ids([1, 2])), 3);
        // An empty batch is still one epoch — but allocates no segment.
        let segments = db.n_segments();
        let info = db.append_rows(vec![]).unwrap();
        assert_eq!((info.start, info.epoch), (7, 2));
        assert_eq!(db.n_transactions(), 7);
        assert_eq!(db.n_segments(), segments);
    }

    #[test]
    fn append_allocates_one_segment_and_shares_the_prefix() {
        let mut db = paper_db();
        let before = db.segment_addrs();
        assert_eq!(before.len(), 1);
        let snapshot = db.clone();
        db.append_rows(vec![vec![1, 2], vec![3]]).unwrap();
        let after = db.segment_addrs();
        // The grown view = every old segment (shared, not copied) + 1 new.
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(&after[..before.len()], &before[..]);
        // The pinned snapshot still reads the old state.
        assert_eq!(snapshot.n_transactions(), 5);
        assert_eq!(snapshot.epoch(), 0);
        assert_eq!(snapshot.segment_addrs(), before);
        // And a universe-growing append rewrites nothing either.
        let before = db.segment_addrs();
        db.append_rows(vec![vec![77]]).unwrap();
        assert_eq!(db.n_items(), 78);
        assert_eq!(&db.segment_addrs()[..before.len()], &before[..]);
        assert_eq!(snapshot.n_items(), 6);
    }

    #[test]
    fn entries_in_rows_reads_across_segments() {
        let mut db = TransactionDb::from_rows((0..130u32).map(|t| vec![t % 7]).collect());
        db.append_rows(vec![vec![1, 2, 3], vec![0]]).unwrap();
        let by_rows = |db: &TransactionDb, lo: usize, hi: usize| {
            (lo..hi).map(|t| db.transaction(t).len()).sum::<usize>()
        };
        for (lo, hi) in [(0, 132), (64, 132), (3, 10), (129, 131), (5, 5)] {
            assert_eq!(
                db.entries_in_rows(lo, hi),
                by_rows(&db, lo, hi),
                "{lo}..{hi}"
            );
        }
        // After a prefix expiry, ranges are relative to the shrunk view.
        db.expire_rows(100);
        for (lo, hi) in [(0, 32), (20, 32), (29, 31)] {
            assert_eq!(
                db.entries_in_rows(lo, hi),
                by_rows(&db, lo, hi),
                "{lo}..{hi}"
            );
        }
        assert_eq!(db.entries_in_rows(0, db.n_transactions()), db.n_entries());
        let cells = db.n_transactions() * db.n_items();
        assert!((db.density() - db.n_entries() as f64 / cells as f64).abs() < 1e-12);
    }

    #[test]
    fn compact_folds_segments_without_changing_contents() {
        let mut db = paper_db();
        db.append_rows(vec![vec![1, 2]]).unwrap();
        db.append_rows(vec![vec![3], vec![]]).unwrap();
        assert_eq!(db.n_segments(), 3);
        let rows: Vec<Vec<Item>> = db.iter().map(<[Item]>::to_vec).collect();
        let epoch = db.epoch();
        db.compact();
        assert_eq!(db.n_segments(), 1);
        assert_eq!(db.epoch(), epoch);
        assert_eq!(db.n_transactions(), rows.len());
        let after: Vec<Vec<Item>> = db.iter().map(<[Item]>::to_vec).collect();
        assert_eq!(after, rows);
        // Compacting a fresh single-segment view is a no-op.
        let mut fresh = paper_db();
        let addr = fresh.segment_addrs();
        fresh.compact();
        assert_eq!(fresh.segment_addrs(), addr);
        // Compacting a partially-expired view materializes just the
        // surviving rows.
        let mut window = db.clone();
        window.expire_rows(2);
        window.compact();
        assert_eq!(window.n_segments(), 1);
        assert_eq!(window.n_transactions(), db.n_transactions() - 2);
        assert_eq!(window.transaction(0), db.transaction(2));
    }

    #[test]
    fn expire_rows_drops_the_prefix_and_renumbers() {
        let mut db = paper_db();
        db.append_rows(vec![vec![1, 2], vec![7]]).unwrap();
        db.append_rows(vec![vec![3], vec![]]).unwrap();
        let before: Vec<Vec<Item>> = db.iter().map(<[Item]>::to_vec).collect();
        let epoch = db.epoch();
        let items = db.n_items();
        // Expire into the middle of the first segment.
        let info = db.expire_rows(3);
        assert_eq!(
            (info.rows, info.base_epoch, info.epoch),
            (3, epoch, epoch + 1)
        );
        assert_eq!(db.epoch(), epoch + 1);
        assert_eq!(db.n_transactions(), before.len() - 3);
        assert_eq!(db.n_items(), items, "the universe never shrinks");
        for t in 0..db.n_transactions() {
            assert_eq!(db.transaction(t), &before[t + 3][..]);
        }
        assert_eq!(db.n_entries(), db.iter().map(<[Item]>::len).sum::<usize>());
        // A zero-row expiry is epoch-only.
        let info = db.expire_rows(0);
        assert_eq!(info.rows, 0);
        assert_eq!(db.n_transactions(), before.len() - 3);
        // Expire everything: an empty, still-appendable view.
        db.expire_rows(db.n_transactions());
        assert_eq!(db.n_transactions(), 0);
        assert_eq!(db.n_segments(), 0);
        assert_eq!(db.n_entries(), 0);
        db.append_rows(vec![vec![2, 5]]).unwrap();
        assert_eq!(db.n_transactions(), 1);
    }

    #[test]
    fn expiry_reclaims_storage_with_compaction_bounding_the_rest() {
        // Three batch segments; expiring past the first must drop its
        // segment (storage_bytes shrinks immediately), and compacting
        // after a mid-segment expiry bounds storage by the survivors.
        let mut db = TransactionDb::from_rows((0..64u32).map(|t| vec![t % 9]).collect());
        db.append_rows((0..64u32).map(|t| vec![t % 9, 9]).collect())
            .unwrap();
        db.append_rows((0..64u32).map(|t| vec![t % 9, 10]).collect())
            .unwrap();
        let full = db.storage_bytes();
        db.expire_rows(64);
        let after_drop = db.storage_bytes();
        assert!(after_drop < full, "dropped segment still charged");
        assert_eq!(db.n_segments(), 2);
        // Mid-segment expiry leaves the straddled segment charged...
        db.expire_rows(32);
        assert_eq!(db.storage_bytes(), after_drop);
        let survivors: Vec<Vec<Item>> = db.iter().map(<[Item]>::to_vec).collect();
        // ...until compact() rewrites the view as the window alone.
        db.compact();
        assert!(db.storage_bytes() < after_drop, "compaction must reclaim");
        assert_eq!(db.n_segments(), 1);
        let after: Vec<Vec<Item>> = db.iter().map(<[Item]>::to_vec).collect();
        assert_eq!(after, survivors);
    }

    #[test]
    #[should_panic(expected = "cannot expire")]
    fn expire_beyond_the_view_panics() {
        paper_db().expire_rows(6);
    }

    #[test]
    fn append_beyond_universe_grows_it() {
        // Regression: an appended id ≥ n_items() must grow the universe,
        // not index out of range downstream.
        let mut db = TransactionDb::from_rows(vec![vec![1, 2]]).with_universe(10);
        assert_eq!(db.n_items(), 10);
        let info = db.append_rows(vec![vec![12]]).unwrap();
        assert_eq!(info.prior_items, 10);
        assert_eq!(db.n_items(), 13);
        assert_eq!(db.support(&Itemset::from_ids([12])), 1);
        // Ids below the with_universe floor keep the floor.
        db.append_rows(vec![vec![3]]).unwrap();
        assert_eq!(db.n_items(), 13);
    }

    #[test]
    fn append_beyond_dictionary_errors_deterministically() {
        // Regression: a dictionary pins the universe — the append must
        // fail without mutating the database.
        let dict = ItemDictionary::from_labels(["a", "b", "c"]);
        let mut db = TransactionDb::from_rows(vec![vec![0, 2]]).with_dictionary(dict);
        let err = db
            .append_rows(vec![vec![1], vec![0, 3]])
            .expect_err("id 3 outside the 3-label dictionary");
        match err {
            DatasetError::UniversePinned {
                item,
                universe,
                row,
            } => {
                assert_eq!((item, universe, row), (3, 3, 2));
            }
            other => panic!("wrong error: {other}"),
        }
        // Nothing changed — not even the first (valid) row of the batch.
        assert_eq!(db.n_transactions(), 1);
        assert_eq!(db.n_items(), 3);
        assert_eq!(db.epoch(), 0);
        // In-dictionary appends still work.
        db.append_rows(vec![vec![1]]).unwrap();
        assert_eq!(db.n_transactions(), 2);
        assert_eq!(db.epoch(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let db = paper_db();
        let json = serde_json::to_string(&db).unwrap();
        let back: TransactionDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_transactions(), 5);
        assert_eq!(back.support(&Itemset::from_ids([2, 5])), 4);
    }

    #[test]
    fn serde_roundtrip_of_grown_multi_segment_view() {
        let mut db = paper_db();
        db.append_rows(vec![vec![0, 5], vec![2]]).unwrap();
        let json = serde_json::to_string(&db).unwrap();
        let back: TransactionDb = serde_json::from_str(&json).unwrap();
        // The wire format flattens: one segment on the way back, same
        // rows, universe, and epoch.
        assert_eq!(back.n_segments(), 1);
        assert_eq!(back.epoch(), db.epoch());
        assert_eq!(back.n_items(), db.n_items());
        assert_eq!(back.n_transactions(), db.n_transactions());
        for t in 0..db.n_transactions() {
            assert_eq!(back.transaction(t), db.transaction(t));
        }
    }
}
