//! Append-only segmented row storage.
//!
//! A [`TransactionDb`](crate::TransactionDb) used to own one monolithic
//! CSR buffer, which made every snapshot a full copy: a streaming session
//! that appends a batch while engines still pin the previous snapshot had
//! to clone the whole prefix just to add a few rows. This module is the
//! storage layer that makes appends and expiries delta-sized instead:
//!
//! * a [`Segment`] is one immutable CSR run of rows (items concatenated,
//!   local offsets), shared behind an `Arc`;
//! * a database value is a *view*: an ordered list of segment slices plus
//!   view-local metadata (`n_items`, dictionary, epoch). Cloning a view
//!   clones `Arc`s, never row data;
//! * appending builds **one new segment** from the batch and pushes it
//!   onto the view — the prefix segments are untouched, so every engine
//!   still holding the previous snapshot keeps sharing them;
//! * expiring a prefix re-windows the segment list — fully-expired
//!   segments drop out and the one the cut lands in advances its window
//!   start, with zero row copies.
//!
//! The segment list grows by one per non-empty append;
//! [`TransactionDb::compact`](crate::TransactionDb::compact) folds a
//! long-running view back into a single segment when a session wants to
//! pay one linear pass to flatten its history.

use crate::item::Item;

/// One immutable run of CSR rows: concatenated sorted transactions plus
/// local offsets (`offsets[r]..offsets[r + 1]` delimits row `r`;
/// `offsets[0] == 0`). Segments are shared behind `Arc`s by every view
/// that covers them and are never mutated after construction.
#[derive(Debug)]
pub struct Segment {
    items: Vec<Item>,
    offsets: Vec<usize>,
}

impl Segment {
    /// Builds a segment from already-normalized parts (offsets start at 0,
    /// rows sorted and deduplicated).
    pub(crate) fn from_parts(items: Vec<Item>, offsets: Vec<usize>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&items.len()));
        Segment { items, offsets }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `r` as a sorted item slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Item] {
        &self.items[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Number of `(object, item)` entries in rows `lo..hi`.
    #[inline]
    pub fn entries_in(&self, lo: usize, hi: usize) -> usize {
        self.offsets[hi] - self.offsets[lo]
    }

    /// Bytes of row storage this segment owns (items + offsets) — the
    /// quantity the `bytes_copied` accounting charges when a segment is
    /// materialized.
    pub fn storage_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<Item>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }
}

/// The bytes of CSR storage `entries` items across `rows` rows occupy —
/// the unit both the segment allocator and the engines' `bytes_copied`
/// counters use, so "bytes a delta copied" and "bytes a segment holds"
/// are directly comparable.
pub fn row_storage_bytes(rows: usize, entries: usize) -> usize {
    entries * std::mem::size_of::<Item>() + (rows + 1) * std::mem::size_of::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_rows_and_entries() {
        let seg = Segment::from_parts(
            vec![Item(1), Item(3), Item(2), Item(5), Item(9)],
            vec![0, 2, 2, 5],
        );
        assert_eq!(seg.n_rows(), 3);
        assert_eq!(seg.row(0), &[Item(1), Item(3)]);
        assert!(seg.row(1).is_empty());
        assert_eq!(seg.row(2), &[Item(2), Item(5), Item(9)]);
        assert_eq!(seg.entries_in(0, 3), 5);
        assert_eq!(seg.entries_in(1, 2), 0);
        assert_eq!(
            seg.storage_bytes(),
            5 * std::mem::size_of::<Item>() + 4 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn empty_segment() {
        let seg = Segment::from_parts(Vec::new(), vec![0]);
        assert_eq!(seg.n_rows(), 0);
        assert_eq!(seg.entries_in(0, 0), 0);
    }

    #[test]
    fn storage_bytes_formula_matches_segment() {
        let seg = Segment::from_parts(vec![Item(0), Item(1)], vec![0, 1, 2]);
        assert_eq!(seg.storage_bytes(), row_storage_bytes(2, 2));
    }
}
