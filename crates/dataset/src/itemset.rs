//! Sorted itemsets and set algebra.
//!
//! [`Itemset`] is the workhorse value type of the whole workspace: a
//! strictly increasing sequence of [`Item`]s stored contiguously. All set
//! operations (union, intersection, difference, subset tests) are
//! merge-based and run in `O(|a| + |b|)`.
//!
//! The module also provides the *lectic* order used by Ganter's
//! NextClosure algorithm (see the `rulebases-lattice` crate).

use crate::item::{Item, ItemDictionary};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

/// A set of items, stored as a strictly increasing sequence.
///
/// The invariant (sorted, no duplicates) is maintained by every
/// constructor and mutating method.
///
/// # Examples
///
/// ```
/// use rulebases_dataset::Itemset;
///
/// let a = Itemset::from_ids([3, 1, 2, 3]);
/// assert_eq!(a.len(), 3);
/// let b = Itemset::from_ids([2, 4]);
/// assert_eq!(a.intersection(&b), Itemset::from_ids([2]));
/// assert_eq!(a.union(&b), Itemset::from_ids([1, 2, 3, 4]));
/// assert!(Itemset::from_ids([1, 2]).is_subset_of(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct Itemset {
    items: Vec<Item>,
}

impl Itemset {
    /// The empty itemset.
    #[inline]
    pub fn empty() -> Self {
        Itemset { items: Vec::new() }
    }

    /// A one-element itemset.
    #[inline]
    pub fn singleton(item: Item) -> Self {
        Itemset { items: vec![item] }
    }

    /// Builds an itemset from arbitrary items: sorts and deduplicates.
    pub fn from_items<I: IntoIterator<Item = Item>>(items: I) -> Self {
        let mut v: Vec<Item> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Itemset { items: v }
    }

    /// Builds an itemset from raw `u32` ids: sorts and deduplicates.
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::from_items(ids.into_iter().map(Item::new))
    }

    /// Builds an itemset from a vector already sorted and duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    #[inline]
    pub fn from_sorted(items: Vec<Item>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        Itemset { items }
    }

    /// The full universe `{0, 1, ..., n-1}`.
    pub fn universe(n_items: usize) -> Self {
        Itemset {
            items: (0..n_items as u32).map(Item::new).collect(),
        }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the itemset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[Item] {
        &self.items
    }

    /// Iterates over items in increasing order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.items.iter().copied()
    }

    /// Consumes the itemset, returning its sorted item vector.
    #[inline]
    pub fn into_vec(self) -> Vec<Item> {
        self.items
    }

    /// The smallest item, if any.
    #[inline]
    pub fn first(&self) -> Option<Item> {
        self.items.first().copied()
    }

    /// The largest item, if any.
    #[inline]
    pub fn last(&self) -> Option<Item> {
        self.items.last().copied()
    }

    /// Membership test in `O(log n)`.
    #[inline]
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Inserts `item`, keeping the sort invariant. Returns `true` if newly
    /// inserted.
    pub fn insert(&mut self, item: Item) -> bool {
        match self.items.binary_search(&item) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, item);
                true
            }
        }
    }

    /// Removes `item`. Returns `true` if it was present.
    pub fn remove(&mut self, item: Item) -> bool {
        match self.items.binary_search(&item) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// A new itemset equal to `self ∪ {item}`.
    pub fn with(&self, item: Item) -> Self {
        let mut s = self.clone();
        s.insert(item);
        s
    }

    /// A new itemset equal to `self ∖ {item}`.
    pub fn without(&self, item: Item) -> Self {
        let mut s = self.clone();
        s.remove(item);
        s
    }

    /// Merge-based union.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Itemset { items: out }
    }

    /// Merge-based intersection.
    pub fn intersection(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Itemset { items: out }
    }

    /// In-place intersection: `self ← self ∩ other`.
    ///
    /// This is the hot operation of closure-by-intersection (the Close
    /// algorithm intersects many transactions in a row), so it avoids
    /// allocating — and once the accumulator has shrunk far below the
    /// incoming transaction's length, it gallops through `other` instead
    /// of walking all of it (see [`crate::kernels::intersect_in_place`]).
    pub fn intersect_with(&mut self, other: &[Item]) {
        crate::kernels::intersect_in_place(&mut self.items, other);
    }

    /// Merge-based difference `self ∖ other`.
    pub fn difference(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        Itemset { items: out }
    }

    /// Subset test (`⊆`) in `O(|self| + |other|)`.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut j = 0;
        let b = &other.items;
        'outer: for &x in &self.items {
            while j < b.len() {
                match b[j].cmp(&x) {
                    Ordering::Less => j += 1,
                    Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Proper-subset test (`⊂`).
    #[inline]
    pub fn is_proper_subset_of(&self, other: &Itemset) -> bool {
        self.len() < other.len() && self.is_subset_of(other)
    }

    /// Superset test (`⊇`).
    #[inline]
    pub fn is_superset_of(&self, other: &Itemset) -> bool {
        other.is_subset_of(self)
    }

    /// Whether the two itemsets have no item in common.
    pub fn is_disjoint_from(&self, other: &Itemset) -> bool {
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return false,
            }
        }
        true
    }

    /// Iterates over every non-empty proper subset of `self`.
    ///
    /// Exponential — intended for small itemsets (rule generation from one
    /// frequent itemset, test oracles). Subsets are produced in bitmask
    /// order, not lectic order.
    pub fn proper_subsets(&self) -> impl Iterator<Item = Itemset> + '_ {
        let n = self.len();
        assert!(
            n < 64,
            "proper_subsets only supports itemsets with < 64 items"
        );
        let max: u64 = 1u64 << n;
        (1..max.saturating_sub(1)).map(move |mask| {
            let items = self
                .items
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &it)| it)
                .collect();
            Itemset { items }
        })
    }

    /// All subsets of size `len - 1`, in decreasing order of the removed
    /// item.
    pub fn facets(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.len()).rev().map(move |skip| {
            let mut items = Vec::with_capacity(self.len() - 1);
            for (i, &it) in self.items.iter().enumerate() {
                if i != skip {
                    items.push(it);
                }
            }
            Itemset { items }
        })
    }

    /// Lectic (Ganter) comparison: `self <_i other` iff `i ∈ other ∖ self`
    /// and both sets agree on all items smaller than `i`.
    ///
    /// `lectic_cmp` implements the induced total order: `a < b` iff
    /// `a <_i b` where `i` is the smallest element of the symmetric
    /// difference and `i ∈ b`.
    pub fn lectic_cmp(&self, other: &Itemset) -> Ordering {
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                // Smallest differing element belongs to self ⇒ self is
                // lectically *greater* (it contains the smaller item).
                Ordering::Less => return Ordering::Greater,
                Ordering::Greater => return Ordering::Less,
            }
        }
        match (i < a.len(), j < b.len()) {
            (false, false) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (true, true) => unreachable!(),
        }
    }

    /// Renders the itemset with labels from `dict`, e.g. `{beer, chips}`.
    pub fn display<'a>(&'a self, dict: &'a ItemDictionary) -> ItemsetDisplay<'a> {
        ItemsetDisplay { set: self, dict }
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", item.id())?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Item> for Itemset {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Itemset::from_items(iter)
    }
}

impl FromIterator<u32> for Itemset {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Itemset::from_ids(iter)
    }
}

impl<'a> IntoIterator for &'a Itemset {
    type Item = Item;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Item>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

/// Lets a hash map keyed by itemsets be probed with a sorted item slice
/// (say, a reused buffer) without allocating an [`Itemset`] per lookup:
/// `Hash` and `Eq` agree with the slice's. `Ord` does not — itemsets
/// order by length first — so never probe an ordered map this way.
impl Borrow<[Item]> for Itemset {
    #[inline]
    fn borrow(&self) -> &[Item] {
        &self.items
    }
}

/// Orders itemsets by length, then lexicographically — a convenient stable
/// order for reports and deterministic output.
impl PartialOrd for Itemset {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Itemset {
    fn cmp(&self, other: &Self) -> Ordering {
        self.len()
            .cmp(&other.len())
            .then_with(|| self.items.cmp(&other.items))
    }
}

/// Label-aware display adapter returned by [`Itemset::display`].
pub struct ItemsetDisplay<'a> {
    set: &'a Itemset,
    dict: &'a ItemDictionary,
}

impl fmt::Display for ItemsetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.set.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match self.dict.label(item) {
                Some(label) => write!(f, "{label}")?,
                None => write!(f, "#{}", item.id())?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.as_slice(), &[Item(1), Item(3), Item(5)]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Itemset::empty().is_empty());
        assert_eq!(Itemset::singleton(Item(4)).len(), 1);
        assert!(Itemset::empty().is_subset_of(&set(&[1])));
        assert!(Itemset::empty().is_subset_of(&Itemset::empty()));
    }

    #[test]
    fn universe_is_contiguous() {
        let u = Itemset::universe(4);
        assert_eq!(u, set(&[0, 1, 2, 3]));
    }

    #[test]
    fn contains_insert_remove() {
        let mut s = set(&[1, 5]);
        assert!(s.contains(Item(5)));
        assert!(!s.contains(Item(2)));
        assert!(s.insert(Item(3)));
        assert!(!s.insert(Item(3)));
        assert_eq!(s.as_slice(), &[Item(1), Item(3), Item(5)]);
        assert!(s.remove(Item(1)));
        assert!(!s.remove(Item(1)));
        assert_eq!(s.as_slice(), &[Item(3), Item(5)]);
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(&[1, 2, 3]);
        let b = set(&[2, 3, 4]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), set(&[2, 3]));
        assert_eq!(a.difference(&b), set(&[1]));
        assert_eq!(b.difference(&a), set(&[4]));
        assert_eq!(a.union(&Itemset::empty()), a);
        assert_eq!(a.intersection(&Itemset::empty()), Itemset::empty());
    }

    #[test]
    fn intersect_with_matches_intersection() {
        let mut a = set(&[1, 2, 5, 8]);
        let b = set(&[2, 3, 8, 9]);
        let expect = a.intersection(&b);
        a.intersect_with(b.as_slice());
        assert_eq!(a, expect);
    }

    #[test]
    fn intersect_with_skewed_pairs_across_gallop_threshold() {
        // The complexity-sensitive case: a small accumulator against a
        // long transaction. Pin correctness on both sides of the gallop
        // ratio and at its exact boundary (the comparison-count bound
        // itself is pinned in `kernels::tests`).
        use crate::kernels::GALLOP_RATIO;
        let small = set(&[3, 250, 251, 900]);
        for long_len in [
            small.len() * GALLOP_RATIO - 1,
            small.len() * GALLOP_RATIO,
            small.len() * GALLOP_RATIO + 1,
            4096,
        ] {
            let long = Itemset::from_ids(0..long_len as u32);
            let expect = small.intersection(&long);
            let mut got = small.clone();
            got.intersect_with(long.as_slice());
            assert_eq!(got, expect, "long_len={long_len}");
            // And the mirrored skew: long accumulator, short transaction.
            let mut got = long.clone();
            got.intersect_with(small.as_slice());
            assert_eq!(got, expect, "long_len={long_len} mirrored");
        }
    }

    #[test]
    fn subset_relations() {
        let a = set(&[1, 3]);
        let b = set(&[1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(a.is_proper_subset_of(&b));
        assert!(b.is_superset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(!a.is_proper_subset_of(&a));
        assert!(!set(&[1, 4]).is_subset_of(&b));
    }

    #[test]
    fn disjointness() {
        assert!(set(&[1, 2]).is_disjoint_from(&set(&[3, 4])));
        assert!(!set(&[1, 2]).is_disjoint_from(&set(&[2, 3])));
        assert!(Itemset::empty().is_disjoint_from(&set(&[1])));
    }

    #[test]
    fn proper_subsets_of_three() {
        let subs: Vec<_> = set(&[1, 2, 3]).proper_subsets().collect();
        assert_eq!(subs.len(), 6); // 2^3 - 2
        assert!(subs.contains(&set(&[1])));
        assert!(subs.contains(&set(&[1, 3])));
        assert!(!subs.contains(&set(&[1, 2, 3])));
        assert!(!subs.contains(&Itemset::empty()));
    }

    #[test]
    fn facets_drop_one_item_each() {
        let facets: Vec<_> = set(&[1, 2, 3]).facets().collect();
        assert_eq!(facets, vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3])]);
    }

    #[test]
    fn lectic_order_basics() {
        // {0} is lectically greater than {1,2}: smallest differing item 0
        // belongs to {0}.
        assert_eq!(set(&[0]).lectic_cmp(&set(&[1, 2])), Ordering::Greater);
        assert_eq!(set(&[1, 2]).lectic_cmp(&set(&[0])), Ordering::Less);
        assert_eq!(set(&[1]).lectic_cmp(&set(&[1])), Ordering::Equal);
        // {1} < {1,2}: prefixes equal, {1,2} has extra item.
        assert_eq!(set(&[1]).lectic_cmp(&set(&[1, 2])), Ordering::Less);
        assert_eq!(Itemset::empty().lectic_cmp(&set(&[3])), Ordering::Less);
    }

    #[test]
    fn canonical_ord_is_by_len_then_lex() {
        let mut v = vec![set(&[2, 3]), set(&[9]), set(&[1, 5]), Itemset::empty()];
        v.sort();
        assert_eq!(
            v,
            vec![Itemset::empty(), set(&[9]), set(&[1, 5]), set(&[2, 3])]
        );
    }

    #[test]
    fn a_hash_map_of_itemsets_is_probed_by_slice() {
        let map: std::collections::HashMap<Itemset, u64> =
            [(set(&[1, 4]), 7), (Itemset::empty(), 9)].into();
        let buf = [Item(1), Item(4)];
        assert_eq!(map.get(&buf[..]), Some(&7));
        assert_eq!(map.get(&buf[..0]), Some(&9));
        assert_eq!(map.get(&buf[..1]), None);
    }

    #[test]
    fn display_with_dictionary() {
        let dict = ItemDictionary::from_labels(["beer", "chips", "soda"]);
        let s = set(&[0, 2]);
        assert_eq!(format!("{}", s.display(&dict)), "{beer, soda}");
    }

    #[test]
    fn serde_roundtrip() {
        let s = set(&[1, 2, 8]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "[1,2,8]");
        let back: Itemset = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
