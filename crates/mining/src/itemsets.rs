//! Result containers shared by all miners.

use rulebases_dataset::{Item, Itemset, Support};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Bookkeeping every miner reports alongside its result; the paper's
/// efficiency argument for Close/A-Close is precisely "fewer database
/// passes and fewer candidates", so the harness surfaces both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiningStats {
    /// Number of full database passes performed.
    pub db_passes: usize,
    /// Number of candidate itemsets whose support was counted.
    pub candidates_counted: usize,
}

/// The set of frequent itemsets of a context at some threshold, with their
/// absolute supports.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FrequentItemsets {
    map: HashMap<Itemset, Support>,
    /// Absolute threshold the mining ran with.
    pub min_count: Support,
    /// Number of objects in the mined context.
    pub n_objects: usize,
    /// Miner bookkeeping.
    pub stats: MiningStats,
}

impl FrequentItemsets {
    /// An empty result for a context of `n_objects` objects.
    pub fn new(min_count: Support, n_objects: usize) -> Self {
        FrequentItemsets {
            map: HashMap::new(),
            min_count,
            n_objects,
            stats: MiningStats::default(),
        }
    }

    /// Records an itemset with its support. Re-inserting must agree.
    pub fn insert(&mut self, itemset: Itemset, support: Support) {
        debug_assert!(
            support >= self.min_count,
            "inserting infrequent itemset {itemset:?}"
        );
        if let Some(prev) = self.map.insert(itemset, support) {
            debug_assert_eq!(prev, support, "conflicting supports");
        }
    }

    /// Number of frequent itemsets (the empty set is not stored).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no itemset is frequent.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Support of `itemset`, if frequent.
    pub fn support(&self, itemset: &Itemset) -> Option<Support> {
        self.map.get(itemset).copied()
    }

    /// Relative support of `itemset`, if frequent.
    pub fn frequency(&self, itemset: &Itemset) -> Option<f64> {
        self.support(itemset)
            .map(|s| s as f64 / self.n_objects.max(1) as f64)
    }

    /// Membership test.
    pub fn contains(&self, itemset: &Itemset) -> bool {
        self.map.contains_key(itemset)
    }

    /// Iterates in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, Support)> {
        self.map.iter().map(|(k, &v)| (k, v))
    }

    /// Iterates in canonical order (size, then lexicographic) — for
    /// deterministic output.
    pub fn iter_sorted(&self) -> Vec<(&Itemset, Support)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Number of frequent itemsets of each size, indexed by size
    /// (`result[0]` unused, kept 0).
    pub fn level_counts(&self) -> Vec<usize> {
        let max = self.map.keys().map(Itemset::len).max().unwrap_or(0);
        let mut counts = vec![0usize; max + 1];
        for k in self.map.keys() {
            counts[k.len()] += 1;
        }
        counts
    }

    /// The maximal frequent itemsets (no frequent proper superset).
    pub fn maximal(&self) -> Vec<&Itemset> {
        let sets: Vec<&Itemset> = self.map.keys().collect();
        sets.iter()
            .copied()
            .filter(|s| !sets.iter().any(|other| s.is_proper_subset_of(other)))
            .collect()
    }

    /// Consumes the result into a sorted vector.
    pub fn into_sorted_vec(self) -> Vec<(Itemset, Support)> {
        let mut v: Vec<_> = self.map.into_iter().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

impl FromIterator<(Itemset, Support)> for FrequentItemsets {
    fn from_iter<T: IntoIterator<Item = (Itemset, Support)>>(iter: T) -> Self {
        let map: HashMap<Itemset, Support> = iter.into_iter().collect();
        FrequentItemsets {
            min_count: map.values().copied().min().unwrap_or(1),
            n_objects: 0,
            map,
            stats: MiningStats::default(),
        }
    }
}

/// The frequent **closed** itemsets `FC` of a context, with supports.
///
/// Stored sorted canonically (size, then lexicographic); lookup by exact
/// set is O(1), and [`ClosedItemsets::closure_of`] finds the smallest
/// closed superset — which is exactly `h(X)` when the collection holds all
/// frequent closed itemsets and `X` is frequent.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ClosedItemsets {
    sets: Vec<(Itemset, Support)>,
    #[serde(skip)]
    index: HashMap<Itemset, usize>,
    /// Absolute threshold the mining ran with.
    pub min_count: Support,
    /// Number of objects in the mined context.
    pub n_objects: usize,
    /// Miner bookkeeping.
    pub stats: MiningStats,
}

impl ClosedItemsets {
    /// Builds from `(closed itemset, support)` pairs; deduplicates and
    /// sorts canonically.
    ///
    /// # Panics
    ///
    /// Panics if the same itemset appears with two different supports.
    pub fn from_pairs(
        pairs: Vec<(Itemset, Support)>,
        min_count: Support,
        n_objects: usize,
    ) -> Self {
        let mut sets = pairs;
        sets.sort_by(|a, b| a.0.cmp(&b.0));
        sets.dedup_by(|a, b| {
            if a.0 == b.0 {
                assert_eq!(a.1, b.1, "conflicting supports for {:?}", a.0);
                true
            } else {
                false
            }
        });
        let index = sets
            .iter()
            .enumerate()
            .map(|(i, (s, _))| (s.clone(), i))
            .collect();
        ClosedItemsets {
            sets,
            index,
            min_count,
            n_objects,
            stats: MiningStats::default(),
        }
    }

    /// Rebuilds the exact-match index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .sets
            .iter()
            .enumerate()
            .map(|(i, (s, _))| (s.clone(), i))
            .collect();
    }

    /// Number of closed itemsets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Iterates in canonical order (size, then lexicographic).
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, Support)> {
        self.sets.iter().map(|(s, sup)| (s, *sup))
    }

    /// The `i`-th closed itemset in canonical order.
    pub fn get(&self, i: usize) -> (&Itemset, Support) {
        let (s, sup) = &self.sets[i];
        (s, *sup)
    }

    /// Index of an exactly matching closed itemset.
    pub fn position(&self, itemset: &Itemset) -> Option<usize> {
        self.index.get(itemset).copied()
    }

    /// Whether `itemset` is one of the closed itemsets.
    pub fn contains(&self, itemset: &Itemset) -> bool {
        self.index.contains_key(itemset)
    }

    /// Support of an exactly matching closed itemset.
    pub fn support_of_closed(&self, itemset: &Itemset) -> Option<Support> {
        self.position(itemset).map(|i| self.sets[i].1)
    }

    /// The smallest closed superset of `itemset` — i.e. `h(itemset)` when
    /// the collection is the full `FC` and `itemset` is frequent.
    ///
    /// Returns `None` when no closed superset exists (the itemset is
    /// infrequent at this threshold).
    pub fn closure_of(&self, itemset: &Itemset) -> Option<(&Itemset, Support)> {
        // Canonical order sorts by size first, so the first superset found
        // is a smallest one; by uniqueness of the closure it is h(itemset).
        if let Some(i) = self.position(itemset) {
            let (s, sup) = &self.sets[i];
            return Some((s, *sup));
        }
        // Sets smaller than `itemset` cannot contain it: start the scan
        // past them (on sparse data they are most of FC — the frequent
        // singletons).
        let first = self.sets.partition_point(|(s, _)| s.len() < itemset.len());
        self.sets[first..]
            .iter()
            .find(|(s, _)| itemset.is_subset_of(s))
            .map(|(s, sup)| (s, *sup))
    }

    /// Support of any frequent itemset, via its closure.
    pub fn support(&self, itemset: &Itemset) -> Option<Support> {
        self.closure_of(itemset).map(|(_, sup)| sup)
    }

    /// The maximal closed itemsets (= maximal frequent itemsets, as the
    /// paper notes).
    pub fn maximal(&self) -> Vec<&Itemset> {
        self.sets
            .iter()
            .map(|(s, _)| s)
            .filter(|s| {
                !self
                    .sets
                    .iter()
                    .any(|(other, _)| s.is_proper_subset_of(other))
            })
            .collect()
    }

    /// Consumes into the sorted `(itemset, support)` vector.
    pub fn into_sorted_vec(self) -> Vec<(Itemset, Support)> {
        self.sets
    }

    /// Expands `FC` into the full set of frequent itemsets with supports:
    /// every subset of a closed itemset is frequent with the support of its
    /// closure (the generating-set property of Definition 1).
    ///
    /// The closed sets are visited by descending support, so the first one
    /// holding a subset `X` is `h(X)`: any closed superset of `X` as
    /// frequent as `h(X)` is `h(X)` itself. Each set's subsets are walked
    /// top-down as bit masks over its items. A subset already recorded came
    /// from a closed superset at least as frequent, together with all of
    /// its own subsets, so the walk skips its whole subtree. That makes one
    /// hash probe per visited subset, from one reused buffer, and one
    /// allocation per frequent set.
    ///
    /// Still exponential in the widest closed set, whose `2^|C|` subsets
    /// are all frequent — meant for contexts whose `F` fits in memory;
    /// large-scale counting should use a frequent miner directly.
    ///
    /// # Panics
    ///
    /// Panics if a closed set holds 64 items or more.
    pub fn expand_to_frequent(&self) -> FrequentItemsets {
        let mut order: Vec<usize> = (0..self.sets.len()).collect();
        order.sort_unstable_by_key(|&i| Reverse(self.sets[i].1));
        let mut map: HashMap<Itemset, Support> = HashMap::new();
        let mut buf: Vec<Item> = Vec::new();
        // `(mask, lim)`: a subset of the current closed set, and the bound
        // below which its children clear one more bit — so every subset is
        // reached once, by clearing its missing items from the highest down.
        let mut stack: Vec<(u64, u32)> = Vec::new();
        for i in order {
            let (closed, support) = &self.sets[i];
            let items = closed.as_slice();
            assert!(
                items.len() < 64,
                "closed itemset too large to expand ({} items)",
                items.len()
            );
            let n = items.len() as u32;
            stack.push(((1u64 << n) - 1, n));
            while let Some((mask, lim)) = stack.pop() {
                if mask == 0 {
                    continue; // the empty set is not stored
                }
                buf.clear();
                let mut bits = mask;
                while bits != 0 {
                    buf.push(items[bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
                if map.contains_key(&buf[..]) {
                    continue;
                }
                map.insert(Itemset::from_sorted(buf.clone()), *support);
                stack.extend((0..lim).map(|b| (mask & !(1u64 << b), b)));
            }
        }
        FrequentItemsets {
            map,
            min_count: self.min_count,
            n_objects: self.n_objects,
            stats: MiningStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    /// FC of the paper's running example at minsup 2/5:
    /// C(4), AC(3), BE(4), BCE(3), ACD is infrequent at count 2? supp=1 —
    /// excluded; ABCE(2).
    fn paper_fc() -> ClosedItemsets {
        ClosedItemsets::from_pairs(
            vec![
                (set(&[3]), 4),
                (set(&[1, 3]), 3),
                (set(&[2, 5]), 4),
                (set(&[2, 3, 5]), 3),
                (set(&[1, 2, 3, 5]), 2),
            ],
            2,
            5,
        )
    }

    #[test]
    fn frequent_container_basics() {
        let mut f = FrequentItemsets::new(2, 5);
        f.insert(set(&[1]), 3);
        f.insert(set(&[1, 3]), 3);
        f.insert(set(&[2]), 4);
        assert_eq!(f.len(), 3);
        assert_eq!(f.support(&set(&[1])), Some(3));
        assert_eq!(f.support(&set(&[9])), None);
        assert!(f.contains(&set(&[1, 3])));
        assert_eq!(f.frequency(&set(&[2])), Some(0.8));
        assert_eq!(f.level_counts(), vec![0, 2, 1]);
    }

    #[test]
    fn frequent_sorted_iteration_is_canonical() {
        let mut f = FrequentItemsets::new(1, 3);
        f.insert(set(&[2, 3]), 1);
        f.insert(set(&[9]), 2);
        f.insert(set(&[1, 5]), 1);
        let order: Vec<_> = f
            .iter_sorted()
            .into_iter()
            .map(|(s, _)| s.clone())
            .collect();
        assert_eq!(order, vec![set(&[9]), set(&[1, 5]), set(&[2, 3])]);
    }

    #[test]
    fn frequent_maximal() {
        let mut f = FrequentItemsets::new(1, 5);
        f.insert(set(&[1]), 3);
        f.insert(set(&[2]), 3);
        f.insert(set(&[1, 2]), 2);
        f.insert(set(&[3]), 2);
        let mut maxes: Vec<_> = f.maximal().into_iter().cloned().collect();
        maxes.sort();
        assert_eq!(maxes, vec![set(&[3]), set(&[1, 2])]);
    }

    #[test]
    fn closed_lookup_and_closure() {
        let fc = paper_fc();
        assert_eq!(fc.len(), 5);
        assert_eq!(fc.support_of_closed(&set(&[2, 5])), Some(4));
        assert_eq!(fc.support_of_closed(&set(&[2])), None);
        // h(B) = BE
        let (c, sup) = fc.closure_of(&set(&[2])).unwrap();
        assert_eq!(c, &set(&[2, 5]));
        assert_eq!(sup, 4);
        // h(AB) = ABCE
        let (c, sup) = fc.closure_of(&set(&[1, 2])).unwrap();
        assert_eq!(c, &set(&[1, 2, 3, 5]));
        assert_eq!(sup, 2);
        // support of any frequent itemset = support of closure
        assert_eq!(fc.support(&set(&[1])), Some(3));
        assert_eq!(fc.support(&set(&[4])), None); // D infrequent here
    }

    #[test]
    fn closed_maximal_sets() {
        let fc = paper_fc();
        let maxes = fc.maximal();
        assert_eq!(maxes, vec![&set(&[1, 2, 3, 5])]);
    }

    #[test]
    fn from_pairs_dedups_consistently() {
        let fc =
            ClosedItemsets::from_pairs(vec![(set(&[1]), 3), (set(&[1]), 3), (set(&[2]), 2)], 2, 5);
        assert_eq!(fc.len(), 2);
    }

    #[test]
    #[should_panic(expected = "conflicting supports")]
    fn from_pairs_rejects_conflicts() {
        let _ = ClosedItemsets::from_pairs(vec![(set(&[1]), 3), (set(&[1]), 2)], 1, 5);
    }

    #[test]
    fn expand_to_frequent_covers_all_subsets() {
        let fc = paper_fc();
        let f = fc.expand_to_frequent();
        // The paper example has 15 frequent itemsets at minsup 2:
        // A,B,C,E, AB,AC,AE,BC,BE,CE, ABC,ABE,ACE,BCE, ABCE.
        assert_eq!(f.len(), 15);
        assert_eq!(f.support(&set(&[1])), Some(3)); // supp(A) = supp(AC)
        assert_eq!(f.support(&set(&[5])), Some(4)); // supp(E) = supp(BE)
        assert_eq!(f.support(&set(&[1, 5])), Some(2)); // supp(AE) = supp(ABCE)
        assert_eq!(f.support(&set(&[2, 3])), Some(3)); // supp(BC) = supp(BCE)
    }

    #[test]
    fn serde_roundtrip_with_index_rebuild() {
        let fc = paper_fc();
        let json = serde_json::to_string(&fc).unwrap();
        let mut back: ClosedItemsets = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 5);
        // Exact lookups need the index rebuilt.
        back.rebuild_index();
        assert_eq!(back.support_of_closed(&set(&[2, 5])), Some(4));
    }
}
