//! Frequent pseudo-closed itemsets (Theorem 1 of the paper).
//!
//! > "A frequent pseudo-closed itemset is a frequent itemset that is not
//! > closed and that contains the closures of all its subsets that are
//! > frequent pseudo-closed itemsets."
//!
//! [`frequent_pseudo_closed`] computes the set `FP` directly from this
//! definition by a fixpoint over the frequent itemsets in size order (a
//! proper subset is always strictly smaller, so each candidate only needs
//! the pseudo-closed sets already found). The support-unrestricted stem
//! base of [`crate::next_closure`] provides an independent second
//! algorithm; the two are cross-checked in the integration tests.

use crate::closure_op::ClosureOperator;
use crate::implications::{Implication, ImplicationSet};
use crate::next_closure::next_closed;
use rulebases_dataset::{Item, Itemset, Support};
use rulebases_mining::{ClosedItemsets, FrequentItemsets};
use std::collections::HashMap;

/// A frequent pseudo-closed itemset with its closure and support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PseudoClosed {
    /// The pseudo-closed itemset `P`.
    pub set: Itemset,
    /// Its closure `h(P)` (a frequent closed itemset).
    pub closure: Itemset,
    /// `supp(P) = supp(h(P))`.
    pub support: Support,
}

/// Computes the frequent pseudo-closed itemsets `FP` from the frequent
/// itemsets and the frequent closed itemsets of the same context at the
/// same threshold.
///
/// The empty itemset is considered frequent (it is supported by every
/// object); it is pseudo-closed exactly when `h(∅) ≠ ∅`, and in that case
/// contributes the basis rule `∅ → h(∅)`.
///
/// Results are in canonical (size, then lexicographic) order.
///
/// Each candidate costs a hash probe of `fc` (a closed candidate is not
/// pseudo-closed) and the definition check against the pseudo-closed
/// sets found so far; only a candidate that passes both pays the linear
/// scan of `fc` for its closure, so the scans number `|FP|`, not `|F|`.
/// The candidates are read from `frequent` by reference.
///
/// # Panics
///
/// Panics if `frequent` and `fc` were mined at different thresholds.
pub fn frequent_pseudo_closed(
    frequent: &FrequentItemsets,
    fc: &ClosedItemsets,
) -> Vec<PseudoClosed> {
    assert_eq!(
        frequent.min_count, fc.min_count,
        "frequent and closed sets mined at different thresholds"
    );
    let mut found: Vec<PseudoClosed> = Vec::new();
    if fc.is_empty() {
        return found;
    }

    // Candidates by size, ∅ first: a proper subset is strictly smaller,
    // so each candidate's are all visited before it, and the order within
    // one size does not matter.
    let empty = Itemset::empty();
    let mut by_len: Vec<Vec<(&Itemset, Support)>> = vec![vec![(&empty, fc.n_objects as Support)]];
    for (set, support) in frequent.iter() {
        if by_len.len() <= set.len() {
            by_len.resize_with(set.len() + 1, Vec::new);
        }
        by_len[set.len()].push((set, support));
    }

    for (candidate, support) in by_len.into_iter().flatten() {
        if fc.contains(candidate) {
            continue; // closed, not pseudo-closed
        }
        let is_pseudo = found
            .iter()
            .filter(|p| p.set.is_proper_subset_of(candidate))
            .all(|p| p.closure.is_subset_of(candidate));
        if !is_pseudo {
            continue;
        }
        let Some((closure, closure_support)) = fc.closure_of(candidate) else {
            debug_assert!(false, "frequent itemset {candidate:?} has no closure in FC");
            continue;
        };
        debug_assert_eq!(support, closure_support, "support of {candidate:?}");
        found.push(PseudoClosed {
            set: candidate.clone(),
            closure: closure.clone(),
            support,
        });
    }
    found.sort_by(|x, y| x.set.cmp(&y.set));
    found
}

/// The closure operator of the system `FC ∪ {I}`: `φ(X)` is the smallest
/// family member containing `X`, or the full universe when none does. A
/// complete frequent-closed family is intersection-closed (the meet of
/// two frequent closed sets is closed, and at least as frequent), so the
/// smallest superset is unique — the intersection of all supersets.
struct FamilyClosure<'a> {
    sets: &'a [(Itemset, Support)],
    n_items: usize,
}

impl ClosureOperator for FamilyClosure<'_> {
    fn n_items(&self) -> usize {
        self.n_items
    }

    fn close(&self, set: &Itemset) -> Itemset {
        let mut acc: Option<Itemset> = None;
        for (member, _) in self.sets {
            if set.is_subset_of(member) {
                acc = Some(match acc {
                    None => member.clone(),
                    Some(a) => a.intersection(member),
                });
                if acc.as_ref().is_some_and(|a| a.len() == set.len()) {
                    break; // cannot shrink below the argument
                }
            }
        }
        acc.unwrap_or_else(|| Itemset::universe(self.n_items))
    }
}

/// Computes the frequent pseudo-closed itemsets directly from the
/// frequent **closed** family — no frequent-itemset materialization.
///
/// `family` must be the complete set of frequent closed itemsets of one
/// context at one threshold (exactly what an iceberg-lattice snapshot
/// holds). The function runs Ganter's stem-base walk over the closure
/// system `family ∪ {I}`, `I` the items some family member holds: the
/// premises it collects are the pseudo-closed sets of that system, and
/// the frequent ones — those whose closure is a family member — are
/// precisely the paper's `FP` (an infrequent pseudo-closed set cannot
/// sit below a frequent candidate, so the two definitions' saturation
/// conditions coincide on frequent sets; the agreement with
/// [`frequent_pseudo_closed`] is pinned in the tests).
///
/// The context's items outside the family never matter: every frequent
/// pseudo-closed set lies inside its closure, a family member, and on
/// the sets below it a wider universe would change only the closure of
/// the infrequent ones (the fallback `I`), so the frequent premises come
/// out the same. The walk renumbers the items in use densely and maps
/// its results back.
///
/// Cost: the walk visits every closed set of `family ∪ {I}` *and every
/// pseudo-closed premise, the infrequent `P → I` ones included*, and
/// each step to the next set evaluates up to `u` logical closures over
/// the premises collected so far, `u` the number of items in use. That
/// is independent of the row count, the frequent-set count and the
/// context's items outside the family, but not of `u`: the infrequent
/// premises are sets of items in use that no member holds, and there
/// can be far more of them than members. A family of ∅ plus
/// `k` singletons has no frequent premise but `k(k−1)/2` infrequent
/// ones (every pair); its walk took 62–73 ms at `k = 25` and 3.5 s at
/// `k = 50` (release build, 2-CPU x86-64 box), growing about as `k⁶`.
/// So the walk suits narrow vocabularies, such as a streaming session's
/// top items, not a sparse family over hundreds of frequent items,
/// where [`frequent_pseudo_closed`] over `F` is the cheaper route.
///
/// Results are in canonical (size, then lexicographic) order.
pub fn pseudo_closed_of_family(family: &[(Itemset, Support)]) -> Vec<PseudoClosed> {
    if family.is_empty() {
        return Vec::new();
    }
    // The items in use, ascending: dense id `d` stands for `used[d]`. The
    // renumbering is monotone, so it keeps the canonical order.
    let used: Vec<Item> = family
        .iter()
        .fold(Itemset::empty(), |acc, (set, _)| acc.union(set))
        .into_vec();
    let dense: Vec<(Itemset, Support)> = family
        .iter()
        .map(|(set, sup)| {
            let ids = set
                .iter()
                .map(|item| used.partition_point(|&u| u < item) as u32);
            (Itemset::from_sorted(ids.map(Item::new).collect()), *sup)
        })
        .collect();
    let original =
        |set: &Itemset| Itemset::from_sorted(set.iter().map(|d| used[d.id() as usize]).collect());
    let mut found = walk_family(&dense, used.len());
    for p in &mut found {
        p.set = original(&p.set);
        p.closure = original(&p.closure);
    }
    found
}

/// Ganter's walk for [`pseudo_closed_of_family`] over the universe
/// `0..n_items`.
fn walk_family(family: &[(Itemset, Support)], n_items: usize) -> Vec<PseudoClosed> {
    let support_of: HashMap<&Itemset, Support> = family.iter().map(|(s, sup)| (s, *sup)).collect();
    let op = FamilyClosure {
        sets: family,
        n_items,
    };
    let mut implications = ImplicationSet::new(n_items);
    let mut found: Vec<PseudoClosed> = Vec::new();

    // Ganter's walk: enumerate, in lectic order, the sets closed under
    // the implications collected so far; each one is either closed in the
    // system (skip) or pseudo-closed (record its implication — including
    // the infrequent `P → I` ones, which the walk needs to stay exact
    // even though they never become basis rules).
    let mut a = Itemset::empty();
    loop {
        let b = op.close(&a);
        if a != b {
            if let Some(&support) = support_of.get(&b) {
                found.push(PseudoClosed {
                    set: a.clone(),
                    closure: b.clone(),
                    support,
                });
            }
            implications.push(Implication::new(a.clone(), b));
        }
        if a.len() == n_items {
            break;
        }
        match next_closed(&implications, &a) {
            Some(next) => a = next,
            None => break,
        }
    }
    found.sort_by(|x, y| x.set.cmp(&y.set));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rulebases_dataset::{paper_example, MinSupport, MiningContext, TransactionDb};
    use rulebases_mining::brute::{brute_closed, brute_frequent};

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    fn fp_of(db: TransactionDb, min_count: u64) -> Vec<PseudoClosed> {
        let ctx = MiningContext::new(db);
        let frequent = brute_frequent(&ctx, MinSupport::Count(min_count));
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        frequent_pseudo_closed(&frequent, &fc)
    }

    #[test]
    fn paper_example_fp_at_minsup_two() {
        // The published example: FP = {A, B, E}, giving the DG basis
        // {A→C, B→E, E→B}.
        let fp = fp_of(paper_example(), 2);
        let sets: Vec<Itemset> = fp.iter().map(|p| p.set.clone()).collect();
        assert_eq!(sets, vec![set(&[1]), set(&[2]), set(&[5])]);
        assert_eq!(fp[0].closure, set(&[1, 3])); // h(A) = AC
        assert_eq!(fp[1].closure, set(&[2, 5])); // h(B) = BE
        assert_eq!(fp[2].closure, set(&[2, 5])); // h(E) = BE
        assert_eq!(fp[0].support, 3);
    }

    #[test]
    fn paper_example_fp_at_minsup_one() {
        // With D frequent, {D} (closure ACD) joins FP.
        let fp = fp_of(paper_example(), 1);
        let sets: Vec<Itemset> = fp.iter().map(|p| p.set.clone()).collect();
        assert!(sets.contains(&set(&[4])));
        assert!(sets.contains(&set(&[1])));
        // Still no closed set sneaks in.
        let ctx = MiningContext::new(paper_example());
        for p in &fp {
            assert!(!ctx.is_closed(&p.set), "{:?}", p.set);
        }
    }

    #[test]
    fn empty_set_is_pseudo_closed_when_not_closed() {
        // Item 7 in every row: h(∅) = {7} ≠ ∅, so ∅ ∈ FP.
        let db = TransactionDb::from_rows(vec![vec![1, 7], vec![2, 7]]);
        let fp = fp_of(db, 1);
        assert_eq!(fp[0].set, Itemset::empty());
        assert_eq!(fp[0].closure, set(&[7]));
        assert_eq!(fp[0].support, 2);
    }

    #[test]
    fn pseudo_closed_sets_satisfy_definition() {
        let ctx = MiningContext::new(paper_example());
        let frequent = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(1));
        let fp = frequent_pseudo_closed(&frequent, &fc);
        for p in &fp {
            assert!(!ctx.is_closed(&p.set));
            for q in &fp {
                if q.set.is_proper_subset_of(&p.set) {
                    assert!(q.closure.is_subset_of(&p.set));
                }
            }
        }
        // And nothing satisfying the definition is missed: check every
        // frequent non-closed itemset.
        let fp_sets: Vec<&Itemset> = fp.iter().map(|p| &p.set).collect();
        for (x, _) in frequent.iter() {
            if ctx.is_closed(x) || fp_sets.contains(&x) {
                continue;
            }
            let qualifies = fp
                .iter()
                .filter(|p| p.set.is_proper_subset_of(x))
                .all(|p| p.closure.is_subset_of(x));
            assert!(!qualifies, "{x:?} satisfies the definition but was missed");
        }
    }

    #[test]
    fn agrees_with_stem_base_on_supported_sets() {
        let ctx = MiningContext::new(paper_example());
        let stem = crate::next_closure::stem_base(&ctx);
        let supported_stem: Vec<Itemset> = stem
            .pseudo_closed()
            .filter(|p| ctx.support(p) >= 1)
            .cloned()
            .collect();

        let frequent = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(1));
        let mut fp: Vec<Itemset> = frequent_pseudo_closed(&frequent, &fc)
            .into_iter()
            .map(|p| p.set)
            .collect();
        let mut expected = supported_stem;
        fp.sort();
        expected.sort();
        assert_eq!(fp, expected);
    }

    #[test]
    fn no_pseudo_closed_in_rectangular_context() {
        // Every object has the same items: the only closed set is the
        // bottom = everything; ∅ is pseudo-closed, nothing else exists.
        let db = TransactionDb::from_rows(vec![vec![0, 1, 2]; 3]);
        let fp = fp_of(db, 1);
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].set, Itemset::empty());
        assert_eq!(fp[0].closure, set(&[0, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "different thresholds")]
    fn mismatched_thresholds_panic() {
        let ctx = MiningContext::new(paper_example());
        let frequent = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(2));
        let _ = frequent_pseudo_closed(&frequent, &fc);
    }

    /// The family-direct result and the definition-driven one (which
    /// walks all frequent itemsets) on one context, in that order.
    fn family_and_definition(
        db: TransactionDb,
        min_count: u64,
    ) -> (Vec<PseudoClosed>, Vec<PseudoClosed>) {
        let ctx = MiningContext::new(db);
        let frequent = brute_frequent(&ctx, MinSupport::Count(min_count));
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        let family: Vec<(Itemset, Support)> = fc.iter().map(|(s, sup)| (s.clone(), sup)).collect();
        (
            pseudo_closed_of_family(&family),
            frequent_pseudo_closed(&frequent, &fc),
        )
    }

    fn assert_family_matches_definition(db: TransactionDb, min_count: u64) {
        let (got, expected) = family_and_definition(db, min_count);
        assert_eq!(got, expected, "min_count {min_count}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The walk runs over the items in use only, so spread them with
        /// gaps (item `k` becomes an id in `40k..40k + 40`): the result
        /// must still be the definition's, set for set.
        #[test]
        fn family_walk_matches_frequent_pseudo_closed(
            rows in vec(vec(0u32..6, 0..5), 1..9),
            gaps in vec(0u32..40, 6),
            min_count in 1u64..5,
        ) {
            let rows: Vec<Vec<u32>> = rows
                .iter()
                .map(|row| row.iter().map(|&k| 40 * k + gaps[k as usize]).collect())
                .collect();
            let (got, expected) = family_and_definition(TransactionDb::from_rows(rows), min_count);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn family_walk_matches_on_edge_families() {
        for min_count in 1..=5 {
            assert_family_matches_definition(paper_example(), min_count);
        }
        // A family holding only the bottom ∅ (no item reaches the
        // threshold): no pseudo-closed set.
        assert_family_matches_definition(TransactionDb::from_rows(vec![vec![3], vec![5]]), 2);
        // A family holding only a bottom other than ∅: ∅ is
        // pseudo-closed, with h(∅) as its closure.
        assert_family_matches_definition(
            TransactionDb::from_rows(vec![vec![7, 40], vec![7, 90]]),
            2,
        );
        // The same bottom under a larger family, and a closed universe
        // member.
        assert_family_matches_definition(
            TransactionDb::from_rows(vec![vec![1, 7], vec![2, 7], vec![1, 2, 7]]),
            1,
        );
        assert_family_matches_definition(TransactionDb::from_rows(vec![vec![0, 1, 2]; 3]), 1);
        // Pairwise-disjoint items: everything closed, no pseudo-closed.
        assert_family_matches_definition(
            TransactionDb::from_rows(vec![vec![0], vec![1], vec![2]]),
            1,
        );
        // No row holds every item in use (and id 2 is a gap): the walk
        // records infrequent `P → I` premises but never emits them.
        assert_family_matches_definition(
            TransactionDb::from_rows(vec![vec![0, 3], vec![0, 4], vec![1, 3]]),
            1,
        );
        // An empty family: the threshold exceeds the row count.
        assert_family_matches_definition(TransactionDb::from_rows(vec![vec![1], vec![2]]), 3);
    }

    #[test]
    fn family_walk_on_empty_family() {
        assert!(pseudo_closed_of_family(&[]).is_empty());
    }
}
