//! Frequent pseudo-closed itemsets (Theorem 1 of the paper).
//!
//! > "A frequent pseudo-closed itemset is a frequent itemset that is not
//! > closed and that contains the closures of all its subsets that are
//! > frequent pseudo-closed itemsets."
//!
//! [`frequent_pseudo_closed`] computes the set `FP` directly from this
//! definition by a fixpoint over the frequent itemsets in size order (a
//! proper subset is always strictly smaller, so each candidate only needs
//! the pseudo-closed sets already found). It is the workspace's one
//! derivation of `FP`: the fused pipeline and the streaming session both
//! call it over `F` derived from `FC`. The support-unrestricted stem
//! base of [`crate::next_closure`] provides an independent second
//! algorithm; the two are cross-checked in the integration tests.

use rulebases_dataset::{Itemset, Support};
use rulebases_mining::{ClosedItemsets, FrequentItemsets};

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

#[cfg(test)]
mod tests {
    use super::*;
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
}
