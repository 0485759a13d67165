//! Approximate association rules and the **Luxenburger basis**
//! (Theorem 2).
//!
//! An approximate rule has confidence strictly below 1. Luxenburger (1991)
//! showed that the rules *between comparable closed sets* generate all
//! partial implications; the paper adapts this to frequent closed
//! itemsets: the basis holds one rule `C1 → C2 ∖ C1` per pair
//! `C1 ⊂ C2 ∈ FC`, and its **transitive reduction** — only the pairs with
//! no closed set strictly between them, i.e. the Hasse edges of the
//! iceberg lattice — is still a basis: any rule's confidence is the
//! product of edge confidences along a lattice path (the ratios
//! telescope), and its support is carried by the last edge.
//!
//! A `min_confidence` threshold commutes with the reduction: every edge on
//! a path multiplies to the rule's confidence, so each edge confidence is
//! ≥ the rule confidence — a valid rule never needs a sub-threshold edge
//! (see `threshold_commutes_with_reduction` below).

use crate::rule::Rule;
use rulebases_dataset::Itemset;
use rulebases_lattice::IcebergLattice;
use rulebases_mining::{ClosedItemsets, FrequentItemsets};

/// Enumerates **all** approximate rules at `min_confidence`: every pair
/// `X ⊂ Y` of frequent itemsets with `conf = supp(Y)/supp(X) < 1` and
/// `≥ min_confidence`, as the rule `X → Y ∖ X`. Canonical order.
pub fn all_approximate_rules(frequent: &FrequentItemsets, min_confidence: f64) -> Vec<Rule> {
    let mut rules = crate::all_rules::all_rules(frequent, min_confidence);
    rules.retain(|r| !r.is_exact());
    rules
}

/// A Luxenburger basis — full or transitively reduced.
#[derive(Clone, Debug)]
pub struct LuxenburgerBasis {
    rules: Vec<Rule>,
    /// The confidence threshold the basis was built with.
    pub min_confidence: f64,
    /// Whether this is the transitive reduction (Hasse edges only).
    pub reduced: bool,
}

impl LuxenburgerBasis {
    /// Builds the **full** basis: one rule per comparable pair of frequent
    /// closed itemsets with confidence ≥ `min_confidence`.
    ///
    /// Rules whose antecedent would be the empty itemset (pairs starting
    /// at an empty lattice bottom) are skipped unless
    /// `include_empty_antecedent` — they are "frequency statements"
    /// `∅ → C`, not association rules in the usual sense.
    pub fn full(fc: &ClosedItemsets, min_confidence: f64, include_empty_antecedent: bool) -> Self {
        assert!((0.0..=1.0).contains(&min_confidence));
        let sets: Vec<(&Itemset, u64)> = fc.iter().collect();
        let mut rules = Vec::new();
        // The rule of `C1 ⊂ C2` spans `C2`, and `FC` is in canonical
        // order with every proper subset ahead of its supersets, so taking
        // the pairs by `C2`, then by `C1`, yields the canonical rule order.
        for (j, (c2, s2)) in sets.iter().enumerate() {
            for (c1, s1) in &sets[..j] {
                if c1.is_empty() && !include_empty_antecedent {
                    continue;
                }
                if !c1.is_proper_subset_of(c2) {
                    continue;
                }
                // Distinct closed sets have distinct extents: s2 < s1, so
                // the confidence is automatically < 1.
                debug_assert!(s2 < s1);
                if (*s2 as f64) < min_confidence * *s1 as f64 {
                    continue;
                }
                rules.push(Rule::new((*c1).clone(), c2.difference(c1), *s2, *s1));
            }
        }
        Self::from_sorted_rules(rules, min_confidence, false)
    }

    /// Builds the **full** basis from an already-constructed iceberg
    /// lattice: reachability along Hasse edges *is* the strict subset
    /// order over `FC`, so walking down from each node enumerates exactly
    /// the comparable pairs [`LuxenburgerBasis::full`] finds by pairwise
    /// subset tests — without re-deriving the order the lattice already
    /// holds. This is the fused pipeline's path to the full basis.
    ///
    /// The nodes are in canonical order, so taking the pairs by upper
    /// node, then by lower node, yields the canonical rule order and
    /// nothing is sorted but each node's lower indices. The walk below a
    /// node stops at any node whose support already fails the
    /// confidence threshold: everything under it has more support still.
    pub fn full_from_lattice(
        lattice: &IcebergLattice,
        min_confidence: f64,
        include_empty_antecedent: bool,
    ) -> Self {
        assert!((0.0..=1.0).contains(&min_confidence));
        let n = lattice.n_nodes();
        let mut rules = Vec::new();
        // `seen[v] == j` ⇔ node `v` was reached in the walk below `j`.
        let mut seen = vec![usize::MAX; n];
        let (mut below, mut stack) = (Vec::new(), Vec::new());
        for j in 0..n {
            let (c2, s2) = lattice.node(j);
            below.clear();
            stack.extend_from_slice(lattice.lower_covers(j));
            while let Some(i) = stack.pop() {
                if seen[i] == j {
                    continue;
                }
                seen[i] = j;
                let (_, s1) = lattice.node(i);
                debug_assert!(s2 < s1);
                if (s2 as f64) < min_confidence * s1 as f64 {
                    continue;
                }
                below.push(i);
                stack.extend_from_slice(lattice.lower_covers(i));
            }
            below.sort_unstable();
            for &i in &below {
                let (c1, s1) = lattice.node(i);
                if c1.is_empty() && !include_empty_antecedent {
                    continue;
                }
                rules.push(Rule::new(c1.clone(), c2.difference(c1), s2, s1));
            }
        }
        Self::from_sorted_rules(rules, min_confidence, false)
    }

    /// Builds the **transitive reduction**: one rule per Hasse edge of the
    /// iceberg lattice with confidence ≥ `min_confidence`, taken by upper
    /// node, then by lower node — the canonical rule order, unsorted.
    pub fn reduced(
        lattice: &IcebergLattice,
        min_confidence: f64,
        include_empty_antecedent: bool,
    ) -> Self {
        assert!((0.0..=1.0).contains(&min_confidence));
        let mut rules = Vec::new();
        for j in 0..lattice.n_nodes() {
            let (c2, s2) = lattice.node(j);
            for &i in lattice.lower_covers(j) {
                let (c1, s1) = lattice.node(i);
                if c1.is_empty() && !include_empty_antecedent {
                    continue;
                }
                if (s2 as f64) < min_confidence * s1 as f64 {
                    continue;
                }
                rules.push(Rule::new(c1.clone(), c2.difference(c1), s2, s1));
            }
        }
        Self::from_sorted_rules(rules, min_confidence, true)
    }

    /// Wraps an already-derived rule list (canonical order) as a basis —
    /// the constructor every builder above ends in, and the one the
    /// streaming maintenance uses, where the rules come from an
    /// incrementally patched map rather than a lattice walk.
    pub(crate) fn from_sorted_rules(rules: Vec<Rule>, min_confidence: f64, reduced: bool) -> Self {
        debug_assert!(rules.windows(2).all(|w| w[0] < w[1]), "rules not sorted");
        LuxenburgerBasis {
            rules,
            min_confidence,
            reduced,
        }
    }

    /// Number of basis rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The basis rules in canonical order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// The rules in canonical order, by value.
    pub(crate) fn into_rules(self) -> Vec<Rule> {
        self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::{paper_example, MinSupport, MiningContext};
    use rulebases_mining::brute::{brute_closed, brute_frequent};

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    fn setup() -> (
        MiningContext,
        FrequentItemsets,
        ClosedItemsets,
        IcebergLattice,
    ) {
        let ctx = MiningContext::new(paper_example());
        let f = brute_frequent(&ctx, MinSupport::Count(2));
        let fc = brute_closed(&ctx, MinSupport::Count(2));
        let lattice = IcebergLattice::from_closed(&fc);
        (ctx, f, fc, lattice)
    }

    #[test]
    fn full_basis_of_paper_example() {
        let (_, _, fc, _) = setup();
        let basis = LuxenburgerBasis::full(&fc, 0.0, false);
        // Comparable pairs not starting at ∅: C⊂AC, C⊂BCE, C⊂ABCE,
        // AC⊂ABCE, BE⊂BCE, BE⊂ABCE, BCE⊂ABCE — 7 rules.
        assert_eq!(basis.len(), 7);
        assert!(basis.iter().all(|r| !r.is_exact()));
        // C → A with conf 3/4.
        assert!(basis
            .rules()
            .contains(&Rule::new(set(&[3]), set(&[1]), 3, 4)));
        // BE → C with conf 3/4.
        assert!(basis
            .rules()
            .contains(&Rule::new(set(&[2, 5]), set(&[3]), 3, 4)));
    }

    #[test]
    fn reduced_basis_is_the_hasse_diagram() {
        let (_, _, _fc, lattice) = setup();
        let reduced = LuxenburgerBasis::reduced(&lattice, 0.0, false);
        // 7 Hasse edges minus the 2 out of the empty bottom = 5 rules.
        assert_eq!(reduced.len(), 5);
        assert!(reduced.reduced);
        // The transitive rule C → ABE (C ⊂ ABCE) is NOT in the reduction.
        assert!(!reduced
            .rules()
            .iter()
            .any(|r| r.antecedent == set(&[3]) && r.consequent == set(&[1, 2, 5])));
        // But its generating edges are.
        assert!(reduced
            .rules()
            .contains(&Rule::new(set(&[3]), set(&[1]), 3, 4)));
        assert!(reduced
            .rules()
            .contains(&Rule::new(set(&[1, 3]), set(&[2, 5]), 2, 3)));
    }

    #[test]
    fn full_from_lattice_matches_pairwise_full() {
        let (_, _, fc, lattice) = setup();
        for conf in [0.0, 0.4, 0.7, 1.0] {
            for include_empty in [false, true] {
                let by_pairs = LuxenburgerBasis::full(&fc, conf, include_empty);
                let by_lattice = LuxenburgerBasis::full_from_lattice(&lattice, conf, include_empty);
                assert_eq!(
                    by_pairs.rules(),
                    by_lattice.rules(),
                    "conf={conf} include_empty={include_empty}"
                );
                assert!(!by_lattice.reduced);
            }
        }
    }

    #[test]
    fn reduced_is_subset_of_full() {
        let (_, _, fc, lattice) = setup();
        for conf in [0.0, 0.4, 0.6, 0.8] {
            let full = LuxenburgerBasis::full(&fc, conf, false);
            let reduced = LuxenburgerBasis::reduced(&lattice, conf, false);
            for rule in reduced.rules() {
                assert!(full.rules().contains(rule), "{rule} missing from full");
            }
            assert!(reduced.len() <= full.len());
        }
    }

    #[test]
    fn confidence_threshold_filters() {
        let (_, _, fc, _) = setup();
        let at_0 = LuxenburgerBasis::full(&fc, 0.0, false);
        let at_07 = LuxenburgerBasis::full(&fc, 0.7, false);
        let at_1 = LuxenburgerBasis::full(&fc, 1.0, false);
        assert!(at_07.len() < at_0.len());
        assert!(at_1.is_empty()); // closed-set pairs are never exact
        for r in at_07.rules() {
            assert!(r.confidence() >= 0.7);
        }
    }

    #[test]
    fn threshold_commutes_with_reduction() {
        // Every full-basis rule at minconf must be reconstructible from
        // reduced-basis edges at the same minconf: each edge along the
        // lattice path has confidence ≥ the rule's.
        let (_, _, fc, lattice) = setup();
        let minconf = 0.5;
        let full = LuxenburgerBasis::full(&fc, minconf, false);
        for rule in full.rules() {
            let from = lattice.position(&rule.antecedent).unwrap();
            let to = lattice.position(&rule.full_itemset()).unwrap();
            let path = lattice.path(from, to).unwrap();
            for hop in path.windows(2) {
                let (_, s_lo) = lattice.node(hop[0]);
                let (_, s_hi) = lattice.node(hop[1]);
                let edge_conf = s_hi as f64 / s_lo as f64;
                assert!(
                    edge_conf >= rule.confidence() - 1e-12,
                    "edge conf {edge_conf} below rule conf {} for {rule}",
                    rule.confidence()
                );
            }
        }
    }

    #[test]
    fn empty_antecedent_toggle() {
        let (_, _, fc, _) = setup();
        let without = LuxenburgerBasis::full(&fc, 0.0, false);
        let with = LuxenburgerBasis::full(&fc, 0.0, true);
        // The empty bottom ∅ is below all 5 other closed sets.
        assert_eq!(with.len(), without.len() + 5);
        assert!(with.rules().iter().any(|r| r.antecedent.is_empty()));
        assert!(without.rules().iter().all(|r| !r.antecedent.is_empty()));
    }

    #[test]
    fn all_approximate_rules_excludes_exact() {
        let (ctx, f, _, _) = setup();
        let rules = all_approximate_rules(&f, 0.3);
        assert!(!rules.is_empty());
        for r in &rules {
            assert!(!r.is_exact());
            assert!(r.confidence() >= 0.3);
            assert_eq!(ctx.support(&r.full_itemset()), r.support);
        }
    }

    #[test]
    fn basis_far_smaller_than_all_approximate() {
        let (_, f, fc, lattice) = setup();
        let all = all_approximate_rules(&f, 0.0);
        let full = LuxenburgerBasis::full(&fc, 0.0, false);
        let reduced = LuxenburgerBasis::reduced(&lattice, 0.0, false);
        assert!(reduced.len() <= full.len());
        assert!(full.len() < all.len(), "{} !< {}", full.len(), all.len());
    }
}
