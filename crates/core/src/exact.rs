//! Exact association rules and the **Duquenne-Guigues basis** (Theorem 1).
//!
//! An exact rule `X → Z` has confidence 1: every object containing `X`
//! contains `Z`, equivalently `Z ⊆ h(X)`. The set of all exact rules is
//! hugely redundant; the paper adapts the Duquenne-Guigues basis
//! (Guigues & Duquenne 1986) to the frequent case: one rule
//! `P → h(P) ∖ P` per frequent **pseudo-closed** itemset `P`. This basis
//! is sound, complete (every exact rule follows by Armstrong derivation),
//! and of minimum cardinality among all complete rule sets.

use crate::rule::Rule;
use rulebases_dataset::Itemset;
use rulebases_lattice::{frequent_pseudo_closed, Implication, ImplicationSet, PseudoClosed};
use rulebases_mining::{ClosedItemsets, FrequentItemsets};

/// Enumerates **all** exact rules with non-empty antecedents: for every
/// frequent itemset `X` and every non-empty `S ⊆ h(X) ∖ X`, the rule
/// `X → S` (each exact rule arises from exactly one `X`, so there are no
/// duplicates). Returns rules in canonical order.
pub fn all_exact_rules(frequent: &FrequentItemsets, fc: &ClosedItemsets) -> Vec<Rule> {
    let mut rules = Vec::new();
    for (x, support) in frequent.iter() {
        let Some((closure, _)) = fc.closure_of(x) else {
            debug_assert!(false, "frequent itemset {x:?} lacks a closure");
            continue;
        };
        let extra = closure.difference(x);
        if extra.is_empty() {
            continue;
        }
        assert!(
            extra.len() < 64,
            "closure difference too large to enumerate"
        );
        let items: Vec<_> = extra.iter().collect();
        for mask in 1u64..(1 << items.len()) {
            let consequent = Itemset::from_items(
                items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &it)| it),
            );
            rules.push(Rule::new(x.clone(), consequent, support, support));
        }
    }
    rules.sort();
    rules
}

/// Counts all exact rules without materializing them:
/// `Σ_X (2^{|h(X)∖X|} − 1)` over the frequent itemsets.
pub fn count_exact_rules(frequent: &FrequentItemsets, fc: &ClosedItemsets) -> u64 {
    let mut count = 0u64;
    for (x, _) in frequent.iter() {
        if let Some((closure, _)) = fc.closure_of(x) {
            let extra = closure.len() - x.len();
            debug_assert!(extra < 64);
            count += (1u64 << extra) - 1;
        }
    }
    count
}

/// The Duquenne-Guigues basis for exact association rules.
#[derive(Clone, Debug)]
pub struct DuquenneGuiguesBasis {
    rules: Vec<Rule>,
    implications: ImplicationSet,
    pseudo_closed: Vec<PseudoClosed>,
}

impl DuquenneGuiguesBasis {
    /// Builds the basis from the frequent itemsets and the frequent closed
    /// itemsets of the same context at the same threshold: one rule
    /// `P → h(P) ∖ P` per frequent pseudo-closed `P`.
    pub fn build(frequent: &FrequentItemsets, fc: &ClosedItemsets, n_items: usize) -> Self {
        Self::from_pseudo_closed(frequent_pseudo_closed(frequent, fc), n_items)
    }

    /// Builds the basis from an already-computed list of frequent
    /// pseudo-closed itemsets (canonical order) — the constructor
    /// [`DuquenneGuiguesBasis::build`] ends in, and the one a streaming
    /// session publishes through: it keeps its `FP`, derived by the same
    /// [`frequent_pseudo_closed`], and restates the supports between
    /// membership flips.
    pub fn from_pseudo_closed(pseudo_closed: Vec<PseudoClosed>, n_items: usize) -> Self {
        let mut rules = Vec::with_capacity(pseudo_closed.len());
        let mut implications = ImplicationSet::new(n_items);
        for p in &pseudo_closed {
            rules.push(Rule::new(
                p.set.clone(),
                p.closure.difference(&p.set),
                p.support,
                p.support,
            ));
            implications.push(Implication::new(p.set.clone(), p.closure.clone()));
        }
        DuquenneGuiguesBasis {
            rules,
            implications,
            pseudo_closed,
        }
    }

    /// Number of basis rules (= `|FP|`).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the basis is empty (no exact rule holds).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The basis rules, ordered by pseudo-closed antecedent.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The basis as an implication set (for Armstrong derivation).
    pub fn implications(&self) -> &ImplicationSet {
        &self.implications
    }

    /// The frequent pseudo-closed itemsets the basis is built from.
    pub fn pseudo_closed(&self) -> &[PseudoClosed] {
        &self.pseudo_closed
    }

    /// The closure of `x` under the basis implications. For frequent `x`
    /// this equals the Galois closure `h(x)` — that equality *is* the
    /// completeness of the basis.
    pub fn derived_closure(&self, x: &Itemset) -> Itemset {
        self.implications.logical_closure(x)
    }

    /// Whether the exact rule `antecedent → consequent` is derivable from
    /// the basis.
    pub fn derives(&self, antecedent: &Itemset, consequent: &Itemset) -> bool {
        consequent.is_subset_of(&self.derived_closure(antecedent))
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

    fn setup(min_count: u64) -> (MiningContext, FrequentItemsets, ClosedItemsets) {
        let ctx = MiningContext::new(paper_example());
        let f = brute_frequent(&ctx, MinSupport::Count(min_count));
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        (ctx, f, fc)
    }

    #[test]
    fn paper_example_dg_basis() {
        let (_, f, fc) = setup(2);
        let dg = DuquenneGuiguesBasis::build(&f, &fc, 6);
        // The published basis: A → C, B → E, E → B.
        assert_eq!(dg.len(), 3);
        assert_eq!(dg.rules()[0], Rule::new(set(&[1]), set(&[3]), 3, 3));
        assert_eq!(dg.rules()[1], Rule::new(set(&[2]), set(&[5]), 4, 4));
        assert_eq!(dg.rules()[2], Rule::new(set(&[5]), set(&[2]), 4, 4));
        assert!(dg.rules().iter().all(Rule::is_exact));
    }

    #[test]
    fn all_exact_rules_of_paper_example() {
        let (ctx, f, fc) = setup(2);
        let rules = all_exact_rules(&f, &fc);
        // Every rule is exact and holds in the context.
        for r in &rules {
            assert!(r.is_exact());
            assert_eq!(ctx.support(&r.full_itemset()), r.support);
            assert_eq!(ctx.support(&r.antecedent), r.support);
        }
        // No duplicates.
        let mut dedup = rules.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), rules.len());
        // Count formula agrees.
        assert_eq!(rules.len() as u64, count_exact_rules(&f, &fc));
    }

    #[test]
    fn exact_rule_enumeration_matches_all_rules_filter() {
        // all_exact_rules ≡ the exact subset of the Agrawal enumeration.
        let (_, f, fc) = setup(2);
        let via_closures = all_exact_rules(&f, &fc);
        let mut via_filter: Vec<Rule> = crate::all_rules::all_rules(&f, 1.0);
        via_filter.sort();
        assert_eq!(via_closures, via_filter);
    }

    #[test]
    fn basis_is_sound() {
        let (ctx, f, fc) = setup(2);
        let dg = DuquenneGuiguesBasis::build(&f, &fc, 6);
        for rule in dg.rules() {
            // conf = 1 in the data.
            assert_eq!(
                ctx.support(&rule.antecedent),
                ctx.support(&rule.full_itemset()),
                "{rule}"
            );
        }
    }

    #[test]
    fn basis_is_complete() {
        let (_, f, fc) = setup(2);
        let dg = DuquenneGuiguesBasis::build(&f, &fc, 6);
        for rule in all_exact_rules(&f, &fc) {
            assert!(
                dg.derives(&rule.antecedent, &rule.consequent),
                "{rule} not derivable"
            );
        }
        // And the derived closure equals the Galois closure on frequent
        // sets.
        for (x, _) in f.iter() {
            let (h, _) = fc.closure_of(x).unwrap();
            assert_eq!(&dg.derived_closure(x), h, "closure of {x:?}");
        }
    }

    #[test]
    fn basis_is_minimal() {
        // Removing any rule loses derivations.
        let (_, f, fc) = setup(2);
        let dg = DuquenneGuiguesBasis::build(&f, &fc, 6);
        let full = dg.implications();
        for skip in 0..full.len() {
            let mut reduced = ImplicationSet::new(6);
            for (i, imp) in full.iter().enumerate() {
                if i != skip {
                    reduced.push(imp.clone());
                }
            }
            assert!(
                !reduced.entails_all(full),
                "rule #{skip} is redundant in the basis"
            );
        }
    }

    #[test]
    fn dg_much_smaller_than_all_exact_rules() {
        let (_, f, fc) = setup(1);
        let dg = DuquenneGuiguesBasis::build(&f, &fc, 6);
        let all = count_exact_rules(&f, &fc);
        assert!((dg.len() as u64) < all, "basis {} !< all {all}", dg.len());
    }

    #[test]
    fn empty_basis_when_everything_is_closed() {
        // Pairwise-disjoint items: every frequent itemset is closed.
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![
            vec![0],
            vec![1],
            vec![2],
        ]));
        let f = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(1));
        let dg = DuquenneGuiguesBasis::build(&f, &fc, 3);
        assert!(dg.is_empty());
        assert!(all_exact_rules(&f, &fc).is_empty());
    }
}
