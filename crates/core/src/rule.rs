//! Association rules.
//!
//! An association rule `X → Z` (with `X ∩ Z = ∅`) holds in a context with
//! *support* `supp(X ∪ Z)` and *confidence* `supp(X ∪ Z) / supp(X)`.
//! Rules with confidence 1 are **exact** (implications); the rest are
//! **approximate**. Supports are stored as exact counts so equality and
//! ordering never suffer floating-point noise; confidence is derived.

use rulebases_dataset::{Item, ItemDictionary, Itemset, Support};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// An association rule `antecedent → consequent` with exact counts.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rule {
    /// The antecedent `X` (may be empty only for the `∅ → h(∅)` basis
    /// rule).
    pub antecedent: Itemset,
    /// The consequent `Z`, disjoint from the antecedent and non-empty.
    pub consequent: Itemset,
    /// `supp(X ∪ Z)` — the rule's support count.
    pub support: Support,
    /// `supp(X)` — the antecedent's support count.
    pub antecedent_support: Support,
}

impl Rule {
    /// Creates a rule, checking the structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the consequent is empty, overlaps the antecedent, or the
    /// supports are inconsistent (`support > antecedent_support`, or a
    /// supported rule with an unsupported antecedent).
    pub fn new(
        antecedent: Itemset,
        consequent: Itemset,
        support: Support,
        antecedent_support: Support,
    ) -> Self {
        assert!(!consequent.is_empty(), "rule with empty consequent");
        assert!(
            antecedent.is_disjoint_from(&consequent),
            "antecedent and consequent overlap"
        );
        assert!(
            support <= antecedent_support,
            "support {support} exceeds antecedent support {antecedent_support}"
        );
        assert!(antecedent_support > 0, "rule with unsupported antecedent");
        Rule {
            antecedent,
            consequent,
            support,
            antecedent_support,
        }
    }

    /// The rule's confidence in `(0, 1]`.
    #[inline]
    pub fn confidence(&self) -> f64 {
        self.support as f64 / self.antecedent_support as f64
    }

    /// Whether the rule is exact (confidence = 1, i.e. the supports are
    /// equal — no floating point involved).
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.support == self.antecedent_support
    }

    /// The full itemset `X ∪ Z` the rule spans.
    pub fn full_itemset(&self) -> Itemset {
        self.antecedent.union(&self.consequent)
    }

    /// Relative support given the context size.
    pub fn frequency(&self, n_objects: usize) -> f64 {
        self.support as f64 / n_objects.max(1) as f64
    }

    /// Renders the rule with labels from `dict`.
    pub fn display<'a>(&'a self, dict: &'a ItemDictionary) -> RuleDisplay<'a> {
        RuleDisplay { rule: self, dict }
    }

    /// Canonical ordering key: by spanned itemset, then antecedent — gives
    /// deterministic rule lists. [`Ord`] for `Rule` orders by this key
    /// without building it; only rules with equal keys (the same two
    /// sides) are ordered further, by their counts.
    pub fn sort_key(&self) -> (Itemset, Itemset) {
        (self.full_itemset(), self.antecedent.clone())
    }

    /// The spanned itemset `X ∪ Z` in ascending order, merged from the
    /// two (disjoint) sides without allocating.
    fn spanned(&self) -> impl Iterator<Item = Item> + '_ {
        let (mut a, mut z) = (
            self.antecedent.iter().peekable(),
            self.consequent.iter().peekable(),
        );
        std::iter::from_fn(move || match (a.peek(), z.peek()) {
            (Some(x), Some(y)) if x <= y => a.next(),
            (_, Some(_)) => z.next(),
            _ => a.next(),
        })
    }
}

impl PartialOrd for Rule {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The canonical rule order, [`Rule::sort_key`]'s: by spanned itemset
/// (its size, then its items), then by antecedent, then by the counts
/// `(support, antecedent_support)`, so that `Equal` means `==`. Merges
/// the sides item by item instead of building the union.
impl Ord for Rule {
    fn cmp(&self, other: &Self) -> Ordering {
        let len = |r: &Rule| r.antecedent.len() + r.consequent.len();
        len(self)
            .cmp(&len(other))
            .then_with(|| self.spanned().cmp(other.spanned()))
            .then_with(|| self.antecedent.cmp(&other.antecedent))
            .then_with(|| {
                (self.support, self.antecedent_support)
                    .cmp(&(other.support, other.antecedent_support))
            })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} → {:?} (supp={}, conf={:.3})",
            self.antecedent,
            self.consequent,
            self.support,
            self.confidence()
        )
    }
}

/// Label-aware display adapter returned by [`Rule::display`].
pub struct RuleDisplay<'a> {
    rule: &'a Rule,
    dict: &'a ItemDictionary,
}

impl fmt::Display for RuleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {} (supp={}, conf={:.3})",
            self.rule.antecedent.display(self.dict),
            self.rule.consequent.display(self.dict),
            self.rule.support,
            self.rule.confidence()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    /// Random rules over three items with small counts, so that two draws
    /// often span the same set or even share both sides.
    fn rules() -> impl Strategy<Value = Option<Rule>> {
        (vec(0u32..3, 1..5), vec(0u32..3, 0..3), (1u64..4, 0u64..2)).prop_map(
            |(span, antecedent, (support, extra))| {
                let span = Itemset::from_ids(span);
                let antecedent = span.intersection(&Itemset::from_ids(antecedent));
                let consequent = span.difference(&antecedent);
                (!consequent.is_empty())
                    .then(|| Rule::new(antecedent, consequent, support, support + extra))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ord_follows_the_sort_key_and_equal_means_eq(a in rules(), b in rules()) {
            let (Some(a), Some(b)) = (a, b) else {
                return Ok(());
            };
            let by_key = a.sort_key().cmp(&b.sort_key());
            if by_key != Ordering::Equal {
                prop_assert_eq!(a.cmp(&b), by_key, "{} vs {}", a, b);
            }
            prop_assert_eq!(a.cmp(&b) == Ordering::Equal, a == b, "{} vs {}", a, b);
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        }
    }

    #[test]
    fn confidence_and_exactness() {
        let exact = Rule::new(set(&[2]), set(&[5]), 4, 4);
        assert!(exact.is_exact());
        assert_eq!(exact.confidence(), 1.0);

        let approx = Rule::new(set(&[3]), set(&[1]), 3, 4);
        assert!(!approx.is_exact());
        assert!((approx.confidence() - 0.75).abs() < 1e-12);
        assert!((approx.frequency(5) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn full_itemset_unions() {
        let r = Rule::new(set(&[1]), set(&[3, 5]), 2, 3);
        assert_eq!(r.full_itemset(), set(&[1, 3, 5]));
    }

    #[test]
    fn empty_antecedent_is_allowed() {
        // The DG basis rule ∅ → h(∅) needs it.
        let r = Rule::new(Itemset::empty(), set(&[7]), 5, 5);
        assert!(r.is_exact());
    }

    #[test]
    #[should_panic(expected = "empty consequent")]
    fn empty_consequent_rejected() {
        let _ = Rule::new(set(&[1]), Itemset::empty(), 1, 1);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_sides_rejected() {
        let _ = Rule::new(set(&[1, 2]), set(&[2, 3]), 1, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds antecedent support")]
    fn inconsistent_supports_rejected() {
        let _ = Rule::new(set(&[1]), set(&[2]), 5, 3);
    }

    #[test]
    fn ordering_is_deterministic() {
        let mut rules = [
            Rule::new(set(&[2]), set(&[5]), 4, 4),
            Rule::new(set(&[1]), set(&[3]), 3, 3),
            Rule::new(set(&[5]), set(&[2]), 4, 4),
        ];
        rules.sort();
        assert_eq!(rules[0].antecedent, set(&[1]));
        // Same spanned set {2,5}: antecedent {2} before {5}.
        assert_eq!(rules[1].antecedent, set(&[2]));
        assert_eq!(rules[2].antecedent, set(&[5]));
    }

    #[test]
    fn display_formats() {
        let r = Rule::new(set(&[2]), set(&[5]), 4, 4);
        assert_eq!(r.to_string(), "{2} → {5} (supp=4, conf=1.000)");
        let dict = ItemDictionary::from_labels(["∅", "A", "B", "C", "D", "E"]);
        assert_eq!(
            r.display(&dict).to_string(),
            "{B} → {E} (supp=4, conf=1.000)"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let r = Rule::new(set(&[1]), set(&[2]), 2, 3);
        let json = serde_json::to_string(&r).unwrap();
        let back: Rule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
