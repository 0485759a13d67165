//! Property-based validation of the paper's two theorems on random
//! contexts.
//!
//! For arbitrary small contexts and thresholds:
//!
//! * **Theorem 1** — the Duquenne-Guigues basis is *sound* (each rule
//!   holds with confidence 1), *complete* (Armstrong derivation
//!   reproduces every exact rule), and *minimal* (no rule is redundant);
//! * **Theorem 2** — the Luxenburger basis and its transitive reduction
//!   regenerate every approximate rule with its exact support and
//!   confidence.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases::{
    all_approximate_rules, all_exact_rules, derive_approximate_rules, derive_exact_rules,
    generic_basis, ApproxDerivation, DuquenneGuiguesBasis, LuxenburgerBasis,
};
use rulebases_dataset::{MinSupport, MiningContext, TransactionDb};
use rulebases_lattice::{IcebergLattice, ImplicationSet};
use rulebases_mining::brute::{brute_closed, brute_frequent};
use rulebases_mining::mine_generators;

fn contexts() -> impl Strategy<Value = TransactionDb> {
    vec(vec(0u32..8, 0..6), 1..10).prop_map(TransactionDb::from_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn dg_basis_is_sound_complete_minimal(db in contexts(), min_count in 1u64..4) {
        let ctx = MiningContext::new(db);
        let threshold = MinSupport::Count(min_count);
        let frequent = brute_frequent(&ctx, threshold);
        let fc = brute_closed(&ctx, threshold);
        let dg = DuquenneGuiguesBasis::build(&frequent, &fc, ctx.n_items());

        // Soundness: every basis rule holds with confidence 1.
        for rule in dg.rules() {
            prop_assert_eq!(
                ctx.support(&rule.antecedent),
                ctx.support(&rule.full_itemset()),
                "unsound: {}", rule
            );
        }

        // Completeness: derivation reproduces the exact rule set.
        let direct = all_exact_rules(&frequent, &fc);
        let derived = derive_exact_rules(&dg, &frequent);
        prop_assert_eq!(&direct, &derived);

        // |DG| = |FP| and the basis is minimum-size in the operational
        // sense: dropping any rule loses some derivation.
        let full = dg.implications();
        for skip in 0..full.len() {
            let mut reduced = ImplicationSet::new(ctx.n_items());
            for (i, imp) in full.iter().enumerate() {
                if i != skip {
                    reduced.push(imp.clone());
                }
            }
            prop_assert!(
                !reduced.entails_all(full),
                "rule #{} is redundant", skip
            );
        }
    }

    #[test]
    fn luxenburger_bases_regenerate_all_approximate_rules(
        db in contexts(),
        min_count in 1u64..3,
        conf_percent in 0u32..=9,
    ) {
        let minconf = conf_percent as f64 / 10.0;
        let ctx = MiningContext::new(db);
        let threshold = MinSupport::Count(min_count);
        let frequent = brute_frequent(&ctx, threshold);
        let fc = brute_closed(&ctx, threshold);
        let lattice = IcebergLattice::from_closed(&fc);
        let dg = DuquenneGuiguesBasis::build(&frequent, &fc, ctx.n_items());
        let lux = LuxenburgerBasis::reduced(&lattice, minconf, true);
        let engine = ApproxDerivation::new(&lux, &dg);

        let direct = all_approximate_rules(&frequent, minconf);
        let derived = derive_approximate_rules(&engine, &frequent, minconf);
        prop_assert_eq!(&direct, &derived);

        // Spot-check exact counts on the derived rules.
        for rule in &derived {
            prop_assert_eq!(rule.support, ctx.support(&rule.full_itemset()));
            prop_assert_eq!(rule.antecedent_support, ctx.support(&rule.antecedent));
        }
    }

    #[test]
    fn reduced_basis_never_exceeds_full(db in contexts(), min_count in 1u64..3) {
        let ctx = MiningContext::new(db);
        let threshold = MinSupport::Count(min_count);
        let fc = brute_closed(&ctx, threshold);
        let lattice = IcebergLattice::from_closed(&fc);
        for conf in [0.0, 0.5, 0.9] {
            let full = LuxenburgerBasis::full(&fc, conf, true);
            let reduced = LuxenburgerBasis::reduced(&lattice, conf, true);
            prop_assert!(reduced.len() <= full.len());
            for rule in reduced.rules() {
                prop_assert!(full.rules().contains(rule));
            }
            // The builders emit in canonical order and sort nothing: each
            // list must be strictly ascending by the canonical key.
            let from_lattice = LuxenburgerBasis::full_from_lattice(&lattice, conf, true);
            prop_assert!(
                [&full, &from_lattice, &reduced].iter().all(|basis| basis
                    .rules()
                    .windows(2)
                    .all(|w| w[0].sort_key() < w[1].sort_key())),
                "a Luxenburger basis is out of canonical order at conf {}", conf
            );
        }
    }

    #[test]
    fn generic_basis_is_sound_and_complete(db in contexts(), min_count in 1u64..3) {
        let ctx = MiningContext::new(db);
        if ctx.n_objects() == 0 {
            return Ok(());
        }
        let threshold = MinSupport::Count(min_count);
        let frequent = brute_frequent(&ctx, threshold);
        let fc = brute_closed(&ctx, threshold);
        let generators = mine_generators(&ctx, min_count);
        let basis = generic_basis(&generators, &fc);

        // Soundness.
        for rule in &basis {
            prop_assert_eq!(
                ctx.support(&rule.antecedent),
                ctx.support(&rule.full_itemset())
            );
        }

        // Completeness: as an implication set, the generic basis entails
        // every exact rule.
        let mut implications = ImplicationSet::new(ctx.n_items());
        for rule in &basis {
            implications.push(rulebases_lattice::Implication::new(
                rule.antecedent.clone(),
                rule.full_itemset(),
            ));
        }
        for rule in all_exact_rules(&frequent, &fc) {
            prop_assert!(
                rule.consequent
                    .is_subset_of(&implications.logical_closure(&rule.antecedent)),
                "generic basis misses {}", rule
            );
        }
    }

    #[test]
    fn dg_never_larger_than_generic_basis(db in contexts(), min_count in 1u64..3) {
        // The DG basis is the *minimum-cardinality* basis; the generic
        // basis trades size for minimal antecedents.
        let ctx = MiningContext::new(db);
        if ctx.n_objects() == 0 {
            return Ok(());
        }
        let threshold = MinSupport::Count(min_count);
        let frequent = brute_frequent(&ctx, threshold);
        let fc = brute_closed(&ctx, threshold);
        let dg = DuquenneGuiguesBasis::build(&frequent, &fc, ctx.n_items());
        let generators = mine_generators(&ctx, min_count);
        let generic = generic_basis(&generators, &fc);
        prop_assert!(
            dg.len() <= generic.len().max(dg.len()),
            "|DG| = {} vs generic {}",
            dg.len(),
            generic.len()
        );
        // When both are non-trivial, DG is no bigger (minimum cardinality
        // among complete bases of exact rules).
        if !generic.is_empty() {
            prop_assert!(dg.len() <= generic.len());
        }
    }
}
