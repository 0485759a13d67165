//! Property-based tests for the closure-system machinery: NextClosure
//! completeness, stem-base equivalence with the Galois closure, logical
//! closure axioms, and Hasse-diagram validity on random contexts.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases_dataset::{Itemset, MinSupport, MiningContext, TransactionDb};
use rulebases_lattice::hasse::verify_covers;
use rulebases_lattice::{
    frequent_pseudo_closed, next_closed, stem_base, AllClosed, ClosureOperator, IcebergLattice,
    Implication, ImplicationSet, IncrementalLattice,
};
use rulebases_mining::brute::{brute_closed, brute_frequent};
use std::collections::VecDeque;

/// Small random contexts over ≤ 7 items (NextClosure visits 2^n subsets
/// in the worst case, so keep the universe tight).
fn contexts() -> impl Strategy<Value = TransactionDb> {
    vec(vec(0u32..7, 0..5), 1..9).prop_map(TransactionDb::from_rows)
}

/// Contexts shaped like [`contexts`], half of them spread across three
/// 64-bit words: item `k` moves to an id in `24k..24k + 24`, the last
/// row gains the top item (an id past 128), and the rows arrive ordered
/// by their largest id — so the lattice's packed width grows while the
/// rows stream in.
fn maybe_wide_contexts() -> impl Strategy<Value = TransactionDb> {
    (vec(vec(0u32..7, 0..5), 1..9), vec(0u32..24, 7), 0u32..2).prop_map(
        |(mut rows, jitter, wide)| {
            if wide == 1 {
                rows.last_mut().unwrap().push(6);
                for row in &mut rows {
                    for k in row.iter_mut() {
                        *k = 24 * *k + jitter[*k as usize];
                    }
                }
                rows.sort_by_key(|row| row.iter().max().copied());
            }
            TransactionDb::from_rows(rows)
        },
    )
}

fn implication_sets() -> impl Strategy<Value = ImplicationSet> {
    vec((vec(0u32..8, 0..3), vec(0u32..8, 1..3)), 0..6).prop_map(|pairs| {
        let implications = pairs
            .into_iter()
            .map(|(p, c)| {
                let premise = Itemset::from_ids(p);
                let conclusion = premise.union(&Itemset::from_ids(c));
                Implication::new(premise, conclusion)
            })
            .collect();
        ImplicationSet::from_implications(8, implications)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn next_closure_enumerates_exactly_the_closed_sets(db in contexts()) {
        let ctx = MiningContext::new(db);
        let enumerated: Vec<Itemset> = AllClosed::new(&ctx).collect();

        // No duplicates, lectic order.
        for w in enumerated.windows(2) {
            prop_assert_eq!(w[0].lectic_cmp(&w[1]), std::cmp::Ordering::Less);
        }

        // Exactly the fixpoints of h over the whole powerset.
        let n = ctx.n_items().min(7);
        let mut expected: Vec<Itemset> = Vec::new();
        for mask in 0u32..(1 << n) {
            let x = Itemset::from_ids((0..n as u32).filter(|i| mask >> i & 1 == 1));
            if ClosureOperator::close(&ctx, &x) == x {
                expected.push(x);
            }
        }
        let mut got = enumerated;
        got.sort();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn stem_base_reproduces_galois_closure(db in contexts()) {
        let ctx = MiningContext::new(db);
        let stem = stem_base(&ctx);
        let n = ctx.n_items().min(7);
        for mask in 0u32..(1 << n) {
            let x = Itemset::from_ids((0..n as u32).filter(|i| mask >> i & 1 == 1));
            prop_assert_eq!(
                stem.implications.logical_closure(&x),
                ctx.closure(&x),
                "mismatch on {:?}", x
            );
        }
    }

    #[test]
    fn stem_base_is_irredundant(db in contexts()) {
        let ctx = MiningContext::new(db);
        let stem = stem_base(&ctx);
        let full = &stem.implications;
        for skip in 0..full.len() {
            let mut reduced = ImplicationSet::new(ctx.n_items());
            for (i, imp) in full.iter().enumerate() {
                if i != skip {
                    reduced.push(imp.clone());
                }
            }
            prop_assert!(!reduced.entails_all(full), "implication #{} redundant", skip);
        }
    }

    #[test]
    fn frequent_pseudo_closed_matches_stem_base_on_supported_sets(db in contexts()) {
        let ctx = MiningContext::new(db);
        let stem = stem_base(&ctx);
        let mut from_stem: Vec<Itemset> = stem
            .pseudo_closed()
            .filter(|p| ctx.support(p) >= 1)
            .cloned()
            .collect();

        let frequent = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(1));
        let mut from_definition: Vec<Itemset> = frequent_pseudo_closed(&frequent, &fc)
            .into_iter()
            .map(|p| p.set)
            .collect();

        from_stem.sort();
        from_definition.sort();
        prop_assert_eq!(from_definition, from_stem);
    }

    #[test]
    fn logical_closure_is_a_closure_operator(l in implication_sets(), ids in vec(0u32..8, 0..5)) {
        let x = Itemset::from_ids(ids);
        let cx = l.logical_closure(&x);
        // Extensive, idempotent.
        prop_assert!(x.is_subset_of(&cx));
        prop_assert_eq!(l.logical_closure(&cx), cx.clone());
        // Monotone against x ∪ {7}.
        let y = x.with(rulebases_dataset::Item::new(7));
        prop_assert!(cx.is_subset_of(&l.logical_closure(&y)));
        // The closure models the implication set.
        prop_assert!(l.models(&cx));
    }

    #[test]
    fn entailment_is_reflexive_and_monotone(l in implication_sets()) {
        for imp in l.iter() {
            prop_assert!(l.entails(imp));
        }
        // Adding an implication never removes entailments.
        let mut bigger = l.clone();
        bigger.push(Implication::new(
            Itemset::from_ids([0]),
            Itemset::from_ids([0, 1]),
        ));
        prop_assert!(bigger.entails_all(&l));
    }

    #[test]
    fn hasse_diagram_is_valid_on_random_fc(db in contexts(), min_count in 1u64..3) {
        let ctx = MiningContext::new(db);
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        let lattice = IcebergLattice::from_closed(&fc);
        let nodes: Vec<_> = fc.iter().map(|(s, sup)| (s.clone(), sup)).collect();
        let upper: Vec<Vec<usize>> = (0..lattice.n_nodes())
            .map(|i| lattice.upper_covers(i).to_vec())
            .collect();
        prop_assert!(verify_covers(&nodes, &upper).is_ok());
    }

    #[test]
    fn lattice_paths_exist_iff_subset(db in contexts(), min_count in 1u64..3) {
        let ctx = MiningContext::new(db);
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        let lattice = IcebergLattice::from_closed(&fc);
        for i in 0..lattice.n_nodes() {
            for j in 0..lattice.n_nodes() {
                let subset = lattice.node(i).0.is_subset_of(lattice.node(j).0);
                prop_assert_eq!(lattice.path(i, j).is_some(), subset, "{} -> {}", i, j);
            }
        }
    }

    #[test]
    fn next_closed_steps_are_minimal(db in contexts()) {
        // next_closed(A) is the lectically smallest closed set above A.
        let ctx = MiningContext::new(db);
        let all: Vec<Itemset> = AllClosed::new(&ctx).collect();
        for w in all.windows(2) {
            let step = next_closed(&ctx, &w[0]);
            prop_assert_eq!(step.as_ref(), Some(&w[1]));
        }
        if let Some(last) = all.last() {
            prop_assert_eq!(next_closed(&ctx, last), None);
        }
    }

    #[test]
    fn object_replay_matches_batch_lattice(db in maybe_wide_contexts(), min_count in 1u64..4) {
        // Replaying a context transaction by transaction through the
        // GALICIA-style insert_object must reproduce the batch-mined
        // iceberg lattice at any threshold cut — nodes, supports, edges —
        // and the covers must verify as a transitive reduction.
        let mut inc = IncrementalLattice::new();
        for t in 0..db.n_transactions() {
            inc.insert_object(&Itemset::from_sorted(db.transaction(t).to_vec()));
        }
        let ctx = MiningContext::new(db);
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        let reference = IcebergLattice::from_closed(&fc);
        let (snapshot, tags) = inc.snapshot(min_count);
        prop_assert_eq!(snapshot.n_nodes(), reference.n_nodes());
        for i in 0..snapshot.n_nodes() {
            prop_assert_eq!(snapshot.node(i), reference.node(i));
        }
        prop_assert_eq!(
            snapshot.edges().collect::<Vec<_>>(),
            reference.edges().collect::<Vec<_>>()
        );
        // Tags are genuine minimal generators of their class.
        for (node, generators) in tags.iter().enumerate() {
            let (closure, support) = snapshot.node(node);
            prop_assert!(!generators.is_empty(), "node {} untagged", node);
            for g in generators {
                prop_assert_eq!(&ctx.closure(g), closure);
                for facet in g.facets() {
                    prop_assert!(ctx.support(&facet) > support, "{:?} not minimal", g);
                }
            }
        }
        let nodes: Vec<_> = (0..snapshot.n_nodes())
            .map(|i| {
                let (s, sup) = snapshot.node(i);
                (s.clone(), sup)
            })
            .collect();
        let upper: Vec<Vec<usize>> = (0..snapshot.n_nodes())
            .map(|i| snapshot.upper_covers(i).to_vec())
            .collect();
        prop_assert!(verify_covers(&nodes, &upper).is_ok());
    }

    #[test]
    fn maintained_generators_equal_the_transversal_oracle_under_interleaving(
        db in maybe_wide_contexts(),
        interleave in vec(0u32..2, 0..9),
    ) {
        // Any interleaving of object inserts and removals: after every
        // step the locally maintained tags must equal the from-scratch
        // transversal oracle class-for-class, and the local rules must
        // never have fallen back.
        let rows: Vec<Itemset> = (0..db.n_transactions())
            .map(|t| Itemset::from_sorted(db.transaction(t).to_vec()))
            .collect();
        let mut local = IncrementalLattice::new();
        let mut in_window: VecDeque<Itemset> = VecDeque::new();
        for (i, row) in rows.iter().enumerate() {
            local.insert_object(row);
            in_window.push_back(row.clone());
            if interleave.get(i) == Some(&1) && in_window.len() > 1 {
                let victim = in_window.pop_front().unwrap();
                local.remove_object(&victim);
            }
            for id in 0..local.n_nodes() {
                if local.is_live(id) {
                    prop_assert_eq!(
                        local.generator_tags(id).to_vec(),
                        local.oracle_generators_of(id),
                        "node {} diverged after step {}", id, i
                    );
                }
            }
        }
        prop_assert_eq!(local.gen_stats().transversal_fallbacks, 0);
    }
}
