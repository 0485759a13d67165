//! Property-based cross-algorithm equivalence on random contexts.
//!
//! Every real miner must agree with the brute-force oracle (and therefore
//! with each other) on arbitrary small contexts — the strongest guard
//! against algorithm-specific bugs (candidate pruning, closure jumps,
//! CHARM's subsumption check, hash-tree collisions…).

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestCaseError;
use rulebases::{MinedBases, PipelineKind, RuleMiner};
use rulebases_dataset::{
    EngineKind, Itemset, MinSupport, MiningContext, Parallelism, TransactionDb,
};
use rulebases_mining::brute::{brute_closed, brute_frequent};
use rulebases_mining::{
    mine_generators, Apriori, ClosedAlgorithm, CountingStrategy, FpGrowth, FrequentMiner,
};
use std::sync::Arc;

/// A random context: up to 12 objects over up to 9 items (ids can exceed
/// the bucket fanout of the hash tree via the stride).
fn contexts() -> impl Strategy<Value = TransactionDb> {
    (
        vec(vec(0u32..9, 0..6), 1..12),
        1u32..5, // item-id stride, to exercise sparse universes
    )
        .prop_map(|(rows, stride)| {
            TransactionDb::from_rows(
                rows.into_iter()
                    .map(|row| row.into_iter().map(|i| i * stride).collect())
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn apriori_matches_brute_force(db in contexts(), min_count in 1u64..4) {
        let ctx = MiningContext::new(db);
        let threshold = MinSupport::Count(min_count);
        let brute = brute_frequent(&ctx, threshold);
        for strategy in [
            CountingStrategy::SubsetHash,
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
        ] {
            let mined = Apriori::with_counting(strategy).mine_frequent(&ctx, threshold);
            prop_assert_eq!(mined.len(), brute.len(), "{:?}", strategy);
            for (set, support) in brute.iter() {
                prop_assert_eq!(mined.support(set), Some(support), "{:?} on {:?}", strategy, set);
            }
        }
        // FP-growth, the pattern-growth baseline, must agree too.
        let fp = FpGrowth::new().mine_frequent(&ctx, threshold);
        prop_assert_eq!(fp.len(), brute.len(), "fp-growth cardinality");
        for (set, support) in brute.iter() {
            prop_assert_eq!(fp.support(set), Some(support), "fp-growth on {:?}", set);
        }
    }

    #[test]
    fn closed_miners_match_brute_force(db in contexts(), min_count in 1u64..4) {
        let ctx = MiningContext::new(db);
        let threshold = MinSupport::Count(min_count);
        let brute = brute_closed(&ctx, threshold).into_sorted_vec();
        for algo in ClosedAlgorithm::ALL {
            let mined = algo.mine(&ctx, threshold).into_sorted_vec();
            prop_assert_eq!(&mined, &brute, "{} disagrees with brute force", algo);
        }
    }

    #[test]
    fn closed_miners_agree_under_every_backend(
        db in contexts(),
        min_count in 1u64..4,
    ) {
        // The full (algorithm × representation) grid returns one answer:
        // every closed miner over every SupportEngine backend, sequential
        // or under a forced thread policy, matches the brute-force oracle.
        let threshold = MinSupport::Count(min_count);
        let reference = {
            let ctx = MiningContext::new(db.clone());
            brute_closed(&ctx, threshold).into_sorted_vec()
        };
        let shared = Arc::new(db);
        for kind in EngineKind::BACKENDS {
            let engine = kind.build(&shared);
            for algo in ClosedAlgorithm::ALL {
                let mined = algo.mine_engine(engine.as_ref(), threshold).into_sorted_vec();
                prop_assert_eq!(
                    &mined, &reference,
                    "{} over {} disagrees with brute force", algo, kind
                );
                let fanned = algo
                    .mine_engine_par(engine.as_ref(), threshold, Parallelism::Fixed(2))
                    .into_sorted_vec();
                prop_assert_eq!(
                    &fanned, &reference,
                    "{} over {} under Fixed(2) disagrees with brute force", algo, kind
                );
            }
        }
    }

    #[test]
    fn fused_pipeline_matches_staged_under_every_backend(
        db in contexts(),
        min_count in 1u64..4,
        minconf_idx in 0usize..4,
    ) {
        let minconf = [0.0, 0.5, 0.8, 1.0][minconf_idx];
        // The fused one-pass pipeline and the staged oracle must agree on
        // every product — closed sets, Hasse edges, DG basis, both
        // Luxenburger bases — whatever the algorithm and engine backend.
        let shared = Arc::new(db);
        for kind in EngineKind::BACKENDS {
            for algo in ClosedAlgorithm::ALL {
                let run = |pipeline: PipelineKind| {
                    let ctx = MiningContext::with_engine_arc(shared.clone(), kind);
                    RuleMiner::new(MinSupport::Count(min_count))
                        .min_confidence(minconf)
                        .algorithm(algo)
                        .pipeline(pipeline)
                        .mine_context(&ctx)
                };
                let staged = run(PipelineKind::Staged);
                let fused = run(PipelineKind::Fused);
                assert_pipelines_agree(&staged, &fused, &format!("{algo} over {kind}"))
                    .map_err(TestCaseError::fail)?;
            }
        }
    }

    #[test]
    fn closure_axioms_hold(db in contexts(), ids in vec(0u32..9, 0..5)) {
        let ctx = MiningContext::new(db);
        // The closure operator is only defined on subsets of the universe.
        let x = Itemset::from_ids(
            ids.into_iter().filter(|&i| (i as usize) < ctx.n_items()),
        );
        let hx = ctx.closure(&x);
        // Extensive.
        prop_assert!(x.is_subset_of(&hx));
        // Idempotent.
        prop_assert_eq!(ctx.closure(&hx), hx.clone());
        // Support-preserving.
        prop_assert_eq!(ctx.support(&x), ctx.support(&hx));
        // Monotone (against a random superset).
        let y = hx.union(&x);
        prop_assert!(ctx.closure(&x).is_subset_of(&ctx.closure(&y)));
    }

    #[test]
    fn generators_are_minimal_and_cover_fc(db in contexts(), min_count in 1u64..3) {
        let ctx = MiningContext::new(db);
        if ctx.n_objects() == 0 {
            return Ok(());
        }
        let generators = mine_generators(&ctx, min_count);
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        // Every generator is minimal: no facet with equal support.
        for (g, support) in generators.iter() {
            prop_assert_eq!(ctx.support(g), support);
            for facet in g.facets() {
                prop_assert_ne!(ctx.support(&facet), support, "{:?} not minimal", g);
            }
        }
        // Closures of generators cover FC exactly.
        let mut closures: Vec<Itemset> =
            generators.iter().map(|(g, _)| ctx.closure(g)).collect();
        closures.sort();
        closures.dedup();
        let mut expected: Vec<Itemset> = fc.iter().map(|(s, _)| s.clone()).collect();
        expected.sort();
        prop_assert_eq!(closures, expected);
    }

    #[test]
    fn engine_and_horizontal_supports_agree(db in contexts(), ids in vec(0u32..9, 0..4)) {
        let x = Itemset::from_ids(ids);
        for kind in EngineKind::BACKENDS {
            let ctx = MiningContext::with_engine(db.clone(), kind);
            prop_assert_eq!(
                ctx.engine().support(&x),
                ctx.horizontal().support(&x),
                "{} backend", kind
            );
        }
    }
}

/// Every product of a bases run the two pipelines must agree on.
fn assert_pipelines_agree(
    staged: &MinedBases,
    fused: &MinedBases,
    label: &str,
) -> Result<(), String> {
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("{label}: fused and staged disagree on {what}"))
        }
    };
    check(
        staged.closed.clone().into_sorted_vec() == fused.closed.clone().into_sorted_vec(),
        "closed sets",
    )?;
    check(
        staged.lattice.edges().collect::<Vec<_>>() == fused.lattice.edges().collect::<Vec<_>>(),
        "Hasse edges",
    )?;
    // The frequent itemsets are mined (staged) vs derived (fused) —
    // identical contents either way.
    check(staged.frequent.len() == fused.frequent.len(), "|F|")?;
    for (set, support) in staged.frequent.iter() {
        check(
            fused.frequent.support(set) == Some(support),
            &format!("support of {set:?}"),
        )?;
    }
    check(staged.dg.rules() == fused.dg.rules(), "DG basis")?;
    check(
        staged.lux_full.rules() == fused.lux_full.rules(),
        "full Luxenburger basis",
    )?;
    check(
        staged.lux_reduced.rules() == fused.lux_reduced.rules(),
        "reduced Luxenburger basis",
    )?;
    Ok(())
}

/// The fused pipeline on a context whose closure of ∅ is non-empty (a
/// constant column): the lattice bottom is not ∅, the DG basis carries
/// the `∅ → h(∅)` rule, and both pipelines still agree — including at the
/// minconf = 1.0 boundary, where every Luxenburger basis is empty but the
/// derivations must not fall over.
#[test]
fn fused_handles_nonempty_bottom_and_minconf_one() {
    // Item 9 occurs everywhere: h(∅) = {9}.
    let rows: Vec<Vec<u32>> = (0..12u32).map(|t| vec![t % 3, 3 + t % 2, 9]).collect();
    for minconf in [0.6, 1.0] {
        for algo in ClosedAlgorithm::ALL {
            let run = |pipeline: PipelineKind| {
                RuleMiner::new(MinSupport::Count(2))
                    .min_confidence(minconf)
                    .algorithm(algo)
                    .pipeline(pipeline)
                    .mine(TransactionDb::from_rows(rows.clone()))
            };
            let staged = run(PipelineKind::Staged);
            let fused = run(PipelineKind::Fused);
            assert_pipelines_agree(&staged, &fused, &format!("{algo} at minconf {minconf}"))
                .unwrap();
            // The bottom is {9}, and the DG basis starts from ∅.
            let bottom = fused.lattice.bottom();
            assert_eq!(fused.lattice.node(bottom).0, &Itemset::from_ids([9]));
            assert!(fused
                .dg
                .rules()
                .iter()
                .any(|r| r.antecedent.is_empty()
                    && Itemset::from_ids([9]).is_subset_of(&r.consequent)));
            if (minconf - 1.0).abs() < f64::EPSILON {
                // Closed-set pairs are never exact: both bases are empty.
                assert!(fused.lux_full.is_empty());
                assert!(fused.luxenburger_reduced_rules().is_empty());
            }
            // Derivations round-trip on the fused bundle.
            assert_eq!(fused.exact_rules(), fused.derive_exact_rules(), "{algo}");
            assert_eq!(
                fused.approximate_rules(),
                fused.derive_approximate_rules(),
                "{algo} at minconf {minconf}"
            );
        }
    }
}
