//! Serving-layer contracts: the antecedent index against brute force,
//! and snapshot coherence under a concurrent writer.
//!
//! Two families:
//!
//! * **Index correctness.** `match_basket` is pinned against a
//!   brute-force subset filter computed directly from `MinedBases`
//!   (never through the snapshot's own index), across every engine
//!   backend (dense and tid-list) ×
//!   absolute and fractional thresholds × confidence levels. The linear
//!   in-snapshot oracle, the top-k prefix property, and the
//!   fewer-comparisons claim ride the same grid.
//! * **Publication coherence.** A writer appends batches while reader
//!   threads query concurrently; every observed `(epoch, n_objects,
//!   n_rules)` triple must be one the writer actually published — epoch
//!   `N` or `N+1`, never a torn mix — and each reader's observed epochs
//!   must be monotone.
//!
//! Case counts respect the `PROPTEST_CASES` environment variable so the
//! 1-CPU suite stays inside its budget.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases::serve::{ServedBasis, ServingSnapshot};
use rulebases::{MinedBases, Rule, RuleMiner};
use rulebases_dataset::pool::fan_out;
use rulebases_dataset::{EngineKind, Item, MinSupport, TransactionDb};
use std::sync::Mutex;

/// Deterministic correlated rows over 14 items (the census stand-in).
fn census_rows(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32)
        .map(|t| vec![t % 4, 4 + t % 3, 7 + t % 2, 9 + (t / 7) % 5])
        .collect()
}

/// The rules a `Compact` snapshot serves, reconstructed from the mined
/// bundle without going through the serving index.
fn served_rules(bases: &MinedBases) -> Vec<Rule> {
    let mut rules: Vec<Rule> = bases.dg.rules().to_vec();
    rules.extend(bases.luxenburger_reduced_rules().into_iter().cloned());
    rules.sort();
    rules.dedup();
    rules
}

/// Brute force: which served rules fire on `basket`, by a direct
/// antecedent-subset test.
fn brute_force_fired(rules: &[Rule], basket: &[u32]) -> Vec<Rule> {
    rules
        .iter()
        .filter(|r| r.antecedent.iter().all(|i| basket.contains(&i.id())))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn match_basket_equals_brute_force_over_mined_bases(
        rows in vec(vec(0u32..9, 0..6), 1..40),
        min_count in 1u64..3,
        fractional in 0usize..2,
        minconf_idx in 0usize..3,
        baskets in vec(vec(0u32..12, 0..6), 1..5),
    ) {
        let minsup = if fractional == 1 {
            MinSupport::Fraction(0.25)
        } else {
            MinSupport::Count(min_count)
        };
        let minconf = [0.0, 0.5, 1.0][minconf_idx];
        for kind in EngineKind::BACKENDS {
            let miner = RuleMiner::new(minsup)
                .min_confidence(minconf)
                .engine(kind);
            let bases = miner.mine(TransactionDb::from_rows(rows.clone()));
            let expected_catalogue = served_rules(&bases);
            let snap = ServingSnapshot::from_bases(&bases, ServedBasis::Compact, 0);
            prop_assert_eq!(
                snap.n_rules(),
                expected_catalogue.len(),
                "catalogue size under {}", kind
            );
            for basket in &baskets {
                // Index vs brute force over the mined bundle.
                let mut fired: Vec<Rule> =
                    snap.match_basket(basket).into_iter().cloned().collect();
                fired.sort();
                let mut expected = brute_force_fired(&expected_catalogue, basket);
                expected.sort();
                prop_assert_eq!(
                    &fired, &expected,
                    "basket {:?} under {}", basket, kind
                );
                // Index vs the in-snapshot linear-scan oracle, plus the
                // sub-linear claim: the merge never examines more
                // candidates than the scan does rules.
                let (ids, cost) = snap.match_basket_counted(basket);
                let (linear_ids, linear_scanned) = snap.match_basket_linear(basket);
                prop_assert_eq!(&ids, &linear_ids);
                prop_assert!(cost.rules_scanned <= linear_scanned);
                // Score order: confidence never increases along the hits.
                let hits: Vec<&Rule> = ids.iter().map(|&id| snap.rule(id)).collect();
                for pair in hits.windows(2) {
                    prop_assert!(
                        pair[0].confidence() >= pair[1].confidence() - 1e-12
                    );
                }
                // Top-k is a prefix of the full match for every k.
                for k in [0, 1, 2, ids.len(), ids.len() + 3] {
                    let top: Vec<Rule> =
                        snap.top_k(basket, k).into_iter().cloned().collect();
                    let prefix: Vec<Rule> = ids[..k.min(ids.len())]
                        .iter()
                        .map(|&id| snap.rule(id).clone())
                        .collect();
                    prop_assert_eq!(top, prefix, "k={} basket {:?}", k, basket);
                }
                // Recommendations never re-propose basket items.
                for rec in snap.recommend(basket, 4) {
                    prop_assert!(!basket.contains(&rec.item));
                    prop_assert!(
                        snap.rule(rec.rule_id).consequent.contains(Item::new(rec.item))
                    );
                }
            }
        }
    }
}

/// The publication-coherence test: one writer appending while readers
/// query. Readers must only ever observe `(epoch, n_objects, n_rules)`
/// triples the writer actually published, with per-reader epochs
/// monotone — the "epoch N or N+1, never torn" invariant, witnessed
/// under real thread interleaving.
#[test]
fn readers_observe_only_published_coherent_epochs() {
    const READERS: usize = 4;
    const SEED: usize = 32;
    const BATCHES: usize = 8;
    const BATCH_ROWS: usize = 8;
    const QUERIES_PER_READER: usize = 400;

    let miner = RuleMiner::new(MinSupport::Fraction(0.2)).min_confidence(0.3);
    let server = miner.serving(TransactionDb::from_rows(census_rows(SEED)));
    let snapshot_key = |s: &ServingSnapshot| (s.epoch(), s.n_objects(), s.n_rules());
    let published = Mutex::new(vec![snapshot_key(server.snapshot().as_ref())]);
    let lanes: Vec<Mutex<rulebases::RuleReader>> =
        (0..READERS).map(|_| Mutex::new(server.reader())).collect();
    let server = Mutex::new(server);

    let universe: Vec<u32> = (0..14).collect();
    let observed = fan_out(READERS + 1, |worker| {
        if worker == 0 {
            let mut server = server.lock().expect("writer lane");
            for batch in 0..BATCHES {
                let lo = SEED + batch * BATCH_ROWS;
                server
                    .ingest(census_rows(lo + BATCH_ROWS)[lo..].to_vec())
                    .unwrap();
                published
                    .lock()
                    .expect("publish log")
                    .push(snapshot_key(server.snapshot().as_ref()));
            }
            Vec::new()
        } else {
            let mut reader = lanes[worker - 1].lock().expect("reader lane");
            let mut seen = Vec::with_capacity(QUERIES_PER_READER);
            let mut last_epoch = 0u64;
            for q in 0..QUERIES_PER_READER {
                let basket = &universe[..1 + q % universe.len()];
                let hit = reader.match_basket(basket);
                let snap = hit.snapshot();
                assert!(
                    snap.epoch() >= last_epoch,
                    "reader {worker} saw epoch {} after {last_epoch}",
                    snap.epoch()
                );
                last_epoch = snap.epoch();
                seen.push(snapshot_key(snap.as_ref()));
            }
            seen
        }
    });

    let published = published.into_inner().expect("publish log");
    assert_eq!(published.len(), BATCHES + 1, "every batch published once");
    for (worker, seen) in observed.iter().enumerate().skip(1) {
        for key in seen {
            assert!(
                published.contains(key),
                "reader {worker} observed unpublished state {key:?} \
                 (published: {published:?})"
            );
        }
    }
    // The final epoch must have been reachable: the writer's last
    // publish carries every appended row.
    assert_eq!(
        published.last().unwrap().1,
        SEED + BATCHES * BATCH_ROWS,
        "last published snapshot spans all rows"
    );
}
