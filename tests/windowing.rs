//! Windowed-streaming equivalence and the expiry cost pins.
//!
//! The contract of `StreamingMiner::window`: after every push, a session
//! bounded by `Window::Sliding(n)` holds exactly the bases a one-shot
//! fused mine of the window's own rows computes — closed sets, Hasse
//! edges, the DG basis, and both Luxenburger bases — over *any* engine
//! backend and *any* batch schedule, for both absolute and rescaling
//! thresholds. `Window::Ttl(k)` does the same with whole batches as the
//! unit of aging. And the session must get there without ever re-mining:
//! expiry flows through the lattice's delta machinery, and the session
//! holds no support engine to call.
//!
//! Case counts respect the `PROPTEST_CASES` environment variable so the
//! 1-CPU suite stays inside its budget.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases::{MinedBases, PipelineKind, RuleMiner, Window};
use rulebases_dataset::{EngineKind, MinSupport, TransactionDb};

/// The batch schedules the streaming suite pins: row-at-a-time, a ragged
/// prime, one whole 64-row bitset word, and everything at once.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];

/// Deterministic correlated rows over 14 items (the streaming suite's
/// generator): enough structure that windows slide across splits,
/// interpositions, class deaths, and generator retags.
fn census_rows(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32)
        .map(|t| vec![t % 4, 4 + t % 3, 7 + t % 2, 9 + (t / 7) % 5])
        .collect()
}

fn assert_windowed_matches_fresh(streamed: &MinedBases, fresh: &MinedBases, label: &str) {
    assert_eq!(
        streamed.closed.clone().into_sorted_vec(),
        fresh.closed.clone().into_sorted_vec(),
        "{label}: closed sets"
    );
    assert_eq!(
        streamed.lattice.edges().collect::<Vec<_>>(),
        fresh.lattice.edges().collect::<Vec<_>>(),
        "{label}: Hasse edges"
    );
    assert_eq!(streamed.dg.rules(), fresh.dg.rules(), "{label}: DG basis");
    assert_eq!(
        streamed.lux_full.rules(),
        fresh.lux_full.rules(),
        "{label}: full Luxenburger basis"
    );
    assert_eq!(
        streamed.lux_reduced.rules(),
        fresh.lux_reduced.rules(),
        "{label}: reduced Luxenburger basis"
    );
    assert_eq!(streamed.min_count, fresh.min_count, "{label}: min_count");
}

// Each case mines one fused oracle per batch boundary per backend, so the
// case counts are set explicitly (and capped by `PROPTEST_CASES`) to keep
// the 1-CPU suite inside its budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sliding_window_matches_fresh_mine_of_the_tail(
        rows in vec(vec(0u32..9, 0..6), 1..50),
        window in 1usize..16,
        min_count in 1u64..3,
        fractional in 0usize..2,
        minconf_idx in 0usize..3,
        batch_idx in 0usize..4,
    ) {
        let minsup = if fractional == 1 {
            MinSupport::Fraction(0.25)
        } else {
            MinSupport::Count(min_count)
        };
        let minconf = [0.0, 0.5, 1.0][minconf_idx];
        let batch = BATCH_SIZES[batch_idx];
        for kind in EngineKind::BACKENDS {
            let miner = RuleMiner::new(minsup)
                .min_confidence(minconf)
                .engine(kind);
            let fused = miner.clone().pipeline(PipelineKind::Fused);
            let mut stream = miner
                .streaming(TransactionDb::from_rows(vec![]))
                .window(Window::Sliding(window));
            let mut seen = 0;
            for chunk in rows.chunks(batch.min(rows.len())) {
                let delta = stream.push_batch(chunk.to_vec()).unwrap();
                seen += chunk.len();
                let in_window = seen.min(window);
                prop_assert_eq!(delta.appended, chunk.len());
                prop_assert_eq!(delta.expired, (seen.min(window + chunk.len())) - in_window);
                prop_assert_eq!(delta.n_objects, in_window);
                prop_assert_eq!(stream.n_objects(), in_window);
                let tail = rows[seen - in_window..seen].to_vec();
                let fresh = fused.mine(TransactionDb::from_rows(tail));
                assert_windowed_matches_fresh(
                    stream.bases(),
                    &fresh,
                    &format!("{kind} / window {window} / batch {batch} / seen {seen}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn ttl_window_matches_fresh_mine_of_the_kept_batches(
        batches in vec(vec(vec(0u32..9, 0..6), 0..8), 1..10),
        keep in 1usize..4,
        min_count in 1u64..3,
    ) {
        // Ttl(k) retains whole batches: after each push the state must
        // equal a fresh mine of the newest k non-empty batches' rows
        // (empty pushes neither age the window nor advance the epoch).
        let miner = RuleMiner::new(MinSupport::Count(min_count)).min_confidence(0.5);
        let fused = miner.clone().pipeline(PipelineKind::Fused);
        let mut stream = miner
            .streaming(TransactionDb::from_rows(vec![]))
            .window(Window::Ttl(keep));
        let mut kept: Vec<Vec<Vec<u32>>> = Vec::new();
        for batch in &batches {
            let delta = stream.push_batch(batch.clone()).unwrap();
            if batch.is_empty() {
                prop_assert_eq!(delta.appended, 0);
                prop_assert_eq!(delta.expired, 0);
                continue;
            }
            kept.push(batch.clone());
            let expired: usize = if kept.len() > keep {
                kept.drain(..kept.len() - keep).map(|b| b.len()).sum()
            } else {
                0
            };
            prop_assert_eq!(delta.expired, expired);
            let window_rows: Vec<Vec<u32>> = kept.iter().flatten().cloned().collect();
            prop_assert_eq!(stream.n_objects(), window_rows.len());
            let fresh = fused.mine(TransactionDb::from_rows(window_rows));
            assert_windowed_matches_fresh(stream.bases(), &fresh, &format!("keep {keep}"));
        }
    }
}

/// The acceptance pin at test scale: replaying a sliding window never
/// re-mines — base maintenance (appends *and* expiries) runs entirely on
/// the lattice's set algebra, and the session holds no support engine,
/// so the whole replay performs zero support-engine calls by
/// construction. What is measured here: every push leaves exactly the
/// window's rows, and the retained storage stays bounded by the window
/// rather than the stream length.
#[test]
fn sliding_replay_performs_zero_engine_calls_and_bounded_storage() {
    let rows = census_rows(512);
    let miner = RuleMiner::new(MinSupport::Fraction(0.1)).min_confidence(0.6);
    let mut stream = miner
        .clone()
        .streaming(TransactionDb::from_rows(vec![]))
        .window(Window::Sliding(64));
    let mut seen = 0;
    for chunk in rows.chunks(32) {
        stream.push_batch(chunk.to_vec()).unwrap();
        seen += chunk.len();
        assert_eq!(stream.n_objects(), seen.min(64));
    }

    // Storage bound: the windowed view retains a bounded multiple of the
    // window's own bytes (segment granularity and compaction hysteresis
    // allow slack, not growth with the stream).
    let windowed = stream.db().storage_bytes();
    let fresh = TransactionDb::from_rows(rows[rows.len() - 64..].to_vec()).storage_bytes();
    assert!(
        windowed <= 4 * fresh,
        "windowed storage {windowed} not bounded by the window (fresh tail: {fresh})"
    );
    // And an unbounded session over the same replay retains strictly more.
    let mut unbounded = miner.streaming(TransactionDb::from_rows(vec![]));
    for chunk in rows.chunks(32) {
        unbounded.push_batch(chunk.to_vec()).unwrap();
    }
    assert!(
        windowed < unbounded.db().storage_bytes(),
        "expiry must reclaim storage"
    );
}

/// A batch wider than the window: every row still inserts (the delta
/// reports the full append), then the prefix — including the batch's own
/// head — expires, leaving exactly the batch's tail.
#[test]
fn batch_larger_than_window_keeps_its_tail() {
    let miner = RuleMiner::new(MinSupport::Count(1)).min_confidence(0.5);
    let mut stream = miner
        .clone()
        .streaming(TransactionDb::from_rows(vec![]))
        .window(Window::Sliding(4));
    let rows = census_rows(16);
    let delta = stream.push_batch(rows.clone()).unwrap();
    assert_eq!(delta.appended, 16);
    assert_eq!(delta.expired, 12);
    assert_eq!(stream.n_objects(), 4);
    let fresh = miner
        .pipeline(PipelineKind::Fused)
        .mine(TransactionDb::from_rows(rows[12..].to_vec()));
    assert_windowed_matches_fresh(stream.bases(), &fresh, "oversized batch");
}

/// A seed wider than the window is trimmed by the first push, not at
/// configuration time.
#[test]
fn oversized_seed_trims_on_first_push() {
    let rows = census_rows(20);
    let miner = RuleMiner::new(MinSupport::Count(1)).min_confidence(0.5);
    let mut stream = miner
        .clone()
        .streaming(TransactionDb::from_rows(rows.clone()))
        .window(Window::Sliding(8));
    assert_eq!(stream.n_objects(), 20, "window() itself must not mutate");
    let delta = stream.push_batch(vec![vec![0, 4, 7, 9]]).unwrap();
    assert_eq!(delta.appended, 1);
    assert_eq!(delta.expired, 13);
    assert_eq!(stream.n_objects(), 8);
    let mut tail = rows[13..].to_vec();
    tail.push(vec![0, 4, 7, 9]);
    let fresh = miner
        .pipeline(PipelineKind::Fused)
        .mine(TransactionDb::from_rows(tail));
    assert_windowed_matches_fresh(stream.bases(), &fresh, "oversized seed");
}

/// Switching an unbounded session to `Ttl` ages the rows it already
/// holds as one batch, the way the seed does: the ledger never recorded
/// the batches pushed before the switch, so without that those rows
/// would never expire.
#[test]
fn switching_to_ttl_ages_the_rows_already_held_as_one_batch() {
    let rows = census_rows(40);
    let miner = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let fused = miner.clone().pipeline(PipelineKind::Fused);
    let mut stream = miner.streaming(TransactionDb::from_rows(rows[..4].to_vec()));
    for chunk in rows[4..16].chunks(4) {
        stream.push_batch(chunk.to_vec()).unwrap();
    }
    stream.set_window(Window::Ttl(2));
    assert_eq!(stream.n_objects(), 16, "the switch itself must not expire");
    let mut kept: Vec<Vec<Vec<u32>>> = vec![rows[..16].to_vec()];
    for chunk in rows[16..].chunks(4) {
        let delta = stream.push_batch(chunk.to_vec()).unwrap();
        kept.push(chunk.to_vec());
        let expired: usize = if kept.len() > 2 {
            kept.drain(..kept.len() - 2).map(|b| b.len()).sum()
        } else {
            0
        };
        assert_eq!(delta.expired, expired);
        let window_rows: Vec<Vec<u32>> = kept.iter().flatten().cloned().collect();
        assert_eq!(stream.n_objects(), window_rows.len());
        let fresh = fused.mine(TransactionDb::from_rows(window_rows));
        let label = format!("epoch {}", stream.epoch());
        assert_windowed_matches_fresh(stream.bases(), &fresh, &label);
    }
    assert_eq!(stream.n_objects(), 8);
}
