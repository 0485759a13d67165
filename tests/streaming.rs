//! Streaming-vs-batch equivalence and the streaming cost pin.
//!
//! The contract of `RuleMiner::streaming`: replaying a context in *any*
//! batch schedule, over *any* engine backend, lands in exactly the state
//! the one-shot fused pipeline computes on the full context — closed
//! sets, Hasse edges, the DG basis, and both Luxenburger bases. And it
//! must get there cheaper: `push_batch` patches the maintained lattice
//! with set algebra and the session holds no support engine, so a whole
//! replay makes no engine calls where re-mining the grown context from
//! scratch once per batch makes many (the `bases-stream` bench records
//! the same tallies at bench scale).
//!
//! Case counts respect the `PROPTEST_CASES` environment variable so the
//! 1-CPU suite stays inside its budget.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases::checkpoint::{write_snapshot, CheckpointedMiner};
use rulebases::stream::{BasesDelta, RuleSetDelta};
use rulebases::{MinedBases, PipelineKind, RuleMiner, Window};
use rulebases_bench::datasets::{drifting_census, project_top_items};
use rulebases_bench::{Scale, StandIn};
use rulebases_dataset::{EngineKind, MinSupport, MiningContext, TransactionDb};

/// The batch schedules the issue calls out: row-at-a-time, a ragged
/// prime, one whole 64-row bitset word, and the whole database at once.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];

/// Deterministic correlated rows over 14 items: four attribute groups, so
/// the closed-set lattice stays compact while still having structure
/// (splits, interpositions, generator births) at every prefix.
fn census_rows(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32)
        .map(|t| vec![t % 4, 4 + t % 3, 7 + t % 2, 9 + (t / 7) % 5])
        .collect()
}

fn assert_stream_matches_oracle(streamed: &MinedBases, oracle: &MinedBases, label: &str) {
    assert_eq!(
        streamed.closed.clone().into_sorted_vec(),
        oracle.closed.clone().into_sorted_vec(),
        "{label}: closed sets"
    );
    assert_eq!(
        streamed.lattice.edges().collect::<Vec<_>>(),
        oracle.lattice.edges().collect::<Vec<_>>(),
        "{label}: Hasse edges"
    );
    assert_eq!(streamed.dg.rules(), oracle.dg.rules(), "{label}: DG basis");
    assert_eq!(
        streamed.lux_full.rules(),
        oracle.lux_full.rules(),
        "{label}: full Luxenburger basis"
    );
    assert_eq!(
        streamed.lux_reduced.rules(),
        oracle.lux_reduced.rules(),
        "{label}: reduced Luxenburger basis"
    );
    assert_eq!(streamed.min_count, oracle.min_count, "{label}: min_count");
}

/// Order-insensitive equality of a direct (lattice-level) rule delta and
/// the snapshot-diff oracle's.
fn assert_rule_delta_eq(direct: &RuleSetDelta, oracle: &RuleSetDelta, label: &str) {
    let sorted = |rules: &[rulebases::Rule]| {
        let mut v = rules.to_vec();
        v.sort();
        v
    };
    assert_eq!(
        sorted(&direct.added),
        sorted(&oracle.added),
        "{label}: added"
    );
    assert_eq!(
        sorted(&direct.removed),
        sorted(&oracle.removed),
        "{label}: removed"
    );
    assert_eq!(direct.restated, oracle.restated, "{label}: restated");
}

fn assert_delta_matches_oracle(direct: &BasesDelta, oracle: &BasesDelta, label: &str) {
    assert_eq!(direct.n_objects, oracle.n_objects, "{label}: n_objects");
    assert_eq!(direct.min_count, oracle.min_count, "{label}: min_count");
    assert_eq!(
        direct.closed_added, oracle.closed_added,
        "{label}: closed_added"
    );
    assert_eq!(
        direct.closed_removed, oracle.closed_removed,
        "{label}: closed_removed"
    );
    assert_rule_delta_eq(&direct.dg, &oracle.dg, &format!("{label}: dg"));
    assert_rule_delta_eq(
        &direct.lux_full,
        &oracle.lux_full,
        &format!("{label}: lux_full"),
    );
    assert_rule_delta_eq(
        &direct.lux_reduced,
        &oracle.lux_reduced,
        &format!("{label}: lux_reduced"),
    );
}

// The delta-vs-oracle property mines two fused oracles per batch, so its
// case count is set explicitly (and capped by `PROPTEST_CASES`) to keep
// the 1-CPU suite inside its budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn per_batch_deltas_match_the_snapshot_diff_oracle(
        rows in vec(vec(0u32..9, 0..6), 1..40),
        min_count in 1u64..3,
        fractional in 0usize..2,
        minconf_idx in 0usize..3,
        batch_idx in 0usize..4,
    ) {
        // PR 4 computed each BasesDelta by materializing the full bases
        // before and after the batch and set-diffing them; that
        // formulation survives as BasesDelta::between, the oracle. The
        // production path must report exactly the same movement from the
        // lattice's touched-class set alone — over every backend and
        // batch schedule, for both absolute and rescaling thresholds.
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
            let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
            let mut seen = 0;
            for chunk in rows.chunks(batch.min(rows.len())) {
                let before = fused.mine(TransactionDb::from_rows(rows[..seen].to_vec()));
                seen += chunk.len();
                let after = fused.mine(TransactionDb::from_rows(rows[..seen].to_vec()));
                let direct = stream.push_batch(chunk.to_vec()).unwrap();
                let oracle = BasesDelta::between(&before, &after, direct.epoch, chunk.len(), 0);
                assert_delta_matches_oracle(
                    &direct,
                    &oracle,
                    &format!("{kind} / batch {batch} / prefix {seen}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_replay_matches_one_shot_fused(
        rows in vec(vec(0u32..9, 0..6), 1..70),
        min_count in 1u64..4,
        minconf_idx in 0usize..3,
        batch_idx in 0usize..4,
    ) {
        let minconf = [0.0, 0.5, 1.0][minconf_idx];
        let batch = BATCH_SIZES[batch_idx];
        for kind in EngineKind::BACKENDS {
            let miner = RuleMiner::new(MinSupport::Count(min_count))
                .min_confidence(minconf)
                .engine(kind);
            let oracle = miner
                .clone()
                .pipeline(PipelineKind::Fused)
                .mine(TransactionDb::from_rows(rows.clone()));
            let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
            for chunk in rows.chunks(batch.min(rows.len())) {
                stream.push_batch(chunk.to_vec()).unwrap();
            }
            assert_stream_matches_oracle(
                stream.bases(),
                &oracle,
                &format!("{kind} / batch {batch}"),
            );
            // The derived frequent sets ride along.
            prop_assert_eq!(stream.bases().frequent.len(), oracle.frequent.len());
        }
    }

    #[test]
    fn streaming_with_fractional_threshold_tracks_rescaling(
        rows in vec(vec(0u32..8, 0..5), 2..50),
        batch_idx in 0usize..4,
    ) {
        // A fractional threshold changes its absolute value as rows
        // arrive; after the replay the state must equal the oracle on the
        // final context — including the rescaled min_count.
        let batch = BATCH_SIZES[batch_idx];
        let miner = RuleMiner::new(MinSupport::Fraction(0.3)).min_confidence(0.6);
        let oracle = miner
            .clone()
            .pipeline(PipelineKind::Fused)
            .mine(TransactionDb::from_rows(rows.clone()));
        let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
        for chunk in rows.chunks(batch.min(rows.len())) {
            stream.push_batch(chunk.to_vec()).unwrap();
        }
        assert_stream_matches_oracle(stream.bases(), &oracle, &format!("batch {batch}"));
    }
}

/// The acceptance pin: maintaining the bases over a batched replay costs
/// strictly fewer engine calls than re-mining the grown context from
/// scratch at every batch. The `push_batch` path answers out of the
/// maintained lattice, and the session holds no engine, so its side of
/// the comparison is zero by construction.
#[test]
fn streaming_uses_strictly_fewer_engine_calls_than_remining() {
    let rows = census_rows(256);
    let miner = RuleMiner::new(MinSupport::Fraction(0.1)).min_confidence(0.6);

    let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
    let mut remining_calls = 0u64;
    let mut seen = 0;
    for chunk in rows.chunks(64) {
        stream.push_batch(chunk.to_vec()).unwrap();
        seen += chunk.len();

        // The alternative: re-mine the grown prefix from scratch.
        let ctx = MiningContext::new(TransactionDb::from_rows(rows[..seen].to_vec()));
        let remined = miner
            .clone()
            .pipeline(PipelineKind::Fused)
            .mine_context(&ctx);
        remining_calls += ctx.closure_cache_stats().engine_calls();

        // Same answer at every batch boundary.
        assert_stream_matches_oracle(stream.bases(), &remined, &format!("prefix {seen}"));
    }
    assert!(
        remining_calls > 0,
        "re-mining must query the engine the streaming session does not hold"
    );
}

/// The zero-copy acceptance pin at the session level: `push_batch`
/// performs no full-CSR clone — a 1-row append
/// against a 4096-row prefix copies a constant-bounded number of row
/// bytes into its one new segment (the same number a 512-row prefix
/// pays), every pre-append storage segment survives by identity, and a
/// universe-growing append rewrites none of them.
#[test]
fn push_batch_copies_batch_sized_bytes_regardless_of_prefix() {
    let miner = RuleMiner::new(MinSupport::Fraction(0.1)).min_confidence(0.6);
    let mut copied_per_prefix = Vec::new();
    for prefix in [512usize, 4096] {
        let mut stream = miner.streaming(TransactionDb::from_rows(census_rows(prefix)));
        let addrs_before = stream.db().segment_addrs();
        let bytes_before = stream.db().storage_bytes();
        stream.push_batch(vec![vec![0, 4, 7, 9]]).unwrap();
        let copied = stream.db().storage_bytes() - bytes_before;
        assert!(copied > 0, "the append stores the row");
        assert!(
            copied < 128,
            "1-row push against a {prefix}-row prefix copied {copied} bytes"
        );
        // One new segment; every prefix segment shared, not copied.
        let addrs_after = stream.db().segment_addrs();
        assert_eq!(addrs_after.len(), addrs_before.len() + 1, "prefix {prefix}");
        assert_eq!(&addrs_after[..addrs_before.len()], &addrs_before[..]);
        copied_per_prefix.push(copied);
    }
    assert_eq!(
        copied_per_prefix[0], copied_per_prefix[1],
        "per-batch bytes must be independent of the prefix length"
    );

    // Universe growth: new item id 20 widens the view; no segment moves.
    let mut stream = miner.streaming(TransactionDb::from_rows(census_rows(512)));
    let addrs_before = stream.db().segment_addrs();
    stream.push_batch(vec![vec![0, 20]]).unwrap();
    assert_eq!(stream.db().n_items(), 21);
    let addrs_after = stream.db().segment_addrs();
    assert_eq!(&addrs_after[..addrs_before.len()], &addrs_before[..]);
}

/// Wide vocabularies through the session: the proptests above draw items
/// from about `0..9`, so these two replays pin the session on the
/// stand-ins' wide projections, where the iceberg family is sparse and
/// most pseudo-closed sets of the items in use are infrequent. Each
/// session is seeded with its first 64 rows, then takes 64-row batches
/// across the membership flips a rising fractional threshold causes,
/// unbounded and under a sliding window, and is finally round-tripped
/// through a checkpoint. After every batch and after recovery, the bases
/// equal a fused mine of the rows the session holds.
#[test]
fn wide_vocabularies_match_fused_across_flips_windows_and_recovery() {
    const SEED: usize = 64;
    let inputs = [
        (
            "T10I4D100K* top 60",
            project_top_items(&StandIn::T10I4.generate(Scale::Test), 60),
            0.01,
        ),
        (
            "DRIFT* top 40",
            project_top_items(&drifting_census(1_000, 8, 250, 0xD21F7), 40),
            0.2,
        ),
    ];
    // The final |FC| (∅ excluded) and DG size of each replay, unbounded
    // and then windowed: what `probe <ds> <minsup> test --stream
    // --stream-items <k> [--window 256]` prints for the same rows.
    let finals = [[(64, 0), (68, 0)], [(36, 1), (113, 15)]];
    for ((label, rows, minsup), finals) in inputs.into_iter().zip(finals) {
        for (window, expected) in [Window::Unbounded, Window::Sliding(256)]
            .into_iter()
            .zip(finals)
        {
            let label = format!("{label} under {window:?}");
            let miner = RuleMiner::new(MinSupport::Fraction(minsup)).min_confidence(0.5);
            let fused = miner.clone().pipeline(PipelineKind::Fused);
            let held = |end: usize| {
                let start = match window {
                    Window::Sliding(n) => end.saturating_sub(n),
                    _ => 0,
                };
                TransactionDb::from_rows(rows[start..end].to_vec())
            };
            let mut stream = miner
                .streaming(TransactionDb::from_rows(rows[..SEED].to_vec()))
                .window(window);
            let (mut end, mut flips) = (SEED, 0);
            for chunk in rows[SEED..].chunks(64) {
                let delta = stream.push_batch(chunk.to_vec()).unwrap();
                end += chunk.len();
                flips +=
                    usize::from(!delta.closed_added.is_empty() || !delta.closed_removed.is_empty());
                assert_stream_matches_oracle(
                    stream.bases(),
                    &fused.mine(held(end)),
                    &format!("{label}, {end} rows"),
                );
            }
            assert!(flips > 0, "{label}: no batch moved iceberg membership");
            let bases = stream.bases();
            assert_eq!(
                (bases.n_closed_nonempty(), bases.dg.len()),
                expected,
                "{label}: final |FC| and DG size"
            );

            let dir = std::env::temp_dir().join(format!(
                "rulebases-streaming-wide-{}-{}",
                std::process::id(),
                label.replace(|c: char| !c.is_ascii_alphanumeric(), "-")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            write_snapshot(&stream, &dir).unwrap();
            let (mut recovered, _) = CheckpointedMiner::recover(&dir).unwrap();
            assert_stream_matches_oracle(
                recovered.bases(),
                &fused.mine(held(end)),
                &format!("{label}, recovered"),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
