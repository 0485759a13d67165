//! Generator-maintenance invariants through the whole stack.
//!
//! The contract of the delta-sized tag maintenance: over *any* engine
//! backend, *any* batch schedule, and *any* window policy, a streaming
//! replay keeps the minimal-generator tags with the local
//! extension/subsumption rules alone — every `BasesDelta` reports zero
//! transversal fallbacks, the per-batch work counters sum to the
//! session's lifetime tally, and the maintained tags land exactly on the
//! ones a from-scratch fused mine (whose generators the levelwise miner
//! proves independently) derives for the same window of rows. A second
//! pin replays a sliding window directly against the raw lattice and
//! checks the maintained tags against the retained transversal oracle
//! after every mutation.
//!
//! Case counts respect the `PROPTEST_CASES` environment variable so the
//! 1-CPU suite stays inside its budget.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases::lattice::IncrementalLattice;
use rulebases::{GenStats, PipelineKind, RuleMiner, Window};
use rulebases_dataset::{EngineKind, Itemset, MinSupport, TransactionDb};
use std::collections::VecDeque;

/// The batch schedules the streaming suite pins: row-at-a-time, a ragged
/// prime, one whole 64-row bitset word, and everything at once.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn replay_spends_zero_fallbacks_and_lands_on_freshly_proven_tags(
        rows in vec(vec(0u32..9, 0..6), 1..40),
        window_kind in 0usize..3,
        window in 1usize..12,
        batch_idx in 0usize..4,
    ) {
        let batch = BATCH_SIZES[batch_idx].min(rows.len());
        for kind in EngineKind::BACKENDS {
            let miner = RuleMiner::new(MinSupport::Count(1))
                .min_confidence(0.5)
                .engine(kind);
            let mut stream = miner.clone().streaming(TransactionDb::from_rows(vec![]));
            match window_kind {
                1 => stream.set_window(Window::Sliding(window)),
                2 => stream.set_window(Window::Ttl(1 + window / 4)),
                _ => {}
            }
            let mut batched = GenStats::default();
            let mut kept: Vec<Vec<Vec<u32>>> = Vec::new();
            for chunk in rows.chunks(batch) {
                let delta = stream.push_batch(chunk.to_vec()).unwrap();
                prop_assert_eq!(
                    delta.gen.transversal_fallbacks, 0,
                    "{} batch fell back to the transversal oracle", kind
                );
                batched.absorb(delta.gen);
                kept.push(chunk.to_vec());
            }
            let lifetime = stream.gen_stats();
            prop_assert_eq!(batched, lifetime, "{}: batch deltas must sum", kind);
            prop_assert_eq!(lifetime.transversal_fallbacks, 0);

            // The rows the window retained, per policy.
            let window_rows: Vec<Vec<u32>> = match window_kind {
                1 => {
                    let all: Vec<Vec<u32>> = kept.into_iter().flatten().collect();
                    all[all.len().saturating_sub(window)..].to_vec()
                }
                2 => {
                    let keep = 1 + window / 4;
                    kept[kept.len().saturating_sub(keep)..]
                        .iter()
                        .flatten()
                        .cloned()
                        .collect()
                }
                _ => kept.into_iter().flatten().collect(),
            };
            prop_assert_eq!(stream.n_objects(), window_rows.len());

            // The maintained tags must be exactly what a from-scratch
            // fused mine proves for the same rows, class by class.
            let fresh = miner
                .pipeline(PipelineKind::Fused)
                .mine(TransactionDb::from_rows(window_rows));
            let streamed = stream.bases();
            let stags = streamed.minimal_generators.as_ref().unwrap();
            let ftags = fresh.minimal_generators.as_ref().unwrap();
            prop_assert_eq!(streamed.lattice.n_nodes(), fresh.lattice.n_nodes());
            prop_assert_eq!(stags.len(), streamed.lattice.n_nodes());
            for (node, tags) in stags.iter().enumerate() {
                let (closure, support) = streamed.lattice.node(node);
                let fnode = fresh
                    .lattice
                    .position(closure)
                    .expect("streamed class missing from the fresh mine");
                prop_assert_eq!(fresh.lattice.node(fnode).1, support);
                let mut maintained = tags.clone();
                let mut proven = ftags[fnode].clone();
                maintained.sort();
                proven.sort();
                prop_assert_eq!(
                    maintained, proven,
                    "{}: tag divergence at {:?}", kind, closure
                );
            }
        }
    }
}

/// The raw-lattice pin: a sliding replay of correlated rows checked
/// against the retained transversal oracle after **every** insert and
/// expiry, not just at the end.
#[test]
fn sliding_raw_replay_matches_the_oracle_at_every_step() {
    let rows: Vec<Vec<u32>> = (0..96u32)
        .map(|t| vec![t % 4, 4 + t % 3, 7 + t % 2, 9 + (t / 7) % 5])
        .collect();
    let mut inc = IncrementalLattice::new();
    let mut in_window: VecDeque<Itemset> = VecDeque::new();
    let check = |inc: &IncrementalLattice| {
        for id in 0..inc.n_nodes() {
            if inc.is_live(id) {
                assert_eq!(
                    inc.generator_tags(id).to_vec(),
                    inc.oracle_generators_of(id),
                    "node {id} diverged from the oracle"
                );
            }
        }
    };
    for row in rows {
        let object = Itemset::from_ids(row);
        inc.insert_object(&object);
        in_window.push_back(object);
        check(&inc);
        if in_window.len() > 24 {
            let oldest = in_window.pop_front().unwrap();
            inc.remove_object(&oldest);
            check(&inc);
        }
    }
    let stats = inc.gen_stats();
    assert_eq!(stats.transversal_fallbacks, 0);
    assert!(stats.candidates > 0 && stats.subsumption_checks > 0);
}
