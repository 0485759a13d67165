//! Property tests pinning every chunked / galloping kernel bit-for-bit
//! equal to its retained scalar oracle (`kernels::scalar`), across ragged
//! word lengths (0, 1, around the 8-word chunk boundaries), skewed sorted
//! list pairs (past the gallop ratio in both directions), and the blocked
//! batch-counting path on every engine backend.
//!
//! Case counts honour the `PROPTEST_CASES` environment cap, so both CI
//! thread legs can time-box the suite.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases_dataset::kernels::{self, scalar, BLOCK_WORDS, CHUNK_WORDS, GALLOP_RATIO};
use rulebases_dataset::{BitSet, EngineKind, Itemset, TransactionDb};
use std::sync::Arc;

/// Word vectors whose lengths cluster around the chunk boundaries the
/// kernels special-case: 0, 1, one under/at/over `CHUNK_WORDS`, and a
/// multi-chunk tail.
fn ragged_words() -> impl Strategy<Value = Vec<u64>> {
    (0usize..=3 * CHUNK_WORDS + 2, 0u64..u64::MAX).prop_map(|(len, seed)| {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    })
}

/// A pair of equal-length word vectors with mixed densities.
fn word_pairs() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    ragged_words().prop_map(|a| {
        let b = a
            .iter()
            .enumerate()
            .map(|(i, w)| w.rotate_left(i as u32 % 64) ^ 0xF0F0_0F0F_3333_CCCC)
            .collect();
        (a, b)
    })
}

/// Strictly sorted u32 lists; `stride` spreads values so two draws
/// interleave rather than coincide.
fn sorted_list(len: usize, stride: u32, offset: u32) -> Vec<u32> {
    (0..len as u32).map(|i| i * stride + offset).collect()
}

/// Skewed length pairs: a short list and one at least `GALLOP_RATIO`×
/// longer, in both orders, plus balanced controls.
fn list_pairs() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    ((0usize..48, 0usize..4), (1u32..8, 1u32..8, 0u32..4)).prop_map(
        |((short_len, shape), (stride_a, stride_b, offset))| {
            let long_len = match shape {
                0 => short_len,                                 // balanced
                1 => short_len * (GALLOP_RATIO - 1),            // just under the ratio
                2 => short_len * GALLOP_RATIO,                  // exactly at it
                _ => short_len * GALLOP_RATIO + short_len + 17, // far past it
            };
            let a = sorted_list(short_len, stride_a, 0);
            let b = sorted_list(long_len, stride_b, offset);
            (a, b)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // ---- Chunked bitset kernels vs scalar oracles ----------------------

    #[test]
    fn chunked_counts_match_scalar((a, b) in word_pairs()) {
        prop_assert_eq!(kernels::count(&a), scalar::count(&a));
        prop_assert_eq!(kernels::and_count(&a, &b), scalar::and_count(&a, &b));
        prop_assert_eq!(kernels::and_not_count(&a, &b), scalar::and_not_count(&a, &b));
        prop_assert_eq!(kernels::is_subset(&a, &b), scalar::is_subset(&a, &b));
        prop_assert_eq!(kernels::any(&a), scalar::count(&a) != 0);
    }

    #[test]
    fn fused_kernels_match_two_pass((a, b) in word_pairs()) {
        let expect: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let n = scalar::count(&expect);

        let mut in_place = a.clone();
        prop_assert_eq!(kernels::and_assign_count(&mut in_place, &b), n);
        prop_assert_eq!(&in_place, &expect);

        let mut out = vec![!0u64; 5];
        prop_assert_eq!(kernels::and_into_count(&mut out, &a, &b), n);
        prop_assert_eq!(&out, &expect);

        // Masked inputs are subsets of both operands.
        prop_assert!(kernels::is_subset(&expect, &a));
        prop_assert!(kernels::is_subset(&expect, &b));
    }

    #[test]
    fn blocked_multiway_count_matches_scalar((a, b) in word_pairs()) {
        let len = a.len();
        let c: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let abc: Vec<u64> = (0..len).map(|i| a[i] & b[i] & c[i]).collect();
        // Whole range in one call equals tiling it in BLOCK_WORDS steps.
        let mut tiled = 0usize;
        let mut start = 0usize;
        while start < len {
            let end = (start + BLOCK_WORDS).min(len);
            tiled += kernels::and_many_count_range(&[&a, &b, &c], start, end);
            start = end;
        }
        prop_assert_eq!(tiled, scalar::count(&abc));
        prop_assert_eq!(
            kernels::and_many_count_range(&[&a, &b], 0, len),
            scalar::and_count(&a, &b)
        );
    }

    // ---- BitSet surface over the kernels -------------------------------

    #[test]
    fn bitset_ops_match_index_model(
        xs in vec(0usize..200, 0..40),
        ys in vec(0usize..200, 0..40),
    ) {
        use std::collections::BTreeSet;
        let nbits = 200;
        let a = BitSet::from_indices(nbits, xs.iter().copied());
        let b = BitSet::from_indices(nbits, ys.iter().copied());
        let sa: BTreeSet<usize> = xs.into_iter().collect();
        let sb: BTreeSet<usize> = ys.into_iter().collect();

        prop_assert_eq!(a.count(), sa.len());
        prop_assert_eq!(a.intersection_count(&b), sa.intersection(&sb).count());
        prop_assert_eq!(a.and_not_count(&b), sa.difference(&sb).count());
        prop_assert_eq!(a.is_subset_of(&b), sa.is_subset(&sb));
        prop_assert_eq!(a.is_empty(), sa.is_empty());

        let mut fused = a.clone();
        let n = fused.intersect_with_count(&b);
        prop_assert_eq!(n, sa.intersection(&sb).count());
        prop_assert_eq!(&fused, &a.intersection(&b));

        let mut out = BitSet::new(1);
        prop_assert_eq!(a.intersect_count_into(&b, &mut out), n);
        prop_assert_eq!(&out, &fused);
    }

    // ---- Galloping sorted-list kernels vs scalar oracles ---------------

    #[test]
    fn adaptive_intersection_matches_scalar((a, b) in list_pairs()) {
        let expect = scalar::intersect_sorted(&a, &b);
        prop_assert_eq!(&kernels::intersect_sorted(&a, &b), &expect);
        prop_assert_eq!(&kernels::intersect_sorted(&b, &a), &expect);
        prop_assert_eq!(kernels::intersect_count_sorted(&a, &b), expect.len());
        prop_assert_eq!(kernels::intersect_count_sorted(&b, &a), expect.len());

        let mut in_place = a.clone();
        kernels::intersect_in_place(&mut in_place, &b);
        prop_assert_eq!(&in_place, &expect);
        let mut in_place = b.clone();
        kernels::intersect_in_place(&mut in_place, &a);
        prop_assert_eq!(&in_place, &expect);
    }

    #[test]
    fn itemset_intersect_with_matches_merge_oracle((a, b) in list_pairs()) {
        let sa = Itemset::from_ids(a);
        let sb = Itemset::from_ids(b);
        let expect = sa.intersection(&sb);
        let mut got = sa.clone();
        got.intersect_with(sb.as_slice());
        prop_assert_eq!(&got, &expect);
        let mut got = sb.clone();
        got.intersect_with(sa.as_slice());
        prop_assert_eq!(got, expect);
    }
}

// Batch counting exercises BLOCK_WORDS tiling only past 16384 objects, so
// it gets a smaller case budget with bigger cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blocked_batch_counting_matches_pointwise_on_all_backends(
        rows in vec(vec(0u32..24, 0..6), 1..60),
        candidates in vec(vec(0u32..26, 0..4), 0..12),
    ) {
        let db = Arc::new(TransactionDb::from_rows(rows));
        let candidates: Vec<Itemset> =
            candidates.into_iter().map(Itemset::from_ids).collect();
        for kind in EngineKind::BACKENDS {
            let engine = kind.build(&db);
            let batch = engine.count_candidates(&candidates);
            for (cand, &got) in candidates.iter().zip(&batch) {
                prop_assert_eq!(
                    got,
                    engine.support(cand),
                    "{} count of {:?}", engine.name(), cand
                );
            }
        }
    }
}

/// The tiling boundary itself: a dense context bigger than one
/// `BLOCK_WORDS` tile (16384 objects = 256 words), so the blocked loop
/// takes more than one tile and the tail tile is ragged.
#[test]
fn blocked_counting_crosses_tile_boundaries() {
    let n_rows = 64 * BLOCK_WORDS + 70; // 2 full tiles + ragged tail
    let db = Arc::new(TransactionDb::from_rows(
        (0..n_rows as u32).map(|t| vec![t % 5, 5 + t % 3]).collect(),
    ));
    let engine = EngineKind::Dense.build(&db);
    let candidates: Vec<Itemset> = vec![
        Itemset::empty(),
        Itemset::from_ids([0]),
        Itemset::from_ids([0, 5]),
        Itemset::from_ids([1, 6, 7]),
        Itemset::from_ids([0, 1]), // disjoint residues: empty extent
        Itemset::from_ids([99]),
    ];
    let batch = engine.count_candidates(&candidates);
    for (cand, &got) in candidates.iter().zip(&batch) {
        assert_eq!(got, engine.support(cand), "count of {cand:?}");
    }
    assert_eq!(batch[0], n_rows as u64);
}
