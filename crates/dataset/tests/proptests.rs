//! Property-based tests for the dataset substrate: set-algebra laws,
//! model-based bitset checks, database invariants, I/O round-trips, and
//! cross-backend `SupportEngine` equivalence.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases_dataset::engine::{DenseEngine, TidListEngine};
use rulebases_dataset::io::{read_dat, write_dat};
use rulebases_dataset::{
    BitSet, CachedEngine, DeltaSupportEngine, EngineKind, Item, Itemset, MiningContext,
    SupportEngine, TransactionDb, TxDelta,
};
use std::collections::BTreeSet;
use std::sync::Arc;

fn itemsets() -> impl Strategy<Value = Itemset> {
    vec(0u32..40, 0..12).prop_map(Itemset::from_ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- Itemset algebra ------------------------------------------------

    #[test]
    fn itemset_invariant_holds(ids in vec(0u32..40, 0..20)) {
        let s = Itemset::from_ids(ids);
        let slice = s.as_slice();
        prop_assert!(slice.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn union_is_commutative_and_idempotent(a in itemsets(), b in itemsets()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert!(a.is_subset_of(&a.union(&b)));
        prop_assert!(b.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn intersection_is_commutative_and_bounded(a in itemsets(), b in itemsets()) {
        let i = a.intersection(&b);
        prop_assert_eq!(&i, &b.intersection(&a));
        prop_assert!(i.is_subset_of(&a));
        prop_assert!(i.is_subset_of(&b));
        prop_assert_eq!(a.intersection(&a), a.clone());
    }

    #[test]
    fn difference_partitions(a in itemsets(), b in itemsets()) {
        let d = a.difference(&b);
        let i = a.intersection(&b);
        prop_assert!(d.is_disjoint_from(&b));
        prop_assert_eq!(d.union(&i), a.clone());
        prop_assert_eq!(d.len() + i.len(), a.len());
    }

    #[test]
    fn in_place_intersection_matches(a in itemsets(), b in itemsets()) {
        let mut c = a.clone();
        c.intersect_with(b.as_slice());
        prop_assert_eq!(c, a.intersection(&b));
    }

    #[test]
    fn demorgan_within_universe(a in itemsets(), b in itemsets()) {
        // (U∖A) ∩ (U∖B) = U∖(A∪B) over a universe covering both.
        let u = Itemset::universe(40);
        let lhs = u.difference(&a).intersection(&u.difference(&b));
        let rhs = u.difference(&a.union(&b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn subset_iff_union_absorbs(a in itemsets(), b in itemsets()) {
        prop_assert_eq!(a.is_subset_of(&b), a.union(&b) == b);
        prop_assert_eq!(a.is_superset_of(&b), a.union(&b) == a);
    }

    #[test]
    fn lectic_cmp_is_a_total_order(a in itemsets(), b in itemsets(), c in itemsets()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.lectic_cmp(&b), b.lectic_cmp(&a).reverse());
        prop_assert_eq!(a.lectic_cmp(&b) == Ordering::Equal, a == b);
        // Transitivity (spot version: if a<b and b<c then a<c).
        if a.lectic_cmp(&b) == Ordering::Less && b.lectic_cmp(&c) == Ordering::Less {
            prop_assert_eq!(a.lectic_cmp(&c), Ordering::Less);
        }
        // Subset implies lectically smaller-or-equal.
        if a.is_subset_of(&b) {
            prop_assert_ne!(a.lectic_cmp(&b), Ordering::Greater);
        }
    }

    #[test]
    fn facets_enumerate_all_one_smaller_subsets(ids in vec(0u32..20, 1..8)) {
        let s = Itemset::from_ids(ids);
        let facets: Vec<Itemset> = s.facets().collect();
        prop_assert_eq!(facets.len(), s.len());
        for f in &facets {
            prop_assert_eq!(f.len() + 1, s.len());
            prop_assert!(f.is_proper_subset_of(&s));
        }
        let unique: BTreeSet<_> = facets.iter().cloned().collect();
        prop_assert_eq!(unique.len(), facets.len());
    }

    #[test]
    fn proper_subsets_count(ids in vec(0u32..20, 0..7)) {
        let s = Itemset::from_ids(ids);
        let expected = (1usize << s.len()).saturating_sub(2);
        prop_assert_eq!(s.proper_subsets().count(), expected);
    }

    // ---- BitSet vs BTreeSet model ---------------------------------------

    #[test]
    fn bitset_matches_btreeset_model(
        a_idx in vec(0usize..150, 0..40),
        b_idx in vec(0usize..150, 0..40),
    ) {
        let a = BitSet::from_indices(150, a_idx.iter().copied());
        let b = BitSet::from_indices(150, b_idx.iter().copied());
        let ma: BTreeSet<usize> = a_idx.into_iter().collect();
        let mb: BTreeSet<usize> = b_idx.into_iter().collect();

        prop_assert_eq!(a.count(), ma.len());
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), ma.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(
            a.intersection(&b).iter().collect::<BTreeSet<_>>(),
            ma.intersection(&mb).copied().collect::<BTreeSet<_>>()
        );
        prop_assert_eq!(a.intersection_count(&b), ma.intersection(&mb).count());
        prop_assert_eq!(a.is_subset_of(&b), ma.is_subset(&mb));

        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u.count(), ma.union(&mb).count());

        let mut d = a.clone();
        d.difference_with(&b);
        prop_assert_eq!(d.count(), ma.difference(&mb).count());
    }

    // ---- TransactionDb invariants ---------------------------------------

    #[test]
    fn support_is_antimonotone(rows in vec(vec(0u32..10, 0..6), 1..12), a in vec(0u32..10, 0..4), extra in 0u32..10) {
        let db = TransactionDb::from_rows(rows);
        let x = Itemset::from_ids(a);
        let y = x.with(rulebases_dataset::Item::new(extra));
        prop_assert!(db.support(&y) <= db.support(&x));
        prop_assert_eq!(db.support(&Itemset::empty()), db.n_transactions() as u64);
    }

    #[test]
    fn db_rows_are_normalized(rows in vec(vec(0u32..10, 0..8), 0..10)) {
        let db = TransactionDb::from_rows(rows.clone());
        prop_assert_eq!(db.n_transactions(), rows.len());
        for t in db.iter() {
            prop_assert!(t.windows(2).all(|w| w[0] < w[1]));
        }
        let total: usize = db.iter().map(<[_]>::len).sum();
        prop_assert_eq!(total, db.n_entries());
    }

    #[test]
    fn dat_round_trip(rows in vec(vec(0u32..50, 1..8), 0..15)) {
        // FIMI cannot represent empty transactions (blank line = skipped),
        // so the property quantifies over non-empty rows.
        let db = TransactionDb::from_rows(rows);
        let mut buf = Vec::new();
        write_dat(&db, &mut buf).unwrap();
        let back = read_dat(&buf[..]).unwrap();
        prop_assert_eq!(back.n_transactions(), db.n_transactions());
        for t in 0..db.n_transactions() {
            prop_assert_eq!(back.transaction(t), db.transaction(t));
        }
    }

    // ---- Cross-backend engine equivalence -------------------------------

    #[test]
    fn engines_agree_on_random_contexts(
        rows in vec(vec(0u32..14, 0..8), 0..14),
        probes in vec(vec(0u32..16, 0..5), 1..8),
    ) {
        // Dense bitsets and tid-lists are two encodings of one
        // relation: every query must agree bit-for-bit. Probes range
        // past the universe (ids up to 15 on a ≤14-item universe) to pin
        // the out-of-universe convention too.
        let db = Arc::new(TransactionDb::from_rows(rows));
        let engines: Vec<_> = EngineKind::BACKENDS
            .iter()
            .map(|kind| kind.build(&db))
            .collect();
        let reference = &engines[0];
        for engine in &engines[1..] {
            prop_assert_eq!(engine.n_objects(), reference.n_objects());
            prop_assert_eq!(engine.n_items(), reference.n_items());
            prop_assert_eq!(
                engine.item_supports(),
                reference.item_supports(),
                "{} item supports", engine.name()
            );
        }
        for ids in &probes {
            let probe = Itemset::from_ids(ids.iter().copied());
            let expected_support = reference.support(&probe);
            let expected_tidset = reference.tidset_of(&probe);
            let expected_closure = reference.closure(&probe);
            prop_assert_eq!(expected_support, db.support(&probe), "dense vs scan");
            for engine in &engines[1..] {
                prop_assert_eq!(
                    engine.support(&probe), expected_support,
                    "{} support of {:?}", engine.name(), probe
                );
                prop_assert_eq!(
                    engine.tidset_of(&probe), expected_tidset.clone(),
                    "{} tidset of {:?}", engine.name(), probe
                );
                prop_assert_eq!(
                    engine.closure(&probe), expected_closure.clone(),
                    "{} closure of {:?}", engine.name(), probe
                );
            }
        }
        // Batch counting matches pointwise counting on every backend.
        let candidates: Vec<Itemset> = probes
            .iter()
            .map(|ids| Itemset::from_ids(ids.iter().copied()))
            .collect();
        for engine in &engines {
            let batch = engine.count_candidates(&candidates);
            let pointwise: Vec<u64> =
                candidates.iter().map(|c| engine.support(c)).collect();
            prop_assert_eq!(batch, pointwise, "{} batch", engine.name());
        }
    }

    #[test]
    fn cached_engine_is_transparent(
        rows in vec(vec(0u32..10, 0..6), 1..10),
        probe_ids in vec(0u32..10, 0..5),
    ) {
        // Wrapping any backend in the closure cache never changes an
        // answer, and re-asking is a hit.
        let db = Arc::new(TransactionDb::from_rows(rows));
        let probe = Itemset::from_ids(probe_ids);
        for kind in EngineKind::BACKENDS {
            let plain = kind.build(&db);
            let cached = CachedEngine::new(kind.build(&db));
            prop_assert_eq!(cached.closure(&probe), plain.closure(&probe));
            prop_assert_eq!(cached.support(&probe), plain.support(&probe));
            let before = cached.cache_stats();
            prop_assert_eq!(before.hits, 0);
            let _ = cached.closure(&probe);
            prop_assert_eq!(cached.cache_stats().hits, 1);
        }
    }

    // ---- Galois connection ----------------------------------------------

    #[test]
    fn galois_connection_laws(rows in vec(vec(0u32..8, 0..6), 1..10), a in vec(0u32..8, 0..4)) {
        let ctx = MiningContext::new(TransactionDb::from_rows(rows));
        let x = Itemset::from_ids(a.into_iter().filter(|&i| (i as usize) < ctx.n_items()));

        // g is antitone: X ⊆ h(X) ⇒ g(h(X)) = g(X).
        let gx = ctx.extent(&x);
        let hx = ctx.closure(&x);
        prop_assert_eq!(&ctx.extent(&hx), &gx);

        // f∘g and g∘f are closures on their sides: intent(extent(·))
        // is idempotent.
        let fgx = ctx.intent(&gx);
        prop_assert_eq!(&fgx, &hx);
        prop_assert_eq!(ctx.closure(&fgx), fgx.clone());

        // Support equals extent size.
        prop_assert_eq!(ctx.support(&x), gx.count() as u64);
    }

    // ---- Streaming deltas -----------------------------------------------

    #[test]
    fn delta_application_matches_fresh_build(
        base in vec(vec(0u32..12, 0..7), 0..60),
        batches in vec(vec(vec(0u32..14, 0..7), 0..40), 1..4),
        probes in vec(vec(0u32..16, 0..5), 1..6),
    ) {
        // Applying append deltas in place must be indistinguishable from
        // rebuilding the engine on the grown database — for every
        // backend, and for the cached wrapper (which must invalidate
        // exactly the stale closure classes).
        // Batch ids range past the base universe so appends grow it.
        let mut db = TransactionDb::from_rows(base);
        let shared = Arc::new(db.clone());
        let mut engines: Vec<Box<dyn DeltaSupportEngine>> = vec![
            Box::new(DenseEngine::from_horizontal(&shared)),
            Box::new(TidListEngine::from_horizontal(&shared)),
            Box::new(CachedEngine::new(EngineKind::Auto.build(&shared))),
        ];
        // Warm the cached engine so stale entries exist to invalidate.
        for ids in &probes {
            let _ = engines[2].closure(&Itemset::from_ids(ids.iter().copied()));
        }
        for batch in batches {
            let info = db.append_rows(batch).unwrap();
            let grown = Arc::new(db.clone());
            let delta = TxDelta::new(grown.clone(), info);
            let reference = DenseEngine::from_horizontal(&grown);
            for engine in &mut engines {
                engine.apply_delta(&delta).unwrap();
                prop_assert_eq!(engine.epoch(), info.epoch, "{} epoch", engine.name());
                prop_assert_eq!(engine.n_objects(), reference.n_objects());
                prop_assert_eq!(engine.n_items(), reference.n_items(), "{}", engine.name());
                prop_assert_eq!(
                    engine.item_supports(),
                    reference.item_supports(),
                    "{} item supports after delta", engine.name()
                );
                for ids in &probes {
                    let probe = Itemset::from_ids(ids.iter().copied());
                    prop_assert_eq!(
                        engine.support(&probe), reference.support(&probe),
                        "{} support of {:?} after delta", engine.name(), probe
                    );
                    prop_assert_eq!(
                        engine.tidset_of(&probe), reference.tidset_of(&probe),
                        "{} tidset of {:?} after delta", engine.name(), probe
                    );
                    prop_assert_eq!(
                        engine.closure_and_support(&probe),
                        reference.closure_and_support(&probe),
                        "{} closure of {:?} after delta", engine.name(), probe
                    );
                }
            }
        }
    }

    #[test]
    fn expiry_application_matches_fresh_build(
        base in vec(vec(0u32..12, 0..7), 1..60),
        batches in vec(vec(vec(0u32..14, 0..7), 0..30), 1..4),
        expire_fracs in vec(0u32..=100u32, 1..4),
        probes in vec(vec(0u32..16, 0..5), 1..6),
    ) {
        // The removal dual of the property above: absorbing an expiry
        // delta in place must be indistinguishable from rebuilding the
        // engine on the shrunk database — for every backend, and for the
        // cached wrapper (which must evict exactly the closure classes
        // some expired row witnessed). Appends interleave so the stream mixes
        // both delta kinds, including expiring rows appended moments
        // before.
        let mut db = TransactionDb::from_rows(base);
        let shared = Arc::new(db.clone());
        let mut engines: Vec<Box<dyn DeltaSupportEngine>> = vec![
            Box::new(DenseEngine::from_horizontal(&shared)),
            Box::new(TidListEngine::from_horizontal(&shared)),
            Box::new(CachedEngine::new(EngineKind::Auto.build(&shared))),
        ];
        // Warm the cached engine so stale entries exist to evict.
        for ids in &probes {
            let _ = engines[2].closure(&Itemset::from_ids(ids.iter().copied()));
        }
        for (round, batch) in batches.into_iter().enumerate() {
            let info = db.append_rows(batch).unwrap();
            let delta = TxDelta::new(Arc::new(db.clone()), info);
            for engine in &mut engines {
                engine.apply_delta(&delta).unwrap();
            }
            let frac = expire_fracs[round % expire_fracs.len()] as usize;
            let rows = db.n_transactions() * frac / 100;
            let prior = Arc::new(db.clone());
            let einfo = db.expire_rows(rows);
            let shrunk = Arc::new(db.clone());
            let delta = TxDelta::expire(prior, shrunk.clone(), einfo);
            let reference = DenseEngine::from_horizontal(&shrunk);
            for engine in &mut engines {
                engine.apply_delta(&delta).unwrap();
                prop_assert_eq!(engine.epoch(), einfo.epoch, "{} epoch", engine.name());
                prop_assert_eq!(engine.n_objects(), reference.n_objects(), "{}", engine.name());
                prop_assert_eq!(
                    engine.item_supports(),
                    reference.item_supports(),
                    "{} item supports after expiry", engine.name()
                );
                for ids in &probes {
                    let probe = Itemset::from_ids(ids.iter().copied());
                    prop_assert_eq!(
                        engine.support(&probe), reference.support(&probe),
                        "{} support of {:?} after expiry", engine.name(), probe
                    );
                    prop_assert_eq!(
                        engine.tidset_of(&probe), reference.tidset_of(&probe),
                        "{} tidset of {:?} after expiry", engine.name(), probe
                    );
                    prop_assert_eq!(
                        engine.closure_and_support(&probe),
                        reference.closure_and_support(&probe),
                        "{} closure of {:?} after expiry", engine.name(), probe
                    );
                }
            }
        }
    }
}

// The segmented-store equivalence property: cases are capped explicitly
// (and by `PROPTEST_CASES`) because every case builds engines at every
// epoch over every backend.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pinned_snapshots_survive_appends_bit_for_bit(
        base in vec(vec(0u32..12, 0..7), 0..70),
        batches in vec(vec(vec(0u32..15, 0..7), 0..30), 1..4),
        probes in vec(vec(0u32..16, 0..4), 1..5),
    ) {
        // The aliasing contract of the segmented row store: a snapshot
        // (cheap clone) pinned by a live engine at epoch `e` must answer
        // every query exactly as the pre-segmented cloned-CSR store did —
        // it reads the first `n_e` rows and nothing else — across any
        // number of later appends to the parent view, including
        // universe-growing ones, over every backend.
        /// One pinned epoch: row count, universe size, the snapshot, and
        /// the engine grid built over it.
        type PinnedEpoch = (usize, usize, Arc<TransactionDb>, Vec<Arc<dyn SupportEngine>>);
        let mut db = TransactionDb::from_rows(base);
        // One pinned snapshot + engine grid per epoch.
        let mut pinned: Vec<PinnedEpoch> = Vec::new();
        let pin = |db: &TransactionDb, pinned: &mut Vec<PinnedEpoch>| {
            let snap = Arc::new(db.clone());
            let engines: Vec<Arc<dyn SupportEngine>> = EngineKind::BACKENDS
                .iter()
                .map(|kind| kind.build(&snap))
                .collect();
            pinned.push((db.n_transactions(), db.n_items(), snap, engines));
        };
        pin(&db, &mut pinned);
        let mut all_rows: Vec<Vec<u32>> = db.iter()
            .map(|r| r.iter().map(|i| i.id()).collect())
            .collect();
        for batch in batches {
            all_rows.extend(batch.iter().cloned());
            db.append_rows(batch).unwrap();
            pin(&db, &mut pinned);
        }
        // Every pinned epoch still answers like a freshly built database
        // over exactly its prefix.
        for (n_rows, n_items, snap, engines) in &pinned {
            let fresh = TransactionDb::from_rows(all_rows[..*n_rows].to_vec());
            prop_assert_eq!(snap.n_transactions(), *n_rows);
            prop_assert_eq!(snap.n_items(), *n_items);
            for t in 0..*n_rows {
                prop_assert_eq!(snap.transaction(t), fresh.transaction(t), "row {}", t);
            }
            let reference = DenseEngine::from_horizontal(&Arc::new(fresh));
            for engine in engines {
                prop_assert_eq!(engine.n_objects(), *n_rows, "{}", engine.name());
                prop_assert_eq!(
                    engine.item_supports(),
                    reference.item_supports(),
                    "{} item supports at epoch of {} rows", engine.name(), n_rows
                );
                for ids in &probes {
                    let probe = Itemset::from_ids(ids.iter().copied());
                    prop_assert_eq!(
                        engine.support(&probe), reference.support(&probe),
                        "{} support of {:?}", engine.name(), probe
                    );
                    prop_assert_eq!(
                        engine.tidset_of(&probe), reference.tidset_of(&probe),
                        "{} tidset of {:?}", engine.name(), probe
                    );
                    prop_assert_eq!(
                        engine.closure_and_support(&probe),
                        reference.closure_and_support(&probe),
                        "{} closure of {:?}", engine.name(), probe
                    );
                }
            }
        }
        // And the grown view shares every pre-append segment with every
        // pinned snapshot (zero-copy appends, observable).
        let final_addrs = db.segment_addrs();
        for (_, _, snap, _) in &pinned {
            let addrs = snap.segment_addrs();
            prop_assert_eq!(&final_addrs[..addrs.len()], &addrs[..]);
        }
    }
}

/// The CI-run streaming cost pin at the engine layer: a 1-row append
/// against a 4096-row prefix copies a constant-bounded number of row
/// bytes — the same number a 512-row prefix pays — and a universe-growing
/// append rewrites no existing segment.
#[test]
fn delta_bytes_are_batch_sized_not_prefix_sized() {
    let prefix_rows =
        |n: usize| -> Vec<Vec<u32>> { (0..n as u32).map(|t| vec![t % 5, 5 + t % 3]).collect() };
    let mut copied_per_prefix = Vec::new();
    for prefix in [512usize, 4096] {
        let mut db = TransactionDb::from_rows(prefix_rows(prefix));
        let shared = Arc::new(db.clone());
        let mut engine = DenseEngine::from_horizontal(&shared);
        assert_eq!(engine.cache_stats().bytes_copied, 0, "no deltas yet");
        let info = db.append_rows(vec![vec![1, 6]]).unwrap();
        engine
            .apply_delta(&TxDelta::new(Arc::new(db.clone()), info))
            .unwrap();
        let copied = engine.cache_stats().bytes_copied;
        assert!(copied > 0);
        assert!(
            copied < 128,
            "1-row append against {prefix} rows copied {copied} bytes"
        );
        copied_per_prefix.push(copied);
    }
    // Prefix-independence, literally: the same 1-row batch costs the
    // same bytes against a 512-row and a 4096-row prefix.
    assert_eq!(copied_per_prefix[0], copied_per_prefix[1]);
}

/// A universe-growing append must not rewrite existing segments: the
/// engines widen their universe in place and the storage addresses of
/// every pre-append segment survive.
#[test]
fn universe_growth_rewrites_no_segment() {
    let rows: Vec<Vec<u32>> = (0..512u32).map(|t| vec![t % 7]).collect();
    let seed = TransactionDb::from_rows(rows);
    let shared = Arc::new(seed.clone());
    let engines: Vec<Box<dyn DeltaSupportEngine>> = vec![
        Box::new(DenseEngine::from_horizontal(&shared)),
        Box::new(TidListEngine::from_horizontal(&shared)),
    ];
    for mut engine in engines {
        let mut db = seed.clone();
        let before_addrs = db.segment_addrs();
        // Item 99 grows the universe from 7 to 100 items.
        let info = db.append_rows(vec![vec![99]]).unwrap();
        let grown = Arc::new(db.clone());
        engine.apply_delta(&TxDelta::new(grown, info)).unwrap();
        assert_eq!(engine.n_items(), 100, "{}", engine.name());
        // Every pre-append segment survives by identity; one new segment.
        let after_addrs = db.segment_addrs();
        assert_eq!(&after_addrs[..before_addrs.len()], &before_addrs[..]);
        assert_eq!(after_addrs.len(), before_addrs.len() + 1);
        // Only the appended row was charged.
        let copied = engine.cache_stats().bytes_copied;
        assert!(
            copied < 128,
            "{}: universe-growing 1-row append copied {copied} bytes",
            engine.name()
        );
        // The engine still answers over the widened universe.
        assert_eq!(engine.support(&Itemset::from_ids([99])), 1);
        assert_eq!(engine.support(&Itemset::from_ids([1])), 73);
    }
}

/// The rows of `db` holding every item of `x`, by a scan of the rows.
fn scan_extent(db: &TransactionDb, x: &Itemset) -> BitSet {
    BitSet::from_indices(
        db.n_transactions(),
        db.iter()
            .enumerate()
            .filter(|(_, row)| x.iter().all(|item| row.contains(&item)))
            .map(|(t, _)| t),
    )
}

/// The items every row of `tids` holds, by a scan of the rows: the
/// universe for no rows.
fn scan_intent(db: &TransactionDb, tids: &BitSet) -> Itemset {
    Itemset::from_ids((0..db.n_items() as u32).filter(|&id| {
        tids.iter()
            .all(|t| db.transaction(t).contains(&Item::new(id)))
    }))
}

/// `close_candidates` as the consistency contract spells it out, with no
/// engine: the extent, its size and its intent per candidate, kept at
/// `min_count`.
fn close_reference<'c>(
    db: &TransactionDb,
    candidates: &'c [Itemset],
    min_count: u64,
) -> Vec<(&'c Itemset, Itemset, u64)> {
    candidates
        .iter()
        .filter_map(|c| {
            let extent = scan_extent(db, c);
            let support = extent.count() as u64;
            (support >= min_count).then(|| (c, scan_intent(db, &extent), support))
        })
        .collect()
}

fn all_pairs(items: u32) -> Vec<Itemset> {
    (0..items)
        .flat_map(|a| (a + 1..items).map(move |b| Itemset::from_ids([a, b])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---- Close's level step ---------------------------------------------

    #[test]
    fn close_candidates_equal_the_per_candidate_reference(
        short_rows in vec(vec(0u32..24, 0..4), 200..400),
        drops in vec(vec(0u32..12, 0..3), 2..12),
        extras in vec(vec(0u32..30, 0..4), 0..8),
        threshold in 0u64..6,
    ) {
        // Both sides of the pair-pass rule and of the dense closure rule,
        // on both backends, against a scan of the rows. Sparse side: many
        // short rows (some empty) and the full pair level over 24 items
        // plus a pair past the universe — both backends count it in one
        // pass, and dense bitsets merge the rows of every pair's extent.
        // Dense side: few long rows, each the 12-item universe minus at
        // most two items — dense bitsets keep the per-candidate path on
        // the full pair level, tid-lists on a narrow one, and dense
        // bitsets close every extent of two rows or more by cover tests.
        // Mixed batches (∅, singletons, triples, items past the universe)
        // and the empty batch never take the pass. Thresholds run from 0
        // to past |O|.
        let sparse = Arc::new(TransactionDb::from_rows(short_rows));
        let dense = Arc::new(TransactionDb::from_rows(
            drops
                .iter()
                .map(|d| (0..12).filter(|i| !d.contains(i)).collect())
                .collect(),
        ));
        let mut wide = all_pairs(24);
        wide.push(Itemset::from_ids([5, 27]));
        let narrow = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([2, 7])];
        let mut mixed = vec![Itemset::empty(), Itemset::from_ids([3])];
        mixed.extend(extras.into_iter().map(Itemset::from_ids));

        prop_assert!(DenseEngine::from_horizontal(&sparse).takes_pair_pass(&wide));
        prop_assert!(TidListEngine::from_horizontal(&sparse).takes_pair_pass(&wide));
        prop_assert!(!DenseEngine::from_horizontal(&dense).takes_pair_pass(&all_pairs(12)));
        prop_assert!(!TidListEngine::from_horizontal(&dense).takes_pair_pass(&narrow));
        prop_assert!(!DenseEngine::from_horizontal(&sparse).takes_pair_pass(&mixed));
        let by_rows = DenseEngine::from_horizontal(&sparse);
        for pair in wide.iter().filter(|pair| by_rows.support(pair) > 0) {
            prop_assert!(!by_rows.takes_cover_tests(pair), "{:?} by covers", pair);
        }
        let by_covers = DenseEngine::from_horizontal(&dense);
        prop_assert!(by_covers.takes_cover_tests(&Itemset::empty()));
        for pair in all_pairs(12).iter().filter(|pair| by_covers.support(pair) >= 2) {
            prop_assert!(by_covers.takes_cover_tests(pair), "{:?} by rows", pair);
        }

        let cases = [
            (&sparse, vec![wide, mixed.clone(), Vec::new()]),
            (&dense, vec![all_pairs(12), narrow, mixed]),
        ];
        for (db, batches) in cases {
            let n = db.n_transactions();
            let universe = Itemset::universe(db.n_items());
            for kind in EngineKind::BACKENDS {
                let engine = kind.build(db);
                let cached = CachedEngine::new(kind.build(db));
                prop_assert_eq!(engine.closure_of_tidset(&BitSet::new(n)), universe.clone());
                prop_assert_eq!(
                    engine.closure_of_tidset(&BitSet::full(n)),
                    scan_intent(db, &BitSet::full(n)),
                    "{} intent of every row", kind
                );
                for batch in &batches {
                    for min_count in [0, threshold, n as u64 / 4, n as u64 + 1] {
                        let expected = close_reference(db, batch, min_count);
                        prop_assert_eq!(
                            &engine.close_candidates(batch, min_count), &expected,
                            "{} at {}", kind, min_count
                        );
                        prop_assert_eq!(
                            &cached.close_candidates(batch, min_count), &expected,
                            "cached {} at {}", kind, min_count
                        );
                    }
                    for c in batch {
                        let extent = scan_extent(db, c);
                        let closure = scan_intent(db, &extent);
                        let support = extent.count() as u64;
                        prop_assert_eq!(
                            engine.closure_and_support(c), (closure.clone(), support),
                            "{} closure of {:?}", kind, c
                        );
                        prop_assert_eq!(
                            engine.closure_of_tidset(&extent), closure,
                            "{} intent of the extent of {:?}", kind, c
                        );
                    }
                    let pointwise: Vec<u64> = batch.iter().map(|c| engine.support(c)).collect();
                    prop_assert_eq!(engine.count_candidates(batch), pointwise, "{} batch", kind);
                }
            }
        }
    }
}
