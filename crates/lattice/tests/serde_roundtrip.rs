//! Serde round-trips for the maintained diagram itself.
//!
//! The crash-safe session checkpoint (the `rulebases` core crate)
//! persists an [`IncrementalLattice`] verbatim — *including* its dead
//! slots: node ids are handed out to callers (bases maintenance keys
//! its maps by them) and are never recycled, so a restore that
//! compacted tombstones away would silently re-key the whole session.
//! These properties pin the wire form at the lattice level: everything
//! observable survives a round-trip (intents, supports, covers, dead
//! slots, generator tags, lifetime counters), the rendering is
//! canonical, and a restored lattice keeps allocating
//! fresh ids — never a freed one.

use proptest::collection::vec;
use proptest::prelude::*;
use rulebases_dataset::Itemset;
use rulebases_lattice::IncrementalLattice;

/// Builds a lattice by inserting every row and then removing the chosen
/// victims again — removals splice nodes out and leave the tombstoned
/// slots the round-trip must preserve.
fn build(rows: &[Vec<u32>], remove: &[usize]) -> IncrementalLattice {
    let mut inc = IncrementalLattice::new();
    let mut present: Vec<Itemset> = Vec::new();
    for row in rows {
        let row = Itemset::from_ids(row.iter().copied());
        inc.insert_object(&row);
        present.push(row);
    }
    // Each victim index removes one still-present object (an index may
    // repeat and distinct rows may be equal, so this is multiset pop).
    for &victim in remove {
        if present.is_empty() {
            break;
        }
        let row = present.swap_remove(victim % present.len());
        inc.remove_object(&row);
    }
    inc
}

/// Everything [`IncrementalLattice`] exposes, flattened for comparison.
#[allow(clippy::type_complexity)]
fn observe(
    lat: &IncrementalLattice,
) -> Vec<(
    bool,
    Option<(Itemset, u64, Vec<usize>, Vec<usize>, Vec<Itemset>)>,
)> {
    (0..lat.n_nodes())
        .map(|id| {
            let live = lat.is_live(id);
            let detail = live.then(|| {
                let (intent, support) = lat.node(id);
                (
                    intent.clone(),
                    support,
                    lat.upper_covers(id).to_vec(),
                    lat.lower_covers(id).to_vec(),
                    lat.generator_tags(id).to_vec(),
                )
            });
            (live, detail)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_trip_preserves_every_slot_tag_and_counter(
        rows in vec(vec(0u32..8, 0..5), 1..14),
        remove in vec(0usize..14, 0..6),
    ) {
        let lat = build(&rows, &remove);

        let json = serde_json::to_string(&lat).unwrap();
        let back: IncrementalLattice = serde_json::from_str(&json).unwrap();

        // The rendering is canonical: re-serializing the restored
        // lattice reproduces the document byte for byte.
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // Every observable — dead slots included — survives.
        prop_assert_eq!(observe(&back), observe(&lat));
        prop_assert_eq!(back.n_nodes(), lat.n_nodes());
        prop_assert_eq!(back.n_edges(), lat.n_edges());
        prop_assert_eq!(back.gen_stats(), lat.gen_stats());
    }

    #[test]
    fn restored_lattices_never_recycle_freed_ids(
        rows in vec(vec(0u32..8, 1..5), 2..14),
        remove in vec(0usize..14, 1..6),
        extra in vec(vec(0u32..8, 1..5), 1..4),
    ) {
        let lat = build(&rows, &remove);
        let dead: Vec<usize> = (0..lat.n_nodes()).filter(|&id| !lat.is_live(id)).collect();

        let json = serde_json::to_string(&lat).unwrap();
        let mut back: IncrementalLattice = serde_json::from_str(&json).unwrap();
        let mut twin = lat;

        // Growth after a restore is indistinguishable from growth of
        // the original — same new ids, same diagram — and a tombstoned
        // slot stays tombstoned forever.
        for row in &extra {
            let row = Itemset::from_ids(row.iter().copied());
            prop_assert_eq!(back.insert_object(&row), twin.insert_object(&row));
        }
        prop_assert_eq!(observe(&back), observe(&twin));
        for id in dead {
            prop_assert!(!back.is_live(id), "freed id {} was recycled", id);
        }
    }
}

/// Item `k` of a small vocabulary as an id spread across three 64-bit
/// words (the packed intents a restore must rebuild are that wide).
fn wide(row: &[u32]) -> Vec<u32> {
    row.iter().map(|&k| k * 29 + k % 3).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn restored_wide_lattices_index_and_evolve_like_their_twin(
        rows in vec(vec(0u32..8, 1..5), 2..12),
        remove in vec(0usize..12, 0..5),
        more in vec((vec(0u32..8, 0..5), 0usize..2), 1..6),
    ) {
        let rows: Vec<Vec<u32>> = rows.iter().map(|row| wide(row)).collect();
        let lat = build(&rows, &remove);
        let mut back: IncrementalLattice =
            serde_json::from_str(&serde_json::to_string(&lat).unwrap()).unwrap();

        // The restore packs the intents again: every live one is found.
        for id in (0..back.n_nodes()).filter(|&id| back.is_live(id)) {
            prop_assert_eq!(back.position(back.node(id).0), Some(id));
        }

        // Further inserts and removes (a removal takes the oldest row
        // still present) move both copies identically, delta for delta.
        let mut twin = lat;
        let mut present: Vec<Itemset> = Vec::new();
        for (row, drop_oldest) in &more {
            let row = Itemset::from_ids(wide(row));
            let (a, b) = (back.insert_object_delta(&row), twin.insert_object_delta(&row));
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            present.push(row);
            if *drop_oldest == 1 {
                let victim = present.remove(0);
                let (a, b) = (back.remove_object_delta(&victim), twin.remove_object_delta(&victim));
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            prop_assert_eq!(observe(&back), observe(&twin));
        }
        prop_assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&twin).unwrap()
        );
    }
}

#[test]
fn corrupt_documents_are_rejected_not_panicked() {
    let lat = build(&[vec![0, 1], vec![1, 2]], &[]);
    let json = serde_json::to_string(&lat).unwrap();

    // Truncations at a few structural boundaries: typed errors with a
    // position, never a panic or a half-built lattice.
    for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
        let err = serde_json::from_str::<IncrementalLattice>(&json[..cut]).unwrap_err();
        assert!(err.to_string().contains("byte"), "cut {cut}: {err}");
    }

    // An internally inconsistent document (cover edge pointing at a
    // dead slot) is rejected by the wire validation.
    let broken = json.replace("\"alive\":[true", "\"alive\":[false");
    assert!(serde_json::from_str::<IncrementalLattice>(&broken).is_err());

    // Intents out of order are rejected before anything is packed. The
    // first two put the widest id first, so a width read off the last
    // id would be too narrow to pack them (the second is the largest
    // `u32`); the third repeats an id.
    for intent in ["[200,1]", "[4294967295,1]", "[1,1]"] {
        let unsorted = json.replacen("[[0,1],1]", &format!("[{intent},1]"), 1);
        let err = serde_json::from_str::<IncrementalLattice>(&unsorted).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{intent}: {err}");
    }

    // Every cover edge must go up the diagram. `{1,2}` with support 9
    // above `{1}` with support 2 would yield a rule whose support
    // exceeds its antecedent's, and with support 2 an exact rule among
    // the approximate ones; `{0}` above `{1}` is no superset.
    for (node, corrupt) in [
        ("[[1,2],1]", "[[1,2],9]"),
        ("[[1,2],1]", "[[1,2],2]"),
        ("[[0,1],1]", "[[0],1]"),
    ] {
        assert_eq!(json.matches(node).count(), 1, "{json}");
        let bad = json.replacen(node, corrupt, 1);
        let err = serde_json::from_str::<IncrementalLattice>(&bad).unwrap_err();
        assert!(
            err.to_string().contains("strict superset"),
            "{corrupt}: {err}"
        );
    }
}
