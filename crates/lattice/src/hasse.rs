//! Hasse-diagram (covering relation) construction.
//!
//! The transitive reduction of the frequent-closed-itemset order is what
//! Theorem 2 reduces the Luxenburger basis to. A closed family has one
//! construction, [`upper_covers_by_pairs`], which works from the sets
//! alone and serves both pipelines through
//! [`IcebergLattice::from_closed`](crate::IcebergLattice::from_closed);
//! a streaming session's diagram is maintained by
//! [`IncrementalLattice`](crate::IncrementalLattice) instead.
//! [`verify_covers`] is the reference both are tested against: it checks
//! a covering relation against the subset order directly.

use rulebases_dataset::{Itemset, Support};

/// Computes, for each closed set, the indices of its **upper covers**
/// (immediate successors in the subset order) from the sets alone.
///
/// `sets` must be in canonical order (size, then lexicographic), as
/// produced by [`ClosedItemsets::iter`]. Runs in `O(n² · w)` where `w`
/// is the itemset width — fine up to tens of thousands of closed sets.
///
/// [`ClosedItemsets::iter`]: rulebases_mining::ClosedItemsets::iter
pub fn upper_covers_by_pairs(sets: &[(Itemset, Support)]) -> Vec<Vec<usize>> {
    debug_assert!(sets.windows(2).all(|w| w[0].0 < w[1].0), "not canonical");
    let n = sets.len();
    let mut upper = vec![Vec::new(); n];
    for i in 0..n {
        let x = &sets[i].0;
        let covers: &mut Vec<usize> = &mut upper[i];
        // Visit supersets in increasing size: any chain witness below a
        // candidate has already been recorded as a cover.
        for (j, (y, _)) in sets.iter().enumerate().skip(i + 1) {
            if y.len() <= x.len() || !x.is_proper_subset_of(y) {
                continue;
            }
            let dominated = covers.iter().any(|&k| sets[k].0.is_subset_of(y));
            if !dominated {
                covers.push(j);
            }
        }
    }
    upper
}

/// Checks that `upper` is exactly the covering relation of `sets`:
/// every edge joins a set to a minimal proper superset, and every
/// comparable pair is connected by some path. Used by tests; `O(n³)`.
pub fn verify_covers(sets: &[(Itemset, Support)], upper: &[Vec<usize>]) -> Result<(), String> {
    let n = sets.len();
    for (i, covers) in upper.iter().enumerate() {
        for &j in covers {
            if !sets[i].0.is_proper_subset_of(&sets[j].0) {
                return Err(format!("edge {i}→{j} is not a proper subset"));
            }
            for (k, (z, _)) in sets.iter().enumerate() {
                if k != i
                    && k != j
                    && sets[i].0.is_proper_subset_of(z)
                    && z.is_proper_subset_of(&sets[j].0)
                {
                    return Err(format!("edge {i}→{j} skips intermediate {k}"));
                }
            }
        }
    }
    // Reachability must coincide with the subset order.
    for i in 0..n {
        let mut seen = vec![false; n];
        let mut stack = vec![i];
        while let Some(v) = stack.pop() {
            for &w in &upper[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        for j in 0..n {
            let subset = i != j && sets[i].0.is_proper_subset_of(&sets[j].0);
            if subset != seen[j] {
                return Err(format!(
                    "reachability {i}→{j} is {} but subset order says {}",
                    seen[j], subset
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::{paper_example, MinSupport, MiningContext};
    use rulebases_mining::{Close, ClosedItemsets, ClosedMiner};

    fn paper_fc() -> ClosedItemsets {
        let ctx = MiningContext::new(paper_example());
        Close::new().mine_closed(&ctx, MinSupport::Count(2))
    }

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn pairs_algorithm_on_paper_example() {
        let fc = paper_fc();
        let sets: Vec<_> = fc.iter().map(|(s, sup)| (s.clone(), sup)).collect();
        let upper = upper_covers_by_pairs(&sets);
        verify_covers(&sets, &upper).unwrap();

        // Lattice: ∅ → C, BE;  C → AC, BCE;  BE → BCE;  AC → ABCE;
        // BCE → ABCE.
        let idx = |ids: &[u32]| fc.position(&set(ids)).unwrap();
        let empty = fc.position(&Itemset::empty()).unwrap();
        assert_eq!(upper[empty], vec![idx(&[3]), idx(&[2, 5])]);
        assert_eq!(upper[idx(&[3])], vec![idx(&[1, 3]), idx(&[2, 3, 5])]);
        assert_eq!(upper[idx(&[2, 5])], vec![idx(&[2, 3, 5])]);
        assert_eq!(upper[idx(&[1, 3])], vec![idx(&[1, 2, 3, 5])]);
        assert_eq!(upper[idx(&[2, 3, 5])], vec![idx(&[1, 2, 3, 5])]);
        assert!(upper[idx(&[1, 2, 3, 5])].is_empty());
    }

    #[test]
    fn verify_rejects_transitive_edge() {
        let sets = vec![(Itemset::empty(), 3), (set(&[1]), 2), (set(&[1, 2]), 1)];
        // ∅→{1,2} skips {1}.
        let bad = vec![vec![1, 2], vec![2], vec![]];
        assert!(verify_covers(&sets, &bad).is_err());
    }

    #[test]
    fn verify_rejects_missing_edge() {
        let sets = vec![(Itemset::empty(), 3), (set(&[1]), 2), (set(&[1, 2]), 1)];
        let missing = vec![vec![1], vec![], vec![]];
        assert!(verify_covers(&sets, &missing).is_err());
    }

    #[test]
    fn singleton_lattice() {
        let sets = vec![(set(&[0, 1]), 5)];
        let upper = upper_covers_by_pairs(&sets);
        assert_eq!(upper, vec![Vec::<usize>::new()]);
        verify_covers(&sets, &upper).unwrap();
    }
}
