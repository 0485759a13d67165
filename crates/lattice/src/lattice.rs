//! The iceberg lattice of frequent closed itemsets.
//!
//! [`IcebergLattice`] materializes the order `(FC, ⊆)` with its covering
//! relation (Hasse diagram). The *transitive reduction* of the Luxenburger
//! basis (Theorem 2) is exactly the edge set of this diagram, and
//! confidence derivation for approximate rules telescopes along its paths.
//!
//! It is built one way from a closed family,
//! [`IcebergLattice::from_closed`] (both pipelines), and one way from a
//! maintained diagram,
//! [`IncrementalLattice::snapshot`](crate::IncrementalLattice::snapshot)
//! (streaming sessions).

use crate::hasse::upper_covers_by_pairs;
use rulebases_dataset::{Itemset, Support};
use rulebases_mining::ClosedItemsets;
use std::collections::HashMap;
use std::collections::VecDeque;

/// The frequent-closed-itemset lattice with its Hasse diagram.
///
/// Nodes are stored in canonical order (size, then lexicographic), which
/// is a topological order from the bottom element upward.
#[derive(Clone, Debug)]
pub struct IcebergLattice {
    nodes: Vec<(Itemset, Support)>,
    index: HashMap<Itemset, usize>,
    upper: Vec<Vec<usize>>,
    lower: Vec<Vec<usize>>,
}

impl IcebergLattice {
    /// Builds the lattice from the closed sets alone (pairwise cover
    /// computation), with its nodes in `fc`'s canonical order.
    pub fn from_closed(fc: &ClosedItemsets) -> Self {
        let nodes: Vec<_> = fc.iter().map(|(s, sup)| (s.clone(), sup)).collect();
        let upper = upper_covers_by_pairs(&nodes);
        Self::assemble(nodes, upper)
    }

    /// Assembles a lattice from canonically ordered nodes and their upper
    /// covers (shared with [`IncrementalLattice::snapshot`], which
    /// re-sorts its arrival-order nodes before calling in).
    ///
    /// [`IncrementalLattice::snapshot`]: crate::IncrementalLattice::snapshot
    pub(crate) fn assemble(nodes: Vec<(Itemset, Support)>, upper: Vec<Vec<usize>>) -> Self {
        let mut lower = vec![Vec::new(); nodes.len()];
        for (i, covers) in upper.iter().enumerate() {
            for &j in covers {
                lower[j].push(i);
            }
        }
        let index = nodes
            .iter()
            .enumerate()
            .map(|(i, (s, _))| (s.clone(), i))
            .collect();
        IcebergLattice {
            nodes,
            index,
            upper,
            lower,
        }
    }

    /// Number of nodes `|FC|`.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of Hasse edges (= size of the reduced Luxenburger basis
    /// before the confidence filter).
    pub fn n_edges(&self) -> usize {
        self.upper.iter().map(Vec::len).sum()
    }

    /// The `i`-th node.
    pub fn node(&self, i: usize) -> (&Itemset, Support) {
        let (s, sup) = &self.nodes[i];
        (s, *sup)
    }

    /// Index of a closed itemset.
    pub fn position(&self, set: &Itemset) -> Option<usize> {
        self.index.get(set).copied()
    }

    /// Indices of the immediate successors (upper covers) of node `i`.
    pub fn upper_covers(&self, i: usize) -> &[usize] {
        &self.upper[i]
    }

    /// Indices of the immediate predecessors (lower covers) of node `i`,
    /// ascending.
    pub fn lower_covers(&self, i: usize) -> &[usize] {
        &self.lower[i]
    }

    /// The bottom element `h(∅)` — the unique minimum.
    pub fn bottom(&self) -> usize {
        debug_assert!(
            self.nodes
                .iter()
                .skip(1)
                .all(|(s, _)| self.nodes[0].0.is_subset_of(s)),
            "node 0 is not the bottom"
        );
        0
    }

    /// Indices of the maximal nodes (no upper cover) — the maximal
    /// frequent (closed) itemsets.
    pub fn maximal(&self) -> Vec<usize> {
        (0..self.n_nodes())
            .filter(|&i| self.upper[i].is_empty())
            .collect()
    }

    /// Iterates over Hasse edges `(lower, upper)` in node order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.upper
            .iter()
            .enumerate()
            .flat_map(|(i, covers)| covers.iter().map(move |&j| (i, j)))
    }

    /// Whether node `j` is reachable from node `i` along upward edges
    /// (equivalently, `nodes[i] ⊆ nodes[j]`).
    pub fn reachable(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        let mut seen = vec![false; self.n_nodes()];
        let mut stack = vec![i];
        while let Some(v) = stack.pop() {
            for &w in &self.upper[v] {
                if w == j {
                    return true;
                }
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    /// A shortest upward path from `i` to `j` (inclusive of both ends), if
    /// one exists. Used to telescope confidences along the reduced
    /// Luxenburger basis.
    pub fn path(&self, i: usize, j: usize) -> Option<Vec<usize>> {
        if i == j {
            return Some(vec![i]);
        }
        let mut prev: Vec<Option<usize>> = vec![None; self.n_nodes()];
        let mut queue = VecDeque::from([i]);
        while let Some(v) = queue.pop_front() {
            for &w in &self.upper[v] {
                if prev[w].is_none() && w != i {
                    prev[w] = Some(v);
                    if w == j {
                        let mut path = vec![j];
                        let mut cur = j;
                        while let Some(p) = prev[cur] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// All comparable pairs `(i, j)` with `nodes[i] ⊂ nodes[j]` — the full
    /// Luxenburger pair set before the confidence filter.
    pub fn comparable_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..self.n_nodes() {
            // BFS once per node; collect everything reachable.
            let mut seen = vec![false; self.n_nodes()];
            let mut stack = vec![i];
            while let Some(v) = stack.pop() {
                for &w in &self.upper[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                        pairs.push((i, w));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::{paper_example, MinSupport, MiningContext};
    use rulebases_mining::{Close, ClosedMiner};

    fn lattice() -> IcebergLattice {
        let ctx = MiningContext::new(paper_example());
        let fc = Close::new().mine_closed(&ctx, MinSupport::Count(2));
        IcebergLattice::from_closed(&fc)
    }

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn shape_of_paper_lattice() {
        let l = lattice();
        assert_eq!(l.n_nodes(), 6);
        assert_eq!(l.n_edges(), 7);
        assert_eq!(l.bottom(), 0);
        assert_eq!(l.node(0).0, &Itemset::empty());
        let top = l.position(&set(&[1, 2, 3, 5])).unwrap();
        assert_eq!(l.maximal(), vec![top]);
    }

    #[test]
    fn covers_and_reachability() {
        let l = lattice();
        let c = l.position(&set(&[3])).unwrap();
        let ac = l.position(&set(&[1, 3])).unwrap();
        let be = l.position(&set(&[2, 5])).unwrap();
        let bce = l.position(&set(&[2, 3, 5])).unwrap();
        let abce = l.position(&set(&[1, 2, 3, 5])).unwrap();

        assert_eq!(l.upper_covers(c), &[ac, bce]);
        assert_eq!(l.lower_covers(abce), &[ac, bce]);
        assert!(l.reachable(c, abce));
        assert!(l.reachable(be, bce));
        assert!(!l.reachable(be, ac));
        assert!(!l.reachable(abce, c));
        assert!(l.reachable(c, c));
    }

    #[test]
    fn paths_follow_edges() {
        let l = lattice();
        let c = l.position(&set(&[3])).unwrap();
        let abce = l.position(&set(&[1, 2, 3, 5])).unwrap();
        let path = l.path(c, abce).unwrap();
        assert_eq!(path.len(), 3); // C → AC|BCE → ABCE
        assert_eq!(path[0], c);
        assert_eq!(path[2], abce);
        // Each hop is a Hasse edge.
        for w in path.windows(2) {
            assert!(l.upper_covers(w[0]).contains(&w[1]));
        }
        // No path downward.
        assert!(l.path(abce, c).is_none());
        // Trivial path.
        assert_eq!(l.path(c, c), Some(vec![c]));
    }

    #[test]
    fn comparable_pairs_match_subset_order() {
        let l = lattice();
        let pairs = l.comparable_pairs();
        for i in 0..l.n_nodes() {
            for j in 0..l.n_nodes() {
                let subset = i != j && l.node(i).0.is_proper_subset_of(l.node(j).0);
                assert_eq!(
                    pairs.binary_search(&(i, j)).is_ok(),
                    subset,
                    "pair ({i}, {j})"
                );
            }
        }
        // The running example has 12 comparable pairs:
        // 5 above ∅, 3 above C, 1 above AC, 2 above BE, 1 above BCE.
        assert_eq!(pairs.len(), 12);
    }
}
