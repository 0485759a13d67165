//! Streaming emission of closed itemsets.
//!
//! The staged pipeline mines all closed sets into a [`ClosedItemsets`]
//! container, then rebuilds the iceberg Hasse diagram from scratch, then
//! derives the rule bases in a third pass — three traversals over the
//! same lattice. [`ClosedSink`] decouples *discovery* from *collection*:
//! every closed miner can push each `(closed set, support)` it proves
//! into a sink as it is found, so a consumer (e.g. the fused pipeline's
//! collector of `FC` and its generators) gathers everything it needs
//! during the single mining traversal instead of re-walking it
//! afterwards.
//!
//! Contract:
//!
//! * A miner may emit the **same closed set more than once** (Close
//!   reaches one closure from several generators); re-emissions always
//!   carry the same support, and sinks deduplicate.
//! * Every emitted set is genuinely closed and frequent at the mining
//!   threshold — miners that can only prove closedness globally (CHARM's
//!   subsumption check) buffer internally and flush once settled, rather
//!   than stream retractions.
//! * Emission order is unspecified; sinks must not rely on it.
//! * `generator` optionally names a minimal generator of the emitted
//!   closed set (a minimal itemset with the same closure) when the
//!   traversal has one at hand — the levelwise miners work generator-wise
//!   and tag for free, CHARM's IT-tree does not and passes `None`.
//!   Downstream, the fused pipeline's sink records these miner-proven
//!   generators per closed set (subsumption-minimal recording, no
//!   recomputation), so it never derives a generator the miner already
//!   proved.

use crate::itemsets::ClosedItemsets;
use rulebases_dataset::{Itemset, Support};

/// Receives closed itemsets as a miner discovers them.
pub trait ClosedSink {
    /// Observes one discovered frequent closed itemset (possibly a
    /// duplicate of an earlier emission, always with the same support),
    /// together with the minimal generator that produced it when the
    /// miner knows one.
    fn accept(&mut self, set: &Itemset, support: Support, generator: Option<&Itemset>);
}

/// The trivial sink: collects every emission into a vector, from which
/// [`CollectSink::into_closed`] builds the deduplicated, canonically
/// sorted [`ClosedItemsets`]. The buffered `mine_engine` entry points are
/// implemented as `mine_engine_sink` over this sink.
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    pairs: Vec<(Itemset, Support)>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the collected emissions into a [`ClosedItemsets`].
    pub fn into_closed(self, min_count: Support, n_objects: usize) -> ClosedItemsets {
        ClosedItemsets::from_pairs(self.pairs, min_count, n_objects)
    }
}

impl ClosedSink for CollectSink {
    fn accept(&mut self, set: &Itemset, support: Support, _generator: Option<&Itemset>) {
        self.pairs.push((set.clone(), support));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn collect_sink_dedups_and_sorts() {
        let mut sink = CollectSink::new();
        sink.accept(&set(&[2, 5]), 4, None);
        sink.accept(&set(&[3]), 4, Some(&set(&[3])));
        sink.accept(&set(&[2, 5]), 4, Some(&set(&[2])));
        let fc = sink.into_closed(2, 5);
        assert_eq!(fc.len(), 2);
        let sets: Vec<Itemset> = fc.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(sets, vec![set(&[3]), set(&[2, 5])]);
    }
}
