//! Support-counting strategies for levelwise candidate sets.
//!
//! Interchangeable strategies (benchmarked against each other in the
//! E8 ablation):
//!
//! * [`CountingStrategy::SubsetHash`] — transaction-driven: enumerate the
//!   `k`-subsets of every transaction and look them up in a hash map.
//!   Great for short transactions, catastrophic for long dense rows.
//! * [`CountingStrategy::HashTree`] — transaction-driven with the classic
//!   Apriori hash tree pruning the candidates each transaction visits.
//! * [`CountingStrategy::Vertical`] — candidate-driven through the
//!   context's [`SupportEngine`] batch API
//!   ([`SupportEngine::count_candidates`]): which vertical representation
//!   does the work (dense bitsets or tid-lists) is the engine's choice,
//!   making the backend an independent ablation axis.
//! * [`CountingStrategy::Parallel`] — the vertical batch API over
//!   candidate chunks fanned across scoped threads
//!   ([`parallel_chunks`]): each worker batch-counts a contiguous slice
//!   of the level, and the per-chunk counts concatenate back in
//!   candidate order.
//! * [`CountingStrategy::Auto`] picks per level based on transaction
//!   length, `k`, the level's price (see [`PARALLEL_MIN_WORDS`]), and the
//!   configured [`Parallelism`].
//!
//! [`SupportEngine`]: rulebases_dataset::SupportEngine
//! [`SupportEngine::count_candidates`]: rulebases_dataset::SupportEngine::count_candidates
//! [`parallel_chunks`]: rulebases_dataset::pool::parallel_chunks

use crate::hash_tree::HashTree;
use rulebases_dataset::pool::parallel_chunks;
use rulebases_dataset::{Item, Itemset, MiningContext, Parallelism, Support};
use std::collections::HashMap;

/// The work, in 64-bit words, a candidate level must price above before
/// [`Parallelism::Auto`] fans it over threads. A level of `c` candidates
/// over `|O|` objects prices at `c × ⌈|O|/64⌉` words, one dense cover per
/// candidate (the unit of the engines' pair-pass rule). Below the budget
/// the threads cost more than they save, and on a small box they run
/// beside whatever else is busy: fanning every level of a 2,000-row
/// census mine (levels of at most about 8·10³ words) made it about 1 ms
/// slower on two CPUs, while a 100,000-row basket mine's levels (about
/// 1.5·10⁶ and 1.7·10⁸ words) stay fanned. Shared by the levelwise
/// miners' level steps and Apriori's `Auto` counting.
pub const PARALLEL_MIN_WORDS: u64 = 1 << 18;

/// The threads a level of `candidates` over `n_objects` objects fans
/// over: `Auto`'s count once the level prices above
/// [`PARALLEL_MIN_WORDS`] and one below, `Fixed(n)` its `n` whatever the
/// level (the equivalence tests force the threaded paths on tiny
/// contexts with it), `Off` one.
fn level_threads(parallelism: Parallelism, candidates: usize, n_objects: usize) -> usize {
    let price = candidates as u64 * n_objects.div_ceil(64) as u64;
    match parallelism {
        Parallelism::Auto if price <= PARALLEL_MIN_WORDS => 1,
        _ => parallelism.threads(),
    }
}

/// Which engine counts candidate supports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CountingStrategy {
    /// Choose automatically per level.
    #[default]
    Auto,
    /// Enumerate transaction `k`-subsets into a hash map.
    SubsetHash,
    /// Classic hash-tree counting.
    HashTree,
    /// Candidate-driven counting via the context's vertical engine.
    Vertical,
    /// Vertical batch counting over candidate chunks fanned across
    /// threads.
    Parallel,
}

/// Counts the support of every candidate (all of size `k`) in the
/// context, with the default ([`Parallelism::Auto`]) thread policy.
///
/// Returns the supports in candidate order.
pub fn count_candidates(
    ctx: &MiningContext,
    candidates: &[Itemset],
    k: usize,
    strategy: CountingStrategy,
) -> Vec<Support> {
    count_candidates_with(ctx, candidates, k, strategy, Parallelism::Auto)
}

/// Counts the support of every candidate (all of size `k`) in the
/// context under an explicit thread policy.
///
/// Returns the supports in candidate order.
pub fn count_candidates_with(
    ctx: &MiningContext,
    candidates: &[Itemset],
    k: usize,
    strategy: CountingStrategy,
    parallelism: Parallelism,
) -> Vec<Support> {
    if candidates.is_empty() {
        return Vec::new();
    }
    debug_assert!(candidates.iter().all(|c| c.len() == k));
    match strategy {
        CountingStrategy::Auto => {
            if level_threads(parallelism, candidates.len(), ctx.n_objects()) > 1 {
                return count_parallel(ctx, candidates, parallelism);
            }
            // Subset enumeration costs ~C(avg_len, k) per transaction;
            // vertical costs ~k·|O|/64 words per candidate. Prefer the
            // transaction-driven engines only for short rows and small k.
            let avg_len = ctx.horizontal().avg_transaction_len();
            if k <= 3 && avg_len <= 30.0 {
                count_hash_tree(ctx, candidates, k)
            } else {
                count_vertical(ctx, candidates)
            }
        }
        CountingStrategy::SubsetHash => count_subset_hash(ctx, candidates, k),
        CountingStrategy::HashTree => count_hash_tree(ctx, candidates, k),
        CountingStrategy::Vertical => count_vertical(ctx, candidates),
        CountingStrategy::Parallel => count_parallel(ctx, candidates, parallelism),
    }
}

fn count_vertical(ctx: &MiningContext, candidates: &[Itemset]) -> Vec<Support> {
    ctx.engine().count_candidates(candidates)
}

/// Runs `f` over one candidate level (or generator set) of a context of
/// `n_objects` objects in chunks: under [`Parallelism::Auto`] the chunks
/// fan across threads only when the level prices above
/// [`PARALLEL_MIN_WORDS`], under `Fixed(n)` every level of at least two
/// items fans, and otherwise `f` sees the whole level in one call. `f`
/// answers a chunk in item order — typically through one batch engine
/// query, such as [`SupportEngine::close_candidates`] for Close's level
/// step, whose answers borrow the chunk's frequent candidates. Engines
/// never spawn, so a fanned level spawns once and nothing spawns inside a
/// chunk. Results come back in input order, so the sequential and fanned
/// paths are interchangeable — this one guard is shared by Close's level
/// step and A-Close's closure phase.
///
/// [`SupportEngine::close_candidates`]: rulebases_dataset::SupportEngine::close_candidates
pub fn map_level<'a, T, R, F>(
    parallelism: Parallelism,
    n_objects: usize,
    items: &'a [T],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> Vec<R> + Sync,
{
    let threads = level_threads(parallelism, items.len(), n_objects);
    parallel_chunks(items, threads, f)
}

/// Fans the level over candidate chunks, each batch-counted by the
/// engine on its own scoped thread; degenerates to [`count_vertical`]
/// when the policy is sequential.
fn count_parallel(
    ctx: &MiningContext,
    candidates: &[Itemset],
    parallelism: Parallelism,
) -> Vec<Support> {
    let threads = parallelism.threads();
    if threads <= 1 {
        return count_vertical(ctx, candidates);
    }
    let engine = ctx.engine();
    parallel_chunks(candidates, threads, |chunk| engine.count_candidates(chunk))
}

fn count_hash_tree(ctx: &MiningContext, candidates: &[Itemset], k: usize) -> Vec<Support> {
    let tree = HashTree::build(candidates, k);
    let mut counts = vec![0; candidates.len()];
    for t in ctx.horizontal().iter() {
        tree.count_transaction(t, &mut counts);
    }
    counts
}

fn count_subset_hash(ctx: &MiningContext, candidates: &[Itemset], k: usize) -> Vec<Support> {
    let lookup: HashMap<&[Item], usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_slice(), i))
        .collect();
    let mut counts = vec![0; candidates.len()];
    let mut subset: Vec<Item> = Vec::with_capacity(k);
    for t in ctx.horizontal().iter() {
        if t.len() >= k {
            enumerate_subsets(t, k, &mut subset, &lookup, &mut counts);
        }
    }
    counts
}

/// Recursively enumerates the `k`-subsets of `items`, bumping the count of
/// any subset present in `lookup`.
fn enumerate_subsets(
    items: &[Item],
    k: usize,
    subset: &mut Vec<Item>,
    lookup: &HashMap<&[Item], usize>,
    counts: &mut [Support],
) {
    if subset.len() == k {
        if let Some(&idx) = lookup.get(subset.as_slice()) {
            counts[idx] += 1;
        }
        return;
    }
    let needed = k - subset.len();
    if items.len() < needed {
        return;
    }
    // Either take items[0] or skip it.
    subset.push(items[0]);
    enumerate_subsets(&items[1..], k, subset, lookup, counts);
    subset.pop();
    enumerate_subsets(&items[1..], k, subset, lookup, counts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::TransactionDb;

    fn ctx() -> MiningContext {
        MiningContext::new(TransactionDb::from_rows(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
            vec![1, 2, 3, 5],
        ]))
    }

    fn candidates2() -> Vec<Itemset> {
        vec![
            Itemset::from_ids([1, 3]),
            Itemset::from_ids([2, 5]),
            Itemset::from_ids([3, 5]),
            Itemset::from_ids([1, 4]),
            Itemset::from_ids([4, 5]),
        ]
    }

    #[test]
    fn all_strategies_agree() {
        let ctx = ctx();
        let cands = candidates2();
        let expected: Vec<Support> = cands.iter().map(|c| ctx.horizontal().support(c)).collect();
        assert_eq!(expected, vec![3, 4, 3, 1, 0]);
        for strategy in [
            CountingStrategy::Auto,
            CountingStrategy::SubsetHash,
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Parallel,
        ] {
            assert_eq!(
                count_candidates(&ctx, &cands, 2, strategy),
                expected,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn parallel_strategy_agrees_when_forced_to_fan() {
        // Enough candidates to occupy several chunks, counted under an
        // explicit thread policy so the fan-out runs even on one core.
        let rows: Vec<Vec<u32>> = (0..120u32).map(|t| vec![t % 5, 5 + t % 4, 9]).collect();
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(rows));
        let candidates: Vec<Itemset> = (0..5u32)
            .flat_map(|a| (5..9u32).map(move |b| Itemset::from_ids([a, b])))
            .collect();
        let serial = count_candidates_with(
            &ctx,
            &candidates,
            2,
            CountingStrategy::Vertical,
            Parallelism::Off,
        );
        for threads in [1, 2, 3, 7] {
            let parallel = count_candidates_with(
                &ctx,
                &candidates,
                2,
                CountingStrategy::Parallel,
                Parallelism::Fixed(threads),
            );
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn three_item_candidates() {
        let ctx = ctx();
        let cands = vec![
            Itemset::from_ids([1, 2, 3]),
            Itemset::from_ids([2, 3, 5]),
            Itemset::from_ids([1, 3, 4]),
        ];
        for strategy in [
            CountingStrategy::SubsetHash,
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
        ] {
            assert_eq!(
                count_candidates(&ctx, &cands, 3, strategy),
                vec![2, 3, 1],
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn empty_candidate_list() {
        let ctx = ctx();
        assert!(count_candidates(&ctx, &[], 2, CountingStrategy::Auto).is_empty());
    }
}
