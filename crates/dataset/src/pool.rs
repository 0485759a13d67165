//! Shared scoped-thread fan-out and the [`Parallelism`] configuration.
//!
//! Every parallel construction in the workspace goes through this one
//! module: the levelwise miners fan a candidate level over chunks when
//! its work pays, parallel batch counting fans a candidate level the same
//! way, and the bench crate runs independent experiment cells side by side
//! (it re-exports this module as `rulebases_bench::parallel`). Engines
//! never spawn, so a fanned level holds exactly its chunk threads and
//! nothing nests.
//! Keeping a single implementation means one place to reason about
//! panics, one ordering guarantee (results always come back in input
//! order), one spawn tally ([`threads_spawned`]), and one knob —
//! [`Parallelism`] — that callers thread through instead of each
//! inventing its own thread policy.
//!
//! The primitives are deliberately simple `std::thread::scope` fan-outs:
//! the workloads here are CPU-bound and coarse-grained (a chunk of a
//! candidate level, an experiment cell), so a work-stealing pool would
//! buy nothing over scoped threads while costing a dependency the
//! offline build environment cannot fetch.

use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{Scope, ScopedJoinHandle};

/// Environment variable overriding [`Parallelism::Auto`]'s thread count
/// (CI runs the suite with `RULEBASES_THREADS=1` and `=4` so the
/// parallel paths are exercised both degenerate and fanned-out).
pub const THREADS_ENV: &str = "RULEBASES_THREADS";

/// How many worker threads a parallel construction may use.
///
/// `Auto` is the default everywhere: it honours [`THREADS_ENV`] when set
/// and otherwise uses the machine's available parallelism, and the
/// levelwise miners fan a level under it only when the level's work pays
/// for the threads (`rulebases_mining::counting::PARALLEL_MIN_WORDS`).
/// `Off` forces the sequential code path (useful for clean wall-clock
/// timing), and `Fixed(n)` pins an exact fan-out degree — unlike `Auto`,
/// a `Fixed` request is honoured even when the workload looks too small
/// to bother: every level of at least two candidates fans, which is what
/// the equivalence tests use to force the threaded paths on tiny
/// contexts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// `RULEBASES_THREADS` if set, else the machine's available
    /// parallelism.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to at least 1).
    Fixed(usize),
    /// Sequential execution.
    Off,
}

impl Parallelism {
    /// The resolved worker-thread count (always at least 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => env_threads().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            }),
        }
    }

    /// Whether more than one thread would be used.
    pub fn is_parallel(self) -> bool {
        self.threads() > 1
    }
}

/// The outcome of reading one [`THREADS_ENV`] value.
#[derive(Clone, Debug, PartialEq, Eq)]
enum EnvThreads {
    /// Variable unset or empty — fall through to machine parallelism.
    Unset,
    /// A thread count. `0` is accepted as an explicit request for the
    /// sequential path and resolves to one thread.
    Count(usize),
    /// Unparsable text — fall through, but tell the operator: a typo'd
    /// `RULEBASES_THREADS=fuor` silently running 64-wide is exactly the
    /// kind of misconfiguration that wastes a benchmark run.
    Malformed(String),
}

/// Classifies a raw [`THREADS_ENV`] value. Pure, so every malformed shape
/// is unit-testable without touching the (process-global) environment.
fn classify_env_threads(raw: Option<&str>) -> EnvThreads {
    let Some(raw) = raw else {
        return EnvThreads::Unset;
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return EnvThreads::Unset;
    }
    match trimmed.parse::<usize>() {
        // `0` means "no worker fan-out": resolve to the one mandatory
        // thread rather than pretending the value was absent.
        Ok(0) => EnvThreads::Count(1),
        Ok(n) => EnvThreads::Count(n),
        Err(_) => EnvThreads::Malformed(trimmed.to_owned()),
    }
}

/// Parses [`THREADS_ENV`]: unset/empty falls through to the machine's
/// parallelism, `0` explicitly forces the sequential path, and anything
/// unparsable falls through **with a warning** (printed once per
/// process).
fn env_threads() -> Option<usize> {
    let raw = std::env::var(THREADS_ENV).ok();
    match classify_env_threads(raw.as_deref()) {
        EnvThreads::Unset => None,
        EnvThreads::Count(n) => Some(n),
        EnvThreads::Malformed(value) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: ignoring unparsable {THREADS_ENV}={value:?} \
                     (expected a thread count; 0 forces sequential) — \
                     falling back to the machine's available parallelism"
                );
            });
            None
        }
    }
}

/// Scoped threads spawned by this module since the process started.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// How many scoped threads [`parallel_map`], [`parallel_chunks`] and
/// [`fan_out`] have spawned in this process so far — a regression pin on
/// the thread model: read it before and after a call to count that
/// call's spawns (only meaningful when nothing else spawns meanwhile).
pub fn threads_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Spawns `f` on `scope`, tallying the spawn in [`threads_spawned`].
fn spawn<'scope, T, F>(scope: &'scope Scope<'scope, '_>, f: F) -> ScopedJoinHandle<'scope, T>
where
    T: Send + 'scope,
    F: FnOnce() -> T + Send + 'scope,
{
    SPAWNED.fetch_add(1, Ordering::Relaxed);
    scope.spawn(f)
}

/// Maps `f` over `items` with one scoped thread per item; results come
/// back in input order.
///
/// Right when the items are few and coarse (experiment cells — one
/// dataset × one threshold): thread-per-item is
/// then the correct granularity and needs no chunking policy. For long
/// homogeneous lists use [`parallel_chunks`] instead.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| spawn(scope, || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Splits `items` into at most `threads` balanced contiguous chunks,
/// applies `f` to each chunk on its own scoped thread, and concatenates
/// the per-chunk results in input order.
///
/// This is the levelwise-mining fan-out: `f` is typically a batch
/// operation over a slice of a candidate level, returning one result per
/// input item (e.g. [`SupportEngine::count_candidates`], whose
/// concatenation lines up index-for-index with `items`) or one per item
/// that passes a test, borrowing the item (e.g.
/// [`SupportEngine::close_candidates`]). With `threads <= 1` (or fewer
/// than two items) `f` runs once, inline, over the whole slice — the
/// degenerate path is byte-for-byte the sequential algorithm.
///
/// [`SupportEngine::count_candidates`]: crate::SupportEngine::count_candidates
/// [`SupportEngine::close_candidates`]: crate::SupportEngine::close_candidates
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_chunks<'a, T, R, F>(items: &'a [T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> Vec<R> + Sync,
{
    let n_chunks = threads.min(items.len());
    if n_chunks <= 1 {
        return f(items);
    }
    let chunk_len = items.len().div_ceil(n_chunks);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| spawn(scope, || f(chunk)))
            .collect();
        let parts: Vec<Vec<R>> = handles
            .into_iter()
            .map(|handle| handle.join().expect("parallel worker panicked"))
            .collect();
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            out.extend(part);
        }
        out
    })
}

/// Runs `f(0), f(1), …, f(workers - 1)` on one scoped thread each and
/// returns the results in worker order.
///
/// The read-side fan-out: unlike [`parallel_map`], the workers share no
/// input list — each receives only its index and typically drives its
/// own long-lived handle (a serving reader, a load-generator lane)
/// against shared state. With `workers <= 1` the single call runs
/// inline on the caller's thread.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn fan_out<R, F>(workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers).map(|i| spawn(scope, move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out = parallel_map(vec![1, 2, 3, 4], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn map_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn map_propagates_panics() {
        let _ = parallel_map(vec![1], |_| -> i32 { panic!("boom") });
    }

    #[test]
    fn chunks_match_sequential_map() {
        let items: Vec<u64> = (0..103).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            let out = parallel_chunks(&items, threads, |chunk| {
                chunk.iter().map(|x| x * 3).collect()
            });
            let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn chunks_empty_input() {
        let out: Vec<u8> = parallel_chunks(&[], 4, |chunk: &[u8]| chunk.to_vec());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn chunks_propagate_panics() {
        let items = vec![1, 2, 3, 4];
        let _ = parallel_chunks(&items, 2, |_| -> Vec<i32> { panic!("boom") });
    }

    #[test]
    fn fan_out_indexes_workers_in_order() {
        for workers in [1, 2, 4, 7] {
            let out = fan_out(workers, |i| i * 10);
            let expected: Vec<usize> = (0..workers).map(|i| i * 10).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn fan_out_zero_runs_inline_once() {
        let out = fan_out(0, |i| i + 1);
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn fan_out_propagates_panics() {
        let _ = fan_out(3, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn spawns_are_tallied() {
        // Other tests in this binary may spawn concurrently, so only a
        // lower bound is observable here (the tally never goes down).
        let before = threads_spawned();
        let _ = parallel_map(vec![1, 2], |x| x);
        let _ = parallel_chunks(&[1, 2, 3, 4], 2, |chunk| chunk.to_vec());
        let _ = fan_out(3, |i| i);
        assert!(threads_spawned() - before >= 7);
    }

    #[test]
    fn env_threads_classification() {
        use super::EnvThreads::{Count, Malformed, Unset};
        // Unset and empty fall through silently.
        assert_eq!(classify_env_threads(None), Unset);
        assert_eq!(classify_env_threads(Some("")), Unset);
        assert_eq!(classify_env_threads(Some("   ")), Unset);
        // Well-formed counts, with surrounding whitespace tolerated.
        assert_eq!(classify_env_threads(Some("4")), Count(4));
        assert_eq!(classify_env_threads(Some(" 8 ")), Count(8));
        // `0` is an explicit sequential request, not garbage.
        assert_eq!(classify_env_threads(Some("0")), Count(1));
        // Every malformed shape is surfaced, never silently dropped.
        for bad in ["abc", "-1", "3.5", "4x", "0x4", "١٢", "+ 2"] {
            assert_eq!(
                classify_env_threads(Some(bad)),
                Malformed(bad.trim().to_owned()),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Off.threads(), 1);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(6).threads(), 6);
        assert!(Parallelism::Fixed(2).is_parallel());
        assert!(!Parallelism::Off.is_parallel());
        // Auto resolves to *something* positive whatever the environment.
        assert!(Parallelism::Auto.threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
