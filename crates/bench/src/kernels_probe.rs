//! Headline kernel measurements, shared across benches.
//!
//! Two numbers summarize the wide-kernel layer of
//! `rulebases_dataset::kernels`, and more than one bench wants them (the
//! `counting` ablation records them as its gate metrics; `bases-stream`
//! stamps them into its history line so one `BENCH_history.jsonl` entry
//! carries both the pipeline tallies and the kernel state of the same
//! commit):
//!
//! * **chunked-and-count** — the Harley–Seal chunked popcount versus the
//!   retained scalar oracle, intersecting two dense covers of a
//!   census-like 128k-row stand-in (2048 words per operand).
//! * **gallop-intersect** — the adaptive galloping intersection versus
//!   the scalar two-pointer merge on a sorted pair skewed well past
//!   [`GALLOP_RATIO`] (the rare-item-meets-frequent-item shape).
//!
//! Both are measured as median ns/op over batched runs; the speedup is
//! the scalar-over-kernel ratio, so bigger is better and 1.0 means the
//! optimization vanished.

use crate::timing::median_duration;
use rulebases_dataset::generator::census_like;
use rulebases_dataset::kernels::{self, scalar, GALLOP_RATIO};
use rulebases_dataset::vertical::VerticalDb;
use rulebases_dataset::Item;
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;

/// Rows in the census-like stand-in behind the chunked-count probe —
/// the same 128k scale as the `counting` bench's census rows, so one
/// cover is 2048 words and the blocked loop takes several tiles.
pub const PROBE_ROWS: usize = 1 << 17;

/// One kernel-vs-scalar measurement.
#[derive(Clone, Debug, Serialize)]
pub struct KernelProbe {
    /// Which kernel pair was probed.
    pub probe: String,
    /// Operand sizes (words for bitset probes, elements for lists).
    pub len_a: usize,
    /// See `len_a`.
    pub len_b: usize,
    /// Median scalar-oracle time per operation.
    pub scalar_ns: f64,
    /// Median wide-kernel time per operation.
    pub kernel_ns: f64,
    /// `scalar_ns / kernel_ns` — bigger is better, 1.0 is parity.
    pub speedup: f64,
}

/// Median ns per call of `f`, batched so one sample is milliseconds.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let d = median_duration(5, || {
        for _ in 0..iters {
            f();
        }
    });
    d.as_secs_f64() * 1e9 / iters as f64
}

fn probe(name: &str, len_a: usize, len_b: usize, scalar_ns: f64, kernel_ns: f64) -> KernelProbe {
    KernelProbe {
        probe: name.to_owned(),
        len_a,
        len_b,
        scalar_ns,
        kernel_ns,
        speedup: scalar_ns / kernel_ns.max(1e-9),
    }
}

/// Runs both probes and returns them in a fixed order: `[0]` is
/// chunked-and-count, `[1]` is gallop-intersect (the gate's check list
/// addresses them by index).
pub fn run_kernel_probes() -> Vec<KernelProbe> {
    // Chunked popcount: two dense covers of the 128k-row stand-in.
    let db = Arc::new(census_like(PROBE_ROWS, 20, 0xC20));
    let vertical = VerticalDb::from_horizontal(&db);
    let (a, b) = densest_cover_pair(&vertical);
    let words = a.len();
    let chunked = probe(
        "chunked-and-count",
        words,
        words,
        time_ns(256, || {
            black_box(scalar::and_count(black_box(a), black_box(b)));
        }),
        time_ns(256, || {
            black_box(kernels::and_count(black_box(a), black_box(b)));
        }),
    );

    // Galloping intersection: a sorted pair skewed 8× past the gallop
    // ratio (1024 vs 131072 elements), interleaved so real matches
    // exist. The adaptive kernel gallops; the oracle walks both lists.
    let short: Vec<u32> = (0..1024u32).map(|i| i * 251).collect();
    let long: Vec<u32> = (0..(1024 * GALLOP_RATIO as u32 * 8))
        .map(|i| i * 2 + 1)
        .collect();
    debug_assert!(long.len() >= short.len() * GALLOP_RATIO);
    let galloped = probe(
        "gallop-intersect",
        short.len(),
        long.len(),
        time_ns(32, || {
            black_box(scalar::intersect_count_sorted(
                black_box(&short),
                black_box(&long),
            ));
        }),
        time_ns(32, || {
            black_box(kernels::intersect_count_sorted(
                black_box(&short),
                black_box(&long),
            ));
        }),
    );

    vec![chunked, galloped]
}

/// The two most populous covers of a vertical context — the operands
/// every level-2 candidate count intersects first.
fn densest_cover_pair(vertical: &VerticalDb) -> (&[u64], &[u64]) {
    let mut by_count: Vec<u32> = (0..vertical.n_items() as u32).collect();
    by_count.sort_by_key(|&i| std::cmp::Reverse(vertical.cover(Item::new(i)).count()));
    let a = vertical.cover(Item::new(by_count[0])).as_words();
    let b = vertical.cover(Item::new(by_count[1])).as_words();
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dev-profile runs only sanity-check agreement and shape — the
    /// speedup claims belong to the release-opt bench, not `cargo test`.
    #[test]
    fn probes_have_fixed_order_and_positive_times() {
        let probes = run_kernel_probes();
        assert_eq!(probes.len(), 2);
        assert_eq!(probes[0].probe, "chunked-and-count");
        assert_eq!(probes[1].probe, "gallop-intersect");
        for p in &probes {
            assert!(p.scalar_ns > 0.0 && p.kernel_ns > 0.0, "{p:?}");
            assert!(p.speedup > 0.0, "{p:?}");
        }
        assert!(probes[1].len_b >= probes[1].len_a * GALLOP_RATIO);
    }
}
