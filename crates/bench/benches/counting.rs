//! E8 ablation as a Criterion benchmark: support counting across the
//! transaction-driven strategies (subset hashing, hash tree) and the
//! two `SupportEngine` vertical backends (dense bitsets, tid-lists) on
//! sparse and dense level-2 candidate sets — plus the kernel-level
//! ablation of the wide-kernel layer itself.
//!
//! The backend comparison is a one-line swap: every engine row calls the
//! same batch `count_candidates` API with a different [`EngineKind`].
//!
//! The kernel ablation (`counting-kernels` group) pits each wide kernel
//! against its retained scalar oracle — chunked Harley–Seal popcount vs
//! word-at-a-time `count_ones`, galloping intersection vs the two-pointer
//! merge — on the 128k-row census stand-in's densest covers and a ≥16:1
//! skewed list pair. The headline speedups are **asserted**
//! (conservatively, well under the expected release-opt margins, so a
//! scheduler hiccup cannot flake the bench while a kernel silently
//! degrading to scalar parity still fails), written to
//! `BENCH_counting.json` as the gate baseline, and appended to
//! `BENCH_history.jsonl`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rulebases_bench::{append_bench_history, run_kernel_probes, Scale, StandIn};
use rulebases_bench::{write_bench_artifact, KernelProbe};
use rulebases_dataset::generator::census_like;
use rulebases_dataset::kernels::{self, scalar};
use rulebases_dataset::{
    EngineKind, Item, Itemset, MinSupport, MiningContext, TransactionDb, VerticalDb,
};
use rulebases_mining::candidates::join_and_prune;
use rulebases_mining::counting::{count_candidates, CountingStrategy};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows in the census-like kernel and backend stand-in: big enough
/// (128k) that one cover spans 2048 words and a level-2 batch count is
/// millisecond-scale work.
const CENSUS_ROWS: usize = 1 << 17;

/// Support threshold for the census candidate level — lower than the
/// C20D10K table sweep so the level is wide (hundreds of candidates).
const CENSUS_MINSUP: f64 = 0.30;

/// Builds the level-2 candidate set of a dataset at its default minsup.
fn level2_candidates(ctx: &MiningContext, minsup: f64) -> Vec<Itemset> {
    let min_count = MinSupport::Fraction(minsup).to_count(ctx.n_objects());
    let frequent_singles: Vec<Itemset> = ctx
        .engine()
        .item_supports()
        .iter()
        .enumerate()
        .filter(|(_, &s)| s >= min_count)
        .map(|(i, _)| Itemset::from_ids([i as u32]))
        .collect();
    join_and_prune(&frequent_singles)
}

fn bench_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    for dataset in [StandIn::T10I4, StandIn::Mushrooms] {
        let db = Arc::new(dataset.generate(Scale::Test));
        let ctx = MiningContext::with_engine_arc(Arc::clone(&db), EngineKind::Auto);
        let candidates = level2_candidates(&ctx, dataset.default_minsup());
        if candidates.is_empty() {
            continue;
        }
        // Transaction-driven strategies.
        for (label, strategy) in [
            ("subset-hash", CountingStrategy::SubsetHash),
            ("hash-tree", CountingStrategy::HashTree),
        ] {
            group.bench_function(
                BenchmarkId::new(label, format!("{}x{}", dataset.name(), candidates.len())),
                |b| b.iter(|| black_box(count_candidates(&ctx, &candidates, 2, strategy))),
            );
        }
        // Vertical backends: the same batch API, one EngineKind per row.
        for kind in EngineKind::BACKENDS {
            let engine = kind.build(&db);
            group.bench_function(
                BenchmarkId::new(
                    kind.name(),
                    format!("{}x{}", dataset.name(), candidates.len()),
                ),
                |b| b.iter(|| black_box(engine.count_candidates(&candidates))),
            );
        }
    }
    group.finish();
}

/// One backend's census-scale batch count in the `BENCH_counting.json`
/// artifact (rows follow `EngineKind::BACKENDS` order: dense first).
#[derive(Serialize)]
struct BackendTally {
    backend: String,
    candidates: usize,
    batch_wall_us: f64,
}

/// The machine-readable record `BENCH_counting.json` holds — the
/// baseline the `bench-gate` binary checks kernel speedups against.
#[derive(Serialize)]
struct CountingBenchRecord {
    rows: usize,
    kernel_probes: Vec<KernelProbe>,
    backends: Vec<BackendTally>,
}

/// Kernel-vs-scalar-oracle ablation rows, then the recorded + asserted
/// headline numbers.
fn bench_kernel_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting-kernels");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    // Operands: the two densest covers of the 128k-row census stand-in
    // (2048 words each) and a sorted pair skewed 8× past the gallop
    // ratio — the rare-item-meets-frequent-item shape.
    let db: Arc<TransactionDb> = Arc::new(census_like(CENSUS_ROWS, 20, 0xC20));
    let vertical = VerticalDb::from_horizontal(&db);
    let mut by_count: Vec<u32> = (0..vertical.n_items() as u32).collect();
    by_count.sort_by_key(|&i| std::cmp::Reverse(vertical.cover(Item::new(i)).count()));
    let cover_a = vertical.cover(Item::new(by_count[0])).as_words();
    let cover_b = vertical.cover(Item::new(by_count[1])).as_words();
    let short: Vec<u32> = (0..1024u32).map(|i| i * 251).collect();
    let long: Vec<u32> = (0..(1024 * kernels::GALLOP_RATIO as u32 * 8))
        .map(|i| i * 2 + 1)
        .collect();

    group.bench_function(BenchmarkId::new("and-count", "scalar"), |b| {
        b.iter(|| black_box(scalar::and_count(black_box(cover_a), black_box(cover_b))))
    });
    group.bench_function(BenchmarkId::new("and-count", "chunked"), |b| {
        b.iter(|| black_box(kernels::and_count(black_box(cover_a), black_box(cover_b))))
    });
    group.bench_function(BenchmarkId::new("intersect-skewed", "scalar"), |b| {
        b.iter(|| {
            black_box(scalar::intersect_count_sorted(
                black_box(&short),
                black_box(&long),
            ))
        })
    });
    group.bench_function(BenchmarkId::new("intersect-skewed", "gallop"), |b| {
        b.iter(|| {
            black_box(kernels::intersect_count_sorted(
                black_box(&short),
                black_box(&long),
            ))
        })
    });
    group.finish();

    // Recorded headline numbers: the shared probes (also stamped into
    // the stream bench's history line) plus one blocked batch count per
    // backend on the census stand-in.
    let probes = run_kernel_probes();
    for p in &probes {
        println!(
            "{}: scalar {:.1} ns vs kernel {:.1} ns — {:.2}x ({} vs {} long)",
            p.probe, p.scalar_ns, p.kernel_ns, p.speedup, p.len_a, p.len_b
        );
    }
    let ctx = MiningContext::with_engine_arc(Arc::clone(&db), EngineKind::Dense);
    let candidates = level2_candidates(&ctx, CENSUS_MINSUP);
    let backends: Vec<BackendTally> = EngineKind::BACKENDS
        .iter()
        .map(|kind| {
            let engine = kind.build(&db);
            let start = Instant::now();
            black_box(engine.count_candidates(&candidates));
            BackendTally {
                backend: kind.name().to_owned(),
                candidates: candidates.len(),
                batch_wall_us: start.elapsed().as_secs_f64() * 1e6,
            }
        })
        .collect();
    for t in &backends {
        println!(
            "{}: {} census candidates batch-counted in {:.1} µs",
            t.backend, t.candidates, t.batch_wall_us
        );
    }

    let record = CountingBenchRecord {
        rows: CENSUS_ROWS,
        kernel_probes: probes,
        backends,
    };
    write_bench_artifact("counting", &record);
    append_bench_history("counting", &record);

    // Conservative floors (the recorded release-opt margins run well
    // above these): the chunked popcount and the galloping intersection
    // must actually beat their scalar oracles, or the wide-kernel layer
    // has silently degraded to a renamed scalar path.
    let chunked = &record.kernel_probes[0];
    assert!(
        chunked.speedup >= 1.2,
        "chunked popcount must beat the scalar oracle on the census covers: \
         {:.1} ns !< {:.1} ns ({:.2}x)",
        chunked.kernel_ns,
        chunked.scalar_ns,
        chunked.speedup
    );
    let galloped = &record.kernel_probes[1];
    assert!(
        galloped.speedup >= 1.2,
        "galloping must beat the two-pointer merge on a {}:1 skewed pair: \
         {:.1} ns !< {:.1} ns ({:.2}x)",
        galloped.len_b / galloped.len_a.max(1),
        galloped.kernel_ns,
        galloped.scalar_ns,
        galloped.speedup
    );
}

criterion_group!(benches, bench_counting, bench_kernel_ablation);
criterion_main!(benches);
