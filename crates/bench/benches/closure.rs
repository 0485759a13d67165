//! E7 as a Criterion benchmark: the Galois closure primitive and the
//! pairwise Hasse-diagram construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rulebases_bench::{Scale, StandIn};
use rulebases_dataset::{Itemset, MinSupport, MiningContext};
use rulebases_lattice::IcebergLattice;
use rulebases_mining::{Close, ClosedMiner};
use std::hint::black_box;
use std::time::Duration;

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    for dataset in [StandIn::T10I4, StandIn::Mushrooms, StandIn::C73D10K] {
        let ctx = MiningContext::new(dataset.generate(Scale::Test));

        // The closure primitive on a frequent single item.
        let supports = ctx.engine().item_supports();
        let top_item = supports
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        let probe = Itemset::from_ids([top_item]);
        group.bench_function(BenchmarkId::new("h(x)", dataset.name()), |b| {
            b.iter(|| black_box(ctx.closure(&probe)))
        });

        // Hasse construction.
        let fc = Close::new().mine_closed(&ctx, MinSupport::Fraction(dataset.default_minsup()));
        group.bench_function(
            BenchmarkId::new(
                "hasse-pairs",
                format!("{}|FC|={}", dataset.name(), fc.len()),
            ),
            |b| b.iter(|| black_box(IcebergLattice::from_closed(&fc))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_closure);
criterion_main!(benches);
