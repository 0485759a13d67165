//! Regression pin on the mining thread policy: under `Parallelism::Auto`
//! a candidate level fans over threads only when its price,
//! `candidates × ⌈|O|/64⌉` words, exceeds `PARALLEL_MIN_WORDS`, while a
//! `Fixed(n)` request fans every level of at least two candidates.
//!
//! The spawn tally (`pool::threads_spawned`) is process-wide, so this
//! binary holds exactly one test: nothing else can spawn while it reads
//! the tally.

use rulebases_dataset::generator::census_like;
use rulebases_dataset::pool::threads_spawned;
use rulebases_dataset::{
    paper_example, EngineKind, MinSupport, MiningContext, Parallelism, TransactionDb,
};
use rulebases_mining::counting::PARALLEL_MIN_WORDS;
use rulebases_mining::{AClose, Apriori, Close};

/// The threads `f` spawned, with its result.
fn spawns<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = threads_spawned();
    let out = f();
    (threads_spawned() - before, out)
}

/// One-item rows over `items` ids, `rows` of them (128 words a cover at
/// 8,192 rows): Close's first level is `items` singletons, none frequent
/// at 0.3, so it is the only level.
fn singletons(rows: u32, items: u32) -> MiningContext {
    MiningContext::with_engine(
        TransactionDb::from_rows((0..rows).map(|t| vec![t % items]).collect()),
        EngineKind::Dense,
    )
}

#[test]
fn levels_fan_out_only_when_their_work_pays() {
    let minsup = MinSupport::Fraction(0.3);
    let sequential = |ctx: &MiningContext| {
        Close::new()
            .parallelism(Parallelism::Off)
            .mine(ctx, minsup)
            .into_sorted_vec()
    };

    // (a) A census re-mine: 2,000 rows, 32 words a cover, every level far
    // below the budget — no level fans, whatever the machine.
    let census = MiningContext::with_engine(census_like(2_000, 20, 0xC20D), EngineKind::Dense);
    let (spawned, fc) = spawns(|| Close::new().mine(&census, minsup));
    assert_eq!(spawned, 0, "a census re-mine fanned out");
    assert!(fc.stats.db_passes > 2, "a shallow census mine pins nothing");
    assert_eq!(fc.into_sorted_vec(), sequential(&census));

    // (b) One level on each side of the budget: 2,048 and 2,049
    // singletons over 8,192 rows price at exactly the budget and one cover
    // past it. Only the second fans, and only where `Auto` resolves to
    // more than one thread (not on a `RULEBASES_THREADS=1` run).
    let words = 8_192u64.div_ceil(64);
    let at_budget = (PARALLEL_MIN_WORDS / words) as u32;
    let (spawned, _) = spawns(|| Close::new().mine(&singletons(8_192, at_budget), minsup));
    assert_eq!(spawned, 0, "a level priced at the budget fanned out");
    let above = singletons(8_192, at_budget + 1);
    let (spawned, fc) = spawns(|| Close::new().mine(&above, minsup));
    if Parallelism::Auto.threads() > 1 {
        assert!(spawned >= 1, "a level priced above the budget ran inline");
    }
    assert_eq!(fc.into_sorted_vec(), sequential(&above));

    // (c) `Fixed(2)` fans even the paper example's five-object levels:
    // Close's level step, A-Close's closure phase and Apriori's counting.
    let paper = MiningContext::new(paper_example());
    let fixed = Parallelism::Fixed(2);
    let count = MinSupport::Count(2);
    let (spawned, fc) = spawns(|| Close::new().parallelism(fixed).mine(&paper, count));
    assert!(spawned >= 1, "Close ignored Fixed(2)");
    let reference = Close::new()
        .parallelism(Parallelism::Off)
        .mine(&paper, count)
        .into_sorted_vec();
    assert_eq!(fc.into_sorted_vec(), reference);
    let (spawned, fc) = spawns(|| AClose::new().parallelism(fixed).mine(&paper, count));
    assert!(spawned >= 1, "A-Close ignored Fixed(2)");
    assert_eq!(fc.into_sorted_vec(), reference);
    let (spawned, f) = spawns(|| Apriori::new().parallelism(fixed).mine(&paper, count));
    assert!(spawned >= 1, "Apriori ignored Fixed(2)");
    let serial = Apriori::new()
        .parallelism(Parallelism::Off)
        .mine(&paper, count);
    assert_eq!(f.len(), serial.len());
}
