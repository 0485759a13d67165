//! Regression pin on the mining thread model: Close fans a candidate
//! level over chunks (every level, under `Fixed(2)`), and the engine
//! answers each chunk's batch query on the calling thread — so a mine
//! spawns a bounded number of threads per level, never a number per
//! engine call. `thread_policy.rs` pins which levels fan.
//!
//! The spawn tally (`pool::threads_spawned`) is process-wide, so this
//! binary holds exactly one test: nothing else can spawn while it reads
//! the tally.

use rulebases_dataset::generator::mushroom_like_scaled;
use rulebases_dataset::pool::threads_spawned;
use rulebases_dataset::{EngineKind, MinSupport, MiningContext, Parallelism};
use rulebases_mining::Close;

#[test]
fn close_spawns_per_level_not_per_query() {
    let db = mushroom_like_scaled(1_000, 7);
    let minsup = MinSupport::Fraction(0.3);
    let reference = Close::new().parallelism(Parallelism::Off).mine(
        &MiningContext::with_engine(db.clone(), EngineKind::Dense),
        minsup,
    );

    let ctx = MiningContext::with_engine(db, EngineKind::Dense);
    let before = threads_spawned();
    let fc = Close::new()
        .parallelism(Parallelism::Fixed(2))
        .mine(&ctx, minsup);
    let spawned = threads_spawned() - before;

    let passes = fc.stats.db_passes as u64;
    let calls = ctx.closure_cache_stats().engine_calls();
    assert!(
        spawned > 0,
        "no level was wide enough to fan: the pin is vacuous"
    );
    assert!(
        spawned <= 2 * passes,
        "{spawned} threads spawned over {passes} passes ({calls} engine calls): \
         point queries must not spawn"
    );
    assert_eq!(fc.into_sorted_vec(), reference.into_sorted_vec());
}
