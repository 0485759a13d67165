//! `census-grow` and `drift-window`: one `StreamingMiner` fed 64-row
//! `push_batch`es from an empty seed, then checkpointed and recovered.
//!
//! Per pass a fresh session replays every row (`ingest_*`, `batch_*`);
//! the run makes as many passes, at least two, as fill its `--seconds`.
//! The first pass's final session is checked against a fused re-mine of
//! its rows. During the later passes, between batches and untimed, probe
//! steps sample the short metrics against that session: opening a
//! session (`setup_s`), a fused re-mine (`mine_s`), a checkpoint →
//! recover round trip (`recover_s`, `checkpoint_bytes`; each recovered
//! session is materialized and built into a serving snapshot, the
//! `publish_*` samples), and reads of the newest rows as baskets against
//! the latest snapshot (`query_*`).

use crate::common::{
    census_rows, closed_only, miner, query_into, remine, same_bases, secs, Moved, Queries,
    RoundTrips, Run, C20D10K_SEED, DRIFT_SEED,
};
use crate::shadow::Shadow;
use crate::stats::median;
use rulebases::{MinedBases, RuleMiner, ServedBasis, ServingSnapshot, StreamingMiner, Window};
use rulebases_bench::{drifting_census, project_top_items};
use rulebases_dataset::TransactionDb;
use std::time::Instant;

const BATCH: usize = 64;
const MINSUP: f64 = 0.3;
/// A set-up sample is the mean time of this many session opens: one open
/// takes microseconds.
const OPENS_PER_SAMPLE: usize = 100;
/// Reads per probe step.
const QUERY_SLICE: usize = 250;
const QUERIES: usize = 2_000;

pub fn census_grow(run: &mut Run) {
    let seed = run.gen_seed(C20D10K_SEED);
    let mut rows = census_rows(seed);
    run.shuffle(&mut rows, BATCH);
    run.note(format!(
        "input: C20D10K* 2000 rows on its top 16 items (seed {seed:#x}), minsup {MINSUP}, \
         unbounded, {BATCH}-row batches"
    ));
    stream(run, rows, Window::Unbounded, 7.0, 1);
}

pub fn drift_window(run: &mut Run) {
    let seed = run.gen_seed(DRIFT_SEED);
    let mut rows = project_top_items(&drifting_census(50_000, 8, 12_500, seed), 16);
    run.shuffle(&mut rows, BATCH);
    run.note(format!(
        "input: drifting census 50000 rows on its top 16 items (seed {seed:#x}), \
         minsup {MINSUP}, sliding window 256, {BATCH}-row batches"
    ));
    stream(run, rows, Window::Sliding(256), 7.0, 8);
}

#[derive(Default)]
struct Pass {
    batch_ms: Vec<f64>,
    moved: Moved,
}

impl Pass {
    fn replay_s(&self) -> f64 {
        self.batch_ms.iter().sum::<f64>() / 1e3
    }
}

/// Pushes every row through `session`. With a shadow, each batch is
/// replayed through it under the batch's `stream.push` span; with a
/// probe, a probe step follows every `probe.every`-th batch, untimed.
fn replay(
    run: &mut Run,
    session: &mut StreamingMiner,
    rows: &[Vec<u32>],
    mut shadow: Option<&mut Shadow>,
    mut probe: Option<&mut Probe>,
) -> Pass {
    let mut pass = Pass::default();
    for (b, chunk) in rows.chunks(BATCH).enumerate() {
        let batch = chunk.to_vec();
        let start = Instant::now();
        let pushed = session.push_batch(batch);
        let end = Instant::now();
        let Some(delta) = run.ok("push_batch", pushed) else {
            continue;
        };
        pass.batch_ms
            .push(end.duration_since(start).as_secs_f64() * 1e3);
        pass.moved.absorb(&delta);
        if let Some(shadow) = shadow.as_deref_mut() {
            let push = run.tracer.record("stream.push", b as u64, None, start, end);
            shadow.replay(run, chunk.to_vec(), b as u64, push);
            let patch_us = run.tracer.span(push).micros() - run.tracer.children_us(push);
            run.add("stream.patch_us", patch_us);
            run.add("stream.patch_negative_batches", f64::from(patch_us < 0.0));
        }
        if let Some(probe) = probe.as_deref_mut() {
            if b % probe.every == 0 {
                probe.step(run);
            }
        }
    }
    pass
}

/// The short measurements, taken one step at a time between the batches
/// of every pass after the first, so each median covers the whole run
/// rather than one moment of it. The steps rotate through a set-up
/// sample, a fused re-mine, a slice of reads against the latest
/// published snapshot, and (every other step) a checkpoint → recover →
/// publish round trip.
struct Probe<'a> {
    miner: &'a RuleMiner,
    window: Window,
    /// The first pass's final session and its fused re-mine.
    session: &'a StreamingMiner,
    reference: &'a MinedBases,
    baskets: &'a [Vec<u32>],
    /// Batches between steps.
    every: usize,
    steps: usize,
    snap: ServingSnapshot,
    open_s: Vec<f64>,
    build_s: Vec<f64>,
    mine_s: Vec<f64>,
    trips: RoundTrips,
    queries: Queries,
}

impl Probe<'_> {
    fn step(&mut self, run: &mut Run) {
        // Round trips take every other step: they give two metrics and
        // are the noisiest.
        match self.steps % 6 {
            0 => {
                let seeds: Vec<TransactionDb> = (0..OPENS_PER_SAMPLE)
                    .map(|_| TransactionDb::from_rows(Vec::new()))
                    .collect();
                let t = Instant::now();
                let opened: Vec<StreamingMiner> = seeds
                    .into_iter()
                    .map(|seed| self.miner.streaming(seed).window(self.window))
                    .collect();
                self.open_s.push(secs(t) / OPENS_PER_SAMPLE as f64);
                drop(opened);
            }
            1 | 3 | 5 => {
                if let Some(snap) = self.trips.once(run, self.session, self.reference) {
                    self.snap = snap;
                }
            }
            2 => {
                let from = self.queries.lat_us.len() % self.baskets.len();
                let to = (from + QUERY_SLICE).min(self.baskets.len());
                query_into(run, &mut self.queries, &self.snap, &self.baskets[from..to]);
            }
            _ => {
                let mines = remine(run, self.miner, self.session.db(), 1);
                self.build_s.extend(mines.build_s);
                self.mine_s.extend(mines.mine_s);
            }
        }
        self.steps += 1;
    }
}

/// A replayed session made no engine calls and holds the bases a fused
/// mine of its rows gives.
fn check_session(run: &mut Run, session: &mut StreamingMiner, reference: &MinedBases) {
    let calls = session.context().closure_cache_stats().engine_calls();
    run.check("0 engine calls on the replay", calls == 0);
    let same = same_bases(session.bases(), reference);
    run.check("session bases equal a fused mine of its rows", same);
}

/// Replays `rows` in passes of about `pass_s` seconds each, probing
/// every `probe_every` batches.
fn stream(run: &mut Run, rows: Vec<Vec<u32>>, window: Window, pass_s: f64, probe_every: usize) {
    let miner = miner(MINSUP);
    let empty = || TransactionDb::from_rows(Vec::new());

    // The first pass leaves the final session the probes measure.
    let mut first = miner.streaming(empty()).window(window);
    let mut passes = vec![replay(run, &mut first, &rows, None, None)];
    let reference = remine(run, &miner, first.db(), 1);
    check_session(run, &mut first, &reference.bases);
    let epoch = first.epoch();
    let snap = ServingSnapshot::from_bases(first.bases(), ServedBasis::Compact, epoch);
    let mut probe = Probe {
        miner: &miner,
        window,
        session: &first,
        reference: &reference.bases,
        baskets: &rows[rows.len().saturating_sub(QUERIES)..],
        every: probe_every,
        steps: 0,
        snap,
        open_s: Vec::new(),
        build_s: reference.build_s.clone(),
        mine_s: reference.mine_s.clone(),
        trips: RoundTrips::default(),
        queries: Queries::default(),
    };
    let mut last = None;
    for _ in 1..run.repeats(pass_s) {
        let mut session = miner.streaming(empty()).window(window);
        passes.push(replay(run, &mut session, &rows, None, Some(&mut probe)));
        last = Some(session);
    }
    // A run too short for a whole probe cycle still samples everything.
    while probe.steps < 6 {
        probe.step(run);
    }
    let mut last = last.expect("at least two passes");
    let replay_s: Vec<f64> = passes.iter().map(Pass::replay_s).collect();
    run.note(format!(
        "backend: {}; {} passes of {} rows, replay seconds {replay_s:.3?}, {} probe steps",
        last.context().resolved_kind(),
        passes.len(),
        rows.len(),
        probe.steps
    ));
    check_session(run, &mut last, &reference.bases);
    run.check(
        "0 generator fallbacks",
        passes.iter().all(|p| p.moved.gen_fallbacks == 0),
    );

    let batch_ms: Vec<f64> = passes.iter().flat_map(|p| p.batch_ms.clone()).collect();
    run.set("setup_s", median(&probe.open_s));
    run.set("mine_s", median(&probe.mine_s));
    run.set("ingest_rows_per_s", rows.len() as f64 / median(&replay_s));
    run.set_latency(
        "push_batch",
        "batch_p50_ms",
        "batch_tail_ms",
        &batch_ms,
        passes[0].batch_ms.len(),
    );
    run.set_latency(
        "publish (recovered session: bases + snapshot)",
        "publish_p50_ms",
        "publish_tail_ms",
        &probe.trips.publish_ms,
        probe.trips.publish_ms.len(),
    );
    probe.queries.report(run, probe.snap.n_rules());
    probe.trips.report(run);
    run.set("dataset.engine_build_ms", median(&probe.build_s) * 1e3);
    let mine_s = median(&probe.mine_s);

    if !run.traced {
        return;
    }
    let mut traced = miner.streaming(empty()).window(window);
    let mut shadow = Shadow::new(&empty(), window);
    let t = Instant::now();
    let pass = replay(run, &mut traced, &rows, Some(&mut shadow), None);
    let traced_wall = secs(t);
    pass.moved.report(run);
    run.set(
        "trace.batch_p50_delta_ms",
        median(&pass.batch_ms) - median(&batch_ms),
    );
    run.set("trace.pass_wall_delta_s", traced_wall - median(&replay_s));
    for (metric, span) in [
        ("stream.push_us", "stream.push"),
        ("dataset.append_us", "dataset.append"),
        ("dataset.expire_us", "dataset.expire"),
        ("dataset.apply_delta_us", "dataset.apply_delta"),
        ("dataset.compact_us", "dataset.compact"),
        ("lattice.insert_us", "lattice.insert"),
        ("lattice.remove_us", "lattice.remove"),
    ] {
        run.set(metric, run.tracer.total_us(span));
    }
    let lattice = shadow.lattice();
    let slots = lattice.n_nodes();
    let live = (0..slots).filter(|&i| lattice.is_live(i)).count();
    run.check(
        "shadow lattice holds the session's slots",
        slots == traced.n_closure_classes(),
    );
    run.set("lattice.slots", slots as f64);
    run.set("lattice.live_slots", live as f64);
    run.set("lattice.dead_slots", (slots - live) as f64);
    run.set("lattice.edges", lattice.n_edges() as f64);

    let t = Instant::now();
    let min_count = traced.bases().min_count;
    run.set("stream.bases_us", secs(t) * 1e6);
    let t = Instant::now();
    std::hint::black_box(lattice.snapshot(min_count));
    run.set("lattice.snapshot_us", secs(t) * 1e6);
    run.set(
        "stream.lux_full_rules",
        traced.bases().lux_full.len() as f64,
    );

    let stats = traced.context().closure_cache_stats();
    run.set("dataset.engine_calls", stats.engine_calls() as f64);
    run.set("dataset.extents", stats.extents as f64);
    run.set("dataset.bytes_copied", stats.bytes_copied as f64);
    run.set("dataset.storage_bytes", traced.db().storage_bytes() as f64);
    run.set("dataset.segments", traced.n_segments() as f64);

    closed_only(run, first.db(), MINSUP, mine_s);
}
