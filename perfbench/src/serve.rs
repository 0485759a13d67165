//! `serve-mixed`: reads beside writes on a `RuleServer`.
//!
//! The server serves `ServedBasis::Compact` over the `census-grow` rows:
//! the first 1,000 rows seed it (`setup_s` is opening the server, which
//! publishes its first snapshot; each session opens it twice and serves
//! the second), then a writer thread `ingest`s the rest
//! in 16-row batches while one reader thread replays all 2,000 rows as
//! baskets through `RuleReader::match_basket` until the writer is done.
//! Both are closed loops. `batch_*` is the `ingest` call; `publish_*` runs
//! from the `ingest` call to the reader's first answer at the new epoch.
//! The run makes as many sessions, at least two, as fill its `--seconds`.
//! After every `PROBE_EVERY`-th ingest, untimed for the ingest metrics,
//! the writer re-mines the served rows (`mine_s`) and round-trips its
//! session through a checkpoint (`recover_s`) while the reader goes on.

use crate::common::{
    census_rows, closed_only, miner, remine, secs, Moved, Queries, RoundTrips, Run, C20D10K_SEED,
    CHECK_EVERY,
};
use crate::shadow::Shadow;
use crate::stats::{median, window_mean};
use rulebases::{RuleMiner, RuleServer, ServedBasis, ServingSnapshot, StreamingMiner, Window};
use rulebases_dataset::TransactionDb;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const MINSUP: f64 = 0.3;
const SEED_ROWS: usize = 1_000;
const BATCH: usize = 16;
/// About how long one session, probes included, takes on a 2-CPU x86-64
/// box.
const SESSION_S: f64 = 15.0;
/// A probe follows every this many ingests. Probes spread over the run
/// see the box in its fast and its slow stretches alike; taken in bursts
/// between sessions, they saw a different mix on every run.
const PROBE_EVERY: usize = 2;
/// Probes per window of `mine_s` and `recover_s` (see `window_mean`):
/// about two seconds.
const PROBE_WINDOW: usize = 4;
/// Timed server openings per session; the last one is served.
const OPENS: usize = 2;

pub fn serve_mixed(run: &mut Run) {
    let seed = run.gen_seed(C20D10K_SEED);
    let mut rows = census_rows(seed);
    let (seed_rows, tail) = rows.split_at_mut(SEED_ROWS);
    run.shuffle(seed_rows, BATCH);
    run.shuffle(tail, BATCH);
    run.note(format!(
        "input: C20D10K* 2000 rows on its top 16 items (seed {seed:#x}), minsup {MINSUP}; \
         {SEED_ROWS} seed rows, {BATCH}-row ingests, 1 writer + 1 reader thread"
    ));
    let miner = miner(MINSUP);

    let mut setup_s = Vec::new();
    let mut sessions = Vec::new();
    let mut probes = Probes::default();
    let mut n_rules = 0;
    for _ in 0..run.repeats(SESSION_S) {
        let mut server = None;
        for _ in 0..OPENS {
            let db = TransactionDb::from_rows(rows[..SEED_ROWS].to_vec());
            drop(server.take());
            let t = Instant::now();
            server = Some(RuleServer::open(miner.clone(), db, ServedBasis::Compact));
            setup_s.push(secs(t));
        }
        let server = server.expect("at least one opening");
        let (server, session) = serve(run, server, &rows, None, Some((&miner, &mut probes)));
        sessions.push(session);
        n_rules = server.snapshot().n_rules();
        let calls = server
            .miner()
            .context()
            .closure_cache_stats()
            .engine_calls();
        run.check("0 engine calls on the served stream", calls == 0);
    }
    run.note(format!(
        "{} sessions, {} probes",
        sessions.len(),
        probes.mine_s.len()
    ));
    run.check(
        "0 generator fallbacks",
        sessions.iter().all(|s| s.moved.gen_fallbacks == 0),
    );

    let per_pass = sessions[0].batch_ms.len();
    let mut queries = Queries::default();
    let (mut batch_ms, mut publish_ms, mut ingest_s) = (Vec::new(), Vec::new(), Vec::new());
    for s in sessions {
        batch_ms.extend(s.batch_ms.iter().copied());
        publish_ms.extend(s.publish_ms);
        ingest_s.push(s.batch_ms.iter().sum::<f64>() / 1e3);
        queries.absorb(s.queries);
    }
    run.set("setup_s", median(&setup_s));
    let windows = (0..probes.mine_s.len()).step_by(PROBE_WINDOW);
    run.set("mine_s", window_mean(&probes.mine_s, windows, median));
    let ingested = (rows.len() - SEED_ROWS) as f64;
    run.set("ingest_rows_per_s", ingested / median(&ingest_s));
    run.set_latency(
        "ingest",
        "batch_p50_ms",
        "batch_tail_ms",
        &batch_ms,
        per_pass,
    );
    run.set_latency(
        "ingest to first read at the new epoch",
        "publish_p50_ms",
        "publish_tail_ms",
        &publish_ms,
        per_pass,
    );
    queries.report(run, n_rules);
    probes.trips.report(run);
    let windows = (0..probes.trips.recover_s.len()).step_by(PROBE_WINDOW);
    let recover_s = window_mean(&probes.trips.recover_s, windows, median);
    run.set("recover_s", recover_s);
    run.set("dataset.engine_build_ms", median(&probes.build_s) * 1e3);

    if run.traced {
        traced_session(run, &miner, &rows, &batch_ms, &ingest_s);
        let db = TransactionDb::from_rows(rows.clone());
        closed_only(run, &db, MINSUP, median(&probes.mine_s));
    }
}

/// Re-mines of the served rows and checkpoint round trips of the
/// writer's session, taken by the writer between ingests.
#[derive(Default)]
struct Probes {
    build_s: Vec<f64>,
    mine_s: Vec<f64>,
    trips: RoundTrips,
}

impl Probes {
    /// One re-mine of the session's rows, then one round trip of the
    /// session, whose recovered bases must equal that re-mine.
    fn once(&mut self, run: &mut Run, miner: &RuleMiner, session: &StreamingMiner) {
        let mines = remine(run, miner, session.db(), 1);
        self.build_s.extend(mines.build_s);
        self.mine_s.extend(mines.mine_s);
        self.trips.once(run, session, &mines.bases);
    }
}

/// What the reader thread measured and checked.
#[derive(Default)]
struct Read {
    lat_us: Vec<f64>,
    /// Busy time, oracle checks excluded.
    wall_s: f64,
    /// When the reader first answered at each new epoch.
    seen: Vec<(u64, Instant)>,
    checks: u64,
    mismatches: u64,
    linear_scanned: u64,
}

/// What one served session measured.
struct Session {
    batch_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    /// Per ingest: from the end of the `ingest` call to the reader's first
    /// answer at the new epoch.
    visible_us: Vec<f64>,
    queries: Queries,
    moved: Moved,
}

/// The traced run's twin: a second session over the same seed replays
/// each batch after the server's `ingest`, timing `push_batch` (with the
/// dataset and lattice shadow under it), `bases()` and
/// `ServingSnapshot::from_bases` apart.
struct Twin {
    session: StreamingMiner,
    shadow: Shadow,
}

/// Runs one session: the writer on this thread, the reader on a second
/// one. With probes, the writer takes one after every `PROBE_EVERY`-th
/// ingest.
fn serve(
    run: &mut Run,
    mut server: RuleServer,
    rows: &[Vec<u32>],
    mut twin: Option<&mut Twin>,
    mut probes: Option<(&RuleMiner, &mut Probes)>,
) -> (RuleServer, Session) {
    let done = AtomicBool::new(false);
    let mut reader = server.reader();
    let ((log, moved), read) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut read = Read::default();
            let mut epoch = reader.epoch();
            let begin = Instant::now();
            let mut checks_s = 0.0;
            let mut i = 0;
            while !done.load(Ordering::SeqCst) {
                let basket = &rows[i % rows.len()];
                let t = Instant::now();
                let answer = reader.match_basket(basket);
                let end = Instant::now();
                read.lat_us.push(end.duration_since(t).as_secs_f64() * 1e6);
                if answer.epoch() != epoch {
                    epoch = answer.epoch();
                    read.seen.push((epoch, end));
                }
                if i.is_multiple_of(CHECK_EVERY) {
                    let (linear, scanned) = answer.snapshot().match_basket_linear(basket);
                    read.linear_scanned += scanned;
                    read.checks += 1;
                    read.mismatches += u64::from(linear != answer.ids());
                    checks_s += secs(end);
                }
                i += 1;
            }
            read.wall_s = secs(begin) - checks_s;
            read
        });
        // The writer runs on this thread, so the probes allocate from the
        // main heap: on a spawned writer, `peak_rss_mb` spread by 20% from
        // run to run with how the two threads' heaps fragmented.
        let finish = Finish(&done);
        let mut log = Vec::new();
        let mut moved = Moved::default();
        let n_batches = rows[SEED_ROWS..].chunks(BATCH).len();
        for (b, chunk) in rows[SEED_ROWS..].chunks(BATCH).enumerate() {
            let batch = chunk.to_vec();
            let start = Instant::now();
            let ingested = server.ingest(batch);
            let end = Instant::now();
            let Some(delta) = run.ok("ingest", ingested) else {
                continue;
            };
            moved.absorb(&delta);
            log.push((server.epoch(), start, end));
            if let Some(twin) = twin.as_deref_mut() {
                twin_batch(run, twin, chunk, b as u64, start, end);
            }
            if let Some((miner, probes)) = probes.as_mut() {
                if (b + 1).is_multiple_of(PROBE_EVERY) || b + 1 == n_batches {
                    probes.once(run, miner, server.miner());
                }
            }
        }
        drop(finish);
        ((log, moved), reader.join().expect("reader thread panicked"))
    });

    let stats = server.stats();
    run.ops(read.lat_us.len());
    run.checks(
        "indexed match equals the linear scan",
        read.checks,
        read.mismatches,
    );
    let seen = read.seen;
    let queries = Queries {
        lat_us: read.lat_us,
        wall_s: read.wall_s,
        probes: stats.index_probes,
        scanned: stats.rules_scanned,
        fired: stats.rules_fired,
        linear_scanned: read.linear_scanned,
        linear_checks: read.checks,
        refreshes: stats.snapshot_refreshes,
    };
    let (mut publish_ms, mut visible_us) = (Vec::new(), Vec::new());
    for &(epoch, start, end) in &log {
        if let Some(&(_, at)) = seen.iter().find(|&&(e, _)| e == epoch) {
            publish_ms.push(at.duration_since(start).as_secs_f64() * 1e3);
            let early = end.saturating_duration_since(at).as_secs_f64();
            visible_us.push((at.saturating_duration_since(end).as_secs_f64() - early) * 1e6);
        }
    }
    let session = Session {
        batch_ms: log
            .iter()
            .map(|&(_, s, e)| e.duration_since(s).as_secs_f64() * 1e3)
            .collect(),
        publish_ms,
        visible_us,
        queries,
        moved,
    };
    (server, session)
}

/// Tells the reader the writer is done when dropped, so the reader stops
/// even if the writer panics.
struct Finish<'a>(&'a AtomicBool);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn twin_batch(
    run: &mut Run,
    twin: &mut Twin,
    chunk: &[Vec<u32>],
    op: u64,
    start: Instant,
    end: Instant,
) {
    let ingest = run.tracer.record("serve.ingest", op, None, start, end);
    let batch = chunk.to_vec();
    let t = Instant::now();
    let pushed = twin.session.push_batch(batch);
    let push = run
        .tracer
        .record("stream.push", op, Some(ingest), t, Instant::now());
    if run.ok("twin push_batch", pushed).is_none() {
        return;
    }
    twin.shadow.replay(run, chunk.to_vec(), op, push);
    let patch_us = run.tracer.span(push).micros() - run.tracer.children_us(push);
    run.add("stream.patch_us", patch_us);
    run.add("stream.patch_negative_batches", f64::from(patch_us < 0.0));
    let epoch = twin.session.epoch();
    let bases = run
        .tracer
        .timed("stream.bases", op, Some(ingest), || twin.session.bases());
    let snap = run
        .tracer
        .timed("serve.snapshot_build", op, Some(ingest), || {
            ServingSnapshot::from_bases(bases, ServedBasis::Compact, epoch)
        });
    std::hint::black_box(snap.n_rules());
}

fn traced_session(
    run: &mut Run,
    miner: &RuleMiner,
    rows: &[Vec<u32>],
    batch_ms: &[f64],
    ingest_s: &[f64],
) {
    let seed = TransactionDb::from_rows(rows[..SEED_ROWS].to_vec());
    let mut twin = Twin {
        session: miner.streaming(seed.clone()),
        shadow: Shadow::new(&seed, Window::Unbounded),
    };
    let server = RuleServer::open(miner.clone(), seed, ServedBasis::Compact);
    let t = Instant::now();
    // The traced session probes like the untraced ones, so the tracing
    // overhead compares like with like; its probes are not reported.
    let mut probes = Probes::default();
    let (server, session) = serve(
        run,
        server,
        rows,
        Some(&mut twin),
        Some((miner, &mut probes)),
    );
    session.moved.report(run);
    run.set("serve.publish_self_us", median(&session.visible_us));
    run.set("trace.pass_wall_delta_s", secs(t) - median(ingest_s));
    run.set(
        "trace.batch_p50_delta_ms",
        median(&session.batch_ms) - median(batch_ms),
    );
    for (metric, span) in [
        ("serve.ingest_us", "serve.ingest"),
        ("serve.snapshot_build_us", "serve.snapshot_build"),
        ("stream.push_us", "stream.push"),
        ("stream.bases_us", "stream.bases"),
        ("dataset.append_us", "dataset.append"),
        ("dataset.apply_delta_us", "dataset.apply_delta"),
        ("dataset.compact_us", "dataset.compact"),
        ("lattice.insert_us", "lattice.insert"),
    ] {
        run.set(metric, run.tracer.total_us(span));
    }
    let lattice = twin.shadow.lattice();
    let slots = lattice.n_nodes();
    let live = (0..slots).filter(|&i| lattice.is_live(i)).count();
    run.check(
        "shadow lattice holds the server's slots",
        slots == server.miner().n_closure_classes(),
    );
    run.set("lattice.slots", slots as f64);
    run.set("lattice.live_slots", live as f64);
    run.set("lattice.dead_slots", (slots - live) as f64);
    run.set("lattice.edges", lattice.n_edges() as f64);
    let min_count = twin.session.bases().min_count;
    let t = Instant::now();
    std::hint::black_box(lattice.snapshot(min_count));
    run.set("lattice.snapshot_us", secs(t) * 1e6);
    run.set(
        "stream.lux_full_rules",
        twin.session.bases().lux_full.len() as f64,
    );
    let stats = server.miner().context().closure_cache_stats();
    run.set("dataset.engine_calls", stats.engine_calls() as f64);
    run.set("dataset.extents", stats.extents as f64);
    run.set("dataset.bytes_copied", stats.bytes_copied as f64);
    run.set(
        "dataset.storage_bytes",
        server.miner().db().storage_bytes() as f64,
    );
    run.set("dataset.segments", server.miner().n_segments() as f64);
}
