//! The binding perf-regression gate.
//!
//! The committed `BENCH_<name>.json` artifacts are not just a trail —
//! they are *baselines*. After CI re-runs the benches, the `bench-gate`
//! binary compares each fresh artifact against the committed copy,
//! metric by metric, and fails the build when a metric regresses beyond
//! its band:
//!
//! * **Deterministic counters** (engine calls, bytes copied) get
//!   [`Band::Exact`]: the fresh value must not exceed the baseline *at
//!   all*. These tallies are scheduling-independent, so any increase is
//!   a genuine algorithmic regression, not noise.
//! * **Wall-clock metrics** get [`Band::UpperRatio`] with a deliberately
//!   loose factor (5× by default): shared CI runners time-slice and
//!   thermal-throttle, so only catastrophic slowdowns — a kernel
//!   silently falling back to its scalar path, an accidental `O(n²)` —
//!   should trip the gate, never scheduler jitter. The factor is the
//!   documented noise band.
//! * **Speedup ratios** (chunked-over-scalar, gallop-over-merge) get
//!   [`Band::LowerRatio`]: the fresh ratio must stay above a fraction of
//!   the baseline's. A ratio of two wall-clocks on the same box cancels
//!   most machine noise, so its band (0.25 by default) is tighter in
//!   spirit than raw wall-clock while still tolerating slow runners.
//!
//! Metrics are addressed by dotted paths into the artifact JSON
//! (`pipelines.1.engine_calls` — object keys and array indices mixed
//! freely), so the gate needs no per-bench deserialization types.

use serde::{get_field, Value};
use std::fmt;

/// How much a metric may move before the gate fails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Band {
    /// `current <= baseline`, exactly. For deterministic counters.
    Exact,
    /// `current <= baseline * factor`. For noisy lower-is-better
    /// metrics (wall-clock); the factor is the documented noise band.
    UpperRatio(f64),
    /// `current >= baseline * factor`. For higher-is-better metrics
    /// (speedup ratios); `factor < 1` tolerates runner slowness.
    LowerRatio(f64),
}

impl Band {
    /// Whether `current` is acceptable against `baseline`.
    pub fn admits(self, baseline: f64, current: f64) -> bool {
        match self {
            Band::Exact => current <= baseline,
            Band::UpperRatio(factor) => current <= baseline * factor,
            Band::LowerRatio(factor) => current >= baseline * factor,
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::Exact => write!(f, "exact (current <= baseline)"),
            Band::UpperRatio(r) => write!(f, "<= {r}x baseline"),
            Band::LowerRatio(r) => write!(f, ">= {r}x baseline"),
        }
    }
}

/// One gated metric: a dotted path into the artifact plus its band.
#[derive(Clone, Debug)]
pub struct MetricCheck {
    /// Dotted path (`streaming_engine_calls`, `pipelines.1.wall_us`).
    pub path: &'static str,
    /// The regression band applied to it.
    pub band: Band,
}

impl MetricCheck {
    /// An exact-band check (deterministic counters).
    pub const fn exact(path: &'static str) -> Self {
        MetricCheck {
            path,
            band: Band::Exact,
        }
    }

    /// A loose upper band (wall-clock metrics).
    pub const fn wall(path: &'static str) -> Self {
        MetricCheck {
            path,
            band: Band::UpperRatio(WALL_NOISE_BAND),
        }
    }

    /// A lower band (speedup ratios that must not collapse).
    pub const fn speedup(path: &'static str) -> Self {
        MetricCheck {
            path,
            band: Band::LowerRatio(SPEEDUP_NOISE_BAND),
        }
    }
}

/// The documented wall-clock noise band: a fresh run may be up to this
/// many times slower than the committed baseline before the gate calls
/// it a regression. Loose on purpose — shared runners, not lab boxes.
pub const WALL_NOISE_BAND: f64 = 5.0;

/// The documented speedup noise band: a chunked/galloping speedup ratio
/// may shrink to this fraction of its baseline before the gate fails.
pub const SPEEDUP_NOISE_BAND: f64 = 0.25;

/// Resolves a dotted path against a JSON value: object segments by key,
/// array segments by index.
pub fn lookup<'v>(value: &'v Value, dotted: &str) -> Option<&'v Value> {
    let mut cursor = value;
    for segment in dotted.split('.') {
        cursor = match cursor {
            Value::Object(fields) => get_field(fields, segment)?,
            Value::Array(items) => items.get(segment.parse::<usize>().ok()?)?,
            _ => return None,
        };
    }
    Some(cursor)
}

/// The verdict on one gated metric.
#[derive(Clone, Debug)]
pub struct MetricVerdict {
    /// The dotted path that was checked.
    pub path: String,
    /// The band it was held to.
    pub band: Band,
    /// Baseline value, when present and numeric.
    pub baseline: Option<f64>,
    /// Current value, when present and numeric.
    pub current: Option<f64>,
    /// Whether the metric passed its band.
    pub ok: bool,
}

impl fmt::Display for MetricVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.ok { "ok  " } else { "FAIL" };
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => write!(
                f,
                "{state} {path}: baseline {b} -> current {c} [{band}]",
                path = self.path,
                band = self.band
            ),
            (b, c) => write!(
                f,
                "{state} {path}: baseline {b:?} -> current {c:?} (missing or non-numeric)",
                path = self.path
            ),
        }
    }
}

/// The gate's report for one bench artifact.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// One verdict per checked metric.
    pub verdicts: Vec<MetricVerdict>,
}

impl GateReport {
    /// Whether every metric passed.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.ok)
    }

    /// The failed verdicts.
    pub fn failures(&self) -> impl Iterator<Item = &MetricVerdict> {
        self.verdicts.iter().filter(|v| !v.ok)
    }
}

/// Checks `current` against `baseline` for every metric in `checks`.
///
/// A metric missing (or non-numeric) on *either* side fails its verdict:
/// a gate that silently skips a vanished metric is not binding — renames
/// must update the check list and the committed baseline together.
pub fn check_metrics(baseline: &Value, current: &Value, checks: &[MetricCheck]) -> GateReport {
    let verdicts = checks
        .iter()
        .map(|check| {
            let baseline = lookup(baseline, check.path).and_then(Value::as_f64);
            let current = lookup(current, check.path).and_then(Value::as_f64);
            let ok = match (baseline, current) {
                (Some(b), Some(c)) => check.band.admits(b, c),
                _ => false,
            };
            MetricVerdict {
                path: check.path.to_owned(),
                band: check.band,
                baseline,
                current,
                ok,
            }
        })
        .collect();
    GateReport { verdicts }
}

/// The per-bench check lists the gate binary applies: which metrics of
/// each committed `BENCH_<name>.json` are load-bearing, and how tightly.
///
/// Counters are exact; wall-clocks ride the [`WALL_NOISE_BAND`];
/// speedup ratios ride the [`SPEEDUP_NOISE_BAND`].
pub fn gated_benches() -> Vec<(&'static str, Vec<MetricCheck>)> {
    vec![
        (
            "stream",
            vec![
                MetricCheck::exact("streaming_engine_calls"),
                MetricCheck::exact("streaming_bytes_copied"),
                MetricCheck::exact("prefix_probes.0.bytes_copied"),
                MetricCheck::exact("prefix_probes.1.bytes_copied"),
                MetricCheck::wall("prefix_probes.0.push_wall_us"),
            ],
        ),
        (
            "window",
            vec![
                // A windowed replay's maintenance is pure set algebra:
                // any engine call at all is a structural regression, and
                // the expiry schedule is deterministic for the fixed
                // replay, as is the storage the windowed view retains
                // after compaction (the window-bounded-storage pin).
                MetricCheck::exact("engine_calls"),
                MetricCheck::exact("max_calls_per_expiry_batch"),
                MetricCheck::exact("expired_total"),
                MetricCheck::exact("storage_bytes_windowed"),
                MetricCheck::wall("windowed_wall_us"),
            ],
        ),
        (
            "fused",
            vec![
                // pipelines[1] is the fused tally (staged is [0]).
                MetricCheck::exact("pipelines.1.engine_calls"),
                MetricCheck::exact("pipelines.1.supports"),
                MetricCheck::wall("pipelines.1.wall_us"),
            ],
        ),
        (
            "counting",
            vec![
                MetricCheck::speedup("kernel_probes.0.speedup"),
                MetricCheck::speedup("kernel_probes.1.speedup"),
                MetricCheck::wall("backends.0.batch_wall_us"),
            ],
        ),
        (
            "gen",
            vec![
                // Generator maintenance on the streaming paths is local
                // by invariant: the committed baseline holds zero
                // transversal fallbacks, so any fallback at all fails
                // the exact band. The candidate and subsumption
                // counters are deterministic for the fixed drift replay
                // and the wide_flat schedule — more work than the
                // baseline means the local rules got weaker.
                MetricCheck::exact("stream_transversal_fallbacks"),
                MetricCheck::exact("stream_candidates"),
                MetricCheck::exact("stream_subsumption_checks"),
                MetricCheck::exact("local_transversal_fallbacks"),
                MetricCheck::exact("local_candidates"),
                // The ablation headline: the oracle leg must stay
                // slower than the local rules by at least the noise
                // band's fraction of the committed ratio.
                MetricCheck::speedup("oracle_over_local"),
                MetricCheck::wall("local_wall_us"),
            ],
        ),
        (
            "serving",
            vec![
                // The index phase replays a fixed query set single-
                // threaded, so its counters are fully deterministic:
                // more probes or scans than the baseline means the
                // antecedent index got weaker, not that CI got slow.
                MetricCheck::exact("index.index_probes"),
                MetricCheck::exact("index.rules_scanned"),
                MetricCheck::exact("index.rules_fired"),
                MetricCheck::exact("index.snapshots_published"),
                // The read path holds no lock by construction; any
                // nonzero count here is a structural regression.
                MetricCheck::exact("mixed_load.0.reader_lock_waits"),
                MetricCheck::exact("mixed_load.1.reader_lock_waits"),
                MetricCheck::wall("mixed_load.0.p50_us"),
            ],
        ),
        (
            "recover",
            vec![
                // The recovery invariant, pinned exactly: a checkpoint
                // restore deserializes the rows, lattice and window and
                // derives the bases from the lattice alone, so both cells
                // hold zero support-engine calls during the restore — any
                // call at all is a structural regression.
                MetricCheck::exact("cells.0.restore_engine_calls"),
                MetricCheck::exact("cells.1.restore_engine_calls"),
                // Journal replay rides the streaming delta path (also
                // engine-call-free), and the fixed batch schedule plus
                // fold policy make the replayed tail deterministic.
                MetricCheck::exact("cells.0.replay_engine_calls"),
                MetricCheck::exact("cells.1.replay_engine_calls"),
                MetricCheck::exact("cells.0.batches_replayed"),
                MetricCheck::exact("cells.1.batches_replayed"),
                // The restored payload is the fixed replay's lattice and
                // rows, and a clean recovery resumes the generation it
                // restored: any byte more, or any checkpoint written, is a
                // regression.
                MetricCheck::exact("cells.0.checkpoint_bytes"),
                MetricCheck::exact("cells.1.checkpoint_bytes"),
                MetricCheck::exact("cells.0.generations_written"),
                MetricCheck::exact("cells.1.generations_written"),
                // The headline: recovering must stay cheap relative to
                // the committed baseline (restore + 2-batch replay).
                MetricCheck::wall("cells.0.recover_wall_us"),
                MetricCheck::wall("cells.1.recover_wall_us"),
            ],
        ),
    ]
}

/// Flattens every failed verdict across a run's per-bench reports into
/// printable `bench: verdict` lines — the gate binary's exit summary.
///
/// An empty result means the run passed. Keeping this a pure function
/// (reports in, lines out) is what makes "the gate reports *all*
/// failures, not just the first" testable without spawning the binary.
pub fn failure_summary(results: &[(String, GateReport)]) -> Vec<String> {
    results
        .iter()
        .flat_map(|(name, report)| {
            report
                .failures()
                .map(move |verdict| format!("{name}: {verdict}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(calls: f64, wall: f64, speedup: f64) -> Value {
        serde_json::parse(&format!(
            r#"{{"engine_calls": {calls}, "nested": {{"rows": [{{"wall_us": {wall}}}]}},
                 "speedup": {speedup}}}"#
        ))
        .unwrap()
    }

    const CHECKS: &[MetricCheck] = &[
        MetricCheck::exact("engine_calls"),
        MetricCheck::wall("nested.rows.0.wall_us"),
        MetricCheck::speedup("speedup"),
    ];

    #[test]
    fn identical_runs_pass() {
        let base = artifact(207.0, 1000.0, 2.0);
        let report = check_metrics(&base, &base, CHECKS);
        assert!(report.passed(), "{:?}", report.verdicts);
    }

    #[test]
    fn counter_regressions_fail_exactly() {
        let base = artifact(207.0, 1000.0, 2.0);
        // One extra engine call — within any wall-clock noise band, but
        // counters are deterministic, so the gate must fail.
        let worse = artifact(208.0, 1000.0, 2.0);
        let report = check_metrics(&base, &worse, CHECKS);
        assert!(!report.passed());
        let failed: Vec<_> = report.failures().map(|v| v.path.as_str()).collect();
        assert_eq!(failed, ["engine_calls"]);
        // Improvements pass.
        let better = artifact(150.0, 1000.0, 2.0);
        assert!(check_metrics(&base, &better, CHECKS).passed());
    }

    #[test]
    fn wall_clock_rides_the_noise_band() {
        let base = artifact(207.0, 1000.0, 2.0);
        // 4.9× slower: inside the documented 5× band — noise, not a bug.
        let noisy = artifact(207.0, 4900.0, 2.0);
        assert!(check_metrics(&base, &noisy, CHECKS).passed());
        // 6× slower: beyond the band — the gate fails CI.
        let slow = artifact(207.0, 6000.0, 2.0);
        let report = check_metrics(&base, &slow, CHECKS);
        assert!(!report.passed());
        let failed: Vec<_> = report.failures().map(|v| v.path.as_str()).collect();
        assert_eq!(failed, ["nested.rows.0.wall_us"]);
    }

    #[test]
    fn collapsed_speedups_fail() {
        let base = artifact(207.0, 1000.0, 2.0);
        // The chunked kernel silently degrading to scalar parity (ratio
        // ~0.4 of baseline) is still admitted at 0.25×…
        let slower = artifact(207.0, 1000.0, 0.8);
        assert!(check_metrics(&base, &slower, CHECKS).passed());
        // …but a full collapse to below the floor is a regression.
        let collapsed = artifact(207.0, 1000.0, 0.4);
        let report = check_metrics(&base, &collapsed, CHECKS);
        assert!(!report.passed());
    }

    #[test]
    fn missing_metrics_are_binding_failures() {
        let base = artifact(207.0, 1000.0, 2.0);
        let renamed = serde_json::parse(r#"{"calls_engine": 100}"#).unwrap();
        let report = check_metrics(&base, &renamed, CHECKS);
        assert!(!report.passed());
        assert_eq!(report.failures().count(), CHECKS.len());
    }

    #[test]
    fn dotted_lookup_mixes_objects_and_arrays() {
        let v = artifact(1.0, 2.0, 3.0);
        assert_eq!(
            lookup(&v, "nested.rows.0.wall_us").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(lookup(&v, "nested.rows.1.wall_us"), None);
        assert_eq!(lookup(&v, "nested.missing"), None);
        assert_eq!(lookup(&v, "engine_calls.0"), None);
    }

    #[test]
    fn failure_summary_lists_every_failing_metric_across_benches() {
        let base = artifact(207.0, 1000.0, 2.0);
        // Two regressions in one bench, one in another: the summary must
        // carry all three, prefixed by their bench, in report order.
        let worse_a = artifact(300.0, 9000.0, 2.0);
        let worse_b = artifact(207.0, 1000.0, 0.1);
        let clean = check_metrics(&base, &base, CHECKS);
        let results = vec![
            ("alpha".to_owned(), check_metrics(&base, &worse_a, CHECKS)),
            ("clean".to_owned(), clean),
            ("beta".to_owned(), check_metrics(&base, &worse_b, CHECKS)),
        ];
        let lines = failure_summary(&results);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].starts_with("alpha: FAIL engine_calls"));
        assert!(lines[1].starts_with("alpha: FAIL nested.rows.0.wall_us"));
        assert!(lines[2].starts_with("beta: FAIL speedup"));
        assert!(lines.iter().all(|l| !l.starts_with("clean:")));
    }

    #[test]
    fn failure_summary_is_empty_for_a_passing_run() {
        let base = artifact(207.0, 1000.0, 2.0);
        let results = vec![("only".to_owned(), check_metrics(&base, &base, CHECKS))];
        assert!(failure_summary(&results).is_empty());
    }

    #[test]
    fn gated_bench_paths_resolve_against_committed_shapes() {
        // Miniature copies of the real artifact shapes: every gated path
        // must resolve, so a bench record rename cannot silently turn
        // the gate into a no-op (missing metrics fail, but this test
        // catches the drift at `cargo test` time, before CI).
        let stream = serde_json::parse(
            r#"{"streaming_engine_calls": 0, "streaming_bytes_copied": 12352,
                "prefix_probes": [
                  {"bytes_copied": 1544, "push_wall_us": 1571.2},
                  {"bytes_copied": 1544, "push_wall_us": 2207.4}]}"#,
        )
        .unwrap();
        let fused = serde_json::parse(
            r#"{"pipelines": [
                  {"engine_calls": 207, "supports": 14, "wall_us": 1083.7},
                  {"engine_calls": 193, "supports": 0, "wall_us": 714.1}]}"#,
        )
        .unwrap();
        let counting = serde_json::parse(
            r#"{"kernel_probes": [{"speedup": 2.0}, {"speedup": 4.0}],
                "backends": [{"batch_wall_us": 900.0}]}"#,
        )
        .unwrap();
        let window = serde_json::parse(
            r#"{"rows": 768, "batch": 64, "window": 256, "engine_calls": 0,
                "max_calls_per_expiry_batch": 0, "expired_total": 512,
                "expiry_batches": 8, "storage_bytes_windowed": 7200,
                "storage_bytes_unbounded": 21600, "bytes_reclaimed": 14400,
                "windowed_wall_us": 28832.2, "remine_wall_us": 1317.7}"#,
        )
        .unwrap();
        let gen = serde_json::parse(
            r#"{"rows": 768, "batch": 64, "window": 256,
                "stream_candidates": 4200, "stream_subsumption_checks": 9100,
                "stream_transversal_fallbacks": 0, "wide_width": 28,
                "local_candidates": 11000, "local_subsumption_checks": 420000,
                "local_transversal_fallbacks": 0,
                "oracle_transversal_fallbacks": 56,
                "local_wall_us": 3100.0, "oracle_wall_us": 56000.0,
                "oracle_over_local": 18.0}"#,
        )
        .unwrap();
        let serving = serde_json::parse(
            r#"{"index": {"n_rules": 40, "queries": 256, "index_probes": 700,
                          "rules_scanned": 3000, "linear_rules_scanned": 10240,
                          "rules_fired": 900, "snapshots_published": 5},
                "mixed_load": [
                  {"readers": 1, "queries": 256, "p50_us": 4.0, "p99_us": 20.0,
                   "qps": 50000.0, "reader_lock_waits": 0},
                  {"readers": 4, "queries": 1024, "p50_us": 6.0, "p99_us": 40.0,
                   "qps": 90000.0, "reader_lock_waits": 0}]}"#,
        )
        .unwrap();
        let recover = serde_json::parse(
            r#"{"fold_every": 6, "cells": [
                  {"dataset": "C20D10K*", "rows": 500, "batch": 64,
                   "checkpoint_bytes": 57185, "generations_written": 0,
                   "batches_replayed": 2,
                   "journal_bytes_replayed": 2400, "restore_engine_calls": 0,
                   "replay_engine_calls": 0, "recover_wall_us": 800.0,
                   "remine_wall_us": 1300.0},
                  {"dataset": "DRIFT*", "rows": 512, "batch": 64,
                   "checkpoint_bytes": 22944, "generations_written": 0,
                   "batches_replayed": 2,
                   "journal_bytes_replayed": 2100, "restore_engine_calls": 0,
                   "replay_engine_calls": 0, "recover_wall_us": 700.0,
                   "remine_wall_us": 1200.0}]}"#,
        )
        .unwrap();
        for (name, value) in [
            ("stream", &stream),
            ("window", &window),
            ("fused", &fused),
            ("counting", &counting),
            ("gen", &gen),
            ("serving", &serving),
            ("recover", &recover),
        ] {
            let checks = gated_benches()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, c)| c)
                .unwrap();
            let report = check_metrics(value, value, &checks);
            assert!(report.passed(), "{name}: {:?}", report.verdicts);
        }
    }
}
