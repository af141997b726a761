//! `window_supervised`: a drifting Gaussian stream goes through
//! `SupervisedIngest::run_stream_windowed` with a `LastN` window on one
//! worker shard (the dispatching caller is the second thread; both take
//! turns on the one CPU the run is confined to, see [`crate::host`]).
//! Checkpoints run periodically and one scripted worker crash per run
//! makes the replay path do real work; each run ends with `query_window`.
//! Window bucket merges, checkpoint encode/validate (the snapshot layer on
//! big shard chains) and recovery do the work. Tenant, queries and
//! telemetry stay idle.

use crate::host::Gauge;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{paper_scale, Ctx, R};
use std::hint::black_box;
use std::time::Instant;
use streamhull::prelude::*;
use streamhull::streamgen::Drift;
use streamhull::telemetry::names;
use streamhull::{metrics, queries};

/// Points per stream: short, so a run sees hundreds of windows.
const N: usize = 8192;
/// The window: the last `WINDOW` points.
const WINDOW: u64 = 2048;
/// Per-shard checkpoint interval, in points (4 chunks).
const CHECKPOINT_EVERY: u64 = 4096;
/// The chunk whose dispatch crashes the worker: 3 chunks past the first
/// checkpoint, so recovery restores it and replays those chunks.
const CRASH_CHUNK: u64 = 4 + 3;
/// Window queries per run: the first ends the run, the rest are
/// dashboard refreshes of the same window.
const QUERIES_PER_REP: usize = 16;
/// Windows that give the deterministic ratios. A run that has not
/// reached this many when its time is up ingests further
/// streams, untimed, so the ratios depend on the seed alone, not on the
/// program's speed.
const QUALITY_WINDOWS: usize = 512;
/// Paired reps of the traced-only side measurements.
const SIDE_REPS: usize = 4;

/// The stream: Gaussian jitter around a centre drifting across the plane.
fn drift_stream(seed: u64, n: usize) -> Vec<Point2> {
    Drift::new(
        seed,
        n,
        Point2::new(0.0, 0.0),
        Point2::new(120.0, 60.0),
        1.0,
    )
    .collect()
}

fn config() -> WindowConfig {
    WindowConfig::last_n(WINDOW)
}

fn engine() -> ShardedIngest {
    ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(R), 1)
}

fn supervised() -> SupervisedIngest {
    SupervisedIngest::new(engine())
        .with_checkpoint_interval(CHECKPOINT_EVERY)
        .with_fault_plan(FaultPlan::new().crash(0, CRASH_CHUNK))
}

/// The window query a user makes: the merged window hull with its bound,
/// and the diameter read off it.
fn window_query(run: &WindowedRun) -> (WindowAnswer, Option<f64>) {
    let answer = run.query_window();
    let bound = answer.error_bound();
    black_box(queries::diameter(answer.hull()));
    (answer, bound)
}

/// Runs the workload for `ctx.seconds` of wall-clock time.
///
/// Every rep ingests a fresh stream, generated outside the measured
/// time; each rep's window answer is checked and gives one sample of the
/// deterministic ratios.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.trace);
    let mut gauge = Gauge::new();

    let mut setup_s = Vec::new();
    let mut rep_pps = Vec::new();
    let mut traced_rep_ns = Vec::new();
    let mut plain_rep_ns = Vec::new();
    let mut query_ns = Vec::new();
    let mut error_ratio = Vec::new();
    let mut bar_ratio = Vec::new();
    let mut buckets = Vec::new();
    let mut report = None;
    let mut first_stream = Vec::new();
    let mut rep = 0u64;
    let start = Instant::now();
    loop {
        let timed = start.elapsed().as_secs_f64() < ctx.seconds;
        if !timed && error_ratio.len() >= QUALITY_WINDOWS {
            break;
        }
        // Set-up: input generation plus engine construction.
        let t0 = Instant::now();
        let points = drift_stream(ctx.sub_seed(rep), N);
        let sup = supervised();
        setup_s.push(t0.elapsed().as_secs_f64());

        // Traced runs record every other timed rep, so the unrecorded
        // reps give the tracing overhead.
        if ctx.trace {
            tracer.recording = timed && rep.is_multiple_of(2);
        }
        let mut rep_query_ns = Vec::with_capacity(QUERIES_PER_REP);
        let ((run, answer, bound), rep_ns) = tracer.span("bench.rep", rep, |t| {
            let (run, _) = t.span("recovery.run_stream_windowed", rep, |_| {
                sup.run_stream_windowed(points.iter().copied(), config())
            });
            let ((answer, bound), ns) =
                t.span("window.query_window", rep, |_| window_query(&run.run));
            rep_query_ns.push(ns as f64);
            (run, answer, bound)
        });
        for _ in 1..QUERIES_PER_REP {
            let (_, ns) = tracer.span("window.query_window", rep, |_| {
                black_box(window_query(&run.run).1)
            });
            rep_query_ns.push(ns as f64);
        }
        if timed {
            gauge.sample();
            rep_pps.push(N as f64 / (rep_ns as f64 * 1e-9));
            query_ns.extend(rep_query_ns);
            if tracer.recording {
                traced_rep_ns.push(rep_ns as f64);
            } else {
                plain_rep_ns.push(rep_ns as f64);
            }
        }
        out.attempted += N as u64 + QUERIES_PER_REP as u64;

        // Output checks.
        out.check("run is not degraded", !run.is_degraded(), || {
            format!("lost {} points", run.report.lost_points)
        });
        out.failed += run.report.lost_points;
        out.check("the replay ran", run.report.replayed_points > 0, || {
            format!("{:?}", run.report.events)
        });
        let seen = run.run.points_seen();
        out.check("points_seen == n", seen == N as u64, || {
            format!("{seen} of {N}")
        });
        out.check(
            "window bound is finite",
            bound.is_some_and(f64::is_finite),
            || format!("{bound:?}"),
        );
        let gap = coverage_gap(answer.hull(), &points[N - WINDOW as usize..], bound);
        out.check(
            "window covers the last N points within its bound",
            gap <= 0.0,
            || format!("a support value of the last {WINDOW} points exceeds the answer's by {gap} beyond its bound {bound:?}"),
        );
        // The chain covers a suffix of the stream: the exact hull of those
        // points is the reference.
        let covered = &points[N - (answer.merged_points as usize).min(N)..];
        let mut exact = ExactHull::new();
        for &p in covered {
            exact.insert(p);
        }
        let scale = paper_scale(queries::diameter(exact.hull_ref()).map_or(0.0, |d| d.2));
        error_ratio.push(metrics::hausdorff_error(answer.hull(), exact.hull_ref()) / scale);
        bar_ratio.push(bound.unwrap_or(f64::INFINITY) / scale);
        buckets.push(answer.buckets as f64);
        report = Some(run.report);
        if first_stream.is_empty() {
            first_stream = points;
        }
        rep += 1;
    }

    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("ingest_pts_per_s", median(&rep_pps));
    out.e2e
        .insert("query_p50_us", percentile(&query_ns, 50.0) / 1e3);
    out.e2e
        .insert("query_p99_us", percentile(&query_ns, 99.0) / 1e3);
    out.e2e
        .insert("hull_error_ratio", mean(&error_ratio[..QUALITY_WINDOWS]));
    out.e2e
        .insert("error_bar_ratio", median(&bar_ratio[..QUALITY_WINDOWS]));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.notes.insert("reps", rep as f64);
    out.notes.insert("gauge_samples", gauge.samples() as f64);
    out.scale_to_reference_host(gauge.slowdown());
    out.notes.insert("query_samples", query_ns.len() as f64);

    if ctx.trace {
        tracer.recording = true;
        let report = report.expect("at least one rep");
        out.layer(
            "window.query_ms",
            median(&tracer.durations_ns("window.query_window")) / 1e6,
        );
        out.layer("window.buckets", median(&buckets));
        out.layer(
            "recovery.run_ms",
            median(&tracer.durations_ns("recovery.run_stream_windowed")) / 1e6,
        );
        out.layer(
            "recovery.checkpoints_taken",
            report.checkpoints_taken as f64,
        );
        out.layer("recovery.replayed_points", report.replayed_points as f64);
        out.layer(
            "trace.overhead",
            median(&traced_rep_ns) / median(&plain_rep_ns),
        );
        out.self_fracs(&tracer.self_ns_by_layer("bench.rep"));
        side_measurements(&mut out, &mut tracer, &supervised(), &first_stream);
        if let Err(e) = tracer.write_jsonl(&crate::trace_path("window_supervised", ctx.seed)) {
            eprintln!("hullbench: could not write spans: {e}");
        }
    }
    out
}

/// Directions of the coverage check.
const COVERAGE_DIRS: usize = 64;

/// How far the points `window` stick out of the answer hull grown by its
/// bound, measured along [`COVERAGE_DIRS`] directions: the largest
/// excess of a window point's support value over the hull's plus the
/// bound. Zero or less when the answer covers the window; the bound is a
/// Hausdorff bound against covered points, so it must be. Infinite
/// without a bound.
fn coverage_gap(hull: &ConvexPolygon, window: &[Point2], bound: Option<f64>) -> f64 {
    let Some(bound) = bound else {
        return f64::INFINITY;
    };
    (0..COVERAGE_DIRS)
        .map(|k| {
            let a = std::f64::consts::TAU * k as f64 / COVERAGE_DIRS as f64;
            let u = Vec2::new(a.cos(), a.sin());
            let support = |pts: &[Point2]| {
                pts.iter()
                    .map(|p| p.dot(u))
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let want = support(window);
            let tol = 1e-9 * want.abs().max(1.0);
            want - (support(hull.vertices()) + bound + tol)
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Traced-only measurements of single layers on the first stream.
fn side_measurements(
    out: &mut Outcome,
    tracer: &mut Tracer,
    sup: &SupervisedIngest,
    points: &[Point2],
) {
    // Supervision cost: the supervised run (checkpoints, the crash and
    // its replay) against the unsupervised engine on the same stream.
    let plain = engine();
    let mut ratios = Vec::new();
    for i in 0..SIDE_REPS as u64 {
        let supervised = |t: &mut Tracer| {
            t.span("recovery.supervised", i, |_| {
                black_box(
                    sup.run_stream_windowed(points.iter().copied(), config())
                        .run
                        .points_seen(),
                )
            })
            .1 as f64
        };
        let unsupervised = |t: &mut Tracer| {
            t.span("window.unsupervised", i, |_| {
                black_box(
                    plain
                        .run_stream_windowed(points.iter().copied(), config())
                        .points_seen(),
                )
            })
            .1 as f64
        };
        let (s, u) = if i.is_multiple_of(2) {
            let s = supervised(tracer);
            (s, unsupervised(tracer))
        } else {
            let u = unsupervised(tracer);
            (supervised(tracer), u)
        };
        ratios.push(s / u);
    }
    out.layer("recovery.overhead", median(&ratios));

    // The window chain alone: direct `WindowedSummary::insert_batch` over
    // the engine's chunks, with a registry attached to count merges.
    let chunk = plain.chunk();
    let mut ns_per_pt = Vec::new();
    let mut merges = 0;
    for i in 0..SIDE_REPS as u64 {
        let tel = Telemetry::new();
        let (_, ns) = tracer.span("window.insert_batch", i, |_| {
            let mut w = engine().builder().windowed(config()).with_telemetry(tel);
            for c in points.chunks(chunk) {
                w.insert_batch(c);
            }
            black_box(w.points_seen())
        });
        ns_per_pt.push(ns as f64 / points.len() as f64);
        merges = tel.scrape().counter_total(names::WINDOW_MERGES);
    }
    out.layer("window.insert_ns_per_pt", median(&ns_per_pt));
    out.layer("window.merges", merges as f64);
}
