//! `stream_ingest`: the paper's own use case. Long streams — rotating,
//! drifting ellipses — go through `ShardedIngest::run` with two shards
//! while the caller blocks in the join; the run is confined to one CPU
//! (see [`crate::host`]), so the two shard threads take turns on it.
//! Summaries, geometry and the parallel fan-out/merge do all the work;
//! the working set is one summary. Tenant, snapshot, window and recovery
//! stay idle.

use crate::host::Gauge;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{paper_scale, Ctx, R};
use std::hint::black_box;
use std::time::Instant;
use streamhull::prelude::*;
use streamhull::streamgen::Ellipse;
use streamhull::{metrics, queries};

/// Points per stream.
const N: usize = 1 << 18;
/// Reps on each fresh stream.
const REPS_PER_STREAM: u64 = 4;
/// Shards of the parallel engine (the host has two CPUs).
const SHARDS: usize = 2;
/// Directions of the extent panel read with each answer.
const EXTENT_DIRS: usize = 16;
/// Answer reads per rep: the first builds the hull, the rest are
/// dashboard refreshes of the same answer.
const READS_PER_REP: usize = 16;
/// Streams whose first answer gives the deterministic ratios. A run
/// that has not reached this many when its time is up ingests
/// further streams once each, untimed, so the ratios depend on the seed
/// alone, not on the program's speed.
const QUALITY_STREAMS: usize = 128;
/// Paired reps of the traced-only side measurements.
const SIDE_REPS: usize = 5;

/// The stream: uniform points of an aspect-16 ellipse whose axis turns
/// once and whose centre drifts across the stream.
fn ellipse_stream(seed: u64, n: usize) -> Vec<Point2> {
    Ellipse::new(seed, n, 16.0, 0.0)
        .enumerate()
        .map(|(i, p)| {
            let f = i as f64 / n as f64;
            let v = Vec2::new(p.x, p.y).rotate(std::f64::consts::TAU * f);
            Point2::new(v.x + 40.0 * f, v.y + 20.0 * f)
        })
        .collect()
}

fn builder() -> SummaryBuilder {
    SummaryBuilder::new(SummaryKind::Adaptive).with_r(R)
}

/// Runs the workload for `ctx.seconds` of wall-clock time.
///
/// Inputs are generated as the run goes: every `REPS_PER_STREAM` reps
/// ingest one fresh stream, generated outside the timed calls. Each stream's
/// first answer is checked against the benchmark's exact hull and gives
/// one sample of the deterministic ratios; the later reps must reproduce
/// it bit for bit.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.trace);
    let mut gauge = Gauge::new();
    let dirs: Vec<Vec2> = (0..EXTENT_DIRS)
        .map(|j| {
            let a = std::f64::consts::PI * j as f64 / EXTENT_DIRS as f64;
            Vec2::new(a.cos(), a.sin())
        })
        .collect();

    let mut setup_s = Vec::new();
    let mut rep_pps = Vec::new();
    let mut traced_rep_ns = Vec::new();
    let mut plain_rep_ns = Vec::new();
    let mut query_ns = Vec::new();
    let mut error_ratio = Vec::new();
    let mut bar_ratio = Vec::new();
    let mut sample_size = Vec::new();
    let mut first_stream = Vec::new();
    let mut rep = 0u64;
    let start = Instant::now();
    for k in 0.. {
        let timed = start.elapsed().as_secs_f64() < ctx.seconds;
        if !timed && error_ratio.len() >= QUALITY_STREAMS {
            break;
        }
        // Set-up: input generation plus engine construction.
        let t0 = Instant::now();
        let points = ellipse_stream(ctx.sub_seed(k), N);
        let engine = ShardedIngest::new(builder(), SHARDS);
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut exact = ExactHull::new();
        for &p in &points {
            exact.insert(p);
        }
        let exact = exact.hull();
        let scale = paper_scale(queries::diameter(&exact).map_or(0.0, |d| d.2));
        let mut first_hull: Option<Vec<Point2>> = None;

        let reps = if timed { REPS_PER_STREAM } else { 1 };
        for _ in 0..reps {
            // Traced runs record every other timed rep, so the unrecorded
            // reps give the tracing overhead.
            if ctx.trace {
                tracer.recording = timed && rep.is_multiple_of(2);
            }
            let mut read_ns = Vec::with_capacity(READS_PER_REP);
            let ((run, bound, ingest_ns), rep_ns) = tracer.span("bench.rep", rep, |t| {
                let (run, ingest_ns) = t.span("parallel.run", rep, |_| engine.run(&points));
                // The user's query: read the hull and its composed bound,
                // and the dashboard numbers off it.
                let mut bound = None;
                for read in 0..READS_PER_REP {
                    let (b, ns) = t.span("queries.read_answer", rep, |t| {
                        if read == 0 {
                            t.span("summaries.hull_read", rep, |_| {
                                black_box(run.summary.hull_ref().len())
                            });
                        }
                        let hull = run.summary.hull_ref();
                        black_box(queries::width(hull));
                        black_box(queries::diameter(hull));
                        for &d in &dirs {
                            black_box(queries::directional_extent(hull, d));
                        }
                        run.shard_bound_sum()
                            .zip(run.summary.error_bound())
                            .map(|(a, b)| a + b)
                    });
                    read_ns.push(ns as f64);
                    bound = b;
                }
                (run, bound, ingest_ns)
            });
            if timed {
                gauge.sample();
                rep_pps.push(N as f64 / (ingest_ns as f64 * 1e-9));
                query_ns.extend(read_ns);
                if tracer.recording {
                    traced_rep_ns.push(rep_ns as f64);
                } else {
                    plain_rep_ns.push(rep_ns as f64);
                }
            }
            out.attempted += N as u64 + READS_PER_REP as u64;

            // Output checks, against the benchmark's own exact hull.
            let hull = run.summary.hull_ref();
            let seen = run.summary.points_seen();
            out.check("points_seen == n", seen == N as u64, || {
                format!("{seen} of {N}")
            });
            out.failed += (N as u64).saturating_sub(seen);
            match &first_hull {
                None => {
                    let err = metrics::hausdorff_error(hull, &exact);
                    let ok = bound.is_some_and(|b| err <= b);
                    out.check("hausdorff error <= composed bound", ok, || {
                        format!("stream {k}: error {err} bound {bound:?}")
                    });
                    error_ratio.push(err / scale);
                    bar_ratio.push(bound.unwrap_or(f64::INFINITY) / scale);
                    sample_size.push(run.summary.sample_size() as f64);
                    first_hull = Some(hull.vertices().to_vec());
                }
                Some(first) => {
                    out.check(
                        "every rep reproduces the first hull",
                        first == hull.vertices(),
                        || format!("stream {k} rep {rep}"),
                    );
                }
            }
            rep += 1;
        }
        if first_stream.is_empty() {
            first_stream = points;
        }
    }

    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("ingest_pts_per_s", median(&rep_pps));
    out.e2e
        .insert("query_p50_us", percentile(&query_ns, 50.0) / 1e3);
    out.e2e
        .insert("query_p99_us", percentile(&query_ns, 99.0) / 1e3);
    out.e2e
        .insert("hull_error_ratio", mean(&error_ratio[..QUALITY_STREAMS]));
    out.e2e
        .insert("error_bar_ratio", median(&bar_ratio[..QUALITY_STREAMS]));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.notes.insert("reps", rep as f64);
    out.notes.insert("gauge_samples", gauge.samples() as f64);
    out.scale_to_reference_host(gauge.slowdown());
    out.notes.insert("query_samples", query_ns.len() as f64);
    out.notes.insert("streams", error_ratio.len() as f64);

    if ctx.trace {
        tracer.recording = true;
        out.layer(
            "parallel.run_ms",
            median(&tracer.durations_ns("parallel.run")) / 1e6,
        );
        out.layer(
            "summaries.hull_read_us",
            median(&tracer.durations_ns("summaries.hull_read")) / 1e3,
        );
        out.layer("summaries.sample_size", median(&sample_size));
        out.layer("queries.samples", query_ns.len() as f64);
        out.layer(
            "trace.overhead",
            median(&traced_rep_ns) / median(&plain_rep_ns),
        );
        out.self_fracs(&tracer.self_ns_by_layer("bench.rep"));
        side_measurements(&mut out, &mut tracer, ctx, &first_stream);
        if let Err(e) = tracer.write_jsonl(&crate::trace_path("stream_ingest", ctx.seed)) {
            eprintln!("hullbench: could not write spans: {e}");
        }
    }
    out
}

/// Traced-only measurements of single layers on the first stream.
fn side_measurements(out: &mut Outcome, tracer: &mut Tracer, ctx: &Ctx, points: &[Point2]) {
    let one = ShardedIngest::new(builder(), 1);
    let two = ShardedIngest::new(builder(), SHARDS);
    let mut ratios = Vec::new();
    // The speed-up needs both CPUs: the run's confinement is lifted here.
    for i in 0..SIDE_REPS as u64 {
        // Alternate which side runs first.
        let mut time = |e: &ShardedIngest, name| {
            ctx.pin.unpinned(|| {
                tracer
                    .span(name, i, |_| black_box(e.run(points).summary.points_seen()))
                    .1 as f64
            })
        };
        let (t1, t2) = if i.is_multiple_of(2) {
            let a = time(&one, "parallel.run_1shard");
            (a, time(&two, "parallel.run_2shard"))
        } else {
            let b = time(&two, "parallel.run_2shard");
            (time(&one, "parallel.run_1shard"), b)
        };
        ratios.push(t1 / t2);
    }
    out.layer("parallel.speedup_2v1", median(&ratios));

    // Direct single-summary ingestion over the same 1024-point chunks the
    // engine's workers use: the summaries layer without the fan-out.
    let chunk = one.chunk();
    let mut ns_per_pt = Vec::new();
    for i in 0..SIDE_REPS as u64 {
        let (_, ns) = tracer.span("summaries.insert_batch", i, |_| {
            let mut s = builder().build();
            for c in points.chunks(chunk) {
                s.insert_batch(c);
            }
            black_box(s.points_seen())
        });
        ns_per_pt.push(ns as f64 / points.len() as f64);
    }
    out.layer("summaries.insert_ns_per_pt", median(&ns_per_pt));

    // Shard skew: the engine's contiguous halves, each ingested alone.
    let half = points.len().div_ceil(SHARDS);
    let mut skews = Vec::new();
    for i in 0..SIDE_REPS as u64 {
        let times: Vec<f64> = points
            .chunks(half)
            .map(|slice| {
                tracer
                    .span("summaries.insert_shard_slice", i, |_| {
                        let mut s = builder().build();
                        for c in slice.chunks(chunk) {
                            s.insert_batch(c);
                        }
                        black_box(s.points_seen())
                    })
                    .1 as f64
            })
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        skews.push(times.iter().copied().fold(0.0, f64::max) / mean);
    }
    out.layer("parallel.shard_skew", median(&skews));
}
