//! `fleet_serve`: skewed tenant traffic (10% of ids carry 90% of points)
//! flows into a `QueryEngine` over one `TenantEngine`, single-threaded.
//!
//! Every arriving batch runs `ingest_bulk`, then `tick`, then a dashboard
//! refresh of width / diameter / extent over a fixed watch-list drawn with
//! the traffic's skew; every few batches there is also a `top_k_extent`
//! and a Prometheus scrape of the live telemetry registry. The tenant
//! layer, snapshot spill/restore of many small envelopes, the query cache
//! and telemetry do most of the work on a working set far larger than
//! cache; summaries see 1–2-point writes. Parallel, window and recovery
//! stay idle. `separation_join` is left out: its all-pairs pass would
//! swamp everything else.

use crate::host::Gauge;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{paper_scale, Ctx, R};
use std::hint::black_box;
use std::time::Instant;
use streamhull::prelude::*;
use streamhull::streamgen::TenantTraffic;
use streamhull::{metrics, queries};

/// Global byte budget under `ShedOldest`. The fleet's accounted
/// footprint peaks when a top-k has restored every stream: 114.4 MiB
/// (12.0 kB per stream) at the commit that defined this benchmark. The
/// 26% headroom above it means a footprint regression shows up as shed
/// points rather than as nothing.
const BUDGET_BYTES: usize = 144 << 20;
/// Idle ticks before a stream spills (a batch advances the clock twice).
const IDLE_TICKS: u64 = 8;
/// `k` of the top-k query.
const TOPK_K: usize = 10;
/// Batches in the telemetry on/off comparison of a traced run.
const ON_OFF_BATCHES: u64 = 24;
/// Stream ids in the fleet.
const STREAMS: u64 = 10_000;
/// Points per arriving batch.
const BATCH: usize = 2048;
/// Streams on the dashboard watch-list.
const WATCH: usize = 64;
/// A `top_k_extent` runs every this many batches.
const TOPK_EVERY: u64 = 128;
/// The telemetry registry is scraped every this many batches.
const SCRAPE_EVERY: u64 = 8;
/// Points each stream receives before the run (its history).
const WARM_POINTS: usize = 96;

/// The direction of the dashboard's extent panel.
fn panel_dir() -> Vec2 {
    Vec2::new(0.6, 0.8)
}

/// The direction of the top-k scan.
fn topk_dir() -> Vec2 {
    Vec2::new(1.0, 0.0)
}

/// One fleet ready to serve: the engine, its registry, the watch-list
/// and the traffic still to arrive.
struct Fleet {
    q: QueryEngine,
    tel: Telemetry,
    watch: Vec<StreamId>,
    traffic: TenantTraffic,
}

/// Input generation plus engine construction: registers every stream
/// with its history, lets the idle ones spill, and draws the watch-list.
/// Returns the history too, for the benchmark's exact reference.
fn build_fleet(ctx: &Ctx, tel: Telemetry) -> (Fleet, Vec<Vec<Point2>>) {
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(R))
        .with_budget_bytes(BUDGET_BYTES)
        .with_policy(OverloadPolicy::ShedOldest)
        .with_idle_ticks(IDLE_TICKS)
        .with_telemetry(tel);
    let mut q = QueryEngine::new(TenantEngine::new(config));

    let mut watch = Vec::with_capacity(WATCH);
    for (id, _) in TenantTraffic::new(ctx.sub_seed(1), STREAMS, usize::MAX) {
        if watch.len() == WATCH {
            break;
        }
        if !watch.contains(&StreamId(id)) {
            watch.push(StreamId(id));
        }
    }

    let history = TenantTraffic::new(ctx.sub_seed(2), STREAMS, STREAMS as usize * WARM_POINTS)
        .with_skew(1.0, 1.0);
    let mut per_stream: Vec<Vec<Point2>> = vec![Vec::new(); STREAMS as usize];
    for (id, pt) in history {
        per_stream[id as usize].push(pt);
    }
    for (id, pts) in per_stream.iter().enumerate() {
        // Shedding engines never fail a write; refusals show up as shed
        // points in the pressure report.
        let _ = q.tenants_mut().insert_batch(StreamId(id as u64), pts);
    }
    for _ in 0..=IDLE_TICKS {
        q.tenants_mut().tick();
    }
    let fleet = Fleet {
        q,
        tel,
        watch,
        traffic: TenantTraffic::new(ctx.sub_seed(3), STREAMS, usize::MAX),
    };
    (fleet, per_stream)
}

impl Fleet {
    /// The next arriving batch.
    fn next_batch(&mut self) -> Vec<(StreamId, Point2)> {
        self.traffic
            .by_ref()
            .take(BATCH)
            .map(|(id, pt)| (StreamId(id), pt))
            .collect()
    }
}

/// The benchmark's exact hull of every stream, fed every point the
/// fleet is offered.
struct Reference {
    exact: Vec<ExactHull>,
}

impl Reference {
    fn new(history: &[Vec<Point2>]) -> Self {
        let mut exact = vec![ExactHull::new(); history.len()];
        for (e, pts) in exact.iter_mut().zip(history) {
            for &pt in pts {
                e.insert(pt);
            }
        }
        Reference { exact }
    }

    fn absorb(&mut self, batch: &[(StreamId, Point2)]) {
        for &(id, pt) in batch {
            self.exact[id.0 as usize].insert(pt);
        }
    }

    fn hull(&self, id: StreamId) -> &ConvexPolygon {
        self.exact[id.0 as usize].hull_ref()
    }
}

/// One dashboard panel's answers for one stream.
#[derive(Clone, Copy, Debug)]
struct Panel {
    width: Option<Estimate>,
    diameter: Option<Option<PairAnswer>>,
    extent: Option<Estimate>,
}

/// Per-query latency samples, by how the cache served them.
#[derive(Debug, Default)]
struct QuerySamples {
    all_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    miss_hot_ns: Vec<f64>,
    miss_cold_ns: Vec<f64>,
    errors: u64,
}

/// Span durations of the layer calls one batch made.
#[derive(Debug, Default)]
struct BatchTimes {
    /// Sum of the batch's layer calls: ingestion, tick and dashboard.
    layer_ns: u64,
    ingest_ns: u64,
    tick_ns: u64,
}

/// Runs `f`; when `slowdown` is above zero (the sensitivity self-test
/// only), then spins for that share of `f`'s own duration.
fn slowed<T>(slowdown: f64, f: impl FnOnce() -> T) -> T {
    let t0 = (slowdown > 0.0).then(Instant::now);
    let res = f();
    if let Some(t0) = t0 {
        let extra = t0.elapsed().mul_f64(slowdown);
        let t1 = Instant::now();
        while t1.elapsed() < extra {
            std::hint::spin_loop();
        }
    }
    res
}

/// `ingest_bulk`, `tick` and the dashboard refresh for one batch.
/// `slowdown` is extra busy time injected into both tenant-layer calls,
/// as a share of each call's own duration: zero except in the
/// sensitivity self-test.
fn serve_batch(
    fleet: &mut Fleet,
    batch: &[(StreamId, Point2)],
    b: u64,
    slowdown: f64,
    tracer: &mut Tracer,
    samples: &mut QuerySamples,
) -> (Vec<Panel>, BatchTimes) {
    let mut times = BatchTimes::default();
    let q = &mut fleet.q;
    let (res, ns) = tracer.span("tenant.ingest_bulk", b, |_| {
        slowed(slowdown, || q.tenants_mut().ingest_bulk(batch))
    });
    if res.is_err() {
        samples.errors += 1;
    }
    times.ingest_ns = ns;
    let (_, ns) = tracer.span("tenant.tick", b, |_| {
        slowed(slowdown, || q.tenants_mut().tick())
    });
    times.tick_ns = ns;
    times.layer_ns += times.ingest_ns + times.tick_ns;

    let dir = panel_dir();
    let mut panels = Vec::with_capacity(fleet.watch.len());
    for &id in &fleet.watch {
        let mut timed = Timed {
            b,
            tracer: &mut *tracer,
            samples: &mut *samples,
            times: &mut times,
        };
        let width = timed.query(q, id, "queries.width", |q| q.width(id));
        let diameter = timed.query(q, id, "queries.diameter", |q| q.diameter(id));
        let extent = timed.query(q, id, "queries.extent", |q| q.extent(id, dir));
        panels.push(Panel {
            width,
            diameter,
            extent,
        });
    }
    (panels, times)
}

/// Where one batch's dashboard queries file their spans and latencies.
struct Timed<'a> {
    b: u64,
    tracer: &'a mut Tracer,
    samples: &'a mut QuerySamples,
    times: &'a mut BatchTimes,
}

impl Timed<'_> {
    /// Times one query and files its latency by how the cache served it:
    /// a hit, or a miss on a stream that was hot or cold beforehand.
    fn query<T>(
        &mut self,
        q: &mut QueryEngine,
        id: StreamId,
        name: &'static str,
        f: impl FnOnce(&mut QueryEngine) -> Result<T, QueryError>,
    ) -> Option<T> {
        let hot = q.tenants().tier(id) == Some(Tier::Hot);
        let hits = q.cache_stats().hits;
        let (answer, ns) = self.tracer.span(name, self.b, |_| f(q));
        self.times.layer_ns += ns;
        let ns = ns as f64;
        self.samples.all_ns.push(ns);
        if q.cache_stats().hits > hits {
            self.samples.hit_ns.push(ns);
        } else if hot {
            self.samples.miss_hot_ns.push(ns);
        } else {
            self.samples.miss_cold_ns.push(ns);
        }
        answer.map_err(|_| self.samples.errors += 1).ok()
    }
}

/// `lo <= truth <= hi` with a finite `hi` (an infinite one means the
/// bound was withdrawn), with the relative slack the repository's own
/// query tests allow for rounding.
fn brackets(e: &Estimate, truth: f64) -> bool {
    let tol = 1e-9 * truth.abs().max(1.0);
    e.hi.is_finite() && e.lo - tol <= truth && truth <= e.hi + tol
}

/// Checks every watched stream's answers against its exact hull.
fn check_panels(
    out: &mut Outcome,
    reference: &Reference,
    watch: &[StreamId],
    panels: &[Panel],
    b: u64,
) {
    let unit = QDir::quantize(panel_dir())
        .expect("nonzero direction")
        .unit();
    for (panel, &id) in panels.iter().zip(watch) {
        let exact = reference.hull(id);
        let width = queries::width(exact);
        out.check(
            "width brackets the truth",
            panel.width.is_some_and(|e| brackets(&e, width)),
            || format!("batch {b} stream {id}: {:?} vs {width}", panel.width),
        );
        let diameter = queries::diameter(exact).map_or(0.0, |d| d.2);
        let ok = match panel.diameter {
            Some(Some(d)) => brackets(&d.estimate, diameter),
            Some(None) => exact.is_empty(),
            None => false,
        };
        out.check("diameter brackets the truth", ok, || {
            format!("batch {b} stream {id}: {:?} vs {diameter}", panel.diameter)
        });
        let extent = queries::directional_extent(exact, unit);
        out.check(
            "extent brackets the truth",
            panel.extent.is_some_and(|e| brackets(&e, extent)),
            || format!("batch {b} stream {id}: {:?} vs {extent}", panel.extent),
        );
    }
}

fn same_bits(a: &Panel, b: &Panel) -> bool {
    let est = |x: Option<Estimate>| x.map(|e| [e.value.to_bits(), e.lo.to_bits(), e.hi.to_bits()]);
    let pair = |x: Option<Option<PairAnswer>>| {
        x.map(|d| {
            d.map(|d| {
                [
                    d.a.x.to_bits(),
                    d.a.y.to_bits(),
                    d.b.x.to_bits(),
                    d.b.y.to_bits(),
                    d.estimate.value.to_bits(),
                    d.estimate.lo.to_bits(),
                    d.estimate.hi.to_bits(),
                ]
            })
        })
    };
    est(a.width) == est(b.width)
        && est(a.extent) == est(b.extent)
        && pair(a.diameter) == pair(b.diameter)
}

/// Serves batches for `ctx.seconds` of wall-clock time, then to the end
/// of the serving cycle. `slowdown` is the sensitivity self-test's
/// injected tenant-layer slowdown; the benchmark runs with zero.
pub fn run(ctx: &Ctx, slowdown: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.trace);
    let mut gauge = Gauge::new();

    // Set-up, three times: the median is the metric, the last fleet serves.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..3 {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build_fleet(ctx, Telemetry::new()));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (mut fleet, history) = built.expect("built");
    let mut reference = Reference::new(&history);
    drop(history);
    let report0 = fleet.q.tenants().pressure_report();

    let mut samples = QuerySamples::default();
    let mut topk_ns = Vec::new();
    let mut topk_restores = Vec::new();
    let (mut topk_scanned, mut topk_pruned) = (0u64, 0u64);
    let mut scrape_ns = Vec::new();
    let mut ingest_ns = Vec::new();
    let mut tick_ns = Vec::new();
    let mut panels = Vec::new();
    let mut quality = None;
    let mut offered = 0u64;
    // Points and tenant-layer time of the current serving cycle, and the
    // ingest rate of every finished cycle.
    let (mut cycle_pts, mut cycle_ns) = (0u64, 0u64);
    let mut cycle_pps = Vec::new();
    let mut b = 0u64;
    let start = Instant::now();
    // Whole serving cycles: the loop ends on a top-k batch, so every run
    // weighs the top-k and the spill storm after it alike.
    while start.elapsed().as_secs_f64() < ctx.seconds || !b.is_multiple_of(TOPK_EVERY) {
        let batch = fleet.next_batch();
        reference.absorb(&batch);
        offered += batch.len() as u64;
        let topk_due = (b + 1).is_multiple_of(TOPK_EVERY);
        let scrape_due = (b + 1).is_multiple_of(SCRAPE_EVERY);
        let ((batch_panels, times), _) = tracer.span("bench.batch", b, |t| {
            let (batch_panels, times) =
                serve_batch(&mut fleet, &batch, b, slowdown, t, &mut samples);
            if topk_due {
                let before = fleet.q.tenants().pressure_report().restores;
                let (answer, ns) = t.span("queries.top_k_extent", b, |_| {
                    fleet.q.top_k_extent(topk_dir(), TOPK_K)
                });
                topk_ns.push(ns as f64);
                topk_restores.push((fleet.q.tenants().pressure_report().restores - before) as f64);
                match answer {
                    Ok(a) => {
                        topk_scanned += a.scanned;
                        topk_pruned += a.pruned;
                    }
                    Err(_) => samples.errors += 1,
                }
            }
            if scrape_due {
                let tel = fleet.tel;
                let (_, ns) = t.span("telemetry.scrape", b, |_| {
                    black_box(tel.scrape().to_prometheus_text().len())
                });
                scrape_ns.push(ns as f64);
            }
            (batch_panels, times)
        });
        gauge.sample();
        cycle_pts += batch.len() as u64;
        cycle_ns += times.ingest_ns + times.tick_ns;
        if topk_due {
            cycle_pps.push(cycle_pts as f64 / (cycle_ns as f64 * 1e-9));
            (cycle_pts, cycle_ns) = (0, 0);
        }
        ingest_ns.push(times.ingest_ns as f64);
        tick_ns.push(times.tick_ns as f64);
        check_panels(&mut out, &reference, &fleet.watch, &batch_panels, b);
        panels = batch_panels;
        if topk_due && quality.is_none() {
            quality = Some(quality_ratios(&mut out, &mut fleet, &reference));
        }
        b += 1;
    }
    let queries_issued = samples.all_ns.len() as u64 + topk_ns.len() as u64;
    out.attempted += offered + queries_issued;
    if ctx.trace {
        let (overhead, last) = trace_overhead(&mut out, &mut tracer, &mut fleet, &mut reference, b);
        out.layer("trace.overhead", overhead);
        panels = last;
        snapshot_side(&mut out, &mut tracer, &mut fleet);
    }

    // End-of-run checks.
    let report = fleet.q.tenants().pressure_report();
    out.check(
        "seen == ingested + shed",
        report.points_seen == report.points_ingested + report.points_shed,
        || {
            format!(
                "{} != {} + {}",
                report.points_seen, report.points_ingested, report.points_shed
            )
        },
    );
    out.failed += report.points_shed + samples.errors;
    fleet.q.flush_cache();
    let watch = fleet.watch.clone();
    let dir = panel_dir();
    for (w, &id) in watch.iter().enumerate() {
        let again = Panel {
            width: fleet.q.width(id).ok(),
            diameter: fleet.q.diameter(id).ok(),
            extent: fleet.q.extent(id, dir).ok(),
        };
        out.check(
            "re-query after flush_cache is bit-identical",
            same_bits(&panels[w], &again),
            || format!("stream {id}: {:?} then {again:?}", panels[w]),
        );
    }

    let (error_ratio, bar_ratio) = quality.expect("the loop ends on a top-k batch");

    // The ingestion path: the tenant layer's two calls per batch, as the
    // median rate over serving cycles. The dashboard's cost shows in the
    // query latencies, and top-k and scrape have per-layer metrics.
    let ingest_pts_per_s = median(&cycle_pps);
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("ingest_pts_per_s", ingest_pts_per_s);
    out.e2e
        .insert("query_p50_us", percentile(&samples.all_ns, 50.0) / 1e3);
    out.e2e
        .insert("query_p99_us", percentile(&samples.all_ns, 99.0) / 1e3);
    out.e2e.insert("hull_error_ratio", mean(&error_ratio));
    out.e2e.insert("error_bar_ratio", median(&bar_ratio));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.notes.insert("batches", b as f64);
    out.notes.insert("gauge_samples", gauge.samples() as f64);
    out.scale_to_reference_host(gauge.slowdown());
    out.notes.insert("cycles", cycle_pps.len() as f64);
    out.notes
        .insert("query_samples", samples.all_ns.len() as f64);
    out.notes.insert("topk_samples", topk_ns.len() as f64);
    out.notes.insert("streams", fleet.q.tenants().len() as f64);
    out.notes.insert("points_shed", report.points_shed as f64);

    if ctx.trace {
        let per_batch = |x: u64, x0: u64| (x - x0) as f64 / b as f64;
        out.layer(
            "tenant.ingest_bulk_us_p50",
            percentile(&ingest_ns, 50.0) / 1e3,
        );
        out.layer(
            "tenant.ingest_bulk_us_p99",
            percentile(&ingest_ns, 99.0) / 1e3,
        );
        out.layer("tenant.tick_us_p50", percentile(&tick_ns, 50.0) / 1e3);
        out.layer("tenant.spills", per_batch(report.spills, report0.spills));
        out.layer(
            "tenant.restores",
            per_batch(report.restores, report0.restores),
        );
        out.layer(
            "tenant.bytes_per_stream",
            report.bytes_peak as f64 / fleet.q.tenants().len().max(1) as f64,
        );
        out.layer("tenant.points_shed", report.points_shed as f64);
        let n = samples.all_ns.len() as f64;
        out.layer(
            "queries.hit_ratio",
            samples.hit_ns.len() as f64 / n.max(1.0),
        );
        out.layer("queries.hit_us_p50", median(&samples.hit_ns) / 1e3);
        out.layer(
            "queries.miss_hot_us_p50",
            median(&samples.miss_hot_ns) / 1e3,
        );
        out.layer(
            "queries.miss_cold_us_p50",
            median(&samples.miss_cold_ns) / 1e3,
        );
        out.layer("queries.samples", n);
        out.layer("queries.topk_ms_p50", median(&topk_ns) / 1e6);
        out.layer("queries.topk_restores", median(&topk_restores));
        out.layer(
            "queries.topk_pruned_frac",
            topk_pruned as f64 / topk_scanned.max(1) as f64,
        );
        out.layer("telemetry.scrape_us_p50", median(&scrape_ns) / 1e3);
        out.notes
            .insert("miss_cold_samples", samples.miss_cold_ns.len() as f64);
        out.self_fracs(&tracer.self_ns_by_layer("bench.batch"));
        drop(fleet);
        out.layer("telemetry.on_off_ratio", on_off_ratio(ctx, &mut tracer));
        if let Err(e) = tracer.write_jsonl(&crate::trace_path("fleet_serve", ctx.seed)) {
            eprintln!("hullbench: could not write spans: {e}");
        }
    }
    out
}

/// The deterministic ratios over every stream of the fleet: Hausdorff
/// error and the tenant-facing bound (the half-width of every interval
/// served), each ÷ (D/r²) of the stream's exact hull. Taken right after
/// the first top-k, which has just restored and touched every stream, so
/// reading every hull changes no tiering state and the ratios depend on
/// the seed alone, not on how many batches the program's speed allows.
/// A stream without a hull or a finite bound fails a check.
fn quality_ratios(
    out: &mut Outcome,
    fleet: &mut Fleet,
    reference: &Reference,
) -> (Vec<f64>, Vec<f64>) {
    let mut error_ratio = Vec::new();
    let mut bar_ratio = Vec::new();
    let tenants = fleet.q.tenants_mut();
    for id in (0..STREAMS).map(StreamId) {
        let hull = tenants.hull(id);
        let eps = tenants.error_bound(id);
        let ok = hull.is_ok() && eps.as_ref().is_ok_and(|e| e.is_some_and(f64::is_finite));
        out.check("every stream has a hull and a finite bound", ok, || {
            format!("stream {id}: {:?}, bound {eps:?}", hull.as_ref().err())
        });
        if let (Ok(hull), Ok(Some(eps))) = (hull, eps) {
            let exact = reference.hull(id);
            let scale = paper_scale(queries::diameter(exact).map_or(0.0, |d| d.2));
            error_ratio.push(metrics::hausdorff_error(&hull, exact) / scale);
            bar_ratio.push(eps / scale);
        }
    }
    (error_ratio, bar_ratio)
}

/// Batch pairs of the tracing-overhead segment of a traced run.
const OVERHEAD_PAIRS: u64 = 24;

/// Traced ÷ untraced batch time, from extra batches served after the
/// recorded loop in pairs, one recorded and one not, alternating which
/// goes first: the median per-pair ratio. The batches are checked like
/// any other; returns the last batch's answers too.
fn trace_overhead(
    out: &mut Outcome,
    tracer: &mut Tracer,
    fleet: &mut Fleet,
    reference: &mut Reference,
    first: u64,
) -> (f64, Vec<Panel>) {
    let mut scratch = QuerySamples::default();
    let mut ratios = Vec::new();
    let mut last = Vec::new();
    for i in 0..OVERHEAD_PAIRS {
        let mut ns = [0.0; 2];
        for j in 0..2 {
            let recorded = (i + j) % 2 == 0;
            let b = first + 2 * i + j;
            let batch = fleet.next_batch();
            reference.absorb(&batch);
            tracer.recording = recorded;
            let ((panels, _), batch_ns) = tracer.span("bench.overhead_batch", b, |t| {
                serve_batch(fleet, &batch, b, 0.0, t, &mut scratch)
            });
            check_panels(out, reference, &fleet.watch, &panels, b);
            out.attempted += batch.len() as u64 + 3 * panels.len() as u64;
            ns[usize::from(!recorded)] = batch_ns as f64;
            last = panels;
        }
        ratios.push(ns[0] / ns[1]);
    }
    tracer.recording = true;
    out.failed += scratch.errors;
    (median(&ratios), last)
}

/// Spill and restore of single streams through the tenant layer's public
/// calls, on streams that are cold at the end of the run.
fn snapshot_side(out: &mut Outcome, tracer: &mut Tracer, fleet: &mut Fleet) {
    let tenants = fleet.q.tenants_mut();
    let cold: Vec<StreamId> = tenants
        .ids()
        .filter(|&id| tenants.tier(id) == Some(Tier::Cold))
        .take(256)
        .collect();
    let envelope: Vec<f64> = cold
        .iter()
        .filter_map(|&id| tenants.spilled_bytes(id).map(|b| b.len() as f64))
        .collect();
    let mut restore_ns = Vec::new();
    let mut spill_ns = Vec::new();
    for (i, &id) in cold.iter().enumerate() {
        let (_, ns) = tracer.span("snapshot.restore", i as u64, |_| {
            black_box(tenants.summary(id).map(|s| s.sample_size()).ok())
        });
        restore_ns.push(ns as f64);
        let (_, ns) = tracer.span("snapshot.spill", i as u64, |_| black_box(tenants.spill(id)));
        spill_ns.push(ns as f64);
    }
    out.layer("snapshot.envelope_bytes", median(&envelope));
    out.layer("snapshot.restore_us_p50", median(&restore_ns) / 1e3);
    out.layer("snapshot.spill_us_p50", median(&spill_ns) / 1e3);
}

/// The same batches served by two fresh fleets, one with the registry
/// attached and one detached, alternating which goes first; the median
/// per-batch time ratio on ÷ off.
fn on_off_ratio(ctx: &Ctx, tracer: &mut Tracer) -> f64 {
    let mut on = build_fleet(ctx, Telemetry::new()).0;
    let mut off = build_fleet(ctx, Telemetry::disabled()).0;
    let mut scratch = QuerySamples::default();
    let mut ratios = Vec::new();
    for b in 0..ON_OFF_BATCHES {
        let batch = on.next_batch();
        let _ = off.next_batch();
        let mut serve = |f: &mut Fleet, name| {
            tracer
                .span(name, b, |t| {
                    serve_batch(f, &batch, b, 0.0, t, &mut scratch).1.layer_ns
                })
                .0 as f64
        };
        let (t_on, t_off) = if b.is_multiple_of(2) {
            let a = serve(&mut on, "bench.batch_telemetry_on");
            (a, serve(&mut off, "bench.batch_telemetry_off"))
        } else {
            let c = serve(&mut off, "bench.batch_telemetry_off");
            (serve(&mut on, "bench.batch_telemetry_on"), c)
        };
        ratios.push(t_on / t_off);
    }
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::declared_bound;
    use crate::stats::{regressed, worse_by, Better};

    /// The sensitivity self-test, on the fleet the benchmark declares:
    /// two sets of runs of unchanged code pass the `ingest_pts_per_s`
    /// comparison, and a set with 25% extra time injected into the tenant
    /// layer's calls (`ingest_bulk` and `tick`) fails it. The sets run
    /// interleaved on the same seeds, so they share the host's conditions
    /// and differ only by the change, as a parent and a change do.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
    fn comparison_flags_a_slower_tenant_layer_and_passes_unchanged_code() {
        let throughput = |seed: u64, slowdown: f64| {
            let ctx = Ctx {
                seed,
                seconds: 4.0,
                trace: false,
                pin: crate::host::Pin::one_cpu(),
            };
            let out = run(&ctx, slowdown);
            assert!(out.correct(), "{:?}", out.failures);
            out.e2e["ingest_pts_per_s"]
        };
        let (mut base, mut again, mut slowed) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..7 {
            base.push(throughput(100 + i, 0.0));
            again.push(throughput(100 + i, 0.0));
            slowed.push(throughput(100 + i, 0.25));
        }
        let bound = declared_bound("ingest_pts_per_s");
        eprintln!(
            "ingest_pts_per_s worse by {:.4} (unchanged) and {:.4} (slowed), bound {bound}",
            worse_by(&base, &again, Better::Higher),
            worse_by(&base, &slowed, Better::Higher),
        );
        assert!(
            !regressed(&base, &again, Better::Higher, bound),
            "unchanged code flagged: {base:?} vs {again:?}"
        );
        assert!(
            regressed(&base, &slowed, Better::Higher, bound),
            "25% slower tenant layer passed: {base:?} vs {slowed:?}"
        );
    }
}
