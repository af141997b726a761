//! End-to-end tests for the resource-governed [`TenantEngine`]: spilled
//! tenants restore bit-exactly (the spilled/never-spilled twins stay
//! indistinguishable even under further ingestion), corrupt spills
//! quarantine exactly the affected tenant, and the byte budget plus the
//! `seen == ingested + shed` ledger hold under arbitrary traffic.

#![recursion_limit = "1024"]

use proptest::prelude::*;
use streamhull::prelude::*;

fn pt_strategy() -> impl Strategy<Value = Point2> {
    prop_oneof![
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        (-4i32..4, -4i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        // Skinny band: stresses adaptive refinement.
        (-50.0f64..50.0, -0.5f64..0.5).prop_map(|(x, y)| Point2::new(x, y)),
    ]
}

fn stream_strategy(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(pt_strategy(), 1..max)
}

/// Builder for one of the eight kinds, with a per-case `r` and seed so
/// the shared-table paths (frozen fan, radial sectors) vary too.
fn builder_for(kind_idx: usize, rexp: u32, seed: u64) -> SummaryBuilder {
    let kind = SummaryKind::ALL[kind_idx];
    SummaryBuilder::new(kind).with_r(1 << rexp).with_seed(seed)
}

/// A summary's observable state, captured with bit-exact float identity.
fn fingerprint(s: &dyn HullSummary) -> (Vec<(u64, u64)>, Option<u64>, usize, u64) {
    let verts: Vec<(u64, u64)> = s
        .hull()
        .vertices()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    let bound = s.error_bound().map(f64::to_bits);
    (verts, bound, s.sample_size(), s.points_seen())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Tentpole guarantee: spill -> idle -> touch -> restore is invisible.
    // A tenant that went cold and came back answers identically (hull
    // vertices, error bound, sample size, points seen — all bit-exact)
    // to a twin that never spilled, and stays identical under further
    // ingestion. Runs over all eight backends.
    #[test]
    fn spilled_tenant_is_bit_identical_to_never_spilled_twin(
        kind_idx in 0usize..SummaryKind::ALL.len(),
        rexp in 3u32..6,
        seed in 0u64..1_000_000,
        before in stream_strategy(120),
        after in stream_strategy(60),
    ) {
        let builder = builder_for(kind_idx, rexp, seed);
        let config = TenantConfig::new(builder).with_idle_ticks(1);
        let mut engine = TenantEngine::new(config);
        let id = StreamId(7);
        engine.insert_batch(id, &before).unwrap();

        // The never-spilled twin ingests the same stream directly.
        let mut twin = builder.build();
        twin.insert_batch(&before);

        // Idle the tenant past the spill threshold. The idle sweep only
        // takes spills that shrink the footprint; tiny streams whose
        // envelope would not are forced cold through the explicit hook.
        engine.tick();
        engine.tick();
        if engine.tier(id) != Some(Tier::Cold) {
            prop_assert!(engine.spill(id), "forced spill of a hot tenant must succeed");
        }
        prop_assert_eq!(engine.tier(id), Some(Tier::Cold), "tenant should have spilled");
        let restored = fingerprint(engine.summary(id).unwrap());
        prop_assert_eq!(engine.tier(id), Some(Tier::Hot), "touch should restore");
        prop_assert_eq!(&restored, &fingerprint(twin.as_ref()));

        // Restoration must not perturb future behaviour either.
        engine.insert_batch(id, &after).unwrap();
        twin.insert_batch(&after);
        prop_assert_eq!(
            &fingerprint(engine.summary(id).unwrap()),
            &fingerprint(twin.as_ref())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Corruption blast radius: flip any byte of any tenant's spilled
    // envelope and only that tenant is quarantined — the touch returns a
    // typed [`AdmissionError::Quarantined`], never panics, and every
    // other tenant keeps serving queries.
    #[test]
    fn corrupt_spill_quarantines_exactly_one_tenant(
        kind_idx in 0usize..SummaryKind::ALL.len(),
        victim in 0u64..8,
        offset in 0usize..10_000,
        mask in 1u8..255,
        pts in stream_strategy(80),
    ) {
        let builder = builder_for(kind_idx, 4, 42);
        let config = TenantConfig::new(builder).with_idle_ticks(1);
        let mut engine = TenantEngine::new(config);
        for t in 0..8u64 {
            engine.insert_batch(StreamId(t), &pts).unwrap();
        }
        engine.tick();
        engine.tick(); // idle spill takes whoever it shrinks ...
        for t in 0..8u64 {
            engine.spill(StreamId(t)); // ... the hook forces the rest cold
        }
        prop_assert_eq!(engine.cold_count(), 8);

        let id = StreamId(victim);
        let len = engine.spilled_bytes(id).unwrap().len();
        prop_assert!(engine.corrupt_spill(id, offset % len, mask));

        match engine.summary(id) {
            Err(AdmissionError::Quarantined { stream, .. }) => {
                prop_assert_eq!(stream, id);
            }
            other => prop_assert!(false, "expected Quarantined, got {:?}", other.map(|_| ())),
        }
        prop_assert_eq!(engine.tier(id), Some(Tier::Quarantined));
        prop_assert_eq!(engine.quarantined_count(), 1);

        // Everyone else restores and serves.
        for t in 0..8u64 {
            if t == victim {
                continue;
            }
            let s = engine.summary(StreamId(t)).unwrap();
            prop_assert_eq!(s.points_seen(), pts.iter().filter(|p| p.is_finite()).count() as u64);
        }
        // The poisoned tenant stays addressable: stats survive, and the
        // operator can evict it to clear the quarantine.
        prop_assert_eq!(engine.stats(id).unwrap().tier, Tier::Quarantined);
        prop_assert!(engine.remove(id).is_some());
        prop_assert_eq!(engine.quarantined_count(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Governance ledger: under arbitrary interleaved traffic and a tight
    // budget, every policy keeps `bytes_in_use <= budget` at each call
    // boundary and accounts every point exactly
    // (`seen == ingested + shed`, globally and per tenant).
    #[test]
    fn budget_and_ledger_hold_under_arbitrary_traffic(
        policy_idx in 0usize..3,
        traffic in prop::collection::vec((0u64..64, pt_strategy()), 1..600),
    ) {
        let policy = [
            OverloadPolicy::Reject,
            OverloadPolicy::ShedOldest,
            OverloadPolicy::DegradeToCoarser,
        ][policy_idx];
        let budget = 24 * 1024;
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
            .with_budget_bytes(budget)
            .with_policy(policy);
        let mut engine = TenantEngine::new(config);
        for (t, p) in &traffic {
            // Reject is allowed to refuse work; the error must be typed,
            // and the budget must hold either way.
            let _ = engine.insert(StreamId(*t), *p);
            prop_assert!(engine.bytes_in_use() <= budget);
        }
        let report = engine.pressure_report();
        prop_assert!(report.bytes_in_use <= budget);
        // The peak records the transient ingest-then-enforce overshoot;
        // it can exceed the budget by one write's growth, never shrink
        // below the settled figure.
        prop_assert!(report.bytes_peak >= report.bytes_in_use);
        prop_assert_eq!(report.points_seen, report.points_ingested + report.points_shed);
        let ids: Vec<StreamId> = engine.ids().collect();
        for id in ids {
            let st = engine.stats(id).unwrap();
            prop_assert_eq!(st.seen, st.ingested + st.shed);
        }
    }
}

/// Exhaustive blast-radius sweep: corrupting any single byte of one
/// adaptive tenant's cold envelope quarantines exactly that tenant, and
/// its neighbours restore bit-exactly. The one checksum pass per restore
/// must still see every offset.
#[test]
fn every_corrupt_byte_of_a_cold_envelope_quarantines_only_its_tenant() {
    let stream = |t: u64| -> Vec<Point2> {
        (0..150u64)
            .map(|i| {
                let h = (i + 1000 * t).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44;
                Point2::new((h % 512) as f64 / 8.0, (h / 512 % 64) as f64 / 4.0)
            })
            .collect()
    };
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16));
    let cold_engine = || {
        let mut engine = TenantEngine::new(config);
        for t in 0..3u64 {
            engine.insert_batch(StreamId(t), &stream(t)).unwrap();
            assert!(engine.spill(StreamId(t)));
        }
        engine
    };
    let mut reference = cold_engine();
    let want: Vec<_> = (0..3u64)
        .map(|t| fingerprint(reference.summary(StreamId(t)).unwrap()))
        .collect();
    let victim = StreamId(1);
    let len = cold_engine().spilled_bytes(victim).unwrap().len();
    assert!(
        len > 1000,
        "an adaptive envelope of {len} bytes is too small to sweep"
    );
    for offset in 0..len {
        let mut engine = cold_engine();
        assert!(engine.corrupt_spill(victim, offset, 1 << (offset % 8)));
        match engine.summary(victim) {
            Err(AdmissionError::Quarantined { stream, .. }) => assert_eq!(stream, victim),
            other => panic!(
                "offset {offset}: expected Quarantined, got {:?}",
                other.map(|_| ())
            ),
        }
        assert_eq!(engine.quarantined_count(), 1, "offset {offset}");
        for t in [0u64, 2] {
            let got = fingerprint(engine.summary(StreamId(t)).unwrap());
            assert_eq!(
                got, want[t as usize],
                "offset {offset}: tenant {t} disturbed"
            );
        }
    }
}

/// Deterministic end-to-end drill of the interleaved bulk path: skewed
/// multi-tenant traffic through [`ShardedTenants`] matches a serial
/// [`TenantEngine`] fed the same pairs, tenant by tenant.
#[test]
fn sharded_bulk_ingest_matches_serial_engine() {
    let traffic: Vec<(StreamId, Point2)> = streamhull::streamgen::TenantTraffic::new(11, 50, 4_000)
        .map(|(t, p)| (StreamId(t), p))
        .collect();
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16));
    let mut serial = TenantEngine::new(config);
    serial.ingest_bulk(&traffic).unwrap();
    let mut sharded = ShardedTenants::new(config, 4);
    sharded.ingest_bulk(&traffic).unwrap();
    assert_eq!(sharded.len(), serial.len());
    let ids: Vec<StreamId> = serial.ids().collect();
    for id in ids {
        let want = fingerprint(serial.summary(id).unwrap());
        let got = fingerprint(sharded.engine_mut(id).summary(id).unwrap());
        assert_eq!(
            got, want,
            "tenant {id} diverged between sharded and serial ingest"
        );
    }
}

/// Every counter and gauge the tenant ledger publishes, read from a
/// scrape under the same field names as [`PressureReport`].
fn scraped_ledger(scrape: &Scrape) -> [(&'static str, u64); 15] {
    use streamhull::telemetry::names;
    let c = |name| scrape.counter_total(name);
    let with = |name, labels: &[(&str, &str)]| scrape.counter_with(name, labels).unwrap_or(0);
    let g = |name| scrape.gauge_value(name).unwrap_or(0) as u64;
    [
        (
            "streams_admitted",
            with(names::TENANT_STREAMS, &[("outcome", "admitted")]),
        ),
        (
            "streams_rejected",
            with(names::TENANT_STREAMS, &[("outcome", "rejected")]),
        ),
        ("streams_shed", c(names::TENANT_EVICTIONS)),
        ("streams_degraded", c(names::TENANT_DEGRADATIONS)),
        ("streams_quarantined", c(names::TENANT_QUARANTINES)),
        ("points_seen", c(names::TENANT_POINTS_SEEN)),
        ("points_ingested", c(names::TENANT_POINTS_INGESTED)),
        ("points_shed", c(names::TENANT_POINTS_SHED)),
        ("points_rejected", c(names::TENANT_POINTS_REJECTED)),
        ("spills", with(names::TENANT_TIER_OPS, &[("kind", "spill")])),
        (
            "restores",
            with(names::TENANT_TIER_OPS, &[("kind", "restore")]),
        ),
        (
            "spilled_bytes",
            with(names::TENANT_TIER_BYTES, &[("kind", "spill")]),
        ),
        ("events_dropped", c(names::TENANT_EVENTS_DROPPED)),
        ("bytes_in_use", g(names::TENANT_BYTES_IN_USE)),
        ("bytes_peak", g(names::TENANT_BYTES_PEAK)),
    ]
}

/// The same fields, read from the report.
fn reported_ledger(r: &PressureReport) -> [(&'static str, u64); 15] {
    [
        ("streams_admitted", r.streams_admitted),
        ("streams_rejected", r.streams_rejected),
        ("streams_shed", r.streams_shed),
        ("streams_degraded", r.streams_degraded),
        ("streams_quarantined", r.streams_quarantined),
        ("points_seen", r.points_seen),
        ("points_ingested", r.points_ingested),
        ("points_shed", r.points_shed),
        ("points_rejected", r.points_rejected),
        ("spills", r.spills),
        ("restores", r.restores),
        ("spilled_bytes", r.spilled_bytes),
        ("events_dropped", r.events_dropped),
        ("bytes_in_use", r.bytes_in_use as u64),
        ("bytes_peak", r.bytes_peak as u64),
    ]
}

/// Both Reject-policy rollback paths, driven deterministically: a known
/// tenant's write that breaches the budget is undone in place, and a new
/// stream whose first write breaches it is forgotten entirely. After
/// every call the scrape equals the report, and no counter ever goes
/// down.
#[test]
fn reject_rollbacks_keep_scrape_equal_to_report() {
    let ring = |n: usize, r: f64| -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                Point2::new(r * t.cos(), r * t.sin())
            })
            .collect()
    };
    const BUDGET: usize = 8 * 1024;
    let tel = Telemetry::new();
    // Exact hulls keep every ring vertex, so one big ring outgrows the
    // budget by itself and spilling cannot make room for it.
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact))
        .with_budget_bytes(BUDGET)
        .with_policy(OverloadPolicy::Reject)
        .with_telemetry(tel);
    let mut engine = TenantEngine::new(config);
    let mut last = reported_ledger(&engine.pressure_report());
    let mut check = |engine: &TenantEngine| -> PressureReport {
        let report = engine.pressure_report();
        let now = reported_ledger(&report);
        assert_eq!(scraped_ledger(&tel.scrape()), now, "scrape != report");
        for ((name, before), (_, after)) in last.iter().zip(now.iter()) {
            if *name != "bytes_in_use" {
                assert!(after >= before, "{name} went down: {before} -> {after}");
            }
        }
        last = now;
        report
    };

    let known = StreamId(1);
    engine.insert_batch(known, &ring(16, 1.0)).unwrap();
    let before = check(&engine);
    let stats_before = engine.stats(known).unwrap();

    // `unwrite`: the known tenant's write breaches the budget. The engine
    // is under budget first, so the pre-write gate cannot be what
    // refuses it; the peak shows the write really ran before the undo.
    assert!(engine.bytes_in_use() <= BUDGET);
    let big = ring(2_000, 5.0);
    assert!(matches!(
        engine.insert_batch(known, &big),
        Err(AdmissionError::OverBudget { .. })
    ));
    let after = check(&engine);
    assert!(after.bytes_peak > BUDGET);
    assert_eq!(after.points_rejected, before.points_rejected + 2_000);
    assert_eq!(after.points_seen, before.points_seen);
    assert_eq!(after.streams_admitted, before.streams_admitted);
    let stats_after = engine.stats(known).unwrap();
    assert_eq!(
        (stats_after.seen, stats_after.ingested),
        (stats_before.seen, stats_before.ingested),
        "the rolled-back tenant keeps its pre-write counts"
    );

    // `forget_admission`: a new stream's first, larger write breaches
    // the budget.
    assert!(engine.bytes_in_use() <= BUDGET);
    let fresh = StreamId(2);
    assert!(matches!(
        engine.insert_batch(fresh, &ring(3_000, 5.0)),
        Err(AdmissionError::OverBudget { .. })
    ));
    let last_report = check(&engine);
    assert!(
        !engine.contains(fresh),
        "a refused first write admits nothing"
    );
    assert!(last_report.bytes_peak > after.bytes_peak);
    assert_eq!(last_report.points_rejected, after.points_rejected + 3_000);
    assert_eq!(last_report.streams_admitted, after.streams_admitted);
    assert_eq!(last_report.points_seen, after.points_seen);
    assert_eq!(engine.hot_count() + engine.cold_count(), 1);

    // The engine keeps serving after both refusals.
    engine.insert_batch(known, &ring(8, 0.5)).unwrap();
    check(&engine);
}
