//! End-to-end tests for the resource-governed [`TenantEngine`]: spilled
//! tenants restore bit-exactly (the spilled/never-spilled twins stay
//! indistinguishable even under further ingestion, and writes logged while
//! cold replay bit-exactly on the next read), corrupt spills quarantine
//! exactly the affected tenant, and the byte budget plus the
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Cold writes: a write to a cold tenant is appended to its write log
    // while the log stays within the envelope's length — the tenant stays
    // cold and nothing is restored — and overflows restore it and write
    // hot. Every read (restore plus log replay) answers bit-exactly like a
    // twin that never spilled. Runs over all eight backends.
    #[test]
    fn cold_writes_replay_bit_identically_to_never_spilled_twin(
        kind_idx in 0usize..SummaryKind::ALL.len(),
        rexp in 3u32..6,
        seed in 0u64..1_000_000,
        before in stream_strategy(120),
        writes in prop::collection::vec((stream_strategy(40), 0u8..4), 1..16),
    ) {
        let builder = builder_for(kind_idx, rexp, seed);
        let mut engine = TenantEngine::new(TenantConfig::new(builder));
        let id = StreamId(7);
        engine.insert_batch(id, &before).unwrap();
        let mut twin = builder.build();
        twin.insert_batch(&before);
        prop_assert!(engine.spill(id));

        let mut logged = 0usize;
        for (pts, read_after) in &writes {
            let finite = pts.iter().filter(|p| p.is_finite()).count();
            let envelope = engine.spilled_bytes(id).unwrap().len();
            let fits = (logged + finite) * std::mem::size_of::<Point2>() <= envelope;
            let r0 = engine.pressure_report();
            engine.insert_batch(id, pts).unwrap();
            twin.insert_batch(pts);
            let r1 = engine.pressure_report();
            if fits {
                logged += finite;
                prop_assert_eq!(engine.tier(id), Some(Tier::Cold), "a fitting write is logged");
                prop_assert_eq!(r1.restores, r0.restores, "a logged write restores nothing");
                prop_assert_eq!(r1.cold_writes, r0.cold_writes + 1);
                prop_assert_eq!(
                    engine.stats(id).unwrap().bytes,
                    envelope + logged * std::mem::size_of::<Point2>()
                );
            } else {
                prop_assert_eq!(engine.tier(id), Some(Tier::Hot), "an overflowing write goes hot");
                prop_assert_eq!(r1.restores, r0.restores + 1);
                prop_assert_eq!(r1.cold_writes, r0.cold_writes);
            }
            // One write in four, and every write that went hot, is followed
            // by a read and a fresh spill.
            if *read_after == 0 || engine.tier(id) == Some(Tier::Hot) {
                prop_assert_eq!(
                    &fingerprint(engine.summary(id).unwrap()),
                    &fingerprint(twin.as_ref())
                );
                prop_assert!(engine.spill(id));
                logged = 0;
            }
            let st = engine.stats(id).unwrap();
            prop_assert_eq!((st.seen, st.ingested), (twin.points_seen(), twin.points_seen()));
        }
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
        for (i, (t, p)) in traffic.iter().enumerate() {
            // Reject is allowed to refuse work; the error must be typed,
            // and the budget must hold either way.
            let _ = engine.insert(StreamId(*t), *p);
            prop_assert!(engine.bytes_in_use() <= budget);
            // Idle sweeps spill tenants, so later writes land in their
            // write logs while the budget is under pressure.
            if i % 16 == 15 {
                engine.tick();
                prop_assert!(engine.bytes_in_use() <= budget);
            }
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
fn scraped_ledger(scrape: &Scrape) -> [(&'static str, u64); 16] {
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
            "cold_writes",
            with(names::TENANT_TIER_OPS, &[("kind", "cold_write")]),
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
fn reported_ledger(r: &PressureReport) -> [(&'static str, u64); 16] {
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
        ("cold_writes", r.cold_writes),
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

/// A write to a cold tenant that would take the engine past its budget is
/// not logged: it goes hot, as a restore. When the Reject policy then
/// refuses it, the tenant gets its envelope and write log back exactly:
/// the envelope bytes, the tenant's counts and footprint, and what a later
/// read answers are as if the write had never been offered. The scrape
/// equals the report throughout.
#[test]
fn refused_cold_write_leaves_tenant_bit_exact() {
    let ring = |n: usize, r: f64| -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                Point2::new(3.0 * r * t.cos(), r * t.sin())
            })
            .collect()
    };
    let pts = ring(12, 1.0);
    let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(16);
    let envelope = {
        let mut probe = TenantEngine::new(TenantConfig::new(builder));
        probe.insert_batch(StreamId(1), &pts).unwrap();
        assert!(probe.spill(StreamId(1)));
        probe.bytes_in_use()
    };
    // Room for three logged points, not four. The first write overshoots
    // the budget hot, and budget relief spills the tenant to its envelope.
    let point = std::mem::size_of::<Point2>();
    let tel = Telemetry::new();
    let config = TenantConfig::new(builder)
        .with_budget_bytes(envelope + 3 * point + point / 2)
        .with_policy(OverloadPolicy::Reject)
        .with_telemetry(tel);
    let mut engine = TenantEngine::new(config);
    let id = StreamId(1);
    engine.insert_batch(id, &pts).unwrap();
    assert_eq!(engine.tier(id), Some(Tier::Cold));
    let mut twin = builder.build();
    twin.insert_batch(&pts);
    for i in 0..3 {
        let p = Point2::new(0.1 * i as f64, 0.2);
        engine.insert(id, p).unwrap();
        twin.insert(p);
    }
    let spilled = engine.spilled_bytes(id).unwrap().to_vec();
    let before = engine.stats(id).unwrap();
    let report_before = engine.pressure_report();
    assert_eq!(report_before.cold_writes, 3);
    assert_eq!(before.bytes, envelope + 3 * point);
    assert_eq!(
        scraped_ledger(&tel.scrape()),
        reported_ledger(&report_before)
    );

    // A wide ring grows the sample past the budget even once spilled.
    let wide = ring(48, 20.0);
    assert!(matches!(
        engine.insert_batch(id, &wide),
        Err(AdmissionError::OverBudget { .. })
    ));
    let after = engine.stats(id).unwrap();
    assert_eq!(after.tier, Tier::Cold);
    assert_eq!(engine.spilled_bytes(id).unwrap(), &spilled[..]);
    assert_eq!(
        (after.bytes, after.seen, after.ingested, after.shed),
        (before.bytes, before.seen, before.ingested, before.shed)
    );
    let report = engine.pressure_report();
    assert_eq!(scraped_ledger(&tel.scrape()), reported_ledger(&report));
    assert_eq!(report.points_rejected, report_before.points_rejected + 48);
    assert_eq!(report.cold_writes, report_before.cold_writes);
    assert_eq!(report.restores, report_before.restores + 1, "it went hot");
    assert_eq!(report.bytes_in_use, report_before.bytes_in_use);
    assert_eq!(
        fingerprint(engine.summary(id).unwrap()),
        fingerprint(twin.as_ref())
    );
}

/// Write logs are budget relief's to reclaim. A fleet whose envelopes fit
/// the budget, but whose envelopes plus full write logs do not, takes
/// every write under every policy: a write whose log would breach the
/// budget goes hot, and when a new stream arrives with the logs holding
/// the headroom, budget relief folds logs into fresh envelopes before the
/// policy may evict a stream or refuse a write, as it would had the writes
/// restored their tenants. Every tenant then answers like a twin that
/// never spilled.
#[test]
fn write_logs_never_cost_a_stream_or_a_write() {
    const STREAMS: u64 = 6;
    const LATE: u64 = 2;
    let point = std::mem::size_of::<Point2>();
    let ellipse = |t: u64, n: usize| -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / n as f64 + t as f64;
                Point2::new(10.0 * t as f64 + 4.0 * a.cos(), 2.0 * a.sin())
            })
            .collect()
    };
    for kind in SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(16).with_seed(5);
        let envelopes = {
            let mut probe = TenantEngine::new(TenantConfig::new(builder));
            for t in 0..STREAMS {
                probe.insert_batch(StreamId(t), &ellipse(t, 150)).unwrap();
                assert!(probe.spill(StreamId(t)));
            }
            probe.bytes_in_use()
        };
        for policy in [OverloadPolicy::ShedOldest, OverloadPolicy::Reject] {
            // Room for about 9 envelopes of this size: the 6 + 2 streams'
            // envelopes fit, their envelopes plus full logs do not.
            let budget = envelopes * 3 / 2;
            let config = TenantConfig::new(builder)
                .with_budget_bytes(budget)
                .with_policy(policy);
            let mut engine = TenantEngine::new(config);
            let mut twins: Vec<_> = (0..STREAMS + LATE).map(|_| builder.build()).collect();
            for t in 0..STREAMS {
                let pts = ellipse(t, 150);
                engine.insert_batch(StreamId(t), &pts).unwrap();
                twins[t as usize].insert_batch(&pts);
                engine.spill(StreamId(t));
            }
            assert_eq!(engine.bytes_in_use(), envelopes, "{kind:?}");
            // Interior points, round-robin, until every log could have
            // filled twice over.
            let rounds = 2 * envelopes / STREAMS as usize / point;
            for i in 0..rounds {
                for t in 0..STREAMS {
                    let a = i as f64 * 0.7;
                    let p = Point2::new(10.0 * t as f64 + a.cos(), 0.5 * a.sin());
                    engine
                        .insert(StreamId(t), p)
                        .unwrap_or_else(|e| panic!("{kind:?} {policy:?}: {e}"));
                    twins[t as usize].insert(p);
                    assert!(engine.bytes_in_use() <= budget, "{kind:?} {policy:?}");
                }
            }
            for t in STREAMS..STREAMS + LATE {
                let pts = ellipse(t, 150);
                engine
                    .insert_batch(StreamId(t), &pts)
                    .unwrap_or_else(|e| panic!("{kind:?} {policy:?}: late stream {t}: {e}"));
                twins[t as usize].insert_batch(&pts);
                assert!(engine.bytes_in_use() <= budget, "{kind:?} {policy:?}");
            }
            let report = engine.pressure_report();
            let ctx = format!("{kind:?} {policy:?}");
            assert!(report.cold_writes > 0, "{ctx}: the logs took writes");
            assert_eq!(report.streams_shed, 0, "{ctx}: a stream was evicted");
            assert_eq!(report.points_rejected, 0, "{ctx}: a write was refused");
            assert_eq!(report.points_shed, 0, "{ctx}");
            for t in 0..STREAMS + LATE {
                assert_eq!(
                    fingerprint(engine.summary(StreamId(t)).unwrap()),
                    fingerprint(twins[t as usize].as_ref()),
                    "{ctx}: stream {t}"
                );
            }
        }
    }
}

/// A write to a cold tenant whose envelope is corrupt runs the checksum
/// pass a restore starts with, so it quarantines the tenant at that call
/// even when earlier writes sit in its log. A shedding engine sheds the
/// write's points and keeps `seen == ingested + shed` exact.
#[test]
fn write_to_corrupt_cold_tenant_quarantines_it() {
    let ring = |n: usize, cx: f64| -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                Point2::new(cx + t.cos(), t.sin())
            })
            .collect()
    };
    for policy in [OverloadPolicy::Reject, OverloadPolicy::ShedOldest] {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Uniform).with_r(16))
            .with_policy(policy);
        let mut engine = TenantEngine::new(config);
        for t in 0..4u64 {
            engine
                .insert_batch(StreamId(t), &ring(60, t as f64))
                .unwrap();
            assert!(engine.spill(StreamId(t)));
        }
        let victim = StreamId(2);
        engine.insert(victim, Point2::new(0.5, 0.5)).unwrap();
        assert_eq!(
            engine.tier(victim),
            Some(Tier::Cold),
            "first write is logged"
        );
        let len = engine.spilled_bytes(victim).unwrap().len();
        assert!(engine.corrupt_spill(victim, len / 3, 0x10));
        let restores = engine.pressure_report().restores;

        let traffic: Vec<(StreamId, Point2)> = (0..5)
            .map(|i| (victim, Point2::new(i as f64, 0.0)))
            .collect();
        let result = match policy {
            OverloadPolicy::Reject => engine.insert_batch(victim, &ring(5, 0.0)),
            _ => engine.ingest_bulk(&traffic),
        };
        assert_eq!(engine.tier(victim), Some(Tier::Quarantined), "{policy:?}");
        assert_eq!(engine.quarantined_count(), 1);
        let report = engine.pressure_report();
        assert_eq!(report.restores, restores, "no restore was attempted");
        assert_eq!(report.streams_quarantined, 1);
        match policy {
            OverloadPolicy::Reject => assert!(matches!(
                result,
                Err(AdmissionError::Quarantined { stream, .. }) if stream == victim
            )),
            _ => {
                result.unwrap();
                assert_eq!(report.points_shed, 5);
                assert_eq!(engine.stats(victim).unwrap().shed, 5);
            }
        }
        assert_eq!(
            report.points_seen,
            report.points_ingested + report.points_shed
        );
        for t in 0..4u64 {
            let st = engine.stats(StreamId(t)).unwrap();
            assert_eq!(st.seen, st.ingested + st.shed, "tenant {t}");
            if t != victim.0 {
                assert!(engine.hull(StreamId(t)).unwrap().len() >= 3, "tenant {t}");
            }
        }
    }
}

/// The `ShedOldest` queue cap sheds a batch's oldest points stream by
/// stream in first-appearance order, so two engines fed the same
/// over-cap traffic log the same pressure events, in the same order.
#[test]
fn queue_cap_shedding_is_deterministic() {
    let traffic: Vec<(StreamId, Point2)> = (0..40u64)
        .map(|i| (StreamId(i * 7 % 17), Point2::new(i as f64, (i % 5) as f64)))
        .collect();
    let run = || {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact))
            .with_queue_points(4)
            .with_policy(OverloadPolicy::ShedOldest);
        let mut engine = TenantEngine::new(config);
        engine.ingest_bulk(&traffic).unwrap();
        let report = engine.pressure_report();
        assert_eq!(report.points_shed, 36);
        format!("{:?}", report.events)
    };
    let first = run();
    for _ in 0..4 {
        assert_eq!(run(), first, "same traffic, different pressure events");
    }
}
