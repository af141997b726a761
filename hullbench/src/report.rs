//! Metric tables, the per-run outcome, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_pts_per_s", "pts/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("hull_error_ratio", "ratio"),
    ("error_bar_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run. A layer a workload
/// leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parallel.run_ms", "ms"),
    ("parallel.speedup_2v1", "ratio"),
    ("parallel.shard_skew", "ratio"),
    ("summaries.insert_ns_per_pt", "ns"),
    ("summaries.sample_size", "count"),
    ("summaries.hull_read_us", "us"),
    ("tenant.ingest_bulk_us_p50", "us"),
    ("tenant.ingest_bulk_us_p99", "us"),
    ("tenant.tick_us_p50", "us"),
    ("tenant.spills", "1/batch"),
    ("tenant.restores", "1/batch"),
    ("tenant.bytes_per_stream", "bytes"),
    ("tenant.points_shed", "count"),
    ("snapshot.spill_us_p50", "us"),
    ("snapshot.restore_us_p50", "us"),
    ("snapshot.envelope_bytes", "bytes"),
    ("queries.hit_ratio", "ratio"),
    ("queries.hit_us_p50", "us"),
    ("queries.miss_hot_us_p50", "us"),
    ("queries.miss_cold_us_p50", "us"),
    ("queries.samples", "count"),
    ("queries.topk_ms_p50", "ms"),
    ("queries.topk_restores", "count"),
    ("queries.topk_pruned_frac", "ratio"),
    ("telemetry.scrape_us_p50", "us"),
    ("telemetry.on_off_ratio", "ratio"),
    ("window.insert_ns_per_pt", "ns"),
    ("window.buckets", "count"),
    ("window.merges", "count"),
    ("window.query_ms", "ms"),
    ("recovery.run_ms", "ms"),
    ("recovery.overhead", "ratio"),
    ("recovery.checkpoints_taken", "count"),
    ("recovery.replayed_points", "count"),
    ("trace.overhead", "ratio"),
    ("bench.self_frac", "ratio"),
    ("parallel.self_frac", "ratio"),
    ("summaries.self_frac", "ratio"),
    ("tenant.self_frac", "ratio"),
    ("snapshot.self_frac", "ratio"),
    ("queries.self_frac", "ratio"),
    ("telemetry.self_frac", "ratio"),
    ("window.self_frac", "ratio"),
    ("recovery.self_frac", "ratio"),
];

/// End-to-end metrics that are times: on a host running `f` times slower
/// than the reference host they read `f` times higher.
const HOST_TIMES: &[&str] = &["setup_s", "query_p50_us", "query_p99_us"];
/// End-to-end metrics that are rates: they read `f` times lower there.
const HOST_RATES: &[&str] = &["ingest_pts_per_s"];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted: points offered, queries issued, checks made.
    pub attempted: u64,
    /// Operations failed: shed or lost points, query errors, failed checks.
    pub failed: u64,
    /// Output checks that failed, with what was seen.
    pub failures: Vec<String>,
    /// Sample counts and other context printed with the stamp.
    pub notes: BTreeMap<&'static str, f64>,
    /// How much slower than the reference host the run's host ran, and
    /// the timed end-to-end metrics as read before scaling them by it.
    pub host: Option<(f64, BTreeMap<&'static str, f64>)>,
}

impl Outcome {
    /// Records one output check; a failed one counts as a failed
    /// operation and fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
    }

    /// Scales the timed end-to-end metrics to the reference host, given
    /// how much slower the run's host ran (see [`crate::host::Gauge`]):
    /// times are divided by `slowdown`, rates multiplied by it. The
    /// values as read are kept for the stamp line.
    pub fn scale_to_reference_host(&mut self, slowdown: f64) {
        let mut raw = BTreeMap::new();
        for (&name, v) in &mut self.e2e {
            if HOST_TIMES.contains(&name) {
                raw.insert(name, *v);
                *v /= slowdown;
            } else if HOST_RATES.contains(&name) {
                raw.insert(name, *v);
                *v *= slowdown;
            }
        }
        self.host = Some((slowdown, raw));
    }

    /// Sets a per-layer metric, which must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Fills `<layer>.self_frac` from per-layer self times.
    pub fn self_fracs(&mut self, self_ns: &BTreeMap<&'static str, u64>) {
        let total: u64 = self_ns.values().sum();
        for (&layer, &ns) in self_ns {
            let name: &'static str = match PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix(".self_frac") == Some(layer))
            {
                Some((n, _)) => n,
                None => panic!("span layer {layer} has no self_frac metric"),
            };
            self.layers.insert(
                name,
                if total == 0 {
                    0.0
                } else {
                    ns as f64 / total as f64
                },
            );
        }
    }

    /// Fails the run for every metric of the result line's table that is
    /// not finite, and for every missing end-to-end metric (a per-layer
    /// metric of an idle layer is missing by design and prints 0). Such a
    /// value must not read as a number the parent can be compared with.
    pub fn check_metrics_finite(&mut self, traced: bool) {
        let (table, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let bad: Vec<String> = table
            .iter()
            .filter(|(name, _)| match values.get(name) {
                Some(v) => !v.is_finite(),
                None => !traced,
            })
            .map(|(name, _)| format!("{name} = {:?}", values.get(name)))
            .collect();
        for b in bad {
            self.check("metric is finite", false, || b);
        }
    }

    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and either every
    /// end-to-end metric (untraced) or every per-layer metric (traced).
    pub fn result_line(&self, traced: bool) -> String {
        let (table, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; `null` for a non-finite value,
/// which fails the run (see [`Outcome::check_metrics_finite`]).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set of this process in MB (`VmHWM`) without the host
/// gauge's table, which every run holds from its start; 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| {
            (kb * 1024.0 - crate::host::GAUGE_BYTES as f64) / (1 << 20) as f64
        })
}

/// The commit the benchmark runs on, read from the `.git` directory of
/// the checkout holding the benchmark; `none` outside a git checkout.
pub fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel));
    let head = match read("HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `{"k": v, ...}` with every value as a JSON number.
fn json_map(map: &BTreeMap<&'static str, f64>) -> String {
    let items: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The stamp line printed before the result: host CPU count and the CPU
/// the run was confined to, toolchain, commit, seed, the run's sample
/// counts, the host's slowdown against the reference host and the timed
/// end-to-end metrics as read before scaling them by it.
pub fn stamp_line(ctx: &crate::Ctx, workload: &str, seconds: u64, o: &Outcome) -> String {
    let cpu = ctx.pin.cpu.map_or("null".to_string(), |c| c.to_string());
    let (slowdown, raw) = match &o.host {
        Some((s, raw)) => (json_num(*s), json_map(raw)),
        None => ("null".to_string(), "{}".to_string()),
    };
    format!(
        "{{\"stamp\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {seconds}, \
         \"trace\": {}, \"host_cpus\": {}, \"cpu\": {cpu}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"samples\": {}, \"host_slowdown\": {slowdown}, \"as_read\": {raw}}}}}",
        ctx.seed,
        u8::from(ctx.trace),
        ctx.pin.cpus,
        env!("HULLBENCH_RUSTC_VERSION"),
        git_rev(),
        json_map(&o.notes),
    )
}

/// The entries of one metric list of `BENCHMARK.json`, each as
/// `(key, raw value)` pairs — enough parsing for the benchmark's own
/// tests to hold the declared names, units and bounds to the code.
#[cfg(test)]
pub fn declared(section: &str) -> Vec<Vec<(String, String)>> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let entry = &entry[..entry.find('}').expect("entry closes")];
            entry
                .split(',')
                .map(|field| {
                    let (k, v) = field.split_once(':').expect("key: value");
                    (
                        k.trim().trim_matches('"').to_string(),
                        v.trim().trim_matches('"').to_string(),
                    )
                })
                .collect()
        })
        .collect()
}

/// The bound `BENCHMARK.json` declares for an end-to-end metric.
#[cfg(test)]
pub fn declared_bound(name: &str) -> f64 {
    declared("end_to_end")
        .into_iter()
        .find(|e| e.iter().any(|(k, v)| k == "name" && v == name))
        .and_then(|e| e.into_iter().find(|(k, _)| k == "bound"))
        .and_then(|(_, v)| v.parse().ok())
        .expect("metric declares a numeric bound")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and the metric lists in `BENCHMARK.json` must
    /// name the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let names_units = |section: &str| -> Vec<(String, String)> {
            declared(section)
                .into_iter()
                .map(|e| {
                    let get =
                        |key: &str| e.iter().find(|(k, _)| k == key).expect("field").1.clone();
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units("end_to_end"), owned(END_TO_END));
        assert_eq!(names_units("per_layer"), owned(PER_LAYER));
        for (name, _) in END_TO_END {
            let bound = declared_bound(name);
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
    }

    #[test]
    fn non_finite_or_missing_end_to_end_metrics_fail_the_run() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.e2e.insert(name, 1.0);
        }
        o.check_metrics_finite(false);
        assert!(o.correct());
        o.e2e.insert("error_bar_ratio", f64::INFINITY);
        o.e2e.remove("setup_s");
        o.layers.insert("trace.overhead", f64::NAN);
        o.check_metrics_finite(false);
        o.check_metrics_finite(true);
        assert_eq!(o.failed, 3);
        assert!(o
            .result_line(false)
            .contains("\"error_bar_ratio\": {\"value\": null"));
    }

    #[test]
    fn scaling_to_the_reference_host_touches_only_timed_metrics() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.e2e.insert(name, 8.0);
        }
        o.scale_to_reference_host(2.0);
        assert_eq!(o.e2e["setup_s"], 4.0);
        assert_eq!(o.e2e["query_p99_us"], 4.0);
        assert_eq!(o.e2e["ingest_pts_per_s"], 16.0);
        assert_eq!(o.e2e["hull_error_ratio"], 8.0);
        assert_eq!(o.e2e["peak_rss_mb"], 8.0);
        let (slowdown, raw) = o.host.expect("scaled");
        assert_eq!(slowdown, 2.0);
        assert_eq!(raw.len(), 4);
        assert!(raw.values().all(|&v| v == 8.0));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut o = Outcome::default();
        o.e2e.insert("setup_s", 0.25);
        o.check("ok", true, String::new);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        o.check("bad", false, || "seen".to_string());
        o.check_metrics_finite(true);
        assert_eq!(o.failed, 1, "idle layers are not failures");
        assert!(o
            .result_line(true)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
