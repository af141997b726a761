//! The streamhull benchmark: three closed-loop workloads over the paper's
//! adaptive hull (r = 32), each loading different layers of the program.
//!
//! ```text
//! cargo run --release --manifest-path hullbench/Cargo.toml -- \
//!     --workload <stream_ingest|fleet_serve|window_supervised> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The line before it stamps the run
//! with host CPU count, rustc version, git revision, seed, sample counts
//! and the host's slowdown against the reference host (see `host`). A failed output check prints the result with
//! `"correct": false` and exits with code 1. See `README.md`.

#![deny(unsafe_code)]

mod fleet_serve;
mod host;
mod report;
mod stats;
mod stream_ingest;
mod trace;
mod window_supervised;

use report::Outcome;
use std::process::ExitCode;

/// The paper's adaptive backend at r = 32, shared by every workload.
pub const R: u32 = 32;

/// One run's parameters, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The CPU the run is confined to.
    pub pin: host::Pin,
}

impl Ctx {
    /// A sub-seed for the `k`-th independent input of this run.
    pub fn sub_seed(&self, k: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(k.wrapping_add(0xB3C4)))
    }
}

/// SplitMix64 mixer for deriving sub-seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Paper scale `D / r²` for a point set of diameter `d`.
pub fn paper_scale(d: f64) -> f64 {
    d / f64::from(R * R)
}

/// Where a traced run writes its spans: `out/` inside the benchmark's
/// directory, one JSON object per line.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

const WORKLOADS: &[&str] = &["stream_ingest", "fleet_serve", "window_supervised"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("hullbench: {msg}");
    eprintln!(
        "usage: hullbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    quiet_injected_crashes();
    let pin = host::Pin::one_cpu();
    let ctx = Ctx {
        seed,
        seconds: seconds as f64,
        trace,
        pin,
    };
    let mut outcome: Outcome = match workload.as_str() {
        "stream_ingest" => stream_ingest::run(&ctx),
        "fleet_serve" => fleet_serve::run(&ctx, 0.0),
        _ => window_supervised::run(&ctx),
    };
    outcome.check_metrics_finite(trace);
    for f in &outcome.failures {
        eprintln!("hullbench: check failed: {f}");
    }
    println!("{}", report::stamp_line(&ctx, &workload, seconds, &outcome));
    println!("{}", outcome.result_line(trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The scripted worker crash of `window_supervised` is a real panic on a
/// worker thread; keep its message off stderr and report every other
/// panic as usual.
fn quiet_injected_crashes() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default(info);
        }
    }));
}
