//! The host the benchmark runs on: one CPU for the whole run, and a gauge
//! of how fast that CPU is running.
//!
//! On a small shared VM, two busy threads run in one of two host states
//! for tens of seconds at a time — in one they overlap, in the other they
//! take longer together than one after the other — and a single thread
//! runs faster or slower by a tenth or more for tens of seconds. The
//! benchmark therefore confines itself to one CPU (its threads take turns
//! on it), and times a fixed reference computation of its own, the
//! gauge, between the measured units of a run. The gauge's time moves
//! with the host and with nothing the program does: it runs only while
//! the program is idle, and its code and inputs never change.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    //! `sched_getaffinity` / `sched_setaffinity` of the calling thread,
    //! from the C library the standard library already links.

    /// A `cpu_set_t`: 1024 CPUs, one bit each.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub type CpuSet = [u64; 16];
    pub fn get() -> Option<CpuSet> {
        None
    }
    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// The CPUs the process was started with, and the one it runs on.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    all: Option<sys::CpuSet>,
    /// CPUs the process could use when it started.
    pub cpus: usize,
    /// The CPU the process is confined to, if confining worked.
    pub cpu: Option<usize>,
}

impl Pin {
    /// Confines the calling thread, and every thread it starts later, to
    /// the lowest-numbered CPU it may run on. Call it before any thread
    /// is started.
    pub fn one_cpu() -> Pin {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let all = sys::get();
        let cpu = all.and_then(|mask| {
            let cpu = (0..1024).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
            sys::set(&only(cpu)).then_some(cpu)
        });
        Pin { all, cpus, cpu }
    }

    /// Runs `f` with the calling thread, and the threads `f` starts, free
    /// to use every CPU the process started with; then confines it again.
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        let (Some(all), Some(cpu)) = (self.all, self.cpu) else {
            return f();
        };
        sys::set(&all);
        let out = f();
        sys::set(&only(cpu));
        out
    }
}

/// The CPU set holding `cpu` alone.
fn only(cpu: usize) -> sys::CpuSet {
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    one
}

/// Slots of the gauge's pointer-chase table: 32 MiB of `u32`, more than
/// the private caches hold.
const CHAIN_LEN: usize = 1 << 23;
/// Bytes of the gauge's table.
pub const GAUGE_BYTES: usize = CHAIN_LEN * size_of::<u32>();
/// Dependent loads per gauge sample: 512 cache lines, so a sample evicts
/// little of the program's working set.
const MEM_STEPS: usize = 512;
/// Points and directions of the gauge's arithmetic part.
const GAUGE_POINTS: usize = 256;
const GAUGE_DIRS: usize = 32;
/// Rounds of the arithmetic part per sample.
const CPU_ROUNDS: usize = 16;
/// The median gauge sample on the reference host, in nanoseconds: about
/// what the 2-vCPU Xeon VM that defined the benchmark reads (0.15 ms of
/// arithmetic, 0.25 ms of loads).
pub const GAUGE_REF_NS: f64 = 400_000.0;

/// Gauge samples of one run.
#[derive(Debug)]
pub struct Gauge {
    chain: Vec<u32>,
    pos: u32,
    points: Vec<(f64, f64)>,
    dirs: Vec<(f64, f64)>,
    /// Nanoseconds of each sample.
    samples_ns: Vec<f64>,
}

impl Gauge {
    /// A gauge with the same inputs on every run: a single-cycle chain
    /// (Sattolo's shuffle) and a point set, both from a fixed seed.
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut chain: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        for i in (1..CHAIN_LEN).rev() {
            chain.swap(i, (next() % i as u64) as usize);
        }
        let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let points = (0..GAUGE_POINTS)
            .map(|_| (unit(next()), unit(next())))
            .collect();
        let dirs = (0..GAUGE_DIRS)
            .map(|k| {
                let a = std::f64::consts::TAU * k as f64 / GAUGE_DIRS as f64;
                (a.cos(), a.sin())
            })
            .collect();
        Gauge {
            chain,
            pos: 0,
            points,
            dirs,
            samples_ns: Vec::new(),
        }
    }

    /// Times one sample: the extreme points of a fixed point set along
    /// fixed directions (arithmetic), then a chain of dependent loads
    /// (memory).
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut best = [f64::NEG_INFINITY; GAUGE_DIRS];
        for round in 0..CPU_ROUNDS {
            let shift = round as f64 * 1e-3;
            for &(px, py) in &self.points {
                for (b, &(dx, dy)) in best.iter_mut().zip(&self.dirs) {
                    *b = b.max((px + shift) * dx + py * dy);
                }
            }
        }
        black_box(&best);
        let mut j = self.pos;
        for _ in 0..MEM_STEPS {
            j = self.chain[j as usize];
        }
        self.pos = black_box(j);
        self.samples_ns.push(t0.elapsed().as_nanos() as f64);
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// How much slower than the reference host the run's host ran: the
    /// median sample over [`GAUGE_REF_NS`].
    pub fn slowdown(&self) -> f64 {
        median(&self.samples_ns) / GAUGE_REF_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_samples_give_a_finite_slowdown() {
        let mut g = Gauge::new();
        for _ in 0..5 {
            g.sample();
        }
        assert_eq!(g.samples(), 5);
        assert!(g.slowdown().is_finite() && g.slowdown() > 0.0);
    }

    #[test]
    fn the_chain_is_one_cycle() {
        let g = Gauge::new();
        let mut j = 0u32;
        let mut steps = 0usize;
        loop {
            j = g.chain[j as usize];
            steps += 1;
            if j == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN_LEN);
    }
}
