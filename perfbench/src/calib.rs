//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed changes while
//! it runs: the same warm run has been measured to take anywhere from 1× to
//! 2× its quiet time, in phases lasting from a second to minutes, and the two
//! vCPUs of one guest do not always slow together. The guest's steal-time
//! counter does not see it.
//!
//! So a timed run pins itself to one vCPU (`pin_to_one_cpu` in `main.rs`),
//! and a [`Sampler`] thread sharing that vCPU times a small fixed
//! compute kernel of the benchmark's own every [`PERIOD`]. Each timed sample
//! is scaled by [`REFERENCE_S`] ÷ the kernel's mean time over the sample's
//! interval: it reads as the seconds the sample would have taken on a host
//! that runs the kernel in [`REFERENCE_S`]. A change to the program moves a
//! scaled time; a change in host speed mostly does not. The kernel never
//! changes with the program. It is short enough (about 0.2 ms) to finish
//! within one scheduler slice, so the workload does not preempt it, and it
//! takes about 5 % of the vCPU.
//!
//! Measured on `fig12-grid`, eight seeds, in a noisy phase: the quartile
//! spread of the median warm run was 0.27 of the median unscaled and 0.07
//! scaled. A kernel that also chased pointers through DRAM, or one timed on
//! the other vCPU, tracked the workloads worse.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Vertices of the calibration graph.
const N: usize = 256;
/// Out-degree of every vertex.
const DEGREE: usize = 8;
/// Width of the dense operands.
const WIDTH: usize = 32;
/// Pause between two kernel timings of the sampler.
const PERIOD: Duration = Duration::from_millis(5);
/// Shortest window a sample's scale is averaged over; shorter samples are
/// widened around their middle.
const MIN_WINDOW_S: f64 = 0.5;

/// Time one kernel pass takes on the reference host (2-vCPU KVM guest,
/// Xeon Sapphire Rapids, quiet phase), seconds. Any constant would do: it
/// only sets the unit scaled timings are read in.
pub const REFERENCE_S: f64 = 0.000_15;

/// The calibration kernel's fixed operands.
struct Kernel {
    cols: Vec<u32>,
    vals: Vec<f32>,
    x: Vec<f32>,
    w: Vec<f32>,
    acc: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
}

impl Kernel {
    /// Builds the operands from a fixed generator: the same on every run.
    fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let cols = (0..N * DEGREE)
            .map(|_| (next() % N as u64) as u32)
            .collect();
        let mut unit = || (next() % 1024) as f32 / 1024.0 - 0.5;
        let vals = (0..N * DEGREE).map(|_| unit()).collect();
        let x = (0..N * WIDTH).map(|_| unit()).collect();
        let w = (0..WIDTH * WIDTH).map(|_| unit()).collect();
        Self {
            cols,
            vals,
            x,
            w,
            acc: vec![0.0; N],
            y: vec![0.0; N * WIDTH],
            z: vec![0.0; N * WIDTH],
        }
    }

    /// Runs the kernel once and returns its wall time, seconds.
    fn time(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.run());
        start.elapsed().as_secs_f64()
    }

    /// One pass: row-by-row `A·A` into a dense accumulator (Gustavson),
    /// `Y = A·X` and `Z = Y·W`, the three kinds of product the simulator
    /// runs. Returns a checksum so no part is elided.
    fn run(&mut self) -> f32 {
        let row = |r: usize| r * DEGREE..(r + 1) * DEGREE;
        let mut sum = 0.0f32;
        for r in 0..N {
            for k in row(r) {
                let (mid, a) = (self.cols[k] as usize, self.vals[k]);
                for j in row(mid) {
                    self.acc[self.cols[j] as usize] += a * self.vals[j];
                }
            }
            for k in row(r) {
                for j in row(self.cols[k] as usize) {
                    let c = self.cols[j] as usize;
                    sum += self.acc[c];
                    self.acc[c] = 0.0;
                }
            }
            let y = &mut self.y[r * WIDTH..(r + 1) * WIDTH];
            y.fill(0.0);
            for k in row(r) {
                let (c, a) = (self.cols[k] as usize, self.vals[k]);
                for (yv, xv) in y.iter_mut().zip(&self.x[c * WIDTH..(c + 1) * WIDTH]) {
                    *yv += a * xv;
                }
            }
        }
        for r in 0..N {
            let z = &mut self.z[r * WIDTH..(r + 1) * WIDTH];
            z.fill(0.0);
            for (i, &yv) in self.y[r * WIDTH..(r + 1) * WIDTH].iter().enumerate() {
                for (zv, wv) in z.iter_mut().zip(&self.w[i * WIDTH..(i + 1) * WIDTH]) {
                    *zv += yv * wv;
                }
            }
            sum += z[r % WIDTH];
        }
        sum
    }
}

/// Wall-clock seconds since the Unix epoch: the time base a sampler shares
/// with the processes it watches.
pub fn now() -> f64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// A thread that times the kernel every [`PERIOD`] until it is finished or
/// dropped; dropping it stops and joins the thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<(f64, f64)>>>,
}

impl Sampler {
    /// Starts the sampling thread.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // Built and warmed here, before the caller times anything.
        let mut kernel = Kernel::new();
        for _ in 0..3 {
            kernel.time();
        }
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let at = now();
                samples.push((at, kernel.time()));
            }
            samples
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and returns its timings.
    pub fn finish(mut self) -> Result<Timeline, &'static str> {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self.handle.take().ok_or("sampler already stopped")?;
        let samples = handle.join().map_err(|_| "calibration sampler panicked")?;
        Ok(Timeline { samples })
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            // A panic here would abort; `finish` reports one instead.
            let _ = handle.join();
        }
    }
}

/// The kernel timings of a finished [`Sampler`], by wall-clock time.
pub struct Timeline {
    samples: Vec<(f64, f64)>,
}

impl Timeline {
    /// Number of kernel timings.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time over the whole timeline, seconds.
    pub fn median(&self) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
    }

    /// Scales a sample by the mean kernel time over its interval, widened
    /// to [`MIN_WINDOW_S`]. NaN when no kernel timing falls in the window.
    pub fn scale(&self, s: Sample) -> f64 {
        let pad = (MIN_WINDOW_S - s.secs).max(0.0) / 2.0;
        let (from, to) = (s.end - s.secs - pad, s.end + pad);
        let (n, sum) = self
            .samples
            .iter()
            .filter(|k| k.0 >= from && k.0 <= to)
            .fold((0usize, 0.0), |(n, sum), k| (n + 1, sum + k.1));
        if n == 0 {
            return f64::NAN;
        }
        s.secs * REFERENCE_S * n as f64 / sum
    }
}

/// One timed sample: its host seconds and the wall-clock time it ended.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host seconds the sample took.
    pub secs: f64,
    /// Wall-clock time ([`now`]) when it ended.
    pub end: f64,
}

/// Runs `f` and times it as a [`Sample`].
pub fn sample<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    (out, Sample { secs, end: now() })
}
