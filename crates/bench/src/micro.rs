//! A tiny self-contained micro-benchmark harness.
//!
//! The workspace builds fully offline, so the benches under
//! `benches/` cannot use `criterion` (registry dependency). This
//! module provides the ~5% of criterion they actually need: warmup,
//! timed batches over `std::time::Instant`, median-of-samples
//! reporting, and a `black_box` to keep the optimizer honest.
//!
//! Run with `cargo bench -p vr-bench --bench components` (the bench
//! target sets `harness = false` and drives [`Runner`] from `main`).
//! The rows only print: simulator speed is measured end to end by
//! `benchmark/`, not here.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`]: forces the compiler to
/// assume the value is used, preventing dead-code elimination of the
/// benchmarked expression.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Formats a duration at nanosecond/microsecond/millisecond
/// granularity, criterion-style.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// A micro-benchmark runner: owns the sample-count / time-budget
/// policy and prints one line per benchmark.
pub struct Runner {
    group: String,
    /// Timed samples per benchmark (median is reported).
    samples: u32,
    /// Target wall-clock time per sample; iteration count is
    /// calibrated so one sample takes roughly this long.
    sample_time: Duration,
}

impl Runner {
    /// Creates a runner for a named benchmark group.
    pub fn new(group: &str) -> Runner {
        Runner { group: group.to_string(), samples: 11, sample_time: Duration::from_millis(40) }
    }

    /// Benchmarks `f`, calling it once per iteration, prints
    /// `group/name  median-time  (throughput)` and returns the median
    /// wall-clock time per iteration.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Duration {
        // Calibration: find an iteration count whose sample takes
        // roughly `sample_time`. Start at 1 and double.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= self.sample_time || iters >= 1 << 40 {
                break;
            }
            if elapsed.is_zero() {
                iters *= 64;
            } else {
                // Aim directly at the target with 2x headroom cap.
                let scale = self.sample_time.as_secs_f64() / elapsed.as_secs_f64();
                iters = (iters as f64 * scale.clamp(1.1, 64.0)).ceil() as u64;
            }
        }

        // Timed samples.
        let mut per_iter: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed() / iters.max(1) as u32
            })
            .collect();
        per_iter.sort_unstable();
        let median = per_iter[per_iter.len() / 2];
        println!(
            "{:<44} {:>12}/iter   {:>14.0} iters/s",
            format!("{}/{}", self.group, name),
            fmt_duration(median),
            1.0 / median.as_secs_f64()
        );
        median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut r = Runner::new("t");
        r.samples = 3;
        r.sample_time = Duration::from_micros(200);
        let mut acc = 0u64;
        let per_iter = r.bench("spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(per_iter > Duration::ZERO);
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(5)).ends_with(" s"));
    }
}
