//! Minimal wall-clock micro-benchmark support.
//!
//! A std-only stand-in for an external bench harness (the repo's dependency
//! policy keeps the tree hermetic; see DESIGN.md §6). Each case is
//! auto-calibrated to a target sample duration, run for a fixed number of
//! samples, and reported as the median ns/iteration — stable enough for the
//! relative comparisons the `harness bench` sections make.

use std::time::{Duration, Instant};

/// Target wall-clock duration of one sample batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// One benchmark case's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/name` label.
    pub name: String,
    /// Number of timed sample batches.
    pub samples: usize,
    /// Iterations per sample batch (calibrated).
    pub iters_per_sample: u64,
    /// Median nanoseconds per iteration.
    pub median_ns: u64,
    /// Fastest sample's nanoseconds per iteration.
    pub min_ns: u64,
}

/// Times `f`, returning measurements without printing.
pub fn run(name: &str, samples: usize, mut f: impl FnMut()) -> BenchResult {
    measure(name, samples, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    })
}

/// Times `f` on a fresh input from `setup` each iteration, `setup` and
/// dropping the input untimed: for a step whose input keeps its result (a
/// snapshot-queue build, which the annotation keeps), so that every timed
/// call does the work.
pub fn run_fresh<T>(
    name: &str,
    samples: usize,
    mut setup: impl FnMut() -> T,
    mut f: impl FnMut(&T),
) -> BenchResult {
    measure(name, samples, |iters| {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            f(&input);
            total += start.elapsed();
        }
        total
    })
}

/// Calibrates a batch size with `batch(iters)`, the time `iters`
/// iterations take, then takes `samples` batches.
fn measure(name: &str, samples: usize, mut batch: impl FnMut(u64) -> Duration) -> BenchResult {
    // Calibrate: double the batch size until one batch takes long enough
    // to time reliably.
    let mut iters: u64 = 1;
    while batch(iters) < TARGET_SAMPLE && iters < 1 << 20 {
        iters *= 2;
    }
    let samples = samples.max(1);
    let mut per_iter: Vec<u64> = (0..samples)
        .map(|_| (batch(iters).as_nanos() / u128::from(iters)) as u64)
        .collect();
    per_iter.sort_unstable();
    BenchResult {
        name: name.to_string(),
        samples,
        iters_per_sample: iters,
        median_ns: per_iter[samples / 2],
        min_ns: per_iter[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let r = run("spin", 3, || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert!(r.min_ns > 0 || r.iters_per_sample > 1);
        assert!(r.median_ns >= r.min_ns);
        assert_eq!(r.name, "spin");
    }

    #[test]
    fn fresh_runs_time_the_step_alone() {
        let (mut made, mut used) = (0u64, Vec::new());
        let r = run_fresh(
            "fresh",
            3,
            || {
                std::thread::sleep(Duration::from_millis(5));
                made += 1;
                made
            },
            |&input| {
                std::thread::sleep(Duration::from_millis(1));
                used.push(input);
            },
        );
        // Every call got its own input, and the setup's sleep is untimed.
        assert_eq!(used, (1..=made).collect::<Vec<_>>());
        assert!((1_000_000..5_000_000).contains(&r.median_ns), "{r:?}");
    }
}
