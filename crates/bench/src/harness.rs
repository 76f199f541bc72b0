//! A small, dependency-free micro-benchmark harness.
//!
//! The build environment is offline, so the workspace carries its own
//! harness instead of `criterion`. The API is a deliberate subset of
//! criterion's: each bench binary builds a [`Harness`], registers closures
//! with [`Harness::bench_function`], and gets per-benchmark timing
//! statistics on stdout. Each benchmark is calibrated to a target sample
//! duration, then measured over `sample_size` samples; the median is the
//! headline number (robust against scheduler noise on shared machines).
//!
//! Benches run with `cargo bench` (all of them) or
//! `cargo bench --bench <name> -- <filter>` (substring filter). Passing
//! `--quick` reduces the sample count for smoke-testing, and
//! `--json <path>` additionally writes the results as a machine-readable
//! report (see [`crate::report`]) — the input of the CI benchmark gate.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Target wall time for one calibrated sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Hands the measured closure to a benchmark body, criterion-style.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back invocations of `f`.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// One benchmark's aggregated timing.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Median time per iteration.
    pub median: Duration,
    /// Fastest sample's time per iteration.
    pub min: Duration,
    /// Slowest sample's time per iteration.
    pub max: Duration,
    /// Iterations per sample after calibration.
    pub iters: u64,
}

/// The benchmark registry and runner.
pub struct Harness {
    sample_size: usize,
    filter: Option<String>,
    json: Option<PathBuf>,
    bench_name: String,
    results: Vec<Sample>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness configured from the command line: the first free argument
    /// is a substring filter, `--quick` drops the sample count to 3, and
    /// `--json <path>` writes a machine-readable report on
    /// [`Harness::finish`].
    #[must_use]
    pub fn new() -> Self {
        let mut args = std::env::args();
        // The binary path names the bench in the JSON report
        // (`.../deps/stages-<hash>` -> `stages`).
        let bench_name = args
            .next()
            .map(|p| {
                let stem = PathBuf::from(p)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                stem.split_once('-')
                    .map_or(stem.clone(), |(name, _)| name.to_string())
            })
            .unwrap_or_else(|| "bench".to_string());
        let mut quick = false;
        let mut json = None;
        let mut filter = None;
        let mut rest = args.peekable();
        while let Some(a) = rest.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--json" => json = rest.next().map(PathBuf::from),
                // Cargo's bench runner passes `--bench`; ignore other
                // flags generally.
                f if f.starts_with('-') => {}
                free => {
                    if filter.is_none() {
                        filter = Some(free.to_string());
                    }
                }
            }
        }
        Harness {
            sample_size: if quick { 3 } else { 10 },
            filter,
            json,
            bench_name,
            results: Vec::new(),
        }
    }

    /// Overrides the number of samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Registers and immediately runs one benchmark.
    pub fn bench_function(&mut self, name: &str, mut body: impl FnMut(&mut Bencher)) {
        if let Some(f) = &self.filter {
            if !name.contains(f.as_str()) {
                return;
            }
        }
        // Calibrate: time one iteration, then scale so a sample lasts
        // roughly TARGET_SAMPLE.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        body(&mut b);
        let once = b.elapsed.max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            body(&mut b);
            per_iter.push(b.elapsed / u32::try_from(iters).unwrap_or(u32::MAX));
        }
        per_iter.sort_unstable();
        let sample = Sample {
            name: name.to_string(),
            median: per_iter[per_iter.len() / 2],
            min: per_iter[0],
            max: per_iter[per_iter.len() - 1],
            iters,
        };
        self.record(sample);
    }

    /// Registers and runs several benchmarks side by side, for gates that
    /// compare them: each arm is called once untimed and calibrated, then
    /// their samples are taken in turn, round after round (three times
    /// the usual count), so that a cold start or a drift in the host's
    /// speed lands on every arm alike instead of on whichever ran first.
    pub fn bench_interleaved(&mut self, arms: &mut [(&str, &mut dyn FnMut())]) {
        let filter = self.filter.clone();
        let mut arms: Vec<_> = arms
            .iter_mut()
            .filter(|(name, _)| filter.as_deref().is_none_or(|f| name.contains(f)))
            .map(|(name, f)| {
                f();
                let start = Instant::now();
                f();
                let once = start.elapsed().max(Duration::from_nanos(1));
                let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
                (*name, f, iters, Vec::new())
            })
            .collect();
        for _ in 0..self.sample_size * 3 {
            for (_, f, iters, per_iter) in &mut arms {
                let start = Instant::now();
                for _ in 0..*iters {
                    f();
                }
                per_iter.push(start.elapsed() / u32::try_from(*iters).unwrap_or(u32::MAX));
            }
        }
        for (name, _, iters, mut per_iter) in arms {
            per_iter.sort_unstable();
            self.record(Sample {
                name: name.to_string(),
                median: per_iter[per_iter.len() / 2],
                min: per_iter[0],
                max: per_iter[per_iter.len() - 1],
                iters,
            });
        }
    }

    /// Prints one benchmark's line and keeps its sample.
    fn record(&mut self, sample: Sample) {
        println!(
            "{:<44} {:>12} (min {:>12}, max {:>12}, {} iters/sample)",
            sample.name,
            fmt_duration(sample.median),
            fmt_duration(sample.min),
            fmt_duration(sample.max),
            sample.iters
        );
        self.results.push(sample);
    }

    /// All samples collected so far.
    #[must_use]
    pub fn results(&self) -> &[Sample] {
        &self.results
    }

    /// Prints the closing summary line and, when `--json <path>` was
    /// passed, writes the machine-readable report there.
    ///
    /// # Panics
    ///
    /// Panics when the report file cannot be written — a CI bench run
    /// that silently loses its report would pass the gate vacuously.
    pub fn finish(&self) {
        println!("{} benchmarks run", self.results.len());
        if let Some(path) = &self.json {
            let report = crate::report::BenchReport::from_samples(&self.bench_name, &self.results);
            std::fs::write(path, report.to_json())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            println!("wrote {} ({} entries)", path.display(), self.results.len());
        }
    }
}

/// Renders a duration with a unit that keeps 3-4 significant digits.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(17)), "17 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.00 s");
    }

    #[test]
    fn bencher_measures_and_harness_collects() {
        let mut h = Harness {
            sample_size: 2,
            filter: None,
            json: None,
            bench_name: "test".into(),
            results: Vec::new(),
        };
        let mut runs = 0u64;
        h.bench_function("counting", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        assert_eq!(h.results().len(), 1);
        assert!(runs > 0);
        assert!(h.results()[0].median >= Duration::ZERO);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut h = Harness {
            sample_size: 1,
            filter: Some("wanted".into()),
            json: None,
            bench_name: "test".into(),
            results: Vec::new(),
        };
        h.bench_function("other", |b| b.iter(|| 1));
        assert!(h.results().is_empty());
        h.bench_function("wanted/case", |b| b.iter(|| 1));
        assert_eq!(h.results().len(), 1);
    }
}
