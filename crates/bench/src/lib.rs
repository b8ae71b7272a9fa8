#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Benchmark support for the PSKETCH reproduction.
//!
//! The benches under `benches/` are plain `harness = false` binaries
//! built on [`Harness`], a dependency-free timing loop (the container
//! has no crates.io access, so Criterion is unavailable). Each
//! measurement reports min/median/mean over a fixed sample count.
//!
//! The `bench_cegis` and `bench_checker` binaries write their
//! machine-readable reports with [`write_report`], naming every
//! counter through the run report's own JSON writers
//! ([`psketch_core::CegisStats::write_json`],
//! [`psketch_core::VerifyCost::write_json`]).

use psketch_core::Json;
use std::time::{Duration, Instant};

/// A named collection of timed measurements.
pub struct Harness {
    /// Samples per measurement.
    pub samples: usize,
    filter: Option<String>,
}

/// One measurement's summary statistics.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::new()
    }
}

impl Harness {
    /// Creates a harness; `--bench` style argv filters (first
    /// non-flag argument) restrict which measurements run.
    pub fn new() -> Harness {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with("--") && a != "bench");
        Harness {
            samples: 10,
            filter,
        }
    }

    /// With a specific sample count.
    pub fn with_samples(samples: usize) -> Harness {
        Harness {
            samples,
            ..Harness::new()
        }
    }

    /// With a specific sample count and no argv filter — for binaries
    /// whose positional arguments are not measurement names.
    pub fn unfiltered(samples: usize) -> Harness {
        Harness {
            samples,
            filter: None,
        }
    }

    /// Times `f` `self.samples` times and prints a summary line.
    /// Returns `None` when the name does not match the CLI filter.
    pub fn bench(&self, name: &str, mut f: impl FnMut()) -> Option<Measurement> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        // One warm-up run outside the measurement.
        f();
        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            f();
            times.push(t0.elapsed());
        }
        times.sort_unstable();
        let m = Measurement {
            min: times[0],
            median: times[times.len() / 2],
            mean: times.iter().sum::<Duration>() / times.len() as u32,
        };
        println!(
            "{name:<48} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  (n={})",
            m.min, m.median, m.mean, self.samples
        );
        Some(m)
    }
}

/// One named field of a bench report row or meta block.
pub fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// Writes a bench report, `{"meta": {...}, "runs": [...]}`, to `path`,
/// one run per line.
///
/// # Panics
///
/// When the file cannot be written.
pub fn write_report(path: &str, meta: Vec<(String, Json)>, runs: &[Json]) {
    let runs: Vec<String> = runs.iter().map(|r| format!("    {}", r.render())).collect();
    let doc = format!(
        "{{\n  \"meta\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        Json::Obj(meta).render(),
        runs.join(",\n")
    );
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures() {
        let h = Harness::with_samples(3);
        let m = h
            .bench("noop", || {
                std::hint::black_box(1 + 1);
            })
            .unwrap();
        assert!(m.min <= m.median);
    }
}
