#![warn(missing_docs)]
//! The PSKETCH benchmark suite.
//!
//! Reproduces the evaluation of *Sketching Concurrent Data
//! Structures* (PLDI 2008): the ten sketches of Table 1, the
//! per-test performance measurements of Figure 9, and the
//! log|C|-vs-iterations trend of Figure 10.
//!
//! Benchmark sources are *generated* for a given workload descriptor
//! (e.g. `ed(ed|ed)`, see [`workload::Workload`]); the generators live
//! in [`queue`], [`barrier`], [`set`] and [`dinphilo`]. The
//! [`figure9_runs`] registry enumerates exactly the benchmark/test
//! pairs of the paper's Figure 9.
//!
//! Binaries:
//!
//! * `table1` — prints Table 1 (benchmarks and candidate-space sizes);
//! * `fig9` — runs every Figure 9 test and prints the measurements;
//! * `fig10` — prints (log10 |C|, iterations) pairs for Figure 10;
//! * `psketch` — a small CLI that synthesizes a sketch from a file.

pub mod barrier;
pub mod dinphilo;
pub mod dlist;
pub mod queue;
pub mod set;
pub mod tutorial;
pub mod workload;

use barrier::BarrierVariant;
use dinphilo::PhiloVariant;
use psketch_core::{Config, Options};
use queue::{DequeueVariant, EnqueueVariant};
use set::SetVariant;
use workload::Workload;

/// Checker and prescreen knobs shared by every suite binary
/// (`psketch`, `fig9`, `fig10`, `table1`): `--no-por`,
/// `--no-prescreen` and `--bank-cap N`. Parsed once here so the
/// ablation flags stay in lockstep across the bins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckerArgs {
    /// Ample-set partial-order reduction ([`Options::por`]).
    pub por: bool,
    /// Schedule-bank prescreening ([`Options::prescreen`]).
    pub prescreen: bool,
    /// Schedule-bank capacity ([`Options::bank_capacity`]).
    pub bank_capacity: usize,
}

impl Default for CheckerArgs {
    fn default() -> CheckerArgs {
        let d = Options::default();
        CheckerArgs {
            por: d.por,
            prescreen: d.prescreen,
            bank_capacity: d.bank_capacity,
        }
    }
}

impl CheckerArgs {
    /// Usage-string fragment naming the shared flags.
    pub const USAGE: &'static str = "[--no-por] [--no-prescreen] [--bank-cap N]";

    /// Extracts the shared flags from `args`, removing the consumed
    /// entries and leaving binary-specific arguments in place.
    /// Returns an error message on a malformed `--bank-cap`.
    pub fn try_extract(args: &mut Vec<String>) -> Result<CheckerArgs, String> {
        let mut out = CheckerArgs::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--no-por" => {
                    out.por = false;
                    args.remove(i);
                }
                "--no-prescreen" => {
                    out.prescreen = false;
                    args.remove(i);
                }
                "--bank-cap" => {
                    let cap = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--bank-cap needs a number")?;
                    out.bank_capacity = cap;
                    args.drain(i..i + 2);
                }
                _ => i += 1,
            }
        }
        Ok(out)
    }

    /// [`CheckerArgs::try_extract`], exiting with status 2 (and the
    /// caller's usage line) on a malformed flag.
    pub fn extract(args: &mut Vec<String>, usage: &str) -> CheckerArgs {
        CheckerArgs::try_extract(args).unwrap_or_else(|e| {
            eprintln!("{e}");
            eprintln!("usage: {usage}");
            std::process::exit(2)
        })
    }

    /// Applies the flags to a benchmark's options.
    pub fn apply(&self, options: &mut Options) {
        options.por = self.por;
        options.prescreen = self.prescreen;
        options.bank_capacity = self.bank_capacity;
    }
}

/// One benchmark/test pair of the paper's Figure 9.
#[derive(Clone, Debug)]
pub struct BenchmarkRun {
    /// Benchmark name (`queueE1`, `barrier2`, …).
    pub benchmark: &'static str,
    /// Test descriptor (`ed(ed|ed)`, `N=3,B=2`, …).
    pub test: String,
    /// The generated PSKETCH source.
    pub source: String,
    /// Synthesis options tuned for the benchmark's bounds.
    pub options: Options,
    /// The paper's reported outcome, where stated.
    pub expected_resolvable: bool,
    /// The paper's reported iteration count (Figure 9's `Itns`).
    pub paper_iterations: Option<u32>,
    /// The paper's reported total time in seconds.
    pub paper_total_secs: Option<f64>,
}

fn queue_run(
    benchmark: &'static str,
    enq: EnqueueVariant,
    deq: DequeueVariant,
    wl: &str,
    paper_iterations: u32,
    paper_total_secs: f64,
) -> BenchmarkRun {
    let w = Workload::parse(wl).expect("workload");
    BenchmarkRun {
        benchmark,
        test: wl.to_string(),
        source: queue::queue_source(enq, deq, &w),
        options: Options {
            config: Config {
                unroll: w.total_inserts() + 2,
                pool: w.total_inserts() + 2,
                ..Config::default()
            },
            ..Options::default()
        },
        expected_resolvable: true,
        paper_iterations: Some(paper_iterations),
        paper_total_secs: Some(paper_total_secs),
    }
}

fn barrier_run(
    benchmark: &'static str,
    v: BarrierVariant,
    n: usize,
    b: usize,
    paper_iterations: u32,
    paper_total_secs: f64,
) -> BenchmarkRun {
    BenchmarkRun {
        benchmark,
        test: format!("N={n},B={b}"),
        source: barrier::barrier_source(v, n, b),
        options: Options {
            config: Config {
                hole_width: 2,
                unroll: 4,
                pool: 2,
                ..Config::default()
            },
            ..Options::default()
        },
        expected_resolvable: true,
        paper_iterations: Some(paper_iterations),
        paper_total_secs: Some(paper_total_secs),
    }
}

fn set_run(
    benchmark: &'static str,
    v: SetVariant,
    wl: &str,
    expected_resolvable: bool,
    paper_iterations: u32,
    paper_total_secs: f64,
) -> BenchmarkRun {
    let w = Workload::parse(wl).expect("workload");
    BenchmarkRun {
        benchmark,
        test: wl.to_string(),
        source: set::set_source(v, &w),
        options: Options {
            config: Config {
                unroll: w.total_inserts() + 3,
                pool: w.total_inserts() + 3,
                ..Config::default()
            },
            ..Options::default()
        },
        expected_resolvable,
        paper_iterations: Some(paper_iterations),
        paper_total_secs: Some(paper_total_secs),
    }
}

fn philo_run(p: usize, t: usize, paper_iterations: u32, paper_total_secs: f64) -> BenchmarkRun {
    BenchmarkRun {
        benchmark: "dinphilo",
        test: format!("N={p},T={t}"),
        source: dinphilo::dinphilo_source(PhiloVariant::Sketch, p, t),
        options: Options {
            config: Config {
                hole_width: 3,
                unroll: 4,
                pool: 2,
                ..Config::default()
            },
            ..Options::default()
        },
        expected_resolvable: true,
        paper_iterations: Some(paper_iterations),
        paper_total_secs: Some(paper_total_secs),
    }
}

/// Every benchmark/test pair of the paper's Figure 9, with the paper's
/// reported iteration counts and total times for comparison.
pub fn figure9_runs() -> Vec<BenchmarkRun> {
    use BarrierVariant::{Full as BFull, Restricted as BRestricted};
    use DequeueVariant::{Given, SketchSoup};
    use EnqueueVariant::{Full, Restricted};
    use SetVariant::{FineFull, FineRestricted, Lazy};
    vec![
        queue_run("queueE1", Restricted, Given, "ed(ee|dd)", 1, 8.79),
        queue_run("queueE1", Restricted, Given, "ed(ed|ed)", 1, 9.24),
        queue_run("queueE1", Restricted, Given, "(e|e|e)ddd", 1, 13.0),
        queue_run("queueDE1", Restricted, SketchSoup, "ed(ee|dd)", 4, 46.97),
        queue_run("queueDE1", Restricted, SketchSoup, "ed(ed|ed)", 4, 64.18),
        queue_run("queueE2", Full, Given, "ed(ed|ed)", 5, 114.7),
        queue_run("queueE2", Full, Given, "(e|e|e)ddd", 8, 249.2),
        queue_run("queueDE2", Full, SketchSoup, "ed(ed|ed)", 10, 3091.37),
        barrier_run("barrier1", BRestricted, 3, 2, 4, 49.74),
        barrier_run("barrier1", BRestricted, 3, 3, 8, 120.21),
        barrier_run("barrier2", BFull, 2, 3, 9, 66.46),
        set_run("fineset1", FineRestricted, "ar(ar|ar)", true, 2, 130.44),
        set_run("fineset1", FineRestricted, "ar(ar|ar|ar)", true, 1, 363.89),
        set_run("fineset1", FineRestricted, "ar(a|r|a|r)", true, 1, 196.52),
        set_run("fineset1", FineRestricted, "ar(arar|arar)", true, 1, 165.43),
        set_run("fineset1", FineRestricted, "ar(aaaa|rrrr)", true, 2, 225.54),
        set_run("fineset2", FineFull, "ar(ar|ar)", true, 3, 281.46),
        set_run("fineset2", FineFull, "ar(ar|ar|ar)", true, 3, 795.19),
        set_run("fineset2", FineFull, "ar(a|r|a|r)", true, 2, 384.83),
        set_run("fineset2", FineFull, "ar(arar|arar)", true, 2, 299.97),
        set_run("fineset2", FineFull, "ar(aaaa|rrrr)", true, 3, 468.7),
        set_run("lazyset", Lazy, "ar(aa|rr)", true, 12, 179.17),
        set_run("lazyset", Lazy, "ar(ar|ar)", false, 7, 100.24),
        philo_run(3, 5, 4, 34.03),
        philo_run(4, 3, 3, 54.46),
        philo_run(5, 3, 3, 745.94),
    ]
}

/// A Table 1 row: benchmark, description, a representative run for
/// computing |C|, and the paper's reported |C|.
pub struct Table1Entry {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// The paper's description.
    pub description: &'static str,
    /// A representative run (|C| is workload-independent).
    pub run: BenchmarkRun,
    /// The paper's reported candidate-space size, as a power of ten
    /// (`None` when given exactly).
    pub paper_space: &'static str,
}

/// The ten sketches of the paper's Table 1.
pub fn table1_entries() -> Vec<Table1Entry> {
    use BarrierVariant::{Full as BFull, Restricted as BRestricted};
    use DequeueVariant::{Given, SketchSoup};
    use EnqueueVariant::{Full, Restricted};
    use SetVariant::{FineFull, FineRestricted, Lazy};
    vec![
        Table1Entry {
            benchmark: "queueE1",
            description: "Lock-free queue: restricted Enqueue()",
            run: queue_run("queueE1", Restricted, Given, "ed(ed|ed)", 1, 0.0),
            paper_space: "4",
        },
        Table1Entry {
            benchmark: "queueE2",
            description: "Lock-free queue, full Enqueue()",
            run: queue_run("queueE2", Full, Given, "ed(ed|ed)", 5, 0.0),
            paper_space: "10^6",
        },
        Table1Entry {
            benchmark: "queueDE1",
            description: "queueE1, plus sketched Dequeue()",
            run: queue_run("queueDE1", Restricted, SketchSoup, "ed(ed|ed)", 4, 0.0),
            paper_space: "10^3",
        },
        Table1Entry {
            benchmark: "queueDE2",
            description: "queueE2, plus sketched Dequeue()",
            run: queue_run("queueDE2", Full, SketchSoup, "ed(ed|ed)", 10, 0.0),
            paper_space: "10^8",
        },
        Table1Entry {
            benchmark: "barrier1",
            description: "Sense-reversing barrier, restricted",
            run: barrier_run("barrier1", BRestricted, 3, 2, 4, 0.0),
            paper_space: "10^4",
        },
        Table1Entry {
            benchmark: "barrier2",
            description: "Sense-reversing barrier, full",
            run: barrier_run("barrier2", BFull, 2, 3, 9, 0.0),
            paper_space: "10^7",
        },
        Table1Entry {
            benchmark: "fineset1",
            description: "Fine-locked list, restricted find() method",
            run: set_run("fineset1", FineRestricted, "ar(ar|ar)", true, 2, 0.0),
            paper_space: "10^4",
        },
        Table1Entry {
            benchmark: "fineset2",
            description: "Fine-locked list, full find()",
            run: set_run("fineset2", FineFull, "ar(ar|ar)", true, 3, 0.0),
            paper_space: "10^7",
        },
        Table1Entry {
            benchmark: "lazyset",
            description: "Lazy list, singly-locked remove()",
            run: set_run("lazyset", Lazy, "ar(aa|rr)", true, 12, 0.0),
            paper_space: "10^3",
        },
        Table1Entry {
            benchmark: "dinphilo",
            description: "Approximation of dining philosophers problem",
            run: philo_run(3, 5, 4, 0.0),
            paper_space: "10^6",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_core::Synthesis;

    #[test]
    fn all_figure9_sources_compile() {
        for run in figure9_runs() {
            psketch_lang::check_program(&run.source)
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", run.benchmark, run.test));
        }
    }

    #[test]
    fn all_figure9_sources_lower() {
        for run in figure9_runs() {
            Synthesis::new(&run.source, run.options.clone())
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", run.benchmark, run.test));
        }
    }

    #[test]
    fn table1_spaces_have_expected_magnitude() {
        // Our sketches are reconstructions; |C| should land within
        // roughly two orders of magnitude of the paper's Table 1.
        let expected: &[(&str, f64)] = &[
            ("queueE1", 0.6), // 4
            ("queueE2", 6.0),
            ("queueDE1", 3.0),
            ("queueDE2", 8.0),
            ("barrier1", 4.0),
            ("barrier2", 7.0),
            ("fineset1", 4.0),
            ("fineset2", 7.0),
            ("lazyset", 3.0),
            ("dinphilo", 2.0), // our sketch is deliberately leaner than the paper's 10^6
        ];
        for entry in table1_entries() {
            let s = Synthesis::new(&entry.run.source, entry.run.options.clone()).unwrap();
            let log = s.lowered().holes.log10_candidate_space();
            let want = expected
                .iter()
                .find(|(n, _)| *n == entry.benchmark)
                .unwrap()
                .1;
            assert!(
                (log - want).abs() <= 2.5,
                "{}: log10|C| = {log:.2}, paper ~{want}",
                entry.benchmark
            );
        }
    }

    #[test]
    fn checker_args_extract_consumes_shared_flags() {
        let mut args: Vec<String> = [
            "queueE1",
            "--no-por",
            "--bank-cap",
            "7",
            "--no-prescreen",
            "--report-json",
            "out",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = CheckerArgs::try_extract(&mut args).expect("flags parse");
        assert_eq!(
            parsed,
            CheckerArgs {
                por: false,
                prescreen: false,
                bank_capacity: 7,
            }
        );
        // Binary-specific arguments survive, in order.
        assert_eq!(args, ["queueE1", "--report-json", "out"]);
        let mut opts = Options::default();
        parsed.apply(&mut opts);
        assert!(!opts.por && !opts.prescreen);
        assert_eq!(opts.bank_capacity, 7);
    }

    #[test]
    fn checker_args_default_matches_options_default() {
        let mut args: Vec<String> = vec!["filter".into()];
        let parsed = CheckerArgs::try_extract(&mut args).expect("no flags is fine");
        let d = Options::default();
        assert_eq!(parsed.por, d.por);
        assert_eq!(parsed.prescreen, d.prescreen);
        assert_eq!(parsed.bank_capacity, d.bank_capacity);
    }

    #[test]
    fn checker_args_reject_bad_bank_cap() {
        for bad in [
            vec!["--bank-cap".to_string()],
            vec!["--bank-cap".to_string(), "soon".to_string()],
        ] {
            let mut args = bad;
            assert!(CheckerArgs::try_extract(&mut args).is_err());
        }
    }

    #[test]
    fn registry_covers_figure9() {
        let runs = figure9_runs();
        assert_eq!(runs.len(), 26);
        let benchmarks: std::collections::HashSet<&str> =
            runs.iter().map(|r| r.benchmark).collect();
        for b in [
            "queueE1", "queueE2", "queueDE1", "queueDE2", "barrier1", "barrier2", "fineset1",
            "fineset2", "lazyset", "dinphilo",
        ] {
            assert!(benchmarks.contains(b), "missing {b}");
        }
    }
}
