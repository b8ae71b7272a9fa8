//! The traced pass: the CEGIS loop of `Synthesis::run_report` at one
//! thread and a portfolio of one, driven through each crate's public
//! entry points with every call wrapped in a span.
//!
//! Spans are kept in memory. Shadow spans time work the real loop does
//! not do (a fresh seal beside each reseal, a separate trace
//! projection); they are excluded from the traced wall time, so the
//! attributed spans plus the unattributed rest add up to it.

use crate::pass::Trajectory;
use psketch_exec::{check_compiled, CompiledProgram, ScheduleBank, SearchLimits, Verdict};
use psketch_ir::{desugar, lower, resolve};
use psketch_suite::BenchmarkRun;
use psketch_symbolic::{project, CandidateBatch, Synthesizer};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A timed call into one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `psketch_lang::check_program`: parse and typecheck.
    LangCheck,
    /// `desugar::desugar_program`.
    Desugar,
    /// `lower::lower_program`.
    Lower,
    /// `Synthesizer::new`.
    SynthNew,
    /// `Synthesizer::next_candidates` that found a candidate.
    Solve,
    /// `Synthesizer::next_candidates` that proved the space exhausted.
    SolveUnsat,
    /// `CompiledProgram::{compile, reseal}` plus the POR tables the
    /// real loop forces when it reads `sharpened_masks`.
    Seal,
    /// `ScheduleBank::prescreen_compiled`.
    Prescreen,
    /// `check_compiled`.
    Check,
    /// `ScheduleBank::record`.
    BankRecord,
    /// `Synthesizer::add_trace`.
    AddTrace,
    /// Dropping the synthesizer (its circuit and solver).
    SynthDrop,
    /// `resolve::resolve_program` and printing the winner.
    Resolve,
    /// Shadow: a fresh `CompiledProgram::compile` of a resealed
    /// candidate, with the same POR tables forced.
    FreshSealShadow,
    /// Shadow: `psketch_symbolic::project` of a trace about to be
    /// added (`add_trace` projects it again inside its own span).
    ProjectShadow,
}

impl Layer {
    /// The span name, `<crate>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::LangCheck => "lang.check_program",
            Layer::Desugar => "ir.desugar",
            Layer::Lower => "ir.lower",
            Layer::SynthNew => "symbolic.synth_new",
            Layer::Solve => "sat.solve",
            Layer::SolveUnsat => "sat.unsat",
            Layer::Seal => "exec.seal",
            Layer::Prescreen => "exec.prescreen",
            Layer::Check => "exec.check",
            Layer::BankRecord => "exec.bank_record",
            Layer::AddTrace => "symbolic.add_trace",
            Layer::SynthDrop => "symbolic.drop",
            Layer::Resolve => "ir.resolve",
            Layer::FreshSealShadow => "exec.fresh_seal_shadow",
            Layer::ProjectShadow => "symbolic.project",
        }
    }

    /// Work the real loop does not do.
    pub fn is_shadow(self) -> bool {
        matches!(self, Layer::FreshSealShadow | Layer::ProjectShadow)
    }

    /// Front-end work, which `Synthesis::new` does before the loop.
    pub fn is_setup(self) -> bool {
        matches!(self, Layer::LangCheck | Layer::Desugar | Layer::Lower)
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The CEGIS iteration that caused the call (0: before the first).
    pub iteration: usize,
    /// Start, from the beginning of the sketch's traced run.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

struct Tracer {
    origin: Instant,
    iteration: usize,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(&mut self, layer: Layer, call: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = call();
        let dur = t0.elapsed();
        self.spans.push(Span {
            layer,
            iteration: self.iteration,
            start: t0 - self.origin,
            dur,
        });
        out
    }

    fn relabel_last(&mut self, layer: Layer) {
        self.spans.last_mut().expect("a span was recorded").layer = layer;
    }

    fn shadow_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.layer.is_shadow())
            .map(|s| s.dur)
            .sum()
    }
}

/// Work counters of one traced run, read off the layers' return
/// values and stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// `next_candidates` calls.
    pub solve_calls: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// SAT unit propagations.
    pub propagations: u64,
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT restarts.
    pub restarts: u64,
    /// Learnt clauses in the database at the end.
    pub learnts: u64,
    /// Problem clauses at the end.
    pub clauses: u64,
    /// Circuit nodes at the end.
    pub nodes: u64,
    /// Traces added to the synthesizer.
    pub traces: u64,
    /// Incremental reseals.
    pub reseals: u64,
    /// Threads whose code a reseal reused.
    pub threads_reused: u64,
    /// Holes whose value changed, summed over reseals.
    pub holes_changed: u64,
    /// Prescreen passes.
    pub prescreen_calls: u64,
    /// Prescreen passes that refuted the candidate.
    pub prescreen_hits: u64,
    /// Banked schedules replayed.
    pub prescreen_replays: u64,
    /// Exhaustive checks.
    pub check_calls: u64,
    /// States explored.
    pub states: u64,
    /// Transitions fired.
    pub transitions: u64,
    /// Undo-journal writes.
    pub journal_writes: u64,
    /// Successors pruned by partial-order reduction.
    pub states_pruned: u64,
    /// Revisits folded by symmetry reduction.
    pub sym_collapses: u64,
}

/// One sketch's traced run.
pub struct Traced {
    /// What the run did.
    pub trajectory: Trajectory,
    /// Every span, in call order.
    pub spans: Vec<Span>,
    /// Time from `Synthesizer::new` to the verdict, shadow spans
    /// excluded: the traced counterpart of `Synthesis::run`.
    pub cegis_wall: Duration,
    /// Work counters.
    pub counters: Counters,
    /// A budget stopped the run.
    pub budget_tripped: bool,
}

impl Traced {
    /// Total duration of `layer`'s spans.
    pub fn time(&self, layer: Layer) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur)
            .sum()
    }

    /// The loop's spans that count towards its wall time.
    pub fn attributed(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| !s.layer.is_shadow() && !s.layer.is_setup())
            .map(|s| s.dur)
            .sum()
    }
}

/// Runs one sketch through the traced loop.
///
/// # Errors
///
/// The sketch does not lower, is not a harness sketch, or a reseal
/// differs from a fresh seal of the same candidate.
pub fn traced(run: &BenchmarkRun) -> Result<Traced, String> {
    let label = crate::workload::label(run);
    let fail = |e: &dyn std::fmt::Display| format!("{label}: {e}");
    let options = &run.options;
    let mut tr = Tracer {
        origin: Instant::now(),
        iteration: 0,
        spans: Vec::new(),
    };

    let program = tr
        .span(Layer::LangCheck, || {
            psketch_lang::check_program(&run.source)
        })
        .map_err(|e| fail(&e))?;
    let (sketch, holes) = tr
        .span(Layer::Desugar, || {
            desugar::desugar_program(&program, &options.config)
        })
        .map_err(|e| fail(&e))?;
    if sketch.harness().is_none() {
        return Err(fail(&"the traced loop drives harness sketches only"));
    }
    let lowered = tr
        .span(Layer::Lower, || {
            lower::lower_program(&sketch, holes, &options.config)
        })
        .map_err(|e| fail(&e))?;

    // The loop of `Synthesis::run_report` with one candidate per
    // iteration and no budgets, step for step.
    let t0 = Instant::now();
    let cancel = Arc::new(AtomicBool::new(false));
    let limits = SearchLimits {
        max_states: options.max_states,
        deadline: None,
        cancel: Some(cancel.clone()),
        por: options.por,
        symmetry: options.symmetry,
        compile: options.compile,
    };
    let mut synth = tr.span(Layer::SynthNew, || Synthesizer::new(&lowered));
    synth.set_limits(None, Some(cancel));
    let bank = ScheduleBank::new(options.bank_capacity);
    let mut c = Counters::default();
    let mut candidates: Vec<Vec<u64>> = Vec::new();
    let mut resolvable = "unknown";
    let mut winner = None;
    let mut budget_tripped = false;
    let mut prev: Option<CompiledProgram<'_>> = None;
    let mut reseal_pairs = Vec::new();
    while candidates.len() < options.max_iterations {
        c.solve_calls += 1;
        let candidate = match tr.span(Layer::Solve, || synth.next_candidates(1)) {
            CandidateBatch::Found(mut batch) => batch.remove(0),
            CandidateBatch::Exhausted => {
                tr.relabel_last(Layer::SolveUnsat);
                resolvable = "NO";
                break;
            }
            CandidateBatch::Interrupted => {
                budget_tripped = true;
                break;
            }
        };
        candidates.push(candidate.values().to_vec());
        tr.iteration = candidates.len();

        let compiled = match &prev {
            Some(p) => {
                c.reseals += 1;
                c.holes_changed += p
                    .assignment()
                    .values()
                    .iter()
                    .zip(candidate.values())
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                let cp = tr.span(Layer::Seal, || {
                    let cp = CompiledProgram::reseal(p, &lowered, &candidate);
                    cp.sharpened_masks();
                    cp
                });
                c.threads_reused += cp.threads_reused();
                let fresh = tr.span(Layer::FreshSealShadow, || {
                    let fresh = CompiledProgram::compile(&lowered, &candidate);
                    fresh.sharpened_masks();
                    fresh
                });
                reseal_pairs.push((cp.clone(), fresh));
                cp
            }
            None => tr.span(Layer::Seal, || {
                let cp = CompiledProgram::compile(&lowered, &candidate);
                cp.sharpened_masks();
                cp
            }),
        };
        prev = Some(compiled.clone());

        c.prescreen_calls += 1;
        let (hit, bank_stats) = tr.span(Layer::Prescreen, || bank.prescreen_compiled(&compiled));
        c.prescreen_replays += bank_stats.replays;
        let cex = match hit {
            Some(cex) => {
                c.prescreen_hits += 1;
                cex
            }
            None => {
                c.check_calls += 1;
                let out = tr.span(Layer::Check, || check_compiled(&compiled, &limits));
                c.states += out.stats.states as u64;
                c.transitions += out.stats.transitions as u64;
                c.journal_writes += out.stats.journal_writes;
                c.states_pruned += out.stats.states_pruned;
                c.sym_collapses += out.stats.sym_collapses;
                match out.verdict {
                    Verdict::Pass => {
                        tr.span(Layer::Resolve, || {
                            let resolved = resolve::resolve_program(&sketch, &candidate);
                            psketch_lang::pretty::print_program(&resolved)
                        });
                        resolvable = "yes";
                        winner = Some(candidate.values().to_vec());
                        break;
                    }
                    Verdict::Fail(cex) => {
                        tr.span(Layer::BankRecord, || bank.record(&cex.schedule));
                        cex
                    }
                    Verdict::Unknown(_) => {
                        budget_tripped = true;
                        break;
                    }
                }
            }
        };
        tr.span(Layer::ProjectShadow, || project(&lowered, &cex));
        tr.span(Layer::AddTrace, || synth.add_trace(&cex));
        c.traces += 1;
    }
    let sat = synth.solver_stats();
    c.decisions = sat.decisions;
    c.propagations = sat.propagations;
    c.conflicts = sat.conflicts;
    c.restarts = sat.restarts;
    c.learnts = sat.learnts;
    c.clauses = sat.clauses;
    c.nodes = synth.stats.nodes as u64;
    tr.span(Layer::SynthDrop, || drop(synth));
    drop(prev);
    let cegis_wall = t0.elapsed() - tr.shadow_time();

    // Every reseal must equal a fresh seal of its candidate. Compared
    // after the loop: equality forces lazily built tables, which must
    // not move work into or out of the timed spans.
    for (resealed, fresh) in &reseal_pairs {
        if !resealed.artifact_eq(fresh) {
            return Err(fail(&format!(
                "reseal of {:?} differs from a fresh seal",
                resealed.assignment().values()
            )));
        }
    }
    Ok(Traced {
        trajectory: Trajectory {
            resolvable: resolvable.to_string(),
            candidates,
            winner,
        },
        spans: tr.spans,
        cegis_wall,
        counters: c,
        budget_tripped,
    })
}
