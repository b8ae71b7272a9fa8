//! The CEGIS driver.

use crate::mem;
use crate::telemetry::{
    BudgetKind, BudgetTrip, CegisStats, IterationRecord, RunReport, VerifyCost,
};
use psketch_exec::{
    check_compiled, CexTrace, CompiledProgram, Interrupt, ScheduleBank, SearchLimits, Verdict,
};
use psketch_ir::{desugar, lower, resolve, Assignment, Config, Lowered};
use psketch_lang::ast::Program;
use psketch_lang::{SourceError, SourceResult};
use psketch_symbolic::{
    verify_sequential_limits, NoCandidate, Observation, SeqVerify, Synthesizer,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a sketch is specified (paper §4.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Assertion-based: a `harness` drives the program; correctness =
    /// no assertion failure / memory error / deadlock on any input
    /// and interleaving. The verifier is the model checker.
    Harness,
    /// Behavioural equivalence of the named function with its
    /// `implements` specification on all (bounded) inputs. The
    /// verifier is SAT-based; observations are inputs (§5).
    Equivalence(String),
}

/// Unused: every candidate is checked exhaustively. Kept so
/// `perfbench/src/workload.rs`, which names its one variant, still
/// compiles.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifierKind {
    /// Exhaustive explicit-state search over all interleavings.
    Exhaustive,
}

/// Synthesis options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Lowering/bounding configuration.
    pub config: Config,
    /// Give up after this many CEGIS iterations.
    pub max_iterations: usize,
    /// Model-checker state limit per verification call.
    pub max_states: usize,
    /// Explicit mode; `None` auto-detects (harness if present,
    /// otherwise the unique `implements` function).
    pub mode: Option<Mode>,
    /// Unused: every candidate is checked exhaustively. Kept so
    /// `perfbench/src/workload.rs`, which sets the field, still
    /// compiles.
    #[doc(hidden)]
    pub verifier: VerifierKind,
    /// Unused: every candidate is verified on the calling thread. Kept
    /// so `perfbench/src/workload.rs`, which sets the field, still
    /// compiles.
    #[doc(hidden)]
    pub threads: usize,
    /// Unused: each iteration proposes and verifies one candidate.
    /// Kept so `perfbench/src/workload.rs`, which sets the field, still
    /// compiles.
    #[doc(hidden)]
    pub portfolio: usize,
    /// Wall-clock budget for the whole run. When it expires, the run
    /// stops cooperatively — the SAT solver and the checker both poll
    /// the deadline — and returns unknown with a [`BudgetTrip`] naming
    /// the wall budget. `None` (the default) never times out, and so
    /// does a budget too large for the clock to represent.
    pub wall_timeout: Option<Duration>,
    /// Cumulative state budget across *all* verification calls of the
    /// run ([`Options::max_states`] bounds each single call). When the
    /// total reaches it, the run returns unknown with a [`BudgetTrip`].
    pub state_budget: Option<usize>,
    /// Resident-set budget in bytes, read from `/proc/self/status` by
    /// a watchdog thread and at the top of every CEGIS iteration.
    /// Exceeding it cancels the run cooperatively (unknown +
    /// [`BudgetTrip`]). Ignored where `/proc` is unavailable.
    pub memory_budget: Option<u64>,
    /// Ample-set partial-order reduction inside the exhaustive checker
    /// (on by default). Sound for every verdict the checker reports;
    /// turn off to force full interleaving expansion (`--no-por`).
    pub por: bool,
    /// Schedule-bank prescreening (on by default): before the
    /// exhaustive search, each candidate is replayed against the
    /// interleavings that killed earlier candidates ([`ScheduleBank`]).
    /// A hit refutes in O(trace) time; prescreening never accepts, so
    /// turning it off (`--no-prescreen`) changes cost, not verdicts.
    pub prescreen: bool,
    /// Unused: the checker has no symmetry reduction. Kept so existing
    /// readers of the field still compile.
    #[doc(hidden)]
    pub symmetry: bool,
    /// Maximum schedules the bank retains before evicting the entry
    /// with the fewest kills (`--bank-cap`).
    pub bank_capacity: usize,
    /// Unused: every candidate is sealed into a
    /// [`psketch_exec::CompiledProgram`]. Kept so existing struct
    /// literals that name the field still compile.
    #[doc(hidden)]
    pub compile: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            config: Config::default(),
            max_iterations: 200,
            max_states: 20_000_000,
            mode: None,
            verifier: VerifierKind::Exhaustive,
            threads: 1,
            portfolio: 1,
            wall_timeout: None,
            state_budget: None,
            memory_budget: None,
            por: true,
            prescreen: true,
            bank_capacity: 64,
            symmetry: true,
            compile: true,
        }
    }
}

/// A successful resolution.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// The hole values.
    pub assignment: Assignment,
    /// The resolved program, pretty-printed.
    pub source: String,
}

/// The result of a synthesis run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `Some` when the sketch resolved; `None` when it is
    /// unresolvable (the paper's "NO" answers) or iterations ran out.
    pub resolution: Option<Resolution>,
    /// `true` when `None` is a definite "cannot be resolved" rather
    /// than an iteration/state budget exhaustion.
    pub definitely_unresolvable: bool,
    /// Which resource budget stopped the run, when the outcome is
    /// unknown because a budget tripped. `None` on resolve, on
    /// definite unresolvability and on plain iteration exhaustion.
    pub budget_trip: Option<BudgetTrip>,
    /// Statistics.
    pub stats: CegisStats,
}

impl Outcome {
    /// Did the sketch resolve?
    pub fn resolved(&self) -> bool {
        self.resolution.is_some()
    }

    /// Figure 9's Resolvable column: `"yes"`, `"NO"` or `"unknown"`.
    pub fn resolvable(&self) -> &'static str {
        if self.resolved() {
            "yes"
        } else if self.definitely_unresolvable {
            "NO"
        } else {
            "unknown"
        }
    }
}

/// A prepared synthesis problem. Create with [`Synthesis::new`], run
/// with [`Synthesis::run`], or drive iteration-by-iteration with
/// [`Synthesis::enumerate`].
pub struct Synthesis {
    sketch: Program,
    lowered: Lowered,
    mode: Mode,
    options: Options,
    v_model: Duration,
}

impl Synthesis {
    /// Parses, typechecks, desugars and lowers a sketch.
    ///
    /// # Errors
    ///
    /// Any front-end or lowering error, or a mode auto-detection
    /// failure (no harness and no `implements` function).
    pub fn new(source: &str, options: Options) -> SourceResult<Synthesis> {
        let t0 = Instant::now();
        let program = psketch_lang::check_program(source)?;
        let (sketch, holes) = desugar::desugar_program(&program, &options.config)?;
        let mode = match &options.mode {
            Some(m) => m.clone(),
            None => {
                if sketch.harness().is_some() {
                    Mode::Harness
                } else {
                    let impls: Vec<&str> = sketch
                        .functions
                        .iter()
                        .filter(|f| f.implements.is_some())
                        .map(|f| f.name.as_str())
                        .collect();
                    match impls[..] {
                        [one] => Mode::Equivalence(one.to_string()),
                        _ => {
                            return Err(SourceError::new(
                                psketch_lang::error::Phase::Type,
                                Default::default(),
                                "cannot infer mode: add a harness or exactly one \
                                 'implements' function",
                            ))
                        }
                    }
                }
            }
        };
        let lowered = match &mode {
            Mode::Harness => lower::lower_program(&sketch, holes, &options.config)?,
            Mode::Equivalence(f) => lower::lower_equivalence(&sketch, holes, f, &options.config)?,
        };
        Ok(Synthesis {
            sketch,
            lowered,
            mode,
            options,
            v_model: t0.elapsed(),
        })
    }

    /// The desugared sketch.
    pub fn sketch(&self) -> &Program {
        &self.sketch
    }

    /// The lowered program.
    pub fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// The specification mode in use.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// The program `a` resolves the sketch to, printed: holes
    /// substituted, then constants folded at the run's int width, as
    /// the lowered program computes them.
    pub fn resolution_source(&self, a: &Assignment) -> String {
        let resolved = resolve::resolve_program(&self.sketch, a);
        psketch_lang::pretty::print_program(&resolve::simplify_program(
            resolved,
            &self.lowered.config,
        ))
    }

    /// |C| for this sketch (Table 1).
    pub fn candidate_space(&self) -> u128 {
        self.lowered.holes.candidate_space()
    }

    /// Runs the CEGIS loop to completion.
    pub fn run(&self) -> Outcome {
        self.run_report().0
    }

    /// Runs the CEGIS loop to completion and also returns the
    /// machine-readable [`RunReport`]: one [`IterationRecord`] per
    /// candidate tried plus run-level totals, serialisable with
    /// [`RunReport::to_json`]. Each iteration proposes one candidate
    /// and verifies it on the calling thread.
    ///
    /// Resource budgets ([`Options::wall_timeout`],
    /// [`Options::state_budget`], [`Options::memory_budget`]) are
    /// enforced here: the deadline and a shared cancellation flag are
    /// threaded into the SAT solver and every checker search, and a
    /// watchdog thread polls wall/RSS so even a phase that makes no
    /// progress is cancelled. An over-budget run always terminates
    /// with an unknown [`Outcome`] whose `budget_trip` names the
    /// budget and the phase; partial statistics stay intact.
    pub fn run_report(&self) -> (Outcome, RunReport) {
        let t0 = Instant::now();
        let mut stats = CegisStats {
            v_model: self.v_model,
            candidate_space: self.lowered.holes.candidate_space(),
            log10_space: self.lowered.holes.log10_candidate_space(),
            ..CegisStats::default()
        };
        let mut records: Vec<IterationRecord> = Vec::new();
        let mut synth = Synthesizer::new(&self.lowered);
        let mut resolution = None;
        let mut definitely_unresolvable = false;

        // One bank for the whole run: schedules found in any iteration
        // prescreen every later candidate.
        let bank = (self.options.prescreen && self.mode == Mode::Harness)
            .then(|| ScheduleBank::new(self.options.bank_capacity));

        let deadline = self.options.wall_timeout.and_then(|d| t0.checked_add(d));
        let cancel = Arc::new(AtomicBool::new(false));
        let trip: Mutex<Option<BudgetTrip>> = Mutex::new(None);
        let done = AtomicBool::new(false);
        synth.set_limits(deadline, Some(cancel.clone()));

        std::thread::scope(|scope| {
            if deadline.is_some() || self.options.memory_budget.is_some() {
                let cancel = &cancel;
                let trip = &trip;
                let done = &done;
                let memory_budget = self.options.memory_budget;
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                set_trip(
                                    trip,
                                    BudgetTrip::new(
                                        BudgetKind::Wall,
                                        "watchdog",
                                        "wall timeout expired",
                                    ),
                                );
                                cancel.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                        if memory_tripped(memory_budget, trip, cancel) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                });
            }

            while stats.iterations < self.options.max_iterations {
                // The watchdog polls every few milliseconds, but a run
                // can conclude between two polls; checking here too
                // means an over-budget run never starts another
                // iteration.
                if cancel.load(Ordering::Relaxed)
                    || memory_tripped(self.options.memory_budget, &trip, &cancel)
                {
                    break;
                }
                // Each call's state limit is the per-call max, shrunk
                // to whatever remains of the cumulative budget.
                let remaining = self
                    .options
                    .state_budget
                    .map(|b| b.saturating_sub(stats.cost.check.states));
                if remaining == Some(0) {
                    set_trip(
                        &trip,
                        BudgetTrip::new(
                            BudgetKind::States,
                            "verify",
                            format!(
                                "state budget {} exhausted",
                                self.options.state_budget.unwrap_or(0)
                            ),
                        ),
                    );
                    break;
                }
                let limits = SearchLimits {
                    max_states: remaining
                        .map_or(self.options.max_states, |r| r.min(self.options.max_states)),
                    deadline,
                    cancel: Some(cancel.clone()),
                    por: self.options.por,
                    ..SearchLimits::default()
                };
                let trace_set = synth.stats.observations;
                let solved = synth.stats.solve_time;
                let before = synth.solver_stats();
                let candidate = match synth.next_candidate() {
                    Ok(candidate) => candidate,
                    Err(NoCandidate::Exhausted) => {
                        definitely_unresolvable = true;
                        break;
                    }
                    Err(NoCandidate::Interrupted) => {
                        set_trip(
                            &trip,
                            BudgetTrip::new(
                                BudgetKind::Wall,
                                "synthesize",
                                "SAT solve interrupted",
                            ),
                        );
                        break;
                    }
                };
                let s_solve = synth.stats.solve_time - solved;
                let sat = synth.solver_stats();
                let sat_vars = synth.solver().num_vars();
                stats.iterations += 1;
                let tv = Instant::now();
                let (result, cost) = self.verify_once(&candidate, &limits, bank.as_ref());
                let v_solve = tv.elapsed();
                stats.v_solve += v_solve;
                stats.cost.add(&cost);
                let values = candidate.values().to_vec();
                let mut unknown = None;
                let (failure, schedule_len) = match &result {
                    VerifyResult::Trace(cex) => (Some(cex.failure.kind), cex.schedule.len()),
                    _ => (None, 0),
                };
                let (verdict, observation) = match result {
                    VerifyResult::Correct => {
                        resolution = Some(Resolution {
                            source: self.resolution_source(&candidate),
                            assignment: candidate,
                        });
                        ("correct".to_string(), Observation::default())
                    }
                    VerifyResult::Trace(cex) => ("trace".to_string(), synth.add_trace(&cex)),
                    VerifyResult::Input(x) => ("input".to_string(), synth.add_input(&x)),
                    VerifyResult::Unknown(why) => {
                        unknown = Some(why);
                        (format!("unknown:{}", why.label()), Observation::default())
                    }
                };
                records.push(IterationRecord {
                    iteration: stats.iterations,
                    candidate: values,
                    verdict,
                    trace_set,
                    s_solve_secs: s_solve.as_secs_f64(),
                    v_solve_secs: v_solve.as_secs_f64(),
                    observation,
                    failure,
                    schedule_len,
                    sat_vars,
                    sat_clauses: sat.clauses,
                    sat_decisions: sat.decisions - before.decisions,
                    sat_propagations: sat.propagations - before.propagations,
                    sat_conflicts: sat.conflicts - before.conflicts,
                    cost,
                });
                if resolution.is_some() {
                    break;
                }
                if let Some(why) = unknown {
                    set_trip(&trip, self.interrupt_trip(why, &limits));
                    break;
                }
                if let Some(budget) = self.options.state_budget {
                    if stats.cost.check.states >= budget {
                        set_trip(
                            &trip,
                            BudgetTrip::new(
                                BudgetKind::States,
                                "verify",
                                format!("state budget {budget} exhausted"),
                            ),
                        );
                        break;
                    }
                }
            }
            done.store(true, Ordering::Relaxed);
        });

        stats.s_solve = synth.stats.solve_time;
        stats.s_model = synth.stats.encode_time;
        stats.synth_nodes = synth.stats.nodes;
        stats.sat = synth.solver_stats();
        stats.sat_heap = synth.solver().heap_bytes();
        stats.circuit_bytes = synth.circuit().heap_bytes();
        stats.lowered_bytes = self.lowered.heap_bytes();
        stats.symbolic_bytes = synth.symbolic_bytes();
        stats.ir_nodes = self.lowered.expr_nodes();
        stats.total = t0.elapsed();
        stats.peak_memory = mem::peak_rss_bytes();
        // A budget that tripped while the run nonetheless concluded
        // (resolved, or proved unresolvable) did not stop anything:
        // the trip is only reported on unknown outcomes.
        let budget_trip = if resolution.is_some() || definitely_unresolvable {
            None
        } else {
            trip.into_inner().expect("budget-trip slot poisoned")
        };
        let outcome = Outcome {
            resolution,
            definitely_unresolvable,
            budget_trip,
            stats,
        };
        let report = RunReport {
            schema: RunReport::SCHEMA,
            resolvable: outcome.resolvable().to_string(),
            resolution: outcome
                .resolution
                .as_ref()
                .map(|r| r.assignment.values().to_vec()),
            budget_trip: outcome.budget_trip.clone(),
            stats: outcome.stats.clone(),
            records,
        };
        (outcome, report)
    }

    /// Maps a checker interrupt to the budget that caused it.
    fn interrupt_trip(&self, why: Interrupt, limits: &SearchLimits) -> BudgetTrip {
        match why {
            Interrupt::StateLimit => {
                let detail = if limits.max_states < self.options.max_states {
                    format!(
                        "state budget {} exhausted mid-search",
                        self.options.state_budget.unwrap_or(0)
                    )
                } else {
                    format!("per-call max_states limit {} hit", self.options.max_states)
                };
                BudgetTrip::new(BudgetKind::States, "verify", detail)
            }
            Interrupt::Deadline => {
                BudgetTrip::new(BudgetKind::Wall, "verify", "wall deadline passed in search")
            }
            // Cancellation originates in the watchdog, whose own trip
            // (wall or memory) was recorded first and wins.
            Interrupt::Cancelled => BudgetTrip::new(BudgetKind::Wall, "verify", "search cancelled"),
        }
    }

    /// Limits for verification calls made outside [`Synthesis::run`]
    /// (no wall deadline, no cancellation — just the per-call cap).
    fn base_limits(&self) -> SearchLimits {
        SearchLimits {
            por: self.options.por,
            ..SearchLimits::states(self.options.max_states)
        }
    }

    /// Verifies one candidate, returning its counterexample if any.
    /// Exposed for tests and tooling.
    pub fn verify_candidate(&self, candidate: &Assignment) -> Option<CexTrace> {
        match self.verify_once(candidate, &self.base_limits(), None).0 {
            VerifyResult::Trace(t) => Some(t),
            _ => None,
        }
    }

    /// Verifies one candidate. In harness mode this is one straight
    /// line: seal, prescreen against the bank, exhaustive check.
    fn verify_once(
        &self,
        candidate: &Assignment,
        limits: &SearchLimits,
        bank: Option<&ScheduleBank>,
    ) -> (VerifyResult, VerifyCost) {
        match &self.mode {
            Mode::Harness => {
                // Seal once per candidate: the prescreen and the
                // exhaustive checker below share this one artifact.
                let cp = CompiledProgram::compile(&self.lowered, candidate);
                let mut cost = VerifyCost::sealed(&cp);
                let result = 'verify: {
                    // Prescreen: replay the schedules that killed
                    // earlier candidates before paying for any search.
                    // A hit is a real execution of *this* candidate, so
                    // returning its trace is sound; a miss just falls
                    // through.
                    if let Some(bank) = bank {
                        let t = Instant::now();
                        let (hit, bs) = bank.prescreen_compiled(&cp);
                        cost.prescreen_time = t.elapsed();
                        cost.prescreen_replays = bs.replays;
                        cost.bank_size = bs.size;
                        if let Some(cex) = hit {
                            cost.prescreen_hits = 1;
                            break 'verify VerifyResult::Trace(cex);
                        }
                    }
                    let t = Instant::now();
                    let out = check_compiled(&cp, limits);
                    cost.check_time = t.elapsed();
                    cost.check = out.stats;
                    match out.verdict {
                        Verdict::Pass => VerifyResult::Correct,
                        Verdict::Fail(cex) => {
                            if let Some(bank) = bank {
                                bank.record(&cex.schedule);
                                cost.bank_size = bank.len() as u64;
                            }
                            VerifyResult::Trace(cex)
                        }
                        Verdict::Unknown(why) => VerifyResult::Unknown(why),
                    }
                };
                // Counted after verification: a search that reduced has
                // built the candidate's footprints and POR table.
                cost.seal_bytes = cp.heap_bytes();
                (result, cost)
            }
            Mode::Equivalence(_) => {
                let t = Instant::now();
                let checked = verify_sequential_limits(
                    &self.lowered,
                    candidate,
                    limits.deadline,
                    limits.cancel.clone(),
                );
                let cost = VerifyCost {
                    check_time: t.elapsed(),
                    ..VerifyCost::default()
                };
                let result = match checked {
                    SeqVerify::Equivalent => VerifyResult::Correct,
                    SeqVerify::Counterexample(x) => VerifyResult::Input(x),
                    SeqVerify::Interrupted => {
                        let cancelled = limits
                            .cancel
                            .as_ref()
                            .is_some_and(|c| c.load(Ordering::Relaxed));
                        VerifyResult::Unknown(if cancelled {
                            Interrupt::Cancelled
                        } else {
                            Interrupt::Deadline
                        })
                    }
                };
                (result, cost)
            }
        }
    }

    /// Enumerates up to `limit` *distinct* correct resolutions.
    ///
    /// The paper (§8.3.1) notes that CEGIS "can trivially produce
    /// multiple correct candidates", to be ranked by an external
    /// autotuner; this is that hook. Each returned resolution is
    /// verified; the search blocks each solution and continues until
    /// the space is exhausted or `limit` is reached.
    pub fn enumerate(&self, limit: usize) -> Vec<Resolution> {
        let mut synth = Synthesizer::new(&self.lowered);
        let mut found = Vec::new();
        let mut iterations = 0;
        while found.len() < limit && iterations < self.options.max_iterations {
            iterations += 1;
            let Ok(candidate) = synth.next_candidate() else {
                break;
            };
            match self.verify_once(&candidate, &self.base_limits(), None).0 {
                VerifyResult::Correct => {
                    synth.block(&candidate);
                    found.push(Resolution {
                        source: self.resolution_source(&candidate),
                        assignment: candidate,
                    });
                }
                VerifyResult::Trace(cex) => {
                    synth.add_trace(&cex);
                }
                VerifyResult::Input(x) => {
                    synth.add_input(&x);
                }
                VerifyResult::Unknown(_) => break,
            }
        }
        found
    }

    /// Pretty-prints the resolution of one function of the sketch
    /// (e.g. just `Enqueue`, like the paper's Figure 2).
    pub fn resolve_function(&self, name: &str, a: &Assignment) -> Option<String> {
        let f = self.sketch.function(name)?;
        let resolved = resolve::simplify_fn(resolve::resolve_fn(f, a), &self.lowered.config);
        let mut out = String::new();
        psketch_lang::pretty::print_fn(&mut out, &resolved);
        Some(out)
    }
}

enum VerifyResult {
    Correct,
    Trace(CexTrace),
    Input(Vec<i64>),
    Unknown(Interrupt),
}

/// Records the first budget trip; later trips lose.
fn set_trip(slot: &Mutex<Option<BudgetTrip>>, t: BudgetTrip) {
    let mut s = slot.lock().expect("budget-trip slot poisoned");
    if s.is_none() {
        *s = Some(t);
    }
}

/// The memory-budget check shared by the watchdog thread and the CEGIS
/// thread: when the resident set exceeds `budget`, records the memory
/// trip, raises `cancel` and returns true.
fn memory_tripped(
    budget: Option<u64>,
    trip: &Mutex<Option<BudgetTrip>>,
    cancel: &AtomicBool,
) -> bool {
    let Some(budget) = budget else {
        return false;
    };
    let over = mem::current_rss_bytes().is_some_and(|rss| rss > budget);
    if over {
        set_trip(
            trip,
            BudgetTrip::new(
                BudgetKind::Memory,
                "watchdog",
                format!("resident set exceeded {budget} bytes"),
            ),
        );
        cancel.store(true, Ordering::Relaxed);
    }
    over
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Outcome {
        Synthesis::new(src, Options::default())
            .unwrap_or_else(|e| panic!("{e}"))
            .run()
    }

    #[test]
    fn resolves_constants_and_counts_iterations() {
        let out = run("int g; harness void main() { g = ??(4); assert g == 9; }");
        let r = out.resolution.expect("resolvable");
        assert_eq!(r.assignment.value(0), 9);
        assert!(r.source.contains("g = 9;"), "{}", r.source);
        assert!(out.stats.iterations >= 1);
        assert_eq!(out.stats.candidate_space, 16);
    }

    #[test]
    fn reports_unresolvable() {
        let out = run("int g; harness void main() { g = ??(2); assert g == 9; }");
        assert!(!out.resolved());
        assert!(out.definitely_unresolvable);
    }

    #[test]
    fn concurrent_reorder_synthesis() {
        // Thread-safe counter with a reorder: the lock must be taken
        // before the increment and released after.
        let out = run("struct Lock { int owner = -1; }
             Lock lk; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }
             harness void main() {
                 lk = new Lock();
                 fork (i; 2) {
                     int t = 0;
                     reorder {
                         lock(lk);
                         t = g;
                         g = t + 1;
                         unlock(lk);
                     }
                 }
                 assert g == 2;
             }");
        let r = out.resolution.expect("resolvable");
        // Permutation must be lock < read < write < unlock.
        let order: Vec<u64> = (0..4).map(|h| r.assignment.value(h)).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "only the given order works");
    }

    #[test]
    fn equivalence_mode_autodetects() {
        let out = run("int spec(int x) { return x + x; }
             int dbl(int x) implements spec { return x * ??(2); }");
        let r = out.resolution.expect("resolvable");
        assert_eq!(r.assignment.value(0), 2);
        assert!(r.source.contains("x * 2"), "{}", r.source);
    }

    #[test]
    fn resolve_function_prints_single_fn() {
        let s = Synthesis::new(
            "int g; void set() { g = ??(3); } harness void main() { set(); assert g == 5; }",
            Options::default(),
        )
        .unwrap();
        let out = s.run();
        let r = out.resolution.expect("resolvable");
        let printed = s.resolve_function("set", &r.assignment).unwrap();
        assert!(printed.contains("g = 5;"), "{printed}");
        assert!(!printed.contains("main"));
    }

    #[test]
    fn stats_populate_figure9_columns() {
        let out = run("int g;
             harness void main() {
                 fork (i; 2) { int old = AtomicReadAndIncr(g); }
                 assert g == ??(2);
             }");
        assert!(out.resolved());
        let st = &out.stats;
        assert!(st.total >= st.s_solve);
        assert!(st.candidate_space == 4);
        assert!(st.log10_space > 0.0);
        if cfg!(target_os = "linux") {
            assert!(st.peak_memory.unwrap_or(0) > 0);
        }
        assert!(
            st.cost.check.transitions > 0,
            "checker must fire transitions"
        );
        assert!(st.sat.propagations > 0, "solver counters must flow through");
        assert!(
            st.cost.check.journal_writes > 0,
            "undo engine must record writes"
        );
        assert_eq!(
            st.cost.check.state_clones, 0,
            "sequential search never clones"
        );
        assert!(st.states_per_sec() > 0.0, "throughput must be derived");
    }

    #[test]
    fn run_report_records_every_iteration() {
        let s = Synthesis::new(
            "int g; harness void main() { g = ??(3); assert g == 5; }",
            Options::default(),
        )
        .unwrap();
        let (out, report) = s.run_report();
        assert!(out.resolved());
        assert!(out.budget_trip.is_none());
        assert_eq!(report.schema, crate::telemetry::RunReport::SCHEMA);
        assert_eq!(report.resolvable, "yes");
        assert_eq!(report.resolution, Some(vec![5]));
        assert_eq!(report.records.len(), out.stats.iterations);
        let last = report.records.last().unwrap();
        assert_eq!(last.verdict, "correct");
        assert_eq!(last.candidate, vec![5]);
        // Observation sets only grow along the run.
        let sets: Vec<usize> = report.records.iter().map(|r| r.trace_set).collect();
        assert!(sets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn wall_timeout_returns_unknown_with_trip() {
        let opts = Options {
            wall_timeout: Some(Duration::ZERO),
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 3) { int t = g; g = t + 1; }
                 assert g == ??(2);
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(!out.resolved());
        assert!(!out.definitely_unresolvable);
        let trip = out.budget_trip.expect("wall budget must trip");
        assert_eq!(trip.budget, BudgetKind::Wall);
    }

    #[test]
    fn state_budget_returns_unknown_with_trip() {
        let opts = Options {
            state_budget: Some(2),
            ..Options::default()
        };
        // 3 racing unsynchronised increments: far more than 2 states.
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 3) { int t = g; g = t + 1; }
                 assert g >= ??(1);
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(!out.resolved());
        let trip = out.budget_trip.expect("state budget must trip");
        assert_eq!(trip.budget, BudgetKind::States);
        assert_eq!(trip.phase, "verify");
        assert!(
            out.stats.cost.check.states <= 2,
            "partial stats respect the budget"
        );
    }

    #[test]
    fn memory_budget_returns_unknown_with_trip() {
        if mem::current_rss_bytes().is_none() {
            return; // No /proc: the memory budget is inert.
        }
        let opts = Options {
            memory_budget: Some(1), // Any process exceeds one byte.
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 3) { int t = g; g = t + 1; }
                 assert g == ??(2);
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(!out.resolved());
        let trip = out.budget_trip.expect("memory budget must trip");
        assert_eq!(trip.budget, BudgetKind::Memory);
        assert_eq!(trip.phase, "watchdog");
    }

    #[test]
    fn budget_trip_absent_on_conclusive_runs() {
        // Generous budgets must not alter conclusive outcomes.
        let opts = Options {
            wall_timeout: Some(Duration::from_secs(600)),
            state_budget: Some(10_000_000),
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g; harness void main() { g = ??(2); assert g == 9; }",
            opts,
        )
        .unwrap()
        .run();
        assert!(out.definitely_unresolvable);
        assert!(out.budget_trip.is_none());
    }

    #[test]
    fn iteration_budget_respected() {
        let opts = Options {
            max_iterations: 1,
            ..Options::default()
        };
        // Resolvable, but likely needs >1 iteration; must not loop.
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 2) {
                     if (??(1) == 0) { int t = g; g = t + 1; }
                     else { int old = AtomicReadAndIncr(g); }
                 }
                 assert g == 2;
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(out.stats.iterations <= 1);
        assert!(!out.definitely_unresolvable || out.resolved() || out.stats.iterations == 1);
    }

    #[test]
    fn enumerate_finds_all_solutions() {
        // g = ??(2), assert g < 3: solutions {0, 1, 2}.
        let s = Synthesis::new(
            "int g; harness void main() { g = ??(2); assert g < 3; }",
            Options::default(),
        )
        .unwrap();
        let all = s.enumerate(10);
        let mut values: Vec<u64> = all.iter().map(|r| r.assignment.value(0)).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2]);
        // Limit respected.
        assert_eq!(s.enumerate(2).len(), 2);
    }

    #[test]
    fn enumerate_distinct_reorderings() {
        // Two commuting statements: both orders are correct and both
        // must be enumerated (the paper's autotuning motivation:
        // candidates with incomparable performance).
        let s = Synthesis::new(
            "int g; int h;
             harness void main() {
                 reorder { g = 1; h = 2; }
                 assert g == 1 && h == 2;
             }",
            Options::default(),
        )
        .unwrap();
        let all = s.enumerate(10);
        assert_eq!(all.len(), 2, "both orders are correct");
        assert_ne!(all[0].assignment, all[1].assignment);
    }

    #[test]
    fn prescreen_refutes_repeat_offenders() {
        // Reorder holes change the step sequence, so one candidate's
        // trace projection does not exclude the next candidate — but
        // most wrong permutations die on the same worker interleaving,
        // which is exactly what the schedule bank replays.
        let src = "struct Lock { int owner = -1; }
             Lock lk; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }
             harness void main() {
                 lk = new Lock();
                 fork (i; 2) {
                     int t = 0;
                     reorder {
                         lock(lk);
                         t = g;
                         g = t + 1;
                         unlock(lk);
                     }
                 }
                 assert g == 2;
             }";
        let on = Synthesis::new(src, Options::default()).unwrap().run();
        let off = Synthesis::new(
            src,
            Options {
                prescreen: false,
                ..Options::default()
            },
        )
        .unwrap()
        .run();
        // Prescreening only refutes, never accepts: same resolution.
        let a = on.resolution.expect("resolvable with prescreen");
        let b = off.resolution.expect("resolvable without prescreen");
        assert_eq!(a.assignment, b.assignment);
        let (on, off) = (&on.stats.cost, &off.stats.cost);
        assert!(on.prescreen_replays > 0, "bank must be consulted");
        assert!(on.prescreen_hits > 0, "repeat offenders must hit");
        assert!(on.bank_size > 0);
        assert_eq!(off.prescreen_hits, 0);
        assert_eq!(off.prescreen_replays, 0);
        assert_eq!(off.bank_size, 0);
    }

    #[test]
    fn mode_detection_failure_reported() {
        let err = match Synthesis::new("int f(int x) { return x; }", Options::default()) {
            Err(e) => e,
            Ok(_) => panic!("expected a mode-detection error"),
        };
        assert!(err.message.contains("mode"));
    }
}
