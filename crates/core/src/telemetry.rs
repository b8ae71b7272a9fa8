//! Structured run telemetry: per-iteration records, resource-budget
//! trips, and a machine-readable JSON run report.
//!
//! Every CEGIS iteration appends one [`IterationRecord`] — the
//! candidate tried, the verifier's verdict, the size of the
//! observation set that produced the candidate, and a [`VerifyCost`].
//! The run's [`CegisStats`] hold the Figure 9 columns and the same
//! [`VerifyCost`] summed over the records. A [`RunReport`] bundles
//! both and serialises to JSON with [`RunReport::to_json`]
//! (schema-stable: see [`RunReport::SCHEMA`]); the `psketch` CLI emits
//! it under `--report-json`, and the bench reports write their rows
//! with the same [`CegisStats::write_json`] and
//! [`VerifyCost::write_json`].
//!
//! The workspace has no JSON dependency, so this module carries its
//! own emitter and a minimal parser ([`Json`]) — enough to round-trip
//! the report in tests and to let downstream tooling validate keys.

use psketch_exec::{CheckStats, CompiledProgram, FailureKind};
use psketch_sat::{HeapBytes, SolverStats};
use psketch_symbolic::Observation;
use std::fmt::Write as _;
use std::time::Duration;

/// Which resource budget tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock timeout ([`crate::Options::wall_timeout`]).
    Wall,
    /// The cumulative state budget ([`crate::Options::state_budget`])
    /// or the per-verification `max_states` limit.
    States,
    /// The resident-set budget ([`crate::Options::memory_budget`]).
    Memory,
}

impl BudgetKind {
    /// Stable machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            BudgetKind::Wall => "wall",
            BudgetKind::States => "states",
            BudgetKind::Memory => "memory",
        }
    }
}

/// A structured "why the run stopped early" record: which budget, in
/// which phase of the loop, with a human-readable detail. Attached to
/// [`crate::Outcome::budget_trip`] whenever a run returns unknown
/// because a resource limit was hit (never on resolve/unresolvable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetTrip {
    /// The budget that tripped.
    pub budget: BudgetKind,
    /// Loop phase: `"synthesize"`, `"verify"` or `"watchdog"`.
    pub phase: String,
    /// Free-form detail (e.g. `"state budget 1000 exhausted"`).
    pub detail: String,
}

impl BudgetTrip {
    /// Builds a trip record.
    pub fn new(budget: BudgetKind, phase: &str, detail: impl Into<String>) -> BudgetTrip {
        BudgetTrip {
            budget,
            phase: phase.to_string(),
            detail: detail.into(),
        }
    }
}

/// What verifying candidates cost: the checker's search counters plus
/// the sealing, prescreen and schedule-bank counters around the
/// search. An [`IterationRecord`] holds one candidate's cost and
/// [`CegisStats`] the run's sum; [`VerifyCost::add`] is the one place
/// costs are summed and [`VerifyCost::write_json`] the one place they
/// are named in JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyCost {
    /// Exhaustive-search counters (zero when the prescreen refuted the
    /// candidate first).
    pub check: CheckStats,
    /// Candidates refuted by a banked schedule — the exhaustive search
    /// was skipped.
    pub prescreen_hits: u64,
    /// Banked schedules replayed while prescreening.
    pub prescreen_replays: u64,
    /// Schedule-bank occupancy (the maximum, when summed).
    pub bank_size: u64,
    /// Microseconds spent sealing candidates into execution artifacts.
    pub compile_us: u64,
    /// Time spent replaying banked schedules against the candidates
    /// (`prescreen_secs`).
    pub prescreen_time: Duration,
    /// Time spent in the exhaustive checks, or in a sequential
    /// sketch's SAT equivalence checks (`check_secs`). With
    /// `compile_us` and `prescreen_time` it splits Vsolve.
    pub check_time: Duration,
    /// Heap bytes of the sealed candidate after its verification
    /// ([`CompiledProgram::heap_bytes`]; the maximum, when summed).
    pub seal_bytes: usize,
}

/// One numeric JSON field per named struct field, keyed by the field's
/// own name (after an optional prefix), so a key is never spelled apart
/// from the field it reads.
macro_rules! nums {
    ($prefix:literal, $s:expr; $($field:ident),+ $(,)?) => {
        [$((
            concat!($prefix, stringify!($field)).to_string(),
            Json::Num($s.$field as f64),
        )),+]
    };
}

impl VerifyCost {
    /// The sealing cost of a freshly sealed artifact.
    pub fn sealed(cp: &CompiledProgram) -> VerifyCost {
        VerifyCost {
            compile_us: cp.compile_us(),
            ..VerifyCost::default()
        }
    }

    /// Adds `other` to this cost: every counter sums, except
    /// `bank_size` and `seal_bytes`, which keep the maximum.
    pub fn add(&mut self, other: &VerifyCost) {
        self.check.add(&other.check);
        self.prescreen_hits += other.prescreen_hits;
        self.prescreen_replays += other.prescreen_replays;
        self.bank_size = self.bank_size.max(other.bank_size);
        self.compile_us += other.compile_us;
        self.prescreen_time += other.prescreen_time;
        self.check_time += other.check_time;
        self.seal_bytes = self.seal_bytes.max(other.seal_bytes);
    }

    /// Appends this cost's JSON fields to `out`.
    pub fn write_json(&self, out: &mut Vec<(String, Json)>) {
        out.extend(nums!("", self.check;
            states, transitions, terminal_states, journal_writes, state_clones,
            por_ample_hits, por_fallbacks, states_pruned));
        out.extend(nums!("", self;
            prescreen_hits, prescreen_replays, bank_size, compile_us, seal_bytes));
        for (key, d) in [
            ("prescreen_secs", self.prescreen_time),
            ("check_secs", self.check_time),
        ] {
            out.push((key.to_string(), Json::Num(d.as_secs_f64())));
        }
    }
}

/// Timing and size statistics matching the paper's Figure 9 columns,
/// plus the run's summed [`VerifyCost`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CegisStats {
    /// Candidates tried (the paper's `Itns`).
    pub iterations: usize,
    /// Synthesizer SAT-solving time (`Ssolve`).
    pub s_solve: Duration,
    /// Synthesizer encoding time (`Smodel`).
    pub s_model: Duration,
    /// Verifier wall time (`Vsolve`).
    pub v_solve: Duration,
    /// Front-end + lowering time (`Vmodel`: the paper's model
    /// generation/compilation).
    pub v_model: Duration,
    /// Wall-clock total.
    pub total: Duration,
    /// |C|, the candidate-space size.
    pub candidate_space: u128,
    /// log10 |C| (Figure 10's x axis).
    pub log10_space: f64,
    /// Peak RSS observed at the end of the run, bytes; `None` when the
    /// platform exposes no `/proc/self/status` (report it as "n/a",
    /// not as zero). This is the process high-water mark, so it is one
    /// sketch's own peak only in a process that runs that sketch
    /// alone: `fig9` and `bench_cegis` run each sketch in a child
    /// process of its own.
    pub peak_memory: Option<u64>,
    /// Synthesizer SAT counters at the end of the run.
    pub sat: SolverStats,
    /// Heap bytes the synthesizer's SAT solver has in use after the
    /// last solve, by owner: clause arena, watch lists and
    /// per-variable arrays. The report names them `sat_clause_bytes`,
    /// `sat_watch_bytes` and `sat_var_bytes`, and their sum
    /// `sat_bytes`. Bytes in use have all been written, so they,
    /// `circuit_bytes`, `lowered_bytes` and `symbolic_bytes` are
    /// resident and sum to at most `peak_memory`.
    pub sat_heap: HeapBytes,
    /// Heap bytes the synthesizer's circuit has in use at the end: its
    /// nodes, Tseitin map and AND table.
    pub circuit_bytes: usize,
    /// Heap bytes the lowered program has in use: each expression
    /// allocation once, and every thread's steps
    /// ([`psketch_ir::Lowered::heap_bytes`]).
    pub lowered_bytes: usize,
    /// Heap bytes the synthesizer's symbolic state has in use at the
    /// end: the trace evaluator's slots, write journal, marks, order,
    /// disjuncts and cached field reads
    /// ([`psketch_symbolic::Synthesizer::symbolic_bytes`]).
    pub symbolic_bytes: usize,
    /// Expression allocations in the lowered program: its structurally
    /// distinct subexpressions ([`psketch_ir::Lowered::expr_nodes`]).
    pub ir_nodes: usize,
    /// Circuit nodes in the synthesizer at the end.
    pub synth_nodes: usize,
    /// Verification cost summed over every candidate tried.
    pub cost: VerifyCost,
}

impl CegisStats {
    /// States explored per second of verifier time; `0.0` when no
    /// search ran.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.v_solve.as_secs_f64();
        if secs > 0.0 {
            self.cost.check.states as f64 / secs
        } else {
            0.0
        }
    }

    /// Appends the run totals' JSON fields to `out`.
    pub fn write_json(&self, out: &mut Vec<(String, Json)>) {
        out.extend(nums!("", self; iterations, synth_nodes));
        for (key, d) in [
            ("total_secs", self.total),
            ("s_solve_secs", self.s_solve),
            ("s_model_secs", self.s_model),
            ("v_solve_secs", self.v_solve),
            ("v_model_secs", self.v_model),
        ] {
            out.push((key.to_string(), Json::Num(d.as_secs_f64())));
        }
        out.push((
            "states_per_sec".to_string(),
            Json::Num(self.states_per_sec()),
        ));
        out.push((
            "candidate_space".to_string(),
            Json::Str(self.candidate_space.to_string()),
        ));
        out.push(("log10_space".to_string(), Json::Num(self.log10_space)));
        out.push((
            "peak_memory".to_string(),
            self.peak_memory.map_or(Json::Null, |b| Json::Num(b as f64)),
        ));
        out.extend(nums!("sat_", self.sat; decisions, propagations, conflicts, restarts));
        out.push((
            "sat_bytes".to_string(),
            Json::Num(self.sat_heap.total() as f64),
        ));
        out.extend(nums!("sat_", self.sat_heap; clause_bytes, watch_bytes, var_bytes));
        out.extend(nums!("", self; circuit_bytes, lowered_bytes, symbolic_bytes, ir_nodes));
        self.cost.write_json(out);
    }
}

/// One CEGIS iteration: a candidate, its verdict, and what verifying
/// it cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IterationRecord {
    /// 1-based candidate index (the paper's `Itns` counter).
    pub iteration: usize,
    /// The candidate's hole values, in hole order.
    pub candidate: Vec<u64>,
    /// `"correct"`, `"trace"`, `"input"`, or `"unknown:<reason>"`.
    pub verdict: String,
    /// Observations (|T|) accumulated before this candidate was
    /// proposed.
    pub trace_set: usize,
    /// Time of the SAT solve that proposed this candidate, seconds.
    pub s_solve_secs: f64,
    /// Wall time of this candidate's verification call, seconds.
    pub v_solve_secs: f64,
    /// The observation this candidate fed back to the synthesizer:
    /// what encoding it cost and added. All zero when it fed none (a
    /// correct candidate, or an unknown verdict). The report writes its
    /// times as `s_model_secs` (`encode_time`), `s_model_eval_secs`
    /// (`eval_time`) and `s_model_encode_secs` (`tseitin_time`), and
    /// its counts under their own names.
    pub observation: Observation,
    /// What went wrong in the counterexample trace this candidate fed
    /// back, `None` when it fed none.
    pub failure: Option<FailureKind>,
    /// Transitions in that trace's schedule, 0 when there is no trace
    /// (or the failure came before the interleaving search).
    pub schedule_len: usize,
    /// SAT variables at the solve that proposed this candidate.
    pub sat_vars: usize,
    /// Problem clauses (learnt ones excluded) at that solve.
    pub sat_clauses: u64,
    /// Decisions of that solve.
    pub sat_decisions: u64,
    /// Propagations of that solve. A unit clause also propagates when
    /// it is added, outside any solve.
    pub sat_propagations: u64,
    /// Conflicts of that solve.
    pub sat_conflicts: u64,
    /// What verifying this candidate cost.
    pub cost: VerifyCost,
}

impl IterationRecord {
    fn to_json(&self) -> Json {
        let mut out = Vec::from(nums!("", self; iteration, trace_set));
        out.push(("candidate".to_string(), Json::u64_array(&self.candidate)));
        out.push(("verdict".to_string(), Json::Str(self.verdict.clone())));
        out.extend(nums!("", self; s_solve_secs, v_solve_secs));
        let o = &self.observation;
        for (key, d) in [
            ("s_model_secs", o.encode_time),
            ("s_model_eval_secs", o.eval_time),
            ("s_model_encode_secs", o.tseitin_time),
        ] {
            out.push((key.to_string(), Json::Num(d.as_secs_f64())));
        }
        out.extend(nums!("", o;
            projected_steps, resumed_steps, new_nodes, new_vars, new_clauses, field_reads,
            field_read_hits, traced_steps, trace_end));
        out.push((
            "failure".to_string(),
            self.failure
                .map_or(Json::Null, |kind| Json::Str(kind.label().to_string())),
        ));
        out.extend(nums!("", self;
            schedule_len, sat_vars, sat_clauses, sat_decisions, sat_propagations, sat_conflicts));
        self.cost.write_json(&mut out);
        Json::Obj(out)
    }
}

/// The machine-readable run report: the run's verdict and
/// [`CegisStats`] plus one [`IterationRecord`] per candidate tried.
/// The report dereferences to its stats, so `report.iterations` reads
/// `report.stats.iterations`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Schema version ([`RunReport::SCHEMA`]).
    pub schema: u32,
    /// `"yes"`, `"NO"` or `"unknown"` (Figure 9's Resolvable column).
    pub resolvable: String,
    /// The resolving hole values, when resolved.
    pub resolution: Option<Vec<u64>>,
    /// The budget that stopped the run, if any.
    pub budget_trip: Option<BudgetTrip>,
    /// Run totals.
    pub stats: CegisStats,
    /// Per-iteration records, in order; their costs sum to
    /// `stats.cost`.
    pub records: Vec<IterationRecord>,
}

impl std::ops::Deref for RunReport {
    type Target = CegisStats;

    fn deref(&self) -> &CegisStats {
        &self.stats
    }
}

impl RunReport {
    /// Current report schema version. Bump when a field is renamed or
    /// removed; adding fields is backward compatible.
    ///
    /// v2: schedule-bank prescreen counters (`prescreen_hits`,
    /// `prescreen_replays`, `bank_size`).
    ///
    /// v3: compile-once candidate layer counters (`compile_us`,
    /// `sharpened_masks`).
    ///
    /// v4: incremental reseal counters (reseal time, threads reused).
    ///
    /// v5: run totals and records share one cost record, so every
    /// cost key means the same at both levels: the per-record booleans
    /// (prescreen hit, sampler refutation) became 0/1 counts, and the
    /// run-level `checker_calls_avoided` (always equal to
    /// `prescreen_hits`) is gone.
    ///
    /// v6: `sym_collapses` is gone with the thread-symmetry reduction.
    ///
    /// v7: every candidate is sealed fresh, so the v4 reseal counters
    /// are gone, and so is the POR diagnostic `sharpened_masks`, which
    /// made every candidate build its POR tables before the prescreen.
    ///
    /// v8: the sampler's refutation count is gone with the
    /// random-schedule sampler: every candidate the prescreen passes
    /// is checked exhaustively.
    ///
    /// v9: each record carries its observation's Smodel facts
    /// (`s_model_secs`, `projected_steps`, `resumed_steps`,
    /// `new_nodes`).
    ///
    /// v10: each iteration proposes and verifies one candidate, so the
    /// records' `batch` and `batch_width`, the run's `portfolio_width`
    /// and the checker's `per_thread_states` are gone; each record
    /// carries the time of the SAT solve that proposed it
    /// (`s_solve_secs`).
    ///
    /// v11: each record carries the SAT solver's size at the solve that
    /// proposed it and that solve's work (`sat_vars`, `sat_clauses`,
    /// `sat_decisions`, `sat_propagations`, `sat_conflicts`), and the
    /// run the solver's heap bytes after its last solve (`sat_bytes`).
    ///
    /// v12: the run splits `sat_bytes` by owner (`sat_clause_bytes`,
    /// `sat_watch_bytes`, `sat_var_bytes`) and carries the circuit's
    /// heap bytes (`circuit_bytes`).
    ///
    /// v13: every byte count is bytes in use, not capacity, so
    /// `sat_bytes + circuit_bytes` is at most `peak_memory`; each
    /// record carries its trace's failure kind (`failure`, `null`
    /// without a trace) and schedule length (`schedule_len`).
    ///
    /// v14: the run carries the lowered program's heap bytes
    /// (`lowered_bytes`, also at most `peak_memory` with `sat_bytes` and
    /// `circuit_bytes`) and its expression allocations (`ir_nodes`);
    /// each record carries its trace's executed steps (`traced_steps`)
    /// and the projected-order position just past the last of them
    /// (`trace_end`), both 0 without a trace.
    ///
    /// v15: the run and each record carry the sealed candidate's heap
    /// bytes after its verification (`seal_bytes`; the run's is the
    /// records' maximum, also at most `peak_memory` with
    /// `lowered_bytes`).
    ///
    /// v16: each record splits `s_model_secs` into its projection and
    /// symbolic evaluation (`s_model_eval_secs`) and its Tseitin
    /// encoding (`s_model_encode_secs`), and carries the solver
    /// variables and problem clauses its observation added
    /// (`new_vars`, `new_clauses`) and its evaluation's field reads
    /// and cache hits (`field_reads`, `field_read_hits`).
    ///
    /// v17: the run and each record split Vsolve: beside the seal's
    /// `compile_us`, the prescreen's time (`prescreen_secs`) and the
    /// check's (`check_secs`); the run carries the symbolic state's
    /// heap bytes (`symbolic_bytes`, also at most `peak_memory` with
    /// `sat_bytes`, `circuit_bytes` and `lowered_bytes`).
    pub const SCHEMA: u32 = 17;

    /// Serialises the report as a JSON object (two-space indented).
    pub fn to_json(&self) -> String {
        let mut out = vec![
            ("schema".to_string(), Json::from(i64::from(self.schema))),
            ("resolvable".to_string(), Json::Str(self.resolvable.clone())),
            (
                "resolution".to_string(),
                self.resolution
                    .as_deref()
                    .map_or(Json::Null, Json::u64_array),
            ),
            (
                "budget_trip".to_string(),
                self.budget_trip.as_ref().map_or(Json::Null, |t| {
                    Json::Obj(vec![
                        (
                            "budget".to_string(),
                            Json::Str(t.budget.label().to_string()),
                        ),
                        ("phase".to_string(), Json::Str(t.phase.clone())),
                        ("detail".to_string(), Json::Str(t.detail.clone())),
                    ])
                }),
            ),
        ];
        self.stats.write_json(&mut out);
        out.push((
            "records".to_string(),
            Json::Arr(self.records.iter().map(IterationRecord::to_json).collect()),
        ));
        Json::Obj(out).render_pretty()
    }
}

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

/// A JSON value: the emitter's input and the parser's output.
///
/// Numbers are kept as `f64` on the parse side (ample for every
/// counter this report emits below 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (emitted without exponent).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl Json {
    fn u64_array(v: &[u64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect())
    }

    /// Renders this value as compact JSON (no indentation).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                let _ = write!(out, "{}", fmt_num(*v));
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape_into(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders this value as indented JSON: every object field, and
    /// every element of an array that holds objects or arrays, on its
    /// own line; arrays of scalars stay on one line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.pretty_into(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
            Json::Arr(items)
                if items
                    .iter()
                    .any(|v| matches!(v, Json::Obj(_) | Json::Arr(_))) =>
            {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.pretty_into(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            flat => flat.render_into(out),
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document. Accepts exactly what the emitter
    /// produces plus standard whitespace and escape sequences.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

/// `f64` → JSON number text. Counters are emitted without a decimal
/// point; durations keep Rust's shortest round-trip form (never
/// exponent notation for the magnitudes this report holds).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| String::from("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| String::from("unterminated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| String::from("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| String::from("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 from the raw slice.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| String::from("truncated UTF-8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Options, Synthesis};

    #[test]
    fn json_parses_what_it_renders() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Str("x\"y\\z\n".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-2.5)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn numbers_render_without_exponent() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(42.0), "42");
        assert_eq!(fmt_num(0.125), "0.125");
        assert_eq!(fmt_num(-3.0), "-3");
    }

    /// Every numeric key the run object shares with its records is the
    /// records' sum (`bank_size`: their maximum), except the phase
    /// times and the SAT counters, which are at least the records'
    /// sum: the run's `s_model_secs` also counts encoding the sketch's
    /// static constraints, its `s_solve_secs` and SAT counters the
    /// final solve of a run that ends unresolvable, which proposes no
    /// candidate, and its `sat_propagations` the unit clauses
    /// propagated as they were added.
    #[test]
    fn run_totals_equal_the_sum_of_their_records() {
        let src = "struct Lock { int owner = -1; }
             Lock lk; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }
             harness void main() {
                 lk = new Lock();
                 fork (i; 2) {
                     int t = 0;
                     reorder { lock(lk); t = g; g = t + 1; unlock(lk); }
                 }
                 assert g == 2;
             }";
        let (out, report) = Synthesis::new(src, Options::default())
            .unwrap()
            .run_report();
        assert!(out.resolved());
        let run = Json::parse(&report.to_json()).unwrap();
        let records = run.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(records.len(), report.iterations);
        assert!(records.len() > 1, "needs a refuted candidate");
        let Json::Obj(fields) = &run else {
            panic!("the report is an object")
        };
        let mut checked = Vec::new();
        for (key, total) in fields {
            let per: Option<Vec<f64>> = records
                .iter()
                .map(|r| r.get(key).and_then(Json::as_f64))
                .collect();
            let (Some(per), Some(total)) = (per, total.as_f64()) else {
                continue;
            };
            if key.ends_with("_secs") {
                // Durations are whole nanoseconds, so they are summed
                // exactly as such.
                let ns = |secs: f64| (secs * 1e9).round() as u64;
                let sum: u64 = per.iter().map(|&secs| ns(secs)).sum();
                assert!(ns(total) >= sum, "{key}: {total} s < {sum} ns");
            } else if key.starts_with("sat_") {
                assert!(total >= per.iter().sum::<f64>(), "{key}");
            } else if key == "bank_size" || key == "seal_bytes" {
                assert_eq!(total, per.iter().copied().fold(0.0, f64::max), "{key}");
            } else {
                assert_eq!(total, per.iter().sum::<f64>(), "{key}");
            }
            checked.push(key.as_str());
        }
        for key in [
            "states",
            "prescreen_hits",
            "bank_size",
            "seal_bytes",
            "s_solve_secs",
            "s_model_secs",
            "v_solve_secs",
            "sat_decisions",
            "sat_propagations",
            "sat_conflicts",
        ] {
            assert!(checked.contains(&key), "{key} not checked");
        }
        assert!(report.cost.check.states > 0);
        // Each solve proposing a candidate sees at least the hole bits,
        // and the solver only grows.
        assert!(report.records[0].sat_vars > 0);
        assert!(report
            .records
            .windows(2)
            .all(|w| w[0].sat_vars <= w[1].sat_vars && w[0].sat_clauses <= w[1].sat_clauses));
        let bytes = |key| run.get(key).and_then(Json::as_f64).unwrap();
        assert!(bytes("sat_bytes") > 0.0);
        assert_eq!(
            bytes("sat_clause_bytes") + bytes("sat_watch_bytes") + bytes("sat_var_bytes"),
            bytes("sat_bytes")
        );
        assert!(bytes("sat_clause_bytes") > 0.0 && bytes("sat_watch_bytes") > 0.0);
        assert!(bytes("circuit_bytes") > 0.0);
        assert!(bytes("lowered_bytes") > 0.0 && bytes("ir_nodes") > 0.0);
        // Every record of a harness run sealed its candidate.
        assert!(records
            .iter()
            .all(|r| r.get("seal_bytes").and_then(Json::as_f64) > Some(0.0)));
        // Bytes in use have been written, so they are resident.
        assert!(bytes("symbolic_bytes") > 0.0);
        if let Some(peak) = run.get("peak_memory").and_then(Json::as_f64) {
            let owned = [
                "sat_bytes",
                "circuit_bytes",
                "lowered_bytes",
                "symbolic_bytes",
            ];
            assert!(owned.iter().map(|&key| bytes(key)).sum::<f64>() <= peak);
            assert!(bytes("lowered_bytes") + bytes("seal_bytes") <= peak);
        }
        // Vsolve splits into sealing, prescreen and check, timed inside
        // each record's verification; `compile_us` is truncated to
        // whole microseconds.
        for r in records {
            let secs = |key| r.get(key).and_then(Json::as_f64).unwrap();
            let split = secs("compile_us") * 1e-6 + secs("prescreen_secs") + secs("check_secs");
            assert!(split <= secs("v_solve_secs") + 1e-6, "{r:?}");
            assert!(
                secs("check_secs") > 0.0 || secs("prescreen_hits") == 1.0,
                "{r:?}"
            );
        }
    }

    /// A record names its trace's failure, schedule length, executed
    /// steps and end in the projected order, and a candidate that feeds
    /// no trace records none of them.
    #[test]
    fn records_carry_failure_kind_and_schedule_length() {
        // Hole 0 makes worker 1 take the locks in the other order.
        let src = "struct Lock { int owner = -1; }
             Lock a; Lock b;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { l.owner = -1; }
             harness void main() {
                 a = new Lock(); b = new Lock();
                 fork (i; 2) {
                     if (i == 0 || ??(1) == 1) { lock(a); lock(b); unlock(b); unlock(a); }
                     else { lock(b); lock(a); unlock(a); unlock(b); }
                 }
             }";
        let synthesis = Synthesis::new(src, Options::default()).unwrap();
        let (out, report) = synthesis.run_report();
        assert!(out.resolved());
        let first = &report.records[0];
        assert_eq!(first.candidate, vec![0]);
        assert_eq!(first.failure, Some(FailureKind::Deadlock));
        let cex = synthesis
            .verify_candidate(&crate::Assignment::from_values(vec![0]))
            .expect("the first candidate deadlocks");
        assert!(!cex.schedule.is_empty());
        assert_eq!(first.schedule_len, cex.schedule.len());
        let seen = &first.observation;
        assert_eq!(seen.traced_steps, cex.steps.len());
        let order = psketch_symbolic::project(synthesis.lowered(), &cex);
        assert_eq!(seen.projected_steps, order.len());
        assert_eq!(
            seen.trace_end,
            psketch_symbolic::project::trace_end_position(synthesis.lowered(), &order, &cex)
        );
        assert!(0 < seen.trace_end && seen.trace_end <= seen.projected_steps);
        let last = report.records.last().unwrap();
        assert_eq!((last.failure, last.schedule_len), (None, 0));
        assert_eq!(last.observation, Observation::default());
        let run = Json::parse(&report.to_json()).unwrap();
        let records = run.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(
            records[0].get("failure"),
            Some(&Json::Str("deadlock".into()))
        );
        assert_eq!(
            records[0].get("schedule_len").and_then(Json::as_f64),
            Some(cex.schedule.len() as f64)
        );
        assert_eq!(records.last().unwrap().get("failure"), Some(&Json::Null));
        let count = |record: &Json, key| record.get(key).and_then(Json::as_f64);
        assert_eq!(
            count(&records[0], "traced_steps"),
            Some(cex.steps.len() as f64)
        );
        assert_eq!(count(&records[0], "trace_end"), Some(seen.trace_end as f64));
        assert_eq!(count(records.last().unwrap(), "trace_end"), Some(0.0));
    }

    #[test]
    fn missing_peak_memory_serialises_as_null() {
        let report = RunReport {
            schema: RunReport::SCHEMA,
            resolvable: "yes".into(),
            resolution: Some(vec![1]),
            ..RunReport::default()
        };
        let v = Json::parse(&report.to_json()).unwrap();
        assert_eq!(v.get("peak_memory"), Some(&Json::Null));
        assert_eq!(v.get("budget_trip"), Some(&Json::Null));
        let res = v.get("resolution").unwrap().as_arr().unwrap();
        assert_eq!(res[0].as_f64(), Some(1.0));
    }
}
