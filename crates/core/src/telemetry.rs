//! Structured run telemetry: per-iteration records, resource-budget
//! trips, and a machine-readable JSON run report.
//!
//! Every CEGIS iteration appends one [`IterationRecord`] — the
//! candidate tried, the verifier's verdict and effort, and the size of
//! the observation set that produced the candidate. The whole run is
//! summarised by a [`RunReport`], which serialises to JSON with
//! [`RunReport::to_json`] (schema-stable: see [`RunReport::SCHEMA`])
//! and is emitted by the `psketch` CLI under `--report-json`.
//!
//! The container has no JSON dependency, so this module carries its
//! own emitter and a minimal parser ([`Json`]) — enough to round-trip
//! the report in tests and to let downstream tooling validate keys.

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

/// One CEGIS iteration: a candidate, its verdict, and the effort the
/// verifier spent on it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IterationRecord {
    /// 1-based candidate index (the paper's `Itns` counter).
    pub iteration: usize,
    /// 1-based batch number (equals `iteration` for classic CEGIS).
    pub batch: usize,
    /// Candidates proposed concurrently in this batch.
    pub batch_width: usize,
    /// The candidate's hole values, in hole order.
    pub candidate: Vec<u64>,
    /// `"correct"`, `"trace"`, `"input"`, or `"unknown:<reason>"`.
    pub verdict: String,
    /// Observations (|T|) accumulated before this candidate was
    /// proposed.
    pub trace_set: usize,
    /// Wall time of this candidate's verification call, seconds.
    pub v_solve_secs: f64,
    /// States the verifier explored for this candidate.
    pub states: usize,
    /// Transitions the verifier fired for this candidate.
    pub transitions: usize,
    /// Terminal states the verifier reached for this candidate.
    pub terminal_states: usize,
    /// Candidate refuted by a sampled schedule (hybrid verifier) —
    /// the exhaustive search was skipped.
    pub sampled_refutation: bool,
    /// States first discovered per checker thread.
    pub per_thread_states: Vec<usize>,
    /// Undo-journal cell writes the checker recorded for this
    /// candidate (the zero-clone engine's "bytes copied" analogue).
    pub journal_writes: u64,
    /// Whole-state copies the checker made for this candidate (one
    /// per stolen work item; zero in sequential searches).
    pub state_clones: usize,
    /// States expanded with a proper ample subset of the enabled
    /// workers (partial-order reduction).
    pub por_ample_hits: u64,
    /// States where the ample-set construction failed and the checker
    /// expanded every enabled worker.
    pub por_fallbacks: u64,
    /// Worker expansions the reduction skipped at ample states.
    pub states_pruned: u64,
    /// Duplicate-state hits that arrived with symmetric worker blocks
    /// out of canonical order — revisits the thread-symmetry reduction
    /// folded onto an orbit representative.
    pub sym_collapses: u64,
    /// Candidate refuted by a banked schedule — both the sampling and
    /// the exhaustive search were skipped.
    pub prescreen_hit: bool,
    /// Banked schedules replayed while prescreening this candidate.
    pub prescreen_replays: u64,
    /// Schedule-bank occupancy observed by this verification call.
    pub bank_size: u64,
    /// Microseconds spent compiling this candidate into its sealed
    /// execution artifact.
    pub compile_us: u64,
    /// POR footprint masks this candidate's constants made strictly
    /// tighter than the static analysis.
    pub sharpened_masks: u64,
    /// Microseconds spent resealing a previous artifact for this
    /// candidate (included in `compile_us`; 0 when sealed fresh).
    pub reseal_us: u64,
    /// Threads whose micro-op code and footprints were reused verbatim
    /// from the previous artifact (0 when sealed fresh).
    pub threads_reused: u64,
}

/// The machine-readable run report: run-level summary plus one
/// [`IterationRecord`] per candidate tried.
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
    /// Candidates tried.
    pub iterations: usize,
    /// Wall-clock total, seconds.
    pub total_secs: f64,
    /// Synthesizer SAT time, seconds (`Ssolve`).
    pub s_solve_secs: f64,
    /// Synthesizer encoding time, seconds (`Smodel`).
    pub s_model_secs: f64,
    /// Verifier search time, seconds (`Vsolve`).
    pub v_solve_secs: f64,
    /// Front-end + lowering time, seconds (`Vmodel`).
    pub v_model_secs: f64,
    /// |C| as a decimal string (may exceed `u64`).
    pub candidate_space: String,
    /// log10 |C|.
    pub log10_space: f64,
    /// States explored, cumulative over all verification calls.
    pub states: usize,
    /// Transitions fired, cumulative.
    pub transitions: usize,
    /// Terminal states reached, cumulative.
    pub terminal_states: usize,
    /// Peak RSS in bytes; `None` when `/proc` is unavailable.
    pub peak_memory: Option<u64>,
    /// Circuit nodes in the synthesizer at the end.
    pub synth_nodes: usize,
    /// Candidates refuted by a sampled schedule (hybrid verifier).
    pub sampled_refutations: usize,
    /// Widest concurrent candidate batch.
    pub portfolio_width: usize,
    /// States first discovered per checker thread, summed over calls.
    pub per_thread_states: Vec<usize>,
    /// Undo-journal cell writes, cumulative over all checker searches.
    pub journal_writes: u64,
    /// Whole-state copies the checker made, cumulative (clone-on-steal
    /// in parallel searches; zero for sequential runs).
    pub state_clones: usize,
    /// States expanded with a proper ample subset of the enabled
    /// workers, cumulative (partial-order reduction).
    pub por_ample_hits: u64,
    /// States where the ample-set construction failed and the checker
    /// fell back to full expansion, cumulative.
    pub por_fallbacks: u64,
    /// Worker expansions the reduction skipped at ample states,
    /// cumulative.
    pub states_pruned: u64,
    /// Duplicate-state hits that arrived with symmetric worker blocks
    /// out of canonical order — revisits the thread-symmetry reduction
    /// folded onto an orbit representative, cumulative.
    pub sym_collapses: u64,
    /// States explored per second of verifier search time.
    pub states_per_sec: f64,
    /// Candidates refuted by a banked schedule before any search.
    pub prescreen_hits: u64,
    /// Banked schedules replayed across all prescreen passes.
    pub prescreen_replays: u64,
    /// Full checker invocations made unnecessary by the prescreen
    /// (equals `prescreen_hits`; kept as its own ablation column).
    pub checker_calls_avoided: u64,
    /// Schedule-bank occupancy at the end of the run.
    pub bank_size: u64,
    /// Microseconds spent compiling candidates into sealed execution
    /// artifacts, cumulative.
    pub compile_us: u64,
    /// POR footprint masks the compiled candidates' constants made
    /// strictly tighter than the static analysis, cumulative.
    pub sharpened_masks: u64,
    /// Microseconds spent resealing previous artifacts, cumulative
    /// (included in `compile_us`; broken out for the ablation).
    pub reseal_us: u64,
    /// Threads reused verbatim from previous artifacts across all
    /// reseals, cumulative.
    pub threads_reused: u64,
    /// Synthesizer SAT decisions.
    pub sat_decisions: u64,
    /// Synthesizer SAT unit propagations.
    pub sat_propagations: u64,
    /// Synthesizer SAT conflicts.
    pub sat_conflicts: u64,
    /// Synthesizer SAT restarts.
    pub sat_restarts: u64,
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
}

impl RunReport {
    /// Current report schema version. Bump when a field is renamed or
    /// removed; adding fields is backward compatible.
    ///
    /// v2: schedule-bank prescreen counters (`prescreen_hits`,
    /// `prescreen_replays`, `checker_calls_avoided`, `bank_size` at
    /// run level; `prescreen_hit`, `prescreen_replays`, `bank_size`
    /// per iteration).
    ///
    /// v3: compile-once candidate layer counters (`compile_us`,
    /// `sharpened_masks` at both run and iteration level).
    ///
    /// v4: incremental reseal counters (`reseal_us`, `threads_reused`
    /// at both run and iteration level).
    pub const SCHEMA: u32 = 4;

    /// Serialises the report as a JSON object (two-space indented).
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new(0);
        o.field("schema", Json::from(self.schema as i64));
        o.field("resolvable", Json::Str(self.resolvable.clone()));
        o.field(
            "resolution",
            match &self.resolution {
                Some(v) => Json::u64_array(v),
                None => Json::Null,
            },
        );
        o.field(
            "budget_trip",
            match &self.budget_trip {
                Some(t) => {
                    let mut b = ObjWriter::new(1);
                    b.field("budget", Json::Str(t.budget.label().to_string()));
                    b.field("phase", Json::Str(t.phase.clone()));
                    b.field("detail", Json::Str(t.detail.clone()));
                    Json::Raw(b.finish())
                }
                None => Json::Null,
            },
        );
        o.field("iterations", Json::from(self.iterations as i64));
        o.field("total_secs", Json::Num(self.total_secs));
        o.field("s_solve_secs", Json::Num(self.s_solve_secs));
        o.field("s_model_secs", Json::Num(self.s_model_secs));
        o.field("v_solve_secs", Json::Num(self.v_solve_secs));
        o.field("v_model_secs", Json::Num(self.v_model_secs));
        o.field("candidate_space", Json::Str(self.candidate_space.clone()));
        o.field("log10_space", Json::Num(self.log10_space));
        o.field("states", Json::from(self.states as i64));
        o.field("transitions", Json::from(self.transitions as i64));
        o.field("terminal_states", Json::from(self.terminal_states as i64));
        o.field(
            "peak_memory",
            match self.peak_memory {
                Some(b) => Json::from(b as i64),
                None => Json::Null,
            },
        );
        o.field("synth_nodes", Json::from(self.synth_nodes as i64));
        o.field(
            "sampled_refutations",
            Json::from(self.sampled_refutations as i64),
        );
        o.field("portfolio_width", Json::from(self.portfolio_width as i64));
        o.field(
            "per_thread_states",
            Json::usize_array(&self.per_thread_states),
        );
        o.field("journal_writes", Json::from(self.journal_writes as i64));
        o.field("state_clones", Json::from(self.state_clones as i64));
        o.field("por_ample_hits", Json::from(self.por_ample_hits as i64));
        o.field("por_fallbacks", Json::from(self.por_fallbacks as i64));
        o.field("states_pruned", Json::from(self.states_pruned as i64));
        o.field("sym_collapses", Json::from(self.sym_collapses as i64));
        o.field("states_per_sec", Json::Num(self.states_per_sec));
        o.field("prescreen_hits", Json::from(self.prescreen_hits as i64));
        o.field(
            "prescreen_replays",
            Json::from(self.prescreen_replays as i64),
        );
        o.field(
            "checker_calls_avoided",
            Json::from(self.checker_calls_avoided as i64),
        );
        o.field("bank_size", Json::from(self.bank_size as i64));
        o.field("compile_us", Json::from(self.compile_us as i64));
        o.field("sharpened_masks", Json::from(self.sharpened_masks as i64));
        o.field("reseal_us", Json::from(self.reseal_us as i64));
        o.field("threads_reused", Json::from(self.threads_reused as i64));
        o.field("sat_decisions", Json::from(self.sat_decisions as i64));
        o.field("sat_propagations", Json::from(self.sat_propagations as i64));
        o.field("sat_conflicts", Json::from(self.sat_conflicts as i64));
        o.field("sat_restarts", Json::from(self.sat_restarts as i64));
        let records: Vec<String> = self.records.iter().map(|r| r.to_json(2)).collect();
        o.raw_field("records", &array_of_raw(&records, 1));
        o.finish()
    }
}

impl IterationRecord {
    fn to_json(&self, indent: usize) -> String {
        let mut o = ObjWriter::new(indent);
        o.field("iteration", Json::from(self.iteration as i64));
        o.field("batch", Json::from(self.batch as i64));
        o.field("batch_width", Json::from(self.batch_width as i64));
        o.field("candidate", Json::u64_array(&self.candidate));
        o.field("verdict", Json::Str(self.verdict.clone()));
        o.field("trace_set", Json::from(self.trace_set as i64));
        o.field("v_solve_secs", Json::Num(self.v_solve_secs));
        o.field("states", Json::from(self.states as i64));
        o.field("transitions", Json::from(self.transitions as i64));
        o.field("terminal_states", Json::from(self.terminal_states as i64));
        o.field("sampled_refutation", Json::Bool(self.sampled_refutation));
        o.field(
            "per_thread_states",
            Json::usize_array(&self.per_thread_states),
        );
        o.field("journal_writes", Json::from(self.journal_writes as i64));
        o.field("state_clones", Json::from(self.state_clones as i64));
        o.field("por_ample_hits", Json::from(self.por_ample_hits as i64));
        o.field("por_fallbacks", Json::from(self.por_fallbacks as i64));
        o.field("states_pruned", Json::from(self.states_pruned as i64));
        o.field("sym_collapses", Json::from(self.sym_collapses as i64));
        o.field("prescreen_hit", Json::Bool(self.prescreen_hit));
        o.field(
            "prescreen_replays",
            Json::from(self.prescreen_replays as i64),
        );
        o.field("bank_size", Json::from(self.bank_size as i64));
        o.field("compile_us", Json::from(self.compile_us as i64));
        o.field("sharpened_masks", Json::from(self.sharpened_masks as i64));
        o.field("reseal_us", Json::from(self.reseal_us as i64));
        o.field("threads_reused", Json::from(self.threads_reused as i64));
        o.finish()
    }
}

/// Seconds with enough digits to round-trip loop timings.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
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
    /// Pre-rendered JSON spliced in verbatim (emission only).
    Raw(String),
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

    fn usize_array(v: &[usize]) -> Json {
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
            Json::Raw(s) => out.push_str(s),
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

/// Incremental writer for an indented JSON object.
struct ObjWriter {
    out: String,
    pad: String,
    first: bool,
}

impl ObjWriter {
    fn new(indent: usize) -> ObjWriter {
        ObjWriter {
            out: String::from("{"),
            pad: "  ".repeat(indent + 1),
            first: true,
        }
    }

    fn field(&mut self, key: &str, value: Json) {
        self.raw_field(key, &value.render());
    }

    fn raw_field(&mut self, key: &str, rendered: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('\n');
        self.out.push_str(&self.pad);
        escape_into(key, &mut self.out);
        self.out.push_str(": ");
        self.out.push_str(rendered);
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        let closing = &self.pad[..self.pad.len() - 2];
        self.out.push_str(closing);
        self.out.push('}');
        self.out
    }
}

fn array_of_raw(items: &[String], indent: usize) -> String {
    if items.is_empty() {
        return String::from("[]");
    }
    let pad = "  ".repeat(indent + 1);
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str(&pad);
        out.push_str(item);
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&"  ".repeat(indent));
    out.push(']');
    out
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
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
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

    #[test]
    fn report_round_trips_through_json() {
        let report = RunReport {
            schema: RunReport::SCHEMA,
            resolvable: "unknown".into(),
            resolution: None,
            budget_trip: Some(BudgetTrip::new(
                BudgetKind::Wall,
                "verify",
                "wall timeout 5s exceeded",
            )),
            iterations: 2,
            total_secs: 5.25,
            s_solve_secs: 0.5,
            s_model_secs: 0.25,
            v_solve_secs: 4.0,
            v_model_secs: 0.125,
            candidate_space: "340282366920938463463374607431768211456".into(),
            log10_space: 38.5,
            states: 100,
            transitions: 250,
            terminal_states: 7,
            peak_memory: Some(1024 * 1024),
            synth_nodes: 33,
            sampled_refutations: 1,
            portfolio_width: 2,
            per_thread_states: vec![60, 40],
            journal_writes: 512,
            state_clones: 4,
            por_ample_hits: 12,
            por_fallbacks: 3,
            states_pruned: 20,
            sym_collapses: 9,
            states_per_sec: 25.0,
            prescreen_hits: 5,
            prescreen_replays: 17,
            checker_calls_avoided: 5,
            bank_size: 6,
            compile_us: 420,
            sharpened_masks: 11,
            reseal_us: 95,
            threads_reused: 3,
            sat_decisions: 9,
            sat_propagations: 101,
            sat_conflicts: 3,
            sat_restarts: 1,
            records: vec![IterationRecord {
                iteration: 1,
                batch: 1,
                batch_width: 2,
                candidate: vec![3, 0],
                verdict: "trace".into(),
                trace_set: 0,
                v_solve_secs: 2.5,
                states: 60,
                transitions: 150,
                terminal_states: 4,
                sampled_refutation: true,
                per_thread_states: vec![40, 20],
                journal_writes: 300,
                state_clones: 2,
                por_ample_hits: 8,
                por_fallbacks: 1,
                states_pruned: 13,
                sym_collapses: 7,
                prescreen_hit: true,
                prescreen_replays: 3,
                bank_size: 2,
                compile_us: 210,
                sharpened_masks: 4,
                reseal_us: 45,
                threads_reused: 2,
            }],
        };
        let text = report.to_json();
        let v = Json::parse(&text).expect("report must be valid JSON");
        assert_eq!(v.get("schema").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("resolvable").unwrap().as_str(), Some("unknown"));
        assert_eq!(v.get("resolution"), Some(&Json::Null));
        let trip = v.get("budget_trip").unwrap();
        assert_eq!(trip.get("budget").unwrap().as_str(), Some("wall"));
        assert_eq!(trip.get("phase").unwrap().as_str(), Some("verify"));
        assert_eq!(
            v.get("candidate_space").unwrap().as_str(),
            Some("340282366920938463463374607431768211456")
        );
        assert_eq!(v.get("peak_memory").unwrap().as_f64(), Some(1048576.0));
        assert_eq!(v.get("total_secs").unwrap().as_f64(), Some(5.25));
        assert_eq!(v.get("journal_writes").unwrap().as_f64(), Some(512.0));
        assert_eq!(v.get("state_clones").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("por_ample_hits").unwrap().as_f64(), Some(12.0));
        assert_eq!(v.get("por_fallbacks").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("states_pruned").unwrap().as_f64(), Some(20.0));
        assert_eq!(v.get("sym_collapses").unwrap().as_f64(), Some(9.0));
        assert_eq!(v.get("states_per_sec").unwrap().as_f64(), Some(25.0));
        assert_eq!(v.get("prescreen_hits").unwrap().as_f64(), Some(5.0));
        assert_eq!(v.get("prescreen_replays").unwrap().as_f64(), Some(17.0));
        assert_eq!(v.get("checker_calls_avoided").unwrap().as_f64(), Some(5.0));
        assert_eq!(v.get("bank_size").unwrap().as_f64(), Some(6.0));
        assert_eq!(v.get("compile_us").unwrap().as_f64(), Some(420.0));
        assert_eq!(v.get("sharpened_masks").unwrap().as_f64(), Some(11.0));
        assert_eq!(v.get("reseal_us").unwrap().as_f64(), Some(95.0));
        assert_eq!(v.get("threads_reused").unwrap().as_f64(), Some(3.0));
        let recs = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.get("verdict").unwrap().as_str(), Some("trace"));
        assert_eq!(r.get("sampled_refutation").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("journal_writes").unwrap().as_f64(), Some(300.0));
        assert_eq!(r.get("state_clones").unwrap().as_f64(), Some(2.0));
        assert_eq!(r.get("por_ample_hits").unwrap().as_f64(), Some(8.0));
        assert_eq!(r.get("states_pruned").unwrap().as_f64(), Some(13.0));
        assert_eq!(r.get("sym_collapses").unwrap().as_f64(), Some(7.0));
        assert_eq!(r.get("prescreen_hit").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("prescreen_replays").unwrap().as_f64(), Some(3.0));
        assert_eq!(r.get("bank_size").unwrap().as_f64(), Some(2.0));
        assert_eq!(r.get("compile_us").unwrap().as_f64(), Some(210.0));
        assert_eq!(r.get("sharpened_masks").unwrap().as_f64(), Some(4.0));
        assert_eq!(r.get("reseal_us").unwrap().as_f64(), Some(45.0));
        assert_eq!(r.get("threads_reused").unwrap().as_f64(), Some(2.0));
        let per = r.get("per_thread_states").unwrap().as_arr().unwrap();
        assert_eq!(per.iter().filter_map(Json::as_f64).sum::<f64>(), 60.0);
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
