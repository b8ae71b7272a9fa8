//! The inductive synthesizer (paper §5–6).
//!
//! Maintains a SAT instance over the hole bits. Each observation — a
//! counterexample trace (concurrent mode) or a concrete input
//! (sequential `implements` mode) — contributes the constraint
//! `¬fail(Sk_t[c])`, encoded by symbolically evaluating the projected
//! trace. [`Synthesizer::next_candidate`] asks the solver for hole
//! values consistent with every observation so far;
//! [`NoCandidate::Exhausted`] means the sketch cannot be resolved.

use crate::bv::{is_narrow, Bv, NARROW, WIDE};
use crate::circuit::{Circuit, NodeRef};
use crate::eval::SymEval;
use crate::project::{project, sequential_order, trace_end_position};
use psketch_exec::CexTrace;
use psketch_ir::{Assignment, HoleId, Lowered};
use psketch_lang::ast::{BinOp, Expr, UnOp};
use psketch_sat::{SolveResult, Solver, SolverStats, Var};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why [`Synthesizer::next_candidate`] proposed no candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoCandidate {
    /// The candidate space is exhausted: the sketch cannot be resolved
    /// under the current observations (and therefore at all, since
    /// observations only shrink the space).
    Exhausted,
    /// A solver limit installed via [`Synthesizer::set_limits`]
    /// tripped. Says nothing about resolvability.
    Interrupted,
}

/// [`Synthesizer::next_candidate`]'s outcome with the candidate in a
/// one-element `Vec`. Kept so `perfbench/src/trace.rs`, which matches
/// it, still compiles.
#[doc(hidden)]
#[derive(Clone, Debug)]
pub enum CandidateBatch {
    /// One candidate.
    Found(Vec<Assignment>),
    /// See [`NoCandidate::Exhausted`].
    Exhausted,
    /// See [`NoCandidate::Interrupted`].
    Interrupted,
}

/// What adding one observation cost
/// ([`Synthesizer::add_trace`], [`Synthesizer::add_input`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observation {
    /// Time spent encoding it: its share of the paper's `Smodel`.
    pub encode_time: Duration,
    /// The part of `encode_time` spent projecting the trace and
    /// evaluating the order symbolically.
    pub eval_time: Duration,
    /// The part of `encode_time` spent Tseitin-encoding its `¬fail`
    /// node into the solver.
    pub tseitin_time: Duration,
    /// Steps in the order it evaluated.
    pub projected_steps: usize,
    /// Leading steps of that order shared with the previous trace's,
    /// which were not evaluated again.
    pub resumed_steps: usize,
    /// Circuit nodes it added.
    pub new_nodes: usize,
    /// Solver variables it added.
    pub new_vars: usize,
    /// Problem clauses it added to the solver.
    pub new_clauses: u64,
    /// Field reads its evaluation made.
    pub field_reads: usize,
    /// Those of its field reads that found the value already built,
    /// read through the same reference since the pool last changed.
    pub field_read_hits: usize,
    /// Steps the counterexample trace executed (0 for an input).
    pub traced_steps: usize,
    /// Position in the projected order where the trace ends and its
    /// deadlock set is checked (0 for an input): just past its last
    /// traced step, or at the step that blocked in the prologue or the
    /// epilogue ([`crate::project::trace_end_position`]). Steps from
    /// here on only add failure disjuncts.
    pub trace_end: usize,
}

/// The clock and the sizes an observation starts from
/// ([`Synthesizer::observed`]).
#[derive(Clone, Copy)]
struct Sizes {
    at: Instant,
    nodes: usize,
    vars: usize,
    clauses: u64,
}

/// Work counters for one synthesis session.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthStats {
    /// Observations (traces/inputs) added.
    pub observations: usize,
    /// Circuit nodes built so far.
    pub nodes: usize,
    /// Time spent building boolean encodings (the paper's `Smodel`).
    pub encode_time: Duration,
    /// Time spent in the SAT solver (the paper's `Ssolve`).
    pub solve_time: Duration,
}

/// The inductive synthesizer.
pub struct Synthesizer<'l> {
    l: &'l Lowered,
    circuit: Circuit,
    solver: Solver,
    hole_vars: Vec<Vec<Var>>,
    /// The hole values and the trace evaluator, in the width class of
    /// the sketch's `int_width`.
    encoder: Encoders<'l>,
    /// Statistics.
    pub stats: SynthStats,
}

/// The hole values and the evaluator of counterexample traces, as
/// bitvectors of capacity `N`.
struct Encoder<'l, const N: usize> {
    hole_bvs: Vec<Bv<N>>,
    /// Evaluates each counterexample trace from where its projection
    /// leaves the previous one's.
    trace_eval: SymEval<'l, N>,
}

/// An [`Encoder`] of either width class. Both make the same circuit
/// calls in the same order, so the circuit, the clauses and every
/// search are the same in either.
enum Encoders<'l> {
    Narrow(Encoder<'l, NARROW>),
    Wide(Encoder<'l, WIDE>),
}

/// Evaluates `$body` with `$e` bound to the encoder in `$encoders`,
/// whichever its class.
macro_rules! with_encoder {
    ($encoders:expr, $e:ident => $body:expr) => {
        match $encoders {
            Encoders::Narrow($e) => $body,
            Encoders::Wide($e) => $body,
        }
    };
}

impl<'l> Synthesizer<'l> {
    /// Creates a synthesizer for a lowered sketch: allocates hole bits,
    /// asserts domain bounds and the sketch's static validity
    /// constraints (e.g. reorder permutation-ness).
    pub fn new(l: &'l Lowered) -> Synthesizer<'l> {
        Synthesizer::with_class(l, is_narrow(l.config.int_width as usize))
    }

    /// [`Synthesizer::new`] with bitvectors of the narrow class or the
    /// wide one. Tests force the wide class on a narrow sketch.
    fn with_class(l: &'l Lowered, narrow: bool) -> Synthesizer<'l> {
        let t0 = Instant::now();
        let mut circuit = Circuit::new();
        let mut solver = Solver::new();
        let (encoder, hole_vars) = if narrow {
            let (e, vars) = Encoder::new(l, &mut circuit, &mut solver);
            (Encoders::Narrow(e), vars)
        } else {
            let (e, vars) = Encoder::new(l, &mut circuit, &mut solver);
            (Encoders::Wide(e), vars)
        };
        let stats = SynthStats {
            encode_time: t0.elapsed(),
            nodes: circuit.len(),
            ..SynthStats::default()
        };
        Synthesizer {
            l,
            circuit,
            solver,
            hole_vars,
            encoder,
            stats,
        }
    }

    /// The lowered program under synthesis.
    pub fn lowered(&self) -> &Lowered {
        self.l
    }

    /// Installs cooperative limits on the underlying SAT solver: solve
    /// calls past `deadline` or with `cancel` raised return promptly
    /// and [`Synthesizer::next_candidate`] reports
    /// [`NoCandidate::Interrupted`].
    pub fn set_limits(&mut self, deadline: Option<Instant>, cancel: Option<Arc<AtomicBool>>) {
        self.solver.set_limits(deadline, cancel);
    }

    /// Work counters of the underlying SAT solver (cumulative for this
    /// synthesis session).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// The underlying SAT solver, for its size and memory.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The circuit the observations were encoded through, for its
    /// memory.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Adds a counterexample-trace observation (concurrent CEGIS).
    ///
    /// The projected order is evaluated from its common prefix with
    /// the previous trace's; the circuit and the clauses are those a
    /// fresh evaluation would build.
    pub fn add_trace(&mut self, cex: &CexTrace) -> Observation {
        let before = self.sizes();
        let order = project(self.l, cex);
        let deadlock: BTreeSet<_> = cex.deadlock.iter().copied().collect();
        let deadlock_at = trace_end_position(self.l, &order, cex);
        let (fail, resumed, (reads, hits)) = with_encoder!(&mut self.encoder, e => {
            let (reads, hits) = e.trace_eval.field_reads();
            let resumed = e
                .trace_eval
                .resume(&mut self.circuit, &order, &deadlock, deadlock_at);
            let (all_reads, all_hits) = e.trace_eval.field_reads();
            (e.trace_eval.fail(), resumed, (all_reads - reads, all_hits - hits))
        });
        let evaluated = Instant::now();
        self.circuit.assert_true(fail.not(), &mut self.solver);
        Observation {
            traced_steps: cex.steps.len(),
            trace_end: deadlock_at,
            field_reads: reads,
            field_read_hits: hits,
            ..self.observed(before, evaluated, order.len(), resumed)
        }
    }

    /// Adds a concrete-input observation (sequential CEGIS, §5):
    /// `values[i]` initializes the `i`-th `is_input` global slot.
    pub fn add_input(&mut self, values: &[i64]) -> Observation {
        let before = self.sizes();
        let w = self.l.config.int_width as usize;
        let order = sequential_order(self.l);
        let (fail, (field_reads, field_read_hits)) = with_encoder!(&self.encoder, e => {
            let mut inputs = HashMap::new();
            let mut vi = 0;
            for (ix, g) in self.l.globals.iter().enumerate() {
                if g.is_input {
                    let v = values.get(vi).copied().unwrap_or(0);
                    inputs.insert(ix, Bv::constant(&mut self.circuit, v, w));
                    vi += 1;
                }
            }
            let mut ev = SymEval::new(&mut self.circuit, self.l, &e.hole_bvs, &inputs);
            ev.resume(&mut self.circuit, &order, &BTreeSet::new(), order.len());
            (ev.fail(), ev.field_reads())
        });
        let evaluated = Instant::now();
        self.circuit.assert_true(fail.not(), &mut self.solver);
        Observation {
            field_reads,
            field_read_hits,
            ..self.observed(before, evaluated, order.len(), 0)
        }
    }

    /// Heap bytes the symbolic state has in use: the trace evaluator's
    /// ([`SymEval::heap_bytes`]).
    pub fn symbolic_bytes(&self) -> usize {
        with_encoder!(&self.encoder, e => e.trace_eval.heap_bytes())
    }

    /// When an observation starts, and the sizes it will grow.
    fn sizes(&self) -> Sizes {
        Sizes {
            at: Instant::now(),
            nodes: self.circuit.len(),
            vars: self.solver.num_vars(),
            clauses: self.solver.stats().clauses,
        }
    }

    /// Counts an observation that started at `before`, finished its
    /// symbolic evaluation at `evaluated` and has just been encoded,
    /// and evaluated `steps` steps, the first `resumed` of them shared
    /// with the previous trace.
    fn observed(
        &mut self,
        before: Sizes,
        evaluated: Instant,
        steps: usize,
        resumed: usize,
    ) -> Observation {
        let done = Instant::now();
        let encode_time = done - before.at;
        self.stats.observations += 1;
        self.stats.nodes = self.circuit.len();
        self.stats.encode_time += encode_time;
        Observation {
            encode_time,
            eval_time: evaluated - before.at,
            tseitin_time: done - evaluated,
            projected_steps: steps,
            resumed_steps: resumed,
            new_nodes: self.stats.nodes - before.nodes,
            new_vars: self.solver.num_vars() - before.vars,
            new_clauses: self.solver.stats().clauses - before.clauses,
            ..Observation::default()
        }
    }

    /// Asks for hole values consistent with all observations.
    ///
    /// # Errors
    ///
    /// [`NoCandidate::Exhausted`] when no candidate is left, and
    /// [`NoCandidate::Interrupted`] when a limit installed via
    /// [`Synthesizer::set_limits`] tripped first.
    pub fn next_candidate(&mut self) -> Result<Assignment, NoCandidate> {
        let t0 = Instant::now();
        let r = self.solver.solve();
        self.stats.solve_time += t0.elapsed();
        match r {
            SolveResult::Sat => Ok(self.decode_model()),
            SolveResult::Unsat => Err(NoCandidate::Exhausted),
            SolveResult::Interrupted => Err(NoCandidate::Interrupted),
        }
    }

    /// [`Synthesizer::next_candidate`], whatever `k`. Kept so
    /// `perfbench/src/trace.rs`, which calls it, still compiles.
    #[doc(hidden)]
    pub fn next_candidates(&mut self, _k: usize) -> CandidateBatch {
        match self.next_candidate() {
            Ok(candidate) => CandidateBatch::Found(vec![candidate]),
            Err(NoCandidate::Exhausted) => CandidateBatch::Exhausted,
            Err(NoCandidate::Interrupted) => CandidateBatch::Interrupted,
        }
    }

    /// Reads the hole assignment off the solver's current model.
    fn decode_model(&self) -> Assignment {
        let mut values = Vec::with_capacity(self.hole_vars.len());
        for vars in &self.hole_vars {
            let mut v = 0u64;
            for (k, &var) in vars.iter().enumerate() {
                if self.solver.value(var) == Some(true) {
                    v |= 1 << k;
                }
            }
            values.push(v);
        }
        let a = Assignment::from_values(values);
        debug_assert!(a.validate(&self.l.holes));
        a
    }

    /// Excludes a specific assignment from future candidates (used to
    /// enumerate multiple correct solutions).
    pub fn block(&mut self, a: &Assignment) {
        let mut clause = Vec::new();
        for (h, vars) in self.hole_vars.iter().enumerate() {
            let v = a.value(h as HoleId);
            for (k, &var) in vars.iter().enumerate() {
                let bit = (v >> k) & 1 == 1;
                clause.push(psketch_sat::Lit::new(var, !bit));
            }
        }
        self.solver.add_clause(clause);
    }
}

impl<'l, const N: usize> Encoder<'l, N> {
    /// Allocates the hole bits and asserts their domain bounds, binds
    /// each bit to its reserved variable, and asserts the sketch's
    /// static constraints. Returns the encoder and each hole's
    /// variables.
    fn new(
        l: &'l Lowered,
        circuit: &mut Circuit,
        solver: &mut Solver,
    ) -> (Encoder<'l, N>, Vec<Vec<Var>>) {
        let w = l.config.int_width as usize;
        let nholes = l.holes.num_holes();
        let mut hole_bvs = Vec::with_capacity(nholes);
        let mut hole_vars = Vec::with_capacity(nholes);
        for h in 0..nholes {
            let domain = l.holes.domain(h as HoleId);
            let nbits = (64 - (domain - 1).leading_zeros()).max(1) as usize;
            let nbits = nbits.min(w);
            let mut vars = Vec::with_capacity(nbits);
            let bv = Bv::from_fn(w, |k| {
                if k < nbits {
                    let b = circuit.input();
                    vars.push(solver.new_var());
                    b
                } else {
                    circuit.constant(false)
                }
            });
            // Domain bound when not a power of two.
            if domain != (1u64 << nbits.min(63)) {
                let dom = Bv::constant(circuit, domain as i64, w);
                let inb = Bv::ult(circuit, &bv, &dom);
                circuit.assert_true(inb, solver);
            }
            hole_bvs.push(bv);
            hole_vars.push(vars);
        }
        let trace_eval = SymEval::new(circuit, l, &hole_bvs, &HashMap::new());
        let e = Encoder {
            hole_bvs,
            trace_eval,
        };
        // Force-encode the hole bits so decoding can read them, and
        // tie each input node to its reserved variable.
        e.bind_hole_bits(circuit, solver, &hole_vars);
        // Static constraints from desugaring.
        for cexpr in l.holes.constraints() {
            let v = e.eval_constraint(circuit, w, cexpr);
            let node = v.nonzero(circuit);
            circuit.assert_true(node, solver);
        }
        (e, hole_vars)
    }

    fn bind_hole_bits(&self, circuit: &mut Circuit, solver: &mut Solver, hole_vars: &[Vec<Var>]) {
        // The circuit allocates Tseitin vars lazily; we reserved
        // solver vars for the hole bits up front so the mapping is
        // stable. Encode each input node and link it to the reserved
        // var by equivalence clauses.
        for (bv, vars) in self.hole_bvs.iter().zip(hole_vars) {
            for (k, &bit) in bv.bits().iter().enumerate() {
                if bit.as_const().is_some() {
                    continue;
                }
                let lit = circuit.lit(bit, solver);
                let rl = psketch_sat::Lit::pos(vars[k]);
                solver.add_clause([!lit, rl]);
                solver.add_clause([lit, !rl]);
            }
        }
    }

    /// Evaluates a static constraint expression over hole bits.
    fn eval_constraint(&self, c: &mut Circuit, w: usize, e: &Expr) -> Bv<N> {
        match e {
            Expr::HoleRef(h, _, _) => self.hole_bvs[*h as usize],
            Expr::Int(v, _) => Bv::constant(c, *v, w),
            Expr::Bool(b, _) => Bv::constant(c, i64::from(*b), w),
            Expr::Unary(UnOp::Not, a, _) => {
                let av = self.eval_constraint(c, w, a);
                let nz = av.nonzero(c);
                Bv::from_bool(c, nz.not(), w)
            }
            Expr::Unary(UnOp::Neg, a, _) => {
                let av = self.eval_constraint(c, w, a);
                Bv::neg(c, &av)
            }
            Expr::Binary(op, a, b, _) => {
                let x = self.eval_constraint(c, w, a);
                let y = self.eval_constraint(c, w, b);
                let as_bool = |c: &mut Circuit, n: NodeRef| Bv::from_bool(c, n, w);
                match op {
                    BinOp::Add => Bv::add(c, &x, &y),
                    BinOp::Sub => Bv::sub(c, &x, &y),
                    BinOp::Mul => Bv::mul(c, &x, &y),
                    BinOp::Eq => {
                        let n = Bv::eq(c, &x, &y);
                        as_bool(c, n)
                    }
                    BinOp::Ne => {
                        let n = Bv::eq(c, &x, &y).not();
                        as_bool(c, n)
                    }
                    BinOp::Lt => {
                        let n = Bv::slt(c, &x, &y);
                        as_bool(c, n)
                    }
                    BinOp::Le => {
                        let n = Bv::sle(c, &x, &y);
                        as_bool(c, n)
                    }
                    BinOp::Gt => {
                        let n = Bv::slt(c, &y, &x);
                        as_bool(c, n)
                    }
                    BinOp::Ge => {
                        let n = Bv::sle(c, &y, &x);
                        as_bool(c, n)
                    }
                    BinOp::And => {
                        let nx = x.nonzero(c);
                        let ny = y.nonzero(c);
                        let n = c.and(nx, ny);
                        as_bool(c, n)
                    }
                    BinOp::Or => {
                        let nx = x.nonzero(c);
                        let ny = y.nonzero(c);
                        let n = c.or(nx, ny);
                        as_bool(c, n)
                    }
                    BinOp::Div | BinOp::Mod => {
                        unreachable!("desugaring adds only `!=` between two hole refs")
                    }
                }
            }
            other => unreachable!("desugaring adds only `!=` between two hole refs: {other:?}"),
        }
    }
}

/// Soundness probe: does the projection of `cex` reproduce its failure
/// under the candidate that generated it? CEGIS progress relies on
/// this — a trace that does not refute its own candidate would make
/// the loop propose that candidate forever. Used by tests and
/// debugging tools.
pub fn trace_reproduces(l: &Lowered, cex: &CexTrace, candidate: &Assignment) -> bool {
    if is_narrow(l.config.int_width as usize) {
        reproduces::<NARROW>(l, cex, candidate)
    } else {
        reproduces::<WIDE>(l, cex, candidate)
    }
}

/// [`trace_reproduces`] with bitvectors of capacity `N`.
fn reproduces<const N: usize>(l: &Lowered, cex: &CexTrace, candidate: &Assignment) -> bool {
    let mut circuit = Circuit::new();
    let holes: Vec<Bv<N>> = constant_holes(&mut circuit, l, candidate);
    let order = crate::project::project(l, cex);
    let deadlock: BTreeSet<_> = cex.deadlock.iter().copied().collect();
    let deadlock_at = trace_end_position(l, &order, cex);
    let inputs = HashMap::new();
    let ev = SymEval::new(&mut circuit, l, &holes, &inputs);
    let fail = ev.run(&mut circuit, &order, &deadlock, deadlock_at);
    match fail.as_const() {
        Some(b) => b,
        None => circuit.eval(fail, &HashMap::new()),
    }
}

/// The candidate's hole values as constant bitvectors.
fn constant_holes<const N: usize>(
    circuit: &mut Circuit,
    l: &Lowered,
    candidate: &Assignment,
) -> Vec<Bv<N>> {
    let w = l.config.int_width as usize;
    (0..l.holes.num_holes())
        .map(|h| Bv::constant(circuit, candidate.value(h as HoleId) as i64, w))
        .collect()
}

/// Result of an interruptible sequential verification
/// ([`verify_sequential_limits`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqVerify {
    /// The candidate matches its specification on every bounded input.
    Equivalent,
    /// An input on which candidate and specification disagree.
    Counterexample(Vec<i64>),
    /// A limit tripped before the SAT query finished.
    Interrupted,
}

/// Sequential verification by SAT (paper §5): given a candidate, finds
/// an input on which the sketched function disagrees with its
/// specification, or `None` when none exists (the candidate is
/// correct for the modelled bit width).
pub fn verify_sequential(l: &Lowered, candidate: &Assignment) -> Option<Vec<i64>> {
    match verify_sequential_limits(l, candidate, None, None) {
        SeqVerify::Counterexample(x) => Some(x),
        // Without limits installed the solver cannot be interrupted.
        SeqVerify::Equivalent | SeqVerify::Interrupted => None,
    }
}

/// As [`verify_sequential`], under a cooperative wall deadline and
/// cancellation flag threaded into the underlying CDCL solver.
pub fn verify_sequential_limits(
    l: &Lowered,
    candidate: &Assignment,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
) -> SeqVerify {
    if is_narrow(l.config.int_width as usize) {
        verify_sequential_in::<NARROW>(l, candidate, deadline, cancel)
    } else {
        verify_sequential_in::<WIDE>(l, candidate, deadline, cancel)
    }
}

/// [`verify_sequential_limits`] with bitvectors of capacity `N`.
fn verify_sequential_in<const N: usize>(
    l: &Lowered,
    candidate: &Assignment,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
) -> SeqVerify {
    let w = l.config.int_width as usize;
    let mut circuit = Circuit::new();
    let mut solver = Solver::new();
    solver.set_limits(deadline, cancel);
    let holes: Vec<Bv<N>> = constant_holes(&mut circuit, l, candidate);
    let mut inputs = HashMap::new();
    let mut input_slots = Vec::new();
    for (ix, g) in l.globals.iter().enumerate() {
        if g.is_input {
            inputs.insert(ix, Bv::input(&mut circuit, w));
            input_slots.push(ix);
        }
    }
    let order = sequential_order(l);
    let ev = SymEval::new(&mut circuit, l, &holes, &inputs);
    let fail = ev.run(&mut circuit, &order, &BTreeSet::new(), order.len());
    circuit.assert_true(fail, &mut solver);
    match solver.solve() {
        SolveResult::Unsat => return SeqVerify::Equivalent,
        SolveResult::Interrupted => return SeqVerify::Interrupted,
        SolveResult::Sat => {}
    }
    let mut out = Vec::with_capacity(input_slots.len());
    for ix in input_slots {
        let bv = &inputs[&ix];
        let mut v: i64 = 0;
        for (k, &bit) in bv.bits().iter().enumerate() {
            let lit = circuit.lit(bit, &mut solver);
            if solver.lit_model_value(lit) == Some(true) {
                v |= 1 << k;
            }
        }
        if w < 64 && v & (1 << (w - 1)) != 0 {
            v -= 1 << w;
        }
        out.push(v);
    }
    SeqVerify::Counterexample(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_exec::check;
    use psketch_ir::{desugar::desugar_program, lower, Config};

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower::lower_program(&sk, holes, &cfg).unwrap()
    }

    /// Minimal CEGIS loop for tests (the real one lives in
    /// psketch-core).
    fn mini_cegis(l: &Lowered) -> Option<(Assignment, usize)> {
        let mut synth = Synthesizer::new(l);
        for iter in 0..64 {
            let cand = synth.next_candidate().ok()?;
            let out = check(l, &cand);
            match out.counterexample() {
                None => return Some((cand, iter + 1)),
                Some(cex) => {
                    synth.add_trace(cex);
                }
            }
        }
        panic!("mini CEGIS did not converge in 64 iterations");
    }

    #[test]
    fn synthesizes_a_constant() {
        let l = lowered("int g; harness void main() { g = ??(4); assert g == 11; }");
        let (a, iters) = mini_cegis(&l).expect("resolvable");
        assert_eq!(a.value(0), 11);
        assert!(iters <= 3, "took {iters} iterations");
    }

    #[test]
    fn unresolvable_sketch_reports_none() {
        // g is 0 or 1; assert demands 5.
        let l = lowered("int g; harness void main() { g = ??(1); assert g == 5; }");
        assert!(mini_cegis(&l).is_none());
    }

    #[test]
    fn reorder_constraint_makes_candidates_permutations() {
        let l = lowered(
            "int g;
             harness void main() {
                 reorder { g = g + 1; g = g * 2; g = g + 3; }
                 assert g >= 0;
             }",
        );
        let mut synth = Synthesizer::new(&l);
        let a = synth.next_candidate().expect("sat");
        let perm: Vec<u64> = (0..3).map(|h| a.value(h)).collect();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "not a permutation: {perm:?}");
    }

    #[test]
    fn synthesizes_an_ordering() {
        // Only g=g+1 before g=g*2 (from 0): (0+1)*2 = 2.
        let l = lowered(
            "int g;
             harness void main() {
                 reorder { g = g + 1; g = g * 2; }
                 assert g == 2;
             }",
        );
        let (a, _) = mini_cegis(&l).expect("resolvable");
        // Quadratic encoding: hole i gives the statement at position i.
        assert_eq!((a.value(0), a.value(1)), (0, 1));
    }

    #[test]
    fn concurrent_synthesis_chooses_atomicity() {
        // The generator picks between a racy add and an atomic
        // increment; only the atomic one survives all interleavings.
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) {
                     if (??(1) == 0) { int t = g; g = t + 1; }
                     else { int old = AtomicReadAndIncr(g); }
                 }
                 assert g == 2;
             }",
        );
        let (a, iters) = mini_cegis(&l).expect("resolvable");
        assert_eq!(a.value(0), 1, "must pick the atomic increment");
        assert!(iters <= 8);
    }

    #[test]
    fn deadlock_observations_prune() {
        // Choose lock order per thread; same order avoids deadlock.
        let l = lowered(
            "struct Lock { int owner = -1; }
             Lock a; Lock b; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { l.owner = -1; }
             harness void main() {
                 a = new Lock(); b = new Lock();
                 fork (i; 2) {
                     if (??(1) == 0) {
                         if (i == 0) { lock(a); lock(b); }
                         else { lock(b); lock(a); }
                     } else { lock(a); lock(b); }
                     g = g + 1;
                     unlock(b); unlock(a);
                 }
                 assert g == 2;
             }",
        );
        let (_a, iters) = mini_cegis(&l).expect("resolvable");
        assert!(iters <= 6);
    }

    #[test]
    fn sequential_cegis_on_implements() {
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "int spec(int x) { return x + x + x; }
             int impl(int x) implements spec { return x * ??(3); }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower::lower_equivalence(&sk, holes, "impl", &cfg).unwrap();
        let mut synth = Synthesizer::new(&l);
        let mut iters = 0;
        let solution = loop {
            iters += 1;
            assert!(iters < 20);
            let cand = synth.next_candidate().expect("resolvable");
            match verify_sequential(&l, &cand) {
                None => break cand,
                Some(cex_input) => {
                    synth.add_input(&cex_input);
                }
            }
        };
        assert_eq!(solution.value(0), 3);
        assert!(iters <= 5, "took {iters}");
    }

    #[test]
    fn sequential_unresolvable() {
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "int spec(int x) { return x + 1; }
             int impl(int x) implements spec { return x * ??(2); }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower::lower_equivalence(&sk, holes, "impl", &cfg).unwrap();
        let mut synth = Synthesizer::new(&l);
        let mut resolved = false;
        for _ in 0..10 {
            match synth.next_candidate() {
                Err(_) => {
                    resolved = false;
                    break;
                }
                Ok(cand) => match verify_sequential(&l, &cand) {
                    None => {
                        resolved = true;
                        break;
                    }
                    Some(cex) => {
                        synth.add_input(&cex);
                    }
                },
            }
        }
        assert!(!resolved, "x*c can never equal x+1 for all x");
    }

    #[test]
    fn blocking_enumerates_solutions() {
        let l = lowered("int g; harness void main() { g = ??(2); assert g < 2; }");
        let mut synth = Synthesizer::new(&l);
        let mut seen = Vec::new();
        while let Ok(cand) = synth.next_candidate() {
            let out = check(&l, &cand);
            match out.counterexample() {
                None => {
                    seen.push(cand.value(0));
                    synth.block(&cand);
                }
                Some(cex) => {
                    synth.add_trace(cex);
                }
            }
            if seen.len() > 4 {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    /// Two workers lock `a` and `b` twice; the holes choose lock
    /// orders, or which locks are released before they are taken
    /// again. Wrong candidates deadlock at varying points of projected
    /// orders that share long prefixes.
    const LOCK_SKETCH: &str = "struct Lock { int owner = -1; }
         Lock a; Lock b; int g;
         void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
         void unlock(Lock l) { l.owner = -1; }
         harness void main() {
             a = new Lock(); b = new Lock();
             fork (i; 2) { BODY }
             assert g == 4;
         }";

    const LOCK_BODIES: [&str; 2] = [
        "if (i == ??(2)) { lock(a); lock(b); } else { lock(b); lock(a); }
         g = g + 1;
         if (??(1) == 1) { unlock(a); unlock(b); }
         if (i == ??(2)) { lock(a); lock(b); } else { lock(b); lock(a); }
         g = g + 1;
         unlock(a); unlock(b);",
        "lock(a); lock(b);
         g = g + 1;
         if (??(1) == 1) { unlock(b); }
         if (??(1) == 1) { unlock(a); }
         lock(a); lock(b);
         g = g + 1;
         unlock(a); unlock(b);",
    ];

    impl Synthesizer<'_> {
        /// The `fail` node of the last trace evaluated.
        fn fail(&self) -> NodeRef {
            with_encoder!(&self.encoder, e => e.trace_eval.fail())
        }

        /// Drops the trace evaluation, so the next trace is evaluated
        /// from the empty prefix.
        fn evaluate_afresh(&mut self) {
            with_encoder!(&mut self.encoder, e => {
                e.trace_eval = SymEval::new(&mut self.circuit, self.l, &e.hole_bvs, &HashMap::new());
            });
        }
    }

    /// Asserts that two synthesizers hold the same circuit, `fail`
    /// node, variables and clauses.
    fn assert_same_encoding(a: &Synthesizer, b: &Synthesizer, src: &str) {
        assert_eq!(a.circuit.len(), b.circuit.len(), "{src}");
        assert_eq!(a.fail(), b.fail(), "{src}");
        assert_eq!(a.solver.num_vars(), b.solver.num_vars(), "{src}");
        assert_eq!(a.solver.stats().clauses, b.solver.stats().clauses, "{src}");
    }

    /// Feeds a sketch's counterexamples to two synthesizers: one
    /// resumes each trace's evaluation from the previous trace's, the
    /// other evaluates every projected order from a fresh evaluator
    /// on its own circuit. After every trace both must hold the same
    /// circuit, `fail` node, variables and clauses, and propose the
    /// same next candidate.
    #[test]
    fn resumed_evaluation_equals_fresh_evaluation() {
        // A first trace; a deadlock re-checked inside the prefix the
        // trace shares with the previous one; one re-checked at or
        // after a non-empty shared prefix.
        let mut cases = [false; 3];
        for body in LOCK_BODIES {
            let src = LOCK_SKETCH.replace("BODY", body);
            let l = lowered(&src);
            let mut resumed = Synthesizer::new(&l);
            let mut fresh = Synthesizer::new(&l);
            loop {
                let candidate = resumed.next_candidate();
                assert_eq!(candidate, fresh.next_candidate());
                let candidate = candidate.expect("resolvable");
                let out = check(&l, &candidate);
                let Some(cex) = out.counterexample() else {
                    break;
                };
                let k = resumed.add_trace(cex).resumed_steps;
                fresh.evaluate_afresh();
                assert_eq!(fresh.add_trace(cex).resumed_steps, 0);
                assert_same_encoding(&resumed, &fresh, body);
                assert!(!cex.deadlock.is_empty(), "every trace deadlocks");
                let deadlock_at = trace_end_position(&l, &project(&l, cex), cex);
                cases[0] |= k == 0;
                cases[1] |= deadlock_at < k;
                cases[2] |= k > 0 && deadlock_at >= k;
            }
        }
        assert_eq!(cases, [true; 3], "first, inside, after the prefix");
    }

    /// Feeds every counterexample of the lock sketches above, and of a
    /// heap sketch whose workers read fields through a reference a
    /// hole picks, to a synthesizer of each width class. After every
    /// trace both must hold the same circuit, `fail` node, variables
    /// and clauses, and propose the same next candidate.
    #[test]
    fn width_classes_build_the_same_circuit() {
        const HEAP_SKETCH: &str = "struct Node { int val; Node next; }
             Node head;
             harness void main() {
                 head = new Node(); head.next = new Node(); head.next.val = 5;
                 fork (i; 2) {
                     Node p = head;
                     if (??(1) == 1) { p = p.next; }
                     if (??(1) == 1) { int t = p.val; p.val = t + 1; }
                     else { atomic { p.val = p.val + 1; } }
                 }
                 assert head.next.val == 7;
             }";
        let mut sketches: Vec<String> = LOCK_BODIES
            .iter()
            .map(|body| LOCK_SKETCH.replace("BODY", body))
            .collect();
        sketches.push(HEAP_SKETCH.to_string());
        for src in &sketches {
            let l = lowered(src);
            let mut narrow = Synthesizer::with_class(&l, true);
            let mut wide = Synthesizer::with_class(&l, false);
            assert!(matches!(narrow.encoder, Encoders::Narrow(_)));
            assert!(matches!(wide.encoder, Encoders::Wide(_)));
            assert_same_encoding(&narrow, &wide, src);
            let mut traces = 0;
            loop {
                let candidate = narrow.next_candidate();
                assert_eq!(candidate, wide.next_candidate(), "{src}");
                let out = check(&l, &candidate.expect("resolvable"));
                let Some(cex) = out.counterexample() else {
                    break;
                };
                narrow.add_trace(cex);
                wide.add_trace(cex);
                assert_same_encoding(&narrow, &wide, src);
                traces += 1;
            }
            assert!(traces > 0, "{src}");
        }
    }

    #[test]
    fn stats_accumulate() {
        let l = lowered("int g; harness void main() { g = ??(2); assert g == 1; }");
        let mut synth = Synthesizer::new(&l);
        let c0 = synth.next_candidate().unwrap();
        if let Some(cex) = check(&l, &c0).counterexample() {
            synth.add_trace(cex);
            assert_eq!(synth.stats.observations, 1);
        }
        assert!(synth.stats.nodes > 1);
    }
}
