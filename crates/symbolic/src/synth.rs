//! The inductive synthesizer (paper §5–6).
//!
//! Maintains a SAT instance over the hole bits. Each observation — a
//! counterexample trace (concurrent mode) or a concrete input
//! (sequential `implements` mode) — contributes the constraint
//! `¬fail(Sk_t[c])`, encoded by symbolically evaluating the projected
//! trace. [`Synthesizer::next_candidate`] asks the solver for hole
//! values consistent with every observation so far;
//! [`NoCandidate::Exhausted`] means the sketch cannot be resolved.

use crate::bv::Bv;
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
    /// Steps in the order it evaluated.
    pub projected_steps: usize,
    /// Leading steps of that order shared with the previous trace's,
    /// which were not evaluated again.
    pub resumed_steps: usize,
    /// Circuit nodes it added.
    pub new_nodes: usize,
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
    hole_bvs: Vec<Bv>,
    hole_vars: Vec<Vec<Var>>,
    /// Evaluates each counterexample trace from where its projection
    /// leaves the previous one's.
    trace_eval: SymEval<'l>,
    /// Statistics.
    pub stats: SynthStats,
}

impl<'l> Synthesizer<'l> {
    /// Creates a synthesizer for a lowered sketch: allocates hole bits,
    /// asserts domain bounds and the sketch's static validity
    /// constraints (e.g. reorder permutation-ness).
    pub fn new(l: &'l Lowered) -> Synthesizer<'l> {
        let t0 = Instant::now();
        let mut circuit = Circuit::new();
        let mut solver = Solver::new();
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
                let dom = Bv::constant(&mut circuit, domain as i64, w);
                let inb = Bv::ult(&mut circuit, &bv, &dom);
                circuit.assert_true(inb, &mut solver);
            }
            hole_bvs.push(bv);
            hole_vars.push(vars);
        }
        let trace_eval = SymEval::new(&mut circuit, l, &hole_bvs, &HashMap::new());
        let mut s = Synthesizer {
            l,
            circuit,
            solver,
            hole_bvs,
            hole_vars,
            trace_eval,
            stats: SynthStats::default(),
        };
        // Force-encode the hole bits so decoding can read them, and
        // tie each input node to its reserved variable.
        s.bind_hole_bits();
        // Static constraints from desugaring.
        let constraints: Vec<Expr> = s.l.holes.constraints().to_vec();
        for cexpr in &constraints {
            let v = s.eval_constraint(cexpr);
            let node = v.nonzero(&mut s.circuit);
            s.circuit.assert_true(node, &mut s.solver);
        }
        s.stats.encode_time += t0.elapsed();
        s.stats.nodes = s.circuit.len();
        s
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

    fn bind_hole_bits(&mut self) {
        // The circuit allocates Tseitin vars lazily; we reserved
        // solver vars for the hole bits up front so the mapping is
        // stable. Encode each input node and link it to the reserved
        // var by equivalence clauses.
        for h in 0..self.hole_bvs.len() {
            let bv = self.hole_bvs[h];
            for (k, &bit) in bv.bits().iter().enumerate() {
                if bit.as_const().is_some() {
                    continue;
                }
                let lit = self.circuit.lit(bit, &mut self.solver);
                let reserved = self.hole_vars[h][k];
                let rl = psketch_sat::Lit::pos(reserved);
                self.solver.add_clause([!lit, rl]);
                self.solver.add_clause([lit, !rl]);
            }
        }
    }

    /// Evaluates a static constraint expression over hole bits.
    fn eval_constraint(&mut self, e: &Expr) -> Bv {
        let w = self.l.config.int_width as usize;
        let c = &mut self.circuit;
        match e {
            Expr::HoleRef(h, _, _) => self.hole_bvs[*h as usize],
            Expr::Int(v, _) => Bv::constant(c, *v, w),
            Expr::Bool(b, _) => Bv::constant(c, i64::from(*b), w),
            Expr::Unary(UnOp::Not, a, _) => {
                let av = self.eval_constraint(a);
                let nz = av.nonzero(&mut self.circuit);
                Bv::from_bool(&mut self.circuit, nz.not(), w)
            }
            Expr::Unary(UnOp::Neg, a, _) => {
                let av = self.eval_constraint(a);
                Bv::neg(&mut self.circuit, &av)
            }
            Expr::Binary(op, a, b, _) => {
                let x = self.eval_constraint(a);
                let y = self.eval_constraint(b);
                let c = &mut self.circuit;
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
                        panic!("division in hole constraints is not supported")
                    }
                }
            }
            other => panic!("unsupported constraint expression: {other:?}"),
        }
    }

    /// Adds a counterexample-trace observation (concurrent CEGIS).
    ///
    /// The projected order is evaluated from its common prefix with
    /// the previous trace's; the circuit and the clauses are those a
    /// fresh evaluation would build.
    pub fn add_trace(&mut self, cex: &CexTrace) -> Observation {
        let t0 = Instant::now();
        let nodes = self.circuit.len();
        let order = project(self.l, cex);
        let deadlock: BTreeSet<_> = cex.deadlock.iter().copied().collect();
        let deadlock_at = trace_end_position(&order, cex);
        let resumed = self
            .trace_eval
            .resume(&mut self.circuit, &order, &deadlock, deadlock_at);
        let fail = self.trace_eval.fail();
        self.circuit.assert_true(fail.not(), &mut self.solver);
        self.observed(t0, nodes, order.len(), resumed)
    }

    /// Adds a concrete-input observation (sequential CEGIS, §5):
    /// `values[i]` initializes the `i`-th `is_input` global slot.
    pub fn add_input(&mut self, values: &[i64]) -> Observation {
        let t0 = Instant::now();
        let nodes = self.circuit.len();
        let w = self.l.config.int_width as usize;
        let mut inputs = HashMap::new();
        let mut vi = 0;
        for (ix, g) in self.l.globals.iter().enumerate() {
            if g.is_input {
                let v = values.get(vi).copied().unwrap_or(0);
                inputs.insert(ix, Bv::constant(&mut self.circuit, v, w));
                vi += 1;
            }
        }
        let order = sequential_order(self.l);
        let ev = SymEval::new(&mut self.circuit, self.l, &self.hole_bvs, &inputs);
        let fail = ev.run(&mut self.circuit, &order, &BTreeSet::new(), order.len());
        self.circuit.assert_true(fail.not(), &mut self.solver);
        self.observed(t0, nodes, order.len(), 0)
    }

    /// Counts an observation that started at `t0` with `nodes` circuit
    /// nodes and evaluated `steps` steps, the first `resumed` of them
    /// shared with the previous trace.
    fn observed(&mut self, t0: Instant, nodes: usize, steps: usize, resumed: usize) -> Observation {
        let encode_time = t0.elapsed();
        self.stats.observations += 1;
        self.stats.nodes = self.circuit.len();
        self.stats.encode_time += encode_time;
        Observation {
            encode_time,
            projected_steps: steps,
            resumed_steps: resumed,
            new_nodes: self.stats.nodes - nodes,
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

/// Soundness probe: does the projection of `cex` reproduce its failure
/// under the candidate that generated it? CEGIS progress relies on
/// this — a trace that does not refute its own candidate would make
/// the loop propose that candidate forever. Used by tests and
/// debugging tools.
pub fn trace_reproduces(l: &Lowered, cex: &CexTrace, candidate: &Assignment) -> bool {
    let w = l.config.int_width as usize;
    let mut circuit = Circuit::new();
    let holes: Vec<Bv> = (0..l.holes.num_holes())
        .map(|h| Bv::constant(&mut circuit, candidate.value(h as HoleId) as i64, w))
        .collect();
    let order = crate::project::project(l, cex);
    let deadlock: BTreeSet<_> = cex.deadlock.iter().copied().collect();
    let deadlock_at = trace_end_position(&order, cex);
    let inputs = HashMap::new();
    let ev = SymEval::new(&mut circuit, l, &holes, &inputs);
    let fail = ev.run(&mut circuit, &order, &deadlock, deadlock_at);
    match fail.as_const() {
        Some(b) => b,
        None => circuit.eval(fail, &HashMap::new()),
    }
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
    let w = l.config.int_width as usize;
    let mut circuit = Circuit::new();
    let mut solver = Solver::new();
    solver.set_limits(deadline, cancel);
    let holes: Vec<Bv> = (0..l.holes.num_holes())
        .map(|h| Bv::constant(&mut circuit, candidate.value(h as HoleId) as i64, w))
        .collect();
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

    /// Feeds a sketch's counterexamples to two synthesizers: one
    /// resumes each trace's evaluation from the previous trace's, the
    /// other evaluates every projected order from a fresh evaluator
    /// on its own circuit. After every trace both must hold the same
    /// circuit, `fail` node, variables and clauses, and propose the
    /// same next candidate.
    #[test]
    fn resumed_evaluation_equals_fresh_evaluation() {
        // Two workers lock `a` and `b` twice; the holes choose lock
        // orders, or which locks are released before they are taken
        // again. Wrong candidates deadlock at varying points of
        // projected orders that share long prefixes.
        const SKETCH: &str = "struct Lock { int owner = -1; }
             Lock a; Lock b; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { l.owner = -1; }
             harness void main() {
                 a = new Lock(); b = new Lock();
                 fork (i; 2) { BODY }
                 assert g == 4;
             }";
        let bodies = [
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
        // A first trace; a deadlock re-checked inside the prefix the
        // trace shares with the previous one; one re-checked at or
        // after a non-empty shared prefix.
        let mut cases = [false; 3];
        for body in bodies {
            let l = lowered(&SKETCH.replace("BODY", body));
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
                fresh.trace_eval =
                    SymEval::new(&mut fresh.circuit, &l, &fresh.hole_bvs, &HashMap::new());
                assert_eq!(fresh.add_trace(cex).resumed_steps, 0);
                assert_eq!(resumed.circuit.len(), fresh.circuit.len(), "{body}");
                assert_eq!(resumed.trace_eval.fail(), fresh.trace_eval.fail(), "{body}");
                assert_eq!(resumed.solver.num_vars(), fresh.solver.num_vars(), "{body}");
                let clauses = |s: &Synthesizer| s.solver.stats().clauses;
                assert_eq!(clauses(&resumed), clauses(&fresh), "{body}");
                assert!(!cex.deadlock.is_empty(), "every trace deadlocks");
                let deadlock_at = trace_end_position(&project(&l, cex), cex);
                cases[0] |= k == 0;
                cases[1] |= deadlock_at < k;
                cases[2] |= k > 0 && deadlock_at >= k;
            }
        }
        assert_eq!(cases, [true; 3], "first, inside, after the prefix");
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
