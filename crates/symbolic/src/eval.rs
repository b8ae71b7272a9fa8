//! Symbolic evaluation of a projected trace over the candidate space.
//!
//! Given a merged step order (see [`crate::project()`]), this evaluator
//! executes the whole sequence with holes symbolic, producing a single
//! `fail` node: `fail(Sk_t[c])` as a boolean function of the hole bits
//! (paper §6). Conditional atomics follow the paper's expansion —
//! blocked-in-deadlock-set ⇒ fail; blocked elsewhere ⇒ the execution
//! "returns OK" (a `running` flag clears, vacuously satisfying the
//! rest of the trace).
//!
//! Memory-safety failures are *demand-conditioned*: a null dereference
//! inside an undemanded `&&`/`||`/mux arm does not fire, mirroring the
//! concrete evaluator's laziness.

use crate::bv::Bv;
use crate::circuit::{Circuit, NodeRef};
use psketch_ir::{Lowered, Lv, Op, Rv, ThreadId};
use psketch_lang::ast::{BinOp, UnOp};
use std::collections::{BTreeSet, HashMap};

/// Symbolic execution of one projected trace.
pub struct SymEval<'a> {
    l: &'a Lowered,
    w: usize,
    /// Hole values, one W-wide bitvector per hole.
    holes: &'a [Bv],
    globals: Vec<Bv>,
    heap: Vec<Vec<Bv>>,
    allocs: Vec<Bv>,
    locals: Vec<Vec<Bv>>,
    running: NodeRef,
    fail: NodeRef,
}

impl<'a> SymEval<'a> {
    /// Creates an evaluator with the given hole encodings.
    ///
    /// `inputs` overrides the initial value of `is_input` global slots
    /// (missing entries default to their declared constant initializer)
    /// — used by sequential equivalence checking where inputs are
    /// either concrete observations or fresh symbolic bits.
    pub fn new(
        c: &mut Circuit,
        l: &'a Lowered,
        holes: &'a [Bv],
        inputs: &HashMap<usize, Bv>,
    ) -> SymEval<'a> {
        let w = l.config.int_width as usize;
        let globals = l
            .globals
            .iter()
            .enumerate()
            .map(|(ix, g)| match inputs.get(&ix) {
                Some(bv) => bv.clone(),
                None => Bv::constant(c, g.init, w),
            })
            .collect();
        let heap = l
            .structs
            .iter()
            .map(|s| {
                let zero = Bv::constant(c, 0, w);
                vec![zero; s.fields.len() * s.capacity]
            })
            .collect();
        let allocs = l.structs.iter().map(|_| Bv::constant(c, 0, w)).collect();
        let locals = (0..l.num_threads())
            .map(|t| {
                let zero = Bv::constant(c, 0, w);
                vec![zero; l.thread(t).locals.len()]
            })
            .collect();
        SymEval {
            l,
            w,
            holes,
            globals,
            heap,
            allocs,
            locals,
            running: NodeRef::TRUE,
            fail: NodeRef::FALSE,
        }
    }

    /// Executes the merged order, returning the `fail` node.
    ///
    /// `deadlock` is the trace's deadlock set `D`; `deadlock_at` is the
    /// merged-order position of the end of the traced prefix, where the
    /// deadlock is re-checked: the projection fails a candidate for
    /// deadlock only when *every* step of `D` is blocked simultaneously
    /// in the replayed end state (a candidate that takes a different
    /// path through, or finds a condition true, is not refuted). `D`
    /// is an ordered set so the conjunction, and with it the encoded
    /// clauses and the SAT search, are the same on every run.
    pub fn run(
        self,
        c: &mut Circuit,
        order: &[(ThreadId, usize)],
        deadlock: &BTreeSet<(ThreadId, usize)>,
        deadlock_at: usize,
    ) -> NodeRef {
        self.run_with_probe(c, order, deadlock, deadlock_at, |_, _, _, _| {})
    }

    /// As [`SymEval::run`], invoking `probe(circuit, fail, running,
    /// position)` after every step — used by debugging tools and tests
    /// to locate the step that first sets `fail` or clears `running`.
    pub fn run_with_probe(
        mut self,
        c: &mut Circuit,
        order: &[(ThreadId, usize)],
        deadlock: &BTreeSet<(ThreadId, usize)>,
        deadlock_at: usize,
        mut probe: impl FnMut(&mut Circuit, NodeRef, NodeRef, usize),
    ) -> NodeRef {
        for (pos, &(tid, ix)) in order.iter().enumerate() {
            if pos == deadlock_at {
                self.check_deadlock(c, deadlock);
            }
            self.step(c, tid, ix);
            probe(c, self.fail, self.running, pos);
        }
        if deadlock_at >= order.len() {
            self.check_deadlock(c, deadlock);
        }
        self.fail
    }

    /// `fail |= running ∧ ⋀_{(t,i) ∈ D} blocked(t, i)` evaluated in
    /// the current (trace-end) state.
    fn check_deadlock(&mut self, c: &mut Circuit, deadlock: &BTreeSet<(ThreadId, usize)>) {
        if deadlock.is_empty() {
            return;
        }
        let mut all_blocked = NodeRef::TRUE;
        for &(tid, ix) in deadlock {
            let step = &self.l.thread(tid).steps[ix];
            let g = self.eval_bool(c, tid, &step.guard, self.running);
            let blocked = match &step.op {
                Op::AtomicBegin(Some(cond)) => {
                    // The condition is only demanded when the step's
                    // guard holds — a candidate that never reaches
                    // this atomic must not pick up its memory
                    // failures.
                    let demand = c.and(self.running, g);
                    let v = self.eval_bool(c, tid, cond, demand);
                    c.and(g, v.not())
                }
                // A non-conditional step cannot block; the deadlock
                // cannot reproduce through it.
                _ => NodeRef::FALSE,
            };
            all_blocked = c.and(all_blocked, blocked);
        }
        let failing = c.and(self.running, all_blocked);
        self.record_fail(c, failing);
    }

    /// The final value of a global slot (after `run` semantics would
    /// be wrong — use only for inspection in tests before `run`
    /// consumes self).
    pub fn global(&self, ix: usize) -> &Bv {
        &self.globals[ix]
    }

    fn record_fail(&mut self, c: &mut Circuit, cond: NodeRef) {
        self.fail = c.or(self.fail, cond);
    }

    fn step(&mut self, c: &mut Circuit, tid: ThreadId, ix: usize) {
        let step = &self.l.thread(tid).steps[ix];
        let g = self.eval_bool(c, tid, &step.guard, self.running);
        let eff = c.and(self.running, g);
        match &step.op {
            Op::Assign(lv, rv) => {
                let v = self.eval_rv(c, tid, rv, eff);
                self.write(c, tid, lv, &v, eff);
            }
            Op::Swap { dst, loc, val } => {
                let v = self.eval_rv(c, tid, val, eff);
                let old = self.read_lv(c, tid, loc, eff);
                self.write(c, tid, loc, &v, eff);
                self.write(c, tid, dst, &old, eff);
            }
            Op::Cas { dst, loc, old, new } => {
                let ov = self.eval_rv(c, tid, old, eff);
                let nv = self.eval_rv(c, tid, new, eff);
                let cur = self.read_lv(c, tid, loc, eff);
                let ok = Bv::eq(c, &cur, &ov);
                let w_eff = c.and(eff, ok);
                self.write(c, tid, loc, &nv, w_eff);
                let okv = Bv::from_bool(c, ok, self.w);
                self.write(c, tid, dst, &okv, eff);
            }
            Op::FetchAdd { dst, loc, delta } => {
                let old = self.read_lv(c, tid, loc, eff);
                let d = Bv::constant(c, *delta, self.w);
                let updated = Bv::add(c, &old, &d);
                self.write(c, tid, loc, &updated, eff);
                self.write(c, tid, dst, &old, eff);
            }
            Op::Alloc { dst, sid, inits } => {
                let cnt = self.allocs[*sid].clone();
                let cap = Bv::constant(c, self.l.structs[*sid].capacity as i64, self.w);
                let full = Bv::eq(c, &cnt, &cap);
                let failing = c.and(eff, full);
                self.record_fail(c, failing);
                let one = Bv::constant(c, 1, self.w);
                let refv = Bv::add(c, &cnt, &one);
                // Initialize fields of the new object (defaults, then
                // positional overrides).
                let nf = self.l.structs[*sid].fields.len();
                let cap_n = self.l.structs[*sid].capacity;
                let defaults: Vec<Bv> = self.l.structs[*sid]
                    .fields
                    .iter()
                    .map(|(_, _, d)| Bv::constant(c, *d, self.w))
                    .collect();
                let mut values = defaults;
                for (fid, rv) in inits {
                    values[*fid] = self.eval_rv(c, tid, rv, eff);
                }
                for k in 0..cap_n {
                    let kk = Bv::constant(c, k as i64, self.w);
                    let here = Bv::eq(c, &cnt, &kk);
                    let cond = c.and(eff, here);
                    for (fid, v) in values.iter().enumerate() {
                        let old = self.heap[*sid][k * nf + fid].clone();
                        self.heap[*sid][k * nf + fid] = Bv::mux(c, cond, v, &old);
                    }
                }
                let not_full = full.not();
                let bump = c.and(eff, not_full);
                self.allocs[*sid] = Bv::mux(c, bump, &refv, &cnt);
                self.write(c, tid, dst, &refv, eff);
            }
            Op::Assert(cond) => {
                let v = self.eval_bool(c, tid, cond, eff);
                let bad = c.and(eff, v.not());
                self.record_fail(c, bad);
            }
            Op::AtomicBegin(Some(cond)) => {
                // §6's expansion: blocked here (outside the deadlock
                // re-check) means "some other thread can make
                // progress; return OK" — the rest of the trace is
                // vacuous.
                let v = self.eval_bool(c, tid, cond, eff);
                let blocked = c.and(eff, v.not());
                self.running = c.and(self.running, blocked.not());
            }
            Op::AtomicBegin(None) | Op::AtomicEnd => {}
        }
    }

    /// Evaluates an r-value to a boolean node (non-zero test).
    fn eval_bool(&mut self, c: &mut Circuit, tid: ThreadId, rv: &Rv, demand: NodeRef) -> NodeRef {
        let v = self.eval_rv(c, tid, rv, demand);
        v.nonzero(c)
    }

    fn eval_rv(&mut self, c: &mut Circuit, tid: ThreadId, rv: &Rv, demand: NodeRef) -> Bv {
        match rv {
            Rv::Const(v) => Bv::constant(c, *v, self.w),
            Rv::Global(g) => self.globals[*g].clone(),
            Rv::Local(x) => self.locals[tid][*x].clone(),
            Rv::Hole(h) => self.holes[*h as usize].clone(),
            Rv::GlobalDyn { base, len, ix } => {
                let i = self.eval_rv(c, tid, ix, demand);
                self.bounds_fail(c, &i, *len, demand);
                let cells: Vec<Bv> = (0..*len).map(|k| self.globals[base + k].clone()).collect();
                self.select(c, &i, &cells)
            }
            Rv::LocalDyn { base, len, ix } => {
                let i = self.eval_rv(c, tid, ix, demand);
                self.bounds_fail(c, &i, *len, demand);
                let cells: Vec<Bv> = (0..*len)
                    .map(|k| self.locals[tid][base + k].clone())
                    .collect();
                self.select(c, &i, &cells)
            }
            Rv::Field { sid, fid, obj } => {
                let o = self.eval_rv(c, tid, obj, demand);
                self.null_fail(c, &o, demand);
                let nf = self.l.structs[*sid].fields.len();
                let cap = self.l.structs[*sid].capacity;
                let mut acc = Bv::constant(c, 0, self.w);
                for k in 0..cap {
                    let kk = Bv::constant(c, (k + 1) as i64, self.w);
                    let here = Bv::eq(c, &o, &kk);
                    let cell = self.heap[*sid][k * nf + *fid].clone();
                    acc = Bv::mux(c, here, &cell, &acc);
                }
                acc
            }
            Rv::Unary(op, a) => match op {
                UnOp::Not => {
                    let v = self.eval_bool(c, tid, a, demand);
                    Bv::from_bool(c, v.not(), self.w)
                }
                UnOp::Neg => {
                    let v = self.eval_rv(c, tid, a, demand);
                    Bv::neg(c, &v)
                }
                UnOp::BitsToInt => self.eval_rv(c, tid, a, demand),
            },
            Rv::Binary(op, a, b) => self.eval_binary(c, tid, *op, a, b, demand),
            Rv::Ite(cond, t, e) => {
                let cv = self.eval_bool(c, tid, cond, demand);
                let dt = c.and(demand, cv);
                let tv = self.eval_rv(c, tid, t, dt);
                let de = c.and(demand, cv.not());
                let ev = self.eval_rv(c, tid, e, de);
                Bv::mux(c, cv, &tv, &ev)
            }
        }
    }

    fn eval_binary(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        op: BinOp,
        a: &Rv,
        b: &Rv,
        demand: NodeRef,
    ) -> Bv {
        match op {
            BinOp::And => {
                let av = self.eval_bool(c, tid, a, demand);
                let d2 = c.and(demand, av);
                let bv = self.eval_bool(c, tid, b, d2);
                let r = c.and(av, bv);
                Bv::from_bool(c, r, self.w)
            }
            BinOp::Or => {
                let av = self.eval_bool(c, tid, a, demand);
                let d2 = c.and(demand, av.not());
                let bv = self.eval_bool(c, tid, b, d2);
                let r = c.or(av, bv);
                Bv::from_bool(c, r, self.w)
            }
            _ => {
                let x = self.eval_rv(c, tid, a, demand);
                let y = self.eval_rv(c, tid, b, demand);
                match op {
                    BinOp::Add => Bv::add(c, &x, &y),
                    BinOp::Sub => Bv::sub(c, &x, &y),
                    BinOp::Mul => Bv::mul(c, &x, &y),
                    BinOp::Div => {
                        let d = y.as_const().expect("lowering: constant divisor");
                        Bv::div_const(c, &x, d)
                    }
                    BinOp::Mod => {
                        let d = y.as_const().expect("lowering: constant divisor");
                        Bv::rem_const(c, &x, d)
                    }
                    BinOp::Eq => {
                        let r = Bv::eq(c, &x, &y);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Ne => {
                        let r = Bv::eq(c, &x, &y).not();
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Lt => {
                        let r = Bv::slt(c, &x, &y);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Le => {
                        let r = Bv::sle(c, &x, &y);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Gt => {
                        let r = Bv::slt(c, &y, &x);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Ge => {
                        let r = Bv::sle(c, &y, &x);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::And | BinOp::Or => unreachable!(),
                }
            }
        }
    }

    /// Mux-selects `cells[i]`; out-of-range selects 0 (a bounds
    /// failure was already recorded).
    fn select(&mut self, c: &mut Circuit, i: &Bv, cells: &[Bv]) -> Bv {
        let mut acc = Bv::constant(c, 0, self.w);
        for (k, cell) in cells.iter().enumerate() {
            let kk = Bv::constant(c, k as i64, self.w);
            let here = Bv::eq(c, i, &kk);
            acc = Bv::mux(c, here, cell, &acc);
        }
        acc
    }

    fn bounds_fail(&mut self, c: &mut Circuit, i: &Bv, len: usize, demand: NodeRef) {
        let lenv = Bv::constant(c, len as i64, self.w);
        // Unsigned compare covers negative indices (they become large).
        let inb = Bv::ult(c, i, &lenv);
        let bad = c.and(demand, inb.not());
        self.record_fail(c, bad);
    }

    fn null_fail(&mut self, c: &mut Circuit, obj: &Bv, demand: NodeRef) {
        let zero = Bv::constant(c, 0, self.w);
        let isnull = Bv::eq(c, obj, &zero);
        let bad = c.and(demand, isnull);
        self.record_fail(c, bad);
    }

    fn read_lv(&mut self, c: &mut Circuit, tid: ThreadId, lv: &Lv, demand: NodeRef) -> Bv {
        let rv = match lv {
            Lv::Global(g) => Rv::Global(*g),
            Lv::Local(x) => Rv::Local(*x),
            Lv::GlobalDyn { base, len, ix } => Rv::GlobalDyn {
                base: *base,
                len: *len,
                ix: Box::new(ix.clone()),
            },
            Lv::LocalDyn { base, len, ix } => Rv::LocalDyn {
                base: *base,
                len: *len,
                ix: Box::new(ix.clone()),
            },
            Lv::Field { sid, fid, obj } => Rv::Field {
                sid: *sid,
                fid: *fid,
                obj: Box::new(obj.clone()),
            },
        };
        self.eval_rv(c, tid, &rv, demand)
    }

    fn write(&mut self, c: &mut Circuit, tid: ThreadId, lv: &Lv, v: &Bv, cond: NodeRef) {
        match lv {
            Lv::Global(g) => {
                let old = self.globals[*g].clone();
                self.globals[*g] = Bv::mux(c, cond, v, &old);
            }
            Lv::Local(x) => {
                let old = self.locals[tid][*x].clone();
                self.locals[tid][*x] = Bv::mux(c, cond, v, &old);
            }
            Lv::GlobalDyn { base, len, ix } => {
                let i = self.eval_rv(c, tid, ix, cond);
                self.bounds_fail(c, &i, *len, cond);
                for k in 0..*len {
                    let kk = Bv::constant(c, k as i64, self.w);
                    let here = Bv::eq(c, &i, &kk);
                    let wc = c.and(cond, here);
                    let old = self.globals[base + k].clone();
                    self.globals[base + k] = Bv::mux(c, wc, v, &old);
                }
            }
            Lv::LocalDyn { base, len, ix } => {
                let i = self.eval_rv(c, tid, ix, cond);
                self.bounds_fail(c, &i, *len, cond);
                for k in 0..*len {
                    let kk = Bv::constant(c, k as i64, self.w);
                    let here = Bv::eq(c, &i, &kk);
                    let wc = c.and(cond, here);
                    let old = self.locals[tid][base + k].clone();
                    self.locals[tid][base + k] = Bv::mux(c, wc, v, &old);
                }
            }
            Lv::Field { sid, fid, obj } => {
                let o = self.eval_rv(c, tid, obj, cond);
                self.null_fail(c, &o, cond);
                let nf = self.l.structs[*sid].fields.len();
                let cap = self.l.structs[*sid].capacity;
                for k in 0..cap {
                    let kk = Bv::constant(c, (k + 1) as i64, self.w);
                    let here = Bv::eq(c, &o, &kk);
                    let wc = c.and(cond, here);
                    let old = self.heap[*sid][k * nf + *fid].clone();
                    self.heap[*sid][k * nf + *fid] = Bv::mux(c, wc, v, &old);
                }
            }
        }
    }
}
