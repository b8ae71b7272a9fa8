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
//!
//! Successive projections of one sketch share long prefixes. The
//! evaluator journals each position of the order it evaluated, so
//! `SymEval::resume` evaluates a new order only from where it leaves
//! the old one: the state is rolled back to the common prefix and
//! `fail` is rebuilt from the logged disjuncts. Hash-consing makes the
//! result the circuit a fresh evaluation builds, node for node.
//!
//! A field read builds a mux chain over its struct's whole pool, and a
//! projection reads the same fields through the same references again
//! and again. Each pool keeps the value of every field read since any
//! of its slots last changed. The circuit only grows and is
//! hash-consed, so the chain a repeated read would rebuild is exactly
//! the cached value, and taking it adds no node.

use crate::bv::Bv;
use crate::circuit::{Circuit, NodeRef};
use psketch_ir::hash::BuildWordHasher;
use psketch_ir::{Lowered, Lv, Op, Rv, ThreadId};
use psketch_lang::ast::{BinOp, UnOp};
use std::collections::{BTreeSet, HashMap};

/// The journal's record of one position of the evaluated order: the
/// journal lengths and `running` just before the step at it ran.
#[derive(Clone, Copy)]
struct Mark {
    writes: usize,
    disjuncts: usize,
    running: NodeRef,
}

/// The field reads of one struct pool since any of its slots last
/// changed: `(field, reference)` to the value read. Keys are circuit
/// node refs, so they hash with [`BuildWordHasher`].
type FieldReads<const N: usize> = HashMap<(usize, Bv<N>), Bv<N>, BuildWordHasher>;

/// Symbolic execution of projected traces.
pub struct SymEval<'a, const N: usize> {
    l: &'a Lowered,
    w: usize,
    /// Hole values, one W-wide bitvector per hole.
    holes: Vec<Bv<N>>,
    /// The whole state: the globals, then each struct's pool (object
    /// by object, field by field), then each struct's allocation
    /// count, then each thread's locals.
    slots: Vec<Bv<N>>,
    /// First slot of each struct's pool.
    heap_base: Vec<usize>,
    /// Slot of struct 0's allocation count.
    alloc_base: usize,
    /// First slot of each thread's locals.
    local_base: Vec<usize>,
    running: NodeRef,
    fail: NodeRef,
    /// The order evaluated so far.
    order: Vec<(ThreadId, usize)>,
    /// One mark per position of `order`, plus one for its end.
    marks: Vec<Mark>,
    /// Each write that changed a slot, with the slot's old value.
    writes: Vec<(usize, Bv<N>)>,
    /// Each non-false failure disjunct a step ORed into `fail`.
    disjuncts: Vec<NodeRef>,
    /// Field values of the object an `Alloc` step creates (kept to
    /// reuse its buffer).
    fields: Vec<Bv<N>>,
    /// Each struct pool's field reads while the pool is unchanged.
    field_cache: Vec<FieldReads<N>>,
    /// Field reads so far, and those the cache answered.
    field_reads: usize,
    field_read_hits: usize,
}

impl<'a, const N: usize> SymEval<'a, N> {
    /// Creates an evaluator with the given hole encodings.
    ///
    /// `inputs` overrides the initial value of `is_input` global slots
    /// (missing entries default to their declared constant initializer)
    /// — used by sequential equivalence checking where inputs are
    /// either concrete observations or fresh symbolic bits.
    pub fn new(
        c: &mut Circuit,
        l: &'a Lowered,
        holes: &[Bv<N>],
        inputs: &HashMap<usize, Bv<N>>,
    ) -> SymEval<'a, N> {
        let w = l.config.int_width as usize;
        let zero = Bv::constant(c, 0, w);
        let mut slots: Vec<Bv<N>> = l
            .globals
            .iter()
            .enumerate()
            .map(|(ix, g)| match inputs.get(&ix) {
                Some(bv) => *bv,
                None => Bv::constant(c, g.init, w),
            })
            .collect();
        let mut heap_base = Vec::with_capacity(l.structs.len());
        for s in &l.structs {
            heap_base.push(slots.len());
            slots.resize(slots.len() + s.fields.len() * s.capacity, zero);
        }
        let alloc_base = slots.len();
        slots.resize(alloc_base + l.structs.len(), zero);
        let mut local_base = Vec::with_capacity(l.num_threads());
        for t in 0..l.num_threads() {
            local_base.push(slots.len());
            slots.resize(slots.len() + l.thread(t).locals.len(), zero);
        }
        SymEval {
            l,
            w,
            holes: holes.to_vec(),
            slots,
            heap_base,
            alloc_base,
            local_base,
            running: NodeRef::TRUE,
            fail: NodeRef::FALSE,
            order: Vec::new(),
            marks: vec![Mark {
                writes: 0,
                disjuncts: 0,
                running: NodeRef::TRUE,
            }],
            writes: Vec::new(),
            disjuncts: Vec::new(),
            fields: Vec::new(),
            field_cache: vec![FieldReads::default(); l.structs.len()],
            field_reads: 0,
            field_read_hits: 0,
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
    ///
    /// This is the evaluation `Synthesizer::add_trace` resumes, started
    /// from the empty prefix.
    pub fn run(
        mut self,
        c: &mut Circuit,
        order: &[(ThreadId, usize)],
        deadlock: &BTreeSet<(ThreadId, usize)>,
        deadlock_at: usize,
    ) -> NodeRef {
        self.resume(c, order, deadlock, deadlock_at);
        self.fail
    }

    /// As [`SymEval::run`], but keeps the evaluator for the next order
    /// and evaluates only the steps past the longest common prefix
    /// with the previous one. Returns the length of that prefix; the
    /// new `fail` node is [`SymEval::fail`].
    ///
    /// The state after a prefix does not depend on where a deadlock is
    /// re-checked, since the check only ORs into `fail`. So the state
    /// is rolled back to the prefix, and `fail` is rebuilt by ORing
    /// the logged disjuncts in order, with this order's deadlock check
    /// evaluated where it falls. Every step inside the prefix would
    /// re-derive nodes that already exist, so the circuit gains
    /// exactly the nodes a fresh evaluation adds, in the same order.
    pub(crate) fn resume(
        &mut self,
        c: &mut Circuit,
        order: &[(ThreadId, usize)],
        deadlock: &BTreeSet<(ThreadId, usize)>,
        deadlock_at: usize,
    ) -> usize {
        let k = self
            .order
            .iter()
            .zip(order)
            .take_while(|(a, b)| a == b)
            .count();
        let at_k = self.marks[k];
        self.undo_writes(at_k.writes, self.writes.len());
        self.writes.truncate(at_k.writes);
        self.disjuncts.truncate(at_k.disjuncts);
        self.marks.truncate(k + 1);
        self.order.truncate(k);

        self.fail = NodeRef::FALSE;
        if deadlock_at < k {
            let at_d = self.marks[deadlock_at];
            self.replay_disjuncts(c, 0, at_d.disjuncts);
            self.undo_writes(at_d.writes, at_k.writes);
            self.running = at_d.running;
            self.check_deadlock(c, deadlock);
            self.redo_writes(at_d.writes, at_k.writes);
            self.replay_disjuncts(c, at_d.disjuncts, at_k.disjuncts);
        } else {
            self.replay_disjuncts(c, 0, at_k.disjuncts);
        }
        self.running = at_k.running;

        for (pos, &(tid, ix)) in order.iter().enumerate().skip(k) {
            if pos == deadlock_at {
                self.check_deadlock(c, deadlock);
            }
            self.step(c, tid, ix);
            self.order.push((tid, ix));
            self.marks.push(Mark {
                writes: self.writes.len(),
                disjuncts: self.disjuncts.len(),
                running: self.running,
            });
        }
        if deadlock_at >= order.len() {
            self.check_deadlock(c, deadlock);
        }
        k
    }

    /// The `fail` node of the last order evaluated.
    pub(crate) fn fail(&self) -> NodeRef {
        self.fail
    }

    /// Field reads so far, and how many of them the cache answered.
    pub(crate) fn field_reads(&self) -> (usize, usize) {
        (self.field_reads, self.field_read_hits)
    }

    /// Heap bytes in use, every array by its length: the hole values,
    /// the slots and their bases, the journal (order, marks, writes
    /// and disjuncts), the `Alloc` buffer, and each pool's cached
    /// field reads, by their entries.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let reads: usize = self.field_cache.iter().map(HashMap::len).sum();
        size_of_val(&self.holes[..])
            + size_of_val(&self.slots[..])
            + size_of_val(&self.heap_base[..])
            + size_of_val(&self.local_base[..])
            + size_of_val(&self.order[..])
            + size_of_val(&self.marks[..])
            + size_of_val(&self.writes[..])
            + size_of_val(&self.disjuncts[..])
            + size_of_val(&self.fields[..])
            + size_of_val(&self.field_cache[..])
            + reads * size_of::<((usize, Bv<N>), Bv<N>)>()
    }

    /// Forgets every cached field read: the slots are about to be
    /// rolled back or forward.
    fn forget_field_reads(&mut self) {
        for reads in &mut self.field_cache {
            reads.clear();
        }
    }

    /// ORs the logged disjuncts `from..to` into `fail`, in order.
    fn replay_disjuncts(&mut self, c: &mut Circuit, from: usize, to: usize) {
        for &d in &self.disjuncts[from..to] {
            self.fail = c.or(self.fail, d);
        }
    }

    /// Takes back the journaled writes `from..to`, last first. Each
    /// entry keeps the value it displaces, so [`SymEval::redo_writes`]
    /// over the same range puts them back.
    fn undo_writes(&mut self, from: usize, to: usize) {
        self.forget_field_reads();
        for (slot, v) in self.writes[from..to].iter_mut().rev() {
            std::mem::swap(&mut self.slots[*slot], v);
        }
    }

    /// Reapplies the journaled writes `from..to` that
    /// [`SymEval::undo_writes`] took back, first first.
    fn redo_writes(&mut self, from: usize, to: usize) {
        self.forget_field_reads();
        for (slot, v) in &mut self.writes[from..to] {
            std::mem::swap(&mut self.slots[*slot], v);
        }
    }

    /// `fail |= running ∧ ⋀_{(t,i) ∈ D} blocked(t, i)` evaluated in
    /// the current (trace-end) state.
    fn check_deadlock(&mut self, c: &mut Circuit, deadlock: &BTreeSet<(ThreadId, usize)>) {
        if deadlock.is_empty() {
            return;
        }
        let logged = self.disjuncts.len();
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
        // The check belongs to this trace alone: keep it out of the
        // journal the next order replays.
        self.disjuncts.truncate(logged);
    }

    fn record_fail(&mut self, c: &mut Circuit, cond: NodeRef) {
        if cond != NodeRef::FALSE {
            self.disjuncts.push(cond);
            self.fail = c.or(self.fail, cond);
        }
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
                let s = &self.l.structs[*sid];
                let count = self.alloc_base + *sid;
                let cnt = self.slots[count];
                let cap = Bv::constant(c, s.capacity as i64, self.w);
                let full = Bv::eq(c, &cnt, &cap);
                let failing = c.and(eff, full);
                self.record_fail(c, failing);
                let one = Bv::constant(c, 1, self.w);
                let refv = Bv::add(c, &cnt, &one);
                // Initialize fields of the new object (defaults, then
                // positional overrides).
                let mut fields = std::mem::take(&mut self.fields);
                fields.clear();
                fields.extend(s.fields.iter().map(|(_, _, d)| Bv::constant(c, *d, self.w)));
                for (fid, rv) in inits {
                    fields[*fid] = self.eval_rv(c, tid, rv, eff);
                }
                let base = self.heap_base[*sid];
                for k in 0..s.capacity {
                    let kk = Bv::constant(c, k as i64, self.w);
                    let here = Bv::eq(c, &cnt, &kk);
                    let cond = c.and(eff, here);
                    for (fid, v) in fields.iter().enumerate() {
                        self.write_slot(c, base + k * fields.len() + fid, v, cond);
                    }
                }
                self.fields = fields;
                let bump = c.and(eff, full.not());
                self.write_slot(c, count, &refv, bump);
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

    fn eval_rv(&mut self, c: &mut Circuit, tid: ThreadId, rv: &Rv, demand: NodeRef) -> Bv<N> {
        match rv {
            Rv::Const(v) => Bv::constant(c, *v, self.w),
            Rv::Global(g) => self.slots[*g],
            Rv::Local(x) => self.slots[self.local_base[tid] + x],
            Rv::Hole(h) => self.holes[*h as usize],
            Rv::GlobalDyn { base, len, ix } => self.read_dyn(c, tid, *base, *len, ix, demand),
            Rv::LocalDyn { base, len, ix } => {
                let first = self.local_base[tid] + base;
                self.read_dyn(c, tid, first, *len, ix, demand)
            }
            Rv::Field { sid, fid, obj } => self.read_field(c, tid, *sid, *fid, obj, demand),
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
    ) -> Bv<N> {
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

    /// Reads cell `ix` of the `len` slots from `first`; out of range
    /// reads 0 (after recording the bounds failure).
    fn read_dyn(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        first: usize,
        len: usize,
        ix: &Rv,
        demand: NodeRef,
    ) -> Bv<N> {
        let i = self.eval_rv(c, tid, ix, demand);
        self.bounds_fail(c, &i, len, demand);
        let mut acc = Bv::constant(c, 0, self.w);
        for k in 0..len {
            let kk = Bv::constant(c, k as i64, self.w);
            let here = Bv::eq(c, &i, &kk);
            acc = Bv::mux(c, here, &self.slots[first + k], &acc);
        }
        acc
    }

    /// Reads field `fid` of object `obj`; null reads 0 (after
    /// recording the null failure). The reference and its failure are
    /// evaluated on every read; the mux chain over the pool only when
    /// the pool's cache does not already hold it.
    fn read_field(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        sid: usize,
        fid: usize,
        obj: &Rv,
        demand: NodeRef,
    ) -> Bv<N> {
        let o = self.eval_rv(c, tid, obj, demand);
        self.null_fail(c, &o, demand);
        self.field_reads += 1;
        if let Some(v) = self.field_cache[sid].get(&(fid, o)) {
            self.field_read_hits += 1;
            return *v;
        }
        let nf = self.l.structs[sid].fields.len();
        let base = self.heap_base[sid];
        let mut acc = Bv::constant(c, 0, self.w);
        for k in 0..self.l.structs[sid].capacity {
            let kk = Bv::constant(c, (k + 1) as i64, self.w);
            let here = Bv::eq(c, &o, &kk);
            acc = Bv::mux(c, here, &self.slots[base + k * nf + fid], &acc);
        }
        self.field_cache[sid].insert((fid, o), acc);
        acc
    }

    fn bounds_fail(&mut self, c: &mut Circuit, i: &Bv<N>, len: usize, demand: NodeRef) {
        let lenv = Bv::constant(c, len as i64, self.w);
        // Unsigned compare covers negative indices (they become large).
        let inb = Bv::ult(c, i, &lenv);
        let bad = c.and(demand, inb.not());
        self.record_fail(c, bad);
    }

    fn null_fail(&mut self, c: &mut Circuit, obj: &Bv<N>, demand: NodeRef) {
        let zero = Bv::constant(c, 0, self.w);
        let isnull = Bv::eq(c, obj, &zero);
        let bad = c.and(demand, isnull);
        self.record_fail(c, bad);
    }

    fn read_lv(&mut self, c: &mut Circuit, tid: ThreadId, lv: &Lv, demand: NodeRef) -> Bv<N> {
        match lv {
            Lv::Global(g) => self.slots[*g],
            Lv::Local(x) => self.slots[self.local_base[tid] + x],
            Lv::GlobalDyn { base, len, ix } => self.read_dyn(c, tid, *base, *len, ix, demand),
            Lv::LocalDyn { base, len, ix } => {
                let first = self.local_base[tid] + base;
                self.read_dyn(c, tid, first, *len, ix, demand)
            }
            Lv::Field { sid, fid, obj } => self.read_field(c, tid, *sid, *fid, obj, demand),
        }
    }

    /// `slot = cond ? v : slot`, journaling the old value if it
    /// changed. A change to a pool's slot forgets the pool's field
    /// reads.
    fn write_slot(&mut self, c: &mut Circuit, slot: usize, v: &Bv<N>, cond: NodeRef) {
        let new = Bv::mux(c, cond, v, &self.slots[slot]);
        let old = std::mem::replace(&mut self.slots[slot], new);
        if old != new {
            self.writes.push((slot, old));
            if let Some(sid) = self.pool_of(slot) {
                self.field_cache[sid].clear();
            }
        }
    }

    /// The struct whose pool holds `slot`, if any: pools lie between
    /// the globals and the allocation counts, in struct order.
    fn pool_of(&self, slot: usize) -> Option<usize> {
        if slot >= self.alloc_base {
            return None;
        }
        self.heap_base
            .partition_point(|&b| b <= slot)
            .checked_sub(1)
    }

    fn write(&mut self, c: &mut Circuit, tid: ThreadId, lv: &Lv, v: &Bv<N>, cond: NodeRef) {
        match lv {
            Lv::Global(g) => self.write_slot(c, *g, v, cond),
            Lv::Local(x) => self.write_slot(c, self.local_base[tid] + x, v, cond),
            Lv::GlobalDyn { base, len, ix } => self.write_dyn(c, tid, *base, *len, ix, v, cond),
            Lv::LocalDyn { base, len, ix } => {
                let first = self.local_base[tid] + base;
                self.write_dyn(c, tid, first, *len, ix, v, cond)
            }
            Lv::Field { sid, fid, obj } => {
                let o = self.eval_rv(c, tid, obj, cond);
                self.null_fail(c, &o, cond);
                let nf = self.l.structs[*sid].fields.len();
                let base = self.heap_base[*sid];
                for k in 0..self.l.structs[*sid].capacity {
                    let kk = Bv::constant(c, (k + 1) as i64, self.w);
                    let here = Bv::eq(c, &o, &kk);
                    let wc = c.and(cond, here);
                    self.write_slot(c, base + k * nf + fid, v, wc);
                }
            }
        }
    }

    /// Writes `v` to cell `ix` of the `len` slots from `first`.
    #[allow(clippy::too_many_arguments)]
    fn write_dyn(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        first: usize,
        len: usize,
        ix: &Rv,
        v: &Bv<N>,
        cond: NodeRef,
    ) {
        let i = self.eval_rv(c, tid, ix, cond);
        self.bounds_fail(c, &i, len, cond);
        for k in 0..len {
            let kk = Bv::constant(c, k as i64, self.w);
            let here = Bv::eq(c, &i, &kk);
            let wc = c.and(cond, here);
            self.write_slot(c, first + k, v, wc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::NARROW;
    use psketch_ir::{desugar::desugar_program, lower, Config};

    type Eval<'a> = SymEval<'a, NARROW>;

    /// One `Node` pool: the prologue allocates object 1 into `a`, sets
    /// its `val` to 7, allocates object 2 into `b`, then enters an
    /// atomic section on `a.val == 7`.
    const SKETCH: &str = "struct Node { int val = 3; int next = 0; }
         Node a; Node b; int g;
         harness void main() {
             a = new Node(); a.val = 7; b = new Node();
             atomic (a.val == 7) { g = ??(2); }
         }";

    fn lowered() -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(SKETCH).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower::lower_program(&sk, holes, &cfg).unwrap()
    }

    /// Field `fid` of `Node` object `obj`, read where it is demanded.
    fn read(ev: &mut Eval, c: &mut Circuit, fid: usize, obj: &Rv) -> Bv<NARROW> {
        ev.read_field(c, 0, 0, fid, obj, NodeRef::TRUE)
    }

    /// `val` of `obj` under a constant candidate.
    fn val(ev: &mut Eval, c: &mut Circuit, obj: &Rv) -> i64 {
        read(ev, c, 0, obj).as_const().expect("concrete")
    }

    /// The first prologue step from `from` on whose op `is` accepts.
    fn step_of(l: &Lowered, from: usize, is: impl Fn(&Op) -> bool) -> usize {
        from + l.prologue.steps[from..]
            .iter()
            .position(|s| is(&s.op))
            .unwrap()
    }

    #[test]
    fn a_repeated_field_read_adds_no_node() {
        let l = lowered();
        let mut c = Circuit::new();
        // The hole is the reference: every object, or null.
        let holes = [Bv::input(&mut c, l.config.int_width as usize)];
        let mut ev = SymEval::new(&mut c, &l, &holes, &HashMap::new());
        for ix in 0..l.prologue.steps.len() {
            ev.step(&mut c, 0, ix);
        }
        let obj = Rv::Hole(0);
        let (reads, hits) = ev.field_reads();
        let before = c.len();
        let first = read(&mut ev, &mut c, 0, &obj);
        let after = c.len();
        assert!(after > before, "a symbolic reference builds a mux chain");
        assert_eq!(read(&mut ev, &mut c, 0, &obj), first);
        assert_eq!(c.len(), after, "the second read adds no node");
        assert_eq!(ev.field_reads(), (reads + 2, hits + 1));
        // The value taken is the one the chain builds again, and
        // building it again adds no node either.
        ev.forget_field_reads();
        assert_eq!(read(&mut ev, &mut c, 0, &obj), first);
        assert_eq!(c.len(), after);
        // Another field through the same reference is its own read.
        assert_ne!(read(&mut ev, &mut c, 1, &obj), first);
        assert_eq!(ev.field_reads(), (reads + 4, hits + 1));
    }

    #[test]
    fn field_writes_and_allocations_forget_the_pools_reads() {
        let l = lowered();
        let mut c = Circuit::new();
        let holes = [Bv::constant(&mut c, 0, l.config.int_width as usize)];
        let mut ev = SymEval::new(&mut c, &l, &holes, &HashMap::new());
        let assign = step_of(&l, 0, |op| matches!(op, Op::Assign(Lv::Field { .. }, _)));
        let second_alloc = step_of(&l, assign, |op| matches!(op, Op::Alloc { .. }));
        let a = Rv::Global(0);
        let second = Rv::Const(2);

        (0..assign).for_each(|ix| ev.step(&mut c, 0, ix));
        assert_eq!(val(&mut ev, &mut c, &a), 3);
        assert_eq!(val(&mut ev, &mut c, &a), 3);
        assert_eq!(ev.field_reads(), (2, 1));

        // `a.val = 7` between two reads of `a.val`.
        ev.step(&mut c, 0, assign);
        assert_eq!(val(&mut ev, &mut c, &a), 7);

        // Allocating object 2 between two reads of its `val`.
        assert_eq!(val(&mut ev, &mut c, &second), 0, "not allocated yet");
        (assign + 1..=second_alloc).for_each(|ix| ev.step(&mut c, 0, ix));
        assert_eq!(val(&mut ev, &mut c, &second), 3);
        assert_eq!(ev.field_reads(), (5, 1));
    }

    #[test]
    fn rollbacks_forget_the_reads_they_roll_past() {
        let l = lowered();
        let mut c = Circuit::new();
        let holes = [Bv::constant(&mut c, 0, l.config.int_width as usize)];
        let mut ev = SymEval::new(&mut c, &l, &holes, &HashMap::new());
        let assign = step_of(&l, 0, |op| matches!(op, Op::Assign(Lv::Field { .. }, _)));
        let atomic = step_of(&l, assign, |op| matches!(op, Op::AtomicBegin(Some(_))));
        let order: Vec<_> = (0..l.prologue.steps.len()).map(|ix| (0, ix)).collect();
        let none = BTreeSet::new();
        let a = Rv::Global(0);
        ev.resume(&mut c, &order, &none, order.len());
        assert_eq!(val(&mut ev, &mut c, &a), 7);
        // Re-checking a deadlock on the atomic before `a.val = 7`
        // rolls the state back there and forward again: the check
        // reads 3, so the atomic is blocked, and then `a.val` is 7.
        let deadlock = BTreeSet::from([(0, atomic)]);
        assert_eq!(ev.resume(&mut c, &order, &deadlock, assign), order.len());
        assert_eq!(ev.fail(), NodeRef::TRUE);
        assert_eq!(val(&mut ev, &mut c, &a), 7);
        // An order that stops before `a.val = 7` rolls back past it.
        assert_eq!(ev.resume(&mut c, &order[..assign], &none, assign), assign);
        assert_eq!(val(&mut ev, &mut c, &a), 3);
    }
}
