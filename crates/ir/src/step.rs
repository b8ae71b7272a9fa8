//! The guarded-step intermediate representation.
//!
//! After lowering, every thread (plus the sequential prologue and
//! epilogue) is a straight-line sequence of [`Step`]s. A step executes
//! only when its `guard` — a pure expression over *thread-local* slots
//! and holes — evaluates to true; this is the "predicated atomic
//! statements" form the paper's trace projection (§6) relies on: any
//! candidate executes a subset of the sketch's statements, so a trace
//! of one candidate can be replayed against all of them.

use crate::config::Config;
use crate::hash::BuildWordHasher;
use crate::hole::{HoleId, HoleTable};
use psketch_lang::ast::{BinOp, UnOp};
use psketch_lang::error::Span;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Index of a struct layout.
pub type StructId = usize;
/// Index of a field within a struct layout.
pub type FieldId = usize;
/// Index of a global slot.
pub type GlobalId = usize;
/// Index of a thread-local slot.
pub type LocalId = usize;

/// Expression nodes already walked, by address: each is an allocation
/// of the lowerer's, so the set hashes them with [`BuildWordHasher`].
type NodeSet = HashSet<*const Rv, BuildWordHasher>;

/// Scalar value kinds stored in slots, fields and cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalarKind {
    /// Fixed-width signed integer.
    Int,
    /// Boolean (stored as 0/1).
    Bool,
    /// Nullable reference into the pool of the given struct
    /// (0 = null, `k` = object `k - 1`).
    Ref(StructId),
}

/// A global storage slot.
#[derive(Clone, Debug)]
pub struct GlobalSlot {
    /// Diagnostic name.
    pub name: String,
    /// Value kind.
    pub kind: ScalarKind,
    /// Initial value (constant).
    pub init: i64,
    /// True for synthetic input slots used by sequential
    /// (`implements`) equivalence checking: the verifier treats these
    /// as universally quantified.
    pub is_input: bool,
}

/// A thread-local storage slot.
#[derive(Clone, Debug)]
pub struct LocalSlot {
    /// Diagnostic name.
    pub name: String,
    /// Value kind.
    pub kind: ScalarKind,
}

/// Layout of a struct's heap pool.
#[derive(Clone, Debug)]
pub struct StructLayout {
    /// Struct name.
    pub name: String,
    /// Fields: name, kind, initial value for `new`.
    pub fields: Vec<(String, ScalarKind, i64)>,
    /// Pool capacity (allocation beyond this is a failure).
    pub capacity: usize,
}

/// Pure r-value expressions.
///
/// A lowered program's expressions form a DAG: the lowerer
/// hash-conses every node it builds, so each structurally distinct
/// subexpression is one shared allocation (DESIGN.md §4m). Consumers
/// read it as a tree; `Eq` lets `Arc<Rv>` equality compare pointers
/// first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Rv {
    /// Constant.
    Const(i64),
    /// Global slot read.
    Global(GlobalId),
    /// Local slot read.
    Local(LocalId),
    /// Hole value.
    Hole(HoleId),
    /// Dynamic global array read: cell `base + ix`, `ix < len`.
    GlobalDyn {
        /// First slot of the array region.
        base: GlobalId,
        /// Region length.
        len: usize,
        /// Index expression.
        ix: Arc<Rv>,
    },
    /// Dynamic local array read.
    LocalDyn {
        /// First slot of the array region.
        base: LocalId,
        /// Region length.
        len: usize,
        /// Index expression.
        ix: Arc<Rv>,
    },
    /// Heap field read; fails when `obj` is null.
    Field {
        /// Struct pool.
        sid: StructId,
        /// Field index.
        fid: FieldId,
        /// Object reference.
        obj: Arc<Rv>,
    },
    /// Unary operation (`Not`, `Neg`; `BitsToInt` is eliminated by
    /// lowering).
    Unary(UnOp, Arc<Rv>),
    /// Binary operation. `Div`/`Mod` only with constant right-hand
    /// sides. `And`/`Or` short-circuit: memory failures in the
    /// right operand are only demanded when reached.
    Binary(BinOp, Arc<Rv>, Arc<Rv>),
    /// If-then-else.
    Ite(Arc<Rv>, Arc<Rv>, Arc<Rv>),
}

impl Rv {
    /// The node's children, left to right.
    pub fn children(&self) -> impl Iterator<Item = &Arc<Rv>> {
        let (a, b, c) = match self {
            Rv::Const(_) | Rv::Global(_) | Rv::Local(_) | Rv::Hole(_) => (None, None, None),
            Rv::GlobalDyn { ix, .. } | Rv::LocalDyn { ix, .. } => (Some(ix), None, None),
            Rv::Field { obj, .. } => (Some(obj), None, None),
            Rv::Unary(_, a) => (Some(a), None, None),
            Rv::Binary(_, a, b) => (Some(a), Some(b), None),
            Rv::Ite(c, a, b) => (Some(c), Some(a), Some(b)),
        };
        [a, b, c].into_iter().flatten()
    }
}

/// L-values (store destinations).
#[derive(Clone, PartialEq, Debug)]
pub enum Lv {
    /// Global slot.
    Global(GlobalId),
    /// Local slot.
    Local(LocalId),
    /// Dynamic global array cell.
    GlobalDyn {
        /// First slot of the region.
        base: GlobalId,
        /// Region length.
        len: usize,
        /// Index expression.
        ix: Rv,
    },
    /// Dynamic local array cell.
    LocalDyn {
        /// First slot of the region.
        base: LocalId,
        /// Region length.
        len: usize,
        /// Index expression.
        ix: Rv,
    },
    /// Heap field; fails when `obj` is null.
    Field {
        /// Struct pool.
        sid: StructId,
        /// Field index.
        fid: FieldId,
        /// Object reference.
        obj: Rv,
    },
}

/// Step operations. `Swap`, `Cas` and `FetchAdd` model the hardware
/// atomics; each executes in one indivisible step.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// `dst = src`.
    Assign(Lv, Rv),
    /// `dst = *loc; *loc = val` atomically (the paper's `AtomicSwap`).
    Swap {
        /// Receives the old value.
        dst: Lv,
        /// The swapped location.
        loc: Lv,
        /// The new value.
        val: Rv,
    },
    /// `dst = (*loc == old); if dst { *loc = new }` atomically.
    Cas {
        /// Receives the success flag.
        dst: Lv,
        /// The compared/updated location.
        loc: Lv,
        /// Expected value.
        old: Rv,
        /// Replacement value.
        new: Rv,
    },
    /// `dst = *loc; *loc = *loc + delta` atomically
    /// (`AtomicReadAndIncr` / `AtomicReadAndDecr`).
    FetchAdd {
        /// Receives the old value.
        dst: Lv,
        /// The updated location.
        loc: Lv,
        /// +1 or -1.
        delta: i64,
    },
    /// Allocate from the struct pool, run field initializers, store the
    /// reference in `dst`. Fails when the pool is exhausted.
    Alloc {
        /// Receives the new reference.
        dst: Lv,
        /// Which pool.
        sid: StructId,
        /// Field overrides (beyond the per-field defaults).
        inits: Vec<(FieldId, Rv)>,
    },
    /// Fails the execution when the condition is false.
    Assert(Rv),
    /// Start of an atomic section; with `Some(cond)` the thread blocks
    /// until `cond` holds (conditional atomic, the paper's only
    /// synchronization primitive).
    AtomicBegin(Option<Rv>),
    /// End of an atomic section.
    AtomicEnd,
}

/// A guarded step.
#[derive(Clone, Debug)]
pub struct Step {
    /// Pure expression over locals and holes; the step is a no-op when
    /// false.
    pub guard: Rv,
    /// The operation.
    pub op: Op,
    /// Whether this step can interact with other threads (reads or
    /// writes shared state, allocates, or synchronizes). Non-shared
    /// steps commute with everything and are not scheduling points.
    pub shared: bool,
    /// Source location (diagnostics, trace display).
    pub span: Span,
}

impl Step {
    /// Calls `f` on each of the step's root expressions: its guard, its
    /// operands, and the index or object expression of every l-value
    /// it names.
    pub fn for_each_expr<'a>(&'a self, mut f: impl FnMut(&'a Rv)) {
        f(&self.guard);
        for lv in self.lvalues() {
            match lv {
                Lv::Global(_) | Lv::Local(_) => {}
                Lv::GlobalDyn { ix, .. } | Lv::LocalDyn { ix, .. } => f(ix),
                Lv::Field { obj, .. } => f(obj),
            }
        }
        match &self.op {
            Op::Assign(_, v) | Op::Swap { val: v, .. } | Op::Assert(v) => f(v),
            Op::AtomicBegin(c) => c.iter().for_each(f),
            Op::Cas { old, new, .. } => {
                f(old);
                f(new);
            }
            Op::Alloc { inits, .. } => inits.iter().for_each(|(_, v)| f(v)),
            Op::FetchAdd { .. } | Op::AtomicEnd => {}
        }
    }

    /// The l-values the step writes through: its destination, then the
    /// location an atomic updates.
    fn lvalues(&self) -> impl Iterator<Item = &Lv> {
        let (dst, loc) = match &self.op {
            Op::Assign(dst, _) | Op::Alloc { dst, .. } => (Some(dst), None),
            Op::Swap { dst, loc, .. }
            | Op::Cas { dst, loc, .. }
            | Op::FetchAdd { dst, loc, .. } => (Some(dst), Some(loc)),
            Op::Assert(_) | Op::AtomicBegin(_) | Op::AtomicEnd => (None, None),
        };
        dst.into_iter().chain(loc)
    }

    /// Calls `f` on every local the step reads: each `Local` in its
    /// expressions, and every slot of a local array region it indexes,
    /// for a read or a write (a dynamic index keeps the whole region
    /// live). Skips the shared expression nodes in `seen`, and adds
    /// each one it walks.
    fn for_each_local_read(&self, seen: &mut NodeSet, mut f: impl FnMut(LocalId)) {
        let mut stack: Vec<&Rv> = Vec::new();
        self.for_each_expr(|rv| stack.push(rv));
        for lv in self.lvalues() {
            if let Lv::LocalDyn { base, len, .. } = lv {
                (*base..base + len).for_each(&mut f);
            }
        }
        while let Some(rv) = stack.pop() {
            match rv {
                Rv::Local(x) => f(*x),
                Rv::LocalDyn { base, len, .. } => (*base..base + len).for_each(&mut f),
                _ => {}
            }
            stack.extend(
                rv.children()
                    .filter(|c| seen.insert(Arc::as_ptr(c)))
                    .map(|c| &**c),
            );
        }
    }

    /// Builds a step, computing the `shared` flag from the step's
    /// effect footprint (see [`crate::footprint::Footprint`]): a step
    /// is shared exactly when its footprint names a shared location or
    /// synchronizes.
    pub fn new(guard: Rv, op: Op, span: Span) -> Step {
        let shared = crate::footprint::Footprint::of_parts(&guard, &op).is_shared();
        Step {
            guard,
            op,
            shared,
            span,
        }
    }
}

/// Identifies a thread in the lowered program: `0` is the prologue,
/// `1..=n` are the forked workers, `n + 1` is the epilogue.
pub type ThreadId = usize;

/// One straight-line thread, with facts of its steps that every engine
/// reads at each pc, computed once by [`Thread::new`] (the only way to
/// build one): where each atomic section ends, which locals are still
/// live, and which locals a move between two pcs leaves dead.
#[derive(Clone, Debug)]
pub struct Thread {
    /// Diagnostic name ("prologue", "worker 0", …).
    pub name: String,
    /// The steps.
    pub steps: Vec<Step>,
    /// Local slot layout.
    pub locals: Vec<LocalSlot>,
    /// `section_end[pc]`: the last step of the transition fired from
    /// `pc` — the matching `AtomicEnd` of an `AtomicBegin`, `pc`
    /// itself for any other step.
    section_end: Vec<usize>,
    /// `live_until[i]`: one past the last step that reads local `i` (0
    /// when no step does). Local `i` is live at `pc` — a step at `pc`
    /// or later reads it — exactly when `pc < live_until[i]`, so this
    /// one number per local is the live-locals mask of every pc in
    /// `0..=steps.len()`: on a straight line, masks only grow toward
    /// pc 0.
    live_until: Vec<usize>,
    /// Every local, ordered by `live_until` (then by id).
    by_death: Vec<LocalId>,
    /// `death_off[pc]`: how many locals are dead at `pc` (indexed
    /// `0..=steps.len()`); they are `by_death[..death_off[pc]]`.
    death_off: Vec<usize>,
}

impl Thread {
    /// Builds a thread, computing its atomic-section ends, its locals'
    /// liveness and the order in which they die.
    ///
    /// # Panics
    ///
    /// When an `AtomicBegin` has no later `AtomicEnd` (lowering always
    /// emits one; atomic sections do not nest).
    pub fn new(name: String, steps: Vec<Step>, locals: Vec<LocalSlot>) -> Thread {
        let section_end = (0..steps.len())
            .map(|pc| match steps[pc].op {
                Op::AtomicBegin(_) => steps[pc + 1..]
                    .iter()
                    .position(|s| matches!(s.op, Op::AtomicEnd))
                    .map(|off| pc + 1 + off)
                    .expect("lowering emits matching AtomicEnd"),
                _ => pc,
            })
            .collect();
        // Backwards, a local's first read is its last, and every local
        // below a node seen at a later step is already set: each shared
        // expression node is walked once.
        let mut live_until = vec![0; locals.len()];
        let mut seen = NodeSet::default();
        for (pc, step) in steps.iter().enumerate().rev() {
            step.for_each_local_read(&mut seen, |x| {
                if live_until[x] == 0 {
                    live_until[x] = pc + 1;
                }
            });
        }
        let mut by_death: Vec<LocalId> = (0..locals.len()).collect();
        by_death.sort_by_key(|&x| live_until[x]);
        let mut dead = 0;
        let death_off = (0..=steps.len())
            .map(|pc| {
                while by_death.get(dead).is_some_and(|&x| live_until[x] <= pc) {
                    dead += 1;
                }
                dead
            })
            .collect();
        Thread {
            name,
            steps,
            locals,
            section_end,
            live_until,
            by_death,
            death_off,
        }
    }

    /// The `AtomicEnd` matching the `AtomicBegin` at `pc`; `None` when
    /// step `pc` begins no atomic section.
    pub fn atomic_end(&self, pc: usize) -> Option<usize> {
        let end = self.section_end[pc];
        (end != pc).then_some(end)
    }

    /// Does a step at `pc` or later (`pc <= steps.len()`) read local
    /// `local`?
    #[inline]
    pub fn is_live(&self, pc: usize, local: LocalId) -> bool {
        pc < self.live_until[local]
    }

    /// The locals live at `pc0` and dead at `pc1`
    /// (`pc0 <= pc1 <= steps.len()`), in the order they die: those a
    /// move from `pc0` to `pc1` drops from the live state.
    #[inline]
    pub fn dying(&self, pc0: usize, pc1: usize) -> &[LocalId] {
        &self.by_death[self.death_off[pc0]..self.death_off[pc1]]
    }

    /// `locals`, this thread's local values at `pc`, with every dead
    /// local read as 0: the form in which the engines compare states,
    /// so states that differ only in dead locals are one state.
    pub fn live_values<'a>(
        &'a self,
        pc: usize,
        locals: &'a [i64],
    ) -> impl Iterator<Item = i64> + 'a {
        debug_assert_eq!(locals.len(), self.locals.len());
        locals
            .iter()
            .enumerate()
            .map(move |(i, &v)| if self.is_live(pc, i) { v } else { 0 })
    }
}

/// A fully lowered program: the common input of the model checker
/// (`psketch-exec`) and the inductive synthesizer (`psketch-symbolic`).
#[derive(Clone, Debug)]
pub struct Lowered {
    /// Lowering bounds used.
    pub config: Config,
    /// Global slot layout.
    pub globals: Vec<GlobalSlot>,
    /// Struct pools.
    pub structs: Vec<StructLayout>,
    /// Sequential prologue.
    pub prologue: Thread,
    /// Forked worker threads.
    pub workers: Vec<Thread>,
    /// Sequential epilogue (correctness checks usually live here).
    pub epilogue: Thread,
    /// The hole table (with static validity constraints).
    pub holes: HoleTable,
}

impl Lowered {
    /// Total number of threads including prologue and epilogue.
    pub fn num_threads(&self) -> usize {
        self.workers.len() + 2
    }

    /// Thread by [`ThreadId`] (0 = prologue, n+1 = epilogue).
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        if tid == 0 {
            &self.prologue
        } else if tid <= self.workers.len() {
            &self.workers[tid - 1]
        } else {
            &self.epilogue
        }
    }

    /// The epilogue's thread id.
    pub fn epilogue_tid(&self) -> ThreadId {
        self.workers.len() + 1
    }

    /// Total step count across all threads.
    pub fn total_steps(&self) -> usize {
        self.prologue.steps.len()
            + self.workers.iter().map(|t| t.steps.len()).sum::<usize>()
            + self.epilogue.steps.len()
    }

    /// Expression allocations: the distinct nodes below the steps'
    /// root expressions, each counted once however many expressions
    /// share it.
    pub fn expr_nodes(&self) -> usize {
        let mut seen = NodeSet::default();
        let mut stack: Vec<&Rv> = Vec::new();
        for tid in 0..self.num_threads() {
            for step in &self.thread(tid).steps {
                step.for_each_expr(|rv| stack.push(rv));
                while let Some(rv) = stack.pop() {
                    for child in rv.children() {
                        if seen.insert(Arc::as_ptr(child)) {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        seen.len()
    }

    /// Heap bytes the program has in use: each expression allocation
    /// once (the node and its two reference counts), and each thread's
    /// steps, allocation initializers, atomic-section ends, locals'
    /// liveness and dying-locals index by length.
    pub fn heap_bytes(&self) -> usize {
        let node = std::mem::size_of::<Rv>() + 2 * std::mem::size_of::<usize>();
        let steps: usize = (0..self.num_threads())
            .flat_map(|tid| &self.thread(tid).steps)
            .map(|step| {
                let inits = match &step.op {
                    Op::Alloc { inits, .. } => inits.len(),
                    _ => 0,
                };
                std::mem::size_of::<Step>() + inits * std::mem::size_of::<(FieldId, Rv)>()
            })
            .sum();
        let facts: usize = (0..self.num_threads())
            .map(|tid| self.thread(tid))
            .map(|t| {
                let words =
                    t.section_end.len() + t.live_until.len() + t.by_death.len() + t.death_off.len();
                words * std::mem::size_of::<usize>()
            })
            .sum();
        self.expr_nodes() * node + steps + facts
    }
}

impl fmt::Display for Rv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rv::Const(v) => write!(f, "{v}"),
            Rv::Global(g) => write!(f, "g{g}"),
            Rv::Local(l) => write!(f, "l{l}"),
            Rv::Hole(h) => write!(f, "h{h}"),
            Rv::GlobalDyn { base, len, ix } => write!(f, "g[{base}+{ix}<{len}]"),
            Rv::LocalDyn { base, len, ix } => write!(f, "l[{base}+{ix}<{len}]"),
            Rv::Field { sid, fid, obj } => write!(f, "({obj}).s{sid}f{fid}"),
            Rv::Unary(op, a) => match op {
                UnOp::Not => write!(f, "!({a})"),
                UnOp::Neg => write!(f, "-({a})"),
                UnOp::BitsToInt => write!(f, "(int)({a})"),
            },
            Rv::Binary(op, a, b) => write!(f, "({a} {} {b})", op.spelling()),
            Rv::Ite(c, a, b) => write!(f, "({c} ? {a} : {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_classification() {
        let local_assign = Step::new(
            Rv::Const(1),
            Op::Assign(Lv::Local(0), Rv::Local(1)),
            Span::default(),
        );
        assert!(!local_assign.shared);
        let global_read = Step::new(
            Rv::Const(1),
            Op::Assign(Lv::Local(0), Rv::Global(0)),
            Span::default(),
        );
        assert!(global_read.shared);
        let field_write = Step::new(
            Rv::Const(1),
            Op::Assign(
                Lv::Field {
                    sid: 0,
                    fid: 0,
                    obj: Rv::Local(0),
                },
                Rv::Const(1),
            ),
            Span::default(),
        );
        assert!(field_write.shared);
        let local_assert = Step::new(Rv::Const(1), Op::Assert(Rv::Local(0)), Span::default());
        assert!(!local_assert.shared);
        let alloc = Step::new(
            Rv::Const(1),
            Op::Alloc {
                dst: Lv::Local(0),
                sid: 0,
                inits: vec![],
            },
            Span::default(),
        );
        assert!(alloc.shared);
    }

    /// Asserts that masks only grow toward pc 0 and that nothing is
    /// live once the thread has finished.
    fn assert_masks_shrink_to_empty(t: &Thread) {
        let n = t.steps.len();
        for x in 0..t.locals.len() {
            for pc in 0..n {
                assert!(!t.is_live(pc + 1, x) || t.is_live(pc, x), "l{x} at {pc}");
            }
            assert!(!t.is_live(n, x), "l{x} live past the end");
        }
    }

    /// Asserts that `dying(pc0, pc1)` holds exactly the locals live at
    /// `pc0` and dead at `pc1`, in the order they die.
    fn assert_dying_matches_liveness(t: &Thread, pc0: usize, pc1: usize) {
        let dying = t.dying(pc0, pc1);
        let mut got = dying.to_vec();
        got.sort_unstable();
        let want: Vec<LocalId> = (0..t.locals.len())
            .filter(|&x| t.is_live(pc0, x) && !t.is_live(pc1, x))
            .collect();
        assert_eq!(got, want, "dying({pc0}, {pc1})");
        assert!(
            dying
                .windows(2)
                .all(|p| t.live_until[p[0]] <= t.live_until[p[1]]),
            "dying({pc0}, {pc1}) out of order"
        );
    }

    #[test]
    fn thread_facts_pair_atomics_and_track_last_reads() {
        let rv = |x| Arc::new(Rv::Local(x));
        let step = |guard, op| Step::new(guard, op, Span::default());
        let one = || Rv::Const(1);
        let steps = vec![
            // 0: l0 read in a guard.
            step(
                Rv::Binary(BinOp::Eq, rv(0), Arc::new(one())),
                Op::Assign(Lv::Local(7), one()),
            ),
            step(one(), Op::AtomicBegin(None)),
            // 2: l1 read in an operand.
            step(one(), Op::Assign(Lv::Global(0), Rv::Local(1))),
            step(one(), Op::AtomicEnd),
            // 4: l2 read in an index expression.
            step(
                one(),
                Op::Assign(
                    Lv::GlobalDyn {
                        base: 1,
                        len: 2,
                        ix: Rv::Local(2),
                    },
                    one(),
                ),
            ),
            // 5: l3 read in an object expression.
            step(
                one(),
                Op::Assign(
                    Lv::Field {
                        sid: 0,
                        fid: 0,
                        obj: Rv::Local(3),
                    },
                    one(),
                ),
            ),
            // 6: l4 read in a blocking condition.
            step(one(), Op::AtomicBegin(Some(Rv::Local(4)))),
            // 7: the region l5..=l6 read through a dynamic index.
            step(
                one(),
                Op::Assign(
                    Lv::Local(7),
                    Rv::LocalDyn {
                        base: 5,
                        len: 2,
                        ix: Arc::new(one()),
                    },
                ),
            ),
            step(one(), Op::AtomicEnd),
            // 9: the same region written through a dynamic index; l7
            // is written but never read.
            step(
                one(),
                Op::Assign(
                    Lv::LocalDyn {
                        base: 5,
                        len: 2,
                        ix: Rv::Const(0),
                    },
                    one(),
                ),
            ),
        ];
        let locals = (0..8)
            .map(|x| LocalSlot {
                name: format!("l{x}"),
                kind: ScalarKind::Int,
            })
            .collect();
        let t = Thread::new("t".into(), steps, locals);
        let ends: Vec<_> = (0..t.steps.len()).map(|pc| t.atomic_end(pc)).collect();
        let mut want = vec![None; 10];
        want[1] = Some(3);
        want[6] = Some(8);
        assert_eq!(ends, want);
        // Each local's last reading step.
        for (x, last) in [(0, 0), (1, 2), (2, 4), (3, 5), (4, 6), (5, 9), (6, 9)] {
            for pc in 0..=t.steps.len() {
                assert_eq!(t.is_live(pc, x), pc <= last, "l{x} at pc {pc}");
            }
        }
        assert!((0..=t.steps.len()).all(|pc| !t.is_live(pc, 7)));
        assert_masks_shrink_to_empty(&t);
        for pc0 in 0..=t.steps.len() {
            for pc1 in pc0..=t.steps.len() {
                assert_dying_matches_liveness(&t, pc0, pc1);
            }
        }
        assert_eq!(t.dying(0, t.steps.len()).len(), 7, "every read local dies");
        let values: Vec<i64> = t
            .live_values(5, &[10, 11, 12, 13, 14, 15, 16, 17])
            .collect();
        assert_eq!(values, [0, 0, 0, 13, 14, 15, 16, 0]);
    }

    #[test]
    fn lowered_threads_carry_their_facts() {
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "int g;
             harness void main() {
                 fork (i; 2) { int t = g; atomic { g = t + 1; } int u = 0; }
             }",
        )
        .unwrap();
        let (sk, holes) = crate::desugar::desugar_program(&p, &cfg).unwrap();
        let l = crate::lower::lower_program(&sk, holes, &cfg).unwrap();
        for tid in 0..l.num_threads() {
            assert_masks_shrink_to_empty(l.thread(tid));
        }
        for w in &l.workers {
            let begins: Vec<usize> = (0..w.steps.len())
                .filter(|&pc| matches!(w.steps[pc].op, Op::AtomicBegin(_)))
                .collect();
            let ends: Vec<usize> = (0..w.steps.len())
                .filter(|&pc| matches!(w.steps[pc].op, Op::AtomicEnd))
                .collect();
            assert_eq!(begins.len(), 1);
            assert_eq!(ends.len(), 1);
            assert_eq!(w.atomic_end(begins[0]), Some(ends[0]));
            assert!((0..w.steps.len()).all(|pc| pc == begins[0] || w.atomic_end(pc).is_none()));
            for pc in 0..w.steps.len() {
                assert_dying_matches_liveness(w, pc, pc + 1);
            }
            assert_dying_matches_liveness(w, begins[0], ends[0] + 1);
            // `t` is last read inside the section; `u` is never read.
            let slot = |name: &str| w.locals.iter().position(|s| s.name == name).unwrap();
            let (t, u) = (slot("t"), slot("u"));
            let last_read = (0..ends[0])
                .rev()
                .find(|&pc| matches!(&w.steps[pc].op, Op::Assign(Lv::Global(_), _)))
                .unwrap();
            for pc in 0..=w.steps.len() {
                assert_eq!(w.is_live(pc, t), pc <= last_read, "t at pc {pc}");
                assert!(!w.is_live(pc, u), "u at pc {pc}");
            }
        }
    }

    #[test]
    fn thread_indexing() {
        let mk = |name: &str| Thread::new(name.into(), vec![], vec![]);
        let l = Lowered {
            config: Config::default(),
            globals: vec![],
            structs: vec![],
            prologue: mk("p"),
            workers: vec![mk("w0"), mk("w1")],
            epilogue: mk("e"),
            holes: HoleTable::new(),
        };
        assert_eq!(l.num_threads(), 4);
        assert_eq!(l.thread(0).name, "p");
        assert_eq!(l.thread(1).name, "w0");
        assert_eq!(l.thread(2).name, "w1");
        assert_eq!(l.thread(3).name, "e");
        assert_eq!(l.epilogue_tid(), 3);
    }
}
