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
use crate::hole::{HoleId, HoleTable};
use psketch_lang::ast::{BinOp, UnOp};
use psketch_lang::error::Span;
use std::fmt;

/// Index of a struct layout.
pub type StructId = usize;
/// Index of a field within a struct layout.
pub type FieldId = usize;
/// Index of a global slot.
pub type GlobalId = usize;
/// Index of a thread-local slot.
pub type LocalId = usize;

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
#[derive(Clone, PartialEq, Debug)]
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
        ix: Box<Rv>,
    },
    /// Dynamic local array read.
    LocalDyn {
        /// First slot of the array region.
        base: LocalId,
        /// Region length.
        len: usize,
        /// Index expression.
        ix: Box<Rv>,
    },
    /// Heap field read; fails when `obj` is null.
    Field {
        /// Struct pool.
        sid: StructId,
        /// Field index.
        fid: FieldId,
        /// Object reference.
        obj: Box<Rv>,
    },
    /// Unary operation (`Not`, `Neg`; `BitsToInt` is eliminated by
    /// lowering).
    Unary(UnOp, Box<Rv>),
    /// Binary operation. `Div`/`Mod` only with constant right-hand
    /// sides. `And`/`Or` short-circuit: memory failures in the
    /// right operand are only demanded when reached.
    Binary(BinOp, Box<Rv>, Box<Rv>),
    /// If-then-else.
    Ite(Box<Rv>, Box<Rv>, Box<Rv>),
}

impl Rv {
    /// Convenience: `a == b`.
    pub fn eq(a: Rv, b: Rv) -> Rv {
        Rv::Binary(BinOp::Eq, Box::new(a), Box::new(b))
    }

    /// Convenience: `a && b` with constant folding.
    pub fn and(a: Rv, b: Rv) -> Rv {
        match (&a, &b) {
            (Rv::Const(0), _) | (_, Rv::Const(0)) => Rv::Const(0),
            (Rv::Const(_), _) => b,
            (_, Rv::Const(_)) => a,
            _ => Rv::Binary(BinOp::And, Box::new(a), Box::new(b)),
        }
    }

    /// Convenience: `!a` with constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Rv) -> Rv {
        match a {
            Rv::Const(0) => Rv::Const(1),
            Rv::Const(_) => Rv::Const(0),
            other => Rv::Unary(UnOp::Not, Box::new(other)),
        }
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

/// One straight-line thread.
#[derive(Clone, Debug, Default)]
pub struct Thread {
    /// Diagnostic name ("prologue", "worker 0", …).
    pub name: String,
    /// The steps.
    pub steps: Vec<Step>,
    /// Local slot layout.
    pub locals: Vec<LocalSlot>,
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

    #[test]
    fn rv_helpers_fold_constants() {
        assert_eq!(Rv::and(Rv::Const(0), Rv::Global(1)), Rv::Const(0));
        assert_eq!(Rv::and(Rv::Const(1), Rv::Local(2)), Rv::Local(2));
        assert_eq!(Rv::not(Rv::Const(0)), Rv::Const(1));
        assert_eq!(Rv::not(Rv::Const(7)), Rv::Const(0));
    }

    #[test]
    fn thread_indexing() {
        let mk = |name: &str| Thread {
            name: name.into(),
            steps: vec![],
            locals: vec![],
        };
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
