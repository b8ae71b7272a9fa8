//! The sealed candidate: the only input a checker runs on.
//!
//! A [`CompiledProgram`] seals one `(Lowered, Assignment)` pair into an
//! execution artifact; [`CompiledProgram::compile`] seals every
//! candidate fresh. The DFS, replay and the schedule-bank prescreen
//! all build their checker from it with `Checker::from_compiled`:
//!
//! - holes are substituted and constants folded *at emit time*: one
//!   walk over the original trees streams micro-ops out while
//!   resolving holes and folding in place, so neither a substituted
//!   tree nor a specialized `Lowered` is ever materialized. The fold
//!   is exact with respect to the step semantics, laziness included:
//!   - const ∘ const folds through the lowering's wrapping arithmetic
//!     (`Div`/`Mod` by zero are left unfolded);
//!   - `0 && b` folds to `0` and `c || b` (c ≠ 0) to `1` — `b` is never
//!     demanded there, so dropping it cannot suppress a failure;
//!   - `c && b` (c ≠ 0) and `0 || b` fold to `b` normalized to 0/1;
//!   - `?:` with a constant condition folds to the demanded branch;
//!   - everything else — in particular `a && 0` with non-constant `a`
//!     — is emitted unchanged, because evaluating `a` may fail.
//!
//!   Step structure is untouched (same step counts and indices, same
//!   spans, each step's original `shared` flag), so pcs, scheduling
//!   points and trace step indices are those of the lowered program;
//! - each thread's step list is flattened into dense pc-indexed
//!   micro-op arrays ([`Ins`]): a tiny stack machine with short-circuit
//!   jumps, no tree recursion and no hole table on the hot path;
//! - the POR conflict bitmasks are rebuilt from a *hole-aware
//!   footprint pass* over the original program
//!   ([`psketch_ir::thread_footprints_sharpened`]), so fork-indexed
//!   cells whose index was a hole (directly or through a local)
//!   resolve to exact locations the static
//!   [`psketch_ir::FootprintTable`] had to widen —
//!   candidate-sharpened ample sets, never coarser than the static
//!   ones. The footprint pass and the table are lazy: only a search
//!   that reduces builds them, so a candidate the prescreen or a
//!   `por: false` search disposes of never pays for them.
//!   The static table and the refinement check are diagnostics, built
//!   each time [`CompiledProgram::sharpened_masks`] or
//!   [`CompiledProgram::footprint_refines_static`] is called;
//! - what does not depend on the holes is not sealed at all: each
//!   thread's atomic-section ends and its locals' liveness are facts of
//!   the lowered [`Thread`], computed once per program. The reference
//!   engine masks dead locals with the same facts, so with the
//!   reduction off a search visits exactly the reference engine's
//!   states;
//! - every table belongs to one artifact, and the engines built from
//!   it borrow them: constructing a checker copies no table.
//!
//! [`crate::reference`] shares none of this code: it interprets the
//! original trees against a hole table, which makes it an independent
//! oracle for the whole layer.

use crate::por::PorTable;
use crate::store::{EvalResult, FailureKind, StateBuf, StateLayout, UndoJournal};
use psketch_ir::{
    fold_const_binop, fold_const_unop, thread_footprints_sharpened, Assignment, Footprint, Loc,
    Lowered, Lv, Op, Rv, Thread,
};
use psketch_lang::ast::{BinOp, UnOp};
use std::mem::size_of;
use std::sync::OnceLock;
use std::time::Instant;

/// Stack slots kept inline on the eval stack frame; expressions deeper
/// than this (pathological nesting) fall back to a heap stack. Kept
/// small: the array is re-initialized per evaluation, and `&&`/`||`
/// chains compile to jumps that take the *max* of their operand
/// depths, so real guards rarely need more than a handful of slots.
const INLINE_STACK: usize = 16;

/// One micro-op of the flattened expression code. Operands travel on
/// an explicit value stack; `&&`/`||`/`?:` laziness is compiled to
/// forward jumps, so evaluation is a straight dispatch loop with no
/// recursion and no hole lookups.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Ins {
    /// Push a constant (holes have been substituted by now).
    Const(i64),
    /// Push the global cell at this flat offset.
    Global(u32),
    /// Push the local at this slot (offset by the runtime locals base).
    Local(u32),
    /// Pop an index, bounds-check it against `len`, push the global
    /// cell at `base + index`.
    GlobalDyn {
        /// Flat offset of the region's first cell.
        base: u32,
        /// Region length in cells.
        len: u32,
    },
    /// As [`Ins::GlobalDyn`] for a local region.
    LocalDyn {
        /// Slot offset of the region's first local.
        base: u32,
        /// Region length in slots.
        len: u32,
    },
    /// Pop an object reference, null/bounds-check it, push the field
    /// cell. Fully baked: `heap_base` is the pool segment's flat
    /// offset, so no layout table is consulted at run time.
    Field {
        /// Flat offset of the pool's heap segment.
        heap_base: u32,
        /// Fields per object.
        nf: u32,
        /// Pool capacity in objects.
        cap: u32,
        /// Field index within the object.
        fid: u32,
    },
    /// Logical not of the top of stack.
    Not,
    /// Wrapping negation of the top of stack.
    Neg,
    /// Strict binary operator over the top two stack slots
    /// (`And`/`Or` never appear here — they compile to jumps).
    Bin(BinOp),
    /// Normalize the top of stack to 0/1 (the value `&&`/`||` produce
    /// for their demanded right operand).
    PushBool,
    /// Unconditional jump to an instruction index.
    Jump(u32),
    /// Pop; jump when the popped value is zero.
    JumpIfZero(u32),
    /// Pop; jump when the popped value is non-zero.
    JumpIfNonZero(u32),
}

/// A compiled expression: the micro-op array plus the stack depth it
/// needs. Single-constant code (the common case for folded guards)
/// short-circuits through `const_val` without touching the stack.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Code {
    ins: Box<[Ins]>,
    max_stack: u32,
    const_val: Option<i64>,
}

impl Code {
    /// Evaluates the code against the current state. `&&`/`||`/`?:`
    /// are lazy, so memory failures in undemanded subexpressions do
    /// not fire — matching the symbolic evaluator's demand-conditioned
    /// failures.
    #[inline]
    pub(crate) fn eval(
        &self,
        buf: &StateBuf,
        lb: usize,
        config: &psketch_ir::Config,
    ) -> EvalResult {
        if let Some(c) = self.const_val {
            return Ok(c);
        }
        // Single-load atoms (the bulk of operand expressions after
        // folding) skip the dispatch loop and its stack entirely.
        if let [ins] = &*self.ins {
            match *ins {
                Ins::Global(g) => return Ok(buf.get(g as usize)),
                Ins::Local(x) => return Ok(buf.get(lb + x as usize)),
                _ => {}
            }
        }
        if self.max_stack as usize <= INLINE_STACK {
            let mut stack = [0i64; INLINE_STACK];
            self.eval_on(&mut stack, buf, lb, config)
        } else {
            let mut stack = vec![0i64; self.max_stack as usize];
            self.eval_on(&mut stack, buf, lb, config)
        }
    }

    fn eval_on(
        &self,
        stack: &mut [i64],
        buf: &StateBuf,
        lb: usize,
        config: &psketch_ir::Config,
    ) -> EvalResult {
        let ins = &self.ins;
        let mut pc = 0usize;
        let mut sp = 0usize;
        while pc < ins.len() {
            match ins[pc] {
                Ins::Const(c) => {
                    stack[sp] = c;
                    sp += 1;
                }
                Ins::Global(g) => {
                    stack[sp] = buf.get(g as usize);
                    sp += 1;
                }
                Ins::Local(x) => {
                    stack[sp] = buf.get(lb + x as usize);
                    sp += 1;
                }
                Ins::GlobalDyn { base, len } => {
                    let i = stack[sp - 1];
                    if i < 0 || i as usize >= len as usize {
                        return Err(FailureKind::OutOfBounds);
                    }
                    stack[sp - 1] = buf.get(base as usize + i as usize);
                }
                Ins::LocalDyn { base, len } => {
                    let i = stack[sp - 1];
                    if i < 0 || i as usize >= len as usize {
                        return Err(FailureKind::OutOfBounds);
                    }
                    stack[sp - 1] = buf.get(lb + base as usize + i as usize);
                }
                Ins::Field {
                    heap_base,
                    nf,
                    cap,
                    fid,
                } => {
                    let obj = stack[sp - 1];
                    if obj == 0 {
                        return Err(FailureKind::NullDeref);
                    }
                    let ix = (obj - 1) as usize;
                    if ix >= cap as usize {
                        return Err(FailureKind::OutOfBounds);
                    }
                    stack[sp - 1] = buf.get(heap_base as usize + ix * nf as usize + fid as usize);
                }
                Ins::Not => stack[sp - 1] = i64::from(stack[sp - 1] == 0),
                Ins::Neg => stack[sp - 1] = config.wrap(-stack[sp - 1]),
                Ins::Bin(op) => {
                    let y = stack[sp - 1];
                    let x = stack[sp - 2];
                    sp -= 1;
                    stack[sp - 1] = match op {
                        BinOp::Add => config.wrap(x + y),
                        BinOp::Sub => config.wrap(x - y),
                        BinOp::Mul => config.wrap(x.wrapping_mul(y)),
                        BinOp::Div => {
                            debug_assert!(y != 0, "lowering guarantees non-zero divisors");
                            config.wrap(x.wrapping_div(y))
                        }
                        BinOp::Mod => {
                            debug_assert!(y != 0);
                            config.wrap(x.wrapping_rem(y))
                        }
                        BinOp::Eq => i64::from(x == y),
                        BinOp::Ne => i64::from(x != y),
                        BinOp::Lt => i64::from(x < y),
                        BinOp::Le => i64::from(x <= y),
                        BinOp::Gt => i64::from(x > y),
                        BinOp::Ge => i64::from(x >= y),
                        BinOp::And | BinOp::Or => unreachable!("compiled to jumps"),
                    };
                }
                Ins::PushBool => stack[sp - 1] = i64::from(stack[sp - 1] != 0),
                Ins::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Ins::JumpIfZero(t) => {
                    sp -= 1;
                    if stack[sp] == 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                Ins::JumpIfNonZero(t) => {
                    sp -= 1;
                    if stack[sp] != 0 {
                        pc = t as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        debug_assert_eq!(sp, 1, "expression code must leave exactly one value");
        Ok(stack[0])
    }

    /// Heap bytes of the micro-op array.
    fn heap_bytes(&self) -> usize {
        self.ins.len() * size_of::<Ins>()
    }
}

/// A compiled write destination.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum CLv {
    /// A fixed global cell.
    Global(usize),
    /// A local slot (offset by the runtime locals base).
    Local(usize),
    /// A dynamically indexed global region.
    GlobalDyn {
        /// Flat offset of the region's first cell.
        base: usize,
        /// Region length.
        len: usize,
        /// Index code.
        ix: Code,
    },
    /// A dynamically indexed local region.
    LocalDyn {
        /// Slot offset of the region's first local.
        base: usize,
        /// Region length.
        len: usize,
        /// Index code.
        ix: Code,
    },
    /// An object field, fully baked as in [`Ins::Field`].
    Field {
        /// Flat offset of the pool's heap segment.
        heap_base: usize,
        /// Fields per object.
        nf: usize,
        /// Pool capacity in objects.
        cap: usize,
        /// Field index within the object.
        fid: usize,
        /// Object-reference code.
        obj: Code,
    },
}

/// A compiled step operation, mirroring [`psketch_ir::Op`] with all
/// expressions flattened and all layout offsets baked in.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum COp {
    /// `lv = rv`.
    Assign(CLv, Code),
    /// Atomic swap.
    Swap {
        /// Receives the old value.
        dst: CLv,
        /// The swapped location.
        loc: CLv,
        /// The new value.
        val: Code,
    },
    /// Atomic compare-and-swap.
    Cas {
        /// Receives the success flag.
        dst: CLv,
        /// The compared-and-written location.
        loc: CLv,
        /// Expected value.
        old: Code,
        /// Replacement value.
        new: Code,
    },
    /// Atomic fetch-and-add.
    FetchAdd {
        /// Receives the pre-add value.
        dst: CLv,
        /// The incremented location.
        loc: CLv,
        /// The constant addend.
        delta: i64,
    },
    /// Pool allocation with baked layout.
    Alloc {
        /// Receives the new object reference.
        dst: CLv,
        /// Flat offset of the pool's allocation counter.
        alloc_slot: usize,
        /// Flat offset of the pool's heap segment.
        heap_base: usize,
        /// Pool capacity in objects.
        cap: usize,
        /// Per-field default values (also fixes the field count).
        defaults: Box<[i64]>,
        /// Field overrides, in declaration order.
        inits: Box<[(usize, Code)]>,
    },
    /// `assert`.
    Assert(Code),
    /// Atomic-section entry, with its blocking condition when present.
    /// A no-op for [`exec_cop`] — the checker interprets it for
    /// scheduling, reading the condition via the step's code.
    AtomicBegin(Option<Code>),
    /// Atomic-section exit (no-op).
    AtomicEnd,
}

impl CLv {
    /// Heap bytes of the index or object code.
    fn heap_bytes(&self) -> usize {
        match self {
            CLv::Global(_) | CLv::Local(_) => 0,
            CLv::GlobalDyn { ix, .. } | CLv::LocalDyn { ix, .. } => ix.heap_bytes(),
            CLv::Field { obj, .. } => obj.heap_bytes(),
        }
    }
}

impl COp {
    /// Heap bytes of the operation's code, defaults and initializers.
    fn heap_bytes(&self) -> usize {
        match self {
            COp::Assign(lv, rv) => lv.heap_bytes() + rv.heap_bytes(),
            COp::Swap { dst, loc, val } => dst.heap_bytes() + loc.heap_bytes() + val.heap_bytes(),
            COp::Cas { dst, loc, old, new } => {
                dst.heap_bytes() + loc.heap_bytes() + old.heap_bytes() + new.heap_bytes()
            }
            COp::FetchAdd { dst, loc, .. } => dst.heap_bytes() + loc.heap_bytes(),
            COp::Alloc {
                dst,
                defaults,
                inits,
                ..
            } => {
                let inits: usize = inits
                    .iter()
                    .map(|(_, rv)| size_of::<(usize, Code)>() + rv.heap_bytes())
                    .sum();
                dst.heap_bytes() + defaults.len() * size_of::<i64>() + inits
            }
            COp::Assert(c) | COp::AtomicBegin(Some(c)) => c.heap_bytes(),
            COp::AtomicBegin(None) | COp::AtomicEnd => 0,
        }
    }
}

/// One compiled step: guard code plus operation.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CStep {
    /// The step's guard.
    pub(crate) guard: Code,
    /// The step's operation.
    pub(crate) op: COp,
}

/// One thread's dense pc-indexed compiled step array.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ThreadCode {
    /// `steps[pc]` is the compiled form of the thread's step `pc`.
    pub(crate) steps: Box<[CStep]>,
}

/// Resolves a compiled write destination to its flat buffer offset.
fn resolve_clv(
    lv: &CLv,
    buf: &StateBuf,
    lb: usize,
    config: &psketch_ir::Config,
) -> Result<usize, FailureKind> {
    Ok(match lv {
        CLv::Global(g) => *g,
        CLv::Local(x) => lb + *x,
        CLv::GlobalDyn { base, len, ix } => {
            let i = ix.eval(buf, lb, config)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            base + i as usize
        }
        CLv::LocalDyn { base, len, ix } => {
            let i = ix.eval(buf, lb, config)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            lb + base + i as usize
        }
        CLv::Field {
            heap_base,
            nf,
            cap,
            fid,
            obj,
        } => {
            let o = obj.eval(buf, lb, config)?;
            if o == 0 {
                return Err(FailureKind::NullDeref);
            }
            let ix = (o - 1) as usize;
            if ix >= *cap {
                return Err(FailureKind::OutOfBounds);
            }
            heap_base + ix * nf + fid
        }
    })
}

/// Executes one compiled operation (guard already known true),
/// journaling every write. `AtomicBegin`/`AtomicEnd` are no-ops here;
/// the checker interprets them for scheduling.
pub(crate) fn exec_cop(
    op: &COp,
    buf: &mut StateBuf,
    lb: usize,
    j: &mut UndoJournal,
    config: &psketch_ir::Config,
) -> Result<(), FailureKind> {
    match op {
        COp::Assign(lv, rv) => {
            let v = rv.eval(buf, lb, config)?;
            let off = resolve_clv(lv, buf, lb, config)?;
            buf.set(off, v, j);
        }
        COp::Swap { dst, loc, val } => {
            let v = val.eval(buf, lb, config)?;
            let loc_off = resolve_clv(loc, buf, lb, config)?;
            let old = buf.get(loc_off);
            buf.set(loc_off, v, j);
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, old, j);
        }
        COp::Cas { dst, loc, old, new } => {
            let ov = old.eval(buf, lb, config)?;
            let nv = new.eval(buf, lb, config)?;
            let loc_off = resolve_clv(loc, buf, lb, config)?;
            let cur = buf.get(loc_off);
            let ok = cur == ov;
            if ok {
                buf.set(loc_off, nv, j);
            }
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, i64::from(ok), j);
        }
        COp::FetchAdd { dst, loc, delta } => {
            let loc_off = resolve_clv(loc, buf, lb, config)?;
            let old = buf.get(loc_off);
            buf.set(loc_off, config.wrap(old + delta), j);
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, old, j);
        }
        COp::Alloc {
            dst,
            alloc_slot,
            heap_base,
            cap,
            defaults,
            inits,
        } => {
            let obj = buf.get(*alloc_slot);
            if obj as usize >= *cap {
                return Err(FailureKind::PoolExhausted);
            }
            buf.set(*alloc_slot, obj + 1, j);
            let nf = defaults.len();
            let base = heap_base + obj as usize * nf;
            for (fid, &default) in defaults.iter().enumerate() {
                buf.set(base + fid, default, j);
            }
            // Evaluate overrides before publishing the reference (they
            // see the freshly written defaults).
            let mut vals = Vec::with_capacity(inits.len());
            for (fid, rv) in inits.iter() {
                vals.push((*fid, rv.eval(buf, lb, config)?));
            }
            for (fid, v) in vals {
                buf.set(base + fid, v, j);
            }
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, obj + 1, j);
        }
        COp::Assert(c) => {
            if c.eval(buf, lb, config)? == 0 {
                return Err(FailureKind::AssertFailed);
            }
        }
        COp::AtomicBegin(_) | COp::AtomicEnd => {}
    }
    Ok(())
}

/// Points the placeholder jump at `at` to the next emitted index.
fn patch(out: &mut [Ins], at: usize) {
    let target = out.len() as u32;
    match &mut out[at] {
        Ins::Jump(t) | Ins::JumpIfZero(t) | Ins::JumpIfNonZero(t) => *t = target,
        _ => unreachable!("patched instruction is a jump"),
    }
}

fn field_ins(sid: usize, fid: usize, l: &Lowered, lay: &StateLayout) -> Ins {
    let layout = &l.structs[sid];
    Ins::Field {
        heap_base: lay.heap_cell(sid, 0) as u32,
        nf: layout.fields.len() as u32,
        cap: layout.capacity as u32,
        fid: fid as u32,
    }
}

/// What the streaming folder produced for one subtree: a constant the
/// caller has *not* emitted yet (parents fold through it — the
/// deferral is what makes short-circuit pruning and constant binops
/// free), or an expression whose instructions are already in `out`,
/// tagged with the stack depth its folded tree needs and whether its
/// folded top node already yields 0/1 (the shapes
/// [`emit_normalized_bool`] passes through unchanged).
enum Folded {
    Const(i64),
    Expr { depth: u32, boolean: bool },
}

/// Emits `rv`'s micro-ops with holes resolved and constants folded in
/// stream, following the fold rules in the module docs: the
/// substituted-and-folded tree is never materialized.
fn emit_fold(
    rv: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    out: &mut Vec<Ins>,
) -> Folded {
    match rv {
        Rv::Const(c) => Folded::Const(*c),
        Rv::Hole(h) => Folded::Const(l.config.wrap(holes.value(*h) as i64)),
        Rv::Global(g) => {
            out.push(Ins::Global(*g as u32));
            Folded::Expr {
                depth: 1,
                boolean: false,
            }
        }
        Rv::Local(x) => {
            out.push(Ins::Local(*x as u32));
            Folded::Expr {
                depth: 1,
                boolean: false,
            }
        }
        Rv::GlobalDyn { base, len, ix } => {
            let depth = emit_fold_operand(ix, holes, l, lay, out);
            out.push(Ins::GlobalDyn {
                base: *base as u32,
                len: *len as u32,
            });
            Folded::Expr {
                depth,
                boolean: false,
            }
        }
        Rv::LocalDyn { base, len, ix } => {
            let depth = emit_fold_operand(ix, holes, l, lay, out);
            out.push(Ins::LocalDyn {
                base: *base as u32,
                len: *len as u32,
            });
            Folded::Expr {
                depth,
                boolean: false,
            }
        }
        Rv::Field { sid, fid, obj } => {
            let depth = emit_fold_operand(obj, holes, l, lay, out);
            out.push(field_ins(*sid, *fid, l, lay));
            Folded::Expr {
                depth,
                boolean: false,
            }
        }
        Rv::Unary(op, a) => match emit_fold(a, holes, l, lay, out) {
            Folded::Const(c) => Folded::Const(fold_const_unop(*op, c, &l.config)),
            Folded::Expr { depth, .. } => {
                match op {
                    UnOp::Not => out.push(Ins::Not),
                    UnOp::Neg => out.push(Ins::Neg),
                    UnOp::BitsToInt => {} // identity
                }
                Folded::Expr {
                    depth,
                    boolean: matches!(op, UnOp::Not),
                }
            }
        },
        Rv::Binary(BinOp::And, a, b) => match emit_fold(a, holes, l, lay, out) {
            Folded::Const(0) => Folded::Const(0),
            Folded::Const(_) => emit_normalized_bool(b, holes, l, lay, out),
            Folded::Expr { depth: da, .. } => {
                let jz = out.len();
                out.push(Ins::JumpIfZero(u32::MAX));
                let db = emit_fold_operand(b, holes, l, lay, out);
                out.push(Ins::PushBool);
                let jend = out.len();
                out.push(Ins::Jump(u32::MAX));
                patch(out, jz);
                out.push(Ins::Const(0));
                patch(out, jend);
                Folded::Expr {
                    depth: da.max(db).max(1),
                    boolean: true,
                }
            }
        },
        Rv::Binary(BinOp::Or, a, b) => match emit_fold(a, holes, l, lay, out) {
            Folded::Const(0) => emit_normalized_bool(b, holes, l, lay, out),
            Folded::Const(_) => Folded::Const(1),
            Folded::Expr { depth: da, .. } => {
                let jnz = out.len();
                out.push(Ins::JumpIfNonZero(u32::MAX));
                let db = emit_fold_operand(b, holes, l, lay, out);
                out.push(Ins::PushBool);
                let jend = out.len();
                out.push(Ins::Jump(u32::MAX));
                patch(out, jnz);
                out.push(Ins::Const(1));
                patch(out, jend);
                Folded::Expr {
                    depth: da.max(db).max(1),
                    boolean: true,
                }
            }
        },
        Rv::Binary(op, a, b) => {
            let va = emit_fold(a, holes, l, lay, out);
            let mark = out.len();
            let vb = emit_fold(b, holes, l, lay, out);
            let boolean = op.is_boolean_result();
            match (va, vb) {
                (Folded::Const(x), Folded::Const(y)) => {
                    match fold_const_binop(*op, x, y, &l.config) {
                        Some(v) => Folded::Const(v),
                        // Unfoldable (division by zero): the constant
                        // pair is emitted and left to the run time.
                        None => {
                            out.push(Ins::Const(x));
                            out.push(Ins::Const(y));
                            out.push(Ins::Bin(*op));
                            Folded::Expr { depth: 2, boolean }
                        }
                    }
                }
                (Folded::Const(x), Folded::Expr { depth: db, .. }) => {
                    insert_before(out, mark, Ins::Const(x));
                    out.push(Ins::Bin(*op));
                    Folded::Expr {
                        depth: 1 + db,
                        boolean,
                    }
                }
                (Folded::Expr { depth: da, .. }, Folded::Const(y)) => {
                    out.push(Ins::Const(y));
                    out.push(Ins::Bin(*op));
                    Folded::Expr {
                        depth: da.max(2),
                        boolean,
                    }
                }
                (Folded::Expr { depth: da, .. }, Folded::Expr { depth: db, .. }) => {
                    out.push(Ins::Bin(*op));
                    Folded::Expr {
                        depth: da.max(1 + db),
                        boolean,
                    }
                }
            }
        }
        Rv::Ite(c, t, e) => match emit_fold(c, holes, l, lay, out) {
            // Constant condition: only the demanded branch is visited,
            // so the dead branch costs nothing — not even a walk.
            Folded::Const(0) => emit_fold(e, holes, l, lay, out),
            Folded::Const(_) => emit_fold(t, holes, l, lay, out),
            Folded::Expr { depth: dc, .. } => {
                let jz = out.len();
                out.push(Ins::JumpIfZero(u32::MAX));
                let dt = emit_fold_operand(t, holes, l, lay, out);
                let jend = out.len();
                out.push(Ins::Jump(u32::MAX));
                patch(out, jz);
                let de = emit_fold_operand(e, holes, l, lay, out);
                patch(out, jend);
                Folded::Expr {
                    depth: dc.max(dt).max(de),
                    boolean: false,
                }
            }
        },
    }
}

/// Emits the subtree, materializing a deferred constant — for operand
/// positions that demand a value on the stack. Returns the folded
/// tree's stack depth.
fn emit_fold_operand(
    rv: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    out: &mut Vec<Ins>,
) -> u32 {
    match emit_fold(rv, holes, l, lay, out) {
        Folded::Const(c) => {
            out.push(Ins::Const(c));
            1
        }
        Folded::Expr { depth, .. } => depth,
    }
}

/// Normalizes the folded right operand of an `&&`/`||` whose left
/// folded to a constant to 0/1, as the evaluated `&&`/`||` would:
/// constants collapse to 0/1, expressions already producing 0/1 pass
/// through, anything else gets a `!= 0` appended.
fn emit_normalized_bool(
    b: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    out: &mut Vec<Ins>,
) -> Folded {
    match emit_fold(b, holes, l, lay, out) {
        Folded::Const(c) => Folded::Const(i64::from(c != 0)),
        r @ Folded::Expr { boolean: true, .. } => r,
        Folded::Expr {
            depth,
            boolean: false,
        } => {
            out.push(Ins::Const(0));
            out.push(Ins::Bin(BinOp::Ne));
            Folded::Expr {
                depth: depth.max(2),
                boolean: true,
            }
        }
    }
}

/// Inserts `ins` at `at`, re-aiming the shifted jumps. Used when a
/// strict binop's left operand folded to a constant after the right
/// operand's code already streamed out: the constant belongs *before*
/// that code. Every jump in the shifted tail belongs to the right
/// operand — its targets are forward and land inside (or one past) its
/// own region, so they all move with it; jumps before `at` target at
/// most `at`, which still begins the same continuation.
fn insert_before(out: &mut Vec<Ins>, at: usize, ins: Ins) {
    out.insert(at, ins);
    for x in &mut out[at + 1..] {
        match x {
            Ins::Jump(t) | Ins::JumpIfZero(t) | Ins::JumpIfNonZero(t) => {
                debug_assert_ne!(*t, u32::MAX, "shifted jump must already be patched");
                *t += 1;
            }
            _ => {}
        }
    }
}

/// Compiles one expression to a [`Code`], resolving holes and folding
/// constants in stream. `scratch` is a reusable emission buffer
/// (cleared here) so per-expression allocation is exactly one
/// right-sized `Box<[Ins]>`.
fn compile_code_folded(
    rv: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    scratch: &mut Vec<Ins>,
) -> Code {
    scratch.clear();
    let max_stack = emit_fold_operand(rv, holes, l, lay, scratch);
    let const_val = match scratch.as_slice() {
        [Ins::Const(c)] => Some(*c),
        _ => None,
    };
    Code {
        max_stack,
        ins: scratch.as_slice().into(),
        const_val,
    }
}

/// Compiles an l-value with emit-time hole substitution in the index
/// and object expressions (the only l-value positions holes can
/// occupy).
fn compile_lv_folded(
    lv: &Lv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    scratch: &mut Vec<Ins>,
) -> CLv {
    match lv {
        Lv::Global(g) => CLv::Global(*g),
        Lv::Local(x) => CLv::Local(*x),
        Lv::GlobalDyn { base, len, ix } => CLv::GlobalDyn {
            base: *base,
            len: *len,
            ix: compile_code_folded(ix, holes, l, lay, scratch),
        },
        Lv::LocalDyn { base, len, ix } => CLv::LocalDyn {
            base: *base,
            len: *len,
            ix: compile_code_folded(ix, holes, l, lay, scratch),
        },
        Lv::Field { sid, fid, obj } => {
            let layout = &l.structs[*sid];
            CLv::Field {
                heap_base: lay.heap_cell(*sid, 0),
                nf: layout.fields.len(),
                cap: layout.capacity,
                fid: *fid,
                obj: compile_code_folded(obj, holes, l, lay, scratch),
            }
        }
    }
}

/// Compiles an operation with emit-time hole substitution in every
/// r-value and l-value position.
fn compile_op_folded(
    op: &Op,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    scratch: &mut Vec<Ins>,
) -> COp {
    match op {
        Op::Assign(lv, rv) => COp::Assign(
            compile_lv_folded(lv, holes, l, lay, scratch),
            compile_code_folded(rv, holes, l, lay, scratch),
        ),
        Op::Swap { dst, loc, val } => COp::Swap {
            dst: compile_lv_folded(dst, holes, l, lay, scratch),
            loc: compile_lv_folded(loc, holes, l, lay, scratch),
            val: compile_code_folded(val, holes, l, lay, scratch),
        },
        Op::Cas { dst, loc, old, new } => COp::Cas {
            dst: compile_lv_folded(dst, holes, l, lay, scratch),
            loc: compile_lv_folded(loc, holes, l, lay, scratch),
            old: compile_code_folded(old, holes, l, lay, scratch),
            new: compile_code_folded(new, holes, l, lay, scratch),
        },
        Op::FetchAdd { dst, loc, delta } => COp::FetchAdd {
            dst: compile_lv_folded(dst, holes, l, lay, scratch),
            loc: compile_lv_folded(loc, holes, l, lay, scratch),
            delta: *delta,
        },
        Op::Alloc { dst, sid, inits } => {
            let layout = &l.structs[*sid];
            COp::Alloc {
                dst: compile_lv_folded(dst, holes, l, lay, scratch),
                alloc_slot: lay.alloc_slot(*sid),
                heap_base: lay.heap_cell(*sid, 0),
                cap: layout.capacity,
                defaults: layout.fields.iter().map(|(_, _, d)| *d).collect(),
                inits: inits
                    .iter()
                    .map(|(fid, rv)| (*fid, compile_code_folded(rv, holes, l, lay, scratch)))
                    .collect(),
            }
        }
        Op::Assert(c) => COp::Assert(compile_code_folded(c, holes, l, lay, scratch)),
        Op::AtomicBegin(c) => COp::AtomicBegin(
            c.as_ref()
                .map(|c| compile_code_folded(c, holes, l, lay, scratch)),
        ),
        Op::AtomicEnd => COp::AtomicEnd,
    }
}

/// Compiles one thread's step list through the streaming folder.
/// Every step — hole-bearing or not — goes through the same
/// fold-as-you-emit walk, without ever cloning the `Lowered`.
fn compile_thread(t: &Thread, l: &Lowered, lay: &StateLayout, holes: &Assignment) -> ThreadCode {
    let mut scratch: Vec<Ins> = Vec::new();
    ThreadCode {
        steps: t
            .steps
            .iter()
            .map(|s| CStep {
                guard: compile_code_folded(&s.guard, holes, l, lay, &mut scratch),
                op: compile_op_folded(&s.op, holes, l, lay, &mut scratch),
            })
            .collect(),
    }
}

/// Candidate-sharpened per-worker footprints (`thread_fps[w]` = worker
/// `w`, one [`Footprint`] per step) and the POR table derived from
/// them (`None` outside the 2..=64 worker range POR supports: the mask
/// words are `u64`). Kept as one unit so the lazy cell forces both
/// together.
#[derive(Clone)]
struct FpsPor {
    thread_fps: Vec<Vec<Footprint>>,
    por: Option<PorTable>,
}

fn fps_por(l: &Lowered, candidate: &Assignment) -> FpsPor {
    let thread_fps: Vec<Vec<Footprint>> = l
        .workers
        .iter()
        .map(|w| thread_footprints_sharpened(w, &l.config, candidate))
        .collect();
    let por = (2..=64).contains(&l.workers.len()).then(|| {
        let slices: Vec<&[Footprint]> = thread_fps.iter().map(Vec::as_slice).collect();
        PorTable::from_footprints(l, &slices)
    });
    FpsPor { thread_fps, por }
}

/// The sealed, hole-substituted execution artifact of one candidate:
/// compiled once, shared by the DFS, replay and the schedule-bank
/// prescreen. It holds only what the candidate's holes decide; the
/// program's own facts stay on its threads. Engines borrow its tables;
/// they never copy them.
#[derive(Clone)]
pub struct CompiledProgram<'l> {
    /// The original (hole-bearing) program the artifact was sealed
    /// from. Kept borrowed: emit-time substitution never materializes
    /// a specialized copy. Its threads are used for control decisions
    /// (step structure, `shared` flags, atomic-section ends, liveness,
    /// spans); every evaluation runs the micro-op code.
    l: &'l Lowered,
    /// The candidate this artifact was compiled from.
    holes: Assignment,
    /// Flat-state segment table (candidate-independent).
    pub(crate) lay: StateLayout,
    /// Candidate-sharpened per-worker footprints and the POR table
    /// built from them (one cell: the table is a deterministic
    /// function of the footprints, so they force together). Lazy —
    /// only a search that reduces reads the table, so candidates the
    /// prescreen refutes, and `por: false` searches, never pay the
    /// footprint pass.
    fps_por: OnceLock<FpsPor>,
    /// Per-thread micro-op arrays, indexed by trace thread id
    /// (0 = prologue, `1..=n` = workers, `n + 1` = epilogue).
    pub(crate) code: Vec<ThreadCode>,
    compile_us: u64,
}

impl<'l> CompiledProgram<'l> {
    /// Compiles `candidate` into a sealed execution artifact.
    pub fn compile(l: &'l Lowered, candidate: &Assignment) -> CompiledProgram<'l> {
        let t0 = Instant::now();
        let lay = StateLayout::new(l);
        let code = (0..l.num_threads())
            .map(|tid| compile_thread(l.thread(tid), l, &lay, candidate))
            .collect();
        CompiledProgram {
            l,
            holes: candidate.clone(),
            lay,
            fps_por: OnceLock::new(),
            code,
            compile_us: t0.elapsed().as_micros() as u64,
        }
    }

    /// Seals `candidate` fresh, ignoring `_prev`: the same as
    /// [`CompiledProgram::compile`]. Kept only because
    /// `perfbench/src/trace.rs` calls it.
    #[doc(hidden)]
    pub fn reseal(
        _prev: &CompiledProgram<'l>,
        l: &'l Lowered,
        candidate: &Assignment,
    ) -> CompiledProgram<'l> {
        CompiledProgram::compile(l, candidate)
    }

    /// The program this artifact executes (the original, hole-bearing
    /// `Lowered`; tree-level evaluation resolves holes through
    /// [`CompiledProgram::assignment`]).
    pub fn program(&self) -> &'l Lowered {
        self.l
    }

    /// The candidate assignment the artifact was compiled from.
    pub fn assignment(&self) -> &Assignment {
        &self.holes
    }

    /// Wall-clock microseconds spent sealing this artifact.
    pub fn compile_us(&self) -> u64 {
        self.compile_us
    }

    /// Always 0: no artifact reuses another's code. Kept only because
    /// `perfbench/src/trace.rs` reads it.
    #[doc(hidden)]
    pub fn threads_reused(&self) -> u64 {
        0
    }

    /// Heap bytes the artifact has in use, by length: its micro-op
    /// arrays with the `Alloc` defaults and initializers, and its
    /// footprints and POR table once a search has built them.
    pub fn heap_bytes(&self) -> usize {
        let code: usize = self
            .code
            .iter()
            .flat_map(|tc| tc.steps.iter())
            .map(|cs| size_of::<CStep>() + cs.guard.heap_bytes() + cs.op.heap_bytes())
            .sum();
        let fps_por = self.fps_por.get().map_or(0, |f| {
            let fps: usize = f
                .thread_fps
                .iter()
                .flatten()
                .map(|fp| {
                    size_of::<Footprint>() + (fp.reads.len() + fp.writes.len()) * size_of::<Loc>()
                })
                .sum();
            f.thread_fps.len() * size_of::<Vec<Footprint>>()
                + fps
                + f.por.as_ref().map_or(0, PorTable::heap_bytes)
        });
        self.code.len() * size_of::<ThreadCode>() + code + fps_por
    }

    /// The candidate-sharpened footprints and POR table, built on
    /// first use by a search that reduces (or by a diagnostic).
    fn fps_por_forced(&self) -> &FpsPor {
        self.fps_por.get_or_init(|| fps_por(self.l, &self.holes))
    }

    /// The candidate-sharpened POR table (`None` outside the 2..=64
    /// worker range POR supports), forcing the footprint pass on first
    /// use.
    pub(crate) fn por_table(&self) -> Option<&PorTable> {
        self.fps_por_forced().por.as_ref()
    }

    /// The candidate-sharpened POR table beside a freshly built static
    /// (candidate-independent) one, when POR applies. The engines never
    /// consult the static table, so only these diagnostics build it,
    /// once per call.
    fn sharp_and_static(&self) -> Option<(&PorTable, PorTable)> {
        Some((self.por_table()?, PorTable::new(self.l)))
    }

    /// Number of (worker, pc) transition footprint masks the
    /// candidate's constants made strictly tighter than the static
    /// (hole-agnostic) analysis — the sharpening POR benefits from.
    /// Builds the static table each call: ask once per artifact.
    pub fn sharpened_masks(&self) -> u64 {
        self.sharp_and_static().map_or(0, |(sharp, base)| {
            debug_assert!(
                sharp.refines(&base),
                "sharpened footprints must refine static ones"
            );
            sharp.sharpened_vs(&base)
        })
    }

    /// True when every candidate-sharpened footprint mask is a subset
    /// of the corresponding static mask — the soundness side condition
    /// the sharpened POR tables rely on (always expected to hold;
    /// exposed for the differential property test). Builds the static
    /// table each call: ask once per artifact.
    pub fn footprint_refines_static(&self) -> bool {
        self.sharp_and_static()
            .is_none_or(|(sharp, base)| sharp.refines(&base))
    }

    /// Bit-for-bit artifact equality: program, candidate, micro-op
    /// code, footprints and POR masks all equal. Forces the lazy table
    /// of both artifacts. `perfbench/src/trace.rs` calls it to compare
    /// two seals of one candidate.
    #[doc(hidden)]
    pub fn artifact_eq(&self, other: &CompiledProgram<'_>) -> bool {
        std::ptr::eq(self.l, other.l)
            && self.holes.values() == other.holes.values()
            && self.code == other.code
            && self.fps_por_forced().thread_fps == other.fps_por_forced().thread_fps
            && self.por_table() == other.por_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_ir::{desugar::desugar_program, lower::lower_program, Config};
    use std::sync::Arc;

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower_program(&sk, holes, &cfg).unwrap()
    }

    fn b(rv: Rv) -> Arc<Rv> {
        Arc::new(rv)
    }

    /// `null.v` for the first struct pool.
    fn deref_null() -> Rv {
        Rv::Field {
            sid: 0,
            fid: 0,
            obj: b(Rv::Const(0)),
        }
    }

    /// A buffer with `nlocals` scratch locals pushed, plus the pieces
    /// every evaluator test needs.
    fn scratch_state(l: &Lowered, nlocals: usize) -> (StateLayout, StateBuf, usize) {
        let lay = StateLayout::new(l);
        let mut buf = StateBuf::initial(&lay, l);
        let lb = buf.push_scratch(nlocals);
        (lay, buf, lb)
    }

    /// Seals `rv` under `l`'s identity candidate.
    fn code(rv: &Rv, l: &Lowered, lay: &StateLayout) -> Code {
        compile_code_folded(rv, &l.holes.identity_assignment(), l, lay, &mut Vec::new())
    }

    /// Seals `op` under `l`'s identity candidate.
    fn cop(op: &Op, l: &Lowered, lay: &StateLayout) -> COp {
        compile_op_folded(op, &l.holes.identity_assignment(), l, lay, &mut Vec::new())
    }

    /// Seals `rv` and evaluates it on `l`'s initial state.
    fn eval(rv: &Rv, l: &Lowered) -> EvalResult {
        let (lay, buf, lb) = scratch_state(l, 4);
        code(rv, l, &lay).eval(&buf, lb, &l.config)
    }

    #[test]
    fn expressions_evaluate_to_expected_values() {
        // Globals: g = 5 at 0, a[3] at 1..=3; ints are 8 bits wide.
        let l = lowered("int g = 5; int[3] a; struct N { int v = 2; } harness void main() { }");
        let cases = vec![
            (Rv::Const(7), Ok(7)),
            (Rv::Global(0), Ok(5)),
            (
                Rv::Binary(BinOp::Add, b(Rv::Global(0)), b(Rv::Const(100))),
                Ok(105),
            ),
            (
                Rv::Binary(BinOp::And, b(Rv::Const(0)), b(deref_null())),
                Ok(0),
            ),
            (
                Rv::Binary(BinOp::Or, b(Rv::Const(1)), b(deref_null())),
                Ok(1),
            ),
            (
                Rv::Binary(BinOp::And, b(Rv::Global(0)), b(Rv::Global(0))),
                Ok(1),
            ),
            (deref_null(), Err(FailureKind::NullDeref)),
            (
                Rv::GlobalDyn {
                    base: 1,
                    len: 3,
                    ix: b(Rv::Const(5)),
                },
                Err(FailureKind::OutOfBounds),
            ),
            (
                Rv::GlobalDyn {
                    base: 1,
                    len: 3,
                    ix: b(Rv::Const(-1)),
                },
                Err(FailureKind::OutOfBounds),
            ),
            (
                Rv::Ite(b(Rv::Global(0)), b(Rv::Const(10)), b(deref_null())),
                Ok(10),
            ),
            (Rv::Unary(UnOp::Not, b(Rv::Global(0))), Ok(0)),
            (
                Rv::Unary(UnOp::Neg, b(Rv::Const(i64::from(i8::MIN)))),
                Ok(i64::from(i8::MIN)),
            ),
            (
                Rv::Binary(BinOp::Mod, b(Rv::Const(7)), b(Rv::Const(3))),
                Ok(1),
            ),
        ];
        for (rv, want) in cases {
            assert_eq!(eval(&rv, &l), want, "on {rv:?}");
        }
    }

    #[test]
    fn lazy_and_suppresses_null_deref() {
        let l = lowered("struct N { int v; } int z; harness void main() { }");
        assert_eq!(eval(&deref_null(), &l), Err(FailureKind::NullDeref));
        // false && null.v / true || null.v: folded away when the left
        // side is a constant, short-circuited at run time otherwise.
        for (left_false, left_true) in [
            (Rv::Const(0), Rv::Const(1)),
            (Rv::Global(0), Rv::Unary(UnOp::Not, b(Rv::Global(0)))),
        ] {
            let guarded = Rv::Binary(BinOp::And, b(left_false), b(deref_null()));
            assert_eq!(eval(&guarded, &l), Ok(0), "{guarded:?}");
            let guarded_or = Rv::Binary(BinOp::Or, b(left_true), b(deref_null()));
            assert_eq!(eval(&guarded_or, &l), Ok(1), "{guarded_or:?}");
        }
    }

    #[test]
    fn arithmetic_wraps_at_width() {
        let l = lowered("int g = 127; harness void main() { }");
        for left in [Rv::Const(127), Rv::Global(0)] {
            let add = Rv::Binary(BinOp::Add, b(left), b(Rv::Const(1)));
            assert_eq!(eval(&add, &l), Ok(-128), "{add:?}");
        }
    }

    #[test]
    fn out_of_bounds_detected() {
        let l = lowered("int[4] a; harness void main() { }");
        for ix in [4, -1] {
            let read = Rv::GlobalDyn {
                base: 0,
                len: 4,
                ix: b(Rv::Const(ix)),
            };
            assert_eq!(eval(&read, &l), Err(FailureKind::OutOfBounds), "a[{ix}]");
        }
    }

    #[test]
    fn alloc_initializes_and_exhausts() {
        let l = lowered("struct N { int v = 9; N next; } harness void main() { }");
        let (lay, mut buf, lb) = scratch_state(&l, 1);
        let mut j = UndoJournal::new();
        let op = cop(
            &Op::Alloc {
                dst: Lv::Local(0),
                sid: 0,
                inits: vec![(0, Rv::Const(5))],
            },
            &l,
            &lay,
        );
        for k in 0..l.config.pool {
            exec_cop(&op, &mut buf, lb, &mut j, &l.config).unwrap();
            assert_eq!(buf.get(lb), (k + 1) as i64);
        }
        // v overridden to 5, default for next is 0.
        assert_eq!(buf.get(lay.heap_cell(0, 0)), 5);
        assert_eq!(buf.get(lay.heap_cell(0, 1)), 0);
        assert_eq!(
            exec_cop(&op, &mut buf, lb, &mut j, &l.config),
            Err(FailureKind::PoolExhausted)
        );
    }

    #[test]
    fn swap_cas_fetchadd_semantics() {
        let l = lowered("int g = 3; harness void main() { }");
        let (lay, mut buf, lb) = scratch_state(&l, 1);
        let mut j = UndoJournal::new();
        let mut run = |op: Op, buf: &mut StateBuf| {
            exec_cop(&cop(&op, &l, &lay), buf, lb, &mut j, &l.config).unwrap()
        };
        run(
            Op::Swap {
                dst: Lv::Local(0),
                loc: Lv::Global(0),
                val: Rv::Const(10),
            },
            &mut buf,
        );
        assert_eq!((buf.get(lb), buf.get(0)), (3, 10));

        run(
            Op::Cas {
                dst: Lv::Local(0),
                loc: Lv::Global(0),
                old: Rv::Const(10),
                new: Rv::Const(11),
            },
            &mut buf,
        );
        assert_eq!((buf.get(lb), buf.get(0)), (1, 11));

        run(
            Op::Cas {
                dst: Lv::Local(0),
                loc: Lv::Global(0),
                old: Rv::Const(10),
                new: Rv::Const(12),
            },
            &mut buf,
        );
        assert_eq!((buf.get(lb), buf.get(0)), (0, 11));

        run(
            Op::FetchAdd {
                dst: Lv::Local(0),
                loc: Lv::Global(0),
                delta: -1,
            },
            &mut buf,
        );
        assert_eq!((buf.get(lb), buf.get(0)), (11, 10));
    }

    #[test]
    fn undo_restores_exact_prior_state() {
        let l = lowered("int g = 3; int h; harness void main() { }");
        let lay = StateLayout::new(&l);
        let mut buf = StateBuf::initial(&lay, &l);
        let mut j = UndoJournal::new();
        let before = buf.clone();
        let mark = j.mark();
        // A swap writes two cells; a second op overwrites one again.
        let lb = buf.push_scratch(1);
        let swap = Op::Swap {
            dst: Lv::Global(1),
            loc: Lv::Global(0),
            val: Rv::Const(10),
        };
        let assign = Op::Assign(Lv::Global(0), Rv::Const(99));
        for op in [swap, assign] {
            exec_cop(&cop(&op, &l, &lay), &mut buf, lb, &mut j, &l.config).unwrap();
        }
        buf.pop_scratch(lb);
        assert_ne!(buf, before);
        j.undo_to(mark, &mut buf);
        assert_eq!(buf, before, "undo must restore the exact prior state");
        assert_eq!(j.total_writes(), 3, "all live writes were journaled");
    }

    #[test]
    fn scratch_writes_are_not_journaled() {
        let l = lowered("int g; harness void main() { }");
        let lay = StateLayout::new(&l);
        let mut buf = StateBuf::initial(&lay, &l);
        let mut j = UndoJournal::new();
        let lb = buf.push_scratch(2);
        let mark = j.mark();
        let op = cop(&Op::Assign(Lv::Local(0), Rv::Const(7)), &l, &lay);
        exec_cop(&op, &mut buf, lb, &mut j, &l.config).unwrap();
        assert_eq!(j.mark(), mark, "scratch write journaled nothing");
        assert_eq!(j.total_writes(), 0);
        buf.pop_scratch(lb);
        // Undoing past the scratch phase is a no-op and must not touch
        // out-of-range offsets.
        j.undo_to(mark, &mut buf);
        assert_eq!(buf.get(0), 0);
    }

    #[test]
    fn folding_preserves_lazy_failure_semantics() {
        let l = lowered("struct N { int v; } harness void main() { }");
        let lay = StateLayout::new(&l);
        // 0 && null.v folds to 0: the deref is never demanded.
        let lazy = Rv::Binary(BinOp::And, b(Rv::Const(0)), b(deref_null()));
        assert_eq!(code(&lazy, &l, &lay).const_val, Some(0));
        // null.v && 0 must not fold: the left side is evaluated first
        // and fails.
        let strict = Rv::Binary(BinOp::And, b(deref_null()), b(Rv::Const(0)));
        assert_eq!(code(&strict, &l, &lay).const_val, None);
        assert_eq!(eval(&strict, &l), Err(FailureKind::NullDeref));
        // 1 || null.v folds to 1.
        let lazy_or = Rv::Binary(BinOp::Or, b(Rv::Const(1)), b(deref_null()));
        assert_eq!(code(&lazy_or, &l, &lay).const_val, Some(1));
        // ?: with a constant condition keeps only the demanded branch.
        let ite = Rv::Ite(b(Rv::Const(0)), b(deref_null()), b(Rv::Const(7)));
        assert_eq!(code(&ite, &l, &lay).const_val, Some(7));
    }

    #[test]
    fn and_with_true_constant_normalizes_to_boolean() {
        let l = lowered("harness void main() { }");
        let lay = StateLayout::new(&l);
        // 2 && x must emit (x != 0), not x: && yields 0/1.
        let e = Rv::Binary(BinOp::And, b(Rv::Const(2)), b(Rv::Local(0)));
        assert_eq!(
            *code(&e, &l, &lay).ins,
            [Ins::Local(0), Ins::Const(0), Ins::Bin(BinOp::Ne)]
        );
        // ...but a comparison result passes through unchanged.
        let cmp = Rv::Binary(BinOp::Lt, b(Rv::Local(0)), b(Rv::Const(3)));
        let e = Rv::Binary(BinOp::And, b(Rv::Const(1)), b(cmp));
        assert_eq!(
            *code(&e, &l, &lay).ins,
            [Ins::Local(0), Ins::Const(3), Ins::Bin(BinOp::Lt)]
        );
    }

    #[test]
    fn const_arithmetic_folds_with_wrapping() {
        let l = lowered("harness void main() { }");
        let lay = StateLayout::new(&l);
        let e = Rv::Binary(BinOp::Add, b(Rv::Const(127)), b(Rv::Const(1)));
        assert_eq!(code(&e, &l, &lay).const_val, Some(l.config.wrap(128)));
        // Division by zero is left unfolded.
        let d = Rv::Binary(BinOp::Div, b(Rv::Const(4)), b(Rv::Const(0)));
        let c = code(&d, &l, &lay);
        assert_eq!(c.const_val, None);
        assert_eq!(*c.ins, [Ins::Const(4), Ins::Const(0), Ins::Bin(BinOp::Div)]);
    }

    #[test]
    fn only_reducing_searches_build_the_por_table() {
        use crate::{check_compiled, ScheduleBank, SearchLimits, Verdict};
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { int t = g; g = t + 1; }
                 assert g == 2;
             }",
        );
        let a = l.holes.identity_assignment();
        let Verdict::Fail(cex) =
            check_compiled(&CompiledProgram::compile(&l, &a), &SearchLimits::default()).verdict
        else {
            panic!("the lost update must fail");
        };
        let bank = ScheduleBank::new(4);
        bank.record(&cex.schedule);

        let cp = CompiledProgram::compile(&l, &a);
        assert!(
            bank.prescreen_compiled(&cp).0.is_some(),
            "the banked schedule refutes"
        );
        let full = SearchLimits {
            por: false,
            ..SearchLimits::default()
        };
        assert!(matches!(
            check_compiled(&cp, &full).verdict,
            Verdict::Fail(_)
        ));
        assert!(
            cp.fps_por.get().is_none(),
            "the prescreen and a por: false search must not build footprints"
        );
        let code_bytes = cp.heap_bytes();
        assert!(code_bytes > 0, "the micro-op code is counted");
        check_compiled(&cp, &SearchLimits::default());
        assert!(
            cp.fps_por.get().is_some_and(|f| f.por.is_some()),
            "a reducing search builds the candidate's POR table"
        );
        assert!(
            cp.heap_bytes() > code_bytes,
            "built footprints and POR table are counted"
        );
    }

    #[test]
    fn compile_produces_hole_free_artifact_with_sharp_footprints() {
        let l = lowered(
            "int[4] a;
             harness void main() {
                 fork (i; 2) { a[??(2) + i] = 1; }
                 assert a[0] >= 0;
             }",
        );
        let a = l.holes.identity_assignment();
        let cp = CompiledProgram::compile(&l, &a);
        assert!(cp.footprint_refines_static());
        assert!(
            cp.sharpened_masks() > 0,
            "folded hole index must tighten the whole-array footprint"
        );
        assert_eq!(cp.code.len(), l.workers.len() + 2);
        for (tid, tc) in cp.code.iter().enumerate() {
            assert_eq!(
                tc.steps.len(),
                l.thread(tid).steps.len(),
                "thread {tid}: sealing must keep the step structure"
            );
        }
        assert!(cp.compile_us() < 10_000_000, "compile time is measured");
    }
}
