//! Static effect footprints over shared state.
//!
//! Every [`Op`]/[`Rv`]/[`Lv`] yields a [`Footprint`]: the set of shared
//! locations it may read and may write, plus synchronization effects.
//! Footprints are the single definition of "this step interacts with
//! other threads" — [`Step::new`] derives its `shared` flag from
//! [`Footprint::is_shared`], and the model checker's partial-order
//! reduction derives its independence relation from
//! [`Footprint::may_conflict`].
//!
//! Locations are *abstract*: a dynamic array access whose index cannot
//! be resolved statically widens to the whole region, a heap field
//! access widens to the field's column across the entire pool
//! (object identity is dynamic), and an allocation conflicts with the
//! pool counter and every field column of its struct. Widening is
//! always conservative: if two concrete executions can touch the same
//! cell, their footprints overlap.
//!
//! [`FootprintTable`] sharpens the per-step footprints with a forward
//! constant propagation over each thread's locals. This is what makes
//! the relation useful on lowered programs: fork instantiation turns
//! the fork variable into a constant-initialized local
//! (`l<i> = Const(t)`), so per-thread array accesses like `senses[th]`
//! only resolve to distinct cells once that constant is propagated
//! into the index expression. In the *static* table hole values are
//! never propagated — a footprint must hold for every candidate. The
//! *candidate-sharpened* table ([`FootprintTable::sharpened`],
//! [`thread_footprints_sharpened`]) additionally resolves holes
//! against one fixed [`Assignment`]: hole constants flow through the
//! same per-local propagation (`int k = ??(2); a[k+i]` resolves to an
//! exact cell), statically dead guards empty their steps, and branches
//! an evaluable condition never demands are pruned. Sharpened
//! footprints are only sound for that one candidate; the partial-order
//! reduction builds its per-candidate conflict masks from them.

use crate::config::Config;
use crate::hole::Assignment;
use crate::lower::{fold_const_binop, fold_const_unop};
use crate::step::{FieldId, GlobalId, Lowered, Lv, Op, Rv, Step, StructId, Thread, ThreadId};
use psketch_lang::ast::BinOp;

/// An abstract shared location.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Loc {
    /// One global cell (named slot, or a statically resolved array
    /// cell).
    Global(GlobalId),
    /// A global array region whose accessed cell is not statically
    /// known.
    GlobalRegion {
        /// First slot of the region.
        base: GlobalId,
        /// Region length.
        len: usize,
    },
    /// A heap field column: field `fid` of every object in pool `sid`.
    Field {
        /// Struct pool.
        sid: StructId,
        /// Field index.
        fid: FieldId,
    },
    /// The allocation state of pool `sid` (the bump counter plus the
    /// fresh object's field initialization — overlaps every
    /// [`Loc::Field`] of the same pool).
    Alloc(StructId),
}

impl Loc {
    /// Can the two abstract locations name a common concrete cell?
    pub fn overlaps(&self, other: &Loc) -> bool {
        match (*self, *other) {
            (Loc::Global(a), Loc::Global(b)) => a == b,
            (Loc::Global(a), Loc::GlobalRegion { base, len })
            | (Loc::GlobalRegion { base, len }, Loc::Global(a)) => base <= a && a < base + len,
            (Loc::GlobalRegion { base: a, len: al }, Loc::GlobalRegion { base: b, len: bl }) => {
                a < b + bl && b < a + al
            }
            (Loc::Field { sid: a, fid: af }, Loc::Field { sid: b, fid: bf }) => a == b && af == bf,
            (Loc::Alloc(a), Loc::Alloc(b)) => a == b,
            (Loc::Alloc(a), Loc::Field { sid, .. }) | (Loc::Field { sid, .. }, Loc::Alloc(a)) => {
                a == sid
            }
            _ => false,
        }
    }
}

/// The static effect footprint of a step, operation or expression.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Footprint {
    /// Shared locations that may be read (including every cell whose
    /// value determines whether the step fails: asserted conditions,
    /// array indices, dereferenced objects, the pool counter).
    pub reads: Vec<Loc>,
    /// Shared locations that may be written.
    pub writes: Vec<Loc>,
    /// Atomic-section bracket (`AtomicBegin`/`AtomicEnd`): a
    /// scheduling point even when the body touches nothing.
    pub sync: bool,
    /// Conditional atomic: enabledness depends on the condition in
    /// `reads`.
    pub blocking: bool,
}

impl Footprint {
    /// The empty footprint.
    pub fn empty() -> Footprint {
        Footprint::default()
    }

    /// Footprint of evaluating an r-value (reads only).
    pub fn of_rv(rv: &Rv) -> Footprint {
        let mut fp = Footprint::empty();
        Collector::plain().reads_of(rv, &mut fp);
        fp
    }

    /// Footprint of an operation (guard excluded).
    pub fn of_op(op: &Op) -> Footprint {
        let mut fp = Footprint::empty();
        Collector::plain().op_of(op, &mut fp);
        fp
    }

    /// Footprint of a guarded step: the guard's reads plus the
    /// operation's effects.
    pub fn of_step(step: &Step) -> Footprint {
        Footprint::of_parts(&step.guard, &step.op)
    }

    /// As [`Footprint::of_step`], before the step is assembled.
    pub fn of_parts(guard: &Rv, op: &Op) -> Footprint {
        let mut fp = Footprint::empty();
        let c = Collector::plain();
        c.reads_of(guard, &mut fp);
        c.op_of(op, &mut fp);
        fp
    }

    /// Does the step interact with other threads? True when it reads
    /// or writes any shared location, or synchronizes. Non-shared
    /// steps commute with everything and are not scheduling points.
    pub fn is_shared(&self) -> bool {
        !self.reads.is_empty() || !self.writes.is_empty() || self.sync
    }

    /// Conservative dependence: true when the two footprints may touch
    /// a common location with at least one write. Two steps of
    /// *different* threads with `!a.may_conflict(b)` commute: either
    /// execution order yields the same state, the same failures and
    /// the same enabledness (locals are thread-private and guards are
    /// pure over locals and holes, so only shared locations carry
    /// cross-thread effects).
    pub fn may_conflict(&self, other: &Footprint) -> bool {
        overlaps_any(&self.writes, &other.writes)
            || overlaps_any(&self.writes, &other.reads)
            || overlaps_any(&other.writes, &self.reads)
    }

    /// Unions `other` into `self`.
    pub fn absorb(&mut self, other: &Footprint) {
        for l in &other.reads {
            add_loc(&mut self.reads, *l);
        }
        for l in &other.writes {
            add_loc(&mut self.writes, *l);
        }
        self.sync |= other.sync;
        self.blocking |= other.blocking;
    }

    fn read(&mut self, l: Loc) {
        add_loc(&mut self.reads, l);
    }

    fn write(&mut self, l: Loc) {
        add_loc(&mut self.writes, l);
    }
}

fn add_loc(v: &mut Vec<Loc>, l: Loc) {
    if !v.contains(&l) {
        v.push(l);
    }
}

fn overlaps_any(a: &[Loc], b: &[Loc]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.overlaps(y)))
}

/// Best-effort static evaluation of a pure expression under a
/// per-local constant environment. `Some(v)` guarantees every runtime
/// evaluation (any schedule — and, when `holes` is `None`, any
/// candidate) yields `v` without failing; shared reads never fold.
/// With `holes` and `config` set, `Rv::Hole` resolves to that one
/// candidate's constant, wrapped like a literal, so the guarantee
/// narrows to executions of that candidate.
/// Folding of operators requires a [`Config`] (for integer wrapping)
/// and reuses the lowering-time folder, so compile-time and
/// footprint-time folding share one semantics.
fn eval_static(
    rv: &Rv,
    env: &[Option<i64>],
    config: Option<&Config>,
    holes: Option<&Assignment>,
) -> Option<i64> {
    match rv {
        Rv::Const(c) => Some(*c),
        Rv::Local(l) => env.get(*l).copied().flatten(),
        Rv::Hole(h) => Some(config?.wrap(holes?.value(*h) as i64)),
        Rv::Unary(op, a) => {
            let cfg = config?;
            let v = eval_static(a, env, config, holes)?;
            Some(fold_const_unop(*op, v, cfg))
        }
        Rv::Binary(op, a, b) => {
            let cfg = config?;
            let av = eval_static(a, env, config, holes);
            // Short-circuit (mirrors the evaluator: the right operand
            // is only demanded when reached).
            match (op, av) {
                (BinOp::And, Some(0)) => return Some(0),
                (BinOp::Or, Some(v)) if v != 0 => return Some(1),
                _ => {}
            }
            let bv = eval_static(b, env, config, holes)?;
            fold_const_binop(*op, av?, bv, cfg)
        }
        Rv::Ite(c, a, b) => {
            if eval_static(c, env, config, holes)? != 0 {
                eval_static(a, env, config, holes)
            } else {
                eval_static(b, env, config, holes)
            }
        }
        Rv::Global(_) | Rv::GlobalDyn { .. } | Rv::LocalDyn { .. } | Rv::Field { .. } => None,
    }
}

/// Walks expressions and operations, adding locations to a footprint.
/// Carries the constant environment used to resolve dynamic indices to
/// exact cells, and — on the candidate-sharpened path — the hole
/// assignment used to prune branches evaluation never demands.
struct Collector<'a> {
    env: &'a [Option<i64>],
    config: Option<&'a Config>,
    holes: Option<&'a Assignment>,
}

impl<'a> Collector<'a> {
    /// No environment: indices only resolve when literally constant.
    fn plain() -> Collector<'static> {
        Collector {
            env: &[],
            config: None,
            holes: None,
        }
    }

    fn value(&self, rv: &Rv) -> Option<i64> {
        eval_static(rv, self.env, self.config, self.holes)
    }

    fn index(&self, ix: &Rv, len: usize) -> Option<usize> {
        match self.value(ix) {
            Some(c) if 0 <= c && (c as usize) < len => Some(c as usize),
            _ => None,
        }
    }

    fn reads_of(&self, rv: &Rv, fp: &mut Footprint) {
        match rv {
            Rv::Const(_) | Rv::Local(_) | Rv::Hole(_) => {}
            Rv::Global(g) => fp.read(Loc::Global(*g)),
            Rv::GlobalDyn { base, len, ix } => match self.index(ix, *len) {
                Some(c) => fp.read(Loc::Global(base + c)),
                None => {
                    fp.read(Loc::GlobalRegion {
                        base: *base,
                        len: *len,
                    });
                    self.reads_of(ix, fp);
                }
            },
            Rv::LocalDyn { ix, .. } => self.reads_of(ix, fp),
            Rv::Field { sid, fid, obj } => {
                fp.read(Loc::Field {
                    sid: *sid,
                    fid: *fid,
                });
                self.reads_of(obj, fp);
            }
            Rv::Unary(_, a) => self.reads_of(a, fp),
            Rv::Binary(op, a, b) => {
                // Candidate-sharpened pruning: when the left operand
                // evaluates statically, its demanded part is read-free
                // (shared reads never fold), and a short-circuiting
                // `&&`/`||` never demands the right operand at all.
                // Mirrors the demanded-branch dropping candidate
                // specialization performs on materialized trees. The
                // static table never prunes: its footprints must cover
                // every candidate.
                if self.holes.is_some() && matches!(op, BinOp::And | BinOp::Or) {
                    match (op, self.value(a)) {
                        (BinOp::And, Some(0)) => return,
                        (BinOp::Or, Some(v)) if v != 0 => return,
                        (_, Some(_)) => return self.reads_of(b, fp),
                        _ => {}
                    }
                }
                self.reads_of(a, fp);
                self.reads_of(b, fp);
            }
            Rv::Ite(c, a, b) => {
                if self.holes.is_some() {
                    if let Some(v) = self.value(c) {
                        return self.reads_of(if v != 0 { a } else { b }, fp);
                    }
                }
                self.reads_of(c, fp);
                self.reads_of(a, fp);
                self.reads_of(b, fp);
            }
        }
    }

    /// The written location, plus any shared reads the address
    /// resolution performs.
    fn write_of(&self, lv: &Lv, fp: &mut Footprint) {
        match lv {
            Lv::Local(_) => {}
            Lv::Global(g) => fp.write(Loc::Global(*g)),
            Lv::GlobalDyn { base, len, ix } => match self.index(ix, *len) {
                Some(c) => fp.write(Loc::Global(base + c)),
                None => {
                    fp.write(Loc::GlobalRegion {
                        base: *base,
                        len: *len,
                    });
                    self.reads_of(ix, fp);
                }
            },
            Lv::LocalDyn { ix, .. } => self.reads_of(ix, fp),
            Lv::Field { sid, fid, obj } => {
                fp.write(Loc::Field {
                    sid: *sid,
                    fid: *fid,
                });
                self.reads_of(obj, fp);
            }
        }
    }

    /// A location both read and written (the atomics' `loc` operand).
    fn rw_of(&self, lv: &Lv, fp: &mut Footprint) {
        match lv {
            Lv::Local(_) => {}
            Lv::Global(g) => {
                fp.read(Loc::Global(*g));
                fp.write(Loc::Global(*g));
            }
            Lv::GlobalDyn { base, len, ix } => match self.index(ix, *len) {
                Some(c) => {
                    fp.read(Loc::Global(base + c));
                    fp.write(Loc::Global(base + c));
                }
                None => {
                    let region = Loc::GlobalRegion {
                        base: *base,
                        len: *len,
                    };
                    fp.read(region);
                    fp.write(region);
                    self.reads_of(ix, fp);
                }
            },
            Lv::LocalDyn { ix, .. } => self.reads_of(ix, fp),
            Lv::Field { sid, fid, obj } => {
                let col = Loc::Field {
                    sid: *sid,
                    fid: *fid,
                };
                fp.read(col);
                fp.write(col);
                self.reads_of(obj, fp);
            }
        }
    }

    fn op_of(&self, op: &Op, fp: &mut Footprint) {
        match op {
            Op::Assign(lv, rv) => {
                self.write_of(lv, fp);
                self.reads_of(rv, fp);
            }
            Op::Swap { dst, loc, val } => {
                self.write_of(dst, fp);
                self.rw_of(loc, fp);
                self.reads_of(val, fp);
            }
            Op::Cas { dst, loc, old, new } => {
                self.write_of(dst, fp);
                self.rw_of(loc, fp);
                self.reads_of(old, fp);
                self.reads_of(new, fp);
            }
            Op::FetchAdd { dst, loc, .. } => {
                self.write_of(dst, fp);
                self.rw_of(loc, fp);
            }
            Op::Alloc { dst, sid, inits } => {
                // The bump counter is read (exhaustion check, object
                // identity) and written; `Loc::Alloc` also overlaps
                // every field column of the pool, covering the fresh
                // object's field initialization.
                fp.read(Loc::Alloc(*sid));
                fp.write(Loc::Alloc(*sid));
                self.write_of(dst, fp);
                for (_, rv) in inits {
                    self.reads_of(rv, fp);
                }
            }
            Op::Assert(c) => self.reads_of(c, fp),
            Op::AtomicBegin(None) => fp.sync = true,
            Op::AtomicBegin(Some(c)) => {
                fp.sync = true;
                fp.blocking = true;
                self.reads_of(c, fp);
            }
            Op::AtomicEnd => fp.sync = true,
        }
    }
}

/// Per-thread, per-step footprints for a whole lowered program,
/// sharpened by forward constant propagation over each thread's
/// locals. Computed once per [`Lowered`]; candidate-independent (hole
/// values never propagate).
#[derive(Clone, Debug)]
pub struct FootprintTable {
    per_thread: Vec<Vec<Footprint>>,
}

impl FootprintTable {
    /// Computes the table for every thread (prologue, workers,
    /// epilogue).
    pub fn new(l: &Lowered) -> FootprintTable {
        let per_thread = (0..l.num_threads())
            .map(|tid| thread_footprints(l.thread(tid), &l.config))
            .collect();
        FootprintTable { per_thread }
    }

    /// Footprint of step `ix` of thread `tid`.
    pub fn step(&self, tid: ThreadId, ix: usize) -> &Footprint {
        &self.per_thread[tid][ix]
    }

    /// All step footprints of one thread, in program order.
    pub fn thread(&self, tid: ThreadId) -> &[Footprint] {
        &self.per_thread[tid]
    }

    /// Computes the candidate-sharpened table: same analysis as
    /// [`FootprintTable::new`], but with every hole resolved to its
    /// value under `holes`, so hole constants propagate through locals
    /// and statically-settled branches stop contributing reads. Every
    /// footprint refines the corresponding static one (the analysis
    /// only gains constants, never loses any).
    pub fn sharpened(l: &Lowered, holes: &Assignment) -> FootprintTable {
        let per_thread = (0..l.num_threads())
            .map(|tid| thread_footprints_sharpened(l.thread(tid), &l.config, holes))
            .collect();
        FootprintTable { per_thread }
    }
}

/// The constant environment holds, for each local slot, a value the
/// slot is guaranteed to contain whenever control reaches the current
/// step — under every schedule and every candidate. Assignments under
/// non-constant guards merge (keep only an agreeing value); any write
/// whose value or destination cannot be resolved kills the affected
/// slots.
fn thread_footprints(thread: &Thread, config: &Config) -> Vec<Footprint> {
    thread_footprints_with(thread, config, None)
}

/// Candidate-sharpened variant of [`thread_footprints`]: holes resolve
/// to their assigned values, so `int k = ??(2); a[k+i]` sharpens
/// exactly like a hole written directly in the index. The guarantee
/// narrows from "every candidate" to "this candidate", which is what
/// the per-candidate POR tables need.
pub fn thread_footprints_sharpened(
    thread: &Thread,
    config: &Config,
    holes: &Assignment,
) -> Vec<Footprint> {
    thread_footprints_with(thread, config, Some(holes))
}

fn thread_footprints_with(
    thread: &Thread,
    config: &Config,
    holes: Option<&Assignment>,
) -> Vec<Footprint> {
    let mut env: Vec<Option<i64>> = vec![None; thread.locals.len()];
    let mut out = Vec::with_capacity(thread.steps.len());
    for step in &thread.steps {
        let guard = eval_static(&step.guard, &env, Some(config), holes);
        if guard == Some(0) {
            // Statically dead: the step never executes, contributes no
            // effects and changes no locals.
            out.push(Footprint::empty());
            continue;
        }
        let c = Collector {
            env: &env,
            config: Some(config),
            holes,
        };
        let mut fp = Footprint::empty();
        c.reads_of(&step.guard, &mut fp);
        c.op_of(&step.op, &mut fp);
        out.push(fp);
        update_env(&mut env, step, guard.is_some(), config, holes);
    }
    out
}

fn update_env(
    env: &mut [Option<i64>],
    step: &Step,
    definite: bool,
    config: &Config,
    holes: Option<&Assignment>,
) {
    // A local receives a tracked constant only from a plain Assign of
    // a statically evaluable value; every other write kills it.
    let assign = |env: &mut [Option<i64>], slot: usize, v: Option<i64>| {
        if definite {
            env[slot] = v;
        } else if env[slot] != v {
            env[slot] = None;
        }
    };
    let kill_lv = |env: &mut [Option<i64>], lv: &Lv| match lv {
        Lv::Local(l) => env[*l] = None,
        Lv::LocalDyn { base, len, ix } => match eval_static(ix, env, Some(config), holes) {
            Some(c) if 0 <= c && (c as usize) < *len => env[base + c as usize] = None,
            _ => {
                for slot in &mut env[*base..*base + *len] {
                    *slot = None;
                }
            }
        },
        Lv::Global(_) | Lv::GlobalDyn { .. } | Lv::Field { .. } => {}
    };
    match &step.op {
        Op::Assign(Lv::Local(l), rv) => {
            let v = eval_static(rv, env, Some(config), holes);
            assign(env, *l, v);
        }
        Op::Assign(Lv::LocalDyn { base, len, ix }, rv) => {
            match eval_static(ix, env, Some(config), holes) {
                Some(c) if 0 <= c && (c as usize) < *len => {
                    let v = eval_static(rv, env, Some(config), holes);
                    assign(env, base + c as usize, v);
                }
                _ => {
                    for slot in &mut env[*base..*base + *len] {
                        *slot = None;
                    }
                }
            }
        }
        Op::Assign(_, _) => {}
        Op::Swap { dst, loc, .. } | Op::Cas { dst, loc, .. } | Op::FetchAdd { dst, loc, .. } => {
            kill_lv(env, dst);
            kill_lv(env, loc);
        }
        Op::Alloc { dst, .. } => kill_lv(env, dst),
        Op::Assert(_) | Op::AtomicBegin(_) | Op::AtomicEnd => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_lang::error::Span;
    use std::sync::Arc;

    fn gdyn_read(base: usize, len: usize, ix: Rv) -> Rv {
        Rv::GlobalDyn {
            base,
            len,
            ix: Arc::new(ix),
        }
    }

    /// `n` int locals named `l0`, `l1`, …
    fn int_locals(n: usize) -> Vec<crate::step::LocalSlot> {
        (0..n)
            .map(|i| crate::step::LocalSlot {
                name: format!("l{i}"),
                kind: crate::step::ScalarKind::Int,
            })
            .collect()
    }

    fn eq(a: Rv, b: Rv) -> Rv {
        Rv::Binary(BinOp::Eq, Arc::new(a), Arc::new(b))
    }

    #[test]
    fn loc_overlap_rules() {
        let g2 = Loc::Global(2);
        let r = Loc::GlobalRegion { base: 1, len: 3 };
        assert!(g2.overlaps(&g2));
        assert!(!g2.overlaps(&Loc::Global(3)));
        assert!(g2.overlaps(&r) && r.overlaps(&g2));
        assert!(!Loc::Global(4).overlaps(&r));
        assert!(r.overlaps(&Loc::GlobalRegion { base: 3, len: 2 }));
        assert!(!r.overlaps(&Loc::GlobalRegion { base: 4, len: 2 }));
        let f00 = Loc::Field { sid: 0, fid: 0 };
        let f01 = Loc::Field { sid: 0, fid: 1 };
        assert!(f00.overlaps(&f00) && !f00.overlaps(&f01));
        assert!(Loc::Alloc(0).overlaps(&f01));
        assert!(!Loc::Alloc(1).overlaps(&f01));
        assert!(!f00.overlaps(&g2));
    }

    #[test]
    fn conflict_needs_a_write() {
        let mut a = Footprint::empty();
        a.read(Loc::Global(0));
        let mut b = Footprint::empty();
        b.read(Loc::Global(0));
        assert!(!a.may_conflict(&b), "read/read never conflicts");
        b.write(Loc::Global(0));
        assert!(a.may_conflict(&b) && b.may_conflict(&a));
        let mut c = Footprint::empty();
        c.write(Loc::Global(1));
        assert!(!a.may_conflict(&c));
    }

    #[test]
    fn step_footprints_match_shared_flag() {
        let cases = [
            Step::new(
                Rv::Const(1),
                Op::Assign(Lv::Local(0), Rv::Local(1)),
                Span::default(),
            ),
            Step::new(
                Rv::Const(1),
                Op::Assign(Lv::Local(0), Rv::Global(0)),
                Span::default(),
            ),
            Step::new(Rv::Const(1), Op::Assert(Rv::Local(0)), Span::default()),
            Step::new(Rv::Const(1), Op::AtomicEnd, Span::default()),
            Step::new(
                Rv::Const(1),
                Op::Alloc {
                    dst: Lv::Local(0),
                    sid: 0,
                    inits: vec![],
                },
                Span::default(),
            ),
        ];
        for s in &cases {
            assert_eq!(
                Footprint::of_step(s).is_shared(),
                s.shared,
                "footprint and shared flag disagree on {:?}",
                s.op
            );
        }
    }

    #[test]
    fn const_prop_resolves_dynamic_index_to_cell() {
        // l0 = 2; x = g[l0]  — the read resolves to cell base+2.
        let thread = Thread::new(
            "t".into(),
            vec![
                Step::new(
                    Rv::Const(1),
                    Op::Assign(Lv::Local(0), Rv::Const(2)),
                    Span::default(),
                ),
                Step::new(
                    Rv::Const(1),
                    Op::Assign(Lv::Local(1), gdyn_read(0, 4, Rv::Local(0))),
                    Span::default(),
                ),
            ],
            int_locals(2),
        );
        let fps = thread_footprints(&thread, &Config::default());
        assert_eq!(fps[1].reads, vec![Loc::Global(2)]);
        // Without the environment, the same read widens to the region.
        let wide = Footprint::of_step(&thread.steps[1]);
        assert_eq!(wide.reads, vec![Loc::GlobalRegion { base: 0, len: 4 }]);
    }

    #[test]
    fn conditional_assign_merges_conservatively() {
        // Under a non-constant guard, l0 = 2 must not be trusted.
        let thread = Thread::new(
            "t".into(),
            vec![
                Step::new(
                    Rv::Hole(0),
                    Op::Assign(Lv::Local(0), Rv::Const(2)),
                    Span::default(),
                ),
                Step::new(
                    Rv::Const(1),
                    Op::Assign(Lv::Local(1), gdyn_read(0, 4, Rv::Local(0))),
                    Span::default(),
                ),
            ],
            int_locals(2),
        );
        let fps = thread_footprints(&thread, &Config::default());
        assert_eq!(fps[1].reads, vec![Loc::GlobalRegion { base: 0, len: 4 }]);
    }

    #[test]
    fn sharpened_table_propagates_hole_constants_through_locals() {
        // l0 = ??; l1 = g[l0] — static analysis must keep the region
        // (any hole value is possible), but under a concrete
        // assignment the read resolves to one cell.
        let thread = Thread::new(
            "t".into(),
            vec![
                Step::new(
                    Rv::Const(1),
                    Op::Assign(Lv::Local(0), Rv::Hole(0)),
                    Span::default(),
                ),
                Step::new(
                    Rv::Const(1),
                    Op::Assign(Lv::Local(1), gdyn_read(0, 4, Rv::Local(0))),
                    Span::default(),
                ),
            ],
            int_locals(2),
        );
        let cfg = Config::default();
        let wide = thread_footprints(&thread, &cfg);
        assert_eq!(wide[1].reads, vec![Loc::GlobalRegion { base: 0, len: 4 }]);
        let holes = crate::hole::Assignment::from_values(vec![3]);
        let sharp = thread_footprints_sharpened(&thread, &cfg, &holes);
        assert_eq!(sharp[1].reads, vec![Loc::Global(3)]);
    }

    #[test]
    fn sharpened_table_resolves_hole_plus_fork_index_from_source() {
        // The ROADMAP example: `int k = ??(2); a[k+i]` must sharpen
        // the array-region write to one cell per worker once hole
        // constants flow through locals.
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "int[4] a; int g;
             harness void main() {
                 fork (i; 2) { int k = ??(2); a[k + i] = 1; g = a[k + i]; }
                 assert g >= 0;
             }",
        )
        .expect("test source must type-check");
        let (sk, holes) =
            crate::desugar::desugar_program(&p, &cfg).expect("test source must desugar");
        let l = crate::lower::lower_program(&sk, holes, &cfg).expect("test source must lower");
        let a = crate::hole::Assignment::from_values(vec![1; l.holes.num_holes()]);
        let stat = FootprintTable::new(&l);
        let sharp = FootprintTable::sharpened(&l, &a);
        let mut regions_static = 0usize;
        let mut cells = Vec::new();
        for w in 0..l.workers.len() {
            let tid = w + 1;
            for (ix, sfp) in stat.thread(tid).iter().enumerate() {
                let wide = sfp
                    .reads
                    .iter()
                    .chain(&sfp.writes)
                    .filter(|loc| matches!(loc, Loc::GlobalRegion { .. }))
                    .count();
                if wide == 0 {
                    continue;
                }
                regions_static += wide;
                // The sharpened footprint of the same step must have
                // resolved every region access to a single cell.
                let nfp = sharp.step(tid, ix);
                for loc in nfp.reads.iter().chain(&nfp.writes) {
                    assert!(
                        matches!(loc, Loc::Global(_)),
                        "worker {w} step {ix}: sharpened footprint still has {loc:?}"
                    );
                    cells.push((w, *loc));
                }
            }
        }
        assert!(
            regions_static > 0,
            "static analysis should see region accesses for a[k+i]"
        );
        // Workers resolve to different cells (k is shared, i differs).
        let w0: Vec<_> = cells.iter().filter(|(w, _)| *w == 0).collect();
        let w1: Vec<_> = cells.iter().filter(|(w, _)| *w == 1).collect();
        assert!(!w0.is_empty() && !w1.is_empty());
        assert_ne!(w0[0].1, w1[0].1, "fork index must shift the resolved cell");
    }

    #[test]
    fn sharpened_settled_branch_drops_untaken_reads() {
        // guard `??(2) == 1` with the hole assigned 0: the guarded
        // read disappears from the sharpened table but stays (merged
        // conservatively) in the static one.
        let thread = Thread::new(
            "t".into(),
            vec![Step::new(
                eq(Rv::Hole(0), Rv::Const(1)),
                Op::Assign(Lv::Local(0), Rv::Global(2)),
                Span::default(),
            )],
            int_locals(1),
        );
        let cfg = Config::default();
        let wide = thread_footprints(&thread, &cfg);
        assert_eq!(wide[0].reads, vec![Loc::Global(2)]);
        let holes = crate::hole::Assignment::from_values(vec![0]);
        let sharp = thread_footprints_sharpened(&thread, &cfg, &holes);
        assert!(
            sharp[0].reads.is_empty(),
            "dead step must contribute nothing"
        );
        let taken = crate::hole::Assignment::from_values(vec![1]);
        let live = thread_footprints_sharpened(&thread, &cfg, &taken);
        assert_eq!(live[0].reads, vec![Loc::Global(2)]);
    }

    #[test]
    fn blocking_atomic_reads_its_condition() {
        let s = Step::new(
            Rv::Const(1),
            Op::AtomicBegin(Some(eq(Rv::Global(3), Rv::Const(1)))),
            Span::default(),
        );
        let fp = Footprint::of_step(&s);
        assert!(fp.sync && fp.blocking);
        assert_eq!(fp.reads, vec![Loc::Global(3)]);
        assert!(fp.writes.is_empty());
    }
}
