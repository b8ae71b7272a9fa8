//! Lowering to guarded steps ("if-conversion", paper §6).
//!
//! Input: a desugared program (only `HoleRef`/`Choice` unknowns).
//! Output: a [`Lowered`] program — per-thread straight-line sequences
//! of predicated atomic statements in which
//!
//! * every user function call is inlined (copies share holes),
//! * every loop is unrolled to `Config::unroll` iterations with a
//!   termination assertion (liveness as bounded safety),
//! * the single `fork` is instantiated into `n` worker threads,
//! * every branch condition is first captured in a thread-local
//!   temporary, so step *guards* only read locals and holes — the
//!   property that makes skipping disabled steps commute with other
//!   threads and lets a trace be projected onto every candidate.

use crate::config::Config;
use crate::hole::{HoleId, HoleTable};
use crate::step::*;
use psketch_lang::ast::{BinOp, Expr, FnDef, Program, Stmt, Type, UnOp};
use psketch_lang::error::{Phase, SourceError, SourceResult, Span};
use psketch_lang::typecheck::TypeEnv;
use std::collections::HashMap;
use std::sync::Arc;

fn lerr(span: Span, msg: impl Into<String>) -> SourceError {
    SourceError::new(Phase::Type, span, msg)
}

/// Lowers a desugared program around its `harness` function.
///
/// # Errors
///
/// Reports missing harness, multiple/nested `fork`s, recursion,
/// non-constant fork counts, unsupported constructs (multi-dimensional
/// arrays, non-constant divisors), and globals with non-constant
/// initializers.
pub fn lower_program(sketch: &Program, holes: HoleTable, config: &Config) -> SourceResult<Lowered> {
    let harness = sketch
        .harness()
        .ok_or_else(|| lerr(Span::default(), "program has no harness function"))?;
    Lowerer::new(sketch, config)?.lower_harness(harness, holes)
}

/// Lowers an `implements` equivalence check for function `fn_name`:
/// a synthetic harness declares universally-quantified inputs, runs the
/// sketched function and its specification, and asserts equal results.
///
/// Equivalence mode requires both functions to be self-contained
/// (global-free programs), which covers the paper's sequential
/// examples (§3).
///
/// # Errors
///
/// As [`lower_program`]; additionally if the function lacks an
/// `implements` clause or the program has globals.
pub fn lower_equivalence(
    sketch: &Program,
    holes: HoleTable,
    fn_name: &str,
    config: &Config,
) -> SourceResult<Lowered> {
    let f = sketch
        .function(fn_name)
        .ok_or_else(|| lerr(Span::default(), format!("no function {fn_name}")))?;
    let spec_name = f.implements.clone().ok_or_else(|| {
        lerr(
            f.span,
            format!("{fn_name} has no 'implements' specification"),
        )
    })?;
    if !sketch.globals.is_empty() {
        return Err(lerr(
            f.span,
            "equivalence checking requires a global-free program",
        ));
    }
    let span = f.span;
    // Synthesize:  harness void __equiv() { run both on shared inputs,
    //              assert equal results. }
    let mut prog = sketch.clone();
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut arg_exprs = Vec::new();
    for (i, p) in f.params.iter().enumerate() {
        let gname = format!("__in{i}");
        prog.globals.push(psketch_lang::ast::GlobalDef {
            ty: p.ty.clone(),
            name: gname.clone(),
            init: None,
            span,
        });
        arg_exprs.push(Expr::Var(gname, span));
    }
    let call = |name: &str| Expr::Call(name.to_string(), arg_exprs.clone(), span);
    match &f.ret {
        Type::Void => return Err(lerr(f.span, "equivalence checking needs a return value")),
        Type::Array(_, n) => {
            stmts.push(Stmt::Decl(
                f.ret.clone(),
                "__r1".into(),
                Some(call(fn_name)),
                span,
            ));
            stmts.push(Stmt::Decl(
                f.ret.clone(),
                "__r2".into(),
                Some(call(&spec_name)),
                span,
            ));
            for k in 0..*n {
                let ix = |name: &str| {
                    Expr::Index(
                        Box::new(Expr::Var(name.into(), span)),
                        Box::new(Expr::Int(k as i64, span)),
                        span,
                    )
                };
                stmts.push(Stmt::Assert(
                    Expr::Binary(BinOp::Eq, Box::new(ix("__r1")), Box::new(ix("__r2")), span),
                    span,
                ));
            }
        }
        _ => {
            stmts.push(Stmt::Decl(
                f.ret.clone(),
                "__r1".into(),
                Some(call(fn_name)),
                span,
            ));
            stmts.push(Stmt::Decl(
                f.ret.clone(),
                "__r2".into(),
                Some(call(&spec_name)),
                span,
            ));
            stmts.push(Stmt::Assert(
                Expr::Binary(
                    BinOp::Eq,
                    Box::new(Expr::Var("__r1".into(), span)),
                    Box::new(Expr::Var("__r2".into(), span)),
                    span,
                ),
                span,
            ));
        }
    }
    let harness = FnDef {
        name: "__equiv".into(),
        ret: Type::Void,
        params: vec![],
        body: Stmt::Block(stmts),
        implements: None,
        is_harness: true,
        is_generator: false,
        span,
    };
    prog.functions.push(harness.clone());
    let mut lw = Lowerer::new(&prog, config)?;
    for g in &mut lw.globals {
        if g.name.starts_with("__in") {
            g.is_input = true;
        }
    }
    lw.lower_harness(&harness, holes)
}

/// Where a named variable lives: contiguous slots starting at `base`
/// (`len == 1` for scalars).
#[derive(Clone, Debug)]
struct VarTarget {
    global: bool,
    base: usize,
    len: usize,
    kind: ScalarKind,
}

/// An evaluated value: scalar or (flattened) array.
enum Val {
    S(Rv),
    A(Vec<Rv>),
}

impl Val {
    fn scalar(self, span: Span) -> SourceResult<Rv> {
        match self {
            Val::S(rv) => Ok(rv),
            Val::A(_) => Err(lerr(span, "array value used where a scalar is expected")),
        }
    }
}

/// A storage location an l-value expression denotes.
enum Place {
    Cell(Lv),
    /// A (sub)array: `len` is the *full* region length for bounds
    /// checks, `start` the dynamic offset, `count` the element count.
    Region {
        global: bool,
        base: usize,
        len: usize,
        start: Rv,
        count: usize,
    },
}

struct FnFrame {
    done_slot: usize,
    ret_target: Option<VarTarget>,
    may_return: bool,
}

/// Per-thread emission state.
struct ThreadCtx {
    name: String,
    steps: Vec<Step>,
    locals: Vec<LocalSlot>,
    scopes: Vec<HashMap<String, VarTarget>>,
    frames: Vec<FnFrame>,
    pid: i64,
    in_atomic: bool,
    call_depth: usize,
}

impl ThreadCtx {
    fn new(name: &str, pid: i64) -> ThreadCtx {
        ThreadCtx {
            name: name.to_string(),
            steps: Vec::new(),
            locals: Vec::new(),
            scopes: vec![HashMap::new()],
            frames: Vec::new(),
            pid,
            in_atomic: false,
            call_depth: 0,
        }
    }

    fn alloc_local(&mut self, name: &str, kind: ScalarKind, len: usize) -> usize {
        let base = self.locals.len();
        for k in 0..len {
            self.locals.push(LocalSlot {
                name: if len == 1 {
                    name.to_string()
                } else {
                    format!("{name}[{k}]")
                },
                kind,
            });
        }
        base
    }

    fn lookup(&self, name: &str) -> Option<&VarTarget> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn declare(&mut self, name: &str, t: VarTarget) {
        self.scopes.last_mut().unwrap().insert(name.to_string(), t);
    }

    fn into_thread(self) -> Thread {
        Thread::new(self.name, self.steps, self.locals)
    }
}

/// A node's identity in the [`Interner`]: its variant, its scalars and
/// the address of each child.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Const(i64),
    Global(GlobalId),
    Local(LocalId),
    Hole(HoleId),
    GlobalDyn(GlobalId, usize, *const Rv),
    LocalDyn(LocalId, usize, *const Rv),
    Field(StructId, FieldId, *const Rv),
    Unary(UnOp, *const Rv),
    Binary(BinOp, *const Rv, *const Rv),
    Ite(*const Rv, *const Rv, *const Rv),
}

impl Shape {
    fn of(rv: &Rv) -> Shape {
        match rv {
            Rv::Const(v) => Shape::Const(*v),
            Rv::Global(g) => Shape::Global(*g),
            Rv::Local(l) => Shape::Local(*l),
            Rv::Hole(h) => Shape::Hole(*h),
            Rv::GlobalDyn { base, len, ix } => Shape::GlobalDyn(*base, *len, Arc::as_ptr(ix)),
            Rv::LocalDyn { base, len, ix } => Shape::LocalDyn(*base, *len, Arc::as_ptr(ix)),
            Rv::Field { sid, fid, obj } => Shape::Field(*sid, *fid, Arc::as_ptr(obj)),
            Rv::Unary(op, a) => Shape::Unary(*op, Arc::as_ptr(a)),
            Rv::Binary(op, a, b) => Shape::Binary(*op, Arc::as_ptr(a), Arc::as_ptr(b)),
            Rv::Ite(c, a, b) => Shape::Ite(Arc::as_ptr(c), Arc::as_ptr(a), Arc::as_ptr(b)),
        }
    }
}

/// Hash-conses the lowered program's expressions: every child node the
/// lowerer builds comes from [`Interner::node`], so each structurally
/// distinct subexpression is one allocation, shared by every guard,
/// generator alternative and unrolled copy that uses it (DESIGN.md
/// §4m). Children are keyed by address, which is sound because the
/// map keeps every node it handed out alive until lowering ends: no
/// address in a key is freed and reused meanwhile. A step's root
/// expressions stay inline in the step; they are interned only when
/// they become a child.
#[derive(Default)]
struct Interner {
    nodes: HashMap<Shape, Arc<Rv>>,
}

impl Interner {
    /// The one allocation of `rv`'s node. Its children must have come
    /// from this interner.
    fn node(&mut self, rv: Rv) -> Arc<Rv> {
        self.nodes
            .entry(Shape::of(&rv))
            .or_insert_with(|| Arc::new(rv))
            .clone()
    }

    /// `a == b`.
    fn eq(&mut self, a: Rv, b: Rv) -> Rv {
        Rv::Binary(BinOp::Eq, self.node(a), self.node(b))
    }

    /// `a && b` with constant folding.
    fn and(&mut self, a: Rv, b: Rv) -> Rv {
        match (&a, &b) {
            (Rv::Const(0), _) | (_, Rv::Const(0)) => Rv::Const(0),
            (Rv::Const(_), _) => b,
            (_, Rv::Const(_)) => a,
            _ => Rv::Binary(BinOp::And, self.node(a), self.node(b)),
        }
    }

    /// `!a` with constant folding.
    fn not(&mut self, a: Rv) -> Rv {
        match a {
            Rv::Const(0) => Rv::Const(1),
            Rv::Const(_) => Rv::Const(0),
            other => Rv::Unary(UnOp::Not, self.node(other)),
        }
    }

    /// A binary operation with constant folding.
    fn binop(&mut self, op: BinOp, a: Rv, b: Rv, config: &Config) -> Rv {
        if let (Rv::Const(x), Rv::Const(y)) = (&a, &b) {
            if let Some(v) = fold_const_binop(op, *x, *y, config) {
                return Rv::Const(v);
            }
        }
        match (op, &a, &b) {
            (BinOp::And, Rv::Const(0), _) | (BinOp::And, _, Rv::Const(0)) => Rv::Const(0),
            (BinOp::And, Rv::Const(_), _) => b,
            (BinOp::And, _, Rv::Const(_)) => a,
            (BinOp::Or, Rv::Const(c), _) if *c != 0 => Rv::Const(1),
            (BinOp::Or, _, Rv::Const(c)) if *c != 0 => Rv::Const(1),
            (BinOp::Or, Rv::Const(0), _) => b,
            (BinOp::Or, _, Rv::Const(0)) => a,
            (BinOp::Add, Rv::Const(0), _) => b,
            (BinOp::Add, _, Rv::Const(0)) => a,
            (BinOp::Mul, Rv::Const(1), _) => b,
            (BinOp::Mul, _, Rv::Const(1)) => a,
            (BinOp::Mul, Rv::Const(0), _) | (BinOp::Mul, _, Rv::Const(0)) => Rv::Const(0),
            _ => Rv::Binary(op, self.node(a), self.node(b)),
        }
    }

    /// A unary operation with constant folding.
    fn unop(&mut self, op: UnOp, a: Rv, config: &Config) -> Rv {
        if let Rv::Const(c) = a {
            return Rv::Const(fold_const_unop(op, c, config));
        }
        Rv::Unary(op, self.node(a))
    }

    /// The read of the cell an l-value writes.
    fn lv_to_rv(&mut self, lv: Lv) -> Rv {
        match lv {
            Lv::Global(g) => Rv::Global(g),
            Lv::Local(l) => Rv::Local(l),
            Lv::GlobalDyn { base, len, ix } => Rv::GlobalDyn {
                base,
                len,
                ix: self.node(ix),
            },
            Lv::LocalDyn { base, len, ix } => Rv::LocalDyn {
                base,
                len,
                ix: self.node(ix),
            },
            Lv::Field { sid, fid, obj } => Rv::Field {
                sid,
                fid,
                obj: self.node(obj),
            },
        }
    }
}

struct Lowerer<'a> {
    program: &'a Program,
    config: &'a Config,
    structs: Vec<StructLayout>,
    struct_ids: HashMap<String, StructId>,
    globals: Vec<GlobalSlot>,
    global_map: HashMap<String, VarTarget>,
    exprs: Interner,
}

impl<'a> Lowerer<'a> {
    fn new(program: &'a Program, config: &'a Config) -> SourceResult<Lowerer<'a>> {
        let _env = TypeEnv::from_program(program)?;
        let mut struct_ids = HashMap::new();
        for (i, s) in program.structs.iter().enumerate() {
            struct_ids.insert(s.name.clone(), i);
        }
        let mut structs = Vec::new();
        for s in &program.structs {
            let mut fields = Vec::new();
            for f in &s.fields {
                let kind = scalar_kind(&f.ty, &struct_ids, s.span)?;
                let init = match &f.init {
                    None => 0,
                    Some(e) => const_expr(e, config)
                        .ok_or_else(|| lerr(s.span, "field initializers must be constants"))?,
                };
                fields.push((f.name.clone(), kind, init));
            }
            structs.push(StructLayout {
                name: s.name.clone(),
                fields,
                capacity: config.pool,
            });
        }
        let mut globals = Vec::new();
        let mut global_map = HashMap::new();
        for g in &program.globals {
            let (kind, len) = region_of(&g.ty, &struct_ids, g.span)?;
            let base = globals.len();
            let init = match &g.init {
                None => 0,
                Some(e) => const_expr(e, config).ok_or_else(|| {
                    lerr(
                        g.span,
                        format!(
                            "global {} must have a constant initializer \
                             (allocate in the harness prologue instead)",
                            g.name
                        ),
                    )
                })?,
            };
            for k in 0..len {
                globals.push(GlobalSlot {
                    name: if len == 1 {
                        g.name.clone()
                    } else {
                        format!("{}[{k}]", g.name)
                    },
                    kind,
                    init,
                    is_input: false,
                });
            }
            global_map.insert(
                g.name.clone(),
                VarTarget {
                    global: true,
                    base,
                    len,
                    kind,
                },
            );
        }
        Ok(Lowerer {
            program,
            config,
            structs,
            struct_ids,
            globals,
            global_map,
            exprs: Interner::default(),
        })
    }

    fn lower_harness(mut self, harness: &FnDef, holes: HoleTable) -> SourceResult<Lowered> {
        let Stmt::Block(top) = &harness.body else {
            return Err(lerr(harness.span, "harness body must be a block"));
        };
        if top.iter().filter(|s| matches!(s, Stmt::Fork(..))).count() > 1
            || contains_nested_fork(top)
        {
            return Err(lerr(
                harness.span,
                "exactly one top-level fork is supported (paper §4.2)",
            ));
        }
        let fork_pos = top.iter().position(|s| matches!(s, Stmt::Fork(..)));
        let (pre, fork, post): (&[Stmt], Option<&Stmt>, &[Stmt]) = match fork_pos {
            Some(ix) => (&top[..ix], Some(&top[ix]), &top[ix + 1..]),
            None => (&top[..], None, &[]),
        };
        let nthreads = match fork {
            None => 0usize,
            Some(Stmt::Fork(_, n, _, span)) => {
                let c = const_expr(n, self.config)
                    .ok_or_else(|| lerr(*span, "fork count must be a constant"))?;
                if !(1..=16).contains(&c) {
                    return Err(lerr(*span, "fork count must be in 1..=16"));
                }
                c as usize
            }
            _ => unreachable!(),
        };
        let logical_n = if nthreads == 0 { 1 } else { nthreads as i64 };

        // Hoist harness top-level declarations to (shared) globals —
        // variables declared outside the fork body are shared (§4.2).
        for s in top {
            if let Stmt::Decl(ty, name, _, span) = s {
                let (kind, len) = region_of(ty, &self.struct_ids, *span)?;
                let base = self.globals.len();
                for k in 0..len {
                    self.globals.push(GlobalSlot {
                        name: if len == 1 {
                            format!("{name}$h")
                        } else {
                            format!("{name}$h[{k}]")
                        },
                        kind,
                        init: 0,
                        is_input: false,
                    });
                }
                self.global_map.insert(
                    name.clone(),
                    VarTarget {
                        global: true,
                        base,
                        len,
                        kind,
                    },
                );
            }
        }

        let pro_pid = if nthreads == 0 { 0 } else { nthreads as i64 };
        let mut pro = ThreadCtx::new("prologue", pro_pid);
        self.emit_harness_seq(&mut pro, pre, logical_n)?;

        let mut workers = Vec::new();
        if let Some(Stmt::Fork(ivar, _, body, span)) = fork {
            for t in 0..nthreads {
                let mut w = ThreadCtx::new(&format!("worker {t}"), t as i64);
                w.scopes.push(HashMap::new());
                let ibase = w.alloc_local(ivar, ScalarKind::Int, 1);
                w.declare(
                    ivar,
                    VarTarget {
                        global: false,
                        base: ibase,
                        len: 1,
                        kind: ScalarKind::Int,
                    },
                );
                w.steps.push(Step::new(
                    Rv::Const(1),
                    Op::Assign(Lv::Local(ibase), Rv::Const(t as i64)),
                    *span,
                ));
                self.emit_stmt(&mut w, body, Rv::Const(1), logical_n)?;
                w.scopes.pop();
                workers.push(w.into_thread());
            }
        }

        let mut epi = ThreadCtx::new("epilogue", pro_pid + 1);
        self.emit_harness_seq(&mut epi, post, logical_n)?;

        Ok(Lowered {
            config: self.config.clone(),
            globals: self.globals,
            structs: self.structs,
            prologue: pro.into_thread(),
            workers,
            epilogue: epi.into_thread(),
            holes,
        })
    }

    /// Emits harness top-level statements; `Decl`s refer to the
    /// pre-hoisted shared globals.
    fn emit_harness_seq(
        &mut self,
        ctx: &mut ThreadCtx,
        stmts: &[Stmt],
        nthreads: i64,
    ) -> SourceResult<()> {
        for s in stmts {
            match s {
                Stmt::Decl(_, name, init, span) => {
                    let target = self.global_map.get(name).cloned().ok_or_else(|| {
                        lerr(*span, format!("internal: unhoisted harness local {name}"))
                    })?;
                    if let Some(e) = init {
                        self.emit_store(ctx, &target, e, Rv::Const(1), nthreads, *span)?;
                    }
                }
                other => self.emit_stmt(ctx, other, Rv::Const(1), nthreads)?,
            }
        }
        Ok(())
    }

    // ----- statements -----

    fn emit_stmt(
        &mut self,
        ctx: &mut ThreadCtx,
        s: &Stmt,
        guard: Rv,
        nthreads: i64,
    ) -> SourceResult<()> {
        match s {
            Stmt::Block(ss) => {
                ctx.scopes.push(HashMap::new());
                self.emit_block(ctx, ss, guard, nthreads)?;
                ctx.scopes.pop();
                Ok(())
            }
            Stmt::Decl(ty, name, init, span) => {
                let (kind, len) = region_of(ty, &self.struct_ids, *span)?;
                let base = ctx.alloc_local(name, kind, len);
                let target = VarTarget {
                    global: false,
                    base,
                    len,
                    kind,
                };
                ctx.declare(name, target.clone());
                if let Some(e) = init {
                    self.emit_store(ctx, &target, e, guard, nthreads, *span)?;
                }
                Ok(())
            }
            Stmt::Assign(lhs, rhs, span) => self.emit_assign(ctx, lhs, rhs, guard, nthreads, *span),
            Stmt::Assert(e, span) => {
                let v = self.eval(ctx, e, guard.clone(), nthreads)?.scalar(*span)?;
                ctx.steps.push(Step::new(guard, Op::Assert(v), *span));
                Ok(())
            }
            Stmt::Expr(e, _) => {
                let _ = self.eval(ctx, e, guard, nthreads)?;
                Ok(())
            }
            Stmt::If(c, t, e, span) => {
                let cv = self.eval(ctx, c, guard.clone(), nthreads)?.scalar(*span)?;
                // Pin the evaluation time of the condition.
                let tslot = ctx.alloc_local("$cond", ScalarKind::Bool, 1);
                ctx.steps.push(Step::new(
                    guard.clone(),
                    Op::Assign(Lv::Local(tslot), cv),
                    *span,
                ));
                let gt = self.exprs.and(guard.clone(), Rv::Local(tslot));
                self.emit_stmt(ctx, t, gt, nthreads)?;
                if let Some(e) = e {
                    let not_taken = self.exprs.not(Rv::Local(tslot));
                    let ge = self.exprs.and(guard, not_taken);
                    self.emit_stmt(ctx, e, ge, nthreads)?;
                }
                Ok(())
            }
            Stmt::While(c, body, span) => {
                self.emit_while(ctx, c, body, guard, nthreads, self.config.unroll, *span)
            }
            Stmt::Return(e, span) => {
                if let Some(e) = e {
                    let target = ctx
                        .frames
                        .last()
                        .and_then(|f| f.ret_target.clone())
                        .ok_or_else(|| {
                            lerr(
                                *span,
                                "return with value outside a value-returning function",
                            )
                        })?;
                    self.emit_store(ctx, &target, e, guard.clone(), nthreads, *span)?;
                }
                let frame = ctx
                    .frames
                    .last_mut()
                    .ok_or_else(|| lerr(*span, "return outside a function"))?;
                frame.may_return = true;
                let done = frame.done_slot;
                ctx.steps.push(Step::new(
                    guard,
                    Op::Assign(Lv::Local(done), Rv::Const(1)),
                    *span,
                ));
                Ok(())
            }
            Stmt::Atomic(cond, body, span) => {
                if ctx.in_atomic {
                    return Err(lerr(*span, "nested atomic sections are not supported"));
                }
                let cv = match cond {
                    Some(c) => {
                        let before = ctx.steps.len();
                        let v = self.eval(ctx, c, guard.clone(), nthreads)?.scalar(*span)?;
                        if ctx.steps.len() != before {
                            return Err(lerr(*span, "conditional-atomic conditions must be pure"));
                        }
                        Some(v)
                    }
                    None => None,
                };
                ctx.steps
                    .push(Step::new(guard.clone(), Op::AtomicBegin(cv), *span));
                ctx.in_atomic = true;
                let r = self.emit_stmt(ctx, body, guard.clone(), nthreads);
                ctx.in_atomic = false;
                r?;
                ctx.steps.push(Step::new(guard, Op::AtomicEnd, *span));
                Ok(())
            }
            Stmt::Fork(_, _, _, span) => Err(lerr(
                *span,
                "fork must appear at the top level of the harness",
            )),
            Stmt::Reorder(_, span) | Stmt::Repeat(_, _, span) => Err(lerr(
                *span,
                "internal: synthesis construct survived desugaring",
            )),
        }
    }

    /// Emits a statement sequence, conjoining `!done` once a preceding
    /// statement may have returned.
    fn emit_block(
        &mut self,
        ctx: &mut ThreadCtx,
        ss: &[Stmt],
        guard: Rv,
        nthreads: i64,
    ) -> SourceResult<()> {
        for s in ss {
            let g = self.live_guard(ctx, guard.clone());
            self.emit_stmt(ctx, s, g, nthreads)?;
        }
        Ok(())
    }

    fn live_guard(&mut self, ctx: &ThreadCtx, guard: Rv) -> Rv {
        match ctx.frames.last() {
            Some(f) if f.may_return => {
                let live = self.exprs.not(Rv::Local(f.done_slot));
                self.exprs.and(guard, live)
            }
            _ => guard,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_while(
        &mut self,
        ctx: &mut ThreadCtx,
        c: &Expr,
        body: &Stmt,
        guard: Rv,
        nthreads: i64,
        fuel: usize,
        span: Span,
    ) -> SourceResult<()> {
        let guard = self.live_guard(ctx, guard);
        let cv = self.eval(ctx, c, guard.clone(), nthreads)?.scalar(span)?;
        if fuel == 0 {
            // Termination bound: if the loop would still run, fail.
            let exits = self.exprs.not(cv);
            ctx.steps.push(Step::new(guard, Op::Assert(exits), span));
            return Ok(());
        }
        let tslot = ctx.alloc_local("$while", ScalarKind::Bool, 1);
        ctx.steps.push(Step::new(
            guard.clone(),
            Op::Assign(Lv::Local(tslot), cv),
            span,
        ));
        let g2 = self.exprs.and(guard, Rv::Local(tslot));
        ctx.scopes.push(HashMap::new());
        self.emit_stmt(ctx, body, g2.clone(), nthreads)?;
        ctx.scopes.pop();
        self.emit_while(ctx, c, body, g2, nthreads, fuel - 1, span)
    }

    /// Stores expression `e` into `target` (scalar or array region).
    fn emit_store(
        &mut self,
        ctx: &mut ThreadCtx,
        target: &VarTarget,
        e: &Expr,
        guard: Rv,
        nthreads: i64,
        span: Span,
    ) -> SourceResult<()> {
        let VarTarget {
            global, base, len, ..
        } = *target;
        let v = self.eval(ctx, e, guard.clone(), nthreads)?;
        match v {
            Val::S(rv) => {
                if len != 1 {
                    return Err(lerr(span, "scalar assigned to an array variable"));
                }
                let lv = if global {
                    Lv::Global(base)
                } else {
                    Lv::Local(base)
                };
                ctx.steps.push(Step::new(guard, Op::Assign(lv, rv), span));
            }
            Val::A(elems) => {
                if elems.len() != len {
                    return Err(lerr(
                        span,
                        format!("array length mismatch: {} vs {len}", elems.len()),
                    ));
                }
                self.emit_array_write(ctx, global, base, len, Rv::Const(0), elems, guard, span);
            }
        }
        Ok(())
    }

    /// Writes `elems` to cells `base + start + k`, buffering through
    /// temps (copy semantics for overlapping slices).
    #[allow(clippy::too_many_arguments)]
    fn emit_array_write(
        &mut self,
        ctx: &mut ThreadCtx,
        global: bool,
        base: usize,
        len: usize,
        start: Rv,
        elems: Vec<Rv>,
        guard: Rv,
        span: Span,
    ) {
        let needs_buffer = elems.iter().any(|e| !matches!(e, Rv::Const(_)));
        let values: Vec<Rv> = if needs_buffer {
            let tbase = ctx.alloc_local("$abuf", ScalarKind::Int, elems.len());
            for (k, e) in elems.iter().enumerate() {
                ctx.steps.push(Step::new(
                    guard.clone(),
                    Op::Assign(Lv::Local(tbase + k), e.clone()),
                    span,
                ));
            }
            (0..elems.len()).map(|k| Rv::Local(tbase + k)).collect()
        } else {
            elems
        };
        for (k, v) in values.into_iter().enumerate() {
            let ix = self
                .exprs
                .binop(BinOp::Add, start.clone(), Rv::Const(k as i64), self.config);
            let lv = self.cell_lv(global, base, len, ix);
            ctx.steps
                .push(Step::new(guard.clone(), Op::Assign(lv, v), span));
        }
    }

    fn cell_lv(&self, global: bool, base: usize, len: usize, ix: Rv) -> Lv {
        match (&ix, global) {
            (Rv::Const(c), true) if (0..len as i64).contains(c) => Lv::Global(base + *c as usize),
            (Rv::Const(c), false) if (0..len as i64).contains(c) => Lv::Local(base + *c as usize),
            (_, true) => Lv::GlobalDyn { base, len, ix },
            (_, false) => Lv::LocalDyn { base, len, ix },
        }
    }

    fn cell_rv(&mut self, global: bool, base: usize, len: usize, ix: Rv) -> Rv {
        match (&ix, global) {
            (Rv::Const(c), true) if (0..len as i64).contains(c) => Rv::Global(base + *c as usize),
            (Rv::Const(c), false) if (0..len as i64).contains(c) => Rv::Local(base + *c as usize),
            (_, true) => Rv::GlobalDyn {
                base,
                len,
                ix: self.exprs.node(ix),
            },
            (_, false) => Rv::LocalDyn {
                base,
                len,
                ix: self.exprs.node(ix),
            },
        }
    }

    fn emit_assign(
        &mut self,
        ctx: &mut ThreadCtx,
        lhs: &Expr,
        rhs: &Expr,
        guard: Rv,
        nthreads: i64,
        span: Span,
    ) -> SourceResult<()> {
        // Choice on the left: one guarded copy per alternative.
        if let Expr::Choice(hole, alts, _) = lhs {
            let v = self.eval(ctx, rhs, guard.clone(), nthreads)?.scalar(span)?;
            let vslot = ctx.alloc_local("$rhs", ScalarKind::Int, 1);
            ctx.steps.push(Step::new(
                guard.clone(),
                Op::Assign(Lv::Local(vslot), v),
                span,
            ));
            for (j, alt) in alts.iter().enumerate() {
                let chosen = self.choice_guard(*hole, j);
                let g = self.exprs.and(guard.clone(), chosen);
                let place = self.place(ctx, alt, nthreads)?;
                let Place::Cell(lv) = place else {
                    return Err(lerr(span, "l-value alternative is not a scalar location"));
                };
                ctx.steps
                    .push(Step::new(g, Op::Assign(lv, Rv::Local(vslot)), span));
            }
            return Ok(());
        }
        match self.place(ctx, lhs, nthreads)? {
            Place::Cell(lv) => {
                let v = self.eval(ctx, rhs, guard.clone(), nthreads)?.scalar(span)?;
                ctx.steps.push(Step::new(guard, Op::Assign(lv, v), span));
                Ok(())
            }
            Place::Region {
                global,
                base,
                len,
                start,
                count,
            } => {
                let v = self.eval(ctx, rhs, guard.clone(), nthreads)?;
                let elems = match v {
                    Val::A(elems) => elems,
                    Val::S(_) => return Err(lerr(span, "scalar assigned to an array location")),
                };
                if elems.len() != count {
                    return Err(lerr(
                        span,
                        format!("array length mismatch: {} vs {count}", elems.len()),
                    ));
                }
                self.emit_array_write(ctx, global, base, len, start, elems, guard, span);
                Ok(())
            }
        }
    }

    /// The guard selecting alternative `j` of a choice on `hole`: the
    /// index is wrapped like a literal, as the engines wrap the hole's
    /// value.
    fn choice_guard(&mut self, hole: HoleId, j: usize) -> Rv {
        let index = Rv::Const(self.config.wrap(j as i64));
        self.exprs.eq(Rv::Hole(hole), index)
    }

    // ----- places -----

    fn place(&mut self, ctx: &mut ThreadCtx, e: &Expr, nthreads: i64) -> SourceResult<Place> {
        match e {
            Expr::Var(name, span) => {
                let t = ctx
                    .lookup(name)
                    .or_else(|| self.global_map.get(name))
                    .cloned()
                    .ok_or_else(|| lerr(*span, format!("unknown variable {name}")))?;
                if t.len == 1 {
                    Ok(Place::Cell(if t.global {
                        Lv::Global(t.base)
                    } else {
                        Lv::Local(t.base)
                    }))
                } else {
                    Ok(Place::Region {
                        global: t.global,
                        base: t.base,
                        len: t.len,
                        start: Rv::Const(0),
                        count: t.len,
                    })
                }
            }
            Expr::Field(obj, fname, span) => {
                let ov = self.eval(ctx, obj, Rv::Const(1), nthreads)?.scalar(*span)?;
                let (sid, fid) = self.field_of(obj, fname, *span, ctx)?;
                Ok(Place::Cell(Lv::Field { sid, fid, obj: ov }))
            }
            Expr::Index(base, ix, span) => {
                let p = self.place(ctx, base, nthreads)?;
                let Place::Region {
                    global,
                    base,
                    len,
                    start,
                    count: _,
                } = p
                else {
                    return Err(lerr(*span, "indexing a scalar"));
                };
                let iv = self.eval(ctx, ix, Rv::Const(1), nthreads)?.scalar(*span)?;
                let off = self.exprs.binop(BinOp::Add, start, iv, self.config);
                Ok(Place::Cell(self.cell_lv(global, base, len, off)))
            }
            Expr::Slice(base, s, l, span) => {
                let p = self.place(ctx, base, nthreads)?;
                let Place::Region {
                    global,
                    base,
                    len,
                    start,
                    count: _,
                } = p
                else {
                    return Err(lerr(*span, "slicing a scalar"));
                };
                let sv = self.eval(ctx, s, Rv::Const(1), nthreads)?.scalar(*span)?;
                let off = self.exprs.binop(BinOp::Add, start, sv, self.config);
                Ok(Place::Region {
                    global,
                    base,
                    len,
                    start: off,
                    count: *l,
                })
            }
            other => Err(lerr(other.span(), "expression is not a storage location")),
        }
    }

    /// Resolves the struct/field ids for `obj.fname` from the static
    /// type of `obj`.
    fn field_of(
        &self,
        obj: &Expr,
        fname: &str,
        span: Span,
        ctx: &ThreadCtx,
    ) -> SourceResult<(StructId, FieldId)> {
        let sid = self.static_struct_of(obj, ctx, span)?;
        let layout = &self.structs[sid];
        let fid = layout
            .fields
            .iter()
            .position(|(n, _, _)| n == fname)
            .ok_or_else(|| lerr(span, format!("struct {} has no field {fname}", layout.name)))?;
        Ok((sid, fid))
    }

    fn static_struct_of(&self, e: &Expr, ctx: &ThreadCtx, span: Span) -> SourceResult<StructId> {
        match self.static_kind_of(e, ctx, span)? {
            ScalarKind::Ref(sid) => Ok(sid),
            _ => Err(lerr(span, "field access on a non-reference value")),
        }
    }

    fn static_kind_of(&self, e: &Expr, ctx: &ThreadCtx, span: Span) -> SourceResult<ScalarKind> {
        match e {
            Expr::Var(name, _) => {
                let t = ctx
                    .lookup(name)
                    .or_else(|| self.global_map.get(name))
                    .ok_or_else(|| lerr(span, format!("unknown variable {name}")))?;
                Ok(t.kind)
            }
            Expr::Field(obj, fname, _) => {
                let sid = self.static_struct_of(obj, ctx, span)?;
                let layout = &self.structs[sid];
                layout
                    .fields
                    .iter()
                    .find(|(n, _, _)| n == fname)
                    .map(|(_, kind, _)| *kind)
                    .ok_or_else(|| {
                        lerr(span, format!("struct {} has no field {fname}", layout.name))
                    })
            }
            Expr::Index(base, _, _) => self.static_kind_of(base, ctx, span),
            Expr::New(sname, _, _) => {
                Ok(ScalarKind::Ref(*self.struct_ids.get(sname).ok_or_else(
                    || lerr(span, format!("unknown struct {sname}")),
                )?))
            }
            Expr::Choice(_, alts, _) => self.static_kind_of(&alts[0], ctx, span),
            Expr::Call(name, args, _) => match name.as_str() {
                "AtomicSwap" | "atomicSwap" => self.static_kind_of(&args[0], ctx, span),
                "CAS" => Ok(ScalarKind::Bool),
                "AtomicReadAndDecr" | "AtomicReadAndIncr" | "pid" | "nthreads" => {
                    Ok(ScalarKind::Int)
                }
                _ => {
                    let f = self
                        .program
                        .function(name)
                        .ok_or_else(|| lerr(span, format!("unknown function {name}")))?;
                    scalar_kind(&f.ret, &self.struct_ids, span)
                }
            },
            Expr::Bool(..) | Expr::Unary(UnOp::Not, ..) | Expr::Binary(..) => Ok(ScalarKind::Bool),
            Expr::Null(_) => Err(lerr(span, "cannot determine the struct type of null")),
            _ => Ok(ScalarKind::Int),
        }
    }

    // ----- expressions -----

    fn eval(
        &mut self,
        ctx: &mut ThreadCtx,
        e: &Expr,
        guard: Rv,
        nthreads: i64,
    ) -> SourceResult<Val> {
        Ok(match e {
            Expr::Int(v, _) => Val::S(Rv::Const(self.config.wrap(*v))),
            Expr::Bool(b, _) => Val::S(Rv::Const(i64::from(*b))),
            Expr::Null(_) => Val::S(Rv::Const(0)),
            Expr::BitArray(bits, _) => {
                Val::A(bits.iter().map(|&b| Rv::Const(i64::from(b))).collect())
            }
            Expr::HoleRef(h, _, _) => Val::S(Rv::Hole(*h)),
            Expr::Var(name, span) => {
                let t = ctx
                    .lookup(name)
                    .or_else(|| self.global_map.get(name))
                    .cloned()
                    .ok_or_else(|| lerr(*span, format!("unknown variable {name}")))?;
                if t.len == 1 {
                    Val::S(self.cell_rv(t.global, t.base, t.len, Rv::Const(0)))
                } else {
                    Val::A(
                        (0..t.len)
                            .map(|k| self.cell_rv(t.global, t.base, t.len, Rv::Const(k as i64)))
                            .collect(),
                    )
                }
            }
            Expr::Field(obj, fname, span) => {
                let ov = self.eval(ctx, obj, guard, nthreads)?.scalar(*span)?;
                let (sid, fid) = self.field_of(obj, fname, *span, ctx)?;
                Val::S(Rv::Field {
                    sid,
                    fid,
                    obj: self.exprs.node(ov),
                })
            }
            Expr::Index(..) | Expr::Slice(..) => match self.place(ctx, e, nthreads)? {
                Place::Cell(lv) => Val::S(self.exprs.lv_to_rv(lv)),
                Place::Region {
                    global,
                    base,
                    len,
                    start,
                    count,
                } => Val::A(
                    (0..count)
                        .map(|k| {
                            let ix = self.exprs.binop(
                                BinOp::Add,
                                start.clone(),
                                Rv::Const(k as i64),
                                self.config,
                            );
                            self.cell_rv(global, base, len, ix)
                        })
                        .collect(),
                ),
            },
            Expr::Unary(UnOp::BitsToInt, inner, span) => {
                let v = self.eval(ctx, inner, guard, nthreads)?;
                let Val::A(elems) = v else {
                    return Err(lerr(*span, "(int) cast needs a bit array"));
                };
                let mut acc = Rv::Const(0);
                for (k, b) in elems.into_iter().enumerate() {
                    // Element 0 is the LSB.
                    let term = self
                        .exprs
                        .binop(BinOp::Mul, b, Rv::Const(1 << k), self.config);
                    acc = self.exprs.binop(BinOp::Add, acc, term, self.config);
                }
                Val::S(acc)
            }
            Expr::Unary(op, inner, span) => {
                let v = self.eval(ctx, inner, guard, nthreads)?.scalar(*span)?;
                Val::S(self.exprs.unop(*op, v, self.config))
            }
            Expr::Binary(op, l, r, span) => {
                self.eval_binary(ctx, *op, l, r, guard, nthreads, *span)?
            }
            Expr::Choice(hole, alts, span) => {
                // R-value choice: a mux chain (alternatives are pure).
                let mut vals = Vec::with_capacity(alts.len());
                for a in alts {
                    vals.push(self.eval(ctx, a, guard.clone(), nthreads)?.scalar(*span)?);
                }
                let mut it = vals.into_iter().enumerate().rev();
                let (_, mut acc) = it.next().ok_or_else(|| lerr(*span, "empty choice"))?;
                for (j, v) in it {
                    let chosen = self.choice_guard(*hole, j);
                    acc = Rv::Ite(
                        self.exprs.node(chosen),
                        self.exprs.node(v),
                        self.exprs.node(acc),
                    );
                }
                Val::S(acc)
            }
            Expr::New(sname, args, span) => {
                let sid = *self
                    .struct_ids
                    .get(sname)
                    .ok_or_else(|| lerr(*span, format!("unknown struct {sname}")))?;
                let mut inits = Vec::new();
                for (fid, a) in args.iter().enumerate() {
                    let v = self.eval(ctx, a, guard.clone(), nthreads)?.scalar(*span)?;
                    inits.push((fid, v));
                }
                let dst = ctx.alloc_local("$new", ScalarKind::Ref(sid), 1);
                ctx.steps.push(Step::new(
                    guard,
                    Op::Alloc {
                        dst: Lv::Local(dst),
                        sid,
                        inits,
                    },
                    *span,
                ));
                Val::S(Rv::Local(dst))
            }
            Expr::Call(name, args, span) => {
                self.eval_call(ctx, name, args, guard, nthreads, *span)?
            }
            Expr::Hole(_, span) | Expr::Gen(_, span) => Err(lerr(
                *span,
                "internal: synthesis construct survived desugaring",
            ))?,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_binary(
        &mut self,
        ctx: &mut ThreadCtx,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        guard: Rv,
        nthreads: i64,
        span: Span,
    ) -> SourceResult<Val> {
        match op {
            BinOp::And | BinOp::Or => {
                let lv = self.eval(ctx, l, guard.clone(), nthreads)?.scalar(span)?;
                // Probe whether the right side emits steps (calls,
                // allocations); if so, short-circuit through a temp.
                let before = ctx.steps.len();
                let locals_before = ctx.locals.len();
                let probe = self.eval(ctx, r, Rv::Const(0), nthreads);
                let emitted = ctx.steps.len() != before;
                ctx.steps.truncate(before);
                ctx.locals.truncate(locals_before);
                probe?;
                if emitted {
                    let t = ctx.alloc_local("$sc", ScalarKind::Bool, 1);
                    ctx.steps
                        .push(Step::new(guard.clone(), Op::Assign(Lv::Local(t), lv), span));
                    let inner_guard = match op {
                        BinOp::And => self.exprs.and(guard, Rv::Local(t)),
                        _ => {
                            let unset = self.exprs.not(Rv::Local(t));
                            self.exprs.and(guard, unset)
                        }
                    };
                    let rv = self.eval(ctx, r, inner_guard, nthreads)?.scalar(span)?;
                    let out = match op {
                        BinOp::And => self.exprs.and(Rv::Local(t), rv),
                        _ => Rv::Binary(
                            BinOp::Or,
                            self.exprs.node(Rv::Local(t)),
                            self.exprs.node(rv),
                        ),
                    };
                    Ok(Val::S(out))
                } else {
                    let rv = self.eval(ctx, r, guard, nthreads)?.scalar(span)?;
                    Ok(Val::S(self.exprs.binop(op, lv, rv, self.config)))
                }
            }
            BinOp::Div | BinOp::Mod => {
                let lv = self.eval(ctx, l, guard.clone(), nthreads)?.scalar(span)?;
                let rv = self.eval(ctx, r, guard, nthreads)?.scalar(span)?;
                match rv {
                    Rv::Const(c) if c != 0 => {
                        Ok(Val::S(self.exprs.binop(op, lv, Rv::Const(c), self.config)))
                    }
                    Rv::Const(_) => Err(lerr(span, "division by the constant zero")),
                    _ => Err(lerr(span, "division by a non-constant is not supported")),
                }
            }
            _ => {
                let lv = self.eval(ctx, l, guard.clone(), nthreads)?.scalar(span)?;
                let rv = self.eval(ctx, r, guard, nthreads)?.scalar(span)?;
                Ok(Val::S(self.exprs.binop(op, lv, rv, self.config)))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_call(
        &mut self,
        ctx: &mut ThreadCtx,
        name: &str,
        args: &[Expr],
        guard: Rv,
        nthreads: i64,
        span: Span,
    ) -> SourceResult<Val> {
        match name {
            "pid" => return Ok(Val::S(Rv::Const(ctx.pid))),
            "nthreads" => return Ok(Val::S(Rv::Const(nthreads))),
            "AtomicSwap" | "atomicSwap" => {
                let val = self
                    .eval(ctx, &args[1], guard.clone(), nthreads)?
                    .scalar(span)?;
                let kind = self
                    .static_kind_of(&args[0], ctx, span)
                    .unwrap_or(ScalarKind::Int);
                let dst = ctx.alloc_local("$swap", kind, 1);
                self.for_each_location(ctx, &args[0], guard, nthreads, span, |ctx, lv, g| {
                    ctx.steps.push(Step::new(
                        g,
                        Op::Swap {
                            dst: Lv::Local(dst),
                            loc: lv,
                            val: val.clone(),
                        },
                        span,
                    ));
                })?;
                return Ok(Val::S(Rv::Local(dst)));
            }
            "CAS" => {
                let old = self
                    .eval(ctx, &args[1], guard.clone(), nthreads)?
                    .scalar(span)?;
                let new = self
                    .eval(ctx, &args[2], guard.clone(), nthreads)?
                    .scalar(span)?;
                let dst = ctx.alloc_local("$cas", ScalarKind::Bool, 1);
                self.for_each_location(ctx, &args[0], guard, nthreads, span, |ctx, lv, g| {
                    ctx.steps.push(Step::new(
                        g,
                        Op::Cas {
                            dst: Lv::Local(dst),
                            loc: lv,
                            old: old.clone(),
                            new: new.clone(),
                        },
                        span,
                    ));
                })?;
                return Ok(Val::S(Rv::Local(dst)));
            }
            "AtomicReadAndDecr" | "AtomicReadAndIncr" => {
                let delta = if name == "AtomicReadAndDecr" { -1 } else { 1 };
                let dst = ctx.alloc_local("$fadd", ScalarKind::Int, 1);
                self.for_each_location(ctx, &args[0], guard, nthreads, span, |ctx, lv, g| {
                    ctx.steps.push(Step::new(
                        g,
                        Op::FetchAdd {
                            dst: Lv::Local(dst),
                            loc: lv,
                            delta,
                        },
                        span,
                    ));
                })?;
                return Ok(Val::S(Rv::Local(dst)));
            }
            _ => {}
        }
        // User function: inline (copies share holes — the sketch is
        // already desugared).
        let f = self
            .program
            .function(name)
            .ok_or_else(|| lerr(span, format!("unknown function {name}")))?
            .clone();
        if ctx.call_depth >= self.config.inline_depth {
            return Err(lerr(
                span,
                format!("call to {name} exceeds inline depth (recursion?)"),
            ));
        }
        // Evaluate arguments in the caller's scope, then bind.
        let mut bindings = Vec::new();
        for (p, a) in f.params.iter().zip(args) {
            let (kind, len) = region_of(&p.ty, &self.struct_ids, span)?;
            let base = ctx.alloc_local(&format!("{name}.{}", p.name), kind, len);
            let target = VarTarget {
                global: false,
                base,
                len,
                kind,
            };
            self.emit_store(ctx, &target, a, guard.clone(), nthreads, span)?;
            bindings.push((p.name.clone(), target));
        }
        ctx.call_depth += 1;
        ctx.scopes.push(HashMap::new());
        for (n, t) in bindings {
            ctx.declare(&n, t);
        }
        let ret_target = match &f.ret {
            Type::Void => None,
            ty => {
                let (kind, len) = region_of(ty, &self.struct_ids, span)?;
                let base = ctx.alloc_local(&format!("{name}.$ret"), kind, len);
                Some(VarTarget {
                    global: false,
                    base,
                    len,
                    kind,
                })
            }
        };
        let done = ctx.alloc_local(&format!("{name}.$done"), ScalarKind::Bool, 1);
        ctx.steps.push(Step::new(
            guard.clone(),
            Op::Assign(Lv::Local(done), Rv::Const(0)),
            span,
        ));
        ctx.frames.push(FnFrame {
            done_slot: done,
            ret_target: ret_target.clone(),
            may_return: false,
        });
        let r = self.emit_stmt(ctx, &f.body, guard, nthreads);
        ctx.frames.pop();
        ctx.scopes.pop();
        ctx.call_depth -= 1;
        r?;
        Ok(match ret_target {
            None => Val::S(Rv::Const(0)),
            Some(t) => {
                if t.len == 1 {
                    Val::S(Rv::Local(t.base))
                } else {
                    Val::A((0..t.len).map(|k| Rv::Local(t.base + k)).collect())
                }
            }
        })
    }

    /// Runs `emit` once per location alternative of an atomic's first
    /// argument: plain l-values once, `Choice` l-values once per
    /// alternative under a hole-equality guard.
    fn for_each_location(
        &mut self,
        ctx: &mut ThreadCtx,
        loc: &Expr,
        guard: Rv,
        nthreads: i64,
        span: Span,
        mut emit: impl FnMut(&mut ThreadCtx, Lv, Rv),
    ) -> SourceResult<()> {
        match loc {
            Expr::Choice(hole, alts, _) => {
                for (j, alt) in alts.iter().enumerate() {
                    let chosen = self.choice_guard(*hole, j);
                    let g = self.exprs.and(guard.clone(), chosen);
                    let place = self.place(ctx, alt, nthreads)?;
                    let Place::Cell(lv) = place else {
                        return Err(lerr(span, "atomic location must be scalar"));
                    };
                    emit(ctx, lv, g);
                }
                Ok(())
            }
            other => {
                let place = self.place(ctx, other, nthreads)?;
                let Place::Cell(lv) = place else {
                    return Err(lerr(span, "atomic location must be scalar"));
                };
                emit(ctx, lv, guard);
                Ok(())
            }
        }
    }
}

fn contains_nested_fork(stmts: &[Stmt]) -> bool {
    fn inner(s: &Stmt) -> bool {
        match s {
            Stmt::Fork(..) => true,
            Stmt::Block(ss) => ss.iter().any(inner),
            Stmt::If(_, t, e, _) => inner(t) || e.as_deref().is_some_and(inner),
            Stmt::While(_, b, _) | Stmt::Atomic(_, b, _) | Stmt::Repeat(_, b, _) => inner(b),
            Stmt::Reorder(ss, _) => ss.iter().any(inner),
            _ => false,
        }
    }
    stmts.iter().any(|s| match s {
        Stmt::Fork(_, _, body, _) => inner(body),
        other => inner(other),
    })
}

/// Scalar kind of a non-array type.
fn scalar_kind(ty: &Type, ids: &HashMap<String, StructId>, span: Span) -> SourceResult<ScalarKind> {
    match ty {
        Type::Int => Ok(ScalarKind::Int),
        Type::Bool => Ok(ScalarKind::Bool),
        Type::Ref(n) => ids
            .get(n)
            .map(|&sid| ScalarKind::Ref(sid))
            .ok_or_else(|| lerr(span, format!("unknown struct {n}"))),
        Type::Void => Ok(ScalarKind::Int),
        Type::Array(..) => Err(lerr(span, "array type where scalar expected")),
    }
}

/// Element kind and flattened cell count of a (possibly array) type.
/// Only one-dimensional arrays are supported by lowering.
fn region_of(
    ty: &Type,
    ids: &HashMap<String, StructId>,
    span: Span,
) -> SourceResult<(ScalarKind, usize)> {
    match ty {
        Type::Array(inner, n) => match &**inner {
            Type::Array(..) => Err(lerr(
                span,
                "multi-dimensional arrays are not supported; flatten manually",
            )),
            t => Ok((scalar_kind(t, ids, span)?, *n)),
        },
        t => Ok((scalar_kind(t, ids, span)?, 1)),
    }
}

/// Evaluates a constant expression (global/field initializers, fork
/// counts).
pub(crate) fn const_expr(e: &Expr, config: &Config) -> Option<i64> {
    match e {
        Expr::Int(v, _) => Some(config.wrap(*v)),
        Expr::Bool(b, _) => Some(i64::from(*b)),
        Expr::Null(_) => Some(0),
        Expr::Unary(UnOp::Neg, a, _) => Some(config.wrap(-const_expr(a, config)?)),
        Expr::Unary(UnOp::Not, a, _) => Some(i64::from(const_expr(a, config)? == 0)),
        Expr::Binary(op, a, b, _) => {
            let a = const_expr(a, config)?;
            let b = const_expr(b, config)?;
            fold_const_binop(*op, a, b, config)
        }
        _ => None,
    }
}

/// Folds a binary operator over two constant operands, wrapping
/// arithmetic to the configured bit width. `None` when the operation
/// is not foldable (division or modulo by zero — left to fail at run
/// time). Public so emit-time folding in the exec crate applies
/// exactly the lowering/specialization semantics.
pub fn fold_const_binop(op: BinOp, a: i64, b: i64, config: &Config) -> Option<i64> {
    Some(match op {
        BinOp::Add => config.wrap(a + b),
        BinOp::Sub => config.wrap(a - b),
        BinOp::Mul => config.wrap(a.wrapping_mul(b)),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            config.wrap(a.wrapping_div(b))
        }
        BinOp::Mod => {
            if b == 0 {
                return None;
            }
            config.wrap(a.wrapping_rem(b))
        }
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
    })
}

/// Folds a unary operator over a constant operand — the constant arm
/// of the lowerer's `Interner::unop`, shared with emit-time folding in
/// the exec crate.
pub fn fold_const_unop(op: UnOp, c: i64, config: &Config) -> i64 {
    match op {
        UnOp::Not => i64::from(c == 0),
        UnOp::Neg => config.wrap(-c),
        UnOp::BitsToInt => c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desugar::desugar_program;

    fn lower(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower_program(&sk, holes, &cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    fn lower_err(src: &str) -> SourceError {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower_program(&sk, holes, &cfg).unwrap_err()
    }

    #[test]
    fn sequential_program_has_no_workers() {
        let l = lower("int g; harness void main() { g = 3; assert g == 3; }");
        assert!(l.workers.is_empty());
        assert_eq!(l.prologue.steps.len(), 2);
        assert!(l.prologue.steps[0].shared);
    }

    #[test]
    fn fork_splits_into_threads() {
        let l = lower(
            "int g;
             harness void main() {
                 g = 0;
                 fork (i; 3) { g = g + i; }
                 assert g >= 0;
             }",
        );
        assert_eq!(l.workers.len(), 3);
        assert_eq!(l.num_threads(), 5);
        // Each worker: index init + add.
        assert_eq!(l.workers[0].steps.len(), 2);
        assert_eq!(l.epilogue.steps.len(), 1);
    }

    #[test]
    fn harness_locals_are_hoisted_to_globals() {
        let l = lower(
            "harness void main() {
                 int shared = 5;
                 fork (i; 2) { shared = shared + 1; }
                 assert shared == 7;
             }",
        );
        assert!(l.globals.iter().any(|g| g.name == "shared$h"));
        // Worker writes a global.
        assert!(l.workers[0].steps.iter().any(|s| s.shared));
    }

    #[test]
    fn if_conditions_become_local_temps() {
        let l = lower(
            "int g;
             harness void main() {
                 if (g == 1) { g = 2; } else { g = 3; }
             }",
        );
        // cond temp + 2 guarded assigns.
        let steps = &l.prologue.steps;
        assert_eq!(steps.len(), 3);
        assert!(matches!(steps[0].op, Op::Assign(Lv::Local(_), _)));
        assert!(matches!(steps[1].guard, Rv::Local(_)));
        // Guards only read locals.
        for s in steps {
            assert!(
                !crate::footprint::Footprint::of_rv(&s.guard).is_shared(),
                "guard reads shared: {:?}",
                s.guard
            );
        }
    }

    #[test]
    fn while_unrolls_with_termination_assert() {
        let cfg = Config {
            unroll: 3,
            ..Config::default()
        };
        let p = psketch_lang::check_program(
            "int g; harness void main() { while (g > 0) { g = g - 1; } }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower_program(&sk, holes, &cfg).unwrap();
        // Each level: eval+store cond, body assign; final assert.
        let asserts = l
            .prologue
            .steps
            .iter()
            .filter(|s| matches!(s.op, Op::Assert(_)))
            .count();
        assert_eq!(asserts, 1);
        assert!(l.prologue.steps.len() > 3 * 2);
    }

    #[test]
    fn calls_inline_and_return_early() {
        let l = lower(
            "int f(int x) { if (x > 0) { return 1; } return 2; }
             int g;
             harness void main() { g = f(g); }",
        );
        // done flag mechanics present: an assign of const 1 guarded.
        assert!(l
            .prologue
            .steps
            .iter()
            .any(|s| matches!(&s.op, Op::Assign(Lv::Local(_), Rv::Const(1)))));
        // And a local slot named f.$done.
        assert!(l.prologue.locals.iter().any(|s| s.name == "f.$done"));
    }

    #[test]
    fn atomics_lower_to_begin_end() {
        let l = lower(
            "int g;
             harness void main() {
                 fork (i; 2) {
                     atomic (g == 0) { g = 1; }
                     atomic { g = g + 1; }
                 }
             }",
        );
        let w = &l.workers[0].steps;
        let begins = w
            .iter()
            .filter(|s| matches!(s.op, Op::AtomicBegin(_)))
            .count();
        let ends = w.iter().filter(|s| matches!(s.op, Op::AtomicEnd)).count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        assert!(matches!(
            w.iter()
                .find(|s| matches!(s.op, Op::AtomicBegin(_)))
                .map(|s| &s.op),
            Some(Op::AtomicBegin(Some(_)))
        ));
    }

    #[test]
    fn swap_with_choice_location_emits_guarded_copies() {
        let l = lower(
            "struct E { E next; int taken; }
             E tail;
             harness void main() {
                 E tmp = null;
                 tmp = AtomicSwap({| tail(.next)? |}, tmp);
             }",
        );
        let swaps: Vec<&Step> = l
            .prologue
            .steps
            .iter()
            .filter(|s| matches!(s.op, Op::Swap { .. }))
            .collect();
        assert_eq!(swaps.len(), 2); // tail | tail.next
        assert!(swaps
            .iter()
            .all(|s| !crate::footprint::Footprint::of_rv(&s.guard).is_shared()));
    }

    #[test]
    fn pid_and_nthreads_are_constants() {
        let l = lower(
            "int g;
             harness void main() {
                 fork (i; 2) { g = pid() + nthreads(); }
             }",
        );
        let find_const_add = |t: &Thread| {
            t.steps.iter().any(
                |s| matches!(&s.op, Op::Assign(Lv::Global(_), Rv::Const(c)) if *c == 2 || *c == 3),
            )
        };
        assert!(find_const_add(&l.workers[0]));
        assert!(find_const_add(&l.workers[1]));
    }

    #[test]
    fn arrays_flatten_and_slices_copy() {
        let l = lower(
            "harness void main() {
                 int[4] a;
                 a[0] = 1;
                 a[1::2] = a[0::2];
                 assert a[1] == 1;
             }",
        );
        assert!(l.globals.iter().any(|g| g.name.starts_with("a$h[")));
        // Slice copy buffers through temps: at least 2 reads + 2 writes.
        assert!(l.prologue.steps.len() >= 5);
    }

    #[test]
    fn dynamic_indexing_lowered() {
        let l = lower(
            "int[4] arr;
             harness void main() {
                 fork (i; 2) { arr[i] = i; }
             }",
        );
        assert!(l.workers[0]
            .steps
            .iter()
            .any(|s| matches!(&s.op, Op::Assign(Lv::Global(_), _))
                || matches!(&s.op, Op::Assign(Lv::GlobalDyn { .. }, _))));
    }

    #[test]
    fn errors_reported() {
        assert!(lower_err("int g; void f() { g = 1; }")
            .message
            .contains("harness"));
        assert!(
            lower_err("harness void main() { fork (i; 2) { fork (j; 2) { } } }")
                .message
                .contains("fork")
        );
        assert!(lower_err(
            "int g; harness void main() { fork (i; 2) { atomic { atomic { g = 1; } } } }"
        )
        .message
        .contains("nested atomic"));
        assert!(
            lower_err("int r(int x) { return r(x); } harness void main() { int q = r(1); }")
                .message
                .contains("depth")
        );
        assert!(lower_err("harness void main() { int x = 1 / 0; }")
            .message
            .contains("zero"));
        assert!(
            lower_err("harness void main() { int a = 2; int x = 4 / a; }")
                .message
                .contains("non-constant")
        );
    }

    #[test]
    fn nonconstant_global_init_rejected() {
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "struct N { int v; } N g = new N(1); harness void main() { }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let err = lower_program(&sk, holes, &cfg).unwrap_err();
        assert!(err.message.contains("constant initializer"));
    }

    #[test]
    fn equivalence_mode_builds_inputs() {
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "int spec(int x) { return x + x; }
             int impl(int x) implements spec { return x * ??(2); }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower_equivalence(&sk, holes, "impl", &cfg).unwrap();
        assert!(l.globals.iter().any(|g| g.is_input));
        assert!(l.workers.is_empty());
        assert!(l
            .prologue
            .steps
            .iter()
            .any(|s| matches!(s.op, Op::Assert(_))));
    }

    #[test]
    fn interner_folds_constants_and_shares_nodes() {
        let mut exprs = Interner::default();
        assert_eq!(exprs.and(Rv::Const(0), Rv::Global(1)), Rv::Const(0));
        assert_eq!(exprs.and(Rv::Const(1), Rv::Local(2)), Rv::Local(2));
        assert_eq!(exprs.not(Rv::Const(0)), Rv::Const(1));
        assert_eq!(exprs.not(Rv::Const(7)), Rv::Const(0));
        let a = exprs.eq(Rv::Hole(0), Rv::Const(1));
        let b = exprs.eq(Rv::Hole(0), Rv::Const(1));
        assert!(Arc::ptr_eq(&exprs.node(a), &exprs.node(b)));
    }

    #[test]
    fn lowered_expressions_are_shared() {
        // Both steps under the innermost `if` are guarded by
        // `(c0 && c1) && c2`, and their guards hold one `c0 && c1`.
        let l = lower(
            "int g; int h;
             harness void main() {
                 if (g == 1) { if (h == 2) { if (g == h) { g = 3; h = 4; } } }
             }",
        );
        let outer_conjuncts: Vec<&Arc<Rv>> = l
            .prologue
            .steps
            .iter()
            .filter(|s| matches!(s.op, Op::Assign(Lv::Global(_), Rv::Const(3 | 4))))
            .map(|s| match &s.guard {
                Rv::Binary(BinOp::And, outer, _) => outer,
                other => panic!("guard {other} is not a conjunction"),
            })
            .collect();
        assert_eq!(outer_conjuncts.len(), 2);
        assert!(matches!(**outer_conjuncts[0], Rv::Binary(BinOp::And, ..)));
        assert!(Arc::ptr_eq(outer_conjuncts[0], outer_conjuncts[1]));

        // Each unrolled copy of the loop evaluates the generator again,
        // and every copy's `g + 1` alternative is one allocation.
        let l = lower(
            "int g;
             harness void main() {
                 int i = 0;
                 while (i < 2) { g = {| g + 1 | g - 1 |}; i = i + 1; }
             }",
        );
        let alternatives: Vec<&Arc<Rv>> = l
            .prologue
            .steps
            .iter()
            .filter_map(|s| match &s.op {
                Op::Assign(Lv::Global(_), Rv::Ite(_, first, _)) => Some(first),
                _ => None,
            })
            .collect();
        assert!(alternatives.len() >= 2, "{} copies", alternatives.len());
        assert!(matches!(**alternatives[0], Rv::Binary(BinOp::Add, ..)));
        assert!(alternatives.iter().all(|a| Arc::ptr_eq(a, alternatives[0])));
    }

    #[test]
    fn short_circuit_with_impure_rhs() {
        let l = lower(
            "struct E { int taken; E next; }
             E head;
             harness void main() {
                 E cur = head;
                 bit b = cur != null && AtomicSwap(cur.taken, 1) == 1;
             }",
        );
        // The Swap step's guard must involve the short-circuit temp.
        let swap = l
            .prologue
            .steps
            .iter()
            .find(|s| matches!(s.op, Op::Swap { .. }))
            .expect("swap emitted");
        assert!(
            !matches!(swap.guard, Rv::Const(_)),
            "swap should be conditionally guarded: {:?}",
            swap.guard
        );
    }
}
