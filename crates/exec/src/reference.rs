//! The reference engine: the one oracle for the checking engine.
//!
//! A clone-per-transition checker over nested stores (`Vec<Vec<i64>>`
//! heap), with a full [`RefStore`]/locals clone on every fired
//! transition and a per-state canonical `Vec<i64>` allocation. It
//! interprets the unsealed `(Lowered, Assignment)` pair directly — its
//! own tree-walking evaluator with a hole table — and shares no
//! execution code with the sealed [`crate::CompiledProgram`] the
//! engine runs, which is what makes it an independent oracle. It is
//! not feature-gated, so it always compiles and its semantics cannot
//! rot, and it has two consumers:
//!
//! * `tests/engine_differential.rs` and `tests/compiled_differential.rs`
//!   run every example sketch through both engines and assert
//!   identical verdicts, state counts and counterexample traces;
//! * the `bench_checker` binary measures states/sec of both engines on
//!   Table-1 workloads.
//!
//! It is sequential, full-expansion only and must not grow features:
//! when the engine's observable semantics change deliberately, change
//! this one to match (and say so in the differential test).

use crate::checker::{
    early_failure_stats, CheckOutcome, CheckStats, Interrupt, SearchLimits, Verdict,
};
use crate::fingerprint::FpSet;
use psketch_ir::{Assignment, Lowered, Lv, Op, Rv, Thread, ThreadId};
use psketch_lang::ast::{BinOp, UnOp};

use crate::store::{CexTrace, Failure, FailureKind};

/// The nested shared state of the reference engine (the layout the
/// flat [`crate::StateBuf`] replaced).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefStore {
    /// Global slot values.
    pub globals: Vec<i64>,
    /// Heap cells: `heap[sid][obj * nfields + fid]`.
    pub heap: Vec<Vec<i64>>,
    /// Allocation counts per struct pool.
    pub allocs: Vec<usize>,
}

impl RefStore {
    /// The initial store of a lowered program.
    pub fn initial(l: &Lowered) -> RefStore {
        RefStore {
            globals: l.globals.iter().map(|g| g.init).collect(),
            heap: l
                .structs
                .iter()
                .map(|s| vec![0; s.fields.len() * s.capacity])
                .collect(),
            allocs: vec![0; l.structs.len()],
        }
    }
}

type EvalResult = Result<i64, FailureKind>;

fn eval_rv(
    rv: &Rv,
    store: &RefStore,
    locals: &[i64],
    holes: &Assignment,
    l: &Lowered,
) -> EvalResult {
    let wrap = |v: i64| l.config.wrap(v);
    Ok(match rv {
        Rv::Const(c) => *c,
        Rv::Global(g) => store.globals[*g],
        Rv::Local(x) => locals[*x],
        Rv::Hole(h) => wrap(holes.value(*h) as i64),
        Rv::GlobalDyn { base, len, ix } => {
            let i = eval_rv(ix, store, locals, holes, l)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            store.globals[base + i as usize]
        }
        Rv::LocalDyn { base, len, ix } => {
            let i = eval_rv(ix, store, locals, holes, l)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            locals[base + i as usize]
        }
        Rv::Field { sid, fid, obj } => {
            let o = eval_rv(obj, store, locals, holes, l)?;
            let cell = field_cell(*sid, *fid, o, l)?;
            store.heap[*sid][cell]
        }
        Rv::Unary(op, a) => {
            let v = eval_rv(a, store, locals, holes, l)?;
            match op {
                UnOp::Not => i64::from(v == 0),
                UnOp::Neg => wrap(-v),
                UnOp::BitsToInt => v,
            }
        }
        Rv::Binary(BinOp::And, a, b) => {
            if eval_rv(a, store, locals, holes, l)? == 0 {
                0
            } else {
                i64::from(eval_rv(b, store, locals, holes, l)? != 0)
            }
        }
        Rv::Binary(BinOp::Or, a, b) => {
            if eval_rv(a, store, locals, holes, l)? != 0 {
                1
            } else {
                i64::from(eval_rv(b, store, locals, holes, l)? != 0)
            }
        }
        Rv::Binary(op, a, b) => {
            let x = eval_rv(a, store, locals, holes, l)?;
            let y = eval_rv(b, store, locals, holes, l)?;
            match op {
                BinOp::Add => wrap(x + y),
                BinOp::Sub => wrap(x - y),
                BinOp::Mul => wrap(x.wrapping_mul(y)),
                BinOp::Div => wrap(x.wrapping_div(y)),
                BinOp::Mod => wrap(x.wrapping_rem(y)),
                BinOp::Eq => i64::from(x == y),
                BinOp::Ne => i64::from(x != y),
                BinOp::Lt => i64::from(x < y),
                BinOp::Le => i64::from(x <= y),
                BinOp::Gt => i64::from(x > y),
                BinOp::Ge => i64::from(x >= y),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
        Rv::Ite(c, a, b) => {
            if eval_rv(c, store, locals, holes, l)? != 0 {
                eval_rv(a, store, locals, holes, l)?
            } else {
                eval_rv(b, store, locals, holes, l)?
            }
        }
    })
}

fn field_cell(sid: usize, fid: usize, obj: i64, l: &Lowered) -> Result<usize, FailureKind> {
    if obj == 0 {
        return Err(FailureKind::NullDeref);
    }
    let layout = &l.structs[sid];
    let ix = (obj - 1) as usize;
    if ix >= layout.capacity {
        return Err(FailureKind::OutOfBounds);
    }
    Ok(ix * layout.fields.len() + fid)
}

enum Cell {
    Global(usize),
    Local(usize),
    Heap { sid: usize, cell: usize },
}

fn resolve_lv(
    lv: &Lv,
    store: &RefStore,
    locals: &[i64],
    holes: &Assignment,
    l: &Lowered,
) -> Result<Cell, FailureKind> {
    Ok(match lv {
        Lv::Global(g) => Cell::Global(*g),
        Lv::Local(x) => Cell::Local(*x),
        Lv::GlobalDyn { base, len, ix } => {
            let i = eval_rv(ix, store, locals, holes, l)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            Cell::Global(base + i as usize)
        }
        Lv::LocalDyn { base, len, ix } => {
            let i = eval_rv(ix, store, locals, holes, l)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            Cell::Local(base + i as usize)
        }
        Lv::Field { sid, fid, obj } => {
            let o = eval_rv(obj, store, locals, holes, l)?;
            Cell::Heap {
                sid: *sid,
                cell: field_cell(*sid, *fid, o, l)?,
            }
        }
    })
}

fn write_cell(cell: Cell, v: i64, store: &mut RefStore, locals: &mut [i64]) {
    match cell {
        Cell::Global(g) => store.globals[g] = v,
        Cell::Local(x) => locals[x] = v,
        Cell::Heap { sid, cell } => store.heap[sid][cell] = v,
    }
}

fn read_cell(cell: &Cell, store: &RefStore, locals: &[i64]) -> i64 {
    match cell {
        Cell::Global(g) => store.globals[*g],
        Cell::Local(x) => locals[*x],
        Cell::Heap { sid, cell } => store.heap[*sid][*cell],
    }
}

fn exec_op(
    op: &Op,
    store: &mut RefStore,
    locals: &mut [i64],
    holes: &Assignment,
    l: &Lowered,
) -> Result<(), FailureKind> {
    match op {
        Op::Assign(lv, rv) => {
            let v = eval_rv(rv, store, locals, holes, l)?;
            let cell = resolve_lv(lv, store, locals, holes, l)?;
            write_cell(cell, v, store, locals);
        }
        Op::Swap { dst, loc, val } => {
            let v = eval_rv(val, store, locals, holes, l)?;
            let loc_cell = resolve_lv(loc, store, locals, holes, l)?;
            let old = read_cell(&loc_cell, store, locals);
            write_cell(loc_cell, v, store, locals);
            let dst_cell = resolve_lv(dst, store, locals, holes, l)?;
            write_cell(dst_cell, old, store, locals);
        }
        Op::Cas { dst, loc, old, new } => {
            let ov = eval_rv(old, store, locals, holes, l)?;
            let nv = eval_rv(new, store, locals, holes, l)?;
            let loc_cell = resolve_lv(loc, store, locals, holes, l)?;
            let cur = read_cell(&loc_cell, store, locals);
            let ok = cur == ov;
            if ok {
                write_cell(loc_cell, nv, store, locals);
            }
            let dst_cell = resolve_lv(dst, store, locals, holes, l)?;
            write_cell(dst_cell, i64::from(ok), store, locals);
        }
        Op::FetchAdd { dst, loc, delta } => {
            let loc_cell = resolve_lv(loc, store, locals, holes, l)?;
            let old = read_cell(&loc_cell, store, locals);
            write_cell(loc_cell, l.config.wrap(old + delta), store, locals);
            let dst_cell = resolve_lv(dst, store, locals, holes, l)?;
            write_cell(dst_cell, old, store, locals);
        }
        Op::Alloc { dst, sid, inits } => {
            let layout = &l.structs[*sid];
            if store.allocs[*sid] >= layout.capacity {
                return Err(FailureKind::PoolExhausted);
            }
            let obj = store.allocs[*sid];
            store.allocs[*sid] += 1;
            let nf = layout.fields.len();
            for (fid, (_, _, default)) in layout.fields.iter().enumerate() {
                store.heap[*sid][obj * nf + fid] = *default;
            }
            let mut vals = Vec::with_capacity(inits.len());
            for (fid, rv) in inits {
                vals.push((*fid, eval_rv(rv, store, locals, holes, l)?));
            }
            for (fid, v) in vals {
                store.heap[*sid][obj * nf + fid] = v;
            }
            let dst_cell = resolve_lv(dst, store, locals, holes, l)?;
            write_cell(dst_cell, (obj + 1) as i64, store, locals);
        }
        Op::Assert(c) => {
            if eval_rv(c, store, locals, holes, l)? == 0 {
                return Err(FailureKind::AssertFailed);
            }
        }
        Op::AtomicBegin(_) | Op::AtomicEnd => {}
    }
    Ok(())
}

#[derive(Clone)]
struct WorkerState {
    pc: usize,
    locals: Vec<i64>,
}

#[derive(Clone)]
struct ExecState {
    store: RefStore,
    workers: Vec<WorkerState>,
}

struct RefChecker<'a> {
    l: &'a Lowered,
    holes: &'a Assignment,
}

type FireResult = Result<Vec<(ThreadId, usize)>, (Vec<(ThreadId, usize)>, Failure)>;

impl<'a> RefChecker<'a> {
    fn new(l: &'a Lowered, holes: &'a Assignment) -> RefChecker<'a> {
        RefChecker { l, holes }
    }

    fn initial_workers(&self, store: RefStore) -> ExecState {
        ExecState {
            store,
            workers: self
                .l
                .workers
                .iter()
                .map(|w| WorkerState {
                    pc: 0,
                    locals: vec![0; w.locals.len()],
                })
                .collect(),
        }
    }

    fn trace_tid(&self, worker: usize) -> ThreadId {
        worker + 1
    }

    fn run_seq(&self, tid: ThreadId, thread: &Thread, store: &mut RefStore) -> FireResult {
        let mut locals = vec![0i64; thread.locals.len()];
        let mut steps = Vec::new();
        for (ix, step) in thread.steps.iter().enumerate() {
            let fail = |mut steps: Vec<(ThreadId, usize)>, kind| {
                steps.push((tid, ix));
                (
                    steps,
                    Failure {
                        kind,
                        tid,
                        step: ix,
                        span: step.span,
                    },
                )
            };
            let g = match eval_rv(&step.guard, store, &locals, self.holes, self.l) {
                Ok(v) => v != 0,
                Err(kind) => return Err(fail(steps, kind)),
            };
            if !g {
                continue;
            }
            if let Op::AtomicBegin(Some(cond)) = &step.op {
                let c = match eval_rv(cond, store, &locals, self.holes, self.l) {
                    Ok(v) => v != 0,
                    Err(kind) => return Err(fail(steps, kind)),
                };
                if !c {
                    // Blocking with no peers: immediate deadlock (the
                    // failing step is *not* appended — it never ran).
                    return Err((
                        steps,
                        Failure {
                            kind: FailureKind::Deadlock,
                            tid,
                            step: ix,
                            span: step.span,
                        },
                    ));
                }
            }
            if let Err(kind) = exec_op(&step.op, store, &mut locals, self.holes, self.l) {
                return Err(fail(steps, kind));
            }
            steps.push((tid, ix));
        }
        Ok(steps)
    }

    fn advance(&self, state: &mut ExecState, w: usize) -> FireResult {
        let thread = &self.l.workers[w];
        let tid = self.trace_tid(w);
        let mut executed = Vec::new();
        loop {
            let pc = state.workers[w].pc;
            let Some(step) = thread.steps.get(pc) else {
                return Ok(executed);
            };
            let g = eval_rv(
                &step.guard,
                &state.store,
                &state.workers[w].locals,
                self.holes,
                self.l,
            )
            .map_err(|kind| {
                let mut with_witness = executed.clone();
                with_witness.push((tid, pc));
                (
                    with_witness,
                    Failure {
                        kind,
                        tid,
                        step: pc,
                        span: step.span,
                    },
                )
            })?;
            if g == 0 {
                state.workers[w].pc += 1;
                continue;
            }
            if step.shared || !self.l.config.reduce_local_steps {
                return Ok(executed);
            }
            exec_op(
                &step.op,
                &mut state.store,
                &mut state.workers[w].locals,
                self.holes,
                self.l,
            )
            .map_err(|kind| {
                let mut with_witness = executed.clone();
                with_witness.push((tid, pc));
                (
                    with_witness,
                    Failure {
                        kind,
                        tid,
                        step: pc,
                        span: step.span,
                    },
                )
            })?;
            executed.push((tid, pc));
            state.workers[w].pc += 1;
        }
    }

    fn advance_all(&self, state: &mut ExecState) -> FireResult {
        let mut all = Vec::new();
        for w in 0..state.workers.len() {
            all.extend(self.advance(state, w)?);
        }
        Ok(all)
    }

    fn finished(&self, state: &ExecState, w: usize) -> bool {
        state.workers[w].pc >= self.l.workers[w].steps.len()
    }

    fn all_finished(&self, state: &ExecState) -> bool {
        (0..state.workers.len()).all(|w| self.finished(state, w))
    }

    fn enabled(&self, state: &ExecState, w: usize) -> bool {
        if self.finished(state, w) {
            return false;
        }
        let step = &self.l.workers[w].steps[state.workers[w].pc];
        match &step.op {
            Op::AtomicBegin(Some(cond)) => matches!(
                eval_rv(
                    cond,
                    &state.store,
                    &state.workers[w].locals,
                    self.holes,
                    self.l
                ),
                Ok(v) if v != 0
            ),
            _ => true,
        }
    }

    fn fire(&self, state: &mut ExecState, w: usize) -> FireResult {
        let thread = &self.l.workers[w];
        let tid = self.trace_tid(w);
        let mut executed = Vec::new();
        let pc = state.workers[w].pc;
        let fail = |mut executed: Vec<(ThreadId, usize)>, kind, ix: usize| {
            executed.push((tid, ix));
            (
                executed,
                Failure {
                    kind,
                    tid,
                    step: ix,
                    span: thread.steps[ix].span,
                },
            )
        };
        match thread.atomic_end(pc) {
            Some(end) => {
                executed.push((tid, pc));
                for ix in pc + 1..end {
                    let s = &thread.steps[ix];
                    let g = eval_rv(
                        &s.guard,
                        &state.store,
                        &state.workers[w].locals,
                        self.holes,
                        self.l,
                    )
                    .map_err(|k| fail(executed.clone(), k, ix))?;
                    if g == 0 {
                        continue;
                    }
                    exec_op(
                        &s.op,
                        &mut state.store,
                        &mut state.workers[w].locals,
                        self.holes,
                        self.l,
                    )
                    .map_err(|k| fail(executed.clone(), k, ix))?;
                    executed.push((tid, ix));
                }
                executed.push((tid, end));
                state.workers[w].pc = end + 1;
            }
            None => {
                exec_op(
                    &thread.steps[pc].op,
                    &mut state.store,
                    &mut state.workers[w].locals,
                    self.holes,
                    self.l,
                )
                .map_err(|k| fail(executed.clone(), k, pc))?;
                executed.push((tid, pc));
                state.workers[w].pc = pc + 1;
            }
        }
        executed.extend(self.advance(state, w).map_err(|(mut sofar, f)| {
            let mut all = executed.clone();
            all.append(&mut sofar);
            (all, f)
        })?);
        Ok(executed)
    }

    fn blocked_positions(&self, state: &ExecState) -> Vec<(ThreadId, usize)> {
        (0..state.workers.len())
            .filter(|&w| !self.finished(state, w))
            .map(|w| (self.trace_tid(w), state.workers[w].pc))
            .collect()
    }

    fn deadlock_failure(&self, state: &ExecState) -> Failure {
        let (tid, step) = *self
            .blocked_positions(state)
            .first()
            .expect("deadlock_failure requires at least one blocked worker");
        let span = self.l.workers[tid - 1].steps[step].span;
        Failure {
            kind: FailureKind::Deadlock,
            tid,
            step,
            span,
        }
    }

    /// Canonical state encoding with dead locals masked out — the
    /// per-state `Vec` allocation the streaming fingerprints replaced.
    fn canonical(&self, state: &ExecState) -> Vec<i64> {
        let mut v = Vec::with_capacity(
            state.workers.len()
                + state.store.globals.len()
                + state.store.allocs.len()
                + state.workers.iter().map(|w| w.locals.len()).sum::<usize>(),
        );
        for w in &state.workers {
            v.push(w.pc as i64);
        }
        v.extend_from_slice(&state.store.globals);
        for h in &state.store.heap {
            v.extend_from_slice(h);
        }
        v.extend(state.store.allocs.iter().map(|&a| a as i64));
        for (w, thread) in state.workers.iter().zip(&self.l.workers) {
            v.extend(thread.live_values(w.pc, &w.locals));
        }
        v
    }

    fn run(&self, limits: &SearchLimits) -> CheckOutcome {
        let mut stats = CheckStats::default();
        let mut store = RefStore::initial(self.l);
        let prologue_steps = match self.run_seq(0, &self.l.prologue, &mut store) {
            Ok(steps) => steps,
            Err((steps, failure)) => {
                let stats = early_failure_stats(&steps);
                return CheckOutcome {
                    verdict: Verdict::Fail(CexTrace {
                        steps,
                        deadlock: failure.sequential_deadlock(),
                        failure,
                        schedule: vec![],
                    }),
                    stats,
                };
            }
        };
        let mut init = self.initial_workers(store);
        match self.advance_all(&mut init) {
            Ok(steps) => {
                let mut pre = prologue_steps.clone();
                pre.extend(steps);
                self.dfs(init, pre, limits, &mut stats)
            }
            Err((steps, failure)) => {
                let mut all = prologue_steps;
                all.extend(steps);
                let stats = early_failure_stats(&all);
                CheckOutcome {
                    verdict: Verdict::Fail(CexTrace {
                        steps: all,
                        failure,
                        deadlock: vec![],
                        schedule: vec![],
                    }),
                    stats,
                }
            }
        }
    }

    fn dfs(
        &self,
        init: ExecState,
        prefix: Vec<(ThreadId, usize)>,
        limits: &SearchLimits,
        stats: &mut CheckStats,
    ) -> CheckOutcome {
        struct Frame {
            state: ExecState,
            executed: Vec<(ThreadId, usize)>,
            next_choice: usize,
            /// Worker whose fire created this frame (unused on the root).
            fired: usize,
        }
        let unknown = |why: Interrupt, stats: &mut CheckStats| {
            if why == Interrupt::StateLimit {
                stats.states = stats.states.min(limits.max_states);
            }
            CheckOutcome {
                verdict: Verdict::Unknown(why),
                stats: *stats,
            }
        };
        let mut visited = FpSet::new();
        let mut stack = vec![Frame {
            state: init,
            executed: Vec::new(),
            next_choice: 0,
            fired: 0,
        }];
        visited.insert(&self.canonical(&stack[0].state));
        stats.states = visited.len();
        if visited.len() > limits.max_states {
            return unknown(Interrupt::StateLimit, stats);
        }

        let build_trace =
            |stack: &[Frame], extra: Vec<(ThreadId, usize)>| -> Vec<(ThreadId, usize)> {
                let mut t = prefix.clone();
                for f in stack {
                    t.extend(f.executed.iter().copied());
                }
                t.extend(extra);
                t
            };
        let build_schedule = |stack: &[Frame], extra: Option<usize>| -> Vec<u32> {
            let mut s: Vec<u32> = stack.iter().skip(1).map(|f| f.fired as u32).collect();
            if let Some(w) = extra {
                s.push(w as u32);
            }
            s
        };

        let mut tick = 0usize;
        while let Some(top_ix) = stack.len().checked_sub(1) {
            tick += 1;
            if let Some(why) = limits.tripped(tick) {
                return unknown(why, stats);
            }
            let nworkers = stack[top_ix].state.workers.len();
            if stack[top_ix].next_choice == 0 {
                let state = &stack[top_ix].state;
                let any_enabled = (0..nworkers).any(|w| self.enabled(state, w));
                if !any_enabled {
                    if self.all_finished(state) {
                        stats.terminal_states += 1;
                        let mut store = state.store.clone();
                        stats.state_clones += 1;
                        match self.run_seq(self.l.epilogue_tid(), &self.l.epilogue, &mut store) {
                            Ok(_) => {
                                stack.pop();
                                continue;
                            }
                            Err((esteps, failure)) => {
                                let steps = build_trace(&stack, esteps);
                                let schedule = build_schedule(&stack, None);
                                return CheckOutcome {
                                    verdict: Verdict::Fail(CexTrace {
                                        steps,
                                        deadlock: failure.sequential_deadlock(),
                                        failure,
                                        schedule,
                                    }),
                                    stats: *stats,
                                };
                            }
                        }
                    } else {
                        let failure = self.deadlock_failure(state);
                        let deadlock = self.blocked_positions(state);
                        let steps = build_trace(&stack, vec![]);
                        let schedule = build_schedule(&stack, None);
                        return CheckOutcome {
                            verdict: Verdict::Fail(CexTrace {
                                steps,
                                failure,
                                deadlock,
                                schedule,
                            }),
                            stats: *stats,
                        };
                    }
                }
            }
            let mut fired = false;
            while stack[top_ix].next_choice < nworkers {
                let w = stack[top_ix].next_choice;
                stack[top_ix].next_choice += 1;
                if !self.enabled(&stack[top_ix].state, w) {
                    continue;
                }
                // The clone this engine pays on *every* transition.
                let mut next = stack[top_ix].state.clone();
                stats.state_clones += 1;
                stats.transitions += 1;
                match self.fire(&mut next, w) {
                    Ok(executed) => {
                        if visited.insert(&self.canonical(&next)) {
                            stats.states = visited.len();
                            if visited.len() > limits.max_states {
                                return unknown(Interrupt::StateLimit, stats);
                            }
                            stack.push(Frame {
                                state: next,
                                executed,
                                next_choice: 0,
                                fired: w,
                            });
                            fired = true;
                            break;
                        }
                    }
                    Err((executed, failure)) => {
                        let steps = build_trace(&stack, executed);
                        let schedule = build_schedule(&stack, Some(w));
                        return CheckOutcome {
                            verdict: Verdict::Fail(CexTrace {
                                steps,
                                failure,
                                deadlock: vec![],
                                schedule,
                            }),
                            stats: *stats,
                        };
                    }
                }
            }
            if !fired {
                stack.pop();
            }
        }
        stats.states = visited.len();
        CheckOutcome {
            verdict: Verdict::Pass,
            stats: *stats,
        }
    }
}

/// Model-checks `candidate` with the reference clone engine.
pub fn check_ref(l: &Lowered, candidate: &Assignment) -> CheckOutcome {
    check_ref_with_limit(l, candidate, 50_000_000)
}

/// As [`check_ref`], bounding the number of distinct states explored.
pub fn check_ref_with_limit(
    l: &Lowered,
    candidate: &Assignment,
    max_states: usize,
) -> CheckOutcome {
    check_ref_with_limits(l, candidate, &SearchLimits::states(max_states))
}

/// As [`check_ref`], under full cooperative [`SearchLimits`].
pub fn check_ref_with_limits(
    l: &Lowered,
    candidate: &Assignment,
    limits: &SearchLimits,
) -> CheckOutcome {
    RefChecker::new(l, candidate).run(limits)
}
