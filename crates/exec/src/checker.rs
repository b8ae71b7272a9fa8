//! The explicit-state model checker.
//!
//! Depth-first search over all interleavings of the workers'
//! shared-state steps of one sealed candidate ([`CompiledProgram`]),
//! with state hashing (dead thread-locals are masked out of the
//! canonical state to merge equivalent paths) and exact
//! counterexample-trace extraction. The checker has exactly one
//! constructor, `Checker::from_compiled`: the DFS, replay and the
//! schedule-bank prescreen all execute the artifact's micro-op code,
//! so one step semantics drives them all, and [`crate::reference`] is
//! the independent oracle they are tested against. Each of them starts
//! an execution at [`Checker::root`] and ends it at
//! [`Checker::terminal`].
//!
//! The search is **zero-clone**: one live [`StateBuf`] is mutated in
//! place as transitions fire, every write is recorded in an
//! [`UndoJournal`], and backtracking reverts the journal to the frame's
//! mark instead of restoring a per-frame snapshot. Visited states are
//! reduced to streaming 64-bit fingerprints hashed directly off the
//! flat buffer ([`Checker::fingerprint_state`]), so steady-state
//! exploration allocates nothing per state.

use crate::compiled::{exec_cop, COp, CStep, CompiledProgram, ThreadCode};
use crate::fingerprint::{cell_hash, combine_fp, FpSet};
use crate::por::PorTable;
use crate::store::{CexTrace, Failure, FailureKind, StateBuf, StateLayout, UndoJournal};
use psketch_ir::{Assignment, Lowered, Thread, ThreadId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a search stopped without an answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interrupt {
    /// The distinct-state limit was reached: the search tried to claim
    /// state number `max_states + 1`.
    StateLimit,
    /// The wall-clock deadline passed.
    Deadline,
    /// The external cancellation flag was raised (e.g. by a memory
    /// watchdog).
    Cancelled,
}

impl Interrupt {
    /// A short stable label (used in reports).
    pub fn label(&self) -> &'static str {
        match self {
            Interrupt::StateLimit => "state-limit",
            Interrupt::Deadline => "deadline",
            Interrupt::Cancelled => "cancelled",
        }
    }
}

/// Cooperative resource limits for one search.
///
/// `max_states` is claim-based: every *fresh* insertion into the
/// visited set claims one slot, and the search stops with
/// [`Interrupt::StateLimit`] exactly when slot `max_states + 1` is
/// claimed. The reference engine uses the same rule, so the
/// pass/unknown boundary is deterministic: a state space of at most
/// `max_states` distinct states always passes (absent a failure), one
/// of `max_states + 1` or more never does.
#[derive(Clone, Debug)]
pub struct SearchLimits {
    /// Maximum distinct states to explore.
    pub max_states: usize,
    /// Give up (verdict [`Interrupt::Deadline`]) past this instant.
    pub deadline: Option<Instant>,
    /// Give up (verdict [`Interrupt::Cancelled`]) when this flag is
    /// raised by another thread.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Ample-set partial-order reduction (on by default): expand only
    /// a provably sufficient subset of the enabled workers per state
    /// (see [`crate::por`]). Verdict-preserving — pass/fail/deadlock
    /// cannot change — but a failing run may report a different
    /// (equally real) counterexample, and fewer states are explored.
    pub por: bool,
    /// Unused: the checker has no symmetry reduction. Kept so existing
    /// struct literals that name the field still compile.
    #[doc(hidden)]
    pub symmetry: bool,
    /// Unused: every search runs a sealed [`CompiledProgram`]. Kept so
    /// existing struct literals that name the field still compile.
    #[doc(hidden)]
    pub compile: bool,
}

impl Default for SearchLimits {
    fn default() -> SearchLimits {
        SearchLimits {
            max_states: usize::MAX,
            deadline: None,
            cancel: None,
            por: true,
            symmetry: true,
            compile: true,
        }
    }
}

impl SearchLimits {
    /// Limits with only a state bound.
    pub fn states(max_states: usize) -> SearchLimits {
        SearchLimits {
            max_states,
            ..SearchLimits::default()
        }
    }

    /// Which non-state limit has tripped, if any. The deadline is only
    /// consulted when `tick` is a multiple of 64 (callers bump `tick`
    /// once per search step; `Instant::now` is not free).
    pub(crate) fn tripped(&self, tick: usize) -> Option<Interrupt> {
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            // `& 63 == 1` so the very first step already polls: a
            // search started past its deadline must not run at all.
            if tick & 63 == 1 && Instant::now() >= d {
                return Some(Interrupt::Deadline);
            }
        }
        None
    }
}

/// The checker's verdict.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// No interleaving fails.
    Pass,
    /// Some interleaving fails; here is the observation.
    Fail(CexTrace),
    /// A resource limit stopped the search before it exhausted the
    /// space; the payload says which one.
    Unknown(Interrupt),
}

/// Search-effort counters: the one record of what a checker search
/// did, summed across workers and verification calls by
/// [`CheckStats::add`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions fired.
    pub transitions: usize,
    /// Completed executions (all threads finished + epilogue run).
    pub terminal_states: usize,
    /// Writes recorded in the undo journal — the undo engine's unit of
    /// per-transition work (the reference clone engine reports 0).
    pub journal_writes: u64,
    /// Full state snapshots paid. The undo engine never clones; the
    /// reference clone engine pays one per transition.
    pub state_clones: usize,
    /// States at which partial-order reduction found a proper ample
    /// subset of the enabled workers.
    pub por_ample_hits: u64,
    /// States with two or more enabled workers at which no ample
    /// subset existed and the checker fell back to full expansion.
    pub por_fallbacks: u64,
    /// Enabled transitions skipped by partial-order reduction (summed
    /// over ample hits) — successors never fired at all.
    pub states_pruned: u64,
    /// Always 0: the checker has no symmetry reduction. Kept so
    /// existing readers of the field still compile.
    #[doc(hidden)]
    pub sym_collapses: u64,
}

impl CheckStats {
    /// Adds `other`'s counters to these.
    pub fn add(&mut self, other: &CheckStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.terminal_states += other.terminal_states;
        self.journal_writes += other.journal_writes;
        self.state_clones += other.state_clones;
        self.por_ample_hits += other.por_ample_hits;
        self.por_fallbacks += other.por_fallbacks;
        self.states_pruned += other.states_pruned;
    }
}

/// Result of [`check_compiled`].
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Pass / fail / unknown.
    pub verdict: Verdict,
    /// Search counters.
    pub stats: CheckStats,
}

impl CheckOutcome {
    /// True when verification passed.
    pub fn is_ok(&self) -> bool {
        matches!(self.verdict, Verdict::Pass)
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&CexTrace> {
        match &self.verdict {
            Verdict::Fail(t) => Some(t),
            _ => None,
        }
    }
}

/// Seals `candidate` and model-checks it over every interleaving.
pub fn check(l: &Lowered, candidate: &Assignment) -> CheckOutcome {
    check_with_limit(l, candidate, 50_000_000)
}

/// As [`check`], bounding the number of distinct states explored.
pub fn check_with_limit(l: &Lowered, candidate: &Assignment, max_states: usize) -> CheckOutcome {
    let cp = CompiledProgram::compile(l, candidate);
    check_compiled(&cp, &SearchLimits::states(max_states))
}

/// Model-checks a sealed candidate over every interleaving, under full
/// cooperative [`SearchLimits`] (state bound, wall deadline, external
/// cancellation, reduction). Partial statistics are reported on every
/// exit path. Seal once per candidate and share the artifact between
/// the prescreen and the exhaustive search — this is the entry point
/// the CEGIS loop uses.
pub fn check_compiled(cp: &CompiledProgram, limits: &SearchLimits) -> CheckOutcome {
    Checker::from_compiled(cp).run(limits)
}

/// Stats for a run that failed before the interleaving search began
/// (in the prologue or the initial local-step absorption). The work
/// was real, so it is reported: the one execution context examined
/// counts as a state and every executed trace step as a transition.
/// Both checkers use this, so their early-failure stats agree exactly.
pub(crate) fn early_failure_stats(steps: &[(ThreadId, usize)]) -> CheckStats {
    CheckStats {
        states: 1,
        transitions: steps.len(),
        ..CheckStats::default()
    }
}

/// Replays a specific schedule on a sealed candidate: after the
/// prologue, fires workers in the order given by `schedule` (worker
/// indices, 0-based); remaining enabled workers then run round-robin;
/// the epilogue follows. Returns the failure trace, if the schedule
/// hits one.
///
/// Fully deterministic: the same candidate and schedule always produce
/// the same execution. A returned trace carries the workers *actually*
/// fired as its own `schedule`, so it replays exactly even when the
/// input schedule skipped disabled entries. Used by tests,
/// counterexample double-checking and the schedule-bank prescreen
/// ([`crate::ScheduleBank`]).
pub fn replay_compiled(cp: &CompiledProgram, schedule: &[usize]) -> Option<CexTrace> {
    replay_with(&Checker::from_compiled(cp), schedule)
}

/// As [`replay_compiled`], additionally returning the fingerprint of
/// the final state the execution reached (after the epilogue on clean
/// runs, at the failing state otherwise). The fingerprint pins replay
/// determinism in tests: two replays of one schedule must end in
/// states that fingerprint identically.
pub fn replay_fp_compiled(cp: &CompiledProgram, schedule: &[usize]) -> (Option<CexTrace>, u64) {
    let ck = Checker::from_compiled(cp);
    let (cex, buf) = replay_to_end(&ck, schedule);
    (cex, ck.fingerprint_state(&buf))
}

/// Replay over a prebuilt checker — lets the schedule bank reuse one
/// checker (and one compiled artifact) across every replay of a
/// candidate.
pub(crate) fn replay_with(ck: &Checker<'_>, schedule: &[usize]) -> Option<CexTrace> {
    replay_to_end(ck, schedule).0
}

/// Replays `schedule`, returning the counterexample, if any, and the
/// state the execution ended in.
fn replay_to_end(ck: &Checker<'_>, schedule: &[usize]) -> (Option<CexTrace>, StateBuf) {
    let mut j = UndoJournal::new();
    let (mut buf, root) = ck.root(&mut j);
    let mut trace = match root {
        Ok(steps) => steps,
        Err(cex) => return (Some(cex), buf),
    };
    let mut fired: Vec<u32> = Vec::new();
    let mut queue: Vec<usize> = schedule.to_vec();
    let cex = loop {
        let pick = queue
            .iter()
            .position(|&t| ck.enabled(&buf, t))
            .map(|ix| queue.remove(ix))
            .or_else(|| (0..ck.nworkers()).find(|&t| ck.enabled(&buf, t)));
        let Some(t) = pick else {
            let end = ck.terminal(&mut buf, &mut j, &mut CheckStats::default(), &mut trace);
            break end.map(|stuck| stuck.cex(trace, fired));
        };
        fired.push(t as u32);
        if let Err(failure) = ck.fire(&mut buf, &mut j, t, &mut trace) {
            break Some(CexTrace {
                steps: trace,
                failure,
                deadlock: vec![],
                schedule: fired,
            });
        }
    };
    (cex, buf)
}

/// A failure where no worker is enabled (see [`Checker::terminal`]).
pub(crate) struct Stuck {
    failure: Failure,
    /// The blocked workers' positions (empty when the epilogue failed).
    deadlock: Vec<(ThreadId, usize)>,
}

impl Stuck {
    /// The counterexample of an execution that ran `trace` (ending
    /// with the epilogue steps [`Checker::terminal`] appended) under
    /// `schedule` and got stuck here.
    pub(crate) fn cex(self, trace: Vec<(ThreadId, usize)>, schedule: Vec<u32>) -> CexTrace {
        CexTrace {
            steps: trace,
            failure: self.failure,
            deadlock: self.deadlock,
            schedule,
        }
    }
}

/// The cells one transition has written, for finding each cell's
/// first journal entry in O(1): one generation stamp per state word,
/// so that nothing is cleared between transitions.
struct FirstWrites {
    stamp: Vec<u64>,
    gen: u64,
}

impl FirstWrites {
    fn new(state_len: usize) -> FirstWrites {
        FirstWrites {
            stamp: vec![0; state_len],
            gen: 0,
        }
    }

    /// Begins a transition: no cell is written yet.
    fn begin(&mut self) {
        self.gen += 1;
    }

    /// Marks cell `o` written; true at its first write of the
    /// transition.
    fn first(&mut self, o: usize) -> bool {
        std::mem::replace(&mut self.stamp[o], self.gen) != self.gen
    }

    /// Has the transition written cell `o`?
    fn written(&self, o: usize) -> bool {
        self.stamp[o] == self.gen
    }
}

/// The failure of step `ix` of `thread` (trace id `tid`), its step
/// appended to `steps` as the witness: the projection must replay the
/// failing statement at its observed position so that `fail(Sk_t[c])`
/// fires for the candidate that produced the trace.
fn witness(
    steps: &mut Vec<(ThreadId, usize)>,
    thread: &Thread,
    tid: ThreadId,
    ix: usize,
    kind: FailureKind,
) -> Failure {
    steps.push((tid, ix));
    Failure {
        kind,
        tid,
        step: ix,
        span: thread.steps[ix].span,
    }
}

pub(crate) struct Checker<'a> {
    pub(crate) l: &'a Lowered,
    /// The sealed artifact the checker runs; its POR table is read
    /// (and so built) only by searches that reduce and by the walker.
    pub(crate) cp: &'a CompiledProgram<'a>,
    /// Segment table of the flat state.
    pub(crate) lay: &'a StateLayout,
    /// The artifact's per-thread micro-op arrays, indexed by trace
    /// thread id like `l`'s threads.
    code: &'a [ThreadCode],
}

impl<'a> Checker<'a> {
    /// A checker over a sealed [`CompiledProgram`]: the hot path runs
    /// the artifact's micro-op arrays, borrows its layout, and reads
    /// atomic-section ends and liveness off the program's threads —
    /// construction copies no table and builds none.
    pub(crate) fn from_compiled(cp: &'a CompiledProgram<'a>) -> Checker<'a> {
        Checker {
            l: cp.program(),
            cp,
            lay: &cp.lay,
            code: &cp.code,
        }
    }

    /// The initial flat state (workers at pc 0, locals zeroed).
    fn initial_buf(&self) -> StateBuf {
        StateBuf::initial(self.lay, self.l)
    }

    pub(crate) fn nworkers(&self) -> usize {
        self.l.workers.len()
    }

    #[inline]
    fn pc(&self, buf: &StateBuf, w: usize) -> usize {
        buf.get(self.lay.worker_pc(w)) as usize
    }

    /// Worker `w`'s current pc (for the walker and the POR tables).
    pub(crate) fn worker_pc(&self, buf: &StateBuf, w: usize) -> usize {
        self.pc(buf, w)
    }

    #[inline]
    fn set_pc(&self, buf: &mut StateBuf, w: usize, pc: usize, j: &mut UndoJournal) {
        buf.set(self.lay.worker_pc(w), pc as i64, j);
    }

    fn trace_tid(&self, worker: usize) -> ThreadId {
        worker + 1
    }

    /// The compiled step `ix` of thread `tid` (the trace thread id: 0 =
    /// prologue, `w + 1` = worker `w`, `n + 1` = epilogue, which is
    /// also the artifact's code index).
    #[inline]
    fn cstep(&self, tid: ThreadId, ix: usize) -> &'a CStep {
        &self.code[tid].steps[ix]
    }

    /// Executes the operation of step `ix` of thread `tid`.
    #[inline]
    fn exec_step(
        &self,
        tid: ThreadId,
        ix: usize,
        buf: &mut StateBuf,
        lb: usize,
        j: &mut UndoJournal,
    ) -> Result<(), FailureKind> {
        exec_cop(&self.cstep(tid, ix).op, buf, lb, j, &self.l.config)
    }

    /// Runs a sequential phase (prologue/epilogue) to completion,
    /// appending the steps it executes to `steps`. The phase's locals
    /// live in scratch space pushed onto `buf` for the duration of the
    /// call; shared-state writes are journaled, so the caller can undo
    /// the phase (the terminal-state epilogue) or keep it (the
    /// prologue).
    fn run_seq(
        &self,
        tid: ThreadId,
        thread: &Thread,
        buf: &mut StateBuf,
        j: &mut UndoJournal,
        steps: &mut Vec<(ThreadId, usize)>,
    ) -> Result<(), Failure> {
        let lb = buf.push_scratch(thread.locals.len());
        let r = self.run_seq_at(tid, thread, buf, j, lb, steps);
        buf.pop_scratch(lb);
        r
    }

    fn run_seq_at(
        &self,
        tid: ThreadId,
        thread: &Thread,
        buf: &mut StateBuf,
        j: &mut UndoJournal,
        lb: usize,
        steps: &mut Vec<(ThreadId, usize)>,
    ) -> Result<(), Failure> {
        for ix in 0..thread.steps.len() {
            let cs = self.cstep(tid, ix);
            let g = cs
                .guard
                .eval(buf, lb, &self.l.config)
                .map_err(|kind| witness(steps, thread, tid, ix, kind))?;
            if g == 0 {
                continue;
            }
            if let COp::AtomicBegin(Some(cond)) = &cs.op {
                let c = cond
                    .eval(buf, lb, &self.l.config)
                    .map_err(|kind| witness(steps, thread, tid, ix, kind))?;
                if c == 0 {
                    // Blocking with no peers: immediate deadlock.
                    return Err(Failure {
                        kind: FailureKind::Deadlock,
                        tid,
                        step: ix,
                        span: thread.steps[ix].span,
                    });
                }
            }
            exec_cop(&cs.op, buf, lb, j, &self.l.config)
                .map_err(|kind| witness(steps, thread, tid, ix, kind))?;
            steps.push((tid, ix));
        }
        Ok(())
    }

    /// Advances worker `w` past disabled and invisible steps, appending
    /// the steps it executes to `steps`.
    fn advance(
        &self,
        buf: &mut StateBuf,
        j: &mut UndoJournal,
        w: usize,
        steps: &mut Vec<(ThreadId, usize)>,
    ) -> Result<(), Failure> {
        let thread = &self.l.workers[w];
        let tid = self.trace_tid(w);
        let lb = self.lay.worker_locals(w);
        loop {
            let pc = self.pc(buf, w);
            let Some(step) = thread.steps.get(pc) else {
                return Ok(());
            };
            let g = self
                .cstep(tid, pc)
                .guard
                .eval(buf, lb, &self.l.config)
                .map_err(|kind| witness(steps, thread, tid, pc, kind))?;
            if g == 0 {
                self.set_pc(buf, w, pc + 1, j);
                continue;
            }
            if step.shared || !self.l.config.reduce_local_steps {
                return Ok(());
            }
            self.exec_step(tid, pc, buf, lb, j)
                .map_err(|kind| witness(steps, thread, tid, pc, kind))?;
            steps.push((tid, pc));
            self.set_pc(buf, w, pc + 1, j);
        }
    }

    /// Advances every worker in turn, appending their steps to
    /// `steps`. On a failure, `steps` keeps only the failing worker's
    /// steps of those: the workers before it are dropped.
    fn advance_all(
        &self,
        buf: &mut StateBuf,
        j: &mut UndoJournal,
        steps: &mut Vec<(ThreadId, usize)>,
    ) -> Result<(), Failure> {
        let base = steps.len();
        for w in 0..self.nworkers() {
            let start = steps.len();
            self.advance(buf, j, w, steps).inspect_err(|_| {
                steps.drain(base..start);
            })?;
        }
        Ok(())
    }

    /// The root of every execution: a fresh state with the prologue
    /// run and each worker's leading local steps absorbed, and the
    /// steps executed to reach it. `Err` is the counterexample of a
    /// candidate that fails before any interleaving exists (the
    /// prologue's steps, then the failing worker's); the state is then
    /// the failing one.
    pub(crate) fn root(
        &self,
        j: &mut UndoJournal,
    ) -> (StateBuf, Result<Vec<(ThreadId, usize)>, CexTrace>) {
        let mut buf = self.initial_buf();
        let mut steps = Vec::new();
        let root = match self
            .run_seq(0, &self.l.prologue, &mut buf, j, &mut steps)
            .and_then(|()| self.advance_all(&mut buf, j, &mut steps))
        {
            Ok(()) => Ok(steps),
            Err(failure) => Err(CexTrace {
                steps,
                failure,
                deadlock: vec![],
                schedule: vec![],
            }),
        };
        (buf, root)
    }

    /// The step at a state where no worker is enabled. When every
    /// worker has finished, counts a terminal state and runs the
    /// epilogue, appending its steps to `steps` and leaving its writes
    /// in `buf`, for the caller to undo or abandon; otherwise the
    /// blocked workers deadlock. `None` when the epilogue passes.
    pub(crate) fn terminal(
        &self,
        buf: &mut StateBuf,
        j: &mut UndoJournal,
        stats: &mut CheckStats,
        steps: &mut Vec<(ThreadId, usize)>,
    ) -> Option<Stuck> {
        if !self.all_finished(buf) {
            return Some(Stuck {
                failure: self.deadlock_failure(buf),
                deadlock: self.blocked_positions(buf),
            });
        }
        stats.terminal_states += 1;
        let failure = self
            .run_seq(self.l.epilogue_tid(), &self.l.epilogue, buf, j, steps)
            .err()?;
        Some(Stuck {
            failure,
            deadlock: vec![],
        })
    }

    fn finished(&self, buf: &StateBuf, w: usize) -> bool {
        self.pc(buf, w) >= self.l.workers[w].steps.len()
    }

    fn all_finished(&self, buf: &StateBuf) -> bool {
        (0..self.nworkers()).all(|w| self.finished(buf, w))
    }

    /// Applies partial-order reduction at the current state: the
    /// ample subset of `enabled` to expand, or `None` when no proper
    /// ample set exists (full expansion). The caller guarantees at
    /// most 64 workers and at least two enabled bits, and owns
    /// `masks`, the scratch of [`PorTable::ample`]. Deterministic in
    /// the state, so every engine reduces to the same state graph.
    pub(crate) fn ample(
        &self,
        buf: &StateBuf,
        enabled: u64,
        por: &PorTable,
        masks: &mut Vec<u64>,
    ) -> Option<u64> {
        let n = self.nworkers();
        let mut pcs = [0usize; 64];
        let mut active = 0u64;
        for (w, pc) in pcs.iter_mut().enumerate().take(n) {
            *pc = self.pc(buf, w);
            if *pc < self.l.workers[w].steps.len() {
                active |= 1 << w;
            }
        }
        por.ample(&pcs[..n], enabled, active, masks)
    }

    /// The POR table a search under `limits` reduces with, built on
    /// first use: `None` when reduction is off or cannot apply (it
    /// needs at least two workers to ever trim anything, and the
    /// enabled bitmask caps it at 64), so such searches never pay the
    /// footprint pass.
    pub(crate) fn por_table(&self, limits: &SearchLimits) -> Option<&'a PorTable> {
        if limits.por && (2..=64).contains(&self.nworkers()) {
            self.cp.por_table()
        } else {
            None
        }
    }

    /// Is worker `w` able to take a transition? Its pc rests on a
    /// visible, guard-true step (advance invariant); a conditional
    /// atomic additionally needs its condition to hold *now*.
    pub(crate) fn enabled(&self, buf: &StateBuf, w: usize) -> bool {
        if self.finished(buf, w) {
            return false;
        }
        let pc = self.pc(buf, w);
        match &self.cstep(self.trace_tid(w), pc).op {
            COp::AtomicBegin(Some(cond)) => matches!(
                cond.eval(buf, self.lay.worker_locals(w), &self.l.config),
                Ok(v) if v != 0
            ),
            _ => true,
        }
    }

    /// Fires one transition of worker `w`: the visible step at its pc
    /// (a whole atomic section if it is an AtomicBegin), then advances,
    /// appending the steps it executes to `steps` (on failure, the
    /// failing step too). All writes — including pc bumps — go through
    /// the journal, so the caller can revert the whole transition with
    /// one `undo_to`.
    pub(crate) fn fire(
        &self,
        buf: &mut StateBuf,
        j: &mut UndoJournal,
        w: usize,
        steps: &mut Vec<(ThreadId, usize)>,
    ) -> Result<(), Failure> {
        let thread = &self.l.workers[w];
        let tid = self.trace_tid(w);
        let lb = self.lay.worker_locals(w);
        let pc = self.pc(buf, w);
        match thread.atomic_end(pc) {
            Some(end) => {
                steps.push((tid, pc));
                for ix in pc + 1..end {
                    let g = self
                        .cstep(tid, ix)
                        .guard
                        .eval(buf, lb, &self.l.config)
                        .map_err(|k| witness(steps, thread, tid, ix, k))?;
                    if g == 0 {
                        continue;
                    }
                    self.exec_step(tid, ix, buf, lb, j)
                        .map_err(|k| witness(steps, thread, tid, ix, k))?;
                    steps.push((tid, ix));
                }
                steps.push((tid, end));
                self.set_pc(buf, w, end + 1, j);
            }
            None => {
                self.exec_step(tid, pc, buf, lb, j)
                    .map_err(|k| witness(steps, thread, tid, pc, k))?;
                steps.push((tid, pc));
                self.set_pc(buf, w, pc + 1, j);
            }
        }
        self.advance(buf, j, w, steps)
    }

    fn blocked_positions(&self, buf: &StateBuf) -> Vec<(ThreadId, usize)> {
        (0..self.nworkers())
            .filter(|&w| !self.finished(buf, w))
            .map(|w| (self.trace_tid(w), self.pc(buf, w)))
            .collect()
    }

    fn deadlock_failure(&self, buf: &StateBuf) -> Failure {
        let (tid, step) = *self
            .blocked_positions(buf)
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

    /// XOR accumulator of the shared segment (globals + heap +
    /// allocs): each cell contributes `cell_hash(offset, value)`.
    fn shared_acc(&self, buf: &StateBuf) -> u64 {
        let mut acc = 0u64;
        for (off, &v) in buf.slice(0, self.lay.shared_len()).iter().enumerate() {
            acc ^= cell_hash(off as u64, v);
        }
        acc
    }

    /// The key worker `w`'s pc is hashed under: past the end of the
    /// state, so it collides with no real cell.
    fn pc_key(&self, w: usize) -> u64 {
        (self.lay.state_len() + w) as u64
    }

    /// Worker `w`'s fingerprint contribution: its pc XORed with its
    /// locals, dead slots hashed as 0 — exactly the values
    /// [`Checker::materialize_canonical`] writes for this worker.
    fn worker_contrib(&self, buf: &StateBuf, w: usize) -> u64 {
        let pc = self.pc(buf, w);
        let mut acc = cell_hash(self.pc_key(w), pc as i64);
        let thread = &self.l.workers[w];
        let lb = self.lay.worker_locals(w);
        let locals = buf.slice(lb, thread.locals.len());
        for (i, val) in thread.live_values(pc, locals).enumerate() {
            acc ^= cell_hash((lb + i) as u64, val);
        }
        acc
    }

    /// What a transition of worker `w` from `pc0` changed in the
    /// fingerprint, read off its journal `entries`: the XOR delta of
    /// the shared cells it wrote, and that of `w`'s contribution — the
    /// pc's move, the first entry of each local it wrote (hashed
    /// live-or-0 at `pc0` and at the new pc), and the locals the move
    /// left dead without writing them. O(writes + dying locals), not
    /// O(locals). Repeat writes to one cell telescope: only a cell's
    /// first entry (its value before the transition) pairs with its
    /// current value; `firsts` finds that entry.
    fn transition_delta(
        &self,
        buf: &StateBuf,
        entries: &[(u32, i64)],
        w: usize,
        pc0: usize,
        firsts: &mut FirstWrites,
    ) -> (u64, u64) {
        let thread = &self.l.workers[w];
        let lb = self.lay.worker_locals(w);
        let shared_len = self.lay.shared_len();
        let pc1 = self.pc(buf, w);
        firsts.begin();
        let mut shared = 0u64;
        let mut contrib =
            cell_hash(self.pc_key(w), pc0 as i64) ^ cell_hash(self.pc_key(w), pc1 as i64);
        for &(off, old) in entries {
            let o = off as usize;
            if !firsts.first(o) {
                continue;
            }
            let hash = |v| cell_hash(o as u64, v);
            if o < shared_len {
                shared ^= hash(old) ^ hash(buf.get(o));
            } else if o >= lb {
                // One of `w`'s locals: `fire(w)` writes no other
                // worker's record, and its pc is hashed above.
                let i = o - lb;
                let live = |pc, v| if thread.is_live(pc, i) { v } else { 0 };
                contrib ^= hash(live(pc0, old)) ^ hash(live(pc1, buf.get(o)));
            }
        }
        for &i in thread.dying(pc0, pc1) {
            let o = lb + i;
            if !firsts.written(o) {
                contrib ^= cell_hash(o as u64, buf.get(o)) ^ cell_hash(o as u64, 0);
            }
        }
        (shared, contrib)
    }

    /// Zobrist-style fingerprint of the live state: the XOR of
    /// position-keyed cell hashes over the shared segment plus every
    /// worker's contribution, finished by [`Checker::finish_fp`].
    /// Dead locals are masked to 0 during hashing; no canonical vector
    /// is ever materialized. Being a XOR of per-cell terms, the
    /// sequential DFS maintains it *incrementally* from the undo
    /// journal and the dying-locals index — O(cells changed) per
    /// transition instead of O(state) (see
    /// [`Checker::transition_terms`]).
    ///
    /// Must stay in sync with [`Checker::materialize_canonical`]: two
    /// states with equal canonical vectors must fingerprint equally
    /// (the `exact-visited` collision check compares those vectors).
    pub(crate) fn fingerprint_state(&self, buf: &StateBuf) -> u64 {
        let mut acc = self.shared_acc(buf);
        for w in 0..self.nworkers() {
            acc ^= self.worker_contrib(buf, w);
        }
        self.finish_fp(acc)
    }

    /// Finishes a raw XOR accumulator of a state's cell hashes into
    /// the state fingerprint (the final avalanche). Shared by the
    /// incremental DFS (which maintains the accumulator from the
    /// journal) and [`Checker::fingerprint_state`] (which rebuilds it).
    fn finish_fp(&self, acc: u64) -> u64 {
        combine_fp(acc, self.lay.state_len() as u64)
    }

    /// The canonical vector behind [`Checker::fingerprint_state`] —
    /// only built under `exact-visited` (via the visited sets' state
    /// closures) and in tests: the shared segment, then each worker's
    /// pc and dead-masked locals.
    pub(crate) fn materialize_canonical(&self, buf: &StateBuf) -> Vec<i64> {
        let mut v = Vec::with_capacity(self.lay.state_len());
        v.extend_from_slice(buf.slice(0, self.lay.shared_len()));
        for (w, thread) in self.l.workers.iter().enumerate() {
            let pc = self.pc(buf, w);
            v.push(pc as i64);
            let locals = buf.slice(self.lay.worker_locals(w), thread.locals.len());
            v.extend(thread.live_values(pc, locals));
        }
        v
    }

    fn run(&self, limits: &SearchLimits) -> CheckOutcome {
        let mut j = UndoJournal::new();
        let (buf, root) = self.root(&mut j);
        let trail = match root {
            Ok(steps) => steps,
            Err(cex) => {
                // The candidate failed before any interleaving exists;
                // the work was real, so it is reported.
                let stats = CheckStats {
                    journal_writes: j.total_writes(),
                    ..early_failure_stats(&cex.steps)
                };
                return CheckOutcome {
                    verdict: Verdict::Fail(cex),
                    stats,
                };
            }
        };
        // The root state is permanent: nothing undoes past it.
        j.reset();
        let mut stats = CheckStats::default();
        let mut out = self.dfs(buf, &mut j, trail, limits, &mut stats);
        out.stats.journal_writes = j.total_writes();
        out
    }

    /// Fire/undo DFS. Invariant: `buf` always holds exactly the state
    /// of the top stack frame; a frame's `mark` is the journal position
    /// *before* the transition that created it, so `undo_to(mark)`
    /// reverts `buf` to the parent frame's state. `trail` holds the
    /// steps executed to reach that state: the root's, then each
    /// frame's from its `start`. One live state, zero clones, and no
    /// allocation per transition.
    fn dfs(
        &self,
        mut buf: StateBuf,
        j: &mut UndoJournal,
        mut trail: Vec<(ThreadId, usize)>,
        limits: &SearchLimits,
        stats: &mut CheckStats,
    ) -> CheckOutcome {
        struct Frame {
            mark: usize,
            /// Where the creating transition's steps begin on the
            /// trail.
            start: usize,
            next_choice: usize,
            /// Bit `w` = worker `w` was enabled when the frame was
            /// entered. Valid for the whole frame: choices are only
            /// tried with `buf` holding the frame's state, so
            /// enabledness cannot drift. Workers past 64 (never seen
            /// in practice) fall back to re-evaluating.
            enabled: u64,
            /// Fingerprint accumulator of the *parent* state, restored
            /// on pop (the incremental fingerprinting state).
            prev_acc: u64,
            /// The worker whose contribution the creating transition
            /// replaced, and that contribution's previous value.
            fired: usize,
            prev_contrib: u64,
        }
        let outcome = |verdict, stats: &CheckStats| CheckOutcome {
            verdict,
            stats: *stats,
        };
        let unknown = |why: Interrupt, stats: &mut CheckStats| {
            // Clamp: an over-limit search consumed exactly its budget.
            if why == Interrupt::StateLimit {
                stats.states = stats.states.min(limits.max_states);
            }
            outcome(Verdict::Unknown(why), stats)
        };
        let por = self.por_table(limits);
        let mut ample_masks = Vec::new();
        let mut visited = FpSet::new();
        let mut stack = vec![Frame {
            mark: j.mark(),
            start: trail.len(),
            next_choice: 0,
            enabled: 0,
            prev_acc: 0,
            fired: 0,
            prev_contrib: 0,
        }];
        // Incremental fingerprinting state: `acc` is the XOR of cell
        // hashes of the current `buf` (see `fingerprint_state`), and
        // `worker_acc[w]` caches worker `w`'s contribution, so one
        // transition only re-hashes what it changed (see
        // `transition_delta`).
        let mut worker_acc: Vec<u64> = (0..self.nworkers())
            .map(|w| self.worker_contrib(&buf, w))
            .collect();
        let mut acc = self.shared_acc(&buf) ^ worker_acc.iter().fold(0, |a, &c| a ^ c);
        let mut firsts = FirstWrites::new(self.lay.state_len());
        visited.insert_fp_with(self.finish_fp(acc), || self.materialize_canonical(&buf));
        stats.states = visited.len();
        if visited.len() > limits.max_states {
            return unknown(Interrupt::StateLimit, stats);
        }

        // The transition-level schedule to the current state: each
        // non-root frame records the worker whose fire created it;
        // `extra` is the failing fire not yet on the stack.
        let build_schedule = |stack: &[Frame], extra: Option<usize>| -> Vec<u32> {
            let mut s: Vec<u32> = stack.iter().skip(1).map(|f| f.fired as u32).collect();
            if let Some(w) = extra {
                s.push(w as u32);
            }
            s
        };

        let nworkers = self.nworkers();
        let mut tick = 0usize;
        while let Some(top_ix) = stack.len().checked_sub(1) {
            tick += 1;
            if let Some(why) = limits.tripped(tick) {
                return unknown(why, stats);
            }
            // First time at this frame with choice 0: compute the
            // enabled set once (it is re-used by the choice loop) and
            // handle terminal states.
            if stack[top_ix].next_choice == 0 {
                let mut mask = 0u64;
                for w in 0..nworkers.min(64) {
                    if self.enabled(&buf, w) {
                        mask |= 1 << w;
                    }
                }
                let any_enabled =
                    mask != 0 || (nworkers > 64 && (64..nworkers).any(|w| self.enabled(&buf, w)));
                // Partial-order reduction: replace the full enabled
                // set with an ample subset where one exists. Terminal
                // and deadlock detection (`any_enabled`, computed
                // above) always sees the *full* set.
                if let Some(por) = por {
                    if mask.count_ones() >= 2 {
                        match self.ample(&buf, mask, por, &mut ample_masks) {
                            Some(a) => {
                                stats.por_ample_hits += 1;
                                stats.states_pruned +=
                                    u64::from(mask.count_ones() - a.count_ones());
                                mask = a;
                            }
                            None => stats.por_fallbacks += 1,
                        }
                    }
                }
                stack[top_ix].enabled = mask;
                if !any_enabled {
                    // A passing epilogue is undone at once, writes and
                    // steps; the frame, with no choice to try, is then
                    // popped below.
                    let (emark, estart) = (j.mark(), trail.len());
                    if let Some(stuck) = self.terminal(&mut buf, j, stats, &mut trail) {
                        let cex = stuck.cex(trail, build_schedule(&stack, None));
                        return outcome(Verdict::Fail(cex), stats);
                    }
                    j.undo_to(emark, &mut buf);
                    trail.truncate(estart);
                }
            }
            // Try the next enabled worker: fire in place, keep the
            // child if fresh, otherwise undo straight back.
            let mut fired = false;
            while stack[top_ix].next_choice < nworkers {
                let w = stack[top_ix].next_choice;
                stack[top_ix].next_choice += 1;
                let en = if w < 64 {
                    stack[top_ix].enabled & (1 << w) != 0
                } else {
                    self.enabled(&buf, w)
                };
                if !en {
                    continue;
                }
                let (mark, start) = (j.mark(), trail.len());
                let pc0 = self.pc(&buf, w);
                stats.transitions += 1;
                if let Err(failure) = self.fire(&mut buf, j, w, &mut trail) {
                    let cex = CexTrace {
                        steps: trail,
                        failure,
                        deadlock: vec![],
                        schedule: build_schedule(&stack, Some(w)),
                    };
                    return outcome(Verdict::Fail(cex), stats);
                }
                // Incremental fingerprint: fire(w) only writes shared
                // cells and worker w's own pc and locals, so update
                // those terms and keep every other worker's cached
                // contribution.
                let (shared, contrib) =
                    self.transition_delta(&buf, j.entries_since(mark), w, pc0, &mut firsts);
                let new_contrib = worker_acc[w] ^ contrib;
                debug_assert_eq!(new_contrib, self.worker_contrib(&buf, w));
                let child_acc = acc ^ shared ^ contrib;
                let fresh = visited.insert_fp_with(self.finish_fp(child_acc), || {
                    self.materialize_canonical(&buf)
                });
                if fresh {
                    stats.states = visited.len();
                    // Claim-based bound, checked at insert time:
                    // claiming slot max_states + 1 stops the search
                    // (see [`SearchLimits`]).
                    if visited.len() > limits.max_states {
                        return unknown(Interrupt::StateLimit, stats);
                    }
                    stack.push(Frame {
                        mark,
                        start,
                        next_choice: 0,
                        enabled: 0,
                        prev_acc: acc,
                        fired: w,
                        prev_contrib: worker_acc[w],
                    });
                    acc = child_acc;
                    worker_acc[w] = new_contrib;
                    fired = true;
                    break;
                }
                j.undo_to(mark, &mut buf);
                trail.truncate(start);
            }
            if !fired {
                let f = stack.pop().expect("top frame exists");
                j.undo_to(f.mark, &mut buf);
                trail.truncate(f.start);
                acc = f.prev_acc;
                if let Some(c) = worker_acc.get_mut(f.fired) {
                    *c = f.prev_contrib;
                }
            }
        }
        stats.states = visited.len();
        outcome(Verdict::Pass, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_ir::{desugar::desugar_program, lower::lower_program, Config};

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower_program(&sk, holes, &cfg).unwrap()
    }

    fn run(src: &str) -> CheckOutcome {
        let l = lowered(src);
        let a = l.holes.identity_assignment();
        check(&l, &a)
    }

    #[test]
    fn sequential_assert_pass_and_fail() {
        assert!(run("int g; harness void main() { g = 3; assert g == 3; }").is_ok());
        let out = run("int g; harness void main() { g = 3; assert g == 4; }");
        let cex = out.counterexample().expect("fails");
        assert_eq!(cex.failure.kind, FailureKind::AssertFailed);
        assert_eq!(cex.failure.tid, 0);
    }

    #[test]
    fn race_found_lost_update() {
        // Classic lost update: g = g + 1 from two threads can yield 1.
        let out = run("int g;
             harness void main() {
                 fork (i; 2) { int t = g; g = t + 1; }
                 assert g == 2;
             }");
        let cex = out.counterexample().expect("race must be found");
        assert_eq!(cex.failure.kind, FailureKind::AssertFailed);
        assert_eq!(cex.failure.tid, 3, "failure detected in the epilogue");
    }

    #[test]
    fn atomic_section_prevents_race() {
        assert!(run("int g;
             harness void main() {
                 fork (i; 2) { atomic { int t = g; g = t + 1; } }
                 assert g == 2;
             }",)
        .is_ok());
    }

    #[test]
    fn conditional_atomic_orders_threads() {
        // Thread 1 waits for thread 0's value.
        assert!(run("int turn; int log0; int log1;
             harness void main() {
                 fork (i; 2) {
                     if (i == 0) {
                         log0 = 1;
                         atomic { turn = 1; }
                     } else {
                         atomic (turn == 1) { }
                         log1 = log0 + 1;
                     }
                 }
                 assert log1 == 2;
             }",)
        .is_ok());
    }

    #[test]
    fn deadlock_detected_with_set() {
        let out = run("int a; int b;
             harness void main() {
                 fork (i; 2) {
                     if (i == 0) { atomic (a == 1) { } b = 1; }
                     else { atomic (b == 1) { } a = 1; }
                 }
             }");
        let cex = out.counterexample().expect("deadlock");
        assert_eq!(cex.failure.kind, FailureKind::Deadlock);
        assert_eq!(cex.deadlock.len(), 2);
    }

    #[test]
    fn deadlock_with_every_worker_blocked() {
        // All workers blocked from their first visible step: the
        // deadlock failure must report the first blocked worker (tid 1)
        // and list every worker in the deadlock set — exercising the
        // `deadlock_failure` expect on a maximally-blocked state.
        let out = run("int a;
             harness void main() {
                 fork (i; 2) { atomic (a == 1) { } }
             }");
        let cex = out.counterexample().expect("all-blocked deadlock");
        assert_eq!(cex.failure.kind, FailureKind::Deadlock);
        assert_eq!(cex.failure.tid, 1, "first blocked worker is reported");
        assert_eq!(cex.deadlock.len(), 2, "every worker is in the set");
    }

    #[test]
    fn lock_prelude_works() {
        // Locks via conditional atomics (paper Figure 7).
        assert!(run("struct Lock { int owner = -1; }
             Lock lk; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }
             harness void main() {
                 lk = new Lock();
                 fork (i; 2) {
                     lock(lk);
                     int t = g;
                     g = t + 1;
                     unlock(lk);
                 }
                 assert g == 2;
             }",)
        .is_ok());
    }

    #[test]
    fn null_deref_found() {
        let out = run("struct N { int v; N next; } N head;
             harness void main() {
                 fork (i; 1) { int x = head.v; }
             }");
        assert_eq!(
            out.counterexample().unwrap().failure.kind,
            FailureKind::NullDeref
        );
    }

    #[test]
    fn pool_exhaustion_found() {
        let out = run("struct N { int v; }
             harness void main() {
                 int k = 0;
                 while (k < 100) { N n = new N(1); k = k + 1; }
             }");
        // Either pool exhaustion or the loop bound fires first; with
        // pool=8 < unroll bound budget 8 iterations, loop asserts.
        assert!(!out.is_ok());
    }

    #[test]
    fn loop_termination_bound_fails_spinning() {
        let out = run("int g;
             harness void main() {
                 fork (i; 1) { while (g == 0) { } }
             }");
        let cex = out.counterexample().unwrap();
        assert_eq!(cex.failure.kind, FailureKind::AssertFailed);
    }

    #[test]
    fn swap_based_counter_is_exact() {
        // AtomicReadAndIncr makes the increment atomic: always 2.
        assert!(run("int g;
             harness void main() {
                 fork (i; 2) { int old = AtomicReadAndIncr(g); }
                 assert g == 2;
             }",)
        .is_ok());
    }

    #[test]
    fn trace_replay_reproduces_failure() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { int t = g; g = t + 1; }
                 assert g == 2;
             }",
        );
        let a = l.holes.identity_assignment();
        let out = check(&l, &a);
        let cex = out.counterexample().unwrap();
        // The trace carries its exact transition-level schedule:
        // replaying it must reproduce the identical execution.
        let order: Vec<usize> = cex.schedule.iter().map(|&w| w as usize).collect();
        let cp = CompiledProgram::compile(&l, &a);
        let replayed = replay_compiled(&cp, &order).expect("replay fails too");
        assert_eq!(replayed.failure.kind, cex.failure.kind);
        assert_eq!(replayed.failure.tid, cex.failure.tid);
        assert_eq!(replayed.steps, cex.steps, "replay must be exact");
        assert_eq!(replayed.schedule, cex.schedule);
    }

    #[test]
    fn stats_reported() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { g = g + 1; }
             }",
        );
        let a = l.holes.identity_assignment();
        let out = check(&l, &a);
        assert!(out.is_ok());
        assert!(out.stats.states > 1);
        assert!(out.stats.transitions >= out.stats.states - 1);
    }

    #[test]
    fn undo_engine_journals_instead_of_cloning() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { g = g + 1; }
                 assert g == 2;
             }",
        );
        let a = l.holes.identity_assignment();
        let out = check(&l, &a);
        assert!(out.is_ok());
        assert!(
            out.stats.journal_writes > 0,
            "every transition journals its writes"
        );
        assert_eq!(out.stats.state_clones, 0, "the undo engine never clones");
    }

    #[test]
    fn matches_reference_engine() {
        // In-crate differential sanity check (the suite-wide version
        // lives in tests/engine_differential.rs): same verdict, state
        // count, transition count and trace as the clone engine.
        for src in [
            "int g;
             harness void main() {
                 fork (i; 2) { int t = g; g = t + 1; }
                 assert g == 2;
             }",
            "int g;
             harness void main() {
                 fork (i; 2) { atomic { int t = g; g = t + 1; } }
                 assert g == 2;
             }",
            "int a; int b;
             harness void main() {
                 fork (i; 2) {
                     if (i == 0) { atomic (a == 1) { } b = 1; }
                     else { atomic (b == 1) { } a = 1; }
                 }
             }",
            // Worker 1 fails while its leading local steps are
            // absorbed, after worker 0's were.
            "int g;
             harness void main() {
                 fork (i; 2) { int t = i; assert t == 0; }
             }",
        ] {
            let l = lowered(src);
            let a = l.holes.identity_assignment();
            let new = check(&l, &a);
            let old = crate::reference::check_ref(&l, &a);
            assert_eq!(new.is_ok(), old.is_ok(), "verdict differs on {src}");
            assert_eq!(new.stats.states, old.stats.states, "states differ");
            assert_eq!(
                new.stats.transitions, old.stats.transitions,
                "transitions differ"
            );
            match (new.counterexample(), old.counterexample()) {
                (Some(n), Some(o)) => {
                    assert_eq!(n.steps, o.steps, "traces differ on {src}");
                    assert_eq!(n.failure.kind, o.failure.kind);
                    assert_eq!(n.deadlock, o.deadlock);
                }
                (None, None) => {}
                _ => unreachable!("verdicts already compared"),
            }
        }
    }

    #[test]
    fn liveness_ending_mid_transition_keeps_the_fingerprint() {
        // `t` dies unwritten in the transition of `int v = g`: its
        // advance skips the false guard that is `t`'s last read. `v`
        // dies unwritten inside the atomic section, beside `u`, which
        // the section both writes and last reads. The debug assertion
        // checks each incremental contribution against a full re-hash;
        // a wrong one would also split states the oracle merges.
        let l = lowered(
            "int g; int h;
             harness void main() {
                 fork (i; 2) {
                     int t = g;
                     int v = g;
                     if (t > 100) { h = 1; }
                     atomic { int u = h; h = u + v; }
                     g = g + 1;
                 }
                 assert g >= 1;
             }",
        );
        let w = &l.workers[0];
        let slot = |name: &str| w.locals.iter().position(|s| s.name == name).unwrap();
        let begin = (0..w.steps.len())
            .find(|&pc| w.atomic_end(pc).is_some())
            .expect("an atomic section");
        let end = w.atomic_end(begin).unwrap();
        assert!(w.dying(begin, end + 1).contains(&slot("v")));
        assert!(w.dying(begin, end + 1).contains(&slot("u")));
        assert!(w.dying(0, begin).contains(&slot("t")));
        let a = l.holes.identity_assignment();
        let cp = CompiledProgram::compile(&l, &a);
        let full = SearchLimits {
            por: false,
            ..SearchLimits::default()
        };
        let new = check_compiled(&cp, &full);
        let old = crate::reference::check_ref(&l, &a);
        assert!(new.is_ok() && old.is_ok());
        assert_eq!(new.stats.states, old.stats.states, "states differ");
        assert_eq!(new.stats.transitions, old.stats.transitions);
        assert!(check_compiled(&cp, &SearchLimits::default()).is_ok());
    }

    #[test]
    fn state_limit_yields_unknown() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 3) { g = g + 1; g = g + 1; g = g + 1; }
             }",
        );
        let a = l.holes.identity_assignment();
        let out = check_with_limit(&l, &a, 2);
        assert!(matches!(
            out.verdict,
            Verdict::Unknown(Interrupt::StateLimit)
        ));
        // Over-limit stats are clamped to the budget actually granted.
        assert_eq!(out.stats.states, 2);
    }

    #[test]
    fn state_limit_boundary_is_exact() {
        // Claim-based semantics: a space of exactly N distinct states
        // passes at max_states = N and is unknown at N - 1.
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { g = g + 1; }
             }",
        );
        let a = l.holes.identity_assignment();
        let n = check(&l, &a).stats.states;
        assert!(check_with_limit(&l, &a, n).is_ok());
        let under = check_with_limit(&l, &a, n - 1);
        assert!(matches!(
            under.verdict,
            Verdict::Unknown(Interrupt::StateLimit)
        ));
    }

    #[test]
    fn deadline_and_cancel_interrupt_search() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 3) { g = g + 1; g = g + 1; }
             }",
        );
        let cp = CompiledProgram::compile(&l, &l.holes.identity_assignment());
        let past = SearchLimits {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..SearchLimits::default()
        };
        let out = check_compiled(&cp, &past);
        assert!(matches!(out.verdict, Verdict::Unknown(Interrupt::Deadline)));
        let cancelled = SearchLimits {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..SearchLimits::default()
        };
        let out = check_compiled(&cp, &cancelled);
        assert!(matches!(
            out.verdict,
            Verdict::Unknown(Interrupt::Cancelled)
        ));
    }

    #[test]
    fn early_failure_reports_real_counts() {
        // Prologue failure: the assert fails before any fork.
        let out = run("int g; harness void main() { g = 3; assert g == 4; }");
        assert!(matches!(out.verdict, Verdict::Fail(_)));
        assert_eq!(out.stats.states, 1);
        assert!(out.stats.transitions > 0);
        // Initial-advance failure: a local-only assert inside the fork
        // body fails while absorbing the initial invisible steps.
        let out = run("int g;
             harness void main() {
                 fork (i; 1) { int t = 1; assert t == 2; }
             }");
        assert!(matches!(out.verdict, Verdict::Fail(_)));
        assert_eq!(out.stats.states, 1);
        assert!(out.stats.transitions > 0);
    }

    #[test]
    fn candidate_dependent_outcome() {
        // Hole picks the asserted value: candidate 3 passes, others
        // fail.
        let l = lowered("int g; harness void main() { g = ??(3); assert g == 3; }");
        let pass = Assignment::from_values(vec![3]);
        let fail = Assignment::from_values(vec![4]);
        assert!(check(&l, &pass).is_ok());
        assert!(!check(&l, &fail).is_ok());
    }
}
