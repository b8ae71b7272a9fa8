//! The CDCL solver proper.

use crate::lit::{LBool, Lit, Var};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The search was stopped by [`Solver::set_limits`] (deadline
    /// passed or cancellation flag raised) before an answer was found.
    /// The solver state stays valid: clauses and learnts are kept, and
    /// a later `solve` call resumes from them.
    Interrupted,
}

/// Counters describing the work a solver has performed.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Number of problem clauses added (after top-level simplification).
    pub clauses: u64,
}

/// Heap bytes a [`Solver`] has in use, by owner ([`Solver::heap_bytes`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct HeapBytes {
    /// The clause arena, which holds the clauses of three or more
    /// literals.
    pub clause_bytes: usize,
    /// The watch lists: one in-place list per literal, plus the heap
    /// blocks of the lists that outgrew it.
    pub watch_bytes: usize,
    /// The per-variable arrays, the trail, the decision heap and the
    /// model.
    pub var_bytes: usize,
}

impl HeapBytes {
    /// All three owners together.
    pub fn total(&self) -> usize {
        self.clause_bytes + self.watch_bytes + self.var_bytes
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} restarts={} learnts={} clauses={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnts,
            self.clauses
        )
    }
}

/// A clause's offset in the arena: the index of its header word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

/// Header bit of a learnt clause, whose activity follows the header.
const LEARNT: u32 = 1 << 31;
/// Header bit of a clause removed by `reduce_db`; its words are
/// reclaimed by the next `collect_garbage`.
const DELETED: u32 = 1 << 30;
/// Header bits holding the clause's length.
const LEN: u32 = DELETED - 1;
/// Tag of a binary clause's watcher and of a reason that is a binary
/// clause. Arena offsets stay below it.
const BINARY: u32 = 1 << 31;
/// Variables a solver can hold: a binary reason's literal then stays
/// below `NO_REASON & !BINARY`.
const MAX_VARS: usize = LEN as usize;

/// Words a clause with header `h` takes in the arena.
#[inline]
fn clause_words(h: u32) -> usize {
    1 + if h & LEARNT != 0 { 2 } else { 0 } + (h & LEN) as usize
}

/// The arena words holding the literals of the clause at `cref`.
#[inline]
fn lits_of(arena: &[u32], cref: ClauseRef) -> Range<usize> {
    let c = cref.0 as usize;
    let end = c + clause_words(arena[c]);
    end - (arena[c] & LEN) as usize..end
}

/// Why a variable has its value, in one word: `NO_REASON` for a
/// decision or a top-level unit, the arena offset of the clause that
/// implied it, or `BINARY` with the other literal of the binary clause
/// that implied it, which is false.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Reason(u32);

const NO_REASON: Reason = Reason(u32::MAX);

impl Reason {
    #[inline]
    fn clause(cref: ClauseRef) -> Reason {
        Reason(cref.0)
    }

    #[inline]
    fn binary(other: Lit) -> Reason {
        Reason(BINARY | other.0)
    }

    /// The arena clause, for a reason that is one.
    #[inline]
    fn as_clause(self) -> Option<ClauseRef> {
        (self.0 & BINARY == 0).then_some(ClauseRef(self.0))
    }

    /// A binary reason's other literal.
    #[inline]
    fn other(self) -> Lit {
        debug_assert!(self != NO_REASON && self.as_clause().is_none());
        Lit(self.0 & !BINARY)
    }
}

/// A clause that `propagate` found false.
#[derive(Clone, Copy)]
enum Conflict {
    /// A clause of three or more literals, in the arena.
    Clause(ClauseRef),
    /// A binary clause, as its two literals in the order analysis
    /// visits them: the watcher's other literal, then the literal that
    /// was just made false.
    Binary(Lit, Lit),
}

/// A clause watching a literal. A binary clause lives only in its two
/// watchers: each carries `BINARY` and the clause's other literal as
/// its blocker, so propagating or refuting it never reads the arena.
#[derive(Clone, Copy)]
struct Watcher {
    /// The clause's arena offset, or `BINARY` for a binary clause.
    tagged: u32,
    /// Cached "blocker" literal: if true, the clause is satisfied and
    /// need not be inspected.
    blocker: Lit,
}

impl Watcher {
    #[inline]
    fn is_binary(self) -> bool {
        self.tagged & BINARY != 0
    }
}

/// One literal's watchers, in the order they were pushed. Up to three
/// live in place, which covers most literals of a Tseitin encoding;
/// the fourth moves them to a heap block, which the list keeps.
enum WatchList {
    Inline(u8, [Watcher; 3]),
    Heap(Vec<Watcher>),
}

impl WatchList {
    const EMPTY: WatchList = WatchList::Inline(
        0,
        [Watcher {
            tagged: 0,
            blocker: Lit(0),
        }; 3],
    );

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Watcher] {
        match self {
            WatchList::Inline(n, ws) => &mut ws[..*n as usize],
            WatchList::Heap(v) => v,
        }
    }

    #[inline]
    fn push(&mut self, w: Watcher) {
        match self {
            WatchList::Inline(n, ws) if (*n as usize) < ws.len() => {
                ws[*n as usize] = w;
                *n += 1;
            }
            WatchList::Inline(_, ws) => {
                let mut v = Vec::with_capacity(6);
                v.extend_from_slice(ws);
                v.push(w);
                *self = WatchList::Heap(v);
            }
            WatchList::Heap(v) => v.push(w),
        }
    }

    #[inline]
    fn truncate(&mut self, len: usize) {
        match self {
            WatchList::Inline(n, _) => *n = (*n).min(len as u8),
            WatchList::Heap(v) => v.truncate(len),
        }
    }

    /// Bytes of the list's heap block, if it spilled.
    fn block_bytes(&self) -> usize {
        match self {
            WatchList::Inline(..) => 0,
            WatchList::Heap(v) => v.capacity() * std::mem::size_of::<Watcher>(),
        }
    }
}

#[derive(Clone, Copy)]
struct VarInfo {
    reason: Reason,
    level: u32,
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// See the crate docs for an overview and an example.
pub struct Solver {
    // Clause storage for clauses of three or more literals: each is a
    // header word (length, learnt and deleted bits), then a learnt
    // clause's activity as an `f64` in two words, then its literals.
    // A binary clause is only its two watchers.
    arena: Vec<u32>,
    // Words of deleted clauses not yet reclaimed.
    wasted: usize,

    // Per-literal watcher lists.
    watches: Vec<WatchList>,

    // Per-variable state.
    assigns: Vec<LBool>,
    vardata: Vec<VarInfo>,
    activity: Vec<f64>,
    polarity: Vec<bool>,
    seen: Vec<bool>,

    // Trail.
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    // Decision heap (binary max-heap on activity).
    heap: Vec<Var>,
    heap_index: Vec<i32>,

    // Heuristics.
    var_inc: f64,
    cla_inc: f64,

    // Reused buffers: the clause being added, the clause being learnt,
    // and the watchers `propagate` moves off the list it scans, each
    // with the literal whose list it joins.
    added: Vec<Lit>,
    learnt: Vec<Lit>,
    moved: Vec<(Lit, Watcher)>,

    // Problem status.
    ok: bool,
    model: Vec<LBool>,

    stats: SolverStats,
    max_learnts: f64,

    // Cooperative resource limits (see `set_limits`).
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    interrupted: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            wasted: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            vardata: Vec::new(),
            activity: Vec::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            added: Vec::new(),
            learnt: Vec::new(),
            moved: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            max_learnts: 0.0,
            deadline: None,
            cancel: None,
            interrupted: false,
        }
    }

    /// Installs cooperative resource limits: a wall-clock `deadline`
    /// and/or an externally raised `cancel` flag. The limits are
    /// checked in the propagate loop (every 1024 propagations) and at
    /// every conflict/decision boundary; when either trips, the
    /// in-flight `solve` returns [`SolveResult::Interrupted`] instead
    /// of blocking. Pass `None`s to clear.
    pub fn set_limits(&mut self, deadline: Option<Instant>, cancel: Option<Arc<AtomicBool>>) {
        self.deadline = deadline;
        self.cancel = cancel;
    }

    /// True when an installed limit has tripped. Cheap when no limit is
    /// set; the deadline is only consulted every 1024 propagations.
    #[inline]
    fn limits_tripped(&mut self) -> bool {
        if self.interrupted {
            return true;
        }
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                self.interrupted = true;
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.interrupted = true;
                return true;
            }
        }
        false
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Work counters for this solver.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Heap bytes the solver has in use, by owner: each array counts
    /// its length, not the tail that growth reserved and nothing has
    /// written, and a spilled watch list its heap block.
    pub fn heap_bytes(&self) -> HeapBytes {
        fn bytes<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        let blocks: usize = self.watches.iter().map(WatchList::block_bytes).sum();
        HeapBytes {
            clause_bytes: bytes(&self.arena),
            watch_bytes: bytes(&self.watches) + blocks,
            var_bytes: bytes(&self.assigns)
                + bytes(&self.vardata)
                + bytes(&self.activity)
                + bytes(&self.polarity)
                + bytes(&self.seen)
                + bytes(&self.trail)
                + bytes(&self.trail_lim)
                + bytes(&self.heap)
                + bytes(&self.heap_index)
                + bytes(&self.model),
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        assert!(self.num_vars() < MAX_VARS, "more than 2^30 - 1 variables");
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.vardata.push(VarInfo {
            reason: NO_REASON,
            level: 0,
        });
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(WatchList::EMPTY);
        self.watches.push(WatchList::EMPTY);
        self.heap_index.push(-1);
        self.heap_insert(v);
        v
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver becomes trivially unsatisfiable at
    /// the top level (in which case further calls are allowed but
    /// [`Solver::solve`] will return [`SolveResult::Unsat`]).
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable not created by this
    /// solver.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut c = std::mem::take(&mut self.added);
        c.clear();
        c.extend(lits);
        let ok = self.add_collected(&mut c);
        self.added = c;
        ok
    }

    /// [`Solver::add_clause`] on a collected clause.
    fn add_collected(&mut self, c: &mut Vec<Lit>) -> bool {
        for &l in c.iter() {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} out of range"
            );
        }
        c.sort_unstable();
        c.dedup();
        // Drop tautologies and literals already false at level 0.
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true; // x | !x: tautology
        }
        c.retain(|&l| self.lit_value(l) != LBool::False);
        if c.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true;
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            2 => {
                self.stats.clauses += 1;
                self.watch(BINARY, c[0], c[1]);
                true
            }
            _ => {
                self.stats.clauses += 1;
                let cref = self.alloc_clause(c, false);
                self.attach_clause(cref);
                true
            }
        }
    }

    /// Creates a variable `v` defined as `a ∧ b` by the clauses
    /// `[¬v, a]`, `[¬v, b]` and `[v, ¬a, ¬b]`, leaving the watchers,
    /// the arena and the counters as those three
    /// [`Solver::add_clause`] calls would.
    ///
    /// When `a` and `b` are older variables than `v`, distinct and
    /// unassigned, the clauses go in directly: `v` is the newest
    /// variable, so each clause is already sorted with `v`'s literal
    /// last, and none of its literals is repeated, false or true. Any
    /// other gate takes `add_clause`.
    pub fn add_and(&mut self, a: Lit, b: Lit) -> Var {
        let v = self.new_var();
        let direct = self.ok
            && a.var() < v
            && b.var() < v
            && a.var() != b.var()
            && self.lit_value(a) == LBool::Undef
            && self.lit_value(b) == LBool::Undef;
        if direct {
            debug_assert_eq!(self.decision_level(), 0);
            self.watch(BINARY, a, Lit::neg(v));
            self.watch(BINARY, b, Lit::neg(v));
            let cref = self.alloc_clause(&[(!a).min(!b), (!a).max(!b), Lit::pos(v)], false);
            self.attach_clause(cref);
            self.stats.clauses += 3;
        } else {
            self.add_clause([Lit::neg(v), a]);
            self.add_clause([Lit::neg(v), b]);
            self.add_clause([Lit::pos(v), !a, !b]);
        }
        v
    }

    /// Solves the formula. Clauses and learnt clauses are kept, so a
    /// later call after adding clauses resumes from them.
    pub fn solve(&mut self) -> SolveResult {
        self.model.clear();
        self.interrupted = false;
        if !self.ok {
            return SolveResult::Unsat;
        }
        // The cap persists across incremental calls: growth earned via
        // reduce_db (×1.3) would otherwise be thrown away every
        // solve, re-churning the learnt database. Only raise it when
        // the problem itself has grown past the cap.
        let clauses = self.stats.clauses + self.stats.learnts;
        self.max_learnts = self.max_learnts.max((clauses as f64 * 0.3).max(1000.0));
        let mut restarts = 0u32;
        loop {
            let budget = 64.0 * luby(2.0, restarts);
            match self.search(budget as u64) {
                Some(SolveResult::Sat) => {
                    self.model.clone_from(&self.assigns);
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                Some(result) => {
                    self.cancel_until(0);
                    return result;
                }
                None => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// The value of `v` in the most recent satisfying model.
    ///
    /// Returns `None` when no model is available or the variable was
    /// unconstrained (callers may treat unconstrained as `false`).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The value of a literal in the most recent satisfying model.
    pub fn lit_model_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }

    // ----- clause arena -----

    fn alloc_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cref = u32::try_from(self.arena.len())
            .ok()
            .filter(|&c| c < BINARY)
            .expect("clause arena exceeds 2^31 words");
        let len = u32::try_from(lits.len())
            .ok()
            .filter(|&n| n <= LEN)
            .expect("clause longer than 2^30 literals");
        self.arena.push(len | if learnt { LEARNT } else { 0 });
        if learnt {
            self.arena.extend([0, 0]); // activity 0.0
        }
        self.arena.extend(lits.iter().map(|l| l.0));
        ClauseRef(cref)
    }

    fn attach_clause(&mut self, cref: ClauseRef) {
        let r = lits_of(&self.arena, cref);
        let (l0, l1) = (Lit(self.arena[r.start]), Lit(self.arena[r.start + 1]));
        self.watch(cref.0, l0, l1);
    }

    /// Pushes a clause's two watchers: on `!l0`'s list with `l1` as the
    /// blocker, then on `!l1`'s with `l0`.
    fn watch(&mut self, tagged: u32, l0: Lit, l1: Lit) {
        self.watches[(!l0).index()].push(Watcher {
            tagged,
            blocker: l1,
        });
        self.watches[(!l1).index()].push(Watcher {
            tagged,
            blocker: l0,
        });
    }

    /// Detaches and deletes a clause.
    fn remove_clause(&mut self, cref: ClauseRef) {
        let r = lits_of(&self.arena, cref);
        for l in [Lit(self.arena[r.start]), Lit(self.arena[r.start + 1])] {
            let list = &mut self.watches[(!l).index()];
            let ws = list.as_mut_slice();
            let mut keep = 0;
            for i in 0..ws.len() {
                if ws[i].tagged != cref.0 {
                    ws[keep] = ws[i];
                    keep += 1;
                }
            }
            list.truncate(keep);
        }
        let h = &mut self.arena[cref.0 as usize];
        *h |= DELETED;
        self.wasted += clause_words(*h);
    }

    /// Compacts the arena, keeping the clauses in their order, and
    /// moves every watcher and every reason on the trail with them;
    /// binary watchers and reasons hold no offset.
    fn collect_garbage(&mut self) {
        let mut old = std::mem::take(&mut self.arena);
        self.arena.reserve(old.len() - self.wasted);
        let mut c = 0;
        while c < old.len() {
            let words = clause_words(old[c]);
            if old[c] & DELETED == 0 {
                let moved = self.arena.len() as u32;
                self.arena.extend_from_slice(&old[c..c + words]);
                old[c] = moved; // the forwarding offset
            }
            c += words;
        }
        for w in self.watches.iter_mut().flat_map(WatchList::as_mut_slice) {
            if !w.is_binary() {
                w.tagged = old[w.tagged as usize];
            }
        }
        for &l in &self.trail {
            let r = &mut self.vardata[l.var().index()].reason;
            if let Some(cref) = r.as_clause() {
                *r = Reason(old[cref.0 as usize]);
            }
        }
        self.wasted = 0;
    }

    fn activity_of(&self, cref: ClauseRef) -> f64 {
        let c = cref.0 as usize;
        f64::from_bits(u64::from(self.arena[c + 1]) | u64::from(self.arena[c + 2]) << 32)
    }

    fn set_activity(&mut self, cref: ClauseRef, a: f64) {
        let c = cref.0 as usize;
        let bits = a.to_bits();
        self.arena[c + 1] = bits as u32;
        self.arena[c + 2] = (bits >> 32) as u32;
    }

    /// The learnt clauses, in arena order.
    fn learnt_clauses(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut c = 0;
        std::iter::from_fn(move || {
            while c < self.arena.len() {
                let (cref, h) = (ClauseRef(c as u32), self.arena[c]);
                c += clause_words(h);
                if h & (LEARNT | DELETED) == LEARNT {
                    return Some(cref);
                }
            }
            None
        })
    }

    // ----- assignment & trail -----

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].under_sign(l.is_positive())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        self.assigns[l.var().index()] = LBool::from_bool(l.is_positive());
        self.vardata[l.var().index()] = VarInfo {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
        // `propagate` scans `l`'s watch list when it dequeues `l`:
        // start loading it now, while the queue ahead of `l` is worked.
        prefetch(&self.watches[l.index()]);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for ix in (lim..self.trail.len()).rev() {
            let l = self.trail[ix];
            let v = l.var();
            self.polarity[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            if self.heap_index[v.index()] < 0 {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    // ----- propagation -----

    /// Propagates the queued literals. Each literal's watch list is
    /// scanned in place. A watcher that moves to another literal is
    /// queued and pushed after the scan, in the order it moved, and the
    /// literals the scan enqueued have their lists prefetched then, so
    /// the lists end as they would if each push had been made at once:
    /// no moved watcher joins the list being scanned (it watches a
    /// literal that is not false, and `!p` is), and the scan reads no
    /// other list.
    fn propagate(&mut self) -> Option<Conflict> {
        let mut conflict = None;
        let mut moved = std::mem::take(&mut self.moved);
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Periodic limit poll inside the hot loop: a long
            // propagation chain must not outlive the deadline. The
            // flag is consumed by `search`; the current unit is still
            // propagated so the trail stays coherent.
            if self.stats.propagations & 0x3FF == 0
                && (self.deadline.is_some() || self.cancel.is_some())
            {
                self.limits_tripped();
            }
            let queued = self.trail.len();
            let level = self.decision_level();
            let list = &mut self.watches[p.index()];
            let ws = list.as_mut_slice();
            let mut keep = 0;
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                let blocker =
                    self.assigns[w.blocker.var().index()].under_sign(w.blocker.is_positive());
                if blocker == LBool::True {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let (first, value, reason) = if w.is_binary() {
                    (w.blocker, blocker, Reason::binary(!p))
                } else {
                    // Normalize: false literal (!p) at position 1.
                    let cref = ClauseRef(w.tagged);
                    let r = lits_of(&self.arena, cref);
                    let c = &mut self.arena[r];
                    if c[0] == (!p).0 {
                        c.swap(0, 1);
                    }
                    debug_assert_eq!(c[1], (!p).0);
                    let first = Lit(c[0]);
                    let value = self.assigns[first.var().index()].under_sign(first.is_positive());
                    if value != LBool::True {
                        let found = c[2..].iter().position(|&lk| {
                            let lk = Lit(lk);
                            self.assigns[lk.var().index()].under_sign(lk.is_positive())
                                != LBool::False
                        });
                        if let Some(k) = found {
                            c.swap(1, k + 2);
                            let nw = Lit(c[1]);
                            debug_assert_ne!(!nw, p, "a moved watcher joins the scanned list");
                            moved.push((
                                !nw,
                                Watcher {
                                    tagged: cref.0,
                                    blocker: first,
                                },
                            ));
                            continue;
                        }
                    }
                    (first, value, Reason::clause(cref))
                };
                ws[keep] = Watcher {
                    tagged: w.tagged,
                    blocker: first,
                };
                keep += 1;
                match value {
                    LBool::True => {}
                    LBool::Undef => {
                        // `unchecked_enqueue`, with the prefetch after
                        // the scan.
                        self.assigns[first.var().index()] = LBool::from_bool(first.is_positive());
                        self.vardata[first.var().index()] = VarInfo { reason, level };
                        self.trail.push(first);
                    }
                    LBool::False => {
                        // No new watch: the clause is conflicting.
                        conflict = Some(match reason.as_clause() {
                            Some(cref) => Conflict::Clause(cref),
                            None => Conflict::Binary(first, !p),
                        });
                        self.qhead = self.trail.len();
                        // Keep the remaining watchers.
                        ws.copy_within(i.., keep);
                        keep += ws.len() - i;
                        break;
                    }
                }
            }
            list.truncate(keep);
            for (l, w) in moved.drain(..) {
                self.watches[l.index()].push(w);
            }
            if conflict.is_some() {
                break;
            }
            for l in &self.trail[queued..] {
                prefetch(&self.watches[l.index()]);
            }
        }
        self.moved = moved;
        conflict
    }

    // ----- conflict analysis -----

    /// First-UIP analysis of `conflict`: leaves the learnt clause in
    /// `self.learnt`, asserting literal first, and returns the level
    /// to backtrack to.
    fn analyze(&mut self, conflict: Conflict) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit(0)); // placeholder for UIP
        let mut counter = 0u32;
        let mut index = self.trail.len();
        // A binary conflict [a, b] is visited as `a`, then as a binary
        // reason whose literal is `b`. A reason's implied literal is
        // skipped: an arena clause holds it first, and a binary reason
        // holds only the other literal.
        let mut reason = match conflict {
            Conflict::Clause(cref) => Reason::clause(cref),
            Conflict::Binary(a, b) => {
                self.analyze_lit(a, &mut counter, &mut learnt);
                Reason::binary(b)
            }
        };
        let mut implied = 0;

        loop {
            match reason.as_clause() {
                Some(cref) => {
                    self.bump_clause(cref);
                    let r = lits_of(&self.arena, cref);
                    debug_assert!(implied == 0 || self.arena[r.start] == self.trail[index].0);
                    for k in r.start + implied..r.end {
                        self.analyze_lit(Lit(self.arena[k]), &mut counter, &mut learnt);
                    }
                }
                None => self.analyze_lit(reason.other(), &mut counter, &mut learnt),
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            reason = self.vardata[pl.var().index()].reason;
            implied = 1;
            debug_assert_ne!(reason, NO_REASON);
        }

        // Clause minimization: move the literals not implied by the
        // rest to the front, in order, then clear `seen` for every
        // literal and drop the implied ones.
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.redundant(learnt[i]) {
                learnt.swap(kept, i);
                kept += 1;
            }
        }
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        learnt.truncate(kept);

        // Backtrack level: the highest level among learnt[1..], whose
        // literal (the last one, on a tie) moves to position 1.
        let level = |l: Lit| self.vardata[l.var().index()].level;
        let bt = match (1..learnt.len()).max_by_key(|&i| level(learnt[i])) {
            Some(mx) => {
                learnt.swap(1, mx);
                level(learnt[1])
            }
            None => 0,
        };
        self.learnt = learnt;
        bt
    }

    /// Marks `q`, a false literal of the conflict or of a reason, in
    /// first-UIP analysis: a literal of the conflict's level is
    /// counted, an earlier one joins the learnt clause, and one of
    /// level 0 is dropped.
    #[inline]
    fn analyze_lit(&mut self, q: Lit, counter: &mut u32, learnt: &mut Vec<Lit>) {
        let v = q.var();
        if !self.seen[v.index()] && self.vardata[v.index()].level > 0 {
            self.seen[v.index()] = true;
            self.bump_var(v);
            if self.vardata[v.index()].level >= self.decision_level() {
                *counter += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// Is `l` redundant in the learnt clause (implied by other marked
    /// literals)? A conservative, non-recursive approximation of
    /// MiniSat's `litRedundant`: redundant iff its reason exists and all
    /// other reason literals are already marked or at level 0.
    fn redundant(&self, l: Lit) -> bool {
        let r = self.vardata[l.var().index()].reason;
        let marked = |v: Var| self.seen[v.index()] || self.vardata[v.index()].level == 0;
        if r == NO_REASON {
            return false;
        }
        match r.as_clause() {
            Some(cref) => self.arena[lits_of(&self.arena, cref)].iter().all(|&q| {
                let v = Lit(q).var();
                v == l.var() || marked(v)
            }),
            None => marked(r.other().var()),
        }
    }

    // ----- heuristics -----

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_index[v.index()] >= 0 {
            self.heap_sift_up(self.heap_index[v.index()] as usize);
        }
    }

    /// Bumps a learnt clause's activity. A learnt binary clause has
    /// none: the only reader of the others' activities besides
    /// `reduce_db` is the rescale test below, which no activity can
    /// trip before about 39,000 conflicts (DESIGN.md §4l).
    fn bump_clause(&mut self, cref: ClauseRef) {
        if self.arena[cref.0 as usize] & LEARNT == 0 {
            return;
        }
        let a = self.activity_of(cref) + self.cla_inc;
        self.set_activity(cref, a);
        if a > 1e20 {
            let mut c = 0;
            while c < self.arena.len() {
                let (cr, h) = (ClauseRef(c as u32), self.arena[c]);
                if h & LEARNT != 0 {
                    self.set_activity(cr, self.activity_of(cr) * 1e-20);
                }
                c += clause_words(h);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLA_DECAY;
    }

    // ----- decision heap -----

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    /// Pushes `v` and sifts it up. Activities are never negative
    /// (bumps add, rescales multiply by 1e-100), so a variable of
    /// activity 0 never passes its parent, and it skips the sift.
    fn heap_insert(&mut self, v: Var) {
        let activity = self.activity[v.index()];
        debug_assert!(activity >= 0.0, "negative activity {activity}");
        self.heap.push(v);
        let ix = self.heap.len() - 1;
        self.heap_index[v.index()] = ix as i32;
        if activity > 0.0 {
            self.heap_sift_up(ix);
        }
    }

    fn heap_sift_up(&mut self, mut ix: usize) {
        while ix > 0 {
            let parent = (ix - 1) / 2;
            if self.heap_less(self.heap[ix], self.heap[parent]) {
                self.heap_swap(ix, parent);
                ix = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut ix: usize) {
        loop {
            let l = 2 * ix + 1;
            let r = 2 * ix + 2;
            let mut best = ix;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == ix {
                break;
            }
            self.heap_swap(ix, best);
            ix = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_index[self.heap[a].index()] = a as i32;
        self.heap_index[self.heap[b].index()] = b as i32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_index[top.index()] = -1;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_index[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        if self.trail.len() == self.num_vars() {
            // Every variable is assigned, so the pops below would only
            // empty the heap: empty it without sifting.
            for &v in &self.heap {
                self.heap_index[v.index()] = -1;
            }
            self.heap.clear();
            return None;
        }
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    // ----- learnt DB reduction -----

    /// Deletes the less active half of the learnt clauses in the arena
    /// (binary ones live only in their watchers and are kept), except
    /// those that are the reason of a current assignment. Ties in
    /// activity keep arena order.
    fn reduce_db(&mut self) {
        let mut learnts: Vec<ClauseRef> = self.learnt_clauses().collect();
        learnts.sort_by(|&a, &b| self.activity_of(a).total_cmp(&self.activity_of(b)));
        let half = learnts.len() / 2;
        for &cr in &learnts[..half] {
            let l0 = Lit(self.arena[lits_of(&self.arena, cr).start]);
            let locked = self.vardata[l0.var().index()].reason == Reason::clause(cr)
                && self.lit_value(l0) == LBool::True;
            if !locked {
                self.remove_clause(cr);
                self.stats.learnts -= 1;
            }
        }
        if self.wasted * 5 > self.arena.len() {
            self.collect_garbage();
        }
    }

    // ----- main search -----

    /// Searches up to `conflict_budget` conflicts. Returns `None` to
    /// request a restart.
    fn search(&mut self, conflict_budget: u64) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if self.limits_tripped() {
                return Some(SolveResult::Interrupted);
            }
            if let Some(confl) = self.propagate() {
                conflicts += 1;
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let bt_level = self.analyze(confl);
                self.cancel_until(bt_level);
                // The asserting literal is unassigned below the
                // conflict's level.
                let learnt = std::mem::take(&mut self.learnt);
                match learnt.len() {
                    1 => self.unchecked_enqueue(learnt[0], NO_REASON),
                    2 => {
                        self.watch(BINARY, learnt[0], learnt[1]);
                        self.stats.learnts += 1;
                        self.unchecked_enqueue(learnt[0], Reason::binary(learnt[1]));
                    }
                    _ => {
                        let cref = self.alloc_clause(&learnt, true);
                        self.attach_clause(cref);
                        self.stats.learnts += 1;
                        self.unchecked_enqueue(learnt[0], Reason::clause(cref));
                    }
                }
                self.learnt = learnt;
                self.decay();
            } else {
                if conflicts >= conflict_budget {
                    return None;
                }
                if self.stats.learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                let Some(v) = self.pick_branch_var() else {
                    return Some(SolveResult::Sat);
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(Lit::new(v, self.polarity[v.index()]), NO_REASON);
            }
        }
    }
}

/// Asks the CPU to start loading the cache line that holds `*p`. On
/// targets other than x86_64 it does nothing: stable Rust has no
/// portable prefetch.
#[inline(always)]
fn prefetch<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint. It reads nothing the program
    // observes and cannot fault on any address (`p` is a live
    // reference besides), and SSE, which provides it, is part of the
    // x86_64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            (p as *const T).cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The Luby restart sequence scaled by `y`.
fn luby(y: f64, mut x: u32) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < (x as u64) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x as u64 {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size as u32;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn past_deadline_interrupts_then_resumes() {
        let mut s = Solver::new();
        let xs = lits(&mut s, 3);
        s.add_clause([xs[0], xs[1]]);
        s.add_clause([!xs[0], xs[2]]);
        s.set_limits(
            Some(Instant::now() - std::time::Duration::from_millis(1)),
            None,
        );
        assert_eq!(s.solve(), SolveResult::Interrupted);
        // Clearing the limit resumes from the same solver state.
        s.set_limits(None, None);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn cancel_flag_interrupts() {
        let mut s = Solver::new();
        let xs = lits(&mut s, 2);
        s.add_clause([xs[0], xs[1]]);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_limits(None, Some(flag.clone()));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn learnt_cap_persists_across_incremental_solves() {
        // Under incremental use (one solve per CEGIS iteration)
        // the learnt-database cap must keep the ×1.3 growth earned by
        // reduce_db instead of resetting to 0.3 × clauses each call.
        let mut s = Solver::new();
        let v = lits(&mut s, 8);
        for w in v.windows(2) {
            let (a, b) = (w[0], w[1]);
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let initial = s.max_learnts;
        assert!(initial >= 1000.0, "floor applies on first solve");
        // Simulate growth earned by reduce_db in an earlier call.
        s.max_learnts = initial * 1.3 * 1.3;
        let grown = s.max_learnts;
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(
            s.max_learnts >= grown,
            "solve reset the learnt cap: {} < {grown}",
            s.max_learnts
        );
        // The stats survive the second call unreset too: clause count
        // is stable and the solver did real work across both calls.
        let stats = s.stats();
        assert_eq!(stats.clauses, (v.len() as u64 - 1) * 2);
        assert!(stats.propagations > 0);
    }

    #[test]
    fn learnt_cap_tracks_problem_growth() {
        // The cap may only move up between calls when the problem
        // itself grows past it — never down.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let small = s.max_learnts;
        // Add enough clauses that 0.3 × clauses exceeds the old cap.
        let need = (small / 0.3) as usize + 8;
        let extra = lits(&mut s, need);
        for &x in &extra {
            s.add_clause([x, v[2]]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(
            s.max_learnts > small,
            "cap must grow with the clause count: {} <= {small}",
            s.max_learnts
        );
    }

    #[test]
    fn two_var_implications() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([!v[0], v[1]]); // a -> b
        s.add_clause([v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.lit_model_value(v[1]), Some(true));
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ^ x1 = 1 encoded with 4 clauses, chained.
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        for w in v.windows(2) {
            let (a, b) = (w[0], w[1]);
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for w in v.windows(2) {
            assert_ne!(s.lit_model_value(w[0]), s.lit_model_value(w[1]));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Lit(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..m).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([!v[0]]);
        s.add_clause([!v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.lit_model_value(v[2]), Some(true));
        s.add_clause([!v[2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_and_duplicates_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause([v[0], !v[0]]));
        assert!(s.add_clause([v[0], v[0]]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.lit_model_value(v[0]), Some(true));
    }

    #[test]
    fn watch_list_keeps_order_inline_spilled_and_shrunk() {
        // Clauses [a, b, c] with `a` first in literal order: each one
        // watches `!a` with `b` as the blocker.
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let list = |s: &mut Solver| -> Vec<(u32, Lit)> {
            let ws = s.watches[(!a).index()].as_mut_slice();
            ws.iter().map(|w| (w.tagged, w.blocker)).collect()
        };
        let mut model: Vec<(u32, Lit)> = Vec::new();
        for i in 0..5 {
            let bc = lits(&mut s, 2);
            let cref = s.arena.len() as u32;
            assert!(s.add_clause([a, bc[0], bc[1]]));
            model.push((cref, bc[0]));
            assert_eq!(list(&mut s), model);
            let inline = matches!(s.watches[(!a).index()], WatchList::Inline(..));
            assert_eq!(inline, i < 3, "after {} pushes", i + 1);
        }
        // A spilled list that shrinks below four watchers stays spilled.
        let crefs: Vec<u32> = model.iter().map(|&(c, _)| c).collect();
        for k in [1, 3, 0] {
            let cref = crefs[k];
            s.remove_clause(ClauseRef(cref));
            model.retain(|&(c, _)| c != cref);
            assert_eq!(list(&mut s), model);
            assert!(matches!(s.watches[(!a).index()], WatchList::Heap(_)));
        }
        assert_eq!(model.len(), 2);
        assert!(std::mem::size_of::<WatchList>() <= 32);
    }

    #[test]
    fn binary_clauses_take_no_arena_words() {
        // Variables x0, y1, y2, x3: decisions take x0, then x3, both
        // false. Only a longer clause can conflict above level 1 with a
        // literal of level 1 in it, so the two ternaries make the first
        // conflict learn the binary [x3, x0].
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let (x0, y1, y2, x3) = (v[0], v[1], v[2], v[3]);
        assert!(s.add_clause([!y1, !y2]));
        assert!(s.arena.is_empty());
        assert!(s.add_clause([x0, x3, y1]));
        assert!(s.add_clause([x0, x3, y2]));
        let ternaries = s.arena.len();
        assert_eq!(ternaries, 8);
        assert_eq!(s.solve(), SolveResult::Sat);
        let stats = s.stats();
        assert_eq!((stats.conflicts, stats.learnts, stats.clauses), (1, 1, 3));
        assert_eq!(s.arena.len(), ternaries, "a binary clause took arena words");
        assert_eq!(s.heap_bytes().clause_bytes, 4 * ternaries);
        // The learnt [x3, x0] holds in the model, as do the problem clauses.
        let val = |l: Lit| s.lit_model_value(l) == Some(true);
        assert!(val(x3) || val(x0));
        assert!(!(val(y1) && val(y2)));
        assert!(val(x0) || val(x3) || (val(y1) && val(y2)));
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..9).map(|i| luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn at_most_one_chain_models_are_valid() {
        // n vars, exactly-one constraint; enumerate all n models by
        // blocking clauses.
        let mut s = Solver::new();
        let n = 6;
        let v = lits(&mut s, n);
        s.add_clause(v.iter().copied());
        for i in 0..n {
            for j in (i + 1)..n {
                s.add_clause([!v[i], !v[j]]);
            }
        }
        let mut count = 0;
        while s.solve() == SolveResult::Sat {
            count += 1;
            assert!(count <= n, "too many models");
            let trues: Vec<usize> = (0..n)
                .filter(|&i| s.lit_model_value(v[i]) == Some(true))
                .collect();
            assert_eq!(trues.len(), 1);
            // Block this model.
            s.add_clause([!v[trues[0]]]);
        }
        assert_eq!(count, n);
    }
}
