//! The CDCL solver proper.

use crate::lit::{LBool, Lit, Var};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
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

/// Reference to a clause in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

const CREF_UNDEF: ClauseRef = ClauseRef(u32::MAX);

struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

#[derive(Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    /// Cached "blocker" literal: if true, the clause is satisfied and
    /// need not be inspected.
    blocker: Lit,
}

#[derive(Clone, Copy)]
struct VarInfo {
    reason: ClauseRef,
    level: u32,
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// See the crate docs for an overview and an example.
pub struct Solver {
    // Clause storage.
    clauses: Vec<Clause>,
    free_clauses: Vec<ClauseRef>,

    // Per-literal watcher lists.
    watches: Vec<Vec<Watcher>>,

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

    // Problem status.
    ok: bool,
    model: Vec<LBool>,
    conflict_assumptions: Vec<Lit>,

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
            clauses: Vec::new(),
            free_clauses: Vec::new(),
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
            ok: true,
            model: Vec::new(),
            conflict_assumptions: Vec::new(),
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

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.vardata.push(VarInfo {
            reason: CREF_UNDEF,
            level: 0,
        });
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
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
        let mut c: Vec<Lit> = lits.into_iter().collect();
        for &l in &c {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} out of range"
            );
        }
        c.sort_unstable();
        c.dedup();
        // Drop tautologies and literals already false at level 0.
        let mut i = 0;
        while i + 1 < c.len() {
            if c[i].var() == c[i + 1].var() {
                return true; // x | !x: tautology
            }
            i += 1;
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
                self.unchecked_enqueue(c[0], CREF_UNDEF);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.stats.clauses += 1;
                let cref = self.alloc_clause(c, false);
                self.attach_clause(cref);
                true
            }
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::unsat_assumptions`] holds
    /// the subset of assumptions involved in the contradiction.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.model.clear();
        self.conflict_assumptions.clear();
        self.interrupted = false;
        if !self.ok {
            return SolveResult::Unsat;
        }
        // The cap persists across incremental calls: growth earned via
        // reduce_db (×1.3) would otherwise be thrown away every
        // solve, re-churning the learnt database. Only raise it when
        // the problem itself has grown past the cap.
        self.max_learnts = self
            .max_learnts
            .max((self.num_clauses() as f64 * 0.3).max(1000.0));
        let mut restarts = 0u32;
        loop {
            let budget = 64.0 * luby(2.0, restarts);
            match self.search(budget as u64, assumptions) {
                Some(SolveResult::Sat) => {
                    self.model = self.assigns.clone();
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                Some(SolveResult::Unsat) => {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                Some(SolveResult::Interrupted) => {
                    self.cancel_until(0);
                    return SolveResult::Interrupted;
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

    /// After an UNSAT answer from [`Solver::solve_with`], the failing
    /// assumption subset (the "final conflict clause" negated).
    pub fn unsat_assumptions(&self) -> &[Lit] {
        &self.conflict_assumptions
    }

    /// Exports the current problem (original clauses plus top-level
    /// units, excluding learnt clauses) as a [`crate::dimacs::Cnf`],
    /// for inspection with external tools.
    pub fn export_cnf(&self) -> crate::dimacs::Cnf {
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        if !self.ok {
            // Top-level contradiction: the empty clause.
            clauses.push(vec![]);
        }
        // Top-level assignments are unit clauses.
        let root_len = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..root_len] {
            let v = (l.var().index() + 1) as i64;
            clauses.push(vec![if l.is_positive() { v } else { -v }]);
        }
        for c in &self.clauses {
            if c.deleted || c.learnt {
                continue;
            }
            clauses.push(
                c.lits
                    .iter()
                    .map(|l| {
                        let v = (l.var().index() + 1) as i64;
                        if l.is_positive() {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect(),
            );
        }
        crate::dimacs::Cnf {
            num_vars: self.num_vars(),
            clauses,
        }
    }

    fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    // ----- clause arena -----

    fn alloc_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        let clause = Clause {
            lits,
            learnt,
            activity: 0.0,
            deleted: false,
        };
        if let Some(cref) = self.free_clauses.pop() {
            self.clauses[cref.0 as usize] = clause;
            cref
        } else {
            self.clauses.push(clause);
            ClauseRef((self.clauses.len() - 1) as u32)
        }
    }

    fn attach_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = &self.clauses[cref.0 as usize];
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    fn remove_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = &self.clauses[cref.0 as usize];
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).index()].retain(|w| w.cref != cref);
        self.watches[(!l1).index()].retain(|w| w.cref != cref);
        let c = &mut self.clauses[cref.0 as usize];
        c.deleted = true;
        c.lits.clear();
        self.free_clauses.push(cref);
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

    fn unchecked_enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        self.assigns[l.var().index()] = LBool::from_bool(l.is_positive());
        self.vardata[l.var().index()] = VarInfo {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
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

    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
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
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut keep = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let cref = w.cref;
                // Normalize: false literal (!p) at position 1.
                let (first, new_watch) = {
                    let c = &mut self.clauses[cref.0 as usize];
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], !p);
                    let first = c.lits[0];
                    if first != w.blocker
                        && self.assigns[first.var().index()].under_sign(first.is_positive())
                            == LBool::True
                    {
                        (first, None)
                    } else {
                        let mut found = None;
                        for k in 2..c.lits.len() {
                            let lk = c.lits[k];
                            if self.assigns[lk.var().index()].under_sign(lk.is_positive())
                                != LBool::False
                            {
                                found = Some(k);
                                break;
                            }
                        }
                        if let Some(k) = found {
                            c.lits.swap(1, k);
                            (first, Some(c.lits[1]))
                        } else {
                            (first, None)
                        }
                    }
                };
                if let Some(nw) = new_watch {
                    self.watches[(!nw).index()].push(Watcher {
                        cref,
                        blocker: first,
                    });
                    continue 'watchers;
                }
                if self.lit_value(first) == LBool::True {
                    ws[keep] = Watcher {
                        cref,
                        blocker: first,
                    };
                    keep += 1;
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                ws[keep] = Watcher {
                    cref,
                    blocker: first,
                };
                keep += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Keep remaining watchers.
                    while i < ws.len() {
                        ws[keep] = ws[i];
                        keep += 1;
                        i += 1;
                    }
                    break 'watchers;
                }
                self.unchecked_enqueue(first, cref);
            }
            ws.truncate(keep);
            // Re-merge with any watchers added to the (empty) list while
            // we held the original out.
            let added = std::mem::replace(&mut self.watches[p.index()], ws);
            self.watches[p.index()].extend(added);
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    // ----- conflict analysis -----

    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut index = self.trail.len();

        loop {
            {
                self.bump_clause(cref);
                let lits: Vec<Lit> = self.clauses[cref.0 as usize].lits.clone();
                let skip = usize::from(p.is_some());
                for &q in lits.iter().skip(skip) {
                    let v = q.var();
                    if !self.seen[v.index()] && self.vardata[v.index()].level > 0 {
                        self.seen[v.index()] = true;
                        self.bump_var(v);
                        if self.vardata[v.index()].level >= self.decision_level() {
                            counter += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            cref = self.vardata[pl.var().index()].reason;
            debug_assert_ne!(cref, CREF_UNDEF);
        }

        // Clause minimization: drop literals implied by the rest.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.redundant(l))
            .collect();
        let mut out = vec![learnt[0]];
        out.extend(keep);

        // Clear `seen` for all touched vars.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Compute backtrack level: max level among out[1..].
        let bt = if out.len() == 1 {
            0
        } else {
            let (mx_ix, mx_lvl) = out[1..]
                .iter()
                .enumerate()
                .map(|(i, &l)| (i + 1, self.vardata[l.var().index()].level))
                .max_by_key(|&(_, lvl)| lvl)
                .unwrap();
            out.swap(1, mx_ix);
            mx_lvl
        };
        (out, bt)
    }

    /// Is `l` redundant in the learnt clause (implied by other marked
    /// literals)? A conservative, non-recursive approximation of
    /// MiniSat's `litRedundant`: redundant iff its reason exists and all
    /// reason literals are already marked or at level 0.
    fn redundant(&self, l: Lit) -> bool {
        let r = self.vardata[l.var().index()].reason;
        if r == CREF_UNDEF {
            return false;
        }
        self.clauses[r.0 as usize]
            .lits
            .iter()
            .skip(1)
            .all(|&q| self.seen[q.var().index()] || self.vardata[q.var().index()].level == 0)
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

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref.0 as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
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

    fn heap_insert(&mut self, v: Var) {
        self.heap.push(v);
        let ix = self.heap.len() - 1;
        self.heap_index[v.index()] = ix as i32;
        self.heap_sift_up(ix);
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
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    // ----- learnt DB reduction -----

    fn reduce_db(&mut self) {
        let mut learnts: Vec<ClauseRef> = (0..self.clauses.len() as u32)
            .map(ClauseRef)
            .filter(|&cr| {
                let c = &self.clauses[cr.0 as usize];
                c.learnt && !c.deleted && c.lits.len() > 2
            })
            .collect();
        learnts.sort_by(|&a, &b| {
            let ca = self.clauses[a.0 as usize].activity;
            let cb = self.clauses[b.0 as usize].activity;
            ca.partial_cmp(&cb).unwrap()
        });
        let locked: Vec<bool> = learnts
            .iter()
            .map(|&cr| {
                let c = &self.clauses[cr.0 as usize];
                let l0 = c.lits[0];
                self.vardata[l0.var().index()].reason == cr && self.lit_value(l0) == LBool::True
            })
            .collect();
        let half = learnts.len() / 2;
        for (i, &cr) in learnts.iter().enumerate() {
            if i >= half {
                break;
            }
            if locked[i] {
                continue;
            }
            self.remove_clause(cr);
            self.stats.learnts = self.stats.learnts.saturating_sub(1);
        }
    }

    // ----- main search -----

    /// Searches up to `conflict_budget` conflicts. Returns `None` to
    /// request a restart.
    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> Option<SolveResult> {
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
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict within assumption levels: extract the
                    // failing assumption set, then give up.
                    self.analyze_final(confl, assumptions);
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt_level) = self.analyze(confl);
                let bt_level = bt_level.max(assumptions.len() as u32);
                self.cancel_until(bt_level);
                if learnt.len() == 1 {
                    // Asserting unit: must hold from its backtrack level.
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], CREF_UNDEF);
                    } else if self.lit_value(learnt[0]) == LBool::False {
                        return Some(SolveResult::Unsat);
                    }
                } else {
                    let cref = self.alloc_clause(learnt.clone(), true);
                    self.attach_clause(cref);
                    self.stats.learnts += 1;
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], cref);
                    }
                }
                self.decay();
            } else {
                if conflicts >= conflict_budget {
                    return None;
                }
                if self.stats.learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                // Establish assumptions, one decision level each.
                let mut next_decision: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.conflict_assumptions = self.final_from_assumption(a);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next_decision = Some(a);
                            break;
                        }
                    }
                }
                let dec = match next_decision {
                    Some(a) => a,
                    None => match self.pick_branch_var() {
                        None => return Some(SolveResult::Sat),
                        Some(v) => {
                            self.stats.decisions += 1;
                            Lit::new(v, self.polarity[v.index()])
                        }
                    },
                };
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(dec, CREF_UNDEF);
            }
        }
    }

    /// Walks reasons backwards from a conflict hit while assumption
    /// levels are active, collecting the assumptions responsible.
    fn analyze_final(&mut self, conflict: ClauseRef, assumptions: &[Lit]) {
        let assumed: std::collections::HashSet<Lit> = assumptions.iter().copied().collect();
        let mut out = Vec::new();
        let mut seen = vec![false; self.num_vars()];
        let mut stack: Vec<Lit> = self.clauses[conflict.0 as usize].lits.clone();
        while let Some(l) = stack.pop() {
            let v = l.var();
            if seen[v.index()] || self.vardata[v.index()].level == 0 {
                continue;
            }
            seen[v.index()] = true;
            if assumed.contains(&!l) {
                out.push(!l);
            } else {
                let r = self.vardata[v.index()].reason;
                if r != CREF_UNDEF {
                    stack.extend(self.clauses[r.0 as usize].lits.iter().copied().skip(1));
                }
            }
        }
        self.conflict_assumptions = out;
    }

    /// Failing-assumption set when an assumption is directly false.
    fn final_from_assumption(&mut self, a: Lit) -> Vec<Lit> {
        let mut out = vec![a];
        let r = self.vardata[a.var().index()].reason;
        if r != CREF_UNDEF {
            // Best-effort: include the assumption chain.
            for &q in self.clauses[r.0 as usize].lits.iter().skip(1) {
                out.push(!q);
            }
        }
        out
    }
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
        // Under incremental use (one solve_with per CEGIS iteration)
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
            "solve_with reset the learnt cap: {} < {grown}",
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
    fn assumptions_flip_outcome() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert_eq!(s.solve_with(&[!v[0], !v[1]]), SolveResult::Unsat);
        assert!(!s.unsat_assumptions().is_empty());
        assert_eq!(s.solve_with(&[!v[0]]), SolveResult::Sat);
        assert_eq!(s.lit_model_value(v[1]), Some(true));
        // Solver stays usable.
        assert_eq!(s.solve(), SolveResult::Sat);
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
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..9).map(|i| luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn export_cnf_preserves_satisfiability() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[2]]);
        s.add_clause([!v[2], !v[3]]);
        s.add_clause([v[3]]);
        let exported = s.export_cnf();
        assert_eq!(exported.solve(), s.solve());
        // Roundtrips through DIMACS text too.
        let text = exported.to_dimacs();
        let reparsed = crate::dimacs::Cnf::parse(&text).unwrap();
        assert_eq!(reparsed.solve(), SolveResult::Sat);
    }

    #[test]
    fn export_cnf_of_unsat_is_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0]]);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.export_cnf().solve(), SolveResult::Unsat);
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
