//! Parallel explicit-state search.
//!
//! Splits the interleaving exploration of [`crate::check_compiled`]
//! across worker threads. The search space is a DAG of canonical states; each
//! worker repeatedly takes a frontier node, fires every enabled
//! transition through the undo engine (fire, fingerprint, revert),
//! claims the newly discovered successors through a sharded
//! fingerprint set, keeps one successor to continue depth-first and
//! publishes the rest to a shared work queue for other threads to
//! steal.
//!
//! A frontier node is a **compact schedule prefix** — the worker-index
//! sequence that reaches it from the initial state — not a state
//! snapshot. A stealing worker clones the initial [`StateBuf`] (one
//! flat memcpy, the only clone in the engine) and replays the prefix
//! through the deterministic `fire`; everything else runs on its one
//! live buffer with journal marks and undo, exactly like the
//! sequential checker. This trades a bounded replay on steal for
//! zero per-transition clones on the hot expansion path.
//!
//! The exploration order differs from the sequential checker, but the
//! verdict cannot: both explore exactly the reachable canonical states,
//! a failing transition always produces the full schedule prefix that
//! reproduces it (never-accept-wrong is preserved — every reported
//! counterexample is a real execution), and `Pass` is only returned
//! once the frontier is drained with no failure and no limit hit.
//! Which counterexample is returned when several interleavings fail is
//! a race, so callers must only rely on pass/fail, not on the specific
//! trace.
//!
//! The state limit is *claim-based* (see [`SearchLimits`]): a state
//! counts against the budget at the moment it is freshly inserted, and
//! the insert that claims slot `max_states + 1` trips the limit. That
//! makes the pass/unknown boundary exact and independent of the thread
//! count, matching the sequential checker. After the trip, racing
//! workers may still insert a few states before they observe the stop
//! flag (at most one `expand` per worker, i.e. `threads ×
//! branching-factor` states); reported stats are clamped to the limit,
//! and [`ShardedFpSet::len`] documents the raw overshoot bound.

use crate::checker::{
    early_failure_stats, CheckOutcome, CheckStats, Checker, Interrupt, SearchLimits, Verdict,
};
use crate::compiled::CompiledProgram;
use crate::fingerprint::ShardedFpSet;
use crate::por::PorTable;
use crate::store::{CexTrace, Failure, StateBuf, UndoJournal};
use psketch_ir::ThreadId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// A frontier node: the worker-index schedule that reaches it from the
/// initial state.
type Sched = Vec<u32>;

struct QueueState {
    jobs: Vec<Sched>,
    /// Workers currently blocked waiting for a job.
    idle: usize,
    /// Set when the search is over (drained, failed, or over limit).
    done: bool,
}

/// Shared search state: work queue, visited set, result slots.
struct Shared<'a> {
    ck: Checker<'a>,
    limits: &'a SearchLimits,
    /// The artifact's candidate-sharpened partial-order reduction
    /// table (`None` = full expansion). Ample sets are a deterministic
    /// function of the state, so every thread — and every thread
    /// *count* — reduces to the same state graph, keeping the
    /// claim-based limit semantics exact.
    por: Option<&'a PorTable>,
    /// The post-prologue root state every steal re-clones.
    init: StateBuf,
    /// Trace prefix of the root (prologue + initial invisible steps).
    prefix: Vec<(ThreadId, usize)>,
    queue: Mutex<QueueState>,
    available: Condvar,
    visited: ShardedFpSet,
    stop: AtomicBool,
    /// First limit that tripped (`None` while the search runs clean).
    interrupt: Mutex<Option<Interrupt>>,
    failure: Mutex<Option<CexTrace>>,
    thread_count: usize,
}

impl<'a> Shared<'a> {
    /// Records the first failure and halts the search. `schedule` is
    /// the transition-level worker sequence that reached the failure
    /// from the root (the frontier node's prefix plus the descent).
    fn fail(
        &self,
        steps: Vec<(ThreadId, usize)>,
        failure: Failure,
        deadlock: Vec<(ThreadId, usize)>,
        schedule: Sched,
    ) {
        let mut slot = self
            .failure
            .lock()
            .expect("parallel checker failure slot poisoned");
        if slot.is_none() {
            *slot = Some(CexTrace {
                steps,
                failure,
                deadlock,
                schedule,
            });
        }
        drop(slot);
        self.halt();
    }

    /// Records the first tripped limit and halts the search.
    fn interrupt(&self, why: Interrupt) {
        let mut slot = self
            .interrupt
            .lock()
            .expect("parallel checker interrupt slot poisoned");
        if slot.is_none() {
            *slot = Some(why);
        }
        drop(slot);
        self.halt();
    }

    /// Stops all workers, waking any that sleep on the queue.
    fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut q = self
            .queue
            .lock()
            .expect("parallel checker work queue poisoned");
        q.done = true;
        self.available.notify_all();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Model-checks a sealed candidate over every interleaving using
/// `threads` search threads, under full cooperative [`SearchLimits`]:
/// every worker polls the cancellation flag on each node and the wall
/// deadline every 64 nodes, so an over-budget search halts promptly
/// with [`Verdict::Unknown`] and partial stats instead of running on.
/// The workers replay and expand on the artifact's micro-op code, and
/// POR uses its candidate-sharpened masks, borrowed — never copied —
/// from the artifact.
///
/// `threads <= 1` runs the sequential [`crate::check_compiled`]
/// unchanged. The parallel verdict agrees with the sequential one on
/// pass/fail/unknown-at-the-same-limit, but a failing run may return a
/// different (equally valid) counterexample.
pub fn check_parallel_compiled(
    cp: &CompiledProgram,
    limits: &SearchLimits,
    threads: usize,
) -> CheckOutcome {
    if threads <= 1 {
        return crate::check_compiled(cp, limits);
    }
    let ck = Checker::from_compiled(cp, limits.symmetry);
    let por = if ck.wants_por(limits) { ck.por } else { None };
    run_parallel(ck, por, limits, threads)
}

fn run_parallel<'a>(
    ck: Checker<'a>,
    por: Option<&'a PorTable>,
    limits: &'a SearchLimits,
    threads: usize,
) -> CheckOutcome {
    let l = ck.l;

    // Prologue and initial local-step absorption run once, up front,
    // exactly as in the sequential checker. Failures here report the
    // executed work (see `early_failure_stats`), not zeroed counters.
    let mut buf = ck.initial_buf();
    let mut j = UndoJournal::new();
    let mut prefix: Vec<(ThreadId, usize)> = Vec::new();
    match ck.run_seq(0, &l.prologue, &mut buf, &mut j) {
        Ok(steps) => prefix.extend(steps),
        Err((steps, failure)) => {
            let mut stats = early_failure_stats(&steps);
            stats.journal_writes = j.total_writes();
            return CheckOutcome {
                verdict: Verdict::Fail(CexTrace {
                    steps,
                    failure,
                    deadlock: vec![],
                    schedule: vec![],
                }),
                stats,
                per_thread_states: vec![0; threads],
            };
        }
    }
    match ck.advance_all(&mut buf, &mut j) {
        Ok(steps) => prefix.extend(steps),
        Err((steps, failure)) => {
            prefix.extend(steps);
            let mut stats = early_failure_stats(&prefix);
            stats.journal_writes = j.total_writes();
            return CheckOutcome {
                verdict: Verdict::Fail(CexTrace {
                    steps: prefix,
                    failure,
                    deadlock: vec![],
                    schedule: vec![],
                }),
                stats,
                per_thread_states: vec![0; threads],
            };
        }
    }
    let root_journal_writes = j.total_writes();

    let visited = ShardedFpSet::new(threads * 16);
    let initial_claim = visited
        .insert_claim_fp_with(ck.fingerprint_state(&buf), || {
            ck.materialize_canonical(&buf)
        })
        .unwrap_or(0);
    let shared = Shared {
        ck,
        limits,
        por,
        init: buf,
        prefix,
        queue: Mutex::new(QueueState {
            jobs: vec![Sched::new()],
            idle: 0,
            done: false,
        }),
        available: Condvar::new(),
        visited,
        stop: AtomicBool::new(false),
        interrupt: Mutex::new(None),
        failure: Mutex::new(None),
        thread_count: threads,
    };
    if initial_claim > limits.max_states {
        shared.interrupt(Interrupt::StateLimit);
    }

    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| worker(&shared)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel checker worker thread panicked"))
            .collect()
    });

    let interrupt = *shared
        .interrupt
        .lock()
        .expect("parallel checker interrupt slot poisoned");
    // States are claimed in the shared visited set, not per worker.
    let mut stats = CheckStats {
        states: shared.visited.len(),
        journal_writes: root_journal_writes,
        ..CheckStats::default()
    };
    for t in &tallies {
        stats.add(&t.stats);
    }
    if interrupt == Some(Interrupt::StateLimit) {
        // Clamp the post-halt insert overshoot (see module docs).
        stats.states = stats.states.min(limits.max_states);
    }
    let per_thread_states = tallies.iter().map(|t| t.discovered).collect();
    let failure = shared
        .failure
        .into_inner()
        .expect("parallel checker failure slot poisoned");
    let verdict = match failure {
        Some(cex) => Verdict::Fail(cex),
        None => match interrupt {
            Some(why) => Verdict::Unknown(why),
            None => Verdict::Pass,
        },
    };
    CheckOutcome {
        verdict,
        stats,
        per_thread_states,
    }
}

/// Per-thread effort returned by [`worker`].
#[derive(Default)]
struct Tally {
    /// States this thread discovered first.
    discovered: usize,
    /// This thread's search counters (`states` stays 0: the shared
    /// visited set counts states). `journal_writes` includes replays;
    /// `state_clones` counts the initial-state clones paid on steals.
    stats: CheckStats,
}

/// What [`expand`] did with the current node.
enum Step {
    /// Descended into a fresh child; keep expanding in place.
    Descend,
    /// Terminal / nothing new: go steal another job.
    Exhausted,
    /// The search is over (failure or limit): stop this worker.
    Halt,
}

/// One search thread: drains the frontier until the space is exhausted
/// or another thread halts the search.
fn worker(shared: &Shared<'_>) -> Tally {
    let mut tally = Tally::default();
    let mut j = UndoJournal::new();
    worker_loop(shared, &mut j, &mut tally);
    tally.stats.journal_writes = j.total_writes();
    tally
}

fn worker_loop(shared: &Shared<'_>, j: &mut UndoJournal, tally: &mut Tally) {
    let ck = &shared.ck;
    let mut tick = 0usize;
    'steal: loop {
        let mut sched = {
            let mut q = shared
                .queue
                .lock()
                .expect("parallel checker work queue poisoned");
            loop {
                if q.done {
                    return;
                }
                if let Some(s) = q.jobs.pop() {
                    break s;
                }
                q.idle += 1;
                // Queue empty and everyone idle: the space is drained.
                if q.idle == shared.thread_count {
                    q.done = true;
                    shared.available.notify_all();
                    return;
                }
                q = shared
                    .available
                    .wait(q)
                    .expect("parallel checker work queue poisoned during wait");
                q.idle -= 1;
            }
        };
        // Clone-on-steal: the engine's only state copy. Rebuild the
        // stolen node by replaying its schedule prefix from the root.
        let mut buf = shared.init.clone();
        tally.stats.state_clones += 1;
        j.reset();
        let mut trace = shared.prefix.clone();
        for (i, &w) in sched.iter().enumerate() {
            match ck.fire(&mut buf, j, w as usize) {
                Ok(executed) => trace.extend(executed),
                Err((executed, failure)) => {
                    // Unreachable: the publisher fired this exact
                    // prefix without failure and fire is deterministic.
                    // Report rather than panic in a worker thread.
                    trace.extend(executed);
                    let schedule = sched[..=i].to_vec();
                    shared.fail(trace, failure, vec![], schedule);
                    return;
                }
            }
        }
        // Work-first descent: expand the node; keep one fresh child
        // locally, publish the others as schedule prefixes.
        loop {
            if shared.stopped() {
                return;
            }
            tick += 1;
            if let Some(why) = shared.limits.tripped(tick) {
                shared.interrupt(why);
                return;
            }
            match expand(shared, &mut buf, j, &mut sched, &mut trace, tally) {
                Step::Descend => {}
                Step::Exhausted => continue 'steal,
                Step::Halt => return,
            }
        }
    }
}

/// Expands the worker's live node: fires every enabled transition,
/// reverts each through the journal after fingerprinting, then
/// descends into the first fresh child by re-firing it (the double
/// fire is the price of never cloning).
fn expand(
    shared: &Shared<'_>,
    buf: &mut StateBuf,
    j: &mut UndoJournal,
    sched: &mut Sched,
    trace: &mut Vec<(ThreadId, usize)>,
    tally: &mut Tally,
) -> Step {
    let ck = &shared.ck;
    let nworkers = ck.nworkers();
    // With at most 64 workers the enabled set is collected as a
    // bitmask so partial-order reduction can trim it; beyond that
    // (never seen in practice) reduction is off and enabledness is
    // re-evaluated per worker below.
    let small = nworkers <= 64;
    let mut enabled_mask = 0u64;
    if small {
        for w in 0..nworkers {
            if ck.enabled(buf, w) {
                enabled_mask |= 1 << w;
            }
        }
    }
    let any_enabled = if small {
        enabled_mask != 0
    } else {
        (0..nworkers).any(|w| ck.enabled(buf, w))
    };
    if !any_enabled {
        if ck.all_finished(buf) {
            tally.stats.terminal_states += 1;
            // The epilogue mutates buf, but the node is abandoned
            // afterwards (the worker re-clones on its next steal), so
            // no undo is needed.
            if let Err((esteps, failure)) = ck.run_seq(ck.l.epilogue_tid(), &ck.l.epilogue, buf, j)
            {
                let mut steps = std::mem::take(trace);
                steps.extend(esteps);
                shared.fail(steps, failure, vec![], sched.clone());
            }
        } else {
            let failure = ck.deadlock_failure(buf);
            let deadlock = ck.blocked_positions(buf);
            shared.fail(std::mem::take(trace), failure, deadlock, sched.clone());
        }
        return Step::Exhausted;
    }
    // The expansion set: ample subset where reduction applies, the
    // full enabled set otherwise. The state was claimed by exactly one
    // thread and the ample set is a deterministic function of the
    // state, so the reduced graph does not depend on scheduling.
    let mut expand_mask = enabled_mask;
    if let Some(por) = shared.por {
        if enabled_mask.count_ones() >= 2 {
            match ck.ample(buf, enabled_mask, por) {
                Some(a) => {
                    tally.stats.por_ample_hits += 1;
                    tally.stats.states_pruned +=
                        u64::from(enabled_mask.count_ones() - a.count_ones());
                    expand_mask = a;
                }
                None => tally.stats.por_fallbacks += 1,
            }
        }
    }
    let mut keep: Option<u32> = None;
    for w in 0..nworkers {
        let en = if small {
            expand_mask & (1 << w) != 0
        } else {
            ck.enabled(buf, w)
        };
        if !en {
            continue;
        }
        let mark = j.mark();
        tally.stats.transitions += 1;
        match ck.fire(buf, j, w) {
            Ok(_) => {
                let claim = shared
                    .visited
                    .insert_claim_fp_with(ck.fingerprint_state(buf), || {
                        ck.materialize_canonical(buf)
                    });
                if claim.is_none() && ck.has_symmetry() && ck.orbit_noncanonical(buf) {
                    tally.stats.sym_collapses += 1;
                }
                j.undo_to(mark, buf);
                let Some(claim) = claim else {
                    continue;
                };
                // Claim-based state bound, checked at insert time: the
                // thread that claims slot max_states + 1 trips the
                // limit, so the boundary cannot flip with thread count.
                if claim > shared.limits.max_states {
                    shared.interrupt(Interrupt::StateLimit);
                    return Step::Halt;
                }
                tally.discovered += 1;
                match keep {
                    None => keep = Some(w as u32),
                    Some(_) => {
                        let mut child = sched.clone();
                        child.push(w as u32);
                        let mut q = shared
                            .queue
                            .lock()
                            .expect("parallel checker work queue poisoned");
                        q.jobs.push(child);
                        shared.available.notify_one();
                    }
                }
            }
            Err((executed, failure)) => {
                let mut steps = std::mem::take(trace);
                steps.extend(executed);
                let mut schedule = sched.clone();
                schedule.push(w as u32);
                shared.fail(steps, failure, vec![], schedule);
                return Step::Halt;
            }
        }
    }
    let Some(w) = keep else {
        return Step::Exhausted;
    };
    // Descend: re-fire the kept child in place. Deterministic, and the
    // discovery fire above succeeded, so this cannot fail; handle the
    // error arm defensively all the same.
    match ck.fire(buf, j, w as usize) {
        Ok(executed) => {
            trace.extend(executed);
            sched.push(w);
            Step::Descend
        }
        Err((executed, failure)) => {
            let mut steps = std::mem::take(trace);
            steps.extend(executed);
            let mut schedule = sched.clone();
            schedule.push(w);
            shared.fail(steps, failure, vec![], schedule);
            Step::Halt
        }
    }
}
