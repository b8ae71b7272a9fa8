//! Cross-iteration counterexample schedule bank.
//!
//! Every refuted candidate leaves behind the worker interleaving that
//! killed it. Consecutive CEGIS candidates tend to die on the *same*
//! interleavings — the synthesizer patches one hole and the old race is
//! still there — so instead of discarding each schedule after its trace
//! is encoded, the bank keeps a bounded, deduplicated collection of
//! them ordered by kill count and recency. Prescreening a new candidate
//! replays the banked schedules deterministically on its sealed code
//! ([`crate::replay_compiled`]): a hit refutes the candidate in
//! O(trace) time with zero state-space exploration; only survivors pay
//! for the exhaustive search.
//!
//! Soundness: a replay executes the candidate's own code under a fixed
//! interleaving, so any failure it reports is a real execution of that
//! candidate — prescreening can only *refute*, never accept. Missing a
//! kill merely falls through to the full checker. CEGIS soundness and
//! completeness are therefore untouched by the bank's eviction policy,
//! capacity, or the order schedules are tried in.
//!
//! The bank sits behind a single [`Mutex`]. The lock is only held to
//! snapshot the schedule list and to bump hit counters; the replays
//! themselves run outside it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::checker::{replay_with, Checker};
use crate::compiled::CompiledProgram;
use crate::store::CexTrace;

/// One banked schedule with its bookkeeping.
struct Entry {
    /// The transition-level worker schedule (see [`CexTrace::schedule`]).
    schedule: Vec<u32>,
    /// FNV-1a fingerprint of `schedule`, for cheap dedup.
    fp: u64,
    /// How many candidates this schedule has refuted.
    kills: u64,
    /// Logical timestamp of the last insert or hit.
    last_used: u64,
}

/// Counters describing a single prescreen pass, merged into the
/// caller's per-iteration telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Number of banked schedules replayed before returning.
    pub replays: u64,
    /// 1 if a replay refuted the candidate, else 0.
    pub hits: u64,
    /// Bank occupancy after the pass.
    pub size: u64,
}

/// A bounded, deduplicated store of counterexample schedules shared
/// across CEGIS iterations.
pub struct ScheduleBank {
    inner: Mutex<Vec<Entry>>,
    capacity: usize,
    clock: AtomicU64,
}

fn fnv1a(schedule: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in schedule {
        h ^= w as u64 + 1;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl ScheduleBank {
    /// Creates an empty bank holding at most `capacity` schedules.
    /// A zero capacity yields a bank that never stores anything, which
    /// makes every prescreen a no-op.
    pub fn new(capacity: usize) -> Self {
        ScheduleBank {
            inner: Mutex::new(Vec::new()),
            capacity,
            clock: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current number of banked schedules.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("schedule bank poisoned").len()
    }

    /// True when the bank holds no schedules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a counterexample's schedule, deduplicating against the
    /// banked ones and evicting the lowest-value entry (fewest kills,
    /// then least recently used) when full. Empty schedules — failures
    /// before the interleaving search starts, which any candidate
    /// reproduces or avoids regardless of scheduling — are not banked.
    pub fn record(&self, schedule: &[u32]) {
        if schedule.is_empty() || self.capacity == 0 {
            return;
        }
        let fp = fnv1a(schedule);
        let now = self.tick();
        let mut bank = self.inner.lock().expect("schedule bank poisoned");
        if let Some(e) = bank
            .iter_mut()
            .find(|e| e.fp == fp && e.schedule == schedule)
        {
            e.last_used = now;
            return;
        }
        if bank.len() >= self.capacity {
            let evict = bank
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.kills, e.last_used))
                .map(|(i, _)| i)
                .expect("bank at capacity > 0 cannot be empty");
            bank.swap_remove(evict);
        }
        bank.push(Entry {
            schedule: schedule.to_vec(),
            fp,
            kills: 0,
            last_used: now,
        });
    }

    /// Replays the banked schedules against a sealed candidate, best
    /// first (most kills, then most recently used). Returns the
    /// refuting trace on the first hit, plus the pass's counters. The
    /// trace's own `schedule` field records the workers that actually
    /// fired, which may be a prefix-with-skips of the banked schedule
    /// when the candidate disables some of its entries. One checker is
    /// built from the artifact and reused across every banked replay.
    pub fn prescreen_compiled(&self, cp: &CompiledProgram) -> (Option<CexTrace>, BankStats) {
        let ck = Checker::from_compiled(cp);
        let snapshot: Vec<(u64, Vec<u32>)> = {
            let mut bank = self.inner.lock().expect("schedule bank poisoned");
            bank.sort_by_key(|e| std::cmp::Reverse((e.kills, e.last_used)));
            bank.iter().map(|e| (e.fp, e.schedule.clone())).collect()
        };
        let mut stats = BankStats {
            size: snapshot.len() as u64,
            ..BankStats::default()
        };
        for (fp, schedule) in &snapshot {
            stats.replays += 1;
            let order: Vec<usize> = schedule.iter().map(|&w| w as usize).collect();
            if let Some(cex) = replay_with(&ck, &order) {
                stats.hits = 1;
                let now = self.tick();
                let mut bank = self.inner.lock().expect("schedule bank poisoned");
                if let Some(e) = bank
                    .iter_mut()
                    .find(|e| e.fp == *fp && e.schedule == *schedule)
                {
                    e.kills += 1;
                    e.last_used = now;
                }
                stats.size = bank.len() as u64;
                return (Some(cex), stats);
            }
        }
        (None, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_ir::{desugar, lower, Config, Lowered};

    /// Seals `l`'s identity candidate and prescreens it.
    fn prescreen(bank: &ScheduleBank, l: &Lowered) -> (Option<CexTrace>, BankStats) {
        bank.prescreen_compiled(&CompiledProgram::compile(l, &l.holes.identity_assignment()))
    }

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).expect("test program must type-check");
        let (sk, holes) = desugar::desugar_program(&p, &cfg).expect("test program must desugar");
        lower::lower_program(&sk, holes, &cfg).expect("test program must lower")
    }

    /// Lost-update race: `fork (i; 2) { t = g; g = t + 1 }` with the
    /// alternating schedule [0, 1, 0, 1] loses an update.
    fn racy() -> Lowered {
        lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { int t = g; g = t + 1; }
                 assert g == 2;
             }",
        )
    }

    fn find_killing_schedule(l: &Lowered) -> Vec<u32> {
        let a = l.holes.identity_assignment();
        let out = crate::checker::check(l, &a);
        let crate::checker::Verdict::Fail(cex) = out.verdict else {
            panic!("candidate must fail");
        };
        assert!(!cex.schedule.is_empty(), "interleaving failure expected");
        cex.schedule
    }

    #[test]
    fn prescreen_hits_on_banked_schedule() {
        let l = racy();
        let sched = find_killing_schedule(&l);
        let bank = ScheduleBank::new(8);
        bank.record(&sched);
        assert_eq!(bank.len(), 1);
        let (cex, stats) = prescreen(&bank, &l);
        let cex = cex.expect("banked schedule must refute the candidate");
        assert!(!cex.schedule.is_empty());
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.replays, 1);
        assert_eq!(stats.size, 1);
    }

    #[test]
    fn record_dedups_and_empty_schedules_are_ignored() {
        let bank = ScheduleBank::new(8);
        bank.record(&[0, 1, 0]);
        bank.record(&[0, 1, 0]);
        bank.record(&[]);
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn eviction_prefers_low_kill_stale_entries() {
        let l = racy();
        let killer = find_killing_schedule(&l);
        let bank = ScheduleBank::new(2);
        bank.record(&killer);
        // Credit the killer with a hit so it outranks fillers.
        let (hit, _) = prescreen(&bank, &l);
        assert!(hit.is_some());
        bank.record(&[9, 9, 9]);
        // Bank full: the zero-kill filler is evicted, not the killer.
        bank.record(&[8, 8, 8]);
        assert_eq!(bank.len(), 2);
        let (still_hit, stats) = prescreen(&bank, &l);
        assert!(still_hit.is_some(), "killer must survive eviction");
        // Killer is ordered first (most kills), so one replay suffices.
        assert_eq!(stats.replays, 1);
    }

    #[test]
    fn zero_capacity_bank_is_inert() {
        let bank = ScheduleBank::new(0);
        bank.record(&[0, 1]);
        assert!(bank.is_empty());
        let (cex, stats) = prescreen(&bank, &racy());
        assert!(cex.is_none());
        assert_eq!(stats, BankStats::default());
    }

    #[test]
    fn prescreen_misses_on_passing_candidate() {
        // Same schedule, but against a program whose assertion holds
        // under every interleaving.
        let safe = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { int old = AtomicReadAndIncr(g); }
                 assert g == 2;
             }",
        );
        let racy_l = racy();
        let sched = find_killing_schedule(&racy_l);
        let bank = ScheduleBank::new(8);
        bank.record(&sched);
        let (cex, stats) = prescreen(&bank, &safe);
        assert!(cex.is_none(), "prescreen must not refute a safe program");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.replays, 1);
    }
}
