//! Flat state buffers and the undo journal.
//!
//! The execution state of a candidate lives in a single contiguous
//! [`StateBuf`] (`Vec<i64>`) described by a [`StateLayout`] segment
//! table: globals first, then every struct pool's heap cells, then the
//! per-pool allocation counters, then one record per worker thread
//! (`pc` followed by its locals). Sequential phases (prologue /
//! epilogue) borrow *scratch* space past the live state for their
//! locals; scratch is popped when the phase ends and is never part of
//! a canonical state.
//!
//! Every mutation goes through [`StateBuf::set`], which records the
//! old value in an [`UndoJournal`]. Reverting a fired transition is
//! then O(writes) — pop journal entries back to a mark — instead of
//! an O(state) clone per transition. Scratch writes are not journaled:
//! scratch is discarded wholesale, so there is nothing to restore. The
//! micro-op evaluator that performs those writes lives with the sealed
//! candidate code in [`crate::CompiledProgram`]'s module.

use psketch_ir::{Lowered, ThreadId};
use psketch_lang::error::Span;
use std::fmt;

/// Why an execution failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// An `assert` evaluated to false (includes loop-bound
    /// termination asserts).
    AssertFailed,
    /// A field of `null` was read or written.
    NullDeref,
    /// An array index was out of bounds.
    OutOfBounds,
    /// A struct pool ran out of objects.
    PoolExhausted,
    /// All unfinished threads were blocked on conditional atomics.
    Deadlock,
}

impl FailureKind {
    /// Stable machine-readable label, as the run report writes it.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::AssertFailed => "assert_failed",
            FailureKind::NullDeref => "null_deref",
            FailureKind::OutOfBounds => "out_of_bounds",
            FailureKind::PoolExhausted => "pool_exhausted",
            FailureKind::Deadlock => "deadlock",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureKind::AssertFailed => "assertion failed",
            FailureKind::NullDeref => "null dereference",
            FailureKind::OutOfBounds => "array index out of bounds",
            FailureKind::PoolExhausted => "heap pool exhausted",
            FailureKind::Deadlock => "deadlock",
        };
        f.write_str(s)
    }
}

/// A failure with its location.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The thread that hit it (trace numbering: 0 = prologue).
    pub tid: ThreadId,
    /// The step index within that thread.
    pub step: usize,
    /// Source position of the step.
    pub span: Span,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at thread {} step {} ({})",
            self.kind, self.tid, self.step, self.span
        )
    }
}

/// A counterexample trace: the observation the inductive synthesizer
/// learns from (paper §6).
#[derive(Clone, Debug)]
pub struct CexTrace {
    /// Executed steps in order: `(thread, step index)`; includes
    /// guard-true invisible steps.
    pub steps: Vec<(ThreadId, usize)>,
    /// The failure that ended the execution.
    pub failure: Failure,
    /// For deadlocks: the blocked position `(thread, step)` of every
    /// unfinished thread (the paper's deadlock set `D`).
    pub deadlock: Vec<(ThreadId, usize)>,
    /// The transition-level worker schedule that reached the failure:
    /// the 0-based worker index of every `fire` after the prologue and
    /// initial local-step absorption, in order. Unlike [`Self::steps`]
    /// (one entry per executed step, several per transition), this is
    /// exactly what [`crate::replay_compiled`] consumes, so feeding it back
    /// deterministically reproduces the failing execution. Empty for
    /// failures before the interleaving search starts (prologue /
    /// initial advance), which replay reproduces unconditionally.
    pub schedule: Vec<u32>,
}

impl fmt::Display for CexTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; {} steps", self.failure, self.steps.len())
    }
}

/// Segment table of the flat execution state: where each logical
/// region (globals, per-pool heap cells, allocation counters,
/// per-worker records) lives inside the single `Vec<i64>` of a
/// [`StateBuf`].
#[derive(Clone, Debug)]
pub struct StateLayout {
    /// Start of each struct pool's heap segment
    /// (`heap_off[sid] .. heap_off[sid] + fields × capacity`).
    pub(crate) heap_off: Vec<usize>,
    /// Start of the allocation-counter segment (one slot per pool).
    pub(crate) allocs_off: usize,
    /// Start of each worker's record: `pc` at `worker_off[w]`, its
    /// locals directly after.
    pub(crate) worker_off: Vec<usize>,
    /// Total live length — everything past this is scratch.
    pub(crate) state_len: usize,
}

impl StateLayout {
    /// Computes the segment table of a lowered program. Globals occupy
    /// `[0, l.globals.len())`.
    pub fn new(l: &Lowered) -> StateLayout {
        let mut off = l.globals.len();
        let heap_off: Vec<usize> = l
            .structs
            .iter()
            .map(|s| {
                let o = off;
                off += s.fields.len() * s.capacity;
                o
            })
            .collect();
        let allocs_off = off;
        off += l.structs.len();
        let worker_off: Vec<usize> = l
            .workers
            .iter()
            .map(|w| {
                let o = off;
                off += 1 + w.locals.len();
                o
            })
            .collect();
        StateLayout {
            heap_off,
            allocs_off,
            worker_off,
            state_len: off,
        }
    }

    /// Flat offset of heap cell `cell` of pool `sid`.
    #[inline]
    pub(crate) fn heap_cell(&self, sid: usize, cell: usize) -> usize {
        self.heap_off[sid] + cell
    }

    /// Flat offset of pool `sid`'s allocation counter.
    #[inline]
    pub(crate) fn alloc_slot(&self, sid: usize) -> usize {
        self.allocs_off + sid
    }

    /// Flat offset of worker `w`'s program counter.
    #[inline]
    pub(crate) fn worker_pc(&self, w: usize) -> usize {
        self.worker_off[w]
    }

    /// Flat offset of worker `w`'s first local.
    #[inline]
    pub(crate) fn worker_locals(&self, w: usize) -> usize {
        self.worker_off[w] + 1
    }

    /// Words in the live (canonical) state.
    pub fn state_len(&self) -> usize {
        self.state_len
    }

    /// Words before the first worker record: the globals, heap and
    /// allocation counters every thread shares.
    pub(crate) fn shared_len(&self) -> usize {
        self.worker_off.first().copied().unwrap_or(self.state_len)
    }
}

/// The flat execution state: one contiguous word vector addressed
/// through a [`StateLayout`]. The engine mutates one buffer in place
/// and never clones it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateBuf {
    data: Vec<i64>,
    /// Words `[0, live_len)` are canonical state; the rest is scratch
    /// for a sequential phase's locals. Writes past `live_len` are not
    /// journaled.
    live_len: usize,
}

impl StateBuf {
    /// The initial state of a lowered program: globals at their
    /// declared init values, heap zeroed, nothing allocated, every
    /// worker at pc 0 with zeroed locals.
    pub fn initial(lay: &StateLayout, l: &Lowered) -> StateBuf {
        let mut data = vec![0i64; lay.state_len];
        for (g, slot) in l.globals.iter().enumerate() {
            data[g] = slot.init;
        }
        StateBuf {
            data,
            live_len: lay.state_len,
        }
    }

    /// Reads the word at `off`.
    #[inline]
    pub(crate) fn get(&self, off: usize) -> i64 {
        self.data[off]
    }

    /// Writes `v` at `off`, journaling the old value when `off` is in
    /// the live state (scratch writes need no undo).
    #[inline]
    pub(crate) fn set(&mut self, off: usize, v: i64, j: &mut UndoJournal) {
        if off < self.live_len {
            j.record(off, self.data[off]);
        }
        self.data[off] = v;
    }

    /// A contiguous live segment, for streaming fingerprints.
    #[inline]
    pub(crate) fn slice(&self, start: usize, len: usize) -> &[i64] {
        &self.data[start..start + len]
    }

    /// Appends `n` zeroed scratch words (a sequential phase's locals);
    /// returns their base offset. Pop with [`StateBuf::pop_scratch`].
    pub(crate) fn push_scratch(&mut self, n: usize) -> usize {
        let base = self.data.len();
        self.data.resize(base + n, 0);
        base
    }

    /// Discards scratch down to `base` (as returned by
    /// [`StateBuf::push_scratch`]).
    pub(crate) fn pop_scratch(&mut self, base: usize) {
        debug_assert!(base >= self.live_len);
        self.data.truncate(base);
    }
}

/// The undo log: `(offset, old value)` pairs recorded by
/// [`StateBuf::set`]. Reverting to a [`UndoJournal::mark`] replays the
/// log backwards, restoring the exact prior state in O(writes since
/// the mark).
#[derive(Default)]
pub struct UndoJournal {
    entries: Vec<(u32, i64)>,
    /// Total writes ever journaled (telemetry; never reset by undo).
    total: u64,
}

impl UndoJournal {
    /// An empty journal.
    pub fn new() -> UndoJournal {
        UndoJournal::default()
    }

    /// The current log position, to revert to later.
    #[inline]
    pub(crate) fn mark(&self) -> usize {
        self.entries.len()
    }

    /// Appends one old value.
    #[inline]
    fn record(&mut self, off: usize, old: i64) {
        self.entries.push((off as u32, old));
        self.total += 1;
    }

    /// Reverts `buf` to its state at `mark`: pops entries in reverse
    /// write order, restoring each cell's old value. Live-state offsets
    /// only — scratch is never journaled — so this is safe after any
    /// scratch pop.
    pub(crate) fn undo_to(&mut self, mark: usize, buf: &mut StateBuf) {
        while self.entries.len() > mark {
            let (off, old) = self.entries.pop().expect("len checked");
            buf.data[off as usize] = old;
        }
    }

    /// The entries recorded since `mark`, in write order: each is the
    /// written offset and the value it held *before* that write. The
    /// incremental fingerprinter walks these to update only the cells a
    /// transition touched.
    #[inline]
    pub(crate) fn entries_since(&self, mark: usize) -> &[(u32, i64)] {
        &self.entries[mark..]
    }

    /// Drops all entries without reverting (forward-only runs that
    /// will never undo).
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
    }

    /// Total writes journaled over the journal's lifetime (undo does
    /// not subtract): the checker's write-volume telemetry.
    pub fn total_writes(&self) -> u64 {
        self.total
    }
}

/// Evaluation error (failure kind only; position added by the caller).
pub(crate) type EvalResult = Result<i64, FailureKind>;

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

    #[test]
    fn initial_buf_shape() {
        let l = lowered(
            "struct N { int v; N next; } N g; int x = 7;
             harness void main() { }",
        );
        let lay = StateLayout::new(&l);
        let buf = StateBuf::initial(&lay, &l);
        assert_eq!(buf.slice(0, l.globals.len()), &[0, 7]);
        assert_eq!(lay.heap_off, vec![2]);
        assert_eq!(lay.allocs_off, 2 + 2 * l.config.pool);
        assert_eq!(buf.get(lay.alloc_slot(0)), 0);
        assert_eq!(lay.state_len, lay.allocs_off + 1, "no workers");
    }
}
