//! Test-support random-walk driver over the checker's transition
//! system.
//!
//! Exposes just enough of the engine to state the footprint-soundness
//! property externally: from any reachable state, two enabled workers
//! whose current transitions are classified *independent* by the POR
//! table the engines actually use — the sealed candidate's
//! candidate-sharpened masks — must commute: firing them in either
//! order yields the same canonical state, the same fingerprint, the
//! same enabled set, and the same failure behavior. The property test
//! in `tests/footprint_commutation.rs` drives this over the whole
//! example suite.

use crate::checker::Checker;
use crate::compiled::CompiledProgram;
use crate::store::{Failure, StateBuf, UndoJournal};
use psketch_ir::ThreadId;

/// A single live execution state that can fire worker transitions,
/// snapshot, and rewind — the unit the commutation property is checked
/// on.
pub struct Walker<'a> {
    ck: Checker<'a>,
    buf: StateBuf,
    journal: UndoJournal,
    /// Scratch for the steps a fire executes, which no caller reads.
    steps: Vec<(ThreadId, usize)>,
}

impl<'a> Walker<'a> {
    /// Builds the initial post-prologue state of a sealed candidate
    /// (prologue executed, initial invisible steps absorbed). `Err`
    /// when the candidate already fails sequentially before any
    /// interleaving exists.
    pub fn new(cp: &'a CompiledProgram<'a>) -> Result<Walker<'a>, Failure> {
        let ck = Checker::from_compiled(cp);
        let mut journal = UndoJournal::new();
        let (buf, root) = ck.root(&mut journal);
        root.map_err(|cex| cex.failure)?;
        Ok(Walker {
            ck,
            buf,
            journal,
            steps: Vec::new(),
        })
    }

    /// Workers able to take a transition now.
    pub fn enabled_workers(&self) -> Vec<usize> {
        (0..self.ck.nworkers())
            .filter(|&w| self.ck.enabled(&self.buf, w))
            .collect()
    }

    /// Does the candidate's POR table classify the *current*
    /// transitions of workers `a` and `b` as independent (may not
    /// conflict)? Always false when the candidate has no table (fewer
    /// than two workers): no pair is ever reduced.
    pub fn independent(&self, a: usize, b: usize) -> bool {
        let Some(por) = self.ck.cp.por_table() else {
            return false;
        };
        let pcs: Vec<usize> = (0..self.ck.nworkers())
            .map(|w| self.ck.worker_pc(&self.buf, w))
            .collect();
        por.independent(&pcs, a, b)
    }

    /// Fires worker `w`'s transition. `Err` carries the failure; the
    /// state then holds whatever the failing transition wrote before
    /// failing (rewind with a pre-fire [`Walker::mark`]).
    pub fn fire(&mut self, w: usize) -> Result<(), Failure> {
        self.steps.clear();
        self.ck
            .fire(&mut self.buf, &mut self.journal, w, &mut self.steps)
    }

    /// Journal position; pass to [`Walker::rewind`] to revert.
    pub fn mark(&self) -> usize {
        self.journal.mark()
    }

    /// Reverts every write made since `mark`.
    pub fn rewind(&mut self, mark: usize) {
        self.journal.undo_to(mark, &mut self.buf);
    }

    /// Zobrist fingerprint of the current state.
    pub fn fingerprint(&self) -> u64 {
        self.ck.fingerprint_state(&self.buf)
    }

    /// The canonical state vector (shared segment + per-worker pc and
    /// live locals) — byte-for-byte comparable across orders.
    pub fn canonical(&self) -> Vec<i64> {
        self.ck.materialize_canonical(&self.buf)
    }
}
