//! Ample-set partial-order reduction.
//!
//! At each explored state the checker normally expands every enabled
//! worker. Most of those interleavings are redundant: transitions with
//! disjoint effect footprints commute, so exploring one order of an
//! independent pair reaches the same states as exploring both. This
//! module computes, per state, a provably sufficient subset of the
//! enabled workers — a *persistent set* in Godefroid's sense — from
//! the static [`FootprintTable`] of the lowered program.
//!
//! # The reduction
//!
//! Locations are compiled to bit positions once per program
//! ([`LocBits`]), each worker transition to read/write bitmasks, and
//! each (worker, pc) to *suffix* masks — the union over every step the
//! worker may still execute. A candidate ample set `W` (seeded with
//! one enabled worker) is closed under:
//!
//! - if the current transition of some `w ∈ W` may conflict with any
//!   *future* transition of an active worker `v ∉ W` (its suffix mask
//!   at its current pc), then `v` must join `W` — but
//! - a *blocked* worker cannot join (its current transition is
//!   disabled, and an ample set may only contain enabled transitions);
//!   a conflict with a blocked worker's suffix fails the candidate.
//!
//! The first seed whose closure is a proper subset of the enabled set
//! wins; otherwise the state falls back to full expansion. Because
//! each thread is a straight line, a `W`-avoiding execution can only
//! move workers outside `W`, and every transition it takes is drawn
//! from those workers' suffixes — exactly what the closure checked, so
//! `W`'s current transitions stay independent of (and enabled under)
//! anything the rest of the system does. Failures are deterministic
//! functions of a transition's read set (asserted conditions, array
//! indices, dereferenced objects and the pool counter are all in the
//! footprint), every transition strictly increases the firing worker's
//! pc (the state graph is a DAG, so no cycle proviso is needed), and
//! terminal states are deadlock states of the worker transition
//! system; persistent sets preserve all of them. Verdicts are
//! preserved; *traces* are not — a reduced search may report a
//! different (equally real) interleaving of the same failure.

use psketch_ir::{Footprint, FootprintTable, Loc, Lowered};

/// One transition's read/write bit sets.
#[derive(Clone, Debug, PartialEq)]
struct Mask {
    r: Box<[u64]>,
    w: Box<[u64]>,
}

/// Maps abstract [`Loc`]s to bit positions: one bit per global cell,
/// per heap field column and per pool counter. `Loc::Alloc` sets the
/// pool bit *and* every field-column bit of its struct, so allocation
/// conflicts with any field access of the pool by construction.
struct LocBits {
    field_off: Vec<usize>,
    alloc_bit: Vec<usize>,
    nbits: usize,
}

impl LocBits {
    fn new(l: &Lowered) -> LocBits {
        let mut next = l.globals.len();
        let mut field_off = Vec::with_capacity(l.structs.len());
        for s in &l.structs {
            field_off.push(next);
            next += s.fields.len();
        }
        let mut alloc_bit = Vec::with_capacity(l.structs.len());
        for _ in &l.structs {
            alloc_bit.push(next);
            next += 1;
        }
        LocBits {
            field_off,
            alloc_bit,
            nbits: next,
        }
    }

    fn nwords(&self) -> usize {
        self.nbits.div_ceil(64).max(1)
    }

    fn set(&self, loc: &Loc, mask: &mut [u64], l: &Lowered) {
        let mut bit = |b: usize| mask[b / 64] |= 1u64 << (b % 64);
        match *loc {
            Loc::Global(g) => bit(g),
            Loc::GlobalRegion { base, len } => {
                for b in base..base + len {
                    bit(b);
                }
            }
            Loc::Field { sid, fid } => bit(self.field_off[sid] + fid),
            Loc::Alloc(sid) => {
                bit(self.alloc_bit[sid]);
                for f in 0..l.structs[sid].fields.len() {
                    bit(self.field_off[sid] + f);
                }
            }
        }
    }
}

/// Per-(worker, pc) transition and suffix masks, computed once per
/// lowered program (candidate-independent) or once per sealed
/// candidate (from sharpened footprints, via
/// [`PorTable::from_footprints`]).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PorTable {
    nwords: usize,
    /// `cur[w][pc]`: masks of the transition a worker fires from `pc`
    /// — the step itself, or the whole atomic section when `pc` is an
    /// `AtomicBegin`. Steps the post-fire `advance` absorbs are
    /// non-shared and contribute nothing.
    cur: Vec<Vec<Mask>>,
    /// `suf[w][pc]`: union over steps `pc..` (indexed `0..=len`).
    suf: Vec<Vec<Mask>>,
}

impl PorTable {
    pub(crate) fn new(l: &Lowered) -> PorTable {
        let fps = FootprintTable::new(l);
        let per_worker: Vec<&[Footprint]> =
            (0..l.workers.len()).map(|w| fps.thread(w + 1)).collect();
        PorTable::from_footprints(l, &per_worker)
    }

    /// Builds the table from externally supplied per-worker footprints
    /// (`fps[w]` holds worker `w`'s step footprints in program order).
    /// The bit layout depends only on globals and structs, so static
    /// and candidate-sharpened tables built this way are directly
    /// comparable with [`PorTable::refines`].
    pub(crate) fn from_footprints(l: &Lowered, fps: &[&[Footprint]]) -> PorTable {
        let bits = LocBits::new(l);
        let nwords = bits.nwords();
        let empty = || Mask {
            r: vec![0u64; nwords].into_boxed_slice(),
            w: vec![0u64; nwords].into_boxed_slice(),
        };
        let mut cur = Vec::with_capacity(l.workers.len());
        let mut suf = Vec::with_capacity(l.workers.len());
        for (w, thread) in l.workers.iter().enumerate() {
            let n = thread.steps.len();
            let step_mask: Vec<Mask> = (0..n)
                .map(|ix| {
                    let fp = &fps[w][ix];
                    let mut m = empty();
                    for loc in &fp.reads {
                        bits.set(loc, &mut m.r, l);
                    }
                    for loc in &fp.writes {
                        bits.set(loc, &mut m.w, l);
                    }
                    m
                })
                .collect();
            let mut wsuf = Vec::with_capacity(n + 1);
            wsuf.resize_with(n + 1, empty);
            for ix in (0..n).rev() {
                for k in 0..nwords {
                    wsuf[ix].r[k] = wsuf[ix + 1].r[k] | step_mask[ix].r[k];
                    wsuf[ix].w[k] = wsuf[ix + 1].w[k] | step_mask[ix].w[k];
                }
            }
            let wcur: Vec<Mask> = (0..n)
                .map(|ix| {
                    let mut m = empty();
                    let end = thread.atomic_end(ix).unwrap_or(ix);
                    for s in &step_mask[ix..=end] {
                        for k in 0..nwords {
                            m.r[k] |= s.r[k];
                            m.w[k] |= s.w[k];
                        }
                    }
                    m
                })
                .collect();
            cur.push(wcur);
            suf.push(wsuf);
        }
        PorTable { nwords, cur, suf }
    }

    /// Heap bytes of the table's masks, by length.
    pub(crate) fn heap_bytes(&self) -> usize {
        let per_mask = std::mem::size_of::<Mask>() + 2 * self.nwords * std::mem::size_of::<u64>();
        let masks: usize = self.cur.iter().chain(&self.suf).map(Vec::len).sum();
        (self.cur.len() + self.suf.len()) * std::mem::size_of::<Vec<Mask>>() + masks * per_mask
    }

    /// True when every bit set in this table is also set in `base` —
    /// i.e. these footprints are a (possibly equal) refinement of the
    /// static ones. Both tables must come from structurally identical
    /// programs (the bit layout depends only on globals and structs,
    /// which hole specialization preserves).
    pub(crate) fn refines(&self, base: &PorTable) -> bool {
        fn subset(a: &Mask, b: &Mask) -> bool {
            a.r.iter().zip(b.r.iter()).all(|(x, y)| x & !y == 0)
                && a.w.iter().zip(b.w.iter()).all(|(x, y)| x & !y == 0)
        }
        let per_worker = |ours: &[Vec<Mask>], theirs: &[Vec<Mask>]| {
            ours.len() == theirs.len()
                && ours
                    .iter()
                    .zip(theirs)
                    .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| subset(x, y)))
        };
        self.nwords == base.nwords
            && per_worker(&self.cur, &base.cur)
            && per_worker(&self.suf, &base.suf)
    }

    /// Counts (worker, pc) transition masks strictly tighter here than
    /// in `base` — how many transitions the candidate's constants
    /// sharpened past the static analysis.
    pub(crate) fn sharpened_vs(&self, base: &PorTable) -> u64 {
        let mut n = 0u64;
        for (ours, theirs) in self.cur.iter().zip(base.cur.iter()) {
            for (a, b) in ours.iter().zip(theirs.iter()) {
                let subset = a.r.iter().zip(b.r.iter()).all(|(x, y)| x & !y == 0)
                    && a.w.iter().zip(b.w.iter()).all(|(x, y)| x & !y == 0);
                let equal = a.r == b.r && a.w == b.w;
                if subset && !equal {
                    n += 1;
                }
            }
        }
        n
    }

    /// Do the transitions behind masks `a` and `b` possibly touch a
    /// common location with at least one write?
    fn conflict(&self, ar: &[u64], aw: &[u64], b: &Mask) -> bool {
        (0..self.nwords).any(|k| (aw[k] & (b.r[k] | b.w[k])) | (b.w[k] & ar[k]) != 0)
    }

    /// May the current transitions of any two workers conflict?
    /// (Public to the crate for the commutation walker; `a != b`.)
    pub(crate) fn independent(&self, pcs: &[usize], a: usize, b: usize) -> bool {
        let ma = &self.cur[a][pcs[a]];
        let mb = &self.cur[b][pcs[b]];
        !self.conflict(&ma.r, &ma.w, mb)
    }

    /// Computes an ample worker set at a state, or `None` for full
    /// expansion. `pcs` holds every worker's pc, `enabled` the
    /// enabled-worker bitmask, `active` the not-yet-finished bitmask
    /// (`enabled ⊆ active`; blocked = `active & !enabled`). Requires
    /// at most 64 workers and at least two enabled (the caller
    /// guards). `masks` holds the candidate set's read and write
    /// masks; the search owns it, so no call allocates once it has
    /// grown. Deterministic in its arguments, so every search of one
    /// artifact reduces to the identical state graph.
    pub(crate) fn ample(
        &self,
        pcs: &[usize],
        enabled: u64,
        active: u64,
        masks: &mut Vec<u64>,
    ) -> Option<u64> {
        let nwords = self.nwords;
        masks.resize(2 * nwords, 0);
        let (cur_r, cur_w) = masks.split_at_mut(nwords);
        'seed: for seed in BitIter(enabled) {
            cur_r.fill(0);
            cur_w.fill(0);
            let join = |cr: &mut [u64], cw: &mut [u64], m: &Mask| {
                for k in 0..nwords {
                    cr[k] |= m.r[k];
                    cw[k] |= m.w[k];
                }
            };
            join(cur_r, cur_w, &self.cur[seed][pcs[seed]]);
            let mut set = 1u64 << seed;
            loop {
                let mut grew = false;
                for v in BitIter(active & !set) {
                    if self.conflict(cur_r, cur_w, &self.suf[v][pcs[v]]) {
                        if enabled & (1 << v) == 0 {
                            // Conflict with a blocked worker's future:
                            // it cannot join the ample set, so this
                            // seed is unusable.
                            continue 'seed;
                        }
                        join(cur_r, cur_w, &self.cur[v][pcs[v]]);
                        set |= 1 << v;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            if set != enabled {
                return Some(set);
            }
        }
        None
    }
}

/// Iterates the set bit positions of a `u64`.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_ir::{desugar::desugar_program, lower::lower_program, Config, Lowered, Op};

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower_program(&sk, holes, &cfg).unwrap()
    }

    #[test]
    fn disjoint_counters_yield_singleton_ample() {
        // Each worker increments its own array cell: with the fork
        // variable constant-propagated, the two transitions are
        // independent, so a singleton ample set exists.
        let l = lowered(
            "int[2] g;
             harness void main() {
                 fork (i; 2) { g[i] = g[i] + 1; }
             }",
        );
        let t = PorTable::new(&l);
        let pcs = [0usize, 0usize];
        assert!(t.independent(&pcs, 0, 1));
        let ample = t
            .ample(&pcs, 0b11, 0b11, &mut Vec::new())
            .expect("reduction applies");
        assert_eq!(ample.count_ones(), 1);
    }

    #[test]
    fn shared_counter_forces_full_expansion() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { int t = g; g = t + 1; }
             }",
        );
        let t = PorTable::new(&l);
        let shared_pcs: Vec<usize> = l.workers[0]
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.shared)
            .map(|(ix, _)| ix)
            .collect();
        let (read_pc, write_pc) = (shared_pcs[0], shared_pcs[1]);
        // Two reads of g commute; a read and a write of g do not.
        assert!(t.independent(&[read_pc, read_pc], 0, 1));
        assert!(!t.independent(&[read_pc, write_pc], 0, 1));
        // But no ample subset exists even at the read/read state: each
        // worker's *future* still writes g.
        let masks = &mut Vec::new();
        assert_eq!(t.ample(&[read_pc, read_pc], 0b11, 0b11, masks), None);
        assert_eq!(t.ample(&[read_pc, write_pc], 0b11, 0b11, masks), None);
    }

    #[test]
    fn blocked_worker_suffix_blocks_the_seed() {
        // Worker 1 blocks on g; worker 0's transition writes g. A
        // candidate {0} would conflict with the blocked worker's
        // future, and {1} is not enabled, so no reduction applies.
        let l = lowered(
            "int g; int h;
             harness void main() {
                 fork (i; 2) {
                     if (i == 0) { g = 1; }
                     else { atomic (g == 1) { } h = 2; }
                 }
             }",
        );
        let t = PorTable::new(&l);
        // Worker 0 enabled at its write to g; worker 1 blocked at the
        // conditional atomic.
        let pc1 = l.workers[1]
            .steps
            .iter()
            .position(|s| matches!(s.op, Op::AtomicBegin(Some(_))))
            .expect("blocking step");
        let pc0 = l.workers[0]
            .steps
            .iter()
            .position(|s| s.shared)
            .expect("visible step");
        let pcs = [pc0, pc1];
        assert_eq!(t.ample(&pcs, 0b01, 0b11, &mut Vec::new()), None);
    }
}
