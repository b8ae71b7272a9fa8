//! Lowering and synthesis bounds.

/// Which `reorder` encoding to use (paper §7.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReorderEncoding {
    /// `k · lg k` control bits, `k²` statement copies, plus a
    /// no-duplicates side constraint.
    #[default]
    Quadratic,
    /// Insertion-based: statement `i` is copied `2^i`-ish times but no
    /// side constraints are needed; often faster for small blocks with
    /// statements of uneven cost.
    Exponential,
}

/// Bounds that make everything finite.
///
/// The paper verifies safety properties "up to a bounded number of
/// executed instructions" with bounded inputs; these knobs are those
/// bounds.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bit width of `int` values (two's complement).
    pub int_width: u32,
    /// Maximum iterations any `while` loop may execute; a candidate
    /// still looping after this many iterations fails (termination is
    /// approximated as bounded safety).
    pub unroll: usize,
    /// Maximum replication for `repeat (??)`.
    pub repeat_max: u64,
    /// Default bit width of a bare `??` hole in integer context.
    pub hole_width: u32,
    /// Heap pool capacity per struct type.
    pub pool: usize,
    /// `reorder` encoding.
    pub reorder: ReorderEncoding,
    /// Maximum function-inlining depth (recursion guard).
    pub inline_depth: usize,
    /// Partial-order reduction: absorb purely thread-local steps into
    /// the preceding shared step so they are not scheduling points
    /// (sound; on by default). Turning it off makes every guard-true
    /// step a scheduling point — used by the ablation benchmarks to
    /// measure how much the reduction buys.
    pub reduce_local_steps: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            int_width: 8,
            unroll: 8,
            repeat_max: 8,
            hole_width: 3,
            pool: 8,
            reorder: ReorderEncoding::Quadratic,
            inline_depth: 16,
            reduce_local_steps: true,
        }
    }
}

impl Config {
    /// All `int` values live in `[-2^(w-1), 2^(w-1))`.
    pub fn int_min(&self) -> i64 {
        -(1i64 << (self.int_width - 1))
    }

    /// Exclusive upper bound of the `int` range.
    pub fn int_max(&self) -> i64 {
        (1i64 << (self.int_width - 1)) - 1
    }

    /// Wraps a mathematical integer into the modelled `int` range.
    pub fn wrap(&self, v: i64) -> i64 {
        let m = 1i64 << self.int_width;
        let r = v.rem_euclid(m);
        if r >= m / 2 {
            r - m
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_is_twos_complement() {
        let c = Config {
            int_width: 8,
            ..Config::default()
        };
        assert_eq!(c.wrap(127), 127);
        assert_eq!(c.wrap(128), -128);
        assert_eq!(c.wrap(-129), 127);
        assert_eq!(c.wrap(256), 0);
        assert_eq!(c.wrap(-1), -1);
        assert_eq!(c.int_min(), -128);
        assert_eq!(c.int_max(), 127);
    }

    #[test]
    fn default_is_sane() {
        let c = Config::default();
        assert!(c.int_width >= 4);
        assert!(c.unroll > 0 && c.pool > 0);
    }
}
