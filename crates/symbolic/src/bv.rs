//! Fixed-width two's-complement bitvectors over the circuit.

use crate::circuit::{Circuit, NodeRef};
use std::fmt;
use std::hash::{Hash, Hasher};

/// The capacity of the narrow class: every `int` of at most 16 bits.
pub const NARROW: usize = 16;

/// The capacity of the wide class: the widest `int` the front end
/// accepts.
pub const WIDE: usize = 62;

/// Whether an `int` of `width` bits fits the narrow class. An
/// evaluation picks its class once, from the sketch's `int_width`.
pub(crate) fn is_narrow(width: usize) -> bool {
    width <= NARROW
}

/// A bitvector of at most `N` bits, least-significant bit first.
///
/// The bits live inline, so a `Bv` is `Copy` and building one never
/// allocates; `N` is one of the two width classes, [`NARROW`] or
/// [`WIDE`]. Slots past the width hold `NodeRef::FALSE`, so two
/// bitvectors are equal exactly when their bits are, and every
/// operation makes the same circuit calls whatever its class.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Bv<const N: usize> {
    bits: [NodeRef; N],
    width: u8,
}

/// Hashes the bits within the width: the slots past it are all
/// `NodeRef::FALSE`, so equal bitvectors still hash alike.
impl<const N: usize> Hash for Bv<N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
    }
}

impl<const N: usize> fmt::Debug for Bv<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Bv").field(&self.bits()).finish()
    }
}

impl<const N: usize> Bv<N> {
    /// A bitvector of `width` bits whose bit `k` is `bit(k)`, asked
    /// for in order from bit 0.
    pub(crate) fn from_fn(width: usize, mut bit: impl FnMut(usize) -> NodeRef) -> Bv<N> {
        assert!(width <= N, "bitvector of {width} bits is wider than {N}");
        let mut bits = [NodeRef::FALSE; N];
        for (k, b) in bits[..width].iter_mut().enumerate() {
            *b = bit(k);
        }
        Bv {
            bits,
            width: width as u8,
        }
    }

    /// The bits, least-significant first.
    pub fn bits(&self) -> &[NodeRef] {
        &self.bits[..self.width()]
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// A constant bitvector of `width` bits (two's complement,
    /// truncating).
    pub fn constant(c: &mut Circuit, value: i64, width: usize) -> Bv<N> {
        Bv::from_fn(width, |k| c.constant((value >> k) & 1 == 1))
    }

    /// Fresh unconstrained inputs.
    pub fn input(c: &mut Circuit, width: usize) -> Bv<N> {
        Bv::from_fn(width, |_| c.input())
    }

    /// The constant value, if all bits are constants.
    pub fn as_const(&self) -> Option<i64> {
        let mut v: i64 = 0;
        for (k, b) in self.bits().iter().enumerate() {
            match b.as_const() {
                Some(true) => v |= 1 << k,
                Some(false) => {}
                None => return None,
            }
        }
        // Sign-extend from the top bit.
        let w = self.width();
        if w < 64 && v & (1 << (w - 1)) != 0 {
            v -= 1 << w;
        }
        Some(v)
    }

    /// A single-bit boolean lifted to this width (0 or 1).
    pub fn from_bool(c: &mut Circuit, b: NodeRef, width: usize) -> Bv<N> {
        Bv::from_fn(width, |k| if k == 0 { b } else { c.constant(false) })
    }

    /// Is the value non-zero?
    pub fn nonzero(&self, c: &mut Circuit) -> NodeRef {
        c.or_all(self.bits().iter().copied())
    }

    /// Bitwise mux: `cond ? a : b` (widths must match).
    pub fn mux(c: &mut Circuit, cond: NodeRef, a: &Bv<N>, b: &Bv<N>) -> Bv<N> {
        assert_eq!(a.width(), b.width());
        Bv::from_fn(a.width(), |k| c.ite(cond, a.bits[k], b.bits[k]))
    }

    /// Addition (wrapping).
    pub fn add(c: &mut Circuit, a: &Bv<N>, b: &Bv<N>) -> Bv<N> {
        assert_eq!(a.width(), b.width());
        let mut carry = c.constant(false);
        Bv::from_fn(a.width(), |k| {
            let (x, y) = (a.bits[k], b.bits[k]);
            let xy = c.xor(x, y);
            let s = c.xor(xy, carry);
            let c1 = c.and(x, y);
            let c2 = c.and(xy, carry);
            carry = c.or(c1, c2);
            s
        })
    }

    /// Negation (two's complement).
    pub fn neg(c: &mut Circuit, a: &Bv<N>) -> Bv<N> {
        let inverted = Bv::from_fn(a.width(), |k| a.bits[k].not());
        let one = Bv::constant(c, 1, a.width());
        Bv::add(c, &inverted, &one)
    }

    /// Subtraction (wrapping).
    pub fn sub(c: &mut Circuit, a: &Bv<N>, b: &Bv<N>) -> Bv<N> {
        let nb = Bv::neg(c, b);
        Bv::add(c, a, &nb)
    }

    /// Multiplication (wrapping shift-and-add).
    pub fn mul(c: &mut Circuit, a: &Bv<N>, b: &Bv<N>) -> Bv<N> {
        let w = a.width();
        let mut acc = Bv::constant(c, 0, w);
        for k in 0..w {
            // acc += (b[k] ? a << k : 0)
            let gated = Bv::from_fn(w, |j| {
                let bit = if j < k {
                    c.constant(false)
                } else {
                    a.bits[j - k]
                };
                c.and(bit, b.bits[k])
            });
            acc = Bv::add(c, &acc, &gated);
        }
        acc
    }

    /// Equality.
    pub fn eq(c: &mut Circuit, a: &Bv<N>, b: &Bv<N>) -> NodeRef {
        assert_eq!(a.width(), b.width());
        let same = Bv::<N>::from_fn(a.width(), |k| c.iff(a.bits[k], b.bits[k]));
        c.and_all(same.bits().iter().copied())
    }

    /// Signed less-than.
    pub fn slt(c: &mut Circuit, a: &Bv<N>, b: &Bv<N>) -> NodeRef {
        // a < b  <=>  (a - b) overflows into "negative" correctly:
        // compute via sign comparison: if signs differ, a<b iff a
        // negative; else compare magnitude via subtraction sign.
        let w = a.width();
        let sa = a.bits[w - 1];
        let sb = b.bits[w - 1];
        let diff = Bv::sub(c, a, b);
        let sd = diff.bits[w - 1];
        let signs_differ = c.xor(sa, sb);
        // signs differ: a<b iff sa; same signs: no overflow, a<b iff
        // diff negative.
        c.ite(signs_differ, sa, sd)
    }

    /// Signed less-or-equal.
    pub fn sle(c: &mut Circuit, a: &Bv<N>, b: &Bv<N>) -> NodeRef {
        Bv::slt(c, b, a).not()
    }

    /// Unsigned less-than (for array bounds).
    pub fn ult(c: &mut Circuit, a: &Bv<N>, b: &Bv<N>) -> NodeRef {
        let w = a.width();
        let mut lt = c.constant(false);
        for k in 0..w {
            let (x, y) = (a.bits[k], b.bits[k]);
            let same = c.iff(x, y);
            let xlty = c.and(x.not(), y);
            lt = c.ite(same, lt, xlty);
        }
        lt
    }

    /// Division by a non-zero constant (restoring long division).
    pub fn div_const(c: &mut Circuit, a: &Bv<N>, divisor: i64) -> Bv<N> {
        Bv::divmod_const(c, a, divisor).0
    }

    /// Remainder by a non-zero constant.
    pub fn rem_const(c: &mut Circuit, a: &Bv<N>, divisor: i64) -> Bv<N> {
        Bv::divmod_const(c, a, divisor).1
    }

    /// Signed division/remainder by a constant, truncated toward zero
    /// (Rust semantics).
    fn divmod_const(c: &mut Circuit, a: &Bv<N>, divisor: i64) -> (Bv<N>, Bv<N>) {
        assert!(divisor != 0, "constant divisor must be non-zero");
        let w = a.width();
        // |a| via conditional negation.
        let sa = a.bits[w - 1];
        let na = Bv::neg(c, a);
        let abs_a = Bv::mux(c, sa, &na, a);
        let abs_d = divisor.unsigned_abs() as i64;

        // Unsigned restoring division of abs_a by abs_d, bit by bit
        // from the MSB.
        let mut rem = Bv::constant(c, 0, w);
        let mut quo = Bv::constant(c, 0, w);
        for k in (0..w).rev() {
            // rem = (rem << 1) | a[k]
            rem = Bv::from_fn(w, |j| {
                if j == 0 {
                    abs_a.bits[k]
                } else {
                    rem.bits[j - 1]
                }
            });
            let dconst = Bv::constant(c, abs_d, w);
            let ge = Bv::ult(c, &rem, &dconst).not();
            let sub = Bv::sub(c, &rem, &dconst);
            rem = Bv::mux(c, ge, &sub, &rem);
            quo.bits[k] = ge;
        }
        // Apply signs: quotient negative iff signs differ; remainder
        // takes the dividend's sign.
        let sd = divisor < 0;
        let sdiff = if sd { sa.not() } else { sa };
        let nq = Bv::neg(c, &quo);
        let q = Bv::mux(c, sdiff, &nq, &quo);
        let nr = Bv::neg(c, &rem);
        let r = Bv::mux(c, sa, &nr, &rem);
        (q, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    type Bv = super::Bv<NARROW>;

    const W: usize = 8;

    fn wrap(v: i64) -> i64 {
        let m = 1i64 << W;
        let r = v.rem_euclid(m);
        if r >= m / 2 {
            r - m
        } else {
            r
        }
    }

    /// Evaluates a Bv whose bits came from inputs set by `vals`.
    fn eval_bv(c: &Circuit, bv: &Bv, inputs: &HashMap<u32, bool>) -> i64 {
        let mut v: i64 = 0;
        for (k, &b) in bv.bits().iter().enumerate() {
            if c.eval(b, inputs) {
                v |= 1 << k;
            }
        }
        if v & (1 << (W - 1)) != 0 {
            v -= 1 << W;
        }
        v
    }

    fn set_input(c: &Circuit, bv: &Bv, value: i64, inputs: &mut HashMap<u32, bool>) {
        for (k, &b) in bv.bits().iter().enumerate() {
            inputs.insert(c.input_index(b), (value >> k) & 1 == 1);
        }
    }

    #[test]
    fn constants_roundtrip() {
        let mut c = Circuit::new();
        for v in [-128i64, -1, 0, 1, 5, 127] {
            let bv = Bv::constant(&mut c, v, W);
            assert_eq!(bv.as_const(), Some(v), "{v}");
        }
    }

    #[test]
    fn arithmetic_matches_reference() {
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let b = Bv::input(&mut c, W);
        let sum = Bv::add(&mut c, &a, &b);
        let dif = Bv::sub(&mut c, &a, &b);
        let prod = Bv::mul(&mut c, &a, &b);
        let cases = [
            (0i64, 0i64),
            (1, 1),
            (5, 7),
            (127, 1),
            (-128, -1),
            (-5, 3),
            (100, 100),
            (-77, 33),
        ];
        for (x, y) in cases {
            let mut inputs = HashMap::new();
            set_input(&c, &a, x, &mut inputs);
            set_input(&c, &b, y, &mut inputs);
            assert_eq!(eval_bv(&c, &sum, &inputs), wrap(x + y), "{x}+{y}");
            assert_eq!(eval_bv(&c, &dif, &inputs), wrap(x - y), "{x}-{y}");
            assert_eq!(eval_bv(&c, &prod, &inputs), wrap(x * y), "{x}*{y}");
        }
    }

    #[test]
    fn comparisons_match_reference() {
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let b = Bv::input(&mut c, W);
        let eq = Bv::eq(&mut c, &a, &b);
        let lt = Bv::slt(&mut c, &a, &b);
        let le = Bv::sle(&mut c, &a, &b);
        let ult = Bv::ult(&mut c, &a, &b);
        for (x, y) in [
            (0i64, 0i64),
            (1, 2),
            (2, 1),
            (-1, 1),
            (1, -1),
            (-128, 127),
            (127, -128),
            (-5, -7),
        ] {
            let mut inputs = HashMap::new();
            set_input(&c, &a, x, &mut inputs);
            set_input(&c, &b, y, &mut inputs);
            assert_eq!(c.eval(eq, &inputs), x == y, "{x}=={y}");
            assert_eq!(c.eval(lt, &inputs), x < y, "{x}<{y}");
            assert_eq!(c.eval(le, &inputs), x <= y, "{x}<={y}");
            let ux = (x as u8) as u64;
            let uy = (y as u8) as u64;
            assert_eq!(c.eval(ult, &inputs), ux < uy, "{x} u< {y}");
        }
    }

    #[test]
    fn division_by_constants() {
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        for d in [1i64, 2, 3, 5, -3, 7] {
            let q = Bv::div_const(&mut c, &a, d);
            let r = Bv::rem_const(&mut c, &a, d);
            for x in [-128i64, -17, -1, 0, 1, 17, 127, 100] {
                let mut inputs = HashMap::new();
                set_input(&c, &a, x, &mut inputs);
                assert_eq!(eval_bv(&c, &q, &inputs), wrap(x / d), "{x}/{d}");
                assert_eq!(eval_bv(&c, &r, &inputs), wrap(x % d), "{x}%{d}");
            }
        }
    }

    #[test]
    fn mux_and_bool_lifting() {
        let mut c = Circuit::new();
        let cond = c.input();
        let a = Bv::constant(&mut c, 11, W);
        let b = Bv::constant(&mut c, 22, W);
        let m = Bv::mux(&mut c, cond, &a, &b);
        let mut inputs = HashMap::new();
        inputs.insert(c.input_index(cond), true);
        assert_eq!(eval_bv(&c, &m, &inputs), 11);
        inputs.insert(c.input_index(cond), false);
        assert_eq!(eval_bv(&c, &m, &inputs), 22);

        let t = c.constant(true);
        let lifted = Bv::from_bool(&mut c, t, W);
        assert_eq!(lifted.as_const(), Some(1));
    }

    #[test]
    fn nonzero_check() {
        let mut c = Circuit::new();
        let z = Bv::constant(&mut c, 0, W);
        let n = Bv::constant(&mut c, -4, W);
        assert_eq!(z.nonzero(&mut c).as_const(), Some(false));
        assert_eq!(n.nonzero(&mut c).as_const(), Some(true));
    }
}
