//! Property tests: bitvector circuits against native `i8` reference
//! arithmetic, over random operand pairs.

use psketch_symbolic::bv::Bv;
use psketch_symbolic::circuit::Circuit;
use psketch_testutil::cases;
use std::collections::HashMap;

const W: usize = 8;

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
fn bv_ops_match_i8() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let y = rng.any_i8();
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let b = Bv::input(&mut c, W);
        let sum = Bv::add(&mut c, &a, &b);
        let dif = Bv::sub(&mut c, &a, &b);
        let prod = Bv::mul(&mut c, &a, &b);
        let neg = Bv::neg(&mut c, &a);
        let eq = Bv::eq(&mut c, &a, &b);
        let lt = Bv::slt(&mut c, &a, &b);
        let le = Bv::sle(&mut c, &a, &b);
        let ult = Bv::ult(&mut c, &a, &b);
        let mut inputs = HashMap::new();
        set_input(&c, &a, x as i64, &mut inputs);
        set_input(&c, &b, y as i64, &mut inputs);
        assert_eq!(eval_bv(&c, &sum, &inputs), x.wrapping_add(y) as i64);
        assert_eq!(eval_bv(&c, &dif, &inputs), x.wrapping_sub(y) as i64);
        assert_eq!(eval_bv(&c, &prod, &inputs), x.wrapping_mul(y) as i64);
        assert_eq!(eval_bv(&c, &neg, &inputs), x.wrapping_neg() as i64);
        assert_eq!(c.eval(eq, &inputs), x == y);
        assert_eq!(c.eval(lt, &inputs), x < y);
        assert_eq!(c.eval(le, &inputs), x <= y);
        assert_eq!(c.eval(ult, &inputs), (x as u8) < (y as u8));
    });
}

#[test]
fn bv_divmod_match_i8() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let d = {
            let mag = rng.range_i64(1, 13) as i8;
            if rng.any_bool() {
                mag
            } else {
                -mag
            }
        };
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let q = Bv::div_const(&mut c, &a, d as i64);
        let r = Bv::rem_const(&mut c, &a, d as i64);
        let mut inputs = HashMap::new();
        set_input(&c, &a, x as i64, &mut inputs);
        assert_eq!(
            eval_bv(&c, &q, &inputs),
            x.wrapping_div(d) as i64,
            "{x} / {d}"
        );
        assert_eq!(
            eval_bv(&c, &r, &inputs),
            x.wrapping_rem(d) as i64,
            "{x} % {d}"
        );
    });
}

#[test]
fn mux_selects() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let y = rng.any_i8();
        let sel = rng.any_bool();
        let mut c = Circuit::new();
        let a = Bv::constant(&mut c, x as i64, W);
        let b = Bv::constant(&mut c, y as i64, W);
        let s = c.input();
        let m = Bv::mux(&mut c, s, &a, &b);
        let mut inputs = HashMap::new();
        inputs.insert(c.input_index(s), sel);
        assert_eq!(
            eval_bv(&c, &m, &inputs),
            if sel { x as i64 } else { y as i64 }
        );
    });
}

#[test]
fn constants_fold_through_ops() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let y = rng.any_i8();
        // Operations on constant bitvectors must stay constant (the
        // circuit should not grow) and agree with the reference.
        let mut c = Circuit::new();
        let a = Bv::constant(&mut c, x as i64, W);
        let b = Bv::constant(&mut c, y as i64, W);
        let before = c.len();
        let sum = Bv::add(&mut c, &a, &b);
        assert_eq!(sum.as_const(), Some(x.wrapping_add(y) as i64));
        assert_eq!(c.len(), before, "constant add allocated nodes");
        let eq = Bv::eq(&mut c, &a, &b);
        assert_eq!(eq.as_const(), Some(x == y));
        assert_eq!(c.len(), before, "constant eq allocated nodes");
    });
}
