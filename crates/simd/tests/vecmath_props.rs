//! Differential ULP/bitwise harness for the vectorized math kernels.
//!
//! Every transcendental in [`nimble_simd::vecmath`] is checked against the
//! scalar libm reference on **every backend the host can run** (always at
//! least `scalar`; `sse2`+`avx2` on x86-64, `neon` on aarch64):
//!
//! * random inputs across the full useful range, plus a fixed battery of
//!   edge inputs (±0, subnormals, ±inf, NaN, and each kernel's saturation
//!   knees) must stay within the documented max-ULP bound
//!   ([`UnaryOp::ulp_bound`] / [`UnaryOp::abs_floor`]);
//! * the `scalar` backend must be **bit-equal** to the libm formulas the
//!   repo shipped before SIMD existed (`UnaryOp::apply_scalar`) — forcing
//!   `NIMBLE_SIMD=scalar` reproduces historical outputs byte-for-byte;
//! * each backend must be deterministic: two evaluations of the same input
//!   produce the same bits, and the slice kernel (`unary_slice`) must agree
//!   bit-for-bit with the per-element lane evaluator (`unary_scalar_lane`)
//!   so fused codegen paths can never diverge from the standalone kernels;
//! * the row kernels (`softmax_strip`, `layer_norm_strip`) must match their
//!   scalar references within a small relative tolerance on every backend.

// Saturation knees are written with the kernels' full published digits.
#![allow(clippy::excessive_precision)]

use nimble_simd::vecmath::{
    layer_norm_strip, softmax_strip, unary_scalar_lane, unary_slice, within_contract, UnaryOp,
};
use nimble_simd::Isa;
use proptest::prelude::*;

const OPS: [UnaryOp; 7] = [
    UnaryOp::Tanh,
    UnaryOp::Sigmoid,
    UnaryOp::Exp,
    UnaryOp::Gelu,
    UnaryOp::Relu,
    UnaryOp::Sqrt,
    UnaryOp::Neg,
];

/// Edge inputs: signed zeros, subnormals, infinities, NaN, and the exact
/// saturation knees of each polynomial kernel (tanh clamp/exact-1 bounds,
/// exp overflow/underflow bounds, the gelu cutover region) with neighbours
/// one ULP either side.
fn edge_inputs() -> Vec<f32> {
    let knees: &[f32] = &[
        0.0,
        -0.0,
        f32::MIN_POSITIVE, // smallest normal
        -f32::MIN_POSITIVE,
        1.0e-41, // subnormal
        -1.0e-41,
        f32::from_bits(1), // smallest subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        7.905_311_3, // tanh clamp bound
        -7.905_311_3,
        9.010_913, // tanh exact ±1 bound
        -9.010_913,
        87.336_54, // exp underflow knee
        -87.336_54,
        88.722_839, // exp overflow knee
        -88.722_839,
        -4.0, // gelu knee region
        -4.5,
        -5.0,
        -5.5,
        1.0,
        -1.0,
        0.5,
        -0.5,
        4.2e4,
        -4.2e4,
        f32::MAX,
        f32::MIN,
    ];
    let mut v = Vec::new();
    for &x in knees {
        v.push(x);
        if x.is_finite() {
            v.push(f32::from_bits(x.to_bits().wrapping_add(1)));
            if x != 0.0 {
                v.push(f32::from_bits(x.to_bits().wrapping_sub(1)));
            }
        }
    }
    v
}

/// Run `op` over `inputs` on `isa` via the slice kernel.
fn run_slice(isa: Isa, op: UnaryOp, inputs: &[f32]) -> Vec<f32> {
    let mut out = inputs.to_vec();
    unary_slice(isa, op, &mut out);
    out
}

fn check_backend(isa: Isa, op: UnaryOp, inputs: &[f32]) {
    let got = run_slice(isa, op, inputs);
    // Determinism: same bits on a second run.
    let again = run_slice(isa, op, inputs);
    for (i, (a, b)) in got.iter().zip(again.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{op:?}@{isa:?} nondeterministic at [{i}] x={}",
            inputs[i]
        );
    }
    for (i, (&x, &y)) in inputs.iter().zip(got.iter()).enumerate() {
        let want = op.apply_scalar(x);
        // NaN input: every backend must agree with the scalar reference on
        // whether NaN propagates (it does not for relu, whose `max(x, 0)`
        // semantics quash NaN to 0 — on every backend).
        if x.is_nan() {
            assert_eq!(
                y.is_nan(),
                want.is_nan(),
                "{op:?}@{isa:?}: NaN input produced {y}, reference {want}"
            );
            if !want.is_nan() {
                assert_eq!(y.to_bits(), want.to_bits(), "{op:?}@{isa:?} NaN input");
            }
            continue;
        }
        assert!(
            within_contract(op, y, want),
            "{op:?}@{isa:?} out of contract at [{i}]: x={x:e} got={y:e} want={want:e} \
             (bound {} ULP, floor {:e})",
            op.ulp_bound(),
            op.abs_floor()
        );
        if isa == Isa::Scalar {
            assert_eq!(
                y.to_bits(),
                want.to_bits(),
                "{op:?}@scalar not bit-equal to libm reference: x={x:e} got={y:e} want={want:e}"
            );
        }
        // The per-element lane evaluator is the contract the fused codegen
        // path relies on: it must agree bit-for-bit with the slice kernel.
        let lane = unary_scalar_lane(isa, op, x);
        assert!(
            lane.to_bits() == y.to_bits() || (lane.is_nan() && y.is_nan()),
            "{op:?}@{isa:?} lane/slice divergence at x={x:e}: lane={lane:e} slice={y:e}"
        );
    }
}

#[test]
fn edge_inputs_within_contract_on_every_backend() {
    let inputs = edge_inputs();
    for isa in nimble_simd::available() {
        for op in OPS {
            check_backend(isa, op, &inputs);
        }
    }
}

#[test]
fn saturation_is_exact_past_the_knees() {
    // Past the documented knees the kernels must return exact constants on
    // every backend — these are hard equalities, not ULP bounds.
    for isa in nimble_simd::available() {
        for &x in &[9.2f32, 20.0, 1.0e4, f32::INFINITY] {
            assert_eq!(run_slice(isa, UnaryOp::Tanh, &[x])[0], 1.0, "{isa:?}");
            assert_eq!(run_slice(isa, UnaryOp::Tanh, &[-x])[0], -1.0, "{isa:?}");
        }
        for &x in &[90.0f32, 1.0e3, f32::INFINITY] {
            assert_eq!(
                run_slice(isa, UnaryOp::Exp, &[x])[0],
                f32::INFINITY,
                "{isa:?}"
            );
            // Underflow: scalar libm produces subnormals down to ~-103, the
            // vector kernel flushes past its clamp at -87.34 — both are
            // within the documented 1.2e-38 absolute floor.
            let under = run_slice(isa, UnaryOp::Exp, &[-x])[0];
            assert!(
                (0.0..=1.2e-38).contains(&under),
                "{isa:?}: exp(-{x})={under:e}"
            );
            assert_eq!(run_slice(isa, UnaryOp::Sigmoid, &[x])[0], 1.0, "{isa:?}");
            assert_eq!(run_slice(isa, UnaryOp::Sigmoid, &[-x])[0], 0.0, "{isa:?}");
        }
    }
}

#[test]
fn ragged_tails_match_aligned_results() {
    // A value's output must not depend on its position within the vector
    // body vs the masked tail. Evaluate a 37-element slice (never a lane
    // multiple) and compare each element against a 1-element evaluation.
    let inputs: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 0.61).collect();
    for isa in nimble_simd::available() {
        for op in OPS {
            let whole = run_slice(isa, op, &inputs);
            for (i, &x) in inputs.iter().enumerate() {
                let single = run_slice(isa, op, &[x])[0];
                assert_eq!(
                    whole[i].to_bits(),
                    single.to_bits(),
                    "{op:?}@{isa:?}: tail-position dependence at [{i}] x={x}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_inputs_within_contract(
        seed in 0u64..u64::MAX,
        scale_sel in 0usize..4,
        len in 1usize..70,
    ) {
        // Cheap xorshift so we control the distribution: four scales cover
        // the polynomial core, the knee region, huge saturating inputs and
        // tiny near-zero/subnormal inputs.
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * 2.0 - 1.0
        };
        let scale = [1.5f32, 10.0, 1.0e5, 1.0e-30][scale_sel];
        let inputs: Vec<f32> = (0..len).map(|_| next() * scale).collect();
        for isa in nimble_simd::available() {
            for op in OPS {
                check_backend(isa, op, &inputs);
            }
        }
    }

    #[test]
    fn softmax_strip_matches_scalar_reference(
        seed in 0u64..u64::MAX,
        len in 1usize..70,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * 16.0 - 8.0
        };
        let src: Vec<f32> = (0..len).map(|_| next()).collect();
        let mut reference = vec![0.0f32; len];
        softmax_strip(Isa::Scalar, &src, &mut reference);
        for isa in nimble_simd::available() {
            let mut got = vec![0.0f32; len];
            softmax_strip(isa, &src, &mut got);
            let sum: f32 = got.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "{isa:?}: sum={sum}");
            for (i, (&g, &r)) in got.iter().zip(reference.iter()).enumerate() {
                prop_assert!(
                    (g - r).abs() <= 1e-5 + 1e-4 * r.abs(),
                    "{isa:?} softmax[{i}]: got {g:e} want {r:e}"
                );
            }
        }
    }

    /// Right-padding a strip with `-inf` (masked attention keys) never
    /// moves a bit of the real entries, under every backend: each element
    /// joins the same lane sum whatever the strip length.
    #[test]
    fn softmax_strip_padding_is_bitwise_inert(
        seed in 0u64..u64::MAX,
        len in 1usize..70,
        pad in 1usize..20,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * 16.0 - 8.0
        };
        let src: Vec<f32> = (0..len).map(|_| next()).collect();
        let mut padded = src.clone();
        padded.resize(len + pad, f32::NEG_INFINITY);
        for isa in nimble_simd::available() {
            let mut want = vec![0.0f32; len];
            softmax_strip(isa, &src, &mut want);
            let mut got = vec![0.0f32; len + pad];
            softmax_strip(isa, &padded, &mut got);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} softmax[{}] len {} pad {}", isa, i, len, pad);
            }
            for &g in &got[len..] {
                prop_assert_eq!(g.to_bits(), 0.0f32.to_bits(), "{:?} padded key not +0", isa);
            }
        }
    }

    #[test]
    fn layer_norm_strip_matches_scalar_reference(
        seed in 0u64..u64::MAX,
        len in 1usize..70,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * 6.0 - 3.0
        };
        let src: Vec<f32> = (0..len).map(|_| next()).collect();
        let g: Vec<f32> = (0..len).map(|_| 1.0 + 0.25 * next()).collect();
        let b: Vec<f32> = (0..len).map(|_| 0.5 * next()).collect();
        let eps = 1.0e-5f32;
        let mut reference = vec![0.0f32; len];
        layer_norm_strip(Isa::Scalar, &src, &g, &b, eps, &mut reference);
        for isa in nimble_simd::available() {
            let mut got = vec![0.0f32; len];
            layer_norm_strip(isa, &src, &g, &b, eps, &mut got);
            for (i, (&gv, &r)) in got.iter().zip(reference.iter()).enumerate() {
                prop_assert!(
                    (gv - r).abs() <= 1e-4 + 1e-4 * r.abs(),
                    "{isa:?} layer_norm[{i}]: got {gv:e} want {r:e}"
                );
            }
        }
    }
}
