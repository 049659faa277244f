// The polynomial constants below are written with every digit of the
// published Cephes/Eigen coefficients (the extra digits document the
// intended value; rustc rounds to the nearest f32), and LOG2EF is part
// of that coefficient set, not a stand-in for `consts::LOG2_E`.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

//! Vectorized elementwise math with a pinned scalar reference.
//!
//! Every public entry point takes an explicit [`Isa`] and dispatches to a
//! monomorphized kernel behind a `#[target_feature]` wrapper. The
//! `Isa::Scalar` arm does **not** run the polynomial kernels — it runs
//! the original scalar formulas (`f32::tanh`, `1/(1+(-x).exp())`, …)
//! byte-for-byte, so `NIMBLE_SIMD=scalar` reproduces the pre-SIMD
//! outputs exactly and doubles as the reference the differential test
//! harness compares vector backends against.
//!
//! # ULP contract
//!
//! For each [`UnaryOp`], vector backends stay within
//! [`UnaryOp::ulp_bound`] ULPs of the scalar reference, *or* within
//! [`UnaryOp::abs_floor`] absolutely — the floor covers the two spots
//! where ULP distance is the wrong metric:
//!
//! | op      | max ULP | abs floor | notes                                    |
//! |---------|---------|-----------|------------------------------------------|
//! | tanh    | 8       | —         | rational 13/6 approx, exact ±1 beyond 9.01 |
//! | sigmoid | 16      | 1.2e-38   | `1/(1+exp(-x))` over vector exp; flush below −88.4 |
//! | exp     | 8       | 1.2e-38   | flushes to 0 below −87.34 (subnormal range) |
//! | gelu    | 16      | 4e-6      | `1+tanh` cancellation knee near x ≈ −5   |
//! | relu    | 0       | —         | bitwise (compare+select)                 |
//! | sqrt    | 0       | —         | bitwise (IEEE-exact on all backends)     |
//! | neg     | 0       | —         | bitwise (sign-bit xor)                   |
//!
//! NaN maps to NaN on every backend (payloads may differ); ±0 and ±inf
//! are preserved exactly.

use crate::{Isa, ScalarF32, SimdF32};

/// A unary op the fused GEMM epilogue / elementwise dispatch understands.
///
/// `Custom` carries an arbitrary scalar fn pointer (used by tests and
/// one-off fusions); chains containing it take the scalar path.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(unpredictable_function_pointer_comparisons)]
pub enum UnaryOp {
    Tanh,
    Sigmoid,
    Exp,
    Gelu,
    Relu,
    Sqrt,
    Neg,
    Custom(fn(f32) -> f32),
}

impl UnaryOp {
    /// The scalar reference semantics — exactly the formulas the
    /// elementwise kernels used before vectorization.
    #[inline]
    pub fn apply_scalar(self, x: f32) -> f32 {
        match self {
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Gelu => 0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh()),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Neg => -x,
            UnaryOp::Custom(f) => f(x),
        }
    }

    /// Look up the op for an IR unary-op name.
    pub fn from_name(name: &str) -> Option<UnaryOp> {
        match name {
            "tanh" => Some(UnaryOp::Tanh),
            "sigmoid" => Some(UnaryOp::Sigmoid),
            "exp" => Some(UnaryOp::Exp),
            "gelu" => Some(UnaryOp::Gelu),
            "relu" => Some(UnaryOp::Relu),
            "sqrt" => Some(UnaryOp::Sqrt),
            "neg" => Some(UnaryOp::Neg),
            _ => None,
        }
    }

    /// Whether a vector kernel exists for this op.
    pub fn vectorizable(self) -> bool {
        !matches!(self, UnaryOp::Custom(_))
    }

    /// Documented maximum ULP distance of any vector backend from the
    /// scalar reference (see the module-level contract table).
    pub fn ulp_bound(self) -> u32 {
        match self {
            UnaryOp::Tanh => 8,
            UnaryOp::Sigmoid => 16,
            UnaryOp::Exp => 8,
            UnaryOp::Gelu => 16,
            UnaryOp::Relu | UnaryOp::Sqrt | UnaryOp::Neg | UnaryOp::Custom(_) => 0,
        }
    }

    /// Absolute-error escape hatch where ULP distance is meaningless
    /// (subnormal flush, catastrophic cancellation). `0.0` = no floor.
    pub fn abs_floor(self) -> f32 {
        match self {
            UnaryOp::Exp | UnaryOp::Sigmoid => 1.2e-38,
            UnaryOp::Gelu => 4e-6,
            _ => 0.0,
        }
    }
}

/// ULP distance between two floats on the monotonic bit number line.
/// `(NaN, NaN)` and `(+0, −0)` count as 0; NaN vs non-NaN and mismatched
/// infinities count as `u64::MAX`.
pub fn ulp_diff(a: f32, b: f32) -> u64 {
    if a.is_nan() && b.is_nan() {
        return 0;
    }
    if a == b {
        return 0; // covers +0 == -0 and equal infinities
    }
    if a.is_nan() || b.is_nan() || a.is_infinite() != b.is_infinite() {
        return u64::MAX;
    }
    fn key(x: f32) -> i64 {
        let b = x.to_bits();
        if b & 0x8000_0000 != 0 {
            -((b & 0x7fff_ffff) as i64)
        } else {
            b as i64
        }
    }
    key(a).abs_diff(key(b))
}

/// Check a vector result against the scalar reference under the op's
/// documented contract.
pub fn within_contract(op: UnaryOp, got: f32, want: f32) -> bool {
    ulp_diff(got, want) <= op.ulp_bound() as u64 || (got - want).abs() <= op.abs_floor()
}

// ---------------------------------------------------------------------------
// Vector transcendental kernels (generic over the lane type).
// ---------------------------------------------------------------------------

// Cephes/sse_mathfun expf constants.
// ln(f32::MAX): where f32::exp itself overflows to +inf.
const EXP_HI: f32 = 88.722_839;
const EXP_LO: f32 = -87.336_54;
const LOG2EF: f32 = 1.442_695_04;
const EXP_C1: f32 = 0.693_359_375;
const EXP_C2: f32 = -2.121_944_4e-4;
const EXP_P0: f32 = 1.987_569_1e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_5e-1;
const EXP_P5: f32 = 5.000_000_1e-1;

/// `exp(x)`: range-reduced `2^n · P(r)` polynomial.
///
/// Overflow (`x > 88.38`) returns `+inf`, inputs below the smallest
/// normal result (`x < −87.34`) flush to `+0` (the reference returns
/// subnormals there — covered by the absolute floor), NaN propagates.
#[inline(always)]
unsafe fn exp_v<S: SimdF32>(x: S) -> S {
    let t = x.min(S::splat(EXP_HI)).max(S::splat(EXP_LO));
    let n = t.mul(S::splat(LOG2EF)).round();
    // Cody–Waite two-step reduction keeps r accurate.
    let r = t.sub(n.mul(S::splat(EXP_C1))).sub(n.mul(S::splat(EXP_C2)));
    let mut y = S::splat(EXP_P0);
    y = y.mul_add(r, S::splat(EXP_P1));
    y = y.mul_add(r, S::splat(EXP_P2));
    y = y.mul_add(r, S::splat(EXP_P3));
    y = y.mul_add(r, S::splat(EXP_P4));
    y = y.mul_add(r, S::splat(EXP_P5));
    y = y.mul(r.mul(r)).add(r).add(S::splat(1.0));
    // n reaches 128 at the very top of the range; split the scale so the
    // exponent-bit construction stays within the normal range.
    let scale = n.min(S::splat(127.0)).pow2i();
    let extra = S::select(n.gt(S::splat(127.0)), S::splat(2.0), S::splat(1.0));
    let res = y.mul(scale).mul(extra);
    let res = S::select(x.gt(S::splat(EXP_HI)), S::splat(f32::INFINITY), res);
    let res = S::select(x.lt(S::splat(EXP_LO)), S::zero(), res);
    S::select(x.ne(x), x, res)
}

// Eigen-style rational tanh coefficients (odd 13-degree numerator over
// even 6-degree denominator, on the clamped input).
const TANH_CLAMP: f32 = 7.905_311_3;
// Beyond this |x|, f32::tanh rounds to exactly ±1 (13·ln2 ≈ 9.0109).
const TANH_ONE_AT: f32 = 9.010_913;
const TANH_A1: f32 = 4.893_524_6e-3;
const TANH_A3: f32 = 6.372_619_3e-4;
const TANH_A5: f32 = 1.485_722_4e-5;
const TANH_A7: f32 = 5.122_297_1e-8;
const TANH_A9: f32 = -8.604_671_5e-11;
const TANH_A11: f32 = 2.000_187_9e-13;
const TANH_A13: f32 = -2.760_768_5e-16;
const TANH_B0: f32 = 4.893_525_2e-3;
const TANH_B2: f32 = 2.268_434_6e-3;
const TANH_B4: f32 = 1.185_347e-4;
const TANH_B6: f32 = 1.198_258_4e-6;
// Below this |x|, tanh(x) = x to within 1 ULP (x²/3 < 2⁻²⁴) — and the
// rational form would push `A1·x` into the subnormal range for tiny x,
// losing precision in the intermediate.
const TANH_TINY: f32 = 4.0e-4;

/// `tanh(x)`: rational approximation on `[−7.9, 7.9]`, exact ±1 beyond
/// the point where `f32::tanh` itself saturates, sign-preserving at ±0,
/// NaN propagates.
#[inline(always)]
unsafe fn tanh_v<S: SimdF32>(x: S) -> S {
    let t = x.min(S::splat(TANH_CLAMP)).max(S::splat(-TANH_CLAMP));
    let z = t.mul(t);
    let mut p = S::splat(TANH_A13);
    p = p.mul_add(z, S::splat(TANH_A11));
    p = p.mul_add(z, S::splat(TANH_A9));
    p = p.mul_add(z, S::splat(TANH_A7));
    p = p.mul_add(z, S::splat(TANH_A5));
    p = p.mul_add(z, S::splat(TANH_A3));
    p = p.mul_add(z, S::splat(TANH_A1));
    let p = p.mul(t);
    let mut q = S::splat(TANH_B6);
    q = q.mul_add(z, S::splat(TANH_B4));
    q = q.mul_add(z, S::splat(TANH_B2));
    q = q.mul_add(z, S::splat(TANH_B0));
    let r = p.div(q);
    // |x| ≥ 9.01: the reference is exactly ±1 — match it so deep
    // saturation (and gelu's tail) stays bitwise.
    let signed_one = x.and(S::splat(-0.0)).or(S::splat(1.0));
    let r = S::select(x.abs().gt(S::splat(TANH_ONE_AT)), signed_one, r);
    // |x| < 4e-4: identity — avoids subnormal intermediates and is exact
    // to 1 ULP there. Also preserves ±0 signs and propagates NaN (the
    // `lt` comparison is false for NaN, but `x.ne(x)` below catches it).
    let r = S::select(x.abs().lt(S::splat(TANH_TINY)), x, r);
    S::select(x.ne(x), x, r)
}

/// `sigmoid(x) = 1/(1+exp(−x))` — same formula as the scalar reference,
/// over the vector exp.
#[inline(always)]
unsafe fn sigmoid_v<S: SimdF32>(x: S) -> S {
    let one = S::splat(1.0);
    one.div(one.add(exp_v::<S>(x.neg())))
}

/// Tanh-approximation GELU, mirroring the scalar formula's association
/// so the only divergence is `tanh_v` vs `f32::tanh`.
#[inline(always)]
unsafe fn gelu_v<S: SimdF32>(x: S) -> S {
    let x3 = S::splat(0.044_715).mul(x).mul(x).mul(x);
    let u = S::splat(0.797_884_6).mul(x.add(x3));
    S::splat(0.5).mul(x).mul(S::splat(1.0).add(tanh_v::<S>(u)))
}

/// `relu(x)`: compare+select reproduces `f32::max(x, 0.0)` bit-for-bit
/// on every backend (NaN → 0, −0 → +0).
#[inline(always)]
unsafe fn relu_v<S: SimdF32>(x: S) -> S {
    S::select(x.gt(S::zero()), x, S::zero())
}

#[inline(always)]
unsafe fn apply_op_v<S: SimdF32>(op: UnaryOp, v: S) -> S {
    match op {
        UnaryOp::Tanh => tanh_v::<S>(v),
        UnaryOp::Sigmoid => sigmoid_v::<S>(v),
        UnaryOp::Exp => exp_v::<S>(v),
        UnaryOp::Gelu => gelu_v::<S>(v),
        UnaryOp::Relu => relu_v::<S>(v),
        UnaryOp::Sqrt => v.sqrt(),
        UnaryOp::Neg => v.neg(),
        // Chains containing Custom are routed to the scalar path before
        // dispatch ever reaches a vector kernel.
        UnaryOp::Custom(_) => unreachable!("custom unary ops take the scalar path"),
    }
}

// ---------------------------------------------------------------------------
// Row primitives: the single shared tail implementation.
// ---------------------------------------------------------------------------

#[inline(always)]
unsafe fn epilogue_row_v<S: SimdF32>(dst: &mut [f32], bias: Option<&[f32]>, ops: &[UnaryOp]) {
    let n = dst.len();
    let mut i = 0;
    while i + S::LANES <= n {
        let mut v = S::load(&dst[i..]);
        if let Some(b) = bias {
            v = v.add(S::load(&b[i..]));
        }
        for &op in ops {
            v = apply_op_v::<S>(op, v);
        }
        v.store(&mut dst[i..]);
        i += S::LANES;
    }
    if i < n {
        let mut v = S::load_tail(&dst[i..]);
        if let Some(b) = bias {
            v = v.add(S::load_tail(&b[i..]));
        }
        for &op in ops {
            v = apply_op_v::<S>(op, v);
        }
        v.store_tail(&mut dst[i..]);
    }
}

/// Scalar reference: bias add then the op chain, per element, exactly as
/// the pre-SIMD GEMM epilogue did it.
fn epilogue_row_scalar(dst: &mut [f32], bias: Option<&[f32]>, ops: &[UnaryOp]) {
    for (i, v) in dst.iter_mut().enumerate() {
        let mut x = *v;
        if let Some(b) = bias {
            x += b[i];
        }
        for op in ops {
            x = op.apply_scalar(x);
        }
        *v = x;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn epilogue_row_sse2(dst: &mut [f32], bias: Option<&[f32]>, ops: &[UnaryOp]) {
    epilogue_row_v::<crate::x86::F32x4>(dst, bias, ops)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn epilogue_row_avx2(dst: &mut [f32], bias: Option<&[f32]>, ops: &[UnaryOp]) {
    epilogue_row_v::<crate::x86::F32x8>(dst, bias, ops)
}

#[cfg(target_arch = "aarch64")]
unsafe fn epilogue_row_neon(dst: &mut [f32], bias: Option<&[f32]>, ops: &[UnaryOp]) {
    epilogue_row_v::<crate::neon::F32x4n>(dst, bias, ops)
}

fn sanitize(isa: Isa) -> Isa {
    if isa.is_available() {
        isa
    } else {
        Isa::Scalar
    }
}

/// In-place fused row epilogue: `dst[i] = chain(dst[i] + bias[i])`.
///
/// The GEMM write-out and [`unary_slice`] (so every standalone and fused
/// elementwise unary op) route through this — there is exactly one
/// masked-tail implementation in the workspace. Chains containing
/// [`UnaryOp::Custom`] (or `isa == Scalar`) run the scalar reference.
pub fn epilogue_row(isa: Isa, dst: &mut [f32], bias: Option<&[f32]>, ops: &[UnaryOp]) {
    if let Some(b) = bias {
        assert_eq!(b.len(), dst.len(), "epilogue_row: bias length mismatch");
    }
    let isa = sanitize(isa);
    if isa == Isa::Scalar || ops.iter().any(|o| !o.vectorizable()) {
        return epilogue_row_scalar(dst, bias, ops);
    }
    // SAFETY: `sanitize` verified the ISA is available on this CPU.
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { epilogue_row_sse2(dst, bias, ops) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { epilogue_row_avx2(dst, bias, ops) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => unsafe { epilogue_row_neon(dst, bias, ops) },
        _ => epilogue_row_scalar(dst, bias, ops),
    }
}

/// Apply one unary op in place over a slice.
pub fn unary_slice(isa: Isa, op: UnaryOp, data: &mut [f32]) {
    epilogue_row(isa, data, None, &[op]);
}

// ---------------------------------------------------------------------------
// Row reductions: softmax / layer_norm strips.
// ---------------------------------------------------------------------------

#[inline(always)]
unsafe fn softmax_strip_v<S: SimdF32>(src: &[f32], dst: &mut [f32]) {
    let n = src.len();
    let mut i = 0;
    let mut vmax = S::splat(f32::NEG_INFINITY);
    while i + S::LANES <= n {
        vmax = vmax.max(S::load(&src[i..]));
        i += S::LANES;
    }
    let mut m = vmax.reduce_max();
    for &x in &src[i..] {
        if x > m {
            m = x;
        }
    }
    let vm = S::splat(m);
    let mut vsum = S::zero();
    let mut i = 0;
    while i + S::LANES <= n {
        let e = exp_v::<S>(S::load(&src[i..]).sub(vm));
        e.store(&mut dst[i..]);
        vsum = vsum.add(e);
        i += S::LANES;
    }
    if i < n {
        let tail = n - i;
        let e = exp_v::<S>(S::load_tail(&src[i..]).sub(vm));
        e.store_tail(&mut dst[i..]);
        // Padding lanes hold exp(0−m) garbage; mask them out of the sum.
        // The tail joins the lane sums before the one reduction, so element
        // `i` always lands in lane `i mod LANES`: right-padding the strip
        // with `-inf` (adding `+0.0`s) never moves a bit.
        vsum = vsum.add(e.and(S::tail_mask(tail)));
    }
    let vd = S::splat(vsum.reduce_add());
    let mut i = 0;
    while i + S::LANES <= n {
        S::load(&dst[i..]).div(vd).store(&mut dst[i..]);
        i += S::LANES;
    }
    if i < n {
        let v = S::load_tail(&dst[i..]).div(vd);
        v.store_tail(&mut dst[i..]);
    }
}

/// Scalar reference: byte-for-byte the pre-SIMD softmax strip.
fn softmax_strip_scalar(src: &[f32], dst: &mut [f32]) {
    let m = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut denom = 0.0;
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        let e = (x - m).exp();
        *d = e;
        denom += e;
    }
    for d in dst.iter_mut() {
        *d /= denom;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn softmax_strip_sse2(src: &[f32], dst: &mut [f32]) {
    softmax_strip_v::<crate::x86::F32x4>(src, dst)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_strip_avx2(src: &[f32], dst: &mut [f32]) {
    softmax_strip_v::<crate::x86::F32x8>(src, dst)
}

#[cfg(target_arch = "aarch64")]
unsafe fn softmax_strip_neon(src: &[f32], dst: &mut [f32]) {
    softmax_strip_v::<crate::neon::F32x4n>(src, dst)
}

/// Numerically-stable softmax over one strip (`dst.len() == src.len()`).
///
/// Vector backends reassociate the max/sum reductions, so results are
/// ULP-close (not bitwise) to scalar; within one backend the reduction
/// order is fixed, so results are deterministic.
pub fn softmax_strip(isa: Isa, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "softmax_strip: length mismatch");
    match sanitize(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { softmax_strip_sse2(src, dst) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { softmax_strip_avx2(src, dst) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => unsafe { softmax_strip_neon(src, dst) },
        _ => softmax_strip_scalar(src, dst),
    }
}

#[inline(always)]
#[allow(clippy::many_single_char_names)]
unsafe fn layer_norm_strip_v<S: SimdF32>(
    src: &[f32],
    g: &[f32],
    b: &[f32],
    eps: f32,
    dst: &mut [f32],
) {
    let n = src.len();
    let mut i = 0;
    let mut vs = S::zero();
    while i + S::LANES <= n {
        vs = vs.add(S::load(&src[i..]));
        i += S::LANES;
    }
    let mut sum = vs.reduce_add();
    for &x in &src[i..] {
        sum += x;
    }
    let mean = sum / n as f32;
    let vmean = S::splat(mean);
    let mut i = 0;
    let mut vv = S::zero();
    while i + S::LANES <= n {
        let d = S::load(&src[i..]).sub(vmean);
        vv = vv.add(d.mul(d));
        i += S::LANES;
    }
    let mut varsum = vv.reduce_add();
    for &x in &src[i..] {
        let d = x - mean;
        varsum += d * d;
    }
    let var = varsum / n as f32;
    let inv = 1.0 / (var + eps).sqrt();
    let vinv = S::splat(inv);
    let mut i = 0;
    while i + S::LANES <= n {
        let y = S::load(&src[i..])
            .sub(vmean)
            .mul(vinv)
            .mul(S::load(&g[i..]))
            .add(S::load(&b[i..]));
        y.store(&mut dst[i..]);
        i += S::LANES;
    }
    if i < n {
        let y = S::load_tail(&src[i..])
            .sub(vmean)
            .mul(vinv)
            .mul(S::load_tail(&g[i..]))
            .add(S::load_tail(&b[i..]));
        y.store_tail(&mut dst[i..]);
    }
}

/// Scalar reference: byte-for-byte the pre-SIMD layer_norm strip.
fn layer_norm_strip_scalar(src: &[f32], g: &[f32], b: &[f32], eps: f32, dst: &mut [f32]) {
    let len = src.len();
    let mean: f32 = src.iter().sum::<f32>() / len as f32;
    let var: f32 = src.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / len as f32;
    let inv = 1.0 / (var + eps).sqrt();
    for i in 0..len {
        dst[i] = (src[i] - mean) * inv * g[i] + b[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn layer_norm_strip_sse2(src: &[f32], g: &[f32], b: &[f32], eps: f32, dst: &mut [f32]) {
    layer_norm_strip_v::<crate::x86::F32x4>(src, g, b, eps, dst)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn layer_norm_strip_avx2(src: &[f32], g: &[f32], b: &[f32], eps: f32, dst: &mut [f32]) {
    layer_norm_strip_v::<crate::x86::F32x8>(src, g, b, eps, dst)
}

#[cfg(target_arch = "aarch64")]
unsafe fn layer_norm_strip_neon(src: &[f32], g: &[f32], b: &[f32], eps: f32, dst: &mut [f32]) {
    layer_norm_strip_v::<crate::neon::F32x4n>(src, g, b, eps, dst)
}

/// Layer normalization over one strip:
/// `dst = (src − mean)/sqrt(var + eps) · g + b`.
///
/// Same determinism story as [`softmax_strip`].
pub fn layer_norm_strip(isa: Isa, src: &[f32], g: &[f32], b: &[f32], eps: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "layer_norm_strip: length mismatch");
    assert_eq!(src.len(), g.len(), "layer_norm_strip: gamma mismatch");
    assert_eq!(src.len(), b.len(), "layer_norm_strip: beta mismatch");
    match sanitize(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { layer_norm_strip_sse2(src, g, b, eps, dst) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { layer_norm_strip_avx2(src, g, b, eps, dst) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => unsafe { layer_norm_strip_neon(src, g, b, eps, dst) },
        _ => layer_norm_strip_scalar(src, g, b, eps, dst),
    }
}

/// Run one op through a specific backend's *vector* kernel, scalar-width.
///
/// Test/bench hook: lets the differential harness evaluate the
/// polynomial kernels themselves (monomorphized over [`ScalarF32`], so it
/// runs everywhere) next to each hardware backend.
pub fn unary_poly_reference(op: UnaryOp, x: f32) -> f32 {
    if !op.vectorizable() {
        return op.apply_scalar(x);
    }
    // SAFETY: the scalar backend is always available.
    unsafe {
        let mut out = [x];
        let v = apply_op_v::<ScalarF32>(op, ScalarF32(x));
        v.store(&mut out);
        out[0]
    }
}

/// The exact per-lane scalar function `unary_slice(isa, op, …)` computes
/// under a given backend.
///
/// Lanes are independent in every vector kernel, so each backend's op *is*
/// a scalar function; this evaluates it one element at a time:
///
/// * `Scalar` → the libm reference ([`UnaryOp::apply_scalar`]);
/// * FMA backends (AVX2, NEON) → the polynomial kernels over a fused
///   scalar lane ([`ScalarF32`] — hardware FMA and `f32::mul_add` are
///   both correctly rounded, so the lanes agree bitwise);
/// * `Sse2` → the same polynomials over [`crate::ScalarNoFmaF32`], whose
///   `mul_add` takes two roundings exactly like SSE2's mul+add pair.
///
/// `vecmath_props` pins [`unary_slice`] to this bit for bit: an element's
/// result depends only on its value, never on its position in the slice,
/// so codegen's fused strip evaluator may cut a tensor into strips of any
/// width without moving a bit.
pub fn unary_scalar_lane(isa: Isa, op: UnaryOp, x: f32) -> f32 {
    if !op.vectorizable() {
        return op.apply_scalar(x);
    }
    match sanitize(isa) {
        Isa::Scalar => op.apply_scalar(x),
        // SAFETY: both lane types are plain scalar Rust, always available.
        Isa::Sse2 => unsafe {
            let mut out = [x];
            apply_op_v::<crate::ScalarNoFmaF32>(op, crate::ScalarNoFmaF32(x)).store(&mut out);
            out[0]
        },
        Isa::Avx2 | Isa::Neon => unary_poly_reference(op, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_isa_is_bitwise_reference() {
        let inputs = [-3.5f32, -0.0, 0.0, 0.7, 2.0, 88.0, -90.0];
        for op in [
            UnaryOp::Tanh,
            UnaryOp::Sigmoid,
            UnaryOp::Exp,
            UnaryOp::Gelu,
            UnaryOp::Relu,
            UnaryOp::Sqrt,
            UnaryOp::Neg,
        ] {
            let mut data = inputs;
            unary_slice(Isa::Scalar, op, &mut data);
            for (i, (&got, &x)) in data.iter().zip(inputs.iter()).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    op.apply_scalar(x).to_bits(),
                    "{op:?} lane {i}"
                );
            }
        }
    }

    #[test]
    fn poly_reference_tracks_scalar() {
        // The scalar-width polynomial kernels satisfy the same contract
        // the hardware backends are held to.
        for op in [UnaryOp::Tanh, UnaryOp::Sigmoid, UnaryOp::Exp, UnaryOp::Gelu] {
            for i in -4000..4000 {
                let x = i as f32 * 0.025;
                let got = unary_poly_reference(op, x);
                let want = op.apply_scalar(x);
                assert!(
                    within_contract(op, got, want),
                    "{op:?}({x}) = {got} vs {want} ({} ulp)",
                    ulp_diff(got, want)
                );
            }
        }
    }

    #[test]
    fn poly_reference_edge_cases() {
        for op in [UnaryOp::Tanh, UnaryOp::Sigmoid, UnaryOp::Exp, UnaryOp::Gelu] {
            assert!(unary_poly_reference(op, f32::NAN).is_nan(), "{op:?}(NaN)");
        }
        assert_eq!(unary_poly_reference(UnaryOp::Tanh, 0.0).to_bits(), 0);
        assert_eq!(
            unary_poly_reference(UnaryOp::Tanh, -0.0).to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(unary_poly_reference(UnaryOp::Tanh, f32::INFINITY), 1.0);
        assert_eq!(unary_poly_reference(UnaryOp::Tanh, f32::NEG_INFINITY), -1.0);
        assert_eq!(
            unary_poly_reference(UnaryOp::Exp, f32::INFINITY),
            f32::INFINITY
        );
        assert_eq!(unary_poly_reference(UnaryOp::Exp, f32::NEG_INFINITY), 0.0);
        assert_eq!(unary_poly_reference(UnaryOp::Exp, 0.0), 1.0);
        assert_eq!(unary_poly_reference(UnaryOp::Sigmoid, 0.0), 0.5);
        assert_eq!(unary_poly_reference(UnaryOp::Sigmoid, f32::INFINITY), 1.0);
        assert_eq!(
            unary_poly_reference(UnaryOp::Sigmoid, f32::NEG_INFINITY),
            0.0
        );
    }

    #[test]
    fn ulp_diff_metric() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(f32::NAN, f32::NAN), 0);
        assert_eq!(ulp_diff(1.0, f32::NAN), u64::MAX);
        assert_eq!(ulp_diff(f32::INFINITY, f32::INFINITY), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 3)), 3);
        // Straddling zero: distance crosses the ±0 boundary.
        assert_eq!(ulp_diff(f32::from_bits(1), f32::from_bits(0x8000_0001)), 2);
    }

    #[test]
    fn epilogue_row_scalar_matches_manual_chain() {
        let bias = [0.5f32, -0.25, 0.0, 1.0, -1.0];
        let src = [0.1f32, -0.2, 0.3, -0.4, 0.5];
        let ops = [UnaryOp::Tanh, UnaryOp::Custom(|v| v * 2.0)];
        let mut got = src;
        epilogue_row(Isa::Scalar, &mut got, Some(&bias), &ops);
        // Opaque inputs: with constants, an optimized build folds `tanh` at
        // compile time, and the folded tanh(0.3) is one ULP from the
        // run-time libm result the kernel computes.
        let (src, bias) = (std::hint::black_box(src), std::hint::black_box(bias));
        for i in 0..src.len() {
            let want = (src[i] + bias[i]).tanh() * 2.0;
            assert_eq!(got[i].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn strip_kernels_scalar_match_reference_formulas() {
        let src: Vec<f32> = (0..13).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
        let mut dst = vec![0.0f32; src.len()];
        softmax_strip(Isa::Scalar, &src, &mut dst);
        let sum: f32 = dst.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);

        let g: Vec<f32> = (0..13).map(|i| 1.0 + i as f32 * 0.01).collect();
        let b: Vec<f32> = (0..13).map(|i| i as f32 * 0.1).collect();
        let mut ln = vec![0.0f32; src.len()];
        layer_norm_strip(Isa::Scalar, &src, &g, &b, 1e-5, &mut ln);
        let mean: f32 = src.iter().sum::<f32>() / 13.0;
        let var: f32 = src.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 13.0;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for i in 0..13 {
            let want = (src[i] - mean) * inv * g[i] + b[i];
            assert_eq!(ln[i].to_bits(), want.to_bits());
        }
    }
}
