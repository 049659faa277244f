//! Symbolic codegen with residue-modulo kernel dispatch (Section 4.5).
//!
//! The problem: a dense kernel over a *symbolic* row count `m` (the dynamic
//! sequence length) cannot prove that its row-tiling loop bounds divide
//! evenly, so boundary checks survive in the hot loop and block unrolling.
//!
//! The paper's solution, reproduced here: pick a tiling factor (8, the
//! GEMM microkernel's `MR`: "the auto-tuning algorithm chooses to tile the
//! symbolic dimension … by a factor of 8"), then *duplicate* the kernel for
//! each residue `r = m mod 8`, substituting `m = 8·q + r` so the tail
//! length is a compile-time constant in each copy, and emit a **dispatch
//! function** that selects the right copy from the runtime shape. The
//! copies are the kernel library's own microkernel:
//! `nimble_tensor`'s `micro::<S, EDGE, R>` is const-generic in its row
//! count `R` (Rust's const generics play the role of TVM's specialized
//! codegen — every row loop unrolls), and one more instance takes its row
//! count as a runtime value, the predicated copy that keeps a boundary
//! check on every row.
//!
//! A [`DispatchLevel`] is the set of const-`R` copies generated
//! ([`DispatchLevel::row_instances`]). Generating fewer than 8
//! (`dispatch/4`, `dispatch/2`) leaves part of some tails to the runtime
//! copy; generating none (`no dispatch`) predicates *every* row block.
//! Figure 3 measures exactly this spectrum on the production kernel.
//!
//! The weight side is the blocked GEMM's packed-panel layout ([`PackedB`]),
//! and [`SymbolicDense`] obtains those panels from the process-wide
//! pre-pack cache — so every residue variant of a layer shares one packed
//! copy of its weights and symbolic dispatch pays no per-call layout cost.
//! Every copy reduces each output element in strictly increasing `k`, so
//! all dispatch levels and the library `dense` agree bitwise.

use nimble_tensor::kernels::gemm::{gemm_packed_dispatch, Epilogue, PackedB, ALL_ROWS};
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::pool::default_profile;
use nimble_tensor::{prepack, Result as TResult, Tensor, TensorError};
use std::sync::Arc;

/// How many residue-specialized kernel copies the dispatcher may select
/// from (the `dispatch/k` axis of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchLevel {
    /// Shape fully known at compile time (baseline).
    Static,
    /// 8 copies — one per residue; tails are compile-time constants.
    Dispatch8,
    /// 4 copies — residue known up to a pair; an odd row stays dynamic.
    Dispatch4,
    /// 2 copies — residue known up to a quad; up to 3 rows stay dynamic.
    Dispatch2,
    /// 1 copy — nothing known; every row block is predicated.
    NoDispatch,
}

impl DispatchLevel {
    /// Number of kernel copies this level generates.
    pub fn copies(self) -> usize {
        match self {
            DispatchLevel::Static => 1,
            DispatchLevel::Dispatch8 => 8,
            DispatchLevel::Dispatch4 => 4,
            DispatchLevel::Dispatch2 => 2,
            DispatchLevel::NoDispatch => 1,
        }
    }

    /// Label used in Figure 3.
    pub fn label(self) -> &'static str {
        match self {
            DispatchLevel::Static => "static",
            DispatchLevel::Dispatch8 => "dispatch/8",
            DispatchLevel::Dispatch4 => "dispatch/4",
            DispatchLevel::Dispatch2 => "dispatch/2",
            DispatchLevel::NoDispatch => "no dispatch",
        }
    }

    /// The const-row microkernel copies this level generates, as a
    /// [`gemm_packed_dispatch`] instance set (bit `R` = the `R`-row copy):
    /// every row count, the multiples of 2, the multiples of 4, or none.
    pub fn row_instances(self) -> u16 {
        match self {
            DispatchLevel::Static | DispatchLevel::Dispatch8 => ALL_ROWS,
            DispatchLevel::Dispatch4 => 0b1_0101_0100,
            DispatchLevel::Dispatch2 => 0b1_0001_0000,
            DispatchLevel::NoDispatch => 0,
        }
    }
}

/// Dense `out[m,n] = x[m,k] · Bᵀ (+ bias)` over pre-packed weight panels
/// with the given dispatch level: the library GEMM driver with its residue
/// dispatch restricted to the level's kernel copies, on the active ISA and
/// the default execution profile.
pub fn dense_symbolic_packed(
    x: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    level: DispatchLevel,
    bias: Option<&[f32]>,
) {
    let profile = default_profile();
    let sched = MatmulSchedule {
        tile_k: pb.tile_k(),
        ..MatmulSchedule::for_profile(profile)
    };
    gemm_packed_dispatch(
        nimble_simd::active(),
        level.row_instances(),
        profile,
        x,
        pb,
        m,
        out,
        sched,
        &Epilogue { bias, unary: &[] },
    );
}

/// Slice-level entry point: packs `wt` (`[n, k]`) transiently and runs
/// [`dense_symbolic_packed`]. Examples use this when they only hold raw
/// buffers; kernels with a weight *tensor* go through [`SymbolicDense`],
/// which shares the pre-pack cache.
pub fn dense_symbolic(
    x: &[f32],
    wt: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
    level: DispatchLevel,
) {
    debug_assert_eq!(wt.len(), n * k);
    let tile_k = MatmulSchedule::for_profile(default_profile())
        .sanitized()
        .tile_k;
    let pb = PackedB::pack_bt(wt, n, k, tile_k);
    dense_symbolic_packed(x, &pb, m, out, level, None);
}

/// A symbolic dense operator: weights captured (and pre-packed) at compile
/// time, rows dynamic, dispatch level fixed by codegen configuration.
#[derive(Debug, Clone)]
pub struct SymbolicDense {
    /// Weight matrix stored `[n, k]` (pre-transposed); retained so the
    /// packed panels stay pinned in the process-wide cache.
    weight: Tensor,
    /// Panels shared through `nimble_tensor::prepack` with every other
    /// residue variant / session using the same weight buffer.
    packed: Arc<PackedB>,
    /// Optional bias `[n]`.
    bias: Option<Tensor>,
    level: DispatchLevel,
}

impl SymbolicDense {
    /// Build from weights (shape `[n, k]`) and optional bias.
    ///
    /// # Errors
    /// Fails when the weight is not a rank-2 f32 tensor or the bias does
    /// not match.
    pub fn new(weight: Tensor, bias: Option<Tensor>, level: DispatchLevel) -> TResult<Self> {
        if weight.rank() != 2 {
            return Err(TensorError::invalid("SymbolicDense: weight must be [n, k]"));
        }
        let (n, k) = (weight.dims()[0], weight.dims()[1]);
        if let Some(b) = &bias {
            if b.dims() != [n] {
                return Err(TensorError::shape("SymbolicDense bias", &[n], b.dims()));
            }
            b.as_f32()?;
        }
        let tile_k = MatmulSchedule::for_profile(default_profile())
            .sanitized()
            .tile_k;
        let packed = prepack::get_or_pack(&weight, n, k, tile_k)?;
        Ok(SymbolicDense {
            weight,
            packed,
            bias,
            level,
        })
    }

    /// The dispatch level this kernel set was generated with.
    pub fn level(&self) -> DispatchLevel {
        self.level
    }

    /// Execute on an input `[m, k]` (or `[…, k]`) with dynamic `m`.
    ///
    /// # Errors
    /// Fails on rank-0 input or contraction mismatch.
    pub fn run(&self, x: &Tensor) -> TResult<Tensor> {
        if x.rank() == 0 {
            return Err(TensorError::invalid("SymbolicDense: rank >= 1 required"));
        }
        let k = *x.dims().last().expect("rank >= 1");
        let (n, wk) = (self.weight.dims()[0], self.weight.dims()[1]);
        if k != wk {
            return Err(TensorError::shape(
                "SymbolicDense",
                x.dims(),
                self.weight.dims(),
            ));
        }
        let m: usize = x.dims()[..x.rank() - 1].iter().product();
        let mut out = vec![0.0f32; m * n];
        let bias = match &self.bias {
            Some(b) => Some(b.as_f32()?),
            None => None,
        };
        dense_symbolic_packed(x.as_f32()?, &self.packed, m, &mut out, self.level, bias);
        let mut shape = x.dims()[..x.rank() - 1].to_vec();
        shape.push(n);
        Tensor::from_vec_f32(out, &shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn reference(x: &[f32], wt: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += x[i * k + p] * wt[j * k + p];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    const ALL_LEVELS: [DispatchLevel; 5] = [
        DispatchLevel::Static,
        DispatchLevel::Dispatch8,
        DispatchLevel::Dispatch4,
        DispatchLevel::Dispatch2,
        DispatchLevel::NoDispatch,
    ];

    #[test]
    fn all_levels_agree_on_every_residue() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (n, k) = (6, 10);
        let wt: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for m in 1..=17 {
            let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want = reference(&x, &wt, m, n, k);
            for level in ALL_LEVELS {
                let mut out = vec![0.0f32; m * n];
                dense_symbolic(&x, &wt, m, n, k, &mut out, level);
                for (got, expect) in out.iter().zip(want.iter()) {
                    assert!(
                        (got - expect).abs() < 1e-4,
                        "level {level:?} m={m} mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn copies_counts() {
        assert_eq!(DispatchLevel::Dispatch8.copies(), 8);
        assert_eq!(DispatchLevel::Dispatch4.copies(), 4);
        assert_eq!(DispatchLevel::Dispatch2.copies(), 2);
        assert_eq!(DispatchLevel::NoDispatch.copies(), 1);
        assert_eq!(DispatchLevel::Dispatch8.label(), "dispatch/8");
    }

    #[test]
    fn symbolic_dense_with_bias() {
        let w = Tensor::from_vec_f32(vec![1., 0., 0., 1.], &[2, 2]).unwrap();
        let b = Tensor::from_vec_f32(vec![10., 20.], &[2]).unwrap();
        let d = SymbolicDense::new(w, Some(b), DispatchLevel::Dispatch8).unwrap();
        let x = Tensor::from_vec_f32(vec![1., 2., 3., 4., 5., 6.], &[3, 2]).unwrap();
        let y = d.run(&x).unwrap();
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(y.as_f32().unwrap(), &[11., 22., 13., 24., 15., 26.]);
    }

    #[test]
    fn symbolic_dense_validates() {
        let w = Tensor::ones_f32(&[2, 2]);
        let bad_bias = Tensor::ones_f32(&[3]);
        assert!(SymbolicDense::new(w.clone(), Some(bad_bias), DispatchLevel::Dispatch8).is_err());
        let d = SymbolicDense::new(w, None, DispatchLevel::Dispatch8).unwrap();
        let bad_x = Tensor::ones_f32(&[3, 5]);
        assert!(d.run(&bad_x).is_err());
    }

    #[test]
    fn handles_leading_batch_dims() {
        let w = Tensor::ones_f32(&[4, 3]);
        let d = SymbolicDense::new(w, None, DispatchLevel::Dispatch4).unwrap();
        let x = Tensor::ones_f32(&[2, 5, 3]);
        let y = d.run(&x).unwrap();
        assert_eq!(y.dims(), &[2, 5, 4]);
        assert!(y.as_f32().unwrap().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn residue_variants_share_one_packed_weight() {
        // All dispatch levels of the same weight must resolve to the same
        // cached pack: symbolic dispatch pays no per-variant layout cost.
        let w = Tensor::from_vec_f32((0..24).map(|i| i as f32 * 0.1).collect(), &[4, 6]).unwrap();
        let variants: Vec<SymbolicDense> = ALL_LEVELS
            .iter()
            .map(|&lvl| SymbolicDense::new(w.clone(), None, lvl).unwrap())
            .collect();
        for v in &variants[1..] {
            assert!(
                Arc::ptr_eq(&variants[0].packed, &v.packed),
                "residue variants must share packed panels"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn dispatch_levels_equivalent(
            m in 1usize..33, n in 1usize..8, k in 1usize..12, seed in 0u64..64,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let wt: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut base = vec![0.0f32; m * n];
            dense_symbolic(&x, &wt, m, n, k, &mut base, DispatchLevel::Static);
            for level in [DispatchLevel::Dispatch4, DispatchLevel::Dispatch2, DispatchLevel::NoDispatch] {
                let mut out = vec![0.0f32; m * n];
                dense_symbolic(&x, &wt, m, n, k, &mut out, level);
                // Same packed layout + same k-order accumulation: bitwise.
                for (a, b) in base.iter().zip(out.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
