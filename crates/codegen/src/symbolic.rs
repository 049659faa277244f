//! Symbolic codegen with residue-modulo kernel dispatch (Section 4.5).
//!
//! The problem: a dense kernel over a *symbolic* row count `m` (the dynamic
//! sequence length) cannot prove that its row-tiling loop bounds divide
//! evenly, so boundary checks survive in the hot loop and block unrolling.
//!
//! The paper's solution, reproduced here: pick a tiling factor (8), then
//! *duplicate* the kernel for each residue `r = m mod 8`, substituting
//! `m = 8·q + r` so the tail length is a compile-time constant in each
//! copy, and emit a **dispatch function** that selects the right copy from
//! the runtime shape. Rust's const generics play the role of TVM's
//! specialized codegen: `panel_const::<R>` has a compile-time trip count
//! (fully unrolled, no per-row branch) while the unspecialized
//! `panel_masked` keeps an `if row < m` predicate in the innermost loop.
//!
//! Generating fewer than 8 copies (`dispatch/4`, `dispatch/2`) leaves some
//! tail length dynamic and re-introduces branches; generating one copy
//! (`no dispatch`) predicates *every* row block. Figure 3 measures exactly
//! this spectrum.
//!
//! The weight side reads the same packed-panel layout as the blocked GEMM
//! in `nimble-tensor` ([`PackedB`]: `NR`-column, k-major panels), and
//! [`SymbolicDense`] obtains those panels from the process-wide pre-pack
//! cache — so every residue variant of a layer shares one packed copy of
//! its weights and symbolic dispatch pays no per-call layout cost. The
//! accumulation order per output element is strictly increasing `k`,
//! matching the blocked GEMM, so all dispatch levels (and the library
//! kernel on the Server profile) agree bitwise.

use nimble_tensor::kernels::gemm::{PackedB, PanelBlock, PanelSplit, NR};
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
    /// 4 copies — residue known up to a pair; one dynamic branch remains.
    Dispatch4,
    /// 2 copies — residue known up to a quad; two dynamic branches remain.
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
}

/// Row-tiling factor chosen by the tuner for the BERT dense layers ("the
/// auto-tuning algorithm chooses to tile the symbolic dimension … by a
/// factor of 8 in all three kernels"). Equals the GEMM microkernel's `MR`.
pub const TILE: usize = 8;

/// Compute `ROWS` output rows against the task's packed weight panels with
/// compile-time `ROWS`: the row loop fully unrolls and each packed weight
/// lane feeds `ROWS` accumulators, with no per-row branch.
#[inline]
fn panel_const<const ROWS: usize>(
    x: &[f32],
    pb: &PackedB,
    blk: &mut PanelBlock<'_>,
    row0: usize,
    bias: Option<&[f32]>,
) {
    if ROWS == 0 {
        return;
    }
    let (n, k) = (pb.n(), pb.k());
    for jp_idx in blk.panels() {
        let j0 = jp_idx * NR;
        let cols = NR.min(n - j0);
        let mut acc = [[0.0f32; NR]; ROWS];
        for block in 0..pb.k_blocks() {
            let k0 = pb.block_k0(block);
            let kc = pb.block_kc(block);
            let bp = pb.panel(block, jp_idx);
            for kk in 0..kc {
                let b = &bp[kk * NR..kk * NR + NR];
                for r in 0..ROWS {
                    let a = x[(row0 + r) * k + k0 + kk];
                    for c in 0..NR {
                        acc[r][c] += a * b[c];
                    }
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            write_row(blk, row0 + r, j0, &acc_row[..cols], bias);
        }
    }
}

/// The unspecialized panel: identical structure, but the row count is a
/// runtime value so a boundary predicate survives in the innermost loop —
/// the "boundary condition checks … leading to poor performance" of
/// Section 4.5.
#[inline]
fn panel_masked(
    x: &[f32],
    pb: &PackedB,
    m: usize,
    blk: &mut PanelBlock<'_>,
    row0: usize,
    bias: Option<&[f32]>,
) {
    let (n, k) = (pb.n(), pb.k());
    for jp_idx in blk.panels() {
        let j0 = jp_idx * NR;
        let cols = NR.min(n - j0);
        let mut acc = [[0.0f32; NR]; TILE];
        for block in 0..pb.k_blocks() {
            let k0 = pb.block_k0(block);
            let kc = pb.block_kc(block);
            let bp = pb.panel(block, jp_idx);
            for kk in 0..kc {
                let b = &bp[kk * NR..kk * NR + NR];
                for r in 0..TILE {
                    // The check the specialized copies eliminate:
                    if row0 + r < m {
                        let a = x[(row0 + r) * k + k0 + kk];
                        for c in 0..NR {
                            acc[r][c] += a * b[c];
                        }
                    }
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            if row0 + r < m {
                write_row(blk, row0 + r, j0, &acc_row[..cols], bias);
            }
        }
    }
}

/// Store one accumulator row (plus bias) into the task's output window.
#[inline(always)]
fn write_row(blk: &mut PanelBlock<'_>, row: usize, j0: usize, acc: &[f32], bias: Option<&[f32]>) {
    let orow = blk.out_row(row, j0, acc.len());
    for (c, (o, &v)) in orow.iter_mut().zip(acc).enumerate() {
        *o = match bias {
            Some(bs) => v + bs[j0 + c],
            None => v,
        };
    }
}

/// Run the compile-time tail for a constant residue.
fn tail_const(
    x: &[f32],
    pb: &PackedB,
    blk: &mut PanelBlock<'_>,
    row0: usize,
    r: usize,
    bias: Option<&[f32]>,
) {
    match r {
        0 => {}
        1 => panel_const::<1>(x, pb, blk, row0, bias),
        2 => panel_const::<2>(x, pb, blk, row0, bias),
        3 => panel_const::<3>(x, pb, blk, row0, bias),
        4 => panel_const::<4>(x, pb, blk, row0, bias),
        5 => panel_const::<5>(x, pb, blk, row0, bias),
        6 => panel_const::<6>(x, pb, blk, row0, bias),
        7 => panel_const::<7>(x, pb, blk, row0, bias),
        _ => unreachable!("residue < 8"),
    }
}

/// Dense `out[m,n] = x[m,k] · Bᵀ (+ bias)` over pre-packed weight panels
/// with the given dispatch level. The dispatch itself (the `match` on
/// `m % 8`) is what the paper's generated dispatch function performs before
/// jumping to the selected kernel copy.
///
/// Work is cut by the kernel library's [`PanelSplit`], like the blocked
/// GEMM: each task runs the selected copy — main 8-row blocks, then the
/// residue tail if the task holds the last rows — over its own panel range.
pub fn dense_symbolic_packed(
    x: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    level: DispatchLevel,
    bias: Option<&[f32]>,
) {
    let (n, k) = (pb.n(), pb.k());
    debug_assert_eq!(x.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    let profile = default_profile();
    // Strips of whole `TILE` blocks (`sanitized` rounds `tile_m` to `MR`).
    let sched = MatmulSchedule::for_profile(profile).sanitized();
    let r = m % TILE;
    PanelSplit::plan(profile, m, pb, sched.tile_m, sched.tile_n).run(out, |blk| {
        let rows = blk.rows();
        let tail0 = rows.start + rows.len() / TILE * TILE;
        // Only the strip that ends the matrix has a partial block.
        let r = if rows.end == m { r } else { 0 };
        // Unrolled main blocks of every specialized copy: no boundary checks.
        let main = |blk: &mut PanelBlock<'_>| {
            for b0 in (rows.start..tail0).step_by(TILE) {
                panel_const::<TILE>(x, pb, blk, b0, bias);
            }
        };
        match level {
            DispatchLevel::Static | DispatchLevel::Dispatch8 => {
                // Kernel copy for exact residue r: a fully-unrolled
                // constant tail.
                main(blk);
                tail_const(x, pb, blk, tail0, r, bias);
            }
            DispatchLevel::Dispatch4 => {
                // Copy selected by r / 2: the even part of the tail is a
                // compile-time constant, parity costs one dynamic branch.
                main(blk);
                let even = r & !1;
                tail_const(x, pb, blk, tail0, even, bias);
                if r & 1 == 1 {
                    panel_const::<1>(x, pb, blk, tail0 + even, bias);
                }
            }
            DispatchLevel::Dispatch2 => {
                // Copy selected by r / 4: two dynamic branches remain.
                main(blk);
                let quad = r & !3;
                tail_const(x, pb, blk, tail0, quad, bias);
                let mut row = tail0 + quad;
                if r & 2 == 2 {
                    panel_const::<2>(x, pb, blk, row, bias);
                    row += 2;
                }
                if r & 1 == 1 {
                    panel_const::<1>(x, pb, blk, row, bias);
                }
            }
            DispatchLevel::NoDispatch => {
                // The single symbolic kernel: the compiler cannot prove any
                // block is full, so every block runs predicated.
                for b0 in rows.clone().step_by(TILE) {
                    panel_masked(x, pb, m, blk, b0, bias);
                }
            }
        }
    });
}

/// Slice-level entry point: packs `wt` (`[n, k]`) transiently and runs
/// [`dense_symbolic_packed`]. Benchmarks and the kernel selector use this
/// when they only hold raw buffers; kernels with a weight *tensor* go
/// through [`SymbolicDense`], which shares the pre-pack cache.
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
