//! Blocked GEMM core: packed panels + register microkernel.
//!
//! This is the compute engine behind [`super::matmul`]'s `dense` / `matmul` /
//! `batch_matmul` and conv2d's im2col GEMM. The structure is the classic
//! BLIS/rten decomposition:
//!
//! * **B packing** ([`PackedB`]): the right-hand side is repacked once into
//!   `NR`-column panels, k-major inside each panel, grouped into `tile_k`
//!   reduction blocks. A microkernel pass then reads B strictly
//!   sequentially — no `n`- or `k`-strided loads in the hot loop. Column
//!   tails are zero-padded to `NR` so the microkernel never branches on
//!   width.
//! * **A packing**: each `tile_m` strip of A is repacked on the fly into
//!   `MR`-row panels (k-major, same `tile_k` blocking), so the microkernel
//!   reads both operands as contiguous streams. The strip's last panel
//!   holds exactly `rows mod MR` rows — no zero rows. The pack buffer is a
//!   per-thread scratch reused across calls.
//! * **Work decomposition** ([`PanelSplit`]): one rule cuts `out[m, n]` into
//!   row strips × groups of `NR`-column panels. Enough row strips for every
//!   participant: rows only. Fewer (short `m`): whole `tile_n` column
//!   blocks as well, with A packed once and shared read-only.
//! * **Microkernel**: one body, `micro::<S, EDGE, R>` — an `R×NR` register
//!   accumulator tile, `R ∈ 1..=MR` fixed at compile time (the loops
//!   unroll) plus one instance whose row count is a runtime value. It is
//!   width-generic over [`nimble_simd::SimdF32`] and monomorphized per ISA
//!   behind `#[target_feature]` wrappers (AVX2+FMA / SSE2 / NEON, with
//!   [`nimble_simd::ScalarF32`] as the always-available scalar backend).
//!   The Server variant keeps independent `acc += a*b` lanes (explicit
//!   mul-then-add, never FMA — fusing would change the rounding); the Edge
//!   variant is a strictly in-order `mul_add` dependence chain modelling a
//!   low-power core, vectorized only on backends with a true fused
//!   multiply-add (`f32::mul_add` and hardware FMA are both correctly
//!   rounded, so the scalar and vector Edge kernels agree bitwise; SSE2 has
//!   no FMA and takes the scalar Edge path).
//! * **Residue dispatch** (paper §4.5, [`gemm_packed_dispatch`]): full
//!   `MR`-row blocks run the `R = MR` instance; the matrix's last block
//!   runs the instance for its exact row count. A caller may restrict the
//!   set of const-`R` instances (`nimble-codegen`'s `DispatchLevel`); rows
//!   no instance covers go through the runtime-row instance.
//!
//! **Determinism across schedules *and* backends**: the accumulator tile
//! stays register-resident across *all* `tile_k` blocks — the block loop is
//! inside the per-tile region, not outside it — so each output element is
//! reduced in strictly increasing `k` order no matter the schedule. SIMD
//! lanes map across the `NR` output columns, never across `k`, so each
//! element keeps its own accumulator chain and every backend produces
//! bitwise-identical results. Rows are independent too, so which row
//! instance computes a row never matters either. This is what lets the
//! tuner explore tile configs freely, the pre-pack cache share packed
//! weights across residue variants, and `NIMBLE_SIMD` switch ISAs without
//! changing a single bit of GEMM output.
//!
//! The epilogue (bias add + any fused trailing unary elementwise chain) is
//! applied in the single write-out pass through
//! [`nimble_simd::vecmath::epilogue_row`] — the same shared masked-tail row
//! primitive the elementwise kernels use — so fused `dense → activation`
//! chains touch the output exactly once.

use crate::pool::{parallel_for, participants, ExecProfile, SendPtr, OVERSUBSCRIBE};
use nimble_simd::{vecmath, Isa, ScalarF32, SimdF32};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;

pub use nimble_simd::vecmath::UnaryOp;

/// Microkernel register-tile rows.
pub const MR: usize = 8;
/// Microkernel register-tile columns (B panel width).
pub const NR: usize = 8;
/// Every const-row microkernel instance, `R = 1..=MR`, as a
/// [`gemm_packed_dispatch`] instance set (bit `R` = the `R`-row instance).
pub const ALL_ROWS: u16 = ((1 << (MR + 1)) - 1) & !1;

/// Output-pass fusion: bias add plus a chain of unary elementwise ops
/// applied while the accumulator tile is written out.
#[derive(Default)]
pub struct Epilogue<'a> {
    /// Per-output-column bias (`[n]`), added before the unary chain.
    pub bias: Option<&'a [f32]>,
    /// Unary ops applied in order after the bias add. Vectorizable ops ride
    /// the active ISA's vecmath kernels; [`UnaryOp::Custom`] chains fall
    /// back to the scalar reference path.
    pub unary: &'a [UnaryOp],
}

impl Epilogue<'_> {
    /// No bias, no unary chain.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        unary: &[],
    };
}

/// The right-hand side of a GEMM repacked into microkernel panels.
///
/// Layout: outer loop over `tile_k` reduction blocks, then `NR`-column
/// panels, then `k` within the block: `data[block][panel][kk][0..NR]`.
/// Blocks are laid out at a uniform stride (`n_panels * NR * tile_k`) so the
/// final ragged block simply leaves its tail unused. Column tails beyond `n`
/// are zero-padded.
pub struct PackedB {
    data: Vec<f32>,
    n: usize,
    k: usize,
    tile_k: usize,
    n_panels: usize,
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedB")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("tile_k", &self.tile_k)
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl PackedB {
    fn with_layout(n: usize, k: usize, tile_k: usize) -> PackedB {
        let tile_k = tile_k.max(1);
        let n_panels = n.div_ceil(NR);
        let k_blocks = k.div_ceil(tile_k);
        PackedB {
            data: vec![0.0; k_blocks * n_panels * NR * tile_k],
            n,
            k,
            tile_k,
            n_panels,
        }
    }

    /// Pack from a transposed-weight layout `bt: [n, k]` (the `dense`
    /// convention: `out[m,n] = Σ_k a[m,k] · bt[n,k]`).
    pub fn pack_bt(bt: &[f32], n: usize, k: usize, tile_k: usize) -> PackedB {
        assert_eq!(bt.len(), n * k, "pack_bt: bt must be [n, k]");
        let _s = nimble_obs::span_detail("gemm.pack_b", nimble_obs::Category::Pool, (n * k) as u64);
        let mut p = Self::with_layout(n, k, tile_k);
        for block in 0..p.k_blocks() {
            let (k0, kc) = (p.block_k0(block), p.block_kc(block));
            for jp_idx in 0..p.n_panels {
                let j0 = jp_idx * NR;
                let cols = NR.min(n - j0);
                let dst = p.panel_range(block, jp_idx);
                let dst = &mut p.data[dst];
                for (c, col) in (j0..j0 + cols).enumerate() {
                    let src = &bt[col * k + k0..col * k + k0 + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * NR + c] = v;
                    }
                }
            }
        }
        p
    }

    /// Pack from a row-major layout `b: [k, n]` (the `matmul` convention:
    /// `out[m,n] = Σ_k a[m,k] · b[k,n]`).
    pub fn pack_kn(b: &[f32], k: usize, n: usize, tile_k: usize) -> PackedB {
        assert_eq!(b.len(), k * n, "pack_kn: b must be [k, n]");
        let _s = nimble_obs::span_detail("gemm.pack_b", nimble_obs::Category::Pool, (n * k) as u64);
        let mut p = Self::with_layout(n, k, tile_k);
        for block in 0..p.k_blocks() {
            let (k0, kc) = (p.block_k0(block), p.block_kc(block));
            for jp_idx in 0..p.n_panels {
                let j0 = jp_idx * NR;
                let cols = NR.min(n - j0);
                let dst = p.panel_range(block, jp_idx);
                let dst = &mut p.data[dst];
                for kk in 0..kc {
                    let src = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + cols];
                    dst[kk * NR..kk * NR + cols].copy_from_slice(src);
                }
            }
        }
        p
    }

    /// Output columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Reduction block size the panels were packed with.
    pub fn tile_k(&self) -> usize {
        self.tile_k
    }

    /// Number of `NR`-column panels per block.
    pub fn n_panels(&self) -> usize {
        self.n_panels
    }

    /// Number of `tile_k` reduction blocks.
    pub fn k_blocks(&self) -> usize {
        self.k.div_ceil(self.tile_k)
    }

    /// First `k` index of a block.
    pub fn block_k0(&self, block: usize) -> usize {
        block * self.tile_k
    }

    /// Reduction length of a block (the last block may be ragged).
    pub fn block_kc(&self, block: usize) -> usize {
        self.tile_k.min(self.k - block * self.tile_k)
    }

    fn panel_range(&self, block: usize, jp_idx: usize) -> std::ops::Range<usize> {
        let kc = self.block_kc(block);
        let start = block * self.n_panels * NR * self.tile_k + jp_idx * NR * kc;
        start..start + NR * kc
    }

    /// The `[kc × NR]` k-major panel for `(block, panel)`.
    #[inline]
    pub fn panel(&self, block: usize, jp_idx: usize) -> &[f32] {
        &self.data[self.panel_range(block, jp_idx)]
    }

    /// Bytes held by the packed buffer (cache accounting).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// The work decomposition of `out[m, n] = x[m, k] · Wᵀ` over packed
/// `NR`-column panels, shared by every dense driver.
///
/// The output is a grid of `row_step`-row strips × groups of `panel_step`
/// panels; one grid cell is one task ([`PanelBlock`]). The cut is chosen
/// from the shape and the participant count alone
/// ([`PanelSplit::column_groups`]):
///
/// * one participant (Edge profile, one core, or less work than the pool's
///   threshold): strips only, run in order on the caller;
/// * at least as many strips as participants: strips only — each task
///   streams all of B once, rows are independent;
/// * fewer strips (short `m`): every strip is also cut into column groups
///   of whole `tile_n` blocks, about [`OVERSUBSCRIBE`] tasks per
///   participant. B is still streamed exactly once in total, and the rows
///   every task re-reads are few enough to stay cache-resident.
///
/// Every output element keeps its single accumulator and ascending-`k`
/// order under any cut, so results never depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelSplit {
    profile: ExecProfile,
    m: usize,
    n: usize,
    n_panels: usize,
    /// Flop estimate of the whole product, for the pool's threshold.
    work: usize,
    row_step: usize,
    panel_step: usize,
}

impl PanelSplit {
    /// Cut `out[m, pb.n()]` for `profile` right now: strips of `row_step`
    /// rows (rounded up by the caller to whatever its kernel needs) and
    /// column blocks of `tile_n` columns (rounded up to whole panels).
    pub fn plan(
        profile: ExecProfile,
        m: usize,
        pb: &PackedB,
        row_step: usize,
        tile_n: usize,
    ) -> PanelSplit {
        let work = (2 * pb.k().max(1)).saturating_mul(m * pb.n());
        let row_step = row_step.max(1);
        let block_panels = tile_n.max(1).div_ceil(NR);
        let blocks = pb.n_panels().div_ceil(block_panels);
        let groups = Self::column_groups(m.div_ceil(row_step), blocks, participants(profile, work));
        PanelSplit {
            profile,
            m,
            n: pb.n(),
            n_panels: pb.n_panels(),
            work,
            row_step,
            // At least one panel per group, so an empty `n` is zero tasks.
            panel_step: blocks.div_ceil(groups).max(1) * block_panels,
        }
    }

    /// The rule itself: into how many column groups each of `strips` row
    /// strips is cut, when the columns come in `blocks` whole `tile_n`
    /// blocks.
    pub fn column_groups(strips: usize, blocks: usize, participants: usize) -> usize {
        if participants <= 1 || strips >= participants {
            1
        } else {
            (participants * OVERSUBSCRIBE)
                .div_ceil(strips.max(1))
                .clamp(1, blocks.max(1))
        }
    }

    fn strips(&self) -> usize {
        self.m.div_ceil(self.row_step)
    }

    fn groups(&self) -> usize {
        self.n_panels.div_ceil(self.panel_step)
    }

    /// Number of tasks the output is cut into.
    pub fn tasks(&self) -> usize {
        self.strips() * self.groups()
    }

    /// Whether several tasks read the same rows of `x` (the column cut):
    /// worth preparing those rows once, before [`PanelSplit::run`].
    pub fn shares_rows(&self) -> bool {
        self.groups() > 1
    }

    /// Run `f` once per task, across the worker pool when the product is
    /// large enough. Tasks of one strip are adjacent in claim order.
    pub fn run<F>(&self, out: &mut [f32], f: F)
    where
        F: Fn(&mut PanelBlock<'_>) + Sync,
    {
        assert_eq!(
            out.len(),
            self.m * self.n,
            "PanelSplit::run: out must be [m, n]"
        );
        let tasks = self.tasks();
        if tasks == 0 {
            return;
        }
        let groups = self.groups();
        let base = SendPtr(out.as_mut_ptr());
        parallel_for(self.profile, tasks, self.work.div_ceil(tasks), |t0, t1| {
            for t in t0..t1 {
                let (strip, group) = (t / groups, t % groups);
                let row0 = strip * self.row_step;
                let panel0 = group * self.panel_step;
                f(&mut PanelBlock {
                    rows: row0..(row0 + self.row_step).min(self.m),
                    panels: panel0..(panel0 + self.panel_step).min(self.n_panels),
                    n: self.n,
                    out: SendPtr(base.get()),
                    _out: PhantomData,
                });
            }
        });
    }
}

/// One task of a [`PanelSplit`]: the output rows and packed-B panels to
/// compute, and write access to exactly that window of `out`.
pub struct PanelBlock<'a> {
    // Private: the window is what makes `out_row` sound.
    rows: Range<usize>,
    panels: Range<usize>,
    n: usize,
    out: SendPtr<f32>,
    _out: PhantomData<&'a mut [f32]>,
}

impl PanelBlock<'_> {
    /// Output rows of this task.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Packed-B panel indices of this task (columns `panels().start * NR ..`).
    pub fn panels(&self) -> Range<usize> {
        self.panels.clone()
    }

    /// `len` output elements of `row`, starting at column `col`.
    ///
    /// # Panics
    /// Panics when the segment leaves this task's window.
    #[inline]
    pub fn out_row(&mut self, row: usize, col: usize, len: usize) -> &mut [f32] {
        assert!(
            self.rows.contains(&row)
                && col >= self.panels.start * NR
                && col + len <= (self.panels.end * NR).min(self.n),
            "PanelBlock::out_row: segment outside the task's window"
        );
        // SAFETY: `PanelSplit::run` hands every task a distinct grid cell,
        // so the windows (rows × panel columns, checked above) of two live
        // `PanelBlock`s never overlap; `out` is `[m, n]` (asserted in `run`)
        // and outlives the task because `parallel_for` blocks until every
        // chunk completes. `&mut self` keeps segments of one task exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.out.get().add(row * self.n + col), len) }
    }
}

thread_local! {
    /// Per-thread A-pack scratch, reused across GEMM calls; grows to the
    /// largest strip the thread has packed.
    static A_PACK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Borrow this thread's A-pack scratch. Taken out of the slot for the
/// duration, so a re-entrant call finds an empty buffer instead of aliasing.
fn with_a_pack<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut buf = A_PACK.take();
    let r = f(&mut buf);
    A_PACK.set(buf);
    r
}

/// Pack a `rows`-row strip of `a: [m, k]` into k-major row panels with the
/// same `tile_k` blocking as [`PackedB`]: `MR` rows per panel, the last
/// panel exactly as many rows as remain (no zero padding).
///
/// Layout mirrors PackedB with rows in place of columns:
/// `buf[block][row_panel][kk][0..panel_rows]`, uniform block stride
/// `rows * tile_k`; the panel holding strip row `r0` (a multiple of `MR`)
/// starts `r0 * kc` into its block.
fn pack_a_strip(a: &[f32], k: usize, row0: usize, rows: usize, tile_k: usize, buf: &mut Vec<f32>) {
    let tile_k = tile_k.max(1);
    let k_blocks = k.div_ceil(tile_k);
    buf.clear();
    buf.resize(k_blocks * rows * tile_k, 0.0);
    for block in 0..k_blocks {
        let k0 = block * tile_k;
        let kc = tile_k.min(k - k0);
        for r0 in (0..rows).step_by(MR) {
            let rcount = MR.min(rows - r0);
            let start = block * rows * tile_k + r0 * kc;
            let dst = &mut buf[start..start + rcount * kc];
            for r in 0..rcount {
                let src = &a[(row0 + r0 + r) * k + k0..][..kc];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * rcount + r] = v;
                }
            }
        }
    }
}

/// One register tile's rows of a packed A strip: strip rows
/// `row0..row0 + rows` (`row0` a multiple of `MR`), as [`pack_a_strip`]
/// laid them out with block stride `block_stride`.
#[derive(Clone, Copy)]
struct ATile<'a> {
    pack: &'a [f32],
    block_stride: usize,
    row0: usize,
    rows: usize,
}

impl ATile<'_> {
    /// The tile's `[kc][rows]` k-major panel in reduction block `block`.
    #[inline(always)]
    fn block(&self, block: usize, kc: usize) -> &[f32] {
        &self.pack[block * self.block_stride + self.row0 * kc..][..self.rows * kc]
    }
}

/// The microkernel: `R` rows × `NR` columns over all of `k`,
/// `acc[r][c] = Σ_k a[skip + r][k] · b[k][c]` in ascending `k` with the
/// accumulators register-resident across every `tile_k` block. `R` is the
/// row count fixed at compile time, so every row loop unrolls; `R = 0` is
/// the one instance whose row count is the runtime value `rows` — the
/// predicated copy of paper §4.5.
///
/// `S::LANES` of the `NR` accumulator columns share a vector register;
/// lanes never cross `k`, so each element keeps one accumulator chain.
/// Server (`EDGE = false`) multiplies then adds, never FMA; Edge is a
/// `mul_add` chain and is only instantiated for `S::HAS_FMA` backends,
/// where hardware FMA and `f32::mul_add` are both correctly rounded.
///
/// # Safety
/// `S`'s instruction set must be available on the executing CPU (call it
/// from the matching `#[target_feature]` wrapper). The row window is
/// checked here.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn micro<S: SimdF32, const EDGE: bool, const R: usize>(
    rows: usize,
    skip: usize,
    a: ATile<'_>,
    pb: &PackedB,
    jp_idx: usize,
    acc: &mut [[f32; NR]],
) {
    debug_assert!(!EDGE || S::HAS_FMA);
    let rows = if R == 0 { rows } else { R };
    // A full block is only ever `MR` rows of an `MR`-wide panel; saying so
    // makes its A stride a constant.
    assert!(skip + rows <= a.rows && (R != MR || a.rows == MR));
    let lda = if R == MR { MR } else { a.rows };
    let nch = NR / S::LANES;
    let mut vacc = [[S::zero(); NR]; MR];
    for block in 0..pb.k_blocks() {
        let kc = pb.block_kc(block);
        let ap = a.block(block, kc).as_ptr().add(skip);
        let bp = pb.panel(block, jp_idx).as_ptr();
        // SAFETY: `a.block` is `[kc][a.rows]` (a checked slice) and the
        // assert above keeps `skip + rows <= a.rows` with `lda == a.rows`;
        // `PackedB::panel` is `[kc][NR]`. Unchecked access keeps bounds
        // checks out of the innermost loop.
        for kk in 0..kc {
            let bbase = bp.add(kk * NR);
            let abase = ap.add(kk * lda);
            let mut vb = [S::zero(); NR];
            for c in 0..nch {
                vb[c] = S::load(core::slice::from_raw_parts(
                    bbase.add(c * S::LANES),
                    S::LANES,
                ));
            }
            for r in 0..rows {
                let av = S::splat(*abase.add(r));
                for c in 0..nch {
                    vacc[r][c] = if EDGE {
                        av.mul_add(vb[c], vacc[r][c])
                    } else {
                        vacc[r][c].add(av.mul(vb[c]))
                    };
                }
            }
        }
    }
    for r in 0..rows {
        for c in 0..nch {
            vacc[r][c].store(&mut acc[r][c * S::LANES..]);
        }
    }
}

/// One register tile — the residue dispatch function. The largest
/// `R <= a.rows` in `instances` (bit `R` set) runs its const instance;
/// whatever rows remain run the runtime-row instance.
///
/// # Safety
/// As for [`micro`]: `S`'s instruction set must be available.
#[inline(always)]
unsafe fn tile<S: SimdF32, const EDGE: bool>(
    instances: u16,
    a: ATile<'_>,
    pb: &PackedB,
    jp_idx: usize,
    acc: &mut [[f32; NR]; MR],
) {
    let rows = a.rows;
    debug_assert!((1..=MR).contains(&rows));
    let fits = instances & ALL_ROWS & ((2 << rows) - 1);
    let fixed = (u16::BITS - fits.leading_zeros()).saturating_sub(1) as usize;
    match fixed {
        0 => {}
        1 => micro::<S, EDGE, 1>(1, 0, a, pb, jp_idx, acc),
        2 => micro::<S, EDGE, 2>(2, 0, a, pb, jp_idx, acc),
        3 => micro::<S, EDGE, 3>(3, 0, a, pb, jp_idx, acc),
        4 => micro::<S, EDGE, 4>(4, 0, a, pb, jp_idx, acc),
        5 => micro::<S, EDGE, 5>(5, 0, a, pb, jp_idx, acc),
        6 => micro::<S, EDGE, 6>(6, 0, a, pb, jp_idx, acc),
        7 => micro::<S, EDGE, 7>(7, 0, a, pb, jp_idx, acc),
        _ => micro::<S, EDGE, MR>(MR, 0, a, pb, jp_idx, acc),
    }
    if fixed < rows {
        micro::<S, EDGE, 0>(rows - fixed, fixed, a, pb, jp_idx, &mut acc[fixed..]);
    }
}

/// Per-tile signature: `(instances, a, pb, jp_idx, acc)`.
type TileFn = unsafe fn(u16, ATile<'_>, &PackedB, usize, &mut [[f32; NR]; MR]);

#[cfg(target_arch = "x86_64")]
mod micro_x86 {
    use super::*;
    use nimble_simd::x86::{F32x4, F32x8};

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn tile_sse2(
        instances: u16,
        a: ATile<'_>,
        pb: &PackedB,
        jp_idx: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        tile::<F32x4, false>(instances, a, pb, jp_idx, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile_avx2<const EDGE: bool>(
        instances: u16,
        a: ATile<'_>,
        pb: &PackedB,
        jp_idx: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        tile::<F32x8, EDGE>(instances, a, pb, jp_idx, acc)
    }
}

#[cfg(target_arch = "aarch64")]
mod micro_neon {
    use super::*;
    use nimble_simd::neon::F32x4n;

    pub(super) unsafe fn tile_neon<const EDGE: bool>(
        instances: u16,
        a: ATile<'_>,
        pb: &PackedB,
        jp_idx: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        tile::<F32x4n, EDGE>(instances, a, pb, jp_idx, acc)
    }
}

/// Pick the tile function for an (ISA, profile) pair. The Edge profile
/// needs a true fused multiply-add to match `f32::mul_add` bitwise, so
/// SSE2 (no FMA) takes the scalar Edge chain.
fn select_tile(isa: Isa, edge: bool) -> TileFn {
    match (isa, edge) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Sse2, false) => micro_x86::tile_sse2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => micro_x86::tile_avx2::<false>,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => micro_x86::tile_avx2::<true>,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, false) => micro_neon::tile_neon::<false>,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, true) => micro_neon::tile_neon::<true>,
        (_, false) => tile::<ScalarF32, false>,
        (_, true) => tile::<ScalarF32, true>,
    }
}

/// Validate a caller-supplied ISA against the CPU (scalar fallback).
fn sanitize_isa(isa: Isa) -> Isa {
    if isa.is_available() {
        isa
    } else {
        Isa::Scalar
    }
}

/// Store one accumulator row into the task's output window and apply the
/// epilogue through the shared [`vecmath::epilogue_row`] primitive; `acc`
/// is already cut to the (possibly ragged) column count.
#[inline]
fn store_row(
    isa: Isa,
    blk: &mut PanelBlock<'_>,
    row: usize,
    col0: usize,
    acc: &[f32],
    ep: &Epilogue,
) {
    let orow = blk.out_row(row, col0, acc.len());
    orow.copy_from_slice(acc);
    let bias = ep.bias.map(|b| &b[col0..col0 + acc.len()]);
    vecmath::epilogue_row(isa, orow, bias, ep.unary);
}

/// Blocked GEMM over a pre-packed right-hand side:
/// `out[m, n] = epilogue(Σ_k a[m, k] · B[k, n])`.
///
/// `a` is row-major `[m, k]` with `k == pb.k()`; `out` is `[m, pb.n()]`.
/// `sched.tile_k` must match `pb.tile_k()` (the panel layout bakes it in);
/// `tile_m`/`tile_n` are rounded up to `MR`/`NR` multiples. The output is
/// cut by [`PanelSplit`] into `tile_m` strips and, when `m` is too short to
/// give every participant a strip, `tile_n` column blocks. A strip task
/// packs its own A panel; under the column cut A is packed once and shared
/// read-only. Tasks write disjoint windows and never share mutable state,
/// so results are deterministic regardless of thread interleaving.
pub fn gemm_packed(
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    gemm_packed_with_isa(nimble_simd::active(), profile, a, pb, m, out, sched, ep)
}

/// [`gemm_packed`] pinned to an explicit ISA (bitwise identical on every
/// backend). Test/bench entry point — avoids the process-global ISA state
/// so parallel tests can exercise backends independently.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_with_isa(
    isa: Isa,
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    gemm_packed_dispatch(isa, ALL_ROWS, profile, a, pb, m, out, sched, ep)
}

/// [`gemm_packed_with_isa`] with the residue dispatch restricted to the
/// const-row microkernel instances in `instances` (bit `R` set = the
/// `R`-row instance exists; [`ALL_ROWS`] is every one). Each register
/// tile of `rows` rows runs the largest instance `R <= rows`, and the
/// runtime-row instance takes the remaining `rows - R` rows — so `0` sends
/// every block, full ones included, through the runtime-row instance.
/// The instance set never changes a bit of output.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_dispatch(
    isa: Isa,
    instances: u16,
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    let isa = sanitize_isa(isa);
    let (n, k) = (pb.n(), pb.k());
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    assert_eq!(
        sched.tile_k.max(1),
        pb.tile_k(),
        "gemm_packed: schedule tile_k must match the packed layout"
    );
    if m == 0 || n == 0 {
        return;
    }
    let tile_m = sched.tile_m.max(1).div_ceil(MR) * MR;
    let tile_k = pb.tile_k();
    let tile_fn = select_tile(isa, matches!(profile, ExecProfile::Edge));
    let _s = nimble_obs::span_full("gemm.compute", nimble_obs::Category::Pool, (m * n) as u64);
    let pack = |row0: usize, rows: usize, apack: &mut Vec<f32>| {
        let _p = nimble_obs::span_detail("gemm.pack_a", nimble_obs::Category::Pool, row0 as u64);
        pack_a_strip(a, k, row0, rows, tile_k, apack);
    };
    // `apack` holds rows `pack_row0..pack_row0 + pack_rows`; the task's
    // strip starts on an `MR` boundary of it (`tile_m` is a multiple).
    let compute = |apack: &[f32], pack_row0: usize, pack_rows: usize, blk: &mut PanelBlock<'_>| {
        let _mk = nimble_obs::span_detail(
            "gemm.microkernel",
            nimble_obs::Category::Pool,
            blk.rows().start as u64,
        );
        let rows = blk.rows();
        for jp_idx in blk.panels() {
            let j0 = jp_idx * NR;
            let cols = NR.min(n - j0);
            for r0 in rows.clone().step_by(MR) {
                let a = ATile {
                    pack: apack,
                    block_stride: pack_rows * tile_k,
                    row0: r0 - pack_row0,
                    rows: MR.min(rows.end - r0),
                };
                // The block loop lives *inside* the tile: acc stays
                // register-resident across all of k, making results
                // bitwise-independent of the schedule.
                let mut acc = [[0.0f32; NR]; MR];
                // SAFETY: `tile_fn` was selected for an ISA that
                // `sanitize_isa` verified is available.
                unsafe { tile_fn(instances, a, pb, jp_idx, &mut acc) };
                for (r, acc_row) in acc.iter().enumerate().take(a.rows) {
                    store_row(isa, blk, r0 + r, j0, &acc_row[..cols], ep);
                }
            }
        }
    };
    let split = PanelSplit::plan(profile, m, pb, tile_m, sched.tile_n);
    if m == 1 {
        // One row packs to itself: block `b` of the strip is `a[b * tile_k..]`.
        split.run(out, |blk| compute(a, 0, 1, blk));
    } else if split.shares_rows() {
        with_a_pack(|apack| {
            pack(0, m, apack);
            let apack = &apack[..];
            split.run(out, |blk| compute(apack, 0, m, blk));
        });
    } else {
        split.run(out, |blk| {
            with_a_pack(|apack| {
                let rows = blk.rows();
                pack(rows.start, rows.len(), apack);
                compute(apack, rows.start, rows.len(), blk);
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul::MatmulSchedule;

    fn naive_bt(a: &[f32], bt: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * bt[j * k + p];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 17) as f32 - 8.0) * scale).collect()
    }

    #[test]
    fn packed_matches_naive_ragged() {
        let residues = (1..=9).map(|m| (m, 9, 21));
        for (m, n, k) in residues.chain([(1, 1, 1), (13, 9, 21), (17, 33, 65)]) {
            let a = seq(m * k, 0.25);
            let bt = seq(n * k, 0.5);
            let want = naive_bt(&a, &bt, m, n, k);
            for &tk in &[1usize, 4, 64] {
                let pb = PackedB::pack_bt(&bt, n, k, tk);
                let mut out = vec![0.0f32; m * n];
                let sched = MatmulSchedule {
                    tile_m: 16,
                    tile_n: 16,
                    tile_k: tk,
                };
                gemm_packed(
                    ExecProfile::Server,
                    &a,
                    &pb,
                    m,
                    &mut out,
                    sched,
                    &Epilogue::NONE,
                );
                for (g, w) in out.iter().zip(want.iter()) {
                    assert!((g - w).abs() < 1e-4, "m={m} n={n} k={k} tk={tk}");
                }
            }
        }
    }

    #[test]
    fn row_instance_sets_bitwise_identical() {
        // Every residue m mod 8, a full block, and blocks plus a tail.
        let shapes = (1..=9)
            .map(|m| (m, 65, 7))
            .chain([(1, 513, 512), (26, 8, 129)]);
        // All instances, the even ones, the quads, each alone, none.
        let sets = [ALL_ROWS, 0b1_0101_0100, 0b1_0001_0000, 0b10, 0b1000_0000, 0];
        for (m, n, k) in shapes {
            let a = seq(m * k, 0.25);
            let bt = seq(n * k, 0.5);
            let bias = seq(n, 0.1);
            for &tk in &[1usize, 64, 256] {
                let pb = PackedB::pack_bt(&bt, n, k, tk);
                let sched = MatmulSchedule {
                    tile_m: 16,
                    tile_n: 64,
                    tile_k: tk,
                };
                let ep = Epilogue {
                    bias: Some(&bias),
                    unary: &[UnaryOp::Relu],
                };
                for profile in [ExecProfile::Server, ExecProfile::Edge] {
                    let mut want = vec![0.0f32; m * n];
                    gemm_packed(profile, &a, &pb, m, &mut want, sched, &ep);
                    for set in sets {
                        let mut got = vec![f32::NAN; m * n];
                        let isa = nimble_simd::active();
                        gemm_packed_dispatch(isa, set, profile, &a, &pb, m, &mut got, sched, &ep);
                        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(
                                w.to_bits(),
                                g.to_bits(),
                                "m={m} n={n} k={k} tk={tk} {profile:?} set {set:#b} elem {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn k_zero_applies_epilogue_only() {
        let (m, n) = (3, 5);
        let a: Vec<f32> = vec![];
        let pb = PackedB::pack_bt(&[], n, 0, 16);
        let bias: Vec<f32> = (0..n).map(|j| j as f32).collect();
        let mut out = vec![7.0f32; m * n];
        let ep = Epilogue {
            bias: Some(&bias),
            unary: &[UnaryOp::Custom(|v| v + 1.0)],
        };
        gemm_packed(
            ExecProfile::Server,
            &a,
            &pb,
            m,
            &mut out,
            MatmulSchedule {
                tile_k: 16,
                ..MatmulSchedule::default()
            },
            &ep,
        );
        for i in 0..m {
            for j in 0..n {
                assert_eq!(out[i * n + j], j as f32 + 1.0);
            }
        }
    }

    #[test]
    fn schedules_bitwise_identical() {
        let (m, n, k) = (29, 43, 51);
        let a = seq(m * k, 0.37);
        let bt = seq(n * k, 0.19);
        let base = {
            let pb = PackedB::pack_bt(&bt, n, k, 64);
            let mut out = vec![0.0f32; m * n];
            gemm_packed(
                ExecProfile::Server,
                &a,
                &pb,
                m,
                &mut out,
                MatmulSchedule {
                    tile_m: 64,
                    tile_n: 64,
                    tile_k: 64,
                },
                &Epilogue::NONE,
            );
            out
        };
        for &(tm, tn, tk) in &[(8, 8, 1), (16, 32, 7), (8, 64, 16), (128, 128, 256)] {
            let pb = PackedB::pack_bt(&bt, n, k, tk);
            let mut out = vec![0.0f32; m * n];
            gemm_packed(
                ExecProfile::Server,
                &a,
                &pb,
                m,
                &mut out,
                MatmulSchedule {
                    tile_m: tm,
                    tile_n: tn,
                    tile_k: tk,
                },
                &Epilogue::NONE,
            );
            assert_eq!(
                base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "schedule ({tm},{tn},{tk}) changed bits"
            );
        }
    }

    #[test]
    fn pack_kn_matches_pack_bt() {
        let (n, k) = (11, 13);
        let bt = seq(n * k, 0.3);
        // b[k][n] = bt[n][k]
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let p1 = PackedB::pack_bt(&bt, n, k, 5);
        let p2 = PackedB::pack_kn(&b, k, n, 5);
        assert_eq!(p1.data, p2.data);
    }
}
