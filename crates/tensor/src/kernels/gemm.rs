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
//!   reads both operands as contiguous streams. The pack buffer is a
//!   per-thread scratch reused across calls.
//! * **Work decomposition** ([`PanelSplit`]): one rule cuts `out[m, n]` into
//!   row strips × groups of `NR`-column panels for every dense driver —
//!   [`gemm_packed`], [`gemm_packed_cols`] and `nimble-codegen`'s symbolic
//!   dense. Enough row strips for every participant: rows only. Fewer
//!   (short `m`): whole `tile_n` column blocks as well, with A packed once
//!   and shared read-only.
//! * **Microkernel**: an `MR×NR = 8×8` register accumulator tile,
//!   width-generic over [`nimble_simd::SimdF32`] and monomorphized per ISA
//!   behind `#[target_feature]` wrappers (AVX2+FMA / SSE2 / NEON, with the
//!   original scalar loops as the always-available fallback). The Server
//!   variant keeps 64 independent `acc += a*b` lanes (explicit mul-then-add,
//!   never FMA — fusing would change the rounding); the Edge variant is a
//!   strictly in-order `mul_add` dependence chain modelling a low-power
//!   core, vectorized only on backends with a true fused multiply-add
//!   (`f32::mul_add` and hardware FMA are both correctly rounded, so the
//!   scalar and vector Edge kernels agree bitwise; SSE2 has no FMA and
//!   takes the scalar Edge path).
//!
//! **Determinism across schedules *and* backends**: the accumulator tile
//! stays register-resident across *all* `tile_k` blocks — the block loop is
//! inside the per-tile region, not outside it — so each output element is
//! reduced in strictly increasing `k` order no matter the schedule. SIMD
//! lanes map across the `NR` output columns, never across `k`, so each
//! element keeps its own accumulator chain and every backend produces
//! bitwise-identical results. This is what lets the tuner explore tile
//! configs freely, the pre-pack cache share packed weights across residue
//! variants, and `NIMBLE_SIMD` switch ISAs without changing a single bit of
//! GEMM output.
//!
//! The epilogue (bias add + any fused trailing unary elementwise chain) is
//! applied in the single write-out pass through
//! [`nimble_simd::vecmath::epilogue_row`] — the same shared masked-tail row
//! primitive the elementwise kernels use — so fused `dense → activation`
//! chains touch the output exactly once.

use crate::pool::{parallel_for, participants, ExecProfile, SendPtr, OVERSUBSCRIBE};
use nimble_simd::{vecmath, Isa, SimdF32};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;

pub use nimble_simd::vecmath::UnaryOp;

/// Microkernel register-tile rows.
pub const MR: usize = 8;
/// Microkernel register-tile columns (B panel width).
pub const NR: usize = 8;

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

/// Pack a `rows`-row strip of `a: [m, k]` into `MR`-row k-major panels with
/// the same `tile_k` blocking as [`PackedB`], zero-padding the row tail.
///
/// Layout mirrors PackedB with rows in place of columns:
/// `buf[block][row_panel][kk][0..MR]`, uniform block stride
/// `m_panels * MR * tile_k`.
fn pack_a_strip(a: &[f32], k: usize, row0: usize, rows: usize, tile_k: usize, buf: &mut Vec<f32>) {
    let tile_k = tile_k.max(1);
    let m_panels = rows.div_ceil(MR);
    let k_blocks = k.div_ceil(tile_k);
    buf.clear();
    buf.resize(k_blocks * m_panels * MR * tile_k, 0.0);
    for block in 0..k_blocks {
        let k0 = block * tile_k;
        let kc = tile_k.min(k - k0);
        for ip_idx in 0..m_panels {
            let r0 = ip_idx * MR;
            let rcount = MR.min(rows - r0);
            let start = block * m_panels * MR * tile_k + ip_idx * MR * kc;
            let dst = &mut buf[start..start + MR * kc];
            for (r, row) in (r0..r0 + rcount).enumerate() {
                let src = &a[(row0 + row) * k + k0..(row0 + row) * k + k0 + kc];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * MR + r] = v;
                }
            }
        }
    }
}

/// Server microkernel: 64 independent accumulator lanes, auto-vectorizable.
#[inline(always)]
fn micro_server(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for r in 0..MR {
            let ar = a[r];
            for c in 0..NR {
                acc[r][c] += ar * b[c];
            }
        }
    }
}

/// Edge microkernel: strictly in-order scalar `mul_add` chains per output
/// element, modelling the per-core throughput gap of a low-power core.
#[inline(always)]
fn micro_edge(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    for r in 0..MR {
        for c in 0..NR {
            let mut s = acc[r][c];
            for kk in 0..kc {
                s = ap[kk * MR + r].mul_add(bp[kk * NR + c], s);
            }
            acc[r][c] = s;
        }
    }
}

/// Width-generic Server microkernel: `S::LANES` of the `NR` accumulator
/// columns per vector register. Per output element this performs exactly
/// [`micro_server`]'s mul-then-add in ascending-`k` order (never FMA), so
/// results are bitwise identical to the scalar kernel on every backend.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn micro_server_v<S: SimdF32>(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    let nch = NR / S::LANES;
    let mut vacc = [[S::zero(); NR]; MR];
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c] = S::load(&acc[r][c * S::LANES..]);
        }
    }
    // SAFETY: callers pass `ap` of `MR * kc` and `bp` of `NR * kc`
    // (`pack_a_strip` / `PackedB::panel` layouts); unchecked access keeps
    // bounds checks out of the innermost loop.
    for kk in 0..kc {
        let bbase = bp.as_ptr().add(kk * NR);
        let abase = ap.as_ptr().add(kk * MR);
        let mut vb = [S::zero(); NR];
        for c in 0..nch {
            vb[c] = S::load(core::slice::from_raw_parts(
                bbase.add(c * S::LANES),
                S::LANES,
            ));
        }
        for r in 0..MR {
            let a = S::splat(*abase.add(r));
            for c in 0..nch {
                vacc[r][c] = vacc[r][c].add(a.mul(vb[c]));
            }
        }
    }
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c].store(&mut acc[r][c * S::LANES..]);
        }
    }
}

/// Width-generic Edge microkernel: the same ascending-`k` fused `mul_add`
/// chain per element as [`micro_edge`]. Only selected on backends with a
/// true FMA (`S::HAS_FMA`), where hardware FMA and `f32::mul_add` are both
/// correctly rounded and therefore bitwise identical.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn micro_edge_v<S: SimdF32>(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    debug_assert!(S::HAS_FMA);
    let nch = NR / S::LANES;
    let mut vacc = [[S::zero(); NR]; MR];
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c] = S::load(&acc[r][c * S::LANES..]);
        }
    }
    // SAFETY: same layout contract as `micro_server_v`.
    for kk in 0..kc {
        let bbase = bp.as_ptr().add(kk * NR);
        let abase = ap.as_ptr().add(kk * MR);
        let mut vb = [S::zero(); NR];
        for c in 0..nch {
            vb[c] = S::load(core::slice::from_raw_parts(
                bbase.add(c * S::LANES),
                S::LANES,
            ));
        }
        for r in 0..MR {
            let a = S::splat(*abase.add(r));
            for c in 0..nch {
                vacc[r][c] = a.mul_add(vb[c], vacc[r][c]);
            }
        }
    }
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c].store(&mut acc[r][c * S::LANES..]);
        }
    }
}

/// Per-`tile_k`-block microkernel signature: `(ap, bp, kc, acc)`.
type MicroFn = unsafe fn(&[f32], &[f32], usize, &mut [[f32; NR]; MR]);

/// Cols-driver per-(row, panel) kernel signature: `(arow, pb, jp_idx, acc)`.
type ColsFn = unsafe fn(&[f32], &PackedB, usize, &mut [f32; NR]);

// Scalar cols kernels (extracted verbatim from the original driver loops).
unsafe fn cols_server_scalar(arow: &[f32], pb: &PackedB, jp_idx: usize, acc: &mut [f32; NR]) {
    // NR independent acc += a*b lanes per k step, matching micro_server's
    // reduction order.
    for block in 0..pb.k_blocks() {
        let k0 = pb.block_k0(block);
        let bp = pb.panel(block, jp_idx);
        for (kk, bvals) in bp.chunks_exact(NR).enumerate() {
            let av = arow[k0 + kk];
            for c in 0..NR {
                acc[c] += av * bvals[c];
            }
        }
    }
}

unsafe fn cols_edge_scalar(arow: &[f32], pb: &PackedB, jp_idx: usize, acc: &mut [f32; NR]) {
    // Per-element in-order mul_add chain, matching micro_edge's reduction
    // order.
    for (c, slot) in acc.iter_mut().enumerate() {
        let mut s = *slot;
        for block in 0..pb.k_blocks() {
            let k0 = pb.block_k0(block);
            let bp = pb.panel(block, jp_idx);
            for (kk, av) in arow[k0..k0 + pb.block_kc(block)].iter().enumerate() {
                s = av.mul_add(bp[kk * NR + c], s);
            }
        }
        *slot = s;
    }
}

/// Width-generic cols-driver Server kernel: same lane order as
/// [`cols_server_scalar`] (mul-then-add, ascending `k`), vectorized across
/// the `NR` panel columns — bitwise identical on every backend.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn cols_server_v<S: SimdF32>(
    arow: &[f32],
    pb: &PackedB,
    jp_idx: usize,
    acc: &mut [f32; NR],
) {
    let nch = NR / S::LANES;
    let mut vacc = [S::zero(); NR];
    for c in 0..nch {
        vacc[c] = S::load(&acc[c * S::LANES..]);
    }
    for block in 0..pb.k_blocks() {
        let k0 = pb.block_k0(block);
        let bp = pb.panel(block, jp_idx);
        // SAFETY: `arow` spans the full `k` range of the packed layout.
        for (kk, bvals) in bp.chunks_exact(NR).enumerate() {
            let av = S::splat(*arow.get_unchecked(k0 + kk));
            for c in 0..nch {
                vacc[c] = vacc[c].add(av.mul(S::load(&bvals[c * S::LANES..])));
            }
        }
    }
    for c in 0..nch {
        vacc[c].store(&mut acc[c * S::LANES..]);
    }
}

/// Width-generic cols-driver Edge kernel: [`cols_edge_scalar`]'s fused
/// `mul_add` chain per element; FMA backends only (see [`select_micro`]).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn cols_edge_v<S: SimdF32>(arow: &[f32], pb: &PackedB, jp_idx: usize, acc: &mut [f32; NR]) {
    debug_assert!(S::HAS_FMA);
    let nch = NR / S::LANES;
    let mut vacc = [S::zero(); NR];
    for c in 0..nch {
        vacc[c] = S::load(&acc[c * S::LANES..]);
    }
    for block in 0..pb.k_blocks() {
        let k0 = pb.block_k0(block);
        let bp = pb.panel(block, jp_idx);
        // SAFETY: `arow` spans the full `k` range of the packed layout.
        for (kk, bvals) in bp.chunks_exact(NR).enumerate() {
            let av = S::splat(*arow.get_unchecked(k0 + kk));
            for c in 0..nch {
                vacc[c] = av.mul_add(S::load(&bvals[c * S::LANES..]), vacc[c]);
            }
        }
    }
    for c in 0..nch {
        vacc[c].store(&mut acc[c * S::LANES..]);
    }
}

/// Pick the cols-driver kernel for an (ISA, profile) pair; same FMA gating
/// as [`select_micro`].
fn select_cols(isa: Isa, edge: bool) -> ColsFn {
    match (isa, edge) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Sse2, false) => micro_x86::cols_server_sse2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => micro_x86::cols_server_avx2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => micro_x86::cols_edge_avx2,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, false) => micro_neon::cols_server_neon,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, true) => micro_neon::cols_edge_neon,
        (_, false) => cols_server_scalar,
        (_, true) => cols_edge_scalar,
    }
}

// Scalar micros behind the shared signature (trivially safe bodies).
unsafe fn micro_server_scalar(ap: &[f32], bp: &[f32], _kc: usize, acc: &mut [[f32; NR]; MR]) {
    micro_server(ap, bp, acc)
}
unsafe fn micro_edge_scalar(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    micro_edge(ap, bp, kc, acc)
}

#[cfg(target_arch = "x86_64")]
mod micro_x86 {
    use super::*;
    use nimble_simd::x86::{F32x4, F32x8};

    #[target_feature(enable = "sse2")]
    pub unsafe fn server_sse2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_server_v::<F32x4>(ap, bp, kc, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn server_avx2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_server_v::<F32x8>(ap, bp, kc, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn edge_avx2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_edge_v::<F32x8>(ap, bp, kc, acc)
    }
    #[target_feature(enable = "sse2")]
    pub unsafe fn cols_server_sse2(arow: &[f32], pb: &PackedB, jp: usize, acc: &mut [f32; NR]) {
        cols_server_v::<F32x4>(arow, pb, jp, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn cols_server_avx2(arow: &[f32], pb: &PackedB, jp: usize, acc: &mut [f32; NR]) {
        cols_server_v::<F32x8>(arow, pb, jp, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn cols_edge_avx2(arow: &[f32], pb: &PackedB, jp: usize, acc: &mut [f32; NR]) {
        cols_edge_v::<F32x8>(arow, pb, jp, acc)
    }
}

#[cfg(target_arch = "aarch64")]
mod micro_neon {
    use super::*;
    use nimble_simd::neon::F32x4n;

    pub unsafe fn server_neon(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_server_v::<F32x4n>(ap, bp, kc, acc)
    }
    pub unsafe fn edge_neon(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_edge_v::<F32x4n>(ap, bp, kc, acc)
    }
    pub unsafe fn cols_server_neon(arow: &[f32], pb: &PackedB, jp: usize, acc: &mut [f32; NR]) {
        cols_server_v::<F32x4n>(arow, pb, jp, acc)
    }
    pub unsafe fn cols_edge_neon(arow: &[f32], pb: &PackedB, jp: usize, acc: &mut [f32; NR]) {
        cols_edge_v::<F32x4n>(arow, pb, jp, acc)
    }
}

/// Pick the block microkernel for an (ISA, profile) pair. The Edge profile
/// needs a true fused multiply-add to match `f32::mul_add` bitwise, so
/// SSE2 (no FMA) falls back to the scalar Edge chain.
fn select_micro(isa: Isa, edge: bool) -> MicroFn {
    match (isa, edge) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Sse2, false) => micro_x86::server_sse2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => micro_x86::server_avx2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => micro_x86::edge_avx2,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, false) => micro_neon::server_neon,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, true) => micro_neon::edge_neon,
        (_, false) => micro_server_scalar,
        (_, true) => micro_edge_scalar,
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
    let edge = matches!(profile, ExecProfile::Edge);
    let micro = select_micro(isa, edge);
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
        let a_block_stride = pack_rows.div_ceil(MR) * MR * tile_k;
        let ip0 = (rows.start - pack_row0) / MR;
        for jp_idx in blk.panels() {
            let j0 = jp_idx * NR;
            let cols = NR.min(n - j0);
            for (ip_idx, r0) in (ip0..).zip(rows.clone().step_by(MR)) {
                let rcount = MR.min(rows.end - r0);
                let mut acc = [[0.0f32; NR]; MR];
                // The block loop lives *inside* the tile: acc stays
                // register-resident across all of k, making results
                // bitwise-independent of the schedule.
                for block in 0..pb.k_blocks() {
                    let kc = pb.block_kc(block);
                    let ap = &apack[block * a_block_stride + ip_idx * MR * kc..][..MR * kc];
                    let bp = pb.panel(block, jp_idx);
                    // SAFETY: `micro` was selected for an ISA that
                    // `sanitize_isa` verified is available.
                    unsafe { micro(ap, bp, kc, &mut acc) };
                }
                for (r, acc_row) in acc.iter().enumerate().take(rcount) {
                    store_row(isa, blk, r0 + r, j0, &acc_row[..cols], ep);
                }
            }
        }
    };
    let split = PanelSplit::plan(profile, m, pb, tile_m, sched.tile_n);
    if split.shares_rows() {
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

/// Short-`m` driver: padding-free rows.
///
/// [`gemm_packed`] always computes full `MR x NR` register tiles, so an
/// `m = 1` dispatch (a single request through a row-dynamic model) spends
/// `MR - 1` of every `MR` accumulator lanes on zero-padding rows. This
/// driver computes exactly `m` rows — A is read in place, never packed or
/// padded — one row × panel at a time. It takes the same [`PanelSplit`]
/// with a single all-rows strip, i.e. always the column cut.
///
/// Each output element is still reduced in strictly increasing `k`
/// order with a single accumulator per element (the Server loop mirrors
/// `micro_server`'s lane order, the Edge loop `micro_edge`'s `mul_add`
/// chain), so outputs are bitwise identical to [`gemm_packed`] under
/// any schedule. The shape specializer exploits exactly this: it races
/// the two drivers on the observed shape and installs the faster one
/// behind its bitwise install gate.
pub fn gemm_packed_cols(
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    gemm_packed_cols_with_isa(nimble_simd::active(), profile, a, pb, m, out, sched, ep)
}

/// [`gemm_packed_cols`] pinned to an explicit ISA; see
/// [`gemm_packed_with_isa`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_cols_with_isa(
    isa: Isa,
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
        "gemm_packed_cols: schedule tile_k must match the packed layout"
    );
    if m == 0 || n == 0 {
        return;
    }
    let edge = matches!(profile, ExecProfile::Edge);
    let cols_fn = select_cols(isa, edge);
    let _s = nimble_obs::span_full("gemm.compute", nimble_obs::Category::Pool, (m * n) as u64);

    // All `m` rows per task (A is read in place), columns always cut.
    let split = PanelSplit::plan(profile, m, pb, m, sched.tile_n);
    split.run(out, |blk| {
        let _mk = nimble_obs::span_detail(
            "gemm.microkernel",
            nimble_obs::Category::Pool,
            blk.panels().start as u64,
        );
        for jp_idx in blk.panels() {
            let j0 = jp_idx * NR;
            let cols = NR.min(n - j0);
            for i in blk.rows() {
                let arow = &a[i * k..(i + 1) * k];
                let mut acc = [0.0f32; NR];
                // SAFETY: `cols_fn` was selected for an ISA that
                // `sanitize_isa` verified is available.
                unsafe { cols_fn(arow, pb, jp_idx, &mut acc) };
                store_row(isa, blk, i, j0, &acc[..cols], ep);
            }
        }
    });
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
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (13, 9, 21), (8, 8, 8), (17, 33, 65)] {
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
    fn cols_driver_bitwise_matches_rows_driver() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (1, 513, 512),
            (3, 65, 7),
            (16, 512, 129),
            (24, 8, 8),
        ] {
            let a = seq(m * k, 0.25);
            let bt = seq(n * k, 0.5);
            let bias = seq(n, 0.1);
            for &tk in &[1usize, 64, 256] {
                let pb = PackedB::pack_bt(&bt, n, k, tk);
                let sched = MatmulSchedule {
                    tile_m: 32,
                    tile_n: 64,
                    tile_k: tk,
                };
                for profile in [ExecProfile::Server, ExecProfile::Edge] {
                    let ep = Epilogue {
                        bias: Some(&bias),
                        unary: &[UnaryOp::Relu],
                    };
                    let mut rows = vec![0.0f32; m * n];
                    gemm_packed(profile, &a, &pb, m, &mut rows, sched, &ep);
                    let mut cols = vec![0.0f32; m * n];
                    gemm_packed_cols(profile, &a, &pb, m, &mut cols, sched, &ep);
                    for (i, (r, c)) in rows.iter().zip(&cols).enumerate() {
                        assert_eq!(
                            r.to_bits(),
                            c.to_bits(),
                            "m={m} n={n} k={k} tk={tk} {profile:?} elem {i}: {r} vs {c}"
                        );
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
