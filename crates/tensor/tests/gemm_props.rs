//! Property tests for the blocked GEMM: packed panels + register
//! microkernel must agree with a naive triple loop for every ragged shape,
//! every schedule, and both execution profiles — including the degenerate
//! shapes (`1×1×1`, `k = 0`) where blocking logic is most likely to slip.

use nimble_tensor::kernels::gemm::{gemm_packed, gemm_packed_with_isa, Epilogue, PackedB, UnaryOp};
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::ExecProfile;
use proptest::prelude::*;

/// Reference: `out[i, j] = Σ_k a[i, k] · bt[j, k]`, plain accumulation
/// order, no blocking.
fn naive_gemm_bt(a: &[f32], bt: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * bt[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn fill(len: usize, seed: u64) -> Vec<f32> {
    // Deterministic, sign-varying values without pulling in an RNG: keeps
    // failures reproducible from the proptest seed alone.
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn check_profile(profile: ExecProfile, m: usize, n: usize, k: usize, sched: MatmulSchedule) {
    let sched = sched.sanitized();
    let a = fill(m * k, 7);
    let bt = fill(n * k, 1312);
    let want = naive_gemm_bt(&a, &bt, m, n, k);
    let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
    let mut got = vec![f32::NAN; m * n];
    gemm_packed(profile, &a, &pb, m, &mut got, sched, &Epilogue::NONE);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let tol = 1e-4f32.max(w.abs() * 1e-5);
        assert!(
            (g - w).abs() <= tol,
            "{profile:?} {m}x{n}x{k} sched {sched:?}: out[{i}] = {g}, want {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ragged shapes (including boundaries below, at, and above the 8×8
    /// register tile) match the naive loop on the Server profile.
    #[test]
    fn server_matches_naive(
        m in 0usize..26,
        n in 1usize..27,
        k in 0usize..40,
        tile_m in 1usize..40,
        tile_n in 1usize..40,
        tile_k in 1usize..48,
    ) {
        check_profile(
            ExecProfile::Server,
            m, n, k,
            MatmulSchedule { tile_m, tile_n, tile_k },
        );
    }

    /// Same property on the Edge profile, whose strictly in-order
    /// `mul_add` microkernel is a different code path (and numerically
    /// distinct — hence the tolerance).
    #[test]
    fn edge_matches_naive(
        m in 0usize..26,
        n in 1usize..27,
        k in 0usize..40,
        tile_m in 1usize..40,
        tile_n in 1usize..40,
        tile_k in 1usize..48,
    ) {
        check_profile(
            ExecProfile::Edge,
            m, n, k,
            MatmulSchedule { tile_m, tile_n, tile_k },
        );
    }

    /// The schedule never changes the answer: on Server the accumulator
    /// tile stays register-resident across every reduction block, so all
    /// schedules reduce each output element in the same k order —
    /// bitwise-identically.
    #[test]
    fn server_schedule_bitwise_invariant(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..33,
        tile_k_a in 1usize..40,
        tile_k_b in 1usize..40,
    ) {
        let a = fill(m * k, 3);
        let bt = fill(n * k, 99);
        let run = |tile_k: usize| {
            let sched = MatmulSchedule { tile_m: 16, tile_n: 16, tile_k }.sanitized();
            let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
            let mut out = vec![0.0f32; m * n];
            gemm_packed(ExecProfile::Server, &a, &pb, m, &mut out, sched, &Epilogue::NONE);
            out
        };
        let x = run(tile_k_a);
        let y = run(tile_k_b);
        for (p, q) in x.iter().zip(&y) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}

/// Run the GEMM driver under an explicit ISA and return the output bits.
#[allow(clippy::too_many_arguments)]
fn run_bits(
    isa: nimble_simd::Isa,
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    n: usize,
    sched: MatmulSchedule,
    ep: &Epilogue,
) -> Vec<u32> {
    let mut out = vec![f32::NAN; m * n];
    gemm_packed_with_isa(isa, profile, a, pb, m, &mut out, sched, ep);
    out.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The SIMD backend never changes a bit: for every ragged shape,
    /// reduction blocking, and profile, every available backend (plus
    /// forced-scalar) produces outputs bitwise identical to the scalar
    /// microkernel.
    #[test]
    fn backends_bitwise_identical(
        m in 0usize..26,
        n in 1usize..35,
        k in 0usize..40,
        tile_k in 1usize..48,
        edge in 0usize..2,
        with_bias in 0usize..2,
    ) {
        let profile = if edge == 1 { ExecProfile::Edge } else { ExecProfile::Server };
        let with_bias = with_bias == 1;
        let sched = MatmulSchedule { tile_m: 16, tile_n: 16, tile_k }.sanitized();
        let a = fill(m * k, 11);
        let bt = fill(n * k, 23);
        let bias = fill(n, 5);
        let ep = Epilogue {
            bias: with_bias.then_some(bias.as_slice()),
            unary: &[UnaryOp::Relu],
        };
        let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
        let base = run_bits(nimble_simd::Isa::Scalar, profile, &a, &pb, m, n, sched, &ep);
        for isa in nimble_simd::available() {
            let got = run_bits(isa, profile, &a, &pb, m, n, sched, &ep);
            prop_assert_eq!(&got, &base, "diverged on {}", isa);
        }
    }
}

/// Every residue `m mod 8` (`m = 1..=9`), on every backend and profile, is
/// bitwise equal to the scalar backend: each row count takes its own
/// microkernel instance.
#[test]
fn every_residue_bitwise_on_every_backend() {
    let (n, k) = (21, 37);
    let sched = MatmulSchedule {
        tile_m: 8,
        tile_n: 16,
        tile_k: 16,
    };
    let bt = fill(n * k, 3);
    let bias = fill(n, 9);
    let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
    let ep = Epilogue {
        bias: Some(&bias),
        unary: &[UnaryOp::Relu],
    };
    for m in 1..=9 {
        let a = fill(m * k, m as u64);
        for profile in [ExecProfile::Server, ExecProfile::Edge] {
            let base = run_bits(nimble_simd::Isa::Scalar, profile, &a, &pb, m, n, sched, &ep);
            for isa in nimble_simd::available() {
                let got = run_bits(isa, profile, &a, &pb, m, n, sched, &ep);
                assert_eq!(got, base, "m={m} {profile:?} {isa}");
            }
        }
        check_profile(ExecProfile::Server, m, n, k, sched);
        check_profile(ExecProfile::Edge, m, n, k, sched);
    }
}

/// Masked-tail regression: shapes engineered so every backend must take
/// partial-register paths — `n` not a multiple of any lane count, `m`
/// smaller than the `MR` register tile, and `k == 0` (epilogue-only).
#[test]
fn masked_tail_shapes_bitwise_on_every_backend() {
    // (m, n, k): n % 4 != 0 and n % 8 != 0 exercise SSE2/NEON and AVX2
    // tails; m < MR exercises the short row tiles; k == 0 the
    // epilogue-only path.
    for &(m, n, k) in &[(1, 1, 3), (3, 5, 7), (7, 13, 9), (2, 9, 0), (5, 23, 1)] {
        let sched = MatmulSchedule {
            tile_m: 8,
            tile_n: 8,
            tile_k: 4,
        }
        .sanitized();
        let a = fill(m * k, 41);
        let bt = fill(n * k, 43);
        let bias = fill(n, 47);
        for profile in [ExecProfile::Server, ExecProfile::Edge] {
            let ep = Epilogue {
                bias: Some(&bias),
                unary: &[UnaryOp::Tanh],
            };
            let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
            let base = run_bits(nimble_simd::Isa::Scalar, profile, &a, &pb, m, n, sched, &ep);
            for isa in nimble_simd::available() {
                let got = run_bits(isa, profile, &a, &pb, m, n, sched, &ep);
                // The GEMM accumulation is bitwise-pinned across backends;
                // the tanh epilogue rides the vecmath ULP contract, so
                // compare under it rather than bitwise.
                for (i, (&g, &w)) in got.iter().zip(&base).enumerate() {
                    assert!(
                        nimble_simd::vecmath::within_contract(
                            UnaryOp::Tanh,
                            f32::from_bits(g),
                            f32::from_bits(w)
                        ),
                        "{profile:?} {isa} {m}x{n}x{k} elem {i}"
                    );
                }
                let again = run_bits(isa, profile, &a, &pb, m, n, sched, &ep);
                assert_eq!(got, again, "{profile:?} {isa} nondeterministic");
            }
        }
    }
}

#[test]
fn one_by_one_by_one_both_profiles() {
    for profile in [ExecProfile::Server, ExecProfile::Edge] {
        check_profile(profile, 1, 1, 1, MatmulSchedule::default());
    }
}

#[test]
fn k_zero_yields_epilogue_of_zero_both_profiles() {
    // k = 0: no reduction blocks exist, yet the epilogue must still run
    // over the (all-zero) accumulator.
    for profile in [ExecProfile::Server, ExecProfile::Edge] {
        let sched = MatmulSchedule::default().sanitized();
        let pb = PackedB::pack_bt(&[], 3, 0, sched.tile_k);
        let bias = [1.0f32, -2.0, 0.5];
        let ep = Epilogue {
            bias: Some(&bias),
            unary: &[UnaryOp::Custom(|v| v * 2.0)],
        };
        let mut out = vec![f32::NAN; 2 * 3];
        gemm_packed(profile, &[], &pb, 2, &mut out, sched, &ep);
        assert_eq!(out, vec![2.0, -4.0, 1.0, 2.0, -4.0, 1.0], "{profile:?}");
    }
}
