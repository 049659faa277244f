//! The work decomposition and the residue dispatch never move a bit.
//!
//! There is one dense driver, `gemm_packed`; the symbolic dense of
//! `nimble-codegen` enters it with a `DispatchLevel`'s set of const-row
//! microkernel instances. Every output element keeps a single accumulator
//! and ascending-`k` order whatever the cut and whichever instance computes
//! its row, so: every dispatch level must equal `gemm_packed` byte for
//! byte under every ISA and profile, and a run cut for many participants
//! must equal the one-participant run — on ragged shapes, with a bias and
//! a unary epilogue, under every ISA the host has.
//! `with_forced_participants` makes both cuts reachable on any box (and
//! below the pool's work threshold).

use nimble_codegen::symbolic::{dense_symbolic_packed, DispatchLevel};
use nimble_tensor::kernels::gemm::{
    gemm_packed_dispatch, gemm_packed_with_isa, Epilogue, PackedB, PanelSplit, UnaryOp,
};
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::pool::{default_profile, with_forced_participants};
use nimble_tensor::ExecProfile;
use proptest::prelude::*;

const LEVELS: [DispatchLevel; 5] = [
    DispatchLevel::Static,
    DispatchLevel::Dispatch8,
    DispatchLevel::Dispatch4,
    DispatchLevel::Dispatch2,
    DispatchLevel::NoDispatch,
];

fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `gemm_packed`'s output for one shape under every ISA × profile, in a
/// fixed order, under whatever participant count the caller forced.
/// Asserts on the way that every dispatch level reproduces it exactly.
fn run_all(a: &[f32], pb: &PackedB, m: usize, bias: &[f32]) -> Vec<(String, Vec<u32>)> {
    let sched = MatmulSchedule {
        tile_k: pb.tile_k(),
        ..MatmulSchedule::default()
    };
    let ep = Epilogue {
        bias: Some(bias),
        unary: &[UnaryOp::Tanh],
    };
    let run = |out: &mut Vec<f32>, f: &dyn Fn(&mut [f32])| {
        *out = vec![f32::NAN; m * pb.n()];
        f(out);
        bits(out)
    };
    let mut out = Vec::new();
    let mut outs = Vec::new();
    for isa in nimble_simd::available() {
        for profile in [ExecProfile::Server, ExecProfile::Edge] {
            let name = format!("gemm_packed {isa:?} {profile:?}");
            let want = run(&mut out, &|o| {
                gemm_packed_with_isa(isa, profile, a, pb, m, o, sched, &ep)
            });
            for level in LEVELS {
                let got = run(&mut out, &|o| {
                    let set = level.row_instances();
                    gemm_packed_dispatch(isa, set, profile, a, pb, m, o, sched, &ep)
                });
                assert!(want == got, "{name}: {level:?} differs at m={m}");
            }
            outs.push((name, want));
        }
    }
    // The symbolic entry point itself: active ISA, default profile, bias
    // only.
    let isa = nimble_simd::active();
    let ep = Epilogue {
        bias: Some(bias),
        unary: &[],
    };
    let want = run(&mut out, &|o| {
        gemm_packed_with_isa(isa, default_profile(), a, pb, m, o, sched, &ep)
    });
    for level in LEVELS {
        let got = run(&mut out, &|o| {
            dense_symbolic_packed(a, pb, m, o, level, Some(bias))
        });
        assert!(want == got, "symbolic {level:?} differs at m={m}");
    }
    outs
}

/// One shape cut for one participant and for `many`: same bits.
fn serial_equals_split(m: usize, n: usize, k: usize, many: usize, seed: u64) {
    let a = fill(m * k, seed);
    let bt = fill(n * k, seed ^ 0x5eed);
    let bias = fill(n, seed + 17);
    let pb = PackedB::pack_bt(&bt, n, k, MatmulSchedule::default().tile_k);
    let serial = with_forced_participants(1, || run_all(&a, &pb, m, &bias));
    let split = with_forced_participants(many, || run_all(&a, &pb, m, &bias));
    for ((name, want), (_, got)) in serial.iter().zip(&split) {
        assert!(
            want == got,
            "{name}: {m}x{n}x{k} cut for {many} participants differs from serial"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decomposition_is_bitwise_inert(
        m in 1usize..=70,
        n in 1usize..=300,
        k in 1usize..=130,
        many in 2usize..=9,
        seed in 0u64..1000,
    ) {
        serial_equals_split(m, n, k, many, seed);
    }
}

/// Every residue `m mod 8` by name: each level's tail split (const
/// instance plus runtime-row rest) at each row count.
#[test]
fn every_residue_at_every_level() {
    for m in 1..=9 {
        serial_equals_split(m, 83, 70, 3, m as u64);
    }
}

/// The rule: rows only when every participant gets a strip (or there is
/// one participant), else about four tasks per participant, never finer
/// than one `tile_n` block.
#[test]
fn split_rule() {
    // (strips, blocks, participants) -> column groups per strip
    assert_eq!(PanelSplit::column_groups(1, 4, 1), 1);
    assert_eq!(PanelSplit::column_groups(7, 4, 1), 1);
    assert_eq!(PanelSplit::column_groups(2, 4, 2), 1);
    assert_eq!(PanelSplit::column_groups(1, 4, 2), 4);
    assert_eq!(PanelSplit::column_groups(1, 16, 2), 8);
    assert_eq!(PanelSplit::column_groups(3, 16, 4), 6);
    assert_eq!(PanelSplit::column_groups(1, 1, 8), 1);

    // m = 26 over n = 256 (32 panels, tile_n = 64) for two participants:
    // one strip x four 8-panel blocks; ragged n rounds up to whole blocks.
    let tile = MatmulSchedule::default();
    let cut = |m: usize, n: usize| {
        let pb = PackedB::pack_bt(&vec![0.0; n * 4], n, 4, tile.tile_k);
        with_forced_participants(2, || {
            PanelSplit::plan(ExecProfile::Server, m, &pb, tile.tile_m, tile.tile_n)
        })
    };
    assert_eq!(cut(26, 256).tasks(), 4);
    assert!(cut(26, 256).shares_rows());
    assert_eq!(cut(26, 300).tasks(), 5);
    assert_eq!(cut(64, 256).tasks(), 2);
    assert!(!cut(64, 256).shares_rows());
    assert_eq!(cut(26, 64).tasks(), 1);
}

/// Four threads submitting column-cut GEMMs at once — the engine's pattern
/// (one session per worker, one shared pool) — finish and agree with the
/// serial result. A watchdog turns a deadlock into a failure.
#[test]
fn concurrent_column_split_submitters() {
    let (m, n, k) = (26, 256, 192);
    let sched = MatmulSchedule::default();
    let a = fill(m * k, 3);
    let bt = fill(n * k, 4);
    let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
    let run = |out: &mut [f32]| {
        let isa = nimble_simd::active();
        gemm_packed_with_isa(
            isa,
            ExecProfile::Server,
            &a,
            &pb,
            m,
            out,
            sched,
            &Epilogue::NONE,
        );
    };
    let mut want = vec![0.0f32; m * n];
    with_forced_participants(1, || run(&mut want));
    let want = bits(&want);

    let (tx, rx) = std::sync::mpsc::channel();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let tx = tx.clone();
            let (start, run, want) = (&start, &run, &want);
            s.spawn(move || {
                start.wait();
                for _ in 0..200 {
                    let mut out = vec![f32::NAN; m * n];
                    // Cut for the pool whatever the host's width.
                    with_forced_participants(4, || run(&mut out));
                    assert!(bits(&out) == *want, "concurrent output differs from serial");
                }
                tx.send(()).expect("main thread is waiting");
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(std::time::Duration::from_secs(120))
                .expect("concurrent column-split GEMMs deadlocked or failed");
        }
    });
}
