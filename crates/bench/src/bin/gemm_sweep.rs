//! GEMM sweep: the packed-panel blocked kernel against the legacy
//! row-dot kernel it replaced, across BERT-shaped dense workloads, plus a
//! schedule-sensitivity sweep showing that `MatmulSchedule` is a real
//! knob (distinct configs, distinct measured costs, identical outputs).
//!
//! A second table covers **short `m`** — the row counts one request or a
//! small batch produces — for the library `gemm_packed` and the symbolic
//! dense at `dispatch/8` (one driver and microkernel, entered through the
//! codegen dispatch level): GFLOP/s on the pool, how many participants the
//! shared `PanelSplit` decomposition had work for, and the speed-up over
//! the same entry point held to one participant. Pool output must equal
//! the one-participant output bit for bit.
//!
//! * `--smoke` — CI-sized: small shapes, few iterations, exits non-zero
//!   only on correctness mismatch (never on timing).
//! * `--full`  — the numbers recorded in EXPERIMENTS.md.

use nimble_bench::harness::{measure, render_table};
use nimble_codegen::symbolic::{dense_symbolic_packed, DispatchLevel};
use nimble_tensor::kernels::gemm::{gemm_packed, Epilogue, PackedB, PanelSplit};
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::pool::{
    default_profile, parallel_chunks_mut, participants, with_forced_participants,
};
use nimble_tensor::ExecProfile;
use std::time::Duration;

/// The kernel this PR replaced: per-output-element dot product over rows
/// of `bt`, no packing, no register tiling — `B` columns are re-walked
/// for every output row (the layout the old `gemm_bt` used).
fn legacy_row_dot(
    profile: ExecProfile,
    a: &[f32],
    bt: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n);
    parallel_chunks_mut(profile, out, n, 2 * k, |i, out_row| {
        let row = &a[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let col = &bt[j * k..(j + 1) * k];
            let mut acc0 = 0.0f32;
            let mut acc1 = 0.0f32;
            let mut kk = 0;
            while kk + 2 <= k {
                acc0 += row[kk] * col[kk];
                acc1 += row[kk + 1] * col[kk + 1];
                kk += 2;
            }
            if kk < k {
                acc0 += row[kk] * col[kk];
            }
            *o = acc0 + acc1;
        }
    });
}

fn operands(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i % 31) as f32 - 15.0) * 0.07)
        .collect();
    let bt: Vec<f32> = (0..n * k).map(|i| ((i % 17) as f32 - 8.0) * 0.05).collect();
    (a, bt)
}

struct SweepRow {
    shape: (usize, usize, usize),
    legacy: Duration,
    packed_default: Duration,
    best_sched: MatmulSchedule,
    best: Duration,
    worst_sched: MatmulSchedule,
    worst: Duration,
}

fn sweep_shape(
    m: usize,
    n: usize,
    k: usize,
    warmup: usize,
    iters: usize,
    schedules: &[MatmulSchedule],
) -> SweepRow {
    let profile = default_profile();
    let (a, bt) = operands(m, n, k);
    let mut out = vec![0.0f32; m * n];

    let legacy = measure(warmup, iters, || {
        legacy_row_dot(profile, &a, &bt, m, n, k, &mut out);
        std::hint::black_box(&out);
    });
    let reference = out.clone();

    let mut timed: Vec<(MatmulSchedule, Duration)> = Vec::new();
    for &sched in schedules {
        let sched = sched.sanitized();
        let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
        let d = measure(warmup, iters, || {
            gemm_packed(profile, &a, &pb, m, &mut out, sched, &Epilogue::NONE);
            std::hint::black_box(&out);
        });
        // Correctness gate: the packed kernel must agree with the legacy
        // kernel (within reassociation tolerance) under every schedule.
        for (i, (g, w)) in out.iter().zip(&reference).enumerate() {
            let tol = 1e-3f32.max(w.abs() * 1e-4);
            assert!(
                (g - w).abs() <= tol,
                "{m}x{n}x{k} sched {sched:?}: out[{i}] = {g}, legacy {w}"
            );
        }
        timed.push((sched, d));
    }
    let default = MatmulSchedule::default().sanitized();
    let packed_default = timed
        .iter()
        .find(|(s, _)| *s == default)
        .map(|(_, d)| *d)
        .expect("default schedule is always swept");
    let (best_sched, best) = *timed.iter().min_by_key(|(_, d)| *d).unwrap();
    let (worst_sched, worst) = *timed.iter().max_by_key(|(_, d)| *d).unwrap();
    SweepRow {
        shape: (m, n, k),
        legacy,
        packed_default,
        best_sched,
        best,
        worst_sched,
        worst,
    }
}

/// The library and symbolic entry points to the one dense driver.
const DRIVERS: [&str; 2] = ["gemm_packed", "symbolic/8"];

fn run_driver(driver: usize, a: &[f32], pb: &PackedB, m: usize, out: &mut [f32]) {
    let profile = default_profile();
    let sched = MatmulSchedule::for_profile(profile).sanitized();
    match driver {
        0 => gemm_packed(profile, a, pb, m, out, sched, &Epilogue::NONE),
        _ => dense_symbolic_packed(a, pb, m, out, DispatchLevel::Dispatch8, None),
    }
}

/// Short-`m` grid: every driver on the pool against itself held to one
/// participant. Returns `(label, [GFLOP/s, participants used, speed-up])`.
fn short_m_sweep(smoke: bool, warmup: usize, iters: usize) -> Vec<(String, Vec<f64>)> {
    let profile = default_profile();
    let sched = MatmulSchedule::for_profile(profile).sanitized();
    let ms: &[usize] = if smoke {
        &[1, 8, 26]
    } else {
        &[1, 4, 8, 16, 26, 32, 48, 64]
    };
    let kns: &[(usize, usize)] = if smoke {
        &[(256, 256)]
    } else {
        &[(256, 256), (256, 1024), (1024, 256)]
    };
    // Calls per timed sample, so a sample is long against the clock.
    let reps = if smoke { 2 } else { 20 };
    let mut rows = Vec::new();
    for &(k, n) in kns {
        for &m in ms {
            let (a, bt) = operands(m, n, k);
            let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
            let split = PanelSplit::plan(profile, m, &pb, sched.tile_m, sched.tile_n);
            let used = participants(profile, 2 * m * n * k).min(split.tasks());
            let mut library: Option<Vec<f32>> = None;
            for (driver, name) in DRIVERS.iter().enumerate() {
                let time = |out: &mut [f32]| {
                    measure(warmup, iters, || {
                        for _ in 0..reps {
                            run_driver(driver, &a, &pb, m, out);
                        }
                        std::hint::black_box(&*out);
                    })
                };
                let mut serial = vec![f32::NAN; m * n];
                let t_serial = with_forced_participants(1, || time(&mut serial));
                let mut pooled = vec![f32::NAN; m * n];
                let t_pool = time(&mut pooled);
                assert!(
                    serial
                        .iter()
                        .zip(&pooled)
                        .all(|(s, p)| s.to_bits() == p.to_bits()),
                    "{name} m={m} k={k} n={n}: pool output differs from one participant"
                );
                let want = library.get_or_insert_with(|| pooled.clone());
                assert!(
                    want.iter()
                        .zip(&pooled)
                        .all(|(w, p)| w.to_bits() == p.to_bits()),
                    "{name} m={m} k={k} n={n}: output differs from gemm_packed"
                );
                let per_call = t_pool.as_secs_f64() / reps as f64;
                rows.push((
                    format!("{name} m={m} k={k} n={n}"),
                    vec![
                        2.0 * (m * n * k) as f64 / per_call / 1e9,
                        used as f64,
                        t_serial.as_secs_f64() / t_pool.as_secs_f64(),
                    ],
                ));
            }
        }
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full = std::env::args().any(|a| a == "--full");
    let (warmup, iters) = if full { (3, 9) } else { (1, 5) };

    // BERT-shaped GEMMs: n/k from hidden 256 (bench-scale BERT config) and
    // its 4× FFN, m = token counts. Smoke keeps the two shapes the
    // acceptance gate names; full adds the FFN and longer sequences.
    let shapes: Vec<(usize, usize, usize)> = if full {
        vec![
            (32, 256, 256),
            (128, 256, 256),
            (128, 1024, 256),
            (128, 256, 1024),
            (256, 256, 256),
            (384, 768, 768),
        ]
    } else {
        vec![(32, 256, 256), (128, 256, 256)]
    };
    let schedules: Vec<MatmulSchedule> = vec![
        MatmulSchedule::default(),
        MatmulSchedule {
            tile_m: 8,
            tile_n: 16,
            tile_k: 16,
        },
        MatmulSchedule {
            tile_m: 64,
            tile_n: 128,
            tile_k: 256,
        },
        MatmulSchedule {
            tile_m: 8,
            tile_n: 8,
            tile_k: 1,
        },
    ];

    let rows: Vec<SweepRow> = shapes
        .iter()
        .map(|&(m, n, k)| sweep_shape(m, n, k, warmup, iters, &schedules))
        .collect();

    let header: Vec<String> = [
        "m*n*k",
        "legacy µs",
        "packed µs",
        "speedup",
        "best µs",
        "worst µs",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| {
            (
                format!("{}x{}x{}", r.shape.0, r.shape.1, r.shape.2),
                vec![
                    r.legacy.as_secs_f64() * 1e6,
                    r.packed_default.as_secs_f64() * 1e6,
                    r.legacy.as_secs_f64() / r.packed_default.as_secs_f64(),
                    r.best.as_secs_f64() * 1e6,
                    r.worst.as_secs_f64() * 1e6,
                ],
            )
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "GEMM sweep ({}, profile {:?})",
                if full { "full" } else { "smoke" },
                default_profile()
            ),
            &header,
            &table
        )
    );
    for r in &rows {
        println!(
            "  {}x{}x{}: best {:?}, worst {:?} ({:.2}x apart)",
            r.shape.0,
            r.shape.1,
            r.shape.2,
            r.best_sched,
            r.worst_sched,
            r.worst.as_secs_f64() / r.best.as_secs_f64().max(1e-12),
        );
    }

    let short = short_m_sweep(smoke, warmup, iters);
    let header: Vec<String> = ["driver, shape", "GFLOP/s", "particip.", "vs serial"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Short-m sweep ({} hardware threads)",
                ExecProfile::Server.threads()
            ),
            &header,
            &short
        )
    );

    // Timing assertions stay out of CI (`--smoke` machines are noisy);
    // correctness is asserted per-schedule inside the sweeps above.
    if !smoke {
        let wins = rows.iter().filter(|r| r.packed_default < r.legacy).count();
        println!(
            "packed(default) beats legacy on {wins}/{} shapes",
            rows.len()
        );
    }
}
