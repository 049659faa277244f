//! SIMD sweep: the vectorized math kernels and the width-generic GEMM
//! microkernel against the forced-scalar backend, on the same inputs.
//!
//! Correctness is asserted on every run, regardless of flags:
//! * GEMM output must be **bitwise identical** between the scalar backend
//!   and the best detected backend (the microkernel contract);
//! * every transcendental must stay within its documented ULP contract
//!   against the libm reference.
//!
//! Timing gates:
//! * `--smoke` — CI-sized; additionally asserts that at least one kernel
//!   shows a nonzero speedup over forced-scalar (a vector backend that is
//!   *never* faster means dispatch is broken).
//! * `--full`  — the numbers recorded in EXPERIMENTS.md; gates ≥2× on at
//!   least one vecmath kernel and ≥1.3× on the BERT-shape GEMM.
//!
//! A `--full` run writes its results to `BENCH_simd.json`.

use nimble_bench::harness::{measure, render_table};
use nimble_simd::vecmath::{
    layer_norm_strip, softmax_strip, unary_slice, within_contract, UnaryOp,
};
use nimble_simd::Isa;
use nimble_tensor::kernels::gemm::{gemm_packed_with_isa, Epilogue, PackedB};
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::pool::default_profile;
use std::time::Duration;

struct Row {
    name: String,
    scalar: Duration,
    simd: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar.as_secs_f64() / self.simd.as_secs_f64().max(1e-12)
    }
}

fn inputs(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i % 97) as f32 - 48.0) * 0.13).collect()
}

/// Bench one unary op at both backends; asserts the ULP contract on the
/// vectorized result against the libm reference.
fn bench_unary(op: UnaryOp, best: Isa, len: usize, warmup: usize, iters: usize) -> Row {
    let src = inputs(len);
    let mut buf = src.clone();

    let mut check = src.clone();
    unary_slice(best, op, &mut check);
    for (i, (&x, &y)) in src.iter().zip(check.iter()).enumerate() {
        let want = op.apply_scalar(x);
        assert!(
            within_contract(op, y, want),
            "{op:?}@{best:?}: [{i}] x={x} got={y} want={want}"
        );
    }

    let scalar = measure(warmup, iters, || {
        buf.copy_from_slice(&src);
        unary_slice(Isa::Scalar, op, &mut buf);
        std::hint::black_box(&buf);
    });
    let simd = measure(warmup, iters, || {
        buf.copy_from_slice(&src);
        unary_slice(best, op, &mut buf);
        std::hint::black_box(&buf);
    });
    Row {
        name: format!("{op:?}").to_lowercase(),
        scalar,
        simd,
    }
}

fn bench_rows(name: &str, best: Isa, rows: usize, cols: usize, warmup: usize, iters: usize) -> Row {
    let src = inputs(rows * cols);
    let g = vec![1.0f32; cols];
    let b = vec![0.1f32; cols];
    let mut out = vec![0.0f32; rows * cols];
    let run = |isa: Isa, out: &mut [f32]| {
        for r in 0..rows {
            let s = &src[r * cols..(r + 1) * cols];
            let d = &mut out[r * cols..(r + 1) * cols];
            match name {
                "softmax" => softmax_strip(isa, s, d),
                _ => layer_norm_strip(isa, s, &g, &b, 1e-5, d),
            }
        }
    };

    let mut reference = vec![0.0f32; rows * cols];
    run(Isa::Scalar, &mut reference);
    run(best, &mut out);
    for (i, (&y, &w)) in out.iter().zip(reference.iter()).enumerate() {
        assert!(
            (y - w).abs() <= 1e-4 + 1e-4 * w.abs(),
            "{name}@{best:?}: [{i}] got={y} want={w}"
        );
    }

    let scalar = measure(warmup, iters, || {
        run(Isa::Scalar, &mut out);
        std::hint::black_box(&out);
    });
    let simd = measure(warmup, iters, || {
        run(best, &mut out);
        std::hint::black_box(&out);
    });
    Row {
        name: name.to_string(),
        scalar,
        simd,
    }
}

/// Bench one GEMM shape at both backends; asserts bitwise identity.
fn bench_gemm(m: usize, n: usize, k: usize, best: Isa, warmup: usize, iters: usize) -> Row {
    let profile = default_profile();
    let sched = MatmulSchedule::default().sanitized();
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i % 31) as f32 - 15.0) * 0.07)
        .collect();
    let bt: Vec<f32> = (0..n * k).map(|i| ((i % 17) as f32 - 8.0) * 0.05).collect();
    let pb = PackedB::pack_bt(&bt, n, k, sched.tile_k);
    let mut out = vec![0.0f32; m * n];
    let ep = Epilogue::NONE;

    let mut reference = vec![0.0f32; m * n];
    gemm_packed_with_isa(Isa::Scalar, profile, &a, &pb, m, &mut reference, sched, &ep);
    gemm_packed_with_isa(best, profile, &a, &pb, m, &mut out, sched, &ep);
    for (i, (g, w)) in out.iter().zip(&reference).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "gemm {m}x{n}x{k}@{best:?}: out[{i}] = {g}, scalar {w} (bitwise contract)"
        );
    }

    let scalar = measure(warmup, iters, || {
        gemm_packed_with_isa(Isa::Scalar, profile, &a, &pb, m, &mut out, sched, &ep);
        std::hint::black_box(&out);
    });
    let simd = measure(warmup, iters, || {
        gemm_packed_with_isa(best, profile, &a, &pb, m, &mut out, sched, &ep);
        std::hint::black_box(&out);
    });
    Row {
        name: format!("gemm {m}x{n}x{k}"),
        scalar,
        simd,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full = std::env::args().any(|a| a == "--full");
    let best = nimble_simd::detect_best();
    if best == Isa::Scalar {
        println!("simd_sweep: no vector backend on this host; nothing to compare");
        return;
    }

    let (warmup, iters) = if full { (5, 25) } else { (2, 7) };
    let len = if full { 1 << 16 } else { 1 << 12 };
    let (rrows, rcols) = if full { (64, 1024) } else { (16, 256) };

    let mut rows: Vec<Row> = [UnaryOp::Tanh, UnaryOp::Sigmoid, UnaryOp::Exp, UnaryOp::Gelu]
        .into_iter()
        .map(|op| bench_unary(op, best, len, warmup, iters))
        .collect();
    rows.push(bench_rows("softmax", best, rrows, rcols, warmup, iters));
    rows.push(bench_rows("layer_norm", best, rrows, rcols, warmup, iters));

    // BERT-shape GEMM (the acceptance gate) plus a short-m decode shape.
    let gemm_shapes: &[(usize, usize, usize)] = if full {
        &[(128, 256, 256), (8, 256, 256), (128, 1024, 256)]
    } else {
        &[(128, 256, 256), (8, 256, 256)]
    };
    let gemm_start = rows.len();
    for &(m, n, k) in gemm_shapes {
        rows.push(bench_gemm(m, n, k, best, warmup, iters));
    }

    let header: Vec<String> = ["kernel", "scalar µs", "simd µs", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                vec![
                    r.scalar.as_secs_f64() * 1e6,
                    r.simd.as_secs_f64() * 1e6,
                    r.speedup(),
                ],
            )
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "SIMD sweep ({}, scalar vs {})",
                if full { "full" } else { "smoke" },
                best.label()
            ),
            &header,
            &table
        )
    );

    let mut json = String::from("{\n  \"bench\": \"simd_sweep\",\n");
    json.push_str(&format!(
        "  \"effort\": \"{}\",\n  \"backend\": \"{}\",\n  \"kernels\": [\n",
        if full { "full" } else { "smoke" },
        best.label()
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_us\": {:.2}, \"simd_us\": {:.2}, \"speedup\": {:.2}}}{}\n",
            r.name,
            r.scalar.as_secs_f64() * 1e6,
            r.simd.as_secs_f64() * 1e6,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"gemm_outputs\": \"bitwise-identical\",\n");
    json.push_str("  \"vecmath_outputs\": \"within documented ULP contract\"\n}\n");
    // Only a full run updates the committed trajectory.
    if full {
        std::fs::write("BENCH_simd.json", json).expect("write BENCH_simd.json");
        println!("wrote BENCH_simd.json");
    }

    // Timing gates. Smoke keeps the weakest possible claim (noisy CI
    // boxes): *some* kernel must beat forced-scalar.
    let best_vec = rows[..gemm_start]
        .iter()
        .map(Row::speedup)
        .fold(0.0, f64::max);
    let any = rows.iter().map(Row::speedup).fold(0.0, f64::max);
    if smoke {
        assert!(
            any > 1.0,
            "vector backend {best:?} never beat forced-scalar (max {any:.2}x)"
        );
    }
    if full {
        assert!(
            best_vec >= 2.0,
            "no vecmath kernel reached 2x over forced-scalar (best {best_vec:.2}x)"
        );
        let bert = rows[gemm_start].speedup();
        assert!(
            bert >= 1.3,
            "BERT-shape GEMM below 1.3x over forced-scalar ({bert:.2}x)"
        );
    }
    println!("simd_sweep: OK");
}
