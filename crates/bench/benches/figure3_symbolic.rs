//! Criterion bench behind Figure 3: dense kernel latency per dispatch
//! level on a non-multiple-of-8 row count, weights packed once outside the
//! timed region.

use criterion::{criterion_group, criterion_main, Criterion};
use nimble_codegen::symbolic::{dense_symbolic_packed, DispatchLevel};
use nimble_tensor::kernels::gemm::PackedB;
use nimble_tensor::kernels::MatmulSchedule;

fn bench(c: &mut Criterion) {
    let (m, n, k) = (27usize, 256usize, 64usize); // m % 8 = 3 tail
    let x: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 * 0.05).collect();
    let wt: Vec<f32> = (0..n * k).map(|i| (i % 13) as f32 * 0.05).collect();
    let pb = PackedB::pack_bt(&wt, n, k, MatmulSchedule::default().tile_k);
    let mut group = c.benchmark_group("figure3_symbolic");
    for level in [
        DispatchLevel::Static,
        DispatchLevel::Dispatch8,
        DispatchLevel::Dispatch4,
        DispatchLevel::Dispatch2,
        DispatchLevel::NoDispatch,
    ] {
        group.bench_function(level.label(), |b| {
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                dense_symbolic_packed(&x, &pb, m, &mut out, level, None);
                out
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
