//! Experiment drivers — one function per paper table/figure.
//!
//! Benchmark model sizes are reduced relative to the paper (documented in
//! EXPERIMENTS.md): the kernel substrate is naive Rust on one core, so the
//! paper's exact sizes would make the sweep take hours without changing
//! any system-relative comparison.

use crate::harness::{measure, render_table, us_per_token, Effort, Platform};
use crate::systems;
use crate::workload;
use nimble_codegen::symbolic::{dense_symbolic_packed, DispatchLevel};
use nimble_core::{compile, CompileOptions, StaticGraph};
use nimble_device::{DeviceId, DeviceSet};
use nimble_frameworks::eager;
use nimble_models::{
    cv, BertConfig, BertModel, LstmConfig, LstmModel, TreeLstmConfig, TreeLstmModel,
};
use nimble_tensor::kernels::gemm::PackedB;
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::pool::default_profile;
use nimble_tensor::Tensor;
use nimble_vm::{Object, VirtualMachine};
use std::sync::Arc;
use std::time::Instant;

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// Table caption.
    pub title: String,
    /// Column headers (first column is the system name).
    pub header: Vec<String>,
    /// One row per measured system.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Free-form notes appended under the table.
    pub notes: Vec<String>,
}

impl TableResult {
    /// Render as markdown-ish text.
    pub fn render(&self) -> String {
        let mut s = render_table(&self.title, &self.header, &self.rows);
        for n in &self.notes {
            s.push_str(&format!("> {n}\n"));
        }
        s
    }
}

fn bench_lstm_config(layers: usize) -> LstmConfig {
    // Reduced from the paper's 300/512: with equal-quality kernels in every
    // system, the paper's framework-overhead effects only surface in the
    // overhead-visible regime (see EXPERIMENTS.md).
    LstmConfig {
        input: 32,
        hidden: 32,
        layers,
        seed: 42,
    }
}

fn bench_tree_config() -> TreeLstmConfig {
    TreeLstmConfig {
        input: 64,
        hidden: 64,
        classes: 5,
        seed: 42,
    }
}

fn bench_bert_config() -> BertConfig {
    BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: 42,
    }
}

/// Table 1: LSTM inference latency (µs/token) across systems and
/// platforms, for 1- and 2-layer models.
pub fn table1_lstm(effort: Effort) -> Vec<TableResult> {
    let mut out = Vec::new();
    for layers in [1usize, 2] {
        let model = LstmModel::new(bench_lstm_config(layers));
        let lengths = workload::mrpc_lengths(effort.samples, 7);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let sentences: Vec<Vec<Tensor>> = lengths
            .iter()
            .map(|&l| model.random_tokens(&mut rng, l))
            .collect();
        let tokens = workload::total_tokens(&lengths);

        let platforms = [Platform::Intel, Platform::Nvidia, Platform::Arm];
        let mut rows: Vec<(String, Vec<f64>)> = vec![
            ("Nimble".into(), Vec::new()),
            ("PT".into(), Vec::new()),
            ("MX".into(), Vec::new()),
            ("TF".into(), Vec::new()),
        ];
        for platform in platforms {
            platform.apply();
            let gpu = platform.uses_gpu();
            // Nimble.
            let mut nimble = systems::NimbleLstm::new(&model, gpu);
            let d = measure(effort.warmup, effort.iters, || {
                for s in &sentences {
                    std::hint::black_box(nimble.run(s));
                }
            });
            rows[0].1.push(us_per_token(d, tokens));
            // PyTorch stand-in.
            let stream = systems::baseline_stream(gpu);
            let d = measure(effort.warmup, effort.iters, || {
                for s in &sentences {
                    std::hint::black_box(systems::pytorch_lstm(&model, s, stream.clone()));
                }
            });
            rows[1].1.push(us_per_token(d, tokens));
            // MXNet stand-in (foreach).
            let mx = systems::mxnet_lstm_session(&model);
            let mx_stream = systems::baseline_stream(gpu);
            let d = measure(effort.warmup, effort.iters, || {
                for s in &sentences {
                    std::hint::black_box(mx.run_with(s, mx_stream.as_deref()));
                }
            });
            rows[2].1.push(us_per_token(d, tokens));
            // TensorFlow stand-in (while_loop + gather).
            let tf = systems::tensorflow_lstm_session(&model);
            let tf_stream = systems::baseline_stream(gpu);
            let d = measure(effort.warmup, effort.iters, || {
                for s in &sentences {
                    std::hint::black_box(tf.run_with(s, tf_stream.as_deref()));
                }
            });
            rows[3].1.push(us_per_token(d, tokens));
        }
        Platform::Intel.apply();
        out.push(TableResult {
            title: format!(
                "Table 1 ({layers} layer{}): LSTM latency, µs/token",
                if layers > 1 { "s" } else { "" }
            ),
            header: vec!["system".into(), "Intel".into(), "NV".into(), "ARM".into()],
            rows,
            notes: vec![format!(
                "input {} / hidden {}, {} MRPC-like sentences, {} tokens total",
                model.config.input,
                model.config.hidden,
                lengths.len(),
                tokens
            )],
        });
    }
    out
}

/// Table 2: Tree-LSTM latency (µs/token) on Intel and ARM.
pub fn table2_tree_lstm(effort: Effort) -> TableResult {
    let model = TreeLstmModel::new(bench_tree_config());
    let sizes = workload::sst_leaf_counts(effort.samples, 13);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    let trees: Vec<_> = sizes
        .iter()
        .map(|&n| model.random_tree(&mut rng, n))
        .collect();
    let tokens: usize = trees.iter().map(|t| t.num_nodes()).sum();

    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("Nimble".into(), Vec::new()),
        ("PyTorch".into(), Vec::new()),
        ("TF Fold".into(), Vec::new()),
    ];
    for platform in [Platform::Intel, Platform::Arm] {
        platform.apply();
        let mut nimble = systems::NimbleTreeLstm::new(&model, false);
        let d = measure(effort.warmup, effort.iters, || {
            for t in &trees {
                std::hint::black_box(nimble.run(t));
            }
        });
        rows[0].1.push(us_per_token(d, tokens));
        let d = measure(effort.warmup, effort.iters, || {
            for t in &trees {
                std::hint::black_box(eager::tree_lstm_forward(&model, t));
            }
        });
        rows[1].1.push(us_per_token(d, tokens));
        let d = measure(effort.warmup, effort.iters, || {
            for t in &trees {
                std::hint::black_box(systems::fold_tree_lstm(&model, t, None));
            }
        });
        rows[2].1.push(us_per_token(d, tokens));
    }
    Platform::Intel.apply();
    TableResult {
        title: "Table 2: Tree-LSTM latency, µs/token".into(),
        header: vec!["system".into(), "Intel".into(), "ARM".into()],
        rows,
        notes: vec![format!(
            "input {} / hidden {}, {} SST-like trees, {} nodes total",
            model.config.input,
            model.config.hidden,
            trees.len(),
            tokens
        )],
    }
}

/// Table 3: BERT latency (µs/token) across systems and platforms.
pub fn table3_bert(effort: Effort) -> TableResult {
    let model = BertModel::new(bench_bert_config());
    let lengths = workload::mrpc_lengths(effort.samples, 23);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(29);
    let inputs: Vec<Vec<i64>> = lengths
        .iter()
        .map(|&l| model.random_tokens(&mut rng, l))
        .collect();
    let tokens = workload::total_tokens(&lengths);

    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("Nimble".into(), Vec::new()),
        ("PyTorch".into(), Vec::new()),
        ("MXNet".into(), Vec::new()),
        ("TensorFlow".into(), Vec::new()),
    ];
    for platform in [Platform::Intel, Platform::Nvidia, Platform::Arm] {
        platform.apply();
        let gpu = platform.uses_gpu();
        let mut nimble = systems::NimbleBert::new(&model, gpu);
        let d = measure(effort.warmup, effort.iters, || {
            for ids in &inputs {
                std::hint::black_box(nimble.run(&model, ids));
            }
        });
        rows[0].1.push(us_per_token(d, tokens));
        let stream = systems::baseline_stream(gpu);
        let d = measure(effort.warmup, effort.iters, || {
            for ids in &inputs {
                std::hint::black_box(eager::bert_forward_with(&model, ids, stream.clone()));
            }
        });
        rows[1].1.push(us_per_token(d, tokens));
        // MXNet: bucketing executor rebinds per fresh length. Rebuild the
        // executor per measured iteration so bind costs recur as they do
        // across real request streams.
        let mx_stream = systems::baseline_stream(gpu);
        let d = measure(effort.warmup, effort.iters, || {
            let mut mx = systems::MxNetBert::new(&model);
            for ids in &inputs {
                std::hint::black_box(mx.run(ids, mx_stream.as_deref()));
            }
        });
        rows[2].1.push(us_per_token(d, tokens));
        let tf = nimble_frameworks::graphflow::BertSession::build(&model);
        let tf_stream = systems::baseline_stream(gpu);
        let d = measure(effort.warmup, effort.iters, || {
            for ids in &inputs {
                let (tok, pos) = model.inputs(ids);
                std::hint::black_box(tf.run_with(&tok, &pos, tf_stream.as_deref()));
            }
        });
        rows[3].1.push(us_per_token(d, tokens));
    }
    Platform::Intel.apply();
    TableResult {
        title: "Table 3: BERT latency, µs/token".into(),
        header: vec!["system".into(), "Intel".into(), "NV".into(), "ARM".into()],
        rows,
        notes: vec![format!(
            "BERT config {:?}; {} sentences, {} tokens",
            model.config,
            lengths.len(),
            tokens
        )],
    }
}

/// Table 4: Nimble-vs-static overhead on a fixed-length BERT, with the
/// kernel/others breakdown from the VM profiler.
pub fn table4_overhead(effort: Effort, seq_len: usize) -> TableResult {
    let model = BertModel::new(bench_bert_config());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(31);
    let ids = model.random_tokens(&mut rng, seq_len);
    let (tok, pos) = model.inputs(&ids);

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for platform in [Platform::Intel, Platform::Arm, Platform::Nvidia] {
        platform.apply();
        let gpu = platform.uses_gpu();
        // TVM-style static baseline (CPU executor; the paper's TVM static
        // numbers are per-device, our static executor is host-only, so the
        // GPU row reports the host static time as its comparator).
        let static_graph =
            StaticGraph::compile(&model.module_static(seq_len), true).expect("static compile");
        let tvm = measure(effort.warmup, effort.iters, || {
            std::hint::black_box(static_graph.run(&[tok.clone(), pos.clone()]).expect("run"));
        });
        // Nimble with profiling.
        let mut nimble = systems::NimbleBert::new(&model, gpu);
        nimble.vm_mut().set_profiling(true);
        let total = measure(effort.warmup, effort.iters, || {
            std::hint::black_box(nimble.run(&model, &ids));
        });
        let report = nimble.vm_mut().profile_report();
        let runs = (effort.warmup + effort.iters) as u64;
        let kernel_ms = report.kernel_ns as f64 / runs as f64 / 1e6;
        let others_ms = report.others_total_ns() as f64 / runs as f64 / 1e6;
        rows.push((
            platform.label().to_string(),
            vec![
                tvm.as_secs_f64() * 1e3,
                total.as_secs_f64() * 1e3,
                kernel_ms,
                others_ms,
            ],
        ));
    }
    Platform::Intel.apply();
    TableResult {
        title: format!("Table 4: BERT latency (seq {seq_len}), TVM-static vs Nimble, ms"),
        header: vec![
            "device".into(),
            "TVM lat.".into(),
            "Nimble lat.".into(),
            "kernel lat.".into(),
            "others".into(),
        ],
        rows,
        notes: vec!["kernel/others from the VM profiler, averaged per run".into()],
    }
}

/// Figure 3: relative latency of symbolic codegen vs static codegen for
/// three dense operators at each dispatch level.
pub fn figure3_symbolic(effort: Effort) -> TableResult {
    let cfg = bench_bert_config();
    let shapes: [(usize, usize); 3] = [
        (cfg.hidden, cfg.hidden), // attention projection
        (cfg.ffn, cfg.hidden),    // FFN expand
        (cfg.hidden, cfg.ffn),    // FFN project
    ];
    // Dynamic row counts drawn from the sequence-length distribution.
    let ms = workload::mrpc_lengths(effort.samples.max(8), 37);
    let levels = [
        DispatchLevel::Static,
        DispatchLevel::Dispatch8,
        DispatchLevel::Dispatch4,
        DispatchLevel::Dispatch2,
        DispatchLevel::NoDispatch,
    ];
    let mut rows = Vec::new();
    for (idx, &(n, k)) in shapes.iter().enumerate() {
        let x_max = *ms.iter().max().expect("nonempty") * k;
        let xbuf: Vec<f32> = (0..x_max).map(|i| (i % 17) as f32 * 0.05).collect();
        let wt: Vec<f32> = (0..n * k).map(|i| (i % 13) as f32 * 0.05).collect();
        // Weights are packed once, at "compile time", as SymbolicDense does.
        let tile_k = MatmulSchedule::for_profile(default_profile()).tile_k;
        let pb = PackedB::pack_bt(&wt, n, k, tile_k);
        let mut latencies = Vec::new();
        for level in levels {
            let d = measure(effort.warmup, effort.iters, || {
                for &m in &ms {
                    let mut out = vec![0.0f32; m * n];
                    dense_symbolic_packed(&xbuf[..m * k], &pb, m, &mut out, level, None);
                    std::hint::black_box(&out);
                }
            });
            latencies.push(d.as_secs_f64());
        }
        let base = latencies[0];
        rows.push((
            format!("Dense{} [{}x{}]", idx + 1, n, k),
            latencies.iter().map(|l| 100.0 * l / base).collect(),
        ));
    }
    TableResult {
        title: "Figure 3: symbolic vs static dense codegen, relative latency (%)".into(),
        header: vec![
            "kernel".into(),
            "static".into(),
            "disp/8".into(),
            "disp/4".into(),
            "disp/2".into(),
            "no disp".into(),
        ],
        rows,
        notes: vec![format!(
            "row counts from the MRPC-like length distribution {:?}",
            &ms[..ms.len().min(8)]
        )],
    }
}

/// Section 6.3 memory-planning study: allocation reduction on dynamic BERT
/// plus footprint vs the static planner on the CV models.
pub fn memplan_study(effort: Effort) -> Vec<TableResult> {
    let mut out = Vec::new();

    // Part A: buffer allocations and allocation cost on BERT. Storage
    // coalescing applies to statically sized allocations, so measure it on
    // the fixed-length module (the paper's microbenchmark uses sequence
    // length 128); the dynamic module below exercises pooled runtime
    // allocation.
    let model = BertModel::new(bench_bert_config());
    let module = model.module();
    let static_module = model.module_static(32);
    let (_, with) = compile(&static_module, &CompileOptions::default()).expect("compile");
    let (_, without) = compile(
        &static_module,
        &CompileOptions {
            coalesce: false,
            ..CompileOptions::default()
        },
    )
    .expect("compile");
    let reduction = 100.0
        * (1.0 - with.memplan.storages as f64 / with.memplan.storages_uncoalesced.max(1) as f64);
    let mut rows = vec![
        (
            "planned (coalesced)".into(),
            vec![
                with.memplan.storages as f64,
                with.memplan.planned_bytes as f64 / 1024.0,
            ],
        ),
        (
            "unplanned".into(),
            vec![
                without.memplan.storages as f64,
                without.memplan.planned_bytes as f64 / 1024.0,
            ],
        ),
    ];

    // Runtime effect: pooled vs unpooled allocation latency over a run.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(41);
    let ids = model.random_tokens(&mut rng, 32);
    let (exe, _) = compile(&module, &CompileOptions::default()).expect("compile");
    let mut alloc_lat = Vec::new();
    for pooling in [true, false] {
        let devices = Arc::new(DeviceSet::cpu_only());
        devices.set_pooling(pooling);
        let vm = VirtualMachine::new(exe.clone(), Arc::clone(&devices)).expect("vm");
        let (tok, pos) = model.inputs(&ids);
        let d = measure(effort.warmup, effort.iters, || {
            std::hint::black_box(
                vm.run(
                    "main",
                    vec![Object::tensor(tok.clone()), Object::tensor(pos.clone())],
                )
                .expect("run"),
            );
        });
        let stats = devices.pool(DeviceId::Cpu).stats();
        alloc_lat.push((pooling, d, stats));
    }
    rows.push((
        "run w/ pooling".into(),
        vec![
            alloc_lat[0].2.allocs as f64,
            alloc_lat[0].1.as_secs_f64() * 1e3,
        ],
    ));
    rows.push((
        "run w/o pooling".into(),
        vec![
            alloc_lat[1].2.allocs as f64,
            alloc_lat[1].1.as_secs_f64() * 1e3,
        ],
    ));
    out.push(TableResult {
        title: "Memory planning (BERT): storage allocations and cost".into(),
        header: vec!["config".into(), "allocs".into(), "KiB | ms".into()],
        rows,
        notes: vec![
            format!("coalescing removes {reduction:.0}% of storage allocations (paper: 47%)"),
            format!(
                "pool hit rate with pooling: {:.0}%",
                100.0 * alloc_lat[0].2.pool_hits as f64 / alloc_lat[0].2.allocs.max(1) as f64
            ),
        ],
    });

    // Part B: footprint vs the static planner on CV models.
    let mut rows = Vec::new();
    for (name, module) in cv::all_models(3) {
        let graph = StaticGraph::compile(&module, true).expect("static compile");
        let (exe, _) = compile(&module, &CompileOptions::default()).expect("compile");
        let devices = Arc::new(DeviceSet::cpu_only());
        let vm = VirtualMachine::new(exe, Arc::clone(&devices)).expect("vm");
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(43);
        let img = Tensor::rand_f32(&mut rng, &[1, 3, 32, 32], 1.0);
        vm.run("main", vec![Object::tensor(img)]).expect("run");
        let nimble_peak = devices.pool(DeviceId::Cpu).stats().peak_live_bytes;
        let static_bytes = graph.arena_bytes();
        let overhead = 100.0 * (nimble_peak as f64 / static_bytes.max(1) as f64 - 1.0);
        rows.push((
            name.to_string(),
            vec![
                static_bytes as f64 / 1024.0,
                nimble_peak as f64 / 1024.0,
                overhead,
            ],
        ));
    }
    out.push(TableResult {
        title: "Memory footprint: static plan vs Nimble pool peak (KiB)".into(),
        header: vec![
            "model".into(),
            "TVM-static".into(),
            "Nimble".into(),
            "overhead %".into(),
        ],
        rows,
        notes: vec!["paper reports up to 8% additional footprint".into()],
    });
    out
}

/// Total time helper for binaries.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let r = f();
    eprintln!("[{name}] finished in {:.1}s", start.elapsed().as_secs_f64());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Effort {
        Effort {
            samples: 2,
            iters: 1,
            warmup: 0,
        }
    }

    #[test]
    fn figure3_shape_holds() {
        let t = figure3_symbolic(smoke());
        assert_eq!(t.rows.len(), 3);
        for (name, vals) in &t.rows {
            assert_eq!(vals.len(), 5, "{name}");
            // static is the 100% baseline.
            assert!((vals[0] - 100.0).abs() < 1e-9);
            assert!(vals.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn memplan_study_produces_tables() {
        let tables = memplan_study(smoke());
        assert_eq!(tables.len(), 2);
        // Coalescing reduces allocations.
        let bert = &tables[0];
        let planned = bert.rows[0].1[0];
        let unplanned = bert.rows[1].1[0];
        assert!(planned < unplanned, "{planned} vs {unplanned}");
        // CV table has all four model families.
        assert_eq!(tables[1].rows.len(), 4);
    }

    #[test]
    fn table4_runs_and_reports_breakdown() {
        let t = table4_overhead(smoke(), 8);
        assert_eq!(t.rows.len(), 3);
        for (_, vals) in &t.rows {
            // kernel + others <= total (within measurement noise), all > 0.
            assert!(vals.iter().all(|v| *v >= 0.0));
        }
    }
}
