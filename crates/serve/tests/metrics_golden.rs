//! Golden test for the `/metrics` surface: a two-model stack (one
//! batched, one specializing) must expose exactly the checked-in set of
//! families, each with its kind and label keys, so a family cannot
//! silently vanish, change kind, or lose a label.
//!
//! One `#[test]`: the trace mode is process-global. To accept an
//! intended change, copy the "got" block from the failure message into
//! `metrics_golden.txt`.

use nimble_core::{CompileOptions, EngineConfig};
use nimble_ir::attrs::Attrs;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::Module;
use nimble_models::data::list_object;
use nimble_models::{LstmConfig, LstmModel};
use nimble_obs::TraceMode;
use nimble_serve::{ModelRegistry, RegistryConfig, Router, RouterConfig, SpecializeConfig};
use nimble_tensor::{DType, Tensor};
use nimble_vm::{BatchConfig, Object};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// `main(x: [?, 8])`: one dense anchor, so the specializer attaches.
fn dense_module() -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::with_any(&[None, Some(8)], DType::F32));
    let w = fb.constant(
        Tensor::from_vec_f32((0..64).map(|i| i as f32 * 0.01).collect(), &[8, 8]).unwrap(),
    );
    let h = fb.call("dense", vec![x, w], Attrs::new());
    let y = fb.call("tanh", vec![h], Attrs::new());
    let mut m = Module::new();
    m.add_function("main", fb.finish(y));
    m
}

/// `name kind key,key,...` per family, sorted by name. Sample lines fold
/// into their family by stripping `_bucket`/`_sum`/`_count`.
fn family_lines(prom: &str) -> Vec<String> {
    let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            kinds.insert(name, kind);
        }
    }
    let mut keys: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let name_end = line.find(['{', ' ']).expect("sample line has a value");
        let name = &line[..name_end];
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|s| name.strip_suffix(s))
            .find(|f| kinds.contains_key(f))
            .unwrap_or(name);
        assert!(kinds.contains_key(family), "sample without TYPE: {line}");
        let set = keys.entry(family).or_default();
        if line[name_end..].starts_with('{') {
            let labels = &line[name_end + 1..line.find('}').expect("closing brace")];
            for pair in labels.split("\",") {
                set.insert(pair.split_once('=').expect("label has a value").0);
            }
        }
    }
    kinds
        .iter()
        .map(|(name, kind)| {
            let keys: Vec<&str> = keys
                .get(name)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            format!("{name} {kind} {}", keys.join(","))
                .trim_end()
                .to_string()
        })
        .collect()
}

#[test]
fn metrics_families_match_golden() {
    nimble_obs::set_mode(TraceMode::Tail);
    nimble_obs::reset();

    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 8,
        },
        specialize: Some(SpecializeConfig {
            hit_threshold: 2,
            max_trials: 4,
            repeats: 1,
            ..SpecializeConfig::default()
        }),
        ..RegistryConfig::default()
    }));
    let lstm = LstmModel::new(LstmConfig {
        input: 4,
        hidden: 4,
        layers: 1,
        seed: 7,
    });
    let plan = lstm.batch_plan(BatchConfig {
        buckets: vec![2, 4, 8],
        min_batch: 2,
        max_batch: 8,
        max_wait: Duration::from_micros(200),
    });
    registry
        .register_with_batch(
            "lstm",
            "v1",
            &lstm.module_batched(&[2, 4, 8]),
            &CompileOptions::default(),
            Some(Arc::new(plan)),
        )
        .unwrap();
    registry
        .register("densey", "v1", &dense_module(), &CompileOptions::default())
        .unwrap();
    let router = Router::new(Arc::clone(&registry), RouterConfig::default());

    let mut rng = StdRng::seed_from_u64(7);
    for len in [3usize, 3, 5, 5] {
        let tokens = list_object(&lstm.random_tokens(&mut rng, len));
        router.submit("lstm", vec![tokens]).unwrap().wait().unwrap();
    }
    let x = || vec![Object::tensor(Tensor::ones_f32(&[3, 8]))];
    for _ in 0..3 {
        router.submit("densey", x()).unwrap().wait().unwrap();
    }
    let entry = registry.get("densey").unwrap();
    entry.specializer().expect("specializer attached").quiesce();
    router.submit("densey", x()).unwrap().wait().unwrap();

    let prom = router.prometheus();
    nimble_obs::set_mode(TraceMode::Off);

    // First sight of a shape is always retained in tail mode, so the
    // latency ladder carries at least one exemplar, in OpenMetrics syntax.
    let exemplar = prom
        .lines()
        .find(|l| l.contains(" # {trace_id=\""))
        .unwrap_or_else(|| panic!("no exemplar in exposition\n{prom}"));
    assert!(
        exemplar.starts_with("nimble_serve_latency_hist_seconds_bucket{model=\""),
        "unexpected exemplar line: {exemplar}"
    );
    let (sample, ex) = exemplar.split_once(" # ").unwrap();
    assert!(sample.rsplit(' ').next().unwrap().parse::<u64>().is_ok());
    let id = ex
        .strip_prefix("{trace_id=\"")
        .and_then(|r| r.split_once("\"} "))
        .expect("exemplar syntax");
    assert!(id.0.parse::<u64>().is_ok() && id.1.parse::<f64>().is_ok());

    let got = family_lines(&prom).join("\n");
    let want = include_str!("metrics_golden.txt").trim_end();
    assert_eq!(
        got, want,
        "\n/metrics families drifted from tests/metrics_golden.txt.\n--- got ---\n{got}\n"
    );
    router.shutdown();
}
