//! Property tests for the engine's request queue: whatever the worker
//! count, queue capacity, batch size, or arrival order, no request is
//! dropped, duplicated, or paired with the wrong reply.
//!
//! Each request is tagged by encoding a distinct value in its input
//! tensor; the model adds one, so ticket `i` must resolve to `tag(i) + 1`
//! and nothing else.

use nimble_core::{compile, CompileOptions, Engine, EngineConfig};
use nimble_device::DeviceSet;
use nimble_ir::attrs::Attrs;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::Module;
use nimble_tensor::{DType, Tensor};
use nimble_vm::{Object, VirtualMachine};
use proptest::prelude::*;
use std::sync::Arc;

fn add_one_vm() -> Arc<VirtualMachine> {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::new(&[2], DType::F32));
    let one = fb.constant(Tensor::ones_f32(&[2]));
    let y = fb.call("add", vec![x, one], Attrs::new());
    let mut module = Module::new();
    module.add_function("main", fb.finish(y));
    let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
    Arc::new(VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap())
}

fn tag_input(tag: u32) -> Vec<Object> {
    vec![Object::tensor(
        Tensor::from_vec_f32(vec![tag as f32, tag as f32 + 0.5], &[2]).unwrap(),
    )]
}

fn check_tag(tag: u32, out: &Tensor) {
    assert_eq!(
        out.as_f32().unwrap(),
        &[tag as f32 + 1.0, tag as f32 + 1.5],
        "reply mis-paired for tag {tag}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential submission: every tag comes back exactly once on its
    /// own ticket, for arbitrary engine shapes.
    #[test]
    fn no_request_lost_or_mispaired(
        workers in 1usize..6,
        queue_capacity in 1usize..16,
        max_batch in 1usize..8,
        requests in 1usize..48,
    ) {
        let engine = Engine::new(
            add_one_vm(),
            EngineConfig { workers, queue_capacity, max_batch },
        ).unwrap();
        let tickets: Vec<_> = (0..requests as u32)
            .map(|tag| (tag, engine.submit("main", tag_input(tag), None)))
            .collect();
        for (tag, ticket) in tickets {
            let done = ticket.wait().unwrap();
            let out = done.result.unwrap().wait_tensor().unwrap();
            check_tag(tag, &out);
        }
        prop_assert_eq!(engine.stats().completed, requests as u64);
    }

    /// Racy arrival order: several submitter threads interleave their
    /// submissions nondeterministically; pairing must still hold and the
    /// completed count must equal the total submitted.
    #[test]
    fn concurrent_submitters_never_cross_replies(
        workers in 1usize..5,
        queue_capacity in 1usize..8,
        submitters in 2usize..5,
        per_submitter in 1usize..16,
    ) {
        let engine = Arc::new(Engine::new(
            add_one_vm(),
            EngineConfig { workers, queue_capacity, max_batch: 4 },
        ).unwrap());
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for r in 0..per_submitter {
                        let tag = (s * 1000 + r) as u32;
                        // submit() blocks on a full queue: backpressure is
                        // part of the arrival-order nondeterminism here.
                        let done = engine.submit("main", tag_input(tag), None).wait().unwrap();
                        let out = done.result.unwrap().wait_tensor().unwrap();
                        check_tag(tag, &out);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(
            engine.stats().completed,
            (submitters * per_submitter) as u64
        );
    }
}
