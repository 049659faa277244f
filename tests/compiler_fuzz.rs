//! Differential testing of the whole compiler: random elementwise/dense
//! programs are compiled through every pipeline configuration and executed
//! on the VM; results must match direct operator-by-operator evaluation,
//! and the fused program must match the unfused one bit for bit.
//!
//! This is the strongest correctness net in the repository — it exercises
//! ANF conversion (including shared sub-DAGs), CSE/DCE, fusion grouping
//! (`split` parts read through `tuple_get`, values consumed inside and
//! outside a candidate group, multi-output groups, tuple results), the
//! fused-kernel evaluators, memory planning, coalescing, device placement,
//! lowering, and the interpreter, against an oracle that uses none of
//! them.

use nimble::compiler::{compile, CompileOptions};
use nimble::device::DeviceSet;
use nimble::ir::builder::FunctionBuilder;
use nimble::ir::op;
use nimble::ir::types::TensorType;
use nimble::ir::{AttrValue, Attrs, DType, Expr, ExprKind, Module};
use nimble::tensor::{kernels, Tensor};
use nimble::vm::{Object, VirtualMachine};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const UNARY: [&str; 5] = ["tanh", "sigmoid", "relu", "neg", "gelu"];
const BINARY: [&str; 5] = ["add", "sub", "mul", "maximum", "minimum"];

/// A random program recipe: each step picks a kind and operand indices
/// (resolved modulo the number of available values). Kinds: unary;
/// binary; `split` — a dense widening a value to two column blocks, split
/// in two, both parts read through `tuple_get`; and fan-out — a dense
/// reading a value that later steps may read too, so one value is
/// consumed inside and outside a candidate group.
#[derive(Debug, Clone)]
struct Recipe {
    steps: Vec<(u8, u8, u8)>,
    dense_at: Option<u8>,
    rows: usize,
    /// Return the last two values as a tuple.
    pair: bool,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        proptest::option::of(any::<u8>()),
        1usize..9,
        any::<bool>(),
    )
        .prop_map(|(steps, dense_at, rows, pair)| Recipe {
            steps,
            dense_at,
            rows,
            pair,
        })
}

/// Step kinds, from a step's op byte modulo 10; other values are unary
/// (even) or binary (odd).
const SPLIT: u8 = 8;
const FAN_OUT: u8 = 9;

/// One registry evaluation.
fn eval(name: &str, ins: &[Tensor]) -> Tensor {
    let def = op::lookup(name).unwrap();
    (def.execute)(ins, &Attrs::new()).unwrap().remove(0)
}

/// Build the IR function and its oracle outputs from a recipe.
fn build(recipe: &Recipe, cols: usize) -> (Module, Vec<Tensor>, Vec<Tensor>) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(recipe.rows as u64 * 31 + 7);
    let mut fb = FunctionBuilder::new("main");
    // Two dynamic-row inputs.
    let p0 = fb.param(
        "a",
        TensorType::with_any(&[None, Some(cols as u64)], DType::F32),
    );
    let p1 = fb.param(
        "b",
        TensorType::with_any(&[None, Some(cols as u64)], DType::F32),
    );
    let in0 = Tensor::rand_f32(&mut rng, &[recipe.rows, cols], 1.0);
    let in1 = Tensor::rand_f32(&mut rng, &[recipe.rows, cols], 1.0);

    let mut exprs: Vec<Expr> = vec![p0, p1];
    let mut values: Vec<Tensor> = vec![in0.clone(), in1.clone()];
    for (i, &(opk, a, b)) in recipe.steps.iter().enumerate() {
        let (ai, bi) = (a as usize % exprs.len(), b as usize % exprs.len());
        let (x, xv) = (exprs[ai].clone(), values[ai].clone());
        match opk % 10 {
            SPLIT => {
                let w = Tensor::rand_f32(&mut rng, &[2 * cols, cols], 0.3);
                let wide = Expr::call_op("dense", vec![x, Expr::constant(w.clone())], Attrs::new());
                let parts = Expr::call_op(
                    "split",
                    vec![wide],
                    Attrs::new()
                        .with("parts", AttrValue::Int(2))
                        .with("axis", AttrValue::Int(1)),
                );
                let pv = kernels::split(&kernels::dense(&xv, &w, None).unwrap(), 2, 1).unwrap();
                for (k, v) in pv.into_iter().enumerate() {
                    exprs.push(Expr::tuple_get(parts.clone(), k));
                    values.push(v);
                }
            }
            FAN_OUT => {
                let w = Tensor::rand_f32(&mut rng, &[cols, cols], 0.3);
                let d = Expr::call_op("dense", vec![x, Expr::constant(w.clone())], Attrs::new());
                exprs.push(d);
                values.push(kernels::dense(&xv, &w, None).unwrap());
            }
            k if k % 2 == 0 => {
                let name = UNARY[opk as usize % UNARY.len()];
                exprs.push(Expr::call_op(name, vec![x], Attrs::new()));
                values.push(eval(name, &[xv]));
            }
            _ => {
                let name = BINARY[opk as usize % BINARY.len()];
                let (y, yv) = (exprs[bi].clone(), values[bi].clone());
                exprs.push(Expr::call_op(name, vec![x, y], Attrs::new()));
                values.push(eval(name, &[xv, yv]));
            }
        }
        // Optionally put a dense anchor on the newest value.
        if recipe.dense_at.map(|d| d as usize % recipe.steps.len()) == Some(i) {
            let w = Tensor::rand_f32(&mut rng, &[cols, cols], 0.3);
            let last = exprs.len() - 1;
            exprs[last] = Expr::call_op(
                "dense",
                vec![exprs[last].clone(), Expr::constant(w.clone())],
                Attrs::new(),
            );
            values[last] = kernels::dense(&values[last], &w, None).unwrap();
        }
    }
    let n = exprs.len();
    let (result, expected) = if recipe.pair {
        (
            Expr::tuple(vec![exprs[n - 1].clone(), exprs[n - 2].clone()]),
            vec![values[n - 1].clone(), values[n - 2].clone()],
        )
    } else {
        (exprs[n - 1].clone(), vec![values[n - 1].clone()])
    };
    let mut module = Module::new();
    module.add_function("main", fb.finish(result));
    (module, vec![in0, in1], expected)
}

/// Compile with `opts`, run `main` on `inputs`, and return its outputs
/// (the fields of a tuple result).
fn run(module: &Module, opts: &CompileOptions, inputs: &[Tensor]) -> Vec<Tensor> {
    let (exe, _) = compile(module, opts).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let args = inputs.iter().map(|t| Object::tensor(t.clone())).collect();
    let out = vm.run("main", args).unwrap();
    match out.as_adt() {
        Ok(tuple) => tuple
            .fields
            .iter()
            .map(|f| f.wait_tensor().unwrap())
            .collect(),
        Err(_) => vec![out.wait_tensor().unwrap()],
    }
}

fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Every output has the oracle's dims and lies within 1e-3 of it.
fn close(got: &[Tensor], want: &[Tensor]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} outputs, want {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g.dims() != w.dims() {
            return Err(format!("dims {:?} vs {:?}", g.dims(), w.dims()));
        }
        for (x, y) in g.as_f32().unwrap().iter().zip(w.as_f32().unwrap()) {
            if (x - y).abs() >= 1e-3 {
                return Err(format!("{x} vs {y}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_compile_and_match_oracle(recipe in arb_recipe()) {
        let (module, inputs, expected) = build(&recipe, 4);
        let fused = run(&module, &CompileOptions::default(), &inputs);
        let unfused = run(
            &module,
            &CompileOptions { fuse: false, ..CompileOptions::default() },
            &inputs,
        );
        let unoptimized = run(
            &module,
            &CompileOptions { optimize: false, ..CompileOptions::default() },
            &inputs,
        );
        // Fusion grouping moves no bit.
        prop_assert_eq!(bits(&fused), bits(&unfused));
        for (what, got) in [("fused", &fused), ("unfused", &unfused), ("unoptimized", &unoptimized)] {
            if let Err(e) = close(got, &expected) {
                prop_assert!(false, "{}: {}", what, e);
            }
        }
    }

    /// Compiled programs have no duplicated kernel work: the number of
    /// kernel invocations is bounded by the kernels the recipe's steps
    /// need unfused (sharing must not re-expand — the regression guard for
    /// the ANF memoization bug).
    #[test]
    fn shared_subexpressions_not_duplicated(recipe in arb_recipe()) {
        let (module, inputs, _) = build(&recipe, 4);
        let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        vm.set_profiling(true);
        vm.run(
            "main",
            inputs.iter().map(|t| Object::tensor(t.clone())).collect(),
        )
        .unwrap();
        let invocations = vm.profile_report().kernel_invocations as usize;
        // One kernel per step, two for a split step, plus one for the
        // dense anchor; fusion only reduces this.
        let budget = recipe
            .steps
            .iter()
            .map(|s| if s.0 % 10 == SPLIT { 2 } else { 1 })
            .sum::<usize>()
            + 1;
        prop_assert!(
            invocations <= budget,
            "{invocations} kernels for {} steps",
            recipe.steps.len()
        );
    }
}

/// A value that leaves a candidate group and feeds back into it: `t`
/// reaches the final `add` both through `relu`, which fuses with it, and
/// through a `dense` outside its group. Putting the `add` into `t`'s group
/// would make the group feed itself; the program must compile without a
/// cycle and match, fused bit for bit equal to unfused.
#[test]
fn value_leaving_a_group_and_returning_compiles_and_matches() {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::with_any(&[None, Some(4)], DType::F32));
    let w =
        Tensor::from_vec_f32((0..16).map(|i| (i as f32 - 7.5) / 8.0).collect(), &[4, 4]).unwrap();
    let t = fb.call("tanh", vec![x], Attrs::new());
    let r = fb.call("relu", vec![t.clone()], Attrs::new());
    let wc = fb.constant(w.clone());
    let d = fb.call("dense", vec![t.clone(), wc], Attrs::new());
    let y = fb.call("add", vec![r, d], Attrs::new());
    let z = fb.call("mul", vec![y, t], Attrs::new());
    let mut module = Module::new();
    module.add_function("main", fb.finish(z));

    let input =
        Tensor::from_vec_f32((0..12).map(|i| i as f32 / 6.0 - 1.0).collect(), &[3, 4]).unwrap();
    let tv = eval("tanh", std::slice::from_ref(&input));
    let sum = eval(
        "add",
        &[
            eval("relu", std::slice::from_ref(&tv)),
            kernels::dense(&tv, &w, None).unwrap(),
        ],
    );
    let want = eval("mul", &[sum, tv]);
    let inputs = [input];
    let fused = run(&module, &CompileOptions::default(), &inputs);
    let unfused = run(
        &module,
        &CompileOptions {
            fuse: false,
            ..CompileOptions::default()
        },
        &inputs,
    );
    assert_eq!(bits(&fused), bits(&unfused));
    close(&fused, &[want]).unwrap();
}

/// Two candidate groups whose dataflow crosses: `c = add(a, b)` and
/// `d = mul(b, a)`. Once `c` joins `a`'s group, that group depends on `b`'s,
/// so `d` may not join `b`'s group as well, or each group would read the
/// other's output. The program must compile without a cycle and match,
/// fused bit for bit equal to unfused.
#[test]
fn crossing_groups_compile_and_match() {
    let mut fb = FunctionBuilder::new("main");
    let ty = || TensorType::with_any(&[None, Some(4)], DType::F32);
    let x = fb.param("x", ty());
    let y = fb.param("y", ty());
    let a = fb.call("tanh", vec![x], Attrs::new());
    let b = fb.call("relu", vec![y], Attrs::new());
    let c = fb.call("add", vec![a.clone(), b.clone()], Attrs::new());
    let d = fb.call("mul", vec![b, a], Attrs::new());
    let s = fb.call("add", vec![c, d], Attrs::new());
    let mut module = Module::new();
    module.add_function("main", fb.finish(s));

    let xv =
        Tensor::from_vec_f32((0..12).map(|i| i as f32 / 6.0 - 1.0).collect(), &[3, 4]).unwrap();
    let yv =
        Tensor::from_vec_f32((0..12).map(|i| 1.0 - i as f32 / 5.0).collect(), &[3, 4]).unwrap();
    let av = eval("tanh", std::slice::from_ref(&xv));
    let bv = eval("relu", std::slice::from_ref(&yv));
    let want = eval(
        "add",
        &[
            eval("add", &[av.clone(), bv.clone()]),
            eval("mul", &[bv, av]),
        ],
    );
    let inputs = [xv, yv];
    let fused = run(&module, &CompileOptions::default(), &inputs);
    let unfused = run(
        &module,
        &CompileOptions {
            fuse: false,
            ..CompileOptions::default()
        },
        &inputs,
    );
    assert_eq!(bits(&fused), bits(&unfused));
    close(&fused, &[want]).unwrap();
}

/// A regression case distilled from the ANF sharing bug: one value feeding
/// four consumers (as BERT's `x` feeds q/k/v/residual) must be computed
/// once.
#[test]
fn diamond_sharing_counts() {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::new(&[2, 4], DType::F32));
    // Shared: t = tanh(x), consumed by four ops whose results chain.
    let t = Expr::call_op("tanh", vec![x], Attrs::new());
    let a = Expr::call_op("relu", vec![t.clone()], Attrs::new());
    let b = Expr::call_op("neg", vec![t.clone()], Attrs::new());
    let c = Expr::call_op("add", vec![a, b], Attrs::new());
    let d = Expr::call_op("mul", vec![c, t], Attrs::new());
    let out = fb.bind("out", d);
    // Silence unused-variable style by using the bound expr.
    assert!(matches!(out.kind(), ExprKind::Var(_)));
    let mut module = Module::new();
    module.add_function("main", fb.finish(out));
    let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    vm.set_profiling(true);
    let input = Tensor::ones_f32(&[2, 4]);
    let got = vm
        .run("main", vec![Object::tensor(input.clone())])
        .unwrap()
        .wait_tensor()
        .unwrap();
    // Oracle: mul(add(relu(t), neg(t)), t), t = tanh(1) ⇒ relu(t)+(-t) = 0,
    // so output is all zeros.
    assert!(got.as_f32().unwrap().iter().all(|&v| v.abs() < 1e-6));
    // 5 ops at most (tanh relu neg add mul), fewer after fusion — never
    // the 8+ the duplication bug produced.
    let k = vm.profile_report().kernel_invocations;
    assert!(k <= 5, "{k} kernel invocations");

    // And the value-numbering map in `eval`: evaluation count equals the
    // kernel count (no hidden recomputation).
    let mut seen: HashMap<u64, u64> = HashMap::new();
    seen.insert(k, 1);
    assert_eq!(seen.len(), 1);
}
