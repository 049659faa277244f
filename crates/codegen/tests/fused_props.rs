//! Bit-for-bit differential for compiled fused primitives.
//!
//! `Kernel::from_primitive` runs a fused group one of four ways: the strip
//! evaluator over the whole group (every member elementwise), the strip
//! evaluator over the tail in place behind an anchor (`dense`,
//! `batch_matmul`, or a first member whose operands do not align), the
//! GEMM epilogue (`dense` followed only by unary members), or
//! member-at-a-time interpretation. Whichever route a group takes, its
//! output must carry exactly the bits — and the dims — of evaluating the
//! members one at a time through the op registry ([`eval_flat_body`])
//! under the same active SIMD backend. CI runs this file under the
//! detected backend and again under `NIMBLE_SIMD=scalar`.
//!
//! Groups are random chains of up to 8 members over all 12 elementwise
//! ops, with param, constant and earlier-member operands; one-element
//! operands of rank 0–2; aligned operands with up to two leading 1s
//! (`[n]` against `[1, n]`); output lengths 1..=300 so strips (64 floats)
//! and their tails are crossed; and an edge-value battery (±0, NaN, ±inf,
//! subnormals, the tanh / sigmoid / exp saturation knees) mixed into
//! every operand.

// Saturation knees are written with the kernels' full published digits.
#![allow(clippy::excessive_precision)]

use nimble_codegen::Kernel;
use nimble_ir::op;
use nimble_ir::{Attrs, Expr, ExprKind, Function, Tensor, Type, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const UNARY: [&str; 6] = ["tanh", "sigmoid", "relu", "gelu", "neg", "sqrt"];
const BINARY: [&str; 6] = ["add", "sub", "mul", "div", "maximum", "minimum"];

/// The oracle: interpret the group's let-chain member by member through
/// the registry kernels, each member's output a fresh tensor.
fn eval_flat_body(func: &Function, inputs: &[Tensor]) -> Tensor {
    let mut env: HashMap<u32, Tensor> = func
        .params
        .iter()
        .map(|p| p.id)
        .zip(inputs.iter().cloned())
        .collect();
    let mut cur = func.body.clone();
    loop {
        match cur.kind() {
            ExprKind::Let { var, value, body } => {
                let (name, args, attrs) = value.as_op_call().expect("op call member");
                let args: Vec<Tensor> = args
                    .iter()
                    .map(|a| match a.kind() {
                        ExprKind::Var(v) => env[&v.id].clone(),
                        ExprKind::Constant(t) => t.clone(),
                        other => panic!("unsupported member argument {other:?}"),
                    })
                    .collect();
                let out = (op::lookup(name).expect("registered op").execute)(&args, attrs)
                    .unwrap_or_else(|e| panic!("registry {name}: {e}"));
                env.insert(var.id, out.into_iter().next().expect("one output"));
                cur = body.clone();
            }
            ExprKind::Var(v) => return env[&v.id].clone(),
            other => panic!("unsupported result {other:?}"),
        }
    }
}

/// Edge inputs: signed zeros, NaN, infinities, subnormals, the extremes,
/// and the knees where the vector tanh / sigmoid / exp / gelu kernels
/// switch formulas.
fn edge_values() -> Vec<f32> {
    vec![
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0e-41,
        -1.0e-41,
        f32::from_bits(1),
        f32::MAX,
        f32::MIN,
        4.0e-4, // tanh identity cutover
        -4.0e-4,
        7.905_311_3, // tanh clamp
        -7.905_311_3,
        9.010_913, // tanh exact ±1
        -9.010_913,
        87.336_54, // exp / sigmoid underflow knee
        -87.336_54,
        88.722_839, // exp overflow knee
        -88.722_839,
        -4.0, // gelu cancellation region
        -5.0,
        -5.5,
        1.0,
        -1.0,
    ]
}

/// Test-case generator: ordinary values at three scales, with edge values
/// mixed in.
struct Gen {
    rng: StdRng,
    edges: Vec<f32>,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            edges: edge_values(),
        }
    }

    fn value(&mut self) -> f32 {
        if self.rng.gen_bool(0.15) {
            self.edges[self.rng.gen_range(0..self.edges.len())]
        } else {
            let scale = [1.0f32, 8.0, 100.0][self.rng.gen_range(0..3usize)];
            self.rng.gen_range(-scale..scale)
        }
    }

    fn tensor(&mut self, dims: &[usize]) -> Tensor {
        let data = (0..dims.iter().product::<usize>())
            .map(|_| self.value())
            .collect();
        Tensor::from_vec_f32(data, dims).expect("volume matches")
    }

    /// `core` behind 0–2 leading 1s: aligned with any other such shape.
    fn aligned(&mut self, core: &[usize]) -> Vec<usize> {
        let mut dims = vec![1; self.rng.gen_range(0..=2)];
        dims.extend_from_slice(core);
        dims
    }

    /// A one-element shape of rank 0–2.
    fn one(&mut self) -> Vec<usize> {
        vec![1; self.rng.gen_range(0..=2)]
    }
}

/// A fused group under construction.
#[derive(Default)]
struct Group {
    params: Vec<Var>,
    inputs: Vec<Tensor>,
    members: Vec<(Var, Expr)>,
}

impl Group {
    fn param(&mut self, t: Tensor) -> Expr {
        let v = Var::fresh("p", Type::Unknown);
        self.params.push(v.clone());
        self.inputs.push(t);
        v.to_expr()
    }

    fn member(&mut self, op: &str, args: Vec<Expr>) -> Expr {
        let v = Var::fresh("m", Type::Unknown);
        self.members
            .push((v.clone(), Expr::call_op(op, args, Attrs::new())));
        v.to_expr()
    }

    /// A leaf operand: a param or a constant, one-element or aligned with
    /// `core` — or, with `broadcast`, a real broadcast against it.
    fn leaf(&mut self, g: &mut Gen, core: &[usize], broadcast: bool) -> Expr {
        let dims = if broadcast {
            core[1..].to_vec()
        } else if g.rng.gen_bool(0.25) {
            g.one()
        } else {
            g.aligned(core)
        };
        let t = g.tensor(&dims);
        if g.rng.gen_bool(0.7) {
            self.param(t)
        } else {
            Expr::constant(t)
        }
    }

    /// Append `n` random elementwise members after the members in `prev`.
    /// Operands are mostly the latest member, sometimes an earlier one,
    /// else a fresh leaf.
    fn chain(&mut self, g: &mut Gen, core: &[usize], n: usize, mut prev: Vec<Expr>) {
        for _ in 0..n {
            let binary = g.rng.gen_bool(0.5);
            let name = if binary {
                BINARY[g.rng.gen_range(0..BINARY.len())]
            } else {
                UNARY[g.rng.gen_range(0..UNARY.len())]
            };
            let arity = if binary { 2 } else { 1 };
            let args = (0..arity)
                .map(|_| {
                    let r = g.rng.gen_range(0..100);
                    if !prev.is_empty() && r < 45 {
                        prev[prev.len() - 1].clone()
                    } else if !prev.is_empty() && r < 60 {
                        prev[g.rng.gen_range(0..prev.len())].clone()
                    } else {
                        let broadcast = core.len() > 1 && r >= 97;
                        self.leaf(g, core, broadcast)
                    }
                })
                .collect();
            prev.push(self.member(name, args));
        }
    }

    fn finish(self) -> (Function, Vec<Tensor>) {
        let (last, _) = self.members.last().expect("at least one member");
        let mut body = last.to_expr();
        for (var, value) in self.members.into_iter().rev() {
            body = Expr::let_(var, value, body);
        }
        (Function::new(self.params, body, Type::Unknown), self.inputs)
    }
}

/// Compile the group, run it, and hold it to the oracle bit for bit.
fn assert_matches_oracle(group: Group, ctx: &str) {
    let (func, inputs) = group.finish();
    let kernel = Kernel::from_primitive(&func).expect("compile fused group");
    let got = kernel.invoke(&inputs).expect("run fused kernel");
    let want = eval_flat_body(&func, &inputs);
    let ctx = format!("{ctx} {}", kernel.name());
    assert_eq!(got.len(), 1, "{ctx}: one output");
    assert_eq!(got[0].dims(), want.dims(), "{ctx}: dims");
    let (got, want) = (got[0].as_f32().unwrap(), want.as_f32().unwrap());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        // NaN matches NaN: which operand's payload and sign a binary op
        // propagates is left open by IEEE 754, and the compiler may commute
        // `x + y`, so the registry's own loops do not pin it either.
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{ctx}: [{i}] got {g:e} ({:#010x}) want {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Leading 1s dropped: the core every aligned operand shares.
fn core_of(dims: &[usize]) -> Vec<usize> {
    let lead = dims.iter().take_while(|&&d| d == 1).count();
    dims[lead..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn elementwise_chains_match_member_at_a_time(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let len = g.rng.gen_range(1..=300usize);
        // A one-row core ([n]) or a multi-row one ([r, c]), whose rows an
        // operand of dims [c] really broadcasts across.
        let core = if g.rng.gen_bool(0.3) {
            vec![g.rng.gen_range(2..=3usize), len.div_ceil(3)]
        } else {
            vec![len]
        };
        let n = g.rng.gen_range(1..=8usize);
        let mut group = Group::default();
        group.chain(&mut g, &core, n, Vec::new());
        assert_matches_oracle(group, &format!("seed {seed} core {core:?}"));
    }

    #[test]
    fn anchored_tails_match_member_at_a_time(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let mut group = Group::default();
        let anchor_dims = if g.rng.gen_bool(0.5) {
            // dense: x [m, k] · w [n, k]ᵀ (+ bias [n]) → [m, n].
            let (m, k, n) = (
                g.rng.gen_range(1..=3usize),
                g.rng.gen_range(1..=16usize),
                g.rng.gen_range(1..=150usize),
            );
            let mut args = vec![g.tensor(&[m, k]), g.tensor(&[n, k])];
            if g.rng.gen_bool(0.5) {
                args.push(g.tensor(&[n]));
            }
            let args = args
                .into_iter()
                .map(|t| if g.rng.gen_bool(0.8) { group.param(t) } else { Expr::constant(t) })
                .collect();
            group.member("dense", args);
            vec![m, n]
        } else {
            // batch_matmul: [b, m, k] · [b, k, n] → [b, m, n].
            let (b, m, k, n) = (
                g.rng.gen_range(1..=2usize),
                g.rng.gen_range(1..=4usize),
                g.rng.gen_range(1..=8usize),
                g.rng.gen_range(1..=80usize),
            );
            let x = group.param(g.tensor(&[b, m, k]));
            let y = group.param(g.tensor(&[b, k, n]));
            group.member("batch_matmul", vec![x, y]);
            vec![b, m, n]
        };
        let anchor = group.members[0].0.to_expr();
        let core = core_of(&anchor_dims);
        let n = g.rng.gen_range(1..=6usize);
        group.chain(&mut g, &core, n, vec![anchor]);
        assert_matches_oracle(
            group,
            &format!("seed {seed} anchor {anchor_dims:?}"),
        );
    }
}

/// Every edge value against every other, through every op, over lengths
/// on both sides of the strip width.
#[test]
fn edge_battery_matches_member_at_a_time() {
    let edges = edge_values();
    for len in [1usize, 7, 63, 64, 65, 130, 300] {
        let xs: Vec<f32> = (0..len).map(|i| edges[i % edges.len()]).collect();
        let ys: Vec<f32> = (0..len)
            .map(|i| edges[(i / edges.len() + 5 * i) % edges.len()])
            .collect();
        for &bin in &BINARY {
            for &un in &UNARY {
                // un(x) `bin` y, then bin again against a broadcast edge scalar.
                for &s in &edges {
                    let mut group = Group::default();
                    let x = group.param(Tensor::from_vec_f32(xs.clone(), &[len]).unwrap());
                    let y = group.param(Tensor::from_vec_f32(ys.clone(), &[1, len]).unwrap());
                    let u = group.member(un, vec![x]);
                    let b = group.member(bin, vec![u, y]);
                    group.member(bin, vec![Expr::constant(Tensor::scalar_f32(s)), b]);
                    assert_matches_oracle(group, &format!("len {len} {un}/{bin} scalar {s:e}"));
                }
            }
        }
    }
}

/// Non-f32 operands take member-at-a-time interpretation and still match.
#[test]
fn integer_groups_fall_back() {
    let a = Var::fresh("a", Type::Unknown);
    let b = Var::fresh("b", Type::Unknown);
    let s = Var::fresh("s", Type::Unknown);
    let m = Var::fresh("m", Type::Unknown);
    let body = Expr::let_(
        s.clone(),
        Expr::call_op("add", vec![a.to_expr(), b.to_expr()], Attrs::new()),
        Expr::let_(
            m.clone(),
            Expr::call_op("mul", vec![s.to_expr(), b.to_expr()], Attrs::new()),
            m.to_expr(),
        ),
    );
    let func = Function::new(vec![a, b], body, Type::Unknown);
    let inputs = [
        Tensor::from_vec_i64(vec![1, -2, 3], &[3]).unwrap(),
        Tensor::from_vec_i64(vec![4, 5, -6], &[3]).unwrap(),
    ];
    let got = Kernel::from_primitive(&func)
        .unwrap()
        .invoke(&inputs)
        .unwrap();
    assert_eq!(got[0], eval_flat_body(&func, &inputs));
    assert_eq!(got[0].as_i64().unwrap(), &[20, 15, 18]);
}
