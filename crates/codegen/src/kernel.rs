//! Compiled kernels: the executable payload behind `InvokePacked`.
//!
//! A [`Kernel`] is a named closure from input tensors to output tensors.
//! Three kinds are produced:
//!
//! * **plain operator kernels** — a thin closure over the registry's
//!   reference implementation;
//! * **symbolic operator kernels** — for dense ops with a dynamic row
//!   dimension, the residue-dispatch kernel set of [`crate::symbolic`]
//!   (Section 4.5);
//! * **fused primitive kernels** — compiled from the fused function bodies
//!   produced by the fusion pass. Elementwise members run as one vector
//!   loop over fixed strips of the output (in place behind an anchor such
//!   as `dense` or `batch_matmul`), and a `dense` anchor with a unary tail
//!   runs the tail inside the GEMM write-out, so fusion eliminates both
//!   intermediate allocations *and* memory traffic.

use crate::symbolic::{DispatchLevel, SymbolicDense};
use nimble_ir::attrs::Attrs;
use nimble_ir::expr::{Expr, ExprKind, Function};
use nimble_ir::op;
use nimble_simd::vecmath::unary_slice;
use nimble_simd::Isa;
use nimble_tensor::{DType, Tensor, UnaryOp};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Kernel execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel error: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

impl From<nimble_tensor::TensorError> for KernelError {
    fn from(e: nimble_tensor::TensorError) -> Self {
        KernelError(e.to_string())
    }
}

impl From<nimble_ir::IrError> for KernelError {
    fn from(e: nimble_ir::IrError) -> Self {
        KernelError(e.to_string())
    }
}

type KernelFn = dyn Fn(&[Tensor]) -> Result<Vec<Tensor>, KernelError> + Send + Sync;

/// Where a dense-anchored kernel finds one of its GEMM operands at invoke
/// time: a positional kernel input, or a constant folded into the kernel
/// at compile time (fused primitive functions bake constants in).
#[derive(Clone)]
pub enum ArgSrc {
    /// Positional index into the kernel's input slice.
    Input(usize),
    /// Compile-time constant captured by the fused closure.
    Const(Tensor),
}

impl ArgSrc {
    /// Resolve against a concrete input slice. `Input` past the end
    /// resolves to `None` (the optional-bias case for plain `dense`).
    pub fn resolve<'a>(&'a self, inputs: &'a [Tensor]) -> Option<&'a Tensor> {
        match self {
            ArgSrc::Input(i) => inputs.get(*i),
            ArgSrc::Const(t) => Some(t),
        }
    }
}

impl fmt::Debug for ArgSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgSrc::Input(i) => write!(f, "Input({i})"),
            ArgSrc::Const(t) => write!(f, "Const{:?}", t.dims()),
        }
    }
}

/// Shape-specialization metadata: attached to kernels whose hot loop is a
/// single dense GEMM (the symbolic `dense` kernel and the fused
/// dense+unary-epilogue fast path), describing where the GEMM operands
/// live and which scalar epilogue follows. The runtime specializer uses
/// this to build a shape-concretized replacement kernel that computes the
/// same `gemm_packed` + [`nimble_tensor::kernels::gemm::Epilogue`]
/// pipeline with a tuned schedule — bitwise-identical by the schedule
/// invariance of the packed GEMM.
#[derive(Clone, Debug)]
pub struct DenseSpec {
    /// Activation operand `[m.., k]`.
    pub x: ArgSrc,
    /// Weight operand `[n, k]` (transposed-weight dense layout).
    pub w: ArgSrc,
    /// Optional bias `[n]`. `Some(Input(i))` with fewer than `i + 1`
    /// runtime inputs means "no bias on this call".
    pub bias: Option<ArgSrc>,
    /// Epilogue chain applied after the bias add, in order; vectorizable
    /// ops run through the active SIMD backend's vecmath kernels.
    pub unary: Vec<nimble_tensor::UnaryOp>,
}

/// A compiled, invocable kernel.
#[derive(Clone)]
pub struct Kernel {
    name: Arc<str>,
    f: Arc<KernelFn>,
    /// Set when the kernel is a specializable dense anchor.
    spec: Option<Arc<DenseSpec>>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({})", self.name)
    }
}

impl Kernel {
    /// Wrap a closure as a kernel.
    pub fn new(
        name: &str,
        f: impl Fn(&[Tensor]) -> Result<Vec<Tensor>, KernelError> + Send + Sync + 'static,
    ) -> Kernel {
        Kernel {
            name: name.into(),
            f: Arc::new(f),
            spec: None,
        }
    }

    /// Attach shape-specialization metadata (builder style).
    fn with_spec(mut self, spec: DenseSpec) -> Kernel {
        self.spec = Some(Arc::new(spec));
        self
    }

    /// Shape-specialization metadata, when this kernel is a dense anchor
    /// the runtime specializer knows how to concretize.
    pub fn dense_spec(&self) -> Option<&Arc<DenseSpec>> {
        self.spec.as_ref()
    }

    /// The kernel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execute the kernel.
    ///
    /// # Errors
    /// Propagates shape/dtype failures from the underlying computation —
    /// these are the run-time residue of the gradual type checks deferred
    /// by Section 4.1.
    pub fn invoke(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, KernelError> {
        (self.f)(inputs)
    }

    /// Compile a plain operator call into a kernel.
    ///
    /// When `symbolic` is set and the operator is `dense`, the
    /// residue-dispatch symbolic kernel set is used instead of the static
    /// reference kernel.
    ///
    /// # Errors
    /// Fails for unknown operators.
    pub fn from_op(name: &str, attrs: &Attrs, symbolic: bool) -> Result<Kernel, KernelError> {
        if symbolic && name == "dense" {
            return Ok(Kernel::dense_symbolic(DispatchLevel::Dispatch8));
        }
        let def = op::lookup(name)?;
        let attrs = attrs.clone();
        let exec = def.execute;
        Ok(Kernel::new(name, move |inputs| {
            exec(inputs, &attrs).map_err(KernelError::from)
        }))
    }

    /// The symbolic dense kernel set with its runtime dispatch function.
    pub fn dense_symbolic(level: DispatchLevel) -> Kernel {
        Kernel::new(
            &format!("dense.symbolic[{}]", level.label()),
            move |inputs| {
                let x = inputs
                    .first()
                    .ok_or_else(|| KernelError("dense: missing input".into()))?;
                let w = inputs
                    .get(1)
                    .ok_or_else(|| KernelError("dense: missing weight".into()))?;
                let d = SymbolicDense::new(w.clone(), inputs.get(2).cloned(), level)?;
                Ok(vec![d.run(x)?])
            },
        )
        .with_spec(DenseSpec {
            x: ArgSrc::Input(0),
            w: ArgSrc::Input(1),
            bias: Some(ArgSrc::Input(2)),
            unary: Vec::new(),
        })
    }

    /// Compile a fused primitive function into a single kernel.
    ///
    /// The body is compiled once into a positional step list. A `dense`
    /// anchor followed only by unary members becomes the GEMM-epilogue
    /// kernel. Otherwise the elementwise members run through the strip
    /// evaluator ([`StripPlan`]): the whole group when every member is
    /// elementwise, else the tail behind an anchor that runs once through
    /// its registry kernel, evaluated in place over the anchor's output.
    /// Operands the evaluator cannot align fall back to member-at-a-time
    /// interpretation.
    ///
    /// # Errors
    /// Fails when the body is not a let-chain of operator calls over
    /// parameters, constants, and prior members.
    pub fn from_primitive(func: &Function) -> Result<Kernel, KernelError> {
        if let Some(k) = compile_dense_epilogue(func) {
            return Ok(k);
        }
        let mut pos_of_param: HashMap<u32, usize> = HashMap::new();
        for (i, p) in func.params.iter().enumerate() {
            pos_of_param.insert(p.id, i);
        }
        let mut pos_of_member: HashMap<u32, usize> = HashMap::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut cur = func.body.clone();
        loop {
            match cur.kind() {
                ExprKind::Let { var, value, body } => {
                    let (name, args, attrs) = value.as_op_call().ok_or_else(|| {
                        KernelError("primitive body must contain only op calls".into())
                    })?;
                    let def = op::lookup(name)?;
                    let srcs = args
                        .iter()
                        .map(|a| match a.kind() {
                            ExprKind::Var(v) => pos_of_param
                                .get(&v.id)
                                .map(|&i| Src::Param(i))
                                .or_else(|| pos_of_member.get(&v.id).map(|&i| Src::Member(i)))
                                .ok_or_else(|| KernelError(format!("unbound {v} in primitive"))),
                            ExprKind::Constant(t) => Ok(Src::Const(t.clone())),
                            other => Err(KernelError(format!(
                                "unsupported primitive argument {other:?}"
                            ))),
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let ew = EwOp::of(name).and_then(|(op, arity)| {
                        let f32_consts = srcs.iter().all(|s| match s {
                            Src::Const(t) => t.dtype() == DType::F32,
                            _ => true,
                        });
                        (srcs.len() == arity && f32_consts).then_some(op)
                    });
                    pos_of_member.insert(var.id, steps.len());
                    steps.push(Step {
                        exec: def.execute,
                        attrs: attrs.clone(),
                        args: srcs,
                        name: def.name,
                        ew,
                    });
                    cur = body.clone();
                }
                ExprKind::Var(v) => {
                    let result_pos = *pos_of_member
                        .get(&v.id)
                        .ok_or_else(|| KernelError(format!("unbound result {v} in primitive")))?;
                    if result_pos != steps.len() - 1 {
                        return Err(KernelError(
                            "primitive result must be the last member".into(),
                        ));
                    }
                    break;
                }
                other => {
                    return Err(KernelError(format!(
                        "unsupported primitive result {other:?}"
                    )))
                }
            }
        }
        let name = format!(
            "fused({})",
            steps.iter().map(|s| s.name).collect::<Vec<_>>().join("+")
        );
        let num_params = func.params.len();
        let all_ew = steps.iter().all(|s| s.ew.is_some());
        let tail_ew = steps.len() > 1 && steps[1..].iter().all(|s| s.ew.is_some());
        Ok(Kernel::new(&name, move |inputs| {
            if inputs.len() != num_params {
                return Err(KernelError(format!(
                    "primitive arity mismatch: {} vs {num_params}",
                    inputs.len()
                )));
            }
            let isa = nimble_simd::active();
            if all_ew {
                if let Some(plan) = StripPlan::new(&steps, inputs, None) {
                    let mut out = vec![0.0f32; plan.dims.iter().product()];
                    plan.run(isa, &steps, &mut out);
                    return Ok(vec![Tensor::from_vec_f32(out, &plan.dims)?]);
                }
            }
            let mut anchor = steps[0].run(inputs, &[])?;
            if tail_ew && anchor.dtype() == DType::F32 {
                if let Some(plan) = StripPlan::new(&steps, inputs, Some(anchor.dims())) {
                    plan.run(isa, &steps, anchor.as_f32_mut()?);
                    if anchor.dims() != plan.dims.as_slice() {
                        anchor = anchor.reshaped(&plan.dims)?;
                    }
                    return Ok(vec![anchor]);
                }
            }
            // Fallback: member-at-a-time interpretation.
            let mut members = vec![anchor];
            for step in &steps[1..] {
                let out = step.run(inputs, &members)?;
                members.push(out);
            }
            Ok(vec![members.pop().expect("at least one member")])
        }))
    }
}

/// Strip width of the fused elementwise evaluator, in floats.
const STRIP: usize = 64;

/// Where a fused member finds one operand.
enum Src {
    Param(usize),
    Member(usize),
    Const(Tensor),
}

/// One member of a fused primitive, compiled to a positional step.
struct Step {
    exec: nimble_ir::op::ExecFn,
    attrs: Attrs,
    args: Vec<Src>,
    name: &'static str,
    /// Set when the strip evaluator can run the member: an elementwise op
    /// given exactly its operand count, with no non-f32 constant.
    ew: Option<EwOp>,
}

impl Step {
    /// Run the member through its registry kernel.
    fn run(&self, inputs: &[Tensor], members: &[Tensor]) -> Result<Tensor, KernelError> {
        let args: Vec<Tensor> = self
            .args
            .iter()
            .map(|src| match src {
                Src::Param(i) => inputs[*i].clone(),
                Src::Member(i) => members[*i].clone(),
                Src::Const(t) => t.clone(),
            })
            .collect();
        (self.exec)(&args, &self.attrs)?
            .into_iter()
            .next()
            .ok_or_else(|| KernelError(format!("{} produced no output", self.name)))
    }
}

/// The elementwise ops the strip evaluator runs.
#[derive(Clone, Copy)]
enum EwOp {
    /// `tanh`, `sigmoid`, `relu`, `gelu`, `neg`, `sqrt`.
    Unary(UnaryOp),
    Add,
    Sub,
    Mul,
    Div,
    Maximum,
    Minimum,
}

impl EwOp {
    /// The op and its operand count for an IR op name.
    fn of(name: &str) -> Option<(EwOp, usize)> {
        Some(match name {
            "add" => (EwOp::Add, 2),
            "sub" => (EwOp::Sub, 2),
            "mul" => (EwOp::Mul, 2),
            "div" => (EwOp::Div, 2),
            "maximum" => (EwOp::Maximum, 2),
            "minimum" => (EwOp::Minimum, 2),
            "tanh" | "sigmoid" | "relu" | "gelu" | "neg" | "sqrt" => {
                (EwOp::Unary(UnaryOp::from_name(name)?), 1)
            }
            _ => return None,
        })
    }

    /// `dst = op(a, b)` over one strip. Unary ops run the vecmath slice
    /// kernel the standalone elementwise kernels run; binary ops are plain
    /// loops over the registry's formulas, operand order kept. Either way
    /// each element gets the bits the registry kernel would give it.
    fn apply(self, isa: Isa, dst: &mut [f32], a: Lane<'_>, b: Lane<'_>) {
        match a {
            Lane::Slice(s) => dst.copy_from_slice(s),
            Lane::Scalar(x) => dst.fill(x),
        }
        match self {
            EwOp::Unary(op) => unary_slice(isa, op, dst),
            EwOp::Add => combine(dst, b, |x, y| x + y),
            EwOp::Sub => combine(dst, b, |x, y| x - y),
            EwOp::Mul => combine(dst, b, |x, y| x * y),
            EwOp::Div => combine(dst, b, |x, y| x / y),
            EwOp::Maximum => combine(dst, b, f32::max),
            EwOp::Minimum => combine(dst, b, f32::min),
        }
    }
}

/// `dst[i] = f(dst[i], b[i])`, monomorphized per op so the loop vectorizes.
#[inline(always)]
fn combine(dst: &mut [f32], b: Lane<'_>, f: impl Fn(f32, f32) -> f32) {
    match b {
        Lane::Slice(s) => dst.iter_mut().zip(s).for_each(|(d, &y)| *d = f(*d, y)),
        Lane::Scalar(y) => dst.iter_mut().for_each(|d| *d = f(*d, y)),
    }
}

/// One operand over one strip.
#[derive(Clone, Copy)]
enum Lane<'a> {
    Slice(&'a [f32]),
    Scalar(f32),
}

/// One operand of a strip-evaluated member, resolved for one call.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// An aligned tensor: as many elements as the output, in its order.
    Slice(&'a [f32]),
    /// A one-element tensor, broadcast.
    Scalar(f32),
    /// An earlier member's strip buffer.
    Member(usize),
}

impl<'a> Operand<'a> {
    fn strip<'s>(self, done: &'s [f32], at: &Range<usize>) -> Lane<'s>
    where
        'a: 's,
    {
        match self {
            Operand::Slice(s) => Lane::Slice(&s[at.clone()]),
            Operand::Scalar(x) => Lane::Scalar(x),
            Operand::Member(m) => Lane::Slice(&done[m * STRIP..m * STRIP + at.len()]),
        }
    }

    /// A param or constant operand: `None` unless f32.
    fn leaf(t: &'a Tensor) -> Option<Operand<'a>> {
        match t.as_f32().ok()? {
            [x] => Some(Operand::Scalar(*x)),
            v => Some(Operand::Slice(v)),
        }
    }
}

/// One member's resolved operands and value shape.
struct Resolved<'a> {
    /// Unused slots (the second of a unary member, both of an anchor) hold
    /// `Scalar(0.0)`.
    args: [Operand<'a>; 2],
    /// Rank of the member's value: the highest rank among its operands.
    rank: usize,
    /// The value has one element (every operand has).
    one: bool,
}

/// Joins a non-one-element operand's dims into the group's common core:
/// its dims after dropping leading 1s, so `[128]` aligns with `[1, 128]`.
/// Returns the operand's `(rank, one)`, or `None` on a real broadcast.
fn align<'d>(core: &mut Option<&'d [usize]>, dims: &'d [usize]) -> Option<(usize, bool)> {
    if dims.iter().product::<usize>() == 1 {
        return Some((dims.len(), true));
    }
    let lead = dims.iter().take_while(|&&d| d == 1).count();
    match core {
        None => *core = Some(&dims[lead..]),
        Some(c) if *c == &dims[lead..] => {}
        Some(_) => return None,
    }
    Some((dims.len(), false))
}

/// One call's worth of strip evaluation: every operand resolved to a slice,
/// a broadcast scalar or an earlier member, and the output dims registry
/// broadcasting would produce.
struct StripPlan<'a> {
    members: Vec<Resolved<'a>>,
    /// 1 when member 0 is an anchor whose value is already in the output.
    start: usize,
    dims: Vec<usize>,
}

impl<'a> StripPlan<'a> {
    /// Resolve the members from `anchor.is_some()` on (member 0's dims when
    /// it is an anchor). `None` when an operand is not f32, is neither one
    /// element nor aligned, or when an anchor's buffer cannot hold the
    /// output.
    fn new(steps: &'a [Step], inputs: &'a [Tensor], anchor: Option<&[usize]>) -> Option<Self> {
        let mut core: Option<&[usize]> = None;
        let mut members: Vec<Resolved<'a>> = Vec::with_capacity(steps.len());
        let unused = [Operand::Scalar(0.0); 2];
        if let Some(dims) = anchor {
            let (rank, one) = align(&mut core, dims)?;
            members.push(Resolved {
                args: unused,
                rank,
                one,
            });
        }
        let start = members.len();
        for step in &steps[start..] {
            let mut m = Resolved {
                args: unused,
                rank: 0,
                one: true,
            };
            for (slot, src) in m.args.iter_mut().zip(&step.args) {
                let (rank, one) = match src {
                    Src::Member(i) => {
                        *slot = Operand::Member(*i);
                        (members[*i].rank, members[*i].one)
                    }
                    Src::Param(i) => {
                        *slot = Operand::leaf(&inputs[*i])?;
                        align(&mut core, inputs[*i].dims())?
                    }
                    Src::Const(t) => {
                        *slot = Operand::leaf(t)?;
                        align(&mut core, t.dims())?
                    }
                };
                m.rank = m.rank.max(rank);
                m.one &= one;
            }
            members.push(m);
        }
        let last = members.last()?;
        let core = match (last.one, core) {
            (true, None) => &[][..],
            (false, Some(c)) => c,
            // A one-element result beside larger operands (a member the
            // result never reads): leave it to the registry.
            _ => return None,
        };
        let mut dims = vec![1; last.rank - core.len()];
        dims.extend_from_slice(core);
        if anchor.is_some_and(|a| a.iter().product::<usize>() != dims.iter().product()) {
            return None;
        }
        Some(StripPlan {
            members,
            start,
            dims,
        })
    }

    /// Evaluate strip by strip into `out` (which already holds member 0 when
    /// it is an anchor). Each member writes one strip buffer; the last
    /// writes straight into `out`.
    fn run(&self, isa: Isa, steps: &[Step], out: &mut [f32]) {
        let n = steps.len();
        let mut scratch = vec![0.0f32; (n - 1) * STRIP];
        for (k, out_strip) in out.chunks_mut(STRIP).enumerate() {
            let at = k * STRIP..k * STRIP + out_strip.len();
            if self.start == 1 {
                scratch[..at.len()].copy_from_slice(out_strip);
            }
            let members = self.members.iter().zip(steps).enumerate();
            for (j, (member, step)) in members.skip(self.start) {
                let (done, rest) = scratch.split_at_mut(j * STRIP);
                let dst = if j + 1 == n {
                    &mut *out_strip
                } else {
                    &mut rest[..at.len()]
                };
                let [a, b] = member.args;
                let op = step.ew.expect("strip members are elementwise");
                op.apply(isa, dst, a.strip(done, &at), b.strip(done, &at));
            }
        }
    }
}

/// GEMM-epilogue fast path: `dense(x, w[, bias])` followed only by unary
/// members, each on the previous one. The bias add and the whole unary
/// chain run inside the GEMM's write-out pass, so the output is touched
/// exactly once, and the kernel carries the [`DenseSpec`] the runtime
/// specializer concretizes.
fn compile_dense_epilogue(func: &Function) -> Option<Kernel> {
    let mut cur = func.body.clone();
    let mut members: Vec<(String, Vec<Expr>)> = Vec::new();
    let mut member_vars: Vec<u32> = Vec::new();
    while let ExprKind::Let { var, value, body } = cur.kind() {
        let (name, args, _) = value.as_op_call()?;
        members.push((name.to_string(), args.to_vec()));
        member_vars.push(var.id);
        cur = body.clone();
    }
    // Result must be the last member.
    let ExprKind::Var(res) = cur.kind() else {
        return None;
    };
    if member_vars.last() != Some(&res.id) || members.len() < 2 {
        return None;
    }
    let (anchor, anchor_args) = &members[0];
    if anchor != "dense" || !(2..=3).contains(&anchor_args.len()) {
        return None;
    }
    let mut fns: Vec<UnaryOp> = Vec::new();
    for (i, (name, args)) in members.iter().enumerate().skip(1) {
        let on_prev = args.len() == 1
            && matches!(args[0].kind(), ExprKind::Var(v) if v.id == member_vars[i - 1]);
        if !on_prev {
            return None;
        }
        fns.push(UnaryOp::from_name(name)?);
    }
    // The GEMM operands may reference params and constants only.
    let srcs = anchor_args
        .iter()
        .map(|a| match a.kind() {
            ExprKind::Var(v) => func
                .params
                .iter()
                .position(|p| p.id == v.id)
                .map(ArgSrc::Input),
            ExprKind::Constant(t) => Some(ArgSrc::Const(t.clone())),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let chain_label = members[1..]
        .iter()
        .map(|(n, _)| n.as_str())
        .collect::<Vec<_>>()
        .join("+");
    let spec = DenseSpec {
        x: srcs[0].clone(),
        w: srcs[1].clone(),
        bias: srcs.get(2).cloned(),
        unary: fns.clone(),
    };
    let name = format!("fused(dense+{chain_label} epilogue)");
    Some(
        Kernel::new(&name, move |inputs| {
            let operand = |i: usize| {
                srcs[i]
                    .resolve(inputs)
                    .ok_or_else(|| KernelError("missing primitive input".into()))
            };
            let bias = (srcs.len() == 3).then(|| operand(2)).transpose()?;
            let out =
                nimble_tensor::kernels::dense_with_epilogue(operand(0)?, operand(1)?, bias, &fns)?;
            Ok(vec![out])
        })
        .with_spec(spec),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_ir::attrs::AttrValue;
    use nimble_ir::types::Type;
    use nimble_ir::Var;

    #[test]
    fn op_kernel_roundtrip() {
        let k = Kernel::from_op("add", &Attrs::new(), false).unwrap();
        let a = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec_f32(vec![3.0, 4.0], &[2]).unwrap();
        let out = k.invoke(&[a, b]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[4.0, 6.0]);
        assert!(Kernel::from_op("not_an_op", &Attrs::new(), false).is_err());
    }

    #[test]
    fn op_kernel_attrs_captured() {
        let attrs = Attrs::new().with("axis", AttrValue::Int(1));
        let k = Kernel::from_op("sum", &attrs, false).unwrap();
        let a = Tensor::from_vec_f32(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        let out = k.invoke(&[a]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[3.0, 7.0]);
    }

    #[test]
    fn symbolic_dense_selected_for_dynamic() {
        let k = Kernel::from_op("dense", &Attrs::new(), true).unwrap();
        assert!(k.name().starts_with("dense.symbolic"));
        let x = Tensor::ones_f32(&[3, 4]);
        let w = Tensor::ones_f32(&[2, 4]);
        let out = k.invoke(&[x, w]).unwrap();
        assert_eq!(out[0].dims(), &[3, 2]);
        assert!(out[0].as_f32().unwrap().iter().all(|&v| v == 4.0));
    }

    fn chain_func() -> Function {
        // fn(x, w) { let d = dense(x, w); let t = tanh(d); let s =
        // sigmoid(t); s }
        let x = Var::fresh("x", Type::Unknown);
        let w = Var::fresh("w", Type::Unknown);
        let d = Var::fresh("d", Type::Unknown);
        let t = Var::fresh("t", Type::Unknown);
        let s = Var::fresh("s", Type::Unknown);
        let body = Expr::let_(
            d.clone(),
            Expr::call_op("dense", vec![x.to_expr(), w.to_expr()], Attrs::new()),
            Expr::let_(
                t.clone(),
                Expr::call_op("tanh", vec![d.to_expr()], Attrs::new()),
                Expr::let_(
                    s.clone(),
                    Expr::call_op("sigmoid", vec![t.to_expr()], Attrs::new()),
                    s.to_expr(),
                ),
            ),
        );
        Function::new(vec![x, w], body, Type::Unknown)
    }

    #[test]
    fn fused_chain_uses_fast_path_and_matches_reference() {
        let f = chain_func();
        let k = Kernel::from_primitive(&f).unwrap();
        // A dense anchor fuses the chain into the GEMM epilogue.
        assert!(k.name().contains("epilogue"), "name: {}", k.name());
        let x = Tensor::from_vec_f32(vec![0.5, -0.5, 1.0, 2.0], &[2, 2]).unwrap();
        let w = Tensor::from_vec_f32(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let out = k.invoke(&[x.clone(), w.clone()]).unwrap();
        // Reference: sigmoid(tanh(dense(x, w)))
        let d = nimble_tensor::kernels::dense(&x, &w, None).unwrap();
        let t = nimble_tensor::kernels::tanh(&d).unwrap();
        let s = nimble_tensor::kernels::sigmoid(&t).unwrap();
        for (a, b) in out[0].as_f32().unwrap().iter().zip(s.as_f32().unwrap()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn general_primitive_interpretation() {
        // A fused group the fast path rejects (binary second member):
        // fn(a, b) { let s = add(a, b); let m = mul(s, b); m }
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
        let f = Function::new(vec![a, b], body, Type::Unknown);
        let k = Kernel::from_primitive(&f).unwrap();
        assert!(k.name().starts_with("fused("));
        let av = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let bv = Tensor::from_vec_f32(vec![3.0, 4.0], &[2]).unwrap();
        let out = k.invoke(&[av, bv]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[12.0, 24.0]);
    }

    #[test]
    fn primitive_arity_checked() {
        let f = chain_func();
        let k = Kernel::from_primitive(&f).unwrap();
        // Fast-path kernels check indices at gather time.
        assert!(k.invoke(&[Tensor::ones_f32(&[2, 2])]).is_err());
    }
}
