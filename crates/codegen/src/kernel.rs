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
//!   produced by the fusion pass, with one or several outputs. Elementwise
//!   members run as one vector loop over fixed strips (in place behind an
//!   anchor such as `dense` or `batch_matmul`, reading `split` parts in
//!   place), and a `dense` anchor with a unary tail runs the tail inside
//!   the GEMM write-out, so fusion eliminates both intermediate
//!   allocations *and* memory traffic.

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
use std::sync::{Arc, RwLock};

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
    /// The body is compiled once into a positional step list and an output
    /// list. A `dense` anchor followed only by unary members becomes the
    /// GEMM-epilogue kernel. Otherwise the elementwise members run through
    /// the strip evaluator ([`StripPlan`]): the whole group when no member
    /// is an anchor, else everything behind an anchor that runs once
    /// through its registry kernel. A `split` along the last axis splits
    /// the group into the members before it and the members after it,
    /// which read its parts in place through a column offset and a row
    /// stride. Operands the evaluator cannot align fall back to
    /// member-at-a-time interpretation.
    ///
    /// # Errors
    /// Fails when the body is not a let-chain of operator calls and
    /// `tuple_get`s over parameters, constants and prior members, ending in
    /// one member, one field, or a tuple of them.
    pub fn from_primitive(func: &Function) -> Result<Kernel, KernelError> {
        if let Some(k) = compile_dense_epilogue(func) {
            return Ok(k);
        }
        let (members, outputs) = parse_primitive(func)?;
        let steps: Vec<Step> = members.into_iter().map(Step::new).collect();
        let name = format!(
            "fused({})",
            steps.iter().map(|s| s.name).collect::<Vec<_>>().join("+")
        );
        let num_params = func.params.len();
        let anchored = steps[0].kind == Kind::Other;
        let strip = steps[usize::from(anchored)..]
            .iter()
            .all(|s| s.kind != Kind::Other);
        let plans = PlanCache::default();
        Ok(Kernel::new(&name, move |inputs| {
            if inputs.len() != num_params {
                return Err(KernelError(format!(
                    "primitive arity mismatch: {} vs {num_params}",
                    inputs.len()
                )));
            }
            let isa = nimble_simd::active();
            let plan = |anchor: Option<&[usize]>| {
                plans.get(inputs, || StripPlan::new(&steps, &outputs, inputs, anchor))
            };
            if strip && !anchored {
                if let Some(plan) = plan(None) {
                    return plan.run(isa, &steps, &outputs, inputs, None);
                }
            }
            let mut anchor = steps[0].run(inputs, &[])?;
            if strip && anchored && anchor.len() == 1 && anchor[0].dtype() == DType::F32 {
                let dims = anchor[0].dims();
                if let Some(plan) = plan(Some(dims)).filter(|p| p.anchor.as_deref() == Some(dims)) {
                    return plan.run(isa, &steps, &outputs, inputs, anchor.pop());
                }
            }
            // Fallback: member-at-a-time interpretation.
            FALLBACKS.with(|c| c.set(c.get() + 1));
            let mut members = vec![anchor];
            for step in &steps[1..] {
                let out = step.run(inputs, &members)?;
                members.push(out);
            }
            Ok(outputs
                .iter()
                .map(|o| o.resolve(inputs, &members).clone())
                .collect())
        }))
    }
}

/// Strip plans of one fused kernel, keyed by the dtypes and dims of its
/// inputs (a plan depends on nothing else: the anchor's dims follow from
/// them). `None` records a signature that falls back. Bounded: past
/// [`PlanCache::CAP`] signatures, plans are rebuilt per call and the cache
/// is only read.
#[derive(Default)]
struct PlanCache(RwLock<Vec<(Signature, Option<Arc<StripPlan>>)>>);

/// Each input's dtype and dims.
type Signature = Vec<(DType, Vec<usize>)>;

impl PlanCache {
    const CAP: usize = 64;

    fn get(
        &self,
        inputs: &[Tensor],
        build: impl FnOnce() -> Option<StripPlan>,
    ) -> Option<Arc<StripPlan>> {
        let hit = |key: &[(DType, Vec<usize>)]| {
            key.len() == inputs.len()
                && key
                    .iter()
                    .zip(inputs)
                    .all(|((dt, dims), t)| *dt == t.dtype() && dims == t.dims())
        };
        let cached = self.0.read().expect("plan cache lock");
        if let Some((_, plan)) = cached.iter().find(|(key, _)| hit(key)) {
            return plan.clone();
        }
        let full = cached.len() >= Self::CAP;
        drop(cached);
        let plan = build().map(Arc::new);
        if !full {
            let mut cache = self.0.write().expect("plan cache lock");
            if cache.len() < Self::CAP && !cache.iter().any(|(key, _)| hit(key)) {
                let key = inputs
                    .iter()
                    .map(|t| (t.dtype(), t.dims().to_vec()))
                    .collect();
                cache.push((key, plan.clone()));
            }
        }
        plan
    }
}

thread_local! {
    static FALLBACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many fused-kernel invocations on this thread fell back to
/// member-at-a-time interpretation (a test hook: kernels run on the
/// invoking thread, so a test can prove a group took the strip route).
pub fn fallback_invocations() -> u64 {
    FALLBACKS.with(|c| c.get())
}

/// Strip width of the fused elementwise evaluator, in floats.
const STRIP: usize = 64;

/// Where a fused member finds one operand, or where a fused kernel finds
/// one output.
#[derive(Clone)]
pub enum Src {
    /// A parameter of the primitive, by position.
    Param(usize),
    /// The (first) value of an earlier member.
    Member(usize),
    /// Field `.1` of the multi-output member `.0` (a `split` part).
    Field(usize, usize),
    /// A constant, with its expression's [`Expr::ref_id`] (the key a
    /// lowering interns it under).
    Const(Tensor, usize),
}

impl Src {
    /// The operand's value given every member's outputs so far.
    fn resolve<'a>(&'a self, inputs: &'a [Tensor], members: &'a [Vec<Tensor>]) -> &'a Tensor {
        match self {
            Src::Param(i) => &inputs[*i],
            Src::Member(i) => &members[*i][0],
            Src::Field(i, k) => &members[*i][*k],
            Src::Const(t, _) => t,
        }
    }
}

/// One operator member of a fused primitive, in positional form.
pub struct Member {
    /// The member's operator.
    pub def: &'static op::OpDef,
    /// Its attributes.
    pub attrs: Attrs,
    /// Its operands.
    pub args: Vec<Src>,
}

/// Parse a primitive body into its operator members and its outputs: the
/// one reader of the fused-body layout, shared by the kernel compiler, the
/// composite shape function and the lowering's descriptors. `tuple_get`
/// bindings become [`Src::Field`] operands; the result is one member or
/// field, or a tuple of them.
///
/// # Errors
/// Fails when the body is not a let-chain of operator calls and
/// `tuple_get`s of members over parameters, constants and prior members,
/// ending in a member, a field, or a tuple of them.
pub fn parse_primitive(func: &Function) -> Result<(Vec<Member>, Vec<Src>), KernelError> {
    let mut env: HashMap<u32, Src> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id, Src::Param(i)))
        .collect();
    let mut tuples: HashMap<u32, Vec<Src>> = HashMap::new();
    let mut members: Vec<Member> = Vec::new();
    let lookup = |env: &HashMap<u32, Src>, a: &Expr| match a.kind() {
        ExprKind::Var(v) => env
            .get(&v.id)
            .cloned()
            .ok_or_else(|| KernelError(format!("unbound {v} in primitive"))),
        ExprKind::Constant(t) => Ok(Src::Const(t.clone(), a.ref_id())),
        other => Err(KernelError(format!(
            "unsupported primitive argument {other:?}"
        ))),
    };
    let mut cur = func.body.clone();
    while let ExprKind::Let { var, value, body } = cur.kind() {
        match value.kind() {
            ExprKind::TupleGet(t, k) => match lookup(&env, t)? {
                Src::Member(m) => {
                    env.insert(var.id, Src::Field(m, *k));
                }
                _ => return Err(KernelError("tuple_get of a non-member".into())),
            },
            ExprKind::Tuple(fields) => {
                let fields = fields
                    .iter()
                    .map(|f| lookup(&env, f))
                    .collect::<Result<Vec<_>, _>>()?;
                tuples.insert(var.id, fields);
            }
            _ => {
                let (name, args, attrs) = value.as_op_call().ok_or_else(|| {
                    KernelError("primitive body must contain only op calls".into())
                })?;
                let args = args
                    .iter()
                    .map(|a| lookup(&env, a))
                    .collect::<Result<Vec<_>, _>>()?;
                env.insert(var.id, Src::Member(members.len()));
                members.push(Member {
                    def: op::lookup(name)?,
                    attrs: attrs.clone(),
                    args,
                });
            }
        }
        cur = body.clone();
    }
    let ExprKind::Var(v) = cur.kind() else {
        return Err(KernelError(format!("unsupported primitive result {cur:?}")));
    };
    let outputs = match tuples.remove(&v.id) {
        Some(fields) => fields,
        None => vec![lookup(&env, &cur)?],
    };
    let produced = |o: &Src| matches!(o, Src::Member(_) | Src::Field(..));
    if members.is_empty() || outputs.is_empty() || !outputs.iter().all(produced) {
        return Err(KernelError(
            "primitive outputs must be members or fields of members".into(),
        ));
    }
    Ok((members, outputs))
}

/// How the strip evaluator treats a member.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// An elementwise op given exactly its operand count, with no non-f32
    /// constant.
    Ew(EwOp),
    /// `split(x, parts, axis)`: a view, read in place when the axis is the
    /// last.
    Split { parts: usize, axis: usize },
    /// Anything else (an anchor): runs through its registry kernel.
    Other,
}

/// One member of a fused primitive, compiled to a positional step.
struct Step {
    exec: nimble_ir::op::ExecFn,
    attrs: Attrs,
    args: Vec<Src>,
    name: &'static str,
    kind: Kind,
}

impl Step {
    fn new(m: Member) -> Step {
        let name = m.def.name;
        let ew = EwOp::of(name).and_then(|(op, arity)| {
            let f32_consts = m.args.iter().all(|s| match s {
                Src::Const(t, _) => t.dtype() == DType::F32,
                _ => true,
            });
            (m.args.len() == arity && f32_consts).then_some(op)
        });
        let kind = match (ew, name, m.attrs.int("parts")) {
            (Some(op), _, _) => Kind::Ew(op),
            (None, "split", Some(parts)) if parts > 0 && m.args.len() == 1 => Kind::Split {
                parts: parts as usize,
                axis: m.attrs.int_or("axis", 0) as usize,
            },
            _ => Kind::Other,
        };
        Step {
            exec: m.def.execute,
            attrs: m.attrs,
            args: m.args,
            name,
            kind,
        }
    }

    /// Run the member through its registry kernel.
    fn run(&self, inputs: &[Tensor], members: &[Vec<Tensor>]) -> Result<Vec<Tensor>, KernelError> {
        let args: Vec<Tensor> = self
            .args
            .iter()
            .map(|src| src.resolve(inputs, members).clone())
            .collect();
        let out = (self.exec)(&args, &self.attrs)?;
        if out.is_empty() {
            return Err(KernelError(format!("{} produced no output", self.name)));
        }
        Ok(out)
    }
}

/// The elementwise ops the strip evaluator runs.
#[derive(Clone, Copy, PartialEq)]
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

/// One operand of a strip-evaluated member. Leaf operands (a param or a
/// constant) are the step's argument in the same slot, read at run time.
#[derive(Clone, Copy)]
enum Operand {
    /// No operand: the second slot of a unary member.
    Unused,
    /// A leaf spanning its segment: as many elements, in its order.
    Full,
    /// A leaf spanning one row of its segment, broadcast down the rows.
    Row,
    /// A one-element leaf, broadcast.
    Scalar,
    /// An earlier member's strip buffer.
    Member(usize),
    /// Part `k` of the split: a column offset into the split input's row.
    Part(usize),
}

/// Where one strip lies: its flat range in the segment, its column offset
/// within the segment's row, and — after a split — the split input from
/// the strip's first part-0 element, with the part width.
struct Pos<'s> {
    at: Range<usize>,
    col: usize,
    part: &'s [f32],
    cols: usize,
}

/// A param or constant operand's elements (f32: checked when planning).
fn leaf<'s>(src: &'s Src, inputs: &'s [Tensor]) -> &'s [f32] {
    let t = match src {
        Src::Param(i) => &inputs[*i],
        Src::Const(t, _) => t,
        _ => unreachable!("leaf operands are params or constants"),
    };
    t.as_f32().expect("strip plans check leaf dtypes")
}

impl Operand {
    /// The operand's lane for one strip; `src` is the step's argument in
    /// the operand's slot.
    fn strip<'s>(
        self,
        src: Option<&'s Src>,
        inputs: &'s [Tensor],
        done: &'s [f32],
        pos: &Pos<'s>,
    ) -> Lane<'s> {
        let len = pos.at.len();
        let leaf = || leaf(src.expect("leaf operands have a source"), inputs);
        match self {
            Operand::Unused => Lane::Scalar(0.0),
            Operand::Full => Lane::Slice(&leaf()[pos.at.clone()]),
            Operand::Row => Lane::Slice(&leaf()[pos.col..pos.col + len]),
            Operand::Scalar => Lane::Scalar(leaf()[0]),
            Operand::Member(m) => Lane::Slice(&done[m * STRIP..m * STRIP + len]),
            Operand::Part(k) => Lane::Slice(&pos.part[k * pos.cols..k * pos.cols + len]),
        }
    }
}

/// How much of its segment a value spans.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Span {
    One,
    Row,
    Full,
}

/// One member's resolved operands and value shape.
struct Resolved {
    args: [Operand; 2],
    /// Rank of the member's value: the highest rank among its operands.
    rank: usize,
    /// The widest span among its operands.
    span: Span,
}

/// A value's dims without their leading 1s, so `[128]` aligns with
/// `[1, 128]`; empty for one-element values.
fn core_of(dims: &[usize]) -> &[usize] {
    if dims.iter().product::<usize>() == 1 {
        return &[];
    }
    let lead = dims.iter().take_while(|&&d| d == 1).count();
    &dims[lead..]
}

/// The members before or after the split: the core every spanning value
/// shares, and the row (a suffix of the core) row-spanning operands repeat
/// down the segment.
struct Segment {
    core: Vec<usize>,
    row: Option<Vec<usize>>,
}

impl Segment {
    /// The segment whose core is the longest among `dims`.
    fn new<'d>(dims: impl IntoIterator<Item = &'d [usize]>) -> Segment {
        let core = dims
            .into_iter()
            .map(core_of)
            .max_by_key(|c| c.len())
            .unwrap_or(&[])
            .to_vec();
        Segment { core, row: None }
    }

    fn len(&self) -> usize {
        self.core.iter().product()
    }

    /// The width of the rows strips walk: the row operands', else the
    /// whole segment.
    fn width(&self) -> usize {
        self.row.as_ref().map_or(self.len(), |r| r.iter().product())
    }

    /// `(rank, span)` of a value with `dims`; `None` on a broadcast other
    /// than one row repeated down the segment (all such rows alike).
    fn span(&mut self, dims: &[usize]) -> Option<(usize, Span)> {
        let c = core_of(dims);
        let span = if c.is_empty() {
            Span::One
        } else if c == self.core {
            Span::Full
        } else if self.core.ends_with(c) && *self.row.get_or_insert_with(|| c.to_vec()) == c {
            Span::Row
        } else {
            return None;
        };
        Some((dims.len(), span))
    }

    /// Dims and element count of a member value of `rank` and `span`.
    fn value(&self, rank: usize, span: Span) -> (Vec<usize>, usize) {
        let core: &[usize] = match span {
            Span::Full => &self.core,
            Span::Row => self.row.as_deref().unwrap_or(&[]),
            Span::One => &[],
        };
        let mut d = vec![1; rank - core.len()];
        d.extend_from_slice(core);
        (d, core.iter().product())
    }
}

/// Where a materialized member's full value lives during one call.
#[derive(Clone, Copy, PartialEq)]
enum Buf {
    /// The anchor's output buffer (the anchor itself, or the last
    /// materialized member before the split, written in place).
    Anchor,
    /// An own buffer of a member before the split.
    Pre(usize),
    /// An own buffer of a member after the split.
    Post(usize),
}

/// The in-place split: which step, where its input lives (a param, or a
/// member's buffer), and the part geometry (`rows × cols` parts in rows of
/// `stride = parts × cols`).
struct SplitView {
    at: usize,
    input: Result<usize, Buf>,
    dims: Vec<usize>,
    rows: usize,
    cols: usize,
    stride: usize,
}

/// Strip evaluation of one fused group for one input signature: every
/// operand resolved to a leaf of some span, an earlier member or a split
/// part, the dims registry broadcasting would give each member, and where
/// each materialized member (an output, or the split's input) is stored.
struct StripPlan {
    members: Vec<Resolved>,
    /// The anchor's dims, when member 0 is an anchor whose value is
    /// already computed.
    anchor: Option<Vec<usize>>,
    split: Option<SplitView>,
    /// Element count and row width of the members before the split.
    pre_len: usize,
    pre_width: usize,
    dims: Vec<Vec<usize>>,
    store: Vec<Option<Buf>>,
    /// Lengths of the own buffers before and after the split.
    pre_bufs: Vec<usize>,
    post_bufs: Vec<usize>,
}

/// Store one strip of a member's value: a full value at the strip's flat
/// range, a row value from the first row only, a one-element value once.
fn put(buf: &mut [f32], span: Span, row: usize, pos: &Pos<'_>, strip: &[f32]) {
    match span {
        Span::Full => buf[pos.at.clone()].copy_from_slice(strip),
        Span::Row if row == 0 => buf[pos.col..pos.col + strip.len()].copy_from_slice(strip),
        Span::One if pos.at.start == 0 => buf[0] = strip[0],
        _ => {}
    }
}

/// Dims of the param and constant operands of the elementwise steps in
/// `range`.
fn leaf_dims<'a>(
    steps: &'a [Step],
    range: Range<usize>,
    inputs: &'a [Tensor],
) -> impl Iterator<Item = &'a [usize]> {
    let ew = steps[range]
        .iter()
        .filter(|s| matches!(s.kind, Kind::Ew(_)));
    ew.flat_map(move |s| {
        s.args.iter().filter_map(move |a| match a {
            Src::Param(i) => Some(inputs[*i].dims()),
            Src::Const(t, _) => Some(t.dims()),
            _ => None,
        })
    })
}

/// Resolve an elementwise member of the segment whose members start at
/// `lo`; `part` names the split step and its part dims after a split.
fn resolve(
    step: &Step,
    inputs: &[Tensor],
    members: &[Resolved],
    seg: &mut Segment,
    lo: usize,
    part: Option<(usize, &[usize])>,
) -> Option<Resolved> {
    if !matches!(step.kind, Kind::Ew(_)) {
        return None;
    }
    let mut m = Resolved {
        args: [Operand::Unused; 2],
        rank: 0,
        span: Span::One,
    };
    for (slot, src) in m.args.iter_mut().zip(&step.args) {
        let mut leaf = |t: &Tensor| {
            t.as_f32().ok()?;
            let (rank, span) = seg.span(t.dims())?;
            *slot = match span {
                Span::One => Operand::Scalar,
                Span::Row => Operand::Row,
                Span::Full => Operand::Full,
            };
            Some((rank, span))
        };
        let (rank, span) = match src {
            Src::Param(i) => leaf(&inputs[*i])?,
            Src::Const(t, _) => leaf(t)?,
            Src::Member(i) if *i >= lo => {
                *slot = Operand::Member(*i);
                (members[*i].rank, members[*i].span)
            }
            Src::Field(s, k) => match part {
                Some((at, dims)) if at == *s => {
                    *slot = Operand::Part(*k);
                    seg.span(dims)?
                }
                _ => return None,
            },
            Src::Member(_) => return None,
        };
        m.rank = m.rank.max(rank);
        if span > m.span {
            m.span = span;
        }
    }
    Some(m)
}

impl StripPlan {
    /// Resolve every member (member 0 from `anchor`'s dims when anchored).
    /// `None` when an operand is not f32 or broadcasts other than as a
    /// repeated row, a member reads across the split other than through
    /// its parts, the group has more than one split or splits other than
    /// along the last axis, or a stored value does not span its segment.
    fn new(
        steps: &[Step],
        outputs: &[Src],
        inputs: &[Tensor],
        anchor: Option<&[usize]>,
    ) -> Option<Self> {
        let n = steps.len();
        let is_split = |s: &&Step| matches!(s.kind, Kind::Split { .. });
        if steps.iter().filter(is_split).count() > 1 {
            return None;
        }
        let at = steps.iter().position(|s| is_split(&s));
        let split_at = at.unwrap_or(n);
        let mut members: Vec<Resolved> = Vec::with_capacity(n);
        let unused = [Operand::Unused; 2];

        // Before the split.
        let pre_dims = anchor
            .into_iter()
            .chain(leaf_dims(steps, 0..split_at, inputs));
        let mut pre = Segment::new(pre_dims);
        if let Some(dims) = anchor {
            let (rank, span) = pre.span(dims)?;
            members.push(Resolved {
                args: unused,
                rank,
                span,
            });
            if span != Span::Full && pre.len() != 1 {
                return None;
            }
        }
        for step in &steps[members.len()..split_at] {
            let m = resolve(step, inputs, &members, &mut pre, 0, None)?;
            members.push(m);
        }

        // The split and the members after it.
        let mut post = Segment::new(None);
        let mut split = None;
        if let Some(at) = at {
            let Kind::Split { parts, axis } = steps[at].kind else {
                unreachable!("position found a split")
            };
            let (input, dims) = match &steps[at].args[0] {
                Src::Param(i) => {
                    inputs[*i].as_f32().ok()?;
                    (Ok(*i), inputs[*i].dims().to_vec())
                }
                Src::Member(i) if members[*i].span == Span::Full => {
                    (Err(Buf::Anchor), pre.value(members[*i].rank, Span::Full).0)
                }
                _ => return None,
            };
            let last = *dims.last()?;
            if axis + 1 != dims.len() || last == 0 || !last.is_multiple_of(parts) {
                return None;
            }
            let mut part = dims;
            part[axis] = last / parts;
            members.push(Resolved {
                args: unused,
                rank: part.len(),
                span: Span::One,
            });
            let post_dims = std::iter::once(&part[..]).chain(leaf_dims(steps, at + 1..n, inputs));
            post = Segment::new(post_dims);
            if post.core != core_of(&part) {
                return None;
            }
            for step in &steps[at + 1..] {
                let m = resolve(step, inputs, &members, &mut post, at + 1, Some((at, &part)))?;
                members.push(m);
            }
            let cols = part[axis];
            if post.row.is_some() && post.width() != cols {
                return None;
            }
            split = Some(SplitView {
                at,
                input,
                rows: post.len() / cols,
                cols,
                stride: cols * parts,
                dims: part,
            });
        }
        let (pre_len, post_len) = (pre.len(), post.len());
        if pre_len == 0 || post_len == 0 {
            return None;
        }
        let is_post = |j: usize| at.is_some_and(|s| j > s);
        let seg = |j: usize| if is_post(j) { &post } else { &pre };
        let (dims, lens): (Vec<Vec<usize>>, Vec<usize>) = members
            .iter()
            .enumerate()
            .map(|(j, m)| seg(j).value(m.rank, m.span))
            .unzip();

        // Materialize the outputs and the split's input.
        let mut wanted: Vec<usize> = Vec::new();
        for o in outputs {
            match o {
                Src::Member(j) if Some(*j) != at => wanted.push(*j),
                Src::Field(s, _) if Some(*s) == at => {}
                _ => return None,
            }
        }
        if let Some(Src::Member(i)) = at.map(|s| &steps[s].args[0]) {
            wanted.push(*i);
        }
        let mut store: Vec<Option<Buf>> = vec![None; n];
        let (mut pre_bufs, mut post_bufs) = (Vec::new(), Vec::new());
        let anchor_free = anchor.is_some() && !wanted.contains(&0);
        if anchor.is_some() {
            store[0] = Some(Buf::Anchor);
        }
        // Only a value spanning its segment can take over the anchor's
        // buffer.
        let full = |j: usize| members[j].span == Span::Full || seg(j).len() == 1;
        let last_pre = wanted
            .iter()
            .copied()
            .filter(|&j| !is_post(j) && j != 0 && full(j))
            .max();
        for &j in &wanted {
            if store[j].is_some() {
                continue;
            }
            store[j] = Some(if is_post(j) {
                post_bufs.push(lens[j]);
                Buf::Post(post_bufs.len() - 1)
            } else if anchor_free && Some(j) == last_pre {
                Buf::Anchor
            } else {
                pre_bufs.push(lens[j]);
                Buf::Pre(pre_bufs.len() - 1)
            });
        }
        if let Some(sp) = &mut split {
            if let Src::Member(i) = steps[sp.at].args[0] {
                sp.input = Err(store[i].expect("the split input is materialized"));
            }
        }
        Some(StripPlan {
            members,
            anchor: anchor.map(<[usize]>::to_vec),
            split,
            pre_len,
            pre_width: pre.width(),
            dims,
            store,
            pre_bufs,
            post_bufs,
        })
    }

    /// Evaluate the members before the split (in place over the anchor's
    /// buffer when anchored), then the members after it, strip by strip
    /// along each segment's rows, and assemble the outputs.
    fn run(
        &self,
        isa: Isa,
        steps: &[Step],
        outputs: &[Src],
        inputs: &[Tensor],
        anchor: Option<Tensor>,
    ) -> Result<Vec<Tensor>, KernelError> {
        let n = steps.len();
        let mut anchor = anchor;
        let mut scratch = vec![0.0f32; n * STRIP];
        let mut pre: Vec<Vec<f32>> = self.pre_bufs.iter().map(|&l| vec![0.0; l]).collect();
        let mut post: Vec<Vec<f32>> = self.post_bufs.iter().map(|&l| vec![0.0; l]).collect();
        let split_at = self.split.as_ref().map_or(n, |s| s.at);
        {
            let anchor_buf: &mut [f32] = match anchor.as_mut() {
                Some(t) => t.as_f32_mut()?,
                None => &mut [],
            };
            let first = usize::from(self.anchor.is_some());
            let width = self.pre_width;
            for row in 0..self.pre_len / width {
                for col in (0..width).step_by(STRIP) {
                    let at = row * width + col..row * width + (col + STRIP).min(width);
                    if first == 1 {
                        scratch[..at.len()].copy_from_slice(&anchor_buf[at.clone()]);
                    }
                    let pos = Pos {
                        at,
                        col,
                        part: &[],
                        cols: 0,
                    };
                    for j in first..split_at {
                        let dst = self.step(isa, steps, inputs, j, &mut scratch, &pos);
                        let span = self.members[j].span;
                        match self.store[j] {
                            Some(Buf::Anchor) => put(anchor_buf, span, row, &pos, dst),
                            Some(Buf::Pre(b)) => put(&mut pre[b], span, row, &pos, dst),
                            _ => {}
                        }
                    }
                }
            }
            if let Some(sp) = &self.split {
                let base: &[f32] = match sp.input {
                    Ok(i) => inputs[i].as_f32()?,
                    Err(Buf::Anchor) => anchor_buf,
                    Err(Buf::Pre(b)) => &pre[b],
                    Err(Buf::Post(_)) => unreachable!("the split input precedes the split"),
                };
                for row in 0..sp.rows {
                    for col in (0..sp.cols).step_by(STRIP) {
                        let at = row * sp.cols + col..row * sp.cols + (col + STRIP).min(sp.cols);
                        let pos = Pos {
                            at,
                            col,
                            part: &base[row * sp.stride + col..],
                            cols: sp.cols,
                        };
                        for j in sp.at + 1..n {
                            let dst = self.step(isa, steps, inputs, j, &mut scratch, &pos);
                            if let Some(Buf::Post(b)) = self.store[j] {
                                put(&mut post[b], self.members[j].span, row, &pos, dst);
                            }
                        }
                    }
                }
            }
        }
        // Outputs: split parts are copied out first, while the split's
        // input buffer is still at hand.
        let part_of = |k: usize| -> Result<Tensor, KernelError> {
            let sp = self.split.as_ref().expect("fields read the split");
            let base: &[f32] = match sp.input {
                Ok(i) => inputs[i].as_f32()?,
                Err(Buf::Anchor) => anchor.as_ref().expect("anchored").as_f32()?,
                Err(Buf::Pre(b)) => &pre[b],
                Err(Buf::Post(_)) => unreachable!("the split input precedes the split"),
            };
            let mut v = Vec::with_capacity(sp.rows * sp.cols);
            for row in 0..sp.rows {
                let from = row * sp.stride + k * sp.cols;
                v.extend_from_slice(&base[from..from + sp.cols]);
            }
            Ok(Tensor::from_vec_f32(v, &sp.dims)?)
        };
        let mut out: Vec<Option<Tensor>> = outputs
            .iter()
            .map(|o| match o {
                Src::Field(_, k) => part_of(*k).map(Some),
                _ => Ok(None),
            })
            .collect::<Result<_, _>>()?;
        for (slot, o) in out.iter_mut().zip(outputs) {
            let Src::Member(j) = o else { continue };
            let dims = &self.dims[*j];
            *slot = Some(match self.store[*j].expect("outputs are materialized") {
                Buf::Anchor => {
                    let t = anchor.take().expect("the anchor buffer is one output");
                    if t.dims() == dims.as_slice() {
                        t
                    } else {
                        t.reshaped(dims)?
                    }
                }
                Buf::Pre(b) => Tensor::from_vec_f32(std::mem::take(&mut pre[b]), dims)?,
                Buf::Post(b) => Tensor::from_vec_f32(std::mem::take(&mut post[b]), dims)?,
            });
        }
        Ok(out
            .into_iter()
            .map(|t| t.expect("every output assembled"))
            .collect())
    }

    /// Evaluate member `j` over one strip into its scratch slot and return
    /// the slot.
    fn step<'s>(
        &self,
        isa: Isa,
        steps: &[Step],
        inputs: &[Tensor],
        j: usize,
        scratch: &'s mut [f32],
        pos: &Pos<'_>,
    ) -> &'s [f32] {
        let (done, rest) = scratch.split_at_mut(j * STRIP);
        let dst = &mut rest[..pos.at.len()];
        let [a, b] = self.members[j].args;
        let Kind::Ew(op) = steps[j].kind else {
            unreachable!("strip members are elementwise")
        };
        let args = &steps[j].args;
        let (a, b) = (
            a.strip(args.first(), inputs, done, pos),
            b.strip(args.get(1), inputs, done, pos),
        );
        op.apply(isa, dst, a, b);
        dst
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
    fn plan_cache_stops_growing_at_its_cap() {
        let cache = PlanCache::default();
        let mut builds = 0;
        for n in 1..=PlanCache::CAP + 6 {
            let inputs = [Tensor::zeros(DType::F32, &[n])];
            for _ in 0..2 {
                cache.get(&inputs, || {
                    builds += 1;
                    None
                });
            }
        }
        assert_eq!(cache.0.read().unwrap().len(), PlanCache::CAP);
        // A cached signature builds once; one past the cap on every call.
        assert_eq!(builds, PlanCache::CAP + 2 * 6);
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
