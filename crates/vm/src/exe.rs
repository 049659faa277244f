//! The VM executable: platform-independent bytecode, the constant pool,
//! and kernel descriptors.
//!
//! "Nimble compiles a dynamic model into a VM executable that contains
//! platform-independent bytecode and platform-dependent kernel code"
//! (Section 5). Closures cannot be serialized, so the executable stores
//! *kernel descriptors* — enough information to re-instantiate each kernel
//! on the loading platform via `nimble-codegen`. The bytecode itself
//! serializes with the variable-length format of [`crate::isa`].

use crate::isa::{self, Instruction};
use crate::{Result, VmError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nimble_codegen::kernel::Kernel;
use nimble_codegen::shape_func::ShapeFuncKernel;
use nimble_ir::attrs::{AttrValue, Attrs};
use nimble_ir::expr::{Expr, Function};
use nimble_ir::types::Type;
use nimble_ir::Var;
use nimble_tensor::{DType, Data, Tensor};

/// An argument of a fused-kernel member operation.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberArg {
    /// The i-th kernel parameter.
    Param(u32),
    /// The output of an earlier member.
    Member(u32),
    /// Field `.1` of the earlier multi-output member `.0` (a `split` part).
    Field(u32, u32),
    /// An entry of the executable's constant pool.
    Const(u32),
}

/// One operation inside a fused kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedMember {
    /// Operator name.
    pub op: String,
    /// Static attributes.
    pub attrs: Attrs,
    /// Argument sources.
    pub args: Vec<MemberArg>,
}

/// A serializable description of one kernel-table entry.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelDesc {
    /// A single operator kernel.
    Op {
        /// Operator name.
        name: String,
        /// Static attributes.
        attrs: Attrs,
        /// Use symbolic (residue-dispatch) codegen.
        symbolic: bool,
    },
    /// A fused primitive kernel.
    Fused {
        /// Number of parameters.
        num_params: u32,
        /// Member operations in execution order.
        members: Vec<FusedMember>,
        /// The kernel's outputs, in order: members or fields of members.
        outputs: Vec<MemberArg>,
    },
    /// The shape function of a single operator.
    ShapeFuncOp {
        /// Operator name.
        name: String,
        /// Static attributes.
        attrs: Attrs,
        /// Dtypes of the operator's tensor inputs.
        in_dtypes: Vec<DType>,
    },
    /// The composite shape function of a fused primitive.
    ShapeFuncFused {
        /// Number of parameters.
        num_params: u32,
        /// Member operations.
        members: Vec<FusedMember>,
        /// The primitive's outputs, as for [`KernelDesc::Fused`].
        outputs: Vec<MemberArg>,
        /// Dtypes of the primitive's parameters.
        in_dtypes: Vec<DType>,
    },
}

/// Rebuild an IR function from a fused descriptor (fresh variables): the
/// members in order, each field read bound right after its member, ending
/// in the one output or a tuple of the outputs.
fn rebuild_function(
    num_params: u32,
    members: &[FusedMember],
    outputs: &[MemberArg],
    constants: &[Tensor],
) -> Result<Function> {
    let params: Vec<Var> = (0..num_params)
        .map(|i| Var::fresh(&format!("p{i}"), Type::Unknown))
        .collect();
    let member_vars: Vec<Var> = (0..members.len())
        .map(|i| Var::fresh(&format!("m{i}"), Type::Unknown))
        .collect();
    let mut fields: std::collections::BTreeMap<(u32, u32), Var> = Default::default();
    for a in members.iter().flat_map(|m| &m.args).chain(outputs) {
        if let MemberArg::Field(j, k) = *a {
            fields
                .entry((j, k))
                .or_insert_with(|| Var::fresh(&format!("m{j}_{k}"), Type::Unknown));
        }
    }
    let atom = |a: &MemberArg| -> Result<Expr> {
        match a {
            MemberArg::Param(p) => params
                .get(*p as usize)
                .map(|v| v.to_expr())
                .ok_or_else(|| VmError::msg("fused param index out of range")),
            MemberArg::Member(j) => member_vars
                .get(*j as usize)
                .map(|v| v.to_expr())
                .ok_or_else(|| VmError::msg("fused member index out of range")),
            MemberArg::Field(j, k) => Ok(fields[&(*j, *k)].to_expr()),
            MemberArg::Const(c) => constants
                .get(*c as usize)
                .map(|t| Expr::constant(t.clone()))
                .ok_or_else(|| VmError::msg("fused constant index out of range")),
        }
    };
    let mut bindings: Vec<(Var, Expr)> = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let args: Vec<Expr> = m.args.iter().map(&atom).collect::<Result<_>>()?;
        bindings.push((
            member_vars[i].clone(),
            Expr::new(nimble_ir::ExprKind::Call {
                callee: Expr::op(&m.op),
                args,
                attrs: m.attrs.clone(),
            }),
        ));
        for ((_, k), v) in fields.range((i as u32, 0)..=(i as u32, u32::MAX)) {
            bindings.push((
                v.clone(),
                Expr::tuple_get(member_vars[i].to_expr(), *k as usize),
            ));
        }
    }
    let body = match outputs {
        [] => return Err(VmError::msg("fused kernel with no outputs")),
        [one] => atom(one)?,
        many => {
            let r = Var::fresh("outs", Type::Unknown);
            let tuple = Expr::tuple(many.iter().map(&atom).collect::<Result<_>>()?);
            bindings.push((r.clone(), tuple));
            r.to_expr()
        }
    };
    if members.is_empty() {
        return Err(VmError::msg("fused kernel with no members"));
    }
    let body = bindings
        .into_iter()
        .rev()
        .fold(body, |body, (v, e)| Expr::let_(v, e, body));
    Ok(Function::new(params, body, Type::Unknown))
}

impl KernelDesc {
    /// Instantiate the kernel on the loading platform.
    ///
    /// # Errors
    /// Fails for unknown operators or malformed fused bodies.
    pub fn instantiate(&self, constants: &[Tensor]) -> Result<Kernel> {
        match self {
            KernelDesc::Op {
                name,
                attrs,
                symbolic,
            } => Ok(Kernel::from_op(name, attrs, *symbolic)?),
            KernelDesc::Fused {
                num_params,
                members,
                outputs,
            } => {
                let f = rebuild_function(*num_params, members, outputs, constants)?;
                Ok(Kernel::from_primitive(&f)?)
            }
            KernelDesc::ShapeFuncOp {
                name,
                attrs,
                in_dtypes,
            } => {
                let sf = ShapeFuncKernel::from_op(name, attrs, in_dtypes.clone())?;
                Ok(wrap_shape_func(sf))
            }
            KernelDesc::ShapeFuncFused {
                num_params,
                members,
                outputs,
                in_dtypes,
            } => {
                let f = rebuild_function(*num_params, members, outputs, constants)?;
                let sf = ShapeFuncKernel::from_primitive(&f, in_dtypes.clone())?;
                Ok(wrap_shape_func(sf))
            }
        }
    }

    /// Whether this entry is a shape function (always CPU-executed).
    pub fn is_shape_func(&self) -> bool {
        matches!(
            self,
            KernelDesc::ShapeFuncOp { .. } | KernelDesc::ShapeFuncFused { .. }
        )
    }
}

fn wrap_shape_func(sf: ShapeFuncKernel) -> Kernel {
    let name = format!("shape_func({})", sf.name());
    Kernel::new(&name, move |inputs| sf.invoke(inputs))
}

/// The serialized executable format version. Version 2 gave fused kernels
/// an explicit output list and field operands; artifacts of other versions
/// are rejected rather than reinterpreted.
const FORMAT_VERSION: u32 = 2;

/// A lowered function: named bytecode with a register budget.
#[derive(Debug, Clone, PartialEq)]
pub struct VMFunction {
    /// Function name (entry point is `main`).
    pub name: String,
    /// Number of parameters (occupying registers `0..num_params`).
    pub num_params: u32,
    /// Total registers used.
    pub num_regs: u32,
    /// Instruction sequence.
    pub code: Vec<Instruction>,
}

/// A complete, loadable VM program.
#[derive(Debug, Clone, Default)]
pub struct Executable {
    /// Function table.
    pub functions: Vec<VMFunction>,
    /// Constant pool (weights live here and stay in memory, referenced by
    /// `LoadConst`).
    pub constants: Vec<Tensor>,
    /// Preferred device index per constant (pre-placement).
    pub const_devices: Vec<u8>,
    /// Kernel table descriptors.
    pub kernels: Vec<KernelDesc>,
}

impl Executable {
    /// Index of a function by name.
    ///
    /// # Errors
    /// Fails when the function does not exist.
    pub fn function_index(&self, name: &str) -> Result<u32> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
            .ok_or_else(|| VmError::msg(format!("no function named {name}")))
    }

    /// Total bytecode instruction count (diagnostics).
    pub fn num_instructions(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// Pre-pack every constant that feeds a dense/conv2d weight slot into
    /// the process-wide pack cache (`nimble_tensor::prepack`), so the first
    /// inference of every VM session — and every residue variant of the
    /// symbolic dense kernels — starts from already-packed panels.
    ///
    /// Two sources are scanned: fused kernel bodies whose members embed the
    /// weight as a `MemberArg::Const`, and bytecode `InvokePacked` calls to
    /// plain dense/conv2d kernels whose weight register traces back to a
    /// `LoadConst`. Returns the number of constants packed (deduplicated by
    /// the cache itself; re-running is a no-op).
    pub fn prepack_weights(&self) -> usize {
        self.weight_constants()
            .filter(|t| nimble_tensor::prepack::prepack_weight_tensor(t))
            .count()
    }

    /// Buffer identities of every constant [`Executable::prepack_weights`]
    /// would cache — the handle a model server passes to
    /// `nimble_tensor::prepack::release_buffers` when this program is
    /// unloaded, so its packed panels stop pinning memory.
    pub fn weight_buffer_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.weight_constants().map(|t| t.buffer_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Constants feeding dense/conv2d weight slots (see
    /// [`Executable::prepack_weights`] for the two scan sources).
    fn weight_constants(&self) -> impl Iterator<Item = &Tensor> {
        let mut const_ids: Vec<u32> = Vec::new();
        for desc in &self.kernels {
            if let KernelDesc::Fused { members, .. } = desc {
                for m in members {
                    if (m.op == "dense" || m.op == "conv2d") && m.args.len() >= 2 {
                        if let MemberArg::Const(c) = m.args[1] {
                            const_ids.push(c);
                        }
                    }
                }
            }
        }
        for f in &self.functions {
            // reg -> constant index, tracked linearly (registers are SSA-ish
            // in lowered code; a later overwrite simply replaces the entry).
            let mut reg_const: std::collections::HashMap<u32, u32> =
                std::collections::HashMap::new();
            for inst in &f.code {
                match inst {
                    Instruction::LoadConst { index, dst } => {
                        reg_const.insert(*dst, *index);
                    }
                    Instruction::InvokePacked { kernel, args, .. } => {
                        let is_weighted_op = matches!(
                            self.kernels.get(*kernel as usize),
                            Some(KernelDesc::Op { name, .. })
                                if name == "dense" || name == "conv2d"
                        );
                        if is_weighted_op && args.len() >= 2 {
                            if let Some(&c) = reg_const.get(&args[1]) {
                                const_ids.push(c);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        const_ids.sort_unstable();
        const_ids.dedup();
        const_ids
            .into_iter()
            .filter_map(|c| self.constants.get(c as usize))
    }

    /// Write the serialized executable to a file.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.save()).map_err(|e| VmError::msg(e.to_string()))
    }

    /// Load an executable from a file written by [`Executable::save_to`].
    ///
    /// # Errors
    /// Propagates I/O failures and format errors.
    pub fn load_from(path: impl AsRef<std::path::Path>) -> Result<Executable> {
        let bytes = std::fs::read(path).map_err(|e| VmError::msg(e.to_string()))?;
        Executable::load(&bytes)
    }

    /// Serialize to bytes.
    pub fn save(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(b"NMBL");
        buf.put_u32_le(FORMAT_VERSION);
        // Constants.
        buf.put_u32_le(self.constants.len() as u32);
        for (t, dev) in self
            .constants
            .iter()
            .zip(self.const_devices.iter().chain(std::iter::repeat(&0u8)))
        {
            put_tensor(&mut buf, t);
            buf.put_u8(*dev);
        }
        // Kernels.
        buf.put_u32_le(self.kernels.len() as u32);
        for k in &self.kernels {
            put_kernel_desc(&mut buf, k);
        }
        // Functions.
        buf.put_u32_le(self.functions.len() as u32);
        for f in &self.functions {
            put_string(&mut buf, &f.name);
            buf.put_u32_le(f.num_params);
            buf.put_u32_le(f.num_regs);
            buf.put_u32_le(f.code.len() as u32);
            for inst in &f.code {
                isa::encode(inst, &mut buf);
            }
        }
        buf.freeze()
    }

    /// Load from bytes produced by [`Executable::save`].
    ///
    /// # Errors
    /// Fails on bad magic, version, or truncated/corrupt payloads.
    pub fn load(data: &[u8]) -> Result<Executable> {
        let mut buf = Bytes::copy_from_slice(data);
        if buf.remaining() < 8 || &buf.copy_to_bytes(4)[..] != b"NMBL" {
            return Err(VmError::msg("bad executable magic"));
        }
        let version = buf.get_u32_le();
        if version != FORMAT_VERSION {
            return Err(VmError::msg(format!(
                "unsupported executable format version {version} (this build reads \
                 {FORMAT_VERSION})"
            )));
        }
        let n_const = checked_len(&mut buf)?;
        let mut constants = Vec::with_capacity(n_const);
        let mut const_devices = Vec::with_capacity(n_const);
        for _ in 0..n_const {
            constants.push(get_tensor(&mut buf)?);
            const_devices.push(get_u8(&mut buf)?);
        }
        let n_kern = checked_len(&mut buf)?;
        let mut kernels = Vec::with_capacity(n_kern);
        for _ in 0..n_kern {
            kernels.push(get_kernel_desc(&mut buf)?);
        }
        let n_func = checked_len(&mut buf)?;
        let mut functions = Vec::with_capacity(n_func);
        for _ in 0..n_func {
            let name = get_string(&mut buf)?;
            let num_params = get_u32(&mut buf)?;
            let num_regs = get_u32(&mut buf)?;
            let n_inst = checked_len(&mut buf)?;
            let mut code = Vec::with_capacity(n_inst);
            for _ in 0..n_inst {
                code.push(isa::decode(&mut buf)?);
            }
            functions.push(VMFunction {
                name,
                num_params,
                num_regs,
                code,
            });
        }
        Ok(Executable {
            functions,
            constants,
            const_devices,
            kernels,
        })
    }
}

// ---- low-level codecs ----

fn checked_len(buf: &mut Bytes) -> Result<usize> {
    let n = get_u32(buf)? as usize;
    if n > 1 << 24 {
        return Err(VmError::msg("length field too large"));
    }
    Ok(n)
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(VmError::msg("truncated executable"));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(VmError::msg("truncated executable"));
    }
    Ok(buf.get_u32_le())
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String> {
    let n = checked_len(buf)?;
    if buf.remaining() < n {
        return Err(VmError::msg("truncated string"));
    }
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| VmError::msg("invalid utf8"))
}

fn put_tensor(buf: &mut BytesMut, t: &Tensor) {
    buf.put_u8(t.dtype().code());
    buf.put_u32_le(t.rank() as u32);
    for &d in t.dims() {
        buf.put_u64_le(d as u64);
    }
    match t.data() {
        Data::F32(v) => {
            for &x in v {
                buf.put_f32_le(x);
            }
        }
        Data::I64(v) => {
            for &x in v {
                buf.put_i64_le(x);
            }
        }
        Data::I32(v) => {
            for &x in v {
                buf.put_i32_le(x);
            }
        }
        Data::Bool(v) => {
            for &x in v {
                buf.put_u8(x as u8);
            }
        }
    }
}

fn get_tensor(buf: &mut Bytes) -> Result<Tensor> {
    let dtype = DType::from_code(get_u8(buf)?).ok_or_else(|| VmError::msg("bad dtype"))?;
    let rank = get_u32(buf)? as usize;
    if rank > 64 {
        return Err(VmError::msg("rank too large"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        if buf.remaining() < 8 {
            return Err(VmError::msg("truncated tensor dims"));
        }
        dims.push(buf.get_u64_le() as usize);
    }
    // Corrupt inputs can carry dims whose product overflows; reject with
    // checked arithmetic rather than panicking.
    let volume = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| VmError::msg("tensor volume overflow"))?;
    let nbytes = volume
        .checked_mul(dtype.size_of())
        .ok_or_else(|| VmError::msg("tensor byte size overflow"))?;
    if buf.remaining() < nbytes {
        return Err(VmError::msg("truncated tensor data"));
    }
    let data = match dtype {
        DType::F32 => Data::F32((0..volume).map(|_| buf.get_f32_le()).collect()),
        DType::I64 => Data::I64((0..volume).map(|_| buf.get_i64_le()).collect()),
        DType::I32 => Data::I32((0..volume).map(|_| buf.get_i32_le()).collect()),
        DType::Bool => Data::Bool((0..volume).map(|_| buf.get_u8() != 0).collect()),
    };
    Tensor::new(data, &dims).map_err(|e| VmError(e.to_string()))
}

fn put_attr_value(buf: &mut BytesMut, v: &AttrValue) {
    match v {
        AttrValue::Int(x) => {
            buf.put_u8(0);
            buf.put_i64_le(*x);
        }
        AttrValue::IntVec(xs) => {
            buf.put_u8(1);
            buf.put_u32_le(xs.len() as u32);
            for &x in xs {
                buf.put_i64_le(x);
            }
        }
        AttrValue::Float(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
        AttrValue::Bool(x) => {
            buf.put_u8(3);
            buf.put_u8(*x as u8);
        }
        AttrValue::Str(s) => {
            buf.put_u8(4);
            put_string(buf, s);
        }
        AttrValue::DType(d) => {
            buf.put_u8(5);
            buf.put_u8(d.code());
        }
    }
}

fn get_attr_value(buf: &mut Bytes) -> Result<AttrValue> {
    Ok(match get_u8(buf)? {
        0 => {
            if buf.remaining() < 8 {
                return Err(VmError::msg("truncated attr"));
            }
            AttrValue::Int(buf.get_i64_le())
        }
        1 => {
            let n = checked_len(buf)?;
            if buf.remaining() < n * 8 {
                return Err(VmError::msg("truncated attr vec"));
            }
            AttrValue::IntVec((0..n).map(|_| buf.get_i64_le()).collect())
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(VmError::msg("truncated attr"));
            }
            AttrValue::Float(buf.get_f64_le())
        }
        3 => AttrValue::Bool(get_u8(buf)? != 0),
        4 => AttrValue::Str(get_string(buf)?),
        5 => AttrValue::DType(
            DType::from_code(get_u8(buf)?).ok_or_else(|| VmError::msg("bad attr dtype"))?,
        ),
        other => return Err(VmError::msg(format!("bad attr tag {other}"))),
    })
}

fn put_attrs(buf: &mut BytesMut, attrs: &Attrs) {
    buf.put_u32_le(attrs.0.len() as u32);
    for (k, v) in &attrs.0 {
        put_string(buf, k);
        put_attr_value(buf, v);
    }
}

fn get_attrs(buf: &mut Bytes) -> Result<Attrs> {
    let n = checked_len(buf)?;
    let mut attrs = Attrs::new();
    for _ in 0..n {
        let k = get_string(buf)?;
        let v = get_attr_value(buf)?;
        attrs.0.insert(k, v);
    }
    Ok(attrs)
}

fn put_member_args(buf: &mut BytesMut, args: &[MemberArg]) {
    buf.put_u32_le(args.len() as u32);
    for a in args {
        match a {
            MemberArg::Param(i) => {
                buf.put_u8(0);
                buf.put_u32_le(*i);
            }
            MemberArg::Member(i) => {
                buf.put_u8(1);
                buf.put_u32_le(*i);
            }
            MemberArg::Const(i) => {
                buf.put_u8(2);
                buf.put_u32_le(*i);
            }
            MemberArg::Field(i, k) => {
                buf.put_u8(3);
                buf.put_u32_le(*i);
                buf.put_u32_le(*k);
            }
        }
    }
}

fn get_member_args(buf: &mut Bytes) -> Result<Vec<MemberArg>> {
    let n = checked_len(buf)?;
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = get_u8(buf)?;
        let idx = get_u32(buf)?;
        args.push(match tag {
            0 => MemberArg::Param(idx),
            1 => MemberArg::Member(idx),
            2 => MemberArg::Const(idx),
            3 => MemberArg::Field(idx, get_u32(buf)?),
            other => return Err(VmError::msg(format!("bad member arg tag {other}"))),
        });
    }
    Ok(args)
}

fn put_members(buf: &mut BytesMut, members: &[FusedMember], outputs: &[MemberArg]) {
    buf.put_u32_le(members.len() as u32);
    for m in members {
        put_string(buf, &m.op);
        put_attrs(buf, &m.attrs);
        put_member_args(buf, &m.args);
    }
    put_member_args(buf, outputs);
}

fn get_members(buf: &mut Bytes) -> Result<(Vec<FusedMember>, Vec<MemberArg>)> {
    let n = checked_len(buf)?;
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        let op = get_string(buf)?;
        let attrs = get_attrs(buf)?;
        let args = get_member_args(buf)?;
        members.push(FusedMember { op, attrs, args });
    }
    Ok((members, get_member_args(buf)?))
}

fn put_dtypes(buf: &mut BytesMut, dts: &[DType]) {
    buf.put_u32_le(dts.len() as u32);
    for d in dts {
        buf.put_u8(d.code());
    }
}

fn get_dtypes(buf: &mut Bytes) -> Result<Vec<DType>> {
    let n = checked_len(buf)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(DType::from_code(get_u8(buf)?).ok_or_else(|| VmError::msg("bad dtype"))?);
    }
    Ok(out)
}

fn put_kernel_desc(buf: &mut BytesMut, k: &KernelDesc) {
    match k {
        KernelDesc::Op {
            name,
            attrs,
            symbolic,
        } => {
            buf.put_u8(0);
            put_string(buf, name);
            put_attrs(buf, attrs);
            buf.put_u8(*symbolic as u8);
        }
        KernelDesc::Fused {
            num_params,
            members,
            outputs,
        } => {
            buf.put_u8(1);
            buf.put_u32_le(*num_params);
            put_members(buf, members, outputs);
        }
        KernelDesc::ShapeFuncOp {
            name,
            attrs,
            in_dtypes,
        } => {
            buf.put_u8(2);
            put_string(buf, name);
            put_attrs(buf, attrs);
            put_dtypes(buf, in_dtypes);
        }
        KernelDesc::ShapeFuncFused {
            num_params,
            members,
            outputs,
            in_dtypes,
        } => {
            buf.put_u8(3);
            buf.put_u32_le(*num_params);
            put_members(buf, members, outputs);
            put_dtypes(buf, in_dtypes);
        }
    }
}

fn get_kernel_desc(buf: &mut Bytes) -> Result<KernelDesc> {
    Ok(match get_u8(buf)? {
        0 => KernelDesc::Op {
            name: get_string(buf)?,
            attrs: get_attrs(buf)?,
            symbolic: get_u8(buf)? != 0,
        },
        1 => {
            let num_params = get_u32(buf)?;
            let (members, outputs) = get_members(buf)?;
            KernelDesc::Fused {
                num_params,
                members,
                outputs,
            }
        }
        2 => KernelDesc::ShapeFuncOp {
            name: get_string(buf)?,
            attrs: get_attrs(buf)?,
            in_dtypes: get_dtypes(buf)?,
        },
        3 => {
            let num_params = get_u32(buf)?;
            let (members, outputs) = get_members(buf)?;
            KernelDesc::ShapeFuncFused {
                num_params,
                members,
                outputs,
                in_dtypes: get_dtypes(buf)?,
            }
        }
        other => return Err(VmError::msg(format!("bad kernel desc tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_ir::attrs::AttrValue;

    fn sample_exe() -> Executable {
        Executable {
            functions: vec![VMFunction {
                name: "main".into(),
                num_params: 1,
                num_regs: 4,
                code: vec![
                    Instruction::LoadConst { index: 0, dst: 1 },
                    Instruction::InvokePacked {
                        kernel: 0,
                        args: vec![0, 1, 2],
                        num_outputs: 1,
                        device: 0,
                    },
                    Instruction::Ret { result: 2 },
                ],
            }],
            constants: vec![
                Tensor::from_vec_f32(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
                Tensor::from_vec_i64(vec![5, 7], &[2]).unwrap(),
                Tensor::from_vec_bool(vec![true, false], &[2]).unwrap(),
            ],
            const_devices: vec![0, 0, 1],
            kernels: vec![
                KernelDesc::Op {
                    name: "add".into(),
                    attrs: Attrs::new(),
                    symbolic: false,
                },
                KernelDesc::Fused {
                    num_params: 2,
                    members: vec![
                        FusedMember {
                            op: "dense".into(),
                            attrs: Attrs::new(),
                            args: vec![MemberArg::Param(0), MemberArg::Param(1)],
                        },
                        FusedMember {
                            op: "tanh".into(),
                            attrs: Attrs::new(),
                            args: vec![MemberArg::Member(0)],
                        },
                    ],
                    outputs: vec![MemberArg::Member(1)],
                },
                KernelDesc::ShapeFuncOp {
                    name: "concat".into(),
                    attrs: Attrs::new().with("axis", AttrValue::Int(0)),
                    in_dtypes: vec![DType::F32, DType::F32],
                },
            ],
        }
    }

    #[test]
    fn save_load_round_trip() {
        let exe = sample_exe();
        let bytes = exe.save();
        let loaded = Executable::load(&bytes).unwrap();
        assert_eq!(loaded.functions, exe.functions);
        assert_eq!(loaded.constants.len(), 3);
        assert_eq!(
            loaded.constants[0].as_f32().unwrap(),
            exe.constants[0].as_f32().unwrap()
        );
        assert_eq!(loaded.constants[1].as_i64().unwrap(), &[5, 7]);
        assert_eq!(loaded.constants[2].as_bool().unwrap(), &[true, false]);
        assert_eq!(loaded.const_devices, vec![0, 0, 1]);
        assert_eq!(loaded.kernels, exe.kernels);
    }

    #[test]
    fn load_rejects_corrupt() {
        assert!(Executable::load(b"JUNK").is_err());
        assert!(Executable::load(b"").is_err());
        let exe = sample_exe();
        let bytes = exe.save();
        // Truncation anywhere must be an error, not a panic.
        for cut in [5, 9, 20, bytes.len() - 1] {
            assert!(Executable::load(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(Executable::load(&bad).is_err());
    }

    #[test]
    fn kernel_descs_instantiate() {
        let exe = sample_exe();
        for k in &exe.kernels {
            let kernel = k.instantiate(&exe.constants).unwrap();
            assert!(!kernel.name().is_empty());
        }
        // The fused kernel computes tanh(dense(x, w)).
        let fused = exe.kernels[1].instantiate(&exe.constants).unwrap();
        let x = Tensor::ones_f32(&[2, 3]);
        let w = Tensor::ones_f32(&[4, 3]);
        let out = fused.invoke(&[x, w]).unwrap();
        assert_eq!(out[0].dims(), &[2, 4]);
        let expect = 3.0f32.tanh();
        assert!(out[0]
            .as_f32()
            .unwrap()
            .iter()
            .all(|&v| (v - expect).abs() < 1e-6));
    }

    #[test]
    fn shape_func_desc_instantiates_and_runs() {
        let exe = sample_exe();
        let sf = exe.kernels[2].instantiate(&exe.constants).unwrap();
        let a = Tensor::from_vec_i64(vec![3, 2], &[2]).unwrap();
        let b = Tensor::from_vec_i64(vec![4, 2], &[2]).unwrap();
        let out = sf.invoke(&[a, b]).unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[7, 2]);
        assert!(exe.kernels[2].is_shape_func());
        assert!(!exe.kernels[0].is_shape_func());
    }

    #[test]
    fn function_lookup() {
        let exe = sample_exe();
        assert_eq!(exe.function_index("main").unwrap(), 0);
        assert!(exe.function_index("missing").is_err());
        assert_eq!(exe.num_instructions(), 3);
    }

    #[test]
    fn fused_desc_with_constants() {
        // A fused member referencing the constant pool.
        let exe = sample_exe();
        let desc = KernelDesc::Fused {
            num_params: 1,
            members: vec![FusedMember {
                op: "add".into(),
                attrs: Attrs::new(),
                args: vec![MemberArg::Param(0), MemberArg::Const(0)],
            }],
            outputs: vec![MemberArg::Member(0)],
        };
        let k = desc.instantiate(&exe.constants).unwrap();
        let x = Tensor::from_vec_f32(vec![10.0, 10.0, 10.0], &[3]).unwrap();
        let out = k.invoke(&[x]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[11.0, 12.0, 13.0]);
    }
}
