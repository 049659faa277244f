//! Bytecode lowering: memory-planned, device-placed ANF IR → the VM's
//! 20-instruction ISA.
//!
//! Virtual registers are allocated SSA-style (one per binding; aliases
//! share registers). Control flow becomes `If`/`Goto` with relative
//! offsets; `match` becomes `GetTag` + tag tests; closures are
//! lambda-lifted into additional VM functions with their captures
//! prepended to the parameter list; kernel invocations become
//! `InvokePacked` entries referencing the executable's kernel table.

use crate::{CompileError, Result};
use nimble_codegen::kernel::{parse_primitive, Src};
use nimble_ir::attrs::Attrs;
use nimble_ir::expr::{Expr, ExprKind, Function, Pattern};
use nimble_ir::visit::free_vars;
use nimble_ir::{Module, Var};
use nimble_passes::dialect;
use nimble_tensor::{DType, Tensor};
use nimble_vm::exe::{Executable, FusedMember, KernelDesc, MemberArg, VMFunction};
use nimble_vm::isa::Instruction;
use nimble_vm::object::TUPLE_TAG;
use std::collections::HashMap;

/// Attribute keys internal to the compilation pipeline, stripped before
/// descriptors are emitted.
const INTERNAL_ATTRS: [&str; 7] = [
    "num_outputs",
    "upper_bound",
    "symbolic",
    "device",
    "mode",
    "in_dtype_codes",
    "primitive",
];

fn strip_internal(attrs: &Attrs) -> Attrs {
    let mut out = Attrs::new();
    for (k, v) in &attrs.0 {
        if !INTERNAL_ATTRS.contains(&k.as_str()) {
            out.0.insert(k.clone(), v.clone());
        }
    }
    out
}

/// Module-level lowering state.
pub struct Lowering<'m> {
    module: &'m Module,
    constants: Vec<Tensor>,
    const_devices: Vec<u8>,
    const_memo: HashMap<usize, u32>,
    kernels: Vec<KernelDesc>,
    kernel_memo: HashMap<String, u32>,
    functions: Vec<Option<VMFunction>>,
    func_indices: HashMap<String, u32>,
}

/// Per-function lowering context.
struct Ctx {
    code: Vec<Instruction>,
    next_reg: u32,
    regs: HashMap<u32, u32>, // var id -> register
    name: String,
}

impl Ctx {
    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }
}

/// Lower every function of a (planned) module into an executable.
///
/// # Errors
/// Fails on unbound variables, unknown constructors/globals, or malformed
/// dialect calls.
pub fn lower_module(module: &Module) -> Result<Executable> {
    let mut lowering = Lowering {
        module,
        constants: Vec::new(),
        const_devices: Vec::new(),
        const_memo: HashMap::new(),
        kernels: Vec::new(),
        kernel_memo: HashMap::new(),
        functions: Vec::new(),
        func_indices: HashMap::new(),
    };
    // Reserve indices for all module-level functions first so forward and
    // recursive references resolve.
    for (name, _) in module.functions() {
        let idx = lowering.functions.len() as u32;
        lowering.functions.push(None);
        lowering.func_indices.insert(name.0.clone(), idx);
    }
    for (name, func) in module.functions() {
        let idx = lowering.func_indices[&name.0];
        let vmf = lowering.lower_function(&name.0, func)?;
        lowering.functions[idx as usize] = Some(vmf);
    }
    let functions = lowering
        .functions
        .into_iter()
        .map(|f| f.ok_or_else(|| CompileError::msg("unlowered function slot")))
        .collect::<Result<Vec<_>>>()?;
    Ok(Executable {
        functions,
        constants: lowering.constants,
        const_devices: lowering.const_devices,
        kernels: lowering.kernels,
    })
}

impl<'m> Lowering<'m> {
    fn lower_function(&mut self, name: &str, func: &Function) -> Result<VMFunction> {
        let mut ctx = Ctx {
            code: Vec::new(),
            next_reg: 0,
            regs: HashMap::new(),
            name: name.to_string(),
        };
        for p in &func.params {
            let r = ctx.fresh();
            ctx.regs.insert(p.id, r);
        }
        let result = self.lower_block(&mut ctx, &func.body)?;
        ctx.code.push(Instruction::Ret { result });
        Ok(VMFunction {
            name: name.to_string(),
            num_params: func.params.len() as u32,
            num_regs: ctx.next_reg,
            code: ctx.code,
        })
    }

    fn lower_block(&mut self, ctx: &mut Ctx, block: &Expr) -> Result<u32> {
        let mut cur = block.clone();
        while let ExprKind::Let { var, value, body } = cur.kind() {
            let reg = self.lower_value(ctx, value)?;
            ctx.regs.insert(var.id, reg);
            cur = body.clone();
        }
        self.atom_reg(ctx, &cur, 0)
    }

    /// Register holding an atomic expression, loading constants on demand.
    /// `device_hint` records the preferred placement of constants.
    fn atom_reg(&mut self, ctx: &mut Ctx, atom: &Expr, device_hint: u8) -> Result<u32> {
        match atom.kind() {
            ExprKind::Var(v) => ctx
                .regs
                .get(&v.id)
                .copied()
                .ok_or_else(|| CompileError::msg(format!("{}: unbound variable {v}", ctx.name))),
            ExprKind::Constant(t) => {
                let index = self.intern_constant(atom.ref_id(), t, device_hint);
                let dst = ctx.fresh();
                ctx.code.push(Instruction::LoadConst { index, dst });
                Ok(dst)
            }
            other => Err(CompileError::msg(format!(
                "{}: expected atom, got {other:?}",
                ctx.name
            ))),
        }
    }

    fn intern_constant(&mut self, key: usize, t: &Tensor, device_hint: u8) -> u32 {
        if let Some(&idx) = self.const_memo.get(&key) {
            if device_hint == 1 {
                self.const_devices[idx as usize] = 1;
            }
            return idx;
        }
        let idx = self.constants.len() as u32;
        self.constants.push(t.clone());
        self.const_devices.push(device_hint);
        self.const_memo.insert(key, idx);
        idx
    }

    fn intern_kernel(&mut self, desc: KernelDesc) -> u32 {
        let key = format!("{desc:?}");
        if let Some(&idx) = self.kernel_memo.get(&key) {
            return idx;
        }
        let idx = self.kernels.len() as u32;
        self.kernels.push(desc);
        self.kernel_memo.insert(key, idx);
        idx
    }

    fn lower_value(&mut self, ctx: &mut Ctx, value: &Expr) -> Result<u32> {
        match value.kind() {
            ExprKind::Var(_) | ExprKind::Constant(_) => self.atom_reg(ctx, value, 0),
            ExprKind::Tuple(fields) => {
                let regs = fields
                    .iter()
                    .map(|f| self.atom_reg(ctx, f, 0))
                    .collect::<Result<Vec<_>>>()?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::AllocADT {
                    tag: TUPLE_TAG,
                    fields: regs,
                    dst,
                });
                Ok(dst)
            }
            ExprKind::TupleGet(t, i) => {
                let object = self.atom_reg(ctx, t, 0)?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::GetField {
                    object,
                    index: *i as u32,
                    dst,
                });
                Ok(dst)
            }
            ExprKind::Func(f) => self.lift_closure(ctx, f),
            ExprKind::If { cond, then, els } => self.lower_if(ctx, cond, then, els),
            ExprKind::Match { value, clauses } => self.lower_match(ctx, value, clauses),
            ExprKind::Call {
                callee,
                args,
                attrs,
            } => self.lower_call(ctx, callee, args, attrs),
            other => Err(CompileError::msg(format!(
                "{}: cannot lower {other:?}",
                ctx.name
            ))),
        }
    }

    fn lower_if(&mut self, ctx: &mut Ctx, cond: &Expr, then: &Expr, els: &Expr) -> Result<u32> {
        let cond_reg = self.atom_reg(ctx, cond, 0)?;
        let one = ctx.fresh();
        ctx.code
            .push(Instruction::LoadConsti { value: 1, dst: one });
        let out = ctx.fresh();
        let branch_at = ctx.code.len();
        ctx.code.push(Instruction::If {
            lhs: cond_reg,
            rhs: one,
            true_offset: 1,
            false_offset: 0, // patched below
        });
        let then_res = self.lower_block(ctx, then)?;
        ctx.code.push(Instruction::Move {
            src: then_res,
            dst: out,
        });
        let goto_at = ctx.code.len();
        ctx.code.push(Instruction::Goto { offset: 0 }); // patched below
        let else_start = ctx.code.len();
        if let Instruction::If { false_offset, .. } = &mut ctx.code[branch_at] {
            *false_offset = (else_start - branch_at) as i32;
        }
        let else_res = self.lower_block(ctx, els)?;
        ctx.code.push(Instruction::Move {
            src: else_res,
            dst: out,
        });
        let end = ctx.code.len();
        if let Instruction::Goto { offset } = &mut ctx.code[goto_at] {
            *offset = (end - goto_at) as i32;
        }
        Ok(out)
    }

    fn lower_match(
        &mut self,
        ctx: &mut Ctx,
        value: &Expr,
        clauses: &[nimble_ir::expr::Clause],
    ) -> Result<u32> {
        let scrutinee = self.atom_reg(ctx, value, 0)?;
        let tag_reg = ctx.fresh();
        ctx.code.push(Instruction::GetTag {
            object: scrutinee,
            dst: tag_reg,
        });
        let out = ctx.fresh();
        let mut end_gotos: Vec<usize> = Vec::new();
        let mut exhaustive = false;
        for clause in clauses {
            match &clause.pattern {
                Pattern::Constructor { name, fields } => {
                    let tag = self.module.constructor(name)?.tag;
                    let tag_const = ctx.fresh();
                    ctx.code.push(Instruction::LoadConsti {
                        value: tag as i64,
                        dst: tag_const,
                    });
                    let test_at = ctx.code.len();
                    ctx.code.push(Instruction::If {
                        lhs: tag_reg,
                        rhs: tag_const,
                        true_offset: 1,
                        false_offset: 0, // patched to next clause
                    });
                    // Destructure fields.
                    for (i, sub) in fields.iter().enumerate() {
                        self.bind_pattern(ctx, sub, scrutinee, i as u32)?;
                    }
                    let res = self.lower_block(ctx, &clause.body)?;
                    ctx.code.push(Instruction::Move { src: res, dst: out });
                    end_gotos.push(ctx.code.len());
                    ctx.code.push(Instruction::Goto { offset: 0 });
                    let next_clause = ctx.code.len();
                    if let Instruction::If { false_offset, .. } = &mut ctx.code[test_at] {
                        *false_offset = (next_clause - test_at) as i32;
                    }
                }
                Pattern::Bind(v) => {
                    ctx.regs.insert(v.id, scrutinee);
                    let res = self.lower_block(ctx, &clause.body)?;
                    ctx.code.push(Instruction::Move { src: res, dst: out });
                    end_gotos.push(ctx.code.len());
                    ctx.code.push(Instruction::Goto { offset: 0 });
                    exhaustive = true;
                }
                Pattern::Wildcard => {
                    let res = self.lower_block(ctx, &clause.body)?;
                    ctx.code.push(Instruction::Move { src: res, dst: out });
                    end_gotos.push(ctx.code.len());
                    ctx.code.push(Instruction::Goto { offset: 0 });
                    exhaustive = true;
                }
            }
            if exhaustive {
                break;
            }
        }
        if !exhaustive {
            ctx.code.push(Instruction::Fatal {
                message: "no matching clause".into(),
            });
        }
        let end = ctx.code.len();
        for g in end_gotos {
            if let Instruction::Goto { offset } = &mut ctx.code[g] {
                *offset = (end - g) as i32;
            }
        }
        Ok(out)
    }

    /// Bind one (possibly nested) pattern field of `object` at `index`.
    fn bind_pattern(
        &mut self,
        ctx: &mut Ctx,
        pattern: &Pattern,
        object: u32,
        index: u32,
    ) -> Result<()> {
        match pattern {
            Pattern::Wildcard => Ok(()),
            Pattern::Bind(v) => {
                let dst = ctx.fresh();
                ctx.code.push(Instruction::GetField { object, index, dst });
                ctx.regs.insert(v.id, dst);
                Ok(())
            }
            Pattern::Constructor { fields, .. } => {
                // Nested constructor patterns destructure without a tag
                // re-test (the type checker guarantees well-formedness for
                // the models in this repository).
                let dst = ctx.fresh();
                ctx.code.push(Instruction::GetField { object, index, dst });
                for (i, sub) in fields.iter().enumerate() {
                    self.bind_pattern(ctx, sub, dst, i as u32)?;
                }
                Ok(())
            }
        }
    }

    fn lift_closure(&mut self, ctx: &mut Ctx, f: &Function) -> Result<u32> {
        let captures: Vec<Var> = free_vars(&Expr::func(f.clone()));
        let mut params: Vec<Var> = captures.clone();
        params.extend(f.params.iter().cloned());
        let lifted = Function::new(params, f.body.clone(), f.ret_type.clone());
        let idx = self.functions.len() as u32;
        self.functions.push(None);
        let name = format!("{}.closure{}", ctx.name, idx);
        let vmf = self.lower_function(&name, &lifted)?;
        self.functions[idx as usize] = Some(vmf);
        let cap_regs = captures
            .iter()
            .map(|v| {
                ctx.regs
                    .get(&v.id)
                    .copied()
                    .ok_or_else(|| CompileError::msg(format!("unbound capture {v}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let dst = ctx.fresh();
        ctx.code.push(Instruction::AllocClosure {
            func: idx,
            captures: cap_regs,
            dst,
        });
        Ok(dst)
    }

    fn lower_call(
        &mut self,
        ctx: &mut Ctx,
        callee: &Expr,
        args: &[Expr],
        attrs: &Attrs,
    ) -> Result<u32> {
        match callee.kind() {
            ExprKind::Op(name) => self.lower_op_call(ctx, name, args, attrs),
            ExprKind::Constructor(name) => {
                let tag = self.module.constructor(name)?.tag;
                let regs = args
                    .iter()
                    .map(|a| self.atom_reg(ctx, a, 0))
                    .collect::<Result<Vec<_>>>()?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::AllocADT {
                    tag,
                    fields: regs,
                    dst,
                });
                Ok(dst)
            }
            ExprKind::Global(g) => {
                let func = *self
                    .func_indices
                    .get(&g.0)
                    .ok_or_else(|| CompileError::msg(format!("unbound global {g}")))?;
                let regs = args
                    .iter()
                    .map(|a| self.atom_reg(ctx, a, 0))
                    .collect::<Result<Vec<_>>>()?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::Invoke {
                    func,
                    args: regs,
                    dst,
                });
                Ok(dst)
            }
            ExprKind::Var(_) => {
                let closure = self.atom_reg(ctx, callee, 0)?;
                let regs = args
                    .iter()
                    .map(|a| self.atom_reg(ctx, a, 0))
                    .collect::<Result<Vec<_>>>()?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::InvokeClosure {
                    closure,
                    args: regs,
                    dst,
                });
                Ok(dst)
            }
            ExprKind::Func(f) => {
                if attrs.int("primitive") == Some(1) {
                    // A fused primitive call that skipped memory planning:
                    // invoke it directly with a fresh output register.
                    let desc = self.fused_desc(f)?;
                    let kernel = self.intern_kernel(desc);
                    let mut regs = args
                        .iter()
                        .map(|a| self.atom_reg(ctx, a, 0))
                        .collect::<Result<Vec<_>>>()?;
                    let dst = ctx.fresh();
                    regs.push(dst);
                    ctx.code.push(Instruction::InvokePacked {
                        kernel,
                        args: regs,
                        num_outputs: 1,
                        device: 0,
                    });
                    Ok(dst)
                } else {
                    // Immediately-applied closure literal.
                    let closure = self.lift_closure(ctx, f)?;
                    let regs = args
                        .iter()
                        .map(|a| self.atom_reg(ctx, a, 0))
                        .collect::<Result<Vec<_>>>()?;
                    let dst = ctx.fresh();
                    ctx.code.push(Instruction::InvokeClosure {
                        closure,
                        args: regs,
                        dst,
                    });
                    Ok(dst)
                }
            }
            other => Err(CompileError::msg(format!(
                "{}: cannot call {other:?}",
                ctx.name
            ))),
        }
    }

    fn lower_op_call(
        &mut self,
        ctx: &mut Ctx,
        name: &str,
        args: &[Expr],
        attrs: &Attrs,
    ) -> Result<u32> {
        match name {
            n if n == dialect::ALLOC_STORAGE => {
                let dst = ctx.fresh();
                ctx.code.push(Instruction::AllocStorage {
                    size: attrs.int_or("size", 0) as u64,
                    alignment: attrs.int_or("alignment", 64) as u32,
                    device: attrs.int_or("device", 0) as u8,
                    dst,
                });
                Ok(dst)
            }
            n if n == dialect::ALLOC_TENSOR => {
                let storage = self.atom_reg(ctx, &args[0], 0)?;
                let shape = attrs
                    .int_vec("shape")
                    .ok_or_else(|| CompileError::msg("alloc_tensor: shape attr required"))?
                    .to_vec();
                let dtype = attrs
                    .dtype("dtype")
                    .ok_or_else(|| CompileError::msg("alloc_tensor: dtype attr required"))?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::AllocTensor {
                    storage,
                    offset: attrs.int_or("offset", 0) as u64,
                    shape,
                    dtype,
                    dst,
                });
                Ok(dst)
            }
            n if n == dialect::ALLOC_TENSOR_REG => {
                let shape = self.atom_reg(ctx, &args[0], 0)?;
                let dtype = attrs
                    .dtype("dtype")
                    .ok_or_else(|| CompileError::msg("alloc_tensor_reg: dtype attr required"))?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::AllocTensorReg {
                    shape,
                    dtype,
                    device: attrs.int_or("device", 0) as u8,
                    dst,
                });
                Ok(dst)
            }
            n if n == dialect::INVOKE_MUT => {
                let num_outputs = attrs.int_or("num_outputs", 1) as usize;
                let device = attrs.int_or("device", 0) as u8;
                let symbolic = attrs.boolean("symbolic").unwrap_or(false);
                let callee = &args[0];
                let desc = self.kernel_desc(callee, attrs, symbolic)?;
                let kernel = self.intern_kernel(desc);
                let operand_exprs = &args[1..];
                if operand_exprs.len() < num_outputs {
                    return Err(CompileError::msg("invoke_mut: fewer operands than outputs"));
                }
                let regs = operand_exprs
                    .iter()
                    .map(|a| self.atom_reg(ctx, a, device))
                    .collect::<Result<Vec<_>>>()?;
                let out_regs = regs[regs.len() - num_outputs..].to_vec();
                ctx.code.push(Instruction::InvokePacked {
                    kernel,
                    args: regs,
                    num_outputs: num_outputs as u32,
                    device,
                });
                if num_outputs == 1 {
                    Ok(out_regs[0])
                } else {
                    let dst = ctx.fresh();
                    ctx.code.push(Instruction::AllocADT {
                        tag: TUPLE_TAG,
                        fields: out_regs,
                        dst,
                    });
                    Ok(dst)
                }
            }
            n if n == dialect::INVOKE_SHAPE_FUNC => {
                let num_outputs = attrs.int_or("num_outputs", 1) as usize;
                let callee = &args[0];
                let desc = self.shape_func_desc(callee, attrs)?;
                let kernel = self.intern_kernel(desc);
                let mut regs = args[1..]
                    .iter()
                    .map(|a| self.atom_reg(ctx, a, 0))
                    .collect::<Result<Vec<_>>>()?;
                let out_regs: Vec<u32> = (0..num_outputs).map(|_| ctx.fresh()).collect();
                regs.extend(out_regs.iter().copied());
                ctx.code.push(Instruction::InvokePacked {
                    kernel,
                    args: regs,
                    num_outputs: num_outputs as u32,
                    device: 0, // shape functions always run on the CPU
                });
                if num_outputs == 1 {
                    Ok(out_regs[0])
                } else {
                    let dst = ctx.fresh();
                    ctx.code.push(Instruction::AllocADT {
                        tag: TUPLE_TAG,
                        fields: out_regs,
                        dst,
                    });
                    Ok(dst)
                }
            }
            n if n == dialect::KILL => {
                // Dropping the register's reference frees tensor + storage
                // (the ISA has no dedicated kill; liveness is realized by
                // overwriting the register).
                let reg = self.atom_reg(ctx, &args[0], 0)?;
                ctx.code
                    .push(Instruction::LoadConsti { value: 0, dst: reg });
                Ok(reg)
            }
            "shape_of" => {
                let tensor = self.atom_reg(ctx, &args[0], 0)?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::ShapeOf { tensor, dst });
                Ok(dst)
            }
            "device_copy" => {
                let src = self.atom_reg(ctx, &args[0], 0)?;
                let dst = ctx.fresh();
                ctx.code.push(Instruction::DeviceCopy {
                    src,
                    src_device: attrs.int_or("src_device", 0) as u8,
                    dst_device: attrs.int_or("dst_device", 0) as u8,
                    dst,
                });
                Ok(dst)
            }
            // Direct (un-planned) operator call: single fresh output.
            _ => {
                let desc = KernelDesc::Op {
                    name: name.to_string(),
                    attrs: strip_internal(attrs),
                    symbolic: attrs.boolean("symbolic").unwrap_or(false),
                };
                let kernel = self.intern_kernel(desc);
                let mut regs = args
                    .iter()
                    .map(|a| self.atom_reg(ctx, a, 0))
                    .collect::<Result<Vec<_>>>()?;
                let dst = ctx.fresh();
                regs.push(dst);
                ctx.code.push(Instruction::InvokePacked {
                    kernel,
                    args: regs,
                    num_outputs: 1,
                    device: 0,
                });
                Ok(dst)
            }
        }
    }

    fn kernel_desc(&mut self, callee: &Expr, attrs: &Attrs, symbolic: bool) -> Result<KernelDesc> {
        match callee.kind() {
            ExprKind::Op(name) => Ok(KernelDesc::Op {
                name: name.clone(),
                attrs: strip_internal(attrs),
                symbolic,
            }),
            ExprKind::Func(f) => self.fused_desc(f),
            other => Err(CompileError::msg(format!(
                "invoke_mut callee must be op or primitive, got {other:?}"
            ))),
        }
    }

    fn shape_func_desc(&mut self, callee: &Expr, attrs: &Attrs) -> Result<KernelDesc> {
        let in_dtypes: Vec<DType> = attrs
            .int_vec("in_dtype_codes")
            .unwrap_or(&[])
            .iter()
            .map(|&c| DType::from_code(c as u8).unwrap_or(DType::F32))
            .collect();
        match callee.kind() {
            ExprKind::Op(name) => Ok(KernelDesc::ShapeFuncOp {
                name: name.clone(),
                attrs: strip_internal(attrs),
                in_dtypes,
            }),
            ExprKind::Func(f) => {
                let (num_params, members, outputs) = self.fused_members(f)?;
                Ok(KernelDesc::ShapeFuncFused {
                    num_params,
                    members,
                    outputs,
                    in_dtypes,
                })
            }
            other => Err(CompileError::msg(format!(
                "invoke_shape_func callee must be op or primitive, got {other:?}"
            ))),
        }
    }

    fn fused_desc(&mut self, f: &Function) -> Result<KernelDesc> {
        let (num_params, members, outputs) = self.fused_members(f)?;
        Ok(KernelDesc::Fused {
            num_params,
            members,
            outputs,
        })
    }

    /// A primitive body in descriptor form, read by the kernel compiler's
    /// [`parse_primitive`]: its operator members, with `tuple_get` bindings
    /// folded into [`MemberArg::Field`] operands, and its outputs (the
    /// result, or the fields of a result tuple).
    fn fused_members(&mut self, f: &Function) -> Result<(u32, Vec<FusedMember>, Vec<MemberArg>)> {
        let (members, outputs) =
            parse_primitive(f).map_err(|e| CompileError::msg(e.to_string()))?;
        let mut arg = |src: &Src| match src {
            Src::Param(i) => MemberArg::Param(*i as u32),
            Src::Member(m) => MemberArg::Member(*m as u32),
            Src::Field(m, k) => MemberArg::Field(*m as u32, *k as u32),
            Src::Const(t, key) => MemberArg::Const(self.intern_constant(*key, t, 0)),
        };
        let members = members
            .into_iter()
            .map(|m| FusedMember {
                op: m.def.name.to_string(),
                args: m.args.iter().map(&mut arg).collect(),
                attrs: m.attrs,
            })
            .collect();
        let outputs = outputs.iter().map(arg).collect();
        Ok((f.params.len() as u32, members, outputs))
    }
}
