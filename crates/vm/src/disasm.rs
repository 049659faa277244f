//! Bytecode disassembler: human-readable listings of compiled executables
//! ("a compact bytecode, which is easy for users to read and modify" —
//! Section 5.1).

use crate::exe::{Executable, FusedMember, KernelDesc, MemberArg};
use crate::isa::Instruction;
use std::fmt::Write;

fn regs(rs: &[u32]) -> String {
    rs.iter()
        .map(|r| format!("$r{r}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render one instruction.
pub fn disasm_instruction(inst: &Instruction) -> String {
    match inst {
        Instruction::Move { src, dst } => format!("Move $r{src} -> $r{dst}"),
        Instruction::Ret { result } => format!("Ret $r{result}"),
        Instruction::Invoke { func, args, dst } => {
            format!("Invoke fn[{func}]({}) -> $r{dst}", regs(args))
        }
        Instruction::InvokeClosure { closure, args, dst } => {
            format!("InvokeClosure $r{closure}({}) -> $r{dst}", regs(args))
        }
        Instruction::InvokePacked {
            kernel,
            args,
            num_outputs,
            device,
        } => format!(
            "InvokePacked kernel[{kernel}]({}) outs={num_outputs} dev={device}",
            regs(args)
        ),
        Instruction::AllocStorage {
            size,
            alignment,
            device,
            dst,
        } => format!("AllocStorage {size}B align={alignment} dev={device} -> $r{dst}"),
        Instruction::AllocTensor {
            storage,
            offset,
            shape,
            dtype,
            dst,
        } => format!("AllocTensor $r{storage}+{offset} {shape:?} {dtype} -> $r{dst}"),
        Instruction::AllocTensorReg {
            shape,
            dtype,
            device,
            dst,
        } => format!("AllocTensorReg shape=$r{shape} {dtype} dev={device} -> $r{dst}"),
        Instruction::AllocADT { tag, fields, dst } => {
            format!("AllocADT tag={tag} ({}) -> $r{dst}", regs(fields))
        }
        Instruction::AllocClosure {
            func,
            captures,
            dst,
        } => {
            format!(
                "AllocClosure fn[{func}] caps=({}) -> $r{dst}",
                regs(captures)
            )
        }
        Instruction::GetField { object, index, dst } => {
            format!("GetField $r{object}.{index} -> $r{dst}")
        }
        Instruction::GetTag { object, dst } => format!("GetTag $r{object} -> $r{dst}"),
        Instruction::If {
            lhs,
            rhs,
            true_offset,
            false_offset,
        } => format!("If $r{lhs} == $r{rhs} ? {true_offset:+} : {false_offset:+}"),
        Instruction::Goto { offset } => format!("Goto {offset:+}"),
        Instruction::LoadConst { index, dst } => format!("LoadConst const[{index}] -> $r{dst}"),
        Instruction::LoadConsti { value, dst } => format!("LoadConsti {value} -> $r{dst}"),
        Instruction::DeviceCopy {
            src,
            src_device,
            dst_device,
            dst,
        } => format!("DeviceCopy $r{src} dev{src_device}->dev{dst_device} -> $r{dst}"),
        Instruction::ShapeOf { tensor, dst } => format!("ShapeOf $r{tensor} -> $r{dst}"),
        Instruction::ReshapeTensor { tensor, shape, dst } => {
            format!("ReshapeTensor $r{tensor} shape=$r{shape} -> $r{dst}")
        }
        Instruction::Fatal { message } => format!("Fatal {message:?}"),
    }
}

/// A fused body as `op+op+… -> m3` (one output) or `-> (m7, m12.1)`.
fn fused_summary(members: &[FusedMember], outputs: &[MemberArg]) -> String {
    let ops = members
        .iter()
        .map(|m| m.op.as_str())
        .collect::<Vec<_>>()
        .join("+");
    let outs: Vec<String> = outputs
        .iter()
        .map(|o| match o {
            MemberArg::Param(i) => format!("p{i}"),
            MemberArg::Member(i) => format!("m{i}"),
            MemberArg::Field(i, k) => format!("m{i}.{k}"),
            MemberArg::Const(i) => format!("const[{i}]"),
        })
        .collect();
    match &outs[..] {
        [one] => format!("{ops} -> {one}"),
        many => format!("{ops} -> ({})", many.join(", ")),
    }
}

fn kernel_summary(desc: &KernelDesc) -> String {
    match desc {
        KernelDesc::Op { name, symbolic, .. } => {
            if *symbolic {
                format!("op {name} (symbolic dispatch)")
            } else {
                format!("op {name}")
            }
        }
        KernelDesc::Fused {
            members, outputs, ..
        } => format!("fused {}", fused_summary(members, outputs)),
        KernelDesc::ShapeFuncOp { name, .. } => format!("shape_func {name}"),
        KernelDesc::ShapeFuncFused {
            members, outputs, ..
        } => format!("shape_func fused {}", fused_summary(members, outputs)),
    }
}

/// Render a whole executable: kernel table, constant summary, and per
/// function annotated bytecode.
pub fn disassemble(exe: &Executable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; nimble executable");
    let _ = writeln!(
        out,
        "; {} function(s), {} constant(s), {} kernel(s)",
        exe.functions.len(),
        exe.constants.len(),
        exe.kernels.len()
    );
    for (i, k) in exe.kernels.iter().enumerate() {
        let _ = writeln!(out, "kernel[{i}] = {}", kernel_summary(k));
    }
    for (i, c) in exe.constants.iter().enumerate() {
        let _ = writeln!(
            out,
            "const[{i}] = Tensor{:?} {} ({} B)",
            c.dims(),
            c.dtype(),
            c.nbytes()
        );
    }
    for f in &exe.functions {
        let _ = writeln!(
            out,
            "\nfn {} (params={}, regs={}):",
            f.name, f.num_params, f.num_regs
        );
        for (pc, inst) in f.code.iter().enumerate() {
            let _ = writeln!(out, "  {pc:4}: {}", disasm_instruction(inst));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exe::VMFunction;
    use nimble_ir::attrs::Attrs;
    use nimble_tensor::{DType, Tensor};

    fn sample() -> Executable {
        Executable {
            functions: vec![VMFunction {
                name: "main".into(),
                num_params: 1,
                num_regs: 4,
                code: vec![
                    Instruction::LoadConst { index: 0, dst: 1 },
                    Instruction::AllocStorage {
                        size: 40,
                        alignment: 64,
                        device: 0,
                        dst: 2,
                    },
                    Instruction::AllocTensor {
                        storage: 2,
                        offset: 0,
                        shape: vec![10],
                        dtype: DType::F32,
                        dst: 3,
                    },
                    Instruction::InvokePacked {
                        kernel: 0,
                        args: vec![0, 1, 3],
                        num_outputs: 1,
                        device: 0,
                    },
                    Instruction::Ret { result: 3 },
                ],
            }],
            constants: vec![Tensor::ones_f32(&[10])],
            const_devices: vec![0],
            kernels: vec![KernelDesc::Op {
                name: "add".into(),
                attrs: Attrs::new(),
                symbolic: false,
            }],
        }
    }

    #[test]
    fn listing_contains_everything() {
        let text = disassemble(&sample());
        assert!(text.contains("kernel[0] = op add"));
        assert!(text.contains("const[0] = Tensor[10] float32 (40 B)"));
        assert!(text.contains("fn main (params=1, regs=4):"));
        assert!(text.contains("InvokePacked kernel[0]($r0, $r1, $r3) outs=1 dev=0"));
        assert!(text.contains("Ret $r3"));
        assert_eq!(text.lines().count(), 11);
    }

    #[test]
    fn fused_kernels_list_their_outputs() {
        let member = |op: &str, args| FusedMember {
            op: op.into(),
            attrs: Attrs::new(),
            args,
        };
        let mut exe = sample();
        exe.kernels = vec![KernelDesc::Fused {
            num_params: 1,
            members: vec![
                member("split", vec![MemberArg::Param(0)]),
                member("tanh", vec![MemberArg::Field(0, 1)]),
            ],
            outputs: vec![MemberArg::Member(1), MemberArg::Field(0, 0)],
        }];
        let text = disassemble(&exe);
        assert!(
            text.contains("kernel[0] = fused split+tanh -> (m1, m0.0)"),
            "{text}"
        );
    }

    #[test]
    fn every_opcode_renders() {
        // Smoke: each variant produces non-empty distinct text.
        let insts = [
            Instruction::Move { src: 0, dst: 1 },
            Instruction::Goto { offset: -2 },
            Instruction::If {
                lhs: 0,
                rhs: 1,
                true_offset: 1,
                false_offset: 3,
            },
            Instruction::Fatal {
                message: "x".into(),
            },
            Instruction::ShapeOf { tensor: 0, dst: 1 },
            Instruction::DeviceCopy {
                src: 0,
                src_device: 0,
                dst_device: 1,
                dst: 1,
            },
        ];
        let mut texts: Vec<String> = insts.iter().map(disasm_instruction).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), insts.len());
    }
}
