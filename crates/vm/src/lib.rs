//! # nimble-vm
//!
//! The Nimble virtual machine (paper Section 5): a register-based abstract
//! machine whose CISC-style instructions operate on tensors, executing the
//! platform-independent bytecode produced by the compiler.
//!
//! * [`isa`] — the 20-instruction set of Table A.1, with variable-length
//!   binary serialization;
//! * [`object`] — the tagged object representation (tensors, ADTs,
//!   closures, storage), reference counted with copy-on-write;
//! * [`exe`] — the executable: bytecode + constant pool + kernel
//!   descriptors, serializable to a byte stream and loadable anywhere;
//! * [`interp`] — the dispatch-loop interpreter with asynchronous GPU
//!   kernel launch and the per-category profiler behind Table 4;
//! * [`arena`] — the per-session storage arena recycling dynamic-tensor
//!   allocations across requests.

pub mod arena;
pub mod batch;
pub mod disasm;
pub mod exe;
pub mod interp;
pub mod isa;
pub mod object;
pub mod profiler;

pub use arena::{ArenaStats, StorageArena};
pub use batch::{BatchConfig, BatchPlan};
pub use disasm::disassemble;
pub use exe::{Executable, KernelDesc, VMFunction};
pub use interp::{DispatchHook, Session, VirtualMachine};
pub use isa::{Instruction, RegId};
pub use object::{Object, StorageHandle};
pub use profiler::{ProfileReport, Profiler, SharedProfiler};

/// Errors raised while building, serializing, or executing VM programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError(pub String);

impl VmError {
    /// Construct from anything printable.
    pub fn msg(m: impl Into<String>) -> VmError {
        VmError(m.into())
    }
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm error: {}", self.0)
    }
}

impl std::error::Error for VmError {}

impl From<nimble_tensor::TensorError> for VmError {
    fn from(e: nimble_tensor::TensorError) -> Self {
        VmError(e.to_string())
    }
}

impl From<nimble_codegen::KernelError> for VmError {
    fn from(e: nimble_codegen::KernelError) -> Self {
        VmError(e.to_string())
    }
}

impl From<nimble_ir::IrError> for VmError {
    fn from(e: nimble_ir::IrError) -> Self {
        VmError(e.to_string())
    }
}

/// Result alias for VM operations.
pub type Result<T> = std::result::Result<T, VmError>;
