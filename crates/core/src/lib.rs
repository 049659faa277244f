//! # nimble-core
//!
//! The end-to-end compiler driver: takes a dynamic model as a typed IR
//! [`nimble_ir::Module`] and produces a VM [`nimble_vm::Executable`]
//! through the full pipeline of the paper (Figure 1 / Figure 2):
//!
//! ```text
//! IR → (constant fold, CSE, DCE) → fusion → type inference (Any/sub-shaping)
//!    → memory planning (explicit allocation + shape functions)
//!    → device placement (union-find, device_copy insertion)
//!    → bytecode lowering (20-instruction ISA, kernel table, constant pool)
//! ```
//!
//! The crate also contains the **static baseline runtime**
//! ([`static_runtime`]) — a TVM-style sequential graph executor over fully
//! static models — used by the Table 4 overhead study.

pub mod compile;
pub mod engine;
pub mod lower;
pub mod static_runtime;

pub use compile::{compile, CompileOptions, CompileReport};
pub use engine::{Completion, Engine, EngineConfig, EngineError, EngineStats, Outcome, Ticket};
pub use nimble_passes::device_place::DeviceKind;
pub use nimble_vm::{ArenaStats, StorageArena};
pub use static_runtime::StaticGraph;

/// Errors raised during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl CompileError {
    /// Construct from anything printable.
    pub fn msg(m: impl Into<String>) -> CompileError {
        CompileError(m.into())
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

impl From<nimble_ir::IrError> for CompileError {
    fn from(e: nimble_ir::IrError) -> Self {
        CompileError(e.to_string())
    }
}

impl From<nimble_vm::VmError> for CompileError {
    fn from(e: nimble_vm::VmError) -> Self {
        CompileError(e.to_string())
    }
}

impl From<nimble_tensor::TensorError> for CompileError {
    fn from(e: nimble_tensor::TensorError) -> Self {
        CompileError(e.to_string())
    }
}

/// Result alias for compilation.
pub type Result<T> = std::result::Result<T, CompileError>;
