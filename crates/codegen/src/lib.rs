//! # nimble-codegen
//!
//! Kernel code generation for the Nimble reproduction (paper Section 4.5):
//!
//! * [`kernel`] — compile IR operator calls and fused primitive functions
//!   into executable [`kernel::Kernel`] closures (the payload of the VM's
//!   `InvokePacked` instruction), with an in-place fast path for fused
//!   elementwise tails;
//! * [`shape_func`] — compile shape functions in the three modes of
//!   Section 4.2 into CPU kernels over `i64` shape tensors;
//! * [`symbolic`] — **symbolic codegen with residue dispatch**: the dense
//!   microkernel duplicated per residue of the tiling factor, dispatched on
//!   `m mod 8` at run time, eliminating boundary checks from the hot loop
//!   (the mechanism evaluated in Figure 3);
//! * [`tuner`] — the template-based tuning algorithm for symbolic shapes:
//!   tune on a proxy static shape, keep the top-k configurations,
//!   cross-evaluate on other shapes, pick the best average;
//! * [`select`] — the dispatch-function extension that races measured
//!   schedules per shape and keeps whichever is faster.

pub mod kernel;
pub mod select;
pub mod shape_func;
pub mod symbolic;
pub mod tuner;

pub use kernel::{ArgSrc, DenseSpec, Kernel, KernelError};
pub use select::{select_schedule, ScheduleChoice};
pub use shape_func::ShapeFuncKernel;
pub use symbolic::{dense_symbolic, dense_symbolic_packed, DispatchLevel, SymbolicDense};
pub use tuner::{tune_dense_symbolic, TuneReport, TunerConfig};
