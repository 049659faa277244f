//! # nimble-serve
//!
//! The multi-model serving layer above the Nimble VM: what turns "a fast
//! engine" into "a server". Three cooperating pieces:
//!
//! * [`registry`] — a [`ModelRegistry`] of named, versioned models.
//!   Each registration compiles (or loads, via a fingerprinted
//!   compiled-artifact cache on disk — the paper's compile-once /
//!   serialize / load split, §5) an executable, spins up a per-model
//!   [`nimble_core::Engine`], supports atomic hot-swap of a new version
//!   behind a stable name, and unloads with full resource reclamation
//!   including the model's pre-packed weight panels.
//! * [`router`] — the [`Router`] front door. Requests are tagged with a
//!   model name and an optional deadline; overload is shed explicitly
//!   ([`Rejected::QueueFull`] / [`Rejected::Expired`] /
//!   [`Rejected::Unloaded`], never a silent drop), deadlines are honored
//!   while queued, and shutdown drains accepted work to completion.
//! * [`telemetry`] — per-model outcome counters and lock-free latency
//!   histograms ([`nimble_obs::hist::Histogram`]), snapshotted as
//!   [`ServeStats`], and the one family table that both `/metrics` and
//!   the stats printer walk.
//!
//! Orthogonally, every registered model gets a
//! [`nimble_specialize::ModelSpecializer`] (unless disabled by
//! [`RegistryConfig::specialize`]): a
//! hot-shape cache that observes the concrete values requests bind to
//! `Any` dims, tunes shape-concretized kernels off the request path, and
//! installs them behind a bitwise-identity gate. The replica picker's
//! tie-break prefers replicas recently warm for a request's concrete
//! shape, and the router exports the specializer's counters as
//! `nimble_specialize_*` families.

pub mod chaos;
pub mod debug;
pub mod registry;
pub mod router;
pub mod shard;
pub mod slo;
pub mod telemetry;

pub use chaos::{ChaosConfig, ChaosCounts, ChaosHarness, ChaosModel, ChaosReport};
pub use debug::DebugServer;
pub use nimble_specialize::{
    ModelSpecializer, SpecializeConfig, SpecializeStats, TuneHistSnapshot,
};
pub use registry::{ModelEntry, ModelRegistry, RegisterReport, RegistryConfig};
pub use router::{Rejected, Router, RouterConfig, ServeTicket};
pub use shard::{
    AutoscalerConfig, ReplicaStats, ScaleDecision, ShardConfig, ShardEvent, ShardOutcome, ShardSet,
    ShardStats, ShardTicket, WarmthProbe,
};
pub use slo::{BurnRateTracker, SloConfig, SloState, SloWatchdog, Transition};
pub use telemetry::{LiveStats, ModelStats, ModelTelemetry, ServeStats, Telemetry};

/// Errors raised by the registry (compile/load/IO failures and unknown
/// models). Request-path refusals use [`Rejected`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Compilation or VM loading failed.
    Compile(String),
    /// Artifact cache I/O failed.
    Io(String),
    /// The named model is not registered.
    UnknownModel(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Compile(m) => write!(f, "serve: compile/load failed: {m}"),
            ServeError::Io(m) => write!(f, "serve: artifact cache i/o: {m}"),
            ServeError::UnknownModel(m) => write!(f, "serve: no model named {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
