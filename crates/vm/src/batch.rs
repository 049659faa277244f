//! Cross-request dynamic batching: shape buckets and per-model batch
//! plans.
//!
//! A [`BatchPlan`] teaches an engine replica how to coalesce concurrent
//! requests for one model into a single padded VM execution:
//!
//! * **bucketing** — each request's dynamic shape is reduced to a single
//!   integer *key* (LSTM sequence length, BERT token count) which is
//!   rounded up to the nearest configured bucket edge. Only requests in
//!   the same bucket batch together, so every member pads to the same
//!   target shape and the compiled `main_b{bucket}` entry point can run
//!   them as one `batch_matmul`-backed execution.
//! * **gather / scatter** — host-side closures that pack the member
//!   argument sets into one padded batch tensor set and slice each
//!   member's rows back out of the batched result. The contract is
//!   strict: scattered per-request outputs must be **bitwise identical**
//!   to what the unbatched `main` would have produced.
//! * **pacing** — `min_batch`/`max_batch`/`max_wait` shape the
//!   batch-forming stage in the engine drain loop; the engine itself
//!   enforces the close-batch-on-deadline-pressure rule.

use crate::object::Object;
use crate::Result;
use std::sync::Arc;
use std::time::Duration;

/// Derive the batched entry-point name for `function` at `bucket`. Model
/// builders that emit batched entries must follow this convention.
pub fn entry_name(function: &str, bucket: usize) -> String {
    format!("{function}_b{bucket}")
}

/// Knobs shaping how aggressively a replica forms batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Sorted shape-bucket edges; a request with key `k` lands in the
    /// smallest edge `>= k`, and a key past the last edge (or a key the
    /// plan cannot extract) runs unbatched.
    pub buckets: Vec<usize>,
    /// Smallest group worth running batched; singleton groups take the
    /// unbatched path (no pad waste for nothing).
    pub min_batch: usize,
    /// Largest group gathered into one execution.
    pub max_batch: usize,
    /// How long a worker may hold an undersized group open waiting for
    /// more same-bucket arrivals. Zero disables the top-up wait.
    pub max_wait: Duration,
}

impl BatchConfig {
    /// Power-of-two bucket edges up to `max` (inclusive when `max` is
    /// itself reached), the sane default the issue asks for.
    pub fn pow2_buckets(max: usize) -> Vec<usize> {
        let mut edges = Vec::new();
        let mut e = 1usize;
        while e < max {
            edges.push(e);
            e *= 2;
        }
        edges.push(max);
        edges.dedup();
        edges
    }
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            buckets: BatchConfig::pow2_buckets(128),
            min_batch: 2,
            max_batch: 8,
            max_wait: Duration::from_micros(200),
        }
    }
}

/// Extract the shape key of one request's argument set; `None` means
/// "this request cannot batch" (empty input, key past the last bucket).
pub type KeyFn = dyn Fn(&[Object]) -> Option<usize> + Send + Sync;

/// Pack member argument sets (each with the given true keys) into the
/// padded argument set for `main_b{bucket}`.
pub type GatherFn = dyn Fn(&[Vec<Object>], &[usize], usize) -> Result<Vec<Object>> + Send + Sync;

/// Slice each member's output back out of the batched result, given the
/// members' true keys and the bucket they padded to.
pub type ScatterFn = dyn Fn(&Object, &[usize], usize) -> Result<Vec<Object>> + Send + Sync;

/// Everything an engine replica needs to batch one model's requests.
/// Immutable and shared (`Arc`) across replicas of the same model.
#[derive(Clone)]
pub struct BatchPlan {
    /// The unbatched entry point this plan shadows (normally `"main"`).
    pub function: String,
    /// Pacing and bucket-edge knobs.
    pub config: BatchConfig,
    /// Shape-key extractor.
    pub key: Arc<KeyFn>,
    /// Padded batch packer.
    pub gather: Arc<GatherFn>,
    /// Batched-result slicer.
    pub scatter: Arc<ScatterFn>,
}

impl std::fmt::Debug for BatchPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchPlan")
            .field("function", &self.function)
            .field("config", &self.config)
            .finish()
    }
}

impl BatchPlan {
    /// The smallest bucket edge `>= key`, or `None` when the key exceeds
    /// every edge (the request then runs unbatched).
    pub fn bucket_for(&self, key: usize) -> Option<usize> {
        self.config.buckets.iter().copied().find(|&e| e >= key)
    }

    /// Bucket for one request's argument set, or `None` when it cannot
    /// batch (no key, or key past the last edge).
    pub fn bucket_of(&self, args: &[Object]) -> Option<usize> {
        (self.key)(args).and_then(|k| self.bucket_for(k))
    }

    /// Batched entry-point name for `bucket` (see [`entry_name`]).
    pub fn entry(&self, bucket: usize) -> String {
        entry_name(&self.function, bucket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(buckets: Vec<usize>) -> BatchPlan {
        BatchPlan {
            function: "main".to_string(),
            config: BatchConfig {
                buckets,
                ..BatchConfig::default()
            },
            key: Arc::new(|_| None),
            gather: Arc::new(|_, _, _| Ok(vec![])),
            scatter: Arc::new(|_, _, _| Ok(vec![])),
        }
    }

    #[test]
    fn pow2_edges() {
        assert_eq!(BatchConfig::pow2_buckets(8), vec![1, 2, 4, 8]);
        assert_eq!(BatchConfig::pow2_buckets(24), vec![1, 2, 4, 8, 16, 24]);
        assert_eq!(BatchConfig::pow2_buckets(1), vec![1]);
    }

    #[test]
    fn bucket_rounding() {
        let p = plan(vec![4, 8, 16]);
        assert_eq!(p.bucket_for(1), Some(4));
        assert_eq!(p.bucket_for(4), Some(4));
        assert_eq!(p.bucket_for(5), Some(8));
        assert_eq!(p.bucket_for(16), Some(16));
        assert_eq!(p.bucket_for(17), None);
    }

    #[test]
    fn entry_naming() {
        let p = plan(vec![4]);
        assert_eq!(p.entry(4), "main_b4");
        assert_eq!(entry_name("main", 16), "main_b16");
    }
}
