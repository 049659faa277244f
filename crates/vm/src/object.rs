//! The VM's tagged object representation (paper Section 5.2).
//!
//! "VM uses a tagged object representation reminiscent of those used by
//! programming languages such as Haskell and OCaml" — objects are
//! reference counted, copied on write, and passed by reference, so
//! register operations are cheap even for large payloads.

use crate::arena::StorageArena;
use crate::{Result, VmError};
use nimble_device::{DeviceId, MemoryPool, StorageBlock, TensorFuture};
use nimble_tensor::Tensor;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// A storage region allocated by `AllocStorage`; when the last reference
/// drops the block returns to its session's [`StorageArena`] (recycled for
/// the next request) or, for arena-less allocations, straight to its pool.
#[derive(Debug)]
pub struct StorageHandle {
    /// Requested size in bytes.
    pub size: u64,
    /// Device the storage lives on.
    pub device: DeviceId,
    block: Mutex<Option<StorageBlock>>,
    pool: Arc<MemoryPool>,
    /// The arena this block recycles into; also keeps the arena alive for
    /// handles that escape their session (result tensors).
    arena: Option<Arc<StorageArena>>,
}

impl StorageHandle {
    /// Allocate from a pool (no recycling on drop).
    pub fn alloc(pool: Arc<MemoryPool>, size: u64, device: DeviceId) -> StorageHandle {
        let block = pool.alloc(size as usize);
        StorageHandle {
            size,
            device,
            block: Mutex::new(Some(block)),
            pool,
            arena: None,
        }
    }

    /// Allocate through an arena: recycled block on hit, `pool.alloc` on
    /// miss; the block returns to the arena when the handle drops.
    pub fn alloc_in(
        arena: &Arc<StorageArena>,
        pool: Arc<MemoryPool>,
        size: u64,
        device: DeviceId,
    ) -> StorageHandle {
        let block = arena.acquire(&pool, size as usize, device);
        StorageHandle {
            size,
            device,
            block: Mutex::new(Some(block)),
            pool,
            arena: Some(Arc::clone(arena)),
        }
    }

    /// Identity and capacity of the backing block, as
    /// `(address, capacity)` — test instrumentation for aliasing checks.
    pub fn block_id(&self) -> Option<(usize, usize)> {
        self.block
            .lock()
            .as_ref()
            .map(|b| (b.bytes().as_ptr() as usize, b.capacity()))
    }

    /// Whether this handle recycles into an arena.
    pub fn arena_backed(&self) -> bool {
        self.arena.is_some()
    }
}

impl Drop for StorageHandle {
    fn drop(&mut self) {
        if let Some(block) = self.block.lock().take() {
            match &self.arena {
                Some(arena) => arena.release(block, &self.pool, self.device),
                None => self.pool.free(block),
            }
        }
    }
}

/// A tensor resident on a device, optionally backed by explicit storage
/// (keeping the storage alive for the tensor's lifetime, which is what
/// makes `kill` + refcounting reclaim coalesced buffers correctly).
#[derive(Debug, Clone)]
pub struct TensorObj {
    /// The tensor payload.
    pub tensor: Tensor,
    /// Residency.
    pub device: DeviceId,
    /// Backing storage handle, when allocated via `AllocTensor`.
    pub storage: Option<Arc<StorageHandle>>,
    /// For placeholder outputs created by `AllocTensor`/`AllocTensorReg`:
    /// the declared shape the kernel will fill. `None` once materialized.
    pub declared: Option<Vec<usize>>,
}

/// A pending asynchronous kernel output: shape/dtype metadata is known on
/// the host immediately (it was computed by the shape function before
/// launch), the data materializes when the device stream retires the job.
#[derive(Debug, Clone)]
pub struct FutureObj {
    /// Resolves to the kernel's outputs.
    pub future: TensorFuture,
    /// Which output of the kernel this register refers to.
    pub output_index: usize,
    /// Host-known shape metadata.
    pub shape: Vec<usize>,
    /// Host-known dtype.
    pub dtype: nimble_tensor::DType,
    /// Residency of the eventual tensor.
    pub device: DeviceId,
}

/// An algebraic-data-type value (tuples use [`TUPLE_TAG`]).
#[derive(Debug)]
pub struct AdtObj {
    /// Constructor tag.
    pub tag: u32,
    /// Field objects.
    pub fields: Vec<Object>,
}

/// A closure: function index plus captured environment.
#[derive(Debug)]
pub struct ClosureObj {
    /// Index into the executable's function table.
    pub func: u32,
    /// Captured objects, prepended to call arguments.
    pub captures: Vec<Object>,
}

/// Tag used for tuple objects.
pub const TUPLE_TAG: u32 = u32::MAX;

/// The `[0]`-shaped tensor a placeholder carries until its kernel
/// overwrites it: one per dtype for the whole process, cloned by reference.
fn empty_tensor(dtype: nimble_tensor::DType) -> Tensor {
    use nimble_tensor::DType;
    static EMPTY: OnceLock<[Tensor; 4]> = OnceLock::new();
    let empty = EMPTY.get_or_init(|| {
        std::array::from_fn(|code| {
            let dtype = DType::from_code(code as u8).expect("DType codes are 0..4");
            Tensor::zeros(dtype, &[0])
        })
    });
    empty[dtype.code() as usize].clone()
}

/// A VM register value.
#[derive(Debug, Clone, Default)]
pub enum Object {
    /// Empty register (also the result of `kill`).
    #[default]
    Unit,
    /// Device-resident tensor.
    Tensor(TensorObj),
    /// Pending asynchronous tensor.
    Future(FutureObj),
    /// Raw storage region.
    Storage(Arc<StorageHandle>),
    /// ADT value / tuple.
    Adt(Arc<AdtObj>),
    /// Closure.
    Closure(Arc<ClosureObj>),
}

impl Object {
    /// Wrap a CPU tensor.
    pub fn tensor(t: Tensor) -> Object {
        Object::Tensor(TensorObj {
            tensor: t,
            device: DeviceId::Cpu,
            storage: None,
            declared: None,
        })
    }

    /// Wrap a tensor on a device.
    pub fn tensor_on(t: Tensor, device: DeviceId) -> Object {
        Object::Tensor(TensorObj {
            tensor: t,
            device,
            storage: None,
            declared: None,
        })
    }

    /// A placeholder output buffer of declared shape/dtype, optionally
    /// backed by explicit storage. The kernel invocation that consumes it
    /// replaces it with the materialized tensor.
    pub fn placeholder(
        shape: Vec<usize>,
        dtype: nimble_tensor::DType,
        device: DeviceId,
        storage: Option<Arc<StorageHandle>>,
    ) -> Object {
        Object::Tensor(TensorObj {
            tensor: empty_tensor(dtype),
            device,
            storage,
            declared: Some(shape),
        })
    }

    /// Build a tuple object.
    pub fn tuple(fields: Vec<Object>) -> Object {
        Object::Adt(Arc::new(AdtObj {
            tag: TUPLE_TAG,
            fields,
        }))
    }

    /// The device a tensor-like object resides on (CPU for the rest).
    pub fn device(&self) -> DeviceId {
        match self {
            Object::Tensor(t) => t.device,
            Object::Future(f) => f.device,
            Object::Storage(s) => s.device,
            _ => DeviceId::Cpu,
        }
    }

    /// Materialize as a tensor, blocking on futures.
    ///
    /// # Errors
    /// Fails for non-tensor objects or failed kernels.
    pub fn wait_tensor(&self) -> Result<Tensor> {
        match self {
            Object::Tensor(t) => Ok(t.tensor.clone()),
            Object::Future(f) => {
                let outs = f.future.wait().map_err(VmError)?;
                outs.get(f.output_index)
                    .cloned()
                    .ok_or_else(|| VmError::msg("future output index out of range"))
            }
            other => Err(VmError::msg(format!(
                "expected tensor object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Tensor shape without forcing synchronization: futures carry
    /// host-side metadata.
    ///
    /// # Errors
    /// Fails for non-tensor objects.
    pub fn tensor_shape(&self) -> Result<Vec<usize>> {
        match self {
            Object::Tensor(t) => Ok(t
                .declared
                .clone()
                .unwrap_or_else(|| t.tensor.dims().to_vec())),
            Object::Future(f) => Ok(f.shape.clone()),
            other => Err(VmError::msg(format!(
                "expected tensor object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// View as an ADT object.
    ///
    /// # Errors
    /// Fails for non-ADT objects.
    pub fn as_adt(&self) -> Result<&Arc<AdtObj>> {
        match self {
            Object::Adt(a) => Ok(a),
            other => Err(VmError::msg(format!(
                "expected ADT object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// View as a closure object.
    ///
    /// # Errors
    /// Fails for non-closure objects.
    pub fn as_closure(&self) -> Result<&Arc<ClosureObj>> {
        match self {
            Object::Closure(c) => Ok(c),
            other => Err(VmError::msg(format!(
                "expected closure object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Scalar comparison value used by the `If` instruction: bool scalars
    /// map to 0/1, i64/i32 scalars to their value.
    ///
    /// # Errors
    /// Fails for non-scalar or non-integer/bool tensors.
    pub fn scalar_i64(&self) -> Result<i64> {
        let t = self.wait_tensor()?;
        if t.volume() != 1 {
            return Err(VmError::msg("If operand must be a scalar"));
        }
        match t.data() {
            nimble_tensor::Data::Bool(v) => Ok(v[0] as i64),
            nimble_tensor::Data::I64(v) => Ok(v[0]),
            nimble_tensor::Data::I32(v) => Ok(v[0] as i64),
            nimble_tensor::Data::F32(_) => Err(VmError::msg("If operand must be integral")),
        }
    }

    /// Short name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Object::Unit => "unit",
            Object::Tensor(_) => "tensor",
            Object::Future(_) => "future",
            Object::Storage(_) => "storage",
            Object::Adt(_) => "adt",
            Object::Closure(_) => "closure",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_returns_to_pool_on_drop() {
        let pool = Arc::new(MemoryPool::new(true));
        {
            let _h = StorageHandle::alloc(Arc::clone(&pool), 100, DeviceId::Cpu);
            assert_eq!(pool.stats().live_bytes, 128);
        }
        assert_eq!(pool.stats().live_bytes, 0);
        assert_eq!(pool.stats().frees, 1);
    }

    #[test]
    fn arena_backed_handle_recycles_on_drop() {
        let pool = Arc::new(MemoryPool::new(true));
        let arena = Arc::new(crate::arena::StorageArena::new());
        let id1 = {
            let h = StorageHandle::alloc_in(&arena, Arc::clone(&pool), 100, DeviceId::Cpu);
            assert!(h.arena_backed());
            h.block_id().unwrap()
        };
        // The block parked in the arena, so the pool still counts it live.
        assert_eq!(pool.stats().live_bytes, 128);
        assert_eq!(arena.retained_bytes(), 128);
        // Same-class allocation reuses it without touching the pool.
        let h2 = StorageHandle::alloc_in(&arena, Arc::clone(&pool), 90, DeviceId::Cpu);
        assert_eq!(h2.block_id().unwrap().0, id1.0);
        assert_eq!(pool.stats().allocs, 1);
        drop(h2);
        // Dropping the arena returns parked blocks to the pool.
        drop(arena);
        assert_eq!(pool.stats().live_bytes, 0);
    }

    #[test]
    fn object_accessors() {
        let o = Object::tensor(Tensor::scalar_f32(2.0));
        assert_eq!(o.device(), DeviceId::Cpu);
        assert_eq!(o.wait_tensor().unwrap().scalar_value_f32().unwrap(), 2.0);
        assert_eq!(o.tensor_shape().unwrap(), Vec::<usize>::new());
        assert!(o.as_adt().is_err());
        assert!(Object::Unit.wait_tensor().is_err());
    }

    #[test]
    fn tuple_fields() {
        let t = Object::tuple(vec![
            Object::tensor(Tensor::scalar_f32(1.0)),
            Object::tensor(Tensor::scalar_f32(2.0)),
        ]);
        let adt = t.as_adt().unwrap();
        assert_eq!(adt.tag, TUPLE_TAG);
        assert_eq!(adt.fields.len(), 2);
    }

    #[test]
    fn scalar_comparison_values() {
        assert_eq!(
            Object::tensor(Tensor::scalar_bool(true))
                .scalar_i64()
                .unwrap(),
            1
        );
        assert_eq!(
            Object::tensor(Tensor::scalar_i64(42)).scalar_i64().unwrap(),
            42
        );
        assert!(Object::tensor(Tensor::scalar_f32(1.0))
            .scalar_i64()
            .is_err());
        assert!(Object::tensor(Tensor::ones_f32(&[2])).scalar_i64().is_err());
    }

    #[test]
    fn future_metadata_without_sync() {
        let f = TensorFuture::pending();
        let obj = Object::Future(FutureObj {
            future: f.clone(),
            output_index: 0,
            shape: vec![3, 4],
            dtype: nimble_tensor::DType::F32,
            device: DeviceId::Gpu,
        });
        // Shape is available before the future resolves.
        assert_eq!(obj.tensor_shape().unwrap(), vec![3, 4]);
        assert_eq!(obj.device(), DeviceId::Gpu);
        f.fulfill(vec![Tensor::ones_f32(&[3, 4])]);
        assert_eq!(obj.wait_tensor().unwrap().dims(), &[3, 4]);
    }

    #[test]
    fn clone_is_shallow() {
        let t = Tensor::ones_f32(&[1024]);
        let o1 = Object::tensor(t);
        let o2 = o1.clone();
        match (&o1, &o2) {
            (Object::Tensor(a), Object::Tensor(b)) => {
                // Same underlying buffer (reference counted, copy on write).
                assert!(!a.tensor.is_unique());
                assert!(!b.tensor.is_unique());
            }
            _ => unreachable!(),
        }
    }
}
