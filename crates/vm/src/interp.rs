//! The interpreter: a dispatch loop over the 20-instruction ISA.
//!
//! "When execution begins, the interpreter runs a dispatch loop which
//! checks the op-code and executes the appropriate logic, then repeats"
//! (Section 5.2). Because instructions are coarse grained, the loop itself
//! contributes negligibly next to kernel execution; the profiler measures
//! both sides (Table 4).
//!
//! The machine is split for concurrency:
//!
//! * [`VirtualMachine`] is the **loaded program** — executable, the
//!   instantiated kernel table, pre-placed constants, interned small
//!   integers. After [`VirtualMachine::new`] it is immutable (profiling
//!   state is atomic), so it is `Send + Sync` and one `Arc` of it can be
//!   executed from any number of threads with no re-instantiation or
//!   re-placement per request.
//! * [`Session`] is the cheap **per-run state** — recycled register
//!   frames and the per-run profiler. Each worker thread owns one and
//!   reuses it across requests.

use crate::arena::{ArenaStats, StorageArena};
use crate::exe::Executable;
use crate::isa::{opcode_name, Instruction};
use crate::object::{AdtObj, ClosureObj, FutureObj, Object, StorageHandle, TensorObj};
use crate::profiler::{Category, ProfileReport, Profiler, SharedProfiler};
use crate::{Result, VmError};
use nimble_codegen::kernel::Kernel;
use nimble_device::{copy_tensor, DeviceId, DeviceSet, TensorFuture};
use nimble_obs::Category as ObsCat;
use nimble_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A dispatch-time kernel interceptor: consulted on the synchronous CPU
/// path of `InvokePacked` (never for shape functions) with the resolved
/// input tensors, it may hand back a replacement [`Kernel`] to run in
/// place of the loaded one.
///
/// This is the seam the shape-specialization layer plugs into: the hook
/// observes the concrete values of the `Any` dims and, once a shape is
/// hot and a tuned kernel is installed, returns the shape-concretized
/// variant. The returned kernel is an owned clone (two `Arc`s), so an
/// in-flight request keeps its kernel alive even if the hook evicts the
/// entry mid-invoke — eviction can never strand a running request.
///
/// Contract: the replacement must produce bitwise-identical outputs to
/// the original kernel for the given inputs (the VM does not re-verify).
pub trait DispatchHook: Send + Sync {
    /// Return a replacement kernel for this invocation, or `None` to run
    /// the loaded kernel unchanged.
    fn intercept(&self, kernel_idx: u32, inputs: &[Tensor]) -> Option<Kernel>;
}

/// Trace category for an instruction's profiler bucket.
fn obs_cat(category: Category) -> ObsCat {
    match category {
        Category::Kernel => ObsCat::Kernel,
        Category::ShapeFunc => ObsCat::ShapeFunc,
        Category::Other => ObsCat::Vm,
    }
}

/// Per-run mutable state: the register-frame pool, the storage arena, and
/// the run's profiler.
///
/// Sessions are cheap to create, and reusing one across runs recycles its
/// frame allocations (call frames are hot on recursive models) *and* its
/// dynamic-tensor storage (the [`StorageArena`] — blocks freed by one
/// request serve the next without touching the allocator). A session may
/// only be used with one run at a time, but many sessions can execute
/// against the same shared [`VirtualMachine`] concurrently.
#[derive(Debug)]
pub struct Session {
    profiler: Profiler,
    /// Recycled register frames (cleared between uses).
    frames: Vec<Vec<Object>>,
    /// GPU stream lane this session's kernels launch on (wraps modulo the
    /// device set's lane count; irrelevant on CPU-only sets).
    lane: usize,
    /// Storage recycler for `AllocStorage`/`AllocTensorReg`; `None` runs
    /// every allocation straight against the device pools (an explicitly
    /// arena-less session, see [`Session::without_arena`]).
    arena: Option<Arc<StorageArena>>,
    /// Whether the current run is inside a sampled trace (set at the top
    /// of [`VirtualMachine::run_in`]; gates per-instruction span records).
    traced: bool,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A fresh session with an empty frame pool, on lane 0, with its own
    /// arena.
    pub fn new() -> Session {
        Session::with_lane(0)
    }

    /// A fresh session pinned to a GPU stream lane — concurrent sessions
    /// on distinct lanes overlap on the (simulated) device, the
    /// one-CUDA-stream-per-worker serving pattern.
    pub fn with_lane(lane: usize) -> Session {
        Session::with_lane_and_arena(lane, Some(Arc::new(StorageArena::new())))
    }

    /// A session on `lane` using the given arena (engine workers pass a
    /// caller-owned arena so it can be inspected and trimmed from
    /// outside), or no arena at all.
    pub fn with_lane_and_arena(lane: usize, arena: Option<Arc<StorageArena>>) -> Session {
        Session {
            profiler: Profiler::default(),
            frames: Vec::new(),
            lane,
            arena,
            traced: false,
        }
    }

    /// A session that bypasses arena recycling entirely (every storage
    /// allocation hits the device pool) — the ablation/differential
    /// baseline.
    pub fn without_arena() -> Session {
        Session::with_lane_and_arena(0, None)
    }

    /// The session's GPU stream lane.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// The session's storage arena, when it has one.
    pub fn arena(&self) -> Option<&Arc<StorageArena>> {
        self.arena.as_ref()
    }

    /// Arena counters (all-zero for arena-less sessions).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.as_ref().map(|a| a.stats()).unwrap_or_default()
    }

    /// Profile of the most recent run through this session (empty until a
    /// run completes; timings are zero unless the VM had profiling on).
    pub fn last_report(&self) -> ProfileReport {
        self.profiler.report()
    }
}

/// A loaded executable plus devices: ready to run from any thread.
pub struct VirtualMachine {
    exe: Arc<Executable>,
    kernels: Vec<Kernel>,
    kernel_is_shape_func: Vec<bool>,
    /// Kernel names interned at load time so trace spans can carry them
    /// as plain `&'static str` words.
    kernel_names: Vec<&'static str>,
    devices: Arc<DeviceSet>,
    constants: Vec<Object>,
    profiling: AtomicBool,
    shared_profiler: SharedProfiler,
    max_depth: usize,
    /// Interned scalar-i64 objects for small immediates (kill markers, If
    /// comparisons, constructor tags) — these fire once per instruction on
    /// hot paths and would otherwise heap-allocate each time.
    small_ints: Vec<Object>,
    /// Optional dispatch-time kernel interceptor (shape specialization).
    hook: std::sync::RwLock<Option<Arc<dyn DispatchHook>>>,
    /// Fast-path gate for `hook`: checked with one relaxed load per
    /// `InvokePacked` so unhooked VMs pay nothing.
    hook_active: AtomicBool,
}

impl std::fmt::Debug for VirtualMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualMachine")
            .field("kernels", &self.kernels.len())
            .field("constants", &self.constants.len())
            .field("hooked", &self.hook_active.load(Ordering::Relaxed))
            .finish()
    }
}

impl VirtualMachine {
    /// Load an executable onto a device set: instantiate every kernel
    /// descriptor and pre-place constants on their preferred devices.
    ///
    /// # Errors
    /// Fails when a kernel descriptor cannot be instantiated.
    pub fn new(exe: Executable, devices: Arc<DeviceSet>) -> Result<VirtualMachine> {
        // Warm the process-wide weight pre-pack cache at load time: every
        // session loading this executable (and every residue variant of its
        // symbolic dense kernels) then shares the same packed panels. For
        // executables produced by `nimble-core::compile` in this process
        // the cache is already hot and this is a cheap no-op scan.
        exe.prepack_weights();
        let mut kernels = Vec::with_capacity(exe.kernels.len());
        let mut kernel_is_shape_func = Vec::with_capacity(exe.kernels.len());
        let mut kernel_names = Vec::with_capacity(exe.kernels.len());
        for desc in &exe.kernels {
            let kernel = desc.instantiate(&exe.constants)?;
            kernel_names.push(nimble_obs::intern(kernel.name()));
            kernels.push(kernel);
            kernel_is_shape_func.push(desc.is_shape_func());
        }
        // Constants stay resident: "weights (which are constant during
        // inference) can remain in-memory with no specialized support"
        // (Section 5.2). GPU-preferred constants are pre-copied at load.
        let mut constants = Vec::with_capacity(exe.constants.len());
        for (i, t) in exe.constants.iter().enumerate() {
            let dev = exe
                .const_devices
                .get(i)
                .map(|&d| DeviceId::from_index(d as usize))
                .unwrap_or(DeviceId::Cpu);
            let dev = if dev == DeviceId::Gpu && !devices.has_gpu() {
                DeviceId::Cpu
            } else {
                dev
            };
            constants.push(Object::tensor_on(t.clone(), dev));
        }
        Ok(VirtualMachine {
            exe: Arc::new(exe),
            kernels,
            kernel_is_shape_func,
            kernel_names,
            devices,
            constants,
            profiling: AtomicBool::new(false),
            shared_profiler: SharedProfiler::new(),
            max_depth: 256,
            small_ints: (0..16)
                .map(|v| Object::tensor(Tensor::scalar_i64(v)))
                .collect(),
            hook: std::sync::RwLock::new(None),
            hook_active: AtomicBool::new(false),
        })
    }

    /// Install (or clear) the dispatch-time kernel interceptor. Takes
    /// `&self`: the hook slot is the VM's one late-bound extension point,
    /// so a shared VM can gain or lose its specializer without reloading.
    pub fn set_dispatch_hook(&self, hook: Option<Arc<dyn DispatchHook>>) {
        let active = hook.is_some();
        *self.hook.write().unwrap() = hook;
        self.hook_active.store(active, Ordering::Release);
    }

    /// The instantiated kernel table (index-aligned with
    /// `executable().kernels`) — the specializer scans this at attach time
    /// for dense anchors.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Whether `idx` names a shape function (never specialized).
    pub fn kernel_is_shape_func(&self, idx: usize) -> bool {
        self.kernel_is_shape_func.get(idx).copied().unwrap_or(false)
    }

    /// Enable/disable timing collection and reset the aggregated profile.
    /// Takes `&self`: profiling state is atomic so a shared VM can be
    /// toggled without exclusive access.
    pub fn set_profiling(&self, enabled: bool) {
        self.profiling.store(enabled, Ordering::Relaxed);
        self.shared_profiler.reset();
    }

    /// Whether timing collection is on.
    pub fn profiling(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    /// Profile aggregated over every run since the last
    /// [`VirtualMachine::set_profiling`], across all sessions and threads.
    pub fn profile_report(&self) -> ProfileReport {
        self.shared_profiler.report()
    }

    /// Number of runs folded into [`VirtualMachine::profile_report`].
    pub fn profiled_runs(&self) -> u64 {
        self.shared_profiler.runs()
    }

    /// The device set the VM runs on.
    pub fn devices(&self) -> &Arc<DeviceSet> {
        &self.devices
    }

    /// The loaded executable.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// A fresh session for running against this VM.
    pub fn session(&self) -> Session {
        Session::new()
    }

    /// A fresh session pinned to a GPU stream lane (see
    /// [`Session::with_lane`]).
    pub fn session_for(&self, lane: usize) -> Session {
        Session::with_lane(lane)
    }

    /// Run a function by name. Tensor results are synchronized and copied
    /// back to the host before returning.
    ///
    /// Creates a throwaway [`Session`]; callers running many requests
    /// should hold a session and use [`VirtualMachine::run_in`] so frame
    /// allocations are recycled.
    ///
    /// # Errors
    /// Propagates `Fatal`, kernel failures, and malformed bytecode.
    pub fn run(&self, name: &str, args: Vec<Object>) -> Result<Object> {
        let mut session = Session::new();
        self.run_in(&mut session, name, args)
    }

    /// Run a function by name using caller-owned per-run state. Many
    /// threads may call this concurrently on one shared VM, each with its
    /// own session.
    ///
    /// # Errors
    /// Propagates `Fatal`, kernel failures, and malformed bytecode.
    pub fn run_in(&self, session: &mut Session, name: &str, args: Vec<Object>) -> Result<Object> {
        let idx = self.exe.function_index(name)?;
        // Trace root for this run: nests under the caller's span when one
        // is active (the engine's per-request span), becomes a standalone
        // trace root for bare `run()` calls.
        let root = nimble_obs::root_span_full("vm.run", ObsCat::Vm, 0);
        session.traced = root.is_recording();
        session
            .profiler
            .reset_with(self.profiling.load(Ordering::Relaxed));
        let result = self.exec(idx, args, session, 0);
        // Drain this session's device lane so timing includes all launched
        // work and the caller sees a materialized value. Other sessions'
        // lanes keep flowing.
        let sync_start = Instant::now();
        let sync_t0 = if session.traced {
            nimble_obs::now_ns()
        } else {
            0
        };
        self.devices.synchronize_lane(session.lane);
        if session.traced {
            nimble_obs::record_current(
                "vm.sync",
                ObsCat::Device,
                sync_t0,
                nimble_obs::now_ns(),
                session.lane as u64,
            );
        }
        session.profiler.record_sync(sync_start.elapsed());
        self.shared_profiler.merge(session.profiler.report());
        session.traced = false;
        let obj = result?;
        let fetched = self.fetch(obj);
        drop(root);
        fetched
    }

    /// Materialize a result on the host (recursing through ADTs).
    fn fetch(&self, obj: Object) -> Result<Object> {
        Ok(match obj {
            Object::Future(_) => {
                let t = obj.wait_tensor()?;
                Object::tensor(t)
            }
            Object::Tensor(t) if t.device == DeviceId::Gpu => {
                let copied = copy_tensor(&self.devices, &t.tensor, DeviceId::Gpu, DeviceId::Cpu);
                Object::tensor(copied)
            }
            Object::Adt(a) => {
                let fields = a
                    .fields
                    .iter()
                    .map(|f| self.fetch(f.clone()))
                    .collect::<Result<Vec<_>>>()?;
                Object::Adt(Arc::new(AdtObj { tag: a.tag, fields }))
            }
            other => other,
        })
    }

    /// Storage allocation for `AllocStorage`/`AllocTensorReg`: through the
    /// session's arena when it has one (recycled block on hit), straight
    /// from the device pool otherwise.
    fn alloc_storage(&self, session: &Session, size: u64, dev: DeviceId) -> Arc<StorageHandle> {
        let pool = self.devices.pool_arc(dev);
        Arc::new(match &session.arena {
            Some(arena) => StorageHandle::alloc_in(arena, pool, size, dev),
            None => StorageHandle::alloc(pool, size, dev),
        })
    }

    /// Interned scalar for small non-negative immediates; allocates
    /// otherwise.
    fn small_int(&self, value: i64) -> Object {
        if (0..16).contains(&value) {
            self.small_ints[value as usize].clone()
        } else {
            Object::tensor(Tensor::scalar_i64(value))
        }
    }

    fn exec(
        &self,
        func_idx: u32,
        args: Vec<Object>,
        session: &mut Session,
        depth: usize,
    ) -> Result<Object> {
        if depth > self.max_depth {
            return Err(VmError::msg("call depth exceeded"));
        }
        let func = self
            .exe
            .functions
            .get(func_idx as usize)
            .ok_or_else(|| VmError::msg("function index out of range"))?;
        if args.len() != func.num_params as usize {
            return Err(VmError::msg(format!(
                "{}: expected {} args, got {}",
                func.name,
                func.num_params,
                args.len()
            )));
        }
        let mut regs: Vec<Object> = session.frames.pop().unwrap_or_default();
        regs.clear();
        regs.resize(func.num_regs as usize, Object::Unit);
        for (i, a) in args.into_iter().enumerate() {
            regs[i] = a;
        }
        let mut pc: i64 = 0;
        let timing = session.profiler.enabled();
        let traced = session.traced;
        // At the default `Ops` detail, flat spans cover only instructions
        // that can block or move data (device copies, tensor reshapes);
        // register bookkeeping and arena fast-path allocations run in the
        // same ~100-600ns a span costs, so recording them inflates
        // interpreter overhead for little diagnostic value — slow-path
        // allocations surface through the pool's own chunk spans.
        // `NIMBLE_TRACE_DETAIL=instr` restores every-instruction spans
        // for single-request debugging.
        let instr_detail = traced && nimble_obs::detail_instr();
        loop {
            let inst = func
                .code
                .get(pc as usize)
                .ok_or_else(|| VmError::msg(format!("{}: pc {pc} out of range", func.name)))?;
            let start = if timing { Some(Instant::now()) } else { None };
            // Call-like instructions get guard spans inside their arms (so
            // nested work parents under them); everything else is recorded
            // flat after the dispatch arm runs.
            let is_call = matches!(
                inst,
                Instruction::Invoke { .. }
                    | Instruction::InvokeClosure { .. }
                    | Instruction::InvokePacked { .. }
            );
            let flat_traced = traced
                && !is_call
                && (instr_detail
                    || matches!(
                        inst,
                        Instruction::DeviceCopy { .. } | Instruction::ReshapeTensor { .. }
                    ));
            let span_t0 = if flat_traced { nimble_obs::now_ns() } else { 0 };
            let mut span_arg = 0u64;
            let mut category = Category::Other;
            let mut next_pc = pc + 1;
            let mut ret: Option<Object> = None;

            match inst {
                Instruction::Move { src, dst } => {
                    regs[*dst as usize] = regs[*src as usize].clone();
                }
                Instruction::Ret { result } => {
                    ret = Some(std::mem::take(&mut regs[*result as usize]));
                }
                Instruction::Invoke { func, args, dst } => {
                    let _s = nimble_obs::span_full("vm.invoke", ObsCat::Vm, *func as u64);
                    let call_args: Vec<Object> =
                        args.iter().map(|&r| regs[r as usize].clone()).collect();
                    let out = self.exec(*func, call_args, session, depth + 1)?;
                    regs[*dst as usize] = out;
                }
                Instruction::InvokeClosure { closure, args, dst } => {
                    let clo = regs[*closure as usize].as_closure()?.clone();
                    let _s =
                        nimble_obs::span_full("vm.invoke_closure", ObsCat::Vm, clo.func as u64);
                    let mut call_args = clo.captures.clone();
                    call_args.extend(args.iter().map(|&r| regs[r as usize].clone()));
                    let out = self.exec(clo.func, call_args, session, depth + 1)?;
                    regs[*dst as usize] = out;
                }
                Instruction::InvokePacked {
                    kernel,
                    args,
                    num_outputs,
                    device,
                } => {
                    let is_sf = *self
                        .kernel_is_shape_func
                        .get(*kernel as usize)
                        .ok_or_else(|| VmError::msg("kernel index out of range"))?;
                    category = if is_sf {
                        Category::ShapeFunc
                    } else {
                        Category::Kernel
                    };
                    // The kernel span carries the kernel's own name; pool
                    // chunk and GPU-stream spans nest beneath it.
                    let _s = nimble_obs::span_cat(
                        self.kernel_names
                            .get(*kernel as usize)
                            .copied()
                            .unwrap_or("vm.invoke_packed"),
                        obs_cat(category),
                    );
                    self.invoke_packed(
                        *kernel,
                        args,
                        *num_outputs,
                        DeviceId::from_index(*device as usize),
                        is_sf,
                        &mut regs,
                        session.lane,
                    )?;
                }
                Instruction::AllocStorage {
                    size,
                    alignment: _,
                    device,
                    dst,
                } => {
                    let dev = DeviceId::from_index(*device as usize);
                    span_arg = *size;
                    regs[*dst as usize] = Object::Storage(self.alloc_storage(session, *size, dev));
                }
                Instruction::AllocTensor {
                    storage,
                    offset: _,
                    shape,
                    dtype,
                    dst,
                } => {
                    let handle = match &regs[*storage as usize] {
                        Object::Storage(h) => Some(Arc::clone(h)),
                        _ => None,
                    };
                    let dev = handle.as_ref().map(|h| h.device).unwrap_or(DeviceId::Cpu);
                    let dims: Vec<usize> = shape.iter().map(|&d| d as usize).collect();
                    regs[*dst as usize] = Object::placeholder(dims, *dtype, dev, handle);
                }
                Instruction::AllocTensorReg {
                    shape,
                    dtype,
                    device,
                    dst,
                } => {
                    let shape_t = regs[*shape as usize].wait_tensor()?;
                    let dims: Vec<usize> = shape_t
                        .as_i64()
                        .map_err(VmError::from)?
                        .iter()
                        .map(|&d| d as usize)
                        .collect();
                    let dev = DeviceId::from_index(*device as usize);
                    // Dynamic allocation draws real storage — from the
                    // session arena when one is attached, the pool otherwise.
                    let nbytes: usize = dims.iter().product::<usize>() * dtype.size_of();
                    span_arg = nbytes as u64;
                    let handle = self.alloc_storage(session, nbytes as u64, dev);
                    regs[*dst as usize] = Object::placeholder(dims, *dtype, dev, Some(handle));
                }
                Instruction::AllocADT { tag, fields, dst } => {
                    let fs: Vec<Object> =
                        fields.iter().map(|&r| regs[r as usize].clone()).collect();
                    regs[*dst as usize] = Object::Adt(Arc::new(AdtObj {
                        tag: *tag,
                        fields: fs,
                    }));
                }
                Instruction::AllocClosure {
                    func,
                    captures,
                    dst,
                } => {
                    let caps: Vec<Object> =
                        captures.iter().map(|&r| regs[r as usize].clone()).collect();
                    regs[*dst as usize] = Object::Closure(Arc::new(ClosureObj {
                        func: *func,
                        captures: caps,
                    }));
                }
                Instruction::GetField { object, index, dst } => {
                    let adt = regs[*object as usize].as_adt()?.clone();
                    let field = adt
                        .fields
                        .get(*index as usize)
                        .cloned()
                        .ok_or_else(|| VmError::msg("GetField index out of range"))?;
                    regs[*dst as usize] = field;
                }
                Instruction::GetTag { object, dst } => {
                    let tag = regs[*object as usize].as_adt()?.tag;
                    regs[*dst as usize] = self.small_int(tag as i64);
                }
                Instruction::If {
                    lhs,
                    rhs,
                    true_offset,
                    false_offset,
                } => {
                    let l = regs[*lhs as usize].scalar_i64()?;
                    let r = regs[*rhs as usize].scalar_i64()?;
                    next_pc = pc
                        + if l == r {
                            *true_offset as i64
                        } else {
                            *false_offset as i64
                        };
                }
                Instruction::Goto { offset } => {
                    next_pc = pc + *offset as i64;
                }
                Instruction::LoadConst { index, dst } => {
                    let c = self
                        .constants
                        .get(*index as usize)
                        .cloned()
                        .ok_or_else(|| VmError::msg("constant index out of range"))?;
                    regs[*dst as usize] = c;
                }
                Instruction::LoadConsti { value, dst } => {
                    regs[*dst as usize] = self.small_int(*value);
                }
                Instruction::DeviceCopy {
                    src,
                    src_device,
                    dst_device,
                    dst,
                } => {
                    let src_dev = DeviceId::from_index(*src_device as usize);
                    let dst_dev = DeviceId::from_index(*dst_device as usize);
                    let obj = &regs[*src as usize];
                    // Device-to-host reads must wait for the stream.
                    if matches!(obj, Object::Future(_)) && dst_dev == DeviceId::Cpu {
                        let sync_start = Instant::now();
                        let t = obj.wait_tensor()?;
                        session.profiler.record_sync(sync_start.elapsed());
                        let copied = copy_tensor(&self.devices, &t, src_dev, dst_dev);
                        regs[*dst as usize] = Object::tensor_on(copied, dst_dev);
                    } else {
                        let t = obj.wait_tensor()?;
                        let copied = copy_tensor(&self.devices, &t, src_dev, dst_dev);
                        regs[*dst as usize] = Object::tensor_on(copied, dst_dev);
                    }
                }
                Instruction::ShapeOf { tensor, dst } => {
                    // Shape metadata is host-resident: no synchronization.
                    let dims = regs[*tensor as usize].tensor_shape()?;
                    let shape: Vec<i64> = dims.iter().map(|&d| d as i64).collect();
                    let n = shape.len();
                    regs[*dst as usize] =
                        Object::tensor(Tensor::from_vec_i64(shape, &[n]).map_err(VmError::from)?);
                }
                Instruction::ReshapeTensor { tensor, shape, dst } => {
                    let t = regs[*tensor as usize].wait_tensor()?;
                    let s = regs[*shape as usize].wait_tensor()?;
                    let dims: Vec<usize> = s
                        .as_i64()
                        .map_err(VmError::from)?
                        .iter()
                        .map(|&d| d as usize)
                        .collect();
                    let device = regs[*tensor as usize].device();
                    regs[*dst as usize] =
                        Object::tensor_on(t.reshaped(&dims).map_err(VmError::from)?, device);
                }
                Instruction::Fatal { message } => {
                    return Err(VmError::msg(format!("fatal: {message}")));
                }
            }

            if flat_traced {
                nimble_obs::record_current(
                    opcode_name(inst.opcode()),
                    obs_cat(category),
                    span_t0,
                    nimble_obs::now_ns(),
                    span_arg,
                );
            }
            if let Some(start) = start {
                session
                    .profiler
                    .record(inst.opcode(), category, start.elapsed());
            } else {
                session
                    .profiler
                    .record(inst.opcode(), category, std::time::Duration::ZERO);
            }
            if let Some(out) = ret {
                // Recycle the frame (dropping its remaining references).
                regs.clear();
                session.frames.push(regs);
                return Ok(out);
            }
            pc = next_pc;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn invoke_packed(
        &self,
        kernel_idx: u32,
        arg_regs: &[u32],
        num_outputs: u32,
        device: DeviceId,
        is_shape_func: bool,
        regs: &mut [Object],
        lane: usize,
    ) -> Result<()> {
        let kernel = self
            .kernels
            .get(kernel_idx as usize)
            .ok_or_else(|| VmError::msg("kernel index out of range"))?;
        let n_out = num_outputs as usize;
        if arg_regs.len() < n_out {
            return Err(VmError::msg("InvokePacked: fewer args than outputs"));
        }
        let (in_regs, out_regs) = arg_regs.split_at(arg_regs.len() - n_out);

        let run_on_gpu = device == DeviceId::Gpu && self.devices.has_gpu() && !is_shape_func;
        if !run_on_gpu {
            // Synchronous CPU execution (shape functions always land here).
            let inputs: Vec<Tensor> = in_regs
                .iter()
                .map(|&r| regs[r as usize].wait_tensor())
                .collect::<Result<_>>()?;
            // Shape-specialization seam: with a hook installed, compute
            // kernels may be swapped for a shape-concretized variant now
            // that the concrete input shapes are known. The clone returned
            // by the hook pins the specialized kernel for the duration of
            // this invoke, so concurrent eviction cannot strand us.
            let specialized: Option<Kernel> =
                if !is_shape_func && self.hook_active.load(Ordering::Acquire) {
                    self.hook
                        .read()
                        .unwrap()
                        .as_ref()
                        .and_then(|h| h.intercept(kernel_idx, &inputs))
                } else {
                    None
                };
            let kernel = specialized.as_ref().unwrap_or(kernel);
            let outputs = kernel
                .invoke(&inputs)
                .map_err(|e| VmError::msg(format!("{}: {e}", kernel.name())))?;
            if outputs.len() != n_out {
                return Err(VmError::msg(format!(
                    "{}: produced {} outputs, expected {}",
                    kernel.name(),
                    outputs.len(),
                    n_out
                )));
            }
            for (i, out) in outputs.into_iter().enumerate() {
                let slot = out_regs[i] as usize;
                // Keep the storage handle from the pre-allocated buffer so
                // planned lifetimes hold.
                let storage = match &regs[slot] {
                    Object::Tensor(t) => t.storage.clone(),
                    _ => None,
                };
                regs[slot] = Object::Tensor(TensorObj {
                    tensor: out,
                    device,
                    storage,
                    declared: None,
                });
            }
            return Ok(());
        }

        // Asynchronous GPU launch: inputs are snapshotted, outputs become
        // futures carrying host-known metadata from the pre-allocated
        // buffers.
        let inputs: Vec<Object> = in_regs.iter().map(|&r| regs[r as usize].clone()).collect();
        let future = TensorFuture::pending();
        let job_future = future.clone();
        let job_kernel = kernel.clone();
        self.devices.gpu_lane(lane).launch(move || {
            let mut tensors = Vec::with_capacity(inputs.len());
            for obj in &inputs {
                match obj.wait_tensor() {
                    Ok(t) => tensors.push(t),
                    Err(e) => {
                        job_future.fail(e.to_string());
                        return;
                    }
                }
            }
            match job_kernel.invoke(&tensors) {
                Ok(outs) => job_future.fulfill(outs),
                Err(e) => job_future.fail(e.to_string()),
            }
        });
        for (i, &slot) in out_regs.iter().enumerate() {
            let slot = slot as usize;
            let (shape, dtype) = match &regs[slot] {
                Object::Tensor(t) => (
                    t.declared
                        .clone()
                        .unwrap_or_else(|| t.tensor.dims().to_vec()),
                    t.tensor.dtype(),
                ),
                _ => (Vec::new(), nimble_tensor::DType::F32),
            };
            regs[slot] = Object::Future(FutureObj {
                future: future.clone(),
                output_index: i,
                shape,
                dtype,
                device: DeviceId::Gpu,
            });
        }
        Ok(())
    }
}
