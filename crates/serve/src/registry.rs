//! The model registry: many named, versioned models, each behind its own
//! engine, with a compiled-artifact cache on disk.
//!
//! Nimble's compile-once / serialize / load split (paper §5) makes a
//! model repository cheap: compiling a model is the expensive step, but
//! the resulting [`Executable`] is a flat byte stream. The registry
//! fingerprints `(module, options)` and keeps the serialized executable
//! under `cache_dir`, so re-registering a model the server has seen
//! before — on restart, or on another replica sharing the directory —
//! is a file read plus kernel re-instantiation, not a compile.
//!
//! A model is addressed by a stable **name**; each registration carries a
//! **version** string. Registering a name that is already live is an
//! atomic hot-swap: new requests route to the new version the moment the
//! map is updated, while the old version's engine drains its in-flight
//! and queued work to completion before its resources (including its
//! pre-packed weight panels) are released. [`ModelRegistry::unload`]
//! performs the same drain-then-release without a successor.

use crate::shard::{ShardConfig, ShardSet};
use crate::ServeError;
use nimble_core::{compile, CompileOptions, Engine, EngineConfig};
use nimble_device::DeviceSet;
use nimble_ir::printer::print_module;
use nimble_ir::Module;
use nimble_specialize::{ModelSpecializer, SpecializeConfig};
use nimble_tensor::prepack;
use nimble_vm::{BatchPlan, Executable, VirtualMachine};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

/// Configuration for [`ModelRegistry::new`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Directory for serialized compiled artifacts; `None` disables the
    /// disk cache (every registration compiles).
    pub cache_dir: Option<PathBuf>,
    /// Engine shape given to every replica of every model (workers,
    /// queue capacity, batch).
    pub engine: EngineConfig,
    /// Replica-set shape given to every model. The default is a single
    /// replica — identical to pre-shard behavior.
    pub shards: ShardConfig,
    /// Device set shared by all models' VMs.
    pub devices: Arc<DeviceSet>,
    /// Shape-specialization knobs given to every model; `None` disables
    /// the subsystem (the symbolic-only reference the specialization
    /// differentials compare against). The default attaches a specializer
    /// with default budgets.
    pub specialize: Option<SpecializeConfig>,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            cache_dir: None,
            engine: EngineConfig::default(),
            shards: ShardConfig::default(),
            devices: Arc::new(DeviceSet::cpu_only()),
            specialize: Some(SpecializeConfig::default()),
        }
    }
}

/// One live model: a loaded program and the replica set serving it.
pub struct ModelEntry {
    name: String,
    version: String,
    shards: Arc<ShardSet>,
    vm: Arc<VirtualMachine>,
    /// Buffer ids of the pre-packed weight constants, for release on
    /// unload.
    weight_buffers: Vec<usize>,
    /// Shape specializer hooked into this model's VM, when enabled and
    /// the program has dense anchors to specialize.
    spec: Option<Arc<ModelSpecializer>>,
}

impl ModelEntry {
    /// Stable model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Version string of this registration.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The replica set serving this model.
    pub fn shards(&self) -> &Arc<ShardSet> {
        &self.shards
    }

    /// The model's primary (lowest-id) replica engine — the single-node
    /// compatibility handle for direct submissions.
    ///
    /// # Panics
    /// When every replica has been killed (graceful drain keeps replicas
    /// listed, so this only happens after chaos-style kills, which go
    /// through [`ModelEntry::shards`] directly).
    pub fn engine(&self) -> Arc<Engine> {
        let replica = self
            .shards
            .primary()
            .expect("model entry has no live replica");
        Arc::clone(replica.engine())
    }

    /// The loaded program.
    pub fn vm(&self) -> &Arc<VirtualMachine> {
        &self.vm
    }

    /// The shape specializer attached to this model's VM, if the
    /// subsystem is enabled and the program has dense anchors.
    pub fn specializer(&self) -> Option<&Arc<ModelSpecializer>> {
        self.spec.as_ref()
    }
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("weight_buffers", &self.weight_buffers.len())
            .finish()
    }
}

/// What [`ModelRegistry::register`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterReport {
    /// `name@version` of the new registration.
    pub id: String,
    /// Whether the executable came from the disk artifact cache instead
    /// of a fresh compile.
    pub from_cache: bool,
    /// Version that was hot-swapped out (drained and released), if any.
    pub replaced: Option<String>,
}

/// A thread-safe registry of named, versioned models.
pub struct ModelRegistry {
    config: RegistryConfig,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.list())
            .finish()
    }
}

/// FNV-1a over the canonicalized printed module, every constant tensor's
/// raw data, and the compile options: cheap, stable across processes and
/// rebuilds, and collision-safe enough for a cache key scoped by
/// `name@version` file names.
///
/// Two sources of instability/blindness in the debug printer are patched
/// here: fresh-variable ids (`%x_17`) are renumbered in first-appearance
/// order, and non-scalar constants (printed only as `const<shape>`) have
/// their actual bytes hashed via an IR walk.
fn fingerprint(module: &Module, opts: &CompileOptions) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(canonicalize_vars(&print_module(module)).as_bytes());
    for (_, func) in module.functions() {
        nimble_ir::visit::visit_post_order(&func.body, &mut |e| {
            if let nimble_ir::ExprKind::Constant(t) = e.kind() {
                eat(&[t.dtype().code()]);
                for &d in t.dims() {
                    eat(&(d as u64).to_le_bytes());
                }
                match t.data() {
                    nimble_tensor::Data::F32(v) => {
                        for x in v {
                            eat(&x.to_bits().to_le_bytes());
                        }
                    }
                    nimble_tensor::Data::I64(v) => {
                        for x in v {
                            eat(&x.to_le_bytes());
                        }
                    }
                    nimble_tensor::Data::I32(v) => {
                        for x in v {
                            eat(&x.to_le_bytes());
                        }
                    }
                    nimble_tensor::Data::Bool(v) => {
                        for &x in v {
                            eat(&[u8::from(x)]);
                        }
                    }
                }
            }
        });
    }
    eat(format!("{opts:?}").as_bytes());
    h
}

/// Renumber `%name_id` identifiers in first-appearance order so the
/// global fresh-variable counter does not leak into the fingerprint.
fn canonicalize_vars(printed: &str) -> String {
    let mut out = String::with_capacity(printed.len());
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut chars = printed.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let mut token = String::new();
        while let Some(&n) = chars.peek() {
            if n.is_ascii_alphanumeric() || n == '_' {
                token.push(n);
                chars.next();
            } else {
                break;
            }
        }
        let next = ids.len();
        let id = *ids.entry(token).or_insert(next);
        out.push_str(&format!("%v{id}"));
    }
    out
}

/// Make a name/version safe to embed in a file name.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> ModelRegistry {
        ModelRegistry {
            config,
            models: RwLock::new(HashMap::new()),
        }
    }

    /// Compile `module` (or load its cached artifact) and serve it as
    /// `name@version`. If `name` is already live this is a hot-swap: the
    /// new version is installed atomically, then the old version drains
    /// and its resources are released.
    ///
    /// # Errors
    /// Propagates compile and load failures; the previous registration
    /// (if any) stays live on error.
    pub fn register(
        &self,
        name: &str,
        version: &str,
        module: &Module,
        opts: &CompileOptions,
    ) -> Result<RegisterReport, ServeError> {
        self.register_with_batch(name, version, module, opts, None)
    }

    /// Like [`ModelRegistry::register`], with a dynamic-batching plan:
    /// every replica of this model coalesces same-bucket requests into
    /// padded batched executions (the module must carry the matching
    /// `main_b{bucket}` entry points — see `nimble_vm::batch::entry_name`).
    /// `None` serves unbatched.
    ///
    /// # Errors
    /// Propagates compile and load failures; the previous registration
    /// (if any) stays live on error.
    pub fn register_with_batch(
        &self,
        name: &str,
        version: &str,
        module: &Module,
        opts: &CompileOptions,
        plan: Option<Arc<BatchPlan>>,
    ) -> Result<RegisterReport, ServeError> {
        let (exe, from_cache) = self.compile_or_load(name, version, module, opts)?;
        let replaced = self.install(name, version, exe, plan)?;
        Ok(RegisterReport {
            id: format!("{name}@{version}"),
            from_cache,
            replaced,
        })
    }

    /// Serve an already-built executable as `name@version` (bypasses the
    /// artifact cache). Same hot-swap semantics as
    /// [`ModelRegistry::register`].
    ///
    /// # Errors
    /// Propagates VM-load and engine-spawn failures.
    pub fn register_executable(
        &self,
        name: &str,
        version: &str,
        exe: Executable,
    ) -> Result<RegisterReport, ServeError> {
        let replaced = self.install(name, version, exe, None)?;
        Ok(RegisterReport {
            id: format!("{name}@{version}"),
            from_cache: false,
            replaced,
        })
    }

    fn artifact_path(&self, name: &str, version: &str, hash: u64) -> Option<PathBuf> {
        self.config.cache_dir.as_ref().map(|dir| {
            dir.join(format!(
                "{}@{}-{hash:016x}.nmbl",
                sanitize(name),
                sanitize(version)
            ))
        })
    }

    fn compile_or_load(
        &self,
        name: &str,
        version: &str,
        module: &Module,
        opts: &CompileOptions,
    ) -> Result<(Executable, bool), ServeError> {
        let path = self.artifact_path(name, version, fingerprint(module, opts));
        if let Some(p) = &path {
            // A corrupt artifact falls through to a fresh compile (and
            // gets overwritten below).
            if p.exists() {
                if let Ok(exe) = Executable::load_from(p) {
                    return Ok((exe, true));
                }
            }
        }
        let (exe, _report) =
            compile(module, opts).map_err(|e| ServeError::Compile(e.to_string()))?;
        if let Some(p) = &path {
            if let Some(dir) = p.parent() {
                std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(e.to_string()))?;
            }
            exe.save_to(p).map_err(|e| ServeError::Io(e.to_string()))?;
        }
        Ok((exe, false))
    }

    /// Build VM + engine, swap into the map, then drain and release the
    /// displaced entry (if any). Returns the displaced version.
    fn install(
        &self,
        name: &str,
        version: &str,
        exe: Executable,
        plan: Option<Arc<BatchPlan>>,
    ) -> Result<Option<String>, ServeError> {
        // Loading an artifact skips `compile`'s prepack pass; make the
        // pre-packed state identical on both paths before taking the map
        // lock.
        exe.prepack_weights();
        let weight_buffers = exe.weight_buffer_ids();
        let vm = Arc::new(
            VirtualMachine::new(exe, Arc::clone(&self.config.devices))
                .map_err(|e| ServeError::Compile(e.to_string()))?,
        );
        let shards = Arc::new(
            ShardSet::with_plan(
                Arc::clone(&vm),
                self.config.engine.clone(),
                self.config.shards.clone(),
                plan,
            )
            .map_err(|e| ServeError::Compile(e.to_string()))?,
        );
        // Attach the shape specializer (no-op when disabled by config or
        // when the program has no dense anchors).
        let spec = self
            .config
            .specialize
            .as_ref()
            .and_then(|cfg| ModelSpecializer::attach(&vm, cfg.clone()));
        if let Some(s) = &spec {
            s.set_label(name);
        }
        shards.set_label(name);
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            version: version.to_string(),
            shards,
            vm,
            weight_buffers,
            spec,
        });
        let old = self.models.write().unwrap().insert(name.to_string(), entry);
        // Outside the lock: drain the displaced version so its accepted
        // requests complete, then release its packed weights.
        let displaced = old.map(|e| Self::retire(&e));
        match &displaced {
            Some(prev) => nimble_obs::events::emit(
                "hot_swap",
                name,
                &[
                    ("version", nimble_obs::events::FieldVal::Str(version)),
                    ("displaced", nimble_obs::events::FieldVal::Str(prev)),
                ],
            ),
            None => nimble_obs::events::emit(
                "model_installed",
                name,
                &[("version", nimble_obs::events::FieldVal::Str(version))],
            ),
        }
        Ok(displaced)
    }

    /// Drain an entry's replica set (which also trims each replica's
    /// worker storage arenas back to the device pools) and release its
    /// pre-packed weights; returns its version string. After retirement
    /// the entry holds no recycled storage and no packed panels —
    /// unload/hot-swap returns memory to the pre-load baseline.
    fn retire(entry: &Arc<ModelEntry>) -> String {
        entry.shards.shutdown();
        // Tear down the specializer first: it joins the tuning thread and
        // releases every specialized prepack layout, so the buffer-wide
        // release below returns the cache to its pre-load state.
        if let Some(spec) = &entry.spec {
            spec.shutdown();
        }
        prepack::release_buffers(&entry.weight_buffers);
        entry.version.clone()
    }

    /// Stop serving `name`: remove it from routing, drain its queued and
    /// in-flight requests to completion, and release its pre-packed
    /// weight panels.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when `name` is not registered.
    pub fn unload(&self, name: &str) -> Result<(), ServeError> {
        let entry = self
            .models
            .write()
            .unwrap()
            .remove(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        let version = Self::retire(&entry);
        nimble_obs::events::emit(
            "model_unloaded",
            name,
            &[("version", nimble_obs::events::FieldVal::Str(&version))],
        );
        Ok(())
    }

    /// The live entry for `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models.read().unwrap().get(name).cloned()
    }

    /// `(name, version)` of every live model, sorted by name.
    pub fn list(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = self
            .models
            .read()
            .unwrap()
            .values()
            .map(|e| (e.name.clone(), e.version.clone()))
            .collect();
        v.sort();
        v
    }

    /// Unload every model (drain + release), e.g. at server shutdown.
    pub fn shutdown(&self) {
        let entries: Vec<Arc<ModelEntry>> = self
            .models
            .write()
            .unwrap()
            .drain()
            .map(|(_, e)| e)
            .collect();
        for e in &entries {
            Self::retire(e);
        }
    }
}

impl Drop for ModelRegistry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_ir::attrs::Attrs;
    use nimble_ir::builder::FunctionBuilder;
    use nimble_ir::types::TensorType;
    use nimble_tensor::{DType, Tensor};
    use nimble_vm::Object;

    fn add_k_module(k: f32) -> Module {
        let mut fb = FunctionBuilder::new("main");
        let x = fb.param("x", TensorType::new(&[2], DType::F32));
        let c = fb.constant(Tensor::from_vec_f32(vec![k, k], &[2]).unwrap());
        let y = fb.call("add", vec![x, c], Attrs::new());
        let mut m = Module::new();
        m.add_function("main", fb.finish(y));
        m
    }

    fn run(entry: &Arc<ModelEntry>, v: f32) -> Vec<f32> {
        entry
            .engine()
            .run(
                "main",
                vec![Object::tensor(
                    Tensor::from_vec_f32(vec![v, v], &[2]).unwrap(),
                )],
            )
            .unwrap()
            .result
            .unwrap()
            .wait_tensor()
            .unwrap()
            .as_f32()
            .unwrap()
            .to_vec()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nimble-serve-registry-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn register_get_run_unload() {
        let reg = ModelRegistry::new(RegistryConfig::default());
        let rep = reg
            .register(
                "addone",
                "v1",
                &add_k_module(1.0),
                &CompileOptions::default(),
            )
            .unwrap();
        assert_eq!(rep.id, "addone@v1");
        assert!(!rep.from_cache);
        assert_eq!(rep.replaced, None);
        let entry = reg.get("addone").expect("registered");
        assert_eq!(run(&entry, 1.0), vec![2.0, 2.0]);
        assert_eq!(reg.list(), vec![("addone".into(), "v1".into())]);
        reg.unload("addone").unwrap();
        assert!(reg.get("addone").is_none());
        assert!(matches!(
            reg.unload("addone"),
            Err(ServeError::UnknownModel(_))
        ));
    }

    #[test]
    fn hot_swap_replaces_version_atomically() {
        let reg = ModelRegistry::new(RegistryConfig::default());
        reg.register("m", "v1", &add_k_module(1.0), &CompileOptions::default())
            .unwrap();
        let v1 = reg.get("m").unwrap();
        assert_eq!(run(&v1, 0.0), vec![1.0, 1.0]);
        let rep = reg
            .register("m", "v2", &add_k_module(2.0), &CompileOptions::default())
            .unwrap();
        assert_eq!(rep.replaced.as_deref(), Some("v1"));
        let v2 = reg.get("m").unwrap();
        assert_eq!(v2.version(), "v2");
        assert_eq!(run(&v2, 0.0), vec![2.0, 2.0]);
        // The drained v1 engine answers new submissions with Closed, not
        // silence.
        let late = v1
            .engine()
            .submit("main", vec![Object::tensor(Tensor::ones_f32(&[2]))], None);
        assert!(late.wait().is_err());
    }

    #[test]
    fn artifact_cache_round_trips_and_distinguishes_content() {
        let dir = temp_dir("cache");
        let cfg = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let opts = CompileOptions::default();
        {
            let reg = ModelRegistry::new(cfg.clone());
            let rep = reg.register("m", "v1", &add_k_module(1.0), &opts).unwrap();
            assert!(!rep.from_cache, "first registration compiles");
        }
        // A new registry (fresh process in spirit) loads from disk.
        let reg = ModelRegistry::new(cfg);
        let rep = reg.register("m", "v1", &add_k_module(1.0), &opts).unwrap();
        assert!(rep.from_cache, "second registration loads the artifact");
        assert_eq!(run(&reg.get("m").unwrap(), 3.0), vec![4.0, 4.0]);
        // Different module content under the same name@version gets a
        // different fingerprint, so it compiles rather than mis-loading.
        let rep = reg.register("m", "v1", &add_k_module(5.0), &opts).unwrap();
        assert!(!rep.from_cache);
        assert_eq!(run(&reg.get("m").unwrap(), 0.0), vec![5.0, 5.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_artifact_is_rejected_and_recompiled() {
        let dir = temp_dir("stale");
        let cfg = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let opts = CompileOptions::default();
        let module = add_k_module(1.0);
        let reg = ModelRegistry::new(cfg);
        let path = reg
            .artifact_path("m", "v1", fingerprint(&module, &opts))
            .expect("cache dir set");
        // The key's path holding a format-1 artifact: what a compiler from
        // before fused kernels listed their outputs would have cached.
        let (exe, _) = compile(&module, &opts).unwrap();
        let mut stale = exe.save().to_vec();
        stale[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &stale).unwrap();
        let err = Executable::load_from(&path).expect_err("format 1 is rejected");
        assert!(err.to_string().contains("format version 1"), "{err}");
        let rep = reg.register("m", "v1", &module, &opts).unwrap();
        assert!(
            !rep.from_cache,
            "a stale artifact is recompiled, not served"
        );
        assert_eq!(run(&reg.get("m").unwrap(), 3.0), vec![4.0, 4.0]);
        assert!(
            Executable::load_from(&path).is_ok(),
            "the artifact was overwritten in the current format"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
