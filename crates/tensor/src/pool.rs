//! Execution profiles and the persistent data-parallel worker pool.
//!
//! The paper evaluates on three platforms (Intel server CPU, Nvidia GPU, ARM
//! edge CPU). This reproduction runs everything on the host, but the kernel
//! library is parameterized by an [`ExecProfile`] that controls worker-thread
//! count and cache-tile sizes, reproducing the server-vs-edge split; the GPU
//! is simulated separately in `nimble-device`.
//!
//! ## Worker pool
//!
//! Parallel kernels used to spawn fresh OS threads on every invocation via
//! `std::thread::scope`, which costs tens of microseconds per kernel — the
//! same order as a small GEMM itself. [`parallel_for`] now submits chunked
//! jobs to a lazily-initialized process-wide pool of parked worker threads:
//!
//! * A job is a borrowed closure plus an atomic range cursor. Workers (and
//!   the submitting thread itself) claim chunks with a `fetch_add` on the
//!   cursor — lock-free range claiming rather than per-chunk locking.
//! * The submitter always participates, so forward progress never depends on
//!   pool capacity, and nested `parallel_for` calls from inside a worker
//!   cannot deadlock: every waiter is itself draining chunks first.
//! * Multiple jobs may be queued concurrently (the concurrent inference
//!   engine runs kernels from several sessions at once); workers drain the
//!   queue front-first and drop a job from the queue once its range is
//!   exhausted.
//!
//! Chunks are oversubscribed ([`OVERSUBSCRIBE`] per participant) so a
//! straggler chunk does not serialize the tail of the job.
//!
//! Dispatch is priced for kernels of a few microseconds: the host's thread
//! count is read once per process, and a job below [`PARALLEL_THRESHOLD`]
//! runs on the caller before any pool state is looked at. An idle worker
//! keeps polling for [`SPIN`] before it parks, so inside a stream of
//! kernels a job is handed over without a syscall; a submission wakes only
//! as many *parked* workers as it has chunks to hand out.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Platform execution profile used by the kernel library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecProfile {
    /// Server-class CPU: all available cores, large cache tiles.
    #[default]
    Server,
    /// Edge-class CPU (stand-in for ARM Cortex-A72): one worker, small tiles.
    Edge,
}

impl ExecProfile {
    /// Number of worker threads the profile may use.
    pub fn threads(self) -> usize {
        match self {
            ExecProfile::Server => host_threads(),
            ExecProfile::Edge => 1,
        }
    }

    /// Cache-blocking tile size (elements per dimension) for matmul-like
    /// kernels.
    pub fn tile(self) -> usize {
        match self {
            ExecProfile::Server => 64,
            ExecProfile::Edge => 16,
        }
    }

    /// Human-readable platform label used by the benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            ExecProfile::Server => "cpu",
            ExecProfile::Edge => "edge",
        }
    }

    /// The SIMD instruction set kernels run under for this profile — the
    /// process-wide active ISA (runtime-detected, `NIMBLE_SIMD`-overridable).
    /// Both profiles share it; the method exists so profile-driven code has
    /// one place to ask.
    pub fn isa(self) -> nimble_simd::Isa {
        nimble_simd::active()
    }
}

/// Process-wide default profile, switchable by the benchmark harness.
static DEFAULT_PROFILE: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default [`ExecProfile`].
pub fn set_default_profile(profile: ExecProfile) {
    let v = match profile {
        ExecProfile::Server => 0,
        ExecProfile::Edge => 1,
    };
    DEFAULT_PROFILE.store(v, Ordering::SeqCst);
}

/// Get the process-wide default [`ExecProfile`].
pub fn default_profile() -> ExecProfile {
    match DEFAULT_PROFILE.load(Ordering::SeqCst) {
        0 => ExecProfile::Server,
        _ => ExecProfile::Edge,
    }
}

/// Hardware threads of the host, read once per process:
/// `available_parallelism` re-reads the affinity mask and the cgroup quota
/// files on every call (~10 µs — more than a small kernel).
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Minimum total work (in "element-ops") below which parallel_for runs
/// serially: submission overhead would otherwise dominate small kernels.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Chunks (or decomposition tasks) aimed at per participant.
pub const OVERSUBSCRIBE: usize = 4;

/// How long an idle worker polls for the next job, and a submitter for its
/// job's last chunks, before sleeping on a condvar. A model is a stream of
/// kernels a few hundred microseconds apart: within one, the next job finds
/// the workers awake on their own cores and is handed over without a
/// syscall. (A futex wake costs microseconds, and a guest kernel tends to
/// place the woken thread on the waker's core, serializing the two.)
const SPIN: Duration = Duration::from_micros(500);

/// Poll `ready` for up to [`SPIN`], offering the core to other runnable
/// threads between polls so an oversubscribed box loses little to it.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    if ready() {
        return true;
    }
    let start = Instant::now();
    while start.elapsed() < SPIN {
        std::thread::yield_now();
        if ready() {
            return true;
        }
    }
    false
}

thread_local! {
    /// Test override of [`participants`] for jobs submitted by this thread.
    static FORCED_PARTICIPANTS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// How many threads a job of `work` element-ops submitted now is cut for:
/// 1 (the caller alone) below [`PARALLEL_THRESHOLD`], else the profile's
/// thread count. The work test comes first so small kernels pay for
/// nothing else.
pub fn participants(profile: ExecProfile, work: usize) -> usize {
    if let Some(forced) = FORCED_PARTICIPANTS.get() {
        return forced;
    }
    if work < PARALLEL_THRESHOLD {
        return 1;
    }
    profile.threads()
}

/// Test hook: run `f` with every job this thread submits cut for exactly
/// `participants` threads, whatever its size and the host's width. Results
/// must not depend on the decomposition; the differential tests use this to
/// compare one-participant and many-participant splits on any box.
#[doc(hidden)]
pub fn with_forced_participants<R>(participants: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_PARTICIPANTS.set(self.0);
        }
    }
    let _restore = Restore(FORCED_PARTICIPANTS.replace(Some(participants.max(1))));
    f()
}

/// A unit of queued work: a borrowed range closure plus an atomic cursor
/// workers use to claim `[start, end)` chunks.
struct Job {
    /// Borrowed `(start, end)` closure. The `'static` lifetime is a lie told
    /// with `transmute` in [`parallel_for`]; it is sound because the
    /// submitter does not return (and thus does not drop the closure) until
    /// `completed == n_chunks`, and workers never touch the closure after
    /// claiming a chunk index `>= n_chunks`.
    task: &'static (dyn Fn(usize, usize) + Sync),
    n: usize,
    chunk: usize,
    n_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Number of chunks fully executed.
    completed: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload raised inside a chunk, rethrown on the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Submitter's trace context: pool workers adopt it so chunk spans
    /// parent under the kernel span that submitted the job.
    ctx: nimble_obs::SpanContext,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n_chunks
    }

    /// Claim and run chunks until the range is exhausted.
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                break;
            }
            let start = i * self.chunk;
            let end = ((i + 1) * self.chunk).min(self.n);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = nimble_obs::enter(self.ctx);
                let _s = nimble_obs::span_full("pool.chunk", nimble_obs::Category::Pool, i as u64);
                (self.task)(start, end)
            }));
            if let Err(p) = r {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n_chunks {
                let mut done = self.done.lock().unwrap();
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Block until every chunk has finished executing.
    fn wait(&self) {
        // Pairs with the `AcqRel` increment in `run`: the chunks' writes
        // (and a recorded panic) are visible once the count is.
        if spin_until(|| self.completed.load(Ordering::Acquire) == self.n_chunks) {
            return;
        }
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.done_cv.wait(done).unwrap();
        }
    }
}

/// Queue state, guarded by one mutex.
struct PoolQueue {
    jobs: VecDeque<Arc<Job>>,
    /// Workers currently waiting on `work_cv`.
    parked: usize,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_cv: Condvar,
    /// Jobs ever queued: lets an idle worker poll for the next one without
    /// taking the lock. Only a hint (`Relaxed`) — the jobs themselves are
    /// published by the queue mutex, under which this is bumped.
    submitted: AtomicUsize,
}

struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Number of parked worker threads (0 on a single-core host: the
    /// submitter then runs everything itself).
    workers: usize,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                // Drop jobs whose range is fully claimed; in-flight chunks
                // are owned by whoever claimed them.
                while q.jobs.front().is_some_and(|j| j.exhausted()) {
                    q.jobs.pop_front();
                }
                if let Some(j) = q.jobs.front() {
                    break Arc::clone(j);
                }
                let seen = shared.submitted.load(Ordering::Relaxed);
                drop(q);
                let more = spin_until(|| shared.submitted.load(Ordering::Relaxed) != seen);
                q = shared.queue.lock().unwrap();
                if !more && q.jobs.is_empty() {
                    q.parked += 1;
                    q = shared.work_cv.wait(q).unwrap();
                    q.parked -= 1;
                }
            }
        };
        job.run();
    }
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

fn global_pool() -> &'static WorkerPool {
    POOL.get_or_init(|| {
        let workers = host_threads() - 1;
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                parked: 0,
            }),
            work_cv: Condvar::new(),
            submitted: AtomicUsize::new(0),
        });
        for i in 0..workers {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("nimble-worker-{i}"))
                .spawn(move || worker_loop(s))
                .expect("spawn pool worker");
        }
        WorkerPool { shared, workers }
    })
}

/// Number of persistent pool worker threads (excluding submitters).
/// Initializes the pool on first call.
pub fn pool_workers() -> usize {
    global_pool().workers
}

/// Whether any job has reached the pool yet (its workers are spawned on
/// first use; a process that only runs sub-threshold kernels never does).
pub fn pool_started() -> bool {
    POOL.get().is_some()
}

/// Run `f(start, end)` over disjoint ranges of `0..n`, splitting across the
/// persistent worker pool when the estimated `work = n * work_per_item` is
/// large enough to amortize submission overhead.
///
/// The closure receives half-open index ranges and must only touch data it
/// can partition by index; mutable state should be captured per-invocation
/// through interior slicing (see [`parallel_chunks_mut`] for the common
/// slice-output case). The submitting thread participates in chunk
/// execution, and a panic inside any chunk is re-raised on the submitter
/// after all chunks drain.
pub fn parallel_for<F>(profile: ExecProfile, n: usize, work_per_item: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let width = participants(profile, n.saturating_mul(work_per_item));
    if width <= 1 || n < 2 {
        f(0, n);
        return;
    }
    let pool = global_pool();
    if pool.workers == 0 {
        f(0, n);
        return;
    }
    let n_chunks = (width * OVERSUBSCRIBE).min(n);
    let chunk = n.div_ceil(n_chunks);
    let n_chunks = n.div_ceil(chunk);
    // SAFETY: see `Job::task` — the closure outlives the job because this
    // function blocks on `wait()` (all chunks completed) before returning.
    let task: &'static (dyn Fn(usize, usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), &'static (dyn Fn(usize, usize) + Sync)>(
            &f,
        )
    };
    let job = Arc::new(Job {
        task,
        n,
        chunk,
        n_chunks,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
        ctx: nimble_obs::current(),
    });
    let wake = {
        let mut q = pool.shared.queue.lock().unwrap();
        q.jobs.push_back(Arc::clone(&job));
        pool.shared.submitted.fetch_add(1, Ordering::Relaxed);
        // The submitter takes one chunk itself; a two-chunk job on a wide
        // box wakes one worker, not all of them.
        q.parked.min(n_chunks - 1)
    };
    for _ in 0..wake {
        pool.shared.work_cv.notify_one();
    }
    job.run();
    job.wait();
    let panicked = job.panic.lock().unwrap().take();
    if let Some(p) = panicked {
        std::panic::resume_unwind(p);
    }
}

/// Raw-pointer wrapper that lets pool chunks rebuild disjoint sub-slices of
/// a single output buffer.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
// SAFETY: the wrapper only moves the address between threads; every user
// dereferences it for windows that are disjoint per chunk, while the
// submitter (which owns the `&mut` the pointer came from) is blocked in
// `parallel_for`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared access never reads or writes the same element
// from two threads.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare raw pointer.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Split `out` into `chunk_len`-sized chunks and process each chunk on the
/// pool: `f(chunk_index, chunk)`.
///
/// # Panics
/// Panics if `chunk_len` is zero.
pub fn parallel_chunks_mut<T: Send, F>(
    profile: ExecProfile,
    out: &mut [T],
    chunk_len: usize,
    work_per_item: usize,
    f: F,
) where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let total = out.len();
    let n_chunks = total.div_ceil(chunk_len);
    let base = SendPtr(out.as_mut_ptr());
    parallel_for(
        profile,
        n_chunks,
        chunk_len.saturating_mul(work_per_item),
        move |lo, hi| {
            for i in lo..hi {
                let start = i * chunk_len;
                let end = ((i + 1) * chunk_len).min(total);
                // SAFETY: chunk index ranges from parallel_for are disjoint,
                // so each `[start, end)` window of `out` is touched by
                // exactly one claimant; `base` outlives the call because
                // parallel_for blocks until all chunks complete.
                let slice =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                f(i, slice);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles() {
        assert_eq!(ExecProfile::Edge.threads(), 1);
        assert!(ExecProfile::Server.threads() >= 1);
        assert!(ExecProfile::Edge.tile() < ExecProfile::Server.tile());
        assert_eq!(ExecProfile::default(), ExecProfile::Server);
    }

    #[test]
    fn participants_rule_and_override() {
        assert_eq!(participants(ExecProfile::Server, PARALLEL_THRESHOLD - 1), 1);
        assert_eq!(
            participants(ExecProfile::Server, PARALLEL_THRESHOLD),
            ExecProfile::Server.threads()
        );
        assert_eq!(participants(ExecProfile::Edge, usize::MAX), 1);
        let inner = with_forced_participants(7, || {
            // Forced: no threshold, no profile; nests and restores.
            assert_eq!(
                with_forced_participants(1, || participants(ExecProfile::Server, 0)),
                1
            );
            participants(ExecProfile::Edge, 0)
        });
        assert_eq!(inner, 7);
        assert_eq!(participants(ExecProfile::Server, 0), 1);
    }

    #[test]
    fn default_profile_switch() {
        set_default_profile(ExecProfile::Edge);
        assert_eq!(default_profile(), ExecProfile::Edge);
        set_default_profile(ExecProfile::Server);
        assert_eq!(default_profile(), ExecProfile::Server);
    }

    #[test]
    fn parallel_for_covers_range() {
        use std::sync::Mutex;
        let hits = Mutex::new(vec![0u32; 1000]);
        parallel_for(ExecProfile::Server, 1000, 1 << 10, |s, e| {
            let mut h = hits.lock().unwrap();
            for i in s..e {
                h[i] += 1;
            }
        });
        assert!(hits.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn parallel_for_serial_small() {
        let mut count = 0;
        let c = std::sync::atomic::AtomicUsize::new(0);
        parallel_for(ExecProfile::Edge, 10, 1, |s, e| {
            c.fetch_add(e - s, std::sync::atomic::Ordering::SeqCst);
        });
        count += c.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(count, 10);
    }

    #[test]
    fn parallel_chunks_mut_disjoint() {
        let mut data = vec![0usize; 103];
        parallel_chunks_mut(ExecProfile::Server, &mut data, 10, 1 << 12, |i, c| {
            for v in c.iter_mut() {
                *v = i + 1;
            }
        });
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, j / 10 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_panics() {
        let mut data = vec![0u8; 4];
        parallel_chunks_mut(ExecProfile::Server, &mut data, 0, 1, |_, _| {});
    }

    #[test]
    fn pool_reused_across_calls() {
        // Two large submissions must complete correctly on the same
        // persistent pool (no fresh threads per call to leak or re-init).
        let w = pool_workers();
        for round in 0..3 {
            let mut data = vec![0u64; 4096];
            parallel_chunks_mut(ExecProfile::Server, &mut data, 64, 1 << 10, |i, c| {
                for v in c.iter_mut() {
                    *v = (i + round) as u64;
                }
            });
            for (j, &v) in data.iter().enumerate() {
                assert_eq!(v, (j / 64 + round) as u64);
            }
        }
        assert_eq!(pool_workers(), w, "pool size must be stable");
    }

    #[test]
    fn concurrent_submitters_make_progress() {
        // The engine runs kernels from several sessions at once; jobs from
        // different submitters must not serialize or deadlock. Watchdog via
        // a channel timeout so a regression fails instead of hanging CI.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    std::thread::spawn(move || {
                        for _ in 0..8 {
                            let mut data = vec![0u32; 2048];
                            parallel_chunks_mut(
                                ExecProfile::Server,
                                &mut data,
                                32,
                                1 << 10,
                                |i, c| {
                                    for v in c.iter_mut() {
                                        *v = (i * 10 + t) as u32;
                                    }
                                },
                            );
                            for (j, &v) in data.iter().enumerate() {
                                assert_eq!(v, (j / 32 * 10 + t) as u32);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("concurrent parallel_for submissions deadlocked");
    }

    #[test]
    fn panic_propagates_to_submitter() {
        let r = std::panic::catch_unwind(|| {
            parallel_for(ExecProfile::Server, 10_000, 1 << 10, |s, _e| {
                if s == 0 {
                    panic!("chunk failure");
                }
            });
        });
        assert!(r.is_err(), "panic inside a chunk must reach the submitter");
    }
}
