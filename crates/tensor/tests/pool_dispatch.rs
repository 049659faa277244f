//! What a kernel call pays the pool before doing any work.
//!
//! One test function on purpose: the checks are about process-wide state
//! (has the pool been started?), so they run in order in a process of
//! their own.

use nimble_tensor::pool::{parallel_for, pool_started, ExecProfile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn small_kernels_pay_nothing_for_the_pool() {
    // The thread count is read from the OS once. Re-reading it per call
    // (affinity mask plus cgroup files) cost ~10 µs, i.e. ~10 s here.
    let start = Instant::now();
    let mut sum = 0usize;
    for _ in 0..1_000_000 {
        sum += std::hint::black_box(ExecProfile::Server).threads();
    }
    let elapsed = start.elapsed();
    assert!(sum >= 1_000_000);
    assert!(
        elapsed < Duration::from_millis(100),
        "1e6 ExecProfile::Server.threads() calls took {elapsed:?}"
    );

    // A job below the work threshold runs on the caller and never reaches
    // the pool: no worker is spawned, no queue lock is taken.
    let items = AtomicUsize::new(0);
    for _ in 0..1000 {
        parallel_for(ExecProfile::Server, 64, 16, |lo, hi| {
            items.fetch_add(hi - lo, Ordering::Relaxed);
        });
    }
    assert_eq!(items.load(Ordering::Relaxed), 64_000);
    assert!(
        !pool_started(),
        "a sub-threshold job touched the global pool"
    );

    // A large one does (wherever there is a second hardware thread).
    parallel_for(ExecProfile::Server, 64, 1 << 16, |lo, hi| {
        items.fetch_add(hi - lo, Ordering::Relaxed);
    });
    assert_eq!(items.load(Ordering::Relaxed), 64_064);
    assert_eq!(pool_started(), ExecProfile::Server.threads() > 1);
}
