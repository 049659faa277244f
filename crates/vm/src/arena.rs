//! Per-session storage arena: size-classed free lists over the device
//! pools.
//!
//! Nimble makes allocation explicit (`AllocStorage` / `AllocTensorReg`)
//! precisely so the runtime can recycle storage across invocations of a
//! dynamic model. The arena is that recycler: a [`Session`] owns one, every
//! storage allocation first tries to pop a recycled block of sufficient
//! capacity, and dropping the last reference to a handle (the lowered
//! `kill`, frame teardown, or a result going out of scope) returns the
//! block here instead of to the device pool. A warm arena turns the
//! per-request allocation cost of a dynamic model into a handful of
//! free-list pops.
//!
//! Layering: the arena sits *above* the per-device [`MemoryPool`]. A miss
//! falls through to `pool.alloc` (that is the "system allocation" the
//! `arena_reuse` bench counts); blocks retained by the arena remain live
//! from the pool's point of view until [`StorageArena::trim`] (or the
//! arena's drop) hands them back. Size classes mirror the pool's
//! (power-of-two, minimum 64 bytes); requests above [`LARGE_CLASS`] use a
//! first-fit overflow list instead of exact-class matching so huge dynamic
//! intermediates of slightly-varying shape still reuse each other's
//! buffers.
//!
//! In debug builds recycled blocks are poison-filled (`0xA5`) on release,
//! so any code path that read stale bytes out of a recycled block would be
//! caught by the differential tests — storage blocks are lifetime/
//! accounting objects, kernels materialize their own output tensors, and
//! the poison proves it stays that way.
//!
//! [`Session`]: crate::Session

use nimble_device::{size_class, DeviceId, MemoryPool, StorageBlock};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Requests whose size class exceeds this go to the first-fit overflow
/// list instead of an exact-class free list (1 MiB).
pub const LARGE_CLASS: usize = 1 << 20;

/// Byte written over recycled blocks in debug builds.
pub const POISON_BYTE: u8 = 0xA5;

/// Snapshot of one arena's counters (or a sum over several — see
/// [`ArenaStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations served from the free lists (no pool/system allocation).
    pub hits: u64,
    /// Allocations that fell through to the device pool.
    pub misses: u64,
    /// Total bytes served from recycled blocks over time.
    pub recycled_bytes: u64,
    /// Bytes currently handed out to live storage handles.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub high_water_bytes: u64,
    /// Bytes parked in the free lists, ready for reuse.
    pub retained_bytes: u64,
    /// Blocks parked in the free lists.
    pub retained_blocks: u64,
}

impl ArenaStats {
    /// Fraction of allocations served from the free lists (0 when the
    /// arena has served nothing).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulate another arena's counters (engine-level aggregation over
    /// per-worker arenas; `high_water_bytes` sums, making it an upper
    /// bound on simultaneous footprint).
    pub fn merge(&mut self, other: &ArenaStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled_bytes += other.recycled_bytes;
        self.live_bytes += other.live_bytes;
        self.high_water_bytes += other.high_water_bytes;
        self.retained_bytes += other.retained_bytes;
        self.retained_blocks += other.retained_blocks;
    }
}

/// A block parked in the arena, remembering the pool it must eventually
/// return to (sessions can allocate on both devices; trim must not mix
/// them up).
struct CachedBlock {
    block: StorageBlock,
    pool: Arc<MemoryPool>,
}

#[derive(Default)]
struct ArenaInner {
    /// Exact-class free lists, keyed by (device index, size class).
    classes: HashMap<(usize, usize), Vec<CachedBlock>>,
    /// First-fit overflow for blocks above [`LARGE_CLASS`], keyed by
    /// device index.
    large: HashMap<usize, Vec<CachedBlock>>,
}

/// A size-classed free-list recycler for VM storage blocks. Shared
/// (`Arc`) between a session and every storage handle it allocates, so
/// handles that outlive the session still return their blocks here — and
/// the last reference's drop trims everything back to the pools.
pub struct StorageArena {
    inner: Mutex<ArenaInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled_bytes: AtomicU64,
    live_bytes: AtomicU64,
    high_water_bytes: AtomicU64,
    retained_bytes: AtomicU64,
    retained_blocks: AtomicU64,
    poison: bool,
}

impl std::fmt::Debug for StorageArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageArena")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for StorageArena {
    fn default() -> Self {
        StorageArena::new()
    }
}

impl StorageArena {
    /// An empty arena. Poisoning of recycled blocks is on in debug builds.
    pub fn new() -> StorageArena {
        StorageArena::with_poison(cfg!(debug_assertions))
    }

    /// An empty arena with recycled-block poisoning explicitly on or off.
    pub fn with_poison(poison: bool) -> StorageArena {
        StorageArena {
            inner: Mutex::new(ArenaInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled_bytes: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            high_water_bytes: AtomicU64::new(0),
            retained_bytes: AtomicU64::new(0),
            retained_blocks: AtomicU64::new(0),
            poison,
        }
    }

    /// Allocate a block of at least `nbytes` for `device`: a recycled
    /// block when one of sufficient capacity is parked, `pool.alloc`
    /// otherwise.
    pub fn acquire(&self, pool: &Arc<MemoryPool>, nbytes: usize, device: DeviceId) -> StorageBlock {
        let class = size_class(nbytes);
        let recycled = {
            let mut inner = self.inner.lock();
            if class <= LARGE_CLASS {
                inner
                    .classes
                    .get_mut(&(device.index(), class))
                    .and_then(|list| list.pop())
            } else {
                // First fit over the overflow list: any parked block with
                // enough capacity serves the request.
                let list = inner.large.entry(device.index()).or_default();
                list.iter()
                    .position(|c| c.block.capacity() >= nbytes)
                    .map(|i| list.swap_remove(i))
            }
        };
        match recycled {
            Some(CachedBlock { mut block, .. }) => {
                let cap = block.capacity() as u64;
                block.retag(nbytes);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.recycled_bytes.fetch_add(cap, Ordering::Relaxed);
                self.retained_bytes.fetch_sub(cap, Ordering::Relaxed);
                self.retained_blocks.fetch_sub(1, Ordering::Relaxed);
                self.note_live(cap);
                block
            }
            None => {
                // Miss: this is the system allocation the arena exists to
                // amortize away.
                let block = pool.alloc(nbytes);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.note_live(block.capacity() as u64);
                block
            }
        }
    }

    /// Park a block for reuse. Called from `StorageHandle::drop`; the
    /// block stays live from the pool's perspective until [`trim`].
    ///
    /// [`trim`]: StorageArena::trim
    pub fn release(&self, mut block: StorageBlock, pool: &Arc<MemoryPool>, device: DeviceId) {
        if self.poison {
            block.bytes_mut().fill(POISON_BYTE);
        }
        let cap = block.capacity() as u64;
        self.live_bytes.fetch_sub(cap, Ordering::Relaxed);
        self.retained_bytes.fetch_add(cap, Ordering::Relaxed);
        self.retained_blocks.fetch_add(1, Ordering::Relaxed);
        let class = block.capacity();
        let cached = CachedBlock {
            block,
            pool: Arc::clone(pool),
        };
        let mut inner = self.inner.lock();
        if class <= LARGE_CLASS {
            inner
                .classes
                .entry((device.index(), class))
                .or_default()
                .push(cached);
        } else {
            inner.large.entry(device.index()).or_default().push(cached);
        }
    }

    /// Return every parked block to its device pool; yields the number of
    /// bytes released. Live handles are unaffected (their blocks come back
    /// to the arena on drop). Used on engine shutdown / model unload to
    /// bring retained memory back to baseline.
    pub fn trim(&self) -> u64 {
        let (classes, large) = {
            let mut inner = self.inner.lock();
            (
                std::mem::take(&mut inner.classes),
                std::mem::take(&mut inner.large),
            )
        };
        let mut released = 0u64;
        for cached in classes
            .into_values()
            .flatten()
            .chain(large.into_values().flatten())
        {
            released += cached.block.capacity() as u64;
            self.retained_blocks.fetch_sub(1, Ordering::Relaxed);
            cached.pool.free(cached.block);
        }
        self.retained_bytes.fetch_sub(released, Ordering::Relaxed);
        released
    }

    /// Bytes currently handed out to live storage handles.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Bytes parked in the free lists.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes.load(Ordering::Relaxed)
    }

    /// Whether recycled blocks are poison-filled.
    pub fn poisons(&self) -> bool {
        self.poison
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled_bytes: self.recycled_bytes.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
            retained_bytes: self.retained_bytes.load(Ordering::Relaxed),
            retained_blocks: self.retained_blocks.load(Ordering::Relaxed),
        }
    }

    /// Reset the cumulative counters (hits/misses/recycled) between
    /// benchmark phases; live/retained gauges are left alone and the
    /// high-water mark restarts from current liveness.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.recycled_bytes.store(0, Ordering::Relaxed);
        self.high_water_bytes
            .store(self.live_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn note_live(&self, cap: u64) {
        let live = self.live_bytes.fetch_add(cap, Ordering::Relaxed) + cap;
        self.high_water_bytes.fetch_max(live, Ordering::Relaxed);
    }
}

impl Drop for StorageArena {
    fn drop(&mut self) {
        // Hand every parked block back so pool accounting balances: after
        // the last handle and the arena are gone, pool live_bytes is back
        // to its pre-session baseline.
        self.trim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<MemoryPool> {
        Arc::new(MemoryPool::new(true))
    }

    #[test]
    fn recycles_within_class() {
        let arena = StorageArena::new();
        let p = pool();
        let b1 = arena.acquire(&p, 100, DeviceId::Cpu);
        let addr = b1.bytes().as_ptr() as usize;
        arena.release(b1, &p, DeviceId::Cpu);
        // 120 rounds to the same 128-byte class: must reuse the block.
        let b2 = arena.acquire(&p, 120, DeviceId::Cpu);
        assert_eq!(b2.bytes().as_ptr() as usize, addr);
        assert_eq!(b2.size, 120);
        let s = arena.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.recycled_bytes, 128);
        // Only the original miss reached the pool.
        assert_eq!(p.stats().allocs, 1);
        arena.release(b2, &p, DeviceId::Cpu);
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.retained_bytes(), 128);
    }

    #[test]
    fn classes_do_not_cross() {
        let arena = StorageArena::new();
        let p = pool();
        let b = arena.acquire(&p, 64, DeviceId::Cpu);
        arena.release(b, &p, DeviceId::Cpu);
        // A 128-class request must not get the parked 64-byte block.
        let big = arena.acquire(&p, 100, DeviceId::Cpu);
        assert_eq!(arena.stats().hits, 0);
        assert_eq!(big.capacity(), 128);
        arena.release(big, &p, DeviceId::Cpu);
    }

    #[test]
    fn devices_do_not_cross() {
        let arena = StorageArena::new();
        let (pc, pg) = (pool(), pool());
        let b = arena.acquire(&pc, 64, DeviceId::Cpu);
        arena.release(b, &pc, DeviceId::Cpu);
        let g = arena.acquire(&pg, 64, DeviceId::Gpu);
        assert_eq!(arena.stats().hits, 0, "CPU block must not serve GPU");
        arena.release(g, &pg, DeviceId::Gpu);
        // Trim returns each block to the pool it came from.
        arena.trim();
        assert_eq!(pc.stats().live_bytes, 0);
        assert_eq!(pg.stats().live_bytes, 0);
    }

    #[test]
    fn large_blocks_first_fit() {
        let arena = StorageArena::new();
        let p = pool();
        let big = arena.acquire(&p, LARGE_CLASS * 4, DeviceId::Cpu);
        let addr = big.bytes().as_ptr() as usize;
        arena.release(big, &p, DeviceId::Cpu);
        // A smaller (but still large-path) request fits in the parked block.
        let again = arena.acquire(&p, LARGE_CLASS * 2 + 1, DeviceId::Cpu);
        assert_eq!(again.bytes().as_ptr() as usize, addr);
        assert_eq!(arena.stats().hits, 1);
        arena.release(again, &p, DeviceId::Cpu);
        // A larger request cannot: new allocation.
        let over = arena.acquire(&p, LARGE_CLASS * 8, DeviceId::Cpu);
        assert_ne!(over.bytes().as_ptr() as usize, addr);
        assert_eq!(arena.stats().misses, 2);
        arena.release(over, &p, DeviceId::Cpu);
    }

    #[test]
    fn poison_fills_released_blocks() {
        let arena = StorageArena::with_poison(true);
        let p = pool();
        let mut b = arena.acquire(&p, 64, DeviceId::Cpu);
        b.bytes_mut().fill(0x11);
        arena.release(b, &p, DeviceId::Cpu);
        let b2 = arena.acquire(&p, 64, DeviceId::Cpu);
        assert!(b2.bytes().iter().all(|&x| x == POISON_BYTE));
        arena.release(b2, &p, DeviceId::Cpu);
    }

    #[test]
    fn trim_and_drop_balance_pool_accounting() {
        let p = pool();
        {
            let arena = StorageArena::new();
            for _ in 0..3 {
                let b = arena.acquire(&p, 256, DeviceId::Cpu);
                arena.release(b, &p, DeviceId::Cpu);
            }
            let held = arena.acquire(&p, 4096, DeviceId::Cpu);
            assert!(p.stats().live_bytes > 0);
            let released = arena.trim();
            assert_eq!(released, 256);
            assert_eq!(arena.retained_bytes(), 0);
            // The held block is still live through the pool.
            assert_eq!(p.stats().live_bytes, 4096);
            arena.release(held, &p, DeviceId::Cpu);
            // Arena drop trims the rest.
        }
        assert_eq!(pool_live(&p), 0);
    }

    fn pool_live(p: &Arc<MemoryPool>) -> u64 {
        p.stats().live_bytes
    }

    #[test]
    fn high_water_tracks_peak() {
        let arena = StorageArena::new();
        let p = pool();
        let a = arena.acquire(&p, 64, DeviceId::Cpu);
        let b = arena.acquire(&p, 64, DeviceId::Cpu);
        arena.release(a, &p, DeviceId::Cpu);
        arena.release(b, &p, DeviceId::Cpu);
        let _c = arena.acquire(&p, 64, DeviceId::Cpu);
        let s = arena.stats();
        assert_eq!(s.high_water_bytes, 128);
        assert_eq!(s.live_bytes, 64);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = ArenaStats {
            hits: 1,
            misses: 2,
            recycled_bytes: 64,
            live_bytes: 10,
            high_water_bytes: 20,
            retained_bytes: 30,
            retained_blocks: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits, 2);
        assert_eq!(a.misses, 4);
        assert_eq!(a.high_water_bytes, 40);
        assert!((a.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(ArenaStats::default().hit_rate(), 0.0);
    }
}
