//! Sharded worker pool for the parallel simulation engine.
//!
//! Every parallel phase in the workspace goes through this module, so the
//! threading policy lives in one place:
//!
//! * [`met_threads`] — the engine-wide thread count, from the `MET_THREADS`
//!   environment variable (default: available parallelism; `1` selects the
//!   legacy sequential path).
//! * [`run_sharded`] — the core primitive: run shard closures `0..shards`,
//!   shard 0 on the calling thread and shard `i` pinned to long-lived
//!   worker `i`.
//! * [`map`] / [`for_each_mut`] / [`for_each_shard`] — order-preserving
//!   primitives built on it that degrade to plain loops when there is
//!   nothing to parallelize.
//!
//! # Why long-lived pinned workers
//!
//! The previous engine pushed one queue item per *server* per parallel
//! phase through a mutex/condvar work queue — ~50 dispatches per tick,
//! each paying lock and futex traffic that swamped the ~0.5 ms of actual
//! work at default scale (the fig4 bench *regressed* at 2 threads).
//! Here a dispatch is one release-store of an epoch word; workers spin
//! briefly between phases, so back-to-back dispatches (the solver runs 48
//! per tick) cost a couple of atomic operations and no syscalls. Shard
//! `i` always runs on worker `i`, so any per-shard scratch a caller keeps
//! resident (see `cluster::sim`) stays in that worker's cache across
//! ticks.
//!
//! # Dispatch protocol
//!
//! A single global [`Shared`] block holds the current job and an epoch
//! word packed as `(generation << 16) | shards`. To dispatch, the
//! coordinator takes the dispatch lock, publishes the job pointer, resets
//! the `done` counter, and bumps the epoch. A worker that observes a new
//! epoch participates only if its index is below the packed shard count —
//! non-participants never touch the job slot, which is what makes the
//! slot safe to overwrite on the next dispatch without waking them. Each
//! participant increments `done` when its shard returns (panics are
//! caught, counted, and re-raised on the coordinator); the coordinator
//! waits for `done == shards - 1` before clearing the job and releasing
//! the lock. Workers register themselves under the dispatch lock, so a
//! dispatch always counts exactly the workers its snapshot saw.
//!
//! # Degradation rules (all preserve determinism)
//!
//! The primitives run inline — same order, same arithmetic — whenever
//! parallelism cannot pay or is unavailable: one shard, one item,
//! `threads <= 1`, a single-CPU host ([`physical_parallelism`]), a nested
//! call from inside a worker, a concurrent dispatch by another thread
//! (the lock is `try_lock`), or a failed worker spawn. Results are
//! byte-identical either way: `map` fills results in input order and
//! callers reduce in that same order, and per-shard RNG streams
//! ([`crate::SimRng::fork`]) are keyed by stable IDs, never by thread.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::Thread;

/// The engine-wide thread count.
///
/// Delegates to the typed environment config ([`crate::config::env_config`],
/// which parses `MET_THREADS` once: a positive integer; unset, empty, or
/// unparsable values fall back to the machine's available parallelism).
/// Tests that need a specific count should use per-object overrides (e.g.
/// `SimCluster::set_threads`) instead of mutating the environment.
pub fn met_threads() -> usize {
    crate::config::env_config().threads
}

/// Typed failure from [`ensure_pool`].
#[derive(Debug)]
pub enum PoolError {
    /// Spawning a worker thread failed; the pool keeps the workers it
    /// already has and the primitives fall back to inline execution.
    Spawn {
        /// The thread count that was requested.
        requested: usize,
        /// The OS error from `thread::Builder::spawn`.
        source: std::io::Error,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Spawn { requested, source } => {
                write!(f, "failed to grow shard pool to {requested} threads: {source}")
            }
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Spawn { source, .. } => Some(source),
        }
    }
}

// Number of physical cores the dispatcher believes it has; 0 = ask the OS.
static PHYSICAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides what [`physical_parallelism`] reports. `None` restores the
/// OS-reported value.
///
/// This exists for the determinism gates: on a single-CPU host the
/// primitives would otherwise (correctly) run everything inline, and a
/// "1 vs 4 threads" comparison would never cross a thread boundary.
/// Forcing e.g. `Some(4)` makes dispatch real — slower, but actually
/// exercising the cross-thread protocol.
pub fn set_physical_override(cores: Option<usize>) {
    PHYSICAL_OVERRIDE.store(cores.unwrap_or(0), Ordering::SeqCst);
}

/// The number of CPUs dispatch decisions are based on: the override if
/// set, otherwise `std::thread::available_parallelism`. The OS value is
/// queried once and cached — `available_parallelism` is a syscall, and
/// this sits on the per-dispatch path (~50 dispatches per simulated
/// tick).
pub fn physical_parallelism() -> usize {
    static OS_PARALLELISM: OnceLock<usize> = OnceLock::new();
    match PHYSICAL_OVERRIDE.load(Ordering::SeqCst) {
        0 => *OS_PARALLELISM
            .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        n => n,
    }
}

// Low bits of the epoch word carry the dispatch's shard count.
const SHARD_BITS: usize = 16;
const SHARD_MASK: usize = (1 << SHARD_BITS) - 1;

// Idle worker: spin this long, then yield this many times, then park.
const WORKER_SPINS: u32 = 512;
const WORKER_YIELDS: u32 = 64;
// Coordinator wait: spin this long, then yield until workers finish.
const COORD_SPINS: u32 = 512;

/// A type-erased borrow of the dispatched closure. Only valid while the
/// dispatching call is blocked in [`run_sharded`], which is exactly the
/// window workers are allowed to read it in (see the protocol above).
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

unsafe impl Send for Job {}

unsafe fn call_shard<F: Fn(usize) + Sync>(data: *const (), shard: usize) {
    unsafe { (*(data as *const F))(shard) }
}

struct WorkerSlot {
    /// Shard index this worker is pinned to (1-based; shard 0 is the
    /// coordinator).
    index: usize,
    /// Last epoch word this worker acted on.
    seen: AtomicUsize,
    /// Set just before the worker parks; lets the coordinator skip the
    /// unpark syscall for workers that are still spinning.
    parked: AtomicBool,
    thread: Thread,
}

struct Shared {
    /// `(generation << SHARD_BITS) | shards` of the current dispatch.
    epoch: AtomicUsize,
    /// Participants that have finished the current dispatch.
    done: AtomicUsize,
    /// The current job; written and cleared by the coordinator under the
    /// dispatch lock, read only by participants of the current epoch.
    job: UnsafeCell<Option<Job>>,
    /// Serializes dispatches (and worker registration against them).
    dispatch: Mutex<()>,
    /// Registered workers, in pinned-index order.
    regs: Mutex<Vec<Arc<WorkerSlot>>>,
    reg_cv: Condvar,
    /// First panic payload from a worker shard, re-raised by the
    /// coordinator after the dispatch completes.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

// The `UnsafeCell` is the only non-Sync field; access is serialized by the
// epoch protocol documented on `Job` and `Shared::job`.
unsafe impl Sync for Shared {}

struct Pool {
    shared: Arc<Shared>,
    /// Workers spawned so far (registration may lag; `ensure_pool` waits).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
            dispatch: Mutex::new(()),
            regs: Mutex::new(Vec::new()),
            reg_cv: Condvar::new(),
            panic: Mutex::new(None),
        }),
        spawned: Mutex::new(0),
    })
}

/// Total threads the pool can currently serve (workers + the coordinator).
pub fn pool_size() -> usize {
    *pool().spawned.lock().expect("pool bookkeeping poisoned") + 1
}

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Ensures the global pool can serve `threads` participants, spawning
/// long-lived pinned workers as needed and waiting until they are
/// registered. Returns the pool's (possibly larger) capacity.
///
/// The pool only ever grows: asking for 4 then 2 leaves 4 threads
/// available, which lets one process compare e.g. `threads = 1` and
/// `threads = 4` runs of the same simulation. Unlike the old
/// `build_global`-style setup, asking for *more* threads after the pool
/// exists actually grows it — the silent keep-the-old-size behaviour is
/// gone, and a spawn failure is a typed [`PoolError`] instead of a
/// swallowed `Result`.
pub fn ensure_pool(threads: usize) -> Result<usize, PoolError> {
    let p = pool();
    let target = threads.saturating_sub(1);
    let mut spawned = p.spawned.lock().expect("pool bookkeeping poisoned");
    while *spawned < target {
        let index = *spawned + 1;
        let shared = Arc::clone(&p.shared);
        std::thread::Builder::new()
            .name(format!("met-shard-{index}"))
            .spawn(move || worker_loop(shared, index))
            .map_err(|source| PoolError::Spawn { requested: threads, source })?;
        *spawned += 1;
    }
    let expected = *spawned;
    drop(spawned);
    let mut regs = p.shared.regs.lock().expect("worker registry poisoned");
    while regs.len() < expected {
        regs = p.shared.reg_cv.wait(regs).expect("worker registry poisoned");
    }
    Ok(expected + 1)
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    IS_WORKER.with(|w| w.set(true));
    let slot = Arc::new(WorkerSlot {
        index,
        seen: AtomicUsize::new(0),
        parked: AtomicBool::new(false),
        thread: std::thread::current(),
    });
    {
        // Register under the dispatch lock: any dispatch that can name an
        // epoch this worker will observe has therefore already counted it.
        let _dispatch = shared.dispatch.lock().expect("dispatch lock poisoned");
        let mut regs = shared.regs.lock().expect("worker registry poisoned");
        slot.seen.store(shared.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        regs.push(Arc::clone(&slot));
        regs.sort_by_key(|s| s.index);
        shared.reg_cv.notify_all();
    }
    let mut idle: u32 = 0;
    loop {
        let epoch = shared.epoch.load(Ordering::SeqCst);
        let seen = slot.seen.load(Ordering::Relaxed);
        if epoch == seen {
            idle += 1;
            if idle < WORKER_SPINS {
                std::hint::spin_loop();
            } else if idle < WORKER_SPINS + WORKER_YIELDS {
                std::thread::yield_now();
            } else {
                slot.parked.store(true, Ordering::SeqCst);
                // Re-check after raising the flag (SeqCst on both sides
                // closes the set-flag/miss-store window), then sleep.
                if shared.epoch.load(Ordering::SeqCst) == seen {
                    std::thread::park();
                }
                slot.parked.store(false, Ordering::SeqCst);
                idle = 0;
            }
            continue;
        }
        idle = 0;
        slot.seen.store(epoch, Ordering::SeqCst);
        if slot.index < epoch & SHARD_MASK {
            let job = unsafe { (*shared.job.get()).expect("participant saw empty job slot") };
            let result =
                catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, slot.index) }));
            if let Err(payload) = result {
                shared.panic.lock().expect("panic slot poisoned").get_or_insert(payload);
            }
            shared.done.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Runs `f(0), f(1), …, f(shards - 1)`, shard 0 on the calling thread and
/// shard `i` on pinned worker `i`, returning when every shard is done.
///
/// Falls back to running the shards inline, in order, whenever cross-thread
/// dispatch cannot pay or is unavailable (see the module docs); either way
/// each shard index runs exactly once. Panics from any shard are re-raised
/// here after all shards finish.
pub fn run_sharded<F: Fn(usize) + Sync>(shards: usize, f: F) {
    assert!(shards <= SHARD_MASK, "shard count {shards} exceeds dispatch capacity");
    let inline = shards <= 1
        || physical_parallelism() <= 1
        || IS_WORKER.with(|w| w.get())
        || !matches!(ensure_pool(shards), Ok(n) if n >= shards);
    if inline {
        for s in 0..shards {
            f(s);
        }
        return;
    }
    let shared = &pool().shared;
    let Ok(guard) = shared.dispatch.try_lock() else {
        // Another thread (or an outer frame on this one) is mid-dispatch:
        // run inline rather than queue — determinism needs order, not
        // threads.
        for s in 0..shards {
            f(s);
        }
        return;
    };
    let participants = shards - 1;
    unsafe {
        *shared.job.get() = Some(Job { data: &f as *const F as *const (), call: call_shard::<F> });
    }
    shared.done.store(0, Ordering::SeqCst);
    let generation = (shared.epoch.load(Ordering::SeqCst) >> SHARD_BITS) + 1;
    shared.epoch.store((generation << SHARD_BITS) | shards, Ordering::SeqCst);
    {
        let regs = shared.regs.lock().expect("worker registry poisoned");
        for slot in regs.iter().filter(|s| s.index < shards) {
            if slot.parked.load(Ordering::SeqCst) {
                slot.thread.unpark();
            }
        }
    }
    let own = catch_unwind(AssertUnwindSafe(|| f(0)));
    let mut waits: u32 = 0;
    while shared.done.load(Ordering::SeqCst) < participants {
        waits += 1;
        if waits < COORD_SPINS {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    unsafe {
        *shared.job.get() = None;
    }
    let worker_panic = shared.panic.lock().expect("panic slot poisoned").take();
    drop(guard);
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Contiguous index ranges that partition `len` items into `shards` chunks
/// in order: the first `len % shards` chunks get one extra item. This is
/// the canonical server→shard partition rule — `cluster::sim` applies it
/// to ID-sorted server lists, so membership is a pure function of the
/// fleet and the thread count.
pub fn chunk_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let end = start + base + usize::from(s < extra);
        out.push(start..end);
        start = end;
    }
    out
}

/// A raw pointer that may cross threads; the wrapping code is responsible
/// for handing each thread a disjoint region.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Field access would make closures capture the bare `*mut T` (not
    /// `Sync`) under edition-2021 disjoint capture; going through a method
    /// captures the whole wrapper instead.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Maps `items` through `f`, returning results in input order.
///
/// Runs sequentially when `threads <= 1` or there is at most one item;
/// otherwise each of `min(threads, len)` shards fills a contiguous chunk
/// of the output. Either way the result order (and therefore any
/// order-dependent reduction the caller performs) is identical.
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let shards = threads.min(items.len());
    let ranges = chunk_ranges(items.len(), shards);
    let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(items.len());
    // SAFETY: MaybeUninit needs no initialization; every slot is written
    // exactly once below before the vec is transmuted to Vec<R>.
    unsafe { out.set_len(items.len()) };
    let base = SendPtr(out.as_mut_ptr());
    run_sharded(shards, |s| {
        for i in ranges[s].clone() {
            // SAFETY: shard ranges are disjoint, so slot `i` is touched by
            // exactly one thread.
            unsafe { (*base.ptr().add(i)).write(f(&items[i])) };
        }
    });
    // SAFETY: all `len` slots were initialized (run_sharded ran every
    // shard; a panic would have propagated above, leaking — not
    // double-freeing — the written elements). Layout of MaybeUninit<R>
    // equals R.
    unsafe {
        let ptr = out.as_mut_ptr() as *mut R;
        let len = out.len();
        let cap = out.capacity();
        std::mem::forget(out);
        Vec::from_raw_parts(ptr, len, cap)
    }
}

/// Applies `f` to every element of `items` in place.
///
/// Same sequential-degradation and chunking rules as [`map`]; each element
/// gets a unique `&mut`, so `f` must not depend on sibling elements.
pub fn for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let shards = threads.min(items.len());
    let ranges = chunk_ranges(items.len(), shards);
    let base = SendPtr(items.as_mut_ptr());
    run_sharded(shards, |s| {
        for i in ranges[s].clone() {
            // SAFETY: shard ranges are disjoint, so element `i` has
            // exactly one &mut at a time.
            f(unsafe { &mut *base.ptr().add(i) });
        }
    });
}

/// Hands shard `s` exclusive access to `scratch[s]` — the primitive behind
/// worker-resident state. `scratch.len()` *is* the shard count; shard `s`
/// always runs on pinned worker `s`, so whatever the caller keeps in
/// `scratch[s]` (buffers, solver outputs, metrics staging) stays hot in
/// that worker's cache across calls.
pub fn for_each_shard<S, F>(scratch: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let shards = scratch.len();
    if shards <= 1 {
        if let Some(first) = scratch.first_mut() {
            f(0, first);
        }
        return;
    }
    let base = SendPtr(scratch.as_mut_ptr());
    run_sharded(shards, |s| {
        // SAFETY: each shard index occurs once, so scratch[s] has exactly
        // one &mut at a time.
        f(s, unsafe { &mut *base.ptr().add(s) });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that touch the global pool. `run_sharded`
    /// takes the dispatch lock with `try_lock` and runs inline when it
    /// loses, so pool tests running side by side (the harness default)
    /// turn each other's dispatches into inline runs — which the
    /// thread-crossing test cannot tell from a broken dispatcher.
    fn pool_test() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        // A failed pool test must not fail the rest through poisoning.
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Forces cross-thread dispatch for the duration of a test (the suite
    /// may run on a single-CPU host, where dispatch is otherwise skipped).
    /// Hold the returned guard to the end of the test: see [`pool_test`].
    fn force_dispatch() -> std::sync::MutexGuard<'static, ()> {
        let serial = pool_test();
        set_physical_override(Some(8));
        serial
    }

    #[test]
    fn map_matches_sequential_at_any_thread_count() {
        let _serial = force_dispatch();
        let items: Vec<u64> = (0..2_000).collect();
        let seq = map(1, &items, |x| x * 3 + 1);
        for threads in [2, 4, 8] {
            let par = map(threads, &items, |x| x * 3 + 1);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn for_each_mut_matches_sequential() {
        let _serial = force_dispatch();
        let mut seq: Vec<u64> = (0..1_000).collect();
        let mut par: Vec<u64> = (0..1_000).collect();
        for_each_mut(1, &mut seq, |x| *x = x.wrapping_mul(7) ^ 13);
        for_each_mut(4, &mut par, |x| *x = x.wrapping_mul(7) ^ 13);
        assert_eq!(seq, par);
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(8, &empty, |x| *x).is_empty());
        assert_eq!(map(8, &[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn met_threads_is_at_least_one() {
        assert!(met_threads() >= 1);
    }

    #[test]
    fn ensure_pool_grows_on_larger_request() {
        // The re-entrancy contract: a later, larger request actually grows
        // the pool (the old build_global-style call silently kept the
        // first size), and the returned capacity reflects it.
        let _serial = pool_test();
        let first = ensure_pool(2).expect("grow to 2");
        assert!(first >= 2, "pool should serve at least 2 threads, got {first}");
        let second = ensure_pool(6).expect("grow to 6");
        assert!(second >= 6, "pool should have grown to 6 threads, got {second}");
        assert!(pool_size() >= 6);
        // Shrinking requests keep the larger pool.
        let third = ensure_pool(2).expect("no-op shrink");
        assert_eq!(third, second.max(pool_size()));
    }

    #[test]
    fn run_sharded_runs_every_shard_exactly_once() {
        let _serial = force_dispatch();
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..7).map(|_| AtomicU32::new(0)).collect();
        run_sharded(7, |s| {
            counts[s].fetch_add(1, Ordering::SeqCst);
        });
        for (s, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "shard {s}");
        }
    }

    #[test]
    fn run_sharded_crosses_threads_when_forced() {
        let _serial = force_dispatch();
        ensure_pool(4).expect("pool of 4");
        // A worker registers under the dispatch lock, and `ensure_pool`
        // can return a moment before the last one lets go of it. Wait
        // that out; with the pool otherwise to itself (`_serial`) nothing
        // can hold the lock afterwards, so the very first call must
        // dispatch.
        drop(pool().shared.dispatch.lock().expect("dispatch lock poisoned"));
        let ids: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        run_sharded(4, |_| {
            ids.lock().unwrap().push(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 4);
        assert!(
            ids.iter().any(|id| *id != ids[0]),
            "an uncontended dispatch fell back to inline execution"
        );
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let _serial = force_dispatch();
        let items: Vec<u64> = (0..64).collect();
        let out = map(4, &items, |x| {
            let inner: Vec<u64> = (0..8).collect();
            map(4, &inner, |y| y + x).iter().sum::<u64>()
        });
        let expect: Vec<u64> = items.iter().map(|x| (0..8).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn shard_panics_propagate_to_the_caller() {
        let _serial = force_dispatch();
        let items: Vec<u32> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(4, &items, |x| {
                if *x == 63 {
                    panic!("boom on 63");
                }
                *x
            })
        }));
        assert!(result.is_err(), "panic in a shard must reach the caller");
        // The pool must still be usable afterwards.
        let ok = map(4, &items, |x| x + 1);
        assert_eq!(ok[99], 100);
    }

    #[test]
    fn for_each_shard_hands_out_disjoint_scratch() {
        let _serial = force_dispatch();
        let mut scratch: Vec<Vec<usize>> = vec![Vec::new(); 5];
        for round in 0..3 {
            for_each_shard(&mut scratch, |s, sc| sc.push(s * 10 + round));
        }
        for (s, sc) in scratch.iter().enumerate() {
            assert_eq!(sc, &vec![s * 10, s * 10 + 1, s * 10 + 2]);
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 5, 53, 100] {
            for shards in [1usize, 2, 3, 4, 7, 16] {
                let ranges = chunk_ranges(len, shards);
                assert_eq!(ranges.len(), shards);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len, "len={len} shards={shards}");
                // Balanced: sizes differ by at most one, larger first.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(sizes.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            }
        }
    }
}
