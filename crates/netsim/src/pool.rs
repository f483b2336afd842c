//! Persistent worker pool for [`EngineMode::Parallel`](crate::EngineMode).
//!
//! The old parallel mode spawned and joined fresh `thread::scope` workers
//! twice per tick; at protocol tick rates the dispatch tax dwarfed the
//! work. This pool is built once at engine construction, parks between
//! jobs, and is coordinated entirely through atomics — a seqlock-style
//! epoch handshake, never a Mutex/Condvar (the `no-lock-in-tick-path`
//! lint enforces that), so a steady-state dispatch allocates nothing and
//! takes no lock.
//!
//! Protocol per job (one job = one tick phase over all shards):
//!
//! 1. The main thread publishes the phase function, a context pointer,
//!    and the shard count, resets the claim/done/exit counters, bumps
//!    `seq` (release), and unparks every worker. The release bump makes
//!    the published fields visible to any thread that acquires `seq`.
//! 2. Every thread — workers *and* the main thread — claims shard
//!    indices with a `fetch_add` on `next` and runs the phase on each
//!    claimed shard, bumping `done` per completed shard.
//! 3. The main thread waits until `done` reaches the shard count **and**
//!    every worker has bumped `exited` (left its claim loop). The second
//!    condition is what makes the claim counter reusable: without it a
//!    straggler's final empty `fetch_add` could race the next job's
//!    reset and steal a shard under the previous phase function.
//!
//! Workers spin briefly, then yield, then `thread::park`. The main
//! thread always unparks after publishing; the park token makes the
//! check-then-park race benign (a worker that parks just after the
//! unpark consumes the token and returns immediately). A phase panic is
//! caught in the claiming thread so the barrier still completes, and
//! rethrown on the main thread after the job.
//!
//! The phase function is type-erased (`unsafe fn(*const (), usize)`)
//! because the engine is generic over its automaton type while the pool
//! is not — and because the context points at the engine's stack frame,
//! it is republished on every dispatch and must never outlive the call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A type-erased tick phase: called once per shard index with the
/// engine's `ParCtx` behind the pointer.
///
/// # Safety
/// The pointer must reference a live `ParCtx` for the engine that
/// published the job, and the phase must only touch state owned by (or
/// provably disjoint per) the given shard index.
pub(crate) type PhaseFn = unsafe fn(*const (), usize);

/// Spins before the first yield while waiting for work or completion.
const SPINS_BEFORE_YIELD: u32 = 64;
/// Yields before a waiting worker parks. Kept short: on a loaded or
/// single-core host the scheduler, not the spin, is what makes progress.
const YIELDS_BEFORE_PARK: u32 = 16;

/// Atomics shared between the main thread and the workers.
struct PoolShared {
    /// Job epoch; bumped (release) once per published job.
    seq: AtomicU64,
    /// Phase function of the current job (type-erased).
    job_fn: AtomicPtr<()>,
    /// `ParCtx` pointer of the current job.
    job_ctx: AtomicPtr<()>,
    /// Shard count of the current job.
    shards: AtomicUsize,
    /// Claim counter: `fetch_add` hands out shard indices.
    next: AtomicUsize,
    /// Completed-shard counter.
    done: AtomicUsize,
    /// Workers that have left the current job's claim loop.
    exited: AtomicUsize,
    /// A phase panicked in some claiming thread.
    panicked: AtomicBool,
    /// Tells parked workers to exit (engine drop).
    shutdown: AtomicBool,
}

/// Pre-spawned tick-phase workers. Built once per parallel engine
/// (worker count = min(shards, cores) − 1: the main thread is the final
/// worker, and every thread claims shards until none are left), parked
/// between jobs, shut down and joined on drop.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` parked phase workers.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            seq: AtomicU64::new(0),
            job_fn: AtomicPtr::new(std::ptr::null_mut()),
            job_ctx: AtomicPtr::new(std::ptr::null_mut()),
            shards: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gtd-shard-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .unwrap_or_else(|e| panic!("failed to spawn pool worker {i}: {e}"))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Worker threads owned by the pool (excludes the main thread).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `phase` once per shard in `0..shards`, fanned over the pool
    /// plus the calling thread, and return when every shard completed
    /// and every worker is idle again. Allocation-free.
    ///
    /// # Safety
    /// `ctx` must satisfy the [`PhaseFn`] contract for `phase` and stay
    /// valid until this call returns.
    pub(crate) unsafe fn dispatch(&self, phase: PhaseFn, ctx: *const (), shards: usize) {
        let sh = &*self.shared;
        sh.job_fn.store(phase as *mut (), Release);
        sh.job_ctx.store(ctx.cast_mut(), Release);
        sh.shards.store(shards, Release);
        sh.next.store(0, Release);
        sh.done.store(0, Release);
        sh.exited.store(0, Release);
        sh.seq.fetch_add(1, AcqRel);
        for h in &self.handles {
            h.thread().unpark();
        }
        run_claims(sh, phase, ctx, shards);
        let workers = self.handles.len();
        let mut spins = 0u32;
        while sh.done.load(Acquire) < shards || sh.exited.load(Acquire) < workers {
            spins += 1;
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if sh.panicked.swap(false, AcqRel) {
            panic!("a parallel tick phase panicked in the worker pool");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked outside a phase (impossible today)
            // already poisoned nothing; ignore its join result.
            let _ = h.join();
        }
    }
}

/// Claim shard indices until the job is exhausted, running the phase on
/// each. Shared by workers and the dispatching main thread. A panicking
/// phase is recorded and swallowed so the barrier still completes.
fn run_claims(sh: &PoolShared, phase: PhaseFn, ctx: *const (), shards: usize) {
    loop {
        let i = sh.next.fetch_add(1, AcqRel);
        if i >= shards {
            return;
        }
        if catch_unwind(AssertUnwindSafe(|| unsafe { phase(ctx, i) })).is_err() {
            sh.panicked.store(true, Release);
        }
        sh.done.fetch_add(1, AcqRel);
    }
}

/// A pool worker: wait for the next epoch (spin → yield → park), run the
/// published job's claim loop, check out via `exited`, repeat until
/// shutdown.
fn worker_loop(sh: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        let seq = loop {
            let s = sh.seq.load(Acquire);
            if s != seen {
                break s;
            }
            if sh.shutdown.load(Acquire) {
                return;
            }
            spins += 1;
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else if spins < SPINS_BEFORE_YIELD + YIELDS_BEFORE_PARK {
                std::thread::yield_now();
            } else {
                std::thread::park();
            }
        };
        seen = seq;
        let raw = sh.job_fn.load(Acquire);
        let ctx = sh.job_ctx.load(Acquire).cast_const();
        let shards = sh.shards.load(Acquire);
        // The erased pointer was produced from a PhaseFn in dispatch();
        // round-tripping it through *mut () preserves the value.
        let phase = unsafe { std::mem::transmute::<*mut (), PhaseFn>(raw) };
        run_claims(sh, phase, ctx, shards);
        sh.exited.fetch_add(1, AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    /// A phase that adds `shard + 1` into a per-shard cell.
    unsafe fn bump(ctx: *const (), s: usize) {
        let cells = &*ctx.cast::<Vec<AtomicUsize>>();
        cells[s].fetch_add(s + 1, Relaxed);
    }

    #[test]
    fn dispatch_runs_every_shard_exactly_once() {
        let pool = WorkerPool::new(3);
        let cells: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            unsafe { pool.dispatch(bump, (&cells as *const Vec<AtomicUsize>).cast(), 7) };
        }
        for (s, c) in cells.iter().enumerate() {
            assert_eq!(c.load(Relaxed), (s + 1) * 100, "shard {s}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let cells: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        unsafe { pool.dispatch(bump, (&cells as *const Vec<AtomicUsize>).cast(), 4) };
        assert_eq!(cells[3].load(Relaxed), 4);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        drop(pool); // must not hang
    }

    #[test]
    fn phase_panic_is_rethrown_on_the_dispatching_thread() {
        unsafe fn boom(_: *const (), s: usize) {
            if s == 1 {
                panic!("shard 1 exploded");
            }
        }
        let pool = WorkerPool::new(1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            pool.dispatch(boom, std::ptr::null(), 3);
        }));
        assert!(err.is_err());
        // the pool is still usable after a panic
        let cells: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        unsafe { pool.dispatch(bump, (&cells as *const Vec<AtomicUsize>).cast(), 2) };
        assert_eq!(cells[1].load(Relaxed), 2);
    }
}
