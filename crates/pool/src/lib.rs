//! # pool — an in-tree work-stealing thread pool
//!
//! The suite pipeline used to spawn one OS thread per program and,
//! inside each, one more per input — 14+ threads of oversubscription
//! on a small runner, and a straggler program's inputs still ran on a
//! single core. This crate replaces all of that with one process-wide
//! pool of `available_parallelism` workers executing *(program,
//! input)*-granularity tasks: per-worker LIFO [Chase–Lev
//! deques](deque) with lock-free stealing, a shared overflow/injector
//! queue, and a [`Pool::scope`] API in the style of
//! `std::thread::scope` / rayon — tasks may borrow from the caller's
//! stack and may themselves spawn further tasks into the same scope
//! (compile tasks fan out profile tasks).
//!
//! Everything is vendored — no external dependencies, no network.
//!
//! ## Determinism contract
//!
//! The pool schedules nondeterministically; callers that need
//! deterministic output write results into pre-sized slots
//! (`results[i]`) owned by the spawning stack frame, so merged output
//! is slot-indexed, never completion-ordered. `bench::load_suite`
//! produces byte-identical results for pool sizes 1, 2, and N this
//! way (asserted by `crates/bench/tests/determinism.rs`).
//!
//! ## Observability
//!
//! The pool keeps always-on internal [`PoolStats`] (atomics) and
//! mirrors them into `obs` counters when telemetry is enabled:
//! `pool.tasks` (executed), `pool.steals` (successful steals),
//! `pool.injected` (tasks routed through the shared queue), and
//! `pool.idle_ns` (total worker park time).
//!
//! ```
//! let pool = pool::Pool::new(4);
//! let mut squares = vec![0u64; 8];
//! pool.scope(|s| {
//!     for (i, slot) in squares.iter_mut().enumerate() {
//!         s.spawn(move |_| *slot = (i as u64) * (i as u64));
//!     }
//! });
//! assert_eq!(squares[7], 49);
//! ```

#![warn(missing_docs)]

mod deque;

use deque::Deque;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The type-erased unit of work. Boxed twice so deque slots hold a
/// thin pointer.
struct Task(Box<dyn FnOnce() + Send>);

/// A raw task pointer that may cross threads inside the injector
/// queue. Ownership is linear: whoever dequeues it runs (and frees)
/// it exactly once.
struct TaskPtr(*mut Task);
// SAFETY: the boxed closure inside is `Send`; the raw pointer is just
// its thin address, moved — never aliased — between threads.
unsafe impl Send for TaskPtr {}

/// Always-on pool telemetry, readable via [`Pool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks run; exact once the scope that spawned them returns.
    pub tasks: u64,
    /// Successful steals from another worker's deque.
    pub steals: u64,
    /// Tasks that went through the shared injector queue (spawned
    /// from outside the pool, or overflowed a full deque).
    pub injected: u64,
    /// Total nanoseconds workers spent parked waiting for work.
    pub idle_ns: u64,
}

#[derive(Default)]
struct Stats {
    tasks: AtomicU64,
    steals: AtomicU64,
    injected: AtomicU64,
    idle_ns: AtomicU64,
}

struct Shared {
    deques: Vec<Deque<Task>>,
    injector: Mutex<VecDeque<TaskPtr>>,
    /// Approximate count of queued-but-unclaimed tasks; only gates
    /// worker parking (a stale read costs at most one 1 ms park).
    pending_hint: AtomicUsize,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    stats: Stats,
}

thread_local! {
    /// `(identity of the owning pool's Shared, worker index)` for pool
    /// worker threads; `None` identity for everyone else.
    static CURRENT_WORKER: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn shared_id(s: &Shared) -> usize {
    std::ptr::from_ref(s) as usize
}

impl Shared {
    /// This thread's worker index in `self`, if it is one of ours.
    fn local_index(&self) -> Option<usize> {
        let (id, idx) = CURRENT_WORKER.get();
        (id == shared_id(self)).then_some(idx)
    }

    fn push(&self, task: Box<dyn FnOnce() + Send>) {
        let ptr = Box::into_raw(Box::new(Task(task)));
        self.pending_hint.fetch_add(1, Ordering::SeqCst);
        let injected = match self.local_index() {
            Some(idx) => match self.deques[idx].push(ptr) {
                Ok(()) => false,
                Err(overflow) => {
                    self.injector.lock().unwrap().push_back(TaskPtr(overflow));
                    true
                }
            },
            None => {
                self.injector.lock().unwrap().push_back(TaskPtr(ptr));
                true
            }
        };
        if injected {
            self.stats.injected.fetch_add(1, Ordering::Relaxed);
            obs::counter_add("pool.injected", 1);
        }
        self.wakeup.notify_one();
    }

    /// Finds one task: local deque (LIFO), then the injector (FIFO),
    /// then stealing from the other workers round-robin. `local` is
    /// this thread's worker index, if any; `rot` rotates the steal
    /// starting victim so thieves spread out.
    fn find_task(&self, local: Option<usize>, rot: &mut usize) -> Option<*mut Task> {
        if let Some(idx) = local {
            if let Some(ptr) = self.deques[idx].pop() {
                self.pending_hint.fetch_sub(1, Ordering::SeqCst);
                return Some(ptr);
            }
        }
        if let Some(TaskPtr(ptr)) = self.injector.lock().unwrap().pop_front() {
            self.pending_hint.fetch_sub(1, Ordering::SeqCst);
            return Some(ptr);
        }
        let n = self.deques.len();
        for k in 0..n {
            let victim = (*rot + k) % n;
            if Some(victim) == local {
                continue;
            }
            if let Some(ptr) = self.deques[victim].steal() {
                *rot = victim;
                self.pending_hint.fetch_sub(1, Ordering::SeqCst);
                self.stats.steals.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("pool.steals", 1);
                return Some(ptr);
            }
        }
        None
    }

    /// Runs a claimed task pointer. Panics cannot escape: every task
    /// is a scope wrapper that catches its own unwind.
    fn run(&self, ptr: *mut Task) {
        // SAFETY: `ptr` came from `Box::into_raw` in `push` and was
        // claimed exactly once by `find_task`/`drain`.
        let task = unsafe { Box::from_raw(ptr) };
        // Count before running: the task's last act is to release its
        // scope, so a count taken afterwards could land after the scope
        // has returned and its caller has read the stats.
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("pool.tasks", 1);
        (task.0)();
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.set((shared_id(&shared), index));
    let mut rot = index + 1;
    loop {
        if let Some(ptr) = shared.find_task(Some(index), &mut rot) {
            shared.run(ptr);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Park. The 1 ms timeout bounds the cost of any lost-wakeup
        // race with `push`'s lock-free notify.
        let parked = Instant::now();
        let guard = shared.sleep_lock.lock().unwrap();
        if shared.pending_hint.load(Ordering::SeqCst) == 0
            && !shared.shutdown.load(Ordering::Acquire)
        {
            let _unused = shared
                .wakeup
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
        let ns = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.stats.idle_ns.fetch_add(ns, Ordering::Relaxed);
        obs::counter_add("pool.idle_ns", ns);
    }
}

/// A work-stealing thread pool. See the crate docs for the design;
/// construct per-test pools with [`Pool::new`] or share the
/// process-wide [`global`] pool.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            deques: (0..threads).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            pending_hint: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// A snapshot of the pool's lifetime counters.
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared.stats;
        PoolStats {
            tasks: s.tasks.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
            injected: s.injected.load(Ordering::Relaxed),
            idle_ns: s.idle_ns.load(Ordering::Relaxed),
        }
    }

    /// Claims and runs one queued task, if any — local deque first,
    /// then the injector, then stealing. Returns whether a task ran.
    ///
    /// This is the building block for *producer helping*: a thread
    /// blocked on backpressure (see [`Gate`]) executes queued work
    /// instead of sleeping, so a saturated single-worker pool can
    /// never deadlock against its own producer.
    pub fn help_one(&self) -> bool {
        let local = self.shared.local_index();
        let mut rot = local.unwrap_or(0) + 1;
        match self.shared.find_task(local, &mut rot) {
            Some(ptr) => {
                self.shared.run(ptr);
                true
            }
            None => false,
        }
    }

    /// Runs `f` with a [`Scope`] on which tasks can be spawned, then
    /// blocks until every task spawned into the scope (transitively —
    /// tasks may spawn more tasks) has finished. Tasks may borrow
    /// anything that outlives the `scope` call, exactly as with
    /// `std::thread::scope`.
    ///
    /// While waiting, the calling thread *helps*: it executes pool
    /// tasks instead of blocking, so a nested `scope` on a worker
    /// thread cannot deadlock the pool.
    ///
    /// # Panics
    ///
    /// If `f` or any task panics, the panic is resumed here — after
    /// all tasks in the scope have completed (they may borrow the
    /// caller's frame, so unwinding early would be unsound).
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState::default()),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait_done();
        match result {
            Ok(r) => {
                if let Some(payload) = scope.state.panic.lock().unwrap().take() {
                    resume_unwind(payload);
                }
                r
            }
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep_lock.lock().unwrap();
            self.shared.wakeup.notify_all();
        }
        for w in self.workers.drain(..) {
            let _joined = w.join();
        }
        // Drop any tasks that never ran (only possible if a scope
        // itself leaked, which the API prevents; belt and suspenders).
        // If some Shared handle still exists, leaking the queued
        // tasks is the safe choice.
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            for TaskPtr(ptr) in shared.injector.get_mut().unwrap().drain(..) {
                // SAFETY: unclaimed `Box::into_raw` pointer, dropped once.
                drop(unsafe { Box::from_raw(ptr) });
            }
            for d in &mut shared.deques {
                for ptr in d.drain() {
                    // SAFETY: as above.
                    drop(unsafe { Box::from_raw(ptr) });
                }
            }
        }
    }
}

#[derive(Default)]
struct ScopeState {
    /// Tasks spawned into the scope and not yet finished.
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// First task panic, resumed when the scope closes.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_lock.lock().unwrap();
            self.done.notify_all();
        }
    }
}

/// Handle for spawning tasks into a [`Pool::scope`] region. Spawned
/// closures receive `&Scope` back, so a task can fan out further
/// tasks into the same scope.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant in `'scope`, as in `std::thread::scope`.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` onto the pool. Spawns from a worker thread go to
    /// that worker's own deque (LIFO, stealable); spawns from any
    /// other thread go through the shared injector queue.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(&self.shared);
        let state = Arc::clone(&self.state);
        let wrapper: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope: Scope<'scope> = Scope {
                shared,
                state: Arc::clone(&state),
                _marker: PhantomData,
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&scope))) {
                let mut slot = state.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            state.finish_one();
        });
        // SAFETY: only the lifetime is erased. `Pool::scope` does not
        // return (or unwind) before `wait_done` has observed every
        // spawned task finished, so the closure — and everything it
        // borrows for `'scope` — is never used after `'scope` ends.
        let wrapper: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(
                wrapper,
            )
        };
        self.shared.push(wrapper);
    }

    /// Blocks until `pending` hits zero, executing pool tasks while
    /// waiting instead of sleeping whenever any are available.
    fn wait_done(&self) {
        let local = self.shared.local_index();
        let mut rot = local.unwrap_or(0) + 1;
        loop {
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(ptr) = self.shared.find_task(local, &mut rot) {
                self.shared.run(ptr);
                continue;
            }
            let guard = self.state.done_lock.lock().unwrap();
            if self.state.pending.load(Ordering::SeqCst) != 0 {
                // Short timeout: the tasks we are waiting on may be
                // running on workers that will spawn more work we
                // could help with.
                let _unused = self
                    .state
                    .done
                    .wait_timeout(guard, Duration::from_micros(200))
                    .unwrap();
            }
        }
    }
}

/// A counting backpressure gate: at most `limit` permits outstanding.
///
/// The corpus engine acquires a permit per generated program and
/// releases it when the program's results are drained, so generation
/// can never outrun execution by more than the window. While the gate
/// is full, [`Gate::acquire`] *helps* the pool (executes queued
/// tasks) rather than sleeping — on a one-worker pool the producer
/// thread becomes the consumer, and throughput degrades gracefully
/// instead of deadlocking.
pub struct Gate {
    limit: usize,
    held: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    /// A gate admitting at most `limit` outstanding permits (clamped
    /// to at least 1).
    pub fn new(limit: usize) -> Gate {
        Gate {
            limit: limit.max(1),
            held: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Maximum outstanding permits.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Permits currently held.
    pub fn in_flight(&self) -> usize {
        *self.held.lock().unwrap()
    }

    /// Blocks until a permit is free, executing tasks from `pool`
    /// while waiting.
    pub fn acquire(&self, pool: &Pool) {
        loop {
            {
                let mut held = self.held.lock().unwrap();
                if *held < self.limit {
                    *held += 1;
                    return;
                }
            }
            if !pool.help_one() {
                // Nothing runnable: the permits we are waiting on are
                // executing on workers. Park briefly; `release`
                // notifies.
                let held = self.held.lock().unwrap();
                if *held >= self.limit {
                    let _unused = self
                        .freed
                        .wait_timeout(held, Duration::from_micros(200))
                        .unwrap();
                }
            }
        }
    }

    /// Returns one permit.
    ///
    /// # Panics
    ///
    /// If called without a matching [`Gate::acquire`].
    pub fn release(&self) {
        let mut held = self.held.lock().unwrap();
        assert!(*held > 0, "Gate::release without a held permit");
        *held -= 1;
        drop(held);
        self.freed.notify_one();
    }
}

/// The process-wide pool, sized to `available_parallelism` (override
/// with the `SFE_POOL_THREADS` environment variable, clamped to
/// 1..=256). Created on first use and never torn down.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// Worker count for the global pool: `SFE_POOL_THREADS` if set and
/// parseable, else `available_parallelism`, else 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SFE_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 256);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_runs_every_task_and_borrows_slots() {
        let pool = Pool::new(4);
        let mut out = vec![0u64; 100];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move |_| *slot = i as u64 + 1);
            }
        });
        assert_eq!(out.iter().sum::<u64>(), 5050);
        assert_eq!(pool.stats().tasks, 100);
    }

    #[test]
    fn tasks_fan_out_nested_tasks() {
        // The load_suite shape: 8 "compile" tasks each spawn 8
        // "profile" tasks into the same scope.
        let pool = Pool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|s| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..8 {
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 + 64);
    }

    #[test]
    fn pool_size_one_completes_fanout() {
        let pool = Pool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|s| {
                    for _ in 0..4 {
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scope_returns_value_and_sequences_scopes() {
        // Consecutive scopes on one pool see each other's effects:
        // every scope's tasks complete before the call returns.
        let pool = Pool::new(2);
        let mut acc = 0u64;
        for round in 1..=10u64 {
            let before = acc;
            let mut slot = 0u64;
            let ret = pool.scope(|s| {
                s.spawn(|_| slot = round);
                "done"
            });
            assert_eq!(ret, "done");
            acc = before + slot;
        }
        assert_eq!(acc, 55);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = Pool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    let finished = Arc::clone(&finished);
                    s.spawn(move |_| {
                        if i == 5 {
                            panic!("boom");
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must surface");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            15,
            "non-panicking tasks all ran to completion first"
        );
    }

    #[test]
    fn nested_pool_scope_on_worker_thread_does_not_deadlock() {
        // A task opening a whole new Pool::scope on the (only) worker
        // thread: wait_done must help-execute instead of blocking.
        let pool = Pool::new(1);
        let done = AtomicU64::new(0);
        let pool_ref = &pool;
        let done_ref = &done;
        pool.scope(|s| {
            s.spawn(move |_| {
                pool_ref.scope(|inner| {
                    inner.spawn(move |_| {
                        done_ref.fetch_add(1, Ordering::Relaxed);
                    });
                });
                done_ref.fetch_add(10, Ordering::Relaxed);
            });
        });
        assert_eq!(done.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn stress_many_small_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..5_000 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5_000);
        let stats = pool.stats();
        assert_eq!(stats.tasks, 5_000);
        // Spawned from a non-worker thread: everything was injected
        // or stolen; both counters are advisory but tasks is exact.
        assert!(stats.injected > 0);
    }

    #[test]
    fn gate_bounds_in_flight_and_never_deadlocks() {
        // One worker + a producer acquiring before each spawn: the
        // producer must help-execute once the window fills.
        for workers in [1, 3] {
            let pool = Pool::new(workers);
            let gate = Gate::new(3);
            let current = AtomicU64::new(0);
            let peak = AtomicU64::new(0);
            let ran = AtomicU64::new(0);
            pool.scope(|s| {
                for _ in 0..100 {
                    gate.acquire(&pool);
                    let (current, peak, ran, gate) = (&current, &peak, &ran, &gate);
                    s.spawn(move |_| {
                        let c = current.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(c, Ordering::SeqCst);
                        ran.fetch_add(1, Ordering::SeqCst);
                        current.fetch_sub(1, Ordering::SeqCst);
                        gate.release();
                    });
                }
            });
            assert_eq!(ran.load(Ordering::SeqCst), 100);
            assert!(peak.load(Ordering::SeqCst) <= 3, "window exceeded");
            assert_eq!(gate.in_flight(), 0, "all permits returned");
        }
    }

    #[test]
    fn help_one_executes_queued_work_from_the_caller() {
        let pool = Pool::new(1);
        let ran = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let ran = &ran;
                s.spawn(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Help until the queue is visibly drained from here; the
            // worker may race us for tasks, which is the point.
            while pool.help_one() {}
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let g1 = global();
        let g2 = global();
        assert!(std::ptr::eq(g1, g2));
        assert!(g1.workers() >= 1);
    }

    #[test]
    fn dropping_an_idle_pool_joins_cleanly() {
        let pool = Pool::new(3);
        pool.scope(|s| {
            s.spawn(|_| {});
        });
        drop(pool);
    }
}
