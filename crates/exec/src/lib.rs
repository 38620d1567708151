//! An offline-friendly **parallel map** over `std::thread` — no registry
//! dependencies: [`Executor::par_map`] fans a slice out over parked worker
//! threads and returns results **in input order**.
//!
//! It parallelizes the per-path stages of the workload advisor
//! (`oic_core::WorkloadAdvisor`), whose headline invariant is that the
//! parallel plan is **bit-identical** to the sequential one for any thread
//! count (DESIGN.md §5.13). The executor's part of that contract:
//!
//! * `par_map` applies a *pure* function per item and returns the results
//!   indexed exactly like the input — which lane computed an item, and in
//!   which order items finished, is unobservable;
//! * [`Executor::sequential`] (`with_threads(1)`) runs everything inline
//!   on the caller's thread — the same code with the fan-out skipped.
//!
//! The lane count is always chosen in code: [`Executor::with_threads`], or
//! [`Executor::default`] for one lane per available CPU. Ordering-sensitive
//! reductions (merging memo writes, summing floats) stay in the *caller*,
//! which sequences them from the order-stable output.
//!
//! # Scheduling
//!
//! One process-global pool per lane count: `lanes − 1` parked workers and
//! **one batch descriptor**. A batch publishes its lane body, wakes
//! `min(lanes − 1, items − 1)` recruits and runs the body on the caller
//! too; every lane claims item indexes from one atomic cursor, so uneven
//! items cannot idle a lane while another holds a long tail. A pool runs
//! one batch at a time: a batch that finds it **busy runs inline** — a
//! concurrent `par_map` from another thread, or one nested inside an item
//! — which the determinism contract makes unobservable.
//!
//! Waiters **spin, then park**: a worker waiting for a batch to recruit
//! it and a caller waiting for its recruits poll their counter a bounded
//! number of times, yielding between polls, before they sleep on a
//! condvar, so back-to-back batches skip two futex wake-ups each. The
//! counters are stored, and every deciding check is made, under the batch
//! lock, so the lifetime erasure of a batch's body keeps its argument.
//!
//! Each lane catches its own panic, the other lanes keep draining, and the
//! first payload resumes on the caller once every lane has returned — so a
//! failing assertion in a parallel stage surfaces like its sequential
//! counterpart, and the pool keeps working.
//!
//! ```
//! use oic_exec::Executor;
//!
//! let exec = Executor::with_threads(4);
//! let squares = exec.par_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, any thread count
//! assert_eq!(Executor::sequential().par_map(&[1u64, 2], |i, _| i), vec![0, 1]);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Upper bound on configurable lanes — a sanity clamp, so an absurd
/// `with_threads` argument cannot fork-bomb.
const MAX_LANES: usize = 256;

/// Polls a waiter makes before it parks, yielding between polls: 128 took
/// about 35 µs on a 2-CPU Xeon host, longer than the gap between a budget
/// search's back-to-back batches. Yields, not `spin_loop` hints, keep an
/// oversubscribed pool from starving the lanes at work (there, an 8-lane
/// batch of eight 3.6 µs items: 61–71 µs with hints, 30–33 µs with
/// yields, 36–51 µs parking at once).
const SPINS: u32 = 128;

/// Polls `ready` up to [`SPINS`] times. The waiter then re-checks under
/// the lock before it parks, so spinning can only save a wake-up.
fn spin(ready: impl Fn() -> bool) {
    (0..SPINS)
        .take_while(|_| !ready())
        .for_each(|_| thread::yield_now());
}

/// A batch's lane body with its borrow lifetime erased; see [`Pool::run`].
type Task = &'static (dyn Fn() + Sync);

/// Lock, shrugging off poison: lane bodies run outside the locks and catch
/// their own panics, and every update under them is a plain store, so the
/// descriptor is valid whatever thread panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parked workers sharing one batch descriptor. Pools are process-global
/// and never dropped, so workers park for the life of the process instead
/// of being joined. The counters are atomics only so that a waiter can
/// [`spin`] on them: each is stored under the `task` lock.
#[derive(Default)]
struct Pool {
    /// The running batch's lane body; `None` while the pool is free.
    task: Mutex<Option<Task>>,
    /// First panic a recruit caught in the running batch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Recruits the running batch still wants; zeroed when its caller's
    /// lane returns, so a late recruit never starts a finished batch.
    wanted: AtomicUsize,
    /// Recruits currently inside the batch's `task`.
    active: AtomicUsize,
    /// Workers wait here for `wanted > 0`.
    start: Condvar,
    /// The caller waits here for `active == 0`.
    done: Condvar,
}

impl Pool {
    /// The process-global pool of `lanes - 1` workers, spawned on first use.
    fn global(lanes: usize) -> &'static Pool {
        static POOLS: OnceLock<Mutex<HashMap<usize, &'static Pool>>> = OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        lock(pools).entry(lanes).or_insert_with(|| {
            let pool: &'static Pool = Box::leak(Box::default());
            for worker in 1..lanes {
                thread::Builder::new()
                    .name(format!("oic-exec-{lanes}-{worker}"))
                    .spawn(move || pool.work())
                    .expect("spawning a pool worker");
            }
            pool
        })
    }

    fn work(&self) {
        let (wanted, active, start) = (&self.wanted, &self.active, &self.start);
        loop {
            spin(|| wanted.load(Relaxed) > 0);
            let mut task = lock(&self.task);
            while wanted.load(Relaxed) == 0 {
                task = start.wait(task).unwrap_or_else(PoisonError::into_inner);
            }
            wanted.fetch_sub(1, Relaxed);
            active.fetch_add(1, Relaxed);
            let body = task.expect("a batch that wants recruits has a body");
            drop(task);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                lock(&self.panic).get_or_insert(payload);
            }
            let _task = lock(&self.task);
            if active.fetch_sub(1, Relaxed) == 1 {
                self.done.notify_one();
            }
        }
    }

    /// Runs `lane` on the caller and on up to `recruits` parked workers,
    /// returning once every lane that started has returned, with the first
    /// panic any lane raised. A busy pool runs `lane` on the caller alone.
    fn run(&self, recruits: usize, lane: &(dyn Fn() + Sync)) -> Option<Box<dyn Any + Send>> {
        let mut task = lock(&self.task);
        if task.is_some() {
            drop(task);
            return catch_unwind(AssertUnwindSafe(lane)).err();
        }
        // SAFETY: lifetime erasure only. Workers read `task` only under
        // its lock and only while `wanted > 0`, and then count themselves
        // in `active` until they are done calling it. Before this function
        // returns (it cannot unwind before then: the caller's call is in
        // `catch_unwind`, and each wait loop re-checks its count, poisoned
        // or not) it zeroes `wanted`, waits for `active == 0` and clears
        // `task`, all under that lock; the spin before it decides nothing.
        // So no worker can call `lane` after its borrow ends, which is the
        // guarantee `'static` stands in for.
        *task = Some(unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(lane) });
        self.wanted.store(recruits, Relaxed);
        drop(task);
        for _ in 0..recruits {
            self.start.notify_one();
        }
        let own = catch_unwind(AssertUnwindSafe(lane)).err();
        spin(|| self.active.load(Relaxed) == 0);
        let mut task = lock(&self.task);
        self.wanted.store(0, Relaxed);
        while self.active.load(Relaxed) > 0 {
            task = self.done.wait(task).unwrap_or_else(PoisonError::into_inner);
        }
        *task = None;
        own.or(lock(&self.panic).take()) // before the next batch can start
    }
}

/// A cheaply clonable handle selecting how parallel stages run: inline on
/// the caller ([`Executor::sequential`]) or fanned out over a shared pool
/// of parked workers. `threads` counts *lanes* — the caller plus the
/// workers a batch recruits — so `with_threads(8)` uses a 7-worker pool.
#[derive(Clone)]
pub struct Executor {
    lanes: usize,
    pool: Option<&'static Pool>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Executor {{ lanes: {} }}", self.lanes)
    }
}

impl Default for Executor {
    /// One lane per available CPU (one if that cannot be determined).
    fn default() -> Self {
        Executor::with_threads(thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

impl Executor {
    /// Everything inline on the caller's thread — the sequential engine.
    pub fn sequential() -> Self {
        Executor::with_threads(1)
    }

    /// `lanes` compute lanes (clamped to `1..=256`): the caller plus
    /// `lanes - 1` workers from the process-global pool of that size.
    /// `with_threads(1)` is [`Executor::sequential`].
    pub fn with_threads(lanes: usize) -> Self {
        let lanes = lanes.clamp(1, MAX_LANES);
        let pool = (lanes > 1).then(|| Pool::global(lanes));
        Executor { lanes, pool }
    }

    /// Total compute lanes (1 = sequential).
    pub fn threads(&self) -> usize {
        self.lanes
    }

    /// Whether stages fan out to a pool at all.
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**; `f` receives `(index, &item)`. Sequential executors (and
    /// trivial batches) run inline; parallel executors recruit up to
    /// `threads() - 1` pool workers alongside the caller, or run inline
    /// when the pool is busy. For a pure `f` the result is identical for
    /// every thread count — the contract the advisor's bit-identity builds on.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let pool = match self.pool {
            Some(pool) if n > 1 => pool,
            _ => return items.iter().enumerate().map(|(i, t)| f(i, t)).collect(),
        };
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let lane = || loop {
            let i = next.fetch_add(1, Relaxed);
            if i >= n {
                break;
            }
            *lock(&slots[i]) = Some(f(i, &items[i]));
        };
        if let Some(payload) = pool.run((self.lanes - 1).min(n - 1), &lane) {
            resume_unwind(payload);
        }
        // No lane panicked, so the cursor passed `n` and every item ran.
        slots
            .into_iter()
            .map(|slot| lock(&slot).take().expect("every item ran"))
            .collect()
    }

    /// [`Executor::par_map`] over contiguous runs of roughly equal total
    /// `weight`, each claimed as one unit: for many tiny but uneven items
    /// (one per candidate-sharing component), where per-item claiming pays
    /// a round-trip per item and count-based chunks let one heavy chunk
    /// idle every other lane. For a pure `f` the result equals `par_map`'s.
    pub fn par_map_chunked<T, R, F, W>(&self, items: &[T], weight: W, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        W: Fn(&T) -> usize,
    {
        let n = items.len();
        if self.pool.is_none() || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        // Deterministic greedy cuts, a few chunks per lane so the tail
        // self-balances; zero-weight items count as 1.
        let total: usize = items.iter().map(|t| weight(t).max(1)).sum();
        let chunks = (self.lanes * 4).clamp(1, n);
        let share = total.div_ceil(chunks).max(1);
        let (mut ranges, mut lo, mut acc) = (Vec::with_capacity(chunks), 0, 0);
        for (i, t) in items.iter().enumerate() {
            acc += weight(t).max(1);
            if acc >= share || i + 1 == n {
                ranges.push((lo, i + 1));
                (lo, acc) = (i + 1, 0);
            }
        }
        let nested: Vec<Vec<R>> = self.par_map(&ranges, |_, &(lo, hi)| {
            (lo..hi).map(|i| f(i, &items[i])).collect()
        });
        nested.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Runs a 64-item batch whose items each record their thread, then
    /// wait until the caller and some other thread have both run an item
    /// (or 30 s have passed), then return `f(caller)`. On a free pool the
    /// caller's lane and at least one recruit therefore both run items; a
    /// pool that ran the batch inline shows up as a single thread id. Each
    /// test calling this owns its lane count, so no other test can keep
    /// its pool busy.
    fn on_two_lanes<R: Send>(
        exec: &Executor,
        f: impl Fn(ThreadId) -> R + Sync,
    ) -> (Vec<R>, HashSet<ThreadId>) {
        let caller = thread::current().id();
        let seen = Mutex::new(HashSet::new());
        let joined = Condvar::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        let out = exec.par_map(&[(); 64], |_, _| {
            let mut ids = lock(&seen);
            ids.insert(thread::current().id());
            joined.notify_all();
            while ids.len() < 2 || !ids.contains(&caller) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                ids = joined.wait_timeout(ids, left).unwrap().0;
            }
            drop(ids);
            f(caller)
        });
        (out, seen.into_inner().unwrap())
    }

    /// Runs `f` on a thread of its own and fails once 60 s pass without it
    /// returning: a lost wake-up or a miscounted recruit hangs a batch, and
    /// a hung test would hang the whole suite. Every test that runs a batch
    /// on a pool goes through it.
    fn within_a_minute(f: impl FnOnce() + Send + 'static) {
        let (finished, watchdog) = mpsc::channel();
        let run = thread::spawn(move || {
            f();
            finished.send(()).expect("the watchdog waits");
        });
        match watchdog.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Disconnected) => {
                resume_unwind(run.join().expect_err("the run panicked"))
            }
            Err(timeout) => panic!("a batch did not return within 60 s: {timeout}"),
        }
    }

    #[test]
    fn sequential_runs_inline() {
        let exec = Executor::sequential();
        assert_eq!(exec.threads(), 1);
        assert!(!exec.is_parallel());
        let caller = thread::current().id();
        let ids = exec.par_map(&[(); 4], |_, _| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn par_map_preserves_input_order() {
        within_a_minute(|| {
            let exec = Executor::with_threads(4);
            let items: Vec<u64> = (0..1000).collect();
            let out = exec.par_map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expected);
        });
    }

    #[test]
    fn all_thread_counts_agree() {
        within_a_minute(|| {
            let items: Vec<u64> = (0..257).collect();
            let f = |_: usize, &x: &u64| (x as f64).sqrt().to_bits();
            let baseline = Executor::sequential().par_map(&items, f);
            for lanes in [2, 3, 8] {
                assert_eq!(Executor::with_threads(lanes).par_map(&items, f), baseline);
            }
        });
    }

    #[test]
    fn batches_actually_fan_out() {
        within_a_minute(|| {
            // Six lanes belong to this test alone: nothing else can hold the
            // pool busy and make the batch run inline.
            let exec = Executor::with_threads(6);
            assert_eq!(exec.threads(), 6);
            let (_, ids) = on_two_lanes(&exec, |_| ());
            assert!(ids.len() >= 2, "one thread ran the whole batch");
        });
    }

    #[test]
    fn par_map_chunked_matches_par_map_for_any_weights() {
        within_a_minute(|| {
            let items: Vec<u64> = (0..311).collect();
            let f = |i: usize, &x: &u64| {
                assert_eq!(i as u64, x);
                (x as f64).ln_1p().to_bits()
            };
            let baseline = Executor::sequential().par_map(&items, f);
            for lanes in [1, 2, 8] {
                let exec = Executor::with_threads(lanes);
                // Uniform, skewed, and degenerate all-zero weights must all
                // reassemble identically in input order.
                assert_eq!(exec.par_map_chunked(&items, |_| 1, f), baseline);
                assert_eq!(
                    exec.par_map_chunked(&items, |&x| (x as usize) * (x as usize), f),
                    baseline
                );
                assert_eq!(exec.par_map_chunked(&items, |_| 0, f), baseline);
            }
        });
    }

    #[test]
    fn par_map_chunked_handles_trivial_batches() {
        let exec = Executor::with_threads(4);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(exec.par_map_chunked(&empty, |_| 1, |_, &x: &u64| x), vec![]);
        assert_eq!(
            exec.par_map_chunked(&[7u64], |_| 5, |_, &x| x * 2),
            vec![14]
        );
    }

    #[test]
    fn with_threads_one_is_sequential() {
        assert!(!Executor::with_threads(1).is_parallel());
        assert!(!Executor::with_threads(0).is_parallel(), "clamped up to 1");
        assert!(Executor::with_threads(2).is_parallel());
    }

    #[test]
    fn concurrent_batches_on_one_executor_each_get_the_sequential_result() {
        within_a_minute(|| {
            let exec = Executor::with_threads(4);
            let items: Vec<u64> = (0..997).collect();
            let f = |i: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            let expected = Executor::sequential().par_map(&items, f);
            let start = Barrier::new(4);
            thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..50 {
                            assert_eq!(exec.par_map(&items, f), expected);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn nested_par_map_completes_with_the_sequential_result() {
        within_a_minute(|| {
            // Seven lanes belong to this test alone, so the caller and a
            // recruit both run outer items and each nests a batch into the
            // pool it is already busy with.
            let exec = Executor::with_threads(7);
            let inner: Vec<u64> = (0..100).collect();
            let (sums, ids) = on_two_lanes(&exec, |_| {
                exec.par_map(&inner, |i, &x| x * i as u64)
                    .iter()
                    .sum::<u64>()
            });
            assert!(ids.len() >= 2, "one thread ran the whole outer batch");
            assert!(sums.iter().all(|&s| s == 328_350), "{sums:?}");
        });
    }

    #[test]
    fn back_to_back_tiny_batches_are_all_correct() {
        within_a_minute(|| {
            let exec = Executor::with_threads(8);
            for round in 0..10_000u64 {
                let items: Vec<u64> = (round..round + 2 + round % 8).collect();
                let expected: Vec<u64> = items.iter().map(|&x| 2 * x - round).collect();
                assert_eq!(exec.par_map(&items, |i, &x| x + i as u64), expected);
            }
        });
    }

    /// Batches of 2–9 items at lanes 2 and 8, some back to back (their
    /// recruits are still spinning) and some after a sleep far longer
    /// than the spin window (their recruits have parked), each equal to
    /// the sequential map.
    #[test]
    fn batches_after_a_spin_or_a_park_are_all_correct() {
        within_a_minute(|| {
            for lanes in [2, 8] {
                let exec = Executor::with_threads(lanes);
                for round in 0..600u64 {
                    let items: Vec<u64> = (round..round + 2 + round % 8).collect();
                    // Uneven items: some lanes still run when the caller's
                    // own lane returns.
                    let f = |i: usize, &x: &u64| (0..x % 4 * 500).fold(x, |h, k| h ^ k) + i as u64;
                    let expected = Executor::sequential().par_map(&items, f);
                    assert_eq!(exec.par_map(&items, f), expected, "{lanes} lanes, {round}");
                    if round % 3 == 0 {
                        thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        });
    }

    #[test]
    fn task_panic_propagates_after_the_scope_drains() {
        within_a_minute(|| {
            let exec = Executor::with_threads(3);
            let done = AtomicU64::new(0);
            let items: Vec<usize> = (0..32).collect();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                exec.par_map(&items, |i, _| {
                    if i == 5 {
                        panic!("boom at {i}");
                    }
                    done.fetch_add(1, Relaxed);
                })
            }));
            let payload = result.expect_err("the task panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom at 5"), "unexpected payload: {msg}");
            // The pool survives the panic and keeps working.
            let out = exec.par_map(&items, |_, &x| x + 1);
            assert_eq!(out[31], 32);
        });
    }

    #[test]
    fn a_panic_on_the_callers_or_a_workers_lane_resumes_its_payload() {
        within_a_minute(|| {
            #[derive(Debug, PartialEq)]
            struct LanePanic {
                on_caller: bool,
            }
            // Five lanes belong to this test alone, so the batch really fans
            // out and both lanes run items.
            let exec = Executor::with_threads(5);
            for on_caller in [true, false] {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    on_two_lanes(&exec, |caller| {
                        if (thread::current().id() == caller) == on_caller {
                            std::panic::panic_any(LanePanic { on_caller });
                        }
                    })
                }));
                let payload = result.expect_err("the lane panic must propagate");
                assert_eq!(
                    payload.downcast_ref::<LanePanic>(),
                    Some(&LanePanic { on_caller })
                );
                let items: Vec<u64> = (0..64).collect();
                assert_eq!(exec.par_map(&items, |_, &x| x + 1)[63], 64);
            }
        });
    }
}
