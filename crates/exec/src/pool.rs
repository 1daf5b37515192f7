//! A dependency-free, channel-based thread pool.
//!
//! Workers pull boxed jobs off a shared `mpsc` channel (the channel acts as
//! the work queue, giving natural work-stealing-like load balancing: a free
//! worker takes the next job regardless of which one stalls). Panics inside
//! jobs are caught per job and re-thrown from the submitting thread, so a
//! failing simulation cell surfaces exactly like it would serially.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool executing boxed jobs.
pub struct ThreadPool {
    sender: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with exactly `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Task>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("anoc-exec-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while receiving, not while running.
                        let task = {
                            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match task {
                            Ok(task) => task(),
                            Err(_) => break, // all senders dropped: shut down
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Creates a pool sized by [`default_threads`].
    pub fn with_default_size() -> Self {
        ThreadPool::new(default_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool is shutting down")
            .send(Box::new(job))
            .expect("worker channel closed");
    }

    /// Runs every job and returns the results **in submission order**,
    /// regardless of which worker finished first — the property the campaign
    /// layer relies on for deterministic merges.
    ///
    /// # Panics
    ///
    /// After all jobs have finished, panics with a `String` payload listing
    /// **every** job that panicked (index and message), not just the first.
    pub fn run_ordered<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        self.run_ordered_observed(jobs, |_, _| {})
    }

    /// [`run_ordered`](Self::run_ordered) with a completion observer:
    /// `observe(index, &result)` runs on the submitting thread as each
    /// result arrives (completion order), for progress reporting.
    pub fn run_ordered_observed<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        observe: impl FnMut(usize, &T),
    ) -> Vec<T> {
        let results = self.run_ordered_results_observed(jobs, observe);
        let mut values = Vec::with_capacity(results.len());
        let mut failures: Vec<(usize, String)> = Vec::new();
        for (idx, outcome) in results.into_iter().enumerate() {
            match outcome {
                Ok(value) => values.push(value),
                Err(msg) => failures.push((idx, msg)),
            }
        }
        if !failures.is_empty() {
            // Every failed job is reported, not just the first-by-index one:
            // a campaign debugging session needs the full picture in one shot.
            let mut report = format!("{} job(s) panicked:", failures.len());
            for (idx, msg) in &failures {
                report.push_str(&format!("\n  job {idx}: {msg}"));
            }
            resume_unwind(Box::new(report));
        }
        values
    }

    /// Runs every job, isolating panics per job: the result vector is in
    /// submission order with `Err(message)` for jobs that panicked. Never
    /// panics itself; the pool stays usable afterwards.
    pub fn run_ordered_results<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<Result<T, String>> {
        self.run_ordered_results_observed(jobs, |_, _| {})
    }

    /// [`run_ordered_results`](Self::run_ordered_results) with a completion
    /// observer: `observe(index, &result)` runs on the submitting thread as
    /// each successful result arrives (completion order).
    pub fn run_ordered_results_observed<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        mut observe: impl FnMut(usize, &T),
    ) -> Vec<Result<T, String>> {
        let n = jobs.len();
        let (tx, rx) = channel();
        for (idx, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                // A dropped receiver only happens when the submitter is
                // already unwinding; nothing useful to do with the error.
                let _ = tx.send((idx, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (idx, outcome) = rx.recv().expect("worker died without reporting");
            match outcome {
                Ok(value) => {
                    observe(idx, &value);
                    slots[idx] = Some(Ok(value));
                }
                Err(payload) => slots[idx] = Some(Err(panic_message(payload.as_ref()))),
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reported exactly once"))
            .collect()
    }
}

/// A round for one pinned worker: a caller-chosen tag, the owned item, and
/// the message the set's job function runs it with.
type PinnedJob<T, M> = (usize, T, M);

/// Slot states for the spin-synchronized per-worker mailbox.
const SLOT_IDLE: u8 = 0; // empty: the submitter may stage a job
const SLOT_READY: u8 = 1; // job staged: the worker should take it
const SLOT_RUNNING: u8 = 2; // worker owns the item
const SLOT_DONE: u8 = 3; // result staged: the submitter should take it

/// How many `spin_loop` iterations a waiter burns before conceding the CPU,
/// when `spinning` threads may busy-wait at once on a host with `cpus`
/// cores. Phase gaps in the sharded cycle kernel are a few microseconds, so
/// while every spinner has a core of its own, waits almost always resolve
/// inside the spin window and the park below is only a safety net. Once the
/// spinners outnumber the cores, spinning is pure harm — a waiter occupies
/// a core the thread it waits on needs — so the budget collapses to zero
/// and every wait yields immediately.
fn spin_budget(cpus: usize, spinning: usize) -> u32 {
    if spinning <= cpus {
        1 << 14
    } else {
        0
    }
}

/// One worker's mailbox. The `Mutex`es are never contended (states hand
/// exclusive access back and forth); they exist to move the values across
/// threads in safe Rust while the atomic state carries the synchronization.
struct Slot<T, M> {
    state: std::sync::atomic::AtomicU8,
    job: Mutex<Option<PinnedJob<T, M>>>,
    result: Mutex<Option<(usize, T, Option<String>)>>,
    /// The thread serving this slot, known once its loop has started;
    /// [`WorkerSet::submit`] wakes it.
    thread: std::sync::OnceLock<std::thread::Thread>,
}

struct SetShared<T, M> {
    slots: Vec<Slot<T, M>>,
    /// [`spin_budget`] for the workers plus the submitting thread.
    spin: u32,
    shutdown: std::sync::atomic::AtomicBool,
    outstanding: std::sync::atomic::AtomicUsize,
}

/// One worker set's loop for a worker thread, and the sender the thread
/// drops once the loop has returned and the thread is a spare again.
type WorkerLoop = (Box<dyn FnOnce() + Send + 'static>, Sender<()>);

/// Threads whose worker set was dropped, each parked on its channel until
/// the next set hands it a loop. A process that runs many sharded
/// simulations spawns its worker threads once, and none of them exits
/// mid-run (thread teardown also touches memory the run never needed).
static SPARE_THREADS: Mutex<Vec<Sender<WorkerLoop>>> = Mutex::new(Vec::new());

/// Runs a worker loop on a spare thread, or on a new thread named `name`
/// when none is parked.
fn start_worker(name: String, mut work: WorkerLoop) {
    while let Some(spare) = lock(&SPARE_THREADS).pop() {
        match spare.send(work) {
            Ok(()) => return,
            // That thread died (a worker loop panicked): try the next.
            Err(returned) => work = returned.0,
        }
    }
    let (tx, rx) = channel::<WorkerLoop>();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let mut next = Some(work);
            while let Some((work, stopped)) = next {
                work();
                lock(&SPARE_THREADS).push(tx.clone());
                drop(stopped);
                next = rx.recv().ok();
            }
        })
        .expect("spawn pinned worker thread");
}

/// A set of persistent worker threads that operate on *owned* state handed
/// back and forth each round — the safe-Rust alternative to scoped mutable
/// sharing for phase-synchronous kernels (the sharded NoC cycle loop sends
/// each shard out for a phase and receives it back at the barrier).
///
/// Every worker runs the one job function the set was built with; a round
/// hands it an item and a small `Copy` message (the cycle kernel sends the
/// cycle context and the phase), so a handoff allocates nothing. Dropping
/// the set returns its threads to a process-wide spare list for the next
/// set instead of ending them.
///
/// Unlike [`ThreadPool`], submissions are pinned to a specific worker, and
/// the handoff is a spin-synchronized mailbox rather than a channel: the
/// cycle kernel synchronizes twice per simulated cycle, and the
/// futex sleep/wake round trips of a blocking channel cost more than an
/// entire phase of useful work. Workers spin briefly between jobs (parking
/// with a timeout once idle), so a barrier round trip stays in the
/// microsecond range while an idle set costs almost nothing.
pub struct WorkerSet<T: Send + 'static, M: Copy + Send + 'static> {
    shared: Arc<SetShared<T, M>>,
    /// Closes once every worker thread is a spare again (each holds a
    /// sender until then).
    stopped: Receiver<()>,
}

impl<T: Send + 'static, M: Copy + Send + 'static> WorkerSet<T, M> {
    /// Starts `workers` persistent worker loops (minimum 1), on spare
    /// threads first and on new threads named `{name}-{i}` otherwise, each
    /// running `job(&mut item, message)` for every round it is handed.
    /// Waits spin only if the workers and the submitting thread all fit in
    /// the host's cores.
    pub fn new(
        workers: usize,
        name: &str,
        job: impl Fn(&mut T, M) + Send + Sync + 'static,
    ) -> Self {
        use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
        let workers = workers.max(1);
        let shared = Arc::new(SetShared {
            spin: spin_budget(host_cores(), workers + 1),
            slots: (0..workers)
                .map(|_| Slot {
                    state: AtomicU8::new(SLOT_IDLE),
                    job: Mutex::new(None),
                    result: Mutex::new(None),
                    thread: std::sync::OnceLock::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
        });
        let job = Arc::new(job);
        let (running, stopped) = channel::<()>();
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let job = Arc::clone(&job);
            start_worker(
                format!("{name}-{i}"),
                (
                    Box::new(move || {
                        let slot = &shared.slots[i];
                        let _ = slot.thread.set(std::thread::current());
                        loop {
                            // Wait for a job: spin first, then park with a
                            // timeout (submit unparks, the timeout is a
                            // missed-wakeup safety net).
                            let mut spins = 0u32;
                            loop {
                                if shared.shutdown.load(Ordering::Acquire) {
                                    return;
                                }
                                if slot.state.load(Ordering::Acquire) == SLOT_READY {
                                    break;
                                }
                                if spins < shared.spin {
                                    spins += 1;
                                    std::hint::spin_loop();
                                } else {
                                    std::thread::park_timeout(std::time::Duration::from_millis(1));
                                }
                            }
                            let (tag, mut item, message) = lock(&slot.job)
                                .take()
                                .expect("READY slot always holds a job");
                            slot.state.store(SLOT_RUNNING, Ordering::Release);
                            // Isolate panics so the item always comes home; the
                            // submitting thread re-throws on receive.
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| job(&mut item, message)));
                            let failed = outcome.err().map(|p| panic_message(p.as_ref()));
                            *lock(&slot.result) = Some((tag, item, failed));
                            slot.state.store(SLOT_DONE, Ordering::Release);
                        }
                    }),
                    running.clone(),
                ),
            );
        }
        WorkerSet { shared, stopped }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.slots.len()
    }

    /// Hands `item` to worker `worker` (modulo the worker count) to run the
    /// set's job with `message`; `tag` is echoed back by
    /// [`WorkerSet::recv`]. Returns `false` if the set is shutting down. If
    /// that worker still has an uncollected job, waits for the slot to clear
    /// (a previous `recv` must collect it).
    pub fn submit(&self, worker: usize, tag: usize, item: T, message: M) -> bool {
        use std::sync::atomic::Ordering;
        if self.shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let slot = &self.shared.slots[worker % self.shared.slots.len()];
        // One job in flight per worker: wait out a slot still carrying the
        // previous round (it can only drain through recv on this thread's
        // schedule, so this is effectively never hit by the cycle kernel).
        let mut spins = 0u32;
        while slot.state.load(Ordering::Acquire) != SLOT_IDLE {
            if spins < self.shared.spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        *lock(&slot.job) = Some((tag, item, message));
        slot.state.store(SLOT_READY, Ordering::Release);
        self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
        // A worker whose loop has not started yet sees READY before it
        // first parks.
        if let Some(thread) = slot.thread.get() {
            thread.unpark();
        }
        true
    }

    /// Receives one finished item, in completion order across workers.
    /// Returns `None` if no submitted job is outstanding.
    ///
    /// # Panics
    ///
    /// Re-throws the job's panic on the receiving thread, after the item has
    /// been recovered from the worker (the item itself is dropped then).
    pub fn recv(&self) -> Option<(usize, T)> {
        use std::sync::atomic::Ordering;
        if self.shared.outstanding.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut spins = 0u32;
        loop {
            for slot in &self.shared.slots {
                if slot.state.load(Ordering::Acquire) != SLOT_DONE {
                    continue;
                }
                let (tag, item, failed) = lock(&slot.result)
                    .take()
                    .expect("DONE slot always holds a result");
                slot.state.store(SLOT_IDLE, Ordering::Release);
                self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
                if let Some(msg) = failed {
                    resume_unwind(Box::new(msg));
                }
                return Some((tag, item));
            }
            if spins < self.shared.spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Locks a never-contended mailbox mutex, surviving poison (a panicked job
/// is already isolated by `catch_unwind`; the mutex data is always whole).
fn lock<V>(m: &Mutex<V>) -> std::sync::MutexGuard<'_, V> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T: Send + 'static, M: Copy + Send + 'static> Drop for WorkerSet<T, M> {
    /// Stops every worker loop and waits until each has returned its thread
    /// to the spare list.
    fn drop(&mut self) {
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        for slot in &self.shared.slots {
            if let Some(thread) = slot.thread.get() {
                thread.unpark();
            }
        }
        // Every worker thread holds a sender until it is a spare again.
        let _ = self.stopped.recv();
    }
}

/// Splits a total thread budget between campaign-level workers and
/// per-simulation shard workers so `--threads N` is never oversubscribed:
/// with `shards` threads serving each simulation, at most `N / shards` cells
/// run concurrently. Returns `(campaign_workers, shards)`, both at least 1;
/// `shards` is clamped to the budget.
pub fn plan_threads(total: usize, shards: usize) -> (usize, usize) {
    let total = total.max(1);
    let shards = shards.clamp(1, total);
    ((total / shards).max(1), shards)
}

/// Extracts the human-readable message of a panic payload (`String` or
/// `&str` payloads, which is what `panic!` produces; anything else gets a
/// placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.sender.take(); // close the queue
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The default worker count: the `ANOC_THREADS` environment variable if set
/// (minimum 1), otherwise [`host_cores`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ANOC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    host_cores()
}

/// The host's core count (`std::thread::available_parallelism`, at least
/// 1), asked once per process: the query reads the cgroup files, which
/// costs time and heap on every call.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spin_budget_spins_only_while_spinners_fit_in_the_cores() {
        // One worker plus the submitting thread on two cores: both spin.
        assert!(spin_budget(2, 2) > 0);
        assert!(spin_budget(8, 5) > 0);
        // A single core never spins: a set has at least one worker, so two
        // threads always share it.
        assert_eq!(spin_budget(1, 2), 0);
        // Four shards (three workers plus the stepper) on two cores: the
        // oversubscribed case must yield, not busy-wait.
        assert_eq!(spin_budget(2, 4), 0);
        assert_eq!(spin_budget(2, 3), 0);
        // Exactly filling the cores still spins.
        assert_eq!(spin_budget(4, 4), spin_budget(2, 2));
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = ThreadPool::new(8);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| {
                Box::new(move || {
                    // Reverse the natural completion order.
                    std::thread::sleep(std::time::Duration::from_micros(64 - i as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = pool.run_ordered(jobs);
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn all_workers_participate() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = (0..32)
            .map(|_| {
                Box::new(|| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    std::thread::current().name().unwrap_or("?").to_string()
                }) as Box<dyn FnOnce() -> String + Send>
            })
            .collect();
        let names: std::collections::BTreeSet<String> =
            pool.run_ordered(jobs).into_iter().collect();
        assert!(names.len() > 1, "only one worker ran: {names:?}");
    }

    #[test]
    fn observer_sees_every_completion() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..10usize)
            .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let seen = AtomicUsize::new(0);
        let results = pool.run_ordered_observed(jobs, |idx, value| {
            assert_eq!(*value, idx * 2);
            // anoc-lint: allow(X001): test counter; run_ordered_observed joins before the read
            seen.fetch_add(1, Ordering::Relaxed);
        });
        // anoc-lint: allow(X001): read after the pool joined; no concurrent writers left
        assert_eq!(seen.load(Ordering::Relaxed), 10);
        assert_eq!(results.len(), 10);
    }

    #[test]
    fn pool_survives_and_reports_job_panics() {
        let pool = ThreadPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("cell {i} exploded");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_ordered(jobs)))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("cell 3 exploded"), "{msg}");
        // The pool is still usable afterwards.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 7usize) as Box<dyn FnOnce() -> usize + Send>];
        assert_eq!(pool.run_ordered(jobs), vec![7]);
    }

    #[test]
    fn every_panicked_job_is_reported() {
        let pool = ThreadPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i % 3 == 1 {
                        panic!("job {i} failed");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_ordered(jobs)))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        for i in [1usize, 4, 7] {
            assert!(msg.contains(&format!("job {i} failed")), "{msg}");
        }
        assert!(msg.contains("3 job(s) panicked"), "{msg}");
    }

    #[test]
    fn results_api_isolates_panics_per_job() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..5usize)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("boom {i}");
                    }
                    i * 10
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = pool.run_ordered_results(jobs);
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert_eq!(r.as_ref().unwrap_err(), "boom 2");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 10);
            }
        }
        // The pool is still usable afterwards.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>];
        assert_eq!(pool.run_ordered(jobs), vec![1]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_set_pins_items_and_returns_them() {
        let set = WorkerSet::new(3, "test", |v: &mut Vec<u32>, x: u32| v.push(x));
        assert_eq!(set.workers(), 3);
        // Dispatch one owned item to each worker, mutate it there, and
        // collect everything back by tag.
        for tag in 0..3usize {
            let sent = set.submit(tag, tag, vec![tag as u32], 99);
            assert!(sent);
        }
        let mut got: Vec<Option<Vec<u32>>> = vec![None; 3];
        for _ in 0..3 {
            let (tag, item) = set.recv().expect("worker alive");
            got[tag] = Some(item);
        }
        for (tag, item) in got.into_iter().enumerate() {
            assert_eq!(item.expect("all tags returned"), vec![tag as u32, 99]);
        }
    }

    #[test]
    fn worker_set_propagates_panics_to_the_receiver() {
        let set = WorkerSet::new(1, "panicky", |_: &mut u32, ()| panic!("shard blew up"));
        assert!(set.submit(0, 7, 1, ()));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.recv()));
        assert!(caught.is_err(), "worker panic must resurface on recv");
    }

    #[test]
    fn plan_threads_divides_the_budget() {
        // 8 cores, 4 shards: two campaign workers, each driving 4 shard
        // threads — exactly the total budget.
        assert_eq!(plan_threads(8, 4), (2, 4));
        assert_eq!(plan_threads(8, 1), (8, 1));
        // Shards are clamped to the budget; the campaign level degrades to
        // one worker rather than zero.
        assert_eq!(plan_threads(2, 4), (1, 2));
        assert_eq!(plan_threads(1, 1), (1, 1));
        assert_eq!(plan_threads(3, 2), (1, 2));
    }

    #[test]
    fn single_thread_pool_is_strictly_serial() {
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    let inside = counter.fetch_add(1, Ordering::SeqCst);
                    let v = counter.load(Ordering::SeqCst);
                    counter.fetch_sub(1, Ordering::SeqCst);
                    assert_eq!(v - inside, 1, "two jobs ran concurrently");
                    inside
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        pool.run_ordered(jobs);
    }
}
