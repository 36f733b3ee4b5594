//! The persistent NUMA-aware work-stealing pool.
//!
//! # Architecture
//!
//! * **Lazy one-time spawn** — the pool is constructed empty (two words and a
//!   topology); the first parallel job spawns its OS worker threads, and no
//!   later call ever spawns again ([`PoolStats::threads_spawned`] pins this
//!   down in tests).
//! * **Chase–Lev deques** — each worker owns a [`crossbeam::deque::Worker`]
//!   it pushes split-off subranges onto (owner-LIFO, thief-FIFO); every other
//!   worker holds a [`crossbeam::deque::Stealer`] onto it.
//! * **NUMA placement** — a job's chunk index space is partitioned into
//!   contiguous per-socket ranges by [`NumaTopology::chunk_node`] (the
//!   first-touch page-ownership model) and submitted to **per-socket
//!   injectors**. Workers are pinned (logically) to sockets by
//!   [`NumaTopology::worker_node`] and look for work in locality order: own
//!   deque → own socket's injector → same-socket siblings → remote sockets.
//!   Only the last hop crosses the interconnect, and it is counted
//!   separately ([`PoolStats::remote_steals`]).
//! * **Parked idle workers** — out-of-work workers sleep on a condvar after
//!   re-checking every queue under the sleep lock (no lost wakeups);
//!   submission and task splitting wake them.
//!
//! # Determinism
//!
//! The pool never decides *what* the chunks are — callers fix the chunk
//! decomposition as a function of input length alone and give every chunk its
//! own output slot. The pool only decides *where and when* each chunk runs,
//! so results are bit-identical across worker counts, steal orders, and
//! socket layouts. (See `sidco_tensor::parallel` for the full argument.)

use crate::numa::NumaTopology;
use crate::stats::{PoolStats, StatCells};
use crate::sync::atomic::{fence, AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::Runtime;
use crossbeam::deque::{Injector, Stealer, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// A unit of pool work: a contiguous range of chunk indices of one job.
struct Task {
    job: Arc<JobShared>,
    start: usize,
    end: usize,
}

/// Shared state of one `run_indexed` call.
struct JobShared {
    /// The caller's chunk body with its lifetime erased. Safety: `run_indexed`
    /// blocks until `remaining == 0`, and every task dereferences the body
    /// *before* decrementing `remaining`, so the reference is never used after
    /// the borrow it was created from ends.
    body: &'static (dyn Fn(usize) + Sync),
    /// Total chunks in the job (for placement of split-off ranges).
    total: usize,
    /// Chunks not yet executed; the job is complete at zero.
    remaining: AtomicUsize,
    /// Completion flag + condvar the submitting caller blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload raised by a chunk body, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

/// State shared by the workers, the stealers and the submitting callers.
struct PoolShared {
    topology: NumaTopology,
    /// Socket each worker is pinned to (index = worker id).
    worker_socket: Vec<usize>,
    /// One submission queue per socket.
    injectors: Vec<Injector<Task>>,
    /// One stealer per worker deque.
    stealers: Vec<Stealer<Task>>,
    /// Sleep lock: guards the shutdown flag and serialises the park/wake
    /// protocol (workers re-check all queues under this lock before waiting,
    /// so a wake posted after a push can never be lost).
    sleep: Mutex<bool>,
    wake: Condvar,
    /// Number of workers currently blocked in `wake.wait` (wake hint).
    sleepers: AtomicUsize,
    stats: StatCells,
}

/// Who is executing: a pool worker (with its own deque) or a helping caller.
enum Executor<'a> {
    Worker { id: usize, deque: &'a Worker<Task> },
    Caller,
}

/// The persistent NUMA-aware work-stealing runtime.
///
/// Cheap to create; worker threads are spawned lazily by the first parallel
/// job and reused for every job thereafter. Dropping the pool asks the
/// workers to exit at their next wake-up (the process-global pools returned
/// by [`crate::handle`] are never dropped).
pub struct WorkStealing {
    threads: usize,
    topology: NumaTopology,
    shared: OnceLock<Arc<PoolShared>>,
}

impl std::fmt::Debug for WorkStealing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealing")
            .field("threads", &self.threads)
            .field("topology", &self.topology)
            .field("spawned", &self.is_spawned())
            .finish()
    }
}

impl WorkStealing {
    /// A pool of `threads` workers on the host topology
    /// ([`NumaTopology::detect`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        Self::with_topology(threads, NumaTopology::detect())
    }

    /// A pool of `threads` workers pinned across an explicit topology
    /// (synthetic topologies let tests exercise multi-socket placement on any
    /// host).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_topology(threads: usize, topology: NumaTopology) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        Self {
            threads,
            topology,
            shared: OnceLock::new(),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The topology workers and chunks are pinned to.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Whether the worker threads have been spawned yet.
    pub fn is_spawned(&self) -> bool {
        self.shared.get().is_some()
    }

    /// A snapshot of the pool's lifetime counters (all zero before the lazy
    /// spawn).
    ///
    /// The snapshot is taken under the sleep lock — the same lock every
    /// park/unpark transition holds — so it is internally consistent:
    /// `parks - unparks == currently_parked` holds in every snapshot, even
    /// while workers are going to sleep or waking up concurrently.
    pub fn stats(&self) -> PoolStats {
        match self.shared.get() {
            Some(shared) => {
                let _guard = shared.sleep.lock().expect("sleep lock poisoned");
                shared.stats.snapshot()
            }
            None => PoolStats {
                socket_chunks: vec![0; self.topology.nodes()],
                ..PoolStats::default()
            },
        }
    }

    /// Spawns the workers exactly once and returns the shared state.
    fn shared(&self) -> &Arc<PoolShared> {
        self.shared.get_or_init(|| {
            let sockets = self.topology.nodes();
            let worker_socket: Vec<usize> = (0..self.threads)
                .map(|w| self.topology.worker_node(w, self.threads))
                .collect();
            let deques: Vec<Worker<Task>> = (0..self.threads).map(|_| Worker::new_lifo()).collect();
            let stealers = deques.iter().map(Worker::stealer).collect();
            let shared = Arc::new(PoolShared {
                topology: self.topology.clone(),
                worker_socket,
                injectors: (0..sockets).map(|_| Injector::new()).collect(),
                stealers,
                sleep: Mutex::new(false),
                wake: Condvar::new(),
                sleepers: AtomicUsize::new(0),
                stats: StatCells::new(sockets),
            });
            for (id, deque) in deques.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                StatCells::bump(&shared.stats.threads_spawned);
                thread::Builder::new()
                    .name(format!("sidco-pool-{id}"))
                    .spawn(move || worker_loop(&shared, id, &deque))
                    // INVARIANT: spawn only fails on OS resource exhaustion;
                    // a pool that cannot start its workers cannot run at all.
                    .expect("failed to spawn pool worker");
            }
            shared
        })
    }
}

impl Drop for WorkStealing {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.get() {
            *shared.sleep.lock().expect("sleep lock poisoned") = true;
            shared.wake.notify_all();
        }
    }
}

impl Runtime for WorkStealing {
    fn name(&self) -> &'static str {
        "pool"
    }

    fn parallelism(&self) -> usize {
        self.threads
    }

    fn register_trace_tracks(&self) {
        let sink = trace_sink();
        if sink.enabled() && self.threads > 1 {
            for id in 0..self.threads {
                let _ = sink.track(&format!("sidco-pool-{id}"), sidco_trace::Lane::Real);
            }
        }
    }

    fn run_indexed(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.threads <= 1 {
            crate::run_sequential_to_completion(tasks, body);
            return;
        }
        let shared = self.shared();
        StatCells::bump(&shared.stats.jobs);
        // Spans the whole dispatch→completion window on the caller's track.
        let _job_span = trace_sink().real_span("pool/job");
        // SAFETY: the erased reference is only dereferenced by tasks of this
        // job, every task dereferences it before decrementing `remaining`,
        // and this function blocks until `remaining == 0` — so no use can
        // outlive the `body` borrow.
        let body_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let job = Arc::new(JobShared {
            body: body_static,
            total: tasks,
            remaining: AtomicUsize::new(tasks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });

        // Submit each socket's chunk range to its injector, pre-split into one
        // subrange per pinned worker so every worker can start without
        // stealing; stealing rebalances from there.
        for socket in 0..shared.topology.nodes() {
            let range = shared.topology.node_range(socket, tasks);
            if range.is_empty() {
                continue;
            }
            // Relaxed: pure observation counter; readers take the sleep
            // lock for cross-counter consistency (see `StatCells::snapshot`).
            shared.stats.socket_chunks[socket].fetch_add(range.len() as u64, Ordering::Relaxed);
            let pinned = shared
                .worker_socket
                .iter()
                .filter(|&&s| s == socket)
                .count()
                .max(1);
            let pieces = pinned.min(range.len());
            let per = range.len().div_ceil(pieces);
            let mut start = range.start;
            while start < range.end {
                let end = (start + per).min(range.end);
                shared.injectors[socket].push(Task {
                    job: Arc::clone(&job),
                    start,
                    end,
                });
                start = end;
            }
        }
        // Wake every parked worker (under the sleep lock, after the pushes,
        // so the park-side re-check cannot miss the new work).
        {
            let _guard = shared.sleep.lock().expect("sleep lock poisoned");
            shared.wake.notify_all();
        }

        // Help until the job completes: the caller steals like a worker
        // (without a deque of its own), then blocks on the completion condvar
        // once the queues run dry — remaining chunks are in flight on workers.
        loop {
            if *job.done.lock().expect("job lock poisoned") {
                break;
            }
            match find_task(shared, &Executor::Caller) {
                Some(task) => execute(shared, &Executor::Caller, task),
                None => {
                    let mut done = job.done.lock().expect("job lock poisoned");
                    while !*done {
                        done = job.done_cv.wait(done).expect("job lock poisoned");
                    }
                    break;
                }
            }
        }
        let payload = job.panic.lock().expect("panic lock poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    fn stats(&self) -> Option<PoolStats> {
        Some(self.stats())
    }
}

/// Physically pins a freshly spawned worker to the CPUs of its assigned NUMA
/// node, making the logical `worker_node` placement real. Failure (synthetic
/// topology, unsupported platform) is recorded by omission: only successful
/// pins bump `workers_pinned`, and the worker runs unpinned — placement is a
/// performance measure, never a correctness one.
#[cfg(not(sidco_loom))]
fn pin_worker(shared: &PoolShared, id: usize) {
    let socket = shared.worker_socket[id];
    if crate::affinity::pin_current_thread(shared.topology.node_cpu_ids(socket)) {
        StatCells::bump(&shared.stats.workers_pinned);
    }
}

/// Under the loom model the "threads" are baton-serialized simulations — a
/// real affinity syscall would pin the single OS thread running the whole
/// model, so pinning is compiled out.
#[cfg(sidco_loom)]
fn pin_worker(_shared: &PoolShared, _id: usize) {}

/// The recording sink for pool lifecycle events. One relaxed atomic load when
/// tracing is disabled; events land on the calling thread's own track
/// (workers are named `sidco-pool-{id}`, so each gets a distinct track).
#[cfg(not(sidco_loom))]
fn trace_sink() -> sidco_trace::TraceSink {
    sidco_trace::global_sink()
}

/// Under the loom model the baton-serialized "threads" must not touch the
/// process-wide trace registry (a real mutex), so tracing is compiled out.
#[cfg(sidco_loom)]
fn trace_sink() -> sidco_trace::TraceSink {
    sidco_trace::TraceSink::noop()
}

/// Record an instantaneous lifecycle event (steal, park, unpark) on the
/// calling thread's real-time track.
fn trace_instant(name: &'static str) {
    let sink = trace_sink();
    if sink.enabled() {
        let track = sink.thread_track();
        sink.instant(track, name, sink.real_now());
    }
}

/// The worker main loop: find a task in locality order or park.
fn worker_loop(shared: &Arc<PoolShared>, id: usize, deque: &Worker<Task>) {
    pin_worker(shared, id);
    let me = Executor::Worker { id, deque };
    loop {
        match find_task(shared, &me) {
            Some(task) => execute(shared, &me, task),
            None => {
                let mut shutdown = shared.sleep.lock().expect("sleep lock poisoned");
                if *shutdown {
                    return;
                }
                // Eventcount protocol: register as a sleeper *before* the
                // queue re-check. An exposer pushes, fences, then reads
                // `sleepers`; reading 0 there means our registration had not
                // happened yet, which orders our re-check after its push —
                // so we see the work here. Reading >0 makes it take the
                // sleep lock and notify, which covers the waiting branch.
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if has_work(shared) {
                    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                // Park accounting transitions under the sleep lock (held
                // here and re-acquired by the condvar wait), paired with the
                // `currently_parked` gauge so lock-consistent snapshots
                // always balance: parks - unparks == currently_parked.
                StatCells::bump(&shared.stats.parks);
                shared
                    .stats
                    .currently_parked
                    .fetch_add(1, Ordering::Relaxed);
                trace_instant("park");
                shutdown = shared.wake.wait(shutdown).expect("sleep lock poisoned");
                trace_instant("unpark");
                // SeqCst: pairs with the SeqCst fence + sleepers load on the
                // submit side, closing the park/submit race (eventcount).
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                // Relaxed: gauge updated under the sleep lock; readers also
                // hold it (see `WorkStealing::stats`).
                shared
                    .stats
                    .currently_parked
                    .fetch_sub(1, Ordering::Relaxed);
                StatCells::bump(&shared.stats.unparks);
                if *shutdown {
                    return;
                }
            }
        }
    }
}

/// Any queue non-empty?
fn has_work(shared: &PoolShared) -> bool {
    shared.injectors.iter().any(|i| !i.is_empty()) || shared.stealers.iter().any(|s| !s.is_empty())
}

/// Looks for a task in locality order. For a worker: own deque, own socket's
/// injector, same-socket siblings, then remote sockets (injectors and
/// deques). A helping caller starts at the injectors of socket 0.
///
/// Stats attribution: only *pinned workers* count cross-socket takes as
/// [`remote_steals`](PoolStats::remote_steals) — a helping caller has no
/// home socket, so its takes land in `injector_pops` / `sibling_steals`
/// whichever socket they came from, keeping the remote counter a pure
/// measure of worker traffic across the interconnect.
fn find_task(shared: &PoolShared, who: &Executor<'_>) -> Option<Task> {
    let (id, socket) = match who {
        Executor::Worker { id, deque } => {
            if let Some(task) = deque.pop() {
                StatCells::bump(&shared.stats.local_pops);
                return Some(task);
            }
            (Some(*id), shared.worker_socket[*id])
        }
        Executor::Caller => (None, 0),
    };
    let pinned = id.is_some();
    let sockets = shared.topology.nodes();
    // Own socket first (injector, then siblings), then the rest in order.
    for hop in 0..sockets {
        let s = (socket + hop) % sockets;
        let local = hop == 0 || !pinned;
        if let Some(task) = shared.injectors[s].steal().success() {
            StatCells::bump(if local {
                &shared.stats.injector_pops
            } else {
                trace_instant("steal:remote");
                &shared.stats.remote_steals
            });
            return Some(task);
        }
        for (victim, stealer) in shared.stealers.iter().enumerate() {
            if Some(victim) == id || shared.worker_socket[victim] != s {
                continue;
            }
            if let Some(task) = stealer.steal().success() {
                StatCells::bump(if local {
                    trace_instant("steal:sibling");
                    &shared.stats.sibling_steals
                } else {
                    trace_instant("steal:remote");
                    &shared.stats.remote_steals
                });
                return Some(task);
            }
        }
    }
    None
}

/// Executes a range task: split off the back half (repeatedly) for thieves,
/// run the front chunk, then loop back to the owner's deque.
fn execute(shared: &PoolShared, who: &Executor<'_>, task: Task) {
    let Task {
        job,
        start,
        mut end,
    } = task;
    while end - start > 1 {
        let mid = start + (end - start) / 2;
        expose(
            shared,
            who,
            Task {
                job: Arc::clone(&job),
                start: mid,
                end,
            },
        );
        end = mid;
    }
    let index = start;
    let outcome = {
        // Spans the chunk body on the executing thread's track.
        let _chunk_span = trace_sink().real_span("chunk");
        catch_unwind(AssertUnwindSafe(|| (job.body)(index)))
    };
    StatCells::bump(&shared.stats.chunks);
    if let Err(payload) = outcome {
        let mut slot = job.panic.lock().expect("panic lock poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    // AcqRel: the release publishes this task's writes to whoever takes the
    // completion edge; the acquire makes the last decrementer see them all.
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        *job.done.lock().expect("job lock poisoned") = true;
        job.done_cv.notify_all();
    }
}

/// Makes a split-off task stealable: workers push onto their own deque (the
/// Chase–Lev fast path), a helping caller routes it to the injector of the
/// socket owning the range's pages. Wakes a sleeper if any.
fn expose(shared: &PoolShared, who: &Executor<'_>, task: Task) {
    match who {
        Executor::Worker { deque, .. } => deque.push(task),
        Executor::Caller => {
            let socket = shared.topology.chunk_node(task.start, task.job.total);
            shared.injectors[socket].push(task);
        }
    }
    // Eventcount fast path: parkers register in `sleepers` *before* their
    // locked queue re-check (see `worker_loop`), so an unlocked SeqCst read
    // of 0 here proves no parker could miss the push above — any later
    // registrant re-checks the queues after its registration, which the
    // SeqCst fence pair orders after our push. Only when a sleeper might be
    // waiting do we take the (pool-global) sleep lock to notify; this keeps
    // the per-split hot path lock-free while the pool is busy.
    fence(Ordering::SeqCst);
    if shared.sleepers.load(Ordering::SeqCst) > 0 {
        let _guard = shared.sleep.lock().expect("sleep lock poisoned");
        shared.wake.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = WorkStealing::with_topology(4, NumaTopology::synthetic(2, 2));
        for n in [1usize, 2, 3, 7, 64, 500] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run_indexed(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i} of {n}");
            }
        }
    }

    #[test]
    fn pool_spawns_lazily_and_exactly_once() {
        let pool = WorkStealing::with_topology(3, NumaTopology::synthetic(1, 4));
        assert!(!pool.is_spawned());
        assert_eq!(pool.stats().threads_spawned, 0);
        // A single task runs inline and must not spawn anything.
        pool.run_indexed(1, &|_| {});
        assert!(!pool.is_spawned());
        for _ in 0..5 {
            pool.run_indexed(32, &|_| {});
        }
        let stats = pool.stats();
        assert!(pool.is_spawned());
        assert_eq!(stats.threads_spawned, 3);
        assert_eq!(stats.jobs, 5);
        assert_eq!(stats.chunks_executed, 5 * 32);
        assert_eq!(stats.socket_chunks, vec![5 * 32]);
    }

    #[test]
    fn multi_socket_submission_splits_by_ownership() {
        let pool = WorkStealing::with_topology(4, NumaTopology::synthetic(2, 8));
        pool.run_indexed(100, &|_| {});
        let stats = pool.stats();
        assert_eq!(stats.socket_chunks, vec![50, 50]);
        assert_eq!(stats.chunks_executed, 100);
    }

    #[test]
    fn pool_results_are_written_to_caller_slots() {
        let pool = WorkStealing::new(2);
        let slots: Vec<Mutex<Option<u64>>> = (0..200).map(|_| Mutex::new(None)).collect();
        pool.run_indexed(200, &|i| {
            *slots[i].lock().expect("slot lock poisoned") = Some((i as u64) * 3);
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(
                slot.lock().expect("slot lock poisoned").unwrap(),
                (i as u64) * 3
            );
        }
    }

    #[test]
    fn concurrent_jobs_from_many_callers_all_complete() {
        let pool = Arc::new(WorkStealing::with_topology(
            3,
            NumaTopology::synthetic(1, 4),
        ));
        let total = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..10 {
                        pool.run_indexed(50, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 50);
    }

    #[test]
    fn panics_in_chunk_bodies_propagate_to_the_caller() {
        let pool = WorkStealing::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(64, &|i| {
                assert!(i != 17, "chunk 17 exploded");
            });
        }));
        assert!(result.is_err(), "the chunk panic must reach the caller");
        // The pool survives and keeps executing later jobs.
        let count = AtomicU64::new(0);
        pool.run_indexed(64, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn park_accounting_balances_in_every_snapshot() {
        let pool = WorkStealing::with_topology(4, NumaTopology::synthetic(2, 2));
        for _ in 0..20 {
            pool.run_indexed(64, &|_| {});
            let stats = pool.stats();
            assert_eq!(
                stats.parks - stats.unparks,
                stats.currently_parked,
                "lock-consistent snapshots must balance parks against wakes"
            );
        }
        // Let the workers drain and park; the balance must keep holding as
        // they transition to sleep.
        for _ in 0..50 {
            let stats = pool.stats();
            assert_eq!(stats.parks - stats.unparks, stats.currently_parked);
            if stats.currently_parked == 4 {
                break;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        WorkStealing::new(0);
    }
}
