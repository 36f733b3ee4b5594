//! # sidco-runtime — the execution substrate under the compression engine
//!
//! SIDCo's estimator math made threshold selection cheap; what is left of the
//! compression budget is *runtime* overhead: dispatching chunk work onto
//! threads. This crate holds the one parallel runtime the engine uses:
//!
//! * [`Runtime`] — the executor abstraction: run `n` index-addressed chunk
//!   tasks, each exactly once. Callers own the chunk decomposition and the
//!   output slots, so *any* correct `Runtime` yields bit-identical results.
//! * [`WorkStealing`] — a persistent pool: lazy one-time spawn, per-worker
//!   Chase–Lev deques, per-socket injectors placed by a [`NumaTopology`]
//!   model, parked idle workers, and observable [`PoolStats`].
//! * [`Inline`] — the single-worker runtime: every index runs on the calling
//!   thread. It is what a worker budget of 1 resolves to, and the
//!   differential-testing baseline the pool is checked against.
//!
//! Callers obtain process-wide shared instances from [`handle`]: one pool per
//! worker count, and [`Inline`] for a budget of 1.
//!
//! # Determinism contract
//!
//! A `Runtime` executes every index in `0..tasks` exactly once, on some
//! thread, in some order, and returns only after all of them ran. It never
//! chooses chunk boundaries and never merges results — callers do both as a
//! pure function of input length. Consequently outputs are **bit-identical
//! across worker counts and steal orders**; the only observable differences
//! are wall-clock time and [`PoolStats`].

#![warn(missing_docs)]

pub mod affinity;
pub mod numa;
pub mod pool;
pub mod rendezvous;
pub mod stats;
pub(crate) mod sync;

pub use numa::{NumaNode, NumaTopology};
pub use pool::WorkStealing;
pub use rendezvous::BucketRendezvous;
pub use stats::PoolStats;

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// An executor for index-addressed chunk tasks.
///
/// Implementations must run `body(i)` exactly once for every `i in 0..tasks`
/// and return only after every call finished (a panic in any body must
/// propagate to the caller, after all other bodies completed or panicked).
/// `body` receives the chunk *index*; callers translate indices to data
/// ranges and write results into per-index slots, which is what makes every
/// implementation produce identical bits.
pub trait Runtime: std::fmt::Debug + Send + Sync {
    /// A short stable identifier (`"inline"`, `"pool"`).
    fn name(&self) -> &'static str;

    /// The configured worker budget (1 means sequential).
    fn parallelism(&self) -> usize;

    /// Runs `body(0..tasks)`, each index exactly once, blocking to completion.
    fn run_indexed(&self, tasks: usize, body: &(dyn Fn(usize) + Sync));

    /// Pool counters, for runtimes that keep them (`None` for [`Inline`]).
    fn stats(&self) -> Option<PoolStats> {
        None
    }

    /// Pre-registers this runtime's worker tracks with the active trace
    /// session, so every worker appears in the exported timeline even when a
    /// fast run completes before some workers get scheduled (their lifecycle
    /// events would otherwise land after the session closed). No-op when
    /// tracing is disabled or for runtimes without persistent workers.
    fn register_trace_tracks(&self) {}
}

/// Runs `body(0..tasks)` inline, continuing past panics so every index
/// executes exactly once; the first panic is re-raised after the loop.
/// [`Inline`] and the pool's single-task fast path both use it, so the
/// [`Runtime`] contract holds there too.
pub(crate) fn run_sequential_to_completion(tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    let mut first_panic = None;
    for index in 0..tasks {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(index)));
        if let Err(payload) = outcome {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// The single-worker runtime: runs every index on the calling thread, in
/// index order. [`handle`]`(_, 1)` returns it, and it is the baseline the
/// pool's outputs are compared with bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Inline;

impl Runtime for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn parallelism(&self) -> usize {
        1
    }

    fn run_indexed(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        run_sequential_to_completion(tasks, body);
    }
}

/// Which [`Runtime`] implementation [`handle`] builds for a worker budget
/// above 1. The work-stealing pool is the only one; the enum stays so that
/// `handle(kind, threads)` and the trainer's `with_runtime(kind, threads)`
/// keep their signatures, which the benchmark harness under `perfbench/`
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimeKind {
    /// The persistent work-stealing pool ([`WorkStealing`]).
    #[default]
    Pool,
}

/// An explicit once-per-process cache of an environment-derived
/// configuration value.
///
/// `from_env`-style lookups (the engine's `SIDCO_THREADS`) are
/// *deliberately* cached for the life of the process: the executors they
/// size are process-wide, so a mid-run environment change silently forking
/// the configuration would be worse than ignoring it. This type makes that
/// memoisation explicit (instead of a `OnceLock` buried in a function body)
/// and gives tests a [`reset`](EnvCache::reset) escape hatch so cache
/// semantics themselves are testable without mutating the process
/// environment.
#[derive(Debug, Default)]
pub struct EnvCache<T> {
    slot: Mutex<Option<T>>,
}

impl<T: Copy> EnvCache<T> {
    /// An empty cache; the first [`get_or_init`](EnvCache::get_or_init)
    /// fills it.
    pub const fn new() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }

    /// Returns the cached value, computing and storing it on first use.
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> T {
        *self
            .slot
            .lock()
            .expect("env cache poisoned")
            .get_or_insert_with(init)
    }

    /// Clears the cache so the next read re-runs its initialiser.
    ///
    /// Test-only: production code relies on the once-per-process read.
    #[doc(hidden)]
    pub fn reset(&self) {
        *self.slot.lock().expect("env cache poisoned") = None;
    }
}

/// Returns the process-wide shared runtime of the given kind and worker
/// budget. Instances are created on first request and live for the process
/// (so every engine configured with the same `threads` shares one pool —
/// and the pool's workers are spawned exactly once, on its first parallel
/// job). `threads == 1` always returns [`Inline`]: there is nothing for a
/// pool to do. The `kind` parameter has a single value today; the signature
/// is kept for the benchmark harness under `perfbench/`, which names it.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn handle(kind: RuntimeKind, threads: usize) -> &'static dyn Runtime {
    assert!(threads >= 1, "a runtime needs at least one thread");
    if threads == 1 {
        return &Inline;
    }
    type Registry = Mutex<HashMap<(RuntimeKind, usize), &'static dyn Runtime>>;
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().expect("runtime registry poisoned");
    *map.entry((kind, threads)).or_insert_with(|| match kind {
        RuntimeKind::Pool => Box::leak(Box::new(WorkStealing::new(threads))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn inline_runs_every_index_exactly_once() {
        let runtime = Inline;
        assert_eq!(runtime.name(), "inline");
        assert_eq!(runtime.parallelism(), 1);
        assert!(Runtime::stats(&runtime).is_none());
        for n in [0usize, 1, 2, 7, 100] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            runtime.run_indexed(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn inline_panics_propagate_after_every_index_ran() {
        // The contract the pool also honours: a panicking body must not
        // prevent the later indices from executing, and the panic still
        // reaches the caller.
        let hits: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Inline.run_indexed(40, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 3, "index 3 exploded");
            });
        }));
        let payload = result.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert!(message.contains("index 3 exploded"), "got {message:?}");
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn kind_default_is_the_pool() {
        assert_eq!(RuntimeKind::default(), RuntimeKind::Pool);
    }

    #[test]
    fn env_cache_memoises_until_reset() {
        let cache: EnvCache<u32> = EnvCache::new();
        assert_eq!(cache.get_or_init(|| 7), 7);
        // The second initialiser must not run: the first read is sticky.
        assert_eq!(cache.get_or_init(|| unreachable!("cache hit expected")), 7);
        cache.reset();
        assert_eq!(cache.get_or_init(|| 9), 9);
    }

    #[test]
    fn handle_registry_shares_instances() {
        let a = handle(RuntimeKind::Pool, 2) as *const dyn Runtime;
        let b = handle(RuntimeKind::Pool, 2) as *const dyn Runtime;
        assert!(std::ptr::addr_eq(a, b), "same (kind, threads) must share");
        assert_eq!(handle(RuntimeKind::Pool, 2).name(), "pool");
        assert_eq!(handle(RuntimeKind::Pool, 2).parallelism(), 2);
    }

    #[test]
    fn single_thread_handle_is_inline_without_stats() {
        let seq = handle(RuntimeKind::Pool, 1);
        assert_eq!(seq.name(), "inline");
        assert_eq!(seq.parallelism(), 1);
        assert!(seq.stats().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn handle_rejects_zero_threads() {
        handle(RuntimeKind::Pool, 0);
    }

    #[test]
    fn pool_handle_executes_and_reports_stats() {
        let pool = handle(RuntimeKind::Pool, 2);
        let count = AtomicU64::new(0);
        pool.run_indexed(40, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 40);
        let stats = pool.stats().expect("pool keeps stats");
        assert_eq!(stats.threads_spawned, 2);
        assert!(stats.chunks_executed >= 40);
    }
}
