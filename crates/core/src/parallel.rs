//! Work scheduling for the parallel verification engine.
//!
//! The dynamic stage of DCA is embarrassingly parallel at two levels:
//! every permuted replay of one loop starts from the same immutable golden
//! snapshot, and every loop of a module is verified independently. This
//! module provides the scheduling primitive the engine builds on, and
//! `dca-parallel`'s executor runs its workers on too — one pool,
//! implemented with [`std::thread::scope`], so borrowed inputs (the
//! module, the snapshot) are shared without cloning or `Arc`.
//!
//! # Determinism
//!
//! Parallel execution must be *observationally identical* to sequential
//! execution: same verdicts, same `permutations_tested`, same
//! `replay_steps`. [`parallel_map`] guarantees this trivially (results are
//! returned in item order). [`parallel_scan_with`] reproduces sequential
//! early-exit semantics with a [`StopIndex`]: workers claim indices in
//! increasing order from a shared atomic counter, a terminal outcome at
//! index *t* lowers the stop index to *t* via `fetch_min`, and workers
//! stop claiming indices beyond the current stop. Because a worker never
//! abandons an index it has claimed and the stop index only decreases,
//! every index at or below the *final* stop is guaranteed to be fully
//! processed — so a post-join fold over the slots sees exactly the prefix
//! the sequential engine would have executed, and the first terminal
//! outcome it finds is the same one.
//!
//! # Fault containment contract
//!
//! Both primitives *propagate* worker panics (`resume_unwind` after the
//! join): if `f` unwinds, the whole call unwinds, and with multiple
//! in-flight workers the unpredictable teardown order can abort the
//! process. The engine therefore never passes a closure that can panic:
//! every per-loop analysis and every per-replay check is wrapped in
//! [`crate::fault::catch_contained`] *inside* `f`, converting a panic
//! into a classified result ([`crate::SkipReason::EngineFault`]) before
//! this module ever sees it. The `resume_unwind` here is the backstop
//! for bugs in the scheduling code itself, not a supported path.

use dca_obs::{Obs, TraceVal};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag shared between a controller (a CLI
/// Ctrl-C handler, a supervising thread) and the analysis it governs.
///
/// Cancellation is *advisory*: setting the token never interrupts a
/// worker mid-step. The engine polls it at its safe points — before
/// starting a loop, before golden recording, and every
/// [`crate::replay::GOVERN_GRANULE`] interpreter steps inside a governed
/// replay — and winds the run down into a valid partial
/// [`crate::DcaReport`] with [`crate::SkipReason::Cancelled`] for every
/// loop it did not finish.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// flag. The single store/load is atomic and lock-free, so a clone may
/// safely be triggered from a signal handler.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; there is no way to un-cancel.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Tokens compare by identity (same underlying flag), mirroring what a
/// [`crate::DcaConfig`] equality check needs: two configs are
/// interchangeable only if cancelling one run would cancel the other.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// Resolves a [`crate::DcaConfig::threads`] request to a concrete worker
/// count: `0` means the `DCA_THREADS` environment variable if it is set
/// to a positive integer, else one worker per CPU the process can use;
/// any other value is taken as-is.
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("DCA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-worker accounting for a `worker` trace event. Only maintained when
/// the observer has a trace sink; a `None` start means "don't measure".
struct WorkerStats {
    started: Option<Instant>,
    busy: Duration,
    items: u64,
}

impl WorkerStats {
    fn begin(obs: &Obs) -> Self {
        WorkerStats {
            started: if obs.has_trace() {
                Some(Instant::now())
            } else {
                None
            },
            busy: Duration::ZERO,
            items: 0,
        }
    }

    fn item_start(&self) -> Option<Instant> {
        self.started.map(|_| Instant::now())
    }

    fn item_end(&mut self, t: Option<Instant>) {
        if let Some(t) = t {
            self.busy += t.elapsed();
            self.items += 1;
        }
    }

    /// Emits the `worker` event: lifetime (`span_us`), time spent inside
    /// the work closure (`busy_us`), and the difference (`wait_us` — claim
    /// overhead plus time parked behind the scope join).
    fn finish(self, obs: &Obs, pool: &str, worker: usize) {
        let Some(started) = self.started else { return };
        let span = started.elapsed();
        let wait = span.saturating_sub(self.busy);
        obs.trace_event(
            "worker",
            &[
                ("pool", TraceVal::Str(pool)),
                ("worker", TraceVal::U64(worker as u64)),
                ("items", TraceVal::U64(self.items)),
                ("span_us", TraceVal::U64(span.as_micros() as u64)),
                ("busy_us", TraceVal::U64(self.busy.as_micros() as u64)),
                ("wait_us", TraceVal::U64(wait.as_micros() as u64)),
            ],
        );
    }
}

/// The lowest index at which a terminal outcome (violation, exhausted
/// budget) has been observed; [`usize::MAX`] while there is none.
///
/// Monotonically decreasing: [`StopIndex::stop_at`] uses `fetch_min`, so
/// concurrent terminals race benignly and the minimum — the one sequential
/// execution would have hit first — always wins.
#[derive(Debug)]
pub struct StopIndex(AtomicUsize);

impl StopIndex {
    /// A stop index with no terminal outcome recorded yet.
    #[must_use]
    pub fn new() -> Self {
        StopIndex(AtomicUsize::new(usize::MAX))
    }

    /// Records a terminal outcome at `index` (keeps the minimum).
    pub fn stop_at(&self, index: usize) {
        self.0.fetch_min(index, Ordering::SeqCst);
    }

    /// The lowest terminal index seen so far, or [`usize::MAX`].
    #[must_use]
    pub fn current(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

impl Default for StopIndex {
    fn default() -> Self {
        StopIndex::new()
    }
}

/// Applies `f` to every item on up to `threads` workers and returns the
/// results **in item order**. `f(i, &items[i])` must be pure up to its
/// return value; items are claimed dynamically, so uneven per-item cost
/// balances itself. This is [`parallel_scan_with`] with no stop and no
/// worker state, so it emits the same `worker` trace events.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_map<T, R, F>(
    threads: usize,
    items: &[T],
    obs: &Obs,
    pool: &'static str,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_scan_with(
        threads,
        items,
        &StopIndex::new(),
        obs,
        pool,
        || (),
        |(), i, t| f(i, t),
    )
    .into_iter()
    .map(|r| r.expect("with no stop every slot is filled"))
    .collect()
}

/// Applies `f` to a prefix of `items` on up to `threads` workers,
/// honouring early exit: `f` signals a terminal outcome by calling
/// [`StopIndex::stop_at`] with its own index, and no index beyond the
/// current stop is *started* afterwards.
///
/// Returns one slot per item; slot `i` is `Some` iff `f(i, _)` ran to
/// completion. Every slot at or below the final [`StopIndex::current`] is
/// guaranteed `Some` (see the module docs for why), which is exactly what
/// a deterministic fold over the sequential prefix needs. Slots past the
/// stop may or may not be filled — workers that had already claimed them
/// finish them — and callers must ignore them.
///
/// On the multi-threaded path worker 0 runs on the calling thread and
/// the others on scoped threads. When `obs` has a trace sink, each worker
/// of that path emits one `worker` event tagged with `pool` on exit (see
/// DESIGN.md §11), and a `stop_observed` event when it abandons a claim
/// because the claim is past the current stop index — the
/// scheduling-dependent race the deterministic fold hides. With tracing
/// off the workers never read the clock.
///
/// Each worker carries **worker-local state**: `init()` runs once per
/// worker (once total on the sequential path) and the resulting value is
/// threaded mutably through every item that worker processes. This is how
/// the engine amortizes expensive per-worker setup — one interpreter
/// `Machine` restored from the golden snapshot serves all of a worker's
/// replays, each rewound by journal rollback instead of rebuilt.
///
/// Determinism caveat for callers: *which* items share a worker's state
/// depends on scheduling, so `f`'s **result for item `i` must not depend
/// on the state's history** — only on `i`, `items[i]`, and state that `f`
/// itself re-establishes (e.g. a machine rewound to the snapshot point
/// before use).
///
/// # Panics
///
/// Propagates a panic from any worker.
#[allow(clippy::many_single_char_names)]
pub fn parallel_scan_with<S, T, R, I, F>(
    threads: usize,
    items: &[T],
    stop: &StopIndex,
    obs: &Obs,
    pool: &'static str,
    init: I,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 {
        let mut state = init();
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, item) in items.iter().enumerate() {
            if i > stop.current() {
                break;
            }
            slots[i] = Some(f(&mut state, i, item));
        }
        return slots;
    }
    let next = AtomicUsize::new(0);
    let work = |w: usize| {
        let mut stats = WorkerStats::begin(obs);
        let mut state = init();
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            // `stop.current()` only decreases and claims only
            // increase, so once a claim is past the stop every
            // later claim is too: breaking is safe, and an
            // index below the final stop is never skipped.
            if i >= items.len() {
                break;
            }
            let cur = stop.current();
            if i > cur {
                if obs.has_trace() {
                    obs.trace_event(
                        "stop_observed",
                        &[
                            ("pool", TraceVal::Str(pool)),
                            ("worker", TraceVal::U64(w as u64)),
                            ("claim", TraceVal::U64(i as u64)),
                            ("stop", TraceVal::U64(cur as u64)),
                        ],
                    );
                }
                break;
            }
            let t = stats.item_start();
            local.push((i, f(&mut state, i, &items[i])));
            stats.item_end(t);
        }
        stats.finish(obs, pool, w);
        local
    };
    // Worker 0 runs on the calling thread, which would otherwise only
    // wait for the others.
    let work = &work;
    let buckets: Vec<Vec<(usize, R)>> = thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
        let mut buckets = vec![work(0)];
        buckets.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        buckets
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
}

/// Splits a worker budget between the loop level and the permutation
/// level: `(outer, inner)` with `outer * inner <= threads` (as close to
/// equality as integer division allows). `outer` is capped by the number
/// of loops so no worker budget is stranded on an empty outer slot.
#[must_use]
pub fn split_threads(threads: usize, outer_items: usize) -> (usize, usize) {
    let outer = threads.clamp(1, outer_items.max(1));
    let inner = (threads / outer).max(1);
    (outer, inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
        assert_eq!(effective_threads(1), 1);
    }

    #[test]
    fn map_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 7, 64] {
            let out = parallel_map(threads, &items, &Obs::disabled(), "test", |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, &Obs::disabled(), "test", |_, &x| x).is_empty());
        assert_eq!(
            parallel_map(8, &[5u32], &Obs::disabled(), "test", |_, &x| x + 1),
            vec![6]
        );
    }

    #[test]
    fn scan_fills_every_slot_up_to_the_final_stop() {
        // Terminal at index 23: everything at or below must be Some.
        let items: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 8] {
            let stop = StopIndex::new();
            let slots = parallel_scan_with(
                threads,
                &items,
                &stop,
                &Obs::disabled(),
                "test",
                || (),
                |(), i, &x| {
                    if x == 23 {
                        stop.stop_at(i);
                    }
                    x
                },
            );
            assert_eq!(stop.current(), 23, "threads={threads}");
            for (i, s) in slots.iter().enumerate().take(24) {
                assert_eq!(s, &Some(i), "threads={threads} slot {i}");
            }
        }
    }

    #[test]
    fn scan_keeps_the_minimum_terminal() {
        // Terminals at 10 and 40 — the fold must see 10 whichever worker
        // ran first.
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let stop = StopIndex::new();
            parallel_scan_with(
                threads,
                &items,
                &stop,
                &Obs::disabled(),
                "test",
                || (),
                |(), i, &x| {
                    if x == 10 || x == 40 {
                        stop.stop_at(i);
                    }
                },
            );
            assert_eq!(stop.current(), 10, "threads={threads}");
        }
    }

    #[test]
    fn scan_without_terminal_processes_everything() {
        let items: Vec<u64> = (0..50).collect();
        let stop = StopIndex::new();
        let slots = parallel_scan_with(
            4,
            &items,
            &stop,
            &Obs::disabled(),
            "test",
            || (),
            |(), _, &x| x + 1,
        );
        assert_eq!(stop.current(), usize::MAX);
        assert!(slots.iter().all(Option::is_some));
    }

    #[test]
    fn sequential_scan_stops_after_terminal() {
        // With one worker nothing past the terminal index may run.
        let ran_past = AtomicBool::new(false);
        let items: Vec<usize> = (0..100).collect();
        let stop = StopIndex::new();
        parallel_scan_with(
            1,
            &items,
            &stop,
            &Obs::disabled(),
            "test",
            || (),
            |(), i, _| {
                if i == 5 {
                    stop.stop_at(i);
                }
                if i > 5 {
                    ran_past.store(true, Ordering::SeqCst);
                }
            },
        );
        assert!(!ran_past.load(Ordering::SeqCst));
    }

    #[test]
    fn stateful_scan_inits_once_per_worker_and_reuses_state() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let stop = StopIndex::new();
            let slots = parallel_scan_with(
                threads,
                &items,
                &stop,
                &Obs::disabled(),
                "test",
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize // items this worker has processed so far
                },
                |seen, i, &x| {
                    *seen += 1;
                    (i, x * 2, *seen)
                },
            );
            // Workers are capped by item count, so at most `threads`
            // states were built (exactly one sequentially).
            let built = inits.load(Ordering::SeqCst);
            assert!((1..=threads).contains(&built), "threads={threads}");
            // Results are per-item correct regardless of which worker's
            // state they rode on, and state genuinely accumulated: the
            // per-worker counters across all items sum to 1+2+..k per
            // worker, so their max is at least ceil(items/workers).
            let mut max_seen = 0;
            for (i, s) in slots.iter().enumerate() {
                let (si, sx, seen) = s.expect("no terminal: all slots filled");
                assert_eq!((si, sx), (i, i * 2));
                max_seen = max_seen.max(seen);
            }
            assert!(max_seen >= items.len().div_ceil(built));
        }
    }

    #[test]
    fn cancel_token_is_shared_by_clones_and_compares_by_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled(), "clones observe the same flag");
        assert!(!c.is_cancelled(), "independent tokens are independent");
        a.cancel();
        assert!(a.is_cancelled(), "cancel is idempotent");
    }

    #[test]
    fn split_threads_never_oversubscribes() {
        for threads in 1..=16 {
            for items in 0..=8 {
                let (outer, inner) = split_threads(threads, items);
                assert!(outer >= 1 && inner >= 1);
                assert!(outer * inner <= threads.max(1), "{threads} over {items}");
                assert!(outer <= items.max(1));
            }
        }
        assert_eq!(split_threads(8, 2), (2, 4));
        assert_eq!(split_threads(8, 100), (8, 1));
        assert_eq!(split_threads(1, 4), (1, 1));
    }
}
