//! Index-addressed parallel work: a lock-free claim counter and the one
//! deterministic parallel map built on it.
//!
//! `total` items are identified by index `0..total`. Each worker repeatedly
//! [`claim`](WorkQueue::claim)s the next unclaimed index until the queue is
//! exhausted. A single `fetch_add` makes every index claimed by exactly one
//! worker, with no index skipped — the invariant the `model_train` suite
//! checks under all interleavings.
//!
//! [`par_map_indexed`] is built on that queue. Its callers are Algorithm
//! 1's two index maps, the corpus build (simulate scenario `i`) and the
//! junction-bank fit (fit `f_v` for junction `v`), plus the campaign
//! render (solve slot `i`).

use aqua_telemetry::sync::atomic::{AtomicUsize, Ordering};
use aqua_telemetry::sync::Mutex;

/// A one-shot distributor of the indices `0..total` among many workers.
pub struct WorkQueue {
    next: AtomicUsize,
    total: usize,
}

impl WorkQueue {
    /// A queue of `total` indexed work items.
    pub fn new(total: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
            total,
        }
    }

    /// Claims the next unclaimed index; `None` once all are taken.
    pub fn claim(&self) -> Option<usize> {
        let v = self.next.fetch_add(1, Ordering::Relaxed);
        (v < self.total).then_some(v)
    }

    /// Number of work items distributed by this queue.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl std::fmt::Debug for WorkQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkQueue")
            .field("total", &self.total)
            .finish()
    }
}

/// Maps `f` over the indices `0..n` on up to `threads` scoped threads and
/// returns the results in index order.
///
/// Each worker builds its own state with `init` (a solver workspace, say),
/// then claims indices from a [`WorkQueue`] until it runs dry, writing
/// each `f(&mut state, i)` straight into slot `i`. When `f`'s result
/// depends only on `i`, the output is identical for any `threads` and any
/// claim interleaving. With one thread (or one index) the map runs on the
/// calling thread; `init` runs at most `threads` times and never for
/// `n == 0`.
///
/// # Panics
///
/// If `init` or `f` panics on a worker, the map joins every worker and
/// then re-raises the first joined worker's original panic payload.
pub fn par_map_indexed<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let queue = WorkQueue::new(n);
    // One slot per index, so no result is ever gathered twice: a
    // per-worker buffer collected afterwards would hold every result in
    // two places at the peak.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    {
        let (queue, slots, init, f) = (&queue, &slots, &init, &f);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || {
                        let mut state = init();
                        while let Some(i) = queue.claim() {
                            let out = f(&mut state, i);
                            *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                        }
                    })
                })
                .collect();
            // Joining each handle takes its panic out of the scope, which
            // would otherwise replace it with a generic message.
            let mut panicked = None;
            for worker in workers {
                if let Err(payload) = worker.join() {
                    panicked.get_or_insert(payload);
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                // audit: unwrap-ok(WorkQueue::claim hands out every index exactly once)
                .expect("every index mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    #[test]
    fn claims_each_index_once_then_dries_up() {
        let q = WorkQueue::new(3);
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None);
        assert_eq!(q.total(), 3);
    }

    #[test]
    fn empty_queue_never_claims() {
        let q = WorkQueue::new(0);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn equals_a_sequential_map_at_any_thread_count() {
        // Each worker reuses one scratch buffer, as the corpus build
        // reuses its solver workspace; each result is still a function of
        // its index alone.
        let sum_to = |scratch: &mut Vec<usize>, i: usize| {
            scratch.clear();
            scratch.extend(0..=i);
            scratch.iter().sum::<usize>()
        };
        let sequential: Vec<usize> = (0..36).map(|i| sum_to(&mut Vec::new(), i)).collect();
        for threads in [1, 2, 8] {
            // Indices meet in pairs at a barrier, so no worker maps two
            // neighbours alone and only the per-index slots can put the
            // results back in order.
            let meet = std::sync::Barrier::new(2);
            let got = par_map_indexed(36, threads, Vec::new, |scratch, i| {
                if threads > 1 {
                    meet.wait();
                }
                sum_to(scratch, i)
            });
            assert_eq!(got, sequential, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_maps_to_nothing_without_init() {
        let inits = AtomicUsize::new(0);
        let got: Vec<usize> =
            par_map_indexed(0, 4, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i);
        assert!(got.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn init_runs_at_most_once_per_thread_even_past_n() {
        for (n, threads) in [(50, 1), (50, 3), (2, 8), (1, 4)] {
            let inits = AtomicUsize::new(0);
            let got = par_map_indexed(
                n,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| i,
            );
            assert_eq!(got, (0..n).collect::<Vec<_>>());
            let ran = inits.load(Ordering::Relaxed);
            assert!(
                (1..=threads.min(n)).contains(&ran),
                "init ran {ran} times for n={n}, threads={threads}"
            );
        }
    }

    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    #[test]
    fn a_worker_panic_resurfaces_with_its_own_payload() {
        for threads in [1, 2, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_indexed(
                    20,
                    threads,
                    || (),
                    |(), i| {
                        if i == 13 {
                            std::panic::panic_any(Boom(i));
                        }
                        i
                    },
                )
            }));
            let payload = caught.expect_err("the map must not swallow a panic");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(13)),
                "threads={threads}: payload replaced"
            );
        }
    }
}
