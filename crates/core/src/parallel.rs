//! The shared fork–join executor behind every parallel pipeline stage.
//!
//! Graph construction, refinement and detection all have the same shape:
//! a slice of independent items (NFT graphs, candidates, …), a pure function
//! per item, and a result vector that must come back **in input order** so
//! the pipeline stays bit-identical at any thread count. Before this module
//! each call site hand-rolled its own scoped-thread pool; now they all share
//! [`Executor::map`], and the thread budget is configured once in
//! [`AnalysisOptions`](crate::pipeline::AnalysisOptions).

use std::num::NonZeroUsize;

/// A fork–join executor with a fixed thread budget.
///
/// Work is split into at most `threads` contiguous chunks, one scoped thread
/// per chunk (`threads = 1` runs inline, with no thread spawned at all).
/// Results are reassembled in input order, so output is deterministic and
/// independent of the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: NonZeroUsize,
}

impl Default for Executor {
    /// An executor using every available core.
    fn default() -> Self {
        Executor::new(0)
    }
}

impl Executor {
    /// Create an executor with a thread budget; `0` means "one thread per
    /// available core", the convention
    /// [`AnalysisOptions::threads`](crate::pipeline::AnalysisOptions::threads)
    /// follows.
    pub fn new(threads: usize) -> Self {
        let threads = match NonZeroUsize::new(threads) {
            Some(explicit) => explicit,
            None => std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is nonzero")),
        };
        Executor { threads }
    }

    /// The resolved thread budget (never zero).
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// How many threads `map` over `items` entries would actually use.
    pub fn threads_for(&self, items: usize) -> usize {
        self.threads.get().min(items).max(1)
    }

    /// Apply `f` to every item, in parallel, preserving input order.
    ///
    /// `f` must be pure with respect to ordering: it receives one `&T` and
    /// returns one `U`, and may not rely on being called in any particular
    /// sequence. Panics in `f` propagate.
    ///
    /// Parallel fan-outs are instrumented (`executor.*` metrics): each worker
    /// runs inside an `executor.worker` span, whose sample lands in
    /// `executor.worker_ns` on the worker's own thread (so, while recording,
    /// each worker allocates and retires a metric shard), and the calling
    /// thread counts the fan-out. The inline path (one thread) stays
    /// untouched.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let threads = self.threads_for(items.len());
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let chunk_size = items.len().div_ceil(threads);
        let f = &f;
        let started = obs::recording().then(std::time::Instant::now);
        // Workers inherit the fan-out's trace context so spans they open (or
        // traced code they call into) parent under the calling span's tree.
        let trace_ctx = obs::trace::current();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk_size)
                .enumerate()
                .map(|(shard, chunk)| {
                    scope.spawn(move || {
                        let _ctx = obs::trace::adopt(trace_ctx);
                        let mut worker_span = obs::trace::span("executor.worker");
                        worker_span.attr("shard", shard as u64);
                        worker_span.attr("tasks", chunk.len() as u64);
                        chunk.iter().map(f).collect::<Vec<U>>()
                    })
                })
                .collect();
            let mut results = Vec::with_capacity(items.len());
            for handle in handles {
                results.extend(handle.join().expect("parallel worker panicked"));
            }
            results
        });
        if let Some(started) = started {
            // span_ns ≥ the workers' summed `executor.worker_ns`; their ratio
            // is the fan-out's worker utilization (1.0 = perfectly balanced
            // chunks).
            let span_ns = started.elapsed().as_nanos() as u64 * threads as u64;
            obs::counter!("executor.fanouts");
            obs::counter!("executor.tasks", items.len() as u64);
            obs::counter!("executor.span_ns", span_ns);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let executor = Executor::new(4);
        let out: Vec<u32> = executor.map(&[] as &[u32], |x| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let executor = Executor::new(8);
        assert_eq!(executor.threads_for(1), 1);
        assert_eq!(executor.map(&[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn fewer_items_than_threads() {
        let executor = Executor::new(16);
        let items: Vec<usize> = (0..5).collect();
        let out = executor.map(&items, |x| x * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(executor.threads_for(items.len()), 5);
    }

    #[test]
    fn ordering_is_deterministic_across_thread_counts() {
        let items: Vec<u64> = (0..1003).collect();
        let serial = Executor::new(1).map(&items, |x| x * x);
        for threads in [2, 3, 8, 64] {
            let parallel = Executor::new(threads).map(&items, |x| x * x);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn zero_requests_all_cores() {
        let executor = Executor::new(0);
        assert!(executor.threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        Executor::new(4).map(&items, |x| {
            assert!(*x != 63, "boom");
            *x
        });
    }
}
