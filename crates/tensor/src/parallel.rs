//! Intra-kernel parallelism: the dispatch layer between the blocked GEMM
//! and the process-wide work-stealing scheduler in `crates/sched`.
//!
//! The paper's MKL-backed operator gets its throughput from a kernel layer
//! that can split one large `sgemm` across cores. Here the blocked GEMM
//! hands M-block ranges to `run_scoped`, which submits them as
//! `TaskClass::Kernel` tasks to the shared scheduler, so GEMM tiles share
//! workers with operator morsels and serve batches instead of owning a
//! private pool.
//!
//! How many tiles one kernel fans out to is the [`set_kernel_threads`]
//! budget. It starts at 1 (single-threaded kernels for standalone
//! callers); the ModelJoin operator sets it to the engine's resolved
//! `EngineConfig::worker_threads` before each query.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Requested intra-kernel thread count (including the calling thread).
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set how many threads a single large kernel may use (clamped to ≥ 1).
/// Cheap to call per query. This also grows the shared scheduler so
/// standalone kernel callers (benches, tests) get the parallelism they
/// asked for — `n` includes the calling thread, hence `n - 1` pool workers.
pub fn set_kernel_threads(n: usize) {
    let n = n.max(1);
    KERNEL_THREADS.store(n, Ordering::Relaxed);
    sched::configure_workers(n - 1);
}

/// Current intra-kernel thread budget.
pub fn kernel_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed)
}

/// Run `tasks` to completion as Kernel-class tasks on the shared
/// scheduler. Blocks until every task has finished, so tasks may borrow
/// from the caller's stack. The caller cooperatively helps run its own
/// scope, so a kernel fan-out nested inside an operator morsel never
/// blocks a scheduler worker on stealable work.
///
/// A panicking task is caught on its worker and re-raised here after all
/// tasks have completed.
pub(crate) fn run_scoped(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        for t in tasks {
            t();
        }
        return;
    }
    obs::metrics::TENSOR_POOL_JOBS.add((n - 1) as u64);
    sched::global().run_scoped(sched::TaskClass::Kernel, tasks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scoped_executes_every_task_with_borrows() {
        let mut out = vec![0usize; 8];
        {
            let chunks: Vec<&mut [usize]> = out.chunks_mut(2).collect();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .into_iter()
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = i * 10 + j;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }
        assert_eq!(out, vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn knob_clamps_to_one() {
        let before = kernel_threads();
        set_kernel_threads(0);
        assert_eq!(kernel_threads(), 1);
        set_kernel_threads(before.max(1));
    }

    #[test]
    fn pool_worker_panic_is_propagated() {
        let result = std::panic::catch_unwind(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                vec![Box::new(|| {}), Box::new(|| panic!("boom"))];
            run_scoped(tasks);
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_panic_for_later_batches() {
        let _ = std::panic::catch_unwind(|| {
            run_scoped(vec![
                Box::new(|| panic!("first batch dies")) as Box<dyn FnOnce() + Send + '_>,
                Box::new(|| {}),
            ]);
        });
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }
}
