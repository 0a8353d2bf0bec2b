//! A fixed-size worker pool on [`Workers`] — the `std`-only
//! substitute for `rayon` (the build container has no crates.io access).
//!
//! Jobs are `'static` closures; workers pull them one at a time from one
//! shared queue, so an idle worker always takes the next job (work
//! stealing degenerates to a single shared queue, which is optimal for
//! the coarse, similar-cost row-block jobs the runtime submits).

use crate::batch::{BatchQueue, Workers};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size thread pool.
///
/// Dropping the pool closes its queue and joins every worker; jobs
/// already submitted still run to completion.
///
/// ```
/// use lt_runtime::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = ThreadPool::new(4);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..32 {
///     let hits = Arc::clone(&hits);
///     pool.execute(move || {
///         hits.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// drop(pool); // joins: all 32 jobs have run
/// assert_eq!(hits.load(Ordering::SeqCst), 32);
/// ```
pub struct ThreadPool {
    workers: Workers<Job>,
    panicked: Arc<AtomicUsize>,
}

impl ThreadPool {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let panicked = Arc::new(AtomicUsize::new(0));
        let workers = Workers::spawn(threads, 1, "lt-runtime-worker", |_| {
            let panicked = Arc::clone(&panicked);
            move |queue: &BatchQueue<Job>| {
                while let Some(batch) = queue.next_batch() {
                    for (_, job) in batch {
                        if catch_unwind(AssertUnwindSafe(job)).is_err() {
                            panicked.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }
        });
        ThreadPool { workers, panicked }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.count()
    }

    /// Number of jobs that panicked so far (their panics are contained
    /// so one bad job cannot kill a worker).
    pub fn panicked_jobs(&self) -> usize {
        self.panicked.load(Ordering::SeqCst)
    }

    /// Submits a job. Jobs run in submission order per worker pickup;
    /// completion order is unspecified.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.workers.submit(Box::new(job));
    }
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads())
            .field("panicked_jobs", &self.panicked_jobs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn runs_jobs_on_multiple_workers() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let (tx, rx) = channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i * i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        let want: Vec<u32> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(7u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let pool = ThreadPool::new(2);
        pool.execute(|| panic!("job goes boom"));
        let (tx, rx) = channel();
        pool.execute(move || tx.send(1u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 1, "pool still serves jobs");
        drop(pool);
    }

    #[test]
    fn drop_joins_after_draining() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }
}
