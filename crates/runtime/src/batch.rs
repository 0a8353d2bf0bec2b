//! [`BatchQueue`]: FIFO coalescing of concurrent requests into
//! batches, and [`Workers`]: the named threads that drain one.
//!
//! The accelerator amortizes per-layer weight loading (and DAC setup)
//! across a batch of inputs; the serving runtime mirrors that by letting
//! concurrent submitters enqueue requests that a consumer drains as
//! batches of bounded size. Every submission gets a monotonically
//! increasing *ticket*, and requests are handed out in ticket order, so
//! admission order is a pure function of what was submitted, never of
//! which consumer thread drained it. [`crate::ThreadPool`] and both
//! servers in `lt_nn::serve` are a [`Workers`] plus their worker body.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A blocking multi-producer batch queue.
///
/// ```
/// use lt_runtime::BatchQueue;
///
/// let queue = BatchQueue::new(3);
/// for word in ["a", "b", "c", "d", "e"] {
///     queue.submit(word);
/// }
/// queue.close();
/// let first = queue.next_batch().unwrap();
/// assert_eq!(first, vec![(0, "a"), (1, "b"), (2, "c")], "FIFO, capped at 3");
/// let second = queue.next_batch().unwrap();
/// assert_eq!(second, vec![(3, "d"), (4, "e")]);
/// assert!(queue.next_batch().is_none(), "closed and drained");
/// ```
#[derive(Debug)]
pub struct BatchQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    max_batch: usize,
}

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<(u64, T)>,
    next_ticket: u64,
    closed: bool,
}

impl<T> BatchQueue<T> {
    /// Creates a queue whose batches hold at most `max_batch` requests.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "batches must hold at least one request");
        BatchQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                next_ticket: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            max_batch,
        }
    }

    /// Enqueues a request and returns its ticket. Tickets are assigned
    /// in submission order starting from zero and define the order in
    /// which requests are handed out.
    ///
    /// # Panics
    ///
    /// Panics if the queue is closed.
    pub fn submit(&self, item: T) -> u64 {
        let mut inner = self.inner.lock().expect("queue poisoned");
        assert!(!inner.closed, "submit on a closed BatchQueue");
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.queue.push_back((ticket, item));
        drop(inner);
        self.ready.notify_one();
        ticket
    }

    /// Closes the queue: pending requests still drain, new submissions
    /// panic, and [`BatchQueue::next_batch`] returns `None` once empty.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Blocks until at least one request is waiting (or the queue is
    /// closed and drained), then removes and returns up to `max_batch`
    /// requests in ticket order. Returns `None` only after
    /// [`BatchQueue::close`] with nothing left.
    pub fn next_batch(&self) -> Option<Vec<(u64, T)>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if !inner.queue.is_empty() {
                let take = self.max_batch.min(inner.queue.len());
                return Some(inner.queue.drain(..take).collect());
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue poisoned");
        }
    }

    /// Non-blocking bounded drain: removes and returns up to `limit`
    /// requests in ticket order (ignoring `max_batch`), or `None` if
    /// nothing is waiting. This is the admission primitive of a
    /// *continuous-batching* consumer, which tops up however many
    /// execution slots it has free between steps of already-running
    /// work, rather than draining fixed-size batches.
    pub fn try_take(&self, limit: usize) -> Option<Vec<(u64, T)>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.queue.is_empty() || limit == 0 {
            return None;
        }
        let take = limit.min(inner.queue.len());
        Some(inner.queue.drain(..take).collect())
    }
}

/// A request paired with the sender its reply goes back on.
pub type Job<Q, R> = (Q, Sender<R>);

/// `count` named threads draining one [`BatchQueue`]. Dropping (or
/// [`join`](Workers::join)ing) closes the queue and joins every thread;
/// requests already submitted still drain first.
#[derive(Debug)]
pub struct Workers<T> {
    queue: Arc<BatchQueue<T>>,
    threads: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Workers<T> {
    /// Starts `count.max(1)` threads named `{name}-{i}` over a queue of
    /// `max_batch.max(1)`-request batches. `make(i)` runs on the
    /// caller's thread and returns worker `i`'s body, so per-worker
    /// state is built before the thread starts; the body drains the
    /// queue until [`BatchQueue::next_batch`] returns `None`.
    pub fn spawn<F, W>(count: usize, max_batch: usize, name: &str, mut make: F) -> Self
    where
        F: FnMut(usize) -> W,
        W: FnOnce(&BatchQueue<T>) + Send + 'static,
    {
        let queue = Arc::new(BatchQueue::new(max_batch.max(1)));
        let threads = (0..count.max(1))
            .map(|i| {
                let body = make(i);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || body(&queue))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Workers { queue, threads }
    }
}

impl<T> Workers<T> {
    /// Enqueues `item` and returns its ticket ([`BatchQueue::submit`]).
    pub fn submit(&self, item: T) -> u64 {
        self.queue.submit(item)
    }

    /// Number of running threads (zero after [`join`](Workers::join)).
    pub fn count(&self) -> usize {
        self.threads.len()
    }

    /// Closes the queue, lets the threads drain it, and joins them.
    pub fn join(&mut self) {
        self.queue.close();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl<Q, R> Workers<Job<Q, R>> {
    /// Enqueues `request` with a fresh reply channel; returns at once.
    pub fn request(&self, request: Q) -> Pending<R> {
        let (reply, rx) = channel();
        let ticket = self.submit((request, reply));
        Pending { ticket, rx }
    }
}

impl<T> Drop for Workers<T> {
    fn drop(&mut self) {
        self.join();
    }
}

/// A handle to one in-flight [`Job`].
#[derive(Debug)]
pub struct Pending<R> {
    ticket: u64,
    rx: Receiver<R>,
}

impl<R> Pending<R> {
    /// The queue ticket (submission order; the servers also use it as
    /// the request's noise-stream index).
    pub fn ticket(&self) -> u64 {
        self.ticket
    }

    /// Blocks until the reply arrives.
    ///
    /// # Panics
    ///
    /// Panics if the worker dropped the reply sender: the request
    /// failed, or the workers stopped before serving it.
    pub fn wait(self) -> R {
        self.rx
            .recv()
            .expect("request failed or workers stopped before replying")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_fifo_and_bounded() {
        let q = BatchQueue::new(4);
        for i in 0..10 {
            assert_eq!(q.submit(i), i as u64);
        }
        q.close();
        let mut sizes = Vec::new();
        let mut tickets = Vec::new();
        while let Some(batch) = q.next_batch() {
            sizes.push(batch.len());
            tickets.extend(batch.iter().map(|&(t, _)| t));
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(tickets, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_submitters_never_reorder_or_lose_requests() {
        let q = Arc::new(BatchQueue::new(3));
        let submitters: Vec<_> = (0..4)
            .map(|s| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        q.submit((s, i));
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut drained = Vec::new();
                while let Some(batch) = q.next_batch() {
                    assert!(batch.len() <= 3);
                    drained.extend(batch);
                }
                drained
            })
        };
        for s in submitters {
            s.join().unwrap();
        }
        q.close();
        let drained = consumer.join().unwrap();
        assert_eq!(drained.len(), 100, "every request served exactly once");
        // Global FIFO: tickets strictly increase across batches.
        for pair in drained.windows(2) {
            assert!(pair[0].0 < pair[1].0, "tickets must stay ordered");
        }
        // Per-submitter order preserved (fairness: no overtaking).
        for s in 0..4u32 {
            let seq: Vec<u32> = drained
                .iter()
                .filter(|&&(_, (owner, _))| owner == s)
                .map(|&(_, (_, i))| i)
                .collect();
            assert_eq!(seq, (0..25).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn try_take_drains_up_to_the_limit_in_ticket_order() {
        let q = BatchQueue::new(2); // max_batch deliberately smaller than limit
        for i in 0..5u8 {
            q.submit(i);
        }
        assert!(q.try_take(0).is_none(), "zero slots: nothing to admit");
        assert_eq!(q.try_take(3).unwrap(), vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(q.try_take(10).unwrap(), vec![(3, 3), (4, 4)]);
        assert!(q.try_take(1).is_none(), "drained");
    }

    #[test]
    #[should_panic(expected = "closed BatchQueue")]
    fn submitting_after_close_panics() {
        let q = BatchQueue::new(1);
        q.close();
        q.submit(0u8);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_batch_size_rejected() {
        let _ = BatchQueue::<u8>::new(0);
    }
}
