//! A bounded blocking queue: the backpressure primitive between the
//! acceptor thread and the worker pool.
//!
//! `try_push` never blocks — when the queue is full the item comes straight
//! back to the caller, which is what lets the acceptor shed load with a
//! `503` instead of buffering unboundedly. `pop` blocks until an item
//! arrives or the queue is closed *and* drained, giving workers natural
//! graceful-shutdown semantics.

use std::collections::VecDeque;

use aqua_telemetry::sync::{Condvar, Mutex, MutexGuard};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue with non-blocking producers and blocking
/// consumers.
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Attempts to enqueue without blocking. Returns the item back when
    /// the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues, blocking while the queue is empty. Returns `None` once
    /// the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the queue: producers start failing, consumers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_then_signals_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue rejects producers");
        assert_eq!(q.pop(), Some(1), "queued work survives close");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "drained + closed = shutdown signal");
    }

    #[test]
    fn blocking_pop_wakes_on_push_across_threads() {
        let q = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // The consumer may or may not already be parked; push either way.
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
