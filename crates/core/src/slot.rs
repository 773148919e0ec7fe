//! A read-mostly versioned publication slot — the core of the hot-swap
//! machinery, extracted from [`crate::swap`] so the model-check suite can
//! explore its interleavings in isolation.
//!
//! The slot holds an `Arc<T>` behind a tiny `RwLock` that is only ever held
//! long enough to clone or replace the `Arc`. Readers take a snapshot with
//! [`VersionedSlot::get`] and keep it for as long as they need, unaffected
//! by concurrent publications.
//!
//! The crucial contract is [`VersionedSlot::update`]: the closure computing
//! the next value runs **while the write lock is held**, so read-modify-write
//! publications (version counters, generation stamps) are atomic with
//! respect to concurrent updates. Deriving the next value from a snapshot
//! taken *before* taking the write lock is exactly the lost-update race the
//! `model_swap` suite pins as a regression.

use aqua_telemetry::sync::{Arc, RwLock};

/// An atomically swappable, snapshot-readable slot.
pub struct VersionedSlot<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> VersionedSlot<T> {
    /// Wraps an initial value.
    pub fn new(initial: T) -> VersionedSlot<T> {
        VersionedSlot {
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current value. The internal lock is held only for the `Arc`
    /// clone; the returned snapshot stays valid across later updates.
    pub fn get(&self) -> Arc<T> {
        // Lock poisoning cannot corrupt an Arc swap; keep serving.
        Arc::clone(&self.slot.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Publishes `f(current)` and returns it. The closure runs under the
    /// write lock, so no other update can interleave between reading the
    /// current value and installing its successor.
    pub fn update(&self, f: impl FnOnce(&T) -> T) -> Arc<T> {
        let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
        let next = Arc::new(f(&slot));
        *slot = Arc::clone(&next);
        next
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for VersionedSlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("VersionedSlot").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_survive_updates() {
        let slot = VersionedSlot::new(1u64);
        let old = slot.get();
        let new = slot.update(|v| v + 10);
        assert_eq!(*old, 1);
        assert_eq!(*new, 11);
        assert_eq!(*slot.get(), 11);
    }

    #[test]
    fn update_sees_the_latest_value() {
        let slot = VersionedSlot::new(0u64);
        for _ in 0..5 {
            slot.update(|v| v + 1);
        }
        assert_eq!(*slot.get(), 5);
    }
}
