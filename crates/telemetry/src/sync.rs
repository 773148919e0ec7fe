//! The workspace's one synchronization facade.
//!
//! All lock, condvar, and atomic types used by library code come through
//! this module (enforced by `aqua-audit`'s `raw-sync` rule). Normal builds
//! resolve to `std::sync` with zero overhead; under
//! `RUSTFLAGS="--cfg aqua_model_check"` the same names resolve to the
//! `interlock` shims, whose deterministic scheduler lets the `model_*` test
//! suites exhaustively explore thread interleavings. `Arc` and `OnceLock`
//! always come from std: they are immutable after publication, so they add
//! no schedule points worth exploring.

#[cfg(not(aqua_model_check))]
pub use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(aqua_model_check)]
pub use interlock::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use std::sync::{Arc, OnceLock};

pub mod atomic {
    //! Atomic types, shimmed alongside the locks.
    #[cfg(not(aqua_model_check))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    #[cfg(aqua_model_check)]
    pub use interlock::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    pub use std::sync::atomic::Ordering;
}
