//! Injectable elapsed-time measurement for latency-reporting components.

use std::fmt;
use std::time::Duration;

use aqua_telemetry::sync::Arc;
use aqua_telemetry::{Clock, MonotonicClock};

/// A cloneable, Debug-opaque handle on a [`Clock`], used wherever this
/// crate reports wall-clock durations ([`crate::baseline::BaselineResult`]'s
/// `elapsed`, [`crate::pipeline::Inference`]'s `latency`). Production code
/// keeps the monotonic default; tests inject a
/// [`ManualClock`](aqua_telemetry::ManualClock) for reproducible timings.
#[derive(Clone)]
pub(crate) struct SharedClock(Arc<dyn Clock>);

impl SharedClock {
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Self {
        SharedClock(clock)
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    pub(crate) fn elapsed_since(&self, start_ns: u64) -> Duration {
        Duration::from_nanos(self.0.now_ns().saturating_sub(start_ns))
    }
}

impl Default for SharedClock {
    fn default() -> Self {
        SharedClock(Arc::new(MonotonicClock::new()))
    }
}

impl fmt::Debug for SharedClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedClock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::ManualClock;

    #[test]
    fn elapsed_tracks_injected_clock() {
        let manual = Arc::new(ManualClock::new());
        let clock = SharedClock::new(Arc::clone(&manual) as Arc<dyn Clock>);
        let start = clock.now_ns();
        manual.advance(1_500_000_000);
        assert_eq!(clock.elapsed_since(start), Duration::from_millis(1500));
    }
}
