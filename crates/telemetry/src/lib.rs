//! Observability for the AquaSCALE pipeline: spans, metrics and structured
//! event streams.
//!
//! The paper's workflow is a long multi-stage pipeline — Algorithm 1
//! profiles 20 000 simulated scenarios offline, Algorithm 2 runs inference
//! every 15 minutes forever — and production-scale operation needs to see
//! where time and failures go inside it. This crate is that instrument
//! layer, built std-only (the build container is offline):
//!
//! * **Spans** — hierarchical wall-clock intervals over an injectable
//!   [`Clock`], so tests and the deterministic corpus machinery stay
//!   reproducible ([`TelemetryCtx::span`], [`ManualClock`]).
//! * **Metrics** — saturating counters, gauges, and fixed log-bucketed
//!   [`Histogram`]s whose merge is associative and commutative, so
//!   per-thread observations combine exactly.
//! * **Events** — a structured JSONL sink with per-thread shard buffers
//!   and a deterministic sort-on-flush: the flushed stream is byte-identical
//!   for any worker thread count.
//!
//! Instrumented code takes a [`TelemetryCtx`] (a copyable
//! `Option<&TelemetryHub>` plus parent span); the disabled default reduces
//! every operation to one branch, keeping the uninstrumented hot path
//! intact.
//!
//! # Example
//!
//! ```
//! use aqua_telemetry::TelemetryHub;
//!
//! let hub = TelemetryHub::new();
//! {
//!     let phase = hub.ctx().span("core.phase1");
//!     phase.ctx().add("sensing.build.samples", 400);
//!     phase.ctx().observe("hydraulics.solver.iterations", 9.0);
//!     phase.ctx().emit(0, "sensing.build.sample", &[("resamples", 0u64.into())]);
//! }
//! let snap = hub.metrics_snapshot();
//! assert_eq!(snap.counter("sensing.build.samples"), 400);
//! let mut jsonl = Vec::new();
//! hub.write_events_jsonl(&mut jsonl).unwrap();
//! assert!(String::from_utf8(jsonl).unwrap().contains("sensing.build.sample"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
pub mod hash;
mod hub;
mod json;
mod metrics;
mod span;
mod stitch;
pub mod sync;
mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{Event, Value};
pub use hub::{SpanGuard, TelemetryCtx, TelemetryHub, TimerGuard};
pub use metrics::{
    Histogram, Metric, MetricsSnapshot, HISTOGRAM_BUCKETS, HISTOGRAM_MAX, HISTOGRAM_MIN,
};
pub use span::{SpanId, SpanSnapshot};
pub use stitch::{SpanNode, StitchReport, StitchedTrace, TraceStitcher};
pub use trace::{hex16, TraceContext, FIELD_PARENT, FIELD_SPAN, FIELD_TRACE, TRACE_HEADER};
