//! # aqua-campaign — unified multi-hazard scenario campaign engine
//!
//! The paper's pitch is an *integrated* approach to localizing failures
//! in community water networks; this crate is the subsystem that makes
//! "integrated" measurable. A [`CampaignPlan`] declares a seeded mix of
//! [`Hazard`]s — background leaks, freeze-wave pipe breaks driven by the
//! fusion crate's Markov weather chain, pump/valve trips, contamination
//! intrusion, a flood cascade from a main break, and adversarial sensor
//! spoofing — and compiles it onto one EPS timeline
//! ([`CompiledCampaign`]). [`render`] lowers that timeline through the
//! hydraulic solver and the sensing crate's measurement step into a
//! per-slot sensor trace, read with the tenant's measurement noise (plus
//! flood and water-quality impact side-channels), and [`replay_hosted`]
//! streams the trace through a live `aqua-serve` session so Phase-II
//! detection, quarantine and hot-swap are exercised end-to-end.
//!
//! Everything is deterministic by construction: hazard schedules are
//! pure splitmix64 hashes of `(seed, stream, step)`, the parallel
//! hydraulic sweep keys results by slot index (so any worker-thread
//! count produces byte-identical traces), and no code path reads the
//! wall clock.
//!
//! ```no_run
//! use aqua_campaign::{BackgroundLeaks, CampaignPlan, FreezeWave, SensorSpoof};
//! use aqua_telemetry::TelemetryCtx;
//!
//! let net = aqua_net::synth::epa_net();
//! let plan = CampaignPlan::new(42, 96)
//!     .with(BackgroundLeaks { count: 3, coefficient: 0.01 })
//!     .with(FreezeWave::new(4, 0.012))
//!     .with(SensorSpoof { rate: 0.1, bias: 600.0, onset_fraction: 0.5 });
//! let compiled = plan.compile(&net, TelemetryCtx::none()).unwrap();
//! assert_eq!(compiled.slots, 96);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hazard;
pub mod plan;
pub mod replay;
pub mod score;
pub mod timeline;

pub use error::CampaignError;
pub use hazard::{
    BackgroundLeaks, ContaminationIntrusion, FreezeWave, Hazard, HazardContext, MainBreakFlood,
    PumpTrips, SensorSpoof,
};
pub use plan::CampaignPlan;
pub use replay::{replay_hosted, Detections, ReplayOutcome};
pub use score::{bbox_diagonal, score_detections, CampaignScore};
pub use timeline::{
    render, CompiledCampaign, ContaminationSource, FloodTrigger, FrozenWindow, HazardEvent,
    LinkTrip, RenderOptions, RenderedCampaign,
};
