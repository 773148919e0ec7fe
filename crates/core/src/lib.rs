//! The AquaSCALE framework (paper Secs. II, IV, VI).
//!
//! AquaSCALE is a cyber-physical-human computational framework that fuses
//! IoT sensing, hydraulic simulation, machine learning, weather data and
//! human reports to localize multiple concurrent pipe leaks in community
//! water networks. This crate ties the substrates together into the paper's
//! two-phase composite algorithm:
//!
//! * **Phase I** ([`AquaScale::train_profile`], Algorithm 1) — generate an
//!   extensive corpus of simulated failure scenarios with EPANET++-class
//!   hydraulics, then train one binary classifier per candidate leak node
//!   (the *profile model*).
//! * **Phase II** ([`AquaScale::infer`], Algorithm 2) — score live IoT
//!   readings with the profile, fuse frozen-pipe evidence by Bayes
//!   aggregation, and enforce consistency with human-report cliques via
//!   higher-order potentials.
//!
//! The crate also ships the [`baseline`] the paper argues against
//! (enumeration through a calibrated simulator, "computationally expensive
//! or prohibitive"), the cold-weather [`scenario`] driver, the flood-impact
//! coupling ([`impact`]) and the [`experiment`] harness that regenerates
//! every figure of the evaluation section.
//!
//! # Example
//!
//! ```no_run
//! use aqua_core::{AquaScale, AquaScaleConfig};
//! use aqua_net::synth;
//!
//! let net = synth::epa_net();
//! let config = AquaScaleConfig::small(); // demo-sized corpus
//! let aqua = AquaScale::new(&net, config);
//! let profile = aqua.train_profile().unwrap(); // Phase I
//! // ... feed live readings into `aqua.infer(&profile, ...)` (Phase II).
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod baseline;
mod error;
pub mod experiment;
pub mod health;
pub mod impact;
pub mod isolation;
pub mod monitor;
mod pipeline;
pub mod registry;
pub mod scenario;
pub mod shard;
pub mod slot;
pub mod swap;
mod timing;

pub use artifact::ProfileArtifact;
pub use error::AquaError;
pub use health::{HealthPolicy, SensorHealth, SensorStatus};
pub use monitor::{Detection, MonitoringSession, SessionState};
pub use pipeline::{AquaScale, AquaScaleConfig, ExternalObservations, Inference, ProfileModel};
pub use registry::{checkpoint_meta, HostedSession, SessionRegistry};
pub use swap::{ModelHandle, ProfileSnapshot};
