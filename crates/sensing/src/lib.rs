//! IoT sensing layer for AquaSCALE.
//!
//! Models the paper's Sec. III-B: a sensor set `A ⊆ V ∪ E` of pressure
//! transducers (on nodes) and flow meters (on pipes), sampled every
//! hydraulic time step (15 minutes), placed by *k*-medoids over baseline
//! hydraulic signatures, and read with Gaussian measurement noise. The
//! features of a training sample are "the difference between two sets of
//! consecutive readings from IoT devices" aggregated with static topology
//! information (Sec. IV-A). [`measure`] makes every reading, noise and
//! faults included, and [`feature_row`] turns two consecutive readings into
//! a row, in Phase I and Phase II alike.
//!
//! The [`DatasetBuilder`] generates the Phase-I training corpora: thousands
//! of simulated failure scenarios with `U(1, m)` concurrent leaks at random
//! junctions, one feature row and one per-junction label vector each.
//!
//! # Example
//!
//! ```
//! use aqua_net::synth;
//! use aqua_sensing::{DatasetBuilder, SensorSet};
//!
//! let net = synth::epa_net();
//! let sensors = SensorSet::full(&net);
//! let dataset = DatasetBuilder::new(&net, sensors)
//!     .max_events(3)
//!     .build(50, 42, 1)
//!     .unwrap();
//! assert_eq!(dataset.x.rows(), 50);
//! assert_eq!(dataset.labels.len(), net.junction_ids().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod features;
mod generator;
mod noise;
mod placement;
mod sensor;

pub use fault::{FaultInjector, FaultModel};
pub use features::{feature_row, measure, FeatureConfig};
pub use generator::{BuildSummary, DatasetBuilder, LeakDataset, ScenarioSampler, SensingError};
pub use noise::MeasurementNoise;
pub use placement::{k_medoids_placement, PlacementConfig};
pub use sensor::SensorSet;
