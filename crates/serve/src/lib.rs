//! `aqua-serve`: an embedded HTTP serving layer for AquaSCALE deployments.
//!
//! Hosts concurrent [`MonitoringSession`](aqua_core::MonitoringSession)-style
//! streams (as [`aqua_core::HostedSession`]s in a shared
//! [`aqua_core::SessionRegistry`]) behind a small threaded HTTP/1.1 server
//! built entirely on `std::net` — no external dependencies. Field gateways
//! POST batched sensor readings per timestep; the readings run through the
//! same fault-injection → health/quarantine → Phase-II inference path as
//! in-process monitoring, so detections are bit-for-bit identical to what a
//! co-located pipeline would produce.
//!
//! Operational posture:
//!
//! * **Bounded everything** — fixed worker pool, bounded accept queue,
//!   per-connection read/write timeouts, capped body sizes. Overload is
//!   answered with `503` + `Retry-After` (never an unbounded buffer), and
//!   the shed count is visible at `/metrics` (`serve.http.shed`).
//! * **Graceful drain** — shutdown stops the acceptor, finishes queued
//!   requests, then joins every thread.
//! * **Observable** — `/healthz` for liveness, `/metrics` for the live
//!   [`aqua_telemetry::TelemetryHub`] snapshot including request counts and
//!   latency histograms.
//!
//! # Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use aqua_core::{HostedSession, ProfileArtifact, SessionRegistry};
//! use aqua_net::synth;
//! use aqua_serve::{Server, ServeConfig};
//! use aqua_telemetry::TelemetryHub;
//!
//! let artifact = ProfileArtifact::load("epa-net.aquaprof").unwrap();
//! let session = HostedSession::from_artifact(synth::epa_net(), artifact, 7).unwrap();
//! let registry = Arc::new(SessionRegistry::new());
//! registry.insert("epa", session);
//!
//! let hub = Arc::new(TelemetryHub::new());
//! let server = Server::start(registry, hub, ServeConfig::default()).unwrap();
//! println!("serving on http://{}", server.local_addr());
//! // ... POST /v1/sessions/epa/ingest, GET /v1/sessions/epa/detections ...
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod fleet;
pub mod http;
pub mod json;
pub mod pool;
pub mod router;
mod routes;
mod server;
pub mod vault;
pub mod wire;

pub use chaos::{Fault, FaultPlan};
pub use fleet::{
    BackendPool, BackendSpec, BackendState, HealthCheckPolicy, HealthChecker, ServiceRegistry,
};
pub use router::{ForwardRecord, Router};
pub use server::{ServeConfig, Server};
pub use vault::ModelVault;
