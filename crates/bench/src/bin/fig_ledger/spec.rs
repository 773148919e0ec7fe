//! The four workloads, frozen. Rates were calibrated on a 2-vCPU Xeon so
//! that the top rung is past the fastest saturation measured. On a quiet
//! host the nominal rates sit at 0.32 (ingest-epa-lite), 0.21
//! (ingest-wssc-hybrid) and 0.24 (ingest-epa-mixed) of the median measured
//! saturation. The two heavier workloads are below the 30% first planned,
//! because nearer the queueing knee a small slowdown of the shared host
//! became a large wait (CALIBRATION.md). A change to any number here is a
//! change to the benchmark, not to the system.

use aqua_ml::ModelKind;
use aqua_net::{synth, Network};

/// Which synthetic network a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// EPA-NET: 91 junctions, 217 sensor channels.
    Epa,
    /// WSSC-SUBNET: 298 junctions, 617 sensor channels (~12 KB bodies).
    Wssc,
}

impl Net {
    pub fn build(self) -> Network {
        match self {
            Net::Epa => synth::epa_net(),
            Net::Wssc => synth::wssc_subnet(),
        }
    }
}

/// What the timed part of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One ingest POST per slot, open loop over the rate ladder.
    Ingest,
    /// Per slot an ingest POST, a detections GET and a checkpoint GET, on
    /// sessions created through the vault; every [`INSTALL_EVERY`]
    /// requests a model install of the same artifact bytes.
    Mixed,
    /// Repeated offline `AquaScale::train_profile` builds; no HTTP. Its
    /// traced run still hosts the built profile at the nominal rate so
    /// that every per-layer metric is measured on this workload's inputs;
    /// the other rungs are unused.
    Phase1,
}

/// Requests between two model installs in a [`Kind::Mixed`] workload.
pub const INSTALL_EVERY: u64 = 1000;

/// Index of the nominal rung in every ladder.
pub const NOMINAL: usize = 1;

/// One frozen workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    /// HybridRSL when true, LinearR otherwise.
    pub hybrid: bool,
    /// Phase-I corpus size: the profile the ingest workloads host, or the
    /// corpus each Phase-I build generates.
    pub corpus: usize,
    pub kind: Kind,
    /// Hosted sessions, split evenly over the two generator threads.
    pub sessions: usize,
    /// Offered rates, requests per second: below nominal, [`NOMINAL`],
    /// above nominal, and past saturation.
    pub ladder: [f64; 4],
    /// The p99 limit of `sustained_rps`, milliseconds; also the lateness
    /// growth that marks a rung unsteady.
    pub p99_limit_ms: f64,
}

impl Workload {
    pub fn model(&self) -> ModelKind {
        if self.hybrid {
            ModelKind::hybrid_rsl()
        } else {
            ModelKind::LinearR
        }
    }

    pub fn nominal_rate(&self) -> f64 {
        self.ladder[NOMINAL]
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest-epa-lite",
        net: Net::Epa,
        hybrid: false,
        corpus: 600,
        kind: Kind::Ingest,
        sessions: 8,
        ladder: [1400.0, 2800.0, 5600.0, 11200.0],
        p99_limit_ms: 2.0,
    },
    Workload {
        name: "ingest-wssc-hybrid",
        net: Net::Wssc,
        hybrid: true,
        corpus: 300,
        kind: Kind::Ingest,
        sessions: 8,
        ladder: [400.0, 600.0, 1200.0, 3600.0],
        p99_limit_ms: 5.0,
    },
    Workload {
        name: "ingest-epa-mixed",
        net: Net::Epa,
        hybrid: true,
        corpus: 600,
        kind: Kind::Mixed,
        sessions: 8,
        ladder: [600.0, 1200.0, 2400.0, 8000.0],
        p99_limit_ms: 3.0,
    },
    Workload {
        name: "phase1-wssc",
        net: Net::Wssc,
        hybrid: true,
        corpus: 400,
        kind: Kind::Phase1,
        sessions: 8,
        ladder: [250.0, 250.0, 250.0, 250.0],
        p99_limit_ms: 5.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
