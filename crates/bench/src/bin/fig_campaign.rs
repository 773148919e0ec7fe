//! Campaign — multi-hazard degradation sweep with hosted replay
//! (DESIGN.md §14).
//!
//! Sweeps four hazard mixes (background leaks; + freeze wave; + pump
//! trips and contamination; + main-break flood and sensor spoofing) over
//! an intensity ladder on both evaluation networks. Each cell compiles a
//! seeded [`CampaignPlan`], renders it through the parallel EPS sweep,
//! and replays the rendered trace through an in-process hosted session,
//! scoring hamming accuracy and normalized localization distance against
//! the timeline's ground truth. The "all" mix at unit intensity
//! additionally replays through a live `aqua-serve` instance and must
//! drop zero detections versus the in-process lockstep reference.
//!
//! The entire sweep runs twice and must produce byte-identical sorted
//! telemetry event streams (campaign compile/render events plus the
//! replay server's stream) — the campaign engine's determinism bar.
//!
//! Emits `BENCH_campaign.json`. Run with:
//! `cargo run --release -p aqua-bench --bin fig_campaign`
//! (`AQUA_SMOKE=1` for the CI smoke scale.)

use std::time::Instant;

use aqua_bench::{f3, print_table, run_scale, write_bench_json};
use aqua_campaign::{
    render, replay_hosted, score_detections, BackgroundLeaks, CampaignPlan, CampaignScore,
    ContaminationIntrusion, FreezeWave, MainBreakFlood, PumpTrips, RenderOptions, SensorSpoof,
};
use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact};
use aqua_ml::ModelKind;
use aqua_net::{synth, Network, NodeId};
use aqua_telemetry::TelemetryHub;

const SEED: u64 = 1106;
/// A harder cell may beat the gentlest cell of its mix by at most this
/// much before degradation stops being "monotone-ish".
const MONOTONE_TOLERANCE: f64 = 0.05;
const MIXES: [&str; 4] = ["leaks", "freeze", "trips-contam", "all"];

fn smoke() -> bool {
    std::env::var("AQUA_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn scaled(base: f64, intensity: f64) -> usize {
    ((base * intensity).round() as usize).max(1)
}

/// The four nested hazard mixes, each scaled by `intensity`.
fn plan_for(mix: &str, intensity: f64, slots: u64) -> CampaignPlan {
    let mut plan = CampaignPlan::new(SEED, slots).with(BackgroundLeaks {
        count: scaled(3.0, intensity),
        coefficient: 0.01,
    });
    if mix != "leaks" {
        plan = plan.with(FreezeWave::new(scaled(4.0, intensity), 0.012));
    }
    if mix == "trips-contam" || mix == "all" {
        plan = plan
            .with(PumpTrips {
                count: scaled(2.0, intensity),
                duration_slots: 2,
            })
            .with(ContaminationIntrusion {
                sources: scaled(2.0, intensity),
                concentration_mg_l: 5.0,
            });
    }
    if mix == "all" {
        plan = plan
            .with(MainBreakFlood {
                coefficient: 0.04 + 0.04 * intensity,
            })
            .with(SensorSpoof {
                rate: (0.06 * intensity).min(0.3),
                bias: 600.0,
                onset_fraction: 0.5,
            });
    }
    plan
}

struct Tenant {
    net: Network,
    artifact: Vec<u8>,
    sensors: aqua_sensing::SensorSet,
}

fn train_tenant(net: Network, train_samples: usize) -> Tenant {
    let config = AquaScaleConfig {
        model: ModelKind::LinearR,
        train_samples,
        threads: 8,
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(&net, config);
    let profile = aqua.train_profile().expect("phase I");
    let sensors = aqua.sensors();
    let artifact = ProfileArtifact::capture(&aqua, profile).to_bytes();
    Tenant {
        net,
        artifact,
        sensors,
    }
}

struct Cell {
    network: String,
    mix: &'static str,
    intensity: f64,
    score: CampaignScore,
    fallbacks: u64,
    spoofed: u64,
    flood_depth_m: f64,
    peak_mg_l: f64,
}

struct SweepOutcome {
    cells: Vec<Cell>,
    /// All telemetry JSONL lines of the run, source-prefixed and sorted.
    events: Vec<String>,
    replay_dropped: usize,
    replay_batches: u64,
}

/// One full sweep over both tenants; repeated verbatim for the
/// determinism bar.
fn run_sweep(tenants: &[Tenant], intensities: &[f64], slots: u64) -> SweepOutcome {
    let hub = TelemetryHub::new();
    let mut cells = Vec::new();
    let mut events: Vec<String> = Vec::new();
    let mut replay_dropped = 0usize;
    let mut replay_batches = 0u64;
    for tenant in tenants {
        for mix in MIXES {
            for &intensity in intensities {
                let plan = plan_for(mix, intensity, slots);
                let compiled = plan.compile(&tenant.net, hub.ctx()).expect("compile");
                let opts = RenderOptions {
                    threads: 8,
                    ..RenderOptions::default()
                };
                // Read with the measurement noise the profile was trained
                // under, then score through an in-process hosted session.
                let artifact = ProfileArtifact::from_bytes(&tenant.artifact).expect("decode");
                let noise = artifact.features.noise;
                let rendered = render(
                    &tenant.net,
                    &tenant.sensors,
                    &noise,
                    &compiled,
                    &opts,
                    hub.ctx(),
                )
                .expect("render");
                let mut session =
                    HostedSession::from_artifact(tenant.net.clone(), artifact, 0).expect("session");
                for (&t, row) in rendered.times.iter().zip(&rendered.readings) {
                    session
                        .ingest(t, row, aqua_telemetry::TelemetryCtx::none())
                        .expect("ingest");
                }
                let detections: Vec<(u64, Vec<NodeId>)> = session
                    .detections()
                    .iter()
                    .map(|d| (d.time, d.leak_nodes.clone()))
                    .collect();
                let score = score_detections(&tenant.net, &rendered, &detections);

                // Hosted replay arm: the full mix at unit intensity must
                // drop nothing versus the lockstep reference.
                if mix == "all" && intensity == 1.0 {
                    let outcome =
                        replay_hosted(&tenant.net, &tenant.artifact, &rendered, hub.ctx())
                            .expect("hosted replay");
                    assert_eq!(
                        outcome.served, outcome.expected,
                        "served detections must match the lockstep reference"
                    );
                    replay_dropped += outcome.dropped;
                    replay_batches += outcome.batches;
                    events.extend(
                        outcome
                            .events
                            .iter()
                            .map(|line| format!("{}-serve {line}", tenant.net.name())),
                    );
                }

                eprintln!(
                    "done: {} {mix} x{intensity:.2} -> hamming {:.3} localization {:.3} \
                     ({} detections, {} fallbacks, {} spoofed)",
                    tenant.net.name(),
                    score.hamming,
                    score.localization,
                    score.detections,
                    rendered.fallbacks,
                    rendered.spoofed_readings,
                );
                cells.push(Cell {
                    network: tenant.net.name().to_string(),
                    mix,
                    intensity,
                    score,
                    fallbacks: rendered.fallbacks,
                    spoofed: rendered.spoofed_readings,
                    flood_depth_m: rendered.flood.as_ref().map_or(0.0, |f| f.max_depth),
                    peak_mg_l: rendered.peak_contamination_mg_l,
                });
            }
        }
    }
    events.extend(hub.drain_events().iter().map(|e| e.to_json_line()));
    events.sort();
    SweepOutcome {
        cells,
        events,
        replay_dropped,
        replay_batches,
    }
}

fn main() {
    let bench_start = Instant::now();
    let (intensities, slots, scale) = if smoke() {
        (vec![0.5, 1.0], 12u64, run_scale(120, 0))
    } else {
        (vec![0.25, 0.5, 1.0, 1.5], 36u64, run_scale(400, 0))
    };
    let tenants = [
        train_tenant(synth::epa_net(), scale.train),
        train_tenant(synth::wssc_subnet(), scale.train),
    ];

    let outcome = run_sweep(&tenants, &intensities, slots);
    let rerun = run_sweep(&tenants, &intensities, slots);
    let events_identical = outcome.events == rerun.events;
    assert!(
        events_identical,
        "telemetry event streams diverged between identical sweeps"
    );

    let rows: Vec<Vec<String>> = outcome
        .cells
        .iter()
        .map(|c| {
            vec![
                c.network.clone(),
                c.mix.to_string(),
                format!("{:.2}", c.intensity),
                f3(c.score.hamming),
                f3(c.score.localization),
                c.score.detections.to_string(),
                c.fallbacks.to_string(),
                c.spoofed.to_string(),
            ]
        })
        .collect();
    print_table(
        "Campaign: degradation vs hazard mix x intensity (LinearR, hosted sessions)",
        &[
            "network",
            "mix",
            "intensity",
            "hamming",
            "localization",
            "detections",
            "fallbacks",
            "spoofed",
        ],
        &rows,
    );

    // Acceptance: all-finite metrics, monotone-ish degradation per
    // (network, mix) ladder, zero dropped detections on the hosted arm,
    // and byte-identical event streams across the two sweeps.
    let all_finite = outcome
        .cells
        .iter()
        .all(|c| c.score.hamming.is_finite() && c.score.localization.is_finite());
    let gentlest = intensities[0];
    let monotone_ish = outcome.cells.iter().all(|c| {
        let base = outcome
            .cells
            .iter()
            .find(|b| b.network == c.network && b.mix == c.mix && b.intensity == gentlest)
            .map_or(f64::NAN, |b| b.score.hamming);
        c.score.hamming <= base + MONOTONE_TOLERANCE
    });
    let met = all_finite && monotone_ish && events_identical && outcome.replay_dropped == 0;

    let json_entries: Vec<String> = outcome
        .cells
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    {{\"network\": \"{}\", \"mix\": \"{}\", \"intensity\": {:.2}, ",
                    "\"hamming\": {:.4}, \"localization\": {:.4}, \"detections\": {}, ",
                    "\"truth_slots\": {}, \"fallbacks\": {}, \"spoofed_readings\": {}, ",
                    "\"flood_max_depth_m\": {:.4}, \"peak_contamination_mg_l\": {:.4}}}"
                ),
                c.network,
                c.mix,
                c.intensity,
                c.score.hamming,
                c.score.localization,
                c.score.detections,
                c.score.truth_slots,
                c.fallbacks,
                c.spoofed,
                c.flood_depth_m,
                c.peak_mg_l,
            )
        })
        .collect();
    let metrics = format!(
        "{{\n    \"config\": {{\"seed\": {SEED}, \"slots\": {slots}, \"train_samples\": {}, \
         \"mixes\": {}, \"smoke\": {}}},\n    \"results\": [\n{}\n    ],\n    \
         \"acceptance\": {{\"all_finite\": {all_finite}, \"monotone_ish\": {monotone_ish}, \
         \"events_identical\": {events_identical}, \"event_lines\": {}, \
         \"replay_dropped\": {}, \"replay_batches\": {}, \"met\": {met}}}\n  }}",
        scale.train,
        MIXES.len(),
        smoke(),
        json_entries.join(",\n"),
        outcome.events.len(),
        outcome.replay_dropped,
        outcome.replay_batches,
    );
    write_bench_json(
        "BENCH_campaign.json",
        "fig_campaign",
        bench_start.elapsed().as_secs_f64(),
        &metrics,
    );
    eprintln!(
        "acceptance: all_finite={all_finite} monotone_ish={monotone_ish} \
         events_identical={events_identical} replay_dropped={} met={met}",
        outcome.replay_dropped
    );
    assert!(met, "campaign acceptance bar not met");
}
