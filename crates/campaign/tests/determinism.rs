//! Campaign determinism: same plan + seed ⇒ byte-identical timelines,
//! readings, detection streams, and flushed JSONL telemetry event
//! streams — across repeated runs and across {1, 2, 8} render threads.

use aqua_campaign::{
    render, replay_hosted, BackgroundLeaks, CampaignPlan, ContaminationIntrusion, FreezeWave,
    MainBreakFlood, PumpTrips, RenderOptions, SensorSpoof,
};
use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact};
use aqua_ml::ModelKind;
use aqua_net::{synth, Network};
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

const SEED: u64 = 42;
const SLOTS: u64 = 12;

fn mixed_plan(seed: u64) -> CampaignPlan {
    CampaignPlan::new(seed, SLOTS)
        .with(BackgroundLeaks {
            count: 2,
            coefficient: 0.01,
        })
        .with(FreezeWave::new(3, 0.012))
        .with(PumpTrips {
            count: 1,
            duration_slots: 2,
        })
        .with(ContaminationIntrusion {
            sources: 1,
            concentration_mg_l: 5.0,
        })
        .with(MainBreakFlood { coefficient: 0.06 })
        .with(SensorSpoof {
            rate: 0.1,
            bias: 600.0,
            onset_fraction: 0.5,
        })
}

fn small_config() -> AquaScaleConfig {
    AquaScaleConfig {
        model: ModelKind::LinearR,
        train_samples: 150,
        threads: 2,
        ..AquaScaleConfig::default()
    }
}

#[test]
fn compile_is_deterministic_and_covers_every_hazard() {
    let net = synth::epa_net();
    let a = mixed_plan(SEED)
        .compile(&net, TelemetryCtx::none())
        .expect("compile a");
    let b = mixed_plan(SEED)
        .compile(&net, TelemetryCtx::none())
        .expect("compile b");
    assert_eq!(a.leaks, b.leaks);
    assert_eq!(a.trips, b.trips);
    assert_eq!(a.contamination, b.contamination);
    assert_eq!(a.frozen, b.frozen);
    assert_eq!(a.events, b.events);
    assert_eq!(a.faults, b.faults);
    assert!(!a.leaks.is_empty(), "background + freeze + main break leak");
    assert!(!a.trips.is_empty());
    assert!(!a.contamination.is_empty());
    assert!(!a.frozen.is_empty());
    assert!(a.flood.is_some());
    assert!(a.faults.malicious_rate > 0.0);
    // A different seed reshuffles the schedule.
    let c = mixed_plan(SEED + 1)
        .compile(&net, TelemetryCtx::none())
        .expect("compile c");
    assert_ne!(a.leaks, c.leaks);
}

fn render_bits(net: &Network, threads: usize) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let compiled = mixed_plan(SEED)
        .compile(net, TelemetryCtx::none())
        .expect("compile");
    let probe = AquaScale::new(net, small_config());
    let sensors = probe.sensors();
    let noise = probe.config().features.noise;
    let opts = RenderOptions {
        threads,
        ..RenderOptions::default()
    };
    let rendered = render(
        net,
        &sensors,
        &noise,
        &compiled,
        &opts,
        TelemetryCtx::none(),
    )
    .expect("render");
    let truth_bits = rendered
        .truth
        .iter()
        .flatten()
        .map(|v| v.to_bits())
        .collect();
    let reading_bits = rendered
        .readings
        .iter()
        .flatten()
        .map(|v| v.map_or(u64::MAX, f64::to_bits))
        .collect();
    (
        truth_bits,
        reading_bits,
        rendered.fallbacks,
        rendered.spoofed_readings,
    )
}

#[test]
fn render_is_byte_identical_across_thread_counts() {
    let net = synth::epa_net();
    let reference = render_bits(&net, 1);
    for threads in [2, 8] {
        let run = render_bits(&net, threads);
        assert_eq!(reference, run, "threads={threads} diverged from serial");
    }
}

#[test]
fn telemetry_event_stream_is_byte_identical_across_runs() {
    let net = synth::epa_net();
    let probe = AquaScale::new(&net, small_config());
    let sensors = probe.sensors();
    let noise = probe.config().features.noise;
    let jsonl = || {
        let hub = TelemetryHub::new();
        let compiled = mixed_plan(SEED).compile(&net, hub.ctx()).expect("compile");
        let opts = RenderOptions {
            threads: 4,
            ..RenderOptions::default()
        };
        render(&net, &sensors, &noise, &compiled, &opts, hub.ctx()).expect("render");
        let mut out = Vec::new();
        hub.write_events_jsonl(&mut out).expect("flush");
        out
    };
    let first = jsonl();
    assert!(
        !first.is_empty(),
        "compile must emit campaign.hazard events"
    );
    assert_eq!(first, jsonl());
}

#[test]
fn hosted_replay_matches_lockstep_reference_and_repeats() {
    let net = synth::epa_net();
    let aqua = AquaScale::new(&net, small_config());
    let profile = aqua.train_profile().expect("phase I");
    let artifact = ProfileArtifact::capture(&aqua, profile).to_bytes();
    let sensors = aqua.sensors();
    let noise = aqua.config().features.noise;
    let compiled = mixed_plan(SEED)
        .compile(&net, TelemetryCtx::none())
        .expect("compile");
    let rendered = render(
        &net,
        &sensors,
        &noise,
        &compiled,
        &RenderOptions::default(),
        TelemetryCtx::none(),
    )
    .expect("render");

    // Detections through an in-process session are repeatable.
    let detections = || {
        let art = ProfileArtifact::from_bytes(&artifact).expect("decode");
        let mut session = HostedSession::from_artifact(net.clone(), art, 0).expect("session");
        for (&t, row) in rendered.times.iter().zip(&rendered.readings) {
            session
                .ingest(t, row, TelemetryCtx::none())
                .expect("ingest");
        }
        session
            .detections()
            .iter()
            .map(|d| (d.time, d.leak_nodes.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(detections(), detections());

    // The hosted arm serves exactly the lockstep reference's detections,
    // and its telemetry event stream is byte-identical across runs.
    let outcome =
        replay_hosted(&net, &artifact, &rendered, TelemetryCtx::none()).expect("hosted replay");
    assert_eq!(outcome.dropped, 0, "served must not drop detections");
    assert_eq!(outcome.served, outcome.expected);
    assert_eq!(outcome.batches, SLOTS);
    let again = replay_hosted(&net, &artifact, &rendered, TelemetryCtx::none())
        .expect("hosted replay again");
    assert_eq!(outcome.events, again.events);
}
