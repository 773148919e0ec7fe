//! Campaign quickstart: declare a 3-hazard mix, compile it onto one EPS
//! timeline, render the sensor trace, and replay it through a live
//! `aqua-serve` instance with an in-process lockstep reference —
//! the DESIGN.md §14 loop end to end.
//!
//! Run with: `cargo run --release --example campaign`

use aquascale::campaign::{
    render, replay_hosted, BackgroundLeaks, CampaignPlan, FreezeWave, RenderOptions, SensorSpoof,
};
use aquascale::core::{AquaScale, AquaScaleConfig, ProfileArtifact};
use aquascale::ml::ModelKind;
use aquascale::net::synth;
use aquascale::telemetry::TelemetryHub;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the detector that will face the campaign (Phase I).
    let net = synth::epa_net();
    let config = AquaScaleConfig {
        model: ModelKind::LinearR,
        train_samples: 120,
        threads: 4,
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(&net, config);
    println!("training profile model (LinearR, 120 scenarios)...");
    let profile = aqua.train_profile()?;
    let sensors = aqua.sensors();
    let artifact = ProfileArtifact::capture(&aqua, profile);
    let noise = artifact.features.noise;
    let artifact = artifact.to_bytes();

    // 2. Declare the hazard mix. Every activation below is a pure hash
    //    of (seed, stream, step): same plan + seed = same campaign,
    //    byte for byte, on any machine and any thread count.
    let hub = TelemetryHub::new();
    let plan = CampaignPlan::new(42, 24)
        .with(BackgroundLeaks {
            count: 3,
            coefficient: 0.01,
        })
        .with(FreezeWave::new(4, 0.012))
        .with(SensorSpoof {
            rate: 0.1,
            bias: 600.0,
            onset_fraction: 0.5,
        });
    let compiled = plan.compile(&net, hub.ctx())?;
    println!(
        "compiled {} hazard effects onto 24 slots:",
        compiled.events.len()
    );
    for event in &compiled.events {
        println!(
            "  slot {:>2}  {:<16} {}",
            event.slot, event.hazard, event.detail
        );
    }

    // 3. Render: parallel EPS solves, then readings with the profile's
    //    measurement noise and the fault model (including the Malicious
    //    coordinated bias the quarantine must catch).
    let opts = RenderOptions {
        threads: 4,
        ..RenderOptions::default()
    };
    let rendered = render(&net, &sensors, &noise, &compiled, &opts, hub.ctx())?;
    println!(
        "rendered {} slots: {} spoofed readings, {} fallbacks",
        rendered.times.len(),
        rendered.spoofed_readings,
        rendered.fallbacks
    );

    // 4. Hosted replay: stream the trace through a live aqua-serve
    //    session; the lockstep in-process reference must see identical
    //    detections (dropped = 0 is the acceptance bar).
    let outcome = replay_hosted(&net, &artifact, &rendered, hub.ctx())?;
    println!(
        "hosted replay: {} batches, {} served detections, {} dropped",
        outcome.batches,
        outcome.served.len(),
        outcome.dropped
    );
    for (time, nodes) in &outcome.served {
        println!("  t={time:>5}s  leak at {}", nodes.join(", "));
    }
    assert_eq!(outcome.dropped, 0);
    assert_eq!(outcome.served, outcome.expected);
    println!("served detections match the lockstep reference exactly.");
    Ok(())
}
