//! A fault-free campaign replay keeps its session sighted: rendered with
//! the tenant's measurement noise, honest channels never repeat a value
//! bit for bit, so the stuck check quarantines none of them and the
//! session flags leak onsets at their true nodes.

use aqua_campaign::{render, BackgroundLeaks, CampaignPlan, RenderOptions};
use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact};
use aqua_ml::ModelKind;
use aqua_net::{synth, Network};
use aqua_telemetry::TelemetryCtx;

/// Replays the background-leak plan on `net` and returns how many of its
/// leak onsets the session flags at the true node within two slots.
fn onsets_flagged(net: &Network) -> usize {
    let aqua = AquaScale::new(
        net,
        AquaScaleConfig {
            model: ModelKind::LinearR,
            train_samples: 400,
            threads: 2,
            ..AquaScaleConfig::default()
        },
    );
    let artifact = ProfileArtifact::capture(&aqua, aqua.train_profile().expect("phase I"));
    let noise = artifact.features.noise;
    let compiled = CampaignPlan::new(1106, 36)
        .with(BackgroundLeaks {
            count: 3,
            coefficient: 0.01,
        })
        .compile(net, TelemetryCtx::none())
        .expect("compile");
    let rendered = render(
        net,
        &aqua.sensors(),
        &noise,
        &compiled,
        &RenderOptions::default(),
        TelemetryCtx::none(),
    )
    .expect("render");

    let mut session = HostedSession::from_artifact(net.clone(), artifact, 0).expect("session");
    for (&t, row) in rendered.times.iter().zip(&rendered.readings) {
        session
            .ingest(t, row, TelemetryCtx::none())
            .expect("ingest");
        assert_eq!(
            session.state().quarantined_channels(),
            Vec::<usize>::new(),
            "{}: a fault-free channel is quarantined at t={t}",
            net.name()
        );
    }

    let mut onsets: Vec<u64> = compiled
        .leaks
        .iter()
        .map(|leak| leak.start / compiled.slot_seconds)
        .collect();
    onsets.sort_unstable();
    assert_eq!(onsets, [14, 24, 29], "{}: the plan's onsets", net.name());
    compiled
        .leaks
        .iter()
        .filter(|leak| {
            session.detections().iter().any(|d| {
                (leak.start..=leak.start + 2 * compiled.slot_seconds).contains(&d.time)
                    && d.leak_nodes.contains(&leak.node)
            })
        })
        .count()
}

#[test]
fn fault_free_replay_quarantines_nothing_and_flags_onsets() {
    for net in [synth::epa_net(), synth::wssc_subnet()] {
        let flagged = onsets_flagged(&net);
        println!("{}: {flagged} of 3 onsets flagged", net.name());
        assert!(flagged >= 1, "{}: no onset flagged", net.name());
    }
}
