//! Session checkpoint → restore: the failover contract of the serving
//! tier. A checkpoint must round-trip bitwise, a restored session must
//! continue the stream exactly as the uninterrupted original would, and
//! corrupt checkpoints must be rejected outright (mirroring the
//! `artifact_integrity.rs` corruption sweeps).

use std::path::PathBuf;
use std::sync::Arc;
use std::sync::OnceLock;

use aqua_artifact::{Codec, SectionWriter, Writer};
use aqua_core::{
    AquaError, AquaScale, AquaScaleConfig, HostedSession, ModelHandle, ProfileArtifact,
    SessionRegistry, SessionState,
};
use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
use aqua_ml::ModelKind;
use aqua_net::{synth, Network};
use aqua_sensing::{FeatureConfig, MeasurementNoise};
use aqua_telemetry::TelemetryCtx;

const SLOTS: u64 = 8;

/// One slot of the replayed trace: `(time, readings in channel order)`.
type Trace = Vec<(u64, Vec<Option<f64>>)>;

fn fixture_config() -> AquaScaleConfig {
    AquaScaleConfig {
        model: ModelKind::LinearR,
        train_samples: 40,
        features: FeatureConfig {
            noise: MeasurementNoise::none(),
            ..FeatureConfig::default()
        },
        threads: 4,
        ..AquaScaleConfig::default()
    }
}

/// One shared model handle for every session in this file (training once
/// keeps the suite fast; sharing the handle is also the fleet shape).
fn handle() -> Arc<ModelHandle> {
    static HANDLE: OnceLock<Arc<ModelHandle>> = OnceLock::new();
    Arc::clone(HANDLE.get_or_init(|| {
        let net = synth::epa_net();
        let config = fixture_config();
        let aqua = AquaScale::new(&net, config.clone());
        let profile = aqua.train_profile().expect("train");
        Arc::new(ModelHandle::new(config, profile))
    }))
}

fn session() -> HostedSession {
    HostedSession::with_handle(synth::epa_net(), handle())
}

/// A leak trace through the sensor set, with channel 0 going stale from
/// slot 3 on — so the replay crosses both a detection and a health
/// quarantine transition, and the checkpoint has to carry both.
fn trace(net: &Network) -> Trace {
    let leak_node = net.junction_ids()[33];
    let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, SLOTS / 2 * 900));
    let sensors = session().sensors();
    (0..=SLOTS)
        .map(|slot| {
            let t = slot * 900;
            let snap =
                solve_snapshot(net, &scenario, t, &SolverOptions::default()).expect("snapshot");
            let mut readings: Vec<Option<f64>> =
                sensors.read(&snap).into_iter().map(Some).collect();
            if slot >= 3 {
                readings[0] = None;
            }
            (t, readings)
        })
        .collect()
}

/// Everything about a detection that is deterministic (latency is
/// wall-clock, so it is excluded from equality).
fn canonical(session: &HostedSession) -> Vec<(u64, Vec<u32>, Vec<usize>)> {
    session
        .detections()
        .iter()
        .map(|d| {
            (
                d.time,
                d.leak_nodes.iter().map(|n| n.index() as u32).collect(),
                d.quarantined.clone(),
            )
        })
        .collect()
}

#[test]
fn checkpoint_roundtrip_is_bitwise_stable() {
    let net = synth::epa_net();
    let trace = trace(&net);
    let mut original = session();
    for (t, readings) in &trace {
        original
            .ingest(*t, readings, TelemetryCtx::none())
            .expect("ingest");
    }
    let first = original.checkpoint();
    // Checkpointing is read-only: a second capture is byte-identical.
    assert_eq!(original.checkpoint(), first);

    // Restore into a fresh session, re-checkpoint: byte-identical again —
    // the state encoding is canonical, not merely equivalent.
    let mut restored = session();
    restored.restore(&first).expect("restore");
    assert_eq!(restored.checkpoint(), first);
    assert_eq!(canonical(&restored), canonical(&original));
    assert_eq!(
        restored.state().slots_observed(),
        original.state().slots_observed()
    );
}

#[test]
fn restored_session_continues_identically_to_an_uninterrupted_run() {
    let net = synth::epa_net();
    let trace = trace(&net);
    let cut = trace.len() / 2;

    // The uninterrupted reference.
    let mut uninterrupted = session();
    for (t, readings) in &trace {
        uninterrupted
            .ingest(*t, readings, TelemetryCtx::none())
            .expect("reference ingest");
    }

    // A replica serves the first half, checkpoints, and is "killed"; a
    // peer restores the checkpoint and serves the rest.
    let mut doomed = session();
    for (t, readings) in &trace[..cut] {
        doomed
            .ingest(*t, readings, TelemetryCtx::none())
            .expect("first-half ingest");
    }
    let checkpoint = doomed.checkpoint();
    drop(doomed);

    let mut peer = session();
    peer.restore(&checkpoint).expect("restore on peer");
    for (t, readings) in &trace[cut..] {
        peer.ingest(*t, readings, TelemetryCtx::none())
            .expect("second-half ingest");
    }

    assert_eq!(
        canonical(&peer),
        canonical(&uninterrupted),
        "post-restore detections must match the uninterrupted run"
    );
    assert!(
        !canonical(&peer).is_empty(),
        "the trace must actually detect the leak"
    );
    assert_eq!(
        peer.state().slots_observed(),
        uninterrupted.state().slots_observed()
    );
    assert_eq!(
        peer.state().quarantined_channels(),
        uninterrupted.state().quarantined_channels(),
        "health/quarantine state must survive the failover"
    );
    // (The raw checkpoint bytes of the two runs are NOT compared: each
    // detection records its wall-clock inference latency, which
    // legitimately differs between runs. Everything deterministic is.)
}

#[test]
fn single_bit_corrupted_checkpoints_are_rejected() {
    let net = synth::epa_net();
    let trace = trace(&net);
    let mut original = session();
    for (t, readings) in &trace {
        original
            .ingest(*t, readings, TelemetryCtx::none())
            .expect("ingest");
    }
    let bytes = original.checkpoint();

    let mut target = session();
    let stride = (bytes.len() / 64).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x08;
        assert!(
            target.restore(&corrupted).is_err(),
            "bit flip at byte {pos} must not restore"
        );
        // The failed restore must not have touched the session.
        assert_eq!(target.state().slots_observed(), 0);
    }
    for cut in [0, 8, 12, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            target.restore(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes must not restore"
        );
    }
    // The intact checkpoint still restores after all those rejections.
    target.restore(&bytes).expect("intact checkpoint restores");
    assert_eq!(canonical(&target), canonical(&original));
}

#[test]
fn checkpoints_from_the_wrong_network_are_rejected() {
    let epa = session();
    let checkpoint = epa.checkpoint();
    let wssc_handle = {
        let net = synth::wssc_subnet();
        let config = fixture_config();
        let aqua = AquaScale::new(&net, config.clone());
        let profile = aqua.train_profile().expect("train wssc");
        Arc::new(ModelHandle::new(config, profile))
    };
    let mut wssc = HostedSession::with_handle(synth::wssc_subnet(), wssc_handle);
    assert!(
        wssc.restore(&checkpoint).is_err(),
        "an EPA-NET checkpoint must not restore into a WSSC session"
    );
}

#[test]
fn profile_artifacts_do_not_restore_as_checkpoints() {
    // Disjoint section names: a valid `.aquaprof` is a valid *container*
    // but must still be refused as a checkpoint.
    let net = synth::epa_net();
    let config = fixture_config();
    let aqua = AquaScale::new(&net, config);
    let profile = aqua.train_profile().expect("train");
    let artifact = aqua_core::ProfileArtifact::capture(&aqua, profile).to_bytes();
    let mut target = session();
    assert!(target.restore(&artifact).is_err());
    assert!(aqua_core::checkpoint_meta(&artifact).is_err());
}

#[test]
fn checkpoint_meta_reads_provenance_without_a_session() {
    let net = synth::epa_net();
    let trace = trace(&net);
    let mut s = session();
    for (t, readings) in &trace[..3] {
        s.ingest(*t, readings, TelemetryCtx::none())
            .expect("ingest");
    }
    let bytes = s.checkpoint();
    let (network, channels, slots) = aqua_core::checkpoint_meta(&bytes).expect("meta");
    assert_eq!(network, "EPA-NET");
    assert_eq!(channels, s.channels());
    assert_eq!(slots, 3);
}

#[test]
fn registry_sessions_checkpoint_through_the_shared_lock() {
    let net = synth::epa_net();
    let trace = trace(&net);
    let registry = SessionRegistry::new();
    registry.insert("epa", session());
    for (t, readings) in &trace[..2] {
        registry
            .with_session("epa", |s| s.ingest(*t, readings, TelemetryCtx::none()))
            .expect("session exists")
            .expect("ingest");
    }
    let bytes = registry
        .with_session("epa", |s| s.checkpoint())
        .expect("checkpoint");
    registry.insert("peer", session());
    registry
        .with_session("peer", |s| s.restore(&bytes))
        .expect("peer exists")
        .expect("restore");
    let (a, b) = (
        registry.with_session("epa", |s| s.state().slots_observed()),
        registry.with_session("peer", |s| s.state().slots_observed()),
    );
    assert_eq!(a, b);
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// The golden `epa_linear.aquaprof` profile hosted on EPA-NET after four
/// 15-minute slots of a leak at junction 33 that opens at slot 2 — the
/// session behind `epa_linear_rng_injector_policy.ckpt`.
fn golden_session_after_four_slots() -> HostedSession {
    let net = synth::epa_net();
    let artifact = ProfileArtifact::load(fixture("epa_linear.aquaprof")).expect("golden artifact");
    let mut session = HostedSession::from_artifact(net.clone(), artifact, 7).expect("host");
    let sensors = session.sensors();
    let leak = LeakEvent::new(net.junction_ids()[33], 0.015, 2 * 900);
    let scenario = Scenario::new().with_leak(leak);
    for slot in 0..4 {
        let t = slot * 900;
        let snap = solve_snapshot(&net, &scenario, t, &SolverOptions::default()).expect("snapshot");
        let readings: Vec<Option<f64>> = sensors.read(&snap).into_iter().map(Some).collect();
        session
            .ingest(t, &readings, TelemetryCtx::none())
            .expect("ingest");
    }
    session
}

#[test]
fn checkpoints_in_the_older_state_layout_are_refused() {
    // Written at commit 87c8c54 from `golden_session_after_four_slots`, when
    // a session state also carried an RNG (32 bytes), a fault injector
    // (96 bytes with no stuck or killed channels) and a health policy
    // (56 bytes). The container format version did not change, so the
    // state section itself must fail to decode.
    let old = std::fs::read(fixture("epa_linear_rng_injector_policy.ckpt")).expect("fixture");
    let mut session = golden_session_after_four_slots();
    let current = session.checkpoint();
    assert_eq!(current.len() + 184, old.len());
    assert_eq!(session.detections().len(), 3);

    let err = session
        .restore(&old)
        .expect_err("older layout must not restore");
    assert!(matches!(err, AquaError::Artifact(_)), "{err:?}");
    assert_eq!(
        session.checkpoint(),
        current,
        "a refused restore leaves the session as it was"
    );
}

#[test]
fn checkpoints_whose_state_width_differs_from_the_session_are_refused() {
    // A CRC-valid container whose header names the right network and
    // channel count but whose state holds one channel fewer: adopting it
    // would index past the health trackers on the next ingest.
    let mut target = session();
    let channels = target.channels();
    let mut meta = Writer::new();
    meta.str("EPA-NET");
    meta.len_prefix(channels);
    meta.u64(0);
    let mut state = Writer::new();
    SessionState::new(channels - 1).encode(&mut state);
    let mut sections = SectionWriter::new();
    sections.section("ckpt.meta", |w| w.raw(&meta.into_bytes()));
    sections.section("ckpt.state", |w| w.raw(&state.into_bytes()));
    let crafted = sections.into_container();

    let before = target.checkpoint();
    let err = target
        .restore(&crafted)
        .expect_err("wrong width must not restore");
    assert!(matches!(err, AquaError::InvalidConfig { .. }), "{err:?}");
    assert_eq!(target.checkpoint(), before);
    let net = synth::epa_net();
    let (t, readings) = &trace(&net)[0];
    target
        .ingest(*t, readings, TelemetryCtx::none())
        .expect("the session still ingests");
}
