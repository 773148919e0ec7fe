//! Fleet-tier end-to-end tests: hot-swap apply and refusal over HTTP,
//! checkpoint restore onto a peer replica, and chaos-harness event-stream
//! determinism.

use std::sync::Arc;

use aqua_core::{AquaScale, AquaScaleConfig, ProfileArtifact, SessionRegistry};
use aqua_net::{synth, Network};
use aqua_serve::fleet::{BackendPool, BackendSpec, HealthCheckPolicy, HealthChecker};
use aqua_serve::wire::{ingest_body, parse_detections, session_detections};
use aqua_serve::{chaos, client, FaultPlan, ModelVault, ServeConfig, Server};
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

const SEED: u64 = 7;

fn smoke_config(train_samples: usize) -> AquaScaleConfig {
    AquaScaleConfig {
        model: aqua_ml::ModelKind::LinearR,
        train_samples,
        threads: 4,
        ..AquaScaleConfig::default()
    }
}

fn artifact_bytes(net: &Network, train_samples: usize) -> Vec<u8> {
    let aqua = AquaScale::new(net, smoke_config(train_samples));
    let profile = aqua.train_profile().expect("train");
    ProfileArtifact::capture(&aqua, profile).to_bytes()
}

/// A copy of a valid container with its FORMAT_VERSION bumped and the
/// CRC recomputed — structurally intact, semantically from the future.
fn wrong_version(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let version_at = aqua_artifact::MAGIC.len();
    let bumped = aqua_artifact::FORMAT_VERSION + 1;
    out[version_at..version_at + 4].copy_from_slice(&bumped.to_le_bytes());
    let body_len = out.len() - 4;
    let crc = aqua_artifact::crc32(&out[..body_len]);
    out[body_len..].copy_from_slice(&crc.to_le_bytes());
    out
}

fn start_replica(
    artifact: &[u8],
) -> (
    Server,
    Arc<SessionRegistry>,
    Arc<ModelVault>,
    Arc<TelemetryHub>,
) {
    let net = synth::epa_net();
    let registry = Arc::new(SessionRegistry::new());
    let vault = Arc::new(ModelVault::new());
    let hub = Arc::new(TelemetryHub::new());
    vault
        .register_artifact(
            net,
            ProfileArtifact::from_bytes(artifact).expect("decode artifact"),
        )
        .expect("register tenant");
    let server = Server::start_with_vault(
        Arc::clone(&registry),
        Arc::clone(&vault),
        Arc::clone(&hub),
        ServeConfig::default(),
    )
    .expect("bind");
    (server, registry, vault, hub)
}

/// Per-slot reading vectors for a leak scenario, in sensor channel order.
fn reading_trace(net: &Network, slots: u64) -> Vec<(u64, Vec<Option<f64>>)> {
    use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
    let leak_node = net.junction_ids()[33];
    let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, 4 * 900));
    let config = smoke_config(40);
    let aqua = AquaScale::new(net, config);
    let sensors = aqua.sensors();
    (0..=slots)
        .map(|slot| {
            let t = slot * 900;
            let snap = solve_snapshot(net, &scenario, t, &SolverOptions::default()).unwrap();
            let readings = sensors
                .pressure_nodes
                .iter()
                .map(|&n| Some(snap.pressure(n)))
                .chain(sensors.flow_links.iter().map(|&l| Some(snap.flow(l))))
                .collect();
            (t, readings)
        })
        .collect()
}

#[test]
fn hot_swap_applies_and_refuses_over_http() {
    let net = synth::epa_net();
    let v1 = artifact_bytes(&net, 40);
    let v2 = artifact_bytes(&net, 60);
    let (server, _registry, vault, hub) = start_replica(&v1);
    let addr = server.local_addr();

    // The tenant starts at model version 1.
    let models = client::get(addr, "/v1/models").unwrap();
    assert_eq!(models.status, 200);
    assert!(
        models.body.contains("\"network\":\"EPA-NET\""),
        "{}",
        models.body
    );
    assert!(models.body.contains("\"version\":1"), "{}", models.body);

    // Sessions are created from the vault over HTTP; duplicates conflict.
    let put = client::put_json(
        addr,
        "/v1/sessions/s1",
        "{\"network\":\"EPA-NET\",\"seed\":7}",
    )
    .unwrap();
    assert_eq!(put.status, 200, "{}", put.body);
    let dup = client::put_json(
        addr,
        "/v1/sessions/s1",
        "{\"network\":\"EPA-NET\",\"seed\":7}",
    )
    .unwrap();
    assert_eq!(dup.status, 409);
    let missing =
        client::put_json(addr, "/v1/sessions/s2", "{\"network\":\"NOPE\",\"seed\":7}").unwrap();
    assert_eq!(missing.status, 404);

    // Satellite: every class of bad artifact is refused with the old
    // model left serving — truncated, CRC-flipped, wrong FORMAT_VERSION.
    let bad_uploads = [
        chaos::truncated(&v2, v2.len() / 2),
        chaos::bit_flipped(&v2, (v2.len() / 2) * 8 + 3),
        wrong_version(&v2),
    ];
    for (i, bad) in bad_uploads.iter().enumerate() {
        let resp = client::post_bytes(addr, "/v1/models/EPA-NET", bad).unwrap();
        assert_eq!(resp.status, 400, "bad upload {i} must be refused");
        let models = client::get(addr, "/v1/models").unwrap();
        assert!(
            models.body.contains("\"version\":1"),
            "old model must stay live after refusal {i}: {}",
            models.body
        );
        // The session still serves on the old model.
        let handle = vault.handle("EPA-NET").expect("tenant");
        assert_eq!(handle.version(), 1);
    }

    // The genuine new artifact swaps in with zero downtime.
    let resp = client::post_bytes(addr, "/v1/models/EPA-NET", &v2).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let models = client::get(addr, "/v1/models").unwrap();
    assert!(models.body.contains("\"version\":2"), "{}", models.body);

    // Unknown tenants 404.
    let resp = client::post_bytes(addr, "/v1/models/NOPE", &v2).unwrap();
    assert_eq!(resp.status, 404);

    // Telemetry: three rejections, one apply — counters and events.
    let m = hub.metrics_snapshot();
    assert_eq!(m.counter("serve.swap.rejected"), 3);
    assert_eq!(m.counter("serve.swap.applied"), 1);
    let events = hub.drain_events();
    let swap_events: Vec<&str> = events
        .iter()
        .map(|e| e.name.as_ref())
        .filter(|n| n.starts_with("serve.swap."))
        .collect();
    assert_eq!(
        swap_events
            .iter()
            .filter(|n| **n == "serve.swap.rejected")
            .count(),
        3
    );
    assert_eq!(
        swap_events
            .iter()
            .filter(|n| **n == "serve.swap.applied")
            .count(),
        1
    );

    server.shutdown();
}

#[test]
fn killed_replica_sessions_resume_on_a_peer_bit_identically() {
    let net = synth::epa_net();
    let v1 = artifact_bytes(&net, 40);
    let trace = reading_trace(&net, 8);
    let cut = trace.len() / 2;

    // Uninterrupted in-process reference.
    let mut reference = aqua_core::HostedSession::from_artifact(
        net.clone(),
        ProfileArtifact::from_bytes(&v1).unwrap(),
        SEED,
    )
    .expect("reference");
    for (t, readings) in &trace {
        reference
            .ingest(*t, readings, TelemetryCtx::none())
            .expect("reference ingest");
    }

    // Replica A serves the first half of the stream.
    let (replica_a, _reg_a, _vault_a, _hub_a) = start_replica(&v1);
    let addr_a = replica_a.local_addr();
    let put = client::put_json(
        addr_a,
        "/v1/sessions/s1",
        &format!("{{\"network\":\"EPA-NET\",\"seed\":{SEED}}}"),
    )
    .unwrap();
    assert_eq!(put.status, 200, "{}", put.body);
    let resp = client::post_json(
        addr_a,
        "/v1/sessions/s1/ingest",
        &ingest_body(&trace[..cut]),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Checkpoint the session, then kill replica A.
    let checkpoint = client::get_raw(addr_a, "/v1/sessions/s1/checkpoint").unwrap();
    assert_eq!(checkpoint.status, 200);
    assert_eq!(
        checkpoint.header("content-type"),
        Some("application/octet-stream")
    );
    replica_a.shutdown();

    // Replica B has never seen the session: restore creates it from the
    // vault and resumes the stream.
    let (replica_b, _reg_b, _vault_b, hub_b) = start_replica(&v1);
    let addr_b = replica_b.local_addr();
    let restored = client::post_bytes(addr_b, "/v1/sessions/s1/restore", &checkpoint.body).unwrap();
    assert_eq!(
        restored.status,
        200,
        "{}",
        String::from_utf8_lossy(&restored.body)
    );
    assert_eq!(
        hub_b.metrics_snapshot().counter("serve.session.restored"),
        1
    );
    let resp = client::post_json(
        addr_b,
        "/v1/sessions/s1/ingest",
        &ingest_body(&trace[cut..]),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // The resumed session's detections match the uninterrupted run.
    let detections = client::get(addr_b, "/v1/sessions/s1/detections").unwrap();
    assert_eq!(detections.status, 200);
    let served = parse_detections(&detections.body).unwrap();
    let expected = session_detections(&reference);
    assert!(!expected.is_empty(), "trace must detect the leak");
    assert_eq!(
        served, expected,
        "post-restore detections must match the uninterrupted run"
    );

    // Corrupted checkpoints are refused outright.
    let corrupt = chaos::bit_flipped(&checkpoint.body, 41);
    let resp = client::post_bytes(addr_b, "/v1/sessions/s1/restore", &corrupt).unwrap();
    assert_eq!(resp.status, 400);

    replica_b.shutdown();
}

/// Drives a seeded fault plan through a pump-mode health checker and
/// returns the resulting telemetry event stream as JSONL.
fn chaos_event_stream(seed: u64) -> Vec<String> {
    let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
    let replicas = ["replica-0", "replica-1", "replica-2"];
    for id in replicas {
        pool.add(BackendSpec {
            id: id.to_string(),
            addr: "127.0.0.1:0".parse().unwrap(),
        });
    }
    let plan = FaultPlan::generate(seed, replicas.len(), 64, 4);
    let checker = HealthChecker::new(Arc::clone(&pool));
    let hub = TelemetryHub::new();
    for step in 0..64u64 {
        checker.probe_round_with(&hub, |spec| {
            let idx = replicas.iter().position(|r| *r == spec.id).unwrap();
            // Each planned fault knocks the replica out for three probe
            // rounds — long enough to cross the ejection threshold.
            !(step.saturating_sub(2)..=step).any(|s| plan.disrupts(s, idx))
        });
    }
    hub.drain_events()
        .iter()
        .map(|e| e.to_json_line())
        .collect()
}

#[test]
fn chaos_schedule_reproduces_the_same_telemetry_event_stream() {
    let a = chaos_event_stream(1234);
    let b = chaos_event_stream(1234);
    assert_eq!(a, b, "same seed must reproduce the same event stream");
    assert!(
        a.iter().any(|l| l.contains("serve.fleet.eject")),
        "the plan must actually disrupt replicas: {a:?}"
    );
    let c = chaos_event_stream(99);
    assert_ne!(a, c, "different seeds must explore different schedules");
}
