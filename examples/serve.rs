//! Serving quickstart: train a profile, save it as a `.aquaprof` artifact,
//! load it back, host it behind the HTTP server, and drive detection over
//! the wire — the full train → ship → serve loop from DESIGN.md §9.
//!
//! Run with: `cargo run --release --example serve`

use std::sync::Arc;

use aquascale::core::{
    AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact, SessionRegistry,
};
use aquascale::hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
use aquascale::ml::ModelKind;
use aquascale::net::synth;
use aquascale::sensing::{measure, FaultInjector, FaultModel};
use aquascale::serve::{client, wire, ServeConfig, Server};
use aquascale::telemetry::TelemetryHub;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Phase I — train a profile on EPA-NET and package it. In a real
    //    deployment this runs offline; the artifact is what ships.
    let net = synth::epa_net();
    let config = AquaScaleConfig {
        model: ModelKind::LinearR,
        train_samples: 60,
        ..AquaScaleConfig::small()
    };
    let aqua = AquaScale::new(&net, config);
    println!("training profile model (LinearR, 60 scenarios)...");
    let profile = aqua.train_profile()?;
    let artifact = ProfileArtifact::capture(&aqua, profile);

    let path = std::env::temp_dir().join("aquascale-example.aquaprof");
    artifact.save(&path)?;
    println!(
        "saved {} ({} bytes, format v{})",
        path.display(),
        std::fs::metadata(&path)?.len(),
        aquascale::artifact::FORMAT_VERSION
    );

    // 2. Load the artifact (checksummed + versioned: corruption or a
    //    future format refuses to decode) and host it in a session.
    let loaded = ProfileArtifact::load(&path)?;
    let noise = loaded.features.noise;
    let session = HostedSession::from_artifact(net.clone(), loaded, 7)?;
    let sensors = session.sensors();

    let registry = Arc::new(SessionRegistry::new());
    registry.insert("epa", session);
    let hub = Arc::new(TelemetryHub::new());
    let server = Server::start(
        Arc::clone(&registry),
        Arc::clone(&hub),
        ServeConfig::default(),
    )?;
    let addr = server.local_addr();
    println!("serving on http://{addr}");

    let health = client::get(addr, "/healthz")?;
    println!("GET /healthz -> {} {}", health.status, health.body.trim());

    // 3. Phase II over the wire — a leak starts at slot 4; POST each
    //    slot's sensor readings to the session's ingest endpoint. The
    //    sensors read with the measurement noise the profile was trained
    //    under, as deployed transducers do.
    let leak_node = net.junction_ids()[33];
    let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, 4 * 900));
    let mut rng = StdRng::seed_from_u64(7);
    let mut injector = FaultInjector::new(FaultModel::none());
    for slot in 0..=10u64 {
        let t = slot * 900;
        let snap = solve_snapshot(&net, &scenario, t, &SolverOptions::default())?;
        let readings = measure(&sensors, &[(slot, &snap)], &noise, &mut rng, &mut injector);
        let body = wire::ingest_body(&[(t, &readings[0])]);
        let resp = client::post_json(addr, "/v1/sessions/epa/ingest", &body)?;
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    // 4. Query what the hosted session detected.
    let detections = client::get(addr, "/v1/sessions/epa/detections")?;
    println!("GET /v1/sessions/epa/detections -> {}", detections.status);
    println!("{}", detections.body.trim());
    println!("true leak: {:?}", net.node(leak_node).name);
    // No fault was injected, so the session must hold every channel.
    assert!(
        detections
            .body
            .contains("\"quarantined\":[],\"detections\""),
        "a fault-free stream quarantined channels"
    );

    let metrics = client::get(addr, "/metrics")?;
    println!(
        "GET /metrics -> {} ({} bytes of registry)",
        metrics.status,
        metrics.body.len()
    );

    // 5. Graceful shutdown: in-flight work drains, threads join.
    server.shutdown();
    std::fs::remove_file(&path).ok();
    println!("server drained and stopped");
    Ok(())
}
