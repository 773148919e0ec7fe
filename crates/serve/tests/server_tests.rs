//! End-to-end server tests: routing, ingest parity with the in-process
//! path, load shedding under overload, and graceful drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact, SessionRegistry};
use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
use aqua_net::synth;
use aqua_serve::wire::{ingest_body, parse_detections, session_detections};
use aqua_serve::{client, ServeConfig, Server};
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

fn start(config: ServeConfig) -> (Server, Arc<SessionRegistry>, Arc<TelemetryHub>) {
    let registry = Arc::new(SessionRegistry::new());
    let hub = Arc::new(TelemetryHub::new());
    let server = Server::start(Arc::clone(&registry), Arc::clone(&hub), config).expect("bind");
    (server, registry, hub)
}

#[test]
fn healthz_metrics_and_routing() {
    let (server, _registry, _hub) = start(ServeConfig::default());
    let addr = server.local_addr();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));
    assert!(health.body.contains("\"sessions\":0"));

    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    metrics.json().expect("metrics body is valid JSON");

    let sessions = client::get(addr, "/v1/sessions").unwrap();
    assert_eq!(sessions.status, 200);
    assert!(sessions.body.contains("\"sessions\":[]"));

    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    // Known path, wrong method.
    assert_eq!(
        client::post_json(addr, "/healthz", "{}").unwrap().status,
        405
    );
    assert_eq!(
        client::get(addr, "/v1/sessions/none/detections")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::post_json(addr, "/v1/sessions/none/ingest", "{\"batches\":[]}")
            .unwrap()
            .status,
        404
    );

    server.shutdown();
}

#[test]
fn bad_requests_get_4xx_not_hangs() {
    let (server, registry, _hub) = start(ServeConfig {
        max_body_bytes: 1024,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    registry.insert("epa", hosted_session());

    // Malformed JSON.
    let resp = client::post_json(addr, "/v1/sessions/epa/ingest", "{oops").unwrap();
    assert_eq!(resp.status, 400);
    // Wrong reading count.
    let resp = client::post_json(
        addr,
        "/v1/sessions/epa/ingest",
        "{\"batches\":[{\"time\":0,\"readings\":[1.0]}]}",
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("expected"));
    // Oversized body.
    let big = ingest_body(&[(0, vec![Some(1.5); 400])]);
    assert!(big.len() > 1024);
    let resp = client::post_json(addr, "/v1/sessions/epa/ingest", &big).unwrap();
    assert_eq!(resp.status, 413);

    server.shutdown();
}

#[test]
fn deeply_nested_json_gets_400_and_the_server_stays_up() {
    let (server, registry, _hub) = start(ServeConfig::default());
    let addr = server.local_addr();
    registry.insert("epa", hosted_session());

    // 200,000 open brackets: far under the body cap, far past a worker's
    // stack if the parser recursed into every level.
    let body = "[".repeat(200_000);
    let resp = client::post_json(addr, "/v1/sessions/epa/ingest", &body).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    server.shutdown();
}

fn hosted_session() -> HostedSession {
    let net = synth::epa_net();
    let config = AquaScaleConfig {
        model: aqua_ml::ModelKind::LinearR,
        train_samples: 40,
        threads: 4,
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(&net, config);
    let profile = aqua.train_profile().expect("train");
    let artifact = ProfileArtifact::capture(&aqua, profile);
    HostedSession::from_artifact(synth::epa_net(), artifact, 7).expect("host")
}

/// Per-slot reading vectors for a leak scenario, in sensor channel order.
fn reading_trace(session: &HostedSession, slots: u64) -> Vec<(u64, Vec<Option<f64>>)> {
    let net = synth::epa_net();
    let leak_node = net.junction_ids()[33];
    let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, 4 * 900));
    let sensors = session.sensors();
    (0..=slots)
        .map(|slot| {
            let t = slot * 900;
            let snap = solve_snapshot(&net, &scenario, t, &SolverOptions::default()).unwrap();
            let readings = sensors.read(&snap).into_iter().map(Some).collect();
            (t, readings)
        })
        .collect()
}

#[test]
fn http_ingest_matches_in_process_detections() {
    // Two identically-trained sessions (training is seeded, so two builds
    // yield the same model): one behind HTTP, one driven in-process.
    // Identical readings must produce identical detections — the HTTP hop
    // adds transport, not semantics.
    let served = hosted_session();
    let mut reference = hosted_session();
    let trace = reading_trace(&served, 10);

    let (server, registry, _hub) = start(ServeConfig::default());
    let addr = server.local_addr();
    registry.insert("epa", served);

    for (t, readings) in &trace {
        reference
            .ingest(*t, readings, TelemetryCtx::none())
            .expect("reference ingest");
    }
    let body = ingest_body(&trace);
    let resp = client::post_json(addr, "/v1/sessions/epa/ingest", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let accepted = resp.json().unwrap().get("accepted").unwrap().as_u64();
    assert_eq!(accepted, Some(trace.len() as u64));

    let detections = client::get(addr, "/v1/sessions/epa/detections").unwrap();
    assert_eq!(detections.status, 200);
    let expected = session_detections(&reference);
    assert!(!expected.is_empty(), "trace must detect the leak");
    assert_eq!(
        parse_detections(&detections.body).unwrap(),
        expected,
        "HTTP and in-process detections must agree"
    );

    server.shutdown();
}

#[test]
fn overload_sheds_with_503_and_recovers() {
    let (server, _registry, hub) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // One request parks the only worker; everything past worker + queue
    // must be shed with a 503 + Retry-After.
    let mut clients = Vec::new();
    for _ in 0..8 {
        clients.push(std::thread::spawn(move || {
            client::post_json(addr, "/debug/sleep/400", "").map(|r| r.status)
        }));
    }
    let statuses: Vec<u16> = clients
        .into_iter()
        .map(|c| c.join().unwrap().expect("request completes"))
        .collect();
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + shed, 8, "every request gets an answer: {statuses:?}");
    assert!(shed >= 1, "2x overload must shed: {statuses:?}");
    assert!(ok >= 1, "the worker must still serve: {statuses:?}");
    assert_eq!(
        hub.metrics_snapshot().counter("serve.http.shed"),
        shed as u64,
        "shed count must be visible in metrics"
    );

    // Overload is transient: once the burst clears, service resumes.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);

    server.shutdown();
}

#[test]
fn shed_responses_carry_retry_after() {
    let (server, _registry, _hub) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        retry_after_s: 7,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let mut clients = Vec::new();
    for _ in 0..8 {
        clients.push(std::thread::spawn(move || {
            client::post_json(addr, "/debug/sleep/300", "")
        }));
    }
    let responses: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().unwrap().expect("request completes"))
        .collect();
    let shed: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    assert!(!shed.is_empty(), "burst must shed at least one request");
    for resp in shed {
        assert_eq!(resp.header("retry-after"), Some("7"));
    }

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let (server, _registry, _hub) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // Park a worker on a slow request, then shut down while it runs.
    let slow = std::thread::spawn(move || client::post_json(addr, "/debug/sleep/500", ""));
    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    server.shutdown();
    let drained_in = t0.elapsed();

    // The in-flight request completed successfully (drain, not abort)...
    let resp = slow.join().unwrap().expect("in-flight request completes");
    assert_eq!(resp.status, 200);
    // ...and shutdown waited for it.
    assert!(
        drained_in >= Duration::from_millis(300),
        "shutdown returned in {drained_in:?}, before the in-flight request"
    );

    // The listener is gone: new connections fail.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "socket must be closed after shutdown"
    );
}
