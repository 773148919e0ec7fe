//! Observability integration tests: the version and trace-retrieval
//! endpoints, Prometheus exposition, traced failover with passive
//! ejection, and connection-failure classification under chaos faults.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact, SessionRegistry};
use aqua_net::synth;
use aqua_serve::fleet::{
    BackendPool, BackendSpec, BackendState, HealthCheckPolicy, ServiceRegistry,
};
use aqua_serve::{client, wire, Fault, FaultPlan, ModelVault, Router, ServeConfig, Server};
use aqua_telemetry::{
    Event, TelemetryHub, TraceContext, TraceStitcher, Value, FIELD_SPAN, FIELD_TRACE,
};

/// Training is the expensive part of these tests; do it once and rehydrate
/// per test from the serialized artifact.
static ARTIFACT: OnceLock<Vec<u8>> = OnceLock::new();

fn artifact() -> ProfileArtifact {
    let bytes = ARTIFACT.get_or_init(|| {
        let net = synth::epa_net();
        let config = AquaScaleConfig {
            model: aqua_ml::ModelKind::LinearR,
            train_samples: 40,
            threads: 4,
            ..AquaScaleConfig::default()
        };
        let aqua = AquaScale::new(&net, config);
        let profile = aqua.train_profile().expect("train");
        ProfileArtifact::capture(&aqua, profile).to_bytes()
    });
    ProfileArtifact::from_bytes(bytes).expect("artifact roundtrip")
}

fn hosted_session() -> HostedSession {
    HostedSession::from_artifact(synth::epa_net(), artifact(), 7).expect("host")
}

fn start(config: ServeConfig) -> (Server, Arc<SessionRegistry>, Arc<TelemetryHub>) {
    let registry = Arc::new(SessionRegistry::new());
    let hub = Arc::new(TelemetryHub::new());
    let server = Server::start(Arc::clone(&registry), Arc::clone(&hub), config).expect("bind");
    (server, registry, hub)
}

fn str_field<'e>(e: &'e Event, name: &str) -> &'e str {
    match e.field(name) {
        Some(Value::Str(s)) => s,
        other => panic!("event {} field {name} is {other:?}, want string", e.name),
    }
}

fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

#[test]
fn version_endpoint_reports_build_and_tenants() {
    let vault = Arc::new(ModelVault::new());
    vault
        .register_artifact(synth::epa_net(), artifact())
        .expect("register tenant");
    let registry = Arc::new(SessionRegistry::new());
    let hub = Arc::new(TelemetryHub::new());
    let server =
        Server::start_with_vault(registry, vault, hub, ServeConfig::default()).expect("bind");

    let resp = client::get(server.local_addr(), "/v1/version").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.contains("\"commit\":\""),
        "version body lacks commit: {}",
        resp.body
    );
    assert!(
        resp.body.contains(&format!(
            "\"format_version\":{}",
            aqua_artifact::FORMAT_VERSION
        )),
        "version body lacks artifact format version: {}",
        resp.body
    );
    let tenant = format!("\"network\":\"{}\"", synth::epa_net().name());
    assert!(
        resp.body.contains(&tenant),
        "version body lacks the registered tenant: {}",
        resp.body
    );
    assert!(
        resp.body.contains("\"model_version\":"),
        "version body lacks model_version: {}",
        resp.body
    );

    server.shutdown();
}

#[test]
fn metrics_exposition_serves_prometheus_text() {
    let (server, _registry, _hub) = start(ServeConfig::default());
    let addr = server.local_addr();

    // One observed request so the RED counters are non-empty.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    let resp = client::get_raw(addr, "/metrics?format=prom").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let body = String::from_utf8(resp.body).expect("utf-8 exposition");
    assert!(
        body.contains("# TYPE aqua_serve_http_requests counter"),
        "exposition lacks the request counter:\n{body}"
    );
    assert!(
        body.contains("aqua_serve_red_requests_healthz_2xx 1"),
        "exposition lacks the healthz RED counter:\n{body}"
    );
    assert!(
        body.contains("# TYPE aqua_serve_red_latency_s_healthz histogram"),
        "exposition lacks the healthz latency histogram:\n{body}"
    );

    // The default view is unchanged JSON.
    let json = client::get(addr, "/metrics").unwrap();
    assert_eq!(json.status, 200);
    json.json().expect("default metrics view stays JSON");

    server.shutdown();
}

#[test]
fn traces_endpoint_returns_one_requests_events() {
    let session = hosted_session();
    let channels = session.channels();
    let registry = Arc::new(SessionRegistry::new());
    registry.insert("epa", session);
    let hub = Arc::new(TelemetryHub::new());
    let server = Server::start(
        Arc::clone(&registry),
        Arc::clone(&hub),
        ServeConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let body = wire::ingest_body(&[(900, vec![Some(1.0); channels])]);

    let client_hub = TelemetryHub::new();
    let root = TraceContext::root(0xC0FFEE, 1);
    let no_retry = client::RetryPolicy {
        max_attempts: 1,
        ..client::RetryPolicy::default()
    };
    let resp = client::request_with_retry(
        addr,
        "POST",
        "/v1/sessions/epa/ingest",
        "application/json",
        body.as_bytes(),
        &no_retry,
        client_hub.ctx().with_trace(root),
    )
    .unwrap();
    assert_eq!(resp.status, 200);

    let hex = format!("{:016x}", root.trace_id);
    let got = client::get(addr, &format!("/v1/traces/{hex}")).unwrap();
    assert_eq!(got.status, 200);
    assert!(
        got.body.contains(&format!("\"trace\":\"{hex}\"")),
        "trace body lacks the id: {}",
        got.body
    );
    assert!(
        got.body.contains("serve.http.request"),
        "trace body lacks the server-side request event: {}",
        got.body
    );
    assert!(
        !got.body.contains("\"count\":0"),
        "traced request produced no retrievable events: {}",
        got.body
    );

    // A well-formed but unseen trace id is empty, not an error.
    let empty = client::get(addr, "/v1/traces/00000000000000ff").unwrap();
    assert_eq!(empty.status, 200);
    assert!(empty.body.contains("\"count\":0"), "{}", empty.body);

    // Non-hex ids are rejected.
    assert_eq!(client::get(addr, "/v1/traces/nothex").unwrap().status, 400);

    server.shutdown();
}

/// An address that refuses connections: bind an ephemeral port, then
/// drop the listener before anyone dials it.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    addr
}

#[test]
fn failover_and_passive_ejection_share_the_request_trace() {
    // Learn the rendezvous order first (it is a pure hash of session and
    // backend ids), then place the dead backend at rank 0 so the traced
    // request is forced through a failover.
    let order: Vec<String> = {
        let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
        let dummy: SocketAddr = "127.0.0.1:9".parse().unwrap();
        for id in ["replica-0", "replica-1"] {
            pool.add(BackendSpec {
                id: id.to_string(),
                addr: dummy,
            });
        }
        let service = ServiceRegistry::new(Arc::clone(&pool));
        service.register_tenant("net", &["replica-0", "replica-1"]);
        service.bind_session("sess", "net");
        service.ranked("sess").into_iter().map(|s| s.id).collect()
    };

    let live_hub = Arc::new(TelemetryHub::new());
    let live = Server::start(
        Arc::new(SessionRegistry::new()),
        Arc::clone(&live_hub),
        ServeConfig::default(),
    )
    .expect("bind live replica");

    // One strike ejects: a single failed routed request must tip the
    // passive health state machine.
    let pool = Arc::new(BackendPool::new(HealthCheckPolicy {
        failure_threshold: 1,
        ..HealthCheckPolicy::default()
    }));
    pool.add(BackendSpec {
        id: order[0].clone(),
        addr: dead_addr(),
    });
    pool.add(BackendSpec {
        id: order[1].clone(),
        addr: live.local_addr(),
    });
    let service = Arc::new(ServiceRegistry::new(Arc::clone(&pool)));
    service.register_tenant("net", &[&order[0], &order[1]]);
    service.bind_session("sess", "net");

    let router_hub = Arc::new(TelemetryHub::new());
    let router = Router::new(Arc::clone(&service), Arc::clone(&router_hub)).with_trace_seed(77);
    let (resp, record) = router
        .forward_traced(
            0,
            "GET",
            "/v1/sessions/sess/detections",
            "application/json",
            &[],
        )
        .expect("failover reaches the live replica");
    // The live replica hosts no sessions; any response means it is alive.
    assert_eq!(resp.status, 404);
    assert_eq!(
        record.hops,
        vec![(order[0].clone(), false), (order[1].clone(), true)]
    );
    assert_eq!(pool.state(&order[0]), Some(BackendState::Ejected));
    assert_eq!(
        router_hub
            .metrics_snapshot()
            .counter("serve.router.failover"),
        1
    );

    // Every event the request produced — the forward root, both attempts,
    // and the eject the failed attempt tipped — carries the same trace id,
    // and the eject annotates the failing attempt's span.
    let events = router_hub.drain_events();
    let forward = events
        .iter()
        .find(|e| e.name == "serve.router.forward")
        .expect("forward event");
    let attempts: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "serve.router.attempt")
        .collect();
    assert_eq!(attempts.len(), 2);
    let eject = events
        .iter()
        .find(|e| e.name == "serve.fleet.eject")
        .expect("eject event");
    let trace_hex = str_field(forward, FIELD_TRACE);
    assert_eq!(trace_hex, format!("{:016x}", record.trace.trace_id));
    for e in [attempts[0], attempts[1], eject] {
        assert_eq!(str_field(e, FIELD_TRACE), trace_hex, "event {}", e.name);
    }
    assert_eq!(str_field(attempts[0], "outcome"), "error");
    assert_eq!(str_field(attempts[1], "outcome"), "ok");
    assert_eq!(
        str_field(eject, FIELD_SPAN),
        str_field(attempts[0], FIELD_SPAN),
        "eject must annotate the attempt that tipped the state machine"
    );

    // The stitcher reassembles the same story from the two streams.
    let mut stitcher = TraceStitcher::new();
    stitcher.add_jsonl("router", &to_jsonl(&events)).unwrap();
    stitcher
        .add_jsonl("replica-live", &to_jsonl(&live_hub.drain_events()))
        .unwrap();
    let report = stitcher.stitch();
    assert_eq!(report.traces.len(), 1);
    let trace = &report.traces[0];
    assert!(trace.single_rooted());
    assert!(trace.gaps.is_empty(), "gaps: {:?}", trace.gaps);
    assert_eq!(
        trace.hops(),
        vec![
            (order[0].clone(), "error".to_string()),
            (order[1].clone(), "ok".to_string()),
        ]
    );

    live.shutdown();
}

#[test]
fn chaos_slow_and_reset_clients_classify_separately() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let (server, _registry, hub) = start(config);
    let addr = server.local_addr();

    // Script the misbehaving clients through the chaos plan so the fault
    // parameters come from the same machinery the fleet bench uses.
    let mut plan = FaultPlan::scripted(5);
    plan.push(
        0,
        Fault::SlowConn {
            replica: 0,
            delay_ms: 300,
        },
    );
    plan.push(1, Fault::ResetConn { replica: 0 });

    for step in 0..2u64 {
        for fault in plan.faults_at(step) {
            match fault {
                Fault::SlowConn { delay_ms, .. } => {
                    // Partial request, then silence past the server's read
                    // timeout: classified as a stall.
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(b"POST /v1/sessions/epa/ingest HTTP/1.1\r\ncontent-")
                        .unwrap();
                    thread::sleep(Duration::from_millis(*delay_ms));
                    drop(s);
                }
                Fault::ResetConn { .. } => {
                    // A complete request line, then an immediate close:
                    // EOF mid-headers is classified as a reset. (EOF
                    // mid-line would instead parse as a malformed header.)
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(b"POST /v1/sessions/epa/ingest HTTP/1.1\r\n")
                        .unwrap();
                    drop(s);
                }
                other => panic!("unexpected fault in plan: {other:?}"),
            }
        }
    }

    // Workers classify asynchronously; poll until both counters land.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = hub.metrics_snapshot();
        let stall = m.counter("serve.http.conn_stall");
        let reset = m.counter("serve.http.conn_reset");
        if stall >= 1 && reset >= 1 {
            assert_eq!(stall, 1, "exactly one stalled client");
            assert_eq!(reset, 1, "exactly one reset client");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "classification never landed: stall={stall} reset={reset}"
        );
        thread::sleep(Duration::from_millis(20));
    }

    // The server survives both misbehaving clients.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    server.shutdown();
}
