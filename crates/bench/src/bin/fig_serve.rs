//! Serving — throughput, tail latency, and detection parity for the
//! `aqua-serve` HTTP front end (DESIGN.md §9).
//!
//! Trains one EPA-NET profile, round-trips it through the artifact format,
//! then measures three things:
//!
//! 1. **Parity** — N concurrent clients ({1, 4, 16}) each replay the same
//!    Phase-II leak trace into their own hosted session over HTTP. Every
//!    session must report detections identical (times and leak-node names)
//!    to an in-process [`HostedSession`] fed the same readings — the HTTP
//!    hop adds transport, not semantics.
//! 2. **Throughput / latency** — requests per second and p50/p99 request
//!    latency at each concurrency level.
//! 3. **Overload** — a burst at 2x the server's capacity (workers + queue)
//!    must be shed with `503` + `Retry-After`, never an error or a hang;
//!    the shed count must be visible in `/metrics`, service must resume
//!    once the burst clears, and shutdown must drain gracefully.
//!
//! Emits `BENCH_serve.json`. Run with:
//! `cargo run --release -p aqua-bench --bin fig_serve`
//! (`AQUA_SMOKE=1` for the CI smoke scale.)

use std::sync::Arc;
use std::time::Instant;

use aqua_bench::{f3, print_table, tail_quantile, write_bench_json_with_samples};
use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact, SessionRegistry};
use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
use aqua_ml::ModelKind;
use aqua_net::{synth, Network};
use aqua_serve::wire::{self, Detections};
use aqua_serve::{client, ServeConfig, Server};
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

const SEED: u64 = 7;
const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

fn smoke() -> bool {
    std::env::var("AQUA_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// One slot of the replayed trace: `(time, readings in channel order)`.
type Trace = Vec<(u64, Vec<Option<f64>>)>;

/// Solves the leak scenario and reads it out through the sensor set, in
/// the exact channel order the ingest endpoint expects.
fn reading_trace(net: &Network, session: &HostedSession, slots: u64) -> Trace {
    let leak_node = net.junction_ids()[33];
    let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, slots / 2 * 900));
    let sensors = session.sensors();
    (0..=slots)
        .map(|slot| {
            let t = slot * 900;
            let snap = solve_snapshot(net, &scenario, t, &SolverOptions::default())
                .expect("trace snapshot");
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

/// Reference detections `(time, leak-node names)` from the in-process path.
fn reference_detections(net: &Network, artifact_bytes: &[u8], trace: &Trace) -> Detections {
    let artifact = ProfileArtifact::from_bytes(artifact_bytes).expect("decode");
    let mut session =
        HostedSession::from_artifact(net.clone(), artifact, SEED).expect("host reference");
    for (t, readings) in trace {
        session
            .ingest(*t, readings, TelemetryCtx::none())
            .expect("reference ingest");
    }
    wire::session_detections(&session)
}

/// Replays the trace from `clients` concurrent connections (one session
/// per client) and checks each session's detections against the
/// reference. Returns `(req/s, p50 ms, (tail label, tail ms), request
/// count)` — the tail is p99 only when the level produced enough samples
/// to support one ([`aqua_bench::P99_MIN_SAMPLES`]), otherwise the max.
fn run_level(
    net: &Network,
    artifact_bytes: &[u8],
    trace: &Trace,
    reference: &[(u64, Vec<String>)],
    clients: usize,
) -> (f64, f64, (&'static str, f64), usize) {
    let registry = Arc::new(SessionRegistry::new());
    let hub = Arc::new(TelemetryHub::new());
    for c in 0..clients {
        let artifact = ProfileArtifact::from_bytes(artifact_bytes).expect("decode");
        let session =
            HostedSession::from_artifact(net.clone(), artifact, SEED).expect("host session");
        registry.insert(format!("c{c}"), session);
    }
    let server = Server::start(
        Arc::clone(&registry),
        Arc::clone(&hub),
        ServeConfig {
            workers: clients.clamp(2, 8),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let replay_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let trace = trace.to_vec();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(trace.len());
                for (t, readings) in &trace {
                    let body = wire::ingest_body(&[(*t, readings)]);
                    let sent = Instant::now();
                    let resp = client::post_json(addr, &format!("/v1/sessions/c{c}/ingest"), &body)
                        .expect("ingest request");
                    latencies.push(sent.elapsed().as_secs_f64());
                    assert_eq!(resp.status, 200, "client {c}: {}", resp.body);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let replay_s = replay_start.elapsed().as_secs_f64();

    // Parity: every served session must match the in-process reference.
    for c in 0..clients {
        let resp = client::get(addr, &format!("/v1/sessions/c{c}/detections")).expect("query");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let served = wire::parse_detections(&resp.body).expect("detections json");
        assert_eq!(
            served, reference,
            "client c{c}: HTTP detections diverge from the in-process reference"
        );
    }
    server.shutdown();

    let requests = latencies.len();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_ms = latencies[((requests - 1) as f64 * 0.50) as usize] * 1e3;
    let (tail_label, tail_s) = tail_quantile(&mut latencies);
    (
        requests as f64 / replay_s,
        p50_ms,
        (tail_label, tail_s * 1e3),
        requests,
    )
}

/// Overload: a burst at 2x capacity (workers + queue depth) of slow
/// requests. Returns `(sent, ok, shed, shed according to /metrics)`.
fn run_overload() -> (usize, usize, usize, u64) {
    let registry = Arc::new(SessionRegistry::new());
    let hub = Arc::new(TelemetryHub::new());
    let server = Server::start(
        Arc::clone(&registry),
        Arc::clone(&hub),
        ServeConfig {
            workers: 2,
            queue_depth: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Capacity is workers + queue = 4 slow requests; send 2x that.
    let burst = 8;
    let handles: Vec<_> = (0..burst)
        .map(|_| {
            std::thread::spawn(move || {
                client::post_json(addr, "/debug/sleep/300", "")
                    .expect("burst request answered")
                    .status
            })
        })
        .collect();
    let statuses: Vec<u16> = handles
        .into_iter()
        .map(|h| h.join().expect("burst thread"))
        .collect();
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(
        ok + shed,
        burst,
        "every request gets an answer: {statuses:?}"
    );
    assert!(shed >= 1, "2x overload must shed: {statuses:?}");
    assert!(ok >= 1, "capacity must still be served: {statuses:?}");

    let metrics_shed = hub.metrics_snapshot().counter("serve.http.shed");
    assert_eq!(metrics_shed, shed as u64, "shed count must reach /metrics");

    // Overload is transient: after the burst, service resumes...
    let health = client::get(addr, "/healthz").expect("healthz after burst");
    assert_eq!(health.status, 200);
    // ...and shutdown drains gracefully (blocks until workers join).
    server.shutdown();

    (burst, ok, shed, metrics_shed)
}

fn main() {
    let bench_start = Instant::now();
    let (train_samples, slots) = if smoke() { (40, 8) } else { (120, 24) };
    let net = synth::epa_net();

    // Phase I once, then through the artifact container — the servers all
    // host decoded copies, so the bench also covers the save/load path.
    let config = AquaScaleConfig {
        model: ModelKind::LinearR,
        train_samples,
        threads: 4,
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(&net, config);
    let profile = aqua.train_profile().expect("phase I");
    let artifact_bytes = ProfileArtifact::capture(&aqua, profile).to_bytes();

    let probe_artifact = ProfileArtifact::from_bytes(&artifact_bytes).expect("decode");
    let probe = HostedSession::from_artifact(net.clone(), probe_artifact, SEED).expect("probe");
    let trace = reading_trace(&net, &probe, slots);
    let reference = reference_detections(&net, &artifact_bytes, &trace);
    assert!(
        !reference.is_empty(),
        "the leak trace must trigger at least one reference detection"
    );

    let mut rows = Vec::new();
    let mut level_metrics = Vec::new();
    let mut total_samples = 0usize;
    for &clients in &CLIENT_COUNTS {
        let (req_per_s, p50_ms, (tail_label, tail_ms), requests) =
            run_level(&net, &artifact_bytes, &trace, &reference, clients);
        total_samples += requests;
        rows.push(vec![
            clients.to_string(),
            requests.to_string(),
            f3(req_per_s),
            f3(p50_ms),
            tail_label.to_string(),
            f3(tail_ms),
            "yes".to_string(),
        ]);
        level_metrics.push(format!(
            "{{\"clients\": {clients}, \"requests\": {requests}, \
             \"req_per_s\": {req_per_s:.3}, \"p50_ms\": {p50_ms:.3}, \
             \"tail_label\": \"{tail_label}\", \"tail_ms\": {tail_ms:.3}, \
             \"parity\": true}}"
        ));
    }
    print_table(
        "Serving: EPA-NET trace replay over HTTP (per concurrency level)",
        &[
            "clients", "requests", "req/s", "p50_ms", "tail", "tail_ms", "parity",
        ],
        &rows,
    );

    let (burst, ok, shed, metrics_shed) = run_overload();
    println!(
        "overload: {burst} requests at 2x capacity -> {ok} served, {shed} shed \
         (503 + Retry-After), /metrics shed counter {metrics_shed}"
    );

    let metrics = format!(
        "{{\n    \"config\": {{\"train_samples\": {train_samples}, \"slots\": {slots}, \
         \"seed\": {SEED}, \"smoke\": {}}},\n    \
         \"artifact_bytes\": {},\n    \
         \"reference_detections\": {},\n    \
         \"levels\": [{}],\n    \
         \"overload\": {{\"sent\": {burst}, \"ok\": {ok}, \"shed\": {shed}, \
         \"metrics_shed\": {metrics_shed}, \"all_answered\": true}}\n  }}",
        smoke(),
        artifact_bytes.len(),
        reference.len(),
        level_metrics.join(", "),
    );
    write_bench_json_with_samples(
        "BENCH_serve.json",
        "fig_serve",
        bench_start.elapsed().as_secs_f64(),
        total_samples,
        &metrics,
    );
    println!(
        "wrote BENCH_serve.json (total {})",
        f3(bench_start.elapsed().as_secs_f64())
    );
}
