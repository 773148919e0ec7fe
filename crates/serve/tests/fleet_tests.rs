//! Fleet-tier end-to-end tests: hot-swap apply and refusal over HTTP,
//! checkpoint restore onto a peer replica, chaos-harness event-stream
//! determinism, and the whole chaos scenario (a rolling upgrade and a
//! replica kill under multi-tenant load) traced through the router.

use std::sync::Arc;

use aqua_core::{
    AquaScale, AquaScaleConfig, HostedSession, ModelHandle, ProfileArtifact, SessionRegistry,
};
use aqua_net::{synth, Network};
use aqua_serve::fleet::{
    BackendPool, BackendSpec, BackendState, HealthCheckPolicy, HealthChecker, ServiceRegistry,
};
use aqua_serve::wire::{ingest_body, parse_detections, session_detections};
use aqua_serve::{
    chaos, client, Fault, FaultPlan, ForwardRecord, ModelVault, Router, ServeConfig, Server,
};
use aqua_telemetry::{TelemetryCtx, TelemetryHub, TraceStitcher};

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

/// Starts one replica hosting every `(network, artifact)` tenant.
fn start_replica(
    tenants: &[(&Network, &[u8])],
) -> (
    Server,
    Arc<SessionRegistry>,
    Arc<ModelVault>,
    Arc<TelemetryHub>,
) {
    let registry = Arc::new(SessionRegistry::new());
    let vault = Arc::new(ModelVault::new());
    let hub = Arc::new(TelemetryHub::new());
    for (net, artifact) in tenants {
        vault
            .register_artifact(
                (*net).clone(),
                ProfileArtifact::from_bytes(artifact).expect("decode artifact"),
            )
            .expect("register tenant");
    }
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
            let readings = sensors.read(&snap).into_iter().map(Some).collect();
            (t, readings)
        })
        .collect()
}

/// `bytes` (a valid container) with its model replaced by a random forest
/// per junction whose one tree's root split is its own left child, CRC
/// recomputed: a container that passes every framing check.
fn cyclic_forest_upload(net: &Network, bytes: &[u8]) -> Vec<u8> {
    use aqua_artifact::{Codec, SectionReader, SectionWriter, Writer};
    let artifact = ProfileArtifact::from_bytes(bytes).expect("decode artifact");
    let mut n_features = artifact.sensors.len();
    if artifact.features.include_topology {
        n_features += net.topology_features().len();
    }
    let kind = aqua_ml::ModelKind::random_forest();
    let mut model = Writer::new();
    kind.encode(&mut model);
    model.len_prefix(artifact.junctions.len());
    for _ in &artifact.junctions {
        let mut forest = Writer::new();
        aqua_ml::RandomForestConfig::default().encode(&mut forest);
        forest.u64(0); // seed
        forest.len_prefix(1); // one tree of two nodes
        forest.len_prefix(2);
        forest.u8(1); // split on feature 0, left child itself
        forest.len_prefix(0);
        forest.f64(f64::INFINITY);
        forest.len_prefix(0);
        forest.len_prefix(1);
        forest.u8(0); // leaf
        forest.f64(0.5);
        forest.len_prefix(n_features);
        Some(n_features).encode(&mut forest);
        let forest = forest.into_bytes();
        model.len_prefix(forest.len());
        model.raw(&forest);
    }
    let names = [
        "meta",
        "sensors",
        "junctions",
        "scaler",
        "model",
        "features",
        "tuning",
        "baseline",
    ];
    let model = model.into_bytes();
    let sections = SectionReader::open(bytes, &names).expect("sections");
    let mut out = SectionWriter::new();
    for name in names.into_iter().filter(|name| sections.has(name)) {
        let mut r = sections.section(name).expect("section");
        let body = if name == "model" {
            &model
        } else {
            r.take(r.remaining()).expect("body")
        };
        out.section(name, |w| w.raw(body));
    }
    out.into_container()
}

#[test]
fn cyclic_tree_upload_is_refused_and_the_server_stays_up() {
    let net = synth::epa_net();
    let v1 = artifact_bytes(&net, 40);
    let cyclic = cyclic_forest_upload(&net, &v1);
    // The framing is intact: only the tree decoder can refuse it.
    assert!(aqua_artifact::decode_container(&cyclic).is_ok());
    let (server, _registry, vault, _hub) = start_replica(&[(&net, &v1)]);
    let addr = server.local_addr();

    let resp = client::post_bytes(addr, "/v1/models/EPA-NET", &cyclic).unwrap();
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(vault.handle("EPA-NET").expect("tenant").version(), 1);
    let models = client::get(addr, "/v1/models").unwrap();
    assert!(models.body.contains("\"version\":1"), "{}", models.body);
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    server.shutdown();
}

#[test]
fn hot_swap_applies_and_refuses_over_http() {
    let net = synth::epa_net();
    let v1 = artifact_bytes(&net, 40);
    let v2 = artifact_bytes(&net, 60);
    let (server, _registry, vault, hub) = start_replica(&[(&net, &v1)]);
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
    let (replica_a, _reg_a, _vault_a, _hub_a) = start_replica(&[(&net, &v1)]);
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
    let (replica_b, _reg_b, _vault_b, hub_b) = start_replica(&[(&net, &v1)]);
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

const REPLICAS: usize = 3;
const SESSIONS_PER_TENANT: usize = 2;
/// Slots in each session's leak trace (the leak opens at slot 4).
const SLOTS: u64 = 8;
/// The rolling upgrade lands on replica `r` at slot `UPGRADE_START + r`.
const UPGRADE_START: u64 = SLOTS / 3;
/// The kill comes after the rollout, so failover lands on upgraded peers.
const KILL_SLOT: u64 = UPGRADE_START + REPLICAS as u64 + 1;
/// Seed the router mints trace ids under.
const TRACE_SEED: u64 = 0x0b5e_cafe;

/// One tenant of the chaos scenario: the v1 artifact every replica starts
/// on, the v2 the rolling upgrade lands, and the tenant's leak trace.
struct Tenant {
    net: Network,
    v1: Vec<u8>,
    v2: Vec<u8>,
    trace: Vec<(u64, Vec<Option<f64>>)>,
}

fn tenant(net: Network) -> Tenant {
    Tenant {
        v1: artifact_bytes(&net, 40),
        v2: artifact_bytes(&net, 60),
        trace: reading_trace(&net, SLOTS),
        net,
    }
}

/// One fleet member. Its hub outlives a kill, as a crashed process's
/// shipped log would.
struct Replica {
    id: String,
    server: Option<Server>,
    vault: Arc<ModelVault>,
    hub: Arc<TelemetryHub>,
}

/// One routed session: the replica it was created on and its last
/// checkpoint, beside its in-process twin — same seed and readings, and a
/// private model handle that installs v2 at the slot that replica rolls
/// over.
struct Routed {
    id: String,
    tenant: usize,
    home: usize,
    checkpoint: Vec<u8>,
    twin: HostedSession,
    handle: Arc<ModelHandle>,
}

/// What one run of the scenario leaves to compare with the next.
struct ChaosRun {
    /// Every hub's events as `<source> <json line>`, sorted: equal-ordinal
    /// events from different server workers have no defined order.
    events: Vec<String>,
    /// The stitched flame summary.
    flame: String,
}

/// Runs the chaos scenario once: three replicas hosting both tenants, a
/// rolling upgrade that refuses a truncated artifact at every stop, and a
/// scripted kill of the first session's home that only routed traffic
/// discovers. Every session request goes through
/// [`Router::forward_traced`].
fn run_chaos(tenants: &[Tenant]) -> ChaosRun {
    let v1: Vec<(&Network, &[u8])> = tenants.iter().map(|t| (&t.net, &t.v1[..])).collect();
    let mut replicas: Vec<Replica> = (0..REPLICAS)
        .map(|i| {
            let (server, _registry, vault, hub) = start_replica(&v1);
            Replica {
                id: format!("replica-{i}"),
                server: Some(server),
                vault,
                hub,
            }
        })
        .collect();
    let ids: Vec<&str> = replicas.iter().map(|r| r.id.as_str()).collect();
    let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
    for replica in &replicas {
        pool.add(BackendSpec {
            id: replica.id.clone(),
            addr: replica.server.as_ref().expect("alive").local_addr(),
        });
    }
    let service = Arc::new(ServiceRegistry::new(Arc::clone(&pool)));
    for tenant in tenants {
        service.register_tenant(tenant.net.name(), &ids);
    }
    let router_hub = Arc::new(TelemetryHub::new());
    let router =
        Router::new(Arc::clone(&service), Arc::clone(&router_hub)).with_trace_seed(TRACE_SEED);
    let mut records: Vec<ForwardRecord> = Vec::new();
    let mut forward = |ord: u64, method: &str, path: &str, body: &[u8]| {
        let (resp, record) = router
            .forward_traced(ord, method, path, "application/json", body)
            .expect("forward answered");
        records.push(record);
        resp
    };

    let mut sessions = Vec::new();
    for (tenant, t) in tenants.iter().enumerate() {
        for s in 0..SESSIONS_PER_TENANT {
            let id = format!("{}-s{s}", t.net.name().to_lowercase());
            let seed = SEED + s as u64;
            service.bind_session(&id, t.net.name());
            let home = service.route(&id).expect("healthy fleet").id;
            let body = format!("{{\"network\":\"{}\",\"seed\":{seed}}}", t.net.name());
            let resp = forward(0, "PUT", &format!("/v1/sessions/{id}"), body.as_bytes());
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            let handle = Arc::new(
                ModelHandle::from_artifact(
                    &t.net,
                    ProfileArtifact::from_bytes(&t.v1).expect("decode v1"),
                )
                .expect("twin handle"),
            );
            sessions.push(Routed {
                id,
                tenant,
                home: ids.iter().position(|r| *r == home).expect("fleet member"),
                checkpoint: Vec::new(),
                twin: HostedSession::with_handle(t.net.clone(), Arc::clone(&handle)),
                handle,
            });
        }
    }

    let victim = sessions[0].home;
    let mut plan = FaultPlan::scripted(1234);
    for r in 0..REPLICAS as u64 {
        plan.push(
            UPGRADE_START + r,
            Fault::TruncateArtifact {
                keep_bytes: usize::MAX,
            },
        );
    }
    plan.push(KILL_SLOT, Fault::KillReplica { replica: victim });

    for slot in 0..=SLOTS {
        for fault in plan.faults_at(slot) {
            match *fault {
                // The upgrade stop first offers a truncated v2 (the keep is
                // clamped to half the artifact), which must be refused with
                // v1 left live, then swaps the genuine v2 in.
                Fault::TruncateArtifact { keep_bytes } => {
                    let replica = &replicas[(slot - UPGRADE_START) as usize];
                    let addr = replica.server.as_ref().expect("alive").local_addr();
                    for tenant in tenants {
                        let path = format!("/v1/models/{}", tenant.net.name());
                        let live = || replica.vault.handle(tenant.net.name()).expect("tenant");
                        let bad = chaos::truncated(&tenant.v2, keep_bytes.min(tenant.v2.len() / 2));
                        let resp = client::post_bytes(addr, &path, &bad).expect("answered");
                        assert_eq!(resp.status, 400, "a truncated artifact must be refused");
                        assert_eq!(live().version(), 1, "v1 stays live after a refusal");
                        let resp = client::post_bytes(addr, &path, &tenant.v2).expect("answered");
                        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                        assert_eq!(live().version(), 2, "the rolling upgrade lands v2");
                    }
                }
                // The pool is not told: routed traffic has to find the dead
                // replica. Its sessions resume from their last checkpoint on
                // their first live ranked peer, which the router reaches
                // after the failed hop.
                Fault::KillReplica { replica } => {
                    let dead = &mut replicas[replica];
                    dead.server.take().expect("alive").shutdown();
                    for session in sessions.iter().filter(|s| s.home == replica) {
                        let peer = service
                            .ranked(&session.id)
                            .into_iter()
                            .find(|s| s.id != dead.id)
                            .expect("a live peer remains");
                        let path = format!("/v1/sessions/{}/restore", session.id);
                        let resp = client::post_bytes(peer.addr, &path, &session.checkpoint)
                            .expect("restore answered");
                        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                    }
                }
                _ => unreachable!("the plan scripts only truncations and a kill"),
            }
        }
        for session in &mut sessions {
            let tenant = &tenants[session.tenant];
            if UPGRADE_START + session.home as u64 == slot {
                let version = session.handle.install(&tenant.net, &tenant.v2);
                assert_eq!(version.expect("twin upgrade"), 2);
            }
            let (t, readings) = &tenant.trace[slot as usize];
            let body = ingest_body(&[(*t, readings)]);
            let path = format!("/v1/sessions/{}/ingest", session.id);
            let resp = forward(slot, "POST", &path, body.as_bytes());
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            session
                .twin
                .ingest(*t, readings, TelemetryCtx::none())
                .expect("twin ingest");
            let path = format!("/v1/sessions/{}/checkpoint", session.id);
            let resp = forward(slot, "GET", &path, &[]);
            assert_eq!(resp.status, 200);
            session.checkpoint = resp.body;
        }
    }

    // No detection is dropped across the upgrade and the kill.
    let mut epa_detections = 0;
    for session in &sessions {
        let path = format!("/v1/sessions/{}/detections", session.id);
        let resp = forward(SLOTS + 1, "GET", &path, &[]).into_text();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let served = parse_detections(&resp.body).expect("detections json");
        assert_eq!(served, session_detections(&session.twin), "{}", session.id);
        if session.id.starts_with("epa") {
            epa_detections += served.len();
        }
    }
    assert!(epa_detections > 0, "the EPA leak trace must detect");
    assert_eq!(
        pool.state(&replicas[victim].id),
        Some(BackendState::Ejected),
        "routed traffic must eject the killed replica"
    );
    assert_eq!(pool.healthy().len(), REPLICAS - 1);
    assert!(router.status_json().contains("\"state\":\"ejected\""));

    for replica in &mut replicas {
        if let Some(server) = replica.server.take() {
            server.shutdown();
        }
    }
    let (mut applied, mut rejected, mut restored) = (0, 0, 0);
    let mut events = Vec::new();
    let mut stitcher = TraceStitcher::new();
    let hubs = replicas
        .iter()
        .map(|r| (r.id.as_str(), &r.hub))
        .chain([("router", &router_hub)]);
    for (source, hub) in hubs {
        let m = hub.metrics_snapshot();
        applied += m.counter("serve.swap.applied");
        rejected += m.counter("serve.swap.rejected");
        restored += m.counter("serve.session.restored");
        assert_eq!(hub.events_dropped(), 0, "{source} dropped events");
        let lines: Vec<String> = hub
            .drain_events()
            .iter()
            .map(|e| e.to_json_line())
            .collect();
        stitcher
            .add_jsonl(source, &lines.join("\n"))
            .expect("stream parses");
        events.extend(lines.iter().map(|l| format!("{source} {l}")));
    }
    events.sort();
    let fleet_tenants = (REPLICAS * tenants.len()) as u64;
    assert_eq!(applied, fleet_tenants, "one upgrade per replica and tenant");
    assert_eq!(
        rejected, fleet_tenants,
        "one refusal per replica and tenant"
    );
    assert!(restored >= 1, "the kill must displace a session");

    // One whole stitched trace per routed request, with the router's hops.
    let report = stitcher.stitch();
    assert_eq!(report.traces.len(), records.len());
    for record in &records {
        let hex = record.trace.trace_hex();
        let trace = report.trace(record.trace.trace_id).expect("stitched");
        assert!(trace.single_rooted(), "trace {hex} has several roots");
        assert!(trace.gaps.is_empty(), "trace {hex}: {:?}", trace.gaps);
        let hops: Vec<(String, String)> = record
            .hops
            .iter()
            .map(|(backend, ok)| (backend.clone(), if *ok { "ok" } else { "error" }.into()))
            .collect();
        assert_eq!(trace.hops(), hops, "trace {hex}");
    }
    assert!(
        records.iter().any(|r| r.hops.len() > 1),
        "the kill must show as a traced failover"
    );
    let flame = report.render_flame();
    assert!(
        flame.contains("· serve.fleet.eject"),
        "the ejection annotates the attempt that tipped it"
    );
    ChaosRun { events, flame }
}

#[test]
fn chaos_scenario_drops_no_detection_and_traces_every_request() {
    let tenants = [tenant(synth::epa_net()), tenant(synth::wssc_subnet())];
    let first = run_chaos(&tenants);
    let second = run_chaos(&tenants);
    assert_eq!(first.events, second.events, "event streams must reproduce");
    assert_eq!(first.flame, second.flame, "the flame must reproduce");
}
