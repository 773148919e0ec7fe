//! Fleet — rolling artifact upgrade and replica failure under sustained
//! multi-tenant load (DESIGN.md §11).
//!
//! Stands up a three-replica fleet, each replica hosting both evaluation
//! tenants (EPA-NET and WSSC-SUBNET), behind the rendezvous [`Router`].
//! A scripted, seed-deterministic [`FaultPlan`] then drives one full
//! chaos scenario while every session replays its leak trace:
//!
//! 1. **Rolling upgrade** — replicas are upgraded to a retrained
//!    `.aquaprof` one per step, under load. At each replica the upgrade
//!    first offers a truncated artifact (the plan's `TruncateArtifact`
//!    fault), which must be refused with the old model left live, before
//!    the genuine artifact swaps in.
//! 2. **Replica kill** — mid-stream, the plan kills one replica. Its
//!    sessions resume on a peer from their last checkpoint and must
//!    produce exactly the detections an uninterrupted run would.
//!
//! Asserts zero dropped detections (every session's served detections
//! equal its in-process reference, which swaps models at the same slot
//! boundary), bounded p99 ingest latency, and chaos determinism: the
//! whole scenario is run twice and must emit byte-identical telemetry
//! event streams.
//!
//! Emits `BENCH_fleet.json`. Run with:
//! `cargo run --release -p aqua-bench --bin fig_fleet`
//! (`AQUA_SMOKE=1` for the CI smoke scale.)

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use aqua_bench::{f3, print_table, tail_quantile, write_bench_json_with_samples};
use aqua_core::{
    AquaScale, AquaScaleConfig, HostedSession, ModelHandle, ProfileArtifact, SessionRegistry,
};
use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
use aqua_ml::ModelKind;
use aqua_net::{synth, Network};
use aqua_serve::fleet::{
    BackendPool, BackendSpec, BackendState, HealthCheckPolicy, ServiceRegistry,
};
use aqua_serve::wire::{self, Detections};
use aqua_serve::{chaos, client, Fault, FaultPlan, ModelVault, Router, ServeConfig, Server};
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

const SEED: u64 = 7;
const CHAOS_SEED: u64 = 1234;
const REPLICAS: usize = 3;
const SESSIONS_PER_TENANT: usize = 2;

fn smoke() -> bool {
    std::env::var("AQUA_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// One slot of the replayed trace: `(time, readings in channel order)`.
type Trace = Vec<(u64, Vec<Option<f64>>)>;

fn tenant_config(train_samples: usize) -> AquaScaleConfig {
    AquaScaleConfig {
        model: ModelKind::LinearR,
        train_samples,
        threads: 4,
        ..AquaScaleConfig::default()
    }
}

/// One hosted tenant: topology plus the v1 (initial) and v2 (retrained,
/// rolled out mid-bench) artifacts and its leak trace.
struct Tenant {
    net: Network,
    v1: Vec<u8>,
    v2: Vec<u8>,
    trace: Trace,
}

fn train_tenant(net: Network, train_samples: usize, slots: u64) -> Tenant {
    let train = |samples: usize| {
        let aqua = AquaScale::new(&net, tenant_config(samples));
        let profile = aqua.train_profile().expect("phase I");
        ProfileArtifact::capture(&aqua, profile).to_bytes()
    };
    let v1 = train(train_samples);
    // The "retrained" rollout candidate: same topology and sensors, a
    // larger Phase-I corpus — a version the canary accepts.
    let v2 = train(train_samples + 20);

    let leak_node = net.junction_ids()[33];
    let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, slots / 2 * 900));
    let probe = AquaScale::new(&net, tenant_config(train_samples));
    let sensors = probe.sensors();
    let trace = (0..=slots)
        .map(|slot| {
            let t = slot * 900;
            let snap = solve_snapshot(&net, &scenario, t, &SolverOptions::default())
                .expect("trace snapshot");
            let readings = sensors
                .pressure_nodes
                .iter()
                .map(|&n| Some(snap.pressure(n)))
                .chain(sensors.flow_links.iter().map(|&l| Some(snap.flow(l))))
                .collect();
            (t, readings)
        })
        .collect();
    Tenant { net, v1, v2, trace }
}

/// An in-process twin of one served session: same seed, same readings,
/// and a private [`ModelHandle`] upgraded at the same slot boundary as
/// the session's home replica — so detections must match exactly.
struct Reference {
    session: HostedSession,
    handle: Arc<ModelHandle>,
    tenant: usize,
    /// Slot at which this session's home replica rolls to v2.
    upgrade_slot: u64,
}

/// One replica process: HTTP server plus its vault and telemetry hub.
struct Replica {
    id: String,
    server: Option<Server>,
    vault: Arc<ModelVault>,
    hub: Arc<TelemetryHub>,
}

fn start_replica(idx: usize, tenants: &[Tenant]) -> Replica {
    let registry = Arc::new(SessionRegistry::new());
    let vault = Arc::new(ModelVault::new());
    let hub = Arc::new(TelemetryHub::new());
    for tenant in tenants {
        vault
            .register_artifact(
                tenant.net.clone(),
                ProfileArtifact::from_bytes(&tenant.v1).expect("decode v1"),
            )
            .expect("register tenant");
    }
    let server = Server::start_with_vault(
        registry,
        Arc::clone(&vault),
        Arc::clone(&hub),
        ServeConfig::default(),
    )
    .expect("bind replica");
    Replica {
        id: format!("replica-{idx}"),
        server: Some(server),
        vault,
        hub,
    }
}

/// Everything one scenario run produces — compared across runs for chaos
/// determinism, and against the references for parity.
struct FleetOutcome {
    /// Telemetry event stream, JSONL, in deterministic source order.
    events: Vec<String>,
    /// Per-session served detections.
    served: Vec<(String, Detections)>,
    /// Per-session reference detections.
    expected: Vec<(String, Detections)>,
    latencies: Vec<f64>,
    requests: usize,
    swap_applied: u64,
    swap_rejected: u64,
    restored: u64,
    killed: String,
    wall_s: f64,
}

/// Runs the full chaos scenario once: rolling upgrade (one replica per
/// slot from `upgrade_start`, with a `TruncateArtifact` fault first at
/// each stop) and a scripted `KillReplica` with checkpoint failover —
/// all under a sequential multi-tenant ingest load.
fn run_fleet(tenants: &[Tenant], plan: &FaultPlan, upgrade_start: u64) -> FleetOutcome {
    let started = Instant::now();
    let mut replicas: Vec<Replica> = (0..REPLICAS).map(|i| start_replica(i, tenants)).collect();
    let replica_ids: Vec<String> = replicas.iter().map(|r| r.id.clone()).collect();
    let id_refs: Vec<&str> = replica_ids.iter().map(String::as_str).collect();

    let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
    for replica in &replicas {
        pool.add(BackendSpec {
            id: replica.id.clone(),
            addr: replica.server.as_ref().expect("alive").local_addr(),
        });
    }
    let service = Arc::new(ServiceRegistry::new(Arc::clone(&pool)));
    for tenant in tenants {
        service.register_tenant(tenant.net.name(), &id_refs);
    }
    let hub = Arc::new(TelemetryHub::new());
    let router = Router::new(Arc::clone(&service), Arc::clone(&hub));

    // Sessions: per tenant, per index — created over the router (PUT is
    // session-scoped, so it lands on the session's home replica).
    let mut session_ids = Vec::new();
    let mut references = Vec::new();
    let mut home: HashMap<String, String> = HashMap::new();
    for (ti, tenant) in tenants.iter().enumerate() {
        for s in 0..SESSIONS_PER_TENANT {
            let id = format!("{}-s{s}", tenant.net.name().to_lowercase());
            let seed = SEED + s as u64;
            service.bind_session(&id, tenant.net.name());
            let home_id = service.route(&id).expect("healthy fleet").id;
            let body = format!("{{\"network\":\"{}\",\"seed\":{seed}}}", tenant.net.name());
            let resp = router
                .forward(
                    0,
                    "PUT",
                    &format!("/v1/sessions/{id}"),
                    "application/json",
                    body.as_bytes(),
                )
                .expect("create session");
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

            let home_idx = id_refs.iter().position(|r| *r == home_id).expect("known");
            let handle = Arc::new(
                ModelHandle::from_artifact(
                    &tenant.net,
                    ProfileArtifact::from_bytes(&tenant.v1).expect("decode v1"),
                )
                .expect("reference handle"),
            );
            references.push(Reference {
                session: HostedSession::with_handle(tenant.net.clone(), Arc::clone(&handle), seed),
                handle,
                tenant: ti,
                upgrade_slot: upgrade_start + home_idx as u64,
            });
            home.insert(id.clone(), home_id);
            session_ids.push(id);
        }
    }

    let slots = tenants[0].trace.len();
    let mut checkpoints: HashMap<String, Vec<u8>> = HashMap::new();
    let mut latencies = Vec::new();
    let mut killed = String::new();

    for slot in 0..slots as u64 {
        // Faults scheduled at this step fire before the slot's traffic.
        let truncate_at = plan.faults_at(slot).iter().find_map(|f| match f {
            Fault::TruncateArtifact { keep_bytes } => Some(*keep_bytes),
            _ => None,
        });

        // Rolling upgrade: replica `slot - upgrade_start` rolls to v2.
        let upgrading = slot
            .checked_sub(upgrade_start)
            .map(|r| r as usize)
            .filter(|r| *r < REPLICAS);
        if let Some(r) = upgrading {
            let replica = &replicas[r];
            let addr = replica
                .server
                .as_ref()
                .expect("upgrading a live replica")
                .local_addr();
            for tenant in tenants {
                let path = format!("/v1/models/{}", tenant.net.name());
                if let Some(keep) = truncate_at {
                    // Chaos: the upgrade first delivers a truncated
                    // artifact; the swap must refuse it and keep v1 live.
                    let bad = chaos::truncated(&tenant.v2, keep.min(tenant.v2.len() / 2));
                    let resp = client::post_bytes(addr, &path, &bad).expect("bad upload answered");
                    assert_eq!(resp.status, 400, "truncated artifact must be refused");
                    let live = replica.vault.handle(tenant.net.name()).expect("tenant");
                    assert_eq!(live.version(), 1, "old model must stay live after refusal");
                }
                let resp = client::post_bytes(addr, &path, &tenant.v2).expect("upgrade answered");
                assert_eq!(
                    resp.status,
                    200,
                    "{}: {}",
                    replica.id,
                    String::from_utf8_lossy(&resp.body)
                );
                let live = replica.vault.handle(tenant.net.name()).expect("tenant");
                assert_eq!(live.version(), 2, "rolling upgrade must land v2");
            }
        }

        // Scripted kill: shut the replica down, eject it (the prober's
        // verdict, deterministic at this ordinal), and resume its
        // sessions on their new homes from the last checkpoint.
        for fault in plan.faults_at(slot) {
            if let Fault::KillReplica { replica: r } = fault {
                let victim = &mut replicas[*r];
                let server = victim.server.take().expect("killing a live replica");
                server.shutdown();
                killed = victim.id.clone();
                for _ in 0..pool.policy().failure_threshold {
                    pool.note(&killed, false, slot, hub.ctx());
                }
                assert_eq!(pool.state(&killed), Some(BackendState::Ejected));
                for id in &session_ids {
                    if home[id] != killed {
                        continue;
                    }
                    let peer = service.route(id).expect("a healthy peer remains");
                    let bytes = checkpoints.get(id).expect("checkpointed before the kill");
                    let resp =
                        client::post_bytes(peer.addr, &format!("/v1/sessions/{id}/restore"), bytes)
                            .expect("restore answered");
                    assert_eq!(
                        resp.status,
                        200,
                        "restore on {}: {}",
                        peer.id,
                        String::from_utf8_lossy(&resp.body)
                    );
                    home.insert(id.clone(), peer.id);
                }
            }
        }

        // References swap models at the same boundary their home does.
        for reference in &mut references {
            if reference.upgrade_slot == slot {
                let tenant = &tenants[reference.tenant];
                let version = reference
                    .handle
                    .install(&tenant.net, &tenant.v2)
                    .expect("reference upgrade");
                assert_eq!(version, 2);
            }
        }

        // The slot's traffic: every session ingests its tenant's slot,
        // through the router, with its reference twin in lockstep.
        for (id, reference) in session_ids.iter().zip(&mut references) {
            let (t, readings) = &tenants[reference.tenant].trace[slot as usize];
            let body = wire::ingest_body(&[(*t, readings)]);
            let sent = Instant::now();
            let resp = router
                .forward(
                    slot,
                    "POST",
                    &format!("/v1/sessions/{id}/ingest"),
                    "application/json",
                    body.as_bytes(),
                )
                .expect("ingest forwarded");
            latencies.push(sent.elapsed().as_secs_f64());
            assert_eq!(
                resp.status,
                200,
                "{id}: {}",
                String::from_utf8_lossy(&resp.body)
            );
            reference
                .session
                .ingest(*t, readings, TelemetryCtx::none())
                .expect("reference ingest");

            // Checkpoint after every slot — the failover currency.
            let ckpt = router
                .forward(
                    slot,
                    "GET",
                    &format!("/v1/sessions/{id}/checkpoint"),
                    "application/json",
                    &[],
                )
                .expect("checkpoint forwarded");
            assert_eq!(ckpt.status, 200);
            checkpoints.insert(id.clone(), ckpt.body);
        }
    }

    // Parity: served detections against the lockstep references.
    let mut served = Vec::new();
    let mut expected = Vec::new();
    for (id, reference) in session_ids.iter().zip(&references) {
        let resp = router
            .forward(
                slots as u64,
                "GET",
                &format!("/v1/sessions/{id}/detections"),
                "application/json",
                &[],
            )
            .expect("detections forwarded")
            .into_text();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let detections = wire::parse_detections(&resp.body).expect("detections json");
        served.push((id.clone(), detections));
        expected.push((id.clone(), wire::session_detections(&reference.session)));
    }

    // The killed replica must be visibly out of the rotation.
    assert!(!killed.is_empty(), "the plan must script a kill");
    assert_eq!(pool.state(&killed), Some(BackendState::Ejected));
    assert_eq!(pool.healthy().len(), REPLICAS - 1);
    assert!(router.status_json().contains("\"state\":\"ejected\""));

    // Deterministic event stream: replica hubs in id order, then the
    // router's fleet hub. Every ordinal in these events is a model
    // version, checkpoint slot or load step — never wall clock.
    let mut events = Vec::new();
    let mut swap_applied = 0;
    let mut swap_rejected = 0;
    let mut restored = 0;
    for replica in &replicas {
        let snapshot = replica.hub.metrics_snapshot();
        swap_applied += snapshot.counter("serve.swap.applied");
        swap_rejected += snapshot.counter("serve.swap.rejected");
        restored += snapshot.counter("serve.session.restored");
        for event in replica.hub.drain_events() {
            events.push(format!("{} {}", replica.id, event.to_json_line()));
        }
    }
    for event in hub.drain_events() {
        events.push(format!("router {}", event.to_json_line()));
    }
    // Equal-ordinal events emitted from different server worker threads
    // (e.g. both tenants' swaps land at ord = version) have no defined
    // relative order in the hub — canonicalize before comparing runs.
    events.sort();

    let requests = latencies.len();
    for replica in &mut replicas {
        if let Some(server) = replica.server.take() {
            server.shutdown();
        }
    }
    FleetOutcome {
        events,
        served,
        expected,
        latencies,
        requests,
        swap_applied,
        swap_rejected,
        restored,
        killed,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    let bench_start = Instant::now();
    let (train_samples, slots) = if smoke() { (40, 8) } else { (100, 16) };
    // Upgrades roll one replica per slot from here; the kill comes after
    // the rollout completes, so failover lands on an already-upgraded peer.
    let upgrade_start = slots / 3;
    let kill_slot = upgrade_start + REPLICAS as u64 + 1;
    assert!(kill_slot < slots, "the kill must land inside the trace");

    println!("training tenants (train_samples={train_samples}, slots={slots})...");
    let tenants = vec![
        train_tenant(synth::epa_net(), train_samples, slots),
        train_tenant(synth::wssc_subnet(), train_samples, slots),
    ];

    let mut plan = FaultPlan::scripted(CHAOS_SEED);
    for r in 0..REPLICAS as u64 {
        plan.push(
            upgrade_start + r,
            Fault::TruncateArtifact {
                keep_bytes: usize::MAX, // clamped per-tenant to half the artifact
            },
        );
    }
    plan.push(
        kill_slot,
        Fault::KillReplica {
            replica: (chaos_pick(CHAOS_SEED) % REPLICAS as u64) as usize,
        },
    );

    // Run the identical scenario twice: same plan, same seeds — the
    // telemetry event streams must match byte for byte.
    let first = run_fleet(&tenants, &plan, upgrade_start);
    let second = run_fleet(&tenants, &plan, upgrade_start);
    assert_eq!(
        first.events, second.events,
        "chaos scenario must be seed-deterministic"
    );
    assert_eq!(
        first.served, second.served,
        "detections must be reproducible"
    );

    // Zero dropped detections: every session matches its reference, and
    // the EPA tenant demonstrably detects its leak.
    assert_eq!(
        first.served, first.expected,
        "served detections must match references"
    );
    let epa_detections: usize = first
        .served
        .iter()
        .filter(|(id, _)| id.starts_with("epa"))
        .map(|(_, d)| d.len())
        .sum();
    assert!(epa_detections > 0, "the EPA leak trace must detect");

    let mut latencies = first.latencies.clone();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_ms = latencies[((latencies.len() - 1) as f64 * 0.50) as usize] * 1e3;
    // Honest tail: p99 only above aqua_bench::P99_MIN_SAMPLES samples,
    // otherwise the max (smoke runs produce tens of requests, not 100+).
    let (tail_label, tail_s) = tail_quantile(&mut latencies);
    let tail_ms = tail_s * 1e3;
    assert!(
        tail_ms < 2000.0,
        "{tail_label} must stay bounded under chaos: {tail_ms} ms"
    );

    // The rollout: each replica refused one truncated artifact per tenant
    // and applied one genuine upgrade per tenant.
    assert_eq!(first.swap_applied, (REPLICAS * tenants.len()) as u64);
    assert_eq!(first.swap_rejected, (REPLICAS * tenants.len()) as u64);
    let displaced: u64 = first.restored;
    assert!(
        displaced >= 1,
        "the killed replica must have displaced sessions"
    );
    assert!(
        first.events.iter().any(|e| e.contains("serve.fleet.eject")),
        "the kill must surface as an ejection event"
    );

    let sessions = tenants.len() * SESSIONS_PER_TENANT;
    print_table(
        "Fleet: rolling upgrade + replica kill under multi-tenant load",
        &[
            "sessions", "requests", "p50_ms", "tail", "tail_ms", "swaps", "refusals", "restored",
            "parity",
        ],
        &[vec![
            sessions.to_string(),
            first.requests.to_string(),
            f3(p50_ms),
            tail_label.to_string(),
            f3(tail_ms),
            first.swap_applied.to_string(),
            first.swap_rejected.to_string(),
            displaced.to_string(),
            "yes".to_string(),
        ]],
    );
    println!(
        "killed {} at slot {kill_slot}; {} sessions resumed on peers; \
         event stream reproduced across runs ({} events)",
        first.killed,
        displaced,
        first.events.len()
    );

    let metrics = format!(
        "{{\n    \"config\": {{\"train_samples\": {train_samples}, \"slots\": {slots}, \
         \"replicas\": {REPLICAS}, \"tenants\": {}, \"sessions\": {sessions}, \
         \"seed\": {SEED}, \"chaos_seed\": {CHAOS_SEED}, \"smoke\": {}}},\n    \
         \"requests\": {},\n    \"p50_ms\": {p50_ms:.3},\n    \
         \"tail_label\": \"{tail_label}\",\n    \"tail_ms\": {tail_ms:.3},\n    \
         \"swap_applied\": {},\n    \"swap_rejected\": {},\n    \
         \"sessions_restored\": {},\n    \"killed\": \"{}\",\n    \
         \"events\": {},\n    \"event_stream_deterministic\": true,\n    \
         \"parity\": true,\n    \"run_wall_s\": [{:.3}, {:.3}]\n  }}",
        tenants.len(),
        smoke(),
        first.requests,
        first.swap_applied,
        first.swap_rejected,
        displaced,
        first.killed,
        first.events.len(),
        first.wall_s,
        second.wall_s,
    );
    write_bench_json_with_samples(
        "BENCH_fleet.json",
        "fig_fleet",
        bench_start.elapsed().as_secs_f64(),
        first.requests,
        &metrics,
    );
    println!(
        "wrote BENCH_fleet.json (total {})",
        f3(bench_start.elapsed().as_secs_f64())
    );
}

/// Deterministic victim pick from the chaos seed (splitmix64 finalizer).
fn chaos_pick(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
