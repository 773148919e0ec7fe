//! Set-up and correctness references: Phase I, the profile artifact, the
//! seeded leak traces the sessions replay, and the hosted server.
//!
//! Every input is a pure function of the workload and `--seed`; the
//! program under test only ever sees the generated corpora, readings and
//! request bytes. The two corpora are fixed like a train/test split: every
//! seed trains on the same corpus and is scored on the same held-out one.
//! So `hamming` is one number per workload, which moves only when the
//! code's predictions do, and each run builds and hosts the same profile;
//! `--seed` drives the traffic (leak traces, noise, sessions, schedules).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ProfileArtifact, SessionRegistry};
use aqua_hydraulics::{solve_snapshot_with, LeakEvent, Scenario, SolverOptions, SolverWorkspace};
use aqua_ml::metrics::hamming_score;
use aqua_net::Network;
use aqua_sensing::{LeakDataset, MeasurementNoise, SensorSet};
use aqua_serve::json::Json;
use aqua_serve::{client, ModelVault, ServeConfig, Server};
use aqua_telemetry::{TelemetryCtx, TelemetryHub};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Kind, Workload};

/// Slots in one session's leak trace; sessions replay it cyclically.
pub const TRACE_SLOTS: u64 = 16;
/// Slot at which a trace's leak starts.
const LEAK_SLOT: u64 = 8;
/// Sampling interval, seconds (the paper's 15-minute batches).
pub const STEP_S: u64 = 900;
/// Held-out scenarios behind `hamming`.
pub const HELD_OUT: usize = 300;
/// Phase-I and Phase-II parallelism: the benchmark machine has two cores.
pub const THREADS: usize = 2;

/// Decorrelates derived seeds (training corpus, traces, sessions).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the training corpus. Scenario `i` of a corpus is drawn from
/// seed `+ i`, so the two corpus seeds sit far apart.
const TRAIN_SEED: u64 = 0x7a41_0001_0000_0000;
/// Seed of the held-out corpus.
const HELD_OUT_SEED: u64 = 0x4e1d_0075_0000_0000;

fn ctx<E: std::fmt::Display>(context: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{context}: {e}")
}

/// The deployment configuration of a workload's profile.
pub fn config(w: &Workload) -> AquaScaleConfig {
    AquaScaleConfig {
        model: w.model(),
        train_samples: w.corpus,
        threads: THREADS,
        seed: TRAIN_SEED,
        ..AquaScaleConfig::default()
    }
}

/// One Phase-I run split into its layers, plus the encoded artifact.
pub struct Built {
    pub dataset: LeakDataset,
    pub bytes: Vec<u8>,
    /// `AquaScale::generate_dataset` wall time.
    pub build_s: f64,
    /// `AquaScale::train_profile_on` wall time (scaler, binning, fit).
    pub train_s: f64,
}

pub fn build_profile(net: &Network, config: &AquaScaleConfig) -> Result<Built, String> {
    let aqua = AquaScale::new(net, config.clone());
    let t = Instant::now();
    let dataset = aqua
        .generate_dataset(config.train_samples, config.seed)
        .map_err(ctx("corpus"))?;
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let profile = aqua.train_profile_on(&dataset).map_err(ctx("train"))?;
    let train_s = t.elapsed().as_secs_f64();
    let bytes = ProfileArtifact::capture(&aqua, profile).to_bytes();
    Ok(Built {
        dataset,
        bytes,
        build_s,
        train_s,
    })
}

pub fn decode(bytes: &[u8]) -> Result<ProfileArtifact, String> {
    ProfileArtifact::from_bytes(bytes).map_err(ctx("artifact"))
}

/// The held-out corpus, the same for every `--seed`.
pub fn held_out(net: &Network, config: &AquaScaleConfig) -> Result<LeakDataset, String> {
    AquaScale::new(net, config.clone())
        .generate_dataset(HELD_OUT, HELD_OUT_SEED)
        .map_err(ctx("held-out corpus"))
}

/// Jaccard hamming of the profile on the held-out corpus, next to the two
/// control arms a silent or a trigger-happy detector would score.
pub struct Score {
    pub hamming: f64,
    pub never_fire: f64,
    pub always_fire: f64,
}

impl Score {
    pub fn beats_controls(&self) -> bool {
        self.hamming > self.never_fire && self.hamming > self.always_fire
    }
}

pub fn score(
    net: &Network,
    config: &AquaScaleConfig,
    bytes: &[u8],
    held: &LeakDataset,
) -> Result<Score, String> {
    let profile = decode(bytes)?.into_profile();
    let pred = AquaScale::new(net, config.clone())
        .predict_batch(&profile, &held.x)
        .map_err(ctx("predict"))?;
    let arm = |v: u8| -> Vec<Vec<u8>> { held.labels.iter().map(|l| vec![v; l.len()]).collect() };
    Ok(Score {
        hamming: hamming_score(&pred, &held.labels),
        never_fire: hamming_score(&arm(0), &held.labels),
        always_fire: hamming_score(&arm(1), &held.labels),
    })
}

/// One session's cyclic leak trace: noisy sensor readings per slot in the
/// ingest channel order (pressure nodes, then flow links), plus each slot's
/// readings pre-rendered as a JSON array.
pub struct Trace {
    pub slots: Vec<Vec<Option<f64>>>,
    pub json: Vec<String>,
}

impl Trace {
    /// Readings sent at a session's `slot`-th ingest.
    pub fn readings(&self, slot: u64) -> &[Option<f64>] {
        &self.slots[(slot % TRACE_SLOTS) as usize]
    }

    pub fn body(&self, slot: u64) -> String {
        ingest_body(slot * STEP_S, &self.json[(slot % TRACE_SLOTS) as usize])
    }
}

/// Leak draws a session tries before set-up gives up on it.
const LEAK_DRAWS: u64 = 32;

/// The first of a session's seeded leak traces that the hosted profile
/// detects within one cycle. A small profile cannot see a leak at every
/// junction (its recall is what `hamming` scores), so this keeps the gate
/// "every session detects" about the served path, not about the profile.
fn detectable_trace(
    net: &Network,
    bytes: &[u8],
    sensors: &SensorSet,
    stream: u64,
    session_seed: u64,
) -> Result<Trace, String> {
    for draw in 0..LEAK_DRAWS {
        let trace = leak_trace(net, sensors, stream, draw)?;
        let mut session = HostedSession::from_artifact(net.clone(), decode(bytes)?, session_seed)
            .map_err(ctx("probe session"))?;
        for slot in 0..TRACE_SLOTS {
            session
                .ingest(slot * STEP_S, trace.readings(slot), TelemetryCtx::none())
                .map_err(ctx("probe ingest"))?;
        }
        if !session.detections().is_empty() {
            return Ok(trace);
        }
    }
    Err(format!("no detectable leak in {LEAK_DRAWS} draws"))
}

/// Solves the `draw`-th seeded leak (random junction and size, starting
/// mid-trace) of a session's `stream` over [`TRACE_SLOTS`] slots and reads
/// it out with measurement noise.
pub fn leak_trace(
    net: &Network,
    sensors: &SensorSet,
    stream: u64,
    draw: u64,
) -> Result<Trace, String> {
    let mut rng = StdRng::seed_from_u64(mix(stream, draw));
    let junctions = net.junction_ids();
    let node = junctions[rng.random_range(0..junctions.len())];
    let size = rng.random_range(0.01..0.02);
    let scenario = Scenario::new().with_leak(LeakEvent::new(node, size, LEAK_SLOT * STEP_S));
    let noise = MeasurementNoise::default();
    let opts = SolverOptions::default();
    let mut ws = SolverWorkspace::new(net);
    let mut slots = Vec::with_capacity(TRACE_SLOTS as usize);
    for k in 0..TRACE_SLOTS {
        let snap = solve_snapshot_with(net, &scenario, k * STEP_S, &opts, &mut ws)
            .map_err(ctx("trace solve"))?;
        let pressures = sensors
            .pressure_nodes
            .iter()
            .map(|&n| noise.pressure(snap.pressure(n), &mut rng));
        let readings: Vec<f64> = pressures.collect();
        let flows = sensors
            .flow_links
            .iter()
            .map(|&l| noise.flow(snap.flow(l), &mut rng));
        slots.push(
            readings
                .into_iter()
                .chain(flows)
                .map(Some)
                .collect::<Vec<_>>(),
        );
    }
    let json = slots.iter().map(|s| render_readings(s)).collect();
    Ok(Trace { slots, json })
}

fn render_readings(readings: &[Option<f64>]) -> String {
    let vals: Vec<String> = readings
        .iter()
        .map(|r| r.map_or_else(|| "null".to_string(), |v| format!("{v}")))
        .collect();
    format!("[{}]", vals.join(","))
}

/// The body of a one-slot ingest POST.
pub fn ingest_body(time: u64, readings_json: &str) -> String {
    format!("{{\"batches\":[{{\"time\":{time},\"readings\":{readings_json}}}]}}")
}

/// A complete HTTP/1.1 request as the generator puts it on the wire.
pub fn raw_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: ledger\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// A live in-process server hosting one tenant and the workload's sessions.
pub struct Hosted {
    pub net: Network,
    pub bytes: Vec<u8>,
    pub ids: Vec<String>,
    pub seeds: Vec<u64>,
    pub traces: Vec<Trace>,
    pub registry: Arc<SessionRegistry>,
    pub hub: Arc<TelemetryHub>,
    pub server: Server,
}

impl Hosted {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Each session's seeded leak trace. The traces are the benchmark's input,
/// not the system's set-up, so `setup_s` does not time this.
pub fn traces(hosted: &Hosted, seed: u64) -> Result<Vec<Trace>, String> {
    let sensors = decode(&hosted.bytes)?.sensors;
    hosted
        .seeds
        .iter()
        .enumerate()
        .map(|(s, &session_seed)| {
            let stream = mix(seed, s as u64);
            detectable_trace(&hosted.net, &hosted.bytes, &sensors, stream, session_seed)
                .map_err(|e| format!("session {s}: {e}"))
        })
        .collect()
}

/// Starts the server (two workers) and creates the sessions — in process,
/// or through `PUT /v1/sessions/{id}` for [`Kind::Mixed`]. The sessions'
/// traces are left empty for [`traces`] to fill.
pub fn host(w: &Workload, net: Network, bytes: Vec<u8>, seed: u64) -> Result<Hosted, String> {
    let seeds: Vec<u64> = (0..w.sessions)
        .map(|s| mix(seed, 1000 + s as u64))
        .collect();
    let vault = Arc::new(ModelVault::new());
    vault
        .register_artifact(net.clone(), decode(&bytes)?)
        .map_err(ctx("register"))?;
    let registry = Arc::new(SessionRegistry::new());
    let hub = Arc::new(TelemetryHub::new());
    let server = Server::start_with_vault(
        Arc::clone(&registry),
        Arc::clone(&vault),
        Arc::clone(&hub),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .map_err(ctx("bind"))?;
    let ids: Vec<String> = (0..w.sessions).map(|s| format!("s{s}")).collect();
    for (id, &s) in ids.iter().zip(&seeds) {
        if w.kind == Kind::Mixed {
            let body = format!("{{\"network\":{:?},\"seed\":{s}}}", net.name());
            let resp = client::put_json(server.local_addr(), &format!("/v1/sessions/{id}"), &body)
                .map_err(ctx("create session"))?;
            if resp.status != 200 {
                return Err(format!("create session {id}: {}", resp.body));
            }
        } else {
            let session = vault
                .create_session(net.name(), s)
                .ok_or("tenant vanished")?;
            registry.insert(id.as_str(), session);
        }
    }
    Ok(Hosted {
        net,
        bytes,
        ids,
        seeds,
        traces: Vec::new(),
        registry,
        hub,
        server,
    })
}

/// Detections as `(slot time, leak-node names)`.
pub type Detections = Vec<(u64, Vec<String>)>;

/// A session's detections as the server reports them.
pub fn served_detections(addr: SocketAddr, id: &str) -> Result<Detections, String> {
    let resp =
        client::get(addr, &format!("/v1/sessions/{id}/detections")).map_err(ctx("detections"))?;
    let doc = resp.json()?;
    let parse = |d: &Json| -> Option<(u64, Vec<String>)> {
        let time = d.get("time")?.as_u64()?;
        let names = d.get("leak_nodes")?.as_arr()?;
        let names = names.iter().map(|n| n.as_str().map(str::to_string));
        Some((time, names.collect::<Option<Vec<_>>>()?))
    };
    doc.get("detections")
        .and_then(Json::as_arr)
        .ok_or("no detections array")?
        .iter()
        .map(|d| parse(d).ok_or_else(|| format!("malformed detection in {id}")))
        .collect()
}

/// The detections an in-process `HostedSession` produces from the same
/// slot sequence the server received.
pub fn reference_detections(
    hosted: &Hosted,
    session: usize,
    slots: &[u64],
) -> Result<Detections, String> {
    let artifact = decode(&hosted.bytes)?;
    let mut reference =
        HostedSession::from_artifact(hosted.net.clone(), artifact, hosted.seeds[session])
            .map_err(ctx("reference"))?;
    let trace = &hosted.traces[session];
    for &slot in slots {
        reference
            .ingest(slot * STEP_S, trace.readings(slot), TelemetryCtx::none())
            .map_err(ctx("reference ingest"))?;
    }
    let net = &hosted.net;
    Ok(reference
        .detections()
        .iter()
        .map(|d| {
            let names = d.leak_nodes.iter().map(|&n| net.node(n).name.clone());
            (d.time, names.collect())
        })
        .collect())
}
