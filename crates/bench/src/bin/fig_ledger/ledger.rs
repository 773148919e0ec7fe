//! `fig_ledger` — the performance ledger: one benchmark for live ingest
//! and Phase I, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/fig_ledger/Cargo.toml -- \
//!     --seed <n> [--workload <name>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! This directory is a package of its own, built only from its own
//! `Cargo.toml`; `cargo test --manifest-path` on it runs the `stats` and
//! `load` tests.
//!
//! Without `--workload` every workload runs in a child process of its own,
//! so `peak_rss_mb` belongs to that workload. Each run prints one
//! `name value unit` line per metric, then diagnostic lines in the same
//! form, and as its last line a JSON summary
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero when a
//! correctness gate fails. `--seconds` (default 10) is the planned measured
//! time: a warm-up of 1/16 of it, then the four-rung rate ladder, or the
//! span of repeated Phase-I builds. Set-ups come first and are timed apart.
//!
//! Every seed hosts and scores the same profile, trained on a fixed corpus
//! and scored on a fixed held-out one (`fixture.rs`); `--seed` drives the
//! traffic: the sessions' leak traces and noise, session seeds and the
//! order each generator thread visits its sessions. `phase1-wssc` has no
//! traffic, so its runs differ only in the host's noise.
//!
//! Load comes from this one process: two generator threads, one request
//! in flight each, against a server with two workers. Online workloads are
//! open loop — each thread owns half the sessions and sends on a fixed
//! schedule — and every latency is timed from the request's due time.
//!
//! # End-to-end metrics (untraced run; every workload reports each)
//!
//! | name | unit | ingest-* | phase1-wssc |
//! |---|---|---|---|
//! | `setup_s` | s | median set-up: Phase I, artifact encode/decode, server start, session creation | median set-up: the held-out corpus |
//! | `peak_rss_mb` | MiB | `VmHWM` of the workload's process | same |
//! | `hamming` | Jaccard | `aqua_ml::metrics::hamming_score` of the hosted profile on 300 held-out scenarios | same, for the built profile |
//!
//! A run sets up at least five times, and again until its set-ups add up
//! to `--seconds`. The sessions' leak traces and the held-out corpus of the
//! ingest workloads are the benchmark's input, made outside the timed
//! set-ups.
//!
//! Printed beside them, unbounded: `ingest_p50_ms` (median ingest latency
//! at the nominal rate) or, for Phase I, `build_p50_ms` (median
//! `AquaScale::train_profile` wall time); each rung's rate, requests,
//! achieved rate, p99, generator lateness, process CPU per request (server
//! and generator; capacity is cores ÷ this) and whether it held steady;
//! `ingest_p99_ms` and `read_p99_ms` at the nominal rate; `sustained_rps`
//! (the highest rate meeting the workload's p99 limit with no growing
//! lateness, interpolated between rungs); `throughput_rps` on the
//! saturated top rung; `fail_frac`; for Phase I the slowest build and CPU
//! per scenario. Every p99 is the median over 1000-request windows of each
//! window's p99, so that one stall of the host does not own it. Every
//! time here follows the speed of the shared two-core host, which drifts
//! by a tenth to a quarter between sets of runs, so none is bounded; only
//! `setup_s`, which every benchmark must report, is (CALIBRATION.md).
//!
//! # Workloads
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `ingest-epa-lite` | EPA-NET, LinearR (600 scenarios), 8 sessions, one slot per POST | transport, HTTP parse and JSON decode dominate and predict is small: a transport or parse change shows here, a predict change should not |
//! | `ingest-wssc-hybrid` | WSSC-SUBNET, HybridRSL (300 scenarios), 8 sessions, ~12 KB bodies | per-junction predict dominates: a predict change shows here and should leave `ingest-epa-lite` unchanged |
//! | `ingest-epa-mixed` | EPA-NET, HybridRSL (600), sessions made through the vault; per slot an ingest POST, a detections GET and a checkpoint GET; every 1000 requests the same artifact is re-installed | writes, reads and model swaps share session shards and the model handle: speeding one at the others' cost shows as their latencies moving apart |
//! | `phase1-wssc` | `train_profile` on WSSC-SUBNET, HybridRSL (400 scenarios), 2 threads, repeated; then held-out scoring | solver and trainer only, no HTTP: their changes show here and must hold the ingest workloads |
//!
//! Rates, rung layout and limits are frozen in `spec.rs`.
//!
//! # Correctness gates
//!
//! * Ingest workloads: each session's detections (times and node names)
//!   equal an in-process `HostedSession` fed the same slots, and each
//!   session detected at least once.
//! * Every workload: `hamming` is strictly above the never-fire and
//!   always-fire control arms on the same held-out labels.
//!
//! # Per-layer metrics (`--trace 1` run)
//!
//! The traced run sets up once, runs the nominal rate for half of
//! `--seconds`, then times calls into each layer's public functions from
//! this program (no spans inside the library crates). Medians are over
//! 1000 calls for microsecond-scale layers and time-boxed for the rest.
//! `phase1-wssc` hosts its freshly built profile at 250 req/s so that every
//! layer is measured on each workload's own inputs.
//!
//! | layer metric | measured by | should move |
//! |---|---|---|
//! | `serve.conn_rtt_us` | `GET /healthz` round trip, one client, idle server | `load.p50_ms`, `rung*.cpu_us_per_req` on ingest-epa-lite |
//! | `serve.read_request_us` | `aqua_serve::http::read_request` on the workload's raw ingest requests | `load.p50_ms` on ingest-epa-lite |
//! | `serve.json_parse_us`, `serve.body_bytes` | `aqua_serve::json::Json::parse` on the bodies | `load.p50_ms` on ingest-epa-lite and ingest-wssc-hybrid |
//! | `serve.encode_us` | `Response::json(..).write_to(&mut Vec)` | `load.p50_ms` on ingest-epa-lite |
//! | `serve.server_mean_us` | mean of the server's `serve.red.latency_s.ingest` at the nominal rate (the hub's quantiles are one ×1.9 bucket wide); client p50 minus this is time outside handlers | `load.p50_ms`, `sustained_rps` on ingest-epa-lite |
//! | `core.session_ingest_us` | `HostedSession::ingest`, same slots, in process | `load.p50_ms` on ingest-wssc-hybrid |
//! | `core.infer_us` | `AquaScale::infer` on the session's delta rows (consecutive differences, plus `Network::topology_features()` when the snapshot's config includes them) | `load.p50_ms` on ingest-wssc-hybrid |
//! | `core.monitor_us` | derived: session ingest − infer (faults, health, deltas, config clone, telemetry) | `load.p50_ms` on ingest-epa-lite |
//! | `core.checkpoint_us`, `core.checkpoint_bytes` | `HostedSession::checkpoint` | `read_p99_ms` and `load.p50_ms` on ingest-epa-mixed |
//! | `core.swap_install_ms` | `ModelHandle::install(net, bytes)` | `ingest_p99_ms` and `load.p50_ms` on ingest-epa-mixed |
//! | `core.detections` | detections over the checked sessions | correctness |
//! | `fusion.tune_us` | `aqua_fusion::tune_events` on infer's `p1`, no external observations | `load.p50_ms` on ingest-wssc-hybrid |
//! | `ml.predict_us` | derived: infer − tune | `load.p50_ms` on ingest-wssc-hybrid; ~0 on ingest-epa-lite |
//! | `ml.model_bytes` | artifact length | `setup_s`, `peak_rss_mb` |
//! | `ml.bin_s` | `BinnedDataset::build` on the scaled corpus (LinearR, which trains unbinned, at the widest budget) | `build_p50_ms` on phase1-wssc; `setup_s` on ingest-* |
//! | `ml.fit_s` | derived: `train_profile_on` − bin | `build_p50_ms` on phase1-wssc; `setup_s` on ingest-* |
//! | `sensing.build_s`, `sensing.scenarios_per_s` | `AquaScale::generate_dataset` | `setup_s` on every workload; `build_p50_ms` on phase1-wssc |
//! | `hydraulics.solve_warm_us`, `hydraulics.solve_cold_us` | `solve_snapshot_with` on one warm `SolverWorkspace` vs `solve_snapshot`, one thread, first 200 corpus scenarios | `setup_s` on every workload via `sensing.build_s` |
//! | `artifact.encode_ms`, `artifact.decode_ms` | `ProfileArtifact::to_bytes` / `from_bytes` | `setup_s`, `core.swap_install_ms` |
//! | `load.p50_ms` | median ingest latency at the nominal rate, as `ingest_p50_ms` | what users wait on; every `serve.*`, `core.*`, `fusion.*` and `ml.predict_us` row sums into it |
//! | `load.p99_ms`, `load.late_p99_ms`, `load.requests` | windowed p99 latency, generator lateness and requests at the nominal rate | the tail; run validity |
//! | `ledger.unloaded_p50_us` | closed loop, one connection, the workload's own ingests | baseline for the sum |
//! | `ledger.unattributed_us`, `ledger.coverage` | unloaded p50 − (conn_rtt + read_request + json_parse + session_ingest + encode), and attributed ÷ unloaded | where the next optimization should look |
//!
//! The traced run also prints `sensing.resampled_slots`,
//! `sensing.solver_recoveries`, `serve.shed` and `serve.conn_errors`, which
//! are 0 on a healthy run. CALIBRATION.md beside this file holds the seeds,
//! the measured spreads and the bounds they justify.

mod fixture;
mod layers;
mod load;
mod online;
mod spec;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use aqua_core::{AquaScale, ProfileArtifact};
use aqua_serve::json::Json;
use aqua_telemetry::TelemetryHub;

use layers::{Metric, Nominal};
use online::{RungStats, Traffic};
use spec::{Kind, Workload, NOMINAL};
use stats::{median, sustained_rate, Rung, WINDOW};

/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups per untraced run behind the `setup_s` median, at least; more
/// follow until they add up to `--seconds`, so that a short set-up is
/// sampled over as much of the host's drift as a long one.
const SETUPS: usize = 5;
/// Phase-I builds at least, however long they take.
const MIN_BUILDS: usize = 3;
/// Warm-up before the first rung, as a share of `--seconds`.
const WARMUP_SHARE: f64 = 0.0625;
/// Each rung's planned share of `--seconds`. The nominal rung carries the
/// printed `ingest_p50_ms`, so it runs longest; past saturation the top
/// rung takes longer than planned.
const RUNG_SHARES: [f64; 4] = [0.1, 0.7, 0.1, 0.1];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One workload's result: the bounded metrics (the JSON's `metrics`) and
/// diagnostic notes printed beside them.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn note(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.notes.push((name.into(), v, unit));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        for (name, value, unit) in &self.notes {
            println!("{name} {value} {unit}");
        }
        println!("{}", self.json());
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn ingest_latency_sums(hub: &TelemetryHub) -> (f64, u64) {
    let snap = hub.metrics_snapshot();
    snap.histogram("serve.red.latency_s.ingest")
        .map_or((0.0, 0), |h| (h.sum, h.count))
}

fn end_to_end(setup: &[f64], hamming: f64) -> Result<Vec<Metric>, String> {
    Ok(vec![
        ("setup_s", median(setup).ok_or("no set-up")?, "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ("hamming", hamming, "Jaccard"),
    ])
}

/// Times `set_up` at least [`SETUPS`] times and until the set-ups add up to
/// `seconds`; returns each one's wall time and what the last one made.
fn set_up_repeatedly<T>(
    seconds: f64,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUPS || times.iter().sum::<f64>() < seconds {
        // The previous one (a server drains and joins) is gone first.
        drop(last.take());
        let start = Instant::now();
        let made = set_up()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    Ok((times, last.ok_or("no set-up ran")?))
}

/// An ingest workload, untraced: the set-ups, a warm-up, the ladder, then
/// the parity and quality gates.
fn online(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let config = fixture::config(w);
    let (setup, mut hosted) = set_up_repeatedly(seconds, || {
        let net = w.net.build();
        let built = fixture::build_profile(&net, &config)?;
        fixture::host(w, net, built.bytes, seed)
    })?;
    hosted.traces = fixture::traces(&hosted, seed)?;

    let mut traffic = Traffic::new(w, &hosted, seed);
    traffic.rung(w.nominal_rate(), seconds * WARMUP_SHARE);
    let rungs: Vec<RungStats> = w
        .ladder
        .iter()
        .zip(RUNG_SHARES)
        .map(|(&rate, share)| {
            // Every rung runs long enough for one p99 window.
            let rung_s = (seconds * share).max(WINDOW as f64 / rate);
            RungStats::of(&traffic.rung(rate, rung_s), rate, w.p99_limit_ms)
        })
        .collect();
    let nominal = &rungs[NOMINAL];
    let top = rungs.last().ok_or("empty ladder")?;
    if !nominal.rung().steady {
        eprintln!(
            "{}: the nominal rate did not hold steady: {nominal:?}",
            w.name
        );
    }

    let (parity, detections) = online::parity(&hosted, &traffic.sent_slots)?;
    let held = fixture::held_out(&hosted.net, &config)?;
    let score = fixture::score(&hosted.net, &config, &hosted.bytes, &held)?;
    let ladder: Vec<Rung> = rungs.iter().map(RungStats::rung).collect();
    let mut report = Report {
        correct: parity && score.beats_controls(),
        attempted: traffic.attempted,
        failed: traffic.failed,
        metrics: end_to_end(&setup, score.hamming)?,
        notes: Vec::new(),
    };
    report.note("ingest_p50_ms", nominal.ingest_p50_ms, "ms");
    for (i, r) in rungs.iter().enumerate() {
        report.note(format!("rung{i}.rate"), Some(r.rate), "req/s");
        report.note(
            format!("rung{i}.requests"),
            Some(r.requests as f64),
            "count",
        );
        report.note(
            format!("rung{i}.achieved_rps"),
            Some(r.achieved_rate),
            "req/s",
        );
        report.note(format!("rung{i}.p99_ms"), r.p99_ms, "ms");
        report.note(format!("rung{i}.late_p99_ms"), r.late_p99_ms, "ms");
        report.note(
            format!("rung{i}.cpu_us_per_req"),
            Some(r.cpu_us_per_ok),
            "us",
        );
        report.note(
            format!("rung{i}.steady"),
            Some(f64::from(u8::from(r.rung().steady))),
            "bool",
        );
    }
    report.note("ingest_p99_ms", nominal.ingest_p99_ms, "ms");
    report.note("read_p99_ms", nominal.read_p99_ms, "ms");
    report.note(
        "sustained_rps",
        Some(sustained_rate(&ladder, w.p99_limit_ms)),
        "req/s",
    );
    report.note("throughput_rps", Some(top.achieved_rate), "req/s");
    finish(report, traffic.attempted, &score, detections)
}

fn finish(
    mut report: Report,
    attempted: u64,
    score: &fixture::Score,
    detections: usize,
) -> Result<Report, String> {
    report.note(
        "fail_frac",
        Some(report.failed as f64 / attempted.max(1) as f64),
        "ratio",
    );
    report.note("never_fire_hamming", Some(score.never_fire), "Jaccard");
    report.note("always_fire_hamming", Some(score.always_fire), "Jaccard");
    report.note("detections", Some(detections as f64), "count");
    Ok(report)
}

/// Phase I, untraced: the set-ups (the held-out corpus), then
/// `train_profile` again and again for the measured span.
fn phase1(w: &Workload, seconds: f64) -> Result<Report, String> {
    let config = fixture::config(w);
    let (setup, (net, held)) = set_up_repeatedly(seconds, || {
        let net = w.net.build();
        let held = fixture::held_out(&net, &config)?;
        Ok((net, held))
    })?;

    let aqua = AquaScale::new(&net, config.clone());
    let start = Instant::now();
    let cpu0 = load::process_cpu_s();
    let mut builds = Vec::new();
    let mut profile = None;
    while builds.len() < MIN_BUILDS || start.elapsed().as_secs_f64() < seconds {
        drop(profile.take());
        let t = Instant::now();
        let built = aqua.train_profile().map_err(|e| format!("phase I: {e}"))?;
        builds.push(t.elapsed().as_secs_f64());
        profile = Some(built);
    }
    let cpu_s = load::process_cpu_s() - cpu0;
    let profile = profile.ok_or("no build ran")?;
    let bytes = ProfileArtifact::capture(&aqua, profile).to_bytes();
    let score = fixture::score(&net, &config, &bytes, &held)?;
    let build_s = median(&builds).ok_or("no build ran")?;
    let scenarios = (builds.len() * w.corpus) as f64;
    let mut report = Report {
        correct: score.beats_controls(),
        attempted: builds.len() as u64,
        failed: 0,
        metrics: end_to_end(&setup, score.hamming)?,
        notes: Vec::new(),
    };
    report.note("build_p50_ms", Some(build_s * 1e3), "ms");
    report.note("builds", Some(builds.len() as f64), "count");
    report.note(
        "build_max_ms",
        Some(builds.iter().copied().fold(0.0, f64::max) * 1e3),
        "ms",
    );
    report.note("cpu_us_per_scenario", Some(cpu_s * 1e6 / scenarios), "us");
    report.note("scenarios_per_s", Some(w.corpus as f64 / build_s), "1/s");
    finish(report, builds.len() as u64, &score, 0)
}

/// The traced run of any workload: one set-up, the nominal rate for half
/// the measured span, then the per-layer probes.
fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let config = fixture::config(w);
    let net = w.net.build();
    let built = fixture::build_profile(&net, &config)?;
    let mut hosted = fixture::host(w, net, built.bytes.clone(), seed)?;
    hosted.traces = fixture::traces(&hosted, seed)?;

    let mut traffic = Traffic::new(w, &hosted, seed);
    traffic.rung(w.nominal_rate(), seconds * WARMUP_SHARE);
    let (sum0, count0) = ingest_latency_sums(&hosted.hub);
    // Long enough for one p99 window, as every untraced rung is.
    let nominal_s = (seconds / 2.0).max(WINDOW as f64 / w.nominal_rate());
    let run = traffic.rung(w.nominal_rate(), nominal_s);
    let (sum1, count1) = ingest_latency_sums(&hosted.hub);
    let stats = RungStats::of(&run, w.nominal_rate(), w.p99_limit_ms);
    let (parity, detections) = online::parity(&hosted, &traffic.sent_slots)?;
    let nominal = Nominal {
        server_mean_s: (sum1 - sum0) / count1.saturating_sub(count0).max(1) as f64,
        p50_ms: stats.ingest_p50_ms.ok_or("no ingest at the nominal rate")?,
        p99_ms: stats.p99_ms.ok_or("too few requests for a p99")?,
        late_p99_ms: stats
            .late_p99_ms
            .ok_or("too few requests for a lateness p99")?,
        requests: stats.requests,
        detections,
    };
    let metrics = layers::measure(w, &hosted, &built, &nominal)?;
    let held = fixture::held_out(&hosted.net, &config)?;
    let score = fixture::score(&hosted.net, &config, &hosted.bytes, &held)?;
    let shed = hosted.hub.metrics_snapshot().counter("serve.http.shed");
    let mut report = Report {
        correct: parity && score.beats_controls(),
        attempted: traffic.attempted,
        failed: traffic.failed,
        metrics,
        notes: Vec::new(),
    };
    let summary = built.dataset.summary;
    report.note(
        "sensing.resampled_slots",
        Some(summary.resampled_slots as f64),
        "count",
    );
    report.note(
        "sensing.solver_recoveries",
        Some(summary.solver_recoveries as f64),
        "count",
    );
    report.note("serve.shed", Some(shed as f64), "count");
    report.note("serve.conn_errors", Some(traffic.failed as f64), "count");
    finish(report, traffic.attempted, &score, detections)
}

fn run(w: &Workload, args: &Args) -> Result<Report, String> {
    let report = match (args.traced, w.kind) {
        (true, _) => traced(w, args.seed, args.seconds)?,
        (false, Kind::Phase1) => phase1(w, args.seconds)?,
        (false, Kind::Ingest | Kind::Mixed) => online(w, args.seed, args.seconds)?,
    };
    match report.metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, value, _)) => Err(format!("{name} is {value}")),
        None => Ok(report),
    }
}

/// Runs every workload in a child process and prints their results, then
/// one JSON line keyed by workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut results = Vec::new();
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        let out = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            println!("{} {line}", w.name);
        }
        let summary = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let count = |key: &str| summary.as_ref().and_then(|s| s.get(key)?.as_u64());
        let ok = out.status.success() && summary.is_some();
        correct &= ok;
        attempted += count("attempted").unwrap_or(0);
        failed += count("failed").unwrap_or(0);
        let line = stdout.lines().last().filter(|_| ok).unwrap_or("null");
        results.push(format!("\"{}\":{line}", w.name));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"workloads\":{{{}}}}}",
        results.join(",")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fig_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        None => run_all(&args),
        Some(name) => spec::find(name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
            .and_then(|w| run(w, &args))
            .map(|report| {
                report.print();
                report.correct
            }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fig_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
