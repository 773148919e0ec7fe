//! The traced run's per-layer probes. Each one times calls into a layer's
//! public functions from here, on the workload's own inputs; no span is
//! added inside the library crates.
//!
//! The ledger then sets an unloaded, closed-loop ingest against the sum of
//! the layers it can see from outside (connection round trip, request
//! read, JSON parse, session ingest, response encode). What the sum misses
//! is reported as `ledger.unattributed_us`, not hidden.

use std::hint::black_box;
use std::time::Instant;

use aqua_core::{AquaScale, ExternalObservations, HostedSession, ModelHandle};
use aqua_fusion::tune_events;
use aqua_hydraulics::{solve_snapshot, solve_snapshot_with, SolverOptions, SolverWorkspace};
use aqua_ml::{BinnedDataset, Scaler, MAX_BINS};
use aqua_serve::http::{read_request, Response};
use aqua_serve::json::Json;
use aqua_telemetry::TelemetryHub;

use crate::fixture::{decode, raw_request, Built, Hosted, STEP_S};
use crate::load::send;
use crate::spec::Workload;
use crate::stats::median;

/// Calls behind each microsecond-scale median.
const CALLS: usize = 1000;
/// Scenarios of the corpus the solver probes replay.
const SOLVES: usize = 200;
/// Largest request body the server accepts (its default).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One named measurement, as printed.
pub type Metric = (&'static str, f64, &'static str);

/// Per-call seconds of `f`: at least `min` calls, then on until `max`
/// calls or `budget_s` seconds, whichever comes first.
fn time_calls(min: usize, max: usize, budget_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::with_capacity(max);
    while out.len() < min || (out.len() < max && start.elapsed().as_secs_f64() < budget_s) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

/// What the traced run measured at the nominal rate, handed in.
pub struct Nominal {
    /// Mean handler time of ingests the server recorded, seconds.
    pub server_mean_s: f64,
    /// Median ingest latency.
    pub p50_ms: f64,
    /// Windowed p99 latency of every request.
    pub p99_ms: f64,
    pub late_p99_ms: f64,
    pub requests: usize,
    pub detections: usize,
}

/// Every per-layer metric of one workload.
pub fn measure(
    w: &Workload,
    hosted: &Hosted,
    built: &Built,
    nominal: &Nominal,
) -> Result<Vec<Metric>, String> {
    let net = &hosted.net;
    let trace = &hosted.traces[0];
    let slots: Vec<u64> = (0..=CALLS as u64).collect();
    let bodies: Vec<String> = slots.iter().map(|&s| trace.body(s)).collect();
    let raws: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| raw_request("POST", "/v1/sessions/ledger/ingest", b.as_bytes()))
        .collect();
    let mut buf = Vec::new();
    let mut failures = 0usize;
    let mut status_ok = |status: std::io::Result<u16>| {
        if !matches!(status, Ok(200)) {
            failures += 1;
        }
    };

    // serve: an unloaded closed loop of the workload's own ingests on a
    // fresh session, then the bare connection round trip.
    let vault_session = HostedSession::from_artifact(net.clone(), decode(&hosted.bytes)?, 7)
        .map_err(|e| format!("ledger session: {e}"))?;
    hosted.registry.insert("ledger", vault_session);
    let mut i = 0;
    let unloaded = time_calls(CALLS, CALLS, 0.0, || {
        status_ok(send(hosted.addr(), &raws[i], &mut buf));
        i += 1;
    });
    let healthz = raw_request("GET", "/healthz", b"");
    let rtt = time_calls(CALLS, CALLS, 0.0, || {
        status_ok(send(hosted.addr(), &healthz, &mut buf))
    });
    if failures > 0 {
        return Err(format!("{failures} probe requests failed"));
    }

    let mut i = 0;
    let read = time_calls(CALLS, CALLS, 0.0, || {
        let mut wire: &[u8] = &raws[i % raws.len()];
        black_box(read_request(&mut wire, MAX_BODY).is_ok());
        i += 1;
    });
    let mut i = 0;
    let parse = time_calls(CALLS, CALLS, 0.0, || {
        black_box(Json::parse(&bodies[i % bodies.len()]).is_ok());
        i += 1;
    });
    let body_bytes: Vec<f64> = bodies.iter().map(|b| b.len() as f64).collect();
    let mut out = Vec::new();
    let mut i = 0;
    let encode = time_calls(CALLS, CALLS, 0.0, || {
        out.clear();
        let body = format!(
            "{{\"accepted\":1,\"new_detections\":0,\"detections_total\":{i},\"slots\":{i}}}"
        );
        black_box(Response::json(200, body).write_to(&mut out).is_ok());
        i += 1;
    });

    // core: the same slot sequence through an in-process session, under a
    // live telemetry context as the server's ingest route passes one.
    let hub = TelemetryHub::new();
    let mut session = HostedSession::from_artifact(net.clone(), decode(&hosted.bytes)?, 7)
        .map_err(|e| format!("probe session: {e}"))?;
    let mut i = 0;
    let mut ingest_err = None;
    let ingest = time_calls(CALLS, CALLS, 0.0, || {
        let slot = slots[i];
        if let Err(e) = session.ingest(slot * STEP_S, trace.readings(slot), hub.ctx()) {
            ingest_err = Some(e.to_string());
        }
        i += 1;
    });
    if let Some(e) = ingest_err {
        return Err(format!("probe ingest: {e}"));
    }
    let checkpoint_bytes = session.checkpoint().len() as f64;
    let checkpoint = time_calls(CALLS, CALLS, 2.0, || {
        black_box(session.checkpoint());
    });

    // core/fusion/ml: Phase II on the exact delta rows the session saw.
    let snap = session.model().snapshot();
    let aqua = AquaScale::new(net, snap.config.clone());
    let topology = snap
        .config
        .features
        .include_topology
        .then(|| net.topology_features());
    let rows: Vec<Vec<f64>> = slots
        .windows(2)
        .map(|pair| {
            let (prev, cur) = (trace.readings(pair[0]), trace.readings(pair[1]));
            let deltas = cur.iter().zip(prev).map(|(c, p)| match (c, p) {
                (Some(c), Some(p)) => c - p,
                _ => 0.0,
            });
            deltas.chain(topology.iter().flatten().copied()).collect()
        })
        .collect();
    let none = ExternalObservations::none();
    let mut p1s = Vec::with_capacity(rows.len());
    let mut i = 0;
    let mut infer_err = None;
    let infer = time_calls(CALLS, CALLS, 0.0, || {
        match aqua.infer(&snap.profile, &rows[i % rows.len()], &none) {
            Ok(inf) => p1s.push(inf.p1),
            Err(e) => infer_err = Some(e.to_string()),
        }
        i += 1;
    });
    if let Some(e) = infer_err {
        return Err(format!("probe infer: {e}"));
    }
    let mut i = 0;
    let tune = time_calls(CALLS, CALLS, 0.0, || {
        let p1 = &p1s[i % p1s.len()];
        let predicted: Vec<bool> = p1.iter().map(|&p| p > 0.5).collect();
        black_box(tune_events(p1, &predicted, &[], &[], &snap.config.tuning));
        i += 1;
    });

    let handle = ModelHandle::from_artifact(net, decode(&hosted.bytes)?)
        .map_err(|e| format!("probe handle: {e}"))?;
    let mut install_err = None;
    let install = time_calls(5, CALLS, 1.5, || {
        if let Err(e) = handle.install(net, &hosted.bytes) {
            install_err = Some(e.to_string());
        }
    });
    if let Some(e) = install_err {
        return Err(format!("probe install: {e}"));
    }

    // artifact
    let decoded = decode(&hosted.bytes)?;
    let encode_artifact = time_calls(5, CALLS, 1.0, || {
        black_box(decoded.to_bytes());
    });
    let decode_artifact = time_calls(5, CALLS, 1.0, || {
        black_box(decode(&hosted.bytes).is_ok());
    });

    // ml: the shared quantization pass on the scaled corpus. Families that
    // train without one (LinearR) are binned at the widest budget.
    let kind = w.model();
    let scaled = Scaler::fit(&built.dataset.x).transform(&built.dataset.x);
    let bins = kind.histogram_bins();
    let bin = time_calls(3, CALLS, 1.0, || {
        black_box(BinnedDataset::build(&scaled, bins.unwrap_or(MAX_BINS)));
    });
    let bin_s = med(&bin);
    let fit_s = built.train_s - if bins.is_some() { bin_s } else { 0.0 };

    // hydraulics: the corpus's own scenarios at their post-leak reading,
    // single thread, on one warm workspace versus a fresh one per solve.
    let opts = SolverOptions::default();
    let scenarios = &built.dataset.scenarios[..built.dataset.scenarios.len().min(SOLVES)];
    let at = |k: usize| scenarios[k].leaks.first().map_or(0, |l| l.start) + STEP_S;
    let mut ws = SolverWorkspace::new(net);
    let mut solve_err = 0usize;
    let mut k = 0;
    let warm = time_calls(scenarios.len(), scenarios.len(), 0.0, || {
        solve_err +=
            usize::from(solve_snapshot_with(net, &scenarios[k], at(k), &opts, &mut ws).is_err());
        k += 1;
    });
    let mut k = 0;
    let cold = time_calls(scenarios.len(), scenarios.len(), 0.0, || {
        solve_err += usize::from(solve_snapshot(net, &scenarios[k], at(k), &opts).is_err());
        k += 1;
    });
    if solve_err > 0 {
        return Err(format!("{solve_err} probe solves failed"));
    }

    let us = |v: &[f64]| med(v) * 1e6;
    let ms = |v: &[f64]| med(v) * 1e3;
    let (unloaded_us, rtt_us) = (us(&unloaded), us(&rtt));
    let (read_us, parse_us, encode_us) = (us(&read), us(&parse), us(&encode));
    let (ingest_us, infer_us, tune_us) = (us(&ingest), us(&infer), us(&tune));
    let attributed = rtt_us + read_us + parse_us + ingest_us + encode_us;
    let corpus = built.dataset.scenarios.len() as f64;
    Ok(vec![
        ("serve.conn_rtt_us", rtt_us, "us"),
        ("serve.read_request_us", read_us, "us"),
        ("serve.json_parse_us", parse_us, "us"),
        ("serve.body_bytes", med(&body_bytes), "bytes"),
        ("serve.encode_us", encode_us, "us"),
        ("serve.server_mean_us", nominal.server_mean_s * 1e6, "us"),
        ("core.session_ingest_us", ingest_us, "us"),
        ("core.infer_us", infer_us, "us"),
        ("core.monitor_us", ingest_us - infer_us, "us"),
        ("core.checkpoint_us", us(&checkpoint), "us"),
        ("core.checkpoint_bytes", checkpoint_bytes, "bytes"),
        ("core.swap_install_ms", ms(&install), "ms"),
        ("core.detections", nominal.detections as f64, "count"),
        ("fusion.tune_us", tune_us, "us"),
        ("ml.predict_us", infer_us - tune_us, "us"),
        ("ml.model_bytes", hosted.bytes.len() as f64, "bytes"),
        ("ml.bin_s", bin_s, "s"),
        ("ml.fit_s", fit_s, "s"),
        ("sensing.build_s", built.build_s, "s"),
        ("sensing.scenarios_per_s", corpus / built.build_s, "1/s"),
        ("hydraulics.solve_warm_us", us(&warm), "us"),
        ("hydraulics.solve_cold_us", us(&cold), "us"),
        ("artifact.encode_ms", ms(&encode_artifact), "ms"),
        ("artifact.decode_ms", ms(&decode_artifact), "ms"),
        ("load.p50_ms", nominal.p50_ms, "ms"),
        ("load.p99_ms", nominal.p99_ms, "ms"),
        ("load.late_p99_ms", nominal.late_p99_ms, "ms"),
        ("load.requests", nominal.requests as f64, "count"),
        ("ledger.unloaded_p50_us", unloaded_us, "us"),
        ("ledger.unattributed_us", unloaded_us - attributed, "us"),
        ("ledger.coverage", attributed / unloaded_us, "ratio"),
    ])
}
