//! Driving a hosted server: rung after rung of planned traffic, the
//! per-rung statistics, and the detection-parity gate.

use std::borrow::Cow;

use crate::fixture::{self, raw_request, Hosted};
use crate::load::{run_rung, Op, Planner, RungRun, Shot, LANES};
use crate::spec::Workload;
use crate::stats::{lateness_grows, median, windowed_percentile, Rung};

/// Planned traffic against one hosted fixture, with what was sent so far.
pub struct Traffic<'h> {
    hosted: &'h Hosted,
    planner: Planner,
    install: Vec<u8>,
    detections: Vec<Vec<u8>>,
    checkpoints: Vec<Vec<u8>>,
    /// Per session, the slots whose ingest the server acknowledged.
    pub sent_slots: Vec<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'h> Traffic<'h> {
    pub fn new(w: &Workload, hosted: &'h Hosted, seed: u64) -> Traffic<'h> {
        let get = |what: &str| -> Vec<Vec<u8>> {
            let path = |id: &String| format!("/v1/sessions/{id}/{what}");
            hosted
                .ids
                .iter()
                .map(|id| raw_request("GET", &path(id), b""))
                .collect()
        };
        let install_path = format!("/v1/models/{}", hosted.net.name());
        Traffic {
            hosted,
            planner: Planner::new(w.kind, w.sessions, seed),
            install: raw_request("POST", &install_path, &hosted.bytes),
            detections: get("detections"),
            checkpoints: get("checkpoint"),
            sent_slots: vec![Vec::new(); w.sessions],
            attempted: 0,
            failed: 0,
        }
    }

    fn request(&self, shot: &Shot) -> Cow<'_, [u8]> {
        match shot.op {
            Op::Ingest => {
                let id = &self.hosted.ids[shot.session];
                let body = self.hosted.traces[shot.session].body(shot.slot);
                let path = format!("/v1/sessions/{id}/ingest");
                Cow::Owned(raw_request("POST", &path, body.as_bytes()))
            }
            Op::Detections => Cow::Borrowed(&self.detections[shot.session]),
            Op::Checkpoint => Cow::Borrowed(&self.checkpoints[shot.session]),
            Op::Install => Cow::Borrowed(&self.install),
        }
    }

    /// Sends one rung: `rate` requests per second for `seconds`.
    pub fn rung(&mut self, rate: f64, seconds: f64) -> RungRun {
        let shots = self.planner.rung(rate, seconds);
        let run = run_rung(self.hosted.addr(), &shots, &|s| self.request(s));
        for s in &run.samples {
            self.attempted += 1;
            if !s.ok {
                self.failed += 1;
            } else if s.shot.op == Op::Ingest {
                self.sent_slots[s.shot.session].push(s.shot.slot);
            }
        }
        run
    }
}

/// What one rung measured. Every p99 is a [`windowed_percentile`].
#[derive(Debug, Clone)]
pub struct RungStats {
    pub rate: f64,
    pub requests: usize,
    pub ingest_p50_ms: Option<f64>,
    /// p99 over every request of the rung (the mix, for mixed workloads).
    pub p99_ms: Option<f64>,
    pub ingest_p99_ms: Option<f64>,
    pub read_p99_ms: Option<f64>,
    pub late_p99_ms: Option<f64>,
    pub grows: bool,
    pub achieved_rate: f64,
    /// Process CPU microseconds per request answered `200`.
    pub cpu_us_per_ok: f64,
    pub failed: usize,
}

impl RungStats {
    pub fn of(run: &RungRun, rate: f64, limit_ms: f64) -> RungStats {
        let ms = |keep: &dyn Fn(Op) -> bool| -> Vec<f64> {
            let kept = run.samples.iter().filter(|s| keep(s.shot.op));
            kept.map(|s| s.latency_s * 1e3).collect()
        };
        let all = ms(&|_| true);
        let ingest = ms(&|op| op == Op::Ingest);
        let reads = ms(&|op| matches!(op, Op::Detections | Op::Checkpoint));
        let late: Vec<f64> = run.samples.iter().map(|s| s.late_s * 1e3).collect();
        let ok = run.samples.iter().filter(|s| s.ok).count();
        let due_late: Vec<(f64, f64)> = run
            .samples
            .iter()
            .map(|s| (s.shot.due_ns as f64 / 1e6, s.late_s * 1e3))
            .collect();
        RungStats {
            rate,
            requests: run.samples.len(),
            ingest_p50_ms: median(&ingest),
            p99_ms: windowed_percentile(&all, 99.0),
            ingest_p99_ms: windowed_percentile(&ingest, 99.0),
            read_p99_ms: windowed_percentile(&reads, 99.0),
            late_p99_ms: windowed_percentile(&late, 99.0),
            grows: lateness_grows(&due_late, limit_ms),
            achieved_rate: run.achieved_rate,
            cpu_us_per_ok: run.cpu_s * 1e6 / ok.max(1) as f64,
            failed: run.samples.len() - ok,
        }
    }

    pub fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            p99: self.p99_ms,
            steady: !self.grows && self.failed == 0,
        }
    }
}

/// The parity gate: every session's served detections equal an
/// in-process reference fed the same slots, and every session detected
/// something. Returns `(passed, total detections)`; references run on the
/// generator lanes' two threads.
pub fn parity(hosted: &Hosted, sent_slots: &[Vec<u64>]) -> Result<(bool, usize), String> {
    let sessions: Vec<usize> = (0..hosted.ids.len()).collect();
    let chunk = sessions.len().div_ceil(LANES);
    let outcomes: Vec<Result<(bool, usize), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut ok = true;
                    let mut total = 0;
                    for &s in part {
                        let id = &hosted.ids[s];
                        let served = fixture::served_detections(hosted.addr(), id)?;
                        let reference = fixture::reference_detections(hosted, s, &sent_slots[s])?;
                        if served != reference || served.is_empty() {
                            eprintln!(
                                "parity: session {id}: {} served vs {} reference detections",
                                served.len(),
                                reference.len()
                            );
                            ok = false;
                        }
                        total += served.len();
                    }
                    Ok((ok, total))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    outcomes.into_iter().try_fold((true, 0), |acc, r| {
        let (ok, n) = r?;
        Ok((acc.0 && ok, acc.1 + n))
    })
}
