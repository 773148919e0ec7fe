//! The open-loop load generator: at most two lanes (generator threads),
//! each owning half the sessions and sending one request at a time on a
//! fixed schedule, so at most two connections are ever in flight.
//!
//! A request is timed from when it was *due*, not from when the lane got
//! around to sending it, so a stall shows up in every request it delays;
//! how late each send was is recorded next to it. Every planned request is
//! sent: past saturation a rung takes longer than planned, but the work it
//! does (and so the memory it leaves behind) is fixed by the plan.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Kind, INSTALL_EVERY};

/// Generator threads (the benchmark machine has two cores).
pub const LANES: usize = 2;
/// Socket timeout for one request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What a request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ingest,
    Detections,
    Checkpoint,
    Install,
}

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    /// Due time from the start of its rung.
    pub due_ns: u64,
    pub lane: usize,
    pub session: usize,
    pub op: Op,
    /// The session's ingest index (meaningful for [`Op::Ingest`]).
    pub slot: u64,
}

/// Plans rung after rung of a run. The plan is a pure function of the
/// workload kind, session count, seed and rung sequence; the seed fixes
/// the order in which each lane visits its sessions.
pub struct Planner {
    kind: Kind,
    lanes: [Vec<usize>; LANES],
    lane_next: [u64; LANES],
    slots: Vec<u64>,
    sent: u64,
}

impl Planner {
    pub fn new(kind: Kind, sessions: usize, seed: u64) -> Planner {
        let mut order: Vec<usize> = (0..sessions).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..sessions).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let lanes = [0, 1].map(|lane| order.iter().copied().skip(lane).step_by(LANES).collect());
        Planner {
            kind,
            lanes,
            lane_next: [0; LANES],
            slots: vec![0; sessions],
            sent: 0,
        }
    }

    /// The requests of one rung: `rate` requests per second for `seconds`,
    /// dealt round-robin to the lanes, in due order.
    pub fn rung(&mut self, rate: f64, seconds: f64) -> Vec<Shot> {
        let count = (rate * seconds).round() as u64;
        (0..count)
            .map(|i| self.next(i, (i as f64 * 1e9 / rate) as u64))
            .collect()
    }

    fn next(&mut self, i: u64, due_ns: u64) -> Shot {
        let lane = (i % LANES as u64) as usize;
        self.sent += 1;
        if self.kind == Kind::Mixed && self.sent.is_multiple_of(INSTALL_EVERY) {
            return Shot {
                due_ns,
                lane,
                session: 0,
                op: Op::Install,
                slot: 0,
            };
        }
        let j = self.lane_next[lane];
        self.lane_next[lane] += 1;
        let (step, op) = match self.kind {
            Kind::Mixed => (
                j / 3,
                [Op::Ingest, Op::Detections, Op::Checkpoint][(j % 3) as usize],
            ),
            Kind::Ingest | Kind::Phase1 => (j, Op::Ingest),
        };
        let sessions = &self.lanes[lane];
        let session = sessions[(step % sessions.len() as u64) as usize];
        let slot = self.slots[session];
        if op == Op::Ingest {
            self.slots[session] += 1;
        }
        Shot {
            due_ns,
            lane,
            session,
            op,
            slot,
        }
    }
}

/// One request as it happened.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub shot: Shot,
    /// Seconds the send started after its due time.
    pub late_s: f64,
    /// Seconds from due time to the full response.
    pub latency_s: f64,
    /// `200` received.
    pub ok: bool,
}

/// A rung as run.
pub struct RungRun {
    pub samples: Vec<Sample>,
    /// Requests answered `200` per second, from the rung's start to its
    /// last response.
    pub achieved_rate: f64,
    /// CPU seconds this process (server and generator) spent on the rung.
    pub cpu_s: f64,
}

/// Runs `shots` against `addr` open loop, one thread per lane, each
/// request built by `request` before its due time.
pub fn run_rung<'a, F>(addr: SocketAddr, shots: &'a [Shot], request: &F) -> RungRun
where
    F: Fn(&Shot) -> Cow<'a, [u8]> + Sync,
{
    let barrier = Barrier::new(LANES);
    let cpu0 = process_cpu_s();
    let lanes: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|lane| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let lane_shots = shots.iter().filter(|s| s.lane == lane);
                    run_lane(addr, lane_shots, start, request)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator lane panicked"))
            .collect()
    });
    let cpu_s = process_cpu_s() - cpu0;
    let mut samples: Vec<Sample> = lanes.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.shot.due_ns);
    let ok = samples.iter().filter(|s| s.ok);
    let span_s = ok
        .clone()
        .map(|s| s.shot.due_ns as f64 / 1e9 + s.latency_s)
        .fold(0.0, f64::max);
    let achieved_rate = ok.count() as f64 / span_s.max(f64::MIN_POSITIVE);
    RungRun {
        samples,
        achieved_rate,
        cpu_s,
    }
}

/// User plus system CPU seconds of this whole process so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s); NaN where the file is
/// missing or malformed.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields 14 and 15 (utime, stime), counted after the parenthesised
    // command name, which may itself hold spaces.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

fn run_lane<'a, F>(
    addr: SocketAddr,
    shots: impl Iterator<Item = &'a Shot>,
    start: Instant,
    request: &F,
) -> Vec<Sample>
where
    F: Fn(&Shot) -> Cow<'a, [u8]>,
{
    let mut samples = Vec::new();
    let mut buf = Vec::with_capacity(64 * 1024);
    for shot in shots {
        let bytes = request(shot);
        let due = start + Duration::from_nanos(shot.due_ns);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due);
        let ok = send(addr, &bytes, &mut buf).is_ok_and(|status| status == 200);
        samples.push(Sample {
            shot: *shot,
            late_s: late.as_secs_f64(),
            latency_s: Instant::now().saturating_duration_since(due).as_secs_f64(),
            ok,
        });
    }
    samples
}

/// Sends one raw request on a fresh connection and reads the whole
/// response (the server closes every connection); returns the status.
pub fn send(addr: SocketAddr, request: &[u8], buf: &mut Vec<u8>) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    buf.clear();
    stream.read_to_end(buf)?;
    buf.get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use aqua_core::SessionRegistry;
    use aqua_net::synth;
    use aqua_sensing::SensorSet;
    use aqua_serve::{ServeConfig, Server};
    use aqua_telemetry::TelemetryHub;

    use super::*;
    use crate::fixture::{leak_trace, mix, raw_request};
    use crate::stats::lateness_grows;

    fn server() -> Server {
        Server::start(
            Arc::new(SessionRegistry::new()),
            Arc::new(TelemetryHub::new()),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("bind")
    }

    fn lateness(run: &RungRun) -> Vec<(f64, f64)> {
        run.samples
            .iter()
            .map(|s| (s.shot.due_ns as f64 / 1e9, s.late_s))
            .collect()
    }

    #[test]
    fn an_overloaded_rung_falls_behind_and_is_flagged() {
        let server = server();
        // Two lanes, each request holding a worker 5 ms, offered every
        // 1 ms: at most 400/s can complete against 1000/s due.
        let shots = Planner::new(Kind::Ingest, 2, 1).rung(1000.0, 0.3);
        let sleep = raw_request("POST", "/debug/sleep/5", b"");
        let run = run_rung(server.local_addr(), &shots, &|_| Cow::Borrowed(&sleep[..]));
        // Every planned request is sent, however late.
        assert_eq!(run.samples.len(), 300);
        assert!(run.samples.iter().all(|s| s.ok));
        let first = run.samples[..20].iter().map(|s| s.latency_s).sum::<f64>();
        let last = run.samples[run.samples.len() - 20..]
            .iter()
            .map(|s| s.latency_s)
            .sum::<f64>();
        assert!(
            last > 3.0 * first,
            "due-time latency must grow: {first} -> {last}"
        );
        assert!(lateness_grows(&lateness(&run), 0.01));
        server.shutdown();
    }

    #[test]
    fn a_light_rung_keeps_to_its_schedule() {
        let server = server();
        let shots = Planner::new(Kind::Ingest, 2, 1).rung(200.0, 0.5);
        let health = raw_request("GET", "/healthz", b"");
        let run = run_rung(server.local_addr(), &shots, &|_| Cow::Borrowed(&health[..]));
        assert_eq!(run.samples.len(), 100);
        assert!(run.samples.iter().all(|s| s.ok));
        let late = crate::stats::median(&lateness(&run).iter().map(|l| l.1).collect::<Vec<_>>());
        assert!(late.expect("samples") < 0.002, "median lateness {late:?}");
        assert!(!lateness_grows(&lateness(&run), 0.002));
        server.shutdown();
    }

    /// Everything the server receives, as bytes, for a seed.
    fn wire(seed: u64) -> Vec<(Shot, Vec<u8>)> {
        let net = synth::epa_net();
        let sensors = SensorSet::full(&net);
        let traces: Vec<_> = (0..4)
            .map(|s| leak_trace(&net, &sensors, mix(seed, s), 0).expect("trace"))
            .collect();
        let mut planner = Planner::new(Kind::Mixed, 4, seed);
        let shots: Vec<Shot> = [(100.0, 0.5), (300.0, 3.5)]
            .iter()
            .flat_map(|&(rate, secs)| planner.rung(rate, secs))
            .collect();
        shots
            .into_iter()
            .map(|s| {
                let body = traces[s.session].body(s.slot);
                (
                    s,
                    raw_request("POST", "/v1/sessions/x/ingest", body.as_bytes()),
                )
            })
            .collect()
    }

    #[test]
    fn the_seed_fixes_every_schedule_and_body() {
        let a = wire(11);
        assert_eq!(a, wire(11), "same seed, same bytes and schedule");
        let b = wire(12);
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.0 != y.0),
            "schedules differ"
        );
        assert!(a.iter().zip(&b).all(|(x, y)| x.1 != y.1), "bodies differ");
        // Mixed plans install once per INSTALL_EVERY requests.
        let installs = a.iter().filter(|(s, _)| s.op == Op::Install).count();
        assert_eq!(installs as u64, a.len() as u64 / INSTALL_EVERY);
    }
}
