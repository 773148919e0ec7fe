//! The fleet tier: backend replica pools, health-gated membership and
//! shard-affinity routing.
//!
//! A *backend* is one serving replica (an `aqua-serve` [`Server`] or any
//! process answering the same HTTP surface). The [`BackendPool`] tracks
//! each backend's health state machine; the [`ServiceRegistry`] maps
//! network-id → replica set and session-id → tenant, and picks a replica
//! per session by rendezvous (highest-random-weight) hashing over the
//! *healthy* members — so each session sticks to one replica while it is
//! up, and re-homes minimally (only the ejected replica's sessions move)
//! when one goes down.
//!
//! # Health state machine
//!
//! ```text
//!            N consecutive failures
//!  Healthy ──────────────────────────▶ Ejected
//!     ▲                                  │ probed on an exponential
//!     │   M consecutive probe successes  │ backoff: 1, 2, 4, ... capped
//!     └──────────────────────────────────┘
//! ```
//!
//! Both transitions are emitted as telemetry events
//! (`serve.fleet.eject` / `serve.fleet.readmit`) with the probe round as
//! the ordinal, so a deterministic probe schedule yields a byte-identical
//! event stream — the chaos harness asserts on exactly this.
//!
//! [`Server`]: crate::Server

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

use aqua_telemetry::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use aqua_telemetry::sync::{Arc, Mutex, MutexGuard};
use aqua_telemetry::{TelemetryCtx, TelemetryHub, Value};

use crate::client;

/// Identity and address of one serving replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSpec {
    /// Stable replica id (e.g. `"replica-0"`); the rendezvous hash key.
    pub id: String,
    /// Where the replica listens.
    pub addr: SocketAddr,
}

/// Routing eligibility of a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// In the rotation: receives routed traffic and every probe round.
    Healthy,
    /// Out of the rotation: probed only when its backoff expires.
    Ejected,
}

/// Thresholds and backoff shape of the health state machine.
#[derive(Debug, Clone)]
pub struct HealthCheckPolicy {
    /// Consecutive failures (probes or routed requests) that eject.
    pub failure_threshold: u32,
    /// Consecutive successful probes that readmit an ejected backend.
    pub success_threshold: u32,
    /// First re-probe delay after ejection, in probe rounds.
    pub backoff_base: u64,
    /// Ceiling on the doubling re-probe delay, in probe rounds.
    pub backoff_cap: u64,
}

impl Default for HealthCheckPolicy {
    fn default() -> Self {
        HealthCheckPolicy {
            failure_threshold: 3,
            success_threshold: 2,
            backoff_base: 1,
            backoff_cap: 8,
        }
    }
}

#[derive(Debug)]
struct BackendHealth {
    spec: BackendSpec,
    state: BackendState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Probe round at which an ejected backend is next due a probe.
    next_probe_round: u64,
    /// Current re-probe delay in rounds (doubles per failed probe).
    backoff: u64,
}

/// The replica pool: every backend the fleet knows about, with its health
/// state machine. All transitions route through [`BackendPool::note`] so
/// passive signals (routed-request failures) and active probes drive the
/// same machine and the same telemetry events.
pub struct BackendPool {
    policy: HealthCheckPolicy,
    backends: Mutex<Vec<BackendHealth>>,
}

impl BackendPool {
    /// An empty pool under `policy`.
    pub fn new(policy: HealthCheckPolicy) -> BackendPool {
        BackendPool {
            policy,
            backends: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<BackendHealth>> {
        self.backends.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The pool's health policy.
    pub fn policy(&self) -> &HealthCheckPolicy {
        &self.policy
    }

    /// Adds a backend (initially healthy). Replaces any existing backend
    /// with the same id.
    pub fn add(&self, spec: BackendSpec) {
        let mut backends = self.lock();
        backends.retain(|b| b.spec.id != spec.id);
        backends.push(BackendHealth {
            spec,
            state: BackendState::Healthy,
            consecutive_failures: 0,
            consecutive_successes: 0,
            next_probe_round: 0,
            backoff: 0,
        });
        backends.sort_by(|a, b| a.spec.id.cmp(&b.spec.id));
    }

    /// Every backend, sorted by id.
    pub fn backends(&self) -> Vec<BackendSpec> {
        self.lock().iter().map(|b| b.spec.clone()).collect()
    }

    /// Healthy backends, sorted by id.
    pub fn healthy(&self) -> Vec<BackendSpec> {
        self.lock()
            .iter()
            .filter(|b| b.state == BackendState::Healthy)
            .map(|b| b.spec.clone())
            .collect()
    }

    /// The named backend's state, if known.
    pub fn state(&self, id: &str) -> Option<BackendState> {
        self.lock()
            .iter()
            .find(|b| b.spec.id == id)
            .map(|b| b.state)
    }

    /// Backends due a probe at `round`: every healthy backend, plus any
    /// ejected backend whose backoff has expired.
    pub fn due_probes(&self, round: u64) -> Vec<BackendSpec> {
        self.lock()
            .iter()
            .filter(|b| match b.state {
                BackendState::Healthy => true,
                BackendState::Ejected => round >= b.next_probe_round,
            })
            .map(|b| b.spec.clone())
            .collect()
    }

    /// Feeds one health observation (probe result or routed-request
    /// outcome) for backend `id` into the state machine. `ord` orders the
    /// resulting telemetry events (probe round, or request step for
    /// passive signals). When `tel` carries a trace — the router passes
    /// the failover attempt's context for passive signals — the resulting
    /// `serve.fleet.eject`/`serve.fleet.readmit` events join that trace,
    /// so the stitched timeline shows *which request* tipped the state
    /// machine.
    pub fn note(&self, id: &str, ok: bool, ord: u64, tel: TelemetryCtx<'_>) {
        let mut backends = self.lock();
        let Some(b) = backends.iter_mut().find(|b| b.spec.id == id) else {
            return;
        };
        match (b.state, ok) {
            (BackendState::Healthy, true) => {
                b.consecutive_failures = 0;
            }
            (BackendState::Healthy, false) => {
                b.consecutive_failures += 1;
                if b.consecutive_failures >= self.policy.failure_threshold {
                    b.state = BackendState::Ejected;
                    b.consecutive_successes = 0;
                    b.backoff = self.policy.backoff_base.max(1);
                    b.next_probe_round = ord + b.backoff;
                    tel.add("serve.fleet.eject", 1);
                    tel.emit(
                        ord,
                        "serve.fleet.eject",
                        &[
                            ("backend", Value::Str(id.to_string())),
                            ("failures", Value::U64(u64::from(b.consecutive_failures))),
                        ],
                    );
                }
            }
            (BackendState::Ejected, true) => {
                b.consecutive_successes += 1;
                if b.consecutive_successes >= self.policy.success_threshold {
                    b.state = BackendState::Healthy;
                    b.consecutive_failures = 0;
                    let probes = b.consecutive_successes;
                    b.consecutive_successes = 0;
                    b.backoff = 0;
                    tel.add("serve.fleet.readmit", 1);
                    tel.emit(
                        ord,
                        "serve.fleet.readmit",
                        &[
                            ("backend", Value::Str(id.to_string())),
                            ("probes", Value::U64(u64::from(probes))),
                        ],
                    );
                }
            }
            (BackendState::Ejected, false) => {
                b.consecutive_successes = 0;
                b.backoff = (b.backoff.max(1) * 2).min(self.policy.backoff_cap.max(1));
                b.next_probe_round = ord + b.backoff;
            }
        }
    }

    /// Fleet status rows: `(id, addr, state, consecutive_failures)`,
    /// sorted by id.
    pub fn status(&self) -> Vec<(String, SocketAddr, BackendState, u32)> {
        self.lock()
            .iter()
            .map(|b| {
                (
                    b.spec.id.clone(),
                    b.spec.addr,
                    b.state,
                    b.consecutive_failures,
                )
            })
            .collect()
    }
}

// FNV-1a, the same stable hash the session registry shards with.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Rendezvous (highest-random-weight) score of `(session, backend)`.
fn rendezvous_score(session: &str, backend: &str) -> u64 {
    splitmix64(fnv(session) ^ fnv(backend).rotate_left(32))
}

/// The routing directory: network-id → replica set, session-id → tenant,
/// and the rendezvous pick over healthy replicas that gives each session
/// shard affinity.
pub struct ServiceRegistry {
    pool: Arc<BackendPool>,
    /// network → replica ids hosting that tenant (sorted).
    tenants: Mutex<BTreeMap<String, Vec<String>>>,
    /// session id → network (tenant directory).
    sessions: Mutex<BTreeMap<String, String>>,
}

impl ServiceRegistry {
    /// A registry over `pool`.
    pub fn new(pool: Arc<BackendPool>) -> ServiceRegistry {
        ServiceRegistry {
            pool,
            tenants: Mutex::new(BTreeMap::new()),
            sessions: Mutex::new(BTreeMap::new()),
        }
    }

    /// The underlying backend pool.
    pub fn pool(&self) -> &Arc<BackendPool> {
        &self.pool
    }

    /// Declares which replicas host `network`.
    pub fn register_tenant(&self, network: &str, replicas: &[&str]) {
        let mut ids: Vec<String> = replicas.iter().map(|r| r.to_string()).collect();
        ids.sort();
        self.tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(network.to_string(), ids);
    }

    /// Binds a session id to its tenant network.
    pub fn bind_session(&self, session: &str, network: &str) {
        self.sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(session.to_string(), network.to_string());
    }

    /// The tenant network a session belongs to.
    pub fn tenant_of(&self, session: &str) -> Option<String> {
        self.sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(session)
            .cloned()
    }

    /// Healthy replicas of `session`'s tenant in rendezvous order: the
    /// head is the session's home replica; the tail is the deterministic
    /// failover order.
    pub fn ranked(&self, session: &str) -> Vec<BackendSpec> {
        let Some(network) = self.tenant_of(session) else {
            return Vec::new();
        };
        let replica_ids = {
            let tenants = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
            match tenants.get(&network) {
                Some(ids) => ids.clone(),
                None => return Vec::new(),
            }
        };
        let mut candidates: Vec<BackendSpec> = self
            .pool
            .healthy()
            .into_iter()
            .filter(|b| replica_ids.contains(&b.id))
            .collect();
        candidates.sort_by_key(|b| std::cmp::Reverse(rendezvous_score(session, &b.id)));
        candidates
    }

    /// The session's home replica: the top-ranked healthy backend, or
    /// `None` when every replica of the tenant is ejected.
    pub fn route(&self, session: &str) -> Option<BackendSpec> {
        self.ranked(session).into_iter().next()
    }
}

/// The active health checker. Drives probe rounds against a
/// [`BackendPool`]: every healthy backend is probed each round; ejected
/// backends only when their exponential backoff expires. Supports two
/// modes — a deterministic *pump* ([`HealthChecker::probe_round_with`],
/// used by tests and the chaos harness, where the caller supplies the
/// probe outcome) and a threaded loop ([`HealthChecker::start`]) probing
/// `GET /healthz` over HTTP.
pub struct HealthChecker {
    pool: Arc<BackendPool>,
    round: AtomicU64,
}

impl HealthChecker {
    /// A checker over `pool`, starting at round 0.
    pub fn new(pool: Arc<BackendPool>) -> HealthChecker {
        HealthChecker {
            pool,
            round: AtomicU64::new(0),
        }
    }

    /// Rounds driven so far.
    pub fn rounds(&self) -> u64 {
        self.round.load(Ordering::SeqCst)
    }

    /// Runs one probe round with a caller-supplied prober (pump mode).
    /// Returns the round number just driven. Deterministic: given the same
    /// probe outcomes, the same transitions fire with the same ordinals.
    pub fn probe_round_with(
        &self,
        hub: &TelemetryHub,
        mut probe: impl FnMut(&BackendSpec) -> bool,
    ) -> u64 {
        let round = self.round.fetch_add(1, Ordering::SeqCst);
        for spec in self.pool.due_probes(round) {
            let ok = probe(&spec);
            self.pool.note(&spec.id, ok, round, hub.ctx());
        }
        round
    }

    /// Runs one probe round over HTTP: `GET /healthz`, 200 within
    /// `timeout` counts as healthy.
    pub fn probe_round(&self, hub: &TelemetryHub, timeout: Duration) -> u64 {
        self.probe_round_with(hub, |spec| {
            client::get_with_timeout(spec.addr, "/healthz", timeout)
                .map(|r| r.status == 200)
                .unwrap_or(false)
        })
    }

    /// Spawns a probe loop driving [`HealthChecker::probe_round`] every
    /// `interval` until [`HealthLoop::stop`].
    pub fn start(
        checker: Arc<HealthChecker>,
        hub: Arc<TelemetryHub>,
        interval: Duration,
        timeout: Duration,
    ) -> HealthLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::SeqCst) {
                checker.probe_round(&hub, timeout);
                std::thread::sleep(interval);
            }
        });
        HealthLoop {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle on a running background probe loop.
pub struct HealthLoop {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HealthLoop {
    /// Stops the loop and joins the probe thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HealthLoop {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str) -> BackendSpec {
        BackendSpec {
            id: id.to_string(),
            addr: "127.0.0.1:0".parse().unwrap(),
        }
    }

    fn pool3() -> Arc<BackendPool> {
        let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
        for id in ["replica-0", "replica-1", "replica-2"] {
            pool.add(spec(id));
        }
        pool
    }

    #[test]
    fn ejects_after_threshold_and_readmits_after_backoff() {
        let pool = pool3();
        let checker = HealthChecker::new(Arc::clone(&pool));
        let hub = TelemetryHub::new();

        // replica-1 fails 3 consecutive rounds → ejected on round 2.
        for _ in 0..3 {
            checker.probe_round_with(&hub, |s| s.id != "replica-1");
        }
        assert_eq!(pool.state("replica-1"), Some(BackendState::Ejected));
        assert_eq!(pool.healthy().len(), 2);

        // Backoff base is 1: due again at round 3. It keeps failing, so
        // the backoff doubles — due at 5, then 9 (2 then 4 rounds later).
        let mut probed_rounds = Vec::new();
        for _ in 0..10 {
            let mut probed = false;
            let round = checker.probe_round_with(&hub, |s| {
                if s.id == "replica-1" {
                    probed = true;
                }
                s.id != "replica-1"
            });
            if probed {
                probed_rounds.push(round);
            }
        }
        assert_eq!(probed_rounds, vec![3, 5, 9]);

        // Now it recovers: readmitted after 2 consecutive probe successes.
        let mut rounds = 0;
        while pool.state("replica-1") == Some(BackendState::Ejected) {
            checker.probe_round_with(&hub, |_| true);
            rounds += 1;
            assert!(rounds < 64, "readmission never happened");
        }
        assert_eq!(pool.state("replica-1"), Some(BackendState::Healthy));
        assert_eq!(pool.healthy().len(), 3);

        // Both transitions are in the event stream, in order.
        let events = hub.drain_events();
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.name.as_ref())
            .filter(|n| n.starts_with("serve.fleet."))
            .collect();
        assert_eq!(names, vec!["serve.fleet.eject", "serve.fleet.readmit"]);
    }

    #[test]
    fn rendezvous_routing_is_sticky_and_rehomes_minimally() {
        let pool = pool3();
        let registry = ServiceRegistry::new(Arc::clone(&pool));
        registry.register_tenant("epa_net", &["replica-0", "replica-1", "replica-2"]);
        let sessions: Vec<String> = (0..32).map(|i| format!("sess-{i}")).collect();
        for s in &sessions {
            registry.bind_session(s, "epa_net");
        }

        let before: Vec<String> = sessions
            .iter()
            .map(|s| registry.route(s).unwrap().id)
            .collect();
        // Deterministic: asking again gives the identical assignment.
        let again: Vec<String> = sessions
            .iter()
            .map(|s| registry.route(s).unwrap().id)
            .collect();
        assert_eq!(before, again);
        // All three replicas carry some share.
        for id in ["replica-0", "replica-1", "replica-2"] {
            assert!(before.iter().any(|b| b == id), "{id} got no sessions");
        }

        // Eject replica-1: only its sessions move, everyone else stays put.
        let hub = TelemetryHub::new();
        for ord in 0..3 {
            pool.note("replica-1", false, ord, hub.ctx());
        }
        assert_eq!(pool.state("replica-1"), Some(BackendState::Ejected));
        for (s, old) in sessions.iter().zip(&before) {
            let new = registry.route(s).unwrap().id;
            if old != "replica-1" {
                assert_eq!(&new, old, "{s} moved although its home was healthy");
            } else {
                assert_ne!(new, "replica-1", "{s} still routed to ejected replica");
            }
        }
    }

    #[test]
    fn route_is_none_when_all_replicas_are_down() {
        let pool = pool3();
        let registry = ServiceRegistry::new(Arc::clone(&pool));
        registry.register_tenant("epa_net", &["replica-0"]);
        registry.bind_session("s", "epa_net");
        assert!(registry.route("s").is_some());
        let hub = TelemetryHub::new();
        for ord in 0..3 {
            pool.note("replica-0", false, ord, hub.ctx());
        }
        assert!(registry.route("s").is_none());
        assert!(registry.route("unknown-session").is_none());
    }
}
