//! The fleet routing front: forwards session-scoped requests to the
//! session's home replica (rendezvous pick over healthy backends) with
//! deterministic failover down the ranked list.
//!
//! The router is a *client-side* front: benches, gateways and tests embed
//! it in-process and speak plain HTTP to the replicas behind it. Routed
//! outcomes feed the same health state machine as active probes
//! ([`BackendPool::note`](crate::fleet::BackendPool::note)) — a replica that stops answering routed
//! traffic accrues consecutive failures and is ejected without waiting
//! for the prober to notice.
//!
//! The router is also where distributed traces begin: every forward mints
//! a root [`TraceContext`] as a pure hash of `(trace seed, request
//! ordinal)`, emits a `serve.router.forward` root span and one
//! `serve.router.attempt` child span per replica tried, and propagates
//! the attempt's context to the replica in the `x-aqua-trace` header. The
//! [`ForwardRecord`] returned by [`Router::forward_traced`] is the
//! router's own account of the hop sequence, which `fig_observe` checks
//! the stitched timeline against.

use std::io;

use aqua_telemetry::sync::atomic::{AtomicU64, Ordering};
use aqua_telemetry::sync::Arc;
use aqua_telemetry::{TelemetryHub, TraceContext, Value};

use crate::client::{self, RawResponse};
use crate::fleet::{BackendState, ServiceRegistry};
use crate::json::escape;

/// The router's own record of one traced forward: the minted context and
/// the replicas tried, in order, with their outcomes. This is the ground
/// truth the trace stitcher's hop sequences are verified against.
#[derive(Debug, Clone)]
pub struct ForwardRecord {
    /// The request ordinal the root trace was minted from.
    pub ordinal: u64,
    /// The root trace context of this request.
    pub trace: TraceContext,
    /// `(backend id, answered)` per attempt, in failover order.
    pub hops: Vec<(String, bool)>,
}

/// A forwarding front over a [`ServiceRegistry`].
pub struct Router {
    service: Arc<ServiceRegistry>,
    hub: Arc<TelemetryHub>,
    trace_seed: u64,
    next_request: AtomicU64,
}

impl Router {
    /// A router over `service`, accounting into `hub`. Traces are minted
    /// under seed 0; see [`Router::with_trace_seed`].
    pub fn new(service: Arc<ServiceRegistry>, hub: Arc<TelemetryHub>) -> Router {
        Router {
            service,
            hub,
            trace_seed: 0,
            next_request: AtomicU64::new(0),
        }
    }

    /// Sets the seed trace ids are minted under (builder style). Distinct
    /// fronts should use distinct seeds so their traces cannot collide.
    pub fn with_trace_seed(mut self, seed: u64) -> Router {
        self.trace_seed = seed;
        self
    }

    /// The registry this router consults.
    pub fn service(&self) -> &Arc<ServiceRegistry> {
        &self.service
    }

    /// Extracts the session id from a `/v1/sessions/{id}[/...]` path.
    fn session_of(path: &str) -> Option<&str> {
        let mut segments = path.split('/').filter(|s| !s.is_empty());
        match (segments.next(), segments.next(), segments.next()) {
            (Some("v1"), Some("sessions"), Some(id)) => Some(id),
            _ => None,
        }
    }

    /// Forwards one session-scoped request to its home replica, failing
    /// over down the rendezvous ranking when a replica does not answer.
    /// `ord` orders the telemetry this request may generate (an eject
    /// event fired by accumulated failures, failover counters).
    ///
    /// # Errors
    ///
    /// See [`Router::forward_traced`].
    pub fn forward(
        &self,
        ord: u64,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<RawResponse> {
        self.forward_traced(ord, method, path, content_type, body)
            .map(|(resp, _)| resp)
    }

    /// Forwards like [`Router::forward`] and returns the router's
    /// [`ForwardRecord`] alongside the response: the minted root trace and
    /// the exact hop sequence tried.
    ///
    /// The root span (`serve.router.forward`) and one
    /// `serve.router.attempt` child span per replica tried are emitted
    /// into the router's hub at `ord`; the attempt context rides to the
    /// replica in the `x-aqua-trace` header, and passive health notes are
    /// taken under it — an eject fired by this request is stitched under
    /// the attempt that tipped it.
    ///
    /// A response — any status — means the replica is alive and counts as
    /// a health success; only transport failures count against it.
    ///
    /// # Errors
    ///
    /// `NotConnected` when no healthy replica hosts the session's tenant
    /// (the record still carries the minted trace, with no hops);
    /// otherwise the last transport error after exhausting the ranking
    /// (the record lists every failed hop).
    pub fn forward_traced(
        &self,
        ord: u64,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<(RawResponse, ForwardRecord)> {
        let Some(session) = Self::session_of(path) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("not a session-scoped path: {path}"),
            ));
        };
        let ordinal = self.next_request.fetch_add(1, Ordering::Relaxed);
        let trace = TraceContext::root(self.trace_seed, ordinal);
        let mut record = ForwardRecord {
            ordinal,
            trace,
            hops: Vec::new(),
        };
        let root = self.hub.ctx().with_trace(trace);
        root.emit(
            ord,
            "serve.router.forward",
            &[
                ("session", Value::Str(session.to_string())),
                ("method", Value::Str(method.to_string())),
            ],
        );
        let ranked = self.service.ranked(session);
        if ranked.is_empty() {
            self.hub.add("serve.router.no_replica", 1);
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no healthy replica for session {session:?}"),
            ));
        }
        let pool = Arc::clone(self.service.pool());
        let mut last_err = None;
        for (i, spec) in ranked.into_iter().enumerate() {
            let attempt = trace.child(i as u64);
            let attempt_ctx = self.hub.ctx().with_trace(attempt);
            let outcome =
                client::request_traced(spec.addr, method, path, content_type, body, Some(&attempt));
            match outcome {
                Ok(resp) => {
                    record.hops.push((spec.id.clone(), true));
                    attempt_ctx.emit(
                        ord,
                        "serve.router.attempt",
                        &[
                            ("backend", Value::Str(spec.id.clone())),
                            ("outcome", Value::Str("ok".to_string())),
                            ("status", Value::U64(u64::from(resp.status))),
                        ],
                    );
                    pool.note(&spec.id, true, ord, attempt_ctx);
                    self.hub.add("serve.router.forwarded", 1);
                    return Ok((resp, record));
                }
                Err(e) => {
                    record.hops.push((spec.id.clone(), false));
                    attempt_ctx.emit(
                        ord,
                        "serve.router.attempt",
                        &[
                            ("backend", Value::Str(spec.id.clone())),
                            ("outcome", Value::Str("error".to_string())),
                        ],
                    );
                    pool.note(&spec.id, false, ord, attempt_ctx);
                    self.hub.add("serve.router.failover", 1);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no replica answered")))
    }

    /// Fleet status as JSON: every backend with its address, state and
    /// consecutive-failure count, plus the router build's version block —
    /// the `/fleet` surface.
    pub fn status_json(&self) -> String {
        let rows: Vec<String> = self
            .service
            .pool()
            .status()
            .into_iter()
            .map(|(id, addr, state, failures)| {
                let state = match state {
                    BackendState::Healthy => "healthy",
                    BackendState::Ejected => "ejected",
                };
                format!(
                    "{{\"backend\":{},\"addr\":{},\"state\":\"{state}\",\"failures\":{failures}}}",
                    escape(&id),
                    escape(&addr.to_string()),
                )
            })
            .collect();
        format!(
            "{{\"backends\":[{}],\"version\":{{\"commit\":{},\"format_version\":{}}}}}",
            rows.join(","),
            escape(crate::routes::commit()),
            aqua_artifact::FORMAT_VERSION,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{BackendPool, BackendSpec, HealthCheckPolicy};

    #[test]
    fn session_ids_parse_out_of_paths() {
        assert_eq!(Router::session_of("/v1/sessions/s-1/ingest"), Some("s-1"));
        assert_eq!(Router::session_of("/v1/sessions/s-1"), Some("s-1"));
        assert_eq!(Router::session_of("/v1/sessions"), None);
        assert_eq!(Router::session_of("/healthz"), None);
    }

    #[test]
    fn unrouteable_sessions_error_without_io() {
        let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
        let service = Arc::new(ServiceRegistry::new(pool));
        let hub = Arc::new(TelemetryHub::new());
        let router = Router::new(service, Arc::clone(&hub));
        let err = router
            .forward(
                0,
                "GET",
                "/v1/sessions/ghost/detections",
                "application/json",
                &[],
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        assert_eq!(hub.metrics_snapshot().counter("serve.router.no_replica"), 1);
    }

    #[test]
    fn status_json_lists_backends() {
        let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
        pool.add(BackendSpec {
            id: "replica-0".into(),
            addr: "127.0.0.1:9999".parse().unwrap(),
        });
        let service = Arc::new(ServiceRegistry::new(pool));
        let hub = Arc::new(TelemetryHub::new());
        let router = Router::new(service, hub);
        let json = router.status_json();
        assert!(json.contains("\"backend\":\"replica-0\""));
        assert!(json.contains("\"state\":\"healthy\""));
        assert!(json.contains("\"version\":{\"commit\":"));
        assert!(json.contains(&format!(
            "\"format_version\":{}",
            aqua_artifact::FORMAT_VERSION
        )));
    }

    #[test]
    fn failed_forwards_record_hops_and_traced_attempts() {
        // One registered backend that refuses connections: the forward
        // errors, but the record and the hub show the traced attempt.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
        pool.add(BackendSpec {
            id: "replica-0".into(),
            addr,
        });
        let service = Arc::new(ServiceRegistry::new(pool));
        service.register_tenant("t0", &["replica-0"]);
        service.bind_session("s-1", "t0");
        let hub = Arc::new(TelemetryHub::new());
        let router = Router::new(service, Arc::clone(&hub)).with_trace_seed(9);
        let err = router
            .forward_traced(
                3,
                "GET",
                "/v1/sessions/s-1/detections",
                "application/json",
                &[],
            )
            .unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::NotConnected);
        let events = hub.drain_events();
        let forward = events
            .iter()
            .find(|e| e.name == "serve.router.forward")
            .expect("root span event");
        let attempt = events
            .iter()
            .find(|e| e.name == "serve.router.attempt")
            .expect("attempt span event");
        let expected = TraceContext::root(9, 0);
        let hex = |v: Option<&Value>| match v {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("expected hex string, got {other:?}"),
        };
        assert_eq!(hex(forward.field("trace")), expected.trace_hex());
        assert_eq!(hex(attempt.field("trace")), expected.trace_hex());
        // The attempt's parent is the forward's span.
        assert_eq!(hex(attempt.field("parent")), hex(forward.field("span")));
        assert_eq!(hub.metrics_snapshot().counter("serve.router.failover"), 1);
    }

    #[test]
    fn forward_records_are_deterministic_in_seed_and_ordinal() {
        let mint = |seed: u64| {
            let pool = Arc::new(BackendPool::new(HealthCheckPolicy::default()));
            let service = Arc::new(ServiceRegistry::new(pool));
            let hub = Arc::new(TelemetryHub::new());
            let router = Router::new(service, hub).with_trace_seed(seed);
            // No replicas: NotConnected, but the ordinal was consumed.
            router
                .forward_traced(
                    0,
                    "GET",
                    "/v1/sessions/x/detections",
                    "application/json",
                    &[],
                )
                .unwrap_err();
            router.next_request.load(Ordering::Relaxed)
        };
        assert_eq!(mint(1), 1);
        assert_eq!(
            TraceContext::root(1, 0),
            TraceContext::root(1, 0),
            "root contexts are pure"
        );
    }
}
