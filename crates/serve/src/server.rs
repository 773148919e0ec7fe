//! The threaded HTTP server: one acceptor, a fixed worker pool, a bounded
//! connection queue in between.
//!
//! Backpressure policy: the acceptor never blocks on the workers. When the
//! queue is full the connection is answered inline with `503` +
//! `Retry-After` and closed — overload sheds requests, it never grows
//! memory or latency without bound, and `/metrics` reports the shed count
//! (`serve.http.shed`). Shutdown is graceful: the acceptor stops taking
//! connections, queued requests drain through the workers, then the
//! threads join.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use aqua_core::SessionRegistry;
use aqua_telemetry::sync::atomic::{AtomicBool, Ordering};
use aqua_telemetry::sync::Arc;
use aqua_telemetry::{TelemetryHub, Value};

use crate::http::{self, ReadError, Response};
use crate::pool::BoundedQueue;
use crate::routes;
use crate::vault::ModelVault;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Connections queued ahead of the workers before shedding starts.
    pub queue_depth: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// `Retry-After` seconds advertised on shed (`503`) responses.
    pub retry_after_s: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after_s: 1,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) drains
/// queued connections and joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<TcpStream>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. The server holds shared handles to the
    /// session registry (ingest/query state) and the telemetry hub
    /// (`/metrics` and request accounting). Model-management endpoints run
    /// against an empty vault; use [`Server::start_with_vault`] to serve
    /// hot-swappable tenants.
    pub fn start(
        registry: Arc<SessionRegistry>,
        hub: Arc<TelemetryHub>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        Self::start_with_vault(registry, Arc::new(ModelVault::new()), hub, config)
    }

    /// Like [`Server::start`], but with a [`ModelVault`] of registered
    /// tenants behind the model-management endpoints: `GET /v1/models`,
    /// `POST /v1/models/{network}` (hot-swap), `PUT /v1/sessions/{id}`
    /// (session creation from a tenant) and checkpoint restore onto a
    /// fresh peer.
    pub fn start_with_vault(
        registry: Arc<SessionRegistry>,
        vault: Arc<ModelVault>,
        hub: Arc<TelemetryHub>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(config.queue_depth));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let registry = Arc::clone(&registry);
                let vault = Arc::clone(&vault);
                let hub = Arc::clone(&hub);
                let max_body = config.max_body_bytes;
                std::thread::spawn(move || {
                    while let Some(stream) = queue.pop() {
                        handle_connection(stream, &registry, &vault, &hub, max_body);
                    }
                })
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let hub = Arc::clone(&hub);
            let read_timeout = config.read_timeout;
            let write_timeout = config.write_timeout;
            let retry_after = config.retry_after_s;
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop.load(Ordering::SeqCst) {
                            // The wake-up connection (or a late client);
                            // either way, stop accepting.
                            break;
                        }
                        let _ = stream.set_read_timeout(Some(read_timeout));
                        let _ = stream.set_write_timeout(Some(write_timeout));
                        if let Err(stream) = queue.try_push(stream) {
                            shed(stream, &hub, retry_after);
                        }
                    }
                    Err(_) => {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            })
        };

        Ok(Server {
            local_addr,
            stop,
            queue,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, drain queued connections through
    /// the workers, join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Close the queue: workers finish what is queued, then exit.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

/// Answers a connection the queue would not take: `503` + `Retry-After`,
/// written inline from the acceptor (never blocks on a worker).
fn shed(mut stream: TcpStream, hub: &TelemetryHub, retry_after_s: u64) {
    hub.add("serve.http.shed", 1);
    let response = Response::error(503, "server overloaded, retry shortly")
        .with_header("Retry-After", retry_after_s.to_string());
    let _ = response.write_to(&mut stream);
    // Closing with unread request bytes in the socket would RST the
    // connection and can discard the 503 before the client reads it.
    // Signal end-of-response, then drain the request until the client
    // closes — briefly and boundedly, since this runs on the acceptor.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    for _ in 0..256 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Records the per-endpoint RED metrics of one handled request: request
/// rate by status class, error count (5xx), and a latency histogram, all
/// keyed by the closed route-label vocabulary (`routes::route_label`).
fn record_red(hub: &TelemetryHub, route: &str, status: u16, latency_s: f64) {
    let class = match status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    };
    hub.add(&format!("serve.red.requests.{route}.{class}"), 1);
    if status >= 500 {
        hub.add(&format!("serve.red.errors.{route}"), 1);
    }
    hub.observe(&format!("serve.red.latency_s.{route}"), latency_s);
}

/// Serves one request on one connection (`Connection: close` throughout).
fn handle_connection(
    mut stream: TcpStream,
    registry: &SessionRegistry,
    vault: &ModelVault,
    hub: &TelemetryHub,
    max_body: usize,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    // Latency through the hub's injectable clock, not a raw Instant, so the
    // RED metrics stay reproducible under a ManualClock in tests.
    let started_ns = hub.now_ns();
    let (response, route, trace) = match http::read_request(&mut reader, max_body) {
        Ok(request) => {
            let trace = request.trace();
            let route = routes::route_label(&request.method, request.path());
            let response = routes::handle(&request, registry, vault, hub, trace);
            (response, route, trace)
        }
        // A clean disconnect: nothing happened, nothing to count.
        Err(ReadError::Closed) => return,
        // Mid-request failures are counted separately — resets point at
        // flaky peers or kills, stalls at slow clients — then dropped
        // (there is no live peer to answer).
        Err(ReadError::Reset) => {
            hub.add("serve.http.conn_reset", 1);
            return;
        }
        Err(ReadError::Stalled) => {
            hub.add("serve.http.conn_stall", 1);
            return;
        }
        Err(ReadError::Io(_)) => return,
        Err(ReadError::BadRequest(reason)) => (Response::error(400, &reason), "unparsed", None),
        Err(ReadError::TooLarge { limit }) => (
            Response::error(413, &format!("body exceeds {limit} bytes")),
            "unparsed",
            None,
        ),
    };
    let latency_s = hub.now_ns().saturating_sub(started_ns) as f64 / 1e9;
    hub.add("serve.http.requests", 1);
    hub.observe("serve.http.latency_s", latency_s);
    record_red(hub, route, response.status, latency_s);
    // The server-side span of a traced request: stitched under the
    // router's attempt span via the propagated header.
    if let Some(t) = trace {
        hub.ctx().with_trace(t).emit(
            t.ordinal,
            "serve.http.request",
            &[
                ("route", Value::Str(route.to_string())),
                ("status", Value::U64(u64::from(response.status))),
            ],
        );
    }
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}
