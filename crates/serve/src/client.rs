//! A minimal blocking HTTP client for the bench harness, examples and
//! tests. One request per connection, mirroring the server's
//! `Connection: close` policy.
//!
//! Fleet callers use [`request_with_retry`]: jittered exponential backoff
//! on retryable failures (connect refused/reset, timeouts, and `503`
//! shed responses — honoring the server's `Retry-After`), under a capped
//! attempt count and a capped total sleep budget. Every attempt and every
//! retry is counted in the telemetry hub (`serve.client.attempts`,
//! `serve.client.retries`, `serve.client.budget_exhausted`), so the chaos
//! harness can assert on how much retrying a fault class induced.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use aqua_telemetry::hash::splitmix64;
use aqua_telemetry::{TelemetryCtx, TraceContext, TRACE_HEADER};

use crate::json::Json;

/// A parsed HTTP response with a binary body (checkpoints, artifacts).
#[derive(Debug)]
pub struct RawResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response headers (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The raw response body.
    pub body: Vec<u8>,
}

impl RawResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Converts to the text-bodied response shape (lossily for non-UTF-8).
    pub fn into_text(self) -> HttpResponse {
        HttpResponse {
            status: self.status,
            headers: self.headers,
            body: String::from_utf8_lossy(&self.body).into_owned(),
        }
    }
}

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response headers (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The response body as text.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(&self.body)
    }
}

/// Issues a `GET`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, "application/json", &[]).map(RawResponse::into_text)
}

/// Issues a `POST` with a JSON body.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<HttpResponse> {
    request(addr, "POST", path, "application/json", body.as_bytes()).map(RawResponse::into_text)
}

/// Issues a `GET` and keeps the body as raw bytes (checkpoint downloads).
pub fn get_raw(addr: SocketAddr, path: &str) -> std::io::Result<RawResponse> {
    request(addr, "GET", path, "application/json", &[])
}

/// Issues a `POST` with a binary body (artifact installs, checkpoint
/// restores).
pub fn post_bytes(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<RawResponse> {
    request(addr, "POST", path, "application/octet-stream", body)
}

/// Issues a `PUT` with a JSON body.
pub fn put_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<HttpResponse> {
    request(addr, "PUT", path, "application/json", body.as_bytes()).map(RawResponse::into_text)
}

/// Issues a `GET` with an explicit connect/read/write timeout (health
/// probes want sub-second deadlines, not the 30 s default).
pub fn get_with_timeout(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    request_with_timeout(addr, "GET", path, "application/json", &[], timeout)
        .map(RawResponse::into_text)
}

pub(crate) fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<RawResponse> {
    request_traced(addr, method, path, content_type, body, None)
}

/// Like [`request`] but announcing a trace context to the server via the
/// `x-aqua-trace` header, so the server's spans join the caller's trace.
pub(crate) fn request_traced(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
    trace: Option<&TraceContext>,
) -> std::io::Result<RawResponse> {
    request_full(
        addr,
        method,
        path,
        content_type,
        body,
        trace,
        Duration::from_secs(30),
    )
}

pub(crate) fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<RawResponse> {
    request_full(addr, method, path, content_type, body, None, timeout)
}

fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
    trace: Option<&TraceContext>,
    timeout: Duration,
) -> std::io::Result<RawResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let trace_line = trace
        .map(|t| format!("{TRACE_HEADER}: {}\r\n", t.header_value()))
        .unwrap_or_default();
    // One buffered write for the whole request: a peer that answers and
    // closes after a partial read would RST out the fragments of a
    // multi-write send.
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n{trace_line}\
         Content-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Retry shape for [`request_with_retry`]: capped jittered exponential
/// backoff with a total sleep budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay (also caps an absurd
    /// server-sent `Retry-After`).
    pub max_delay: Duration,
    /// Ceiling on the *total* time slept across all retries. Once spent,
    /// the next retryable failure is returned instead of retried.
    pub sleep_budget: Duration,
    /// Seed for the deterministic jitter (vary per client for spread;
    /// fixed in benches for reproducibility).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            sleep_budget: Duration::from_secs(5),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `retry` (0-based): the
    /// "equal jitter" shape, uniform in `[half, full)` of the capped
    /// exponential `base * 2^retry`. Deterministic in `(seed, retry)`.
    pub fn backoff_delay(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_delay);
        let half = exp / 2;
        // Map a hash of (seed, retry) onto [0, 1) and take that much of
        // the upper half.
        let h = splitmix64(self.seed ^ (u64::from(retry) << 32 | 0xa5a5));
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        half + exp.mul_f64(frac / 2.0)
    }
}

/// Whether an I/O failure is worth retrying: transient connection-level
/// faults, not protocol or local errors.
fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::Interrupted
    )
}

/// Issues one request with retries per `policy`. Retries on transient
/// I/O failures and on `503` (the server's shed path), honoring a
/// server-sent `Retry-After` (seconds) over the computed backoff. Any
/// other response — including 4xx/5xx — is returned as-is: the request
/// reached a live server, so retrying is the caller's policy decision.
///
/// When `tel` carries a [`TraceContext`] the context is propagated to the
/// server on every attempt and each retry emits a traced
/// `serve.client.retry` event, so backoff decisions show up in the
/// stitched timeline.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
    policy: &RetryPolicy,
    tel: TelemetryCtx<'_>,
) -> std::io::Result<RawResponse> {
    let mut slept = Duration::ZERO;
    let mut retry = 0u32;
    loop {
        tel.add("serve.client.attempts", 1);
        let outcome = request_traced(addr, method, path, content_type, body, tel.trace().as_ref());
        // What delay would a retry want? `None` means "don't retry".
        let wanted = match &outcome {
            Ok(resp) if resp.status == 503 => {
                // The shed path tells us when to come back.
                let server_hint = resp
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(|s| Duration::from_secs(s).min(policy.max_delay));
                Some(server_hint.unwrap_or_else(|| policy.backoff_delay(retry)))
            }
            Ok(_) => None,
            Err(e) if retryable(e) => Some(policy.backoff_delay(retry)),
            Err(_) => None,
        };
        let Some(delay) = wanted else {
            return outcome;
        };
        if retry + 1 >= policy.max_attempts {
            return outcome;
        }
        if slept + delay > policy.sleep_budget {
            tel.add("serve.client.budget_exhausted", 1);
            return outcome;
        }
        tel.add("serve.client.retries", 1);
        if let Some(t) = tel.trace() {
            tel.emit(
                t.ordinal,
                "serve.client.retry",
                &[
                    ("retry", u64::from(retry).into()),
                    ("delay_ms", (delay.as_millis() as u64).into()),
                ],
            );
        }
        std::thread::sleep(delay);
        slept += delay;
        retry += 1;
    }
}

fn parse_response(raw: &[u8]) -> std::io::Result<RawResponse> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header/body separator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 headers"))?;
    let body = raw[split + 4..].to_vec();

    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Ok(RawResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::TelemetryHub;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\
                    Content-Length: 2\r\n\r\n{}";
        let resp = parse_response(raw).unwrap().into_text();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, "{}");
        assert_eq!(resp.json().unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn rejects_responses_without_separator() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 42,
            ..RetryPolicy::default()
        };
        for retry in 0..20 {
            let d = policy.backoff_delay(retry);
            assert_eq!(d, policy.backoff_delay(retry), "jitter must be pure");
            // Equal-jitter bounds: [exp/2, exp) of the capped exponential.
            let exp = policy
                .base_delay
                .saturating_mul(1u32 << retry.min(16))
                .min(policy.max_delay);
            assert!(d >= exp / 2 && d < exp, "retry {retry}: {d:?} vs {exp:?}");
        }
        // A different seed jitters differently somewhere.
        let other = RetryPolicy {
            seed: 43,
            ..policy.clone()
        };
        assert!((0..20).any(|r| policy.backoff_delay(r) != other.backoff_delay(r)));
    }

    #[test]
    fn connection_refused_retries_up_to_the_attempt_cap() {
        // Bind, harvest the port, drop: nothing listens there now.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let hub = TelemetryHub::new();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let out = request_with_retry(
            addr,
            "GET",
            "/healthz",
            "application/json",
            &[],
            &policy,
            hub.ctx(),
        );
        assert!(out.is_err());
        let m = hub.metrics_snapshot();
        assert_eq!(m.counter("serve.client.attempts"), 3);
        assert_eq!(m.counter("serve.client.retries"), 2);
    }

    #[test]
    fn shed_503_is_retried_honoring_retry_after() {
        // A tiny one-thread server: first connection gets a 503 with
        // `Retry-After: 0`, the second gets a 200.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let responses: [&[u8]; 2] = [
                b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\n\
                  Content-Length: 2\r\nConnection: close\r\n\r\n{}",
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
            ];
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                // Read the whole request head: closing with unread bytes
                // in the socket would RST and discard our response.
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => head.extend_from_slice(&buf[..n]),
                    }
                }
                stream.write_all(response).unwrap();
            }
        });
        let hub = TelemetryHub::new();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let resp = request_with_retry(
            addr,
            "GET",
            "/x",
            "application/json",
            &[],
            &policy,
            hub.ctx(),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let m = hub.metrics_snapshot();
        assert_eq!(m.counter("serve.client.attempts"), 2);
        assert_eq!(m.counter("serve.client.retries"), 1);
        server.join().unwrap();
    }

    #[test]
    fn exhausted_sleep_budget_stops_retrying() {
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let hub = TelemetryHub::new();
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(20),
            sleep_budget: Duration::ZERO,
            ..RetryPolicy::default()
        };
        assert!(request_with_retry(
            addr,
            "GET",
            "/x",
            "application/json",
            &[],
            &policy,
            hub.ctx()
        )
        .is_err());
        let m = hub.metrics_snapshot();
        assert_eq!(m.counter("serve.client.attempts"), 1);
        assert_eq!(m.counter("serve.client.retries"), 0);
        assert_eq!(m.counter("serve.client.budget_exhausted"), 1);
    }
}
