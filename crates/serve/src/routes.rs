//! Request routing and endpoint handlers.
//!
//! | Method | Path                          | Purpose                         |
//! |--------|-------------------------------|---------------------------------|
//! | GET    | `/healthz`                    | liveness + session count        |
//! | GET    | `/metrics`                    | live telemetry snapshot (JSON)  |
//! | GET    | `/v1/models`                  | tenants + live model versions   |
//! | POST   | `/v1/models/{network}`        | hot-swap a tenant's `.aquaprof` |
//! | GET    | `/v1/sessions`                | hosted session ids              |
//! | PUT    | `/v1/sessions/{id}`           | create a session from the vault |
//! | POST   | `/v1/sessions/{id}/ingest`    | batched sensor readings         |
//! | GET    | `/v1/sessions/{id}/detections`| detection/localization results  |
//! | GET    | `/v1/sessions/{id}/checkpoint`| binary session checkpoint       |
//! | POST   | `/v1/sessions/{id}/restore`   | restore a checkpoint (peer ok)  |
//! | GET    | `/v1/version`                 | commit + format + model versions|
//! | GET    | `/v1/traces/{trace_id}`       | this replica's spans of a trace |
//! | POST   | `/debug/sleep/{ms}`           | hold a worker (shed/drain tests)|
//!
//! `GET /metrics?format=prom` serves the same registry as Prometheus text
//! exposition. Handlers that emit telemetry receive the request's
//! [`TraceContext`] (parsed from `x-aqua-trace` by the server loop) and
//! stamp it on their events, so a routed request's swap/restore/ingest
//! activity joins its distributed trace.

use aqua_core::{checkpoint_meta, AquaError, SessionRegistry};
use aqua_telemetry::sync::OnceLock;
use aqua_telemetry::{TelemetryCtx, TelemetryHub, TraceContext, Value, FIELD_TRACE};

use crate::http::{Request, Response};
use crate::json::{escape, Json};
use crate::vault::ModelVault;
use crate::wire;

/// Routes one request to its handler. `trace` is the server-side context
/// of the request (parsed from `x-aqua-trace`), `None` for untraced
/// requests.
pub fn handle(
    req: &Request,
    registry: &SessionRegistry,
    vault: &ModelVault,
    hub: &TelemetryHub,
    trace: Option<TraceContext>,
) -> Response {
    let tel = match trace {
        Some(t) => hub.ctx().with_trace(t),
        None => hub.ctx(),
    };
    let path = req.path().to_string();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(registry),
        ("GET", ["metrics"]) if req.query() == Some("format=prom") => {
            Response::text(200, hub.metrics_snapshot().to_prometheus())
        }
        ("GET", ["metrics"]) => Response::json(200, hub.metrics_snapshot().to_json()),
        ("GET", ["v1", "version"]) => version(vault),
        ("GET", ["v1", "traces", trace_id]) => trace_events(trace_id, hub),
        ("GET", ["v1", "models"]) => models(vault),
        ("POST", ["v1", "models", network]) => install_model(req, network, vault, tel),
        ("GET", ["v1", "sessions"]) => sessions(registry),
        ("PUT", ["v1", "sessions", id]) => create_session(req, id, registry, vault),
        ("POST", ["v1", "sessions", id, "ingest"]) => ingest(req, id, registry, tel),
        ("GET", ["v1", "sessions", id, "detections"]) => detections(id, registry),
        ("GET", ["v1", "sessions", id, "checkpoint"]) => checkpoint(id, registry),
        ("POST", ["v1", "sessions", id, "restore"]) => restore(req, id, registry, vault, tel),
        ("POST", ["debug", "sleep", ms]) => sleep(ms),
        // Known paths hit with the wrong method get a 405, not a 404.
        (_, ["healthz" | "metrics"])
        | (_, ["v1", "models"])
        | (_, ["v1", "models", _])
        | (_, ["v1", "version"])
        | (_, ["v1", "traces", _])
        | (_, ["v1", "sessions"])
        | (_, ["v1", "sessions", _])
        | (_, ["v1", "sessions", _, "ingest" | "detections" | "checkpoint" | "restore"])
        | (_, ["debug", "sleep", _]) => Response::error(405, "method not allowed"),
        _ => Response::error(404, &format!("no route for {}", req.path())),
    }
}

/// The RED-metric route label of a request: a small closed vocabulary so
/// per-endpoint series never explode with ids. Unknown paths share one
/// `other` label.
pub(crate) fn route_label(method: &str, path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => "healthz",
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["v1", "version"]) => "version",
        ("GET", ["v1", "traces", _]) => "traces",
        ("GET", ["v1", "models"]) => "models",
        ("POST", ["v1", "models", _]) => "model_install",
        ("GET", ["v1", "sessions"]) => "sessions",
        ("PUT", ["v1", "sessions", _]) => "session_create",
        ("POST", ["v1", "sessions", _, "ingest"]) => "ingest",
        ("GET", ["v1", "sessions", _, "detections"]) => "detections",
        ("GET", ["v1", "sessions", _, "checkpoint"]) => "checkpoint",
        ("POST", ["v1", "sessions", _, "restore"]) => "restore",
        ("POST", ["debug", "sleep", _]) => "debug_sleep",
        _ => "other",
    }
}

/// The build's short commit hash: `GITHUB_SHA` (9 chars) in CI, `git
/// rev-parse --short HEAD` locally, `"unknown"` otherwise. Resolved once.
pub(crate) fn commit() -> &'static str {
    static COMMIT: OnceLock<String> = OnceLock::new();
    COMMIT.get_or_init(|| {
        if let Ok(sha) = std::env::var("GITHUB_SHA") {
            return sha.chars().take(9).collect();
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// `GET /v1/version`: what is running here — build commit, artifact
/// format version, and the live model versions (the maximum across
/// tenants plus the per-tenant detail), so fleet upgrades are
/// attributable in traces and status pages.
fn version(vault: &ModelVault) -> Response {
    let tenants = vault.tenants();
    let model_version = tenants.iter().map(|(_, v)| *v).max().unwrap_or(0);
    let models: Vec<String> = tenants
        .iter()
        .map(|(network, version)| {
            format!("{{\"network\":{},\"version\":{version}}}", escape(network))
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"commit\":{},\"format_version\":{},\"model_version\":{model_version},\"models\":[{}]}}",
            escape(commit()),
            aqua_artifact::FORMAT_VERSION,
            models.join(",")
        ),
    )
}

/// `GET /v1/traces/{trace_id}`: every event this replica still buffers
/// for the trace, as a JSON array of the JSONL objects. The id is the
/// 16-digit (or shorter) hex form used in event fields.
fn trace_events(trace_id: &str, hub: &TelemetryHub) -> Response {
    let Ok(id) = u64::from_str_radix(trace_id, 16) else {
        return Response::error(400, &format!("trace id is not hex: {trace_id:?}"));
    };
    let hex = format!("{id:016x}");
    let events: Vec<String> = hub
        .events_snapshot()
        .into_iter()
        .filter(|e| matches!(e.field(FIELD_TRACE), Some(Value::Str(s)) if *s == hex))
        .map(|e| e.to_json_line())
        .collect();
    Response::json(
        200,
        format!(
            "{{\"trace\":\"{hex}\",\"count\":{},\"events\":[{}]}}",
            events.len(),
            events.join(",")
        ),
    )
}

fn healthz(registry: &SessionRegistry) -> Response {
    Response::json(
        200,
        format!("{{\"status\":\"ok\",\"sessions\":{}}}", registry.len()),
    )
}

fn sessions(registry: &SessionRegistry) -> Response {
    let ids: Vec<String> = registry.ids().iter().map(|id| escape(id)).collect();
    Response::json(200, format!("{{\"sessions\":[{}]}}", ids.join(",")))
}

fn models(vault: &ModelVault) -> Response {
    let entries: Vec<String> = vault
        .tenants()
        .into_iter()
        .map(|(network, version)| {
            format!("{{\"network\":{},\"version\":{version}}}", escape(&network))
        })
        .collect();
    Response::json(200, format!("{{\"models\":[{}]}}", entries.join(",")))
}

/// Hot-swap endpoint: the request body is a complete `.aquaprof`. The swap
/// is fail-closed — any rejection leaves the previous model live, and both
/// outcomes are visible in the telemetry event stream.
fn install_model(
    req: &Request,
    network: &str,
    vault: &ModelVault,
    tel: TelemetryCtx<'_>,
) -> Response {
    match vault.install(network, &req.body) {
        None => Response::error(404, &format!("no tenant {network:?}")),
        Some(Ok(version)) => {
            tel.add("serve.swap.applied", 1);
            tel.emit(
                version,
                "serve.swap.applied",
                &[
                    ("network", Value::Str(network.to_string())),
                    ("version", Value::U64(version)),
                ],
            );
            Response::json(
                200,
                format!("{{\"network\":{},\"version\":{version}}}", escape(network)),
            )
        }
        Some(Err(e)) => {
            let live = vault.handle(network).map_or(0, |h| h.version());
            tel.add("serve.swap.rejected", 1);
            tel.emit(
                live,
                "serve.swap.rejected",
                &[
                    ("network", Value::Str(network.to_string())),
                    ("reason", Value::Str(e.to_string())),
                ],
            );
            Response::error(
                400,
                &format!("artifact rejected, model v{live} stays live: {e}"),
            )
        }
    }
}

fn create_session(
    req: &Request,
    id: &str,
    registry: &SessionRegistry,
    vault: &ModelVault,
) -> Response {
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| format!("bad JSON: {e}")));
    let doc = match parsed {
        Ok(doc) => doc,
        Err(reason) => return Response::error(400, &reason),
    };
    let Some(network) = doc.get("network").and_then(Json::as_str) else {
        return Response::error(400, "missing \"network\"");
    };
    if registry.with_session(id, |_| ()).is_some() {
        return Response::error(409, &format!("session {id:?} already exists"));
    }
    let Some(session) = vault.create_session(network, 0) else {
        return Response::error(404, &format!("no tenant {network:?}"));
    };
    let channels = session.channels();
    registry.insert(id, session);
    Response::json(
        200,
        format!(
            "{{\"session\":{},\"network\":{},\"channels\":{channels}}}",
            escape(id),
            escape(network)
        ),
    )
}

fn checkpoint(id: &str, registry: &SessionRegistry) -> Response {
    match registry.with_session(id, |session| session.checkpoint()) {
        None => Response::error(404, &format!("no session {id:?}")),
        Some(bytes) => Response::binary(200, bytes),
    }
}

/// Restores a checkpoint into the named session — creating the session
/// from the vault first when it does not exist, which is exactly the
/// killed-replica-resumes-on-a-peer path.
fn restore(
    req: &Request,
    id: &str,
    registry: &SessionRegistry,
    vault: &ModelVault,
    tel: TelemetryCtx<'_>,
) -> Response {
    // Validate the container (CRC and all) and read its provenance before
    // touching any session state.
    let (network, _channels, slot) = match checkpoint_meta(&req.body) {
        Ok(meta) => meta,
        Err(e) => return Response::error(400, &format!("bad checkpoint: {e}")),
    };
    if registry.with_session(id, |_| ()).is_none() {
        let Some(session) = vault.create_session(&network, 0) else {
            return Response::error(
                404,
                &format!("checkpoint is for unknown tenant {network:?}"),
            );
        };
        registry.insert(id, session);
    }
    let outcome = registry.with_session(id, |session| session.restore(&req.body));
    match outcome {
        None => Response::error(404, &format!("no session {id:?}")),
        Some(Err(e)) => Response::error(400, &format!("restore rejected: {e}")),
        Some(Ok(())) => {
            tel.add("serve.session.restored", 1);
            tel.emit(
                slot,
                "serve.session.restore",
                &[
                    ("session", Value::Str(id.to_string())),
                    ("network", Value::Str(network.clone())),
                    ("slot", Value::U64(slot)),
                ],
            );
            Response::json(
                200,
                format!(
                    "{{\"session\":{},\"network\":{},\"slot\":{slot}}}",
                    escape(id),
                    escape(&network)
                ),
            )
        }
    }
}

fn ingest(req: &Request, id: &str, registry: &SessionRegistry, tel: TelemetryCtx<'_>) -> Response {
    let batches = match wire::parse_batches(&req.body) {
        Ok(batches) => batches,
        Err(reason) => return Response::error(400, &reason),
    };
    let accepted = batches.len();
    // All batches for one session apply atomically: the shard lock is held
    // across the whole group, so interleaved clients cannot split a batch
    // sequence (slot order is what the delta features key on).
    let outcome = registry.with_session(id, |session| -> Result<(usize, usize, u64), AquaError> {
        let before = session.detections().len();
        for (time, readings) in &batches {
            session.ingest(*time, readings, tel)?;
        }
        let total = session.detections().len();
        Ok((total - before, total, session.state().slots_observed()))
    });
    match outcome {
        None => Response::error(404, &format!("no session {id:?}")),
        Some(Err(AquaError::InvalidConfig { reason })) => Response::error(400, &reason),
        Some(Err(e)) => Response::error(500, &e.to_string()),
        Some(Ok((new_detections, total, slots))) => Response::json(
            200,
            format!(
                "{{\"accepted\":{accepted},\"new_detections\":{new_detections},\
                 \"detections_total\":{total},\"slots\":{slots}}}"
            ),
        ),
    }
}

fn detections(id: &str, registry: &SessionRegistry) -> Response {
    match registry.with_session(id, |session| wire::detections_body(id, session)) {
        None => Response::error(404, &format!("no session {id:?}")),
        Some(body) => Response::json(200, body),
    }
}

fn sleep(ms: &str) -> Response {
    let Ok(ms) = ms.parse::<u64>() else {
        return Response::error(400, "sleep duration must be an integer (milliseconds)");
    };
    // Cap so a stray request cannot wedge a worker for long.
    let ms = ms.min(10_000);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    Response::json(200, format!("{{\"slept_ms\":{ms}}}"))
}
