//! Hosted replay: streams a rendered campaign through a live
//! `aqua-serve` session and checks it against an in-process lockstep
//! reference, exercising the Phase-II detection / quarantine / hot-swap
//! plumbing end-to-end over real HTTP.

use aqua_core::{HostedSession, ProfileArtifact, SessionRegistry};
use aqua_net::Network;
use aqua_serve::{client, wire, ModelVault, ServeConfig, Server};
use aqua_telemetry::sync::Arc;
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

use crate::error::CampaignError;
use crate::timeline::RenderedCampaign;

pub use aqua_serve::wire::Detections;

/// What one hosted replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Detections served over HTTP.
    pub served: Detections,
    /// Detections from the in-process lockstep reference session.
    pub expected: Detections,
    /// Reference detections missing from the served stream (acceptance
    /// bar: zero).
    pub dropped: usize,
    /// Ingest batches posted.
    pub batches: u64,
    /// The server's telemetry event stream as sorted JSONL lines —
    /// byte-identical across runs of the same campaign.
    pub events: Vec<String>,
}

fn replay_err(context: &str, detail: impl std::fmt::Display) -> CampaignError {
    CampaignError::Replay(format!("{context}: {detail}"))
}

/// Replays a rendered campaign through a freshly started `aqua-serve`
/// instance and an in-process [`HostedSession`] lockstep reference.
///
/// Both consumers see exactly the rendered readings (faults included),
/// so their detection streams must match; `dropped` counts reference
/// detections the served side missed. Emits the `campaign.replay` span
/// and the `campaign.replay.batches` counter.
///
/// # Errors
///
/// [`CampaignError::Replay`] on artifact decode, bind, transport, or
/// non-200 responses; session-creation and reference-ingest failures
/// propagate the same way.
pub fn replay_hosted(
    net: &Network,
    artifact_bytes: &[u8],
    rendered: &RenderedCampaign,
    seed: u64,
    tel: TelemetryCtx<'_>,
) -> Result<ReplayOutcome, CampaignError> {
    let span = tel.span("campaign.replay");
    let tel = span.ctx();

    let artifact =
        ProfileArtifact::from_bytes(artifact_bytes).map_err(|e| replay_err("artifact", e))?;
    let registry = Arc::new(SessionRegistry::new());
    let vault = Arc::new(ModelVault::new());
    let hub = Arc::new(TelemetryHub::new());
    vault
        .register_artifact(net.clone(), artifact)
        .map_err(|e| replay_err("register artifact", e))?;
    let server = Server::start_with_vault(
        registry,
        Arc::clone(&vault),
        Arc::clone(&hub),
        ServeConfig::default(),
    )
    .map_err(|e| replay_err("bind server", e))?;
    let addr = server.local_addr();

    let session_id = format!("campaign-{}", net.name().to_lowercase());
    let body = format!("{{\"network\":\"{}\",\"seed\":{seed}}}", net.name());
    let resp = client::put_json(addr, &format!("/v1/sessions/{session_id}"), &body)
        .map_err(|e| replay_err("create session", e))?;
    if resp.status != 200 {
        return Err(replay_err("create session", resp.body));
    }

    let reference_artifact =
        ProfileArtifact::from_bytes(artifact_bytes).map_err(|e| replay_err("artifact", e))?;
    let mut reference = HostedSession::from_artifact(net.clone(), reference_artifact, seed)
        .map_err(|e| replay_err("reference session", e))?;

    let mut batches = 0u64;
    for (&time, readings) in rendered.times.iter().zip(&rendered.readings) {
        let body = wire::ingest_body(&[(time, readings)]);
        let resp = client::post_json(addr, &format!("/v1/sessions/{session_id}/ingest"), &body)
            .map_err(|e| replay_err("ingest", e))?;
        if resp.status != 200 {
            return Err(replay_err("ingest", resp.body));
        }
        batches += 1;
        reference
            .ingest(time, readings, TelemetryCtx::none())
            .map_err(|e| replay_err("reference ingest", e))?;
    }

    let resp = client::get(addr, &format!("/v1/sessions/{session_id}/detections"))
        .map_err(|e| replay_err("detections", e))?;
    if resp.status != 200 {
        return Err(replay_err("detections", resp.body));
    }
    let served =
        wire::parse_detections(&resp.body).map_err(|e| replay_err("detections json", e))?;
    let expected = wire::session_detections(&reference);
    let dropped = expected.iter().filter(|d| !served.contains(d)).count();

    let mut events: Vec<String> = hub
        .drain_events()
        .iter()
        .map(|e| e.to_json_line())
        .collect();
    events.sort();
    server.shutdown();

    tel.add("campaign.replay.batches", batches);
    Ok(ReplayOutcome {
        served,
        expected,
        dropped,
        batches,
        events,
    })
}
