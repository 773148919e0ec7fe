//! Hosted monitoring sessions: the shared-state substrate of the serving
//! layer.
//!
//! A [`HostedSession`] owns everything one monitored network needs — the
//! network, the deployment configuration, the trained profile and the
//! evolving [`SessionState`] — so it can live inside a long-running server
//! with no borrows back into caller state. A [`SessionRegistry`] keys many
//! hosted sessions by network id behind sharded locks, so concurrent
//! requests against *different* sessions never contend on one mutex.

use aqua_artifact::{Codec, SectionReader, SectionWriter};
use aqua_net::Network;
use aqua_sensing::SensorSet;
use aqua_telemetry::sync::Arc;
use aqua_telemetry::TelemetryCtx;

use crate::artifact::ProfileArtifact;
use crate::error::AquaError;
use crate::monitor::{Detection, SessionState};
use crate::pipeline::{AquaScale, AquaScaleConfig, ExternalObservations, Inference, ProfileModel};
use crate::shard::ShardedMap;
use crate::swap::ModelHandle;

/// Section names of a session checkpoint container. Deliberately disjoint
/// from the profile-artifact sections, so a `.aquaprof` can never half-load
/// as a checkpoint (or vice versa): `SectionReader` hard-rejects unknown
/// section names.
const CHECKPOINT_SECTIONS: &[&str] = &["ckpt.meta", "ckpt.state"];

/// One fully-owned monitoring deployment: network + swappable model handle
/// + streaming state.
///
/// The model lives behind an [`Arc<ModelHandle>`], so many sessions of one
/// tenant can share a single handle — one successful
/// [`ModelHandle::install`] upgrades every session atomically while their
/// in-flight ingests finish on the snapshot they already hold.
pub struct HostedSession {
    net: Network,
    handle: Arc<ModelHandle>,
    state: SessionState,
}

impl HostedSession {
    /// Hosts a trained profile against an owned network.
    pub fn new(net: Network, config: AquaScaleConfig, profile: ProfileModel) -> HostedSession {
        Self::with_handle(net, Arc::new(ModelHandle::new(config, profile)))
    }

    /// Hosts a session against a shared [`ModelHandle`] — the multi-session
    /// shape: every session of a tenant holds the same handle and follows
    /// its hot-swaps.
    pub fn with_handle(net: Network, handle: Arc<ModelHandle>) -> HostedSession {
        let channels = handle.snapshot().profile.sensors.len();
        HostedSession {
            net,
            handle,
            state: SessionState::new(channels),
        }
    }

    /// Hosts a loaded [`ProfileArtifact`], first verifying it was trained
    /// on `net` (same name, node count, link count). The artifact's
    /// feature and tuning configuration are adopted, so inference behaves
    /// exactly as it did in the training deployment.
    ///
    /// `_seed` is ignored: a session draws no random numbers. The argument
    /// stays until the ledger benchmark, which passes one, next changes.
    ///
    /// # Errors
    ///
    /// `InvalidConfig` when the artifact does not match the network.
    pub fn from_artifact(
        net: Network,
        artifact: ProfileArtifact,
        _seed: u64,
    ) -> Result<HostedSession, AquaError> {
        let handle = ModelHandle::from_artifact(&net, artifact)?;
        Ok(HostedSession::with_handle(net, Arc::new(handle)))
    }

    /// Feeds one slot of measured readings through the session
    /// (health/quarantine → delta features → Phase-II inference). See
    /// [`SessionState::observe_readings`].
    ///
    /// The model snapshot is taken once at the top of the call, so a
    /// concurrent hot-swap never changes the model mid-slot.
    ///
    /// When `tel` carries a [`TraceContext`](aqua_telemetry::TraceContext)
    /// the session runs under a child span of the request and emits one
    /// `core.session.ingest` event, so a stitched trace reaches all the
    /// way into Phase-II inference. Untraced callers emit nothing extra —
    /// the deterministic event streams the corpus machinery compares are
    /// unchanged.
    ///
    /// # Errors
    ///
    /// `InvalidConfig` when the reading count does not match the sensor
    /// deployment; inference errors propagate.
    pub fn ingest(
        &mut self,
        time: u64,
        readings: &[Option<f64>],
        tel: TelemetryCtx<'_>,
    ) -> Result<Option<Inference>, AquaError> {
        let tel = match tel.trace() {
            Some(t) => tel.with_trace(t.child(1)),
            None => tel,
        };
        let snap = self.handle.snapshot();
        let aqua = AquaScale::new(&self.net, snap.config.clone()).with_telemetry(tel);
        let result = self.state.observe_readings(
            &aqua,
            &snap.profile,
            time,
            readings,
            &ExternalObservations::none(),
        );
        if let (Some(t), Ok(inference)) = (tel.trace(), &result) {
            tel.emit(
                t.ordinal,
                "core.session.ingest",
                &[
                    ("time", time.into()),
                    ("detected", inference.is_some().into()),
                    ("model_version", self.handle.version().into()),
                ],
            );
        }
        result
    }

    /// Detections fired so far.
    pub fn detections(&self) -> &[Detection] {
        &self.state.detections
    }

    /// Number of sensor channels the session expects per slot.
    pub fn channels(&self) -> usize {
        self.handle.snapshot().profile.sensors.len()
    }

    /// The sensor deployment (channel order: pressure nodes, then flow
    /// links). Owned: the live deployment can change under a hot-swap, so
    /// no borrow into the snapshot is stable.
    pub fn sensors(&self) -> SensorSet {
        self.handle.snapshot().profile.sensors.clone()
    }

    /// The swappable model handle this session follows.
    pub fn model(&self) -> &Arc<ModelHandle> {
        &self.handle
    }

    /// The live model version this session would use for its next ingest.
    pub fn model_version(&self) -> u64 {
        self.handle.version()
    }

    /// The hosted network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The streaming state (health, quarantine, slot count).
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// Serializes the session's streaming state into a CRC-checked
    /// checkpoint container (the `.aquaprof` wire machinery with its own
    /// section names). The checkpoint captures the previous readings, the
    /// health counters, the slot count and the detections — so a peer that
    /// [restores](Self::restore) it continues the stream
    /// **bit-identically** from the checkpointed slot.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut sections = SectionWriter::new();
        sections.section("ckpt.meta", |meta| {
            meta.str(self.net.name());
            meta.len_prefix(self.channels());
            meta.u64(self.state.slots_observed());
        });
        sections.section("ckpt.state", |w| self.state.encode(w));
        sections.into_container()
    }

    /// Replaces this session's streaming state with a checkpoint captured
    /// on another (or an earlier) replica of the same deployment.
    ///
    /// # Errors
    ///
    /// Artifact errors on a corrupt, truncated or non-checkpoint container
    /// (a checkpoint in an older state layout among them);
    /// `InvalidConfig` when the checkpoint was captured against a different
    /// network or channel count. On any error the session is unchanged.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), AquaError> {
        let sections = SectionReader::open(bytes, CHECKPOINT_SECTIONS)?;

        let mut meta = sections.section("ckpt.meta")?;
        let network_id = meta.str()?;
        let channels = usize::decode(&mut meta)?;
        let _slot = meta.u64()?;
        meta.finish()?;

        if network_id != self.net.name() {
            return Err(AquaError::InvalidConfig {
                reason: format!(
                    "checkpoint captured on network '{}', session hosts '{}'",
                    network_id,
                    self.net.name()
                ),
            });
        }
        if channels != self.channels() {
            return Err(AquaError::InvalidConfig {
                reason: format!(
                    "checkpoint expects {channels} sensor channels, session has {}",
                    self.channels()
                ),
            });
        }

        let mut r = sections.section("ckpt.state")?;
        let state = SessionState::decode(&mut r)?;
        r.finish()?;
        if !state.has_channels(channels) {
            return Err(AquaError::InvalidConfig {
                reason: format!("checkpoint state does not hold {channels} sensor channels"),
            });
        }
        self.state = state;
        Ok(())
    }
}

/// Reads the provenance header of a checkpoint container without needing a
/// session: `(network_id, channels, slots_observed)`. The container is
/// fully CRC-validated first, so corrupt checkpoints fail here too.
pub fn checkpoint_meta(bytes: &[u8]) -> Result<(String, usize, u64), AquaError> {
    let sections = SectionReader::open(bytes, CHECKPOINT_SECTIONS)?;
    let mut meta = sections.section("ckpt.meta")?;
    let network_id = meta.str()?;
    let channels = usize::decode(&mut meta)?;
    let slot = meta.u64()?;
    meta.finish()?;
    Ok((network_id, channels, slot))
}

const SHARDS: usize = 8;

/// Concurrent map of hosted sessions keyed by session id, sharded so
/// requests against different sessions rarely share a lock (see
/// [`ShardedMap`]).
pub struct SessionRegistry {
    sessions: ShardedMap<HostedSession>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            sessions: ShardedMap::new(SHARDS),
        }
    }

    /// Registers (or replaces) a session under `id`.
    pub fn insert(&self, id: impl Into<String>, session: HostedSession) {
        self.sessions.insert(id, session);
    }

    /// Removes the session under `id`; returns whether one existed.
    pub fn remove(&self, id: &str) -> bool {
        self.sessions.remove(id).is_some()
    }

    /// Runs `f` with exclusive access to the session under `id`. Returns
    /// `None` when no such session exists. Only the owning shard is locked
    /// for the duration.
    pub fn with_session<R>(&self, id: &str, f: impl FnOnce(&mut HostedSession) -> R) -> Option<R> {
        self.sessions.with(id, f)
    }

    /// All registered session ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.sessions.keys()
    }

    /// Number of hosted sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_hydraulics::{solve_snapshot, Scenario, SolverOptions};
    use aqua_ml::ModelKind;
    use aqua_net::synth;

    fn hosted() -> HostedSession {
        let net = synth::epa_net();
        let config = AquaScaleConfig {
            model: ModelKind::LinearR,
            train_samples: 40,
            threads: 4,
            ..AquaScaleConfig::default()
        };
        let aqua = AquaScale::new(&net, config.clone());
        let profile = aqua.train_profile().expect("train");
        HostedSession::new(synth::epa_net(), config, profile)
    }

    #[test]
    fn hosted_session_ingests_readings() {
        let mut session = hosted();
        let net = synth::epa_net();
        let snap =
            solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
        let readings: Vec<Option<f64>> = session
            .sensors()
            .read(&snap)
            .into_iter()
            .map(Some)
            .collect();
        assert!(session
            .ingest(0, &readings, TelemetryCtx::none())
            .unwrap()
            .is_none());
        assert!(session
            .ingest(900, &readings, TelemetryCtx::none())
            .unwrap()
            .is_some());
        assert_eq!(session.state().slots_observed(), 2);
    }

    #[test]
    fn registry_routes_by_id() {
        let registry = SessionRegistry::new();
        assert!(registry.is_empty());
        registry.insert("epa", hosted());
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.ids(), vec!["epa".to_string()]);
        let channels = registry.with_session("epa", |s| s.channels());
        assert!(channels.unwrap() > 0);
        assert!(registry.with_session("nope", |_| ()).is_none());
        assert!(registry.remove("epa"));
        assert!(!registry.remove("epa"));
    }

    #[test]
    fn from_artifact_rejects_the_wrong_network() {
        let net = synth::epa_net();
        let config = AquaScaleConfig {
            model: ModelKind::LinearR,
            train_samples: 40,
            threads: 4,
            ..AquaScaleConfig::default()
        };
        let aqua = AquaScale::new(&net, config);
        let profile = aqua.train_profile().expect("train");
        let artifact = ProfileArtifact::capture(&aqua, profile);
        let err = HostedSession::from_artifact(synth::wssc_subnet(), artifact, 1)
            .err()
            .expect("network mismatch");
        assert!(matches!(err, AquaError::InvalidConfig { .. }));
    }
}
