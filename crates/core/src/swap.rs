//! Zero-downtime model hot-swap: an `ArcSwap`-style versioned handle.
//!
//! A serving replica must be able to adopt a freshly trained `.aquaprof`
//! without dropping a single in-flight request. [`ModelHandle`] makes that
//! an atomic pointer cut-over: the live deployment is an
//! `Arc<ProfileSnapshot>` behind a tiny `RwLock` that is only ever held
//! long enough to clone or replace the `Arc`. Readers grab a snapshot at
//! the top of a request and keep using it even while a swap lands —
//! requests in flight finish on the old model, new requests see the new
//! one, and the old `Arc` drops when its last reader finishes.
//!
//! [`ModelHandle::install`] is the swap protocol and it is fail-closed:
//! the candidate artifact is fully decoded (magic / format version / CRC /
//! section names), verified against the hosted network, checked for sensor
//! compatibility with the live deployment, and exercised with a canary
//! prediction — all *before* the cut-over. Any failure leaves the previous
//! snapshot serving, untouched.

use aqua_net::Network;
use aqua_telemetry::sync::Arc;

use crate::artifact::ProfileArtifact;
use crate::error::AquaError;
use crate::pipeline::{AquaScale, AquaScaleConfig, ExternalObservations, ProfileModel};
use crate::slot::VersionedSlot;

/// One immutable, shareable version of a deployed model: the trained
/// profile plus the configuration inference must run under.
pub struct ProfileSnapshot {
    /// Monotonic version, starting at 1 for the initially installed model
    /// and incremented by every successful [`ModelHandle::install`].
    pub version: u64,
    /// The deployment configuration the profile was trained with.
    pub config: AquaScaleConfig,
    /// The trained profile model.
    pub profile: ProfileModel,
}

/// An atomically swappable handle to the live [`ProfileSnapshot`].
///
/// Cheap to share (`Arc<ModelHandle>`): every hosted session of a tenant
/// holds the same handle, so one successful install upgrades the whole
/// tenant at once.
pub struct ModelHandle {
    slot: VersionedSlot<ProfileSnapshot>,
}

impl ModelHandle {
    /// Wraps an initial deployment as version 1.
    pub fn new(config: AquaScaleConfig, profile: ProfileModel) -> ModelHandle {
        ModelHandle {
            slot: VersionedSlot::new(ProfileSnapshot {
                version: 1,
                config,
                profile,
            }),
        }
    }

    /// Builds a handle from a loaded artifact, verifying it matches `net`.
    pub fn from_artifact(
        net: &Network,
        artifact: ProfileArtifact,
    ) -> Result<ModelHandle, AquaError> {
        artifact.verify_network(net)?;
        let config = config_of(&artifact);
        Ok(ModelHandle::new(config, artifact.into_profile()))
    }

    /// The current live snapshot. The internal lock is held only for the
    /// `Arc` clone; callers keep the snapshot for as long as they need it,
    /// unaffected by concurrent swaps.
    pub fn snapshot(&self) -> Arc<ProfileSnapshot> {
        self.slot.get()
    }

    /// The current live version.
    pub fn version(&self) -> u64 {
        self.slot.get().version
    }

    /// Validates and installs a candidate `.aquaprof`, returning the new
    /// live version. On **any** error the previous snapshot stays live.
    ///
    /// Validation, in order:
    /// 1. full container decode — magic, format version, CRC-32, section
    ///    names, model shape (`ProfileArtifact::from_bytes`);
    /// 2. network provenance — same name / node count / link count as the
    ///    hosted network;
    /// 3. sensor compatibility — the candidate must expect the *exact*
    ///    sensor deployment the live model serves, since hosted sessions
    ///    stream readings in that channel order;
    /// 4. canary predict — one zero-delta inference through the candidate,
    ///    rejecting non-finite probabilities before any client sees them.
    pub fn install(&self, net: &Network, bytes: &[u8]) -> Result<u64, AquaError> {
        let artifact = ProfileArtifact::from_bytes(bytes)?;
        artifact.verify_network(net)?;

        let live = self.snapshot();
        if artifact.sensors != live.profile.sensors {
            return Err(AquaError::InvalidConfig {
                reason: format!(
                    "candidate artifact expects a different sensor deployment \
                     ({} channels vs live {})",
                    artifact.sensors.len(),
                    live.profile.sensors.len()
                ),
            });
        }

        let config = config_of(&artifact);
        let profile = artifact.into_profile();
        canary_predict(net, &config, &profile)?;

        // The successor version is derived *inside* the update closure,
        // under the write lock: two concurrent installs that both validated
        // against the same live snapshot still land distinct, strictly
        // increasing versions (pinned by `model_swap` as a regression).
        let next = self.slot.update(|current| ProfileSnapshot {
            version: current.version + 1,
            config,
            profile,
        });
        Ok(next.version)
    }
}

/// The inference configuration an artifact was trained under (the same
/// adoption rule `HostedSession::from_artifact` uses).
fn config_of(artifact: &ProfileArtifact) -> AquaScaleConfig {
    AquaScaleConfig {
        features: artifact.features,
        tuning: artifact.tuning,
        sensors: Some(artifact.sensors.clone()),
        train_samples: artifact.train_samples,
        seed: artifact.seed,
        ..AquaScaleConfig::default()
    }
}

/// Runs one zero-delta inference through the candidate model and rejects
/// it if any output probability is non-finite — a cheap end-to-end
/// exercise of scaler, classifiers and fusion before cut-over.
fn canary_predict(
    net: &Network,
    config: &AquaScaleConfig,
    profile: &ProfileModel,
) -> Result<(), AquaError> {
    let mut features = vec![0.0; profile.sensors.len()];
    if config.features.include_topology {
        features.extend(net.topology_features());
    }
    let aqua = AquaScale::new(net, config.clone());
    let inference = aqua.infer(profile, &features, &ExternalObservations::none())?;
    if inference.p1.iter().any(|p| !p.is_finite()) {
        return Err(AquaError::InvalidConfig {
            reason: "canary predict produced non-finite probabilities".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_ml::ModelKind;
    use aqua_net::synth;

    fn trained(net: &Network, seed: u64) -> (AquaScaleConfig, ProfileModel) {
        let config = AquaScaleConfig {
            model: ModelKind::LinearR,
            train_samples: 40,
            threads: 4,
            seed,
            ..AquaScaleConfig::default()
        };
        let aqua = AquaScale::new(net, config.clone());
        (config, aqua.train_profile().expect("train"))
    }

    fn artifact_bytes(net: &Network, seed: u64) -> Vec<u8> {
        let config = AquaScaleConfig {
            model: ModelKind::LinearR,
            train_samples: 40,
            threads: 4,
            seed,
            ..AquaScaleConfig::default()
        };
        let aqua = AquaScale::new(net, config);
        let profile = aqua.train_profile().expect("train");
        ProfileArtifact::capture(&aqua, profile).to_bytes()
    }

    #[test]
    fn install_bumps_version_and_swaps_snapshot() {
        let net = synth::epa_net();
        let (config, profile) = trained(&net, 7);
        let handle = ModelHandle::new(config, profile);
        assert_eq!(handle.version(), 1);

        // A reader holding the old snapshot is unaffected by the swap.
        let old = handle.snapshot();
        let v = handle
            .install(&net, &artifact_bytes(&net, 8))
            .expect("install");
        assert_eq!(v, 2);
        assert_eq!(handle.version(), 2);
        assert_eq!(old.version, 1);
        assert_eq!(handle.snapshot().config.seed, 8);
    }

    #[test]
    fn corrupt_artifact_is_refused_and_old_model_stays_live() {
        let net = synth::epa_net();
        let (config, profile) = trained(&net, 7);
        let handle = ModelHandle::new(config, profile);

        let mut bytes = artifact_bytes(&net, 8);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(handle.install(&net, &bytes).is_err());
        assert_eq!(handle.version(), 1, "failed install must not advance");
    }

    #[test]
    fn wrong_network_artifact_is_refused() {
        let net = synth::epa_net();
        let (config, profile) = trained(&net, 7);
        let handle = ModelHandle::new(config, profile);
        let foreign = artifact_bytes(&synth::wssc_subnet(), 8);
        let err = handle.install(&net, &foreign).expect_err("wrong net");
        assert!(matches!(err, AquaError::InvalidConfig { .. }));
        assert_eq!(handle.version(), 1);
    }
}
