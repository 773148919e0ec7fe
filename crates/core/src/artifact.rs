//! Versioned, checksummed model artifacts.
//!
//! A [`ProfileArtifact`] freezes everything Phase II needs from a trained
//! deployment — the per-node classifiers, feature scaler, sensor placement,
//! feature/fusion configuration and an optional baseline snapshot — into the
//! self-describing binary container of [`aqua_artifact`]. Loading an
//! artifact and calling [`ProfileArtifact::into_profile`] yields a
//! [`ProfileModel`] whose predictions are **bitwise identical** to the
//! in-memory original: every floating-point parameter is stored via
//! `f64::to_bits`, so no precision is lost in transit.
//!
//! The container rejects version mismatches, unknown sections and any
//! corruption (CRC-32 over the full payload), which makes artifacts safe to
//! ship between hosts and keep in long-term storage.

use std::path::Path;
use std::time::Duration;

use aqua_artifact::{ArtifactError, Codec, SectionReader, SectionWriter};
use aqua_fusion::TuningConfig;
use aqua_hydraulics::Snapshot;
use aqua_ml::{MultiOutputModel, Scaler};
use aqua_net::{Network, NodeId};
use aqua_sensing::{FeatureConfig, SensorSet};

use crate::error::AquaError;
use crate::pipeline::{AquaScale, ProfileModel};

/// Every section this format version knows how to read. `SectionReader`
/// rejects anything else, so a future format that adds sections must bump
/// [`aqua_artifact::FORMAT_VERSION`].
const KNOWN_SECTIONS: &[&str] = &[
    "meta",
    "sensors",
    "junctions",
    "scaler",
    "model",
    "features",
    "tuning",
    "baseline",
];

/// A serializable snapshot of a fully trained AquaSCALE deployment.
///
/// Build one with [`ProfileArtifact::capture`], persist it with
/// [`ProfileArtifact::save`]/[`ProfileArtifact::to_bytes`], and restore it
/// with [`ProfileArtifact::load`]/[`ProfileArtifact::from_bytes`].
#[derive(Debug)]
pub struct ProfileArtifact {
    /// Name of the network the profile was trained on (provenance check).
    pub network_id: String,
    /// Node count of the training network (provenance check).
    pub node_count: usize,
    /// Link count of the training network (provenance check).
    pub link_count: usize,
    /// Phase-I corpus size the model was trained with.
    pub train_samples: usize,
    /// RNG seed of the training run.
    pub seed: u64,
    /// Wall-clock Phase-I training time.
    pub training_time: Duration,
    /// The IoT deployment the profile expects at inference time.
    pub sensors: SensorSet,
    /// Candidate leak locations, aligned with model outputs.
    pub junctions: Vec<NodeId>,
    /// Feature-extraction options (noise, topology, fault model).
    pub features: FeatureConfig,
    /// Phase-II fusion knobs.
    pub tuning: TuningConfig,
    /// Optional no-leak baseline snapshot for monitoring restarts.
    pub baseline: Option<Snapshot>,
    pub(crate) scaler: Scaler,
    pub(crate) model: MultiOutputModel,
}

impl ProfileArtifact {
    /// Captures a trained profile (and the deployment that produced it)
    /// into an artifact. Takes the profile by value: the model is not
    /// `Clone`. Recover it with
    /// [`ProfileArtifact::into_profile`].
    pub fn capture(aqua: &AquaScale<'_>, profile: ProfileModel) -> ProfileArtifact {
        let net = aqua.network();
        let config = aqua.config();
        ProfileArtifact {
            network_id: net.name().to_string(),
            node_count: net.node_count(),
            link_count: net.link_count(),
            train_samples: config.train_samples,
            seed: config.seed,
            training_time: profile.training_time,
            sensors: profile.sensors,
            junctions: profile.junctions,
            features: config.features,
            tuning: config.tuning,
            baseline: None,
            scaler: profile.scaler,
            model: profile.model,
        }
    }

    /// Attaches a no-leak baseline snapshot (fluent).
    pub fn with_baseline(mut self, baseline: Snapshot) -> ProfileArtifact {
        self.baseline = Some(baseline);
        self
    }

    /// Consumes the artifact, yielding the runnable profile model.
    pub fn into_profile(self) -> ProfileModel {
        ProfileModel {
            model: self.model,
            scaler: self.scaler,
            junctions: self.junctions,
            sensors: self.sensors,
            training_time: self.training_time,
        }
    }

    /// Checks that `net` is plausibly the network this artifact was trained
    /// on (same name, node count and link count).
    pub fn verify_network(&self, net: &Network) -> Result<(), AquaError> {
        if net.name() != self.network_id {
            return Err(AquaError::InvalidConfig {
                reason: format!(
                    "artifact was trained on network '{}', got '{}'",
                    self.network_id,
                    net.name()
                ),
            });
        }
        if net.node_count() != self.node_count || net.link_count() != self.link_count {
            return Err(AquaError::InvalidConfig {
                reason: format!(
                    "artifact expects {} nodes / {} links, network '{}' has {} / {}",
                    self.node_count,
                    self.link_count,
                    net.name(),
                    net.node_count(),
                    net.link_count()
                ),
            });
        }
        Ok(())
    }

    /// Serializes into the versioned, checksummed container format. Every
    /// section is written straight into the one output buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections = SectionWriter::new();
        sections.section("meta", |meta| {
            meta.str(&self.network_id);
            meta.len_prefix(self.node_count);
            meta.len_prefix(self.link_count);
            meta.len_prefix(self.train_samples);
            meta.u64(self.seed);
            // Nanoseconds as u64: exact round-trip (f64 seconds would not be).
            meta.u64(self.training_time.as_nanos().min(u64::MAX as u128) as u64);
        });
        sections.section("sensors", |w| self.sensors.encode(w));
        sections.section("junctions", |w| self.junctions.encode(w));
        sections.section("scaler", |w| self.scaler.encode(w));
        sections.section("model", |w| self.model.encode(w));
        sections.section("features", |w| self.features.encode(w));
        sections.section("tuning", |w| self.tuning.encode(w));
        if let Some(baseline) = &self.baseline {
            sections.section("baseline", |w| baseline.encode(w));
        }
        sections.into_container()
    }

    /// Deserializes an artifact, validating magic, version, checksum and
    /// section names along the way.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProfileArtifact, ArtifactError> {
        let sections = SectionReader::open(bytes, KNOWN_SECTIONS)?;

        let mut meta = sections.section("meta")?;
        let network_id = meta.str()?;
        let node_count = usize::decode(&mut meta)?;
        let link_count = usize::decode(&mut meta)?;
        let train_samples = usize::decode(&mut meta)?;
        let seed = meta.u64()?;
        let training_time = Duration::from_nanos(meta.u64()?);
        meta.finish()?;

        let mut r = sections.section("sensors")?;
        let sensors = SensorSet::decode(&mut r)?;
        r.finish()?;

        let mut r = sections.section("junctions")?;
        let junctions: Vec<NodeId> = Codec::decode(&mut r)?;
        r.finish()?;

        let mut r = sections.section("scaler")?;
        let scaler = Scaler::decode(&mut r)?;
        r.finish()?;

        let mut r = sections.section("model")?;
        let model = MultiOutputModel::decode(&mut r)?;
        r.finish()?;

        let mut r = sections.section("features")?;
        let features = FeatureConfig::decode(&mut r)?;
        r.finish()?;

        let mut r = sections.section("tuning")?;
        let tuning = TuningConfig::decode(&mut r)?;
        r.finish()?;

        let baseline = if sections.has("baseline") {
            let mut r = sections.section("baseline")?;
            let snap = Snapshot::decode(&mut r)?;
            r.finish()?;
            Some(snap)
        } else {
            None
        };

        if junctions.len() != model.outputs() {
            return Err(ArtifactError::Malformed {
                reason: format!(
                    "junction list ({}) disagrees with model outputs ({})",
                    junctions.len(),
                    model.outputs()
                ),
            });
        }

        Ok(ProfileArtifact {
            network_id,
            node_count,
            link_count,
            train_samples,
            seed,
            training_time,
            sensors,
            junctions,
            features,
            tuning,
            baseline,
            scaler,
            model,
        })
    }

    /// Writes the artifact to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), AquaError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes()).map_err(|e| AquaError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Reads and validates an artifact from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<ProfileArtifact, AquaError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| AquaError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(ProfileArtifact::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AquaScaleConfig;
    use aqua_artifact::crc32;
    use aqua_net::synth;

    fn tiny_artifact() -> (Vec<u8>, usize) {
        let net = synth::epa_net();
        let config = AquaScaleConfig {
            train_samples: 40,
            model: aqua_ml::ModelKind::LinearR,
            ..AquaScaleConfig::small()
        };
        let aqua = AquaScale::new(&net, config);
        let profile = aqua.train_profile().expect("train");
        let n_junctions = profile.junctions.len();
        let artifact = ProfileArtifact::capture(&aqua, profile);
        (artifact.to_bytes(), n_junctions)
    }

    #[test]
    fn roundtrips_metadata_and_shape() {
        let (bytes, n_junctions) = tiny_artifact();
        let artifact = ProfileArtifact::from_bytes(&bytes).expect("decode");
        assert_eq!(artifact.network_id, "EPA-NET");
        assert_eq!(artifact.train_samples, 40);
        assert_eq!(artifact.junctions.len(), n_junctions);
        assert!(artifact.baseline.is_none());
        // Encoding is a pure function of the decoded state.
        assert_eq!(artifact.to_bytes(), bytes);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (mut bytes, _) = tiny_artifact();
        // Patch the version field (bytes 8..12) and re-seal the checksum.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        match ProfileArtifact::from_bytes(&bytes) {
            Err(ArtifactError::VersionMismatch { found: 99, .. }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_section_is_rejected() {
        // Forward-compat: an artifact with a section this version does not
        // understand must refuse to load rather than silently drop state.
        let mut sections = SectionWriter::new();
        sections.section("meta", |w| w.u64(7));
        sections.section("quantum-calibration", |w| w.u64(9));
        let bytes = sections.into_container();
        match ProfileArtifact::from_bytes(&bytes) {
            Err(ArtifactError::UnknownSection { name }) => {
                assert_eq!(name, "quantum-calibration");
            }
            other => panic!("expected unknown-section rejection, got {other:?}"),
        }
    }

    #[test]
    fn network_verification_catches_mismatches() {
        let (bytes, _) = tiny_artifact();
        let artifact = ProfileArtifact::from_bytes(&bytes).expect("decode");
        artifact
            .verify_network(&synth::epa_net())
            .expect("same net");
        let other = synth::wssc_subnet();
        let err = artifact.verify_network(&other).expect_err("different net");
        assert!(err.to_string().contains("trained on network"));
    }
}
