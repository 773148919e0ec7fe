//! Training-byte pins: Phase I on a fixed corpus must keep producing the
//! exact same profile artifact.
//!
//! Each test trains an EPA-NET profile (60 noise-free scenarios, 2
//! threads; 240 scenarios for the forest and histogram-CART pins, so their
//! split scans see heavier nodes, and for a second SVM and HybridRSL pin,
//! so that their corpus has more rows than EPA-NET's 233 feature columns)
//! under a [`ManualClock`] that never
//! advances, so the recorded `training_time` is zero and the artifact is a
//! pure function of the code. The FNV-1a-64 digest of `ProfileArtifact::to_bytes()` is compared
//! against a constant recorded before the trainers were last optimized; a
//! speed-up that changes one model bit fails here. (The container's own
//! CRC-32 is not a usable digest: a container that ends in its CRC has the
//! same CRC residue whatever its contents.)

use std::sync::Arc;

use aqua_core::{AquaScale, AquaScaleConfig, ProfileArtifact};
use aqua_ml::{DecisionTreeConfig, ModelKind, SplitStrategy};
use aqua_net::synth;
use aqua_sensing::{FeatureConfig, MeasurementNoise};
use aqua_telemetry::{Clock, ManualClock};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the artifact of a profile trained with `model`.
fn artifact_digest(model: ModelKind) -> u64 {
    artifact_digest_at(model, 60)
}

/// Digest of the artifact of a profile trained with `model` on
/// `train_samples` scenarios.
fn artifact_digest_at(model: ModelKind, train_samples: usize) -> u64 {
    let net = synth::epa_net();
    let config = AquaScaleConfig {
        model,
        train_samples,
        features: FeatureConfig {
            noise: MeasurementNoise::none(),
            ..FeatureConfig::default()
        },
        threads: 2,
        ..AquaScaleConfig::default()
    };
    let aqua =
        AquaScale::new(&net, config).with_clock(Arc::new(ManualClock::new()) as Arc<dyn Clock>);
    let profile = aqua.train_profile().expect("train");
    assert!(
        profile.training_time.is_zero(),
        "the manual clock never advances"
    );
    fnv1a64(&ProfileArtifact::capture(&aqua, profile).to_bytes())
}

#[test]
fn linear_r_profile_bytes_are_pinned() {
    assert_eq!(
        artifact_digest(ModelKind::linear_r()),
        0x2cda_3fef_4a92_c586
    );
}

/// 60 scenarios, fewer than EPA-NET's 233 feature columns: HybridRSL's
/// SVM runs Pegasos in kernel form.
#[test]
fn hybrid_rsl_profile_bytes_are_pinned() {
    assert_eq!(
        artifact_digest(ModelKind::hybrid_rsl()),
        0x1ab6_eec5_f6a1_867b
    );
}

/// 60 scenarios: the SVM's kernel form.
#[test]
fn svm_profile_bytes_are_pinned() {
    assert_eq!(artifact_digest(ModelKind::svm()), 0x5c79_245b_ba44_6979);
}

/// 240 scenarios, more than EPA-NET's 233 feature columns: the SVM steps
/// its lanes over the feature matrix itself.
#[test]
fn svm_profile_bytes_are_pinned_with_more_rows_than_columns() {
    assert_eq!(
        artifact_digest_at(ModelKind::svm(), 240),
        0x6d7a_8a1e_a17d_d92c
    );
}

#[test]
fn hybrid_rsl_profile_bytes_are_pinned_with_more_rows_than_columns() {
    assert_eq!(
        artifact_digest_at(ModelKind::hybrid_rsl(), 240),
        0x065a_3e78_191a_9aa1
    );
}

#[test]
fn gradient_boosting_profile_bytes_are_pinned() {
    assert_eq!(
        artifact_digest(ModelKind::gradient_boosting()),
        0x7951_209b_e25d_ae92
    );
}

#[test]
fn random_forest_profile_bytes_are_pinned() {
    assert_eq!(
        artifact_digest_at(ModelKind::random_forest(), 240),
        0xb30c_9713_fef1_c7c0
    );
}

#[test]
fn histogram_cart_profile_bytes_are_pinned() {
    let config = DecisionTreeConfig {
        split: SplitStrategy::histogram(),
        balance_classes: true,
        ..DecisionTreeConfig::default()
    };
    assert_eq!(
        artifact_digest_at(ModelKind::DecisionTree { config }, 240),
        0x28cc_e6b9_6227_ebef
    );
}
