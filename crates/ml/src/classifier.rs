//! The plug-and-play classifier interface and model factory.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_telemetry::TelemetryCtx;

use crate::binned::BinnedDataset;
use crate::boosting::{GradientBoosting, GradientBoostingConfig};
use crate::error::MlError;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::hybrid::{HybridRsl, HybridRslConfig};
use crate::linear::{
    GramFactor, LinearRegressionClassifier, LogisticRegression, LogisticRegressionConfig,
};
use crate::matrix::Matrix;
use crate::svm::{LinearSvm, LinearSvmConfig};
use crate::tree::{DecisionTree, DecisionTreeConfig};

/// A binary classifier with probabilistic output — the interface Algorithm 1
/// (`fit`) and Algorithm 2 (`predict_proba` / `predict`) consume.
///
/// Labels are `0` (no leak) / `1` (leak). `predict_proba` returns
/// `P(y = 1)` per sample; `predict` thresholds it at 0.5.
pub trait Classifier: Send + Sync {
    /// Fits the model to training features `x` and labels `y`.
    ///
    /// # Errors
    ///
    /// [`MlError::DimensionMismatch`] when `x.rows() != y.len()` and
    /// [`MlError::EmptyTrainingSet`] on empty input. Single-class training
    /// sets are legal: the model degenerates to a constant predictor.
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError>;

    /// Fits from `prep`, the label-independent state
    /// [`ModelKind::prepare`] built over the same `x`, so that a bank of
    /// per-output fits on one corpus pays for that state once (see
    /// [`Prepared`]). Produces exactly the model [`fit`](Self::fit) would.
    /// The default ignores `prep` and delegates to `fit`, which is right
    /// for every family that has nothing to share.
    ///
    /// # Errors
    ///
    /// Same contract as [`fit`](Self::fit).
    fn fit_prepared(&mut self, x: &Matrix, y: &[u8], prep: &Prepared) -> Result<(), MlError> {
        let _ = prep;
        self.fit(x, y)
    }

    /// Probability of the positive class per row of `x`.
    ///
    /// # Errors
    ///
    /// [`MlError::NotFitted`] before `fit`; [`MlError::FeatureMismatch`]
    /// when `x` has a different column count than the training matrix.
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError>;

    /// Hard 0/1 predictions (`predict_proba` thresholded at 0.5).
    fn predict(&self, x: &Matrix) -> Result<Vec<u8>, MlError> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| u8::from(p > 0.5))
            .collect())
    }
}

/// A classifier of one family: what [`ModelKind::build`] hands out, and
/// one fitted output of a bank on its way into the bank's arrays
/// ([`ModelKind::fit_block`]).
pub(crate) enum Fitted {
    LinearR(LinearRegressionClassifier),
    LogisticR(LogisticRegression),
    GradientBoosting(GradientBoosting),
    RandomForest(RandomForest),
    Svm(LinearSvm),
    DecisionTree(DecisionTree),
    HybridRsl(Box<HybridRsl>),
}

impl Fitted {
    fn classifier(&self) -> &dyn Classifier {
        match self {
            Fitted::LinearR(model) => model,
            Fitted::LogisticR(model) => model,
            Fitted::GradientBoosting(model) => model,
            Fitted::RandomForest(model) => model,
            Fitted::Svm(model) => model,
            Fitted::DecisionTree(model) => model,
            Fitted::HybridRsl(model) => &**model,
        }
    }

    fn classifier_mut(&mut self) -> &mut dyn Classifier {
        match self {
            Fitted::LinearR(model) => model,
            Fitted::LogisticR(model) => model,
            Fitted::GradientBoosting(model) => model,
            Fitted::RandomForest(model) => model,
            Fitted::Svm(model) => model,
            Fitted::DecisionTree(model) => model,
            Fitted::HybridRsl(model) => &mut **model,
        }
    }

    /// Boosting rounds fitted; 0 for families that do not boost.
    pub(crate) fn boosting_rounds(&self) -> usize {
        match self {
            Fitted::GradientBoosting(model) => model.stage_count(),
            _ => 0,
        }
    }
}

/// The classifier [`ModelKind::build`] hands out: its family's own.
impl Classifier for Fitted {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        self.classifier_mut().fit(x, y)
    }

    fn fit_prepared(&mut self, x: &Matrix, y: &[u8], prep: &Prepared) -> Result<(), MlError> {
        self.classifier_mut().fit_prepared(x, y, prep)
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        self.classifier().predict_proba(x)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<u8>, MlError> {
        self.classifier().predict(x)
    }
}

/// Label-independent training state over one feature matrix, built once
/// per corpus by [`ModelKind::prepare`] and shared read-only by every
/// per-output [`Classifier::fit_prepared`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Prepared {
    /// Nothing to share: each output fits from the raw matrix.
    Raw,
    /// The histogram quantization of the matrix, for tree families that
    /// split on histograms.
    Binned(BinnedDataset),
    /// LinearR's ridge Gram matrix, Cholesky-factored.
    Gram(GramFactor),
}

impl Prepared {
    /// The shared quantization, when this is [`Prepared::Binned`].
    pub fn binned(&self) -> Option<&BinnedDataset> {
        match self {
            Prepared::Binned(b) => Some(b),
            _ => None,
        }
    }
}

/// Factory for the model families the paper compares (Sec. IV-A / Fig. 6),
/// keyed so experiment configuration stays declarative.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelKind {
    /// Ordinary least squares used as a scorer ("LinearR").
    LinearR,
    /// L2-regularized logistic regression ("LogisticR").
    LogisticR {
        /// Hyperparameters.
        config: LogisticRegressionConfig,
    },
    /// Gradient boosted trees ("GB").
    GradientBoosting {
        /// Hyperparameters.
        config: GradientBoostingConfig,
    },
    /// Random forest ("RF").
    RandomForest {
        /// Hyperparameters.
        config: RandomForestConfig,
    },
    /// Linear SVM trained with Pegasos, probabilities via Platt scaling
    /// ("SVM").
    Svm {
        /// Hyperparameters.
        config: LinearSvmConfig,
    },
    /// A single CART tree (building block, also pluggable).
    DecisionTree {
        /// Hyperparameters.
        config: DecisionTreeConfig,
    },
    /// The paper's proposed stack: RF + SVM fused through LogisticR
    /// ("HybridRSL", Fig. 4).
    HybridRsl {
        /// Hyperparameters.
        config: HybridRslConfig,
    },
}

impl ModelKind {
    /// Default-configured variants for each named family.
    pub fn linear_r() -> Self {
        ModelKind::LinearR
    }

    /// Logistic regression with defaults.
    pub fn logistic_r() -> Self {
        ModelKind::LogisticR {
            config: LogisticRegressionConfig::default(),
        }
    }

    /// Gradient boosting with defaults.
    pub fn gradient_boosting() -> Self {
        ModelKind::GradientBoosting {
            config: GradientBoostingConfig::default(),
        }
    }

    /// Random forest with defaults.
    pub fn random_forest() -> Self {
        ModelKind::RandomForest {
            config: RandomForestConfig::default(),
        }
    }

    /// Linear SVM with defaults.
    pub fn svm() -> Self {
        ModelKind::Svm {
            config: LinearSvmConfig::default(),
        }
    }

    /// HybridRSL with defaults.
    pub fn hybrid_rsl() -> Self {
        ModelKind::HybridRsl {
            config: HybridRslConfig::default(),
        }
    }

    /// Short display name matching the paper's legend labels.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::LinearR => "LinearR",
            ModelKind::LogisticR { .. } => "LogisticR",
            ModelKind::GradientBoosting { .. } => "GB",
            ModelKind::RandomForest { .. } => "RF",
            ModelKind::Svm { .. } => "SVM",
            ModelKind::DecisionTree { .. } => "CART",
            ModelKind::HybridRsl { .. } => "HybridRSL",
        }
    }

    /// The histogram bin budget this family would train with, or `None`
    /// when it uses no histogram split finding. [`prepare`](Self::prepare)
    /// uses this to decide whether to build one shared [`BinnedDataset`]
    /// up front.
    pub fn histogram_bins(&self) -> Option<u16> {
        match self {
            ModelKind::GradientBoosting { config } => config.split.bins(),
            ModelKind::RandomForest { config } => config.tree.split.bins(),
            ModelKind::DecisionTree { config } => config.split.bins(),
            ModelKind::HybridRsl { config } => config.forest.tree.split.bins(),
            _ => None,
        }
    }

    /// Builds the label-independent state every output of this family
    /// shares over `x`: the [`BinnedDataset`] for histogram families, the
    /// factored ridge Gram matrix for LinearR, nothing for the rest.
    ///
    /// # Errors
    ///
    /// [`MlError::Diverged`] when LinearR's Gram matrix is not numerically
    /// positive definite — the error every LinearR output's `fit` returns
    /// on that `x`.
    pub fn prepare(&self, x: &Matrix) -> Result<Prepared, MlError> {
        self.prepare_traced(x, TelemetryCtx::none())
    }

    /// [`prepare`](Self::prepare) under an `ml.train.bin` (quantization) or
    /// `ml.train.factor` (Gram build and factorization) span.
    pub(crate) fn prepare_traced(
        &self,
        x: &Matrix,
        tel: TelemetryCtx<'_>,
    ) -> Result<Prepared, MlError> {
        if let Some(bins) = self.histogram_bins() {
            let _span = tel.span("ml.train.bin");
            return Ok(Prepared::Binned(BinnedDataset::build(x, bins)));
        }
        match self {
            ModelKind::LinearR => {
                let _span = tel.span("ml.train.factor");
                let ridge = LinearRegressionClassifier::default().effective_ridge();
                Ok(Prepared::Gram(GramFactor::new(x, ridge)?))
            }
            _ => Ok(Prepared::Raw),
        }
    }

    /// Instantiates an unfitted classifier; `seed` controls any internal
    /// randomness (bootstraps, shuffles) for reproducibility.
    pub fn build(&self, seed: u64) -> Box<dyn Classifier> {
        Box::new(self.unfitted(seed))
    }

    /// The unfitted classifier of this family, seeded `seed`.
    fn unfitted(&self, seed: u64) -> Fitted {
        match self {
            ModelKind::LinearR => Fitted::LinearR(LinearRegressionClassifier::default()),
            ModelKind::LogisticR { config } => {
                Fitted::LogisticR(LogisticRegression::with_config(config.clone()))
            }
            ModelKind::GradientBoosting { config } => {
                Fitted::GradientBoosting(GradientBoosting::with_config(config.clone(), seed))
            }
            ModelKind::RandomForest { config } => {
                Fitted::RandomForest(RandomForest::with_config(config.clone(), seed))
            }
            ModelKind::Svm { config } => Fitted::Svm(LinearSvm::with_config(config.clone(), seed)),
            ModelKind::DecisionTree { config } => {
                Fitted::DecisionTree(DecisionTree::with_config(config.clone(), seed))
            }
            ModelKind::HybridRsl { config } => {
                Fitted::HybridRsl(Box::new(HybridRsl::with_config(config.clone(), seed)))
            }
        }
    }

    /// Fits outputs `first..first + labels.len()` of a bank on the shared
    /// `x`, output `v` seeded `seed + v`, from `prep` (see
    /// [`prepare`](Self::prepare)). Each result is exactly the model
    /// [`build`](Self::build)`(seed + v)` then
    /// [`Classifier::fit_prepared`] gives. The families with an SVM step
    /// their outputs' Pegasos lanes together; the rest fit each output in
    /// turn.
    pub(crate) fn fit_block(
        &self,
        x: &Matrix,
        labels: &[Vec<u8>],
        first: usize,
        seed: u64,
        prep: &Prepared,
    ) -> Vec<Result<Fitted, MlError>> {
        let seeds: Vec<u64> = (first..first + labels.len())
            .map(|v| seed.wrapping_add(v as u64))
            .collect();
        let ys: Vec<&[u8]> = labels.iter().map(Vec::as_slice).collect();
        match self {
            ModelKind::Svm { config } => LinearSvm::fit_block(config, x, &ys, &seeds)
                .into_iter()
                .map(|fit| fit.map(|(svm, _)| Fitted::Svm(svm)))
                .collect(),
            ModelKind::HybridRsl { config } => HybridRsl::fit_block(config, x, &ys, &seeds, prep)
                .into_iter()
                .map(|fit| fit.map(|stack| Fitted::HybridRsl(Box::new(stack))))
                .collect(),
            // One output at a time, fitted from `prep`.
            _ => seeds
                .iter()
                .zip(&ys)
                .map(|(&seed, y)| {
                    let mut model = self.unfitted(seed);
                    model.fit_prepared(x, y, prep).map(|()| model)
                })
                .collect(),
        }
    }
}

impl Codec for ModelKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            ModelKind::LinearR => w.u8(0),
            ModelKind::LogisticR { config } => {
                w.u8(1);
                config.encode(w);
            }
            ModelKind::GradientBoosting { config } => {
                w.u8(2);
                config.encode(w);
            }
            ModelKind::RandomForest { config } => {
                w.u8(3);
                config.encode(w);
            }
            ModelKind::Svm { config } => {
                w.u8(4);
                config.encode(w);
            }
            ModelKind::DecisionTree { config } => {
                w.u8(5);
                config.encode(w);
            }
            ModelKind::HybridRsl { config } => {
                w.u8(6);
                config.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.u8()? {
            0 => ModelKind::LinearR,
            1 => ModelKind::LogisticR {
                config: Codec::decode(r)?,
            },
            2 => ModelKind::GradientBoosting {
                config: Codec::decode(r)?,
            },
            3 => ModelKind::RandomForest {
                config: Codec::decode(r)?,
            },
            4 => ModelKind::Svm {
                config: Codec::decode(r)?,
            },
            5 => ModelKind::DecisionTree {
                config: Codec::decode(r)?,
            },
            6 => ModelKind::HybridRsl {
                config: Codec::decode(r)?,
            },
            tag => {
                return Err(ArtifactError::Malformed {
                    reason: format!("unknown model-kind tag {tag}"),
                })
            }
        })
    }
}

/// Shared helpers for the model implementations.
pub(crate) mod util {
    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::error::MlError;
    use crate::matrix::Matrix;

    /// Numerically-stable logistic sigmoid.
    #[inline]
    pub fn sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }

    /// Validates `fit` inputs and returns the positive count.
    pub fn check_fit(x: &Matrix, y: &[u8]) -> Result<usize, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        if x.rows() != y.len() {
            return Err(MlError::DimensionMismatch {
                samples: x.rows(),
                labels: y.len(),
            });
        }
        let mut n_pos = 0;
        for (index, &label) in y.iter().enumerate() {
            match label {
                0 => {}
                1 => n_pos += 1,
                label => return Err(MlError::InvalidLabel { index, label }),
            }
        }
        Ok(n_pos)
    }

    /// Validates `predict` inputs against the trained feature count.
    pub fn check_predict(x: &Matrix, trained_cols: Option<usize>) -> Result<usize, MlError> {
        let cols = trained_cols.ok_or(MlError::NotFitted)?;
        if x.cols() != cols {
            return Err(MlError::FeatureMismatch {
                expected: cols,
                got: x.cols(),
            });
        }
        Ok(cols)
    }

    /// Builds a class-balanced index list by oversampling the minority class
    /// (leak labels are heavily imbalanced: a handful of leaky nodes out of
    /// hundreds). Caps the oversampling factor at 10× to bound cost.
    pub fn balanced_indices(y: &[u8], rng: &mut StdRng) -> Vec<usize> {
        let pos: Vec<usize> = (0..y.len()).filter(|&i| y[i] == 1).collect();
        let neg: Vec<usize> = (0..y.len()).filter(|&i| y[i] == 0).collect();
        if pos.is_empty() || neg.is_empty() {
            return (0..y.len()).collect();
        }
        let (minority, majority) = if pos.len() < neg.len() {
            (&pos, &neg)
        } else {
            (&neg, &pos)
        };
        let target = majority.len().min(minority.len() * 10);
        let mut idx: Vec<usize> = majority.iter().chain(minority.iter()).copied().collect();
        for _ in minority.len()..target {
            idx.push(minority[rng.random_range(0..minority.len())]);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::util::*;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn check_fit_catches_mismatches() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert!(matches!(
            check_fit(&x, &[1]),
            Err(MlError::DimensionMismatch { .. })
        ));
        assert_eq!(check_fit(&x, &[1, 0]).unwrap(), 1);
        let empty = Matrix::with_cols(1);
        assert!(matches!(
            check_fit(&empty, &[]),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    /// Six rows labelled `[0, 2, 2, 0, 2, 1]`: every family must refuse
    /// the first label outside {0, 1}, row 1's, before it trains.
    fn assert_refuses_label_two(kind: ModelKind) {
        let x = Matrix::from_rows(&[
            &[0.0, 1.0],
            &[1.0, 0.5],
            &[2.0, 0.1],
            &[3.0, 0.9],
            &[4.0, 0.3],
            &[5.0, 0.7],
        ]);
        let y = [0, 2, 2, 0, 2, 1];
        assert_eq!(
            kind.build(3).fit(&x, &y).err(),
            Some(MlError::InvalidLabel { index: 1, label: 2 }),
            "{}",
            kind.name()
        );
    }

    #[test]
    fn linear_r_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::linear_r());
    }

    #[test]
    fn logistic_r_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::logistic_r());
    }

    #[test]
    fn gradient_boosting_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::gradient_boosting());
    }

    #[test]
    fn random_forest_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::random_forest());
    }

    #[test]
    fn svm_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::svm());
    }

    #[test]
    fn exact_cart_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::DecisionTree {
            config: DecisionTreeConfig {
                split: crate::SplitStrategy::Exact,
                ..DecisionTreeConfig::default()
            },
        });
    }

    #[test]
    fn histogram_cart_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::DecisionTree {
            config: DecisionTreeConfig {
                split: crate::SplitStrategy::Histogram { max_bins: 32 },
                ..DecisionTreeConfig::default()
            },
        });
    }

    #[test]
    fn hybrid_rsl_refuses_labels_outside_zero_and_one() {
        assert_refuses_label_two(ModelKind::hybrid_rsl());
    }

    #[test]
    fn banks_refuse_labels_outside_zero_and_one() {
        // A full block of four HybridRSL outputs, so the SVMs take the
        // lockstep path and the forests the shared binned corpus; the
        // third output carries the bad label.
        let x = Matrix::from_rows(&[
            &[0.0, 1.0],
            &[1.0, 0.5],
            &[2.0, 0.1],
            &[3.0, 0.9],
            &[4.0, 0.3],
            &[5.0, 0.7],
        ]);
        let good = vec![0, 1, 1, 0, 1, 0];
        let labels = [good.clone(), good.clone(), vec![0, 2, 2, 0, 2, 1], good];
        let err = crate::MultiOutputModel::fit(ModelKind::hybrid_rsl(), &x, &labels, 9, 2)
            .expect_err("the bank must refuse label 2");
        assert_eq!(err, MlError::InvalidLabel { index: 1, label: 2 });
    }

    #[test]
    fn balanced_indices_oversample_minority() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut y = vec![0u8; 100];
        y[3] = 1;
        y[17] = 1;
        let idx = balanced_indices(&y, &mut rng);
        let pos = idx.iter().filter(|&&i| y[i] == 1).count();
        // 2 minority samples oversampled up to 10x = 20.
        assert_eq!(pos, 20);
        assert_eq!(idx.iter().filter(|&&i| y[i] == 0).count(), 98);
    }

    #[test]
    fn balanced_indices_identity_for_single_class() {
        let mut rng = StdRng::seed_from_u64(1);
        let y = vec![0u8; 10];
        assert_eq!(balanced_indices(&y, &mut rng).len(), 10);
    }

    #[test]
    fn factory_names_match_paper_legend() {
        assert_eq!(ModelKind::linear_r().name(), "LinearR");
        assert_eq!(ModelKind::logistic_r().name(), "LogisticR");
        assert_eq!(ModelKind::gradient_boosting().name(), "GB");
        assert_eq!(ModelKind::random_forest().name(), "RF");
        assert_eq!(ModelKind::svm().name(), "SVM");
        assert_eq!(ModelKind::hybrid_rsl().name(), "HybridRSL");
    }
}
