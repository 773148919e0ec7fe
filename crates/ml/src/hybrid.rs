//! The paper's proposed HybridRSL stack (Fig. 4).
//!
//! "The same dataset is trained and predicted by RF and SVM separately, and
//! their predicted results, i.e. leak probabilities for each node, are then
//! aggregated as a new feature set and input into LogisticR for further
//! learning." RF and SVM are chosen because they "remain robust with
//! decreasing number of IoT sensors", and LogisticR because it "has low
//! variances and is less prone to overfitting".

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};

use crate::classifier::{Classifier, Prepared};
use crate::error::MlError;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::linear::{LogisticRegression, LogisticRegressionConfig};
use crate::matrix::Matrix;
use crate::svm::{LinearSvm, LinearSvmConfig};

/// Hyperparameters for [`HybridRsl`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HybridRslConfig {
    /// Base random forest.
    pub forest: RandomForestConfig,
    /// Base SVM.
    pub svm: LinearSvmConfig,
    /// Fusion logistic regression.
    pub fusion: LogisticRegressionConfig,
    /// Also feed the raw features to the fusion layer alongside the two
    /// base probabilities (false reproduces the paper's sketch exactly).
    pub passthrough_features: bool,
}

/// The stacked RF + SVM → LogisticR classifier.
#[derive(Debug, Clone)]
pub struct HybridRsl {
    config: HybridRslConfig,
    pub(crate) forest: RandomForest,
    pub(crate) svm: LinearSvm,
    pub(crate) fusion: LogisticRegression,
    fitted: bool,
}

impl HybridRsl {
    /// Creates an unfitted stack; `seed` derives the base-learner seeds.
    pub fn with_config(config: HybridRslConfig, seed: u64) -> Self {
        HybridRsl {
            forest: RandomForest::with_config(config.forest.clone(), seed ^ 0xF0),
            svm: LinearSvm::with_config(config.svm.clone(), seed ^ 0x51),
            fusion: LogisticRegression::with_config(config.fusion.clone()),
            config,
            fitted: false,
        }
    }

    /// Fits one stack per label vector `ys[j]`, seeded `seeds[j]`, on the
    /// shared `x`. Each result is exactly what `with_config(config.clone(),
    /// seeds[j])` then `fit_prepared(x, ys[j], prep)` gives. The outputs'
    /// SVMs fit together through [`LinearSvm::fit_block`], over `prep`'s
    /// kernel matrix when it holds one; each output's forest and fusion
    /// layer then fit on their own.
    pub(crate) fn fit_block(
        config: &HybridRslConfig,
        x: &Matrix,
        ys: &[&[u8]],
        seeds: &[u64],
        prep: &Prepared,
    ) -> Vec<Result<HybridRsl, MlError>> {
        let stacks: Vec<HybridRsl> = seeds
            .iter()
            .map(|&seed| HybridRsl::with_config(config.clone(), seed))
            .collect();
        let svm_seeds: Vec<u64> = stacks.iter().map(|stack| stack.svm.seed()).collect();
        let svms = LinearSvm::fit_block(&config.svm, x, ys, &svm_seeds, prep.kernel());
        stacks
            .into_iter()
            .zip(ys)
            .zip(svms)
            .map(|((mut stack, y), svm)| stack.fit_around(x, y, prep, svm).map(|()| stack))
            .collect()
    }

    /// Fits the stack around `svm`, its SVM already fitted on the same `x`
    /// and `y` and returned with its training margins: the forest first, so
    /// a forest error still wins over an SVM error, then the fusion layer
    /// on both base learners' probabilities. The SVM's come from the
    /// margins its Platt scaling already computed, not a second pass.
    fn fit_around(
        &mut self,
        x: &Matrix,
        y: &[u8],
        prep: &Prepared,
        svm: Result<(LinearSvm, Vec<f64>), MlError>,
    ) -> Result<(), MlError> {
        // Only the forest base learner grows trees; SVM and the fusion
        // layer train on raw features / meta-probabilities.
        self.forest.fit_prepared(x, y, prep)?;
        let (svm, margins) = svm?;
        self.svm = svm;
        let meta = self.stack(x, self.svm.probabilities(margins))?;
        self.fusion.fit(&meta, y)?;
        self.fitted = true;
        Ok(())
    }

    fn meta_features(&self, x: &Matrix) -> Result<Matrix, MlError> {
        self.stack(x, self.svm.predict_proba(x)?)
    }

    /// The fusion layer's input: the forest's probabilities on `x`, the
    /// SVM's (`svm_p`), and the raw features when passed through.
    fn stack(&self, x: &Matrix, svm_p: Vec<f64>) -> Result<Matrix, MlError> {
        let rf_p = self.forest.predict_proba(x)?;
        let mut meta = Matrix::with_cols(2);
        for (a, b) in rf_p.iter().zip(&svm_p) {
            meta.push_row(&[*a, *b]);
        }
        if self.config.passthrough_features {
            Ok(meta.hconcat(x))
        } else {
            Ok(meta)
        }
    }
}

impl Default for HybridRsl {
    fn default() -> Self {
        HybridRsl::with_config(HybridRslConfig::default(), 0)
    }
}

impl Classifier for HybridRsl {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        self.fit_prepared(x, y, &Prepared::Raw)
    }

    fn fit_prepared(&mut self, x: &Matrix, y: &[u8], prep: &Prepared) -> Result<(), MlError> {
        let svm = self.svm.fit_margins(x, y, prep.kernel());
        self.fit_around(x, y, prep, svm)
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        let meta = self.meta_features(x)?;
        self.fusion.predict_proba(&meta)
    }
}

impl Codec for HybridRslConfig {
    fn encode(&self, w: &mut Writer) {
        self.forest.encode(w);
        self.svm.encode(w);
        self.fusion.encode(w);
        w.bool(self.passthrough_features);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(HybridRslConfig {
            forest: Codec::decode(r)?,
            svm: Codec::decode(r)?,
            fusion: Codec::decode(r)?,
            passthrough_features: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data where one feature is linear-friendly and one is rule-friendly,
    /// so the stack can profit from both base learners.
    fn mixed_data(n: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let lin = (i as f64 / n as f64) * 4.0 - 2.0;
            let band = ((i * 7) % 10) as f64;
            let label = u8::from(lin > 0.0 || (3.0..5.0).contains(&band));
            rows.push(vec![lin, band]);
            labels.push(label);
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn hybrid_fits_and_predicts() {
        let (x, y) = mixed_data(240);
        let mut h = HybridRsl::default();
        h.fit(&x, &y).unwrap();
        let pred = h.predict(&x).unwrap();
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn hybrid_at_least_matches_worse_base_learner() {
        let (x, y) = mixed_data(300);
        let mut h = HybridRsl::default();
        h.fit(&x, &y).unwrap();
        let mut rf = RandomForest::default();
        rf.fit(&x, &y).unwrap();
        let mut svm = LinearSvm::default();
        svm.fit(&x, &y).unwrap();
        let acc = |p: Vec<u8>| p.iter().zip(&y).filter(|(a, b)| a == b).count();
        let h_acc = acc(h.predict(&x).unwrap());
        let rf_acc = acc(rf.predict(&x).unwrap());
        let svm_acc = acc(svm.predict(&x).unwrap());
        assert!(
            h_acc >= rf_acc.min(svm_acc),
            "hybrid {h_acc} rf {rf_acc} svm {svm_acc}"
        );
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = mixed_data(150);
        let mut h = HybridRsl::default();
        h.fit(&x, &y).unwrap();
        for p in h.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn passthrough_features_supported() {
        let (x, y) = mixed_data(150);
        let mut h = HybridRsl::with_config(
            HybridRslConfig {
                passthrough_features: true,
                ..Default::default()
            },
            0,
        );
        h.fit(&x, &y).unwrap();
        assert!(h.predict_proba(&x).is_ok());
    }

    /// A block of four steps its SVMs together and a block of five fits
    /// them one at a time; either way every output holds the state of a
    /// lone fit (`Debug` prints every field, each float to its shortest
    /// round-trip form).
    #[test]
    fn block_fits_match_lone_fits_bytewise() {
        let (x, y) = mixed_data(120);
        let flipped: Vec<u8> = y.iter().map(|&v| 1 - v).collect();
        let sparse: Vec<u8> = (0..y.len()).map(|i| u8::from(i % 17 == 3)).collect();
        let ys: [&[u8]; 5] = [&y, &flipped, &sparse, &vec![0; y.len()], &y];
        let seeds = [3, 4, 5, 6, 7];
        let prep = Prepared::Raw;
        for outputs in [crate::svm::LANES, ys.len()] {
            let block = HybridRsl::fit_block(
                &HybridRslConfig::default(),
                &x,
                &ys[..outputs],
                &seeds[..outputs],
                &prep,
            );
            for (j, fit) in block.into_iter().enumerate() {
                let mut alone = HybridRsl::with_config(HybridRslConfig::default(), seeds[j]);
                alone.fit(&x, ys[j]).unwrap();
                assert_eq!(
                    format!("{:?}", fit.unwrap()),
                    format!("{alone:?}"),
                    "output {j} of {outputs}"
                );
            }
        }
    }

    #[test]
    fn unfitted_errors() {
        let x = Matrix::from_rows(&[&[0.0, 0.0]]);
        assert_eq!(
            HybridRsl::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }
}
