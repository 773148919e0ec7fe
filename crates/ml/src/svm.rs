//! Linear SVM trained with Pegasos, probabilities via Platt scaling
//! (the paper's "SVM").

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::classifier::util::{check_fit, check_predict, sigmoid};
use crate::classifier::Classifier;
use crate::error::MlError;
use crate::matrix::Matrix;

/// Hyperparameters for [`LinearSvm`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvmConfig {
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Weight applied to positive-class hinge violations (class imbalance).
    pub balance_classes: bool,
    /// Iterations of the Platt-scaling fit.
    pub platt_iterations: usize,
}

impl Default for LinearSvmConfig {
    fn default() -> Self {
        LinearSvmConfig {
            lambda: 1e-4,
            epochs: 30,
            balance_classes: true,
            platt_iterations: 200,
        }
    }
}

/// Linear soft-margin SVM.
///
/// Trained by the Pegasos stochastic subgradient method on the hinge loss;
/// `predict_proba` maps the signed margin through a Platt sigmoid
/// `σ(a·margin + b)` fitted on the training margins.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    config: LinearSvmConfig,
    seed: u64,
    weights: Option<Vec<f64>>, // last entry is the bias
    platt: (f64, f64),
}

impl LinearSvm {
    /// Creates an unfitted SVM.
    pub fn with_config(config: LinearSvmConfig, seed: u64) -> Self {
        LinearSvm {
            config,
            seed,
            weights: None,
            platt: (1.0, 0.0),
        }
    }

    /// Signed margin for one sample.
    fn margin(&self, row: &[f64], w: &[f64]) -> f64 {
        let mut m = w[row.len()];
        for (xi, wi) in row.iter().zip(w) {
            m += xi * wi;
        }
        m
    }

    /// The raw decision values (margins) for each row; positive = class 1.
    pub fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        check_predict(x, Some(w.len() - 1))?;
        Ok(x.iter_rows().map(|row| self.margin(row, w)).collect())
    }
}

impl Default for LinearSvm {
    fn default() -> Self {
        LinearSvm::with_config(LinearSvmConfig::default(), 0)
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        let n_pos = check_fit(x, y)?;
        let n = x.rows();
        let d = x.cols() + 1;
        let pos_weight = if self.config.balance_classes && n_pos > 0 && n_pos < n {
            ((n - n_pos) as f64 / n_pos as f64).min(50.0)
        } else {
            1.0
        };

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut w = vec![0.0f64; d];
        let lambda = self.config.lambda;
        let epochs = self.config.epochs;
        // Warm-started step size 1/(λ(t + t₀)) avoids the enormous first
        // steps of textbook Pegasos (η₁ = 1/λ) that stall the bias term.
        let t0 = 1.0 / lambda;
        let mut t = 0u64;
        // Fisher–Yates shuffle per epoch; the RNG feeds nothing else.
        let shuffle = |order: &mut [usize], rng: &mut StdRng| {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
        };
        let mut order: Vec<usize> = (0..n).collect();
        if epochs > 0 {
            shuffle(&mut order, &mut rng);
        }
        // Each step makes one pass over `w`: shrink, hinge update, and the
        // next sample's margin from the updated weights, so it is always
        // known one step ahead. An epoch's successor order is therefore
        // shuffled before its last step.
        let mut margin = self.margin(x.row(order[0]), &w);
        let (weights, bias) = w.split_at_mut(d - 1);
        let bias = &mut bias[0];
        for epoch in 0..epochs {
            for pos in 0..n {
                let i = order[pos];
                let next = if pos + 1 < n {
                    order[pos + 1]
                } else {
                    if epoch + 1 < epochs {
                        shuffle(&mut order, &mut rng);
                    }
                    order[0]
                };
                t += 1;
                let eta = 1.0 / (lambda * (t as f64 + t0));
                let yi = if y[i] == 1 { 1.0 } else { -1.0 };
                let sw = if y[i] == 1 { pos_weight } else { 1.0 };
                let step = (margin * yi < 1.0).then_some(eta * yi * sw);
                let shrink = 1.0 - eta * lambda;
                margin = pegasos_step(weights, bias, x.row(i), shrink, step, x.row(next));
            }
        }
        if w.iter().any(|v| !v.is_finite()) {
            return Err(MlError::Diverged);
        }

        // Platt scaling on training margins: fit σ(a·m + b) to labels by
        // gradient descent on the log loss.
        // Rows by index: `iter_rows` cannot walk a matrix without columns.
        let margins: Vec<f64> = (0..n).map(|i| self.margin(x.row(i), &w)).collect();
        let (mut a, mut b) = (1.0f64, 0.0f64);
        let lr = 0.05;
        for _ in 0..self.config.platt_iterations {
            let (mut ga, mut gb) = (0.0f64, 0.0f64);
            for (&m, &yi) in margins.iter().zip(y) {
                let sw = if yi == 1 { pos_weight } else { 1.0 };
                let p = sigmoid(a * m + b);
                let err = (p - yi as f64) * sw;
                ga += err * m;
                gb += err;
            }
            a -= lr * ga / n as f64;
            b -= lr * gb / n as f64;
            if !a.is_finite() || !b.is_finite() {
                return Err(MlError::Diverged);
            }
        }
        // A negative slope would invert the ranking; keep it non-negative.
        self.platt = (a.max(0.0), b);
        self.weights = Some(w);
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let margins = self.decision_function(x)?;
        let (a, b) = self.platt;
        Ok(margins.into_iter().map(|m| sigmoid(a * m + b)).collect())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<u8>, MlError> {
        // Hard prediction from the margin sign (threshold at margin 0),
        // consistent with the hinge objective.
        Ok(self
            .decision_function(x)?
            .into_iter()
            .map(|m| u8::from(m > 0.0))
            .collect())
    }

    fn encode_state(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

/// One Pegasos step for sample `row`: the regularization shrink of the
/// feature weights, then on a hinge violation (`step` is `Some`) the update
/// `[weights bias] += step·[row 1]`. Returns the margin of `next` under the
/// updated weights, summed from the bias in feature order like
/// [`LinearSvm::margin`], so each weight is read and written once per step.
fn pegasos_step(
    weights: &mut [f64],
    bias: &mut f64,
    row: &[f64],
    shrink: f64,
    step: Option<f64>,
    next: &[f64],
) -> f64 {
    if let Some(step) = step {
        *bias += step;
    }
    let mut margin = *bias;
    match step {
        Some(step) => {
            for ((wk, &xk), &nk) in weights.iter_mut().zip(row).zip(next) {
                *wk *= shrink;
                *wk += step * xk;
                margin += nk * *wk;
            }
        }
        None => {
            for (wk, &nk) in weights.iter_mut().zip(next) {
                *wk *= shrink;
                margin += nk * *wk;
            }
        }
    }
    margin
}

impl Codec for LinearSvmConfig {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.lambda);
        w.len_prefix(self.epochs);
        w.bool(self.balance_classes);
        w.len_prefix(self.platt_iterations);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(LinearSvmConfig {
            lambda: r.f64()?,
            epochs: usize::decode(r)?,
            balance_classes: r.bool()?,
            platt_iterations: usize::decode(r)?,
        })
    }
}

impl Codec for LinearSvm {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.u64(self.seed);
        self.weights.encode(w);
        self.platt.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(LinearSvm {
            config: Codec::decode(r)?,
            seed: r.u64()?,
            weights: Codec::decode(r)?,
            platt: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let phase = i as f64 * 0.37;
            let (dx, dy) = (phase.sin() * 0.6, phase.cos() * 0.6);
            if i % 2 == 0 {
                rows.push(vec![-2.0 + dx, -2.0 + dy]);
                labels.push(0);
            } else {
                rows.push(vec![2.0 + dx, 2.0 + dy]);
                labels.push(1);
            }
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn svm_separates_blobs() {
        let (x, y) = blobs(200);
        let mut svm = LinearSvm::default();
        svm.fit(&x, &y).unwrap();
        let pred = svm.predict(&x).unwrap();
        assert_eq!(pred, y);
    }

    #[test]
    fn platt_probabilities_track_margins() {
        let (x, y) = blobs(200);
        let mut svm = LinearSvm::default();
        svm.fit(&x, &y).unwrap();
        let p = svm
            .predict_proba(&Matrix::from_rows(&[
                &[-3.0, -3.0],
                &[0.0, 0.0],
                &[3.0, 3.0],
            ]))
            .unwrap();
        assert!(p[0] < p[1] && p[1] < p[2], "{p:?}");
        assert!(p[0] < 0.2 && p[2] > 0.8);
    }

    #[test]
    fn decision_function_signs_match_predictions() {
        let (x, y) = blobs(100);
        let mut svm = LinearSvm::default();
        svm.fit(&x, &y).unwrap();
        let margins = svm.decision_function(&x).unwrap();
        let preds = svm.predict(&x).unwrap();
        for (m, p) in margins.iter().zip(&preds) {
            assert_eq!(u8::from(*m > 0.0), *p);
        }
    }

    #[test]
    fn svm_deterministic_per_seed() {
        let (x, y) = blobs(100);
        let mut a = LinearSvm::with_config(LinearSvmConfig::default(), 11);
        let mut b = LinearSvm::with_config(LinearSvmConfig::default(), 11);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(
            a.decision_function(&x).unwrap(),
            b.decision_function(&x).unwrap()
        );
    }

    #[test]
    fn imbalanced_minority_recalled_with_balancing() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..190 {
            rows.push(vec![-1.0 - (i % 10) as f64 * 0.1]);
            labels.push(0);
        }
        for i in 0..10 {
            rows.push(vec![1.0 + i as f64 * 0.1]);
            labels.push(1);
        }
        let x = Matrix::from_vec_rows(rows);
        let mut svm = LinearSvm::default();
        svm.fit(&x, &labels).unwrap();
        let pred = svm.predict(&Matrix::from_rows(&[&[1.5]])).unwrap();
        assert_eq!(pred, vec![1]);
    }

    /// Pegasos as three passes per step: margin, shrink, hinge update.
    fn reference_pegasos(config: &LinearSvmConfig, seed: u64, x: &Matrix, y: &[u8]) -> Vec<f64> {
        let n = x.rows();
        let d = x.cols() + 1;
        let n_pos = y.iter().filter(|&&v| v == 1).count();
        let pos_weight = if config.balance_classes && n_pos > 0 && n_pos < n {
            ((n - n_pos) as f64 / n_pos as f64).min(50.0)
        } else {
            1.0
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = vec![0.0f64; d];
        let lambda = config.lambda;
        let t0 = 1.0 / lambda;
        let mut t = 0u64;
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..config.epochs {
            for i in (1..n).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            for &i in &order {
                t += 1;
                let eta = 1.0 / (lambda * (t as f64 + t0));
                let row = x.row(i);
                let yi = if y[i] == 1 { 1.0 } else { -1.0 };
                let sw = if y[i] == 1 { pos_weight } else { 1.0 };
                let mut m = w[d - 1];
                for (xi, wi) in row.iter().zip(&w) {
                    m += xi * wi;
                }
                for wi in w.iter_mut().take(d - 1) {
                    *wi *= 1.0 - eta * lambda;
                }
                if m * yi < 1.0 {
                    let step = eta * yi * sw;
                    for (wi, xi) in w.iter_mut().zip(row) {
                        *wi += step * xi;
                    }
                    w[d - 1] += step;
                }
            }
        }
        w
    }

    #[test]
    fn fused_steps_match_three_pass_pegasos_bitwise() {
        let (blob_x, blob_y) = blobs(60);
        let mut imbalanced = vec![0u8; 60];
        imbalanced[7] = 1;
        imbalanced[41] = 1;
        let one = Matrix::from_rows(&[&[0.7, -1.3]]);
        let mut featureless = Matrix::with_cols(0);
        for _ in 0..5 {
            featureless.push_row(&[]);
        }
        let few_epochs = LinearSvmConfig {
            epochs: 3,
            ..LinearSvmConfig::default()
        };
        let no_epochs = LinearSvmConfig {
            epochs: 0,
            ..LinearSvmConfig::default()
        };
        let cases: [(&str, &Matrix, &[u8], &LinearSvmConfig); 7] = [
            ("blobs", &blob_x, &blob_y, &LinearSvmConfig::default()),
            (
                "imbalanced",
                &blob_x,
                &imbalanced,
                &LinearSvmConfig::default(),
            ),
            ("n = 1, positive", &one, &[1], &few_epochs),
            ("n = 1, negative", &one, &[0], &LinearSvmConfig::default()),
            ("zero features", &featureless, &[0, 1, 1, 0, 1], &few_epochs),
            ("three epochs", &blob_x, &blob_y, &few_epochs),
            ("no epochs", &blob_x, &blob_y, &no_epochs),
        ];
        for (name, x, y, config) in cases {
            for seed in [0, 9] {
                let mut svm = LinearSvm::with_config(config.clone(), seed);
                svm.fit(x, y).unwrap();
                let fused: Vec<u64> = svm.weights.unwrap().iter().map(|v| v.to_bits()).collect();
                let reference: Vec<u64> = reference_pegasos(config, seed, x, y)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(fused, reference, "{name}, seed {seed}");
            }
        }
    }

    #[test]
    fn unfitted_errors() {
        let x = Matrix::from_rows(&[&[0.0, 0.0]]);
        assert_eq!(
            LinearSvm::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }
}
