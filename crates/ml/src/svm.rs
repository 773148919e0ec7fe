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
    pub(crate) seed: u64,
    pub(crate) weights: Option<Vec<f64>>, // last entry is the bias
    pub(crate) platt: (f64, f64),
}

/// Outputs a bank steps through Pegasos together ([`LinearSvm::fit_block`]).
/// Each step's margin is a dependent sum over every feature; four lanes'
/// sums overlap where one would wait on its own adds.
pub(crate) const LANES: usize = 4;

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

    /// The seed of the Pegasos visiting order.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw decision values (margins) for each row; positive = class 1.
    pub fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        check_predict(x, Some(w.len() - 1))?;
        Ok(x.iter_rows().map(|row| margin(row, w)).collect())
    }

    /// Fits one SVM per label vector `ys[j]`, seeded `seeds[j]`, on the
    /// shared `x`, each with the training margins its Platt scaling was
    /// fitted on. Each SVM is exactly what
    /// `with_config(config.clone(), seeds[j])` then `fit(x, ys[j])` gives.
    /// A block of [`LANES`] well-formed outputs steps its Pegasos lanes
    /// together; any other block fits each output alone.
    pub(crate) fn fit_block(
        config: &LinearSvmConfig,
        x: &Matrix,
        ys: &[&[u8]],
        seeds: &[u64],
    ) -> Vec<Result<(LinearSvm, Vec<f64>), MlError>> {
        let lanes: Result<Vec<Lane<'_>>, MlError> = ys
            .iter()
            .zip(seeds)
            .map(|(&y, &seed)| Lane::new(config, x, y, seed))
            .collect();
        match lanes
            .ok()
            .and_then(|lanes| <[Lane<'_>; LANES]>::try_from(lanes).ok())
        {
            Some(block) => block
                .into_iter()
                .zip(pegasos(config, x, block))
                .map(|(lane, w)| LinearSvm::calibrate(config, x, lane, w))
                .collect(),
            // A tail block, or labels that do not fit `x`.
            None => ys
                .iter()
                .zip(seeds)
                .map(|(&y, &seed)| LinearSvm::with_config(config.clone(), seed).fit_margins(x, y))
                .collect(),
        }
    }

    /// [`fit`](Classifier::fit), returning the fitted SVM with its
    /// training margins.
    pub(crate) fn fit_margins(
        &self,
        x: &Matrix,
        y: &[u8],
    ) -> Result<(LinearSvm, Vec<f64>), MlError> {
        let lane = Lane::new(&self.config, x, y, self.seed)?;
        let [w] = pegasos(&self.config, x, [lane]);
        LinearSvm::calibrate(&self.config, x, lane, w)
    }

    /// Platt probabilities of `margins`, as `predict_proba` maps them.
    pub(crate) fn probabilities(&self, margins: Vec<f64>) -> Vec<f64> {
        let (a, b) = self.platt;
        margins.into_iter().map(|m| sigmoid(a * m + b)).collect()
    }

    /// The model of one lane's Pegasos weights `w`: a divergence check,
    /// then Platt scaling on the lane's training margins, which come back
    /// with it.
    fn calibrate(
        config: &LinearSvmConfig,
        x: &Matrix,
        lane: Lane<'_>,
        w: Vec<f64>,
    ) -> Result<(LinearSvm, Vec<f64>), MlError> {
        if w.iter().any(|v| !v.is_finite()) {
            return Err(MlError::Diverged);
        }
        // Platt scaling on training margins: fit σ(a·m + b) to labels by
        // gradient descent on the log loss.
        // Rows by index: `iter_rows` cannot walk a matrix without columns.
        let n = x.rows();
        let margins: Vec<f64> = (0..n).map(|i| margin(x.row(i), &w)).collect();
        let (mut a, mut b) = (1.0f64, 0.0f64);
        let lr = 0.05;
        for _ in 0..config.platt_iterations {
            let (mut ga, mut gb) = (0.0f64, 0.0f64);
            for (&m, &yi) in margins.iter().zip(lane.y) {
                let sw = if yi == 1 { lane.pos_weight } else { 1.0 };
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
        let svm = LinearSvm {
            config: config.clone(),
            seed: lane.seed,
            weights: Some(w),
            // A negative slope would invert the ranking; keep it
            // non-negative.
            platt: (a.max(0.0), b),
        };
        Ok((svm, margins))
    }
}

/// Signed margin of one sample under `[weights bias]`: the bias, then each
/// feature's term in feature order.
pub(crate) fn margin(row: &[f64], w: &[f64]) -> f64 {
    let mut m = w[row.len()];
    for (xi, wi) in row.iter().zip(w) {
        m += xi * wi;
    }
    m
}

impl Default for LinearSvm {
    fn default() -> Self {
        LinearSvm::with_config(LinearSvmConfig::default(), 0)
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        (*self, _) = self.fit_margins(x, y)?;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        Ok(self.probabilities(self.decision_function(x)?))
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
}

/// One output's share of a Pegasos fit: its labels, its seed, and the
/// weight of a positive sample's hinge step.
#[derive(Clone, Copy)]
struct Lane<'a> {
    y: &'a [u8],
    seed: u64,
    pos_weight: f64,
}

impl<'a> Lane<'a> {
    fn new(config: &LinearSvmConfig, x: &Matrix, y: &'a [u8], seed: u64) -> Result<Self, MlError> {
        let n_pos = check_fit(x, y)?;
        let n = x.rows();
        let pos_weight = if config.balance_classes && n_pos > 0 && n_pos < n {
            ((n - n_pos) as f64 / n_pos as f64).min(50.0)
        } else {
            1.0
        };
        Ok(Lane {
            y,
            seed,
            pos_weight,
        })
    }
}

/// Pegasos for `L` outputs over the shared `x`, stepped in lockstep;
/// returns each lane's `[weights bias]`, exactly `x.cols() + 1` long.
///
/// Every lane keeps its own RNG, visiting order, bias and margin, and does
/// the arithmetic of a lone fit in the same order. A step makes one pass
/// over the weights: the regularization shrink, on a hinge violation the
/// update `[weights bias] += step·[row 1]`, and the margin of the lane's
/// next sample under the updated weights, summed from the bias in feature
/// order. The margin is therefore always known one step ahead, and an
/// epoch's successor order is shuffled before its last step. The lanes'
/// weights are interleaved feature-major (`w[k·L + j]`), so the `L`
/// dependent margin sums overlap instead of queuing.
fn pegasos<const L: usize>(
    config: &LinearSvmConfig,
    x: &Matrix,
    lanes: [Lane<'_>; L],
) -> [Vec<f64>; L] {
    let (n, m) = (x.rows(), x.cols());
    let (lambda, epochs) = (config.lambda, config.epochs);
    // Warm-started step size 1/(λ(t + t₀)) avoids the enormous first
    // steps of textbook Pegasos (η₁ = 1/λ) that stall the bias term.
    let t0 = 1.0 / lambda;
    let mut rngs = lanes.map(|lane| StdRng::seed_from_u64(lane.seed));
    let mut orders: [Vec<usize>; L] = std::array::from_fn(|_| (0..n).collect());
    // Fisher–Yates shuffle per epoch; a lane's RNG feeds nothing else.
    let shuffle = |orders: &mut [Vec<usize>; L], rngs: &mut [StdRng; L]| {
        for (order, rng) in orders.iter_mut().zip(rngs.iter_mut()) {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
        }
    };
    if epochs > 0 {
        shuffle(&mut orders, &mut rngs);
    }
    let mut w = vec![0.0f64; m * L];
    let mut bias = [0.0f64; L];
    // The first sample's margin under the zero weights.
    let mut margin: [f64; L] = std::array::from_fn(|j| {
        x.row(orders[j][0])
            .iter()
            .fold(bias[j], |sum, &xk| sum + xk * 0.0)
    });
    // The row a quiet lane "adds" in a step where another lane violates:
    // `1·(−0.0)` leaves every value exactly as it was, where `0·x` would
    // flip a −0.0 and turn an infinite `x` into NaN.
    let quiet = vec![-0.0f64; m];
    let mut t = 0u64;
    for epoch in 0..epochs {
        for pos in 0..n {
            let at: [usize; L] = std::array::from_fn(|j| orders[j][pos]);
            let succ = if pos + 1 < n {
                pos + 1
            } else {
                if epoch + 1 < epochs {
                    shuffle(&mut orders, &mut rngs);
                }
                0
            };
            let next: [&[f64]; L] = std::array::from_fn(|j| x.row(orders[j][succ]));
            t += 1;
            let eta = 1.0 / (lambda * (t as f64 + t0));
            let shrink = 1.0 - eta * lambda;
            let mut hit = [false; L];
            let mut step = [1.0f64; L];
            for j in 0..L {
                let positive = lanes[j].y[at[j]] == 1;
                let yi = if positive { 1.0 } else { -1.0 };
                let sw = if positive { lanes[j].pos_weight } else { 1.0 };
                hit[j] = margin[j] * yi < 1.0;
                if hit[j] {
                    step[j] = eta * yi * sw;
                    bias[j] += step[j];
                }
            }
            let (weights, _) = w.as_chunks_mut::<L>();
            margin = if hit.contains(&true) {
                let rows: [&[f64]; L] =
                    std::array::from_fn(|j| if hit[j] { x.row(at[j]) } else { &quiet });
                step_pass(weights, shrink, step, rows, next, bias)
            } else {
                shrink_pass(weights, shrink, next, bias)
            };
        }
    }
    std::array::from_fn(|j| {
        let mut lane = Vec::with_capacity(m + 1);
        lane.extend(w.iter().skip(j).step_by(L));
        lane.push(bias[j]);
        lane
    })
}

// The two passes of a step. Each cuts every row to the weights' length
// first, so its indexed loads compile without bounds checks, and each
// stays out of line: inlined into `pegasos`, the margin sums are kept in
// a stack array and every add waits on a store and a reload.

/// A step where some lane violates its hinge: `w ← w·shrink + step·row`
/// per lane, then each lane's margin on its next sample, summed onto
/// `acc` in feature order.
#[inline(never)]
fn step_pass<const L: usize>(
    weights: &mut [[f64; L]],
    shrink: f64,
    step: [f64; L],
    rows: [&[f64]; L],
    next: [&[f64]; L],
    mut acc: [f64; L],
) -> [f64; L] {
    let d = weights.len();
    let (rows, next) = (rows.map(|r| &r[..d]), next.map(|r| &r[..d]));
    for k in 0..d {
        let xk: [f64; L] = std::array::from_fn(|j| rows[j][k]);
        let nk: [f64; L] = std::array::from_fn(|j| next[j][k]);
        let wk = &mut weights[k];
        for j in 0..L {
            wk[j] = wk[j] * shrink + step[j] * xk[j];
            acc[j] += nk[j] * wk[j];
        }
    }
    acc
}

/// A step where no lane violates its hinge: the shrink alone, then each
/// lane's next margin as in [`step_pass`].
#[inline(never)]
fn shrink_pass<const L: usize>(
    weights: &mut [[f64; L]],
    shrink: f64,
    next: [&[f64]; L],
    mut acc: [f64; L],
) -> [f64; L] {
    let d = weights.len();
    let next = next.map(|r| &r[..d]);
    for k in 0..d {
        let nk: [f64; L] = std::array::from_fn(|j| next[j][k]);
        let wk = &mut weights[k];
        for j in 0..L {
            wk[j] *= shrink;
            acc[j] += nk[j] * wk[j];
        }
    }
    acc
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
        let bits = |w: &[f64]| -> Vec<u64> { w.iter().map(|v| v.to_bits()).collect() };
        for (name, x, y, config) in cases {
            for seed in [0, 9] {
                let mut svm = LinearSvm::with_config(config.clone(), seed);
                svm.fit(x, y).unwrap();
                let fused = bits(svm.weights.as_deref().unwrap());
                let reference = bits(&reference_pegasos(config, seed, x, y));
                assert_eq!(fused, reference, "{name}, seed {seed}");
            }
            // The case as the first lane of blocks of 1 to 5 outputs, beside
            // all-negative, all-positive, imbalanced and flipped labels on
            // the same rows. A block of `LANES` steps in lockstep; the
            // others fit one lane at a time.
            let n = y.len();
            let mut sparse = vec![0u8; n];
            sparse[n / 2] = 1;
            let flipped: Vec<u8> = y.iter().map(|&v| 1 - v).collect();
            let labels: [&[u8]; 5] = [y, &vec![0; n], &vec![1; n], &sparse, &flipped];
            let seeds = [9, 0, 41, 7, 9];
            for outputs in 1..=labels.len() {
                let block = LinearSvm::fit_block(config, x, &labels[..outputs], &seeds[..outputs]);
                assert_eq!(block.len(), outputs);
                for (j, fit) in block.into_iter().enumerate() {
                    let (y, seed) = (labels[j], seeds[j]);
                    let (lane, margins) = fit.unwrap();
                    // The margins handed back are a predict pass's.
                    assert_eq!(
                        bits(&margins),
                        bits(&lane.decision_function(x).unwrap()),
                        "{name}: lane {j} margins"
                    );
                    let reference = bits(&reference_pegasos(config, seed, x, y));
                    assert_eq!(
                        bits(lane.weights.as_deref().unwrap()),
                        reference,
                        "{name}: lane {j} of a {outputs}-output block"
                    );
                    // Platt scaling and every other field match a lone fit.
                    let mut alone = LinearSvm::with_config(config.clone(), seed);
                    alone.fit(x, y).unwrap();
                    assert_eq!(
                        format!("{lane:?}"),
                        format!("{alone:?}"),
                        "{name}: lane {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_nan_feature_diverges_every_lane() {
        let (mut x, y) = blobs(60);
        x.set(17, 1, f64::NAN);
        let flipped: Vec<u8> = y.iter().map(|&v| 1 - v).collect();
        let labels: [&[u8]; 5] = [&y, &flipped, &[0; 60], &y, &[1; 60]];
        for outputs in 1..=labels.len() {
            let seeds: Vec<u64> = (0..outputs as u64).collect();
            let block =
                LinearSvm::fit_block(&LinearSvmConfig::default(), &x, &labels[..outputs], &seeds);
            assert!(
                block
                    .iter()
                    .all(|fit| matches!(fit, Err(MlError::Diverged))),
                "{outputs}-output block"
            );
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
