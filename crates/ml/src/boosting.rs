//! Gradient boosting with logistic loss (the paper's "GB").
//!
//! Training speed knobs (see DESIGN.md §10): stage trees default to
//! histogram split finding over a [`BinnedDataset`], and boosting rounds
//! stop early on a deterministic holdout once validation loss plateaus.
//! Set [`GradientBoostingConfig::split`] to [`SplitStrategy::Exact`] and
//! [`GradientBoostingConfig::early_stopping`] to [`EarlyStopping::off`] to
//! recover the reference exact-scan behaviour.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::binned::BinnedDataset;
use crate::classifier::util::{check_fit, check_predict, sigmoid};
use crate::classifier::{Classifier, Prepared};
use crate::dataset::holdout_indices;
use crate::error::MlError;
use crate::matrix::Matrix;
use crate::tree::{Criterion, DecisionTreeConfig, GrownTree, SplitStrategy};

/// Below this many training samples, early stopping deactivates: a holdout
/// carved from a tiny set is too noisy to govern round counts.
const MIN_EARLY_STOP_SAMPLES: usize = 20;

/// Early stopping also deactivates when the holdout holds fewer than this
/// many samples of its minority class. Per-node leak labels are heavily
/// imbalanced (a ~300-junction network puts ~1% positives on each output),
/// and validation log-loss over a handful of positives is pure noise — it
/// truncates rounds the positives needed (measured as a held-out hamming
/// loss on WSSC).
const MIN_HOLDOUT_MINORITY: usize = 5;

/// Early-stopping policy for boosting rounds.
///
/// When active, a deterministic holdout (derived from the model seed) is
/// split off before the first round; training stops once validation
/// log-loss has not improved for `patience` consecutive rounds, and the
/// model is truncated back to its best round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopping {
    /// Fraction of samples held out for validation (`0.0` disables).
    pub holdout_fraction: f64,
    /// Rounds without validation improvement tolerated before stopping
    /// (`0` disables).
    pub patience: usize,
}

impl EarlyStopping {
    /// Disabled: always run the configured number of stages.
    pub fn off() -> Self {
        EarlyStopping {
            holdout_fraction: 0.0,
            patience: 0,
        }
    }

    /// Whether the policy applies to an `n`-sample training set.
    pub(crate) fn active(&self, n: usize) -> bool {
        self.holdout_fraction > 0.0 && self.patience > 0 && n >= MIN_EARLY_STOP_SAMPLES
    }
}

impl Default for EarlyStopping {
    fn default() -> Self {
        EarlyStopping {
            holdout_fraction: 0.2,
            patience: 8,
        }
    }
}

impl Codec for EarlyStopping {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.holdout_fraction);
        w.len_prefix(self.patience);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let holdout_fraction = r.f64()?;
        if !(0.0..1.0).contains(&holdout_fraction) {
            return Err(ArtifactError::Malformed {
                reason: format!("holdout fraction {holdout_fraction} outside [0, 1)"),
            });
        }
        Ok(EarlyStopping {
            holdout_fraction,
            patience: usize::decode(r)?,
        })
    }
}

/// Hyperparameters for [`GradientBoosting`].
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostingConfig {
    /// Number of boosting stages (an upper bound under early stopping).
    pub n_stages: usize,
    /// Shrinkage applied to each stage.
    pub learning_rate: f64,
    /// Depth of the per-stage regression trees.
    pub max_depth: usize,
    /// Minimum samples to split within stage trees.
    pub min_samples_split: usize,
    /// Split enumeration for stage trees (default: 256-bin histograms).
    pub split: SplitStrategy,
    /// Early stopping on boosting rounds (default: on, 20% holdout,
    /// patience 8).
    pub early_stopping: EarlyStopping,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        GradientBoostingConfig {
            n_stages: 40,
            learning_rate: 0.2,
            max_depth: 3,
            min_samples_split: 4,
            split: SplitStrategy::histogram(),
            early_stopping: EarlyStopping::default(),
        }
    }
}

impl GradientBoostingConfig {
    /// The reference configuration: exact sorted-scan splits, no early
    /// stopping. The oracle the histogram path is benchmarked and
    /// property-tested against.
    pub fn exact_reference() -> Self {
        GradientBoostingConfig {
            split: SplitStrategy::Exact,
            early_stopping: EarlyStopping::off(),
            ..Default::default()
        }
    }
}

/// Gradient-boosted shallow regression trees on the logistic loss.
///
/// Each stage fits a regression tree to the pseudo-residuals `y − σ(F)` and
/// adds it to the additive model `F` with shrinkage; probabilities are
/// `σ(F)`.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    config: GradientBoostingConfig,
    pub(crate) seed: u64,
    pub(crate) init_score: f64,
    pub(crate) stages: Vec<GrownTree>,
    n_features: Option<usize>,
}

impl GradientBoosting {
    /// Creates an unfitted model.
    pub fn with_config(config: GradientBoostingConfig, seed: u64) -> Self {
        GradientBoosting {
            config,
            seed,
            init_score: 0.0,
            stages: Vec::new(),
            n_features: None,
        }
    }

    /// Number of fitted stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    fn raw_score(&self, row: &[f64]) -> f64 {
        self.init_score
            + self
                .stages
                .iter()
                .map(|t| self.config.learning_rate * t.predict_one(row))
                .sum::<f64>()
    }
}

impl Default for GradientBoosting {
    fn default() -> Self {
        GradientBoosting::with_config(GradientBoostingConfig::default(), 0)
    }
}

impl GradientBoosting {
    /// Mean logistic loss of the current additive scores over `idx`.
    fn holdout_loss(scores: &[f64], y: &[u8], idx: &[usize]) -> f64 {
        let mut loss = 0.0;
        for &i in idx {
            let p = sigmoid(scores[i]).clamp(1e-12, 1.0 - 1e-12);
            loss -= if y[i] == 1 { p.ln() } else { (1.0 - p).ln() };
        }
        loss / idx.len() as f64
    }

    /// Shared fit body; `shared` is an optional pre-built binned view of
    /// `x` (used when `MultiOutputModel` bins the corpus once for all
    /// outputs).
    fn fit_impl(
        &mut self,
        x: &Matrix,
        y: &[u8],
        shared: Option<&BinnedDataset>,
    ) -> Result<(), MlError> {
        let n_pos = check_fit(x, y)?;
        let n = x.rows();
        // Initial log-odds (clamped away from ±∞ for single-class sets).
        let p0 = (n_pos as f64 / n as f64).clamp(1e-4, 1.0 - 1e-4);
        self.init_score = (p0 / (1.0 - p0)).ln();
        self.stages.clear();
        self.n_features = Some(x.cols());

        let binned = self.config.split.binned_view(x, shared);
        let binned = binned.as_deref();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let tree_config = DecisionTreeConfig {
            max_depth: self.config.max_depth,
            min_samples_split: self.config.min_samples_split,
            max_features: None,
            balance_classes: false,
            split: self.config.split,
        };

        let es = self.config.early_stopping;
        let (train_idx, holdout_idx) = if es.active(n) {
            let (train, holdout) = holdout_indices(n, es.holdout_fraction, self.seed);
            let holdout_pos = holdout.iter().filter(|&&i| y[i] == 1).count();
            if holdout_pos.min(holdout.len() - holdout_pos) < MIN_HOLDOUT_MINORITY {
                ((0..n).collect(), Vec::new())
            } else {
                (train, holdout)
            }
        } else {
            ((0..n).collect(), Vec::new())
        };

        // Scores cover *all* samples: trees grow on the train subset while
        // the holdout tracks validation loss per round.
        let mut scores: Vec<f64> = vec![self.init_score; n];
        let mut best_loss = f64::INFINITY;
        let mut best_len = 0usize;
        let mut since_best = 0usize;
        for _ in 0..self.config.n_stages {
            let residuals: Vec<f64> = scores
                .iter()
                .zip(y)
                .map(|(&f, &yi)| yi as f64 - sigmoid(f))
                .collect();
            let tree = match binned {
                Some(b) => {
                    GrownTree::grow_binned(b, &residuals, &train_idx, &tree_config, &mut rng)
                }
                None => GrownTree::grow(
                    x,
                    &residuals,
                    &train_idx,
                    Criterion::Mse,
                    &tree_config,
                    &mut rng,
                ),
            };
            for (i, score) in scores.iter_mut().enumerate() {
                *score += self.config.learning_rate * tree.predict_one(x.row(i));
                if !score.is_finite() {
                    return Err(MlError::Diverged);
                }
            }
            self.stages.push(tree);
            if !holdout_idx.is_empty() {
                let loss = Self::holdout_loss(&scores, y, &holdout_idx);
                if loss < best_loss - 1e-12 {
                    best_loss = loss;
                    best_len = self.stages.len();
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= es.patience {
                        break;
                    }
                }
            }
        }
        if !holdout_idx.is_empty() {
            // Rewind to the best validation round (at least one stage).
            self.stages.truncate(best_len.max(1));
        }
        Ok(())
    }
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        self.fit_impl(x, y, None)
    }

    fn fit_prepared(&mut self, x: &Matrix, y: &[u8], prep: &Prepared) -> Result<(), MlError> {
        self.fit_impl(x, y, prep.binned())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.stages.is_empty() {
            return Err(MlError::NotFitted);
        }
        check_predict(x, self.n_features)?;
        Ok(x.iter_rows()
            .map(|row| sigmoid(self.raw_score(row)))
            .collect())
    }
}

impl Codec for GradientBoostingConfig {
    fn encode(&self, w: &mut Writer) {
        w.len_prefix(self.n_stages);
        w.f64(self.learning_rate);
        w.len_prefix(self.max_depth);
        w.len_prefix(self.min_samples_split);
        self.split.encode(w);
        self.early_stopping.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(GradientBoostingConfig {
            n_stages: usize::decode(r)?,
            learning_rate: r.f64()?,
            max_depth: usize::decode(r)?,
            min_samples_split: usize::decode(r)?,
            split: Codec::decode(r)?,
            early_stopping: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded_data(n: usize) -> (Matrix, Vec<u8>) {
        // Positive iff x in [1, 2] ∪ [4, 5] — needs several splits.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let v = 6.0 * (i as f64 / n as f64);
            rows.push(vec![v, (i % 3) as f64]);
            labels.push(u8::from((1.0..2.0).contains(&v) || (4.0..5.0).contains(&v)));
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn boosting_learns_banded_target() {
        let (x, y) = banded_data(240);
        let mut gb = GradientBoosting::default();
        gb.fit(&x, &y).unwrap();
        let pred = gb.predict(&x).unwrap();
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn more_stages_reduce_training_error() {
        // Early stopping is off here: the test pins exact stage counts.
        let (x, y) = banded_data(200);
        let mut weak = GradientBoosting::with_config(
            GradientBoostingConfig {
                n_stages: 2,
                early_stopping: EarlyStopping::off(),
                ..Default::default()
            },
            0,
        );
        let mut strong = GradientBoosting::with_config(
            GradientBoostingConfig {
                n_stages: 60,
                early_stopping: EarlyStopping::off(),
                ..Default::default()
            },
            0,
        );
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let err = |m: &GradientBoosting| {
            m.predict(&x)
                .unwrap()
                .iter()
                .zip(&y)
                .filter(|(a, b)| a != b)
                .count()
        };
        assert!(err(&strong) <= err(&weak));
        assert_eq!(strong.stage_count(), 60);
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = banded_data(120);
        let mut gb = GradientBoosting::default();
        gb.fit(&x, &y).unwrap();
        for p in gb.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn single_class_training_is_stable() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let mut gb = GradientBoosting::default();
        gb.fit(&x, &[0, 0, 0]).unwrap();
        let p = gb.predict_proba(&x).unwrap();
        assert!(p.iter().all(|&v| v < 0.1), "{p:?}");
    }

    #[test]
    fn unfitted_errors() {
        let x = Matrix::from_rows(&[&[1.0]]);
        assert_eq!(
            GradientBoosting::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    fn early_stopping_never_exceeds_stage_budget_and_is_deterministic() {
        let (x, y) = banded_data(200);
        let mut a = GradientBoosting::with_config(GradientBoostingConfig::default(), 4);
        let mut b = GradientBoosting::with_config(GradientBoostingConfig::default(), 4);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert!(a.stage_count() >= 1 && a.stage_count() <= 40);
        assert_eq!(a.stage_count(), b.stage_count());
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn early_stopping_deactivates_on_tiny_sets() {
        // n < 20: every configured stage runs, holdout logic untouched.
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]);
        let y = [0, 0, 0, 1, 1, 1];
        let mut gb = GradientBoosting::with_config(
            GradientBoostingConfig {
                n_stages: 5,
                ..Default::default()
            },
            0,
        );
        gb.fit(&x, &y).unwrap();
        assert_eq!(gb.stage_count(), 5);
    }

    #[test]
    fn early_stopping_deactivates_on_rare_positives() {
        // 4 positives in 100 samples: the 20-sample holdout cannot carry
        // the minority-class floor, so the full stage budget must run —
        // validation loss over ~1 positive is noise, not a signal.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            rows.push(vec![(i as f64 * 0.37).sin(), i as f64 * 0.01]);
            y.push(u8::from(i % 25 == 0));
        }
        let x = Matrix::from_vec_rows(rows);
        let mut gb = GradientBoosting::with_config(
            GradientBoostingConfig {
                n_stages: 12,
                ..Default::default()
            },
            0,
        );
        gb.fit(&x, &y).unwrap();
        assert_eq!(gb.stage_count(), 12);
    }

    #[test]
    fn exact_reference_matches_legacy_behaviour() {
        let cfg = GradientBoostingConfig::exact_reference();
        assert_eq!(cfg.split, SplitStrategy::Exact);
        assert!(!cfg.early_stopping.active(1000));
        let (x, y) = banded_data(150);
        let mut gb = GradientBoosting::with_config(cfg, 0);
        gb.fit(&x, &y).unwrap();
        assert_eq!(gb.stage_count(), 40);
    }

    #[test]
    fn shared_binned_fit_matches_owned_binned_fit() {
        let (x, y) = banded_data(180);
        let shared = Prepared::Binned(BinnedDataset::build(&x, 256));
        let mut via_shared = GradientBoosting::with_config(GradientBoostingConfig::default(), 2);
        let mut via_owned = GradientBoosting::with_config(GradientBoostingConfig::default(), 2);
        via_shared.fit_prepared(&x, &y, &shared).unwrap();
        via_owned.fit(&x, &y).unwrap();
        assert_eq!(via_shared.stage_count(), via_owned.stage_count());
        assert_eq!(
            via_shared.predict_proba(&x).unwrap(),
            via_owned.predict_proba(&x).unwrap()
        );
    }

    #[test]
    fn config_codec_roundtrip_with_new_fields() {
        for cfg in [
            GradientBoostingConfig::default(),
            GradientBoostingConfig::exact_reference(),
            GradientBoostingConfig {
                split: SplitStrategy::Histogram { max_bins: 64 },
                early_stopping: EarlyStopping {
                    holdout_fraction: 0.3,
                    patience: 3,
                },
                ..Default::default()
            },
        ] {
            let mut w = Writer::new();
            cfg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(GradientBoostingConfig::decode(&mut r).unwrap(), cfg);
        }
    }
}
