//! ML error type.

use std::fmt;

/// Errors raised by classifiers and dataset utilities.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// `fit` received inconsistent matrix/label dimensions.
    DimensionMismatch {
        /// Number of samples in the feature matrix.
        samples: usize,
        /// Number of labels.
        labels: usize,
    },
    /// `fit` received an empty training set.
    EmptyTrainingSet,
    /// `predict`/`predict_proba` called before `fit`.
    NotFitted,
    /// The training data contained only one class, so the model cannot
    /// discriminate. The classifier falls back to predicting that class;
    /// this error is raised only where the caller asked for strictness.
    SingleClass,
    /// Feature count at prediction time differs from training time.
    FeatureMismatch {
        /// Features seen during fit.
        expected: usize,
        /// Features supplied at prediction.
        got: usize,
    },
    /// The optimizer failed to make progress (non-finite loss).
    Diverged,
    /// `fit` received a label other than 0 or 1.
    InvalidLabel {
        /// Row of the first such label.
        index: usize,
        /// The label found there.
        label: u8,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::DimensionMismatch { samples, labels } => {
                write!(f, "{samples} samples but {labels} labels")
            }
            MlError::EmptyTrainingSet => write!(f, "empty training set"),
            MlError::NotFitted => write!(f, "model used before fit"),
            MlError::SingleClass => write!(f, "training labels contain a single class"),
            MlError::FeatureMismatch { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            MlError::Diverged => write!(f, "optimizer diverged (non-finite loss)"),
            MlError::InvalidLabel { index, label } => {
                write!(f, "label {label} at row {index} is neither 0 nor 1")
            }
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_numbers() {
        let e = MlError::DimensionMismatch {
            samples: 10,
            labels: 8,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('8'));
        assert!(MlError::NotFitted.to_string().contains("fit"));
    }
}
