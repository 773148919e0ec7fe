//! Plug-and-play statistical learning for AquaSCALE.
//!
//! The paper's analytics module "enables selection/integration of statistical
//! ML techniques" and compares Linear Regression, Logistic Regression,
//! Gradient Boosting, Random Forest and SVM, plus the proposed **HybridRSL**
//! stack (Random forest + Svm fused through Logistic regression, Fig. 4).
//! The paper uses scikit-learn; this crate implements the same model
//! families from scratch behind one [`Classifier`] interface exposing the
//! `fit` / `predict` / `predict_proba` methods Algorithm 1 and 2 rely on.
//!
//! Leak localization is a *multi-output* problem — one binary classifier per
//! candidate leak node (Sec. III-B) — handled by [`MultiOutputModel`], and
//! scored with the paper's Hamming score ([`metrics::hamming_score`]).
//!
//! # Example
//!
//! ```
//! use aqua_ml::{Classifier, LogisticRegression, Matrix};
//!
//! // Learn y = x0 > 0.
//! let x = Matrix::from_rows(&[&[-2.0], &[-1.0], &[1.0], &[2.0]]);
//! let y = [0, 0, 1, 1];
//! let mut clf = LogisticRegression::default();
//! clf.fit(&x, &y).unwrap();
//! assert_eq!(clf.predict(&Matrix::from_rows(&[&[3.0], &[-3.0]])).unwrap(), vec![1, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binned;
mod boosting;
mod classifier;
mod dataset;
mod dense;
mod error;
mod forest;
mod hybrid;
mod linear;
mod matrix;
pub mod metrics;
mod multioutput;
mod svm;
pub mod sync;
mod tree;
pub mod work;

pub use binned::{BinnedDataset, MAX_BINS};
pub use boosting::{EarlyStopping, GradientBoosting, GradientBoostingConfig};
pub use classifier::{Classifier, ModelKind, Prepared};
pub use dataset::{holdout_indices, train_test_split, Scaler};
pub use error::MlError;
pub use forest::{RandomForest, RandomForestConfig};
pub use hybrid::{HybridRsl, HybridRslConfig};
pub use linear::{
    GramFactor, LinearRegressionClassifier, LogisticRegression, LogisticRegressionConfig,
};
pub use matrix::Matrix;
pub use multioutput::MultiOutputModel;
pub use svm::{LinearSvm, LinearSvmConfig};
pub use tree::{DecisionTree, DecisionTreeConfig, SplitStrategy};
