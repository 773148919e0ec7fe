//! Property-based tests on the ML crate's invariants.

use aqua_ml::metrics::{accuracy, hamming_score_sample, precision_recall_f1};
use aqua_ml::{Classifier, LogisticRegression, Matrix, ModelKind, Scaler};
use proptest::prelude::*;

fn label_vec(len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..2, len)
}

proptest! {
    /// Hamming score is bounded, symmetric and 1 on identical vectors.
    #[test]
    fn hamming_score_properties(pred in label_vec(24), truth in label_vec(24)) {
        let s = hamming_score_sample(&pred, &truth);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((hamming_score_sample(&truth, &pred) - s).abs() < 1e-12, "symmetry");
        prop_assert!((hamming_score_sample(&pred, &pred) - 1.0).abs() < 1e-12);
    }

    /// Precision/recall/F1 are bounded and F1 is their harmonic mean.
    #[test]
    fn prf_properties(pred in label_vec(30), truth in label_vec(30)) {
        let (p, r, f1) = precision_recall_f1(&pred, &truth);
        for v in [p, r, f1] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        if p + r > 0.0 {
            prop_assert!((f1 - 2.0 * p * r / (p + r)).abs() < 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&accuracy(&pred, &truth)));
    }

    /// The scaler's transform has zero mean and unit variance per
    /// non-constant column, on arbitrary data.
    #[test]
    fn scaler_standardizes(rows in prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, 3), 4..40)) {
        let x = Matrix::from_vec_rows(rows);
        let scaler = Scaler::fit(&x);
        let z = scaler.transform(&x);
        let n = z.rows() as f64;
        for j in 0..z.cols() {
            let col = z.column(j);
            let mean: f64 = col.iter().sum::<f64>() / n;
            prop_assert!(mean.abs() < 1e-9, "column {j} mean {mean}");
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            // Constant columns pass through as zeros (variance 0).
            prop_assert!(var < 1.0 + 1e-6, "column {j} var {var}");
        }
    }

    /// Every model family yields probabilities in [0, 1] and predictions
    /// consistent with them (or with the margin, for SVM) on random
    /// separable-ish data.
    #[test]
    fn probabilities_bounded_for_all_families(seed in 0u64..50) {
        let n = 60;
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let a = ((i as u64 ^ seed).wrapping_mul(2654435761) % 1000) as f64 / 500.0 - 1.0;
            let b = ((i as u64).wrapping_mul(40503) % 997) as f64 / 498.5 - 1.0;
            rows.push(vec![a, b]);
            labels.push(u8::from(a + 0.3 * b > 0.0));
        }
        let x = Matrix::from_vec_rows(rows);
        for kind in [
            ModelKind::linear_r(),
            ModelKind::logistic_r(),
            ModelKind::gradient_boosting(),
            ModelKind::random_forest(),
            ModelKind::svm(),
            ModelKind::hybrid_rsl(),
        ] {
            let mut m = kind.build(seed);
            m.fit(&x, &labels).unwrap();
            let proba = m.predict_proba(&x).unwrap();
            prop_assert!(proba.iter().all(|p| (0.0..=1.0).contains(p)), "{}", kind.name());
            let pred = m.predict(&x).unwrap();
            prop_assert!(pred.iter().all(|&y| y <= 1), "{}", kind.name());
        }
    }
}

/// Training-set accuracy of logistic regression beats the base rate on any
/// linearly-generated labels (a deterministic sanity check, not proptest).
#[test]
fn logistic_beats_base_rate() {
    let n = 200;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i as f64 * 0.61).sin();
        let b = (i as f64 * 0.37).cos();
        rows.push(vec![a, b]);
        labels.push(u8::from(0.8 * a - 0.6 * b > 0.1));
    }
    let x = Matrix::from_vec_rows(rows);
    let mut clf = LogisticRegression::default();
    clf.fit(&x, &labels).unwrap();
    let acc = accuracy(&clf.predict(&x).unwrap(), &labels);
    let base = labels.iter().filter(|&&y| y == 1).count() as f64 / n as f64;
    let base = base.max(1.0 - base);
    assert!(acc > base, "accuracy {acc} must beat base rate {base}");
}

/// With no feature columns the three linear families fit a bias alone and
/// give every row the same probability; LinearR's is the positive rate.
#[test]
fn linear_families_fit_and_predict_a_bias_alone_without_features() {
    let labels = [1, 0, 1, 1, 0, 1, 1, 1];
    let positive_rate = 0.75;
    let x = Matrix::zeros(labels.len(), 0);
    let queries = Matrix::zeros(3, 0);
    for kind in [
        ModelKind::linear_r(),
        ModelKind::logistic_r(),
        ModelKind::svm(),
    ] {
        let mut m = kind.build(0);
        m.fit(&x, &labels).unwrap();
        let proba = m.predict_proba(&queries).unwrap();
        assert_eq!(proba.len(), 3, "{}", kind.name());
        assert!(
            proba
                .iter()
                .all(|&p| p == proba[0] && (0.0..=1.0).contains(&p)),
            "{}: {proba:?}",
            kind.name()
        );
        assert_eq!(m.predict(&queries).unwrap().len(), 3, "{}", kind.name());
        if kind == ModelKind::linear_r() {
            assert!((proba[0] - positive_rate).abs() < 1e-3, "{proba:?}");
        }
    }
}
