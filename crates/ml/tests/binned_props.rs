//! Property tests: histogram split finding against the exact sorted-scan
//! oracle.
//!
//! Two claims are checked on proptest-generated corpora:
//! 1. **Oracle agreement** — when every feature has no more distinct
//!    values than the bin budget, the histogram candidate-threshold set
//!    equals the exact scan's, so whole trees (and boosted ensembles)
//!    grown by both strategies are identical predictors.
//! 2. **Accuracy tolerance** — on continuous corpora (distinct values far
//!    beyond the budget) binned training stays within a small accuracy
//!    tolerance of exact training on the same data.

use aqua_ml::metrics::accuracy;
use aqua_ml::{
    Classifier, DecisionTree, DecisionTreeConfig, EarlyStopping, GradientBoosting,
    GradientBoostingConfig, Matrix, RandomForest, RandomForestConfig, SplitStrategy,
};
use proptest::prelude::*;

/// Labeled rows over a small integer grid: every feature has ≤ 16 distinct
/// values, far under any bin budget we test, forcing midpoint-for-midpoint
/// threshold agreement between the histogram and the exact scan.
fn gridded_corpus() -> impl Strategy<Value = Vec<(Vec<u8>, u8)>> {
    prop::collection::vec((prop::collection::vec(0u8..16, 3), 0u8..2), 8..60)
}

/// Labeled continuous rows (distinct values ≈ sample count).
fn continuous_corpus() -> impl Strategy<Value = Vec<(Vec<f64>, u8)>> {
    prop::collection::vec((prop::collection::vec(-10.0f64..10.0, 3), 0u8..2), 40..90)
}

fn split_gridded(corpus: Vec<(Vec<u8>, u8)>) -> (Matrix, Vec<u8>) {
    let mut rows = Vec::with_capacity(corpus.len());
    let mut y = Vec::with_capacity(corpus.len());
    for (row, label) in corpus {
        rows.push(row.into_iter().map(|v| f64::from(v) * 0.25).collect());
        y.push(label);
    }
    (Matrix::from_vec_rows(rows), y)
}

fn split_continuous(corpus: Vec<(Vec<f64>, u8)>) -> (Matrix, Vec<u8>) {
    let mut rows = Vec::with_capacity(corpus.len());
    let mut y = Vec::with_capacity(corpus.len());
    for (row, label) in corpus {
        rows.push(row);
        y.push(label);
    }
    (Matrix::from_vec_rows(rows), y)
}

fn tree_config(split: SplitStrategy) -> DecisionTreeConfig {
    DecisionTreeConfig {
        // Off so the property is about split finding alone, not resampling.
        balance_classes: false,
        split,
        ..DecisionTreeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On few-distinct-value corpora the histogram tree IS the exact tree:
    /// identical probability surfaces over the training set.
    ///
    /// The random forest input grows bagged trees (repeated samples, √d
    /// features) on the same two paths, over the corpus cut to two levels
    /// per feature. A bagged node may lack values its neighbours in the
    /// corpus have; it then splits the same samples on both paths, but at
    /// a different threshold (the exact scan's midpoint between values it
    /// holds, the histogram's bin edge), and out-of-bag rows can fall
    /// between the two. With two levels both thresholds are the one
    /// midpoint.
    #[test]
    fn histogram_tree_equals_exact_oracle_on_gridded_data(corpus in gridded_corpus()) {
        let (x, y) = split_gridded(corpus);
        let mut exact = DecisionTree::with_config(tree_config(SplitStrategy::Exact), 3);
        let mut binned = DecisionTree::with_config(tree_config(SplitStrategy::histogram()), 3);
        exact.fit(&x, &y).unwrap();
        binned.fit(&x, &y).unwrap();
        let pe = exact.predict_proba(&x).unwrap();
        let pb = binned.predict_proba(&x).unwrap();
        for (i, (a, b)) in pe.iter().zip(&pb).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "sample {} diverged: {} vs {}", i, a, b);
        }

        let two_level = Matrix::from_vec_rows(
            x.iter_rows()
                .map(|row| row.iter().map(|&v| f64::from(u8::from(v >= 2.0))).collect())
                .collect(),
        );
        let forest = |split| {
            let base = RandomForestConfig::default();
            let config = RandomForestConfig {
                n_trees: 5,
                tree: DecisionTreeConfig { split, ..base.tree.clone() },
                ..base
            };
            RandomForest::with_config(config, 3)
        };
        let mut exact = forest(SplitStrategy::Exact);
        let mut binned = forest(SplitStrategy::histogram());
        exact.fit(&two_level, &y).unwrap();
        binned.fit(&two_level, &y).unwrap();
        let pe = exact.predict_proba(&two_level).unwrap();
        let pb = binned.predict_proba(&two_level).unwrap();
        for (i, (a, b)) in pe.iter().zip(&pb).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(), "forest sample {} diverged: {} vs {}", i, a, b
            );
        }
    }

    /// Near-agreement through the whole boosted ensemble. Bit-exactness
    /// holds for single classification trees (label sums are small
    /// integers, exact in f64) but not for boosting: stage trees fit
    /// continuous gradients, and the histogram sums them bin-by-bin while
    /// the exact scan sums sample-by-sample, so last-bit rounding can flip
    /// a near-tied split. Empirically the probability gap stays ~1e-2;
    /// this pins that it never grows past noise level.
    #[test]
    fn histogram_boosting_tracks_exact_oracle_on_gridded_data(corpus in gridded_corpus()) {
        let (x, y) = split_gridded(corpus);
        let base = GradientBoostingConfig {
            n_stages: 10,
            early_stopping: EarlyStopping::off(),
            ..GradientBoostingConfig::default()
        };
        let mut exact = GradientBoosting::with_config(
            GradientBoostingConfig { split: SplitStrategy::Exact, ..base.clone() }, 7);
        let mut binned = GradientBoosting::with_config(
            GradientBoostingConfig { split: SplitStrategy::histogram(), ..base }, 7);
        exact.fit(&x, &y).unwrap();
        binned.fit(&x, &y).unwrap();
        let pe = exact.predict_proba(&x).unwrap();
        let pb = binned.predict_proba(&x).unwrap();
        let mut disagreements = 0usize;
        for (i, (a, b)) in pe.iter().zip(&pb).enumerate() {
            prop_assert!(
                (a - b).abs() < 0.1,
                "sample {} probability gap {} vs {}", i, a, b
            );
            disagreements += usize::from((*a > 0.5) != (*b > 0.5));
        }
        let budget = (y.len() / 16).max(1);
        prop_assert!(
            disagreements <= budget,
            "{} hard-label flips on {} samples (budget {})",
            disagreements, y.len(), budget
        );
    }

    /// On continuous corpora (values thinned into bins) the binned model's
    /// training accuracy tracks the exact model within tolerance.
    #[test]
    fn binned_accuracy_within_tolerance_of_exact(corpus in continuous_corpus()) {
        let (x, y) = split_continuous(corpus);
        let base = GradientBoostingConfig {
            n_stages: 15,
            early_stopping: EarlyStopping::off(),
            ..GradientBoostingConfig::default()
        };
        let mut exact = GradientBoosting::with_config(
            GradientBoostingConfig { split: SplitStrategy::Exact, ..base.clone() }, 11);
        // A deliberately tight budget so thinning actually happens.
        let mut binned = GradientBoosting::with_config(
            GradientBoostingConfig {
                split: SplitStrategy::Histogram { max_bins: 32 },
                ..base
            }, 11);
        exact.fit(&x, &y).unwrap();
        binned.fit(&x, &y).unwrap();
        let acc_exact = accuracy(&exact.predict(&x).unwrap(), &y);
        let acc_binned = accuracy(&binned.predict(&x).unwrap(), &y);
        // Random labels make both models memorize; a 32-bin quantization
        // may cost a little resolution but never collapses the fit.
        prop_assert!(
            acc_binned >= acc_exact - 0.15,
            "binned {} vs exact {}", acc_binned, acc_exact
        );
    }
}
