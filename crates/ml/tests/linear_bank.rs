//! LinearR banks factor the ridge Gram matrix once per corpus. These tests
//! hold that to the per-output normal equations it replaced: the same
//! bytes for every output, and `MlError::Diverged` exactly where every
//! per-output fit diverges.

use aqua_artifact::{Codec, Writer};
use aqua_ml::{
    Classifier, LinearRegressionClassifier, Matrix, MlError, ModelKind, MultiOutputModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-output normal equations as one LinearR fit solved them before the
/// factor was shared: build `[X 1]ᵀ[X 1] + λI` and `[X 1]ᵀy` in one pass,
/// factor, and substitute forward and back. `None` on a non-positive or
/// non-finite pivot.
fn oracle_weights(x: &Matrix, y: &[u8]) -> Option<Vec<f64>> {
    let d = x.cols() + 1;
    let ridge = 1e-6;
    let mut xtx = vec![0.0f64; d * d];
    let mut xty = vec![0.0f64; d];
    for (row, &yi) in x.iter_rows().zip(y) {
        let yi = yi as f64;
        for a in 0..d {
            let xa = if a < x.cols() { row[a] } else { 1.0 };
            xty[a] += xa * yi;
            for b in a..d {
                let xb = if b < x.cols() { row[b] } else { 1.0 };
                xtx[a * d + b] += xa * xb;
            }
        }
    }
    for a in 0..d {
        for b in 0..a {
            xtx[a * d + b] = xtx[b * d + a];
        }
        xtx[a * d + a] += ridge;
    }
    let mut l = vec![0.0f64; d * d];
    for i in 0..d {
        for j in 0..=i {
            let mut sum = xtx[i * d + j];
            for k in 0..j {
                sum -= l[i * d + k] * l[j * d + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[i * d + i] = sum.sqrt();
            } else {
                l[i * d + j] = sum / l[j * d + j];
            }
        }
    }
    let mut z = vec![0.0f64; d];
    for i in 0..d {
        let mut sum = xty[i];
        for k in 0..i {
            sum -= l[i * d + k] * z[k];
        }
        z[i] = sum / l[i * d + i];
    }
    let mut w = vec![0.0f64; d];
    for i in (0..d).rev() {
        let mut sum = z[i];
        for k in i + 1..d {
            sum -= l[k * d + i] * w[k];
        }
        w[i] = sum / l[i * d + i];
    }
    Some(w)
}

/// One default LinearR model's state bytes with the oracle's weights.
fn oracle_state(x: &Matrix, y: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.f64(LinearRegressionClassifier::default().ridge);
    Some(oracle_weights(x, y).expect("SPD Gram")).encode(&mut w);
    w.into_bytes()
}

/// The serialized bank the oracle predicts: kind, output count, then each
/// output's length-prefixed state.
fn oracle_bank(x: &Matrix, labels: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Writer::new();
    ModelKind::LinearR.encode(&mut w);
    w.len_prefix(labels.len());
    for y in labels {
        let state = oracle_state(x, y);
        w.len_prefix(state.len());
        w.raw(&state);
    }
    w.into_bytes()
}

/// `n × cols` uniform features; the columns in `constant` hold one value.
fn random_matrix(rng: &mut StdRng, n: usize, cols: usize, constant: &[usize]) -> Matrix {
    let rows = (0..n)
        .map(|_| {
            (0..cols)
                .map(|c| {
                    if constant.contains(&c) {
                        2.5
                    } else {
                        rng.random_range(-3.0..3.0)
                    }
                })
                .collect()
        })
        .collect();
    Matrix::from_vec_rows(rows)
}

/// Sparse random labels plus the two single-class outputs.
fn random_labels(rng: &mut StdRng, n: usize, outputs: usize) -> Vec<Vec<u8>> {
    let mut labels: Vec<Vec<u8>> = (0..outputs)
        .map(|_| {
            (0..n)
                .map(|_| u8::from(rng.random_range(0.0..1.0) < 0.2))
                .collect()
        })
        .collect();
    labels.push(vec![0; n]);
    labels.push(vec![1; n]);
    labels
}

#[test]
fn bank_equals_per_output_normal_equations_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x11AE);
    // (samples, features, constant columns): d < n, d > n, constant columns.
    for (n, cols, constant) in [
        (40, 6, vec![]),
        (12, 30, vec![]),
        (30, 8, vec![2, 5]),
        (9, 20, vec![0, 19]),
    ] {
        let x = random_matrix(&mut rng, n, cols, &constant);
        let labels = random_labels(&mut rng, n, 5);
        let expected = oracle_bank(&x, &labels);
        for threads in [1, 2] {
            let bank = MultiOutputModel::fit(ModelKind::LinearR, &x, &labels, 3, threads)
                .expect("SPD Gram");
            let mut w = Writer::new();
            bank.encode(&mut w);
            assert!(
                w.into_bytes() == expected,
                "{n}×{cols} (constant {constant:?}), {threads} threads: bank differs from the oracle"
            );
        }
        // A lone fit takes the same path.
        let bits = |w: &[f64]| -> Vec<u64> { w.iter().map(|v| v.to_bits()).collect() };
        for y in &labels {
            let mut clf = LinearRegressionClassifier::default();
            clf.fit(&x, y).expect("SPD Gram");
            assert!(
                clf.weights().map(bits) == oracle_weights(&x, y).as_deref().map(bits),
                "{n}×{cols}: lone fit differs"
            );
        }
    }
}

/// Every per-output fit diverges on `x`, and so does the bank.
fn assert_bank_diverges(x: &Matrix) {
    let labels = vec![vec![0, 1, 0, 1], vec![1, 1, 0, 0]];
    for y in &labels {
        assert!(oracle_weights(x, y).is_none());
        assert_eq!(
            LinearRegressionClassifier::default().fit(x, y),
            Err(MlError::Diverged)
        );
    }
    assert!(matches!(
        MultiOutputModel::fit(ModelKind::LinearR, x, &labels, 0, 2),
        Err(MlError::Diverged)
    ));
    assert!(matches!(
        ModelKind::LinearR.prepare(x),
        Err(MlError::Diverged)
    ));
}

#[test]
fn nan_gram_diverges_like_every_per_output_fit() {
    let x = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[3.0, f64::NAN], &[2.0, 1.0]]);
    assert_bank_diverges(&x);
}

#[test]
fn non_spd_gram_diverges_like_every_per_output_fit() {
    // Two equal columns with Σx² = 2⁴⁰: the ridge (1e-6) is below half an
    // ulp of 2⁴⁰, so the second pivot is 2⁴⁰ − (2⁴⁰/2²⁰)² = 0 exactly.
    let v = 524_288.0; // 2¹⁹
    let x = Matrix::from_rows(&[&[v, v], &[v, v], &[v, v], &[v, v]]);
    assert_bank_diverges(&x);
}
