//! Multi-output classification: one binary classifier per candidate leak
//! node.
//!
//! "Due to the mutual independence of labels, the problem is then
//! transformed to multiple binary classifications where a binary classifier
//! is trained for each node independently" (Sec. III-B). Training is
//! parallelized across outputs by [`par_map_indexed`]; results land in
//! per-output slots, so the trained bank — and its serialized bytes — is
//! **identical for any thread count** (the same map `DatasetBuilder` uses,
//! tested at {1, 2, 8} threads in `crates/ml/tests/determinism.rs`).
//!
//! Whatever the outputs share is built **once** per corpus by
//! [`ModelKind::prepare`] and read by every per-output fit: the
//! [`BinnedDataset`](crate::BinnedDataset) of histogram families (span
//! `ml.train.bin`) or LinearR's factored ridge Gram matrix (span
//! `ml.train.factor`).

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_telemetry::{TelemetryCtx, Value};

use crate::classifier::{Classifier, ModelKind};
use crate::error::MlError;
use crate::matrix::Matrix;
use crate::work::par_map_indexed;

/// A bank of per-output binary classifiers sharing one feature matrix —
/// the paper's profile model `f = {f_v : v ∈ V}` (Algorithm 1).
pub struct MultiOutputModel {
    kind: ModelKind,
    models: Vec<Box<dyn Classifier>>,
}

impl std::fmt::Debug for MultiOutputModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiOutputModel")
            .field("kind", &self.kind.name())
            .field("outputs", &self.models.len())
            .finish()
    }
}

impl MultiOutputModel {
    /// Trains one classifier of `kind` per output (Algorithm 1: `for v in V
    /// do f_v.fit(...)`).
    ///
    /// `labels[v]` is the 0/1 label vector of output `v` over all samples.
    /// `threads` caps the training parallelism (1 = sequential).
    ///
    /// # Errors
    ///
    /// The error of [`ModelKind::prepare`] on `x`, else the first
    /// per-output fit error.
    pub fn fit(
        kind: ModelKind,
        x: &Matrix,
        labels: &[Vec<u8>],
        seed: u64,
        threads: usize,
    ) -> Result<Self, MlError> {
        Self::fit_traced(kind, x, labels, seed, threads, TelemetryCtx::none())
    }

    /// [`fit`](Self::fit) with telemetry: wraps training in an `ml.train`
    /// span and records per-output fit time (`ml.train.fit_s` histogram),
    /// output count (`ml.train.outputs`) and — for boosted families —
    /// total boosting rounds (`ml.train.boosting_rounds`). With
    /// [`TelemetryCtx::none`] this *is* `fit`.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](Self::fit).
    pub fn fit_traced(
        kind: ModelKind,
        x: &Matrix,
        labels: &[Vec<u8>],
        seed: u64,
        threads: usize,
        tel: TelemetryCtx<'_>,
    ) -> Result<Self, MlError> {
        if labels.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        for y in labels {
            if y.len() != x.rows() {
                return Err(MlError::DimensionMismatch {
                    samples: x.rows(),
                    labels: y.len(),
                });
            }
        }
        let span = tel.span("ml.train");
        let tel = span.ctx();
        let n_out = labels.len();

        // The label-independent state is paid for once per corpus, not
        // once per output.
        let prep = kind.prepare_traced(x, tel)?;

        // Each output's fit, with its seconds when telemetry is live (the
        // disabled path never touches the clock). A worker claims the next
        // untrained output, so an expensive output never serializes a
        // whole chunk behind it. Every output's result depends only on its
        // index (seed derivation included), and the per-output event
        // carries only deterministic fields (index, boosting rounds) keyed
        // by that index, so the bank and the flushed JSONL stream are
        // identical for any thread count.
        let fitted = par_map_indexed(
            n_out,
            threads,
            || (),
            |(), v| {
                let t0 = tel.now_ns();
                let mut model = kind.build(seed.wrapping_add(v as u64));
                let fitted = model.fit_prepared(x, &labels[v], &prep).map(|()| model);
                let secs = t0
                    .zip(tel.now_ns())
                    .map(|(t0, t1)| t1.saturating_sub(t0) as f64 / 1e9);
                if tel.enabled() {
                    if let Ok(model) = &fitted {
                        tel.emit(
                            v as u64,
                            "ml.train.output",
                            &[
                                ("output", Value::from(v)),
                                ("rounds", Value::from(model.boosting_rounds().unwrap_or(0))),
                            ],
                        );
                    }
                }
                (fitted, secs)
            },
        );
        let durs: Vec<f64> = fitted.iter().filter_map(|&(_, secs)| secs).collect();
        tel.observe_many("ml.train.fit_s", &durs);
        let models = fitted
            .into_iter()
            .map(|(fitted, _)| fitted)
            .collect::<Result<Vec<_>, _>>()?;
        if tel.enabled() {
            tel.add("ml.train.outputs", n_out as u64);
            let rounds: u64 = models
                .iter()
                .filter_map(|m| m.boosting_rounds())
                .map(|r| r as u64)
                .sum();
            if rounds > 0 {
                tel.add("ml.train.boosting_rounds", rounds);
            }
        }
        Ok(MultiOutputModel { kind, models })
    }

    /// The model family used for every output.
    pub fn kind(&self) -> &ModelKind {
        &self.kind
    }

    /// Number of outputs (candidate leak nodes).
    pub fn outputs(&self) -> usize {
        self.models.len()
    }

    /// Per-output positive-class probabilities: `result[v][sample]`
    /// (Algorithm 2's `predict_proba`).
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>, MlError> {
        self.models.iter().map(|m| m.predict_proba(x)).collect()
    }

    /// Per-output hard predictions: `result[v][sample]` (Algorithm 2's
    /// `predict`).
    pub fn predict(&self, x: &Matrix) -> Result<Vec<Vec<u8>>, MlError> {
        self.models.iter().map(|m| m.predict(x)).collect()
    }

    /// Probabilities for a single sample across all outputs — the leak
    /// probability vector `P = {p_v(1)}` Algorithm 2 manipulates.
    pub fn predict_proba_one(&self, features: &[f64]) -> Result<Vec<f64>, MlError> {
        let mut x = Matrix::with_cols(features.len());
        x.push_row(features);
        let per_output = self.predict_proba(&x)?;
        Ok(per_output.into_iter().map(|v| v[0]).collect())
    }
}

impl Codec for MultiOutputModel {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        w.len_prefix(self.models.len());
        for model in &self.models {
            // Length-prefix each model so a short state cannot bleed into
            // its neighbour on decode.
            let mut body = Writer::new();
            model.encode_state(&mut body);
            w.len_prefix(body.len());
            w.raw(&body.into_bytes());
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let kind = ModelKind::decode(r)?;
        let count = r.len_prefix(1)?;
        let mut models = Vec::with_capacity(count);
        for _ in 0..count {
            let len = r.len_prefix(1)?;
            let mut body = Reader::new(r.take(len)?);
            models.push(kind.decode_classifier(&mut body)?);
            body.finish()?;
        }
        Ok(MultiOutputModel { kind, models })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three outputs keyed to simple feature rules.
    fn data(n: usize) -> (Matrix, Vec<Vec<u8>>) {
        let mut rows = Vec::new();
        let mut y0 = Vec::new();
        let mut y1 = Vec::new();
        let mut y2 = Vec::new();
        for i in 0..n {
            let a = (i as f64 * 0.17).sin();
            let b = (i as f64 * 0.29).cos();
            rows.push(vec![a, b]);
            y0.push(u8::from(a > 0.0));
            y1.push(u8::from(b > 0.0));
            y2.push(u8::from(a + b > 0.0));
        }
        (Matrix::from_vec_rows(rows), vec![y0, y1, y2])
    }

    #[test]
    fn fits_one_model_per_output() {
        let (x, labels) = data(200);
        let model = MultiOutputModel::fit(ModelKind::logistic_r(), &x, &labels, 0, 1).unwrap();
        assert_eq!(model.outputs(), 3);
        let preds = model.predict(&x).unwrap();
        for (v, y) in labels.iter().enumerate() {
            let acc =
                preds[v].iter().zip(y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
            assert!(acc > 0.95, "output {v} accuracy {acc}");
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (x, labels) = data(150);
        let seq = MultiOutputModel::fit(ModelKind::random_forest(), &x, &labels, 7, 1).unwrap();
        let par = MultiOutputModel::fit(ModelKind::random_forest(), &x, &labels, 7, 4).unwrap();
        assert_eq!(
            seq.predict_proba(&x).unwrap(),
            par.predict_proba(&x).unwrap()
        );
    }

    #[test]
    fn predict_proba_one_matches_batch() {
        let (x, labels) = data(100);
        let model = MultiOutputModel::fit(ModelKind::logistic_r(), &x, &labels, 0, 2).unwrap();
        let batch = model.predict_proba(&x).unwrap();
        let single = model.predict_proba_one(x.row(5)).unwrap();
        for v in 0..3 {
            assert!((batch[v][5] - single[v]).abs() < 1e-12);
        }
    }

    #[test]
    fn traced_fit_records_training_metrics() {
        let (x, labels) = data(120);
        let hub = aqua_telemetry::TelemetryHub::new();
        let model = MultiOutputModel::fit_traced(
            ModelKind::gradient_boosting(),
            &x,
            &labels,
            3,
            2,
            hub.ctx(),
        )
        .unwrap();
        let snap = hub.metrics_snapshot();
        assert_eq!(snap.counter("ml.train.outputs"), 3);
        assert_eq!(snap.histogram("ml.train.fit_s").unwrap().count, 3);
        let rounds: u64 = model
            .models
            .iter()
            .filter_map(|m| m.boosting_rounds())
            .map(|r| r as u64)
            .sum();
        assert!(rounds > 0);
        assert_eq!(snap.counter("ml.train.boosting_rounds"), rounds);
        assert_eq!(hub.span_tree()[0].name, "ml.train");
    }

    #[test]
    fn each_family_prepares_once_under_its_own_span() {
        let (x, labels) = data(60);
        for (kind, spans) in [
            (ModelKind::linear_r(), vec!["ml.train.factor"]),
            (ModelKind::random_forest(), vec!["ml.train.bin"]),
            (ModelKind::logistic_r(), vec![]),
        ] {
            let hub = aqua_telemetry::TelemetryHub::new();
            MultiOutputModel::fit_traced(kind, &x, &labels, 3, 2, hub.ctx()).unwrap();
            let tree = hub.span_tree();
            let children: Vec<&str> = tree[0].children.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(children, spans);
        }
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let (x, mut labels) = data(50);
        labels[1].pop();
        assert!(matches!(
            MultiOutputModel::fit(ModelKind::logistic_r(), &x, &labels, 0, 1),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_outputs_rejected() {
        let (x, _) = data(10);
        assert!(matches!(
            MultiOutputModel::fit(ModelKind::logistic_r(), &x, &[], 0, 1),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn every_model_family_round_trips_bitwise_through_the_codec() {
        let (x, labels) = data(80);
        for kind in [
            ModelKind::linear_r(),
            ModelKind::logistic_r(),
            ModelKind::gradient_boosting(),
            ModelKind::random_forest(),
            ModelKind::svm(),
            ModelKind::DecisionTree {
                config: crate::DecisionTreeConfig::default(),
            },
            ModelKind::hybrid_rsl(),
        ] {
            let name = kind.name();
            let model = MultiOutputModel::fit(kind, &x, &labels, 11, 2).unwrap();
            let mut w = Writer::new();
            model.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = MultiOutputModel::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.kind(), model.kind(), "{name}");
            assert_eq!(back.outputs(), model.outputs(), "{name}");
            let orig = model.predict_proba(&x).unwrap();
            let loaded = back.predict_proba(&x).unwrap();
            for (a, b) in orig.iter().flatten().zip(loaded.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name} probabilities drifted");
            }
            // Re-encoding the decoded model reproduces the exact bytes:
            // encode is a pure function of model state.
            let mut w2 = Writer::new();
            back.encode(&mut w2);
            assert_eq!(w2.into_bytes(), bytes, "{name} re-encode differs");
        }
    }
}
