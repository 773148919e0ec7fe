//! Thread-count invariance: the trained model bank, its serialized bytes,
//! its predictions, and its telemetry event stream must be **byte
//! identical** whether training ran on 1, 2, or 8 threads. And at every
//! thread count the flat bank must predict what each output's classifier,
//! fitted alone, predicts.
//!
//! This is the safety proof for the parallel per-output trainer: per-output
//! seeds are derived from the output index (not arrival order), workers
//! place results into index slots, and telemetry events carry only
//! deterministic fields keyed by output ordinal — so nothing observable
//! depends on scheduling.

use aqua_artifact::{Codec, Reader, Writer};
use aqua_ml::{
    Classifier, DecisionTreeConfig, HybridRslConfig, LinearSvm, LinearSvmConfig, Matrix, ModelKind,
    MultiOutputModel, SplitStrategy,
};
use aqua_telemetry::TelemetryHub;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A multi-output corpus with enough samples to keep early stopping active
/// (n ≥ 20) and enough outputs (7) that the 8-thread work queue actually
/// interleaves claim order across runs.
fn corpus(n: usize) -> (Matrix, Vec<Vec<u8>>) {
    let mut rows = Vec::new();
    let mut labels: Vec<Vec<u8>> = vec![Vec::new(); 7];
    for i in 0..n {
        let a = (i as f64 * 0.17).sin();
        let b = (i as f64 * 0.29).cos();
        let c = (i as f64 * 0.07).sin() * (i as f64 * 0.11).cos();
        rows.push(vec![a, b, c]);
        labels[0].push(u8::from(a > 0.0));
        labels[1].push(u8::from(b > 0.0));
        labels[2].push(u8::from(a + b > 0.0));
        labels[3].push(u8::from(c > 0.1));
        labels[4].push(u8::from(a * b > 0.0));
        labels[5].push(u8::from(b - c > 0.2));
        labels[6].push(u8::from(a + c < 0.0));
    }
    (Matrix::from_vec_rows(rows), labels)
}

/// Twelve rows of twenty features and seven outputs: fewer rows than
/// columns, so the SVM families run Pegasos in kernel form.
fn wide_corpus() -> (Matrix, Vec<Vec<u8>>) {
    let mut rows = Vec::new();
    let mut labels: Vec<Vec<u8>> = vec![Vec::new(); 7];
    for i in 0..12 {
        let row: Vec<f64> = (0..20)
            .map(|k| ((i * 20 + k) as f64 * 0.37).sin())
            .collect();
        for (v, y) in labels.iter_mut().enumerate() {
            y.push(u8::from(row[v] + row[v + 7] > 0.0));
        }
        rows.push(row);
    }
    (Matrix::from_vec_rows(rows), labels)
}

/// The SVM families: on [`wide_corpus`] each prepares a kernel matrix.
fn svm_kinds() -> Vec<ModelKind> {
    let kinds = vec![
        ModelKind::svm(),
        ModelKind::hybrid_rsl(),
        ModelKind::HybridRsl {
            config: HybridRslConfig {
                passthrough_features: true,
                ..HybridRslConfig::default()
            },
        },
    ];
    let (x, _) = wide_corpus();
    for kind in &kinds {
        let prep = kind.prepare(&x).expect("prepare");
        assert!(prep.kernel().is_some(), "{}: kernel form", kind.name());
    }
    kinds
}

struct Run {
    bytes: Vec<u8>,
    proba: Vec<Vec<u64>>,
    events: Vec<u8>,
}

/// Trains `kind` at the given thread count under a fresh telemetry hub and
/// captures every observable output of the run.
fn train(kind: ModelKind, x: &Matrix, labels: &[Vec<u8>], threads: usize) -> Run {
    let hub = TelemetryHub::new();
    let model = MultiOutputModel::fit_traced(kind, x, labels, 42, threads, hub.ctx())
        .expect("training succeeds");

    let proba = model
        .predict_proba(x)
        .expect("predict")
        .into_iter()
        .map(|col| col.into_iter().map(f64::to_bits).collect())
        .collect();

    let mut events = Vec::new();
    hub.write_events_jsonl(&mut events).expect("flush events");

    Run {
        bytes: encode(&model),
        proba,
        events,
    }
}

fn encode(bank: &MultiOutputModel) -> Vec<u8> {
    let mut w = Writer::new();
    bank.encode(&mut w);
    w.into_bytes()
}

fn assert_thread_invariant(kind: ModelKind) {
    let (x, labels) = corpus(80);
    assert_thread_invariant_on(kind, &x, &labels);
}

fn assert_thread_invariant_on(kind: ModelKind, x: &Matrix, labels: &[Vec<u8>]) {
    let name = kind.name();
    let reference = train(kind.clone(), x, labels, THREAD_COUNTS[0]);
    assert!(
        !reference.events.is_empty(),
        "{name}: traced training must emit per-output events"
    );
    for threads in &THREAD_COUNTS[1..] {
        let run = train(kind.clone(), x, labels, *threads);
        assert_eq!(
            reference.bytes, run.bytes,
            "{name}: serialized model must be byte-identical at {threads} threads"
        );
        assert_eq!(
            reference.proba, run.proba,
            "{name}: predictions must be bitwise identical at {threads} threads"
        );
        assert_eq!(
            String::from_utf8_lossy(&reference.events),
            String::from_utf8_lossy(&run.events),
            "{name}: flushed event stream must be byte-identical at {threads} threads"
        );
    }
}

/// Gradient boosting with its defaults — histogram splits, shared binned
/// dataset, early stopping. The event stream pins per-output `rounds`
/// fields, so a thread-dependent early-stop decision would fail here even
/// if predictions happened to agree.
#[test]
fn gradient_boosting_is_thread_invariant() {
    assert_thread_invariant(ModelKind::gradient_boosting());
}

/// The paper's winning hybrid model (RF + SVM stack), whose forest trains
/// on the shared binned dataset.
#[test]
fn hybrid_rsl_is_thread_invariant() {
    assert_thread_invariant(ModelKind::hybrid_rsl());
}

/// The Pegasos SVM alone: per-output shuffles seeded from the output
/// index, whichever worker fits the output.
#[test]
fn svm_is_thread_invariant() {
    assert_thread_invariant(ModelKind::svm());
}

/// Both SVM families on a corpus with fewer rows than columns, where every
/// output steps over the one kernel matrix the bank prepared.
#[test]
fn kernel_form_svm_families_are_thread_invariant() {
    let (x, labels) = wide_corpus();
    for kind in svm_kinds() {
        assert_thread_invariant_on(kind, &x, &labels);
    }
}

/// Random forest alone: many trees per output, per-tree seeds derived from
/// the per-output seed.
#[test]
fn random_forest_is_thread_invariant() {
    assert_thread_invariant(ModelKind::random_forest());
}

/// LinearR: every output solves against the one Gram factor the bank
/// shares, whichever worker fits it.
#[test]
fn linear_r_is_thread_invariant() {
    assert_thread_invariant(ModelKind::linear_r());
}

/// Early stopping must settle on the same round count per output no matter
/// the thread count; the count is observable through the `ml.train.output`
/// events (`rounds` field), which the byte comparison above pins. This test
/// makes the property explicit by parsing the events back out.
#[test]
fn early_stop_rounds_are_thread_invariant() {
    let (x, labels) = corpus(80);
    let rounds_at = |threads: usize| -> Vec<String> {
        let run = train(ModelKind::gradient_boosting(), &x, &labels, threads);
        String::from_utf8(run.events)
            .expect("jsonl is utf-8")
            .lines()
            .filter(|l| l.contains("ml.train.output"))
            .map(str::to_string)
            .collect()
    };
    let reference = rounds_at(1);
    assert_eq!(
        reference.len(),
        labels.len(),
        "one ml.train.output event per output"
    );
    assert!(
        reference.iter().all(|l| l.contains("rounds")),
        "events carry the boosting round count"
    );
    assert_eq!(reference, rounds_at(2));
    assert_eq!(reference, rounds_at(8));
}

/// Every family the bank holds, each with its default configuration, plus
/// the exact-scan CART and the HybridRSL whose fusion layer also reads the
/// raw features.
fn every_kind() -> Vec<ModelKind> {
    vec![
        ModelKind::linear_r(),
        ModelKind::logistic_r(),
        ModelKind::gradient_boosting(),
        ModelKind::random_forest(),
        ModelKind::svm(),
        ModelKind::DecisionTree {
            config: DecisionTreeConfig {
                split: SplitStrategy::histogram(),
                ..DecisionTreeConfig::default()
            },
        },
        ModelKind::DecisionTree {
            config: DecisionTreeConfig::default(),
        },
        ModelKind::hybrid_rsl(),
        ModelKind::HybridRsl {
            config: HybridRslConfig {
                passthrough_features: true,
                ..HybridRslConfig::default()
            },
        },
    ]
}

/// The bank against `kind.build(seed + v)` fitted alone from the same
/// prepared state: `predict_proba`, `predict` and `predict_proba_one` are
/// equal bit for bit, at every thread count, and so are those of the bank
/// decoded from its bytes, which encodes back to the same bytes.
#[test]
fn bank_predicts_what_each_output_fitted_alone_predicts() {
    let (x, labels) = corpus(80);
    let (probe, _) = corpus(23);
    assert_bank_matches_lone_fits(every_kind(), &x, &labels, &probe);
}

/// The same for the SVM families in kernel form, on a corpus with fewer
/// rows than columns.
#[test]
fn kernel_form_bank_predicts_what_each_output_fitted_alone_predicts() {
    let (x, labels) = wide_corpus();
    assert_bank_matches_lone_fits(svm_kinds(), &x, &labels, &x);
}

/// The same on rows without features, where every tree is one leaf and
/// every linear part its bias.
#[test]
fn bank_predicts_like_lone_fits_on_rows_without_features() {
    let (_, labels) = corpus(40);
    let mut x = Matrix::with_cols(0);
    for _ in 0..40 {
        x.push_row(&[]);
    }
    let mut probe = Matrix::with_cols(0);
    probe.push_row(&[]);
    assert_bank_matches_lone_fits(every_kind(), &x, &labels, &probe);
}

fn assert_bank_matches_lone_fits(
    kinds: Vec<ModelKind>,
    x: &Matrix,
    labels: &[Vec<u8>],
    probe: &Matrix,
) {
    const SEED: u64 = 42;
    let bits = |p: &[f64]| -> Vec<u64> { p.iter().map(|v| v.to_bits()).collect() };
    for kind in kinds {
        let name = kind.name();
        let prep = kind.prepare(x).expect("prepare");
        let alone: Vec<Box<dyn Classifier>> = labels
            .iter()
            .enumerate()
            .map(|(v, y)| {
                let mut model = kind.build(SEED + v as u64);
                model.fit_prepared(x, y, &prep).expect("fit");
                model
            })
            .collect();
        let proba: Vec<Vec<u64>> = alone
            .iter()
            .map(|m| bits(&m.predict_proba(probe).expect("predict_proba")))
            .collect();
        let hard: Vec<Vec<u8>> = alone
            .iter()
            .map(|m| m.predict(probe).expect("predict"))
            .collect();
        for threads in THREAD_COUNTS {
            let fitted =
                MultiOutputModel::fit(kind.clone(), x, labels, SEED, threads).expect("bank fit");
            let bytes = encode(&fitted);
            let mut r = Reader::new(&bytes);
            let decoded = MultiOutputModel::decode(&mut r).expect("bank decode");
            r.finish().expect("the bank is the whole section");
            assert_eq!(encode(&decoded), bytes, "{name}: re-encode");
            for (bank, how) in [(&fitted, "fitted"), (&decoded, "decoded")] {
                let at = format!("{name}, {how}, at {threads} threads");
                let bank_proba: Vec<Vec<u64>> = bank
                    .predict_proba(probe)
                    .expect("bank predict_proba")
                    .iter()
                    .map(|p| bits(p))
                    .collect();
                assert_eq!(bank_proba, proba, "{at}: predict_proba");
                assert_eq!(
                    bank.predict(probe).expect("bank predict"),
                    hard,
                    "{at}: predict"
                );
                for (i, row) in probe.iter_rows().enumerate() {
                    let one = bank.predict_proba_one(row).expect("bank predict_proba_one");
                    let column: Vec<u64> = proba.iter().map(|p| p[i]).collect();
                    assert_eq!(bits(&one), column, "{at}: row {i}");
                }
            }
        }
    }
}

/// The SVM's hard label is its margin's sign, which disagrees with
/// `p > 0.5` between margin 0 and the margin Platt scaling maps to 0.5.
/// A row inside that band pins the bank to the margin.
#[test]
fn svm_bank_labels_by_margin_where_platt_disagrees() {
    const SEED: u64 = 42;
    let (x, labels) = corpus(80);
    let bank = MultiOutputModel::fit(ModelKind::svm(), &x, &labels, SEED, 2).expect("bank fit");
    let mut pinned = 0;
    for (v, y) in labels.iter().enumerate() {
        let mut svm = LinearSvm::with_config(LinearSvmConfig::default(), SEED + v as u64);
        svm.fit(&x, y).expect("fit");
        let margins = svm.decision_function(&x).expect("margins");
        let (Some(lo), Some(hi)) = (
            (0..x.rows()).find(|&i| margins[i] < 0.0),
            (0..x.rows()).find(|&i| margins[i] > 0.0),
        ) else {
            continue;
        };
        // Platt's 0.5 crossing, from two points of the affine map from a
        // margin to the sigmoid's argument.
        let logit = |m: f64| {
            let p = svm
                .predict_proba(&Matrix::from_rows(&[&row_at_margin(
                    &x, &margins, lo, hi, m,
                )]))
                .expect("proba")[0];
            (p / (1.0 - p)).ln()
        };
        let (l0, l1) = (logit(0.0), logit(1.0));
        if l1 == l0 {
            continue;
        }
        let target = -l0 / (l1 - l0) / 2.0;
        let row = row_at_margin(&x, &margins, lo, hi, target);
        let probe = Matrix::from_rows(&[&row]);
        let m = svm.decision_function(&probe).expect("margin")[0];
        let p = svm.predict_proba(&probe).expect("proba")[0];
        if (m > 0.0) == (p > 0.5) {
            continue;
        }
        let hard = bank.predict(&probe).expect("bank predict");
        assert_eq!(
            hard[v],
            vec![u8::from(m > 0.0)],
            "output {v}: margin {m}, p {p}"
        );
        assert_eq!(
            bank.predict_proba(&probe).expect("bank proba")[v][0].to_bits(),
            p.to_bits()
        );
        pinned += 1;
    }
    assert!(
        pinned > 0,
        "no output has a row where the two rules disagree"
    );
}

/// The point on the segment from row `lo` to row `hi` of `x` whose margin,
/// affine along the segment, is `m`.
fn row_at_margin(x: &Matrix, margins: &[f64], lo: usize, hi: usize, m: f64) -> Vec<f64> {
    let t = (m - margins[lo]) / (margins[hi] - margins[lo]);
    x.row(lo)
        .iter()
        .zip(x.row(hi))
        .map(|(a, b)| a + t * (b - a))
        .collect()
}
