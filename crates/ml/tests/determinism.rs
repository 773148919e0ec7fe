//! Thread-count invariance: the trained model bank, its serialized bytes,
//! its predictions, and its telemetry event stream must be **byte
//! identical** whether training ran on 1, 2, or 8 threads.
//!
//! This is the safety proof for the parallel per-output trainer: per-output
//! seeds are derived from the output index (not arrival order), workers
//! place results into index slots, and telemetry events carry only
//! deterministic fields keyed by output ordinal — so nothing observable
//! depends on scheduling.

use aqua_artifact::{Codec, Writer};
use aqua_ml::{Matrix, ModelKind, MultiOutputModel};
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

    let mut w = Writer::new();
    model.encode(&mut w);

    let proba = model
        .predict_proba(x)
        .expect("predict")
        .into_iter()
        .map(|col| col.into_iter().map(f64::to_bits).collect())
        .collect();

    let mut events = Vec::new();
    hub.write_events_jsonl(&mut events).expect("flush events");

    Run {
        bytes: w.into_bytes(),
        proba,
        events,
    }
}

fn assert_thread_invariant(kind: ModelKind) {
    let (x, labels) = corpus(80);
    let name = kind.name();
    let reference = train(kind.clone(), &x, &labels, THREAD_COUNTS[0]);
    assert!(
        !reference.events.is_empty(),
        "{name}: traced training must emit per-output events"
    );
    for threads in &THREAD_COUNTS[1..] {
        let run = train(kind.clone(), &x, &labels, *threads);
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
