//! The bank decoder faces the outside world: a `model` section comes from
//! an uploaded artifact. Any bytes must decode to a bank or a typed error,
//! never a panic and never an allocation larger than the input, and every
//! bank it returns must encode back to the bytes it came from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_ml::{
    GradientBoostingConfig, HybridRslConfig, LinearSvmConfig, LogisticRegressionConfig, Matrix,
    ModelKind, MultiOutputModel, RandomForestConfig,
};
use proptest::prelude::*;

/// Notes the largest single allocation each thread asks for.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; `note` only updates a
// thread-local `Cell` that needs no allocation.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Decodes `bytes` as a bank; also returns the largest single allocation
/// the decode made.
fn decode(bytes: &[u8]) -> (Result<MultiOutputModel, ArtifactError>, usize) {
    LARGEST.with(|largest| largest.set(0));
    let mut r = Reader::new(bytes);
    let bank = MultiOutputModel::decode(&mut r).and_then(|bank| r.finish().map(|()| bank));
    (bank, LARGEST.with(Cell::get))
}

fn encode(bank: &MultiOutputModel) -> Vec<u8> {
    let mut w = Writer::new();
    bank.encode(&mut w);
    w.into_bytes()
}

fn assert_malformed(bytes: &[u8], case: &str) {
    match decode(bytes).0 {
        Err(ArtifactError::Malformed { .. }) => {}
        other => panic!("{case}: expected Malformed, got {other:?}"),
    }
}

/// A bank of `kind` holding `states`, each behind its length prefix.
fn bank(kind: &ModelKind, states: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Writer::new();
    kind.encode(&mut w);
    w.len_prefix(states.len());
    for state in states {
        w.len_prefix(state.len());
        w.raw(state);
    }
    w.into_bytes()
}

/// A node as the wire carries it.
enum Node {
    Leaf(f64),
    /// Feature, left child, right child.
    Split(u64, u64, u64),
}

const LEAF: Node = Node::Leaf(0.5);

/// A tree's bytes: its nodes, then its feature count.
fn tree(nodes: &[Node], n_features: usize, w: &mut Writer) {
    w.len_prefix(nodes.len());
    for node in nodes {
        match *node {
            Node::Leaf(value) => {
                w.u8(0);
                w.f64(value);
            }
            Node::Split(feature, left, right) => {
                w.u8(1);
                w.u64(feature);
                w.f64(0.25);
                w.u64(left);
                w.u64(right);
            }
        }
    }
    w.len_prefix(n_features);
}

/// A default random forest's state over two features: `config`, a seed,
/// `trees`, then the fitted feature count.
fn forest_with(config: &RandomForestConfig, trees: &[&[Node]], fitted: Option<usize>) -> Vec<u8> {
    let mut w = Writer::new();
    config.encode(&mut w);
    w.u64(7);
    w.len_prefix(trees.len());
    for nodes in trees {
        tree(nodes, 2, &mut w);
    }
    fitted.encode(&mut w);
    w.into_bytes()
}

fn forest(trees: &[&[Node]]) -> Vec<u8> {
    forest_with(&RandomForestConfig::default(), trees, Some(2))
}

fn forest_bank(states: &[Vec<u8>]) -> Vec<u8> {
    bank(&ModelKind::random_forest(), states)
}

const SPLIT_TREE: &[Node] = &[Node::Split(1, 1, 2), LEAF, LEAF];

#[test]
fn a_hand_built_forest_decodes_and_encodes_back() {
    let bytes = forest_bank(&[forest(&[SPLIT_TREE, &[LEAF]]), forest(&[SPLIT_TREE])]);
    let (bank, _) = decode(&bytes);
    let bank = bank.expect("a well-formed forest bank");
    assert_eq!(bank.outputs(), 2);
    assert_eq!(encode(&bank), bytes);
    let p = bank.predict_proba_one(&[0.0, 0.0]).expect("predict");
    assert_eq!(p, vec![0.5, 0.5]);
}

#[test]
fn a_split_whose_left_child_is_not_the_next_node_is_refused() {
    // Its own child: predict would walk node 0 forever.
    let own = [Node::Split(0, 0, 1), LEAF];
    // A left child past the right one: not pre-order.
    let skipping = [Node::Split(0, 2, 1), LEAF, LEAF];
    // A well-placed right child beside a left one that names another
    // node: only the left check refuses it.
    let elsewhere = [Node::Split(0, 5, 2), LEAF, LEAF];
    for (case, nodes) in [
        ("own child", &own[..]),
        ("skips", &skipping[..]),
        ("elsewhere", &elsewhere[..]),
    ] {
        assert_malformed(&forest_bank(&[forest(&[nodes])]), case);
    }
}

#[test]
fn a_right_child_out_of_place_is_refused() {
    let cases: [(&str, &[Node]); 5] = [
        ("outside the tree", &[Node::Split(0, 1, 3), LEAF, LEAF]),
        // The last leaf closes the subtree of a right child one past the
        // end: only the range check refuses it.
        (
            "one past the last node",
            &[Node::Split(0, 1, 2), LEAF, Node::Split(0, 3, 4), LEAF],
        ),
        ("itself", &[Node::Split(0, 1, 0), LEAF, LEAF]),
        (
            "inside the left subtree",
            &[Node::Split(0, 1, 1), LEAF, LEAF],
        ),
        (
            "a split that ends the tree",
            &[Node::Split(0, 1, 2), LEAF, Node::Split(0, 3, 2)],
        ),
    ];
    for (case, nodes) in cases {
        assert_malformed(&forest_bank(&[forest(&[nodes])]), case);
    }
    // Unreachable nodes after the root's subtree.
    assert_malformed(
        &forest_bank(&[forest(&[&[LEAF, LEAF, LEAF]])]),
        "trailing nodes",
    );
}

#[test]
fn a_feature_or_child_index_beyond_u32_is_refused() {
    let cases: [(&str, &[Node]); 3] = [
        ("feature 2^32", &[Node::Split(1 << 32, 1, 2), LEAF, LEAF]),
        (
            "feature u32::MAX",
            &[Node::Split(u32::MAX.into(), 1, 2), LEAF, LEAF],
        ),
        (
            "right child 2^32 + 2",
            &[Node::Split(0, 1, (1 << 32) + 2), LEAF, LEAF],
        ),
    ];
    for (case, nodes) in cases {
        assert_malformed(&forest_bank(&[forest(&[nodes])]), case);
    }
}

#[test]
fn a_split_feature_outside_the_tree_is_refused() {
    // Predict would index row[7] of a 2-feature row.
    let nodes = [Node::Split(7, 1, 2), LEAF, LEAF];
    assert_malformed(&forest_bank(&[forest(&[&nodes])]), "feature 7 of 2");
}

#[test]
fn a_tree_without_nodes_is_refused() {
    assert_malformed(&forest_bank(&[forest(&[&[]])]), "no nodes");
}

#[test]
fn an_output_whose_config_differs_from_the_kind_is_refused() {
    let seven = RandomForestConfig {
        n_trees: 7,
        ..RandomForestConfig::default()
    };
    let odd = forest_with(&seven, &[SPLIT_TREE], Some(2));
    assert_malformed(&forest_bank(&[forest(&[SPLIT_TREE]), odd]), "forest config");
    // A LinearR output carries the ridge `ModelKind::build` gives it.
    let mut ridge = Writer::new();
    ridge.f64(0.5);
    Some(vec![0.1, 0.2, 0.3]).encode(&mut ridge);
    assert_malformed(&bank(&ModelKind::LinearR, &[ridge.into_bytes()]), "ridge");
}

#[test]
fn an_unfitted_output_is_refused() {
    assert_malformed(
        &forest_bank(&[forest_with(&RandomForestConfig::default(), &[], None)]),
        "forest",
    );
    let mut linear = Writer::new();
    linear.f64(0.0);
    None::<Vec<f64>>.encode(&mut linear);
    assert_malformed(
        &bank(&ModelKind::LinearR, &[linear.into_bytes()]),
        "LinearR",
    );
    let mut logistic = Writer::new();
    LogisticRegressionConfig::default().encode(&mut logistic);
    None::<Vec<f64>>.encode(&mut logistic);
    assert_malformed(
        &bank(&ModelKind::logistic_r(), &[logistic.into_bytes()]),
        "LogisticR",
    );
    let hybrid = hybrid_state(2, 2, false);
    assert_malformed(&bank(&ModelKind::hybrid_rsl(), &[hybrid]), "HybridRSL");
}

#[test]
fn fitted_linear_parts_without_a_bias_are_refused() {
    let mut linear = Writer::new();
    linear.f64(0.0);
    Some(Vec::<f64>::new()).encode(&mut linear);
    assert_malformed(
        &bank(&ModelKind::LinearR, &[linear.into_bytes()]),
        "LinearR",
    );
    let mut logistic = Writer::new();
    LogisticRegressionConfig::default().encode(&mut logistic);
    Some(Vec::<f64>::new()).encode(&mut logistic);
    assert_malformed(
        &bank(&ModelKind::logistic_r(), &[logistic.into_bytes()]),
        "LogisticR",
    );
    assert_malformed(&bank(&ModelKind::svm(), &[svm_state(Vec::new())]), "SVM");
}

#[test]
fn bias_only_linear_parts_decode_predict_and_encode_back() {
    // A model over no features keeps only its bias, which sets every
    // probability and label it gives.
    let mut linear = Writer::new();
    linear.f64(0.0);
    Some(vec![0.75]).encode(&mut linear);
    let mut logistic = Writer::new();
    LogisticRegressionConfig::default().encode(&mut logistic);
    Some(vec![0.0]).encode(&mut logistic);
    // Platt `(1, 0)` takes margin -0.25 to the sigmoid of -0.25.
    let svm = svm_state(vec![-0.25]);
    let e = (-0.25f64).exp();
    let no_features = Matrix::from_rows(&[&[]]);
    for (kind, state, p, label) in [
        (ModelKind::LinearR, linear.into_bytes(), 0.75, 1),
        (ModelKind::logistic_r(), logistic.into_bytes(), 0.5, 0),
        (ModelKind::svm(), svm, e / (1.0 + e), 0),
    ] {
        let name = kind.name();
        let bytes = bank(&kind, &[state.clone(), state]);
        let bank = decode(&bytes).0.unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(bank.predict_proba_one(&[]), Ok(vec![p, p]), "{name}");
        assert_eq!(
            bank.predict(&no_features),
            Ok(vec![vec![label], vec![label]]),
            "{name}"
        );
        assert_eq!(encode(&bank), bytes, "{name}");
    }
}

/// An SVM output's state with `weights` and Platt scaling `(1, 0)`.
fn svm_state(weights: Vec<f64>) -> Vec<u8> {
    let mut w = Writer::new();
    LinearSvmConfig::default().encode(&mut w);
    w.u64(3);
    Some(weights).encode(&mut w);
    (1.0f64, 0.0f64).encode(&mut w);
    w.into_bytes()
}

/// A default HybridRSL output's state: a stump over `n_features`
/// features, SVM weights over `svm_features`, fusion weights, and its
/// fitted flag.
fn hybrid_state(n_features: usize, svm_features: usize, fitted: bool) -> Vec<u8> {
    let config = HybridRslConfig::default();
    let mut w = Writer::new();
    config.encode(&mut w);
    config.forest.encode(&mut w);
    w.u64(1);
    w.len_prefix(1);
    tree(&[Node::Split(0, 1, 2), LEAF, LEAF], n_features, &mut w);
    Some(n_features).encode(&mut w);
    config.svm.encode(&mut w);
    w.u64(2);
    Some(vec![0.5; svm_features + 1]).encode(&mut w);
    (1.0f64, 0.0f64).encode(&mut w);
    config.fusion.encode(&mut w);
    Some(vec![1.0, 1.0, -1.0]).encode(&mut w);
    w.bool(fitted);
    w.into_bytes()
}

#[test]
fn parts_over_different_feature_counts_are_refused() {
    // A tree over 9 features in a forest over 2.
    let mut wide = Writer::new();
    RandomForestConfig::default().encode(&mut wide);
    wide.u64(7);
    wide.len_prefix(1);
    tree(SPLIT_TREE, 9, &mut wide);
    Some(2usize).encode(&mut wide);
    assert_malformed(
        &forest_bank(&[wide.into_bytes()]),
        "tree wider than its forest",
    );
    // A boosting stage over 3 features in a model over 1.
    let mut stage = Writer::new();
    GradientBoostingConfig::default().encode(&mut stage);
    stage.u64(0);
    stage.f64(-1.0);
    stage.len_prefix(1);
    tree(&[Node::Split(2, 1, 2), LEAF, LEAF], 3, &mut stage);
    Some(1usize).encode(&mut stage);
    assert_malformed(
        &bank(&ModelKind::gradient_boosting(), &[stage.into_bytes()]),
        "stage wider than its model",
    );
    // Two outputs over different feature counts.
    assert_malformed(
        &bank(
            &ModelKind::svm(),
            &[svm_state(vec![0.1; 3]), svm_state(vec![0.1; 4])],
        ),
        "outputs over 2 and 3 features",
    );
    let hybrid = ModelKind::hybrid_rsl();
    let ok = bank(&hybrid, &[hybrid_state(2, 2, true)]);
    assert!(decode(&ok).0.is_ok(), "the hand-built stack decodes");
    let two_widths = [hybrid_state(2, 2, true), hybrid_state(3, 3, true)];
    assert_malformed(&bank(&hybrid, &two_widths), "stacks over 2 and 3 features");
    // One stack whose SVM reads another width than its forest.
    assert_malformed(
        &bank(&hybrid, &[hybrid_state(2, 3, true)]),
        "SVM wider than its forest",
    );
}

#[test]
fn a_node_count_past_the_end_of_the_section_is_refused() {
    let mut w = Writer::new();
    RandomForestConfig::default().encode(&mut w);
    w.u64(7);
    w.len_prefix(1);
    w.u64(u64::MAX / 4); // nodes
    w.u8(0);
    w.f64(0.5);
    w.len_prefix(2);
    Some(2usize).encode(&mut w);
    let bytes = forest_bank(&[w.into_bytes()]);
    let (bank, largest) = decode(&bytes);
    assert!(
        matches!(bank, Err(ArtifactError::Malformed { .. })),
        "{bank:?}"
    );
    assert!(
        largest <= bytes.len(),
        "allocated {largest} for {} bytes",
        bytes.len()
    );
}

/// Rows and labels a small bank trains on: two features, two outputs.
fn small_corpus() -> (Matrix, Vec<Vec<u8>>) {
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()])
        .collect();
    let labels = vec![
        rows.iter().map(|r| u8::from(r[0] > 0.1)).collect(),
        rows.iter().map(|r| u8::from(r[0] + r[1] > 0.3)).collect(),
    ];
    (Matrix::from_vec_rows(rows), labels)
}

fn small_bank(kind: ModelKind) -> Vec<u8> {
    let (x, labels) = small_corpus();
    encode(&MultiOutputModel::fit(kind, &x, &labels, 5, 1).expect("fit"))
}

fn small_hybrid() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut config = HybridRslConfig::default();
        config.forest.n_trees = 3;
        config.forest.tree.max_depth = 3;
        config.svm.epochs = 2;
        config.svm.platt_iterations = 5;
        small_bank(ModelKind::HybridRsl { config })
    })
}

fn small_boosting() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        small_bank(ModelKind::GradientBoosting {
            config: GradientBoostingConfig {
                n_stages: 3,
                max_depth: 2,
                ..GradientBoostingConfig::default()
            },
        })
    })
}

/// Decodes a damaged copy of `bytes`; a bank that comes back must encode
/// to that copy, and no allocation may outgrow it.
fn check_damaged(bytes: &[u8]) {
    let (bank, largest) = decode(bytes);
    prop_assert!(
        largest <= bytes.len(),
        "allocated {} for {} bytes",
        largest,
        bytes.len()
    );
    if let Ok(bank) = bank {
        prop_assert!(
            encode(&bank) == bytes,
            "a decoded bank re-encodes differently"
        );
    }
}

#[test]
fn the_small_banks_round_trip_within_their_size() {
    for bytes in [small_hybrid(), small_boosting()] {
        let (bank, largest) = decode(bytes);
        assert_eq!(encode(&bank.expect("decode")), bytes);
        assert!(
            largest <= bytes.len(),
            "allocated {largest} for {} bytes",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Truncations and byte flips of a small HybridRSL bank and a small GB
    /// bank decode to a bank or a typed error.
    #[test]
    fn damaged_banks_decode_to_a_bank_or_a_typed_error(
        hybrid in 0u8..2,
        at in 0usize..usize::MAX,
        keep in 0usize..usize::MAX,
        flip in 1u8..=255,
        truncate in 0u8..4,
    ) {
        let mut bytes = if hybrid == 1 { small_hybrid() } else { small_boosting() }.to_vec();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        if truncate == 0 {
            bytes.truncate(keep % bytes.len());
        }
        check_damaged(&bytes);
    }
}
