//! Multi-output classification: one binary classifier per candidate leak
//! node, held as one flat bank.
//!
//! "Due to the mutual independence of labels, the problem is then
//! transformed to multiple binary classifications where a binary classifier
//! is trained for each node independently" (Sec. III-B). Training is
//! parallelized across blocks of four consecutive outputs by
//! [`par_map_indexed`]; results land in per-block slots, so the trained
//! bank — and its serialized bytes — is **identical for any thread count**
//! (the same map `DatasetBuilder` uses, tested at {1, 2, 8} threads in
//! `crates/ml/tests/determinism.rs`). A block is fitted by
//! [`ModelKind::fit_block`], where the SVM families step the block's
//! Pegasos fits together, and moves into the bank's arrays as the blocks
//! are collected.
//!
//! Whatever the outputs share is built **once** per corpus by
//! [`ModelKind::prepare`] and read by every per-output fit: the
//! [`BinnedDataset`](crate::BinnedDataset) of histogram families (span
//! `ml.train.bin`) or LinearR's factored ridge Gram matrix (span
//! `ml.train.factor`).
//!
//! A fitted bank holds no per-output objects (DESIGN.md §10.5). Every tree
//! of every output sits in one arena of 16-byte [`Node`]s, each tree in
//! pre-order, with per-tree offsets and per-output tree ranges. Every
//! linear part is one row-major matrix with a `[weights… bias]` row per
//! output, and the per-output scalars (Platt's `a` and `b`, the boosting
//! init score) and seeds sit in flat arrays beside them. Predict walks
//! these arrays and keeps each output's arithmetic order exactly as its
//! classifier has it, so a bank predicts bit for bit what
//! [`ModelKind::build`]`(seed + v)` fitted alone would.

use std::ops::Range;

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_telemetry::{TelemetryCtx, Value};

use crate::classifier::util::sigmoid;
use crate::classifier::{Fitted, ModelKind};
use crate::error::MlError;
use crate::forest::RandomForest;
use crate::linear::{LinearRegressionClassifier, LogisticRegression};
use crate::matrix::Matrix;
use crate::svm::{margin, LinearSvm, LANES};
use crate::tree::{walk, GrownTree, Node};
use crate::work::par_map_indexed;

/// A bank of per-output binary classifiers sharing one feature matrix —
/// the paper's profile model `f = {f_v : v ∈ V}` (Algorithm 1).
pub struct MultiOutputModel {
    kind: ModelKind,
    outputs: usize,
    /// The columns every output reads.
    n_features: usize,
    /// Every tree of every output, back to back.
    nodes: Vec<Node>,
    /// Tree `t` is `nodes[trees[t]..trees[t + 1]]`.
    trees: Vec<usize>,
    /// Output `v`'s trees are `forests[v]..forests[v + 1]` (tree families).
    forests: Vec<usize>,
    /// One `[weights… bias]` row per output: LinearR, LogisticR, the SVM
    /// and HybridRSL's SVM.
    weights: Vec<f64>,
    /// HybridRSL's fusion layer, one row per output: the weights of the
    /// forest's and the SVM's probabilities, of the passed-through
    /// features, then the bias.
    fusion: Vec<f64>,
    /// Per output: Platt's `a` and `b` (SVM, HybridRSL) or the boosting
    /// init score.
    scalars: Vec<f64>,
    /// Per output, as its state carries them: the SVM's, the trees' or,
    /// for HybridRSL, the forest's then the SVM's.
    seeds: Vec<u64>,
}

impl std::fmt::Debug for MultiOutputModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiOutputModel")
            .field("kind", &self.kind.name())
            .field("outputs", &self.outputs)
            .finish()
    }
}

/// Whether outputs of `kind` keep trees in the arena.
fn has_trees(kind: &ModelKind) -> bool {
    matches!(
        kind,
        ModelKind::RandomForest { .. }
            | ModelKind::GradientBoosting { .. }
            | ModelKind::DecisionTree { .. }
            | ModelKind::HybridRsl { .. }
    )
}

/// Seeds per output of `kind`.
fn seeds_per_output(kind: &ModelKind) -> usize {
    match kind {
        ModelKind::LinearR | ModelKind::LogisticR { .. } => 0,
        ModelKind::HybridRsl { .. } => 2,
        _ => 1,
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

        // The bank fits blocks of `LANES` consecutive outputs, so that the
        // SVM families can step a block's Pegasos lanes together. Each
        // block comes back with its seconds when telemetry is live (the
        // disabled path never touches the clock). A worker claims the next
        // unfitted block, so an expensive block never serializes a whole
        // chunk behind it. Every output's result depends only on its index
        // (seed derivation included), and the per-output event carries
        // only deterministic fields (index, boosting rounds) keyed by that
        // index, so the bank and the flushed JSONL stream are identical
        // for any thread count.
        let fitted = par_map_indexed(
            n_out.div_ceil(LANES),
            threads,
            || (),
            |(), b| {
                let outputs = b * LANES..n_out.min((b + 1) * LANES);
                let t0 = tel.now_ns();
                let fits = kind.fit_block(x, &labels[outputs.clone()], outputs.start, seed, &prep);
                let secs = t0
                    .zip(tel.now_ns())
                    .map(|(t0, t1)| t1.saturating_sub(t0) as f64 / 1e9);
                if tel.enabled() {
                    for (v, fit) in outputs.zip(&fits) {
                        if let Ok(fit) = fit {
                            tel.emit(
                                v as u64,
                                "ml.train.output",
                                &[
                                    ("output", Value::from(v)),
                                    ("rounds", Value::from(fit.boosting_rounds())),
                                ],
                            );
                        }
                    }
                }
                (fits, secs)
            },
        );
        // One observation per output: each output of a block takes an equal
        // share of the block's time, since its lanes stepped together.
        let durs: Vec<f64> = fitted
            .iter()
            .filter_map(|(fits, secs)| secs.map(|secs| (fits.len(), secs)))
            .flat_map(|(len, secs)| std::iter::repeat_n(secs / len as f64, len))
            .collect();
        tel.observe_many("ml.train.fit_s", &durs);
        // Outputs move into the arrays in order, so the lowest failing
        // output's error is the one returned.
        let mut bank = MultiOutputModel::empty(kind, x.cols());
        let mut rounds = 0u64;
        for fit in fitted.into_iter().flat_map(|(fits, _)| fits) {
            let fit = fit?;
            rounds += fit.boosting_rounds() as u64;
            bank.push(fit)?;
        }
        bank.nodes.shrink_to_fit();
        if tel.enabled() {
            tel.add("ml.train.outputs", n_out as u64);
            if rounds > 0 {
                tel.add("ml.train.boosting_rounds", rounds);
            }
        }
        Ok(bank)
    }

    /// A bank of `kind` over `n_features` columns with no outputs yet.
    fn empty(kind: ModelKind, n_features: usize) -> Self {
        MultiOutputModel {
            kind,
            outputs: 0,
            n_features,
            nodes: Vec::new(),
            trees: vec![0],
            forests: vec![0],
            weights: Vec::new(),
            fusion: Vec::new(),
            scalars: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Moves one fitted output into the arrays.
    fn push(&mut self, fit: Fitted) -> Result<(), MlError> {
        match fit {
            Fitted::LinearR(LinearRegressionClassifier { weights, .. })
            | Fitted::LogisticR(LogisticRegression { weights, .. }) => {
                self.weights.extend(weights.ok_or(MlError::NotFitted)?)
            }
            Fitted::Svm(svm) => self.push_svm(svm)?,
            Fitted::RandomForest(forest) => self.push_forest(forest),
            Fitted::GradientBoosting(model) => {
                self.seeds.push(model.seed);
                self.scalars.push(model.init_score);
                self.push_trees(model.stages);
            }
            Fitted::DecisionTree(model) => {
                self.seeds.push(model.seed);
                self.push_trees([model.tree.ok_or(MlError::NotFitted)?]);
            }
            Fitted::HybridRsl(stack) => {
                let stack = *stack;
                self.push_forest(stack.forest);
                self.push_svm(stack.svm)?;
                let fusion = stack.fusion.weights.ok_or(MlError::NotFitted)?;
                self.fusion.extend(fusion);
            }
        }
        self.end_output();
        Ok(())
    }

    fn push_svm(&mut self, svm: LinearSvm) -> Result<(), MlError> {
        self.seeds.push(svm.seed);
        self.weights.extend(svm.weights.ok_or(MlError::NotFitted)?);
        self.scalars.extend([svm.platt.0, svm.platt.1]);
        Ok(())
    }

    fn push_forest(&mut self, forest: RandomForest) {
        self.seeds.push(forest.seed);
        self.push_trees(forest.trees);
    }

    fn push_trees(&mut self, trees: impl IntoIterator<Item = GrownTree>) {
        for tree in trees {
            self.nodes.extend_from_slice(&tree.nodes);
            self.trees.push(self.nodes.len());
        }
    }

    /// Closes the output whose parts were just pushed.
    fn end_output(&mut self) {
        if has_trees(&self.kind) {
            self.forests.push(self.trees.len() - 1);
        }
        self.outputs += 1;
    }

    /// The model family used for every output.
    pub fn kind(&self) -> &ModelKind {
        &self.kind
    }

    /// Number of outputs (candidate leak nodes).
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Per-output positive-class probabilities: `result[v][sample]`
    /// (Algorithm 2's `predict_proba`).
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>, MlError> {
        self.predict_rows(x, |_, p| p)
    }

    /// Per-output hard predictions: `result[v][sample]` (Algorithm 2's
    /// `predict`). Each is the probability thresholded at 0.5, except the
    /// SVM's, which is the sign of its margin.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<Vec<u8>>, MlError> {
        let by_margin = matches!(self.kind, ModelKind::Svm { .. });
        self.predict_rows(x, |m, p| {
            u8::from(if by_margin { m > 0.0 } else { p > 0.5 })
        })
    }

    /// Probabilities for a single sample across all outputs — the leak
    /// probability vector `P = {p_v(1)}` Algorithm 2 manipulates.
    pub fn predict_proba_one(&self, features: &[f64]) -> Result<Vec<f64>, MlError> {
        self.check(features.len())?;
        let mut scratch = self.scratch();
        let mut p = vec![0.0; self.outputs];
        self.score_row(features, &mut scratch, &mut p);
        Ok(p)
    }

    /// `label(margin, probability)` of every output on every row of `x`,
    /// as `result[v][sample]`.
    fn predict_rows<T>(
        &self,
        x: &Matrix,
        label: impl Fn(f64, f64) -> T,
    ) -> Result<Vec<Vec<T>>, MlError> {
        self.check(x.cols())?;
        let mut out: Vec<Vec<T>> = (0..self.outputs)
            .map(|_| Vec::with_capacity(x.rows()))
            .collect();
        let mut scratch = self.scratch();
        let mut p = vec![0.0; self.outputs];
        for row in x.iter_rows() {
            self.score_row(row, &mut scratch, &mut p);
            for ((out, &m), &p) in out.iter_mut().zip(&scratch.margins).zip(&p) {
                out.push(label(m, p));
            }
        }
        Ok(out)
    }

    /// Working space for [`score_row`](Self::score_row).
    fn scratch(&self) -> Scratch {
        Scratch {
            margins: vec![0.0; self.outputs],
            leaves: vec![0.0; self.trees.len() - 1],
        }
    }

    /// Refuses rows of `cols` columns unless every output can predict
    /// them. An output without trees is unfitted, as its classifier
    /// reports before it looks at the row.
    fn check(&self, cols: usize) -> Result<(), MlError> {
        if self.forests.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(MlError::NotFitted);
        }
        if cols != self.n_features {
            return Err(MlError::FeatureMismatch {
                expected: self.n_features,
                got: cols,
            });
        }
        Ok(())
    }

    /// Every output's probability of `row` into `p`. The stack's two
    /// inputs come from two passes over all outputs: every weight row's
    /// margin (left in `scratch.margins`), then every tree's leaf.
    fn score_row(&self, row: &[f64], scratch: &mut Scratch, p: &mut [f64]) {
        let Scratch { margins, leaves } = scratch;
        lane_margins(&self.weights, row, margins);
        for (&start, leaf) in self.trees.iter().zip(leaves.iter_mut()) {
            *leaf = walk(&self.nodes[start..], row);
        }
        let forest = |v: usize| &leaves[self.forests[v]..self.forests[v + 1]];
        match &self.kind {
            ModelKind::LinearR => {
                for (p, &m) in p.iter_mut().zip(&*margins) {
                    *p = m.clamp(0.0, 1.0);
                }
            }
            ModelKind::LogisticR { .. } => {
                for (p, &m) in p.iter_mut().zip(&*margins) {
                    *p = sigmoid(m);
                }
            }
            ModelKind::Svm { .. } => {
                for (v, (p, &m)) in p.iter_mut().zip(&*margins).enumerate() {
                    *p = self.platt(v, m);
                }
            }
            ModelKind::RandomForest { .. } => {
                for (v, p) in p.iter_mut().enumerate() {
                    *p = mean(forest(v));
                }
            }
            ModelKind::DecisionTree { .. } => {
                for (v, p) in p.iter_mut().enumerate() {
                    *p = leaves[self.forests[v]];
                }
            }
            ModelKind::GradientBoosting { config } => {
                let rate = config.learning_rate;
                for (v, p) in p.iter_mut().enumerate() {
                    let sum = forest(v).iter().map(|&leaf| rate * leaf).sum::<f64>();
                    *p = sigmoid(self.scalars[v] + sum);
                }
            }
            ModelKind::HybridRsl { config } => {
                let passthrough: &[f64] = if config.passthrough_features {
                    row
                } else {
                    &[]
                };
                let width = 3 + passthrough.len();
                for (v, (p, fusion)) in p
                    .iter_mut()
                    .zip(self.fusion.chunks_exact(width))
                    .enumerate()
                {
                    let stacked = [mean(forest(v)), self.platt(v, margins[v])];
                    let mut z = fusion[width - 1];
                    for (xi, wi) in stacked.iter().chain(passthrough).zip(fusion) {
                        z += xi * wi;
                    }
                    *p = sigmoid(z);
                }
            }
        }
    }

    /// Tree `t`'s nodes.
    fn tree(&self, t: usize) -> &[Node] {
        &self.nodes[self.trees[t]..self.trees[t + 1]]
    }

    /// Output `v`'s trees.
    fn output_trees(&self, v: usize) -> Range<usize> {
        self.forests[v]..self.forests[v + 1]
    }

    /// Output `v`'s Platt probability of margin `m`.
    fn platt(&self, v: usize, m: f64) -> f64 {
        sigmoid(self.scalars[2 * v] * m + self.scalars[2 * v + 1])
    }
}

/// Predict's working space: each output's margin and each tree's leaf.
struct Scratch {
    margins: Vec<f64>,
    leaves: Vec<f64>,
}

/// A forest's probability: its trees' leaves summed in tree order, over
/// the tree count.
fn mean(leaves: &[f64]) -> f64 {
    leaves.iter().copied().sum::<f64>() / leaves.len() as f64
}

/// Each output's margin on `row` under its `[weights… bias]` row of
/// `matrix`, into `out`: the bias, then each feature's term in feature
/// order. [`LANES`] outputs go together so that their dependent sums
/// overlap; the tail goes one at a time.
fn lane_margins(matrix: &[f64], row: &[f64], out: &mut [f64]) {
    let width = row.len() + 1;
    let mut blocks = matrix.chunks_exact(LANES * width);
    let mut outs = out.chunks_exact_mut(LANES);
    for (block, out) in (&mut blocks).zip(&mut outs) {
        let rows: [&[f64]; LANES] = std::array::from_fn(|j| &block[j * width..(j + 1) * width]);
        out.copy_from_slice(&lane_sums(row, rows));
    }
    for (w, m) in blocks
        .remainder()
        .chunks_exact(width)
        .zip(outs.into_remainder())
    {
        *m = margin(row, w);
    }
}

/// [`LANES`] margins of `row`, one per `[weights… bias]` row. Out of
/// line, with every row cut to `row`'s length first, so that the sums stay
/// in registers and the loads need no bounds checks.
#[inline(never)]
fn lane_sums(row: &[f64], rows: [&[f64]; LANES]) -> [f64; LANES] {
    let d = row.len();
    let mut acc: [f64; LANES] = std::array::from_fn(|j| rows[j][d]);
    let rows = rows.map(|r| &r[..d]);
    for k in 0..d {
        let xk = row[k];
        for j in 0..LANES {
            acc[j] += xk * rows[j][k];
        }
    }
    acc
}

/// The configuration bytes every output's state repeats from the bank's
/// kind, in wire order: the family's own (LinearR's is the default ridge,
/// the one [`ModelKind::build`] uses), then for HybridRSL its forest's, its
/// SVM's and its fusion layer's.
fn repeated_configs(kind: &ModelKind) -> Vec<Vec<u8>> {
    fn bytes(config: &impl Codec) -> Vec<u8> {
        let mut w = Writer::new();
        config.encode(&mut w);
        w.into_bytes()
    }
    match kind {
        ModelKind::LinearR => vec![bytes(&LinearRegressionClassifier::default().ridge)],
        ModelKind::LogisticR { config } => vec![bytes(config)],
        ModelKind::GradientBoosting { config } => vec![bytes(config)],
        ModelKind::RandomForest { config } => vec![bytes(config)],
        ModelKind::Svm { config } => vec![bytes(config)],
        ModelKind::DecisionTree { config } => vec![bytes(config)],
        ModelKind::HybridRsl { config } => vec![
            bytes(config),
            bytes(&config.forest),
            bytes(&config.svm),
            bytes(&config.fusion),
        ],
    }
}

/// Wire form of the bank, unchanged from a list of per-output classifier
/// states: the kind, the output count, then each output's state behind a
/// length prefix. A state is what its classifier's fields encode to, in
/// declaration order.
impl Codec for MultiOutputModel {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        w.len_prefix(self.outputs);
        let configs = repeated_configs(&self.kind);
        for v in 0..self.outputs {
            // Length-prefix each output so a short state cannot bleed into
            // its neighbour on decode.
            let state = w.open_len_prefix();
            self.encode_output(v, &configs, w);
            w.close_len_prefix(state);
        }
    }

    /// Parses the section straight into the arrays. Refuses, as
    /// [`ArtifactError::Malformed`], every state predict could not walk or
    /// that would not encode back to the same bytes: an output whose
    /// configuration differs from the kind's, an unfitted output, a linear
    /// row without a bias, parts over different feature counts, a tree
    /// not in pre-order or with an index that does not fit its 32 bits,
    /// and a count that runs past the end of the section.
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let kind = ModelKind::decode(r)?;
        let outputs = count(r, 8, "output")?;
        if outputs == 0 {
            return Err(malformed("a bank without outputs".into()));
        }
        let configs = repeated_configs(&kind);
        let mut bank = MultiOutputModel::empty(kind, 0);
        if has_trees(&bank.kind) {
            // A tree of `n` nodes in pre-order takes at least `21·n + 4`
            // bytes, so this holds every node the section can carry and
            // is smaller than the section.
            bank.nodes.reserve_exact(r.remaining() / 21 + 1);
        }
        let mut decoder = OutputDecoder {
            width: None,
            configs,
            open: Vec::new(),
        };
        for v in 0..outputs {
            let len = r.len_prefix(1)?;
            let mut state = Reader::new(r.take(len)?);
            decoder.output(&mut bank, &mut state)?;
            state.finish()?;
            if v == 0 {
                // Every output holds as much as the first: size the arrays
                // once, never past what the section can fill.
                let cap = r.remaining() / 8;
                for array in [&mut bank.weights, &mut bank.fusion, &mut bank.scalars] {
                    array.reserve_exact(array.len().saturating_mul(outputs - 1).min(cap));
                }
                let seeds = bank.seeds.len().saturating_mul(outputs - 1).min(cap);
                bank.seeds.reserve_exact(seeds);
            }
        }
        bank.n_features = decoder
            .width
            .ok_or_else(|| malformed("a bank without a feature count".into()))?;
        bank.nodes.shrink_to_fit();
        Ok(bank)
    }
}

impl MultiOutputModel {
    /// Output `v`'s state, as its classifier encodes it.
    fn encode_output(&self, v: usize, configs: &[Vec<u8>], w: &mut Writer) {
        let seeds = &self.seeds[v * seeds_per_output(&self.kind)..];
        w.raw(&configs[0]);
        match &self.kind {
            ModelKind::LinearR | ModelKind::LogisticR { .. } => self.encode_weights(v, w),
            ModelKind::Svm { .. } => {
                w.u64(seeds[0]);
                self.encode_svm(v, w);
            }
            ModelKind::GradientBoosting { .. } => {
                w.u64(seeds[0]);
                w.f64(self.scalars[v]);
                self.encode_trees(v, w);
            }
            ModelKind::RandomForest { .. } => {
                w.u64(seeds[0]);
                self.encode_trees(v, w);
            }
            ModelKind::DecisionTree { .. } => {
                w.u64(seeds[0]);
                w.u8(1);
                self.encode_tree(self.forests[v], w);
            }
            ModelKind::HybridRsl { .. } => {
                w.raw(&configs[1]);
                w.u64(seeds[0]);
                self.encode_trees(v, w);
                w.raw(&configs[2]);
                w.u64(seeds[1]);
                self.encode_svm(v, w);
                w.raw(&configs[3]);
                let width = self.fusion.len() / self.outputs;
                encode_row(&self.fusion[v * width..(v + 1) * width], w);
                w.bool(true);
            }
        }
    }

    fn encode_weights(&self, v: usize, w: &mut Writer) {
        let width = self.n_features + 1;
        encode_row(&self.weights[v * width..(v + 1) * width], w);
    }

    fn encode_svm(&self, v: usize, w: &mut Writer) {
        self.encode_weights(v, w);
        w.f64(self.scalars[2 * v]);
        w.f64(self.scalars[2 * v + 1]);
    }

    /// Output `v`'s trees, then its feature count.
    fn encode_trees(&self, v: usize, w: &mut Writer) {
        let trees = self.output_trees(v);
        w.len_prefix(trees.len());
        for t in trees {
            self.encode_tree(t, w);
        }
        w.u8(1);
        w.len_prefix(self.n_features);
    }

    /// Tree `t`: its nodes, tagged leaf (0) or split (1), then its feature
    /// count.
    fn encode_tree(&self, t: usize, w: &mut Writer) {
        let nodes = self.tree(t);
        w.len_prefix(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            if node.is_leaf() {
                w.u8(0);
                w.f64(node.value);
            } else {
                w.u8(1);
                w.u64(u64::from(node.feature));
                w.f64(node.value);
                w.len_prefix(i + 1);
                w.u64(u64::from(node.right));
            }
        }
        w.len_prefix(self.n_features);
    }
}

/// A fitted linear part: `Some`, then its `[weights… bias]`.
fn encode_row(row: &[f64], w: &mut Writer) {
    w.u8(1);
    w.len_prefix(row.len());
    for &v in row {
        w.f64(v);
    }
}

fn malformed(reason: String) -> ArtifactError {
    ArtifactError::Malformed { reason }
}

/// A count of items that each take at least `min_bytes` of what is left
/// of `r`. A count that runs past the end is refused before anything is
/// allocated for it.
fn count(r: &mut Reader<'_>, min_bytes: usize, what: &str) -> Result<usize, ArtifactError> {
    let n = r.u64()?;
    match usize::try_from(n) {
        Ok(n) if n.checked_mul(min_bytes).is_some_and(|b| b <= r.remaining()) => Ok(n),
        _ => Err(malformed(format!(
            "{what} count {n} runs past the end of the section"
        ))),
    }
}

/// Decoding state carried across one bank's outputs.
struct OutputDecoder {
    /// The feature count, once a part has named it.
    width: Option<usize>,
    /// [`repeated_configs`] of the bank's kind.
    configs: Vec<Vec<u8>>,
    /// The right children of the splits whose left subtree is being read.
    open: Vec<u32>,
}

impl OutputDecoder {
    /// Parses one output's state into `bank`.
    fn output(
        &mut self,
        bank: &mut MultiOutputModel,
        r: &mut Reader<'_>,
    ) -> Result<(), ArtifactError> {
        self.config(r, 0)?;
        match bank.kind.clone() {
            ModelKind::LinearR | ModelKind::LogisticR { .. } => {
                let d = self.row(r, &mut bank.weights, "linear model")?;
                self.same_width(d, "linear model")?;
            }
            ModelKind::Svm { .. } => {
                bank.seeds.push(r.u64()?);
                self.svm(bank, r)?;
            }
            ModelKind::GradientBoosting { .. } => {
                bank.seeds.push(r.u64()?);
                bank.scalars.push(r.f64()?);
                self.trees(bank, r)?;
            }
            ModelKind::RandomForest { .. } => {
                bank.seeds.push(r.u64()?);
                self.trees(bank, r)?;
            }
            ModelKind::DecisionTree { .. } => {
                bank.seeds.push(r.u64()?);
                fitted(r, "tree")?;
                self.tree(bank, r)?;
            }
            ModelKind::HybridRsl { config } => {
                self.config(r, 1)?;
                bank.seeds.push(r.u64()?);
                self.trees(bank, r)?;
                self.config(r, 2)?;
                bank.seeds.push(r.u64()?);
                self.svm(bank, r)?;
                self.config(r, 3)?;
                let inputs = self.row(r, &mut bank.fusion, "fusion layer")?;
                let d = if config.passthrough_features {
                    self.width.unwrap_or(0)
                } else {
                    0
                };
                if inputs != 2 + d {
                    return Err(malformed(format!(
                        "fusion layer over {inputs} inputs in a stack that gives it {}",
                        2 + d
                    )));
                }
                if !r.bool()? {
                    return Err(malformed("unfitted HybridRSL output".into()));
                }
            }
        }
        bank.end_output();
        Ok(())
    }

    /// Consumes configuration `i` of [`repeated_configs`], refusing any
    /// other bytes.
    fn config(&self, r: &mut Reader<'_>, i: usize) -> Result<(), ArtifactError> {
        let expected = &self.configs[i];
        if r.take(expected.len())? != expected.as_slice() {
            return Err(malformed(
                "an output's configuration differs from the bank's model kind".into(),
            ));
        }
        Ok(())
    }

    fn same_width(&mut self, d: usize, what: &str) -> Result<(), ArtifactError> {
        match self.width {
            None => self.width = Some(d),
            Some(width) if width != d => {
                return Err(malformed(format!(
                    "{what} over {d} features in a bank over {width}"
                )))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// A fitted `[weights… bias]` row onto `out`; returns its feature count.
    fn row(
        &mut self,
        r: &mut Reader<'_>,
        out: &mut Vec<f64>,
        what: &str,
    ) -> Result<usize, ArtifactError> {
        fitted(r, what)?;
        let n = count(r, 8, "weight")?;
        if n == 0 {
            return Err(malformed(format!("fitted {what} without a bias weight")));
        }
        for _ in 0..n {
            out.push(r.f64()?);
        }
        Ok(n - 1)
    }

    fn svm(
        &mut self,
        bank: &mut MultiOutputModel,
        r: &mut Reader<'_>,
    ) -> Result<(), ArtifactError> {
        let d = self.row(r, &mut bank.weights, "SVM")?;
        self.same_width(d, "SVM")?;
        bank.scalars.push(r.f64()?);
        bank.scalars.push(r.f64()?);
        Ok(())
    }

    /// A forest's or a booster's trees, then its fitted feature count.
    fn trees(
        &mut self,
        bank: &mut MultiOutputModel,
        r: &mut Reader<'_>,
    ) -> Result<(), ArtifactError> {
        // A tree takes at least 25 bytes: its node count, a leaf, its width.
        for _ in 0..count(r, 25, "tree")? {
            self.tree(bank, r)?;
        }
        fitted(r, "tree model")?;
        let d = usize::decode(r)?;
        self.same_width(d, "tree model")
    }

    /// One tree into the arena, checked to be in pre-order: a split's left
    /// child is the next node, and its right child is the node after its
    /// left subtree, which `open` holds until a leaf closes that subtree.
    fn tree(
        &mut self,
        bank: &mut MultiOutputModel,
        r: &mut Reader<'_>,
    ) -> Result<(), ArtifactError> {
        let n = count(r, 9, "tree node")?;
        if n == 0 {
            return Err(malformed("tree without nodes".into()));
        }
        self.open.clear();
        let mut top_feature = None;
        for i in 0..n {
            match r.u8()? {
                0 => {
                    bank.nodes.push(Node::leaf(r.f64()?));
                    match self.open.pop() {
                        Some(right) if right as usize == i + 1 => {}
                        None if i + 1 == n => {}
                        _ => {
                            return Err(malformed(format!(
                                "tree node {} is not where pre-order puts it",
                                i + 1
                            )))
                        }
                    }
                }
                1 => {
                    let (feature, threshold) = (r.u64()?, r.f64()?);
                    let (left, right) = (r.u64()?, r.u64()?);
                    if left != i as u64 + 1 {
                        return Err(malformed(format!(
                            "tree node {i}'s left child {left} is not the next node"
                        )));
                    }
                    let (Ok(feature), Ok(right)) = (u32::try_from(feature), u32::try_from(right))
                    else {
                        return Err(malformed(format!(
                            "tree node {i}'s feature {feature} or right child {right} \
                             does not fit in u32"
                        )));
                    };
                    if feature == Node::LEAF {
                        return Err(malformed(format!(
                            "tree node {i}'s feature {feature} does not fit in u32"
                        )));
                    }
                    if right as usize >= n {
                        return Err(malformed(format!(
                            "tree node {i}'s right child {right} lies outside its {n} nodes"
                        )));
                    }
                    top_feature = top_feature.max(Some(feature));
                    self.open.push(right);
                    bank.nodes.push(Node {
                        value: threshold,
                        feature,
                        right,
                    });
                }
                tag => return Err(malformed(format!("unknown tree-node tag {tag}"))),
            }
        }
        if !self.open.is_empty() {
            return Err(malformed("tree ends inside a split".into()));
        }
        let d = usize::decode(r)?;
        if let Some(feature) = top_feature.filter(|&f| f as usize >= d) {
            return Err(malformed(format!(
                "tree splits on feature {feature} of {d}"
            )));
        }
        self.same_width(d, "tree")?;
        bank.trees.push(bank.nodes.len());
        Ok(())
    }
}

/// Consumes the `Some` tag of a fitted part; `None` is an unfitted one.
fn fitted(r: &mut Reader<'_>, what: &str) -> Result<(), ArtifactError> {
    match r.u8()? {
        1 => Ok(()),
        0 => Err(malformed(format!("unfitted {what}"))),
        tag => Err(malformed(format!("invalid option tag {tag}"))),
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
        // Six outputs: a block of four and a tail of two, one fit time each.
        let (x, three) = data(120);
        let labels: Vec<Vec<u8>> = three.iter().cycle().take(6).cloned().collect();
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
        assert_eq!(snap.counter("ml.train.outputs"), 6);
        assert_eq!(snap.histogram("ml.train.fit_s").unwrap().count, 6);
        let rounds = (model.trees.len() - 1) as u64;
        assert!(rounds > 0);
        assert_eq!(snap.counter("ml.train.boosting_rounds"), rounds);
        assert_eq!(hub.span_tree()[0].name, "ml.train");
    }

    #[test]
    fn a_nan_feature_fails_every_svm_bank_with_divergence() {
        let (mut x, three) = data(90);
        x.set(40, 0, f64::NAN);
        let labels: Vec<Vec<u8>> = three.iter().cycle().take(7).cloned().collect();
        for kind in [ModelKind::svm(), ModelKind::hybrid_rsl()] {
            for threads in [1, 2] {
                assert_eq!(
                    MultiOutputModel::fit(kind.clone(), &x, &labels, 0, threads).unwrap_err(),
                    MlError::Diverged,
                    "{} at {threads} threads",
                    kind.name()
                );
            }
        }
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
            ModelKind::HybridRsl {
                config: crate::HybridRslConfig {
                    passthrough_features: true,
                    ..crate::HybridRslConfig::default()
                },
            },
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
