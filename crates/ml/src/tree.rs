//! CART decision trees (classification and regression).
//!
//! One implementation serves three consumers: the standalone
//! [`DecisionTree`] classifier, the bagged trees inside
//! [`crate::RandomForest`] and the regression trees inside
//! [`crate::GradientBoosting`]. Each consumer picks a
//! [`SplitStrategy`]: the exact sorted scan (the reference oracle) or
//! LightGBM-style histogram split finding over a shared
//! [`BinnedDataset`].

use std::borrow::Cow;

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::binned::BinnedDataset;
use crate::classifier::util::{balanced_indices, check_fit, check_predict};
use crate::classifier::{Classifier, Prepared};
use crate::error::MlError;
use crate::matrix::Matrix;

/// How candidate split thresholds are enumerated during tree growth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Exact sorted scan: every boundary between distinct feature values is
    /// a candidate (`O(n log n)` per feature per node). The reference
    /// oracle the histogram path is property-tested against.
    #[default]
    Exact,
    /// Histogram split finding over quantized u8 codes: accumulate target
    /// statistics per bin, scan bin boundaries (`O(n + B)` per feature per
    /// node). Bin edges come from a [`BinnedDataset`] built once per
    /// corpus and shared across trees and outputs.
    Histogram {
        /// Per-feature bin budget, clamped to `2..=256`.
        max_bins: u16,
    },
}

impl SplitStrategy {
    /// The default histogram strategy (256 bins — the u8 ceiling).
    pub fn histogram() -> Self {
        SplitStrategy::Histogram { max_bins: 256 }
    }

    /// The bin budget, when this is a histogram strategy.
    pub fn bins(&self) -> Option<u16> {
        match self {
            SplitStrategy::Exact => None,
            SplitStrategy::Histogram { max_bins } => Some(*max_bins),
        }
    }

    /// The binned view of `x` a fit with this strategy grows on: none for
    /// the exact scan; otherwise `shared`, the corpus's one quantization,
    /// or a fresh one when no shared view is given.
    pub(crate) fn binned_view<'a>(
        &self,
        x: &Matrix,
        shared: Option<&'a BinnedDataset>,
    ) -> Option<Cow<'a, BinnedDataset>> {
        let bins = self.bins()?;
        Some(match shared {
            Some(b) => Cow::Borrowed(b),
            None => Cow::Owned(BinnedDataset::build(x, bins)),
        })
    }
}

impl Codec for SplitStrategy {
    fn encode(&self, w: &mut Writer) {
        match self {
            SplitStrategy::Exact => w.u8(0),
            SplitStrategy::Histogram { max_bins } => {
                w.u8(1);
                w.u32(*max_bins as u32);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.u8()? {
            0 => SplitStrategy::Exact,
            1 => {
                let bins = r.u32()?;
                if !(2..=256).contains(&bins) {
                    return Err(ArtifactError::Malformed {
                        reason: format!("histogram bin budget {bins} outside 2..=256"),
                    });
                }
                SplitStrategy::Histogram {
                    max_bins: bins as u16,
                }
            }
            tag => {
                return Err(ArtifactError::Malformed {
                    reason: format!("unknown split-strategy tag {tag}"),
                })
            }
        })
    }
}

/// Hyperparameters for tree growth.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node further.
    pub min_samples_split: usize,
    /// Number of features examined per split; `None` = all features
    /// (random forests pass `Some(√d)`).
    pub max_features: Option<usize>,
    /// Oversample the minority class before growing (classification only).
    pub balance_classes: bool,
    /// Split-threshold enumeration: exact scan (default, the oracle) or
    /// histogram bins.
    pub split: SplitStrategy,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            max_features: None,
            balance_classes: true,
            split: SplitStrategy::Exact,
        }
    }
}

/// One tree node in 16 bytes: a split or a leaf.
///
/// A tree is its nodes in pre-order: a split's left child is the node right
/// after it, and `right` is the index of its right child within the same
/// tree. Every grower lays its tree out that way, and the bank's decoder
/// refuses any other layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// A split's threshold (rows with `row[feature] <= value` go left), or
    /// a leaf's value.
    pub(crate) value: f64,
    /// A split's feature, or [`Node::LEAF`].
    pub(crate) feature: u32,
    /// A split's right child; 0 on a leaf.
    pub(crate) right: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    /// The `feature` that marks a leaf. No split can use it: a feature
    /// index is below the column count, and a row of `u32::MAX` columns
    /// would take 32 GiB.
    pub(crate) const LEAF: u32 = u32::MAX;

    pub(crate) fn leaf(value: f64) -> Node {
        Node {
            value,
            feature: Node::LEAF,
            right: 0,
        }
    }

    /// A split on `feature` at `threshold` whose right child is `right`.
    /// A grown tree's indices fit in `u32`: its features are below the
    /// column count (see [`Node::LEAF`]), and a tree of `u32::MAX` nodes
    /// would take 64 GiB.
    pub(crate) fn split(feature: usize, threshold: f64, right: usize) -> Node {
        Node {
            value: threshold,
            feature: feature as u32,
            right: right as u32,
        }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.feature == Node::LEAF
    }
}

/// The value of the leaf `row` reaches in the pre-order tree `nodes`. Each
/// step is a select, not a branch, since which way a split sends a row is
/// as good as a coin toss to the branch predictor.
#[inline]
pub(crate) fn walk(nodes: &[Node], row: &[f64]) -> f64 {
    let mut i = 0;
    loop {
        let node = nodes[i];
        if node.is_leaf() {
            return node.value;
        }
        i = std::hint::select_unpredictable(
            row[node.feature as usize] <= node.value,
            i + 1,
            node.right as usize,
        );
    }
}

/// The split criterion / leaf statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Criterion {
    /// Gini impurity; leaves store the positive-class fraction.
    Gini,
    /// Variance reduction; leaves store the target mean.
    Mse,
}

/// Internal grown-tree representation shared by all tree consumers.
#[derive(Debug, Clone)]
pub(crate) struct GrownTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) n_features: usize,
}

/// Partial Fisher–Yates over `0..d`: every grower draws its per-node
/// features through this, so all of them consume the RNG identically and
/// examine features in the same order.
struct FeatureSampler {
    /// The identity permutation of `0..d` between draws.
    order: Vec<usize>,
    /// The current draw's swap partners, to undo them.
    swaps: Vec<usize>,
}

impl FeatureSampler {
    fn new(d: usize) -> FeatureSampler {
        FeatureSampler {
            order: (0..d).collect(),
            swaps: Vec::new(),
        }
    }

    /// Writes `k` distinct features into `out`: the first `k` entries of a
    /// partial shuffle of the identity. The swaps are undone afterwards, so
    /// a draw costs `O(k)`, not a fresh `d`-length vector.
    fn draw(&mut self, k: usize, rng: &mut StdRng, out: &mut Vec<usize>) {
        let d = self.order.len();
        self.swaps.clear();
        for i in 0..k {
            let j = rng.random_range(i..d);
            self.order.swap(i, j);
            self.swaps.push(j);
        }
        out.clear();
        out.extend_from_slice(&self.order[..k]);
        for (i, &j) in self.swaps.iter().enumerate().rev() {
            self.order.swap(i, j);
        }
    }
}

/// `k` distinct features of `d`, as [`FeatureSampler::draw`] gives them.
fn sample_features(d: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut features = Vec::with_capacity(k);
    FeatureSampler::new(d).draw(k, rng, &mut features);
    features
}

/// Weighted child impurity for a left/right candidate, from prefix sums.
/// Shared by the exact boundary sweep and the histogram bin scan so both
/// strategies score identical partitions identically.
#[allow(clippy::too_many_arguments)]
#[inline]
fn child_score(
    criterion: Criterion,
    n: f64,
    nl: f64,
    sum_left: f64,
    sumsq_left: f64,
    total_sum: f64,
    total_sumsq: f64,
) -> f64 {
    let nr = n - nl;
    match criterion {
        Criterion::Gini => {
            let pl = sum_left / nl;
            let pr = (total_sum - sum_left) / nr;
            (nl / n) * 2.0 * pl * (1.0 - pl) + (nr / n) * 2.0 * pr * (1.0 - pr)
        }
        Criterion::Mse => {
            let ml = sum_left / nl;
            let vl = (sumsq_left / nl - ml * ml).max(0.0);
            let sr = total_sum - sum_left;
            let mr = sr / nr;
            let vr = ((total_sumsq - sumsq_left) / nr - mr * mr).max(0.0);
            (nl / n) * vl + (nr / n) * vr
        }
    }
}

impl GrownTree {
    /// Grows a tree on `(x[indices], targets[indices])` with the exact
    /// sorted-scan split finder.
    pub(crate) fn grow(
        x: &Matrix,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> GrownTree {
        let mut tree = GrownTree {
            nodes: Vec::new(),
            n_features: x.cols(),
        };
        let root_indices: Vec<usize> = indices.to_vec();
        tree.grow_node(x, targets, root_indices, criterion, config, rng, 0);
        tree
    }

    /// Grows a regression tree (`Criterion::Mse`) on
    /// `(binned[indices], targets[indices])` with histogram split finding.
    /// The resulting tree stores real `f64` thresholds, so prediction runs
    /// on raw feature rows — binning is a training-time concern only.
    pub(crate) fn grow_binned(
        binned: &BinnedDataset,
        targets: &[f64],
        indices: &[usize],
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> GrownTree {
        let mut tree = GrownTree {
            nodes: Vec::new(),
            n_features: binned.features(),
        };
        // Per bin: (count, Σy, Σy²), cleared before each feature.
        let mut moments = vec![(0, 0.0, 0.0); binned.widest()];
        let root_indices: Vec<usize> = indices.to_vec();
        tree.grow_node_binned(binned, targets, root_indices, config, rng, 0, &mut moments);
        tree
    }

    /// Grows a classification tree (`Criterion::Gini`) on the binned rows
    /// of `sample` (see [`multiplicities`]), each counted as often as its
    /// multiplicity. The tree is the one the index list with repeats grows;
    /// DESIGN.md §10.2 gives the scan.
    pub(crate) fn grow_gini(
        binned: &BinnedDataset,
        sample: [Vec<Weighted>; 2],
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> GrownTree {
        let [mut negatives, mut positives] = sample;
        let weight = |rows: &[Weighted]| rows.iter().map(|r| u64::from(r.weight)).sum::<u64>();
        let root = weight(&negatives) * CLASS_CELL[0] + weight(&positives) * CLASS_CELL[1];
        let mut grower = GiniGrower {
            binned,
            config,
            sampler: FeatureSampler::new(binned.features()),
            features: Vec::new(),
            cells: [0; 256],
            nodes: Vec::new(),
        };
        grower.grow([&mut negatives, &mut positives], root, 0, rng);
        GrownTree {
            nodes: grower.nodes,
            n_features: binned.features(),
        }
    }

    /// Leaf/recursion bookkeeping shared by both growth paths. Returns
    /// `Err(node_id)` when the node terminates as a leaf, `Ok(mean)` when a
    /// split should be attempted.
    fn stop_or_mean(
        &mut self,
        targets: &[f64],
        indices: &[usize],
        config: &DecisionTreeConfig,
        depth: usize,
    ) -> Result<f64, usize> {
        if indices.is_empty() {
            // Degenerate call (empty training selection): an explicit
            // 0-valued leaf beats a NaN mean or an index panic.
            let id = self.nodes.len();
            self.nodes.push(Node::leaf(0.0));
            return Err(id);
        }
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64;
        let pure = indices
            .iter()
            .all(|&i| (targets[i] - targets[indices[0]]).abs() < 1e-12);
        if depth >= config.max_depth || indices.len() < config.min_samples_split || pure {
            let id = self.nodes.len();
            self.nodes.push(Node::leaf(mean));
            return Err(id);
        }
        Ok(mean)
    }

    #[allow(clippy::too_many_arguments)]
    fn grow_node(
        &mut self,
        x: &Matrix,
        targets: &[f64],
        indices: Vec<usize>,
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        depth: usize,
    ) -> usize {
        let mean = match self.stop_or_mean(targets, &indices, config, depth) {
            Ok(mean) => mean,
            Err(id) => return id,
        };

        let best = self.best_split(x, targets, &indices, criterion, config, rng);
        let Some((feature, threshold)) = best else {
            let id = self.nodes.len();
            self.nodes.push(Node::leaf(mean));
            return id;
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| x.get(i, feature) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            let id = self.nodes.len();
            self.nodes.push(Node::leaf(mean));
            return id;
        }

        // Reserve the split slot, then grow children.
        let id = self.nodes.len();
        self.nodes.push(Node::leaf(mean)); // placeholder
        let left = self.grow_node(x, targets, left_idx, criterion, config, rng, depth + 1);
        let right = self.grow_node(x, targets, right_idx, criterion, config, rng, depth + 1);
        debug_assert_eq!(left, id + 1);
        self.nodes[id] = Node::split(feature, threshold, right);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn grow_node_binned(
        &mut self,
        binned: &BinnedDataset,
        targets: &[f64],
        indices: Vec<usize>,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        depth: usize,
        moments: &mut [(u32, f64, f64)],
    ) -> usize {
        let mean = match self.stop_or_mean(targets, &indices, config, depth) {
            Ok(mean) => mean,
            Err(id) => return id,
        };

        let best = self.best_split_binned(binned, targets, &indices, config, rng, moments);
        let Some((feature, bin)) = best else {
            let id = self.nodes.len();
            self.nodes.push(Node::leaf(mean));
            return id;
        };

        let codes = binned.feature_codes(feature);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| codes[i] as usize <= bin);
        if left_idx.is_empty() || right_idx.is_empty() {
            let id = self.nodes.len();
            self.nodes.push(Node::leaf(mean));
            return id;
        }

        let threshold = binned.threshold(feature, bin);
        let id = self.nodes.len();
        self.nodes.push(Node::leaf(mean)); // placeholder
        let left =
            self.grow_node_binned(binned, targets, left_idx, config, rng, depth + 1, moments);
        let right =
            self.grow_node_binned(binned, targets, right_idx, config, rng, depth + 1, moments);
        debug_assert_eq!(left, id + 1);
        self.nodes[id] = Node::split(feature, threshold, right);
        id
    }

    fn best_split(
        &self,
        x: &Matrix,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let d = x.cols();
        if d == 0 {
            return None; // a featureless matrix has nothing to split on
        }
        let k = config.max_features.unwrap_or(d).clamp(1, d);
        let features = sample_features(d, k, rng);

        let parent_score = impurity(targets, indices, criterion);
        let n = indices.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, gain
        for &f in &features {
            // Exact split search: sort once, sweep every boundary between
            // distinct values with prefix sums — O(n log n) per feature.
            let mut order: Vec<(f64, f64)> =
                indices.iter().map(|&i| (x.get(i, f), targets[i])).collect();
            // total_cmp: identical ordering on finite data, no panic on NaN
            // (NaN sorts last and never forms a usable boundary).
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let total_sum: f64 = order.iter().map(|(_, t)| t).sum();
            let total_sumsq: f64 = order.iter().map(|(_, t)| t * t).sum();
            let mut sum_left = 0.0f64;
            let mut sumsq_left = 0.0f64;
            for i in 0..order.len() - 1 {
                sum_left += order[i].1;
                sumsq_left += order[i].1 * order[i].1;
                if order[i].0 == order[i + 1].0 {
                    continue;
                }
                let nl = (i + 1) as f64;
                let child = child_score(
                    criterion,
                    n,
                    nl,
                    sum_left,
                    sumsq_left,
                    total_sum,
                    total_sumsq,
                );
                // Zero-gain splits are allowed (as in sklearn): on targets
                // like XOR the informative split has zero immediate gain
                // and only pays off one level deeper. Recursion still
                // terminates because both children are strictly smaller.
                let gain = (parent_score - child).max(0.0);
                if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((f, (order[i].0 + order[i + 1].0) / 2.0, gain));
                }
            }
        }
        best.map(|(f, th, _)| (f, th))
    }

    /// Histogram analogue of [`best_split`](Self::best_split) for
    /// regression trees: accumulate per-bin `(count, Σy, Σy²)` in one pass
    /// over the node's samples, then scan bin boundaries. Returns the
    /// winning `(feature, bin)`; the split threshold is
    /// `binned.threshold(feature, bin)`.
    fn best_split_binned(
        &self,
        binned: &BinnedDataset,
        targets: &[f64],
        indices: &[usize],
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        moments: &mut [(u32, f64, f64)],
    ) -> Option<(usize, usize)> {
        let criterion = Criterion::Mse;
        let d = binned.features();
        if d == 0 {
            return None;
        }
        let k = config.max_features.unwrap_or(d).clamp(1, d);
        let features = sample_features(d, k, rng);

        let parent_score = impurity(targets, indices, criterion);
        let n = indices.len() as f64;
        let mut best: Option<(usize, usize, f64)> = None; // feature, bin, gain
        let mut offer = |f: usize, b: usize, child: f64| {
            let gain = (parent_score - child).max(0.0);
            if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                best = Some((f, b, gain));
            }
        };
        for &f in &features {
            let nbins = binned.bins(f);
            if nbins < 2 {
                continue; // constant feature: no boundary to place
            }
            let codes = binned.feature_codes(f);
            let hist = &mut moments[..nbins];
            hist.fill((0, 0.0, 0.0));
            let mut total_sum = 0.0f64;
            let mut total_sumsq = 0.0f64;
            for &i in indices {
                let t = targets[i];
                let cell = &mut hist[codes[i] as usize];
                cell.0 += 1;
                cell.1 += t;
                cell.2 += t * t;
                total_sum += t;
                total_sumsq += t * t;
            }
            let mut cnt_left = 0u32;
            let mut sum_left = 0.0f64;
            let mut sumsq_left = 0.0f64;
            for (b, &(c, s, ss)) in hist[..nbins - 1].iter().enumerate() {
                cnt_left += c;
                sum_left += s;
                sumsq_left += ss;
                // A boundary is a candidate only directly after a bin this
                // node actually populates — the histogram counterpart of
                // the exact scan's "between distinct present values" rule,
                // so equal partitions earn equal gains on both paths.
                if c == 0 || cnt_left as f64 >= n {
                    continue;
                }
                let child = child_score(
                    criterion,
                    n,
                    cnt_left as f64,
                    sum_left,
                    sumsq_left,
                    total_sum,
                    total_sumsq,
                );
                offer(f, b, child);
            }
        }
        best.map(|(f, b, _)| (f, b))
    }

    /// Predicted leaf value for one sample.
    pub(crate) fn predict_one(&self, row: &[f64]) -> f64 {
        walk(&self.nodes, row)
    }

    /// Number of nodes (for tests).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// One distinct row of a training sample and how many times the sample
/// holds it (a bootstrap's repeats, or an oversampled minority row). Both
/// are `u32`, as the bin counts are: an index list of 2³² rows would take
/// 32 GiB before it got here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Weighted {
    row: u32,
    weight: u32,
}

/// A histogram cell holds a weight in its low 32 bits and a positive
/// weight in its high 32 bits, so one add updates both. A row of weight `m`
/// adds `m` times its class's unit: `[negative, positive]`.
const CLASS_CELL: [u64; 2] = [1, 1 | 1 << 32];

/// The weighted form of `rows`, an index list over the rows of `labels`
/// with repeats: one entry per distinct row, in ascending row order, split
/// into `[negatives, positives]` (a row is positive when its label is 1).
pub(crate) fn multiplicities(
    labels: &[u8],
    rows: impl IntoIterator<Item = usize>,
) -> [Vec<Weighted>; 2] {
    let mut weights = vec![0u32; labels.len()];
    for row in rows {
        weights[row] += 1;
    }
    let mut sample = [Vec::new(), Vec::new()];
    for (row, (&weight, &label)) in weights.iter().zip(labels).enumerate() {
        if weight > 0 {
            sample[usize::from(label == 1)].push(Weighted {
                row: row as u32,
                weight,
            });
        }
    }
    sample
}

/// Node weights up to which the Gini scan scores only boundary cuts. Up to
/// this weight an interior cut of a run of one-class bins trails the better
/// end of its run by at least `32/n⁵ ≥ 2⁻⁴⁵`, over twenty times what
/// `child_score` and the gain subtraction can round (DESIGN.md §10.2).
/// Heavier nodes score every cut.
const BOUNDARY_SCAN_MAX_WEIGHT: u32 = 1024;

/// A set of bins (`u8` codes) as a 256-bit mask.
#[derive(Debug, Clone, Copy, Default)]
struct BinSet([u64; 4]);

impl BinSet {
    #[inline]
    fn insert(&mut self, b: usize) {
        self.0[b >> 6] |= 1 << (b & 63);
    }

    fn remove(&mut self, b: usize) {
        self.0[b >> 6] &= !(1 << (b & 63));
    }

    fn union(self, other: BinSet) -> BinSet {
        BinSet(std::array::from_fn(|w| self.0[w] | other.0[w]))
    }

    fn len(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    fn last(&self) -> Option<usize> {
        (0..4)
            .rev()
            .find(|&w| self.0[w] != 0)
            .map(|w| w * 64 + 63 - self.0[w].leading_zeros() as usize)
    }

    /// `marks` (a subset of `self`) and, for each of them, the member of
    /// `self` just below it.
    fn with_predecessors(self, marks: BinSet) -> BinSet {
        let mut out = marks;
        // The highest member in the words below the current one.
        let mut top_below: Option<usize> = None;
        for (w, (&members, &marked)) in self.0.iter().zip(&marks.0).enumerate() {
            let mut bits = marked;
            while bits != 0 {
                let lower = members & ((1 << bits.trailing_zeros()) - 1);
                bits &= bits - 1;
                if lower != 0 {
                    out.0[w] |= 1 << (63 - lower.leading_zeros());
                } else if let Some(b) = top_below {
                    out.insert(b);
                }
            }
            if members != 0 {
                top_below = Some(w * 64 + 63 - members.leading_zeros() as usize);
            }
        }
        out
    }
}

/// A node's best split: the feature, the last bin on the left, the clamped
/// gain and the left child's histogram cell.
struct GiniSplit {
    feature: usize,
    bin: usize,
    gain: f64,
    left: u64,
}

/// Grows one Gini classification tree on weighted binned rows.
///
/// Every Gini quantity is an integer count, so a row of multiplicity `m`
/// adds to the node weight, the positives and its bin's cell exactly what
/// `m` copies add, and the scan scores the same `f64`s as on the index list
/// with repeats. It scores only cuts that can be the node's first best
/// split (DESIGN.md §10.2).
struct GiniGrower<'a> {
    binned: &'a BinnedDataset,
    config: &'a DecisionTreeConfig,
    sampler: FeatureSampler,
    /// The searching node's features.
    features: Vec<usize>,
    /// Per bin, a sum of [`CLASS_CELL`] units. All zero between scans: the
    /// walk that reads a cell zeroes it.
    cells: [u64; 256],
    nodes: Vec<Node>,
}

impl GiniGrower<'_> {
    /// Grows the subtree of `rows` (`[negatives, positives]`), whose cells
    /// sum to `node`, in pre-order; returns its root's index. Each child
    /// takes its part of `rows` in place.
    fn grow(
        &mut self,
        rows: [&mut [Weighted]; 2],
        node: u64,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let id = self.nodes.len();
        let (weight, positives) = (node as u32, (node >> 32) as u32);
        if weight == 0 {
            // Degenerate call (empty training selection): an explicit
            // 0-valued leaf beats a NaN mean.
            self.nodes.push(Node::leaf(0.0));
            return id;
        }
        let mean = f64::from(positives) / f64::from(weight);
        let pure = positives == 0 || positives == weight;
        if depth >= self.config.max_depth
            || (weight as usize) < self.config.min_samples_split
            || pure
        {
            self.nodes.push(Node::leaf(mean));
            return id;
        }
        let Some(split) = self.best_split(&rows, node, rng) else {
            self.nodes.push(Node::leaf(mean));
            return id;
        };
        let codes = self.binned.feature_codes(split.feature);
        let [(negatives_left, negatives_right), (positives_left, positives_right)] =
            rows.map(|class| {
                let mut mid = 0;
                for i in 0..class.len() {
                    if usize::from(codes[class[i].row as usize]) <= split.bin {
                        class.swap(i, mid);
                        mid += 1;
                    }
                }
                class.split_at_mut(mid)
            });
        if negatives_left.len() + positives_left.len() == 0
            || negatives_right.len() + positives_right.len() == 0
        {
            self.nodes.push(Node::leaf(mean));
            return id;
        }
        self.nodes.push(Node::leaf(mean)); // placeholder
        let left = self.grow([negatives_left, positives_left], split.left, depth + 1, rng);
        let right = self.grow(
            [negatives_right, positives_right],
            node - split.left,
            depth + 1,
            rng,
        );
        debug_assert_eq!(left, id + 1);
        self.nodes[id] = Node::split(
            split.feature,
            self.binned.threshold(split.feature, split.bin),
            right,
        );
        id
    }

    /// The first best-gain cut over a fresh draw of features, in draw
    /// order and ascending bins, with the exact scan's `child_score`,
    /// `max(0.0)` clamp and strict `>` tie-break.
    fn best_split(
        &mut self,
        rows: &[&mut [Weighted]; 2],
        node: u64,
        rng: &mut StdRng,
    ) -> Option<GiniSplit> {
        let d = self.binned.features();
        if d == 0 {
            return None; // a featureless matrix has nothing to split on
        }
        let k = self.config.max_features.unwrap_or(d).clamp(1, d);
        self.sampler.draw(k, rng, &mut self.features);

        let (weight, positives) = (node as u32, (node >> 32) as u32);
        let n = f64::from(weight);
        let p = f64::from(positives) / n;
        let parent_score = 2.0 * p * (1.0 - p);
        let boundary_only = weight <= BOUNDARY_SCAN_MAX_WEIGHT;
        let mut best: Option<GiniSplit> = None;
        for &f in &self.features {
            if self.binned.bins(f) < 2 {
                continue; // constant feature: no boundary to place
            }
            let codes = self.binned.feature_codes(f);
            // Bins holding a negative, bins holding a positive.
            let mut held = [BinSet::default(); 2];
            for ((class, held), unit) in rows.iter().zip(&mut held).zip(CLASS_CELL) {
                for r in class.iter() {
                    let c = usize::from(codes[r.row as usize]);
                    self.cells[c] += u64::from(r.weight) * unit;
                    held.insert(c);
                }
            }
            let occupied = held[0].union(held[1]);
            let Some(last) = occupied.last() else {
                continue;
            };
            // A cut whose own bin and next populated bin both lack one
            // class scores strictly worse than a cut next to a bin of that
            // class, so only cuts at or just before such bins are scored.
            // Either class will do: the rarer one's bins mark fewer cuts.
            // The last populated bin holds the node's remaining rows and is
            // no cut.
            let mut scored = if boundary_only {
                let rare = if held[1].len() <= held[0].len() {
                    held[1]
                } else {
                    held[0]
                };
                occupied.with_predecessors(rare)
            } else {
                occupied
            };
            scored.remove(last);

            let mut left = 0u64;
            for (w, (&occupied_w, &scored_w)) in occupied.0.iter().zip(&scored.0).enumerate() {
                let mut bits = occupied_w;
                while bits != 0 {
                    let t = bits.trailing_zeros();
                    bits &= bits - 1;
                    let b = w * 64 + t as usize;
                    left += std::mem::take(&mut self.cells[b]);
                    if scored_w >> t & 1 == 0 {
                        continue;
                    }
                    let child = child_score(
                        Criterion::Gini,
                        n,
                        f64::from(left as u32),
                        f64::from((left >> 32) as u32),
                        0.0,
                        f64::from(positives),
                        0.0,
                    );
                    let gain = (parent_score - child).max(0.0);
                    if best.as_ref().is_none_or(|s| gain > s.gain) {
                        best = Some(GiniSplit {
                            feature: f,
                            bin: b,
                            gain,
                            left,
                        });
                    }
                }
            }
        }
        best
    }
}

impl Codec for DecisionTreeConfig {
    fn encode(&self, w: &mut Writer) {
        w.len_prefix(self.max_depth);
        w.len_prefix(self.min_samples_split);
        self.max_features.encode(w);
        w.bool(self.balance_classes);
        self.split.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(DecisionTreeConfig {
            max_depth: usize::decode(r)?,
            min_samples_split: usize::decode(r)?,
            max_features: Codec::decode(r)?,
            balance_classes: r.bool()?,
            split: Codec::decode(r)?,
        })
    }
}

fn impurity(targets: &[f64], indices: &[usize], criterion: Criterion) -> f64 {
    let n = indices.len() as f64;
    match criterion {
        Criterion::Gini => {
            let p = indices.iter().map(|&i| targets[i]).sum::<f64>() / n;
            2.0 * p * (1.0 - p)
        }
        Criterion::Mse => {
            let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / n;
            indices
                .iter()
                .map(|&i| (targets[i] - mean) * (targets[i] - mean))
                .sum::<f64>()
                / n
        }
    }
}

/// A single CART classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: DecisionTreeConfig,
    pub(crate) seed: u64,
    pub(crate) tree: Option<GrownTree>,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn with_config(config: DecisionTreeConfig, seed: u64) -> Self {
        DecisionTree {
            config,
            seed,
            tree: None,
        }
    }

    /// Shared fit body; `shared` is an optional pre-built binned view of
    /// `x`.
    fn fit_impl(
        &mut self,
        x: &Matrix,
        y: &[u8],
        shared: Option<&BinnedDataset>,
    ) -> Result<(), MlError> {
        check_fit(x, y)?;
        let binned = self.config.split.binned_view(x, shared);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let indices = if self.config.balance_classes {
            balanced_indices(y, &mut rng)
        } else {
            (0..y.len()).collect()
        };
        self.tree = Some(match binned.as_deref() {
            Some(b) => GrownTree::grow_gini(b, multiplicities(y, indices), &self.config, &mut rng),
            None => {
                let targets: Vec<f64> = y.iter().map(|&v| v as f64).collect();
                GrownTree::grow(
                    x,
                    &targets,
                    &indices,
                    Criterion::Gini,
                    &self.config,
                    &mut rng,
                )
            }
        });
        Ok(())
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree::with_config(DecisionTreeConfig::default(), 0)
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        self.fit_impl(x, y, None)
    }

    fn fit_prepared(&mut self, x: &Matrix, y: &[u8], prep: &Prepared) -> Result<(), MlError> {
        self.fit_impl(x, y, prep.binned())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let tree = self.tree.as_ref().ok_or(MlError::NotFitted)?;
        check_predict(x, Some(tree.n_features))?;
        Ok(x.iter_rows().map(|row| tree.predict_one(row)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Gini histogram grower [`GiniGrower`] replaced, kept as its
    /// oracle: nodes carry the index list with repeats, the fill visits
    /// every repeat, and every populated bin but the last is scored.
    fn reference_gini(
        binned: &BinnedDataset,
        targets: &[f64],
        indices: &[usize],
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> GrownTree {
        let mut tree = GrownTree {
            nodes: Vec::new(),
            n_features: binned.features(),
        };
        let labels: Vec<u8> = targets.iter().map(|&t| t as u8).collect();
        reference_node(
            &mut tree,
            binned,
            targets,
            &labels,
            indices.to_vec(),
            config,
            rng,
            0,
        );
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_node(
        tree: &mut GrownTree,
        binned: &BinnedDataset,
        targets: &[f64],
        labels: &[u8],
        indices: Vec<usize>,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        depth: usize,
    ) -> usize {
        let mean = match tree.stop_or_mean(targets, &indices, config, depth) {
            Ok(mean) => mean,
            Err(id) => return id,
        };
        let id = tree.nodes.len();
        let Some((feature, bin)) = reference_split(binned, targets, labels, &indices, config, rng)
        else {
            tree.nodes.push(Node::leaf(mean));
            return id;
        };
        let codes = binned.feature_codes(feature);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| codes[i] as usize <= bin);
        tree.nodes.push(Node::leaf(mean));
        if left_idx.is_empty() || right_idx.is_empty() {
            return id;
        }
        let grow = |tree: &mut GrownTree, idx, rng: &mut StdRng| {
            reference_node(tree, binned, targets, labels, idx, config, rng, depth + 1)
        };
        let left = grow(tree, left_idx, rng);
        let right = grow(tree, right_idx, rng);
        debug_assert_eq!(left, id + 1);
        tree.nodes[id] = Node::split(feature, binned.threshold(feature, bin), right);
        id
    }

    fn reference_split(
        binned: &BinnedDataset,
        targets: &[f64],
        labels: &[u8],
        indices: &[usize],
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, usize)> {
        let d = binned.features();
        if d == 0 {
            return None;
        }
        let k = config.max_features.unwrap_or(d).clamp(1, d);
        let features = sample_features(d, k, rng);
        let parent_score = impurity(targets, indices, Criterion::Gini);
        let n = indices.len() as f64;
        let positives: u32 = indices.iter().map(|&i| u32::from(labels[i])).sum();
        let mut best: Option<(usize, usize, f64)> = None; // feature, bin, gain
        for &f in &features {
            if binned.bins(f) < 2 {
                continue;
            }
            let codes = binned.feature_codes(f);
            let mut counts = [(0u32, 0u32); 256];
            for &i in indices {
                let cell = &mut counts[codes[i] as usize];
                cell.0 += 1;
                cell.1 += u32::from(labels[i]);
            }
            let (mut cnt_left, mut pos_left) = (0u32, 0u32);
            for (b, &(c, p)) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cnt_left += c;
                pos_left += p;
                if cnt_left as usize >= indices.len() {
                    continue;
                }
                let child = child_score(
                    Criterion::Gini,
                    n,
                    f64::from(cnt_left),
                    f64::from(pos_left),
                    0.0,
                    f64::from(positives),
                    0.0,
                );
                let gain = (parent_score - child).max(0.0);
                if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((f, b, gain));
                }
            }
        }
        best.map(|(f, b, _)| (f, b))
    }

    /// A tree's nodes as comparable bits: feature, threshold or leaf bits,
    /// right child.
    fn node_bits(tree: &GrownTree) -> Vec<(u32, u64, u32)> {
        tree.nodes
            .iter()
            .map(|node| (node.feature, node.value.to_bits(), node.right))
            .collect()
    }

    /// A corpus, a sample over it with repeats and a growth config, built
    /// from `seed` in one of six shapes:
    /// 0. continuous features thinned to 256 bins, a bootstrap;
    /// 1. duplicate-heavy: a few rows drawn over and over;
    /// 2. a single positive row;
    /// 3. positives in one band of feature 0, so positive-only bins run;
    /// 4. a checkerboard (XOR at two levels) held evenly, so every root
    ///    cut's exact gain is 0 and, up to rounding, the first cut wins;
    /// 5. a few rows with multiplicities in the hundreds, so node weights
    ///    fall on both sides of [`BOUNDARY_SCAN_MAX_WEIGHT`].
    fn gini_case(shape: u8, seed: u64) -> (Matrix, Vec<u8>, Vec<usize>, DecisionTreeConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, y, indices) = match shape {
            4 => checkerboard(&mut rng),
            _ => sampled_rows(shape, &mut rng),
        };
        let d = rows[0].len();
        let config = DecisionTreeConfig {
            max_depth: rng.random_range(1..14),
            min_samples_split: rng.random_range(2..8),
            max_features: match rng.random_range(0..=d) {
                0 => None,
                k => Some(k),
            },
            balance_classes: false,
            split: SplitStrategy::histogram(),
        };
        (Matrix::from_vec_rows(rows), y, indices, config)
    }

    /// Every cell of a `levels × levels` checkerboard once, each with the
    /// same multiplicity: every cut's left side keeps the node's class
    /// balance exactly.
    fn checkerboard(rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<u8>, Vec<usize>) {
        let levels = 2 * rng.random_range(1..4usize);
        let weight = rng.random_range(1..120usize);
        let cells: Vec<(usize, usize)> = (0..levels)
            .flat_map(|a| (0..levels).map(move |b| (a, b)))
            .collect();
        let rows = cells
            .iter()
            .map(|&(a, b)| vec![a as f64, b as f64])
            .collect();
        let y = cells
            .iter()
            .map(|&(a, b)| u8::from((a + b) % 2 == 1))
            .collect();
        let indices = (0..cells.len())
            .flat_map(|i| std::iter::repeat_n(i, weight))
            .collect();
        (rows, y, indices)
    }

    /// Shapes 0–3 and 5 of [`gini_case`].
    fn sampled_rows(shape: u8, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<u8>, Vec<usize>) {
        let n = match shape {
            0 => rng.random_range(260..400),
            5 => rng.random_range(4..24),
            _ => rng.random_range(6..80),
        };
        let d = rng.random_range(1..6usize);
        let levels = if shape == 0 {
            0
        } else {
            rng.random_range(2..40u32)
        };
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| match levels {
                        0 => rng.random_range(-10.0..10.0),
                        l => f64::from(rng.random_range(0..l)),
                    })
                    .collect()
            })
            .collect();
        let rate = rng.random_range(1..50u32);
        let mut y: Vec<u8> = match shape {
            2 => {
                let mut y = vec![0; n];
                y[rng.random_range(0..n)] = 1;
                y
            }
            3 => {
                let lo = rows[rng.random_range(0..n)][0];
                let hi = rows[rng.random_range(0..n)][0];
                rows.iter()
                    .map(|r| u8::from((lo.min(hi)..=lo.max(hi)).contains(&r[0])))
                    .collect()
            }
            _ => (0..n)
                .map(|_| u8::from(rng.random_range(0..100u32) < rate))
                .collect(),
        };
        if y.iter().all(|&v| v == y[0]) {
            y[0] ^= 1;
        }
        let indices: Vec<usize> = match shape {
            1 => {
                let pool: Vec<usize> = (0..rng.random_range(2..8usize))
                    .map(|_| rng.random_range(0..n))
                    .collect();
                (0..rng.random_range(20..1500usize))
                    .map(|_| pool[rng.random_range(0..pool.len())])
                    .collect()
            }
            5 => (0..n)
                .flat_map(|i| std::iter::repeat_n(i, rng.random_range(1..300usize)))
                .collect(),
            _ => {
                let base = balanced_indices(&y, rng);
                (0..base.len())
                    .map(|_| base[rng.random_range(0..base.len())])
                    .collect()
            }
        };
        (rows, y, indices)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The weighted grower grows the oracle's tree node for node, and
        /// leaves the RNG where the oracle leaves it.
        #[test]
        fn gini_grower_matches_the_index_list_oracle(shape in 0u8..6, seed in 0u64..u64::MAX) {
            let (x, y, indices, config) = gini_case(shape, seed);
            let binned = BinnedDataset::build(&x, 256);
            let targets: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
            let mut oracle_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut rng = oracle_rng.clone();
            let oracle = reference_gini(&binned, &targets, &indices, &config, &mut oracle_rng);
            let sample = multiplicities(&y, indices.iter().copied());
            let grown = GrownTree::grow_gini(&binned, sample, &config, &mut rng);
            prop_assert_eq!(node_bits(&grown), node_bits(&oracle), "shape {} seed {}", shape, seed);
            prop_assert_eq!(grown.n_features, oracle.n_features);
            prop_assert!(rng == oracle_rng, "RNG drawn differently: shape {} seed {}", shape, seed);
        }
    }

    #[test]
    fn gini_cases_cover_both_sides_of_the_weight_guard() {
        let guard = BOUNDARY_SCAN_MAX_WEIGHT as usize;
        for shape in [4, 5] {
            let weights: Vec<usize> = (0..64).map(|seed| gini_case(shape, seed).2.len()).collect();
            assert!(weights.iter().any(|&w| w > 2 * guard), "{weights:?}");
            assert!(weights.iter().any(|&w| w <= guard), "{weights:?}");
        }
        let (x, ..) = gini_case(0, 1);
        assert_eq!(BinnedDataset::build(&x, 256).bins(0), 256);
    }

    #[test]
    fn feature_sampler_restores_the_identity_between_draws() {
        let mut sampler = FeatureSampler::new(9);
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        for k in [1, 4, 9, 3] {
            let mut fresh_rng = rng.clone();
            sampler.draw(k, &mut rng, &mut out);
            let mut fresh: Vec<usize> = (0..9).collect();
            for i in 0..k {
                let j = fresh_rng.random_range(i..9);
                fresh.swap(i, j);
            }
            assert_eq!(out, fresh[..k]);
            assert_eq!(sampler.order, (0..9).collect::<Vec<_>>());
        }
    }

    fn xor_data() -> (Matrix, Vec<u8>) {
        // XOR pattern: not linearly separable, solvable by a depth-2 tree
        // only when zero-gain splits are allowed (the first split has no
        // immediate impurity gain).
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            rows.push(vec![a, b]);
            labels.push(u8::from((a > 0.5) != (b > 0.5)));
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn tree_learns_xor() {
        let (x, y) = xor_data();
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                min_samples_split: 2,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert_eq!(correct, y.len(), "depth-2 tree solves XOR exactly");
    }

    #[test]
    fn depth_one_tree_cannot_learn_xor() {
        let (x, y) = xor_data();
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                max_depth: 1,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct < y.len(), "a stump must fail on XOR");
    }

    #[test]
    fn pure_leaf_stops_growth() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [0, 0, 0, 0];
        let mut clf = DecisionTree::default();
        clf.fit(&x, &y).unwrap();
        assert_eq!(clf.tree.as_ref().unwrap().node_count(), 1);
        assert!(clf.predict_proba(&x).unwrap().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn probabilities_reflect_leaf_composition() {
        // Depth-1 stump on alternating labels: best split isolates the
        // first sample; the right leaf stays mixed at 2/3 positive.
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [0, 1, 0, 1];
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                max_depth: 1,
                min_samples_split: 2,
                balance_classes: false,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let p = clf
            .predict_proba(&Matrix::from_rows(&[&[-1.0], &[2.9]]))
            .unwrap();
        assert!((p[0] - 0.0).abs() < 1e-9, "pure left leaf: {}", p[0]);
        assert!(
            (p[1] - 2.0 / 3.0).abs() < 1e-9,
            "mixed right leaf: {}",
            p[1]
        );
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]);
        let targets = [1.0, 1.2, 0.8, 5.0, 5.2, 4.8];
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..6).collect();
        let tree = GrownTree::grow(
            &x,
            &targets,
            &idx,
            Criterion::Mse,
            &DecisionTreeConfig {
                max_depth: 1,
                min_samples_split: 2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!((tree.predict_one(&[1.0]) - 1.0).abs() < 0.2);
        assert!((tree.predict_one(&[11.0]) - 5.0).abs() < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data();
        let mut a = DecisionTree::with_config(DecisionTreeConfig::default(), 9);
        let mut b = DecisionTree::with_config(DecisionTreeConfig::default(), 9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn unfitted_errors() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(
            DecisionTree::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    fn histogram_tree_learns_xor() {
        let (x, y) = xor_data();
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                min_samples_split: 2,
                split: SplitStrategy::histogram(),
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert_eq!(correct, y.len(), "binned depth-2 tree solves XOR exactly");
    }

    #[test]
    fn histogram_matches_exact_on_separable_data() {
        // Distinct values ≤ bin budget: candidate thresholds are the same
        // midpoints, so both strategies grow identical predictors.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = (i % 10) as f64;
            let b = ((i * 7) % 13) as f64;
            rows.push(vec![a, b]);
            labels.push(u8::from(a + 0.5 * b > 6.0));
        }
        let x = Matrix::from_vec_rows(rows);
        let mut exact = DecisionTree::with_config(DecisionTreeConfig::default(), 5);
        let mut binned = DecisionTree::with_config(
            DecisionTreeConfig {
                split: SplitStrategy::histogram(),
                ..Default::default()
            },
            5,
        );
        exact.fit(&x, &labels).unwrap();
        binned.fit(&x, &labels).unwrap();
        assert_eq!(
            exact.predict_proba(&x).unwrap(),
            binned.predict_proba(&x).unwrap()
        );
    }

    // --- degenerate-input regressions -----------------------------------

    #[test]
    fn constant_features_yield_single_leaf() {
        // Every feature constant: no split exists on either path.
        let row: &[f64] = &[2.0, 7.0];
        let x = Matrix::from_rows(&[row; 8]);
        let y = [0, 1, 0, 1, 0, 1, 0, 1];
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    split,
                    balance_classes: false,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &y).unwrap();
            assert_eq!(clf.tree.as_ref().unwrap().node_count(), 1);
            let p = clf.predict_proba(&x).unwrap();
            assert!(p.iter().all(|&v| (v - 0.5).abs() < 1e-12));
        }
    }

    #[test]
    fn single_class_input_is_a_pure_leaf() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    split,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &[1, 1, 1]).unwrap();
            assert_eq!(clf.tree.as_ref().unwrap().node_count(), 1);
            assert!(clf.predict_proba(&x).unwrap().iter().all(|&p| p == 1.0));
        }
    }

    #[test]
    fn fewer_samples_than_min_split_is_a_leaf() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let y = [0, 1];
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    min_samples_split: 10,
                    balance_classes: false,
                    split,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &y).unwrap();
            assert_eq!(clf.tree.as_ref().unwrap().node_count(), 1);
        }
    }

    #[test]
    fn zero_feature_matrix_grows_leaf_without_panicking() {
        // d == 0 used to panic in best_split via clamp(1, 0).
        let mut x = Matrix::with_cols(0);
        for _ in 0..6 {
            x.push_row(&[]);
        }
        let y = [0, 1, 0, 1, 0, 1];
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    min_samples_split: 2,
                    balance_classes: false,
                    split,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &y).unwrap();
            assert_eq!(clf.tree.as_ref().unwrap().node_count(), 1);
        }
    }

    #[test]
    fn empty_indices_grow_a_zero_leaf() {
        // Direct regression for the empty-selection panic in grow_node.
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let targets = [0.0, 1.0];
        let mut rng = StdRng::seed_from_u64(0);
        let tree = GrownTree::grow(
            &x,
            &targets,
            &[],
            Criterion::Mse,
            &DecisionTreeConfig::default(),
            &mut rng,
        );
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_one(&[0.5]), 0.0);
    }

    #[test]
    fn nan_feature_values_do_not_panic() {
        // total_cmp sorts NaN last instead of panicking mid-sort.
        let x = Matrix::from_rows(&[&[0.0], &[f64::NAN], &[2.0], &[3.0]]);
        let y = [0, 0, 1, 1];
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                min_samples_split: 2,
                balance_classes: false,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        assert!(clf.predict(&x).is_ok());
    }

    #[test]
    fn split_strategy_codec_roundtrip() {
        for s in [
            SplitStrategy::Exact,
            SplitStrategy::histogram(),
            SplitStrategy::Histogram { max_bins: 64 },
        ] {
            let mut w = Writer::new();
            s.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(SplitStrategy::decode(&mut r).unwrap(), s);
        }
        // Out-of-range budget rejected.
        let mut w = Writer::new();
        w.u8(1);
        w.u32(1);
        let bytes = w.into_bytes();
        assert!(SplitStrategy::decode(&mut Reader::new(&bytes)).is_err());
    }
}
