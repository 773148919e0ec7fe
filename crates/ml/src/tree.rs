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

/// A grown tree: flat node arena.
#[derive(Debug, Clone)]
pub(crate) enum TreeNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
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
    nodes: Vec<TreeNode>,
    pub(crate) n_features: usize,
}

/// Shared scratch for one tree's histogram growth: per-bin target
/// statistics, reused across nodes and features to avoid per-node
/// allocation.
struct HistScratch {
    /// `Mse`, per bin: (count, Σy, Σy²), cleared before each feature.
    moments: Vec<(u32, f64, f64)>,
    /// `Gini`: the 0/1 targets as integers.
    labels: Vec<u8>,
    /// `Gini`, per bin: (count, positives). All zero between features: the
    /// scan that reads a cell zeroes it.
    counts: [(u32, u32); 256],
}

/// Samples `k` distinct features via partial Fisher–Yates; both split
/// strategies share this so they consume the RNG identically and examine
/// features in the same order.
fn sample_features(d: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut features: Vec<usize> = (0..d).collect();
    for i in 0..k {
        let j = rng.random_range(i..d);
        features.swap(i, j);
    }
    features.truncate(k);
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

    /// Grows a tree on `(binned[indices], targets[indices])` with histogram
    /// split finding. The resulting tree stores real `f64` thresholds, so
    /// prediction runs on raw feature rows — binning is a training-time
    /// concern only.
    pub(crate) fn grow_binned(
        binned: &BinnedDataset,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> GrownTree {
        let mut tree = GrownTree {
            nodes: Vec::new(),
            n_features: binned.features(),
        };
        let gini = criterion == Criterion::Gini;
        let mut scratch = HistScratch {
            moments: if gini {
                Vec::new()
            } else {
                vec![(0, 0.0, 0.0); binned.widest()]
            },
            // Gini targets are labels (`y as f64`), so the cast is exact.
            labels: if gini {
                targets.iter().map(|&t| t as u8).collect()
            } else {
                Vec::new()
            },
            counts: [(0, 0); 256],
        };
        let root_indices: Vec<usize> = indices.to_vec();
        tree.grow_node_binned(
            binned,
            targets,
            root_indices,
            criterion,
            config,
            rng,
            0,
            &mut scratch,
        );
        tree
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
            self.nodes.push(TreeNode::Leaf { value: 0.0 });
            return Err(id);
        }
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64;
        let pure = indices
            .iter()
            .all(|&i| (targets[i] - targets[indices[0]]).abs() < 1e-12);
        if depth >= config.max_depth || indices.len() < config.min_samples_split || pure {
            let id = self.nodes.len();
            self.nodes.push(TreeNode::Leaf { value: mean });
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
            self.nodes.push(TreeNode::Leaf { value: mean });
            return id;
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| x.get(i, feature) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            let id = self.nodes.len();
            self.nodes.push(TreeNode::Leaf { value: mean });
            return id;
        }

        // Reserve the split slot, then grow children.
        let id = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { value: mean }); // placeholder
        let left = self.grow_node(x, targets, left_idx, criterion, config, rng, depth + 1);
        let right = self.grow_node(x, targets, right_idx, criterion, config, rng, depth + 1);
        self.nodes[id] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn grow_node_binned(
        &mut self,
        binned: &BinnedDataset,
        targets: &[f64],
        indices: Vec<usize>,
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        depth: usize,
        scratch: &mut HistScratch,
    ) -> usize {
        let mean = match self.stop_or_mean(targets, &indices, config, depth) {
            Ok(mean) => mean,
            Err(id) => return id,
        };

        let best =
            self.best_split_binned(binned, targets, &indices, criterion, config, rng, scratch);
        let Some((feature, bin)) = best else {
            let id = self.nodes.len();
            self.nodes.push(TreeNode::Leaf { value: mean });
            return id;
        };

        let codes = binned.feature_codes(feature);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| codes[i] as usize <= bin);
        if left_idx.is_empty() || right_idx.is_empty() {
            let id = self.nodes.len();
            self.nodes.push(TreeNode::Leaf { value: mean });
            return id;
        }

        let threshold = binned.threshold(feature, bin);
        let id = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { value: mean }); // placeholder
        let left = self.grow_node_binned(
            binned,
            targets,
            left_idx,
            criterion,
            config,
            rng,
            depth + 1,
            scratch,
        );
        let right = self.grow_node_binned(
            binned,
            targets,
            right_idx,
            criterion,
            config,
            rng,
            depth + 1,
            scratch,
        );
        self.nodes[id] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
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

    /// Histogram analogue of [`best_split`](Self::best_split): accumulate
    /// per-bin statistics in one pass over the node's samples, then scan
    /// bin boundaries. Returns the winning `(feature, bin)`; the split
    /// threshold is `binned.threshold(feature, bin)`.
    ///
    /// `Gini` counts `(samples, positives)` per bin in integers and visits
    /// only the bins the node populates; the counts convert to exactly the
    /// `f64` label sums the `(count, Σy, Σy²)` path adds up, so both score
    /// every candidate identically.
    #[allow(clippy::too_many_arguments)]
    fn best_split_binned(
        &self,
        binned: &BinnedDataset,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        scratch: &mut HistScratch,
    ) -> Option<(usize, usize)> {
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
        let HistScratch {
            moments,
            labels,
            counts,
        } = scratch;
        // The node's positives, the same for every feature.
        let positives: u32 = match criterion {
            Criterion::Gini => indices.iter().map(|&i| u32::from(labels[i])).sum(),
            Criterion::Mse => 0,
        };
        for &f in &features {
            let nbins = binned.bins(f);
            if nbins < 2 {
                continue; // constant feature: no boundary to place
            }
            let codes = binned.feature_codes(f);
            if criterion == Criterion::Gini {
                let mut occupied = [0u64; 4];
                for &i in indices {
                    let c = codes[i];
                    let cell = &mut counts[c as usize];
                    cell.0 += 1;
                    cell.1 += u32::from(labels[i]);
                    occupied[usize::from(c >> 6)] |= 1 << (c & 63);
                }
                // Populated bins in ascending order. The last one holds
                // the node's remaining samples and is no boundary.
                let (mut cnt_left, mut pos_left) = (0u32, 0u32);
                for (word, mut bits) in occupied.into_iter().enumerate() {
                    while bits != 0 {
                        let b = word * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let (c, p) = std::mem::take(&mut counts[b]);
                        cnt_left += c;
                        pos_left += p;
                        if cnt_left as usize >= indices.len() {
                            continue;
                        }
                        let child = child_score(
                            criterion,
                            n,
                            f64::from(cnt_left),
                            f64::from(pos_left),
                            0.0,
                            f64::from(positives),
                            0.0,
                        );
                        offer(f, b, child);
                    }
                }
                continue;
            }
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
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (for tests).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

impl Codec for TreeNode {
    fn encode(&self, w: &mut Writer) {
        match self {
            TreeNode::Leaf { value } => {
                w.u8(0);
                w.f64(*value);
            }
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                w.u8(1);
                w.len_prefix(*feature);
                w.f64(*threshold);
                w.len_prefix(*left);
                w.len_prefix(*right);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.u8()? {
            0 => TreeNode::Leaf { value: r.f64()? },
            1 => TreeNode::Split {
                feature: usize::decode(r)?,
                threshold: r.f64()?,
                left: usize::decode(r)?,
                right: usize::decode(r)?,
            },
            tag => {
                return Err(ArtifactError::Malformed {
                    reason: format!("unknown tree-node tag {tag}"),
                })
            }
        })
    }
}

impl Codec for GrownTree {
    fn encode(&self, w: &mut Writer) {
        self.nodes.encode(w);
        w.len_prefix(self.n_features);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let nodes: Vec<TreeNode> = Codec::decode(r)?;
        let n_features = usize::decode(r)?;
        // A decoded tree is traversed without bounds pre-checks, so child
        // indices must stay inside the arena.
        for node in &nodes {
            if let TreeNode::Split { left, right, .. } = node {
                if *left >= nodes.len() || *right >= nodes.len() {
                    return Err(ArtifactError::Malformed {
                        reason: "tree child index out of bounds".into(),
                    });
                }
            }
        }
        Ok(GrownTree { nodes, n_features })
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

impl Codec for DecisionTree {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.u64(self.seed);
        self.tree.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(DecisionTree {
            config: Codec::decode(r)?,
            seed: r.u64()?,
            tree: Codec::decode(r)?,
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
    seed: u64,
    tree: Option<GrownTree>,
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
        let targets: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let indices = if self.config.balance_classes {
            balanced_indices(y, &mut rng)
        } else {
            (0..y.len()).collect()
        };
        self.tree = Some(match binned.as_deref() {
            Some(b) => GrownTree::grow_binned(
                b,
                &targets,
                &indices,
                Criterion::Gini,
                &self.config,
                &mut rng,
            ),
            None => GrownTree::grow(
                x,
                &targets,
                &indices,
                Criterion::Gini,
                &self.config,
                &mut rng,
            ),
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

    fn encode_state(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
