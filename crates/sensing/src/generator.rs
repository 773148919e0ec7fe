//! Failure-scenario sampling and training-set generation (Phase I input).
//!
//! "For each simulation run, there is at least one and at most 5 leak
//! events, and the number of events follows the uniform distribution i.e.
//! U(1,5). The leak events are generated with arbitrary locations and sizes
//! but same starting time … The change on pressure heads and flow rates is
//! then computed by taking the differences between the sensing values at
//! e.t−1 and e.t+n." (Sec. V-A)

use std::fmt;

use aqua_hydraulics::{
    solve_snapshot_recovering_traced, solve_snapshot_traced, ExtendedPeriodSim, HydraulicError,
    LeakEvent, Scenario, Snapshot, SolverOptions, SolverWorkspace, WarmStart,
};
use aqua_ml::work::par_map_indexed;
use aqua_ml::Matrix;
use aqua_net::{Network, NodeId};
use aqua_telemetry::{MetricsSnapshot, TelemetryCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{mix2, FaultInjector};
use crate::features::{extract_features, extract_features_degraded, FeatureConfig};
use crate::sensor::SensorSet;

/// Errors from dataset generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SensingError {
    /// The underlying hydraulic solve failed.
    Hydraulic(HydraulicError),
    /// The network has no junctions to leak at.
    NoJunctions,
    /// A corpus slot could not be filled within the resample budget.
    ResampleExhausted {
        /// The corpus slot that failed.
        sample: usize,
        /// Scenario draws attempted (1 + resample limit).
        attempts: usize,
        /// The hydraulic failure of the final attempt.
        last: HydraulicError,
    },
}

impl fmt::Display for SensingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensingError::Hydraulic(e) => write!(f, "hydraulic failure: {e}"),
            SensingError::NoJunctions => write!(f, "network has no junctions"),
            SensingError::ResampleExhausted {
                sample,
                attempts,
                last,
            } => write!(
                f,
                "corpus slot {sample} still failing after {attempts} scenario draws \
                 (last error: {last})"
            ),
        }
    }
}

impl std::error::Error for SensingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SensingError::Hydraulic(e) => Some(e),
            SensingError::ResampleExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<HydraulicError> for SensingError {
    fn from(e: HydraulicError) -> Self {
        SensingError::Hydraulic(e)
    }
}

/// Draws random multi-leak scenarios: `U(1, max_events)` concurrent leaks at
/// distinct random junctions with sizes `U(ec_range)`, all starting at
/// `leak_start`.
#[derive(Debug, Clone)]
pub struct ScenarioSampler {
    junctions: Vec<NodeId>,
    /// Maximum concurrent leak events (paper: 5).
    pub max_events: usize,
    /// Emitter-coefficient range (leak size `e.s`).
    pub ec_range: (f64, f64),
    /// Leak start time `e.t`, seconds.
    pub leak_start: u64,
}

impl ScenarioSampler {
    /// Creates a sampler over the junctions of `net` with the paper's
    /// defaults: up to 5 events, start at the 8th 15-minute slot.
    pub fn new(net: &Network) -> Self {
        ScenarioSampler {
            junctions: net.junction_ids(),
            max_events: 5,
            ec_range: (0.002, 0.02),
            leak_start: 8 * 900,
        }
    }

    /// Draws one scenario.
    ///
    /// # Panics
    ///
    /// Panics if the network has no junctions.
    pub fn sample(&self, rng: &mut StdRng) -> Scenario {
        assert!(!self.junctions.is_empty(), "no junctions to leak at");
        let m = rng.random_range(1..=self.max_events.min(self.junctions.len()));
        // Partial Fisher–Yates for m distinct locations.
        let mut pool: Vec<NodeId> = self.junctions.clone();
        let mut leaks = Vec::with_capacity(m);
        for i in 0..m {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
            let ec = rng.random_range(self.ec_range.0..self.ec_range.1);
            leaks.push(LeakEvent::new(pool[i], ec, self.leak_start));
        }
        Scenario::new().with_leaks(leaks)
    }
}

/// Salt decorrelating replacement-draw seeds from the primary `seed + i`
/// stream (a replacement must never replay another slot's scenario).
const RESAMPLE_SALT: u64 = 0xace1_2b67_9d41_55c3;

/// Per-sample generation bookkeeping, rolled up into [`BuildSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SampleStats {
    /// Extra scenario draws needed beyond the first (0 = clean).
    resamples: usize,
    /// Solver recovery-ladder actions that fired for this sample.
    recoveries: usize,
    /// Sensor channels whose delta had to be imputed (missing readings).
    imputed: usize,
    /// Nanoseconds spent in hydraulic solves (telemetry only; 0 when
    /// telemetry is disabled).
    solve_ns: u64,
    /// Nanoseconds spent in feature extraction (telemetry only).
    feature_ns: u64,
}

/// One generated corpus row: the feature vector, its ground-truth scenario
/// and the generation bookkeeping (or the terminal failure hit while
/// producing it).
type SampleRow = Result<(Vec<f64>, Scenario, SampleStats), SensingError>;

/// What it took to build a corpus: how many slots needed scenario
/// resampling, how often the solver recovery ladder fired, and how many
/// sensor readings were imputed. All counts are per-sample deterministic,
/// so the summary — like the corpus itself — is identical for any builder
/// thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildSummary {
    /// Corpus slots that needed at least one replacement scenario draw.
    pub resampled_slots: usize,
    /// Total replacement scenario draws across all slots.
    pub resample_draws: usize,
    /// Total solver recovery-ladder actions across all solves.
    pub solver_recoveries: usize,
    /// Total sensor-channel deltas imputed due to missing readings.
    pub imputed_readings: usize,
}

impl BuildSummary {
    /// `true` when the corpus was produced without any retry, recovery or
    /// imputation.
    pub fn is_pristine(&self) -> bool {
        *self == BuildSummary::default()
    }

    /// Reconstructs a summary from the `sensing.build.*` counters of a
    /// telemetry snapshot — the summary is a thin view over the metrics
    /// registry, not a separate bookkeeping channel. When several builds
    /// ran through the same hub this reflects their running totals.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> BuildSummary {
        BuildSummary {
            resampled_slots: snap.counter("sensing.build.resampled_slots") as usize,
            resample_draws: snap.counter("sensing.build.resample_draws") as usize,
            solver_recoveries: snap.counter("sensing.build.solver_recoveries") as usize,
            imputed_readings: snap.counter("sensing.build.imputed_readings") as usize,
        }
    }
}

/// A generated training/testing corpus.
#[derive(Debug, Clone)]
pub struct LeakDataset {
    /// Feature matrix: one row per scenario.
    pub x: Matrix,
    /// Per-junction label vectors: `labels[v][sample] = 1` iff junction
    /// `junctions[v]` leaks in that scenario.
    pub labels: Vec<Vec<u8>>,
    /// The candidate leak locations, aligned with `labels`.
    pub junctions: Vec<NodeId>,
    /// The sampled scenarios (ground truth for evaluation).
    pub scenarios: Vec<Scenario>,
    /// Generation bookkeeping (resamples, recoveries, imputations).
    pub summary: BuildSummary,
}

impl LeakDataset {
    /// True label vector of one sample across junctions.
    pub fn truth_of_sample(&self, sample: usize) -> Vec<u8> {
        self.labels.iter().map(|v| v[sample]).collect()
    }
}

/// Builder for [`LeakDataset`]s: pairs a network with a sensor deployment
/// and generation options, then mass-produces scenario rows (in parallel).
#[derive(Debug, Clone)]
pub struct DatasetBuilder<'a> {
    net: &'a Network,
    sensors: SensorSet,
    sampler: ScenarioSampler,
    features: FeatureConfig,
    solver: SolverOptions,
    /// Elapsed slots `n` after the leak before the "after" reading is taken.
    elapsed_slots: u64,
    /// Hydraulic step / sampling interval, seconds.
    step: u64,
    /// Solve each scenario through a per-thread [`SolverWorkspace`] seeded
    /// from the leak-free baseline (see [`DatasetBuilder::warm_start`]).
    warm_start: bool,
    /// Replacement scenario draws allowed per corpus slot (see
    /// [`DatasetBuilder::resample_limit`]).
    resample_limit: usize,
    /// Route solves through the recovery ladder (see
    /// [`DatasetBuilder::recovery`]).
    recovery: bool,
    /// Telemetry destination (disabled by default; see
    /// [`DatasetBuilder::telemetry`]).
    tel: TelemetryCtx<'a>,
}

impl<'a> DatasetBuilder<'a> {
    /// Creates a builder with the paper's defaults (15-minute sampling,
    /// reading taken one slot after the leak).
    pub fn new(net: &'a Network, sensors: SensorSet) -> Self {
        DatasetBuilder {
            net,
            sensors,
            sampler: ScenarioSampler::new(net),
            features: FeatureConfig::default(),
            solver: SolverOptions::default(),
            elapsed_slots: 1,
            step: 900,
            warm_start: true,
            resample_limit: 8,
            recovery: true,
            tel: TelemetryCtx::none(),
        }
    }

    /// Attaches a telemetry context. [`build`](Self::build) then records
    /// `sensing.build.*` counters/histograms, per-sample
    /// `sensing.build.sample` events (keyed by the slot index, so the
    /// event stream is byte-identical for any thread count) and a
    /// `sensing.build` span with synthetic `sensing.solve` /
    /// `sensing.features` children aggregating time across workers. The
    /// default ([`TelemetryCtx::none`]) keeps the hot path untouched.
    pub fn telemetry(mut self, tel: TelemetryCtx<'a>) -> Self {
        self.tel = tel;
        self
    }

    /// Sets how many replacement scenario draws a corpus slot may consume
    /// when its scenario keeps defeating the hydraulic solver (default 8;
    /// 0 restores the legacy fail-fast behavior). Replacement draws are a
    /// deterministic function of `(corpus seed, slot, attempt)`, so
    /// resampling never breaks byte-identity across thread counts.
    pub fn resample_limit(mut self, limit: usize) -> Self {
        self.resample_limit = limit;
        self
    }

    /// Enables or disables the hydraulic solver recovery ladder (default
    /// on). When on, a failed solve is retried per
    /// [`aqua_hydraulics::solve_snapshot_recovering`] before the scenario
    /// is declared pathological; the converged result is identical to a
    /// clean solve whenever the first attempt succeeds.
    pub fn recovery(mut self, recovery: bool) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables or disables warm-started solving (default on). When on, each
    /// worker thread owns a [`SolverWorkspace`] and every scenario's Newton
    /// iteration seeds from the cached leak-free baseline snapshot. The
    /// warm seed depends only on the sample — never on sample order — so
    /// the corpus stays bit-identical for any thread count; warm and cold
    /// corpora agree to within the solver tolerance. Turning it off forces
    /// the legacy cold path (the control arm of the `fig_perf_warmstart`
    /// bench).
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Sets the maximum number of concurrent leak events (`U(1, max)`).
    pub fn max_events(mut self, max_events: usize) -> Self {
        self.sampler.max_events = max_events.max(1);
        self
    }

    /// Sets the emitter-coefficient (leak size) range.
    pub fn ec_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
        self.sampler.ec_range = (lo, hi);
        self
    }

    /// Sets the number of elapsed sampling slots `n` after the leak.
    pub fn elapsed_slots(mut self, n: u64) -> Self {
        self.elapsed_slots = n.max(1);
        self
    }

    /// Sets the feature-extraction options.
    pub fn feature_config(mut self, features: FeatureConfig) -> Self {
        self.features = features;
        self
    }

    /// Sets the hydraulic solver options.
    pub fn solver_options(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// The sensor deployment in use.
    pub fn sensors(&self) -> &SensorSet {
        &self.sensors
    }

    /// Pre-event and post-event snapshots for one scenario.
    ///
    /// Tank levels for both instants come from a leak-free baseline EPS
    /// (cached by the caller via `baseline`): leaks shorter than a few
    /// hours barely move community-scale tank trajectories, and this keeps
    /// per-sample cost at two snapshot solves instead of a full EPS.
    /// Returns the two snapshots plus the number of solver recovery-ladder
    /// actions that fired while producing them (always 0 with
    /// [`recovery`](Self::recovery) off).
    fn snapshots_for(
        &self,
        scenario: &Scenario,
        baseline: &aqua_hydraulics::EpsResult,
        ws: Option<&mut SolverWorkspace>,
        tel: TelemetryCtx<'_>,
    ) -> Result<(Snapshot, Snapshot, usize), SensingError> {
        let t_before = self.sampler.leak_start - self.step;
        let t_after = self.sampler.leak_start + self.elapsed_slots * self.step;
        let mut with_tanks = scenario.clone();
        let levels_at = |t: u64| -> Vec<(NodeId, f64)> {
            let idx = (t / self.step) as usize;
            let idx = idx.min(baseline.tank_levels.len().saturating_sub(1));
            baseline
                .tank_ids
                .iter()
                .cloned()
                .zip(baseline.tank_levels[idx].iter().cloned())
                .collect()
        };
        with_tanks.tank_levels = levels_at(t_before);
        let mut recoveries = 0usize;
        // Solve dispatcher: the recovery ladder wraps the exact same
        // single-attempt solve, so results are bit-identical whenever the
        // first attempt converges.
        let mut solve = |with_tanks: &Scenario,
                         t: u64,
                         ws: &mut SolverWorkspace|
         -> Result<Snapshot, HydraulicError> {
            if self.recovery {
                let (snap, report) = solve_snapshot_recovering_traced(
                    self.net,
                    with_tanks,
                    t,
                    &self.solver,
                    ws,
                    tel,
                )?;
                recoveries += report.recoveries.len();
                Ok(snap)
            } else {
                solve_snapshot_traced(self.net, with_tanks, t, &self.solver, ws, tel)
            }
        };
        match ws {
            Some(ws) => {
                // Re-seed from the baseline for *every* sample (not from
                // the previous sample), so the result is a function of the
                // sample alone and the corpus stays identical whichever
                // worker solves which sample.
                let base = baseline.at(t_before);
                match base {
                    Some(base) => ws.set_warm_start(WarmStart::from_snapshot(base)),
                    None => ws.clear_warm_start(),
                }
                // Before leak onset the scenario is hydraulically the
                // leak-free baseline, so the cached baseline snapshot *is*
                // the pre-event solution — reuse it instead of re-solving.
                let before = match base {
                    Some(base) if scenario.is_baseline_at(t_before) => base.clone(),
                    _ => solve(&with_tanks, t_before, ws)?,
                };
                with_tanks.tank_levels = levels_at(t_after);
                // Seed the "after" solve from the baseline at t_after when
                // available — it carries the exact post-event demand
                // profile, leaving only the leak perturbation to iterate
                // out. (Falls back to the "before" solution the workspace
                // stored.) Still a function of the sample alone.
                if let Some(base_after) = baseline.at(t_after) {
                    ws.set_warm_start(WarmStart::from_snapshot(base_after));
                }
                let after = solve(&with_tanks, t_after, ws)?;
                Ok((before, after, recoveries))
            }
            None => {
                // A fresh workspace per solve keeps cold semantics: no
                // state flows from one solve into the next (this is
                // exactly what `solve_snapshot` does internally).
                let before = solve(&with_tanks, t_before, &mut SolverWorkspace::new(self.net))?;
                with_tanks.tank_levels = levels_at(t_after);
                let after = solve(&with_tanks, t_after, &mut SolverWorkspace::new(self.net))?;
                Ok((before, after, recoveries))
            }
        }
    }

    /// Runs the leak-free baseline EPS covering the sampling window.
    pub fn baseline(&self) -> Result<aqua_hydraulics::EpsResult, SensingError> {
        let horizon = self.sampler.leak_start + (self.elapsed_slots + 1) * self.step;
        Ok(
            ExtendedPeriodSim::new(self.net, Scenario::default(), self.solver.clone())
                .with_step(self.step)
                .run(horizon)?,
        )
    }

    /// Generates `n_samples` scenario rows. Sample `i` is driven by seed
    /// `seed + i` and replacement draws by a hash of `(seed, i, attempt)`,
    /// so the corpus is identical for any `threads` value.
    ///
    /// A scenario whose hydraulics defeat even the solver recovery ladder
    /// is logged and replaced by a fresh draw, up to
    /// [`resample_limit`](Self::resample_limit) times per slot; what
    /// happened is rolled up in [`LeakDataset::summary`].
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::ResampleExhausted`] when a slot stays
    /// unsolvable through every replacement draw (or the raw hydraulic
    /// failure when `resample_limit` is 0).
    pub fn build(
        &self,
        n_samples: usize,
        seed: u64,
        threads: usize,
    ) -> Result<LeakDataset, SensingError> {
        if self.sampler.junctions.is_empty() {
            return Err(SensingError::NoJunctions);
        }
        let build_span = self.tel.span("sensing.build");
        let tel = build_span.ctx();
        let baseline = {
            let _baseline_span = tel.span("sensing.baseline");
            self.baseline()?
        };
        let build_start = tel.now_ns().unwrap_or(0);

        let worker = |ws: &mut Option<SolverWorkspace>, i: usize| -> SampleRow {
            let mut stats = SampleStats::default();
            let sample_start = tel.now_ns();
            let mut attempt = 0usize;
            loop {
                // Attempt 0 keeps the legacy per-sample seed, so corpora
                // that never needed a resample are byte-identical with
                // builds predating the retry loop; replacement draws hash
                // in the attempt index (thread-count invariant either way).
                let sample_seed = if attempt == 0 {
                    seed.wrapping_add(i as u64)
                } else {
                    mix2(mix2(seed ^ RESAMPLE_SALT, i as u64), attempt as u64)
                };
                let mut rng = StdRng::seed_from_u64(sample_seed);
                let scenario = self.sampler.sample(&mut rng);
                let solve_start = tel.now_ns();
                match self.snapshots_for(&scenario, &baseline, ws.as_mut(), tel) {
                    Ok((before, after, recoveries)) => {
                        if let (Some(t0), Some(t1)) = (solve_start, tel.now_ns()) {
                            stats.solve_ns += t1.saturating_sub(t0);
                        }
                        stats.recoveries += recoveries;
                        stats.resamples = attempt;
                        let feature_start = tel.now_ns();
                        let features = if self.features.faults.enabled() {
                            let model =
                                self.features.faults.for_sample(seed.wrapping_add(i as u64));
                            let mut injector = FaultInjector::new(model);
                            let slots = (
                                (self.sampler.leak_start - self.step) / self.step,
                                (self.sampler.leak_start + self.elapsed_slots * self.step)
                                    / self.step,
                            );
                            let (features, imputed) = extract_features_degraded(
                                self.net,
                                &self.sensors,
                                &before,
                                &after,
                                &self.features,
                                &mut rng,
                                &mut injector,
                                slots,
                            );
                            stats.imputed = imputed;
                            features
                        } else {
                            extract_features(
                                self.net,
                                &self.sensors,
                                &before,
                                &after,
                                &self.features,
                                &mut rng,
                            )
                        };
                        if let (Some(t0), Some(t1)) = (feature_start, tel.now_ns()) {
                            stats.feature_ns += t1.saturating_sub(t0);
                        }
                        if let (Some(t0), Some(t1)) = (sample_start, tel.now_ns()) {
                            tel.observe(
                                "sensing.build.sample_s",
                                t1.saturating_sub(t0) as f64 / 1e9,
                            );
                        }
                        // Slot `i` is processed by exactly one worker, so
                        // keying the event ordinal by the slot index keeps
                        // the flushed stream byte-identical across thread
                        // counts.
                        tel.emit(
                            i as u64,
                            "sensing.build.sample",
                            &[
                                ("resamples", stats.resamples.into()),
                                ("recoveries", stats.recoveries.into()),
                                ("imputed", stats.imputed.into()),
                            ],
                        );
                        return Ok((features, scenario, stats));
                    }
                    Err(err) if attempt >= self.resample_limit => {
                        return Err(match err {
                            SensingError::Hydraulic(last) if self.resample_limit > 0 => {
                                SensingError::ResampleExhausted {
                                    sample: i,
                                    attempts: self.resample_limit + 1,
                                    last,
                                }
                            }
                            other => other,
                        });
                    }
                    Err(_) => {
                        if let (Some(t0), Some(t1)) = (solve_start, tel.now_ns()) {
                            stats.solve_ns += t1.saturating_sub(t0);
                        }
                        attempt += 1;
                    }
                }
            }
        };

        // One workspace per worker thread: symbolic setup is paid once per
        // thread, not once per sample.
        let workspace = || self.warm_start.then(|| SolverWorkspace::new(self.net));
        let rows = par_map_indexed(n_samples, threads, workspace, worker);

        let mut x: Option<Matrix> = None;
        let mut scenarios = Vec::with_capacity(n_samples);
        let mut summary = BuildSummary::default();
        let (mut solve_ns, mut feature_ns) = (0u64, 0u64);
        for row in rows {
            let (features, scenario, stats) = row?;
            if stats.resamples > 0 {
                summary.resampled_slots += 1;
            }
            summary.resample_draws += stats.resamples;
            summary.solver_recoveries += stats.recoveries;
            summary.imputed_readings += stats.imputed;
            solve_ns += stats.solve_ns;
            feature_ns += stats.feature_ns;
            x.get_or_insert_with(|| Matrix::with_cols(features.len()))
                .push_row(&features);
            scenarios.push(scenario);
        }
        // `n_samples == 0` yields an empty, zero-column dataset.
        let x = x.unwrap_or_else(|| Matrix::with_cols(0));

        let junctions = self.sampler.junctions.clone();
        let t_active = self.sampler.leak_start;
        let labels: Vec<Vec<u8>> = junctions
            .iter()
            .map(|&j| {
                scenarios
                    .iter()
                    .map(|sc| u8::from(sc.true_leak_nodes(t_active).contains(&j)))
                    .collect()
            })
            .collect();

        if tel.enabled() {
            tel.add("sensing.build.samples", n_samples as u64);
            tel.add(
                "sensing.build.resampled_slots",
                summary.resampled_slots as u64,
            );
            tel.add(
                "sensing.build.resample_draws",
                summary.resample_draws as u64,
            );
            tel.add(
                "sensing.build.solver_recoveries",
                summary.solver_recoveries as u64,
            );
            tel.add(
                "sensing.build.imputed_readings",
                summary.imputed_readings as u64,
            );
            // Solve and feature-extraction time interleave across worker
            // threads, so they can't be live spans; synthesize back-to-back
            // children from the accumulated totals so the span tree still
            // shows where the build's time went.
            tel.record_span("sensing.solve", build_start, build_start + solve_ns);
            tel.record_span(
                "sensing.features",
                build_start + solve_ns,
                build_start + solve_ns + feature_ns,
            );
            if let Some(end) = tel.now_ns() {
                let wall_s = end.saturating_sub(build_start) as f64 / 1e9;
                if wall_s > 0.0 {
                    tel.gauge("sensing.build.scenarios_per_s", n_samples as f64 / wall_s);
                }
            }
        }

        Ok(LeakDataset {
            x,
            labels,
            junctions,
            scenarios,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_net::synth;

    #[test]
    fn sampler_respects_event_bounds() {
        let net = synth::epa_net();
        let sampler = ScenarioSampler::new(&net);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let s = sampler.sample(&mut rng);
            let n = s.leaks.len();
            assert!((1..=5).contains(&n), "events {n}");
            // Distinct locations, same start.
            let nodes = s.true_leak_nodes(sampler.leak_start);
            assert_eq!(nodes.len(), n, "locations must be distinct");
            assert!(s.leaks.iter().all(|l| l.start == sampler.leak_start));
            for l in &s.leaks {
                assert!(l.coefficient >= 0.002 && l.coefficient < 0.02);
            }
        }
    }

    #[test]
    fn dataset_rows_align_with_scenarios_and_labels() {
        let net = synth::epa_net();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net)).max_events(3);
        let ds = builder.build(20, 7, 1).unwrap();
        assert_eq!(ds.x.rows(), 20);
        assert_eq!(ds.scenarios.len(), 20);
        assert_eq!(ds.labels.len(), net.junction_ids().len());
        for (i, sc) in ds.scenarios.iter().enumerate() {
            let truth = ds.truth_of_sample(i);
            let n_pos = truth.iter().filter(|&&v| v == 1).count();
            assert_eq!(n_pos, sc.true_leak_nodes(8 * 900).len());
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let net = synth::epa_net();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net));
        let a = builder.build(12, 3, 1).unwrap();
        let b = builder.build(12, 3, 4).unwrap();
        assert_eq!(a.x, b.x);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn build_is_byte_identical_across_thread_counts() {
        // The warm-start seed for each sample comes from the shared
        // baseline, never from neighboring samples, so chunking across any
        // number of workers must not change a single bit of the corpus.
        let net = synth::epa_net();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net));
        let reference = builder.build(16, 9, 1).unwrap();
        for threads in [2, 8] {
            let ds = builder.build(16, 9, threads).unwrap();
            assert_eq!(reference.x, ds.x, "features diverge at threads={threads}");
            assert_eq!(
                reference.labels, ds.labels,
                "labels diverge at threads={threads}"
            );
        }
    }

    #[test]
    fn warm_and_cold_corpora_agree() {
        let net = synth::epa_net();
        let warm = DatasetBuilder::new(&net, SensorSet::full(&net))
            .build(8, 5, 1)
            .unwrap();
        let cold = DatasetBuilder::new(&net, SensorSet::full(&net))
            .warm_start(false)
            .build(8, 5, 1)
            .unwrap();
        assert_eq!(warm.labels, cold.labels);
        for i in 0..warm.x.rows() {
            for (a, b) in warm.x.row(i).iter().zip(cold.x.row(i)) {
                assert!((a - b).abs() < 1e-4, "sample {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn features_respond_to_leaks() {
        // With noiseless full observation, at least one pressure delta must
        // be clearly negative in every sample (a leak drops pressure).
        let net = synth::epa_net();
        let cfg = FeatureConfig {
            noise: crate::MeasurementNoise::none(),
            include_topology: false,
            ..Default::default()
        };
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net))
            .feature_config(cfg)
            .ec_range(0.01, 0.02);
        let ds = builder.build(10, 1, 1).unwrap();
        for i in 0..ds.x.rows() {
            let min = ds.x.row(i).iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(min < -0.005, "sample {i} min delta {min}");
        }
    }

    #[test]
    fn pathological_scenarios_are_resampled_not_fatal() {
        // Large emitter coefficients defeat the plain (recovery-off) solver
        // on a fraction of draws; with bounded resampling the build must
        // complete anyway and record what it replaced.
        let net = synth::epa_net();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net))
            .ec_range(0.02, 0.25)
            .recovery(false);
        let ds = builder
            .build(40, 2, 1)
            .expect("resampling absorbs failures");
        assert_eq!(ds.x.rows(), 40);
        assert!(
            ds.summary.resampled_slots > 0,
            "this seed/range is calibrated to hit at least one failure"
        );
        assert!(ds.summary.resample_draws >= ds.summary.resampled_slots);
    }

    #[test]
    fn resampled_corpus_is_byte_identical_across_thread_counts() {
        let net = synth::epa_net();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net))
            .ec_range(0.02, 0.25)
            .recovery(false);
        let reference = builder.build(24, 2, 1).unwrap();
        assert!(reference.summary.resampled_slots > 0);
        for threads in [2, 8] {
            let ds = builder.build(24, 2, threads).unwrap();
            assert_eq!(reference.x, ds.x, "features diverge at threads={threads}");
            assert_eq!(
                reference.summary, ds.summary,
                "summary diverges at threads={threads}"
            );
        }
    }

    #[test]
    fn recovery_ladder_rescues_scenarios_without_resampling() {
        // The same pathological range that forces resampling with the
        // ladder off is absorbed by damped retries with it on.
        let net = synth::epa_net();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net)).ec_range(0.02, 0.25);
        let ds = builder.build(40, 2, 2).unwrap();
        assert_eq!(
            ds.summary.resampled_slots, 0,
            "ladder should absorb all failures"
        );
        assert!(ds.summary.solver_recoveries > 0);
    }

    #[test]
    fn zero_resample_limit_fails_fast_with_raw_error() {
        let net = synth::epa_net();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net))
            .ec_range(0.05, 0.6)
            .recovery(false)
            .resample_limit(0);
        match builder.build(40, 2, 1) {
            Err(SensingError::Hydraulic(_)) => {}
            other => panic!("expected raw hydraulic failure, got {other:?}"),
        }
    }

    #[test]
    fn faulted_corpus_completes_and_reports_imputations() {
        let net = synth::epa_net();
        let cfg = FeatureConfig {
            faults: crate::FaultModel {
                dropout_rate: 0.2,
                seed: 17,
                ..crate::FaultModel::none()
            },
            ..Default::default()
        };
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net)).feature_config(cfg);
        let ds = builder.build(10, 4, 1).unwrap();
        assert!(ds.summary.imputed_readings > 0);
        for i in 0..ds.x.rows() {
            assert!(ds.x.row(i).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn clean_build_summary_is_pristine() {
        let net = synth::epa_net();
        let ds = DatasetBuilder::new(&net, SensorSet::full(&net))
            .build(8, 3, 1)
            .unwrap();
        assert!(ds.summary.is_pristine(), "summary {:?}", ds.summary);
    }

    #[test]
    fn telemetry_registry_mirrors_build_summary() {
        let net = synth::epa_net();
        let hub = aqua_telemetry::TelemetryHub::new();
        let builder = DatasetBuilder::new(&net, SensorSet::full(&net))
            .ec_range(0.02, 0.25)
            .recovery(false)
            .telemetry(hub.ctx());
        let ds = builder.build(24, 2, 2).unwrap();
        assert!(
            ds.summary.resampled_slots > 0,
            "seed calibrated to resample"
        );

        // BuildSummary is a thin view over the sensing.build.* counters.
        let snap = hub.metrics_snapshot();
        assert_eq!(BuildSummary::from_snapshot(&snap), ds.summary);
        assert_eq!(snap.counter("sensing.build.samples"), 24);
        let h = snap.histogram("sensing.build.sample_s").unwrap();
        assert_eq!(h.count, 24);

        // One event per corpus slot, flushed in slot order.
        let events = hub.drain_events();
        assert_eq!(events.len(), 24);
        assert!(events.iter().enumerate().all(|(i, e)| e.ord == i as u64));

        // The span tree shows the baseline EPS and the aggregate
        // solve/feature stages under the build.
        let tree = hub.span_tree();
        let build = tree.iter().find(|s| s.name == "sensing.build").unwrap();
        assert!(build.find("sensing.baseline").is_some());
        assert!(build.find("sensing.solve").is_some());
        assert!(build.find("sensing.features").is_some());
    }

    #[test]
    fn wssc_dataset_generates() {
        let net = synth::wssc_subnet();
        let builder = DatasetBuilder::new(&net, SensorSet::random_fraction(&net, 0.2, 1));
        let ds = builder.build(5, 11, 2).unwrap();
        assert_eq!(ds.x.rows(), 5);
        assert_eq!(ds.labels.len(), 298);
    }
}
