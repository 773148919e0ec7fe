//! Experiment harness: the evaluation protocol behind Figs. 6–10.
//!
//! Every figure point is "train a profile on a generated corpus, evaluate
//! hamming score on a held-out corpus, optionally fusing weather and human
//! observations per test sample". This module centralizes that protocol so
//! the per-figure binaries in `aqua-bench` stay declarative.

use aqua_fusion::{FreezeModel, HumanInputModel};
use aqua_ml::metrics::hamming_score_sample;
use aqua_ml::ModelKind;
use aqua_net::Network;
use aqua_sensing::{k_medoids_placement, LeakDataset, PlacementConfig, SensorSet};
use aqua_telemetry::TelemetryCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::AquaError;
use crate::pipeline::{AquaScale, AquaScaleConfig, ExternalObservations, ProfileModel};
use crate::scenario::cold_snap_flags;

/// Which information sources Phase II fuses (the paper's legend labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceMix {
    /// IoT measurements only.
    IotOnly,
    /// IoT + ambient temperature (freeze fusion).
    IotTemp,
    /// IoT + human reports (clique tuning).
    IotHuman,
    /// All three sources.
    IotTempHuman,
}

impl SourceMix {
    /// Legend label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SourceMix::IotOnly => "IoT",
            SourceMix::IotTemp => "IoT + Temp",
            SourceMix::IotHuman => "IoT + Human",
            SourceMix::IotTempHuman => "IoT + Temp + Human",
        }
    }

    /// Whether weather fusion is active.
    pub fn uses_temperature(self) -> bool {
        matches!(self, SourceMix::IotTemp | SourceMix::IotTempHuman)
    }

    /// Whether human-report fusion is active.
    pub fn uses_human(self) -> bool {
        matches!(self, SourceMix::IotHuman | SourceMix::IotTempHuman)
    }
}

/// One evaluation run: train once, score a held-out corpus under a source
/// mix.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Mean hamming score over the held-out samples.
    pub hamming: f64,
    /// Mean Phase-II latency per sample, seconds.
    pub mean_latency_s: f64,
    /// Held-out samples evaluated.
    pub samples: usize,
}

/// The experiment protocol shared by the figure benches.
#[derive(Debug, Clone)]
pub struct Experiment<'a> {
    net: &'a Network,
    /// Pipeline configuration (model family, corpus sizes, seeds…).
    pub config: AquaScaleConfig,
    /// Held-out corpus size.
    pub test_samples: usize,
    /// Ambient temperature driving freeze fusion, °F.
    pub temperature_f: f64,
    /// Freeze model (paper defaults).
    pub freeze: FreezeModel,
    /// Human-input model (λ, p_e, γ).
    pub human: HumanInputModel,
    tel: TelemetryCtx<'a>,
}

impl<'a> Experiment<'a> {
    /// Creates an experiment with paper-default external models and a cold
    /// snap at 10 °F.
    pub fn new(net: &'a Network, config: AquaScaleConfig) -> Self {
        Experiment {
            net,
            config,
            test_samples: 100,
            temperature_f: 10.0,
            freeze: FreezeModel::default(),
            human: HumanInputModel::default(),
            tel: TelemetryCtx::none(),
        }
    }

    /// Attaches a telemetry context: training, corpus generation and
    /// evaluation all report into it (`core.phase1` / `sensing.build` /
    /// `core.evaluate` spans plus their metrics).
    pub fn with_telemetry(mut self, tel: TelemetryCtx<'a>) -> Self {
        self.tel = tel;
        self
    }

    /// Selects a k-medoids sensor deployment covering `fraction` of all
    /// candidate locations and stores it in the config.
    pub fn with_kmedoids_sensors(mut self, fraction: f64) -> Result<Self, AquaError> {
        let total = self.net.node_count() + self.net.link_count();
        let k = ((total as f64 * fraction).round() as usize).clamp(1, total);
        let sensors = if k == total {
            SensorSet::full(self.net)
        } else {
            k_medoids_placement(self.net, k, &PlacementConfig::default())?
        };
        self.config.sensors = Some(sensors);
        Ok(self)
    }

    /// Phase I on this experiment's settings.
    pub fn train(&self) -> Result<(AquaScale<'a>, ProfileModel), AquaError> {
        let aqua = AquaScale::new(self.net, self.config.clone()).with_telemetry(self.tel);
        let profile = aqua.train_profile()?;
        Ok((aqua, profile))
    }

    /// Generates the held-out corpus (seed disjoint from training).
    pub fn test_corpus(&self, aqua: &AquaScale<'a>) -> Result<LeakDataset, AquaError> {
        aqua.generate_dataset(self.test_samples, self.config.seed ^ 0xDEAD_BEEF)
    }

    /// Evaluates a trained profile under `mix`, with `elapsed_slots` of
    /// human-report accumulation.
    pub fn evaluate(
        &self,
        aqua: &AquaScale<'a>,
        profile: &ProfileModel,
        test: &LeakDataset,
        mix: SourceMix,
        elapsed_slots: u64,
    ) -> Result<Evaluation, AquaError> {
        let span = self.tel.span("core.evaluate");
        let tel = span.ctx();
        let leak_start = 8 * 900; // ScenarioSampler default
        let mut total = 0.0;
        let mut latency = 0.0;
        for i in 0..test.x.rows() {
            let scenario = &test.scenarios[i];
            let truth = test.truth_of_sample(i);
            let mut external = ExternalObservations::none();
            let sample_seed = self.config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            if mix.uses_temperature() {
                external.frozen = cold_snap_flags(
                    &profile.junctions,
                    scenario,
                    self.temperature_f,
                    &self.freeze,
                    sample_seed,
                )
                .frozen;
            }
            if mix.uses_human() {
                let mut rng = StdRng::seed_from_u64(sample_seed ^ 0x7311);
                let leaks = scenario.true_leak_nodes(leak_start);
                let tweets = self
                    .human
                    .generate_tweets(self.net, &leaks, elapsed_slots, &mut rng);
                external.cliques = self.human.cliques(self.net, &profile.junctions, &tweets);
            }
            let inference = aqua.infer(profile, test.x.row(i), &external)?;
            total += hamming_score_sample(&inference.labels(), &truth);
            latency += inference.latency.as_secs_f64();
        }
        let n = test.x.rows() as f64;
        if tel.enabled() {
            tel.add("core.evaluate.samples", test.x.rows() as u64);
            tel.observe("core.evaluate.hamming", total / n);
        }
        Ok(Evaluation {
            hamming: total / n,
            mean_latency_s: latency / n,
            samples: test.x.rows(),
        })
    }

    /// Convenience: train and evaluate several model families on the same
    /// corpora (Fig. 6 / Fig. 7a-b protocol, IoT only). Returns
    /// `(label, hamming)` pairs.
    pub fn compare_models(
        &self,
        kinds: &[ModelKind],
    ) -> Result<Vec<(&'static str, f64)>, AquaError> {
        let aqua = AquaScale::new(self.net, self.config.clone()).with_telemetry(self.tel);
        let train = aqua.generate_dataset(self.config.train_samples, self.config.seed)?;
        let test = self.test_corpus(&aqua)?;
        let mut out = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let mut cfg = self.config.clone();
            cfg.model = kind.clone();
            let aqua_k = AquaScale::new(self.net, cfg).with_telemetry(self.tel);
            let profile = aqua_k.train_profile_on(&train)?;
            let eval = self.evaluate(&aqua_k, &profile, &test, SourceMix::IotOnly, 1)?;
            out.push((kind.name(), eval.hamming));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_net::synth;

    fn quick_experiment(net: &Network) -> Experiment<'_> {
        let config = AquaScaleConfig {
            model: ModelKind::random_forest(),
            train_samples: 250,
            max_events: 2,
            threads: 4,
            ..Default::default()
        };
        let mut e = Experiment::new(net, config);
        e.test_samples = 30;
        e
    }

    #[test]
    fn fusion_improves_or_matches_iot_only() {
        let net = synth::epa_net();
        let exp = quick_experiment(&net);
        let (aqua, profile) = exp.train().unwrap();
        let test = exp.test_corpus(&aqua).unwrap();
        let iot = exp
            .evaluate(&aqua, &profile, &test, SourceMix::IotOnly, 1)
            .unwrap();
        let all = exp
            .evaluate(&aqua, &profile, &test, SourceMix::IotTempHuman, 4)
            .unwrap();
        assert!(iot.hamming > 0.2, "IoT-only score {}", iot.hamming);
        assert!(
            all.hamming >= iot.hamming - 0.05,
            "fusion {} vs IoT {}",
            all.hamming,
            iot.hamming
        );
    }

    #[test]
    fn human_reports_help_most_with_sparse_sensors() {
        let net = synth::epa_net();
        let mut exp = quick_experiment(&net);
        exp.config.sensors = Some(SensorSet::random_fraction(&net, 0.1, 5));
        let (aqua, profile) = exp.train().unwrap();
        let test = exp.test_corpus(&aqua).unwrap();
        let iot = exp
            .evaluate(&aqua, &profile, &test, SourceMix::IotOnly, 4)
            .unwrap();
        let human = exp
            .evaluate(&aqua, &profile, &test, SourceMix::IotHuman, 4)
            .unwrap();
        assert!(
            human.hamming > iot.hamming,
            "human fusion {} must beat sparse IoT {}",
            human.hamming,
            iot.hamming
        );
    }

    #[test]
    fn compare_models_returns_all_labels() {
        let net = synth::epa_net();
        let mut exp = quick_experiment(&net);
        exp.config.train_samples = 150;
        exp.test_samples = 20;
        let results = exp
            .compare_models(&[ModelKind::logistic_r(), ModelKind::random_forest()])
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "LogisticR");
        assert_eq!(results[1].0, "RF");
        for (_, score) in &results {
            assert!((0.0..=1.0).contains(score));
        }
    }

    #[test]
    fn kmedoids_deployment_plugs_into_experiment() {
        let net = synth::epa_net();
        let exp = quick_experiment(&net).with_kmedoids_sensors(0.15).unwrap();
        let sensors = exp.config.sensors.as_ref().unwrap();
        let total = net.node_count() + net.link_count();
        assert_eq!(sensors.len(), (total as f64 * 0.15).round() as usize);
    }

    #[test]
    fn source_mix_flags() {
        assert!(!SourceMix::IotOnly.uses_temperature());
        assert!(SourceMix::IotTemp.uses_temperature());
        assert!(SourceMix::IotTempHuman.uses_human());
        assert!(!SourceMix::IotTemp.uses_human());
        assert_eq!(SourceMix::IotTempHuman.label(), "IoT + Temp + Human");
    }
}
