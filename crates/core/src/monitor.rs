//! The observe–analyze–adapt loop (paper Sec. II / Fig. 1): Phase-II
//! inference over a stream of IoT readings.
//!
//! A [`SessionState`] consumes one slot of measured sensor readings at a
//! time (one per IoT sampling slot), keeps the previous readings, and runs
//! Phase-II inference on every slot after the first. This is the online
//! deployment shape of AquaSCALE: the profile is trained once (Phase I),
//! then live telemetry streams through [`SessionState::observe_readings`]
//! and detections come out with their detection delay — the quantity
//! behind the "minutes, not hours" claim.
//!
//! The session is fault-tolerant: every channel passes through a
//! per-sensor health tracker ([`SensorHealth`]). Missing readings are
//! imputed by carrying the last observation forward, implausible and stuck
//! channels are quarantined at the [`health`](crate::health) thresholds,
//! and inference keeps running on whatever channels survive — a dead
//! sensor degrades accuracy, it does not stop detection. Readings are
//! made outside the session, by `aqua_sensing::measure` (noise, then
//! faults), in the corpus build, the campaign render and the examples
//! alike; the session turns consecutive readings into a feature row with
//! `aqua_sensing::feature_row`, the function the corpus build uses, so
//! Phase II infers on the rows Phase I trained on.
//!
//! The state is owned and deployment-independent: the trained deployment
//! (`AquaScale` + `ProfileModel`) is passed into each call. The serving
//! layer's [`HostedSession`](crate::HostedSession) keeps one state per
//! hosted network and checkpoints it.

use std::time::Duration;

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_net::NodeId;
use aqua_sensing::{feature_row, SensorSet};

use crate::error::AquaError;
use crate::health::{SensorHealth, FLOW_BOUNDS, PRESSURE_BOUNDS};
use crate::pipeline::{AquaScale, ExternalObservations, Inference, ProfileModel};

/// One detection emitted by the monitoring loop.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Slot time (seconds since session start) at which the detection fired.
    pub time: u64,
    /// Predicted leak locations.
    pub leak_nodes: Vec<NodeId>,
    /// Phase-II latency of this slot's inference.
    pub latency: Duration,
    /// Sensor channels quarantined when this detection fired (feature
    /// order: pressure channels first, then flow channels).
    pub quarantined: Vec<usize>,
}

impl Codec for Detection {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.time);
        self.leak_nodes.encode(w);
        // Nanoseconds as u64: exact round-trip (f64 seconds would not be).
        w.u64(self.latency.as_nanos().min(u64::MAX as u128) as u64);
        self.quarantined.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(Detection {
            time: r.u64()?,
            leak_nodes: Codec::decode(r)?,
            latency: Duration::from_nanos(r.u64()?),
            quarantined: Codec::decode(r)?,
        })
    }
}

/// The owned, deployment-independent state of a monitoring session.
///
/// Holds everything that evolves slot to slot; the trained deployment
/// (`AquaScale` + `ProfileModel`) is passed into each call, so the state
/// can outlive any particular borrow of the network — which is what lets
/// the serving layer host many concurrent sessions.
pub struct SessionState {
    /// Per-channel values used last slot (post-imputation), if any slot has
    /// been observed yet.
    prev_used: Option<Vec<Option<f64>>>,
    health: Vec<SensorHealth>,
    slot: u64,
    /// Detections fired so far (non-empty predicted sets).
    pub detections: Vec<Detection>,
}

impl SessionState {
    /// Fresh state for a deployment with `channels` sensor channels.
    pub fn new(channels: usize) -> SessionState {
        SessionState {
            prev_used: None,
            health: (0..channels).map(|_| SensorHealth::default()).collect(),
            slot: 0,
            detections: Vec::new(),
        }
    }

    /// Per-channel health state, in feature order (pressure channels first,
    /// then flow channels).
    pub fn health(&self) -> &[SensorHealth] {
        &self.health
    }

    /// Indices of currently quarantined channels.
    pub fn quarantined_channels(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_quarantined())
            .map(|(ch, _)| ch)
            .collect()
    }

    /// Number of slots ingested so far.
    pub fn slots_observed(&self) -> u64 {
        self.slot
    }

    /// `true` when every per-channel vector holds `channels` entries, as a
    /// decoded checkpoint must before a session of that width adopts it.
    pub(crate) fn has_channels(&self, channels: usize) -> bool {
        self.health.len() == channels
            && self
                .prev_used
                .as_ref()
                .is_none_or(|prev| prev.len() == channels)
    }

    /// Feeds one slot of measured sensor readings. `readings` are raw
    /// per-channel values in feature order — pressure channels first, then
    /// flow channels — with `None` for channels that could not be read
    /// this slot. Returns the inference if a previous reading existed (the
    /// features are consecutive-reading deltas), or `None` on the first
    /// slot.
    ///
    /// Each value passes the channel's health checks. A channel whose
    /// reading is missing or implausible is imputed by last observation
    /// carried forward; quarantined channels contribute a zero delta.
    ///
    /// # Errors
    ///
    /// `InvalidConfig` when `readings` does not have exactly one entry per
    /// sensor channel.
    pub fn observe_readings(
        &mut self,
        aqua: &AquaScale<'_>,
        profile: &ProfileModel,
        time: u64,
        readings: &[Option<f64>],
        external: &ExternalObservations,
    ) -> Result<Option<Inference>, AquaError> {
        if readings.len() != profile.sensors.len() {
            return Err(AquaError::InvalidConfig {
                reason: format!(
                    "expected {} sensor readings, got {}",
                    profile.sensors.len(),
                    readings.len()
                ),
            });
        }
        let Some(features) = self.next_row(aqua, &profile.sensors, readings) else {
            return Ok(None);
        };

        let inference = aqua.infer(profile, &features, external)?;
        if !inference.leak_nodes.is_empty() {
            let tel = aqua.telemetry();
            if tel.enabled() {
                tel.add("core.monitor.detections", 1);
                tel.observe(
                    "core.monitor.detection_latency_s",
                    inference.latency.as_secs_f64(),
                );
            }
            self.detections.push(Detection {
                time,
                leak_nodes: inference.leak_nodes.clone(),
                latency: inference.latency,
                quarantined: self.quarantined_channels(),
            });
        }
        Ok(Some(inference))
    }

    /// Folds one slot of `readings` into the channel health and returns the
    /// feature row against the previous slot, or `None` on the first slot.
    fn next_row(
        &mut self,
        aqua: &AquaScale<'_>,
        sensors: &SensorSet,
        readings: &[Option<f64>],
    ) -> Option<Vec<f64>> {
        let tel = aqua.telemetry();
        let config = aqua.config().features;
        let n_pressure = sensors.pressure_nodes.len();
        self.slot += 1;
        let quarantined_before = tel
            .enabled()
            .then(|| self.health.iter().filter(|h| h.is_quarantined()).count());

        // Stuck detection keys on bit-identical repeats, which only honest
        // *noisy* telemetry never produces — disable it per channel kind
        // when the configured noise is zero.
        let pressure = (PRESSURE_BOUNDS, config.noise.pressure_sigma != 0.0);
        let flow = (FLOW_BOUNDS, config.noise.flow_sigma != 0.0);

        let mut used: Vec<Option<f64>> = Vec::with_capacity(readings.len());
        for (ch, &reading) in readings.iter().enumerate() {
            let (bounds, check_repeats) = if ch < n_pressure { pressure } else { flow };
            used.push(self.health[ch].ingest(reading, bounds, check_repeats));
        }

        let features = self.prev_used.as_ref().map(|prev| {
            feature_row(aqua.network(), &config, prev, &used, |ch| {
                self.health[ch].is_quarantined()
            })
        });
        self.prev_used = Some(used);
        if let Some(before) = quarantined_before {
            tel.add("core.monitor.slots", 1);
            // Quarantine is sticky, so any growth this slot is exactly the
            // number of channels that transitioned into quarantine.
            let after = self.health.iter().filter(|h| h.is_quarantined()).count();
            tel.add(
                "core.monitor.quarantine_transitions",
                (after - before) as u64,
            );
        }
        features
    }
}

impl Codec for SessionState {
    // Everything that evolves slot-to-slot is captured, so a decoded state
    // continues *bit-identically* from where the encoded one stopped — the
    // property replica failover needs.
    fn encode(&self, w: &mut Writer) {
        self.prev_used.encode(w);
        self.health.encode(w);
        w.u64(self.slot);
        self.detections.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(SessionState {
            prev_used: Codec::decode(r)?,
            health: Codec::decode(r)?,
            slot: r.u64()?,
            detections: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AquaScaleConfig;
    use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
    use aqua_ml::ModelKind;
    use aqua_net::synth;
    use aqua_sensing::{
        measure, DatasetBuilder, FaultInjector, FaultModel, FeatureConfig, MeasurementNoise,
    };
    use aqua_telemetry::sync::OnceLock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The noise-free EPA-NET LogisticR profile the session tests share,
    /// trained once: its 800-sample corpus is most of this module's test
    /// time, and training is deterministic.
    fn trained() -> &'static (aqua_net::Network, AquaScaleConfig, ProfileModel) {
        static TRAINED: OnceLock<(aqua_net::Network, AquaScaleConfig, ProfileModel)> =
            OnceLock::new();
        TRAINED.get_or_init(|| {
            let net = synth::epa_net();
            let config = AquaScaleConfig {
                model: ModelKind::logistic_r(),
                train_samples: 800,
                max_events: 2,
                features: FeatureConfig {
                    noise: MeasurementNoise::none(),
                    include_topology: false,
                    ..Default::default()
                },
                threads: 4,
                ..Default::default()
            };
            let profile = AquaScale::new(&net, config.clone())
                .train_profile()
                .unwrap();
            (net, config, profile)
        })
    }

    /// A field deployment's side of a drill: streams slots `0..=slots` of
    /// `scenario` at 15-minute steps into `state`. Each slot's readings
    /// come from the measurement step, with the configured noise and a
    /// [`FaultInjector`] for `faults` at the slot number, as the campaign
    /// render makes them; the `dead` channel is `None` on every slot.
    /// Returns the first slot whose inference names a true leak node, if
    /// any.
    fn stream(
        aqua: &AquaScale<'_>,
        profile: &ProfileModel,
        state: &mut SessionState,
        scenario: &Scenario,
        slots: u64,
        faults: FaultModel,
        dead: Option<usize>,
    ) -> Option<u64> {
        let noise = aqua.config().features.noise;
        let mut rng = StdRng::seed_from_u64(5);
        let mut injector = FaultInjector::new(faults);
        let mut first_hit = None;
        for slot in 0..=slots {
            let t = slot * 900;
            let snap =
                solve_snapshot(aqua.network(), scenario, t, &SolverOptions::default()).unwrap();
            let mut readings = measure(
                &profile.sensors,
                &[(slot, &snap)],
                &noise,
                &mut rng,
                &mut injector,
            )
            .remove(0);
            if let Some(d) = dead {
                readings[d] = None;
            }
            let inference = state
                .observe_readings(aqua, profile, t, &readings, &ExternalObservations::none())
                .unwrap();
            if let Some(inference) = inference {
                let truth = scenario.true_leak_nodes(t);
                if first_hit.is_none() && truth.iter().any(|n| inference.leak_nodes.contains(n)) {
                    first_hit = Some(slot);
                }
            }
        }
        first_hit
    }

    /// A leak at EPA-NET junction 33 opening at slot 8.
    fn leak_at_slot_8(net: &aqua_net::Network, coefficient: f64) -> Scenario {
        Scenario::new().with_leak(LeakEvent::new(net.junction_ids()[33], coefficient, 8 * 900))
    }

    #[test]
    fn session_detects_mid_stream_leak_quickly() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut session = SessionState::new(profile.sensors.len());

        // Leak starts at slot 8 of a 16-slot window.
        let scenario = leak_at_slot_8(net, 0.015);
        let hit = stream(
            &aqua,
            profile,
            &mut session,
            &scenario,
            16,
            FaultModel::none(),
            None,
        );
        let hit = hit.expect("the leak must be detected");
        assert!(
            (8..=10).contains(&hit),
            "detection at slot {hit}, leak started at slot 8"
        );
        assert!(!session.detections.is_empty());
        // No faults injected: nothing should be quarantined.
        assert!(session.quarantined_channels().is_empty());
        // Detection delay in wall-clock terms: within minutes of onset.
        let delay_minutes = (hit - 8) * 15;
        assert!(delay_minutes <= 30, "delay {delay_minutes} minutes");
    }

    #[test]
    fn quiet_network_stays_mostly_quiet() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut session = SessionState::new(profile.sensors.len());
        let hit = stream(
            &aqua,
            profile,
            &mut session,
            &Scenario::default(),
            10,
            FaultModel::none(),
            None,
        );
        assert_eq!(hit, None, "no true leak, so no true-positive hit");
        // False alarms are possible but must not fire on most quiet slots.
        assert!(
            session.detections.len() <= 3,
            "too many false alarms: {}",
            session.detections.len()
        );
    }

    #[test]
    fn first_observation_yields_no_inference() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut session = SessionState::new(profile.sensors.len());
        let snap = solve_snapshot(net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
        let readings: Vec<Option<f64>> =
            profile.sensors.read(&snap).into_iter().map(Some).collect();
        let out = session
            .observe_readings(&aqua, profile, 0, &readings, &ExternalObservations::none())
            .unwrap();
        assert!(out.is_none());
        assert_eq!(session.slots_observed(), 1);
    }

    #[test]
    fn observe_readings_rejects_wrong_channel_count() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut session = SessionState::new(profile.sensors.len());
        let err = session
            .observe_readings(
                &aqua,
                profile,
                0,
                &[Some(1.0)],
                &ExternalObservations::none(),
            )
            .expect_err("one reading for many channels");
        assert!(matches!(err, AquaError::InvalidConfig { .. }));
        // A refused slot is not counted.
        assert_eq!(session.slots_observed(), 0);
    }

    #[test]
    fn dead_sensor_is_quarantined_and_detections_still_fire() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut session = SessionState::new(profile.sensors.len());
        // One pressure channel is offline for the whole stream.
        let scenario = leak_at_slot_8(net, 0.015);
        let hit = stream(
            &aqua,
            profile,
            &mut session,
            &scenario,
            16,
            FaultModel::none(),
            Some(0),
        );

        // The dead channel went silent, so the staleness check must have
        // quarantined it...
        assert_eq!(session.quarantined_channels(), vec![0]);
        assert!(session.health()[0].is_quarantined());
        // ...while detection still works off the surviving channels.
        let hit = hit.expect("one dead sensor must not blind the session");
        assert!(
            (8..=11).contains(&hit),
            "detection at slot {hit}, leak started at slot 8"
        );
        // Detections carry the quarantine state for operator visibility.
        let last = session.detections.last().expect("detections fired");
        assert_eq!(last.quarantined, vec![0]);
    }

    #[test]
    fn stuck_sensor_is_quarantined_via_fault_injection() {
        // Stuck detection requires noisy telemetry (bit-identical repeats
        // are the anomaly signature), so this config keeps default noise; a
        // tiny corpus suffices since only quarantine behavior is asserted.
        let net = synth::epa_net();
        let config = AquaScaleConfig {
            model: ModelKind::logistic_r(),
            train_samples: 40,
            max_events: 2,
            features: FeatureConfig {
                include_topology: false,
                ..Default::default()
            },
            threads: 4,
            ..Default::default()
        };
        let aqua = AquaScale::new(&net, config);
        let profile = aqua.train_profile().unwrap();
        // Freeze every channel: stuck detection must fire once the repeat
        // streak crosses the policy threshold.
        let faults = FaultModel {
            stuck_rate: 1.0,
            seed: 3,
            ..FaultModel::none()
        };
        let mut session = SessionState::new(profile.sensors.len());
        stream(
            &aqua,
            &profile,
            &mut session,
            &Scenario::default(),
            10,
            faults,
            None,
        );
        assert!(
            !session.quarantined_channels().is_empty(),
            "frozen channels must be caught by the repeat check"
        );
    }

    #[test]
    fn malicious_campaign_is_quarantined_within_policy_windows() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let faults = FaultModel {
            malicious_rate: 0.15,
            malicious_onset: 2,
            seed: 19,
            ..FaultModel::none()
        };
        let compromised: Vec<usize> = (0..profile.sensors.len())
            .filter(|&c| faults.is_malicious_channel(c))
            .collect();
        assert!(
            !compromised.is_empty() && compromised.len() < profile.sensors.len(),
            "seed must compromise a strict subset ({} of {})",
            compromised.len(),
            profile.sensors.len()
        );

        // Bound check: the default bias violates the plausibility bounds,
        // so sticky quarantine must isolate every compromised channel
        // within `MAX_IMPLAUSIBLE` observation windows of the onset.
        let policy_windows = crate::health::MAX_IMPLAUSIBLE;
        let mut short = SessionState::new(profile.sensors.len());
        stream(
            &aqua,
            profile,
            &mut short,
            &Scenario::default(),
            faults.malicious_onset + policy_windows as u64,
            faults,
            None,
        );
        assert_eq!(
            short.quarantined_channels(),
            compromised,
            "exactly the compromised channels must be quarantined"
        );

        // Detections keep flowing on the surviving sensors: the same
        // campaign with a mid-stream leak still localizes it.
        let mut session = SessionState::new(profile.sensors.len());
        let scenario = leak_at_slot_8(net, 0.02);
        let hit = stream(&aqua, profile, &mut session, &scenario, 16, faults, None);
        let hit = hit.expect("spoofed channels must not blind the session");
        assert!(
            (8..=11).contains(&hit),
            "detection at slot {hit}, leak started at slot 8"
        );
        assert_eq!(session.quarantined_channels(), compromised);
        let last = session.detections.last().expect("detections fired");
        assert_eq!(last.quarantined, compromised);
    }

    #[test]
    fn telemetry_counts_slots_quarantines_and_detections() {
        let net = synth::epa_net();
        let config = AquaScaleConfig {
            model: ModelKind::logistic_r(),
            train_samples: 40,
            max_events: 2,
            threads: 4,
            ..Default::default()
        };
        let hub = aqua_telemetry::TelemetryHub::new();
        let aqua = AquaScale::new(&net, config).with_telemetry(hub.ctx());
        let profile = aqua.train_profile().unwrap();
        let mut session = SessionState::new(profile.sensors.len());
        stream(
            &aqua,
            &profile,
            &mut session,
            &Scenario::default(),
            8,
            FaultModel::none(),
            Some(0),
        );

        let snap = hub.metrics_snapshot();
        assert_eq!(snap.counter("core.monitor.slots"), 9);
        // The dead channel goes stale and crosses the threshold exactly
        // once (quarantine is sticky).
        assert_eq!(snap.counter("core.monitor.quarantine_transitions"), 1);
        // Slot 0 primes the delta features; every later slot infers.
        assert_eq!(snap.counter("core.infer.count"), 8);
        assert_eq!(
            snap.counter("core.monitor.detections") as usize,
            session.detections.len()
        );
    }

    #[test]
    fn dropout_degrades_gracefully_without_errors() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let faults = FaultModel {
            dropout_rate: 0.2,
            seed: 11,
            ..FaultModel::none()
        };
        let mut session = SessionState::new(profile.sensors.len());
        let scenario = leak_at_slot_8(net, 0.015);
        // Must complete without error (`stream` unwraps every slot);
        // detection is best-effort under 20% dropout but the pipeline
        // itself must never fall over.
        let hit = stream(&aqua, profile, &mut session, &scenario, 16, faults, None);
        assert!(hit.is_none() || hit.unwrap() >= 8);
        assert_eq!(session.slots_observed(), 17);
    }

    #[test]
    fn session_row_equals_the_corpus_row() {
        // The two readings a corpus row is made from, fed to a session,
        // give that row bit for bit: with default noise, and with channels
        // that drop and freeze.
        let net = synth::epa_net();
        let drop_and_freeze = FaultModel {
            dropout_rate: 0.2,
            stuck_rate: 0.2,
            seed: 8,
            ..FaultModel::none()
        };
        for faults in [FaultModel::none(), drop_and_freeze] {
            let features = FeatureConfig {
                faults,
                ..Default::default()
            };
            let aqua = AquaScale::new(
                &net,
                AquaScaleConfig {
                    features,
                    ..Default::default()
                },
            );
            let sensors = aqua.sensors();
            let builder = DatasetBuilder::new(&net, sensors.clone()).feature_config(features);
            let (samples, seed) = (6, 3);
            let corpus = builder.build(samples, seed, 1).unwrap();
            assert_eq!(
                corpus.summary.imputed_readings > 0,
                faults.enabled(),
                "dropout must hit some channel"
            );
            for i in 0..samples {
                let readings = builder.sample_readings(i, seed).unwrap();
                let mut session = SessionState::new(sensors.len());
                assert!(session.next_row(&aqua, &sensors, &readings[0]).is_none());
                let row = session
                    .next_row(&aqua, &sensors, &readings[1])
                    .expect("a row from the second slot");
                let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&row), bits(corpus.x.row(i)), "sample {i}, {faults:?}");
            }
        }
    }
}
