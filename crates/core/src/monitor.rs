//! The observe–analyze–adapt loop (paper Sec. II / Fig. 1) as a streaming
//! monitoring session.
//!
//! A [`MonitoringSession`] consumes successive hydraulic states (one per
//! IoT sampling slot), maintains the previous readings, and runs Phase-II
//! inference on every new slot. This is the online deployment shape of
//! AquaSCALE: the profile is trained once (Phase I), then live telemetry
//! streams through `observe()` and detections come out with their
//! detection delay — the quantity behind the "minutes, not hours" claim.
//!
//! The session is fault-tolerant: every channel passes through an optional
//! [`FaultInjector`] (for degraded-data drills) and a per-sensor health
//! tracker ([`SensorHealth`]). Missing readings are imputed by carrying the
//! last observation forward, implausible and stuck channels are quarantined
//! per the [`HealthPolicy`], and inference keeps running on whatever
//! channels survive — a dead sensor degrades accuracy, it does not stop
//! detection.
//!
//! The session splits into an owned [`SessionState`] (readings history,
//! RNG, fault injector, health trackers, detections) and the borrowed
//! deployment (`AquaScale` + `ProfileModel`). [`MonitoringSession`] bundles
//! the two for in-process streaming; the serving layer keeps a
//! `SessionState` per hosted network and supplies the deployment per call
//! ([`SessionState::observe_readings`]).

use std::ops::{Deref, DerefMut};
use std::time::Duration;

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_hydraulics::{solve_snapshot, Scenario, Snapshot, SolverOptions};
use aqua_net::{Network, NodeId};
use aqua_sensing::{FaultInjector, FaultModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::AquaError;
use crate::health::{HealthPolicy, SensorHealth};
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
    rng: StdRng,
    injector: FaultInjector,
    policy: HealthPolicy,
    health: Vec<SensorHealth>,
    slot: u64,
    /// Detections fired so far (non-empty predicted sets).
    pub detections: Vec<Detection>,
}

impl SessionState {
    /// Fresh state for a deployment with `channels` sensor channels.
    pub fn new(channels: usize, seed: u64, faults: FaultModel) -> SessionState {
        SessionState {
            prev_used: None,
            rng: StdRng::seed_from_u64(seed),
            injector: FaultInjector::new(faults),
            policy: HealthPolicy::default(),
            health: (0..channels).map(|_| SensorHealth::default()).collect(),
            slot: 0,
            detections: Vec::new(),
        }
    }

    /// Replaces the health policy (builder style).
    pub fn with_policy(mut self, policy: HealthPolicy) -> SessionState {
        self.policy = policy;
        self
    }

    /// Takes one sensor channel fully offline from the next slot on. The
    /// health tracker will observe the silence and quarantine the channel;
    /// inference keeps running on the remaining sensors.
    pub fn kill_sensor(&mut self, channel: usize) {
        self.injector.kill_channel(channel);
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

    /// Feeds the next slot's hydraulic state. Returns the inference if a
    /// previous reading existed (the features are consecutive-reading
    /// deltas), or `None` on the first slot.
    ///
    /// Each channel is read once per slot (truth → measurement noise →
    /// fault injection → health checks). A channel whose reading is missing
    /// or implausible is imputed by last observation carried forward;
    /// quarantined channels contribute a zero delta.
    pub fn observe(
        &mut self,
        aqua: &AquaScale<'_>,
        profile: &ProfileModel,
        snapshot: Snapshot,
        external: &ExternalObservations,
    ) -> Result<Option<Inference>, AquaError> {
        let noise = aqua.config().features.noise;
        // Noise is drawn for every channel on every slot — even quarantined
        // ones — so the RNG stream (and with it the whole session) never
        // depends on the health trajectory.
        let mut readings: Vec<Option<f64>> = Vec::with_capacity(profile.sensors.len());
        for &node in &profile.sensors.pressure_nodes {
            readings.push(Some(noise.pressure(snapshot.pressure(node), &mut self.rng)));
        }
        for &link in &profile.sensors.flow_links {
            readings.push(Some(noise.flow(snapshot.flow(link), &mut self.rng)));
        }
        self.observe_readings(aqua, profile, snapshot.time, &readings, external)
    }

    /// Feeds one slot of already-measured sensor readings (the ingest path
    /// of the serving layer, where values arrive over the wire instead of
    /// from a simulated snapshot). `readings` are raw per-channel values in
    /// feature order — pressure channels first, then flow channels — with
    /// `None` for channels the client could not read this slot.
    ///
    /// Present values still pass through the session's fault injector and
    /// the per-channel health checks, so drills and quarantine behave
    /// identically to [`SessionState::observe`]; measurement noise is *not*
    /// added (the values are measurements already).
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
        let tel = aqua.telemetry();
        let config = aqua.config().features;
        let n_pressure = profile.sensors.pressure_nodes.len();
        let slot = self.slot;
        self.slot += 1;
        let quarantined_before = tel
            .enabled()
            .then(|| self.health.iter().filter(|h| h.is_quarantined()).count());

        // Stuck detection keys on bit-identical repeats, which only honest
        // *noisy* telemetry never produces — disable it per channel kind
        // when the configured noise is zero.
        let policy_for = |sigma: f64| -> HealthPolicy {
            let mut p = self.policy;
            if sigma == 0.0 {
                p.max_repeats = 0;
            }
            p
        };
        let p_policy = policy_for(config.noise.pressure_sigma);
        let f_policy = policy_for(config.noise.flow_sigma);

        let mut used: Vec<Option<f64>> = Vec::with_capacity(readings.len());
        for (ch, reading) in readings.iter().enumerate() {
            let delivered = match reading {
                Some(v) => self.injector.read(ch, slot, *v).value,
                None => None,
            };
            let policy = if ch < n_pressure {
                &p_policy
            } else {
                &f_policy
            };
            let bounds = if ch < n_pressure {
                policy.pressure_bounds
            } else {
                policy.flow_bounds
            };
            used.push(self.health[ch].ingest(delivered, bounds, policy));
        }

        let features = self.prev_used.as_ref().map(|prev| {
            let mut features = Vec::with_capacity(used.len());
            for (ch, (p, c)) in prev.iter().zip(&used).enumerate() {
                let delta = match (p, c) {
                    (Some(p), Some(c)) if !self.health[ch].is_quarantined() => c - p,
                    // Missing history or a quarantined channel: impute "no
                    // observed change" rather than feeding garbage in.
                    _ => 0.0,
                };
                features.push(delta);
            }
            if config.include_topology {
                features.extend(aqua.network().topology_features());
            }
            features
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
        let Some(features) = features else {
            return Ok(None);
        };

        let inference = aqua.infer(profile, &features, external)?;
        if !inference.leak_nodes.is_empty() {
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
}

impl Codec for SessionState {
    // Everything that evolves slot-to-slot is captured, including the RNG
    // stream position, so a decoded state continues *bit-identically* from
    // where the encoded one stopped — the property replica failover needs.
    fn encode(&self, w: &mut Writer) {
        self.prev_used.encode(w);
        for word in self.rng.state() {
            w.u64(word);
        }
        self.injector.encode(w);
        self.policy.encode(w);
        self.health.encode(w);
        w.u64(self.slot);
        self.detections.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let prev_used = Codec::decode(r)?;
        let rng = StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        Ok(SessionState {
            prev_used,
            rng,
            injector: FaultInjector::decode(r)?,
            policy: HealthPolicy::decode(r)?,
            health: Codec::decode(r)?,
            slot: r.u64()?,
            detections: Codec::decode(r)?,
        })
    }
}

/// A streaming Phase-II session over live readings: a [`SessionState`]
/// bundled with the deployment it monitors. Dereferences to the state, so
/// health/quarantine/detection accessors are available directly.
pub struct MonitoringSession<'a> {
    aqua: &'a AquaScale<'a>,
    profile: &'a ProfileModel,
    state: SessionState,
}

impl<'a> Deref for MonitoringSession<'a> {
    type Target = SessionState;
    fn deref(&self) -> &SessionState {
        &self.state
    }
}

impl<'a> DerefMut for MonitoringSession<'a> {
    fn deref_mut(&mut self) -> &mut SessionState {
        &mut self.state
    }
}

impl<'a> MonitoringSession<'a> {
    /// Starts a session against a trained profile (no injected faults).
    pub fn new(aqua: &'a AquaScale<'a>, profile: &'a ProfileModel, seed: u64) -> Self {
        Self::with_faults(aqua, profile, seed, FaultModel::none())
    }

    /// Starts a session whose readings pass through a [`FaultModel`] — the
    /// degraded-data drill mode used by the robustness bench and tests.
    pub fn with_faults(
        aqua: &'a AquaScale<'a>,
        profile: &'a ProfileModel,
        seed: u64,
        faults: FaultModel,
    ) -> Self {
        MonitoringSession {
            aqua,
            profile,
            state: SessionState::new(profile.sensors.len(), seed, faults),
        }
    }

    /// Replaces the health policy (builder style).
    pub fn with_policy(mut self, policy: HealthPolicy) -> Self {
        self.state = self.state.with_policy(policy);
        self
    }

    /// Feeds the next slot's hydraulic state; see [`SessionState::observe`].
    pub fn observe(
        &mut self,
        snapshot: Snapshot,
        external: &ExternalObservations,
    ) -> Result<Option<Inference>, AquaError> {
        self.state
            .observe(self.aqua, self.profile, snapshot, external)
    }

    /// Feeds one slot of already-measured readings; see
    /// [`SessionState::observe_readings`].
    pub fn observe_readings(
        &mut self,
        time: u64,
        readings: &[Option<f64>],
        external: &ExternalObservations,
    ) -> Result<Option<Inference>, AquaError> {
        self.state
            .observe_readings(self.aqua, self.profile, time, readings, external)
    }

    /// Convenience driver: simulates `slots` sampling intervals of `step`
    /// seconds under `scenario` and streams them through the session.
    /// Returns the first slot at which any true leak node was among the
    /// detections (the detection delay in slots), if ever.
    pub fn run_scenario(
        &mut self,
        scenario: &Scenario,
        slots: u64,
        step: u64,
        solver: &SolverOptions,
    ) -> Result<Option<u64>, AquaError> {
        let _run = self.aqua.telemetry().span("core.monitor.run");
        let net: &Network = self.aqua.network();
        let mut first_hit = None;
        for slot in 0..=slots {
            let t = slot * step;
            let snap = solve_snapshot(net, scenario, t, solver)?;
            if let Some(inference) = self.observe(snap, &ExternalObservations::none())? {
                let truth = scenario.true_leak_nodes(t);
                if first_hit.is_none()
                    && !truth.is_empty()
                    && truth.iter().any(|n| inference.leak_nodes.contains(n))
                {
                    first_hit = Some(slot);
                }
            }
        }
        Ok(first_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AquaScaleConfig;
    use aqua_hydraulics::LeakEvent;
    use aqua_ml::ModelKind;
    use aqua_net::synth;
    use aqua_sensing::{FeatureConfig, MeasurementNoise};
    use aqua_telemetry::sync::OnceLock;

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

    #[test]
    fn session_detects_mid_stream_leak_quickly() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut session = MonitoringSession::new(&aqua, profile, 5);

        // Leak starts at slot 8 of a 16-slot window.
        let leak_node = net.junction_ids()[33];
        let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, 8 * 900));
        let hit = session
            .run_scenario(&scenario, 16, 900, &SolverOptions::default())
            .unwrap();
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
        let mut session = MonitoringSession::new(&aqua, profile, 6);
        let hit = session
            .run_scenario(&Scenario::default(), 10, 900, &SolverOptions::default())
            .unwrap();
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
        let mut session = MonitoringSession::new(&aqua, profile, 7);
        let snap = solve_snapshot(net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
        let out = session
            .observe(snap, &ExternalObservations::none())
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn observe_readings_matches_observe_on_identical_values() {
        // The serving ingest path and the snapshot path must agree exactly
        // when fed the same measured values. Noiseless config: `observe`
        // adds no noise, so the raw sensor values ARE the measurements.
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut by_snapshot = MonitoringSession::new(&aqua, profile, 5);
        let mut by_readings = MonitoringSession::new(&aqua, profile, 5);

        let leak_node = net.junction_ids()[33];
        let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, 4 * 900));
        for slot in 0..=8u64 {
            let t = slot * 900;
            let snap = solve_snapshot(net, &scenario, t, &SolverOptions::default()).unwrap();
            let readings: Vec<Option<f64>> = profile
                .sensors
                .pressure_nodes
                .iter()
                .map(|&n| Some(snap.pressure(n)))
                .chain(
                    profile
                        .sensors
                        .flow_links
                        .iter()
                        .map(|&l| Some(snap.flow(l))),
                )
                .collect();
            let a = by_snapshot
                .observe(snap, &ExternalObservations::none())
                .unwrap();
            let b = by_readings
                .observe_readings(t, &readings, &ExternalObservations::none())
                .unwrap();
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.leak_nodes, b.leak_nodes, "slot {slot}");
                    let a_bits: Vec<u64> = a.p1.iter().map(|p| p.to_bits()).collect();
                    let b_bits: Vec<u64> = b.p1.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(
                        a_bits, b_bits,
                        "slot {slot}: probabilities must be bitwise equal"
                    );
                }
                other => panic!("slot {slot}: paths disagree on Some/None: {other:?}"),
            }
        }
        assert_eq!(
            by_snapshot.detections.len(),
            by_readings.detections.len(),
            "both paths must fire the same detections"
        );
    }

    #[test]
    fn observe_readings_rejects_wrong_channel_count() {
        let net = synth::epa_net();
        let config = AquaScaleConfig {
            model: ModelKind::logistic_r(),
            train_samples: 40,
            threads: 4,
            ..Default::default()
        };
        let aqua = AquaScale::new(&net, config);
        let profile = aqua.train_profile().unwrap();
        let mut session = MonitoringSession::new(&aqua, &profile, 5);
        let err = session
            .observe_readings(0, &[Some(1.0)], &ExternalObservations::none())
            .expect_err("one reading for many channels");
        assert!(matches!(err, AquaError::InvalidConfig { .. }));
    }

    #[test]
    fn dead_sensor_is_quarantined_and_detections_still_fire() {
        let (net, config, profile) = trained();
        let aqua = AquaScale::new(net, config.clone());
        let mut session = MonitoringSession::new(&aqua, profile, 5);
        // Take one pressure channel fully offline before the stream starts.
        session.kill_sensor(0);

        let leak_node = net.junction_ids()[33];
        let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, 8 * 900));
        let hit = session
            .run_scenario(&scenario, 16, 900, &SolverOptions::default())
            .unwrap();

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
        let mut session = MonitoringSession::with_faults(&aqua, &profile, 5, faults);
        session
            .run_scenario(&Scenario::default(), 10, 900, &SolverOptions::default())
            .unwrap();
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
        // within `max_implausible` observation windows of the onset.
        let policy_windows = HealthPolicy::default().max_implausible;
        let mut short = MonitoringSession::with_faults(&aqua, profile, 5, faults);
        short
            .run_scenario(
                &Scenario::default(),
                faults.malicious_onset + policy_windows as u64,
                900,
                &SolverOptions::default(),
            )
            .unwrap();
        assert_eq!(
            short.quarantined_channels(),
            compromised,
            "exactly the compromised channels must be quarantined"
        );

        // Detections keep flowing on the surviving sensors: the same
        // campaign with a mid-stream leak still localizes it.
        let mut session = MonitoringSession::with_faults(&aqua, profile, 5, faults);
        let leak_node = net.junction_ids()[33];
        let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.02, 8 * 900));
        let hit = session
            .run_scenario(&scenario, 16, 900, &SolverOptions::default())
            .unwrap();
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
        let mut session = MonitoringSession::new(&aqua, &profile, 5);
        session.kill_sensor(0);
        session
            .run_scenario(&Scenario::default(), 8, 900, &SolverOptions::default())
            .unwrap();

        let snap = hub.metrics_snapshot();
        assert_eq!(snap.counter("core.monitor.slots"), 9);
        // The killed channel goes stale and crosses the threshold exactly
        // once (quarantine is sticky).
        assert_eq!(snap.counter("core.monitor.quarantine_transitions"), 1);
        // Slot 0 primes the delta features; every later slot infers.
        assert_eq!(snap.counter("core.infer.count"), 8);
        assert_eq!(
            snap.counter("core.monitor.detections") as usize,
            session.detections.len()
        );
        assert!(hub.span_tree().iter().any(|s| s.name == "core.monitor.run"));
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
        let mut session = MonitoringSession::with_faults(&aqua, profile, 5, faults);
        let leak_node = net.junction_ids()[33];
        let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, 0.015, 8 * 900));
        // Must complete without error; detection is best-effort under 20%
        // dropout but the pipeline itself must never fall over.
        let hit = session
            .run_scenario(&scenario, 16, 900, &SolverOptions::default())
            .unwrap();
        assert!(hit.is_none() || hit.unwrap() >= 8);
    }
}
