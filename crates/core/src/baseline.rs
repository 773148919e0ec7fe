//! The enumeration baseline the paper argues against.
//!
//! "Another approach adopted by utilities is to use a calibrated hydraulic
//! simulator to localize the leak by enumerating possible leaky points for
//! a best match between the simulation result and the … meter data.
//! Although this appears plausible …, it is computationally expensive or
//! prohibitive for single/multi-leak localization in large-scale water
//! networks." (Sec. I)
//!
//! [`EnumerationBaseline`] implements that utility practice: sweep every
//! candidate (node, leak-size) pair, simulate it, and keep the candidate
//! whose sensor deltas best match the observation; multi-leak localization
//! runs the sweep greedily event-by-event. [`full_enumeration_count`]
//! quantifies why the exhaustive multi-leak version is prohibitive.

use std::time::Duration;

use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, Snapshot, SolverOptions};
use aqua_net::{Network, NodeId};
use aqua_sensing::SensorSet;
use aqua_telemetry::sync::Arc;
use aqua_telemetry::Clock;

use crate::error::AquaError;
use crate::timing::SharedClock;

/// Enumeration-based leak localization via simulation matching.
#[derive(Debug, Clone)]
pub struct EnumerationBaseline<'a> {
    net: &'a Network,
    sensors: SensorSet,
    /// The grid of candidate leak sizes (emitter coefficients) swept per
    /// node.
    pub ec_grid: Vec<f64>,
    /// Hydraulic options for candidate simulations.
    pub solver: SolverOptions,
    clock: SharedClock,
}

/// Result of a baseline localization.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Localized leak nodes, best first.
    pub leak_nodes: Vec<NodeId>,
    /// Residual of the best match (‖observed − simulated‖₂ over sensors).
    pub residual: f64,
    /// Candidate simulations performed.
    pub simulations: usize,
    /// Wall-clock time of the sweep — compare with
    /// [`crate::Inference::latency`].
    pub elapsed: Duration,
}

impl<'a> EnumerationBaseline<'a> {
    /// Creates a baseline with a 4-point leak-size grid.
    pub fn new(net: &'a Network, sensors: SensorSet) -> Self {
        EnumerationBaseline {
            net,
            sensors,
            ec_grid: vec![0.003, 0.006, 0.012, 0.018],
            solver: SolverOptions::default(),
            clock: SharedClock::default(),
        }
    }

    /// Replaces the elapsed-time source; tests inject a
    /// [`ManualClock`](aqua_telemetry::ManualClock) so
    /// [`BaselineResult::elapsed`] stays reproducible.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = SharedClock::new(clock);
        self
    }

    /// Sensor deltas of a candidate scenario against the leak-free state.
    fn deltas(&self, scenario: &Scenario, base: &Snapshot, t: u64) -> Result<Vec<f64>, AquaError> {
        let snap = solve_snapshot(self.net, scenario, t, &self.solver)?;
        let mut d = Vec::with_capacity(self.sensors.len());
        for &node in &self.sensors.pressure_nodes {
            d.push(snap.pressure(node) - base.pressure(node));
        }
        for &link in &self.sensors.flow_links {
            d.push(snap.flow(link) - base.flow(link));
        }
        Ok(d)
    }

    /// Localizes up to `max_events` leaks by greedy residual descent:
    /// repeatedly add the single (node, size) candidate that most reduces
    /// the match residual; stop when no candidate improves it.
    ///
    /// `observed` must be the sensor deltas (after − before) in the same
    /// order produced by the sensing layer: pressure sensors then flow
    /// sensors (topology features, if any, must be stripped by the caller).
    ///
    /// # Errors
    ///
    /// Propagates hydraulic failures from candidate simulations.
    pub fn localize(
        &self,
        observed: &[f64],
        t: u64,
        max_events: usize,
    ) -> Result<BaselineResult, AquaError> {
        assert_eq!(
            observed.len(),
            self.sensors.len(),
            "observation length must equal sensor count"
        );
        let start = self.clock.now_ns();
        let base = solve_snapshot(self.net, &Scenario::default(), t, &self.solver)?;
        let junctions = self.net.junction_ids();

        let mut chosen: Vec<LeakEvent> = Vec::new();
        let mut best_residual = l2(observed, &vec![0.0; observed.len()]);
        let mut simulations = 0usize;

        for _ in 0..max_events {
            let mut round_best: Option<(LeakEvent, f64)> = None;
            for &j in &junctions {
                if chosen.iter().any(|l| l.node == j) {
                    continue;
                }
                for &ec in &self.ec_grid {
                    let mut scenario = Scenario::new().with_leaks(chosen.iter().copied());
                    scenario.leaks.push(LeakEvent::new(j, ec, 0));
                    let sim = self.deltas(&scenario, &base, t)?;
                    simulations += 1;
                    let r = l2(observed, &sim);
                    if round_best.as_ref().map(|(_, br)| r < *br).unwrap_or(true) {
                        round_best = Some((LeakEvent::new(j, ec, 0), r));
                    }
                }
            }
            match round_best {
                Some((leak, r)) if r + 1e-12 < best_residual => {
                    chosen.push(leak);
                    best_residual = r;
                }
                _ => break,
            }
        }

        Ok(BaselineResult {
            leak_nodes: chosen.iter().map(|l| l.node).collect(),
            residual: best_residual,
            simulations,
            elapsed: self.clock.elapsed_since(start),
        })
    }
}

fn l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Number of candidate simulations an *exhaustive* enumeration would need
/// for `m` simultaneous leaks over `n` junctions with `g` leak sizes:
/// `C(n, m) · g^m`. This is the paper's "computationally prohibitive"
/// claim, made quantitative.
pub fn full_enumeration_count(n: usize, m: usize, g: usize) -> f64 {
    let mut c = 1.0f64;
    for i in 0..m {
        c *= (n - i) as f64 / (i + 1) as f64;
    }
    c * (g as f64).powi(m as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_net::synth;
    use aqua_sensing::{feature_row, measure, FaultInjector, FeatureConfig, MeasurementNoise};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn observed_for(net: &Network, sensors: &SensorSet, leaks: &[LeakEvent]) -> Vec<f64> {
        let base = solve_snapshot(net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
        let scenario = Scenario::new().with_leaks(leaks.iter().copied());
        let after = solve_snapshot(net, &scenario, 0, &SolverOptions::default()).unwrap();
        let cfg = FeatureConfig {
            noise: MeasurementNoise::none(),
            include_topology: false,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let readings = measure(
            sensors,
            &[(0, &base), (0, &after)],
            &cfg.noise,
            &mut rng,
            &mut FaultInjector::new(cfg.faults),
        );
        feature_row(net, &cfg, &readings[0], &readings[1], |_| false)
    }

    #[test]
    fn baseline_localizes_single_leak_exactly() {
        let net = synth::epa_net();
        let sensors = SensorSet::full(&net);
        let leak_node = net.junction_ids()[37];
        let observed = observed_for(&net, &sensors, &[LeakEvent::new(leak_node, 0.012, 0)]);
        let baseline = EnumerationBaseline::new(&net, sensors);
        let result = baseline.localize(&observed, 0, 1).unwrap();
        assert_eq!(result.leak_nodes, vec![leak_node]);
        assert!(result.simulations >= 91 * 4);
    }

    #[test]
    fn greedy_baseline_finds_two_leaks() {
        // Greedy residual descent is myopic: it only recovers leak pairs
        // whose best *single*-leak match is one of the true nodes, which
        // holds for roughly half of the well-separated pairs on EPA-NET.
        // Junctions 89 and 22 are such a pair; with noiseless full
        // observation and the exact size in the grid the match is exact.
        let net = synth::epa_net();
        let sensors = SensorSet::full(&net);
        let junctions = net.junction_ids();
        let leaks = [
            LeakEvent::new(junctions[89], 0.012, 0),
            LeakEvent::new(junctions[22], 0.012, 0),
        ];
        let observed = observed_for(&net, &sensors, &leaks);
        let baseline = EnumerationBaseline::new(&net, sensors);
        let result = baseline.localize(&observed, 0, 2).unwrap();
        assert_eq!(result.leak_nodes.len(), 2);
        assert!(result.leak_nodes.contains(&junctions[89]));
        assert!(result.leak_nodes.contains(&junctions[22]));
        assert!(result.residual < 1e-6, "residual {}", result.residual);
    }

    #[test]
    fn residual_decreases_with_events_allowed() {
        let net = synth::epa_net();
        let sensors = SensorSet::full(&net);
        let junctions = net.junction_ids();
        let leaks = [
            LeakEvent::new(junctions[20], 0.01, 0),
            LeakEvent::new(junctions[60], 0.015, 0),
        ];
        let observed = observed_for(&net, &sensors, &leaks);
        let baseline = EnumerationBaseline::new(&net, sensors);
        let one = baseline.localize(&observed, 0, 1).unwrap();
        let two = baseline.localize(&observed, 0, 2).unwrap();
        assert!(two.residual <= one.residual);
    }

    #[test]
    fn full_enumeration_blows_up_combinatorially() {
        // Single leak on EPA-NET: 91 * 4 = 364 candidate runs — fine.
        assert_eq!(full_enumeration_count(91, 1, 4) as u64, 364);
        // Five concurrent leaks: astronomically many.
        assert!(full_enumeration_count(91, 5, 4) > 4e10);
        // WSSC-scale: worse.
        assert!(full_enumeration_count(298, 5, 4) > 1e13);
    }

    #[test]
    #[should_panic(expected = "observation length")]
    fn wrong_observation_length_panics() {
        let net = synth::epa_net();
        let baseline = EnumerationBaseline::new(&net, SensorSet::full(&net));
        let _ = baseline.localize(&[0.0; 3], 0, 1);
    }
}
