//! Readings and feature rows: the measurement step and the delta function
//! both phases share.
//!
//! "We use the difference between two sets of consecutive readings from IoT
//! devices as the features of X. That is `x_a` is the change on pressure
//! head or flow rate of sensor `a`. The dynamic IoT observations X
//! aggregated with the static topology T are then the features of a
//! training sample." (Sec. IV-A)
//!
//! Every reading in the system is made by [`measure`]: the corpus build,
//! the campaign render, the examples and the session tests. Every feature
//! row is made by [`feature_row`]: the corpus build and a Phase-II session.
//! So a session sees the same kind of readings the profile was trained on,
//! noise included, and turns them into a row the same way.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_hydraulics::Snapshot;
use aqua_net::Network;
use rand::rngs::StdRng;

use crate::fault::{FaultInjector, FaultModel};
use crate::noise::MeasurementNoise;
use crate::sensor::SensorSet;

/// Feature-extraction options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureConfig {
    /// Measurement noise applied independently to every reading.
    pub noise: MeasurementNoise,
    /// Append the static topology summary `T` (paper default: yes).
    pub include_topology: bool,
    /// Sensor fault injection applied after noise (default: no faults).
    pub faults: FaultModel,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            noise: MeasurementNoise::default(),
            include_topology: true,
            faults: FaultModel::none(),
        }
    }
}

impl Codec for FeatureConfig {
    fn encode(&self, w: &mut Writer) {
        self.noise.encode(w);
        w.bool(self.include_topology);
        self.faults.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(FeatureConfig {
            noise: Codec::decode(r)?,
            include_topology: r.bool()?,
            faults: Codec::decode(r)?,
        })
    }
}

/// The measurement step: what the deployed sensors deliver at each of
/// `slots`, given as a sampling-slot index and the snapshot solved for it.
///
/// Each channel's true value ([`SensorSet::read`]) gets `noise` drawn from
/// `rng`, then passes through `injector` at the slot's index; `None` is a
/// dropped reading. Noise is drawn channel by channel, each channel's slots
/// in order. Fault placement is hashed, never drawn from `rng`, so faults
/// cannot perturb the noise stream. Returns one row per slot, in channel
/// order: pressure nodes first, then flow links.
pub fn measure(
    sensors: &SensorSet,
    slots: &[(u64, &Snapshot)],
    noise: &MeasurementNoise,
    rng: &mut StdRng,
    injector: &mut FaultInjector,
) -> Vec<Vec<Option<f64>>> {
    let truth: Vec<Vec<f64>> = slots.iter().map(|(_, snap)| sensors.read(snap)).collect();
    let n_pressure = sensors.pressure_nodes.len();
    let mut rows: Vec<Vec<Option<f64>>> = slots
        .iter()
        .map(|_| Vec::with_capacity(sensors.len()))
        .collect();
    for channel in 0..sensors.len() {
        for ((row, truth), &(slot, _)) in rows.iter_mut().zip(&truth).zip(slots) {
            let value = if channel < n_pressure {
                noise.pressure(truth[channel], rng)
            } else {
                noise.flow(truth[channel], rng)
            };
            row.push(injector.read(channel, slot, value));
        }
    }
    rows
}

/// The delta function: the feature row for two consecutive readings of
/// every channel.
///
/// Per channel `cur − prev`, or `0.0` ("no observed change") where either
/// reading is missing or `quarantined(channel)` holds; then the 16 static
/// topology features `T` when `config.include_topology` is set.
pub fn feature_row(
    net: &Network,
    config: &FeatureConfig,
    prev: &[Option<f64>],
    cur: &[Option<f64>],
    quarantined: impl Fn(usize) -> bool,
) -> Vec<f64> {
    let topology = if config.include_topology {
        net.topology_features()
    } else {
        Vec::new()
    };
    // One exact-size allocation: a corpus holds every row until its
    // matrix is assembled, so spare capacity would add up.
    prev.iter()
        .zip(cur)
        .enumerate()
        .map(|(channel, pair)| match pair {
            (Some(p), Some(c)) if !quarantined(channel) => c - p,
            _ => 0.0,
        })
        .chain(topology)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
    use aqua_net::synth;
    use rand::SeedableRng;

    fn snapshots() -> (aqua_net::Network, Snapshot, Snapshot) {
        let net = synth::epa_net();
        let base =
            solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
        let leak = Scenario::new().with_leak(LeakEvent::new(net.junction_ids()[40], 0.01, 0));
        let after = solve_snapshot(&net, &leak, 0, &SolverOptions::default()).unwrap();
        (net, base, after)
    }

    /// `before` at slot 7 and `after` at slot 9, measured under `cfg` with
    /// noise seeded `seed`: the feature row and the number of channels
    /// with a missing reading.
    fn row(
        net: &Network,
        sensors: &SensorSet,
        (before, after): (&Snapshot, &Snapshot),
        cfg: &FeatureConfig,
        seed: u64,
    ) -> (Vec<f64>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut injector = FaultInjector::new(cfg.faults);
        let readings = measure(
            sensors,
            &[(7, before), (9, after)],
            &cfg.noise,
            &mut rng,
            &mut injector,
        );
        let missing = readings[0]
            .iter()
            .zip(&readings[1])
            .filter(|(b, a)| b.is_none() || a.is_none())
            .count();
        let f = feature_row(net, cfg, &readings[0], &readings[1], |_| false);
        (f, missing)
    }

    #[test]
    fn row_has_one_delta_per_sensor_then_topology() {
        let (net, base, after) = snapshots();
        let sensors = SensorSet::full(&net);
        let (f, _) = row(
            &net,
            &sensors,
            (&base, &after),
            &FeatureConfig::default(),
            0,
        );
        assert_eq!(f.len(), sensors.len() + 16);
        assert!(f.iter().all(|v| v.is_finite()));
        // A corpus holds every row until its matrix is built.
        assert_eq!(f.capacity(), f.len(), "no spare capacity");
    }

    #[test]
    fn noise_is_drawn_channel_by_channel_each_channels_slots_in_order() {
        // A corpus sample has always drawn a channel's before and after
        // noise back to back, and its bytes depend on that order; the
        // training pins are noise-free, so they cannot see it.
        let (net, base, after) = snapshots();
        let sensors = SensorSet::full(&net);
        let cfg = FeatureConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut injector = FaultInjector::new(cfg.faults);
        let slots = [(7, &base), (9, &after)];
        let readings = measure(&sensors, &slots, &cfg.noise, &mut rng, &mut injector);
        let mut rng = StdRng::seed_from_u64(4);
        let (b, a) = (sensors.read(&base), sensors.read(&after));
        for ch in 0..sensors.len() {
            let mut draw = |truth: f64| {
                if ch < sensors.pressure_nodes.len() {
                    cfg.noise.pressure(truth, &mut rng)
                } else {
                    cfg.noise.flow(truth, &mut rng)
                }
            };
            let expected = [Some(draw(b[ch])), Some(draw(a[ch]))];
            assert_eq!([readings[0][ch], readings[1][ch]], expected, "channel {ch}");
        }
    }

    #[test]
    fn topology_features_optional() {
        let (net, base, after) = snapshots();
        let sensors = SensorSet::full(&net);
        let cfg = FeatureConfig {
            include_topology: false,
            ..Default::default()
        };
        let (f, _) = row(&net, &sensors, (&base, &after), &cfg, 0);
        assert_eq!(f.len(), sensors.len());
    }

    #[test]
    fn noiseless_pressure_deltas_are_negative_under_leak() {
        // A leak lowers pressures network-wide; the noiseless deltas at the
        // leak node itself must be negative.
        let (net, base, after) = snapshots();
        let leak_node = net.junction_ids()[40];
        let sensors = SensorSet {
            pressure_nodes: vec![leak_node],
            flow_links: vec![],
        };
        let cfg = FeatureConfig {
            noise: MeasurementNoise::none(),
            include_topology: false,
            ..Default::default()
        };
        let (f, _) = row(&net, &sensors, (&base, &after), &cfg, 0);
        assert!(f[0] < 0.0, "pressure delta at leak node {}", f[0]);
    }

    #[test]
    fn noise_perturbs_deltas() {
        let (net, base, after) = snapshots();
        let sensors = SensorSet::full(&net);
        let noisy = FeatureConfig {
            noise: MeasurementNoise {
                pressure_sigma: 0.5,
                flow_sigma: 0.005,
            },
            include_topology: false,
            ..Default::default()
        };
        let clean = FeatureConfig {
            noise: MeasurementNoise::none(),
            include_topology: false,
            ..Default::default()
        };
        let (a, _) = row(&net, &sensors, (&base, &after), &noisy, 1);
        let (b, _) = row(&net, &sensors, (&base, &after), &clean, 1);
        assert_ne!(a, b);
        let max_dev = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(max_dev > 0.01 && max_dev < 5.0, "max deviation {max_dev}");
    }

    #[test]
    fn missing_readings_give_zero_deltas() {
        let (net, base, after) = snapshots();
        let sensors = SensorSet::full(&net);
        let cfg = FeatureConfig {
            include_topology: false,
            faults: FaultModel {
                dropout_rate: 0.3,
                seed: 5,
                ..FaultModel::none()
            },
            ..Default::default()
        };
        let (f, imputed) = row(&net, &sensors, (&base, &after), &cfg, 2);
        assert_eq!(f.len(), sensors.len());
        assert!(imputed > 0, "30% dropout must hit some channel");
        assert!(imputed < sensors.len(), "not every channel drops");
        assert!(f.iter().all(|v| v.is_finite()));
        // Imputed channels read exactly 0.0 (no observed change).
        assert!(f.iter().filter(|v| **v == 0.0).count() >= imputed);
    }

    #[test]
    fn fault_injection_does_not_perturb_the_noise_stream() {
        // Fault placement is hash-based: channels untouched by faults must
        // carry the exact same noisy delta as a fault-free measurement from
        // the same RNG seed.
        let (net, base, after) = snapshots();
        let sensors = SensorSet::full(&net);
        let clean_cfg = FeatureConfig {
            include_topology: false,
            ..Default::default()
        };
        let faulty_cfg = FeatureConfig {
            faults: FaultModel {
                dropout_rate: 0.2,
                seed: 9,
                ..FaultModel::none()
            },
            ..clean_cfg
        };
        let (clean, _) = row(&net, &sensors, (&base, &after), &clean_cfg, 3);
        let (faulty, imputed) = row(&net, &sensors, (&base, &after), &faulty_cfg, 3);
        assert!(imputed > 0);
        let matching = clean.iter().zip(&faulty).filter(|(c, f)| c == f).count();
        assert!(
            matching >= sensors.len() - 2 * imputed,
            "non-faulted channels must match the clean measurement \
             ({matching} of {} matched, {imputed} imputed)",
            sensors.len()
        );
    }
}
