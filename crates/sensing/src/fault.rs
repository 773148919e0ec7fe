//! Deterministic sensor fault injection.
//!
//! The paper's premise is inference from *imperfect* field data
//! ("measurements are subject to uncertainty due to sensing errors",
//! Sec. II). Additive Gaussian noise alone does not capture how IoT
//! hardware actually fails, so this module layers four canonical fault
//! modes on top of [`MeasurementNoise`](crate::MeasurementNoise):
//!
//! * **Dropout** — the reading is missing entirely (battery/radio loss).
//! * **Stuck-at** — the channel freezes at the first value it reported and
//!   repeats it forever (ADC latch-up, iced impulse line).
//! * **Drift** — a slow additive ramp, growing linearly with the sampling
//!   slot (uncompensated temperature sensitivity, fouling).
//! * **Spike** — a transient large additive excursion on a single reading
//!   (EMI burst, water hammer on an impulse line).
//! * **Malicious** — an adversarial *coordinated-bias* campaign: a
//!   deterministic subset of channels is compromised and, from an onset
//!   slot onward, every compromised channel reports the truth shifted by
//!   the same signed bias. Unlike the hardware modes above, the bias is
//!   correlated across channels by construction — that coordination is
//!   what the quarantine layer must catch (see `aqua-core`'s health
//!   checks: the default bias magnitude lands outside the plausibility
//!   bounds, so sticky quarantine isolates every compromised channel
//!   within `MAX_IMPLAUSIBLE` observation windows).
//!
//! A faulty reading surfaces as an `Option<f64>`: `None` for a dropped
//! reading, otherwise the delivered value, biased or frozen as its fault
//! dictates. Downstream consumers impute missing readings and quarantine
//! implausible or frozen channels instead of silently training on garbage.
//!
//! # Determinism
//!
//! Every fault decision is a pure hash of `(seed, channel, slot)` — no RNG
//! stream is consumed. This buys two properties the corpus builder needs:
//! the existing measurement-noise stream is byte-identical whether faults
//! are enabled or not, and fault placement is independent of the order in
//! which channels or samples are read, so corpora stay byte-identical
//! across any builder thread count. Stuck channels are the one stateful
//! mode: the frozen value is the first reading taken on the channel, which
//! is itself deterministic because every consumer reads slots in time
//! order.

use std::collections::BTreeMap;

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_telemetry::hash::splitmix64;

/// Seed-reproducible per-sensor fault configuration.
///
/// Rates are probabilities: `dropout_rate`/`spike_rate` apply per *reading*
/// (channel × slot), `stuck_rate`/`drift_rate` assign whole channels to a
/// faulty regime for the lifetime of the model. The default model injects
/// nothing — [`FaultModel::none()`] — so existing pipelines are untouched
/// until a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Per-reading probability that a reading is missing.
    pub dropout_rate: f64,
    /// Per-channel probability that a channel is frozen at its first value.
    pub stuck_rate: f64,
    /// Per-channel probability that a channel drifts.
    pub drift_rate: f64,
    /// Per-reading probability of a transient spike.
    pub spike_rate: f64,
    /// Drift slope: bias added per sampling slot on drifting channels.
    pub drift_per_slot: f64,
    /// Additive magnitude of a spike (sign is per-reading deterministic).
    pub spike_magnitude: f64,
    /// Per-channel probability that a channel is compromised by the
    /// coordinated-bias adversary.
    pub malicious_rate: f64,
    /// Additive magnitude of the coordinated bias. One campaign-wide sign
    /// is drawn from the seed, so every compromised channel shifts the
    /// same way — the signature of a coordinated attack. The default is
    /// deliberately outside the plausibility bounds of `aqua-core`'s
    /// default health policy, so quarantine catches the campaign; a
    /// stealthier adversary can lower it and is then measured as score
    /// degradation instead (see `fig_campaign`).
    pub malicious_bias: f64,
    /// First sampling slot of the spoofing campaign; readings before it
    /// are untouched.
    pub malicious_onset: u64,
    /// Base seed for all fault placement hashes.
    pub seed: u64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            dropout_rate: 0.0,
            stuck_rate: 0.0,
            drift_rate: 0.0,
            spike_rate: 0.0,
            drift_per_slot: 0.02,
            spike_magnitude: 5.0,
            malicious_rate: 0.0,
            malicious_bias: 600.0,
            malicious_onset: 0,
            seed: 0,
        }
    }
}

impl Codec for FaultModel {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.dropout_rate);
        w.f64(self.stuck_rate);
        w.f64(self.drift_rate);
        w.f64(self.spike_rate);
        w.f64(self.drift_per_slot);
        w.f64(self.spike_magnitude);
        w.f64(self.malicious_rate);
        w.f64(self.malicious_bias);
        w.u64(self.malicious_onset);
        w.u64(self.seed);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(FaultModel {
            dropout_rate: r.f64()?,
            stuck_rate: r.f64()?,
            drift_rate: r.f64()?,
            spike_rate: r.f64()?,
            drift_per_slot: r.f64()?,
            spike_magnitude: r.f64()?,
            malicious_rate: r.f64()?,
            malicious_bias: r.f64()?,
            malicious_onset: r.u64()?,
            seed: r.u64()?,
        })
    }
}

// Distinct salts keep the per-mode hash streams independent: a channel's
// stuck verdict must not correlate with its drift verdict or with any
// per-reading dropout decision.
const SALT_DROPOUT: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_STUCK: u64 = 0xbf58_476d_1ce4_e5b9;
const SALT_DRIFT: u64 = 0x94d0_49bb_1331_11eb;
const SALT_SPIKE: u64 = 0xd6e8_feb8_6659_fd93;
const SALT_SIGN: u64 = 0xa076_1d64_78bd_642f;
const SALT_MALICIOUS: u64 = 0xe703_7ed1_a0b4_28db;

impl FaultModel {
    /// The no-fault model (also the `Default`).
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// Returns `self` with a replaced base seed (used by the corpus builder
    /// to decorrelate fault placement across samples).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derives the model for corpus sample `index`: same rates, a
    /// deterministically decorrelated seed, so each sample sees an
    /// independent fault placement while the corpus as a whole remains a
    /// pure function of the base seed.
    pub fn for_sample(self, index: u64) -> Self {
        let mixed = mix2(self.seed ^ SALT_SIGN, index);
        self.with_seed(mixed)
    }

    /// `true` when any fault mode has a positive rate.
    pub fn enabled(&self) -> bool {
        self.dropout_rate > 0.0
            || self.stuck_rate > 0.0
            || self.drift_rate > 0.0
            || self.spike_rate > 0.0
            || self.malicious_rate > 0.0
    }

    /// Is this reading dropped?
    pub fn is_dropout(&self, channel: usize, slot: u64) -> bool {
        unit(mix3(self.seed ^ SALT_DROPOUT, channel as u64, slot)) < self.dropout_rate
    }

    /// Is this channel in the stuck-at regime?
    pub fn is_stuck_channel(&self, channel: usize) -> bool {
        unit(mix2(self.seed ^ SALT_STUCK, channel as u64)) < self.stuck_rate
    }

    /// Is this channel in the drift regime?
    pub fn is_drift_channel(&self, channel: usize) -> bool {
        unit(mix2(self.seed ^ SALT_DRIFT, channel as u64)) < self.drift_rate
    }

    /// Drift direction for a drifting channel: `+1.0` or `-1.0`.
    pub fn drift_direction(&self, channel: usize) -> f64 {
        if mix2(self.seed ^ SALT_DRIFT ^ SALT_SIGN, channel as u64) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Does this reading carry a transient spike?
    pub fn is_spike(&self, channel: usize, slot: u64) -> bool {
        unit(mix3(self.seed ^ SALT_SPIKE, channel as u64, slot)) < self.spike_rate
    }

    /// Spike sign for a spiking reading: `+1.0` or `-1.0`.
    pub fn spike_sign(&self, channel: usize, slot: u64) -> f64 {
        if mix3(self.seed ^ SALT_SPIKE ^ SALT_SIGN, channel as u64, slot) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Is this channel compromised by the coordinated-bias adversary?
    pub fn is_malicious_channel(&self, channel: usize) -> bool {
        unit(mix2(self.seed ^ SALT_MALICIOUS, channel as u64)) < self.malicious_rate
    }

    /// The campaign-wide bias sign: one draw from the seed shared by every
    /// compromised channel (coordination is the attack's signature).
    pub fn malicious_sign(&self) -> f64 {
        if splitmix64(self.seed ^ SALT_MALICIOUS ^ SALT_SIGN) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Does the spoofing campaign bias this reading? True exactly when the
    /// channel is compromised and the slot has reached the onset.
    pub fn is_malicious(&self, channel: usize, slot: u64) -> bool {
        slot >= self.malicious_onset && self.is_malicious_channel(channel)
    }
}

/// Stateful fault application over a stream of readings.
///
/// Wraps a [`FaultModel`] with the one piece of state pure hashing cannot
/// carry: the frozen value of stuck channels (the first value each stuck
/// channel reports).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: FaultModel,
    stuck_values: BTreeMap<usize, f64>,
}

impl FaultInjector {
    /// Creates an injector for `model`.
    pub fn new(model: FaultModel) -> Self {
        FaultInjector {
            model,
            stuck_values: BTreeMap::new(),
        }
    }

    /// The underlying fault model.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Produces the delivered reading for the true value `truth` on
    /// `channel` at sampling `slot`: `None` when it is dropped.
    ///
    /// Fault precedence, highest first: dropout ▸ malicious ▸ stuck-at ▸
    /// spike ▸ drift. A stuck channel freezes at the first value this
    /// injector reads on it. A compromised transmitter reports the
    /// attacker's value regardless of its hardware regime — only radio
    /// loss (dropout) still hides it.
    pub fn read(&mut self, channel: usize, slot: u64, truth: f64) -> Option<f64> {
        if !self.model.enabled() {
            return Some(truth);
        }
        if self.model.is_dropout(channel, slot) {
            return None;
        }
        if self.model.is_malicious(channel, slot) {
            return Some(truth + self.model.malicious_sign() * self.model.malicious_bias);
        }
        if self.model.is_stuck_channel(channel) {
            return Some(*self.stuck_values.entry(channel).or_insert(truth));
        }
        if self.model.is_spike(channel, slot) {
            return Some(truth + self.model.spike_sign(channel, slot) * self.model.spike_magnitude);
        }
        if self.model.is_drift_channel(channel) {
            let bias =
                self.model.drift_direction(channel) * self.model.drift_per_slot * slot as f64;
            return Some(truth + bias);
        }
        Some(truth)
    }
}

pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(mix2(a, b) ^ c.wrapping_mul(0xd6e8_feb8_6659_fd93))
}

/// Maps a hash to `[0, 1)` with 53 bits of precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_is_identity_and_stateless() {
        let mut inj = FaultInjector::new(FaultModel::none());
        for slot in 0..50 {
            for ch in 0..20 {
                assert_eq!(inj.read(ch, slot, 1.5), Some(1.5));
            }
        }
    }

    #[test]
    fn dropout_rate_is_respected() {
        let model = FaultModel {
            dropout_rate: 0.2,
            seed: 42,
            ..FaultModel::none()
        };
        let mut inj = FaultInjector::new(model);
        let n = 20_000;
        let mut missing = 0;
        for slot in 0..(n / 100) {
            for ch in 0..100 {
                if inj.read(ch, slot, 0.0).is_none() {
                    missing += 1;
                }
            }
        }
        let rate = missing as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed dropout rate {rate}");
    }

    #[test]
    fn faults_are_order_independent() {
        let model = FaultModel {
            dropout_rate: 0.3,
            spike_rate: 0.1,
            drift_rate: 0.2,
            seed: 7,
            ..FaultModel::none()
        };
        let mut forward = FaultInjector::new(model);
        let mut backward = FaultInjector::new(model);
        let fwd: Vec<Option<f64>> = (0..200).map(|ch| forward.read(ch, 3, 9.0)).collect();
        let bwd: Vec<Option<f64>> = (0..200).rev().map(|ch| backward.read(ch, 3, 9.0)).collect();
        let bwd: Vec<Option<f64>> = bwd.into_iter().rev().collect();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn stuck_channel_freezes_first_value() {
        // Force the stuck regime on every channel.
        let model = FaultModel {
            stuck_rate: 1.0,
            seed: 1,
            ..FaultModel::none()
        };
        let mut inj = FaultInjector::new(model);
        assert!(model.is_stuck_channel(4));
        assert_eq!(inj.read(4, 0, 10.0), Some(10.0));
        // Later slots keep reporting the frozen value regardless of truth.
        assert_eq!(inj.read(4, 1, 99.0), Some(10.0));
        assert_eq!(inj.read(4, 7, -3.0), Some(10.0));
    }

    #[test]
    fn drift_grows_linearly_with_slot() {
        let model = FaultModel {
            drift_rate: 1.0,
            drift_per_slot: 0.5,
            seed: 3,
            ..FaultModel::none()
        };
        let mut inj = FaultInjector::new(model);
        let dir = model.drift_direction(2);
        assert!(model.is_drift_channel(2));
        for slot in [0u64, 1, 10] {
            let expect = 1.0 + dir * 0.5 * slot as f64;
            assert!((inj.read(2, slot, 1.0).unwrap() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn spike_hits_single_readings_with_magnitude() {
        let model = FaultModel {
            spike_rate: 0.05,
            spike_magnitude: 8.0,
            seed: 11,
            ..FaultModel::none()
        };
        let mut inj = FaultInjector::new(model);
        let mut spikes = 0;
        for slot in 0..400 {
            let r = inj.read(0, slot, 2.0).unwrap();
            if model.is_spike(0, slot) {
                spikes += 1;
                assert!((r - 2.0).abs() > 7.9);
            } else {
                assert_eq!(r, 2.0);
            }
        }
        assert!(spikes > 5 && spikes < 60, "spikes {spikes}");
    }

    #[test]
    fn malicious_bias_is_coordinated_and_onset_gated() {
        let model = FaultModel {
            malicious_rate: 0.4,
            malicious_bias: 600.0,
            malicious_onset: 3,
            seed: 21,
            ..FaultModel::none()
        };
        let mut inj = FaultInjector::new(model);
        let compromised: Vec<usize> = (0..50).filter(|&c| model.is_malicious_channel(c)).collect();
        assert!(
            compromised.len() > 5 && compromised.len() < 35,
            "compromised set size {}",
            compromised.len()
        );
        let sign = model.malicious_sign();
        for &ch in &compromised {
            // Before the onset the channel reads clean.
            assert_eq!(inj.read(ch, 0, 7.0), Some(7.0));
            // From the onset every compromised channel shifts by the same
            // signed bias — the coordination signature.
            assert!(model.is_malicious(ch, 3));
            let r = inj.read(ch, 3, 7.0).unwrap();
            assert!((r - (7.0 + sign * 600.0)).abs() < 1e-12);
        }
        // Uncompromised channels are untouched after the onset.
        let clean: Vec<usize> = (0..50)
            .filter(|&c| !model.is_malicious_channel(c))
            .collect();
        for &ch in clean.iter().take(5) {
            assert_eq!(inj.read(ch, 9, 7.0), Some(7.0));
        }
    }

    #[test]
    fn malicious_placement_is_deterministic_per_seed() {
        let a = FaultModel {
            malicious_rate: 0.3,
            seed: 5,
            ..FaultModel::none()
        };
        let b = a.with_seed(6);
        let set =
            |m: &FaultModel| -> Vec<bool> { (0..200).map(|c| m.is_malicious_channel(c)).collect() };
        assert_eq!(set(&a), set(&a));
        assert_ne!(set(&a), set(&b));
        // The campaign sign is a pure function of the seed too.
        assert_eq!(a.malicious_sign(), a.malicious_sign());
    }

    #[test]
    fn malicious_fields_roundtrip_through_codec() {
        let model = FaultModel {
            malicious_rate: 0.25,
            malicious_bias: 123.5,
            malicious_onset: 17,
            seed: 77,
            ..FaultModel::none()
        };
        let mut w = Writer::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = FaultModel::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn placement_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = FaultModel {
            dropout_rate: 0.25,
            seed: 100,
            ..FaultModel::none()
        };
        let b = a.with_seed(101);
        let pattern = |m: &FaultModel| -> Vec<bool> {
            (0..500)
                .map(|i| m.is_dropout(i % 50, (i / 50) as u64))
                .collect()
        };
        assert_eq!(pattern(&a), pattern(&a));
        assert_ne!(pattern(&a), pattern(&b));
    }
}
