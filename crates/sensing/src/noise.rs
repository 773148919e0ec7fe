//! Gaussian measurement noise for IoT readings.
//!
//! "Their measurements are subject to uncertainty due to sensing errors"
//! (Sec. II) — modeled as additive zero-mean Gaussian noise with separate
//! standard deviations for pressure (meters) and flow (m³/s) channels.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use rand::rngs::StdRng;
use rand::Rng;

/// Additive Gaussian noise applied to sensor readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementNoise {
    /// Standard deviation of pressure readings, meters of water column.
    pub pressure_sigma: f64,
    /// Standard deviation of flow readings, m³/s.
    pub flow_sigma: f64,
}

impl Default for MeasurementNoise {
    /// Typical commercial transducer noise: ±0.1 m pressure, ±0.5 L/s flow.
    fn default() -> Self {
        MeasurementNoise {
            pressure_sigma: 0.1,
            flow_sigma: 0.0005,
        }
    }
}

impl MeasurementNoise {
    /// A noise-free measurement model.
    pub fn none() -> Self {
        MeasurementNoise {
            pressure_sigma: 0.0,
            flow_sigma: 0.0,
        }
    }

    /// A noisy pressure reading of true value `p`.
    pub fn pressure(&self, p: f64, rng: &mut StdRng) -> f64 {
        p + gaussian(rng) * self.pressure_sigma
    }

    /// A noisy flow reading of true value `q`.
    pub fn flow(&self, q: f64, rng: &mut StdRng) -> f64 {
        q + gaussian(rng) * self.flow_sigma
    }
}

impl Codec for MeasurementNoise {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.pressure_sigma);
        w.f64(self.flow_sigma);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(MeasurementNoise {
            pressure_sigma: r.f64()?,
            flow_sigma: r.f64()?,
        })
    }
}

/// Standard normal sample via the Box–Muller transform (kept in-repo so the
/// `rand_distr` crate is not needed).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_standard() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn no_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = MeasurementNoise::none();
        assert_eq!(m.pressure(42.0, &mut rng), 42.0);
        assert_eq!(m.flow(0.1, &mut rng), 0.1);
    }

    #[test]
    fn noise_scales_with_sigma() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = MeasurementNoise {
            pressure_sigma: 1.0,
            flow_sigma: 0.0,
        };
        let n = 5_000;
        let spread: f64 = (0..n)
            .map(|_| (m.pressure(10.0, &mut rng) - 10.0).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((spread - 1.0).abs() < 0.1, "spread {spread}");
        // Flow channel stays exact with zero sigma.
        assert_eq!(m.flow(0.25, &mut rng), 0.25);
    }
}
