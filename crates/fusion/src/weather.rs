//! Weather information: temperature series, freeze-break statistics and the
//! per-node freeze model.
//!
//! "When the ambient temperature falls to 20 degrees F or below, pipes may
//! be subject to freezing … continued freezing and expansion inside the
//! pipe increase water pressure that can dramatically increase stress on a
//! pipe and cause the pipe break" (Sec. III-C). The paper sets
//! `p_v(freeze) = 0.8` and `p_v(leak|freeze) = 0.9` for all nodes.
//!
//! The NOAA series and WSSC break logs behind Fig. 3 are proprietary; the
//! [`TemperatureModel`] + [`BreakRateModel`] pair generates a synthetic
//! equivalent: a seasonal daily temperature series and a break rate that is
//! flat in warm weather and rises sharply below ~20 °F.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's freeze threshold, °F.
pub const FREEZE_THRESHOLD_F: f64 = 20.0;

/// Per-node freezing/breaking probabilities (Sec. V-A defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreezeModel {
    /// Temperature below which freezing becomes possible, °F.
    pub threshold_f: f64,
    /// `p_v(freeze)`: probability a node freezes given cold weather.
    pub p_freeze: f64,
    /// `p_v(leak|freeze)`: probability a frozen pipe leaks.
    pub p_leak_given_freeze: f64,
}

impl Default for FreezeModel {
    fn default() -> Self {
        FreezeModel {
            threshold_f: FREEZE_THRESHOLD_F,
            p_freeze: 0.8,
            p_leak_given_freeze: 0.9,
        }
    }
}

impl FreezeModel {
    /// Whether freeze-driven updates apply at all under `temperature_f`.
    pub fn is_cold(&self, temperature_f: f64) -> bool {
        temperature_f <= self.threshold_f
    }

    /// Draws the per-node frozen flags for one scenario: "a random number
    /// between 0 and 1 is generated for each node and it will be used to
    /// decide if the connected pipe is frozen" (Sec. V-A). All-false when
    /// the temperature is above threshold.
    pub fn sample_frozen(&self, temperature_f: f64, n_nodes: usize, rng: &mut StdRng) -> Vec<bool> {
        if !self.is_cold(temperature_f) {
            return vec![false; n_nodes];
        }
        (0..n_nodes)
            .map(|_| rng.random_range(0.0..1.0) < self.p_freeze)
            .collect()
    }
}

/// Synthetic daily temperature series: seasonal sinusoid plus AR(1) noise,
/// standing in for the NOAA reports of Fig. 3.
#[derive(Debug, Clone)]
pub struct TemperatureModel {
    /// Annual mean, °F.
    pub mean_f: f64,
    /// Seasonal amplitude, °F (winter trough = mean − amplitude).
    pub amplitude_f: f64,
    /// Day-to-day AR(1) noise standard deviation, °F.
    pub noise_f: f64,
    /// AR(1) persistence in `[0, 1)`.
    pub persistence: f64,
}

impl Default for TemperatureModel {
    /// Mid-Atlantic climate (the WSSC service area): mean 55 °F, winter
    /// troughs near 25 °F with cold snaps below 20 °F.
    fn default() -> Self {
        TemperatureModel {
            mean_f: 55.0,
            amplitude_f: 27.0,
            noise_f: 7.0,
            persistence: 0.7,
        }
    }
}

impl TemperatureModel {
    /// Generates `days` daily-mean temperatures starting January 1.
    pub fn daily_series(&self, days: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ar = 0.0f64;
        (0..days)
            .map(|d| {
                // Coldest around day 15 (mid-January).
                let season = -(2.0 * std::f64::consts::PI * (d as f64 - 15.0) / 365.25).cos();
                let innovation = {
                    // Box–Muller without rand_distr.
                    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.random_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                ar = self.persistence * ar
                    + (1.0 - self.persistence * self.persistence).sqrt() * innovation;
                self.mean_f + self.amplitude_f * season + self.noise_f * ar
            })
            .collect()
    }
}

/// Expected pipe breaks per day as a function of ambient temperature —
/// the Fig. 3 relationship: roughly flat above freezing, rising sharply
/// once temperatures drop toward the 20 °F freeze threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakRateModel {
    /// Warm-weather baseline breaks/day.
    pub base_rate: f64,
    /// Additional cold-driven breaks/day at the coldest extreme.
    pub cold_excess: f64,
    /// Center of the logistic cold response, °F.
    pub midpoint_f: f64,
    /// Steepness of the logistic response, °F.
    pub scale_f: f64,
}

impl Default for BreakRateModel {
    fn default() -> Self {
        BreakRateModel {
            base_rate: 1.4,
            cold_excess: 5.2,
            midpoint_f: 24.0,
            scale_f: 5.0,
        }
    }
}

impl BreakRateModel {
    /// Expected breaks/day at `temperature_f`.
    pub fn expected_breaks(&self, temperature_f: f64) -> f64 {
        self.base_rate
            + self.cold_excess / (1.0 + ((temperature_f - self.midpoint_f) / self.scale_f).exp())
    }

    /// Samples an observed daily break count (Poisson).
    pub fn sample_breaks(&self, temperature_f: f64, rng: &mut StdRng) -> usize {
        poisson(self.expected_breaks(temperature_f), rng)
    }
}

/// Knuth Poisson sampler (λ small enough in all our uses).
pub(crate) fn poisson(lambda: f64, rng: &mut StdRng) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.random_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // safety valve for absurd λ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_only_below_threshold() {
        let m = FreezeModel::default();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.sample_frozen(45.0, 50, &mut rng).iter().all(|f| !f));
        let frozen = m.sample_frozen(15.0, 2000, &mut rng);
        let frac = frozen.iter().filter(|&&f| f).count() as f64 / 2000.0;
        assert!((frac - 0.8).abs() < 0.05, "freeze fraction {frac}");
    }

    #[test]
    fn temperature_series_has_seasonal_structure() {
        let m = TemperatureModel::default();
        let series = m.daily_series(365, 1);
        let january: f64 = series[..31].iter().sum::<f64>() / 31.0;
        let july: f64 = series[182..213].iter().sum::<f64>() / 31.0;
        assert!(july > january + 30.0, "july {july} january {january}");
        // Cold snaps below the freeze threshold exist in winter.
        assert!(series[..60].iter().any(|&t| t < FREEZE_THRESHOLD_F));
    }

    #[test]
    fn temperature_series_deterministic_per_seed() {
        let m = TemperatureModel::default();
        assert_eq!(m.daily_series(100, 5), m.daily_series(100, 5));
        assert_ne!(m.daily_series(100, 5), m.daily_series(100, 6));
    }

    #[test]
    fn break_rate_rises_in_cold() {
        let m = BreakRateModel::default();
        assert!(m.expected_breaks(10.0) > m.expected_breaks(20.0));
        assert!(m.expected_breaks(20.0) > m.expected_breaks(40.0));
        // Warm plateau: 60 °F vs 80 °F nearly identical.
        assert!((m.expected_breaks(60.0) - m.expected_breaks(80.0)).abs() < 0.05);
        // Fig. 3 shape: cold extreme several times the warm baseline.
        assert!(m.expected_breaks(5.0) > 3.0 * m.expected_breaks(70.0));
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| poisson(3.0, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.06, "mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn sampled_breaks_follow_rate() {
        let m = BreakRateModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let cold: f64 = (0..3000)
            .map(|_| m.sample_breaks(10.0, &mut rng) as f64)
            .sum::<f64>()
            / 3000.0;
        let warm: f64 = (0..3000)
            .map(|_| m.sample_breaks(60.0, &mut rng) as f64)
            .sum::<f64>()
            / 3000.0;
        assert!(cold > warm * 2.0, "cold {cold} warm {warm}");
    }
}
