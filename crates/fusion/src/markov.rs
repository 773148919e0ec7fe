//! Markov-chain weather regime model.
//!
//! The paper models weather "straightforward using probability
//! representation" and notes that a "Markov chain will be studied for the
//! modeling of weather information in the future" (Sec. III-C). This module
//! implements that extension: a two-state (Normal / ColdSnap) Markov chain
//! over daily weather regimes, each regime emitting temperatures from its
//! own distribution. It produces the bursty cold spells real NOAA series
//! show — consecutive freezing days — which the independent-day sinusoid
//! model in [`crate::weather`] cannot.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The weather regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Seasonal-normal temperatures.
    Normal,
    /// A cold snap: temperatures near or below the freeze threshold.
    ColdSnap,
}

/// A two-state Markov chain over daily weather regimes.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovWeather {
    /// P(ColdSnap tomorrow | Normal today).
    pub p_enter_snap: f64,
    /// P(ColdSnap tomorrow | ColdSnap today) — snap persistence.
    pub p_stay_snap: f64,
    /// Mean temperature in the normal regime, °F.
    pub normal_mean_f: f64,
    /// Mean temperature during a cold snap, °F.
    pub snap_mean_f: f64,
    /// Within-regime daily spread, °F.
    pub spread_f: f64,
}

impl Default for MarkovWeather {
    /// Mid-Atlantic winter: snaps start ~1 day in 12 and persist ~4 days.
    fn default() -> Self {
        MarkovWeather {
            p_enter_snap: 0.08,
            p_stay_snap: 0.75,
            normal_mean_f: 38.0,
            snap_mean_f: 14.0,
            spread_f: 5.0,
        }
    }
}

impl MarkovWeather {
    /// Stationary probability of being in a cold snap.
    pub fn stationary_snap_probability(&self) -> f64 {
        let enter = self.p_enter_snap;
        let leave = 1.0 - self.p_stay_snap;
        enter / (enter + leave)
    }

    /// Expected cold-snap length in days (geometric).
    pub fn expected_snap_length(&self) -> f64 {
        1.0 / (1.0 - self.p_stay_snap)
    }

    /// Simulates `days` of (regime, temperature) starting from `Normal`.
    pub fn simulate(&self, days: usize, seed: u64) -> Vec<(Regime, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut regime = Regime::Normal;
        (0..days)
            .map(|_| {
                regime = match regime {
                    Regime::Normal if rng.random_range(0.0..1.0) < self.p_enter_snap => {
                        Regime::ColdSnap
                    }
                    Regime::ColdSnap if rng.random_range(0.0..1.0) < self.p_stay_snap => {
                        Regime::ColdSnap
                    }
                    Regime::Normal => Regime::Normal,
                    Regime::ColdSnap => Regime::Normal,
                };
                let mean = match regime {
                    Regime::Normal => self.normal_mean_f,
                    Regime::ColdSnap => self.snap_mean_f,
                };
                let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (regime, mean + self.spread_f * z)
            })
            .collect()
    }

    /// Posterior probability the regime is `ColdSnap` given an observed
    /// temperature (Bayes over the two within-regime Gaussians at the
    /// stationary prior) — the live-inference counterpart of the frozen
    /// flag feed.
    pub fn snap_posterior(&self, observed_f: f64) -> f64 {
        let prior = self.stationary_snap_probability();
        let lik = |mean: f64| {
            let z = (observed_f - mean) / self.spread_f;
            (-0.5 * z * z).exp()
        };
        let snap = prior * lik(self.snap_mean_f);
        let normal = (1.0 - prior) * lik(self.normal_mean_f);
        if snap + normal == 0.0 {
            // Far in a tail: pick the nearer regime mean.
            return if (observed_f - self.snap_mean_f).abs()
                < (observed_f - self.normal_mean_f).abs()
            {
                1.0
            } else {
                0.0
            };
        }
        snap / (snap + normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_probability_matches_simulation() {
        let m = MarkovWeather::default();
        let series = m.simulate(40_000, 3);
        let frac = series
            .iter()
            .filter(|(r, _)| *r == Regime::ColdSnap)
            .count() as f64
            / series.len() as f64;
        let expected = m.stationary_snap_probability();
        assert!(
            (frac - expected).abs() < 0.02,
            "snap fraction {frac} vs stationary {expected}"
        );
    }

    #[test]
    fn snaps_are_bursty_not_independent() {
        let m = MarkovWeather::default();
        let series = m.simulate(20_000, 5);
        // Count P(snap | snap yesterday) empirically.
        let mut stay = 0usize;
        let mut snaps = 0usize;
        for w in series.windows(2) {
            if w[0].0 == Regime::ColdSnap {
                snaps += 1;
                if w[1].0 == Regime::ColdSnap {
                    stay += 1;
                }
            }
        }
        let p_stay = stay as f64 / snaps as f64;
        assert!(
            (p_stay - 0.75).abs() < 0.04,
            "empirical persistence {p_stay}"
        );
        assert!(p_stay > m.stationary_snap_probability() * 2.0, "bursty");
    }

    #[test]
    fn snap_temperatures_are_cold() {
        let m = MarkovWeather::default();
        let series = m.simulate(10_000, 7);
        let snap_mean: f64 = {
            let v: Vec<f64> = series
                .iter()
                .filter(|(r, _)| *r == Regime::ColdSnap)
                .map(|(_, t)| *t)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!((snap_mean - 14.0).abs() < 1.0, "snap mean {snap_mean}");
    }

    #[test]
    fn posterior_is_monotone_in_cold() {
        let m = MarkovWeather::default();
        assert!(m.snap_posterior(10.0) > 0.9);
        assert!(m.snap_posterior(40.0) < 0.1);
        assert!(m.snap_posterior(10.0) > m.snap_posterior(25.0));
        assert!(m.snap_posterior(25.0) > m.snap_posterior(38.0));
    }

    #[test]
    fn expected_snap_length_is_geometric() {
        let m = MarkovWeather::default();
        assert!((m.expected_snap_length() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = MarkovWeather::default();
        assert_eq!(m.simulate(100, 9), m.simulate(100, 9));
        assert_ne!(m.simulate(100, 9), m.simulate(100, 10));
    }
}
