//! Time-of-day demand patterns.

/// A periodic multiplier pattern applied to junction base demands.
///
/// The pattern holds one multiplier per pattern time step and repeats
/// indefinitely; EPANET calls this the "time pattern". A junction's actual
/// demand at time `t` is `base_demand * pattern.multiplier_at(t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Pattern label.
    pub name: String,
    /// Multipliers per step (dimensionless).
    multipliers: Vec<f64>,
    /// Pattern step duration in seconds.
    step: u64,
}

impl Pattern {
    /// Creates a pattern with the given per-step multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `multipliers` is empty or `step` is zero.
    pub fn new(name: impl Into<String>, multipliers: Vec<f64>, step: u64) -> Self {
        assert!(!multipliers.is_empty(), "pattern needs at least one step");
        assert!(step > 0, "pattern step must be positive");
        Pattern {
            name: name.into(),
            multipliers,
            step,
        }
    }

    /// A constant pattern of multiplier 1.0 (one 1-hour step).
    pub fn constant(name: impl Into<String>) -> Self {
        Pattern::new(name, vec![1.0], 3600)
    }

    /// A canonical residential diurnal pattern with hourly steps: low demand
    /// at night, a morning peak around 07:00 and an evening peak around 19:00.
    pub fn residential_diurnal(name: impl Into<String>) -> Self {
        let multipliers = vec![
            0.45, 0.40, 0.38, 0.38, 0.45, 0.70, 1.10, 1.45, 1.30, 1.10, 1.00, 0.95, 0.95, 0.90,
            0.90, 0.95, 1.05, 1.20, 1.40, 1.50, 1.30, 1.00, 0.75, 0.55,
        ];
        Pattern::new(name, multipliers, 3600)
    }

    /// Number of steps before the pattern repeats.
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// Returns `true` if the pattern has no steps (never true for
    /// constructed patterns).
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }

    /// Pattern step duration in seconds.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Multiplier in effect at absolute time `t` seconds.
    pub fn multiplier_at(&self, t: u64) -> f64 {
        let idx = (t / self.step) as usize % self.multipliers.len();
        self.multipliers[idx]
    }

    /// The raw multipliers.
    pub fn multipliers(&self) -> &[f64] {
        &self.multipliers
    }

    /// Mean multiplier over one period.
    pub fn mean(&self) -> f64 {
        self.multipliers.iter().sum::<f64>() / self.multipliers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_pattern_is_always_one() {
        let p = Pattern::constant("c");
        for t in [0u64, 100, 3_600, 86_400, 1_000_000] {
            assert_eq!(p.multiplier_at(t), 1.0);
        }
    }

    #[test]
    fn pattern_wraps_around() {
        let p = Pattern::new("p", vec![1.0, 2.0, 3.0], 60);
        assert_eq!(p.multiplier_at(0), 1.0);
        assert_eq!(p.multiplier_at(59), 1.0);
        assert_eq!(p.multiplier_at(60), 2.0);
        assert_eq!(p.multiplier_at(179), 3.0);
        assert_eq!(p.multiplier_at(180), 1.0);
    }

    #[test]
    fn diurnal_pattern_has_24_hourly_steps_and_unit_mean() {
        let p = Pattern::residential_diurnal("res");
        assert_eq!(p.len(), 24);
        assert_eq!(p.step(), 3600);
        assert!((p.mean() - 0.954).abs() < 0.05, "mean = {}", p.mean());
        // Morning peak exceeds nighttime trough.
        assert!(p.multiplier_at(7 * 3600) > 2.0 * p.multiplier_at(2 * 3600));
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_pattern_rejected() {
        let _ = Pattern::new("bad", vec![], 60);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_rejected() {
        let _ = Pattern::new("bad", vec![1.0], 0);
    }
}
