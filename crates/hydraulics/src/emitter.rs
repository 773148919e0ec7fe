//! Emitter-based leak modeling (paper eq. 1).

/// A pressure-dependent orifice discharging to the atmosphere.
///
/// Implements the paper's leak model (eq. 1): `Q = EC · p^β` where `Q` is
/// the discharge flow (m³/s), `EC` the effective leak area coefficient,
/// `p` the pressure head at the leaky node (m) and `β` the pressure
/// exponent — 0.5 by default per the paper ("β typically varies between 0.5
/// and 2.5 … we set it to 0.5 for general purpose").
///
/// # Example
///
/// ```
/// use aqua_hydraulics::Emitter;
///
/// let leak = Emitter::new(0.001);
/// assert!((leak.flow(25.0) - 0.005).abs() < 1e-12); // 0.001 · √25
/// assert_eq!(leak.flow(-3.0), 0.0); // no outflow without pressure
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Emitter {
    /// Effective leak area coefficient `EC` (the paper's leak size `e.s`).
    pub coefficient: f64,
    /// Pressure exponent `β`.
    pub exponent: f64,
}

impl Emitter {
    /// Default pressure exponent used throughout the paper.
    pub const DEFAULT_EXPONENT: f64 = 0.5;

    /// Creates an emitter with the paper's default exponent β = 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `coefficient` is not positive and finite.
    pub fn new(coefficient: f64) -> Self {
        Self::with_exponent(coefficient, Self::DEFAULT_EXPONENT)
    }

    /// Creates an emitter with an explicit exponent (0.5–2.5 by leak type).
    ///
    /// # Panics
    ///
    /// Panics if `coefficient` or `exponent` is not positive and finite.
    pub fn with_exponent(coefficient: f64, exponent: f64) -> Self {
        assert!(
            coefficient > 0.0 && coefficient.is_finite(),
            "emitter coefficient must be positive"
        );
        assert!(
            exponent > 0.0 && exponent.is_finite(),
            "emitter exponent must be positive"
        );
        Emitter {
            coefficient,
            exponent,
        }
    }

    /// Leak outflow (m³/s) at pressure head `p` meters; zero when `p ≤ 0`.
    pub fn flow(&self, p: f64) -> f64 {
        if p <= 0.0 {
            0.0
        } else {
            self.coefficient * p.powf(self.exponent)
        }
    }

    /// Derivative `dQ/dp` at pressure head `p` (used by the GGA
    /// linearization). Returns a small positive floor when `p ≤ 0` so the
    /// normal matrix stays positive definite.
    pub fn flow_gradient(&self, p: f64) -> f64 {
        if p <= 1e-6 {
            1e-8
        } else {
            self.coefficient * self.exponent * p.powf(self.exponent - 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_follows_power_law() {
        let e = Emitter::new(0.002);
        assert!((e.flow(16.0) - 0.008).abs() < 1e-12);
        assert!((e.flow(4.0) - 0.004).abs() < 1e-12);
    }

    #[test]
    fn larger_coefficient_means_larger_leak() {
        let small = Emitter::new(0.001);
        let big = Emitter::new(0.01);
        assert!(big.flow(20.0) > small.flow(20.0));
    }

    #[test]
    fn no_flow_without_positive_pressure() {
        let e = Emitter::new(0.01);
        assert_eq!(e.flow(0.0), 0.0);
        assert_eq!(e.flow(-10.0), 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let e = Emitter::with_exponent(0.005, 0.5);
        let p = 30.0;
        let eps = 1e-6;
        let fd = (e.flow(p + eps) - e.flow(p - eps)) / (2.0 * eps);
        assert!((e.flow_gradient(p) - fd).abs() / fd < 1e-6);
    }

    #[test]
    fn gradient_floor_keeps_matrix_spd() {
        let e = Emitter::new(0.01);
        assert!(e.flow_gradient(-5.0) > 0.0);
        assert!(e.flow_gradient(0.0) > 0.0);
    }

    #[test]
    fn custom_exponent_respected() {
        let e = Emitter::with_exponent(0.001, 1.0);
        assert!((e.flow(7.0) - 0.007).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "coefficient must be positive")]
    fn zero_coefficient_rejected() {
        let _ = Emitter::new(0.0);
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn negative_exponent_rejected() {
        let _ = Emitter::with_exponent(0.001, -0.5);
    }
}
