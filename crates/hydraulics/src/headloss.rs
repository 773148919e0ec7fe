//! Friction headloss models for pipes.
//!
//! Both models express headloss as `h(q) = sign(q) · (r·|q|ⁿ + m·|q|²)`
//! with a friction term and a minor-loss term; the GGA needs `h(q)` and its
//! derivative `h'(q)`. Hazen–Williams coefficients depend only on the pipe,
//! so the solver workspace computes them once per network; Darcy–Weisbach's
//! `r` depends on the flow and is recomputed every iteration.

use aqua_net::Pipe;

use crate::GRAVITY;

/// The friction headloss formula to use for pipes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeadlossModel {
    /// Hazen–Williams (EPANET's default; exponent n = 1.852). The pipe
    /// `roughness` is the Hazen–Williams C coefficient.
    #[default]
    HazenWilliams,
    /// Darcy–Weisbach with the Swamee–Jain friction factor (n = 2). The
    /// pipe `roughness` is interpreted as a Hazen–Williams C and converted
    /// to an equivalent sand roughness, so the same networks work under
    /// both models.
    DarcyWeisbach,
}

/// Headloss coefficients of one pipe at the current flow estimate.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipeCoeffs {
    /// Friction resistance `r` in `h = r·|q|ⁿ`.
    pub r: f64,
    /// Friction exponent `n`.
    pub n: f64,
    /// Minor-loss coefficient `m` in `h += m·|q|²`.
    pub m: f64,
}

/// Kinematic viscosity of water at 20 °C, m²/s.
const NU: f64 = 1.004e-6;

impl HeadlossModel {
    /// Computes the pipe coefficients, possibly depending on the current
    /// flow estimate `q` (Darcy–Weisbach's friction factor is Reynolds-
    /// dependent).
    pub fn pipe_coeffs(self, pipe: &Pipe, q: f64) -> PipeCoeffs {
        match self {
            HeadlossModel::HazenWilliams => PipeCoeffs::hazen_williams(pipe),
            HeadlossModel::DarcyWeisbach => {
                let d = pipe.diameter;
                let area = std::f64::consts::PI * d * d / 4.0;
                let v = (q.abs() / area).max(1e-4);
                let re = v * d / NU;
                // Equivalent sand roughness from the HW coefficient:
                // smooth modern pipe (C≈140) → ~0.05 mm, rough old pipe
                // (C≈100) → ~1 mm (log-linear interpolation).
                let eps =
                    (1.0e-3f64).powf((140.0 - pipe.roughness.clamp(80.0, 150.0)) / 40.0) * 5.0e-5;
                let f = if re < 2000.0 {
                    64.0 / re
                } else {
                    // Swamee–Jain explicit approximation.
                    let log_term = (eps / (3.7 * d) + 5.74 / re.powf(0.9)).log10();
                    0.25 / (log_term * log_term)
                };
                let r = f * pipe.length / (d * 2.0 * GRAVITY * area * area);
                let m = minor_loss_coeff(pipe.minor_loss, pipe.diameter);
                PipeCoeffs { r, n: 2.0, m }
            }
        }
    }
}

/// Minor-loss resistance `m` from a loss coefficient `k` and diameter `d`:
/// `h = k·v²/2g = m·q²` with `m = 8k / (g·π²·d⁴)`.
pub fn minor_loss_coeff(k: f64, d: f64) -> f64 {
    if k <= 0.0 {
        return 0.0;
    }
    8.0 * k / (GRAVITY * std::f64::consts::PI.powi(2) * d.powi(4))
}

impl PipeCoeffs {
    /// Hazen–Williams coefficients of `pipe`; they do not depend on flow.
    pub fn hazen_williams(pipe: &Pipe) -> PipeCoeffs {
        // SI form: h = 10.667 · C^-1.852 · d^-4.871 · L · q^1.852.
        let r = 10.667 * pipe.roughness.powf(-1.852) * pipe.diameter.powf(-4.871) * pipe.length;
        let m = minor_loss_coeff(pipe.minor_loss, pipe.diameter);
        PipeCoeffs { r, n: 1.852, m }
    }

    /// Headloss at flow `q` (signed) and its derivative `dh/dq` (always
    /// ≥ 0), sharing one `powf`.
    pub fn headloss_and_gradient(&self, q: f64) -> (f64, f64) {
        let aq = q.abs();
        let friction = self.r * aq.powf(self.n - 1.0);
        let minor = self.m * aq;
        (
            q.signum() * (friction + minor) * aq,
            self.n * friction + 2.0 * minor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe() -> Pipe {
        Pipe {
            length: 1000.0,
            diameter: 0.3,
            roughness: 130.0,
            minor_loss: 0.0,
            check_valve: false,
        }
    }

    fn headloss(c: &PipeCoeffs, q: f64) -> f64 {
        c.headloss_and_gradient(q).0
    }

    fn gradient(c: &PipeCoeffs, q: f64) -> f64 {
        c.headloss_and_gradient(q).1
    }

    #[test]
    fn hazen_williams_matches_hand_calculation() {
        // h = 10.667 * 130^-1.852 * 0.3^-4.871 * 1000 * 0.1^1.852
        let c = HeadlossModel::HazenWilliams.pipe_coeffs(&pipe(), 0.1);
        let expected =
            10.667 * 130.0f64.powf(-1.852) * 0.3f64.powf(-4.871) * 1000.0 * 0.1f64.powf(1.852);
        assert!((headloss(&c, 0.1) - expected).abs() < 1e-9);
    }

    #[test]
    fn headloss_is_odd_in_flow() {
        for model in [HeadlossModel::HazenWilliams, HeadlossModel::DarcyWeisbach] {
            let c = model.pipe_coeffs(&pipe(), 0.05);
            assert!((headloss(&c, 0.05) + headloss(&c, -0.05)).abs() < 1e-12);
        }
    }

    #[test]
    fn headloss_increases_with_flow() {
        for model in [HeadlossModel::HazenWilliams, HeadlossModel::DarcyWeisbach] {
            let mut prev = 0.0;
            for i in 1..10 {
                let q = i as f64 * 0.02;
                let c = model.pipe_coeffs(&pipe(), q);
                let h = headloss(&c, q);
                assert!(h > prev, "{model:?} q={q}");
                prev = h;
            }
        }
    }

    #[test]
    fn gradient_is_positive_and_matches_finite_difference() {
        let c = HeadlossModel::HazenWilliams.pipe_coeffs(&pipe(), 0.08);
        let q = 0.08;
        let eps = 1e-7;
        let fd = (headloss(&c, q + eps) - headloss(&c, q - eps)) / (2.0 * eps);
        assert!((gradient(&c, q) - fd).abs() / fd < 1e-5);
        assert!(gradient(&c, q) > 0.0);
    }

    #[test]
    fn darcy_weisbach_same_order_as_hazen_williams() {
        // The two formulas should agree within a factor of ~2 for a typical
        // distribution pipe at a typical velocity.
        let q = 0.05; // ~0.7 m/s in a 300 mm pipe
        let hw = headloss(&HeadlossModel::HazenWilliams.pipe_coeffs(&pipe(), q), q);
        let dw = headloss(&HeadlossModel::DarcyWeisbach.pipe_coeffs(&pipe(), q), q);
        assert!(dw > hw * 0.4 && dw < hw * 2.5, "hw={hw} dw={dw}");
    }

    #[test]
    fn minor_loss_adds_quadratic_term() {
        let mut p = pipe();
        p.minor_loss = 5.0;
        let with = HeadlossModel::HazenWilliams.pipe_coeffs(&p, 0.1);
        p.minor_loss = 0.0;
        let without = HeadlossModel::HazenWilliams.pipe_coeffs(&p, 0.1);
        assert!(headloss(&with, 0.1) > headloss(&without, 0.1));
        let manual = minor_loss_coeff(5.0, 0.3) * 0.01;
        assert!((headloss(&with, 0.1) - headloss(&without, 0.1) - manual).abs() < 1e-12);
    }

    #[test]
    fn minor_loss_zero_for_nonpositive_k() {
        assert_eq!(minor_loss_coeff(0.0, 0.3), 0.0);
        assert_eq!(minor_loss_coeff(-1.0, 0.3), 0.0);
    }

    #[test]
    fn laminar_friction_used_at_low_reynolds() {
        // A tiny flow in a large pipe is laminar; f = 64/Re regime should
        // still produce a finite positive resistance.
        let c = HeadlossModel::DarcyWeisbach.pipe_coeffs(&pipe(), 1e-6);
        assert!(c.r.is_finite() && c.r > 0.0);
    }
}
