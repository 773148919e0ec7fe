//! Hydraulic solver errors.

use std::fmt;

/// Errors raised by the hydraulic engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HydraulicError {
    /// The GGA outer iteration did not converge.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final relative flow change (the convergence measure).
        residual: f64,
    },
    /// A junction (island) has no path to any fixed-head node, so its head
    /// is undetermined.
    DisconnectedFromSource {
        /// Dense index of one offending junction.
        node_index: usize,
    },
    /// The inner linear solve failed: a non-positive pivot in the Cholesky
    /// factorization (the normal matrix is not positive definite).
    LinearSolveFailed {
        /// Human-readable detail.
        detail: &'static str,
    },
    /// The network has no fixed-head node at all.
    NoSource,
    /// A non-finite value appeared during iteration (diverging solution).
    NumericalBlowup,
}

impl fmt::Display for HydraulicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HydraulicError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "hydraulic solution did not converge after {iterations} iterations \
                 (relative flow change {residual:.3e})"
            ),
            HydraulicError::DisconnectedFromSource { node_index } => write!(
                f,
                "junction {node_index} is disconnected from every reservoir/tank"
            ),
            HydraulicError::LinearSolveFailed { detail } => {
                write!(f, "linear solve failed: {detail}")
            }
            HydraulicError::NoSource => {
                write!(f, "network has no reservoir or tank to set the head datum")
            }
            HydraulicError::NumericalBlowup => {
                write!(f, "non-finite value during hydraulic iteration")
            }
        }
    }
}

impl std::error::Error for HydraulicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HydraulicError::NotConverged {
            iterations: 40,
            residual: 0.5,
        };
        let s = e.to_string();
        assert!(s.contains("40"));
        assert!(s.contains("converge"));
        assert!(HydraulicError::NoSource.to_string().contains("reservoir"));
    }
}
