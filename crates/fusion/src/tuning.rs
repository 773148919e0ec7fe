//! Algorithm 2: event prediction (freeze fusion) and event tuning (clique
//! consistency), minimizing the energy function eq. (9).

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};

use crate::bayes;
use crate::entropy::{binary_entropy, clique_potential, total_entropy};
use crate::human::Clique;

/// Knobs of the Phase-II fusion (paper Sec. V-A defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningConfig {
    /// `p_v(leak | freeze)` used in the Bayes update.
    pub p_leak_given_freeze: f64,
    /// Entropy threshold Γ of eq. (10): 0 means "always consider human
    /// effect" (the paper's setting).
    pub gamma_threshold: f64,
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig {
            p_leak_given_freeze: 0.9,
            gamma_threshold: 0.0,
        }
    }
}

impl Codec for TuningConfig {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.p_leak_given_freeze);
        w.f64(self.gamma_threshold);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(TuningConfig {
            p_leak_given_freeze: r.f64()?,
            gamma_threshold: r.f64()?,
        })
    }
}

/// The result of running Algorithm 2 over one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// Updated leak probabilities `p_v(1)` per junction index.
    pub p1: Vec<f64>,
    /// Updated predicted leak set `S` (true = predicted to leak).
    pub predicted: Vec<bool>,
    /// Energy (eq. 9) before tuning, potentials included.
    pub energy_before: f64,
    /// Energy after tuning (finite once all inconsistencies are forced).
    pub energy_after: f64,
    /// Junction indices force-set to leak by clique tuning.
    pub forced: Vec<usize>,
}

/// Runs Algorithm 2's fusion steps on one sample.
///
/// * `p1` — profile-model leak probabilities per junction (`predict_proba`);
/// * `predicted` — profile-model hard predictions `S` (`predict`);
/// * `frozen` — per-junction freeze flags (empty slice = warm weather);
/// * `cliques` — subzones implicated by human reports.
///
/// Lines 6–13: frozen nodes have their probability fused with
/// `p(leak|freeze)` by posterior odds and join `S` when the fused belief
/// crosses 0.5. Lines 14–26: for each clique with no predicted member, the
/// member with maximal entropy is forced to leak if its entropy exceeds Γ.
///
/// # Panics
///
/// Panics if `p1` and `predicted` lengths differ, or a clique member index
/// is out of range.
pub fn tune_events(
    p1: &[f64],
    predicted: &[bool],
    frozen: &[bool],
    cliques: &[Clique],
    config: &TuningConfig,
) -> TuningOutcome {
    assert_eq!(p1.len(), predicted.len(), "probability/prediction mismatch");
    let mut p1 = p1.to_vec();
    let mut predicted = predicted.to_vec();

    // --- Event prediction: freeze fusion (lines 6–13). ---
    if !frozen.is_empty() {
        assert_eq!(frozen.len(), p1.len(), "freeze flag mismatch");
        for v in 0..p1.len() {
            if frozen[v] {
                p1[v] = bayes::freeze_update(p1[v], config.p_leak_given_freeze);
                if p1[v] > 0.5 {
                    predicted[v] = true;
                }
            }
        }
    }

    let energy_before = energy(&p1, &predicted, cliques, config);

    // --- Event tuning: clique consistency (lines 14–26). ---
    let mut forced = Vec::new();
    for clique in cliques {
        let consistent = clique.members.iter().any(|&v| predicted[v]);
        if consistent {
            continue;
        }
        let Some(v_star) = clique
            .members
            .iter()
            .copied()
            .max_by(|&a, &b| binary_entropy(p1[a]).total_cmp(&binary_entropy(p1[b])))
        else {
            continue;
        };
        if binary_entropy(p1[v_star]) > config.gamma_threshold {
            p1[v_star] = 1.0;
            predicted[v_star] = true;
            forced.push(v_star);
        }
    }

    let energy_after = energy(&p1, &predicted, cliques, config);
    TuningOutcome {
        p1,
        predicted,
        energy_before,
        energy_after,
        forced,
    }
}

/// The energy function of eq. (9): `Σ_v H(y_v) + Σ_c Φ_c`.
pub fn energy(p1: &[f64], predicted: &[bool], cliques: &[Clique], config: &TuningConfig) -> f64 {
    let mut e = total_entropy(p1);
    for clique in cliques {
        let any = clique.members.iter().any(|&v| predicted[v]);
        let max_h = clique
            .members
            .iter()
            .map(|&v| binary_entropy(p1[v]))
            .fold(0.0, f64::max);
        e += clique_potential(any, max_h, config.gamma_threshold);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(members: &[usize]) -> Clique {
        Clique {
            members: members.to_vec(),
            reports: 2,
            confidence: 0.91,
        }
    }

    #[test]
    fn no_inputs_is_identity() {
        let p1 = [0.2, 0.8, 0.4];
        let pred = [false, true, false];
        let out = tune_events(&p1, &pred, &[], &[], &TuningConfig::default());
        assert_eq!(out.p1, p1);
        assert_eq!(out.predicted, pred);
        assert!(out.forced.is_empty());
        assert_eq!(out.energy_before, out.energy_after);
    }

    #[test]
    fn freeze_raises_probability_and_flips_prediction() {
        let p1 = [0.3];
        let pred = [false];
        let frozen = [true];
        let out = tune_events(&p1, &pred, &frozen, &[], &TuningConfig::default());
        assert!(out.p1[0] > 0.75, "fused {}", out.p1[0]);
        assert!(out.predicted[0], "crossing 0.5 joins S");
    }

    #[test]
    fn unfrozen_nodes_untouched() {
        let p1 = [0.3, 0.3];
        let pred = [false, false];
        let frozen = [true, false];
        let out = tune_events(&p1, &pred, &frozen, &[], &TuningConfig::default());
        assert!(out.p1[0] > out.p1[1]);
        assert_eq!(out.p1[1], 0.3);
    }

    #[test]
    fn inconsistent_clique_forces_highest_entropy_member() {
        // Members 1 and 2; p=0.45 has higher entropy than p=0.1.
        let p1 = [0.9, 0.1, 0.45];
        let pred = [true, false, false];
        let out = tune_events(
            &p1,
            &pred,
            &[],
            &[clique(&[1, 2])],
            &TuningConfig::default(),
        );
        assert_eq!(out.forced, vec![2]);
        assert_eq!(out.p1[2], 1.0);
        assert!(out.predicted[2]);
        assert_eq!(out.p1[1], 0.1, "the low-entropy member is untouched");
    }

    #[test]
    fn consistent_clique_changes_nothing() {
        let p1 = [0.9, 0.1];
        let pred = [true, false];
        let out = tune_events(
            &p1,
            &pred,
            &[],
            &[clique(&[0, 1])],
            &TuningConfig::default(),
        );
        assert!(out.forced.is_empty());
        assert_eq!(out.p1, p1);
    }

    #[test]
    fn tuning_reduces_energy_to_finite() {
        let p1 = [0.2, 0.4];
        let pred = [false, false];
        let cliques = [clique(&[0, 1])];
        let out = tune_events(&p1, &pred, &[], &cliques, &TuningConfig::default());
        assert_eq!(out.energy_before, f64::INFINITY);
        assert!(out.energy_after.is_finite());
        assert!(out.energy_after < out.energy_before);
    }

    #[test]
    fn gamma_threshold_can_veto_human_input() {
        // Γ above every member's entropy: predictions are determinate
        // enough, so the clique is ignored (second arm of eq. 10).
        let p1 = [0.05, 0.02];
        let pred = [false, false];
        let high_gamma = TuningConfig {
            gamma_threshold: 0.9, // > ln 2, vetoes everything
            ..Default::default()
        };
        let out = tune_events(&p1, &pred, &[], &[clique(&[0, 1])], &high_gamma);
        assert!(out.forced.is_empty());
        assert!(out.energy_after.is_finite(), "Γ arm zeroes the potential");
    }

    #[test]
    fn forced_nodes_have_zero_entropy_afterwards() {
        let p1 = [0.5];
        let pred = [false];
        let out = tune_events(&p1, &pred, &[], &[clique(&[0])], &TuningConfig::default());
        assert_eq!(out.p1[0], 1.0);
        assert_eq!(crate::entropy::binary_entropy(out.p1[0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_panic() {
        let _ = tune_events(&[0.5], &[false, true], &[], &[], &TuningConfig::default());
    }
}
