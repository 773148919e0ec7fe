//! Human inputs: geo-tagged tweet streams and the cliques they induce
//! (paper Sec. III-D).
//!
//! Twitter users are "sensors": a tweet mentioning a pipe break near
//! location `l_c` marks every network node within distance `γ` of `l_c` as
//! possibly leaking — the clique `c = {v : |l_c − l_v| < γ}`. Reports
//! arrive as a Poisson stream with rate λ per sampling slot (eq. 4); a
//! tweet is a false positive with probability `p_e`, and the confidence
//! that a clique's region really leaks is `p_t = 1 − p_e^k` after `k`
//! tweets (eq. 3).

use aqua_net::{Network, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::weather::poisson;

/// One leak-related social media report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tweet {
    /// Report location, meters (network coordinate frame).
    pub x: f64,
    /// Report location, meters.
    pub y: f64,
    /// Sampling slot the report arrived in.
    pub slot: u64,
    /// Whether this report is actually about a leak (ground truth; hidden
    /// from the inference which only sees location and time).
    pub genuine: bool,
}

/// A subzone implicated by co-located reports: the node set within `γ` of
/// the report location, with the eq.-3 confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Clique {
    /// Indices into the caller's junction list (not raw node ids).
    pub members: Vec<usize>,
    /// Number of supporting reports `k`.
    pub reports: usize,
    /// Confidence `p_t = 1 − p_e^k`.
    pub confidence: f64,
}

/// The paper's human-sensing parameters (Sec. V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct HumanInputModel {
    /// Arrival rate λ: expected reports per sampling slot per leak.
    pub arrival_rate: f64,
    /// False-positive probability `p_e` of a collected tweet.
    pub false_positive: f64,
    /// Coarseness γ in meters: nodes within this distance of a report
    /// location join its clique.
    pub radius_m: f64,
    /// Geolocation scatter of genuine reports around the true leak, meters.
    pub report_scatter_m: f64,
}

impl Default for HumanInputModel {
    /// λ = 1 per 15-minute slot, p_e = 0.3, γ = 30 m (the paper's values).
    fn default() -> Self {
        HumanInputModel {
            arrival_rate: 1.0,
            false_positive: 0.3,
            radius_m: 30.0,
            report_scatter_m: 15.0,
        }
    }
}

impl HumanInputModel {
    /// Confidence that a region leaks after `k` reports (eq. 3):
    /// `p_t = 1 − p_e^k`.
    pub fn confidence(&self, k: usize) -> f64 {
        1.0 - self.false_positive.powi(k as i32)
    }

    /// Probability of receiving `k` reports in `n` elapsed slots under the
    /// Poisson arrival model: `(nλ)^k e^{−nλ} / k!`.
    ///
    /// The paper's eq. (4) prints `(n+1)^k` in the denominator where the
    /// Poisson pmf has `k!`; we implement the proper pmf (the text names
    /// the distribution explicitly) and keep the printed variant available
    /// as [`HumanInputModel::paper_eq4`] for comparison.
    pub fn report_pmf(&self, k: usize, n: u64) -> f64 {
        let lambda = self.arrival_rate * n as f64;
        if lambda <= 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        let ln_pmf = k as f64 * lambda.ln() - lambda - ln_factorial(k);
        ln_pmf.exp()
    }

    /// Eq. (4) exactly as printed in the paper: `(nλ)^k e^{−nλ} / (n+1)^k`.
    pub fn paper_eq4(&self, k: usize, n: u64) -> f64 {
        let lambda = self.arrival_rate * n as f64;
        lambda.powi(k as i32) * (-lambda).exp() / ((n + 1) as f64).powi(k as i32)
    }

    /// Samples how many reports arrive in `n` slots (Poisson(nλ)).
    pub fn sample_report_count(&self, n: u64, rng: &mut StdRng) -> usize {
        poisson(self.arrival_rate * n as f64, rng)
    }

    /// Generates the tweet stream for a scenario: per true leak, a Poisson
    /// number of reports over `n_slots`, each genuine with probability
    /// `1 − p_e` (scattered near the leak) and otherwise a false positive
    /// placed uniformly over the network's bounding box.
    pub fn generate_tweets(
        &self,
        net: &Network,
        true_leaks: &[NodeId],
        n_slots: u64,
        rng: &mut StdRng,
    ) -> Vec<Tweet> {
        let (min_x, max_x, min_y, max_y) = bounding_box(net);
        let mut tweets = Vec::new();
        for &leak in true_leaks {
            let k = self.sample_report_count(n_slots, rng);
            let node = net.node(leak);
            for _ in 0..k {
                let slot = rng.random_range(0..n_slots.max(1));
                if rng.random_range(0.0..1.0) < self.false_positive {
                    tweets.push(Tweet {
                        x: rng.random_range(min_x..max_x),
                        y: rng.random_range(min_y..max_y),
                        slot,
                        genuine: false,
                    });
                } else {
                    let dx = rng.random_range(-self.report_scatter_m..self.report_scatter_m);
                    let dy = rng.random_range(-self.report_scatter_m..self.report_scatter_m);
                    tweets.push(Tweet {
                        x: node.x + dx,
                        y: node.y + dy,
                        slot,
                        genuine: true,
                    });
                }
            }
        }
        tweets
    }

    /// Builds cliques from a tweet stream: reports within `γ` of each other
    /// merge into one subzone; each clique collects the junction-list
    /// indices within `γ` of its centroid. Cliques with no member nodes are
    /// dropped.
    pub fn cliques(&self, net: &Network, junctions: &[NodeId], tweets: &[Tweet]) -> Vec<Clique> {
        // Greedy spatial grouping of reports.
        let mut groups: Vec<(f64, f64, usize)> = Vec::new(); // centroid x, y, count
        for t in tweets {
            if let Some(g) = groups.iter_mut().find(|(gx, gy, _)| {
                let (dx, dy) = (gx - t.x, gy - t.y);
                (dx * dx + dy * dy).sqrt() < self.radius_m
            }) {
                // Running centroid update.
                let n = g.2 as f64;
                g.0 = (g.0 * n + t.x) / (n + 1.0);
                g.1 = (g.1 * n + t.y) / (n + 1.0);
                g.2 += 1;
            } else {
                groups.push((t.x, t.y, 1));
            }
        }
        groups
            .into_iter()
            .filter_map(|(gx, gy, k)| {
                let members: Vec<usize> = junctions
                    .iter()
                    .enumerate()
                    .filter(|(_, &j)| {
                        let node = net.node(j);
                        let (dx, dy) = (node.x - gx, node.y - gy);
                        (dx * dx + dy * dy).sqrt() < self.radius_m
                    })
                    .map(|(idx, _)| idx)
                    .collect();
                (!members.is_empty()).then_some(Clique {
                    members,
                    reports: k,
                    confidence: self.confidence(k),
                })
            })
            .collect()
    }
}

fn bounding_box(net: &Network) -> (f64, f64, f64, f64) {
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for n in net.nodes() {
        min_x = min_x.min(n.x);
        max_x = max_x.max(n.x);
        min_y = min_y.min(n.y);
        max_y = max_y.max(n.y);
    }
    (min_x, max_x, min_y, max_y)
}

fn ln_factorial(k: usize) -> f64 {
    (1..=k).map(|i| (i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_net::synth;
    use rand::SeedableRng;

    #[test]
    fn confidence_grows_with_reports() {
        let m = HumanInputModel::default();
        assert_eq!(m.confidence(0), 0.0);
        assert!((m.confidence(1) - 0.7).abs() < 1e-12);
        assert!((m.confidence(2) - 0.91).abs() < 1e-12);
        assert!(m.confidence(10) > 0.9999);
    }

    #[test]
    fn report_pmf_sums_to_one() {
        let m = HumanInputModel::default();
        let total: f64 = (0..60).map(|k| m.report_pmf(k, 4)).sum();
        assert!((total - 1.0).abs() < 1e-9, "pmf total {total}");
        // Mode near nλ.
        assert!(m.report_pmf(4, 4) > m.report_pmf(12, 4));
    }

    #[test]
    fn paper_eq4_documented_but_not_a_distribution() {
        // The printed denominator (n+1)^k does not normalize; we keep it
        // for fidelity and verify the discrepancy quantitatively.
        let m = HumanInputModel::default();
        let total: f64 = (0..200).map(|k| m.paper_eq4(k, 4)).sum();
        assert!((total - 1.0).abs() > 0.01, "printed eq. 4 total {total}");
    }

    #[test]
    fn more_elapsed_slots_mean_more_reports() {
        let m = HumanInputModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let short: f64 = (0..2000)
            .map(|_| m.sample_report_count(1, &mut rng) as f64)
            .sum::<f64>()
            / 2000.0;
        let long: f64 = (0..2000)
            .map(|_| m.sample_report_count(6, &mut rng) as f64)
            .sum::<f64>()
            / 2000.0;
        assert!((short - 1.0).abs() < 0.1, "short mean {short}");
        assert!((long - 6.0).abs() < 0.3, "long mean {long}");
    }

    #[test]
    fn genuine_tweets_cluster_near_their_leak() {
        let net = synth::wssc_subnet();
        let junctions = net.junction_ids();
        let leak = junctions[100];
        let m = HumanInputModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let tweets = m.generate_tweets(&net, &[leak], 10, &mut rng);
        assert!(!tweets.is_empty());
        for t in tweets.iter().filter(|t| t.genuine) {
            let node = net.node(leak);
            let d = ((t.x - node.x).powi(2) + (t.y - node.y).powi(2)).sqrt();
            assert!(d < m.report_scatter_m * 1.5, "genuine tweet {d} m away");
        }
    }

    #[test]
    fn cliques_contain_the_leak_node() {
        let net = synth::wssc_subnet();
        let junctions = net.junction_ids();
        let leak_idx = 150usize;
        let m = HumanInputModel {
            false_positive: 0.0, // only genuine reports for this test
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let tweets = m.generate_tweets(&net, &[junctions[leak_idx]], 8, &mut rng);
        let cliques = m.cliques(&net, &junctions, &tweets);
        assert!(
            cliques.iter().any(|c| c.members.contains(&leak_idx)),
            "some clique must cover the leak"
        );
        for c in &cliques {
            assert!(c.confidence > 0.99, "p_e = 0 gives certain cliques");
        }
    }

    #[test]
    fn larger_gamma_makes_larger_cliques() {
        let net = synth::wssc_subnet();
        let junctions = net.junction_ids();
        let tweets = vec![Tweet {
            x: net.node(junctions[120]).x,
            y: net.node(junctions[120]).y,
            slot: 0,
            genuine: true,
        }];
        let small = HumanInputModel {
            radius_m: 30.0,
            ..Default::default()
        };
        let large = HumanInputModel {
            radius_m: 500.0,
            ..Default::default()
        };
        let c_small: usize = small
            .cliques(&net, &junctions, &tweets)
            .iter()
            .map(|c| c.members.len())
            .sum();
        let c_large: usize = large
            .cliques(&net, &junctions, &tweets)
            .iter()
            .map(|c| c.members.len())
            .sum();
        assert!(c_large > c_small, "γ=500 {c_large} vs γ=30 {c_small}");
    }

    #[test]
    fn empty_leak_set_produces_no_tweets() {
        let net = synth::epa_net();
        let m = HumanInputModel::default();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(m.generate_tweets(&net, &[], 10, &mut rng).is_empty());
    }
}
