//! Sensor sets: which nodes carry pressure transducers and which pipes
//! carry flow meters.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_hydraulics::Snapshot;
use aqua_net::{LinkId, Network, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The deployed IoT devices: `A ⊆ V ∪ E` — "pressure head is measured on
/// node while flow rate is measured on pipeline" (Sec. III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensorSet {
    /// Nodes carrying pressure transducers.
    pub pressure_nodes: Vec<NodeId>,
    /// Links carrying flow meters.
    pub flow_links: Vec<LinkId>,
}

impl SensorSet {
    /// Full instrumentation: every node and every link (the paper's "100%
    /// IoT observations", `|A| = |V| + |E|`).
    pub fn full(net: &Network) -> Self {
        SensorSet {
            pressure_nodes: (0..net.node_count()).map(NodeId::from_index).collect(),
            flow_links: (0..net.link_count()).map(LinkId::from_index).collect(),
        }
    }

    /// Empty deployment.
    pub fn empty() -> Self {
        SensorSet {
            pressure_nodes: Vec::new(),
            flow_links: Vec::new(),
        }
    }

    /// A uniformly random deployment covering `fraction` of all candidate
    /// positions (baseline for the k-medoids placement ablation).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction <= 1.0`.
    pub fn random_fraction(net: &Network, fraction: f64, seed: u64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let total = net.node_count() + net.link_count();
        let k = ((total as f64 * fraction).round() as usize).clamp(1, total);
        let mut candidates: Vec<usize> = (0..total).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..total).rev() {
            candidates.swap(i, rng.random_range(0..=i));
        }
        let mut set = SensorSet::empty();
        for &c in candidates.iter().take(k) {
            if c < net.node_count() {
                set.pressure_nodes.push(NodeId::from_index(c));
            } else {
                set.flow_links
                    .push(LinkId::from_index(c - net.node_count()));
            }
        }
        set.pressure_nodes.sort();
        set.flow_links.sort();
        set
    }

    /// Number of deployed devices.
    pub fn len(&self) -> usize {
        self.pressure_nodes.len() + self.flow_links.len()
    }

    /// `true` when no device is deployed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The true value under every device in `snapshot`, in channel order:
    /// pressure nodes first, then flow links.
    pub fn read(&self, snapshot: &Snapshot) -> Vec<f64> {
        self.pressure_nodes
            .iter()
            .map(|&n| snapshot.pressure(n))
            .chain(self.flow_links.iter().map(|&l| snapshot.flow(l)))
            .collect()
    }

    /// Deployment penetration relative to full instrumentation.
    pub fn coverage(&self, net: &Network) -> f64 {
        self.len() as f64 / (net.node_count() + net.link_count()) as f64
    }
}

impl Codec for SensorSet {
    fn encode(&self, w: &mut Writer) {
        self.pressure_nodes.encode(w);
        self.flow_links.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(SensorSet {
            pressure_nodes: Codec::decode(r)?,
            flow_links: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_net::synth;

    #[test]
    fn full_set_covers_everything() {
        let net = synth::epa_net();
        let s = SensorSet::full(&net);
        assert_eq!(s.len(), net.node_count() + net.link_count());
        assert!((s.coverage(&net) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_fraction_hits_requested_count() {
        let net = synth::epa_net();
        let total = net.node_count() + net.link_count();
        for frac in [0.1, 0.5, 1.0] {
            let s = SensorSet::random_fraction(&net, frac, 1);
            assert_eq!(s.len(), (total as f64 * frac).round() as usize);
        }
    }

    #[test]
    fn random_fraction_is_deterministic_per_seed() {
        let net = synth::epa_net();
        let a = SensorSet::random_fraction(&net, 0.3, 7);
        let b = SensorSet::random_fraction(&net, 0.3, 7);
        assert_eq!(a, b);
        let c = SensorSet::random_fraction(&net, 0.3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_fraction_has_no_duplicates() {
        let net = synth::wssc_subnet();
        let s = SensorSet::random_fraction(&net, 0.4, 3);
        let mut nodes = s.pressure_nodes.clone();
        nodes.dedup();
        assert_eq!(nodes.len(), s.pressure_nodes.len());
        let mut links = s.flow_links.clone();
        links.dedup();
        assert_eq!(links.len(), s.flow_links.len());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let net = synth::epa_net();
        let _ = SensorSet::random_fraction(&net, 0.0, 1);
    }

    #[test]
    fn empty_set_reports_empty() {
        assert!(SensorSet::empty().is_empty());
    }
}
