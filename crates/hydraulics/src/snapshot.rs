//! Hydraulic state at one instant.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_net::{LinkId, Network, NodeId};

/// The solved hydraulic state of a network at one hydraulic time step.
///
/// Heads are absolute (m); pressures are heads minus node elevation (m of
/// water column); flows are signed (positive in the link's `from → to`
/// direction, m³/s).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Simulation time in seconds.
    pub time: u64,
    /// Total hydraulic head per node (indexed by dense node id).
    pub heads: Vec<f64>,
    /// Signed flow per link (indexed by dense link id).
    pub flows: Vec<f64>,
    /// Node elevations copied from the network (so pressure is derivable
    /// without the network in hand).
    pub elevations: Vec<f64>,
    /// Consumer demand actually applied per node (m³/s).
    pub demands: Vec<f64>,
    /// Leak (emitter) outflow per node (m³/s; zero for non-leaky nodes).
    pub emitter_flows: Vec<f64>,
    /// GGA iterations used to converge.
    pub iterations: usize,
}

impl Snapshot {
    /// Total head at `node`, meters.
    pub fn head(&self, node: NodeId) -> f64 {
        self.heads[node.index()]
    }

    /// Pressure head at `node` (head − elevation), meters of water.
    pub fn pressure(&self, node: NodeId) -> f64 {
        self.heads[node.index()] - self.elevations[node.index()]
    }

    /// Signed flow through `link`, m³/s.
    pub fn flow(&self, link: LinkId) -> f64 {
        self.flows[link.index()]
    }

    /// Leak outflow at `node`, m³/s.
    pub fn emitter_flow(&self, node: NodeId) -> f64 {
        self.emitter_flows[node.index()]
    }

    /// Total leak outflow across the network, m³/s.
    pub fn total_leakage(&self) -> f64 {
        self.emitter_flows.iter().sum()
    }

    /// Total consumer demand across the network, m³/s.
    pub fn total_demand(&self) -> f64 {
        self.demands.iter().sum()
    }

    /// All junction pressures as `(node, pressure)` pairs.
    pub fn junction_pressures(&self, net: &Network) -> Vec<(NodeId, f64)> {
        net.junction_ids()
            .into_iter()
            .map(|id| (id, self.pressure(id)))
            .collect()
    }

    /// Mass-balance residual at a junction: inflow − outflow − demand −
    /// leakage (m³/s). Should be ~0 at a converged solution; exposed for
    /// tests and runtime verification.
    pub fn mass_residual(&self, net: &Network, node: NodeId) -> f64 {
        let mut balance = 0.0;
        for (lid, link) in net.iter_links() {
            if link.to == node {
                balance += self.flows[lid.index()];
            } else if link.from == node {
                balance -= self.flows[lid.index()];
            }
        }
        balance - self.demands[node.index()] - self.emitter_flows[node.index()]
    }

    /// Largest absolute junction mass-balance residual (m³/s).
    pub fn max_mass_residual(&self, net: &Network) -> f64 {
        net.junction_ids()
            .into_iter()
            .map(|id| self.mass_residual(net, id).abs())
            .fold(0.0, f64::max)
    }
}

impl Codec for Snapshot {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.time);
        self.heads.encode(w);
        self.flows.encode(w);
        self.elevations.encode(w);
        self.demands.encode(w);
        self.emitter_flows.encode(w);
        w.len_prefix(self.iterations);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let snap = Snapshot {
            time: r.u64()?,
            heads: Codec::decode(r)?,
            flows: Codec::decode(r)?,
            elevations: Codec::decode(r)?,
            demands: Codec::decode(r)?,
            emitter_flows: Codec::decode(r)?,
            iterations: usize::decode(r)?,
        };
        let n = snap.heads.len();
        if snap.elevations.len() != n || snap.demands.len() != n || snap.emitter_flows.len() != n {
            return Err(ArtifactError::Malformed {
                reason: "snapshot per-node vector lengths disagree".into(),
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_is_head_minus_elevation() {
        let snap = Snapshot {
            time: 0,
            heads: vec![100.0, 80.0],
            flows: vec![],
            elevations: vec![60.0, 50.0],
            demands: vec![0.0, 0.0],
            emitter_flows: vec![0.0, 0.0],
            iterations: 1,
        };
        assert_eq!(snap.pressure(NodeId::from_index(0)), 40.0);
        assert_eq!(snap.pressure(NodeId::from_index(1)), 30.0);
    }

    #[test]
    fn totals_sum_vectors() {
        let snap = Snapshot {
            time: 0,
            heads: vec![0.0; 3],
            flows: vec![],
            elevations: vec![0.0; 3],
            demands: vec![0.01, 0.02, 0.0],
            emitter_flows: vec![0.0, 0.005, 0.001],
            iterations: 1,
        };
        assert!((snap.total_demand() - 0.03).abs() < 1e-12);
        assert!((snap.total_leakage() - 0.006).abs() < 1e-12);
    }
}
