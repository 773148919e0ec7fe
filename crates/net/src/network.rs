//! The [`Network`] container and its builder methods.

use std::collections::HashMap;

use crate::error::NetError;
use crate::graph::Adjacency;
use crate::ids::{LinkId, NodeId, PatternId};
use crate::link::{Link, LinkKind, LinkStatus, Pipe, Pump, PumpCurve, Valve, ValveKind};
use crate::node::{Junction, Node, NodeKind, Reservoir, Tank};
use crate::pattern::Pattern;

/// A static description of a water distribution network.
///
/// The network is an undirected graph `G(V, E)` (water can flow in both
/// directions) whose vertices are junctions, reservoirs and tanks, and whose
/// edges are pipes, pumps and valves. Construction is incremental through the
/// `add_*` methods; element names must be unique.
///
/// # Example
///
/// ```
/// use aqua_net::Network;
///
/// let mut net = Network::new("two-node");
/// let src = net.add_reservoir("R1", 100.0, (0.0, 0.0)).unwrap();
/// let j = net.add_junction("J1", 50.0, 0.01, (1000.0, 0.0)).unwrap();
/// net.add_pipe("P1", src, j, 1000.0, 0.3, 130.0).unwrap();
/// assert_eq!(net.node_count(), 2);
/// assert_eq!(net.link_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    patterns: Vec<Pattern>,
    name_index: HashMap<String, ()>,
}

impl Network {
    /// Creates an empty network with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            patterns: Vec::new(),
            name_index: HashMap::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn claim_name(&mut self, name: &str) -> Result<(), NetError> {
        if self.name_index.contains_key(name) {
            return Err(NetError::DuplicateName { name: name.into() });
        }
        self.name_index.insert(name.to_owned(), ());
        Ok(())
    }

    fn check_node(&self, id: NodeId) -> Result<(), NetError> {
        if id.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode { index: id.index() });
        }
        Ok(())
    }

    fn positive(what: &'static str, value: f64) -> Result<(), NetError> {
        if value <= 0.0 || !value.is_finite() {
            return Err(NetError::InvalidParameter { what, value });
        }
        Ok(())
    }

    /// Adds a demand junction; returns its id.
    ///
    /// `elevation` in meters, `base_demand` in m³/s, `xy` planar coordinates
    /// in meters.
    pub fn add_junction(
        &mut self,
        name: impl Into<String>,
        elevation: f64,
        base_demand: f64,
        xy: (f64, f64),
    ) -> Result<NodeId, NetError> {
        let name = name.into();
        self.claim_name(&name)?;
        if base_demand < 0.0 || !base_demand.is_finite() {
            return Err(NetError::InvalidParameter {
                what: "base demand",
                value: base_demand,
            });
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name,
            elevation,
            x: xy.0,
            y: xy.1,
            kind: NodeKind::Junction(Junction {
                base_demand,
                pattern: None,
            }),
        });
        Ok(id)
    }

    /// Adds a fixed-head reservoir; returns its id. `head` is the total
    /// hydraulic head in meters.
    pub fn add_reservoir(
        &mut self,
        name: impl Into<String>,
        head: f64,
        xy: (f64, f64),
    ) -> Result<NodeId, NetError> {
        let name = name.into();
        self.claim_name(&name)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name,
            elevation: head,
            x: xy.0,
            y: xy.1,
            kind: NodeKind::Reservoir(Reservoir { head }),
        });
        Ok(id)
    }

    /// Adds a storage tank; returns its id.
    pub fn add_tank(
        &mut self,
        name: impl Into<String>,
        elevation: f64,
        tank: Tank,
        xy: (f64, f64),
    ) -> Result<NodeId, NetError> {
        let name = name.into();
        self.claim_name(&name)?;
        Self::positive("tank diameter", tank.diameter)?;
        if !(tank.min_level <= tank.init_level && tank.init_level <= tank.max_level) {
            return Err(NetError::InvalidParameter {
                what: "tank level ordering (min <= init <= max)",
                value: tank.init_level,
            });
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name,
            elevation,
            x: xy.0,
            y: xy.1,
            kind: NodeKind::Tank(tank),
        });
        Ok(id)
    }

    /// Adds a pipe; returns its id. `length` and `diameter` in meters,
    /// `roughness` is the Hazen–Williams coefficient.
    pub fn add_pipe(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        length: f64,
        diameter: f64,
        roughness: f64,
    ) -> Result<LinkId, NetError> {
        let name = name.into();
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(NetError::SelfLoop { name });
        }
        Self::positive("pipe length", length)?;
        Self::positive("pipe diameter", diameter)?;
        Self::positive("pipe roughness", roughness)?;
        self.claim_name(&name)?;
        let id = LinkId(self.links.len());
        self.links.push(Link {
            name,
            from,
            to,
            status: LinkStatus::Open,
            kind: LinkKind::Pipe(Pipe {
                length,
                diameter,
                roughness,
                minor_loss: 0.0,
                check_valve: false,
            }),
        });
        Ok(id)
    }

    /// Adds a pump with the given head curve; returns its id.
    pub fn add_pump(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        curve: PumpCurve,
    ) -> Result<LinkId, NetError> {
        let name = name.into();
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(NetError::SelfLoop { name });
        }
        self.claim_name(&name)?;
        let id = LinkId(self.links.len());
        self.links.push(Link {
            name,
            from,
            to,
            status: LinkStatus::Open,
            kind: LinkKind::Pump(Pump { curve, speed: 1.0 }),
        });
        Ok(id)
    }

    /// Adds a control valve; returns its id.
    pub fn add_valve(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        kind: ValveKind,
        diameter: f64,
        setting: f64,
    ) -> Result<LinkId, NetError> {
        let name = name.into();
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(NetError::SelfLoop { name });
        }
        Self::positive("valve diameter", diameter)?;
        self.claim_name(&name)?;
        let id = LinkId(self.links.len());
        self.links.push(Link {
            name,
            from,
            to,
            status: LinkStatus::Open,
            kind: LinkKind::Valve(Valve {
                kind,
                diameter,
                setting,
            }),
        });
        Ok(id)
    }

    /// Registers a demand pattern; returns its id.
    pub fn add_pattern(&mut self, pattern: Pattern) -> PatternId {
        let id = PatternId(self.patterns.len());
        self.patterns.push(pattern);
        id
    }

    /// Assigns a demand pattern to a junction.
    ///
    /// Returns an error if `node` is not a junction or `pattern` is unknown.
    pub fn set_junction_pattern(
        &mut self,
        node: NodeId,
        pattern: PatternId,
    ) -> Result<(), NetError> {
        self.check_node(node)?;
        if pattern.index() >= self.patterns.len() {
            return Err(NetError::UnknownPattern {
                index: pattern.index(),
            });
        }
        match &mut self.nodes[node.index()].kind {
            NodeKind::Junction(j) => {
                j.pattern = Some(pattern);
                Ok(())
            }
            _ => Err(NetError::UnknownNode {
                index: node.index(),
            }),
        }
    }

    /// Sets the open/closed status of a link.
    pub fn set_link_status(&mut self, link: LinkId, status: LinkStatus) {
        self.links[link.index()].status = status;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of pipe links (excludes pumps and valves).
    pub fn pipe_count(&self) -> usize {
        self.links.iter().filter(|l| l.kind.is_pipe()).count()
    }

    /// Number of pump links.
    pub fn pump_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| matches!(l.kind, LinkKind::Pump(_)))
            .count()
    }

    /// Number of valve links.
    pub fn valve_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| matches!(l.kind, LinkKind::Valve(_)))
            .count()
    }

    /// Number of reservoir nodes (water sources).
    pub fn reservoir_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Reservoir(_)))
            .count()
    }

    /// Number of tank nodes.
    pub fn tank_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Tank(_)))
            .count()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Pattern lookup.
    pub fn pattern(&self, id: PatternId) -> &Pattern {
        &self.patterns[id.index()]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Iterator over `(NodeId, &Node)`.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterator over `(LinkId, &Link)`.
    pub fn iter_links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Ids of all junction nodes (the candidate leak locations).
    pub fn junction_ids(&self) -> Vec<NodeId> {
        self.iter_nodes()
            .filter(|(_, n)| n.kind.is_junction())
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of all fixed-head nodes (reservoirs and tanks).
    pub fn fixed_head_ids(&self) -> Vec<NodeId> {
        self.iter_nodes()
            .filter(|(_, n)| n.kind.is_fixed_head())
            .map(|(id, _)| id)
            .collect()
    }

    /// Looks a node up by name (linear scan; intended for tests and tools).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Looks a link up by name (linear scan; intended for tests and tools).
    pub fn link_by_name(&self, name: &str) -> Option<LinkId> {
        self.links.iter().position(|l| l.name == name).map(LinkId)
    }

    /// Demand of a junction at absolute time `t` seconds (base × pattern).
    /// Zero for non-junction nodes.
    pub fn demand_at(&self, node: NodeId, t: u64) -> f64 {
        match &self.nodes[node.index()].kind {
            NodeKind::Junction(j) => {
                let mult = j
                    .pattern
                    .map(|p| self.patterns[p.index()].multiplier_at(t))
                    .unwrap_or(1.0);
                j.base_demand * mult
            }
            _ => 0.0,
        }
    }

    /// Builds the adjacency structure for graph algorithms.
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::build(self)
    }

    /// Static topology feature vector used by the paper's profile model:
    /// per-network summary of node elevations and pipe length / diameter /
    /// roughness (Sec. IV-A, the `T` features).
    pub fn topology_features(&self) -> Vec<f64> {
        fn stats(values: impl Iterator<Item = f64>) -> (f64, f64, f64, f64) {
            let v: Vec<f64> = values.collect();
            if v.is_empty() {
                return (0.0, 0.0, 0.0, 0.0);
            }
            let n = v.len() as f64;
            let mean = v.iter().sum::<f64>() / n;
            let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (mean, var.sqrt(), min, max)
        }
        let mut features = Vec::with_capacity(16);
        let (m, s, lo, hi) = stats(self.nodes.iter().map(|n| n.elevation));
        features.extend_from_slice(&[m, s, lo, hi]);
        let pipes: Vec<&Pipe> = self.links.iter().filter_map(|l| l.as_pipe()).collect();
        let (m, s, lo, hi) = stats(pipes.iter().map(|p| p.length));
        features.extend_from_slice(&[m, s, lo, hi]);
        let (m, s, lo, hi) = stats(pipes.iter().map(|p| p.diameter));
        features.extend_from_slice(&[m, s, lo, hi]);
        let (m, s, lo, hi) = stats(pipes.iter().map(|p| p.roughness));
        features.extend_from_slice(&[m, s, lo, hi]);
        features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("t");
        let r = net.add_reservoir("R", 100.0, (0.0, 0.0)).unwrap();
        let j = net.add_junction("J", 50.0, 0.01, (100.0, 0.0)).unwrap();
        (net, r, j)
    }

    #[test]
    fn duplicate_names_rejected_across_element_kinds() {
        let (mut net, r, j) = two_node();
        assert!(matches!(
            net.add_junction("J", 0.0, 0.0, (0.0, 0.0)),
            Err(NetError::DuplicateName { .. })
        ));
        net.add_pipe("P", r, j, 10.0, 0.1, 100.0).unwrap();
        assert!(matches!(
            net.add_pipe("P", r, j, 10.0, 0.1, 100.0),
            Err(NetError::DuplicateName { .. })
        ));
        // Node and link names share one namespace.
        assert!(matches!(
            net.add_pipe("J", r, j, 10.0, 0.1, 100.0),
            Err(NetError::DuplicateName { .. })
        ));
    }

    #[test]
    fn self_loops_rejected() {
        let (mut net, r, _) = two_node();
        assert!(matches!(
            net.add_pipe("P", r, r, 10.0, 0.1, 100.0),
            Err(NetError::SelfLoop { .. })
        ));
    }

    #[test]
    fn invalid_pipe_parameters_rejected() {
        let (mut net, r, j) = two_node();
        for (len, dia, rough) in [(0.0, 0.1, 100.0), (10.0, -0.1, 100.0), (10.0, 0.1, 0.0)] {
            assert!(matches!(
                net.add_pipe("P", r, j, len, dia, rough),
                Err(NetError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn unknown_node_in_link_rejected() {
        let (mut net, r, _) = two_node();
        let ghost = NodeId::from_index(99);
        assert!(matches!(
            net.add_pipe("P", r, ghost, 10.0, 0.1, 100.0),
            Err(NetError::UnknownNode { .. })
        ));
    }

    #[test]
    fn demand_uses_pattern_multiplier() {
        let (mut net, _, j) = two_node();
        let pat = net.add_pattern(Pattern::new("p", vec![0.5, 2.0], 3600));
        net.set_junction_pattern(j, pat).unwrap();
        assert!((net.demand_at(j, 0) - 0.005).abs() < 1e-12);
        assert!((net.demand_at(j, 3600) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn demand_of_reservoir_is_zero() {
        let (net, r, _) = two_node();
        assert_eq!(net.demand_at(r, 0), 0.0);
    }

    #[test]
    fn pattern_assignment_to_reservoir_fails() {
        let (mut net, r, _) = two_node();
        let pat = net.add_pattern(Pattern::constant("c"));
        assert!(net.set_junction_pattern(r, pat).is_err());
    }

    #[test]
    fn unknown_pattern_rejected() {
        let (mut net, _, j) = two_node();
        assert!(matches!(
            net.set_junction_pattern(j, PatternId(5)),
            Err(NetError::UnknownPattern { .. })
        ));
    }

    #[test]
    fn element_counts() {
        let (mut net, r, j) = two_node();
        let j2 = net.add_junction("J2", 10.0, 0.0, (0.0, 100.0)).unwrap();
        net.add_pipe("P1", r, j, 10.0, 0.1, 100.0).unwrap();
        net.add_pump("PU", j, j2, PumpCurve::from_design_point(0.1, 10.0))
            .unwrap();
        net.add_valve("V", j2, r, ValveKind::Tcv, 0.2, 5.0).unwrap();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.pipe_count(), 1);
        assert_eq!(net.pump_count(), 1);
        assert_eq!(net.valve_count(), 1);
        assert_eq!(net.reservoir_count(), 1);
        assert_eq!(net.tank_count(), 0);
        assert_eq!(net.junction_ids().len(), 2);
        assert_eq!(net.fixed_head_ids().len(), 1);
    }

    #[test]
    fn lookup_by_name() {
        let (mut net, _, j) = two_node();
        net.add_pipe("P1", NodeId::from_index(0), j, 10.0, 0.1, 100.0)
            .unwrap();
        assert_eq!(net.node_by_name("J"), Some(j));
        assert_eq!(net.link_by_name("P1"), Some(LinkId::from_index(0)));
        assert_eq!(net.node_by_name("nope"), None);
    }

    #[test]
    fn topology_features_have_fixed_dimension() {
        let (mut net, r, j) = two_node();
        net.add_pipe("P1", r, j, 10.0, 0.1, 100.0).unwrap();
        let f = net.topology_features();
        assert_eq!(f.len(), 16);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn tank_level_ordering_validated() {
        let mut net = Network::new("t");
        let bad = Tank {
            init_level: 5.0,
            min_level: 0.0,
            max_level: 4.0,
            diameter: 10.0,
        };
        assert!(net.add_tank("T", 10.0, bad, (0.0, 0.0)).is_err());
    }
}
