//! Node types: junctions, reservoirs and tanks.

use crate::ids::PatternId;

/// A demand node where pipes join.
///
/// Junctions are the potential leak locations in the paper's model: leak
/// events are simulated by attaching an emitter to a junction (Sec. III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Junction {
    /// Base consumer demand in m³/s, scaled by the demand pattern.
    pub base_demand: f64,
    /// Optional time-of-day demand pattern.
    pub pattern: Option<PatternId>,
}

/// An infinite external water source (or sink) with a fixed total head.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    /// Total hydraulic head in meters (water surface elevation).
    pub head: f64,
}

/// A storage tank whose level varies over an extended-period simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Tank {
    /// Water level above the tank bottom at simulation start, in meters.
    pub init_level: f64,
    /// Minimum allowed water level in meters.
    pub min_level: f64,
    /// Maximum allowed water level in meters.
    pub max_level: f64,
    /// Tank diameter in meters (cylindrical tank).
    pub diameter: f64,
}

impl Tank {
    /// Cross-sectional area of the (cylindrical) tank in m².
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.diameter * self.diameter / 4.0
    }

    /// Volume stored at the given level, in m³.
    pub fn volume_at(&self, level: f64) -> f64 {
        self.area() * level
    }
}

/// The node role within the network.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A demand junction.
    Junction(Junction),
    /// A fixed-head source.
    Reservoir(Reservoir),
    /// A variable-level storage tank.
    Tank(Tank),
}

impl NodeKind {
    /// Returns `true` for junction nodes.
    pub fn is_junction(&self) -> bool {
        matches!(self, NodeKind::Junction(_))
    }

    /// Returns `true` for reservoirs and tanks, whose head is fixed within a
    /// single hydraulic time step.
    pub fn is_fixed_head(&self) -> bool {
        !self.is_junction()
    }
}

/// A node of the water network.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable node label (unique within the network).
    pub name: String,
    /// Ground elevation (junctions/tanks: bottom elevation) in meters.
    pub elevation: f64,
    /// Planar x coordinate in meters (used for geo matching of tweets and
    /// DEM interpolation).
    pub x: f64,
    /// Planar y coordinate in meters.
    pub y: f64,
    /// The node role.
    pub kind: NodeKind,
}

impl Node {
    /// Returns the junction data if this node is a junction.
    pub fn as_junction(&self) -> Option<&Junction> {
        match &self.kind {
            NodeKind::Junction(j) => Some(j),
            _ => None,
        }
    }

    /// Returns the tank data if this node is a tank.
    pub fn as_tank(&self) -> Option<&Tank> {
        match &self.kind {
            NodeKind::Tank(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the reservoir data if this node is a reservoir.
    pub fn as_reservoir(&self) -> Option<&Reservoir> {
        match &self.kind {
            NodeKind::Reservoir(r) => Some(r),
            _ => None,
        }
    }

    /// Euclidean distance in meters to another node's coordinates.
    pub fn distance_to(&self, other: &Node) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tank_area_and_volume() {
        let tank = Tank {
            init_level: 2.0,
            min_level: 0.0,
            max_level: 5.0,
            diameter: 10.0,
        };
        let area = tank.area();
        assert!((area - 78.539_816).abs() < 1e-3);
        assert!((tank.volume_at(2.0) - 2.0 * area).abs() < 1e-9);
    }

    #[test]
    fn node_kind_classification() {
        let j = NodeKind::Junction(Junction {
            base_demand: 0.0,
            pattern: None,
        });
        let r = NodeKind::Reservoir(Reservoir { head: 100.0 });
        assert!(j.is_junction());
        assert!(!j.is_fixed_head());
        assert!(!r.is_junction());
        assert!(r.is_fixed_head());
    }

    #[test]
    fn node_distance_is_euclidean() {
        let mk = |x: f64, y: f64| Node {
            name: "n".into(),
            elevation: 0.0,
            x,
            y,
            kind: NodeKind::Reservoir(Reservoir { head: 0.0 }),
        };
        let a = mk(0.0, 0.0);
        let b = mk(3.0, 4.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn accessor_methods_match_kind() {
        let node = Node {
            name: "t1".into(),
            elevation: 10.0,
            x: 0.0,
            y: 0.0,
            kind: NodeKind::Tank(Tank {
                init_level: 1.0,
                min_level: 0.5,
                max_level: 4.0,
                diameter: 12.0,
            }),
        };
        assert!(node.as_tank().is_some());
        assert!(node.as_junction().is_none());
        assert!(node.as_reservoir().is_none());
    }
}
