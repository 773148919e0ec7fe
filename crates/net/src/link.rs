//! Link types: pipes, pumps and valves.

use crate::ids::NodeId;

/// Open/closed status of a link.
///
/// The paper's networks carry a per-pipe `status (open or close controlled by
/// a valve)` attribute; closed links carry no flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkStatus {
    /// Link conveys flow.
    #[default]
    Open,
    /// Link is shut and conveys no flow.
    Closed,
}

/// A pressurized pipe segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipe {
    /// Length in meters.
    pub length: f64,
    /// Internal diameter in meters.
    pub diameter: f64,
    /// Hazen–Williams roughness coefficient (dimensionless, ~80–150).
    pub roughness: f64,
    /// Minor-loss coefficient (dimensionless, ≥ 0).
    pub minor_loss: f64,
    /// Whether the pipe has a check valve (flow restricted to `from → to`).
    pub check_valve: bool,
}

/// A pump head curve of the EPANET single-point form `h(q) = h0 − r·qⁿ`.
///
/// Constructed from a design point `(q_design, h_design)` following EPANET's
/// convention: shutoff head `h0 = 4/3·h_design` and maximum flow
/// `q_max = 2·q_design`, with exponent `n = 2`.
#[derive(Debug, Clone, PartialEq)]
pub struct PumpCurve {
    /// Shutoff head (head gain at zero flow), meters.
    pub shutoff_head: f64,
    /// Curve coefficient `r` in `h = h0 − r·qⁿ`.
    pub coeff: f64,
    /// Curve exponent `n`.
    pub exponent: f64,
}

impl PumpCurve {
    /// Builds a curve from a single design point (flow in m³/s, head in m).
    ///
    /// # Panics
    ///
    /// Panics if `q_design` or `h_design` is not strictly positive.
    pub fn from_design_point(q_design: f64, h_design: f64) -> Self {
        assert!(
            q_design > 0.0 && h_design > 0.0,
            "pump design point must be positive"
        );
        let shutoff_head = h_design * 4.0 / 3.0;
        // Curve passes through (q_design, h_design) with n = 2:
        // h_design = h0 - r q_design^2  =>  r = (h0 - h_design) / q_design^2.
        let coeff = (shutoff_head - h_design) / (q_design * q_design);
        PumpCurve {
            shutoff_head,
            coeff,
            exponent: 2.0,
        }
    }

    /// Head gain (m) delivered at flow `q` (m³/s); clamps below zero.
    pub fn head_gain(&self, q: f64) -> f64 {
        (self.shutoff_head - self.coeff * q.max(0.0).powf(self.exponent)).max(0.0)
    }

    /// Maximum flow (m³/s) the pump can deliver (head gain reaches zero).
    pub fn max_flow(&self) -> f64 {
        (self.shutoff_head / self.coeff).powf(1.0 / self.exponent)
    }
}

/// A pump that adds head between its suction and discharge nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Pump {
    /// The pump head curve.
    pub curve: PumpCurve,
    /// Relative speed setting (1.0 = nominal).
    pub speed: f64,
}

/// The kind of a control valve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValveKind {
    /// Throttle control valve: imposes a minor-loss coefficient.
    Tcv,
    /// Flow control valve modeled as a throttling element (simplified).
    Fcv,
}

/// A control valve.
#[derive(Debug, Clone, PartialEq)]
pub struct Valve {
    /// Valve kind.
    pub kind: ValveKind,
    /// Valve diameter in meters.
    pub diameter: f64,
    /// Valve setting: minor-loss coefficient for [`ValveKind::Tcv`], target
    /// flow (m³/s) converted to an equivalent loss for [`ValveKind::Fcv`].
    pub setting: f64,
}

/// The link role within the network.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkKind {
    /// A pipe segment.
    Pipe(Pipe),
    /// A pump.
    Pump(Pump),
    /// A control valve.
    Valve(Valve),
}

impl LinkKind {
    /// Returns `true` for pipe links.
    pub fn is_pipe(&self) -> bool {
        matches!(self, LinkKind::Pipe(_))
    }
}

/// A link of the water network.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Human-readable link label (unique within the network).
    pub name: String,
    /// Upstream endpoint (positive flow direction is `from → to`).
    pub from: NodeId,
    /// Downstream endpoint.
    pub to: NodeId,
    /// Open/closed status.
    pub status: LinkStatus,
    /// The link role.
    pub kind: LinkKind,
}

impl Link {
    /// Returns the pipe data if this link is a pipe.
    pub fn as_pipe(&self) -> Option<&Pipe> {
        match &self.kind {
            LinkKind::Pipe(p) => Some(p),
            _ => None,
        }
    }

    /// Returns the pump data if this link is a pump.
    pub fn as_pump(&self) -> Option<&Pump> {
        match &self.kind {
            LinkKind::Pump(p) => Some(p),
            _ => None,
        }
    }

    /// Returns the valve data if this link is a valve.
    pub fn as_valve(&self) -> Option<&Valve> {
        match &self.kind {
            LinkKind::Valve(v) => Some(v),
            _ => None,
        }
    }

    /// Length in meters used for graph distances: the physical length for
    /// pipes, zero for pumps and valves (they join co-located nodes).
    pub fn graph_length(&self) -> f64 {
        match &self.kind {
            LinkKind::Pipe(p) => p.length,
            _ => 0.0,
        }
    }

    /// The node at the other end of this link relative to `node`, if `node`
    /// is one of its endpoints.
    pub fn opposite(&self, node: NodeId) -> Option<NodeId> {
        if node == self.from {
            Some(self.to)
        } else if node == self.to {
            Some(self.from)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_curve_passes_through_design_point() {
        let curve = PumpCurve::from_design_point(0.5, 30.0);
        assert!((curve.head_gain(0.5) - 30.0).abs() < 1e-9);
        assert!((curve.head_gain(0.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn pump_curve_head_is_monotone_decreasing() {
        let curve = PumpCurve::from_design_point(0.2, 25.0);
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let q = i as f64 * 0.05;
            let h = curve.head_gain(q);
            assert!(h <= prev + 1e-12);
            prev = h;
        }
    }

    #[test]
    fn pump_curve_max_flow_gives_zero_head() {
        let curve = PumpCurve::from_design_point(0.3, 40.0);
        let qmax = curve.max_flow();
        assert!(curve.head_gain(qmax).abs() < 1e-9);
        assert!(qmax > 0.3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn pump_curve_rejects_nonpositive_design() {
        let _ = PumpCurve::from_design_point(0.0, 30.0);
    }

    #[test]
    fn link_opposite_endpoint() {
        let link = Link {
            name: "p".into(),
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            status: LinkStatus::Open,
            kind: LinkKind::Pipe(Pipe {
                length: 100.0,
                diameter: 0.3,
                roughness: 120.0,
                minor_loss: 0.0,
                check_valve: false,
            }),
        };
        assert_eq!(
            link.opposite(NodeId::from_index(0)),
            Some(NodeId::from_index(1))
        );
        assert_eq!(
            link.opposite(NodeId::from_index(1)),
            Some(NodeId::from_index(0))
        );
        assert_eq!(link.opposite(NodeId::from_index(5)), None);
    }

    #[test]
    fn graph_length_is_zero_for_pumps() {
        let link = Link {
            name: "pu".into(),
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            status: LinkStatus::Open,
            kind: LinkKind::Pump(Pump {
                curve: PumpCurve::from_design_point(0.1, 10.0),
                speed: 1.0,
            }),
        };
        assert_eq!(link.graph_length(), 0.0);
    }
}
