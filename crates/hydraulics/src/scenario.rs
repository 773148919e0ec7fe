//! Failure scenarios layered over a static network.
//!
//! The network description in `aqua-net` is immutable topology; a
//! [`Scenario`] holds the runtime overlay — leak events (paper Sec. III-A:
//! `e = (l, s, t)` with location, size and start time), link status
//! overrides (e.g. valve closures) and tank level overrides — without
//! mutating the shared network.

use std::collections::BTreeMap;

use aqua_net::{LinkId, LinkStatus, NodeId};

use crate::emitter::Emitter;

/// One leak event `e = (l, s, t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakEvent {
    /// Leak location `e.l` (a junction id).
    pub node: NodeId,
    /// Leak size `e.s`: the emitter coefficient `EC` of eq. (1).
    pub coefficient: f64,
    /// Leak start time `e.t` in seconds since simulation start.
    pub start: u64,
}

impl LeakEvent {
    /// Creates a leak event.
    pub fn new(node: NodeId, coefficient: f64, start: u64) -> Self {
        LeakEvent {
            node,
            coefficient,
            start,
        }
    }

    /// The emitter this leak installs once active.
    pub fn emitter(&self) -> Emitter {
        Emitter::new(self.coefficient)
    }

    /// Whether the leak is discharging at time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.start
    }
}

/// A runtime overlay: concurrent leak events plus operational overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The leak event set `e = {e}` (multiple concurrent leaks supported).
    pub leaks: Vec<LeakEvent>,
    /// Link status overrides (valve closures, isolation).
    pub link_status: Vec<(LinkId, LinkStatus)>,
    /// Tank level overrides in meters above tank bottom (used by the EPS to
    /// carry levels between steps).
    pub tank_levels: Vec<(NodeId, f64)>,
    /// Global demand multiplier (stress studies; 1.0 = nominal).
    pub demand_scale: f64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::new()
    }
}

impl Scenario {
    /// A scenario with no leaks and no overrides.
    pub fn new() -> Self {
        Scenario {
            leaks: Vec::new(),
            link_status: Vec::new(),
            tank_levels: Vec::new(),
            demand_scale: 1.0,
        }
    }

    /// Adds a leak event (builder style).
    pub fn with_leak(mut self, leak: LeakEvent) -> Self {
        self.leaks.push(leak);
        self
    }

    /// Adds several leaks at once.
    pub fn with_leaks(mut self, leaks: impl IntoIterator<Item = LeakEvent>) -> Self {
        self.leaks.extend(leaks);
        self
    }

    /// Overrides a link status (builder style).
    pub fn with_link_status(mut self, link: LinkId, status: LinkStatus) -> Self {
        self.link_status.push((link, status));
        self
    }

    /// Sets the global demand multiplier (builder style).
    pub fn with_demand_scale(mut self, scale: f64) -> Self {
        self.demand_scale = scale;
        self
    }

    /// Emitters active at time `t`, merged per node (concurrent leaks at the
    /// same node sum their effective areas).
    pub fn active_emitters(&self, t: u64) -> BTreeMap<NodeId, Emitter> {
        let mut out: BTreeMap<NodeId, Emitter> = BTreeMap::new();
        for leak in self.leaks.iter().filter(|l| l.active_at(t)) {
            out.entry(leak.node)
                .and_modify(|e| e.coefficient += leak.coefficient)
                .or_insert_with(|| leak.emitter());
        }
        out
    }

    /// Whether the network at time `t` is hydraulically indistinguishable
    /// from the leak-free baseline under this scenario: no leak has started
    /// yet, no link status is overridden, and demands are nominal. Tank
    /// levels are excluded — callers supply those per instant. When this
    /// holds, a solve at `t` reproduces the baseline solve at `t` (same
    /// inputs, same solver), so a cached baseline snapshot can stand in for
    /// it.
    pub fn is_baseline_at(&self, t: u64) -> bool {
        self.link_status.is_empty()
            && self.demand_scale == 1.0
            && self.leaks.iter().all(|l| !l.active_at(t))
    }

    /// Status of `link` at runtime, honoring overrides (last override wins).
    pub fn link_status(&self, link: LinkId, base: LinkStatus) -> LinkStatus {
        self.link_status
            .iter()
            .rev()
            .find(|(l, _)| *l == link)
            .map(|&(_, s)| s)
            .unwrap_or(base)
    }

    /// True leak locations at time `t` (the label vector `y` of Sec. III-B).
    pub fn true_leak_nodes(&self, t: u64) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .leaks
            .iter()
            .filter(|l| l.active_at(t))
            .map(|l| l.node)
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_has_no_active_emitters() {
        let s = Scenario::default();
        assert!(s.active_emitters(0).is_empty());
        assert!(s.true_leak_nodes(1000).is_empty());
    }

    #[test]
    fn default_demand_scale_is_nominal() {
        assert_eq!(Scenario::default().demand_scale, 1.0);
        assert_eq!(Scenario::new().demand_scale, 1.0);
    }

    #[test]
    fn leaks_activate_at_start_time() {
        let leak = LeakEvent::new(NodeId::from_index(3), 0.002, 900);
        let s = Scenario::new().with_leak(leak);
        assert!(s.active_emitters(0).is_empty());
        assert!(s.active_emitters(899).is_empty());
        assert_eq!(s.active_emitters(900).len(), 1);
        assert_eq!(s.true_leak_nodes(900), vec![NodeId::from_index(3)]);
    }

    #[test]
    fn baseline_equivalence_tracks_leak_onset_and_overrides() {
        let s = Scenario::new().with_leak(LeakEvent::new(NodeId::from_index(3), 0.002, 900));
        assert!(s.is_baseline_at(0));
        assert!(s.is_baseline_at(899));
        assert!(!s.is_baseline_at(900));
        assert!(!s.clone().with_demand_scale(1.2).is_baseline_at(0));
        assert!(!s
            .with_link_status(LinkId::from_index(0), LinkStatus::Closed)
            .is_baseline_at(0));
    }

    #[test]
    fn concurrent_leaks_at_same_node_merge() {
        let n = NodeId::from_index(1);
        let s = Scenario::new()
            .with_leak(LeakEvent::new(n, 0.001, 0))
            .with_leak(LeakEvent::new(n, 0.002, 0));
        let e = s.active_emitters(0);
        assert!((e[&n].coefficient - 0.003).abs() < 1e-12);
    }

    #[test]
    fn multiple_concurrent_leaks_have_same_start() {
        // The paper studies concurrent failures: same start, different
        // locations/sizes.
        let s = Scenario::new().with_leaks([
            LeakEvent::new(NodeId::from_index(1), 0.001, 3600),
            LeakEvent::new(NodeId::from_index(5), 0.004, 3600),
        ]);
        assert_eq!(s.active_emitters(3600).len(), 2);
        assert_eq!(s.true_leak_nodes(3600).len(), 2);
    }

    #[test]
    fn last_link_override_wins() {
        let l = LinkId::from_index(2);
        let s = Scenario::new()
            .with_link_status(l, LinkStatus::Closed)
            .with_link_status(l, LinkStatus::Open);
        assert_eq!(s.link_status(l, LinkStatus::Closed), LinkStatus::Open);
        // Unrelated links keep their base status.
        assert_eq!(
            s.link_status(LinkId::from_index(9), LinkStatus::Open),
            LinkStatus::Open
        );
    }

    #[test]
    fn true_leak_nodes_dedup_and_sort() {
        let s = Scenario::new().with_leaks([
            LeakEvent::new(NodeId::from_index(5), 0.001, 0),
            LeakEvent::new(NodeId::from_index(2), 0.001, 0),
            LeakEvent::new(NodeId::from_index(5), 0.002, 0),
        ]);
        assert_eq!(
            s.true_leak_nodes(0),
            vec![NodeId::from_index(2), NodeId::from_index(5)]
        );
    }
}
