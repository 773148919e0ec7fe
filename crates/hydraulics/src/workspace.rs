//! Per-network solver state for repeated snapshot solves.
//!
//! Dataset generation (aqua-sensing) and extended-period simulation both
//! solve the *same* network hundreds of thousands of times with slightly
//! different boundary conditions. Three things dominate the cost of the
//! naive loop:
//!
//! 1. **Symbolic work per Newton iteration.** The GGA normal matrix has a
//!    fixed sparsity pattern (one row per junction, one off-diagonal per
//!    junction–junction link), so its CSR layout, its minimum-degree
//!    ordering and the pattern of its Cholesky factor never change.
//! 2. **Per-iteration pipe constants.** A Hazen–Williams pipe's resistance
//!    and minor-loss coefficients depend only on the pipe.
//! 3. **Cold Newton starts.** Consecutive solves differ by one leak or one
//!    15-minute demand step, so the previous solution is an excellent
//!    initial iterate — but the plain entry point starts every solve from
//!    the same synthetic guess.
//!
//! [`SolverWorkspace`] fixes all three: it caches the CSR structure with a
//! link→slot assembly map (each iteration scatters conductances straight
//! into the value array) and the [`SparseCholesky`] analysis (each
//! iteration refactors numerically and runs two triangular solves), caches
//! every pipe's Hazen–Williams coefficients, keeps every buffer alive
//! across solves, and threads a [`WarmStart`] from each converged solve
//! into the next.

use aqua_net::{LinkKind, Network, NodeId};

use crate::error::HydraulicError;
use crate::headloss::PipeCoeffs;
use crate::linalg::{SparseCholesky, SparseSym};
use crate::snapshot::Snapshot;

/// A converged solution used to seed the next solve's Newton iteration.
///
/// Indexed exactly like the network: `flows[i]` is link `i` (m³/s),
/// `heads[i]` is node `i` (m). A warm start whose lengths do not match the
/// network being solved is ignored rather than trusted.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Link flows, indexed by dense link id.
    pub flows: Vec<f64>,
    /// Node heads, indexed by dense node id.
    pub heads: Vec<f64>,
}

impl WarmStart {
    /// Captures a warm start from a converged snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        WarmStart {
            flows: snap.flows.clone(),
            heads: snap.heads.clone(),
        }
    }
}

/// Cached CSR slots for one link's conductance stencil: `+p` on each
/// endpoint's diagonal, `-p` on the two mirrored off-diagonals. `None`
/// where the endpoint is a fixed-head node (no matrix row).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkSlots {
    pub(crate) from_diag: Option<usize>,
    pub(crate) to_diag: Option<usize>,
    pub(crate) off: Option<(usize, usize)>,
}

/// Reusable per-network solver state: symbolic CSR structure, assembly slot
/// maps, the analyzed Cholesky factor, Hazen–Williams pipe coefficients,
/// per-iteration buffers and the warm-start chain. Create once per network
/// (per thread), then pass to
/// [`solve_snapshot_with`](crate::solve_snapshot_with) for every solve.
///
/// # Example
///
/// ```
/// use aqua_hydraulics::{solve_snapshot_with, Scenario, SolverOptions, SolverWorkspace};
/// use aqua_net::synth;
///
/// let net = synth::epa_net();
/// let mut ws = SolverWorkspace::new(&net);
/// let opts = SolverOptions::default();
/// let cold = solve_snapshot_with(&net, &Scenario::default(), 0, &opts, &mut ws).unwrap();
/// // The second solve warm-starts from the first and converges immediately.
/// let warm = solve_snapshot_with(&net, &Scenario::default(), 0, &opts, &mut ws).unwrap();
/// assert!(warm.iterations <= cold.iterations);
/// ```
#[derive(Debug, Clone)]
pub struct SolverWorkspace {
    pub(crate) n_nodes: usize,
    pub(crate) n_links: usize,
    /// Dense node id -> junction row (None for fixed-head nodes).
    pub(crate) row_of: Vec<Option<usize>>,
    /// Junction row -> node id.
    pub(crate) junctions: Vec<NodeId>,
    /// Per-link `(row(from), row(to))`, cached for right-hand-side assembly.
    pub(crate) link_rows: Vec<(Option<usize>, Option<usize>)>,
    /// Node elevations, cached for snapshot output.
    pub(crate) elevations: Vec<f64>,
    /// Per-link Hazen–Williams coefficients (zero for pumps and valves).
    pub(crate) hw_coeffs: Vec<PipeCoeffs>,

    /// Symbolic CSR pattern of the normal matrix, values rewritten in place
    /// each iteration.
    sparse: SparseSym,
    /// Per-link CSR slots (the triplet→slot assembly map).
    link_slots: Vec<LinkSlots>,
    /// Per-junction-row CSR slot of the diagonal entry.
    diag_slot: Vec<usize>,
    /// Minimum-degree ordering, factor pattern and CSR→L scatter map of
    /// `sparse`, refactored in place each iteration.
    factor: SparseCholesky,
    /// Junction heads from the last linear solve, by junction row.
    x: Vec<f64>,

    // Per-solve buffers (see solver.rs for their roles).
    pub(crate) p_link: Vec<f64>,
    pub(crate) s_link: Vec<f64>,
    pub(crate) rhs: Vec<f64>,
    pub(crate) emitter_diag: Vec<f64>,
    pub(crate) temp_closed: Vec<bool>,
    pub(crate) heads: Vec<f64>,
    pub(crate) flows: Vec<f64>,
    pub(crate) demands: Vec<f64>,

    warm: Option<WarmStart>,
}

impl SolverWorkspace {
    /// Builds the workspace for `net`: junction indexing, the symbolic CSR
    /// pattern, the link→slot assembly map, the minimum-degree ordering and
    /// Cholesky pattern, and the Hazen–Williams pipe coefficients. Paid once
    /// per network instead of once per Newton iteration.
    pub fn new(net: &Network) -> Self {
        let n_nodes = net.node_count();
        let n_links = net.link_count();

        let mut row_of: Vec<Option<usize>> = vec![None; n_nodes];
        let mut junctions: Vec<NodeId> = Vec::new();
        for (id, node) in net.iter_nodes() {
            if node.kind.is_junction() {
                row_of[id.index()] = Some(junctions.len());
                junctions.push(id);
            }
        }
        let n_junc = junctions.len();

        let link_rows: Vec<(Option<usize>, Option<usize>)> = net
            .links()
            .iter()
            .map(|link| (row_of[link.from.index()], row_of[link.to.index()]))
            .collect();

        let pairs: Vec<(usize, usize)> = link_rows
            .iter()
            .filter_map(|&(rf, rt)| match (rf, rt) {
                (Some(a), Some(b)) if a != b => Some((a, b)),
                _ => None,
            })
            .collect();
        let sparse = SparseSym::symbolic(n_junc, &pairs);
        let diag_slot: Vec<usize> = (0..n_junc)
            // audit: unwrap-ok(pattern is built with every diagonal slot)
            .map(|r| sparse.slot_of(r, r).expect("diagonal always in pattern"))
            .collect();
        let link_slots: Vec<LinkSlots> = link_rows
            .iter()
            .map(|&(rf, rt)| LinkSlots {
                from_diag: rf.map(|r| diag_slot[r]),
                to_diag: rt.map(|r| diag_slot[r]),
                off: match (rf, rt) {
                    (Some(a), Some(b)) if a != b => Some((
                        // audit: unwrap-ok(pattern is built from this same adjacency)
                        sparse.slot_of(a, b).expect("off-diagonal in pattern"),
                        // audit: unwrap-ok(pattern is symmetric by construction)
                        sparse.slot_of(b, a).expect("mirror in pattern"),
                    )),
                    _ => None,
                },
            })
            .collect();
        let factor = SparseCholesky::analyze(&sparse);

        SolverWorkspace {
            n_nodes,
            n_links,
            row_of,
            junctions,
            link_rows,
            elevations: net.nodes().iter().map(|n| n.elevation).collect(),
            hw_coeffs: net
                .links()
                .iter()
                .map(|link| match &link.kind {
                    LinkKind::Pipe(pipe) => PipeCoeffs::hazen_williams(pipe),
                    _ => PipeCoeffs::default(),
                })
                .collect(),
            sparse,
            link_slots,
            diag_slot,
            factor,
            x: vec![0.0; n_junc],
            p_link: vec![0.0; n_links],
            s_link: vec![0.0; n_links],
            rhs: vec![0.0; n_junc],
            emitter_diag: vec![0.0; n_junc],
            temp_closed: vec![false; n_links],
            heads: vec![0.0; n_nodes],
            flows: vec![0.0; n_links],
            demands: vec![0.0; n_nodes],
            warm: None,
        }
    }

    /// Number of junction rows in the linear system.
    pub fn junction_count(&self) -> usize {
        self.junctions.len()
    }

    /// The minimum-degree elimination order of the junction rows (entry
    /// `k` is the row eliminated `k`-th), a pure function of the network.
    pub fn ordering(&self) -> &[usize] {
        self.factor.permutation()
    }

    /// The warm start that will seed the next solve, if any.
    pub fn warm_start(&self) -> Option<&WarmStart> {
        self.warm.as_ref()
    }

    /// Seeds the next solve from `warm` (e.g. a cached baseline snapshot).
    pub fn set_warm_start(&mut self, warm: WarmStart) {
        self.warm = Some(warm);
    }

    /// Discards the warm start; the next solve runs cold.
    pub fn clear_warm_start(&mut self) {
        self.warm = None;
    }

    /// True when the stored warm start matches this network's dimensions.
    pub(crate) fn warm_is_usable(&self) -> bool {
        self.warm
            .as_ref()
            .is_some_and(|w| w.flows.len() == self.n_links && w.heads.len() == self.n_nodes)
    }

    /// Copies the warm start into the working `flows`/`heads` buffers.
    /// Caller must have checked [`Self::warm_is_usable`].
    pub(crate) fn load_warm(&mut self) {
        // audit: unwrap-ok(warm is Some: populate() ran before this branch)
        let warm = self.warm.as_ref().expect("checked by caller");
        self.flows.clone_from(&warm.flows);
        for &j in &self.junctions {
            self.heads[j.index()] = warm.heads[j.index()];
        }
    }

    /// Records the converged `flows`/`heads` as the next solve's warm
    /// start, reusing the existing allocation when possible.
    pub(crate) fn store_warm(&mut self) {
        match &mut self.warm {
            Some(w) => {
                w.flows.clone_from(&self.flows);
                w.heads.clone_from(&self.heads);
            }
            None => {
                self.warm = Some(WarmStart {
                    flows: self.flows.clone(),
                    heads: self.heads.clone(),
                });
            }
        }
    }

    /// Assembles the normal matrix from `emitter_diag` + `p_link` through
    /// the cached slot maps, refactors it and solves it against `rhs`,
    /// scattering the junction heads back into `heads`. Allocation-free.
    pub(crate) fn solve_linear_into_heads(&mut self) -> Result<(), HydraulicError> {
        self.sparse.reset_values();
        for (row, &d) in self.emitter_diag.iter().enumerate() {
            if d != 0.0 {
                self.sparse.add_at(self.diag_slot[row], d);
            }
        }
        for (li, slots) in self.link_slots.iter().enumerate() {
            let p = self.p_link[li];
            if let Some(s) = slots.from_diag {
                self.sparse.add_at(s, p);
            }
            if let Some(s) = slots.to_diag {
                self.sparse.add_at(s, p);
            }
            if let Some((ab, ba)) = slots.off {
                self.sparse.add_at(ab, -p);
                self.sparse.add_at(ba, -p);
            }
        }
        if !self.factor.factor(&self.sparse) {
            return Err(HydraulicError::LinearSolveFailed {
                detail: "normal matrix not positive definite (isolated junction?)",
            });
        }
        self.factor.solve_into(&self.rhs, &mut self.x);
        if self.x.iter().any(|h| !h.is_finite()) {
            return Err(HydraulicError::NumericalBlowup);
        }
        for (row, &j) in self.junctions.iter().enumerate() {
            self.heads[j.index()] = self.x[row];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LeakEvent, Scenario};
    use crate::solver::{solve_snapshot, solve_snapshot_with, SolverOptions};

    #[test]
    fn workspace_indexing_matches_network() {
        let net = aqua_net::synth::epa_net();
        let ws = SolverWorkspace::new(&net);
        assert_eq!(ws.junction_count(), net.junction_ids().len());
        // Every junction row round-trips through row_of.
        for (row, &j) in ws.junctions.iter().enumerate() {
            assert_eq!(ws.row_of[j.index()], Some(row));
        }
    }

    #[test]
    fn wssc_factor_is_analyzed_once_and_stays_sparse() {
        let net = aqua_net::synth::wssc_subnet();
        let ws = SolverWorkspace::new(&net);
        assert_eq!(ws.junction_count(), 298);
        // 317 strict-lower matrix entries plus minimum-degree fill, against
        // 298·297/2 = 44,253 for a dense factor.
        assert_eq!(ws.factor.factor_nnz(), 426);
        assert_eq!(ws.ordering(), SolverWorkspace::new(&net).ordering());
        let mut rows = ws.ordering().to_vec();
        rows.sort_unstable();
        assert!(rows.iter().copied().eq(0..298));
    }

    #[test]
    fn warm_solve_matches_cold_solve() {
        let net = aqua_net::synth::epa_net();
        let opts = SolverOptions::default();
        let scenario = Scenario::new().with_leak(LeakEvent::new(net.junction_ids()[20], 0.004, 0));
        let cold = solve_snapshot(&net, &scenario, 0, &opts).unwrap();

        let mut ws = SolverWorkspace::new(&net);
        // Prime the warm chain with the no-leak baseline, then solve the
        // leak scenario warm.
        solve_snapshot_with(&net, &Scenario::default(), 0, &opts, &mut ws).unwrap();
        assert!(ws.warm_start().is_some());
        let warm = solve_snapshot_with(&net, &scenario, 0, &opts, &mut ws).unwrap();

        for (a, b) in cold.heads.iter().zip(&warm.heads) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in cold.flows.iter().zip(&warm.flows) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn warm_start_rejected_on_dimension_mismatch() {
        let net = aqua_net::synth::epa_net();
        let mut ws = SolverWorkspace::new(&net);
        ws.set_warm_start(WarmStart {
            flows: vec![0.0; 3],
            heads: vec![0.0; 3],
        });
        assert!(!ws.warm_is_usable());
        // The solve still succeeds, running cold.
        let snap = solve_snapshot_with(
            &net,
            &Scenario::default(),
            0,
            &SolverOptions::default(),
            &mut ws,
        )
        .unwrap();
        assert!(snap.heads.iter().all(|h| h.is_finite()));
    }

    #[test]
    fn clear_warm_start_forces_cold_iteration_count() {
        let net = aqua_net::synth::epa_net();
        let opts = SolverOptions::default();
        let mut ws = SolverWorkspace::new(&net);
        let first = solve_snapshot_with(&net, &Scenario::default(), 0, &opts, &mut ws).unwrap();
        ws.clear_warm_start();
        let second = solve_snapshot_with(&net, &Scenario::default(), 0, &opts, &mut ws).unwrap();
        assert_eq!(first.iterations, second.iterations);
        assert_eq!(first.heads, second.heads);
    }
}
