//! Property-based tests on the hydraulic engine: invariants that must hold
//! for arbitrary networks and failure scenarios.

use aquascale::hydraulics::linalg::{DenseSpd, SparseCholesky, SparseSym};
use aquascale::hydraulics::{
    solve_snapshot, solve_snapshot_recovering, HydraulicError, LeakEvent, Scenario, SolverOptions,
    SolverWorkspace,
};
use aquascale::net::synth::GridNetworkBuilder;
use proptest::prelude::*;

fn arbitrary_grid() -> impl Strategy<Value = (aquascale::net::Network, u64)> {
    (2usize..6, 2usize..6, 0usize..4, 0u64..1000).prop_map(|(cols, rows, loops, seed)| {
        let max_loops = (cols - 1) * (rows - 1);
        let grid = GridNetworkBuilder::new("prop")
            .columns(cols)
            .rows(rows)
            .loop_edges(loops.min(max_loops))
            .seed(seed)
            .build();
        let mut net = grid.network;
        // Attach a reservoir feeding the first junction so the system is
        // solvable.
        let inlet = grid.junctions[0];
        let head = net
            .nodes()
            .iter()
            .map(|n| n.elevation)
            .fold(f64::NEG_INFINITY, f64::max)
            + 60.0;
        let r = net.add_reservoir("SRC", head, (-500.0, 0.0)).unwrap();
        net.add_pipe("MAIN", r, inlet, 300.0, 0.5, 130.0).unwrap();
        (net, seed)
    })
}

/// The GGA normal matrix of `net`'s junction rows with random link
/// conductances: log-uniform over the solver's clamps, with every fifth
/// link closed (exactly 1e-8) and every seventh at the 1e8 cap, plus
/// emitter derivatives on a third of the diagonal. Returns the matrix as
/// the sparse pattern the solver factors and as the dense oracle.
fn random_normal_matrix(
    net: &aquascale::net::Network,
    seed: u64,
    exponents: &[f64],
    emitters: &[f64],
) -> (SparseSym, DenseSpd) {
    let mut row_of = vec![None; net.node_count()];
    for (row, id) in net.junction_ids().into_iter().enumerate() {
        row_of[id.index()] = Some(row);
    }
    let n = net.junction_ids().len();
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for (li, link) in net.links().iter().enumerate() {
        let p = match (li as u64 + seed) % 35 {
            k if k.is_multiple_of(5) => 1e-8,
            k if k.is_multiple_of(7) => 1e8,
            _ => 10f64.powf(exponents[li % exponents.len()]),
        };
        let (rf, rt) = (row_of[link.from.index()], row_of[link.to.index()]);
        for r in [rf, rt].into_iter().flatten() {
            entries.push((r, r, p));
        }
        if let (Some(a), Some(b)) = (rf, rt) {
            entries.push((a, b, -p));
        }
    }
    for row in 0..n {
        if (row as u64 + seed).is_multiple_of(3) {
            entries.push((row, row, emitters[row % emitters.len()]));
        }
    }
    let pairs: Vec<(usize, usize)> = entries.iter().map(|&(i, j, _)| (i, j)).collect();
    let mut sparse = SparseSym::symbolic(n, &pairs);
    let mut dense = DenseSpd::zeros(n);
    for &(i, j, v) in &entries {
        sparse.add_at(sparse.slot_of(i, j).unwrap(), v);
        if i != j {
            sparse.add_at(sparse.slot_of(j, i).unwrap(), v);
        }
        dense.add_sym(i, j, v);
    }
    (sparse, dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mass balance holds at every junction of every random grid network.
    #[test]
    fn mass_balance_on_random_networks((net, _seed) in arbitrary_grid()) {
        let snap = solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default())
            .expect("random grid must solve");
        prop_assert!(snap.max_mass_residual(&net) < 1e-5);
        for h in &snap.heads {
            prop_assert!(h.is_finite());
        }
    }

    /// The GGA's sparse Cholesky (minimum-degree ordering, numeric factor,
    /// two triangular solves) equals the dense Cholesky oracle to a
    /// relative 1e-9 on random network patterns, across both conductance
    /// clamps and with emitter terms; a non-positive pivot fails the
    /// factorization and the solve (`LinearSolveFailed`, no heads), and the
    /// ordering is a pure function of the network.
    #[test]
    fn sparse_cholesky_matches_dense_oracle_on_random_networks(
        (net, seed) in arbitrary_grid(),
        exponents in prop::collection::vec(-8.0f64..8.0, 64),
        emitters in prop::collection::vec(1e-6f64..1e-1, 16),
    ) {
        let (mut sparse, dense) = random_normal_matrix(&net, seed, &exponents, &emitters);
        let n = sparse.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i as u64 * 7 + seed) % 11) as f64 - 5.0).collect();
        let mut chol = SparseCholesky::analyze(&sparse);
        // The oracle eliminates in the same order. Across a 1e16 spread of
        // conductances, two elimination orders may round apart by ε·κ with
        // κ near 1/ε, so only a same-order oracle pins the sparse
        // arithmetic down.
        let perm = chol.permutation().to_vec();
        let mut permuted = DenseSpd::zeros(n);
        for (k, &r) in perm.iter().enumerate() {
            for (m, &c) in perm.iter().enumerate().take(k + 1) {
                permuted.add_sym(k, m, dense.get(r, c));
            }
        }
        let pb: Vec<f64> = perm.iter().map(|&r| b[r]).collect();
        let oracle = permuted.solve(&pb);
        prop_assert_eq!(chol.factor(&sparse), oracle.is_some());
        if let Some(oracle) = oracle {
            let mut x = vec![0.0; n];
            chol.solve_into(&b, &mut x);
            let scale = oracle.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (k, &r) in perm.iter().enumerate() {
                prop_assert!((x[r] - oracle[k]).abs() <= 1e-9 * scale, "sparse {} dense {}", x[r], oracle[k]);
            }
            // Independently of any ordering, x solves the original system
            // to a normwise backward error far below the oracle tolerance.
            let (mut residual, mut a_norm) = (0.0f64, 0.0f64);
            for (i, bi) in b.iter().enumerate() {
                let row: Vec<f64> = (0..n).map(|j| dense.get(i, j)).collect();
                let ax: f64 = row.iter().zip(&x).map(|(a, x)| a * x).sum();
                residual = residual.max((ax - bi).abs());
                a_norm = a_norm.max(row.iter().map(|a| a.abs()).sum());
            }
            let x_norm = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            prop_assert!(residual <= 1e-12 * (a_norm * x_norm + 5.0), "residual {}", residual);
        }

        // A negative diagonal entry makes the matrix indefinite: its row's
        // pivot can only fall further, so factoring must fail.
        let bad_row = seed as usize % n;
        sparse.add_at(sparse.slot_of(bad_row, bad_row).unwrap(), -2.0 * sparse.get(bad_row, bad_row) - 1.0);
        prop_assert!(!chol.factor(&sparse));

        // An isolated junction is a zero row: the solve reports the failed
        // pivot instead of returning heads, and the recovery ladder does
        // not retry it.
        let mut isolated = net.clone();
        isolated.add_junction("ISLAND", 0.0, 0.01, (-900.0, -900.0)).unwrap();
        let opts = SolverOptions::default();
        let plain = solve_snapshot(&isolated, &Scenario::default(), 0, &opts);
        prop_assert!(matches!(plain, Err(HydraulicError::LinearSolveFailed { .. })), "{:?}", plain);
        let mut ws = SolverWorkspace::new(&isolated);
        let laddered = solve_snapshot_recovering(&isolated, &Scenario::default(), 0, &opts, &mut ws);
        prop_assert!(matches!(laddered, Err(HydraulicError::LinearSolveFailed { .. })));

        // Deterministic ordering: a permutation of the junction rows, the
        // same for every workspace built on the network.
        let ordering = SolverWorkspace::new(&net).ordering().to_vec();
        prop_assert_eq!(&ordering, &SolverWorkspace::new(&net).ordering().to_vec());
        prop_assert_eq!(&ordering, &chol.permutation().to_vec());
        let mut rows = ordering.clone();
        rows.sort_unstable();
        prop_assert!(rows.iter().copied().eq(0..n));
    }

    /// A leak always reduces (or preserves) pressure at the leaky node and
    /// increases total inflow from the source.
    #[test]
    fn leaks_depress_pressure_and_raise_inflow(
        (net, seed) in arbitrary_grid(),
        ec in 0.001f64..0.02,
    ) {
        let junctions = net.junction_ids();
        let leak_node = junctions[(seed as usize) % junctions.len()];
        let base = solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
        let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, ec, 0));
        let leaked = solve_snapshot(&net, &scenario, 0, &SolverOptions::default()).unwrap();
        prop_assert!(leaked.pressure(leak_node) <= base.pressure(leak_node) + 1e-9);
        let main = net.link_by_name("MAIN").unwrap();
        prop_assert!(leaked.flow(main) >= base.flow(main) - 1e-9);
        // Emitter law holds at the solution.
        let p = leaked.pressure(leak_node);
        if p > 0.0 {
            let expected = ec * p.sqrt();
            prop_assert!((leaked.emitter_flow(leak_node) - expected).abs() < 1e-9);
        }
    }

    /// Larger leak coefficients discharge at least as much water.
    #[test]
    fn leak_flow_is_monotone_in_coefficient((net, seed) in arbitrary_grid()) {
        let junctions = net.junction_ids();
        let leak_node = junctions[(seed as usize) % junctions.len()];
        let mut prev = 0.0;
        for ec in [0.002, 0.006, 0.012, 0.02] {
            let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, ec, 0));
            let snap = solve_snapshot(&net, &scenario, 0, &SolverOptions::default()).unwrap();
            let q = snap.emitter_flow(leak_node);
            prop_assert!(q >= prev - 1e-9, "EC {} gave {} after {}", ec, q, prev);
            prev = q;
        }
    }
}
