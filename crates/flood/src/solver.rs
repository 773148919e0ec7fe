//! Local-inertial finite-volume shallow-water solver.
//!
//! The standard raster reduction of the Godunov shallow-water schemes used
//! by BreZo-class flood models (Bates, Horritt & Fewtrell 2010): per cell
//! face, the momentum equation keeps only the local acceleration, gravity
//! and Manning friction terms; depths update by finite-volume divergence.
//! Explicit stepping under a CFL condition `Δt = α·Δx/√(g·h_max)`.

use aqua_hydraulics::Snapshot;
use aqua_net::Network;

use crate::dem::Dem;

const GRAVITY: f64 = 9.81;
/// Depths below this are treated as dry (meters).
const DRY: f64 = 1e-5;

/// A continuous water inflow at a world coordinate (a surfacing leak).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSource {
    /// World x, meters.
    pub x: f64,
    /// World y, meters.
    pub y: f64,
    /// Inflow, m³/s.
    pub flow_m3s: f64,
}

/// Converts the emitter outflows of a hydraulic snapshot into flood point
/// sources — the paper's coupling: "we use (1) to calculate the outflow
/// rate based on pressure readings, which is then input into BreZo".
pub fn leak_sources_from_snapshot(net: &Network, snapshot: &Snapshot) -> Vec<PointSource> {
    net.iter_nodes()
        .filter_map(|(id, node)| {
            let q = snapshot.emitter_flow(id);
            (q > 0.0).then_some(PointSource {
                x: node.x,
                y: node.y,
                flow_m3s: q,
            })
        })
        .collect()
}

/// Summary of a flood run.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodResult {
    /// Simulated seconds.
    pub simulated_s: f64,
    /// Number of explicit steps taken.
    pub steps: usize,
    /// Maximum water depth anywhere, meters.
    pub max_depth: f64,
    /// Number of wet cells (depth > 1 cm).
    pub wet_cells: usize,
    /// Total ponded volume, m³.
    pub volume: f64,
}

/// The flood simulation state.
#[derive(Debug, Clone)]
pub struct FloodSim {
    dem: Dem,
    /// Manning roughness (s/m^⅓); ~0.05 for grassy/urban mixed surfaces.
    pub manning: f64,
    /// CFL safety factor in (0, 1].
    pub cfl: f64,
    h: Vec<f64>,
    qx: Vec<f64>, // unit discharge m²/s at faces between (i,j) and (i+1,j)
    qy: Vec<f64>, // faces between (i,j) and (i,j+1)
}

impl FloodSim {
    /// Creates a dry-bed simulation over `dem`.
    pub fn new(dem: Dem) -> Self {
        let n = dem.nx() * dem.ny();
        FloodSim {
            h: vec![0.0; n],
            qx: vec![0.0; n],
            qy: vec![0.0; n],
            manning: 0.05,
            cfl: 0.7,
            dem,
        }
    }

    /// The DEM under the water.
    pub fn dem(&self) -> &Dem {
        &self.dem
    }

    /// Water depth at cell `(i, j)`, meters.
    pub fn depth(&self, i: usize, j: usize) -> f64 {
        self.h[self.dem.index(i, j)]
    }

    /// Depth at world coordinates, 0 outside the grid.
    pub fn depth_at(&self, x: f64, y: f64) -> f64 {
        self.dem
            .cell_of(x, y)
            .map(|(i, j)| self.depth(i, j))
            .unwrap_or(0.0)
    }

    /// Full depth field (row-major, `ny × nx`).
    pub fn depths(&self) -> &[f64] {
        &self.h
    }

    /// Total ponded volume, m³.
    pub fn volume(&self) -> f64 {
        let a = self.dem.cell_size() * self.dem.cell_size();
        self.h.iter().sum::<f64>() * a
    }

    /// Advances one explicit step; returns the Δt used.
    pub fn step(&mut self, sources: &[PointSource]) -> f64 {
        let (nx, ny, dx) = (self.dem.nx(), self.dem.ny(), self.dem.cell_size());
        let h_max = self.h.iter().cloned().fold(0.0, f64::max);
        let dt = self.cfl * dx / (GRAVITY * (h_max.max(0.05))).sqrt();

        // Momentum update on interior faces (local-inertial form).
        for j in 0..ny {
            for i in 0..nx - 1 {
                let l = self.dem.index(i, j);
                let r = self.dem.index(i + 1, j);
                let idx = l;
                self.qx[idx] = face_flux(
                    self.qx[idx],
                    self.dem.z(i, j),
                    self.dem.z(i + 1, j),
                    self.h[l],
                    self.h[r],
                    dx,
                    dt,
                    self.manning,
                );
            }
        }
        for j in 0..ny - 1 {
            for i in 0..nx {
                let l = self.dem.index(i, j);
                let r = self.dem.index(i, j + 1);
                let idx = l;
                self.qy[idx] = face_flux(
                    self.qy[idx],
                    self.dem.z(i, j),
                    self.dem.z(i, j + 1),
                    self.h[l],
                    self.h[r],
                    dx,
                    dt,
                    self.manning,
                );
            }
        }

        // Continuity update.
        for j in 0..ny {
            for i in 0..nx {
                let c = self.dem.index(i, j);
                let qx_in = if i > 0 {
                    self.qx[self.dem.index(i - 1, j)]
                } else {
                    0.0
                };
                let qx_out = if i < nx - 1 { self.qx[c] } else { 0.0 };
                let qy_in = if j > 0 {
                    self.qy[self.dem.index(i, j - 1)]
                } else {
                    0.0
                };
                let qy_out = if j < ny - 1 { self.qy[c] } else { 0.0 };
                self.h[c] += dt * (qx_in - qx_out + qy_in - qy_out) / dx;
            }
        }
        // Sources: volume spread into the containing cell.
        let area = dx * dx;
        for s in sources {
            if let Some((i, j)) = self.dem.cell_of(s.x, s.y) {
                self.h[self.dem.index(i, j)] += s.flow_m3s * dt / area;
            }
        }
        // Numerical dryness guard (tiny negatives from explicit stepping).
        for h in &mut self.h {
            if *h < 0.0 {
                *h = 0.0;
            }
        }
        dt
    }

    /// Runs until `duration_s` simulated seconds have elapsed.
    pub fn run(&mut self, sources: &[PointSource], duration_s: f64) -> FloodResult {
        let mut t = 0.0;
        let mut steps = 0;
        while t < duration_s {
            t += self.step(sources);
            steps += 1;
        }
        let max_depth = self.h.iter().cloned().fold(0.0, f64::max);
        let wet_cells = self.h.iter().filter(|&&h| h > 0.01).count();
        FloodResult {
            simulated_s: t,
            steps,
            max_depth,
            wet_cells,
            volume: self.volume(),
        }
    }
}

/// Local-inertial face update (Bates et al. 2010, eq. 11).
#[allow(clippy::too_many_arguments)]
fn face_flux(
    q: f64,
    z_l: f64,
    z_r: f64,
    h_l: f64,
    h_r: f64,
    dx: f64,
    dt: f64,
    manning: f64,
) -> f64 {
    // Effective flow depth at the face.
    let eta_l = z_l + h_l;
    let eta_r = z_r + h_r;
    let hf = eta_l.max(eta_r) - z_l.max(z_r);
    if hf <= DRY {
        return 0.0;
    }
    let slope = (eta_l - eta_r) / dx;
    let q_new = (q + GRAVITY * hf * dt * slope)
        / (1.0 + GRAVITY * dt * manning * manning * q.abs() / hf.powf(7.0 / 3.0));
    // Limit outflux so a face cannot drain more than the upstream cell
    // holds in one step (positivity preservation).
    let h_up = if q_new > 0.0 { h_l } else { h_r };
    let q_cap = h_up * dx / (4.0 * dt).max(1e-9);
    q_new.clamp(-q_cap, q_cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bowl: high rim, low center.
    fn bowl_dem(n: usize) -> Dem {
        let mut z = Vec::with_capacity(n * n);
        let c = (n as f64 - 1.0) / 2.0;
        for j in 0..n {
            for i in 0..n {
                let d = ((i as f64 - c).powi(2) + (j as f64 - c).powi(2)).sqrt();
                z.push(d); // 1 m per cell of slope toward the center
            }
        }
        Dem::from_grid(n, n, 10.0, z)
    }

    #[test]
    fn still_water_in_a_bowl_stays_still() {
        let dem = bowl_dem(9);
        let mut sim = FloodSim::new(dem);
        // No water, no sources: nothing should change.
        for _ in 0..20 {
            sim.step(&[]);
        }
        assert_eq!(sim.volume(), 0.0);
    }

    #[test]
    fn source_volume_is_conserved_in_a_bowl() {
        let dem = bowl_dem(11);
        let mut sim = FloodSim::new(dem);
        let src = [PointSource {
            x: 55.0,
            y: 55.0,
            flow_m3s: 2.0,
        }];
        let result = sim.run(&src, 120.0);
        let expected = 2.0 * result.simulated_s;
        assert!(
            (result.volume - expected).abs() / expected < 1e-6,
            "volume {} expected {expected}",
            result.volume
        );
    }

    #[test]
    fn water_flows_downhill_to_the_bowl_center() {
        let dem = bowl_dem(11);
        let mut sim = FloodSim::new(dem);
        // Source at an off-center cell; water must accumulate at the center.
        let src = [PointSource {
            x: 25.0,
            y: 55.0,
            flow_m3s: 1.0,
        }];
        sim.run(&src, 600.0);
        let center = sim.depth(5, 5);
        let rim = sim.depth(0, 0);
        assert!(center > 0.05, "center depth {center}");
        assert!(center > rim, "center {center} rim {rim}");
    }

    #[test]
    fn depths_never_negative() {
        let dem = bowl_dem(9);
        let mut sim = FloodSim::new(dem);
        let src = [PointSource {
            x: 45.0,
            y: 45.0,
            flow_m3s: 5.0,
        }];
        sim.run(&src, 200.0);
        assert!(sim.depths().iter().all(|&h| h >= 0.0));
    }

    #[test]
    fn larger_leak_floods_deeper() {
        let dem = bowl_dem(11);
        let mut small = FloodSim::new(dem.clone());
        let mut large = FloodSim::new(dem);
        let at = |q| {
            [PointSource {
                x: 55.0,
                y: 55.0,
                flow_m3s: q,
            }]
        };
        let rs = small.run(&at(0.2), 300.0);
        let rl = large.run(&at(2.0), 300.0);
        assert!(rl.max_depth > rs.max_depth);
        assert!(rl.wet_cells >= rs.wet_cells);
    }

    #[test]
    fn source_outside_grid_is_ignored() {
        let dem = bowl_dem(9);
        let mut sim = FloodSim::new(dem);
        let result = sim.run(
            &[PointSource {
                x: -500.0,
                y: -500.0,
                flow_m3s: 3.0,
            }],
            60.0,
        );
        assert_eq!(result.volume, 0.0);
    }

    #[test]
    fn leak_sources_extracted_from_snapshot() {
        use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
        let net = aqua_net::synth::epa_net();
        let j = net.junction_ids()[20];
        let scenario = Scenario::new().with_leak(LeakEvent::new(j, 0.01, 0));
        let snap = solve_snapshot(&net, &scenario, 0, &SolverOptions::default()).unwrap();
        let sources = leak_sources_from_snapshot(&net, &snap);
        assert_eq!(sources.len(), 1);
        assert!((sources[0].x - net.node(j).x).abs() < 1e-9);
        assert!(sources[0].flow_m3s > 0.0);
    }
}
