//! Digital elevation model interpolated from network node elevations.

use aqua_net::Network;

/// A raster digital elevation model over the network's bounding box.
///
/// Cells are square; elevations are interpolated from the scattered node
/// elevations by inverse-distance weighting (IDW, power 2), the standard
/// lightweight scheme for sparse control points.
#[derive(Debug, Clone, PartialEq)]
pub struct Dem {
    nx: usize,
    ny: usize,
    cell: f64,
    x0: f64,
    y0: f64,
    z: Vec<f64>,
}

impl Dem {
    /// Builds an `nx × ny` DEM covering `net`'s bounding box (plus one cell
    /// of margin) from its node elevations.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 2×2 or the network is empty.
    pub fn from_network(net: &Network, nx: usize, ny: usize) -> Self {
        assert!(nx >= 2 && ny >= 2, "DEM needs at least 2x2 cells");
        assert!(net.node_count() > 0, "network has no nodes");
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
        // One cell of margin on each side: nx·cell must span the bounding
        // box plus 2 cells, so cell = span / (n − 2).
        let cell = ((max_x - min_x) / (nx as f64 - 2.0))
            .max((max_y - min_y) / (ny as f64 - 2.0))
            .max(1.0);
        let x0 = min_x - cell;
        let y0 = min_y - cell;

        let points: Vec<(f64, f64, f64)> = net
            .nodes()
            .iter()
            .map(|n| (n.x, n.y, n.elevation))
            .collect();
        let mut z = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                let cx = x0 + (i as f64 + 0.5) * cell;
                let cy = y0 + (j as f64 + 0.5) * cell;
                z.push(idw(&points, cx, cy));
            }
        }
        Dem {
            nx,
            ny,
            cell,
            x0,
            y0,
            z,
        }
    }

    /// Builds a DEM from an explicit elevation grid (tests, synthetic
    /// terrain).
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != nx * ny` or the grid is degenerate.
    pub fn from_grid(nx: usize, ny: usize, cell: f64, z: Vec<f64>) -> Self {
        assert!(nx >= 2 && ny >= 2, "DEM needs at least 2x2 cells");
        assert_eq!(z.len(), nx * ny, "elevation grid size mismatch");
        assert!(cell > 0.0, "cell size must be positive");
        Dem {
            nx,
            ny,
            cell,
            x0: 0.0,
            y0: 0.0,
            z,
        }
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell edge length, meters.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Ground elevation of cell `(i, j)`, meters.
    pub fn z(&self, i: usize, j: usize) -> f64 {
        self.z[j * self.nx + i]
    }

    /// Flat index of cell `(i, j)`.
    pub fn index(&self, i: usize, j: usize) -> usize {
        j * self.nx + i
    }

    /// The cell containing world coordinates `(x, y)`, or `None` outside
    /// the grid.
    pub fn cell_of(&self, x: f64, y: f64) -> Option<(usize, usize)> {
        let i = ((x - self.x0) / self.cell).floor();
        let j = ((y - self.y0) / self.cell).floor();
        if i < 0.0 || j < 0.0 {
            return None;
        }
        let (i, j) = (i as usize, j as usize);
        (i < self.nx && j < self.ny).then_some((i, j))
    }

    /// Minimum and maximum ground elevation.
    pub fn elevation_range(&self) -> (f64, f64) {
        let lo = self.z.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = self.z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }
}

/// Inverse-distance-weighted interpolation (power 2) with exact hits.
fn idw(points: &[(f64, f64, f64)], x: f64, y: f64) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(px, py, pz) in points {
        let d2 = (px - x) * (px - x) + (py - y) * (py - y);
        if d2 < 1e-6 {
            return pz;
        }
        let w = 1.0 / d2;
        num += w * pz;
        den += w;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_net::synth;

    #[test]
    fn dem_covers_network_and_interpolates_within_range() {
        let net = synth::wssc_subnet();
        let dem = Dem::from_network(&net, 30, 20);
        let node_lo = net
            .nodes()
            .iter()
            .map(|n| n.elevation)
            .fold(f64::INFINITY, f64::min);
        let node_hi = net
            .nodes()
            .iter()
            .map(|n| n.elevation)
            .fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = dem.elevation_range();
        // IDW never extrapolates beyond the data range.
        assert!(lo >= node_lo - 1e-9 && hi <= node_hi + 1e-9);
        // Every node falls inside some cell.
        for n in net.nodes() {
            assert!(dem.cell_of(n.x, n.y).is_some(), "node outside DEM");
        }
    }

    #[test]
    fn idw_is_exact_at_control_points() {
        let pts = [(0.0, 0.0, 10.0), (100.0, 0.0, 20.0)];
        assert_eq!(idw(&pts, 0.0, 0.0), 10.0);
        assert_eq!(idw(&pts, 100.0, 0.0), 20.0);
        let mid = idw(&pts, 50.0, 0.0);
        assert!((mid - 15.0).abs() < 1e-9, "symmetric midpoint {mid}");
    }

    #[test]
    fn cell_of_rejects_outside_points() {
        let dem = Dem::from_grid(4, 4, 10.0, vec![0.0; 16]);
        assert_eq!(dem.cell_of(5.0, 5.0), Some((0, 0)));
        assert_eq!(dem.cell_of(35.0, 35.0), Some((3, 3)));
        assert_eq!(dem.cell_of(-1.0, 5.0), None);
        assert_eq!(dem.cell_of(41.0, 5.0), None);
    }

    #[test]
    fn from_grid_round_trips_elevations() {
        let z: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let dem = Dem::from_grid(4, 3, 5.0, z);
        assert_eq!(dem.z(0, 0), 0.0);
        assert_eq!(dem.z(3, 2), 11.0);
        assert_eq!(dem.index(1, 2), 9);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_grid_size_panics() {
        let _ = Dem::from_grid(4, 4, 1.0, vec![0.0; 10]);
    }
}
