//! A minimal row-major feature matrix.

/// A dense row-major matrix of `f64` features (samples × features).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an empty matrix with `cols` columns, ready for `push_row`.
    pub fn with_cols(cols: usize) -> Self {
        Matrix {
            rows: 0,
            cols,
            data: Vec::new(),
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut m = Matrix::with_cols(cols);
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Builds a matrix from owned row vectors.
    pub fn from_vec_rows(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut m = Matrix::with_cols(cols);
        for row in &rows {
            m.push_row(row);
        }
        m
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows (samples).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Iterator over rows: `rows` slices, empty ones when `cols` is 0.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// A new matrix containing only the rows with the given indices
    /// (indices may repeat — used by bootstrap sampling).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::with_cols(self.cols);
        for &i in indices {
            m.push_row(self.row(i));
        }
        m
    }

    /// Column `j` copied into a vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Horizontally concatenates two matrices with equal row counts.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        let mut m = Matrix::with_cols(self.cols + other.cols);
        for i in 0..self.rows {
            let mut row = self.row(i).to_vec();
            row.extend_from_slice(other.row(i));
            m.push_row(&row);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::with_cols(3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1)[2], 6.0);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn wrong_row_length_panics() {
        let mut m = Matrix::with_cols(2);
        m.push_row(&[1.0]);
    }

    #[test]
    fn select_rows_supports_repeats() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.column(0), vec![3.0, 1.0, 3.0]);
    }

    #[test]
    fn hconcat_joins_features() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 11.0], &[20.0, 21.0]]);
        let c = a.hconcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(1), &[2.0, 20.0, 21.0]);
    }

    #[test]
    fn iter_rows_visits_all() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let sums: Vec<f64> = m.iter_rows().map(|r| r.iter().sum()).collect();
        assert_eq!(sums, vec![3.0, 7.0]);
    }

    #[test]
    fn iter_rows_yields_one_empty_row_per_row_without_columns() {
        let m = Matrix::zeros(3, 0);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[] as &[f64]; 3]);
    }
}
