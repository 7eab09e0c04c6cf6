//! Row-major dense `f64` matrix with the operations the NN crate needs.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major dense matrix of `f64`.
///
/// The matrices in this project are small (layer weights of lightweight
/// predictor networks), so the implementation favours clarity over blocked
/// or SIMD kernels; the inner matmul loop is still written in the
/// cache-friendly `ikj` order.
///
/// # Examples
///
/// ```
/// use schemble_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let i = Matrix::identity(2);
/// assert_eq!(a.matmul(&i), a);
/// assert_eq!(a.transpose()[(0, 1)], a[(1, 0)]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.cols == 0 || rhs.cols == 0 {
            return out;
        }
        // ikj order: the innermost loop walks contiguous memory in both
        // `rhs` and `out`, which matters even for the small matrices here.
        // Row slices carry their own bounds, so the loops check none.
        let rhs_rows = || rhs.data.chunks_exact(rhs.cols);
        for (a_row, out_row) in
            self.data.chunks_exact(self.cols).zip(out.data.chunks_exact_mut(rhs.cols))
        {
            for (&a, rhs_row) in a_row.iter().zip(rhs_rows()) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// `self + scale * rhs`, in place. The workhorse of the optimisers.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, scale: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += scale * b;
        }
    }

    /// Adds `bias` (a 1×cols row vector) to every row, in place; used by
    /// dense layers.
    ///
    /// # Panics
    /// Panics if `bias` is not `1 × self.cols`.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// Sum over rows, producing a 1×cols row vector (used for bias gradients).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Number of stored elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The triple loop `matmul` was before it walked row slices: the oracle
    /// the kernel must match bit for bit.
    fn matmul_by_index(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows, rhs.cols);
        for i in 0..lhs.rows {
            for k in 0..lhs.cols {
                let a = lhs.data[i * lhs.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.data[k * rhs.cols + j];
                }
            }
        }
        out
    }

    /// A `rows × cols` matrix whose entries are often `0.0` or `-0.0`.
    fn matrix_with_zeros(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        let entry = (0u8..4, -3.0f64..3.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            _ => x,
        });
        proptest::collection::vec(entry, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    proptest! {
        /// Shapes from empty through 1×n and n×1 up to 4×4.
        #[test]
        fn matmul_is_bitwise_the_indexed_triple_loop(
            operands in (0usize..5, 0usize..5, 0usize..5).prop_flat_map(|(n, k, m)| {
                (matrix_with_zeros(n, k), matrix_with_zeros(k, m))
            }),
        ) {
            let (a, b) = operands;
            let fast = a.matmul(&b);
            let slow = matmul_by_index(&a, &b);
            prop_assert_eq!(fast.shape(), slow.shape());
            let bits = |m: &Matrix| m.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r as f64) * 10.0 + c as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_every_row() {
        let mut out = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(&[1.0, -2.0]);
        out.add_row_broadcast(&bias);
        for r in 0..3 {
            assert_eq!(out[(r, 0)], 1.0);
            assert_eq!(out[(r, 1)], -2.0);
        }
    }

    #[test]
    fn sum_rows_reduces_to_row_vector() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = a.sum_rows();
        assert_eq!(s.shape(), (1, 2));
        assert_eq!(s[(0, 0)], 4.0);
        assert_eq!(s[(0, 1)], 6.0);
    }

    #[test]
    fn axpy_accumulates_scaled() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let g = Matrix::filled(2, 2, 2.0);
        a.axpy(-0.5, &g);
        assert_eq!(a, Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn frobenius_norm_of_unit_axes() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
