//! Row-major dense `f64` matrix with the operations the NN crate needs.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major dense matrix of `f64`.
///
/// The matrices in this project are small (layer weights of lightweight
/// predictor networks). Every product goes through one register-tiled
/// kernel, [`gemm`], which reads either operand transposed in place.
///
/// # Examples
///
/// ```
/// use schemble_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let i = Matrix::identity(2);
/// assert_eq!(a.matmul(&i), a);
/// ```
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Copies `source` into `self`, reusing `self`'s allocation when it is
    /// large enough: the training loop's caches are refilled this way.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
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

    /// Builds a matrix of `cols` columns by copying each of `rows` in turn;
    /// see [`Matrix::fill_rows`].
    pub fn from_rows<'a>(cols: usize, rows: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let mut out = Self::zeros(0, cols);
        out.fill_rows(cols, rows);
        out
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

    /// Makes this a `rows × cols` matrix of zeros, reusing its allocation
    /// when it is large enough.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes this a matrix of `cols` columns holding each of `rows` in turn,
    /// reusing its allocation when it is large enough.
    ///
    /// # Panics
    /// Panics if a row is not `cols` long.
    pub fn fill_rows<'a>(&mut self, cols: usize, rows: impl IntoIterator<Item = &'a [f64]>) {
        self.rows = 0;
        self.cols = cols;
        self.data.clear();
        for row in rows {
            assert_eq!(row.len(), cols, "row of {} values in a {cols}-column matrix", row.len());
            self.data.extend_from_slice(row);
            self.rows += 1;
        }
    }

    /// Matrix product `self * rhs`: [`gemm`] into a zeroed matrix.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm(Layout::Plain, self, rhs, &mut out.data);
        out
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

/// How [`gemm`] reads its operands. Both are row-major [`Matrix`]es; a
/// transposed operand is read in place, never copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `out += a · b`, `a` n×k and `b` k×m: a layer's forward pass `X·W`.
    Plain,
    /// `out += aᵀ · b`, `a` k×n and `b` k×m: a weight gradient `Xᵀ·δ`.
    TransposeLhs,
    /// `out += a · bᵀ`, `a` n×k and `b` m×k: an input gradient `δ·Wᵀ`.
    TransposeRhs,
}

/// Output columns one register tile holds.
const TILE: usize = 8;

/// The dense kernel under every product: `out += op(a) · op(b)` into the
/// caller's row-major `n × m` slice, as `layout` says.
///
/// Each output element is one accumulator, loaded from `out`, that adds its
/// `k` terms `a(i, l) · b(l, j)` in `l` order; a tile of two output rows ×
/// eight columns keeps its sixteen accumulators in registers for the whole
/// inner loop. There is no branch on the data: a zero term is added like any
/// other. On a zeroed `out` this is bit-equal to the skip-zero loop (`if a
/// == 0.0 { continue }`) whenever `b` is finite, because a zero times a
/// finite value is ±0, adding ±0 to a non-zero sum leaves it unchanged, and
/// an accumulator that starts at +0.0 never becomes −0.0 (+0.0 + −0.0 is
/// +0.0). The two differ only where a zero meets an infinite or NaN entry
/// of `b`: the skip leaves the sum alone, the kernel makes it NaN.
///
/// # Panics
/// Panics if the inner dimensions disagree or `out.len() != n · m`.
pub fn gemm(layout: Layout, a: &Matrix, b: &Matrix, out: &mut [f64]) {
    let (n, k, m, inner) = match layout {
        Layout::Plain => (a.rows, a.cols, b.cols, b.rows),
        Layout::TransposeLhs => (a.cols, a.rows, b.cols, b.rows),
        Layout::TransposeRhs => (a.rows, a.cols, b.rows, b.cols),
    };
    assert_eq!(
        k, inner,
        "matmul shape mismatch: {layout:?} of {}x{} and {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(out.len(), n * m, "gemm output holds {} values, not {n}x{m}", out.len());
    if m == 0 {
        return;
    }
    let mut pairs = out.chunks_exact_mut(2 * m);
    for (p, rows) in pairs.by_ref().enumerate() {
        let (upper, lower) = rows.split_at_mut(m);
        row_tiles(layout, a, b, 2 * p, [upper, lower]);
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        row_tiles(layout, a, b, n - 1, [last]);
    }
}

/// Output rows `i..i + R`, one register tile of [`TILE`] columns at a time
/// and the columns past the last full tile one by one.
#[inline(always)]
fn row_tiles<const R: usize>(
    layout: Layout,
    a: &Matrix,
    b: &Matrix,
    i: usize,
    mut rows: [&mut [f64]; R],
) {
    let m = rows[0].len();
    let full = m - m % TILE;
    for j in (0..full).step_by(TILE) {
        tile::<R, TILE>(layout, a, b, i, j, &mut rows);
    }
    for j in full..m {
        tile::<R, 1>(layout, a, b, i, j, &mut rows);
    }
}

/// Adds the `k` terms of output rows `i..i + R`, columns `j..j + W`, onto
/// the outputs, the `R × W` sums held in registers.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    layout: Layout,
    a: &Matrix,
    b: &Matrix,
    i: usize,
    j: usize,
    rows: &mut [&mut [f64]; R],
) {
    let mut sums: [[f64; W]; R] =
        std::array::from_fn(|r| *rows[r][j..].first_chunk().expect("tile in row"));
    match layout {
        Layout::Plain => {
            // Re-sliced to `k`, so the compiler proves `l` in bounds.
            let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a.row(i + r)[..b.rows]);
            for (l, b_row) in b.data.chunks_exact(b.cols).enumerate() {
                let b_tile = b_row[j..].first_chunk().expect("tile in row");
                add_terms(&mut sums, std::array::from_fn(|r| a_rows[r][l]), b_tile);
            }
        }
        Layout::TransposeLhs => {
            for (a_row, b_row) in a.data.chunks_exact(a.cols).zip(b.data.chunks_exact(b.cols)) {
                let a_tile: &[f64; R] = a_row[i..].first_chunk().expect("tile in row");
                add_terms(&mut sums, *a_tile, b_row[j..].first_chunk().expect("tile in row"));
            }
        }
        Layout::TransposeRhs => {
            let k = b.cols;
            let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a.row(i + r)[..k]);
            let b_rows: [&[f64]; W] = std::array::from_fn(|c| &b.row(j + c)[..k]);
            for l in 0..k {
                let b_col: [f64; W] = std::array::from_fn(|c| b_rows[c][l]);
                add_terms(&mut sums, std::array::from_fn(|r| a_rows[r][l]), &b_col);
            }
        }
    }
    for (row, sums) in rows.iter_mut().zip(sums) {
        row[j..j + W].copy_from_slice(&sums);
    }
}

/// `sums[r][c] += x[r] · b[c]`.
#[inline(always)]
fn add_terms<const R: usize, const W: usize>(sums: &mut [[f64; W]; R], x: [f64; R], b: &[f64; W]) {
    for (sums, x) in sums.iter_mut().zip(x) {
        for (s, &b) in sums.iter_mut().zip(b) {
            *s += x * b;
        }
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

    /// Output widths from empty, narrower than a tile, and on both sides of
    /// a tile edge.
    const WIDTHS: [usize; 12] = [0, 1, 2, 3, 4, 7, 8, 9, 16, 17, 32, 33];

    const LAYOUTS: [Layout; 3] = [Layout::Plain, Layout::TransposeLhs, Layout::TransposeRhs];

    fn transposed(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.cols, m.rows, |r, c| m[(c, r)])
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Every layout, shapes from empty (output widths up to and on both
        /// sides of a tile edge, inner dimensions from 0 to 33), ±0 entries: `gemm` into a zeroed slice
        /// (and `matmul`, for the plain layout) is the skip-zero triple loop
        /// over the explicit transposes, bit for bit.
        #[test]
        fn matmul_is_bitwise_the_indexed_triple_loop(
            operands in (0usize..3, 0usize..6, 0usize..34, 0usize..WIDTHS.len())
                .prop_flat_map(|(layout, n, k, width)| {
                    let layout = LAYOUTS[layout];
                    let m = WIDTHS[width];
                    let (a_shape, b_shape) = match layout {
                        Layout::Plain => ((n, k), (k, m)),
                        Layout::TransposeLhs => ((k, n), (k, m)),
                        Layout::TransposeRhs => ((n, k), (m, k)),
                    };
                    (
                        Just(layout),
                        matrix_with_zeros(a_shape.0, a_shape.1),
                        matrix_with_zeros(b_shape.0, b_shape.1),
                    )
                }),
        ) {
            let (layout, a, b) = operands;
            let slow = match layout {
                Layout::Plain => matmul_by_index(&a, &b),
                Layout::TransposeLhs => matmul_by_index(&transposed(&a), &b),
                Layout::TransposeRhs => matmul_by_index(&a, &transposed(&b)),
            };
            let mut fast = Matrix::zeros(slow.rows, slow.cols);
            gemm(layout, &a, &b, &mut fast.data);
            prop_assert_eq!(bits(&fast), bits(&slow));
            if layout == Layout::Plain {
                prop_assert_eq!(bits(&a.matmul(&b)), bits(&slow));
            }
        }
    }

    /// `gemm` adds onto what the output holds, term by term in order.
    #[test]
    fn gemm_accumulates_onto_the_output() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 9, (0..18).map(f64::from).collect());
        let mut out = vec![10.0; 9];
        gemm(Layout::Plain, &a, &b, &mut out);
        let expected: Vec<f64> =
            (0..9).map(|j| 10.0 + f64::from(j) + 2.0 * f64::from(j + 9)).collect();
        assert_eq!(out, expected);
    }

    /// Where `b` is not finite a zero term is no longer neutral: the one
    /// input on which the kernel and the skip-zero loop part.
    #[test]
    fn a_zero_times_an_infinite_weight_is_nan() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f64::INFINITY, 2.0]);
        assert!(a.matmul(&b)[(0, 0)].is_nan());
        assert_eq!(matmul_by_index(&a, &b)[(0, 0)], 2.0);
    }

    #[test]
    fn buffers_are_reused_in_place() {
        let src = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        let mut m = Matrix::zeros(4, 3);
        let capacity = m.data.capacity();
        m.fill_rows(3, [2, 0].map(|r| src.row(r)));
        assert_eq!(m, Matrix::from_vec(2, 3, vec![6.0, 7.0, 8.0, 0.0, 1.0, 2.0]));
        m.reset(3, 2);
        assert_eq!(m, Matrix::zeros(3, 2));
        m.clone_from(&src);
        assert_eq!(m, src);
        assert_eq!(m.data.capacity(), capacity);
        assert_eq!(Matrix::from_rows(0, [&[][..], &[]]).shape(), (2, 0));
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
