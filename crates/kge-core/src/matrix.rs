//! Row-major embedding tables.

use crate::init;
use rand::Rng;

/// A dense `rows × dim` matrix of `f32` parameters, one embedding per row.
///
/// Storage is a single contiguous allocation; rows are returned as slices
/// so hot loops stay allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl EmbeddingTable {
    /// All-zeros table.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        EmbeddingTable {
            data: vec![0.0; rows * dim],
            rows,
            dim,
        }
    }

    /// Xavier-uniform initialized table (the standard KGE init).
    pub fn xavier<R: Rng>(rows: usize, dim: usize, rng: &mut R) -> Self {
        let mut t = Self::zeros(rows, dim);
        init::xavier_uniform(&mut t.data, dim, rng);
        t
    }

    /// Number of rows (entities or relations).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Floats per row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole parameter buffer (rows-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the whole parameter buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Squared Frobenius norm of the table (used for L2 reporting).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// Bytes occupied by the parameters.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Euclidean norm of a vector.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

/// `out += alpha * v`: elementwise `o + alpha·x`, mul then add.
#[inline]
pub fn axpy(alpha: f32, v: &[f32], out: &mut [f32]) {
    debug_assert_eq!(v.len(), out.len());
    for (o, &x) in out.iter_mut().zip(v) {
        *o += alpha * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape_and_content() {
        let t = EmbeddingTable::zeros(3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.dim(), 4);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(t.nbytes(), 48);
    }

    #[test]
    fn rows_are_disjoint_views() {
        let mut t = EmbeddingTable::zeros(2, 3);
        t.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        t.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn xavier_is_seeded_and_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = EmbeddingTable::xavier(10, 8, &mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let b = EmbeddingTable::xavier(10, 8, &mut rng);
        assert_eq!(a, b, "same seed, same table");
        let bound = (6.0f32 / 8.0).sqrt();
        assert!(a.as_slice().iter().all(|&x| x.abs() <= bound));
        assert!(a.sq_norm() > 0.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        let mut out = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut out);
        assert_eq!(out, vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = EmbeddingTable::zeros(3, 0);
    }
}
