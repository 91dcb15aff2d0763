//! Reusable scratch for the allocation-free hot path: the block kernel's
//! [`BlockScratch`]. Callers own their scratches (one per thread of a
//! parallel region) and reuse them across batches.

/// Scratch of one [`crate::model::KgeModel::score_grad_block`] call. The
/// kernel reads embedding rows from the tables and adds gradients straight
/// into the [`crate::SparseGrad`] slabs, so nothing here scales with the
/// block: one forward group's summands.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// [`crate::model::KgeModel::score_triples`]' scratch: the per-`k`
    /// summands of [`crate::model::SCORE_LANES`] examples (`8 × rank`).
    pub(crate) terms: Vec<f32>,
}

impl BlockScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's scratch is a function of `rank` alone: a block of 1280
    /// examples leaves one 8-lane group of summands — no `n × dim` arena,
    /// no row tiles and no staged gradient rows.
    #[test]
    fn block_scratch_does_not_scale_with_the_block() {
        use crate::{ComplEx, EmbeddingTable, KgeModel, SparseGrad};
        let (n, dim) = (1280usize, 64usize);
        let model = ComplEx::new(dim / 2);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let ent = EmbeddingTable::xavier(50, dim, &mut rng);
        let rel = EmbeddingTable::xavier(5, dim, &mut rng);
        let triples: Vec<(u32, u32, u32)> = (0..n as u32)
            .map(|i| (i % 50, i % 5, (i * 7 + 1) % 50))
            .collect();
        let mut scratch = BlockScratch::new();
        let (mut eg, mut rg) = (SparseGrad::new(dim), SparseGrad::new(dim));
        model.score_grad_block(
            &ent,
            &rel,
            &triples,
            1e-3,
            &mut scratch,
            &mut |_, s| s,
            &mut eg,
            &mut rg,
        );
        let floats = crate::model::SCORE_LANES * model.rank();
        assert_eq!(scratch.terms.capacity(), floats);
    }
}
