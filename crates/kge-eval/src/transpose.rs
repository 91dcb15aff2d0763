//! Tile-blocked column-major copy of an entity table — the layout the
//! transposed one-vs-all kernels ([`KgeModel::score_one_vs_all_transposed`])
//! consume.
//!
//! Both ranking evaluation and online serving sweep the whole entity table
//! per query group; the transposed copy is what lets the vector kernels
//! read a 32-candidate lane chunk with unit stride. The copy depends only on
//! the entity table — not on the queries — so it is built **once** per
//! evaluation (or once per published serving snapshot) and shared
//! read-only by every worker.
//!
//! [`KgeModel::score_one_vs_all_transposed`]: kge_core::KgeModel::score_one_vs_all_transposed

use kge_core::EmbeddingTable;

/// Candidate-tile size target: one column-major tile of entity rows
/// should sit in L1 alongside the query rows and the tile's scores, so the
/// tile is reused across every query of a unit or admitted batch without
/// thrashing. 16 KB is a third of a 48 KB L1d; a smaller tile costs more
/// kernel calls per candidate.
pub const TILE_BYTES: usize = 16 * 1024;

/// Entity rows per tile for a given storage dimension: as many as fit in
/// [`TILE_BYTES`], rounded up to a whole number of the transposed kernel's
/// 32-lane chunks ([`kge_core::OVA_T_LANES`]), so only a table's last tile
/// ends in a zero-padded chunk. At 64 floats a row a tile is 64 rows, at
/// 128 floats 32 rows. Above 128 floats a row, a tile is 32 rows of more
/// than [`TILE_BYTES`].
pub fn tile_rows_for(dim: usize) -> usize {
    let rows = (TILE_BYTES / (dim * 4)).max(1);
    rows.div_ceil(kge_core::OVA_T_LANES) * kge_core::OVA_T_LANES
}

/// Entity table re-laid-out tile-by-tile in column-major order: the block
/// for the tile starting at entity `e0` lives at `e0·dim` and stores
/// `block[k·rows + j] = ent[(e0+j)·dim + k]` (`rows` = entities in the
/// tile). Buffers are reused across rebuilds — steady-state rebuilds on a
/// same-shape table allocate nothing.
#[derive(Default)]
pub struct TransposedTable {
    data: Vec<f32>,
    dim: usize,
    rows: usize,
    tile: usize,
}

impl TransposedTable {
    /// Empty table (no storage until the first [`build_into`]).
    ///
    /// [`build_into`]: TransposedTable::build_into
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a transposed copy of `ent` (convenience for one-shot callers;
    /// reuse via [`build_into`] on hot paths).
    ///
    /// [`build_into`]: TransposedTable::build_into
    pub fn build(ent: &EmbeddingTable) -> Self {
        let mut t = Self::default();
        t.build_into(ent);
        t
    }

    /// (Re)build the transposed copy of `ent` in place, reusing the
    /// existing buffer when the shape allows.
    pub fn build_into(&mut self, ent: &EmbeddingTable) {
        let dim = ent.dim();
        let n_ent = ent.rows();
        let tile = tile_rows_for(dim);
        self.dim = dim;
        self.rows = n_ent;
        self.tile = tile;
        self.data.clear();
        self.data.resize(n_ent * dim, 0.0);
        let src = ent.as_slice();
        let mut e0 = 0usize;
        while e0 < n_ent {
            let e1 = (e0 + tile).min(n_ent);
            let rows = e1 - e0;
            let cand = &src[e0 * dim..e1 * dim];
            for (k, col) in self.data[e0 * dim..e1 * dim]
                .chunks_exact_mut(rows)
                .enumerate()
            {
                for (j, v) in col.iter_mut().enumerate() {
                    *v = cand[j * dim + k];
                }
            }
            e0 = e1;
        }
    }

    /// The full tile-blocked column-major buffer (`rows·dim` long; the
    /// block for the tile at entity `e0` starts at `e0·dim`).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Entity rows per tile (fixed per storage dimension).
    pub fn tile_rows(&self) -> usize {
        self.tile
    }

    /// Number of entity rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Storage dimension of the source table.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The column-major block for the tile starting at entity `e0`
    /// (`e0` must be a multiple of [`tile_rows`]), together with the
    /// number of entity rows it covers.
    ///
    /// [`tile_rows`]: TransposedTable::tile_rows
    pub fn tile(&self, e0: usize) -> (&[f32], usize) {
        debug_assert!(e0 < self.rows && e0.is_multiple_of(self.tile));
        let e1 = (e0 + self.tile).min(self.rows);
        (&self.data[e0 * self.dim..e1 * self.dim], e1 - e0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_rows_are_lane_aligned() {
        for dim in [2, 15, 64, 128, 400] {
            let t = tile_rows_for(dim);
            assert!(t >= 1);
            assert_eq!(t % kge_core::OVA_T_LANES, 0, "dim {dim}");
        }
    }

    #[test]
    fn layout_matches_definition() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let dim = 6;
        let mut rng = StdRng::seed_from_u64(7);
        // More rows than one tile so the tile loop takes several laps and
        // the final tile is a remainder.
        let n = tile_rows_for(dim) * 2 + 3;
        let ent = EmbeddingTable::xavier(n, dim, &mut rng);
        let t = TransposedTable::build(&ent);
        assert_eq!(t.rows(), n);
        assert_eq!(t.dim(), dim);
        let tile = t.tile_rows();
        let mut e0 = 0usize;
        while e0 < n {
            let (block, rows) = t.tile(e0);
            for k in 0..dim {
                for j in 0..rows {
                    assert_eq!(block[k * rows + j], ent.row(e0 + j)[k]);
                }
            }
            e0 += tile;
        }
    }

    #[test]
    fn rebuild_reuses_buffer_and_tracks_shape() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let a = EmbeddingTable::xavier(40, 4, &mut rng);
        let b = EmbeddingTable::xavier(40, 4, &mut rng);
        let mut t = TransposedTable::new();
        t.build_into(&a);
        let expect_b = TransposedTable::build(&b);
        t.build_into(&b);
        assert_eq!(t.as_slice(), expect_b.as_slice());
    }
}
