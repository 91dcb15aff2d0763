//! Reusable scratch buffers for the allocation-free hot path.
//!
//! The shim rayon pool spawns scoped workers per parallel region, so
//! thread-locals cannot carry scratch across batches. Instead a
//! [`ScratchPool`] checks boxed scratch objects in and out: a chunk worker
//! acquires one (allocating only on pool miss, i.e. during warm-up),
//! fills it, and the driver releases it after the merge. After one epoch
//! the pool holds as many scratches as the peak concurrency and the
//! steady state recycles them with zero heap traffic.

use std::sync::Mutex;

/// A check-in/check-out pool of reusable scratch objects.
pub struct ScratchPool<T> {
    free: Mutex<Vec<Box<T>>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ScratchPool<T> {
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Check out a scratch, building a fresh one with `init` on pool miss.
    pub fn acquire_with(&self, init: impl FnOnce() -> T) -> Box<T> {
        let pooled = self.free.lock().expect("scratch pool poisoned").pop();
        pooled.unwrap_or_else(|| Box::new(init()))
    }

    /// Return a scratch for reuse. The caller is responsible for leaving
    /// it in a reusable state (cleared, capacities intact).
    pub fn release(&self, item: Box<T>) {
        self.free.lock().expect("scratch pool poisoned").push(item);
    }

    /// Number of scratches currently checked in.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

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

    /// Bytes of heap this scratch holds.
    pub fn heap_bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_objects() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        let mut a = pool.acquire_with(|| Vec::with_capacity(64));
        a.push(1);
        let cap = a.capacity();
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire_with(Vec::new);
        // Same object comes back, capacity intact.
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.idle(), 0);
    }

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
        assert_eq!(scratch.heap_bytes(), floats * 4);
    }
}
