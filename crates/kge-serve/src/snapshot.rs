//! Immutable serving snapshots and the double-buffered publish hub.
//!
//! The trainer publishes its model replica at epoch boundaries (see
//! [`kge_train::snapshot`]); the [`SnapshotHub`] turns each publication
//! into an immutable [`ModelSnapshot`] generation that query engines
//! share via `Arc` — readers never block the trainer, and a reader
//! holding generation `g` keeps serving it bit-stably while `g+1`, `g+2`,
//! … are published.
//!
//! Publication is **double-buffered**: the hub keeps at most one spare
//! snapshot (the generation before last). When the spare's `Arc` is
//! unique — every engine has moved on — its table and transposed-tile
//! buffers are recycled for the incoming generation, so a steady-state
//! publish is two `memcpy`s plus one tile transpose, with no allocation.
//! Each snapshot pre-builds the column-major [`TransposedTable`] once
//! (the same layout ranking evaluation uses), so queries never pay the
//! transpose.

use std::sync::{Arc, Mutex};

use kge_core::{EmbeddingTable, KgeModel};
use kge_eval::TransposedTable;
use kge_train::snapshot::{PublishedModel, SnapshotSink};

/// One immutable published model generation: the tables, the pre-built
/// transposed entity tiles, and the scoring model. Engines hold it by
/// `Arc` and score against it lock-free.
pub struct ModelSnapshot {
    epochs_done: usize,
    published_sim_s: f64,
    generation: u64,
    model: Arc<dyn KgeModel>,
    ent: EmbeddingTable,
    rel: EmbeddingTable,
    ent_t: TransposedTable,
}

impl ModelSnapshot {
    /// Build a standalone snapshot (outside a hub) — used by tests and
    /// one-shot serving of an already-trained model.
    pub fn build(
        model: Arc<dyn KgeModel>,
        ent: &EmbeddingTable,
        rel: &EmbeddingTable,
        epochs_done: usize,
    ) -> Self {
        let mut snap = ModelSnapshot {
            epochs_done,
            published_sim_s: 0.0,
            generation: 0,
            model,
            ent: EmbeddingTable::zeros(ent.rows(), ent.dim()),
            rel: EmbeddingTable::zeros(rel.rows(), rel.dim()),
            ent_t: TransposedTable::new(),
        };
        snap.fill(ent, rel);
        snap
    }

    /// Copy the tables in and rebuild the transposed tiles (reusing the
    /// buffers when shapes match).
    fn fill(&mut self, ent: &EmbeddingTable, rel: &EmbeddingTable) {
        copy_table(&mut self.ent, ent);
        copy_table(&mut self.rel, rel);
        self.ent_t.build_into(&self.ent);
    }

    /// Epochs of training this snapshot has seen.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Publishing rank's simulated clock at publish time.
    pub fn published_sim_s(&self) -> f64 {
        self.published_sim_s
    }

    /// Monotonic publication counter (1 = first publish from its hub).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn model(&self) -> &dyn KgeModel {
        self.model.as_ref()
    }

    pub fn ent(&self) -> &EmbeddingTable {
        &self.ent
    }

    pub fn rel(&self) -> &EmbeddingTable {
        &self.rel
    }

    /// Pre-built column-major entity tiles.
    pub fn ent_t(&self) -> &TransposedTable {
        &self.ent_t
    }

    pub fn n_entities(&self) -> usize {
        self.ent.rows()
    }

    pub fn n_relations(&self) -> usize {
        self.rel.rows()
    }
}

/// Copy `src` into `dst`, reusing `dst`'s buffer when the shape matches.
fn copy_table(dst: &mut EmbeddingTable, src: &EmbeddingTable) {
    if dst.rows() != src.rows() || dst.dim() != src.dim() {
        *dst = EmbeddingTable::zeros(src.rows(), src.dim());
    }
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

struct HubInner {
    latest: Option<Arc<ModelSnapshot>>,
    /// The generation before last, kept for buffer recycling.
    spare: Option<Arc<ModelSnapshot>>,
    generation: u64,
}

/// The trainer-facing publish endpoint and the engine-facing snapshot
/// source. Implements [`SnapshotSink`], so it plugs straight into
/// [`kge_train::train_with_snapshots`].
pub struct SnapshotHub {
    model: Arc<dyn KgeModel>,
    inner: Mutex<HubInner>,
}

impl SnapshotHub {
    /// Hub for snapshots scored by `model` (must match the trainer's
    /// [`ModelKind`]/rank — the tables it publishes are interpreted with
    /// this model's `storage_dim` layout).
    ///
    /// [`ModelKind`]: kge_train::ModelKind
    pub fn new(model: Arc<dyn KgeModel>) -> Self {
        SnapshotHub {
            model,
            inner: Mutex::new(HubInner {
                latest: None,
                spare: None,
                generation: 0,
            }),
        }
    }

    /// The newest published generation, if any.
    pub fn latest(&self) -> Option<Arc<ModelSnapshot>> {
        self.inner.lock().expect("hub lock").latest.clone()
    }

    /// Number of generations published so far.
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("hub lock").generation
    }

    /// Publish a new generation from raw tables. Recycles the retired
    /// spare generation's buffers when no engine still holds it.
    pub fn publish_tables(
        &self,
        epochs_done: usize,
        sim_now_s: f64,
        ent: &EmbeddingTable,
        rel: &EmbeddingTable,
    ) {
        let mut inner = self.inner.lock().expect("hub lock");
        inner.generation += 1;
        let generation = inner.generation;
        let mut next = match inner.spare.take() {
            // Recycle iff we hold the only Arc; a still-reading engine
            // keeps its generation alive and we build fresh instead.
            Some(spare) => match Arc::try_unwrap(spare) {
                Ok(snap) => snap,
                Err(_still_shared) => fresh_snapshot(&self.model, ent, rel),
            },
            None => fresh_snapshot(&self.model, ent, rel),
        };
        next.epochs_done = epochs_done;
        next.published_sim_s = sim_now_s;
        next.generation = generation;
        next.fill(ent, rel);
        inner.spare = inner.latest.replace(Arc::new(next));
    }
}

fn fresh_snapshot(
    model: &Arc<dyn KgeModel>,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
) -> ModelSnapshot {
    ModelSnapshot {
        epochs_done: 0,
        published_sim_s: 0.0,
        generation: 0,
        model: Arc::clone(model),
        ent: EmbeddingTable::zeros(ent.rows(), ent.dim()),
        rel: EmbeddingTable::zeros(rel.rows(), rel.dim()),
        ent_t: TransposedTable::new(),
    }
}

impl SnapshotSink for SnapshotHub {
    fn publish(&self, snapshot: &PublishedModel<'_>) {
        self.publish_tables(
            snapshot.epochs_done,
            snapshot.sim_now_s,
            snapshot.ent,
            snapshot.rel,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kge_core::ComplEx;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tables(seed: u64) -> (EmbeddingTable, EmbeddingTable) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            EmbeddingTable::xavier(50, 8, &mut rng),
            EmbeddingTable::xavier(5, 8, &mut rng),
        )
    }

    fn hub() -> SnapshotHub {
        SnapshotHub::new(Arc::new(ComplEx::new(4)))
    }

    #[test]
    fn publishes_generations_with_exact_bytes() {
        let hub = hub();
        assert!(hub.latest().is_none());
        let (e1, r1) = tables(1);
        hub.publish_tables(1, 0.5, &e1, &r1);
        let s1 = hub.latest().unwrap();
        assert_eq!(s1.generation(), 1);
        assert_eq!(s1.epochs_done(), 1);
        assert_eq!(s1.ent().as_slice(), e1.as_slice());
        assert_eq!(s1.rel().as_slice(), r1.as_slice());
        assert_eq!(s1.ent_t().rows(), e1.rows(), "the transpose is pre-built");

        let (e2, r2) = tables(2);
        hub.publish_tables(2, 1.5, &e2, &r2);
        let s2 = hub.latest().unwrap();
        assert_eq!(s2.generation(), 2);
        assert_eq!(s2.ent().as_slice(), e2.as_slice());
        // The old generation a reader holds is untouched.
        assert_eq!(s1.ent().as_slice(), e1.as_slice());
    }

    #[test]
    fn transpose_matches_standalone_build() {
        let hub = hub();
        let (e, r) = tables(3);
        hub.publish_tables(1, 0.0, &e, &r);
        let s = hub.latest().unwrap();
        let expect = TransposedTable::build(&e);
        assert_eq!(s.ent_t().as_slice(), expect.as_slice());
        assert_eq!(s.ent_t().tile_rows(), expect.tile_rows());
    }

    #[test]
    fn third_publish_recycles_without_corrupting_readers() {
        let hub = hub();
        for gen in 1..=5u64 {
            let (e, r) = tables(gen);
            hub.publish_tables(gen as usize, 0.0, &e, &r);
            let s = hub.latest().unwrap();
            assert_eq!(s.generation(), gen);
            assert_eq!(s.ent().as_slice(), e.as_slice());
        }
        assert_eq!(hub.generation(), 5);
    }

    #[test]
    fn held_spare_is_not_recycled() {
        let hub = hub();
        let (e1, r1) = tables(1);
        hub.publish_tables(1, 0.0, &e1, &r1);
        let s1 = hub.latest().unwrap(); // reader pins generation 1
        let (e2, r2) = tables(2);
        hub.publish_tables(2, 0.0, &e2, &r2);
        let (e3, r3) = tables(3);
        // Generation 1 is now the spare but still held by `s1`: the hub
        // must build fresh rather than scribble over the reader's tables.
        hub.publish_tables(3, 0.0, &e3, &r3);
        assert_eq!(s1.ent().as_slice(), e1.as_slice());
        assert_eq!(s1.generation(), 1);
        let s3 = hub.latest().unwrap();
        assert_eq!(s3.ent().as_slice(), e3.as_slice());
    }
}
