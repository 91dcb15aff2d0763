//! The query engine: batched admission over one shared tile sweep.
//!
//! Queries are submitted individually ([`ServeEngine::submit`]) and
//! answered together ([`ServeEngine::drain`]): the drain sorts the
//! admitted batch by relation, then sweeps the snapshot's entity table
//! **tile-major** — every query scores the current column-major tile, 32
//! lanes at a time, before the sweep moves on — so one pass over the
//! (cache-cold, potentially hundreds of MB) entity table serves the batch, and
//! each 16 KB column-major tile ([`kge_eval::transpose::TILE_BYTES`])
//! stays L1-resident across all of it. Queries sharing a relation run
//! consecutively, reusing the loaded relation row. This is where batched
//! admission beats query-at-a-time serving by the multiple the bench
//! asserts: a single query is memory-bound on streaming the table; a batch
//! re-uses every loaded tile `batch` times.
//!
//! Selection per query is a pooled [`TopKHeap`]; results are
//! bit-identical to the scalar full-sort oracle (ids, scores, order —
//! see [`oracle_topk`]). Filtered mode removes known true tails
//! ([`GroupedFilter`]) *exactly*: the heap is oversized to
//! `k + |known|`, so after deleting the ≤ `|known|` known ids from the
//! kept set, the best `k` survivors are exactly the top-k of the
//! non-known candidates.

use std::sync::Arc;

use kge_core::ReplaceDir;
use kge_data::GroupedFilter;

use crate::snapshot::ModelSnapshot;
use crate::topk::{oracle_topk, TopHit, TopKHeap};

/// One tail-prediction query: the best `k` tails for `(head, rel, ?)`.
/// With `filtered`, tails already known true for `(head, rel)` (in the
/// engine's [`GroupedFilter`]) are excluded from the answer.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub head: u32,
    pub rel: u32,
    pub k: usize,
    pub filtered: bool,
}

/// Per-batch results, indexed by submission order. Storage is flat and
/// pooled — reused across drains.
#[derive(Default)]
pub struct TopKResults {
    offsets: Vec<u32>,
    hits: Vec<TopHit>,
}

impl TopKResults {
    /// Queries answered in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits for the `i`-th submitted query, best first. May hold fewer
    /// than `k` entries (small entity table, NaN rows, filtered mode).
    pub fn get(&self, i: usize) -> &[TopHit] {
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        &self.hits[lo..hi]
    }

    fn clear(&mut self) {
        self.offsets.clear();
        self.hits.clear();
        self.offsets.push(0);
    }
}

/// Serving engine bound to one snapshot generation. All working state is
/// pooled: after a warmup drain at the steady batch shape, subsequent
/// drains allocate nothing (`tests/zero_alloc_serve.rs`).
pub struct ServeEngine {
    snapshot: Arc<ModelSnapshot>,
    filter: Option<Arc<GroupedFilter>>,
    pending: Vec<Query>,
    /// Batch indices sorted by `(rel, index)` — the admission coalescing.
    order: Vec<u32>,
    tile_scores: Vec<f32>,
    heaps: Vec<TopKHeap>,
    scratch_hits: Vec<TopHit>,
    results: TopKResults,
}

impl ServeEngine {
    /// Engine serving `snapshot`, unfiltered queries only.
    pub fn new(snapshot: Arc<ModelSnapshot>) -> Self {
        Self::with_filter(snapshot, None)
    }

    /// Engine with a filter index for `Query::filtered` admission.
    pub fn with_filter(snapshot: Arc<ModelSnapshot>, filter: Option<Arc<GroupedFilter>>) -> Self {
        ServeEngine {
            snapshot,
            filter,
            pending: Vec::new(),
            order: Vec::new(),
            tile_scores: Vec::new(),
            heaps: Vec::new(),
            scratch_hits: Vec::new(),
            results: TopKResults::default(),
        }
    }

    /// The snapshot generation this engine answers from.
    pub fn snapshot(&self) -> &Arc<ModelSnapshot> {
        &self.snapshot
    }

    /// Switch to a newer generation (e.g. from [`SnapshotHub::latest`]).
    /// Takes effect for the next drain; pending queries are answered
    /// from the new snapshot.
    ///
    /// [`SnapshotHub::latest`]: crate::snapshot::SnapshotHub::latest
    pub fn install(&mut self, snapshot: Arc<ModelSnapshot>) {
        self.snapshot = snapshot;
    }

    /// Queries admitted and not yet drained.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Results of the last drain (empty before the first).
    pub fn results(&self) -> &TopKResults {
        &self.results
    }

    /// Admit one query into the current batch; returns its index in the
    /// batch (its slot in the drain's [`TopKResults`]).
    pub fn submit(&mut self, q: Query) -> usize {
        debug_assert!((q.head as usize) < self.snapshot.n_entities(), "head in range");
        debug_assert!((q.rel as usize) < self.snapshot.n_relations(), "rel in range");
        debug_assert!(
            !q.filtered || self.filter.is_some(),
            "filtered query needs an engine filter"
        );
        self.pending.push(q);
        self.pending.len() - 1
    }

    /// Answer every pending query in one shared tile sweep. Results are
    /// indexed by submission order and valid until the next drain.
    pub fn drain(&mut self) -> &TopKResults {
        let n = self.pending.len();
        self.results.clear();
        if n == 0 {
            return &self.results;
        }
        let snap = &*self.snapshot;
        let model = snap.model();
        let ent = snap.ent();
        let rel = snap.rel();
        let ent_t = snap.ent_t();

        // Admission coalescing: group the batch by relation so each
        // relation row is fetched once per tile and filter lookups hit
        // the same group block.
        self.order.clear();
        self.order.extend(0..n as u32);
        let pending = &self.pending;
        self.order.sort_unstable_by_key(|&i| (pending[i as usize].rel, i));

        // Pooled per-query heaps; filtered queries oversize to
        // k + |known| so the post-pass removal stays exact.
        while self.heaps.len() < n {
            self.heaps.push(TopKHeap::new());
        }
        for &qi in &self.order {
            let q = pending[qi as usize];
            let cap = q.k + self.known_tails(&q).len();
            self.heaps[qi as usize].reset(cap);
        }

        // One tile sweep for the whole batch: tile-major outer loop,
        // relation-sorted queries inner, so the column-major tile is
        // reused across every admitted query while L1-hot.
        self.tile_scores.resize(ent_t.tile_rows(), 0.0);
        let mut e0 = 0usize;
        while e0 < ent_t.rows() {
            let (block, rows) = ent_t.tile(e0);
            let scores = &mut self.tile_scores[..rows];
            let mut cur_rel = u32::MAX;
            let mut r_row: &[f32] = &[];
            for &qi in &self.order {
                let q = pending[qi as usize];
                if q.rel != cur_rel {
                    cur_rel = q.rel;
                    r_row = rel.row(q.rel as usize);
                }
                let query_row = ent.row(q.head as usize);
                model.score_one_vs_all_transposed(
                    query_row,
                    r_row,
                    block,
                    rows,
                    ReplaceDir::Tail,
                    scores,
                );
                self.heaps[qi as usize].offer_tile(e0 as u32, scores);
            }
            e0 += rows;
        }

        // Per-query post-pass in submission order: sort the kept set,
        // delete known tails (filtered mode), truncate to k.
        for (qi, &q) in pending.iter().enumerate() {
            self.scratch_hits.clear();
            self.heaps[qi].drain_sorted_into(&mut self.scratch_hits);
            let known: &[u32] = if q.filtered {
                self.filter
                    .as_ref()
                    .expect("validated at submit")
                    .known_tails(q.head, q.rel)
            } else {
                &[]
            };
            let mut kept = 0usize;
            for i in 0..self.scratch_hits.len() {
                if kept == q.k {
                    break;
                }
                let h = self.scratch_hits[i];
                if known.binary_search(&h.entity).is_err() {
                    self.results.hits.push(h);
                    kept += 1;
                }
            }
            self.results.offsets.push(self.results.hits.len() as u32);
        }
        self.pending.clear();
        &self.results
    }

    /// Answer one query alone (submit + drain); the query-at-a-time
    /// baseline the bench compares batched admission against.
    pub fn query_one(&mut self, q: Query) -> &[TopHit] {
        assert_eq!(self.pending(), 0, "query_one on an engine with a pending batch");
        self.submit(q);
        self.drain();
        self.results.get(0)
    }

    /// Scalar full-sort reference for `q` against this engine's snapshot
    /// and filter — the in-run oracle for bit-identity checks.
    pub fn oracle(&self, q: &Query) -> Vec<TopHit> {
        let snap = &*self.snapshot;
        let known: &[u32] = if q.filtered {
            self.filter
                .as_ref()
                .expect("filtered oracle needs a filter")
                .known_tails(q.head, q.rel)
        } else {
            &[]
        };
        oracle_topk(
            snap.model(),
            snap.ent(),
            snap.rel().row(q.rel as usize),
            snap.ent().row(q.head as usize),
            ReplaceDir::Tail,
            q.k,
            known,
        )
    }

    fn known_tails(&self, q: &Query) -> &[u32] {
        if q.filtered {
            self.filter
                .as_ref()
                .expect("validated at submit")
                .known_tails(q.head, q.rel)
        } else {
            &[]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ModelSnapshot;
    use kge_core::{ComplEx, EmbeddingTable, KgeModel};
    use kge_data::{GroupedFilter, Triple};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn snapshot(n_ent: usize, n_rel: usize, rank: usize, seed: u64) -> Arc<ModelSnapshot> {
        let model: Arc<dyn KgeModel> = Arc::new(ComplEx::new(rank));
        let dim = model.storage_dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let ent = EmbeddingTable::xavier(n_ent, dim, &mut rng);
        let rel = EmbeddingTable::xavier(n_rel, dim, &mut rng);
        Arc::new(ModelSnapshot::build(model, &ent, &rel, 1))
    }

    #[test]
    fn batch_matches_oracle_and_single() {
        let snap = snapshot(300, 4, 6, 1);
        let mut eng = ServeEngine::new(Arc::clone(&snap));
        let queries: Vec<Query> = (0..16)
            .map(|i| Query {
                head: (i * 17) % 300,
                rel: i % 4,
                k: 5,
                filtered: false,
            })
            .collect();
        for &q in &queries {
            eng.submit(q);
        }
        eng.drain();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(eng.results.get(i), eng.oracle(q).as_slice(), "query {i}");
        }
        // Single-query path answers identically.
        let mut single = ServeEngine::new(snap);
        for q in &queries {
            assert_eq!(single.query_one(*q), eng.oracle(q).as_slice());
        }
    }

    #[test]
    fn filtered_removes_known_tails_exactly() {
        let snap = snapshot(64, 2, 4, 2);
        let triples = vec![
            Triple { head: 3, rel: 0, tail: 7 },
            Triple { head: 3, rel: 0, tail: 9 },
            Triple { head: 3, rel: 1, tail: 7 },
        ];
        let filter = Arc::new(GroupedFilter::from_triples(triples.into_iter()));
        let mut eng = ServeEngine::with_filter(Arc::clone(&snap), Some(filter));
        let q = Query { head: 3, rel: 0, k: 10, filtered: true };
        eng.submit(q);
        eng.drain();
        let hits = eng.results.get(0);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|h| h.entity != 7 && h.entity != 9));
        assert_eq!(hits, eng.oracle(&q).as_slice());
        // Unfiltered on the same engine still sees every tail.
        let un = Query { filtered: false, ..q };
        eng.submit(un);
        eng.drain();
        assert_eq!(eng.results.get(0), eng.oracle(&un).as_slice());
    }

    #[test]
    fn k_larger_than_table_returns_everything_ordered() {
        let snap = snapshot(20, 1, 4, 3);
        let mut eng = ServeEngine::new(snap);
        let q = Query { head: 0, rel: 0, k: 100, filtered: false };
        eng.submit(q);
        eng.drain();
        let hits = eng.results.get(0);
        assert_eq!(hits.len(), 20);
        assert_eq!(hits, eng.oracle(&q).as_slice());
    }

    #[test]
    fn results_indexed_by_submission_order_across_relations() {
        let snap = snapshot(128, 8, 4, 4);
        let mut eng = ServeEngine::new(snap);
        // Deliberately interleaved relations: the engine reorders
        // internally but must answer in submission order.
        let queries: Vec<Query> = (0..24)
            .map(|i| Query {
                head: (i * 31) % 128,
                rel: (i * 5) % 8,
                k: 3,
                filtered: false,
            })
            .collect();
        for &q in &queries {
            eng.submit(q);
        }
        eng.drain();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(eng.results.get(i), eng.oracle(q).as_slice(), "slot {i}");
        }
    }

    #[test]
    fn empty_drain_is_fine() {
        let snap = snapshot(10, 1, 2, 5);
        let mut eng = ServeEngine::new(snap);
        let res = eng.drain();
        assert!(res.is_empty());
    }
}
