//! Partitioned entity storage with hot/cold tiering — the sharded
//! trainer.
//!
//! The replica trainer keeps the full entity table on every rank, which
//! caps the trainable graph at single-node memory. This module breaks
//! that wall: each entity row is *resident only on its owner rank*
//! (ownership derived from the same `partition_for` distribution the
//! trainer shards triples with), batches **pull** the deduplicated union
//! of rows they touch from owners over priced `ShardPull` point-to-point
//! messages, and row-sparse gradients are **pushed** back to owners over
//! `ShardPush` for the lazy Adam step. On top sits a capacity-bounded,
//! *globally consistent* cache of high-degree rows replicated on every
//! rank, so the hottest rows are synced once per admission instead of
//! pulled once per batch.
//!
//! ## Tiering and update classes
//!
//! Entity rows fall into three classes per batch:
//!
//! 1. **Cached** rows (in the replicated hot cache): never pulled, never
//!    pushed. Their gradients ride an all-gather shared by every rank;
//!    every rank applies the identical lazy Adam step to its cache copy.
//! 2. **Eligible-but-uncached** rows (in the degree-ranked hot set but
//!    not currently cached): their gradients ride the same all-gather;
//!    only the owner applies the step to its arena. Because the
//!    aggregate is shared, these rows are also the *admission stream* —
//!    every rank sees the same stream and runs the same LRU policy, which
//!    is what keeps the cache bit-identical everywhere without a
//!    coordination protocol.
//! 3. **Cold** rows: gradients are encoded per owner and pushed p2p; the
//!    owner sums contributions in ascending source-rank order (its own
//!    contribution spliced at its own rank position), scales by `1/p`,
//!    and steps — the exact f32 summation order of the replica trainer's
//!    gather decode, which is what makes sharded f32 runs bit-identical
//!    to the full-replica trainer.
//!
//! Cold rows may be stored 8-bit quantized at rest
//! ([`kge_compress::RowArena`]); they are dequantized on pull (the
//! requester decodes via `RowRef::dequantize_into`). Int8 storage is
//! deterministic run-to-run but follows a different trajectory than f32.
//!
//! ## Cache invalidation
//!
//! The cache is flushed (owners write values + Adam moments back to
//! their arenas) and cleared at every epoch boundary, so a hot row costs
//! one admission sync per epoch. Eviction is batch-granular LRU driven
//! only by the shared admission stream — never by rank-local pulls — via
//! a lazy-deletion queue compacted when it outgrows 4× capacity.
//!
//! ## Crash recovery
//!
//! Crashes manifest at collectives, so every participant aborts the same
//! batch together with identical cache state. Survivors shrink the
//! communicator, harvest what they hold (their arenas plus the
//! replicated cache), exchange owned rows that are not globally cached,
//! recompute ownership at the new world size, and regenerate rows that
//! died with the crashed rank from the deterministic Xavier init (fresh
//! optimizer state). Elastic rejoin is not supported in sharded mode —
//! a crashed rank parks until the survivors close the lobby.
//!
//! ## Prefetch pipeline
//!
//! With [`crate::PrefetchMode`] on, the per-batch pull round-trip is
//! restructured into a two-slot ring ([`PrefetchRing`]): while batch `b`
//! computes, batch `b+1` is already staged, its touched union deduped
//! and classified against the cache state *as of its launch*, and its
//! pull requests in flight. Responses settle with overlap pricing
//! against the launch anchor (`Communicator::recv_bytes_from_as_overlapped`),
//! so a pull-bound epoch approaches `max(compute, pull)`; cold pushes
//! for batch `b` are consumed in place but priced behind batch `b+1`'s
//! compute window. Resident rows are read at *use* time and evictions
//! between launch and use are captured into the slot ([`EvictSink`]),
//! which is what keeps f32 prefetch runs bit-identical to the
//! synchronous path — and therefore to the replica trainer.

use crate::config::{PrefetchMode, TrainConfig};
use crate::exchange::add_payload_into;
use crate::lr::PlateauSchedule;
use crate::neg::CorruptionBias;
use crate::report::{EpochTrace, ShardedReport, TrainOutcome, TrainReport};
use crate::trainer::{
    chunk_seed, compute_chunk, distribute, fold_chunk, node_pool_threads, stage_chunk,
    ChunkScratch, RunIndexes, GRAD_CHUNK, ZERO_ROW_EPS,
};
use crate::comm_select::PrefetchSelector;
use crate::CommChoice;
use kge_compress::codec::{RowDecoder, RowEncoder, WireFormat};
use kge_compress::quant::QuantScheme;
use kge_compress::{ArenaKind, RowArena};
use kge_core::{Adam, EmbeddingTable, KgeModel, RowOptimizer, SparseGrad};
use kge_data::batch::EpochShuffler;
use kge_data::{Dataset, FilterIndex, Triple};
use kge_partition::{entity_owners, hot_set, partition_for};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, Collective, NodeCtx, SimError};

/// Sentinel for "no slot" in the id → slot maps.
const NO_SLOT: u32 = u32::MAX;

/// Adam lazy-step cost per row element, matching
/// `AdamState::lazy_step_flops`.
const ADAM_FLOPS_PER_ELEM: usize = 12;

/// Per-rank entity storage: the owned-row arena (f32 or int8), the
/// owner's Adam state for those rows, and the replicated hot cache.
///
/// Every cache-policy decision (admission, recency, eviction) is a pure
/// function of the shared hot-aggregate stream and the shared batch
/// counter, so the cache maps and contents are bit-identical on every
/// rank by construction — no invalidation traffic is ever needed.
pub struct ShardedStore {
    dim: usize,
    rank: usize,
    n_entities: usize,
    /// Entity id → owner rank, identical on every rank.
    owners: Vec<u32>,
    /// Sorted entity ids this rank owns.
    owned: Vec<u32>,
    /// Entity id → arena slot (`NO_SLOT` if not owned here).
    arena_slot: Vec<u32>,
    arena: RowArena,
    /// Owner-side Adam state, one row per arena slot.
    opt_m: Vec<f32>,
    opt_v: Vec<f32>,
    opt_t: Vec<u32>,
    adam: Adam,
    // --- Replicated hot cache --------------------------------------
    capacity: usize,
    /// Entity id → cacheable (member of the degree-ranked hot set).
    eligible: Vec<bool>,
    eligible_rows: usize,
    /// Entity id → cache slot (`NO_SLOT` if not cached).
    cache_slot: Vec<u32>,
    /// Cache slot → entity id (`NO_SLOT` if empty).
    cache_id: Vec<u32>,
    cache_val: Vec<f32>,
    cache_m: Vec<f32>,
    cache_v: Vec<f32>,
    cache_t: Vec<u32>,
    /// Slot → batch tick of the last shared-stream touch.
    cache_used: Vec<u64>,
    /// Slot holds owner-synced state (admission sync completed). Unsynced
    /// slots are placeholders between admission and the same batch's sync
    /// and are never read or written back.
    cache_synced: Vec<bool>,
    cache_len: usize,
    /// Lazy-deletion LRU queue of `(tick, id)`; stale entries are skipped
    /// at eviction time and purged by compaction.
    evq: Vec<(u64, u32)>,
    evq_head: usize,
    evq_scratch: Vec<(u64, u32)>,
    // --- Metrics ----------------------------------------------------
    hits: u64,
    lookups: u64,
    touches: u64,
    row_buf: Vec<f32>,
}

impl ShardedStore {
    /// Build the store for `rank` of `p`: ownership map, zeroed arena,
    /// and an empty cache whose eligible set is the top `2 × capacity`
    /// rows by degree (fixed for the run, so eligibility is a shared
    /// constant and the admission stream is well-defined).
    pub fn new(
        kind: ArenaKind,
        dim: usize,
        rank: usize,
        owners: Vec<u32>,
        degrees: &[usize],
        capacity: usize,
        base_lr: f32,
    ) -> Self {
        let n_entities = owners.len();
        let capacity = capacity.min(n_entities);
        let mut arena_slot = vec![NO_SLOT; n_entities];
        let mut owned = Vec::new();
        for (id, &o) in owners.iter().enumerate() {
            if o as usize == rank {
                arena_slot[id] = owned.len() as u32;
                owned.push(id as u32);
            }
        }
        let mut eligible = vec![false; n_entities];
        let hot = hot_set(degrees, 2 * capacity);
        for &id in &hot {
            eligible[id as usize] = true;
        }
        let n_owned = owned.len();
        ShardedStore {
            dim,
            rank,
            n_entities,
            owners,
            owned,
            arena_slot,
            arena: RowArena::new(kind, n_owned, dim),
            opt_m: vec![0.0; n_owned * dim],
            opt_v: vec![0.0; n_owned * dim],
            opt_t: vec![0; n_owned],
            adam: Adam {
                lr: base_lr,
                ..Adam::default()
            },
            capacity,
            eligible,
            eligible_rows: hot.len(),
            cache_slot: vec![NO_SLOT; n_entities],
            cache_id: vec![NO_SLOT; capacity],
            cache_val: vec![0.0; capacity * dim],
            cache_m: vec![0.0; capacity * dim],
            cache_v: vec![0.0; capacity * dim],
            cache_t: vec![0; capacity],
            cache_used: vec![0; capacity],
            cache_synced: vec![false; capacity],
            cache_len: 0,
            evq: Vec::new(),
            evq_head: 0,
            evq_scratch: Vec::new(),
            hits: 0,
            lookups: 0,
            touches: 0,
            row_buf: vec![0.0; dim],
        }
    }

    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn eligible_rows(&self) -> usize {
        self.eligible_rows
    }

    pub fn owned_rows(&self) -> usize {
        self.owned.len()
    }

    pub fn owned_ids(&self) -> &[u32] {
        &self.owned
    }

    pub fn owner_of(&self, id: u32) -> usize {
        self.owners[id as usize] as usize
    }

    pub fn is_owned(&self, id: u32) -> bool {
        self.owners[id as usize] as usize == self.rank
    }

    pub fn is_eligible(&self, id: u32) -> bool {
        self.eligible[id as usize]
    }

    pub fn is_cached(&self, id: u32) -> bool {
        self.cache_slot[id as usize] != NO_SLOT
    }

    fn is_synced(&self, id: u32) -> bool {
        let slot = self.cache_slot[id as usize];
        slot != NO_SLOT && self.cache_synced[slot as usize]
    }

    /// Copy every owned row out of the (fully replicated, transient)
    /// init table; optimizer state stays zero.
    pub fn init_owned_from(&mut self, table: &EmbeddingTable) {
        for i in 0..self.owned.len() {
            self.arena.store(i, table.row(self.owned[i] as usize));
        }
    }

    /// Install an owned row with explicit optimizer state (recovery /
    /// migration path).
    pub fn set_owned_row(&mut self, id: u32, value: &[f32], m: &[f32], v: &[f32], t: u32) {
        let slot = self.arena_slot[id as usize] as usize;
        let d = self.dim;
        self.arena.store(slot, value);
        self.opt_m[slot * d..(slot + 1) * d].copy_from_slice(m);
        self.opt_v[slot * d..(slot + 1) * d].copy_from_slice(v);
        self.opt_t[slot] = t;
    }

    /// Read an owned row's arena value (dequantized) into `out`.
    pub fn read_owned_into(&self, id: u32, out: &mut [f32]) {
        self.arena
            .load_into(self.arena_slot[id as usize] as usize, out);
    }

    /// Owned row's Adam state `(m, v, t)`.
    pub fn owned_state(&self, id: u32) -> (&[f32], &[f32], u32) {
        let slot = self.arena_slot[id as usize] as usize;
        let d = self.dim;
        (
            &self.opt_m[slot * d..(slot + 1) * d],
            &self.opt_v[slot * d..(slot + 1) * d],
            self.opt_t[slot],
        )
    }

    /// Read a row for compute: cache copy if cached, else the owned
    /// arena copy. Callers guarantee non-cached non-owned rows are
    /// pulled instead.
    pub fn read_resident_into(&self, id: u32, out: &mut [f32]) {
        let slot = self.cache_slot[id as usize];
        if slot != NO_SLOT {
            let s = slot as usize;
            debug_assert!(self.cache_synced[s], "read of unsynced cache row");
            out.copy_from_slice(&self.cache_val[s * self.dim..(s + 1) * self.dim]);
        } else {
            self.read_owned_into(id, out);
        }
    }

    /// Count one entity-row touch for the tiering metrics. A **lookup**
    /// is a touch of a row the hot tier manages (the eligible set) —
    /// touches of cold-tier rows go straight to pull/push and never
    /// consult the cache. A **hit** is a lookup that found the row
    /// cached. `touches` counts everything, so `lookups / touches` is
    /// the hot tier's coverage of the access stream.
    pub fn count_touch(&mut self, id: u32) {
        self.touches += 1;
        if self.eligible[id as usize] {
            self.lookups += 1;
            if self.cache_slot[id as usize] != NO_SLOT {
                self.hits += 1;
            }
        }
    }

    /// `(hits, lookups, touches)` — see [`ShardedStore::count_touch`].
    pub fn hit_counters(&self) -> (u64, u64, u64) {
        (self.hits, self.lookups, self.touches)
    }

    /// Lazy Adam step on a cached row (replicated: every rank applies
    /// the identical step to its copy).
    pub fn step_cached(&mut self, id: u32, g: &[f32], lr: f32) {
        let s = self.cache_slot[id as usize] as usize;
        debug_assert!(self.cache_synced[s], "step on unsynced cache row");
        let d = self.dim;
        let adam = self.adam;
        adam.step_row_lazy(
            &mut self.cache_t[s],
            &mut self.cache_m[s * d..(s + 1) * d],
            &mut self.cache_v[s * d..(s + 1) * d],
            &mut self.cache_val[s * d..(s + 1) * d],
            g,
            lr,
        );
    }

    /// Lazy Adam step on an owned arena row (owner-only).
    pub fn step_owned(&mut self, id: u32, g: &[f32], lr: f32) {
        let slot = self.arena_slot[id as usize] as usize;
        let d = self.dim;
        self.arena.load_into(slot, &mut self.row_buf);
        let adam = self.adam;
        adam.step_row_lazy(
            &mut self.opt_t[slot],
            &mut self.opt_m[slot * d..(slot + 1) * d],
            &mut self.opt_v[slot * d..(slot + 1) * d],
            &mut self.row_buf,
            g,
            lr,
        );
        self.arena.store(slot, &self.row_buf);
    }

    fn evq_push(&mut self, tick: u64, id: u32) {
        if self.evq.len() - self.evq_head >= (4 * self.capacity).max(1024)
            || self.evq_head > self.evq.len().max(64) / 2
        {
            self.evq_compact();
        }
        self.evq.push((tick, id));
    }

    /// Rebuild the queue from the live cache in `(last_used, id)` order,
    /// dropping every stale entry.
    fn evq_compact(&mut self) {
        self.evq_scratch.clear();
        for slot in 0..self.capacity {
            let id = self.cache_id[slot];
            if id != NO_SLOT {
                self.evq_scratch.push((self.cache_used[slot], id));
            }
        }
        self.evq_scratch.sort_unstable();
        self.evq.clear();
        self.evq.extend_from_slice(&self.evq_scratch);
        self.evq_head = 0;
    }

    /// Write a cache slot's state back to the owner arena (no-op unless
    /// this rank owns the row and the slot was synced).
    fn write_back(&mut self, slot: usize, id: u32) {
        if !self.cache_synced[slot] || self.owners[id as usize] as usize != self.rank {
            return;
        }
        let a = self.arena_slot[id as usize] as usize;
        let d = self.dim;
        self.arena.store(a, &self.cache_val[slot * d..(slot + 1) * d]);
        self.opt_m[a * d..(a + 1) * d].copy_from_slice(&self.cache_m[slot * d..(slot + 1) * d]);
        self.opt_v[a * d..(a + 1) * d].copy_from_slice(&self.cache_v[slot * d..(slot + 1) * d]);
        self.opt_t[a] = self.cache_t[slot];
    }

    /// Evict the least-recently-used row and return its freed slot. If a
    /// prefetch slot registered an [`EvictSink`], the victim's cache
    /// value is captured into it first (the prefetched batch classified
    /// the row as cached at launch and must still read the same f32
    /// value the synchronous path would have).
    fn evict_one(&mut self, sink: &mut Option<EvictSink<'_>>) -> usize {
        loop {
            debug_assert!(self.evq_head < self.evq.len(), "LRU queue underflow");
            let (used, id) = self.evq[self.evq_head];
            self.evq_head += 1;
            let slot = self.cache_slot[id as usize];
            if slot != NO_SLOT && self.cache_used[slot as usize] == used {
                let s = slot as usize;
                if let Some(sink) = sink.as_mut() {
                    sink.capture(id, &self.cache_val[s * self.dim..(s + 1) * self.dim]);
                }
                self.write_back(s, id);
                self.cache_slot[id as usize] = NO_SLOT;
                self.cache_id[s] = NO_SLOT;
                self.cache_synced[s] = false;
                self.cache_len -= 1;
                return s;
            }
        }
    }

    /// Refresh a cached row's recency from the shared stream.
    pub fn bump(&mut self, id: u32, tick: u64) {
        let slot = self.cache_slot[id as usize];
        if slot == NO_SLOT {
            return;
        }
        if self.cache_used[slot as usize] != tick {
            self.cache_used[slot as usize] = tick;
            self.evq_push(tick, id);
        }
    }

    /// Admit an eligible row, evicting the LRU row if full. The slot is
    /// a placeholder (unsynced) until [`ShardedStore::fill_admitted`]
    /// lands the owner's state in the same batch's admission sync.
    pub fn admit(&mut self, id: u32, tick: u64) {
        self.admit_with_sink(id, tick, &mut None);
    }

    /// [`ShardedStore::admit`] with an optional eviction capture target
    /// for the prefetch pipeline.
    fn admit_with_sink(&mut self, id: u32, tick: u64, sink: &mut Option<EvictSink<'_>>) {
        if self.capacity == 0 || self.cache_slot[id as usize] != NO_SLOT {
            return;
        }
        let slot = if self.cache_len == self.capacity {
            self.evict_one(sink)
        } else {
            self.cache_len
        };
        self.cache_slot[id as usize] = slot as u32;
        self.cache_id[slot] = id;
        self.cache_used[slot] = tick;
        self.cache_synced[slot] = false;
        self.cache_len += 1;
        self.evq_push(tick, id);
    }

    /// Land the owner's post-update state in a freshly admitted slot.
    pub fn fill_admitted(&mut self, id: u32, t: u32, value: &[f32], m: &[f32], v: &[f32]) {
        let slot = self.cache_slot[id as usize];
        if slot == NO_SLOT {
            return; // evicted again before the sync — arena stays authoritative
        }
        let s = slot as usize;
        if self.cache_synced[s] {
            return;
        }
        let d = self.dim;
        self.cache_val[s * d..(s + 1) * d].copy_from_slice(value);
        self.cache_m[s * d..(s + 1) * d].copy_from_slice(m);
        self.cache_v[s * d..(s + 1) * d].copy_from_slice(v);
        self.cache_t[s] = t;
        self.cache_synced[s] = true;
    }

    /// Epoch-boundary invalidation: owners write every synced row back
    /// to their arenas, then all ranks drop the whole cache. Hot rows
    /// cost one admission sync per epoch, not one pull per batch.
    pub fn flush_epoch(&mut self) {
        for slot in 0..self.capacity {
            let id = self.cache_id[slot];
            if id == NO_SLOT {
                continue;
            }
            self.write_back(slot, id);
            self.cache_slot[id as usize] = NO_SLOT;
            self.cache_id[slot] = NO_SLOT;
            self.cache_synced[slot] = false;
        }
        self.cache_len = 0;
        self.evq.clear();
        self.evq_head = 0;
    }

    /// Harvest every synced cache row into full-size recovery buffers
    /// (crash-migration path; cache rows are replicated, so survivors
    /// recover them even when the owner crashed).
    fn export_cache_into(
        &self,
        val: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        t: &mut [u32],
        have: &mut [bool],
    ) {
        let d = self.dim;
        for slot in 0..self.capacity {
            let id = self.cache_id[slot];
            if id == NO_SLOT || !self.cache_synced[slot] {
                continue;
            }
            let i = id as usize;
            val[i * d..(i + 1) * d].copy_from_slice(&self.cache_val[slot * d..(slot + 1) * d]);
            m[i * d..(i + 1) * d].copy_from_slice(&self.cache_m[slot * d..(slot + 1) * d]);
            v[i * d..(i + 1) * d].copy_from_slice(&self.cache_v[slot * d..(slot + 1) * d]);
            t[i] = self.cache_t[slot];
            have[i] = true;
        }
    }

    /// Resident model bytes on this rank: arena storage plus cache
    /// values. (Optimizer moments are reported separately.)
    pub fn resident_model_bytes(&self) -> usize {
        self.arena.value_bytes() + self.cache_val.len() * 4
    }

    /// Resident optimizer-state bytes on this rank (owner moments +
    /// step counts + cache moments).
    pub fn opt_state_bytes(&self) -> usize {
        (self.opt_m.len() + self.opt_v.len() + self.cache_m.len() + self.cache_v.len()) * 4
            + (self.opt_t.len() + self.cache_t.len()) * 4
    }
}

/// Every reusable buffer of the sharded batch pipeline. Steady-state
/// batches allocate nothing once these are warm (single rank; multi-rank
/// runs move message payloads through channels, which allocate by
/// construction).
pub struct ShardedBufs {
    chunks: Vec<ChunkScratch>,
    /// Batch-local embedding table: row `i` holds the value of
    /// `touched[i]`. Sized to the worst-case touched union.
    local_tab: EmbeddingTable,
    touched: Vec<u32>,
    /// Entity id → batch-local id (`NO_SLOT` when untouched); only the
    /// touched entries are ever written and reset.
    g2l: Vec<u32>,
    req_ids: Vec<Vec<u32>>,
    req_wire: Vec<u8>,
    resp_wire: Vec<u8>,
    cold_wire: Vec<Vec<u8>>,
    hot_send: Vec<u8>,
    hot_recv: Vec<u8>,
    hot_counts: Vec<usize>,
    adm_send: Vec<u8>,
    adm_recv: Vec<u8>,
    adm_counts: Vec<usize>,
    admit_ids: Vec<u32>,
    /// Batch-local-id keyed entity gradient (chunk-merge target).
    ent_grad: SparseGrad,
    rel_grad: SparseGrad,
    /// Global-id keyed aggregates.
    hot_agg: SparseGrad,
    cold_agg: SparseGrad,
    gather: crate::exchange::GatherBufs,
    rel_agg: SparseGrad,
    row_buf: Vec<f32>,
    /// Cumulative pull/push lane seconds (visible + hidden), for the
    /// sharded report. Accumulated from clock deltas around the lane
    /// operations — never from extra charges, so the sync path's clock
    /// trajectory is untouched.
    lane: LaneTimes,
}

impl ShardedBufs {
    pub fn new(dim: usize, n_entities: usize, p: usize, config: &TrainConfig) -> Self {
        let n_chunks = config.batch_size.div_ceil(GRAD_CHUNK).max(1);
        let max_touched =
            (2 * config.batch_size * (1 + config.strategy.neg.train)).min(n_entities).max(1);
        ShardedBufs {
            chunks: (0..n_chunks).map(|_| ChunkScratch::new(dim)).collect(),
            local_tab: EmbeddingTable::zeros(max_touched, dim),
            touched: Vec::new(),
            g2l: vec![NO_SLOT; n_entities],
            req_ids: (0..p).map(|_| Vec::new()).collect(),
            req_wire: Vec::new(),
            resp_wire: Vec::new(),
            cold_wire: (0..p).map(|_| Vec::new()).collect(),
            hot_send: Vec::new(),
            hot_recv: Vec::new(),
            hot_counts: Vec::new(),
            adm_send: Vec::new(),
            adm_recv: Vec::new(),
            adm_counts: Vec::new(),
            admit_ids: Vec::new(),
            ent_grad: SparseGrad::new(dim),
            rel_grad: SparseGrad::new(dim),
            hot_agg: SparseGrad::new(dim),
            cold_agg: SparseGrad::new(dim),
            gather: crate::exchange::GatherBufs::new(),
            rel_agg: SparseGrad::new(dim),
            row_buf: vec![0.0; dim],
            lane: LaneTimes::default(),
        }
    }

    /// Shrink/regrow the per-peer buffer sets after a world-size change.
    fn resize_world(&mut self, p: usize) {
        self.req_ids.resize_with(p, Vec::new);
        self.cold_wire.resize_with(p, Vec::new);
    }
}

/// `&mut T` wrapper asserting cross-thread safety for the disjoint-index
/// access pattern of the parallel chunk loop (each index claimed by
/// exactly one worker).
struct SendPtr<T>(*mut T);
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// Callers must guarantee no two live references share an index.
    #[allow(clippy::mut_from_ref)]
    unsafe fn at(&self, i: usize) -> &mut T {
        &mut *self.0.add(i)
    }
}

// --- Prefetch ring -----------------------------------------------------

/// Fill classes of a prefetch slot's batch-local rows, fixed when the
/// slot launches. `REMOTE` rows are requested over the wire; `OWNED` and
/// `CACHED` rows are read from resident state at *use* time (so they
/// observe the intervening batch's updates, like the synchronous path);
/// `LIMBO` rows were cached at launch but evicted before use — their
/// value was captured into the slot at eviction time.
const CLASS_REMOTE: u8 = 0;
const CLASS_OWNED: u8 = 1;
const CLASS_CACHED: u8 = 2;
const CLASS_LIMBO: u8 = 3;

/// Capture target for rows a prefetched batch classified as cached at
/// launch but that the intervening batch's admission pass evicts before
/// use. The victim's post-update cache value — bit-for-bit what the
/// synchronous path would have read (or pulled back from the owner's
/// write-back) — is copied straight into the slot's batch-local table.
pub struct EvictSink<'a> {
    g2l: &'a [u32],
    class: &'a mut [u8],
    local_tab: &'a mut EmbeddingTable,
}

impl EvictSink<'_> {
    fn capture(&mut self, id: u32, value: &[f32]) {
        let li = self.g2l[id as usize];
        if li == NO_SLOT {
            return;
        }
        let li = li as usize;
        if self.class[li] == CLASS_CACHED {
            self.local_tab.row_mut(li).copy_from_slice(value);
            self.class[li] = CLASS_LIMBO;
        }
    }
}

/// Simulated wall-clock and hidden-occupancy accounting for the sharded
/// p2p lanes, accumulated over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneTimes {
    /// Seconds spent on `ShardPull` operations (requests, serving,
    /// response settle — idle wait plus visible occupancy).
    pub pull_s: f64,
    /// Seconds spent on `ShardPush` operations.
    pub push_s: f64,
    /// Pull-response occupancy hidden behind the prefetch window.
    pub hidden_pull_s: f64,
    /// Push occupancy hidden behind the next batch's compute.
    pub hidden_push_s: f64,
}

/// One in-flight batch of the prefetch ring: staged chunks, the deduped
/// touched union with its private id map, per-row fill classes, and the
/// per-owner request lists, all fixed at launch time.
struct PrefetchSlot {
    chunks: Vec<ChunkScratch>,
    local_tab: EmbeddingTable,
    touched: Vec<u32>,
    /// Entity id → batch-local id, private to this slot (the shared
    /// `ShardedBufs` map belongs to whichever batch is computing).
    g2l: Vec<u32>,
    /// Batch-local id → fill class.
    class: Vec<u8>,
    req_ids: Vec<Vec<u32>>,
    /// Clock reading just before the pull requests went out — the start
    /// of the window their responses may hide behind.
    anchor_s: f64,
    batch_idx: usize,
    bs: usize,
    n_chunks: usize,
    live: bool,
}

/// Deferred pricing for the previous batch's cold pushes: the payloads
/// were consumed (unpriced) exactly where the synchronous path consumes
/// them, and their occupancy settles against the *next* batch's compute
/// window via `charge_p2p_deferred`.
struct PendingPush {
    anchor_s: f64,
    /// `(arrival_s, bytes)` per received payload.
    items: Vec<(f64, usize)>,
    live: bool,
}

/// Two-slot one-batch-ahead prefetch pipeline state for the sharded
/// trainer. Owned by the epoch loop (not by [`ShardedBufs`]) so a crash
/// can drop every in-flight slot without touching the batch buffers;
/// all buffers reach steady size after one warm epoch and are reused.
pub struct PrefetchRing {
    slots: [PrefetchSlot; 2],
    cur: usize,
    /// Stashed pull-request payloads for the next batch, popped in FIFO
    /// position at the cold-aggregation phase and served after the
    /// admission sync so responses carry post-update rows.
    req_stash: Vec<Vec<u8>>,
    pending_push: PendingPush,
}

impl PrefetchRing {
    pub fn new(dim: usize, n_entities: usize, p: usize, config: &TrainConfig) -> Self {
        let n_chunks = config.batch_size.div_ceil(GRAD_CHUNK).max(1);
        let max_touched =
            (2 * config.batch_size * (1 + config.strategy.neg.train)).min(n_entities).max(1);
        let slot = || PrefetchSlot {
            chunks: (0..n_chunks).map(|_| ChunkScratch::new(dim)).collect(),
            local_tab: EmbeddingTable::zeros(max_touched, dim),
            touched: Vec::new(),
            g2l: vec![NO_SLOT; n_entities],
            class: vec![CLASS_REMOTE; max_touched],
            req_ids: (0..p).map(|_| Vec::new()).collect(),
            anchor_s: 0.0,
            batch_idx: 0,
            bs: 0,
            n_chunks: 0,
            live: false,
        };
        PrefetchRing {
            slots: [slot(), slot()],
            cur: 0,
            req_stash: (0..p).map(|_| Vec::new()).collect(),
            pending_push: PendingPush {
                anchor_s: 0.0,
                items: Vec::new(),
                live: false,
            },
        }
    }

    /// Drop every in-flight slot and deferred charge: the epoch-boundary
    /// drain, and crash recovery (where the shrunken world also drops the
    /// undelivered messages themselves, so nothing dangles).
    pub fn reset(&mut self) {
        for slot in self.slots.iter_mut() {
            if slot.live {
                for &id in &slot.touched {
                    slot.g2l[id as usize] = NO_SLOT;
                }
            }
            slot.live = false;
        }
        self.cur = 0;
        for s in self.req_stash.iter_mut() {
            s.clear();
        }
        self.pending_push.items.clear();
        self.pending_push.live = false;
    }

    /// Shrink/regrow the per-peer buffer sets after a world-size change.
    pub fn resize_world(&mut self, p: usize) {
        for slot in self.slots.iter_mut() {
            slot.req_ids.resize_with(p, Vec::new);
        }
        self.req_stash.resize_with(p, Vec::new);
    }
}

// --- Shared batch phases ----------------------------------------------
//
// The synchronous step and the prefetch pipeline run the *same*
// arithmetic in the same order; these helpers are the verbatim phases of
// the original `sharded_batch_step`, extracted so both paths share them.

/// Batch extent: `(examples, chunks)`.
fn batch_shape(config: &TrainConfig, shard: &[Triple]) -> (usize, usize) {
    if shard.is_empty() {
        (0, 0)
    } else {
        let bs = config.batch_size.min(shard.len());
        (bs, bs.div_ceil(GRAD_CHUNK))
    }
}

/// Stage every chunk (sampling only; placeholder tables, corruption
/// range = the global entity count).
#[allow(clippy::too_many_arguments)]
fn stage_batch(
    model: &dyn KgeModel,
    local_tab: &EmbeddingTable,
    rel: &EmbeddingTable,
    n_entities: usize,
    shard: &[Triple],
    config: &TrainConfig,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    rank: usize,
    epoch: usize,
    batch_idx: usize,
    bs: usize,
    n_chunks: usize,
    chunks: &mut [ChunkScratch],
) {
    let start = batch_idx * config.batch_size;
    for (c, chunk) in chunks.iter_mut().enumerate().take(n_chunks) {
        let lo = c * GRAD_CHUNK;
        let hi = (lo + GRAD_CHUNK).min(bs);
        stage_chunk(
            model,
            local_tab,
            rel,
            n_entities,
            shard,
            start,
            lo,
            hi,
            config,
            filter,
            bias,
            chunk_seed(config.seed, rank, epoch, batch_idx, c),
            chunk,
        );
    }
}

/// Touched union + local-id map.
fn build_touched(
    chunks: &[ChunkScratch],
    n_chunks: usize,
    touched: &mut Vec<u32>,
    g2l: &mut [u32],
    cap_rows: usize,
) {
    touched.clear();
    for c in chunks.iter().take(n_chunks) {
        for &(h, _, t) in &c.triples {
            touched.push(h);
            touched.push(t);
        }
    }
    touched.sort_unstable();
    touched.dedup();
    debug_assert!(touched.len() <= cap_rows);
    for (li, &id) in touched.iter().enumerate() {
        g2l[id as usize] = li as u32;
    }
}

/// Remap triples to batch-local entity ids, counting cache hits per
/// touch while the global ids are still in hand.
fn remap_and_count(
    chunks: &mut [ChunkScratch],
    n_chunks: usize,
    g2l: &[u32],
    store: &mut ShardedStore,
) {
    for c in chunks.iter_mut().take(n_chunks) {
        for tr in c.triples.iter_mut() {
            let (h, r, t) = *tr;
            store.count_touch(h);
            store.count_touch(t);
            *tr = (g2l[h as usize], r, g2l[t as usize]);
        }
    }
}

/// Compute chunks in parallel (fixed chunk structure, chunk-ordered
/// merge — thread-count independent), then merge. Returns
/// `(loss, examples)`.
#[allow(clippy::too_many_arguments)]
fn compute_and_merge(
    ctx: &mut NodeCtx,
    model: &dyn KgeModel,
    config: &TrainConfig,
    chunks: &mut [ChunkScratch],
    n_chunks: usize,
    local_tab: &EmbeddingTable,
    rel: &EmbeddingTable,
    inv_batch: f32,
    ent_grad: &mut SparseGrad,
    rel_grad: &mut SparseGrad,
) -> (f64, usize) {
    {
        let chunks = &mut chunks[..n_chunks];
        let ptr = SendPtr(chunks.as_mut_ptr());
        rayon::par_for_each_index(n_chunks, |c| {
            // SAFETY: each index is claimed by exactly one worker, so the
            // &mut aliases are disjoint.
            let cs = unsafe { ptr.at(c) };
            compute_chunk(model, local_tab, rel, inv_batch, config, cs);
        });
    }
    ent_grad.clear();
    rel_grad.clear();
    let mut loss = 0.0f64;
    let mut examples = 0usize;
    for (c, cs) in chunks.iter_mut().take(n_chunks).enumerate() {
        loss += cs.loss;
        examples += cs.examples;
        fold_chunk(c, cs, ent_grad, rel_grad);
    }
    ctx.comm_mut()
        .clock_mut()
        .charge_flops(examples as f64 * model.score_flops() * 3.0);
    (loss, examples)
}

/// Split the entity gradient: hot-set rows into the shared all-gather
/// payload (ascending global id), cold rows encoded per owner with the
/// own-rank bucket kept locally. Encoding never touches the clock, so
/// separating it from the sends is charge-identical.
fn encode_entity_grads(
    store: &ShardedStore,
    touched: &[u32],
    ent_grad: &SparseGrad,
    dim: usize,
    hot_send: &mut Vec<u8>,
    cold_wire: &mut [Vec<u8>],
    p: usize,
) {
    {
        let mut hot_enc = RowEncoder::new(WireFormat::F32, dim, hot_send);
        for (lid, g) in ent_grad.iter_sorted() {
            let id = touched[lid as usize];
            if store.is_eligible(id) {
                hot_enc.push_f32(id, g).expect("hot gradient row");
            }
        }
        hot_enc.finish();
    }
    for (dst, wire) in cold_wire.iter_mut().enumerate().take(p) {
        let mut enc = RowEncoder::new(WireFormat::F32, dim, wire);
        for (lid, g) in ent_grad.iter_sorted() {
            let id = touched[lid as usize];
            if !store.is_eligible(id) && store.owner_of(id) == dst {
                enc.push_f32(id, g).expect("cold gradient row");
            }
        }
        enc.finish();
    }
}

/// Hot exchange: all-gather the hot payloads, decode in ascending rank
/// order, and scale by 1/p — the replica gather-decode arithmetic.
fn hot_exchange(
    ctx: &mut NodeCtx,
    hot_send: &[u8],
    hot_recv: &mut Vec<u8>,
    hot_counts: &mut Vec<usize>,
    hot_agg: &mut SparseGrad,
    p: usize,
    dim: usize,
) -> Result<(), SimError> {
    ctx.comm_mut().allgatherv_bytes_into(hot_send, hot_recv, hot_counts)?;
    hot_agg.clear();
    let mut gathered = 0usize;
    let mut off = 0usize;
    for &c in hot_counts.iter() {
        gathered += add_payload_into(&hot_recv[off..off + c], hot_agg, "hot payload");
        off += c;
    }
    hot_agg.scale(1.0 / p as f32);
    hot_agg.ensure_sorted();
    ctx.comm_mut()
        .clock_mut()
        .charge_flops((gathered * dim) as f64);
    Ok(())
}

/// Relation exchange — byte-for-byte the replica trainer's plain
/// all-gather arm.
fn relation_exchange(
    ctx: &mut NodeCtx,
    rng: &mut StdRng,
    rel_grad: &mut SparseGrad,
    gather: &mut crate::exchange::GatherBufs,
    rel_agg: &mut SparseGrad,
    dim: usize,
) -> Result<(), SimError> {
    rel_grad.ensure_sorted();
    let stats = crate::exchange::exchange_allgather_into(
        ctx.comm_mut(),
        rel_grad,
        dim,
        QuantScheme::None,
        None,
        rng,
        gather,
        rel_agg,
    )?;
    ctx.comm_mut()
        .clock_mut()
        .charge_flops((stats.rows_gathered * dim) as f64);
    Ok(())
}

/// Apply the aggregates: cached rows step replicated everywhere;
/// eligible-uncached rows step on the owner's arena; cold rows step on
/// the owner's arena from the p2p aggregate; relation rows mirror the
/// replica's lazy path.
#[allow(clippy::too_many_arguments)]
fn apply_updates(
    ctx: &mut NodeCtx,
    store: &mut ShardedStore,
    rel: &mut EmbeddingTable,
    rel_opt: &mut dyn RowOptimizer,
    hot_agg: &SparseGrad,
    cold_agg: &SparseGrad,
    rel_agg: &mut SparseGrad,
    lr: f32,
    lr_scale: f32,
    dim: usize,
) {
    let mut stepped = 0usize;
    for (id, g) in hot_agg.iter_sorted() {
        if store.is_cached(id) {
            store.step_cached(id, g, lr);
            stepped += 1;
        } else if store.is_owned(id) {
            store.step_owned(id, g, lr);
            stepped += 1;
        }
    }
    for (id, g) in cold_agg.iter_sorted() {
        debug_assert!(store.is_owned(id), "cold push routed to non-owner");
        store.step_owned(id, g, lr);
        stepped += 1;
    }
    ctx.comm_mut()
        .clock_mut()
        .charge_flops((stepped * dim * ADAM_FLOPS_PER_ELEM) as f64);
    rel_agg.ensure_sorted();
    ctx.comm_mut()
        .clock_mut()
        .charge_flops(rel_opt.lazy_step_flops(rel_agg.nnz()));
    rel_opt.step_lazy(rel, rel_agg, lr_scale);
}

/// Cache admission/eviction, driven only by the shared hot stream so
/// every rank transitions identically. The optional sink captures
/// evictions for a launched-but-unused prefetch slot.
fn admission(
    store: &mut ShardedStore,
    hot_agg: &SparseGrad,
    admit_ids: &mut Vec<u32>,
    tick: u64,
    sink: &mut Option<EvictSink<'_>>,
) {
    admit_ids.clear();
    for (id, _) in hot_agg.iter_sorted() {
        if store.is_cached(id) {
            store.bump(id, tick);
        } else if store.is_eligible(id) && store.capacity() > 0 {
            admit_ids.push(id);
        }
    }
    for &id in admit_ids.iter() {
        store.admit_with_sink(id, tick, sink);
    }
}

/// Admission sync: owners publish post-update state for their newly
/// admitted rows; `admit_ids` is a shared quantity, so skipping the
/// collective when it is empty is itself collective.
#[allow(clippy::too_many_arguments)]
fn admission_sync(
    ctx: &mut NodeCtx,
    store: &mut ShardedStore,
    admit_ids: &[u32],
    adm_send: &mut Vec<u8>,
    adm_recv: &mut Vec<u8>,
    adm_counts: &mut Vec<usize>,
    row_buf: &mut [f32],
    dim: usize,
) -> Result<(), SimError> {
    if admit_ids.is_empty() {
        return Ok(());
    }
    adm_send.clear();
    for &id in admit_ids {
        if store.is_owned(id) && store.is_cached(id) && !store.is_synced(id) {
            store.read_owned_into(id, row_buf);
            adm_send.extend_from_slice(&id.to_le_bytes());
            let (m, v, t) = store.owned_state(id);
            adm_send.extend_from_slice(&t.to_le_bytes());
            for &x in row_buf.iter() {
                adm_send.extend_from_slice(&x.to_le_bytes());
            }
            for &x in m {
                adm_send.extend_from_slice(&x.to_le_bytes());
            }
            for &x in v {
                adm_send.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    ctx.comm_mut().allgatherv_bytes_into(adm_send, adm_recv, adm_counts)?;
    let rec = 8 + 12 * dim;
    debug_assert_eq!(adm_recv.len() % rec, 0);
    let mut off = 0usize;
    while off + rec <= adm_recv.len() {
        let b = &adm_recv[off..off + rec];
        let id = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let t = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        // Decode the three dim-length f32 runs into the shared row
        // buffer one at a time to stay allocation-free.
        let f32_at = |base: usize, k: usize| {
            let o = base + 4 * k;
            f32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
        };
        for (k, slot) in row_buf.iter_mut().enumerate().take(dim) {
            *slot = f32_at(8, k);
        }
        // Fill value, then moments, directly through a dedicated entry
        // point so the store can keep its fields private.
        store.fill_admitted_from_wire(id, t, row_buf, b, dim, f32_at);
        off += rec;
    }
    Ok(())
}

/// Run one full sharded batch: stage → pull → compute → exchange → push
/// → apply → cache admission. Returns `(loss, examples, nonzero_rows,
/// rows_sent)`; a `RankCrashed` from any collective propagates so the
/// epoch loop can run the recovery policy.
///
/// Public so the allocation-regression test drives the exact code the
/// sharded trainer runs.
#[allow(clippy::too_many_arguments)]
pub fn sharded_batch_step(
    ctx: &mut NodeCtx,
    model: &dyn KgeModel,
    config: &TrainConfig,
    store: &mut ShardedStore,
    rel: &mut EmbeddingTable,
    rel_opt: &mut dyn RowOptimizer,
    shard: &[Triple],
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    bufs: &mut ShardedBufs,
    rng: &mut StdRng,
    epoch: usize,
    batch_idx: usize,
    tick: u64,
    lr_scale: f32,
) -> Result<(f64, usize, usize, usize), SimError> {
    let rank = ctx.rank();
    let p = ctx.size();
    let dim = store.dim;
    let n_entities = store.n_entities;
    let (bs, n_chunks) = batch_shape(config, shard);
    let inv_batch = if bs > 0 {
        1.0f32 / (bs * (1 + config.strategy.neg.train)) as f32
    } else {
        0.0
    };

    // --- Phase 1: stage every chunk (sampling only; placeholder tables,
    // corruption range = the global entity count). ----------------------
    stage_batch(
        model,
        &bufs.local_tab,
        rel,
        n_entities,
        shard,
        config,
        filter,
        bias,
        rank,
        epoch,
        batch_idx,
        bs,
        n_chunks,
        &mut bufs.chunks,
    );

    // --- Phase 2: touched union + local-id map. -------------------------
    let cap_rows = bufs.local_tab.rows();
    build_touched(&bufs.chunks, n_chunks, &mut bufs.touched, &mut bufs.g2l, cap_rows);

    // --- Phase 3: fill the batch-local table — cache, then own arena,
    // then a pull request to the owner. ----------------------------------
    for v in bufs.req_ids.iter_mut() {
        v.clear();
    }
    for (li, &id) in bufs.touched.iter().enumerate() {
        if store.is_cached(id) || store.is_owned(id) {
            store.read_resident_into(id, bufs.local_tab.row_mut(li));
        } else {
            bufs.req_ids[store.owner_of(id)].push(id);
        }
    }

    // --- Phase 4: sparse pull. Request/response over `ShardPull`, made
    // deadlock-free by async deposit: every rank first sends all its
    // requests (possibly empty, to keep the protocol uniform), then
    // serves incoming requests in ascending source order, then decodes
    // responses in the same order. Per-pair FIFO guarantees a peer's
    // request is received before its response. -----------------------
    if p > 1 {
        let lane_t0 = ctx.comm().clock().now_s();
        for dst in 0..p {
            if dst == rank {
                continue;
            }
            bufs.req_wire.clear();
            for &id in &bufs.req_ids[dst] {
                bufs.req_wire.extend_from_slice(&id.to_le_bytes());
            }
            ctx.comm_mut()
                .send_bytes_as(dst, &bufs.req_wire, Collective::ShardPull)?;
        }
        for src in 0..p {
            if src == rank {
                continue;
            }
            let msg = ctx.comm_mut().recv_bytes_from_as(src, Collective::ShardPull)?;
            {
                let mut enc = RowEncoder::new(WireFormat::F32, dim, &mut bufs.resp_wire);
                for c in msg.payload.chunks_exact(4) {
                    let id = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    store.read_owned_into(id, &mut bufs.row_buf);
                    enc.push_f32(id, &bufs.row_buf).expect("pull response row");
                }
                enc.finish();
            }
            ctx.comm_mut()
                .send_bytes_as(src, &bufs.resp_wire, Collective::ShardPull)?;
        }
        let mut pulled = 0usize;
        for src in 0..p {
            if src == rank {
                continue;
            }
            let msg = ctx.comm_mut().recv_bytes_from_as(src, Collective::ShardPull)?;
            let mut dec = RowDecoder::new(&msg.payload).expect("pull response payload");
            while let Some(r) = dec.next_row() {
                let r = r.expect("pull response payload");
                let li = bufs.g2l[r.row as usize];
                r.dequantize_into(bufs.local_tab.row_mut(li as usize));
                pulled += 1;
            }
        }
        // Lane seconds are a clock delta (idle + visible occupancy), not
        // an extra charge — the clock trajectory is untouched.
        bufs.lane.pull_s += ctx.comm().clock().now_s() - lane_t0;
        // Dequantize-on-pull cost (encode + decode passes).
        ctx.comm_mut()
            .clock_mut()
            .charge_flops((pulled * dim * 2) as f64);
    }

    // --- Phase 5: remap triples to batch-local entity ids, counting
    // cache hits per touch while the global ids are still in hand. ----
    remap_and_count(&mut bufs.chunks, n_chunks, &bufs.g2l, store);

    // --- Phase 6: compute chunks in parallel (fixed chunk structure,
    // chunk-ordered merge — thread-count independent), then merge. ----
    let (loss, examples) = compute_and_merge(
        ctx,
        model,
        config,
        &mut bufs.chunks,
        n_chunks,
        &bufs.local_tab,
        rel,
        inv_batch,
        &mut bufs.ent_grad,
        &mut bufs.rel_grad,
    );
    let nonzero_rows = bufs.ent_grad.rows_above_norm(ZERO_ROW_EPS);
    bufs.ent_grad.ensure_sorted();
    let rows_sent = bufs.ent_grad.nnz();

    // --- Phase 7: split the entity gradient. Hot-set rows ride a shared
    // all-gather (ascending global id — ent_grad is sorted by local id
    // and the local order is the global-sorted touched order); cold rows
    // are encoded per owner, the own-rank bucket kept locally. --------
    encode_entity_grads(
        store,
        &bufs.touched,
        &bufs.ent_grad,
        dim,
        &mut bufs.hot_send,
        &mut bufs.cold_wire,
        p,
    );
    {
        let lane_t0 = ctx.comm().clock().now_s();
        for dst in 0..p {
            if dst != rank {
                ctx.comm_mut()
                    .send_bytes_as(dst, &bufs.cold_wire[dst], Collective::ShardPush)?;
            }
        }
        bufs.lane.push_s += ctx.comm().clock().now_s() - lane_t0;
    }

    // --- Phase 8: hot exchange. Decode in ascending rank order and
    // scale by 1/p — the replica gather-decode arithmetic exactly. ----
    hot_exchange(
        ctx,
        &bufs.hot_send,
        &mut bufs.hot_recv,
        &mut bufs.hot_counts,
        &mut bufs.hot_agg,
        p,
        dim,
    )?;

    // --- Phase 9: relation exchange — byte-for-byte the replica
    // trainer's plain all-gather arm. ---------------------------------
    relation_exchange(ctx, rng, &mut bufs.rel_grad, &mut bufs.gather, &mut bufs.rel_agg, dim)?;

    // --- Phase 10: cold aggregation at owners. Ascending source order
    // with the local contribution spliced at this rank's position keeps
    // the f32 sum order identical to the replica decode. --------------
    bufs.cold_agg.clear();
    let lane_t0 = ctx.comm().clock().now_s();
    for src in 0..p {
        if src == rank {
            add_payload_into(&bufs.cold_wire[rank], &mut bufs.cold_agg, "cold payload");
        } else {
            let msg = ctx.comm_mut().recv_bytes_from_as(src, Collective::ShardPush)?;
            add_payload_into(&msg.payload, &mut bufs.cold_agg, "cold payload");
        }
    }
    bufs.lane.push_s += ctx.comm().clock().now_s() - lane_t0;
    bufs.cold_agg.scale(1.0 / p as f32);
    bufs.cold_agg.ensure_sorted();

    // --- Phase 11: apply. Cached rows step replicated everywhere;
    // eligible-uncached rows step on the owner's arena; cold rows step
    // on the owner's arena from the p2p aggregate. Relation rows mirror
    // the replica's lazy path. ----------------------------------------
    let lr = config.base_lr * lr_scale;
    apply_updates(
        ctx,
        store,
        rel,
        rel_opt,
        &bufs.hot_agg,
        &bufs.cold_agg,
        &mut bufs.rel_agg,
        lr,
        lr_scale,
        dim,
    );

    // --- Phase 12: cache admission/eviction, driven only by the shared
    // hot stream so every rank transitions identically. ----------------
    admission(store, &bufs.hot_agg, &mut bufs.admit_ids, tick, &mut None);

    // --- Phase 13: admission sync. ------------------------------------
    admission_sync(
        ctx,
        store,
        &bufs.admit_ids,
        &mut bufs.adm_send,
        &mut bufs.adm_recv,
        &mut bufs.adm_counts,
        &mut bufs.row_buf,
        dim,
    )?;

    // --- Phase 14: reset the touched map entries for the next batch. --
    for &id in &bufs.touched {
        bufs.g2l[id as usize] = NO_SLOT;
    }

    Ok((loss, examples, nonzero_rows, rows_sent))
}

// --- Prefetch pipeline -------------------------------------------------

/// Stage, classify, and request `batch_idx` into `slot` — the launch
/// half of the prefetch pipeline. Requests go out immediately (anchored
/// at the pre-send clock) so their responses can drain behind whatever
/// the rank does next; resident rows are *not* read yet — owned and
/// cached rows are filled at use time so they observe every update up to
/// the batch before this one, exactly like the synchronous path.
#[allow(clippy::too_many_arguments)]
fn prefetch_launch(
    ctx: &mut NodeCtx,
    model: &dyn KgeModel,
    config: &TrainConfig,
    store: &ShardedStore,
    rel: &EmbeddingTable,
    shard: &[Triple],
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    slot: &mut PrefetchSlot,
    req_wire: &mut Vec<u8>,
    lane: &mut LaneTimes,
    epoch: usize,
    batch_idx: usize,
) -> Result<(), SimError> {
    let rank = ctx.rank();
    let p = ctx.size();
    let (bs, n_chunks) = batch_shape(config, shard);
    stage_batch(
        model,
        &slot.local_tab,
        rel,
        store.n_entities,
        shard,
        config,
        filter,
        bias,
        rank,
        epoch,
        batch_idx,
        bs,
        n_chunks,
        &mut slot.chunks,
    );
    let cap_rows = slot.local_tab.rows();
    build_touched(&slot.chunks, n_chunks, &mut slot.touched, &mut slot.g2l, cap_rows);
    for v in slot.req_ids.iter_mut() {
        v.clear();
    }
    for (li, &id) in slot.touched.iter().enumerate() {
        slot.class[li] = if store.is_cached(id) {
            CLASS_CACHED
        } else if store.is_owned(id) {
            CLASS_OWNED
        } else {
            slot.req_ids[store.owner_of(id)].push(id);
            CLASS_REMOTE
        };
    }
    slot.anchor_s = ctx.comm().clock().now_s();
    if p > 1 {
        for dst in 0..p {
            if dst == rank {
                continue;
            }
            req_wire.clear();
            for &id in &slot.req_ids[dst] {
                req_wire.extend_from_slice(&id.to_le_bytes());
            }
            ctx.comm_mut().send_bytes_as(dst, req_wire, Collective::ShardPull)?;
        }
        lane.pull_s += ctx.comm().clock().now_s() - slot.anchor_s;
    }
    slot.batch_idx = batch_idx;
    slot.bs = bs;
    slot.n_chunks = n_chunks;
    slot.live = true;
    Ok(())
}

/// Settle `slot`'s prefetched pull responses — receive with overlap
/// pricing against the launch anchor, decode remote rows — then fill
/// resident rows at use time (limbo rows were captured at eviction).
fn prefetch_settle_pulls(
    ctx: &mut NodeCtx,
    store: &ShardedStore,
    slot: &mut PrefetchSlot,
    lane: &mut LaneTimes,
) -> Result<(), SimError> {
    let rank = ctx.rank();
    let p = ctx.size();
    let dim = store.dim;
    if p > 1 {
        let lane_t0 = ctx.comm().clock().now_s();
        let mut hidden = 0.0f64;
        let mut pulled = 0usize;
        for src in 0..p {
            if src == rank {
                continue;
            }
            let (msg, stats) = ctx.comm_mut().recv_bytes_from_as_overlapped(
                src,
                Collective::ShardPull,
                slot.anchor_s,
            )?;
            hidden += stats.hidden_s;
            let mut dec = RowDecoder::new(&msg.payload).expect("pull response payload");
            while let Some(r) = dec.next_row() {
                let r = r.expect("pull response payload");
                let li = slot.g2l[r.row as usize];
                r.dequantize_into(slot.local_tab.row_mut(li as usize));
                pulled += 1;
            }
        }
        lane.pull_s += ctx.comm().clock().now_s() - lane_t0;
        lane.hidden_pull_s += hidden;
        ctx.comm_mut()
            .clock_mut()
            .charge_flops((pulled * dim * 2) as f64);
    }
    for (li, &id) in slot.touched.iter().enumerate() {
        match slot.class[li] {
            CLASS_OWNED => store.read_resident_into(id, slot.local_tab.row_mut(li)),
            CLASS_CACHED => {
                debug_assert!(store.is_cached(id), "cached-class row lost without limbo capture");
                store.read_resident_into(id, slot.local_tab.row_mut(li));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Serve stashed pull requests in ascending source order, encoding the
/// owner's *current* arena state — the same point in the update sequence
/// the synchronous path serves from.
fn serve_requests(
    ctx: &mut NodeCtx,
    store: &ShardedStore,
    req_stash: &[Vec<u8>],
    resp_wire: &mut Vec<u8>,
    row_buf: &mut [f32],
    lane: &mut LaneTimes,
) -> Result<(), SimError> {
    let rank = ctx.rank();
    let p = ctx.size();
    let dim = store.dim;
    let lane_t0 = ctx.comm().clock().now_s();
    for (src, payload) in req_stash.iter().enumerate().take(p) {
        if src == rank {
            continue;
        }
        {
            let mut enc = RowEncoder::new(WireFormat::F32, dim, resp_wire);
            for c in payload.chunks_exact(4) {
                let id = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                store.read_owned_into(id, row_buf);
                enc.push_f32(id, row_buf).expect("pull response row");
            }
            enc.finish();
        }
        ctx.comm_mut().send_bytes_as(src, resp_wire, Collective::ShardPull)?;
    }
    lane.pull_s += ctx.comm().clock().now_s() - lane_t0;
    Ok(())
}

/// Settle the deferred cold-push charges against the window that opened
/// at their send anchor (called right after the next batch's compute,
/// and at the epoch drain).
fn settle_pending_push(ctx: &mut NodeCtx, pending: &mut PendingPush, lane: &mut LaneTimes) {
    if !pending.live {
        return;
    }
    let lane_t0 = ctx.comm().clock().now_s();
    let mut hidden = 0.0f64;
    for &(arrival_s, bytes) in pending.items.iter() {
        let stats = ctx.comm_mut().charge_p2p_deferred(
            Collective::ShardPush,
            arrival_s,
            bytes,
            pending.anchor_s,
        );
        hidden += stats.hidden_s;
    }
    lane.push_s += ctx.comm().clock().now_s() - lane_t0;
    lane.hidden_push_s += hidden;
    pending.items.clear();
    pending.live = false;
}

/// Prime the prefetch ring at an epoch boundary: launch batch 0's slot,
/// then run the request/serve round synchronously — there is no earlier
/// batch to hide it behind, so it is priced like the synchronous path.
#[allow(clippy::too_many_arguments)]
pub fn sharded_epoch_prefetch_begin(
    ctx: &mut NodeCtx,
    model: &dyn KgeModel,
    config: &TrainConfig,
    store: &ShardedStore,
    rel: &EmbeddingTable,
    shard: &[Triple],
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    bufs: &mut ShardedBufs,
    ring: &mut PrefetchRing,
    epoch: usize,
    n_batches: usize,
) -> Result<(), SimError> {
    if n_batches == 0 {
        return Ok(());
    }
    ring.cur = 0;
    prefetch_launch(
        ctx,
        model,
        config,
        store,
        rel,
        shard,
        filter,
        bias,
        &mut ring.slots[0],
        &mut bufs.req_wire,
        &mut bufs.lane,
        epoch,
        0,
    )?;
    let rank = ctx.rank();
    let p = ctx.size();
    if p > 1 {
        let lane_t0 = ctx.comm().clock().now_s();
        for src in 0..p {
            if src == rank {
                continue;
            }
            let msg = ctx.comm_mut().recv_bytes_from_as(src, Collective::ShardPull)?;
            ring.req_stash[src].clear();
            ring.req_stash[src].extend_from_slice(&msg.payload);
        }
        bufs.lane.pull_s += ctx.comm().clock().now_s() - lane_t0;
        serve_requests(ctx, store, &ring.req_stash, &mut bufs.resp_wire, &mut bufs.row_buf, &mut bufs.lane)?;
    }
    Ok(())
}

/// One batch of the prefetch pipeline. The arithmetic — staging seeds,
/// touched order, gradient summation, admission stream — is identical to
/// [`sharded_batch_step`]; only *when* rows move changes: this batch's
/// pulls were requested a batch ago and settle behind the window that
/// has been open since, the next batch launches before compute, and the
/// previous batch's push charges settle after this compute.
#[allow(clippy::too_many_arguments)]
pub fn sharded_batch_step_prefetch(
    ctx: &mut NodeCtx,
    model: &dyn KgeModel,
    config: &TrainConfig,
    store: &mut ShardedStore,
    rel: &mut EmbeddingTable,
    rel_opt: &mut dyn RowOptimizer,
    shard: &[Triple],
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    bufs: &mut ShardedBufs,
    ring: &mut PrefetchRing,
    rng: &mut StdRng,
    epoch: usize,
    batch_idx: usize,
    n_batches: usize,
    tick: u64,
    lr_scale: f32,
) -> Result<(f64, usize, usize, usize), SimError> {
    let rank = ctx.rank();
    let p = ctx.size();
    let dim = store.dim;
    let cur = ring.cur;
    let nxt = cur ^ 1;
    debug_assert!(
        ring.slots[cur].live && ring.slots[cur].batch_idx == batch_idx,
        "prefetch ring out of step"
    );
    let next_live = batch_idx + 1 < n_batches;

    // --- A: settle this batch's prefetched pulls, fill resident rows. --
    prefetch_settle_pulls(ctx, store, &mut ring.slots[cur], &mut bufs.lane)?;

    // --- B: launch the next batch while this one computes. -------------
    if next_live {
        prefetch_launch(
            ctx,
            model,
            config,
            store,
            rel,
            shard,
            filter,
            bias,
            &mut ring.slots[nxt],
            &mut bufs.req_wire,
            &mut bufs.lane,
            epoch,
            batch_idx + 1,
        )?;
    }

    // --- C/D: remap + count, compute + merge (identical arithmetic). ---
    let (bs, n_chunks) = (ring.slots[cur].bs, ring.slots[cur].n_chunks);
    let inv_batch = if bs > 0 {
        1.0f32 / (bs * (1 + config.strategy.neg.train)) as f32
    } else {
        0.0
    };
    let (loss, examples) = {
        let slot = &mut ring.slots[cur];
        remap_and_count(&mut slot.chunks, n_chunks, &slot.g2l, store);
        compute_and_merge(
            ctx,
            model,
            config,
            &mut slot.chunks,
            n_chunks,
            &slot.local_tab,
            rel,
            inv_batch,
            &mut bufs.ent_grad,
            &mut bufs.rel_grad,
        )
    };
    let nonzero_rows = bufs.ent_grad.rows_above_norm(ZERO_ROW_EPS);
    bufs.ent_grad.ensure_sorted();
    let rows_sent = bufs.ent_grad.nnz();

    // --- E: the previous batch's cold pushes have had a full compute
    // phase to drain behind — settle their deferred charges now. --------
    settle_pending_push(ctx, &mut ring.pending_push, &mut bufs.lane);

    // --- F: encode hot + cold gradients; cold pushes go out now and are
    // priced on the receiver against this anchor. -----------------------
    encode_entity_grads(
        store,
        &ring.slots[cur].touched,
        &bufs.ent_grad,
        dim,
        &mut bufs.hot_send,
        &mut bufs.cold_wire,
        p,
    );
    ring.pending_push.anchor_s = ctx.comm().clock().now_s();
    {
        for dst in 0..p {
            if dst != rank {
                ctx.comm_mut()
                    .send_bytes_as(dst, &bufs.cold_wire[dst], Collective::ShardPush)?;
            }
        }
        bufs.lane.push_s += ctx.comm().clock().now_s() - ring.pending_push.anchor_s;
    }

    // --- G: hot exchange; H: relation exchange (unchanged collectives).
    hot_exchange(
        ctx,
        &bufs.hot_send,
        &mut bufs.hot_recv,
        &mut bufs.hot_counts,
        &mut bufs.hot_agg,
        p,
        dim,
    )?;
    relation_exchange(ctx, rng, &mut bufs.rel_grad, &mut bufs.gather, &mut bufs.rel_agg, dim)?;

    // --- I: cold aggregation. Per-pair FIFO puts the peer's *request*
    // for the next batch (sent at its launch, before its push) ahead in
    // the mailbox — pop and stash it first, then consume the push
    // payload unpriced, deferring its occupancy to the next window. -----
    bufs.cold_agg.clear();
    for src in 0..p {
        if src == rank {
            add_payload_into(&bufs.cold_wire[rank], &mut bufs.cold_agg, "cold payload");
            continue;
        }
        if next_live {
            let lane_t0 = ctx.comm().clock().now_s();
            let msg = ctx.comm_mut().recv_bytes_from_as(src, Collective::ShardPull)?;
            bufs.lane.pull_s += ctx.comm().clock().now_s() - lane_t0;
            ring.req_stash[src].clear();
            ring.req_stash[src].extend_from_slice(&msg.payload);
        }
        let msg = ctx
            .comm_mut()
            .recv_bytes_from_as_unpriced(src, Collective::ShardPush)?;
        ring.pending_push.items.push((msg.arrival_s, msg.payload.len()));
        add_payload_into(&msg.payload, &mut bufs.cold_agg, "cold payload");
    }
    ring.pending_push.live = !ring.pending_push.items.is_empty();
    bufs.cold_agg.scale(1.0 / p as f32);
    bufs.cold_agg.ensure_sorted();

    // --- J: apply (identical to the synchronous phase 11). -------------
    let lr = config.base_lr * lr_scale;
    apply_updates(
        ctx,
        store,
        rel,
        rel_opt,
        &bufs.hot_agg,
        &bufs.cold_agg,
        &mut bufs.rel_agg,
        lr,
        lr_scale,
        dim,
    );

    // --- K: admission, with evictions captured into the launched slot
    // (rows it classified as cached must keep their sync-path value). ---
    {
        let mut sink = if next_live {
            let slot = &mut ring.slots[nxt];
            Some(EvictSink {
                g2l: &slot.g2l,
                class: &mut slot.class,
                local_tab: &mut slot.local_tab,
            })
        } else {
            None
        };
        admission(store, &bufs.hot_agg, &mut bufs.admit_ids, tick, &mut sink);
    }

    // --- L: admission sync (identical collective). ---------------------
    admission_sync(
        ctx,
        store,
        &bufs.admit_ids,
        &mut bufs.adm_send,
        &mut bufs.adm_recv,
        &mut bufs.adm_counts,
        &mut bufs.row_buf,
        dim,
    )?;

    // --- M: serve the stashed requests with post-update rows. ----------
    if next_live && p > 1 {
        serve_requests(ctx, store, &ring.req_stash, &mut bufs.resp_wire, &mut bufs.row_buf, &mut bufs.lane)?;
    }

    // --- N: retire this slot and rotate the ring. ----------------------
    {
        let slot = &mut ring.slots[cur];
        for &id in &slot.touched {
            slot.g2l[id as usize] = NO_SLOT;
        }
        slot.live = false;
    }
    ring.cur = nxt;

    Ok((loss, examples, nonzero_rows, rows_sent))
}

/// Epoch-boundary drain: settle the last batch's deferred push charges
/// and clear the ring (every slot was consumed in order, so nothing else
/// is in flight).
pub fn sharded_epoch_prefetch_drain(
    ctx: &mut NodeCtx,
    bufs: &mut ShardedBufs,
    ring: &mut PrefetchRing,
) {
    settle_pending_push(ctx, &mut ring.pending_push, &mut bufs.lane);
    ring.reset();
}

impl ShardedStore {
    /// Wire-decode helper for the admission sync: `value` is already
    /// decoded; `m`/`v` runs are decoded straight into the cache slot.
    fn fill_admitted_from_wire(
        &mut self,
        id: u32,
        t: u32,
        value: &[f32],
        record: &[u8],
        dim: usize,
        f32_at: impl Fn(usize, usize) -> f32,
    ) {
        let _ = record;
        let slot = self.cache_slot[id as usize];
        if slot == NO_SLOT {
            return;
        }
        let s = slot as usize;
        if self.cache_synced[s] {
            return;
        }
        let d = self.dim;
        debug_assert_eq!(d, dim);
        self.cache_val[s * d..(s + 1) * d].copy_from_slice(value);
        for k in 0..d {
            self.cache_m[s * d + k] = f32_at(8 + 4 * d, k);
            self.cache_v[s * d + k] = f32_at(8 + 8 * d, k);
        }
        self.cache_t[s] = t;
        self.cache_synced[s] = true;
    }
}

/// Per-node outcome of a sharded run.
struct ShardNodeResult {
    report: Option<TrainReport>,
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    wire_sent: u64,
    wire_recv: u64,
    sharded: ShardedReport,
}

/// Entity ownership for a world of `p` ranks, derived from the same
/// triple partition the trainer shards with.
fn owners_for(dataset: &Dataset, p: usize) -> Vec<u32> {
    let part = partition_for(&dataset.train, dataset.n_relations, p, false);
    entity_owners(&part, dataset.n_entities)
}

/// Train `dataset` with partitioned entity storage. Same contract as
/// [`crate::train`] (which delegates here when `config.sharded` is set):
/// returns the lead survivor's report and the assembled final model.
pub fn train_sharded(dataset: &Dataset, cluster: &Cluster, config: &TrainConfig) -> TrainOutcome {
    config.validate().expect("invalid training config");
    dataset.validate().expect("invalid dataset");
    assert!(
        config.sharded.is_some(),
        "train_sharded requires config.sharded"
    );
    let indexes = RunIndexes::build(dataset, config);
    let mut results = cluster.run(|ctx| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(node_pool_threads(ctx.size()))
            .build()
            .expect("node thread pool");
        pool.install(|| run_sharded_node(ctx, dataset, config, &indexes))
    });
    let wire_sent: u64 = results.iter().map(|r| r.wire_sent).sum();
    let wire_recv: u64 = results.iter().map(|r| r.wire_recv).sum();
    let mut agg = ShardedReport::default();
    for r in &results {
        agg.pull_wire_bytes += r.sharded.pull_wire_bytes;
        agg.push_wire_bytes += r.sharded.push_wire_bytes;
        agg.cache_hits += r.sharded.cache_hits;
        agg.cache_accesses += r.sharded.cache_accesses;
        agg.entity_touches += r.sharded.entity_touches;
        agg.resident_model_bytes = agg.resident_model_bytes.max(r.sharded.resident_model_bytes);
        agg.opt_state_bytes = agg.opt_state_bytes.max(r.sharded.opt_state_bytes);
        agg.owned_rows = agg.owned_rows.max(r.sharded.owned_rows);
        agg.replica_model_bytes = r.sharded.replica_model_bytes;
        agg.hot_capacity = r.sharded.hot_capacity;
        agg.eligible_rows = r.sharded.eligible_rows;
        // Lane seconds are per-rank wall occupancy along the epoch's
        // critical path — the cluster-level figure is the slowest rank.
        agg.pull_lane_s = agg.pull_lane_s.max(r.sharded.pull_lane_s);
        agg.push_lane_s = agg.push_lane_s.max(r.sharded.push_lane_s);
        agg.hidden_pull_s = agg.hidden_pull_s.max(r.sharded.hidden_pull_s);
        agg.hidden_push_s = agg.hidden_push_s.max(r.sharded.hidden_push_s);
        agg.prefetch_epochs = agg.prefetch_epochs.max(r.sharded.prefetch_epochs);
    }
    let lead = results
        .iter()
        .position(|r| r.report.is_some())
        .expect("a surviving rank returns the report");
    let lead = results.swap_remove(lead);
    let mut report = lead.report.expect("position() found a report");
    report.wire_bytes_sent = wire_sent;
    report.wire_bytes_recv = wire_recv;
    report.sharded = Some(agg);
    TrainOutcome {
        report,
        entities: lead.entities,
        relations: lead.relations,
    }
}

fn run_sharded_node(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    indexes: &RunIndexes,
) -> ShardNodeResult {
    let scfg = config.sharded.expect("caller checked config.sharded");
    let mut rank = ctx.rank();
    let mut p = ctx.size();
    let initial_p = p;
    let model = config.model.build(config.rank);
    let model: &dyn KgeModel = model.as_ref();
    let dim = model.storage_dim();
    let n_entities = dataset.n_entities;
    let kind = if scfg.cold_int8 {
        ArenaKind::Int8
    } else {
        ArenaKind::F32
    };

    let (mut base_shard, _owned_rels, mut batches_per_epoch) =
        distribute(dataset, false, rank, p, config.batch_size);
    let mut shard = base_shard.clone();
    let (filter, bias) = (&indexes.filter, indexes.bias.as_ref());
    let degrees = dataset.stats().entity_degrees;

    // Identical Xavier init on every rank (entity table drawn before the
    // relation table, matching the replica trainer's stream use); the
    // full entity table is transient — owned rows move into the arena
    // and the replica is dropped before the epoch loop.
    let mut init_rng = StdRng::seed_from_u64(config.seed);
    let ent_init = EmbeddingTable::xavier(n_entities, dim, &mut init_rng);
    let mut rel = EmbeddingTable::xavier(dataset.n_relations, dim, &mut init_rng);
    let mut store = ShardedStore::new(
        kind,
        dim,
        rank,
        owners_for(dataset, p),
        &degrees,
        scfg.hot_cache_rows,
        config.base_lr,
    );
    store.init_owned_from(&ent_init);
    drop(ent_init);

    let mut rel_opt = config
        .optimizer
        .build(config.base_lr, dataset.n_relations, dim);
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
    );
    let shuffler = EpochShuffler::new(config.seed ^ (rank as u64) << 32);
    let mut schedule = PlateauSchedule::new(
        p,
        config.lr_scale_cap,
        config.lr_decay,
        config.plateau_tolerance,
        config.max_lr_drops,
    );
    let mut bufs = ShardedBufs::new(dim, n_entities, p, config);
    let mut ring = if scfg.prefetch == PrefetchMode::Off {
        None
    } else {
        Some(PrefetchRing::new(dim, n_entities, p, config))
    };
    let mut prefetch_sel = PrefetchSelector::new(2);
    let mut prefetch_epochs = 0usize;

    let mut trace: Vec<EpochTrace> = Vec::new();
    let mut converged = false;
    let mut survived = true;
    let mut allgather_epochs = 0usize;
    let mut recoveries = 0usize;
    let mut crashed_ranks: Vec<usize> = Vec::new();
    // Global batch counter: the LRU tick. Shared by construction — every
    // rank increments it on exactly the same (completed) batches.
    let mut tick: u64 = 0;
    let mut epoch = 0usize;

    while epoch < config.max_epochs {
        ctx.comm_mut().barrier();
        let epoch_start = ctx.comm().clock().now_s();
        let bytes_at_start = sharded_bytes_sent(ctx);
        shard.copy_from_slice(&base_shard);
        shuffler.shuffle(&mut shard, epoch as u64);
        allgather_epochs += 1;
        let lr_scale = schedule.lr_scale();
        // The arm is decided at the epoch boundary — every rank computes
        // the same answer (the selector observes the shared simulated
        // clock), so the wire protocol agrees globally for the epoch.
        let use_prefetch = match scfg.prefetch {
            PrefetchMode::Off => false,
            PrefetchMode::On => true,
            PrefetchMode::Dynamic => prefetch_sel.prefetch_arm(),
        };

        let mut epoch_loss = 0.0f64;
        let mut epoch_examples = 0usize;
        let mut nonzero_rows_sum = 0usize;
        let mut rows_sent_sum = 0usize;
        let mut crashed_this_epoch = false;

        if use_prefetch {
            let ring = ring.as_mut().expect("prefetch arm implies a ring");
            match sharded_epoch_prefetch_begin(
                ctx,
                model,
                config,
                &store,
                &rel,
                &shard,
                filter,
                bias,
                &mut bufs,
                ring,
                epoch,
                batches_per_epoch,
            ) {
                Ok(()) => {}
                Err(SimError::RankCrashed { .. }) => crashed_this_epoch = true,
                Err(e) => panic!("sharded prefetch prime: {e}"),
            }
        }

        if !crashed_this_epoch {
            'batches: for b in 0..batches_per_epoch {
                let step = if use_prefetch {
                    sharded_batch_step_prefetch(
                        ctx,
                        model,
                        config,
                        &mut store,
                        &mut rel,
                        rel_opt.as_mut(),
                        &shard,
                        filter,
                        bias,
                        &mut bufs,
                        ring.as_mut().expect("prefetch arm implies a ring"),
                        &mut rng,
                        epoch,
                        b,
                        batches_per_epoch,
                        tick,
                        lr_scale,
                    )
                } else {
                    sharded_batch_step(
                        ctx,
                        model,
                        config,
                        &mut store,
                        &mut rel,
                        rel_opt.as_mut(),
                        &shard,
                        filter,
                        bias,
                        &mut bufs,
                        &mut rng,
                        epoch,
                        b,
                        tick,
                        lr_scale,
                    )
                };
                match step {
                    Ok((loss, examples, nonzero, rows_sent)) => {
                        epoch_loss += loss;
                        epoch_examples += examples;
                        nonzero_rows_sum += nonzero;
                        rows_sent_sum += rows_sent;
                        tick += 1;
                    }
                    Err(SimError::RankCrashed { .. }) => {
                        crashed_this_epoch = true;
                        break 'batches;
                    }
                    Err(e) => panic!("sharded batch step: {e}"),
                }
            }
        }

        if crashed_this_epoch {
            // Aborted epochs yield no trace entry; un-count the tally.
            allgather_epochs -= 1;
            crashed_ranks.extend(ctx.comm().failed_ranks());
            // Discard in-flight prefetch slots and deferred push charges:
            // the shrink replaces the whole post office, so the matching
            // wire messages vanish with the old world — conservation
            // holds because both ends drop together.
            if let Some(r) = ring.as_mut() {
                r.reset();
            }
            if !config.recover_from_crashes {
                break;
            }
            match ctx.comm_mut().shrink() {
                Ok(true) => {
                    recoveries += 1;
                    rank = ctx.rank();
                    p = ctx.size();
                    migrate_after_shrink(ctx, dataset, config, &degrees, kind, &mut store);
                    let (s, _o, b) = distribute(dataset, false, rank, p, config.batch_size);
                    base_shard = s;
                    shard.clone_from(&base_shard);
                    batches_per_epoch = b;
                    bufs.resize_world(p);
                    if let Some(r) = ring.as_mut() {
                        r.resize_world(p);
                    }
                    prefetch_sel.reset();
                    ctx.comm_mut()
                        .clock_mut()
                        .charge_flops((dataset.train.len() * 8) as f64);
                    epoch += 1;
                    continue;
                }
                Ok(false) => {
                    // Sharded mode has no elastic rejoin: the survivors
                    // never re-admit, so this unparks only when the run
                    // ends and the lobby closes.
                    if ctx.comm_mut().await_rejoin().is_some() {
                        panic!("sharded mode does not support elastic rejoin");
                    }
                    survived = false;
                    break;
                }
                Err(e) => panic!("communicator shrink: {e}"),
            }
        }

        // Epoch-boundary ring drain (settles the last batch's deferred
        // push charges), then cache invalidation: owners absorb the cache.
        if use_prefetch {
            sharded_epoch_prefetch_drain(
                ctx,
                &mut bufs,
                ring.as_mut().expect("prefetch arm implies a ring"),
            );
            prefetch_epochs += 1;
        }
        store.flush_epoch();

        // `valid_samples == 0` is enforced by validate(), so the plateau
        // signal is the same constant the replica trainer's
        // `fast_valid_accuracy` returns — the LR/stop trajectory matches.
        let acc = 0.0f64;
        let epoch_time = ctx.comm().clock().now_s() - epoch_start;
        if scfg.prefetch == PrefetchMode::Dynamic {
            prefetch_sel.observe_epoch(epoch_time);
        }
        let batches = batches_per_epoch as f64;
        trace.push(EpochTrace {
            epoch,
            sim_seconds: epoch_time,
            comm: CommChoice::AllGather,
            valid_acc: acc,
            train_loss: if epoch_examples > 0 {
                epoch_loss / epoch_examples as f64
            } else {
                0.0
            },
            lr_scale,
            mean_nonzero_rows: nonzero_rows_sum as f64 / batches,
            mean_rows_sent: rows_sent_sum as f64 / batches,
            rs_sparsity: 0.0,
            bytes_sent: sharded_bytes_sent(ctx) - bytes_at_start,
            ranking: None,
        });
        if matches!(schedule.observe(acc), crate::lr::LrDecision::Converged) {
            converged = true;
            break;
        }
        epoch += 1;
    }

    if survived {
        ctx.comm().close_lobby();
    }

    // --- Final model assembly: a one-shot gather of owned rows over the
    // deterministic init base, so the outcome carries the full table the
    // replica API promises (the one transient full-table allocation the
    // steady state never pays). -----------------------------------------
    let entities = if survived {
        store.flush_epoch();
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        let mut full = EmbeddingTable::xavier(n_entities, dim, &mut init_rng);
        {
            let mut enc = RowEncoder::new(WireFormat::F32, dim, &mut bufs.adm_send);
            for i in 0..store.owned_ids().len() {
                let id = store.owned_ids()[i];
                store.read_owned_into(id, &mut bufs.row_buf);
                enc.push_f32(id, &bufs.row_buf).expect("assembly row");
            }
            enc.finish();
        }
        ctx.comm_mut()
            .allgatherv_bytes_into(&bufs.adm_send, &mut bufs.adm_recv, &mut bufs.adm_counts)
            .expect("final sharded model assembly");
        let mut off = 0usize;
        for &c in bufs.adm_counts.iter() {
            let mut dec = RowDecoder::new(&bufs.adm_recv[off..off + c]).expect("assembly payload");
            off += c;
            while let Some(r) = dec.next_row() {
                let r = r.expect("assembly payload");
                r.dequantize_into(full.row_mut(r.row as usize));
            }
        }
        full
    } else {
        EmbeddingTable::zeros(1, dim)
    };

    let (cache_hits, cache_lookups, entity_touches) = store.hit_counters();
    let tr = ctx.comm().traffic().report();
    let sharded = ShardedReport {
        pull_wire_bytes: tr.bytes_sent(Collective::ShardPull),
        push_wire_bytes: tr.bytes_sent(Collective::ShardPush),
        cache_hits,
        cache_accesses: cache_lookups,
        entity_touches,
        resident_model_bytes: store.resident_model_bytes() + rel.nbytes(),
        replica_model_bytes: (n_entities + dataset.n_relations) * dim * 4,
        opt_state_bytes: store.opt_state_bytes() + 2 * rel.nbytes() + dataset.n_relations * 4,
        hot_capacity: store.capacity(),
        eligible_rows: store.eligible_rows(),
        owned_rows: store.owned_rows(),
        pull_lane_s: bufs.lane.pull_s,
        push_lane_s: bufs.lane.push_s,
        hidden_pull_s: bufs.lane.hidden_pull_s,
        hidden_push_s: bufs.lane.hidden_push_s,
        prefetch_epochs,
    };

    let report = if survived && rank == 0 {
        Some(TrainReport {
            dataset: dataset.name.clone(),
            nodes: initial_p,
            epochs: trace.len(),
            converged,
            sim_total_seconds: ctx.comm().clock().now_s(),
            breakdown: ctx.comm().clock().breakdown(),
            trace: trace.clone(),
            allreduce_epochs: 0,
            allgather_epochs,
            pipelined_epochs: 0,
            surviving_nodes: p,
            recoveries,
            rejoins: 0,
            checkpoints_written: 0,
            crashed_ranks,
            // Filled in by train_sharded(), which sums over every rank.
            wire_bytes_sent: 0,
            wire_bytes_recv: 0,
            sharded: None,
        })
    } else {
        None
    };
    ShardNodeResult {
        report,
        entities,
        relations: rel,
        wire_sent: tr.total_wire_sent(),
        wire_recv: tr.total_wire_recv(),
        sharded,
    }
}

/// Bytes this rank contributed to gradient traffic (collectives plus the
/// sharded pull/push buckets) — the sharded analogue of the replica
/// trainer's per-epoch byte accounting.
fn sharded_bytes_sent(ctx: &NodeCtx) -> u64 {
    let r = ctx.comm().traffic().report();
    r.bytes_sent(Collective::AllGatherV)
        + r.bytes_sent(Collective::ShardPull)
        + r.bytes_sent(Collective::ShardPush)
}

/// Survivor-side state migration after a communicator shrink: harvest
/// everything the survivors hold, exchange owned-and-not-cached rows,
/// rebuild ownership at the new world size, and regenerate rows that
/// died with the crash from the deterministic init (fresh Adam state).
fn migrate_after_shrink(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    degrees: &[usize],
    kind: ArenaKind,
    store: &mut ShardedStore,
) {
    let scfg = config.sharded.expect("sharded migration");
    let rank = ctx.rank();
    let p = ctx.size();
    let dim = store.dim;
    let n = store.n_entities;

    // Transient full-size recovery buffers (migration is rare; the
    // steady-state memory bound does not include this path).
    let mut full_val = vec![0f32; n * dim];
    let mut full_m = vec![0f32; n * dim];
    let mut full_v = vec![0f32; n * dim];
    let mut full_t = vec![0u32; n];
    let mut have = vec![false; n];
    store.export_cache_into(&mut full_val, &mut full_m, &mut full_v, &mut full_t, &mut have);

    // Exchange rows this rank owns that are not globally cached (cached
    // rows are replicated — every survivor already has them). Record:
    // id u32 | t u32 | value | m | v.
    let mut send: Vec<u8> = Vec::new();
    let mut row = vec![0f32; dim];
    for &id in store.owned_ids() {
        let i = id as usize;
        if have[i] {
            continue;
        }
        store.read_owned_into(id, &mut row);
        let (m, v, t) = store.owned_state(id);
        full_val[i * dim..(i + 1) * dim].copy_from_slice(&row);
        full_m[i * dim..(i + 1) * dim].copy_from_slice(m);
        full_v[i * dim..(i + 1) * dim].copy_from_slice(v);
        full_t[i] = t;
        have[i] = true;
        send.extend_from_slice(&id.to_le_bytes());
        send.extend_from_slice(&t.to_le_bytes());
        for &x in row.iter().chain(m).chain(v) {
            send.extend_from_slice(&x.to_le_bytes());
        }
    }
    let mut recv: Vec<u8> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    ctx.comm_mut()
        .allgatherv_bytes_into(&send, &mut recv, &mut counts)
        .expect("a second crash during sharded state migration is unsupported");
    let rec = 8 + 12 * dim;
    let mut off = 0usize;
    while off + rec <= recv.len() {
        let b = &recv[off..off + rec];
        let id = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        full_t[id] = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        for k in 0..dim {
            let f = |base: usize| {
                let o = base + 4 * k;
                f32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
            };
            full_val[id * dim + k] = f(8);
            full_m[id * dim + k] = f(8 + 4 * dim);
            full_v[id * dim + k] = f(8 + 8 * dim);
        }
        have[id] = true;
        off += rec;
    }

    // Rebuild the store at the new world size. Rows nobody recovered
    // (owned by the crashed rank, not cached) restart from the
    // deterministic Xavier init with zero optimizer state — the same
    // "regenerate what died" policy the replica trainer applies to a
    // crashed rank's shard contribution.
    let mut init_rng = StdRng::seed_from_u64(config.seed);
    let ent_init = EmbeddingTable::xavier(n, dim, &mut init_rng);
    let mut new_store = ShardedStore::new(
        kind,
        dim,
        rank,
        owners_for(dataset, p),
        degrees,
        scfg.hot_cache_rows,
        config.base_lr,
    );
    let zeros = vec![0f32; dim];
    for i in 0..new_store.owned_ids().len() {
        let id = new_store.owned_ids()[i];
        let j = id as usize;
        if have[j] {
            new_store.set_owned_row(
                id,
                &full_val[j * dim..(j + 1) * dim],
                &full_m[j * dim..(j + 1) * dim],
                &full_v[j * dim..(j + 1) * dim],
                full_t[j],
            );
        } else {
            new_store.set_owned_row(id, ent_init.row(j), &zeros, &zeros, 0);
        }
    }
    // Carry the hit-rate counters across the rebuild.
    new_store.hits = store.hits;
    new_store.lookups = store.lookups;
    new_store.touches = store.touches;
    *store = new_store;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_admission_eviction_and_writeback() {
        let dim = 2;
        let owners = vec![0u32; 6];
        let degrees = vec![9usize, 8, 7, 6, 2, 1];
        let mut s = ShardedStore::new(ArenaKind::F32, dim, 0, owners, &degrees, 2, 1e-3);
        assert_eq!(s.capacity(), 2);
        assert!(s.is_eligible(0) && s.is_eligible(3));
        assert!(!s.is_eligible(4), "only top 2×capacity rows are eligible");
        // Seed arena rows.
        let mut t = EmbeddingTable::zeros(6, dim);
        t.row_mut(0).copy_from_slice(&[1.0, 1.0]);
        t.row_mut(1).copy_from_slice(&[2.0, 2.0]);
        t.row_mut(2).copy_from_slice(&[3.0, 3.0]);
        s.init_owned_from(&t);

        s.admit(0, 0);
        s.fill_admitted(0, 5, &[10.0, 10.0], &[0.5, 0.5], &[0.25, 0.25]);
        s.admit(1, 0);
        s.fill_admitted(1, 3, &[20.0, 20.0], &[0.0, 0.0], &[0.0, 0.0]);
        assert!(s.is_cached(0) && s.is_cached(1));

        // Row 0 is bumped at tick 1; admitting row 2 must evict row 1
        // (older tick) and write its synced state back to the arena.
        s.bump(0, 1);
        s.admit(2, 2);
        assert!(!s.is_cached(1) && s.is_cached(0) && s.is_cached(2));
        let mut out = [0f32; 2];
        s.read_owned_into(1, &mut out);
        assert_eq!(out, [20.0, 20.0], "eviction wrote the cache copy back");
        let (_, _, t1) = s.owned_state(1);
        assert_eq!(t1, 3);

        // Flushing drops everything and writes row 0 back too.
        s.flush_epoch();
        assert!(!s.is_cached(0) && !s.is_cached(2));
        s.read_owned_into(0, &mut out);
        assert_eq!(out, [10.0, 10.0]);
        // Row 2 was never synced: its arena value must be untouched.
        s.read_owned_into(2, &mut out);
        assert_eq!(out, [3.0, 3.0], "unsynced admission never writes back");
    }

    #[test]
    fn cached_and_owned_steps_agree() {
        // Stepping a row through the cache must produce exactly the same
        // value as stepping it through the arena — the replication
        // invariant the sharded protocol rests on.
        let dim = 4;
        let degrees = vec![5usize, 1];
        let g = [0.1f32, -0.2, 0.3, -0.4];
        let mut a = ShardedStore::new(ArenaKind::F32, dim, 0, vec![0, 0], &degrees, 1, 1e-3);
        let mut b = ShardedStore::new(ArenaKind::F32, dim, 0, vec![0, 0], &degrees, 1, 1e-3);
        let mut t = EmbeddingTable::zeros(2, dim);
        t.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        a.init_owned_from(&t);
        b.init_owned_from(&t);

        a.step_owned(0, &g, 5e-3);
        b.admit(0, 0);
        b.read_owned_into(0, &mut vec![0.0; dim]);
        let (m, v, tt) = (vec![0f32; dim], vec![0f32; dim], 0);
        b.fill_admitted(0, tt, t.row(0), &m, &v);
        b.step_cached(0, &g, 5e-3);
        b.flush_epoch();

        let (mut ra, mut rb) = (vec![0f32; dim], vec![0f32; dim]);
        a.read_owned_into(0, &mut ra);
        b.read_owned_into(0, &mut rb);
        assert_eq!(ra, rb);
        let (ma, va, ta) = a.owned_state(0);
        let (mb, vb, tb) = b.owned_state(0);
        assert_eq!((ma, va, ta), (mb, vb, tb));
    }

    #[test]
    fn lru_queue_compaction_keeps_evicting_correctly() {
        let dim = 1;
        let n = 64usize;
        let degrees: Vec<usize> = (0..n).map(|i| n - i).collect();
        let mut s = ShardedStore::new(ArenaKind::F32, dim, 0, vec![0; n], &degrees, 4, 1e-3);
        let t = EmbeddingTable::zeros(n, dim);
        s.init_owned_from(&t);
        // Thousands of bumps force many compactions; the cache must keep
        // exactly `capacity` rows and always evict the stalest.
        for tick in 0..5000u64 {
            let id = (tick % 8) as u32;
            if s.is_cached(id) {
                s.bump(id, tick);
            } else {
                s.admit(id, tick);
                s.fill_admitted(id, 0, &[0.0], &[0.0], &[0.0]);
            }
        }
        assert_eq!(s.cache_len, 4);
    }
}
