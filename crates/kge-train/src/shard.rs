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
//! the trainer's epoch loop re-grows only replicas, so a crashed rank
//! parks until the survivors close the lobby.
//!
//! ## One schedule, one batch ahead
//!
//! Every batch runs through [`sharded_batch_step`] over a ring of two
//! slots ([`PrefetchRing`]): batch `b + 1` is launched — staged, its
//! touched union collected and classified against the cache state *as of
//! its launch*, its pull requests sent — while batch `b` computes. An
//! epoch's first batch is launched and answered in the foreground. The
//! responses settle with overlap pricing against the launch anchor
//! (`Communicator::charge_p2p_deferred`), so a pull-bound epoch
//! approaches `max(compute, pull)`; cold pushes for batch `b` are
//! consumed in place but priced behind batch `b + 1`'s compute window.
//! Resident rows are read at *use* time and evictions between launch and
//! use are captured into the slot as the owner's arena stores them
//! ([`EvictSink`]), so a run trains the model a synchronous round-trip
//! would — bit-identical to the replica trainer under f32.

use crate::config::TrainConfig;
use crate::exchange::{add_payload_into, gather_into, gather_table_rows};
use crate::report::ShardedReport;
use crate::trainer::{
    chunk_positives, chunk_seed, compute_chunk, fold_chunk, stage_chunk, ChunkScratch, EpochPlan,
    EpochSums, StepInputs, GRAD_CHUNK, ZERO_ROW_EPS,
};
use kge_compress::codec::{RowDecoder, RowEncoder, WireFormat};
use kge_compress::quant::QuantScheme;
use kge_compress::{ArenaKind, RowArena};
use kge_core::{Adam, EmbeddingTable, RowOptimizer, SparseGrad};
use kge_data::{Dataset, Triple};
use kge_partition::{entity_owners, hot_set, partition_for};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Collective, NodeCtx, SimError};
use std::cell::RefCell;

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
    /// One row of the arena's kind: an evicted value is stored and read
    /// back through it, so an [`EvictSink`] captures what the owner's
    /// arena holds after the write-back.
    evict_row: RowArena,
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
            evict_row: RowArena::new(kind, 1, dim),
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

    fn owned_ids(&self) -> &[u32] {
        &self.owned
    }

    fn owner_of(&self, id: u32) -> usize {
        self.owners[id as usize] as usize
    }

    fn is_owned(&self, id: u32) -> bool {
        self.owners[id as usize] as usize == self.rank
    }

    fn is_eligible(&self, id: u32) -> bool {
        self.eligible[id as usize]
    }

    fn is_cached(&self, id: u32) -> bool {
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
    fn set_owned_row(&mut self, id: u32, value: &[f32], m: &[f32], v: &[f32], t: u32) {
        let slot = self.arena_slot[id as usize] as usize;
        let d = self.dim;
        self.arena.store(slot, value);
        self.opt_m[slot * d..(slot + 1) * d].copy_from_slice(m);
        self.opt_v[slot * d..(slot + 1) * d].copy_from_slice(v);
        self.opt_t[slot] = t;
    }

    /// Read an owned row's arena value (dequantized) into `out`.
    fn read_owned_into(&self, id: u32, out: &mut [f32]) {
        self.arena
            .load_into(self.arena_slot[id as usize] as usize, out);
    }

    /// Owned row's Adam state `(m, v, t)`.
    fn owned_state(&self, id: u32) -> (&[f32], &[f32], u32) {
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
    fn read_resident_into(&self, id: u32, out: &mut [f32]) {
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
    fn count_touch(&mut self, id: u32) {
        self.touches += 1;
        if self.eligible[id as usize] {
            self.lookups += 1;
            if self.cache_slot[id as usize] != NO_SLOT {
                self.hits += 1;
            }
        }
    }

    /// `(hits, lookups, touches)` — see [`ShardedStore::count_touch`].
    fn hit_counters(&self) -> (u64, u64, u64) {
        (self.hits, self.lookups, self.touches)
    }

    /// Lazy Adam step on a cached row (replicated: every rank applies
    /// the identical step to its copy).
    fn step_cached(&mut self, id: u32, g: &[f32], lr: f32) {
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
    fn step_owned(&mut self, id: u32, g: &[f32], lr: f32) {
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
    /// prefetch slot registered an [`EvictSink`], the victim's value is
    /// captured into it first, as the owner's arena stores it: the
    /// prefetched batch classified the row as cached at launch and must
    /// read what a batch launched after the eviction would have read.
    fn evict_one(&mut self, sink: &mut Option<EvictSink<'_>>) -> usize {
        loop {
            debug_assert!(self.evq_head < self.evq.len(), "LRU queue underflow");
            let (used, id) = self.evq[self.evq_head];
            self.evq_head += 1;
            let slot = self.cache_slot[id as usize];
            if slot != NO_SLOT && self.cache_used[slot as usize] == used {
                let s = slot as usize;
                if let Some(sink) = sink.as_mut() {
                    self.evict_row
                        .store(0, &self.cache_val[s * self.dim..(s + 1) * self.dim]);
                    sink.capture(id, &self.evict_row);
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

    /// Admit an eligible row, evicting the LRU row if full — into `sink`,
    /// the prefetch pipeline's capture target, when there is one. The slot
    /// is a placeholder (unsynced) until the same batch's admission sync
    /// lands the owner's state in it.
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

    /// Land the owner's post-update state in a freshly admitted slot,
    /// decoding the record's runs straight into the cache.
    fn fill_admitted(&mut self, rec: &StateRecord) {
        let slot = self.cache_slot[rec.id as usize];
        if slot == NO_SLOT {
            return; // evicted again before the sync — arena stays authoritative
        }
        let s = slot as usize;
        if self.cache_synced[s] {
            return;
        }
        let d = self.dim;
        copy_f32_le(rec.value, &mut self.cache_val[s * d..(s + 1) * d]);
        copy_f32_le(rec.m, &mut self.cache_m[s * d..(s + 1) * d]);
        copy_f32_le(rec.v, &mut self.cache_v[s * d..(s + 1) * d]);
        self.cache_t[s] = rec.t;
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

/// Every reusable buffer of the sharded batch pipeline that is not tied
/// to one in-flight batch (those live in the ring's slots). Steady-state
/// batches allocate nothing once these are warm (single rank; multi-rank
/// runs move message payloads through channels, which allocate by
/// construction).
pub struct ShardedBufs {
    req_wire: Vec<u8>,
    resp_wire: Vec<u8>,
    cold_wire: Vec<Vec<u8>>,
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
    /// operations — never from extra charges, so the clock trajectory is
    /// untouched.
    lane: LaneTimes,
}

impl ShardedBufs {
    pub fn new(dim: usize, p: usize) -> Self {
        ShardedBufs {
            req_wire: Vec::new(),
            resp_wire: Vec::new(),
            cold_wire: (0..p).map(|_| Vec::new()).collect(),
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
}

// --- Prefetch ring -----------------------------------------------------

/// Fill classes of a slot's batch-local rows, fixed when the slot
/// launches. `REMOTE` rows are requested over the wire; `OWNED` and
/// `CACHED` rows are read from resident state at *use* time (so they
/// observe every update up to the batch before this one); `LIMBO` rows
/// were cached at launch but evicted before use — their value was
/// captured into the slot at eviction time.
const CLASS_REMOTE: u8 = 0;
const CLASS_OWNED: u8 = 1;
const CLASS_CACHED: u8 = 2;
const CLASS_LIMBO: u8 = 3;

/// Capture target for rows a launched batch classified as cached but that
/// the batch before it evicts in its admission pass. The victim's
/// post-update value as the owner's arena stores it — bit-for-bit what a
/// batch launched after the eviction would have read (or pulled back from
/// the owner's write-back) — is copied straight into the slot's
/// batch-local table.
pub struct EvictSink<'a> {
    g2l: &'a [u32],
    class: &'a mut [u8],
    local_tab: &'a mut EmbeddingTable,
}

impl EvictSink<'_> {
    fn capture(&mut self, id: u32, row: &RowArena) {
        let li = self.g2l[id as usize];
        if li == NO_SLOT {
            return;
        }
        let li = li as usize;
        if self.class[li] == CLASS_CACHED {
            row.load_into(0, self.local_tab.row_mut(li));
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

/// One in-flight batch of the ring: staged chunks, the touched union
/// (ascending ids) with its private id map, per-row fill classes, and the
/// per-owner request lists, all fixed at launch time.
struct PrefetchSlot {
    chunks: Vec<ChunkScratch>,
    /// Batch-local embedding table: row `i` holds the value of
    /// `touched[i]`. Sized to the worst-case touched union.
    local_tab: EmbeddingTable,
    touched: Vec<u32>,
    /// One bit per entity, set while `launch` collects the touched union
    /// and all zero between launches.
    seen: Vec<u64>,
    /// Entity id → batch-local id (`NO_SLOT` when untouched), private to
    /// this slot; only the touched entries are ever written and reset.
    g2l: Vec<u32>,
    /// Batch-local id → fill class.
    class: Vec<u8>,
    req_ids: Vec<Vec<u32>>,
    /// Start of the window the pull responses may hide behind: the clock
    /// reading just before the requests went out.
    anchor: f64,
    batch_idx: usize,
    bs: usize,
    n_chunks: usize,
    live: bool,
}

impl PrefetchSlot {
    /// Unmap the touched rows and free the slot.
    fn retire(&mut self) {
        for &id in &self.touched {
            self.g2l[id as usize] = NO_SLOT;
        }
        self.live = false;
    }
}

/// Deferred pricing for the previous batch's cold pushes: the payloads
/// were consumed (unpriced) in the batch that sent them, and their
/// occupancy settles against the *next* batch's compute window via
/// `charge_p2p_deferred`.
struct PendingPush {
    anchor_s: f64,
    /// `(arrival_s, bytes)` per received payload.
    items: Vec<(f64, usize)>,
}

/// The batches in flight on the pull/push lane: two slots, batch `b` in
/// slot `b % 2`, batch `b + 1` launched while batch `b` computes. Owned
/// by the epoch loop (not by [`ShardedBufs`]) so a crash can drop every
/// in-flight slot without touching the batch buffers; all buffers reach
/// steady size after one warm epoch and are reused.
pub struct PrefetchRing {
    slots: [PrefetchSlot; 2],
    /// Pull-request payloads per peer, kept between hearing a request and
    /// answering it (for a batch launched early: popped in FIFO position
    /// at the cold-aggregation phase and served after the admission sync,
    /// so responses carry post-update rows).
    req_stash: Vec<Vec<u8>>,
    pending_push: PendingPush,
}

impl PrefetchRing {
    pub fn new(dim: usize, n_entities: usize, p: usize, config: &TrainConfig) -> Self {
        let n_chunks = config.batch_size.div_ceil(GRAD_CHUNK).max(1);
        let max_touched =
            (2 * config.batch_size * (1 + config.strategy.neg.train)).min(n_entities).max(1);
        let slot = |_| PrefetchSlot {
            chunks: (0..n_chunks).map(|_| ChunkScratch::new(dim)).collect(),
            local_tab: EmbeddingTable::zeros(max_touched, dim),
            touched: Vec::new(),
            seen: vec![0; n_entities.div_ceil(64)],
            g2l: vec![NO_SLOT; n_entities],
            class: vec![CLASS_REMOTE; max_touched],
            req_ids: (0..p).map(|_| Vec::new()).collect(),
            anchor: 0.0,
            batch_idx: 0,
            bs: 0,
            n_chunks: 0,
            live: false,
        };
        PrefetchRing {
            slots: std::array::from_fn(slot),
            req_stash: (0..p).map(|_| Vec::new()).collect(),
            pending_push: PendingPush {
                anchor_s: 0.0,
                items: Vec::new(),
            },
        }
    }

    /// Index of the slot that carries `batch_idx`.
    fn slot_of(&self, batch_idx: usize) -> usize {
        batch_idx % self.slots.len()
    }

    /// Drop every in-flight slot and deferred charge: the epoch-boundary
    /// drain, and crash recovery (where the shrink drops the undelivered
    /// messages themselves, so nothing dangles; each is counted received
    /// by its addressee, so wire bytes stay conserved).
    fn reset(&mut self) {
        self.slots.iter_mut().filter(|s| s.live).for_each(PrefetchSlot::retire);
        for s in self.req_stash.iter_mut() {
            s.clear();
        }
        self.pending_push.items.clear();
    }
}

// --- The rank's state and the batch phases ------------------------------

/// Everything one rank mutates while it trains.
pub struct RankState {
    pub store: ShardedStore,
    pub rel: EmbeddingTable,
    pub rel_opt: Box<dyn RowOptimizer>,
    pub bufs: ShardedBufs,
    pub ring: PrefetchRing,
    pub rng: StdRng,
    /// This rank's triples, in the running epoch's order.
    pub shard: Vec<Triple>,
    /// Global batch counter: the LRU tick. Shared by construction — every
    /// rank increments it on exactly the same (completed) batches.
    pub tick: u64,
}

fn now_s(ctx: &NodeCtx) -> f64 {
    ctx.comm().clock().now_s()
}

/// Every rank but this one, ascending — the fixed order peers are drained
/// in, which keeps the program deterministic.
fn peers(ctx: &NodeCtx) -> impl Iterator<Item = usize> {
    let rank = ctx.rank();
    (0..ctx.size()).filter(move |&r| r != rank)
}

/// Stage, classify, and request `batch_idx` into its slot — the launch
/// half of a batch. Staging is sampling only (placeholder tables,
/// corruption range = the global entity count). Requests go out
/// immediately (possibly empty, to keep the protocol uniform) so their
/// responses can drain behind whatever the rank does next; resident rows
/// are *not* read yet — owned and cached rows are filled at use time so
/// they observe every update up to the batch before this one.
fn launch(
    ctx: &mut NodeCtx,
    run: &StepInputs,
    st: &mut RankState,
    epoch: usize,
    batch_idx: usize,
) -> Result<(), SimError> {
    let RankState { store, rel, bufs, ring, shard, .. } = st;
    let slot = ring.slot_of(batch_idx);
    let slot = &mut ring.slots[slot];
    debug_assert!(slot.seen.iter().all(|&w| w == 0));
    let config = run.config;
    let (bs, n_chunks) = if shard.is_empty() {
        (0, 0)
    } else {
        let bs = config.batch_size.min(shard.len());
        (bs, bs.div_ceil(GRAD_CHUNK))
    };
    let start = batch_idx * config.batch_size;
    for (c, chunk) in slot.chunks.iter_mut().enumerate().take(n_chunks) {
        let lo = c * GRAD_CHUNK;
        let hi = (lo + GRAD_CHUNK).min(bs);
        stage_chunk(
            run,
            &slot.local_tab,
            rel,
            store.n_entities,
            chunk_positives(shard, start + lo..start + hi),
            chunk_seed(config.seed, ctx.rank(), epoch, batch_idx, c),
            chunk,
        );
    }

    // Touched union + local-id map.
    let triples = slot.chunks[..n_chunks].iter().flat_map(|c| &c.triples);
    touched_union(&mut slot.seen, triples, &mut slot.touched);
    debug_assert!(slot.touched.len() <= slot.local_tab.rows());
    for v in slot.req_ids.iter_mut() {
        v.clear();
    }
    for (li, &id) in slot.touched.iter().enumerate() {
        slot.g2l[id as usize] = li as u32;
        slot.class[li] = if store.is_cached(id) {
            CLASS_CACHED
        } else if store.is_owned(id) {
            CLASS_OWNED
        } else {
            slot.req_ids[store.owner_of(id)].push(id);
            CLASS_REMOTE
        };
    }

    // The responses hide behind everything from here on — the request
    // round included, for an epoch's first batch.
    slot.anchor = now_s(ctx);
    for dst in peers(ctx) {
        bufs.req_wire.clear();
        for &id in &slot.req_ids[dst] {
            bufs.req_wire.extend_from_slice(&id.to_le_bytes());
        }
        ctx.comm_mut()
            .send_bytes_as(dst, &bufs.req_wire, Collective::ShardPull)?;
    }
    slot.batch_idx = batch_idx;
    slot.bs = bs;
    slot.n_chunks = n_chunks;
    slot.live = true;
    Ok(())
}

/// The distinct entity ids of `triples`' heads and tails into `out`, in
/// ascending order: each id sets its bit in `seen`, then one pass over the
/// words reads the set bits out and zeroes them, leaving `seen` all zero.
fn touched_union<'a>(
    seen: &mut [u64],
    triples: impl Iterator<Item = &'a (u32, u32, u32)>,
    out: &mut Vec<u32>,
) {
    for &(h, _, t) in triples {
        seen[h as usize / 64] |= 1 << (h % 64);
        seen[t as usize / 64] |= 1 << (t % 64);
    }
    out.clear();
    for (w, word) in seen.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            out.push((w * 64) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Hear `src`'s pull request and keep it until it is answered. Per-pair
/// FIFO guarantees a peer's request is received before its response.
fn stash_request(ctx: &mut NodeCtx, ring: &mut PrefetchRing, src: usize) -> Result<(), SimError> {
    ring.req_stash[src] = ctx.comm_mut().recv_bytes_from_as(src, Collective::ShardPull)?.payload;
    Ok(())
}

/// Answer `src`'s stashed pull request, encoding the owner's *current*
/// arena state.
fn serve_one(ctx: &mut NodeCtx, st: &mut RankState, src: usize) -> Result<(), SimError> {
    let RankState { store, bufs, ring, .. } = st;
    {
        let mut enc = RowEncoder::new(WireFormat::F32, store.dim, &mut bufs.resp_wire);
        for c in ring.req_stash[src].chunks_exact(4) {
            let id = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            store.read_owned_into(id, &mut bufs.row_buf);
            enc.push_f32(id, &bufs.row_buf).expect("pull response row");
        }
        enc.finish();
    }
    ctx.comm_mut()
        .send_bytes_as(src, &bufs.resp_wire, Collective::ShardPull)
}

/// Answer every stashed pull request, in ascending source order.
fn serve_requests(ctx: &mut NodeCtx, st: &mut RankState) -> Result<(), SimError> {
    let lane_t0 = now_s(ctx);
    for src in peers(ctx) {
        serve_one(ctx, st, src)?;
    }
    st.bufs.lane.pull_s += now_s(ctx) - lane_t0;
    Ok(())
}

/// Launch an epoch's first batch and run its request/answer round in the
/// foreground: there is no earlier compute to hide it behind. Async
/// deposit keeps it deadlock-free: every rank first sends all its
/// requests, then hears everyone's, then answers everyone, as it does in
/// every later batch. Returns the clock reading from which the pull lane
/// is still unaccounted.
fn prime(
    ctx: &mut NodeCtx,
    run: &StepInputs,
    st: &mut RankState,
    epoch: usize,
    batch_idx: usize,
) -> Result<f64, SimError> {
    let lane_t0 = now_s(ctx);
    launch(ctx, run, st, epoch, batch_idx)?;
    st.bufs.lane.pull_s += now_s(ctx) - lane_t0;
    let lane_t0 = now_s(ctx);
    for src in peers(ctx) {
        stash_request(ctx, &mut st.ring, src)?;
    }
    st.bufs.lane.pull_s += now_s(ctx) - lane_t0;
    serve_requests(ctx, st)?;
    Ok(now_s(ctx))
}

/// Receive and decode `slot`'s pull responses in ascending source order,
/// then fill resident rows at use time (limbo rows were captured at
/// eviction). `lane_t0` is where the pull lane's open span began.
fn settle_pulls(
    ctx: &mut NodeCtx,
    store: &ShardedStore,
    slot: &mut PrefetchSlot,
    lane: &mut LaneTimes,
    lane_t0: f64,
) -> Result<(), SimError> {
    if ctx.size() > 1 {
        let mut hidden = 0.0f64;
        let mut pulled = 0usize;
        for src in peers(ctx) {
            let comm = ctx.comm_mut();
            let msg = comm.recv_bytes_from_as_unpriced(src, Collective::ShardPull)?;
            let stats = comm.charge_p2p_deferred(
                Collective::ShardPull,
                msg.arrival_s,
                msg.payload.len(),
                slot.anchor,
            );
            hidden += stats.hidden_s;
            let mut dec = RowDecoder::new(&msg.payload).expect("pull response payload");
            while let Some(r) = dec.next_row() {
                let r = r.expect("pull response payload");
                let li = slot.g2l[r.row as usize];
                r.dequantize_into(slot.local_tab.row_mut(li as usize));
                pulled += 1;
            }
        }
        // Lane seconds are a clock delta (idle + visible occupancy), not
        // an extra charge — the clock trajectory is untouched.
        lane.pull_s += now_s(ctx) - lane_t0;
        lane.hidden_pull_s += hidden;
        // Dequantize-on-pull cost (encode + decode passes).
        ctx.comm_mut()
            .clock_mut()
            .charge_flops((pulled * store.dim * 2) as f64);
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

/// Remap triples to batch-local entity ids, counting cache hits per
/// touch while the global ids are still in hand.
fn remap_and_count(slot: &mut PrefetchSlot, store: &mut ShardedStore) {
    for c in slot.chunks.iter_mut().take(slot.n_chunks) {
        for tr in c.triples.iter_mut() {
            let (h, r, t) = *tr;
            store.count_touch(h);
            store.count_touch(t);
            *tr = (slot.g2l[h as usize], r, slot.g2l[t as usize]);
        }
    }
}

/// Compute chunks in parallel (fixed chunk structure, chunk-ordered
/// merge — thread-count independent), then merge into the batch
/// gradients. Returns `(loss, examples)`.
fn compute_and_merge(
    ctx: &mut NodeCtx,
    run: &StepInputs,
    slot: &mut PrefetchSlot,
    rel: &EmbeddingTable,
    bufs: &mut ShardedBufs,
) -> (f64, usize) {
    let (model, config) = (run.model, run.config);
    let inv_batch = if slot.bs > 0 {
        1.0f32 / (slot.bs * (1 + config.strategy.neg.train)) as f32
    } else {
        0.0
    };
    let local_tab = &slot.local_tab;
    let chunks = &mut slot.chunks[..slot.n_chunks];
    rayon::par_for_each_mut(chunks, |_, cs| {
        compute_chunk(run, (local_tab, rel), inv_batch, false, cs)
    });
    bufs.ent_grad.clear();
    bufs.rel_grad.clear();
    let mut loss = 0.0f64;
    let mut examples = 0usize;
    for (c, cs) in chunks.iter_mut().enumerate() {
        loss += cs.loss;
        examples += cs.examples;
        fold_chunk(c, cs, &mut bufs.ent_grad, &mut bufs.rel_grad);
    }
    ctx.comm_mut()
        .clock_mut()
        .charge_flops(examples as f64 * model.score_flops() * 3.0);
    (loss, examples)
}

/// Encode the cold rows of the entity gradient per owner, the own-rank
/// bucket kept locally. `ent_grad` is sorted by local id and the local
/// order is the global-sorted touched order, so every bucket ascends by
/// global id. Encoding never touches the clock.
fn encode_cold_grads(
    store: &ShardedStore,
    touched: &[u32],
    ent_grad: &SparseGrad,
    cold_wire: &mut [Vec<u8>],
) {
    for (dst, wire) in cold_wire.iter_mut().enumerate() {
        let mut enc = RowEncoder::new(WireFormat::F32, store.dim, wire);
        for (lid, g) in ent_grad.iter_sorted() {
            let id = touched[lid as usize];
            if !store.is_eligible(id) && store.owner_of(id) == dst {
                enc.push_f32(id, g).expect("cold gradient row");
            }
        }
        enc.finish();
    }
}

/// Hot exchange: hot-set rows ride a shared all-gather, encoded straight
/// into the staging slot (ascending global id) and decoded out of every
/// rank's slot in ascending rank order, then scaled by 1/p — the replica
/// gather-decode arithmetic exactly.
fn hot_exchange(
    ctx: &mut NodeCtx,
    store: &ShardedStore,
    touched: &[u32],
    bufs: &mut ShardedBufs,
) -> Result<(), SimError> {
    let ent_grad = &bufs.ent_grad;
    let stage = |wire: &mut Vec<u8>| {
        let mut enc = RowEncoder::new(WireFormat::F32, store.dim, wire);
        for (lid, g) in ent_grad.iter_sorted() {
            let id = touched[lid as usize];
            if store.is_eligible(id) {
                enc.push_f32(id, g).expect("hot gradient row");
            }
        }
        enc.finish();
    };
    let ((), gathered, _) = gather_into(ctx.comm_mut(), None, stage, &mut bufs.hot_agg)?;
    bufs.hot_agg.ensure_sorted();
    ctx.comm_mut()
        .clock_mut()
        .charge_flops((gathered * store.dim) as f64);
    Ok(())
}

/// Relation exchange — byte-for-byte the replica trainer's plain
/// all-gather arm.
fn relation_exchange(
    ctx: &mut NodeCtx,
    rng: &mut StdRng,
    bufs: &mut ShardedBufs,
    dim: usize,
) -> Result<(), SimError> {
    bufs.rel_grad.ensure_sorted();
    let stats = crate::exchange::exchange_allgather_into(
        ctx.comm_mut(),
        &bufs.rel_grad,
        dim,
        QuantScheme::None,
        None,
        rng,
        &mut bufs.gather,
        &mut bufs.rel_agg,
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
fn apply_updates(ctx: &mut NodeCtx, st: &mut RankState, lr: f32, lr_scale: f32) {
    let RankState { store, rel, rel_opt, bufs, .. } = st;
    let mut stepped = 0usize;
    for (id, g) in bufs.hot_agg.iter_sorted() {
        if store.is_cached(id) {
            store.step_cached(id, g, lr);
            stepped += 1;
        } else if store.is_owned(id) {
            store.step_owned(id, g, lr);
            stepped += 1;
        }
    }
    for (id, g) in bufs.cold_agg.iter_sorted() {
        debug_assert!(store.is_owned(id), "cold push routed to non-owner");
        store.step_owned(id, g, lr);
        stepped += 1;
    }
    ctx.comm_mut()
        .clock_mut()
        .charge_flops((stepped * store.dim * ADAM_FLOPS_PER_ELEM) as f64);
    bufs.rel_agg.ensure_sorted();
    ctx.comm_mut()
        .clock_mut()
        .charge_flops(rel_opt.lazy_step_flops(bufs.rel_agg.nnz()));
    rel_opt.step_lazy(rel, &bufs.rel_agg, lr_scale);
}

/// Cache admission/eviction, driven only by the shared hot stream so
/// every rank transitions identically. The optional sink captures
/// evictions for a launched-but-unused slot.
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

/// One owner-state record of the admission sync and the shrink migration:
/// `id u32 | t u32 | value | m | v`, little-endian, the three runs `dim`
/// f32s each, borrowed from the payload.
struct StateRecord<'a> {
    id: u32,
    t: u32,
    value: &'a [u8],
    m: &'a [u8],
    v: &'a [u8],
}

fn push_state_record(out: &mut Vec<u8>, id: u32, t: u32, value: &[f32], m: &[f32], v: &[f32]) {
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&t.to_le_bytes());
    for &x in value.iter().chain(m).chain(v) {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// The records of one payload, in order. Payloads come from this
/// program's own encoder, so a trailing partial record is a bug and
/// panics, naming `what`.
fn state_records<'a>(
    payload: &'a [u8],
    dim: usize,
    what: &str,
) -> impl Iterator<Item = StateRecord<'a>> {
    let rec = 8 + 12 * dim;
    assert!(
        payload.len().is_multiple_of(rec),
        "{what}: {} bytes is not a whole number of {rec}-byte records",
        payload.len()
    );
    payload.chunks_exact(rec).map(move |b| {
        let (value, moments) = b[8..].split_at(4 * dim);
        let (m, v) = moments.split_at(4 * dim);
        StateRecord {
            id: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            t: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            value,
            m,
            v,
        }
    })
}

/// Decode a record's little-endian f32 run into `out`.
fn copy_f32_le(src: &[u8], out: &mut [f32]) {
    debug_assert_eq!(src.len(), 4 * out.len());
    for (x, b) in out.iter_mut().zip(src.chunks_exact(4)) {
        *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Admission sync: owners publish post-update state for their newly
/// admitted rows — staged in, and read back out of, the all-gather's
/// slots. `admit_ids` is a shared quantity, so skipping the collective
/// when it is empty is itself collective.
fn admission_sync(
    ctx: &mut NodeCtx,
    store: &mut ShardedStore,
    admit_ids: &[u32],
    row_buf: &mut [f32],
) -> Result<(), SimError> {
    if admit_ids.is_empty() {
        return Ok(());
    }
    let dim = store.dim;
    // The collective reads the store (staging) strictly before it writes
    // it (filling), but holds both closures at once.
    let store = RefCell::new(store);
    ctx.comm_mut()
        .allgatherv_staged(
            None,
            |wire| {
                let store = store.borrow();
                for &id in admit_ids {
                    if store.is_owned(id) && store.is_cached(id) && !store.is_synced(id) {
                        store.read_owned_into(id, row_buf);
                        let (m, v, t) = store.owned_state(id);
                        push_state_record(wire, id, t, row_buf, m, v);
                    }
                }
            },
            |_, payload| {
                let mut store = store.borrow_mut();
                for rec in state_records(payload, dim, "admission payload") {
                    store.fill_admitted(&rec);
                }
            },
        )
        .map(|_| ())
}

/// Settle the deferred cold-push charges against the window that opened
/// at their send anchor (called right after the next batch's compute,
/// and at the epoch drain).
fn settle_pending_push(ctx: &mut NodeCtx, pending: &mut PendingPush, lane: &mut LaneTimes) {
    if pending.items.is_empty() {
        return;
    }
    let lane_t0 = now_s(ctx);
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
    lane.push_s += now_s(ctx) - lane_t0;
    lane.hidden_push_s += hidden;
    pending.items.clear();
}

/// Run one full sharded batch: pull → compute → exchange → push → apply →
/// cache admission, over the ring's slot for `batch_idx`. That slot was
/// launched while the previous batch computed (an epoch's first batch
/// excepted), the next batch launches before this compute, and this
/// batch's pushes are priced behind the next compute. The arithmetic —
/// staging seeds, touched order, gradient summation, admission stream —
/// is the synchronous round-trip's; only *when* rows move changes. The
/// batch's loss, examples, nonzero and sent rows are added into `sums`; a
/// `RankCrashed` from any collective propagates so the epoch loop can run
/// the recovery policy.
///
/// Public so the allocation-regression test drives the exact code the
/// sharded trainer runs.
pub fn sharded_batch_step(
    ctx: &mut NodeCtx,
    run: &StepInputs,
    st: &mut RankState,
    plan: &EpochPlan,
    batch_idx: usize,
    sums: &mut EpochSums,
) -> Result<(), SimError> {
    let (epoch, n_batches, lr_scale) = (plan.epoch, plan.batches, plan.lr_scale);
    let rank = ctx.rank();
    let p = ctx.size();
    let dim = st.store.dim;
    let cur = st.ring.slot_of(batch_idx);
    let next = (batch_idx + 1 < n_batches).then_some(batch_idx + 1);

    // --- Pull: launch this batch now unless the previous one did, then
    // receive its rows and fill the batch-local table. ------------------
    let lane_t0 = if st.ring.slots[cur].live {
        now_s(ctx)
    } else {
        prime(ctx, run, st, epoch, batch_idx)?
    };
    debug_assert_eq!(st.ring.slots[cur].batch_idx, batch_idx, "prefetch ring out of step");
    settle_pulls(ctx, &st.store, &mut st.ring.slots[cur], &mut st.bufs.lane, lane_t0)?;

    // --- Launch the next batch while this one computes. -----------------
    if let Some(next) = next {
        let lane_t0 = now_s(ctx);
        launch(ctx, run, st, epoch, next)?;
        st.bufs.lane.pull_s += now_s(ctx) - lane_t0;
    }

    // --- Compute + merge. ------------------------------------------------
    remap_and_count(&mut st.ring.slots[cur], &mut st.store);
    let (loss, examples) =
        compute_and_merge(ctx, run, &mut st.ring.slots[cur], &st.rel, &mut st.bufs);
    let nonzero_rows = st.bufs.ent_grad.rows_above_norm(ZERO_ROW_EPS);
    st.bufs.ent_grad.ensure_sorted();
    let rows_sent = st.bufs.ent_grad.nnz();

    // --- The previous batch's cold pushes have had a full compute phase
    // to drain behind — settle their deferred charges now. ---------------
    settle_pending_push(ctx, &mut st.ring.pending_push, &mut st.bufs.lane);

    // --- Push: cold rows go to their owners p2p. -------------------------
    let touched = &st.ring.slots[cur].touched;
    encode_cold_grads(&st.store, touched, &st.bufs.ent_grad, &mut st.bufs.cold_wire);
    st.ring.pending_push.anchor_s = now_s(ctx);
    for dst in peers(ctx) {
        ctx.comm_mut()
            .send_bytes_as(dst, &st.bufs.cold_wire[dst], Collective::ShardPush)?;
    }
    st.bufs.lane.push_s += now_s(ctx) - st.ring.pending_push.anchor_s;

    // --- Hot exchange, relation exchange (shared collectives). -----------
    hot_exchange(ctx, &st.store, touched, &mut st.bufs)?;
    relation_exchange(ctx, &mut st.rng, &mut st.bufs, dim)?;

    // --- Cold aggregation at owners. Per-pair FIFO puts a peer's request
    // for the next batch (sent at its launch, before its push) ahead in
    // the mailbox — hear and stash those first. ---------------------------
    if next.is_some() {
        for src in peers(ctx) {
            let lane_t0 = now_s(ctx);
            stash_request(ctx, &mut st.ring, src)?;
            st.bufs.lane.pull_s += now_s(ctx) - lane_t0;
        }
    }
    // Ascending source order with the local contribution spliced at this
    // rank's position keeps the f32 sum order identical to the replica
    // decode.
    st.bufs.cold_agg.clear();
    let lane_t0 = now_s(ctx);
    for src in 0..p {
        if src == rank {
            add_payload_into(&st.bufs.cold_wire[rank], &mut st.bufs.cold_agg, "cold payload");
            continue;
        }
        // Consumed unpriced; the occupancy is deferred to the next
        // batch's window — an epoch's last batch included (the drain
        // settles it).
        let msg = ctx
            .comm_mut()
            .recv_bytes_from_as_unpriced(src, Collective::ShardPush)?;
        st.ring.pending_push.items.push((msg.arrival_s, msg.payload.len()));
        add_payload_into(&msg.payload, &mut st.bufs.cold_agg, "cold payload");
    }
    st.bufs.lane.push_s += now_s(ctx) - lane_t0;
    st.bufs.cold_agg.scale(1.0 / p as f32);
    st.bufs.cold_agg.ensure_sorted();

    // --- Apply. ------------------------------------------------------------
    apply_updates(ctx, st, run.config.base_lr * lr_scale, lr_scale);

    // --- Cache admission/eviction, with evictions captured into the
    // launched slot (rows it classified as cached must keep the value a
    // launch after this batch would have read). --------------------------
    {
        let mut sink = next.map(|next| {
            let slot = st.ring.slot_of(next);
            let slot = &mut st.ring.slots[slot];
            EvictSink {
                g2l: &slot.g2l,
                class: &mut slot.class,
                local_tab: &mut slot.local_tab,
            }
        });
        admission(&mut st.store, &st.bufs.hot_agg, &mut st.bufs.admit_ids, st.tick, &mut sink);
    }
    admission_sync(ctx, &mut st.store, &st.bufs.admit_ids, &mut st.bufs.row_buf)?;

    // --- Answer the next batch's requests with post-update rows. ----------
    if next.is_some() {
        serve_requests(ctx, st)?;
    }

    st.ring.slots[cur].retire();
    st.tick += 1;

    sums.loss += loss;
    sums.examples += examples;
    sums.nonzero_rows += nonzero_rows;
    sums.rows_sent += rows_sent;
    Ok(())
}

/// Epoch-boundary drain: settle the last batch's deferred push charges
/// and clear the ring (every slot was consumed in order, so nothing else
/// is in flight).
pub fn sharded_epoch_prefetch_drain(ctx: &mut NodeCtx, st: &mut RankState) {
    settle_pending_push(ctx, &mut st.ring.pending_push, &mut st.bufs.lane);
    st.ring.reset();
}

/// Rank `rank` of `p`'s empty store: entity ownership derived from the same
/// triple partition the trainer shards with, the cold tier in its
/// configured at-rest format and the configured hot cache.
fn store_for(dataset: &Dataset, config: &TrainConfig, dim: usize, rank: usize, p: usize) -> ShardedStore {
    let scfg = config.sharded.expect("a sharded config");
    let kind = if scfg.cold_int8 { ArenaKind::Int8 } else { ArenaKind::F32 };
    let part = partition_for(&dataset.train, dataset.n_relations, p, false);
    let owners = entity_owners(&part, dataset.n_entities);
    let degrees = &dataset.stats().entity_degrees;
    ShardedStore::new(kind, dim, rank, owners, degrees, scfg.hot_cache_rows, config.base_lr)
}

/// The run's store report, folded from every rank's: byte and touch
/// counters summed, resident sizes and lane seconds the maximum over ranks
/// (the per-node memory bound and the slowest rank's critical path).
pub(crate) fn sum_rank_reports<'a>(
    reports: impl Iterator<Item = &'a ShardedReport>,
) -> ShardedReport {
    let mut agg = ShardedReport::default();
    for r in reports {
        agg.pull_wire_bytes += r.pull_wire_bytes;
        agg.push_wire_bytes += r.push_wire_bytes;
        agg.cache_hits += r.cache_hits;
        agg.cache_accesses += r.cache_accesses;
        agg.entity_touches += r.entity_touches;
        agg.resident_model_bytes = agg.resident_model_bytes.max(r.resident_model_bytes);
        agg.opt_state_bytes = agg.opt_state_bytes.max(r.opt_state_bytes);
        agg.owned_rows = agg.owned_rows.max(r.owned_rows);
        agg.replica_model_bytes = r.replica_model_bytes;
        agg.hot_capacity = r.hot_capacity;
        agg.eligible_rows = r.eligible_rows;
        agg.pull_lane_s = agg.pull_lane_s.max(r.pull_lane_s);
        agg.push_lane_s = agg.push_lane_s.max(r.push_lane_s);
        agg.hidden_pull_s = agg.hidden_pull_s.max(r.hidden_pull_s);
        agg.hidden_push_s = agg.hidden_push_s.max(r.hidden_push_s);
    }
    agg
}

impl RankState {
    /// Rank `rank` of `p`'s fresh state: its owned rows of the same Xavier
    /// init every replica draws (entity table before the relation table,
    /// matching the replica trainer's stream use), the replicated relation
    /// table, an empty hot cache and a per-rank node stream. The full
    /// entity table is transient — owned rows move into the arena and the
    /// rest is dropped before the first epoch.
    pub(crate) fn new(inputs: &StepInputs, dataset: &Dataset, rank: usize, p: usize) -> Self {
        let config = inputs.config;
        let dim = inputs.model.storage_dim();
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        let ent_init = EmbeddingTable::xavier(dataset.n_entities, dim, &mut init_rng);
        let rel = EmbeddingTable::xavier(dataset.n_relations, dim, &mut init_rng);
        let mut store = store_for(dataset, config, dim, rank, p);
        store.init_owned_from(&ent_init);
        drop(ent_init);
        RankState {
            store,
            rel,
            rel_opt: config.optimizer.build(config.base_lr, dataset.n_relations, dim),
            bufs: ShardedBufs::new(dim, p),
            ring: PrefetchRing::new(dim, dataset.n_entities, p, config),
            rng: StdRng::seed_from_u64(
                config.seed ^ (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
            ),
            shard: Vec::new(),
            tick: 0,
        }
    }

    /// A survivor after the shrink: drop the aborted epoch's in-flight
    /// slots and deferred push charges, migrate rows onto the new
    /// ownership map, and shrink the per-peer buffer sets to the new world.
    pub(crate) fn after_shrink(
        &mut self,
        ctx: &mut NodeCtx,
        dataset: &Dataset,
        config: &TrainConfig,
    ) {
        self.ring.reset();
        migrate_after_shrink(ctx, dataset, config, &mut self.store);
        let p = ctx.size();
        self.bufs.cold_wire.resize_with(p, Vec::new);
        for slot in self.ring.slots.iter_mut() {
            slot.req_ids.resize_with(p, Vec::new);
        }
        self.ring.req_stash.resize_with(p, Vec::new);
    }

    /// The final `(entities, relations, report)` of this rank. Survivors
    /// assemble the full entity table in a one-shot gather of owned rows
    /// over the deterministic init base, so the outcome carries the table
    /// the replica API promises (the one transient full-table allocation
    /// the steady state never pays); a crashed rank returns a placeholder.
    pub(crate) fn finish(
        self,
        ctx: &mut NodeCtx,
        dataset: &Dataset,
        config: &TrainConfig,
        survived: bool,
    ) -> (EmbeddingTable, EmbeddingTable, ShardedReport) {
        let RankState { mut store, rel, bufs, .. } = self;
        let (n_entities, dim) = (dataset.n_entities, store.dim);
        let entities = if survived {
            store.flush_epoch();
            let mut init_rng = StdRng::seed_from_u64(config.seed);
            let mut full = EmbeddingTable::xavier(n_entities, dim, &mut init_rng);
            for &id in store.owned_ids() {
                store.read_owned_into(id, full.row_mut(id as usize));
            }
            gather_table_rows(ctx.comm_mut(), &mut full, store.owned_ids().iter().copied())
                .expect("final sharded model assembly");
            full
        } else {
            EmbeddingTable::zeros(1, dim)
        };

        let (cache_hits, cache_lookups, entity_touches) = store.hit_counters();
        let tr = ctx.comm().traffic().report();
        let report = ShardedReport {
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
        };
        (entities, rel, report)
    }
}

/// Survivor-side state migration after a communicator shrink: harvest
/// everything the survivors hold, exchange owned-and-not-cached rows,
/// rebuild ownership at the new world size, and regenerate rows that
/// died with the crash from the deterministic init (fresh Adam state).
fn migrate_after_shrink(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    store: &mut ShardedStore,
) {
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
    // rows are replicated — every survivor already has them, harvested
    // above), staged in and read back out of the all-gather's slots; a
    // rank's own records come back with everyone else's.
    let mut row = vec![0f32; dim];
    let old: &ShardedStore = store;
    ctx.comm_mut()
        .allgatherv_staged(
            None,
            |wire| {
                for &id in old.owned_ids() {
                    if !old.is_synced(id) {
                        old.read_owned_into(id, &mut row);
                        let (m, v, t) = old.owned_state(id);
                        push_state_record(wire, id, t, &row, m, v);
                    }
                }
            },
            |_, payload| {
                for rec in state_records(payload, dim, "migration payload") {
                    let i = rec.id as usize;
                    copy_f32_le(rec.value, &mut full_val[i * dim..(i + 1) * dim]);
                    copy_f32_le(rec.m, &mut full_m[i * dim..(i + 1) * dim]);
                    copy_f32_le(rec.v, &mut full_v[i * dim..(i + 1) * dim]);
                    full_t[i] = rec.t;
                    have[i] = true;
                }
            },
        )
        .expect("a second crash during sharded state migration is unsupported");

    // Rebuild the store at the new world size. Rows nobody recovered
    // (owned by the crashed rank, not cached) restart from the
    // deterministic Xavier init with zero optimizer state — the same
    // "regenerate what died" policy the replica trainer applies to a
    // crashed rank's shard contribution.
    let mut init_rng = StdRng::seed_from_u64(config.seed);
    let ent_init = EmbeddingTable::xavier(n, dim, &mut init_rng);
    let mut new_store = store_for(dataset, config, dim, rank, p);
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

    /// Land `(t, value, m, v)` in `id`'s freshly admitted slot the way the
    /// admission sync does: through one wire record.
    fn fill(s: &mut ShardedStore, id: u32, t: u32, value: &[f32], m: &[f32], v: &[f32]) {
        let mut wire = Vec::new();
        push_state_record(&mut wire, id, t, value, m, v);
        for rec in state_records(&wire, value.len(), "test payload") {
            s.fill_admitted(&rec);
        }
    }

    #[test]
    fn touched_union_matches_sort_and_dedup() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(7);
        for e in [1u32, 64, 65, 130, 1000] {
            let mut seen = vec![0u64; (e as usize).div_ceil(64)];
            let mut out = vec![e];
            for n in [0usize, 1, 17, 500] {
                let mut ids: Vec<u32> = (0..n).map(|_| rng.gen_range(0..e)).collect();
                if n > 0 {
                    ids.extend([0, 63, 64, e - 1].into_iter().filter(|&id| id < e));
                }
                // Every id once as a head and once as a tail.
                let triples: Vec<_> = ids.iter().zip(ids.iter().rev()).map(|(&h, &t)| (h, 0, t)).collect();
                touched_union(&mut seen, triples.iter(), &mut out);
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(out, ids, "e={e} n={n}");
                assert!(seen.iter().all(|&w| w == 0), "e={e} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "admission payload: 21 bytes is not a whole number of 20-byte records")]
    fn trailing_partial_state_record_panics_naming_the_payload() {
        let mut wire = Vec::new();
        push_state_record(&mut wire, 3, 1, &[1.0], &[2.0], &[3.0]);
        wire.push(0);
        state_records(&wire, 1, "admission payload").count();
    }

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

        s.admit_with_sink(0, 0, &mut None);
        fill(&mut s, 0, 5, &[10.0, 10.0], &[0.5, 0.5], &[0.25, 0.25]);
        s.admit_with_sink(1, 0, &mut None);
        fill(&mut s, 1, 3, &[20.0, 20.0], &[0.0, 0.0], &[0.0, 0.0]);
        assert!(s.is_cached(0) && s.is_cached(1));

        // Row 0 is bumped at tick 1; admitting row 2 must evict row 1
        // (older tick) and write its synced state back to the arena.
        s.bump(0, 1);
        s.admit_with_sink(2, 2, &mut None);
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
    fn evicted_int8_row_reads_back_as_the_arena_stores_it() {
        // A launched slot classed row 0 as cached; the admission of row 1
        // evicts it. The slot must hold the value the owner's int8 arena
        // returns after the write-back, not the unquantized cache copy.
        let dim = 3;
        let mut s = ShardedStore::new(ArenaKind::Int8, dim, 0, vec![0; 4], &[9, 8, 1, 1], 1, 1e-3);
        s.admit_with_sink(0, 0, &mut None);
        let value = [0.3f32, -1.7, 0.01];
        fill(&mut s, 0, 1, &value, &[0.0; 3], &[0.0; 3]);
        let mut g2l = vec![NO_SLOT; 4];
        g2l[0] = 0;
        let mut class = [CLASS_CACHED];
        let mut local_tab = EmbeddingTable::zeros(1, dim);
        let mut sink = Some(EvictSink {
            g2l: &g2l,
            class: &mut class,
            local_tab: &mut local_tab,
        });
        s.admit_with_sink(1, 1, &mut sink);
        assert!(!s.is_cached(0) && s.is_cached(1));
        assert_eq!(class, [CLASS_LIMBO]);
        let mut stored = [0f32; 3];
        s.read_owned_into(0, &mut stored);
        assert_ne!(stored, value, "the int8 arena must round this row");
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(local_tab.row(0)), bits(&stored), "captured row differs from the arena's");
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
        b.admit_with_sink(0, 0, &mut None);
        b.read_owned_into(0, &mut vec![0.0; dim]);
        let (m, v, tt) = (vec![0f32; dim], vec![0f32; dim], 0);
        fill(&mut b, 0, tt, t.row(0), &m, &v);
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
                s.admit_with_sink(id, tick, &mut None);
                fill(&mut s, id, 0, &[0.0], &[0.0], &[0.0]);
            }
        }
        assert_eq!(s.cache_len, 4);
    }
}
