//! MPI-style collectives over shared memory, with simulated timing.
//!
//! All node threads of a [`crate::Cluster`] share one communication world,
//! and its per-rank staging slots are the only wire buffer: a rank writes
//! its contribution *into* its own slot and reads its peers' *out of*
//! theirs, under reader-writer locks, with barriers ordering the two. Who
//! writes what before which barrier, and who reads what after:
//!
//! - **Gather** ([`Communicator::allgatherv_staged`]; two barriers). Rank
//!   `r` writes `byte_slots[r]` and its clock (and launch anchor) deposit.
//!   *Barrier 1.* Every rank reads all deposits (alignment, pricing, crash
//!   detection) and then every payload in place, in rank order. *Barrier
//!   2*, so that nobody's next deposit — into the same slots — can land
//!   while a slower rank is still reading this one's.
//! - **All-reduce** ([`Communicator::allreduce_staged`]; two barriers), a
//!   reduce-scatter followed by a gather of the reduced slices. Rank `r`
//!   writes `f32_slots[r]` and its deposits. *Barrier 1.* Every rank reads
//!   the deposits and all slot lengths (same verdict everywhere), then
//!   reads slice `r` of every slot and writes its sum to `f32_results[r]`.
//!   *Barrier 2.* Every rank reads all result slices into its output. No
//!   third barrier: slots and deposits are read only before barrier 2,
//!   which their owner must cross before it can overwrite them; and
//!   `f32_results[r]` is rewritten only past the *next* all-reduce's
//!   barrier 1, which no rank reaches while still copying slices out of
//!   this one. The all-reduce is the f32 slots' only user, which is what
//!   keeps that argument this short.
//! - **Scalar sum and `barrier`** (two barriers): deposit, barrier, read
//!   all, barrier — the gather's shape on one `f64`.
//!
//! An error (induced fault, crash, shape mismatch) is computed from shared
//! deposits, so every rank reaches the same verdict; each crosses one
//! barrier before returning it, which protects the deposits it was
//! computed from exactly as barrier 2 would have.
//!
//! Reductions are performed in **fixed rank order**, so results are
//! bit-for-bit deterministic across runs regardless of thread scheduling.
//!
//! Every collective also performs the *simulated-time* bookkeeping: clocks
//! of all participants are aligned to the latest arrival (idle time), then
//! advanced by the [`CostModel`] price of the operation (comm time).

use crate::clock::SimClock;
use crate::fault::FaultPlan;
use crate::p2p::{Message, PostOffice};
use crate::cost::{Collective, CostModel};
use crate::error::SimError;
use crate::spec::ClusterSpec;
use crate::traffic::TrafficStats;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

/// Rendezvous through which crashed-then-recovered ranks re-enter the
/// world. One lobby is created with a cluster's initial world and carried
/// by `Arc` through every shrink and grow, so a rank parked before several
/// generations of membership change can still be found by the current
/// survivors' [`Communicator::try_grow`].
pub(crate) struct RejoinLobby {
    state: Mutex<LobbyState>,
    cv: Condvar,
}

#[derive(Default)]
struct LobbyState {
    /// Posted by the grow leader: original rank → (grown world, new rank,
    /// leader's rank in the grown world). The leader rank names the
    /// survivor a rejoiner should ask for replica state.
    assignments: HashMap<usize, (Arc<CommWorld>, usize, usize)>,
    /// Original ids already re-admitted once; a crash entry's recovery is
    /// consumed by its first rejoin.
    rejoined: Vec<usize>,
    /// Set when the program finishes; parked ranks stop waiting.
    closed: bool,
}

impl RejoinLobby {
    fn new() -> Arc<Self> {
        Arc::new(RejoinLobby {
            state: Mutex::new(LobbyState::default()),
            cv: Condvar::new(),
        })
    }
}

/// Shared state for one cluster's communicator.
pub(crate) struct CommWorld {
    size: usize,
    barrier: Barrier,
    /// All-reduce contributions, one per rank.
    f32_slots: Vec<RwLock<Vec<f32>>>,
    /// All-reduce results: rank `r` holds the sum of every slot's slice `r`.
    f32_results: Vec<RwLock<Vec<f32>>>,
    /// Gather payloads, one per rank.
    byte_slots: Vec<RwLock<Vec<u8>>>,
    f64_slots: Vec<Mutex<f64>>,
    clock_slots: Vec<Mutex<f64>>,
    /// Launch-time deposits for overlapped collectives: the simulated time
    /// at which each rank *started* the exchange it is now completing.
    /// `max(clock) − max(anchor)` is the shared overlap window every rank
    /// uses to hide collective price, so clocks stay aligned.
    anchor_slots: Vec<Mutex<f64>>,
    post: std::sync::Arc<PostOffice>,
    /// The fault schedule every rank consults (inert by default).
    plan: Arc<FaultPlan>,
    /// Original rank of each current rank: identity for a fresh cluster,
    /// the surviving subset after a shrink. Fault-plan lookups (straggler
    /// windows, crash times, p2p drop streams) always use original ids.
    orig_ranks: Vec<usize>,
    /// Current-rank ids detected as crashed, sorted; consumed by
    /// [`Communicator::shrink`].
    failed: Mutex<Vec<usize>>,
    /// Replacement world staged by the lowest surviving rank during a
    /// shrink or grow, picked up by the other survivors.
    next_world: Mutex<Option<Arc<CommWorld>>>,
    /// Rejoin rendezvous shared across every world generation.
    lobby: Arc<RejoinLobby>,
}

impl CommWorld {
    pub(crate) fn new(size: usize, plan: Arc<FaultPlan>, orig_ranks: Vec<usize>) -> Arc<Self> {
        Self::with_lobby(size, plan, orig_ranks, RejoinLobby::new())
    }

    /// Build a successor world (after a shrink or grow) that keeps the
    /// cluster's original rejoin lobby, so parked ranks stay reachable.
    fn with_lobby(
        size: usize,
        plan: Arc<FaultPlan>,
        orig_ranks: Vec<usize>,
        lobby: Arc<RejoinLobby>,
    ) -> Arc<Self> {
        assert!(size >= 1, "communicator needs at least one rank");
        assert_eq!(orig_ranks.len(), size);
        Arc::new(CommWorld {
            size,
            barrier: Barrier::new(size),
            f32_slots: (0..size).map(|_| RwLock::new(Vec::new())).collect(),
            f32_results: (0..size).map(|_| RwLock::new(Vec::new())).collect(),
            byte_slots: (0..size).map(|_| RwLock::new(Vec::new())).collect(),
            f64_slots: (0..size).map(|_| Mutex::new(0.0)).collect(),
            clock_slots: (0..size).map(|_| Mutex::new(0.0)).collect(),
            anchor_slots: (0..size).map(|_| Mutex::new(0.0)).collect(),
            post: PostOffice::new(size),
            plan,
            orig_ranks,
            failed: Mutex::new(Vec::new()),
            next_world: Mutex::new(None),
            lobby,
        })
    }
}

/// Timing split of one *overlapped* collective: how much of its α-β price
/// was hidden behind the compute window between launch and completion, and
/// how much remained visible on the clock. Identical on every rank (both
/// the window and the price are computed from shared deposits).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapStats {
    /// Seconds of collective price hidden behind compute (never advanced
    /// the clock; accounted in `hidden_comm_s`).
    pub hidden_s: f64,
    /// Seconds of collective price that remained visible (charged to
    /// `comm_s` as usual).
    pub visible_s: f64,
    /// Width of the shared overlap window, `max(arrival) − max(anchor)`.
    pub window_s: f64,
}

/// One rank's handle onto the cluster's collective-communication layer.
///
/// A `Communicator` owns the rank's [`SimClock`] and [`TrafficStats`]; the
/// code running on the node charges compute time through
/// [`Communicator::clock_mut`] and invokes collectives directly.
pub struct Communicator {
    world: Arc<CommWorld>,
    rank: usize,
    /// Original rank in the cluster's initial world; stable across shrinks.
    orig: usize,
    cost: CostModel,
    clock: SimClock,
    traffic: TrafficStats,
    /// Rank-local counter of fault-checked collectives; identical across
    /// ranks of an SPMD program, so induced collective faults are
    /// symmetric decisions.
    coll_seq: u64,
    /// Per-destination (original-id) send counters for the p2p drop
    /// stream; sized at the initial world size.
    p2p_seq: Vec<u64>,
    /// Reused per-rank byte-count scratch for uniform-size collectives, so
    /// steady-state all-reduces don't allocate a count vector per call.
    bytes_scratch: Vec<usize>,
    /// Per-lane overlap cursors for deferred p2p settlement (ShardPull,
    /// ShardPush, everything else). Each lane remembers how far into the
    /// compute window its hidden seconds already reached, so two receives
    /// settled against the same window cannot both hide the full width.
    p2p_cursors: [f64; 3],
}

impl Communicator {
    pub(crate) fn new(world: Arc<CommWorld>, rank: usize, spec: &ClusterSpec) -> Self {
        assert!(rank < world.size);
        let orig = world.orig_ranks[rank];
        let n_orig = world.orig_ranks.iter().copied().max().unwrap_or(0) + 1;
        Communicator {
            rank,
            orig,
            cost: CostModel::new(spec.clone()),
            clock: SimClock::with_faults(spec, orig, world.plan.clone()),
            traffic: TrafficStats::default(),
            coll_seq: 0,
            p2p_seq: vec![0; n_orig],
            bytes_scratch: Vec::new(),
            p2p_cursors: [0.0; 3],
            world,
        }
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's id in the cluster's *initial* world, before any crash
    /// shrank the communicator. Data owned per-rank (partitions, RNG
    /// streams) should be keyed on current rank; fault-plan events are
    /// keyed on original rank.
    #[inline]
    pub fn orig_rank(&self) -> usize {
        self.orig
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// Original ids of ranks detected as crashed but not yet removed by
    /// [`Communicator::shrink`].
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.world
            .failed
            .lock()
            .iter()
            .map(|&r| self.world.orig_ranks[r])
            .collect()
    }

    /// The simulated clock of this rank.
    #[inline]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Mutable access for charging local compute time.
    #[inline]
    pub fn clock_mut(&mut self) -> &mut SimClock {
        &mut self.clock
    }

    /// Communication traffic accounted so far on this rank.
    #[inline]
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Align clocks with all peers (everyone leaves at the max arrival time
    /// plus the barrier cost) without moving data.
    pub fn barrier(&mut self) {
        if self.size() == 1 {
            return;
        }
        self.sync_clocks(Collective::Barrier, &[0], None);
        self.world.barrier.wait(); // release clock slots for reuse
    }

    /// In-place sum all-reduce over `buf`: afterwards every rank holds the
    /// element-wise sum of all contributions. Deterministic (fixed-order
    /// reduction). Errors if buffer lengths differ across ranks.
    ///
    /// A copying wrapper over [`Communicator::allreduce_staged`] with no
    /// caller in first-party `src` — only tests, the crate-doc example and
    /// the frozen `benchmark/` package. Kept for `benchmark/`; do not add
    /// callers.
    pub fn allreduce_sum_f32(&mut self, buf: &mut [f32]) -> Result<(), SimError> {
        self.allreduce_staged(buf, 1.0, None, |buf, slot| slot.copy_from_slice(buf))
            .map(|_| ())
    }

    /// Sum all-reduce whose contribution is written straight into this
    /// rank's staging slot: `stage(out, slot)` fills the zeroed,
    /// `out.len()`-long `slot` (it is lent `out` as the caller left it, so
    /// an in-place caller can copy from it), and afterwards
    /// `out[i] = (((+0.0 + s₀[i]) + s₁[i]) + … + s_{p−1}[i]) * scale` on
    /// every rank — the sum in rank order, `scale` applied as a rounding
    /// of its own (never fused), so `scale = 1/p` is the rank average and
    /// `scale = 1.0` the plain sum to the bit. Errors, identically on
    /// every rank, if lengths differ across ranks.
    ///
    /// `anchor` prices the call as a *pipelined* collective launched at
    /// that simulated time: the shared window `max(arrival) − max(anchor)`
    /// hides up to that much of the α-β price (see [`OverlapStats`]).
    /// `None` is the synchronous collective, and numerics never depend on
    /// it. The protocol and why two barriers suffice: module docs.
    pub fn allreduce_staged(
        &mut self,
        out: &mut [f32],
        scale: f32,
        anchor: Option<f64>,
        stage: impl FnOnce(&[f32], &mut [f32]),
    ) -> Result<OverlapStats, SimError> {
        let (len, p) = (out.len(), self.size());
        let bytes = std::mem::size_of_val(out);
        {
            let mut slot = self.world.f32_slots[self.rank].write();
            slot.clear();
            slot.resize(len, 0.0);
            stage(out, &mut slot);
            if p == 1 {
                for (o, &v) in out.iter_mut().zip(slot.iter()) {
                    *o = v * scale;
                }
                self.traffic.record(Collective::AllReduce, bytes, bytes);
                return Ok(OverlapStats::default());
            }
        }
        let stats = self.sync_clocks_uniform(Collective::AllReduce, bytes, anchor);
        let verdict = self
            .apply_faults(Collective::AllReduce, "allreduce_sum_f32")
            .and_then(|()| self.check_f32_slot_lengths());
        if let Err(e) = verdict {
            self.world.barrier.wait(); // every rank has read the deposits
            return Err(e);
        }
        // Reduce-scatter: this rank sums slice `rank` of every slot, in
        // rank order from +0.0.
        let slice = |r: usize| r * len / p..(r + 1) * len / p;
        {
            let mut acc = self.world.f32_results[self.rank].write();
            acc.clear();
            let first = self.world.f32_slots[0].read();
            acc.extend(first[slice(self.rank)].iter().map(|&v| 0.0 + v));
            for r in 1..p {
                let slot = self.world.f32_slots[r].read();
                for (a, &v) in acc.iter_mut().zip(&slot[slice(self.rank)]) {
                    *a += v;
                }
            }
        }
        self.world.barrier.wait(); // every slice reduced, every slot read
        for r in 0..p {
            let sum = self.world.f32_results[r].read();
            for (o, &v) in out[slice(r)].iter_mut().zip(sum.iter()) {
                *o = v * scale;
            }
        }
        self.traffic.record(Collective::AllReduce, bytes, bytes);
        // Ring-style wire traffic: every rank exchanges its full payload
        // with the rest of the ring; globally Σ sent == Σ received.
        let wire = bytes * (p - 1);
        self.traffic.record_wire(Collective::AllReduce, wire, wire);
        Ok(stats)
    }

    /// Every rank checks every deposit against rank 0's, so all reach the
    /// same verdict without exchanging it.
    fn check_f32_slot_lengths(&self) -> Result<(), SimError> {
        let expected = self.world.f32_slots[0].read().len();
        for r in 1..self.size() {
            let got = self.world.f32_slots[r].read().len();
            if got != expected {
                return Err(SimError::ShapeMismatch {
                    op: "allreduce_sum_f32",
                    expected,
                    got,
                    rank: r,
                });
            }
        }
        Ok(())
    }

    /// Variable-size all-gather of opaque byte payloads into caller-owned
    /// buffers: `recv` is cleared and filled with every rank's payload
    /// concatenated in rank order, and `counts` with the per-rank byte
    /// counts. Both buffers keep their capacity across calls, so the
    /// steady state allocates nothing. A copying wrapper over
    /// [`Communicator::allgatherv_staged`].
    ///
    /// No caller in first-party `src` — only tests and the frozen
    /// `benchmark/` package. Kept for `benchmark/`; do not add callers.
    pub fn allgatherv_bytes_into(
        &mut self,
        data: &[u8],
        recv: &mut Vec<u8>,
        counts: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        recv.clear();
        counts.clear();
        self.allgatherv_staged(
            None,
            |slot| slot.extend_from_slice(data),
            |_, payload| {
                recv.extend_from_slice(payload);
                counts.push(payload.len());
            },
        )
        .map(|_| ())
    }

    /// Variable-size all-gather of opaque byte payloads (quantized /
    /// bit-packed gradients, table rows) with no copy on either side:
    /// `stage` writes this rank's payload straight into its cleared
    /// staging slot (its return value is handed back), and `each(rank,
    /// payload)` then reads every rank's payload — this rank's included —
    /// in place, in rank order. The slots keep their capacity across
    /// calls, so the steady state allocates nothing.
    ///
    /// `anchor` prices the call as a *pipelined* collective launched at
    /// that simulated time, exactly as for
    /// [`Communicator::allreduce_staged`]; `None` is the synchronous
    /// collective. Payload movement and determinism never depend on it.
    pub fn allgatherv_staged<S>(
        &mut self,
        anchor: Option<f64>,
        stage: impl FnOnce(&mut Vec<u8>) -> S,
        mut each: impl FnMut(usize, &[u8]),
    ) -> Result<(S, OverlapStats), SimError> {
        let (staged, sent) = {
            let mut slot = self.world.byte_slots[self.rank].write();
            slot.clear();
            let staged = stage(&mut slot);
            if self.size() == 1 {
                self.traffic.record(Collective::AllGatherV, slot.len(), slot.len());
                each(0, &slot);
                return Ok((staged, OverlapStats::default()));
            }
            (staged, slot.len())
        };
        // Pricing needs every rank's byte count, which only exists once
        // the deposits are visible: deposit the clock alongside the data
        // and align after the barrier.
        self.deposit_clock(anchor);
        self.world.barrier.wait();
        let mut counts = std::mem::take(&mut self.bytes_scratch);
        counts.clear();
        counts.extend(self.world.byte_slots.iter().map(|s| s.read().len()));
        let total: usize = counts.iter().sum();
        let stats = self.align_and_charge(Collective::AllGatherV, &counts);
        self.bytes_scratch = counts;
        if let Err(e) = self.apply_faults(Collective::AllGatherV, "allgatherv_bytes") {
            self.world.barrier.wait();
            return Err(e);
        }
        for (r, slot) in self.world.byte_slots.iter().enumerate() {
            each(r, &slot.read());
        }
        self.traffic.record(Collective::AllGatherV, sent, total);
        // Each rank ships its own payload to p−1 peers and takes delivery
        // of everyone else's.
        self.traffic
            .record_wire(Collective::AllGatherV, sent * (self.size() - 1), total - sent);
        self.world.barrier.wait(); // everyone done reading
        Ok((staged, stats))
    }

    /// Scalar sum all-reduce (f64), in rank order.
    pub fn allreduce_sum_f64(&mut self, v: f64) -> f64 {
        if self.size() == 1 {
            self.traffic.record(Collective::AllReduce, 8, 8);
            return v;
        }
        *self.world.f64_slots[self.rank].lock() = v;
        self.sync_clocks_uniform(Collective::AllReduce, 8, None);
        let mut acc = *self.world.f64_slots[0].lock();
        for r in 1..self.size() {
            acc += *self.world.f64_slots[r].lock();
        }
        self.traffic.record(Collective::AllReduce, 8, 8);
        let wire = 8 * (self.size() - 1);
        self.traffic.record_wire(Collective::AllReduce, wire, wire);
        self.world.barrier.wait();
        acc
    }

    /// Send `payload` to `dst`. The sender's clock advances by the
    /// injection overhead α; the message arrives (for the receiver's
    /// simulated clock) a full `α + bytes·β` after the send started.
    ///
    /// Under an active fault plan, transmission attempts may be lost:
    /// each loss charges timeout + backoff to `retry_s`, and exhausting
    /// the retry budget fails with [`SimError::Timeout`] (nothing is
    /// delivered). Link degradation inflates the effective α/β — the
    /// latency surplus is charged to the sender's `fault_s`, the
    /// bandwidth surplus shows up as a later arrival at the receiver.
    pub fn send_bytes(&mut self, dst: usize, payload: &[u8]) -> Result<(), SimError> {
        self.send_bytes_as(dst, payload, Collective::PointToPoint)
    }

    /// [`Communicator::send_bytes`] accounted under a specific p2p traffic
    /// bucket ([`Collective::PointToPoint`], [`Collective::ShardPull`] or
    /// [`Collective::ShardPush`]). Timing, fault handling and delivery are
    /// identical for every bucket; only the [`TrafficStats`] attribution
    /// differs, so sharded-store pull/push volume is reported apart from
    /// generic point-to-point messages.
    ///
    /// [`TrafficStats`]: crate::TrafficStats
    pub fn send_bytes_as(
        &mut self,
        dst: usize,
        payload: &[u8],
        op: Collective,
    ) -> Result<(), SimError> {
        if dst >= self.size() {
            return Err(SimError::InvalidRank {
                rank: dst,
                size: self.size(),
            });
        }
        let bytes = payload.len();
        let plan = Arc::clone(&self.world.plan);
        // An inert plan loses no attempt and degrades no link (factors 1.0
        // leave α and β bit-for-bit), and its sends leave the
        // per-destination sequence counters where they are.
        let fails = if plan.is_inert() {
            0
        } else {
            let dst_orig = self.world.orig_ranks[dst];
            let seq = self.p2p_seq[dst_orig];
            self.p2p_seq[dst_orig] += 1;
            plan.p2p_failed_attempts(self.orig, dst_orig, seq)
        };
        if fails > 0 {
            let mut waited = 0.0;
            for i in 0..fails {
                waited += plan.retry.retry_cost_s(i);
            }
            self.clock.charge_retry_seconds(waited);
            self.traffic.record_retries(op, fails as u64);
            if fails > plan.retry.max_retries {
                return Err(SimError::Timeout {
                    op: "send_bytes",
                    rank: self.rank,
                    waited_s: waited,
                });
            }
        }
        let healthy_alpha = self.cost.spec().latency_s;
        let (lat_mult, bw_div) = plan.link_factors(self.clock.now_s());
        let eff_spec = self.cost.spec().degraded(lat_mult, bw_div);
        let arrival = self.clock.now_s() + eff_spec.p2p_time(bytes);
        self.clock.charge_comm_seconds(healthy_alpha);
        if eff_spec.latency_s > healthy_alpha {
            self.clock
                .charge_fault_seconds(eff_spec.latency_s - healthy_alpha);
        }
        self.traffic.record(op, bytes, 0);
        self.traffic.record_wire(op, bytes, 0);
        self.world.post.deposit(
            dst,
            Message {
                src: self.rank,
                op,
                payload: payload.to_vec(),
                arrival_s: arrival,
            },
        );
        Ok(())
    }

    /// Receive the next message from `src`, blocking until it exists and
    /// idling the simulated clock until its arrival time, then charging
    /// the LogGP-style receive occupancy `bytes·β` — draining bytes off
    /// the link is work the receiving NIC/node must serialize, which is
    /// precisely what turns a many-to-one pattern (e.g. a parameter
    /// server's ingress) into a bottleneck. Draining peers in a fixed
    /// rank order keeps programs deterministic.
    pub fn recv_bytes_from(&mut self, src: usize) -> Result<Message, SimError> {
        self.recv_bytes_from_as(src, Collective::PointToPoint)
    }

    /// [`Communicator::recv_bytes_from`] accounted under a specific p2p
    /// traffic bucket; see [`Communicator::send_bytes_as`].
    pub fn recv_bytes_from_as(&mut self, src: usize, op: Collective) -> Result<Message, SimError> {
        if src >= self.size() {
            return Err(SimError::InvalidRank {
                rank: src,
                size: self.size(),
            });
        }
        let msg = self.world.post.take_from(self.rank, src);
        self.charge_receive(&msg, op);
        Ok(msg)
    }

    fn charge_receive(&mut self, msg: &Message, op: Collective) {
        self.clock.charge_idle_until(msg.arrival_s);
        let occupancy = msg.payload.len() as f64 / self.cost.spec().bandwidth_bps;
        self.charge_split(occupancy, 0.0);
        self.traffic.record(op, 0, msg.payload.len());
        self.traffic.record_wire(op, 0, msg.payload.len());
    }

    /// Overlap lane for a p2p traffic bucket: the sharded pull and push
    /// streams hide seconds independently (they model full-duplex
    /// directions of the link), everything else shares one lane.
    fn p2p_lane(op: Collective) -> usize {
        match op {
            Collective::ShardPull => 0,
            Collective::ShardPush => 1,
            _ => 2,
        }
    }

    /// Take the next message from `src` and record its traffic, **without
    /// charging the simulated clock**. The caller owes a later
    /// [`Communicator::charge_p2p_deferred`] for `(msg.arrival_s,
    /// msg.payload.len())` — splitting take from settle lets a prefetch
    /// pipeline drain its mailbox in FIFO order at one point in the
    /// protocol while pricing the receive against a compute window that
    /// closes later.
    pub fn recv_bytes_from_as_unpriced(
        &mut self,
        src: usize,
        op: Collective,
    ) -> Result<Message, SimError> {
        if src >= self.size() {
            return Err(SimError::InvalidRank {
                rank: src,
                size: self.size(),
            });
        }
        let msg = self.world.post.take_from(self.rank, src);
        self.traffic.record(op, 0, msg.payload.len());
        self.traffic.record_wire(op, 0, msg.payload.len());
        Ok(msg)
    }

    /// Settle one deferred p2p receive against the compute window open
    /// since `anchor_s` (the launch time recorded when the transfer was
    /// requested). The clock first idles to `arrival_s` exactly as the
    /// synchronous receive would — data that has not arrived cannot be
    /// hidden — then the receive occupancy `bytes·β` is split against the
    /// lane's remaining window: up to `now − max(anchor, cursor)` seconds
    /// hide in `hidden_comm_s`, the rest is charged to `comm_s`. The lane
    /// cursor advances by the hidden amount so consecutive settles against
    /// one window cannot double-hide. With a zero-width window (anchor ==
    /// now) the charges are bit-identical to [`recv_bytes_from_as`].
    ///
    /// [`recv_bytes_from_as`]: Communicator::recv_bytes_from_as
    pub fn charge_p2p_deferred(
        &mut self,
        op: Collective,
        arrival_s: f64,
        bytes: usize,
        anchor_s: f64,
    ) -> OverlapStats {
        // The window closes when settlement starts: idling for a late
        // arrival is not compute and must not widen it (bytes cannot be
        // drained before they exist on the link).
        let lane = Self::p2p_lane(op);
        let eff_anchor = anchor_s.max(self.p2p_cursors[lane]);
        let window = (self.clock.now_s() - eff_anchor).max(0.0);
        self.clock.charge_idle_until(arrival_s);
        let occupancy = bytes as f64 / self.cost.spec().bandwidth_bps;
        let stats = self.charge_split(occupancy, window);
        self.p2p_cursors[lane] = eff_anchor + stats.hidden_s;
        stats
    }

    /// Split `price` seconds against an overlap `window`: up to `window`
    /// of it hides in `hidden_comm_s`, the window is recorded in
    /// `overlap_s`, and the rest is charged to `comm_s`. A zero-width
    /// window is the synchronous charge: it adds `+0.0` to the two
    /// informational buckets, which moves no bit.
    fn charge_split(&mut self, price: f64, window: f64) -> OverlapStats {
        let hidden = price.min(window);
        let visible = price - hidden;
        self.clock.charge_hidden_comm_seconds(hidden);
        self.clock.record_overlap_window_seconds(window);
        self.clock.charge_comm_seconds(visible);
        OverlapStats {
            hidden_s: hidden,
            visible_s: visible,
            window_s: window,
        }
    }

    /// [`Communicator::sync_clocks`] for collectives where every rank moves
    /// the same `bytes`, using the communicator's reused count scratch
    /// instead of building a fresh `vec![bytes; size]` per call.
    fn sync_clocks_uniform(
        &mut self,
        op: Collective,
        bytes: usize,
        anchor: Option<f64>,
    ) -> OverlapStats {
        let size = self.size();
        let mut scratch = std::mem::take(&mut self.bytes_scratch);
        scratch.clear();
        scratch.resize(size, bytes);
        let stats = self.sync_clocks(op, &scratch, anchor);
        self.bytes_scratch = scratch;
        stats
    }

    /// Deposit clock (and overlap anchor, when pipelined), barrier, align
    /// to latest arrival, charge the cost of `op` moving `per_rank_bytes`.
    fn sync_clocks(
        &mut self,
        op: Collective,
        per_rank_bytes: &[usize],
        anchor: Option<f64>,
    ) -> OverlapStats {
        self.deposit_clock(anchor);
        self.world.barrier.wait();
        self.align_and_charge(op, per_rank_bytes)
    }

    /// Publish this rank's arrival time and the launch time of the
    /// exchange it is completing: the pipelined launch's `anchor`, or the
    /// arrival itself for a synchronous collective, whose window is then
    /// zero-width.
    fn deposit_clock(&mut self, anchor: Option<f64>) {
        let now = self.clock.now_s();
        *self.world.anchor_slots[self.rank].lock() = anchor.unwrap_or(now);
        *self.world.clock_slots[self.rank].lock() = now;
    }

    /// Clock alignment + pricing; assumes the deposits are visible (a
    /// barrier has been crossed since every rank wrote its slots). The
    /// shared window `max(arrival) − max(anchor)` hides up to `window`
    /// seconds of the price (bookkept in `hidden_comm_s`), and only the
    /// remainder advances the clock; a synchronous collective's window is
    /// zero. Window and price are computed from shared deposits, so all
    /// ranks leave at the same simulated time — the invariant every
    /// synchronous collective relies on.
    fn align_and_charge(&mut self, op: Collective, per_rank_bytes: &[usize]) -> OverlapStats {
        let mut t_max = f64::NEG_INFINITY;
        let mut anchor_max = f64::NEG_INFINITY;
        for r in 0..self.size() {
            t_max = t_max.max(*self.world.clock_slots[r].lock());
            anchor_max = anchor_max.max(*self.world.anchor_slots[r].lock());
        }
        // Each rank's arrival is at or past its own anchor, so the window
        // is non-negative; the guard is belt-and-braces.
        let window = (t_max - anchor_max).max(0.0);
        self.clock.charge_idle_until(t_max);
        let price = self.cost.price(op, per_rank_bytes);
        // Clocks are aligned (everyone sits at t_max), so the link factors
        // — and therefore the surcharge — are identical on every rank.
        let plan = Arc::clone(&self.world.plan);
        let (lat_mult, bw_div) = if plan.is_inert() {
            (1.0, 1.0)
        } else {
            plan.link_factors(self.clock.now_s())
        };
        let stats = self.charge_split(price, window);
        if lat_mult > 1.0 || bw_div > 1.0 {
            let degraded = self.cost.degraded(lat_mult, bw_div).price(op, per_rank_bytes);
            // The degradation surplus is never hidden: the overlap budget
            // was sized for the healthy price.
            if degraded > price {
                self.clock.charge_fault_seconds(degraded - price);
            }
        }
        stats
    }

    /// Fault hooks shared by the data collectives, run right after clock
    /// alignment while every rank's deposited arrival time is still
    /// visible in `clock_slots`. Two checks, both **symmetric** — every
    /// rank computes the same outcome from shared state, so error paths
    /// stay collectively well-formed:
    ///
    /// 1. **Crash detection**: if any participant's deposited clock has
    ///    passed its scheduled crash time, the failure-detection timeout
    ///    is charged to `fault_s`, the crashed ranks are queued for
    ///    [`Communicator::shrink`], and the collective fails with
    ///    [`SimError::RankCrashed`].
    /// 2. **Induced collective faults**: the `coll_seq`-th collective may
    ///    lose attempts per the plan's drop stream; timeout + backoff is
    ///    charged to `retry_s` and counted in the traffic stats.
    ///    Exhausting the retry budget yields [`SimError::Timeout`].
    ///
    /// On `Err` the caller crosses one barrier before returning, so the
    /// staging slots stay protected (all ranks take the same path).
    ///
    /// `barrier` and the scalar reductions do not return `Result` and are
    /// deliberately outside the fault surface: faults are only ever
    /// raised where the caller can observe them.
    fn apply_faults(&mut self, op: Collective, opname: &'static str) -> Result<(), SimError> {
        let plan = Arc::clone(&self.world.plan);
        if plan.is_inert() {
            return Ok(());
        }
        let seq = self.coll_seq;
        self.coll_seq += 1;

        // Crash detection first: a dead rank cannot retry its way back.
        // `is_down` (not `crash_time`) bounds the detection window, so a
        // rank that recovered and rejoined is not re-detected by its old
        // crash entry; with no recoveries scheduled the two are identical.
        let mut crashed: Vec<usize> = Vec::new();
        for r in 0..self.size() {
            let arrival = *self.world.clock_slots[r].lock();
            if plan.is_down(self.world.orig_ranks[r], arrival) {
                crashed.push(r);
            }
        }
        if !crashed.is_empty() {
            self.clock.charge_fault_seconds(plan.retry.timeout_s);
            let first = self.world.orig_ranks[crashed[0]];
            let mut failed = self.world.failed.lock();
            for r in crashed {
                if !failed.contains(&r) {
                    failed.push(r);
                }
            }
            failed.sort_unstable();
            return Err(SimError::RankCrashed { rank: first });
        }

        let fails = plan.collective_failed_attempts(seq);
        if fails > 0 {
            let mut waited = 0.0;
            for i in 0..fails {
                waited += plan.retry.retry_cost_s(i);
            }
            self.clock.charge_retry_seconds(waited);
            self.traffic.record_retries(op, fails as u64);
            if fails > plan.retry.max_retries {
                return Err(SimError::Timeout {
                    op: opname,
                    rank: self.rank,
                    waited_s: waited,
                });
            }
        }
        Ok(())
    }

    /// Remove crashed ranks from the communicator. Collective over the
    /// *old* world: after a [`SimError::RankCrashed`] error, every rank —
    /// including the crashed ones, whose host threads are still running —
    /// must call `shrink`. Returns `Ok(true)` for survivors, whose
    /// communicator afterwards addresses the shrunken world (with a new,
    /// dense rank id; see [`Communicator::orig_rank`]), and `Ok(false)`
    /// for crashed ranks, which must stop using the communicator. Clock
    /// and traffic accounts carry over. Undelivered p2p messages die with
    /// the old world; their senders counted them on the wire, so each
    /// rank counts the ones still queued to it as received — in their own
    /// traffic bucket, unpriced — and wire conservation stays exact.
    pub fn shrink(&mut self) -> Result<bool, SimError> {
        let failed: Vec<usize> = self.world.failed.lock().clone();
        if failed.is_empty() {
            return Ok(true);
        }
        let survivors: Vec<usize> = (0..self.size()).filter(|r| !failed.contains(r)).collect();
        assert!(!survivors.is_empty(), "every rank of the communicator crashed");
        let i_survive = !failed.contains(&self.rank);
        if i_survive && self.rank == survivors[0] {
            let orig: Vec<usize> = survivors.iter().map(|&r| self.world.orig_ranks[r]).collect();
            let new_world = CommWorld::with_lobby(
                survivors.len(),
                Arc::clone(&self.world.plan),
                orig,
                Arc::clone(&self.world.lobby),
            );
            *self.world.next_world.lock() = Some(new_world);
        }
        self.world.barrier.wait(); // staged world visible; every old-world send is in
        let traffic = &mut self.traffic;
        self.world.post.drain(self.rank, |msg| traffic.record_wire(msg.op, 0, msg.payload.len()));
        if !i_survive {
            return Ok(false);
        }
        let new_world = self
            .world
            .next_world
            .lock()
            .clone()
            .expect("lowest survivor stages the new world");
        self.rank = survivors
            .iter()
            .position(|&r| r == self.rank)
            .expect("survivor present in survivor list");
        self.world = new_world;
        Ok(true)
    }

    /// Re-admit crashed ranks whose scheduled recovery time has passed.
    /// Collective over the current (survivor) world — every rank must call
    /// it at the same program point, typically an epoch boundary. Returns
    /// the original ids of the ranks that rejoined (empty when none were
    /// due). Afterwards the communicator addresses the grown world and
    /// `rank()` may have changed (ranks are dense in original-id order).
    ///
    /// The decision is a pure function of the fault plan, the aligned
    /// simulated clock, and the set of already-consumed recoveries, so all
    /// survivors agree without exchanging data. Each rejoining rank must
    /// be parked in [`Communicator::await_rejoin`]; the post-grow barrier
    /// blocks until it has adopted its assignment, and pulls its stale
    /// clock forward to the survivors' aligned time.
    ///
    /// With no recoveries in the plan this is free: no barrier, no clock
    /// movement, no state change.
    pub fn try_grow(&mut self) -> Vec<usize> {
        let plan = Arc::clone(&self.world.plan);
        if !plan.has_recoveries() {
            return Vec::new();
        }
        // Align clocks so every survivor evaluates recovery deadlines
        // against the same simulated instant.
        self.barrier();
        let now = self.clock.now_s();
        // Snapshot the consumed-recovery set. The barrier *after* the read
        // fences it against the leader's mutation below: without it, a
        // fast leader could push this round's candidates into `rejoined`
        // before a slow survivor reads the set, and that survivor would
        // compute an empty candidate list and desert the staging barrier.
        let rejoined: Vec<usize> = self.world.lobby.state.lock().rejoined.clone();
        self.world.barrier.wait(); // every survivor has snapshotted
        let mut candidates: Vec<usize> = plan
            .crashes
            .iter()
            .filter(|c| c.recover_at_s.is_some_and(|t| t <= now))
            .map(|c| c.rank)
            .filter(|r| !rejoined.contains(r) && !self.world.orig_ranks.contains(r))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        // Identical inputs on every survivor, so this return is symmetric.
        if candidates.is_empty() {
            return candidates;
        }
        let mut new_orig = self.world.orig_ranks.clone();
        new_orig.extend_from_slice(&candidates);
        new_orig.sort_unstable();
        let my_rank = new_orig
            .iter()
            .position(|&r| r == self.orig)
            .expect("survivor keeps its original id");
        if self.rank == 0 {
            let world = CommWorld::with_lobby(
                new_orig.len(),
                Arc::clone(&plan),
                new_orig.clone(),
                Arc::clone(&self.world.lobby),
            );
            {
                let mut st = self.world.lobby.state.lock();
                for &c in &candidates {
                    let r = new_orig
                        .iter()
                        .position(|&x| x == c)
                        .expect("candidate present in grown world");
                    st.assignments.insert(c, (Arc::clone(&world), r, my_rank));
                    st.rejoined.push(c);
                }
            }
            self.world.lobby.cv.notify_all();
            *self.world.next_world.lock() = Some(world);
        }
        self.world.barrier.wait(); // staged world visible to all survivors
        let world = self
            .world
            .next_world
            .lock()
            .clone()
            .expect("leader stages the grown world");
        self.rank = my_rank;
        self.world = world;
        // First collective of the grown world; the rejoiners' counterpart
        // lives in `await_rejoin`, and the alignment inside pulls their
        // stale clocks up to the survivors'.
        self.barrier();
        candidates
    }

    /// Park a crashed rank until the survivors re-admit it via
    /// [`Communicator::try_grow`] or the run ends. Call only after
    /// [`Communicator::shrink`] returned `Ok(false)` and the fault plan
    /// schedules a recovery for this rank. Returns `Some(leader)` when the
    /// rank rejoined — the communicator now addresses the grown world, and
    /// `leader` is the rank of the grow leader, the survivor to ask for
    /// current replica state — and `None` when the lobby closed first: the
    /// run finished without it.
    pub fn await_rejoin(&mut self) -> Option<usize> {
        let lobby = Arc::clone(&self.world.lobby);
        let mut st = lobby.state.lock();
        loop {
            if let Some((world, rank, leader)) = st.assignments.remove(&self.orig) {
                drop(st);
                self.world = world;
                self.rank = rank;
                // Counterpart of the survivors' post-grow barrier.
                self.barrier();
                return Some(leader);
            }
            if st.closed {
                return None;
            }
            lobby.cv.wait(&mut st);
        }
    }

    /// Close the rejoin lobby: ranks parked in
    /// [`Communicator::await_rejoin`] wake up and return `false`.
    /// Idempotent; every survivor calls it once its program is done, so a
    /// scheduled recovery the run never reached cannot leave a parked
    /// thread hanging.
    pub fn close_lobby(&self) {
        let mut st = self.world.lobby.state.lock();
        st.closed = true;
        st.assignments.clear();
        self.world.lobby.cv.notify_all();
    }

    /// Original ids of every rank in the current world, in rank order.
    #[inline]
    pub fn orig_ranks(&self) -> &[usize] {
        &self.world.orig_ranks
    }

    /// Number of fault-checked collectives so far (the cursor into the
    /// plan's induced-fault stream). Checkpointed so a resumed run replays
    /// the same fault decisions.
    #[inline]
    pub fn coll_seq(&self) -> u64 {
        self.coll_seq
    }

    /// Per-destination p2p send counters (indexed by original rank), the
    /// cursor into the plan's p2p drop streams.
    #[inline]
    pub fn p2p_seq(&self) -> &[u64] {
        &self.p2p_seq
    }

    /// Restore the fault-stream cursors captured by a checkpoint. Slices
    /// shorter than the current world's counter vector leave the tail
    /// untouched; longer ones are truncated.
    pub fn restore_sequences(&mut self, coll_seq: u64, p2p_seq: &[u64]) {
        self.coll_seq = coll_seq;
        let n = self.p2p_seq.len().min(p2p_seq.len());
        self.p2p_seq[..n].copy_from_slice(&p2p_seq[..n]);
    }

    /// Mutable traffic counters, for restoring checkpointed totals.
    #[inline]
    pub fn traffic_mut(&mut self) -> &mut TrafficStats {
        &mut self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Cluster;

    #[test]
    fn allreduce_sums_across_ranks() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let mut v = vec![(ctx.rank() + 1) as f32; 16];
            ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            v
        });
        for v in out {
            assert!(v.iter().all(|&x| x == 10.0));
        }
    }

    #[test]
    fn allreduce_single_rank_is_identity() {
        let cluster = Cluster::new(1, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let mut v = vec![3.5f32, -1.0];
            ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            v
        });
        assert_eq!(out[0], vec![3.5, -1.0]);
    }

    #[test]
    fn allgatherv_bytes_into_concatenates_in_rank_order() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let payload = vec![ctx.rank() as u8; ctx.rank() + 1];
            let (mut flat, mut counts) = (vec![9u8; 3], vec![7usize]); // stale
            ctx.comm_mut()
                .allgatherv_bytes_into(&payload, &mut flat, &mut counts)
                .unwrap();
            (flat, counts)
        });
        for (flat, counts) in out {
            assert_eq!(counts, vec![1, 2, 3, 4]);
            assert_eq!(flat, vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
        }
    }

    #[test]
    fn allgatherv_staged_reads_every_payload_in_place_in_rank_order() {
        for p in [1usize, 3] {
            let cluster = Cluster::new(p, ClusterSpec::cray_xc40());
            let out = cluster.run(|ctx| {
                let rank = ctx.rank();
                let mut seen = Vec::new();
                let (staged, _) = ctx
                    .comm_mut()
                    .allgatherv_staged(
                        None,
                        |slot| {
                            assert!(slot.is_empty(), "slot arrives cleared");
                            slot.resize(2 * rank + 1, rank as u8 + 1);
                            slot.len()
                        },
                        |r, payload| seen.push((r, payload.to_vec())),
                    )
                    .unwrap();
                assert_eq!(staged, 2 * rank + 1, "stage's value is handed back");
                seen
            });
            let want: Vec<(usize, Vec<u8>)> =
                (0..p).map(|r| (r, vec![r as u8 + 1; 2 * r + 1])).collect();
            for seen in out {
                assert_eq!(seen, want);
            }
        }
    }

    #[test]
    fn allgatherv_bytes_into_single_rank() {
        let cluster = Cluster::new(1, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let mut flat = vec![9u8; 4]; // stale contents must be cleared
            let mut counts = vec![7usize]; // likewise
            ctx.comm_mut()
                .allgatherv_bytes_into(&[1, 2, 3], &mut flat, &mut counts)
                .unwrap();
            (flat, counts)
        });
        assert_eq!(out[0].0, vec![1, 2, 3]);
        assert_eq!(out[0].1, vec![3]);
    }

    #[test]
    fn scalar_sum_reduces_across_ranks() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let r = ctx.rank() as f64;
            ctx.comm_mut().allreduce_sum_f64(r)
        });
        assert_eq!(out, vec![6.0; 4]);
    }

    #[test]
    fn allreduce_shape_mismatch_errors_on_all_ranks() {
        let cluster = Cluster::new(3, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let mut v = vec![1.0f32; 4 + ctx.rank() / 2];
            let err = ctx.comm_mut().allreduce_sum_f32(&mut v).err();
            // The world stays usable after the symmetric error.
            let mut w = vec![1.0f32; 5];
            ctx.comm_mut().allreduce_sum_f32(&mut w).unwrap();
            (err, w)
        });
        let want = SimError::ShapeMismatch {
            op: "allreduce_sum_f32",
            expected: 4,
            got: 5,
            rank: 2,
        };
        for (err, w) in out {
            assert_eq!(err, Some(want.clone()), "same verdict on every rank");
            assert_eq!(w, vec![3.0; 5]);
        }
    }

    #[test]
    fn allreduce_staged_scales_as_a_separate_rounding() {
        // 3 ranks × 7 elements: uneven slices (2, 2, 3).
        let contrib = |rank: usize, i: usize| (rank as f32 + 0.1) * (i as f32 - 3.0) / 7.0;
        let cluster = Cluster::new(3, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let rank = ctx.rank();
            let mut sum: Vec<f32> = (0..7).map(|i| contrib(rank, i)).collect();
            ctx.comm_mut().allreduce_sum_f32(&mut sum).unwrap();
            let mut avg = vec![f32::NAN; 7];
            ctx.comm_mut()
                .allreduce_staged(&mut avg, 1.0 / 3.0, None, |_, slot| {
                    assert!(slot.iter().all(|v| v.to_bits() == 0), "slot arrives zeroed");
                    for (i, v) in slot.iter_mut().enumerate() {
                        *v += contrib(rank, i);
                    }
                })
                .unwrap();
            (sum, avg)
        });
        for (sum, avg) in &out {
            for i in 0..7 {
                let want = ((0.0 + contrib(0, i)) + contrib(1, i)) + contrib(2, i);
                assert_eq!(sum[i].to_bits(), want.to_bits());
                assert_eq!(avg[i].to_bits(), (want * (1.0 / 3.0)).to_bits());
            }
        }
    }

    #[test]
    fn collectives_advance_simulated_clock_equally() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            // Skew the arrival times: slower ranks arrive later.
            let skew = ctx.rank() as f64 * 0.25;
            ctx.comm_mut().clock_mut().charge_compute_seconds(skew);
            let mut v = vec![0.0f32; 1024];
            ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            ctx.comm().clock().now_s()
        });
        // Synchronous collective: everyone leaves at the same simulated time.
        for t in &out {
            assert!((t - out[0]).abs() < 1e-12, "clocks diverged: {out:?}");
        }
        assert!(out[0] > 0.75, "must include the slowest arrival");
    }

    #[test]
    fn idle_time_attributed_to_fast_ranks() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.comm_mut().clock_mut().charge_compute_seconds(1.0);
            }
            ctx.comm_mut().barrier();
            ctx.comm().clock().breakdown()
        });
        assert!(out[0].idle_s > 0.9, "rank 0 should have idled: {:?}", out[0]);
        assert!(out[1].idle_s < 1e-9, "rank 1 never waits: {:?}", out[1]);
    }

    #[test]
    fn traffic_is_accounted() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let mut v = vec![1.0f32; 100];
            ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            let payload = vec![0u8; 400];
            ctx.comm_mut()
                .allgatherv_staged(None, |slot| slot.extend_from_slice(&payload), |_, _| {})
                .unwrap();
            ctx.comm().traffic().report()
        });
        let rep = &out[0];
        assert_eq!(rep.ops(Collective::AllReduce), 1);
        assert_eq!(rep.ops(Collective::AllGatherV), 1);
        assert_eq!(rep.bytes_sent(Collective::AllReduce), 400);
        // allgather receives both ranks' 400-byte payloads.
        assert_eq!(rep.bytes_recv(Collective::AllGatherV), 800);
    }

    #[test]
    fn overlapped_allreduce_hides_price_behind_compute_window() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let comm = ctx.comm_mut();
            let anchor = comm.clock().now_s();
            comm.clock_mut().charge_compute_seconds(1.0); // ≫ the price
            let mut v = vec![1.0f32; 1 << 16];
            let stats = comm
                .allreduce_staged(&mut v, 1.0, Some(anchor), |v, slot| slot.copy_from_slice(v))
                .unwrap();
            (stats, comm.clock().now_s(), comm.clock().breakdown(), v[0])
        });
        let price = CostModel::new(ClusterSpec::cray_xc40()).allreduce(2, 4 << 16);
        assert!(price > 0.0 && price < 1.0);
        for (stats, now, b, x) in &out {
            assert_eq!(*x, 2.0, "numerics unchanged by overlap pricing");
            assert!((stats.window_s - 1.0).abs() < 1e-9);
            assert!((stats.hidden_s - price).abs() < 1e-12, "fully hidden");
            assert_eq!(stats.visible_s, 0.0);
            assert!((now - 1.0).abs() < 1e-9, "clock never saw the price");
            assert!((b.hidden_comm_s - price).abs() < 1e-12);
            assert!((b.overlap_s - 1.0).abs() < 1e-9);
            assert_eq!(b.comm_s, 0.0);
        }
        assert_eq!(out[0].1.to_bits(), out[1].1.to_bits(), "clocks aligned");
    }

    #[test]
    fn overlapped_with_empty_window_matches_synchronous_timing() {
        let spec = ClusterSpec::cray_xc40;
        let plain = Cluster::new(3, spec()).run(|ctx| {
            let mut v = vec![0.5f32; 4096];
            ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            (ctx.comm().clock().now_s(), v)
        });
        let overlapped = Cluster::new(3, spec()).run(|ctx| {
            let mut v = vec![0.5f32; 4096];
            let anchor = ctx.comm().clock().now_s();
            let stats = ctx
                .comm_mut()
                .allreduce_staged(&mut v, 1.0, Some(anchor), |v, slot| slot.copy_from_slice(v))
                .unwrap();
            assert_eq!(stats.window_s, 0.0);
            assert_eq!(stats.hidden_s, 0.0);
            (ctx.comm().clock().now_s(), v)
        });
        for ((tp, vp), (to, vo)) in plain.iter().zip(overlapped.iter()) {
            assert_eq!(tp.to_bits(), to.to_bits(), "zero window ⇒ same price");
            assert_eq!(vp, vo);
        }
    }

    #[test]
    fn overlapped_allgatherv_partial_window_charges_remainder() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let comm = ctx.comm_mut();
            let anchor = comm.clock().now_s();
            let window = 1.0e-5; // smaller than the price below
            comm.clock_mut().charge_compute_seconds(window);
            let payload = vec![ctx.rank() as u8; 1 << 20];
            let mut total = 0usize;
            let ((), stats) = ctx
                .comm_mut()
                .allgatherv_staged(
                    Some(anchor),
                    |slot| slot.extend_from_slice(&payload),
                    |_, peer| total += peer.len(),
                )
                .unwrap();
            (stats, ctx.comm().clock().now_s(), total)
        });
        for (stats, _now, total) in &out {
            assert_eq!(*total, 2 << 20);
            assert!(stats.visible_s > 0.0, "window smaller than price");
            assert!((stats.hidden_s - stats.window_s).abs() < 1e-15);
        }
        assert_eq!(out[0].1.to_bits(), out[1].1.to_bits(), "clocks aligned");
    }

    #[test]
    fn overlapped_p2p_recv_hides_occupancy_behind_compute_window() {
        let spec = ClusterSpec::cray_xc40();
        let occupancy = 1e6 / spec.bandwidth_bps;
        let cluster = Cluster::new(2, spec.clone());
        let out = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let payload = vec![7u8; 1_000_000];
                ctx.comm_mut()
                    .send_bytes_as(1, &payload, Collective::ShardPull)
                    .unwrap();
                None
            } else {
                let comm = ctx.comm_mut();
                let anchor = comm.clock().now_s();
                comm.clock_mut().charge_compute_seconds(1.0); // ≫ arrival + occupancy
                let msg = comm
                    .recv_bytes_from_as_unpriced(0, Collective::ShardPull)
                    .unwrap();
                let stats = comm.charge_p2p_deferred(
                    Collective::ShardPull,
                    msg.arrival_s,
                    msg.payload.len(),
                    anchor,
                );
                assert_eq!(msg.payload.len(), 1_000_000);
                Some((stats, comm.clock().now_s(), comm.clock().breakdown()))
            }
        });
        let (stats, now, b) = out[1].unwrap();
        // The transfer completed during the compute window, so the clock
        // never idled and the occupancy hid entirely.
        assert!((stats.hidden_s - occupancy).abs() < 1e-12, "fully hidden");
        assert_eq!(stats.visible_s, 0.0);
        assert!((stats.window_s - 1.0).abs() < 1e-9);
        assert!((now - 1.0).abs() < 1e-12, "clock never saw the receive");
        assert_eq!(b.idle_s, 0.0);
        assert!((b.hidden_comm_s - occupancy).abs() < 1e-12);
        assert_eq!(b.comm_s, 0.0);
    }

    #[test]
    fn overlapped_p2p_with_zero_window_matches_synchronous_receive() {
        let spec = ClusterSpec::cray_xc40;
        let program = |overlapped: bool| {
            Cluster::new(2, spec()).run(move |ctx| {
                if ctx.rank() == 0 {
                    let payload = vec![3u8; 123_457];
                    ctx.comm_mut()
                        .send_bytes_as(1, &payload, Collective::ShardPull)
                        .unwrap();
                } else {
                    let comm = ctx.comm_mut();
                    if overlapped {
                        let anchor = comm.clock().now_s();
                        let msg = comm
                            .recv_bytes_from_as_unpriced(0, Collective::ShardPull)
                            .unwrap();
                        let stats = comm.charge_p2p_deferred(
                            Collective::ShardPull,
                            msg.arrival_s,
                            msg.payload.len(),
                            anchor,
                        );
                        assert_eq!(stats.hidden_s, 0.0);
                    } else {
                        comm.recv_bytes_from_as(0, Collective::ShardPull).unwrap();
                    }
                }
                (ctx.comm().clock().now_s(), ctx.comm().clock().breakdown())
            })
        };
        let plain = program(false);
        let over = program(true);
        for ((tp, bp), (to, bo)) in plain.iter().zip(over.iter()) {
            assert_eq!(tp.to_bits(), to.to_bits(), "zero window ⇒ same price");
            assert_eq!(bp.comm_s.to_bits(), bo.comm_s.to_bits());
            assert_eq!(bp.idle_s.to_bits(), bo.idle_s.to_bits());
        }
    }

    #[test]
    fn p2p_lane_cursor_prevents_double_hiding() {
        // Two 1 MB messages settle against one compute window that is
        // wide enough for ~1.5 occupancies: the lane cursor must cap the
        // total hidden seconds at the window width, not 2× it.
        let spec = ClusterSpec::cray_xc40();
        let occupancy = 1e6 / spec.bandwidth_bps;
        let window = 1.5 * occupancy;
        let cluster = Cluster::new(2, spec.clone());
        let out = cluster.run(move |ctx| {
            if ctx.rank() == 0 {
                let payload = vec![1u8; 1_000_000];
                for _ in 0..2 {
                    ctx.comm_mut()
                        .send_bytes_as(1, &payload, Collective::ShardPull)
                        .unwrap();
                }
                None
            } else {
                let comm = ctx.comm_mut();
                let anchor = comm.clock().now_s();
                comm.clock_mut().charge_compute_seconds(window);
                let mut settle = || {
                    let m = comm
                        .recv_bytes_from_as_unpriced(0, Collective::ShardPull)
                        .unwrap();
                    assert_eq!(m.payload.len(), 1_000_000);
                    comm.charge_p2p_deferred(
                        Collective::ShardPull,
                        m.arrival_s,
                        m.payload.len(),
                        anchor,
                    )
                };
                Some((settle(), settle()))
            }
        });
        let (s1, s2) = out[1].unwrap();
        assert!((s1.hidden_s - occupancy).abs() < 1e-12, "first hides fully");
        // The second message finds only the remaining half-occupancy of
        // window (the first settle advanced the cursor past the rest).
        assert!((s2.hidden_s - 0.5 * occupancy).abs() < 1e-9);
        assert!((s2.visible_s - 0.5 * occupancy).abs() < 1e-9);
        let total_hidden = s1.hidden_s + s2.hidden_s;
        assert!(total_hidden <= window + 1e-12, "never exceeds the window");
    }

    #[test]
    fn p2p_lanes_hide_independently() {
        // A pull and a push settled against the same window each get the
        // full width: the two directions model full-duplex link use.
        let spec = ClusterSpec::cray_xc40();
        let occupancy = 1e6 / spec.bandwidth_bps;
        let cluster = Cluster::new(2, spec.clone());
        let out = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let payload = vec![1u8; 1_000_000];
                ctx.comm_mut()
                    .send_bytes_as(1, &payload, Collective::ShardPull)
                    .unwrap();
                ctx.comm_mut()
                    .send_bytes_as(1, &payload, Collective::ShardPush)
                    .unwrap();
                None
            } else {
                let comm = ctx.comm_mut();
                let anchor = comm.clock().now_s();
                comm.clock_mut().charge_compute_seconds(1.0);
                let mut settle = |op| {
                    let m = comm.recv_bytes_from_as_unpriced(0, op).unwrap();
                    comm.charge_p2p_deferred(op, m.arrival_s, m.payload.len(), anchor)
                };
                Some((settle(Collective::ShardPull), settle(Collective::ShardPush)))
            }
        });
        let (s1, s2) = out[1].unwrap();
        assert!((s1.hidden_s - occupancy).abs() < 1e-12);
        assert!((s2.hidden_s - occupancy).abs() < 1e-12, "push lane unaffected");
    }
}
