//! Versioned, checksummed training checkpoints with bit-exact resume.
//!
//! A checkpoint captures **everything** a rank needs to continue training
//! as if it had never stopped: the model tables, optimizer moments,
//! error-feedback residuals, the per-node RNG stream position, the LR
//! schedule, the dynamic-comm selector, the epoch trace and tallies, the
//! simulated clock, the traffic counters, and the fault-stream cursors.
//! `tests/resume_determinism.rs` asserts the resulting resume is
//! bit-identical to the uninterrupted run — every model weight, every
//! loss value, every simulated second.
//!
//! ## Byte format (version 1)
//!
//! ```text
//! magic  b"KGCK" | version u32
//! then, in fixed order, one frame per section:
//!   tag u8 | len u64 | crc32 u32 | payload (len bytes)
//! ```
//!
//! All integers are little-endian. Each section's CRC-32 (IEEE) covers
//! its payload, so truncation and bit corruption are detected and
//! reported as typed [`CheckpointError`]s — a damaged checkpoint is
//! never silently loaded and never panics the loader.

use crate::comm_select::{CommChoice, SelectorSnapshot};
use crate::lr::PlateauSnapshot;
use crate::report::EpochTrace;
use kge_compress::ResidualStore;
use kge_core::{EmbeddingTable, OptimStateView};
use kge_eval::RankingMetrics;
use simgrid::{Collective, TimeBreakdown};
use std::path::{Path, PathBuf};

/// File magic: "KGC" + "K" for knowledge-graph checkpoint.
pub const MAGIC: [u8; 4] = *b"KGCK";
/// Current format version. Decoders reject anything else with
/// [`CheckpointError::UnsupportedVersion`] rather than misparse.
pub const VERSION: u32 = 1;

mod section {
    pub const HEADER: u8 = 1;
    pub const ENT_TABLE: u8 = 2;
    pub const REL_TABLE: u8 = 3;
    pub const ENT_OPT: u8 = 4;
    pub const REL_OPT: u8 = 5;
    pub const ENT_RESIDUAL: u8 = 6;
    pub const REL_RESIDUAL: u8 = 7;
    pub const RNG: u8 = 8;
    pub const SCHEDULE: u8 = 9;
    pub const SELECTOR: u8 = 10;
    pub const TALLIES: u8 = 11;
    pub const TRACE: u8 = 12;
    pub const CLOCK: u8 = 13;
    pub const TRAFFIC: u8 = 14;
    pub const SEQS: u8 = 15;
}

/// Fixed decode order of the sections in a version-1 checkpoint.
const SECTION_ORDER: [u8; 15] = [
    section::HEADER,
    section::ENT_TABLE,
    section::REL_TABLE,
    section::ENT_OPT,
    section::REL_OPT,
    section::ENT_RESIDUAL,
    section::REL_RESIDUAL,
    section::RNG,
    section::SCHEDULE,
    section::SELECTOR,
    section::TALLIES,
    section::TRACE,
    section::CLOCK,
    section::TRAFFIC,
    section::SEQS,
];

/// Why a checkpoint could not be written or loaded. Every malformed-input
/// path yields one of these — the loader never panics on bad bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure, with the underlying error's message.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion { found: u32, supported: u32 },
    /// The byte stream ended before a declared quantity.
    Truncated { need: usize, have: usize },
    /// A section's payload does not match its stored CRC-32.
    CrcMismatch { section: u8 },
    /// A section frame carries an unexpected tag (wrong order or an
    /// unknown section).
    BadSectionTag { expected: u8, found: u8 },
    /// An enum discriminant or flag byte holds an undefined value.
    BadValue { what: &'static str, value: u64 },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(f, "checkpoint version {found} unsupported (this build reads {supported})")
            }
            CheckpointError::Truncated { need, have } => {
                write!(f, "truncated checkpoint: need {need} bytes, have {have}")
            }
            CheckpointError::CrcMismatch { section } => {
                write!(f, "checkpoint section {section} failed its CRC check")
            }
            CheckpointError::BadSectionTag { expected, found } => {
                write!(f, "checkpoint section tag {found} where {expected} was expected")
            }
            CheckpointError::BadValue { what, value } => {
                write!(f, "checkpoint field {what} holds undefined value {value}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

// --- CRC-32 (IEEE 802.3), table-driven. --------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- End-of-run tallies (checkpointed so a resumed report matches). ----

/// The trainer's running tallies, carried through checkpoints so the
/// final [`crate::report::TrainReport`] of a resumed run matches the
/// uninterrupted one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tallies {
    pub allreduce_epochs: usize,
    pub allgather_epochs: usize,
    pub pipelined_epochs: usize,
    pub recoveries: usize,
    pub rejoins: usize,
    pub checkpoints_written: usize,
    pub crashed_ranks: Vec<usize>,
}

/// Borrowed view of one rank's live training state, the encoder's input.
/// Everything is borrowed or `Copy`, so building a view costs nothing.
pub struct CheckpointView<'a> {
    pub world_size: usize,
    pub rank: usize,
    /// First epoch the resumed run executes.
    pub next_epoch: usize,
    pub seed: u64,
    pub ent: &'a EmbeddingTable,
    pub rel: &'a EmbeddingTable,
    pub ent_opt: OptimStateView<'a>,
    pub rel_opt: OptimStateView<'a>,
    pub ent_residual: &'a ResidualStore,
    pub rel_residual: &'a ResidualStore,
    /// Position of the per-node RNG stream (`StdRng::state`).
    pub rng_state: u64,
    pub schedule: PlateauSnapshot,
    pub selector: Option<SelectorSnapshot>,
    pub tallies: &'a Tallies,
    pub trace: &'a [EpochTrace],
    pub clock_now_s: f64,
    pub breakdown: TimeBreakdown,
    pub traffic: &'a [(Collective, [u64; 6])],
    pub coll_seq: u64,
    pub p2p_seq: &'a [u64],
}

/// Owned image of a decoded checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub world_size: usize,
    pub rank: usize,
    pub next_epoch: usize,
    pub dim: usize,
    pub n_entities: usize,
    pub n_relations: usize,
    pub seed: u64,
    pub ent: EmbeddingTable,
    pub rel: EmbeddingTable,
    pub ent_opt: OptimSnapshot,
    pub rel_opt: OptimSnapshot,
    /// `(row, values)` pairs sorted by row id.
    pub ent_residual: Vec<(u32, Vec<f32>)>,
    pub rel_residual: Vec<(u32, Vec<f32>)>,
    pub rng_state: u64,
    pub schedule: PlateauSnapshot,
    pub selector: Option<SelectorSnapshot>,
    pub tallies: Tallies,
    pub trace: Vec<EpochTrace>,
    pub clock_now_s: f64,
    pub breakdown: TimeBreakdown,
    pub traffic: Vec<(Collective, [u64; 6])>,
    pub coll_seq: u64,
    pub p2p_seq: Vec<u64>,
}

/// Owned optimizer state decoded from a checkpoint; apply with
/// [`OptimSnapshot::as_view`] + `RowOptimizer::load_state`.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimSnapshot {
    Stateless,
    Adam {
        m: Vec<f32>,
        v: Vec<f32>,
        t: u64,
        row_t: Vec<u32>,
    },
    Adagrad {
        accum: Vec<f32>,
    },
}

impl OptimSnapshot {
    /// Borrow as the view type `RowOptimizer::load_state` consumes.
    pub fn as_view(&self) -> OptimStateView<'_> {
        match self {
            OptimSnapshot::Stateless => OptimStateView::Stateless,
            OptimSnapshot::Adam { m, v, t, row_t } => OptimStateView::Adam {
                m,
                v,
                t: *t,
                row_t,
            },
            OptimSnapshot::Adagrad { accum } => OptimStateView::Adagrad { accum },
        }
    }
}

// --- Enum tag maps. -----------------------------------------------------

fn comm_choice_tag(c: CommChoice) -> u8 {
    match c {
        CommChoice::AllReduce => 0,
        CommChoice::AllGather => 1,
        CommChoice::PipelinedAllReduce => 2,
        CommChoice::PipelinedAllGather => 3,
    }
}

fn comm_choice_from_tag(t: u8) -> Result<CommChoice, CheckpointError> {
    Ok(match t {
        0 => CommChoice::AllReduce,
        1 => CommChoice::AllGather,
        2 => CommChoice::PipelinedAllReduce,
        3 => CommChoice::PipelinedAllGather,
        other => {
            return Err(CheckpointError::BadValue {
                what: "comm choice",
                value: other as u64,
            })
        }
    })
}

/// Tags 2 and 4 are reserved: they named a broadcast and a gather that
/// nothing ever recorded, and the decoder rejects them.
fn collective_tag(c: Collective) -> u8 {
    match c {
        Collective::AllReduce => 0,
        Collective::AllGatherV => 1,
        Collective::Barrier => 3,
        Collective::PointToPoint => 5,
        Collective::ShardPull => 6,
        Collective::ShardPush => 7,
    }
}

fn collective_from_tag(t: u8) -> Result<Collective, CheckpointError> {
    Ok(match t {
        0 => Collective::AllReduce,
        1 => Collective::AllGatherV,
        3 => Collective::Barrier,
        5 => Collective::PointToPoint,
        6 => Collective::ShardPull,
        7 => Collective::ShardPush,
        other => {
            return Err(CheckpointError::BadValue {
                what: "collective",
                value: other as u64,
            })
        }
    })
}

// --- Writer. ------------------------------------------------------------

struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

/// Offsets of an open section frame, patched by [`Writer::end_section`].
struct OpenSection {
    len_at: usize,
    crc_at: usize,
    payload_at: usize,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32s(&mut self, vs: &[f32]) {
        for &v in vs {
            self.f32(v);
        }
    }

    fn begin_section(&mut self, tag: u8) -> OpenSection {
        self.u8(tag);
        let len_at = self.buf.len();
        self.u64(0); // patched
        let crc_at = self.buf.len();
        self.u32(0); // patched
        OpenSection {
            len_at,
            crc_at,
            payload_at: self.buf.len(),
        }
    }

    fn end_section(&mut self, open: OpenSection) {
        let len = (self.buf.len() - open.payload_at) as u64;
        let crc = crc32(&self.buf[open.payload_at..]);
        self.buf[open.len_at..open.len_at + 8].copy_from_slice(&len.to_le_bytes());
        self.buf[open.crc_at..open.crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    fn table(&mut self, tag: u8, t: &EmbeddingTable) {
        let s = self.begin_section(tag);
        self.u64(t.rows() as u64);
        self.u32(t.dim() as u32);
        self.f32s(t.as_slice());
        self.end_section(s);
    }

    fn optim(&mut self, tag: u8, view: OptimStateView<'_>) {
        let s = self.begin_section(tag);
        match view {
            OptimStateView::Stateless => self.u8(0),
            OptimStateView::Adam { m, v, t, row_t } => {
                self.u8(1);
                self.u64(m.len() as u64);
                self.f32s(m);
                self.f32s(v);
                self.u64(t);
                self.u64(row_t.len() as u64);
                for &r in row_t {
                    self.u32(r);
                }
            }
            OptimStateView::Adagrad { accum } => {
                self.u8(2);
                self.u64(accum.len() as u64);
                self.f32s(accum);
            }
        }
        self.end_section(s);
    }

    fn residual(&mut self, tag: u8, store: &ResidualStore, ids: &mut Vec<u32>) {
        store.sorted_ids_into(ids);
        let s = self.begin_section(tag);
        self.u64(ids.len() as u64);
        for &row in ids.iter() {
            let values = store.get_row(row).expect("sorted id present in store");
            self.u32(row);
            self.u32(values.len() as u32);
            self.f32s(values);
        }
        self.end_section(s);
    }
}

// --- Reader. ------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated {
                need: n,
                have: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length field that will index `stride`-byte records: bounded by the
    /// remaining payload so corrupted counts cannot trigger huge
    /// allocations before the (inevitable) truncation error.
    fn count(&mut self, stride: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()? as usize;
        let need = n.saturating_mul(stride.max(1));
        if need > self.remaining() {
            return Err(CheckpointError::Truncated {
                need,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Open the next section frame: check its tag, verify its CRC, and
    /// return a sub-reader over exactly its payload.
    fn section(&mut self, expected: u8) -> Result<Reader<'a>, CheckpointError> {
        let found = self.u8()?;
        if found != expected {
            return Err(CheckpointError::BadSectionTag { expected, found });
        }
        let len = self.u64()? as usize;
        let crc = self.u32()?;
        let payload = self.take(len)?;
        if crc32(payload) != crc {
            return Err(CheckpointError::CrcMismatch { section: expected });
        }
        Ok(Reader {
            buf: payload,
            pos: 0,
        })
    }

    fn table(&mut self) -> Result<EmbeddingTable, CheckpointError> {
        let rows = self.count(4)?;
        let dim = self.u32()? as usize;
        if rows.saturating_mul(dim).saturating_mul(4) > self.remaining() {
            return Err(CheckpointError::Truncated {
                need: rows * dim * 4,
                have: self.remaining(),
            });
        }
        let data = self.f32s(rows * dim)?;
        let mut t = EmbeddingTable::zeros(rows, dim);
        t.as_mut_slice().copy_from_slice(&data);
        Ok(t)
    }

    fn optim(&mut self) -> Result<OptimSnapshot, CheckpointError> {
        Ok(match self.u8()? {
            0 => OptimSnapshot::Stateless,
            1 => {
                let n = self.count(8)?; // m + v, 4 bytes each
                let m = self.f32s(n)?;
                let v = self.f32s(n)?;
                let t = self.u64()?;
                let rows = self.count(4)?;
                let mut row_t = Vec::with_capacity(rows);
                for _ in 0..rows {
                    row_t.push(self.u32()?);
                }
                OptimSnapshot::Adam { m, v, t, row_t }
            }
            2 => {
                let n = self.count(4)?;
                OptimSnapshot::Adagrad {
                    accum: self.f32s(n)?,
                }
            }
            other => {
                return Err(CheckpointError::BadValue {
                    what: "optimizer state",
                    value: other as u64,
                })
            }
        })
    }

    fn residual(&mut self) -> Result<Vec<(u32, Vec<f32>)>, CheckpointError> {
        let n = self.count(8)?; // id + width, minimum per row
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.u32()?;
            let width = self.u32()? as usize;
            if width * 4 > self.remaining() {
                return Err(CheckpointError::Truncated {
                    need: width * 4,
                    have: self.remaining(),
                });
            }
            rows.push((id, self.f32s(width)?));
        }
        Ok(rows)
    }
}

// --- Encode. ------------------------------------------------------------

/// Serialize `view` into `out` (cleared first; capacity is kept, so a
/// pooled buffer makes steady-state checkpointing allocation-free once
/// warm). `ids_scratch` is the reused row-id buffer for residual export.
pub fn encode_into(view: &CheckpointView<'_>, ids_scratch: &mut Vec<u32>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let mut w = Writer { buf: out };

    let s = w.begin_section(section::HEADER);
    w.u32(view.world_size as u32);
    w.u32(view.rank as u32);
    w.u64(view.next_epoch as u64);
    w.u32(view.ent.dim() as u32);
    w.u64(view.ent.rows() as u64);
    w.u64(view.rel.rows() as u64);
    w.u64(view.seed);
    w.end_section(s);

    w.table(section::ENT_TABLE, view.ent);
    w.table(section::REL_TABLE, view.rel);
    w.optim(section::ENT_OPT, view.ent_opt);
    w.optim(section::REL_OPT, view.rel_opt);
    w.residual(section::ENT_RESIDUAL, view.ent_residual, ids_scratch);
    w.residual(section::REL_RESIDUAL, view.rel_residual, ids_scratch);

    let s = w.begin_section(section::RNG);
    w.u64(view.rng_state);
    w.end_section(s);

    let s = w.begin_section(section::SCHEDULE);
    let sched = &view.schedule;
    w.f32(sched.node_scale);
    w.f32(sched.decay_scale);
    w.f32(sched.decay);
    w.u64(sched.tolerance);
    w.u64(sched.max_drops);
    w.u64(sched.drops);
    w.f64(sched.best);
    w.u64(sched.since_best);
    w.u8(sched.converged as u8);
    w.end_section(s);

    let s = w.begin_section(section::SELECTOR);
    match &view.selector {
        None => w.u8(0),
        Some(sel) => {
            w.u8(1);
            w.u8(sel.state);
            w.u8(comm_choice_tag(sel.arm));
            w.u64(sel.check_every);
            w.u64(sel.epoch);
            match sel.last_allreduce_time {
                None => w.u8(0),
                Some(t) => {
                    w.u8(1);
                    w.f64(t);
                }
            }
            w.f64(sel.gather_time);
        }
    }
    w.end_section(s);

    let s = w.begin_section(section::TALLIES);
    let t = view.tallies;
    w.u64(t.allreduce_epochs as u64);
    w.u64(t.allgather_epochs as u64);
    w.u64(t.pipelined_epochs as u64);
    w.u64(t.recoveries as u64);
    w.u64(t.rejoins as u64);
    w.u64(t.checkpoints_written as u64);
    w.u64(t.crashed_ranks.len() as u64);
    for &r in &t.crashed_ranks {
        w.u64(r as u64);
    }
    w.end_section(s);

    let s = w.begin_section(section::TRACE);
    w.u64(view.trace.len() as u64);
    for e in view.trace {
        w.u64(e.epoch as u64);
        w.f64(e.sim_seconds);
        w.u8(comm_choice_tag(e.comm));
        w.f64(e.valid_acc);
        w.f64(e.train_loss);
        w.f32(e.lr_scale);
        w.f64(e.mean_nonzero_rows);
        w.f64(e.mean_rows_sent);
        w.f64(e.rs_sparsity);
        w.u64(e.bytes_sent);
        match &e.ranking {
            None => w.u8(0),
            Some(m) => {
                w.u8(1);
                w.f64(m.mrr);
                w.f64(m.mean_rank);
                w.f64(m.hits1);
                w.f64(m.hits3);
                w.f64(m.hits10);
                w.u64(m.n_queries as u64);
            }
        }
    }
    w.end_section(s);

    let s = w.begin_section(section::CLOCK);
    w.f64(view.clock_now_s);
    let b = &view.breakdown;
    w.f64(b.compute_s);
    w.f64(b.comm_s);
    w.f64(b.idle_s);
    w.f64(b.fault_s);
    w.f64(b.retry_s);
    w.f64(b.checkpoint_s);
    w.f64(b.overlap_s);
    w.f64(b.hidden_comm_s);
    w.end_section(s);

    let s = w.begin_section(section::TRAFFIC);
    w.u64(view.traffic.len() as u64);
    for &(op, counters) in view.traffic {
        w.u8(collective_tag(op));
        for c in counters {
            w.u64(c);
        }
    }
    w.end_section(s);

    let s = w.begin_section(section::SEQS);
    w.u64(view.coll_seq);
    w.u64(view.p2p_seq.len() as u64);
    for &v in view.p2p_seq {
        w.u64(v);
    }
    w.end_section(s);
}

// --- Decode. ------------------------------------------------------------

/// Parse and validate a checkpoint image. Any structural damage —
/// truncation, bit flips, wrong magic or version, undefined enum values —
/// returns a typed error; this function never panics on malformed input.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }

    let mut h = r.section(SECTION_ORDER[0])?;
    let world_size = h.u32()? as usize;
    let rank = h.u32()? as usize;
    let next_epoch = h.u64()? as usize;
    let dim = h.u32()? as usize;
    let n_entities = h.u64()? as usize;
    let n_relations = h.u64()? as usize;
    let seed = h.u64()?;

    let ent = r.section(section::ENT_TABLE)?.table()?;
    let rel = r.section(section::REL_TABLE)?.table()?;
    let ent_opt = r.section(section::ENT_OPT)?.optim()?;
    let rel_opt = r.section(section::REL_OPT)?.optim()?;
    let ent_residual = r.section(section::ENT_RESIDUAL)?.residual()?;
    let rel_residual = r.section(section::REL_RESIDUAL)?.residual()?;
    let rng_state = r.section(section::RNG)?.u64()?;

    let mut s = r.section(section::SCHEDULE)?;
    let schedule = PlateauSnapshot {
        node_scale: s.f32()?,
        decay_scale: s.f32()?,
        decay: s.f32()?,
        tolerance: s.u64()?,
        max_drops: s.u64()?,
        drops: s.u64()?,
        best: s.f64()?,
        since_best: s.u64()?,
        converged: match s.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(CheckpointError::BadValue {
                    what: "schedule converged flag",
                    value: other as u64,
                })
            }
        },
    };

    let mut s = r.section(section::SELECTOR)?;
    let selector = match s.u8()? {
        0 => None,
        1 => {
            let state = s.u8()?;
            let arm = comm_choice_from_tag(s.u8()?)?;
            let check_every = s.u64()?;
            let epoch = s.u64()?;
            let last_allreduce_time = match s.u8()? {
                0 => None,
                1 => Some(s.f64()?),
                other => {
                    return Err(CheckpointError::BadValue {
                        what: "selector time flag",
                        value: other as u64,
                    })
                }
            };
            Some(SelectorSnapshot {
                state,
                arm,
                check_every,
                epoch,
                last_allreduce_time,
                gather_time: s.f64()?,
            })
        }
        other => {
            return Err(CheckpointError::BadValue {
                what: "selector presence flag",
                value: other as u64,
            })
        }
    };

    let mut s = r.section(section::TALLIES)?;
    let mut tallies = Tallies {
        allreduce_epochs: s.u64()? as usize,
        allgather_epochs: s.u64()? as usize,
        pipelined_epochs: s.u64()? as usize,
        recoveries: s.u64()? as usize,
        rejoins: s.u64()? as usize,
        checkpoints_written: s.u64()? as usize,
        crashed_ranks: Vec::new(),
    };
    let n_crashed = s.count(8)?;
    for _ in 0..n_crashed {
        tallies.crashed_ranks.push(s.u64()? as usize);
    }

    let mut s = r.section(section::TRACE)?;
    let n_trace = s.count(8)?;
    let mut trace = Vec::with_capacity(n_trace);
    for _ in 0..n_trace {
        let epoch = s.u64()? as usize;
        let sim_seconds = s.f64()?;
        let comm = comm_choice_from_tag(s.u8()?)?;
        let valid_acc = s.f64()?;
        let train_loss = s.f64()?;
        let lr_scale = s.f32()?;
        let mean_nonzero_rows = s.f64()?;
        let mean_rows_sent = s.f64()?;
        let rs_sparsity = s.f64()?;
        let bytes_sent = s.u64()?;
        let ranking = match s.u8()? {
            0 => None,
            1 => Some(RankingMetrics {
                mrr: s.f64()?,
                mean_rank: s.f64()?,
                hits1: s.f64()?,
                hits3: s.f64()?,
                hits10: s.f64()?,
                n_queries: s.u64()? as usize,
            }),
            other => {
                return Err(CheckpointError::BadValue {
                    what: "trace ranking flag",
                    value: other as u64,
                })
            }
        };
        trace.push(EpochTrace {
            epoch,
            sim_seconds,
            comm,
            valid_acc,
            train_loss,
            lr_scale,
            mean_nonzero_rows,
            mean_rows_sent,
            rs_sparsity,
            bytes_sent,
            ranking,
        });
    }

    let mut s = r.section(section::CLOCK)?;
    let clock_now_s = s.f64()?;
    let breakdown = TimeBreakdown {
        compute_s: s.f64()?,
        comm_s: s.f64()?,
        idle_s: s.f64()?,
        fault_s: s.f64()?,
        retry_s: s.f64()?,
        checkpoint_s: s.f64()?,
        overlap_s: s.f64()?,
        hidden_comm_s: s.f64()?,
    };

    let mut s = r.section(section::TRAFFIC)?;
    let n_traffic = s.count(49)?; // tag + 6 × u64 per entry
    let mut traffic = Vec::with_capacity(n_traffic);
    for _ in 0..n_traffic {
        let op = collective_from_tag(s.u8()?)?;
        let mut counters = [0u64; 6];
        for c in counters.iter_mut() {
            *c = s.u64()?;
        }
        traffic.push((op, counters));
    }

    let mut s = r.section(section::SEQS)?;
    let coll_seq = s.u64()?;
    let n_p2p = s.count(8)?;
    let mut p2p_seq = Vec::with_capacity(n_p2p);
    for _ in 0..n_p2p {
        p2p_seq.push(s.u64()?);
    }

    Ok(Checkpoint {
        world_size,
        rank,
        next_epoch,
        dim,
        n_entities,
        n_relations,
        seed,
        ent,
        rel,
        ent_opt,
        rel_opt,
        ent_residual,
        rel_residual,
        rng_state,
        schedule,
        selector,
        tallies,
        trace,
        clock_now_s,
        breakdown,
        traffic,
        coll_seq,
        p2p_seq,
    })
}

// --- Files. -------------------------------------------------------------

/// The per-rank checkpoint file inside `dir`.
pub fn checkpoint_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("ckpt-r{rank}.kgc"))
}

/// Write a checkpoint image atomically: the bytes land in a temporary
/// sibling first and are renamed over `path`, so a crash mid-write leaves
/// the previous checkpoint intact rather than a torn file.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
    }
    let tmp = path.with_extension("kgc.tmp");
    std::fs::write(&tmp, bytes).map_err(|e| CheckpointError::Io(e.to_string()))?;
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
}

/// Read and decode the checkpoint at `path`.
pub fn read_file(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[allow(clippy::type_complexity)]
    fn sample_view_parts() -> (
        EmbeddingTable,
        EmbeddingTable,
        ResidualStore,
        ResidualStore,
        Tallies,
        Vec<EpochTrace>,
        Vec<(Collective, [u64; 6])>,
        Vec<u64>,
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let ent = EmbeddingTable::xavier(11, 6, &mut rng);
        let rel = EmbeddingTable::xavier(3, 6, &mut rng);
        let mut ent_res = ResidualStore::new();
        ent_res.set_row(4, &[0.5, -0.25, 0.0, 1.0, -1.0, 0.125]);
        ent_res.set_row(1, &[1.5; 6]);
        let rel_res = ResidualStore::new();
        let tallies = Tallies {
            allreduce_epochs: 3,
            allgather_epochs: 2,
            pipelined_epochs: 1,
            recoveries: 1,
            rejoins: 1,
            checkpoints_written: 2,
            crashed_ranks: vec![2],
        };
        let trace = vec![EpochTrace {
            epoch: 0,
            sim_seconds: 1.25,
            comm: CommChoice::PipelinedAllGather,
            valid_acc: 0.5,
            train_loss: 0.75,
            lr_scale: 2.0,
            mean_nonzero_rows: 10.0,
            mean_rows_sent: 8.0,
            rs_sparsity: 0.2,
            bytes_sent: 4096,
            ranking: Some(RankingMetrics {
                mrr: 0.4,
                mean_rank: 12.0,
                hits1: 0.25,
                hits3: 0.5,
                hits10: 0.75,
                n_queries: 64,
            }),
        }];
        let traffic = vec![
            (Collective::AllReduce, [5, 100, 200, 80, 90, 1]),
            (Collective::Barrier, [7, 0, 0, 0, 0, 0]),
        ];
        let p2p = vec![3, 0, 9];
        (ent, rel, ent_res, rel_res, tallies, trace, traffic, p2p)
    }

    fn encode_sample() -> Vec<u8> {
        let (ent, rel, ent_res, rel_res, tallies, trace, traffic, p2p) = sample_view_parts();
        let view = CheckpointView {
            world_size: 4,
            rank: 1,
            next_epoch: 5,
            seed: 42,
            ent: &ent,
            rel: &rel,
            ent_opt: OptimStateView::Adam {
                m: &[0.1; 66],
                v: &[0.2; 66],
                t: 9,
                row_t: &[3; 11],
            },
            rel_opt: OptimStateView::Stateless,
            ent_residual: &ent_res,
            rel_residual: &rel_res,
            rng_state: 0xDEAD_BEEF,
            schedule: PlateauSnapshot {
                node_scale: 4.0,
                decay_scale: 0.1,
                decay: 0.1,
                tolerance: 15,
                max_drops: 2,
                drops: 1,
                best: 0.625,
                since_best: 3,
                converged: false,
            },
            selector: Some(SelectorSnapshot {
                state: 2,
                arm: CommChoice::PipelinedAllGather,
                check_every: 10,
                epoch: 21,
                last_allreduce_time: Some(3.5),
                gather_time: 2.75,
            }),
            tallies: &tallies,
            trace: &trace,
            clock_now_s: 123.5,
            breakdown: TimeBreakdown {
                compute_s: 100.0,
                comm_s: 20.0,
                idle_s: 2.0,
                fault_s: 1.0,
                retry_s: 0.25,
                checkpoint_s: 0.25,
                overlap_s: 5.0,
                hidden_comm_s: 4.0,
            },
            traffic: &traffic,
            coll_seq: 77,
            p2p_seq: &p2p,
        };
        let mut out = Vec::new();
        let mut ids = Vec::new();
        encode_into(&view, &mut ids, &mut out);
        out
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let bytes = encode_sample();
        let (ent, rel, ..) = sample_view_parts();
        let ck = decode(&bytes).expect("decode");
        assert_eq!(ck.world_size, 4);
        assert_eq!(ck.rank, 1);
        assert_eq!(ck.next_epoch, 5);
        assert_eq!((ck.dim, ck.n_entities, ck.n_relations), (6, 11, 3));
        assert_eq!(ck.seed, 42);
        assert_eq!(ck.ent.as_slice(), ent.as_slice());
        assert_eq!(ck.rel.as_slice(), rel.as_slice());
        match &ck.ent_opt {
            OptimSnapshot::Adam { m, v, t, row_t } => {
                assert_eq!(m.len(), 66);
                assert!(m.iter().all(|&x| x == 0.1) && v.iter().all(|&x| x == 0.2));
                assert_eq!(*t, 9);
                assert_eq!(row_t, &vec![3u32; 11]);
            }
            other => panic!("wrong optim state: {other:?}"),
        }
        assert_eq!(ck.rel_opt, OptimSnapshot::Stateless);
        assert_eq!(ck.ent_residual.len(), 2);
        assert_eq!(ck.ent_residual[0].0, 1, "sorted by row id");
        assert_eq!(ck.ent_residual[1].1[3], 1.0);
        assert!(ck.rel_residual.is_empty());
        assert_eq!(ck.rng_state, 0xDEAD_BEEF);
        assert_eq!(ck.schedule.drops, 1);
        assert_eq!(ck.schedule.best, 0.625);
        let sel = ck.selector.expect("selector present");
        assert_eq!(sel.arm, CommChoice::PipelinedAllGather);
        assert_eq!(sel.last_allreduce_time, Some(3.5));
        assert_eq!(ck.tallies.crashed_ranks, vec![2]);
        assert_eq!(ck.tallies.rejoins, 1);
        assert_eq!(ck.trace.len(), 1);
        assert_eq!(ck.trace[0].ranking.unwrap().n_queries, 64);
        assert_eq!(ck.trace[0].comm, CommChoice::PipelinedAllGather);
        assert_eq!(ck.clock_now_s, 123.5);
        assert_eq!(ck.breakdown.checkpoint_s, 0.25);
        assert_eq!(ck.traffic.len(), 2);
        assert_eq!(ck.traffic[0].1, [5, 100, 200, 80, 90, 1]);
        assert_eq!(ck.coll_seq, 77);
        assert_eq!(ck.p2p_seq, vec![3, 0, 9]);
    }

    #[test]
    fn truncation_at_any_point_is_a_typed_error() {
        let bytes = encode_sample();
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("truncated input must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::BadMagic
                        | CheckpointError::CrcMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_detected_by_section_crcs() {
        let bytes = encode_sample();
        // Flip one bit somewhere in every section's payload region (skip
        // magic + version, whose damage surfaces as BadMagic/Version).
        let mut hits = 0usize;
        for i in (8..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            if decode(&bad).is_err() {
                hits += 1;
            }
        }
        assert!(hits > 0, "bit flips must be caught");
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = encode_sample();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(CheckpointError::BadMagic)));
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        match decode(&future) {
            Err(CheckpointError::UnsupportedVersion { found: 99, supported }) => {
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("kgc-test-{}", std::process::id()));
        let path = checkpoint_path(&dir, 3);
        assert!(path.to_string_lossy().ends_with("ckpt-r3.kgc"));
        let bytes = encode_sample();
        write_file(&path, &bytes).expect("write");
        let ck = read_file(&path).expect("read");
        assert_eq!(ck.rank, 1);
        // Overwrite keeps the file readable (atomic rename).
        write_file(&path, &bytes).expect("rewrite");
        assert!(read_file(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reserved_collective_tags_are_rejected() {
        for t in [2u8, 4, 8] {
            let err = collective_from_tag(t).unwrap_err();
            let bad = CheckpointError::BadValue { what: "collective", value: t.into() };
            assert_eq!(err.to_string(), bad.to_string());
        }
    }

    #[test]
    fn missing_file_is_io_error_not_panic() {
        let err = read_file(Path::new("/nonexistent/dir/ckpt-r0.kgc")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
