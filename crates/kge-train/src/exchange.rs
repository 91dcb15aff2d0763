//! Gradient exchange: the communication step of one training batch.
//!
//! Two paths, matching the paper's baseline taxonomy (§3.4):
//!
//! - **Dense all-reduce**: the local row-sparse gradient is scattered into
//!   a dense `rows × dim` matrix (zeros included) — straight into this
//!   rank's staging slot — and sum-all-reduced.
//!   Quantization does not apply here — signs cannot be summed — which is
//!   exactly why the paper's quantization benefits show up on the gather
//!   path and why DRS picks all-gather more often once quantization is on.
//! - **Sparse all-gather**: the non-zero rows (after row selection) are
//!   encoded — raw `f32`, 1-bit or 2-bit — into a byte payload in this
//!   rank's staging slot, and every rank's payload is decoded out of its
//!   slot and summed locally.
//!
//! Both paths return the aggregated gradient **averaged** over ranks.

use kge_compress::codec::{RowDecoder, RowEncoder};
use kge_compress::quant::{quantize_row_into, QuantScheme, QuantizedRow};
use kge_compress::{ResidualStore, WireFormat};
use kge_core::{EmbeddingTable, SparseGrad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgrid::{Communicator, OverlapStats, SimError};
use std::cell::RefCell;

use crate::splitmix64;

/// Statistics of one exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Bytes this rank contributed.
    pub bytes_sent: usize,
    /// Rows this rank contributed (post-selection).
    pub rows_sent: usize,
    /// Total rows gathered across ranks (gather path only).
    pub rows_gathered: usize,
}

/// Dense all-reduce of `grad` as a `dense.len()`-float matrix: the rows
/// are scattered straight into this rank's zeroed staging slot, and the
/// rank-averaged sum lands in `dense` (what it held before is ignored).
pub fn exchange_allreduce(
    comm: &mut Communicator,
    grad: &SparseGrad,
    dense: &mut [f32],
) -> Result<ExchangeStats, SimError> {
    let inv = 1.0 / comm.size() as f32;
    comm.allreduce_staged(dense, inv, None, |_, slot| grad.scatter_into(slot))?;
    Ok(ExchangeStats {
        bytes_sent: std::mem::size_of_val(dense),
        rows_sent: grad.nnz(),
        rows_gathered: 0,
    })
}

/// Reusable buffers for the all-gather path: the encoded payload of a
/// pipelined launch (it must outlive the window; the synchronous path
/// encodes into the staging slot instead), one quantization scratch row
/// and one dequantize scratch row (error feedback). One per worker; after
/// the first batch has sized them the steady state allocates nothing.
#[derive(Debug, Clone)]
pub struct GatherBufs {
    send: Vec<u8>,
    qrow: QuantizedRow,
    dequant: Vec<f32>,
}

impl GatherBufs {
    pub fn new() -> Self {
        GatherBufs {
            send: Vec::new(),
            qrow: QuantizedRow::Full(Vec::new()),
            dequant: Vec::new(),
        }
    }
}

impl Default for GatherBufs {
    fn default() -> Self {
        Self::new()
    }
}

/// Sparse all-gather of `grad` rows under `scheme`, writing the
/// rank-averaged aggregate into `agg` (cleared first; capacity kept).
///
/// Rows are quantized and encoded in one fused pass in sorted row order
/// straight into this rank's staging slot, and every rank's payload is
/// decoded and accumulated straight out of its slot via borrowed row
/// views — no send or receive buffer, no intermediate `QuantizedRow`s.
/// Only the stochastic 2-bit scheme consumes randomness: one base value
/// drawn from the node stream seeds an independent per-row stream, so
/// results are identical at any thread count and the caller's RNG
/// trajectory does not depend on the row count.
///
/// When `scheme` quantizes and `residuals` is provided, the quantization
/// error of every transmitted row is accumulated as error feedback
/// (Karimireddy-style); the caller is responsible for having added the
/// previous residuals into `grad` *before* row selection.
#[allow(clippy::too_many_arguments)]
pub fn exchange_allgather_into(
    comm: &mut Communicator,
    grad: &SparseGrad,
    dim: usize,
    scheme: QuantScheme,
    residuals: Option<&mut ResidualStore>,
    rng: &mut StdRng,
    bufs: &mut GatherBufs,
    agg: &mut SparseGrad,
) -> Result<ExchangeStats, SimError> {
    debug_assert_eq!((grad.dim(), agg.dim()), (dim, dim));
    let GatherBufs { qrow, dequant, .. } = bufs;
    let encode =
        |slot: &mut Vec<u8>| encode_grad_rows(grad, scheme, residuals, rng, qrow, dequant, slot);
    let (mut stats, rows_gathered, _) = gather_into(comm, None, encode, agg)?;
    stats.rows_gathered = rows_gathered;
    Ok(stats)
}

/// Quantize + encode `grad`'s rows into `bufs.send` — the local half of a
/// sparse all-gather, with no communication. Returns the stats of the
/// staged payload (`rows_gathered` still 0). The bytes produced are
/// exactly what [`exchange_allgather_into`] puts on the wire; the
/// pipelined path stages them in a [`PipelineSlot`] at launch and runs
/// the collective later via [`complete_gather_exchange_overlapped`].
pub fn encode_gather_payload(
    grad: &SparseGrad,
    dim: usize,
    scheme: QuantScheme,
    residuals: Option<&mut ResidualStore>,
    rng: &mut StdRng,
    bufs: &mut GatherBufs,
) -> ExchangeStats {
    debug_assert_eq!(grad.dim(), dim);
    let GatherBufs { send, qrow, dequant } = bufs;
    encode_grad_rows(grad, scheme, residuals, rng, qrow, dequant, send)
}

/// The encoder behind both entry points; `out` is the staging slot or a
/// [`GatherBufs`] send buffer.
fn encode_grad_rows(
    grad: &SparseGrad,
    scheme: QuantScheme,
    mut residuals: Option<&mut ResidualStore>,
    rng: &mut StdRng,
    qrow: &mut QuantizedRow,
    dequant: &mut Vec<f32>,
    out: &mut Vec<u8>,
) -> ExchangeStats {
    let dim = grad.dim();
    let mut enc = RowEncoder::new(wire_format(scheme), dim, out);
    if residuals.is_some() {
        dequant.resize(dim, 0.0);
    }
    match scheme {
        // Raw rows go out as they sit in the accumulator: nothing to
        // quantize, no error to feed back, no randomness.
        QuantScheme::None => {
            for (row, g) in grad.iter_sorted() {
                enc.push_f32(row, g).expect("encode of a raw row");
            }
        }
        // Packed path: 1-bit rows quantize straight into the wire format
        // (SIMD scales + movemask sign packing, no intermediate sign vec;
        // OneBit draws nothing from its stream).
        QuantScheme::OneBit { rule } => {
            for (row, g) in grad.iter_sorted() {
                let (pos, neg) = enc
                    .push_one_bit(row, g, rule)
                    .expect("encode of freshly quantized row");
                if let Some(store) = residuals.as_deref_mut() {
                    kge_compress::one_bit_dequantize_from(g, pos, neg, dequant);
                    store.record_row_error(row, g, dequant);
                }
            }
        }
        QuantScheme::TwoBit => {
            let base: u64 = rng.gen();
            for (row, g) in grad.iter_sorted() {
                let mut row_rng = StdRng::seed_from_u64(base ^ splitmix64(row as u64 + 1));
                quantize_row_into(scheme, g, &mut row_rng, qrow);
                if let Some(store) = residuals.as_deref_mut() {
                    qrow.dequantize_into(dequant);
                    store.record_row_error(row, g, dequant);
                }
                enc.push(row, qrow)
                    .expect("encode of freshly quantized row");
            }
        }
    }
    ExchangeStats {
        bytes_sent: enc.finish(),
        rows_sent: grad.nnz(),
        rows_gathered: 0,
    }
}

/// Decode one encoded gradient payload, adding rows into `agg`. Returns
/// the number of rows decoded. Payloads come from this program's own
/// encoder, so a malformed one is a bug and panics, naming `what`.
pub(crate) fn add_payload_into(payload: &[u8], agg: &mut SparseGrad, what: &str) -> usize {
    let mut dec = RowDecoder::new(payload).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut rows = 0;
    while let Some(r) = dec.next_row() {
        let r = r.unwrap_or_else(|e| panic!("{what}: {e}"));
        r.add_into(agg.row_mut(r.row));
        rows += 1;
    }
    rows
}

/// Decode one payload of raw table rows, overwriting `table`'s copy of
/// every row in it (raw `f32`, so bit for bit). Same contract as
/// [`add_payload_into`]: a malformed payload is a bug and panics, naming
/// `what`.
pub(crate) fn write_payload_into(payload: &[u8], table: &mut EmbeddingTable, what: &str) {
    let mut dec = RowDecoder::new(payload).unwrap_or_else(|e| panic!("{what}: {e}"));
    while let Some(r) = dec.next_row() {
        let r = r.unwrap_or_else(|e| panic!("{what}: {e}"));
        r.dequantize_into(table.row_mut(r.row as usize));
    }
}

/// Gather the payload `stage` writes into this rank's staging slot, and
/// decode every rank's rows out of the slots into `agg` — summed in rank
/// order, so overlapping rows accumulate deterministically, then
/// rank-averaged. Returns `stage`'s value, the total rows gathered and
/// the timing split (`anchor`: see [`Communicator::allgatherv_staged`]).
pub(crate) fn gather_into<S>(
    comm: &mut Communicator,
    anchor: Option<f64>,
    stage: impl FnOnce(&mut Vec<u8>) -> S,
    agg: &mut SparseGrad,
) -> Result<(S, usize, OverlapStats), SimError> {
    agg.clear();
    let mut rows_gathered = 0usize;
    let (staged, overlap) = comm.allgatherv_staged(anchor, stage, |_, payload| {
        rows_gathered += add_payload_into(payload, agg, "gathered payload");
    })?;
    agg.scale(1.0 / comm.size() as f32);
    Ok((staged, rows_gathered, overlap))
}

/// Run the collective + decode half of a sparse all-gather over a payload
/// staged in `bufs` by [`encode_gather_payload`], priced as an overlapped
/// collective that was launched at simulated time `anchor_s`. Returns the
/// total rows gathered; `agg` receives the rank-averaged aggregate,
/// bit-identical to [`exchange_allgather_into`]'s.
pub fn complete_gather_exchange_overlapped(
    comm: &mut Communicator,
    dim: usize,
    bufs: &mut GatherBufs,
    agg: &mut SparseGrad,
    anchor_s: f64,
) -> Result<(usize, OverlapStats), SimError> {
    debug_assert_eq!(agg.dim(), dim);
    let deposit = |slot: &mut Vec<u8>| slot.extend_from_slice(&bufs.send);
    let ((), rows_gathered, overlap) = gather_into(comm, Some(anchor_s), deposit, agg)?;
    Ok((rows_gathered, overlap))
}

/// All-gather whole table rows: every rank contributes the rows it `owned`
/// straight from `table` into its staging slot, and overwrites its copy
/// of every gathered row straight out of the slots (raw `f32`, so bit for
/// bit). Afterwards all ranks hold every owner's rows. Propagates the
/// collective's fault error; a malformed peer payload is a bug and panics.
pub(crate) fn gather_table_rows(
    comm: &mut Communicator,
    table: &mut EmbeddingTable,
    owned: impl IntoIterator<Item = u32>,
) -> Result<(), SimError> {
    let dim = table.dim();
    // The collective reads the table (staging) strictly before it writes
    // it (decoding), but holds both closures at once.
    let table = RefCell::new(table);
    comm.allgatherv_staged(
        None,
        |slot| {
            let table = table.borrow();
            let mut enc = RowEncoder::new(WireFormat::F32, dim, slot);
            for row in owned {
                enc.push_f32(row, table.row(row as usize))
                    .expect("encode of a table row");
            }
            enc.finish();
        },
        |_, payload| write_payload_into(payload, &mut table.borrow_mut(), "gathered table rows"),
    )
    .map(|_| ())
}

/// Scatter `grad` into a reusable dense buffer of `len` floats — the
/// local half of a dense all-reduce, with no communication. The pipelined
/// path stages this in a [`PipelineSlot`] at launch and completes it
/// later with [`complete_allreduce_overlapped`].
pub fn stage_allreduce_payload(
    grad: &SparseGrad,
    dense: &mut Vec<f32>,
    len: usize,
) -> ExchangeStats {
    dense.resize(len, 0.0);
    dense.fill(0.0);
    grad.scatter_into(dense);
    ExchangeStats {
        bytes_sent: len * std::mem::size_of::<f32>(),
        rows_sent: grad.nnz(),
        rows_gathered: 0,
    }
}

/// All-reduce + rank-average, in place, a payload staged by
/// [`stage_allreduce_payload`], priced as an overlapped collective
/// launched at simulated time `anchor_s`. Numerics match
/// [`exchange_allreduce`] bit-exactly.
pub fn complete_allreduce_overlapped(
    comm: &mut Communicator,
    dense: &mut [f32],
    anchor_s: f64,
) -> Result<OverlapStats, SimError> {
    let inv = 1.0 / comm.size() as f32;
    comm.allreduce_staged(dense, inv, Some(anchor_s), |staged, slot| {
        slot.copy_from_slice(staged)
    })
}

/// One in-flight exchange of the pipelined trainer: the staged wire
/// payload (encoded gather bytes or scattered dense buffer) for the
/// entity table and — when relation partitioning is off — the relation
/// table, plus the launch anchor the overlapped pricing needs. Each slot
/// owns its buffers, so batch N's payload survives while batch N+1
/// encodes into the next slot; a ring of `staleness` slots double-buffers
/// the whole pipeline with zero steady-state allocation.
#[derive(Debug, Clone, Default)]
pub struct PipelineSlot {
    /// Gather-path wire buffers for the entity table.
    pub ent_gather: GatherBufs,
    /// Gather-path wire buffers for the relation table.
    pub rel_gather: GatherBufs,
    /// Dense all-reduce payload for the entity table.
    pub ent_dense: Vec<f32>,
    /// Dense all-reduce payload for the relation table.
    pub rel_dense: Vec<f32>,
    /// Simulated time at which this exchange was launched.
    pub anchor_s: f64,
    /// Batch index the staged gradients belong to (diagnostics).
    pub batch: usize,
    /// Stats of the staged entity payload (completed at drain time).
    pub ent_stats: ExchangeStats,
    /// Stats of the staged relation payload.
    pub rel_stats: ExchangeStats,
}

/// Wire format implied by a quantization scheme.
pub fn wire_format(scheme: QuantScheme) -> WireFormat {
    match scheme {
        QuantScheme::None => WireFormat::F32,
        QuantScheme::OneBit { rule } => WireFormat::OneBit {
            two_scales: matches!(
                rule,
                kge_compress::ScaleRule::PosNegMax | kge_compress::ScaleRule::PosNegAvg
            ),
        },
        QuantScheme::TwoBit => WireFormat::TwoBit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use simgrid::{Cluster, ClusterSpec, NodeCtx};

    const SCHEMES: [QuantScheme; 3] = [
        QuantScheme::None,
        QuantScheme::OneBit {
            rule: kge_compress::ScaleRule::Max,
        },
        QuantScheme::TwoBit,
    ];

    fn local_grad(rank: usize, dim: usize) -> SparseGrad {
        let mut g = SparseGrad::new(dim);
        // Rank r contributes rows r and 10+r plus a shared row 5.
        for row in [rank as u32, 10 + rank as u32, 5] {
            for (k, v) in g.row_mut(row).iter_mut().enumerate() {
                *v = (rank + 1) as f32 * 0.1 + k as f32;
            }
        }
        g.ensure_sorted();
        g
    }

    /// One synchronous gather with fresh buffers and no error feedback.
    fn gather_once(
        ctx: &mut NodeCtx,
        g: &SparseGrad,
        scheme: QuantScheme,
        rng: &mut StdRng,
    ) -> (SparseGrad, ExchangeStats) {
        let mut agg = SparseGrad::new(g.dim());
        let mut bufs = GatherBufs::new();
        let stats =
            exchange_allgather_into(ctx.comm_mut(), g, g.dim(), scheme, None, rng, &mut bufs, &mut agg)
                .unwrap();
        (agg, stats)
    }

    #[test]
    fn allreduce_averages_dense() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let g = local_grad(ctx.rank(), 2);
            let mut dense = vec![f32::NAN; 16 * 2]; // previous contents are ignored
            let stats = exchange_allreduce(ctx.comm_mut(), &g, &mut dense).unwrap();
            (dense, stats.bytes_sent)
        });
        // Shared row 5: sum over ranks of (r+1)*0.1 + k, divided by 4.
        let expect_5_0: f32 = (1..=4).map(|r| r as f32 * 0.1).sum::<f32>() / 4.0;
        for (dense, bytes) in &out {
            assert!((dense[5 * 2] - expect_5_0).abs() < 1e-6);
            assert_eq!(*bytes, 16 * 2 * 4);
        }
        // All replicas identical.
        for (dense, _) in &out[1..] {
            assert_eq!(dense, &out[0].0);
        }
    }

    #[test]
    fn allgather_f32_matches_allreduce() {
        let cluster = Cluster::new(3, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let g = local_grad(ctx.rank(), 4);
            let mut dense = vec![0.0f32; 16 * 4];
            exchange_allreduce(ctx.comm_mut(), &g, &mut dense).unwrap();

            let mut rng = StdRng::seed_from_u64(0);
            let (sparse, stats) = gather_once(ctx, &g, QuantScheme::None, &mut rng);
            (dense, sparse.to_dense(16), stats)
        });
        for (dense, sparse_dense, stats) in out {
            for (a, b) in dense.iter().zip(&sparse_dense) {
                assert!((a - b).abs() < 1e-6, "paths must agree: {a} vs {b}");
            }
            assert_eq!(stats.rows_sent, 3);
            assert_eq!(stats.rows_gathered, 9);
            assert!(stats.bytes_sent > 0);
        }
    }

    #[test]
    fn quantized_gather_is_smaller_and_sign_faithful() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let dim = 32;
        let out = cluster.run(|ctx| {
            let mut g = SparseGrad::new(dim);
            for (k, v) in g.row_mut(7).iter_mut().enumerate() {
                *v = if k % 2 == 0 { 0.5 } else { -0.5 };
            }
            g.ensure_sorted();
            let mut rng = StdRng::seed_from_u64(1);
            let (f32_agg, f32_stats) = gather_once(ctx, &g, QuantScheme::None, &mut rng);
            let (q_agg, q_stats) = gather_once(ctx, &g, QuantScheme::paper_one_bit(), &mut rng);
            (f32_agg, f32_stats, q_agg, q_stats)
        });
        for (f32_agg, f32_stats, q_agg, q_stats) in out {
            assert!(q_stats.bytes_sent * 4 < f32_stats.bytes_sent);
            // Same magnitude everywhere (|v| constant ⇒ max == |v|), so the
            // quantized aggregate is exact here.
            let a = f32_agg.get(7).unwrap();
            let b = q_agg.get(7).unwrap();
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn error_feedback_records_quantization_error() {
        let cluster = Cluster::new(1, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let mut g = SparseGrad::new(2);
            g.row_mut(0).copy_from_slice(&[1.0, -0.25]);
            g.ensure_sorted();
            let mut store = ResidualStore::new();
            let mut rng = StdRng::seed_from_u64(0);
            exchange_allgather_into(
                ctx.comm_mut(),
                &g,
                2,
                QuantScheme::paper_one_bit(),
                Some(&mut store),
                &mut rng,
                &mut GatherBufs::new(),
                &mut SparseGrad::new(2),
            )
            .unwrap();
            // Sent [1, -1]; error = original − sent = [0, 0.75].
            let mut next = SparseGrad::new(2);
            next.row_mut(0); // touch row 0 so the residual re-enters
            store.add_into(&mut next);
            next.get(0).unwrap().to_vec()
        });
        assert!((out[0][0] - 0.0).abs() < 1e-6);
        assert!((out[0][1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn allgather_into_reused_buffers_match_fresh_ones() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let mut results = Vec::new();
            // One set of buffers reused across schemes and calls.
            let mut bufs = GatherBufs::new();
            let mut agg = SparseGrad::new(4);
            for scheme in SCHEMES {
                let g = local_grad(ctx.rank(), 4);
                let mut rng_a = StdRng::seed_from_u64(3);
                let mut rng_b = StdRng::seed_from_u64(3);
                let (fresh, fresh_stats) = gather_once(ctx, &g, scheme, &mut rng_a);
                let stats = exchange_allgather_into(
                    ctx.comm_mut(),
                    &g,
                    4,
                    scheme,
                    None,
                    &mut rng_b,
                    &mut bufs,
                    &mut agg,
                )
                .unwrap();
                results.push((fresh.to_dense(16), agg.to_dense(16), fresh_stats, stats));
            }
            results
        });
        for per_rank in out {
            for (fresh, reused, fresh_stats, reused_stats) in per_rank {
                assert_eq!(fresh, reused, "aggregates must be bit-identical");
                assert_eq!(fresh_stats, reused_stats, "stats must match");
            }
        }
    }

    /// What the gather must compute, from the `send`-buffer encoder and a
    /// copying collective: every rank's `encode_gather_payload` bytes,
    /// decoded in rank order by an offset walk and rank-averaged.
    fn reference_gather(
        ctx: &mut NodeCtx,
        g: &SparseGrad,
        scheme: QuantScheme,
        residuals: Option<&mut ResidualStore>,
        rng: &mut StdRng,
    ) -> (SparseGrad, ExchangeStats) {
        let mut bufs = GatherBufs::new();
        let mut stats = encode_gather_payload(g, g.dim(), scheme, residuals, rng, &mut bufs);
        let (mut recv, mut counts) = (Vec::new(), Vec::new());
        ctx.comm_mut()
            .allgatherv_bytes_into(&bufs.send, &mut recv, &mut counts)
            .unwrap();
        let mut agg = SparseGrad::new(g.dim());
        let mut off = 0usize;
        for &c in &counts {
            let mut dec = RowDecoder::new(&recv[off..off + c]).unwrap();
            off += c;
            while let Some(r) = dec.next_row() {
                let r = r.unwrap();
                stats.rows_gathered += 1;
                r.add_into(agg.row_mut(r.row));
            }
        }
        agg.scale(1.0 / ctx.comm().size() as f32);
        (agg, stats)
    }

    fn sorted_bits(g: &mut SparseGrad) -> Vec<(u32, Vec<u32>)> {
        g.ensure_sorted();
        g.iter_sorted()
            .map(|(row, v)| (row, v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    fn residual_bits(store: &ResidualStore) -> Vec<(u32, Vec<u32>)> {
        let mut ids = Vec::new();
        store.sorted_ids_into(&mut ids);
        ids.iter()
            .map(|&id| {
                let row = store.get_row(id).expect("listed row");
                (id, row.iter().map(|x| x.to_bits()).collect())
            })
            .collect()
    }

    /// The in-slot encode and the `send`-buffer encode cannot drift: for
    /// every scheme, with and without error feedback, the staged exchange
    /// and its pipelined completion equal the reference in aggregate
    /// bits, stats, residual store and caller-RNG state.
    #[test]
    fn staged_gather_matches_reference_decode_of_encoded_payloads() {
        let cluster = Cluster::new(3, ClusterSpec::cray_xc40());
        cluster.run(|ctx| {
            let dim = 12;
            let g = local_grad(ctx.rank(), dim);
            for scheme in SCHEMES {
                for feedback in [false, true] {
                    let what = format!("{scheme:?}, feedback {feedback}");
                    let seed = 40 + ctx.rank() as u64;
                    let (mut rng_ref, mut rng_sync, mut rng_pipe) = (
                        StdRng::seed_from_u64(seed),
                        StdRng::seed_from_u64(seed),
                        StdRng::seed_from_u64(seed),
                    );
                    let mut stores = [(); 3].map(|()| {
                        let mut s = ResidualStore::new();
                        s.set_row(5, &vec![0.25; dim]); // a carried-over residual
                        s
                    });
                    let [store_ref, store_sync, store_pipe] = &mut stores;
                    let (mut want, want_stats) = reference_gather(
                        ctx,
                        &g,
                        scheme,
                        feedback.then_some(store_ref),
                        &mut rng_ref,
                    );

                    let mut bufs = GatherBufs::new();
                    let mut agg = SparseGrad::new(dim);
                    let stats = exchange_allgather_into(
                        ctx.comm_mut(),
                        &g,
                        dim,
                        scheme,
                        feedback.then_some(store_sync),
                        &mut rng_sync,
                        &mut bufs,
                        &mut agg,
                    )
                    .unwrap();
                    assert_eq!(sorted_bits(&mut agg), sorted_bits(&mut want), "{what}");
                    assert_eq!(stats, want_stats, "{what}");

                    // Encode at "launch", complete later as an overlapped
                    // collective.
                    let mut slot = PipelineSlot {
                        anchor_s: ctx.comm().clock().now_s(),
                        ..PipelineSlot::default()
                    };
                    let mut staged_stats = encode_gather_payload(
                        &g,
                        dim,
                        scheme,
                        feedback.then_some(store_pipe),
                        &mut rng_pipe,
                        &mut slot.ent_gather,
                    );
                    let (gathered, overlap) = complete_gather_exchange_overlapped(
                        ctx.comm_mut(),
                        dim,
                        &mut slot.ent_gather,
                        &mut agg,
                        slot.anchor_s,
                    )
                    .unwrap();
                    staged_stats.rows_gathered = gathered;
                    assert!(overlap.hidden_s >= 0.0 && overlap.visible_s >= 0.0);
                    assert_eq!(sorted_bits(&mut agg), sorted_bits(&mut want), "{what}");
                    assert_eq!(staged_stats, want_stats, "{what}");

                    let want_residuals = residual_bits(&stores[0]);
                    let want_draw: u64 = rng_ref.gen();
                    for (store, mut rng) in [(&stores[1], rng_sync), (&stores[2], rng_pipe)] {
                        assert_eq!(residual_bits(store), want_residuals, "{what}");
                        assert_eq!(rng.gen::<u64>(), want_draw, "{what}");
                    }
                }
            }
        });
    }

    #[test]
    fn staged_allreduce_matches_synchronous_path() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let g = local_grad(ctx.rank(), 2);
            let mut dense = vec![0.0f32; 16 * 2];
            let ref_stats = exchange_allreduce(ctx.comm_mut(), &g, &mut dense).unwrap();

            let mut staged = Vec::new();
            let anchor = ctx.comm().clock().now_s();
            let stats = stage_allreduce_payload(&g, &mut staged, 16 * 2);
            let overlap =
                complete_allreduce_overlapped(ctx.comm_mut(), &mut staged, anchor).unwrap();
            assert_eq!(stats, ref_stats);
            assert_eq!(overlap.window_s, 0.0, "no compute between launch/complete");
            (dense, staged)
        });
        for (dense, staged) in out {
            assert_eq!(dense, staged, "staged all-reduce must be bit-identical");
        }
    }

    #[test]
    fn gather_table_rows_installs_every_owner_copy() {
        let cluster = Cluster::new(3, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            let rank = ctx.rank() as u32;
            // Row r belongs to rank r % 3; every rank's other rows are stale.
            let mut table = EmbeddingTable::zeros(7, 2);
            for r in (0..7u32).filter(|r| r % 3 == rank) {
                table.row_mut(r as usize).copy_from_slice(&[r as f32, -(r as f32)]);
            }
            let owned = (0..7u32).filter(|r| r % 3 == rank);
            gather_table_rows(ctx.comm_mut(), &mut table, owned).unwrap();
            table.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        });
        let want: Vec<u32> = (0..7)
            .flat_map(|r| [(r as f32).to_bits(), (-(r as f32)).to_bits()])
            .collect();
        for table in out {
            assert_eq!(table, want); // row 0's -0.0 included
        }
    }

    #[test]
    fn wire_format_mapping() {
        use kge_compress::ScaleRule;
        assert_eq!(wire_format(QuantScheme::None), WireFormat::F32);
        assert_eq!(
            wire_format(QuantScheme::paper_one_bit()),
            WireFormat::OneBit { two_scales: false }
        );
        assert_eq!(
            wire_format(QuantScheme::OneBit {
                rule: ScaleRule::PosNegAvg
            }),
            WireFormat::OneBit { two_scales: true }
        );
        assert_eq!(wire_format(QuantScheme::TwoBit), WireFormat::TwoBit);
    }
}
