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
//! Both paths return the aggregated gradient **averaged** over ranks. The
//! replica step runs them through `Staged`, one table's half of an
//! exchange in flight; [`exchange_allreduce`] and
//! [`exchange_allgather_into`] are the same collectives on a live
//! gradient, for callers with no slot ring.

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

/// Reusable quantization scratch for the all-gather path: one quantized
/// row and one dequantize row (error feedback). One per worker; after the
/// first batch has sized them the steady state allocates nothing.
#[derive(Debug, Clone)]
pub struct GatherBufs {
    qrow: QuantizedRow,
    dequant: Vec<f32>,
}

impl GatherBufs {
    pub fn new() -> Self {
        GatherBufs {
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
    let enc = Encoder {
        scheme,
        residuals,
        rng,
        bufs,
    };
    let stage = |slot: &mut Vec<u8>| enc.encode(grad, slot);
    let (mut stats, rows_gathered, _) = gather_into(comm, None, stage, agg)?;
    stats.rows_gathered = rows_gathered;
    Ok(stats)
}

/// How a gradient goes on the all-gather wire: the scheme, the
/// error-feedback store (when on), the stream the 2-bit dithers draw from,
/// and the quantization scratch.
pub(crate) struct Encoder<'a> {
    pub(crate) scheme: QuantScheme,
    pub(crate) residuals: Option<&'a mut ResidualStore>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) bufs: &'a mut GatherBufs,
}

impl Encoder<'_> {
    /// Quantize + encode `grad`'s rows, in sorted order, into `out` (a
    /// staging slot or a [`Staged`] wire buffer). Returns the payload's
    /// stats (`rows_gathered` 0).
    pub(crate) fn encode(self, grad: &SparseGrad, out: &mut Vec<u8>) -> ExchangeStats {
        let Encoder {
            scheme,
            mut residuals,
            rng,
            bufs: GatherBufs { qrow, dequant },
        } = self;
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
            // Packed path: 1-bit rows quantize straight into the wire
            // format (SIMD scales + movemask sign packing, no intermediate
            // sign vec; OneBit draws nothing from its stream).
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

/// What one table puts on the wire: the gradient scattered into a dense
/// `len`-float table (all-reduce), or its rows, encoded (all-gather).
pub(crate) enum Wire<'a> {
    Dense { len: usize },
    Rows(Encoder<'a>),
}

/// One table's half of an exchange in flight: the payload a launch staged
/// — the dense table or the encoded rows — and, after an all-reduce, the
/// rank-averaged result in place of the dense payload. A ring of slots,
/// one `Staged` per table each, double-buffers the pipelined exchange
/// with zero steady-state allocation.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    pub(crate) dense: Vec<f32>,
    bytes: Vec<u8>,
}

impl Staged {
    /// Stage `grad`'s payload now for a later [`Staged::collective`].
    pub(crate) fn stage(&mut self, grad: &SparseGrad, wire: Wire<'_>) {
        match wire {
            Wire::Dense { len } => {
                self.dense.resize(len, 0.0);
                self.dense.fill(0.0);
                grad.scatter_into(&mut self.dense);
            }
            Wire::Rows(enc) => {
                enc.encode(grad, &mut self.bytes);
            }
        }
    }

    /// Run the table's collective, priced as launched at `anchor` (`None`
    /// is the synchronous collective). A `live` gradient is staged straight
    /// into the communicator's slot inside the collective — scattered, or
    /// encoded by the wire's encoder — with no copy; without one, the
    /// payload [`Staged::stage`] left is deposited. An all-reduce leaves
    /// the rank-averaged table in `dense`, a gather the rank-averaged rows
    /// in `agg`. Returns the rows gathered (0 for an all-reduce).
    pub(crate) fn collective(
        &mut self,
        comm: &mut Communicator,
        wire: Wire<'_>,
        live: Option<&SparseGrad>,
        anchor: Option<f64>,
        agg: &mut SparseGrad,
    ) -> Result<usize, SimError> {
        match wire {
            Wire::Dense { len } => {
                self.dense.resize(len, 0.0);
                let inv = 1.0 / comm.size() as f32;
                comm.allreduce_staged(&mut self.dense, inv, anchor, |staged, slot| match live {
                    Some(grad) => grad.scatter_into(slot),
                    None => slot.copy_from_slice(staged),
                })?;
                Ok(0)
            }
            Wire::Rows(enc) => {
                let staged = &self.bytes;
                let stage = |slot: &mut Vec<u8>| match live {
                    Some(grad) => {
                        enc.encode(grad, slot);
                    }
                    None => slot.extend_from_slice(staged),
                };
                gather_into(comm, anchor, stage, agg).map(|((), rows, _)| rows)
            }
        }
    }
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

    /// What the gather must compute, from an encoder writing into a send
    /// buffer and a copying collective: every rank's encoded bytes,
    /// decoded in rank order by an offset walk and rank-averaged.
    fn reference_gather(
        ctx: &mut NodeCtx,
        g: &SparseGrad,
        scheme: QuantScheme,
        residuals: Option<&mut ResidualStore>,
        rng: &mut StdRng,
    ) -> (SparseGrad, ExchangeStats) {
        let mut send = Vec::new();
        let bufs = &mut GatherBufs::new();
        let mut stats = Encoder { scheme, residuals, rng, bufs }.encode(g, &mut send);
        let (mut recv, mut counts) = (Vec::new(), Vec::new());
        ctx.comm_mut()
            .allgatherv_bytes_into(&send, &mut recv, &mut counts)
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

    /// The in-slot encode and the send-buffer encode cannot drift: for
    /// every scheme, with and without error feedback, the synchronous
    /// exchange, a slot's live collective and a slot's staged-then-deposited
    /// collective equal the reference in aggregate bits, rows gathered,
    /// residual store and caller-RNG state.
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
                    let mut rngs = [(); 4].map(|()| StdRng::seed_from_u64(seed));
                    let mut stores = [(); 4].map(|()| {
                        let mut s = ResidualStore::new();
                        s.set_row(5, &vec![0.25; dim]); // a carried-over residual
                        s
                    });
                    let [rng_ref, rng_sync, rng_live, rng_pipe] = &mut rngs;
                    let [store_ref, store_sync, store_live, store_pipe] = &mut stores;
                    let (mut want, want_stats) =
                        reference_gather(ctx, &g, scheme, feedback.then_some(store_ref), rng_ref);

                    let bufs = &mut GatherBufs::new();
                    let mut agg = SparseGrad::new(dim);
                    let stats = exchange_allgather_into(
                        ctx.comm_mut(),
                        &g,
                        dim,
                        scheme,
                        feedback.then_some(store_sync),
                        rng_sync,
                        bufs,
                        &mut agg,
                    )
                    .unwrap();
                    assert_eq!(sorted_bits(&mut agg), sorted_bits(&mut want), "{what}");
                    assert_eq!(stats, want_stats, "{what}");

                    // Window 0: the live gradient encoded inside the collective.
                    let mut slot = Staged::default();
                    let residuals = feedback.then_some(store_live);
                    let wire = Wire::Rows(Encoder { scheme, residuals, rng: rng_live, bufs });
                    let comm = ctx.comm_mut();
                    let rows = slot.collective(comm, wire, Some(&g), None, &mut agg).unwrap();
                    assert_eq!(sorted_bits(&mut agg), sorted_bits(&mut want), "{what}");
                    assert_eq!(rows, want_stats.rows_gathered, "{what}");

                    // Window >= 1: encoded at launch, deposited later as an
                    // overlapped collective.
                    let anchor = ctx.comm().clock().now_s();
                    let residuals = feedback.then_some(store_pipe);
                    slot.stage(&g, Wire::Rows(Encoder { scheme, residuals, rng: rng_pipe, bufs }));
                    let mut unused = StdRng::seed_from_u64(0);
                    let rng = &mut unused;
                    let wire = Wire::Rows(Encoder { scheme, residuals: None, rng, bufs });
                    let comm = ctx.comm_mut();
                    let rows = slot.collective(comm, wire, None, Some(anchor), &mut agg).unwrap();
                    assert_eq!(sorted_bits(&mut agg), sorted_bits(&mut want), "{what}");
                    assert_eq!(rows, want_stats.rows_gathered, "{what}");

                    let want_residuals = residual_bits(&stores[0]);
                    let want_draw: u64 = rngs[0].gen();
                    for (store, rng) in stores[1..].iter().zip(&mut rngs[1..]) {
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
            exchange_allreduce(ctx.comm_mut(), &g, &mut dense).unwrap();

            let mut agg = SparseGrad::new(2);
            let (mut live, mut staged) = (Staged::default(), Staged::default());
            let wire = Wire::Dense { len: 16 * 2 };
            live.collective(ctx.comm_mut(), wire, Some(&g), None, &mut agg).unwrap();
            let anchor = ctx.comm().clock().now_s();
            staged.stage(&g, Wire::Dense { len: 16 * 2 });
            let wire = Wire::Dense { len: 16 * 2 };
            staged.collective(ctx.comm_mut(), wire, None, Some(anchor), &mut agg).unwrap();
            (dense, live.dense, staged.dense)
        });
        for (dense, live, staged) in out {
            assert_eq!(dense, live, "live all-reduce must be bit-identical");
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
