//! Property tests for the checkpoint codec.
//!
//! Three laws, over arbitrary model / optimizer / residual / RNG states
//! at every supported dimension ({15, 64, 128}) and residual population
//! corresponding to each quantization scheme (error feedback only exists
//! under the lossy schemes):
//!
//! 1. encode → decode is bit-identical for every field;
//! 2. truncation at any byte is a typed [`CheckpointError`], never a
//!    panic or a silent partial load;
//! 3. corruption of any single byte is a typed error, never a panic.

use kge_compress::ResidualStore;
use kge_core::{EmbeddingTable, OptimStateView};
use kge_eval::RankingMetrics;
use kge_train::checkpoint::{decode, encode_into, CheckpointError, CheckpointView, Tallies};
use kge_train::comm_select::{CommChoice, SelectorSnapshot};
use kge_train::lr::PlateauSnapshot;
use kge_train::report::EpochTrace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgrid::{Collective, TimeBreakdown};

/// The dimensions the resume matrix trains at (ComplEx rank 4 and the
/// odd/large strides that exercise every SIMD tail path).
const DIMS: [usize; 3] = [15, 64, 128];

/// Residual population per quantization scheme: `None` keeps no error
/// feedback, the lossy schemes accumulate per-row residuals.
const SCHEMES: usize = 3; // F32, OneBit, TwoBit

struct ArbState {
    ent: EmbeddingTable,
    rel: EmbeddingTable,
    ent_opt_kind: u8,
    rel_opt_kind: u8,
    ent_m: Vec<f32>,
    ent_v: Vec<f32>,
    ent_row_t: Vec<u32>,
    rel_accum: Vec<f32>,
    ent_residual: ResidualStore,
    rel_residual: ResidualStore,
    tallies: Tallies,
    trace: Vec<EpochTrace>,
    traffic: Vec<(Collective, [u64; 6])>,
    p2p_seq: Vec<u64>,
    selector: Option<SelectorSnapshot>,
}

/// Derive a full training state from structural parameters and one seed.
/// Everything downstream of the seed is deterministic, so a failing case
/// shrinks and replays exactly.
fn build_state(dim: usize, n_ent: usize, n_rel: usize, scheme: usize, seed: u64) -> ArbState {
    let mut rng = StdRng::seed_from_u64(seed);
    let ent = EmbeddingTable::xavier(n_ent, dim, &mut rng);
    let rel = EmbeddingTable::xavier(n_rel, dim, &mut rng);
    let ent_opt_kind = rng.gen_range(0..3u8);
    let rel_opt_kind = rng.gen_range(0..3u8);
    let randvec = |rng: &mut StdRng, n: usize| -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-8.0f32..8.0)).collect()
    };
    let ent_m = randvec(&mut rng, n_ent * dim);
    let ent_v = randvec(&mut rng, n_ent * dim);
    let ent_row_t: Vec<u32> = (0..n_ent).map(|_| rng.gen_range(0..90u32)).collect();
    let rel_accum = randvec(&mut rng, n_rel * dim);

    let mut ent_residual = ResidualStore::new();
    let mut rel_residual = ResidualStore::new();
    if scheme > 0 {
        // Lossy schemes: sprinkle residual rows (dense for TwoBit).
        let every = if scheme == 2 { 1 } else { 3 };
        for row in (0..n_ent).step_by(every) {
            ent_residual.set_row(row as u32, &randvec(&mut rng, dim));
        }
        for row in 0..n_rel.min(2) {
            rel_residual.set_row(row as u32, &randvec(&mut rng, dim));
        }
    }

    let tallies = Tallies {
        allreduce_epochs: rng.gen_range(0..50),
        allgather_epochs: rng.gen_range(0..50),
        pipelined_epochs: rng.gen_range(0..50),
        recoveries: rng.gen_range(0..3),
        rejoins: rng.gen_range(0..3),
        checkpoints_written: rng.gen_range(0..9),
        crashed_ranks: (0..rng.gen_range(0..3usize)).map(|i| i * 2).collect(),
    };
    let trace: Vec<EpochTrace> = (0..rng.gen_range(0..4usize))
        .map(|e| EpochTrace {
            epoch: e,
            sim_seconds: rng.gen_range(0.0..100.0),
            comm: [
                CommChoice::AllReduce,
                CommChoice::AllGather,
                CommChoice::PipelinedAllReduce,
                CommChoice::PipelinedAllGather,
            ][rng.gen_range(0..4usize)],
            valid_acc: rng.gen_range(0.0..1.0),
            train_loss: rng.gen_range(0.0..2.0f64),
            lr_scale: rng.gen_range(0.5..4.0f32),
            mean_nonzero_rows: rng.gen_range(0.0..100.0),
            mean_rows_sent: rng.gen_range(0.0..100.0),
            rs_sparsity: rng.gen_range(0.0..1.0),
            bytes_sent: rng.gen_range(0..1u64 << 40),
            ranking: if rng.gen_range(0..2) == 0 {
                None
            } else {
                Some(RankingMetrics {
                    mrr: rng.gen_range(0.0..1.0),
                    mean_rank: rng.gen_range(1.0..500.0),
                    hits1: rng.gen_range(0.0..1.0),
                    hits3: rng.gen_range(0.0..1.0),
                    hits10: rng.gen_range(0.0..1.0),
                    n_queries: rng.gen_range(0..10_000),
                })
            },
        })
        .collect();
    let traffic: Vec<(Collective, [u64; 6])> = [
        Collective::AllReduce,
        Collective::AllGatherV,
        Collective::Barrier,
        Collective::PointToPoint,
        Collective::ShardPull,
        Collective::ShardPush,
    ]
    .into_iter()
    .take(rng.gen_range(0..7usize))
    .map(|c| {
        let mut counters = [0u64; 6];
        for x in &mut counters {
            *x = rng.gen_range(0..1u64 << 48);
        }
        (c, counters)
    })
    .collect();
    let p2p_seq: Vec<u64> = (0..rng.gen_range(1..6usize))
        .map(|_| rng.gen_range(0..1000))
        .collect();
    let selector = if rng.gen_range(0..4usize) == 0 {
        None
    } else {
        Some(SelectorSnapshot {
            state: rng.gen_range(0..4u8),
            arm: CommChoice::PipelinedAllGather,
            check_every: rng.gen_range(1..20),
            epoch: rng.gen_range(0..100),
            last_allreduce_time: if rng.gen_range(0..2) == 0 {
                None
            } else {
                Some(rng.gen_range(0.0..10.0))
            },
            gather_time: rng.gen_range(0.0..10.0),
        })
    };
    ArbState {
        ent,
        rel,
        ent_opt_kind,
        rel_opt_kind,
        ent_m,
        ent_v,
        ent_row_t,
        rel_accum,
        ent_residual,
        rel_residual,
        tallies,
        trace,
        traffic,
        p2p_seq,
        selector,
    }
}

fn encode_state(s: &ArbState, seed: u64) -> Vec<u8> {
    let ent_opt = match s.ent_opt_kind {
        0 => OptimStateView::Stateless,
        1 => OptimStateView::Adam {
            m: &s.ent_m,
            v: &s.ent_v,
            t: seed % 1000,
            row_t: &s.ent_row_t,
        },
        _ => OptimStateView::Adagrad { accum: &s.ent_m },
    };
    let rel_opt = match s.rel_opt_kind {
        0 => OptimStateView::Stateless,
        1 => OptimStateView::Adagrad { accum: &s.rel_accum },
        _ => OptimStateView::Stateless,
    };
    let view = CheckpointView {
        world_size: 4,
        rank: (seed % 4) as usize,
        next_epoch: (seed % 17) as usize,
        seed,
        ent: &s.ent,
        rel: &s.rel,
        ent_opt,
        rel_opt,
        ent_residual: &s.ent_residual,
        rel_residual: &s.rel_residual,
        rng_state: seed.wrapping_mul(0x9E3779B97F4A7C15),
        schedule: PlateauSnapshot {
            node_scale: 4.0,
            decay_scale: 1.0,
            decay: 0.1,
            tolerance: 15,
            max_drops: 2,
            drops: (seed % 3),
            best: 0.5 + (seed % 7) as f64 / 16.0,
            since_best: seed % 5,
            converged: seed.is_multiple_of(2),
        },
        selector: s.selector,
        tallies: &s.tallies,
        trace: &s.trace,
        clock_now_s: (seed % 1_000_000) as f64 / 7.0,
        breakdown: TimeBreakdown {
            compute_s: 1.0,
            comm_s: 2.0,
            idle_s: 3.0,
            fault_s: 4.0,
            retry_s: 5.0,
            checkpoint_s: 6.0,
            overlap_s: 7.0,
            hidden_comm_s: 8.0,
        },
        traffic: &s.traffic,
        coll_seq: seed % 9999,
        p2p_seq: &s.p2p_seq,
    };
    let mut out = Vec::new();
    let mut ids = Vec::new();
    encode_into(&view, &mut ids, &mut out);
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_checkpoint_roundtrip(
        dim_idx in 0usize..DIMS.len(),
        n_ent in 1usize..24,
        n_rel in 1usize..6,
        scheme in 0usize..SCHEMES,
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let s = build_state(dim, n_ent, n_rel, scheme, seed);
        let bytes = encode_state(&s, seed);
        let ck = decode(&bytes).expect("roundtrip decode");

        prop_assert_eq!((ck.dim, ck.n_entities, ck.n_relations), (dim, n_ent, n_rel));
        prop_assert_eq!(ck.seed, seed);
        prop_assert_eq!(bits(ck.ent.as_slice()), bits(s.ent.as_slice()));
        prop_assert_eq!(bits(ck.rel.as_slice()), bits(s.rel.as_slice()));
        prop_assert_eq!(ck.rng_state, seed.wrapping_mul(0x9E3779B97F4A7C15));
        prop_assert_eq!(&ck.tallies, &s.tallies);
        prop_assert_eq!(ck.trace.len(), s.trace.len());
        for (a, b) in ck.trace.iter().zip(&s.trace) {
            prop_assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            prop_assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
            prop_assert_eq!(a.comm, b.comm);
            prop_assert_eq!(a.bytes_sent, b.bytes_sent);
            prop_assert_eq!(a.ranking.map(|r| r.n_queries), b.ranking.map(|r| r.n_queries));
        }
        prop_assert_eq!(ck.traffic, s.traffic.clone());
        prop_assert_eq!(ck.p2p_seq, s.p2p_seq.clone());
        prop_assert_eq!(ck.selector.map(|x| x.epoch), s.selector.map(|x| x.epoch));

        // Optimizer state, bit for bit.
        match (s.ent_opt_kind, &ck.ent_opt) {
            (0, kge_train::OptimSnapshot::Stateless) => {}
            (1, kge_train::OptimSnapshot::Adam { m, v, t, row_t }) => {
                prop_assert_eq!(bits(m), bits(&s.ent_m));
                prop_assert_eq!(bits(v), bits(&s.ent_v));
                prop_assert_eq!(*t, seed % 1000);
                prop_assert_eq!(row_t.clone(), s.ent_row_t.clone());
            }
            (2, kge_train::OptimSnapshot::Adagrad { accum }) => {
                prop_assert_eq!(bits(accum), bits(&s.ent_m));
            }
            (k, other) => prop_assert!(false, "kind {} decoded as {:?}", k, other),
        }

        // Residuals: sorted, complete, bit-identical.
        let mut expect_rows: Vec<u32> = Vec::new();
        s.ent_residual.sorted_ids_into(&mut expect_rows);
        prop_assert_eq!(
            ck.ent_residual.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            expect_rows.clone()
        );
        for (row, values) in &ck.ent_residual {
            prop_assert_eq!(
                bits(values),
                bits(s.ent_residual.get_row(*row).expect("row present"))
            );
        }
    }

    #[test]
    fn prop_truncation_is_typed_error(
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let s = build_state(15, 6, 2, 1, seed);
        let bytes = encode_state(&s, seed);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < bytes.len());
        // Must be an error — and reaching here at all means no panic.
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn prop_single_byte_corruption_is_detected(
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let s = build_state(15, 6, 2, 2, seed);
        let mut bytes = encode_state(&s, seed);
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        let res = decode(&bytes);
        prop_assert!(res.is_err(), "corrupt byte {} accepted", pos);
        // The error is one of the typed kinds, not an Io smuggled panic.
        match res.expect_err("checked above") {
            CheckpointError::BadMagic
            | CheckpointError::UnsupportedVersion { .. }
            | CheckpointError::Truncated { .. }
            | CheckpointError::CrcMismatch { .. }
            | CheckpointError::BadSectionTag { .. }
            | CheckpointError::BadValue { .. } => {}
            CheckpointError::Io(m) => prop_assert!(false, "unexpected Io error: {}", m),
        }
    }
}
