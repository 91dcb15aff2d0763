//! Property tests for the α-β(-γ) cost model: collective prices are
//! monotone nondecreasing in payload size and in rank count, never
//! negative or NaN, and the generic `price()` dispatch agrees exactly
//! with the per-op methods it routes to.

use proptest::prelude::*;
use simgrid::{Collective, CostModel};
use simgrid::ClusterSpec;

fn models() -> Vec<CostModel> {
    vec![
        CostModel::new(ClusterSpec::cray_xc40()),
        CostModel::new(ClusterSpec::ethernet_10g()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn allreduce_monotone_in_bytes(
        p in 1usize..=64,
        bytes in 0usize..(1 << 24),
        extra in 0usize..(1 << 24),
    ) {
        for m in models() {
            let small = m.allreduce(p, bytes);
            let big = m.allreduce(p, bytes + extra);
            prop_assert!(small >= 0.0 && small.is_finite());
            prop_assert!(big >= small, "p={p} {small} > {big}");
        }
    }

    #[test]
    fn allreduce_monotone_in_ranks(
        p in 1usize..=48,
        dp in 0usize..=16,
        bytes in 0usize..(1 << 24),
    ) {
        // Both candidate algorithms (recursive doubling, ring) are
        // individually nondecreasing in p, so their min is too.
        for m in models() {
            prop_assert!(m.allreduce(p + dp, bytes) >= m.allreduce(p, bytes));
        }
    }

    #[test]
    fn allgatherv_monotone_in_bytes_and_ranks(
        per_rank in proptest::collection::vec(0usize..(1 << 20), 1..=32),
        grow_idx in 0usize..32,
        extra in 1usize..(1 << 20),
    ) {
        for m in models() {
            let base = m.allgatherv(&per_rank);
            prop_assert!(base >= 0.0 && base.is_finite());

            // Growing any single rank's contribution cannot cheapen it.
            let mut bigger = per_rank.clone();
            let i = grow_idx % bigger.len();
            bigger[i] += extra;
            prop_assert!(m.allgatherv(&bigger) >= base, "grew rank {i}");

            // Adding one more rank (same max contribution) cannot cheapen
            // it either: total volume and latency hops both grow.
            let mut wider = per_rank.clone();
            wider.push(*per_rank.iter().max().unwrap());
            prop_assert!(m.allgatherv(&wider) >= base);
        }
    }

    #[test]
    fn price_dispatch_agrees_with_per_op_methods(
        per_rank in proptest::collection::vec(0usize..(1 << 20), 1..=24),
    ) {
        let p = per_rank.len();
        let max = per_rank.iter().copied().max().unwrap_or(0);
        for m in models() {
            prop_assert_eq!(m.price(Collective::AllReduce, &per_rank), m.allreduce(p, max));
            prop_assert_eq!(m.price(Collective::AllGatherV, &per_rank), m.allgatherv(&per_rank));
            prop_assert_eq!(m.price(Collective::Barrier, &per_rank), m.barrier(p));
            prop_assert_eq!(
                m.price(Collective::PointToPoint, &per_rank),
                m.spec().p2p_time(max)
            );
        }
    }

    #[test]
    fn degraded_model_never_cheaper(
        p in 2usize..=32,
        bytes in 1usize..(1 << 24),
        lat_mult in 1.0f64..8.0,
        bw_div in 1.0f64..8.0,
    ) {
        for m in models() {
            let d = m.degraded(lat_mult, bw_div);
            prop_assert!(d.allreduce(p, bytes) >= m.allreduce(p, bytes));
            prop_assert!(d.barrier(p) >= m.barrier(p));
        }
    }
}
