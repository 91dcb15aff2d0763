//! Analytic α-β(-γ) cost model for collective operations.
//!
//! Each collective is costed with the standard closed-form expressions for
//! the algorithm an MPI-class library would select at that message size
//! (latency-optimal logarithmic algorithms for small messages,
//! bandwidth-optimal ring algorithms for large ones). The model returns the
//! time *every participating node* is busy in the collective — synchronous
//! collectives finish together, so one number suffices.

use crate::spec::ClusterSpec;

/// The collective operations the model can price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Collective {
    /// Sum-reduce a buffer of `m` bytes, result everywhere.
    AllReduce,
    /// Gather variable-size contributions from every rank to every rank.
    AllGatherV,
    /// Pure synchronization.
    Barrier,
    /// Point-to-point message (see `simgrid::p2p`).
    PointToPoint,
    /// Sharded-store sparse pull (p2p row request + reply). Priced like
    /// [`Collective::PointToPoint`]; a separate bucket so pull traffic is
    /// accounted apart from generic p2p.
    ShardPull,
    /// Sharded-store sparse push (row-sparse gradients routed to owner
    /// ranks). Priced like [`Collective::PointToPoint`].
    ShardPush,
}

/// Prices collectives against a [`ClusterSpec`].
#[derive(Debug, Clone)]
pub struct CostModel {
    spec: ClusterSpec,
}

impl CostModel {
    pub fn new(spec: ClusterSpec) -> Self {
        CostModel { spec }
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// A copy of this model pricing against a degraded interconnect (see
    /// [`ClusterSpec::degraded`]). With both factors at 1.0 prices are
    /// identical to this model's.
    pub fn degraded(&self, latency_mult: f64, bandwidth_div: f64) -> CostModel {
        CostModel::new(self.spec.degraded(latency_mult, bandwidth_div))
    }

    #[inline]
    fn alpha(&self) -> f64 {
        self.spec.latency_s
    }

    #[inline]
    fn beta(&self) -> f64 {
        1.0 / self.spec.bandwidth_bps
    }

    #[inline]
    fn gamma(&self) -> f64 {
        self.spec.reduce_cost_spb
    }

    #[inline]
    fn ceil_log2(p: usize) -> f64 {
        debug_assert!(p >= 1);
        (usize::BITS - (p - 1).leading_zeros()) as f64
    }

    /// Time for an all-reduce of `bytes` across `p` nodes.
    ///
    /// Takes the cheaper of recursive doubling
    /// (`⌈log₂p⌉(α + mβ + mγ)`, latency-optimal) and Rabenseifner/ring
    /// (`2(p−1)α + 2m(p−1)/p·β + m(p−1)/p·γ`, bandwidth-optimal) — the same
    /// switch real MPI implementations make.
    pub fn allreduce(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let m = bytes as f64;
        let lg = Self::ceil_log2(p);
        let rec_doubling = lg * (self.alpha() + m * self.beta() + m * self.gamma());
        let frac = (p - 1) as f64 / p as f64;
        let ring = 2.0 * (p - 1) as f64 * self.alpha()
            + 2.0 * m * frac * self.beta()
            + m * frac * self.gamma();
        rec_doubling.min(ring)
    }

    /// Time for an all-gather where rank `i` contributes `per_rank[i]`
    /// bytes and every rank ends with all contributions.
    ///
    /// Ring: `(p−1)α + (Σm − max_own)β` per node; we charge the
    /// worst-positioned node, i.e. use total incoming bytes of the node
    /// that contributes least (conservative, synchronous finish). For small
    /// totals a Bruck-style `⌈log₂p⌉α + (Σm)β` is used.
    pub fn allgatherv(&self, per_rank: &[usize]) -> f64 {
        let p = per_rank.len();
        if p <= 1 {
            return 0.0;
        }
        let total: usize = per_rank.iter().sum();
        let min_own = per_rank.iter().copied().min().unwrap_or(0);
        let incoming = (total - min_own) as f64;
        let ring = (p - 1) as f64 * self.alpha() + incoming * self.beta();
        let bruck = Self::ceil_log2(p) * self.alpha() + incoming * self.beta();
        if total <= self.spec.small_message_bytes {
            ring.min(bruck)
        } else {
            ring
        }
    }

    /// Dissemination barrier.
    pub fn barrier(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        Self::ceil_log2(p) * self.alpha()
    }

    /// Generic entry point used by the communicator: price `op` moving
    /// `per_rank` bytes (interpretation depends on the op; for symmetric
    /// ops only the max entry and count matter).
    pub fn price(&self, op: Collective, per_rank: &[usize]) -> f64 {
        let p = per_rank.len();
        match op {
            Collective::AllReduce => {
                let m = per_rank.iter().copied().max().unwrap_or(0);
                self.allreduce(p, m)
            }
            Collective::AllGatherV => self.allgatherv(per_rank),
            Collective::Barrier => self.barrier(p),
            Collective::PointToPoint | Collective::ShardPull | Collective::ShardPush => {
                let m = per_rank.iter().copied().max().unwrap_or(0);
                self.spec.p2p_time(m)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(ClusterSpec::cray_xc40())
    }

    #[test]
    fn single_node_collectives_are_free() {
        let m = model();
        assert_eq!(m.allreduce(1, 1 << 20), 0.0);
        assert_eq!(m.allgatherv(&[1 << 20]), 0.0);
        assert_eq!(m.barrier(1), 0.0);
    }

    #[test]
    fn allreduce_monotone_in_bytes_and_nodes() {
        let m = model();
        assert!(m.allreduce(4, 1 << 22) > m.allreduce(4, 1 << 12));
        // More nodes cost more latency for the same payload.
        assert!(m.allreduce(16, 1 << 22) > m.allreduce(2, 1 << 22));
    }

    #[test]
    fn allreduce_bandwidth_term_saturates() {
        // For large p, ring all-reduce bandwidth term approaches 2mβ — the
        // hallmark of bandwidth-optimal all-reduce. Doubling p from 8 to 16
        // must grow time by far less than 2x for a large message.
        let m = model();
        let t8 = m.allreduce(8, 64 << 20);
        let t16 = m.allreduce(16, 64 << 20);
        assert!(t16 < 1.2 * t8, "t8={t8} t16={t16}");
    }

    #[test]
    fn allgatherv_scales_with_total_volume() {
        let m = model();
        let small = m.allgatherv(&[1000, 1000, 1000, 1000]);
        let big = m.allgatherv(&[100_000, 100_000, 100_000, 100_000]);
        assert!(big > small);
    }

    #[test]
    fn sparse_allgather_beats_dense_allreduce_and_crossover_exists() {
        // The paper's §4.1 mechanism: with few non-zero rows, all-gather of
        // just those rows beats all-reduce of the dense matrix; as p grows,
        // gathered volume grows ∝ p while all-reduce stays ~2m, so
        // all-reduce eventually wins. Verify both regimes.
        let m = model();
        let dense_bytes = 10_000_000; // full gradient matrix
        let sparse_per_rank = 400_000; // non-zero rows per node

        let p_small = 2;
        let ar_small = m.allreduce(p_small, dense_bytes);
        let ag_small = m.allgatherv(&vec![sparse_per_rank; p_small]);
        assert!(ag_small < ar_small, "allgather should win at p=2");

        let p_large = 64;
        let ar_large = m.allreduce(p_large, dense_bytes);
        let ag_large = m.allgatherv(&vec![sparse_per_rank; p_large]);
        assert!(ar_large < ag_large, "allreduce should win at p=64");
    }

    #[test]
    fn barrier_cheaper_than_any_data_collective() {
        let m = model();
        assert!(m.barrier(16) < m.allreduce(16, 4096));
        assert!(m.barrier(16) < m.allgatherv(&[4096; 16]));
    }

    #[test]
    fn price_dispatch_matches_direct_calls() {
        let m = model();
        let per = vec![4096usize; 8];
        assert_eq!(m.price(Collective::AllReduce, &per), m.allreduce(8, 4096));
        assert_eq!(m.price(Collective::AllGatherV, &per), m.allgatherv(&per));
        assert_eq!(m.price(Collective::Barrier, &per), m.barrier(8));
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(CostModel::ceil_log2(1), 0.0);
        assert_eq!(CostModel::ceil_log2(2), 1.0);
        assert_eq!(CostModel::ceil_log2(3), 2.0);
        assert_eq!(CostModel::ceil_log2(4), 2.0);
        assert_eq!(CostModel::ceil_log2(5), 3.0);
        assert_eq!(CostModel::ceil_log2(16), 4.0);
        assert_eq!(CostModel::ceil_log2(17), 5.0);
    }
}
