//! Hardware description of the simulated cluster.

/// Static description of the simulated machine: interconnect parameters for
/// the α-β cost model and per-node compute throughput.
///
/// All times are in seconds, bandwidths in bytes/second, compute in flop/s.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Per-message latency of the interconnect (the `α` term), seconds.
    pub latency_s: f64,
    /// Point-to-point bandwidth (reciprocal of the `β` term), bytes/second.
    pub bandwidth_bps: f64,
    /// Per-byte cost of the local reduction work inside an all-reduce
    /// (the `γ` term), seconds/byte. Small but nonzero on real machines.
    pub reduce_cost_spb: f64,
    /// Aggregate useful flop rate of one node (all cores), flop/s.
    pub node_flops: f64,
    /// Cores per node; informational (compute is charged against
    /// `node_flops` which already aggregates the cores).
    pub cores_per_node: usize,
    /// Message-size threshold (bytes) below which latency-optimal
    /// (logarithmic) collective algorithms are preferred.
    pub small_message_bytes: usize,
    /// Measured intra-node speedup of the parallel training hot path over
    /// the sequential one (≥ 1). `node_flops` describes the sequential
    /// implementation's effective rate; the multi-threaded batch kernel
    /// raises the node's useful throughput to
    /// `node_flops × intra_node_speedup`, which is what
    /// [`ClusterSpec::effective_flops`] reports and the simulated clock
    /// divides by. Kept as a *spec* parameter — never measured inside a
    /// run — so simulated times stay bit-deterministic and independent of
    /// the host's thread count. Bounded in practice by `cores_per_node`.
    pub intra_node_speedup: f64,
}

impl ClusterSpec {
    /// The paper's testbed: Cray XC40 nodes (2×12-core Xeon) running the
    /// TensorFlow + Horovod training stack.
    ///
    /// These are **effective** parameters, not peak hardware: `node_flops`
    /// is the useful model-update throughput of the TF-era implementation
    /// (calibrated so one epoch of full-scale FB250K on a single node
    /// lands near the paper's ~500 s, Fig. 1d), and `bandwidth_bps` is the
    /// achieved throughput of Horovod collectives over Aries including
    /// (de)serialization of sparse IndexedSlices — far below the link's
    /// 9.6 GB/s. See `kge-train`'s `sim_calibration` tests.
    pub fn cray_xc40() -> Self {
        ClusterSpec {
            latency_s: 2.0e-5,
            bandwidth_bps: 2.5e8,
            reduce_cost_spb: 2.0e-11,
            node_flops: 2.0e9,
            cores_per_node: 24,
            small_message_bytes: 8192,
            intra_node_speedup: 1.0,
        }
    }

    /// Commodity 10 GbE cluster: two orders of magnitude higher latency,
    /// similar nominal bandwidth. Useful for sensitivity studies.
    pub fn ethernet_10g() -> Self {
        ClusterSpec {
            latency_s: 2.0e-4,
            bandwidth_bps: 1.25e9,
            reduce_cost_spb: 2.0e-11,
            node_flops: 1.2e10,
            cores_per_node: 24,
            small_message_bytes: 65536,
            intra_node_speedup: 1.0,
        }
    }

    /// A zero-cost network: collectives are free. Isolates compute scaling;
    /// used in tests to verify that numerics are independent of the spec.
    pub fn ideal() -> Self {
        ClusterSpec {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
            reduce_cost_spb: 0.0,
            node_flops: 1.2e10,
            cores_per_node: 24,
            small_message_bytes: 8192,
            intra_node_speedup: 1.0,
        }
    }

    /// Override the intra-node speedup (builder style), e.g. with the
    /// scaling the parallel batch kernel shows on the target host.
    pub fn with_intra_node_speedup(mut self, speedup: f64) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "intra-node speedup must be positive and finite"
        );
        self.intra_node_speedup = speedup;
        self
    }

    /// A copy of this spec with a degraded interconnect: latency
    /// multiplied by `latency_mult`, bandwidth divided by `bandwidth_div`.
    /// Used to price operations during a `FaultPlan` link-degradation
    /// window; compute parameters are untouched.
    pub fn degraded(&self, latency_mult: f64, bandwidth_div: f64) -> Self {
        debug_assert!(latency_mult >= 1.0 && bandwidth_div >= 1.0);
        ClusterSpec {
            latency_s: self.latency_s * latency_mult,
            bandwidth_bps: self.bandwidth_bps / bandwidth_div,
            ..self.clone()
        }
    }

    /// Effective useful flop rate of one node once the intra-node
    /// parallel speedup of the batch kernel is accounted for.
    #[inline]
    pub fn effective_flops(&self) -> f64 {
        self.node_flops * self.intra_node_speedup
    }

    /// Seconds to transfer `bytes` point-to-point (α + m·β).
    #[inline]
    pub fn p2p_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    /// Seconds of simulated compute for `flops` floating-point operations
    /// on one node.
    #[inline]
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / self.effective_flops()
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::cray_xc40()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cray_spec_sane() {
        let s = ClusterSpec::cray_xc40();
        assert!(s.latency_s > 0.0 && s.latency_s < 1e-4);
        assert!(s.bandwidth_bps > 1e8);
        assert_eq!(s.cores_per_node, 24);
    }

    #[test]
    fn p2p_time_monotone_in_size() {
        let s = ClusterSpec::cray_xc40();
        assert!(s.p2p_time(1 << 20) > s.p2p_time(1 << 10));
        assert!(s.p2p_time(0) == s.latency_s);
    }

    #[test]
    fn ideal_network_is_free() {
        let s = ClusterSpec::ideal();
        assert_eq!(s.p2p_time(1 << 30), 0.0);
    }

    #[test]
    fn compute_time_scales_linearly() {
        let s = ClusterSpec::cray_xc40();
        let t1 = s.compute_time(1e9);
        let t2 = s.compute_time(2e9);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn ethernet_has_higher_latency_than_cray() {
        assert!(ClusterSpec::ethernet_10g().latency_s > ClusterSpec::cray_xc40().latency_s);
    }

    #[test]
    fn default_is_cray() {
        assert_eq!(ClusterSpec::default(), ClusterSpec::cray_xc40());
    }
}
