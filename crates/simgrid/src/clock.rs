//! Per-node simulated clocks.

use crate::fault::FaultPlan;
use crate::spec::ClusterSpec;
use std::sync::Arc;

/// Breakdown of where a node's simulated time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Seconds spent in local computation.
    pub compute_s: f64,
    /// Seconds spent inside collectives (data movement + reduction).
    pub comm_s: f64,
    /// Seconds spent waiting for slower peers to enter a collective.
    pub idle_s: f64,
    /// Extra seconds lost to injected faults: straggler slowdown beyond
    /// the healthy compute time, link degradation beyond the healthy
    /// collective price, and failure-detection timeouts on crashed peers.
    pub fault_s: f64,
    /// Seconds spent in timeout + backoff before retransmitting messages
    /// or collective attempts lost to injected faults.
    pub retry_s: f64,
    /// Seconds spent serializing checkpoint snapshots (the synchronous
    /// part of periodic checkpointing; the disk drain itself is
    /// asynchronous and hidden behind subsequent compute).
    pub checkpoint_s: f64,
    /// Informational: width of the compute windows that pipelined
    /// (overlapped) collectives had available to hide behind. Not part of
    /// the clock's total — the window itself is already counted as
    /// `compute_s` of the work that filled it.
    pub overlap_s: f64,
    /// Informational: seconds of collective price that were hidden behind
    /// compute by pipelined exchanges and therefore never advanced the
    /// clock. Not part of the clock's total; the *visible*
    /// remainder of an overlapped collective still lands in `comm_s`.
    pub hidden_comm_s: f64,
}

#[cfg(test)]
impl TimeBreakdown {
    /// Total simulated seconds: every bucket but the two informational
    /// ones, so it tracks [`SimClock::now_s`].
    fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s + self.idle_s + self.fault_s + self.retry_s + self.checkpoint_s
    }
}

/// A node-local simulated clock.
///
/// Compute phases are charged explicitly by the code running on the node
/// ([`SimClock::charge_flops`] / [`SimClock::charge_compute_seconds`]); collective
/// phases are charged by the [`crate::Communicator`], which also aligns
/// clocks across nodes (a synchronous collective starts when the *last*
/// participant arrives).
#[derive(Debug, Clone)]
pub struct SimClock {
    now_s: f64,
    breakdown: TimeBreakdown,
    node_flops: f64,
    /// Active fault schedule; `None` preserves the exact pre-fault float
    /// arithmetic on every charge path.
    plan: Option<Arc<FaultPlan>>,
    /// Original (pre-shrink) rank of the node this clock belongs to, used
    /// to look up straggler windows.
    orig_rank: usize,
}

impl SimClock {
    pub fn new(spec: &ClusterSpec) -> Self {
        SimClock {
            now_s: 0.0,
            breakdown: TimeBreakdown::default(),
            node_flops: spec.effective_flops(),
            plan: None,
            orig_rank: 0,
        }
    }

    /// A clock for original rank `orig_rank` subject to `plan`. An inert
    /// plan is dropped so the hot path stays identical to [`SimClock::new`].
    pub fn with_faults(spec: &ClusterSpec, orig_rank: usize, plan: Arc<FaultPlan>) -> Self {
        let mut c = Self::new(spec);
        c.orig_rank = orig_rank;
        if !plan.is_inert() {
            c.plan = Some(plan);
        }
        c
    }

    /// Current simulated time in seconds since the node started.
    #[inline]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Where the time went so far.
    #[inline]
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Charge a local-compute phase of `flops` floating point operations.
    #[inline]
    pub fn charge_flops(&mut self, flops: f64) {
        debug_assert!(flops >= 0.0);
        self.charge_compute_seconds(flops / self.node_flops);
    }

    /// Charge a local-compute phase of a known duration. Under an active
    /// straggler window the healthy duration still lands in `compute_s`;
    /// the slowdown surplus is charged to `fault_s` so fault cost stays
    /// separable in the breakdown.
    #[inline]
    pub fn charge_compute_seconds(&mut self, s: f64) {
        debug_assert!(s >= 0.0 && s.is_finite());
        let start = self.now_s;
        self.now_s += s;
        self.breakdown.compute_s += s;
        if let Some(plan) = &self.plan {
            let mult = plan.compute_slowdown(self.orig_rank, start);
            if mult > 1.0 {
                let extra = s * (mult - 1.0);
                self.now_s += extra;
                self.breakdown.fault_s += extra;
            }
        }
    }

    /// Charge simulated time lost to a fault (straggler surplus, degraded
    /// link surplus, failure-detection timeout). Used by the communicator.
    #[inline]
    pub fn charge_fault_seconds(&mut self, s: f64) {
        debug_assert!(s >= 0.0 && s.is_finite());
        self.now_s += s;
        self.breakdown.fault_s += s;
    }

    /// Charge timeout + backoff time for a retransmission. Used by the
    /// communicator and the p2p layer.
    #[inline]
    pub fn charge_retry_seconds(&mut self, s: f64) {
        debug_assert!(s >= 0.0 && s.is_finite());
        self.now_s += s;
        self.breakdown.retry_s += s;
    }

    /// Charge idle time (waiting for peers). Used by the communicator.
    #[inline]
    pub fn charge_idle_until(&mut self, t: f64) {
        if t > self.now_s {
            self.breakdown.idle_s += t - self.now_s;
            self.now_s = t;
        }
    }

    /// Charge communication time. Used by the communicator.
    #[inline]
    pub fn charge_comm_seconds(&mut self, s: f64) {
        debug_assert!(s >= 0.0 && s.is_finite());
        self.now_s += s;
        self.breakdown.comm_s += s;
    }

    /// Record collective price that was hidden behind already-charged
    /// compute by an overlapped (pipelined) exchange. Pure bookkeeping:
    /// `now_s` does not move — the hidden seconds elapsed *inside* compute
    /// time that is already on the clock.
    #[inline]
    pub fn charge_hidden_comm_seconds(&mut self, s: f64) {
        debug_assert!(s >= 0.0 && s.is_finite());
        self.breakdown.hidden_comm_s += s;
    }

    /// Record the width of an overlap window (compute elapsed between an
    /// overlapped collective's launch and its completion). Pure
    /// bookkeeping: `now_s` does not move.
    #[inline]
    pub fn record_overlap_window_seconds(&mut self, s: f64) {
        debug_assert!(s >= 0.0 && s.is_finite());
        self.breakdown.overlap_s += s;
    }

    /// Charge the synchronous cost of serializing a checkpoint snapshot.
    #[inline]
    pub fn charge_checkpoint_seconds(&mut self, s: f64) {
        debug_assert!(s >= 0.0 && s.is_finite());
        self.now_s += s;
        self.breakdown.checkpoint_s += s;
    }

    /// Restore the clock to a checkpointed position: `now_s` and the full
    /// breakdown are overwritten so a resumed run continues with the exact
    /// simulated-time state the interrupted run had. The hardware/fault
    /// wiring (`node_flops`, plan, rank) is untouched.
    pub fn restore(&mut self, now_s: f64, breakdown: TimeBreakdown) {
        self.now_s = now_s;
        self.breakdown = breakdown;
    }

    /// Reset to t=0 with an empty breakdown (e.g. between epochs when the
    /// caller keeps per-epoch accounts).
    pub fn reset(&mut self) {
        self.now_s = 0.0;
        self.breakdown = TimeBreakdown::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> SimClock {
        SimClock::new(&ClusterSpec::cray_xc40())
    }

    #[test]
    fn starts_at_zero() {
        let c = clock();
        assert_eq!(c.now_s(), 0.0);
        assert_eq!(c.breakdown().total_s(), 0.0);
    }

    #[test]
    fn charges_accumulate_into_breakdown() {
        let mut c = clock();
        c.charge_flops(2.0e9); // exactly one second on the cray spec
        c.charge_comm_seconds(0.5);
        c.charge_idle_until(2.0);
        let b = c.breakdown();
        assert!((b.compute_s - 1.0).abs() < 1e-9);
        assert!((b.comm_s - 0.5).abs() < 1e-12);
        assert!((b.idle_s - 0.5).abs() < 1e-9);
        assert!((c.now_s() - 2.0).abs() < 1e-9);
        assert!((b.total_s() - c.now_s()).abs() < 1e-9);
    }

    #[test]
    fn idle_until_past_time_is_noop() {
        let mut c = clock();
        c.charge_comm_seconds(3.0);
        c.charge_idle_until(1.0);
        assert_eq!(c.now_s(), 3.0);
        assert_eq!(c.breakdown().idle_s, 0.0);
    }

    #[test]
    fn intra_node_speedup_scales_compute_charges() {
        // A measured 4× parallel speedup makes the same flop count cost a
        // quarter of the simulated compute time; the 1.0 default leaves
        // every existing timing untouched.
        let spec = ClusterSpec::cray_xc40().with_intra_node_speedup(4.0);
        let mut c = SimClock::new(&spec);
        c.charge_flops(2.0e9); // one second sequentially on the cray spec
        assert!((c.breakdown().compute_s - 0.25).abs() < 1e-12);
        assert_eq!(spec.effective_flops(), 8.0e9);
        assert!((spec.compute_time(2.0e9) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn straggler_surplus_lands_in_fault_bucket() {
        use crate::fault::{FaultPlan, StragglerWindow};
        let spec = ClusterSpec::cray_xc40();
        let plan = Arc::new(FaultPlan::seeded(1).with_straggler(StragglerWindow {
            rank: 0,
            start_s: 0.0,
            end_s: 10.0,
            slowdown: 3.0,
        }));
        let mut c = SimClock::with_faults(&spec, 0, plan.clone());
        c.charge_compute_seconds(1.0);
        let b = c.breakdown();
        assert!((b.compute_s - 1.0).abs() < 1e-12, "healthy share unchanged");
        assert!((b.fault_s - 2.0).abs() < 1e-12, "surplus charged to fault_s");
        assert!((c.now_s() - 3.0).abs() < 1e-12);

        // A different original rank is unaffected.
        let mut other = SimClock::with_faults(&spec, 1, plan);
        other.charge_compute_seconds(1.0);
        assert_eq!(other.breakdown().fault_s, 0.0);
    }

    #[test]
    fn inert_plan_keeps_clock_identical() {
        use crate::fault::FaultPlan;
        let spec = ClusterSpec::cray_xc40();
        let mut plain = SimClock::new(&spec);
        let mut faulted = SimClock::with_faults(&spec, 0, Arc::new(FaultPlan::none()));
        for c in [&mut plain, &mut faulted] {
            c.charge_flops(3.7e9);
            c.charge_comm_seconds(0.123);
            c.charge_idle_until(5.0);
        }
        assert_eq!(plain.now_s().to_bits(), faulted.now_s().to_bits());
        assert_eq!(plain.breakdown(), faulted.breakdown());
    }

    #[test]
    fn fault_and_retry_buckets_count_toward_total() {
        let mut c = clock();
        c.charge_fault_seconds(0.25);
        c.charge_retry_seconds(0.5);
        let b = c.breakdown();
        assert_eq!(b.fault_s, 0.25);
        assert_eq!(b.retry_s, 0.5);
        assert!((b.total_s() - 0.75).abs() < 1e-12);
        assert!((c.now_s() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overlap_buckets_never_advance_the_clock() {
        let mut c = clock();
        c.charge_comm_seconds(0.5);
        c.charge_hidden_comm_seconds(0.25);
        c.record_overlap_window_seconds(0.4);
        let b = c.breakdown();
        assert_eq!(b.hidden_comm_s, 0.25);
        assert_eq!(b.overlap_s, 0.4);
        // Informational buckets: total_s and now_s only see the visible
        // comm charge.
        assert_eq!(c.now_s(), 0.5);
        assert_eq!(b.total_s(), 0.5);
    }

    #[test]
    fn checkpoint_charges_count_toward_total_and_restore_roundtrips() {
        let mut c = clock();
        c.charge_flops(2.0e9);
        c.charge_checkpoint_seconds(0.5);
        let b = c.breakdown();
        assert_eq!(b.checkpoint_s, 0.5);
        assert!((b.total_s() - c.now_s()).abs() < 1e-9);

        let mut fresh = clock();
        fresh.restore(c.now_s(), b);
        assert_eq!(fresh.now_s().to_bits(), c.now_s().to_bits());
        assert_eq!(fresh.breakdown(), b);
        // The restored clock keeps charging from the restored position.
        fresh.charge_comm_seconds(0.25);
        c.charge_comm_seconds(0.25);
        assert_eq!(fresh.now_s().to_bits(), c.now_s().to_bits());
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = clock();
        c.charge_flops(1e9);
        c.reset();
        assert_eq!(c.now_s(), 0.0);
        assert_eq!(c.breakdown(), TimeBreakdown::default());
    }
}
