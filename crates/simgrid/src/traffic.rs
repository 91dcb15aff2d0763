//! Per-rank accounting of communication traffic.

use crate::cost::Collective;
use std::collections::BTreeMap;

/// Mutable per-rank traffic counters, updated by the communicator.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    entries: BTreeMap<Collective, Counter>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Counter {
    ops: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    /// Bytes this rank put on the wire: payload actually transmitted to
    /// other ranks, excluding its own contribution to results it keeps.
    /// Unlike `bytes_sent`/`bytes_recv` (which describe the logical
    /// payload of the call), wire counters satisfy exact conservation:
    /// summed over all ranks, `wire_sent == wire_recv`.
    wire_sent: u64,
    /// Bytes delivered to this rank over the wire from other ranks.
    wire_recv: u64,
    /// Retransmission attempts absorbed by the retry policy.
    retries: u64,
}

impl TrafficStats {
    /// Record one collective in which this rank contributed `sent` bytes
    /// and received `recv` bytes.
    pub fn record(&mut self, op: Collective, sent: usize, recv: usize) {
        let c = self.entries.entry(op).or_default();
        c.ops += 1;
        c.bytes_sent += sent as u64;
        c.bytes_recv += recv as u64;
    }

    /// Record the wire traffic of one operation: `out` bytes transmitted
    /// to peers, `in_` bytes delivered from peers. Single-rank fast paths
    /// record zero wire bytes.
    pub fn record_wire(&mut self, op: Collective, out: usize, in_: usize) {
        let c = self.entries.entry(op).or_default();
        c.wire_sent += out as u64;
        c.wire_recv += in_ as u64;
    }

    /// Record `n` retransmission attempts charged to `op` by the fault
    /// retry policy.
    pub fn record_retries(&mut self, op: Collective, n: u64) {
        self.entries.entry(op).or_default().retries += n;
    }

    /// Immutable snapshot for reporting.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            entries: self.entries.clone(),
        }
    }

    /// Reset all counters (e.g. at an epoch boundary).
    pub fn reset(&mut self) {
        self.entries.clear();
    }

    /// Export every counter as `(op, [ops, bytes_sent, bytes_recv,
    /// wire_sent, wire_recv, retries])` in `Collective` order, appending to
    /// `out` (cleared first). Checkpointing serializes this flat form.
    pub fn export_into(&self, out: &mut Vec<(Collective, [u64; 6])>) {
        out.clear();
        for (&op, c) in &self.entries {
            out.push((
                op,
                [
                    c.ops,
                    c.bytes_sent,
                    c.bytes_recv,
                    c.wire_sent,
                    c.wire_recv,
                    c.retries,
                ],
            ));
        }
    }

    /// Overwrite all counters from an [`TrafficStats::export_into`] image;
    /// a resumed rank continues accumulating from the restored totals.
    pub fn import(&mut self, entries: &[(Collective, [u64; 6])]) {
        self.entries.clear();
        for &(op, [ops, bytes_sent, bytes_recv, wire_sent, wire_recv, retries]) in entries {
            self.entries.insert(
                op,
                Counter {
                    ops,
                    bytes_sent,
                    bytes_recv,
                    wire_sent,
                    wire_recv,
                    retries,
                },
            );
        }
    }
}

/// Immutable snapshot of [`TrafficStats`].
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    entries: BTreeMap<Collective, Counter>,
}

impl TrafficReport {
    /// Number of collectives of kind `op` this rank took part in.
    pub fn ops(&self, op: Collective) -> u64 {
        self.entries.get(&op).map_or(0, |c| c.ops)
    }

    /// Bytes this rank contributed to collectives of kind `op`.
    pub fn bytes_sent(&self, op: Collective) -> u64 {
        self.entries.get(&op).map_or(0, |c| c.bytes_sent)
    }

    /// Bytes this rank received from collectives of kind `op`.
    pub fn bytes_recv(&self, op: Collective) -> u64 {
        self.entries.get(&op).map_or(0, |c| c.bytes_recv)
    }

    /// Bytes this rank transmitted over the wire in collectives of kind
    /// `op` (conservation-exact; see [`TrafficStats::record_wire`]).
    pub fn wire_sent(&self, op: Collective) -> u64 {
        self.entries.get(&op).map_or(0, |c| c.wire_sent)
    }

    /// Bytes delivered to this rank over the wire in collectives of kind
    /// `op`.
    pub fn wire_recv(&self, op: Collective) -> u64 {
        self.entries.get(&op).map_or(0, |c| c.wire_recv)
    }

    /// Retransmission attempts charged to `op`.
    pub fn retries(&self, op: Collective) -> u64 {
        self.entries.get(&op).map_or(0, |c| c.retries)
    }

    /// Total wire bytes transmitted across all ops. Across all ranks of a
    /// run, `Σ total_wire_sent == Σ total_wire_recv` exactly.
    pub fn total_wire_sent(&self) -> u64 {
        self.entries.values().map(|c| c.wire_sent).sum()
    }

    /// Total wire bytes delivered across all ops.
    pub fn total_wire_recv(&self) -> u64 {
        self.entries.values().map(|c| c.wire_recv).sum()
    }

    /// Total retransmission attempts across all ops.
    pub fn total_retries(&self) -> u64 {
        self.entries.values().map(|c| c.retries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut t = TrafficStats::default();
        t.record(Collective::AllReduce, 100, 100);
        t.record(Collective::AllReduce, 50, 50);
        t.record(Collective::AllGatherV, 10, 40);
        let r = t.report();
        assert_eq!(r.ops(Collective::AllReduce), 2);
        assert_eq!(r.bytes_sent(Collective::AllReduce), 150);
        assert_eq!(r.bytes_recv(Collective::AllGatherV), 40);
        assert_eq!(r.bytes_recv(Collective::AllReduce), 150);
        assert_eq!(r.bytes_sent(Collective::AllGatherV), 10);
    }

    #[test]
    fn unknown_ops_report_zero() {
        let r = TrafficStats::default().report();
        assert_eq!(r.ops(Collective::ShardPull), 0);
        assert_eq!(r.bytes_sent(Collective::ShardPull), 0);
        assert_eq!(r.bytes_recv(Collective::ShardPull), 0);
    }

    #[test]
    fn reset_clears_counters() {
        let mut t = TrafficStats::default();
        t.record(Collective::Barrier, 0, 0);
        t.reset();
        assert_eq!(t.report().ops(Collective::Barrier), 0);
    }

    #[test]
    fn export_import_roundtrips_every_counter() {
        let mut t = TrafficStats::default();
        t.record(Collective::AllReduce, 100, 200);
        t.record_wire(Collective::AllReduce, 75, 80);
        t.record_retries(Collective::AllReduce, 3);
        t.record(Collective::AllGatherV, 10, 40);
        t.record_wire(Collective::PointToPoint, 5, 0);

        let mut image = Vec::new();
        t.export_into(&mut image);
        let mut u = TrafficStats::default();
        u.record(Collective::ShardPush, 9, 9); // overwritten by import
        u.import(&image);

        let (a, b) = (t.report(), u.report());
        for op in [
            Collective::AllReduce,
            Collective::AllGatherV,
            Collective::Barrier,
            Collective::PointToPoint,
            Collective::ShardPull,
            Collective::ShardPush,
        ] {
            assert_eq!(a.ops(op), b.ops(op));
            assert_eq!(a.bytes_sent(op), b.bytes_sent(op));
            assert_eq!(a.bytes_recv(op), b.bytes_recv(op));
            assert_eq!(a.wire_sent(op), b.wire_sent(op));
            assert_eq!(a.wire_recv(op), b.wire_recv(op));
            assert_eq!(a.retries(op), b.retries(op));
        }
        // Importing restores totals that keep accumulating.
        u.record(Collective::AllReduce, 1, 1);
        assert_eq!(u.report().ops(Collective::AllReduce), 2);
    }

    #[test]
    fn wire_and_retry_counters_accumulate_independently() {
        let mut t = TrafficStats::default();
        t.record(Collective::AllReduce, 100, 100);
        t.record_wire(Collective::AllReduce, 75, 75);
        t.record_wire(Collective::AllReduce, 25, 30);
        t.record_retries(Collective::AllReduce, 2);
        t.record_retries(Collective::PointToPoint, 1);
        let r = t.report();
        assert_eq!(r.wire_sent(Collective::AllReduce), 100);
        assert_eq!(r.wire_recv(Collective::AllReduce), 105);
        assert_eq!(r.retries(Collective::AllReduce), 2);
        assert_eq!(r.retries(Collective::PointToPoint), 1);
        assert_eq!(r.total_wire_sent(), 100);
        assert_eq!(r.total_wire_recv(), 105);
        assert_eq!(r.total_retries(), 3);
        // Logical payload counters are untouched by wire records.
        assert_eq!(r.bytes_sent(Collective::AllReduce), 100);
    }
}
