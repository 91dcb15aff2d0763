//! Training reports: per-epoch traces and end-of-run summaries.

use crate::comm_select::CommChoice;
use kge_core::EmbeddingTable;
use kge_eval::RankingMetrics;
use simgrid::TimeBreakdown;

/// One epoch's worth of measurements (identical on every node; recorded
/// on rank 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochTrace {
    pub epoch: usize,
    /// Simulated duration of this epoch (seconds).
    pub sim_seconds: f64,
    /// Collective used this epoch.
    pub comm: CommChoice,
    /// Plateau-schedule validation signal after this epoch.
    pub valid_acc: f64,
    /// Mean training loss over the epoch's examples.
    pub train_loss: f64,
    /// LR multiplier in effect during this epoch.
    pub lr_scale: f32,
    /// Mean entity-gradient rows above the zero threshold per batch,
    /// before row selection (the paper's Fig. 2 metric).
    pub mean_nonzero_rows: f64,
    /// Mean entity rows actually communicated per batch (post selection).
    pub mean_rows_sent: f64,
    /// Fraction of rows dropped by row selection (Fig. 3b).
    pub rs_sparsity: f64,
    /// Bytes this node sent through its training traffic this epoch: the
    /// gradient exchanges, plus — when on — the RP relation assembly and
    /// the per-epoch ranking all-reduce (the sharded trainer counts its
    /// pull and push lanes instead of the last two, a parameter-server
    /// rank its point-to-point rounds).
    pub bytes_sent: u64,
    /// Full filtered-ranking metrics, present on epochs where the opt-in
    /// distributed evaluation ran (`TrainConfig::eval_every`).
    pub ranking: Option<RankingMetrics>,
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub dataset: String,
    pub nodes: usize,
    /// Epochs executed (the paper's `N`).
    pub epochs: usize,
    /// Whether the plateau schedule declared convergence (vs epoch cap).
    pub converged: bool,
    /// Total simulated training time in seconds (the paper's `TT`).
    pub sim_total_seconds: f64,
    /// Where rank 0's simulated time went.
    pub breakdown: TimeBreakdown,
    /// Per-epoch measurements.
    pub trace: Vec<EpochTrace>,
    /// Epochs run with each collective (pipelined epochs count toward
    /// their base collective here).
    pub allreduce_epochs: usize,
    pub allgather_epochs: usize,
    /// Of those, epochs whose exchange was pipelined behind compute.
    pub pipelined_epochs: usize,
    /// Nodes still alive at the end of the run (== `nodes` unless a
    /// fault plan crashed ranks mid-training).
    pub surviving_nodes: usize,
    /// Communicator shrink + re-partition cycles performed.
    pub recoveries: usize,
    /// Crashed-then-recovered ranks re-admitted at an epoch boundary
    /// (elastic re-grow cycles).
    pub rejoins: usize,
    /// Periodic checkpoints written by rank 0 over the run.
    pub checkpoints_written: usize,
    /// Original rank ids that crashed, in crash order.
    pub crashed_ranks: Vec<usize>,
    /// Wire-level bytes actually moved by collectives, summed over every
    /// rank that participated (including crashed ranks' pre-crash
    /// traffic). Sent equals received globally — see `simgrid::traffic`.
    pub wire_bytes_sent: u64,
    pub wire_bytes_recv: u64,
    /// Sharded-storage measurements, present when the run used
    /// `TrainConfig::sharded` (partitioned entity storage with a hot
    /// cache); `None` for full-replica runs.
    pub sharded: Option<ShardedReport>,
}

/// Memory and traffic accounting for a sharded-storage run. Byte and
/// touch counters are summed over all ranks; resident sizes are the
/// maximum over ranks (the per-node memory bound is what sharding is
/// for).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardedReport {
    /// Wire bytes of pull requests plus row responses (`ShardPull`).
    pub pull_wire_bytes: u64,
    /// Wire bytes of cold row-gradient pushes to owners (`ShardPush`).
    pub push_wire_bytes: u64,
    /// Cache lookups that found the row resident. A lookup happens only
    /// for rows the hot tier manages (the degree-ranked eligible set);
    /// cold-tier rows go straight to pull/push without consulting the
    /// cache, so they are not lookups.
    pub cache_hits: u64,
    /// Cache lookups: entity-row touches of hot-set rows.
    pub cache_accesses: u64,
    /// All entity-row touches (2 per staged example, duplicates count) —
    /// `cache_accesses / entity_touches` is the hot tier's coverage of
    /// the access stream.
    pub entity_touches: u64,
    /// Largest per-rank resident model bytes: owner arena + hot-cache
    /// values + the (replicated) relation table.
    pub resident_model_bytes: usize,
    /// Full-replica model bytes for the same config — what every rank
    /// would hold without sharding.
    pub replica_model_bytes: usize,
    /// Largest per-rank resident optimizer-state bytes (owner Adam
    /// moments + cache moments + replicated relation moments).
    pub opt_state_bytes: usize,
    /// Hot-cache capacity in rows.
    pub hot_capacity: usize,
    /// Rows eligible for caching (the degree-ranked hot set).
    pub eligible_rows: usize,
    /// Largest per-rank owned-row count.
    pub owned_rows: usize,
    /// Slowest rank's cumulative wall occupancy of the `ShardPull` lane
    /// (request sends + response receives + serving), visible *and*
    /// hidden seconds. Measured from clock deltas around the lane
    /// operations, so recording it never perturbs the clock.
    pub pull_lane_s: f64,
    /// Slowest rank's cumulative `ShardPush` lane occupancy (cold
    /// gradient sends/receives plus deferred settlement).
    pub push_lane_s: f64,
    /// Of `pull_lane_s`, the seconds hidden behind compute by the
    /// prefetch ring.
    pub hidden_pull_s: f64,
    /// Of `push_lane_s`, the seconds hidden behind the next batch's
    /// compute window.
    pub hidden_push_s: f64,
}

impl ShardedReport {
    /// Hot-cache hit rate: the fraction of cache lookups (touches of
    /// hot-set rows) served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_accesses as f64
        }
    }

    /// Per-rank resident model bytes as a fraction of the full replica.
    pub fn resident_fraction(&self) -> f64 {
        if self.replica_model_bytes == 0 {
            0.0
        } else {
            self.resident_model_bytes as f64 / self.replica_model_bytes as f64
        }
    }
}

impl TrainReport {
    /// `TT` in hours, as the paper's tables report it.
    pub fn total_hours(&self) -> f64 {
        self.sim_total_seconds / 3600.0
    }

    /// Mean simulated epoch time in seconds (Fig. 1d's metric).
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.trace.is_empty() {
            0.0
        } else {
            self.sim_total_seconds / self.trace.len() as f64
        }
    }

    /// Fraction of epochs that used all-reduce (the paper notes this
    /// drops ~60% once quantization makes all-gather cheaper).
    pub fn allreduce_fraction(&self) -> f64 {
        let total = self.allreduce_epochs + self.allgather_epochs;
        if total == 0 {
            0.0
        } else {
            self.allreduce_epochs as f64 / total as f64
        }
    }
}

/// Everything a training run produces: the report plus the final model.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    pub report: TrainReport,
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(epoch: usize, secs: f64, comm: CommChoice) -> EpochTrace {
        EpochTrace {
            epoch,
            sim_seconds: secs,
            comm,
            valid_acc: 0.5,
            train_loss: 0.3,
            lr_scale: 1.0,
            mean_nonzero_rows: 10.0,
            mean_rows_sent: 8.0,
            rs_sparsity: 0.2,
            bytes_sent: 1000,
            ranking: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = TrainReport {
            dataset: "d".into(),
            nodes: 4,
            epochs: 2,
            converged: true,
            sim_total_seconds: 7200.0,
            breakdown: TimeBreakdown::default(),
            trace: vec![
                trace(0, 3600.0, CommChoice::AllReduce),
                trace(1, 3600.0, CommChoice::AllGather),
            ],
            allreduce_epochs: 1,
            allgather_epochs: 1,
            pipelined_epochs: 0,
            surviving_nodes: 4,
            recoveries: 0,
            rejoins: 0,
            checkpoints_written: 0,
            crashed_ranks: vec![],
            wire_bytes_sent: 4000,
            wire_bytes_recv: 4000,
            sharded: None,
        };
        assert_eq!(r.total_hours(), 2.0);
        assert_eq!(r.mean_epoch_seconds(), 3600.0);
        assert_eq!(r.allreduce_fraction(), 0.5);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = TrainReport {
            dataset: "d".into(),
            nodes: 1,
            epochs: 0,
            converged: false,
            sim_total_seconds: 0.0,
            breakdown: TimeBreakdown::default(),
            trace: vec![],
            allreduce_epochs: 0,
            allgather_epochs: 0,
            pipelined_epochs: 0,
            surviving_nodes: 1,
            recoveries: 0,
            rejoins: 0,
            checkpoints_written: 0,
            crashed_ranks: vec![],
            wire_bytes_sent: 0,
            wire_bytes_recv: 0,
            sharded: None,
        };
        assert_eq!(r.mean_epoch_seconds(), 0.0);
        assert_eq!(r.allreduce_fraction(), 0.0);
    }
}
