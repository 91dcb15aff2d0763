//! §4.1 — Dynamic selection between gradient-exchange strategies.
//!
//! The paper starts training with all-reduce. Every `k`-th epoch (k = 10)
//! it probes the alternative collectives and compares the measured epoch
//! times; if a probe was faster than the last all-reduce epoch, it
//! switches to the winning arm for the rest of training, otherwise it
//! stays on all-reduce. (Fig. 2's observation that the number of non-zero
//! gradient rows shrinks as training converges is what makes the later
//! switch profitable.)
//!
//! Beyond the paper's two arms, the selector also considers the
//! *pipelined* variants of both collectives (communication overlapped
//! with the next batch's compute, staleness window 1), so DRS decides not
//! just which collective to run but **when** — synchronously or
//! overlapped. A probe round costs two epochs: one times the synchronous
//! all-gather, the next times the pipelined variant of whichever base
//! collective has been faster so far.
//!
//! The selector is a small state machine fed one epoch-time observation
//! per epoch; it is deterministic and identical on every node because the
//! simulated epoch times are identical on every node. After the world
//! changes (a crash shrank the communicator), [`DynamicCommSelector::reset`]
//! discards all timings so every arm is re-timed at the new world size.

use serde::{Deserialize, Serialize};

/// Which exchange an epoch should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommChoice {
    AllReduce,
    AllGather,
    /// Dense all-reduce overlapped with the next batch's compute.
    PipelinedAllReduce,
    /// Sparse all-gather overlapped with the next batch's compute.
    PipelinedAllGather,
}

impl CommChoice {
    /// The underlying collective (pipelining changes *when* the exchange
    /// runs, not *what* moves on the wire).
    #[inline]
    pub fn base(self) -> CommChoice {
        match self {
            CommChoice::AllReduce | CommChoice::PipelinedAllReduce => CommChoice::AllReduce,
            CommChoice::AllGather | CommChoice::PipelinedAllGather => CommChoice::AllGather,
        }
    }

    /// Whether this arm overlaps the exchange with compute.
    #[inline]
    pub fn is_pipelined(self) -> bool {
        matches!(
            self,
            CommChoice::PipelinedAllReduce | CommChoice::PipelinedAllGather
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Running all-reduce; `last_allreduce_time` remembered for comparison.
    Reduce,
    /// First probe epoch of a round: timing the synchronous all-gather.
    ProbingGather,
    /// Second probe epoch: timing the pipelined variant of whichever base
    /// collective has been faster so far. Probing the loser's pipelined
    /// variant too would waste an epoch (and, early in training, a dense
    /// all-reduce-sized payload) on an arm whose synchronous form already
    /// lost: pipelining hides an exchange behind compute but never shrinks
    /// what it moves, so the cheaper base is also the better overlap bet.
    ProbingPipelined { arm: CommChoice },
    /// Switched permanently to the given arm.
    Committed(CommChoice),
}

/// Serializable image of a [`DynamicCommSelector`], produced by
/// [`DynamicCommSelector::snapshot`]. `state` is a small tag (0 = reduce,
/// 1 = probing gather, 2 = probing pipelined, 3 = committed); `arm` is
/// meaningful for tags 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectorSnapshot {
    pub state: u8,
    pub arm: CommChoice,
    pub check_every: u64,
    pub epoch: u64,
    pub last_allreduce_time: Option<f64>,
    pub gather_time: f64,
}

/// The DRS state machine.
#[derive(Debug, Clone)]
pub struct DynamicCommSelector {
    state: State,
    check_every: usize,
    epoch: usize,
    last_allreduce_time: Option<f64>,
    gather_time: f64,
}

impl DynamicCommSelector {
    pub fn new(check_every: usize) -> Self {
        assert!(check_every >= 1);
        DynamicCommSelector {
            state: State::Reduce,
            check_every,
            epoch: 0,
            last_allreduce_time: None,
            gather_time: f64::INFINITY,
        }
    }

    /// Collective to use for the upcoming epoch.
    pub fn choice(&self) -> CommChoice {
        match self.state {
            State::Reduce => CommChoice::AllReduce,
            State::ProbingGather => CommChoice::AllGather,
            State::ProbingPipelined { arm } => arm,
            State::Committed(c) => c,
        }
    }

    /// True while the permanent switch has not happened.
    pub fn still_dynamic(&self) -> bool {
        !matches!(self.state, State::Committed(_))
    }

    /// Forget the timing history and return to the all-reduce state.
    /// Called after the communicator shrinks (a rank crashed): the epoch
    /// times the selector compared were measured at the old world size, so
    /// DRS re-times every arm from scratch at the new one.
    pub fn reset(&mut self) {
        self.state = State::Reduce;
        self.last_allreduce_time = None;
        self.gather_time = f64::INFINITY;
    }

    /// Capture the selector's complete state for checkpointing / rank
    /// rejoin. Restoring the snapshot on another selector makes its future
    /// decisions identical to this one's.
    pub fn snapshot(&self) -> SelectorSnapshot {
        let (state, arm) = match self.state {
            State::Reduce => (0, CommChoice::AllReduce),
            State::ProbingGather => (1, CommChoice::AllReduce),
            State::ProbingPipelined { arm } => (2, arm),
            State::Committed(c) => (3, c),
        };
        SelectorSnapshot {
            state,
            arm,
            check_every: self.check_every as u64,
            epoch: self.epoch as u64,
            last_allreduce_time: self.last_allreduce_time,
            gather_time: self.gather_time,
        }
    }

    /// Rebuild a selector from a [`DynamicCommSelector::snapshot`].
    pub fn restore(snap: &SelectorSnapshot) -> Result<Self, String> {
        let state = match snap.state {
            0 => State::Reduce,
            1 => State::ProbingGather,
            2 => State::ProbingPipelined { arm: snap.arm },
            3 => State::Committed(snap.arm),
            other => return Err(format!("unknown selector state tag {other}")),
        };
        if snap.check_every == 0 {
            return Err("selector snapshot has check_every == 0".into());
        }
        Ok(DynamicCommSelector {
            state,
            check_every: snap.check_every as usize,
            epoch: snap.epoch as usize,
            last_allreduce_time: snap.last_allreduce_time,
            gather_time: snap.gather_time,
        })
    }

    /// Report the epoch that just finished and its (simulated) duration.
    pub fn observe_epoch(&mut self, epoch_time_s: f64) {
        self.epoch += 1;
        match self.state {
            State::Reduce => {
                self.last_allreduce_time = Some(epoch_time_s);
                if self.epoch.is_multiple_of(self.check_every) {
                    self.state = State::ProbingGather;
                }
            }
            State::ProbingGather => {
                self.gather_time = epoch_time_s;
                let prev = self
                    .last_allreduce_time
                    .expect("probes always follow an all-reduce epoch");
                let arm = if epoch_time_s < prev {
                    CommChoice::PipelinedAllGather
                } else {
                    CommChoice::PipelinedAllReduce
                };
                self.state = State::ProbingPipelined { arm };
            }
            State::ProbingPipelined { arm } => {
                // Commit to the fastest probe iff it beats the most recent
                // all-reduce epoch. Ties resolve to the earlier probe —
                // deterministic on every rank because the compared times
                // are identical simulated epoch durations.
                let prev = self
                    .last_allreduce_time
                    .expect("probes always follow an all-reduce epoch");
                let (best, best_t) = if self.gather_time <= epoch_time_s {
                    (CommChoice::AllGather, self.gather_time)
                } else {
                    (arm, epoch_time_s)
                };
                if best_t < prev {
                    self.state = State::Committed(best);
                } else {
                    self.state = State::Reduce;
                }
            }
            State::Committed(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one full probe round: `gather_t` for the all-gather epoch,
    /// then `pipelined_t` for the adaptive pipelined epoch.
    fn run_probe_round(s: &mut DynamicCommSelector, gather_t: f64, pipelined_t: f64) {
        assert_eq!(s.choice(), CommChoice::AllGather);
        s.observe_epoch(gather_t);
        assert!(s.choice().is_pipelined(), "second probe is pipelined");
        s.observe_epoch(pipelined_t);
    }

    #[test]
    fn starts_with_allreduce() {
        let s = DynamicCommSelector::new(10);
        assert_eq!(s.choice(), CommChoice::AllReduce);
        assert!(s.still_dynamic());
    }

    #[test]
    fn base_and_is_pipelined() {
        assert_eq!(CommChoice::PipelinedAllReduce.base(), CommChoice::AllReduce);
        assert_eq!(CommChoice::PipelinedAllGather.base(), CommChoice::AllGather);
        assert_eq!(CommChoice::AllReduce.base(), CommChoice::AllReduce);
        assert_eq!(CommChoice::AllGather.base(), CommChoice::AllGather);
        assert!(CommChoice::PipelinedAllGather.is_pipelined());
        assert!(!CommChoice::AllGather.is_pipelined());
    }

    #[test]
    fn probes_every_kth_epoch_adaptively() {
        let mut s = DynamicCommSelector::new(3);
        s.observe_epoch(1.0);
        assert_eq!(s.choice(), CommChoice::AllReduce);
        s.observe_epoch(1.0);
        assert_eq!(s.choice(), CommChoice::AllReduce);
        s.observe_epoch(1.0); // epoch 3 done → probes start
        assert_eq!(s.choice(), CommChoice::AllGather);
        // Gather slower than all-reduce → the pipelined probe backs the
        // all-reduce base.
        s.observe_epoch(2.0);
        assert_eq!(s.choice(), CommChoice::PipelinedAllReduce);
        s.observe_epoch(2.0);
        assert!(s.still_dynamic());
        assert_eq!(s.choice(), CommChoice::AllReduce);
    }

    #[test]
    fn faster_gather_gets_its_pipelined_variant_probed() {
        let mut s = DynamicCommSelector::new(1);
        s.observe_epoch(1.0); // AR baseline → probe next
        assert_eq!(s.choice(), CommChoice::AllGather);
        s.observe_epoch(0.9); // gather beats the baseline
        assert_eq!(s.choice(), CommChoice::PipelinedAllGather);
    }

    #[test]
    fn commits_to_fastest_winning_arm() {
        let mut s = DynamicCommSelector::new(1);
        s.observe_epoch(1.0); // AR baseline → probe next
        run_probe_round(&mut s, 0.9, 0.5);
        assert_eq!(s.choice(), CommChoice::PipelinedAllGather);
        assert!(!s.still_dynamic());
        // Slower epochs later don't flip it back.
        s.observe_epoch(100.0);
        assert_eq!(s.choice(), CommChoice::PipelinedAllGather);
    }

    #[test]
    fn reverts_when_no_probe_wins_then_probes_again() {
        let mut s = DynamicCommSelector::new(2);
        s.observe_epoch(1.0);
        s.observe_epoch(1.0); // epoch 2 → probes
        run_probe_round(&mut s, 2.0, 3.0);
        assert_eq!(s.choice(), CommChoice::AllReduce);
        assert!(s.still_dynamic());
        // Two more all-reduce epochs land on a multiple of 2 → probe again.
        s.observe_epoch(1.0);
        assert_eq!(s.choice(), CommChoice::AllReduce);
        s.observe_epoch(1.0);
        assert_eq!(s.choice(), CommChoice::AllGather);
    }

    #[test]
    fn ties_resolve_to_earlier_probe() {
        let mut s = DynamicCommSelector::new(1);
        s.observe_epoch(1.0);
        run_probe_round(&mut s, 0.5, 0.5);
        assert_eq!(s.choice(), CommChoice::AllGather);
    }

    #[test]
    fn reset_returns_to_allreduce_even_after_permanent_switch() {
        let mut s = DynamicCommSelector::new(2);
        s.observe_epoch(1.0);
        s.observe_epoch(1.0); // → probes
        run_probe_round(&mut s, 0.5, 0.8);
        assert!(!s.still_dynamic());
        assert_eq!(s.choice(), CommChoice::AllGather);
        s.reset();
        assert_eq!(s.choice(), CommChoice::AllReduce);
        assert!(s.still_dynamic());
        // The stale timings are gone: the next probe round compares
        // against a measurement taken after the reset. The epoch counter
        // kept running (it's at 4), so two more all-reduce epochs land on
        // a multiple of `check_every` and trigger probes.
        s.observe_epoch(2.0);
        s.observe_epoch(2.0);
        run_probe_round(&mut s, 3.0, 3.5); // all slower → revert
        assert_eq!(s.choice(), CommChoice::AllReduce);
        assert!(s.still_dynamic());
    }

    #[test]
    fn snapshot_restore_mid_probe_decides_identically() {
        // Snapshot in every reachable state and check the restored selector
        // tracks the original decision-for-decision.
        let timings = [1.0, 0.9, 0.5, 0.7, 1.3, 0.2];
        let mut s = DynamicCommSelector::new(2);
        for &t in &timings {
            let mut r = DynamicCommSelector::restore(&s.snapshot()).unwrap();
            let mut orig = s.clone();
            assert_eq!(r.choice(), orig.choice());
            assert_eq!(r.still_dynamic(), orig.still_dynamic());
            for &t2 in &timings {
                r.observe_epoch(t2);
                orig.observe_epoch(t2);
                assert_eq!(r.choice(), orig.choice());
                assert_eq!(r.still_dynamic(), orig.still_dynamic());
            }
            s.observe_epoch(t);
        }
        assert!(DynamicCommSelector::restore(&SelectorSnapshot {
            state: 9,
            arm: CommChoice::AllReduce,
            check_every: 2,
            epoch: 0,
            last_allreduce_time: None,
            gather_time: f64::INFINITY,
        })
        .is_err());
    }

    #[test]
    fn shrinking_gather_times_eventually_win() {
        // Simulate Fig. 2: all-gather gets cheaper as rows sparsify.
        let mut s = DynamicCommSelector::new(5);
        let mut gather_time = 2.0;
        let mut switched_at = None;
        for epoch in 0..200 {
            let t = match s.choice() {
                CommChoice::AllReduce => 1.0,
                CommChoice::AllGather => gather_time,
                // Pipelined arms hide some comm but stay above gather here.
                CommChoice::PipelinedAllReduce => 1.0,
                CommChoice::PipelinedAllGather => gather_time * 1.01,
            };
            s.observe_epoch(t);
            gather_time *= 0.9;
            if !s.still_dynamic() && switched_at.is_none() {
                switched_at = Some(epoch);
            }
        }
        assert!(switched_at.is_some(), "must eventually switch");
        assert!(s.choice() != CommChoice::AllReduce);
    }

    #[test]
    fn pipelined_arm_wins_on_comm_bound_timings() {
        // Comm-bound: all-gather slightly beats all-reduce synchronously,
        // and pipelining hides most of the remaining comm.
        let mut s = DynamicCommSelector::new(1);
        s.observe_epoch(2.0);
        run_probe_round(&mut s, 1.9, 1.1);
        assert_eq!(s.choice(), CommChoice::PipelinedAllGather);
        assert!(!s.still_dynamic());
    }

    #[test]
    fn comm_bound_allreduce_regime_probes_pipelined_allreduce() {
        // Gather loses synchronously (dense rows), but overlapping the
        // all-reduce behind compute wins → commit PipelinedAllReduce.
        let mut s = DynamicCommSelector::new(1);
        s.observe_epoch(2.0);
        assert_eq!(s.choice(), CommChoice::AllGather);
        s.observe_epoch(2.5); // gather slower → back the all-reduce base
        assert_eq!(s.choice(), CommChoice::PipelinedAllReduce);
        s.observe_epoch(1.2);
        assert_eq!(s.choice(), CommChoice::PipelinedAllReduce);
        assert!(!s.still_dynamic());
    }
}
