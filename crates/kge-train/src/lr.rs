//! The paper's learning-rate regime (§3.3/§3.4): capped linear scaling
//! plus reduce-on-plateau with convergence detection.

/// What the schedule decided after observing an epoch's validation signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrDecision {
    /// Keep going at the current LR.
    Continue,
    /// LR was decayed this epoch.
    Decayed { new_scale: f32 },
    /// The schedule is exhausted: training has converged.
    Converged,
}

/// Serializable image of a [`PlateauSchedule`]'s full state, produced by
/// [`PlateauSchedule::snapshot`] and consumed by [`PlateauSchedule::restore`].
/// Counters are widened to `u64` so the checkpoint byte format is
/// pointer-width independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateauSnapshot {
    pub node_scale: f32,
    pub decay_scale: f32,
    pub decay: f32,
    pub tolerance: u64,
    pub max_drops: u64,
    pub drops: u64,
    pub best: f64,
    pub since_best: u64,
    pub converged: bool,
}

/// Reduce-on-plateau schedule.
///
/// The effective learning rate is `base_lr × node_scale × decay_scale`
/// where `node_scale = min(cap, p)` (the paper's capped linear scaling)
/// and `decay_scale` shrinks by `decay` whenever the validation metric
/// fails to improve for `tolerance` consecutive epochs. After
/// `max_drops` decays, the next plateau declares convergence.
#[derive(Debug, Clone)]
pub struct PlateauSchedule {
    node_scale: f32,
    decay_scale: f32,
    decay: f32,
    tolerance: usize,
    max_drops: usize,
    drops: usize,
    best: f64,
    since_best: usize,
    converged: bool,
}

impl PlateauSchedule {
    /// `p` is the node count; `cap` the paper's scaling cap (4).
    pub fn new(p: usize, cap: f32, decay: f32, tolerance: usize, max_drops: usize) -> Self {
        assert!(p >= 1);
        assert!((0.0..1.0).contains(&decay));
        assert!(tolerance >= 1);
        PlateauSchedule {
            node_scale: (p as f32).min(cap),
            decay_scale: 1.0,
            decay,
            tolerance,
            max_drops,
            drops: 0,
            best: f64::NEG_INFINITY,
            since_best: 0,
            converged: false,
        }
    }

    /// Multiplier applied to the base learning rate this epoch.
    pub fn lr_scale(&self) -> f32 {
        self.node_scale * self.decay_scale
    }

    /// Has the schedule declared convergence?
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of LR decays so far.
    pub fn drops(&self) -> usize {
        self.drops
    }

    /// Capture the schedule's complete state for checkpointing.
    pub fn snapshot(&self) -> PlateauSnapshot {
        PlateauSnapshot {
            node_scale: self.node_scale,
            decay_scale: self.decay_scale,
            decay: self.decay,
            tolerance: self.tolerance as u64,
            max_drops: self.max_drops as u64,
            drops: self.drops as u64,
            best: self.best,
            since_best: self.since_best as u64,
            converged: self.converged,
        }
    }

    /// Rebuild a schedule from a [`PlateauSchedule::snapshot`]; the restored
    /// schedule continues exactly where the captured one stopped.
    pub fn restore(snap: &PlateauSnapshot) -> Self {
        PlateauSchedule {
            node_scale: snap.node_scale,
            decay_scale: snap.decay_scale,
            decay: snap.decay,
            tolerance: snap.tolerance as usize,
            max_drops: snap.max_drops as usize,
            drops: snap.drops as usize,
            best: snap.best,
            since_best: snap.since_best as usize,
            converged: snap.converged,
        }
    }

    /// Feed this epoch's validation metric (higher = better).
    pub fn observe(&mut self, metric: f64) -> LrDecision {
        if self.converged {
            return LrDecision::Converged;
        }
        if metric > self.best {
            self.best = metric;
            self.since_best = 0;
            return LrDecision::Continue;
        }
        self.since_best += 1;
        if self.since_best >= self.tolerance {
            self.since_best = 0;
            if self.drops >= self.max_drops {
                self.converged = true;
                return LrDecision::Converged;
            }
            self.drops += 1;
            self.decay_scale *= self.decay;
            return LrDecision::Decayed {
                new_scale: self.lr_scale(),
            };
        }
        LrDecision::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_scale_is_capped() {
        assert_eq!(PlateauSchedule::new(1, 4.0, 0.1, 15, 2).lr_scale(), 1.0);
        assert_eq!(PlateauSchedule::new(2, 4.0, 0.1, 15, 2).lr_scale(), 2.0);
        assert_eq!(PlateauSchedule::new(16, 4.0, 0.1, 15, 2).lr_scale(), 4.0);
    }

    #[test]
    fn improvement_resets_patience() {
        let mut s = PlateauSchedule::new(1, 4.0, 0.1, 3, 2);
        assert_eq!(s.observe(0.5), LrDecision::Continue);
        assert_eq!(s.observe(0.4), LrDecision::Continue);
        assert_eq!(s.observe(0.6), LrDecision::Continue); // new best
        assert_eq!(s.observe(0.5), LrDecision::Continue);
        assert_eq!(s.observe(0.5), LrDecision::Continue);
        // Third stale epoch triggers the decay.
        match s.observe(0.5) {
            LrDecision::Decayed { new_scale } => assert!((new_scale - 0.1).abs() < 1e-6),
            d => panic!("expected decay, got {d:?}"),
        }
    }

    #[test]
    fn converges_after_max_drops_plus_plateau() {
        let mut s = PlateauSchedule::new(1, 4.0, 0.1, 2, 1);
        s.observe(1.0);
        // plateau 1 → drop
        s.observe(0.9);
        assert!(matches!(s.observe(0.9), LrDecision::Decayed { .. }));
        // plateau 2 → converged (max_drops = 1 exhausted)
        s.observe(0.9);
        assert_eq!(s.observe(0.9), LrDecision::Converged);
        assert!(s.converged());
        // Further observations keep reporting convergence.
        assert_eq!(s.observe(5.0), LrDecision::Converged);
    }

    #[test]
    fn decay_compounds() {
        let mut s = PlateauSchedule::new(4, 4.0, 0.5, 1, 3);
        s.observe(1.0);
        s.observe(0.0);
        assert!((s.lr_scale() - 2.0).abs() < 1e-6); // 4 × 0.5
        s.observe(0.0);
        assert!((s.lr_scale() - 1.0).abs() < 1e-6);
        assert_eq!(s.drops(), 2);
        assert_eq!(s.best, 1.0);
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let mut s = PlateauSchedule::new(3, 4.0, 0.5, 2, 2);
        for m in [0.1, 0.5, 0.4, 0.4, 0.45] {
            s.observe(m);
        }
        let mut r = PlateauSchedule::restore(&s.snapshot());
        assert_eq!(r.lr_scale().to_bits(), s.lr_scale().to_bits());
        for m in [0.44, 0.44, 0.43, 0.43, 0.42] {
            assert_eq!(r.observe(m), s.observe(m));
            assert_eq!(r.lr_scale().to_bits(), s.lr_scale().to_bits());
            assert_eq!(r.converged(), s.converged());
        }
    }

    #[test]
    fn monotonically_improving_never_decays() {
        let mut s = PlateauSchedule::new(2, 4.0, 0.1, 2, 2);
        for i in 0..100 {
            assert_eq!(s.observe(i as f64), LrDecision::Continue);
        }
        assert_eq!(s.lr_scale(), 2.0);
        assert!(!s.converged());
    }
}
