//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] describes everything that goes wrong during a run:
//! straggler windows (a rank's compute slows down for a stretch of
//! simulated time), link degradation (latency/bandwidth multipliers over a
//! window), transient message loss on both p2p sends and collectives
//! (absorbed by bounded retry with exponential backoff, charged to the sim
//! clock), and hard rank crashes (detected at the next data collective and
//! surfaced as [`crate::SimError::RankCrashed`]).
//!
//! Every stochastic decision — whether the `n`-th message from `src` to
//! `dst` is dropped, whether the `k`-th collective needs a retry — is a
//! pure function of the plan's seed and the event's *structural
//! coordinates*, hashed through SplitMix64. No mutable RNG state is shared
//! between threads, so a seeded plan is bit-reproducible across repeated
//! invocations, host thread interleavings, and worker-pool sizes.
//!
//! [`FaultPlan::none()`] is inert: every hook takes an early return and the
//! simulation is bit-identical to one built without a plan at all (the
//! `fault_free_plan_is_bitwise_inert` tests pin this down).

/// SplitMix64 finalizer: the mixing function behind every fault decision.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A small deterministic stream over SplitMix64, used by the random plan
/// generator ([`FaultPlan::chaos`]).
#[derive(Debug, Clone)]
pub struct SplitMix64Stream {
    state: u64,
}

impl SplitMix64Stream {
    pub fn new(seed: u64) -> Self {
        SplitMix64Stream { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

/// Mix a tagged tuple of coordinates into one decision value. Sequential
/// mixing (like the trainer's chunk seeds) keeps streams independent.
#[inline]
fn mix_coords(seed: u64, tag: u64, coords: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ tag);
    for &c in coords {
        h = splitmix64(h ^ c);
    }
    h
}

/// Decide with probability `p` from a hashed coordinate value.
#[inline]
fn hashed_bernoulli(h: u64, p: f64) -> bool {
    ((h >> 11) as f64 / (1u64 << 53) as f64) < p
}

const TAG_P2P: u64 = 0x7032_7000;
const TAG_COLLECTIVE: u64 = 0xC0_11EC;

/// One rank computes slower over a window of simulated time (a straggler:
/// thermal throttling, a noisy neighbour, a failing DIMM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerWindow {
    /// Original (pre-shrink) rank id.
    pub rank: usize,
    /// Window start, simulated seconds.
    pub start_s: f64,
    /// Window end, simulated seconds.
    pub end_s: f64,
    /// Compute-time multiplier while active (≥ 1).
    pub slowdown: f64,
}

/// The interconnect degrades over a window of simulated time (congestion,
/// a flapping switch, an adaptive-routing storm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    pub start_s: f64,
    pub end_s: f64,
    /// Latency multiplier while active (≥ 1).
    pub latency_mult: f64,
    /// Bandwidth *divisor* while active (≥ 1): effective bandwidth is
    /// `bandwidth_bps / bandwidth_div`.
    pub bandwidth_div: f64,
}

/// A hard rank failure at a point in simulated time. Detected at the
/// first data collective where the crashed rank's deposited clock has
/// passed `at_s`; all participants then see
/// [`crate::SimError::RankCrashed`]. If `recover_at_s` is set the node
/// comes back up at that simulated time and may rejoin the world at the
/// next epoch boundary the survivors reach after it (the elastic re-grow
/// path); `None` means the failure is permanent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankCrash {
    /// Original (pre-shrink) rank id.
    pub rank: usize,
    /// Simulated time of death.
    pub at_s: f64,
    /// Simulated time the node is healthy again, if it ever is.
    pub recover_at_s: Option<f64>,
}

/// Timeout + bounded-retry semantics for lost messages and failure
/// detection. Retry `i` (0-based) waits `timeout_s + backoff_base_s ×
/// backoff_factor^i` of simulated time before retransmitting; after
/// `max_retries` failed retries the operation surfaces
/// [`crate::SimError::Timeout`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    pub max_retries: u32,
    /// Seconds waited before concluding an attempt was lost (also the
    /// failure-detector timeout charged when a crashed peer is detected).
    pub timeout_s: f64,
    pub backoff_base_s: f64,
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            timeout_s: 0.1,
            backoff_base_s: 0.05,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated seconds spent discovering and backing off from the
    /// `i`-th (0-based) failed attempt.
    #[inline]
    pub fn retry_cost_s(&self, i: u32) -> f64 {
        self.timeout_s + self.backoff_base_s * self.backoff_factor.powi(i as i32)
    }
}

/// A complete, seeded schedule of faults for one simulated run.
///
/// Attach to a cluster with [`crate::Cluster::with_fault_plan`]. Ranks in
/// the plan are **original** rank ids: they keep addressing the same
/// logical node even after a crash shrinks the communicator.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the SplitMix64 decision streams.
    pub seed: u64,
    pub stragglers: Vec<StragglerWindow>,
    pub links: Vec<LinkDegradation>,
    pub crashes: Vec<RankCrash>,
    /// Probability that any single p2p transmission attempt is lost.
    pub p2p_drop_prob: f64,
    /// Probability that any single collective attempt times out and must
    /// be retried (models a lost rendezvous/ACK inside the collective).
    pub collective_drop_prob: f64,
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The inert plan: no faults, and every injection hook short-circuits
    /// so simulation results are bit-identical to a plan-free run.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            stragglers: Vec::new(),
            links: Vec::new(),
            crashes: Vec::new(),
            p2p_drop_prob: 0.0,
            collective_drop_prob: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    /// An empty plan carrying a seed, to be populated with the builder
    /// methods. The seed feeds the per-message / per-collective drop
    /// decision streams.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::none()
        }
    }

    /// A randomized plan for `ranks` nodes over `horizon_s` simulated
    /// seconds, derived entirely from `seed` through one SplitMix64
    /// stream: one straggler window, one link-degradation window, mild
    /// message loss, and one crash of a non-zero rank in the middle
    /// half of the horizon (only when `ranks > 2`, so the cluster always
    /// retains a quorum to finish the run with).
    pub fn chaos(seed: u64, ranks: usize, horizon_s: f64) -> Self {
        assert!(ranks >= 1 && horizon_s > 0.0);
        let mut s = SplitMix64Stream::new(seed);
        let mut plan = Self::seeded(seed);
        let straggler_rank = (s.next_u64() % ranks as u64) as usize;
        let start = s.next_range(0.0, horizon_s * 0.5);
        plan.stragglers.push(StragglerWindow {
            rank: straggler_rank,
            start_s: start,
            end_s: start + s.next_range(0.05, 0.3) * horizon_s,
            slowdown: s.next_range(1.5, 4.0),
        });
        let lstart = s.next_range(0.0, horizon_s * 0.7);
        plan.links.push(LinkDegradation {
            start_s: lstart,
            end_s: lstart + s.next_range(0.05, 0.2) * horizon_s,
            latency_mult: s.next_range(1.5, 8.0),
            bandwidth_div: s.next_range(1.5, 4.0),
        });
        plan.p2p_drop_prob = s.next_range(0.0, 0.02);
        plan.collective_drop_prob = s.next_range(0.0, 0.02);
        if ranks > 2 {
            let victim = 1 + (s.next_u64() % (ranks as u64 - 1)) as usize;
            plan.crashes.push(RankCrash {
                rank: victim,
                at_s: s.next_range(0.25, 0.75) * horizon_s,
                recover_at_s: None,
            });
        }
        plan
    }

    /// Builder: add a straggler window.
    pub fn with_straggler(mut self, w: StragglerWindow) -> Self {
        assert!(w.slowdown >= 1.0 && w.end_s >= w.start_s);
        self.stragglers.push(w);
        self
    }

    /// Builder: add a link-degradation window.
    pub fn with_link_degradation(mut self, w: LinkDegradation) -> Self {
        assert!(w.latency_mult >= 1.0 && w.bandwidth_div >= 1.0 && w.end_s >= w.start_s);
        self.links.push(w);
        self
    }

    /// Builder: crash `rank` at `at_s` simulated seconds, permanently.
    pub fn with_crash(mut self, rank: usize, at_s: f64) -> Self {
        self.crashes.push(RankCrash {
            rank,
            at_s,
            recover_at_s: None,
        });
        self
    }

    /// Builder: crash `rank` at `at_s` and bring the node back up at
    /// `recover_at_s`, making it eligible to rejoin the world at the next
    /// epoch boundary after recovery.
    pub fn with_crash_and_rejoin(mut self, rank: usize, at_s: f64, recover_at_s: f64) -> Self {
        assert!(recover_at_s >= at_s, "recovery must not precede the crash");
        self.crashes.push(RankCrash {
            rank,
            at_s,
            recover_at_s: Some(recover_at_s),
        });
        self
    }

    /// Builder: drop each p2p transmission attempt with probability `p`.
    pub fn with_p2p_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.p2p_drop_prob = p;
        self
    }

    /// Builder: each collective attempt times out with probability `p`.
    pub fn with_collective_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.collective_drop_prob = p;
        self
    }

    /// Builder: override the retry/timeout policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// True when the plan can never perturb a run — the hot-path
    /// early-out every injection hook checks first.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.stragglers.is_empty()
            && self.links.is_empty()
            && self.crashes.is_empty()
            && self.p2p_drop_prob == 0.0
            && self.collective_drop_prob == 0.0
    }

    /// Compute-time multiplier for `rank` (original id) at simulated time
    /// `t`: the product of all active straggler windows (1.0 if none).
    pub fn compute_slowdown(&self, rank: usize, t: f64) -> f64 {
        let mut m = 1.0;
        for w in &self.stragglers {
            if w.rank == rank && t >= w.start_s && t < w.end_s {
                m *= w.slowdown;
            }
        }
        m
    }

    /// Combined (latency multiplier, bandwidth divisor) of all link
    /// windows active at `t`; `(1.0, 1.0)` if the network is healthy.
    pub fn link_factors(&self, t: f64) -> (f64, f64) {
        let (mut lat, mut bw) = (1.0, 1.0);
        for w in &self.links {
            if t >= w.start_s && t < w.end_s {
                lat *= w.latency_mult;
                bw *= w.bandwidth_div;
            }
        }
        (lat, bw)
    }

    /// Simulated time at which `rank` (original id) dies, if scheduled.
    pub fn crash_time(&self, rank: usize) -> Option<f64> {
        self.crashes
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.at_s)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Whether `rank` (original id) is down at simulated time `t`: some
    /// crash has happened (`at_s <= t`) and the node has not yet recovered
    /// (no `recover_at_s`, or `t < recover_at_s`). Crash *detection* uses
    /// this rather than [`FaultPlan::crash_time`] so a rank that rejoined
    /// after recovery is not re-detected as dead by its old crash entry.
    pub fn is_down(&self, rank: usize, t: f64) -> bool {
        self.crashes.iter().any(|c| {
            c.rank == rank && c.at_s <= t && c.recover_at_s.is_none_or(|r| t < r)
        })
    }

    /// Whether any scheduled crash has a recovery — the gate for the
    /// trainer's epoch-boundary rejoin checks (zero overhead otherwise).
    pub fn has_recoveries(&self) -> bool {
        self.crashes.iter().any(|c| c.recover_at_s.is_some())
    }

    /// Number of consecutive lost transmission attempts for the `seq`-th
    /// message from `src` to `dst` (original rank ids). Capped at
    /// `retry.max_retries + 1`; hitting the cap means the send times out.
    pub fn p2p_failed_attempts(&self, src: usize, dst: usize, seq: u64) -> u32 {
        self.failed_attempts(TAG_P2P, &[src as u64, dst as u64, seq], self.p2p_drop_prob)
    }

    /// Number of consecutive timed-out attempts for the `seq`-th
    /// collective of the run. Identical on every rank because `seq` is the
    /// rank-local collective counter of an SPMD program.
    pub fn collective_failed_attempts(&self, seq: u64) -> u32 {
        self.failed_attempts(TAG_COLLECTIVE, &[seq], self.collective_drop_prob)
    }

    fn failed_attempts(&self, tag: u64, coords: &[u64], prob: f64) -> u32 {
        if prob <= 0.0 {
            return 0;
        }
        let cap = self.retry.max_retries + 1;
        let mut fails = 0u32;
        while fails < cap {
            let h = mix_coords(self.seed, tag ^ fails as u64, coords);
            if !hashed_bernoulli(h, prob) {
                break;
            }
            fails += 1;
        }
        fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_default() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultPlan::default().is_inert());
        assert_eq!(FaultPlan::none().compute_slowdown(0, 5.0), 1.0);
        assert_eq!(FaultPlan::none().link_factors(5.0), (1.0, 1.0));
        assert_eq!(FaultPlan::none().crash_time(0), None);
        assert_eq!(FaultPlan::none().p2p_failed_attempts(0, 1, 0), 0);
        assert_eq!(FaultPlan::none().collective_failed_attempts(9), 0);
    }

    #[test]
    fn straggler_windows_multiply_and_respect_bounds() {
        let plan = FaultPlan::seeded(1)
            .with_straggler(StragglerWindow {
                rank: 1,
                start_s: 1.0,
                end_s: 2.0,
                slowdown: 2.0,
            })
            .with_straggler(StragglerWindow {
                rank: 1,
                start_s: 1.5,
                end_s: 3.0,
                slowdown: 3.0,
            });
        assert_eq!(plan.compute_slowdown(1, 0.5), 1.0);
        assert_eq!(plan.compute_slowdown(1, 1.25), 2.0);
        assert_eq!(plan.compute_slowdown(1, 1.75), 6.0);
        assert_eq!(plan.compute_slowdown(1, 2.5), 3.0);
        assert_eq!(plan.compute_slowdown(0, 1.75), 1.0, "other ranks unaffected");
        assert!(!plan.is_inert());
    }

    #[test]
    fn link_factors_combine() {
        let plan = FaultPlan::seeded(2).with_link_degradation(LinkDegradation {
            start_s: 0.0,
            end_s: 10.0,
            latency_mult: 4.0,
            bandwidth_div: 2.0,
        });
        assert_eq!(plan.link_factors(5.0), (4.0, 2.0));
        assert_eq!(plan.link_factors(11.0), (1.0, 1.0));
    }

    #[test]
    fn crash_time_takes_earliest() {
        let plan = FaultPlan::seeded(3).with_crash(2, 5.0).with_crash(2, 3.0);
        assert_eq!(plan.crash_time(2), Some(3.0));
        assert_eq!(plan.crash_time(0), None);
    }

    #[test]
    fn recovery_windows_bound_is_down() {
        let plan = FaultPlan::seeded(4).with_crash_and_rejoin(1, 2.0, 5.0);
        assert!(!plan.is_down(1, 1.9), "healthy before the crash");
        assert!(plan.is_down(1, 2.0), "down from at_s");
        assert!(plan.is_down(1, 4.9), "still down before recovery");
        assert!(!plan.is_down(1, 5.0), "healthy again at recover_at_s");
        assert!(!plan.is_down(0, 3.0), "other ranks unaffected");
        assert!(plan.has_recoveries());

        let permanent = FaultPlan::seeded(5).with_crash(1, 2.0);
        assert!(permanent.is_down(1, 1e9), "no recovery → down forever");
        assert!(!permanent.has_recoveries());
    }

    #[test]
    fn drop_decisions_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(42).with_p2p_drop_prob(0.5);
        let b = FaultPlan::seeded(42).with_p2p_drop_prob(0.5);
        let c = FaultPlan::seeded(43).with_p2p_drop_prob(0.5);
        let seq_a: Vec<u32> = (0..64).map(|s| a.p2p_failed_attempts(0, 1, s)).collect();
        let seq_b: Vec<u32> = (0..64).map(|s| b.p2p_failed_attempts(0, 1, s)).collect();
        let seq_c: Vec<u32> = (0..64).map(|s| c.p2p_failed_attempts(0, 1, s)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same decisions");
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
        // At p=0.5 some messages must be dropped at least once and some
        // must go through cleanly.
        assert!(seq_a.iter().any(|&f| f > 0));
        assert!(seq_a.contains(&0));
    }

    #[test]
    fn failed_attempts_capped_at_retries_plus_one() {
        let plan = FaultPlan::seeded(1)
            .with_p2p_drop_prob(1.0)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            });
        assert_eq!(plan.p2p_failed_attempts(0, 1, 0), 3);
    }

    #[test]
    fn retry_cost_backs_off_exponentially() {
        let r = RetryPolicy {
            max_retries: 3,
            timeout_s: 1.0,
            backoff_base_s: 0.5,
            backoff_factor: 2.0,
        };
        assert!((r.retry_cost_s(0) - 1.5).abs() < 1e-12);
        assert!((r.retry_cost_s(1) - 2.0).abs() < 1e-12);
        assert!((r.retry_cost_s(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chaos_is_deterministic_and_leaves_a_quorum() {
        let a = FaultPlan::chaos(7, 4, 100.0);
        let b = FaultPlan::chaos(7, 4, 100.0);
        assert_eq!(a, b);
        assert!(!a.is_inert());
        assert_eq!(a.crashes.len(), 1);
        assert!(a.crashes[0].rank >= 1, "rank 0 is never the chaos victim");
        let two = FaultPlan::chaos(7, 2, 100.0);
        assert!(two.crashes.is_empty(), "2-rank plans never crash anyone");
    }

    #[test]
    fn stream_covers_unit_interval() {
        let mut s = SplitMix64Stream::new(9);
        let xs: Vec<f64> = (0..1000).map(|_| s.next_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert!(xs.iter().any(|&x| x < 0.1) && xs.iter().any(|&x| x > 0.9));
    }
}
