//! The cluster executor: runs one closure per logical node, each on its own
//! OS thread, wired together by a shared communicator.

use crate::comm::{CommWorld, Communicator};
use crate::fault::FaultPlan;
use crate::spec::ClusterSpec;
use std::sync::Arc;
use std::thread;

/// Execution context handed to the program running on one node.
pub struct NodeCtx {
    spec: ClusterSpec,
    comm: Communicator,
}

impl NodeCtx {
    /// This node's rank in `0..size()`. Delegates to the communicator, so
    /// it stays correct after a crash shrinks the world mid-run.
    #[inline]
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of nodes in the cluster (current communicator size).
    #[inline]
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The hardware description the cluster was built with.
    #[inline]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Read-only communicator access (clock, traffic, cost model).
    #[inline]
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Communicator access for collectives and compute charging.
    #[inline]
    pub fn comm_mut(&mut self) -> &mut Communicator {
        &mut self.comm
    }
}

/// A simulated cluster of `p` nodes.
///
/// [`Cluster::run`] executes the given SPMD program once per node, each on
/// its own thread, and returns the per-rank results in rank order. The
/// program must be *collectively well-formed*: every rank must call the
/// same sequence of collectives (the usual MPI contract). Nodes that
/// diverge deadlock, exactly as they would under MPI.
pub struct Cluster {
    size: usize,
    spec: ClusterSpec,
    plan: Arc<FaultPlan>,
}

impl Cluster {
    /// Build a cluster of `size ≥ 1` nodes with the given hardware spec.
    pub fn new(size: usize, spec: ClusterSpec) -> Self {
        assert!(size >= 1, "a cluster needs at least one node");
        Cluster {
            size,
            spec,
            plan: Arc::new(FaultPlan::none()),
        }
    }

    /// Attach a fault schedule (builder style). With [`FaultPlan::none`]
    /// — the default — every code path and simulated time is bit-identical
    /// to a cluster built without a plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Arc::new(plan);
        self
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run the SPMD program `f` on every node; returns results rank-major.
    ///
    /// Results are deterministic for deterministic programs: collectives
    /// reduce in fixed rank order and each rank should derive its RNG
    /// stream from its rank.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut NodeCtx) -> R + Sync,
    {
        let world = CommWorld::new(self.size, self.plan.clone(), (0..self.size).collect());
        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.size);
            for rank in 0..self.size {
                let world = world.clone();
                let spec = self.spec.clone();
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut ctx = NodeCtx {
                        comm: Communicator::new(world, rank, &spec),
                        spec,
                    };
                    f(&mut ctx)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_closure_per_rank_in_order() {
        let cluster = Cluster::new(5, ClusterSpec::ideal());
        let ranks = cluster.run(|ctx| ctx.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ctx_exposes_size_and_spec() {
        let cluster = Cluster::new(3, ClusterSpec::ethernet_10g());
        let out = cluster.run(|ctx| (ctx.size(), ctx.spec().latency_s));
        for (size, lat) in out {
            assert_eq!(size, 3);
            assert_eq!(lat, ClusterSpec::ethernet_10g().latency_s);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Cluster::new(0, ClusterSpec::ideal());
    }

    #[test]
    fn deterministic_across_runs() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let prog = |ctx: &mut NodeCtx| {
            let mut v: Vec<f32> = (0..64).map(|i| (i * (ctx.rank() + 1)) as f32 * 0.1).collect();
            for _ in 0..10 {
                ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
                for x in v.iter_mut() {
                    *x *= 0.25;
                }
            }
            v
        };
        let a = cluster.run(prog);
        let b = cluster.run(prog);
        assert_eq!(a, b, "collective reductions must be bit-deterministic");
    }
}
