//! # simgrid — a simulated distributed-memory cluster
//!
//! This crate is the substrate that plays the role Horovod + MPI + the Cray
//! XC40 played in the paper *"Dynamic Strategies for High Performance
//! Training of Knowledge Graph Embeddings"* (ICPP '22).
//!
//! A [`Cluster`] runs `p` logical **nodes**, each on its own OS thread with
//! its own private state (in the KGE trainer: a full model replica). Nodes
//! communicate exclusively through MPI-style **collectives** on a
//! [`Communicator`]: `allreduce`, `allgatherv`, `barrier`, a scalar sum.
//! The collectives move *real bytes* between the node threads, so all
//! distributed numerics (gradient averaging, quantization error,
//! sparsity) are exact.
//!
//! Time, on the other hand, is **simulated**: every collective charges each
//! participating node's [`SimClock`] according to an α-β (latency/bandwidth)
//! [`CostModel`] parameterized by a [`ClusterSpec`], and compute phases are
//! charged by the caller (`clock.charge_flops(...)`). This lets laptop-scale
//! runs report cluster-scale wall times with the same *shape* (who wins,
//! where crossovers fall) as a real machine, because "who wins" between
//! collectives is decided by communicated byte counts and collective
//! algorithmics — exactly the mechanism at play on real interconnects.
//!
//! ## Example
//!
//! ```
//! use simgrid::{Cluster, ClusterSpec};
//!
//! let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
//! let sums = cluster.run(|ctx| {
//!     let mut local = vec![ctx.rank() as f32 + 1.0; 8];
//!     ctx.comm_mut().allreduce_sum_f32(&mut local).unwrap();
//!     local[0] // every node sees 1+2+3+4 = 10
//! });
//! assert!(sums.iter().all(|&s| s == 10.0));
//! ```

pub mod clock;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod error;
pub mod executor;
pub mod fault;
pub mod openloop;
pub mod p2p;
pub mod spec;
pub mod traffic;

pub use clock::{SimClock, TimeBreakdown};
pub use comm::{Communicator, OverlapStats};
pub use cost::{Collective, CostModel};
pub use error::SimError;
pub use fault::{FaultPlan, LinkDegradation, RankCrash, RetryPolicy, StragglerWindow};
pub use openloop::OpenLoopArrivals;
pub use p2p::Message;
pub use executor::{Cluster, NodeCtx};
pub use spec::ClusterSpec;
pub use traffic::{TrafficReport, TrafficStats};
