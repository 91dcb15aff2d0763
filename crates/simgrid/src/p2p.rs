//! Point-to-point messaging between ranks.
//!
//! Collectives cover the paper's synchronous data-parallel trainer; the
//! **parameter-server** architecture its introduction argues against
//! needs asymmetric send/receive. Messages move real bytes through
//! per-rank mailboxes; simulated time follows the same α-β model as the
//! collectives:
//!
//! - the sender's clock advances by the injection overhead `α`;
//! - the message *arrives* at `t_send + α + bytes·β`;
//! - the receiver blocks (host-wise) until the message exists and idles
//!   (simulation-wise) until its arrival time.
//!
//! `Communicator::recv_bytes_from` receives from a *specific* rank, which
//! keeps programs deterministic (serving ranks drain peers in a fixed
//! order).

use crate::cost::Collective;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// One in-flight message.
#[derive(Debug, Clone)]
pub struct Message {
    pub src: usize,
    /// The traffic bucket the sender counted it in.
    pub op: Collective,
    pub payload: Vec<u8>,
    /// Simulated arrival time at the destination.
    pub arrival_s: f64,
}

#[derive(Default)]
struct MailboxInner {
    queues: Vec<VecDeque<Message>>, // indexed by source rank
}

/// Shared post office for one cluster.
pub(crate) struct PostOffice {
    boxes: Vec<(Mutex<MailboxInner>, Condvar)>,
}

impl PostOffice {
    pub(crate) fn new(size: usize) -> Arc<Self> {
        Arc::new(PostOffice {
            boxes: (0..size)
                .map(|_| {
                    (
                        Mutex::new(MailboxInner {
                            queues: (0..size).map(|_| VecDeque::new()).collect(),
                        }),
                        Condvar::new(),
                    )
                })
                .collect(),
        })
    }

    pub(crate) fn deposit(&self, dst: usize, msg: Message) {
        let (lock, cv) = &self.boxes[dst];
        lock.lock().queues[msg.src].push_back(msg);
        cv.notify_all();
    }

    /// Block until a message from `src` for `dst` exists; pop it.
    pub(crate) fn take_from(&self, dst: usize, src: usize) -> Message {
        let (lock, cv) = &self.boxes[dst];
        let mut inner = lock.lock();
        loop {
            if let Some(m) = inner.queues[src].pop_front() {
                return m;
            }
            cv.wait(&mut inner);
        }
    }

    /// Pop every message still queued for `dst`, in source order.
    pub(crate) fn drain(&self, dst: usize, mut each: impl FnMut(Message)) {
        let mut inner = self.boxes[dst].0.lock();
        for queue in inner.queues.iter_mut() {
            queue.drain(..).for_each(&mut each);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, ClusterSpec};

    #[test]
    fn messages_arrive_with_payload_and_timing() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let payload = vec![7u8; 1_000_000];
                ctx.comm_mut().send_bytes(1, &payload).unwrap();
                ctx.comm().clock().now_s()
            } else {
                let msg = ctx.comm_mut().recv_bytes_from(0).unwrap();
                assert_eq!(msg.payload.len(), 1_000_000);
                assert!(msg.payload.iter().all(|&b| b == 7));
                ctx.comm().clock().now_s()
            }
        });
        let spec = ClusterSpec::cray_xc40();
        // Sender paid only the injection overhead...
        assert!((out[0] - spec.latency_s).abs() < 1e-12);
        // ...receiver idled until the transfer completed, then paid the
        // receive occupancy for draining it off the link.
        let expect = spec.latency_s + 2.0 * 1e6 / spec.bandwidth_bps;
        assert!(
            (out[1] - expect).abs() < 1e-9,
            "receiver at {} vs expected {expect}",
            out[1]
        );
    }

    #[test]
    fn ping_pong_round_trip() {
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.comm_mut().send_bytes(1, b"ping").unwrap();
                let reply = ctx.comm_mut().recv_bytes_from(1).unwrap();
                reply.payload
            } else {
                let msg = ctx.comm_mut().recv_bytes_from(0).unwrap();
                assert_eq!(&msg.payload, b"ping");
                ctx.comm_mut().send_bytes(0, b"pong").unwrap();
                b"pong".to_vec()
            }
        });
        assert_eq!(out[0], b"pong");
    }

    #[test]
    fn many_to_one_preserves_per_source_order() {
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let mut got = Vec::new();
                // Drain peers in fixed order: deterministic.
                for src in 1..4 {
                    for _ in 0..3 {
                        let m = ctx.comm_mut().recv_bytes_from(src).unwrap();
                        got.push((m.src, m.payload[0]));
                    }
                }
                got
            } else {
                for i in 0..3u8 {
                    let payload = [i + 10 * ctx.rank() as u8];
                    ctx.comm_mut().send_bytes(0, &payload).unwrap();
                }
                Vec::new()
            }
        });
        let got = &out[0];
        assert_eq!(got.len(), 9);
        for src in 1..4usize {
            let from_src: Vec<u8> = got
                .iter()
                .filter(|&&(s, _)| s == src)
                .map(|&(_, v)| v)
                .collect();
            let want: Vec<u8> = (0..3).map(|i| i + 10 * src as u8).collect();
            assert_eq!(from_src, want, "per-source FIFO order");
        }
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let cluster = Cluster::new(1, ClusterSpec::cray_xc40());
        let out = cluster.run(|ctx| ctx.comm_mut().send_bytes(5, b"x").err());
        assert!(out[0].is_some());
    }

    #[test]
    fn many_to_one_serializes_at_the_receiver() {
        // W workers each send 1 MB to rank 0 "simultaneously"; the
        // receiver must pay ≥ W·mβ of occupancy — the parameter-server
        // ingress bottleneck the paper's introduction describes.
        let spec = ClusterSpec::cray_xc40();
        let cluster = Cluster::new(5, spec.clone());
        let out = cluster.run(|ctx| {
            let payload = vec![1u8; 1_000_000];
            if ctx.rank() == 0 {
                for src in 1..5 {
                    ctx.comm_mut().recv_bytes_from(src).unwrap();
                }
                ctx.comm().clock().now_s()
            } else {
                ctx.comm_mut().send_bytes(0, &payload).unwrap();
                ctx.comm().clock().now_s()
            }
        });
        let per_msg = 1e6 / spec.bandwidth_bps;
        assert!(
            out[0] >= 4.0 * per_msg,
            "server at {} must pay at least 4 messages of occupancy ({})",
            out[0],
            4.0 * per_msg
        );
        // Each sender only paid the injection overhead.
        for t in &out[1..] {
            assert!(*t < per_msg, "sender time {t}");
        }
    }
}
