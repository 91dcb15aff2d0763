//! Integration tests for the seeded fault-injection subsystem: crashes
//! shrink the world, stragglers and link degradation charge the fault
//! bucket, p2p drops cost retries, and every faulted run is
//! bit-reproducible from its plan.

use simgrid::{
    Cluster, ClusterSpec, Collective, FaultPlan, LinkDegradation, RetryPolicy, SimError,
    StragglerWindow, TimeBreakdown,
};

/// A fault-free run and a `FaultPlan::none()` run must be bit-identical —
/// same floats, same clocks, same breakdowns.
#[test]
fn none_plan_is_bit_identical_to_no_plan() {
    let prog = |ctx: &mut simgrid::NodeCtx| {
        let mut v: Vec<f32> = (0..512).map(|i| (i * (ctx.rank() + 3)) as f32 * 0.01).collect();
        for round in 0..6 {
            ctx.comm_mut().clock_mut().charge_flops(1.0e7);
            ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            if round % 2 == 0 {
                let own = vec![round as u8; 32 * (ctx.rank() + 1)];
                let (mut recv, mut counts) = (Vec::new(), Vec::new());
                ctx.comm_mut()
                    .allgatherv_bytes_into(&own, &mut recv, &mut counts)
                    .unwrap();
            }
            ctx.comm_mut().barrier();
        }
        (v, ctx.comm().clock().now_s(), ctx.comm().clock().breakdown())
    };
    let bare = Cluster::new(3, ClusterSpec::cray_xc40()).run(prog);
    let none = Cluster::new(3, ClusterSpec::cray_xc40())
        .with_fault_plan(FaultPlan::none())
        .run(prog);
    for ((va, ta, ba), (vb, tb, bb)) in bare.iter().zip(&none) {
        assert_eq!(va, vb, "payloads diverged");
        assert_eq!(ta.to_bits(), tb.to_bits(), "clocks diverged");
        assert_eq!(ba, bb, "breakdowns diverged");
    }
}

#[test]
fn straggler_slows_one_rank_and_peers_wait() {
    let plan = FaultPlan::seeded(7).with_straggler(StragglerWindow {
        rank: 1,
        start_s: 0.0,
        end_s: f64::MAX,
        slowdown: 3.0,
    });
    let out = Cluster::new(2, ClusterSpec::cray_xc40())
        .with_fault_plan(plan)
        .run(|ctx| {
            let mut v = vec![1.0f32; 1024];
            for _ in 0..4 {
                ctx.comm_mut().clock_mut().charge_flops(2.0e7);
                ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            }
            (ctx.comm().clock().breakdown(), ctx.comm().clock().now_s())
        });
    let (b0, now0) = (&out[0].0, out[0].1);
    let (b1, now1) = (&out[1].0, out[1].1);
    // Rank 1 pays the straggler surplus in its fault bucket; rank 0 pays
    // the same seconds as idle time waiting at the collective.
    assert!(b1.fault_s > 0.0, "straggler fault time: {b1:?}");
    assert_eq!(b0.fault_s, 0.0);
    assert!(b0.idle_s >= b1.fault_s * 0.99, "{b0:?}");
    // Clocks still agree after the collective (synchronous finish).
    assert_eq!(now0.to_bits(), now1.to_bits());
}

#[test]
fn link_degradation_surcharges_collectives_in_window() {
    let window = LinkDegradation {
        start_s: 0.0,
        end_s: f64::MAX,
        latency_mult: 4.0,
        bandwidth_div: 4.0,
    };
    let run = |plan: FaultPlan| {
        Cluster::new(2, ClusterSpec::cray_xc40())
            .with_fault_plan(plan)
            .run(|ctx| {
                let mut v = vec![1.0f32; 4096];
                ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
                (ctx.comm().clock().breakdown(), v)
            })
    };
    let healthy = run(FaultPlan::none());
    let degraded = run(FaultPlan::seeded(1).with_link_degradation(window));
    for (h, d) in healthy.iter().zip(&degraded) {
        // Same bytes, same result — only the simulated time differs.
        assert_eq!(h.1, d.1);
        assert_eq!(d.0.comm_s.to_bits(), h.0.comm_s.to_bits());
        assert!(d.0.fault_s > 0.0, "degradation surcharge missing: {:?}", d.0);
    }
}

#[test]
fn crash_is_detected_and_world_shrinks() {
    let plan = FaultPlan::seeded(3).with_crash(2, 0.0);
    let out = Cluster::new(4, ClusterSpec::cray_xc40())
        .with_fault_plan(plan)
        .run(|ctx| {
            let mut v = vec![ctx.rank() as f32 + 1.0; 64];
            let err = ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap_err();
            assert!(
                matches!(err, SimError::RankCrashed { rank: 2 }),
                "unexpected error: {err}"
            );
            let failed = ctx.comm().failed_ranks();
            let survived = ctx.comm_mut().shrink().unwrap();
            if !survived {
                return (false, 0, 0, failed, 0.0);
            }
            // Survivors: 3-rank world, dense ranks, original ids kept.
            let mut w = vec![ctx.comm().orig_rank() as f32; 8];
            ctx.comm_mut().allreduce_sum_f32(&mut w).unwrap();
            (
                true,
                ctx.comm().size(),
                ctx.comm().rank(),
                failed,
                w[0] as f64,
            )
        });
    // Original ranks 0, 1, 3 survive as new ranks 0, 1, 2.
    assert!(!out[2].0);
    for (orig, (survived, size, new_rank, failed, orig_sum)) in out.iter().enumerate() {
        assert_eq!(*failed, vec![2], "rank {orig}");
        if orig == 2 {
            continue;
        }
        assert!(survived);
        assert_eq!(*size, 3);
        assert_eq!(*new_rank, if orig < 2 { orig } else { 2 });
        // Sum of surviving original ids: 0 + 1 + 3.
        assert_eq!(*orig_sum, 4.0);
    }
}

/// The elastic cycle at the communicator level: a crash shrinks 4 → 3,
/// the recovered rank parks in the lobby, and the survivors' next
/// `try_grow` re-admits it, restoring the 4-rank world with aligned
/// clocks — reproducibly.
#[test]
fn crashed_rank_rejoins_and_world_regrows() {
    let run = || {
        // Crash at t=0; healthy again at t=0.05, which is before the
        // survivors' first epoch boundary (detection alone charges the
        // 0.1 s failure-detection timeout).
        let plan = FaultPlan::seeded(9).with_crash_and_rejoin(2, 0.0, 0.05);
        Cluster::new(4, ClusterSpec::cray_xc40())
            .with_fault_plan(plan)
            .run(|ctx| {
                let mut v = vec![ctx.rank() as f32 + 1.0; 64];
                let err = ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap_err();
                assert!(
                    matches!(err, SimError::RankCrashed { rank: 2 }),
                    "unexpected error: {err}"
                );
                if !ctx.comm_mut().shrink().unwrap() {
                    // The crashed rank parks until the survivors re-admit
                    // it; the assignment names the grow leader (rank 0).
                    assert_eq!(ctx.comm_mut().await_rejoin(), Some(0));
                } else {
                    // Survivors run a 3-rank step, then reach the epoch
                    // boundary and re-grow.
                    let mut w = vec![1.0f32; 16];
                    ctx.comm_mut().allreduce_sum_f32(&mut w).unwrap();
                    assert_eq!(w[0], 3.0);
                    let rejoined = ctx.comm_mut().try_grow();
                    assert_eq!(rejoined, vec![2]);
                }
                // Grown world: all four original ranks, dense in orig order.
                assert_eq!(ctx.comm().size(), 4);
                assert_eq!(ctx.comm().rank(), ctx.comm().orig_rank());
                assert_eq!(ctx.comm().orig_ranks(), &[0, 1, 2, 3]);
                let mut z = vec![ctx.comm().orig_rank() as f32; 8];
                ctx.comm_mut().allreduce_sum_f32(&mut z).unwrap();
                assert_eq!(z[0], 6.0);
                ctx.comm().close_lobby();
                ctx.comm().clock().now_s()
            })
    };
    let a = run();
    // Synchronous finish: the grown world leaves the last collective with
    // aligned clocks, the rejoiner included.
    for t in &a {
        assert_eq!(t.to_bits(), a[0].to_bits(), "clocks diverged: {a:?}");
    }
    // And the whole elastic cycle is bit-reproducible.
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A scheduled recovery the run never reaches must not hang the cluster:
/// closing the lobby wakes the parked rank, which exits without rejoining.
#[test]
fn lobby_close_releases_never_readmitted_rank() {
    let plan = FaultPlan::seeded(13).with_crash_and_rejoin(1, 0.0, 1.0e6);
    let out = Cluster::new(2, ClusterSpec::cray_xc40())
        .with_fault_plan(plan)
        .run(|ctx| {
            let mut v = vec![1.0f32; 8];
            let _ = ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap_err();
            if !ctx.comm_mut().shrink().unwrap() {
                return ctx.comm_mut().await_rejoin().is_some();
            }
            // Survivor: the recovery deadline is far in the future, so the
            // epoch-boundary grow finds nothing, and the program ends.
            assert!(ctx.comm_mut().try_grow().is_empty());
            ctx.comm().close_lobby();
            true
        });
    assert!(out[0], "survivor finishes normally");
    assert!(!out[1], "parked rank released without rejoin");
}

/// Messages a crash strands in the old world's mailboxes die with it, but
/// their senders already counted them on the wire: every rank — the
/// crashed one included — counts the ones queued to it as received, in
/// their own bucket and without touching its clock.
#[test]
fn shrink_counts_stranded_p2p_messages_as_received() {
    let plan = FaultPlan::seeded(3).with_crash(2, 0.0);
    let out = Cluster::new(4, ClusterSpec::cray_xc40())
        .with_fault_plan(plan)
        .run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let payload = vec![0u8; 100 + ctx.rank()];
            ctx.comm_mut().send_bytes_as(next, &payload, Collective::ShardPush).unwrap();
            let mut v = vec![1.0f32; 8];
            assert!(ctx.comm_mut().allreduce_sum_f32(&mut v).is_err());
            let before = ctx.comm().clock().now_s();
            ctx.comm_mut().shrink().unwrap();
            let clock_kept = ctx.comm().clock().now_s().to_bits() == before.to_bits();
            let t = ctx.comm().traffic().report();
            let pushed_in = t.wire_recv(Collective::ShardPush);
            (clock_kept, t.total_wire_sent(), t.total_wire_recv(), pushed_in)
        });
    let sent: u64 = out.iter().map(|o| o.1).sum();
    let recv: u64 = out.iter().map(|o| o.2).sum();
    assert_eq!(sent, recv, "wire bytes not conserved across the shrink");
    for (rank, o) in out.iter().enumerate() {
        assert!(o.0, "rank {rank}: the shrink moved the clock");
        assert_eq!(o.3, 100 + ((rank + 3) % 4) as u64, "rank {rank}: stranded push bytes");
    }
}

#[test]
fn crash_detection_charges_fault_timeout() {
    let plan = FaultPlan::seeded(3)
        .with_crash(1, 0.0)
        .with_retry_policy(RetryPolicy {
            timeout_s: 0.25,
            ..RetryPolicy::default()
        });
    let out = Cluster::new(2, ClusterSpec::cray_xc40())
        .with_fault_plan(plan)
        .run(|ctx| {
            let mut v = vec![0.0f32; 16];
            let _ = ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap_err();
            ctx.comm().clock().breakdown()
        });
    for b in &out {
        assert!(b.fault_s >= 0.25, "detection timeout missing: {b:?}");
    }
}

#[test]
fn p2p_drops_charge_retries_deterministically() {
    let run = || {
        // A generous retry budget keeps the (deterministic) worst case
        // clear of exhaustion: P(9 consecutive drops) ≈ 4e-6 per message.
        let plan = FaultPlan::seeded(11)
            .with_p2p_drop_prob(0.25)
            .with_retry_policy(RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            });
        Cluster::new(2, ClusterSpec::cray_xc40())
            .with_fault_plan(plan)
            .run(|ctx| {
                let payload = vec![0xA5u8; 2048];
                if ctx.rank() == 0 {
                    for _ in 0..50 {
                        ctx.comm_mut().send_bytes(1, &payload).unwrap();
                    }
                } else {
                    for _ in 0..50 {
                        let m = ctx.comm_mut().recv_bytes_from(0).unwrap();
                        assert_eq!(m.payload.len(), 2048);
                    }
                }
                let r = ctx.comm().traffic().report();
                (
                    r.total_retries(),
                    ctx.comm().clock().breakdown().retry_s,
                    ctx.comm().clock().now_s(),
                )
            })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "retry schedule must be reproducible");
    // At p_drop = 0.25 over 50 sends, some retries are statistically
    // certain (P(none) ≈ 6e-7), and each charges sender time.
    assert!(a[0].0 > 0, "no retries recorded");
    assert!(a[0].1 > 0.0, "no retry seconds charged");
    // The receiver performs no retransmissions itself.
    assert_eq!(a[1].0, 0);
}

#[test]
fn collective_drops_charge_retries_on_all_ranks() {
    let plan = FaultPlan::seeded(5)
        .with_collective_drop_prob(0.3)
        .with_retry_policy(RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        });
    let out = Cluster::new(3, ClusterSpec::cray_xc40())
        .with_fault_plan(plan)
        .run(|ctx| {
            let mut v = vec![1.0f32; 256];
            for _ in 0..40 {
                ctx.comm_mut().allreduce_sum_f32(&mut v).unwrap();
            }
            let r = ctx.comm().traffic().report();
            (
                r.retries(Collective::AllReduce),
                ctx.comm().clock().breakdown().retry_s,
            )
        });
    // Drops are decided from shared coordinates, so every rank retries the
    // same ops and charges the same seconds: clocks stay aligned.
    assert!(out[0].0 > 0, "expected some induced retries");
    for o in &out[1..] {
        assert_eq!(o, &out[0]);
    }
}

/// With no retry budget every induced drop is an error. Both staged
/// collectives must fail identically on every rank, leave nothing half
/// read, and leave the world usable: the next collective that gets through
/// computes the right values.
#[test]
fn exhausted_retries_fail_symmetrically_and_the_world_survives() {
    let plan = FaultPlan::seeded(9)
        .with_collective_drop_prob(0.4)
        .with_retry_policy(RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        });
    let out = Cluster::new(3, ClusterSpec::cray_xc40())
        .with_fault_plan(plan)
        .run(|ctx| {
            let rank = ctx.rank();
            let mut verdicts = Vec::new();
            for round in 0..40usize {
                let mut v = vec![(rank + round) as f32; 5];
                match ctx.comm_mut().allreduce_sum_f32(&mut v) {
                    Ok(()) => assert_eq!(v, vec![(3 * round + 3) as f32; 5]),
                    Err(e) => assert!(matches!(e, SimError::Timeout { .. }), "{e}"),
                }
                verdicts.push(v[0] != (rank + round) as f32);
                let mut seen = Vec::new();
                let gathered = ctx.comm_mut().allgatherv_staged(
                    None,
                    |slot| slot.extend_from_slice(&[rank as u8, round as u8]),
                    |r, payload| seen.push((r, payload.to_vec())),
                );
                match gathered {
                    Ok(_) => {
                        let want: Vec<_> = (0..3).map(|r| (r, vec![r as u8, round as u8])).collect();
                        assert_eq!(seen, want);
                    }
                    Err(e) => {
                        assert!(matches!(e, SimError::Timeout { .. }), "{e}");
                        assert!(seen.is_empty(), "a failed gather delivers nothing");
                    }
                }
                verdicts.push(!seen.is_empty());
            }
            (verdicts, ctx.comm().clock().now_s().to_bits())
        });
    let (verdicts, _) = &out[0];
    assert!(verdicts.contains(&true) && verdicts.contains(&false), "both outcomes exercised");
    for o in &out[1..] {
        assert_eq!(o, &out[0], "same verdicts, same clock, on every rank");
    }
}

/// The acceptance bar: a chaos plan derived from one seed produces
/// bit-identical results and clocks across repeated invocations.
#[test]
fn chaos_plan_runs_are_bit_reproducible() {
    let run = |seed: u64| -> Vec<(Vec<f32>, f64, TimeBreakdown, u64, u64)> {
        let plan = FaultPlan::chaos(seed, 4, 10.0);
        Cluster::new(4, ClusterSpec::cray_xc40())
            .with_fault_plan(plan)
            .run(|ctx| {
                let mut v: Vec<f32> =
                    (0..256).map(|i| (i + ctx.rank() * 7) as f32 * 0.5).collect();
                for _ in 0..20 {
                    ctx.comm_mut().clock_mut().charge_flops(5.0e7);
                    match ctx.comm_mut().allreduce_sum_f32(&mut v) {
                        Ok(()) => {}
                        Err(SimError::RankCrashed { .. }) => {
                            if !ctx.comm_mut().shrink().unwrap() {
                                break;
                            }
                        }
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
                let r = ctx.comm().traffic().report();
                (
                    v,
                    ctx.comm().clock().now_s(),
                    ctx.comm().clock().breakdown(),
                    r.total_wire_sent(),
                    r.total_wire_recv(),
                )
            })
    };
    let a = run(42);
    let b = run(42);
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.0, rb.0);
        assert_eq!(ra.1.to_bits(), rb.1.to_bits());
        assert_eq!(ra.2, rb.2);
        assert_eq!((ra.3, ra.4), (rb.3, rb.4));
    }
    // Different seed → different plan → (almost surely) different timing.
    let c = run(43);
    assert!(
        a.iter().zip(&c).any(|(ra, rc)| ra.1 != rc.1 || ra.2 != rc.2),
        "distinct seeds should perturb the run"
    );
    // Wire conservation holds across the whole run, crashes included.
    let sent: u64 = a.iter().map(|r| r.3).sum();
    let recv: u64 = a.iter().map(|r| r.4).sum();
    assert_eq!(sent, recv, "global wire conservation");
}
