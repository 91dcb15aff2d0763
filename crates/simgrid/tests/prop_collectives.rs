//! Property tests: every collective schedule computes the same reduction
//! as the sequential reference, for arbitrary shapes and node counts; the
//! communicator's collectives equal the reference *to the bit*; and a
//! mixed sequence of them stays exact, aligned and repeatable while ranks
//! dawdle at every point of the staging protocol.

use proptest::prelude::*;
use simgrid::collectives::{
    recursive_doubling_allreduce, reference_allreduce, ring_allgatherv, ring_allreduce,
};
use simgrid::fault::splitmix64;
use simgrid::{Cluster, ClusterSpec};

fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-3 * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_allreduce_matches_reference(
        (p, n) in (1usize..=9, 0usize..40),
        seed in any::<u64>(),
    ) {
        let _ = seed;
        let bufs = deterministic_bufs(p, n, seed);
        let want = reference_allreduce(&bufs);
        let mut got = bufs.clone();
        ring_allreduce(&mut got);
        for g in &got {
            prop_assert!(close(g, &want));
        }
    }

    #[test]
    fn recursive_doubling_matches_reference(
        (p, n) in (1usize..=12, 1usize..40),
        seed in any::<u64>(),
    ) {
        let bufs = deterministic_bufs(p, n, seed);
        let want = reference_allreduce(&bufs);
        let mut got = bufs.clone();
        recursive_doubling_allreduce(&mut got);
        for g in &got {
            prop_assert!(close(g, &want));
        }
    }

    #[test]
    fn communicator_allreduce_is_the_reference_to_the_bit(
        p in 1usize..=8,
        len_kind in 0usize..7,
        seed in any::<u64>(),
    ) {
        let n = [0, 1, p - 1, p, p + 1, 257, 1000][len_kind];
        let bufs = special_bufs(p, n, seed);
        let want = bits(&reference_allreduce(&bufs));
        let scale = 1.0 / p as f32;
        let want_scaled: Vec<u32> = want.iter().map(|&b| (f32::from_bits(b) * scale).to_bits()).collect();
        let cluster = Cluster::new(p, ClusterSpec::ideal());
        let results = cluster.run(|ctx| {
            let mine = &bufs[ctx.rank()];
            let mut in_place = mine.clone();
            ctx.comm_mut().allreduce_sum_f32(&mut in_place).unwrap();
            let stage = |_: &[f32], slot: &mut [f32]| slot.copy_from_slice(mine);
            let mut staged = vec![f32::NAN; n];
            ctx.comm_mut().allreduce_staged(&mut staged, 1.0, None, stage).unwrap();
            let mut scaled = vec![f32::NAN; n];
            ctx.comm_mut().allreduce_staged(&mut scaled, scale, None, stage).unwrap();
            (bits(&in_place), bits(&staged), bits(&scaled))
        });
        for (in_place, staged, scaled) in &results {
            if p > 1 {
                prop_assert_eq!(in_place, &want);
            } else {
                // One rank: its buffer is the sum, signed zeros included.
                prop_assert_eq!(in_place, &bits(&bufs[0]));
            }
            prop_assert_eq!(staged, in_place, "staged == in-place");
            if p > 1 {
                prop_assert_eq!(scaled, &want_scaled, "scaled == sum, then *");
            }
        }
    }

    #[test]
    fn communicator_allgather_is_rank_ordered_concat(
        contribs in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 0..12), 1..5),
    ) {
        let p = contribs.len();
        let to_bytes = |v: &[f32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let want = to_bytes(&contribs.concat());
        let lens: Vec<usize> = contribs.iter().map(|c| 4 * c.len()).collect();
        let cluster = Cluster::new(p, ClusterSpec::ideal());
        let results = cluster.run(|ctx| {
            let mine = to_bytes(&contribs[ctx.rank()]);
            let (mut recv, mut counts) = (Vec::new(), Vec::new());
            ctx.comm_mut().allgatherv_bytes_into(&mine, &mut recv, &mut counts).unwrap();
            // The staged collective under it, read in place.
            let mut seen = Vec::new();
            ctx.comm_mut()
                .allgatherv_staged(
                    None,
                    |slot| slot.extend_from_slice(&mine),
                    |r, payload| seen.push((r, payload.to_vec())),
                )
                .unwrap();
            (recv, counts, seen)
        });
        for (recv, counts, seen) in &results {
            prop_assert_eq!(recv, &want);
            prop_assert_eq!(counts, &lens);
            for (r, (rank, payload)) in seen.iter().enumerate() {
                prop_assert_eq!(*rank, r);
                prop_assert_eq!(payload, &to_bytes(&contribs[r]));
            }
            prop_assert_eq!(seen.len(), p);
        }
        // Standalone ring algorithm agrees.
        for r in ring_allgatherv(&contribs) {
            prop_assert_eq!(to_bytes(&r), want.clone());
        }
    }

    #[test]
    fn scalar_sum_is_the_rank_order_fold(
        vals in proptest::collection::vec(-1e6f64..1e6, 1..6),
    ) {
        let cluster = Cluster::new(vals.len(), ClusterSpec::ideal());
        let out = cluster.run(|ctx| {
            let v = vals[ctx.rank()];
            ctx.comm_mut().allreduce_sum_f64(v)
        });
        let want = vals[1..].iter().fold(vals[0], |a, &b| a + b);
        for sum in out {
            prop_assert_eq!(sum.to_bits(), want.to_bits());
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One well-mixed word per `(seed, coordinates)`.
fn mix(seed: u64, a: usize, b: usize) -> u64 {
    splitmix64(seed.wrapping_add((a as u64) << 32 | b as u64))
}

/// Per-rank buffers salted with the values a reduction's order shows up
/// on: signed zeros, denormals, magnitudes 60 orders apart, infinities
/// (whose mixed-sign sums are NaN — same NaN in the same order).
fn special_bufs(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    const SPECIAL: [f32; 10] = [
        0.0,
        -0.0,
        1.0e-45,
        -1.0e-40,
        1.0e-30,
        -1.0e-30,
        1.0e30,
        -1.0e30,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    (0..p)
        .map(|r| {
            (0..n)
                .map(|i| {
                    let x = mix(seed, r, i);
                    match x % 16 {
                        k @ 0..=9 => SPECIAL[k as usize],
                        _ => ((x >> 8) % 2001) as f32 / 10.0 - 100.0,
                    }
                })
                .collect()
        })
        .collect()
}

/// The test a missing barrier must fail: 120 rounds of all-reduce →
/// staged scaled all-reduce → gather → scalar sum (→ `barrier` every
/// fifth), with a different rank dawdling at a different point of every
/// round — before a collective, while staging into its slot, while
/// reading its peers' — so the others run as far ahead as the protocol
/// lets them. Every value must equal its reference to the bit, every
/// rank's clock must agree after every round, and two runs must agree.
#[test]
fn stress_mixed() {
    const ROUNDS: usize = 120;
    const POINTS: usize = 6;
    let dawdle = || std::thread::sleep(std::time::Duration::from_micros(200));
    for p in [2usize, 3, 5] {
        let lens = [1, p - 1, p + 1, 257];
        let contrib = |round: usize, rank: usize| -> Vec<f32> {
            special_bufs(p, lens[round % lens.len()], round as u64)[rank].clone()
        };
        let payload = |round: usize, rank: usize| -> Vec<u8> {
            let n = (mix(7, round, rank) % 97) as usize;
            (0..n).map(|i| mix(11, round * p + rank, i) as u8).collect()
        };
        let scalar = |round: usize, rank: usize| mix(13, round, rank) as f64 / 1e3;
        let run = || {
            Cluster::new(p, ClusterSpec::cray_xc40()).run(|ctx| {
                let rank = ctx.rank();
                let mut log = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    // Who is slow this round, and where.
                    let at = |point: usize| {
                        if rank == round % p && (round / p) % POINTS == point {
                            dawdle();
                        }
                    };
                    let comm = ctx.comm_mut();
                    comm.clock_mut()
                        .charge_compute_seconds(1e-4 * (1 + (rank + round) % p) as f64);
                    let mine = contrib(round, rank);

                    at(0);
                    let mut sum = mine.clone();
                    comm.allreduce_sum_f32(&mut sum).unwrap();

                    at(1);
                    let mut avg = vec![f32::NAN; mine.len()];
                    comm.allreduce_staged(&mut avg, 1.0 / p as f32, None, |_, slot| {
                        at(2);
                        slot.copy_from_slice(&mine);
                    })
                    .unwrap();

                    let mut gathered = Vec::with_capacity(p);
                    comm.allgatherv_staged(
                        None,
                        |slot| {
                            at(3);
                            slot.extend_from_slice(&payload(round, rank));
                        },
                        |r, bytes| {
                            if r == p / 2 {
                                at(4);
                            }
                            gathered.push(bytes.to_vec());
                        },
                    )
                    .unwrap();

                    at(5);
                    let total = comm.allreduce_sum_f64(scalar(round, rank));
                    if round % 5 == 4 {
                        comm.barrier();
                    }
                    log.push((
                        bits(&sum),
                        bits(&avg),
                        gathered,
                        total.to_bits(),
                        comm.clock().now_s().to_bits(),
                    ));
                }
                log
            })
        };
        let first = run();
        for (round, entry) in first[0].iter().enumerate() {
            let contribs: Vec<Vec<f32>> = (0..p).map(|r| contrib(round, r)).collect();
            let want_sum = reference_allreduce(&contribs);
            let want_avg: Vec<f32> = want_sum.iter().map(|v| v * (1.0 / p as f32)).collect();
            let want_gathered: Vec<Vec<u8>> = (0..p).map(|r| payload(round, r)).collect();
            let want_total = (1..p).fold(scalar(round, 0), |a, r| a + scalar(round, r));
            assert_eq!(entry.0, bits(&want_sum), "p {p} round {round}: all-reduce");
            assert_eq!(entry.1, bits(&want_avg), "p {p} round {round}: scaled all-reduce");
            assert_eq!(entry.2, want_gathered, "p {p} round {round}: gather");
            assert_eq!(entry.3, want_total.to_bits(), "p {p} round {round}: scalar sum");
            for (rank, log) in first.iter().enumerate() {
                assert_eq!(&log[round], entry, "p {p} round {round}: rank {rank} vs rank 0");
            }
        }
        assert_eq!(run(), first, "p {p}: two runs");
    }
}

/// Deterministic pseudo-random buffers without threading a full RNG
/// through proptest shrink machinery.
fn deterministic_bufs(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..p)
        .map(|r| {
            (0..n)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((r * 1000 + i) as u64);
                    ((x % 2001) as f32 - 1000.0) / 10.0
                })
                .collect()
        })
        .collect()
}
