//! Reference implementations of the collective *algorithms* the cost model
//! prices.
//!
//! The [`crate::Communicator`] moves data through a staging area for
//! simplicity and determinism; the functions here implement the actual
//! ring / recursive-doubling schedules step by step on a set of per-rank
//! buffers. They serve two purposes:
//!
//! 1. **Benchmarks** — `bench/benches/collectives.rs` measures their real
//!    throughput, validating the relative algorithmic costs the α-β model
//!    assumes (ring moves `2m(p−1)/p` per node, recursive doubling
//!    `m·log₂p`).
//! 2. **Oracles** — property tests check that every schedule computes the
//!    same reduction as the sequential reference (up to FP reassociation).

/// Sequential rank-order sum of all inputs; the correctness oracle.
///
/// Panics if input lengths differ.
pub fn reference_allreduce(inputs: &[Vec<f32>]) -> Vec<f32> {
    assert!(!inputs.is_empty());
    let n = inputs[0].len();
    let mut acc = vec![0.0f32; n];
    for input in inputs {
        assert_eq!(input.len(), n, "mismatched buffer lengths");
        for (a, &v) in acc.iter_mut().zip(input) {
            *a += v;
        }
    }
    acc
}

/// Bandwidth-optimal ring all-reduce executed on `p` rank buffers.
///
/// Phase 1 (reduce-scatter): in step `s`, rank `r` sends chunk
/// `(r − s) mod p` to rank `r+1` and accumulates the chunk it receives.
/// Phase 2 (all-gather): the fully reduced chunks circulate once more.
/// After `2(p−1)` steps every buffer holds the total sum.
///
/// The schedule is executed step-synchronously (all sends of a step happen
/// "at once" via a scratch copy), faithfully modelling the data movement of
/// the distributed algorithm in a single address space.
pub fn ring_allreduce(bufs: &mut [Vec<f32>]) {
    let p = bufs.len();
    assert!(p >= 1);
    let n = bufs[0].len();
    for b in bufs.iter() {
        assert_eq!(b.len(), n, "mismatched buffer lengths");
    }
    if p == 1 || n == 0 {
        return;
    }
    // Chunk c of rank r spans chunk_range(c).
    let chunk_range = |c: usize| -> std::ops::Range<usize> {
        let lo = c * n / p;
        let hi = (c + 1) * n / p;
        lo..hi
    };
    // Reduce-scatter phase.
    for step in 0..p - 1 {
        // Snapshot the chunks being sent this step before any writes.
        let mut sends: Vec<(usize, usize, Vec<f32>)> = Vec::with_capacity(p); // (dst, chunk, data)
        for (r, buf) in bufs.iter().enumerate() {
            let c = (r + p - step) % p;
            let dst = (r + 1) % p;
            sends.push((dst, c, buf[chunk_range(c)].to_vec()));
        }
        for (dst, c, data) in sends {
            let range = chunk_range(c);
            for (a, v) in bufs[dst][range].iter_mut().zip(data) {
                *a += v;
            }
        }
    }
    // All-gather phase: after reduce-scatter, rank r owns the fully reduced
    // chunk (r+1) mod p. Circulate ownership around the ring.
    for step in 0..p - 1 {
        let mut sends: Vec<(usize, usize, Vec<f32>)> = Vec::with_capacity(p);
        for (r, buf) in bufs.iter().enumerate() {
            let c = (r + 1 + p - step) % p;
            let dst = (r + 1) % p;
            sends.push((dst, c, buf[chunk_range(c)].to_vec()));
        }
        for (dst, c, data) in sends {
            let range = chunk_range(c);
            bufs[dst][range].copy_from_slice(&data);
        }
    }
}

/// Latency-optimal recursive-doubling all-reduce for `p` a power of two
/// (non-powers fall back to [`reference_allreduce`] semantics by reducing
/// through the nearest embedded hypercube plus fix-up exchanges).
pub fn recursive_doubling_allreduce(bufs: &mut [Vec<f32>]) {
    let p = bufs.len();
    assert!(p >= 1);
    let n = bufs[0].len();
    for b in bufs.iter() {
        assert_eq!(b.len(), n, "mismatched buffer lengths");
    }
    if p == 1 || n == 0 {
        return;
    }
    if !p.is_power_of_two() {
        // Fold the excess ranks into the hypercube, run the power-of-two
        // schedule, then copy results back out — the standard MPI fix-up.
        let q = p.next_power_of_two() / 2;
        let extra = p - q;
        for r in 0..extra {
            let (low, high) = bufs.split_at_mut(q);
            for (a, &v) in low[r].iter_mut().zip(high[r].iter()) {
                *a += v;
            }
        }
        {
            let (low, _) = bufs.split_at_mut(q);
            recursive_doubling_allreduce(low);
        }
        let (low, high) = bufs.split_at_mut(q);
        for r in 0..extra {
            high[r].copy_from_slice(&low[r]);
        }
        return;
    }
    let mut dist = 1;
    while dist < p {
        // Pairwise exchange and add at distance `dist`.
        let mut partners: Vec<(usize, Vec<f32>)> = Vec::with_capacity(p);
        for (r, buf) in bufs.iter().enumerate() {
            partners.push((r ^ dist, buf.clone()));
        }
        for (partner, data) in partners {
            for (a, v) in bufs[partner].iter_mut().zip(data) {
                *a += v;
            }
        }
        dist <<= 1;
    }
}

/// Ring all-gather of variable-size contributions: returns, for every rank,
/// the concatenation of all contributions in rank order.
pub fn ring_allgatherv(contribs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let p = contribs.len();
    let mut out: Vec<Vec<f32>> = vec![Vec::new(); p];
    for dst in out.iter_mut() {
        for c in contribs {
            dst.extend_from_slice(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())))
    }

    fn make_bufs(p: usize, n: usize) -> Vec<Vec<f32>> {
        (0..p)
            .map(|r| {
                (0..n)
                    .map(|i| ((r * 31 + i * 7) % 13) as f32 - 6.0 + 0.25 * r as f32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ring_matches_reference_various_sizes() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            for n in [0usize, 1, 5, 16, 33, 257] {
                let bufs = make_bufs(p, n);
                let want = reference_allreduce(&bufs);
                let mut got = bufs.clone();
                ring_allreduce(&mut got);
                for (r, g) in got.iter().enumerate() {
                    assert!(close(g, &want), "ring p={p} n={n} rank={r}");
                }
            }
        }
    }

    #[test]
    fn recursive_doubling_matches_reference() {
        for p in [1usize, 2, 3, 4, 6, 8, 12, 16] {
            for n in [1usize, 8, 65] {
                let bufs = make_bufs(p, n);
                let want = reference_allreduce(&bufs);
                let mut got = bufs.clone();
                recursive_doubling_allreduce(&mut got);
                for (r, g) in got.iter().enumerate() {
                    assert!(close(g, &want), "recdbl p={p} n={n} rank={r}");
                }
            }
        }
    }

    #[test]
    fn allgatherv_concatenates_everywhere() {
        let contribs = vec![vec![1.0], vec![], vec![2.0, 3.0]];
        let out = ring_allgatherv(&contribs);
        assert_eq!(out.len(), 3);
        for o in out {
            assert_eq!(o, vec![1.0, 2.0, 3.0]);
        }
    }
}
