//! Property test: `SparseGrad` against an oracle that is a `BTreeMap` of
//! rows plus the order they first appeared in. Random interleavings of
//! `row_mut`, the slot API (with and without a memo), `merge`, the
//! first-chunk swap, `retain`, `ensure_sorted` and `clear` must leave the
//! same rows, the same value bits and the same insertion order, and
//! `iter_sorted` must walk them in ascending row order — for id families
//! chosen to stress the index hash: dense runs, strides of 2^k, ids just
//! under `u32::MAX`. A second test bounds the longest probe chain those
//! families produce (the index keeps load ≤ 0.75). A third holds
//! `rows_above_norm`'s blocked fast path to the in-order `l2_norm(row) >
//! eps` it stands for, on the rows where the two sums could disagree.

use kge_core::SparseGrad;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const DIM: usize = 3;

/// The `i`-th id of a family.
fn family_id(family: usize, i: u32) -> u32 {
    match family {
        0 => i,                                // dense run from 0
        1 => u32::MAX - i,                     // just under u32::MAX
        2 => 1_000_003u32.wrapping_mul(i + 1), // scattered
        k => i << (k - 2),                     // multiples of 2^(k-2), k = 3..
    }
}

/// `BTreeMap` + insertion order: what a `SparseGrad` must look like.
#[derive(Default, Clone)]
struct Oracle {
    rows: BTreeMap<u32, [f32; DIM]>,
    order: Vec<u32>,
}

impl Oracle {
    fn row_mut(&mut self, row: u32) -> &mut [f32; DIM] {
        if !self.rows.contains_key(&row) {
            self.order.push(row);
        }
        self.rows.entry(row).or_insert([0.0; DIM])
    }

    fn merge(&mut self, other: &Oracle) {
        for row in &other.order {
            let dst = self.row_mut(*row);
            for (d, v) in dst.iter_mut().zip(other.rows[row]) {
                *d += v;
            }
        }
    }
}

/// An accumulator under test, its oracle, and the `(row, slot)` pairs its
/// last slot lookups returned (dropped whenever slots are renumbered).
struct Pair {
    grad: SparseGrad,
    oracle: Oracle,
    memo: [Option<(u32, usize)>; 2],
}

impl Pair {
    fn new() -> Self {
        Pair {
            grad: SparseGrad::new(DIM),
            oracle: Oracle::default(),
            memo: [None; 2],
        }
    }

    fn assert_matches(&self, what: &str) {
        let (g, o) = (&self.grad, &self.oracle);
        assert_eq!(g.nnz(), o.order.len(), "{what}: nnz");
        assert_eq!(g.is_empty(), o.order.is_empty(), "{what}: is_empty");
        for (i, row) in o.order.iter().enumerate() {
            let (got_row, got) = g.entry(i);
            assert_eq!(got_row, *row, "{what}: insertion order at {i}");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&o.rows[row]), "{what}: row {row}");
            assert_eq!(g.get(*row), Some(got), "{what}: get({row})");
        }
        let sorted: Vec<u32> = g.iter_sorted().map(|(r, _)| r).collect();
        let want: Vec<u32> = o.rows.keys().copied().collect();
        assert_eq!(sorted, want, "{what}: iter_sorted order");
        for (row, v) in g.iter_sorted() {
            assert_eq!(Some(v), g.get(row), "{what}: iter_sorted row {row}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matches_btreemap_and_insertion_order_oracle(
        seed in any::<u64>(),
        family in 0usize..24,
        pool in 1u32..200,
        n_ops in 1usize..400,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = [Pair::new(), Pair::new()];
        for step in 0..n_ops {
            let which = rng.gen_range(0..2usize);
            let row = family_id(family, rng.gen_range(0..pool));
            let (k, v) = (rng.gen_range(0..DIM), rng.gen_range(-2.0f32..2.0));
            let op = rng.gen_range(0..100u32);
            let p = &mut pairs[which];
            match op {
                0..=34 => {
                    p.grad.row_mut(row)[k] += v;
                    p.oracle.row_mut(row)[k] += v;
                }
                35..=69 => {
                    // The kernel's access pattern: resolve through the
                    // memo, then add through the slot or the slab.
                    let slot = p.grad.slot_of(row, &p.memo);
                    p.memo = [Some((row, slot)), p.memo[0]];
                    if op % 2 == 0 {
                        p.grad.slot_mut(slot)[k] += v;
                    } else {
                        p.grad.slab_mut()[slot * DIM + k] += v;
                    }
                    p.oracle.row_mut(row)[k] += v;
                }
                70..=79 => {
                    let [a, b] = &mut pairs;
                    let (dst, src) = if which == 0 { (a, b) } else { (b, a) };
                    dst.grad.merge(&src.grad);
                    dst.oracle.merge(&src.oracle);
                }
                80..=84 => {
                    // First-chunk hand-over: an empty accumulator takes the
                    // other's contents by swap; a merge must give the same.
                    let [a, b] = &mut pairs;
                    let (dst, src) = if which == 0 { (a, b) } else { (b, a) };
                    dst.grad.clear();
                    dst.oracle = Oracle::default();
                    let mut merged = dst.grad.clone();
                    merged.merge(&src.grad);
                    std::mem::swap(&mut dst.grad, &mut src.grad);
                    std::mem::swap(&mut dst.oracle, &mut src.oracle);
                    (dst.memo, src.memo) = ([None; 2], [None; 2]);
                    prop_assert_eq!(merged.nnz(), dst.grad.nnz());
                    for i in 0..merged.nnz() {
                        let bits = |(r, v): (u32, &[f32])| (r, v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
                        prop_assert_eq!(bits(merged.entry(i)), bits(dst.grad.entry(i)), "swap vs merge");
                    }
                }
                85..=89 => {
                    let m = rng.gen_range(2..5u32);
                    let dropped = p.grad.retain(|r, _| r % m != 0);
                    let before = p.oracle.order.len();
                    p.oracle.order.retain(|r| r % m != 0);
                    p.oracle.rows.retain(|r, _| r % m != 0);
                    prop_assert_eq!(dropped, before - p.oracle.order.len());
                    p.memo = [None; 2];
                }
                90..=96 => p.grad.ensure_sorted(),
                _ => {
                    p.grad.clear();
                    p.oracle = Oracle::default();
                    p.memo = [None; 2];
                }
            }
            pairs[0].assert_matches(&format!("step {step} op {op} (a)"));
            pairs[1].assert_matches(&format!("step {step} op {op} (b)"));
        }
    }
}

/// One row of the `kind`-th family `rows_above_norm` must not miscount:
/// norms within an ulp or two of `eps`, near the `2·eps` hand-over between
/// the blocked and the in-order test, zeros of both signs, denormals,
/// sums that overflow, ±inf, and NaN anywhere.
fn norm_test_row(kind: u32, dim: usize, eps: f32, rng: &mut StdRng) -> Vec<f32> {
    let random = |rng: &mut StdRng, lo: f32, hi: f32| -> Vec<f32> {
        (0..dim).map(|_| rng.gen_range(lo..hi)).collect()
    };
    let at_norm = |rng: &mut StdRng, target: f32| -> Vec<f32> {
        let mut v = random(rng, -1.0, 1.0);
        let norm = kge_core::matrix::l2_norm(&v);
        for x in v.iter_mut() {
            *x *= target / norm;
        }
        // Nudge one element by up to two ulps either way.
        let k = rng.gen_range(0..dim);
        let nudged = v[k].to_bits() as i64 + rng.gen_range(-2i64..3);
        v[k] = f32::from_bits(nudged.clamp(0, u32::MAX as i64) as u32);
        v
    };
    let with = |rng: &mut StdRng, mut v: Vec<f32>, x: f32| -> Vec<f32> {
        v[rng.gen_range(0..dim)] = x;
        v
    };
    match kind {
        0 => random(rng, -2.0, 2.0),
        1 => at_norm(rng, eps),
        2 => at_norm(rng, 2.0 * eps),
        3 => with(rng, vec![0.0; dim], eps), // a single element at the threshold
        4 => vec![0.0; dim],
        5 => vec![-0.0; dim],
        6 => (0..dim)
            .map(|_| f32::from_bits(rng.gen_range(0..0x0080_0000u32)))
            .collect(),
        7 => random(rng, 1.0e19, 2.0e19), // squares overflow
        8 => {
            let inf = if rng.gen() {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };
            let v = random(rng, -2.0, 2.0);
            with(rng, v, inf)
        }
        _ => {
            let v = if rng.gen() {
                random(rng, -2.0, 2.0)
            } else {
                vec![f32::INFINITY; dim]
            };
            with(rng, v, f32::NAN)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rows_above_norm_counts_what_l2_norm_counts(
        seed in any::<u64>(),
        dim_kind in 0usize..23,
        eps_kind in 0usize..10,
        n_rows in 1u32..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = [64, 128, 257].get(dim_kind).copied().unwrap_or(dim_kind - 2);
        // The trainer's 1e-6, thresholds whose square is zero, subnormal
        // or overflowed, and the ones no caller would pass.
        let eps = [1e-6f32, 1e-3, 1.0, 0.0, 1e-23, 1e-20, 3e19, -1.0, f32::INFINITY, f32::NAN][eps_kind];
        // Thresholds the straddling rows are built around even when `eps`
        // itself is degenerate.
        let around = if eps.is_finite() && eps > 0.0 { eps } else { 1e-6 };
        let mut g = SparseGrad::new(dim);
        let mut want = 0usize;
        for row in 0..n_rows {
            let v = norm_test_row(rng.gen_range(0..10), dim, around, &mut rng);
            want += usize::from(kge_core::matrix::l2_norm(&v) > eps);
            g.row_mut(row).copy_from_slice(&v);
        }
        prop_assert_eq!(g.rows_above_norm(eps), want, "eps {}", eps);
    }
}

/// The id patterns a batch can hand the index — dense runs, runs just
/// under `u32::MAX`, strides of every power of two that fits — never build
/// a long probe chain, at any fill up to the 0.75 load the index allows.
/// (Uniformly random ids reach 40–50 probes at exactly 0.75; the patterns
/// stay far below because multiply-shift spreads arithmetic progressions.)
#[test]
fn structured_ids_keep_probe_chains_short() {
    for n in [12u32, 100, 383, 768, 1500, 3000] {
        for family in 0..34usize {
            if family >= 3 && (n as u64) << (family - 2) > u32::MAX as u64 {
                continue;
            }
            let mut g = SparseGrad::new(1);
            for i in 0..n {
                g.row_mut(family_id(family, i))[0] += 1.0;
            }
            assert_eq!(g.nnz(), n as usize, "family {family}: ids must be distinct");
            assert!(
                g.longest_probe() <= 32,
                "family {family} n {n}: longest probe {}",
                g.longest_probe()
            );
        }
    }
}
