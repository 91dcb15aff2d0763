//! Property test: `SparseGrad` against an oracle that is a `BTreeMap` of
//! rows plus the order they first appeared in. Random interleavings of
//! `row_mut`, the slot API, `merge`, the first-chunk swap, `retain`,
//! `ensure_sorted` and `clear` must leave the same rows, the same value
//! bits and the same insertion order, and `iter_sorted` must walk them in
//! ascending row order — for id families chosen to stress the index hash:
//! dense runs, strides of 2^k, ids just under `u32::MAX` — with a row
//! bound declared mid-stream (`reserve_rows`), so rows looked up through
//! the map and rows looked up through the index share one accumulator. A
//! second test bounds the longest probe chain those families produce (the
//! index keeps load ≤ 0.75). A third holds `rows_above_norm`'s blocked fast
//! path to the in-order `l2_norm(row) > eps` it stands for, on the rows
//! where the two sums could disagree. A fourth holds the ascending order
//! `ensure_sorted` reads off the map to the one it sorts, at densities
//! around the switch between the two.

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

/// Row bounds past 2^20 would cost a 4 MB map per accumulator, so the
/// declared bound is capped there: the families whose ids lie beyond it
/// (`u32::MAX − i`, the scattered ids, the widest strides) keep every row
/// on the index at every bound, as an undeclared accumulator does.
const BOUND_CAP: usize = 1 << 20;

/// The bound the `kind`-th case declares over the ids `family_id(family,
/// 0..pool)`: none (0), the middle of their span, or past all of them.
fn declared_bound(family: usize, pool: u32, kind: usize) -> usize {
    let ids = (0..pool).map(|i| family_id(family, i) as usize);
    let (lo, hi) = (ids.clone().min().unwrap(), ids.max().unwrap());
    [0, lo + (hi - lo) / 2, hi + 1][kind].min(BOUND_CAP)
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

/// An accumulator under test and its oracle.
struct Pair {
    grad: SparseGrad,
    oracle: Oracle,
}

impl Pair {
    fn new() -> Self {
        Pair {
            grad: SparseGrad::new(DIM),
            oracle: Oracle::default(),
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
        bound_kind in 0usize..3,
        reserve_at in (0usize..400, 0usize..400),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = [Pair::new(), Pair::new()];
        let bound = declared_bound(family, pool, bound_kind);
        let reserve_at = [reserve_at.0 % n_ops, reserve_at.1 % n_ops];
        for step in 0..n_ops {
            // Each accumulator declares the bound at its own step; merges
            // pass it on before that.
            for (p, &at) in pairs.iter_mut().zip(&reserve_at) {
                if step == at {
                    p.grad.reserve_rows(bound);
                    p.assert_matches(&format!("step {step}: after reserve_rows({bound})"));
                }
            }
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
                    // The kernel's access pattern: resolve the slot, then
                    // add through the slot or the slab.
                    let slot = p.grad.slot_of(row);
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
                }
                90..=96 => p.grad.ensure_sorted(),
                _ => {
                    p.grad.clear();
                    p.oracle = Oracle::default();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `ensure_sorted` reads the ascending order off the map when the map
    /// holds every row and they fill at least 1/16 of it, and sorts
    /// otherwise. At densities either side of that switch, with and
    /// without a row past the bound (which forces the sort), and again
    /// after a `clear`, its order is the one an accumulator with no bound
    /// sorts: same rows, same slots, same value bits.
    #[test]
    fn sorted_order_off_the_map_is_the_sorted_order(
        seed in any::<u64>(),
        bound in 1usize..4096,
        around in 0usize..9,
        past in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut walked = SparseGrad::new(DIM);
        walked.reserve_rows(bound);
        let mut sorted = SparseGrad::new(DIM);
        let mut ids: Vec<u32> = (0..bound as u32).collect();
        for round in 0..2 {
            walked.clear();
            sorted.clear();
            let n = (bound / 16 + around).saturating_sub(4 + round).clamp(1, bound);
            for i in 0..n {
                let j = rng.gen_range(i..bound);
                ids.swap(i, j);
            }
            let mut rows = ids[..n].to_vec();
            if past == 1 {
                rows.insert(rng.gen_range(0..=n), bound as u32 + rng.gen_range(0..1000u32));
            }
            for (i, &row) in rows.iter().enumerate() {
                for g in [&mut walked, &mut sorted] {
                    g.row_mut(row)[i % DIM] += i as f32 + 0.5;
                }
            }
            walked.ensure_sorted();
            sorted.ensure_sorted();
            let slots = |g: &SparseGrad| g.sorted_slots().collect::<Vec<_>>();
            prop_assert_eq!(slots(&walked), slots(&sorted), "round {} n {}", round, n);
            let order = |g: &SparseGrad| {
                g.iter_sorted()
                    .map(|(r, v)| (r, v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()))
                    .collect::<Vec<_>>()
            };
            let want = order(&sorted);
            prop_assert!(want.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert_eq!(order(&walked), want, "round {} n {}", round, n);
        }
    }
}
