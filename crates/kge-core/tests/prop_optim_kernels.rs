//! Property tests for the optimizer row kernels (`adam_row`, `adagrad_row`
//! behind [`Adam`] / [`Adagrad`]): the kernels at every dispatch level the
//! host has and an independent elementwise reference written out here must
//! agree **bit for bit** — over every row length 1..=200 (so every tail
//! length mod 8), step counts up to 10 000 and values that include ±0,
//! denormals and 1e±30; a dense step must equal the same rows stepped one
//! at a time when the step counters agree; and nothing may depend on the
//! pool width.
//!
//! Changing the level from concurrently running tests is safe precisely
//! because of the property under test: every level produces the same bits,
//! so a mid-run change can only change which code path executes.

use kge_core::simd::{set_level, Level};
use kge_core::{
    Adagrad, AdagradOptimizer, AdagradState, Adam, AdamOptimizer, EmbeddingTable, OptimStateView,
    RowOptimizer, SparseGrad,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values that stress rounding: signed zeros, denormals, the smallest
/// normal, and magnitudes whose squares under- and overflow.
const SPECIALS: [f32; 10] = [
    0.0, -0.0, 1e-40, -1e-42, f32::MIN_POSITIVE, 1e-30, -1e-30, 1e30, -1e30, 1.0,
];

/// `n` values, about one in four drawn from [`SPECIALS`], the rest uniform
/// in `[-scale, scale)`.
fn values(n: usize, scale: f32, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..4u32) == 0 {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-scale..scale)
            }
        })
        .collect()
}

/// Second moments and accumulators are sums of squares: never negative.
fn non_negative(n: usize, scale: f32, rng: &mut StdRng) -> Vec<f32> {
    values(n, scale, rng).into_iter().map(f32::abs).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run `f` once per dispatch level the host has, lowest first, and hand
/// back every result.
fn every_level<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    let out = Level::detected()
        .iter()
        .map(|&level| {
            set_level(Some(level));
            f()
        })
        .collect();
    set_level(None);
    out
}

/// Adam's update rule written out element by element — the semantics every
/// kernel copy must reproduce (§3.3 of the paper; bias-corrected, `eps`
/// outside the root).
fn adam_reference(a: &Adam, t: u32, lr: f32, [m, v, p]: [&mut [f32]; 3], g: &[f32]) {
    let bc1 = 1.0 - a.beta1.powi(t as i32);
    let bc2 = 1.0 - a.beta2.powi(t as i32);
    for k in 0..p.len() {
        m[k] = a.beta1 * m[k] + (1.0 - a.beta1) * g[k];
        v[k] = a.beta2 * v[k] + (1.0 - a.beta2) * g[k] * g[k];
        let mhat = m[k] / bc1;
        let vhat = v[k] / bc2;
        p[k] -= lr * mhat / (vhat.sqrt() + a.eps);
    }
}

fn adagrad_reference(o: &Adagrad, lr: f32, acc: &mut [f32], p: &mut [f32], g: &[f32]) {
    for k in 0..p.len() {
        acc[k] += g[k] * g[k];
        p[k] -= lr * g[k] / (acc[k].sqrt() + o.eps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adam_row_arms_match_the_reference_bitwise(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adam = Adam::default();
        for len in 1..=200usize {
            let t = rng.gen_range(1..=10_000u32);
            let lr = adam.lr * rng.gen_range(0.1f32..4.0);
            let (m0, v0) = (values(len, 1.0, &mut rng), non_negative(len, 1.0, &mut rng));
            let (p0, g) = (values(len, 1.0, &mut rng), values(len, 2.0, &mut rng));

            let (mut m, mut v, mut p) = (m0.clone(), v0.clone(), p0.clone());
            adam_reference(&adam, t, lr, [&mut m, &mut v, &mut p], &g);
            let want = (bits(&m), bits(&v), bits(&p));

            for got in every_level(|| {
                let (mut m, mut v, mut p) = (m0.clone(), v0.clone(), p0.clone());
                let mut rt = t - 1;
                adam.step_row_lazy(&mut rt, &mut m, &mut v, &mut p, &g, lr);
                assert_eq!(rt, t);
                (bits(&m), bits(&v), bits(&p))
            }) {
                prop_assert_eq!(&got, &want, "len={} t={}", len, t);
            }
        }
    }

    #[test]
    fn adagrad_row_arms_match_the_reference_bitwise(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let opt = Adagrad::default();
        for len in 1..=200usize {
            let lr_scale = rng.gen_range(0.1f32..4.0);
            let (p0, g) = (values(len, 1.0, &mut rng), values(len, 2.0, &mut rng));
            // Warm the accumulator with one step so the checked step starts
            // from a non-zero state (the state's fields are private).
            let warm = values(len, 1.0, &mut rng);

            let (mut acc, mut p) = (vec![0.0; len], p0.clone());
            adagrad_reference(&opt, opt.lr, &mut acc, &mut p, &warm);
            adagrad_reference(&opt, opt.lr * lr_scale, &mut acc, &mut p, &g);
            let want = bits(&p);

            // Row 1 of a 3-row table through the lazy step, and the same
            // values as a 1-row table through the dense step.
            for got in every_level(|| {
                let mut table = EmbeddingTable::zeros(3, len);
                table.row_mut(1).copy_from_slice(&p0);
                let mut state = AdagradState::new(3, len);
                let mut sg = SparseGrad::new(len);
                sg.row_mut(1).copy_from_slice(&warm);
                opt.step_lazy(&mut state, &mut table, &sg, 1.0);
                sg.row_mut(1).copy_from_slice(&g);
                opt.step_lazy(&mut state, &mut table, &sg, lr_scale);

                let mut dense = EmbeddingTable::zeros(1, len);
                dense.row_mut(0).copy_from_slice(&p0);
                let mut dstate = AdagradState::new(1, len);
                opt.step_dense(&mut dstate, &mut dense, &warm, 1.0);
                opt.step_dense(&mut dstate, &mut dense, &g, lr_scale);
                (bits(table.row(1)), bits(dense.as_slice()))
            }) {
                prop_assert_eq!(&got.0, &want, "lazy len={}", len);
                prop_assert_eq!(&got.1, &want, "dense len={}", len);
            }
        }
    }

    /// A dense step cuts the flat table into 8192-element chunks, a lazy
    /// step and `step_row_lazy` cut it into rows; where the counters agree
    /// (every row touched on every step) all three must give the same bits,
    /// although their 8-lane groups and scalar tails fall on different
    /// elements.
    #[test]
    fn dense_step_equals_rows_stepped_one_by_one(seed in any::<u64>(), dim in 1usize..140) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = 9_000 / dim + 2; // more than one dense chunk
        let adam = Adam::default();
        let p0 = values(rows * dim, 1.0, &mut rng);
        let grads: Vec<Vec<f32>> = (0..3).map(|_| values(rows * dim, 2.0, &mut rng)).collect();

        let (mut m, mut v, mut p) = (vec![0.0; rows * dim], vec![0.0; rows * dim], p0.clone());
        for (step, g) in grads.iter().enumerate() {
            for r in 0..rows {
                let w = r * dim..(r + 1) * dim;
                let (mut rt, g) = (step as u32, &g[w.clone()]);
                let (m, v, p) = (&mut m[w.clone()], &mut v[w.clone()], &mut p[w]);
                adam.step_row_lazy(&mut rt, m, v, p, g, adam.lr);
            }
        }
        let want = (bits(&m), bits(&v), bits(&p));

        for got in every_level(|| {
            let mut dense = AdamOptimizer::new(adam, rows, dim);
            let mut lazy = AdamOptimizer::new(adam, rows, dim);
            let mut t_dense = EmbeddingTable::zeros(rows, dim);
            t_dense.as_mut_slice().copy_from_slice(&p0);
            let mut t_lazy = t_dense.clone();
            let mut sg = SparseGrad::new(dim);
            for g in &grads {
                dense.step_dense(&mut t_dense, g, 1.0);
                sg.clear();
                // Reverse insertion order: row updates are independent.
                for r in (0..rows).rev() {
                    sg.row_mut(r as u32).copy_from_slice(&g[r * dim..(r + 1) * dim]);
                }
                lazy.step_lazy(&mut t_lazy, &sg, 1.0);
            }
            [(dense, t_dense), (lazy, t_lazy)].map(|(opt, table)| match opt.state_view() {
                OptimStateView::Adam { m, v, .. } => (bits(m), bits(v), bits(table.as_slice())),
                other => panic!("adam optimizer returned {other:?}"),
            })
        }) {
            prop_assert_eq!(&got[0], &want, "dense, dim={}", dim);
            prop_assert_eq!(&got[1], &want, "lazy, dim={}", dim);
        }
    }
}

/// The parallel fan-out partitions work by chunk or row but applies the
/// exact sequential per-element update, so results must match bit for bit
/// at any pool width — `RAYON_NUM_THREADS` resolves to the same pool width
/// [`rayon::ThreadPool::install`] pins here.
#[test]
fn steps_are_independent_of_the_thread_count() {
    const ROWS: usize = 300;
    const DIM: usize = 61; // 18 300 elements: three dense chunks, odd tails
    let mut rng = StdRng::seed_from_u64(5);
    let mut sg = SparseGrad::new(DIM);
    for row in [3u32, 0, 299, 150, 7, 8, 200] {
        sg.row_mut(row).copy_from_slice(&values(DIM, 2.0, &mut rng));
    }
    let dense = values(ROWS * DIM, 2.0, &mut rng);
    let p0 = values(ROWS * DIM, 1.0, &mut rng);

    let run = |threads: usize| -> Vec<u32> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut out = Vec::new();
            let opts: [Box<dyn RowOptimizer>; 2] = [
                Box::new(AdamOptimizer::new(Adam::default(), ROWS, DIM)),
                Box::new(AdagradOptimizer::new(Adagrad::default(), ROWS, DIM)),
            ];
            for mut opt in opts {
                let mut table = EmbeddingTable::zeros(ROWS, DIM);
                table.as_mut_slice().copy_from_slice(&p0);
                for _ in 0..3 {
                    opt.step_lazy(&mut table, &sg, 1.0);
                    opt.step_dense(&mut table, &dense, 1.0);
                }
                out.extend(bits(table.as_slice()));
            }
            out
        })
    };

    let runs = every_level(|| run(1));
    for (level, got) in Level::detected().iter().zip(&runs) {
        assert_eq!(got, &runs[0], "{level:?} diverged from Scalar");
    }
    let scalar = &runs[0];
    for threads in [2usize, 4, 8] {
        assert_eq!(*scalar, run(threads), "threads={threads}");
    }
}
