//! Optimizers: Adam and AdaGrad, each dense and lazy row-sparse.
//!
//! The paper trains with Adam (§3.3). In the all-reduce path the aggregated
//! gradient arrives as a dense matrix and a **dense** Adam step is applied
//! (all moments decay every step, like Horovod + `tf.train.AdamOptimizer`);
//! in the all-gather path only touched rows are known, so a **lazy** step
//! updates just those rows, with per-row step counters for bias correction
//! (like TensorFlow's sparse Adam). Both styles are provided and the
//! trainer picks per communication mode, mirroring the paper's baseline
//! "dense updates" vs "sparse updates" distinction.

use crate::grad::SparseGrad;
use crate::matrix::EmbeddingTable;
use rayon::par_split_mut;

/// Elements per unit of a parallel dense step: the split never cuts finer,
/// so a small table runs on one thread. The update is elementwise, so the
/// bits do not depend on where the runs are cut.
const DENSE_CHUNK: usize = 8192;

/// Lazy fan-out: `f(row, rows, g)` for every stored row of `grad`, where
/// `rows[k]` is that row of `bufs[k]`. The buffers are split by row range
/// into one run per thread, and each run applies the gradient entries whose
/// rows fall inside it, in insertion order straight off the slab. Row
/// updates are disjoint and self-contained, so the bits are the same at any
/// width.
fn for_each_grad_row<const K: usize>(
    bufs: [&mut [f32]; K],
    grad: &SparseGrad,
    f: impl Fn(u32, [&mut [f32]; K], &[f32]) + Sync,
) {
    let dim = grad.dim().max(1);
    let rows = bufs[0].len() / dim;
    for i in 0..grad.nnz() {
        let row = grad.entry(i).0;
        assert!((row as usize) < rows, "gradient row {row} out of range");
    }
    par_split_mut(bufs, dim, |start, mut run| {
        let first = start / dim;
        let span = first..first + run[0].len() / dim;
        for i in 0..grad.nnz() {
            let (row, g) = grad.entry(i);
            if span.contains(&(row as usize)) {
                let at = (row as usize - first) * dim;
                f(row, run.each_mut().map(|b| &mut b[at..at + dim]), g);
            }
        }
    });
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
}

impl Default for Adam {
    fn default() -> Self {
        Adam {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Moment state for one embedding table.
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    /// Global step count (dense style).
    t: u64,
    /// Per-row step counts (lazy style).
    row_t: Vec<u32>,
    dim: usize,
}

impl AdamState {
    pub fn new(rows: usize, dim: usize) -> Self {
        AdamState {
            m: vec![0.0; rows * dim],
            v: vec![0.0; rows * dim],
            t: 0,
            row_t: vec![0; rows],
            dim,
        }
    }

    /// Number of flops a dense step costs (for the simulated clock).
    pub fn dense_step_flops(&self) -> f64 {
        (self.m.len() * 12) as f64
    }

    /// Flops for a lazy step over `nnz` rows.
    pub fn lazy_step_flops(&self, nnz: usize) -> f64 {
        (nnz * self.dim * 12) as f64
    }
}

/// The Adam row kernel: one update of `p` and its moments `m`, `v` from the
/// gradient `g` with bias corrections `bc` and the already-scaled rate `lr`,
/// elementwise in index order. Every Adam step in the workspace — dense
/// chunks, lazy rows, the sharded store's rows, the parameter server — runs it.
///
/// One body, [`adam_row_body`], compiled twice: as is, and with AVX enabled
/// at [`crate::simd::Level::Avx`] and above. The update is elementwise
/// mul/add/sub/div/sqrt, each correctly rounded in any vector width, and
/// `avx` never licenses a fused multiply-add, so both copies give the same
/// bits.
#[inline]
fn adam_row(a: &Adam, bc: [f32; 2], lr: f32, [m, v, p]: [&mut [f32]; 3], g: &[f32]) {
    let n = p.len();
    assert!(m.len() == n && v.len() == n && g.len() == n);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx() {
        // SAFETY: AVX was just detected at runtime.
        return unsafe { adam_row_avx(a, bc, lr, m, v, p, g) };
    }
    adam_row_body(a, bc, lr, m, v, p, g)
}

/// [`adam_row_body`] compiled with AVX: the loop vectorizes eight wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn adam_row_avx(
    a: &Adam,
    bc: [f32; 2],
    lr: f32,
    m: &mut [f32],
    v: &mut [f32],
    p: &mut [f32],
    g: &[f32],
) {
    adam_row_body(a, bc, lr, m, v, p, g)
}

/// The update itself. The moments and the row come as separate slices, not
/// an array of them, so the compiler sees that they do not alias.
#[inline(always)]
fn adam_row_body(
    a: &Adam,
    bc: [f32; 2],
    lr: f32,
    m: &mut [f32],
    v: &mut [f32],
    p: &mut [f32],
    g: &[f32],
) {
    let (omb1, omb2) = (1.0 - a.beta1, 1.0 - a.beta2);
    for (((m, v), p), &gv) in m.iter_mut().zip(v.iter_mut()).zip(p.iter_mut()).zip(g) {
        *m = a.beta1 * *m + omb1 * gv;
        *v = a.beta2 * *v + omb2 * gv * gv;
        let mhat = *m / bc[0];
        let vhat = *v / bc[1];
        *p -= lr * mhat / (vhat.sqrt() + a.eps);
    }
}

impl Adam {
    /// `[1 − β1ᵗ, 1 − β2ᵗ]`, the bias corrections at step count `t`.
    #[inline]
    fn bias_correction(&self, t: i32) -> [f32; 2] {
        [1.0 - self.beta1.powi(t), 1.0 - self.beta2.powi(t)]
    }

    /// Dense step: apply `grad` (same shape as the table) everywhere with a
    /// single global step counter. `lr_scale` multiplies the base learning
    /// rate (the paper's capped linear scaling / plateau schedule).
    pub fn step_dense(
        &self,
        state: &mut AdamState,
        table: &mut EmbeddingTable,
        grad: &[f32],
        lr_scale: f32,
    ) {
        state.t += 1;
        let (bc, lr) = (self.bias_correction(state.t as i32), self.lr * lr_scale);
        let bufs = [&mut state.m[..], &mut state.v[..], table.as_mut_slice()];
        assert_eq!(grad.len(), bufs[0].len());
        par_split_mut(bufs, DENSE_CHUNK, |start, w| {
            let g = &grad[start..][..w[0].len()];
            adam_row(self, bc, lr, w, g)
        });
    }

    /// The lazy update for a single row: bump its step counter, decay the
    /// moments, apply the bias-corrected step. `lr` is the already-scaled
    /// learning rate (`self.lr * lr_scale`). This is the exact per-row
    /// update of [`Adam::step_lazy`], exposed so row stores that keep
    /// parameters outside an [`EmbeddingTable`] (the sharded store's owner
    /// arena and hot cache) apply bit-identical math.
    #[inline]
    pub fn step_row_lazy(
        &self,
        rt: &mut u32,
        m: &mut [f32],
        v: &mut [f32],
        p: &mut [f32],
        g: &[f32],
        lr: f32,
    ) {
        *rt += 1;
        adam_row(self, self.bias_correction(*rt as i32), lr, [m, v, p], g);
    }

    /// Lazy step: update only the rows present in `grad`, with per-row bias
    /// correction. Rows never touched keep their stale moments untouched
    /// (TensorFlow `sparse_apply_adam` semantics).
    pub fn step_lazy(
        &self,
        state: &mut AdamState,
        table: &mut EmbeddingTable,
        grad: &SparseGrad,
        lr_scale: f32,
    ) {
        assert_eq!(grad.dim(), table.dim());
        let (lr, row_t) = (self.lr * lr_scale, &mut state.row_t[..]);
        // The step counters are bumped ahead of the parallel region, which
        // then only reads them.
        for i in 0..grad.nnz() {
            let row = grad.entry(i).0 as usize;
            assert!(row < row_t.len(), "gradient row {row} out of range");
            row_t[row] += 1;
        }
        let bufs = [&mut state.m[..], &mut state.v[..], table.as_mut_slice()];
        let bc = |row: u32| self.bias_correction(row_t[row as usize] as i32);
        for_each_grad_row(bufs, grad, |row, w, g| adam_row(self, bc(row), lr, w, g));
    }
}

/// AdaGrad — the optimizer DGL-KE ships for KGE training; simpler state
/// than Adam (one accumulator) and well-suited to sparse rows because the
/// per-coordinate scaling is independent of update frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adagrad {
    pub lr: f32,
    pub eps: f32,
}

impl Default for Adagrad {
    fn default() -> Self {
        Adagrad { lr: 0.1, eps: 1e-10 }
    }
}

/// Squared-gradient accumulator for one table.
#[derive(Debug, Clone)]
pub struct AdagradState {
    accum: Vec<f32>,
    dim: usize,
}

impl AdagradState {
    pub fn new(rows: usize, dim: usize) -> Self {
        AdagradState {
            accum: vec![0.0; rows * dim],
            dim,
        }
    }

    /// Flops for a lazy step over `nnz` rows (for the simulated clock).
    pub fn lazy_step_flops(&self, nnz: usize) -> f64 {
        (nnz * self.dim * 6) as f64
    }
}

/// The AdaGrad row kernel: accumulate `g²` into `acc` and step `p`,
/// elementwise and in index order. Same dispatch and bit-identity argument
/// as [`adam_row`].
#[inline]
fn adagrad_row(lr: f32, eps: f32, [acc, p]: [&mut [f32]; 2], g: &[f32]) {
    let n = p.len();
    assert!(acc.len() == n && g.len() == n);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx() {
        // SAFETY: AVX was just detected at runtime.
        return unsafe { adagrad_row_avx(lr, eps, acc, p, g) };
    }
    adagrad_row_body(lr, eps, acc, p, g)
}

/// [`adagrad_row_body`] compiled with AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn adagrad_row_avx(lr: f32, eps: f32, acc: &mut [f32], p: &mut [f32], g: &[f32]) {
    adagrad_row_body(lr, eps, acc, p, g)
}

#[inline(always)]
fn adagrad_row_body(lr: f32, eps: f32, acc: &mut [f32], p: &mut [f32], g: &[f32]) {
    for ((acc, p), &gv) in acc.iter_mut().zip(p.iter_mut()).zip(g) {
        *acc += gv * gv;
        *p -= lr * gv / (acc.sqrt() + eps);
    }
}

impl Adagrad {
    /// Row-sparse step: update only the rows present in `grad`.
    pub fn step_lazy(
        &self,
        state: &mut AdagradState,
        table: &mut EmbeddingTable,
        grad: &SparseGrad,
        lr_scale: f32,
    ) {
        assert_eq!(grad.dim(), table.dim());
        let (lr, eps) = (self.lr * lr_scale, self.eps);
        let bufs = [&mut state.accum[..], table.as_mut_slice()];
        for_each_grad_row(bufs, grad, |_, w, g| adagrad_row(lr, eps, w, g));
    }

    /// Dense step over the full table.
    pub fn step_dense(
        &self,
        state: &mut AdagradState,
        table: &mut EmbeddingTable,
        grad: &[f32],
        lr_scale: f32,
    ) {
        let (lr, eps) = (self.lr * lr_scale, self.eps);
        let bufs = [&mut state.accum[..], table.as_mut_slice()];
        assert_eq!(grad.len(), bufs[0].len());
        par_split_mut(bufs, DENSE_CHUNK, |start, w| {
            let g = &grad[start..][..w[0].len()];
            adagrad_row(lr, eps, w, g)
        });
    }
}

/// Borrowed view of an optimizer's mutable state, used by checkpointing to
/// read the moments out of (and load them back into) a live optimizer
/// without exposing the state fields themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimStateView<'a> {
    Adam {
        m: &'a [f32],
        v: &'a [f32],
        t: u64,
        row_t: &'a [u32],
    },
    Adagrad {
        accum: &'a [f32],
    },
    /// The optimizer carries no state between steps (plain SGD).
    Stateless,
}

/// Object-safe optimizer interface the trainer drives: one instance per
/// embedding table, bundling hyper-parameters and state.
pub trait RowOptimizer: Send {
    /// Apply a dense gradient (same shape as the table).
    fn step_dense(&mut self, table: &mut EmbeddingTable, grad: &[f32], lr_scale: f32);
    /// Apply a row-sparse gradient.
    fn step_lazy(&mut self, table: &mut EmbeddingTable, grad: &SparseGrad, lr_scale: f32);
    /// Simulated flops of a dense step.
    fn dense_step_flops(&self) -> f64;
    /// Simulated flops of a lazy step over `nnz` rows.
    fn lazy_step_flops(&self, nnz: usize) -> f64;
    /// Borrow the optimizer's state for serialization.
    fn state_view(&self) -> OptimStateView<'_> {
        OptimStateView::Stateless
    }
    /// Overwrite the optimizer's state from a deserialized view. Fails
    /// (without mutating anything) when the view's variant or shapes do
    /// not match this optimizer.
    fn load_state(&mut self, state: OptimStateView<'_>) -> Result<(), String> {
        match state {
            OptimStateView::Stateless => Ok(()),
            other => Err(format!("cannot load {other:?} into a stateless optimizer")),
        }
    }
}

/// [`Adam`] + its state as a [`RowOptimizer`].
pub struct AdamOptimizer {
    pub cfg: Adam,
    pub state: AdamState,
}

impl AdamOptimizer {
    pub fn new(cfg: Adam, rows: usize, dim: usize) -> Self {
        AdamOptimizer {
            cfg,
            state: AdamState::new(rows, dim),
        }
    }
}

impl RowOptimizer for AdamOptimizer {
    fn step_dense(&mut self, table: &mut EmbeddingTable, grad: &[f32], lr_scale: f32) {
        self.cfg.step_dense(&mut self.state, table, grad, lr_scale);
    }

    fn step_lazy(&mut self, table: &mut EmbeddingTable, grad: &SparseGrad, lr_scale: f32) {
        self.cfg.step_lazy(&mut self.state, table, grad, lr_scale);
    }

    fn dense_step_flops(&self) -> f64 {
        self.state.dense_step_flops()
    }

    fn lazy_step_flops(&self, nnz: usize) -> f64 {
        self.state.lazy_step_flops(nnz)
    }

    fn state_view(&self) -> OptimStateView<'_> {
        OptimStateView::Adam {
            m: &self.state.m,
            v: &self.state.v,
            t: self.state.t,
            row_t: &self.state.row_t,
        }
    }

    fn load_state(&mut self, state: OptimStateView<'_>) -> Result<(), String> {
        match state {
            OptimStateView::Adam { m, v, t, row_t } => {
                if m.len() != self.state.m.len()
                    || v.len() != self.state.v.len()
                    || row_t.len() != self.state.row_t.len()
                {
                    return Err(format!(
                        "adam state shape mismatch: have {}x{} moments / {} rows, \
                         got {} / {} / {}",
                        self.state.row_t.len(),
                        self.state.dim,
                        self.state.row_t.len(),
                        m.len(),
                        v.len(),
                        row_t.len()
                    ));
                }
                self.state.m.copy_from_slice(m);
                self.state.v.copy_from_slice(v);
                self.state.t = t;
                self.state.row_t.copy_from_slice(row_t);
                Ok(())
            }
            other => Err(format!("cannot load {other:?} into an Adam optimizer")),
        }
    }
}

/// [`Adagrad`] + its state as a [`RowOptimizer`].
pub struct AdagradOptimizer {
    pub cfg: Adagrad,
    pub state: AdagradState,
}

impl AdagradOptimizer {
    pub fn new(cfg: Adagrad, rows: usize, dim: usize) -> Self {
        AdagradOptimizer {
            cfg,
            state: AdagradState::new(rows, dim),
        }
    }
}

impl RowOptimizer for AdagradOptimizer {
    fn step_dense(&mut self, table: &mut EmbeddingTable, grad: &[f32], lr_scale: f32) {
        self.cfg.step_dense(&mut self.state, table, grad, lr_scale);
    }

    fn step_lazy(&mut self, table: &mut EmbeddingTable, grad: &SparseGrad, lr_scale: f32) {
        self.cfg.step_lazy(&mut self.state, table, grad, lr_scale);
    }

    fn dense_step_flops(&self) -> f64 {
        (self.state.accum.len() * 6) as f64
    }

    fn lazy_step_flops(&self, nnz: usize) -> f64 {
        self.state.lazy_step_flops(nnz)
    }

    fn state_view(&self) -> OptimStateView<'_> {
        OptimStateView::Adagrad {
            accum: &self.state.accum,
        }
    }

    fn load_state(&mut self, state: OptimStateView<'_>) -> Result<(), String> {
        match state {
            OptimStateView::Adagrad { accum } => {
                if accum.len() != self.state.accum.len() {
                    return Err(format!(
                        "adagrad state shape mismatch: have {} values, got {}",
                        self.state.accum.len(),
                        accum.len()
                    ));
                }
                self.state.accum.copy_from_slice(accum);
                Ok(())
            }
            other => Err(format!("cannot load {other:?} into an Adagrad optimizer")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(table: &EmbeddingTable) -> Vec<f32> {
        // d/dx of 0.5‖x − 1‖²  =  x − 1
        table.as_slice().iter().map(|&x| x - 1.0).collect()
    }

    #[test]
    fn dense_adam_minimizes_quadratic() {
        let mut table = EmbeddingTable::zeros(4, 3);
        let mut state = AdamState::new(4, 3);
        let adam = Adam {
            lr: 0.05,
            ..Adam::default()
        };
        for _ in 0..500 {
            let g = quadratic_grad(&table);
            adam.step_dense(&mut state, &mut table, &g, 1.0);
        }
        for &x in table.as_slice() {
            assert!((x - 1.0).abs() < 1e-2, "did not converge: {x}");
        }
    }

    #[test]
    fn lazy_adam_only_touches_given_rows() {
        let mut table = EmbeddingTable::zeros(3, 2);
        let mut state = AdamState::new(3, 2);
        let adam = Adam::default();
        let mut g = SparseGrad::new(2);
        g.row_mut(1).copy_from_slice(&[1.0, -1.0]);
        adam.step_lazy(&mut state, &mut table, &g, 1.0);
        assert_eq!(table.row(0), &[0.0, 0.0]);
        assert_eq!(table.row(2), &[0.0, 0.0]);
        assert!(table.row(1)[0] < 0.0 && table.row(1)[1] > 0.0);
    }

    #[test]
    fn lazy_and_dense_agree_on_first_step_for_touched_rows() {
        // On the very first step both styles have t=1 for the touched row,
        // so the updates coincide exactly there.
        let mut t_dense = EmbeddingTable::zeros(2, 2);
        let mut t_lazy = t_dense.clone();
        let mut s_dense = AdamState::new(2, 2);
        let mut s_lazy = AdamState::new(2, 2);
        let adam = Adam::default();

        let mut sg = SparseGrad::new(2);
        sg.row_mut(0).copy_from_slice(&[0.3, -0.7]);
        let dg = sg.to_dense(2);

        adam.step_dense(&mut s_dense, &mut t_dense, &dg, 1.0);
        adam.step_lazy(&mut s_lazy, &mut t_lazy, &sg, 1.0);
        assert_eq!(t_dense.row(0), t_lazy.row(0));
        assert_eq!(t_lazy.row(1), &[0.0, 0.0]);
        // Dense applied a (zero) update to row 1 as well — numerically zero.
        assert_eq!(t_dense.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn lr_scale_scales_first_step() {
        let adam = Adam::default();
        let mut t1 = EmbeddingTable::zeros(1, 1);
        let mut s1 = AdamState::new(1, 1);
        adam.step_dense(&mut s1, &mut t1, &[1.0], 1.0);
        let mut t4 = EmbeddingTable::zeros(1, 1);
        let mut s4 = AdamState::new(1, 1);
        adam.step_dense(&mut s4, &mut t4, &[1.0], 4.0);
        let u1 = -t1.as_slice()[0];
        let u4 = -t4.as_slice()[0];
        assert!((u4 - 4.0 * u1).abs() < 1e-9);
    }

    #[test]
    fn flop_estimates_positive() {
        let s = AdamState::new(10, 4);
        assert!(s.dense_step_flops() > 0.0);
        assert!(s.lazy_step_flops(3) < s.dense_step_flops());
    }

    #[test]
    fn adagrad_minimizes_quadratic() {
        let mut table = EmbeddingTable::zeros(2, 2);
        let mut state = AdagradState::new(2, 2);
        let opt = Adagrad { lr: 0.5, eps: 1e-10 };
        for _ in 0..800 {
            let g = quadratic_grad(&table);
            opt.step_dense(&mut state, &mut table, &g, 1.0);
        }
        for &x in table.as_slice() {
            assert!((x - 1.0).abs() < 5e-2, "did not converge: {x}");
        }
    }

    #[test]
    fn adagrad_lazy_touches_only_given_rows() {
        let mut table = EmbeddingTable::zeros(3, 2);
        let mut state = AdagradState::new(3, 2);
        let opt = Adagrad::default();
        let mut g = SparseGrad::new(2);
        g.row_mut(2).copy_from_slice(&[1.0, -2.0]);
        opt.step_lazy(&mut state, &mut table, &g, 1.0);
        assert_eq!(table.row(0), &[0.0, 0.0]);
        assert_eq!(table.row(1), &[0.0, 0.0]);
        assert!(table.row(2)[0] < 0.0 && table.row(2)[1] > 0.0);
        assert!(state.lazy_step_flops(1) > 0.0);
    }

    #[test]
    fn adagrad_steps_shrink_over_time() {
        // The accumulator grows, so constant gradients produce shrinking
        // updates — AdaGrad's defining property.
        let mut table = EmbeddingTable::zeros(1, 1);
        let mut state = AdagradState::new(1, 1);
        let opt = Adagrad { lr: 1.0, eps: 1e-10 };
        let mut prev = f32::INFINITY;
        for _ in 0..5 {
            let before = table.as_slice()[0];
            opt.step_dense(&mut state, &mut table, &[1.0], 1.0);
            let step = (before - table.as_slice()[0]).abs();
            assert!(step < prev);
            prev = step;
        }
    }

    #[test]
    fn state_view_roundtrips_through_load() {
        // Step two optimizers differently, copy the first one's state into
        // the second, and check the next step is bit-identical.
        let mut g = SparseGrad::new(2);
        g.row_mut(1).copy_from_slice(&[0.4, -0.9]);
        for (mut a, mut b) in [
            (
                Box::new(AdamOptimizer::new(Adam::default(), 2, 2)) as Box<dyn RowOptimizer>,
                Box::new(AdamOptimizer::new(Adam::default(), 2, 2)) as Box<dyn RowOptimizer>,
            ),
            (
                Box::new(AdagradOptimizer::new(Adagrad::default(), 2, 2)),
                Box::new(AdagradOptimizer::new(Adagrad::default(), 2, 2)),
            ),
        ] {
            let mut ta = EmbeddingTable::zeros(2, 2);
            for _ in 0..3 {
                a.step_lazy(&mut ta, &g, 1.0);
            }
            b.load_state(a.state_view()).unwrap();
            let mut tb = ta.clone();
            a.step_lazy(&mut ta, &g, 1.0);
            b.step_lazy(&mut tb, &g, 1.0);
            assert_eq!(ta.as_slice(), tb.as_slice());
            assert_eq!(a.state_view(), b.state_view());
        }
        // Mismatched shapes and variants are rejected, not applied.
        let mut adam = AdamOptimizer::new(Adam::default(), 2, 2);
        let small = AdamOptimizer::new(Adam::default(), 1, 2);
        assert!(adam.load_state(small.state_view()).is_err());
        let ada = AdagradOptimizer::new(Adagrad::default(), 2, 2);
        assert!(adam.load_state(ada.state_view()).is_err());
    }

    #[test]
    fn row_optimizer_trait_objects_step() {
        let mut opts: Vec<Box<dyn RowOptimizer>> = vec![
            Box::new(AdamOptimizer::new(Adam::default(), 2, 2)),
            Box::new(AdagradOptimizer::new(Adagrad::default(), 2, 2)),
        ];
        for opt in opts.iter_mut() {
            let mut table = EmbeddingTable::zeros(2, 2);
            let mut g = SparseGrad::new(2);
            g.row_mut(1).copy_from_slice(&[1.0, -1.0]);
            opt.step_lazy(&mut table, &g, 1.0);
            assert_eq!(table.row(0), &[0.0, 0.0]);
            assert!(table.row(1)[0] < 0.0);
            assert!(opt.dense_step_flops() > opt.lazy_step_flops(1));
        }
    }
}
