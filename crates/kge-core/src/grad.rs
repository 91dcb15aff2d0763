//! Row-sparse gradient accumulation.
//!
//! A KGE batch only touches the embedding rows of the entities/relations
//! that appear in it, so per-batch gradients are naturally row-sparse.
//! [`SparseGrad`] accumulates per-row contributions in a slab allocation
//! that is reused across batches (no per-row `Vec`s). Row lookup goes
//! through a small open-addressed hash index (no `HashMap`, no per-insert
//! allocation once capacity is warm), and the ascending-row iteration
//! order used by deterministic reductions is **cached**: it is rebuilt at
//! most once per batch by [`SparseGrad::ensure_sorted`] instead of being
//! cloned and re-sorted on every [`SparseGrad::iter_sorted`] call.
//!
//! `clear()` keeps every allocation (slab, index, sorted cache), so after
//! a warm-up pass the accumulator is reusable with zero heap traffic.

use std::borrow::Cow;

/// Empty marker in the open-addressed index.
const EMPTY: u64 = u64::MAX;

/// Sentinel for "sorted cache definitely stale" (set by `retain`, which
/// can remove rows without changing `rows.len()` validity bookkeeping).
const STALE: usize = usize::MAX;

/// `(row << 32) | slot`: the index's entry format, and the sorted cache's,
/// where it makes ascending `u64` order ascending row order.
#[inline]
fn pack(row: u32, slot: usize) -> u64 {
    ((row as u64) << 32) | slot as u64
}

/// Accumulator of row-sparse gradients for one embedding table.
#[derive(Debug, Clone)]
pub struct SparseGrad {
    dim: usize,
    /// Open-addressed index of [`pack`]ed entries, linear probing from a
    /// multiply-shift home position. Length is always a power of two (or
    /// zero before first insert). Slots and every iteration order come
    /// from `rows`, never from where the hash put an entry.
    index: Vec<u64>,
    /// `64 - log2(index.len())`: the multiply-shift hash keeps the top bits.
    shift: u32,
    /// Row ids in insertion order; `rows[slot]` names slot's row.
    rows: Vec<u32>,
    /// Slab: slot `i` spans `i*dim..(i+1)*dim`.
    data: Vec<f32>,
    /// Cached [`pack`]ed entries in ascending row order (valid iff
    /// `sorted_stamp == rows.len()`).
    sorted: Vec<u64>,
    sorted_stamp: usize,
    /// One `f32` per slot for a pass over the rows to park its working
    /// values in (see [`SparseGrad::slot_scratch_mut`]); kept here, like
    /// the sorted cache, so its capacity is reused across batches.
    slot_scratch: Vec<f32>,
}

impl SparseGrad {
    /// New accumulator for rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        SparseGrad {
            dim,
            index: Vec::new(),
            shift: 0,
            rows: Vec::new(),
            data: Vec::new(),
            sorted: Vec::new(),
            sorted_stamp: 0,
            slot_scratch: Vec::new(),
        }
    }

    /// Row width.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct rows with accumulated gradient.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// True if no row has been touched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Home position of `row` in a non-empty index: Fibonacci
    /// multiply-shift, which spreads the id patterns a batch produces
    /// (dense runs, strides of 2^k) instead of mixing them at three
    /// multiplies per probe.
    #[inline]
    fn home(&self, row: u32) -> usize {
        ((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Index position holding `row`, or the empty position where it would
    /// be inserted. The index must be non-empty (and never full: load is
    /// kept ≤ 0.75).
    #[inline]
    fn probe(&self, row: u32) -> usize {
        let mask = self.index.len() - 1;
        let mut i = self.home(row);
        loop {
            let e = self.index[i];
            if e == EMPTY || (e >> 32) as u32 == row {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Look up the slot of `row`.
    #[inline]
    fn find(&self, row: u32) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let e = self.index[self.probe(row)];
        (e != EMPTY).then_some(e as u32 as usize)
    }

    /// Grow (or create) the index so `extra` more entries keep load ≤ 0.75.
    fn reserve_index(&mut self, extra: usize) {
        let need = self.rows.len() + extra;
        let cap = self.index.len();
        if cap > 0 && need * 4 <= cap * 3 {
            return;
        }
        let mut new_cap = cap.max(16);
        while need * 4 > new_cap * 3 {
            new_cap *= 2;
        }
        self.index.clear();
        self.index.resize(new_cap, EMPTY);
        self.shift = 64 - new_cap.trailing_zeros();
        self.reindex();
    }

    /// Re-enter every row into an all-[`EMPTY`] index.
    fn reindex(&mut self) {
        for slot in 0..self.rows.len() {
            let i = self.probe(self.rows[slot]);
            self.index[i] = pack(self.rows[slot], slot);
        }
    }

    /// Slot of `row`, creating a zeroed one on first use. Slots number the
    /// rows in insertion order and stay valid until [`Self::clear`] or
    /// [`Self::retain`].
    ///
    /// `memo` holds `(row, slot)` pairs this accumulator returned since
    /// then — the training kernel passes the previous example's, so a
    /// negative that shares its positive's relation and one entity
    /// resolves them without probing the index.
    #[inline]
    pub fn slot_of(&mut self, row: u32, memo: &[Option<(u32, usize)>]) -> usize {
        if let Some((_, slot)) = memo.iter().flatten().find(|m| m.0 == row) {
            debug_assert_eq!(self.rows.get(*slot), Some(&row), "stale slot memo");
            return *slot;
        }
        self.reserve_index(1);
        let i = self.probe(row);
        if self.index[i] != EMPTY {
            return self.index[i] as u32 as usize;
        }
        let slot = self.rows.len();
        self.index[i] = pack(row, slot);
        self.rows.push(row);
        self.data.resize((slot + 1) * self.dim, 0.0);
        slot
    }

    /// Mutable gradient row of `slot` (see [`Self::slot_of`]).
    #[inline]
    pub fn slot_mut(&mut self, slot: usize) -> &mut [f32] {
        &mut self.data[slot * self.dim..(slot + 1) * self.dim]
    }

    /// The whole slab, slot `i` at `i*dim..(i+1)*dim`: lets one borrow
    /// reach two slots that may be the same one (a self-loop's head and
    /// tail).
    #[inline]
    pub fn slab_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Mutable gradient row for `row`, creating a zeroed slot on first use.
    pub fn row_mut(&mut self, row: u32) -> &mut [f32] {
        let slot = self.slot_of(row, &[]);
        self.slot_mut(slot)
    }

    /// Read a row's accumulated gradient, if present.
    pub fn get(&self, row: u32) -> Option<&[f32]> {
        self.find(row)
            .map(|s| &self.data[s * self.dim..(s + 1) * self.dim])
    }

    /// `(row id, gradient)` of the `i`-th *inserted* row. Insertion order
    /// is deterministic (it is the accumulation order), so this is the
    /// allocation-free access path for per-row work whose result does not
    /// depend on ordering (e.g. lazy optimizer steps over disjoint rows).
    #[inline]
    pub fn entry(&self, i: usize) -> (u32, &[f32]) {
        let row = self.rows[i];
        (row, &self.data[i * self.dim..(i + 1) * self.dim])
    }

    /// Longest probe sequence any stored row needs (1 = every row sits at
    /// its home position). A diagnostic for tests of the index hash.
    pub fn longest_probe(&self) -> usize {
        let mask = self.index.len().wrapping_sub(1);
        let occupied = self.index.iter().enumerate().filter(|(_, &e)| e != EMPTY);
        occupied
            .map(|(i, &e)| (i.wrapping_sub(self.home((e >> 32) as u32)) & mask) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Whether the cached ascending order is current.
    #[inline]
    fn sorted_valid(&self) -> bool {
        self.sorted_stamp == self.rows.len()
    }

    /// Every `(row, slot)` entry of `rows`, [`pack`]ed, in ascending row
    /// order.
    fn sort_into(rows: &[u32], out: &mut Vec<u64>) {
        out.clear();
        out.extend(rows.iter().enumerate().map(|(slot, &row)| pack(row, slot)));
        out.sort_unstable();
    }

    /// Rebuild the cached ascending row order if stale. Hot paths call
    /// this once per batch after the last insertion; subsequent
    /// [`SparseGrad::iter_sorted`] calls then borrow the cache instead of
    /// cloning and sorting.
    pub fn ensure_sorted(&mut self) {
        if self.sorted_valid() {
            return;
        }
        Self::sort_into(&self.rows, &mut self.sorted);
        self.sorted_stamp = self.rows.len();
    }

    /// Iterate `(row, grad)` pairs in ascending row order (deterministic).
    ///
    /// Uses the cached order when valid (see
    /// [`SparseGrad::ensure_sorted`]); otherwise falls back to a one-off
    /// sort, preserving the old semantics for callers that never warm the
    /// cache. Either way each entry carries its slot, so the walk reads the
    /// slab directly — no index probe per row.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (u32, &[f32])> + '_ {
        let order: Cow<'_, [u64]> = if self.sorted_valid() {
            Cow::Borrowed(self.sorted.as_slice())
        } else {
            let mut v = Vec::new();
            Self::sort_into(&self.rows, &mut v);
            Cow::Owned(v)
        };
        (0..order.len()).map(move |i| {
            let s = order[i] as u32 as usize;
            (
                (order[i] >> 32) as u32,
                &self.data[s * self.dim..(s + 1) * self.dim],
            )
        })
    }

    /// The slot of every stored row in ascending row order, off the cached
    /// order: call [`SparseGrad::ensure_sorted`] first.
    pub fn sorted_slots(&self) -> impl Iterator<Item = usize> + '_ {
        assert!(self.sorted_valid(), "sorted_slots needs ensure_sorted first");
        self.sorted.iter().map(|&e| e as u32 as usize)
    }

    /// A reusable buffer for per-slot working values (row selection parks
    /// its row norms and keep weights here). Contents are the caller's
    /// business; a caller that needs it next to `&mut self` takes it out
    /// with `std::mem::take` and puts it back, which moves no heap data.
    pub fn slot_scratch_mut(&mut self) -> &mut Vec<f32> {
        &mut self.slot_scratch
    }

    /// Scatter into a dense `n_rows × dim` buffer (row-major).
    pub fn to_dense(&self, n_rows: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n_rows * self.dim];
        self.scatter_into(&mut out);
        out
    }

    /// Scatter-add into an existing dense buffer of `n_rows × dim`.
    pub fn scatter_into(&self, dense: &mut [f32]) {
        assert_eq!(dense.len() % self.dim, 0);
        let n_rows = dense.len() / self.dim;
        for (slot, &row) in self.rows.iter().enumerate() {
            let row = row as usize;
            assert!(row < n_rows, "row {row} out of bounds for dense buffer");
            let src = &self.data[slot * self.dim..(slot + 1) * self.dim];
            let dst = &mut dense[row * self.dim..(row + 1) * self.dim];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
    }

    /// Add every row of `other` into `self`. Per-row sums are independent,
    /// so iterating `other` in insertion order leaves every row's f32
    /// accumulation order exactly as the examples produced it.
    pub fn merge(&mut self, other: &SparseGrad) {
        assert_eq!(self.dim, other.dim);
        for slot in 0..other.rows.len() {
            let (row, g) = other.entry(slot);
            let dst = self.row_mut(row);
            for (d, &v) in dst.iter_mut().zip(g) {
                *d += v;
            }
        }
    }

    /// Drop all rows, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.data.clear();
        self.sorted.clear();
        self.sorted_stamp = 0;
        self.index.fill(EMPTY);
    }

    /// Remove rows for which `keep` returns false (used by the random
    /// gradient-row selection strategy). Returns the number dropped.
    /// Compacts the slab in place — no new allocations.
    pub fn retain(&mut self, mut keep: impl FnMut(u32, &[f32]) -> bool) -> usize {
        let dim = self.dim;
        let n = self.rows.len();
        let mut w = 0usize;
        for s in 0..n {
            let row = self.rows[s];
            if keep(row, &self.data[s * dim..(s + 1) * dim]) {
                if w != s {
                    self.rows[w] = row;
                    self.data.copy_within(s * dim..(s + 1) * dim, w * dim);
                }
                w += 1;
            }
        }
        let dropped = n - w;
        if dropped > 0 {
            self.rows.truncate(w);
            self.data.truncate(w * dim);
            self.index.fill(EMPTY);
            self.reindex();
            self.sorted_stamp = STALE;
        }
        dropped
    }

    /// In-place scale of every stored value.
    pub fn scale(&mut self, factor: f32) {
        for v in self.data.iter_mut() {
            *v *= factor;
        }
    }

    /// Count rows whose 2-norm exceeds `eps` — the paper's Figure 2 metric
    /// ("number of non-zero gradient rows"): exactly the rows for which
    /// `l2_norm(row) > eps`.
    ///
    /// A row is decided from a lane-blocked sum of squares (eight
    /// independent chains the compiler vectorises, where `l2_norm`'s
    /// in-order sum is one dependent chain `dim` long) whenever that sum
    /// reaches `4·eps²`: reassociating a sum of non-negative terms moves
    /// it by parts in 10⁵ at any realistic `dim`, nowhere near the factor
    /// of 4, so the in-order norm exceeds `eps` as well. Every other row —
    /// near or below the threshold, or NaN-poisoned, which fails the
    /// comparison — is decided by `l2_norm` itself, as is every row when
    /// `4·eps²` is not a normal number (zero, subnormal, overflowed, NaN)
    /// and the margin argument has nothing to stand on.
    pub fn rows_above_norm(&self, eps: f32) -> usize {
        let surely_above = match 4.0 * eps * eps {
            t if t.is_normal() => t,
            _ => f32::NAN, // never reached: every row takes the exact test
        };
        self.data
            .chunks_exact(self.dim)
            .filter(|row| {
                sum_squares_blocked(row) >= surely_above || crate::matrix::l2_norm(row) > eps
            })
            .count()
    }
}

/// Sum of squares over eight interleaved accumulators (then the tail, then
/// the lanes): the same terms as `l2_norm`'s sum, in an order that
/// vectorises.
fn sum_squares_blocked(v: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut blocks = v.chunks_exact(8);
    for block in &mut blocks {
        for (lane, &x) in lanes.iter_mut().zip(block) {
            *lane += x * x;
        }
    }
    let tail: f32 = blocks.remainder().iter().map(|&x| x * x).sum();
    lanes.iter().fold(tail, |s, &lane| s + lane)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_into_rows() {
        let mut g = SparseGrad::new(3);
        g.row_mut(5)[0] += 1.0;
        g.row_mut(5)[0] += 2.0;
        g.row_mut(2)[2] = 7.0;
        assert_eq!(g.nnz(), 2);
        assert_eq!(g.get(5).unwrap(), &[3.0, 0.0, 0.0]);
        assert_eq!(g.get(2).unwrap(), &[0.0, 0.0, 7.0]);
        assert!(g.get(999).is_none());
    }

    #[test]
    fn iter_sorted_is_sorted_regardless_of_insertion() {
        let mut g = SparseGrad::new(1);
        for row in [9u32, 1, 5, 3] {
            g.row_mut(row)[0] = row as f32;
        }
        let rows: Vec<u32> = g.iter_sorted().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![1, 3, 5, 9]);
    }

    #[test]
    fn sorted_cache_survives_value_updates_and_invalidates_on_insert() {
        let mut g = SparseGrad::new(1);
        for row in [7u32, 2, 4] {
            g.row_mut(row)[0] = 1.0;
        }
        g.ensure_sorted();
        assert!(g.sorted_valid());
        // Mutating an existing row keeps the cache.
        g.row_mut(4)[0] = 9.0;
        assert!(g.sorted_valid());
        // Inserting a new row invalidates it; iteration stays correct.
        g.row_mut(3)[0] = 3.0;
        assert!(!g.sorted_valid());
        let rows: Vec<u32> = g.iter_sorted().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![2, 3, 4, 7]);
        g.ensure_sorted();
        let rows: Vec<u32> = g.iter_sorted().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![2, 3, 4, 7]);
    }

    #[test]
    fn entry_returns_insertion_order() {
        let mut g = SparseGrad::new(2);
        g.row_mut(9).copy_from_slice(&[1.0, 2.0]);
        g.row_mut(3).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(g.entry(0), (9, &[1.0f32, 2.0][..]));
        assert_eq!(g.entry(1), (3, &[3.0f32, 4.0][..]));
    }

    #[test]
    fn to_dense_scatters() {
        let mut g = SparseGrad::new(2);
        g.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        let dense = g.to_dense(3);
        assert_eq!(dense, vec![0.0, 0.0, 1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn merge_adds_overlapping_rows() {
        let mut a = SparseGrad::new(2);
        a.row_mut(0).copy_from_slice(&[1.0, 1.0]);
        let mut b = SparseGrad::new(2);
        b.row_mut(0).copy_from_slice(&[2.0, 3.0]);
        b.row_mut(4).copy_from_slice(&[5.0, 5.0]);
        a.merge(&b);
        assert_eq!(a.get(0).unwrap(), &[3.0, 4.0]);
        assert_eq!(a.get(4).unwrap(), &[5.0, 5.0]);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn clear_retains_nothing() {
        let mut g = SparseGrad::new(2);
        g.row_mut(1)[0] = 1.0;
        g.clear();
        assert!(g.is_empty());
        assert!(g.get(1).is_none());
        // Reuse after clear works and starts from zeroed slots.
        assert_eq!(g.row_mut(1), &[0.0, 0.0]);
    }

    #[test]
    fn retain_drops_and_reindexes() {
        let mut g = SparseGrad::new(1);
        for row in 0..10u32 {
            g.row_mut(row)[0] = row as f32;
        }
        let dropped = g.retain(|row, _| row % 2 == 0);
        assert_eq!(dropped, 5);
        assert_eq!(g.nnz(), 5);
        assert_eq!(g.get(4).unwrap(), &[4.0]);
        assert!(g.get(3).is_none());
        // Accumulation still works after compaction.
        g.row_mut(3)[0] = 30.0;
        assert_eq!(g.get(3).unwrap(), &[30.0]);
    }

    #[test]
    fn retain_invalidates_sorted_cache() {
        let mut g = SparseGrad::new(1);
        for row in [5u32, 1, 9, 3] {
            g.row_mut(row)[0] = row as f32;
        }
        g.ensure_sorted();
        g.retain(|row, _| row > 2);
        let rows: Vec<u32> = g.iter_sorted().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![3, 5, 9]);
    }

    #[test]
    fn many_rows_stress_index() {
        // Force several index growths and collisions.
        let mut g = SparseGrad::new(1);
        for i in 0..1000u32 {
            g.row_mut(i.wrapping_mul(2654435761) % 4096)[0] += 1.0;
        }
        let total: f32 = g.iter_sorted().map(|(_, v)| v[0]).sum();
        assert_eq!(total, 1000.0);
        let rows: Vec<u32> = g.iter_sorted().map(|(r, _)| r).collect();
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        for &r in &rows {
            assert!(g.get(r).is_some());
        }
    }

    #[test]
    fn threshold_count() {
        let mut g = SparseGrad::new(2);
        g.row_mut(0).copy_from_slice(&[3.0, 4.0]); // norm 5
        g.row_mut(1).copy_from_slice(&[1e-9, 0.0]);
        assert_eq!(g.rows_above_norm(1e-6), 1);
        assert_eq!(g.rows_above_norm(10.0), 0);
    }

    #[test]
    fn scale_scales_everything() {
        let mut g = SparseGrad::new(2);
        g.row_mut(0).copy_from_slice(&[2.0, -4.0]);
        g.scale(0.5);
        assert_eq!(g.get(0).unwrap(), &[1.0, -2.0]);
    }

    #[test]
    fn scatter_into_adds_to_existing() {
        let mut g = SparseGrad::new(1);
        g.row_mut(0)[0] = 1.0;
        let mut dense = vec![10.0f32, 20.0];
        g.scatter_into(&mut dense);
        assert_eq!(dense, vec![11.0, 20.0]);
    }
}
