//! Row-sparse gradient accumulation.
//!
//! A KGE batch only touches the embedding rows of the entities/relations
//! that appear in it, so per-batch gradients are naturally row-sparse.
//! [`SparseGrad`] accumulates per-row contributions in a slab allocation
//! that is reused across batches (no per-row `Vec`s), one slot per row in
//! insertion order.
//!
//! A row finds its slot one of two ways. Below a bound the caller declares
//! ([`SparseGrad::reserve_rows`], the height of the table the rows index)
//! a flat `row → slot` map answers with one load; the block kernel
//! declares both table heights, and [`SparseGrad::merge`] passes the bound
//! on, so the kernel and the chunk fold never hash. Rows at or past the
//! bound — every row, when none is declared — go through a small
//! open-addressed hash index (no `HashMap`, no per-insert allocation once
//! capacity is warm) that holds only them. The map costs 4 B per declared
//! row, at most `1/dim` of the table, and no row id can grow it.
//!
//! The ascending-row iteration order used by deterministic reductions is
//! **cached**: it is rebuilt at most once per batch by
//! [`SparseGrad::ensure_sorted`] (by walking the map when it holds every
//! row densely enough, else by a sort) instead of being cloned and
//! re-sorted on every [`SparseGrad::iter_sorted`] call.
//!
//! `clear()` keeps every allocation (slab, map, index, sorted cache) and
//! costs O(rows held), so after a warm-up pass the accumulator is reusable
//! with zero heap traffic.

use std::borrow::Cow;

/// Empty marker in the open-addressed index.
const EMPTY: u64 = u64::MAX;

/// "No slot" in the row → slot map.
const NO_SLOT: u32 = u32::MAX;

/// The map walk builds the ascending order only when the rows fill at
/// least `1/SORT_WALK_DENSITY` of the map; sparser, the sort is cheaper.
const SORT_WALK_DENSITY: usize = 16;

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
    /// `map[row]` is the slot of a stored row below the declared bound
    /// (`map.len()`, see [`SparseGrad::reserve_rows`]), else [`NO_SLOT`].
    /// Empty until a bound is declared; it only grows.
    map: Vec<u32>,
    /// Open-addressed index of the [`pack`]ed entries of the rows at or
    /// past `map.len()`, linear probing from a multiply-shift home
    /// position. Length is always a power of two (or zero before the first
    /// such row). Slots and every iteration order come from `rows`, never
    /// from where the hash put an entry.
    index: Vec<u64>,
    /// `64 - log2(index.len())`: the multiply-shift hash keeps the top bits.
    shift: u32,
    /// Entries in `index`: the stored rows at or past `map.len()`.
    hashed: usize,
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
            map: Vec::new(),
            index: Vec::new(),
            shift: 0,
            hashed: 0,
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
        if let Some(&slot) = self.map.get(row as usize) {
            return (slot != NO_SLOT).then_some(slot as usize);
        }
        if self.index.is_empty() {
            return None;
        }
        let e = self.index[self.probe(row)];
        (e != EMPTY).then_some(e as u32 as usize)
    }

    /// Grow (or create) the index so `extra` more entries keep load ≤ 0.75.
    fn reserve_index(&mut self, extra: usize) {
        let need = self.hashed + extra;
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
        self.rekey();
    }

    /// Re-enter every stored row: below the bound into the map, past it
    /// into the index, which is emptied first and must have room.
    fn rekey(&mut self) {
        if self.hashed > 0 {
            self.index.fill(EMPTY);
            self.hashed = 0;
        }
        for slot in 0..self.rows.len() {
            let row = self.rows[slot];
            if let Some(m) = self.map.get_mut(row as usize) {
                *m = slot as u32;
            } else {
                let i = self.probe(row);
                self.index[i] = pack(row, slot);
                self.hashed += 1;
            }
        }
    }

    /// Declare that rows below `rows` are looked up through the flat map
    /// from now on (4 B per row; the table height is the natural bound).
    /// The map only grows: a smaller bound than the current one changes
    /// nothing. Stored rows the new bound covers leave the index, once.
    /// Slots, insertion order and values do not change.
    pub fn reserve_rows(&mut self, rows: usize) {
        if rows <= self.map.len() {
            return;
        }
        self.map.resize(rows, NO_SLOT);
        if self.hashed > 0 {
            self.rekey();
        }
    }

    /// Slot of `row`, creating a zeroed one on first use. Slots number the
    /// rows in insertion order and stay valid until [`Self::clear`] or
    /// [`Self::retain`].
    #[inline]
    pub fn slot_of(&mut self, row: u32) -> usize {
        let slot = self.rows.len();
        let Some(m) = self.map.get_mut(row as usize) else {
            return self.hashed_slot_of(row);
        };
        if *m != NO_SLOT {
            return *m as usize;
        }
        *m = slot as u32;
        self.push_row(row);
        slot
    }

    /// [`Self::slot_of`] for a row at or past the bound, out of line so the
    /// map path inlines into the kernel.
    #[inline(never)]
    fn hashed_slot_of(&mut self, row: u32) -> usize {
        self.reserve_index(1);
        let i = self.probe(row);
        if self.index[i] != EMPTY {
            return self.index[i] as u32 as usize;
        }
        let slot = self.rows.len();
        self.index[i] = pack(row, slot);
        self.hashed += 1;
        self.push_row(row);
        slot
    }

    /// Give `row` the next slot, zeroed.
    #[inline]
    fn push_row(&mut self, row: u32) {
        self.rows.push(row);
        self.data.resize(self.rows.len() * self.dim, 0.0);
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
        let slot = self.slot_of(row);
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
    ///
    /// When the map holds every row and they fill at least
    /// `1/SORT_WALK_DENSITY` of it, the order is read off the map in one
    /// ascending walk; otherwise the entries are sorted. Both give the same
    /// entries in the same order.
    pub fn ensure_sorted(&mut self) {
        if self.sorted_valid() {
            return;
        }
        if self.hashed == 0 && self.rows.len() * SORT_WALK_DENSITY >= self.map.len() {
            self.sorted.clear();
            self.sorted.reserve(self.rows.len());
            let mapped = self.map.iter().enumerate();
            let mapped = mapped.filter(|(_, &slot)| slot != NO_SLOT);
            let packed = mapped.map(|(row, &slot)| pack(row as u32, slot as usize));
            self.sorted.extend(packed);
        } else {
            Self::sort_into(&self.rows, &mut self.sorted);
        }
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
    /// accumulation order exactly as the examples produced it. `self`
    /// takes on `other`'s declared bound as well.
    pub fn merge(&mut self, other: &SparseGrad) {
        assert_eq!(self.dim, other.dim);
        self.reserve_rows(other.map.len());
        for slot in 0..other.rows.len() {
            let (row, g) = other.entry(slot);
            let dst = self.row_mut(row);
            for (d, &v) in dst.iter_mut().zip(g) {
                *d += v;
            }
        }
    }

    /// Drop all rows, keeping allocations for reuse. Only the map entries
    /// of the rows held are reset, so this costs O(rows held).
    pub fn clear(&mut self) {
        for &row in &self.rows {
            if let Some(m) = self.map.get_mut(row as usize) {
                *m = NO_SLOT;
            }
        }
        if self.hashed > 0 {
            self.index.fill(EMPTY);
            self.hashed = 0;
        }
        self.rows.clear();
        self.data.clear();
        self.sorted.clear();
        self.sorted_stamp = 0;
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
            } else if let Some(m) = self.map.get_mut(row as usize) {
                *m = NO_SLOT;
            }
        }
        let dropped = n - w;
        if dropped > 0 {
            self.rows.truncate(w);
            self.data.truncate(w * dim);
            self.rekey();
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
    fn map_stays_at_its_bound_and_the_index_holds_only_rows_past_it() {
        let mut g = SparseGrad::new(2);
        g.reserve_rows(64);
        let rows = [3u32, 64, 0, u32::MAX, 63, 1000, u32::MAX - 1, 17, 65, 3, 64];
        for (i, &row) in rows.iter().enumerate() {
            g.row_mut(row)[0] += i as f32;
        }
        let past: Vec<u32> = vec![64, u32::MAX, 1000, u32::MAX - 1, 65];
        assert_eq!(g.map.len(), 64, "no row id grows the map");
        assert_eq!(g.nnz(), 9);
        assert_eq!(g.hashed, past.len());
        let mut indexed: Vec<u32> = g
            .index
            .iter()
            .filter(|&&e| e != EMPTY)
            .map(|&e| (e >> 32) as u32)
            .collect();
        indexed.sort_unstable();
        let mut want = past.clone();
        want.sort_unstable();
        assert_eq!(indexed, want, "the index holds the rows past 64");
        for (slot, &row) in g.rows.iter().enumerate() {
            if row < 64 {
                assert_eq!(g.map[row as usize], slot as u32);
            }
        }
        assert_eq!(g.get(3).unwrap(), &[9.0, 0.0]);
        assert_eq!(g.get(64).unwrap(), &[11.0, 0.0]);
        // A smaller bound changes nothing; retain keeps both sides keyed.
        g.reserve_rows(8);
        assert_eq!(g.map.len(), 64);
        g.retain(|row, _| row != 0 && row != 1000);
        assert_eq!(g.map[0], NO_SLOT);
        assert_eq!(g.hashed, past.len() - 1);
        assert!(g.get(63).is_some() && g.get(u32::MAX).is_some() && g.get(1000).is_none());
        g.clear();
        assert_eq!(g.map.len(), 64);
        assert!(g.map.iter().all(|&m| m == NO_SLOT), "clear resets the map");
        assert_eq!(g.hashed, 0);
        assert!(g.index.iter().all(|&e| e == EMPTY));
    }

    #[test]
    fn an_accumulator_whose_rows_are_all_mapped_allocates_no_index() {
        let mut g = SparseGrad::new(1);
        g.row_mut(5)[0] = 1.0;
        g.row_mut(500)[0] = 2.0;
        assert!(!g.index.is_empty());
        // Declaring the bound re-keys the stored rows into the map.
        g.reserve_rows(1000);
        assert_eq!((g.hashed, g.map[5], g.map[500]), (0, 0, 1));
        let mut fresh = SparseGrad::new(1);
        fresh.reserve_rows(1000);
        for row in (0..1000).rev() {
            fresh.row_mut(row)[0] += 1.0;
        }
        fresh.merge(&g);
        assert!(fresh.index.is_empty());
        // Dense enough for the map walk, and it gives the sorted order.
        fresh.ensure_sorted();
        let rows: Vec<u32> = fresh.iter_sorted().map(|(r, _)| r).collect();
        assert_eq!(rows, (0..1000).collect::<Vec<_>>());
        let mut sorted = Vec::new();
        SparseGrad::sort_into(&fresh.rows, &mut sorted);
        assert_eq!(fresh.sorted, sorted);
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
