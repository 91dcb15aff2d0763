//! Error-feedback residual storage (Karimireddy et al. 2019).
//!
//! Quantization discards information; error feedback accumulates the
//! discarded part locally and adds it back to the next iteration's
//! gradient, turning the bias of sign-style compression into a delayed
//! correction. The paper cites this mechanism alongside its quantization
//! comparison; we expose it as an optional component so the benches can
//! ablate it.

use kge_core::SparseGrad;
use std::collections::HashMap;

/// Per-row residual store for one embedding table.
#[derive(Debug, Clone, Default)]
pub struct ResidualStore {
    rows: HashMap<u32, Vec<f32>>,
}

impl ResidualStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows with stored residual.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add stored residuals into the matching rows of `grad`, consuming
    /// them. Residuals for rows not present in `grad` stay stored (they
    /// re-enter whenever that row is next touched).
    pub fn add_into(&mut self, grad: &mut SparseGrad) {
        // Walk the grad's own row list by index — no row id collection, no
        // allocation (row_mut on an existing row does not reorder entries).
        for i in 0..grad.nnz() {
            let row = grad.entry(i).0;
            if let Some(res) = self.rows.remove(&row) {
                let g = grad.row_mut(row);
                for (gv, rv) in g.iter_mut().zip(res) {
                    *gv += rv;
                }
            }
        }
    }

    /// Record `orig − sent` for one transmitted row (the dequantized form
    /// of what actually went on the wire). Allocates only the first time a
    /// row is seen; hot paths call this per row with a reused dequantize
    /// scratch buffer.
    pub fn record_row_error(&mut self, row: u32, orig: &[f32], sent: &[f32]) {
        let entry = self
            .rows
            .entry(row)
            .or_insert_with(|| vec![0.0; orig.len()]);
        for ((e, &o), &s) in entry.iter_mut().zip(orig).zip(sent) {
            *e += o - s;
        }
    }

    /// Record the whole original value for a row dropped from transmission.
    fn record_row_dropped(&mut self, row: u32, orig: &[f32]) {
        let entry = self
            .rows
            .entry(row)
            .or_insert_with(|| vec![0.0; orig.len()]);
        for (e, &o) in entry.iter_mut().zip(orig) {
            *e += o;
        }
    }

    /// Record `original − transmitted` for each row of `original`. The
    /// `transmitted` callback fills the provided scratch buffer with the
    /// dequantized form of what was actually sent for `row` and returns
    /// `true`, or returns `false` for rows dropped entirely (which then
    /// store the whole original value). The buffer is caller-reused across
    /// rows, so recording allocates nothing per row.
    pub fn record_error(
        &mut self,
        original: &SparseGrad,
        mut transmitted: impl FnMut(u32, &mut [f32]) -> bool,
    ) {
        let mut sent = vec![0.0f32; original.dim()];
        for (row, orig) in original.iter_sorted() {
            if transmitted(row, &mut sent) {
                self.record_row_error(row, orig, &sent);
            } else {
                self.record_row_dropped(row, orig);
            }
        }
    }

    /// Drop everything (e.g. when the learning-rate schedule resets).
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Fill `ids` (cleared first, capacity kept) with every stored row id
    /// in ascending order. Checkpointing iterates the store through this so
    /// the serialized bytes are independent of hash-map iteration order.
    pub fn sorted_ids_into(&self, ids: &mut Vec<u32>) {
        ids.clear();
        ids.extend(self.rows.keys().copied());
        ids.sort_unstable();
    }

    /// The stored residual for `row`, if any.
    pub fn get_row(&self, row: u32) -> Option<&[f32]> {
        self.rows.get(&row).map(|v| v.as_slice())
    }

    /// Overwrite (or insert) the residual for `row`. Checkpoint restore
    /// rebuilds a store with this.
    pub fn set_row(&mut self, row: u32, values: &[f32]) {
        match self.rows.entry(row) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let v = e.get_mut();
                v.clear();
                v.extend_from_slice(values);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(values.to_vec());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_with(rows: &[(u32, [f32; 2])]) -> SparseGrad {
        let mut g = SparseGrad::new(2);
        for &(r, v) in rows {
            g.row_mut(r).copy_from_slice(&v);
        }
        g
    }

    #[test]
    fn conservation_transmitted_plus_residual_equals_original() {
        // Quantize-and-feedback invariant: sent + stored error == original.
        let original = grad_with(&[(0, [0.8, -0.3]), (5, [0.1, 0.1])]);
        let mut store = ResidualStore::new();
        // Pretend we transmitted a crude sign approximation of row 0 and
        // dropped row 5 entirely.
        let sent_row0 = [1.0f32, -1.0];
        store.record_error(&original, |row, buf| {
            if row == 0 {
                buf.copy_from_slice(&[1.0, -1.0]);
                true
            } else {
                false
            }
        });
        let res0 = store.rows.get(&0).unwrap().clone();
        let res5 = store.rows.get(&5).unwrap().clone();
        for k in 0..2 {
            assert!((sent_row0[k] + res0[k] - original.get(0).unwrap()[k]).abs() < 1e-6);
            assert!((res5[k] - original.get(5).unwrap()[k]).abs() < 1e-6);
        }
    }

    #[test]
    fn add_into_consumes_matching_rows_only() {
        let original = grad_with(&[(1, [1.0, 1.0]), (2, [2.0, 2.0])]);
        let mut store = ResidualStore::new();
        store.record_error(&original, |_, _| false); // everything dropped
        assert_eq!(store.len(), 2);

        let mut next = grad_with(&[(1, [0.5, 0.5])]);
        store.add_into(&mut next);
        assert_eq!(next.get(1).unwrap(), &[1.5, 1.5]);
        assert!(next.get(2).is_none(), "untouched row stays stored");
        assert_eq!(store.len(), 1);

        // Row 2's residual re-enters when row 2 is next touched.
        let mut later = grad_with(&[(2, [0.0, 0.0])]);
        store.add_into(&mut later);
        assert_eq!(later.get(2).unwrap(), &[2.0, 2.0]);
        assert!(store.is_empty());
    }

    #[test]
    fn errors_accumulate_across_rounds() {
        let mut store = ResidualStore::new();
        let g = grad_with(&[(7, [0.2, 0.0])]);
        store.record_error(&g, |_, _| false);
        store.record_error(&g, |_, _| false);
        assert_eq!(store.rows.get(&7).unwrap(), &vec![0.4, 0.0]);
    }

    #[test]
    fn export_and_set_row_roundtrip() {
        let mut store = ResidualStore::new();
        store.record_error(
            &grad_with(&[(9, [1.0, -2.0]), (3, [0.5, 0.25]), (40, [0.0, 7.0])]),
            |_, _| false,
        );
        let mut ids = Vec::new();
        store.sorted_ids_into(&mut ids);
        assert_eq!(ids, vec![3, 9, 40]);

        let mut rebuilt = ResidualStore::new();
        for &id in &ids {
            rebuilt.set_row(id, store.get_row(id).unwrap());
        }
        let mut ids2 = Vec::new();
        rebuilt.sorted_ids_into(&mut ids2);
        assert_eq!(ids, ids2);
        for &id in &ids {
            assert_eq!(store.get_row(id), rebuilt.get_row(id));
        }
        // set_row overwrites rather than accumulates.
        rebuilt.set_row(3, &[9.0, 9.0]);
        assert_eq!(rebuilt.get_row(3).unwrap(), &[9.0, 9.0]);
    }

    #[test]
    fn clear_empties_store() {
        let mut store = ResidualStore::new();
        store.record_error(&grad_with(&[(0, [1.0, 1.0])]), |_, _| false);
        store.clear();
        assert!(store.is_empty());
    }
}
