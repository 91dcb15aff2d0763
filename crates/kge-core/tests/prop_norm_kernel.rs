//! `matrix::l2_norms` — row selection's gradient-row norms, eight rows at
//! a time through the register transpose on AVX hosts — against
//! `matrix::l2_norm` row by row, **to the bit**, at every dispatch level
//! the host has: for every row length up to 40 (so every tail `dim % 8`)
//! and a few longer ones, row counts around and between multiples of 8,
//! and values where a reordered sum or a fused multiply-add would show:
//! signed zeros, denormals, squares that overflow to `inf`, and NaN.
//!
//! Changing the level from concurrently running tests is safe precisely
//! because of the property under test: every level produces the same bits.

use kge_core::matrix::{l2_norm, l2_norms};
use kge_core::simd::{set_level, Level};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the rows hold.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Mixed signs at magnitudes `1e-6`, `1` and `1e6` within a row, where
    /// any other summation order rounds differently.
    Mixed,
    /// Signed zeros, denormals, the smallest normal, and magnitudes whose
    /// squares underflow or overflow to `inf`, among unit values.
    Specials,
    /// Every third row holds a NaN (`NaN` or `-NaN`, one kind per row, so
    /// its chain's payload does not depend on which NaN an add keeps).
    Nan,
}

const SPECIALS: [f32; 10] =
    [0.0, -0.0, 1e-40, -3e-41, f32::MIN_POSITIVE, 1e-30, -1e-25, 3e38, -2e19, 1e20];

fn rows(n_rows: usize, dim: usize, values: Values, rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..n_rows * dim)
        .map(|_| match values {
            Values::Specials if rng.gen_range(0..3u32) == 0 => {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            }
            _ => rng.gen_range(-1.0f32..1.0) * [1e-6, 1.0, 1e6][rng.gen_range(0..3usize)],
        })
        .collect();
    if let (Values::Nan, true) = (values, dim > 0) {
        for (i, row) in v.chunks_exact_mut(dim).enumerate().filter(|(i, _)| i % 3 == 0) {
            let nan = if i % 2 == 0 { f32::NAN } else { -f32::NAN };
            for _ in 0..=i % 4 {
                row[rng.gen_range(0..dim)] = nan;
            }
        }
    }
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn norms_equal_l2_norm_row_by_row_at_every_level() {
    let mut rng = StdRng::seed_from_u64(45);
    let dims = (1..=40).chain([63, 64, 65, 128]);
    for dim in dims {
        for n_rows in [0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 33] {
            for values in [Values::Mixed, Values::Specials, Values::Nan] {
                let rows = rows(n_rows, dim, values, &mut rng);
                let want: Vec<f32> = rows.chunks_exact(dim).map(l2_norm).collect();
                for &level in Level::detected() {
                    set_level(Some(level));
                    // Stale values in `out` must not leak into a norm.
                    let mut got = vec![f32::NAN; n_rows];
                    l2_norms(&rows, dim, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{level:?} dim {dim} rows {n_rows} {values:?}"
                    );
                }
                set_level(None);
            }
        }
    }
}

#[test]
fn the_special_values_reach_the_norms() {
    // The cases the sweep above is there for do occur in it: a square that
    // overflows, a denormal square that flushes to zero, and a NaN row.
    let row = [3e38f32, 1.0];
    assert_eq!(l2_norm(&row), f32::INFINITY);
    assert_eq!(l2_norm(&[1e-40f32, -0.0]).to_bits(), 0);
    assert!(l2_norm(&[1.0, f32::NAN]).is_nan());
    for &level in Level::detected() {
        set_level(Some(level));
        let mut got = [0.0f32; 9];
        let rows: Vec<f32> = (0..9).flat_map(|i| [3e38f32 * (i % 2) as f32, -0.0]).collect();
        l2_norms(&rows, 2, &mut got);
        let want: Vec<f32> = (0..9).map(|i| if i % 2 == 1 { f32::INFINITY } else { 0.0 }).collect();
        assert_eq!(bits(&got), bits(&want), "{level:?}");
        // Rows of no elements: `l2_norm`'s empty sum, whatever its sign.
        let mut empty = [1.0f32; 3];
        l2_norms(&[], 0, &mut empty);
        assert_eq!(bits(&empty), bits(&[l2_norm(&[]); 3]), "{level:?}");
    }
    set_level(None);
}
