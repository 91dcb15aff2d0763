//! Runtime SIMD dispatch: the one place the workspace asks the CPU what it
//! can run.
//!
//! The dispatch level is a value, [`Level`]. Every kernel reads it through
//! [`level`] (or the two predicates below) and picks a copy of its code:
//!
//! - The model drivers in `model.rs` are safe loops with no intrinsics,
//!   compiled once as is and once more per level under
//!   `#[target_feature]`. The forward and the block kernel have `Scalar`
//!   and `Avx` copies; the `Avx` forward adds its groups' summands with
//!   [`row_sums_8`]. The one-vs-all sweep (evaluation and serving) has a
//!   third, `Avx512`, copy.
//! - The optimizer rows (`optim.rs`) and the 1-bit codec's kernels
//!   (`kge_compress`'s `quant.rs` and `codec.rs`) are the same: one safe
//!   body each, compiled as is and in a `#[target_feature]` wrapper taken
//!   behind [`use_avx`] / [`use_avx2`]. The codec's AVX2 decode expands
//!   each sign byte with [`sign_select_8`].
//!
//! [`row_sums_8`] and [`sign_select_8`] are the workspace's only
//! intrinsics: the 8-lane steps no safe loop kept pace with.
//!
//! Every copy of a kernel gives the same bits, so the level only decides
//! which of them runs. It is detected once, then:
//!
//! - `KGE_FORCE_SCALAR` (env, any non-empty value other than `0`) pins
//!   [`Level::Scalar`], so CI can run a suite once more on the baseline
//!   copies.
//! - [`set_level`] is the in-process override: the bit-identity suites
//!   loop over [`Level::detected`] and run each case at every level.
//!
//! The override is process-global: changing it mid-run only changes which
//! of the bit-identical copies executes, never the results.

use std::sync::atomic::{AtomicU8, Ordering};

/// The widest copy of the kernels a call may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The baseline-compiled copies (SSE2 on x86_64).
    Scalar = 0,
    /// The AVX copies: 256-bit vectors. Training stays at this level on
    /// AVX-512 hosts too.
    Avx = 1,
    /// The one-vs-all sweep's `avx512f` copy: 512-bit vectors.
    Avx512 = 2,
}

impl Level {
    const ALL: [Level; 3] = [Level::Scalar, Level::Avx, Level::Avx512];

    /// Every level this host can run, lowest first: always `Scalar`, then
    /// `Avx` and `Avx512` where the CPU has them. The environment does not
    /// change the list.
    pub fn detected() -> &'static [Level] {
        &Self::ALL[..=host() as usize]
    }
}

/// The widest level the CPU supports (an `avx512f` host also has `avx`).
fn host() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        if !std::arch::is_x86_feature_detected!("avx") {
            return Level::Scalar;
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Level::Avx512;
        }
        Level::Avx
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Level::Scalar
    }
}

/// No level chosen yet: the next [`level`] call detects one.
const UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

/// The dispatch level: the host's widest, or `Scalar` under
/// `KGE_FORCE_SCALAR`, or what [`set_level`] chose. Detected on the first
/// call and cached, so every later call is one relaxed atomic load.
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        UNSET => {
            let forced = std::env::var_os("KGE_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
            let level = if forced { Level::Scalar } else { host() };
            LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
        stored => Level::ALL[usize::from(stored)],
    }
}

/// Override the dispatch level, env included: `Some(l)` runs every kernel
/// at `l`, capped at the host's widest level; `None` re-arms detection, so
/// the next [`level`] reads the env again.
pub fn set_level(level: Option<Level>) {
    let state = level.map_or(UNSET, |l| l.min(host()) as u8);
    LEVEL.store(state, Ordering::Relaxed);
}

/// Whether kernels with an AVX copy take it: true at [`Level::Avx`] and
/// above, so on an AVX-512 host training still runs its AVX copies.
#[inline]
pub fn use_avx() -> bool {
    level() >= Level::Avx
}

/// Whether kernels needing AVX2 (256-bit integer ops, used by the sign-bit
/// broadcast decode in the codec) take their AVX2 copy.
#[inline]
pub fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use_avx() && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The in-order sums of eight rows of `n` floats, row `j` at
/// `rows[j * n..][..n]`: `out[j]` is `+0.0 + rows[j][0] + rows[j][1] + …`,
/// added left to right — the training forward's per-example sum
/// (`model.rs`'s `score_triples`), eight examples at once.
///
/// Each 8×8 block of the rows is transposed in registers, so column `k`
/// holds element `k` of every row, and the columns are added to one vector
/// accumulator, `k` ascending. Lane `j` is still row `j`'s own chain: the
/// same additions in the same order as the scalar loop, so the same bits.
/// The `n % 8` elements past the last block are added after it, in order.
/// The transpose is the only intrinsic here: the safe loops that keep the
/// sums in order measured slower than the scalar one (EXPERIMENTS.md, "the
/// training kernel at its bound").
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
pub(crate) fn row_sums_8(rows: &[f32], n: usize) -> [f32; 8] {
    use std::arch::x86_64::*;
    let rows = &rows[..8 * n];
    let mut acc = _mm256_setzero_ps();
    let blocks = n / 8;
    for b in 0..blocks {
        let mut r = [acc; 8];
        for (j, r) in r.iter_mut().enumerate() {
            // SAFETY: `j * n + 8 * b + 8 <= 7 * n + n`, the length of `rows`.
            *r = unsafe { _mm256_loadu_ps(rows.as_ptr().add(j * n + 8 * b)) };
        }
        // Pairs of rows interleaved, then quads: `q[k]` holds columns
        // `8 * b + k` (low half) and `8 * b + k + 4` (high half) of rows 0–3,
        // `p[k]` the same of rows 4–7. Their halves joined are the columns.
        let lo01 = _mm256_unpacklo_ps(r[0], r[1]);
        let hi01 = _mm256_unpackhi_ps(r[0], r[1]);
        let lo23 = _mm256_unpacklo_ps(r[2], r[3]);
        let hi23 = _mm256_unpackhi_ps(r[2], r[3]);
        let lo45 = _mm256_unpacklo_ps(r[4], r[5]);
        let hi45 = _mm256_unpackhi_ps(r[4], r[5]);
        let lo67 = _mm256_unpacklo_ps(r[6], r[7]);
        let hi67 = _mm256_unpackhi_ps(r[6], r[7]);
        let q = [
            _mm256_shuffle_ps::<0x44>(lo01, lo23),
            _mm256_shuffle_ps::<0xEE>(lo01, lo23),
            _mm256_shuffle_ps::<0x44>(hi01, hi23),
            _mm256_shuffle_ps::<0xEE>(hi01, hi23),
        ];
        let p = [
            _mm256_shuffle_ps::<0x44>(lo45, lo67),
            _mm256_shuffle_ps::<0xEE>(lo45, lo67),
            _mm256_shuffle_ps::<0x44>(hi45, hi67),
            _mm256_shuffle_ps::<0xEE>(hi45, hi67),
        ];
        for k in 0..4 {
            acc = _mm256_add_ps(acc, _mm256_permute2f128_ps::<0x20>(q[k], p[k]));
        }
        for k in 0..4 {
            acc = _mm256_add_ps(acc, _mm256_permute2f128_ps::<0x31>(q[k], p[k]));
        }
    }
    let mut out = [0.0f32; 8];
    // SAFETY: `out` holds eight floats.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
    for k in 8 * blocks..n {
        for (j, o) in out.iter_mut().enumerate() {
            *o += rows[j * n + k];
        }
    }
    out
}

/// Lane `i` of a sign byte's eight values: `hi` where bit `i` of `byte` is
/// set, `lo` where it is clear — the codec's 1-bit decode of one packed
/// sign byte (`kge_compress::codec`), bits taken from `lo` and `hi`
/// unchanged. The byte is broadcast to eight integer lanes, `and`ed with
/// `1, 2, …, 128` and compared equal to it, and the mask blends the two
/// broadcast values. The safe expansions (a shift, a bit table, a
/// bit-select) measured 1.6–3.8× slower: the compiler vectorizes them
/// across bytes with shuffles (EXPERIMENTS.md, "one SIMD mechanism").
///
/// # Safety
/// Safe to call from code compiled with AVX2; elsewhere the caller must
/// have detected it ([`use_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub fn sign_select_8(byte: u8, lo: f32, hi: f32) -> [f32; 8] {
    use std::arch::x86_64::*;
    let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let set = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(i32::from(byte)), bits), bits);
    let sel = _mm256_blendv_ps(_mm256_set1_ps(lo), _mm256_set1_ps(hi), _mm256_castsi256_ps(set));
    let mut out = [0.0f32; 8];
    // SAFETY: `out` holds eight floats.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), sel) };
    out
}

/// In-crate tests that set the process-global override hold this, so each
/// runs the level it asked for while the others run in parallel.
#[cfg(test)]
pub(crate) static TEST_ARM: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_over_env_and_is_capped_at_the_host() {
        let _arm = TEST_ARM.lock().unwrap_or_else(|e| e.into_inner());
        set_level(Some(Level::Scalar));
        assert_eq!(level(), Level::Scalar);
        assert!(!use_avx());
        assert!(!use_avx2());
        for &l in Level::detected() {
            set_level(Some(l));
            assert_eq!(level(), l);
            assert_eq!(use_avx(), l >= Level::Avx);
        }
        set_level(Some(Level::Avx512));
        assert_eq!(level(), host(), "capped at the host's widest level");
        set_level(None);
        // Re-armed: the next read comes from the env again.
        let _ = level();
    }

    /// The transposed sums against the scalar loop, to the bit, for every
    /// tail length: on values of mixed sign and magnitude, where any other
    /// order rounds differently, and on signed zeros, denormals and
    /// magnitudes that overflow.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn row_sums_8_adds_each_row_in_order() {
        use rand::{Rng, SeedableRng};
        if host() < Level::Avx {
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let special = [0.0f32, -0.0, 1e-40, -3e-41, 3e38, -3e38];
        for n in (0..=35).chain([64, 67]) {
            let rows: Vec<f32> = (0..8 * n)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => special[rng.gen_range(0..special.len())],
                    _ => rng.gen_range(-1.0f32..1.0) * [1e-6, 1.0, 1e6][rng.gen_range(0..3usize)],
                })
                .collect();
            let mut want = [0.0f32; 8];
            for (j, w) in want.iter_mut().enumerate() {
                for &x in &rows[j * n..][..n] {
                    *w += x;
                }
            }
            // SAFETY: AVX was detected above.
            let got = unsafe { row_sums_8(&rows, n) };
            assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "n = {n}");
        }
    }

    /// The blend against the per-bit loop for every byte, to the bit, on
    /// values an arithmetic step would change: signed zeros and NaNs (a
    /// quiet one, a negative one and a signalling payload).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sign_select_8_takes_hi_where_the_bit_is_set() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let signalling = f32::from_bits(0x7fa0_0001);
        let values = [0.0f32, -0.0, 1.5, -2.0, 1e-40, f32::NAN, -f32::NAN, signalling];
        for byte in 0..=u8::MAX {
            for lo in values {
                for hi in values {
                    let want: [f32; 8] =
                        std::array::from_fn(|i| if (byte >> i) & 1 == 1 { hi } else { lo });
                    // SAFETY: AVX2 was detected above.
                    let got = unsafe { sign_select_8(byte, lo, hi) };
                    let (got, want) = (got.map(f32::to_bits), want.map(f32::to_bits));
                    assert_eq!(got, want, "{byte:#010b} {lo} {hi}");
                }
            }
        }
    }

    /// Also the line `scripts/check.sh` prints first, so a log shows which
    /// levels the suites below could reach on the host that ran them.
    #[test]
    fn detected_levels_run_from_scalar_to_the_host() {
        let levels = Level::detected();
        println!("simd levels detected: {levels:?}");
        assert_eq!(levels.first(), Some(&Level::Scalar));
        assert_eq!(levels.last(), Some(&host()));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }
}
