//! Runtime SIMD dispatch: the one place the workspace asks the CPU what it
//! can run.
//!
//! The dispatch level is a value, [`Level`]. Every kernel reads it through
//! [`level`] (or the two predicates below) and picks a copy of its code:
//!
//! - The model drivers in `model.rs` are safe loops with no intrinsics,
//!   compiled once as is and once more per level under
//!   `#[target_feature]`. The forward and backward have `Scalar` and `Avx`
//!   copies. The one-vs-all sweep (evaluation and serving) has a third,
//!   `Avx512`, copy.
//! - The optimizer rows, `matrix::axpy` and the quantization codec are
//!   explicit-AVX functions behind [`use_avx`] / [`use_avx2`], each with a
//!   portable scalar body that is bit-identical to it.
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
