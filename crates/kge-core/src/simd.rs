//! Runtime SIMD dispatch control for the AVX kernels.
//!
//! Every vectorized kernel in the workspace (training score+grad blocks,
//! one-vs-all evaluation, the quantization codec) is written as a pair:
//! an explicit-AVX function behind a runtime feature check and a portable
//! scalar/register-blocked body that is bit-identical to it. This module
//! owns the single switch that picks between them:
//!
//! - `KGE_FORCE_SCALAR` (env, any non-empty value other than `0`) forces
//!   every dispatch to the scalar arm — CI runs the bit-identity property
//!   tests once per arm on the same host.
//! - [`set_force_scalar`] overrides the env for in-process A/B
//!   comparisons (benchmarks that time both arms and verify their outputs
//!   are bit-identical).
//!
//! The override is process-global: flipping it mid-run only changes which
//! of two bit-identical implementations executes, never the results.

use std::sync::atomic::{AtomicU8, Ordering};

const UNSET: u8 = 0;
const FORCE: u8 = 1;
const AUTO: u8 = 2;

static FORCE_SCALAR: AtomicU8 = AtomicU8::new(UNSET);

/// Whether scalar kernels are forced (env `KGE_FORCE_SCALAR` or an
/// in-process [`set_force_scalar`] override). The env is read once and
/// cached.
#[inline]
pub fn force_scalar() -> bool {
    match FORCE_SCALAR.load(Ordering::Relaxed) {
        FORCE => true,
        AUTO => false,
        _ => {
            let forced = std::env::var_os("KGE_FORCE_SCALAR")
                .is_some_and(|v| !v.is_empty() && v != "0");
            FORCE_SCALAR.store(if forced { FORCE } else { AUTO }, Ordering::Relaxed);
            forced
        }
    }
}

/// Override the dispatch: `Some(true)` forces scalar, `Some(false)` allows
/// SIMD regardless of the env, `None` re-arms the cached env read.
pub fn set_force_scalar(force: Option<bool>) {
    let state = match force {
        Some(true) => FORCE,
        Some(false) => AUTO,
        None => UNSET,
    };
    FORCE_SCALAR.store(state, Ordering::Relaxed);
}

/// Whether the host CPU supports AVX (independent of the scalar override).
#[inline]
pub fn avx_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dispatch decision for AVX kernels: the CPU has AVX and scalar is not
/// forced. `std` caches the feature detection, so this is two relaxed
/// atomic loads — negligible next to any row-sized kernel.
#[inline]
pub fn use_avx() -> bool {
    !force_scalar() && avx_detected()
}

/// Dispatch decision for kernels needing AVX2 (256-bit integer ops, used
/// by the sign-bit broadcast decode in the codec).
#[inline]
pub fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !force_scalar() && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// In-crate tests that set the process-global override hold this, so each
/// runs the arm it asked for while the others run in parallel.
#[cfg(test)]
pub(crate) static TEST_ARM: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_over_env() {
        let _arm = TEST_ARM.lock().unwrap_or_else(|e| e.into_inner());
        set_force_scalar(Some(true));
        assert!(force_scalar());
        assert!(!use_avx());
        assert!(!use_avx2());
        set_force_scalar(Some(false));
        assert!(!force_scalar());
        assert_eq!(use_avx(), avx_detected());
        set_force_scalar(None);
        // Re-armed: next read comes from the env again (no KGE_FORCE_SCALAR
        // in the test environment means SIMD is allowed).
        let _ = force_scalar();
    }
}
