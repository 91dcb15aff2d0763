//! §4.3 — Gradient quantization.
//!
//! Two families, matching the paper:
//!
//! **1-bit** (`quant(v) = sign(v) · scale`): each element is reduced to
//! its sign plus one or two per-row scale constants. The paper explores
//! six scale rules — `max`, `avg`, `posmax`/`negmax`, `posavg`/`negavg` —
//! and adopts **max of absolute values** as the most accurate.
//!
//! **2-bit** (TernGrad-style, modified): `quant(v) = sign(v) · mean(|v|) ·
//! P` with `P_i ~ Bernoulli(min(1, |v_i| / mean(|v|)))`, i.e. values in
//! `{−s, 0, +s}`. The paper swaps TernGrad's `max(|v|)` for `mean(|v|)`
//! having found it works better for KGE gradients.

use rand::Rng;

/// How the 1-bit scheme derives its per-row scale(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleRule {
    /// One scale: `max(|v|)` — the paper's choice.
    Max,
    /// One scale: `mean(|v|)`.
    Avg,
    /// Two scales: positives get `max(pos)`, negatives get `max(|neg|)`.
    PosNegMax,
    /// Two scales: positives get `mean(pos)`, negatives get `mean(|neg|)`.
    PosNegAvg,
}

/// A quantization scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantScheme {
    /// 32-bit floats, no quantization.
    None,
    /// 1 bit per element plus per-row scale(s).
    OneBit { rule: ScaleRule },
    /// 2 bits per element: `{−s, 0, +s}` with stochastic zeroing.
    TwoBit,
}

impl QuantScheme {
    /// The configuration the paper settles on (1-bit, max rule).
    pub fn paper_one_bit() -> Self {
        QuantScheme::OneBit { rule: ScaleRule::Max }
    }
}

/// A quantized gradient row in structural (pre-codec) form.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizedRow {
    /// Raw values (scheme [`QuantScheme::None`]).
    Full(Vec<f32>),
    /// Signs plus scales: element `k` decodes to `±scale` (two-scale rules
    /// use `pos_scale` for `+` and `neg_scale` for `−`).
    OneBit {
        signs: Vec<bool>, // true = positive
        pos_scale: f32,
        neg_scale: f32,
    },
    /// Ternary levels `−1 / 0 / +1` times `scale`.
    TwoBit { levels: Vec<i8>, scale: f32 },
}

impl QuantizedRow {
    /// Reconstruct the dense row.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.dequantize_into(&mut out);
        out
    }

    /// Reconstruct the dense row into a caller-owned buffer, overwriting
    /// it — the allocation-free counterpart of
    /// [`QuantizedRow::dequantize`] for hot paths that reuse one scratch
    /// row (error-feedback recording, decode/apply loops).
    ///
    /// # Panics
    /// If `out.len()` differs from [`QuantizedRow::len`].
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "dequantize buffer size mismatch");
        match self {
            QuantizedRow::Full(v) => out.copy_from_slice(v),
            QuantizedRow::OneBit {
                signs,
                pos_scale,
                neg_scale,
            } => {
                for (o, &s) in out.iter_mut().zip(signs) {
                    *o = if s { *pos_scale } else { -*neg_scale };
                }
            }
            QuantizedRow::TwoBit { levels, scale } => {
                for (o, &l) in out.iter_mut().zip(levels) {
                    *o = l as f32 * scale;
                }
            }
        }
    }

    /// Add the dequantized row into `out` (avoids the intermediate vec).
    pub fn add_into(&self, out: &mut [f32]) {
        match self {
            QuantizedRow::Full(v) => {
                for (o, &x) in out.iter_mut().zip(v) {
                    *o += x;
                }
            }
            QuantizedRow::OneBit {
                signs,
                pos_scale,
                neg_scale,
            } => {
                for (o, &s) in out.iter_mut().zip(signs) {
                    *o += if s { *pos_scale } else { -*neg_scale };
                }
            }
            QuantizedRow::TwoBit { levels, scale } => {
                for (o, &l) in out.iter_mut().zip(levels) {
                    *o += l as f32 * scale;
                }
            }
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            QuantizedRow::Full(v) => v.len(),
            QuantizedRow::OneBit { signs, .. } => signs.len(),
            QuantizedRow::TwoBit { levels, .. } => levels.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Quantize one gradient row under `scheme`. The RNG is used only by the
/// stochastic 2-bit scheme.
pub fn quantize_row<R: Rng>(scheme: QuantScheme, v: &[f32], rng: &mut R) -> QuantizedRow {
    let mut out = QuantizedRow::Full(Vec::new());
    quantize_row_into(scheme, v, rng, &mut out);
    out
}

/// Allocation-free [`quantize_row`]: reuses `out`'s buffers when the
/// variant matches `scheme` (the steady state — hot paths keep one
/// scratch `QuantizedRow` per scheme); only a variant switch allocates.
/// RNG consumption is identical to `quantize_row`, element by element, so
/// the two produce the same bits from the same stream.
pub fn quantize_row_into<R: Rng>(
    scheme: QuantScheme,
    v: &[f32],
    rng: &mut R,
    out: &mut QuantizedRow,
) {
    match scheme {
        QuantScheme::None => {
            if let QuantizedRow::Full(buf) = out {
                buf.clear();
                buf.extend_from_slice(v);
            } else {
                *out = QuantizedRow::Full(v.to_vec());
            }
        }
        QuantScheme::OneBit { rule } => {
            let (p, n) = scales(rule, v);
            if let QuantizedRow::OneBit {
                signs,
                pos_scale,
                neg_scale,
            } = out
            {
                signs.clear();
                signs.extend(v.iter().map(|&x| x >= 0.0));
                *pos_scale = p;
                *neg_scale = n;
            } else {
                *out = QuantizedRow::OneBit {
                    signs: v.iter().map(|&x| x >= 0.0).collect(),
                    pos_scale: p,
                    neg_scale: n,
                };
            }
        }
        QuantScheme::TwoBit => {
            let scale = mean_abs(v);
            let levels = match out {
                QuantizedRow::TwoBit { levels, scale: s } => {
                    *s = if scale <= 0.0 { 0.0 } else { scale };
                    levels.clear();
                    levels
                }
                _ => {
                    *out = QuantizedRow::TwoBit {
                        levels: Vec::with_capacity(v.len()),
                        scale: if scale <= 0.0 { 0.0 } else { scale },
                    };
                    match out {
                        QuantizedRow::TwoBit { levels, .. } => levels,
                        _ => unreachable!(),
                    }
                }
            };
            if scale <= 0.0 {
                levels.resize(v.len(), 0);
                return;
            }
            levels.extend(v.iter().map(|&x| {
                let p = (x.abs() / scale).min(1.0);
                if rng.gen::<f32>() < p {
                    if x >= 0.0 {
                        1i8
                    } else {
                        -1i8
                    }
                } else {
                    0i8
                }
            }));
        }
    }
}

fn mean_abs(v: &[f32]) -> f32 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().map(|x| x.abs()).sum::<f32>() / v.len() as f32
}

/// `max(|v|)`, one body compiled as is and with AVX. Eight lane maxima,
/// each a select `if x > m { x } else { m }` (`x = |v_k|`, so never
/// `-0.0`), then the lanes and the tail in order. A select is exact and
/// the maximum of non-negative values does not depend on their order, so
/// both copies give the serial fold's bits; a NaN is never greater, so
/// like `f32::max` the fold skips it. The `Avg` rules stay on the serial
/// sum, whose rounding *does* depend on order.
fn max_abs(v: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if kge_core::simd::use_avx() {
        // SAFETY: AVX presence was just detected at runtime.
        return unsafe { max_abs_avx(v) };
    }
    max_abs_body(v)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn max_abs_avx(v: &[f32]) -> f32 {
    max_abs_body(v)
}

#[inline(always)]
fn max_abs_body(v: &[f32]) -> f32 {
    // `f32::max` in the lanes lowers with a NaN fix-up and does not keep
    // pace with the bare select.
    let pick = |m: f32, x: f32| if x > m { x } else { m };
    let mut lanes = [0.0f32; 8];
    let (chunks, tail) = v.as_chunks::<8>();
    for chunk in chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            *m = pick(*m, x.abs());
        }
    }
    let m = lanes.into_iter().fold(0.0, pick);
    tail.iter().fold(m, |m, &x| pick(m, x.abs()))
}

/// `(max(pos), max(|neg|))` with the same `x >= 0.0` split as the sign
/// bits. One portable copy at every level: each 8-lane form differs from
/// this fold in the sign of a zero scale on some rows, and only
/// [`ScaleRule::PosNegMax`], no default, runs it.
fn posneg_max(v: &[f32]) -> (f32, f32) {
    let pos = v.iter().filter(|&&x| x >= 0.0).fold(0.0f32, |m, &x| m.max(x));
    let neg = v.iter().filter(|&&x| x < 0.0).fold(0.0f32, |m, &x| m.max(-x));
    (pos, neg)
}

/// Public `scales`: the codec's packed encode fast path
/// ([`crate::codec::RowEncoder::push_one_bit`]) derives scales straight
/// from the dense row without building a [`QuantizedRow`].
pub fn one_bit_scales(rule: ScaleRule, v: &[f32]) -> (f32, f32) {
    scales(rule, v)
}

/// Pack the signs of `v` (predicate `x >= 0.0`, exactly
/// [`quantize_row_into`]'s) straight into codec sign bytes appended to
/// `out`: bit `i` of byte `b` is element `8b + i`, the layout
/// [`crate::codec::RowEncoder::push`] produces from a sign vec (`-0.0` is
/// positive, NaN negative). One body compiled as is and with AVX, where a
/// whole byte's eight compares vectorize; both copies set the same bits.
pub fn pack_signs_into(v: &[f32], out: &mut Vec<u8>) {
    #[cfg(target_arch = "x86_64")]
    if kge_core::simd::use_avx() {
        // SAFETY: AVX presence was just detected at runtime.
        return unsafe { pack_signs_avx(v, out) };
    }
    pack_signs_body(v, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn pack_signs_avx(v: &[f32], out: &mut Vec<u8>) {
    pack_signs_body(v, out)
}

#[inline(always)]
fn pack_signs_body(v: &[f32], out: &mut Vec<u8>) {
    let byte_of = |chunk: &[f32]| {
        let mut byte = 0u8;
        for (i, &x) in chunk.iter().enumerate() {
            byte |= u8::from(x >= 0.0) << i;
        }
        byte
    };
    // Whole bytes as arrays, so their eight compares are one vector's.
    let (chunks, tail) = v.as_chunks::<8>();
    for chunk in chunks {
        out.push(byte_of(chunk));
    }
    if !tail.is_empty() {
        out.push(byte_of(tail));
    }
}

/// Overwrite `out` with the 1-bit dequantization of the dense row `v`
/// under scales `(pos_scale, neg_scale)` — the same `x >= 0.0` sign
/// predicate and `±scale` values as quantizing `v` and calling
/// [`QuantizedRow::dequantize_into`], without materializing the sign vec.
/// The exchange path uses this to record error feedback next to
/// [`crate::codec::RowEncoder::push_one_bit`]. A pure selection, compiled
/// as is and with AVX, hence the same bits from both copies.
pub fn one_bit_dequantize_from(v: &[f32], pos_scale: f32, neg_scale: f32, out: &mut [f32]) {
    assert_eq!(out.len(), v.len(), "dequantize buffer size mismatch");
    #[cfg(target_arch = "x86_64")]
    if kge_core::simd::use_avx() {
        // SAFETY: AVX presence was just detected at runtime.
        return unsafe { one_bit_dequantize_from_avx(v, pos_scale, neg_scale, out) };
    }
    one_bit_dequantize_from_body(v, pos_scale, neg_scale, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn one_bit_dequantize_from_avx(v: &[f32], pos_scale: f32, neg_scale: f32, out: &mut [f32]) {
    one_bit_dequantize_from_body(v, pos_scale, neg_scale, out)
}

#[inline(always)]
fn one_bit_dequantize_from_body(v: &[f32], pos_scale: f32, neg_scale: f32, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(v) {
        *o = if x >= 0.0 { pos_scale } else { -neg_scale };
    }
}

/// `(pos_scale, neg_scale)` for a 1-bit rule.
fn scales(rule: ScaleRule, v: &[f32]) -> (f32, f32) {
    match rule {
        ScaleRule::Max => {
            let s = max_abs(v);
            (s, s)
        }
        ScaleRule::Avg => {
            let s = mean_abs(v);
            (s, s)
        }
        ScaleRule::PosNegMax => posneg_max(v),
        ScaleRule::PosNegAvg => {
            let (psum, pn) = v
                .iter()
                .filter(|&&x| x >= 0.0)
                .fold((0.0f32, 0usize), |(s, n), &x| (s + x, n + 1));
            let (nsum, nn) = v
                .iter()
                .filter(|&&x| x < 0.0)
                .fold((0.0f32, 0usize), |(s, n), &x| (s - x, n + 1));
            (
                if pn > 0 { psum / pn as f32 } else { 0.0 },
                if nn > 0 { nsum / nn as f32 } else { 0.0 },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const V: [f32; 6] = [0.5, -1.0, 0.25, -0.25, 2.0, -0.5];

    #[test]
    fn none_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let q = quantize_row(QuantScheme::None, &V, &mut rng);
        assert_eq!(q.dequantize(), V.to_vec());
    }

    #[test]
    fn one_bit_max_uses_max_abs_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let q = quantize_row(QuantScheme::paper_one_bit(), &V, &mut rng);
        let d = q.dequantize();
        assert_eq!(d, vec![2.0, -2.0, 2.0, -2.0, 2.0, -2.0]);
    }

    #[test]
    fn one_bit_avg_uses_mean_abs_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let q = quantize_row(QuantScheme::OneBit { rule: ScaleRule::Avg }, &V, &mut rng);
        let mean = V.iter().map(|x| x.abs()).sum::<f32>() / 6.0;
        let d = q.dequantize();
        for (orig, dq) in V.iter().zip(&d) {
            assert_eq!(*dq, mean.copysign(*orig));
        }
    }

    #[test]
    fn one_bit_posneg_scales_differ() {
        let mut rng = StdRng::seed_from_u64(0);
        let q = quantize_row(
            QuantScheme::OneBit {
                rule: ScaleRule::PosNegMax,
            },
            &V,
            &mut rng,
        );
        let d = q.dequantize();
        // positives → max positive 2.0; negatives → max |neg| = 1.0
        assert_eq!(d, vec![2.0, -1.0, 2.0, -1.0, 2.0, -1.0]);

        let q = quantize_row(
            QuantScheme::OneBit {
                rule: ScaleRule::PosNegAvg,
            },
            &V,
            &mut rng,
        );
        let d = q.dequantize();
        let pos_avg = (0.5 + 0.25 + 2.0) / 3.0;
        let neg_avg = (1.0 + 0.25 + 0.5) / 3.0;
        assert!((d[0] - pos_avg).abs() < 1e-6);
        assert!((d[1] + neg_avg).abs() < 1e-6);
    }

    #[test]
    fn one_bit_preserves_signs() {
        let mut rng = StdRng::seed_from_u64(0);
        for rule in [ScaleRule::Max, ScaleRule::Avg, ScaleRule::PosNegMax, ScaleRule::PosNegAvg] {
            let q = quantize_row(QuantScheme::OneBit { rule }, &V, &mut rng);
            for (orig, dq) in V.iter().zip(q.dequantize()) {
                assert!(
                    orig * dq >= 0.0,
                    "sign flipped under {rule:?}: {orig} -> {dq}"
                );
            }
        }
    }

    #[test]
    fn two_bit_levels_are_ternary_and_scale_is_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = quantize_row(QuantScheme::TwoBit, &V, &mut rng);
        match &q {
            QuantizedRow::TwoBit { levels, scale } => {
                assert!(levels.iter().all(|&l| (-1..=1).contains(&l)));
                let mean = V.iter().map(|x| x.abs()).sum::<f32>() / 6.0;
                assert!((scale - mean).abs() < 1e-6);
                // The largest-magnitude element has p = 1: never zeroed.
                assert_eq!(levels[4], 1);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn two_bit_is_unbiased_in_expectation() {
        // E[level_i · scale] = sign·min(1,|v|/m)·m ≈ v for |v| ≤ m.
        let v = [0.1f32, -0.2, 0.3];
        let m = (0.1 + 0.2 + 0.3) / 3.0;
        assert!(v.iter().all(|x| x.abs() <= m + 0.11)); // 0.3 clips slightly
        let mut sums = [0.0f64; 3];
        let trials = 4000;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let q = quantize_row(QuantScheme::TwoBit, &v, &mut rng);
            for (s, x) in sums.iter_mut().zip(q.dequantize()) {
                *s += x as f64;
            }
        }
        for (i, s) in sums.iter().enumerate() {
            let mean = s / trials as f64;
            let expect = (v[i].abs().min(m) * v[i].signum()) as f64;
            assert!(
                (mean - expect).abs() < 0.02,
                "elem {i}: mean {mean} vs expected {expect}"
            );
        }
    }

    #[test]
    fn zero_vector_quantizes_to_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let z = [0.0f32; 4];
        for scheme in [QuantScheme::paper_one_bit(), QuantScheme::TwoBit] {
            let q = quantize_row(scheme, &z, &mut rng);
            assert!(q.dequantize().iter().all(|&x| x == 0.0), "{scheme:?}");
        }
    }

    #[test]
    fn add_into_matches_dequantize() {
        let mut rng = StdRng::seed_from_u64(1);
        for scheme in [QuantScheme::None, QuantScheme::paper_one_bit(), QuantScheme::TwoBit] {
            let q = quantize_row(scheme, &V, &mut rng);
            let mut acc = vec![1.0f32; V.len()];
            q.add_into(&mut acc);
            let expect: Vec<f32> = q.dequantize().iter().map(|x| x + 1.0).collect();
            assert_eq!(acc, expect);
        }
    }

    #[test]
    fn dequantize_into_overwrites_and_matches_dequantize() {
        let mut rng = StdRng::seed_from_u64(4);
        for scheme in [QuantScheme::None, QuantScheme::paper_one_bit(), QuantScheme::TwoBit] {
            let q = quantize_row(scheme, &V, &mut rng);
            let mut buf = vec![f32::NAN; V.len()]; // stale contents ignored
            q.dequantize_into(&mut buf);
            assert_eq!(buf, q.dequantize(), "{scheme:?}");
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn dequantize_into_rejects_wrong_size() {
        let q = QuantizedRow::Full(vec![1.0, 2.0]);
        let mut buf = [0.0f32; 3];
        q.dequantize_into(&mut buf);
    }

    #[test]
    fn quantize_row_into_reuses_buffers_and_matches() {
        for scheme in [QuantScheme::None, QuantScheme::paper_one_bit(), QuantScheme::TwoBit] {
            let mut rng_a = StdRng::seed_from_u64(9);
            let mut rng_b = StdRng::seed_from_u64(9);
            let fresh = quantize_row(scheme, &V, &mut rng_a);
            // Warm a scratch row with a first call, then reuse it.
            let mut scratch = QuantizedRow::Full(Vec::new());
            let mut rng_warm = StdRng::seed_from_u64(1234);
            quantize_row_into(scheme, &[1.0, -2.0], &mut rng_warm, &mut scratch);
            quantize_row_into(scheme, &V, &mut rng_b, &mut scratch);
            assert_eq!(scratch, fresh, "{scheme:?}");
        }
    }

    #[test]
    fn quantization_error_bounded_by_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = quantize_row(QuantScheme::paper_one_bit(), &V, &mut rng);
        let max = 2.0f32;
        for (orig, dq) in V.iter().zip(q.dequantize()) {
            assert!((orig - dq).abs() <= max);
        }
    }
}
