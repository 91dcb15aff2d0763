//! Byte-level wire formats for sparse (possibly quantized) gradient rows.
//!
//! The all-gather path communicates `(row id, payload)` pairs; the payload
//! is either raw `f32`s, 1-bit signs + scale(s), or 2-bit ternary levels +
//! scale. Encoded size is exactly what the simulated network is charged
//! for, so the formats are packed tight:
//!
//! ```text
//! header:  tag u8 | n_rows u32 | dim u32
//! F32 row:     row u32 | dim × f32
//! OneBit row:  row u32 | scale f32 [| neg_scale f32] | ⌈dim/8⌉ sign bytes
//! TwoBit row:  row u32 | scale f32 | ⌈dim/4⌉ level bytes
//! ```

use crate::quant::QuantizedRow;

/// Wire format selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Raw sparse f32 rows.
    F32,
    /// Sign-bit rows. `two_scales` stores separate positive/negative
    /// scales (the posmax/posavg/negmax/negavg rules).
    OneBit { two_scales: bool },
    /// Ternary rows.
    TwoBit,
}

impl WireFormat {
    fn tag(self) -> u8 {
        match self {
            WireFormat::F32 => 0,
            WireFormat::OneBit { two_scales: false } => 1,
            WireFormat::OneBit { two_scales: true } => 2,
            WireFormat::TwoBit => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => WireFormat::F32,
            1 => WireFormat::OneBit { two_scales: false },
            2 => WireFormat::OneBit { two_scales: true },
            3 => WireFormat::TwoBit,
            _ => return Err(CodecError::BadTag(tag)),
        })
    }

    /// Bytes of one encoded row of width `dim`.
    fn row_bytes(self, dim: usize) -> usize {
        4 + match self {
            WireFormat::F32 => 4 * dim,
            WireFormat::OneBit { two_scales } => (if two_scales { 8 } else { 4 }) + dim.div_ceil(8),
            WireFormat::TwoBit => 4 + dim.div_ceil(4),
        }
    }

    /// Total encoded size of `n_rows` rows of width `dim`, header included.
    /// This is what the dynamic communication-selection strategy uses to
    /// price a hypothetical all-gather without encoding.
    pub fn payload_bytes(self, dim: usize, n_rows: usize) -> usize {
        9 + n_rows * self.row_bytes(dim)
    }
}

/// A decoded `(row id, payload)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPayload {
    pub row: u32,
    pub data: QuantizedRow,
}

/// Codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    BadTag(u8),
    Truncated { need: usize, have: usize },
    WrongVariant { expected: &'static str },
    DimMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadTag(t) => write!(f, "unknown wire format tag {t}"),
            CodecError::Truncated { need, have } => {
                write!(f, "truncated payload: need {need} bytes, have {have}")
            }
            CodecError::WrongVariant { expected } => {
                write!(f, "row payload does not match wire format {expected}")
            }
            CodecError::DimMismatch { expected, got } => {
                write!(f, "row width {got} does not match declared dim {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Streaming encoder that writes rows directly into a caller-owned byte
/// buffer — the buffer-reusing counterpart of [`encode_rows`]. The hot
/// exchange path keeps one `Vec<u8>` per worker and re-encodes into it
/// every batch; the byte layout is identical to [`encode_rows`], so either
/// side can decode the other's payloads.
pub struct RowEncoder<'a> {
    buf: &'a mut Vec<u8>,
    format: WireFormat,
    dim: usize,
    n_rows: u32,
}

impl<'a> RowEncoder<'a> {
    /// Start a payload in `buf` (cleared first; capacity is kept).
    pub fn new(format: WireFormat, dim: usize, buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        buf.push(format.tag());
        buf.extend_from_slice(&0u32.to_le_bytes()); // n_rows, patched by finish()
        buf.extend_from_slice(&(dim as u32).to_le_bytes());
        RowEncoder {
            buf,
            format,
            dim,
            n_rows: 0,
        }
    }

    /// Append one `(row id, payload)` pair.
    pub fn push(&mut self, row: u32, data: &QuantizedRow) -> Result<(), CodecError> {
        if data.len() != self.dim {
            return Err(CodecError::DimMismatch {
                expected: self.dim,
                got: data.len(),
            });
        }
        self.buf.extend_from_slice(&row.to_le_bytes());
        match (data, self.format) {
            (QuantizedRow::Full(v), WireFormat::F32) => {
                for &x in v {
                    self.buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            (
                QuantizedRow::OneBit {
                    signs,
                    pos_scale,
                    neg_scale,
                },
                WireFormat::OneBit { two_scales },
            ) => {
                self.buf.extend_from_slice(&pos_scale.to_le_bytes());
                if two_scales {
                    self.buf.extend_from_slice(&neg_scale.to_le_bytes());
                } else if pos_scale != neg_scale {
                    return Err(CodecError::WrongVariant {
                        expected: "one-scale OneBit",
                    });
                }
                for chunk in signs.chunks(8) {
                    let mut byte = 0u8;
                    for (i, &s) in chunk.iter().enumerate() {
                        if s {
                            byte |= 1 << i;
                        }
                    }
                    self.buf.push(byte);
                }
            }
            (QuantizedRow::TwoBit { levels, scale }, WireFormat::TwoBit) => {
                self.buf.extend_from_slice(&scale.to_le_bytes());
                for chunk in levels.chunks(4) {
                    let mut byte = 0u8;
                    for (i, &l) in chunk.iter().enumerate() {
                        let code: u8 = match l {
                            0 => 0b00,
                            1 => 0b01,
                            _ => 0b10, // -1
                        };
                        byte |= code << (2 * i);
                    }
                    self.buf.push(byte);
                }
            }
            _ => {
                return Err(CodecError::WrongVariant {
                    expected: match self.format {
                        WireFormat::F32 => "F32",
                        WireFormat::OneBit { .. } => "OneBit",
                        WireFormat::TwoBit => "TwoBit",
                    },
                })
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Append one OneBit row by quantizing the dense row `v` straight into
    /// the packed wire format — scales via
    /// [`crate::quant::one_bit_scales`], signs via
    /// [`crate::quant::pack_signs_into`]'s movemask packing — skipping the
    /// intermediate `Vec<bool>` a [`QuantizedRow::OneBit`] would carry.
    /// The bytes are identical to `quantize_row_into` + [`Self::push`];
    /// the scales are returned so callers can record error feedback (see
    /// [`crate::quant::one_bit_dequantize_from`]) without re-deriving
    /// them.
    pub fn push_one_bit(
        &mut self,
        row: u32,
        v: &[f32],
        rule: crate::quant::ScaleRule,
    ) -> Result<(f32, f32), CodecError> {
        let two_scales = match self.format {
            WireFormat::OneBit { two_scales } => two_scales,
            _ => return Err(CodecError::WrongVariant { expected: "OneBit" }),
        };
        if v.len() != self.dim {
            return Err(CodecError::DimMismatch {
                expected: self.dim,
                got: v.len(),
            });
        }
        let (pos, neg) = crate::quant::one_bit_scales(rule, v);
        self.buf.extend_from_slice(&row.to_le_bytes());
        self.buf.extend_from_slice(&pos.to_le_bytes());
        if two_scales {
            self.buf.extend_from_slice(&neg.to_le_bytes());
        } else if pos != neg {
            return Err(CodecError::WrongVariant {
                expected: "one-scale OneBit",
            });
        }
        crate::quant::pack_signs_into(v, self.buf);
        self.n_rows += 1;
        Ok((pos, neg))
    }

    /// Append a raw `f32` row under the [`WireFormat::F32`] format without
    /// materializing a [`QuantizedRow`]: the unquantized gather and the
    /// table-row gathers encode straight out of the accumulator or the
    /// embedding table. The row's bytes are sized once and written by a
    /// fixed-stride loop the compiler turns into wide copies.
    pub fn push_f32(&mut self, row: u32, v: &[f32]) -> Result<(), CodecError> {
        if self.format != WireFormat::F32 {
            return Err(CodecError::WrongVariant { expected: "F32" });
        }
        if v.len() != self.dim {
            return Err(CodecError::DimMismatch {
                expected: self.dim,
                got: v.len(),
            });
        }
        let start = self.buf.len();
        self.buf.resize(start + 4 + 4 * v.len(), 0);
        let (id, body) = self.buf[start..].split_at_mut(4);
        id.copy_from_slice(&row.to_le_bytes());
        for (b, &x) in body.chunks_exact_mut(4).zip(v) {
            b.copy_from_slice(&x.to_le_bytes());
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Patch the row count into the header and return the payload length.
    pub fn finish(self) -> usize {
        self.buf[1..5].copy_from_slice(&self.n_rows.to_le_bytes());
        self.buf.len()
    }
}

/// Encode rows (all of width `dim`) under `format`.
pub fn encode_rows(
    format: WireFormat,
    dim: usize,
    rows: &[RowPayload],
) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::with_capacity(format.payload_bytes(dim, rows.len()));
    let mut enc = RowEncoder::new(format, dim, &mut buf);
    for rp in rows {
        enc.push(rp.row, &rp.data)?;
    }
    enc.finish();
    Ok(buf)
}

/// A borrowed view of one encoded row: the row id plus the packed payload
/// bytes still sitting in the receive buffer. [`RowRef::add_into`] and
/// [`RowRef::dequantize_into`] apply the row without materializing a
/// [`QuantizedRow`], which keeps the decode/accumulate loop allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// The row id this payload belongs to.
    pub row: u32,
    dim: usize,
    data: RowBytes<'a>,
}

#[derive(Debug, Clone, Copy)]
enum RowBytes<'a> {
    Full(&'a [u8]),
    OneBit {
        sign_bytes: &'a [u8],
        pos_scale: f32,
        neg_scale: f32,
    },
    TwoBit {
        level_bytes: &'a [u8],
        scale: f32,
    },
}

impl RowRef<'_> {
    /// Declared row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Add the dequantized row into `out`, reading the packed bytes in
    /// place. Values are bit-identical to decoding a [`QuantizedRow`] and
    /// calling [`QuantizedRow::add_into`].
    ///
    /// # Panics
    /// If `out.len()` differs from the declared row width.
    pub fn add_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "row width mismatch");
        match self.data {
            RowBytes::Full(bytes) => {
                for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *o += f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
            }
            RowBytes::OneBit {
                sign_bytes,
                pos_scale,
                neg_scale,
            } => {
                one_bit_apply::<true>(sign_bytes, pos_scale, neg_scale, out);
            }
            RowBytes::TwoBit { level_bytes, scale } => {
                for (k, o) in out.iter_mut().enumerate() {
                    let level: f32 = match (level_bytes[k / 4] >> (2 * (k % 4))) & 0b11 {
                        0b00 => 0.0,
                        0b01 => 1.0,
                        _ => -1.0,
                    };
                    *o += level * scale;
                }
            }
        }
    }

    /// Overwrite `out` with the dequantized row. Written values are
    /// bit-exact: an F32 payload restores the original bytes (including
    /// negative zeros), matching [`QuantizedRow::dequantize_into`].
    ///
    /// # Panics
    /// If `out.len()` differs from the declared row width.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "row width mismatch");
        match self.data {
            RowBytes::Full(bytes) => {
                for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
            }
            RowBytes::OneBit {
                sign_bytes,
                pos_scale,
                neg_scale,
            } => {
                one_bit_apply::<false>(sign_bytes, pos_scale, neg_scale, out);
            }
            RowBytes::TwoBit { level_bytes, scale } => {
                for (k, o) in out.iter_mut().enumerate() {
                    let level: f32 = match (level_bytes[k / 4] >> (2 * (k % 4))) & 0b11 {
                        0b00 => 0.0,
                        0b01 => 1.0,
                        _ => -1.0,
                    };
                    *o = level * scale;
                }
            }
        }
    }

    /// Materialize the payload as an owned [`QuantizedRow`] (allocates;
    /// the compatibility path used by [`decode_rows`]).
    fn to_quantized(self) -> QuantizedRow {
        match self.data {
            RowBytes::Full(bytes) => QuantizedRow::Full(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            ),
            RowBytes::OneBit {
                sign_bytes,
                pos_scale,
                neg_scale,
            } => QuantizedRow::OneBit {
                signs: (0..self.dim)
                    .map(|k| sign_bytes[k / 8] & (1 << (k % 8)) != 0)
                    .collect(),
                pos_scale,
                neg_scale,
            },
            RowBytes::TwoBit { level_bytes, scale } => QuantizedRow::TwoBit {
                levels: (0..self.dim)
                    .map(|k| match (level_bytes[k / 4] >> (2 * (k % 4))) & 0b11 {
                        0b00 => 0i8,
                        0b01 => 1,
                        _ => -1,
                    })
                    .collect(),
                scale,
            },
        }
    }
}

/// Expand packed sign bytes into `±scale` values, eight elements per sign
/// byte — the OneBit decode fast path behind [`RowRef::add_into`]
/// (`ADD = true`) and [`RowRef::dequantize_into`] (`ADD = false`). One
/// body, [`one_bit_apply_body`], over a byte's eight values: the portable
/// copy expands each byte through a two-entry value table, the AVX2 copy
/// through `kge_core::simd::sign_select_8` (bit `i` selects lane `i`,
/// matching the codec's `1 << i` packing). Both are pure selections of the
/// same two f32 values the per-element probe produced, hence bit-identical
/// to it.
fn one_bit_apply<const ADD: bool>(sign_bytes: &[u8], pos_scale: f32, neg_scale: f32, out: &mut [f32]) {
    assert!(sign_bytes.len() >= out.len().div_ceil(8), "sign bytes short of the row");
    #[cfg(target_arch = "x86_64")]
    if kge_core::simd::use_avx2() {
        // SAFETY: AVX2 presence was just detected at runtime.
        return unsafe { one_bit_apply_avx2::<ADD>(sign_bytes, pos_scale, neg_scale, out) };
    }
    let vals = [-neg_scale, pos_scale];
    let expand = |b: u8| std::array::from_fn(|i| vals[usize::from((b >> i) & 1)]);
    one_bit_apply_body::<ADD>(sign_bytes, out, expand)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn one_bit_apply_avx2<const ADD: bool>(
    sign_bytes: &[u8],
    pos_scale: f32,
    neg_scale: f32,
    out: &mut [f32],
) {
    let expand = |b: u8| kge_core::simd::sign_select_8(b, -neg_scale, pos_scale);
    one_bit_apply_body::<ADD>(sign_bytes, out, expand)
}

/// Write (or with `ADD`, add) `expand(byte)` over each sign byte's eight
/// elements of `out`, and the first `out.len() % 8` of the last byte's.
#[inline(always)]
fn one_bit_apply_body<const ADD: bool>(
    sign_bytes: &[u8],
    out: &mut [f32],
    expand: impl Fn(u8) -> [f32; 8],
) {
    let apply = |o8: &mut [f32], vals: [f32; 8]| {
        for (o, x) in o8.iter_mut().zip(vals) {
            if ADD {
                *o += x;
            } else {
                *o = x;
            }
        }
    };
    let (chunks, tail) = out.as_chunks_mut::<8>();
    let n8 = chunks.len();
    for (&b, o8) in sign_bytes.iter().zip(chunks) {
        apply(o8, expand(b));
    }
    if !tail.is_empty() {
        apply(tail, expand(sign_bytes[n8]));
    }
}

/// Streaming zero-copy decoder over a payload produced by [`encode_rows`]
/// or [`RowEncoder`]. Yields [`RowRef`]s borrowing the input buffer.
pub struct RowDecoder<'a> {
    buf: &'a [u8],
    format: WireFormat,
    dim: usize,
    remaining: u32,
}

impl<'a> RowDecoder<'a> {
    /// Parse the payload header.
    pub fn new(bytes: &'a [u8]) -> Result<Self, CodecError> {
        if bytes.len() < 9 {
            return Err(CodecError::Truncated {
                need: 9,
                have: bytes.len(),
            });
        }
        let format = WireFormat::from_tag(bytes[0])?;
        let n_rows = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
        let dim = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) as usize;
        Ok(RowDecoder {
            buf: &bytes[9..],
            format,
            dim,
            remaining: n_rows,
        })
    }

    /// Declared row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The payload's wire format.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Rows not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining as usize
    }

    /// Yield the next row, or `None` when the declared count is exhausted.
    #[allow(clippy::should_implement_trait)] // fallible next: Iterator would lose the error
    pub fn next_row(&mut self) -> Option<Result<RowRef<'a>, CodecError>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.parse_row())
    }

    fn parse_row(&mut self) -> Result<RowRef<'a>, CodecError> {
        let body = self.format.row_bytes(self.dim) - 4;
        let need = 4 + body;
        if self.buf.len() < need {
            return Err(CodecError::Truncated {
                need,
                have: self.buf.len(),
            });
        }
        let row = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        let payload = &self.buf[4..need];
        self.buf = &self.buf[need..];
        let data = match self.format {
            WireFormat::F32 => RowBytes::Full(payload),
            WireFormat::OneBit { two_scales } => {
                let pos_scale = f32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
                let (neg_scale, off) = if two_scales {
                    (
                        f32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]),
                        8,
                    )
                } else {
                    (pos_scale, 4)
                };
                RowBytes::OneBit {
                    sign_bytes: &payload[off..],
                    pos_scale,
                    neg_scale,
                }
            }
            WireFormat::TwoBit => RowBytes::TwoBit {
                level_bytes: &payload[4..],
                scale: f32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]),
            },
        };
        Ok(RowRef {
            row,
            dim: self.dim,
            data,
        })
    }
}

/// Decode a payload produced by [`encode_rows`]. Returns the rows and the
/// declared row width.
pub fn decode_rows(bytes: &[u8]) -> Result<(Vec<RowPayload>, usize), CodecError> {
    let mut dec = RowDecoder::new(bytes)?;
    let mut rows = Vec::with_capacity(dec.remaining());
    while let Some(r) = dec.next_row() {
        let r = r?;
        rows.push(RowPayload {
            row: r.row,
            data: r.to_quantized(),
        });
    }
    Ok((rows, dec.dim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{quantize_row, QuantScheme};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_rows(scheme: QuantScheme, dim: usize, n: usize) -> Vec<RowPayload> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|i| {
                let v: Vec<f32> = (0..dim)
                    .map(|k| ((i * 7 + k * 3) % 11) as f32 - 5.0 + 0.5 * (i as f32))
                    .collect();
                RowPayload {
                    row: (i * 13) as u32,
                    data: quantize_row(scheme, &v, &mut rng),
                }
            })
            .collect()
    }

    #[test]
    fn f32_roundtrip() {
        let rows = sample_rows(QuantScheme::None, 7, 5);
        let bytes = encode_rows(WireFormat::F32, 7, &rows).unwrap();
        let (decoded, dim) = decode_rows(&bytes).unwrap();
        assert_eq!(dim, 7);
        assert_eq!(decoded, rows);
    }

    /// The dense rows behind `sample_rows(scheme, dim, n)` (the packed
    /// fast path quantizes straight from these).
    fn sample_dense(dim: usize, n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|k| ((i * 7 + k * 3) % 11) as f32 - 5.0 + 0.5 * (i as f32))
                    .collect()
            })
            .collect()
    }

    /// Encode the same dense rows through [`RowEncoder::push_one_bit`]
    /// and assert byte-identity with the `QuantizedRow` reference payload.
    fn assert_packed_path_matches(
        rule: crate::quant::ScaleRule,
        fmt: WireFormat,
        dim: usize,
        rows: &[RowPayload],
        reference: &[u8],
    ) {
        let dense = sample_dense(dim, rows.len());
        let mut buf = Vec::new();
        let mut enc = RowEncoder::new(fmt, dim, &mut buf);
        for (rp, v) in rows.iter().zip(&dense) {
            enc.push_one_bit(rp.row, v, rule).unwrap();
        }
        enc.finish();
        assert_eq!(buf, reference, "packed fast path must match {fmt:?}");
    }

    #[test]
    fn one_bit_roundtrip_one_scale() {
        let rows = sample_rows(QuantScheme::paper_one_bit(), 13, 4);
        let fmt = WireFormat::OneBit { two_scales: false };
        let bytes = encode_rows(fmt, 13, &rows).unwrap();
        assert_eq!(bytes.len(), fmt.payload_bytes(13, 4));
        let (decoded, _) = decode_rows(&bytes).unwrap();
        for (a, b) in decoded.iter().zip(&rows) {
            assert_eq!(a.row, b.row);
            assert_eq!(a.data.dequantize(), b.data.dequantize());
        }
        assert_packed_path_matches(crate::quant::ScaleRule::Max, fmt, 13, &rows, &bytes);
    }

    #[test]
    fn one_bit_roundtrip_two_scales() {
        use crate::quant::ScaleRule;
        let rows = sample_rows(
            QuantScheme::OneBit {
                rule: ScaleRule::PosNegAvg,
            },
            9,
            3,
        );
        let fmt = WireFormat::OneBit { two_scales: true };
        let bytes = encode_rows(fmt, 9, &rows).unwrap();
        let (decoded, _) = decode_rows(&bytes).unwrap();
        assert_eq!(decoded, rows);
        assert_packed_path_matches(ScaleRule::PosNegAvg, fmt, 9, &rows, &bytes);
    }

    #[test]
    fn push_one_bit_rejects_mismatches() {
        let mut buf = Vec::new();
        let mut enc = RowEncoder::new(WireFormat::F32, 4, &mut buf);
        let err = enc
            .push_one_bit(0, &[1.0; 4], crate::quant::ScaleRule::Max)
            .unwrap_err();
        assert!(matches!(err, CodecError::WrongVariant { .. }));

        let mut buf = Vec::new();
        let mut enc = RowEncoder::new(WireFormat::OneBit { two_scales: false }, 4, &mut buf);
        let err = enc
            .push_one_bit(0, &[1.0; 3], crate::quant::ScaleRule::Max)
            .unwrap_err();
        assert!(matches!(err, CodecError::DimMismatch { .. }));
        // A two-scale rule cannot ride a one-scale format (unless the
        // scales coincide) — same contract as `push`.
        let err = enc
            .push_one_bit(0, &[1.0, -2.0, 3.0, -4.0], crate::quant::ScaleRule::PosNegMax)
            .unwrap_err();
        assert!(matches!(err, CodecError::WrongVariant { .. }));
    }

    #[test]
    fn two_bit_roundtrip() {
        let rows = sample_rows(QuantScheme::TwoBit, 10, 6);
        let bytes = encode_rows(WireFormat::TwoBit, 10, &rows).unwrap();
        assert_eq!(bytes.len(), WireFormat::TwoBit.payload_bytes(10, 6));
        let (decoded, _) = decode_rows(&bytes).unwrap();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn one_bit_is_much_smaller_than_f32() {
        let dim = 128;
        let f32_size = WireFormat::F32.payload_bytes(dim, 100);
        let one_bit = WireFormat::OneBit { two_scales: false }.payload_bytes(dim, 100);
        // 4 + 512 vs 4 + 4 + 16 per row → ~21x smaller.
        assert!(f32_size > 20 * one_bit / 2, "f32={f32_size} 1bit={one_bit}");
        assert!(one_bit < f32_size / 10);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = encode_rows(WireFormat::F32, 4, &[]).unwrap();
        let (rows, dim) = decode_rows(&bytes).unwrap();
        assert!(rows.is_empty());
        assert_eq!(dim, 4);
    }

    #[test]
    fn wrong_variant_rejected() {
        let rows = sample_rows(QuantScheme::None, 4, 1);
        let err = encode_rows(WireFormat::TwoBit, 4, &rows).unwrap_err();
        assert!(matches!(err, CodecError::WrongVariant { .. }));
    }

    #[test]
    fn dim_mismatch_rejected() {
        let rows = sample_rows(QuantScheme::None, 4, 1);
        let err = encode_rows(WireFormat::F32, 5, &rows).unwrap_err();
        assert!(matches!(err, CodecError::DimMismatch { .. }));
    }

    #[test]
    fn truncated_payload_rejected() {
        let rows = sample_rows(QuantScheme::None, 4, 2);
        let bytes = encode_rows(WireFormat::F32, 4, &rows).unwrap();
        let err = decode_rows(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn bad_tag_rejected() {
        let err = decode_rows(&[9u8, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(err, CodecError::BadTag(9));
    }

    #[test]
    fn row_encoder_matches_encode_rows_bytewise() {
        for (scheme, fmt, dim) in [
            (QuantScheme::None, WireFormat::F32, 7),
            (
                QuantScheme::paper_one_bit(),
                WireFormat::OneBit { two_scales: false },
                13,
            ),
            (
                QuantScheme::OneBit {
                    rule: crate::quant::ScaleRule::PosNegAvg,
                },
                WireFormat::OneBit { two_scales: true },
                9,
            ),
            (QuantScheme::TwoBit, WireFormat::TwoBit, 10),
        ] {
            let rows = sample_rows(scheme, dim, 5);
            let reference = encode_rows(fmt, dim, &rows).unwrap();
            let mut buf = vec![0xAAu8; 3]; // stale contents must be discarded
            let mut enc = RowEncoder::new(fmt, dim, &mut buf);
            for rp in &rows {
                enc.push(rp.row, &rp.data).unwrap();
            }
            let n = enc.finish();
            assert_eq!(n, buf.len());
            assert_eq!(buf, reference, "{fmt:?}");
        }
    }

    #[test]
    fn push_f32_matches_full_quantized_push() {
        let rows = sample_rows(QuantScheme::None, 6, 3);
        let reference = encode_rows(WireFormat::F32, 6, &rows).unwrap();
        let mut buf = Vec::new();
        let mut enc = RowEncoder::new(WireFormat::F32, 6, &mut buf);
        for rp in &rows {
            match &rp.data {
                QuantizedRow::Full(v) => enc.push_f32(rp.row, v).unwrap(),
                _ => unreachable!(),
            }
        }
        enc.finish();
        assert_eq!(buf, reference);
    }

    #[test]
    fn push_f32_rejects_non_f32_format() {
        let mut buf = Vec::new();
        let mut enc = RowEncoder::new(WireFormat::TwoBit, 4, &mut buf);
        let err = enc.push_f32(0, &[1.0, 2.0, 3.0, 4.0]).unwrap_err();
        assert!(matches!(err, CodecError::WrongVariant { .. }));
    }

    #[test]
    fn row_decoder_add_into_matches_quantized_add_into() {
        for (scheme, fmt, dim) in [
            (QuantScheme::None, WireFormat::F32, 7),
            (
                QuantScheme::paper_one_bit(),
                WireFormat::OneBit { two_scales: false },
                13,
            ),
            (
                QuantScheme::OneBit {
                    rule: crate::quant::ScaleRule::PosNegAvg,
                },
                WireFormat::OneBit { two_scales: true },
                9,
            ),
            (QuantScheme::TwoBit, WireFormat::TwoBit, 10),
        ] {
            let rows = sample_rows(scheme, dim, 4);
            let bytes = encode_rows(fmt, dim, &rows).unwrap();
            let mut dec = RowDecoder::new(&bytes).unwrap();
            assert_eq!(dec.dim(), dim);
            assert_eq!(dec.format(), fmt);
            assert_eq!(dec.remaining(), 4);
            for rp in &rows {
                let r = dec.next_row().unwrap().unwrap();
                assert_eq!(r.row, rp.row);
                let mut borrowed = vec![0.5f32; dim];
                let mut owned = vec![0.5f32; dim];
                r.add_into(&mut borrowed);
                rp.data.add_into(&mut owned);
                assert_eq!(borrowed, owned, "{fmt:?}");
                let mut deq = vec![f32::NAN; dim];
                r.dequantize_into(&mut deq);
                assert_eq!(deq, rp.data.dequantize(), "{fmt:?}");
                assert_eq!(r.to_quantized(), rp.data, "{fmt:?}");
            }
            assert!(dec.next_row().is_none());
        }
    }

    #[test]
    fn row_decoder_reports_truncation() {
        let rows = sample_rows(QuantScheme::None, 4, 2);
        let bytes = encode_rows(WireFormat::F32, 4, &rows).unwrap();
        let mut dec = RowDecoder::new(&bytes[..bytes.len() - 3]).unwrap();
        assert!(dec.next_row().unwrap().is_ok());
        let err = dec.next_row().unwrap().unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn row_bytes_formula() {
        assert_eq!(WireFormat::F32.row_bytes(8), 4 + 32);
        assert_eq!(WireFormat::OneBit { two_scales: false }.row_bytes(8), 4 + 4 + 1);
        assert_eq!(WireFormat::OneBit { two_scales: true }.row_bytes(9), 4 + 8 + 2);
        assert_eq!(WireFormat::TwoBit.row_bytes(8), 4 + 4 + 2);
    }
}
