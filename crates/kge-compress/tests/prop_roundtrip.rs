//! Property tests for the compression stack: codec roundtrips, sign
//! preservation, error-feedback conservation, and selection invariants.

use kge_compress::codec::{decode_rows, encode_rows, CodecError, RowDecoder, RowEncoder, RowPayload};
use kge_compress::quant::{quantize_row, QuantScheme, QuantizedRow, ScaleRule};
use kge_compress::row_select::{select_rows, RowSelector};
use kge_compress::{ResidualStore, WireFormat};
use kge_core::simd::{set_level, Level};
use kge_core::SparseGrad;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn row_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, dim..=dim)
}

const RULES: [ScaleRule; 4] = [
    ScaleRule::Max,
    ScaleRule::Avg,
    ScaleRule::PosNegMax,
    ScaleRule::PosNegAvg,
];

fn fmt_for(rule: ScaleRule) -> WireFormat {
    WireFormat::OneBit {
        two_scales: matches!(rule, ScaleRule::PosNegMax | ScaleRule::PosNegAvg),
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `select_rows` as it was before it kept norms and keep weights in the
/// gradient's per-slot scratch — norms collected in ascending row order, a
/// hashed keep map, norms recomputed inside `retain` — the reference the
/// in-place version must reproduce row for row and draw for draw.
fn select_rows_reference(selector: RowSelector, grad: &mut SparseGrad, rng: &mut StdRng) {
    use kge_core::matrix::l2_norm;
    use rand::Rng;
    if grad.is_empty() || selector == RowSelector::None {
        return;
    }
    let norms: Vec<(u32, f32)> = grad.iter_sorted().map(|(row, g)| (row, l2_norm(g))).collect();
    let mean: f32 = norms.iter().map(|&(_, n)| n).sum::<f32>() / norms.len() as f32;
    if mean <= 0.0 {
        return grad.clear();
    }
    match selector {
        RowSelector::None => unreachable!(),
        RowSelector::Threshold { factor } => {
            let cut = factor * mean;
            grad.retain(|_, g| l2_norm(g) >= cut);
        }
        RowSelector::TopK { keep_fraction } => {
            let keep = ((norms.len() as f32 * keep_fraction).ceil() as usize).clamp(1, norms.len());
            let mut by_norm: Vec<f32> = norms.iter().map(|&(_, n)| n).collect();
            by_norm.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let cut = by_norm[keep - 1];
            grad.retain(|_, g| l2_norm(g) >= cut);
        }
        RowSelector::Bernoulli { rescale } => {
            let mut keep_scale = std::collections::HashMap::new();
            for &(row, n) in &norms {
                let p = (n / mean).min(1.0);
                if p > 0.0 && rng.gen::<f32>() < p {
                    keep_scale.insert(row, if rescale { 1.0 / p } else { 1.0 });
                }
            }
            grad.retain(|row, _| keep_scale.contains_key(&row));
            for (row, s) in keep_scale {
                if s != 1.0 {
                    grad.row_mut(row).iter_mut().for_each(|v| *v *= s);
                }
            }
        }
    }
}

/// Rows in slot order with their value bits: what a selection leaves, and
/// in which order later insertion-order walks will see it.
fn entries(g: &SparseGrad) -> Vec<(u32, Vec<u32>)> {
    (0..g.nnz()).map(|i| (g.entry(i).0, bits(g.entry(i).1))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn f32_codec_roundtrips_exactly(
        dim in 1usize..40,
        rows in proptest::collection::vec((0u32..10_000, any::<u64>()), 0..20),
    ) {
        let payload: Vec<RowPayload> = rows
            .iter()
            .map(|&(row, seed)| RowPayload {
                row,
                data: kge_compress::quant::QuantizedRow::Full(det_row(dim, seed)),
            })
            .collect();
        let bytes = encode_rows(WireFormat::F32, dim, &payload).unwrap();
        let (decoded, d) = decode_rows(&bytes).unwrap();
        prop_assert_eq!(d, dim);
        prop_assert_eq!(decoded, payload);
    }

    #[test]
    fn one_bit_codec_roundtrips(dim in 1usize..70, v in row_strategy(16), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = v;
        v.resize(dim, 0.25);
        let q = quantize_row(QuantScheme::paper_one_bit(), &v, &mut rng);
        let payload = vec![RowPayload { row: 7, data: q }];
        let bytes = encode_rows(WireFormat::OneBit { two_scales: false }, dim, &payload).unwrap();
        let (decoded, _) = decode_rows(&bytes).unwrap();
        prop_assert_eq!(decoded[0].data.dequantize(), payload[0].data.dequantize());
    }

    #[test]
    fn two_bit_codec_roundtrips(dim in 1usize..70, seed in any::<u64>()) {
        let v = det_row(dim, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let q = quantize_row(QuantScheme::TwoBit, &v, &mut rng);
        let payload = vec![RowPayload { row: 3, data: q }];
        let bytes = encode_rows(WireFormat::TwoBit, dim, &payload).unwrap();
        let (decoded, _) = decode_rows(&bytes).unwrap();
        prop_assert_eq!(&decoded[0].data, &payload[0].data);
    }

    #[test]
    fn quantization_never_flips_signs(v in row_strategy(24), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for scheme in [
            QuantScheme::paper_one_bit(),
            QuantScheme::OneBit { rule: ScaleRule::Avg },
            QuantScheme::OneBit { rule: ScaleRule::PosNegMax },
            QuantScheme::OneBit { rule: ScaleRule::PosNegAvg },
            QuantScheme::TwoBit,
        ] {
            let q = quantize_row(scheme, &v, &mut rng).dequantize();
            for (orig, deq) in v.iter().zip(&q) {
                prop_assert!(orig * deq >= 0.0, "{scheme:?}: {orig} -> {deq}");
            }
        }
    }

    #[test]
    fn one_bit_magnitude_bounded_by_max_abs(v in row_strategy(16), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let q = quantize_row(QuantScheme::paper_one_bit(), &v, &mut rng).dequantize();
        for x in q {
            prop_assert!(x.abs() <= max + 1e-6);
        }
    }

    #[test]
    fn error_feedback_conserves_signal(
        vals in proptest::collection::vec((0u32..100, row_strategy(6)), 1..8),
        seed in any::<u64>(),
    ) {
        // transmitted + residual == original, row by row.
        let mut grad = SparseGrad::new(6);
        for (row, v) in &vals {
            let r = grad.row_mut(*row);
            for (a, b) in r.iter_mut().zip(v) {
                *a += b;
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let sent: std::collections::HashMap<u32, Vec<f32>> = grad
            .iter_sorted()
            .map(|(row, g)| {
                (row, quantize_row(QuantScheme::paper_one_bit(), g, &mut rng).dequantize())
            })
            .collect();
        let mut store = ResidualStore::new();
        store.record_error(&grad, |row, buf| match sent.get(&row) {
            Some(v) => {
                buf.copy_from_slice(v);
                true
            }
            None => false,
        });

        // Drain residuals back and check conservation.
        let mut drained = SparseGrad::new(6);
        for (row, _) in grad.iter_sorted() {
            drained.row_mut(row);
        }
        store.add_into(&mut drained);
        for (row, orig) in grad.iter_sorted() {
            let s = &sent[&row];
            let res = drained.get(row).unwrap();
            for k in 0..6 {
                let recon = s[k] + res[k];
                prop_assert!((recon - orig[k]).abs() <= 1e-4 * (1.0 + orig[k].abs()));
            }
        }
    }

    #[test]
    fn selection_output_is_subset(
        norms in proptest::collection::vec(0.0f32..50.0, 1..60),
        seed in any::<u64>(),
    ) {
        let mut grad = SparseGrad::new(1);
        for (i, &n) in norms.iter().enumerate() {
            grad.row_mut(i as u32)[0] = n;
        }
        let before: Vec<u32> = grad.iter_sorted().map(|(r, _)| r).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = select_rows(RowSelector::paper_rs(), &mut grad, &mut rng);
        let after: Vec<u32> = grad.iter_sorted().map(|(r, _)| r).collect();
        prop_assert!(after.iter().all(|r| before.contains(r)));
        prop_assert_eq!(sel.rows_after, after.len());
        prop_assert_eq!(sel.rows_before, before.len());
        // Values of surviving rows are untouched (paper RS does not rescale).
        for &r in &after {
            prop_assert_eq!(grad.get(r).unwrap()[0], norms[r as usize]);
        }
    }

    #[test]
    fn selection_keeps_the_reference_rows(
        rows in proptest::collection::vec((0u32..400, 0usize..4, any::<u64>()), 0..120),
        seed in any::<u64>(),
    ) {
        // Rows inserted in arbitrary order (repeats accumulate), a quarter
        // of them all-zero and a quarter tiny, so every selector both keeps
        // and drops and Bernoulli sees p = 0, p < 1 and p = 1.
        let dim = 5;
        let mut grad = SparseGrad::new(dim);
        for &(row, kind, s) in &rows {
            let scale = [0.0, 1e-3, 1.0, 1.0][kind];
            for (d, x) in grad.row_mut(row).iter_mut().zip(det_row(dim, s)) {
                *d += scale * x;
            }
        }
        let selectors = [
            RowSelector::None,
            RowSelector::Threshold { factor: 1.0 },
            RowSelector::Threshold { factor: 0.1 },
            RowSelector::Bernoulli { rescale: false },
            RowSelector::Bernoulli { rescale: true },
            RowSelector::TopK { keep_fraction: 0.25 },
            RowSelector::TopK { keep_fraction: 0.0 },
        ];
        for selector in selectors {
            let (mut want, mut got) = (grad.clone(), grad.clone());
            let (mut want_rng, mut got_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            select_rows_reference(selector, &mut want, &mut want_rng);
            let sel = select_rows(selector, &mut got, &mut got_rng);
            prop_assert_eq!(entries(&got), entries(&want), "{:?}", selector);
            prop_assert_eq!(got_rng.state(), want_rng.state(), "RNG after {:?}", selector);
            prop_assert_eq!((sel.rows_before, sel.rows_after), (grad.nnz(), want.nnz()));
            // A second pass over what the first kept reuses the scratch.
            select_rows_reference(selector, &mut want, &mut want_rng);
            select_rows(selector, &mut got, &mut got_rng);
            prop_assert_eq!(entries(&got), entries(&want), "second pass, {:?}", selector);
        }
    }

    #[test]
    fn selection_keeps_the_same_rows_and_weights_at_every_level(
        dim in 1usize..20,
        rows in proptest::collection::vec((0u32..400, 0usize..4, any::<u64>()), 0..90),
        seed in any::<u64>(),
    ) {
        // Row norms come eight rows at a time at the AVX level and one row
        // at a time at the scalar one: every row length mod 8, row counts
        // off a multiple of 8, and the kept rows, their rescaled values and
        // the draws must not tell the two apart.
        let mut grad = SparseGrad::new(dim);
        for &(row, kind, s) in &rows {
            let scale = [0.0, 1e-3, 1.0, 1.0][kind];
            for (d, x) in grad.row_mut(row).iter_mut().zip(det_row(dim, s)) {
                *d += scale * x;
            }
        }
        let selectors = [
            RowSelector::Threshold { factor: 1.0 },
            RowSelector::Bernoulli { rescale: false },
            RowSelector::Bernoulli { rescale: true },
            RowSelector::TopK { keep_fraction: 0.25 },
        ];
        for selector in selectors {
            let mut want = grad.clone();
            let mut want_rng = StdRng::seed_from_u64(seed);
            select_rows_reference(selector, &mut want, &mut want_rng);
            for &level in Level::detected() {
                set_level(Some(level));
                let (mut got, mut got_rng) = (grad.clone(), StdRng::seed_from_u64(seed));
                select_rows(selector, &mut got, &mut got_rng);
                prop_assert_eq!(entries(&got), entries(&want), "{:?} at {:?}", selector, level);
                prop_assert_eq!(got_rng.state(), want_rng.state(), "RNG, {:?} at {:?}", selector, level);
            }
            set_level(None);
        }
    }

    #[test]
    fn packed_one_bit_encode_matches_scalar_codec(dim in 1usize..70, seed in any::<u64>()) {
        // The packed fast path (scales + sign packing straight into wire
        // bytes) must be byte-identical to quantizing into a `QuantizedRow`
        // and pushing it, and to the portable loops written out in
        // `scalar` — for every rule, odd dims, rows with signed zeros,
        // denormals and NaNs, and every dispatch level the host has.
        for v in [det_row(dim, seed), special_row(dim, seed)] {
            for &level in Level::detected() {
                set_level(Some(level));
                for rule in RULES {
                    let fmt = fmt_for(rule);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let q = quantize_row(QuantScheme::OneBit { rule }, &v, &mut rng);
                    let reference =
                        encode_rows(fmt, dim, &[RowPayload { row: 42, data: q.clone() }]);
                    let (want_pos, want_neg) = scalar::scales(rule, &v);
                    let want = QuantizedRow::OneBit {
                        signs: v.iter().map(|&x| x >= 0.0).collect(),
                        pos_scale: want_pos,
                        neg_scale: want_neg,
                    };
                    let written_out = encode_rows(fmt, dim, &[RowPayload { row: 42, data: want }]);
                    let mut buf = Vec::new();
                    let mut enc = RowEncoder::new(fmt, dim, &mut buf);
                    let packed = enc.push_one_bit(42, &v, rule);
                    // A NaN mean is a numeric fault: every path rejects the
                    // row under the one-scale format as `NonFinite`.
                    let rejected = (packed.clone().err(), written_out.clone().err());
                    prop_assert_eq!(&rejected.0, &rejected.1, "rule {:?} {:?}", rule, level);
                    let Ok((pos, neg)) = packed else {
                        prop_assert_eq!(rejected.0, Some(CodecError::NonFinite), "rule {:?}", rule);
                        prop_assert_eq!(reference.err(), Some(CodecError::NonFinite), "{:?}", level);
                        continue;
                    };
                    enc.finish();
                    prop_assert_eq!(&buf, &reference.unwrap(), "rule {:?} {:?}", rule, level);
                    prop_assert_eq!(&buf, &written_out.unwrap(), "rule {:?} {:?}", rule, level);
                    // Returned scales and the error-feedback companion match
                    // the QuantizedRow and the portable loops bit for bit.
                    prop_assert_eq!(
                        (pos.to_bits(), neg.to_bits()),
                        (want_pos.to_bits(), want_neg.to_bits()),
                        "rule {:?} {:?}", rule, level
                    );
                    if let QuantizedRow::OneBit { pos_scale, neg_scale, .. } = &q {
                        prop_assert_eq!(pos.to_bits(), pos_scale.to_bits(), "rule {:?}", rule);
                        prop_assert_eq!(neg.to_bits(), neg_scale.to_bits(), "rule {:?}", rule);
                    }
                    let mut signs = Vec::new();
                    kge_compress::quant::pack_signs_into(&v, &mut signs);
                    prop_assert_eq!(&signs, &scalar::pack_signs(&v), "{:?}", level);
                    let mut from_dense = vec![f32::NAN; dim];
                    kge_compress::one_bit_dequantize_from(&v, pos, neg, &mut from_dense);
                    let mut from_row = vec![f32::NAN; dim];
                    q.dequantize_into(&mut from_row);
                    prop_assert_eq!(bits(&from_dense), bits(&from_row), "rule {:?}", rule);
                    let want = scalar::dequantize_from(&v, pos, neg);
                    prop_assert_eq!(bits(&from_dense), bits(&want), "rule {:?} {:?}", rule, level);
                }
            }
            set_level(None);
        }
    }

    #[test]
    fn simd_and_scalar_codec_arms_bit_identical(dim in 1usize..70, seed in any::<u64>()) {
        // Quantize → encode → decode (through the byte-expanded /
        // AVX2-select fast paths) at every dispatch level: wire bytes,
        // dequantized values, accumulated values and error-feedback rows
        // must all be bit-identical to the portable loops in `scalar`, on
        // rows with signed zeros, denormals and NaNs as well.
        for v in [det_row(dim, seed), special_row(dim, seed)] {
            for rule in RULES {
                let fmt = fmt_for(rule);
                let (pos, neg) = scalar::scales(rule, &v);
                let signs = scalar::pack_signs(&v);
                let want_deq = scalar::expand(&signs, pos, neg, dim);
                let want = (
                    encode_rows(fmt, dim, &[RowPayload {
                        row: 9,
                        data: QuantizedRow::OneBit {
                            signs: v.iter().map(|&x| x >= 0.0).collect(),
                            pos_scale: pos,
                            neg_scale: neg,
                        },
                    }]),
                    bits(&want_deq),
                    bits(&want_deq.iter().map(|&x| 0.5 + x).collect::<Vec<_>>()),
                    bits(&scalar::dequantize_from(&v, pos, neg)),
                );
                for &level in Level::detected() {
                    set_level(Some(level));
                    let mut buf = Vec::new();
                    let mut enc = RowEncoder::new(fmt, dim, &mut buf);
                    let packed = enc.push_one_bit(9, &v, rule);
                    let rejected = (packed.is_err(), want.0.is_err());
                    prop_assert_eq!(rejected.0, rejected.1, "rule {:?} {:?}", rule, level);
                    let Ok((pos, neg)) = packed else { continue };
                    enc.finish();
                    let mut dec = RowDecoder::new(&buf).unwrap();
                    let r = dec.next_row().unwrap().unwrap();
                    let mut deq = vec![f32::NAN; dim];
                    r.dequantize_into(&mut deq);
                    let mut acc = vec![0.5f32; dim];
                    r.add_into(&mut acc);
                    let mut ef = vec![f32::NAN; dim];
                    kge_compress::one_bit_dequantize_from(&v, pos, neg, &mut ef);
                    let got = (Ok(buf), bits(&deq), bits(&acc), bits(&ef));
                    prop_assert_eq!(&got, &want, "rule {:?} {:?}", rule, level);
                }
                set_level(None);
            }
        }
    }

    #[test]
    fn wire_sizes_match_formula(
        dim in 1usize..100,
        n_rows in 0usize..30,
    ) {
        for format in [
            WireFormat::F32,
            WireFormat::OneBit { two_scales: false },
            WireFormat::OneBit { two_scales: true },
            WireFormat::TwoBit,
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            let scheme = match format {
                WireFormat::F32 => QuantScheme::None,
                WireFormat::OneBit { two_scales: false } => QuantScheme::paper_one_bit(),
                WireFormat::OneBit { two_scales: true } => QuantScheme::OneBit { rule: ScaleRule::PosNegAvg },
                WireFormat::TwoBit => QuantScheme::TwoBit,
            };
            let payload: Vec<RowPayload> = (0..n_rows)
                .map(|i| RowPayload {
                    row: i as u32,
                    data: quantize_row(scheme, &det_row(dim, i as u64), &mut rng),
                })
                .collect();
            let bytes = encode_rows(format, dim, &payload).unwrap();
            prop_assert_eq!(bytes.len(), format.payload_bytes(dim, n_rows));
        }
    }
}

fn det_row(dim: usize, seed: u64) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let x = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i as u64);
            ((x % 4001) as f32 - 2000.0) / 100.0
        })
        .collect()
}

/// Values a finite mid-range row never holds: signed zeros, denormals,
/// the smallest normal, large magnitudes and NaN of either sign.
const SPECIALS: [f32; 10] = [
    0.0, -0.0, 1e-40, -1e-42, f32::MIN_POSITIVE, 1e30, -1e30, 1.0, f32::NAN, -f32::NAN,
];

/// `dim` values, about one in four drawn from [`SPECIALS`], the rest
/// uniform in `[-20, 20)` like [`det_row`]'s.
fn special_row(dim: usize, seed: u64) -> Vec<f32> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim)
        .map(|_| {
            if rng.gen_range(0..4u32) == 0 {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-20.0f32..20.0)
            }
        })
        .collect()
}

/// The codec's portable loops, written out: the reference every dispatch
/// level must reproduce bit for bit.
mod scalar {
    use kge_compress::quant::ScaleRule;

    /// `(pos_scale, neg_scale)`: serial folds in index order.
    pub fn scales(rule: ScaleRule, v: &[f32]) -> (f32, f32) {
        let pos = v.iter().filter(|&&x| x >= 0.0);
        let neg = v.iter().filter(|&&x| x < 0.0);
        match rule {
            ScaleRule::Max => {
                let s = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                (s, s)
            }
            ScaleRule::Avg => {
                let s = v.iter().map(|x| x.abs()).sum::<f32>() / v.len() as f32;
                (s, s)
            }
            ScaleRule::PosNegMax => (
                pos.fold(0.0f32, |m, &x| m.max(x)),
                neg.fold(0.0f32, |m, &x| m.max(-x)),
            ),
            ScaleRule::PosNegAvg => {
                let (psum, pn) = pos.fold((0.0f32, 0usize), |(s, n), &x| (s + x, n + 1));
                let (nsum, nn) = neg.fold((0.0f32, 0usize), |(s, n), &x| (s - x, n + 1));
                (
                    if pn > 0 { psum / pn as f32 } else { 0.0 },
                    if nn > 0 { nsum / nn as f32 } else { 0.0 },
                )
            }
        }
    }

    /// Bit `i` of byte `b` is `v[8b + i] >= 0.0`.
    pub fn pack_signs(v: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        for chunk in v.chunks(8) {
            let mut byte = 0u8;
            for (i, &x) in chunk.iter().enumerate() {
                if x >= 0.0 {
                    byte |= 1 << i;
                }
            }
            out.push(byte);
        }
        out
    }

    pub fn dequantize_from(v: &[f32], pos: f32, neg: f32) -> Vec<f32> {
        v.iter().map(|&x| if x >= 0.0 { pos } else { -neg }).collect()
    }

    /// The sign bytes through a two-entry value table, element by element.
    pub fn expand(sign_bytes: &[u8], pos: f32, neg: f32, dim: usize) -> Vec<f32> {
        let vals = [-neg, pos];
        (0..dim).map(|k| vals[((sign_bytes[k / 8] >> (k % 8)) & 1) as usize]).collect()
    }
}
