//! Fused block kernel (`KgeModel::score_grad_block`) vs the scalar
//! one-triple-at-a-time score/grad/axpy path it replaced, at embedding
//! dims 64/128/256 (ComplEx ranks 32/64/128). Both variants produce
//! bit-identical gradients; the fused path scores 16 examples at a time
//! straight from the table rows (`score_triples`) and adds each
//! example's gradient straight into the reused sparse accumulators — no
//! gathered copy of a row, one virtual dispatch per block instead of two
//! per example, and no per-example buffer zeroing. The `fused_forced_scalar`
//! arm runs the same fused path under `KGE_FORCE_SCALAR` dispatch,
//! isolating the runtime-dispatched AVX kernels' contribution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kge_core::loss::{logistic_loss, logistic_loss_grad};
use kge_core::matrix::axpy;
use kge_core::{BlockScratch, ComplEx, EmbeddingTable, KgeModel, SparseGrad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N_TRIPLES: usize = 1024;
const N_ENTITIES: usize = 4096;
const N_RELATIONS: usize = 64;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.throughput(Throughput::Elements(N_TRIPLES as u64));
    for rank in [32usize, 64, 128] {
        let model = ComplEx::new(rank);
        let dim = model.storage_dim();
        let mut rng = StdRng::seed_from_u64(7);
        let ent = EmbeddingTable::xavier(N_ENTITIES, dim, &mut rng);
        let rel = EmbeddingTable::xavier(N_RELATIONS, dim, &mut rng);
        let triples: Vec<(u32, u32, u32)> = (0..N_TRIPLES)
            .map(|_| {
                (
                    rng.gen_range(0..N_ENTITIES as u32),
                    rng.gen_range(0..N_RELATIONS as u32),
                    rng.gen_range(0..N_ENTITIES as u32),
                )
            })
            .collect();
        let labels: Vec<f32> = (0..N_TRIPLES)
            .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let inv_batch = 1.0 / N_TRIPLES as f32;
        let l2_reg = 2.0 * 1e-5 * inv_batch;

        let mut ent_g = SparseGrad::new(dim);
        let mut rel_g = SparseGrad::new(dim);
        let mut scratch = BlockScratch::new();
        g.bench_function(BenchmarkId::new("fused", dim), |b| {
            b.iter(|| {
                ent_g.clear();
                rel_g.clear();
                let mut loss = 0.0f64;
                let mut coeff = |i: usize, s: f32| {
                    let y = labels[i];
                    loss += logistic_loss(y, s) as f64;
                    logistic_loss_grad(y, s) * inv_batch
                };
                model.score_grad_block(
                    black_box(&ent),
                    black_box(&rel),
                    &triples,
                    l2_reg,
                    &mut scratch,
                    &mut coeff,
                    &mut ent_g,
                    &mut rel_g,
                );
                black_box(loss)
            });
        });

        g.bench_function(BenchmarkId::new("fused_forced_scalar", dim), |b| {
            kge_core::simd::set_force_scalar(Some(true));
            b.iter(|| {
                ent_g.clear();
                rel_g.clear();
                let mut loss = 0.0f64;
                let mut coeff = |i: usize, s: f32| {
                    let y = labels[i];
                    loss += logistic_loss(y, s) as f64;
                    logistic_loss_grad(y, s) * inv_batch
                };
                model.score_grad_block(
                    black_box(&ent),
                    black_box(&rel),
                    &triples,
                    l2_reg,
                    &mut scratch,
                    &mut coeff,
                    &mut ent_g,
                    &mut rel_g,
                );
                black_box(loss)
            });
            kge_core::simd::set_force_scalar(None);
        });

        let mut gh = vec![0.0f32; dim];
        let mut gr = vec![0.0f32; dim];
        let mut gt = vec![0.0f32; dim];
        g.bench_function(BenchmarkId::new("scalar", dim), |b| {
            b.iter(|| {
                ent_g.clear();
                rel_g.clear();
                let mut loss = 0.0f64;
                for (i, &(h, r, t)) in triples.iter().enumerate() {
                    let (hr, rr, tr) = (
                        ent.row(h as usize),
                        rel.row(r as usize),
                        ent.row(t as usize),
                    );
                    let y = labels[i];
                    let s = model.score(hr, rr, tr);
                    loss += logistic_loss(y, s) as f64;
                    let coeff = logistic_loss_grad(y, s) * inv_batch;
                    gh.fill(0.0);
                    gr.fill(0.0);
                    gt.fill(0.0);
                    model.grad(hr, rr, tr, coeff, &mut gh, &mut gr, &mut gt);
                    axpy(l2_reg, hr, &mut gh);
                    axpy(l2_reg, rr, &mut gr);
                    axpy(l2_reg, tr, &mut gt);
                    axpy(1.0, &gh, ent_g.row_mut(h));
                    axpy(1.0, &gt, ent_g.row_mut(t));
                    axpy(1.0, &gr, rel_g.row_mut(r));
                }
                black_box(loss)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
