//! Blocked one-vs-all filtered ranking (`evaluate_ranking_with`) vs the
//! scalar one-candidate-at-a-time oracle (`rank_of_scalar`), at embedding
//! dims 64/128/256 (ComplEx ranks 32/64/128). Both produce bit-identical
//! ranks; the blocked path scores cache-sized candidate tiles with the
//! fused one-vs-all kernel and inverts the filter — a cursor per query
//! walks the short known-true lists tile by tile — instead of paying a
//! hash probe per candidate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kge_core::{ComplEx, EmbeddingTable, KgeModel};
use kge_data::{FilterIndex, GroupedFilter, Triple};
use kge_eval::{evaluate_ranking_with, rank_of_scalar, RankingOptions, RankingWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N_ENTITIES: usize = 2048;
const N_RELATIONS: usize = 32;
const N_QUERIES: usize = 64;
/// Extra known-true triples beyond the queries, so filtering has teeth.
const N_EXTRA_KNOWN: usize = 4096;

fn world(dim: usize) -> (EmbeddingTable, EmbeddingTable, Vec<Triple>, Vec<Triple>) {
    let mut rng = StdRng::seed_from_u64(11);
    let ent = EmbeddingTable::xavier(N_ENTITIES, dim, &mut rng);
    let rel = EmbeddingTable::xavier(N_RELATIONS, dim, &mut rng);
    let triple = |rng: &mut StdRng| {
        Triple::new(
            rng.gen_range(0..N_ENTITIES as u32),
            rng.gen_range(0..N_RELATIONS as u32),
            rng.gen_range(0..N_ENTITIES as u32),
        )
    };
    let queries: Vec<Triple> = (0..N_QUERIES).map(|_| triple(&mut rng)).collect();
    let mut known = queries.clone();
    known.extend((0..N_EXTRA_KNOWN).map(|_| triple(&mut rng)));
    (ent, rel, queries, known)
}

fn bench_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval");
    // One element = one (query, direction, candidate) score.
    g.throughput(Throughput::Elements((N_QUERIES * 2 * N_ENTITIES) as u64));
    for rank in [32usize, 64, 128] {
        let model = ComplEx::new(rank);
        let dim = model.storage_dim();
        let (ent, rel, queries, known) = world(dim);
        let filter = FilterIndex::from_triples(known.iter().copied());
        let grouped = GroupedFilter::from_triples(known.iter().copied());
        let opts = RankingOptions::default();

        let mut ws = RankingWorkspace::new();
        g.bench_function(BenchmarkId::new("blocked", dim), |b| {
            b.iter(|| {
                black_box(evaluate_ranking_with(
                    &mut ws,
                    black_box(&model),
                    black_box(&ent),
                    &rel,
                    &queries,
                    &grouped,
                    &opts,
                ))
            });
        });

        g.bench_function(BenchmarkId::new("scalar", dim), |b| {
            b.iter(|| {
                let mut sum = 0usize;
                for &t in &queries {
                    sum += rank_of_scalar(&model, &ent, &rel, t, true, Some(&filter));
                    sum += rank_of_scalar(&model, &ent, &rel, t, false, Some(&filter));
                }
                black_box(sum)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
