//! Property tests for the data layer: the synthetic generator emits valid
//! datasets for arbitrary (bounded) configurations, batching preserves
//! contents, and the filter index agrees with brute force.

use kge_data::batch::{batches, uniform_shards, EpochShuffler};
use kge_data::synth::{generate, SynthConfig};
use kge_data::{FilterIndex, GroupedFilter, Triple};
use proptest::prelude::*;
use std::collections::HashSet;

fn config_strategy() -> impl Strategy<Value = SynthConfig> {
    (
        64usize..400,   // n_entities
        1usize..20,     // n_relations
        2usize..10,     // triples per relation knob
        0.0f64..2.0,    // relation zipf
        0.0f64..1.5,    // entity zipf
        0.0f64..0.3,    // noise
        any::<u64>(),   // seed
    )
        .prop_map(|(ents, rels, tpr, rz, ez, noise, seed)| SynthConfig {
            name: "prop".into(),
            n_entities: ents,
            n_relations: rels,
            n_triples: rels * tpr * 16,
            relation_zipf: rz,
            entity_zipf: ez,
            noise_frac: noise,
            valid_frac: 0.05,
            test_frac: 0.05,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generator_output_is_always_valid(cfg in config_strategy()) {
        let ds = generate(&cfg);
        prop_assert!(ds.validate().is_ok(), "{:?}", ds.validate());
        // Deduplicated.
        let set: HashSet<Triple> = ds.all_triples().collect();
        prop_assert_eq!(set.len(), ds.all_triples().count());
        // Eval ids seen in train.
        let mut ent = vec![false; cfg.n_entities];
        let mut rel = vec![false; cfg.n_relations];
        for t in &ds.train {
            ent[t.head as usize] = true;
            ent[t.tail as usize] = true;
            rel[t.rel as usize] = true;
        }
        for t in ds.valid.iter().chain(&ds.test) {
            prop_assert!(ent[t.head as usize] && ent[t.tail as usize] && rel[t.rel as usize]);
        }
    }

    #[test]
    fn generator_is_deterministic(cfg in config_strategy()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.train, b.train);
        prop_assert_eq!(a.valid, b.valid);
        prop_assert_eq!(a.test, b.test);
    }

    #[test]
    fn shards_and_batches_preserve_content(
        n in 0usize..300,
        p in 1usize..9,
        bs in 1usize..40,
    ) {
        let triples: Vec<Triple> = (0..n as u32).map(|i| Triple::new(i, 0, i + 1)).collect();
        let shards = uniform_shards(&triples, p);
        let mut reassembled: Vec<Triple> = shards.concat();
        reassembled.sort();
        prop_assert_eq!(&reassembled, &triples);
        for shard in &shards {
            let from_batches: Vec<Triple> =
                batches(shard, bs).flatten().copied().collect();
            prop_assert_eq!(&from_batches, shard);
        }
    }

    #[test]
    fn shuffle_is_permutation(n in 0usize..200, seed in any::<u64>(), epoch in any::<u64>()) {
        let mut triples: Vec<Triple> = (0..n as u32).map(|i| Triple::new(i, 0, i)).collect();
        let orig = triples.clone();
        EpochShuffler::new(seed).shuffle(&mut triples, epoch);
        triples.sort();
        prop_assert_eq!(triples, orig);
    }

    #[test]
    fn filter_index_agrees_with_linear_scan(
        triples in proptest::collection::vec((0u32..30, 0u32..5, 0u32..30), 0..80),
        probe in (0u32..30, 0u32..5, 0u32..30),
    ) {
        let triples: Vec<Triple> = triples.into_iter().map(Triple::from).collect();
        let idx = FilterIndex::from_triples(triples.iter().copied());
        let probe = Triple::from(probe);
        prop_assert_eq!(idx.contains(probe), triples.contains(&probe));
        // known_tails is exactly the set of tails sharing (rel, head).
        let mut want: Vec<u32> = triples
            .iter()
            .filter(|t| t.rel == probe.rel && t.head == probe.head)
            .map(|t| t.tail)
            .collect();
        want.sort_unstable();
        want.dedup();
        let grouped = GroupedFilter::from_index(&idx);
        prop_assert_eq!(grouped.known_tails(probe.head, probe.rel), want.as_slice());
    }
}
