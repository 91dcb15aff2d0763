//! `GroupedFilter` against a `BTreeMap` oracle on random triple multisets
//! (duplicates, self-loops, absent keys past the largest id), and its
//! footprint on the benchmark's FB15K-shaped graph pinned by a counting
//! allocator: bytes retained per distinct triple, and a number of
//! allocations that does not grow with the number of query sides.
//!
//! `FilterIndex::contains` against a plain `std::collections::HashSet` on
//! every indexed triple, exhaustive and random probes, duplicate inputs,
//! ids next to `u32::MAX`, the empty and the `Default` index, and the
//! benchmark's graph: its Bloom prefilter must never turn a member away.
//! (The negative-selection suite's reference draws through the same index,
//! so it could not see a prefilter false negative.)

use kge_data::synth::generate;
use kge_data::{FilterIndex, GroupedFilter, SynthPreset, Triple};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashSet};

thread_local! {
    /// Live heap bytes and allocation events (allocs + reallocs) of this
    /// thread, so the test harness's other threads do not count.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static EVENTS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|l| l.set(l.get() + layout.size() as isize));
        EVENTS.with(|e| e.set(e.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|l| l.set(l.get() + new_size as isize - layout.size() as isize));
        EVENTS.with(|e| e.set(e.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

type Oracle = BTreeMap<(u32, u32), BTreeSet<u32>>;

/// `(head, rel) → tails` and `(tail, rel) → heads`.
fn oracle(triples: &[Triple]) -> (Oracle, Oracle) {
    let (mut tails, mut heads) = (Oracle::new(), Oracle::new());
    for t in triples {
        tails.entry((t.head, t.rel)).or_default().insert(t.tail);
        heads.entry((t.tail, t.rel)).or_default().insert(t.head);
    }
    (tails, heads)
}

fn want(map: &Oracle, key: (u32, u32)) -> Vec<u32> {
    map.get(&key)
        .map_or(Vec::new(), |s| s.iter().copied().collect())
}

/// A multiset over `n_ent` entities and `n_rel` relations: every seventh
/// triple a self-loop, and the first third repeated.
fn multiset() -> impl Strategy<Value = (u32, u32, Vec<Triple>)> {
    (1u32..48, 1u32..7).prop_flat_map(|(n_ent, n_rel)| {
        proptest::collection::vec((0..n_ent, 0..n_rel, 0..n_ent), 0..400).prop_map(move |raw| {
            let mut v: Vec<Triple> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (h, r, t))| Triple::new(h, r, if i % 7 == 0 { h } else { t }))
                .collect();
            v.extend_from_within(..v.len() / 3);
            (n_ent, n_rel, v)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookups_equal_the_oracle_on_every_key((n_ent, n_rel, triples) in multiset()) {
        let (tails, heads) = oracle(&triples);
        let g = GroupedFilter::from_triples(triples.iter().copied());
        // Two past the largest id on both axes, and the id space's end.
        let ents = (0..n_ent + 2).chain([u32::MAX - 1, u32::MAX]);
        for e in ents {
            for r in (0..n_rel + 2).chain([u32::MAX]) {
                prop_assert_eq!(g.known_tails(e, r), want(&tails, (e, r)).as_slice(), "tails of ({}, {})", e, r);
                prop_assert_eq!(g.known_heads(e, r), want(&heads, (e, r)).as_slice(), "heads of ({}, {})", e, r);
            }
        }
        prop_assert_eq!(g.n_tail_groups(), tails.len());
    }

    #[test]
    fn from_index_and_from_triples_agree((n_ent, n_rel, triples) in multiset()) {
        let a = GroupedFilter::from_triples(triples.iter().copied());
        let b = GroupedFilter::from_index(&FilterIndex::from_triples(triples.iter().copied()));
        for e in 0..n_ent + 1 {
            for r in 0..n_rel + 1 {
                prop_assert_eq!(a.known_tails(e, r), b.known_tails(e, r));
                prop_assert_eq!(a.known_heads(e, r), b.known_heads(e, r));
            }
        }
        prop_assert_eq!(a.n_tail_groups(), b.n_tail_groups());
    }
}

/// Triples over 64 entities and 8 relations, about half of them with an id
/// moved to the top of the `u32` range, and the first third repeated.
fn triples_at_both_ends() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0u32..64, 0u32..8, 0u32..64, 0u32..4), 0..600).prop_map(|raw| {
        let mut v: Vec<Triple> = raw
            .into_iter()
            .map(|(h, r, t, k)| match k {
                0 => Triple::new(u32::MAX - h, r, t),
                1 => Triple::new(h, u32::MAX - r, u32::MAX - t),
                _ => Triple::new(h, r, t),
            })
            .collect();
        v.extend_from_within(..v.len() / 3);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filter_index_answers_as_a_hash_set(
        triples in triples_at_both_ends(),
        probes in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..300),
    ) {
        let want: HashSet<Triple> = triples.iter().copied().collect();
        let idx = FilterIndex::from_triples(triples.iter().copied());
        prop_assert_eq!(idx.len(), want.len());
        prop_assert_eq!(idx.is_empty(), want.is_empty());
        for t in &triples {
            prop_assert!(idx.contains(*t), "{:?} indexed but not contained", t);
            // Near misses: one id off either way (wrapping at the ends).
            for miss in [
                t.with_head(t.head.wrapping_add(1)),
                t.with_tail(t.tail.wrapping_sub(1)),
                Triple::new(t.head, t.rel ^ 1, t.tail),
            ] {
                prop_assert_eq!(idx.contains(miss), want.contains(&miss), "{:?}", miss);
            }
        }
        // Every triple of the low id box, the same box at the top of the
        // id range, and random ids anywhere.
        for h in 0..64u32 {
            for r in 0..8u32 {
                for t in 0..64u32 {
                    for probe in [Triple::new(h, r, t), Triple::new(u32::MAX - h, r, t),
                                  Triple::new(h, u32::MAX - r, u32::MAX - t)] {
                        prop_assert_eq!(idx.contains(probe), want.contains(&probe), "{:?}", probe);
                    }
                }
            }
        }
        for probe in probes.into_iter().map(Triple::from) {
            prop_assert_eq!(idx.contains(probe), want.contains(&probe), "{:?}", probe);
        }
    }
}

#[test]
fn empty_and_default_indexes_contain_nothing() {
    let probes = [Triple::new(0, 0, 0), Triple::new(1, 2, 3), Triple::new(u32::MAX, u32::MAX, u32::MAX)];
    for idx in [FilterIndex::default(), FilterIndex::from_triples(std::iter::empty())] {
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        for t in probes {
            assert!(!idx.contains(t), "{t:?}");
        }
    }
}

#[test]
fn filter_index_on_the_benchmark_graph_answers_as_a_hash_set() {
    use rand::{Rng, SeedableRng};
    let ds = generate(&SynthPreset::Fb15kLike.config(0.15, 2022));
    let idx = FilterIndex::build(&ds);
    let want: HashSet<Triple> = ds.all_triples().collect();
    assert_eq!(idx.len(), want.len());
    assert!(want.iter().all(|&t| idx.contains(t)));
    // Corruptions as the negative sampler draws them: one side replaced
    // by a uniform entity, so some are known triples and most are not.
    let mut rng = rand::rngs::StdRng::seed_from_u64(45);
    let (mut known, n) = (0usize, 400_000);
    for i in 0..n {
        let t = ds.train[rng.gen_range(0..ds.train.len())];
        let e = rng.gen_range(0..ds.n_entities) as u32;
        let c = if i % 2 == 0 { t.with_head(e) } else { t.with_tail(e) };
        assert_eq!(idx.contains(c), want.contains(&c), "{c:?}");
        known += usize::from(want.contains(&c));
    }
    assert!(known > 0 && known < n / 10, "{known} of {n} corruptions are known triples");
}

/// `(bytes retained, allocation events)` of one `from_index` on this
/// thread, and the filter.
fn measured_build(idx: &FilterIndex) -> (isize, usize, GroupedFilter) {
    let (live, events) = (LIVE.with(Cell::get), EVENTS.with(Cell::get));
    let g = GroupedFilter::from_index(idx);
    (
        LIVE.with(Cell::get) - live,
        EVENTS.with(Cell::get) - events,
        g,
    )
}

#[test]
fn from_index_retains_at_most_16_bytes_per_triple_in_a_fixed_number_of_allocations() {
    let ds = generate(&SynthPreset::Fb15kLike.config(0.15, 2022));
    let idx = FilterIndex::build(&ds);
    let (retained, events, g) = measured_build(&idx);

    let triples: Vec<Triple> = ds.all_triples().collect();
    let (tails, heads) = oracle(&triples);
    let sides = tails.len() + heads.len();
    assert_eq!(g.n_tail_groups(), tails.len());
    assert!(sides > 60_000, "{sides} query sides");
    let per_triple = retained as f64 / idx.len() as f64;
    assert!(
        per_triple <= 16.0,
        "{retained} B retained for {} triples: {per_triple:.1} B each",
        idx.len()
    );

    // A graph with a hundredth of the query sides makes as many allocations.
    let small = FilterIndex::build(&generate(&SynthPreset::Fb15kLike.config(0.005, 2022)));
    let (_, small_events, small_g) = measured_build(&small);
    assert!(small_g.n_tail_groups() * 50 < g.n_tail_groups());
    assert_eq!(
        events, small_events,
        "allocations: {events} at {sides} sides, {small_events} at the small graph"
    );
    // Per direction: offsets, the scatter buffer, groups and completions.
    assert!(events <= 8, "{events} allocations");
}
