//! The all-known-triples index for filtered evaluation and true-negative
//! sampling.

use crate::dataset::Dataset;
use crate::hash::{IdMap, IdSet};
use crate::triple::Triple;

/// Index over every triple of a dataset (train + valid + test):
/// membership (`contains`), for rejecting corrupted triples that are
/// accidentally true. The known completions of a query side, for filtered
/// ranking without scanning, are [`GroupedFilter`]'s.
#[derive(Debug, Clone, Default)]
pub struct FilterIndex {
    all: IdSet<Triple>,
}

impl FilterIndex {
    /// Build from every split of `ds`.
    pub fn build(ds: &Dataset) -> Self {
        Self::from_triples(ds.all_triples())
    }

    /// Build from an explicit triple stream.
    pub fn from_triples(triples: impl Iterator<Item = Triple>) -> Self {
        FilterIndex {
            all: triples.collect(),
        }
    }

    /// Is `(h, r, t)` a known true triple?
    #[inline]
    pub fn contains(&self, t: Triple) -> bool {
        self.all.contains(&t)
    }

    /// Number of indexed triples.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }
}

/// The filter inverted for blocked evaluation: for every `(entity, rel)`
/// query side, the **sorted, deduplicated** list of known completions.
///
/// `evaluate_ranking`'s scalar path probed `FilterIndex::contains` once per
/// candidate — a hash lookup inside the O(|queries| × |E|) inner loop. The
/// blocked path instead sweeps *all* candidates branch-free and walks
/// these (short, ascending) lists alongside the tiles, masking each known
/// completion's score as its tile is scored: one hash lookup per query
/// instead of one per candidate.
#[derive(Debug, Clone, Default)]
pub struct GroupedFilter {
    /// (head, rel) → sorted known tails.
    tails: IdMap<(u32, u32), Vec<u32>>,
    /// (tail, rel) → sorted known heads.
    heads: IdMap<(u32, u32), Vec<u32>>,
}

impl GroupedFilter {
    /// Invert an existing [`FilterIndex`].
    pub fn from_index(idx: &FilterIndex) -> Self {
        Self::from_triples(idx.all.iter().copied())
    }

    /// Build directly from a triple stream.
    pub fn from_triples(triples: impl Iterator<Item = Triple>) -> Self {
        let mut g = GroupedFilter::default();
        for t in triples {
            g.tails.entry((t.head, t.rel)).or_default().push(t.tail);
            g.heads.entry((t.tail, t.rel)).or_default().push(t.head);
        }
        for list in g.tails.values_mut().chain(g.heads.values_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        g
    }

    /// Known true tails of `(head, rel, ?)`, ascending.
    #[inline]
    pub fn known_tails(&self, head: u32, rel: u32) -> &[u32] {
        self.tails.get(&(head, rel)).map_or(&[], Vec::as_slice)
    }

    /// Known true heads of `(?, rel, tail)`, ascending.
    #[inline]
    pub fn known_heads(&self, tail: u32, rel: u32) -> &[u32] {
        self.heads.get(&(tail, rel)).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct `(head, rel)` groups (tail-side).
    pub fn n_tail_groups(&self) -> usize {
        self.tails.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> FilterIndex {
        FilterIndex::from_triples(
            [
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 2),
                Triple::new(3, 0, 1),
                Triple::new(0, 1, 1),
            ]
            .into_iter(),
        )
    }

    #[test]
    fn membership() {
        let idx = index();
        assert!(idx.contains(Triple::new(0, 0, 1)));
        assert!(!idx.contains(Triple::new(1, 0, 0)));
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn duplicates_are_ignored() {
        let idx = FilterIndex::from_triples(
            [Triple::new(0, 0, 1), Triple::new(0, 0, 1)].into_iter(),
        );
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn grouped_filter_lists_are_sorted_and_deduped() {
        let g = GroupedFilter::from_triples(
            [
                Triple::new(0, 0, 2),
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 2), // duplicate
                Triple::new(3, 0, 1),
                Triple::new(0, 1, 1),
            ]
            .into_iter(),
        );
        assert_eq!(g.known_tails(0, 0), &[1, 2]);
        assert_eq!(g.known_heads(1, 0), &[0, 3]);
        assert_eq!(g.known_tails(0, 1), &[1]);
        assert_eq!(g.known_tails(9, 9), &[] as &[u32]);
        assert_eq!(g.n_tail_groups(), 3);
    }

    #[test]
    fn grouped_filter_agrees_with_index_membership() {
        let idx = index();
        let g = GroupedFilter::from_index(&idx);
        // Every candidate the scalar path would skip via `contains` appears
        // in the grouped list, and vice versa.
        for rel in 0..2u32 {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    let t = Triple::new(a, rel, b);
                    assert_eq!(
                        idx.contains(t),
                        g.known_tails(a, rel).contains(&b),
                        "tail side {t:?}"
                    );
                    assert_eq!(
                        idx.contains(t),
                        g.known_heads(b, rel).contains(&a),
                        "head side {t:?}"
                    );
                }
            }
        }
    }

    /// Id patterns chosen against the hasher: ids sharing their low 16
    /// bits, one `(rel, head)` with 10^4 tails, and plain sequential ids.
    fn adversarial_triples() -> Vec<Triple> {
        let mut v = Vec::new();
        for i in 0..300u32 {
            for j in 0..20u32 {
                v.push(Triple::new(i << 16, (j % 3) << 16, (i + j) << 16));
            }
        }
        v.extend((0..10_000u32).map(|t| Triple::new(7, 1, t)));
        v.extend((0..5_000u32).map(|i| Triple::new(i, i % 5, i + 1)));
        v.extend((0..500u32).map(|i| Triple::new(i, i % 5, i + 1))); // duplicates
        v
    }

    #[test]
    fn lookups_agree_with_a_btree_oracle_on_adversarial_ids() {
        use std::collections::{BTreeMap, BTreeSet};
        let triples = adversarial_triples();
        let idx = FilterIndex::from_triples(triples.iter().copied());
        let grouped = GroupedFilter::from_index(&idx);

        let all: BTreeSet<Triple> = triples.iter().copied().collect();
        // Ascending completions per key, as `GroupedFilter` documents.
        let mut tails: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        let mut heads: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for t in &all {
            tails.entry((t.rel, t.head)).or_default().push(t.tail);
            heads.entry((t.rel, t.tail)).or_default().push(t.head);
        }

        assert_eq!(idx.len(), all.len());
        for t in &all {
            assert!(idx.contains(*t));
            // Near misses: one id off, and the same ids in another slot.
            let swapped = Triple::new(t.tail, t.rel, t.head);
            for miss in [t.with_tail(t.tail ^ 1), t.with_head(t.head ^ (1 << 16)), swapped] {
                assert_eq!(idx.contains(miss), all.contains(&miss), "{miss:?}");
            }
        }
        for (&(rel, head), want) in &tails {
            assert_eq!(grouped.known_tails(head, rel), want.as_slice());
        }
        for (&(rel, tail), want) in &heads {
            assert_eq!(grouped.known_heads(tail, rel), want.as_slice());
        }
        assert_eq!(grouped.n_tail_groups(), tails.len());
        assert_eq!(grouped.known_tails(8, 1), &[] as &[u32]);
    }

    #[test]
    fn two_builds_in_one_process_are_identical() {
        // Includes the maps' iteration order, which the fixed hasher makes a
        // function of the triples alone.
        let build = || {
            let idx = FilterIndex::from_triples(adversarial_triples().into_iter());
            format!("{:?}", GroupedFilter::from_index(&idx))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn build_from_dataset_spans_splits() {
        let ds = Dataset {
            name: "t".into(),
            n_entities: 4,
            n_relations: 1,
            train: vec![Triple::new(0, 0, 1)],
            valid: vec![Triple::new(1, 0, 2)],
            test: vec![Triple::new(2, 0, 3)],
        };
        let idx = FilterIndex::build(&ds);
        assert_eq!(idx.len(), 3);
        assert!(idx.contains(Triple::new(2, 0, 3)));
    }
}
