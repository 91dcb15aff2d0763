//! The all-known-triples index for filtered evaluation and true-negative
//! sampling.

use crate::dataset::Dataset;
use crate::hash::IdSet;
use crate::triple::Triple;
use std::hash::BuildHasher;

/// Index over every triple of a dataset (train + valid + test):
/// membership (`contains`), for rejecting corrupted triples that are
/// accidentally true. The known completions of a query side, for filtered
/// ranking without scanning, are [`GroupedFilter`]'s.
///
/// A blocked Bloom filter sits in front of the hash set: each triple sets
/// two bits of one `u64` word, and `contains` probes the set only when
/// both of its bits are set. A corruption draw is almost always absent, so
/// most probes end in a bitset that stays in L2 (8 to 16 bits per triple,
/// 128 KB on the benchmark's FB15K-shaped graph) instead of a cache miss
/// into the set. A set bit is never cleared, so the prefilter gives no
/// false negative: the answers are the set's.
#[derive(Debug, Clone, Default)]
pub struct FilterIndex {
    all: IdSet<Triple>,
    /// The prefilter: a power-of-two number of words, one per eight
    /// triples rounded up (empty in a `Default` index).
    bloom: Vec<u64>,
}

impl FilterIndex {
    /// Build from every split of `ds`.
    pub fn build(ds: &Dataset) -> Self {
        Self::from_triples(ds.all_triples())
    }

    /// Build from an explicit triple stream.
    pub fn from_triples(triples: impl Iterator<Item = Triple>) -> Self {
        let all: IdSet<Triple> = triples.collect();
        let mut idx = FilterIndex {
            bloom: vec![0; all.len().div_ceil(8).next_power_of_two()],
            all,
        };
        for &t in &idx.all {
            let (word, bits) = idx.bloom_probe(t);
            idx.bloom[word] |= bits;
        }
        idx
    }

    /// The prefilter word of `t` and its two bits: the set's own hash of
    /// `t` multiplied once more, the word from bits 20 up and each bit from
    /// six of the top twelve. The index is out of range only when the
    /// bitset is empty.
    #[inline]
    fn bloom_probe(&self, t: Triple) -> (usize, u64) {
        let x = self.all.hasher().hash_one(t).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let word = (x >> 20) as usize & self.bloom.len().wrapping_sub(1);
        (word, 1 << (x >> 58) | 1 << (x >> 52 & 63))
    }

    /// Is `(h, r, t)` a known true triple?
    #[inline]
    pub fn contains(&self, t: Triple) -> bool {
        let (word, bits) = self.bloom_probe(t);
        match self.bloom.get(word) {
            Some(&w) if w & bits == bits => self.all.contains(&t),
            _ => false,
        }
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
/// completion's score as its tile is scored: one lookup per query side
/// instead of one probe per candidate.
///
/// Each direction is three immutable flat arrays (compressed sparse rows:
/// entity → its relations → their completions), about 14 bytes per triple
/// for the two and no allocation per query side. The entity offsets are
/// sized by the largest entity id, so ids are expected dense, as the
/// vocabulary and the generator assign them.
#[derive(Debug, Clone, Default)]
pub struct GroupedFilter {
    /// (head, rel) → sorted known tails.
    tails: Side,
    /// (tail, rel) → sorted known heads.
    heads: Side,
}

/// One direction of a [`GroupedFilter`] in compressed sparse rows, keyed
/// by entity then relation: entity `e`'s groups are
/// `groups[ent_off[e]..ent_off[e + 1]]`, each a relation (ascending within
/// its entity) and the index in `vals` of its first completion; a group's
/// completions run to the next group's first (the last group's to the end
/// of `vals`), ascending and deduplicated.
/// 4 bytes per entity, 8 per group and 4 per completion.
#[derive(Debug, Clone, Default)]
struct Side {
    ent_off: Vec<u32>,
    groups: Vec<(u32, u32)>,
    vals: Vec<u32>,
}

impl Side {
    /// Group the `n` `(key, rel, completion)` triples that every call of
    /// `pass` yields, all keys below `n_keys`. A counting sort by key
    /// scatters each `(rel, completion)` as one `u64`, each key's short run
    /// is sorted and deduplicated in place, and a last walk emits the
    /// groups into arrays allocated at their exact sizes.
    fn build<I>(n_keys: usize, n: usize, pass: impl Fn() -> I) -> Side
    where
        I: Iterator<Item = (u32, u32, u32)>,
    {
        assert!(
            u32::try_from(n).is_ok(),
            "GroupedFilter holds at most u32::MAX triples"
        );
        // Counts land in off[key + 2], so after the prefix sum off[key + 1]
        // is the key's first slot; the scatter advances it to the key's end,
        // which leaves off[key]..off[key + 1] the key's run.
        let mut off = vec![0u32; n_keys + 2];
        for (key, _, _) in pass() {
            off[key as usize + 2] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut buf = vec![0u64; n];
        for (key, rel, val) in pass() {
            let slot = &mut off[key as usize + 1];
            buf[*slot as usize] = (rel as u64) << 32 | val as u64;
            *slot += 1;
        }
        off.pop();

        // Sort each run and drop its duplicates, compacting `buf` from the
        // front; off[key + 1] becomes the run's new end.
        let (mut len, mut n_groups, mut lo) = (0usize, 0usize, 0usize);
        for key in 0..n_keys {
            let hi = off[key + 1] as usize;
            buf[lo..hi].sort_unstable();
            let (mut prev, mut prev_rel) = (u64::MAX, u64::MAX);
            for i in lo..hi {
                let x = buf[i];
                if x != prev {
                    n_groups += usize::from(x >> 32 != prev_rel);
                    (prev, prev_rel) = (x, x >> 32);
                    buf[len] = x;
                    len += 1;
                }
            }
            off[key + 1] = len as u32;
            lo = hi;
        }

        // Emit the groups; off[key + 1] becomes the key's end in groups.
        let mut side = Side {
            ent_off: Vec::new(),
            groups: Vec::with_capacity(n_groups),
            vals: buf[..len].iter().map(|&x| x as u32).collect(),
        };
        let mut lo = 0usize;
        for key in 0..n_keys {
            let hi = off[key + 1] as usize;
            let mut prev_rel = u64::MAX;
            for (i, &x) in buf[lo..hi].iter().enumerate() {
                if x >> 32 != prev_rel {
                    prev_rel = x >> 32;
                    side.groups.push((prev_rel as u32, (lo + i) as u32));
                }
            }
            off[key + 1] = side.groups.len() as u32;
            lo = hi;
        }
        side.ent_off = off;
        side
    }

    /// The completions of `(key, rel)`: the key's offsets, a binary search
    /// over its few relations, and a slice of `vals`.
    #[inline]
    fn get(&self, key: u32, rel: u32) -> &[u32] {
        let key = key as usize;
        let Some(&[lo, hi]) = self.ent_off.get(key..key + 2) else {
            return &[];
        };
        let (lo, hi) = (lo as usize, hi as usize);
        let Ok(i) = self.groups[lo..hi].binary_search_by_key(&rel, |&(r, _)| r) else {
            return &[];
        };
        let start = self.groups[lo + i].1 as usize;
        let end = self.groups.get(lo + i + 1).map_or(self.vals.len(), |&(_, s)| s as usize);
        &self.vals[start..end]
    }
}

impl GroupedFilter {
    /// Invert an existing [`FilterIndex`], reading its set in place.
    pub fn from_index(idx: &FilterIndex) -> Self {
        Self::build(|| idx.all.iter().copied())
    }

    /// Build directly from a triple stream (duplicates allowed).
    pub fn from_triples(triples: impl Iterator<Item = Triple>) -> Self {
        let triples: Vec<Triple> = triples.collect();
        Self::build(|| triples.iter().copied())
    }

    /// Both sides from the triples every call of `pass` yields: one walk
    /// for the sizes, then two per side.
    fn build<I: Iterator<Item = Triple>>(pass: impl Fn() -> I) -> Self {
        let (mut n, mut heads, mut tails) = (0usize, 0usize, 0usize);
        for t in pass() {
            n += 1;
            heads = heads.max(t.head as usize + 1);
            tails = tails.max(t.tail as usize + 1);
        }
        GroupedFilter {
            tails: Side::build(heads, n, || pass().map(|t| (t.head, t.rel, t.tail))),
            heads: Side::build(tails, n, || pass().map(|t| (t.tail, t.rel, t.head))),
        }
    }

    /// Known true tails of `(head, rel, ?)`, ascending.
    #[inline]
    pub fn known_tails(&self, head: u32, rel: u32) -> &[u32] {
        self.tails.get(head, rel)
    }

    /// Known true heads of `(?, rel, tail)`, ascending.
    #[inline]
    pub fn known_heads(&self, tail: u32, rel: u32) -> &[u32] {
        self.heads.get(tail, rel)
    }

    /// Number of distinct `(head, rel)` groups (tail-side).
    pub fn n_tail_groups(&self) -> usize {
        self.tails.groups.len()
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
        let empty = GroupedFilter::default();
        assert_eq!(empty.known_tails(0, 0), &[] as &[u32]);
        assert_eq!(empty.n_tail_groups(), 0);
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

    /// Id patterns chosen against the hasher: entity ids sharing their low
    /// `shift` bits, relation ids sharing their low 16, one `(rel, head)`
    /// with 10^4 tails, and plain sequential ids with duplicates.
    /// `FilterIndex` gets `shift` 16; `GroupedFilter`, whose entity offsets
    /// are sized by the largest id, the same patterns in a dense range.
    fn adversarial_triples(shift: u32) -> Vec<Triple> {
        let mut v = Vec::new();
        for i in 0..300u32 {
            for j in 0..20u32 {
                v.push(Triple::new(i << shift, (j % 3) << 16, (i + j) << shift));
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
        let triples = adversarial_triples(16);
        let idx = FilterIndex::from_triples(triples.iter().copied());
        let all: BTreeSet<Triple> = triples.iter().copied().collect();
        assert_eq!(idx.len(), all.len());
        for t in &all {
            assert!(idx.contains(*t));
            // Near misses: one id off, and the same ids in another slot.
            let swapped = Triple::new(t.tail, t.rel, t.head);
            for miss in [t.with_tail(t.tail ^ 1), t.with_head(t.head ^ (1 << 16)), swapped] {
                assert_eq!(idx.contains(miss), all.contains(&miss), "{miss:?}");
            }
        }

        let triples = adversarial_triples(4);
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
        let oracle = |map: &BTreeMap<(u32, u32), Vec<u32>>, key| {
            map.get(&key).map_or(Vec::new(), Vec::clone)
        };
        for (&(rel, head), want) in &tails {
            assert_eq!(grouped.known_tails(head, rel), want.as_slice());
            // A relation next to a present one, mostly absent.
            assert_eq!(
                grouped.known_tails(head, rel ^ 1),
                oracle(&tails, (rel ^ 1, head))
            );
        }
        for (&(rel, tail), want) in &heads {
            assert_eq!(grouped.known_heads(tail, rel), want.as_slice());
        }
        assert_eq!(grouped.n_tail_groups(), tails.len());
        assert_eq!(grouped.known_tails(8, 1), &[] as &[u32]);
        assert_eq!(grouped.known_tails(u32::MAX, 1), &[] as &[u32]);
        assert_eq!(grouped.known_heads(u32::MAX, u32::MAX), &[] as &[u32]);
    }

    #[test]
    fn builds_are_identical_whatever_the_input_order() {
        let triples = adversarial_triples(4);
        let idx = FilterIndex::from_triples(triples.iter().copied());
        let want = format!("{:?}", GroupedFilter::from_index(&idx));
        let forward = GroupedFilter::from_triples(triples.iter().copied());
        let reversed = GroupedFilter::from_triples(triples.iter().rev().copied());
        assert_eq!(format!("{forward:?}"), want);
        assert_eq!(format!("{reversed:?}"), want);
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
