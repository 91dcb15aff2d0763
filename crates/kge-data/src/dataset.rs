//! Datasets: triples plus vocab sizes and splits.

use crate::triple::Triple;

/// Which split a triple belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    Train,
    Valid,
    Test,
}

/// A knowledge graph with train/valid/test splits.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Dataset name for reports (e.g. `"fb15k-like@0.1"`).
    pub name: String,
    pub n_entities: usize,
    pub n_relations: usize,
    pub train: Vec<Triple>,
    pub valid: Vec<Triple>,
    pub test: Vec<Triple>,
}

impl Dataset {
    /// All triples across splits (used to build filtered-ranking indexes).
    pub fn all_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.train
            .iter()
            .chain(self.valid.iter())
            .chain(self.test.iter())
            .copied()
    }

    /// Split accessor.
    pub fn split(&self, s: Split) -> &[Triple] {
        match s {
            Split::Train => &self.train,
            Split::Valid => &self.valid,
            Split::Test => &self.test,
        }
    }

    /// Validate internal consistency: every id within bounds, no split
    /// empty (train may not be empty; valid/test may be).
    pub fn validate(&self) -> Result<(), String> {
        if self.train.is_empty() {
            return Err("train split is empty".into());
        }
        for (split, triples) in [
            ("train", &self.train),
            ("valid", &self.valid),
            ("test", &self.test),
        ] {
            for t in triples.iter() {
                if t.head as usize >= self.n_entities || t.tail as usize >= self.n_entities {
                    return Err(format!(
                        "{split}: entity id out of range in {t:?} (n_entities={})",
                        self.n_entities
                    ));
                }
                if t.rel as usize >= self.n_relations {
                    return Err(format!(
                        "{split}: relation id out of range in {t:?} (n_relations={})",
                        self.n_relations
                    ));
                }
            }
        }
        Ok(())
    }

    /// Structural statistics (relation histogram etc.).
    pub fn stats(&self) -> DatasetStats {
        let mut rel_counts = vec![0usize; self.n_relations];
        let mut ent_degree = vec![0usize; self.n_entities];
        for t in &self.train {
            rel_counts[t.rel as usize] += 1;
            ent_degree[t.head as usize] += 1;
            ent_degree[t.tail as usize] += 1;
        }
        let max_rel = rel_counts.iter().copied().max().unwrap_or(0);
        let max_deg = ent_degree.iter().copied().max().unwrap_or(0);
        let nonzero_rels = rel_counts.iter().filter(|&&c| c > 0).count();
        let active_ents = ent_degree.iter().filter(|&&d| d > 0).count();
        DatasetStats {
            n_entities: self.n_entities,
            n_relations: self.n_relations,
            n_train: self.train.len(),
            n_valid: self.valid.len(),
            n_test: self.test.len(),
            max_relation_count: max_rel,
            max_entity_degree: max_deg,
            nonempty_relations: nonzero_rels,
            relation_counts: rel_counts,
            active_entities: active_ents,
            entity_degrees: ent_degree,
        }
    }
}

/// Summary statistics of a dataset (train split).
#[derive(Debug, Clone)]
pub struct DatasetStats {
    pub n_entities: usize,
    pub n_relations: usize,
    pub n_train: usize,
    pub n_valid: usize,
    pub n_test: usize,
    pub max_relation_count: usize,
    pub max_entity_degree: usize,
    pub nonempty_relations: usize,
    /// Triple count per relation id (train split) — the array the paper's
    /// relation-partition strategy prefix-sums (§4.4).
    pub relation_counts: Vec<usize>,
    /// Entities with train degree > 0.
    pub active_entities: usize,
    /// Train-split degree (head + tail occurrences) per entity id — the
    /// array hot-cache sizing and degree-aware ownership consume.
    pub entity_degrees: Vec<usize>,
}

impl DatasetStats {
    /// Skew of the relation distribution: max count / mean count.
    pub fn relation_skew(&self) -> f64 {
        if self.nonempty_relations == 0 {
            return 0.0;
        }
        let mean = self.n_train as f64 / self.nonempty_relations as f64;
        self.max_relation_count as f64 / mean
    }
}

/// Bordes et al. (2013) relation categorization by average fan-out:
/// a relation is 1-1 / 1-N / N-1 / N-N according to whether its average
/// tails-per-head and heads-per-tail exceed 1.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationCategory {
    OneToOne,
    OneToMany,
    ManyToOne,
    ManyToMany,
}

impl RelationCategory {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            RelationCategory::OneToOne => "1-1",
            RelationCategory::OneToMany => "1-N",
            RelationCategory::ManyToOne => "N-1",
            RelationCategory::ManyToMany => "N-N",
        }
    }
}

/// Classify every relation of `ds` from its training triples. Relations
/// with no training triples default to N-N.
pub fn classify_relations(ds: &Dataset) -> Vec<RelationCategory> {
    use std::collections::HashMap;
    let mut tails_per_head: HashMap<(u32, u32), usize> = HashMap::new();
    let mut heads_per_tail: HashMap<(u32, u32), usize> = HashMap::new();
    for t in &ds.train {
        *tails_per_head.entry((t.rel, t.head)).or_default() += 1;
        *heads_per_tail.entry((t.rel, t.tail)).or_default() += 1;
    }
    let mut tph = vec![(0usize, 0usize); ds.n_relations]; // (sum, count)
    for (&(rel, _), &c) in &tails_per_head {
        tph[rel as usize].0 += c;
        tph[rel as usize].1 += 1;
    }
    let mut hpt = vec![(0usize, 0usize); ds.n_relations];
    for (&(rel, _), &c) in &heads_per_tail {
        hpt[rel as usize].0 += c;
        hpt[rel as usize].1 += 1;
    }
    (0..ds.n_relations)
        .map(|r| {
            if tph[r].1 == 0 || hpt[r].1 == 0 {
                return RelationCategory::ManyToMany;
            }
            let avg_tph = tph[r].0 as f64 / tph[r].1 as f64;
            let avg_hpt = hpt[r].0 as f64 / hpt[r].1 as f64;
            match (avg_tph > 1.5, avg_hpt > 1.5) {
                (false, false) => RelationCategory::OneToOne,
                (true, false) => RelationCategory::OneToMany,
                (false, true) => RelationCategory::ManyToOne,
                (true, true) => RelationCategory::ManyToMany,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            n_entities: 4,
            n_relations: 2,
            train: vec![
                Triple::new(0, 0, 1),
                Triple::new(1, 0, 2),
                Triple::new(2, 1, 3),
            ],
            valid: vec![Triple::new(0, 1, 3)],
            test: vec![Triple::new(3, 0, 0)],
        }
    }

    #[test]
    fn validate_accepts_consistent_data() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_entity() {
        let mut d = tiny();
        d.train.push(Triple::new(99, 0, 0));
        assert!(d.validate().unwrap_err().contains("entity id"));
    }

    #[test]
    fn validate_rejects_out_of_range_relation() {
        let mut d = tiny();
        d.test.push(Triple::new(0, 99, 0));
        assert!(d.validate().unwrap_err().contains("relation id"));
    }

    #[test]
    fn validate_rejects_empty_train() {
        let mut d = tiny();
        d.train.clear();
        assert!(d.validate().is_err());
    }

    #[test]
    fn stats_counts() {
        let s = tiny().stats();
        assert_eq!(s.n_train, 3);
        assert_eq!(s.relation_counts, vec![2, 1]);
        assert_eq!(s.nonempty_relations, 2);
        assert_eq!(s.max_relation_count, 2);
        // entity 1 and 2 appear twice each in train
        assert_eq!(s.max_entity_degree, 2);
        assert!(s.relation_skew() > 1.0);
        assert_eq!(s.entity_degrees, vec![1, 2, 2, 1]);
        assert_eq!(s.active_entities, 4);
    }

    #[test]
    fn synth_generator_shows_entity_skew() {
        // The power-law synth generator must produce a degree distribution
        // skewed enough that a small hot set covers a large share of the
        // endpoint mass — the premise of the hot cache.
        let cfg = crate::synth::SynthPreset::Fb15kLike.config(0.02, 7);
        let ds = crate::synth::generate(&cfg);
        let s = ds.stats();
        // Max degree over mean degree of the active entities.
        let skew = s.max_entity_degree as f64 * s.active_entities as f64 / (2 * s.n_train) as f64;
        assert!(skew > 3.0, "entity skew = {skew}");
        // Top-10% of entities must cover well over 10% of the touch mass
        // (uniform would give exactly 10%).
        let mut degs = s.entity_degrees.clone();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let hot: usize = degs[..s.n_entities / 10].iter().sum();
        let cov = hot as f64 / (2 * s.n_train) as f64;
        assert!(cov > 0.18, "top-10% coverage = {cov}");
    }

    #[test]
    fn all_triples_spans_splits() {
        assert_eq!(tiny().all_triples().count(), 5);
    }

    #[test]
    fn split_accessor() {
        let d = tiny();
        assert_eq!(d.split(Split::Train).len(), 3);
        assert_eq!(d.split(Split::Valid).len(), 1);
        assert_eq!(d.split(Split::Test).len(), 1);
    }

    #[test]
    fn relation_classification_matches_fanout() {
        // rel 0: one head, many tails (1-N); rel 1: reverse (N-1);
        // rel 2: bijection (1-1); rel 3: grid (N-N).
        let mut train = Vec::new();
        for i in 1..=6u32 {
            train.push(Triple::new(0, 0, i));
            train.push(Triple::new(i, 1, 0));
            train.push(Triple::new(i, 2, i + 10));
        }
        for a in 0..3u32 {
            for b in 0..3u32 {
                train.push(Triple::new(a, 3, b + 4));
            }
        }
        let ds = Dataset {
            name: "cat".into(),
            n_entities: 20,
            n_relations: 5,
            train,
            valid: vec![],
            test: vec![],
        };
        let cats = classify_relations(&ds);
        assert_eq!(cats[0], RelationCategory::OneToMany);
        assert_eq!(cats[1], RelationCategory::ManyToOne);
        assert_eq!(cats[2], RelationCategory::OneToOne);
        assert_eq!(cats[3], RelationCategory::ManyToMany);
        // Empty relation defaults to N-N.
        assert_eq!(cats[4], RelationCategory::ManyToMany);
        assert_eq!(RelationCategory::OneToOne.label(), "1-1");
    }
}
