//! Freebase-shaped synthetic knowledge-graph generator.
//!
//! The paper evaluates on FB15K (15 K entities / 1.3 K relations / 600 K
//! triples) and FB250K (240 K / 9.3 K / 16 M), both skimmed from Freebase.
//! This generator produces graphs with the structural statistics those
//! datasets exhibit and that the paper's five strategies are sensitive to:
//!
//! - **Zipf-distributed relation frequencies** — drives the balance
//!   behaviour of the relation-partition strategy (§4.4).
//! - **Power-law entity popularity** — drives how many *distinct* entity
//!   rows a batch touches, which decides the all-reduce/all-gather
//!   crossover (§4.1) and the gradient-row sparsity (§4.2, Fig. 2).
//! - **Relation-type mix** (1-1 / 1-N / N-1 / N-N, as in Bordes et al.'s
//!   FB15K analysis) — gives the score distribution its hard-vs-easy
//!   negative structure, which the sample-selection strategy (§4.5)
//!   exploits.
//! - **Learnable regularity**: each relation acts as a (noisy) mapping
//!   between two entity intervals whose sizes are matched to the
//!   relation's triple budget (so the pattern space is never exhausted
//!   and the graph stays learnable), and the intervals of different
//!   relations overlap, sharing entities the way Freebase domains do.
//!
//! Generation is fully deterministic given the config's `seed`.

use crate::dataset::Dataset;
use crate::hash::{IdMap, IdSet};
use crate::powerlaw::{zipf_allocation, ZipfSampler};
use crate::triple::Triple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    pub name: String,
    pub n_entities: usize,
    pub n_relations: usize,
    /// Total distinct triples to generate (across all splits).
    pub n_triples: usize,
    /// Skew of relation frequencies. 0.75 keeps the head relation at a
    /// few percent of all triples, like Freebase skims.
    pub relation_zipf: f64,
    /// Skew of entity popularity within a relation's entity interval.
    pub entity_zipf: f64,
    /// Fraction of each relation's triples drawn uniformly at random
    /// (models Freebase noise / long-tail facts).
    pub noise_frac: f64,
    /// Fraction of triples held out for validation.
    pub valid_frac: f64,
    /// Fraction of triples held out for test.
    pub test_frac: f64,
    pub seed: u64,
}

/// Named presets matching the paper's two datasets. `scale` linearly
/// scales entities, relations and triples together, preserving per-entity
/// degree and relation skew; `scale = 1.0` reproduces the full sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthPreset {
    /// FB15K: 14 951 entities, 1 345 relations, ~592 K triples.
    Fb15kLike,
    /// FB250K: 240 K entities, 9 280 relations, ~16 M triples.
    Fb250kLike,
}

impl SynthPreset {
    /// Build the generator config at the given scale.
    pub fn config(self, scale: f64, seed: u64) -> SynthConfig {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let (name, ents, rels, triples) = match self {
            SynthPreset::Fb15kLike => ("fb15k-like", 14951.0, 1345.0, 592_213.0),
            SynthPreset::Fb250kLike => ("fb250k-like", 240_000.0, 9280.0, 16_000_000.0),
        };
        let n_entities = ((ents * scale) as usize).max(64);
        let n_relations = ((rels * scale) as usize).max(8);
        let n_triples = ((triples * scale) as usize).max(n_relations * 16);
        SynthConfig {
            name: format!("{name}@{scale}"),
            n_entities,
            n_relations,
            n_triples,
            relation_zipf: 0.75,
            entity_zipf: 0.8,
            noise_frac: 0.05,
            valid_frac: 0.04,
            test_frac: 0.05,
            seed,
        }
    }
}

/// Relation pattern types (Bordes et al. categorization of FB15K).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RelKind {
    OneToOne,
    OneToMany,
    ManyToOne,
    ManyToMany,
}

impl RelKind {
    fn of(rel: usize) -> Self {
        match rel % 4 {
            0 => RelKind::ManyToMany, // most Freebase mass is N-N
            1 => RelKind::OneToOne,
            2 => RelKind::OneToMany,
            _ => RelKind::ManyToOne,
        }
    }
}

/// Latent rank of the hidden ground-truth model that decides which pairs
/// are "true". Small enough that a modest trained model can recover it.
const GT_RANK: usize = 8;

/// Hidden low-rank ground truth: a random ComplEx-style model over all
/// entities and relations. Triples are sampled to have *high* ground-truth
/// score, so (a) the generated graph is globally consistent and learnable,
/// and (b) held-out true pairs also score high under a well-trained model
/// — the property real knowledge graphs have that makes link prediction
/// meaningful (unseen facts are predictable from latent structure).
struct GroundTruth {
    ent: Vec<f32>, // n_e × 2·GT_RANK
    rel: Vec<f32>, // n_r × 2·GT_RANK
}

impl GroundTruth {
    fn build(config: &SynthConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD1B54A32D192ED03);
        let d = 2 * GT_RANK;
        let mut ent = vec![0.0f32; config.n_entities * d];
        let mut rel = vec![0.0f32; config.n_relations * d];
        for v in ent.iter_mut().chain(rel.iter_mut()) {
            *v = rng.gen_range(-1.0f32..1.0);
        }
        GroundTruth { ent, rel }
    }

    #[inline]
    fn score(&self, h: usize, r: usize, t: usize) -> f32 {
        let d = GT_RANK;
        let he = &self.ent[h * 2 * d..(h + 1) * 2 * d];
        let re = &self.rel[r * 2 * d..(r + 1) * 2 * d];
        let te = &self.ent[t * 2 * d..(t + 1) * 2 * d];
        let (hr, hi) = he.split_at(d);
        let (rr, ri) = re.split_at(d);
        let (tr, ti) = te.split_at(d);
        let mut s = 0.0f32;
        for k in 0..d {
            s += rr[k] * (hr[k] * tr[k] + hi[k] * ti[k])
                + ri[k] * (hr[k] * ti[k] - hi[k] * tr[k]);
        }
        s
    }
}

/// The most tail candidates any relation kind scores per draw.
const MAX_CANDIDATES: usize = 48;

/// The fewest entities a relation's head or tail interval spans (hub sets
/// aside), so also the fewest entities [`generate`] accepts.
const MIN_INTERVAL: usize = 32;

/// One relation's sampling pattern: head/tail entity intervals sized to
/// the relation's budget, plus how concentrated the tail choice is
/// (the Bordes 1-1 / 1-N / N-1 / N-N mix expressed as score sharpness).
struct RelPattern<'a> {
    head_lo: usize,
    // Interval sizes are read by the structural-statistics tests.
    #[cfg_attr(not(test), allow(dead_code))]
    head_size: usize,
    tail_lo: usize,
    #[cfg_attr(not(test), allow(dead_code))]
    tail_size: usize,
    /// Ground-truth-guided tail choice: candidates scored per draw; more
    /// candidates ⇒ sharper (more functional) relation.
    candidates: usize,
    head_sampler: &'a ZipfSampler,
    tail_sampler: &'a ZipfSampler,
}

/// Each interval size's sampler, built once per graph: every sampler of a
/// graph has its `entity_zipf`, and many relations share a size.
type SamplersBySize = IdMap<usize, ZipfSampler>;

impl<'a> RelPattern<'a> {
    fn build(
        rel: usize,
        budget: usize,
        config: &SynthConfig,
        samplers: &'a mut SamplersBySize,
    ) -> Self {
        let n_e = config.n_entities;
        let kind = RelKind::of(rel);
        // Interval sizes keep the pattern capacity comfortably above the
        // budget so deduplication never degenerates into noise, while the
        // candidate count sets how determined the tail is given the head.
        // Capacities are kept *tight* (≈1.3–2× the budget): the observed
        // triples then cover most of each relation's plausible pattern
        // space, so a high-scoring corruption is usually a *known* true
        // triple (rejected by the filter) rather than an unobserved true
        // pair — the property real KG skims have that makes
        // hardest-negative selection (§4.5) helpful instead of harmful.
        let (head_size, tail_size, candidates) = match kind {
            // Nearly functional: few plausible tails per head.
            RelKind::OneToOne => {
                let s = (budget + budget / 3).clamp(MIN_INTERVAL, n_e);
                (s, s, MAX_CANDIDATES)
            }
            // Few hub heads fanning out to a broad tail set.
            RelKind::OneToMany => {
                let hubs = (budget / 32).clamp(1, n_e / 4);
                let tails = (2 * budget / hubs).clamp(MIN_INTERVAL, n_e);
                (hubs, tails, 4)
            }
            RelKind::ManyToOne => {
                let hubs = (budget / 32).clamp(1, n_e / 4);
                let heads = (2 * budget / hubs).clamp(MIN_INTERVAL, n_e);
                (heads, hubs, 4)
            }
            // Broad but latent-structured many-to-many: the GT-guided
            // choice of best-of-`candidates` concentrates tails, so the
            // effective pair space is ≈ s²/candidates.
            RelKind::ManyToMany => {
                let s = (budget).clamp(MIN_INTERVAL, n_e);
                (s, s, 16)
            }
        };
        let place = |salt: u64, size: usize| -> usize {
            if size >= n_e {
                0
            } else {
                (splitmix(config.seed ^ (rel as u64).wrapping_mul(salt)) as usize)
                    % (n_e - size + 1)
            }
        };
        for size in [head_size, tail_size] {
            samplers
                .entry(size)
                .or_insert_with(|| ZipfSampler::new(size, config.entity_zipf));
        }
        let samplers: &'a SamplersBySize = samplers;
        RelPattern {
            head_lo: place(0x9E3779B97F4A7C15, head_size),
            head_size,
            tail_lo: place(0xC2B2AE3D27D4EB4F, tail_size),
            tail_size,
            candidates,
            head_sampler: &samplers[&head_size],
            tail_sampler: &samplers[&tail_size],
        }
    }

    /// Draw one structured (head, tail) pair: popularity-sampled head,
    /// then the best-scoring tail (under the hidden ground truth) among
    /// `candidates` popularity-sampled options.
    fn draw(&self, rel: usize, gt: &GroundTruth, rng: &mut StdRng) -> (usize, usize) {
        let h = self.head_lo + self.head_sampler.sample(rng);
        // Every candidate first, then every score: scoring draws nothing,
        // so the RNG order is the interleaved one, and independent draws
        // and independent scores each overlap in the pipeline.
        let mut tails = [0usize; MAX_CANDIDATES];
        let tails = &mut tails[..self.candidates];
        for t in tails.iter_mut() {
            *t = self.tail_lo + self.tail_sampler.sample(rng);
        }
        let mut best_t = tails[0];
        let mut best_s = gt.score(h, rel, best_t);
        for &t in &tails[1..] {
            let s = gt.score(h, rel, t);
            if s > best_s {
                best_s = s;
                best_t = t;
            }
        }
        (h, best_t)
    }
}

/// Generate a dataset from `config`.
pub fn generate(config: &SynthConfig) -> Dataset {
    assert!(
        config.n_entities >= MIN_INTERVAL,
        "n_entities is {}, below the {MIN_INTERVAL} a relation's entity interval spans",
        config.n_entities
    );
    assert!(config.n_relations >= 1);
    assert!(config.valid_frac + config.test_frac < 0.5);
    let mut rng = StdRng::seed_from_u64(config.seed);

    let per_relation = zipf_allocation(
        config.n_relations,
        config.n_triples,
        config.relation_zipf,
        (config.n_triples / config.n_relations / 4).clamp(4, 64),
    );

    let gt = GroundTruth::build(config);
    // Triples of different relations never collide, so the dedup set holds
    // one relation's `(head, tail)` pairs at a time: at most its budget.
    let mut seen: IdSet<(u32, u32)> = IdSet::default();
    let mut triples: Vec<Triple> = Vec::with_capacity(config.n_triples);
    let mut samplers = SamplersBySize::default();

    for (rel, &budget) in per_relation.iter().enumerate() {
        seen.clear();
        seen.reserve(budget);
        let pattern = RelPattern::build(rel, budget, config, &mut samplers);
        let mut produced = 0usize;
        let mut attempts = 0usize;
        let max_attempts = budget * 20 + 100;
        while produced < budget && attempts < max_attempts {
            attempts += 1;
            let t = if rng.gen_bool(config.noise_frac) {
                Triple::new(
                    rng.gen_range(0..config.n_entities) as u32,
                    rel as u32,
                    rng.gen_range(0..config.n_entities) as u32,
                )
            } else {
                let (h, t) = pattern.draw(rel, &gt, &mut rng);
                Triple::new(h as u32, rel as u32, t as u32)
            };
            if seen.insert((t.head, t.tail)) {
                triples.push(t);
                produced += 1;
            }
        }
    }

    // Shuffle, then split so that every entity/relation in valid/test was
    // already seen in train (the real datasets' construction guarantees
    // this; evaluation on unseen ids is meaningless).
    shuffle(&mut triples, &mut rng);
    let n = triples.len();
    let n_valid = (n as f64 * config.valid_frac) as usize;
    let n_test = (n as f64 * config.test_frac) as usize;

    let mut ent_seen = vec![false; config.n_entities];
    let mut rel_seen = vec![false; config.n_relations];
    let mut train = Vec::with_capacity(n - n_valid - n_test);
    let mut valid = Vec::with_capacity(n_valid);
    let mut test = Vec::with_capacity(n_test);
    for t in triples {
        let known =
            ent_seen[t.head as usize] && ent_seen[t.tail as usize] && rel_seen[t.rel as usize];
        if known && valid.len() < n_valid {
            valid.push(t);
        } else if known && test.len() < n_test {
            test.push(t);
        } else {
            ent_seen[t.head as usize] = true;
            ent_seen[t.tail as usize] = true;
            rel_seen[t.rel as usize] = true;
            train.push(t);
        }
    }

    let ds = Dataset {
        name: config.name.clone(),
        n_entities: config.n_entities,
        n_relations: config.n_relations,
        train,
        valid,
        test,
    };
    debug_assert!(ds.validate().is_ok());
    ds
}

/// Fisher–Yates with the provided RNG (deterministic per seed).
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// SplitMix64 — cheap deterministic hash for per-relation constants.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        SynthConfig {
            name: "test".into(),
            n_entities: 500,
            n_relations: 24,
            n_triples: 8000,
            relation_zipf: 1.0,
            entity_zipf: 0.8,
            noise_frac: 0.05,
            valid_frac: 0.05,
            test_frac: 0.05,
            seed: 42,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let ds = generate(&small_config());
        assert!(ds.validate().is_ok());
        let total = ds.train.len() + ds.valid.len() + ds.test.len();
        // Dedup may fall slightly short of the budget but must be close.
        assert!(total > 7500, "got {total}");
        assert!(!ds.valid.is_empty() && !ds.test.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.train, b.train);
        assert_eq!(a.valid, b.valid);
        assert_eq!(a.test, b.test);
        let mut cfg = small_config();
        cfg.seed = 43;
        let c = generate(&cfg);
        assert_ne!(a.train, c.train, "different seeds, different data");
    }

    #[test]
    fn no_duplicate_triples() {
        use std::collections::HashSet;
        let ds = generate(&small_config());
        let set: HashSet<Triple> = ds.all_triples().collect();
        assert_eq!(set.len(), ds.all_triples().count());
    }

    #[test]
    fn eval_ids_appear_in_train() {
        let ds = generate(&small_config());
        let mut ent_in_train = vec![false; ds.n_entities];
        let mut rel_in_train = vec![false; ds.n_relations];
        for t in &ds.train {
            ent_in_train[t.head as usize] = true;
            ent_in_train[t.tail as usize] = true;
            rel_in_train[t.rel as usize] = true;
        }
        for t in ds.valid.iter().chain(&ds.test) {
            assert!(ent_in_train[t.head as usize]);
            assert!(ent_in_train[t.tail as usize]);
            assert!(rel_in_train[t.rel as usize]);
        }
    }

    #[test]
    fn relation_frequencies_are_skewed() {
        let ds = generate(&small_config());
        let stats = ds.stats();
        assert!(
            stats.relation_skew() > 2.0,
            "skew {} too uniform",
            stats.relation_skew()
        );
    }

    #[test]
    fn noise_stays_bounded_for_head_relations() {
        // The pattern capacity must not be exhausted: structured pairs
        // (inside the head/tail intervals) must dominate even for the
        // largest relation.
        let cfg = small_config();
        let ds = generate(&cfg);
        let stats = ds.stats();
        let mut samplers = SamplersBySize::default();
        let head_rel = (0..cfg.n_relations)
            .max_by_key(|&r| stats.relation_counts[r])
            .unwrap() as u32;
        let pattern = RelPattern::build(
            head_rel as usize,
            stats.relation_counts[head_rel as usize],
            &cfg,
            &mut samplers,
        );
        let in_pattern = ds
            .train
            .iter()
            .filter(|t| t.rel == head_rel)
            .filter(|t| {
                let h = t.head as usize;
                let tt = t.tail as usize;
                h >= pattern.head_lo
                    && h < pattern.head_lo + pattern.head_size
                    && tt >= pattern.tail_lo
                    && tt < pattern.tail_lo + pattern.tail_size
            })
            .count();
        let total = ds.train.iter().filter(|t| t.rel == head_rel).count();
        assert!(
            in_pattern as f64 > 0.7 * total as f64,
            "structured {in_pattern}/{total}"
        );
    }

    #[test]
    fn presets_scale_linearly() {
        let full = SynthPreset::Fb15kLike.config(1.0, 0);
        assert_eq!(full.n_entities, 14951);
        assert_eq!(full.n_relations, 1345);
        let tenth = SynthPreset::Fb15kLike.config(0.1, 0);
        assert_eq!(tenth.n_entities, 1495);
        assert!((tenth.n_triples as f64 - full.n_triples as f64 * 0.1).abs() < 2.0);
        let big = SynthPreset::Fb250kLike.config(0.02, 0);
        assert_eq!(big.n_entities, 4800);
        assert_eq!(big.n_relations, 185);
    }

    #[test]
    fn tiny_scale_generates_quickly_and_validly() {
        let cfg = SynthPreset::Fb15kLike.config(0.01, 7);
        let ds = generate(&cfg);
        assert!(ds.validate().is_ok());
        assert!(ds.train.len() > 1000);
    }

    #[test]
    #[should_panic(expected = "n_entities")]
    fn rejects_fewer_entities_than_an_interval_spans() {
        // The check names the field, not a clamp deep inside the pattern.
        let _ = generate(&SynthConfig {
            n_entities: 16,
            ..small_config()
        });
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn preset_rejects_zero_scale() {
        let _ = SynthPreset::Fb15kLike.config(0.0, 0);
    }
}
