//! Skewed discrete samplers: Zipf (for relation frequencies) and
//! power-law popularity (for entity degrees).
//!
//! Freebase skims have heavily skewed relation frequencies and entity
//! degrees; these samplers reproduce that shape in the synthetic
//! generator. Sampling inverts a CDF table through a guide table — O(1)
//! expected per draw, deterministic given the RNG.

use rand::Rng;

/// Discrete sampler over `0..n` with probability ∝ `(i+1)^(-exponent)`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[j]` is the first index whose cdf is `≥ j / guide.len()`, for
    /// a power-of-two number of equal-width buckets of `[0, 1)`: a draw's
    /// bucket says where its search starts.
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Build a sampler over `n ≥ 1` items with skew `exponent ≥ 0`
    /// (0 = uniform; Freebase relation frequencies resemble ~0.9–1.1).
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n >= 1, "need at least one item");
        assert!(n <= u32::MAX as usize, "at most 2^32 - 1 items");
        assert!(exponent >= 0.0 && exponent.is_finite());
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        // Guard against FP drift on the last bucket.
        *cdf.last_mut().unwrap() = 1.0;
        Self::from_cdf(cdf)
    }

    /// The sampler over a non-decreasing `cdf` that ends at `1.0`.
    fn from_cdf(cdf: Vec<f64>) -> Self {
        debug_assert!(cdf.windows(2).all(|w| w[0] <= w[1]) && cdf.last() == Some(&1.0));
        // `j / m` is exact for a power-of-two `m`, and `cdf[n - 1] = 1.0`
        // ends the walk.
        let m = cdf.len().next_power_of_two();
        let mut guide = Vec::with_capacity(m);
        let mut i = 0;
        for j in 0..m {
            let edge = j as f64 / m as f64;
            while cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        ZipfSampler { cdf, guide }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        false // construction requires n >= 1
    }

    /// Draw one index: for one `u = rng.gen::<f64>()` in `[0, 1)`, the
    /// first index whose cdf is `≥ u`. A draw reads one guide entry and two
    /// cdf entries when its answer is at most one entry past its bucket's
    /// start, as it mostly is (the `m ≥ n` buckets share `n` entries), and
    /// bisects the bucket otherwise: O(1) expected, O(log n) at worst.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.index_of(rng.gen())
    }

    /// The first index whose cdf is `≥ u`, for `u` in `[0, 1)`. `u · m` is
    /// exact for the power-of-two bucket count `m`, so `u` never lands in
    /// a bucket past its answer, and the answer is at most the next
    /// bucket's start (`cdf[n − 1] = 1.0` bounds the last bucket).
    #[inline]
    fn index_of(&self, u: f64) -> usize {
        let j = (u * self.guide.len() as f64) as usize;
        let mut i = self.guide[j] as usize;
        // Most draws end at the bucket's start or one entry past it, a
        // coin flip a branch would mispredict; that step is taken without
        // one (about 1.6× faster per draw).
        i += (self.cdf[i] < u) as usize;
        if self.cdf[i] < u {
            // A bucket holding many entries — a steep tail's thousands, near
            // 1.0 — costs a bisection, not a scan.
            let end = self.guide.get(j + 1).map_or(self.cdf.len() - 1, |&g| g as usize);
            i += self.cdf[i..end].partition_point(|&c| c < u);
        }
        i
    }

    /// Probability mass of item `i`.
    fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Zipf sampler composed with a seeded permutation of the id space, so the
/// popularity ranks are spread across `0..n` instead of piling up at the
/// low ids. This is the shape real query traffic has against an entity
/// table: a few arbitrary ids are hot, and they are *not* the first rows
/// of the table (which would make every hot lookup a same-tile cache hit
/// and flatter the serving benchmark).
#[derive(Debug, Clone)]
pub struct PermutedZipf {
    ranks: ZipfSampler,
    /// `rank → id`: seeded Fisher–Yates shuffle of `0..n`.
    ids: Vec<u32>,
}

impl PermutedZipf {
    /// Sampler over `0..n` ids whose popularity follows a Zipf law with
    /// `exponent`, with the rank→id assignment drawn from `seed`.
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        assert!(n >= 1 && n <= u32::MAX as usize);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        // Seeded Fisher–Yates via a SplitMix64 counter stream (matches the
        // shim StdRng construction; independent of the sampling RNG).
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        PermutedZipf {
            ranks: ZipfSampler::new(n, exponent),
            ids,
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        false // construction requires n >= 1
    }

    /// Draw one id.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        self.ids[self.ranks.sample(rng)]
    }

    /// The id holding popularity rank `r` (0 = hottest).
    #[cfg(test)]
    fn id_at_rank(&self, r: usize) -> u32 {
        self.ids[r]
    }
}

/// Deal `total` items into `n` buckets proportionally to a Zipf pmf,
/// guaranteeing every bucket gets at least `min_per_bucket` (used to give
/// every relation at least a few triples).
pub fn zipf_allocation(n: usize, total: usize, exponent: f64, min_per_bucket: usize) -> Vec<usize> {
    assert!(n >= 1);
    assert!(
        total >= n * min_per_bucket,
        "total {total} too small for {n} buckets × min {min_per_bucket}"
    );
    let z = ZipfSampler::new(n, exponent);
    let spare = total - n * min_per_bucket;
    let mut out: Vec<usize> = (0..n)
        .map(|i| min_per_bucket + (z.pmf(i) * spare as f64).floor() as usize)
        .collect();
    // Distribute rounding remainder to the head of the distribution.
    let mut assigned: usize = out.iter().sum();
    let mut i = 0;
    while assigned < total {
        out[i % n] += 1;
        assigned += 1;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_exponent_zero() {
        let z = ZipfSampler::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_head_heavier_than_tail() {
        let z = ZipfSampler::new(100, 1.0);
        assert!(z.pmf(0) > 10.0 * z.pmf(99));
    }

    #[test]
    fn samples_cover_support_with_head_bias() {
        let z = ZipfSampler::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9], "head must dominate tail: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "all items reachable");
    }

    /// The inverse CDF the guide table replaced, written out: a binary
    /// search, free to return any of a run of equal entries equal to `u`.
    fn binary_search_index(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// `index_of(u)` is the first index whose cdf is `≥ u`, and equals the
    /// binary search wherever that is unambiguous. Returns whether the two
    /// differed (only possible on a run of equal entries).
    fn check_draw(z: &ZipfSampler, u: f64) -> bool {
        let got = z.index_of(u);
        assert_eq!(got, z.cdf.partition_point(|&c| c < u), "first index, u = {u:e}");
        let old = binary_search_index(&z.cdf, u);
        if old != got {
            assert_eq!(z.cdf[old], z.cdf[got], "u = {u:e}: {old} vs {got} is not a tie");
        }
        old != got
    }

    /// `u = 0`, the largest `u < 1`, every cdf entry and bucket edge with
    /// their `f64` neighbours, then `random` uniform draws.
    fn probes(z: &ZipfSampler, random: usize) -> Vec<f64> {
        let m = z.guide.len();
        let edges = (0..m).map(|j| j as f64 / m as f64);
        let mut us: Vec<f64> = z
            .cdf
            .iter()
            .copied()
            .chain(edges)
            .flat_map(|x| [x.next_down(), x, x.next_up()])
            .chain([0.0, 1.0f64.next_down()])
            .filter(|u| (0.0..1.0).contains(u))
            .collect();
        let mut rng = StdRng::seed_from_u64(us.len() as u64);
        us.extend((0..random).map(|_| rng.gen::<f64>()));
        us
    }

    #[test]
    fn guide_table_draw_equals_the_binary_search() {
        for n in [1usize, 2, 3, 7, 64, 1000, 2242, 240_000] {
            for exponent in [0.0, 0.5, 0.75, 0.8, 1.0, 1.5, 3.0] {
                let z = ZipfSampler::new(n, exponent);
                let ties = probes(&z, 10_000).into_iter().filter(|&u| check_draw(&z, u)).count();
                // Equal entries need increments below the cdf's ulp: only
                // the long, steep tails have them.
                assert!(ties == 0 || (n == 240_000 && exponent >= 1.5), "n {n} s {exponent}");
            }
        }
    }

    #[test]
    fn equal_cdf_entries_draw_the_first_of_their_run() {
        // Runs of equal entries at bucket edges (m = 8) and inside buckets,
        // and zero-mass items at the head.
        let z = ZipfSampler::from_cdf(vec![0.0, 0.0, 0.25, 0.25, 0.3, 0.3, 0.3, 0.5, 1.0, 1.0]);
        for u in probes(&z, 10_000) {
            check_draw(&z, u);
        }
        for (u, first) in [(0.0, 0), (0.25, 2), (0.3, 4), (0.5, 7), (0.75, 8)] {
            assert_eq!(z.index_of(u), first, "u = {u}");
        }
        // The generator's own case: a steep tail whose increments vanish
        // below the ulp of the running sum.
        let z = ZipfSampler::new(240_000, 3.0);
        let runs = z.cdf.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs > 0, "no equal entries to test");
        for (i, w) in z.cdf.windows(2).enumerate() {
            if w[0] == w[1] && (i == 0 || z.cdf[i - 1] < w[0]) && w[0] < 1.0 {
                assert_eq!(z.index_of(w[0]), i, "first of the run at {i}");
            }
        }
    }

    #[test]
    fn permuted_zipf_draws_equal_the_binary_search_draw_for_draw() {
        for (n, exponent, seed) in [(1_500, 1.0, 7u64), (240_000, 1.0, 9), (64, 0.9, 3)] {
            let p = PermutedZipf::new(n, exponent, seed);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..20_000 {
                let want = p.id_at_rank(binary_search_index(&p.ranks.cdf, a.gen()));
                assert_eq!(p.sample(&mut b), want);
            }
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(57, 0.8);
        let s: f64 = (0..57).map(|i| z.pmf(i)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_exact_total_and_minimum() {
        let alloc = zipf_allocation(10, 1000, 1.0, 5);
        assert_eq!(alloc.iter().sum::<usize>(), 1000);
        assert!(alloc.iter().all(|&a| a >= 5));
        assert!(alloc[0] > alloc[9]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn allocation_rejects_impossible_minimum() {
        let _ = zipf_allocation(10, 5, 1.0, 1);
    }

    #[test]
    fn permuted_zipf_is_a_permutation() {
        let p = PermutedZipf::new(257, 1.0, 12);
        let mut seen = vec![false; 257];
        for r in 0..257 {
            let id = p.id_at_rank(r) as usize;
            assert!(!seen[id]);
            seen[id] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permuted_zipf_hot_id_dominates_and_is_deterministic() {
        let p = PermutedZipf::new(100, 1.1, 5);
        let q = PermutedZipf::new(100, 1.1, 5);
        assert_eq!(p.id_at_rank(0), q.id_at_rank(0));
        let hot = p.id_at_rank(0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[p.sample(&mut rng) as usize] += 1;
        }
        assert_eq!(
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(i, _)| i as u32),
            Some(hot)
        );
    }

    #[test]
    fn permuted_zipf_seed_moves_the_hot_id() {
        let hot: Vec<u32> = (0..8)
            .map(|s| PermutedZipf::new(1000, 1.0, s).id_at_rank(0))
            .collect();
        let first = hot[0];
        assert!(hot.iter().any(|&h| h != first), "hot id stuck at {first}");
    }
}
