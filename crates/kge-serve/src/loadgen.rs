//! Open-loop load generation against a serve engine on simgrid's clock.
//!
//! Queries arrive on a Poisson schedule ([`OpenLoopArrivals`]) with
//! power-law skew over heads ([`PermutedZipf`] — a few arbitrary entity
//! ids are hot) and relations ([`ZipfSampler`]). The server loop is
//! open-loop: arrivals never wait for the server, so queueing delay is
//! part of every reported latency instead of silently throttling the
//! offered load (the coordinated-omission trap). Whenever the server is
//! free it admits everything that has arrived (up to
//! [`LoadgenConfig::batch_window`]) and drains it as one batch; the
//! drain's **measured host wall time** is charged to the simulated clock
//! as compute, so the latency distribution reflects the real kernel cost
//! under the simulated arrival process.

use std::sync::Arc;
use std::time::Instant;

use kge_data::{PermutedZipf, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{ClusterSpec, OpenLoopArrivals, SimClock};

use crate::engine::{Query, ServeEngine};
use crate::snapshot::ModelSnapshot;

/// Open-loop run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Offered load in queries per simulated second.
    pub rate_qps: f64,
    /// Total queries to issue.
    pub n_queries: usize,
    /// Max queries coalesced into one drain (1 = query-at-a-time).
    pub batch_window: usize,
    /// Top-k per query.
    pub k: usize,
    /// Zipf exponent over head entities (permuted across the id space).
    pub entity_exponent: f64,
    /// Zipf exponent over relations.
    pub relation_exponent: f64,
    /// Issue filtered queries (engine must carry a filter).
    pub filtered: bool,
    /// Seed for arrivals and query content.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            rate_qps: 10_000.0,
            n_queries: 10_000,
            batch_window: 4096,
            k: 10,
            entity_exponent: 1.0,
            relation_exponent: 0.9,
            filtered: false,
            seed: 1,
        }
    }
}

/// Latency/throughput report of one open-loop run (simulated seconds).
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub queries: usize,
    pub batches: usize,
    /// Mean admitted batch size.
    pub mean_batch: f64,
    pub p50_latency_s: f64,
    pub p99_latency_s: f64,
    pub mean_latency_s: f64,
    pub max_latency_s: f64,
    /// Completed queries over the simulated makespan.
    pub qps: f64,
    /// Simulated time from first arrival to last completion.
    pub sim_seconds: f64,
}

/// Drive `engine` with an open-loop Poisson arrival process and report
/// the latency distribution. Deterministic in the *schedule* given
/// `cfg.seed`; latencies inherit the host's measured kernel timings.
pub fn run_open_loop(engine: &mut ServeEngine, cfg: &LoadgenConfig) -> LoadReport {
    assert!(cfg.n_queries > 0 && cfg.batch_window > 0);
    let snap: &Arc<ModelSnapshot> = engine.snapshot();
    // Pre-draw the whole trace so admission decisions can look ahead
    // cheaply to "has the next query arrived yet".
    let trace = query_trace(snap.n_entities(), snap.n_relations(), cfg);

    let mut clock = SimClock::new(&ClusterSpec::cray_xc40());
    let mut latencies: Vec<f64> = Vec::with_capacity(cfg.n_queries);
    let mut batch_arrivals: Vec<f64> = Vec::with_capacity(cfg.batch_window);
    let mut batches = 0usize;
    let mut i = 0usize;
    while i < trace.len() {
        // Server free: idle until the next arrival if nothing is queued.
        if trace[i].0 > clock.now_s() {
            clock.charge_idle_until(trace[i].0);
        }
        batch_arrivals.clear();
        while i < trace.len() && trace[i].0 <= clock.now_s() && batch_arrivals.len() < cfg.batch_window
        {
            engine.submit(trace[i].1);
            batch_arrivals.push(trace[i].0);
            i += 1;
        }
        let t0 = Instant::now();
        engine.drain();
        clock.charge_compute_seconds(t0.elapsed().as_secs_f64());
        let done = clock.now_s();
        for &at in &batch_arrivals {
            latencies.push(done - at);
        }
        batches += 1;
    }

    let sim_seconds = clock.now_s();
    let n = latencies.len();
    let mean = latencies.iter().sum::<f64>() / n as f64;
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LoadReport {
        queries: n,
        batches,
        mean_batch: n as f64 / batches as f64,
        p50_latency_s: percentile(&latencies, 0.50),
        p99_latency_s: percentile(&latencies, 0.99),
        mean_latency_s: mean,
        max_latency_s: *latencies.last().expect("n_queries > 0"),
        qps: n as f64 / sim_seconds,
        sim_seconds,
    }
}

/// The run's `(arrival second, query)` sequence, a function of `cfg.seed`
/// and the snapshot's shape alone.
fn query_trace(n_ent: usize, n_rel: usize, cfg: &LoadgenConfig) -> Vec<(f64, Query)> {
    let mut arrivals = OpenLoopArrivals::new(cfg.rate_qps, cfg.seed);
    let heads = PermutedZipf::new(n_ent, cfg.entity_exponent, cfg.seed ^ 0x9E37);
    let rels = ZipfSampler::new(n_rel, cfg.relation_exponent);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x2545F4914F6CDD1D));
    (0..cfg.n_queries)
        .map(|_| {
            let at = arrivals.next_arrival_s();
            let q = Query {
                head: heads.sample(&mut rng),
                rel: rels.sample(&mut rng) as u32,
                k: cfg.k,
                filtered: cfg.filtered,
            };
            (at, q)
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kge_core::{ComplEx, EmbeddingTable, KgeModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> ServeEngine {
        let model: Arc<dyn KgeModel> = Arc::new(ComplEx::new(8));
        let mut rng = StdRng::seed_from_u64(1);
        let ent = EmbeddingTable::xavier(500, 16, &mut rng);
        let rel = EmbeddingTable::xavier(8, 16, &mut rng);
        ServeEngine::new(Arc::new(ModelSnapshot::build(model, &ent, &rel, 1)))
    }

    #[test]
    fn open_loop_answers_every_query() {
        let mut eng = engine();
        let report = run_open_loop(
            &mut eng,
            &LoadgenConfig {
                rate_qps: 50_000.0,
                n_queries: 2000,
                batch_window: 256,
                k: 5,
                ..LoadgenConfig::default()
            },
        );
        assert_eq!(report.queries, 2000);
        assert!(report.batches >= 1);
        assert!(report.mean_batch >= 1.0);
        assert!(report.p50_latency_s >= 0.0);
        assert!(report.p99_latency_s >= report.p50_latency_s);
        assert!(report.max_latency_s >= report.p99_latency_s);
        assert!(report.qps > 0.0 && report.sim_seconds > 0.0);
    }

    #[test]
    fn single_query_window_serves_one_at_a_time() {
        let mut eng = engine();
        let report = run_open_loop(
            &mut eng,
            &LoadgenConfig {
                rate_qps: 100.0,
                n_queries: 50,
                batch_window: 1,
                k: 3,
                ..LoadgenConfig::default()
            },
        );
        assert_eq!(report.queries, 50);
        assert_eq!(report.batches, 50);
        assert!((report.mean_batch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn query_trace_is_pinned_draw_for_draw() {
        // FNV-1a over every query's arrival bits, head and relation, at the
        // `eval_serve` snapshot's shape and at FB250K's, recorded with a
        // binary-search inverse CDF: a faster sampler must draw the same
        // trace, and a changed hash is a changed load.
        let hash = |n_ent: usize, n_rel: usize| {
            let cfg = LoadgenConfig { n_queries: 4000, ..LoadgenConfig::default() };
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (at, q) in query_trace(n_ent, n_rel, &cfg) {
                for word in [at.to_bits(), q.head as u64, q.rel as u64] {
                    for b in word.to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            h
        };
        assert_eq!(hash(1_500, 64), 0x78c5_0e70_f789_a634);
        assert_eq!(hash(240_000, 9_280), 0x7c31_8211_73b2_9fac);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
