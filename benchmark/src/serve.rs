//! The serving half of the scenario: publish the trained model, then a
//! closed loop for capacity and an open loop, in virtual time, for
//! latency.

use std::collections::VecDeque;
use std::sync::Arc;

use kge_data::{PermutedZipf, ZipfSampler};
use kge_serve::{ModelSnapshot, Query, ServeEngine, SnapshotHub};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::OpenLoopArrivals;

use crate::clock::{normalise, Segment};
use crate::replay::{backlog_growth_s, replay};
use crate::scenario::{traced, Run, Trained};
use crate::stats::percentile_sorted;

/// Admission window of the engine's batches, and the closed loop's batch.
pub const WINDOW: usize = 256;
const TOP_K: usize = 10;
/// Every this-many-th answer is compared with `ServeEngine::oracle`.
const ORACLE_EVERY: u64 = 64;
/// Snapshot generations kept alive and served in turn. Where a snapshot's
/// tables land in physical memory decides how they share the L2's sets:
/// the same drain runs up to 8 % faster or slower from one generation to
/// the next. Going round several of them averages that draw out.
const SNAPSHOTS: usize = 8;
/// The open loop moves on to the next generation before every this-many-th
/// batch. Workloads that republish publish it there and then; the publish
/// stalls the server and is charged to its clock. (Every 64th batch made
/// the stalls a seventh of the server's load and `serve_p50_ms` on
/// `eval_serve` spread 5-10 % over ten runs; every 256th, 3 %.)
const REPUBLISH_EVERY: usize = 256;
/// Open loop: take a reference sample after this much drain CPU time, and
/// price drains at the mean of the last few samples.
const REPLAY_REF_EVERY_S: f64 = 2.0e-3;
const REPLAY_REF_WINDOW: usize = 4;

pub struct Serving {
    pub hub: SnapshotHub,
    pub engine: ServeEngine,
    /// The generations served in turn, and the one installed.
    snaps: Vec<Arc<ModelSnapshot>>,
    installed: usize,
    /// The query trace: seeded permuted-Zipf heads, Zipf relations.
    pub queries: Vec<Query>,
    /// Answers served so far (drives the every-64th oracle check).
    served: u64,
    pub oracle_mismatches: u64,
    /// `ref` seconds of every publish the benchmark made, in order.
    pub publish_s: Vec<f64>,
    /// Open-loop batches served so far (paces the republishes).
    batches: usize,
}

/// Publish `trained`'s model through the hub (one operation) and hand the
/// new generation back, or `None` when the publish was wrong.
fn publish(
    run: &mut Run,
    hub: &SnapshotHub,
    trained: &Trained,
) -> (Option<Arc<ModelSnapshot>>, f64) {
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    let r = &trained.outcome.report;
    let before = hub.generation();
    let mut t = Segment::start(&mut run.rc, 1);
    traced(
        &mut run.rec,
        &mut t,
        "kge-serve.publish_tables",
        &[("bytes", (ent.nbytes() + rel.nbytes()) as u64)],
        || hub.publish_tables(r.epochs, r.sim_total_seconds, ent, rel),
    );
    t.reference(&mut run.rc, 1);
    run.close(&t);
    run.attempted += 1;
    let snap = hub.latest().filter(|s| {
        s.generation() == before + 1
            && s.ent().as_slice() == ent.as_slice()
            && s.rel().as_slice() == rel.as_slice()
    });
    if snap.is_none() {
        run.fail(
            1,
            "published snapshot differs from the trained model".into(),
        );
    }
    (snap, t.ref_s())
}

/// Publish the final model and build the engine and the query trace.
pub fn start(run: &mut Run, hub: SnapshotHub, trained: &Trained) -> Option<Serving> {
    let (snap, publish_s) = publish(run, &hub, trained);
    let snap = snap?;
    let heads = PermutedZipf::new(snap.n_entities(), 1.0, run.seed ^ 0x9E37);
    let rels = ZipfSampler::new(snap.n_relations(), 0.9);
    let mut rng = StdRng::seed_from_u64(run.seed.wrapping_mul(0x2545F4914F6CDD1D));
    let queries = (0..run.w.replay_queries.max(WINDOW))
        .map(|_| Query {
            head: heads.sample(&mut rng),
            rel: rels.sample(&mut rng) as u32,
            k: TOP_K,
            filtered: false,
        })
        .collect();
    let mut sv = Serving {
        hub,
        engine: ServeEngine::new(Arc::clone(&snap)),
        snaps: vec![snap],
        installed: 0,
        queries,
        served: 0,
        oracle_mismatches: 0,
        publish_s: vec![publish_s],
        batches: 0,
    };
    // One unmeasured drain sizes the engine's pooled buffers.
    sv.drain(run, &mut Segment::default(), 0..WINDOW);
    Some(sv)
}

/// Workloads that train with `serve_snapshots` publish once per epoch of
/// every `train()` repeat, through the same hub: each is one operation.
pub fn check_publishes_while_training(run: &mut Run, sv: &Serving, trained: &Trained) {
    if !trained.republishes() {
        return;
    }
    let want = (trained.ref_s.len() * trained.cfg.max_epochs) as u64;
    let got = sv.hub.generation() - sv.publish_s.len() as u64;
    run.attempted += want;
    if got != want {
        run.fail(
            want.abs_diff(got),
            format!("{got} snapshots published while training, want {want}"),
        );
    }
}

impl Serving {
    /// Publish the other generations serving goes round.
    pub fn more_generations(&mut self, run: &mut Run, trained: &Trained) {
        for _ in self.snaps.len()..SNAPSHOTS {
            let (snap, s) = publish(run, &self.hub, trained);
            self.snaps.extend(snap);
            self.publish_s.push(s);
        }
    }

    /// Serve from the next generation from now on. Workloads that
    /// republish publish the same model anew in its place first: a write
    /// beside the reads of the snapshot the engine is sweeping. Returns the
    /// `ref` seconds the publish cost (0 without one).
    fn next_generation(&mut self, run: &mut Run, trained: &Trained) -> f64 {
        self.installed = (self.installed + 1) % self.snaps.len();
        let mut cost_s = 0.0;
        if trained.republishes() {
            let (snap, s) = publish(run, &self.hub, trained);
            if let Some(snap) = snap {
                self.snaps[self.installed] = snap;
            }
            self.publish_s.push(s);
            cost_s = s;
        }
        let id = run.rec.enter("kge-serve.install");
        self.engine.install(Arc::clone(&self.snaps[self.installed]));
        run.rec.exit(id, &[]);
        cost_s
    }

    /// Submit `queries[range]` and drain them, charged to `t`; returns
    /// the raw CPU seconds. Every 64th answer is then checked against the
    /// oracle (untimed). Each query is one operation.
    pub fn drain(&mut self, run: &mut Run, t: &mut Segment, range: std::ops::Range<usize>) -> f64 {
        let n = range.len();
        let counts = [
            ("queries", n as u64),
            (
                "candidates",
                (n * self.engine.snapshot().n_entities()) as u64,
            ),
        ];
        let (engine, batch) = (&mut self.engine, &self.queries[range.clone()]);
        let (answered, cpu_s) = traced(&mut run.rec, t, "kge-serve.submit_drain", &counts, || {
            for q in batch {
                engine.submit(*q);
            }
            engine.drain().len()
        });
        run.attempted += n as u64;
        if answered != n {
            run.fail(
                n as u64,
                format!("drain answered {answered} of {n} queries"),
            );
            return cpu_s;
        }
        for (slot, q) in self.queries[range].iter().enumerate() {
            self.served += 1;
            if self.served.is_multiple_of(ORACLE_EVERY) {
                let id = run.rec.enter("kge-serve.oracle");
                let same = self.engine.results().get(slot) == self.engine.oracle(q).as_slice();
                run.rec.exit(id, &[("queries", 1)]);
                if !same {
                    self.oracle_mismatches += 1;
                    run.fail(1, format!("answer to {q:?} differs from the oracle"));
                }
            }
        }
        cpu_s
    }
}

/// Closed loop, one client: `WINDOW` queries submitted, then `drain()`,
/// the next batch only after the previous one completed. One segment of
/// the workload's `capacity_drains` drains, each from the next generation;
/// returns queries per `ref` second.
pub fn capacity_segment(run: &mut Run, sv: &mut Serving, trained: &Trained) -> f64 {
    let drains = run.w.capacity_drains;
    let mut t = Segment::start(&mut run.rc, 1);
    for d in 0..drains {
        sv.next_generation(run, trained);
        let lo = (d * WINDOW) % (sv.queries.len() - WINDOW + 1);
        sv.drain(run, &mut t, lo..lo + WINDOW);
        t.reference(&mut run.rc, 1);
    }
    run.close(&t);
    (drains * WINDOW) as f64 / t.ref_s()
}

/// What the open loop measured at one offered rate, one entry per replay.
pub struct OpenLoop {
    pub rate_qps: f64,
    pub p50_ms: Vec<f64>,
    pub p90_ms: Vec<f64>,
    pub p99_ms: Vec<f64>,
    pub mean_batch: Vec<f64>,
    pub backlog_growth_ms: Vec<f64>,
}

impl OpenLoop {
    pub fn new(rate_qps: f64) -> Self {
        OpenLoop {
            rate_qps,
            p50_ms: Vec::new(),
            p90_ms: Vec::new(),
            p99_ms: Vec::new(),
            mean_batch: Vec::new(),
            backlog_growth_ms: Vec::new(),
        }
    }
}

/// One open-loop replay in virtual time: seeded Poisson arrivals at
/// `out.rate_qps` queries per `ref` second, the same trace every replay;
/// the server admits everything arrived (window 256) and its clock
/// advances by the drain's `ref` time.
pub fn replay_once(run: &mut Run, sv: &mut Serving, trained: &Trained, out: &mut OpenLoop) {
    let n = run.w.replay_queries;
    let mut gen = OpenLoopArrivals::new(out.rate_qps, run.seed);
    let arrivals: Vec<f64> = (0..n).map(|_| gen.next_arrival_s()).collect();
    let phase = run.rec.enter("bench.open_loop_replay");
    let mut t = Segment::start(&mut run.rc, REPLAY_REF_WINDOW);
    let n0 = run.rc.samples.len();
    let mut recent: VecDeque<f64> = run.rc.samples[n0 - REPLAY_REF_WINDOW..]
        .iter()
        .copied()
        .collect();
    let mut since_ref_s = 0.0;
    let r = replay(&arrivals, WINDOW, |range| {
        let mut cost_s = 0.0;
        sv.batches += 1;
        if sv.batches.is_multiple_of(REPUBLISH_EVERY) {
            cost_s += sv.next_generation(run, trained);
        }
        let cpu_s = sv.drain(run, &mut t, range);
        since_ref_s += cpu_s;
        if since_ref_s >= REPLAY_REF_EVERY_S {
            since_ref_s = 0.0;
            recent.pop_front();
            t.reference(&mut run.rc, 1);
            recent.push_back(*run.rc.samples.last().expect("just sampled"));
        }
        let ref_sample_s = recent.iter().sum::<f64>() / recent.len() as f64;
        cost_s + normalise(cpu_s, ref_sample_s)
    });
    run.close(&t);
    run.rec.exit(
        phase,
        &[("queries", n as u64), ("batches", r.batches as u64)],
    );
    let mut sorted = r.latencies_s.clone();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    out.p50_ms.push(percentile_sorted(&sorted, 0.50) * 1e3);
    out.p90_ms.push(percentile_sorted(&sorted, 0.90) * 1e3);
    out.p99_ms.push(percentile_sorted(&sorted, 0.99) * 1e3);
    out.mean_batch.push(n as f64 / r.batches as f64);
    out.backlog_growth_ms
        .push(backlog_growth_s(&r.latencies_s) * 1e3);
}
