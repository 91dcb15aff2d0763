//! The fixed scenario every workload runs: synth -> filter index ->
//! partition -> train -> rank -> publish -> serve, each step a call into
//! a layer's public function, timed from outside.
//!
//! After one pass through the steps the run goes round them: every round
//! repeats `train()`, one ranking segment, one closed-loop segment and, in
//! some rounds, an open-loop replay or a set-up rebuild. Each metric's
//! samples are thus spread over the whole run, and a burst of host noise
//! lasting a second spoils one sample of each, not one metric entirely.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use kge_core::KgeModel;
use kge_data::{Dataset, FilterIndex, GroupedFilter};
use kge_eval::{
    evaluate_ranking_with, rank_of_scalar, RankingMetrics, RankingOptions, RankingWorkspace,
};
use kge_partition::{entity_owners, hot_set, partition_for, Partition};
use kge_serve::SnapshotHub;
use kge_train::{train_with_snapshots, SnapshotSink, TrainConfig, TrainOutcome};
use simgrid::{Cluster, ClusterSpec};

use crate::clock::{normalise, RefClock, Segment};
use crate::report::Metrics;
use crate::serve::{self, OpenLoop, Serving};
use crate::trace::{Count, Recorder};
use crate::workloads::{Workload, RANKS};

/// How much of everything one run does. Work is fixed by `--seconds`,
/// never cut off by a timer, so two commits execute the same operations.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub trace: bool,
    /// Rounds = repeats of `train()` = ranking and closed-loop segments.
    pub rounds: usize,
    pub setup_reps: usize,
    /// Open-loop replays at the workload's rate.
    pub replays: usize,
    /// Replays at each of the two other rates (traced run only).
    pub side_replays: usize,
    /// Segments per layer probe (traced run only).
    pub probe_segments: usize,
}

impl Plan {
    /// Sized so that the timed work of the untraced run lasts about
    /// `seconds` on the reference core. The traced run trades rounds for
    /// the layer probes.
    pub fn new(seconds: u64, trace: bool) -> Self {
        let scale = seconds as f64 / crate::RUN_SECONDS as f64;
        let n = |base: f64, min: usize| ((base * scale).round() as usize).max(min);
        if trace {
            Plan {
                trace,
                rounds: n(9.0, 4),
                setup_reps: 3,
                replays: n(9.0, 4),
                side_replays: n(3.0, 2),
                probe_segments: n(9.0, 3),
            }
        } else {
            Plan {
                trace,
                rounds: n(18.0, 5),
                setup_reps: 5,
                replays: n(18.0, 5),
                side_replays: 0,
                probe_segments: 0,
            }
        }
    }

    /// Does round `round` carry one of `count` events spread evenly over
    /// the rounds?
    fn spread(&self, round: usize, count: usize) -> bool {
        let count = count.min(self.rounds);
        (round * count) / self.rounds != ((round + 1) * count) / self.rounds
    }
}

/// Everything set-up builds.
pub struct Inputs {
    pub ds: Dataset,
    pub filter: FilterIndex,
    pub grouped: Arc<GroupedFilter>,
    pub partition: Partition,
    pub owners: Vec<u32>,
    pub hot: Vec<u32>,
    pub degrees: Vec<usize>,
}

/// State of one run: clocks, recorder, results, and the operation count.
pub struct Run {
    pub w: &'static Workload,
    pub seed: u64,
    pub plan: Plan,
    pub rc: RefClock,
    pub rec: Recorder,
    pub metrics: Metrics,
    /// Operations: train calls + eval queries + serve queries + publishes.
    pub attempted: u64,
    /// A wrong, refused or panicking operation.
    pub failed: u64,
    /// What went wrong, for the log; empty = outputs correct.
    pub errors: Vec<String>,
    /// Totals over every timed call, for `host.wall_over_cpu`.
    pub timed_cpu_s: f64,
    pub timed_wall_s: f64,
}

impl Run {
    pub fn new(w: &'static Workload, seed: u64, plan: Plan) -> Self {
        let mut rec = Recorder::new(seed, 1 << 16);
        rec.enabled = plan.trace;
        Run {
            w,
            seed,
            plan,
            rc: RefClock::new(),
            rec,
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            timed_cpu_s: 0.0,
            timed_wall_s: 0.0,
        }
    }

    /// Count `n` operations as failed and remember why.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < 32 {
            self.errors.push(why);
        }
    }

    /// Check an output; a false check makes the run incorrect without
    /// failing an operation of its own.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(0, why());
        }
    }

    /// Add a finished segment to the run's totals.
    pub fn close(&mut self, seg: &Segment) {
        self.timed_cpu_s += seg.cpu_s;
        self.timed_wall_s += seg.wall_s;
    }
}

/// One timed, traced call: a span named `layer.function` around `f`,
/// charged to the segment `t`. Returns the result and the call's raw CPU
/// seconds (to be normalised with the segment's reference once closed).
pub fn traced<R>(
    rec: &mut Recorder,
    t: &mut Segment,
    name: &'static str,
    counts: &[Count],
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let id = rec.enter(name);
    let before = t.cpu_s;
    let out = t.call(f);
    let cpu_s = t.cpu_s - before;
    rec.exit(id, counts);
    (out, cpu_s)
}

/// `ref` seconds of every set-up call, one entry per rebuild.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub generate: Vec<f64>,
    pub filter: Vec<f64>,
    pub partition: Vec<f64>,
    pub ownership: Vec<f64>,
}

/// Set-up, once: build the workload's inputs. One segment, a reference
/// sample before and after every call.
fn setup_once(run: &mut Run, times: &mut SetupTimes) -> Inputs {
    let synth = (run.w.synth)();
    let cfg = (run.w.train)();
    let hot_rows = cfg
        .sharded
        .map_or(synth.n_entities / 20, |s| s.hot_cache_rows);
    let n_triples = synth.n_triples as u64;
    let phase = run.rec.enter("bench.setup");
    let mut t = Segment::start(&mut run.rc, 1);
    let (ds, c_gen) = traced(
        &mut run.rec,
        &mut t,
        "kge-data.synth_generate",
        &[("triples", n_triples)],
        || kge_data::synth::generate(&synth),
    );
    t.reference(&mut run.rc, 1);
    let (filter, c_index) = traced(
        &mut run.rec,
        &mut t,
        "kge-data.filter_index_build",
        &[("triples", n_triples)],
        || FilterIndex::build(&ds),
    );
    t.reference(&mut run.rc, 1);
    let (grouped, c_grouped) = traced(
        &mut run.rec,
        &mut t,
        "kge-data.grouped_filter_from_index",
        &[("triples", n_triples)],
        || GroupedFilter::from_index(&filter),
    );
    t.reference(&mut run.rc, 1);
    // Degrees are the benchmark's own bookkeeping, not a layer call.
    let mut degrees = vec![0usize; ds.n_entities];
    for tr in &ds.train {
        degrees[tr.head as usize] += 1;
        degrees[tr.tail as usize] += 1;
    }
    let rp = cfg.strategy.relation_partition;
    let (partition, c_part) = traced(
        &mut run.rec,
        &mut t,
        "kge-partition.partition_for",
        &[("triples", ds.train.len() as u64)],
        || partition_for(&ds.train, ds.n_relations, RANKS, rp),
    );
    t.reference(&mut run.rc, 1);
    let (owners, c_own) = traced(
        &mut run.rec,
        &mut t,
        "kge-partition.entity_owners",
        &[("rows", ds.n_entities as u64)],
        || entity_owners(&partition, ds.n_entities),
    );
    t.reference(&mut run.rc, 1);
    let (hot, c_hot) = traced(
        &mut run.rec,
        &mut t,
        "kge-partition.hot_set",
        &[("rows", hot_rows as u64)],
        || hot_set(&degrees, hot_rows),
    );
    t.reference(&mut run.rc, 1);
    run.close(&t);
    run.rec.exit(phase, &[]);
    // Every call is priced at the rebuild's mean reference: the short ones
    // last less than the samples around them.
    let r = t.ref_sample_s();
    times.total.push(t.ref_s());
    times.generate.push(normalise(c_gen, r));
    times.filter.push(normalise(c_index + c_grouped, r));
    times.partition.push(normalise(c_part, r));
    times.ownership.push(normalise(c_own + c_hot, r));
    Inputs {
        ds,
        filter,
        grouped: Arc::new(grouped),
        partition,
        owners,
        hot,
        degrees,
    }
}

/// What the repeats of `train()` leave behind.
pub struct Trained {
    pub cfg: TrainConfig,
    pub model: Arc<dyn KgeModel>,
    pub outcome: TrainOutcome,
    /// Per repeat: `ref` seconds of `train()`.
    pub ref_s: Vec<f64>,
    /// Per repeat: was the span recorder on?
    pub traced: Vec<bool>,
    /// Trained examples (positives + negatives) per `train()` call.
    pub examples: u64,
}

impl Trained {
    /// Does the workload publish snapshots while it trains? Then serving
    /// republishes between drains too: writes beside reads.
    pub fn republishes(&self) -> bool {
        self.cfg.serve_snapshots > 0
    }
}

fn same_outcome(a: &TrainOutcome, b: &TrainOutcome) -> bool {
    a.report.trace.len() == b.report.trace.len()
        && a.report
            .trace
            .iter()
            .zip(&b.report.trace)
            .all(|(x, y)| x.train_loss.to_bits() == y.train_loss.to_bits())
        && a.report.sim_total_seconds.to_bits() == b.report.sim_total_seconds.to_bits()
        && a.report.wire_bytes_sent == b.report.wire_bytes_sent
        && a.entities.as_slice() == b.entities.as_slice()
        && a.relations.as_slice() == b.relations.as_slice()
}

/// One `train()` call of the workload's configuration: one operation, one
/// segment.
/// Returns its `ref` seconds, whether it was traced and, unless it
/// panicked, its outcome, which must reproduce `first` bit for bit.
fn train_once(
    run: &mut Run,
    inputs: &Inputs,
    cfg: &TrainConfig,
    hub: &SnapshotHub,
    first: Option<&TrainOutcome>,
    repeat: usize,
) -> (f64, bool, Option<TrainOutcome>) {
    let cluster = Cluster::new(RANKS, ClusterSpec::cray_xc40());
    let sink: Option<&dyn SnapshotSink> = (cfg.serve_snapshots > 0).then_some(hub);
    let examples = train_examples(cfg, inputs);
    // The traced run turns its recorder off for every other repeat: the
    // difference is its own overhead on `train()`.
    run.rec.enabled = run.plan.trace && repeat.is_multiple_of(2);
    let was_traced = run.rec.enabled;
    // The lead sample stands in should the samplers beside the call never
    // get to finish one of theirs.
    let mut t = Segment::start(&mut run.rc, 1);
    let id = run.rec.enter("kge-train.train");
    let out = t.call_sampled(&mut run.rc, RANKS, || {
        catch_unwind(AssertUnwindSafe(|| {
            train_with_snapshots(&inputs.ds, &cluster, cfg, sink)
        }))
    });
    run.rec.exit(
        id,
        &[("examples", examples), ("epochs", cfg.max_epochs as u64)],
    );
    run.close(&t);
    run.rec.enabled = run.plan.trace;
    run.attempted += 1;
    let Ok(out) = out else {
        run.fail(1, format!("train() repeat {repeat} panicked"));
        return (t.ref_s(), was_traced, None);
    };
    let r = &out.report;
    let finite = r.trace.iter().all(|e| e.train_loss.is_finite());
    let identical = first.is_none_or(|f| same_outcome(f, &out));
    if !(r.wire_bytes_sent == r.wire_bytes_recv
        && r.epochs == cfg.max_epochs
        && finite
        && identical)
    {
        run.fail(
            1,
            format!(
                "train() repeat {repeat}: wire {}/{} epochs {} finite {finite} identical {identical}",
                r.wire_bytes_sent, r.wire_bytes_recv, r.epochs
            ),
        );
    }
    (t.ref_s(), was_traced, Some(out))
}

fn train_examples(cfg: &TrainConfig, inputs: &Inputs) -> u64 {
    (cfg.max_epochs * inputs.ds.train.len() * (1 + cfg.strategy.neg.train)) as u64
}

/// The sharded store must train the very model the replica trainer does:
/// one extra `train()` of the same config with full replicas.
fn check_sharded_equals_replica(run: &mut Run, inputs: &Inputs, trained: &Trained) {
    if trained.cfg.sharded.is_none() {
        return;
    }
    let mut cfg = trained.cfg.clone();
    cfg.sharded = None;
    let cluster = Cluster::new(RANKS, ClusterSpec::cray_xc40());
    run.attempted += 1;
    let id = run.rec.enter("kge-train.train_replica_check");
    let replica = catch_unwind(AssertUnwindSafe(|| {
        kge_train::train(&inputs.ds, &cluster, &cfg)
    }));
    run.rec.exit(id, &[("examples", trained.examples)]);
    match replica {
        Ok(r)
            if r.entities.as_slice() == trained.outcome.entities.as_slice()
                && r.relations.as_slice() == trained.outcome.relations.as_slice() => {}
        Ok(_) => run.fail(
            1,
            "sharded f32 model differs from the replica train()".into(),
        ),
        Err(_) => run.fail(1, "replica train() of the sharded config panicked".into()),
    }
}

/// Ranking state kept across rounds: the warm workspaces and what every
/// repeat of the timed call must return.
pub struct Evaluating {
    /// One timed call per workspace per segment. Where a workspace's
    /// buffers land in physical memory decides how they share the L2's
    /// sets with the tables: the same call runs 10 % faster or slower from
    /// one workspace to the next, for as long as the workspace lives. A
    /// segment that goes round several of them averages that draw out.
    ws: Vec<RankingWorkspace>,
    opts: RankingOptions,
    want: RankingMetrics,
    /// Test triples per timed call.
    n: usize,
    pub candidates_per_s: Vec<f64>,
    pub queries_per_s: Vec<f64>,
}

/// Warm workspaces, and `evaluate_ranking_with` calls per ranking segment.
const EVAL_WORKSPACES: usize = 16;
/// Test triples behind `test_mrr` (each is two queries).
const MRR_TRIPLES: usize = 3000;
/// Ranks compared with the scalar reference path per run.
const SCALAR_RANK_CHECKS: usize = 3;

/// `test_mrr` on a fixed subsample, once, checked against the scalar
/// reference path; the call also warms the workspace.
fn eval_start(run: &mut Run, inputs: &Inputs, trained: &Trained) -> Evaluating {
    let model = trained.model.as_ref();
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    let test = &inputs.ds.test;
    let mut ws = RankingWorkspace::new();
    let mrr_opts = RankingOptions {
        filtered: true,
        max_queries: Some(MRR_TRIPLES),
        seed: 0,
    };
    let n_mrr = MRR_TRIPLES.min(test.len());
    run.attempted += 2 * n_mrr as u64;
    let id = run.rec.enter("kge-eval.evaluate_ranking_with");
    let m = evaluate_ranking_with(&mut ws, model, ent, rel, test, &inputs.grouped, &mrr_opts);
    run.rec.exit(
        id,
        &[
            ("queries", 2 * n_mrr as u64),
            ("candidates", (2 * n_mrr * ent.rows()) as u64),
        ],
    );
    if !(m.n_queries == 2 * n_mrr && m.mrr > 0.0 && m.mrr <= 1.0) {
        run.fail(
            2 * n_mrr as u64,
            format!("ranking metrics out of range: {m:?}"),
        );
    }
    for i in 0..SCALAR_RANK_CHECKS.min(n_mrr) {
        let q = ws.queries()[i];
        let want_head = rank_of_scalar(model, ent, rel, q, true, Some(&inputs.filter));
        let want_tail = rank_of_scalar(model, ent, rel, q, false, Some(&inputs.filter));
        if (ws.head_ranks()[i], ws.tail_ranks()[i]) != (want_head, want_tail) {
            run.fail(
                2,
                format!("rank of {q:?} differs from the scalar reference"),
            );
        }
    }
    run.metrics.set("test_mrr", m.mrr);

    // Timed calls rank a smaller subsample, so that a call is short
    // against the 10-50 ms the core holds one speed.
    let n = run.w.eval_triples.min(test.len());
    let opts = RankingOptions {
        filtered: true,
        max_queries: Some(n),
        seed: run.seed,
    };
    let want = evaluate_ranking_with(&mut ws, model, ent, rel, test, &inputs.grouped, &opts);
    Evaluating {
        ws: vec![ws],
        opts,
        want,
        n,
        candidates_per_s: Vec::new(),
        queries_per_s: Vec::new(),
    }
}

/// Warm the other workspaces the ranking segments go round.
fn eval_more_workspaces(inputs: &Inputs, trained: &Trained, ev: &mut Evaluating) {
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    while ev.ws.len() < EVAL_WORKSPACES {
        let mut ws = RankingWorkspace::new();
        evaluate_ranking_with(
            &mut ws,
            trained.model.as_ref(),
            ent,
            rel,
            &inputs.ds.test,
            &inputs.grouped,
            &ev.opts,
        );
        ev.ws.push(ws);
    }
}

/// One ranking segment: the same filtered-ranking call on every warm
/// workspace in turn, a reference sample between them.
fn eval_segment(run: &mut Run, inputs: &Inputs, trained: &Trained, ev: &mut Evaluating) {
    let model = trained.model.as_ref();
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    let calls = ev.ws.len();
    let candidates = (2 * ev.n * ent.rows()) as u64;
    let counts = [("queries", 2 * ev.n as u64), ("candidates", candidates)];
    let mut t = Segment::start(&mut run.rc, 1);
    let mut same = true;
    for ws in &mut ev.ws {
        let (got, _) = traced(
            &mut run.rec,
            &mut t,
            "kge-eval.evaluate_ranking_with",
            &counts,
            || {
                evaluate_ranking_with(
                    ws,
                    model,
                    ent,
                    rel,
                    &inputs.ds.test,
                    &inputs.grouped,
                    &ev.opts,
                )
            },
        );
        same &= got == ev.want;
        t.reference(&mut run.rc, 1);
    }
    run.close(&t);
    let queries = 2 * (ev.n * calls) as u64;
    run.attempted += queries;
    if !same {
        run.fail(queries, "repeated evaluation gave different metrics".into());
    }
    ev.candidates_per_s
        .push(calls as f64 * candidates as f64 / t.ref_s());
    ev.queries_per_s.push(queries as f64 / t.ref_s());
}

/// Everything the scenario leaves for the per-layer probes.
pub struct Scenario {
    pub inputs: Inputs,
    pub setup: SetupTimes,
    pub trained: Trained,
    pub evaluating: Evaluating,
    pub serving: Serving,
    pub open_loop: OpenLoop,
}

/// Run the scenario and set the end-to-end metrics. `None` when a step
/// left nothing to go on with (no model, no snapshot).
pub fn run_scenario(run: &mut Run) -> Option<Scenario> {
    let plan = run.plan;
    let mut setup = SetupTimes::default();
    let inputs = setup_once(run, &mut setup);
    if let Err(e) = inputs.ds.validate() {
        run.fail(0, format!("generated dataset invalid: {e}"));
    }

    let cfg = (run.w.train)();
    let model: Arc<dyn KgeModel> = Arc::from(cfg.model.build(cfg.rank));
    let hub = SnapshotHub::new(Arc::clone(&model));
    let (first_s, first_traced, first) = train_once(run, &inputs, &cfg, &hub, None, 0);
    let mut trained = Trained {
        examples: train_examples(&cfg, &inputs),
        cfg,
        model,
        outcome: first?,
        ref_s: vec![first_s],
        traced: vec![first_traced],
    };
    let mut evaluating = eval_start(run, &inputs, &trained);
    let mut serving = serve::start(run, hub, &trained)?;
    let mut capacity_qps = Vec::new();
    let mut open_loop = OpenLoop::new(run.w.rate_qps);
    // One pass through the scenario is behind us: what the program needed
    // for it is the peak so far. What follows is the harness's doing: more
    // workspaces and snapshot generations to go round, and `train()`
    // repeated on new threads, whose allocator arenas pile up by 15-60 %
    // in an order that differs from run to run.
    match crate::host::peak_rss_mb() {
        Some(mb) => run.metrics.set("peak_rss_mb", mb),
        None => run.fail(0, "VmHWM not found in /proc/self/status".into()),
    }
    eval_more_workspaces(&inputs, &trained, &mut evaluating);
    serving.more_generations(run, &trained);

    for round in 0..plan.rounds {
        if round > 0 {
            let (s, was_traced, out) = train_once(
                run,
                &inputs,
                &trained.cfg,
                &serving.hub,
                Some(&trained.outcome),
                round,
            );
            if out.is_some() {
                trained.ref_s.push(s);
                trained.traced.push(was_traced);
            }
        }
        eval_segment(run, &inputs, &trained, &mut evaluating);
        capacity_qps.push(serve::capacity_segment(run, &mut serving, &trained));
        if plan.spread(round, plan.replays) {
            serve::replay_once(run, &mut serving, &trained, &mut open_loop);
        }
        // Rebuild the inputs: every build must give the same ones.
        if plan.spread(round, plan.setup_reps - 1) {
            let again = setup_once(run, &mut setup);
            let same = again.ds.train == inputs.ds.train
                && again.ds.test == inputs.ds.test
                && again.partition.shards == inputs.partition.shards
                && again.owners == inputs.owners
                && again.hot == inputs.hot;
            run.check(same, || "set-up rebuilt different inputs".into());
        }
    }
    serve::check_publishes_while_training(run, &serving, &trained);
    check_sharded_equals_replica(run, &inputs, &trained);
    // A dynamic selector that never leaves all-reduce would make the
    // combined workload a second dense one.
    let dynamic = matches!(
        trained.cfg.strategy.comm,
        kge_train::CommMode::Dynamic { .. }
    );
    let gathered = trained.outcome.report.allgather_epochs;
    run.check(!dynamic || gathered >= 1, || {
        "the DRS probe never switched to all-gather inside the run".into()
    });

    let rates: Vec<f64> = trained
        .ref_s
        .iter()
        .map(|s| trained.examples as f64 / s)
        .collect();
    let r = &trained.outcome.report;
    let m = &mut run.metrics;
    m.set_median("setup_s", &setup.total);
    m.set_median("train_examples_per_s", &rates);
    m.set("sim_epoch_s", r.sim_total_seconds / r.epochs as f64);
    m.set(
        "final_train_loss",
        r.trace.last().map_or(f64::NAN, |e| e.train_loss),
    );
    m.set_median("eval_candidates_per_s", &evaluating.candidates_per_s);
    m.set_median("serve_capacity_qps", &capacity_qps);
    m.set_median("serve_p50_ms", &open_loop.p50_ms);
    Some(Scenario {
        inputs,
        setup,
        trained,
        evaluating,
        serving,
        open_loop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_spread_evenly_over_rounds() {
        let plan = Plan::new(crate::RUN_SECONDS, false);
        assert_eq!(plan.rounds, 18);
        let count = |n: usize| (0..plan.rounds).filter(|&r| plan.spread(r, n)).count();
        assert_eq!(plan.replays, 18);
        assert_eq!(count(5), 5);
        assert_eq!(count(4), 4);
        assert_eq!(count(18), 18);
        assert_eq!(count(40), 18);
        assert_eq!(count(0), 0);
        // Longer runs do more of everything, never less than the floor.
        assert!(Plan::new(2 * crate::RUN_SECONDS, false).rounds > plan.rounds);
        assert_eq!(Plan::new(1, false).rounds, 5);
    }
}
