//! The metrics the benchmark reports, by name, and how a run prints them.
//!
//! `BENCHMARK.json` at the root of the repository lists the same names,
//! units, directions and bounds; a unit test holds the two together.

use std::fmt::Write as _;

use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `new` worse than `base` (negative when
    /// it is better).
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - new) / base.abs(),
            Better::Lower => (new - base) / base.abs(),
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Host times are in `ref` seconds (see
/// `clock.rs`); `sim_epoch_s`, `final_train_loss` and `test_mrr` are
/// deterministic given the seed. The bounds are the issue's: 10 % for
/// what is timed on the host, less for what repeats exactly.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.1),
    e2e("train_examples_per_s", "examples/s", Higher, 0.1),
    e2e("sim_epoch_s", "sim_s", Lower, 0.01),
    e2e("final_train_loss", "loss", Lower, 0.02),
    e2e("test_mrr", "mrr", Higher, 0.05),
    e2e("eval_candidates_per_s", "candidates/s", Higher, 0.1),
    e2e("serve_capacity_qps", "1/s", Higher, 0.1),
    e2e("serve_p50_ms", "ms", Lower, 0.1),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// Single layers, prefix = crate. No bounds: they explain a movement of
/// an end-to-end metric, they do not gate a change.
pub const PER_LAYER: &[MetricDef] = &[
    // simgrid: the simulated clock of rank 0, per epoch, and its wire.
    layer("simgrid.compute_s", "sim_s", Lower),
    layer("simgrid.comm_s", "sim_s", Lower),
    layer("simgrid.idle_s", "sim_s", Lower),
    layer("simgrid.hidden_comm_s", "sim_s", Higher),
    layer("simgrid.checkpoint_s", "sim_s", Lower),
    layer("simgrid.wire_bytes_per_epoch", "bytes", Lower),
    layer("simgrid.wire_conserved", "bool", Higher),
    layer("simgrid.allreduce_host_mb_per_s", "MB/s", Higher),
    layer("simgrid.allgatherv_host_mb_per_s", "MB/s", Higher),
    layer("simgrid.p2p_host_msgs_per_s", "1/s", Higher),
    // kge-core: kernels and optimizer steps.
    layer("kge-core.score_grad_examples_per_s", "examples/s", Higher),
    layer("kge-core.optim_dense_s_per_step", "s", Lower),
    layer("kge-core.optim_lazy_rows_per_s", "rows/s", Higher),
    layer(
        "kge-core.one_vs_all_candidates_per_s",
        "candidates/s",
        Higher,
    ),
    layer("kge-core.score_grad_flops_per_example", "flop", Lower),
    layer("kge-core.score_grad_bytes_per_example", "bytes", Lower),
    layer("kge-core.avx_dispatch", "level", Higher),
    // kge-data.
    layer("kge-data.synth_triples_per_s", "triples/s", Higher),
    layer("kge-data.filter_build_s", "s", Lower),
    layer("kge-data.shuffle_s_per_epoch", "s", Lower),
    // kge-partition.
    layer("kge-partition.partition_s", "s", Lower),
    layer("kge-partition.ownership_s", "s", Lower),
    layer("kge-partition.imbalance", "ratio", Lower),
    layer("kge-partition.hot_set_coverage", "share", Higher),
    // kge-compress.
    layer("kge-compress.select_rows_per_s", "rows/s", Higher),
    layer("kge-compress.kept_share", "share", Lower),
    layer("kge-compress.encode_mb_per_s", "MB/s", Higher),
    layer("kge-compress.decode_mb_per_s", "MB/s", Higher),
    layer("kge-compress.wire_bytes_per_row", "bytes", Lower),
    // kge-train.
    layer(
        "kge-train.batch_gradients_examples_per_s",
        "examples/s",
        Higher,
    ),
    layer("kge-train.neg_sample_examples_per_s", "examples/s", Higher),
    layer("kge-train.exchange_host_s_per_batch", "s", Lower),
    layer("kge-train.unattributed_share", "share", Lower),
    layer("kge-train.cpu_s_per_epoch", "s", Lower),
    layer("kge-train.mean_rows_sent", "rows", Lower),
    layer("kge-train.rs_sparsity", "share", Higher),
    layer("kge-train.allreduce_epochs", "count", Lower),
    layer("kge-train.allgather_epochs", "count", Higher),
    layer("kge-train.pipelined_epochs", "count", Higher),
    layer("kge-train.pull_wire_bytes_per_epoch", "bytes", Lower),
    layer("kge-train.push_wire_bytes_per_epoch", "bytes", Lower),
    layer("kge-train.hot_hit_rate", "share", Higher),
    layer("kge-train.resident_fraction", "share", Lower),
    layer("kge-train.pull_lane_s", "sim_s", Lower),
    layer("kge-train.push_lane_s", "sim_s", Lower),
    layer("kge-train.hidden_pull_share", "share", Higher),
    layer("kge-train.hidden_push_share", "share", Higher),
    // kge-eval.
    layer("kge-eval.queries_per_s", "1/s", Higher),
    layer(
        "kge-eval.unfiltered_candidates_per_s",
        "candidates/s",
        Higher,
    ),
    layer("kge-eval.transpose_build_ms", "ms", Lower),
    // kge-serve.
    layer("kge-serve.publish_ms", "ms", Lower),
    layer("kge-serve.drain_ms_b1", "ms", Lower),
    layer("kge-serve.drain_ms_b16", "ms", Lower),
    layer("kge-serve.drain_ms_b256", "ms", Lower),
    layer("kge-serve.mean_batch", "queries", Lower),
    layer("kge-serve.p90_ms", "ms", Lower),
    layer("kge-serve.p99_ms", "ms", Lower),
    layer("kge-serve.p50_ms_rate_lo", "ms", Lower),
    layer("kge-serve.p50_ms_rate_hi", "ms", Lower),
    layer("kge-serve.backlog_growth_ms", "ms", Lower),
    layer("kge-serve.max_rate_within_limit_qps", "1/s", Higher),
    layer("kge-serve.oracle_mismatches", "count", Lower),
    // host: the run's own disturbance record.
    layer("host.ref_speed_median", "ratio", Higher),
    layer("host.ref_speed_spread", "share", Lower),
    layer("host.wall_over_cpu", "ratio", Lower),
    layer("host.steal_share", "share", Lower),
    layer("host.trace_overhead_share", "share", Lower),
];

/// The text of `BENCHMARK.json` (`--emit-benchmark-json` prints it), so
/// that the file the driver reads is generated from this registry.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {},", crate::RUN_SECONDS).expect("write to String");
    let list = |out: &mut String, key: &str, items: Vec<String>, last: bool| {
        writeln!(out, "  \"{key}\": [").expect("write to String");
        for (i, item) in items.iter().enumerate() {
            let comma = if i + 1 < items.len() { "," } else { "" };
            writeln!(out, "    {item}{comma}").expect("write to String");
        }
        writeln!(out, "  ]{}", if last { "" } else { "," }).expect("write to String");
    };
    let workloads = crate::workloads::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    list(&mut out, "workloads", workloads, false);
    let e2e = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            )
        })
        .collect();
    list(&mut out, "end_to_end", e2e, false);
    let layers = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    list(&mut out, "per_layer", layers, true);
    out.push_str("}\n");
    out
}

/// The values one run measured, keyed by registered metric name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, Summary)>,
    /// Metrics that came out NaN or infinite. They print as 0 (the result
    /// line is JSON) and make the run incorrect.
    pub non_finite: Vec<&'static str>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, summary: Summary) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not registered"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        if value.is_finite() {
            self.values.push((name, value, summary));
        } else {
            self.non_finite.push(name);
            self.values.push((name, 0.0, Summary::single(0.0)));
        }
    }

    /// A metric measured once (counters, ratios, deterministic values).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, value, Summary::single(value));
    }

    /// A host metric: the median of its per-segment samples. A metric none
    /// of whose segments completed counts as not finite.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if samples.is_empty() {
            return self.set(name, f64::NAN);
        }
        let s = Summary::of(samples);
        self.put(name, s.median, s);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    /// Every metric of `defs` by name with unit, sample count and
    /// quartiles, one per line.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let (_, value, s) = self
                .values
                .iter()
                .find(|v| v.0 == d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            writeln!(
                out,
                "{:<44} {:>16.6} {:<13} n={:<3} q1={:<14.6} median={:<14.6} q3={:.6}",
                d.name, value, d.unit, s.n, s.q1, s.median, s.q3
            )
            .expect("write to String");
        }
        out
    }

    /// The result line: one JSON object with exactly the keys the driver
    /// reads, every metric of `defs` with all the digits it was measured
    /// with.
    pub fn result_json(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, d) in defs.iter().enumerate() {
            let value = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.1));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program prints. The committed file must be the generated one.
    #[test]
    fn benchmark_json_matches_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((Higher.worse_by(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Lower.worse_by(100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((Lower.worse_by(2.0, 2.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        m.set_median("train_examples_per_s", &[3.0, 1.0, 2.0]);
        let defs = &END_TO_END[..2];
        assert_eq!(
            m.result_json(defs, true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"train_examples_per_s\": {\"value\": 2.0, \"unit\": \"examples/s\"}}}"
        );
        assert!(m.table(defs).contains("train_examples_per_s"));
        assert!(m.non_finite.is_empty());
        // A NaN loss is a failed run, not a crashed one.
        m.set("final_train_loss", f64::NAN);
        m.set_median("serve_p50_ms", &[]);
        assert_eq!(m.non_finite, ["final_train_loss", "serve_p50_ms"]);
        assert_eq!(m.get("final_train_loss"), Some(0.0));
    }
}
