//! Table printing and JSON-lines output for experiment results.

use crate::harness::RunResult;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// Print results in the paper's table layout (one row per method × nodes).
pub fn print_table(title: &str, rows: &[RunResult]) {
    println!("\n== {title} ==");
    println!(
        "{:<18} {:>5} {:>10} {:>6} {:>8} {:>8} {:>12} {:>8}",
        "method", "nodes", "TT(s)", "N", "TCA(%)", "MRR", "epoch(s)", "AR-frac"
    );
    for r in rows {
        println!(
            "{:<18} {:>5} {:>10.2} {:>6} {:>8.2} {:>8.4} {:>12.3} {:>8.2}",
            r.method,
            r.nodes,
            r.tt_hours * 3600.0,
            r.epochs,
            r.tca,
            r.mrr,
            r.epoch_seconds,
            r.allreduce_fraction
        );
    }
}

/// Append results as JSON lines to `path`, one record per row, without
/// the bulky per-epoch trace (`repro` writes that to `trace.jsonl` beside
/// it, through [`write_trace_json`]).
pub fn write_json(path: &Path, experiment: &str, rows: &[RunResult]) -> io::Result<()> {
    append_lines(
        path,
        rows.iter().map(|r| {
            Record::new()
                .str("experiment", experiment)
                .str("dataset", &r.dataset)
                .str("method", &r.method)
                .uint("nodes", r.nodes)
                .num("tt_hours", r.tt_hours)
                .uint("epochs", r.epochs)
                .num("tca", r.tca)
                .num("mrr", r.mrr)
                .num("epoch_seconds", r.epoch_seconds)
                .num("allreduce_fraction", r.allreduce_fraction)
                .finish()
        }),
    )
}

/// Write per-epoch series (for figures 2/3/4/6a/7a) as JSON lines:
/// one record per epoch of each run.
pub fn write_trace_json(path: &Path, experiment: &str, rows: &[RunResult]) -> io::Result<()> {
    append_lines(
        path,
        rows.iter().flat_map(|r| {
            r.report.trace.iter().map(|t| {
                Record::new()
                    .str("experiment", experiment)
                    .str("method", &r.method)
                    .uint("nodes", r.nodes)
                    .uint("epoch", t.epoch)
                    .num("sim_seconds", t.sim_seconds)
                    .num("valid_acc", t.valid_acc)
                    .num("train_loss", t.train_loss)
                    .num("nonzero_rows", t.mean_nonzero_rows)
                    .num("rows_sent", t.mean_rows_sent)
                    .num("rs_sparsity", t.rs_sparsity)
                    .str("comm", &format!("{:?}", t.comm))
                    .finish()
            })
        }),
    )
}

fn append_lines(path: &Path, lines: impl Iterator<Item = String>) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    Ok(())
}

/// One flat JSON object, keys in push order.
struct Record(String);

impl Record {
    fn new() -> Self {
        Record(String::from("{"))
    }

    fn key(&mut self, key: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        escape_into(&mut self.0, key);
        self.0.push(':');
    }

    fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        escape_into(&mut self.0, v);
        self
    }

    fn uint(mut self, key: &str, v: usize) -> Self {
        self.key(key);
        write!(self.0, "{v}").unwrap();
        self
    }

    /// Non-finite values are `null`. An integral value below 1e15 in
    /// magnitude keeps one decimal (`3.0`); every other value is Rust's
    /// shortest round-trip form, which prints no exponent, so an integral
    /// value from 1e15 up has no decimal point (`1000000000000000`).
    fn num(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        if !v.is_finite() {
            self.0.push_str("null");
        } else if v == v.trunc() && v.abs() < 1e15 {
            write!(self.0, "{v:.1}").unwrap();
        } else {
            write!(self.0, "{v}").unwrap();
        }
        self
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Quote `s`: `"`, `\`, newline, carriage return and tab get their short
/// escapes, other characters below 0x20 `\u00XX`, everything else is
/// written as it is.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{fb15k_bench, run_one, BenchScale};
    use kge_train::StrategyConfig;

    /// The bytes `repro` has always written, for numbers and strings at
    /// the edges of the format.
    #[test]
    fn record_bytes_are_pinned() {
        let floats = Record::new()
            .num("zero", 0.0)
            .num("neg_zero", -0.0)
            .num("three", 3.0)
            .num("big", 1e15)
            .num("tiny", 1e-7)
            .num("tenth", 0.1)
            .num("max", f64::MAX)
            .num("nan", f64::NAN)
            .num("inf", f64::INFINITY)
            .num("neg_inf", f64::NEG_INFINITY)
            .uint("n", 7)
            .finish();
        let expected = concat!(
            r#"{"zero":0.0,"neg_zero":-0.0,"three":3.0,"big":1000000000000000,"#,
            r#""tiny":0.0000001,"tenth":0.1,"max":17976931348623157"#,
            "0000000000000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000000000000",
            r#","nan":null,"inf":null,"neg_inf":null,"n":7}"#,
        );
        assert_eq!(floats, expected);

        let strings = Record::new()
            .str("quote", "a\"b")
            .str("backslash", "a\\b")
            .str("newline", "a\nb")
            .str("control", "a\u{1}b")
            .str("other", "\r\t\u{1f}")
            .str("non_ascii", "é→∞ 🦀")
            .str("empty", "")
            .finish();
        assert_eq!(
            strings,
            r#"{"quote":"a\"b","backslash":"a\\b","newline":"a\nb","control":"a\u0001b","#
                .to_owned()
                + r#""other":"\r\t\u001f","non_ascii":"é→∞ 🦀","empty":""}"#
        );
    }

    #[test]
    fn json_output_roundtrips() {
        let s = BenchScale::quick();
        let (ds, batch) = fb15k_bench(&s);
        let mut small = s;
        small.max_epochs = 2;
        let r = run_one(
            &ds,
            batch,
            1,
            4,
            StrategyConfig::baseline_allreduce(1),
            "allreduce",
            &small,
        );
        let dir = std::env::temp_dir().join(format!("kge-bench-test-{}", std::process::id()));
        let path = dir.join("results.jsonl");
        write_json(&path, "test-exp", std::slice::from_ref(&r)).unwrap();
        write_trace_json(&dir.join("trace.jsonl"), "test-exp", std::slice::from_ref(&r)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let prefix = format!(
            r#"{{"experiment":"test-exp","dataset":"{}","method":"allreduce","nodes":1,"tt_hours":"#,
            r.dataset
        );
        let line = text.lines().next().unwrap();
        assert!(line.starts_with(&prefix), "{line}");
        print_table("smoke", &[r]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
