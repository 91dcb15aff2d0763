//! `--selfcheck N`: the benchmark measured against itself. N alternating
//! A/A pairs of runs per workload, each run a fresh process as the driver
//! would start it; both sides' medians, their difference and the bound per
//! end-to-end metric. Fails if any pair of medians differs by more than
//! the bound, or if a deterministic metric differs at all between the two
//! runs of one seed. Each side's spread over its seeds (interquartile
//! range over median) is printed beside them, not held to the bound.

use std::process::{Command, ExitCode};

use crate::report::{MetricDef, END_TO_END};
use crate::stats::{iqr_share, median_of};
use crate::workloads::{Workload, ALL};

/// Metrics that come off the simulated clock or the seeded arithmetic:
/// the two runs of one seed must agree to the last bit.
const DETERMINISTIC: &[&str] = &["sim_epoch_s", "final_train_loss", "test_mrr"];

/// The value of `name` in a result line printed by `Metrics::result_json`.
pub fn metric_in(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// One fresh-process run; the result line if the run succeeded, was
/// correct and failed no operation.
fn run_once(w: &Workload, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() {
        return Err(format!("{} seed {seed}: exit {}", w.name, out.status));
    }
    if !line.contains("\"correct\": true") || !line.contains("\"failed\": 0,") {
        return Err(format!("{} seed {seed}: {line}", w.name));
    }
    Ok(line)
}

struct Sides {
    a: Vec<f64>,
    b: Vec<f64>,
}

fn check_workload(w: &Workload, n: usize, seconds: u64) -> Result<bool, String> {
    let mut sides: Vec<Sides> = END_TO_END
        .iter()
        .map(|_| Sides {
            a: Vec::new(),
            b: Vec::new(),
        })
        .collect();
    let mut ok = true;
    for seed in 1..=n as u64 {
        // Alternate which side runs first.
        let first = run_once(w, seed, seconds)?;
        let second = run_once(w, seed, seconds)?;
        let (a, b) = if seed % 2 == 1 {
            (first, second)
        } else {
            (second, first)
        };
        for (d, s) in END_TO_END.iter().zip(&mut sides) {
            let va = metric_in(&a, d.name).ok_or_else(|| format!("{} missing", d.name))?;
            let vb = metric_in(&b, d.name).ok_or_else(|| format!("{} missing", d.name))?;
            if DETERMINISTIC.contains(&d.name) && va.to_bits() != vb.to_bits() {
                println!(
                    "{} seed {seed}: {} differs: {va:?} vs {vb:?}",
                    w.name, d.name
                );
                ok = false;
            }
            s.a.push(va);
            s.b.push(vb);
        }
        eprintln!("selfcheck {} seed {seed}/{n} done", w.name);
    }
    println!(
        "| {:<17} | {:<22} | {:>14} | {:>14} | {:>8} | {:>8} | {:>8} | {:>6} | {:<4} |",
        "workload",
        "metric",
        "median A",
        "median B",
        "B worse",
        "spread A",
        "spread B",
        "bound",
        "ok"
    );
    for (d, s) in END_TO_END.iter().zip(&sides) {
        ok &= row(w, d, s);
    }
    Ok(ok)
}

fn row(w: &Workload, d: &MetricDef, s: &Sides) -> bool {
    let (ma, mb) = (median_of(&s.a), median_of(&s.b));
    // Either side may be the parent: neither may be worse than the other
    // by more than the bound.
    let worse = d.better.worse_by(ma, mb).max(d.better.worse_by(mb, ma));
    let (sa, sb) = (iqr_share(&s.a), iqr_share(&s.b));
    let ok = worse <= d.bound;
    println!(
        "| {:<17} | {:<22} | {:>14.6} | {:>14.6} | {:>7.2}% | {:>7.2}% | {:>7.2}% | {:>5.0}% | {:<4} |",
        w.name,
        d.name,
        ma,
        mb,
        d.better.worse_by(ma, mb) * 100.0,
        sa * 100.0,
        sb * 100.0,
        d.bound * 100.0,
        if ok { "yes" } else { "NO" }
    );
    ok
}

pub fn run(n: usize, only: Option<&'static Workload>, seconds: u64) -> ExitCode {
    if n < 5 {
        eprintln!("--selfcheck needs at least 5 pairs of runs");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for w in ALL.iter().filter(|w| only.is_none_or(|o| o.name == w.name)) {
        match check_workload(w, n, seconds) {
            Ok(pass) => ok &= pass,
            Err(e) => {
                println!("selfcheck failed: {e}");
                ok = false;
            }
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    println!("\"claim\": null");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"test_mrr\": {\"value\": 7.5e-2, \"unit\": \"mrr\"}}}";
        assert_eq!(metric_in(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(line, "test_mrr"), Some(0.075));
        assert_eq!(metric_in(line, "peak_rss_mb"), None);
    }
}
