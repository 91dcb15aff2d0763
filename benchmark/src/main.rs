//! The repo's benchmark: one command runs one workload from one seed
//! through the fixed scenario and prints every metric by name with unit,
//! sample count and quartiles, the operations attempted and failed, and
//! whether outputs were correct. See `README.md`.

mod clock;
mod host;
mod layers;
mod replay;
mod report;
mod scenario;
mod selfcheck;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{END_TO_END, PER_LAYER};
use scenario::{Plan, Run};
use workloads::Workload;

const USAGE: &str = "usage: kge-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]
       kge-benchmark --selfcheck <n> [--workload <name>] [--seconds <n>]
       kge-benchmark --emit-benchmark-json
workloads: replica_dense replica_combined sharded_prefetch eval_serve";

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 24;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    selfcheck: Option<usize>,
    emit_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        selfcheck: None,
        emit_benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--emit-benchmark-json" {
            args.emit_benchmark_json = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    workloads::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            "--selfcheck" => args.selfcheck = Some(number()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One workload, one seed, the whole scenario. `None` when a step left
/// nothing to go on with (no model, no snapshot): there is no result.
fn run_one(w: &'static Workload, seed: u64, plan: Plan, out_dir: &std::path::Path) -> Option<Run> {
    let jiffies0 = host::cpu_jiffies();
    let started = std::time::Instant::now();
    let mut run = Run::new(w, seed, plan);
    let root = run.rec.enter("bench.run");
    let mut scenario = scenario::run_scenario(&mut run)?;
    println!(
        "open loop, rate {} queries per ref second, window {}, {} replays of {} queries",
        w.rate_qps,
        serve::WINDOW,
        plan.replays,
        w.replay_queries
    );
    if plan.trace {
        layers::measure(&mut run, &mut scenario, jiffies0);
    }
    run.rec.exit(root, &[("operations", run.attempted)]);
    if plan.trace {
        write_trace(&run, out_dir);
    }
    eprintln!(
        "run took {:.3} s of wall time",
        started.elapsed().as_secs_f64()
    );
    Some(run)
}

/// The traced run's artefacts: Chrome trace-event JSON and the per-layer
/// table of the spans (calls, CPU, self CPU, counts).
fn write_trace(run: &Run, out_dir: &std::path::Path) {
    let stem = format!("{}-seed{}", run.w.name, run.seed);
    let path = out_dir.join(format!("{stem}.trace.json"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, run.rec.chrome_json()));
    match written {
        Ok(()) => println!(
            "trace: {} spans -> {}",
            run.rec.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
    println!(
        "{:<40} {:>7} {:>12} {:>12} {:>12}  counts",
        "span", "calls", "cpu_s", "self_cpu_s", "wall_s"
    );
    for row in run.rec.layer_table() {
        let counts: Vec<String> = row.counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
        println!(
            "{:<40} {:>7} {:>12.6} {:>12.6} {:>12.6}  {}",
            row.name,
            row.calls,
            row.cpu_s,
            row.self_cpu_s,
            row.wall_s,
            counts.join(" ")
        );
    }
    if run.rec.dropped > 0 {
        println!("spans dropped (buffer full): {}", run.rec.dropped);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = args.selfcheck {
        return selfcheck::run(n, args.workload, args.seconds);
    }
    let Some(w) = args.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    // No rayon workers beside the rank threads: process CPU time is then
    // the work `train()` did, nothing else.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    println!(
        "workload {} seed {} seconds {} trace {}: {}",
        w.name, args.seed, args.seconds, args.trace as u8, w.why
    );
    let plan = Plan::new(args.seconds, args.trace);
    let Some(run) = run_one(w, args.seed, plan, &args.out_dir) else {
        eprintln!("the scenario could not complete; no result");
        return ExitCode::FAILURE;
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", run.metrics.table(defs));
    for e in &run.errors {
        println!("error: {e}");
    }
    for name in &run.metrics.non_finite {
        println!("error: metric {name} is not finite");
    }
    let correct = run.errors.is_empty() && run.failed == 0 && run.metrics.non_finite.is_empty();
    println!(
        "operations attempted {} failed {} outputs correct {}",
        run.attempted, run.failed, correct
    );
    println!("\"claim\": null");
    println!(
        "{}",
        run.metrics
            .result_json(defs, correct, run.attempted.max(1), run.failed)
    );
    ExitCode::SUCCESS
}
