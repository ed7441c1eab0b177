//! The repository benchmark: the paper's batch inference, mixed serving
//! and durable sharded writes, at the shipped engine defaults.
//!
//! ```text
//! python3 perfbench/run.py --workload <paper_dense|serve_mixed|durable_shards> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds this package and runs the binary. With `--trace 0` the
//! last line of standard output is a JSON object with the end-to-end
//! metrics (the same four on every workload); with `--trace 1` the run
//! records spans around the benchmark's calls into each crate and reports
//! the per-layer metrics instead. Earlier lines carry the environment
//! block and the per-phase op counts. Any failed output check makes
//! `correct` false and the exit code 1. See `perfbench/LAYERS.md` for
//! what each metric is predicted to move.

mod durable_shards;
mod layers;
mod paper_dense;
mod report;
mod serve_mixed;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// Where runs leave span dumps and the durable workload's data
/// directories, relative to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench_out";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: Duration::from_secs(10), trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "paper_dense" => paper_dense::run,
        "serve_mixed" => serve_mixed::run,
        "durable_shards" => durable_shards::run,
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (paper_dense, serve_mixed, durable_shards)"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", report::environment_json());
    let outcome = run(&args);
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report::detail_json(&args.workload, &outcome));
    println!("{}", report::result_json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
