//! Table 3 peak memory for the benchmark's `paper_dense` workload, in a
//! process of its own: the counting allocator is process-wide, so no
//! timed query may run beside it.
//!
//! ```text
//! peakmem --seed <n>
//! ```
//!
//! Prints `modeljoin_peak_mb <v>` and `ml2sql_peak_mb <v>`: the median
//! over three fresh experiments of the peak tracked bytes above the
//! loaded tables during one query, in MiB.

use indbml_core::memtrack::{self, TrackingAllocator};
use indbml_core::{Approach, Experiment, ExperimentConfig, Workload};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Must match `paper_dense`'s workload and sizes.
const WORKLOAD: Workload = Workload::Dense { width: 128, depth: 4 };
const REPEATS: usize = 3;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let seed = match argv.as_slice() {
        [_, flag, v] if flag == "--seed" => v.parse().expect("--seed takes an integer"),
        _ => {
            eprintln!("usage: peakmem --seed <n>");
            std::process::exit(2);
        }
    };
    for (name, approach, rows) in [
        ("modeljoin_peak_mb", Approach::ModelJoinCpu, 100_000),
        ("ml2sql_peak_mb", Approach::Ml2Sql, 500),
    ] {
        let mut peaks: Vec<usize> = (0..REPEATS)
            .map(|_| {
                let ex = Experiment::build(ExperimentConfig {
                    seed,
                    ..ExperimentConfig::new(WORKLOAD, rows)
                })
                .expect("experiment build");
                memtrack::reset_peak();
                let outcome = ex.run(approach, false).expect("query");
                assert_eq!(outcome.rows, rows, "{approach} row count");
                memtrack::peak_bytes()
            })
            .collect();
        peaks.sort_unstable();
        println!("{name} {}", peaks[REPEATS / 2] as f64 / (1024.0 * 1024.0));
    }
}
