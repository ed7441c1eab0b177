//! The per-layer metric catalog of the traced run. Every workload reports
//! every entry: a layer a workload bypasses reads 0, which is the
//! "no change" prediction `LAYERS.md` records for it.

use crate::report::{ratio, ObsDelta, Outcome};
use std::collections::HashMap;

/// `(name, unit)` of every per-layer metric, in report order.
pub const CATALOG: &[(&str, &str)] = &[
    ("vector-engine.plan_us", "us"),
    ("vector-engine.exec_us", "us"),
    ("vector-engine.join_rows", "count"),
    ("vector-engine.agg_rows", "count"),
    ("vector-engine.scan_rows", "count"),
    ("vector-engine.join_us", "us"),
    ("vector-engine.agg_us", "us"),
    ("vector-engine.scan_us", "us"),
    ("vector-engine.project_us", "us"),
    ("modeljoin.build_us", "us"),
    ("modeljoin.probe_us", "us"),
    ("tensor.gemm_us", "us"),
    ("tensor.pack_us", "us"),
    ("tensor.gflops", "GFLOP/s"),
    ("mlruntime.capi_join_us", "us"),
    ("pybridge.udf_invoke_us", "us"),
    ("pybridge.client_us", "us"),
    ("pybridge.wire_bytes", "B"),
    ("sched.cpu_per_wall", "ratio"),
    ("sched.tasks_query", "count"),
    ("sched.tasks_kernel", "count"),
    ("sched.steals", "count"),
    ("sched.queue_wait_p99_us", "us"),
    ("sched.task_serve_us", "us"),
    ("sched.task_query_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.batch_rows_mean", "count"),
    ("serve.flush_fires", "count"),
    ("serve.rejected", "count"),
    ("modeljoin.cache_hit_ratio", "ratio"),
    ("vector-engine.plan_cache_hit_ratio", "ratio"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.evictions_per_point", "count"),
    ("storage.bypass_reads", "count"),
    ("storage.wal_bytes_per_row", "B"),
    ("storage.fsyncs_per_txn", "count"),
    ("storage.pages_written_per_txn", "count"),
    ("shard.insert_us", "us"),
    ("shard.commit_us", "us"),
    ("shard.single_route_share", "ratio"),
    ("vector-engine.scan_rows_per_point", "count"),
    ("storage.recovery_records", "count"),
    ("storage.checkpoint_us", "us"),
    ("load.gen_late_p99_us", "us"),
    ("load.gen_late_max_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.unaccounted_share", "ratio"),
];

/// Per-layer values one traced run measured; anything unset reads 0.
#[derive(Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(CATALOG.iter().any(|(n, _)| *n == name), "{name} not in catalog");
        self.0.insert(name, value);
    }

    /// The layer metrics every workload reads from the same `obs`
    /// counters over its whole traced phase: kernel and scheduler
    /// activity per op, cache hit ratios, serve-layer queue and batch
    /// figures. Storage
    /// and per-path figures are set by the workloads that own them.
    pub fn set_common(&mut self, d: &ObsDelta, ops: f64, cpu_per_wall: f64) {
        self.set("sched.cpu_per_wall", cpu_per_wall);
        self.set("sched.tasks_query", ratio(d.counter("sched.tasks.query"), ops));
        self.set("sched.tasks_kernel", ratio(d.counter("sched.tasks.kernel"), ops));
        self.set("sched.steals", ratio(d.counter("sched.steals"), ops));
        self.set("tensor.gemm_us", ratio(d.hist_sum("tensor.gemm.us"), ops));
        self.set("tensor.pack_us", ratio(d.hist_sum("tensor.pack.us"), ops));
        self.set(
            "tensor.gflops",
            ratio(d.counter("tensor.gemm.flops"), d.hist_sum("tensor.gemm.us") * 1e3),
        );
        self.set("sched.queue_wait_p99_us", d.hist_quantile("sched.queue.wait_us", 0.99));
        self.set(
            "sched.task_serve_us",
            ratio(d.hist_sum("sched.task.serve.us"), d.hist_count("sched.task.serve.us")),
        );
        self.set(
            "sched.task_query_us",
            ratio(d.hist_sum("sched.task.query.us"), d.hist_count("sched.task.query.us")),
        );
        self.set("serve.server_p50_us", d.hist_quantile("serve.request.e2e_us", 0.5));
        self.set("serve.server_p99_us", d.hist_quantile("serve.request.e2e_us", 0.99));
        self.set(
            "serve.batch_rows_mean",
            ratio(d.hist_sum("serve.batch.rows"), d.hist_count("serve.batch.rows")),
        );
        self.set("serve.flush_fires", d.counter("serve.flush.deadline_fires"));
        self.set("serve.rejected", d.counter("serve.rejected"));
        let hit_ratio = |hits: &str, misses: &str| {
            let h = d.counter(hits);
            ratio(h, h + d.counter(misses))
        };
        self.set(
            "modeljoin.cache_hit_ratio",
            hit_ratio("modeljoin.cache.hits", "modeljoin.cache.misses"),
        );
        self.set(
            "vector-engine.plan_cache_hit_ratio",
            hit_ratio("exec.plan_cache.hits", "exec.plan_cache.misses"),
        );
        self.set("storage.pool_hit_ratio", hit_ratio("storage.pool.hits", "storage.pool.misses"));
        self.set("storage.bypass_reads", d.counter("storage.pool.bypass_reads"));
    }

    /// Tracing overhead (traced / untraced median - 1) and the worst
    /// share of a traced op's wall time its spans left unaccounted. The
    /// spans must account for the wall time within 5%, or the run fails.
    pub fn set_trace(&mut self, overhead: f64, unaccounted: f64, out: &mut Outcome) {
        self.set("trace.overhead_share", overhead);
        self.set("trace.unaccounted_share", unaccounted);
        if unaccounted > 0.05 {
            let msg = format!("span self times miss the wall time by {:.1}%", unaccounted * 100.0);
            out.record("trace_accounting", Err(msg));
        }
    }

    /// Push every catalog entry onto the outcome.
    pub fn emit(self, outcome: &mut Outcome) {
        for &(name, unit) in CATALOG {
            outcome.metric(name, unit, self.0.get(name).copied().unwrap_or(0.0));
        }
    }
}
