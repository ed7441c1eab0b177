//! `paper_dense`: the paper's Figure 8 panel Dense(w=128,d=4) over
//! replicated Iris, in memory, plus Table 3's peak memory.
//!
//! One closed-loop client runs the five CPU approaches in a seeded
//! interleaved order, round after round, after an untimed pass that
//! checks every approach against the oracle. ModelJoin, TF C-API, UDF and
//! client-side TF infer 100k facts; ML-To-SQL infers 500, since it
//! materialises one join row per (tuple, edge). Runtimes are as
//! `Experiment::run` reports them. Peak memory is measured in a child
//! process (`peakmem`), because the counting allocator is process-wide.
//!
//! The traced run drives the same queries through the benchmark's own
//! calls into each crate instead, with a span around every call; each
//! approach's queries alternate between a live and an inert tracer, so
//! the two halves give the tracing overhead.

use crate::layers::Layers;
use crate::report::{self, median, ms, ratio, setup_repeated, ObsDelta, Outcome, Rng};
use crate::trace::{self, Alternating, Split, Tracer};
use crate::Args;
use indbml_core::{Approach, Experiment, ExperimentConfig, Workload};
use ml2sql::{ActivationDialect, GenOptions, SqlGenerator};
use mlruntime::Session;
use modeljoin::capi_op::execute_capi_join;
use modeljoin::operator::execute_model_join;
use modeljoin::SharedModel;
use pybridge::client::{run_client_inference, ClientConfig};
use pybridge::UdfHost;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tensor::Device;

pub const WORKLOAD: Workload = Workload::Dense { width: 128, depth: 4 };
pub const FACT_ROWS: usize = 100_000;
pub const ML2SQL_ROWS: usize = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// ModelJoin and C-API queries per round: they take about a tenth of
/// the others, so a round runs them this often to give their medians as
/// many samples for the same time.
const FAST_REPEATS: usize = 4;
/// Rounds run even when `--seconds` is shorter, so every median has
/// at least this many samples.
const MIN_ROUNDS: usize = 3;
/// The `bench::run_cell` agreement bound.
const ORACLE_TOLERANCE: f64 = 1e-3;

const APPROACHES: [Approach; 5] = [
    Approach::ModelJoinCpu,
    Approach::TfCapiCpu,
    Approach::Udf,
    Approach::TfPythonCpu,
    Approach::Ml2Sql,
];

fn metric_name(a: Approach) -> &'static str {
    match a {
        Approach::ModelJoinCpu => "modeljoin_ms",
        Approach::TfCapiCpu => "capi_ms",
        Approach::Udf => "udf_ms",
        Approach::TfPythonCpu => "client_ms",
        _ => "ml2sql_ms",
    }
}

pub fn experiment(seed: u64, rows: usize) -> Result<Experiment, String> {
    Experiment::build(ExperimentConfig { seed, ..ExperimentConfig::new(WORKLOAD, rows) })
        .map_err(|e| format!("experiment build: {e}"))
}

/// A ready workload: both experiments plus what the traced path calls
/// directly (C-API session, UDF host, generated ML-To-SQL text).
struct Setup {
    big: Experiment,
    small: Experiment,
    session: Arc<Session>,
    host: UdfHost,
    ml2sql: String,
}

impl Setup {
    fn build(seed: u64) -> Result<Setup, String> {
        let big = experiment(seed, FACT_ROWS)?;
        let small = experiment(seed, ML2SQL_ROWS)?;
        let session = Arc::new(Session::from_model("capi", &big.model, Device::cpu()));
        let host = UdfHost::spawn(&nn::serial::to_string(&big.model), Device::cpu())?;
        let inputs = input_cols(&small);
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let ml2sql = SqlGenerator::new(
            &small.meta,
            "model_table",
            "facts",
            "id",
            &refs,
            &[],
            GenOptions { opt: small.config().opt, dialect: ActivationDialect::Native },
        )
        .and_then(|g| g.generate())?;
        Ok(Setup { big, small, session, host, ml2sql })
    }

    fn experiment(&self, a: Approach) -> &Experiment {
        if a == Approach::Ml2Sql {
            &self.small
        } else {
            &self.big
        }
    }
}

fn input_cols(ex: &Experiment) -> Vec<String> {
    (0..ex.model.input_dim()).map(|i| format!("c{i}")).collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = setup_repeated(SETUPS, || Setup::build(args.seed));
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            out.record("setup", Err(e));
            return out;
        }
    };
    out.record("setup", Ok(()));

    let t0 = Instant::now();
    verify(&setup, &mut out);
    out.note("verify_s", t0.elapsed().as_secs_f64());

    let tracers = Alternating::new(args.trace);
    let mut rng = Rng::new(args.seed);
    let mut runtimes: HashMap<Approach, Vec<f64>> = HashMap::new();
    let mut traced = TracedStats::default();
    let start = Instant::now();
    let cpu0 = report::process_cpu_seconds();
    let obs0 = obs::snapshot();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < args.seconds {
        let mut order: Vec<Approach> = APPROACHES
            .iter()
            .flat_map(|&a| {
                let fast = matches!(a, Approach::ModelJoinCpu | Approach::TfCapiCpu);
                std::iter::repeat_n(a, if fast { FAST_REPEATS } else { 1 })
            })
            .collect();
        rng.shuffle(&mut order);
        for a in order {
            if args.trace {
                let n = traced.walls.get(&a).map_or(0, Split::count);
                let result = traced.query(&setup, tracers.pick(n as u64), a);
                out.record("traced_query", result);
                continue;
            }
            let ex = setup.experiment(a);
            let expected = ex.config().fact_rows;
            let result = ex.run(a, false).map_err(|e| e.to_string()).and_then(|o| {
                if o.rows == expected {
                    Ok(o.runtime)
                } else {
                    Err(format!("{a}: {} rows, expected {expected}", o.rows))
                }
            });
            out.record("query", result.as_ref().map(|_| ()).map_err(Clone::clone));
            if let Ok(runtime) = result {
                runtimes.entry(a).or_default().push(ms(runtime));
            }
        }
        round += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let delta = ObsDelta::between(obs0, obs::snapshot());
    let cpu_per_wall = (report::process_cpu_seconds() - cpu0) / wall;
    out.note("rounds", round as f64);

    if args.trace {
        tracers.live.dump("paper_dense", args.seed);
        traced.emit(&tracers.live, &delta, cpu_per_wall, &mut out);
        return out;
    }

    // ModelJoin, the paper's approach, is the main op; the other four
    // approaches share `other_latency_ms`. Every approach's own median is
    // a note.
    let medians: Vec<f64> = APPROACHES
        .iter()
        .map(|a| {
            let samples = runtimes.get(a).map(Vec::as_slice).unwrap_or(&[]);
            out.note(metric_name(*a), median(samples));
            out.note(format!("{}.samples", metric_name(*a)), samples.len() as f64);
            median(samples)
        })
        .collect();
    out.metric("setup_s", "s", setup_s);
    out.metric("latency_ms", "ms", medians[0]);
    out.metric("other_latency_ms", "ms", report::geomean(&medians[1..]));
    out.metric("peak_rss_mb", "MB", report::peak_rss_mb());
    drop(setup);
    let t0 = Instant::now();
    peak_memory(args.seed, &mut out);
    out.note("peak_s", t0.elapsed().as_secs_f64());
    out
}

/// `Experiment::oracle_predictions`, with `Model::predict_row` run once
/// per distinct input: replicated Iris repeats 150 rows, so this is the
/// same reference at a thousandth of the cost.
fn oracle(ex: &Experiment) -> Result<Vec<(i64, f64)>, String> {
    let err = |e: vector_engine::EngineError| format!("oracle: {e}");
    let dim = ex.model.input_dim();
    let mut memo: HashMap<Vec<u32>, f64> = HashMap::new();
    let mut out = Vec::with_capacity(ex.config().fact_rows);
    let mut scan = ex.engine.scan_table("facts").map_err(err)?;
    scan.open().map_err(err)?;
    while let Some(batch) = scan.next().map_err(err)? {
        let ids = batch.column(0).as_int().map_err(err)?;
        let cols = (0..dim)
            .map(|c| batch.column(1 + c).as_float())
            .collect::<vector_engine::Result<Vec<&[f64]>>>()
            .map_err(err)?;
        for (r, &id) in ids.iter().enumerate() {
            let x: Vec<f32> = cols.iter().map(|c| c[r] as f32).collect();
            let key = x.iter().map(|v| v.to_bits()).collect();
            let y = *memo.entry(key).or_insert_with(|| ex.model.predict_row(&x)[0] as f64);
            out.push((id, y));
        }
    }
    scan.close();
    out.sort_by_key(|r| r.0);
    Ok(out)
}

/// The untimed pass: every approach's predictions against the oracle.
fn verify(setup: &Setup, out: &mut Outcome) {
    let big = oracle(&setup.big);
    let small = oracle(&setup.small);
    for a in APPROACHES {
        let reference = if a == Approach::Ml2Sql { &small } else { &big };
        let result = reference.clone().and_then(|reference| {
            let got = setup.experiment(a).run(a, true).map_err(|e| format!("{a}: {e}"))?;
            let preds = got.predictions.unwrap_or_default();
            if preds.len() != reference.len() {
                return Err(format!(
                    "{a}: {} predictions, expected {}",
                    preds.len(),
                    reference.len()
                ));
            }
            for ((id, p), (oid, o)) in preds.iter().zip(&reference) {
                if id != oid || (p - o).abs() >= ORACLE_TOLERANCE {
                    return Err(format!("{a}: id {id} predicted {p}, oracle id {oid} {o}"));
                }
            }
            Ok(())
        });
        out.record("verify", result);
    }
}

/// Table 3 peak memory, measured by the `peakmem` binary built beside
/// this one.
fn peak_memory(seed: u64, out: &mut Outcome) {
    let result = (|| -> Result<HashMap<String, f64>, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("peakmem");
        let child = std::process::Command::new(&exe)
            .args(["--seed", &seed.to_string()])
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !child.status.success() {
            return Err(format!(
                "peakmem exited with {}: {}",
                child.status,
                String::from_utf8_lossy(&child.stderr)
            ));
        }
        Ok(String::from_utf8_lossy(&child.stdout)
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.trim().parse().ok()?)))
            .collect())
    })();
    for name in ["modeljoin_peak_mb", "ml2sql_peak_mb"] {
        let value = result.as_ref().map_err(Clone::clone).and_then(|m| {
            m.get(name).copied().filter(|v| *v > 0.0).ok_or(format!("peakmem reported no {name}"))
        });
        out.record("peak", value.as_ref().map(|_| ()).map_err(Clone::clone));
        out.note(name, value.unwrap_or(0.0));
    }
}

/// What the traced queries measured.
#[derive(Default)]
struct TracedStats {
    /// Wall time of each query per approach, ms, split by whether it ran
    /// traced.
    walls: HashMap<Approach, Split>,
    /// Request id of every query -> its approach.
    requests: HashMap<u64, Approach>,
    /// `obs` deltas summed per approach: `(queries, counter -> sum)`.
    obs: HashMap<Approach, (f64, HashMap<&'static str, f64>)>,
    wire_bytes: Vec<f64>,
    /// Largest share of a traced query's wall time no layer span
    /// accounts for.
    unaccounted: f64,
}

/// `obs` metrics summed per approach over its traced queries.
const OBS_SUMS: &[&str] = &[
    "exec.join.rows",
    "exec.agg.rows",
    "exec.scan.rows",
    "exec.join.time_us",
    "exec.agg.time_us",
    "exec.scan.time_us",
    "exec.project.time_us",
    "tensor.gemm.us",
    "tensor.pack.us",
    "tensor.gemm.flops",
];

impl TracedStats {
    fn query(&mut self, setup: &Setup, tracer: &Tracer, a: Approach) -> Result<(), String> {
        let req = self.requests.len() as u64 + 1;
        self.requests.insert(req, a);
        let before = obs::snapshot();
        let t0 = Instant::now();
        let rows = {
            let _root = tracer.request("query", req);
            match a {
                Approach::ModelJoinCpu => traced_modeljoin(setup, tracer),
                Approach::TfCapiCpu => traced_capi(setup, tracer),
                Approach::Udf => traced_udf(setup, tracer),
                Approach::TfPythonCpu => traced_client(setup, tracer).map(|(rows, wire)| {
                    self.wire_bytes.push(wire as f64);
                    rows
                }),
                _ => traced_ml2sql(setup, tracer),
            }
        };
        let wall = t0.elapsed();
        let d = ObsDelta::between(before, obs::snapshot());
        let entry = self.obs.entry(a).or_default();
        entry.0 += 1.0;
        for &name in OBS_SUMS {
            let v = if name.ends_with("us") { d.hist_sum(name) } else { d.counter(name) };
            *entry.1.entry(name).or_default() += v;
        }
        self.walls.entry(a).or_default().push(tracer, ms(wall));
        self.unaccounted = self.unaccounted.max(tracer.unaccounted_share(req, wall));
        let expected = setup.experiment(a).config().fact_rows;
        match rows {
            Ok(n) if n == expected => Ok(()),
            Ok(n) => Err(format!("traced {a}: {n} rows, expected {expected}")),
            Err(e) => Err(format!("traced {a}: {e}")),
        }
    }

    fn emit(self, tracer: &Tracer, delta: &ObsDelta, cpu_per_wall: f64, out: &mut Outcome) {
        let spans = tracer.spans();
        let per_request = trace::breakdown(&spans);
        // Median over one approach's traced queries of the self time a
        // span name accumulated in each, µs.
        let span_us = |a: Approach, name: &str| {
            let v: Vec<f64> = per_request
                .iter()
                .filter(|b| self.requests.get(&b.root.request) == Some(&a))
                .map(|b| b.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3)
                .collect();
            median(&v)
        };
        let per_query = |a: Approach, name: &str| {
            self.obs
                .get(&a)
                .map_or(0.0, |(n, sums)| ratio(sums.get(name).copied().unwrap_or(0.0), *n))
        };
        let mut l = Layers::default();
        let ops: f64 = self.walls.values().map(|s| s.count() as f64).sum();
        l.set_common(delta, ops, cpu_per_wall);
        let m = Approach::Ml2Sql;
        l.set("vector-engine.plan_us", span_us(m, "vector-engine.plan"));
        l.set("vector-engine.exec_us", span_us(m, "vector-engine.execute_plan"));
        let tuples = ML2SQL_ROWS as f64;
        l.set("vector-engine.join_rows", per_query(m, "exec.join.rows") / tuples);
        l.set("vector-engine.agg_rows", per_query(m, "exec.agg.rows") / tuples);
        l.set("vector-engine.scan_rows", per_query(m, "exec.scan.rows") / tuples);
        l.set("vector-engine.join_us", per_query(m, "exec.join.time_us"));
        l.set("vector-engine.agg_us", per_query(m, "exec.agg.time_us"));
        l.set("vector-engine.scan_us", per_query(m, "exec.scan.time_us"));
        l.set("vector-engine.project_us", per_query(m, "exec.project.time_us"));
        l.set("modeljoin.build_us", span_us(Approach::ModelJoinCpu, "modeljoin.build"));
        l.set("modeljoin.probe_us", span_us(Approach::ModelJoinCpu, "modeljoin.probe"));
        // GEMM figures over the two approaches whose kernels are tensor's.
        let gemm = [Approach::ModelJoinCpu, Approach::TfCapiCpu];
        let sum = |name: &str| gemm.iter().map(|&a| per_query(a, name)).sum::<f64>() / 2.0;
        l.set("tensor.gemm_us", sum("tensor.gemm.us"));
        l.set("tensor.pack_us", sum("tensor.pack.us"));
        l.set("tensor.gflops", ratio(sum("tensor.gemm.flops"), sum("tensor.gemm.us") * 1e3));
        l.set(
            "mlruntime.capi_join_us",
            span_us(Approach::TfCapiCpu, "mlruntime.execute_capi_join"),
        );
        l.set("pybridge.udf_invoke_us", span_us(Approach::Udf, "pybridge.udf_invoke"));
        l.set(
            "pybridge.client_us",
            span_us(Approach::TfPythonCpu, "pybridge.run_client_inference"),
        );
        l.set("pybridge.wire_bytes", median(&self.wire_bytes));
        // Tracing overhead over a round of all five approaches; each
        // approach's own share is a note.
        for (a, s) in &self.walls {
            out.note(format!("trace.overhead_share.{}", metric_name(*a)), trace::overhead([s]));
        }
        l.set_trace(trace::overhead(self.walls.values()), self.unaccounted, out);
        l.emit(out);
    }
}

fn traced_modeljoin(s: &Setup, t: &Tracer) -> vector_engine::Result<usize> {
    let ex = &s.big;
    let cfg = &ex.config().engine;
    let shared = SharedModel::new(
        ex.engine.table("model_table")?,
        ex.meta.clone(),
        ex.config().opt.layout(),
        Device::cpu(),
        cfg.vector_size,
        cfg.parallelism,
    );
    {
        let _s = t.span("modeljoin.build");
        shared.get()?;
    }
    let inputs = input_cols(ex);
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let _s = t.span("modeljoin.probe");
    let batches =
        execute_model_join(&ex.engine, "facts", &refs, &["id"], &shared, cfg.parallelism)?;
    Ok(batches.iter().map(|b| b.num_rows()).sum())
}

fn traced_capi(s: &Setup, t: &Tracer) -> vector_engine::Result<usize> {
    let ex = &s.big;
    let inputs = input_cols(ex);
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let _s = t.span("mlruntime.execute_capi_join");
    let batches = execute_capi_join(
        &ex.engine,
        "facts",
        &refs,
        &["id"],
        &s.session,
        ex.config().engine.parallelism,
    )?;
    Ok(batches.iter().map(|b| b.num_rows()).sum())
}

fn traced_udf(s: &Setup, t: &Tracer) -> vector_engine::Result<usize> {
    let ex = &s.big;
    let dim = ex.model.input_dim();
    let mut scan = ex.engine.scan_table("facts")?;
    scan.open()?;
    let mut rows = 0;
    loop {
        let batch = {
            let _s = t.span("vector-engine.scan");
            scan.next()?
        };
        let Some(batch) = batch else { break };
        if batch.num_rows() == 0 {
            continue;
        }
        let vec_rows = {
            let _s = t.span("bench.udf_rows");
            // The ids are copied out as `run_udf` does, to pair them with
            // the predictions.
            std::hint::black_box(batch.column(0).as_int()?.to_vec());
            let mut vec_rows = Vec::with_capacity(batch.num_rows());
            for r in 0..batch.num_rows() {
                let mut row = Vec::with_capacity(dim);
                for c in 0..dim {
                    row.push(batch.column(1 + c).value(r).as_f64()?);
                }
                vec_rows.push(row);
            }
            vec_rows
        };
        let _s = t.span("pybridge.udf_invoke");
        s.host.invoke(&vec_rows).map_err(vector_engine::EngineError::Execution)?;
        rows += vec_rows.len();
    }
    scan.close();
    Ok(rows)
}

/// Returns (rows, wire bytes).
fn traced_client(s: &Setup, t: &Tracer) -> vector_engine::Result<(usize, usize)> {
    let ex = &s.big;
    let dim = ex.model.input_dim();
    // The export keeps the ids, as `run_client`'s does.
    let (_ids, rows) = {
        let _s = t.span("vector-engine.export");
        let mut scan = ex.engine.scan_table("facts")?;
        scan.open()?;
        let (mut ids, mut rows): (Vec<i64>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
        while let Some(batch) = scan.next()? {
            ids.extend_from_slice(batch.column(0).as_int()?);
            let cols = (0..dim)
                .map(|c| batch.column(1 + c).as_float())
                .collect::<vector_engine::Result<Vec<&[f64]>>>()?;
            for r in 0..batch.num_rows() {
                rows.push(cols.iter().map(|c| c[r]).collect());
            }
        }
        scan.close();
        (ids, rows)
    };
    let _s = t.span("pybridge.run_client_inference");
    let (_, stats) = run_client_inference(&rows, dim, &s.session, &ClientConfig::default())
        .map_err(vector_engine::EngineError::Execution)?;
    Ok((rows.len(), stats.wire_bytes))
}

fn traced_ml2sql(s: &Setup, t: &Tracer) -> vector_engine::Result<usize> {
    let engine = &s.small.engine;
    let plan = {
        let _s = t.span("vector-engine.plan");
        engine.plan(&s.ml2sql)?
    };
    let _s = t.span("vector-engine.execute_plan");
    Ok(engine.execute_plan(&plan)?.num_rows())
}
