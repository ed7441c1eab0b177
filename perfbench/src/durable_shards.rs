//! `durable_shards`: a persistent two-shard `ShardedEngine`, with
//! transactional writes beside routed ML-To-SQL point inference over
//! paged data.
//!
//! 2^19 facts with ids in a shuffled permutation (so SMA pruning cannot
//! skip blocks) are sharded on `id`; a Dense(w=8,d=2) model table is
//! replicated to each shard. The buffer pool holds 256 pages per shard,
//! about 0.4x of each shard's data, so point scans miss the pool. One
//! client alternates a transaction (`BEGIN`, 16 single-row `INSERT`s,
//! `COMMIT`, fsync at commit) with a point inference on a seeded key.
//! Then the engine is dropped and reopened: the row count must equal the
//! bulk rows plus every acknowledged insert, and every point key must
//! return its pre-restart prediction. Recovery time and bytes on disk
//! are measured on a second store in a fixed state (bulk load,
//! checkpoint, 150 committed transactions), so they do not depend on how
//! many transactions the timed phase fit in.

use crate::layers::Layers;
use crate::report::{
    self, median, ms, quantile, ratio, setup_repeated, us, ObsDelta, Outcome, Rng,
};
use crate::trace::{self, Alternating, Split, Tracer};
use crate::Args;
use ml2sql::{ActivationDialect, GenOptions, OptLevel, SqlGenerator};
use model_repr::{load_into_engine, Layout, ModelMeta};
use nn::Model;
use shard::ShardedEngine;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vector_engine::{ColumnVector, EngineConfig, QueryResult};

const FACT_ROWS: usize = 1 << 19;
const SHARDS: usize = 2;
const POOL_PAGES: usize = 256;
const ROWS_PER_TXN: usize = 16;
/// Distinct point keys; the seeded order cycles through them.
const POINT_KEYS: usize = 32;
/// Transactions committed after the checkpoint of the store whose
/// reopen is timed: a fixed amount of recovery work whatever the run's
/// speed.
const RECOVERY_TXNS: usize = 150;
const SETUPS: usize = 9;
const REOPENS: usize = 11;
/// Steps run even when `--seconds` is shorter.
const MIN_STEPS: usize = 20;
const MODEL_TABLE: &str = "model_table";
const POINT_TOLERANCE: f64 = 1e-3;

/// `id` values as a pseudorandom permutation of `0..n` (odd multiplier,
/// `n` a power of two), as `shard_sweep` builds them.
fn permuted_id(row: usize) -> i64 {
    ((row as u64).wrapping_mul(0x9e37_79b1) % FACT_ROWS as u64) as i64
}

fn engine_config(dir: &Path) -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        buffer_pool_pages: POOL_PAGES,
        ..EngineConfig::default()
    }
}

/// A persistent engine plus its data directory, which is removed when
/// this is dropped.
struct Store {
    engine: Option<ShardedEngine>,
    dir: PathBuf,
    checkpoint_us: f64,
}

impl Drop for Store {
    fn drop(&mut self) {
        drop(self.engine.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Store {
    fn engine(&self) -> &ShardedEngine {
        self.engine.as_ref().expect("engine open")
    }

    fn build(dir: PathBuf, model: &Model, inputs: &[Vec<f64>]) -> Result<Store, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut store = Store { engine: None, dir, checkpoint_us: 0.0 };
        let e = ShardedEngine::open(engine_config(&store.dir)).map_err(|e| e.to_string())?;
        let err = |e: vector_engine::EngineError| e.to_string();
        let mut ddl = String::from("CREATE TABLE facts (id INT");
        for c in 0..inputs.len() {
            ddl.push_str(&format!(", c{c} FLOAT"));
        }
        ddl.push(')');
        e.execute(&ddl).map_err(err)?;
        e.declare_sharded("facts", "id").map_err(err)?;
        e.declare_unique("facts", "id").map_err(err)?;
        let mut columns = vec![ColumnVector::Int((0..FACT_ROWS).map(permuted_id).collect())];
        columns.extend(inputs.iter().map(|c| ColumnVector::Float(c.clone())));
        e.insert_columns("facts", columns).map_err(err)?;
        for s in e.shards() {
            load_into_engine(s, MODEL_TABLE, model, Layout::NodeId).map_err(err)?;
        }
        let t0 = Instant::now();
        e.checkpoint().map_err(err)?;
        store.checkpoint_us = us(t0.elapsed());
        store.engine = Some(e);
        Ok(store)
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// One ML-To-SQL point query: the generator's fact table is a pinned
/// subquery, so the statement routes to the shard owning `id`.
fn point_sql(meta: &ModelMeta, input_cols: &[String], id: i64) -> Result<String, String> {
    let fact = format!("(SELECT id, {} FROM facts WHERE id = {id})", input_cols.join(", "));
    let refs: Vec<&str> = input_cols.iter().map(String::as_str).collect();
    SqlGenerator::new(
        meta,
        MODEL_TABLE,
        &fact,
        "id",
        &refs,
        &[],
        GenOptions { opt: OptLevel::NodeId, dialect: ActivationDialect::Native },
    )
    .and_then(|g| g.generate())
}

fn prediction(r: &QueryResult) -> Result<f64, String> {
    if r.num_rows() != 1 {
        return Err(format!("{} rows, expected 1", r.num_rows()));
    }
    r.column("prediction").and_then(|c| c.as_float().map(|v| v[0])).map_err(|e| e.to_string())
}

/// The seeded inputs of the workload.
struct Inputs {
    model: Model,
    /// Fact columns `c0..`, in load order.
    columns: Vec<Vec<f64>>,
    /// Point keys with their SQL text and oracle prediction.
    points: Vec<(i64, String, f64)>,
    rng: Rng,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let model = nn::paper::dense_model(8, 2, seed);
        let dim = model.input_dim();
        let mut rng = Rng::new(seed);
        let columns: Vec<Vec<f64>> =
            (0..dim).map(|_| (0..FACT_ROWS).map(|_| rng.dyadic()).collect()).collect();
        let mut row_of = vec![0usize; FACT_ROWS];
        for r in 0..FACT_ROWS {
            row_of[permuted_id(r) as usize] = r;
        }
        let meta = model_repr::export_columns(&model, Layout::NodeId).1;
        let input_cols: Vec<String> = (0..dim).map(|c| format!("c{c}")).collect();
        let points = (0..POINT_KEYS)
            .map(|_| {
                let id = rng.below(FACT_ROWS as u64) as i64;
                let x: Vec<f32> = columns.iter().map(|c| c[row_of[id as usize]] as f32).collect();
                let oracle = model.predict_row(&x)[0] as f64;
                Ok((id, point_sql(&meta, &input_cols, id)?, oracle))
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs { model, columns, points, rng })
    }

    /// The statements of one transaction, inserting fresh ids from
    /// `next_id` on.
    fn txn(&mut self, next_id: &mut i64) -> Vec<String> {
        let mut stmts = vec!["BEGIN".to_string()];
        for _ in 0..ROWS_PER_TXN {
            let vals: Vec<String> =
                (0..self.columns.len()).map(|_| format!("{}", self.rng.dyadic())).collect();
            stmts.push(format!("INSERT INTO facts VALUES ({next_id}, {})", vals.join(", ")));
            *next_id += 1;
        }
        stmts.push("COMMIT".to_string());
        stmts
    }
}

/// Run one transaction; `Ok` once COMMIT returned.
fn run_txn(e: &ShardedEngine, stmts: &[String], tracer: &Tracer) -> Result<(), String> {
    for s in stmts {
        let name = match s.as_bytes()[0] {
            b'B' => "shard.execute.begin",
            b'C' => "shard.execute.commit",
            _ => "shard.execute.insert",
        };
        let _s = tracer.span(name);
        if let Err(err) = e.execute(s) {
            let _ = e.execute("ROLLBACK");
            return Err(format!("{s}: {err}"));
        }
    }
    Ok(())
}

/// `obs` counters summed per step kind.
const STEP_COUNTERS: &[&str] = &[
    "storage.pool.evictions",
    "storage.wal.bytes",
    "storage.wal.fsyncs",
    "storage.pages.written",
    "exec.scan.rows",
    "shard.queries.single",
    "shard.queries.scatter",
    "shard.queries.partial_agg",
    "shard.queries.shuffle",
];

#[derive(Default)]
struct Steps {
    txn_ms: Split,
    point_ms: Split,
    /// Counter sums over txn steps and over point steps.
    txn_obs: HashMap<&'static str, f64>,
    point_obs: HashMap<&'static str, f64>,
    unaccounted: f64,
    next_request: u64,
}

impl Steps {
    /// Time one step; traced steps get a root span and feed the
    /// accounting check.
    fn step<T>(
        &mut self,
        tracer: &Tracer,
        name: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> (Result<T, String>, f64) {
        self.next_request += 1;
        let req = self.next_request;
        let before = obs::snapshot();
        let t0 = Instant::now();
        let result = {
            let _root = tracer.request(name, req);
            f()
        };
        let wall = t0.elapsed();
        let d = ObsDelta::between(before, obs::snapshot());
        let sums = if name == "txn" { &mut self.txn_obs } else { &mut self.point_obs };
        for &c in STEP_COUNTERS {
            *sums.entry(c).or_default() += d.counter(c);
        }
        self.unaccounted = self.unaccounted.max(tracer.unaccounted_share(req, wall));
        (result, ms(wall))
    }
}

/// Open the store under `dir` (crash recovery replays its WAL) and
/// answer a first query: its row count, which must be `rows`. Returns
/// the engine and the seconds from open to answer.
fn reopen(dir: &Path, rows: usize) -> (Result<ShardedEngine, String>, f64) {
    let t0 = Instant::now();
    let result = ShardedEngine::open(engine_config(dir)).map_err(|e| e.to_string()).and_then(|e| {
        let r = e.execute("SELECT COUNT(*) FROM facts").map_err(|e| e.to_string())?;
        let count = match r.num_rows() {
            1 => r.row(0)[0].as_i64().map_err(|e| e.to_string())?,
            n => return Err(format!("COUNT(*) returned {n} rows")),
        };
        if count == rows as i64 {
            Ok(e)
        } else {
            Err(format!("{count} rows after reopen, expected {rows}"))
        }
    });
    (result, t0.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut inputs = match Inputs::new(args.seed) {
        Ok(i) => i,
        Err(e) => {
            out.record("setup", Err(e));
            return out;
        }
    };
    // Data directories of an earlier run that was killed are removed
    // here; the stores of this run remove their own.
    let root = Path::new(crate::OUT_DIR).join("durable");
    let _ = std::fs::remove_dir_all(&root);
    let mut n = 0;
    let (store, setup_s) = setup_repeated(SETUPS, || {
        n += 1;
        Store::build(root.join(format!("setup-{n}")), &inputs.model, &inputs.columns)
    });
    let store = match store {
        Ok(s) => s,
        Err(e) => {
            out.record("setup", Err(e));
            return out;
        }
    };
    out.record("setup", Ok(()));

    // Timed phase: transactions alternate with point inferences. The
    // traced run traces every other transaction/point pair, so the
    // untraced ones give the overhead baseline.
    let tracers = Alternating::new(args.trace);
    let plain = Tracer::new(false);
    let mut steps = Steps::default();
    let mut next_id = FACT_ROWS as i64;
    let mut acked_rows = 0usize;
    let mut predictions: HashMap<i64, f64> = HashMap::new();
    let mut order: Vec<usize> = (0..POINT_KEYS).collect();
    inputs.rng.shuffle(&mut order);
    let obs0 = obs::snapshot();
    let cpu0 = report::process_cpu_seconds();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_STEPS || start.elapsed() < args.seconds {
        let tracer = tracers.pick(i as u64);
        let stmts = inputs.txn(&mut next_id);
        let (result, t) = steps.step(tracer, "txn", || run_txn(store.engine(), &stmts, tracer));
        if result.is_ok() {
            acked_rows += ROWS_PER_TXN;
            steps.txn_ms.push(tracer, t);
        }
        out.record("txn", result);

        let (id, sql, oracle) = &inputs.points[order[i % POINT_KEYS]];
        let (result, t) = steps.step(tracer, "point", || {
            let _s = tracer.span("shard.execute_cached");
            store
                .engine()
                .execute_cached(sql)
                .map_err(|e| e.to_string())
                .and_then(|r| prediction(&r))
        });
        let check = result.and_then(|p| {
            if (p - oracle).abs() < POINT_TOLERANCE {
                predictions.insert(*id, p);
                Ok(())
            } else {
                Err(format!("id {id} predicted {p}, oracle {oracle}"))
            }
        });
        if check.is_ok() {
            steps.point_ms.push(tracer, t);
        }
        out.record("point", check);
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_per_wall = (report::process_cpu_seconds() - cpu0) / wall;
    let delta = ObsDelta::between(obs0, obs::snapshot());
    // Read before the recovery phase, whose reopens load a second store.
    let peak_rss_mb = report::peak_rss_mb();

    // Durability of the timed phase: reopen the store and check the row
    // count and every point key's pre-restart prediction.
    let mut store = store;
    drop(store.engine.take());
    let (reopened, _) = reopen(&store.dir, FACT_ROWS + acked_rows);
    out.record("reopen", reopened.as_ref().map(|_| ()).map_err(Clone::clone));
    if let Ok(e) = reopened {
        for (id, sql, _) in &inputs.points {
            let Some(&before) = predictions.get(id) else { continue };
            let check = e
                .execute_cached(sql)
                .map_err(|e| e.to_string())
                .and_then(|r| prediction(&r))
                .and_then(|p| {
                    if (p - before).abs() <= 1e-9 {
                        Ok(())
                    } else {
                        Err(format!("id {id} predicted {p} after reopen, {before} before"))
                    }
                });
            out.record("reopen_point", check);
        }
    }
    let checkpoint_us = store.checkpoint_us;
    drop(store);

    // Recovery is timed on a fresh store holding a fixed state: the bulk
    // load, a checkpoint, then a fixed batch of committed transactions
    // for the reopen to replay. Its WAL and row count do not depend on
    // how many steps the timed phase managed.
    let mut recovery_s = Vec::new();
    let mut replayed = Vec::new();
    let mut disk_bytes_per_row = 0.0;
    match Store::build(root.join("recovery"), &inputs.model, &inputs.columns) {
        Err(e) => out.record("recovery_prep", Err(e)),
        Ok(mut fixed) => {
            let mut id = (FACT_ROWS * 2) as i64;
            for _ in 0..RECOVERY_TXNS {
                let stmts = inputs.txn(&mut id);
                out.record("recovery_prep", run_txn(fixed.engine(), &stmts, &plain));
            }
            drop(fixed.engine.take());
            let rows = FACT_ROWS + RECOVERY_TXNS * ROWS_PER_TXN;
            for _ in 0..REOPENS {
                let before = obs::snapshot();
                let (reopened, elapsed) = reopen(&fixed.dir, rows);
                let d = ObsDelta::between(before, obs::snapshot());
                replayed.push(d.counter("storage.recovery.records_replayed"));
                if reopened.is_ok() {
                    recovery_s.push(elapsed);
                }
                out.record("recovery_reopen", reopened.map(|_| ()));
            }
            disk_bytes_per_row = dir_bytes(&fixed.dir) as f64 / rows as f64;
        }
    }
    let _ = std::fs::remove_dir(&root);

    if !args.trace {
        // The transactions are the main op, the point inferences the
        // other one; recovery and disk use are notes.
        out.metric("setup_s", "s", setup_s);
        out.metric("latency_ms", "ms", median(&steps.txn_ms.plain));
        out.metric("other_latency_ms", "ms", median(&steps.point_ms.plain));
        out.metric("peak_rss_mb", "MB", peak_rss_mb);
        out.note("txn_p50_ms", median(&steps.txn_ms.plain));
        out.note("point_p50_ms", median(&steps.point_ms.plain));
        out.note("recovery_s", median(&recovery_s));
        out.note("recovery_s.min", quantile(&recovery_s, 0.0));
        out.note("recovery_s.max", quantile(&recovery_s, 1.0));
        out.note("disk_bytes_per_row", disk_bytes_per_row);
        out.note("steps", i as f64);
        out.note("acked_rows", acked_rows as f64);
        return out;
    }

    tracers.live.dump("durable_shards", args.seed);
    let spans = tracers.live.spans();
    let span_median = |name: &str| {
        let v: Vec<f64> =
            spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect();
        median(&v)
    };
    let txns = steps.txn_ms.count() as f64;
    let points = steps.point_ms.count() as f64;
    let mut l = Layers::default();
    l.set_common(&delta, txns + points, cpu_per_wall);
    let t = |c: &str| steps.txn_obs.get(c).copied().unwrap_or(0.0);
    let p = |c: &str| steps.point_obs.get(c).copied().unwrap_or(0.0);
    l.set("storage.evictions_per_point", ratio(p("storage.pool.evictions"), points));
    l.set("storage.wal_bytes_per_row", ratio(t("storage.wal.bytes"), txns * ROWS_PER_TXN as f64));
    l.set("storage.fsyncs_per_txn", ratio(t("storage.wal.fsyncs"), txns));
    l.set("storage.pages_written_per_txn", ratio(t("storage.pages.written"), txns));
    l.set("shard.insert_us", span_median("shard.execute.insert"));
    l.set("shard.commit_us", span_median("shard.execute.commit"));
    let routed: f64 = ["single", "scatter", "partial_agg", "shuffle"]
        .iter()
        .map(|k| p(&format!("shard.queries.{k}")))
        .sum();
    l.set("shard.single_route_share", ratio(p("shard.queries.single"), routed));
    l.set("vector-engine.scan_rows_per_point", ratio(p("exec.scan.rows"), points));
    l.set("storage.recovery_records", median(&replayed));
    l.set("storage.checkpoint_us", checkpoint_us);
    l.set_trace(trace::overhead([&steps.txn_ms, &steps.point_ms]), steps.unaccounted, &mut out);
    l.emit(&mut out);
    out
}
