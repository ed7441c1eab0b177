//! Shard-scaling sweep: hash-partitioned facts across N in-process engine
//! shards, measuring what routing buys point-query ML inference.
//!
//! ```text
//! cargo run --release -p bench --bin shard_sweep [--quick]
//! ```
//!
//! The host pins this benchmark to work *reduction*, not work overlap:
//! with one core, scattering a query across shards cannot beat a single
//! engine, but routing a pinned point query to the one shard that owns
//! its key scans `1/N` of the data. To keep the comparison honest the
//! fact table's `id` column is loaded as a *shuffled* permutation of
//! `0..n`, so every block's min/max spans nearly the whole key domain and
//! the engine's SMA block pruning cannot skip blocks for the unsharded
//! baseline — both sides pay full scans over whatever data they hold.
//!
//! Cells (unsharded engine plus {1, 2, 4, 8} shards):
//! * `ml2sql_point` — per-key ML-To-SQL inference: the generator's fact
//!   table is a `(SELECT ... WHERE id = k)` subquery, so both generated
//!   fact scans carry the pin and the shard planner routes the whole
//!   statement to the owning shard. Measured as sequential closed-loop
//!   queries per second over a rotating working set (plan cache and
//!   route cache warm, like a steady-state serving tier).
//! * `serve_point` — the same routing through [`ShardedServer`]: 8
//!   closed-loop clients submitting plain point-SELECTs.
//! * scatter cells (no scaling claim on one core; they pin the overhead
//!   of the scatter-gather machinery): a global partial aggregate, a
//!   misaligned-key shuffle join, and the scattered ModelJoin operator.
//!
//! Full runs write `BENCH_shard.json` with every cell plus the `shard.*`
//! observability snapshot; `--quick` is a CI smoke that runs tiny cells
//! and leaves the JSON untouched.

use std::sync::Arc;
use std::time::Instant;

use ml2sql::{ActivationDialect, GenOptions, OptLevel, SqlGenerator};
use model_repr::{export_columns, load_into_engine, model_table_schema, Layout, ModelMeta};
use modeljoin::operator::execute_model_join;
use modeljoin::SharedModel;
use serve::{RequestHandle, ServeConfig, ServeError, Server};
use shard::{ShardedEngine, ShardedServer};
use tensor::Device;
use vector_engine::{ColumnVector, Engine, EngineConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MODEL_TABLE: &str = "model_table";

struct Sizes {
    fact_rows: usize,
    /// Distinct point-query texts in the rotating working set.
    working_set: usize,
    ml2sql_requests: usize,
    serve_clients: usize,
    serve_requests_per_client: usize,
    shuffle_rows: usize,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                fact_rows: 1 << 14,
                working_set: 4,
                ml2sql_requests: 8,
                serve_clients: 2,
                serve_requests_per_client: 4,
                shuffle_rows: 2_000,
            }
        } else {
            Sizes {
                fact_rows: 1 << 20,
                working_set: 24,
                ml2sql_requests: 120,
                serve_clients: 8,
                serve_requests_per_client: 40,
                shuffle_rows: 20_000,
            }
        }
    }
}

/// `id` values as a pseudorandom permutation of `0..n` (odd multiplier,
/// `n` a power of two, so the map is a bijection). Insertion order is the
/// permutation order: block min/max spans nearly the full domain, which
/// defeats SMA pruning for point predicates on every engine.
fn permuted_ids(n: usize) -> Vec<i64> {
    (0..n as u64).map(|i| (i.wrapping_mul(0x9e3779b1) % n as u64) as i64).collect()
}

/// Exact dyadic inputs in [-2, 2) so repeated runs are bit-identical.
fn dyadic(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut z = (i as u64).wrapping_add(salt).wrapping_mul(0x9e3779b97f4a7c15);
            z ^= z >> 29;
            (z % 256) as f64 / 64.0 - 2.0
        })
        .collect()
}

fn facts_ddl(input_dim: usize) -> String {
    let mut ddl = String::from("CREATE TABLE facts (id INT");
    for c in 0..input_dim {
        ddl.push_str(&format!(", c{c} FLOAT"));
    }
    ddl.push(')');
    ddl
}

fn facts_columns(n: usize, input_dim: usize) -> Vec<ColumnVector> {
    let mut cols = vec![ColumnVector::Int(permuted_ids(n))];
    for c in 0..input_dim {
        cols.push(ColumnVector::Float(dyadic(n, c as u64 + 1)));
    }
    cols
}

/// Aux pair of sharded tables for the shuffle cell: `g` has ~5 rows per
/// value, so the misaligned self-join fans out modestly.
fn shuffle_columns(n: usize) -> Vec<ColumnVector> {
    vec![
        ColumnVector::Int((0..n as i64).collect()),
        ColumnVector::Int(
            (0..n as i64).map(|i| i.wrapping_mul(7) % (n as i64 / 5).max(1)).collect(),
        ),
    ]
}

/// One ML-To-SQL point query: the fact table handed to the generator is a
/// pinned subquery, so both scans it emits (input gather and output join)
/// carry `id = k` and the statement routes to the owning shard.
fn point_sql(meta: &ModelMeta, input_cols: &[String], id: i64) -> String {
    let cols = input_cols.join(", ");
    let fact = format!("(SELECT id, {cols} FROM facts WHERE id = {id})");
    let refs: Vec<&str> = input_cols.iter().map(String::as_str).collect();
    let gen = SqlGenerator::new(
        meta,
        MODEL_TABLE,
        &fact,
        "id",
        &refs,
        &[],
        GenOptions { opt: OptLevel::NodeId, dialect: ActivationDialect::Native },
    );
    gen.expect("ml2sql generator").generate().expect("ml2sql generation")
}

struct PointCell {
    bench: &'static str,
    engine: &'static str,
    shards: usize,
    requests: usize,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
}

struct ScatterCell {
    name: &'static str,
    engine: &'static str,
    shards: usize,
    millis: f64,
    rows: usize,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// Sequential closed loop over a warm working set of statement texts.
fn measure_point<F>(exec: F, queries: &[String], requests: usize) -> (f64, u64, u64)
where
    F: Fn(&str),
{
    for q in queries {
        exec(q); // warm the plan cache and the route cache
    }
    let mut lats = Vec::with_capacity(requests);
    let start = Instant::now();
    for r in 0..requests {
        let q = &queries[r % queries.len()];
        let t0 = Instant::now();
        exec(q);
        lats.push(t0.elapsed().as_micros() as u64);
    }
    let wall = start.elapsed().as_secs_f64();
    lats.sort_unstable();
    (requests as f64 / wall, percentile(&lats, 0.5), percentile(&lats, 0.99))
}

/// Closed-loop SQL clients against a submit-handle serving API.
fn drive_sql_load<F>(
    submit: &F,
    queries: &[String],
    clients: usize,
    per_client: usize,
) -> (f64, u64, u64)
where
    F: Fn(&str) -> Result<RequestHandle, ServeError> + Sync,
{
    let start = Instant::now();
    let mut lats: Vec<u64> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut l = Vec::with_capacity(per_client);
                    for r in 0..per_client {
                        let q = &queries[(c * 31 + r) % queries.len()];
                        let t0 = Instant::now();
                        loop {
                            match submit(q) {
                                Ok(h) => {
                                    h.wait().expect("serve sql failed");
                                    break;
                                }
                                Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                                Err(e) => panic!("submit_sql failed: {e:?}"),
                            }
                        }
                        l.push(t0.elapsed().as_micros() as u64);
                    }
                    l
                })
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().expect("client panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    lats.sort_unstable();
    (lats.len() as f64 / wall, percentile(&lats, 0.5), percentile(&lats, 0.99))
}

fn engine_config(cores: usize) -> EngineConfig {
    EngineConfig { partitions: 2, parallelism: cores.clamp(2, 4), ..Default::default() }
}

fn print_cell(c: &PointCell) {
    println!(
        "{},{},{},{},{:.1},{},{}",
        c.bench, c.engine, c.shards, c.requests, c.qps, c.p50_us, c.p99_us
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sizes = Sizes::new(quick);
    let layout = Layout::NodeId;

    // Small model over a large fact table: the per-query cost is the fact
    // scan, which is exactly what routing shrinks.
    let model = nn::paper::dense_model(8, 2, 42);
    let input_dim = model.input_dim();
    let input_cols: Vec<String> = (0..input_dim).map(|c| format!("c{c}")).collect();
    let input_refs: Vec<&str> = input_cols.iter().map(String::as_str).collect();
    let (model_cols, meta) = export_columns(&model, layout);

    // Working set of point-query ids, spread across the key domain. Every
    // id in 0..n is present (the permutation is a bijection).
    let point_ids: Vec<i64> = (0..sizes.working_set)
        .map(|j| (j * sizes.fact_rows / sizes.working_set + j) as i64)
        .collect();
    let ml_queries: Vec<String> =
        point_ids.iter().map(|&id| point_sql(&meta, &input_cols, id)).collect();
    let serve_queries: Vec<String> = point_ids
        .iter()
        .map(|&id| format!("SELECT {} FROM facts WHERE id = {id}", input_cols.join(", ")))
        .collect();

    println!(
        "# shard_sweep (cores = {cores}, fact_rows = {}, working set = {})",
        sizes.fact_rows, sizes.working_set
    );
    println!("bench,engine,shards,requests,qps,p50_us,p99_us");

    let mut cells: Vec<PointCell> = Vec::new();
    let mut scatter_cells: Vec<ScatterCell> = Vec::new();

    let scatter_agg_sql =
        "SELECT COUNT(*) AS n, SUM(c0) AS s, MIN(c0) AS lo, MAX(c0) AS hi FROM facts";
    let shuffle_sql = "SELECT a.k, b.k FROM sx AS a, sx AS b WHERE a.g = b.g AND a.k < b.k";

    // ---- Unsharded baseline -------------------------------------------
    {
        let engine = Arc::new(Engine::new(engine_config(cores)));
        engine.execute(&facts_ddl(input_dim)).expect("facts ddl");
        engine.table("facts").expect("facts").declare_unique("id").expect("unique");
        engine
            .insert_columns("facts", facts_columns(sizes.fact_rows, input_dim))
            .expect("facts load");
        let (model_table, _) =
            load_into_engine(&engine, MODEL_TABLE, &model, layout).expect("model load");

        let (qps, p50, p99) = measure_point(
            |q| {
                engine.execute_cached(q).expect("ml2sql point");
            },
            &ml_queries,
            sizes.ml2sql_requests,
        );
        let cell = PointCell {
            bench: "ml2sql_point",
            engine: "unsharded",
            shards: 0,
            requests: sizes.ml2sql_requests,
            qps,
            p50_us: p50,
            p99_us: p99,
        };
        print_cell(&cell);
        cells.push(cell);

        let server = Server::start(Arc::clone(&engine), ServeConfig::from_engine(engine.config()));
        let requests = sizes.serve_clients * sizes.serve_requests_per_client;
        let (qps, p50, p99) = drive_sql_load(
            &|q: &str| server.submit_sql(q),
            &serve_queries,
            sizes.serve_clients,
            sizes.serve_requests_per_client,
        );
        server.shutdown();
        let cell = PointCell {
            bench: "serve_point",
            engine: "unsharded",
            shards: 0,
            requests,
            qps,
            p50_us: p50,
            p99_us: p99,
        };
        print_cell(&cell);
        cells.push(cell);

        // Scatter-machinery baselines on the same engine.
        let t0 = Instant::now();
        let r = engine.execute(scatter_agg_sql).expect("agg baseline");
        scatter_cells.push(ScatterCell {
            name: "global_agg",
            engine: "unsharded",
            shards: 0,
            millis: t0.elapsed().as_secs_f64() * 1e3,
            rows: r.num_rows(),
        });

        engine.execute("CREATE TABLE sx (k INT, g INT)").expect("sx ddl");
        engine.table("sx").expect("sx").declare_unique("k").expect("unique");
        engine.insert_columns("sx", shuffle_columns(sizes.shuffle_rows)).expect("sx load");
        let t0 = Instant::now();
        let r = engine.execute(shuffle_sql).expect("shuffle baseline");
        scatter_cells.push(ScatterCell {
            name: "shuffle_join",
            engine: "unsharded",
            shards: 0,
            millis: t0.elapsed().as_secs_f64() * 1e3,
            rows: r.num_rows(),
        });

        let shared = SharedModel::new(
            model_table,
            meta.clone(),
            layout,
            Device::cpu(),
            engine.config().vector_size,
            engine.config().parallelism,
        );
        let t0 = Instant::now();
        let batches = execute_model_join(
            &engine,
            "facts",
            &input_refs,
            &["id"],
            &shared,
            engine.config().parallelism,
        )
        .expect("modeljoin baseline");
        scatter_cells.push(ScatterCell {
            name: "modeljoin",
            engine: "unsharded",
            shards: 0,
            millis: t0.elapsed().as_secs_f64() * 1e3,
            rows: batches.iter().map(|b| b.num_rows()).sum(),
        });
    }

    // ---- Sharded cells ------------------------------------------------
    let shard_counts: &[usize] = if quick { &[1, 2, 8] } else { &SHARD_COUNTS };
    for &shards in shard_counts {
        let engine = Arc::new(ShardedEngine::with_shards(engine_config(cores), shards));
        engine.execute(&facts_ddl(input_dim)).expect("facts ddl");
        engine.declare_sharded("facts", "id").expect("declare sharded");
        engine.declare_unique("facts", "id").expect("unique");
        engine
            .insert_columns("facts", facts_columns(sizes.fact_rows, input_dim))
            .expect("facts load");
        for s in engine.shards() {
            let t = s.create_table(MODEL_TABLE, model_table_schema(layout)).expect("model ddl");
            t.append(model_cols.clone()).expect("model load");
        }

        let (qps, p50, p99) = measure_point(
            |q| {
                engine.execute_cached(q).expect("ml2sql point");
            },
            &ml_queries,
            sizes.ml2sql_requests,
        );
        let cell = PointCell {
            bench: "ml2sql_point",
            engine: "sharded",
            shards,
            requests: sizes.ml2sql_requests,
            qps,
            p50_us: p50,
            p99_us: p99,
        };
        print_cell(&cell);
        cells.push(cell);

        let server =
            ShardedServer::start(Arc::clone(&engine), ServeConfig::from_engine(engine.config()));
        let requests = sizes.serve_clients * sizes.serve_requests_per_client;
        let (qps, p50, p99) = drive_sql_load(
            &|q: &str| server.submit_sql(q),
            &serve_queries,
            sizes.serve_clients,
            sizes.serve_requests_per_client,
        );
        server.shutdown();
        let cell = PointCell {
            bench: "serve_point",
            engine: "sharded",
            shards,
            requests,
            qps,
            p50_us: p50,
            p99_us: p99,
        };
        print_cell(&cell);
        cells.push(cell);

        // Scatter cells at the top shard count: gather/merge overhead and
        // the shuffle exchange, against the unsharded baselines above.
        if shards == *shard_counts.last().expect("non-empty") {
            let t0 = Instant::now();
            let r = engine.execute(scatter_agg_sql).expect("sharded agg");
            scatter_cells.push(ScatterCell {
                name: "global_agg",
                engine: "sharded",
                shards,
                millis: t0.elapsed().as_secs_f64() * 1e3,
                rows: r.num_rows(),
            });

            engine.execute("CREATE TABLE sx (k INT, g INT)").expect("sx ddl");
            engine.declare_sharded("sx", "k").expect("declare sx");
            engine.declare_unique("sx", "k").expect("unique sx");
            engine.insert_columns("sx", shuffle_columns(sizes.shuffle_rows)).expect("sx load");
            let t0 = Instant::now();
            let r = engine.execute(shuffle_sql).expect("sharded shuffle");
            scatter_cells.push(ScatterCell {
                name: "shuffle_join",
                engine: "sharded",
                shards,
                millis: t0.elapsed().as_secs_f64() * 1e3,
                rows: r.num_rows(),
            });

            let t0 = Instant::now();
            let batches = engine
                .model_join(
                    "facts",
                    &input_refs,
                    &["id"],
                    MODEL_TABLE,
                    &meta,
                    layout,
                    &Device::cpu(),
                )
                .expect("sharded modeljoin");
            scatter_cells.push(ScatterCell {
                name: "modeljoin",
                engine: "sharded",
                shards,
                millis: t0.elapsed().as_secs_f64() * 1e3,
                rows: batches.iter().map(|b| b.num_rows()).sum(),
            });
        }
    }

    let qps_of = |bench: &str, engine: &str, shards: usize| {
        cells
            .iter()
            .find(|c| c.bench == bench && c.engine == engine && c.shards == shards)
            .map(|c| c.qps)
            .unwrap_or(0.0)
    };
    let top = *shard_counts.last().expect("non-empty");
    let ml_speedup =
        qps_of("ml2sql_point", "sharded", top) / qps_of("ml2sql_point", "sharded", 1).max(1e-9);
    let serve_speedup =
        qps_of("serve_point", "sharded", top) / qps_of("serve_point", "sharded", 1).max(1e-9);
    let ml_one_shard =
        qps_of("ml2sql_point", "sharded", 1) / qps_of("ml2sql_point", "unsharded", 0).max(1e-9);
    let serve_one_shard =
        qps_of("serve_point", "sharded", 1) / qps_of("serve_point", "unsharded", 0).max(1e-9);
    println!("\nml2sql_point {top} shards vs 1: {ml_speedup:.1}x");
    println!("serve_point {top} shards vs 1: {serve_speedup:.1}x");
    println!("1-shard vs unsharded: ml2sql {ml_one_shard:.2}, serve {serve_one_shard:.2}");
    for c in &scatter_cells {
        println!(
            "scatter {} {} shards={}: {:.1} ms, {} rows",
            c.name, c.engine, c.shards, c.millis, c.rows
        );
    }

    // Quick mode is a smoke test; don't clobber recorded full-sweep results.
    if quick {
        return;
    }

    // Hand-rolled JSON: the repository vendors no serializer.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"fact_rows\": {},\n", sizes.fact_rows));
    json.push_str(
        "  \"workload\": \"Dense(w=8,d=2) ML-To-SQL point inference over hash-permuted ids\",\n",
    );
    json.push_str(&format!("  \"working_set\": {},\n", sizes.working_set));
    json.push_str(&format!("  \"speedup_ml2sql_{top}_shards_vs_1\": {ml_speedup:.2},\n"));
    json.push_str(&format!("  \"speedup_serve_{top}_shards_vs_1\": {serve_speedup:.2},\n"));
    json.push_str(&format!("  \"one_shard_vs_unsharded_ml2sql\": {ml_one_shard:.3},\n"));
    json.push_str(&format!("  \"one_shard_vs_unsharded_serve\": {serve_one_shard:.3},\n"));
    json.push_str("  \"point_cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"engine\": \"{}\", \"shards\": {}, \"requests\": {}, \
             \"qps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            c.bench,
            c.engine,
            c.shards,
            c.requests,
            c.qps,
            c.p50_us,
            c.p99_us,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scatter_cells\": [\n");
    for (i, c) in scatter_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"shards\": {}, \"millis\": {:.2}, \
             \"rows\": {}}}{}\n",
            c.name,
            c.engine,
            c.shards,
            c.millis,
            c.rows,
            if i + 1 < scatter_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // shard.* counters (routed/scatter/shuffle traffic, exchange volume,
    // gather waits) for the whole sweep, plus the serving-layer metrics.
    json.push_str(&format!("  \"metrics\": {}\n", obs::snapshot().render_json("  ")));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
