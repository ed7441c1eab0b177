//! Property tests pinning sharded execution to the single-engine oracle:
//! for every shard count in {1, 2, 3, 8} and skewed key distributions,
//! scatter/partial-aggregate/shuffle queries and ModelJoin inference must
//! return exactly the oracle's rows (compared sorted — the gather order
//! across shards is not the single engine's scan order).
//!
//! Float payloads are dyadic (k/64, exact in binary), so partial sums are
//! exact in f64 no matter how the merge groups them — merge-order changes
//! cannot wobble low bits, and the comparison is *bitwise*, not approximate.

use shard::{Route, ShardedEngine};
use vector_engine::{Batch, ColumnVector, Engine, EngineConfig, QueryResult, Value};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn config() -> EngineConfig {
    EngineConfig { vector_size: 64, partitions: 2, parallelism: 2, ..Default::default() }
}

/// Split-mix style generator so all columns derive from one seed.
fn lcg(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

/// Group keys where a `skew`-percent slice of rows collapses onto one hot
/// key (the skewed-distribution half of the satellite).
fn group_keys(n: usize, domain: u64, skew: u32, seed: u64) -> Vec<i64> {
    (0..n)
        .map(|i| {
            let r = lcg(seed, i);
            if r % 100 < skew as u64 {
                7
            } else {
                ((r >> 8) % domain) as i64
            }
        })
        .collect()
}

/// Exact dyadic values in [-8, 8).
fn dyadic(n: usize, seed: u64) -> Vec<f64> {
    (0..n).map(|i| (lcg(seed, i) % 1024) as f64 / 64.0 - 8.0).collect()
}

fn facts_columns(n: usize, skew: u32, seed: u64) -> Vec<ColumnVector> {
    vec![
        ColumnVector::Int((0..n as i64).collect()),
        ColumnVector::Int(group_keys(n, 10, skew, seed)),
        ColumnVector::Float(dyadic(n, seed ^ 0xdead)),
    ]
}

const FACTS_DDL: &str = "CREATE TABLE facts (id INT, grp INT, v FLOAT)";

fn oracle(n: usize, skew: u32, seed: u64) -> Engine {
    let e = Engine::new(config());
    e.execute(FACTS_DDL).unwrap();
    e.table("facts").unwrap().declare_unique("id").unwrap();
    e.insert_columns("facts", facts_columns(n, skew, seed)).unwrap();
    e
}

fn sharded(shards: usize, n: usize, skew: u32, seed: u64) -> ShardedEngine {
    let e = ShardedEngine::with_shards(config(), shards);
    e.execute(FACTS_DDL).unwrap();
    e.declare_sharded("facts", "id").unwrap();
    e.declare_unique("facts", "id").unwrap();
    e.insert_columns("facts", facts_columns(n, skew, seed)).unwrap();
    e
}

/// Sorted rows with floats encoded by bit pattern — equality means
/// bit-identical values, row for row.
fn sorted_rows(r: &QueryResult) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> =
        (0..r.num_rows()).map(|i| r.row(i).iter().map(encode).collect()).collect();
    rows.sort();
    rows
}

fn encode(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn sorted_batch_rows(batches: &[Batch]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for b in batches {
        for i in 0..b.num_rows() {
            rows.push(
                b.columns()
                    .iter()
                    .map(|c| match c {
                        ColumnVector::Int(v) => format!("{:?}", v[i]),
                        ColumnVector::Float(v) => format!("f{:016x}", v[i].to_bits()),
                        ColumnVector::Bool(v) => format!("{:?}", v[i]),
                        ColumnVector::Str(v) => v[i].clone(),
                    })
                    .collect::<Vec<String>>(),
            );
        }
    }
    rows.sort();
    rows
}

proptest::proptest! {
    /// Aggregations: misaligned GROUP BY (partial-aggregate merge), GROUP
    /// BY the shard key (scatter), and the global aggregate.
    #[test]
    fn sharded_aggregates_match_oracle_bitwise(
        n in 1usize..150,
        skew in 0u32..100,
        seed in 0u64..1_000_000,
    ) {
        let oracle = oracle(n, skew, seed);
        for &shards in &SHARD_COUNTS {
            let e = sharded(shards, n, skew, seed);
            for sql in [
                "SELECT grp, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS m FROM facts GROUP BY grp",
                "SELECT id, SUM(v) AS s FROM facts GROUP BY id",
                "SELECT SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS c FROM facts",
            ] {
                proptest::prop_assert_eq!(
                    sorted_rows(&e.execute(sql).unwrap()),
                    sorted_rows(&oracle.execute(sql).unwrap()),
                    "shards={} sql={}", shards, sql
                );
            }
        }
    }

    /// Joins: misaligned key (hash-partitioned shuffle exchange) and the
    /// co-partitioned self-join on the shard key (scatter).
    #[test]
    fn sharded_joins_match_oracle_bitwise(
        n in 1usize..120,
        skew in 0u32..100,
        seed in 0u64..1_000_000,
    ) {
        let oracle = oracle(n, skew, seed);
        for &shards in &SHARD_COUNTS {
            let e = sharded(shards, n, skew, seed);
            for sql in [
                // grp is not the shard key: this forces the exchange.
                "SELECT a.id, b.id, a.v FROM facts AS a, facts AS b \
                 WHERE a.grp = b.grp AND a.id < b.id",
                // id = id is co-partitioned: shard-local join.
                "SELECT a.id, a.v, b.grp FROM facts AS a, facts AS b WHERE a.id = b.id",
            ] {
                proptest::prop_assert_eq!(
                    sorted_rows(&e.execute(sql).unwrap()),
                    sorted_rows(&oracle.execute(sql).unwrap()),
                    "shards={} sql={}", shards, sql
                );
            }
        }
    }

    /// Point queries pin to one shard and return the oracle's rows, for
    /// present and absent keys alike.
    #[test]
    fn routed_point_queries_match_oracle(
        n in 1usize..150,
        skew in 0u32..100,
        seed in 0u64..1_000_000,
        probe in 0usize..300,
    ) {
        let oracle = oracle(n, skew, seed);
        let sql = format!("SELECT id, grp, v FROM facts WHERE id = {probe}");
        for &shards in &SHARD_COUNTS {
            let e = sharded(shards, n, skew, seed);
            let route = e.route(&sql).unwrap();
            proptest::prop_assert!(
                matches!(route, Route::Single(_)),
                "point query not routed at {} shards: {:?}", shards, route
            );
            proptest::prop_assert_eq!(
                sorted_rows(&e.execute(&sql).unwrap()),
                sorted_rows(&oracle.execute(&sql).unwrap()),
                "shards={}", shards
            );
        }
    }
}

mod model_join {
    use super::*;
    use model_repr::{export_columns, load_into_engine, Layout, ModelMeta};
    use modeljoin::operator::execute_model_join;
    use modeljoin::SharedModel;
    use tensor::Device;

    fn fact_columns(n: usize, input_dim: usize, seed: u64) -> Vec<ColumnVector> {
        let mut cols = vec![ColumnVector::Int((0..n as i64).collect())];
        for c in 0..input_dim {
            cols.push(ColumnVector::Float(dyadic(n, seed ^ (c as u64 + 1))));
        }
        cols
    }

    fn facts_ddl(input_dim: usize) -> String {
        let mut ddl = String::from("CREATE TABLE facts (id INT");
        for c in 0..input_dim {
            ddl.push_str(&format!(", c{c} FLOAT"));
        }
        ddl.push(')');
        ddl
    }

    /// Replicate the model table onto every shard (the broadcast side).
    fn load_model_sharded(e: &ShardedEngine, model: &nn::Model, layout: Layout) -> ModelMeta {
        let (cols, meta) = export_columns(model, layout);
        for s in e.shards() {
            let t = s.create_table("m", model_repr::model_table_schema(layout)).unwrap();
            t.append(cols.clone()).unwrap();
        }
        meta
    }

    proptest::proptest! {
        /// ModelJoin scatters with its probe side: per-shard inference over
        /// each shard's fact slice is bit-identical to the single-engine
        /// operator (same model, same rows, same f32 kernels).
        #[test]
        fn sharded_model_join_matches_oracle_bitwise(
            n in 1usize..80,
            seed in 0u64..1_000_000,
            model_seed in 1u64..500,
        ) {
            let layout = Layout::NodeId;
            let model = nn::paper::dense_model(4, 2, model_seed);
            let input_dim = model.input_dim();
            let input_cols: Vec<String> = (0..input_dim).map(|c| format!("c{c}")).collect();
            let input_refs: Vec<&str> = input_cols.iter().map(String::as_str).collect();

            let oracle = Engine::new(config());
            oracle.execute(&facts_ddl(input_dim)).unwrap();
            oracle.table("facts").unwrap().declare_unique("id").unwrap();
            oracle.insert_columns("facts", fact_columns(n, input_dim, seed)).unwrap();
            let (table, meta) = load_into_engine(&oracle, "m", &model, layout).unwrap();
            let shared = SharedModel::new(
                table, meta.clone(), layout, Device::cpu(),
                oracle.config().vector_size, oracle.config().parallelism,
            );
            let expect = execute_model_join(
                &oracle, "facts", &input_refs, &["id"], &shared, oracle.config().parallelism,
            ).unwrap();
            let expect_rows = sorted_batch_rows(&expect);

            for &shards in &SHARD_COUNTS {
                let e = ShardedEngine::with_shards(config(), shards);
                e.execute(&facts_ddl(input_dim)).unwrap();
                e.declare_sharded("facts", "id").unwrap();
                e.declare_unique("facts", "id").unwrap();
                e.insert_columns("facts", fact_columns(n, input_dim, seed)).unwrap();
                let meta = load_model_sharded(&e, &model, layout);
                let got = e.model_join(
                    "facts", &input_refs, &["id"], "m", &meta, layout, &Device::cpu(),
                ).unwrap();
                proptest::prop_assert_eq!(
                    sorted_batch_rows(&got), expect_rows.clone(), "shards={}", shards
                );
            }
        }
    }
}
