//! Page traffic of a point query over shuffled keys: a filter-first scan
//! reads the key column of every block but the other columns only of the
//! block holding the key, so its buffer-pool fetches stay within
//! blocks + columns instead of blocks × columns.
//!
//! Own binary: the pool hit/miss counters in `obs` are process-global, so
//! another persistent-engine test in the same process would inflate the
//! fetch count.

use vector_engine::{ColumnVector, Engine, EngineConfig, Value};

const BLOCK: usize = 1024;
const BLOCKS: usize = 64;
const ROWS: usize = BLOCK * BLOCKS;
const COLUMNS: usize = 4;
const POOL_PAGES: usize = 32;

/// `id` of row `r`: a permutation of `0..ROWS` (odd multiplier, `ROWS` a
/// power of two), so every block's min/max spans nearly the whole range
/// and SMA pruning cannot skip it.
fn id(r: usize) -> i64 {
    (r.wrapping_mul(0x9e37_79b1) % ROWS) as i64
}

fn pool_fetches() -> u64 {
    obs::metrics::STORAGE_POOL_HITS.get() + obs::metrics::STORAGE_POOL_MISSES.get()
}

/// A persistent table `t(id, a, b, c)` of `BLOCKS` one-page blocks per
/// column, four times the pool.
fn open(dir: &std::path::Path, sma_pruning: bool) -> Engine {
    let _ = std::fs::remove_dir_all(dir);
    let e = Engine::open(EngineConfig {
        vector_size: BLOCK,
        partitions: 4,
        parallelism: 2,
        sma_pruning,
        data_dir: Some(dir.to_str().unwrap().to_string()),
        buffer_pool_pages: POOL_PAGES,
        wal_fsync: false,
        ..Default::default()
    })
    .unwrap();
    e.execute("CREATE TABLE t (id INT, a FLOAT, b FLOAT, c INT)").unwrap();
    e.insert_columns(
        "t",
        vec![
            ColumnVector::Int((0..ROWS).map(id).collect()),
            ColumnVector::Float((0..ROWS).map(|r| r as f64 * 0.5).collect()),
            ColumnVector::Float((0..ROWS).map(|r| r as f64 * -0.25).collect()),
            ColumnVector::Int((0..ROWS).map(|r| r as i64 % 7).collect()),
        ],
    )
    .unwrap();
    e
}

/// Rows and pool fetches of `SELECT * FROM t WHERE id = key`.
fn point(e: &Engine, key: i64) -> (Vec<Vec<Value>>, u64) {
    let before = pool_fetches();
    let rows = e.execute(&format!("SELECT * FROM t WHERE id = {key}")).unwrap().rows();
    (rows, pool_fetches() - before)
}

#[test]
fn point_query_fetches_one_column_per_block_plus_the_matching_block() {
    let dir = std::env::temp_dir().join(format!("idb-scan-traffic-{}", std::process::id()));
    let oracle_dir = dir.with_extension("oracle");
    let e = open(&dir, true);
    // `sma_pruning = false` reads every block whole: the oracle.
    let oracle = open(&oracle_dir, false);
    let pool = e.storage_env().expect("persistent engine").pool();
    assert!(pool.capacity() * 4 <= BLOCKS * COLUMNS, "the data must not fit the pool");

    for r in [0, 12_345, ROWS - 1] {
        let key = id(r);
        let want = vec![vec![
            Value::Int(key),
            Value::Float(r as f64 * 0.5),
            Value::Float(r as f64 * -0.25),
            Value::Int(r as i64 % 7),
        ]];
        let (oracle_rows, oracle_fetches) = point(&oracle, key);
        assert_eq!(oracle_rows, want);
        assert_eq!(oracle_fetches, (BLOCKS * COLUMNS) as u64, "the oracle reads every page");

        let (rows, fetches) = point(&e, key);
        assert_eq!(rows, want);
        assert!(
            fetches <= (BLOCKS + COLUMNS) as u64,
            "{fetches} pool fetches for one point query over {BLOCKS} blocks x {COLUMNS} columns"
        );
    }
    drop((e, oracle));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&oracle_dir);
}
