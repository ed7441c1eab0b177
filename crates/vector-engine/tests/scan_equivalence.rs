//! Property tests pinning filter-first scans to the read-every-block
//! oracle. With `sma_pruning` on, a scan under a filter loads the filter's
//! columns first and skips a block in which no row passes; with it off,
//! every block is read whole and only the `FilterExec` decides. Results
//! (and errors) must be bit-identical, on in-memory and persistent tables
//! alike, including 1-row tail blocks from single-row `INSERT`s and scans
//! restricted to morsel block ranges.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vector_engine::column::Batch;
use vector_engine::exec::physical::drain;
use vector_engine::exec::scan::ScanExec;
use vector_engine::exec::simple::FilterExec;
use vector_engine::expr::Expr;
use vector_engine::plan::logical::LogicalPlan;
use vector_engine::{ColumnVector, Engine, EngineConfig, Table};

/// One generated table layout and its contents.
#[derive(Clone, Debug)]
struct Case {
    rows: usize,
    vector_size: usize,
    partitions: usize,
    parallelism: usize,
    /// Rows appended by single-row `INSERT`s after the bulk load.
    inserts: usize,
    seed: u64,
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

impl Case {
    /// Total rows after the single-row inserts; ids are `0..total`.
    fn total(&self) -> usize {
        self.rows + self.inserts
    }

    /// Bulk-row ids: a shuffled permutation of `0..rows`, so a block's
    /// min/max spans most of the key range.
    fn ids(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = (0..self.rows as i64).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (mix(self.seed, i as u64) % (i as u64 + 1)) as usize);
        }
        ids
    }

    /// Dyadic floats in [-4, 4): exact, so sums compare bitwise.
    fn float(&self, salt: u64, r: usize) -> f64 {
        (mix(self.seed ^ salt, r as u64) % 512) as f64 / 64.0 - 4.0
    }

    fn small(&self, r: usize) -> i64 {
        (mix(self.seed ^ 0x5a, r as u64) % 4) as i64
    }

    /// Load `t(id, c0, c1, k)`: bulk rows, then single-row inserts.
    fn load(&self, e: &Engine) {
        e.execute("CREATE TABLE t (id INT, c0 FLOAT, c1 FLOAT, k INT)").unwrap();
        e.insert_columns(
            "t",
            vec![
                ColumnVector::Int(self.ids()),
                ColumnVector::Float((0..self.rows).map(|r| self.float(1, r)).collect()),
                ColumnVector::Float((0..self.rows).map(|r| self.float(2, r)).collect()),
                ColumnVector::Int((0..self.rows).map(|r| self.small(r)).collect()),
            ],
        )
        .unwrap();
        for r in self.rows..self.total() {
            e.execute(&format!(
                "INSERT INTO t VALUES ({r}, {}, {}, {})",
                self.float(1, r),
                self.float(2, r),
                self.small(r)
            ))
            .unwrap();
        }
    }

    fn config(&self, sma_pruning: bool, data_dir: Option<&PathBuf>) -> EngineConfig {
        EngineConfig {
            vector_size: self.vector_size,
            partitions: self.partitions,
            parallelism: self.parallelism,
            sma_pruning,
            data_dir: data_dir.map(|d| d.to_string_lossy().into_owned()),
            buffer_pool_pages: 8,
            wal_fsync: false,
            ..Default::default()
        }
    }

    /// The queries one case runs, with constants drawn from the case.
    fn queries(&self) -> Vec<String> {
        let n = self.total() as i64;
        let k = (mix(self.seed, 7) % n as u64) as i64;
        let k2 = (mix(self.seed, 8) % n as u64) as i64;
        let lo = (mix(self.seed, 9) % n as u64) as i64;
        let hi = lo + 1 + (mix(self.seed, 10) % 64) as i64;
        let x = self.float(11, 0);
        let d = (mix(self.seed, 12) % 5) as i64 - 3;
        vec![
            // Equality on shuffled unique keys.
            format!("SELECT * FROM t WHERE id = {k}"),
            format!("SELECT * FROM t WHERE id = {n}"),
            // Ranges.
            format!("SELECT * FROM t WHERE id >= {lo} AND id < {hi}"),
            format!("SELECT id, c1 FROM t WHERE {hi} > id"),
            // Conjuncts the SMA cannot use.
            format!("SELECT * FROM t WHERE c0 + c1 > {x}"),
            format!("SELECT * FROM t WHERE id <> {k}"),
            format!("SELECT * FROM t WHERE id = {k} OR id = {k2}"),
            format!("SELECT * FROM t WHERE CASE WHEN k > 1 THEN c0 ELSE c1 END > {x}"),
            // Multi-column conjunctions.
            format!("SELECT * FROM t WHERE id < {hi} AND c0 > {x}"),
            format!("SELECT id, c0 FROM t WHERE k = 1 AND c1 < {x} AND id > {lo}"),
            // Through aggregation and a join.
            format!("SELECT COUNT(*), SUM(c0) FROM t WHERE id >= {lo}"),
            format!("SELECT k, COUNT(*) FROM t WHERE c1 > {x} GROUP BY k ORDER BY k"),
            format!(
                "SELECT a.id, b.c0 FROM t a, t b WHERE a.id = b.id AND a.id < {hi} AND b.k = 2"
            ),
            // Integer division by zero whenever `k + d` can be 0.
            format!("SELECT * FROM t WHERE id / (k + {d}) > 1"),
        ]
    }
}

/// A fresh directory for one persistent engine, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("idb-scan-eq-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A query's result rows, or its error, in a form that compares floats
/// bitwise.
fn outcome(e: &Engine, sql: &str) -> String {
    match e.execute(sql) {
        Ok(r) => format!("{:?}", r.rows()),
        Err(err) => format!("error: {err}"),
    }
}

/// The predicate of the filter sitting directly on a scan of `t`.
fn scan_filter(plan: &LogicalPlan) -> Option<Expr> {
    match plan {
        LogicalPlan::Filter { input, predicate } if matches!(**input, LogicalPlan::Scan { .. }) => {
            Some(predicate.clone())
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => scan_filter(input),
        _ => None,
    }
}

fn rows_of(batches: &[Batch]) -> String {
    let rows: Vec<_> = batches.iter().flat_map(|b| (0..b.num_rows()).map(|i| b.row(i))).collect();
    format!("{rows:?}")
}

/// Filter over a block-range scan of one partition, with and without the
/// filter-first check.
fn morsel(table: &Arc<Table>, p: usize, range: (usize, usize), pred: &Expr, first: bool) -> String {
    let scan = ScanExec::with_blocks(Arc::clone(table), Vec::new(), Some(p), Some(range));
    let scan = if first { scan.filter_first(pred) } else { scan };
    match drain(Box::new(FilterExec::new(Box::new(scan), pred.clone()))) {
        Ok(batches) => rows_of(&batches),
        Err(err) => format!("error: {err}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn filter_first_scans_match_the_read_every_block_oracle(
        rows in 1usize..600,
        vector_size in prop_oneof![Just(4usize), Just(16), Just(64)],
        partitions in 1usize..4,
        parallelism in 1usize..3,
        inserts in 0usize..4,
        seed in any::<u64>(),
    ) {
        let case = Case { rows, vector_size, partitions, parallelism, inserts, seed };
        let oracle = Engine::new(case.config(false, None));
        case.load(&oracle);
        let dirs = [TempDir::new(), TempDir::new()];
        let engines = [
            ("memory", Engine::new(case.config(true, None))),
            ("persistent", Engine::open(case.config(true, Some(&dirs[0].0))).unwrap()),
            ("persistent oracle", Engine::open(case.config(false, Some(&dirs[1].0))).unwrap()),
        ];
        for (_, e) in &engines {
            case.load(e);
        }
        for sql in case.queries() {
            let want = outcome(&oracle, &sql);
            for (kind, e) in &engines {
                prop_assert_eq!(&outcome(e, &sql), &want, "{} engine: {}", kind, sql);
            }
        }
    }

    #[test]
    fn filter_first_morsels_match_unchecked_morsels(
        rows in 1usize..600,
        vector_size in prop_oneof![Just(4usize), Just(16), Just(64)],
        partitions in 1usize..4,
        inserts in 0usize..4,
        seed in any::<u64>(),
        start in 0usize..8,
        len in 1usize..8,
    ) {
        let case = Case { rows, vector_size, partitions, parallelism: 1, inserts, seed };
        let dir = TempDir::new();
        let engines = [
            Engine::new(case.config(true, None)),
            Engine::open(case.config(true, Some(&dir.0))).unwrap(),
        ];
        for e in &engines {
            case.load(e);
            let table = e.table("t").unwrap();
            for sql in case.queries() {
                let Some(pred) = scan_filter(&e.plan(&sql).unwrap()) else { continue };
                for p in 0..table.partition_count() {
                    let range = (start, start + len);
                    prop_assert_eq!(
                        morsel(&table, p, range, &pred, true),
                        morsel(&table, p, range, &pred, false),
                        "partition {} blocks {:?}: {}", p, range, sql
                    );
                }
            }
        }
    }
}
