//! Integration tests of the SQL substrate spanning parser → planner →
//! optimizer → vectorized execution, with the query shapes the ModelJoin
//! workload leans on.

use vector_engine::{ColumnVector, Engine, EngineConfig, Value};

fn engine() -> Engine {
    let e = Engine::new(EngineConfig {
        vector_size: 8,
        partitions: 3,
        parallelism: 2,
        ..Default::default()
    });
    e.execute("CREATE TABLE facts (id INT, grp INT, v FLOAT)").unwrap();
    let n = 100i64;
    e.insert_columns(
        "facts",
        vec![
            ColumnVector::Int((0..n).collect()),
            ColumnVector::Int((0..n).map(|i| i % 10).collect()),
            ColumnVector::Float((0..n).map(|i| i as f64 / 10.0).collect()),
        ],
    )
    .unwrap();
    e.table("facts").unwrap().declare_unique("id").unwrap();
    e
}

#[test]
fn nested_subquery_with_aggregation_and_join() {
    let e = engine();
    // The ML-To-SQL skeleton: cross join + filter + group + nested reuse.
    let q = e
        .execute(
            "SELECT outer_q.grp, outer_q.s FROM \
             (SELECT grp, SUM(v) AS s FROM facts GROUP BY grp) AS outer_q \
             WHERE outer_q.s > 40 ORDER BY outer_q.grp",
        )
        .unwrap();
    // groups 0..9; group g has sum over v = (g + g+10 + ... + g+90)/10.
    assert!(q.num_rows() > 0);
    for row in q.rows() {
        assert!(row[1].as_f64().unwrap() > 40.0);
    }
}

#[test]
fn self_join_windowing_shape() {
    let e = engine();
    let q = e
        .execute(
            "SELECT a.id, a.v, b.v AS nxt FROM facts a, facts b \
             WHERE b.id = a.id + 1 ORDER BY a.id LIMIT 3",
        )
        .unwrap();
    assert_eq!(q.num_rows(), 3);
    let rows = q.rows();
    assert_eq!(rows[0][0], Value::Int(0));
    assert!((rows[0][2].as_f64().unwrap() - 0.1).abs() < 1e-12);
}

#[test]
fn case_when_column_switch() {
    let e = engine();
    let q = e
        .execute(
            "SELECT id, CASE WHEN grp = 0 THEN v WHEN grp = 1 THEN v * 10 ELSE 0.0 END AS x \
             FROM facts WHERE id < 3 ORDER BY id",
        )
        .unwrap();
    let rows = q.rows();
    assert_eq!(rows[0][1].as_f64().unwrap(), 0.0); // grp 0 -> v = 0.0
    assert!((rows[1][1].as_f64().unwrap() - 1.0).abs() < 1e-12); // grp 1 -> 0.1*10
    assert_eq!(rows[2][1].as_f64().unwrap(), 0.0); // grp 2 -> ELSE
}

#[test]
fn sma_pruning_does_not_change_results() {
    let pruned = Engine::new(EngineConfig {
        vector_size: 8,
        partitions: 3,
        parallelism: 2,
        sma_pruning: true,
        ..Default::default()
    });
    let unpruned = Engine::new(EngineConfig {
        vector_size: 8,
        partitions: 3,
        parallelism: 2,
        sma_pruning: false,
        ..Default::default()
    });
    for e in [&pruned, &unpruned] {
        e.execute("CREATE TABLE t (k INT, v FLOAT)").unwrap();
        e.insert_columns(
            "t",
            vec![
                ColumnVector::Int((0..200).collect()),
                ColumnVector::Float((0..200).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
    }
    let sql = "SELECT SUM(v) AS s, COUNT(*) AS n FROM t WHERE k >= 50 AND k <= 60";
    assert_eq!(pruned.execute(sql).unwrap().rows(), unpruned.execute(sql).unwrap().rows());
}

#[test]
fn hash_join_extraction_matches_cross_join_semantics() {
    let with_hj = engine();
    let no_hj = Engine::new(EngineConfig {
        vector_size: 8,
        partitions: 3,
        parallelism: 2,
        hash_join: false,
        predicate_pushdown: false,
        ..Default::default()
    });
    no_hj.execute("CREATE TABLE facts (id INT, grp INT, v FLOAT)").unwrap();
    no_hj
        .insert_columns(
            "facts",
            vec![
                ColumnVector::Int((0..100).collect()),
                ColumnVector::Int((0..100).map(|i| i % 10).collect()),
                ColumnVector::Float((0..100).map(|i| i as f64 / 10.0).collect()),
            ],
        )
        .unwrap();
    let sql = "SELECT a.id, b.id FROM facts a, facts b \
               WHERE a.id = b.id - 1 AND a.id < 5 ORDER BY 1";
    let fast = with_hj.execute(sql).unwrap().rows();
    let slow = no_hj.execute(sql).unwrap().rows();
    assert_eq!(fast, slow);
    assert_eq!(fast.len(), 5);
}

#[test]
fn order_by_limit_across_partitions() {
    let e = engine();
    let q = e.execute("SELECT id FROM facts ORDER BY id DESC LIMIT 4").unwrap();
    let ids: Vec<Value> = q.rows().into_iter().map(|mut r| r.remove(0)).collect();
    assert_eq!(ids, vec![Value::Int(99), Value::Int(98), Value::Int(97), Value::Int(96)]);
}

#[test]
fn arithmetic_and_functions_compose() {
    let e = engine();
    let q = e
        .execute(
            "SELECT ABS(-v) AS a, SQRT(v * v) AS s, POWER(2.0, grp) AS p \
             FROM facts WHERE id = 35",
        )
        .unwrap();
    let row = q.rows().remove(0);
    assert!((row[0].as_f64().unwrap() - 3.5).abs() < 1e-12);
    assert!((row[1].as_f64().unwrap() - 3.5).abs() < 1e-12);
    assert!((row[2].as_f64().unwrap() - 32.0).abs() < 1e-12); // grp = 5
}

#[test]
fn insert_select_round_trip_through_sql_only() {
    let e = Engine::new(EngineConfig::test_small());
    e.execute("CREATE TABLE t (a INT, b VARCHAR, c BOOLEAN)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 'x', TRUE), (2, 'y', FALSE)").unwrap();
    let q = e.execute("SELECT a, b FROM t WHERE c ORDER BY a").unwrap();
    assert_eq!(q.rows(), vec![vec![Value::Int(1), Value::Str("x".into())]]);
}

#[test]
fn error_paths_surface_cleanly() {
    let e = engine();
    assert!(e.execute("SELECT nosuch FROM facts").is_err());
    assert!(e.execute("SELECT * FROM nosuch").is_err());
    assert!(e.execute("SELECT id FROM facts WHERE v").is_err()); // non-bool? v is FLOAT
    assert!(e.execute("SELECT SUM(b) FROM facts").is_err()); // no column b
    assert!(e.execute("CREATE TABLE facts (x INT)").is_err()); // duplicate
    assert!(e.execute("SELEC 1").is_err());
}

#[test]
fn large_multi_batch_aggregation_is_exact() {
    let e = Engine::new(EngineConfig::default());
    e.execute("CREATE TABLE big (id INT, v FLOAT)").unwrap();
    let n = 50_000i64;
    e.insert_columns(
        "big",
        vec![ColumnVector::Int((0..n).collect()), ColumnVector::Float(vec![1.0; n as usize])],
    )
    .unwrap();
    let q = e.execute("SELECT SUM(v) AS s, COUNT(*) AS c FROM big").unwrap();
    assert_eq!(q.rows(), vec![vec![Value::Float(50_000.0), Value::Int(50_000)]]);
}

/// A query that selects no row still returns one typed, empty column per
/// output name, so `column` finds every name (it used to index past an
/// empty column list).
#[test]
fn empty_select_returns_typed_empty_columns() {
    let e = engine();
    e.execute("CREATE TABLE t (id INT, x FLOAT)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
    for sql in ["SELECT id, x FROM t WHERE id = 99", "SELECT id, x FROM t WHERE id = 99 ORDER BY x"]
    {
        let q = e.execute(sql).unwrap();
        assert_eq!(q.names, vec!["id", "x"], "{sql}");
        assert_eq!(q.num_columns(), q.names.len(), "{sql}");
        assert_eq!(q.num_rows(), 0, "{sql}");
        assert_eq!(q.column("id").unwrap(), &ColumnVector::Int(Vec::new()), "{sql}");
        assert_eq!(q.column("x").unwrap(), &ColumnVector::Float(Vec::new()), "{sql}");
    }
}
