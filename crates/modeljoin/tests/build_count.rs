//! Model-cache tests that assert deltas of the process-global
//! [`build_count`]. They live in their own test binary because any model
//! build elsewhere in the process (the operator and build unit tests run
//! beside each other in the lib binary) moves the count mid-measurement.
//! Within this binary, each test holds one static lock for its whole
//! measurement, since the harness runs tests on parallel threads.

use model_repr::{load_into_engine, Layout, ModelMeta};
use modeljoin::operator::execute_model_join;
use modeljoin::{build_count, ModelCache, SharedModel};
use nn::paper;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tensor::Device;
use vector_engine::{Engine, EngineConfig, Table};

static BUILDING: Mutex<()> = Mutex::new(());

fn build_alone() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the build count is still valid.
    BUILDING.lock().unwrap_or_else(PoisonError::into_inner)
}

fn engine_with_model() -> (Engine, Arc<Table>, ModelMeta) {
    let engine = Engine::new(EngineConfig {
        vector_size: 16,
        partitions: 2,
        parallelism: 2,
        ..Default::default()
    });
    let model = paper::dense_model(4, 2, 11);
    let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
    (engine, table, meta)
}

#[test]
fn unchanged_table_builds_exactly_once() {
    let _alone = build_alone();
    let (_engine, table, meta) = engine_with_model();
    let cache = ModelCache::new();
    let before = build_count();
    let a = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
    let b = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the Arc");
    assert_eq!(build_count() - before, 1, "exactly one build phase ran");
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
}

/// fp32 and int8 variants of one model coexist under their dtype keys:
/// the quantized lookup reuses the fp32 build (one build phase total),
/// repeat lookups of either dtype hit, and invalidation drops both.
#[test]
fn dtypes_coexist_and_share_one_build() {
    let _alone = build_alone();
    let (_engine, table, meta) = engine_with_model();
    let cache = ModelCache::new();
    let before = build_count();
    let built = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
    let q1 =
        cache.get_or_build_quantized(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
    let q2 =
        cache.get_or_build_quantized(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
    assert!(Arc::ptr_eq(&q1, &q2), "second int8 lookup must reuse the Arc");
    assert_eq!(q1.input_dim, built.input_dim);
    assert_eq!(build_count() - before, 1, "int8 quantizes the cached fp32 build");
    assert_eq!((cache.hits(), cache.misses()), (1, 1), "int8 miss re-reads the fp32 entry");
    assert_eq!((cache.hits_i8(), cache.misses_i8()), (1, 1));
    assert_eq!(cache.len(), 2, "one entry per dtype");
    cache.invalidate("m");
    assert!(cache.is_empty(), "invalidation drops both dtype entries");
}

/// Two *queries* against an unchanged model table share one build via the
/// cache + [`SharedModel::with_built`].
#[test]
fn two_queries_one_build() {
    let _alone = build_alone();
    let engine = Engine::new(EngineConfig {
        vector_size: 16,
        partitions: 2,
        parallelism: 2,
        ..Default::default()
    });
    let model = paper::dense_model(4, 2, 3);
    engine.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
    engine
        .execute("INSERT INTO facts VALUES (1, 0.1, 0.2, 0.3, 0.4), (2, 0.5, 0.6, 0.7, 0.8)")
        .unwrap();
    let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();

    let cache = ModelCache::new();
    let before = build_count();
    let mut first: Option<Vec<f64>> = None;
    for _ in 0..2 {
        let built = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
        let shared = SharedModel::with_built(
            Arc::clone(&table),
            meta.clone(),
            Layout::NodeId,
            Device::cpu(),
            built,
        );
        let batches =
            execute_model_join(&engine, "facts", &["c0", "c1", "c2", "c3"], &["id"], &shared, 2)
                .unwrap();
        let preds: Vec<f64> =
            batches.iter().flat_map(|b| b.column(1).as_float().unwrap().to_vec()).collect();
        match &first {
            None => first = Some(preds),
            Some(expected) => assert_eq!(expected, &preds, "cached build changes results"),
        }
    }
    assert_eq!(build_count() - before, 1, "two queries, one build phase");
}
