//! Integration test of the Table 3 memory-tracking allocator: registered
//! as the global allocator for this test binary only.

use indb_ml::core::memtrack::{self, TrackingAllocator};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// The tracker's live/peak/baseline counters are process-global, and
/// `reset_peak` re-baselines them for every thread. The test harness runs
/// tests on parallel threads, so each test holds this lock for its whole
/// measurement, or one test's reset lands inside the other's.
static MEASURING: Mutex<()> = Mutex::new(());

fn measure_alone() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counters are still valid.
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn peak_accounting_tracks_large_allocations() {
    let _alone = measure_alone();
    memtrack::reset_peak();
    let before = memtrack::peak_bytes();
    {
        let big = vec![0u8; 8 * 1024 * 1024];
        std::hint::black_box(&big);
        assert!(
            memtrack::peak_bytes() >= before + 8 * 1024 * 1024,
            "peak must include the live 8 MiB buffer"
        );
    }
    // Dropping does not reduce the recorded peak.
    assert!(memtrack::peak_bytes() >= 8 * 1024 * 1024);

    // Resetting re-baselines at the current live size.
    memtrack::reset_peak();
    assert!(memtrack::peak_bytes() < 1024 * 1024);
}

#[test]
fn approaches_with_larger_working_sets_report_larger_peaks() {
    use indb_ml::core::{Approach, Experiment, ExperimentConfig, Workload};
    use vector_engine::EngineConfig;

    let _alone = measure_alone();
    let config = ExperimentConfig {
        engine: EngineConfig {
            vector_size: 256,
            partitions: 2,
            parallelism: 1,
            ..Default::default()
        },
        ..ExperimentConfig::new(Workload::Dense { width: 16, depth: 2 }, 2_000)
    };
    let ex = Experiment::build(config).unwrap();

    let peak_of = |a: Approach| {
        memtrack::reset_peak();
        ex.run(a, false).unwrap();
        memtrack::peak_bytes()
    };
    let modeljoin = peak_of(Approach::ModelJoinCpu);
    let ml2sql = peak_of(Approach::Ml2Sql);
    let python = peak_of(Approach::TfPythonCpu);

    // The Table 3 ordering: the pipelined native operator stays lowest;
    // the generic-operator SQL plan and the row-boxing Python client are
    // substantially larger.
    assert!(modeljoin > 0);
    assert!(ml2sql > modeljoin, "ML-To-SQL ({ml2sql}) should exceed ModelJoin ({modeljoin})");
    assert!(python > modeljoin, "TF(Python) ({python}) should exceed ModelJoin ({modeljoin})");
}
