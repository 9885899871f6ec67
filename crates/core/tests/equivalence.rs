//! Cluster-mode equivalence guarantees (ISSUE 4 acceptance criteria):
//!
//! 1. An `E = 1` cluster run matches the classic single-runtime path —
//!    identical action results AND a bit-identical simulated report.
//! 2. An `E`-executor run produces a bit-identical report whether the
//!    host uses 1 thread or `E` threads (the exchange is a Kahn network;
//!    host scheduling cannot change a simulated value).
//! 3. Shuffle semantics are partition- and executor-independent:
//!    `group_by_key` / `join` / `distinct` results from an `E`-executor
//!    run equal the `E = 1` run for arbitrary partition counts, including
//!    the `partition_sizes` edge cases (`n < parts`, `parts = 1`, empty).

use mheap::Payload;
use panthera::cluster::{run_cluster, ClusterOutcome};
use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
use proptest::prelude::*;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry, EngineConfig};
use workloads::{build_workload, WorkloadId};

fn cluster_config(mode: MemoryMode, executors: u16) -> SystemConfig {
    let mut cfg = SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg
}

fn run_workload_cluster(
    id: WorkloadId,
    mode: MemoryMode,
    scale: f64,
    seed: u64,
    executors: u16,
    host_threads: usize,
) -> ClusterOutcome {
    let cfg = cluster_config(mode, executors);
    run_cluster(
        || {
            let w = build_workload(id, scale, seed);
            (w.program, w.fns, w.data)
        },
        &cfg,
        EngineConfig::default(),
        host_threads,
    )
    .expect("valid cluster config")
}

fn assert_results_eq(a: &[(String, ActionResult)], b: &[(String, ActionResult)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: action count");
    for ((av, ar), (bv, br)) in a.iter().zip(b.iter()) {
        assert_eq!(av, bv, "{what}: action order");
        assert_eq!(ar, br, "{what}: {av}");
    }
}

#[test]
fn single_executor_cluster_matches_legacy_runtime() {
    for (id, mode) in [
        (WorkloadId::Tc, MemoryMode::Panthera),
        (WorkloadId::Pr, MemoryMode::Panthera),
        (WorkloadId::Tc, MemoryMode::Unmanaged),
    ] {
        let out = run_workload_cluster(id, mode, 0.06, 13, 1, 1);
        let w = build_workload(id, 0.06, 13);
        let legacy = RunBuilder::new(&w.program, w.fns, w.data)
            .config(cluster_config(mode, 1))
            .run()
            .expect("valid configuration");
        let what = format!("{id}/{mode}");
        assert_results_eq(&out.results, &legacy.results, &what);
        assert_eq!(
            out.report.to_json().to_compact(),
            legacy.report.to_json().to_compact(),
            "{what}: E=1 cluster report must be bit-identical to the legacy runtime"
        );
        assert_eq!(out.per_executor.len(), 1, "{what}: one sub-report");
    }
}

#[test]
fn host_thread_count_is_invisible() {
    for executors in [2u16, 4] {
        let serial =
            run_workload_cluster(WorkloadId::Pr, MemoryMode::Panthera, 0.05, 7, executors, 1);
        let threaded = run_workload_cluster(
            WorkloadId::Pr,
            MemoryMode::Panthera,
            0.05,
            7,
            executors,
            usize::from(executors),
        );
        let what = format!("E={executors}");
        assert_results_eq(&serial.results, &threaded.results, &what);
        assert_eq!(
            serial.report.to_json().to_compact(),
            threaded.report.to_json().to_compact(),
            "{what}: aggregate report must not depend on host threads"
        );
        for (e, (s, t)) in serial
            .per_executor
            .iter()
            .zip(threaded.per_executor.iter())
            .enumerate()
        {
            assert_eq!(
                s.to_json().to_compact(),
                t.to_json().to_compact(),
                "{what}: executor {e} sub-report must not depend on host threads"
            );
        }
    }
}

#[test]
fn count_actions_are_executor_count_independent() {
    let base = run_workload_cluster(WorkloadId::Tc, MemoryMode::Panthera, 0.06, 13, 1, 1);
    for executors in [2u16, 3, 4] {
        let out = run_workload_cluster(
            WorkloadId::Tc,
            MemoryMode::Panthera,
            0.06,
            13,
            executors,
            usize::from(executors),
        );
        assert_results_eq(&out.results, &base.results, &format!("Tc E={executors}"));
        assert_eq!(out.per_executor.len(), usize::from(executors));
    }
}

#[test]
fn heap_verifier_passes_on_every_executor() {
    let mut cfg = cluster_config(MemoryMode::Panthera, 3);
    cfg.verify_heap = true; // a violation on any executor's heap aborts
    let out = run_cluster(
        || {
            let w = build_workload(WorkloadId::Tc, 0.05, 5);
            (w.program, w.fns, w.data)
        },
        &cfg,
        EngineConfig::default(),
        3,
    )
    .expect("valid cluster config");
    assert_eq!(out.per_executor.len(), 3);
}

#[test]
fn executor_count_must_be_positive() {
    let cfg = cluster_config(MemoryMode::Panthera, 0);
    let err = run_cluster(
        || {
            let w = build_workload(WorkloadId::Tc, 0.05, 5);
            (w.program, w.fns, w.data)
        },
        &cfg,
        EngineConfig::default(),
        1,
    )
    .unwrap_err();
    assert!(err.message().contains("executors"), "{err}");
}

// ---------------------------------------------------------------------------
// Cross-executor shuffle semantics: group_by_key / join / distinct.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum ShuffleOp {
    GroupBy,
    Distinct,
    Join,
}

/// A one-shuffle program collecting its output, over `n` keyed records
/// (keys folded into `n / 3 + 1` groups so buckets collide).
fn shuffle_case(op: ShuffleOp, n: usize) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("shuffle-case");
    let left = b.source("left");
    let expr = match op {
        ShuffleOp::GroupBy => left.group_by_key(),
        ShuffleOp::Distinct => left.distinct(),
        ShuffleOp::Join => {
            let right = b.source("right");
            left.join(right)
        }
    };
    let out = b.bind("out", expr);
    b.action(out, ActionKind::Collect);
    b.action(out, ActionKind::Count);
    let (program, fns) = b.finish();

    let keys = (n / 3 + 1) as i64;
    let mut data = DataRegistry::new();
    data.register(
        "left",
        (0..n)
            .map(|i| Payload::keyed(i as i64 % keys, Payload::Long(i as i64 * 31 + 7)))
            .collect(),
    );
    if matches!(op, ShuffleOp::Join) {
        data.register(
            "right",
            (0..n / 2)
                .map(|i| Payload::keyed(i as i64 % keys, Payload::Long(i as i64 * 13 + 1)))
                .collect(),
        );
    }
    (program, fns, data)
}

fn run_shuffle_case(op: ShuffleOp, n: usize, partitions: usize, executors: u16) -> ClusterOutcome {
    let cfg = cluster_config(MemoryMode::Panthera, executors);
    let ecfg = EngineConfig {
        partitions,
        ..EngineConfig::default()
    };
    run_cluster(|| shuffle_case(op, n), &cfg, ecfg, usize::from(executors))
        .expect("valid cluster config")
}

#[test]
fn shuffle_results_match_single_executor_across_partitionings() {
    for op in [ShuffleOp::GroupBy, ShuffleOp::Distinct, ShuffleOp::Join] {
        // n < parts, parts = 1, empty input, and a "normal" shape.
        for n in [0usize, 1, 2, 5, 40] {
            for partitions in [1usize, 3, 17] {
                let base = run_shuffle_case(op, n, partitions, 1);
                for executors in [2u16, 3] {
                    let out = run_shuffle_case(op, n, partitions, executors);
                    assert_results_eq(
                        &out.results,
                        &base.results,
                        &format!("{op:?} n={n} parts={partitions} E={executors}"),
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shapes: an E-executor shuffle equals the E=1 run.
    #[test]
    fn shuffle_equivalence_under_random_shapes(
        n in 0usize..60,
        partitions in 1usize..12,
        executors in 2u16..=4,
        op_pick in 0usize..3,
    ) {
        let op = [ShuffleOp::GroupBy, ShuffleOp::Distinct, ShuffleOp::Join][op_pick];
        let base = run_shuffle_case(op, n, partitions, 1);
        let out = run_shuffle_case(op, n, partitions, executors);
        assert_results_eq(
            &out.results,
            &base.results,
            &format!("{op:?} n={n} parts={partitions} E={executors}"),
        );
    }
}
