//! Shuffle-transport equivalence guarantees (ISSUE 6 acceptance criteria):
//!
//! 1. `ShuffleTransport::SharedRegion` computes action results
//!    bit-identical to the serde transport for every shuffle op
//!    (`group_by_key` / `join` / `distinct`) at `E = 2` and `E = 4` —
//!    only the simulated transfer cost differs, never a value.
//! 2. A colocated (shared-region) shuffle charges **zero** serde bytes:
//!    the engine's `fastpath_bytes` counter accounts every transferred
//!    byte at memory bandwidth, and the exchange's shared-region
//!    residency counter observes the deposits.
//! 3. An `E = 1` cluster under the shared-region transport is still
//!    bit-identical to the legacy single-runtime report (no cross-
//!    executor traffic exists, so no fast-path charge may appear).
//! 4. Reports are independent of the host-thread budget under the new
//!    transport, exactly as under serde.

use mheap::Payload;
use panthera::cluster::{run_cluster, ClusterOutcome};
use panthera::{MemoryMode, RunBuilder, ShuffleTransport, SystemConfig, SIM_GB};
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry, EngineConfig};
use workloads::{build_workload, WorkloadId};

fn transport_config(transport: ShuffleTransport, executors: u16) -> SystemConfig {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg.transport = transport;
    cfg
}

fn assert_results_eq(a: &[(String, ActionResult)], b: &[(String, ActionResult)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: action count");
    for ((av, ar), (bv, br)) in a.iter().zip(b.iter()) {
        assert_eq!(av, bv, "{what}: action order");
        assert_eq!(ar, br, "{what}: {av}");
    }
}

#[derive(Clone, Copy, Debug)]
enum ShuffleOp {
    GroupBy,
    Distinct,
    Join,
}

/// A one-shuffle program collecting its output, over `n` keyed records
/// (keys folded into `n / 3 + 1` groups so buckets collide across
/// executors).
fn shuffle_case(op: ShuffleOp, n: usize) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("transport-case");
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

fn run_shuffle_case(
    op: ShuffleOp,
    n: usize,
    transport: ShuffleTransport,
    executors: u16,
    host_threads: usize,
) -> ClusterOutcome {
    let cfg = transport_config(transport, executors);
    run_cluster(
        || shuffle_case(op, n),
        &cfg,
        EngineConfig::default(),
        host_threads,
    )
    .expect("valid cluster config")
}

#[test]
fn shared_region_results_match_serde() {
    for op in [ShuffleOp::GroupBy, ShuffleOp::Distinct, ShuffleOp::Join] {
        for n in [0usize, 5, 48] {
            for executors in [2u16, 4] {
                let what = format!("{op:?} n={n} E={executors}");
                let e = usize::from(executors);
                let serde = run_shuffle_case(op, n, ShuffleTransport::Serde, executors, e);
                let shared = run_shuffle_case(op, n, ShuffleTransport::SharedRegion, executors, e);
                assert_results_eq(&shared.results, &serde.results, &what);
                assert_eq!(
                    serde.shared_region_bytes, 0,
                    "{what}: serde transport must not touch the shared region"
                );
                if n > 0 {
                    assert!(
                        shared.shared_region_bytes > 0,
                        "{what}: shared-region deposits must be accounted"
                    );
                }
                // Tiny inputs can hash entirely onto locally-owned
                // partitions; only the large shape is guaranteed to move
                // bytes between executors.
                if n >= 40 {
                    assert!(
                        shared.report.exec.fastpath_bytes > 0,
                        "{what}: cross-executor transfer must ride the fast path"
                    );
                }
                assert_eq!(
                    serde.report.exec.fastpath_bytes, 0,
                    "{what}: serde transport must never charge the fast path"
                );
                // The fast path replaces serde + net with a memory-
                // bandwidth copy; the modelled cluster must finish no
                // later than the serde run.
                assert!(
                    shared.report.elapsed_s <= serde.report.elapsed_s,
                    "{what}: shared-region run slower than serde ({} > {})",
                    shared.report.elapsed_s,
                    serde.report.elapsed_s
                );
            }
        }
    }
}

#[test]
fn shared_region_workloads_match_serde() {
    for (id, scale, seed) in [(WorkloadId::Pr, 0.05, 7), (WorkloadId::Tc, 0.06, 13)] {
        for executors in [2u16, 4] {
            let what = format!("{id} E={executors}");
            let e = usize::from(executors);
            let run = |transport| {
                let cfg = transport_config(transport, executors);
                run_cluster(
                    || {
                        let w = build_workload(id, scale, seed);
                        (w.program, w.fns, w.data)
                    },
                    &cfg,
                    EngineConfig::default(),
                    e,
                )
                .expect("valid cluster config")
            };
            let serde = run(ShuffleTransport::Serde);
            let shared = run(ShuffleTransport::SharedRegion);
            assert_results_eq(&shared.results, &serde.results, &what);
            assert!(
                shared.report.elapsed_s <= serde.report.elapsed_s,
                "{what}: shared-region run slower than serde"
            );
        }
    }
}

#[test]
fn single_executor_shared_region_matches_legacy_runtime() {
    // With one executor every shuffle is fully local: transfer_cost is 0,
    // so the shared-region transport must not charge anything — the E=1
    // cluster report stays bit-identical to the single-runtime engine.
    let cfg = transport_config(ShuffleTransport::SharedRegion, 1);
    let out = run_cluster(
        || {
            let w = build_workload(WorkloadId::Pr, 0.05, 7);
            (w.program, w.fns, w.data)
        },
        &cfg,
        EngineConfig::default(),
        1,
    )
    .expect("valid cluster config");
    let w = build_workload(WorkloadId::Pr, 0.05, 7);
    let legacy = RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .expect("valid configuration");
    assert_results_eq(&out.results, &legacy.results, "Pr E=1 shared-region");
    assert_eq!(
        out.report.to_json().to_compact(),
        legacy.report.to_json().to_compact(),
        "E=1 shared-region cluster report must be bit-identical to the legacy runtime"
    );
    assert_eq!(
        out.report.exec.fastpath_bytes, 0,
        "no cross-executor bytes at E=1"
    );
}

#[test]
fn shared_region_reports_are_host_thread_independent() {
    for executors in [2u16, 4] {
        let serial = run_shuffle_case(
            ShuffleOp::Join,
            40,
            ShuffleTransport::SharedRegion,
            executors,
            1,
        );
        let threaded = run_shuffle_case(
            ShuffleOp::Join,
            40,
            ShuffleTransport::SharedRegion,
            executors,
            usize::from(executors),
        );
        let what = format!("E={executors}");
        assert_results_eq(&serial.results, &threaded.results, &what);
        assert_eq!(
            serial.report.to_json().to_compact(),
            threaded.report.to_json().to_compact(),
            "{what}: shared-region aggregate must not depend on host threads"
        );
        assert_eq!(
            serial.shared_region_bytes, threaded.shared_region_bytes,
            "{what}: region residency must not depend on host threads"
        );
    }
}
