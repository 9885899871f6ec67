//! Fused narrow-stage execution is an observational no-op: for every
//! workload, running with [`EngineConfig::fuse_narrow`] on and off yields
//! identical action results AND a bit-identical simulated report — same
//! clock, same energy, same GC counts, same allocation totals.
//!
//! This is the guard for the zero-copy pipeline rework: fusion changes
//! *host* execution (no intermediate `Vec<Payload>` per narrow stage) but
//! must not change anything the simulator can observe, because the fused
//! path replays the exact per-stage charge sequence the stage-at-a-time
//! interpreter would have issued.
//!
//! Fusion also runs on the cluster path, where it must additionally keep
//! each partition's output length and stop at RDDs a checkpoint could
//! serve; the cluster cases compare the full report JSON.

use mheap::Payload;
use panthera::cluster::{FaultPlan, FaultSpec};
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunSummary, ShuffleTransport, SystemConfig, SIM_GB,
};
use proptest::prelude::*;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry, EngineConfig};
use workloads::{build_workload, WorkloadId};

fn run_once(id: WorkloadId, mode: MemoryMode, seed: u64, fuse: bool) -> RunSummary {
    let w = build_workload(id, 0.08, seed);
    let cfg = SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0);
    let ecfg = EngineConfig {
        fuse_narrow: fuse,
        ..EngineConfig::default()
    };
    RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .engine(ecfg)
        .run()
        .expect("valid configuration")
}

fn assert_equivalent(id: WorkloadId, mode: MemoryMode, seed: u64) {
    let fused = run_once(id, mode, seed, true);
    let plain = run_once(id, mode, seed, false);
    let (fused_rep, plain_rep) = (&fused.report, &plain.report);
    let what = format!("{id}/{mode}/seed{seed}");

    // Observable program results: same actions, same values.
    assert_eq!(
        fused.results.len(),
        plain.results.len(),
        "{what}: action count"
    );
    for ((fv, fr), (pv, pr)) in fused.results.iter().zip(plain.results.iter()) {
        assert_eq!(fv, pv, "{what}: action order");
        assert_action_eq(fr, pr, &format!("{what}: {fv}"));
    }

    // Simulated physics: bit-identical.
    assert_eq!(
        fused_rep.elapsed_s.to_bits(),
        plain_rep.elapsed_s.to_bits(),
        "{what}: elapsed"
    );
    assert_eq!(
        fused_rep.mutator_s.to_bits(),
        plain_rep.mutator_s.to_bits(),
        "{what}: mutator"
    );
    assert_eq!(
        fused_rep.energy_j().to_bits(),
        plain_rep.energy_j().to_bits(),
        "{what}: energy"
    );
    assert_eq!(
        fused_rep.gc.minor_count, plain_rep.gc.minor_count,
        "{what}: minor GCs"
    );
    assert_eq!(
        fused_rep.gc.major_count, plain_rep.gc.major_count,
        "{what}: major GCs"
    );
    assert_eq!(
        fused_rep.heap.allocated_bytes, plain_rep.heap.allocated_bytes,
        "{what}: allocation"
    );
    assert_eq!(
        fused_rep.device_bytes, plain_rep.device_bytes,
        "{what}: traffic"
    );
}

/// ActionResult comparison that treats floats bit-exactly (NaN-safe).
fn assert_action_eq(a: &ActionResult, b: &ActionResult, what: &str) {
    match (a, b) {
        (ActionResult::Count(x), ActionResult::Count(y)) => {
            assert_eq!(x, y, "{what}: count");
        }
        _ => assert_eq!(a, b, "{what}: result"),
    }
}

#[test]
fn fusion_is_invisible_on_every_workload() {
    for id in WorkloadId::ALL {
        assert_equivalent(id, MemoryMode::Panthera, 7);
    }
}

#[test]
fn fusion_is_invisible_across_memory_modes() {
    for mode in [
        MemoryMode::Unmanaged,
        MemoryMode::KingsguardWrites,
        MemoryMode::Panthera,
    ] {
        assert_equivalent(WorkloadId::Pr, mode, 11);
        assert_equivalent(WorkloadId::Km, mode, 11);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds: fused and unfused stay equivalent on the workloads
    /// with the longest narrow chains.
    #[test]
    fn fusion_is_invisible_under_random_seeds(seed in 0u64..1_000) {
        assert_equivalent(WorkloadId::Pr, MemoryMode::Panthera, seed);
        assert_equivalent(WorkloadId::Tc, MemoryMode::Unmanaged, seed);
    }
}

// ------------------------------------------------------------- cluster path

/// One cluster run of `build` with fusion on or off.
fn run_cluster_once(
    build: &(dyn Fn() -> (Program, FnTable, DataRegistry) + Sync),
    cfg: &SystemConfig,
    plan: &FaultPlan,
    fuse: bool,
) -> RunSummary {
    let ecfg = EngineConfig {
        fuse_narrow: fuse,
        ..EngineConfig::default()
    };
    RunBuilder::from_build(build)
        .config(cfg.clone())
        .engine(ecfg)
        .faults(plan)
        .run()
        .expect("valid configuration")
}

/// Fused and unfused cluster runs agree on the results, the aggregate
/// report, and every executor's report, byte for byte.
fn assert_cluster_equivalent(
    build: &(dyn Fn() -> (Program, FnTable, DataRegistry) + Sync),
    cfg: &SystemConfig,
    plan: &FaultPlan,
    what: &str,
) -> RunSummary {
    let fused = run_cluster_once(build, cfg, plan, true);
    let plain = run_cluster_once(build, cfg, plan, false);
    assert_eq!(fused.results, plain.results, "{what}: results");
    assert_eq!(
        fused.report.to_json().to_compact(),
        plain.report.to_json().to_compact(),
        "{what}: report"
    );
    assert_eq!(fused.per_executor.len(), plain.per_executor.len());
    for (e, (f, p)) in fused
        .per_executor
        .iter()
        .zip(&plain.per_executor)
        .enumerate()
    {
        assert_eq!(
            f.to_json().to_compact(),
            p.to_json().to_compact(),
            "{what}: executor {e} report"
        );
    }
    fused
}

fn cluster_config(executors: u16, transport: ShuffleTransport) -> SystemConfig {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg.transport = transport;
    cfg
}

#[test]
fn fusion_is_invisible_on_the_cluster_path() {
    for id in [WorkloadId::Pr, WorkloadId::Cc] {
        let build = move || {
            let w = build_workload(id, 0.08, 7);
            (w.program, w.fns, w.data)
        };
        for executors in [2, 4] {
            for transport in [ShuffleTransport::Serde, ShuffleTransport::SharedRegion] {
                assert_cluster_equivalent(
                    &build,
                    &cluster_config(executors, transport),
                    &FaultPlan::none(),
                    &format!("{id}/E={executors}/{transport:?}"),
                );
            }
        }
    }
}

#[test]
fn fusion_is_invisible_across_a_checkpointed_crash() {
    let build = || {
        let w = build_workload(WorkloadId::Pr, 0.08, 7);
        (w.program, w.fns, w.data)
    };
    let mut cfg = cluster_config(2, ShuffleTransport::Serde);
    cfg.recovery = RecoveryPolicy::CheckpointEvery(1);
    let clean = run_cluster_once(&build, &cfg, &FaultPlan::none(), true);
    let span_ns = clean.report.elapsed_s * 1e9;
    // One crash at a seeded virtual time in the middle of the run: it
    // lands mid-stage, and replay restores shuffle outputs from NVM.
    let plan = FaultPlan::generate(
        17,
        2,
        FaultSpec {
            crashes: 0,
            max_losses: 0,
            max_alloc_faults: 0,
            vcrashes: 1,
            vtime_lo_ns: 0.25 * span_ns,
            vtime_hi_ns: 0.75 * span_ns,
            ..FaultSpec::default()
        },
    );
    assert_eq!(plan.vcrashes.len(), 1);
    let faulted = assert_cluster_equivalent(&build, &cfg, &plan, "pr/CheckpointEvery(1)/crash");
    assert_eq!(faulted.report.recovery.executor_crashes, 1);
    assert!(faulted.report.recovery.partitions_restored > 0);
    assert_eq!(faulted.results, clean.results);
}

/// A narrow RDD marked `checkpoint()`, snapshotted by its first action,
/// then read by a narrow chain: every later evaluation of the chain is
/// served from the snapshot, so fusion must stop there.
fn checkpointed_chain_program() -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("checkpointed-chain");
    let scale = b.map_fn(|p| match p {
        Payload::Long(x) => Payload::Long(x * 3 + 1),
        other => other.clone(),
    });
    let odd = b.filter_fn(|p| matches!(p, Payload::Long(x) if x % 2 == 1));
    let halve = b.map_fn(|p| match p {
        Payload::Long(x) => Payload::Long(x / 2),
        other => other.clone(),
    });
    let src = b.source("nums");
    let ys = b.bind("ys", src.map(scale).filter(odd));
    b.checkpoint(ys);
    b.action(ys, ActionKind::Count);
    let zs = b.bind("zs", b.var(ys).map(halve).map(scale).filter(odd));
    b.loop_n(3, |b| b.action(zs, ActionKind::Collect));
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("nums", (0..3_000).map(Payload::Long).collect());
    (program, fns, data)
}

#[test]
fn fusion_stops_at_checkpointed_narrow_rdds() {
    for transport in [ShuffleTransport::Serde, ShuffleTransport::SharedRegion] {
        let run = assert_cluster_equivalent(
            &checkpointed_chain_program,
            &cluster_config(2, transport),
            &FaultPlan::none(),
            &format!("checkpointed-chain/{transport:?}"),
        );
        assert!(run.report.recovery.checkpoint_writes > 0);
    }
}
