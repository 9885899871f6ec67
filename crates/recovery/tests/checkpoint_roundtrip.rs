//! Checkpoint snapshot/restore fidelity and recomputation-depth bounds.
//!
//! 1. `Payload -> WirePayload -> NvmCheckpointStore -> Payload` is
//!    bit-identical for arbitrary payload trees: structural equality,
//!    fingerprints, modelled bytes, and interned-text symbols all survive
//!    the round trip, and the memory tag on a snapshot is restored
//!    verbatim.
//! 2. `RecoveryPolicy::CheckpointEvery(n)` bounds the lineage depth a
//!    restarted executor recomputes to fewer than `n` shuffle stages.

use mheap::{Payload, WirePayload};
use panthera::cluster::{run_cluster_faulted, ClusterOutcome, FaultPlan, NvmCheckpointStore};
use panthera::{MemoryMode, RecoveryPolicy, SystemConfig, SIM_GB};
use proptest::prelude::*;
use sparklang::ast::MemoryTag;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder, StorageLevel};
use sparklet::{CheckpointEntry, CheckpointStore, DataRegistry, EngineConfig, InternTable};

// ---------------------------------------------------------------------------
// Snapshot → restore fidelity.
// ---------------------------------------------------------------------------

fn payload_strategy() -> BoxedStrategy<Payload> {
    let leaf = prop_oneof![
        Just(Payload::Unit),
        any::<i64>().prop_map(Payload::Long),
        any::<i64>().prop_map(|v| Payload::Double(v as f64 / 257.0)),
        (0u64..64, 0u32..40).prop_map(|(sym, len)| Payload::Text { sym, len }),
        prop::collection::vec(any::<i64>(), 0..6).prop_map(Payload::longs),
        prop::collection::vec(any::<i64>(), 0..6)
            .prop_map(|v| Payload::doubles(v.into_iter().map(|x| x as f64).collect())),
        (0u64..4096).prop_map(|len| Payload::Bytes { len }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Payload::pair(a, b)),
            prop::collection::vec(inner, 0..4).prop_map(Payload::list),
        ]
    })
}

fn roundtrip_through_store(records: &[Payload], tag: Option<MemoryTag>) -> CheckpointEntry {
    let store = NvmCheckpointStore::new();
    let wire: Vec<WirePayload> = records.iter().map(WirePayload::from).collect();
    let bytes: u64 = wire.iter().map(WirePayload::model_bytes).sum();
    let entry = CheckpointEntry {
        parts: vec![(0, wire)],
        global_parts: 1,
        bytes,
        tag,
    };
    assert!(store.save(9, 0, entry));
    store.load(9, 0).expect("just saved")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_restore_is_bit_identical(
        records in prop::collection::vec(payload_strategy(), 0..8),
    ) {
        let restored_entry = roundtrip_through_store(&records, None);
        let (_, wire) = &restored_entry.parts[0];
        let restored: Vec<Payload> = wire.iter().map(Payload::from).collect();
        prop_assert_eq!(&restored, &records, "structural equality");
        for (r, o) in restored.iter().zip(records.iter()) {
            prop_assert_eq!(r.fingerprint(), o.fingerprint(), "fingerprint");
            prop_assert_eq!(r.model_bytes(), o.model_bytes(), "modelled bytes");
        }
        let total: u64 = records.iter().map(Payload::model_bytes).sum();
        prop_assert_eq!(restored_entry.bytes, total, "snapshot bytes = payload bytes");
    }
}

#[test]
fn interned_text_dedup_survives_restore() {
    let mut table = InternTable::new();
    let a = table.text("panthera.apache.org");
    let b = table.text("panthera.apache.org"); // same symbol as `a`
    let c = table.text("hybrid-memories.example");
    let records = vec![a.clone(), b.clone(), c.clone()];
    let entry = roundtrip_through_store(&records, None);
    let restored: Vec<Payload> = entry.parts[0].1.iter().map(Payload::from).collect();
    let sym = |p: &Payload| match p {
        Payload::Text { sym, .. } => *sym,
        other => panic!("expected text, got {other:?}"),
    };
    assert_eq!(sym(&restored[0]), sym(&restored[1]), "dedup preserved");
    assert_ne!(
        sym(&restored[0]),
        sym(&restored[2]),
        "distinct stays distinct"
    );
    assert_eq!(sym(&restored[0]), sym(&a), "symbol ids are stable");
    assert_eq!(restored, records);
}

#[test]
fn memory_tag_is_preserved_verbatim() {
    for tag in [None, Some(MemoryTag::Dram), Some(MemoryTag::Nvm)] {
        let entry = roundtrip_through_store(&[Payload::Long(7)], tag);
        assert_eq!(entry.tag, tag, "tag must survive the store");
    }
}

// ---------------------------------------------------------------------------
// Recomputation-depth bounds under CheckpointEvery(n).
// ---------------------------------------------------------------------------

/// A program whose lineage is a chain of `depth` wide (shuffle) stages:
/// src -> distinct -> distinct -> ... -> count, count. Statement barriers:
/// 0 after the bind, 1 after the first count, 2 after the second.
fn chain_program(depth: usize) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("chain");
    let mut expr = b.source("src");
    for _ in 0..depth {
        expr = expr.distinct();
    }
    let out = b.bind("out", expr);
    b.action(out, ActionKind::Count);
    b.action(out, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("src", (0..48).map(|i| Payload::Long(i % 13)).collect());
    (program, fns, data)
}

fn run_chain(policy: RecoveryPolicy, plan: &FaultPlan) -> ClusterOutcome {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 2;
    cfg.recovery = policy;
    cfg.verify_heap = true;
    run_cluster_faulted(|| chain_program(7), &cfg, EngineConfig::default(), 2, plan)
        .expect("valid cluster config")
}

#[test]
fn checkpoint_interval_bounds_recompute_depth() {
    // Crash executor 1 at barrier 1 — right after the first count forced
    // the whole 7-stage chain. The replay's recompute depth depends on
    // the policy.
    let plan = FaultPlan::single_crash(1, 1);
    let baseline = run_chain(RecoveryPolicy::Recompute, &FaultPlan::none());

    let recompute = run_chain(RecoveryPolicy::Recompute, &plan);
    assert_eq!(recompute.results, baseline.results);
    let rec = recompute.report.recovery;
    assert_eq!(rec.executor_crashes, 1);
    assert_eq!(
        rec.stages_recomputed, 7,
        "lineage-only recovery replays the whole chain"
    );

    for every in [1u32, 2, 3] {
        let out = run_chain(RecoveryPolicy::CheckpointEvery(every), &plan);
        assert_eq!(out.results, baseline.results, "CheckpointEvery({every})");
        let rec = out.report.recovery;
        assert_eq!(rec.executor_crashes, 1, "CheckpointEvery({every})");
        assert!(rec.checkpoint_writes > 0, "CheckpointEvery({every})");
        assert!(
            rec.stages_recomputed < u64::from(every),
            "CheckpointEvery({every}): recompute depth {} must be < {every}",
            rec.stages_recomputed
        );
        assert!(
            rec.partitions_restored > 0,
            "CheckpointEvery({every}): restores happened"
        );
    }
}

#[test]
fn explicit_checkpoint_marking_works_without_auto_policy() {
    // `out.checkpoint()` under RecoveryPolicy::Recompute: the snapshot is
    // written anyway, and the crashed executor restores instead of
    // recomputing any stage.
    let build = || {
        let mut b = ProgramBuilder::new("explicit-checkpoint");
        let expr = b.source("src").distinct().distinct();
        let out = b.bind("out", expr);
        b.checkpoint(out);
        b.action(out, ActionKind::Count);
        b.action(out, ActionKind::Count);
        let (program, fns) = b.finish();
        let mut data = DataRegistry::new();
        data.register("src", (0..30).map(|i| Payload::Long(i % 7)).collect());
        (program, fns, data)
    };
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 2;
    cfg.verify_heap = true;
    let run = |plan: &FaultPlan| {
        run_cluster_faulted(build, &cfg, EngineConfig::default(), 2, plan)
            .expect("valid cluster config")
    };
    let baseline = run(&FaultPlan::none());
    assert!(
        baseline.report.recovery.checkpoint_writes > 0,
        "explicit mark snapshots even without faults"
    );
    let faulted = run(&FaultPlan::single_crash(0, 2));
    assert_eq!(faulted.results, baseline.results);
    let rec = faulted.report.recovery;
    assert_eq!(rec.executor_crashes, 1);
    assert!(
        rec.partitions_restored > 0,
        "restore from the explicit snapshot"
    );
    assert_eq!(
        rec.stages_recomputed, 0,
        "the checkpointed RDD short-circuits all lineage recompute"
    );
}

// ---------------------------------------------------------------------------
// Off-heap-resident RDDs round-trip through the NVM checkpoint store.
// ---------------------------------------------------------------------------

/// A program whose cached RDD lives in the off-heap H2 region: the
/// `checkpoint()` mark precedes the persist, so the snapshot is written
/// during the persist's shuffle materialization — before the records
/// move off-heap. Restoring after a crash must hand back the off-heap
/// payload bit-identically.
fn offheap_checkpoint_program(wire: &[WirePayload]) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("offheap-checkpoint");
    let expr = b.source("src").distinct();
    let out = b.bind("out", expr);
    b.checkpoint(out);
    b.persist(out, StorageLevel::MemoryOnly);
    b.action(out, ActionKind::Collect);
    b.action(out, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("src", wire.iter().map(Payload::from).collect());
    (program, fns, data)
}

fn run_offheap_checkpoint(records: &[Payload], offheap: bool, plan: &FaultPlan) -> ClusterOutcome {
    // `Payload` interns text through `Rc` and so isn't `Sync`; ship the
    // records to the executor threads in wire form — the same round trip
    // a real shuffle or checkpoint would take.
    let wire: Vec<WirePayload> = records.iter().map(WirePayload::from).collect();
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 2;
    cfg.offheap_cache = offheap;
    cfg.verify_heap = true;
    run_cluster_faulted(
        || offheap_checkpoint_program(&wire),
        &cfg,
        EngineConfig::default(),
        2,
        plan,
    )
    .expect("valid cluster config")
}

#[test]
fn offheap_resident_rdd_restores_from_checkpoint() {
    let records: Vec<Payload> = (0..40).map(|i| Payload::Long(i % 11)).collect();
    let heap_baseline = run_offheap_checkpoint(&records, false, &FaultPlan::none());
    let baseline = run_offheap_checkpoint(&records, true, &FaultPlan::none());
    assert_eq!(
        baseline.results, heap_baseline.results,
        "the off-heap region must not change checkpointed values"
    );
    assert!(
        baseline.report.recovery.checkpoint_writes > 0,
        "the explicit mark must snapshot the off-heap-resident RDD"
    );

    // Crash executor 1 after the first action: the replay restores the
    // snapshot and re-persists it off-heap instead of recomputing.
    let faulted = run_offheap_checkpoint(&records, true, &FaultPlan::single_crash(1, 3));
    assert_eq!(
        faulted.results, baseline.results,
        "restored payload differs"
    );
    let rec = faulted.report.recovery;
    assert_eq!(rec.executor_crashes, 1);
    assert!(
        rec.partitions_restored > 0,
        "restore must come from the store"
    );
    assert_eq!(
        rec.stages_recomputed, 0,
        "the snapshot short-circuits the shuffle recompute"
    );
    let e = &faulted.report.exec;
    assert_eq!(
        e.offheap_frees, e.offheap_allocs,
        "region must drain after replay"
    );
    assert_eq!(e.offheap_leaks, 0, "no leaks after replay");
    assert_eq!(e.offheap_dead_reads, 0, "no dead reads after replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary payload trees cached off-heap: checkpoint save/restore
    /// round-trips the off-heap payload bit-identically through a crash,
    /// and the region still drains exactly.
    #[test]
    fn offheap_checkpoint_roundtrip_is_bit_identical(
        values in prop::collection::vec(payload_strategy(), 1..12),
    ) {
        // The shuffle partitions by key; carry each arbitrary payload
        // tree as a keyed value.
        let records: Vec<Payload> = values
            .into_iter()
            .enumerate()
            .map(|(i, p)| Payload::keyed(i as i64, p))
            .collect();
        let baseline = run_offheap_checkpoint(&records, true, &FaultPlan::none());
        let faulted = run_offheap_checkpoint(&records, true, &FaultPlan::single_crash(0, 3));
        prop_assert_eq!(&faulted.results, &baseline.results, "restored payload differs");
        prop_assert_eq!(faulted.report.recovery.executor_crashes, 1);
        let e = &faulted.report.exec;
        prop_assert_eq!(e.offheap_frees, e.offheap_allocs, "region must drain");
        prop_assert_eq!(e.offheap_leaks, 0);
        prop_assert_eq!(e.offheap_dead_reads, 0);
    }
}
