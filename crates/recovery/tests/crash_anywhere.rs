//! PR 8 acceptance: executors may crash *anywhere* in virtual time — not
//! just at statement barriers — and the run still ends with results
//! bit-identical to the fault-free run.
//!
//! 1. A sweep of 200 seeded plans with crash points drawn uniformly over
//!    the fault-free run's virtual duration (one to three points per
//!    plan, so some land inside an open recovery window) preserves
//!    results under both recovery policies, and exercises both journal
//!    paths: committed entries re-validated as no-ops and torn entries
//!    rolled forward.
//! 2. A deliberately replayed committed journal entry is a provable
//!    no-op: the replaying incarnation re-issues its deposits, the
//!    journal digest-validates them, and `journal_noops` says so.
//! 3. Nested faults (a crash during a prior recovery) count once per
//!    physical event in `RecoveryStats`.
//! 4. For a fixed random-point plan, the merged report and every
//!    per-executor sub-report are bit-identical across host-thread
//!    budgets.

use panthera::cluster::{run_cluster_faulted, ClusterOutcome, FaultPlan, FaultSpec, VCrashPoint};
use panthera::{MemoryMode, RecoveryPolicy, SystemConfig, SIM_GB};
use proptest::prelude::*;
use sparklet::{ActionResult, EngineConfig};
use workloads::{build_workload, WorkloadId};

const SCALE: f64 = 0.03;
const DATA_SEED: u64 = 11;
const EXECUTORS: u16 = 2;

fn cluster_config(policy: RecoveryPolicy) -> SystemConfig {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = EXECUTORS;
    cfg.recovery = policy;
    cfg
}

fn run_with_plan(policy: RecoveryPolicy, host_threads: usize, plan: &FaultPlan) -> ClusterOutcome {
    run_cluster_faulted(
        || {
            let w = build_workload(WorkloadId::Tc, SCALE, DATA_SEED);
            (w.program, w.fns, w.data)
        },
        &cluster_config(policy),
        EngineConfig::default(),
        host_threads,
        plan,
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

/// The fault-free outcome and its virtual duration in nanoseconds — the
/// window random crash points are drawn from.
fn fault_free(policy: RecoveryPolicy) -> (ClusterOutcome, f64) {
    let baseline = run_with_plan(policy, usize::from(EXECUTORS), &FaultPlan::none());
    let horizon_ns = baseline.report.elapsed_s * 1e9;
    (baseline, horizon_ns)
}

#[test]
fn two_hundred_random_point_crashes_preserve_results() {
    let mut fired = 0u64;
    let mut noops = 0u64;
    let mut torn = 0u64;
    let mut nested = 0u64;
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let (baseline, horizon_ns) = fault_free(policy);
        assert!(horizon_ns > 0.0, "workload must take virtual time");
        for case in 0..100u64 {
            let spec = FaultSpec {
                crashes: 0,
                max_losses: 0,
                max_alloc_faults: 0,
                vcrashes: 1 + (case % 3) as u32,
                vtime_lo_ns: 0.0,
                vtime_hi_ns: horizon_ns,
                ..FaultSpec::default()
            };
            let plan = FaultPlan::generate(0xC4A5_4000 + case, EXECUTORS, spec);
            assert!(!plan.vcrashes.is_empty(), "plan draws its crash points");
            let faulted = run_with_plan(policy, usize::from(EXECUTORS), &plan);
            let what = format!("{policy:?} case {case} plan {:?}", plan.vcrashes);
            assert_results_eq(&faulted.results, &baseline.results, &what);
            let rec = faulted.report.recovery;
            assert!(
                rec.executor_crashes <= plan.vcrashes.len() as u64,
                "{what}: each point fires at most once"
            );
            if rec.executor_crashes > 0 {
                assert!(rec.recovery_s > 0.0, "{what}: recovery takes virtual time");
                assert!(
                    faulted.report.elapsed_s >= baseline.report.elapsed_s,
                    "{what}: recovery must not make the run faster"
                );
            }
            fired += rec.executor_crashes;
            noops += rec.journal_noops;
            torn += rec.journal_torn;
            // Two points on one executor that both fired means the later
            // one interrupted the earlier one's replay window (its clock
            // resumes past both draw positions only via the replay).
            for e in 0..EXECUTORS {
                let planned = plan.vcrashes.iter().filter(|p| p.exec == e).count() as u64;
                if planned >= 2 && rec.executor_crashes >= 2 {
                    nested += 1;
                }
            }
        }
    }
    // The sweep is only meaningful if the injected faults actually bite:
    // most points must fire, replays must re-issue committed deposits,
    // and at least some crashes must land inside a journal window or a
    // prior recovery.
    assert!(fired >= 150, "only {fired}/~300 crash points fired");
    assert!(noops > 0, "no replay ever re-validated a committed deposit");
    assert!(torn > 0, "no crash ever landed between begin and commit");
    assert!(nested > 0, "no crash ever interrupted an open recovery");
}

#[test]
fn replayed_journal_entries_are_validated_noops() {
    let policy = RecoveryPolicy::CheckpointEvery(1);
    let (baseline, horizon_ns) = fault_free(policy);
    // Crash late: plenty of committed shuffle deposits, action deposits,
    // and checkpoint saves exist for the replay to re-issue.
    let plan = FaultPlan::crash_at(1, 0.6 * horizon_ns);
    let faulted = run_with_plan(policy, usize::from(EXECUTORS), &plan);
    assert_results_eq(&faulted.results, &baseline.results, "late vcrash");
    let rec = faulted.report.recovery;
    assert_eq!(rec.executor_crashes, 1, "the planned point fired");
    assert!(
        rec.journal_noops > 0,
        "replay re-issued committed deposits and the journal validated \
         them as no-ops; stats: {rec:?}"
    );
}

#[test]
fn nested_crash_during_recovery_counts_physical_events_once() {
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let (baseline, horizon_ns) = fault_free(policy);
        // The second point sits just past the first: the restarted
        // incarnation's clock resumes at the crash time plus the restart
        // penalty, so the very first probe of the replay consumes it —
        // a crash during recovery, inside the still-open window.
        let plan = FaultPlan {
            vcrashes: vec![
                VCrashPoint {
                    exec: 1,
                    at_ns: 0.5 * horizon_ns,
                },
                VCrashPoint {
                    exec: 1,
                    at_ns: 0.5 * horizon_ns + 1.0,
                },
            ],
            ..FaultPlan::crash_at(1, 0.5 * horizon_ns)
        };
        let faulted = run_with_plan(policy, usize::from(EXECUTORS), &plan);
        let what = format!("{policy:?} nested");
        assert_results_eq(&faulted.results, &baseline.results, &what);
        let rec = faulted.report.recovery;
        assert_eq!(
            rec.executor_crashes, 2,
            "{what}: one count per physical crash, no double counting"
        );
        assert!(rec.recovery_s > 0.0, "{what}: the window was charged");
        assert!(
            rec.journal_noops > 0,
            "{what}: the replay re-validated committed deposits"
        );
    }
}

#[test]
fn random_point_plan_is_host_thread_invariant() {
    let spec = FaultSpec {
        crashes: 0,
        max_losses: 1,
        max_alloc_faults: 1,
        vcrashes: 2,
        vtime_lo_ns: 0.0,
        vtime_hi_ns: 2.0e9,
        ..FaultSpec::default()
    };
    let plan = FaultPlan::generate(0xD1CE, EXECUTORS, spec);
    assert!(!plan.vcrashes.is_empty());
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let serial = run_with_plan(policy, 1, &plan);
        let threaded = run_with_plan(policy, usize::from(EXECUTORS), &plan);
        let what = format!("{policy:?}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form of the sweep: any pair of points anywhere in the
    /// run (same executor or different, ordered or not) preserves the
    /// action results exactly.
    #[test]
    fn arbitrary_crash_points_preserve_results(
        frac_a in 0.0f64..1.0,
        frac_b in 0.0f64..1.0,
        exec_a in 0u16..EXECUTORS,
        exec_b in 0u16..EXECUTORS,
    ) {
        thread_local! {
            static BASE: std::cell::OnceCell<(Vec<(String, ActionResult)>, f64)> =
                const { std::cell::OnceCell::new() };
        }
        BASE.with(|base| {
            let (base_results, horizon_ns) = base.get_or_init(|| {
                let (b, h) = fault_free(RecoveryPolicy::Recompute);
                (b.results, h)
            });
            let mut vcrashes = vec![
                VCrashPoint { exec: exec_a, at_ns: frac_a * horizon_ns },
                VCrashPoint { exec: exec_b, at_ns: frac_b * horizon_ns },
            ];
            vcrashes.sort_by(|a, b| {
                (a.exec, a.at_ns)
                    .partial_cmp(&(b.exec, b.at_ns))
                    .expect("finite crash times")
            });
            let plan = FaultPlan { vcrashes, ..FaultPlan::none() };
            let faulted = run_with_plan(
                RecoveryPolicy::Recompute,
                usize::from(EXECUTORS),
                &plan,
            );
            assert_results_eq(&faulted.results, base_results, "proptest vcrash");
        });
    }
}
