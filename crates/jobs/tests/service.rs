//! The PR 9 service guarantees (DESIGN.md §13):
//!
//! 1. **Reduction.** A single-tenant service run reproduces the
//!    equivalent [`RunBuilder`] run exactly — same `RunReport` bytes,
//!    same action results.
//! 2. **Determinism.** A fixed submission sequence yields a bit-identical
//!    `ServiceReport` JSON regardless of the host-thread budget.
//! 3. **Fairness.** Under fair share, the weighted virtual-time spread
//!    between schedulable tenants never exceeds one weighted stage
//!    charge, for any tenant count and weight mix (proptest); a tiny job
//!    behind a huge one is dispatched within one stage, not one job.
//! 4. **Isolation.** A tenant whose job crashes, or whose job bounces off
//!    its heap quota, never perturbs another tenant's `RunReport`.
//! 5. **Observability.** The service narrates each job's lifecycle
//!    through `job_submitted` / `job_started` / `job_preempted` /
//!    `job_finished` events.

use obs::{Event, Observer, RingBufferSink};
use panthera::{FaultPlan, MemoryMode, RunBuilder, SystemConfig, SIM_GB};
use panthera_jobs::{
    JobOutcome, JobService, JobSpec, SchedPolicy, ServiceConfig, ServiceReport, SubmitTo,
};
use proptest::prelude::*;
use sparklang::{FnTable, Program};
use sparklet::DataRegistry;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{build_workload, WorkloadId};

fn cfg(heap_gb: u64) -> SystemConfig {
    SystemConfig::new(MemoryMode::Panthera, heap_gb * SIM_GB, 1.0 / 3.0)
}

fn triple(id: WorkloadId, scale: f64, seed: u64) -> (Program, FnTable, DataRegistry) {
    let w = build_workload(id, scale, seed);
    (w.program, w.fns, w.data)
}

fn build_tc() -> (Program, FnTable, DataRegistry) {
    triple(WorkloadId::Tc, 0.03, 11)
}

/// Tolerance for comparing accumulated f64 nanosecond clocks.
const EPS: f64 = 1e-9;

// ---------------------------------------------------------------- 1. reduction

#[test]
fn single_tenant_service_run_equals_runbuilder_run() {
    let (program, fns, data) = triple(WorkloadId::Km, 0.05, 7);
    let oneshot = RunBuilder::new(&program, fns, data)
        .config(cfg(4))
        .run()
        .expect("valid configuration");

    let mut service = JobService::new(ServiceConfig::new(1));
    let (program, fns, data) = triple(WorkloadId::Km, 0.05, 7);
    let id = RunBuilder::new(&program, fns, data)
        .config(cfg(4))
        .submit_to(&mut service, 1)
        .expect("admissible job");
    let report = service.run();

    let job = &report.jobs[id as usize];
    assert_eq!(job.outcome, JobOutcome::Finished);
    assert!(job.stages > 0, "cursor jobs run stage by stage");
    assert_eq!(
        job.results, oneshot.results,
        "the service must compute the same action results"
    );
    let service_run = job.report.as_ref().expect("finished job has a report");
    assert_eq!(
        service_run.to_json().to_compact(),
        oneshot.report.to_json().to_compact(),
        "a single-tenant service run must reproduce the one-shot run bit-for-bit"
    );
}

// -------------------------------------------------------------- 2. determinism

fn mixed_service(host_threads: usize) -> ServiceReport {
    let mut service = JobService::new(ServiceConfig {
        pool_executors: 4,
        policy: SchedPolicy::FairShare,
        dram_budget_bytes: Some(3 * SIM_GB),
        host_threads: Some(host_threads),
    });
    service.add_tenant(1, 2.0, None);
    service.add_tenant(2, 1.0, Some(64 * SIM_GB));
    // Tenant 1: two cursor jobs; tenant 2: one atomic 2-executor job.
    let (p1, f1, d1) = triple(WorkloadId::Km, 0.04, 3);
    let (p2, f2, d2) = triple(WorkloadId::Lr, 0.04, 5);
    service
        .submit(JobSpec::inline(1, p1, f1, d1).with_config(cfg(4)))
        .expect("admissible");
    service
        .submit(
            JobSpec::inline(1, p2, f2, d2)
                .with_config(cfg(4))
                .with_priority(3),
        )
        .expect("admissible");
    let mut c2 = cfg(4);
    c2.executors = 2;
    service
        .submit(JobSpec::rebuild(2, "tc-cluster", &build_tc).with_config(c2))
        .expect("admissible");
    service.run()
}

#[test]
fn service_report_is_bit_identical_across_host_thread_budgets() {
    let a = mixed_service(1).to_json().to_compact();
    let b = mixed_service(4).to_json().to_compact();
    assert!(
        a.contains("\"outcome\":\"finished\""),
        "the mixed workload must actually finish jobs"
    );
    assert_eq!(
        a, b,
        "host threads change wall-clock only, never the ServiceReport"
    );
}

// ----------------------------------------------------------------- 3. fairness

#[test]
fn tiny_job_is_not_starved_behind_a_huge_one() {
    let huge = || triple(WorkloadId::Pr, 0.25, 2);
    let tiny = || triple(WorkloadId::Km, 0.02, 2);

    let run = |policy: SchedPolicy| {
        let mut service = JobService::new(ServiceConfig {
            pool_executors: 1,
            policy,
            dram_budget_bytes: None,
            host_threads: None,
        });
        let (hp, hf, hd) = huge();
        let (tp, tf, td) = tiny();
        service
            .submit(JobSpec::inline(1, hp, hf, hd).with_config(cfg(8)))
            .expect("admissible");
        service
            .submit(JobSpec::inline(2, tp, tf, td).with_config(cfg(2)))
            .expect("admissible");
        service.run()
    };

    let fair = run(SchedPolicy::FairShare);
    assert!(
        fair.jobs[1].finish_s < fair.jobs[0].finish_s,
        "fair share must finish the tiny job while the huge one still runs"
    );
    // SLO: the tiny job waits at most one stage of the huge job — it is
    // admitted at the first barrier after its tenant falls behind.
    let queued = fair.jobs[1].queued_s().expect("tiny job started");
    assert!(
        queued <= fair.max_stage_charge_s + EPS,
        "tiny job queued {queued}s, more than one stage ({}s)",
        fair.max_stage_charge_s
    );
    assert!(
        fair.preemptions > 0,
        "the huge job must be preempted at barriers"
    );

    let fifo = run(SchedPolicy::Fifo);
    assert!(
        fifo.jobs[1].finish_s > fifo.jobs[0].finish_s,
        "FIFO runs the huge job to completion first"
    );
    assert!(
        fair.queue_p99_s < fifo.queue_p99_s,
        "fair share must beat FIFO on p99 queueing delay (fair={}, fifo={})",
        fair.queue_p99_s,
        fifo.queue_p99_s
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any mix of 2-8 tenants with random weights and random small jobs:
    /// the max weighted virtual-time spread between schedulable tenants
    /// stays within one weighted stage charge, and everything finishes.
    #[test]
    fn fair_share_bounds_weighted_vtime_spread(
        weights_deci in prop::collection::vec(2u64..40, 2..8),
        picks in prop::collection::vec(0usize..7, 2..8),
        seed in 0u64..500,
    ) {
        let mut service = JobService::new(ServiceConfig::new(1));
        let n = weights_deci.len();
        for (t, w) in weights_deci.iter().enumerate() {
            service.add_tenant(t as u32 + 1, *w as f64 / 10.0, None);
        }
        for (i, pick) in picks.iter().enumerate() {
            let tenant = (i % n) as u32 + 1;
            let id = WorkloadId::ALL[*pick];
            let (p, f, d) = triple(id, 0.02, seed + i as u64);
            service
                .submit(JobSpec::inline(tenant, p, f, d).with_config(cfg(2)))
                .expect("admissible");
        }
        let report = service.run();
        for job in &report.jobs {
            prop_assert_eq!(job.outcome, JobOutcome::Finished, "job {} outcome", job.job);
        }
        prop_assert!(
            report.max_vtime_spread_s <= report.max_stage_charge_s + EPS,
            "spread {}s exceeds one weighted stage charge {}s",
            report.max_vtime_spread_s,
            report.max_stage_charge_s
        );
    }
}

// ---------------------------------------------------------------- 4. isolation

/// The good tenant's RunReport bytes from a service hosting nobody else.
fn good_tenant_solo_report() -> String {
    let mut service = JobService::new(ServiceConfig {
        pool_executors: 3,
        policy: SchedPolicy::FairShare,
        dram_budget_bytes: None,
        host_threads: None,
    });
    let (p, f, d) = triple(WorkloadId::Km, 0.04, 9);
    let good = service
        .submit(JobSpec::inline(1, p, f, d).with_config(cfg(4)))
        .expect("admissible");
    let report = service.run();
    report.jobs[good as usize]
        .report
        .as_ref()
        .expect("good job finished")
        .to_json()
        .to_compact()
}

#[test]
fn crashing_tenant_never_perturbs_other_tenants() {
    let mut plan = FaultPlan::single_crash(1, 2);
    plan.recover = false; // the crash is fatal to the job, not the service
    let solo = good_tenant_solo_report();
    let mut service = JobService::new(ServiceConfig {
        pool_executors: 3,
        policy: SchedPolicy::FairShare,
        dram_budget_bytes: None,
        host_threads: None,
    });
    let (p, f, d) = triple(WorkloadId::Km, 0.04, 9);
    let good = service
        .submit(JobSpec::inline(1, p, f, d).with_config(cfg(4)))
        .expect("admissible");
    let mut c = cfg(4);
    c.executors = 2;
    service
        .submit(
            JobSpec::rebuild(2, "tc-doomed", &build_tc)
                .with_config(c)
                .with_faults(&plan),
        )
        .expect("admissible until it crashes");
    let report = service.run();
    // The bad job failed; the service survived and said so.
    assert_eq!(report.jobs[1].outcome, JobOutcome::Failed);
    assert_eq!(report.tenants[1].failed, 1);
    // And the good tenant's measurements are bit-identical to a service
    // that never hosted the bad tenant at all.
    let with_bad = report.jobs[good as usize]
        .report
        .as_ref()
        .expect("good job finished")
        .to_json()
        .to_compact();
    assert_eq!(
        with_bad, solo,
        "a crashing co-tenant must not perturb another tenant's RunReport"
    );
}

#[test]
fn ill_formed_tenant_job_is_rejected_without_perturbing_others() {
    let solo = good_tenant_solo_report();
    let mut service = JobService::new(ServiceConfig {
        pool_executors: 3,
        policy: SchedPolicy::FairShare,
        dram_budget_bytes: None,
        host_threads: None,
    });
    let (p, f, d) = triple(WorkloadId::Km, 0.04, 9);
    let good = service
        .submit(JobSpec::inline(1, p, f, d).with_config(cfg(4)))
        .expect("admissible");
    // A use-before-def program: the action reads a variable no statement
    // binds any more.
    let mut b = sparklang::ProgramBuilder::new("use-before-def");
    let src = b.source("nums");
    let xs = b.bind("xs", src.distinct());
    b.action(xs, sparklang::ActionKind::Count);
    let (mut bp, bf) = b.finish();
    bp.stmts.remove(0);
    assert!(sparklang::validate(&bp).is_err());
    let mut bd = DataRegistry::new();
    bd.register("nums", (0..64).map(mheap::Payload::Long).collect());
    let bad = service
        .submit(JobSpec::inline(2, bp, bf, bd).with_config(cfg(4)))
        .expect("submission checks the configuration only");
    let report = service.run();
    // The bad job was refused at start; the service survived.
    assert_eq!(report.jobs[bad as usize].outcome, JobOutcome::Rejected);
    assert_eq!(report.tenants[1].rejected, 1);
    let with_bad = report.jobs[good as usize]
        .report
        .as_ref()
        .expect("good job finished")
        .to_json()
        .to_compact();
    assert_eq!(
        with_bad, solo,
        "an ill-formed co-tenant job must not perturb another tenant's RunReport"
    );
}

#[test]
fn quota_bounced_tenant_never_perturbs_other_tenants() {
    // DRAM arbitration is live here: the rejected job must not count
    // toward anyone's split, so the good tenant's clamp is unchanged.
    let run = |include_bad: bool| {
        let mut service = JobService::new(ServiceConfig {
            pool_executors: 2,
            policy: SchedPolicy::FairShare,
            dram_budget_bytes: Some(4 * SIM_GB),
            host_threads: None,
        });
        service.add_tenant(2, 1.0, Some(SIM_GB)); // quota below any job here
        let (p, f, d) = triple(WorkloadId::Km, 0.04, 9);
        let good = service
            .submit(JobSpec::inline(1, p, f, d).with_config(cfg(4)))
            .expect("admissible");
        if include_bad {
            let (bp, bf, bd) = triple(WorkloadId::Lr, 0.04, 9);
            let bad = service
                .submit(JobSpec::inline(2, bp, bf, bd).with_config(cfg(4)))
                .expect("submission is recorded even when admission rejects");
            let report = service.run();
            assert_eq!(
                report.jobs[bad as usize].outcome,
                JobOutcome::Rejected,
                "a job over its tenant quota is rejected at admission"
            );
            assert_eq!(report.tenants[1].rejected, 1);
            return report.jobs[good as usize]
                .report
                .as_ref()
                .expect("good job finished")
                .to_json()
                .to_compact();
        }
        let report = service.run();
        report.jobs[good as usize]
            .report
            .as_ref()
            .expect("good job finished")
            .to_json()
            .to_compact()
    };
    assert_eq!(
        run(true),
        run(false),
        "a quota-bounced co-tenant must not perturb another tenant's RunReport"
    );
}

// ------------------------------------------------------------ 5. observability

#[test]
fn service_narrates_job_lifecycles() {
    let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 16)));
    let mut service = JobService::new(ServiceConfig::new(1));
    service.set_observer(Observer::with_sink(ring.clone()));
    let (p1, f1, d1) = triple(WorkloadId::Km, 0.03, 4);
    let (p2, f2, d2) = triple(WorkloadId::Lr, 0.03, 4);
    service
        .submit(JobSpec::inline(1, p1, f1, d1).with_config(cfg(2)))
        .expect("admissible");
    service
        .submit(JobSpec::inline(2, p2, f2, d2).with_config(cfg(2)))
        .expect("admissible");
    let report = service.run();
    assert_eq!(report.jobs.len(), 2);

    let ring = ring.borrow();
    let count = |f: &dyn Fn(&Event) -> bool| ring.events().filter(|(_, e)| f(e)).count();
    assert_eq!(
        count(&|e| matches!(e, Event::JobSubmitted { .. })),
        2,
        "one submission event per job"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::JobStarted { .. })),
        2,
        "one start event per job"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::JobFinished { .. })),
        2,
        "one finish event per job"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::JobPreempted { .. })) as u64,
        report.preemptions,
        "the report's preemption count matches the event stream"
    );
    // Submissions precede starts precede finishes, per job.
    for want in 0..2u32 {
        let mut saw_submit = false;
        let mut saw_start = false;
        for (_, e) in ring.events() {
            match e {
                Event::JobSubmitted { job, .. } if *job == want => saw_submit = true,
                Event::JobStarted { job, .. } if *job == want => {
                    assert!(saw_submit, "job {want} started before submission");
                    saw_start = true;
                }
                Event::JobFinished { job, .. } if *job == want => {
                    assert!(saw_start, "job {want} finished before starting");
                }
                _ => {}
            }
        }
    }
}
