//! The four workloads: how each is set up and timed, and how its outputs
//! are checked against something other than the run under test.
//!
//! All of them run in Panthera mode with a 64 sim-GB heap, one third of
//! it DRAM, from a seed given on the command line.

use crate::trace::{Recorder, RunTrace, Tap};
use gc::PauseStats;
use hybridmem::{AccessKind, DeviceKind};
use mheap::Payload;
use panthera::{MemoryMode, RunBuilder, RunReport, ShuffleTransport, SystemConfig, SIM_GB};
use panthera_analysis::analyze;
use panthera_jobs::{JobOutcome, JobService, JobSpec, SchedPolicy, ServiceConfig, ServiceReport};
use sparklang::{ActionKind, FnTable, MemoryTag, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;
use workloads::{build_workload, symmetric_edges, WorkloadId};

/// Host threads the cluster path may compute on (the machine's cores).
const HOST_THREADS: usize = 2;

/// `build_workload(Cc, 1.0, _)` is `connected_components(4000, 14000, 8, _)`;
/// the reference rebuilds the same edge list on its own.
const CC_VERTICES: usize = 4_000;
const CC_EDGES: usize = 14_000;
const CC_SUPERSTEPS: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GraphX-CC, scale 1.0, single runtime: minor-GC tracing and card
    /// scanning dominate.
    CcGc,
    /// K-Means, scale 8, region arenas on: no collections at all, the
    /// engine and the region store do all the work.
    KmRegions,
    /// PageRank, scale 1.0, two executors over the Serde transport: the
    /// only workload on the cluster path.
    PrCluster,
    /// The multi-tenant job service with 109 jobs: per-run fixed costs
    /// and the stage-at-a-time cursor.
    JobsMix,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "cc-gc" => Some(Workload::CcGc),
            "km-regions" => Some(Workload::KmRegions),
            "pr-cluster" => Some(Workload::PrCluster),
            "jobs-mix" => Some(Workload::JobsMix),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CcGc => "cc-gc",
            Workload::KmRegions => "km-regions",
            Workload::PrCluster => "pr-cluster",
            Workload::JobsMix => "jobs-mix",
        }
    }
}

fn config() -> SystemConfig {
    SystemConfig::new(MemoryMode::Panthera, 64 * SIM_GB, 1.0 / 3.0)
}

fn single_input(w: Workload, seed: u64) -> (workloads::BuiltWorkload, SystemConfig) {
    let mut cfg = config();
    let built = match w {
        Workload::CcGc => build_workload(WorkloadId::Cc, 1.0, seed),
        Workload::KmRegions => {
            cfg.region_alloc = true;
            build_workload(WorkloadId::Km, 8.0, seed)
        }
        Workload::PrCluster => build_workload(WorkloadId::Pr, 1.0, seed),
        Workload::JobsMix => unreachable!("the job mix is not one program"),
    };
    (built, cfg)
}

fn cluster_config() -> SystemConfig {
    let mut cfg = config();
    cfg.executors = 2;
    cfg.transport = ShuffleTransport::Serde;
    cfg
}

// ---------------------------------------------------------------------------
// The job mix.
// ---------------------------------------------------------------------------

/// Long PageRank jobs submitted first by tenant 1.
const FRONT_RUNNERS: u64 = 3;
const FRONT_SCALE: f64 = 0.25;
/// Small Table 4 jobs alternating between tenants 2 and 3: ≥100, so the
/// queueing p90 has at least ten samples beyond it.
const SMALL_JOBS: u64 = 104;
const SMALL_SCALE: f64 = 0.03;
const SMALL_KINDS: [WorkloadId; 6] = [
    WorkloadId::Km,
    WorkloadId::Lr,
    WorkloadId::Tc,
    WorkloadId::Cc,
    WorkloadId::Sssp,
    WorkloadId::Bc,
];
/// Atomic two-executor hash joins submitted last by tenant 3.
const HASH_JOINS: u64 = 2;
const JOIN_ROWS: usize = 4_000;

enum JobKind {
    Table4 {
        id: WorkloadId,
        scale: f64,
        seed: u64,
    },
    HashJoin {
        seed: u64,
    },
}

struct JobDef {
    tenant: u32,
    priority: u32,
    kind: JobKind,
}

fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

fn job_defs(seed: u64) -> Vec<JobDef> {
    let front = (0..FRONT_RUNNERS).map(|i| JobDef {
        tenant: 1,
        priority: 0,
        kind: JobKind::Table4 {
            id: WorkloadId::Pr,
            scale: FRONT_SCALE,
            seed: sub_seed(seed, i),
        },
    });
    let small = (0..SMALL_JOBS).map(|i| JobDef {
        tenant: 2 + (i % 2) as u32,
        priority: (i % 3) as u32,
        kind: JobKind::Table4 {
            id: SMALL_KINDS[(i % 6) as usize],
            scale: SMALL_SCALE,
            seed: sub_seed(seed, 100 + i),
        },
    });
    let joins = (0..HASH_JOINS).map(|i| JobDef {
        tenant: 3,
        priority: 0,
        kind: JobKind::HashJoin {
            seed: sub_seed(seed, 1000 + i),
        },
    });
    front.chain(small).chain(joins).collect()
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Join keys of the two hash-join inputs: `JOIN_ROWS` left rows and half
/// as many right rows over `JOIN_ROWS / 8` keys.
fn join_keys(seed: u64) -> (Vec<i64>, Vec<i64>) {
    let mut x = seed;
    let keys = (JOIN_ROWS / 8) as u64;
    let mut draw =
        |n: usize| -> Vec<i64> { (0..n).map(|_| (splitmix(&mut x) % keys) as i64).collect() };
    let left = draw(JOIN_ROWS);
    let right = draw(JOIN_ROWS / 2);
    (left, right)
}

fn hash_join(seed: u64) -> (Program, FnTable, DataRegistry) {
    let (left, right) = join_keys(seed);
    let mut b = ProgramBuilder::new("hashjoin");
    let l = b.source("left");
    let r = b.source("right");
    let joined = b.bind("joined", l.join(r));
    b.action(joined, ActionKind::Count);
    let (program, fns) = b.finish();
    let rows = |keys: Vec<i64>| {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| Payload::keyed(k, Payload::Long(i as i64)))
            .collect()
    };
    let mut data = DataRegistry::new();
    data.register("left", rows(left));
    data.register("right", rows(right));
    (program, fns, data)
}

/// The join's row count computed directly: Σ over keys of left × right.
fn hash_join_count(seed: u64) -> u64 {
    let (left, right) = join_keys(seed);
    let mut counts: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
    for k in left {
        counts.entry(k).or_default().0 += 1;
    }
    for k in right {
        counts.entry(k).or_default().1 += 1;
    }
    counts.values().map(|(a, b)| a * b).sum()
}

type Build = Box<dyn Fn() -> (Program, FnTable, DataRegistry) + Sync>;

// ---------------------------------------------------------------------------
// References: the expected outputs, computed once outside the timing.
// ---------------------------------------------------------------------------

type Results = Vec<(String, ActionResult)>;

/// What a workload's outputs must equal.
pub enum Reference {
    /// `(vertex, component label)` pairs, sorted by vertex.
    Labels(Vec<(i64, i64)>),
    /// The action results of another configuration of the same run.
    Results(Results),
    /// Per job: the results of a standalone run of the same spec, or the
    /// join count computed directly.
    Jobs(Vec<Results>),
}

/// Eight supersteps of min-label propagation over the symmetric edge
/// list — the CC program's semantics, computed in plain Rust.
fn cc_labels(seed: u64) -> Vec<(i64, i64)> {
    let edges: Vec<(i64, i64)> = symmetric_edges(CC_VERTICES, CC_EDGES, seed)
        .iter()
        .map(|e| {
            let (s, d) = e.as_pair().expect("edge pair");
            (s.as_long().expect("src"), d.as_long().expect("dst"))
        })
        .collect();
    let mut label: BTreeMap<i64, i64> = edges
        .iter()
        .flat_map(|&(s, d)| [s, d])
        .map(|v| (v, v))
        .collect();
    for _ in 0..CC_SUPERSTEPS {
        let mut next = label.clone();
        for &(s, d) in &edges {
            let l = label[&s];
            let slot = next.get_mut(&d).expect("every endpoint is a vertex");
            *slot = (*slot).min(l);
        }
        label = next;
    }
    label.into_iter().collect()
}

/// Compute the expected outputs of `w` at `seed`.
///
/// # Errors
///
/// A run the reference needs failed.
pub fn reference(w: Workload, seed: u64) -> Result<Reference, String> {
    let standalone = |built: workloads::BuiltWorkload, cfg: SystemConfig| {
        RunBuilder::new(&built.program, built.fns, built.data)
            .config(cfg)
            .run()
            .map(|s| s.results)
            .map_err(|e| e.to_string())
    };
    match w {
        Workload::CcGc => Ok(Reference::Labels(cc_labels(seed))),
        Workload::KmRegions => {
            let built = build_workload(WorkloadId::Km, 8.0, seed);
            let dram_only = SystemConfig::new(MemoryMode::DramOnly, 64 * SIM_GB, 1.0 / 3.0);
            standalone(built, dram_only).map(Reference::Results)
        }
        Workload::PrCluster => {
            let (built, cfg) = single_input(w, seed);
            standalone(built, cfg).map(Reference::Results)
        }
        Workload::JobsMix => job_defs(seed)
            .into_iter()
            .map(|d| match d.kind {
                JobKind::Table4 { id, scale, seed } => {
                    standalone(build_workload(id, scale, seed), config())
                }
                JobKind::HashJoin { seed } => Ok(vec![(
                    "joined".to_string(),
                    ActionResult::Count(hash_join_count(seed)),
                )]),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Reference::Jobs),
    }
}

// ---------------------------------------------------------------------------
// Samples: one set-up plus one timed call.
// ---------------------------------------------------------------------------

/// Deterministic per-layer counts read from the run's reports (summed
/// over jobs for the job mix).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub records: u64,
    pub materializations: u64,
    pub shuffles: u64,
    pub shuffle_bytes: u64,
    pub evictions: u64,
    pub alloc_bytes: u64,
    pub promotions: u64,
    pub region_allocs: u64,
    pub region_bytes: u64,
    pub minor_count: u64,
    pub major_count: u64,
    pub cards_scanned: u64,
    pub card_scan_bytes: u64,
    pub stuck_rescans: u64,
    pub rdds_migrated: u64,
    pub migration_fallbacks: u64,
    pub promotion_fallbacks: u64,
    pub sim_pause_s: f64,
    pub minor_pauses: PauseStats,
    pub dram_bytes: u64,
    pub nvm_bytes: u64,
    pub dram_write_bytes: u64,
    pub nvm_write_bytes: u64,
    pub sim_mutator_s: f64,
    pub monitored_calls: u64,
}

impl Layers {
    fn add(&mut self, r: &RunReport) {
        let e = &r.exec;
        self.records += e.records_streamed;
        self.materializations += e.materializations;
        self.shuffles += e.shuffles;
        self.shuffle_bytes += e.shuffle_bytes;
        self.evictions += e.evictions;
        self.region_allocs += e.region_allocs;
        self.region_bytes += e.region_bytes;
        self.alloc_bytes += r.heap.allocated_bytes;
        self.promotions += r.gc.total_promotions();
        self.minor_count += r.gc.minor_count;
        self.major_count += r.gc.major_count;
        self.cards_scanned += r.gc.cards_scanned;
        self.card_scan_bytes += r.gc.card_scan_bytes;
        self.stuck_rescans += r.gc.stuck_card_rescans;
        self.rdds_migrated += r.gc.rdds_migrated;
        self.migration_fallbacks += r.gc.migration_fallbacks;
        self.promotion_fallbacks += r.gc.promotion_fallbacks;
        self.sim_pause_s += r.minor_gc_s + r.major_gc_s;
        self.minor_pauses.merge(&r.minor_pauses);
        self.dram_bytes += r.device_bytes[0];
        self.nvm_bytes += r.device_bytes[1];
        self.dram_write_bytes += r.mem.total_kind_bytes(DeviceKind::Dram, AccessKind::Write);
        self.nvm_write_bytes += r.mem.total_kind_bytes(DeviceKind::Nvm, AccessKind::Write);
        self.sim_mutator_s += r.mutator_s;
        self.monitored_calls += r.monitored_calls;
    }
}

/// What one timed call produced, reduced to what the benchmark reads.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a of the report's JSON (`RunReport` or `ServiceReport`).
    pub digest: u64,
    /// The report's JSON, written out as the simulated-result twin.
    pub report_json: String,
    /// Simulated seconds (the makespan for the job mix).
    pub sim_s: f64,
    /// Simulated joules (summed over jobs).
    pub energy_j: f64,
    /// Per job: simulated seconds from submission to start.
    pub queue_s: Vec<f64>,
    /// Job-service slices preempted (0 outside the job mix).
    pub preemptions: u64,
    /// Per executor: simulated seconds (empty outside the cluster path).
    pub exec_sim_s: Vec<f64>,
    pub layers: Layers,
    /// Failed output checks and invariants.
    pub errors: Vec<String>,
}

/// One set-up and one timed call of a workload's entry point.
#[derive(Debug)]
pub struct Sample {
    /// Host seconds of input generation and run construction.
    pub setup_s: f64,
    /// Host seconds of the timed call.
    pub host_s: f64,
    /// `Err` for a panic or a returned error.
    pub outcome: Result<Outcome, String>,
    /// The traced run's spans, when a recorder was attached.
    pub trace: Option<RunTrace>,
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Time `call` as the run's root span.
fn timed<T>(
    rec: Option<&Rc<RefCell<Recorder>>>,
    call: impl FnOnce() -> Result<T, String>,
) -> (f64, Result<T, String>, Option<RunTrace>) {
    if let Some(r) = rec {
        r.borrow_mut().begin_run();
    }
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|p| Err(panic_text(p)));
    let host_s = t.elapsed().as_secs_f64();
    (host_s, out, rec.map(|r| r.borrow_mut().end_run()))
}

fn failed(setup_s: f64, msg: String) -> Sample {
    Sample {
        setup_s,
        host_s: 0.0,
        outcome: Err(msg),
        trace: None,
    }
}

fn compare(what: &str, got: &Results, want: &Results, errors: &mut Vec<String>) {
    if got != want {
        errors.push(format!("{what}: results differ from the reference"));
    }
}

/// Invariants every report must keep.
fn invariants(r: &RunReport, errors: &mut Vec<String>) {
    let e = &r.exec;
    if e.region_frees != e.region_allocs || e.region_leaks != 0 || e.region_dead_reads != 0 {
        errors.push(format!(
            "{}: region arenas not drained (allocs {}, frees {}, leaks {}, dead reads {})",
            r.workload, e.region_allocs, e.region_frees, e.region_leaks, e.region_dead_reads
        ));
    }
}

fn run_outcome(report: &RunReport, exec_sim_s: Vec<f64>) -> Outcome {
    let report_json = report.to_json().to_compact();
    let mut layers = Layers::default();
    layers.add(report);
    let mut errors = Vec::new();
    invariants(report, &mut errors);
    Outcome {
        digest: fnv1a(&report_json),
        report_json,
        sim_s: report.elapsed_s,
        energy_j: report.energy_j(),
        queue_s: Vec::new(),
        preemptions: 0,
        exec_sim_s,
        layers,
        errors,
    }
}

fn check_single(w: Workload, results: &Results, want: &Reference, errors: &mut Vec<String>) {
    match want {
        Reference::Labels(labels) => {
            let got = results
                .iter()
                .rev()
                .find_map(|(_, r)| r.as_collected())
                .map(|recs| {
                    let mut v: Vec<(i64, i64)> = recs
                        .iter()
                        .filter_map(|p| {
                            let (k, l) = p.as_pair()?;
                            Some((k.as_long()?, l.as_long()?))
                        })
                        .collect();
                    v.sort_unstable();
                    v
                });
            if got.as_ref() != Some(labels) {
                errors.push(format!(
                    "{}: component labels differ from the reference",
                    w.name()
                ));
            }
        }
        Reference::Results(r) => compare(w.name(), results, r, errors),
        Reference::Jobs(_) => errors.push("job reference for a single run".into()),
    }
}

/// Set up and time one call of `w`'s entry point, tracing it into `rec`
/// if given, and check the outputs against `want`.
pub fn sample(
    w: Workload,
    seed: u64,
    want: Option<&Reference>,
    rec: Option<&Rc<RefCell<Recorder>>>,
) -> Sample {
    match w {
        Workload::CcGc | Workload::KmRegions => single(w, seed, want, rec),
        Workload::PrCluster => cluster(seed, want, rec),
        Workload::JobsMix => jobs(seed, want, rec),
    }
}

fn missing_reference(errors: &mut Vec<String>) {
    errors.push("no reference to check against".into());
}

fn single(
    w: Workload,
    seed: u64,
    want: Option<&Reference>,
    rec: Option<&Rc<RefCell<Recorder>>>,
) -> Sample {
    let t = Instant::now();
    let (built, mut cfg) = match catch_unwind(|| single_input(w, seed)) {
        Ok(x) => x,
        Err(p) => return failed(t.elapsed().as_secs_f64(), panic_text(p)),
    };
    if let Some(r) = rec {
        cfg.observer = Tap::observer(r, None);
    }
    let builder = RunBuilder::new(&built.program, built.fns, built.data).config(cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let (host_s, out, trace) = timed(rec, || builder.run().map_err(|e| e.to_string()));
    let outcome = out.map(|s| {
        let mut o = run_outcome(&s.report, Vec::new());
        match want {
            Some(r) => check_single(w, &s.results, r, &mut o.errors),
            None => missing_reference(&mut o.errors),
        }
        o
    });
    Sample {
        setup_s,
        host_s,
        outcome,
        trace,
    }
}

/// The single-runtime twin of `pr-cluster`, traced, for the cluster's
/// host-time ratio.
pub fn pr_single(seed: u64, want: Option<&Reference>, rec: &Rc<RefCell<Recorder>>) -> Sample {
    single(Workload::PrCluster, seed, want, Some(rec))
}

fn cluster(seed: u64, want: Option<&Reference>, rec: Option<&Rc<RefCell<Recorder>>>) -> Sample {
    // Every executor rebuilds the inputs inside the call (the cluster
    // path's contract: payloads cannot cross threads), so the set-up
    // timed here is the same input generation done once on the driver.
    let t = Instant::now();
    if let Err(p) = catch_unwind(|| build_workload(WorkloadId::Pr, 1.0, seed)) {
        return failed(t.elapsed().as_secs_f64(), panic_text(p));
    }
    let build = move || {
        let w = build_workload(WorkloadId::Pr, 1.0, seed);
        (w.program, w.fns, w.data)
    };
    let mut cfg = cluster_config();
    if let Some(r) = rec {
        cfg.observer = Tap::observer(r, None);
    }
    let builder = RunBuilder::from_build(&build)
        .config(cfg)
        .host_threads(HOST_THREADS);
    let setup_s = t.elapsed().as_secs_f64();
    let (host_s, out, trace) = timed(rec, || builder.run().map_err(|e| e.to_string()));
    let outcome = out.map(|s| {
        let per_exec = s.per_executor.iter().map(|r| r.elapsed_s).collect();
        let mut o = run_outcome(&s.report, per_exec);
        match want {
            Some(r) => check_single(Workload::PrCluster, &s.results, r, &mut o.errors),
            None => missing_reference(&mut o.errors),
        }
        o
    });
    Sample {
        setup_s,
        host_s,
        outcome,
        trace,
    }
}

fn jobs(seed: u64, want: Option<&Reference>, rec: Option<&Rc<RefCell<Recorder>>>) -> Sample {
    let t = Instant::now();
    let defs = job_defs(seed);
    let joins: Vec<Build> = defs
        .iter()
        .filter_map(|d| match d.kind {
            JobKind::HashJoin { seed } => Some(Box::new(move || hash_join(seed)) as Build),
            JobKind::Table4 { .. } => None,
        })
        .collect();
    let mut svc = JobService::new(ServiceConfig {
        pool_executors: 4,
        policy: SchedPolicy::FairShare,
        dram_budget_bytes: Some(config().dram_capacity() * 3),
        host_threads: Some(HOST_THREADS),
    });
    svc.add_tenant(1, 2.0, None);
    svc.add_tenant(2, 1.0, None);
    svc.add_tenant(3, 1.0, None);
    if let Some(r) = rec {
        svc.set_observer(Tap::observer(r, None));
    }
    let mut joins = joins.iter();
    let submitted = catch_unwind(AssertUnwindSafe(|| {
        for (i, d) in defs.iter().enumerate() {
            let mut cfg = config();
            let spec = match d.kind {
                JobKind::Table4 { id, scale, seed } => {
                    // Cluster jobs are not observed: their events are
                    // re-emitted after the join (see `Recorder::spans_on`).
                    if let Some(r) = rec {
                        cfg.observer = Tap::observer(r, Some(i as u32));
                    }
                    let w = build_workload(id, scale, seed);
                    JobSpec::inline(d.tenant, w.program, w.fns, w.data)
                }
                JobKind::HashJoin { .. } => {
                    cfg.executors = 2;
                    let build = joins.next().expect("one closure per join");
                    JobSpec::rebuild(d.tenant, "hashjoin-e2", build.as_ref())
                }
            };
            svc.submit(spec.with_config(cfg).with_priority(d.priority))
                .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    }))
    .unwrap_or_else(|p| Err(panic_text(p)));
    let setup_s = t.elapsed().as_secs_f64();
    if let Err(e) = submitted {
        return failed(setup_s, e);
    }
    let (host_s, out, trace) = timed(rec, || Ok(svc.run()));
    let outcome = out.map(|r| jobs_outcome(&r, want));
    Sample {
        setup_s,
        host_s,
        outcome,
        trace,
    }
}

fn jobs_outcome(r: &ServiceReport, want: Option<&Reference>) -> Outcome {
    let report_json = r.to_json().to_compact();
    let mut layers = Layers::default();
    let mut errors = Vec::new();
    let mut energy_j = 0.0;
    for j in &r.jobs {
        if j.outcome != JobOutcome::Finished {
            errors.push(format!("job {} ({}): {}", j.job, j.name, j.outcome.label()));
        }
        if let Some(rep) = &j.report {
            layers.add(rep);
            energy_j += rep.energy_j();
            invariants(rep, &mut errors);
        }
    }
    match want {
        Some(Reference::Jobs(expect)) if expect.len() == r.jobs.len() => {
            for (j, e) in r.jobs.iter().zip(expect) {
                compare(
                    &format!("job {} ({})", j.job, j.name),
                    &j.results,
                    e,
                    &mut errors,
                );
            }
        }
        Some(_) => errors.push("job reference does not match the job list".into()),
        None => missing_reference(&mut errors),
    }
    Outcome {
        digest: fnv1a(&report_json),
        report_json,
        sim_s: r.makespan_s,
        energy_j,
        queue_s: r.jobs.iter().filter_map(|j| j.queued_s()).collect(),
        preemptions: r.preemptions,
        exec_sim_s: Vec::new(),
        layers,
        errors,
    }
}

// ---------------------------------------------------------------------------
// The static analysis, timed on its own.
// ---------------------------------------------------------------------------

/// The analysis of `w`'s program(s): host seconds of one pass over all of
/// them (median of passes repeated for at least `min_s`), and the DRAM-
/// and NVM-tagged sites.
pub fn analysis(w: Workload, seed: u64, min_s: f64) -> (f64, u64, u64) {
    let programs: Vec<Program> = match w {
        Workload::JobsMix => job_defs(seed)
            .into_iter()
            .map(|d| match d.kind {
                JobKind::Table4 { id, scale, seed } => build_workload(id, scale, seed).program,
                JobKind::HashJoin { seed } => hash_join(seed).0,
            })
            .collect(),
        _ => vec![single_input(w, seed).0.program],
    };
    let mut times = Vec::new();
    let (mut dram, mut nvm) = (0, 0);
    let start = Instant::now();
    while times.len() < 3 || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        let reports: Vec<_> = programs.iter().map(analyze).collect();
        times.push(t.elapsed().as_secs_f64());
        (dram, nvm) = (0, 0);
        for site in reports.iter().flat_map(|r| r.plan.sites.values()) {
            match site.tag {
                Some(MemoryTag::Dram) => dram += 1,
                Some(MemoryTag::Nvm) => nvm += 1,
                None => {}
            }
        }
    }
    (crate::median(&mut times), dram, nvm)
}
