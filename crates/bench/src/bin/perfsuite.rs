//! perfsuite: the host-performance trajectory harness (`BENCH_PR4.json`).
//!
//! Unlike the `fig*`/`table*` binaries, which reproduce the paper's
//! *simulated* results, this suite measures how fast the simulator itself
//! runs on the host — the quantity the zero-clone pipeline rework
//! optimizes. It times four Table 4 workloads end-to-end under two engine
//! configurations:
//!
//! * **new** — the current engine: `Rc`-shared payloads, fused narrow
//!   chains, bitmap card scanning;
//! * **unfused** — stage-at-a-time narrow execution
//!   (`fuse_narrow: false`).
//!
//! Both arms must report **bit-identical simulated results** (elapsed
//! time, energy, GC counts) — the suite asserts this invariant and
//! records it in the JSON. Host times are the median of `N` samples
//! (`PERFSUITE_SAMPLES`, default 5).
//!
//! Three micro-passes cover the allocator, the minor-GC cycle, and the
//! dirty-card sweep in isolation.
//!
//! An **executor-scaling arm** runs PageRank and an inline hash join on
//! the cluster path of `RunBuilder` at E = 1, 2, 4 executors (host threads
//! from `PANTHERA_HOST_THREADS`, default one per executor), asserting
//! that the E = 1 cluster report is bit-identical to the single-runtime
//! path and that host-thread count is invisible to the simulation.
//!
//! Output: `BENCH_PR4.json` in the current directory (override with
//! `PERFSUITE_OUT`), plus a host-time-free companion at `<out>.sim`
//! containing only simulated quantities — two perfsuite runs with
//! different host-thread budgets must produce byte-identical `.sim`
//! files, which CI checks with `cmp`.
//!
//! Flags:
//!
//! * `--quick` — one sample per arm at scale 0.05 (CI smoke), unless the
//!   `PERFSUITE_SAMPLES` / `PANTHERA_SCALE` environment overrides are set;
//! * `--executors N` — replace the default E = 1, 2, 4 scaling ladder
//!   with E = 1, N (E = 1 always runs, anchoring the legacy check);
//! * `--trace [PATH]` — after the benchmark, run PageRank under Panthera
//!   with the structured event stream attached and write it as JSONL to
//!   `PATH` (default `trace.jsonl`). Feed the file to `trace_summary`.
//! * `--faults SEED` — run the recovery-overhead suite instead: cluster
//!   PageRank under `{Recompute, CheckpointEvery(2)}` × {fault-free, one
//!   seeded mid-run executor crash}, asserting the faulted arms produce
//!   bit-identical results and host-thread-invariant reports. Emits
//!   `BENCH_PR5.json` plus its `.sim` companion.
//! * `--faults-anywhere SEED` — run the crash-anywhere suite instead:
//!   cluster PageRank under both recovery policies with virtual-time
//!   crash points drawn uniformly over the fault-free run's duration
//!   (crashes mid-stage, mid-deposit, mid-checkpoint — not at barriers),
//!   asserting bit-identical results, journal-validated no-op replays,
//!   and host-thread-invariant reports. Emits `BENCH_PR8.json` plus its
//!   `.sim` companion.
//! * `--shuffle` — run the serde-tax suite instead: shuffle-heavy join
//!   and group-by arms at E = 2, 4, 8 under both shuffle transports
//!   (per-record serde vs zero-copy shared region), asserting
//!   bit-identical results and a simulated win for the shared region,
//!   plus a cached-PageRank arm with and without the off-heap H2 region
//!   comparing GC pause totals. Emits `BENCH_PR6.json` plus its `.sim`
//!   companion.
//! * `--service` — run the multi-tenant scheduling suite instead: a
//!   20-job mixed workload (long PageRank front-runners plus trailing
//!   small jobs and atomic 2-executor hash joins) over an E = 4 shared
//!   pool under fair-share and FIFO policies, asserting fair share beats
//!   FIFO on p99 queueing delay at no more than 5% throughput cost and
//!   that the `ServiceReport` is host-thread invariant. Emits
//!   `BENCH_PR9.json` plus its `.sim` companion.
//! * `--stream` — run the streaming-regret suite instead: one seeded
//!   drifting micro-batch stream under the static, online, and oracle
//!   re-tagging policies, asserting byte-identical window outputs and
//!   the regret ordering (online ≤ static against the clairvoyant
//!   oracle), with per-policy DRAM hit ratios and batch-latency / GC
//!   pause quantiles. Emits `BENCH_PR10.json` plus its `.sim` companion.
//! * `--regions` — run the region-arena suite instead: every Table 4
//!   workload at a fixed cache-heavy scale with `region_alloc` off and
//!   on, asserting bit-identical results and drained arenas, and
//!   requiring at least 4 of the 7 workloads to reduce both the minor-GC
//!   pause p90 and the cards scanned; plus clustered PageRank arms at
//!   E = 2, 4 with regions on. Emits `BENCH_PR7.json` plus its `.sim`
//!   companion.

use gc::{GcCoordinator, PantheraPolicy};
use hybridmem::{Addr, MemorySystemConfig};
use mheap::{CardTable, Heap, HeapConfig, MemTag, ObjKind, Payload, RootSet, CARD_BYTES};
use obs::{Json, JsonlSink, MetricsAggregator, Observer};
use panthera::cluster::{host_threads_from_env, FaultPlan, FaultSpec};
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunReport, RunSummary, SystemConfig, SIM_GB,
};
use panthera_jobs::{JobOutcome, JobService, JobSpec, SchedPolicy, ServiceConfig, ServiceReport};
use panthera_stream::{RetagPolicy, StreamBuilder, StreamReport, StreamSpec};
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{DataRegistry, EngineConfig, ShuffleTransport};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use workloads::{build_workload, WorkloadId};

/// Write a benchmark artifact atomically: the bytes land in `<path>.tmp`
/// and rename into place, so an interrupted run never leaves a stray
/// half-written artifact next to the canonical one (the PR 6 suite once
/// leaked a `BENCH_PR6.json.sim` into the tree this way).
fn write_atomic(path: &str, contents: String) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).unwrap_or_else(|e| panic!("write {tmp}: {e}"));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename {tmp} -> {path}: {e}"));
}

/// Workloads timed end-to-end (PageRank, K-Means, Logistic Regression,
/// Connected Components — the ISSUE's Table 4 picks).
const WORKLOADS: [WorkloadId; 4] = [
    WorkloadId::Pr,
    WorkloadId::Km,
    WorkloadId::Lr,
    WorkloadId::Cc,
];

const SEED: u64 = 7;

/// Parsed command line: `--quick`, `--executors N`, `--trace [PATH]`,
/// `--faults SEED`, `--faults-anywhere SEED`, `--shuffle`, and
/// `--regions`.
struct Cli {
    quick: bool,
    executors: Option<u16>,
    trace: Option<String>,
    faults: Option<u64>,
    faults_anywhere: Option<u64>,
    shuffle: bool,
    regions: bool,
    service: bool,
    stream: bool,
}

impl Cli {
    fn parse() -> Cli {
        let mut cli = Cli {
            quick: false,
            executors: None,
            trace: None,
            faults: None,
            faults_anywhere: None,
            shuffle: false,
            regions: false,
            service: false,
            stream: false,
        };
        let mut args = std::env::args().skip(1).peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--executors" => {
                    let n = args
                        .next()
                        .and_then(|v| v.parse::<u16>().ok())
                        .filter(|&n| n >= 1);
                    match n {
                        Some(n) => cli.executors = Some(n),
                        None => {
                            eprintln!("perfsuite: --executors needs a positive integer");
                            std::process::exit(2);
                        }
                    }
                }
                "--trace" => {
                    let path = match args.peek() {
                        Some(next) if !next.starts_with("--") => args.next().unwrap(),
                        _ => "trace.jsonl".to_string(),
                    };
                    cli.trace = Some(path);
                }
                "--faults" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(seed) => cli.faults = Some(seed),
                    None => {
                        eprintln!("perfsuite: --faults needs an integer seed");
                        std::process::exit(2);
                    }
                },
                "--faults-anywhere" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(seed) => cli.faults_anywhere = Some(seed),
                    None => {
                        eprintln!("perfsuite: --faults-anywhere needs an integer seed");
                        std::process::exit(2);
                    }
                },
                "--shuffle" => cli.shuffle = true,
                "--regions" => cli.regions = true,
                "--service" => cli.service = true,
                "--stream" => cli.stream = true,
                other => {
                    eprintln!("perfsuite: unknown flag `{other}`");
                    eprintln!(
                        "usage: perfsuite [--quick] [--executors N] [--trace [PATH]] \
                         [--faults SEED] [--faults-anywhere SEED] [--shuffle] [--regions] \
                         [--service] [--stream]"
                    );
                    std::process::exit(2);
                }
            }
        }
        cli
    }

    /// The executor-count ladder for the scaling arm: `1, 2, 4` by
    /// default, or `1, N` under `--executors N` (E = 1 always runs so
    /// the legacy-equivalence check has its anchor).
    fn executor_ladder(&self) -> Vec<u16> {
        match self.executors {
            None => vec![1, 2, 4],
            Some(1) => vec![1],
            Some(n) => vec![1, n],
        }
    }
}

fn samples(cli: &Cli) -> usize {
    std::env::var("PERFSUITE_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|n: &usize| *n >= 1)
        .unwrap_or(if cli.quick { 1 } else { 5 })
}

fn scale_with(cli: &Cli) -> f64 {
    std::env::var("PANTHERA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(if cli.quick { 0.05 } else { 0.15 })
}

/// Median of host-time samples for `f`, in nanoseconds, plus the value
/// from the final run.
fn median_host_ns<T, F: FnMut() -> T>(n: usize, mut f: F) -> (u64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let report = black_box(f());
        times.push(t0.elapsed().as_nanos() as u64);
        last = Some(report);
    }
    times.sort_unstable();
    (times[times.len() / 2], last.expect("n >= 1"))
}

fn run_arm(id: WorkloadId, ecfg: EngineConfig, scale: f64) -> RunReport {
    let w = build_workload(id, scale, SEED);
    let cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .engine(ecfg)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", id.name()))
        .report
}

struct WorkloadRow {
    name: &'static str,
    unfused_ns: u64,
    new_ns: u64,
    speedup: f64,
    sim_elapsed_s: f64,
    sim_identical: bool,
    report: RunReport,
}

fn bench_workload(id: WorkloadId, n: usize, scale: f64) -> WorkloadRow {
    let unfused_cfg = EngineConfig {
        fuse_narrow: false,
        ..EngineConfig::default()
    };
    let (unfused_ns, unfused_rep) = median_host_ns(n, || run_arm(id, unfused_cfg.clone(), scale));
    let (new_ns, new_rep) = median_host_ns(n, || run_arm(id, EngineConfig::default(), scale));
    // The invariant that makes the comparison meaningful: both arms
    // simulate the same machine doing the same thing.
    let sim_identical = unfused_rep.elapsed_s.to_bits() == new_rep.elapsed_s.to_bits()
        && unfused_rep.energy_j().to_bits() == new_rep.energy_j().to_bits()
        && unfused_rep.gc.minor_count == new_rep.gc.minor_count
        && unfused_rep.gc.major_count == new_rep.gc.major_count
        && unfused_rep.heap.allocated_bytes == new_rep.heap.allocated_bytes;
    assert!(
        sim_identical,
        "{}: unfused and fused engines diverged in simulated results",
        id.name()
    );
    WorkloadRow {
        name: id.name(),
        unfused_ns,
        new_ns,
        speedup: unfused_ns as f64 / new_ns.max(1) as f64,
        sim_elapsed_s: new_rep.elapsed_s,
        sim_identical,
        report: new_rep,
    }
}

/// An inline two-source hash join (no `WorkloadId` covers one): `n`
/// keyed records joined against `n / 2`, keys folded so buckets collide,
/// counted once. Exercises the two-parent shuffle path the cluster
/// exchange has to merge from both sides.
fn hashjoin_build(scale: f64) -> (Program, FnTable, DataRegistry) {
    let n = ((40_000.0 * scale) as usize).max(64);
    let keys = (n / 8).max(1) as i64;
    let mut b = ProgramBuilder::new("hashjoin");
    let left = b.source("left");
    let right = b.source("right");
    let joined = b.bind("joined", left.join(right));
    b.action(joined, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register(
        "left",
        (0..n)
            .map(|i| Payload::keyed(i as i64 % keys, Payload::Long(i as i64 * 31 + 7)))
            .collect(),
    );
    data.register(
        "right",
        (0..n / 2)
            .map(|i| Payload::keyed(i as i64 % keys, Payload::Long(i as i64 * 13 + 1)))
            .collect(),
    );
    (program, fns, data)
}

fn cluster_run_once(wl: &str, scale: f64, executors: u16, host_threads: usize) -> RunSummary {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    // An empty fault plan pins the cluster path even at E = 1, so the
    // e1_matches_legacy check compares the two runtimes, not one with
    // itself.
    let none = FaultPlan::none();
    let pr_build = || {
        let w = build_workload(WorkloadId::Pr, scale, SEED);
        (w.program, w.fns, w.data)
    };
    let hj_build = || hashjoin_build(scale);
    let builder = match wl {
        "pr" => RunBuilder::from_build(&pr_build),
        _ => RunBuilder::from_build(&hj_build),
    };
    builder
        .config(cfg)
        .host_threads(host_threads)
        .faults(&none)
        .run()
        .expect("valid cluster config")
}

struct ScalingRow {
    workload: &'static str,
    executors: u16,
    host_ns: u64,
    e1_matches_legacy: Option<bool>,
    report: RunReport,
}

/// The executor-scaling arm: each workload across the E ladder, plus the
/// two cluster invariants — E = 1 must be bit-identical to the
/// single-runtime path, and (spot-checked at the ladder's top) the report
/// must not depend on the host-thread budget.
fn bench_scaling(ladder: &[u16], n: usize, scale: f64) -> (Vec<ScalingRow>, bool) {
    let mut rows = Vec::new();
    let mut determinism = true;
    let top = *ladder.last().expect("non-empty ladder");
    for wl in ["pr", "hashjoin"] {
        for &e in ladder {
            let host_threads = host_threads_from_env(usize::from(e));
            let (host_ns, out) = median_host_ns(n, || cluster_run_once(wl, scale, e, host_threads));
            let e1_matches_legacy = (e == 1).then(|| {
                let legacy = match wl {
                    "pr" => run_arm(WorkloadId::Pr, EngineConfig::default(), scale),
                    _ => {
                        let (program, fns, data) = hashjoin_build(scale);
                        let cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
                        RunBuilder::new(&program, fns, data)
                            .config(cfg)
                            .run()
                            .expect("valid configuration")
                            .report
                    }
                };
                let ok = out.report.to_json().to_compact() == legacy.to_json().to_compact();
                assert!(
                    ok,
                    "{wl}: E=1 cluster diverged from the single-runtime path"
                );
                ok
            });
            if e == top && e > 1 {
                let serial = cluster_run_once(wl, scale, e, 1);
                let ok = serial.report.to_json().to_compact() == out.report.to_json().to_compact();
                assert!(ok, "{wl} E={e}: report depends on the host-thread budget");
                determinism &= ok;
            }
            rows.push(ScalingRow {
                workload: wl,
                executors: e,
                host_ns,
                e1_matches_legacy,
                report: out.report,
            });
        }
    }
    (rows, determinism)
}

fn scaling_json(rows: &[ScalingRow], sim_only: bool) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let mut fields = vec![
                    ("workload", Json::Str(r.workload.into())),
                    ("executors", Json::UInt(u64::from(r.executors))),
                    ("sim_elapsed_s", Json::Num(r.report.elapsed_s)),
                    ("sim_energy_j", Json::Num(r.report.energy_j())),
                ];
                if !sim_only {
                    fields.push(("host_ns", Json::UInt(r.host_ns)));
                }
                if let Some(ok) = r.e1_matches_legacy {
                    fields.push(("e1_matches_legacy", Json::Bool(ok)));
                }
                fields.push(("report", r.report.to_json()));
                Json::obj(fields)
            })
            .collect(),
    )
}

/// The `--trace` run: PageRank under Panthera on a heap tight enough to
/// force dynamic migration (scale 0.2, 8 GB — the configuration the
/// observability tests pin down), with a JSONL sink and a metrics
/// aggregator attached. Events observe, never charge, so the trace run's
/// simulated results are identical to an untraced run of the same config.
fn write_trace(path: &str) {
    let jsonl = match JsonlSink::create(std::path::Path::new(path)) {
        Ok(sink) => Rc::new(RefCell::new(sink)),
        Err(e) => {
            eprintln!("perfsuite: cannot create {path}: {e}");
            std::process::exit(1);
        }
    };
    let metrics = Rc::new(RefCell::new(MetricsAggregator::new()));
    let observer = Observer::with_sink(jsonl.clone());
    observer.attach(metrics.clone());

    let w = build_workload(WorkloadId::Pr, 0.2, 3);
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
    cfg.observer = observer;
    let report = RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .unwrap_or_else(|e| panic!("trace config invalid: {e}"))
        .report;
    jsonl.borrow_mut().flush().expect("flush trace");

    let m = metrics.borrow();
    println!();
    println!(
        "trace: {} events -> {path} ({} RDDs migrated)",
        m.events_seen(),
        report.gc.rdds_migrated
    );
    print!("{}", m.summary_table());
    assert!(
        report.gc.rdds_migrated >= 1,
        "the trace run must exercise dynamic migration"
    );
}

/// Allocator micro-pass: young allocations through the full coordinator
/// path (bump allocation + automatic minor GCs when eden fills).
fn micro_alloc_ns_per_op() -> f64 {
    let mut heap = Heap::new(
        HeapConfig::panthera(48_000_000, 1.0 / 3.0),
        MemorySystemConfig::with_capacities(16_000_000, 32_000_000),
    )
    .unwrap();
    let mut gc = GcCoordinator::new(Box::new(PantheraPolicy::default()));
    let roots = RootSet::new();
    const OPS: usize = 200_000;
    let t0 = Instant::now();
    for i in 0..OPS {
        black_box(gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i as i64),
        ));
    }
    t0.elapsed().as_nanos() as f64 / OPS as f64
}

/// Minor-GC micro-pass: fill eden with short-lived tuples, collect,
/// repeat. Reports nanoseconds per collection cycle.
fn micro_minor_gc_ns() -> f64 {
    let mut heap = Heap::new(
        HeapConfig::panthera(48_000_000, 1.0 / 3.0),
        MemorySystemConfig::with_capacities(16_000_000, 32_000_000),
    )
    .unwrap();
    let mut gc = GcCoordinator::new(Box::new(PantheraPolicy::default()));
    let roots = RootSet::new();
    const CYCLES: usize = 50;
    const PER_CYCLE: usize = 2_000;
    let t0 = Instant::now();
    for _ in 0..CYCLES {
        for i in 0..PER_CYCLE {
            gc.alloc_young(
                &mut heap,
                &roots,
                ObjKind::Tuple,
                MemTag::None,
                vec![],
                Payload::Long(i as i64),
            );
        }
        gc.minor_gc(&mut heap, &roots);
    }
    t0.elapsed().as_nanos() as f64 / CYCLES as f64
}

/// Card-scan micro-pass: sweep a 64 MiB card table with sparse dirt via
/// the word-skipping cursor. Reports nanoseconds per full sweep.
fn micro_card_scan() -> (f64, usize, usize) {
    let capacity = 64u64 << 20;
    let mut table = CardTable::new(Addr(0), capacity);
    let n_cards = table.len();
    // Sparse dirt, the common post-mutator state: ~1% of cards.
    let mut dirty = 0usize;
    let mut idx = 0usize;
    while idx < n_cards {
        table.mark_dirty(Addr(idx as u64 * CARD_BYTES));
        dirty += 1;
        idx += 97;
    }
    const SWEEPS: usize = 2_000;
    let t0 = Instant::now();
    for _ in 0..SWEEPS {
        let mut sum = 0usize;
        let mut cursor = 0usize;
        while let Some(card) = table.next_dirty_from(cursor) {
            sum += card;
            cursor = card + 1;
        }
        black_box(sum);
        black_box(table.dirty_count());
    }
    let per_sweep = t0.elapsed().as_nanos() as f64 / SWEEPS as f64;
    (per_sweep, n_cards, dirty)
}

// ---------------------------------------------------------------------------
// The `--faults SEED` recovery-overhead suite (`BENCH_PR5.json`).
// ---------------------------------------------------------------------------

/// One measured recovery arm: a policy, with or without the injected
/// mid-run crash.
struct FaultRow {
    policy: &'static str,
    faulted: bool,
    host_ns: u64,
    outcome: RunSummary,
}

fn fault_run(
    scale: f64,
    executors: u16,
    policy: RecoveryPolicy,
    plan: &FaultPlan,
    host_threads: usize,
) -> RunSummary {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg.recovery = policy;
    let build = || {
        let w = build_workload(WorkloadId::Pr, scale, SEED);
        (w.program, w.fns, w.data)
    };
    RunBuilder::from_build(&build)
        .config(cfg)
        .host_threads(host_threads)
        .faults(plan)
        .run()
        .expect("valid cluster config")
}

fn fault_row_json(r: &FaultRow, sim_only: bool) -> Json {
    let rec = &r.outcome.report.recovery;
    let mut fields = vec![
        ("policy", Json::Str(r.policy.into())),
        ("faulted", Json::Bool(r.faulted)),
        ("sim_elapsed_s", Json::Num(r.outcome.report.elapsed_s)),
        ("sim_energy_j", Json::Num(r.outcome.report.energy_j())),
        ("executor_crashes", Json::UInt(rec.executor_crashes)),
        ("messages_lost", Json::UInt(rec.messages_lost)),
        ("alloc_faults", Json::UInt(rec.alloc_faults)),
        (
            "partitions_recomputed",
            Json::UInt(rec.partitions_recomputed),
        ),
        ("partitions_restored", Json::UInt(rec.partitions_restored)),
        ("stages_recomputed", Json::UInt(rec.stages_recomputed)),
        ("checkpoint_writes", Json::UInt(rec.checkpoint_writes)),
        ("checkpoint_bytes", Json::UInt(rec.checkpoint_bytes)),
        ("journal_noops", Json::UInt(rec.journal_noops)),
        ("journal_torn", Json::UInt(rec.journal_torn)),
        ("recovery_s", Json::Num(rec.recovery_s)),
    ];
    if !sim_only {
        fields.insert(2, ("host_ns", Json::UInt(r.host_ns)));
    }
    fields.push(("report", r.outcome.report.to_json()));
    Json::obj(fields)
}

/// The recovery-overhead suite: PageRank on the cluster driver, four
/// arms — {`Recompute`, `CheckpointEvery(2)`} × {fault-free, one
/// seeded mid-run crash} — plus the core PR 5 guarantee, asserted:
/// faulted arms produce bit-identical workload results to their
/// fault-free twins, and neither the aggregate report nor any
/// per-executor sub-report depends on the host-thread budget.
///
/// Output: `BENCH_PR5.json` (override with `PERFSUITE_OUT`) and the
/// host-time-free `<out>.sim` companion CI `cmp`s across
/// `PANTHERA_HOST_THREADS` budgets.
fn run_fault_suite(seed: u64, cli: &Cli, n: usize, scale: f64) {
    let executors: u16 = if cli.quick { 2 } else { 3 };
    let host_threads = host_threads_from_env(usize::from(executors));
    let plan = FaultPlan::generate(
        seed,
        executors,
        FaultSpec {
            crashes: 1,
            ..FaultSpec::default()
        },
    );
    assert!(
        !plan.crashes.is_empty(),
        "the fault suite needs its mid-run crash"
    );
    println!(
        "fault suite: seed {seed}, E={executors}, {} crash(es) at barrier(s) {:?}, \
         {} loss(es), {} alloc fault(s)",
        plan.crashes.len(),
        plan.crashes.iter().map(|c| c.barrier).collect::<Vec<_>>(),
        plan.losses.len(),
        plan.alloc_faults.len()
    );

    let policies = [
        ("recompute", RecoveryPolicy::Recompute),
        ("checkpoint_every_2", RecoveryPolicy::CheckpointEvery(2)),
    ];
    let mut rows: Vec<FaultRow> = Vec::new();
    let mut overheads = Vec::new();
    for (name, policy) in policies {
        let (clean_ns, clean) = median_host_ns(n, || {
            fault_run(scale, executors, policy, &FaultPlan::none(), host_threads)
        });
        let (faulted_ns, faulted) = median_host_ns(n, || {
            fault_run(scale, executors, policy, &plan, host_threads)
        });

        // The PR 5 core guarantee, measured here so the benchmark is
        // meaningless unless it holds.
        assert_eq!(
            faulted.results, clean.results,
            "{name}: fault injection changed the workload results"
        );
        assert!(
            faulted.report.recovery.executor_crashes >= 1,
            "{name}: the planned crash fired"
        );
        let serial = fault_run(scale, executors, policy, &plan, 1);
        assert_eq!(
            serial.report.to_json().to_compact(),
            faulted.report.to_json().to_compact(),
            "{name}: faulted aggregate report depends on the host-thread budget"
        );
        for (e, (s, t)) in serial
            .per_executor
            .iter()
            .zip(faulted.per_executor.iter())
            .enumerate()
        {
            assert_eq!(
                s.to_json().to_compact(),
                t.to_json().to_compact(),
                "{name}: executor {e} sub-report depends on the host-thread budget"
            );
        }

        let overhead_s = faulted.report.elapsed_s - clean.report.elapsed_s;
        let overhead_pct = 100.0 * overhead_s / clean.report.elapsed_s;
        println!(
            "{:<20} | clean {:>9.4}s sim | faulted {:>9.4}s sim | overhead {:>6.2}% \
             | recovery {:>8.4}s",
            name,
            clean.report.elapsed_s,
            faulted.report.elapsed_s,
            overhead_pct,
            faulted.report.recovery.recovery_s,
        );
        overheads.push((name, overhead_s, overhead_pct));
        rows.push(FaultRow {
            policy: name,
            faulted: false,
            host_ns: clean_ns,
            outcome: clean,
        });
        rows.push(FaultRow {
            policy: name,
            faulted: true,
            host_ns: faulted_ns,
            outcome: faulted,
        });
    }

    let plan_json = Json::obj(vec![
        ("seed", Json::UInt(seed)),
        (
            "crash_barriers",
            Json::Arr(plan.crashes.iter().map(|c| Json::UInt(c.barrier)).collect()),
        ),
        ("losses", Json::UInt(plan.losses.len() as u64)),
        ("alloc_faults", Json::UInt(plan.alloc_faults.len() as u64)),
    ]);
    let overhead_json = |(name, s, pct): &(&str, f64, f64)| {
        Json::obj(vec![
            ("policy", Json::Str((*name).into())),
            ("overhead_sim_s", Json::Num(*s)),
            ("overhead_pct", Json::Num(*pct)),
        ])
    };

    let j = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR5".into())),
        ("scale", Json::Num(scale)),
        ("samples_per_arm", Json::UInt(n as u64)),
        ("executors", Json::UInt(u64::from(executors))),
        ("fault_plan", plan_json.clone()),
        (
            "arms",
            Json::Arr(rows.iter().map(|r| fault_row_json(r, false)).collect()),
        ),
        (
            "recovery_overhead",
            Json::Arr(overheads.iter().map(overhead_json).collect()),
        ),
        ("results_identical", Json::Bool(true)),
        ("host_thread_invariant", Json::Bool(true)),
    ]);
    let out = std::env::var("PERFSUITE_OUT").unwrap_or_else(|_| "BENCH_PR5.json".into());
    write_atomic(&out, j.to_pretty() + "\n");
    println!("wrote {out}");

    let sim = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR5.sim".into())),
        ("scale", Json::Num(scale)),
        ("executors", Json::UInt(u64::from(executors))),
        ("fault_plan", plan_json),
        (
            "arms",
            Json::Arr(rows.iter().map(|r| fault_row_json(r, true)).collect()),
        ),
        (
            "recovery_overhead",
            Json::Arr(overheads.iter().map(overhead_json).collect()),
        ),
        ("results_identical", Json::Bool(true)),
        ("host_thread_invariant", Json::Bool(true)),
    ]);
    let sim_out = format!("{out}.sim");
    write_atomic(&sim_out, sim.to_pretty() + "\n");
    println!("wrote {sim_out}");
}

// ---------------------------------------------------------------------------
// The `--faults-anywhere SEED` random-point crash suite (`BENCH_PR8.json`).
// ---------------------------------------------------------------------------

/// The crash-anywhere overhead suite (PR 8): PageRank on the cluster
/// driver with virtual-time crash points drawn uniformly over the
/// fault-free run's duration, under both recovery policies — so
/// executors die mid-stage, mid-deposit, and mid-checkpoint rather than
/// at barriers. Asserts the PR 8 acceptance before reporting a number:
/// faulted results bit-identical to the fault-free twin, replayed
/// deposits validated as journal no-ops, and neither the aggregate
/// report nor any per-executor sub-report depending on the host-thread
/// budget.
///
/// Output: `BENCH_PR8.json` (override with `PERFSUITE_OUT`) and the
/// host-time-free `<out>.sim` companion CI `cmp`s across
/// `PANTHERA_HOST_THREADS` budgets.
fn run_faults_anywhere_suite(seed: u64, cli: &Cli, n: usize, scale: f64) {
    let executors: u16 = if cli.quick { 2 } else { 3 };
    let host_threads = host_threads_from_env(usize::from(executors));
    let vcrashes: u32 = if cli.quick { 2 } else { 3 };
    let policies = [
        ("recompute", RecoveryPolicy::Recompute),
        ("checkpoint_every_2", RecoveryPolicy::CheckpointEvery(2)),
    ];
    let mut rows: Vec<FaultRow> = Vec::new();
    let mut overheads = Vec::new();
    let mut plans_json = Vec::new();
    for (name, policy) in policies {
        let (clean_ns, clean) = median_host_ns(n, || {
            fault_run(scale, executors, policy, &FaultPlan::none(), host_threads)
        });
        // The fault-free duration bounds the window crash points are
        // drawn from. It is a simulated quantity, so every host-thread
        // budget derives the identical plan — the `.sim` artifact stays
        // byte-comparable across budgets.
        let horizon_ns = clean.report.elapsed_s * 1e9;
        let plan = FaultPlan::generate(
            seed,
            executors,
            FaultSpec {
                crashes: 0,
                max_losses: 0,
                max_alloc_faults: 0,
                vcrashes,
                vtime_lo_ns: 0.0,
                vtime_hi_ns: horizon_ns,
                ..FaultSpec::default()
            },
        );
        assert!(
            !plan.vcrashes.is_empty(),
            "the crash-anywhere suite needs its crash points"
        );
        println!(
            "{name}: {} random-point crash(es): {:?}",
            plan.vcrashes.len(),
            plan.vcrashes
                .iter()
                .map(|p| (p.exec, p.at_ns))
                .collect::<Vec<_>>()
        );
        let (faulted_ns, faulted) = median_host_ns(n, || {
            fault_run(scale, executors, policy, &plan, host_threads)
        });

        assert_eq!(
            faulted.results, clean.results,
            "{name}: random-point crashes changed the workload results"
        );
        let rec = &faulted.report.recovery;
        assert!(
            rec.executor_crashes >= 1,
            "{name}: at least one planned point fired"
        );
        assert!(
            rec.journal_noops > 0,
            "{name}: the replay re-validated committed deposits"
        );
        let serial = fault_run(scale, executors, policy, &plan, 1);
        assert_eq!(
            serial.report.to_json().to_compact(),
            faulted.report.to_json().to_compact(),
            "{name}: crash-anywhere aggregate report depends on the host-thread budget"
        );
        for (e, (s, t)) in serial
            .per_executor
            .iter()
            .zip(faulted.per_executor.iter())
            .enumerate()
        {
            assert_eq!(
                s.to_json().to_compact(),
                t.to_json().to_compact(),
                "{name}: executor {e} sub-report depends on the host-thread budget"
            );
        }

        let overhead_s = faulted.report.elapsed_s - clean.report.elapsed_s;
        let overhead_pct = 100.0 * overhead_s / clean.report.elapsed_s;
        println!(
            "{:<20} | clean {:>9.4}s sim | faulted {:>9.4}s sim | overhead {:>6.2}% \
             | {} crash(es), {} no-op(s), {} torn",
            name,
            clean.report.elapsed_s,
            faulted.report.elapsed_s,
            overhead_pct,
            rec.executor_crashes,
            rec.journal_noops,
            rec.journal_torn,
        );
        overheads.push((name, overhead_s, overhead_pct));
        plans_json.push(Json::obj(vec![
            ("policy", Json::Str(name.into())),
            ("seed", Json::UInt(seed)),
            (
                "points",
                Json::Arr(
                    plan.vcrashes
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("exec", Json::UInt(u64::from(p.exec))),
                                ("at_ns", Json::Num(p.at_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        rows.push(FaultRow {
            policy: name,
            faulted: false,
            host_ns: clean_ns,
            outcome: clean,
        });
        rows.push(FaultRow {
            policy: name,
            faulted: true,
            host_ns: faulted_ns,
            outcome: faulted,
        });
    }

    let overhead_json = |(name, s, pct): &(&str, f64, f64)| {
        Json::obj(vec![
            ("policy", Json::Str((*name).into())),
            ("overhead_sim_s", Json::Num(*s)),
            ("overhead_pct", Json::Num(*pct)),
        ])
    };
    let j = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR8".into())),
        ("scale", Json::Num(scale)),
        ("samples_per_arm", Json::UInt(n as u64)),
        ("executors", Json::UInt(u64::from(executors))),
        ("fault_plans", Json::Arr(plans_json.clone())),
        (
            "arms",
            Json::Arr(rows.iter().map(|r| fault_row_json(r, false)).collect()),
        ),
        (
            "recovery_overhead",
            Json::Arr(overheads.iter().map(overhead_json).collect()),
        ),
        ("results_identical", Json::Bool(true)),
        ("host_thread_invariant", Json::Bool(true)),
    ]);
    let out = std::env::var("PERFSUITE_OUT").unwrap_or_else(|_| "BENCH_PR8.json".into());
    write_atomic(&out, j.to_pretty() + "\n");
    println!("wrote {out}");

    let sim = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR8.sim".into())),
        ("scale", Json::Num(scale)),
        ("executors", Json::UInt(u64::from(executors))),
        ("fault_plans", Json::Arr(plans_json)),
        (
            "arms",
            Json::Arr(rows.iter().map(|r| fault_row_json(r, true)).collect()),
        ),
        (
            "recovery_overhead",
            Json::Arr(overheads.iter().map(overhead_json).collect()),
        ),
        ("results_identical", Json::Bool(true)),
        ("host_thread_invariant", Json::Bool(true)),
    ]);
    let sim_out = format!("{out}.sim");
    write_atomic(&sim_out, sim.to_pretty() + "\n");
    println!("wrote {sim_out}");
}

// ---------------------------------------------------------------------------
// The `--shuffle` serde-tax suite (`BENCH_PR6.json`).
// ---------------------------------------------------------------------------

/// One measured shuffle arm: a workload at an executor count under one
/// transport.
struct ShuffleRow {
    workload: &'static str,
    executors: u16,
    transport: &'static str,
    host_ns: u64,
    shared_region_bytes: u64,
    outcome: RunSummary,
}

/// An inline group-by (`n` keyed records folded into colliding buckets,
/// grouped, counted) — the shuffle whose map output is pure fan-out.
fn groupby_build(scale: f64) -> (Program, FnTable, DataRegistry) {
    let n = ((40_000.0 * scale) as usize).max(64);
    let keys = (n / 8).max(1) as i64;
    let mut b = ProgramBuilder::new("groupby");
    let src = b.source("src");
    let grouped = b.bind("grouped", src.group_by_key());
    b.action(grouped, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register(
        "src",
        (0..n)
            .map(|i| Payload::keyed(i as i64 % keys, Payload::Long(i as i64 * 31 + 7)))
            .collect(),
    );
    (program, fns, data)
}

fn shuffle_run(
    wl: &str,
    scale: f64,
    executors: u16,
    transport: ShuffleTransport,
    host_threads: usize,
) -> RunSummary {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg.transport = transport;
    let none = FaultPlan::none();
    let hj_build = || hashjoin_build(scale);
    let gb_build = || groupby_build(scale);
    let builder = match wl {
        "hashjoin" => RunBuilder::from_build(&hj_build),
        _ => RunBuilder::from_build(&gb_build),
    };
    builder
        .config(cfg)
        .host_threads(host_threads)
        .faults(&none)
        .run()
        .expect("valid cluster config")
}

fn shuffle_row_json(r: &ShuffleRow, sim_only: bool) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(r.workload.into())),
        ("executors", Json::UInt(u64::from(r.executors))),
        ("transport", Json::Str(r.transport.into())),
        ("sim_elapsed_s", Json::Num(r.outcome.report.elapsed_s)),
        ("sim_energy_j", Json::Num(r.outcome.report.energy_j())),
        (
            "shuffle_bytes",
            Json::UInt(r.outcome.report.exec.shuffle_bytes),
        ),
        (
            "fastpath_bytes",
            Json::UInt(r.outcome.report.exec.fastpath_bytes),
        ),
        ("shared_region_bytes", Json::UInt(r.shared_region_bytes)),
    ];
    if !sim_only {
        fields.insert(3, ("host_ns", Json::UInt(r.host_ns)));
    }
    fields.push(("report", r.outcome.report.to_json()));
    Json::obj(fields)
}

/// The serde-tax suite: shuffle-heavy join and group-by at E = 2, 4, 8
/// under both transports, plus a cached-PageRank arm with and without
/// the off-heap H2 region. Asserted while measuring:
///
/// * the two transports produce bit-identical action results, and the
///   shared region never simulates slower than serde;
/// * serde arms charge zero fast-path bytes, shared-region arms at this
///   scale always move cross-executor bytes through it;
/// * the off-heap region changes no PageRank value, drains exactly, and
///   strictly reduces total GC pause time on the cache-heavy arm.
fn run_shuffle_suite(cli: &Cli, n: usize, scale: f64) {
    let ladder: [u16; 3] = [2, 4, 8];
    println!("shuffle suite: E={ladder:?}, both transports, {n} samples/arm");
    println!(
        "{:<10} {:>4} | {:>11} {:>11} | {:>10} | {:>14}",
        "wl", "E", "serde s", "shared s", "saved %", "bytes avoided"
    );
    println!("{}", "-".repeat(72));

    let mut rows: Vec<ShuffleRow> = Vec::new();
    let mut reductions = Vec::new();
    for wl in ["hashjoin", "groupby"] {
        for &e in &ladder {
            let host_threads = host_threads_from_env(usize::from(e));
            let (serde_ns, serde) = median_host_ns(n, || {
                shuffle_run(wl, scale, e, ShuffleTransport::Serde, host_threads)
            });
            let (shared_ns, shared) = median_host_ns(n, || {
                shuffle_run(wl, scale, e, ShuffleTransport::SharedRegion, host_threads)
            });
            assert_eq!(
                shared.results, serde.results,
                "{wl} E={e}: transport changed the workload results"
            );
            assert_eq!(
                serde.report.exec.fastpath_bytes, 0,
                "{wl} E={e}: serde transport charged the fast path"
            );
            assert!(
                shared.report.exec.fastpath_bytes > 0,
                "{wl} E={e}: no cross-executor bytes rode the shared region"
            );
            assert!(
                shared.report.elapsed_s <= serde.report.elapsed_s,
                "{wl} E={e}: shared region simulated slower than serde \
                 ({} > {})",
                shared.report.elapsed_s,
                serde.report.elapsed_s
            );
            let saved_s = serde.report.elapsed_s - shared.report.elapsed_s;
            let saved_pct = 100.0 * saved_s / serde.report.elapsed_s;
            println!(
                "{:<10} {:>4} | {:>10.4}s {:>10.4}s | {:>9.2}% | {:>14}",
                wl,
                e,
                serde.report.elapsed_s,
                shared.report.elapsed_s,
                saved_pct,
                shared.report.exec.fastpath_bytes
            );
            reductions.push((wl, e, saved_s, saved_pct));
            rows.push(ShuffleRow {
                workload: wl,
                executors: e,
                transport: "serde",
                host_ns: serde_ns,
                shared_region_bytes: serde.shared_region_bytes,
                outcome: serde,
            });
            rows.push(ShuffleRow {
                workload: wl,
                executors: e,
                transport: "shared_region",
                host_ns: shared_ns,
                shared_region_bytes: shared.shared_region_bytes,
                outcome: shared,
            });
        }
    }

    // The cached-RDD arm: PageRank re-reads its persisted link structure
    // every iteration. Run it at a fixed cache-heavy scale (independent
    // of the CLI scale so the GC effect is out of the noise floor) with
    // the H2 region off and on.
    const GC_SCALE: f64 = 0.4;
    let pr_arm = |offheap: bool| {
        let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
        cfg.offheap_cache = offheap;
        let w = build_workload(WorkloadId::Pr, GC_SCALE, SEED);
        RunBuilder::new(&w.program, w.fns, w.data)
            .config(cfg)
            .run()
            .expect("valid configuration")
    };
    let (heap_run, off_run) = (pr_arm(false), pr_arm(true));
    let (heap_rep, off_rep) = (&heap_run.report, &off_run.report);
    assert_eq!(
        off_run.results, heap_run.results,
        "cached-PageRank: the off-heap region changed a value"
    );
    assert_eq!(
        off_rep.exec.offheap_frees, off_rep.exec.offheap_allocs,
        "cached-PageRank: the off-heap region must drain"
    );
    assert_eq!(off_rep.exec.offheap_leaks, 0, "cached-PageRank: leaks");
    let gc_heap = heap_rep.minor_gc_s + heap_rep.major_gc_s;
    let gc_off = off_rep.minor_gc_s + off_rep.major_gc_s;
    assert!(
        gc_off < gc_heap,
        "cached-PageRank: off-heap caching must reduce GC pause totals \
         ({gc_off} >= {gc_heap})"
    );
    let gc_saved_pct = 100.0 * (gc_heap - gc_off) / gc_heap;
    println!("{}", "-".repeat(72));
    println!(
        "cached PR (scale {GC_SCALE}): GC pauses {:.6}s heap-cached -> {:.6}s off-heap \
         ({gc_saved_pct:.1}% less), {} off-heap allocs",
        gc_heap, gc_off, off_rep.exec.offheap_allocs
    );

    let reduction_json = |(wl, e, s, pct): &(&str, u16, f64, f64)| {
        Json::obj(vec![
            ("workload", Json::Str((*wl).into())),
            ("executors", Json::UInt(u64::from(*e))),
            ("saved_sim_s", Json::Num(*s)),
            ("saved_pct", Json::Num(*pct)),
        ])
    };
    let pagerank_json = |sim_only: bool| {
        let mut fields = vec![
            ("scale", Json::Num(GC_SCALE)),
            ("gc_pause_s_heap_cached", Json::Num(gc_heap)),
            ("gc_pause_s_offheap", Json::Num(gc_off)),
            ("gc_pause_saved_pct", Json::Num(gc_saved_pct)),
            ("offheap_allocs", Json::UInt(off_rep.exec.offheap_allocs)),
            ("offheap_bytes", Json::UInt(off_rep.exec.offheap_bytes)),
            (
                "heap_allocated_bytes_heap_cached",
                Json::UInt(heap_rep.heap.allocated_bytes),
            ),
            (
                "heap_allocated_bytes_offheap",
                Json::UInt(off_rep.heap.allocated_bytes),
            ),
        ];
        if !sim_only {
            fields.push(("report_heap_cached", heap_rep.to_json()));
            fields.push(("report_offheap", off_rep.to_json()));
        }
        Json::obj(fields)
    };

    let arms =
        |sim_only: bool| Json::Arr(rows.iter().map(|r| shuffle_row_json(r, sim_only)).collect());
    let j = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR6".into())),
        ("scale", Json::Num(scale)),
        ("samples_per_arm", Json::UInt(n as u64)),
        ("arms", arms(false)),
        (
            "shuffle_cost_reduction",
            Json::Arr(reductions.iter().map(reduction_json).collect()),
        ),
        ("cached_pagerank", pagerank_json(false)),
        ("results_identical", Json::Bool(true)),
    ]);
    let out = std::env::var("PERFSUITE_OUT").unwrap_or_else(|_| "BENCH_PR6.json".into());
    write_atomic(&out, j.to_pretty() + "\n");
    println!("wrote {out}");

    let sim = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR6.sim".into())),
        ("scale", Json::Num(scale)),
        ("arms", arms(true)),
        (
            "shuffle_cost_reduction",
            Json::Arr(reductions.iter().map(reduction_json).collect()),
        ),
        ("cached_pagerank", pagerank_json(true)),
        ("results_identical", Json::Bool(true)),
    ]);
    let sim_out = format!("{out}.sim");
    write_atomic(&sim_out, sim.to_pretty() + "\n");
    println!("wrote {sim_out}");
    let _ = cli;
}

// ---------------------------------------------------------------------------
// The `--regions` lifetime-region suite (`BENCH_PR7.json`).
// ---------------------------------------------------------------------------

/// One workload measured with region arenas off and on.
struct RegionRow {
    workload: &'static str,
    host_ns_off: u64,
    host_ns_on: u64,
    off: RunSummary,
    on: RunSummary,
}

impl RegionRow {
    /// Did regions strictly reduce both the minor-pause p90 and the
    /// number of cards scanned?
    fn improved(&self) -> bool {
        let (off, on) = (&self.off.report, &self.on.report);
        on.minor_pauses.quantile_ns(0.90) < off.minor_pauses.quantile_ns(0.90)
            && on.gc.cards_scanned < off.gc.cards_scanned
    }
}

fn region_row_json(r: &RegionRow, sim_only: bool) -> Json {
    let (off, on) = (&r.off.report, &r.on.report);
    let mut fields = vec![
        ("workload", Json::Str(r.workload.into())),
        (
            "minor_p90_ns_off",
            Json::Num(off.minor_pauses.quantile_ns(0.90)),
        ),
        (
            "minor_p90_ns_on",
            Json::Num(on.minor_pauses.quantile_ns(0.90)),
        ),
        ("cards_scanned_off", Json::UInt(off.gc.cards_scanned)),
        ("cards_scanned_on", Json::UInt(on.gc.cards_scanned)),
        ("minor_gc_s_off", Json::Num(off.minor_gc_s)),
        ("minor_gc_s_on", Json::Num(on.minor_gc_s)),
        ("region_allocs", Json::UInt(on.exec.region_allocs)),
        (
            "region_stage_arenas",
            Json::UInt(on.exec.region_stage_arenas),
        ),
        ("region_stage_bytes", Json::UInt(on.exec.region_stage_bytes)),
        ("improved", Json::Bool(r.improved())),
    ];
    if !sim_only {
        fields.insert(1, ("host_ns_off", Json::UInt(r.host_ns_off)));
        fields.insert(2, ("host_ns_on", Json::UInt(r.host_ns_on)));
        fields.push(("report_off", off.to_json()));
        fields.push(("report_on", on.to_json()));
    }
    Json::obj(fields)
}

/// The region-arena suite: every Table 4 workload at a fixed
/// cache-heavy scale with `region_alloc` off and on, plus clustered
/// PageRank at E = 2, 4 with regions on. Asserted while measuring:
///
/// * action results are bit-identical with regions off or on, at every
///   width;
/// * every RDD-lifetime arena drains exactly (frees == allocs, no
///   leaks, no dead reads) in every run and every executor;
/// * at least 4 of the 7 workloads strictly reduce both the minor-GC
///   pause p90 and the cards scanned.
fn run_region_suite(cli: &Cli, n: usize) {
    // Fixed cache-heavy scale (like the shuffle suite's cached-PR arm):
    // the GC effect regions remove must be out of the noise floor.
    const REGION_SCALE: f64 = 0.4;
    println!("region suite: scale {REGION_SCALE}, {n} samples/arm");
    println!(
        "{:<6} | {:>12} {:>12} | {:>10} {:>10} | {:>8}",
        "wl", "p90 off(ns)", "p90 on(ns)", "cards off", "cards on", "improved"
    );
    println!("{}", "-".repeat(72));

    let run_one = |id: WorkloadId, regions: bool| {
        let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
        cfg.region_alloc = regions;
        let w = build_workload(id, REGION_SCALE, SEED);
        RunBuilder::new(&w.program, w.fns, w.data)
            .config(cfg)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", id.name()))
    };

    let mut rows: Vec<RegionRow> = Vec::new();
    for id in WorkloadId::ALL {
        let (host_ns_off, off) = median_host_ns(n, || run_one(id, false));
        let (host_ns_on, on) = median_host_ns(n, || run_one(id, true));
        assert_eq!(
            on.results,
            off.results,
            "{}: region allocation changed a value",
            id.name()
        );
        let e = &on.report.exec;
        assert_eq!(
            e.region_frees,
            e.region_allocs,
            "{}: RDD-lifetime arenas must drain",
            id.name()
        );
        assert_eq!(e.region_leaks, 0, "{}: arena leaks", id.name());
        assert_eq!(e.region_dead_reads, 0, "{}: arena dead reads", id.name());
        let row = RegionRow {
            workload: id.name(),
            host_ns_off,
            host_ns_on,
            off,
            on,
        };
        println!(
            "{:<6} | {:>12.0} {:>12.0} | {:>10} {:>10} | {:>8}",
            row.workload,
            row.off.report.minor_pauses.quantile_ns(0.90),
            row.on.report.minor_pauses.quantile_ns(0.90),
            row.off.report.gc.cards_scanned,
            row.on.report.gc.cards_scanned,
            row.improved()
        );
        rows.push(row);
    }
    let improved = rows.iter().filter(|r| r.improved()).count();
    println!("{}", "-".repeat(72));
    println!(
        "{improved}/{} workloads reduced both minor-pause p90 and cards scanned",
        rows.len()
    );
    assert!(
        improved >= 4,
        "region arenas must reduce minor-pause p90 and cards scanned on \
         at least 4 of {} workloads (got {improved})",
        rows.len()
    );

    // Clustered PageRank with regions on: per-executor arenas must drain
    // and results must match the off run at the same width. These arms
    // carry the host-thread-invariance burden of the `.sim` artifact.
    let cluster_arm = |executors: u16, regions: bool| {
        let build = || {
            let w = build_workload(WorkloadId::Pr, REGION_SCALE, SEED);
            (w.program, w.fns, w.data)
        };
        let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
        cfg.executors = executors;
        cfg.region_alloc = regions;
        let none = FaultPlan::none();
        RunBuilder::from_build(&build)
            .config(cfg)
            .host_threads(host_threads_from_env(usize::from(executors)))
            .faults(&none)
            .run()
            .expect("valid cluster config")
    };
    let mut cluster_rows = Vec::new();
    for e in [2u16, 4] {
        let off = cluster_arm(e, false);
        let on = cluster_arm(e, true);
        assert_eq!(
            on.results, off.results,
            "clustered PR E={e}: region allocation changed a value"
        );
        for (i, rep) in on.per_executor.iter().enumerate() {
            assert_eq!(
                rep.exec.region_frees, rep.exec.region_allocs,
                "clustered PR E={e} executor {i}: arenas must drain"
            );
            assert_eq!(
                rep.exec.region_leaks, 0,
                "clustered PR E={e} executor {i}: leaks"
            );
        }
        println!(
            "cluster PR E={e}: regions on matches off, {} arenas drained across executors",
            on.report.exec.region_allocs
        );
        cluster_rows.push((e, on));
    }
    let cluster_json = |sim_only: bool| {
        Json::Arr(
            cluster_rows
                .iter()
                .map(|(e, on)| {
                    let mut fields = vec![
                        ("executors", Json::UInt(u64::from(*e))),
                        ("sim_elapsed_s", Json::Num(on.report.elapsed_s)),
                        ("region_allocs", Json::UInt(on.report.exec.region_allocs)),
                        (
                            "region_stage_arenas",
                            Json::UInt(on.report.exec.region_stage_arenas),
                        ),
                    ];
                    if !sim_only {
                        fields.push(("report", on.report.to_json()));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    };

    let arms =
        |sim_only: bool| Json::Arr(rows.iter().map(|r| region_row_json(r, sim_only)).collect());
    let j = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR7".into())),
        ("scale", Json::Num(REGION_SCALE)),
        ("samples_per_arm", Json::UInt(n as u64)),
        ("arms", arms(false)),
        ("cluster_pagerank", cluster_json(false)),
        ("workloads_improved", Json::UInt(improved as u64)),
        ("results_identical", Json::Bool(true)),
    ]);
    let out = std::env::var("PERFSUITE_OUT").unwrap_or_else(|_| "BENCH_PR7.json".into());
    write_atomic(&out, j.to_pretty() + "\n");
    println!("wrote {out}");

    let sim = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR7.sim".into())),
        ("scale", Json::Num(REGION_SCALE)),
        ("arms", arms(true)),
        ("cluster_pagerank", cluster_json(true)),
        ("workloads_improved", Json::UInt(improved as u64)),
        ("results_identical", Json::Bool(true)),
    ]);
    let sim_out = format!("{out}.sim");
    write_atomic(&sim_out, sim.to_pretty() + "\n");
    println!("wrote {sim_out}");
    let _ = cli;
}

// ---------------------------------------------------------------------------
// The `--service` multi-tenant scheduling suite (`BENCH_PR9.json`).
// ---------------------------------------------------------------------------

/// Rebuild source for the service suite's atomic 2-executor jobs (a
/// plain `fn` so it outlives any service borrowing it).
fn service_hashjoin_build() -> (Program, FnTable, DataRegistry) {
    hashjoin_build(0.05)
}

/// Submit the 20-job mixed workload and drain the service under
/// `policy`. The sequence is adversarial for FIFO: one tenant front-loads
/// five long PageRank jobs, then two tenants trail in with thirteen small
/// jobs and two atomic 2-executor hash joins — under FIFO every small job
/// queues behind the long ones; under fair share the light tenants
/// dispatch at the first stage barriers.
fn service_run_once(
    policy: SchedPolicy,
    host_threads: Option<usize>,
    quick: bool,
) -> ServiceReport {
    let huge_scale = if quick { 0.08 } else { 0.2 };
    let tiny_scale = if quick { 0.02 } else { 0.03 };
    // PageRank at scale 0.2 needs the 8 GB heap the migration suite uses;
    // the budget and quota scale with it so the DRAM split and the
    // quota-gating of tenant 3's atomic jobs behave the same in both
    // modes.
    let heap = if quick { 4 } else { 8 } * SIM_GB;
    let mut svc = JobService::new(ServiceConfig {
        pool_executors: 4,
        policy,
        dram_budget_bytes: Some(6 * heap),
        host_threads,
    });
    svc.add_tenant(1, 1.0, None);
    svc.add_tenant(2, 1.0, None);
    svc.add_tenant(3, 1.0, Some(4 * heap));
    let job_cfg = SystemConfig::new(MemoryMode::Panthera, heap, 1.0 / 3.0);
    // Jobs 0-4: tenant 1's long PageRank runs, front of the queue.
    for seed in 0..5u64 {
        let w = build_workload(WorkloadId::Pr, huge_scale, seed);
        svc.submit(JobSpec::inline(1, w.program, w.fns, w.data).with_config(job_cfg.clone()))
            .expect("admissible");
    }
    // Jobs 5-17: tenants 2 and 3 alternate small Table 4 jobs.
    const SMALL: [WorkloadId; 6] = [
        WorkloadId::Km,
        WorkloadId::Lr,
        WorkloadId::Tc,
        WorkloadId::Cc,
        WorkloadId::Sssp,
        WorkloadId::Bc,
    ];
    for i in 0..13u64 {
        let tenant = 2 + (i % 2) as u32;
        let w = build_workload(SMALL[(i % 6) as usize], tiny_scale, 100 + i);
        svc.submit(
            JobSpec::inline(tenant, w.program, w.fns, w.data)
                .with_config(job_cfg.clone())
                .with_priority((i % 3) as u32),
        )
        .expect("admissible");
    }
    // Jobs 18-19: tenant 3's atomic 2-executor hash joins (the cluster
    // path inside the service).
    for _ in 0..2 {
        let mut c = job_cfg.clone();
        c.executors = 2;
        svc.submit(JobSpec::rebuild(3, "hashjoin-e2", &service_hashjoin_build).with_config(c))
            .expect("admissible");
    }
    svc.run()
}

fn service_arm_json(policy: &str, host_ns: u64, r: &ServiceReport, sim_only: bool) -> Json {
    let mut fields = vec![
        ("policy", Json::Str(policy.into())),
        ("jobs_per_s", Json::Num(r.jobs_per_s)),
        ("makespan_s", Json::Num(r.makespan_s)),
        ("queue_p50_s", Json::Num(r.queue_p50_s)),
        ("queue_p99_s", Json::Num(r.queue_p99_s)),
        ("queue_max_s", Json::Num(r.queue_max_s)),
        ("preemptions", Json::UInt(r.preemptions)),
        ("max_vtime_spread_s", Json::Num(r.max_vtime_spread_s)),
        ("max_stage_charge_s", Json::Num(r.max_stage_charge_s)),
    ];
    if !sim_only {
        fields.insert(1, ("host_ns", Json::UInt(host_ns)));
    }
    fields.push(("report", r.to_json()));
    Json::obj(fields)
}

/// The multi-tenant service suite: the 20-job mixed workload over an
/// E = 4 pool under fair share and FIFO. Asserted while measuring:
///
/// * every job finishes under both policies;
/// * fair share beats FIFO on p99 queueing delay without giving up more
///   than 5% throughput (jobs per service second) — the PR 9 SLO;
/// * the `ServiceReport` is bit-identical across host-thread budgets
///   (checked in-process at 1 vs 4 threads here, and across
///   `PANTHERA_HOST_THREADS` budgets by CI `cmp`ing the `.sim` files).
fn run_service_suite(cli: &Cli, n: usize) {
    let run = |policy: SchedPolicy| median_host_ns(n, || service_run_once(policy, None, cli.quick));
    let (fair_ns, fair) = run(SchedPolicy::FairShare);
    let (fifo_ns, fifo) = run(SchedPolicy::Fifo);

    for (name, r) in [("fair_share", &fair), ("fifo", &fifo)] {
        for job in &r.jobs {
            assert_eq!(
                job.outcome,
                JobOutcome::Finished,
                "{name}: job {} ({}) did not finish",
                job.job,
                job.name
            );
        }
    }
    let throughput_ratio = fair.jobs_per_s / fifo.jobs_per_s;
    assert!(
        fair.queue_p99_s < fifo.queue_p99_s,
        "fair share must beat FIFO on p99 queueing delay \
         (fair={}, fifo={})",
        fair.queue_p99_s,
        fifo.queue_p99_s
    );
    assert!(
        throughput_ratio >= 0.95,
        "fair share gave up more than 5% throughput (ratio {throughput_ratio})"
    );
    // The one-stage spread bound is a theorem only under single-slot
    // contention (the panthera-jobs proptest pins it there). On a
    // multi-slot pool, a tenant whose only job is mid-stage stands still
    // in virtual time while other tenants keep dispatching, so its lag
    // legitimately exceeds one charge (DESIGN.md §13). Report the spread;
    // do not bound it here.
    // Host threads only bound the atomic jobs' wall-clock concurrency;
    // the report must not notice.
    let t1 = service_run_once(SchedPolicy::FairShare, Some(1), cli.quick);
    let t4 = service_run_once(SchedPolicy::FairShare, Some(4), cli.quick);
    let invariant = t1.to_json().to_compact() == t4.to_json().to_compact();
    assert!(invariant, "ServiceReport depends on the host-thread budget");

    let p99_saved_pct = 100.0 * (fifo.queue_p99_s - fair.queue_p99_s) / fifo.queue_p99_s;
    println!(
        "{:<12} | {:>9} | {:>11} | {:>11} | {:>11}",
        "policy", "jobs/s", "p50 queue", "p99 queue", "preemptions"
    );
    println!("{}", "-".repeat(72));
    for (name, r) in [("fair_share", &fair), ("fifo", &fifo)] {
        println!(
            "{:<12} | {:>9.4} | {:>10.4}s | {:>10.4}s | {:>11}",
            name, r.jobs_per_s, r.queue_p50_s, r.queue_p99_s, r.preemptions
        );
    }
    println!("{}", "-".repeat(72));
    println!(
        "fair share: p99 queueing delay {p99_saved_pct:.1}% below FIFO at {:.1}% of its \
         throughput; vtime spread {:.6}s (max stage charge {:.6}s); \
         host-thread invariant: {invariant}",
        100.0 * throughput_ratio,
        fair.max_vtime_spread_s,
        fair.max_stage_charge_s,
    );

    let fairness_json = Json::obj(vec![
        ("queue_p99_s_fair", Json::Num(fair.queue_p99_s)),
        ("queue_p99_s_fifo", Json::Num(fifo.queue_p99_s)),
        ("p99_saved_pct", Json::Num(p99_saved_pct)),
        ("throughput_ratio", Json::Num(throughput_ratio)),
        ("slo_holds", Json::Bool(true)),
    ]);
    let j = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR9".into())),
        ("samples_per_arm", Json::UInt(n as u64)),
        ("jobs", Json::UInt(fair.jobs.len() as u64)),
        ("pool_executors", Json::UInt(u64::from(fair.pool_executors))),
        (
            "arms",
            Json::Arr(vec![
                service_arm_json("fair_share", fair_ns, &fair, false),
                service_arm_json("fifo", fifo_ns, &fifo, false),
            ]),
        ),
        ("fairness", fairness_json.clone()),
        ("host_thread_invariant", Json::Bool(invariant)),
    ]);
    let out = std::env::var("PERFSUITE_OUT").unwrap_or_else(|_| "BENCH_PR9.json".into());
    write_atomic(&out, j.to_pretty() + "\n");
    println!("wrote {out}");

    let sim = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR9.sim".into())),
        ("jobs", Json::UInt(fair.jobs.len() as u64)),
        ("pool_executors", Json::UInt(u64::from(fair.pool_executors))),
        (
            "arms",
            Json::Arr(vec![
                service_arm_json("fair_share", 0, &fair, true),
                service_arm_json("fifo", 0, &fifo, true),
            ]),
        ),
        ("fairness", fairness_json),
        ("host_thread_invariant", Json::Bool(invariant)),
    ]);
    let sim_out = format!("{out}.sim");
    write_atomic(&sim_out, sim.to_pretty() + "\n");
    println!("wrote {sim_out}");
}

// ---------------------------------------------------------------------------
// The `--stream` micro-batch streaming-regret suite (`BENCH_PR10.json`).
// ---------------------------------------------------------------------------

/// One measured streaming arm: a re-tagging policy over the shared spec.
struct StreamArm {
    policy: &'static str,
    host_ns: u64,
    report: StreamReport,
}

fn stream_arm_json(r: &StreamArm, sim_only: bool) -> Json {
    let run = &r.report.run;
    let mut fields = vec![
        ("policy", Json::Str(r.policy.into())),
        ("sim_elapsed_ns", Json::Num(r.report.elapsed_ns)),
        (
            "batch_latency_p50_ns",
            Json::Num(r.report.latency_quantile_ns(0.50)),
        ),
        (
            "batch_latency_p90_ns",
            Json::Num(r.report.latency_quantile_ns(0.90)),
        ),
        (
            "batch_latency_p99_ns",
            Json::Num(r.report.latency_quantile_ns(0.99)),
        ),
        ("dram_byte_frac", Json::Num(r.report.dram_byte_frac)),
        (
            "minor_pause_p90_ns",
            Json::Num(run.minor_pauses.quantile_ns(0.90)),
        ),
        (
            "major_pause_p90_ns",
            Json::Num(run.major_pauses.quantile_ns(0.90)),
        ),
        ("retags", Json::UInt(u64::from(r.report.retags))),
        ("migrations", Json::UInt(r.report.migrations)),
        ("outputs_digest", Json::UInt(r.report.outputs_digest)),
    ];
    if !sim_only {
        fields.insert(1, ("host_ns", Json::UInt(r.host_ns)));
    }
    fields.push(("stream", r.report.to_json()));
    Json::obj(fields)
}

/// The streaming-regret suite: one seeded drifting stream driven under
/// the three re-tagging policies. Asserted while measuring:
///
/// * window outputs are byte-identical under all three policies —
///   placement moves bytes, never answers;
/// * the online policy's regret against the clairvoyant oracle is at
///   most the static prior's (closing the loop from observed access
///   frequencies pays for itself);
/// * the oracle never loses to the static prior outright.
///
/// The stream runs on the single-runtime path, so every simulated
/// quantity is host-thread invariant by construction; CI still `cmp`s
/// the `.sim` companion across `PANTHERA_HOST_THREADS` budgets to pin
/// it. `--quick` swaps the benchmark-sized sliding-window spec for the
/// small tumbling one on the default heap.
fn run_stream_suite(cli: &Cli, n: usize) {
    let (spec, heap_gb) = if cli.quick {
        (StreamSpec::small(SEED), 4u64)
    } else {
        // The perf spec's resident datasets overflow a small DRAM share;
        // 16 sim-GB is the smallest heap that avoids promotion failure
        // while keeping placement contended.
        (StreamSpec::perf(SEED), 16u64)
    };
    let cfg = SystemConfig::new(MemoryMode::Panthera, heap_gb * SIM_GB, 1.0 / 3.0);
    println!(
        "stream suite: {} ({} batches x {} datasets, {:?}), heap {heap_gb} sim-GB, \
         {n} samples/arm",
        spec.name, spec.batches, spec.datasets, spec.window
    );

    let arm = |policy: RetagPolicy| {
        let b = StreamBuilder::new(spec.clone())
            .config(cfg.clone())
            .policy(policy);
        median_host_ns(n, || b.run().expect("valid stream spec"))
    };
    let (static_ns, static_run) = arm(RetagPolicy::Static);
    let (online_ns, online) = arm(RetagPolicy::Online { hysteresis: 1 });
    let (oracle_ns, oracle) = arm(RetagPolicy::Oracle);
    let arms = [
        StreamArm {
            policy: "static",
            host_ns: static_ns,
            report: static_run,
        },
        StreamArm {
            policy: "online",
            host_ns: online_ns,
            report: online,
        },
        StreamArm {
            policy: "oracle",
            host_ns: oracle_ns,
            report: oracle,
        },
    ];
    let cmp = panthera_stream::StreamComparison {
        static_run: arms[0].report.clone(),
        online: arms[1].report.clone(),
        oracle: arms[2].report.clone(),
    };

    // The PR 10 acceptance, asserted so the artifact cannot exist
    // without it holding.
    assert!(
        cmp.outputs_identical(),
        "a re-tagging policy changed the window outputs"
    );
    assert!(
        cmp.online_regret_ns() <= cmp.static_regret_ns(),
        "online regret ({:.3e} ns) exceeds static regret ({:.3e} ns)",
        cmp.online_regret_ns(),
        cmp.static_regret_ns()
    );
    assert!(
        cmp.oracle.elapsed_ns <= cmp.static_run.elapsed_ns,
        "the clairvoyant oracle lost to the static prior"
    );

    println!(
        "{:<8} | {:>14} | {:>12} | {:>7} | {:>6} | {:>5}",
        "policy", "elapsed ns", "p99 ns", "dram", "retags", "migr"
    );
    println!("{}", "-".repeat(72));
    for r in &arms {
        println!(
            "{:<8} | {:>14.4e} | {:>12.4e} | {:>6.1}% | {:>6} | {:>5}",
            r.policy,
            r.report.elapsed_ns,
            r.report.latency_quantile_ns(0.99),
            100.0 * r.report.dram_byte_frac,
            r.report.retags,
            r.report.migrations
        );
    }
    let closed_pct = if cmp.static_regret_ns() > 0.0 {
        100.0 * (cmp.static_regret_ns() - cmp.online_regret_ns()) / cmp.static_regret_ns()
    } else {
        0.0
    };
    println!("{}", "-".repeat(72));
    println!(
        "regret vs oracle: static {:.3e} ns, online {:.3e} ns \
         (online closed {closed_pct:.1}% of the gap)",
        cmp.static_regret_ns(),
        cmp.online_regret_ns()
    );

    let spec_json = Json::obj(vec![
        ("name", Json::Str(spec.name.clone())),
        ("seed", Json::UInt(spec.seed)),
        ("batches", Json::UInt(u64::from(spec.batches))),
        ("datasets", Json::UInt(u64::from(spec.datasets))),
        ("window", Json::Str(format!("{:?}", spec.window))),
        ("drift_period", Json::UInt(u64::from(spec.drift_period))),
        ("hot_threshold", Json::UInt(spec.hot_threshold)),
    ]);
    let regret_json = Json::obj(vec![
        ("static_ns", Json::Num(cmp.static_regret_ns())),
        ("online_ns", Json::Num(cmp.online_regret_ns())),
        ("online_closed_pct", Json::Num(closed_pct)),
    ]);
    let arms_json =
        |sim_only: bool| Json::Arr(arms.iter().map(|r| stream_arm_json(r, sim_only)).collect());
    let j = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR10".into())),
        ("samples_per_arm", Json::UInt(n as u64)),
        ("heap_sim_gb", Json::UInt(heap_gb)),
        ("spec", spec_json.clone()),
        ("arms", arms_json(false)),
        ("regret_ns", regret_json.clone()),
        ("outputs_identical", Json::Bool(true)),
    ]);
    let out = std::env::var("PERFSUITE_OUT").unwrap_or_else(|_| "BENCH_PR10.json".into());
    write_atomic(&out, j.to_pretty() + "\n");
    println!("wrote {out}");

    let sim = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR10.sim".into())),
        ("heap_sim_gb", Json::UInt(heap_gb)),
        ("spec", spec_json),
        ("arms", arms_json(true)),
        ("regret_ns", regret_json),
        ("outputs_identical", Json::Bool(true)),
    ]);
    let sim_out = format!("{out}.sim");
    write_atomic(&sim_out, sim.to_pretty() + "\n");
    println!("wrote {sim_out}");
}

fn main() {
    let cli = Cli::parse();
    let n = samples(&cli);
    let scale = scale_with(&cli);
    if cli.stream {
        println!("perfsuite --stream: {n} samples/arm");
        run_stream_suite(&cli, n);
        if let Some(path) = &cli.trace {
            write_trace(path);
        }
        return;
    }
    if cli.service {
        println!("perfsuite --service: {n} samples/arm");
        run_service_suite(&cli, n);
        if let Some(path) = &cli.trace {
            write_trace(path);
        }
        return;
    }
    if cli.regions {
        println!("perfsuite --regions: {n} samples/arm");
        run_region_suite(&cli, n);
        if let Some(path) = &cli.trace {
            write_trace(path);
        }
        return;
    }
    if cli.shuffle {
        println!("perfsuite --shuffle: {n} samples/arm, scale {scale}");
        run_shuffle_suite(&cli, n, scale);
        if let Some(path) = &cli.trace {
            write_trace(path);
        }
        return;
    }
    if let Some(seed) = cli.faults {
        println!("perfsuite --faults: {n} samples/arm, scale {scale}");
        run_fault_suite(seed, &cli, n, scale);
        if let Some(path) = &cli.trace {
            write_trace(path);
        }
        return;
    }
    if let Some(seed) = cli.faults_anywhere {
        println!("perfsuite --faults-anywhere: {n} samples/arm, scale {scale}");
        run_faults_anywhere_suite(seed, &cli, n, scale);
        if let Some(path) = &cli.trace {
            write_trace(path);
        }
        return;
    }
    println!("perfsuite: {n} samples/arm, scale {scale}");
    println!(
        "{:<6} | {:>12} {:>12} {:>9} | {:>12} sim-identical",
        "wl", "unfused ms", "new ms", "speedup", "sim elapsed"
    );
    println!("{}", "-".repeat(72));

    let rows: Vec<WorkloadRow> = WORKLOADS
        .iter()
        .map(|id| bench_workload(*id, n, scale))
        .collect();
    for r in &rows {
        println!(
            "{:<6} | {:>12.2} {:>12.2} {:>8.2}x | {:>11.4}s {}",
            r.name,
            r.unfused_ns as f64 / 1e6,
            r.new_ns as f64 / 1e6,
            r.speedup,
            r.sim_elapsed_s,
            r.sim_identical
        );
    }

    let alloc_ns = micro_alloc_ns_per_op();
    let minor_ns = micro_minor_gc_ns();
    let (scan_ns, scan_cards, scan_dirty) = micro_card_scan();
    println!("{}", "-".repeat(72));
    println!("alloc_young           : {alloc_ns:>10.1} ns/op");
    println!("minor GC cycle        : {minor_ns:>10.1} ns/collection");
    println!("card sweep ({scan_dirty}/{scan_cards} dirty): {scan_ns:>10.1} ns/sweep");

    let max_speedup = rows
        .iter()
        .map(|r| r.speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    let invariants = rows.iter().all(|r| r.sim_identical);
    println!("max end-to-end speedup: {max_speedup:.2}x (invariants hold: {invariants})");

    let ladder = cli.executor_ladder();
    println!("{}", "-".repeat(72));
    println!("executor scaling (E = {ladder:?}):");
    let (scaling_rows, determinism) = bench_scaling(&ladder, n, scale);
    for r in &scaling_rows {
        println!(
            "{:<10} E={:<2} | {:>12.2} ms host | {:>11.4}s sim {}",
            r.workload,
            r.executors,
            r.host_ns as f64 / 1e6,
            r.report.elapsed_s,
            match r.e1_matches_legacy {
                Some(true) => "(matches single-runtime)",
                Some(false) => "(DIVERGED)",
                None => "",
            }
        );
    }
    println!("host-thread determinism holds: {determinism}");

    // One serialization path: host timings inline, full simulated results
    // through `RunReport::to_json`.
    let j = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR4".into())),
        ("scale", Json::Num(scale)),
        ("samples_per_arm", Json::UInt(n as u64)),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("id", Json::Str(r.name.into())),
                            ("unfused_host_ns", Json::UInt(r.unfused_ns)),
                            ("new_host_ns", Json::UInt(r.new_ns)),
                            ("speedup", Json::Num(r.speedup)),
                            ("sim_elapsed_s", Json::Num(r.sim_elapsed_s)),
                            ("sim_identical", Json::Bool(r.sim_identical)),
                            ("report", r.report.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "micro",
            Json::obj(vec![
                ("alloc_young_ns_per_op", Json::Num(alloc_ns)),
                ("minor_gc_ns_per_collection", Json::Num(minor_ns)),
                ("card_sweep_ns", Json::Num(scan_ns)),
                ("card_sweep_cards", Json::UInt(scan_cards as u64)),
                ("card_sweep_dirty", Json::UInt(scan_dirty as u64)),
            ]),
        ),
        ("executor_scaling", scaling_json(&scaling_rows, false)),
        ("max_speedup", Json::Num(max_speedup)),
        ("sim_invariants_hold", Json::Bool(invariants)),
        ("cluster_determinism_holds", Json::Bool(determinism)),
    ]);

    let out = std::env::var("PERFSUITE_OUT").unwrap_or_else(|_| "BENCH_PR4.json".into());
    write_atomic(&out, j.to_pretty() + "\n");
    println!("wrote {out}");

    // The host-time-free companion: only simulated quantities, so two
    // perfsuite runs under different host-thread budgets must produce
    // byte-identical files (CI `cmp`s them).
    let sim = Json::obj(vec![
        ("bench", Json::Str("BENCH_PR4.sim".into())),
        ("scale", Json::Num(scale)),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("id", Json::Str(r.name.into())),
                            ("sim_elapsed_s", Json::Num(r.sim_elapsed_s)),
                            ("sim_identical", Json::Bool(r.sim_identical)),
                            ("report", r.report.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("executor_scaling", scaling_json(&scaling_rows, true)),
        ("sim_invariants_hold", Json::Bool(invariants)),
        ("cluster_determinism_holds", Json::Bool(determinism)),
    ]);
    let sim_out = format!("{out}.sim");
    write_atomic(&sim_out, sim.to_pretty() + "\n");
    println!("wrote {sim_out}");

    if let Some(path) = &cli.trace {
        write_trace(path);
    }
}
