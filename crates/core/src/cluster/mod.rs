//! The cluster driver: `E` executors, each with its own Panthera heap,
//! scheduled over host OS threads with bit-identical results.
//!
//! The paper evaluates Panthera inside a single Spark executor JVM; this
//! module models the *cluster* around it (DESIGN.md §8). A [`run_cluster`]
//! call plays the Spark driver: it validates the configuration and the
//! program once, then spawns one scoped OS thread per executor. Each
//! executor replays the same driver program over its own
//! [`PantheraRuntime`] — a private heap, GC coordinator,
//! traffic meter, and energy model — computing only the partitions
//! `i % E` of every stage (SPMD with deterministic ownership). Wide
//! dependencies exchange map-side buckets through the
//! [`Exchange`], which charges serialization and transfer on both sides,
//! and virtual clocks synchronize at statement barriers
//! (stage end-time = max over executors, modelling straggler skew).
//!
//! Every cross-thread interaction is a deterministic collective keyed by
//! program structure, so the merged [`RunReport`] is bit-identical
//! regardless of how many host threads actually run (`host_threads` only
//! rations permits) — and an `E = 1` cluster matches the classic
//! single-runtime run record for record.
//!
//! # Fault tolerance
//!
//! [`run_cluster_faulted`] runs the same cluster under a deterministic
//! [`FaultPlan`] (DESIGN.md §9). Injected executor crashes unwind the
//! executor's thread at a statement barrier; the driver restarts it with
//! a fresh [`PantheraRuntime`] whose clock resumes at the
//! crash time plus a restart penalty, and the new incarnation replays
//! the program from the top — re-reading completed collectives from the
//! exchange cache, recomputing lost partitions through lineage (or
//! restoring them from the NVM checkpoint store, under
//! `RecoveryPolicy::CheckpointEvery`). Genuine panics and unrecovered
//! crashes poison the exchange instead, so surviving executors unwind
//! with a typed [`sparklet::ClusterError`] rather than deadlocking.

mod exchange;
mod faults;
mod pool;

pub use exchange::Exchange;
pub use faults::FaultedExchange;
pub use panthera_recovery::{
    AllocFaultPoint, CrashPoint, FaultPlan, FaultSpec, GatherKind, LossPoint, NvmCheckpointStore,
    VCrashPoint,
};
pub use pool::{ExecutorPool, PoolLease};

use crate::error::RunError;
use crate::simulate::{collect_report, engine_setup, instrumentation};
use crate::{
    ConfigError, MemoryMode, PantheraRuntime, RecoveryPolicy, RecoveryStats, RunReport,
    SystemConfig,
};
use hybridmem::DeviceSpec;
use mheap::{Payload, WirePayload};
use obs::{Event, EventSink, Observer};
use sparklang::{FnTable, Program};
use sparklet::{
    ActionResult, CheckpointStore, ClusterCtx, ClusterError, DataRegistry, DepositJournal, Engine,
    EngineConfig, ExchangeClient, MemoryRuntime, RecoveryCtx, RecoveryMark, RecoverySlot,
};
use std::cell::{Cell, RefCell};
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Everything a cluster run produces.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The cluster-level aggregate: elapsed time is the barrier-synced
    /// maximum, energy / traffic / GC work are summed across executors
    /// (see [`RunReport::aggregate`]).
    pub report: RunReport,
    /// One sub-report per executor, in executor-id order.
    pub per_executor: Vec<RunReport>,
    /// `(variable name, result)` per executed action, in program order.
    /// Every executor computes the identical global result; this is
    /// executor 0's copy, cross-checked against the rest.
    pub results: Vec<(String, ActionResult)>,
    /// Total modelled bytes deposited into the shared shuffle region
    /// over the run — 0 under [`sparklet::ShuffleTransport::Serde`].
    pub shared_region_bytes: u64,
}

/// A `Send`able mirror of [`ActionResult`] for crossing executor-thread
/// boundaries (payloads come back through [`WirePayload`]).
#[derive(Debug, Clone, PartialEq)]
enum WireResult {
    Count(u64),
    Collected(Vec<WirePayload>),
    Reduced(Option<WirePayload>),
}

fn to_wire(r: &ActionResult) -> WireResult {
    match r {
        ActionResult::Count(n) => WireResult::Count(*n),
        ActionResult::Collected(recs) => {
            WireResult::Collected(recs.iter().map(WirePayload::from).collect())
        }
        ActionResult::Reduced(rec) => WireResult::Reduced(rec.as_ref().map(WirePayload::from)),
    }
}

fn from_wire(r: &WireResult) -> ActionResult {
    match r {
        WireResult::Count(n) => ActionResult::Count(*n),
        WireResult::Collected(recs) => {
            ActionResult::Collected(recs.iter().map(Payload::from).collect())
        }
        WireResult::Reduced(rec) => ActionResult::Reduced(rec.as_ref().map(Payload::from)),
    }
}

/// The `Send`able plain-data core of a [`SystemConfig`], used to rebuild
/// an identical per-executor configuration (fresh observer, one executor)
/// inside each worker thread — `SystemConfig` itself holds an `Rc`-based
/// observer handle and cannot cross threads.
struct CfgSeed {
    mode: MemoryMode,
    heap_bytes: u64,
    dram_ratio: f64,
    nursery_fraction: f64,
    chunk_bytes: u64,
    eager_promotion: bool,
    card_padding: bool,
    dynamic_migration: bool,
    large_array_elems: usize,
    tuple_bloat_bytes: u64,
    nvm_spec: Option<DeviceSpec>,
    seed: u64,
    verify_heap: bool,
    recovery: RecoveryPolicy,
    costs: sparklet::CostModel,
    transport: sparklet::ShuffleTransport,
    offheap_cache: bool,
    region_alloc: bool,
}

impl CfgSeed {
    fn of(c: &SystemConfig) -> CfgSeed {
        CfgSeed {
            mode: c.mode,
            heap_bytes: c.heap_bytes,
            dram_ratio: c.dram_ratio,
            nursery_fraction: c.nursery_fraction,
            chunk_bytes: c.chunk_bytes,
            eager_promotion: c.eager_promotion,
            card_padding: c.card_padding,
            dynamic_migration: c.dynamic_migration,
            large_array_elems: c.large_array_elems,
            tuple_bloat_bytes: c.tuple_bloat_bytes,
            nvm_spec: c.nvm_spec.clone(),
            seed: c.seed,
            verify_heap: c.verify_heap,
            recovery: c.recovery,
            costs: c.costs,
            transport: c.transport,
            offheap_cache: c.offheap_cache,
            region_alloc: c.region_alloc,
        }
    }

    fn rebuild(&self, observer: Observer) -> SystemConfig {
        let mut cfg = SystemConfig::new(self.mode, self.heap_bytes, self.dram_ratio);
        cfg.nursery_fraction = self.nursery_fraction;
        cfg.chunk_bytes = self.chunk_bytes;
        cfg.eager_promotion = self.eager_promotion;
        cfg.card_padding = self.card_padding;
        cfg.dynamic_migration = self.dynamic_migration;
        cfg.large_array_elems = self.large_array_elems;
        cfg.tuple_bloat_bytes = self.tuple_bloat_bytes;
        cfg.nvm_spec = self.nvm_spec.clone();
        cfg.seed = self.seed;
        cfg.verify_heap = self.verify_heap;
        cfg.recovery = self.recovery;
        cfg.costs = self.costs;
        cfg.transport = self.transport;
        cfg.offheap_cache = self.offheap_cache;
        cfg.region_alloc = self.region_alloc;
        cfg.observer = observer;
        cfg.executors = 1; // each executor is one classic single-JVM runtime
        cfg
    }
}

/// Buffers an executor's event stream inside its thread; the driver
/// re-emits the buffered events through the caller's observer afterwards,
/// tagged with the executor id.
struct BufSink {
    events: Vec<(f64, Event)>,
}

impl EventSink for BufSink {
    fn on_event(&mut self, t_ns: f64, event: &Event) {
        self.events.push((t_ns, event.clone()));
    }
}

/// Why an executor thread finished without a result.
enum SlotFailure {
    /// An injected crash fired and the plan disables recovery.
    Crashed { exec: u16, barrier: u64 },
    /// A genuine (unplanned) panic unwound the executor.
    Panicked { exec: u16, reason: String },
    /// The executor was unwound by a peer's failure via the poisoned
    /// exchange; the originating failure is reported by that peer.
    PoisonedPeer,
}

thread_local! {
    /// Marks the current OS thread as cluster-owned (an executor thread
    /// spawned by the driver). The quiet-unwind hook only silences
    /// [`ClusterError`] panics on marked threads; the same payload thrown
    /// anywhere else is somebody else's bug and keeps its full report.
    static CLUSTER_THREAD: Cell<bool> = const { Cell::new(false) };
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// How many cluster runs currently hold a [`QuietUnwindGuard`].
static ACTIVE_RUNS: Mutex<usize> = Mutex::new(0);
/// The panic hook that was installed before ours; the quiet hook
/// delegates genuine panics to it through this slot, and the last guard
/// puts it back via `set_hook` on drop.
static PREV_HOOK: Mutex<Option<PanicHook>> = Mutex::new(None);

/// RAII scope for the process-wide quiet-unwind panic hook.
///
/// Cluster fault handling unwinds executor threads by panicking with a
/// [`ClusterError`] payload (tearing them out of blocked collectives);
/// without intervention every such planned unwind would spray a panic
/// report over the test output. The first live guard installs a hook that
/// silences exactly those panics — payload is a `ClusterError` *and* the
/// panicking thread is a cluster-owned executor thread — and delegates
/// everything else to the previously installed hook, message and
/// backtrace intact. When the last guard drops, the previous hook is
/// restored, so the process's panic behavior outside cluster runs is
/// untouched (PR 5 leaked the hook for the life of the process).
struct QuietUnwindGuard;

impl QuietUnwindGuard {
    fn new() -> QuietUnwindGuard {
        let mut active = ACTIVE_RUNS.lock().expect("hook refcount lock");
        if *active == 0 {
            *PREV_HOOK.lock().expect("prev hook lock") = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|info| {
                let expected = CLUSTER_THREAD.with(Cell::get)
                    && info.payload().downcast_ref::<ClusterError>().is_some();
                if !expected {
                    if let Some(prev) = PREV_HOOK.lock().expect("prev hook lock").as_ref() {
                        prev(info);
                    }
                }
            }));
        }
        *active += 1;
        QuietUnwindGuard
    }
}

impl Drop for QuietUnwindGuard {
    fn drop(&mut self) {
        let mut active = ACTIVE_RUNS.lock().expect("hook refcount lock");
        *active -= 1;
        if *active == 0 {
            // Remove our hook first (panics in the gap hit the default
            // hook, which still reports), then put the original back.
            drop(std::panic::take_hook());
            if let Some(prev) = PREV_HOOK.lock().expect("prev hook lock").take() {
                std::panic::set_hook(prev);
            }
        }
    }
}

/// Test diagnostic: `true` when no cluster run holds the quiet-unwind
/// hook and the saved previous hook has been handed back to `set_hook` —
/// i.e. the process's panic behavior is exactly what it was before the
/// first run started.
#[doc(hidden)]
pub fn quiet_unwind_idle() -> bool {
    *ACTIVE_RUNS.lock().expect("hook refcount lock") == 0
        && PREV_HOOK.lock().expect("prev hook lock").is_none()
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the program on a simulated cluster of `config.executors` executors.
///
/// `build` constructs the program, function table, and input data; it is
/// called once on the driver (for validation and the Section 3 analysis)
/// and once inside each executor thread, and must be deterministic — every
/// call must produce the identical program and data. `host_threads` bounds
/// how many executor threads compute concurrently (clamped to
/// `1..=executors`); it changes wall-clock time only, never a simulated
/// value.
///
/// If the caller's `config.observer` has sinks attached, each executor's
/// event stream is buffered in its thread and re-emitted through those
/// sinks after the join, grouped by executor id and tagged via
/// [`Observer::emit_from`] — a deterministic order, independent of host
/// scheduling.
///
/// # Errors
///
/// The first violated configuration constraint, or an ill-formed program.
///
/// # Panics
///
/// Panics if `build` is nondeterministic (executors then disagree on
/// global action results — the cross-check fails rather than returning
/// wrong data), or if a simulated heap is exhausted mid-run.
pub fn run_cluster<F>(
    build: F,
    config: &SystemConfig,
    engine_config: EngineConfig,
    host_threads: usize,
) -> Result<ClusterOutcome, ConfigError>
where
    F: Fn() -> (Program, FnTable, DataRegistry) + Sync,
{
    run_cluster_faulted(
        build,
        config,
        engine_config,
        host_threads,
        &FaultPlan::none(),
    )
}

/// [`run_cluster`] under a deterministic [`FaultPlan`]: injected executor
/// crashes, exchange message losses, and transient allocation failures,
/// all keyed to simulation structure (DESIGN.md §9).
///
/// With `plan.recover` set (the default), crashed executors are restarted
/// in place and the run completes with results bit-identical to a
/// fault-free run — lost partitions are recomputed through lineage or
/// restored from NVM checkpoints per `config.recovery`. With recovery
/// disabled, the first crash poisons the exchange and the run returns an
/// error once every executor has unwound.
///
/// # Errors
///
/// The first violated configuration constraint, an ill-formed program, or
/// an injected crash with recovery disabled.
///
/// # Panics
///
/// Same conditions as [`run_cluster`]: a genuine executor panic (heap
/// exhaustion, nondeterministic `build`) is re-raised on the driver with
/// the executor's panic message.
pub fn run_cluster_faulted<F>(
    build: F,
    config: &SystemConfig,
    engine_config: EngineConfig,
    host_threads: usize,
    plan: &FaultPlan,
) -> Result<ClusterOutcome, ConfigError>
where
    F: Fn() -> (Program, FnTable, DataRegistry) + Sync,
{
    run_cluster_inner(build, config, engine_config, host_threads, plan).map_err(|e| match e {
        RunError::Config(c) => c,
        other => ConfigError::new(other.to_string()),
    })
}

/// The typed-error cluster driver behind [`run_cluster_faulted`] (and
/// [`crate::RunBuilder`]): injected crashes with recovery disabled come
/// back as [`RunError::ExecutorCrash`] instead of a stringly
/// [`ConfigError`].
pub(crate) fn run_cluster_inner<F>(
    build: F,
    config: &SystemConfig,
    engine_config: EngineConfig,
    host_threads: usize,
    plan: &FaultPlan,
) -> Result<ClusterOutcome, RunError>
where
    F: Fn() -> (Program, FnTable, DataRegistry) + Sync,
{
    let (program, _, _) = build();
    let engine_config = engine_setup(&program, config, engine_config)?;
    let n_exec = config.executors;
    let instr_plan = instrumentation(&program, config);
    let seed = CfgSeed::of(config);
    // Surface runtime-construction errors on the driver, not as a panic
    // inside a worker thread.
    PantheraRuntime::new(&seed.rebuild(Observer::disabled())).map_err(ConfigError::new)?;
    let observe = config.observer.enabled();
    let checkpoint_every = match config.recovery {
        RecoveryPolicy::Recompute => 0,
        RecoveryPolicy::CheckpointEvery(n) => n,
    };
    let _quiet_hook = QuietUnwindGuard::new();

    let exchange = Exchange::with_transport(n_exec, host_threads, config.transport);
    let store = Arc::new(NvmCheckpointStore::new());
    let slots: Vec<Arc<RecoverySlot>> =
        (0..n_exec).map(|_| Arc::new(RecoverySlot::new())).collect();
    let client: Arc<dyn ExchangeClient> = if plan.is_empty() {
        Arc::clone(&exchange) as Arc<dyn ExchangeClient>
    } else {
        Arc::new(FaultedExchange::new(
            Arc::clone(&exchange),
            plan,
            slots.clone(),
        ))
    };
    let alloc_faults: Vec<Arc<Vec<u64>>> = (0..n_exec)
        .map(|e| {
            let mut v: Vec<u64> = plan
                .alloc_faults
                .iter()
                .filter(|p| p.exec == e)
                .map(|p| p.materialization)
                .collect();
            v.sort_unstable();
            Arc::new(v)
        })
        .collect();
    let crash_points: Vec<Arc<Vec<f64>>> = (0..n_exec)
        .map(|e| {
            let mut v: Vec<f64> = plan
                .vcrashes
                .iter()
                .filter(|p| p.exec == e)
                .map(|p| p.at_ns)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("crash times are finite"));
            Arc::new(v)
        })
        .collect();

    type ExecYield = (RunReport, Vec<(String, WireResult)>, Vec<(f64, Event)>);
    let mut yields: Vec<ExecYield> = Vec::with_capacity(usize::from(n_exec));
    let mut crashed: Option<(u16, u64)> = None;
    let mut panicked: Option<(u16, String)> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(usize::from(n_exec));
        for exec in 0..n_exec {
            let build = &build;
            let instr_plan = &instr_plan;
            let seed = &seed;
            let engine_config = &engine_config;
            let exchange = Arc::clone(&exchange);
            let client = Arc::clone(&client);
            let store = Arc::clone(&store);
            let slot = Arc::clone(&slots[usize::from(exec)]);
            let my_faults = Arc::clone(&alloc_faults[usize::from(exec)]);
            let my_crashes = Arc::clone(&crash_points[usize::from(exec)]);
            handles.push(scope.spawn(move || -> Result<ExecYield, SlotFailure> {
                CLUSTER_THREAD.with(|c| c.set(true));
                // The executor's restart loop: one iteration per heap
                // incarnation, all in this same OS thread. An injected
                // crash unwinds the attempt; with recovery on, the next
                // iteration replays the program against a fresh runtime.
                loop {
                    if exchange.acquire_permit(exec).is_err() {
                        return Err(SlotFailure::PoisonedPeer);
                    }
                    let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| -> ExecYield {
                        let (program, fns, data) = build();
                        let sink =
                            observe.then(|| Rc::new(RefCell::new(BufSink { events: Vec::new() })));
                        let cfg = seed.rebuild(match &sink {
                            Some(s) => Observer::with_sink(s.clone()),
                            None => Observer::disabled(),
                        });
                        let mut runtime = PantheraRuntime::new(&cfg)
                            .unwrap_or_else(|e| panic!("executor {exec}: {e}"));
                        let (n_attempt, resume_ns, marks) = slot.with(|c| {
                            (
                                c.attempt,
                                // Resume at the *most recent* crash, not
                                // the outermost window start — a nested
                                // crash (during a prior replay) happened
                                // later, and time never rewinds.
                                c.last_crash_ns + plan.restart_penalty_ns,
                                c.marks.clone(),
                            )
                        });
                        if n_attempt > 0 {
                            // Restarts don't rewind time: the fresh heap's
                            // clock resumes at the crash instant plus the
                            // executor bring-up penalty, so every replayed
                            // stage — and the barrier times the survivors
                            // observe — carries the recovery cost.
                            runtime.heap_mut().mem_mut().compute(resume_ns);
                        }
                        if let Some(s) = &sink {
                            // Crashed incarnations took their event buffers
                            // with them; re-synthesize the crash/recovery
                            // timeline from the marks (already time-ordered
                            // — each executor's virtual clock is monotone).
                            let mut s = s.borrow_mut();
                            for (t, mark) in &marks {
                                let event = match mark {
                                    RecoveryMark::Crash { barrier } => {
                                        Event::ExecutorCrash { barrier: *barrier }
                                    }
                                    RecoveryMark::Start { attempt } => {
                                        Event::RecoveryStart { attempt: *attempt }
                                    }
                                    RecoveryMark::End {
                                        barrier,
                                        recovery_ns,
                                    } => Event::RecoveryEnd {
                                        barrier: *barrier,
                                        recovery_ns: *recovery_ns,
                                    },
                                };
                                s.on_event(*t, &event);
                            }
                        }
                        let ctx = ClusterCtx {
                            exec,
                            n_exec,
                            exchange: Arc::clone(&client),
                            recovery: Some(RecoveryCtx {
                                store: Arc::clone(&store) as Arc<dyn CheckpointStore>,
                                checkpoint_every,
                                slot: Arc::clone(&slot),
                                alloc_faults: Arc::clone(&my_faults),
                                alloc_retry_ns: plan.alloc_retry_ns,
                                journal: Arc::clone(&store) as Arc<dyn DepositJournal>,
                                crash_points: Arc::clone(&my_crashes),
                            }),
                        };
                        let mut engine =
                            Engine::with_cluster(runtime, fns, data, engine_config.clone(), ctx);
                        let outcome = engine.run(&program, instr_plan);
                        let mut report =
                            collect_report(&program.name, cfg.mode.label(), &engine, outcome.stats);
                        report.recovery = slot.with(|c| RecoveryStats {
                            executor_crashes: c.executor_crashes,
                            messages_lost: c.messages_lost,
                            alloc_faults: c.alloc_faults,
                            partitions_lost: c.partitions_lost,
                            partitions_recomputed: c.partitions_recomputed,
                            partitions_restored: c.partitions_restored,
                            stages_recomputed: c.stages_recomputed,
                            checkpoint_writes: c.checkpoint_writes,
                            checkpoint_bytes: c.checkpoint_bytes,
                            restore_bytes: c.restore_bytes,
                            journal_noops: c.journal_noops,
                            journal_torn: c.journal_torn,
                            recovery_s: c.recovery_ns / 1e9,
                        });
                        let results = outcome
                            .results
                            .iter()
                            .map(|(name, r)| (name.clone(), to_wire(r)))
                            .collect();
                        let events = sink
                            .map(|s| std::mem::take(&mut s.borrow_mut().events))
                            .unwrap_or_default();
                        (report, results, events)
                    }));
                    exchange.release_permit(exec);
                    let payload = match attempt {
                        Ok(y) => return Ok(y),
                        Err(payload) => payload,
                    };
                    match payload.downcast::<ClusterError>() {
                        Ok(err) => match *err {
                            ClusterError::InjectedCrash { barrier, at_ns, .. } if plan.recover => {
                                slot.with(|c| {
                                    // Physical-event counters tick once
                                    // per crash; window-scoped state only
                                    // *extends* under a nested crash (a
                                    // crash during a prior replay), so
                                    // the enclosing recovery window stays
                                    // open until the furthest barrier and
                                    // its span is charged exactly once.
                                    c.executor_crashes += 1;
                                    c.partitions_lost += c.live_partitions;
                                    c.live_partitions = 0;
                                    c.replay_until =
                                        Some(c.replay_until.map_or(barrier, |b| b.max(barrier)));
                                    if c.replay_depth == 0 {
                                        c.recovery_started_ns = at_ns;
                                    }
                                    c.replay_depth += 1;
                                    c.in_replay = true;
                                    c.last_crash_ns = at_ns;
                                    c.attempt += 1;
                                    let attempt = c.attempt;
                                    c.marks.push((at_ns, RecoveryMark::Crash { barrier }));
                                    c.marks.push((
                                        at_ns + plan.restart_penalty_ns,
                                        RecoveryMark::Start { attempt },
                                    ));
                                });
                                // Restart: next loop iteration replays.
                            }
                            ClusterError::InjectedCrash { exec, barrier, .. } => {
                                exchange.poison(ClusterError::Poisoned {
                                    exec,
                                    reason: format!(
                                        "injected crash at barrier {barrier}, recovery disabled"
                                    ),
                                });
                                return Err(SlotFailure::Crashed { exec, barrier });
                            }
                            ClusterError::Poisoned { .. } => {
                                return Err(SlotFailure::PoisonedPeer);
                            }
                        },
                        Err(payload) => {
                            let reason = panic_reason(payload.as_ref());
                            exchange.poison(ClusterError::Poisoned {
                                exec,
                                reason: reason.clone(),
                            });
                            return Err(SlotFailure::Panicked { exec, reason });
                        }
                    }
                }
            }));
        }
        for h in handles {
            match h
                .join()
                .expect("executor thread panicked outside the attempt guard")
            {
                Ok(y) => yields.push(y),
                Err(SlotFailure::Crashed { exec, barrier }) => {
                    if crashed.is_none() {
                        crashed = Some((exec, barrier));
                    }
                }
                Err(SlotFailure::Panicked { exec, reason }) => {
                    if panicked.is_none() {
                        panicked = Some((exec, reason));
                    }
                }
                Err(SlotFailure::PoisonedPeer) => {}
            }
        }
    });

    if let Some((exec, reason)) = panicked {
        panic!("executor {exec} panicked: {reason}");
    }
    if let Some((exec, barrier)) = crashed {
        return Err(RunError::ExecutorCrash { exec, barrier });
    }
    assert_eq!(
        yields.len(),
        usize::from(n_exec),
        "cluster run lost executors without a recorded failure"
    );

    for (exec, (_, results, _)) in yields.iter().enumerate().skip(1) {
        assert_eq!(
            results, &yields[0].1,
            "executor {exec} computed action results diverging from executor 0 — \
             is the `build` closure deterministic?"
        );
    }
    if observe {
        for (exec, (_, _, events)) in yields.iter().enumerate() {
            for (t_ns, event) in events {
                config.observer.emit_from(*t_ns, exec as u16, event);
            }
        }
    }
    let per_executor: Vec<RunReport> = yields.iter().map(|p| p.0.clone()).collect();
    let report = RunReport::aggregate(&per_executor);
    let results = yields[0]
        .1
        .iter()
        .map(|(name, r)| (name.clone(), from_wire(r)))
        .collect();
    Ok(ClusterOutcome {
        report,
        per_executor,
        results,
        shared_region_bytes: exchange.shared_region_bytes(),
    })
}

/// [`run_cluster`] with default engine knobs and the host-thread budget
/// from the `PANTHERA_HOST_THREADS` environment variable (defaulting to
/// one thread per executor).
///
/// # Errors
///
/// Same conditions as [`run_cluster`].
pub fn run_cluster_default<F>(
    build: F,
    config: &SystemConfig,
) -> Result<ClusterOutcome, ConfigError>
where
    F: Fn() -> (Program, FnTable, DataRegistry) + Sync,
{
    run_cluster(
        build,
        config,
        EngineConfig::default(),
        host_threads_from_env(usize::from(config.executors)),
    )
}

/// The host-thread budget from `PANTHERA_HOST_THREADS`, or `default` if
/// the variable is unset or unparsable. Zero is treated as unset.
pub fn host_threads_from_env(default: usize) -> usize {
    std::env::var("PANTHERA_HOST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}
