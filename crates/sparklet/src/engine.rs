//! The execution engine: interprets driver programs over the simulated
//! heap, reproducing Spark's evaluation strategy as the paper describes it
//! (Section 2):
//!
//! * transformations are lazy — a `Bind` only creates runtime RDD nodes;
//! * `persist` materializes the RDD immediately, at the storage level (and
//!   DRAM/NVM sub-level) the analysis inferred;
//! * actions force evaluation and materialize their (non-persisted) target
//!   for the duration of the evaluation;
//! * wide transformations cut stages: map-side records are shuffled
//!   through simulated disk files, and the reduce side's output is
//!   materialized immediately as a `ShuffledRDD` that dies when the
//!   consuming evaluation completes;
//! * unmaterialized intermediate records stream through the young
//!   generation one at a time and die there — exactly the epochal
//!   behaviour Panthera's heap design exploits.

use crate::cluster::{
    journal_kind, merge_contrib_parts, transfer_cost, ActionContrib, BeginOutcome, ClusterCtx,
    ClusterError, JournalOp, PartMeta, ShuffleContrib,
};
use crate::costs::{CostModel, ShuffleTransport};
use crate::cursor::Schedule;
use crate::data::DataRegistry;
use crate::rdd::{MatData, RddId, RddNode, RddOp};
use crate::runtime::MemoryRuntime;
use crate::shuffle::{reduce_side, Buckets};
use hybridmem::{AccessKind, AccessProfile, DeviceKind};
use mheap::{ObjId, ObjKind, OffHeapRegion, Payload, RegionHeap, RootSet, WirePayload};
use panthera_analysis::{collect_lifetimes, InstrumentationPlan, LifetimePlan};
use sparklang::ast::{ActionKind, Program, RddExpr, Stmt, StmtId, StorageLevel, Transform, VarId};
use sparklang::{FnTable, FuncId, UserFn};
use std::collections::HashMap;
use std::rc::Rc;

/// Cost knobs of the engine's non-heap activities.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Data-movement charges (disk, network, serde, shared memory) — the
    /// single source of truth the engine and the cluster exchange share.
    pub costs: CostModel,
    /// CPU cost of one user-closure application.
    pub record_cpu_ns: f64,
    /// CPU cost of interpreting one driver statement.
    pub driver_cpu_ns: f64,
    /// Partitions per materialized RDD: each partition gets its own
    /// backbone array, and the arrays are allocated back to back — the
    /// reason shared cards "exist pervasively" (Section 4.2.3).
    pub partitions: usize,
    /// Fuse maximal chains of narrow transformations into one host-side
    /// streaming pass (records flow record-at-a-time through the whole
    /// chain; no intermediate stage ever materializes a `Vec<Payload>`).
    /// Simulated costs are charged from per-stage event logs in exactly
    /// the stage-at-a-time order the unfused engine uses, so simulated
    /// time/energy/GC behaviour is bit-identical either way. `false`
    /// selects stage-at-a-time execution (kept for A/B benchmarking and
    /// the fused-vs-unfused equivalence tests).
    pub fuse_narrow: bool,
    /// How shuffle data crosses executors. Only consulted when the run
    /// has peers; a single-executor run never crosses executors, so this
    /// knob cannot affect it.
    pub transport: ShuffleTransport,
    /// Store heap-level persisted RDDs in the off-heap H2 region instead
    /// of materializing them into the traced heap: the GC neither traces
    /// nor card-marks them, they are never serialized, and they are
    /// released on the lifetime schedule the analysis crate computes.
    pub offheap_cache: bool,
    /// Lifetime-based region allocation (Deca-style): streamed
    /// temporaries bump a stage-scratch arena reset wholesale at stage
    /// end instead of allocating young heap objects, and heap-level
    /// persists go to refcounted RDD-lifetime bump arenas freed wholesale
    /// on the analysis crate's lifetime schedule. Region-resident data is
    /// never traced, card-marked, or promoted; action results are
    /// bit-identical to a region-off run. When both this and
    /// [`EngineConfig::offheap_cache`] are set, persists take the H2
    /// region and only the scratch arenas are active.
    pub region_alloc: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            costs: CostModel::default(),
            record_cpu_ns: 80.0,
            driver_cpu_ns: 1_000.0,
            partitions: 8,
            fuse_narrow: true,
            transport: ShuffleTransport::Serde,
            offheap_cache: false,
            region_alloc: false,
        }
    }
}

/// The value an action produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionResult {
    /// `count()`.
    Count(u64),
    /// `collect()`.
    Collected(Vec<Payload>),
    /// `reduce(f)`; `None` for an empty RDD.
    Reduced(Option<Payload>),
}

impl ActionResult {
    /// The count, if this is a `Count` result.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            ActionResult::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The collected records, if this is a `Collected` result.
    pub fn as_collected(&self) -> Option<&[Payload]> {
        match self {
            ActionResult::Collected(v) => Some(v),
            _ => None,
        }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Records that flowed through narrow transformations.
    pub records_streamed: u64,
    /// Shuffles executed.
    pub shuffles: u64,
    /// Bytes written to + read from shuffle files.
    pub shuffle_bytes: u64,
    /// RDD materializations into the heap.
    pub materializations: u64,
    /// Actions executed.
    pub actions: u64,
    /// Runtime RDD instances created.
    pub rdd_instances: u64,
    /// Persisted RDDs evicted from the heap under memory pressure
    /// (dropped for MEMORY_ONLY levels, spilled to disk for
    /// MEMORY_AND_DISK levels — Spark's block-manager behaviour).
    pub evictions: u64,
    /// Shuffle bytes that crossed executors over the shared-region fast
    /// path instead of serde + network (these are the serde bytes
    /// avoided).
    pub fastpath_bytes: u64,
    /// Off-heap region blocks allocated.
    pub offheap_allocs: u64,
    /// Off-heap region blocks freed (refcount-zero releases, unpersists,
    /// and end-of-run sweeps together).
    pub offheap_frees: u64,
    /// Bytes allocated into the off-heap region.
    pub offheap_bytes: u64,
    /// Off-heap blocks still live at end of run and reclaimed by the
    /// sweep — a non-zero value means the lifetime schedule leaked.
    pub offheap_leaks: u64,
    /// Reads of off-heap record data whose region block was already
    /// freed — a non-zero value means the lifetime schedule freed early.
    pub offheap_dead_reads: u64,
    /// Stage-scratch region arenas opened (one per evaluation under
    /// [`EngineConfig::region_alloc`]).
    pub region_stage_arenas: u64,
    /// Bytes bumped into stage-scratch arenas (streamed temporaries and
    /// transient materializations that would otherwise hit the young
    /// generation).
    pub region_stage_bytes: u64,
    /// RDD-lifetime region arenas allocated.
    pub region_allocs: u64,
    /// RDD-lifetime region arenas freed wholesale (refcount-zero
    /// releases, unpersists, and end-of-run sweeps together).
    pub region_frees: u64,
    /// Bytes allocated into RDD-lifetime region arenas.
    pub region_bytes: u64,
    /// Region arenas still live at end of run and reclaimed by the sweep
    /// — a non-zero value means the lifetime schedule leaked.
    pub region_leaks: u64,
    /// Reads of region record data whose arena was already freed — a
    /// non-zero value means the lifetime schedule freed early.
    pub region_dead_reads: u64,
}

impl ExecStats {
    /// Serialize every counter as a JSON object with stable key order.
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        Json::obj(vec![
            ("records_streamed", Json::UInt(self.records_streamed)),
            ("shuffles", Json::UInt(self.shuffles)),
            ("shuffle_bytes", Json::UInt(self.shuffle_bytes)),
            ("materializations", Json::UInt(self.materializations)),
            ("actions", Json::UInt(self.actions)),
            ("rdd_instances", Json::UInt(self.rdd_instances)),
            ("evictions", Json::UInt(self.evictions)),
            ("fastpath_bytes", Json::UInt(self.fastpath_bytes)),
            ("offheap_allocs", Json::UInt(self.offheap_allocs)),
            ("offheap_frees", Json::UInt(self.offheap_frees)),
            ("offheap_bytes", Json::UInt(self.offheap_bytes)),
            ("offheap_leaks", Json::UInt(self.offheap_leaks)),
            ("offheap_dead_reads", Json::UInt(self.offheap_dead_reads)),
            ("region_stage_arenas", Json::UInt(self.region_stage_arenas)),
            ("region_stage_bytes", Json::UInt(self.region_stage_bytes)),
            ("region_allocs", Json::UInt(self.region_allocs)),
            ("region_frees", Json::UInt(self.region_frees)),
            ("region_bytes", Json::UInt(self.region_bytes)),
            ("region_leaks", Json::UInt(self.region_leaks)),
            ("region_dead_reads", Json::UInt(self.region_dead_reads)),
        ])
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// `(variable name, result)` per executed action, in order.
    pub results: Vec<(String, ActionResult)>,
    /// Execution counters.
    pub stats: ExecStats,
}

/// The engine. Owns the runtime, the function table, the input data, and
/// the runtime RDD graph.
#[derive(Debug)]
pub struct Engine<R: MemoryRuntime> {
    runtime: R,
    fns: FnTable,
    data: DataRegistry,
    config: EngineConfig,
    rdds: Vec<RddNode>,
    vars: Vec<Option<RddId>>,
    roots: RootSet,
    stats: ExecStats,
    /// Driver-side storage for DISK_ONLY persists. Stored behind `Rc` so
    /// re-reads hand out the same vector instead of copying it.
    disk_store: HashMap<RddId, Rc<Vec<Payload>>>,
    /// Native (off-heap) storage — placed entirely in NVM (Section 4.1).
    native_store: HashMap<RddId, Rc<Vec<Payload>>>,
    /// ShuffledRDDs (and action targets) materialized for the current
    /// evaluation only; reclaimed when it completes.
    transients: Vec<RddId>,
    /// Heap-persisted RDDs in persist order (LRU eviction order).
    persist_order: Vec<RddId>,
    /// Record contents of RDDs materialized in *serialized* form — their
    /// heap footprint is modelled by compact byte-buffer objects, so the
    /// payloads live driver-side.
    ser_store: HashMap<RddId, Rc<Vec<Payload>>>,
    /// Record contents of RDDs persisted into the off-heap H2 region
    /// ([`EngineConfig::offheap_cache`]). Entries live until `unpersist`;
    /// the region's simulated bytes are released earlier, on the lifetime
    /// schedule.
    offheap_store: HashMap<RddId, Rc<Vec<Payload>>>,
    /// Simulated-byte accounting for the off-heap region.
    offheap_region: OffHeapRegion,
    /// Record contents of RDDs held in lifetime-region arenas
    /// ([`EngineConfig::region_alloc`]): persisted RDD-lifetime arenas
    /// (entries live until `unpersist`; arena bytes are released earlier,
    /// on the lifetime schedule) and stage-transients (entries dropped at
    /// stage end, with the scratch arena).
    region_store: HashMap<RddId, Rc<Vec<Payload>>>,
    /// RDDs whose records live in the current stage's scratch arena;
    /// their `region_store` entries die when the evaluation completes.
    region_transients: Vec<RddId>,
    /// Simulated-byte accounting for the region arenas.
    region_heap: RegionHeap,
    /// The static release schedule driving off-heap refcounts; `Some`
    /// only when `offheap_cache` is on.
    lifetime: Option<LifetimePlan>,
    /// Dynamic statement counter, in the lifetime plan's step numbering.
    lifetime_step: usize,
    /// The statement step currently executing (what `persist_offheap`
    /// looks its planned block up under).
    lifetime_cur: usize,
    /// Which RDD each plan block id materialized as, in block order.
    plan_blocks: Vec<RddId>,
    /// Non-zero while computing the inputs of a join: hash-probe access is
    /// random (latency-bound), not streaming.
    random_read_depth: u32,
    /// Sequence number for `StageStart`/`StageEnd` events.
    stage_seq: u32,
    /// Cluster membership; `None` for a run without peers, which owns
    /// every partition and exchanges nothing.
    cluster: Option<ClusterCtx>,
    /// Where each computed RDD's local records sit in the global
    /// partition space. Entries persist across evictions (a recompute
    /// re-derives the identical layout).
    part_meta: HashMap<RddId, PartMeta>,
    /// Cluster mode: monotone statement-barrier counter.
    barrier_seq: u64,
    /// Cluster mode: monotone action-gather counter.
    action_seq: u64,
}

impl<R: MemoryRuntime> Engine<R> {
    /// Build an engine over a runtime, closures, and input data.
    pub fn new(runtime: R, fns: FnTable, data: DataRegistry) -> Self {
        Self::with_config(runtime, fns, data, EngineConfig::default())
    }

    /// Build an engine with explicit cost knobs.
    pub fn with_config(runtime: R, fns: FnTable, data: DataRegistry, config: EngineConfig) -> Self {
        Engine {
            runtime,
            fns,
            data,
            config,
            rdds: Vec::new(),
            vars: Vec::new(),
            roots: RootSet::new(),
            stats: ExecStats::default(),
            disk_store: HashMap::new(),
            native_store: HashMap::new(),
            transients: Vec::new(),
            persist_order: Vec::new(),
            ser_store: HashMap::new(),
            offheap_store: HashMap::new(),
            offheap_region: OffHeapRegion::new(),
            region_store: HashMap::new(),
            region_transients: Vec::new(),
            region_heap: RegionHeap::new(),
            lifetime: None,
            lifetime_step: 0,
            lifetime_cur: 0,
            plan_blocks: Vec::new(),
            random_read_depth: 0,
            stage_seq: 0,
            cluster: None,
            part_meta: HashMap::new(),
            barrier_seq: 0,
            action_seq: 0,
        }
    }

    /// Build an executor-resident engine: it keeps only the source
    /// partitions assigned to `ctx.exec` and rendezvouses with its peers
    /// through `ctx.exchange` at shuffles, actions, and statement
    /// barriers. With `ctx.n_exec == 1` the run is bit-identical to a run
    /// without peers.
    pub fn with_cluster(
        runtime: R,
        fns: FnTable,
        data: DataRegistry,
        config: EngineConfig,
        ctx: ClusterCtx,
    ) -> Self {
        let mut e = Self::with_config(runtime, fns, data, config);
        e.cluster = Some(ctx);
        e
    }

    /// The runtime (heap, GC, energy reports).
    pub fn runtime(&self) -> &R {
        &self.runtime
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut R {
        &mut self.runtime
    }

    /// The runtime RDD graph built so far.
    pub fn rdds(&self) -> &[RddNode] {
        &self.rdds
    }

    /// Execution counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Force a full collection with the engine's current root set.
    ///
    /// External drivers call this at a stage barrier after changing
    /// placement inputs (e.g. an online policy pinned new per-RDD tag
    /// overrides) so the dynamic re-assessment applies them immediately
    /// instead of waiting for an organic major collection.
    pub fn force_major(&mut self) {
        self.runtime.force_major(&self.roots);
    }

    /// Run a program under an instrumentation plan (use
    /// `InstrumentationPlan::default()` for un-instrumented baselines).
    /// This steps the same flattened statement schedule a
    /// [`crate::StageCursor`] does, to the end.
    ///
    /// # Panics
    ///
    /// Panics if the program is ill-formed (see [`sparklang::validate`]) —
    /// programs built with the [`sparklang::ProgramBuilder`] always pass.
    pub fn run(&mut self, program: &Program, plan: &InstrumentationPlan) -> RunOutcome {
        self.begin_run(program);
        let mut schedule = Schedule::new(program);
        while schedule.step(self, program, plan) {}
        self.finish_run();
        RunOutcome {
            results: schedule.into_results(),
            stats: self.stats,
        }
    }

    /// Start-of-run setup shared by [`Engine::run`] and the resumable
    /// [`crate::StageCursor`]: validate the program, size the variable
    /// table, and (re)derive the lifetime schedule.
    pub(crate) fn begin_run(&mut self, program: &Program) {
        if let Err(e) = sparklang::validate(program) {
            panic!("ill-formed program {:?}: {e}", program.name);
        }
        self.vars = vec![None; program.n_vars()];
        if self.config.offheap_cache || self.config.region_alloc {
            self.lifetime = Some(collect_lifetimes(program));
            self.lifetime_step = 0;
            self.plan_blocks.clear();
        }
    }

    /// End-of-run sweeps shared by [`Engine::run`] and
    /// [`crate::StageCursor::finish`]: the lifetime schedule must have
    /// freed every off-heap block and region arena by now, so anything
    /// still resident is a leak — reclaim it and count it (tests pin the
    /// leak counters to zero).
    pub(crate) fn finish_run(&mut self) {
        for rdd in self.offheap_region.live_rdds() {
            let freed = self.offheap_region.free(rdd);
            self.stats.offheap_leaks += 1;
            self.note_offheap_free(rdd, freed.bytes);
        }
        debug_assert!(
            !self.region_heap.stage_open(),
            "stage scratch arena left open past the last evaluation"
        );
        for rdd in self.region_heap.live_rdds() {
            let freed = self.region_heap.free(rdd);
            self.stats.region_leaks += 1;
            self.note_region_free(rdd, freed.bytes);
        }
    }

    // ------------------------------------------------------------------
    // Statement execution (the schedule in `cursor.rs` drives these)
    // ------------------------------------------------------------------

    /// Per-statement entry bookkeeping: claim the next lifetime step and
    /// charge the driver-interpretation CPU cost. Returns the claimed
    /// step, which the matching [`Engine::stmt_epilogue`] consumes.
    pub(crate) fn stmt_prologue(&mut self) -> usize {
        let step = self.lifetime_step;
        self.lifetime_step += 1;
        self.lifetime_cur = step;
        self.runtime
            .heap_mut()
            .mem_mut()
            .compute(self.config.driver_cpu_ns);
        step
    }

    /// Execute one non-loop statement (loops are unrolled by the flattened
    /// schedule, which calls this for each body statement).
    pub(crate) fn exec_simple(
        &mut self,
        program: &Program,
        s: &Stmt,
        id: StmtId,
        plan: &InstrumentationPlan,
        results: &mut Vec<(String, ActionResult)>,
    ) {
        match s {
            Stmt::Loop { .. } => unreachable!("loops are unrolled by the caller"),
            Stmt::Bind { var, expr } => {
                let rdd = self.build_expr(expr);
                self.rdds[rdd.0 as usize].label = Some(program.var_name(*var).to_string());
                self.vars[var.0 as usize] = Some(rdd);
            }
            Stmt::Persist { var, level } => {
                let rdd = self.var_rdd(*var);
                // The instrumented rdd_alloc call passes the inferred
                // tag down right before the materialization point.
                if let Some(tag) = plan.tag_at(id) {
                    self.rdds[rdd.0 as usize].merge_tag(tag);
                }
                self.rdds[rdd.0 as usize].persisted = Some(*level);
                self.persist_now(rdd);
            }
            Stmt::Unpersist { var } => {
                let rdd = self.var_rdd(*var);
                self.unpersist(rdd);
            }
            Stmt::Checkpoint { var } => {
                let rdd = self.var_rdd(*var);
                self.rdds[rdd.0 as usize].checkpointed = true;
            }
            Stmt::Action { var, action } => {
                let rdd = self.var_rdd(*var);
                self.runtime.record_rdd_call(rdd.0);
                if let Some(tag) = plan.tag_at(id) {
                    self.rdds[rdd.0 as usize].merge_tag(tag);
                }
                let value = self.run_action(rdd, action);
                self.stats.actions += 1;
                results.push((program.var_name(*var).to_string(), value));
            }
        }
    }

    /// Per-statement exit bookkeeping, the other half of
    /// [`Engine::stmt_prologue`].
    pub(crate) fn stmt_epilogue(&mut self, step: usize) {
        // Off-heap bookkeeping scheduled for this statement: releases
        // for the persisted blocks its evaluation consumed, frees for
        // blocks born lineage-dead.
        self.apply_lifetime_ops(step);
        // Cluster mode: stage barrier after every statement. Loop trip
        // counts are static, so every executor reaches the same
        // barriers in the same order; the barrier clock is the max
        // arrival time — straggler skew stalls the whole cluster.
        self.cluster_barrier();
    }

    /// Statement barrier: rendezvous with every peer executor and advance
    /// this executor's virtual clock to the barrier time (the maximum
    /// arrival clock). No-op outside cluster mode, and a zero-length wait
    /// in a single-executor cluster.
    fn cluster_barrier(&mut self) {
        let Some(ctx) = self.cluster.clone() else {
            return;
        };
        self.crash_probe();
        let index = self.barrier_seq;
        self.barrier_seq += 1;
        let now = self.runtime.heap().mem().clock().now_ns();
        self.note_recovery_progress(&ctx, index, now);
        let t_bar = ctx
            .exchange
            .barrier(ctx.exec, index, now)
            .unwrap_or_else(|e| std::panic::panic_any(e));
        self.sync_to(t_bar);
    }

    /// Replay-completion bookkeeping: if this executor is a restarted
    /// incarnation and its replay just re-reached the barrier its
    /// predecessor crashed at, recovery is complete — close the window,
    /// charge nothing (the clock already carries the replay cost), and
    /// emit [`obs::Event::RecoveryEnd`].
    fn note_recovery_progress(&mut self, ctx: &ClusterCtx, index: u64, now: f64) {
        let Some(rec) = &ctx.recovery else {
            return;
        };
        let done = rec.slot.with(|c| {
            if c.replay_until == Some(index) {
                c.replay_until = None;
                c.in_replay = false;
                // Nested faults widen `replay_until` to the furthest crash
                // barrier, so reaching it closes the whole (possibly
                // overlapping) window at once: the depth resets and the
                // single window is charged from the outermost crash.
                c.replay_depth = 0;
                let recovery_ns = now - c.recovery_started_ns;
                c.recovery_ns += recovery_ns;
                c.marks.push((
                    now,
                    crate::cluster::RecoveryMark::End {
                        barrier: index,
                        recovery_ns,
                    },
                ));
                Some(recovery_ns)
            } else {
                None
            }
        });
        if let Some(recovery_ns) = done {
            self.emit(obs::Event::RecoveryEnd {
                barrier: index,
                recovery_ns,
            });
        }
    }

    /// Advance the virtual clock to `t_bar` if it is behind (the executor
    /// idles until the cluster's straggler arrives). Monotone: a cached
    /// barrier time from a re-gathered shuffle never rewinds the clock.
    fn sync_to(&mut self, t_bar: f64) {
        let now = self.runtime.heap().mem().clock().now_ns();
        if t_bar > now {
            self.runtime.heap_mut().mem_mut().compute(t_bar - now);
        }
    }

    /// Observe `event` at the current virtual time (never charges).
    fn emit(&self, event: obs::Event) {
        let mem = self.runtime.heap().mem();
        mem.observer().emit(mem.clock().now_ns(), &event);
    }

    fn var_rdd(&self, var: VarId) -> RddId {
        self.vars[var.0 as usize].unwrap_or_else(|| panic!("variable v{} unbound", var.0))
    }

    fn build_expr(&mut self, expr: &RddExpr) -> RddId {
        match expr {
            RddExpr::Var(v) => {
                let rdd = self.var_rdd(*v);
                // A transformation invoked on a named RDD object is a
                // monitored method call (Section 4.2.2).
                self.runtime.record_rdd_call(rdd.0);
                rdd
            }
            RddExpr::Source(name) => self.new_node(RddOp::Source(name.clone())),
            RddExpr::Apply { transform, inputs } => {
                let parents: Vec<RddId> = inputs.iter().map(|e| self.build_expr(e)).collect();
                self.new_node(RddOp::Transformed {
                    transform: transform.clone(),
                    parents,
                })
            }
        }
    }

    fn new_node(&mut self, op: RddOp) -> RddId {
        let id = RddId(self.rdds.len() as u32);
        self.rdds.push(RddNode::new(id, op));
        self.stats.rdd_instances += 1;
        id
    }

    fn unpersist(&mut self, rdd: RddId) {
        if let Some(mat) = self.rdds[rdd.0 as usize].materialized.take() {
            self.roots.remove(mat.top);
        }
        self.disk_store.remove(&rdd);
        self.native_store.remove(&rdd);
        self.ser_store.remove(&rdd);
        if self.offheap_store.remove(&rdd).is_some() && self.offheap_region.block(rdd.0).is_some() {
            // The lifetime schedule releases a block's last reference at
            // its last consuming statement, which precedes any unpersist —
            // so this free is defensive only.
            let freed = self.offheap_region.free(rdd.0);
            self.note_offheap_free(rdd.0, freed.bytes);
        }
        self.region_transients.retain(|r| *r != rdd);
        if self.region_store.remove(&rdd).is_some() && self.region_heap.block(rdd.0).is_some() {
            // Defensive for the same scheduling reason as the off-heap
            // free above.
            let freed = self.region_heap.free(rdd.0);
            self.note_region_free(rdd.0, freed.bytes);
        }
        self.persist_order.retain(|r| *r != rdd);
        self.rdds[rdd.0 as usize].persisted = None;
    }

    // ------------------------------------------------------------------
    // Evaluation lifecycle
    // ------------------------------------------------------------------

    /// Run one top-level evaluation (a persist materialization or an
    /// action): opens a root scope, cleans up transient ShuffledRDDs at
    /// the end, and gives the runtime a stage boundary.
    ///
    /// Emits paired `StageStart`/`StageEnd` events carrying *cumulative*
    /// device write counters, so an aggregator derives per-evaluation
    /// write traffic by differencing. (Wide transformations inside one
    /// evaluation also pass a GC stage boundary but do not emit stage
    /// events: the event granularity is the top-level evaluation.)
    fn evaluation<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let stage = self.stage_seq;
        self.stage_seq += 1;
        self.emit_stage_event(stage, true);
        if self.config.region_alloc {
            // Every streamed temporary of this evaluation bumps the stage
            // scratch arena instead of the young generation.
            self.region_heap.open_stage();
            self.stats.region_stage_arenas += 1;
        }
        self.roots.push_scope();
        let out = f(self);
        for rdd in std::mem::take(&mut self.transients) {
            if let Some(mat) = self.rdds[rdd.0 as usize].materialized.take() {
                self.roots.remove(mat.top);
            }
        }
        for rdd in std::mem::take(&mut self.region_transients) {
            self.region_store.remove(&rdd);
        }
        if self.config.region_alloc {
            // Wholesale reset: no per-object work, no GC involvement.
            let freed = self.region_heap.close_stage();
            if freed > 0 {
                self.emit(obs::Event::RegionStageFree { bytes: freed });
            }
            if cfg!(debug_assertions) {
                if let Err(e) = self.region_heap.check_invariants() {
                    panic!("region invariant violated at stage {stage}: {e}");
                }
            }
        }
        self.roots.pop_scope();
        self.runtime.stage_boundary(&self.roots);
        self.emit_stage_event(stage, false);
        out
    }

    /// Emit one `StageStart`/`StageEnd` observation (never charges).
    fn emit_stage_event(&self, stage: u32, start: bool) {
        let mem = self.runtime.heap().mem();
        let observer = mem.observer();
        if !observer.enabled() {
            return;
        }
        let dram_write_bytes = mem
            .stats()
            .total_kind_bytes(DeviceKind::Dram, AccessKind::Write);
        let nvm_write_bytes = mem
            .stats()
            .total_kind_bytes(DeviceKind::Nvm, AccessKind::Write);
        let event = if start {
            obs::Event::StageStart {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            }
        } else {
            obs::Event::StageEnd {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            }
        };
        observer.emit(mem.clock().now_ns(), &event);
    }

    /// Materialize a persisted RDD immediately (Section 2: "persisted RDDs
    /// are materialized at the moment the method persist is called").
    fn persist_now(&mut self, rdd: RddId) {
        if self.is_materialized(rdd) {
            return;
        }
        self.propagate_tag_of(rdd);
        let level = self.rdds[rdd.0 as usize].persisted;
        self.evaluation(|e| {
            let records = e.compute(rdd);
            match level {
                Some(StorageLevel::DiskOnly) => {
                    e.charge_disk(&records);
                    e.disk_store.insert(rdd, records);
                }
                Some(StorageLevel::OffHeap) => {
                    e.charge_native(&records, AccessKind::Write);
                    e.native_store.insert(rdd, records);
                }
                // With the H2 region enabled, every heap-level persist —
                // serialized levels included, since the region is never
                // serialized — goes off-heap instead of into old gen.
                Some(l) if l.uses_heap() && e.config.offheap_cache => {
                    e.persist_offheap(rdd, records);
                }
                // Region allocation: heap-level persists get a refcounted
                // RDD-lifetime arena (off-heap H2 wins when both are on).
                Some(l) if l.uses_heap() && e.config.region_alloc => {
                    e.persist_region(rdd, records);
                }
                Some(l) if l.is_serialized() => {
                    // A wide node may already carry its shuffle's transient
                    // (deserialized) materialization; replace it with the
                    // serialized form.
                    if let Some(mat) = e.rdds[rdd.0 as usize].materialized.take() {
                        e.roots.remove(mat.top);
                        e.transients.retain(|r| *r != rdd);
                    }
                    e.materialize_serialized(rdd, records);
                    e.persist_order.push(rdd);
                }
                // A persisted wide RDD was already materialized
                // persistently by its own shuffle.
                _ if e.is_materialized(rdd) => {
                    e.persist_order.push(rdd);
                }
                _ => {
                    e.materialize_into_heap(rdd, &records, false);
                    e.persist_order.push(rdd);
                }
            }
        });
    }

    /// Spark's block manager under memory pressure: when the old
    /// generation cannot hold a new persisted RDD, evict the oldest
    /// heap-resident persisted RDD — dropping it (MEMORY_ONLY, to be
    /// recomputed on next use) or spilling it to disk (MEMORY_AND_DISK).
    fn ensure_heap_capacity(&mut self, records: &[Payload]) {
        let need: u64 = records
            .iter()
            .map(|r| self.runtime.heap().tuple_footprint(r.model_bytes()))
            .sum::<u64>()
            + 8 * records.len() as u64
            // Headroom for promotions out of the young generation: the
            // paper's JVM throws OutOfMemoryError here, but Spark's block
            // manager evicts cached blocks before that happens.
            + self.runtime.heap().config().young_bytes();
        loop {
            if self.runtime.heap().old_free() >= need {
                return;
            }
            let Some(pos) = self
                .persist_order
                .iter()
                .position(|r| self.rdds[r.0 as usize].materialized.is_some())
            else {
                return; // nothing to evict; allocation fallbacks take over
            };
            let victim = self.persist_order.remove(pos);
            self.evict(victim);
            self.runtime.force_major(&self.roots);
        }
    }

    fn evict(&mut self, rdd: RddId) {
        self.stats.evictions += 1;
        let level = self.rdds[rdd.0 as usize].persisted;
        let spill = matches!(
            level,
            Some(StorageLevel::MemoryAndDisk)
                | Some(StorageLevel::MemoryAndDisk2)
                | Some(StorageLevel::MemoryAndDiskSer)
                | Some(StorageLevel::MemoryAndDiskSer2)
        );
        if spill {
            // Serialized blocks spill their bytes directly — no
            // deserialization; deserialized blocks are read out first.
            let records = if let Some(records) = self.ser_store.remove(&rdd) {
                records
            } else {
                self.read_materialized(rdd)
            };
            self.charge_disk(&records);
            self.disk_store.insert(rdd, records);
        } else {
            self.ser_store.remove(&rdd);
        }
        if let Some(mat) = self.rdds[rdd.0 as usize].materialized.take() {
            self.roots.remove(mat.top);
        }
    }

    /// Run an action: evaluate this executor's records of `rdd`, compute
    /// the local result, and merge it with the peers' at the action
    /// gather (without peers the local result is the result).
    fn run_action(&mut self, rdd: RddId, action: &ActionKind) -> ActionResult {
        self.propagate_tag_of(rdd);
        self.evaluation(|e| {
            let records = e.compute(rdd);
            // Actions materialize their not-yet-persisted target
            // (Section 2) — transiently, since nothing keeps it alive.
            if !e.is_materialized(rdd) {
                e.materialize_into_heap(rdd, &records, true);
            }
            let local = match action {
                ActionKind::Count => ActionResult::Count(records.len() as u64),
                ActionKind::Collect => ActionResult::Collected(
                    Rc::try_unwrap(records).unwrap_or_else(|rc| rc.as_ref().clone()),
                ),
                ActionKind::Reduce(f) => {
                    let mut it = records.iter();
                    let first = it.next().cloned();
                    let folded = first.map(|mut acc| {
                        for r in it {
                            acc = e.apply_reduce(*f, &acc, r);
                        }
                        acc
                    });
                    ActionResult::Reduced(folded)
                }
            };
            e.gather_action(rdd, action, local)
        })
    }

    fn is_materialized(&self, rdd: RddId) -> bool {
        self.rdds[rdd.0 as usize].materialized.is_some()
            || self.disk_store.contains_key(&rdd)
            || self.native_store.contains_key(&rdd)
            || self.offheap_store.contains_key(&rdd)
            || self.region_store.contains_key(&rdd)
    }

    /// Panthera's stage-start lineage scan: push this RDD's tag backward
    /// to the unmaterialized shuffle outputs it depends on (DRAM wins).
    fn propagate_tag_of(&mut self, rdd: RddId) {
        if !self.runtime.lineage_propagation() {
            return;
        }
        let Some(tag) = self.rdds[rdd.0 as usize].tag else {
            return;
        };
        let mut queue = vec![rdd];
        let mut seen = std::collections::HashSet::new();
        while let Some(id) = queue.pop() {
            if !seen.insert(id) {
                continue;
            }
            let node = &self.rdds[id.0 as usize];
            if id != rdd && (node.materialized.is_some() || node.persisted.is_some()) {
                // A previous stage's RDD: it has its own tag.
                continue;
            }
            queue.extend(node.parents().iter().copied());
            if node.is_wide() {
                self.rdds[id.0 as usize].merge_tag(tag);
            }
        }
    }

    /// Allocate an RDD's backbone: one array per partition with the given
    /// slot counts, allocated back to back (the tasks' tuples come later,
    /// so consecutive arrays share boundary cards unless padded), then the
    /// top object referencing them all. The arrays are rooted in the
    /// caller's open scope.
    fn alloc_backbone(&mut self, rdd: RddId, slots: Vec<usize>) -> (ObjId, Vec<ObjId>) {
        let tag = self.rdds[rdd.0 as usize].tag;
        let mut arrays = Vec::with_capacity(slots.len());
        for n in slots {
            let array = self.runtime.alloc_rdd_array(&self.roots, rdd.0, n, tag);
            self.roots.push(array);
            arrays.push(array);
        }
        let top = self
            .runtime
            .alloc_rdd_top(&self.roots, rdd.0, arrays[0], tag);
        for a in &arrays[1..] {
            self.runtime.heap_mut().push_ref(top, *a);
        }
        (top, arrays)
    }

    /// Materialize `records` in serialized form: one compact byte buffer
    /// per partition (a `byte[]` in Spark), pretenured like any RDD array.
    /// Reads deserialize on the fly; the heap holds no per-tuple objects.
    fn materialize_serialized(&mut self, rdd: RddId, records: Rc<Vec<Payload>>) {
        debug_assert!(
            self.rdds[rdd.0 as usize].materialized.is_none(),
            "double materialization of {rdd}"
        );
        // Serialization CPU, once per record.
        self.runtime
            .heap_mut()
            .mem_mut()
            .compute(self.config.costs.serde_ns(records.len() as u64));
        self.roots.push_scope();
        // Each buffer is a primitive byte array: size it in 8-byte slots.
        let n_parts = self.config.partitions.clamp(1, records.len().max(1));
        let mut off = 0usize;
        let slots = partition_sizes(records.len(), n_parts)
            .into_iter()
            .map(|len| {
                let bytes = model_bytes(&records[off..off + len]);
                off += len;
                (bytes.div_ceil(8) as usize).max(1)
            })
            .collect();
        let (top, arrays) = self.alloc_backbone(rdd, slots);
        self.roots.pop_scope();
        self.roots.push_global(top);
        let len = records.len();
        self.ser_store.insert(rdd, records);
        self.rdds[rdd.0 as usize].materialized = Some(MatData {
            top,
            arrays,
            len,
            serialized: true,
        });
        self.stats.materializations += 1;
    }

    /// Build the Figure 1 object structure for `records`.
    fn materialize_into_heap(&mut self, rdd: RddId, records: &[Payload], transient: bool) {
        debug_assert!(
            self.rdds[rdd.0 as usize].materialized.is_none(),
            "double materialization of {rdd}"
        );
        if self.config.region_alloc && transient && self.region_heap.stage_open() {
            // A transient materialization dies with the evaluation: route
            // it into the stage scratch arena instead of the young gen.
            self.materialize_region_transient(rdd, records);
            return;
        }
        self.fault_probe_materialize(records);
        self.ensure_heap_capacity(records);
        self.roots.push_scope();
        let n_parts = self.config.partitions.clamp(1, records.len().max(1));
        let per_part = records.len().div_ceil(n_parts).max(1);
        let (top, arrays) = self.alloc_backbone(rdd, partition_sizes(records.len(), n_parts));
        self.roots.push(top);
        for (i, r) in records.iter().enumerate() {
            let tuple = self
                .runtime
                .alloc_record(&self.roots, ObjKind::Tuple, r.clone());
            self.runtime
                .heap_mut()
                .push_ref(arrays[i / per_part], tuple);
        }
        self.roots.pop_scope();
        if transient {
            // Rooted for the current evaluation only.
            self.roots.push(top);
            self.transients.push(rdd);
        } else {
            // Long-lived: registered like Spark's block manager would.
            self.roots.push_global(top);
        }
        self.rdds[rdd.0 as usize].materialized = Some(MatData {
            top,
            arrays,
            len: records.len(),
            serialized: false,
        });
        self.stats.materializations += 1;
        self.note_live_partitions(rdd);
        self.maybe_checkpoint(rdd, records);
    }

    // ------------------------------------------------------------------
    // Fault injection and checkpoint/recovery hooks (runs with a recovery
    // context only). Every hook is a no-op — no charge, no event, no
    // counter — unless the cluster runs under a fault plan or checkpoint
    // policy, so runs without peers and fault-free runs are bit-identical
    // to a build without these hooks.
    // ------------------------------------------------------------------

    /// Virtual-time crash probe: if the fault plan schedules a crash for
    /// this executor at a virtual time its clock has now reached, consume
    /// that crash point and kill the incarnation. Probes sit at every
    /// interruptible point of a stage — materializations, barrier
    /// entries, both legs of an exchange deposit, and inside checkpoint
    /// saves — so a planned time maps to the *first probe at or past it*,
    /// a deterministic structural point regardless of host scheduling.
    /// `vcrash_next` lives in the recovery slot and survives restarts, so
    /// each planned point fires exactly once; a point that falls inside a
    /// still-open recovery window crashes the replaying incarnation
    /// (crash-during-recovery), which the driver handles by widening the
    /// replay window rather than starting a second one.
    fn crash_probe(&mut self) {
        let Some(ctx) = self.cluster.as_ref() else {
            return;
        };
        let Some(rec) = ctx.recovery.as_ref() else {
            return;
        };
        if rec.crash_points.is_empty() {
            return;
        }
        let exec = ctx.exec;
        let barrier = self.barrier_seq;
        let now = self.runtime.heap().mem().clock().now_ns();
        let fire = rec
            .slot
            .with(|c| match rec.crash_points.get(c.vcrash_next) {
                Some(&at) if now >= at => {
                    c.vcrash_next += 1;
                    true
                }
                _ => false,
            });
        if fire {
            std::panic::panic_any(ClusterError::InjectedCrash {
                exec,
                barrier,
                at_ns: now,
            });
        }
    }

    /// Open a journal entry for an exchange deposit or checkpoint save.
    /// Pure NVM bookkeeping — charges no virtual time (the persist leg
    /// rides on the operation's own device charges), so fault-free runs
    /// are bit-identical whether or not anything ever reads the journal.
    /// Replay/torn outcomes are counted (and surfaced as events) only
    /// while the executor is replaying: a same-incarnation re-issue (an
    /// evicted RDD recomputed) is a quiet idempotent hit, not a recovery
    /// event. A digest mismatch panics inside the journal — replay
    /// produced a different payload than the committed one, which breaks
    /// the determinism argument idempotent recovery rests on.
    fn journal_begin(&mut self, op: JournalOp, key: u64, digest: u64, bytes: u64) {
        let Some(ctx) = self.cluster.clone() else {
            return;
        };
        let Some(rec) = ctx.recovery.as_ref() else {
            return;
        };
        let outcome = rec.journal.begin(ctx.exec, op, key, digest, bytes);
        let event = rec.slot.with(|c| {
            if !c.in_replay {
                return None;
            }
            match outcome {
                BeginOutcome::Fresh => None,
                BeginOutcome::Replay => {
                    c.journal_noops += 1;
                    Some(obs::Event::JournalNoop {
                        kind: journal_kind(op),
                        key,
                    })
                }
                BeginOutcome::Torn => {
                    c.journal_torn += 1;
                    Some(obs::Event::JournalTorn {
                        kind: journal_kind(op),
                        key,
                    })
                }
            }
        });
        if let Some(ev) = event {
            self.emit(ev);
        }
    }

    /// Mark a journaled operation durable. Idempotent: re-committing a
    /// replayed entry is a no-op, so the replay path can run the same
    /// begin → effect → commit sequence as a fresh execution.
    fn journal_commit(&mut self, op: JournalOp, key: u64) {
        let Some(ctx) = self.cluster.as_ref() else {
            return;
        };
        let Some(rec) = ctx.recovery.as_ref() else {
            return;
        };
        rec.journal.commit(ctx.exec, op, key);
    }

    /// Planned transient allocation failure: fires when this executor's
    /// (monotone, attempt-spanning) materialization ordinal is listed in
    /// the fault plan. The failed attempt is retried after a charged
    /// back-off, modelling an allocation that succeeds on its second try.
    fn fault_probe_materialize(&mut self, records: &[Payload]) {
        self.crash_probe();
        let Some(rec) = self.cluster.as_ref().and_then(|c| c.recovery.clone()) else {
            return;
        };
        let seq = rec.slot.with(|c| {
            let s = c.materialize_seq;
            c.materialize_seq += 1;
            s
        });
        if !rec.alloc_faults.contains(&seq) {
            return;
        }
        rec.slot.with(|c| c.alloc_faults += 1);
        let need = model_bytes(records);
        self.emit(obs::Event::AllocFail {
            space: obs::AllocSpace::Eden,
            need,
        });
        self.runtime
            .heap_mut()
            .mem_mut()
            .compute(rec.alloc_retry_ns);
    }

    /// Track how many partitions are currently materialized in this
    /// incarnation's heap — what a crash right now would lose.
    fn note_live_partitions(&mut self, rdd: RddId) {
        let Some(rec) = self.cluster.as_ref().and_then(|c| c.recovery.as_ref()) else {
            return;
        };
        let parts = self
            .part_meta
            .get(&rdd)
            .map(|m| m.gids.len() as u64)
            .unwrap_or(0);
        rec.slot.with(|c| c.live_partitions += parts);
    }

    /// Snapshot `rdd`'s local partitions into the durable NVM checkpoint
    /// store if the policy selects it: explicitly `checkpoint()`-marked,
    /// or every `n`-th shuffle output under `CheckpointEvery(n)` (counted
    /// by structural ordinal, which is stable across executors and replay
    /// attempts). Writes are charged to the NVM device; `save` is
    /// idempotent, so a replaying executor never double-charges.
    fn maybe_checkpoint(&mut self, rdd: RddId, records: &[Payload]) {
        let Some(ctx) = self.cluster.clone() else {
            return;
        };
        let Some(rec) = ctx.recovery.as_ref() else {
            return;
        };
        if !self.part_meta.contains_key(&rdd) {
            return;
        }
        let node = &self.rdds[rdd.0 as usize];
        let auto = rec.checkpoint_every > 0
            && node.is_wide()
            && (self.wide_ordinal(rdd) + 1).is_multiple_of(u64::from(rec.checkpoint_every));
        if !(node.checkpointed || auto) {
            return;
        }
        let tag = node.tag;
        let parts = self.wire_parts(rdd, records);
        let bytes: u64 = parts
            .iter()
            .flat_map(|(_, recs)| recs.iter())
            .map(WirePayload::model_bytes)
            .sum();
        let entry = crate::cluster::CheckpointEntry {
            parts,
            global_parts: self.part_meta[&rdd].global_parts,
            bytes,
            tag,
        };
        // Journaled save: the first probe exposes the torn window (intent
        // journaled, snapshot not yet durable — replay rolls it forward),
        // the last one a crash after the charged write (replay finds the
        // committed entry and validates the no-op).
        self.journal_begin(
            JournalOp::CheckpointSave,
            u64::from(rdd.0),
            entry.digest(),
            bytes,
        );
        self.crash_probe();
        if !rec.store.save(rdd.0, ctx.exec, entry) {
            // Already durable (a replay re-reached this point): settle the
            // journal and move on without re-charging the write.
            self.journal_commit(JournalOp::CheckpointSave, u64::from(rdd.0));
            return;
        }
        self.journal_commit(JournalOp::CheckpointSave, u64::from(rdd.0));
        rec.slot.with(|c| {
            c.checkpoint_writes += 1;
            c.checkpoint_bytes += bytes;
        });
        self.charge_native(records, AccessKind::Write);
        self.emit(obs::Event::CheckpointWrite { rdd: rdd.0, bytes });
        self.crash_probe();
    }

    /// Whether [`Engine::try_restore_checkpoint`] could serve `rdd`
    /// instead of its lineage: only `checkpoint()`-marked RDDs and wide
    /// ones are ever snapshotted, and only under a recovery context.
    fn may_restore_checkpoint(&self, rdd: RddId) -> bool {
        let node = &self.rdds[rdd.0 as usize];
        (node.checkpointed || node.is_wide())
            && self.cluster.as_ref().is_some_and(|c| c.recovery.is_some())
    }

    /// Count a shuffle stage re-executed during replay, with the output
    /// partitions it recomputed.
    fn note_stage_recomputed(&mut self, owned_parts: u64) {
        let Some(rec) = self.cluster.as_ref().and_then(|c| c.recovery.as_ref()) else {
            return;
        };
        rec.slot.with(|c| {
            if c.in_replay {
                c.stages_recomputed += 1;
                c.partitions_recomputed += owned_parts;
            }
        });
    }

    /// The structural ordinal of a wide node: how many wide nodes precede
    /// it in instance order. Replay rebuilds the identical graph, so the
    /// ordinal — unlike anything keyed on time — is replay-stable.
    fn wide_ordinal(&self, rdd: RddId) -> u64 {
        self.rdds[..rdd.0 as usize]
            .iter()
            .filter(|n| n.is_wide())
            .count() as u64
    }

    /// Serve a materialization from the durable checkpoint store, if this
    /// executor snapshotted `rdd` in a previous (crashed) incarnation or
    /// earlier in this one. Short-circuits the lineage recursion — this is
    /// what bounds replay recomputation under `CheckpointEvery(n)`. Reads
    /// are charged to the NVM device.
    fn try_restore_checkpoint(&mut self, rdd: RddId) -> Option<Rc<Vec<Payload>>> {
        let ctx = self.cluster.clone()?;
        let rec = ctx.recovery.as_ref()?;
        let entry = rec.store.load(rdd.0, ctx.exec)?;
        let mut gids = Vec::with_capacity(entry.parts.len());
        let mut lens = Vec::with_capacity(entry.parts.len());
        let mut records = Vec::new();
        for (gid, recs) in &entry.parts {
            gids.push(*gid);
            lens.push(recs.len());
            records.extend(recs.iter().map(Payload::from));
        }
        if let Some(tag) = entry.tag {
            self.rdds[rdd.0 as usize].merge_tag(tag);
        }
        let restored_parts = gids.len() as u64;
        rec.slot.with(|c| {
            c.partitions_restored += restored_parts;
            c.restore_bytes += entry.bytes;
        });
        self.part_meta.insert(
            rdd,
            PartMeta {
                gids,
                lens,
                global_parts: entry.global_parts,
            },
        );
        self.charge_native(&records, AccessKind::Read);
        self.emit(obs::Event::CheckpointRestore {
            rdd: rdd.0,
            bytes: entry.bytes,
        });
        self.materialize_into_heap(rdd, &records, !self.persists_in_heap(rdd));
        Some(Rc::new(records))
    }

    // ------------------------------------------------------------------
    // The exchange seam. Everything that differs between a run with peers
    // and one without lives here (plus the barrier and the recovery hooks
    // above): placement, the shuffle gather, and the action gather. A run
    // without peers owns every partition, and its local records pass
    // through unchanged — no wire round trip, no transfer costing.
    // ------------------------------------------------------------------

    /// This executor's id and the executor count (`(0, 1)` without peers).
    fn placement(&self) -> (u16, u16) {
        self.cluster.as_ref().map_or((0, 1), |c| (c.exec, c.n_exec))
    }

    /// Partition `global` with the canonical rule and keep the partitions
    /// this executor owns (`gid % E == e`, in ascending order), with their
    /// layout. Sources and shuffle outputs are placed this way.
    fn own_partitions(&self, global: Rc<Vec<Payload>>) -> (Rc<Vec<Payload>>, PartMeta) {
        let (exec, n_exec) = self.placement();
        let n_parts = self.config.partitions.clamp(1, global.len().max(1));
        let sizes = partition_sizes(global.len(), n_parts);
        let global_parts = sizes.len() as u64;
        let owned = |gid: usize| gid as u64 % u64::from(n_exec) == u64::from(exec);
        let (gids, lens) = sizes
            .iter()
            .enumerate()
            .filter(|(gid, _)| owned(*gid))
            .map(|(gid, &len)| (gid as u64, len))
            .unzip();
        let meta = PartMeta {
            gids,
            lens,
            global_parts,
        };
        if n_exec == 1 {
            return (global, meta);
        }
        let mut local = Vec::new();
        let mut off = 0usize;
        for (gid, &len) in sizes.iter().enumerate() {
            if owned(gid) {
                local.extend_from_slice(&global[off..off + len]);
            }
            off += len;
        }
        (Rc::new(local), meta)
    }

    /// Shuffle gather: hand this executor's map-side records of each
    /// parent to its peers and return the global map output per parent,
    /// in global-partition order — the order a run without peers scans
    /// its own records in. Charges the cross-executor transfer.
    fn gather_shuffle(
        &mut self,
        rdd: RddId,
        parents: &[RddId],
        local: Vec<Rc<Vec<Payload>>>,
    ) -> Vec<Rc<Vec<Payload>>> {
        let Some(ctx) = self.cluster.clone() else {
            return local;
        };
        let contrib = ShuffleContrib {
            left: self.wire_parts(parents[0], &local[0]),
            right: local.get(1).map(|recs| self.wire_parts(parents[1], recs)),
        };
        // Journaled deposit: begin (persist intent + digest), deposit,
        // commit. The probes expose both torn windows — crashed before
        // the deposit landed (replay rolls it forward) and after (the
        // exchange validates the replayed digest and keeps the original).
        self.journal_begin(
            JournalOp::ShuffleDeposit,
            u64::from(rdd.0),
            contrib.digest(),
            contrib.model_bytes(),
        );
        self.crash_probe();
        let now = self.runtime.heap().mem().clock().now_ns();
        let (contribs, t_bar) = ctx
            .exchange
            .gather_shuffle(ctx.exec, rdd.0, contrib, now)
            .unwrap_or_else(|err| std::panic::panic_any(err));
        self.sync_to(t_bar);
        self.crash_probe();
        self.journal_commit(JournalOp::ShuffleDeposit, u64::from(rdd.0));
        // Reassemble the global map output, remembering each partition's
        // origin executor for the transfer accounting.
        let left = merge_contrib_parts(&contribs, |c| Some(&c.left));
        let right = merge_contrib_parts(&contribs, |c| c.right.as_deref());
        let (xfer_records, xfer_bytes) = transfer_cost(&left, &right, ctx.exec, ctx.n_exec);
        let xfer_ns =
            self.config
                .costs
                .transfer_ns(self.config.transport, xfer_records, xfer_bytes);
        if xfer_ns > 0.0 {
            self.runtime.heap_mut().mem_mut().compute(xfer_ns);
        }
        if xfer_bytes > 0 && self.config.transport == ShuffleTransport::SharedRegion {
            // Colocated fast path taken: these bytes moved at memory
            // bandwidth with zero serde. E=1 transfers nothing, so this
            // never fires there.
            self.stats.fastpath_bytes += xfer_bytes;
            self.emit(obs::Event::ShuffleFastPath { bytes: xfer_bytes });
        }
        let flat = |parts: Vec<(u64, u16, Vec<Payload>)>| {
            Rc::new(parts.into_iter().flat_map(|(_, _, recs)| recs).collect())
        };
        let mut global = vec![flat(left)];
        if parents.len() > 1 {
            global.push(flat(right));
        }
        global
    }

    /// Action gather: contribute this executor's local result and merge
    /// every executor's into the global one — identically on every
    /// executor, so the driver can take any of them. The cross-executor
    /// merge of reduce partials is uncharged driver work (a parallel-
    /// reduce tree root).
    fn gather_action(
        &mut self,
        rdd: RddId,
        action: &ActionKind,
        local: ActionResult,
    ) -> ActionResult {
        let Some(ctx) = self.cluster.clone() else {
            return local;
        };
        let contrib = match &local {
            ActionResult::Count(n) => ActionContrib::Count(*n),
            ActionResult::Collected(records) => {
                ActionContrib::Collect(self.wire_parts(rdd, records))
            }
            ActionResult::Reduced(p) => ActionContrib::Reduce(p.as_ref().map(WirePayload::from)),
        };
        let seq = self.action_seq;
        self.action_seq += 1;
        // Journaled deposit (see `gather_shuffle` for the protocol).
        self.journal_begin(JournalOp::ActionDeposit, seq, contrib.digest(), 0);
        self.crash_probe();
        let now = self.runtime.heap().mem().clock().now_ns();
        let (contribs, t_bar) = ctx
            .exchange
            .gather_action(ctx.exec, seq, contrib, now)
            .unwrap_or_else(|err| std::panic::panic_any(err));
        self.sync_to(t_bar);
        self.crash_probe();
        self.journal_commit(JournalOp::ActionDeposit, seq);
        fn mismatch(c: &ActionContrib) -> ! {
            panic!("mismatched action contribution {c:?}")
        }
        match action {
            ActionKind::Count => ActionResult::Count(
                contribs
                    .iter()
                    .map(|c| match c {
                        ActionContrib::Count(n) => *n,
                        other => mismatch(other),
                    })
                    .sum(),
            ),
            ActionKind::Collect => {
                let mut parts: Vec<(u64, &[WirePayload])> = contribs
                    .iter()
                    .flat_map(|c| match c {
                        ActionContrib::Collect(parts) => {
                            parts.iter().map(|(gid, recs)| (*gid, recs.as_slice()))
                        }
                        other => mismatch(other),
                    })
                    .collect();
                parts.sort_by_key(|(gid, _)| *gid);
                ActionResult::Collected(
                    parts
                        .into_iter()
                        .flat_map(|(_, recs)| recs.iter().map(Payload::from))
                        .collect(),
                )
            }
            ActionKind::Reduce(f) => {
                let partials: Vec<Payload> = contribs
                    .iter()
                    .filter_map(|c| match c {
                        ActionContrib::Reduce(p) => p.as_ref().map(Payload::from),
                        other => mismatch(other),
                    })
                    .collect();
                let combine = match self.fns.get(*f) {
                    UserFn::Reduce(f) => f,
                    other => panic!("expected a reduce function, got {other:?}"),
                };
                ActionResult::Reduced(partials.into_iter().reduce(|a, b| combine(&a, &b)))
            }
        }
    }

    /// Convert this executor's local records of `rdd` into their wire form
    /// grouped by global partition id, ready to contribute to a gather.
    fn wire_parts(&self, rdd: RddId, records: &[Payload]) -> Vec<(u64, Vec<WirePayload>)> {
        let meta = &self.part_meta[&rdd];
        let mut out = Vec::with_capacity(meta.gids.len());
        let mut off = 0usize;
        for (i, &gid) in meta.gids.iter().enumerate() {
            let len = meta.lens[i];
            out.push((
                gid,
                records[off..off + len]
                    .iter()
                    .map(WirePayload::from)
                    .collect(),
            ));
            off += len;
        }
        debug_assert_eq!(off, records.len(), "partition metadata out of sync");
        out
    }

    // ------------------------------------------------------------------
    // Record computation
    // ------------------------------------------------------------------

    /// Produce this executor's records of `rdd`, charging all memory
    /// traffic; their partition layout is in `part_meta` afterwards. The
    /// result is shared: callers that only read (materialization, charge
    /// accounting, bucket filling) never copy the vector.
    fn compute(&mut self, rdd: RddId) -> Rc<Vec<Payload>> {
        if self.rdds[rdd.0 as usize].materialized.is_some() {
            return self.read_materialized(rdd);
        }
        if let Some(records) = self.disk_store.get(&rdd) {
            let records = Rc::clone(records);
            self.charge_disk(&records);
            return records;
        }
        if let Some(records) = self.native_store.get(&rdd) {
            let records = Rc::clone(records);
            self.charge_native(&records, AccessKind::Read);
            return records;
        }
        if let Some(records) = self.offheap_store.get(&rdd) {
            let records = Rc::clone(records);
            if self.offheap_region.block(rdd.0).is_none() {
                // The schedule freed this block before its last read —
                // results stay correct (the store keeps the records), but
                // the premature free must be visible to tests.
                self.stats.offheap_dead_reads += 1;
            }
            let device = self.offheap_device(rdd);
            self.charge_device(device, AccessKind::Read, model_bytes(&records));
            return records;
        }
        if let Some(records) = self.region_store.get(&rdd) {
            let records = Rc::clone(records);
            let device = match self.region_heap.block(rdd.0) {
                Some(b) => b.device,
                None if self.region_transients.contains(&rdd) => DeviceKind::Dram,
                None => {
                    // The schedule freed this arena before its last read —
                    // results stay correct (the store keeps the records),
                    // but the premature free must be visible to tests.
                    self.stats.region_dead_reads += 1;
                    self.offheap_device(rdd)
                }
            };
            self.charge_device(device, AccessKind::Read, model_bytes(&records));
            return records;
        }
        if let Some(records) = self.try_restore_checkpoint(rdd) {
            return records;
        }
        let op = self.rdds[rdd.0 as usize].op.clone();
        match op {
            RddOp::Source(name) => self.compute_source(rdd, &name),
            RddOp::Transformed { transform, parents } => {
                if transform.is_wide() {
                    self.compute_shuffle(rdd, &transform, &parents)
                } else if let Transform::Union = transform {
                    self.compute_union(rdd, &parents)
                } else if self.config.fuse_narrow {
                    self.compute_fused(rdd)
                } else {
                    let input = self.compute(parents[0]);
                    self.stream(rdd, parents[0], &input, &transform)
                }
            }
        }
    }

    /// Source scan: partition the input, keep this executor's partitions,
    /// and charge disk and parsing for them.
    fn compute_source(&mut self, rdd: RddId, name: &str) -> Rc<Vec<Payload>> {
        let (records, meta) = self.own_partitions(self.data.records_shared(name));
        self.charge_disk(&records);
        // Parsing allocates one short-lived young object per record.
        for r in records.iter() {
            self.stream_alloc(r.clone());
        }
        self.part_meta.insert(rdd, meta);
        records
    }

    /// A union's local records are parent 0's partitions followed by
    /// parent 1's, renumbered past parent 0's global partition space
    /// (ownership inherits parent placement, like Spark's UnionRDD).
    fn compute_union(&mut self, rdd: RddId, parents: &[RddId]) -> Rc<Vec<Payload>> {
        let mut out: Vec<Payload> = self.compute(parents[0]).as_ref().clone();
        out.extend(self.compute(parents[1]).iter().cloned());
        let m0 = self.part_meta[&parents[0]].clone();
        let m1 = &self.part_meta[&parents[1]];
        let mut gids = m0.gids;
        gids.extend(m1.gids.iter().map(|g| g + m0.global_parts));
        let mut lens = m0.lens;
        lens.extend_from_slice(&m1.lens);
        let meta = PartMeta {
            gids,
            lens,
            global_parts: m0.global_parts + m1.global_parts,
        };
        self.part_meta.insert(rdd, meta);
        Rc::new(out)
    }

    /// Fused execution of the maximal narrow chain ending at `rdd`: every
    /// record flows through the whole chain depth-first, so intermediate
    /// stages never materialize a `Vec<Payload>` — only the chain's final
    /// output is collected, partition by partition. Simulated costs are
    /// *not* charged during the host-side pass; each stage logs its charge
    /// events (one CPU tick per input record, one young allocation per
    /// output record, in record order) and the logs are replayed
    /// stage-by-stage afterwards. The replayed sequence is exactly what
    /// the unfused engine would have issued, so simulated time, energy,
    /// and GC scheduling are bit-identical to stage-at-a-time execution.
    fn compute_fused(&mut self, rdd: RddId) -> Rc<Vec<Payload>> {
        let (base, stages) = self.narrow_chain(rdd);
        let input = self.compute(base);
        debug_assert!(!stages.is_empty(), "narrow node must contribute a stage");
        let mut logs: Vec<StageLog> = stages.iter().map(|_| StageLog::default()).collect();
        logs[0].outputs_per_input.reserve(input.len());
        logs[0].alloc_bytes.reserve(input.len());
        let mut out = Vec::with_capacity(input.len());
        let mut lens = Vec::new();
        let mut off = 0usize;
        for &len in &self.part_meta[&base].lens {
            let before = out.len();
            for r in &input[off..off + len] {
                drive_chain(&self.fns, &stages, r, &mut logs, &mut out);
            }
            lens.push(out.len() - before);
            off += len;
        }
        debug_assert_eq!(off, input.len(), "partition metadata out of sync");
        for log in &logs {
            let mut next = 0usize;
            for &n_out in &log.outputs_per_input {
                self.runtime
                    .heap_mut()
                    .mem_mut()
                    .compute(self.config.record_cpu_ns);
                for &bytes in &log.alloc_bytes[next..next + n_out as usize] {
                    self.stream_alloc(size_stand_in(bytes));
                }
                next += n_out as usize;
            }
        }
        self.insert_narrow_meta(rdd, base, lens);
        Rc::new(out)
    }

    /// The maximal chain of fusable narrow transformations ending at
    /// `rdd`, bottom-up, plus the base RDD feeding it. Fusion stops at
    /// wide nodes, unions, sources, anything already materialized or
    /// stored, and anything a checkpoint could serve — those produce
    /// their records through their own paths.
    fn narrow_chain(&self, rdd: RddId) -> (RddId, Vec<Transform>) {
        let mut stages = Vec::new();
        let mut cur = rdd;
        loop {
            let node = &self.rdds[cur.0 as usize];
            if cur != rdd && (self.is_materialized(cur) || self.may_restore_checkpoint(cur)) {
                break;
            }
            match &node.op {
                RddOp::Transformed { transform, parents }
                    if !transform.is_wide() && !matches!(transform, Transform::Union) =>
                {
                    stages.push(transform.clone());
                    cur = parents[0];
                }
                _ => break,
            }
        }
        stages.reverse();
        (cur, stages)
    }

    /// Stage-at-a-time streaming: apply one narrow transformation to
    /// every input record, allocating a short-lived young object per
    /// output record (the streaming behaviour of Section 2). Each input
    /// partition streams separately so its output length is tracked;
    /// transformations are element-wise, so the charge sequence is that
    /// of one pass over the whole input.
    fn stream(
        &mut self,
        rdd: RddId,
        parent: RddId,
        input: &[Payload],
        transform: &Transform,
    ) -> Rc<Vec<Payload>> {
        let mut out = Vec::with_capacity(input.len());
        let mut lens = Vec::new();
        let mut off = 0usize;
        for len in self.part_meta[&parent].lens.clone() {
            let before = out.len();
            for r in &input[off..off + len] {
                self.runtime
                    .heap_mut()
                    .mem_mut()
                    .compute(self.config.record_cpu_ns);
                let first = out.len();
                apply_narrow(&self.fns, transform, r, &mut |p| out.push(p));
                for p in &out[first..] {
                    self.stream_alloc(p.clone());
                }
            }
            lens.push(out.len() - before);
            off += len;
        }
        debug_assert_eq!(off, input.len(), "partition metadata out of sync");
        self.insert_narrow_meta(rdd, parent, lens);
        Rc::new(out)
    }

    /// Record the layout of a narrow output: the input's partitions, with
    /// the output lengths the narrow pass counted.
    fn insert_narrow_meta(&mut self, rdd: RddId, input: RddId, lens: Vec<usize>) {
        let parent = &self.part_meta[&input];
        let meta = PartMeta {
            gids: parent.gids.clone(),
            lens,
            global_parts: parent.global_parts,
        };
        self.part_meta.insert(rdd, meta);
    }

    /// Allocate (and immediately abandon) the young object modelling one
    /// streamed record — or, under region allocation, bump the stage
    /// scratch arena so the record never touches the traced heap.
    fn stream_alloc(&mut self, record: Payload) {
        self.stats.records_streamed += 1;
        if self.config.region_alloc && self.region_heap.stage_open() {
            let bytes = self.runtime.heap().tuple_footprint(record.model_bytes());
            self.region_heap.stage_bump(bytes);
            self.stats.region_stage_bytes += bytes;
            self.charge_device(DeviceKind::Dram, AccessKind::Write, bytes);
        } else {
            self.runtime
                .alloc_record(&self.roots, ObjKind::Tuple, record);
        }
    }

    /// A wide transformation: spill this executor's map-side partitions,
    /// exchange them at the shuffle gather, run the reduce side over the
    /// global buckets (replicated host work, deterministic on every
    /// executor), and keep the output partitions this executor owns.
    fn compute_shuffle(
        &mut self,
        rdd: RddId,
        transform: &Transform,
        parents: &[RddId],
    ) -> Rc<Vec<Payload>> {
        self.stats.shuffles += 1;
        // Joins build and probe per-key hash structures: their input
        // accesses are random, unlike the streaming scans of aggregations.
        // The flag covers only this shuffle's direct input chains — a
        // nested shuffle's own inputs are scanned sequentially again.
        let saved_depth = std::mem::take(&mut self.random_read_depth);
        if matches!(transform, Transform::Join) {
            self.random_read_depth = 1;
        }
        // Map side: compute the local slices of each parent and write the
        // local shuffle files.
        let mut map_side = Vec::with_capacity(parents.len());
        for &parent in parents {
            let records = self.compute(parent);
            self.charge_shuffle(&records);
            map_side.push(records);
        }
        self.random_read_depth = saved_depth;
        let global = self.gather_shuffle(rdd, parents, map_side);
        // The consuming stage starts by reading the shuffle files.
        self.runtime.stage_boundary(&self.roots);
        let buckets: Vec<Buckets> = global
            .iter()
            .map(|records| {
                let mut b = Buckets::new();
                for r in records.iter() {
                    b.add(r.clone());
                }
                b
            })
            .collect();
        let out = reduce_side(transform, &self.fns, &buckets[0], buckets.get(1));
        let (records, meta) = self.own_partitions(Rc::new(out));
        for _ in records.iter() {
            self.runtime
                .heap_mut()
                .mem_mut()
                .compute(self.config.record_cpu_ns);
        }
        self.charge_shuffle(&records);
        // Meta must precede materialization: the checkpoint hook inside
        // `materialize_into_heap` snapshots by global partition id.
        self.note_stage_recomputed(meta.gids.len() as u64);
        self.part_meta.insert(rdd, meta);
        // The ShuffledRDD is materialized immediately — it holds data read
        // freshly from shuffle files (Section 2). It dies with the current
        // evaluation unless this node is itself a heap-persisted RDD, in
        // which case the shuffle output *is* the persisted materialization.
        self.materialize_into_heap(rdd, &records, !self.persists_in_heap(rdd));
        records
    }

    /// Whether `rdd` is persisted into the traced heap (not the off-heap
    /// region or a region arena): its shuffle output or checkpoint
    /// restore is then its long-lived materialization.
    fn persists_in_heap(&self, rdd: RddId) -> bool {
        !self.config.offheap_cache
            && !self.config.region_alloc
            && matches!(self.rdds[rdd.0 as usize].persisted, Some(l) if l.uses_heap())
    }

    fn read_materialized(&mut self, rdd: RddId) -> Rc<Vec<Payload>> {
        let mat = self.rdds[rdd.0 as usize]
            .materialized
            .clone()
            .expect("read_materialized on unmaterialized RDD");
        if mat.serialized {
            // Scan the byte buffers, then deserialize record by record —
            // each deserialized record is a fresh young object.
            for array in &mat.arrays {
                self.runtime.heap_mut().read_object_streaming(*array);
            }
            let records = self.ser_store.get(&rdd).map(Rc::clone).unwrap_or_default();
            self.runtime
                .heap_mut()
                .mem_mut()
                .compute(self.config.costs.serde_ns(records.len() as u64));
            for r in records.iter() {
                self.stream_alloc(r.clone());
            }
            return records;
        }
        let random = self.random_read_depth > 0;
        let mut out = Vec::with_capacity(mat.len);
        for array in mat.arrays {
            debug_assert!(
                matches!(
                    self.runtime.heap().obj(array).kind,
                    mheap::ObjKind::RddArray { rdd_id } if rdd_id == rdd.0
                ),
                "stale MatData: {rdd} holds someone else's array"
            );
            self.runtime.heap_mut().read_object_streaming(array);
            let tuples = self.runtime.heap().obj(array).refs.clone();
            for t in tuples {
                if random {
                    self.runtime.heap_mut().read_object(t);
                } else {
                    self.runtime.heap_mut().read_object_streaming(t);
                }
                // Shallow: the payload's contents stay shared with the
                // heap object.
                out.push(self.runtime.heap().obj(t).payload.clone());
            }
        }
        Rc::new(out)
    }

    // ------------------------------------------------------------------
    // Cost charging and closure lookup
    // ------------------------------------------------------------------

    fn charge_disk(&mut self, records: &[Payload]) {
        let bytes = model_bytes(records);
        self.runtime
            .heap_mut()
            .mem_mut()
            .compute(self.config.costs.disk_ns(bytes));
    }

    fn charge_shuffle(&mut self, records: &[Payload]) {
        let bytes = model_bytes(records);
        self.stats.shuffle_bytes += bytes;
        self.emit(obs::Event::ShuffleSpill { bytes });
        self.runtime
            .heap_mut()
            .mem_mut()
            .compute(self.config.costs.disk_ns(bytes));
    }

    /// Charge one mutator access of `bytes` on `device`.
    fn charge_device(&mut self, device: DeviceKind, kind: AccessKind, bytes: u64) {
        self.runtime.heap_mut().mem_mut().access_device(
            device,
            kind,
            bytes,
            AccessProfile::mutator(),
        );
    }

    fn charge_native(&mut self, records: &[Payload], kind: AccessKind) {
        let bytes = model_bytes(records);
        self.charge_device(DeviceKind::Nvm, kind, bytes);
    }

    // ------------------------------------------------------------------
    // Off-heap H2 region ([`EngineConfig::offheap_cache`])
    // ------------------------------------------------------------------

    /// Simulated-byte accounting of the off-heap region (tests assert its
    /// invariants and end-of-run emptiness).
    pub fn offheap_region(&self) -> &OffHeapRegion {
        &self.offheap_region
    }

    /// Simulated-byte accounting of the lifetime-based region arenas
    /// (tests assert its invariants and end-of-run emptiness).
    pub fn region_heap(&self) -> &RegionHeap {
        &self.region_heap
    }

    /// Which device an off-heap block for `rdd` lives on: the analysis
    /// tag decides, exactly as it does for heap placement — DRAM-tagged
    /// RDDs go to DRAM, everything else to NVM.
    fn offheap_device(&self, rdd: RddId) -> DeviceKind {
        match self.rdds[rdd.0 as usize].tag {
            Some(sparklang::ast::MemoryTag::Dram) => DeviceKind::Dram,
            _ => DeviceKind::Nvm,
        }
    }

    /// Persist `records` into the off-heap region: copy them there at the
    /// tagged device's bandwidth, register the block under its planned
    /// refcount, and make the RDD off-heap-materialized. The GC never
    /// sees the block — no heap objects, no roots, no cards — and the
    /// records are never serialized.
    fn persist_offheap(&mut self, rdd: RddId, records: Rc<Vec<Payload>>) {
        let bytes = model_bytes(&records);
        let device = self.offheap_device(rdd);
        let step = self.lifetime_cur;
        let block = self
            .lifetime
            .as_ref()
            .and_then(|p| p.ops(step))
            .and_then(|o| o.block)
            .unwrap_or_else(|| {
                panic!("off-heap persist of {rdd} at step {step} has no planned block")
            });
        assert_eq!(
            block.id as usize,
            self.plan_blocks.len(),
            "off-heap block order diverged from the lifetime plan"
        );
        self.plan_blocks.push(rdd);
        self.offheap_region
            .alloc(rdd.0, bytes, device, block.retain);
        self.charge_device(device, AccessKind::Write, bytes);
        self.stats.offheap_allocs += 1;
        self.stats.offheap_bytes += bytes;
        self.emit(obs::Event::OffHeapAlloc { rdd: rdd.0, bytes });
        // A wide node reaches here already carrying its shuffle's
        // transient materialization, which ran both hooks; only a
        // never-materialized (narrow) target still needs them.
        if self.rdds[rdd.0 as usize].materialized.is_none() {
            self.note_live_partitions(rdd);
            self.maybe_checkpoint(rdd, &records);
        }
        self.offheap_store.insert(rdd, records);
    }

    /// Persist `records` into a refcounted RDD-lifetime arena: one bump
    /// allocation on the tagged device, registered under the lifetime
    /// plan's refcount and region class, freed wholesale when the count
    /// reaches zero. Like the off-heap region, the GC never sees the
    /// arena — no heap objects, no roots, no cards — and the records are
    /// never serialized. If the plan abstains (no block for this step),
    /// fall back to the traced heap.
    fn persist_region(&mut self, rdd: RddId, records: Rc<Vec<Payload>>) {
        let step = self.lifetime_cur;
        let Some(block) = self
            .lifetime
            .as_ref()
            .and_then(|p| p.ops(step))
            .and_then(|o| o.block)
        else {
            // Plan abstained: undo any stage-transient routing of this
            // node's shuffle output and take the ordinary heap path.
            self.region_transients.retain(|r| *r != rdd);
            self.region_store.remove(&rdd);
            if !self.is_materialized(rdd) {
                self.materialize_into_heap(rdd, &records, false);
            }
            self.persist_order.push(rdd);
            return;
        };
        let bytes = model_bytes(&records);
        let device = self.offheap_device(rdd);
        assert_eq!(
            block.id as usize,
            self.plan_blocks.len(),
            "region block order diverged from the lifetime plan"
        );
        self.plan_blocks.push(rdd);
        self.region_heap
            .alloc_block(rdd.0, bytes, device, block.class, block.retain);
        self.charge_device(device, AccessKind::Write, bytes);
        self.stats.region_allocs += 1;
        self.stats.region_bytes += bytes;
        self.emit(obs::Event::RegionAlloc { rdd: rdd.0, bytes });
        // A wide node reaches here as a stage transient that already ran
        // both hooks; drop its transient marking so the stage close keeps
        // the store entry. A never-materialized (narrow) target still
        // needs the hooks.
        let was_transient = self.region_transients.contains(&rdd);
        if was_transient {
            self.region_transients.retain(|r| *r != rdd);
        } else if self.rdds[rdd.0 as usize].materialized.is_none()
            && !self.region_store.contains_key(&rdd)
        {
            self.note_live_partitions(rdd);
            self.maybe_checkpoint(rdd, &records);
        }
        self.region_store.insert(rdd, records);
    }

    /// Route a transient materialization into the stage scratch arena:
    /// the records bump the arena (charged as one DRAM copy), the store
    /// keeps them readable for the rest of the evaluation, and the whole
    /// arena dies at stage close — no heap objects, no roots, no cards.
    fn materialize_region_transient(&mut self, rdd: RddId, records: &[Payload]) {
        self.fault_probe_materialize(records);
        let bytes: u64 = records
            .iter()
            .map(|r| self.runtime.heap().tuple_footprint(r.model_bytes()))
            .sum();
        self.region_heap.stage_bump(bytes);
        self.stats.region_stage_bytes += bytes;
        self.charge_device(DeviceKind::Dram, AccessKind::Write, bytes);
        self.region_store.insert(rdd, Rc::new(records.to_vec()));
        self.region_transients.push(rdd);
        self.stats.materializations += 1;
        self.note_live_partitions(rdd);
        self.maybe_checkpoint(rdd, records);
    }

    /// Apply the lifetime schedule's operations for dynamic statement
    /// `step`: decrement each consumed block once (freeing at zero) and
    /// force-free blocks born lineage-dead at this statement. Blocks live
    /// in the off-heap region when `offheap_cache` is set (it wins when
    /// both are on), else in the region heap's RDD-lifetime arenas.
    fn apply_lifetime_ops(&mut self, step: usize) {
        let Some(plan) = &self.lifetime else {
            return;
        };
        let Some(ops) = plan.ops(step) else {
            return;
        };
        if ops.releases.is_empty() && ops.frees.is_empty() {
            return;
        }
        let releases = ops.releases.clone();
        let frees = ops.frees.clone();
        let offheap = self.config.offheap_cache;
        for b in releases {
            let rdd = self.plan_blocks[b as usize];
            if offheap {
                if let Some(freed) = self.offheap_region.release(rdd.0) {
                    self.note_offheap_free(rdd.0, freed.bytes);
                }
            } else if let Some(freed) = self.region_heap.release(rdd.0) {
                self.note_region_free(rdd.0, freed.bytes);
            }
        }
        for b in frees {
            let rdd = self.plan_blocks[b as usize];
            if offheap {
                let freed = self.offheap_region.free(rdd.0);
                self.note_offheap_free(rdd.0, freed.bytes);
            } else {
                let freed = self.region_heap.free(rdd.0);
                self.note_region_free(rdd.0, freed.bytes);
            }
        }
    }

    /// Count one off-heap block free and emit its observation.
    fn note_offheap_free(&mut self, rdd: u32, bytes: u64) {
        self.stats.offheap_frees += 1;
        self.emit(obs::Event::OffHeapFree { rdd, bytes });
    }

    /// Count one RDD-lifetime arena free and emit its observation.
    fn note_region_free(&mut self, rdd: u32, bytes: u64) {
        self.stats.region_frees += 1;
        self.emit(obs::Event::RegionFree { rdd, bytes });
    }

    fn apply_reduce(&mut self, f: FuncId, a: &Payload, b: &Payload) -> Payload {
        self.runtime
            .heap_mut()
            .mem_mut()
            .compute(self.config.record_cpu_ns);
        match self.fns.get(f) {
            UserFn::Reduce(f) => f(a, b),
            other => panic!("expected a reduce function, got {other:?}"),
        }
    }
}

/// The deferred simulated-cost log of one fused narrow stage, compact
/// enough to build on the hot path: entry `i` of `outputs_per_input` is
/// how many records input `i` produced, and `alloc_bytes` holds every
/// output's `model_bytes` in production order. Replaying charges, per
/// input: one CPU tick, then one young allocation per output — the exact
/// sequence the stage-at-a-time engine issues.
#[derive(Debug, Default)]
struct StageLog {
    outputs_per_input: Vec<u32>,
    alloc_bytes: Vec<u64>,
}

/// Total modelled bytes of `records`.
fn model_bytes(records: &[Payload]) -> u64 {
    records.iter().map(Payload::model_bytes).sum()
}

/// A payload with exactly the given modelled size, standing in for a
/// streamed temporary whose young object is never read back — only its
/// size matters to the allocator, the GC, and the access model.
fn size_stand_in(model_bytes: u64) -> Payload {
    match model_bytes {
        0 => Payload::Unit,
        8 => Payload::Long(0),
        m => {
            debug_assert!(m >= 16, "composite payloads model at least 16 bytes");
            Payload::Bytes { len: m - 16 }
        }
    }
}

/// Push one record depth-first through the chain's remaining stages,
/// logging each stage's charge events in the order the stage-at-a-time
/// engine would issue them and collecting the chain's final outputs into
/// `out`. `stages` and `logs` both start at the current stage (the caller
/// passes the full chain; recursion passes the tail).
fn drive_chain(
    fns: &FnTable,
    stages: &[Transform],
    r: &Payload,
    logs: &mut [StageLog],
    out: &mut Vec<Payload>,
) {
    let (transform, deeper_stages) = stages.split_first().expect("non-empty chain");
    // Split the log slice so the closure can log this stage while the
    // recursion logs the deeper ones.
    let (log_k, deeper_logs) = logs.split_first_mut().expect("one log per stage");
    let mut n_out: u32 = 0;
    let mut sink = |p: Payload| {
        n_out += 1;
        log_k.alloc_bytes.push(p.model_bytes());
        if deeper_stages.is_empty() {
            out.push(p);
        } else {
            drive_chain(fns, deeper_stages, &p, deeper_logs, out);
        }
    };
    apply_narrow(fns, transform, r, &mut sink);
    log_k.outputs_per_input.push(n_out);
}

/// Record-level semantics of the narrow transformations: feed every output
/// record for input `r` to `sink`, in order. Sink style keeps the hot path
/// free of a per-record `Vec` allocation (map/filter produce at most one
/// output).
fn apply_narrow(fns: &FnTable, transform: &Transform, r: &Payload, sink: &mut dyn FnMut(Payload)) {
    match transform {
        Transform::Map(f) => match fns.get(*f) {
            UserFn::Map(f) => sink(f(r)),
            other => panic!("map expects a map function, got {other:?}"),
        },
        Transform::MapValues(f) => match fns.get(*f) {
            UserFn::Map(f) => match r.as_pair() {
                Some((k, v)) => sink(Payload::pair(k.clone(), f(v))),
                None => sink(f(r)),
            },
            other => panic!("mapValues expects a map function, got {other:?}"),
        },
        Transform::FlatMap(f) => match fns.get(*f) {
            UserFn::FlatMap(f) => {
                for p in f(r) {
                    sink(p);
                }
            }
            UserFn::Map(f) => sink(f(r)),
            other => panic!("flatMap expects a flatMap function, got {other:?}"),
        },
        Transform::Filter(f) => match fns.get(*f) {
            UserFn::Filter(f) => {
                if f(r) {
                    sink(r.clone());
                }
            }
            other => panic!("filter expects a filter function, got {other:?}"),
        },
        Transform::Values => match r.as_pair() {
            Some((_, v)) => sink(v.clone()),
            None => sink(r.clone()),
        },
        Transform::Keys => match r.as_pair() {
            Some((k, _)) => sink(k.clone()),
            None => sink(r.clone()),
        },
        Transform::Sample { fraction, seed } => {
            // Deterministic Bernoulli: hash the record with the seed.
            let h = r.fingerprint() ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < *fraction {
                sink(r.clone());
            }
        }
        wide => panic!("{} is not narrow", wide.name()),
    }
}

/// Split `n` records into `parts` chunk lengths (the last may be short).
/// This is the engine's canonical partitioning rule: materialized heap
/// layouts, cluster source placement, and shuffle-output placement all
/// chunk with it, so tests can predict partition boundaries.
pub fn partition_sizes(n: usize, parts: usize) -> Vec<usize> {
    if n == 0 {
        return vec![0];
    }
    let per = n.div_ceil(parts).max(1);
    let mut out = Vec::new();
    let mut left = n;
    while left > 0 {
        let take = left.min(per);
        out.push(take);
        left -= take;
    }
    out
}
