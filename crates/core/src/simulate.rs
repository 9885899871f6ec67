//! The end-to-end simulation driver: analyze, run, report.
//!
//! [`crate::RunBuilder`] is the supported entry point; [`SingleCursor`]
//! exposes the same single-runtime path paused at every stage barrier for
//! external schedulers (the job service, the streaming driver).

use crate::config::{ConfigError, SystemConfig};
use crate::report::RunReport;
use crate::runtime::PantheraRuntime;
use panthera_analysis::{analyze, InstrumentationPlan};
use sparklang::{FnTable, Program};
use sparklet::{
    DataRegistry, Engine, EngineConfig, ExecStats, MemoryRuntime, RunOutcome, StageCursor,
};

/// The setup every driver shares (single runtime, stage cursor, cluster):
/// check the configuration, then the program, and take the data-movement
/// costs, shuffle transport, and region/off-heap stores from the system
/// config, which is their single source of truth.
///
/// # Errors
///
/// The first violated configuration constraint, or an ill-formed program.
pub(crate) fn engine_setup(
    program: &Program,
    config: &SystemConfig,
    mut engine_config: EngineConfig,
) -> Result<EngineConfig, ConfigError> {
    config.validate()?;
    sparklang::validate(program)
        .map_err(|e| ConfigError::new(format!("ill-formed program {:?}: {e}", program.name)))?;
    engine_config.costs = config.costs;
    engine_config.transport = config.transport;
    engine_config.offheap_cache = config.offheap_cache;
    engine_config.region_alloc = config.region_alloc;
    Ok(engine_config)
}

/// The instrumentation plan `config`'s memory mode runs under: the
/// Section 3 analysis for the semantic modes, none for the baselines.
pub(crate) fn instrumentation(program: &Program, config: &SystemConfig) -> InstrumentationPlan {
    if config.mode.is_semantic() {
        analyze(program).plan
    } else {
        InstrumentationPlan::default()
    }
}

/// The [`RunReport`] of a finished engine.
pub(crate) fn collect_report(
    workload: &str,
    mode_label: &str,
    engine: &Engine<PantheraRuntime>,
    stats: ExecStats,
) -> RunReport {
    let runtime = engine.runtime();
    RunReport::collect(
        workload,
        mode_label,
        runtime.heap(),
        runtime.gc(),
        stats,
        runtime.monitored_calls(),
    )
}

/// The single-runtime driver behind [`crate::RunBuilder`]: validate,
/// analyze, run, report.
pub(crate) fn run_single(
    program: &Program,
    fns: FnTable,
    data: DataRegistry,
    config: &SystemConfig,
    engine_config: EngineConfig,
) -> Result<(RunReport, RunOutcome), ConfigError> {
    let engine_config = engine_setup(program, config, engine_config)?;
    if config.executors > 1 {
        return Err(ConfigError::new(format!(
            "config asks for {} executors; the single-runtime entry points run exactly one — \
             drive multi-executor runs through RunBuilder::from_build",
            config.executors
        )));
    }
    let plan = instrumentation(program, config);
    let runtime = PantheraRuntime::new(config).map_err(ConfigError::new)?;
    let mut engine = Engine::with_config(runtime, fns, data, engine_config);
    let outcome = engine.run(program, &plan);
    let report = collect_report(&program.name, config.mode.label(), &engine, outcome.stats);
    Ok((report, outcome))
}

/// A paused single-runtime run: the exact validate/analyze/build setup
/// of the [`crate::RunBuilder`] single-runtime path, wrapped around a
/// resumable [`StageCursor`] so an external scheduler (the
/// `panthera-jobs` service) can interleave this run's statement-stages
/// with other jobs'.
///
/// Driving a `SingleCursor` to completion produces the same
/// [`RunReport`] and action results, bit for bit, as
/// `RunBuilder::new(..).config(..).run()` — the setup code is shared, the
/// cursor replays the engine's own statement loop, and nothing about
/// *when* stages run (in host time) touches the simulated clock.
pub struct SingleCursor {
    cursor: StageCursor<PantheraRuntime>,
    workload: String,
    mode_label: &'static str,
}

impl SingleCursor {
    /// Validate `config` and `program`, build the runtime and engine
    /// exactly as the one-shot single-runtime path does, and pause before
    /// the first statement-stage.
    ///
    /// # Errors
    ///
    /// The first violated configuration constraint, or an ill-formed
    /// program; asking for more than one executor is a constraint
    /// violation here just as it is in [`run_single`].
    pub fn start(
        program: Program,
        fns: FnTable,
        data: DataRegistry,
        config: &SystemConfig,
        engine_config: EngineConfig,
    ) -> Result<SingleCursor, ConfigError> {
        let engine_config = engine_setup(&program, config, engine_config)?;
        let plan = instrumentation(&program, config);
        Self::launch(program, fns, data, config, engine_config, plan)
    }

    /// [`SingleCursor::start`] with an explicit instrumentation plan
    /// instead of the freshly analyzed one — the hook a re-tagging policy
    /// uses to treat the static tags as priors and override them (e.g.
    /// the oracle pre-tags every site from a prior observation pass)
    /// before the run begins.
    ///
    /// # Errors
    ///
    /// Same constraints as [`SingleCursor::start`].
    pub fn start_with_plan(
        program: Program,
        fns: FnTable,
        data: DataRegistry,
        config: &SystemConfig,
        engine_config: EngineConfig,
        plan: InstrumentationPlan,
    ) -> Result<SingleCursor, ConfigError> {
        let engine_config = engine_setup(&program, config, engine_config)?;
        Self::launch(program, fns, data, config, engine_config, plan)
    }

    /// Build the runtime and engine from a checked setup and pause before
    /// the first statement-stage.
    fn launch(
        program: Program,
        fns: FnTable,
        data: DataRegistry,
        config: &SystemConfig,
        engine_config: EngineConfig,
        plan: InstrumentationPlan,
    ) -> Result<SingleCursor, ConfigError> {
        if config.executors > 1 {
            return Err(ConfigError::new(format!(
                "config asks for {} executors; a stage cursor drives exactly one — \
                 the job service runs multi-executor jobs atomically instead",
                config.executors
            )));
        }
        let runtime = PantheraRuntime::new(config).map_err(ConfigError::new)?;
        let engine = Engine::with_config(runtime, fns, data, engine_config);
        let workload = program.name.clone();
        Ok(SingleCursor {
            cursor: StageCursor::new(engine, program, plan),
            workload,
            mode_label: config.mode.label(),
        })
    }

    /// Execute the next statement-stage; `false` once the schedule is
    /// exhausted.
    pub fn step(&mut self) -> bool {
        self.cursor.step()
    }

    /// Whether every stage has executed.
    pub fn is_done(&self) -> bool {
        self.cursor.is_done()
    }

    /// Stages still to run.
    pub fn remaining(&self) -> usize {
        self.cursor.remaining()
    }

    /// Total statement-stages in the schedule.
    pub fn total_stages(&self) -> usize {
        self.cursor.total_stages()
    }

    /// The job's simulated clock, in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.cursor.now_ns()
    }

    /// The paused runtime, for reading heap, GC, and frequency state at a
    /// stage barrier.
    pub fn runtime(&self) -> &PantheraRuntime {
        self.cursor.engine().runtime()
    }

    /// Mutable runtime access at a stage barrier — how an online policy
    /// pins per-RDD tag overrides on the collector between batches.
    pub fn runtime_mut(&mut self) -> &mut PantheraRuntime {
        self.cursor.engine_mut().runtime_mut()
    }

    /// The runtime RDD graph built so far (RDD ids ↔ variable labels).
    pub fn rdds(&self) -> &[sparklet::RddNode] {
        self.cursor.engine().rdds()
    }

    /// Mutable access to the instrumentation plan, to override static
    /// tags of sites that have not executed yet.
    pub fn plan_mut(&mut self) -> &mut InstrumentationPlan {
        self.cursor.plan_mut()
    }

    /// Force a full collection with the engine's current roots, applying
    /// any pinned tag overrides via the dynamic re-assessment.
    pub fn force_major(&mut self) {
        self.cursor.engine_mut().force_major();
    }

    /// Finish the run (end-of-run sweeps) and collect the report, exactly
    /// as the one-shot path does.
    ///
    /// # Panics
    ///
    /// Panics if stages remain.
    pub fn finish(self) -> (RunReport, RunOutcome) {
        let (engine, outcome) = self.cursor.finish();
        let report = collect_report(&self.workload, self.mode_label, &engine, outcome.stats);
        (report, outcome)
    }
}
