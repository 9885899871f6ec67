//! The statement schedule and the resumable stage cursor.
//!
//! Every run steps one flattened schedule: loops unrolled by their static
//! trip counts, one statement per step. [`Engine::run`] steps it to the
//! end in one call. A multi-tenant scheduler needs to pause a job at each
//! stage barrier and hand the executor pool to somebody else, so
//! [`StageCursor`] owns the engine and the schedule and executes exactly
//! one statement per [`StageCursor::step`] call.
//!
//! Because both step the same [`Schedule`], the cursor is *bit-identical*
//! to [`Engine::run`]: every simulated clock tick, heap event, and
//! lifetime-schedule application happens exactly as it would in a
//! one-shot run. `cursor_matches_run` in the engine tests pins that.

use crate::engine::{ActionResult, Engine, RunOutcome};
use crate::runtime::MemoryRuntime;
use panthera_analysis::InstrumentationPlan;
use sparklang::ast::{Program, Stmt, StmtId};

/// What a flattened step does when executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// A non-loop statement: prologue, execute, epilogue.
    Simple,
    /// Entry of a `Loop` statement: runs the loop's own per-statement
    /// prologue once, before the first unrolled iteration.
    LoopEnter,
    /// Exit of a `Loop` statement: runs the loop's per-statement epilogue
    /// once, after the last unrolled iteration.
    LoopExit,
}

/// One entry of the flattened schedule.
#[derive(Debug, Clone)]
struct CursorStep {
    /// Child indices from the program root down to the statement; each
    /// non-final component descends into a `Loop` body.
    path: Vec<u16>,
    /// The pre-order [`StmtId`] of the statement (ids repeat across
    /// unrolled loop iterations: each iteration is re-numbered from the
    /// loop's base, which is what the analysis plan's sites are keyed on).
    id: u32,
    kind: StepKind,
}

/// Flatten a block into the step schedule with pre-order statement
/// numbering: each statement claims one id, a loop body is re-numbered
/// from the same base every iteration, and the loop advances the counter
/// past one body's worth of ids when it closes.
fn flatten(stmts: &[Stmt], path: &mut Vec<u16>, next: &mut u32, out: &mut Vec<CursorStep>) {
    for (i, s) in stmts.iter().enumerate() {
        let id = *next;
        *next += 1;
        path.push(i as u16);
        match s {
            Stmt::Loop { n, body } => {
                let body_count = count_stmts(body);
                out.push(CursorStep {
                    path: path.clone(),
                    id,
                    kind: StepKind::LoopEnter,
                });
                for _ in 0..*n {
                    let mut inner = *next;
                    flatten(body, path, &mut inner, out);
                }
                *next += body_count;
                out.push(CursorStep {
                    path: path.clone(),
                    id,
                    kind: StepKind::LoopExit,
                });
            }
            _ => out.push(CursorStep {
                path: path.clone(),
                id,
                kind: StepKind::Simple,
            }),
        }
        path.pop();
    }
}

/// Statements in a block, counted the way the pre-order numbering does.
fn count_stmts(stmts: &[Stmt]) -> u32 {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Loop { body, .. } => 1 + count_stmts(body),
            _ => 1,
        })
        .sum()
}

/// Walk a path back to its statement.
fn resolve<'p>(stmts: &'p [Stmt], path: &[u16]) -> &'p Stmt {
    let s = &stmts[path[0] as usize];
    if path.len() == 1 {
        return s;
    }
    match s {
        Stmt::Loop { body, .. } => resolve(body, &path[1..]),
        _ => unreachable!("cursor path descends through a non-loop statement"),
    }
}

/// A program's flattened statement schedule plus the interpreter state
/// of stepping through it: the position, the open loops, and the action
/// results so far.
#[derive(Debug)]
pub(crate) struct Schedule {
    steps: Vec<CursorStep>,
    pos: usize,
    /// Lifetime steps claimed by the prologues of still-open loops,
    /// innermost last; popped by the matching `LoopExit`.
    loop_frames: Vec<usize>,
    results: Vec<(String, ActionResult)>,
}

impl Schedule {
    /// The schedule of `program`, positioned before its first statement.
    pub(crate) fn new(program: &Program) -> Self {
        let mut steps = Vec::new();
        flatten(&program.stmts, &mut Vec::new(), &mut 0, &mut steps);
        Schedule {
            steps,
            pos: 0,
            loop_frames: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Execute the next statement on `engine`. Returns `false` if the
    /// schedule was already exhausted (and nothing ran).
    pub(crate) fn step<R: MemoryRuntime>(
        &mut self,
        engine: &mut Engine<R>,
        program: &Program,
        plan: &InstrumentationPlan,
    ) -> bool {
        let Some(cs) = self.steps.get(self.pos) else {
            return false;
        };
        self.pos += 1;
        match cs.kind {
            StepKind::LoopEnter => {
                let step = engine.stmt_prologue();
                self.loop_frames.push(step);
            }
            StepKind::LoopExit => {
                let step = self
                    .loop_frames
                    .pop()
                    .expect("LoopExit without a matching LoopEnter");
                engine.stmt_epilogue(step);
            }
            StepKind::Simple => {
                let stmt = resolve(&program.stmts, &cs.path);
                let step = engine.stmt_prologue();
                engine.exec_simple(program, stmt, StmtId(cs.id), plan, &mut self.results);
                engine.stmt_epilogue(step);
            }
        }
        true
    }

    /// Steps still to run.
    fn remaining(&self) -> usize {
        self.steps.len() - self.pos
    }

    /// The action results, in execution order.
    pub(crate) fn into_results(self) -> Vec<(String, ActionResult)> {
        self.results
    }
}

/// A paused, resumable run: owns the engine and the program and executes
/// one statement-stage per [`StageCursor::step`] call.
///
/// Statement boundaries are exactly the engine's stage barriers (the
/// epilogue's `cluster_barrier`), so pausing here never splits a shuffle,
/// a collective, or a journaled deposit — the preemption-safety argument
/// of DESIGN.md §13 rests on this.
#[derive(Debug)]
pub struct StageCursor<R: MemoryRuntime> {
    engine: Engine<R>,
    program: Program,
    plan: InstrumentationPlan,
    schedule: Schedule,
}

impl<R: MemoryRuntime> StageCursor<R> {
    /// Begin a resumable run of `program` on `engine`.
    ///
    /// Performs the same start-of-run setup as [`Engine::run`] (program
    /// validation, variable table, lifetime schedule) and builds the same
    /// flattened schedule. Panics on an ill-formed program, like
    /// [`Engine::run`] does.
    pub fn new(mut engine: Engine<R>, program: Program, plan: InstrumentationPlan) -> Self {
        engine.begin_run(&program);
        let schedule = Schedule::new(&program);
        StageCursor {
            engine,
            program,
            plan,
            schedule,
        }
    }

    /// Total statement-stages in the flattened schedule.
    pub fn total_stages(&self) -> usize {
        self.schedule.steps.len()
    }

    /// Stages still to run.
    pub fn remaining(&self) -> usize {
        self.schedule.remaining()
    }

    /// Whether every stage has executed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// The engine's simulated clock, in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.engine.runtime().heap().mem().clock().now_ns()
    }

    /// Read access to the engine between stages.
    pub fn engine(&self) -> &Engine<R> {
        &self.engine
    }

    /// Mutable engine access between stages, for drivers that act at
    /// stage barriers (the streaming driver re-tags and forces
    /// collections here). Statement boundaries are safe points: no
    /// evaluation is in flight.
    pub fn engine_mut(&mut self) -> &mut Engine<R> {
        &mut self.engine
    }

    /// Mutable access to the instrumentation plan between stages, so an
    /// online policy can override the static tags of sites that have not
    /// executed yet. Sites already executed are unaffected (their tags
    /// were consumed at execution).
    pub fn plan_mut(&mut self) -> &mut InstrumentationPlan {
        &mut self.plan
    }

    /// Execute the next statement-stage. Returns `false` if the schedule
    /// was already exhausted (and nothing ran).
    pub fn step(&mut self) -> bool {
        self.schedule
            .step(&mut self.engine, &self.program, &self.plan)
    }

    /// Finish the run: performs the same end-of-run sweeps as
    /// [`Engine::run`] and returns the engine plus the [`RunOutcome`].
    ///
    /// Panics if stages remain — drive [`StageCursor::step`] to
    /// completion first.
    pub fn finish(mut self) -> (Engine<R>, RunOutcome) {
        assert!(
            self.is_done(),
            "StageCursor::finish with {} stages remaining",
            self.remaining()
        );
        self.engine.finish_run();
        let stats = *self.engine.stats();
        (
            self.engine,
            RunOutcome {
                results: self.schedule.into_results(),
                stats,
            },
        )
    }
}
