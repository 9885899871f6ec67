//! Host-time spans stamped from outside the simulator.
//!
//! The simulator emits structured events stamped in *simulated* time.
//! [`Tap`] is an `obs::EventSink` that stamps each event again with
//! `Instant::now()`, and [`Recorder`] pairs the stamps into spans:
//!
//! - `run` — the timed entry-point call (the root of every run);
//! - `jobs.slice` — a job-service slice, from `JobStarted` (or the job's
//!   first stage after a `JobPreempted`) to `JobPreempted`/`JobFinished`;
//! - `engine.stage` — `StageStart` to `StageEnd` (one top-level
//!   evaluation: a persist or an action);
//! - `gc.minor` / `gc.major` — collector start to end events.
//!
//! Spans of one run share a run id and are kept in memory until the
//! benchmark ends. A span's self time is its duration minus the part of
//! that interval its child spans cover.

use obs::{Event, EventSink};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// The span of the timed call itself.
pub const RUN: &str = "run";
/// One job-service slice.
pub const SLICE: &str = "jobs.slice";
/// One top-level engine evaluation.
pub const STAGE: &str = "engine.stage";
/// One minor collection.
pub const MINOR: &str = "gc.minor";
/// One major collection.
pub const MAJOR: &str = "gc.major";

/// One recorded host-time interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (one of the constants above).
    pub name: &'static str,
    /// Host seconds since the recorder was created.
    pub start_s: f64,
    /// Host seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the enclosing span, `None` only for a run's root.
    pub parent: Option<usize>,
    /// Run id shared by every span of one timed call.
    pub run: u32,
}

impl Span {
    /// Host seconds the span lasted.
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: impl IntoIterator<Item = (f64, f64)>, lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let covered = union_len(
                kids.iter().map(|&c| (spans[c].start_s, spans[c].end_s)),
                s.start_s,
                s.end_s,
            );
            s.dur() - covered
        })
        .collect()
}

/// Share of span `root`'s interval covered by the other spans of its run.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let r = &spans[root];
    if r.dur() <= 0.0 {
        return 0.0;
    }
    let others = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| *i != root && s.run == r.run)
        .map(|(_, s)| (s.start_s, s.end_s));
    union_len(others, r.start_s, r.end_s) / r.dur()
}

/// What one traced run's spans and events add up to.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Host seconds of the root span.
    pub host_s: f64,
    /// Events delivered to the recorder during the run.
    pub events: u64,
    /// `AllocFail` events.
    pub alloc_fails: u64,
    /// Σ `moved` over `MinorGcEnd`.
    pub minor_moved: u64,
    /// Σ `freed` over `MinorGcEnd`.
    pub minor_freed: u64,
    /// Σ `bytes` over `Migration`.
    pub migrated_bytes: u64,
    /// Host seconds of every stage span, in emission order.
    pub stage_s: Vec<f64>,
    /// Host seconds of every slice span.
    pub slice_s: Vec<f64>,
    /// Σ self time per layer name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Share of the root covered by stage, slice and collector spans.
    pub coverage: f64,
    /// Root time not covered by any stage span.
    pub outside_stages_s: f64,
}

impl RunTrace {
    /// Σ self time of `layer` (0 when the layer has no spans).
    pub fn self_of(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }
}

/// Summarize the spans of the run rooted at `root` (all spans from
/// `root` onwards belong to it).
pub fn summarize(spans: &[Span], root: usize) -> RunTrace {
    let run: Vec<Span> = spans[root..]
        .iter()
        .map(|s| Span {
            parent: s.parent.map(|p| p - root),
            ..s.clone()
        })
        .collect();
    let selfs = self_times(&run);
    let mut t = RunTrace {
        host_s: run[0].dur(),
        coverage: coverage(&run, 0),
        ..RunTrace::default()
    };
    for (s, self_s) in run.iter().zip(selfs) {
        *t.self_s.entry(s.name).or_insert(0.0) += self_s;
        match s.name {
            STAGE => t.stage_s.push(s.dur()),
            SLICE => t.slice_s.push(s.dur()),
            _ => {}
        }
    }
    let stages = run
        .iter()
        .filter(|s| s.name == STAGE)
        .map(|s| (s.start_s, s.end_s));
    t.outside_stages_s = t.host_s - union_len(stages, run[0].start_s, run[0].end_s);
    t
}

/// Per-run event counters, reset at every [`Recorder::begin_run`].
#[derive(Debug, Clone, Default)]
struct Counts {
    events: u64,
    alloc_fails: u64,
    minor_moved: u64,
    minor_freed: u64,
    migrated_bytes: u64,
}

/// Turns host-stamped events into spans. Shared by every [`Tap`] of a run.
pub struct Recorder {
    epoch: Instant,
    /// Build spans from the stamps; off for the cluster path, whose
    /// events are buffered per executor and re-emitted after the join,
    /// so their host stamps say nothing about when the work ran.
    spans_on: bool,
    spans: Vec<Span>,
    run: u32,
    root: Option<usize>,
    /// Open stage/collector spans per job (`None`: a single runtime).
    open: BTreeMap<Option<u32>, Vec<usize>>,
    /// Open slice per job.
    slices: BTreeMap<u32, usize>,
    /// Jobs preempted and not yet resumed.
    preempted: BTreeSet<u32>,
    counts: Counts,
}

impl Recorder {
    /// An empty recorder; `spans_on` as described on the field.
    pub fn new(spans_on: bool) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans_on,
            spans: Vec::new(),
            run: 0,
            root: None,
            open: BTreeMap::new(),
            slices: BTreeMap::new(),
            preempted: BTreeSet::new(),
            counts: Counts::default(),
        }))
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open_span(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_s: t,
            end_s: t,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    fn close_span(&mut self, idx: usize) {
        self.spans[idx].end_s = self.now();
    }

    /// Start the root span of a new run, right before the timed call.
    pub fn begin_run(&mut self) {
        self.run += 1;
        self.open.clear();
        self.slices.clear();
        self.preempted.clear();
        self.counts = Counts::default();
        self.root = Some(self.open_span(RUN, None));
    }

    /// Close the root span (and anything left open) right after the
    /// timed call, and summarize the run.
    pub fn end_run(&mut self) -> RunTrace {
        let root = self.root.take().expect("end_run without begin_run");
        let dangling: Vec<usize> = self
            .open
            .values()
            .flatten()
            .chain(self.slices.values())
            .copied()
            .collect();
        self.close_span(root);
        for idx in dangling {
            self.spans[idx].end_s = self.spans[root].end_s;
        }
        let mut t = summarize(&self.spans, root);
        t.events = self.counts.events;
        t.alloc_fails = self.counts.alloc_fails;
        t.minor_moved = self.counts.minor_moved;
        t.minor_freed = self.counts.minor_freed;
        t.migrated_bytes = self.counts.migrated_bytes;
        t
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.run, s.name, s.start_s, s.end_s
            )?;
        }
        Ok(())
    }

    /// Innermost open span a new span of `job` nests in.
    fn parent_for(&self, job: Option<u32>) -> Option<usize> {
        self.open
            .get(&job)
            .and_then(|stack| stack.last().copied())
            .or_else(|| job.and_then(|j| self.slices.get(&j).copied()))
            .or(self.root)
    }

    fn push(&mut self, job: Option<u32>, name: &'static str) {
        let parent = self.parent_for(job);
        let idx = self.open_span(name, parent);
        self.open.entry(job).or_default().push(idx);
    }

    /// Close the innermost open `name` span of `job` and everything
    /// opened inside it.
    fn pop(&mut self, job: Option<u32>, name: &'static str) {
        let Some(stack) = self.open.get_mut(&job) else {
            return;
        };
        let Some(pos) = stack.iter().rposition(|&i| self.spans[i].name == name) else {
            return;
        };
        let closed: Vec<usize> = stack.drain(pos..).collect();
        for idx in closed {
            self.close_span(idx);
        }
    }

    fn end_slice(&mut self, job: u32) {
        if let Some(idx) = self.slices.remove(&job) {
            self.close_span(idx);
        }
    }

    fn on(&mut self, job: Option<u32>, event: &Event) {
        if self.root.is_none() {
            return;
        }
        self.counts.events += 1;
        match event {
            Event::AllocFail { .. } => self.counts.alloc_fails += 1,
            Event::MinorGcEnd { moved, freed, .. } => {
                self.counts.minor_moved += moved;
                self.counts.minor_freed += freed;
            }
            Event::Migration { bytes, .. } => self.counts.migrated_bytes += bytes,
            _ => {}
        }
        if !self.spans_on {
            return;
        }
        match event {
            Event::JobStarted { job: j, .. } => {
                let idx = self.open_span(SLICE, self.root);
                self.slices.insert(*j, idx);
            }
            Event::JobPreempted { job: j, .. } => {
                self.end_slice(*j);
                self.preempted.insert(*j);
            }
            Event::JobFinished { job: j, .. } => {
                self.end_slice(*j);
                self.preempted.remove(j);
            }
            Event::StageStart { .. } => {
                if let Some(j) = job {
                    if self.preempted.remove(&j) {
                        let idx = self.open_span(SLICE, self.root);
                        self.slices.insert(j, idx);
                    }
                }
                self.push(job, STAGE);
            }
            Event::StageEnd { .. } => self.pop(job, STAGE),
            Event::MinorGcStart => self.push(job, MINOR),
            Event::MinorGcEnd { .. } => self.pop(job, MINOR),
            Event::MajorGcStart => self.push(job, MAJOR),
            Event::MajorGcEnd { .. } => self.pop(job, MAJOR),
            _ => {}
        }
    }
}

/// The sink attached to the simulator: forwards every event to the
/// shared [`Recorder`], tagged with the job it belongs to.
pub struct Tap {
    job: Option<u32>,
    rec: Rc<RefCell<Recorder>>,
}

impl Tap {
    /// An observer handle feeding `rec`, for events of `job` (`None`
    /// for a single runtime or the job service itself).
    pub fn observer(rec: &Rc<RefCell<Recorder>>, job: Option<u32>) -> obs::Observer {
        obs::Observer::with_sink(Rc::new(RefCell::new(Tap {
            job,
            rec: Rc::clone(rec),
        })))
    }
}

impl EventSink for Tap {
    fn on_event(&mut self, _t_ns: f64, event: &Event) {
        self.rec.borrow_mut().on(self.job, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            run: 1,
        }
    }

    /// run [0, 10]
    /// ├── slice A [1, 9]
    /// │   ├── stage [1, 4]
    /// │   │   └── minor [2, 3]
    /// │   └── stage [5, 8]
    /// │       ├── minor [5, 6]
    /// │       └── major [5.5, 7]   (overlaps its sibling)
    /// └── slice B [3, 9.5]         (overlaps slice A)
    fn tree() -> Vec<Span> {
        vec![
            span(RUN, 0.0, 10.0, None),
            span(SLICE, 1.0, 9.0, Some(0)),
            span(STAGE, 1.0, 4.0, Some(1)),
            span(MINOR, 2.0, 3.0, Some(2)),
            span(STAGE, 5.0, 8.0, Some(1)),
            span(MINOR, 5.0, 6.0, Some(4)),
            span(MAJOR, 5.5, 7.0, Some(4)),
            span(SLICE, 3.0, 9.5, Some(0)),
        ]
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            union_len([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(union_len([(1.0, 3.0), (2.0, 4.0)], 2.5, 3.5), 1.0);
        assert_eq!(union_len([(5.0, 6.0)], 0.0, 4.0), 0.0);
        assert_eq!(union_len(std::iter::empty(), 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let selfs = self_times(&tree());
        let expect = [
            10.0 - 8.5, // run: slices cover [1, 9.5]
            8.0 - 6.0,  // slice A: its stages cover [1,4] and [5,8]
            3.0 - 1.0,  // stage 1
            1.0,        // minor, no children
            3.0 - 2.0,  // stage 2: minor ∪ major = [5, 7]
            1.0,
            1.5,
            6.5, // slice B, no children of its own
        ];
        for (i, (got, want)) in selfs.iter().zip(expect).enumerate() {
            assert!((got - want).abs() < 1e-12, "span {i}: {got} != {want}");
        }
    }

    #[test]
    fn coverage_and_summary_use_the_whole_run() {
        assert!((coverage(&tree(), 0) - 0.85).abs() < 1e-12);
        // The run starts after an earlier run's root.
        let mut spans = vec![Span {
            run: 0,
            ..span(RUN, -2.0, -1.0, None)
        }];
        spans.extend(tree().into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + 1),
            ..s
        }));
        let t = summarize(&spans, 1);
        assert!((t.coverage - 0.85).abs() < 1e-12);
        assert_eq!(t.stage_s, vec![3.0, 3.0]);
        assert_eq!(t.slice_s, vec![8.0, 6.5]);
        assert!((t.self_of(MINOR) - 2.0).abs() < 1e-12);
        assert!((t.self_of(STAGE) - 3.0).abs() < 1e-12);
        // Stages cover 6 of the run's 10 seconds.
        assert!((t.outside_stages_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_events_per_job() {
        let rec = Recorder::new(true);
        let svc = Tap::observer(&rec, None);
        let job0 = Tap::observer(&rec, Some(0));
        rec.borrow_mut().begin_run();
        let stage = |start: bool| match start {
            true => Event::StageStart {
                stage: 0,
                dram_write_bytes: 0,
                nvm_write_bytes: 0,
            },
            false => Event::StageEnd {
                stage: 0,
                dram_write_bytes: 0,
                nvm_write_bytes: 0,
            },
        };
        svc.emit(
            0.0,
            &Event::JobStarted {
                job: 0,
                queued_ns: 0.0,
                dram_share: 0,
            },
        );
        job0.emit(0.0, &stage(true));
        job0.emit(0.0, &Event::MinorGcStart);
        job0.emit(
            0.0,
            &Event::MinorGcEnd {
                pause_ns: 1.0,
                moved: 3,
                freed: 1,
            },
        );
        job0.emit(0.0, &stage(false));
        svc.emit(0.0, &Event::JobPreempted { job: 0, stage: 1 });
        job0.emit(0.0, &stage(true));
        job0.emit(0.0, &stage(false));
        svc.emit(
            0.0,
            &Event::JobFinished {
                job: 0,
                elapsed_ns: 1.0,
            },
        );
        let t = rec.borrow_mut().end_run();
        let rec = rec.borrow();
        let names: Vec<(&str, Option<usize>)> =
            rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                (RUN, None),
                (SLICE, Some(0)),
                (STAGE, Some(1)),
                (MINOR, Some(2)),
                (SLICE, Some(0)),
                (STAGE, Some(4)),
            ]
        );
        assert_eq!(t.events, 9);
        assert_eq!((t.minor_moved, t.minor_freed), (3, 1));
        assert_eq!(t.slice_s.len(), 2);
        assert!(rec.spans.iter().all(|s| s.end_s >= s.start_s));
    }
}
