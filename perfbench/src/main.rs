//! `perfbench` — the host-time benchmark of the Panthera simulator.
//!
//! ```text
//! perfbench --workload <cc-gc|km-regions|pr-cluster|jobs-mix>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! One run computes the workload's reference outputs, then repeats
//! "set up, time the entry point, check the outputs" for `--seconds`
//! seconds. With `--trace 0` it prints the end-to-end metrics (medians
//! over the untraced calls) and traces one extra call only to check
//! that the simulated report does not change under tracing. With
//! `--trace 1` it alternates untraced and traced calls and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--out DIR` it also writes every recorded span
//! (`<workload>-<seed>.spans.jsonl`) and the host-time-free report of
//! the first call (`<workload>-<seed>.sim.json`) there.

mod calib;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;
use suite::{Outcome, Reference, Sample, Workload};
use trace::{Recorder, RunTrace, MAJOR, MINOR, STAGE};

/// Fewest untraced calls a run makes, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;
/// Least host time spent repeating the separately timed static analysis.
const ANALYSIS_MIN_S: f64 = 0.05;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: Workload::CcGc,
        seed: 7,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut named = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cli.workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                named = true;
            }
            "--seed" => cli.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` of `v`; 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Counts runs and failures; a report that differs from the first one
/// of its kind is a failure, as is any failed check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digests: BTreeMap<&'static str, u64>,
    first: Option<Outcome>,
}

impl Tally {
    fn fail(&mut self, msg: &str) {
        eprintln!("perfbench: {msg}");
        self.failed += 1;
    }

    fn count(&mut self, kind: &'static str, s: &Sample) {
        self.attempted += 1;
        let o = match &s.outcome {
            Ok(o) => o,
            Err(e) => return self.fail(&format!("{kind} failed: {e}")),
        };
        let mut bad = !o.errors.is_empty();
        for e in &o.errors {
            eprintln!("perfbench: {kind}: {e}");
        }
        let want = *self.digests.entry(kind).or_insert(o.digest);
        if want != o.digest {
            eprintln!("perfbench: {kind}: simulated report differs from the first call's");
            bad = true;
        }
        if bad {
            self.failed += 1;
        }
        if kind == "run" && self.first.is_none() {
            self.first = Some(o.clone());
        }
    }
}

fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn host_times(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| s.host_s)
        .collect()
}

/// The untraced calls, each with the calibration kernel's host seconds
/// measured right before and right after it.
struct Untraced {
    samples: Vec<Sample>,
    kernel_s: Vec<f64>,
}

impl Untraced {
    /// Per successful call: host seconds ÷ the mean of the two kernel
    /// runs around it.
    fn relative(&self) -> Vec<f64> {
        self.samples
            .iter()
            .zip(self.kernel_s.windows(2))
            .filter(|(s, _)| s.outcome.is_ok())
            .map(|(s, k)| s.host_s * 2.0 / (k[0] + k[1]))
            .collect()
    }
}

fn end_to_end(untraced: &Untraced) -> Metrics {
    let mut setup: Vec<f64> = untraced.samples.iter().map(|s| s.setup_s).collect();
    vec![
        ("host_rel", median(&mut untraced.relative()), "ratio"),
        ("setup_s", median(&mut setup), "s"),
        ("host_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Median over traced runs of `f`.
fn med(traces: &[&RunTrace], f: impl Fn(&RunTrace) -> f64) -> f64 {
    median(&mut traces.iter().map(|t| f(t)).collect::<Vec<_>>())
}

fn per_layer(
    w: Workload,
    seed: u64,
    untraced: &Untraced,
    traced: &[Sample],
    singles: &[Sample],
    first: &Outcome,
) -> Metrics {
    let traces: Vec<&RunTrace> = traced.iter().filter_map(|s| s.trace.as_ref()).collect();
    let l = &first.layers;
    let (analysis_s, dram_sites, nvm_sites) = suite::analysis(w, seed, ANALYSIS_MIN_S);
    let untraced_s = median(&mut host_times(&untraced.samples));
    let traced_s = median(&mut host_times(traced));
    let cluster_ratio = if singles.is_empty() {
        0.0
    } else {
        traced_s / median(&mut host_times(singles))
    };
    let imbalance = if first.exec_sim_s.is_empty() {
        0.0
    } else {
        let max = first.exec_sim_s.iter().copied().fold(0.0, f64::max);
        max * first.exec_sim_s.len() as f64 / first.exec_sim_s.iter().sum::<f64>()
    };
    let (moved, freed) = traces
        .first()
        .map_or((0, 0), |t| (t.minor_moved, t.minor_freed));
    let survival = if moved + freed == 0 {
        0.0
    } else {
        moved as f64 / (moved + freed) as f64
    };
    let writes = l.dram_write_bytes + l.nvm_write_bytes;
    let count = |f: fn(&RunTrace) -> u64| traces.first().map_or(0, |t| f(t)) as f64;
    let mut queue = first.queue_s.clone();
    vec![
        ("host_s", untraced_s, "s"),
        ("records_per_host_s", l.records as f64 / untraced_s, "1/s"),
        (
            "calib.kernel_s",
            median(&mut untraced.kernel_s.clone()),
            "s",
        ),
        ("analysis.host_s", analysis_s, "s"),
        ("analysis.dram_sites", dram_sites as f64, "count"),
        ("analysis.nvm_sites", nvm_sites as f64, "count"),
        ("engine.stages", count(|t| t.stage_s.len() as u64), "count"),
        (
            "engine.stage_host_p50_ms",
            med(&traces, |t| median(&mut t.stage_s.clone()) * 1e3),
            "ms",
        ),
        (
            "engine.stage_host_max_ms",
            med(&traces, |t| {
                t.stage_s.iter().copied().fold(0.0, f64::max) * 1e3
            }),
            "ms",
        ),
        (
            "engine.self_host_s",
            med(&traces, |t| t.self_of(STAGE)),
            "s",
        ),
        ("engine.records", l.records as f64, "count"),
        (
            "engine.materializations",
            l.materializations as f64,
            "count",
        ),
        ("engine.shuffles", l.shuffles as f64, "count"),
        ("engine.shuffle_bytes", l.shuffle_bytes as f64, "bytes"),
        ("engine.evictions", l.evictions as f64, "count"),
        ("mheap.alloc_bytes", l.alloc_bytes as f64, "bytes"),
        ("mheap.promotions", l.promotions as f64, "count"),
        ("mheap.alloc_fails", count(|t| t.alloc_fails), "count"),
        ("mheap.region_allocs", l.region_allocs as f64, "count"),
        ("mheap.region_bytes", l.region_bytes as f64, "bytes"),
        ("gc.minor.host_s", med(&traces, |t| t.self_of(MINOR)), "s"),
        ("gc.minor.count", l.minor_count as f64, "count"),
        ("gc.major.host_s", med(&traces, |t| t.self_of(MAJOR)), "s"),
        ("gc.major.count", l.major_count as f64, "count"),
        ("gc.cards_scanned", l.cards_scanned as f64, "count"),
        ("gc.card_scan_bytes", l.card_scan_bytes as f64, "bytes"),
        ("gc.stuck_rescans", l.stuck_rescans as f64, "count"),
        ("gc.survival_ratio", survival, "ratio"),
        ("gc.rdds_migrated", l.rdds_migrated as f64, "count"),
        ("gc.migrated_bytes", count(|t| t.migrated_bytes), "bytes"),
        ("gc.sim_pause_s", l.sim_pause_s, "s"),
        (
            "gc.minor_pause_p90_ns",
            l.minor_pauses.quantile_ns(0.9),
            "ns",
        ),
        (
            "gc.migration_fallbacks",
            l.migration_fallbacks as f64,
            "count",
        ),
        (
            "gc.promotion_fallbacks",
            l.promotion_fallbacks as f64,
            "count",
        ),
        ("mem.dram_bytes", l.dram_bytes as f64, "bytes"),
        ("mem.nvm_bytes", l.nvm_bytes as f64, "bytes"),
        (
            "mem.nvm_write_frac",
            if writes == 0 {
                0.0
            } else {
                l.nvm_write_bytes as f64 / writes as f64
            },
            "ratio",
        ),
        ("mem.sim_mutator_s", l.sim_mutator_s, "s"),
        ("runtime.monitored_calls", l.monitored_calls as f64, "count"),
        ("cluster.host_ratio", cluster_ratio, "ratio"),
        ("cluster.exec_imbalance", imbalance, "ratio"),
        ("jobs.slices", count(|t| t.slice_s.len() as u64), "count"),
        ("jobs.preemptions", first.preemptions as f64, "count"),
        (
            "jobs.slice_host_p50_ms",
            med(&traces, |t| median(&mut t.slice_s.clone()) * 1e3),
            "ms",
        ),
        (
            "jobs.sched_host_s",
            if w == Workload::JobsMix {
                med(&traces, |t| t.outside_stages_s)
            } else {
                0.0
            },
            "s",
        ),
        ("sim.elapsed_s", first.sim_s, "s"),
        ("sim.energy_j", first.energy_j, "J"),
        ("jobs.sim_queue_p50_s", quantile(&mut queue, 0.5), "s"),
        ("jobs.sim_queue_p90_s", quantile(&mut queue, 0.9), "s"),
        ("obs.events", count(|t| t.events), "count"),
        ("obs.trace_overhead", traced_s / untraced_s, "ratio"),
        ("trace.coverage", med(&traces, |t| t.coverage), "ratio"),
    ]
}

fn write_outputs(cli: &Cli, rec: &Recorder, first: Option<&Outcome>) -> std::io::Result<()> {
    let Some(dir) = &cli.out else {
        return Ok(());
    };
    fs::create_dir_all(dir)?;
    let stem = format!("{}-{}", cli.workload.name(), cli.seed);
    let mut spans = Vec::new();
    rec.write_spans(&mut spans)?;
    fs::write(dir.join(format!("{stem}.spans.jsonl")), spans)?;
    if let Some(o) = first {
        fs::write(dir.join(format!("{stem}.sim.json")), &o.report_json)?;
    }
    Ok(())
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cc-gc|km-regions|pr-cluster|jobs-mix> \
                 [--seed N] [--seconds S] [--trace 0|1] [--out DIR]"
            );
            std::process::exit(2);
        }
    };
    let (w, seed) = (cli.workload, cli.seed);
    let mut tally = Tally::default();

    let want: Option<Reference> = match std::panic::catch_unwind(|| suite::reference(w, seed)) {
        Ok(Ok(r)) => Some(r),
        Ok(Err(e)) => {
            tally.attempted += 1;
            tally.fail(&format!("reference run failed: {e}"));
            None
        }
        Err(_) => {
            tally.attempted += 1;
            tally.fail("reference run panicked");
            None
        }
    };
    let want = want.as_ref();

    // Cluster events arrive after the join; their host stamps carry no
    // timing, so the cluster path is traced for counts only.
    let rec = Recorder::new(w != Workload::PrCluster);
    let mut untraced = Untraced {
        samples: Vec::new(),
        kernel_s: vec![calib::kernel_s()],
    };
    let (mut traced, mut singles) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cli.seconds || untraced.samples.len() < MIN_SAMPLES {
        let s = suite::sample(w, seed, want, None);
        untraced.kernel_s.push(calib::kernel_s());
        tally.count("run", &s);
        untraced.samples.push(s);
        if cli.trace {
            let s = suite::sample(w, seed, want, Some(&rec));
            tally.count("run", &s);
            traced.push(s);
            if w == Workload::PrCluster {
                let s = suite::pr_single(seed, want, &rec);
                tally.count("single", &s);
                singles.push(s);
            }
        }
    }
    if !cli.trace {
        // Events observe and never charge: a traced call must give the
        // same simulated report.
        let s = suite::sample(w, seed, want, Some(&rec));
        tally.count("run", &s);
    }

    let metrics = match &tally.first {
        Some(first) if cli.trace => per_layer(w, seed, &untraced, &traced, &singles, first),
        Some(_) => end_to_end(&untraced),
        None => Vec::new(),
    };
    if let Err(e) = write_outputs(&cli, &rec.borrow(), tally.first.as_ref()) {
        tally.fail(&format!("writing outputs: {e}"));
    }
    if metrics.is_empty() {
        tally.fail("no call succeeded; nothing to report");
    }
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            tally.fail(&format!("metric {name} is not finite"));
            continue;
        }
        body.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
}
