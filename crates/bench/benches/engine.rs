//! Micro-benchmarks of the execution engine: streaming, shuffles, and
//! materialized reads through the simulated heap.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mheap::Payload;
use panthera::{MemoryMode, PantheraRuntime, SystemConfig, SIM_GB};
use panthera_analysis::analyze;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder, StorageLevel};
use sparklet::{DataRegistry, Engine, EngineConfig};
use std::hint::black_box;

fn stream_program(n_maps: u32) -> (Program, FnTable) {
    let mut b = ProgramBuilder::new("stream");
    let inc = b.map_fn(|p| Payload::Long(p.as_long().unwrap_or(0) + 1));
    let src = b.source("nums");
    let mut e = src;
    for _ in 0..n_maps {
        e = e.map(inc);
    }
    let x = b.bind("x", e);
    b.action(x, ActionKind::Count);
    b.finish()
}

fn shuffle_program() -> (Program, FnTable) {
    let mut b = ProgramBuilder::new("shuffle");
    let add =
        b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap_or(0) + c.as_long().unwrap_or(0)));
    let src = b.source("pairs");
    let x = b.bind("x", src.reduce_by_key(add));
    b.persist(x, StorageLevel::MemoryOnly);
    b.action(x, ActionKind::Count);
    b.finish()
}

/// source -> map -> reduceByKey: the map side streams straight into the
/// reduce side's fold.
fn fused_reduce_program() -> (Program, FnTable) {
    let mut b = ProgramBuilder::new("fused-reduce");
    let bump = b.map_fn(|p| match p.as_pair() {
        Some((k, v)) => Payload::pair(k.clone(), Payload::Long(v.as_long().unwrap_or(0) + 1)),
        None => p.clone(),
    });
    let add =
        b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap_or(0) + c.as_long().unwrap_or(0)));
    let src = b.source("pairs");
    let x = b.bind("x", src.map(bump).reduce_by_key(add));
    b.persist(x, StorageLevel::MemoryOnly);
    b.action(x, ActionKind::Count);
    b.finish()
}

/// 4k `(key, long)` pair records over 64 keys.
fn keyed_pairs() -> DataRegistry {
    let mut data = DataRegistry::new();
    data.register(
        "pairs",
        (0..4_096)
            .map(|i| Payload::keyed(i % 64, Payload::Long(i)))
            .collect(),
    );
    data
}

fn engine() -> impl FnMut(Program, FnTable, DataRegistry) -> u64 {
    move |program, fns, data| {
        let cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
        let rt = PantheraRuntime::new(&cfg).expect("valid config");
        let mut e = Engine::new(rt, fns, data);
        let plan = analyze(&program).plan;
        let out = e.run(&program, &plan);
        out.stats.records_streamed
    }
}

fn bench_streaming(c: &mut Criterion) {
    c.bench_function("engine/stream_4_maps_x_4k_records", |b| {
        let mut run = engine();
        b.iter_batched(
            || {
                let (p, fns) = stream_program(4);
                let mut data = DataRegistry::new();
                data.register("nums", (0..4_096).map(Payload::Long).collect());
                (p, fns, data)
            },
            |(p, fns, data)| black_box(run(p, fns, data)),
            BatchSize::SmallInput,
        );
    });
}

fn bench_shuffle(c: &mut Criterion) {
    c.bench_function("engine/shuffle_4k_records_64_keys", |b| {
        let mut run = engine();
        b.iter_batched(
            || {
                let (p, fns) = shuffle_program();
                (p, fns, keyed_pairs())
            },
            |(p, fns, data)| black_box(run(p, fns, data)),
            BatchSize::SmallInput,
        );
    });
    c.bench_function("engine/fused_map_into_reduce_by_key", |b| {
        let mut run = engine();
        b.iter_batched(
            || {
                let (p, fns) = fused_reduce_program();
                (p, fns, keyed_pairs())
            },
            |(p, fns, data)| black_box(run(p, fns, data)),
            BatchSize::SmallInput,
        );
    });
}

fn pair_pipeline_program(n_maps: u32) -> (Program, FnTable) {
    let mut b = ProgramBuilder::new("pipeline");
    // Structure-preserving map: every handoff moves a composite record,
    // so the Rc-vs-deep-copy difference is what gets measured.
    let keep = b.map_fn(|p| p.clone());
    let src = b.source("pairs");
    let mut e = src;
    for _ in 0..n_maps {
        e = e.map(keep);
    }
    let x = b.bind("x", e);
    b.action(x, ActionKind::Count);
    b.finish()
}

/// The zero-clone pipeline's two execution modes over one narrow chain
/// of eight maps on composite (pair-of-doubles) records:
///
/// * `fused` — the default engine (single streaming pass, `Rc` handoffs);
/// * `unfused` — stage-at-a-time with `Rc` handoffs.
///
/// Both report bit-identical simulated results; only host time differs. Save a baseline with `CRITERION_SAVE_BASELINE=<name>`.
fn bench_pipeline_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    for (label, fuse) in [("fused", true), ("unfused", false)] {
        g.bench_with_input(
            BenchmarkId::new("8_maps_x_4k_pairs", label),
            &fuse,
            |b, &fuse| {
                b.iter_batched(
                    || {
                        let (p, fns) = pair_pipeline_program(8);
                        let mut data = DataRegistry::new();
                        data.register(
                            "pairs",
                            (0..4_096)
                                .map(|i| Payload::keyed(i, Payload::doubles(vec![i as f64; 8])))
                                .collect(),
                        );
                        (p, fns, data)
                    },
                    |(p, fns, data)| {
                        let cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
                        let rt = PantheraRuntime::new(&cfg).expect("valid config");
                        let ecfg = EngineConfig {
                            fuse_narrow: fuse,
                            ..EngineConfig::default()
                        };
                        let mut e = Engine::with_config(rt, fns, data, ecfg);
                        let plan = analyze(&p).plan;
                        black_box(e.run(&p, &plan).stats.records_streamed)
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_streaming,
    bench_shuffle,
    bench_pipeline_modes
);
criterion_main!(benches);
