//! **E12**: cost of the observability layer.
//!
//! Three tiers, from microbenchmark to end-to-end:
//!
//! * hot-path instrument cost — one counter add and one span
//!   enter/drop, in ns/op (the price every instrumented call site
//!   pays);
//! * span machinery with and without a sink — the same guard with no
//!   span sink installed (`obs::install_sink` never called), measuring
//!   the one-atomic-load early-out an untraced service rides;
//! * end-to-end generation — the Figure-4 wholesale partial flow with a
//!   sink installed vs none. The paper-scale workload shows the
//!   per-stage spans (a handful per partial) vanish against frame
//!   hashing and packet emission.
//!
//! Build with `--features jpg/obs-off` to additionally compile the span
//! guards to no-ops (the compile-time floor; see tests/obs_overhead.rs
//! at the workspace root for the 5% assertion).

use bench::{fig4_base, fig4_regions, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use jpg::workflow::{implement_variant, module_constraints};
use jpg::JpgProject;
use std::time::Instant;

fn ns_per_op(iters: u64, f: impl Fn()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn hot_path_table() {
    const N: u64 = 1_000_000;
    let counter = obs::global().counter("bench_obs_hot_total", &[]);
    let histogram = obs::global().histogram("bench_obs_hot_us", &[]);
    let count_ns = ns_per_op(N, || counter.inc());
    let hist_ns = ns_per_op(N, || histogram.record(std::time::Duration::from_micros(7)));
    obs::install_sink();
    let span_on_ns = ns_per_op(N, || {
        let _g = obs::span!("bench_tick");
    });
    let _ = obs::take_sink();
    let span_off_ns = ns_per_op(N, || {
        let _g = obs::span!("bench_tick");
    });

    header(&["instrument", "ns/op"]);
    row(&["counter.inc".into(), format!("{count_ns:.1}")]);
    row(&["histogram.record".into(), format!("{hist_ns:.1}")]);
    row(&[
        "span enter+drop (sink installed)".into(),
        format!("{span_on_ns:.1}"),
    ]);
    row(&[
        "span enter+drop (no sink)".into(),
        format!("{span_off_ns:.1}"),
    ]);
}

fn bench(c: &mut Criterion) {
    hot_path_table();

    // End-to-end: Figure-4 wholesale partials, sink installed vs none.
    let base = fig4_base();
    let project = JpgProject::from_memory("e12", base.memory.clone());
    let mut variants = Vec::new();
    for r in fig4_regions() {
        let cons = module_constraints(&r.prefix, r.region);
        for (i, nl) in r.variants.iter().enumerate().skip(1) {
            let v = implement_variant(&base, &r.prefix, nl, 13 ^ ((i as u64) << 8))
                .expect("variant implements");
            variants.push((v.design, cons.clone()));
        }
    }
    let generate_all = || {
        for (design, cons) in &variants {
            let p = project
                .generate_partial_from(design, cons)
                .expect("generation");
            assert!(p.bitstream.byte_len() > 0);
        }
    };

    // Warm up (allocator, caches), then min-of-N each way: a single
    // cold pass is dominated by first-touch effects, not spans.
    let min_of = |n: usize| {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                generate_all();
                t.elapsed()
            })
            .min()
            .expect("at least one pass")
    };
    generate_all();
    obs::install_sink();
    let on = min_of(5);
    let _ = obs::take_sink();
    let off = min_of(5);
    println!(
        "fig4 library generation: sink {on:?}, no sink {off:?} ({:+.2}%; obs-off feature: {})",
        100.0 * (on.as_secs_f64() / off.as_secs_f64().max(f64::EPSILON) - 1.0),
        cfg!(feature = "obs-off"),
    );

    // No sink installed from here on except inside `obs_on`.
    c.bench_function("obs/span_guard", |b| {
        b.iter(|| {
            let _g = obs::span!("bench_tick");
        })
    });
    let counter = obs::global().counter("bench_obs_hot_total", &[]);
    c.bench_function("obs/counter_inc", |b| b.iter(|| counter.inc()));
    c.bench_function("e12/fig4_generation_obs_on", |b| {
        obs::install_sink();
        b.iter(generate_all);
        let _ = obs::take_sink();
    });
    c.bench_function("e12/fig4_generation_obs_off", |b| b.iter(generate_all));
}

criterion_group!(benches, bench);
criterion_main!(benches);
