//! **E9**: the incremental generation engine vs a serial full-diff
//! reference, on the Figure-4 library (1 complete + 10 partials, three
//! regions on an XCV100).
//!
//! Both engines receive identical inputs — the ten stamped variant
//! images (dirty marks included) and the base image — and must produce
//! the ten partial bitstreams. Module implementation and XDL→JBits
//! translation are done once, outside the timed section, since they are
//! byte-identical work for either engine; what is timed is exactly the
//! stage the incremental engine reworks, frame comparison plus packet
//! emission:
//!
//! * **serial full-diff** — per variant, one at a time: ground-truth
//!   full-memory diff against the base, expand to whole configuration
//!   columns, emit (the pre-incremental JBitsDiff-style flow, inline
//!   below as `serial_full_diff`);
//! * **incremental + parallel** — prime one shared [`jpg::FrameCache`]
//!   with the base image, then per variant: read the dirty-frame
//!   byproduct of translation (no memory scan), hash-check those frames
//!   against the cache, and emit only real changes (the
//!   `JpgProject::generate_partial_incremental` flow), variants fanned
//!   out across Rayon workers.

use bench::{fig4_base, fig4_regions, header, row, FIG4_DEVICE};
use bitstream::{bitgen, Bitstream, Interpreter};
use criterion::{criterion_group, criterion_main, Criterion};
use jpg::workflow::{implement_variant, module_constraints};
use jpg::{FrameCache, JpgProject};
use rayon::prelude::*;
use std::time::{Duration, Instant};
use virtex::ConfigMemory;

/// One ready-to-emit library entry: the stamped variant image, dirty
/// marks intact from the erase-and-translate step.
struct StampedVariant {
    name: String,
    memory: ConfigMemory,
}

fn stamp_library(base: &jpg::workflow::BaseDesign, project: &JpgProject) -> Vec<StampedVariant> {
    let mut lib = Vec::new();
    for r in fig4_regions() {
        let cons = module_constraints(&r.prefix, r.region);
        for (i, nl) in r.variants.iter().enumerate() {
            let v = implement_variant(base, &r.prefix, nl, 7 ^ ((i as u64) << 8))
                .expect("variant implements");
            let partial = project
                .generate_partial_from(&v.design, &cons)
                .expect("variant stamps");
            lib.push(StampedVariant {
                name: format!("{}{}", r.prefix, nl.name),
                memory: partial.memory,
            });
        }
    }
    lib
}

fn serial_full_diff(base: &ConfigMemory, lib: &[StampedVariant]) -> Vec<Bitstream> {
    lib.iter()
        .map(|v| {
            let diff = v.memory.diff_frames(base);
            let frames = jbits::expand_to_columns(&v.memory, diff);
            let runs = bitgen::coalesce_frames(frames);
            bitgen::partial_bitstream(&v.memory, &runs)
        })
        .collect()
}

fn incremental_par(base: &ConfigMemory, lib: &[StampedVariant]) -> Vec<Bitstream> {
    // Cache construction and priming are part of the engine's cost. Only
    // frames some variant touched can ever be compared, so only those
    // need base hashes (`build_variant_library_incremental` does the
    // same by priming the module's region columns).
    let cache = FrameCache::new();
    let mut touched: Vec<usize> = lib.iter().flat_map(|v| v.memory.dirty_frames()).collect();
    touched.sort_unstable();
    touched.dedup();
    cache.prime_frames(base, touched);
    lib.par_iter()
        .map(|v| {
            let frames = cache.filter_changed(&v.memory, v.memory.dirty_frames());
            let runs = bitgen::coalesce_frames_bridged(frames, 1);
            bitgen::partial_bitstream(&v.memory, &runs)
        })
        .collect()
}

fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        if best.as_ref().is_none_or(|(b, _)| dt < *b) {
            best = Some((dt, out));
        }
    }
    best.unwrap()
}

fn print_table(base: &ConfigMemory, lib: &[StampedVariant]) {
    println!("\n== E9: Figure-4 library generation, incremental+parallel vs serial full-diff ==");
    println!(
        "scenario: 1 complete + {} partials, {} regions on {FIG4_DEVICE}",
        lib.len(),
        fig4_regions().len(),
    );

    let (t_serial, out_serial) = best_of(10, || serial_full_diff(base, lib));
    let (t_par, out_par) = best_of(10, || incremental_par(base, lib));

    // Different emission policies (whole columns vs changed frames), but
    // applied on the base both must land the same final device state.
    for ((a, b), v) in out_serial.iter().zip(&out_par).zip(lib) {
        let mut dev_a = Interpreter::with_memory(base.clone());
        dev_a.feed(a).expect("wholesale partial applies");
        let mut dev_b = Interpreter::with_memory(base.clone());
        dev_b.feed(b).expect("incremental partial applies");
        assert_eq!(
            dev_a.memory(),
            dev_b.memory(),
            "{}: engines disagree on the final state",
            v.name
        );
    }

    header(&["engine", "library time", "bytes"]);
    let bytes = |out: &[Bitstream]| out.iter().map(Bitstream::byte_len).sum::<usize>();
    row(&[
        "serial full-diff".into(),
        format!("{t_serial:?}"),
        bytes(&out_serial).to_string(),
    ]);
    row(&[
        "incremental + parallel".into(),
        format!("{t_par:?}"),
        bytes(&out_par).to_string(),
    ]);
    println!(
        "speedup: {:.2}x  (partials {:.1}% of wholesale size; {} worker(s) — variants \
         fan out further on multi-core hosts)",
        t_serial.as_secs_f64() / t_par.as_secs_f64(),
        100.0 * bytes(&out_par) as f64 / bytes(&out_serial) as f64,
        rayon::current_num_threads()
    );
}

fn bench(c: &mut Criterion) {
    let base_design = fig4_base();
    let project = JpgProject::from_memory("fig4", base_design.memory.clone());
    let lib = stamp_library(&base_design, &project);
    assert_eq!(
        lib.len(),
        10,
        "Figure-4 library is 1 complete + 10 partials"
    );
    let base = project.base_memory();

    print_table(base, &lib);

    let mut g = c.benchmark_group("par_generation");
    g.sample_size(10);
    g.bench_function("serial_full_diff", |b| {
        b.iter(|| serial_full_diff(base, &lib))
    });
    g.bench_function("incremental_par", |b| {
        b.iter(|| incremental_par(base, &lib))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
