//! `cad_swap`: the north-star path, "XDL+UCF text in → region
//! verified", as a closed loop with one caller.
//!
//! Set-up runs place-and-route for two libraries — the Figure-4 XCV100
//! one (3 regions, 10 variants) and an XCV1000 single-region one (4
//! variants) — and keeps only what a user would hand to JPG: each
//! variant's XDL and UCF text, the base image and the base bitstream.
//! Each operation parses the text, generates the partial (incremental
//! with a delta-coded `JWC1` while the region still holds base content,
//! wholesale with a base-free `JWC1` after that), applies the container
//! to a per-device configuration interpreter with the streaming decoder
//! and verifies the region by digest against the stamped image, falling
//! back to a raw compare on a mismatch.
//!
//! A pass sets up afresh and runs a seeded shuffle of a fixed multiset
//! of keys — every Figure-4 variant six times, every XCV1000 variant
//! five times, so one operation in four runs on the XCV1000 whatever the
//! seed. Every pass of a run replays the same sequence, so its output
//! bytes and modelled port figures must repeat exactly.

use crate::ledger::{self, Fnv, Measured, Rng, SetupClock, Tracer};
use bitstream::{partial_bitstream_par, Bitstream, FrameRange, Interpreter};
use cadflow::gen;
use cadflow::netlist::Netlist;
use jbits::Jbits;
use jpg::workflow::{build_base, implement_variant, BaseDesign, ModuleSpec};
use jpg::{FrameCache, JpgProject};
use std::time::Instant;
use virtex::{BlockType, ConfigMemory, Device, RegionDigests};
use xdl::{Constraints, Rect};

/// The fingerprint of every partial and container byte a pass with
/// [`PINNED_SEED`] emits. A change that moves it changed the program's
/// output, whatever it did to the timings.
pub const PINNED_FINGERPRINT: u64 = 0xf71f_de0e_2fff_632a;
/// The seed the pinned fingerprint is taken at.
pub const PINNED_SEED: u64 = 0;

/// Repeats of each Figure-4 and each XCV1000 key in one pass.
const FIG4_REPEATS: usize = 6;
const XCV1000_REPEATS: usize = 5;

struct RegionLib {
    /// The region's CLB columns: the verify scope.
    verify: Vec<FrameRange>,
    /// Each variant's XDL and UCF text.
    variants: Vec<(String, String)>,
}

struct DeviceLib {
    device: Device,
    base: ConfigMemory,
    full_bytes: usize,
    regions: Vec<RegionLib>,
}

struct DeviceState {
    project: JpgProject,
    cache: FrameCache,
    interp: Interpreter,
    /// Whether each region still holds base content.
    base_content: Vec<bool>,
}

/// Place and route the base design: the first variant of each region.
pub fn base_design(
    name: &str,
    device: Device,
    regions: &[(&str, Rect, Vec<Netlist>)],
    seed: u64,
) -> Result<BaseDesign, String> {
    let modules: Vec<ModuleSpec> = regions
        .iter()
        .map(|(prefix, rect, variants)| ModuleSpec {
            prefix: prefix.to_string(),
            netlist: variants[0].clone(),
            region: *rect,
        })
        .collect();
    build_base(name, device, &modules, seed).map_err(|e| e.to_string())
}

/// Place and route one library, keeping only its text and base images.
fn build_library(
    name: &str,
    device: Device,
    regions: &[(&str, Rect, Vec<Netlist>)],
    seed: u64,
) -> Result<(DeviceLib, Bitstream), String> {
    let base = base_design(name, device, regions, seed)?;
    let geom = base.memory.geometry();
    let mut libs = Vec::new();
    for (prefix, rect, variants) in regions {
        let verify = rect
            .cols()
            .filter_map(|c| geom.major_for_clb_col(c))
            .filter_map(|major| FrameRange::for_column(geom, BlockType::Clb, major))
            .collect();
        let mut texts = Vec::new();
        for (vi, nl) in variants.iter().enumerate() {
            let v = implement_variant(&base, prefix, nl, seed + vi as u64)
                .map_err(|e| format!("{name} {prefix}{}: {e}", nl.name))?;
            texts.push((v.xdl, v.ucf));
        }
        libs.push(RegionLib {
            verify,
            variants: texts,
        });
    }
    let bits = base.bitstream.bitstream;
    Ok((
        DeviceLib {
            device,
            full_bytes: bits.byte_len(),
            base: base.memory,
            regions: libs,
        },
        bits,
    ))
}

/// The Figure-4 partitioning: three full-height XCV100 regions with 3,
/// 3 and 4 interchangeable modules; the first of each is in the base.
pub fn fig4_regions() -> Vec<(&'static str, Rect, Vec<Netlist>)> {
    vec![
        (
            "region1/",
            Rect::new(0, 1, 19, 8),
            vec![
                gen::counter("up", 3),
                gen::down_counter("down", 3),
                gen::gray_counter("gray", 3),
            ],
        ),
        (
            "region2/",
            Rect::new(0, 11, 19, 18),
            vec![
                gen::parity("par8", 8),
                gen::string_matcher("match", &[true, false, true]),
                gen::lfsr("lfsr", 4),
            ],
        ),
        (
            "region3/",
            Rect::new(0, 21, 19, 28),
            vec![
                gen::counter("up4", 4),
                gen::accumulator("acc", 3),
                gen::lfsr("lfsr5", 5),
                gen::gray_counter("gray4", 4),
            ],
        ),
    ]
}

/// Seed of the Figure-4 base design's place-and-route.
pub const FIG4_SEED: u64 = 11;

fn libraries() -> Result<Vec<(DeviceLib, Bitstream)>, String> {
    let rows = Device::XCV1000.geometry().clb_rows as i32;
    let xcv1000 = vec![(
        "mod1/",
        Rect::new(0, 40, rows - 1, 47),
        vec![
            gen::counter("up", 4),
            gen::down_counter("down", 4),
            gen::gray_counter("gray", 4),
            gen::lfsr("lfsr", 5),
        ],
    )];
    Ok(vec![
        build_library("fig4", Device::XCV100, &fig4_regions(), FIG4_SEED)?,
        build_library("xcv1000", Device::XCV1000, &xcv1000, 5)?,
    ])
}

/// Device-side and CAD-side state over the libraries: a project and a
/// base-primed frame cache per device, and an interpreter booted with
/// the base bitstream.
fn boot(libs: &[(DeviceLib, Bitstream)]) -> Result<Vec<DeviceState>, String> {
    libs.iter()
        .map(|(lib, bits)| {
            let cache = FrameCache::new();
            for r in &lib.regions {
                cache.prime_frames(&lib.base, r.verify.iter().flat_map(|fr| fr.frames()));
            }
            let mut interp = Interpreter::new(lib.device);
            interp.feed(bits).map_err(|e| e.to_string())?;
            Ok(DeviceState {
                project: JpgProject::from_memory(lib.device.name(), lib.base.clone()),
                cache,
                interp,
                base_content: vec![true; lib.regions.len()],
            })
        })
        .collect()
}

/// A key: (device, region, variant).
type Key = (usize, usize, usize);

fn pass_keys(libs: &[DeviceLib], seed: u64, smoke: bool) -> Vec<Key> {
    let mut keys = Vec::new();
    for (d, lib) in libs.iter().enumerate() {
        let repeats = match (smoke, d) {
            (true, _) => 1,
            (false, 0) => FIG4_REPEATS,
            (false, _) => XCV1000_REPEATS,
        };
        for (r, region) in lib.regions.iter().enumerate() {
            for v in 0..region.variants.len() {
                keys.extend(std::iter::repeat_n((d, r, v), repeats));
            }
        }
    }
    Rng::new(seed).shuffle(&mut keys);
    keys
}

/// The modelled and byte-level outcome of one operation: everything in
/// it is a function of the inputs, so passes must agree on it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OpFacts {
    incremental: bool,
    verified: bool,
    plain_bytes: usize,
    full_bytes: usize,
    wire_bytes: usize,
    decoded_bytes: usize,
    peak_buffer_words: usize,
    port_bytes: usize,
    port_ns: u64,
}

/// Everything a pass must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PassFacts {
    fingerprint: u64,
    ops: Vec<OpFacts>,
    cache_hits: usize,
    cache_misses: usize,
}

struct PassTimes {
    /// Summed wall time of the pass's operations, seconds.
    busy_s: f64,
    cad_ms: Vec<f64>,
}

/// What tracing keeps of an operation for the probes.
type Traced = Option<(xdl::Design, jpg::PartialResult)>;

struct Swapper {
    libs: Vec<DeviceLib>,
    states: Vec<DeviceState>,
}

impl Swapper {
    /// The set-up: place and route both libraries, then boot.
    fn set_up() -> Result<Swapper, String> {
        let libs = libraries()?;
        let states = boot(&libs)?;
        Ok(Swapper {
            libs: libs.into_iter().map(|(lib, _)| lib).collect(),
            states,
        })
    }

    fn pass(
        &mut self,
        keys: &[Key],
        tr: &mut Tracer,
        m: &mut Measured,
    ) -> Result<(PassFacts, PassTimes), String> {
        let cache0: Vec<(usize, usize)> = self
            .states
            .iter()
            .map(|s| (s.cache.hits(), s.cache.misses()))
            .collect();
        let mut fp = Fnv::new();
        let mut ops = Vec::with_capacity(keys.len());
        let mut times = PassTimes {
            busy_s: 0.0,
            cad_ms: Vec::with_capacity(keys.len()),
        };
        for (i, &key) in keys.iter().enumerate() {
            let op = i as u64;
            let t0 = Instant::now();
            let (facts, cad_ns, parsed) = self.op(key, op, tr, &mut fp)?;
            times.busy_s += t0.elapsed().as_secs_f64();
            tr.end(tr.is_on().then_some(t0), "op", op, 0);
            times.cad_ms.push(cad_ns as f64 / 1e6);
            if !facts.verified {
                m.failed += 1;
            }
            if let Some((design, partial)) = parsed {
                self.probe(key, op, &design, &partial, tr, m);
            }
            ops.push(facts);
        }
        let (mut hits, mut misses) = (0, 0);
        for (s, (h0, m0)) in self.states.iter().zip(cache0) {
            hits += s.cache.hits() - h0;
            misses += s.cache.misses() - m0;
        }
        Ok((
            PassFacts {
                fingerprint: fp.0,
                ops,
                cache_hits: hits,
                cache_misses: misses,
            },
            times,
        ))
    }

    /// One swap. Returns its facts, the CAD time (text in → `JWC1` out)
    /// and, when tracing, the parsed design and partial for the probes.
    fn op(
        &mut self,
        (d, r, v): Key,
        op: u64,
        tr: &mut Tracer,
        fp: &mut Fnv,
    ) -> Result<(OpFacts, u64, Traced), String> {
        let lib = &self.libs[d];
        let st = &mut self.states[d];
        let (xdl_text, ucf_text) = &lib.regions[r].variants[v];
        let t0 = Instant::now();

        let s = tr.begin();
        let design = xdl::parse(xdl_text).map_err(|e| e.to_string())?;
        let constraints = Constraints::parse(ucf_text).map_err(|e| e.to_string())?;
        tr.end(s, "xdl.parse", op, (xdl_text.len() + ucf_text.len()) as u64);

        let incremental = st.base_content[r];
        let s = tr.begin();
        let partial = if incremental {
            st.project
                .generate_partial_incremental(&design, &constraints, &st.cache)
        } else {
            st.project.generate_partial_from(&design, &constraints)
        }
        .map_err(|e| e.to_string())?;
        let project_span = if incremental {
            "project.incremental"
        } else {
            "project.wholesale"
        };
        tr.end(s, project_span, op, 0);

        let plain_bytes = partial.bitstream.byte_len();
        let s = tr.begin();
        let base = incremental.then_some(&lib.base as &dyn wire::FrameSource);
        let container = wire::encode(lib.device, &partial.bitstream, base);
        tr.end(s, "wire.encode", op, plain_bytes as u64);
        let cad_ns = t0.elapsed().as_nanos() as u64;
        fp.words(partial.bitstream.words());
        fp.bytes(&container.bytes);

        let s = tr.begin();
        let applied = wire::apply_streaming(&mut st.interp, &container.bytes)
            .map_err(|e| format!("apply {d}/{r}/{v}: {e}"))?;
        tr.end(s, "wire.apply", op, applied.words_applied as u64 * 4);
        st.base_content[r] = false;

        // Verify: digest the device's region and the stamped image's,
        // and let a raw compare decide when the digests disagree.
        let fw = partial.memory.frame_words();
        let frames: Vec<usize> = lib.regions[r]
            .verify
            .iter()
            .flat_map(|fr| fr.frames())
            .collect();
        let device_words: Vec<u32> = frames
            .iter()
            .flat_map(|&f| st.interp.memory().frame(f).iter().copied())
            .collect();
        let expected_words: Vec<u32> = frames
            .iter()
            .flat_map(|&f| partial.memory.frame(f).iter().copied())
            .collect();
        let s = tr.begin();
        let device_digests = RegionDigests::from_words(&device_words, fw);
        tr.end(s, "digest", op, device_words.len() as u64 * 4);
        let s = tr.begin();
        let expected_digests = RegionDigests::from_words(&expected_words, fw);
        tr.end(s, "digest", op, expected_words.len() as u64 * 4);
        let mut port_bytes = container.bytes.len() + device_digests.port_bytes();
        let verified = if device_digests == expected_digests {
            true
        } else {
            port_bytes += device_words.len() * 4;
            device_words == expected_words
        };
        let port_ns = simboard::port::download_ns(container.bytes.len())
            + simboard::port::download_ns(port_bytes - container.bytes.len());

        let facts = OpFacts {
            incremental,
            verified,
            plain_bytes,
            full_bytes: lib.full_bytes,
            wire_bytes: container.bytes.len(),
            decoded_bytes: container.stats.decoded_bytes,
            peak_buffer_words: applied.peak_buffer_words,
            port_bytes,
            port_ns,
        };
        Ok((facts, cad_ns, tr.is_on().then_some((design, partial))))
    }

    /// Traced-run probes, outside the operation's clock: translate the
    /// design cold and warm on a fresh tracked `Jbits`, and re-emit the
    /// partial's runs from the stamped image, checking the bytes.
    fn probe(
        &self,
        (d, _, _): Key,
        op: u64,
        design: &xdl::Design,
        partial: &jpg::PartialResult,
        tr: &mut Tracer,
        m: &mut Measured,
    ) {
        let lib = &self.libs[d];
        let mut jb = Jbits::from_memory_tracked(lib.base.clone());
        let s = tr.begin();
        let cold = jpg::apply_design(&mut jb, design);
        let writes = cold.as_ref().map(|st| st.total()).unwrap_or(0);
        tr.end(s, "translate.cold", op, writes as u64);
        let s = tr.begin();
        let warm = jpg::apply_design(&mut jb, design);
        tr.end(s, "translate.warm", op, writes as u64);
        m.check(cold.is_ok() && warm.is_ok(), || {
            format!("translate probe failed on op {op}")
        });

        let geom = partial.memory.geometry();
        let runs: Vec<FrameRange> =
            match reloc::parse::parse_partial(lib.device, geom, &partial.bitstream) {
                Ok(p) => p
                    .runs
                    .iter()
                    .map(|run| FrameRange::new(run.start, run.frame_count(p.flr)))
                    .collect(),
                Err(e) => {
                    m.problems
                        .push(format!("op {op}: partial does not re-parse: {e}"));
                    return;
                }
            };
        let s = tr.begin();
        let bits = partial_bitstream_par(&partial.memory, &runs);
        tr.end(s, "bitgen.emit", op, bits.byte_len() as u64);
        m.check(bits.words() == partial.bitstream.words(), || {
            format!("op {op}: re-emitted runs differ from the partial")
        });
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut clock = SetupClock::default();
    let mut swapper = clock.time(Swapper::set_up)?;

    // The pinned output check runs before the timed loop at a fixed
    // seed and the full pass size, whatever seed and size this run uses.
    let pinned_keys = pass_keys(&swapper.libs, PINNED_SEED, false);
    let (pinned, _) = swapper.pass(&pinned_keys, tr, &mut Measured::default())?;
    m.check(pinned.ops.iter().all(|o| o.verified), || {
        format!("a swap at seed {PINNED_SEED} did not verify")
    });
    m.check(pinned.fingerprint == PINNED_FINGERPRINT, || {
        format!(
            "output fingerprint at seed {PINNED_SEED} is {:#018x}, pinned {PINNED_FINGERPRINT:#018x}",
            pinned.fingerprint
        )
    });

    let keys = pass_keys(&swapper.libs, seed, smoke);
    let passes = ledger::run_passes(seconds, trace, tr, |tr| {
        clock.time(Swapper::set_up)?.pass(&keys, tr, &mut m)
    })?;
    m.set("setup_s", clock.median_s());
    m.passes = passes.len();
    m.workers = 1;
    m.attempted = (keys.len() * passes.len()) as u64;

    let first = &passes[0].1 .0;
    for (i, (_, (facts, _))) in passes.iter().enumerate().skip(1) {
        m.check(facts == first, || {
            format!("pass {i} output differs from pass 0")
        });
    }

    // Host-time metrics from the untraced passes.
    let untraced: Vec<&PassTimes> = passes
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, p)| &p.1)
        .collect();
    let traced: Vec<&PassTimes> = passes
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, p)| &p.1)
        .collect();
    let ops_per_s = |ps: &[&PassTimes]| {
        ledger::median(
            &ps.iter()
                .map(|p| p.cad_ms.len() as f64 / p.busy_s)
                .collect::<Vec<_>>(),
        )
    };
    let cad_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.cad_ms.iter().copied())
        .collect();
    m.set("ops_per_s", ops_per_s(&untraced));
    m.set("cad_ms_p50", ledger::median(&cad_ms));
    m.set("cad_ms_p99", ledger::quantile(&cad_ms, 0.99));

    // Modelled and byte-level figures from the first pass (all agree).
    let ops = &first.ops;
    let n = ops.len() as f64;
    let port_us: Vec<f64> = ops.iter().map(|o| o.port_ns as f64 / 1e3).collect();
    m.set("port_us_p50", ledger::median(&port_us));
    m.set("port_us_p99", ledger::quantile(&port_us, 0.99));
    m.set(
        "port_bytes_per_op",
        ops.iter().map(|o| o.port_bytes as f64).sum::<f64>() / n,
    );
    m.set(
        "partial_fraction",
        ops.iter()
            .map(|o| o.plain_bytes as f64 / o.full_bytes as f64)
            .sum::<f64>()
            / n,
    );
    m.set("fail_share", m.failed as f64 / m.attempted as f64);
    let lookups = (first.cache_hits + first.cache_misses) as f64;
    m.set("cache.lookups", lookups);
    m.set(
        "cache.hit_ratio",
        ledger::ratio(first.cache_hits as f64, lookups),
    );
    m.set(
        "wire.ratio",
        ops.iter().map(|o| o.decoded_bytes as f64).sum::<f64>()
            / ops.iter().map(|o| o.wire_bytes as f64).sum::<f64>(),
    );
    m.set(
        "wire.peak_buffer_words",
        ops.iter().map(|o| o.peak_buffer_words).max().unwrap_or(0) as f64,
    );

    if trace {
        m.set(
            "obs.trace_overhead",
            ledger::trace_overhead(ops_per_s(&untraced), ops_per_s(&traced)),
        );
        m.set("xdl.parse_ms_p50", tr.p50_ms("xdl.parse"));
        m.set("xdl.parse_mb_per_s", tr.mb_per_s("xdl.parse"));
        let cold = tr.p50_ms("translate.cold");
        let (writes, cold_s) = tr.totals("translate.cold");
        m.set("translate.cold_ms_p50", cold);
        m.set(
            "translate.writes_per_s",
            ledger::ratio(writes as f64, cold_s),
        );
        m.set(
            "translate.cold_warm_ratio",
            ledger::ratio(cold, tr.p50_ms("translate.warm")),
        );
        m.set("project.wholesale_ms_p50", tr.p50_ms("project.wholesale"));
        m.set(
            "project.incremental_ms_p50",
            tr.p50_ms("project.incremental"),
        );
        m.set("bitgen.emit_ms_p50", tr.p50_ms("bitgen.emit"));
        m.set("bitgen.emit_mb_per_s", tr.mb_per_s("bitgen.emit"));
        m.set("wire.encode_mb_per_s", tr.mb_per_s("wire.encode"));
        m.set("wire.apply_mb_per_s", tr.mb_per_s("wire.apply"));
        m.set("digest.mb_per_s", tr.mb_per_s("digest"));
    }
    Ok(m)
}
