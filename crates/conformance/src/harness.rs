//! The differential harness: run a campaign through the partial
//! emitter on fresh and recycled buffers, assert the streams are
//! byte-identical, play them onto a device-side interpreter, and
//! readback-compare against the in-memory oracle — under honest and
//! adversarial stream schedules.

use crate::campaign::Campaign;
use bitstream::bitgen::{partial_bitstream_pooled, GenScratch};
use bitstream::readback::readback_frames;
use bitstream::{
    full_bitstream, partial_bitstream, Bitstream, Command, ConfigError, FrameRange, Interpreter,
    Packet, Register,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simboard::SelectMap;
use virtex::ConfigMemory;

/// How the partial is delivered to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One clean load.
    Plain,
    /// Load, then two back-to-back readbacks with an unharvested STAT
    /// poll between them (the stale-buffer trap).
    ReadbackAfterReadback,
    /// The ranges split into two partials, loaded with a readback
    /// interleaved between them.
    InterleavedPartials,
    /// A truncated prefix of the stream (an aborted transfer), then the
    /// full stream from scratch — the abort-and-rebase path.
    AbortAndRebase,
}

const SCHEDULES: [Schedule; 4] = [
    Schedule::Plain,
    Schedule::ReadbackAfterReadback,
    Schedule::InterleavedPartials,
    Schedule::AbortAndRebase,
];

/// A conformance failure, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Campaign seed.
    pub seed: u64,
    /// Which check tripped.
    pub stage: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {}: {} — {}", self.seed, self.stage, self.detail)
    }
}

impl std::error::Error for Failure {}

/// Per-case statistics for reporting.
#[derive(Debug, Clone, Copy)]
pub struct CaseOutcome {
    /// Device fuzzed.
    pub device: virtex::Device,
    /// Dirty ranges the partial covered.
    pub ranges: usize,
    /// Frames the partial wrote.
    pub frames: usize,
    /// Stream length in words.
    pub stream_words: usize,
    /// Delivery schedule exercised.
    pub schedule: Schedule,
}

fn fail(seed: u64, stage: &'static str, detail: String) -> Failure {
    Failure {
        seed,
        stage,
        detail,
    }
}

/// Readback every range and compare against `oracle`.
fn readback_verify(
    seed: u64,
    dev: &mut Interpreter,
    ranges: &[FrameRange],
    oracle: &ConfigMemory,
) -> Result<(), Failure> {
    for r in ranges {
        let frames = readback_frames(dev, *r)
            .map_err(|e| fail(seed, "readback", format!("range {r:?}: {e}")))?;
        for (k, fr) in frames.iter().enumerate() {
            let f = r.start + k;
            if fr.as_slice() != oracle.frame(f) {
                return Err(fail(
                    seed,
                    "readback-compare",
                    format!("frame {f} differs from oracle (range {r:?})"),
                ));
            }
        }
    }
    Ok(())
}

/// An unharvested STAT poll: leaves one word in the readback buffer on
/// purpose, the way a health check that forgot `take_readback` would.
fn stat_poll(dev: &mut Interpreter, seed: u64) -> Result<(), Failure> {
    let words = vec![
        bitstream::packet::DUMMY_WORD,
        bitstream::SYNC_WORD,
        Packet::read1(Register::Stat, 1).encode(),
        Packet::write1(Register::Cmd, 1).encode(),
        Command::Desynch.code(),
    ];
    dev.feed_words(&words)
        .map_err(|e| fail(seed, "stat-poll", e.to_string()))
}

/// Run one campaign case end to end. `Ok` carries reporting stats; `Err`
/// is a conformance violation.
pub fn run_case(seed: u64) -> Result<CaseOutcome, Failure> {
    obs::counter!("conformance_cases_total").inc();
    let campaign = Campaign::generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_u64);

    // Base image: blank, with occasional background noise so readback
    // compares see non-zero content outside the campaign's frames too.
    let mut base = ConfigMemory::new(campaign.device);
    if rng.gen_bool(0.25) {
        let total = base.frame_count();
        let bits = base.geometry().frame_bits();
        for _ in 0..rng.gen_range(1usize..6) {
            let f = rng.gen_range(0..total);
            let b = rng.gen_range(0..bits);
            base.set_bit(f, b, true);
        }
        base.clear_dirty();
    }

    let variant = campaign.apply(&base);
    let max_gap = usize::from(rng.gen_bool(0.5));
    let ranges = bitstream::bitgen::coalesce_frames_bridged(variant.dirty_frames(), max_gap);

    // Differential check: fresh and recycled buffers must agree to the
    // byte. The scratch first holds a copy of the fresh stream, so any
    // word left over from the previous generation would show.
    let serial = partial_bitstream(&variant, &ranges);
    let mut scratch = GenScratch::new();
    scratch.recycle(serial.clone());
    let pooled = partial_bitstream_pooled(&variant, &ranges, &mut scratch);
    if serial.to_bytes() != pooled.to_bytes() {
        return Err(fail(
            seed,
            "differential",
            format!(
                "fresh and pooled emission disagree ({} vs {} words)",
                serial.word_len(),
                pooled.word_len()
            ),
        ));
    }

    // Device under test. Most cases warm-start from the base image; a
    // fraction go through the full-bitstream load path on a SelectMAP
    // port to keep that path under the same oracle.
    let mut dev = if rng.gen_bool(1.0 / 16.0) {
        let mut port = SelectMap::new(campaign.device);
        port.load(&full_bitstream(&base))
            .map_err(|e| fail(seed, "base-load", e.to_string()))?;
        port.interpreter().clone()
    } else {
        Interpreter::with_memory(base.clone())
    };

    let schedule = SCHEDULES[rng.gen_range(0..SCHEDULES.len())];
    let crc_checks_before = dev.stats().crc_checks;
    match schedule {
        Schedule::Plain => {
            dev.feed(&serial)
                .map_err(|e| fail(seed, "apply", e.to_string()))?;
        }
        Schedule::ReadbackAfterReadback => {
            dev.feed(&serial)
                .map_err(|e| fail(seed, "apply", e.to_string()))?;
            readback_verify(seed, &mut dev, &ranges, &variant)?;
            stat_poll(&mut dev, seed)?;
            // The poll's word is deliberately left unharvested.
            readback_verify(seed, &mut dev, &ranges, &variant)?;
        }
        Schedule::InterleavedPartials => {
            let mid = ranges.len() / 2;
            let (a, b) = ranges.split_at(mid);
            let pa = partial_bitstream(&variant, a);
            let pb = partial_bitstream(&variant, b);
            dev.feed(&pa)
                .map_err(|e| fail(seed, "apply-first-half", e.to_string()))?;
            readback_verify(seed, &mut dev, a, &variant)?;
            dev.feed(&pb)
                .map_err(|e| fail(seed, "apply-second-half", e.to_string()))?;
        }
        Schedule::AbortAndRebase => {
            if serial.word_len() > 4 {
                let cut = rng.gen_range(3..serial.word_len());
                let mut aborted = Interpreter::with_memory(base.clone());
                match aborted.feed_words_traced(&serial.words()[..cut]) {
                    Ok(()) => {}
                    Err(d) => {
                        // A truncated stream must fail gracefully with a
                        // located diagnostic, never panic.
                        if d.word_offset >= cut {
                            return Err(fail(
                                seed,
                                "abort-diagnostic",
                                format!("offset {} past cut {}", d.word_offset, cut),
                            ));
                        }
                        match d.error {
                            ConfigError::TruncatedPayload => {}
                            other => {
                                return Err(fail(
                                    seed,
                                    "abort-diagnostic",
                                    format!("unexpected error on clean prefix: {other}"),
                                ));
                            }
                        }
                    }
                }
            }
            // Rebase: the full stream onto the (possibly half-written)
            // device restores the exact oracle state.
            dev.feed(&serial)
                .map_err(|e| fail(seed, "rebase-apply", e.to_string()))?;
        }
    }

    // Oracle checks, common to all schedules.
    if dev.memory() != &variant {
        return Err(fail(
            seed,
            "oracle",
            format!(
                "device memory diverges from oracle in {} frame(s)",
                dev.memory().diff_frames(&variant).len()
            ),
        ));
    }
    if dev.stats().crc_checks == crc_checks_before {
        return Err(fail(
            seed,
            "crc-coverage",
            "no CRC check ran during the load".into(),
        ));
    }
    readback_verify(seed, &mut dev, &ranges, &variant)?;
    // Post-stream followup: the port must accept a fresh stream (a
    // skipped DESYNCH leaves it mid-parse; this is PR 2's seed bug).
    stat_poll(&mut dev, seed)?;

    Ok(CaseOutcome {
        device: campaign.device,
        ranges: ranges.len(),
        frames: ranges.iter().map(|r| r.len).sum(),
        stream_words: serial.word_len(),
        schedule,
    })
}

/// Run `count` cases from `first_seed`, stopping at the first failure.
pub fn run_batch(first_seed: u64, count: u64) -> Result<Vec<CaseOutcome>, Failure> {
    (first_seed..first_seed + count).map(run_case).collect()
}

/// Project-level differential: implement real module variants with the
/// CAD flow and cross-check three partials — a full-memory-diff
/// reference rebuilt here from public calls, the project's wholesale
/// generator, and its incremental generator — against one simulated
/// board oracle each.
pub fn run_project_case(seed: u64) -> Result<(), Failure> {
    use jpg::workflow::{build_base, implement_variant, ModuleSpec};
    use jpg::JpgProject;

    let device = virtex::Device::XCV50;
    let rows = device.geometry().clb_rows as i32;
    let modules = vec![ModuleSpec {
        prefix: "mod1/".into(),
        netlist: cadflow::gen::counter("up", 2),
        region: xdl::Rect::new(0, 2, rows - 1, 9),
    }];
    let base = build_base("conf-base", device, &modules, seed)
        .map_err(|e| fail(seed, "build-base", e.to_string()))?;
    let nl = match seed % 3 {
        0 => cadflow::gen::down_counter("down", 2),
        1 => cadflow::gen::gray_counter("gray", 2),
        _ => cadflow::gen::lfsr("lfsr", 3),
    };
    let variant = implement_variant(&base, "mod1/", &nl, seed)
        .map_err(|e| fail(seed, "implement-variant", e.to_string()))?;

    let project = JpgProject::open(base.bitstream.clone())
        .map_err(|e| fail(seed, "open-project", e.to_string()))?;
    let constraints = xdl::Constraints::parse(&variant.ucf)
        .map_err(|e| fail(seed, "parse-ucf", e.to_string()))?;

    let wholesale = project
        .generate_partial_from(&variant.design, &constraints)
        .map_err(|e| fail(seed, "wholesale", e.to_string()))?;
    // The classic JBitsDiff column flow: a ground-truth full-memory diff
    // of the stamped image against the base (no dirty marks, no frame
    // cache), expanded to whole configuration columns.
    let full_diff = {
        let stamped = &wholesale.memory;
        let diff = stamped.diff_frames(project.base_memory());
        let frames = jbits::expand_to_columns(stamped, diff);
        partial_bitstream(stamped, &bitstream::bitgen::coalesce_frames(frames))
    };
    let cache = jpg::FrameCache::new();
    cache.prime(project.base_memory());
    let incremental = project
        .generate_partial_incremental(&variant.design, &constraints, &cache)
        .map_err(|e| fail(seed, "incremental", e.to_string()))?;

    // Both generators must stamp the identical variant image…
    if wholesale.memory != incremental.memory {
        return Err(fail(
            seed,
            "project-stamp",
            "generators stamped different images".into(),
        ));
    }
    // …and each stream, applied over the base, must land that image.
    for (name, bits) in [
        ("full-diff", &full_diff),
        ("wholesale", &wholesale.bitstream),
        ("incremental", &incremental.bitstream),
    ] {
        let mut dev = Interpreter::with_memory(project.base_memory().clone());
        dev.feed(bits)
            .map_err(|e| fail(seed, "project-apply", format!("{name}: {e}")))?;
        if dev.memory() != &wholesale.memory {
            return Err(fail(
                seed,
                "project-oracle",
                format!("{name} landed a different device state"),
            ));
        }
    }
    Ok(())
}

/// Apply `bits` to a device warm-started from `base` and run the
/// harness's standard oracle checks against `oracle`. Shared by the
/// seeded-mutation self-check, which swaps in buggy streams and expects
/// at least one check to trip.
pub fn check_stream(
    seed: u64,
    base: &ConfigMemory,
    bits: &Bitstream,
    ranges: &[FrameRange],
    oracle: &ConfigMemory,
) -> Result<(), Failure> {
    let mut dev = Interpreter::with_memory(base.clone());
    dev.feed(bits)
        .map_err(|e| fail(seed, "apply", e.to_string()))?;
    if dev.memory() != oracle {
        return Err(fail(
            seed,
            "oracle",
            format!(
                "device memory diverges in {} frame(s)",
                dev.memory().diff_frames(oracle).len()
            ),
        ));
    }
    if dev.stats().crc_checks == 0 {
        return Err(fail(
            seed,
            "crc-coverage",
            "no CRC check ran during the load".into(),
        ));
    }
    readback_verify(seed, &mut dev, ranges, oracle)?;
    stat_poll(&mut dev, seed)?;
    Ok(())
}
