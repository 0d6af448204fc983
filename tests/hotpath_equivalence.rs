//! Equivalence guarantees of the pooled hot-path generator:
//!
//! * `bitgen::partial_bitstream_pooled` is **byte-identical** to
//!   `partial_bitstream` for golden-fixture-grade designs and randomized
//!   dirty sets — with one `GenScratch` recycled across every
//!   generation, so stale-buffer bugs cannot hide;
//! * the `_into` coalescer feeding it matches the owned coalescer;
//! * the conformance trio (generator / interpreter / differ) still
//!   agrees end to end across seeds after the hot-path overhaul.

use bitstream::bitgen::{self, GenScratch};
use bitstream::Interpreter;
use jbits::{Granularity, Jbits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use virtex::{ConfigMemory, Device, LutId, SliceId, TileCoord};

/// An image with `writes` random bits set (each in a random frame).
fn random_dirty_memory(device: Device, seed: u64, writes: usize) -> ConfigMemory {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mem = ConfigMemory::new(device);
    let frame_bits = mem.geometry().frame_bits();
    for _ in 0..writes {
        let f = rng.gen_range(0..mem.frame_count());
        let b = rng.gen_range(0..frame_bits);
        mem.set_bit(f, b, true);
    }
    mem
}

/// Mirror of the golden-vector base design (tests/golden_vectors.rs):
/// fixed JBits writes over three XCV50 columns, no RNG.
fn golden_base() -> Jbits {
    let mut jb = Jbits::new(Device::XCV50);
    for row in 0..8 {
        let t = TileCoord::new(2, row);
        jb.set_lut(t, SliceId::S0, LutId::F, 0x8000u16.rotate_right(row as u32));
        jb.set_lut(t, SliceId::S1, LutId::G, 0x6996);
    }
    for row in 4..10 {
        let t = TileCoord::new(9, row);
        jb.set_lut(t, SliceId::S0, LutId::G, 0xCAFE ^ (row as u16));
    }
    jb.set_lut(TileCoord::new(15, 15), SliceId::S1, LutId::F, 0x0001);
    jb
}

#[test]
fn pooled_matches_serial_on_the_golden_design() {
    // The golden base plus the golden variant's module rewrite, run
    // through serial and pooled generation from the same dirty set.
    let base = golden_base();
    // `from_memory` resets the dirty baseline, so the set below holds
    // exactly the module rewrite.
    let mut var = Jbits::from_memory(base.memory().clone());
    for row in 4..10 {
        let t = TileCoord::new(9, row);
        var.set_lut(t, SliceId::S0, LutId::G, 0x1234 + row as u16);
        var.set_lut(t, SliceId::S1, LutId::F, 0x00FF);
    }
    let mem = var.memory();
    let ranges = bitgen::coalesce_frames(mem.dirty_frames());
    assert!(!ranges.is_empty());
    let serial = bitgen::partial_bitstream(mem, &ranges);
    let mut scratch = GenScratch::new();
    let pooled = bitgen::partial_bitstream_pooled(mem, &ranges, &mut scratch);
    assert_eq!(serial.to_bytes(), pooled.to_bytes());

    // Sanity: the column-granular JBits partial still applies the same
    // module content (coarser frame set, same final state).
    let column = var.partial_bitstream(Granularity::Column);
    let mut a = Interpreter::new(Device::XCV50);
    a.feed(&base.full_bitstream()).unwrap();
    a.feed(&pooled).unwrap();
    let mut b = Interpreter::new(Device::XCV50);
    b.feed(&base.full_bitstream()).unwrap();
    b.feed(&column).unwrap();
    assert_eq!(a.memory(), b.memory());
}

#[test]
fn pooled_is_byte_identical_across_devices_and_dirty_sets() {
    // One scratch across every device and seed: each generation must be
    // insensitive to whatever the previous one left in the buffers.
    let mut scratch = GenScratch::new();
    let mut frames = Vec::new();
    let mut ranges = Vec::new();
    for (i, device) in Device::ALL.into_iter().enumerate() {
        for seed in 0..4u64 {
            let writes = 1 + (seed as usize * 73) % 400;
            let mem = random_dirty_memory(device, 0xB00 + 31 * i as u64 + seed, writes);

            frames.clear();
            mem.dirty_frames_into(&mut frames);
            bitgen::coalesce_frames_bridged_into(&mut frames, 0, &mut ranges);
            assert_eq!(ranges, bitgen::coalesce_frames(mem.dirty_frames()));

            let serial = bitgen::partial_bitstream(&mem, &ranges);
            let pooled = bitgen::partial_bitstream_pooled(&mem, &ranges, &mut scratch);
            assert_eq!(
                serial.to_bytes(),
                pooled.to_bytes(),
                "pooled diverges on {device} seed {seed}"
            );

            // The pooled partial really lands the image it was cut from.
            let mut dev = Interpreter::new(device);
            dev.feed(&pooled).expect("pooled partial applies");
            assert_eq!(dev.memory(), &mem, "applied state wrong on {device}");
            scratch.recycle(pooled);
        }
    }
}

#[test]
fn conformance_trio_still_agrees_after_the_overhaul() {
    // The full generator/interpreter/differ cross-check campaign on a
    // handful of seeds: any packet-framing or CRC regression the unit
    // equivalences miss surfaces here as a trio disagreement.
    for seed in [3u64, 17, 40_004] {
        conformance::harness::run_project_case(seed)
            .unwrap_or_else(|f| panic!("conformance case {seed} failed: {f:?}"));
    }
}
