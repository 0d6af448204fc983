//! Equivalence guarantees of the incremental generation engine:
//!
//! * the partial emitter lands exactly the image it was cut from, and
//!   its pooled form (`bitgen::partial_bitstream_pooled`, one recycled
//!   `GenScratch`) is **byte-identical** to the fresh one, for every
//!   device and randomized dirty set we throw at it;
//! * the dirty-frame byproduct of writing through the configuration API
//!   reports exactly the frames a ground-truth full-memory diff reports
//!   (and stays a superset when writes revert);
//! * the incremental variant-library builder produces partials that land
//!   the device in the same final state as the wholesale builder.

use bitstream::bitgen::{self, GenScratch};
use bitstream::Interpreter;
use cadflow::gen;
use jpg::workflow::{
    build_base, build_variant_library, build_variant_library_incremental, ModuleSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use virtex::{ConfigMemory, Device};
use xdl::Rect;

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

#[test]
fn partial_lands_its_image_on_every_device() {
    let mut scratch = GenScratch::new();
    for (i, device) in Device::ALL.into_iter().enumerate() {
        let mem = random_dirty_memory(device, 0xA5A5 + i as u64, 200);
        let ranges = bitgen::coalesce_frames(mem.dirty_frames());
        assert!(!ranges.is_empty());
        let bits = bitgen::partial_bitstream(&mem, &ranges);
        let pooled = bitgen::partial_bitstream_pooled(&mem, &ranges, &mut scratch);
        assert_eq!(
            bits.to_bytes(),
            pooled.to_bytes(),
            "fresh/pooled outputs diverge on {device}"
        );
        scratch.recycle(pooled);

        // The partial really configures the frames it claims: applying it
        // to an erased device reproduces the image (untouched frames are
        // zero on both sides).
        let mut dev = Interpreter::new(device);
        dev.feed(&bits).expect("partial applies");
        assert_eq!(dev.memory(), &mem, "applied state wrong on {device}");
    }
}

#[test]
fn pooled_is_byte_identical_across_random_dirty_sets() {
    // Many dirty-set shapes on one mid-size device: sparse, dense, and
    // everything between, through one recycled scratch.
    let mut scratch = GenScratch::new();
    for seed in 0..20u64 {
        let writes = 1 + (seed as usize * 37) % 500;
        let mem = random_dirty_memory(Device::XCV300, 0xD1CE + seed, writes);
        let ranges = bitgen::coalesce_frames(mem.dirty_frames());
        let bits = bitgen::partial_bitstream(&mem, &ranges);
        let pooled = bitgen::partial_bitstream_pooled(&mem, &ranges, &mut scratch);
        assert_eq!(bits, pooled, "seed {seed} ({writes} writes)");
        let mut dev = Interpreter::new(Device::XCV300);
        dev.feed(&pooled).expect("partial applies");
        assert_eq!(dev.memory(), &mem, "applied state wrong, seed {seed}");
        scratch.recycle(pooled);
    }
}

#[test]
fn dirty_tracking_reports_exactly_the_full_diff() {
    for (i, device) in [Device::XCV50, Device::XCV300, Device::XCV1000]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(31 + i as u64);
        let base = random_dirty_memory(device, 99 + i as u64, 150);
        let mut work = base.clone();
        work.clear_dirty();

        // Flip distinct bits only, so no frame can revert to base content:
        // the dirty set must then equal the ground-truth diff exactly.
        let frame_bits = work.geometry().frame_bits();
        let mut used = HashSet::new();
        let mut flips = 0;
        while flips < 400 {
            let f = rng.gen_range(0..work.frame_count());
            let b = rng.gen_range(0..frame_bits);
            if !used.insert((f, b)) {
                continue;
            }
            let cur = work.get_bit(f, b);
            work.set_bit(f, b, !cur);
            flips += 1;
        }
        assert_eq!(
            work.dirty_frames(),
            work.diff_frames(&base),
            "dirty set diverges from full diff on {device}"
        );
    }
}

#[test]
fn dirty_tracking_is_superset_of_diff_under_reverts() {
    let base = ConfigMemory::new(Device::XCV100);
    let mut work = base.clone();
    // Touch three frames; revert one of them completely.
    work.set_bit(100, 5, true);
    work.set_bit(200, 6, true);
    work.set_bit(300, 7, true);
    work.set_bit(200, 6, false);
    let diff = work.diff_frames(&base);
    let dirty = work.dirty_frames();
    assert_eq!(diff, vec![100, 300]);
    assert_eq!(dirty, vec![100, 200, 300]);
    assert!(diff.iter().all(|f| dirty.contains(f)));
}

#[test]
fn incremental_library_matches_wholesale_final_state() {
    let rows = Device::XCV50.geometry().clb_rows as i32;
    let modules = vec![ModuleSpec {
        prefix: "mod1/".into(),
        netlist: gen::counter("up", 3),
        region: Rect::new(0, 1, rows - 1, 8),
    }];
    let base = build_base("equiv", Device::XCV50, &modules, 21).unwrap();
    let variants = vec![
        gen::down_counter("down", 3),
        gen::gray_counter("gray", 3),
        gen::lfsr("lfsr", 3),
    ];
    let wholesale = build_variant_library(&base, "mod1/", &variants, 7).unwrap();
    let incremental = build_variant_library_incremental(&base, "mod1/", &variants, 7).unwrap();
    assert_eq!(wholesale.len(), incremental.len());

    for ((wn, wp), (inn, ip)) in wholesale.iter().zip(&incremental) {
        assert_eq!(wn, inn);
        // The incremental partial never writes more frames than the
        // wholesale one, and is never larger on the wire.
        assert!(
            ip.frames <= wp.frames,
            "{wn}: {} > {}",
            ip.frames,
            wp.frames
        );
        assert!(ip.bitstream.byte_len() <= wp.bitstream.byte_len());
        // Both stamp the same configuration image.
        assert_eq!(wp.memory, ip.memory, "{wn}: stamped images differ");

        // Applied on a device holding the pristine base, both partials
        // land the same final state.
        let mut dev_w = Interpreter::new(Device::XCV50);
        dev_w.feed(&base.bitstream.bitstream).unwrap();
        dev_w.feed(&wp.bitstream).unwrap();
        let mut dev_i = Interpreter::new(Device::XCV50);
        dev_i.feed(&base.bitstream.bitstream).unwrap();
        dev_i.feed(&ip.bitstream).unwrap();
        assert_eq!(dev_w.memory(), dev_i.memory(), "{wn}: final states differ");
        assert_eq!(
            dev_i.memory(),
            &ip.memory,
            "{wn}: incremental misses frames"
        );
    }
}
