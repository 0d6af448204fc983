//! Relocatable cores, verified behaviourally: a module implemented in
//! one column range is extracted as an RTP core, stamped at a different
//! column offset on a blank device, and must *run* there — pads shift
//! with their columns, routing translates, the counter still counts.

mod common;

use cadflow::gen;
use jbits::{Jbits, RtpCore, Xhwif};
use jpg::workflow::{build_base, ModuleSpec};
use simboard::SimBoard;
use virtex::{Device, IobCoord, TileCoord};
use xdl::{Placement, Rect};

#[test]
fn relocated_counter_still_counts() {
    // Phase 1: counter in columns 1..=8 of an XCV50.
    let base = build_base(
        "reloc",
        Device::XCV50,
        &[ModuleSpec {
            prefix: "m/".into(),
            netlist: gen::counter("up", 3),
            region: Rect::new(0, 1, 15, 8),
        }],
        17,
    )
    .unwrap();

    // Extract the region as a relocatable core and stamp it 12 columns
    // to the right.
    let jb = Jbits::from_memory(base.memory.clone());
    let core = RtpCore::extract(&jb, 1..=8);
    assert!(core.op_count() > 0);
    const SHIFT: i32 = 12;
    let mut relocated = Jbits::new(Device::XCV50);
    core.stamp(&mut relocated, (1 + SHIFT) as usize).unwrap();

    // Run both images and compare behaviour cycle by cycle.
    let mut orig_board = SimBoard::new(Device::XCV50);
    orig_board
        .set_configuration(&base.bitstream.bitstream)
        .unwrap();
    let mut reloc_board = SimBoard::new(Device::XCV50);
    reloc_board
        .set_configuration(&relocated.full_bitstream())
        .unwrap();

    let shifted =
        |io: IobCoord| IobCoord::new(TileCoord::new(io.tile.row, io.tile.col + SHIFT), io.pad);
    let pad_of = |name: &str| match base.design.instance(name).unwrap().placement {
        Placement::Iob(io) => io,
        _ => panic!("{name} is not a pad"),
    };

    orig_board.set_pad(pad_of("m/en"), true);
    reloc_board.set_pad(shifted(pad_of("m/en")), true);
    for cycle in 0..20 {
        for i in 0..3 {
            let name = format!("m/q[{i}]");
            assert_eq!(
                orig_board.get_pad(pad_of(&name)),
                reloc_board.get_pad(shifted(pad_of(&name))),
                "bit {i} diverged at cycle {cycle}"
            );
        }
        orig_board.clock_step(1);
        reloc_board.clock_step(1);
    }
    // And it genuinely counted (not stuck at zero).
    let q = common::read_bus(&orig_board, &common::pad_map(&base.design), "m/q");
    assert_eq!(q, 20 % 8);
}

#[test]
fn core_stamped_as_partial_onto_running_base() {
    // Stamp a second copy of a module into free columns of a live device
    // via a partial bitstream: two independent counters from one
    // implementation run.
    let base = build_base(
        "dup",
        Device::XCV50,
        &[ModuleSpec {
            prefix: "m/".into(),
            netlist: gen::counter("up", 3),
            region: Rect::new(0, 1, 15, 8),
        }],
        23,
    )
    .unwrap();
    let jb = Jbits::from_memory(base.memory.clone());
    let core = RtpCore::extract(&jb, 1..=8);

    // Build the partial: stamp the copy into columns 13..=20 of the base
    // image and emit only the dirtied columns. The copy must not fight
    // over the original's clock tree, so it is remapped to GCLK1.
    let mut session = Jbits::from_memory(base.memory.clone());
    session.clear_dirty();
    let core = core.remap_clock(1);
    core.stamp(&mut session, 13).unwrap();
    let partial = session.partial_bitstream(jbits::Granularity::Column);
    assert!(partial.byte_len() < base.bitstream.bitstream.byte_len() / 2);

    let mut board = SimBoard::new(Device::XCV50);
    board.set_configuration(&base.bitstream.bitstream).unwrap();
    board.set_configuration(&partial).unwrap();

    let pad_of = |name: &str| match base.design.instance(name).unwrap().placement {
        Placement::Iob(io) => io,
        _ => panic!(),
    };
    let shifted =
        |io: IobCoord| IobCoord::new(TileCoord::new(io.tile.row, io.tile.col + 12), io.pad);
    // Enable only the copy; the original stays frozen.
    board.set_pad(shifted(pad_of("m/en")), true);
    board.clock_step(5);
    let copy_q: u64 = (0..3)
        .map(|i| (board.get_pad(shifted(pad_of(&format!("m/q[{i}]")))) as u64) << i)
        .sum();
    let orig_q: u64 = (0..3)
        .map(|i| (board.get_pad(pad_of(&format!("m/q[{i}]"))) as u64) << i)
        .sum();
    assert_eq!(copy_q, 5, "the stamped copy should be counting");
    assert_eq!(orig_q, 0, "the original (en=0) should hold at zero");
}
