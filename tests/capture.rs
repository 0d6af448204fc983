//! The CAPTURE facility end-to-end: snapshot a *running* design's
//! flip-flop state into the configuration plane and recover the register
//! values through readback — the hardware-debug loop of the JBits era.

mod common;

use cadflow::{gen, implement, FlowOptions};
use common::{drive, pad_map, read_bus};
use jbits::{Jbits, Xhwif};
use simboard::SimBoard;
use virtex::{Device, SliceCoord};
use xdl::{Constraints, Placement};

#[test]
fn captured_ff_state_matches_live_counter() {
    let nl = gen::counter("cnt", 4);
    let (design, _) = implement(
        &nl,
        Device::XCV50,
        &Constraints::default(),
        "",
        None,
        &FlowOptions::default(),
    )
    .unwrap();

    let mut jb = Jbits::new(Device::XCV50);
    jpg::apply_design(&mut jb, &design).unwrap();
    let mut board = SimBoard::new(Device::XCV50);
    board.set_configuration(&jb.full_bitstream()).unwrap();
    let pads = pad_map(&design);

    drive(&mut board, &pads, "en", true);
    board.clock_step(11);
    let live_q = read_bus(&board, &pads, "q");
    assert_eq!(live_q, 11);

    // Snapshot and read the configuration back.
    board.capture();
    let words = board.get_configuration().unwrap();
    let mut mem = virtex::ConfigMemory::new(Device::XCV50);
    mem.load_words(&words);
    let reader = Jbits::from_memory(mem);

    // Recover each q bit from its FF's capture slot. The counter's
    // registered cells are named "...q<i>..."-independent, so locate them
    // through the design database: the instance whose FFX/FFY logical
    // name ends in the register behind q[i].
    let mut recovered = 0u64;
    for i in 0..4 {
        // The q[i] output pad is fed by a net whose driver is the
        // registered slice output (XQ or YQ).
        let pad_inst = format!("q[{i}]");
        let net = design
            .nets
            .iter()
            .find(|n| n.inpins.iter().any(|p| p.inst == pad_inst))
            .expect("net feeding the pad");
        let driver = net.outpin.as_ref().unwrap();
        let inst = design.instance(&driver.inst).unwrap();
        let Placement::Slice(SliceCoord { tile, slice }) = inst.placement else {
            panic!("driver not a slice");
        };
        let x_ff = driver.pin == "XQ";
        assert!(x_ff || driver.pin == "YQ", "driver pin {}", driver.pin);
        if reader.get_captured_ff(tile, slice, x_ff) {
            recovered |= 1 << i;
        }
    }
    assert_eq!(recovered, live_q, "captured state diverges from live state");

    // The design keeps running after a capture.
    board.clock_step(3);
    assert_eq!(read_bus(&board, &pads, "q"), (live_q + 3) % 16);
}
