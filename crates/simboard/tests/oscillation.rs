//! A LUT fed back to its own input through PIPs. With an inverter the
//! loop never settles: the simulator must give up after its pass bound
//! (`#pips + #slices + 2`) with `DecodeError::Oscillation`, and a board
//! must refuse the configuration. With a buffer the same loop settles.

use bitstream::ConfigError;
use jbits::{Jbits, Layout, Xhwif};
use simboard::{DecodeError, FabricModel, FabricSim, SimBoard};
use std::collections::{HashMap, VecDeque};
use virtex::{
    ClbResource, ConfigMemory, Device, LutId, MuxSetting, Pip, ResourceValue, SliceId, SlicePin,
    SliceResource, TileCoord, Wire, WireKind,
};

const DEVICE: Device = Device::XCV50;

fn pin(tile: TileCoord, pin: SlicePin) -> Wire {
    Wire::new(
        tile,
        WireKind::SlicePin {
            slice: SliceId::S0,
            pin,
        },
    )
}

/// Shortest PIP path from `from` to `to` (breadth-first over the
/// routing graph).
fn route(from: Wire, to: Wire) -> Vec<Pip> {
    let graph = Layout::of(DEVICE).graph();
    let mut via: HashMap<Wire, Pip> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    let mut downhill = Vec::new();
    while let Some(w) = queue.pop_front() {
        if w == to {
            let mut path = Vec::new();
            let mut at = to;
            while at != from {
                let pip = via[&at];
                path.push(pip);
                at = pip.from;
            }
            path.reverse();
            return path;
        }
        downhill.clear();
        graph.downhill(w, &mut downhill);
        for &pip in &downhill {
            if pip.to != from && !via.contains_key(&pip.to) {
                via.insert(pip.to, pip);
                queue.push_back(pip.to);
            }
        }
    }
    panic!("no route from {from} to {to}");
}

/// Slice S0 of one CLB with F LUT `table` driving X, and X routed back
/// to F1.
fn feedback_loop(table: u16) -> (ConfigMemory, usize) {
    let tile = TileCoord::new(5, 5);
    let mut jb = Jbits::new(DEVICE);
    jb.set_lut(tile, SliceId::S0, LutId::F, table);
    jb.set(
        tile,
        ClbResource::new(SliceId::S0, SliceResource::FxMux),
        ResourceValue::new(MuxSetting::Primary.encode(), 2),
    );
    let path = route(pin(tile, SlicePin::X), pin(tile, SlicePin::F1));
    for pip in &path {
        assert!(jb.set_pip(pip, true));
    }
    (jb.into_memory(), path.len())
}

#[test]
fn inverter_loop_oscillates_and_the_board_refuses_it() {
    // F = NOT(F1).
    let (mem, hops) = feedback_loop(0x5555);
    assert!(hops >= 2, "the loop runs through the routing");
    let model = FabricModel::decode(&mem).expect("a legal, uncontended configuration");
    assert_eq!(model.slices.len(), 1);
    assert_eq!(model.pips.len(), hops);
    assert_eq!(FabricSim::new(model).unwrap_err(), DecodeError::Oscillation);

    let mut board = SimBoard::new(DEVICE);
    let err = board
        .set_configuration(&bitstream::full_bitstream(&mem))
        .unwrap_err();
    assert!(
        matches!(err, ConfigError::InvalidConfiguration(ref m) if m.contains("does not settle")),
        "{err:?}"
    );
}

#[test]
fn buffer_loop_settles() {
    // F = F1: the loop holds its value instead of toggling.
    let (mem, _) = feedback_loop(0xAAAA);
    let model = FabricModel::decode(&mem).unwrap();
    let mut sim = FabricSim::new(model).expect("a buffer loop settles");
    sim.clock().unwrap();
    sim.reset();
}
