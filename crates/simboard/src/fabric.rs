//! Functional simulation of a *configured* fabric.
//!
//! [`FabricModel::decode`] reads a configuration memory back into typed
//! resources — the inverse of what JPG writes — and
//! [`FabricSim`] executes the decoded circuit: wires carry values across
//! enabled PIPs, LUTs evaluate their truth tables, flip-flops update on
//! the global clock. Nothing here consults the original netlist: if the
//! simulated behaviour matches the golden model, the whole
//! flow→bitstream→device pipeline is correct end to end.

use jbits::Jbits;
use std::collections::HashMap;
use virtex::{
    ClbResource, ConfigMemory, Device, IobResource, MuxSetting, SliceId, SlicePin, SliceResource,
    TileCoord, Wire, WireKind,
};

/// Decode failure: the configuration is not a legal circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Two enabled PIPs drive the same wire.
    Contention {
        /// The doubly driven wire.
        wire: String,
    },
    /// Combinational settling did not converge (a loop through enabled
    /// PIPs and LUTs).
    Oscillation,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Contention { wire } => write!(f, "wire {wire} has multiple drivers"),
            DecodeError::Oscillation => write!(f, "combinational loop does not settle"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One decoded slice.
#[derive(Debug, Clone)]
pub struct DecodedSlice {
    /// Tile.
    pub tile: TileCoord,
    /// Slice.
    pub slice: SliceId,
    /// F LUT truth table.
    pub lut_f: u16,
    /// G LUT truth table.
    pub lut_g: u16,
    /// FFX present.
    pub ffx: bool,
    /// FFY present.
    pub ffy: bool,
    /// FFX power-on value.
    pub init_x: bool,
    /// FFY power-on value.
    pub init_y: bool,
    /// FFX D source: true = BX bypass, false = F LUT.
    pub dx_bypass: bool,
    /// FFY D source.
    pub dy_bypass: bool,
    /// X output driven by the F LUT.
    pub x_on: bool,
    /// Y output driven by the G LUT.
    pub y_on: bool,
    /// Clock-enable source.
    pub ce: MuxSetting,
    /// Whether the slice CLK pin hangs off the global clock tree.
    pub clocked: bool,
}

/// One decoded IOB pad.
#[derive(Debug, Clone)]
pub struct DecodedIob {
    /// Ring tile.
    pub tile: TileCoord,
    /// Pad index.
    pub pad: u8,
    /// Input buffer enabled (pad drives fabric).
    pub inbuf: bool,
    /// Output buffer enabled (fabric drives pad).
    pub outbuf: bool,
}

/// A decoded configuration: everything needed to simulate the device.
#[derive(Debug, Clone)]
pub struct FabricModel {
    /// Device decoded.
    pub device: Device,
    /// Active slices.
    pub slices: Vec<DecodedSlice>,
    /// Active pads.
    pub iobs: Vec<DecodedIob>,
    /// Enabled PIPs as `(from, to)` pairs.
    pub pips: Vec<(Wire, Wire)>,
}

impl FabricModel {
    /// Decode a configuration memory. `O(active tiles × window frames)`:
    /// untouched tiles are skipped via a window emptiness test, and a
    /// tile's enabled PIPs are read one frame word at a time
    /// ([`Jbits::enabled_pips`]).
    pub fn decode(mem: &ConfigMemory) -> Result<FabricModel, DecodeError> {
        let device = mem.device();
        let jb = Jbits::from_memory(mem.clone());
        let mut model = FabricModel {
            device,
            slices: Vec::new(),
            iobs: Vec::new(),
            pips: Vec::new(),
        };

        let mut pips = Vec::new();
        for tile in virtex::grid::clb_tiles(device).chain(virtex::grid::iob_tiles(device)) {
            if !jb.tile_in_use(tile) {
                continue;
            }
            if tile.is_clb(device) {
                for slice in SliceId::ALL {
                    if let Some(d) = decode_slice(&jb, tile, slice) {
                        model.slices.push(d);
                    }
                }
            } else {
                for pad in 0..virtex::routing::PADS_PER_IOB as u8 {
                    let inbuf = jb.get_iob(tile, pad, IobResource::InputEnable).as_bool();
                    let outbuf = jb.get_iob(tile, pad, IobResource::OutputEnable).as_bool();
                    if inbuf || outbuf {
                        model.iobs.push(DecodedIob {
                            tile,
                            pad,
                            inbuf,
                            outbuf,
                        });
                    }
                }
            }
            pips.clear();
            jb.enabled_pips(tile, &mut pips);
            model.pips.extend(pips.iter().map(|p| (p.from, p.to)));
        }

        // Contention check (a repeated destination is a doubly driven
        // wire), then clock connectivity.
        let mut driven: Vec<Wire> = model.pips.iter().map(|&(_, to)| to).collect();
        driven.sort_unstable();
        if let Some(pair) = driven.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(DecodeError::Contention {
                wire: pair[0].name(),
            });
        }
        for s in &mut model.slices {
            let clk = Wire::new(
                s.tile,
                WireKind::SlicePin {
                    slice: s.slice,
                    pin: SlicePin::Clk,
                },
            );
            s.clocked = driven.binary_search(&clk).is_ok();
        }
        Ok(model)
    }
}

fn decode_slice(jb: &Jbits, tile: TileCoord, slice: SliceId) -> Option<DecodedSlice> {
    let get = |r: SliceResource| jb.get(tile, ClbResource::new(slice, r)).bits();
    let lut_f = get(SliceResource::Lut(virtex::LutId::F)) as u16;
    let lut_g = get(SliceResource::Lut(virtex::LutId::G)) as u16;
    let ffx = get(SliceResource::FfX) == 1;
    let ffy = get(SliceResource::FfY) == 1;
    let x_on = MuxSetting::decode(get(SliceResource::FxMux)) == Some(MuxSetting::Primary);
    let y_on = MuxSetting::decode(get(SliceResource::GyMux)) == Some(MuxSetting::Primary);
    if !(ffx || ffy || x_on || y_on) {
        return None;
    }
    Some(DecodedSlice {
        tile,
        slice,
        lut_f,
        lut_g,
        ffx,
        ffy,
        init_x: get(SliceResource::InitX) == 1,
        init_y: get(SliceResource::InitY) == 1,
        dx_bypass: get(SliceResource::DxMux) == 1,
        dy_bypass: get(SliceResource::DyMux) == 1,
        x_on,
        y_on,
        ce: MuxSetting::decode(get(SliceResource::CeMux)).unwrap_or(MuxSetting::Off),
        clocked: false, // filled in by decode()
    })
}

/// Index of a wire in a [`FabricSim`]'s dense value table.
type WireIdx = u32;

/// A model slice's pins, resolved to dense wire indices once.
#[derive(Debug, Clone)]
struct SliceWires {
    f: [WireIdx; 4],
    g: [WireIdx; 4],
    bx: WireIdx,
    by: WireIdx,
    ce: WireIdx,
    x: WireIdx,
    y: WireIdx,
    xq: WireIdx,
    yq: WireIdx,
}

/// The running simulation of a decoded fabric. Every wire the model
/// names is interned to a dense index when the simulation starts, so
/// settling and clocking run over flat vectors.
#[derive(Debug, Clone)]
pub struct FabricSim {
    model: FabricModel,
    /// Every model wire, sorted: a wire's dense index is its position.
    wires: Vec<Wire>,
    /// Wire values after the last settle, by dense index.
    values: Vec<bool>,
    /// Pins per model slice.
    slice_wires: Vec<SliceWires>,
    /// `(from, to)` per model PIP, in model order.
    pips: Vec<(WireIdx, WireIdx)>,
    /// Input pads (model IOBs with the input buffer on), sorted by
    /// `(tile, pad)`: the `PadIn` wire and the value applied from
    /// outside.
    pad_in: Vec<((TileCoord, u8), WireIdx, bool)>,
    /// FF state per model slice: (X, Y).
    ff: Vec<(bool, bool)>,
    /// Per-pass scratch: the slice-output snapshot.
    outs: Vec<(WireIdx, bool)>,
    /// Per-pass scratch: the PIP-move snapshot, one value per PIP.
    moves: Vec<bool>,
}

/// Every pin a slice's logic reads or drives, in [`SliceWires`] order.
const SLICE_PINS: [SlicePin; 15] = {
    use SlicePin::*;
    [F1, F2, F3, F4, G1, G2, G3, G4, BX, BY, CE, X, Y, XQ, YQ]
};

impl FabricSim {
    /// Start simulating; FFs take their INIT values (the GSR behaviour on
    /// START).
    pub fn new(model: FabricModel) -> Result<FabricSim, DecodeError> {
        let pin = |s: &DecodedSlice, pin| {
            Wire::new(
                s.tile,
                WireKind::SlicePin {
                    slice: s.slice,
                    pin,
                },
            )
        };
        let pad_wire = |iob: &DecodedIob| Wire::new(iob.tile, WireKind::PadIn(iob.pad));
        let inputs = || model.iobs.iter().filter(|iob| iob.inbuf);
        let mut wires: Vec<Wire> = model
            .slices
            .iter()
            .flat_map(|s| SLICE_PINS.map(|p| pin(s, p)))
            .chain(model.pips.iter().flat_map(|&(from, to)| [from, to]))
            .chain(inputs().map(pad_wire))
            .collect();
        wires.sort_unstable();
        wires.dedup();
        let idx = |w: Wire| wires.binary_search(&w).expect("interned") as WireIdx;

        let slice_wires = model
            .slices
            .iter()
            .map(|s| {
                let [f1, f2, f3, f4, g1, g2, g3, g4, bx, by, ce, x, y, xq, yq] =
                    SLICE_PINS.map(|p| idx(pin(s, p)));
                SliceWires {
                    f: [f1, f2, f3, f4],
                    g: [g1, g2, g3, g4],
                    bx,
                    by,
                    ce,
                    x,
                    y,
                    xq,
                    yq,
                }
            })
            .collect();
        let pips = model
            .pips
            .iter()
            .map(|&(from, to)| (idx(from), idx(to)))
            .collect();
        let mut pad_in: Vec<_> = inputs()
            .map(|iob| ((iob.tile, iob.pad), idx(pad_wire(iob)), false))
            .collect();
        pad_in.sort_unstable_by_key(|&(key, _, _)| key);
        let ff = model.slices.iter().map(|s| (s.init_x, s.init_y)).collect();
        let mut sim = FabricSim {
            values: vec![false; wires.len()],
            outs: Vec::with_capacity(4 * model.slices.len()),
            moves: Vec::with_capacity(model.pips.len()),
            model,
            wires,
            slice_wires,
            pips,
            pad_in,
            ff,
        };
        sim.settle()?;
        Ok(sim)
    }

    /// The decoded model.
    pub fn model(&self) -> &FabricModel {
        &self.model
    }

    /// Drive a pad from outside. Pads whose input buffer is off do not
    /// reach the fabric, so driving them has no effect.
    pub fn set_pad(&mut self, tile: TileCoord, pad: u8, value: bool) {
        if let Ok(i) = self
            .pad_in
            .binary_search_by_key(&(tile, pad), |&(key, _, _)| key)
        {
            self.pad_in[i].2 = value;
        }
    }

    /// Read a pad's fabric-driven value (the board-visible output).
    pub fn get_pad(&self, tile: TileCoord, pad: u8) -> bool {
        self.wires
            .binary_search(&Wire::new(tile, WireKind::PadOut(pad)))
            .is_ok_and(|w| self.values[w])
    }

    /// Propagate combinational logic to a fixed point.
    ///
    /// Each pass drives the input pads, then writes a snapshot of every
    /// slice output, then a snapshot of every PIP's source value onto
    /// its destination.
    pub fn settle(&mut self) -> Result<(), DecodeError> {
        // Upper bound on combinational depth: every pass fixes at least
        // one more wire, so #pips + #slices + 2 passes suffice for any
        // loop-free circuit.
        let max_passes = self.model.pips.len() + self.model.slices.len() + 2;
        let values = &mut self.values;
        let set = |values: &mut [bool], w: WireIdx, v: bool| {
            let old = std::mem::replace(&mut values[w as usize], v);
            old != v
        };
        for _ in 0..max_passes {
            let mut changed = false;
            // Pads drive the fabric.
            for &(_, w, v) in &self.pad_in {
                changed |= set(values, w, v);
            }
            // Slice outputs.
            self.outs.clear();
            for ((s, w), &(qx, qy)) in self
                .model
                .slices
                .iter()
                .zip(&self.slice_wires)
                .zip(&self.ff)
            {
                if s.x_on {
                    self.outs.push((w.x, lut_out(values, s.lut_f, &w.f)));
                }
                if s.y_on {
                    self.outs.push((w.y, lut_out(values, s.lut_g, &w.g)));
                }
                if s.ffx {
                    self.outs.push((w.xq, qx));
                }
                if s.ffy {
                    self.outs.push((w.yq, qy));
                }
            }
            for &(w, v) in &self.outs {
                changed |= set(values, w, v);
            }
            // PIP propagation.
            self.moves.clear();
            self.moves
                .extend(self.pips.iter().map(|&(from, _)| values[from as usize]));
            for (&(_, to), &v) in self.pips.iter().zip(&self.moves) {
                changed |= set(values, to, v);
            }
            if !changed {
                return Ok(());
            }
        }
        Err(DecodeError::Oscillation)
    }

    /// One rising edge of the global clock.
    pub fn clock(&mut self) -> Result<(), DecodeError> {
        self.settle()?;
        // Each FF's next state reads settled wires and its own state
        // only, so updating in place equals updating from a snapshot.
        let values = &self.values;
        for ((s, w), ff) in self
            .model
            .slices
            .iter()
            .zip(&self.slice_wires)
            .zip(&mut self.ff)
        {
            if !(s.clocked && (s.ffx || s.ffy)) {
                continue;
            }
            let en = match s.ce {
                MuxSetting::Primary => values[w.ce as usize],
                _ => true, // OFF/ONE/unused: always enabled
            };
            if !en {
                continue;
            }
            if s.ffx {
                ff.0 = if s.dx_bypass {
                    values[w.bx as usize]
                } else {
                    lut_out(values, s.lut_f, &w.f)
                };
            }
            if s.ffy {
                ff.1 = if s.dy_bypass {
                    values[w.by as usize]
                } else {
                    lut_out(values, s.lut_g, &w.g)
                };
            }
        }
        self.settle()
    }

    /// Run `n` clock cycles.
    pub fn run(&mut self, n: usize) -> Result<(), DecodeError> {
        for _ in 0..n {
            self.clock()?;
        }
        Ok(())
    }

    /// Live flip-flop states: `(tile, slice, is_ffx, value)` for every
    /// present FF — what the CAPTURE facility snapshots.
    pub fn ff_states(&self) -> Vec<(TileCoord, SliceId, bool, bool)> {
        let mut out = Vec::new();
        for (i, s) in self.model.slices.iter().enumerate() {
            if s.ffx {
                out.push((s.tile, s.slice, true, self.ff[i].0));
            }
            if s.ffy {
                out.push((s.tile, s.slice, false, self.ff[i].1));
            }
        }
        out
    }

    /// Copy flip-flop state from a previous simulation for slices that
    /// exist in both models — what survives a *dynamic partial*
    /// reconfiguration on real silicon (only the rewritten columns lose
    /// state; here we conservatively keep state per surviving slice).
    pub fn carry_state_from(&mut self, prev: &FabricSim) {
        let prev_idx: HashMap<(TileCoord, SliceId), usize> = prev
            .model
            .slices
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.tile, s.slice), i))
            .collect();
        for (i, s) in self.model.slices.iter().enumerate() {
            if let Some(&j) = prev_idx.get(&(s.tile, s.slice)) {
                self.ff[i] = prev.ff[j];
            }
        }
    }

    /// Reset all FFs to their INIT values (board-level GSR).
    pub fn reset(&mut self) {
        for (ff, s) in self.ff.iter_mut().zip(&self.model.slices) {
            *ff = (s.init_x, s.init_y);
        }
        let _ = self.settle();
    }
}

/// A LUT's output: its truth table indexed by its four input pins (pin
/// `i` is address bit `i`).
fn lut_out(values: &[bool], table: u16, pins: &[WireIdx; 4]) -> bool {
    let idx = pins
        .iter()
        .enumerate()
        .fold(0, |idx, (i, &w)| idx | usize::from(values[w as usize]) << i);
    (table >> idx) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::LutId;

    /// Hand-build a tiny circuit with raw JBits calls: pad -> LUT(NOT) ->
    /// pad, no CAD flow involved.
    fn build_inverter() -> (ConfigMemory, TileCoord, TileCoord) {
        let device = Device::XCV50;
        let mut jb = Jbits::new(device);
        let graph = virtex::RoutingGraph::new(device);
        let in_tile = TileCoord::new(-1, 3); // top ring
        let lut_tile = TileCoord::new(0, 3);
        // Pad 0 drives single S0 into the CLB below; single hits F1 (idx
        // 0 class) of slice S0.
        jb.set_iob(
            in_tile,
            0,
            IobResource::InputEnable,
            virtex::ResourceValue::bit(true),
        );
        let s_in = Wire::new(
            in_tile,
            WireKind::Single {
                dir: virtex::Dir::South,
                idx: 0,
            },
        );
        let pin_f1 = Wire::new(
            lut_tile,
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin: SlicePin::F1,
            },
        );
        let p1 = graph
            .find_pip(Wire::new(in_tile, WireKind::PadIn(0)), s_in)
            .unwrap();
        let p2 = graph.find_pip(s_in, pin_f1).unwrap();
        assert!(jb.set_pip(&p1, true));
        assert!(jb.set_pip(&p2, true));
        // LUT = NOT(A1): output 1 when input bit0 is 0.
        jb.set_lut(lut_tile, SliceId::S0, LutId::F, 0x5555);
        jb.set(
            lut_tile,
            ClbResource::new(SliceId::S0, SliceResource::FxMux),
            virtex::ResourceValue::new(MuxSetting::Primary.encode(), 2),
        );
        // X -> OMUX -> single N back to the ring -> PadOut.
        let x = Wire::new(
            lut_tile,
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin: SlicePin::X,
            },
        );
        let mut cand = Vec::new();
        graph.downhill(x, &mut cand);
        let omux = cand[0].to;
        assert!(jb.set_pip(&cand[0], true));
        let mut cand2 = Vec::new();
        graph.downhill(omux, &mut cand2);
        let north = cand2
            .iter()
            .find(|p| {
                matches!(
                    p.to.kind,
                    WireKind::Single {
                        dir: virtex::Dir::North,
                        ..
                    }
                )
            })
            .unwrap();
        assert!(jb.set_pip(north, true));
        let mut cand3 = Vec::new();
        graph.downhill(north.to, &mut cand3);
        let to_pad = cand3
            .iter()
            .find(|p| matches!(p.to.kind, WireKind::PadOut(_)))
            .unwrap();
        assert!(jb.set_pip(to_pad, true));
        let out_pad = match to_pad.to.kind {
            WireKind::PadOut(p) => p,
            _ => unreachable!(),
        };
        jb.set_iob(
            in_tile,
            out_pad,
            IobResource::OutputEnable,
            virtex::ResourceValue::bit(true),
        );
        (jb.into_memory(), in_tile, in_tile)
    }

    #[test]
    fn decode_and_simulate_hand_built_inverter() {
        let (mem, in_tile, out_tile) = build_inverter();
        let model = FabricModel::decode(&mem).unwrap();
        assert_eq!(model.slices.len(), 1);
        assert!(!model.pips.is_empty());
        let mut sim = FabricSim::new(model).unwrap();
        sim.set_pad(in_tile, 0, false);
        sim.settle().unwrap();
        let out_pad_idx = sim
            .model()
            .iobs
            .iter()
            .find(|i| i.outbuf)
            .map(|i| i.pad)
            .unwrap();
        assert!(sim.get_pad(out_tile, out_pad_idx), "NOT(0) = 1");
        sim.set_pad(in_tile, 0, true);
        sim.settle().unwrap();
        assert!(!sim.get_pad(out_tile, out_pad_idx), "NOT(1) = 0");
    }

    #[test]
    fn contention_detected() {
        let device = Device::XCV50;
        let mut jb = Jbits::new(device);
        let graph = virtex::RoutingGraph::new(device);
        let t = TileCoord::new(2, 2);
        // Two different pips driving the same destination wire.
        let pips = graph.tile_pips(t);
        let dest = pips[10].to;
        let drivers: Vec<_> = pips.iter().filter(|p| p.to == dest).take(2).collect();
        assert!(drivers.len() >= 2, "need two drivers for the test");
        for p in &drivers {
            assert!(jb.set_pip(p, true));
        }
        // Give the tile a visible slice so decode keeps it.
        let err = FabricModel::decode(jb.memory()).unwrap_err();
        assert!(matches!(err, DecodeError::Contention { .. }));
    }

    #[test]
    fn empty_device_decodes_to_empty_model() {
        let mem = ConfigMemory::new(Device::XCV50);
        let model = FabricModel::decode(&mem).unwrap();
        assert!(model.slices.is_empty());
        assert!(model.iobs.is_empty());
        assert!(model.pips.is_empty());
    }
}
