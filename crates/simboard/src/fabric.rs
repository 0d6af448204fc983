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
    /// Decode a configuration memory. `O(active tiles × pips per tile)`:
    /// untouched tiles are skipped via a window emptiness test.
    pub fn decode(mem: &ConfigMemory) -> Result<FabricModel, DecodeError> {
        let device = mem.device();
        let jb = Jbits::from_memory(mem.clone());
        let graph = virtex::RoutingGraph::new(device);
        let mut model = FabricModel {
            device,
            slices: Vec::new(),
            iobs: Vec::new(),
            pips: Vec::new(),
        };

        let clb_tiles: Vec<TileCoord> = virtex::grid::clb_tiles(device).collect();
        let iob_tiles: Vec<TileCoord> = virtex::grid::iob_tiles(device).collect();
        for tile in clb_tiles.iter().chain(&iob_tiles).copied() {
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
            for pip in graph.tile_pips(tile) {
                if jb.get_pip(&pip) == Some(true) {
                    model.pips.push((pip.from, pip.to));
                }
            }
        }

        // Clock connectivity + contention check.
        let mut driver_count: HashMap<Wire, u32> = HashMap::new();
        for (_, to) in &model.pips {
            *driver_count.entry(*to).or_insert(0) += 1;
        }
        if let Some((w, _)) = driver_count.iter().find(|(_, &c)| c > 1) {
            return Err(DecodeError::Contention { wire: w.name() });
        }
        for s in &mut model.slices {
            let clk = Wire::new(
                s.tile,
                WireKind::SlicePin {
                    slice: s.slice,
                    pin: SlicePin::Clk,
                },
            );
            s.clocked = driver_count.contains_key(&clk);
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

/// The running simulation of a decoded fabric.
#[derive(Debug, Clone)]
pub struct FabricSim {
    model: FabricModel,
    /// External value applied to each pad.
    pad_in: HashMap<(TileCoord, u8), bool>,
    /// FF state per model slice: (X, Y).
    ff: Vec<(bool, bool)>,
    /// Wire values after the last settle.
    values: HashMap<Wire, bool>,
}

impl FabricSim {
    /// Start simulating; FFs take their INIT values (the GSR behaviour on
    /// START).
    pub fn new(model: FabricModel) -> Result<FabricSim, DecodeError> {
        let ff = model.slices.iter().map(|s| (s.init_x, s.init_y)).collect();
        let mut sim = FabricSim {
            model,
            pad_in: HashMap::new(),
            ff,
            values: HashMap::new(),
        };
        sim.settle()?;
        Ok(sim)
    }

    /// The decoded model.
    pub fn model(&self) -> &FabricModel {
        &self.model
    }

    /// Drive a pad from outside.
    pub fn set_pad(&mut self, tile: TileCoord, pad: u8, value: bool) {
        self.pad_in.insert((tile, pad), value);
    }

    /// Read a pad's fabric-driven value (the board-visible output).
    pub fn get_pad(&self, tile: TileCoord, pad: u8) -> bool {
        self.values
            .get(&Wire::new(tile, WireKind::PadOut(pad)))
            .copied()
            .unwrap_or(false)
    }

    fn wire(&self, w: &Wire) -> bool {
        self.values.get(w).copied().unwrap_or(false)
    }

    fn pin(&self, s: &DecodedSlice, pin: SlicePin) -> bool {
        self.wire(&Wire::new(
            s.tile,
            WireKind::SlicePin {
                slice: s.slice,
                pin,
            },
        ))
    }

    fn lut_out(&self, s: &DecodedSlice, g: bool) -> bool {
        let pins = if g {
            [SlicePin::G1, SlicePin::G2, SlicePin::G3, SlicePin::G4]
        } else {
            [SlicePin::F1, SlicePin::F2, SlicePin::F3, SlicePin::F4]
        };
        let mut idx = 0usize;
        for (i, p) in pins.iter().enumerate() {
            if self.pin(s, *p) {
                idx |= 1 << i;
            }
        }
        let table = if g { s.lut_g } else { s.lut_f };
        (table >> idx) & 1 == 1
    }

    /// Propagate combinational logic to a fixed point.
    pub fn settle(&mut self) -> Result<(), DecodeError> {
        // Upper bound on combinational depth: every pass fixes at least
        // one more wire, so #pips + #slices + 2 passes suffice for any
        // loop-free circuit.
        let max_passes = self.model.pips.len() + self.model.slices.len() + 2;
        for _ in 0..max_passes {
            let mut changed = false;
            let set = |values: &mut HashMap<Wire, bool>, w: Wire, v: bool| {
                if values.get(&w).copied().unwrap_or(false) != v {
                    values.insert(w, v);
                    true
                } else {
                    false
                }
            };
            // Pads drive the fabric.
            for iob in &self.model.iobs {
                if iob.inbuf {
                    let v = self
                        .pad_in
                        .get(&(iob.tile, iob.pad))
                        .copied()
                        .unwrap_or(false);
                    changed |= set(
                        &mut self.values,
                        Wire::new(iob.tile, WireKind::PadIn(iob.pad)),
                        v,
                    );
                }
            }
            // Slice outputs.
            let outs: Vec<(Wire, bool)> = self
                .model
                .slices
                .iter()
                .enumerate()
                .flat_map(|(i, s)| {
                    let mut v = Vec::new();
                    let mk = |pin, val: bool| {
                        (
                            Wire::new(
                                s.tile,
                                WireKind::SlicePin {
                                    slice: s.slice,
                                    pin,
                                },
                            ),
                            val,
                        )
                    };
                    if s.x_on {
                        v.push(mk(SlicePin::X, self.lut_out(s, false)));
                    }
                    if s.y_on {
                        v.push(mk(SlicePin::Y, self.lut_out(s, true)));
                    }
                    if s.ffx {
                        v.push(mk(SlicePin::XQ, self.ff[i].0));
                    }
                    if s.ffy {
                        v.push(mk(SlicePin::YQ, self.ff[i].1));
                    }
                    v
                })
                .collect();
            for (w, v) in outs {
                changed |= set(&mut self.values, w, v);
            }
            // PIP propagation.
            let moves: Vec<(Wire, bool)> = self
                .model
                .pips
                .iter()
                .map(|(from, to)| (*to, self.wire(from)))
                .collect();
            for (w, v) in moves {
                changed |= set(&mut self.values, w, v);
            }
            if !changed {
                return Ok(());
            }
        }
        Err(DecodeError::Oscillation)
    }

    fn ce_enabled(&self, s: &DecodedSlice) -> bool {
        match s.ce {
            MuxSetting::Primary => self.pin(s, SlicePin::CE),
            _ => true, // OFF/ONE/unused: always enabled
        }
    }

    /// One rising edge of the global clock.
    pub fn clock(&mut self) -> Result<(), DecodeError> {
        self.settle()?;
        let next: Vec<(usize, bool, bool)> = self
            .model
            .slices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.clocked && (s.ffx || s.ffy))
            .map(|(i, s)| {
                let en = self.ce_enabled(s);
                let dx = if s.dx_bypass {
                    self.pin(s, SlicePin::BX)
                } else {
                    self.lut_out(s, false)
                };
                let dy = if s.dy_bypass {
                    self.pin(s, SlicePin::BY)
                } else {
                    self.lut_out(s, true)
                };
                let (cx, cy) = self.ff[i];
                (
                    i,
                    if en && s.ffx { dx } else { cx },
                    if en && s.ffy { dy } else { cy },
                )
            })
            .collect();
        for (i, x, y) in next {
            self.ff[i] = (x, y);
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
        for (i, s) in self.model.slices.iter().enumerate() {
            self.ff[i] = (s.init_x, s.init_y);
        }
        let _ = self.settle();
    }
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
