//! Run-time parameterizable cores: relocatable pre-placed, pre-routed
//! module images, the JBits concept that JBitsDiff extracts ("a JBits
//! core is a sequence of Java method invocations … that will manipulate
//! a device bitstream in order to insert the core at some location").
//!
//! An [`RtpCore`] captures every slice/IOB resource and PIP inside a
//! full-height column range. Because the Virtex fabric is (horizontally)
//! translation-invariant away from the die edges — and full-height
//! regions carry their top/bottom pads with them — the core can be
//! **stamped back at a different column offset**, giving relocatable
//! partial bitstreams a decade before the vendor tools supported them.

use crate::api::Jbits;
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;
use virtex::{
    ClbResource, Device, IobResource, Pip, ResourceValue, TileCoord, TileKind, Wire, WireKind,
};

/// One captured configuration item, tile-relative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoreOp {
    /// A slice resource value at a CLB tile.
    Slice {
        /// Tile, relative to the core's left-most captured column.
        tile: TileCoord,
        /// Resource.
        res: ClbResource,
        /// Value bits.
        bits: u32,
    },
    /// An IOB pad resource at a ring tile.
    Iob {
        /// Relative tile.
        tile: TileCoord,
        /// Pad.
        pad: u8,
        /// Resource.
        res: IobResource,
        /// Value bits.
        bits: u32,
    },
    /// An enabled PIP (wires stored relative).
    Pip {
        /// Relative location tile.
        loc: TileCoord,
        /// Relative source wire.
        from: Wire,
        /// Relative destination wire.
        to: Wire,
    },
}

/// A relocatable core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtpCore {
    /// Device family member the core was extracted from.
    pub device: Device,
    /// Width in columns.
    pub width: usize,
    /// Captured items.
    pub ops: Vec<CoreOp>,
}

/// Errors stamping a core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Target column range leaves the device.
    OutOfRange,
    /// A relocated PIP does not exist at the target (die-edge effect).
    MissingPip {
        /// Description of the failing pip.
        pip: String,
    },
    /// Core and session devices differ.
    DeviceMismatch,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::OutOfRange => write!(f, "target columns outside the device"),
            CoreError::MissingPip { pip } => {
                write!(f, "pip {pip} does not exist at the target location")
            }
            CoreError::DeviceMismatch => write!(f, "core extracted from a different device"),
        }
    }
}

impl std::error::Error for CoreError {}

fn shift_tile(t: TileCoord, dc: i32) -> TileCoord {
    TileCoord::new(t.row, t.col + dc)
}

fn shift_wire(w: Wire, dc: i32) -> Wire {
    // Device-wide wires keep their canonical anchors.
    match w.kind {
        WireKind::GlobalClock(_) => w,
        WireKind::Long { horiz: true, .. } => w, // anchored at col 0
        _ => Wire::new(shift_tile(w.tile, dc), w.kind),
    }
}

impl RtpCore {
    /// Capture every non-default resource and enabled PIP in the
    /// full-height column range `cols` (top/bottom ring included).
    /// Coordinates are stored relative to `cols.start()`.
    pub fn extract(jb: &Jbits, cols: RangeInclusive<usize>) -> RtpCore {
        let device = jb.device();
        let g = device.geometry();
        let c0 = *cols.start() as i32;
        let mut ops = Vec::new();
        let graph = virtex::RoutingGraph::new(device);
        for col in cols.clone() {
            // Ring + CLB rows of this column.
            for row in -1..=(g.clb_rows as i32) {
                let tile = TileCoord::new(row, col as i32);
                let rel = TileCoord::new(row, col as i32 - c0);
                match tile.kind(device) {
                    TileKind::Clb => {
                        if !jb.tile_in_use(tile) {
                            continue;
                        }
                        for res in ClbResource::all() {
                            let v = jb.get(tile, res);
                            if v.bits() != 0 {
                                ops.push(CoreOp::Slice {
                                    tile: rel,
                                    res,
                                    bits: v.bits(),
                                });
                            }
                        }
                    }
                    TileKind::IobTop | TileKind::IobBottom => {
                        if !jb.tile_in_use(tile) {
                            continue;
                        }
                        for pad in 0..virtex::routing::PADS_PER_IOB as u8 {
                            for res in IobResource::ALL {
                                let v = jb.get_iob(tile, pad, res);
                                if v.bits() != 0 {
                                    ops.push(CoreOp::Iob {
                                        tile: rel,
                                        pad,
                                        res,
                                        bits: v.bits(),
                                    });
                                }
                            }
                        }
                    }
                    _ => continue,
                }
                for pip in graph.tile_pips(tile) {
                    if jb.get_pip(&pip) == Some(true) {
                        ops.push(CoreOp::Pip {
                            loc: shift_tile(pip.loc, -c0),
                            from: shift_wire(pip.from, -c0),
                            to: shift_wire(pip.to, -c0),
                        });
                    }
                }
            }
        }
        RtpCore {
            device,
            width: cols.end() - cols.start() + 1,
            ops,
        }
    }

    /// Stamp the core with its left edge at CLB column `col`. Fails (and
    /// leaves the session partially written) only on structural
    /// impossibilities; check [`Self::fits`] first for a dry run.
    pub fn stamp(&self, jb: &mut Jbits, col: usize) -> Result<(), CoreError> {
        if jb.device() != self.device {
            return Err(CoreError::DeviceMismatch);
        }
        let cols = self.device.geometry().clb_cols;
        if col + self.width > cols {
            return Err(CoreError::OutOfRange);
        }
        let dc = col as i32;
        for op in &self.ops {
            match op {
                CoreOp::Slice { tile, res, bits } => {
                    jb.set(
                        shift_tile(*tile, dc),
                        *res,
                        ResourceValue::new(*bits, res.bit_width()),
                    );
                }
                CoreOp::Iob {
                    tile,
                    pad,
                    res,
                    bits,
                } => {
                    jb.set_iob(
                        shift_tile(*tile, dc),
                        *pad,
                        *res,
                        ResourceValue::new(*bits, res.bit_width()),
                    );
                }
                CoreOp::Pip { loc, from, to } => {
                    let pip = Pip {
                        loc: shift_tile(*loc, dc),
                        from: shift_wire(*from, dc),
                        to: shift_wire(*to, dc),
                    };
                    if !jb.set_pip(&pip, true) {
                        return Err(CoreError::MissingPip {
                            pip: pip.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the core can be stamped at `col` (dry run on a scratch
    /// session).
    pub fn fits(&self, col: usize) -> bool {
        let mut scratch = Jbits::new(self.device);
        self.stamp(&mut scratch, col).is_ok()
    }

    /// Slice-resource op count (a size metric).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Rewrite every global-clock reference to tree `to`. Needed when a
    /// core is stamped *next to* the design it was extracted from: two
    /// modules may not drive the same clock tree.
    pub fn remap_clock(&self, to: u8) -> RtpCore {
        let remap = |w: Wire| match w.kind {
            WireKind::GlobalClock(_) => Wire::new(w.tile, WireKind::GlobalClock(to)),
            _ => w,
        };
        RtpCore {
            device: self.device,
            width: self.width,
            ops: self
                .ops
                .iter()
                .map(|op| match op {
                    CoreOp::Pip { loc, from, to: t } => CoreOp::Pip {
                        loc: *loc,
                        from: remap(*from),
                        to: remap(*t),
                    },
                    other => other.clone(),
                })
                .collect(),
        }
    }

    /// Drop the core's own clock-tree driver (the `PadIn → GCLK` pip),
    /// so a stamped copy *shares* a tree an existing design already
    /// drives.
    pub fn without_clock_driver(&self) -> RtpCore {
        RtpCore {
            device: self.device,
            width: self.width,
            ops: self
                .ops
                .iter()
                .filter(|op| {
                    !matches!(
                        op,
                        CoreOp::Pip {
                            from: Wire {
                                kind: WireKind::PadIn(_),
                                ..
                            },
                            to: Wire {
                                kind: WireKind::GlobalClock(_),
                                ..
                            },
                            ..
                        }
                    )
                })
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{LutId, SliceId};

    /// A tiny hand-made "design" in columns 2..=3: a LUT, an FF enable,
    /// and a local route.
    fn make_module(jb: &mut Jbits) {
        let t = TileCoord::new(4, 2);
        jb.set_lut(t, SliceId::S0, LutId::F, 0x9669);
        jb.set(
            t,
            ClbResource::new(SliceId::S0, virtex::SliceResource::FxMux),
            ResourceValue::new(virtex::MuxSetting::Primary.encode(), 2),
        );
        let graph = virtex::RoutingGraph::new(jb.device());
        // X -> OMUX -> single east (stays inside the region).
        let x = Wire::new(
            t,
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin: virtex::SlicePin::X,
            },
        );
        let mut c1 = Vec::new();
        graph.downhill(x, &mut c1);
        jb.set_pip(&c1[0], true);
        let mut c2 = Vec::new();
        graph.downhill(c1[0].to, &mut c2);
        let east = c2
            .iter()
            .find(|p| {
                matches!(
                    p.to.kind,
                    WireKind::Single {
                        dir: virtex::Dir::East,
                        ..
                    }
                )
            })
            .unwrap();
        jb.set_pip(east, true);
    }

    #[test]
    fn extract_stamp_identity() {
        let mut jb = Jbits::new(Device::XCV50);
        make_module(&mut jb);
        let original = jb.memory().clone();
        let core = RtpCore::extract(&jb, 2..=3);
        assert!(core.op_count() > 0);

        // Stamping at the same place on a blank device reproduces the
        // original image exactly.
        let mut fresh = Jbits::new(Device::XCV50);
        core.stamp(&mut fresh, 2).unwrap();
        assert_eq!(fresh.memory(), &original);
    }

    #[test]
    fn relocation_shifts_all_config_into_target_columns() {
        let mut jb = Jbits::new(Device::XCV50);
        make_module(&mut jb);
        let core = RtpCore::extract(&jb, 2..=3);

        let mut target = Jbits::new(Device::XCV50);
        core.stamp(&mut target, 10).unwrap();
        // The relocated image has bits only in columns 10..=11.
        let geom = target.memory().geometry().clone();
        for f in 0..target.memory().frame_count() {
            if target.memory().frame(f).iter().all(|&w| w == 0) {
                continue;
            }
            let far = geom.frame_address(f).unwrap();
            let col = geom.clb_col_for_major(far.major).expect("CLB column");
            assert!(
                (10..=11).contains(&col),
                "bit found in column {col} after relocation"
            );
        }
        // And the shifted LUT reads back.
        assert_eq!(
            target.get_lut(TileCoord::new(4, 10), SliceId::S0, LutId::F),
            0x9669
        );
    }

    #[test]
    fn clock_remap_and_driver_strip() {
        let mut jb = Jbits::new(Device::XCV50);
        // A clock pad driving GCLK0 feeding a CLK pin.
        let graph = virtex::RoutingGraph::new(Device::XCV50);
        let pad = Wire::new(TileCoord::new(-1, 2), WireKind::PadIn(0));
        let gclk0 = graph.global_clock(0);
        let clk_pin = Wire::new(
            TileCoord::new(3, 2),
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin: virtex::SlicePin::Clk,
            },
        );
        jb.set_pip(&graph.find_pip(pad, gclk0).unwrap(), true);
        jb.set_pip(
            &Pip {
                loc: TileCoord::new(3, 2),
                from: gclk0,
                to: clk_pin,
            },
            true,
        );
        let core = RtpCore::extract(&jb, 2..=2);
        let pips = |c: &RtpCore| {
            c.ops
                .iter()
                .filter(|o| matches!(o, CoreOp::Pip { .. }))
                .count()
        };
        assert_eq!(pips(&core), 2);

        let remapped = core.remap_clock(3);
        assert!(remapped.ops.iter().all(|op| match op {
            CoreOp::Pip { from, to, .. } => {
                !matches!(from.kind, WireKind::GlobalClock(k) if k != 3)
                    && !matches!(to.kind, WireKind::GlobalClock(k) if k != 3)
            }
            _ => true,
        }));
        // Remapped core stamps cleanly (GCLK3 pips exist everywhere).
        let mut t = Jbits::new(Device::XCV50);
        remapped.stamp(&mut t, 2).unwrap();

        let shared = core.without_clock_driver();
        assert_eq!(pips(&shared), 1, "pad->GCLK pip dropped");
    }

    #[test]
    fn out_of_range_and_device_mismatch() {
        let mut jb = Jbits::new(Device::XCV50);
        make_module(&mut jb);
        let core = RtpCore::extract(&jb, 2..=3);
        let mut t = Jbits::new(Device::XCV50);
        assert_eq!(core.stamp(&mut t, 23), Err(CoreError::OutOfRange));
        let mut other = Jbits::new(Device::XCV100);
        assert_eq!(core.stamp(&mut other, 2), Err(CoreError::DeviceMismatch));
        assert!(core.fits(10));
        assert!(!core.fits(23));
    }
}
