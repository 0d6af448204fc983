//! Routing fabric model: wires, programmable interconnect points (PIPs) and
//! the switch-box connectivity function.
//!
//! The model is a compact but structurally faithful rendition of the Virtex
//! routing architecture:
//!
//! * **slice pins** — logical input/output pins of the two slices;
//! * **output muxes (OMUX)** — 8 per CLB tile, fed by slice outputs, the
//!   only drivers of general routing;
//! * **singles** — 8 wires per direction per tile, spanning one tile;
//! * **hexes** — 4 wires per direction per tile, spanning six tiles with
//!   taps at distance 3 and 6;
//! * **long lines** — 2 horizontal per row and 2 vertical per column,
//!   spanning the die, with taps every fourth tile;
//! * **IOB pads** — 4 per IOB tile, sourcing/sinking singles on the ring;
//! * **global clocks** — 4 device-wide nets reaching every slice CLK pin.
//!
//! Every PIP has a *location tile* (the tile whose configuration frames
//! hold its enable bit): the driving tile for output-side muxes and the
//! destination tile for input-side muxes. [`RoutingGraph::tile_pips`]
//! enumerates a tile's PIPs in a stable order, which the `jbits` crate uses
//! to assign configuration bit positions.

use crate::family::Device;
use crate::grid::{SliceId, TileCoord, TileKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Singles per direction per tile.
pub const SINGLES_PER_DIR: usize = 8;
/// Hex lines per direction per tile.
pub const HEX_PER_DIR: usize = 4;
/// OMUX positions per CLB tile.
pub const OMUX_COUNT: usize = 8;
/// Long lines per row (horizontal) and per column (vertical).
pub const LONGS_PER_TRACK: usize = 2;
/// Device-wide global clock nets.
pub const GLOBAL_CLOCKS: usize = 4;
/// Pads per IOB tile.
pub const PADS_PER_IOB: usize = 4;
/// Hex line span in tiles.
pub const HEX_SPAN: i32 = 6;
/// Long-line tap spacing in tiles.
pub const LONG_TAP_SPACING: i32 = 4;

/// The four routing directions. `North` decreases the row index (row 0 is
/// the top of the die).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dir {
    /// Towards row 0.
    North,
    /// Towards higher columns.
    East,
    /// Towards higher rows.
    South,
    /// Towards column 0.
    West,
}

impl Dir {
    /// All directions in canonical order.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// Unit step (row delta, col delta).
    pub fn delta(self) -> (i32, i32) {
        match self {
            Dir::North => (-1, 0),
            Dir::East => (0, 1),
            Dir::South => (1, 0),
            Dir::West => (0, -1),
        }
    }

    /// The reverse direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Canonical index 0..4.
    pub fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }

    /// Short name used in wire names (`N`, `E`, `S`, `W`).
    pub fn letter(self) -> char {
        match self {
            Dir::North => 'N',
            Dir::East => 'E',
            Dir::South => 'S',
            Dir::West => 'W',
        }
    }

    /// Parse a direction letter.
    pub fn from_letter(c: char) -> Option<Dir> {
        match c {
            'N' => Some(Dir::North),
            'E' => Some(Dir::East),
            'S' => Some(Dir::South),
            'W' => Some(Dir::West),
            _ => None,
        }
    }
}

/// A logical pin of a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SlicePin {
    F1,
    F2,
    F3,
    F4,
    G1,
    G2,
    G3,
    G4,
    BX,
    BY,
    CE,
    SR,
    Clk,
    X,
    Y,
    XQ,
    YQ,
}

impl SlicePin {
    /// All pins, inputs first then outputs.
    pub const ALL: [SlicePin; 17] = [
        SlicePin::F1,
        SlicePin::F2,
        SlicePin::F3,
        SlicePin::F4,
        SlicePin::G1,
        SlicePin::G2,
        SlicePin::G3,
        SlicePin::G4,
        SlicePin::BX,
        SlicePin::BY,
        SlicePin::CE,
        SlicePin::SR,
        SlicePin::Clk,
        SlicePin::X,
        SlicePin::Y,
        SlicePin::XQ,
        SlicePin::YQ,
    ];

    /// Canonical index within [`Self::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|p| *p == self)
            .expect("pin in ALL")
    }

    /// Whether this is a slice output.
    pub fn is_output(self) -> bool {
        matches!(
            self,
            SlicePin::X | SlicePin::Y | SlicePin::XQ | SlicePin::YQ
        )
    }

    /// Index among the four outputs (X=0, Y=1, XQ=2, YQ=3).
    pub fn output_index(self) -> Option<usize> {
        match self {
            SlicePin::X => Some(0),
            SlicePin::Y => Some(1),
            SlicePin::XQ => Some(2),
            SlicePin::YQ => Some(3),
            _ => None,
        }
    }

    /// Pin name as used in XDL (`F1` … `YQ`).
    pub fn name(self) -> &'static str {
        match self {
            SlicePin::F1 => "F1",
            SlicePin::F2 => "F2",
            SlicePin::F3 => "F3",
            SlicePin::F4 => "F4",
            SlicePin::G1 => "G1",
            SlicePin::G2 => "G2",
            SlicePin::G3 => "G3",
            SlicePin::G4 => "G4",
            SlicePin::BX => "BX",
            SlicePin::BY => "BY",
            SlicePin::CE => "CE",
            SlicePin::SR => "SR",
            SlicePin::Clk => "CLK",
            SlicePin::X => "X",
            SlicePin::Y => "Y",
            SlicePin::XQ => "XQ",
            SlicePin::YQ => "YQ",
        }
    }

    /// Parse an XDL pin name.
    pub fn parse(s: &str) -> Option<SlicePin> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// The kind of a wire within (or anchored at) a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WireKind {
    /// A slice pin wire (CLB tiles only).
    SlicePin {
        /// Which slice.
        slice: SliceId,
        /// Which pin.
        pin: SlicePin,
    },
    /// An output-mux wire (CLB tiles only), index `0..OMUX_COUNT`.
    Omux(u8),
    /// A single-length wire driven from this tile towards `dir`.
    Single {
        /// Travel direction.
        dir: Dir,
        /// Track index `0..SINGLES_PER_DIR`.
        idx: u8,
    },
    /// A hex wire driven from this tile towards `dir` (CLB tiles only).
    Hex {
        /// Travel direction.
        dir: Dir,
        /// Track index `0..HEX_PER_DIR`.
        idx: u8,
    },
    /// A long line. Horizontal longs are anchored at column 0 of their
    /// row; vertical longs at row 0 of their column.
    Long {
        /// Horizontal (row-spanning) vs vertical.
        horiz: bool,
        /// Track index `0..LONGS_PER_TRACK`.
        idx: u8,
    },
    /// Pad input wire: the signal a pad drives *into* the fabric
    /// (IOB tiles only), index `0..PADS_PER_IOB`.
    PadIn(u8),
    /// Pad output wire: the signal the fabric drives *to* a pad
    /// (IOB tiles only).
    PadOut(u8),
    /// A global clock net (anchored at tile (0,0)), index
    /// `0..GLOBAL_CLOCKS`.
    GlobalClock(u8),
}

/// A wire: a kind anchored at a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Wire {
    /// Anchor tile (driving tile for singles/hexes; canonical anchor for
    /// longs and clocks).
    pub tile: TileCoord,
    /// What the wire is.
    pub kind: WireKind,
}

impl Wire {
    /// Construct a wire.
    pub fn new(tile: TileCoord, kind: WireKind) -> Self {
        Wire { tile, kind }
    }

    /// Canonical wire name, e.g. `R3C23/S0_X`, `R3C23/SINGLE_E5`,
    /// `R1C1/LONG_H0`.
    pub fn name(&self) -> String {
        let t = self.tile;
        match self.kind {
            WireKind::SlicePin { slice, pin } => {
                format!("{t}/S{}_{}", slice.index(), pin.name())
            }
            WireKind::Omux(i) => format!("{t}/OMUX{i}"),
            WireKind::Single { dir, idx } => format!("{t}/SINGLE_{}{idx}", dir.letter()),
            WireKind::Hex { dir, idx } => format!("{t}/HEX_{}{idx}", dir.letter()),
            WireKind::Long { horiz, idx } => {
                format!("{t}/LONG_{}{idx}", if horiz { 'H' } else { 'V' })
            }
            WireKind::PadIn(i) => format!("{t}/PAD_I{i}"),
            WireKind::PadOut(i) => format!("{t}/PAD_O{i}"),
            WireKind::GlobalClock(i) => format!("{t}/GCLK{i}"),
        }
    }

    /// Parse a name produced by [`Self::name`].
    pub fn parse(s: &str) -> Option<Wire> {
        let (loc, rest) = s.split_once('/')?;
        let loc = loc.strip_prefix('R')?;
        let (row, col) = loc.split_once('C')?;
        let row = row.parse::<i32>().ok()?.checked_sub(1)?;
        let tile = TileCoord::new(row, col.parse::<i32>().ok()?.checked_sub(1)?);
        let kind = if let Some(rest) = rest.strip_prefix("OMUX") {
            WireKind::Omux(rest.parse().ok()?)
        } else if let Some(rest) = rest.strip_prefix("SINGLE_") {
            let mut ch = rest.chars();
            let dir = Dir::from_letter(ch.next()?)?;
            WireKind::Single {
                dir,
                idx: ch.as_str().parse().ok()?,
            }
        } else if let Some(rest) = rest.strip_prefix("HEX_") {
            let mut ch = rest.chars();
            let dir = Dir::from_letter(ch.next()?)?;
            WireKind::Hex {
                dir,
                idx: ch.as_str().parse().ok()?,
            }
        } else if let Some(rest) = rest.strip_prefix("LONG_") {
            let mut ch = rest.chars();
            let horiz = match ch.next()? {
                'H' => true,
                'V' => false,
                _ => return None,
            };
            WireKind::Long {
                horiz,
                idx: ch.as_str().parse().ok()?,
            }
        } else if let Some(rest) = rest.strip_prefix("PAD_I") {
            WireKind::PadIn(rest.parse().ok()?)
        } else if let Some(rest) = rest.strip_prefix("PAD_O") {
            WireKind::PadOut(rest.parse().ok()?)
        } else if let Some(rest) = rest.strip_prefix("GCLK") {
            WireKind::GlobalClock(rest.parse().ok()?)
        } else if let Some(rest) = rest.strip_prefix('S') {
            let (slice, pin) = rest.split_once('_')?;
            WireKind::SlicePin {
                slice: SliceId::from_index(slice.parse().ok()?)?,
                pin: SlicePin::parse(pin)?,
            }
        } else {
            return None;
        };
        Some(Wire::new(tile, kind))
    }
}

impl fmt::Display for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A programmable interconnect point: a switch that, when enabled, drives
/// `to` from `from`. `loc` is the tile whose configuration frames hold the
/// enable bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pip {
    /// Tile owning the configuration bit.
    pub loc: TileCoord,
    /// Source wire.
    pub from: Wire,
    /// Destination wire.
    pub to: Wire,
}

impl fmt::Display for Pip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pip {} {} -> {}", self.loc, self.from, self.to)
    }
}

/// The routing graph of one device: a *functional* representation — PIPs
/// are computed from switch-box rules rather than stored, so the graph
/// costs O(1) memory regardless of device size.
#[derive(Debug, Clone)]
pub struct RoutingGraph {
    device: Device,
    rows: i32,
    cols: i32,
}

impl RoutingGraph {
    /// Build the routing graph for `device`.
    pub fn new(device: Device) -> Self {
        let g = device.geometry();
        RoutingGraph {
            device,
            rows: g.clb_rows as i32,
            cols: g.clb_cols as i32,
        }
    }

    /// The device this graph describes.
    pub fn device(&self) -> Device {
        self.device
    }

    fn on_grid(&self, t: TileCoord) -> bool {
        !matches!(t.kind(self.device), TileKind::OffDevice | TileKind::Corner)
    }

    fn is_clb(&self, t: TileCoord) -> bool {
        t.kind(self.device) == TileKind::Clb
    }

    fn is_iob(&self, t: TileCoord) -> bool {
        t.is_iob(self.device)
    }

    /// Direction from an IOB tile into the fabric, if `t` is an IOB tile.
    pub fn iob_fabric_dir(&self, t: TileCoord) -> Option<Dir> {
        match t.kind(self.device) {
            TileKind::IobTop => Some(Dir::South),
            TileKind::IobBottom => Some(Dir::North),
            TileKind::IobLeft => Some(Dir::East),
            TileKind::IobRight => Some(Dir::West),
            _ => None,
        }
    }

    /// Whether `wire` is a valid wire of this device.
    pub fn wire_exists(&self, wire: Wire) -> bool {
        let t = wire.tile;
        match wire.kind {
            WireKind::SlicePin { .. } | WireKind::Omux(_) | WireKind::Hex { .. } => self.is_clb(t),
            WireKind::Single { dir, idx } => {
                (idx as usize) < SINGLES_PER_DIR && self.on_grid(t) && {
                    // The wire must land on the grid too, and IOB tiles only
                    // drive singles towards the fabric.
                    let (dr, dc) = dir.delta();
                    let dest = TileCoord::new(t.row + dr, t.col + dc);
                    let src_ok = if self.is_iob(t) {
                        self.iob_fabric_dir(t) == Some(dir)
                    } else {
                        true
                    };
                    src_ok && self.on_grid(dest)
                }
            }
            WireKind::Long { horiz, idx } => {
                (idx as usize) < LONGS_PER_TRACK
                    && if horiz {
                        t.col == 0 && (0..self.rows).contains(&t.row)
                    } else {
                        t.row == 0 && (0..self.cols).contains(&t.col)
                    }
            }
            WireKind::PadIn(i) | WireKind::PadOut(i) => {
                (i as usize) < PADS_PER_IOB && self.is_iob(t)
            }
            WireKind::GlobalClock(i) => (i as usize) < GLOBAL_CLOCKS && t == TileCoord::new(0, 0),
        }
    }

    /// Canonical anchor for a horizontal long line in `row`.
    pub fn long_h(&self, row: i32, idx: u8) -> Wire {
        Wire::new(TileCoord::new(row, 0), WireKind::Long { horiz: true, idx })
    }

    /// Canonical anchor for a vertical long line in `col`.
    pub fn long_v(&self, col: i32, idx: u8) -> Wire {
        Wire::new(TileCoord::new(0, col), WireKind::Long { horiz: false, idx })
    }

    /// The global clock wire `idx`.
    pub fn global_clock(&self, idx: u8) -> Wire {
        Wire::new(TileCoord::new(0, 0), WireKind::GlobalClock(idx))
    }

    /// Append every PIP driving out of `wire` to `out`. This is the
    /// forward-expansion function used by the router.
    pub fn downhill(&self, wire: Wire, out: &mut Vec<Pip>) {
        debug_assert!(self.wire_exists(wire), "downhill of invalid wire {wire}");
        let t = wire.tile;
        let push = |out: &mut Vec<Pip>, loc: TileCoord, from: Wire, to: Wire| {
            out.push(Pip { loc, from, to });
        };
        match wire.kind {
            WireKind::SlicePin { slice, pin } => {
                // Slice outputs feed two OMUX positions each.
                if let Some(o) = pin.output_index() {
                    let base = (slice.index() * 4 + o) as u8;
                    for omux in [base, (base + 3) % OMUX_COUNT as u8] {
                        push(out, t, wire, Wire::new(t, WireKind::Omux(omux)));
                    }
                }
            }
            WireKind::Omux(j) => {
                // OMUX drives singles (two tracks per direction), hexes,
                // and long lines.
                for dir in Dir::ALL {
                    for idx in [j, (j + 4) % SINGLES_PER_DIR as u8] {
                        let s = Wire::new(t, WireKind::Single { dir, idx });
                        if self.wire_exists(s) {
                            push(out, t, wire, s);
                        }
                    }
                    let h = Wire::new(
                        t,
                        WireKind::Hex {
                            dir,
                            idx: j % HEX_PER_DIR as u8,
                        },
                    );
                    if self.wire_exists(h) {
                        push(out, t, wire, h);
                    }
                }
                let li = j % LONGS_PER_TRACK as u8;
                push(out, t, wire, self.long_h(t.row, li));
                push(out, t, wire, self.long_v(t.col, li));
            }
            WireKind::Single { dir, idx } => {
                let (dr, dc) = dir.delta();
                let u = TileCoord::new(t.row + dr, t.col + dc);
                if self.is_clb(u) {
                    // Input-pin muxes at the destination tile.
                    for slice in SliceId::ALL {
                        let f = [SlicePin::F1, SlicePin::F2, SlicePin::F3, SlicePin::F4]
                            [idx as usize % 4];
                        let g = [SlicePin::G1, SlicePin::G2, SlicePin::G3, SlicePin::G4]
                            [idx as usize % 4];
                        for pin in [f, g] {
                            push(
                                out,
                                u,
                                wire,
                                Wire::new(u, WireKind::SlicePin { slice, pin }),
                            );
                        }
                        let special = match idx {
                            0 => Some(SlicePin::BX),
                            1 => Some(SlicePin::BY),
                            2 => Some(SlicePin::CE),
                            3 => Some(SlicePin::SR),
                            _ => None,
                        };
                        if let Some(pin) = special {
                            push(
                                out,
                                u,
                                wire,
                                Wire::new(u, WireKind::SlicePin { slice, pin }),
                            );
                        }
                    }
                    // Switch-box bounce: continue straight or turn (never
                    // reverse), onto the same track or the next one up —
                    // the index shift is what lets a route move between
                    // track classes to reach any input pin.
                    for d2 in Dir::ALL {
                        if d2 == dir.opposite() {
                            continue;
                        }
                        for idx2 in [idx, (idx + 1) % SINGLES_PER_DIR as u8] {
                            let s2 = Wire::new(u, WireKind::Single { dir: d2, idx: idx2 });
                            if self.wire_exists(s2) {
                                push(out, u, wire, s2);
                            }
                        }
                    }
                } else if self.is_iob(u) {
                    // Singles arriving on the ring can reach the pad whose
                    // index matches the track group.
                    let pad = idx % PADS_PER_IOB as u8;
                    push(out, u, wire, Wire::new(u, WireKind::PadOut(pad)));
                }
            }
            WireKind::Hex { dir, idx } => {
                let (dr, dc) = dir.delta();
                for dist in [HEX_SPAN / 2, HEX_SPAN] {
                    let u = TileCoord::new(t.row + dr * dist, t.col + dc * dist);
                    if !self.is_clb(u) {
                        continue;
                    }
                    // Continue in the same direction on two single tracks,
                    // or turn onto the perpendicular tracks.
                    for s_idx in [idx, idx + HEX_PER_DIR as u8] {
                        let s = Wire::new(u, WireKind::Single { dir, idx: s_idx });
                        if self.wire_exists(s) {
                            push(out, u, wire, s);
                        }
                    }
                    for d2 in Dir::ALL {
                        if d2 == dir || d2 == dir.opposite() {
                            continue;
                        }
                        let s = Wire::new(u, WireKind::Single { dir: d2, idx });
                        if self.wire_exists(s) {
                            push(out, u, wire, s);
                        }
                    }
                }
            }
            WireKind::Long { horiz, idx } => {
                // Taps every LONG_TAP_SPACING tiles along the track.
                let track: Vec<TileCoord> = if horiz {
                    (0..self.cols).map(|c| TileCoord::new(t.row, c)).collect()
                } else {
                    (0..self.rows).map(|r| TileCoord::new(r, t.col)).collect()
                };
                for u in track {
                    let along = if horiz { u.col } else { u.row };
                    if along % LONG_TAP_SPACING != 2 * idx as i32 {
                        continue;
                    }
                    let dirs = if horiz {
                        [Dir::East, Dir::West]
                    } else {
                        [Dir::North, Dir::South]
                    };
                    for dir in dirs {
                        let h = Wire::new(u, WireKind::Hex { dir, idx });
                        if self.wire_exists(h) {
                            push(out, u, wire, h);
                        }
                        let s = Wire::new(u, WireKind::Single { dir, idx });
                        if self.wire_exists(s) {
                            push(out, u, wire, s);
                        }
                    }
                }
            }
            WireKind::PadIn(p) => {
                if let Some(dir) = self.iob_fabric_dir(t) {
                    for idx in [p, p + PADS_PER_IOB as u8] {
                        let s = Wire::new(t, WireKind::Single { dir, idx });
                        if self.wire_exists(s) {
                            push(out, t, wire, s);
                        }
                    }
                }
                // Any pad can reach any global clock buffer (BUFG input
                // selection).
                for k in 0..GLOBAL_CLOCKS as u8 {
                    push(out, t, wire, self.global_clock(k));
                }
            }
            WireKind::GlobalClock(_) => {
                // The clock tree reaches every slice CLK pin. The enable
                // bit lives in the destination tile's column.
                for r in 0..self.rows {
                    for c in 0..self.cols {
                        let u = TileCoord::new(r, c);
                        for slice in SliceId::ALL {
                            push(
                                out,
                                u,
                                wire,
                                Wire::new(
                                    u,
                                    WireKind::SlicePin {
                                        slice,
                                        pin: SlicePin::Clk,
                                    },
                                ),
                            );
                        }
                    }
                }
            }
            WireKind::PadOut(_) => {} // sink
        }
    }

    /// All PIPs whose configuration bit lives in `tile`, in a stable
    /// canonical order. This order defines the bit assignment used by the
    /// `jbits` crate, so it must never change gratuitously.
    pub fn tile_pips(&self, tile: TileCoord) -> Vec<Pip> {
        let mut pips = Vec::new();
        match tile.kind(self.device) {
            TileKind::Clb => {
                // 1. Locally driven wires: slice outputs, OMUX fan-out.
                for slice in SliceId::ALL {
                    for pin in [SlicePin::X, SlicePin::Y, SlicePin::XQ, SlicePin::YQ] {
                        self.downhill(
                            Wire::new(tile, WireKind::SlicePin { slice, pin }),
                            &mut pips,
                        );
                    }
                }
                for j in 0..OMUX_COUNT as u8 {
                    self.downhill(Wire::new(tile, WireKind::Omux(j)), &mut pips);
                }
                // 2. Incoming singles (input muxes + bounces located here).
                self.incoming_single_pips(tile, &mut pips);
                // 3. Hex taps landing here.
                for dir in Dir::ALL {
                    let (dr, dc) = dir.delta();
                    for dist in [HEX_SPAN / 2, HEX_SPAN] {
                        let src = TileCoord::new(tile.row - dr * dist, tile.col - dc * dist);
                        for idx in 0..HEX_PER_DIR as u8 {
                            let h = Wire::new(src, WireKind::Hex { dir, idx });
                            if self.wire_exists(h) {
                                let mut tmp = Vec::new();
                                self.downhill(h, &mut tmp);
                                pips.extend(tmp.into_iter().filter(|p| p.loc == tile));
                            }
                        }
                    }
                }
                // 4. Long-line taps at this tile.
                for idx in 0..LONGS_PER_TRACK as u8 {
                    for long in [self.long_h(tile.row, idx), self.long_v(tile.col, idx)] {
                        let mut tmp = Vec::new();
                        self.downhill(long, &mut tmp);
                        pips.extend(tmp.into_iter().filter(|p| p.loc == tile));
                    }
                }
                // 5. Global clock spine taps.
                for k in 0..GLOBAL_CLOCKS as u8 {
                    for slice in SliceId::ALL {
                        pips.push(Pip {
                            loc: tile,
                            from: self.global_clock(k),
                            to: Wire::new(
                                tile,
                                WireKind::SlicePin {
                                    slice,
                                    pin: SlicePin::Clk,
                                },
                            ),
                        });
                    }
                }
            }
            TileKind::IobTop | TileKind::IobBottom | TileKind::IobLeft | TileKind::IobRight => {
                for p in 0..PADS_PER_IOB as u8 {
                    self.downhill(Wire::new(tile, WireKind::PadIn(p)), &mut pips);
                }
                self.incoming_single_pips(tile, &mut pips);
            }
            _ => {}
        }
        pips
    }

    /// PIPs located at `tile` that are fed by singles arriving from
    /// neighbouring tiles.
    fn incoming_single_pips(&self, tile: TileCoord, pips: &mut Vec<Pip>) {
        for dir in Dir::ALL {
            let (dr, dc) = dir.delta();
            let src = TileCoord::new(tile.row - dr, tile.col - dc);
            for idx in 0..SINGLES_PER_DIR as u8 {
                let s = Wire::new(src, WireKind::Single { dir, idx });
                if self.wire_exists(s) {
                    let mut tmp = Vec::new();
                    self.downhill(s, &mut tmp);
                    pips.extend(tmp.into_iter().filter(|p| p.loc == tile));
                }
            }
        }
    }

    /// Locate the PIP `(from, to)` if it exists in the fabric, returning
    /// the canonical `Pip` (with its location tile).
    pub fn find_pip(&self, from: Wire, to: Wire) -> Option<Pip> {
        if !self.wire_exists(from) {
            return None;
        }
        let mut tmp = Vec::new();
        self.downhill(from, &mut tmp);
        tmp.into_iter().find(|p| p.to == to)
    }

    /// Index of `pip` within `tile_pips(pip.loc)`, used for configuration
    /// bit assignment. `None` if the pip does not exist.
    pub fn pip_index(&self, pip: &Pip) -> Option<usize> {
        self.tile_pips(pip.loc)
            .iter()
            .position(|p| p.from == pip.from && p.to == pip.to)
    }

    /// Number of PIPs located in `tile`.
    pub fn tile_pip_count(&self, tile: TileCoord) -> usize {
        self.tile_pips(tile).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> RoutingGraph {
        RoutingGraph::new(Device::XCV50)
    }

    #[test]
    fn wire_name_roundtrip() {
        let g = graph();
        let wires = [
            Wire::new(
                TileCoord::new(2, 22),
                WireKind::SlicePin {
                    slice: SliceId::S0,
                    pin: SlicePin::G3,
                },
            ),
            Wire::new(TileCoord::new(0, 0), WireKind::Omux(7)),
            Wire::new(
                TileCoord::new(4, 4),
                WireKind::Single {
                    dir: Dir::East,
                    idx: 5,
                },
            ),
            Wire::new(
                TileCoord::new(4, 4),
                WireKind::Hex {
                    dir: Dir::North,
                    idx: 2,
                },
            ),
            g.long_h(3, 1),
            g.long_v(7, 0),
            Wire::new(TileCoord::new(-1, 3), WireKind::PadIn(2)),
            Wire::new(TileCoord::new(16, 3), WireKind::PadOut(0)),
            g.global_clock(3),
        ];
        for w in wires {
            assert!(g.wire_exists(w), "{w} should exist");
            assert_eq!(Wire::parse(&w.name()), Some(w), "roundtrip {w}");
        }
    }

    #[test]
    fn edge_singles_do_not_leave_device() {
        let g = graph();
        // A single heading north from the top CLB row lands on the IOB
        // ring: valid. One heading north *from* the top IOB row would leave
        // the device: invalid.
        let from_top_clb = Wire::new(
            TileCoord::new(0, 5),
            WireKind::Single {
                dir: Dir::North,
                idx: 0,
            },
        );
        assert!(g.wire_exists(from_top_clb));
        let from_top_iob = Wire::new(
            TileCoord::new(-1, 5),
            WireKind::Single {
                dir: Dir::North,
                idx: 0,
            },
        );
        assert!(!g.wire_exists(from_top_iob));
        // IOB tiles only drive towards the fabric.
        let sideways_iob = Wire::new(
            TileCoord::new(-1, 5),
            WireKind::Single {
                dir: Dir::East,
                idx: 0,
            },
        );
        assert!(!g.wire_exists(sideways_iob));
    }

    #[test]
    fn slice_output_reaches_neighbor_input_in_three_pips() {
        // X -> OMUX -> single east -> F pin of the tile one to the east.
        let g = graph();
        let t = TileCoord::new(5, 5);
        let x = Wire::new(
            t,
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin: SlicePin::X,
            },
        );
        let mut p1 = Vec::new();
        g.downhill(x, &mut p1);
        assert!(!p1.is_empty());
        let omux = p1[0].to;
        let mut p2 = Vec::new();
        g.downhill(omux, &mut p2);
        let single = p2
            .iter()
            .find(|p| matches!(p.to.kind, WireKind::Single { dir: Dir::East, .. }))
            .expect("omux drives an east single")
            .to;
        let mut p3 = Vec::new();
        g.downhill(single, &mut p3);
        let dest = TileCoord::new(5, 6);
        assert!(
            p3.iter().any(|p| p.to.tile == dest
                && matches!(
                    p.to.kind,
                    WireKind::SlicePin { pin, .. } if !pin.is_output()
                )),
            "single reaches an input pin of {dest}"
        );
    }

    #[test]
    fn tile_pips_are_stable_unique_and_within_budget() {
        let g = graph();
        let t = TileCoord::new(8, 12);
        let pips = g.tile_pips(t);
        let again = g.tile_pips(t);
        assert_eq!(pips, again, "enumeration must be deterministic");
        let mut set = std::collections::HashSet::new();
        for p in &pips {
            assert_eq!(p.loc, t);
            assert!(set.insert((p.from, p.to)), "duplicate pip {p}");
        }
        // The CLB column offers 48 frames x 18 bits = 864 bits per CLB;
        // logic uses ~110, so pips must stay under ~750.
        assert!(
            pips.len() <= 720,
            "CLB tile has {} pips, exceeding the frame budget",
            pips.len()
        );
        assert!(pips.len() >= 200, "suspiciously sparse switch box");
    }

    #[test]
    fn iob_tile_pips_within_budget() {
        let g = graph();
        for t in [
            TileCoord::new(-1, 4),
            TileCoord::new(16, 4),
            TileCoord::new(4, -1),
            TileCoord::new(4, 24),
        ] {
            let pips = g.tile_pips(t);
            assert!(!pips.is_empty());
            assert!(pips.len() < 100, "{t}: {} pips", pips.len());
            assert!(pips.iter().all(|p| p.loc == t));
        }
    }

    #[test]
    fn find_pip_and_index_agree_with_enumeration() {
        let g = graph();
        let t = TileCoord::new(3, 3);
        let pips = g.tile_pips(t);
        for (i, p) in pips.iter().enumerate().step_by(17) {
            let found = g.find_pip(p.from, p.to).expect("pip exists");
            assert_eq!(found, *p);
            assert_eq!(g.pip_index(p), Some(i));
        }
    }

    #[test]
    fn global_clock_reaches_every_clk_pin() {
        let g = graph();
        let mut out = Vec::new();
        g.downhill(g.global_clock(0), &mut out);
        let geo = Device::XCV50.geometry();
        assert_eq!(out.len(), geo.clb_rows * geo.clb_cols * 2);
    }

    #[test]
    fn pad_in_drives_fabric_and_clock() {
        let g = graph();
        let w = Wire::new(TileCoord::new(-1, 7), WireKind::PadIn(1));
        let mut out = Vec::new();
        g.downhill(w, &mut out);
        assert!(out.iter().any(|p| matches!(
            p.to.kind,
            WireKind::Single {
                dir: Dir::South,
                ..
            }
        )));
        assert!(out
            .iter()
            .any(|p| matches!(p.to.kind, WireKind::GlobalClock(_))));
    }

    #[test]
    fn long_lines_tap_periodically() {
        let g = graph();
        let mut out = Vec::new();
        g.downhill(g.long_h(6, 0), &mut out);
        assert!(!out.is_empty());
        for p in &out {
            assert_eq!(p.loc.row, 6);
            assert_eq!(p.loc.col % LONG_TAP_SPACING, 0);
        }
        out.clear();
        g.downhill(g.long_h(6, 1), &mut out);
        for p in &out {
            assert_eq!(p.loc.col % LONG_TAP_SPACING, 2);
        }
    }
}
