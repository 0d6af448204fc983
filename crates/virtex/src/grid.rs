//! Tile grid: coordinates for CLB and IOB tiles and the Virtex site-naming
//! convention (`CLB_R3C23.S0`) used by XDL files.
//!
//! CLB tiles occupy rows `0..clb_rows` and columns `0..clb_cols` with row 0
//! at the *top* of the die (matching the `R1C1`-is-top-left convention of
//! the Xilinx tools). IOB tiles form a ring one step outside the CLB
//! array: row −1 (top), row `clb_rows` (bottom), column −1 (left) and
//! column `clb_cols` (right).

use crate::family::Device;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the two slices in a CLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SliceId {
    /// Slice 0 (the `.S0` site).
    S0,
    /// Slice 1 (the `.S1` site).
    S1,
}

impl SliceId {
    /// Both slices, in index order.
    pub const ALL: [SliceId; 2] = [SliceId::S0, SliceId::S1];

    /// Numeric index (0 or 1).
    pub fn index(self) -> usize {
        match self {
            SliceId::S0 => 0,
            SliceId::S1 => 1,
        }
    }

    /// Inverse of [`Self::index`].
    pub fn from_index(i: usize) -> Option<SliceId> {
        match i {
            0 => Some(SliceId::S0),
            1 => Some(SliceId::S1),
            _ => None,
        }
    }
}

/// What occupies a grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileKind {
    /// A configurable logic block (two slices).
    Clb,
    /// An I/O block tile on the named edge.
    IobTop,
    /// Bottom-edge IOB tile.
    IobBottom,
    /// Left-edge IOB tile.
    IobLeft,
    /// Right-edge IOB tile.
    IobRight,
    /// A corner of the IOB ring (no user resources).
    Corner,
    /// Outside the device entirely.
    OffDevice,
}

/// A tile position. CLBs sit at `0..rows × 0..cols`; the IOB ring uses
/// row/column −1 and `rows`/`cols`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileCoord {
    /// Row, top = 0. IOB ring uses −1 and `clb_rows`.
    pub row: i32,
    /// Column, left = 0. IOB ring uses −1 and `clb_cols`.
    pub col: i32,
}

impl TileCoord {
    /// Construct a coordinate.
    pub fn new(row: i32, col: i32) -> Self {
        TileCoord { row, col }
    }

    /// Classify this coordinate for `device`.
    pub fn kind(self, device: Device) -> TileKind {
        let g = device.geometry();
        let (rows, cols) = (g.clb_rows as i32, g.clb_cols as i32);
        let in_r = (0..rows).contains(&self.row);
        let in_c = (0..cols).contains(&self.col);
        match (self.row, self.col) {
            _ if in_r && in_c => TileKind::Clb,
            (-1, c) if (0..cols).contains(&c) => TileKind::IobTop,
            (r, c) if r == rows && (0..cols).contains(&c) => TileKind::IobBottom,
            (r, -1) if (0..rows).contains(&r) => TileKind::IobLeft,
            (r, c) if c == cols && (0..rows).contains(&r) => TileKind::IobRight,
            (-1, -1) => TileKind::Corner,
            (-1, c) if c == cols => TileKind::Corner,
            (r, -1) if r == rows => TileKind::Corner,
            (r, c) if r == rows && c == cols => TileKind::Corner,
            _ => TileKind::OffDevice,
        }
    }

    /// Whether this is a CLB tile on `device`.
    pub fn is_clb(self, device: Device) -> bool {
        self.kind(device) == TileKind::Clb
    }

    /// Whether this is any IOB tile on `device`.
    pub fn is_iob(self, device: Device) -> bool {
        matches!(
            self.kind(device),
            TileKind::IobTop | TileKind::IobBottom | TileKind::IobLeft | TileKind::IobRight
        )
    }

    /// Manhattan distance to another tile.
    pub fn manhattan(self, other: TileCoord) -> u32 {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

impl fmt::Display for TileCoord {
    /// Xilinx convention: 1-based `R{row}C{col}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}C{}", self.row + 1, self.col + 1)
    }
}

/// A slice site: CLB tile plus slice index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SliceCoord {
    /// The CLB tile.
    pub tile: TileCoord,
    /// Which slice in the tile.
    pub slice: SliceId,
}

impl SliceCoord {
    /// Construct a slice site.
    pub fn new(tile: TileCoord, slice: SliceId) -> Self {
        SliceCoord { tile, slice }
    }

    /// Xilinx site name, e.g. `CLB_R3C23.S0` (rows/cols are 1-based in
    /// names).
    pub fn site_name(self) -> String {
        format!(
            "CLB_R{}C{}.S{}",
            self.tile.row + 1,
            self.tile.col + 1,
            self.slice.index()
        )
    }

    /// Parse a site name produced by [`Self::site_name`] (also accepts the
    /// bare `R3C23.S0` form XDL placement fields use).
    pub fn parse_site_name(s: &str) -> Option<SliceCoord> {
        let s = s.strip_prefix("CLB_").unwrap_or(s);
        let (rc, slice) = s.split_once(".S")?;
        let slice = SliceId::from_index(slice.parse::<usize>().ok()?)?;
        let rc = rc.strip_prefix('R')?;
        let (row, col) = rc.split_once('C')?;
        let row: i32 = row.parse().ok()?;
        let col: i32 = col.parse().ok()?;
        if row < 1 || col < 1 {
            return None;
        }
        Some(SliceCoord::new(TileCoord::new(row - 1, col - 1), slice))
    }
}

impl fmt::Display for SliceCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.site_name())
    }
}

/// An IOB site: IOB ring tile plus pad index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IobCoord {
    /// The IOB ring tile.
    pub tile: TileCoord,
    /// Pad index within the tile (`0..routing::PADS_PER_IOB`).
    pub pad: u8,
}

impl IobCoord {
    /// Construct an IOB site.
    pub fn new(tile: TileCoord, pad: u8) -> Self {
        IobCoord { tile, pad }
    }

    /// Site name, e.g. `IOB_R0C6.P2` (the ring uses row/column 0 and
    /// `rows+1`/`cols+1` in 1-based naming).
    pub fn site_name(self) -> String {
        format!(
            "IOB_R{}C{}.P{}",
            self.tile.row + 1,
            self.tile.col + 1,
            self.pad
        )
    }

    /// Parse a site name produced by [`Self::site_name`].
    pub fn parse_site_name(s: &str) -> Option<IobCoord> {
        let s = s.strip_prefix("IOB_")?;
        let (rc, pad) = s.split_once(".P")?;
        let pad: u8 = pad.parse().ok()?;
        let rc = rc.strip_prefix('R')?;
        let (row, col) = rc.split_once('C')?;
        let row: i32 = row.parse().ok()?;
        let col: i32 = col.parse().ok()?;
        let tile = TileCoord::new(row.checked_sub(1)?, col.checked_sub(1)?);
        Some(IobCoord::new(tile, pad))
    }
}

impl fmt::Display for IobCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.site_name())
    }
}

/// Iterate over every CLB tile of `device` in row-major order.
pub fn clb_tiles(device: Device) -> impl Iterator<Item = TileCoord> {
    let g = device.geometry();
    (0..g.clb_rows as i32)
        .flat_map(move |r| (0..g.clb_cols as i32).map(move |c| TileCoord::new(r, c)))
}

/// Iterate over every IOB tile of `device` (top, bottom, left, right).
pub fn iob_tiles(device: Device) -> impl Iterator<Item = TileCoord> {
    let g = device.geometry();
    let (rows, cols) = (g.clb_rows as i32, g.clb_cols as i32);
    let top = (0..cols).map(move |c| TileCoord::new(-1, c));
    let bottom = (0..cols).map(move |c| TileCoord::new(rows, c));
    let left = (0..rows).map(move |r| TileCoord::new(r, -1));
    let right = (0..rows).map(move |r| TileCoord::new(r, cols));
    top.chain(bottom).chain(left).chain(right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_tiles() {
        let d = Device::XCV50; // 16 x 24
        assert_eq!(TileCoord::new(0, 0).kind(d), TileKind::Clb);
        assert_eq!(TileCoord::new(15, 23).kind(d), TileKind::Clb);
        assert_eq!(TileCoord::new(-1, 5).kind(d), TileKind::IobTop);
        assert_eq!(TileCoord::new(16, 5).kind(d), TileKind::IobBottom);
        assert_eq!(TileCoord::new(5, -1).kind(d), TileKind::IobLeft);
        assert_eq!(TileCoord::new(5, 24).kind(d), TileKind::IobRight);
        assert_eq!(TileCoord::new(-1, -1).kind(d), TileKind::Corner);
        assert_eq!(TileCoord::new(16, 24).kind(d), TileKind::Corner);
        assert_eq!(TileCoord::new(-2, 0).kind(d), TileKind::OffDevice);
        assert_eq!(TileCoord::new(0, 99).kind(d), TileKind::OffDevice);
    }

    #[test]
    fn site_name_matches_paper_example() {
        // The paper's XDL sample places an instance at "R3C23" slice S0,
        // i.e. site CLB_R3C23.S0.
        let sc = SliceCoord::new(TileCoord::new(2, 22), SliceId::S0);
        assert_eq!(sc.site_name(), "CLB_R3C23.S0");
        assert_eq!(SliceCoord::parse_site_name("CLB_R3C23.S0"), Some(sc));
        assert_eq!(SliceCoord::parse_site_name("R3C23.S0"), Some(sc));
    }

    #[test]
    fn site_name_rejects_garbage() {
        assert_eq!(SliceCoord::parse_site_name("CLB_R0C5.S0"), None);
        assert_eq!(SliceCoord::parse_site_name("CLB_R3C23.S2"), None);
        assert_eq!(SliceCoord::parse_site_name("TIOB_R3C23"), None);
        assert_eq!(SliceCoord::parse_site_name(""), None);
    }

    #[test]
    fn tile_census() {
        let d = Device::XCV50;
        assert_eq!(clb_tiles(d).count(), 16 * 24);
        assert_eq!(iob_tiles(d).count(), 2 * 24 + 2 * 16);
        assert!(clb_tiles(d).all(|t| t.is_clb(d)));
        assert!(iob_tiles(d).all(|t| t.is_iob(d)));
    }

    #[test]
    fn iob_site_name_roundtrip() {
        let io = IobCoord::new(TileCoord::new(-1, 5), 2);
        assert_eq!(io.site_name(), "IOB_R0C6.P2");
        assert_eq!(IobCoord::parse_site_name("IOB_R0C6.P2"), Some(io));
        // Bottom ring of an XCV50 is row 16 -> named R17.
        let io = IobCoord::new(TileCoord::new(16, 0), 0);
        assert_eq!(io.site_name(), "IOB_R17C1.P0");
        assert_eq!(IobCoord::parse_site_name(&io.site_name()), Some(io));
        assert_eq!(IobCoord::parse_site_name("CLB_R1C1.S0"), None);
    }

    #[test]
    fn iob_site_name_rejects_overflow() {
        assert_eq!(IobCoord::parse_site_name("IOB_R-2147483648C1.P0"), None);
        assert_eq!(IobCoord::parse_site_name("IOB_R1C-2147483648.P0"), None);
        assert_eq!(IobCoord::parse_site_name("IOB_R2147483648C1.P0"), None);
        let edge = IobCoord::parse_site_name("IOB_R-2147483647C2147483647.P0");
        assert_eq!(
            edge.map(|io| io.tile),
            Some(TileCoord::new(i32::MIN, i32::MAX - 1))
        );
    }

    #[test]
    fn manhattan_distance() {
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(3, -4);
        assert_eq!(a.manhattan(b), 7);
        assert_eq!(b.manhattan(a), 7);
        assert_eq!(a.manhattan(a), 0);
    }
}
