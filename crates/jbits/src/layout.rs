//! The configuration-bit layout: where every resource and PIP lives.
//!
//! Each tile owns a rectangular window of the configuration memory: the
//! frames of its column × its 18-bit row slot. Within that window,
//! tile-local bit `b` maps to frame `first_frame + b / 18`, frame-bit
//! `row_slot + b % 18`:
//!
//! * **CLB tiles** use their CLB column and row slot `row + 1`; bits
//!   `0..ClbResource::total_bits()` hold slice logic in canonical
//!   [`virtex::ClbResource::all`] order, followed by one bit per PIP in
//!   [`virtex::RoutingGraph::tile_pips`] order.
//! * **Top/bottom IOB tiles** use the same CLB column but the pad row
//!   slots (0 and `rows + 1`); **left/right IOB tiles** use the IOB
//!   columns. Bits `0..PADS_PER_IOB * 7` hold pad logic, then PIPs.
//! * **Corner and off-device tiles** have no window: every lookup there
//!   returns `None`, as do slice lookups on IOB tiles, pad lookups on CLB
//!   tiles and pad indices past the last.
//!
//! Budget: a CLB's window is 48 frames × 18 bits = 864 bits; slice logic
//! uses ~110 and the switch box ~540, asserted in tests.

use std::sync::OnceLock;
use virtex::config::BITS_PER_ROW;
use virtex::routing::PADS_PER_IOB;
use virtex::{
    BlockType, ClbResource, ConfigGeometry, ConfigMemory, Device, IobResource, Pip, RoutingGraph,
    SliceId, TileCoord, TileKind, Wire,
};

/// CAPTURE slots per CLB tile: the four flip-flops' state, written into
/// the configuration plane by the capture facility so readback can
/// observe live register values (slice-major order: S0.X, S0.Y, S1.X,
/// S1.Y).
pub const CAPTURE_BITS: usize = 4;

/// An absolute configuration-bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitPos {
    /// Linear frame index.
    pub frame: usize,
    /// Bit within the frame.
    pub bit: usize,
}

/// One tile's window: where its bits sit, plus the PIP lookup table.
#[derive(Debug)]
struct TileWindow {
    first_frame: usize,
    frame_count: usize,
    row_slot: usize,
    /// `(from, to) -> tile-local pip index`, sorted for binary search.
    /// Empty in a window that [`Layout::bounds`] computes on the fly.
    pips: Box<[((Wire, Wire), u32)]>,
    /// The inverse of `pips`: tile-local pip index -> its entry there,
    /// so a bit found set in the PIP region names its PIP directly.
    by_index: Box<[u32]>,
    pip_base: usize,
}

impl TileWindow {
    fn local_to_pos(&self, local: usize) -> BitPos {
        let minor = local / BITS_PER_ROW;
        assert!(
            minor < self.frame_count,
            "tile bit budget exceeded: local bit {local} needs minor {minor} of {}",
            self.frame_count
        );
        BitPos {
            frame: self.first_frame + minor,
            bit: self.row_slot + local % BITS_PER_ROW,
        }
    }
}

/// The device-wide layout. The map from resource to bit is fixed by the
/// device, so there is one immutable `Layout` per [`Device`], shared by
/// every session in the process ([`Layout::of`]). Each tile's window
/// fills lazily on first touch, once, and is lock-free to read after.
#[derive(Debug)]
pub struct Layout {
    device: Device,
    geom: ConfigGeometry,
    graph: RoutingGraph,
    /// One slot per ring-inclusive tile position, row-major from
    /// `(-1, -1)`; corner slots stay empty.
    tiles: Box<[OnceLock<TileWindow>]>,
}

impl Layout {
    /// The shared layout of `device`.
    pub fn of(device: Device) -> &'static Layout {
        static LAYOUTS: [OnceLock<Layout>; Device::ALL.len()] =
            [const { OnceLock::new() }; Device::ALL.len()];
        LAYOUTS[device as usize].get_or_init(|| {
            let g = device.geometry();
            Layout {
                device,
                geom: ConfigGeometry::for_device(device),
                graph: RoutingGraph::new(device),
                tiles: (0..(g.clb_rows + 2) * (g.clb_cols + 2))
                    .map(|_| OnceLock::new())
                    .collect(),
            }
        })
    }

    /// The device.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The configuration geometry.
    pub fn geometry(&self) -> &ConfigGeometry {
        &self.geom
    }

    /// The routing graph (shared with the router).
    pub fn graph(&self) -> &RoutingGraph {
        &self.graph
    }

    /// `tile`'s window with its PIP table, built on first touch. `None`
    /// for tiles with no configuration window (off-device or corner).
    fn window(&self, tile: TileCoord) -> Option<&TileWindow> {
        let g = self.device.geometry();
        let (rows, cols) = (g.clb_rows + 2, g.clb_cols + 2);
        let r = usize::try_from(tile.row.checked_add(1)?).ok()?;
        let c = usize::try_from(tile.col.checked_add(1)?).ok()?;
        if r >= rows || c >= cols {
            return None;
        }
        let slot = &self.tiles[r * cols + c];
        if let Some(w) = slot.get() {
            return Some(w);
        }
        let mut w = self.bounds(tile)?;
        let mut pips: Vec<((Wire, Wire), u32)> = self
            .graph
            .tile_pips(tile)
            .into_iter()
            .enumerate()
            .map(|(i, p)| ((p.from, p.to), i as u32))
            .collect();
        pips.sort_unstable_by_key(|a| a.0);
        let mut by_index = vec![0u32; pips.len()];
        for (entry, &(_, i)) in pips.iter().enumerate() {
            by_index[i as usize] = entry as u32;
        }
        w.pips = pips.into_boxed_slice();
        w.by_index = by_index.into_boxed_slice();
        // A racing thread may have filled the slot meanwhile; both built
        // the same window, so whichever landed first is kept.
        Some(slot.get_or_init(|| w))
    }

    /// `tile`'s window without its PIP table: cheap arithmetic, so
    /// emptiness scans over a whole device never build PIP tables.
    fn bounds(&self, tile: TileCoord) -> Option<TileWindow> {
        let kind = tile.kind(self.device);
        let clb_cols = self.device.geometry().clb_cols as u8;
        let major = match kind {
            TileKind::Clb | TileKind::IobTop | TileKind::IobBottom => {
                self.geom.major_for_clb_col(tile.col as usize)?
            }
            // IOB columns come after the CLB columns in major order:
            // right first, then left.
            TileKind::IobRight => clb_cols + 1,
            TileKind::IobLeft => clb_cols + 2,
            TileKind::Corner | TileKind::OffDevice => return None,
        };
        let col = self.geom.column(BlockType::Clb, major)?;
        Some(TileWindow {
            first_frame: col.first_frame_index(),
            frame_count: col.frame_count(),
            // Row slots run top ring (0), CLB rows, bottom ring: the
            // `row_bit_offset` rule extended to the ring rows.
            row_slot: (tile.row + 1) as usize * BITS_PER_ROW,
            pips: Box::default(),
            by_index: Box::default(),
            // CLBs: logic bits, then the four CAPTURE slots (flip-flop
            // state snapshots for readback), then PIPs.
            pip_base: match kind {
                TileKind::Clb => ClbResource::total_bits() + CAPTURE_BITS,
                _ => iob_logic_bits(),
            },
        })
    }

    /// Position of tile-local bit `local`, if `tile` is of the kind that
    /// holds it.
    fn local_pos(&self, tile: TileCoord, right_kind: bool, local: usize) -> Option<BitPos> {
        let w = right_kind.then(|| self.window(tile)).flatten()?;
        Some(w.local_to_pos(local))
    }

    /// Position of bit `i` of a slice resource (multi-bit fields occupy
    /// consecutive tile-local bits and may wrap onto the next frame).
    /// `None` unless `tile` is a CLB tile.
    pub fn clb_resource_bit(&self, tile: TileCoord, res: ClbResource, i: usize) -> Option<BitPos> {
        debug_assert!(i < res.bit_width());
        self.clb_resource_bits(tile, res)?.nth(i)
    }

    /// Positions of every bit of a slice resource, bit 0 first: the tile
    /// and resource are resolved once, not per bit. `None` unless `tile`
    /// is a CLB tile.
    pub fn clb_resource_bits(
        &self,
        tile: TileCoord,
        res: ClbResource,
    ) -> Option<impl Iterator<Item = BitPos> + '_> {
        let w = tile
            .is_clb(self.device)
            .then(|| self.window(tile))
            .flatten()?;
        let local = clb_resource_offset(res);
        Some((local..local + res.bit_width()).map(|l| w.local_to_pos(l)))
    }

    /// Position of bit `i` of an IOB pad resource. `None` unless `tile`
    /// is an IOB tile and `pad < PADS_PER_IOB`.
    pub fn iob_resource_bit(
        &self,
        tile: TileCoord,
        pad: u8,
        res: IobResource,
        i: usize,
    ) -> Option<BitPos> {
        debug_assert!(i < res.bit_width());
        let right_kind = tile.is_iob(self.device) && (pad as usize) < PADS_PER_IOB;
        self.local_pos(tile, right_kind, iob_resource_offset(pad, res) + i)
    }

    /// Position of the CAPTURE slot for a flip-flop: `x_ff` selects FFX
    /// (true) or FFY. `None` unless `tile` is a CLB tile.
    pub fn capture_pos(&self, tile: TileCoord, slice: SliceId, x_ff: bool) -> Option<BitPos> {
        let local = ClbResource::total_bits() + slice.index() * 2 + usize::from(!x_ff);
        self.local_pos(tile, tile.is_clb(self.device), local)
    }

    /// Bit position of a PIP's enable bit, or `None` if the PIP does not
    /// exist in the fabric.
    pub fn pip_pos(&self, pip: &Pip) -> Option<BitPos> {
        let w = self.window(pip.loc)?;
        let idx = w
            .pips
            .binary_search_by(|(k, _)| k.cmp(&(pip.from, pip.to)))
            .ok()?;
        Some(w.local_to_pos(w.pip_base + w.pips[idx].1 as usize))
    }

    /// Append the PIPs of `tile` whose enable bit is set in `mem`, in
    /// canonical [`RoutingGraph::tile_pips`] order. Reads the PIP region
    /// one row-slot field (one or two words) per frame instead of looking
    /// each PIP up.
    pub(crate) fn enabled_pips(&self, mem: &ConfigMemory, tile: TileCoord, out: &mut Vec<Pip>) {
        let Some(w) = self.window(tile) else { return };
        let end = w.pip_base + w.by_index.len();
        for minor in w.pip_base / BITS_PER_ROW..end.div_ceil(BITS_PER_ROW) {
            let lo = minor * BITS_PER_ROW;
            let frame = w.local_to_pos(lo).frame;
            let mut field = slot_field(mem.frame(frame), w.row_slot);
            if lo < w.pip_base {
                field &= SLOT_MASK << (w.pip_base - lo);
            }
            if end < lo + BITS_PER_ROW {
                field &= (1 << (end - lo)) - 1;
            }
            while field != 0 {
                let local = lo + field.trailing_zeros() as usize;
                field &= field - 1;
                let ((from, to), _) = w.pips[w.by_index[local - w.pip_base] as usize];
                out.push(Pip {
                    loc: tile,
                    from,
                    to,
                });
            }
        }
    }

    /// The tile window's frame range and per-frame bit offset of its
    /// 18-bit row slot — lets callers scan a tile's bits without going
    /// through per-resource lookups. `None` for tiles with no window.
    pub fn window_bounds(&self, tile: TileCoord) -> Option<(std::ops::Range<usize>, usize)> {
        let w = self.bounds(tile)?;
        Some((w.first_frame..w.first_frame + w.frame_count, w.row_slot))
    }
}

/// The low [`BITS_PER_ROW`] bits.
const SLOT_MASK: u32 = (1 << BITS_PER_ROW) - 1;

/// The 18-bit row-slot field of `frame` starting at frame bit `row_slot`:
/// bit `i` of the result is frame bit `row_slot + i`. The field spans two
/// words when it straddles a word boundary.
pub(crate) fn slot_field(frame: &[u32], row_slot: usize) -> u32 {
    let (word, shift) = (row_slot / 32, row_slot % 32);
    let mut field = u64::from(frame[word]) >> shift;
    if shift + BITS_PER_ROW > 32 {
        field |= u64::from(frame[word + 1]) << (32 - shift);
    }
    field as u32 & SLOT_MASK
}

/// Tile-local bit offset of a slice resource: cumulative widths in
/// canonical order.
fn clb_resource_offset(res: ClbResource) -> usize {
    let mut off = 0;
    for r in ClbResource::all() {
        if r == res {
            return off;
        }
        off += r.bit_width();
    }
    panic!("resource not in canonical enumeration");
}

/// Bits of pad logic per IOB tile.
fn iob_logic_bits() -> usize {
    PADS_PER_IOB
        * IobResource::ALL
            .iter()
            .map(|r| r.bit_width())
            .sum::<usize>()
}

/// Tile-local bit offset of an IOB pad resource.
fn iob_resource_offset(pad: u8, res: IobResource) -> usize {
    let per_pad: usize = IobResource::ALL.iter().map(|r| r.bit_width()).sum();
    let mut off = pad as usize * per_pad;
    for r in IobResource::ALL {
        if r == res {
            return off;
        }
        off += r.bit_width();
    }
    panic!("IOB resource not in canonical enumeration");
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::SliceResource;

    fn ckinv() -> ClbResource {
        ClbResource::new(SliceId::S0, SliceResource::CkInv)
    }

    #[test]
    fn one_layout_per_device() {
        for (i, d) in Device::ALL.into_iter().enumerate() {
            assert_eq!(d as usize, i, "Device::ALL order indexes the table");
        }
        let a = Layout::of(Device::XCV50);
        assert!(std::ptr::eq(a, Layout::of(Device::XCV50)));
        assert!(!std::ptr::eq(a, Layout::of(Device::XCV100)));
        assert_eq!(Layout::of(Device::XCV100).device(), Device::XCV100);
    }

    #[test]
    fn clb_window_fits_budget_everywhere() {
        // Worst case: every CLB tile's logic + pips must fit 48 frames.
        let layout = Layout::of(Device::XCV50);
        let g = Device::XCV50.geometry();
        for &row in &[0usize, g.clb_rows / 2, g.clb_rows - 1] {
            for &col in &[0usize, g.clb_cols / 2, g.clb_cols - 1] {
                let tile = TileCoord::new(row as i32, col as i32);
                let pips = layout.graph.tile_pips(tile);
                let total = ClbResource::total_bits() + CAPTURE_BITS + pips.len();
                assert!(
                    total <= 48 * BITS_PER_ROW,
                    "{tile}: {total} bits exceed the window"
                );
                // Touch the last pip to exercise the assert in
                // local_to_pos.
                let last = pips.last().unwrap();
                layout.pip_pos(last).unwrap();
            }
        }
    }

    #[test]
    fn resource_positions_are_unique_within_tile() {
        let layout = Layout::of(Device::XCV50);
        let tile = TileCoord::new(2, 3);
        let mut seen = std::collections::HashSet::new();
        for res in ClbResource::all() {
            for i in 0..res.bit_width() {
                let p = layout.clb_resource_bit(tile, res, i).unwrap();
                assert!(seen.insert(p), "bit collision at {p:?} for {res:?}");
            }
        }
    }

    #[test]
    fn capture_slots_do_not_collide_with_logic_or_pips() {
        let layout = Layout::of(Device::XCV50);
        let tile = TileCoord::new(5, 5);
        let mut seen = std::collections::HashSet::new();
        for res in ClbResource::all() {
            for i in 0..res.bit_width() {
                seen.insert(layout.clb_resource_bit(tile, res, i).unwrap());
            }
        }
        for slice in SliceId::ALL {
            for x in [true, false] {
                let p = layout.capture_pos(tile, slice, x).unwrap();
                assert!(seen.insert(p), "capture slot collides at {p:?}");
            }
        }
        for pip in layout.graph().tile_pips(tile) {
            let p = layout.pip_pos(&pip).unwrap();
            assert!(seen.insert(p), "pip collides with capture at {p:?}");
        }
    }

    #[test]
    fn different_tiles_use_disjoint_windows() {
        let layout = Layout::of(Device::XCV50);
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(1, 0); // same column, next row slot
        let c = TileCoord::new(0, 1); // different column
        let pa = layout.clb_resource_bit(a, ckinv(), 0).unwrap();
        let pb = layout.clb_resource_bit(b, ckinv(), 0).unwrap();
        let pc = layout.clb_resource_bit(c, ckinv(), 0).unwrap();
        assert_eq!(pa.frame, pb.frame, "same column, same frames");
        assert_ne!(pa.bit, pb.bit, "different row slots");
        assert_ne!(pa.frame, pc.frame, "different columns");
    }

    #[test]
    fn iob_tiles_have_windows() {
        let layout = Layout::of(Device::XCV50);
        let g = Device::XCV50.geometry();
        for tile in [
            TileCoord::new(-1, 3),
            TileCoord::new(g.clb_rows as i32, 3),
            TileCoord::new(3, -1),
            TileCoord::new(3, g.clb_cols as i32),
        ] {
            let pos = layout
                .iob_resource_bit(tile, 2, IobResource::OutputEnable, 0)
                .unwrap();
            assert!(pos.frame < layout.geometry().total_frames());
            // All pips of the tile resolve.
            for p in layout.graph().tile_pips(tile) {
                assert!(layout.pip_pos(&p).is_some(), "{p} has no bit");
            }
        }
    }

    #[test]
    fn top_iob_shares_column_with_clbs_below() {
        let layout = Layout::of(Device::XCV50);
        let top = TileCoord::new(-1, 5);
        let clb = TileCoord::new(0, 5);
        let iob_pos = layout
            .iob_resource_bit(top, 0, IobResource::InputEnable, 0)
            .unwrap();
        let clb_pos = layout.clb_resource_bit(clb, ckinv(), 0).unwrap();
        let (col_frames, _) = layout.window_bounds(clb).unwrap();
        assert!(col_frames.contains(&iob_pos.frame));
        assert!(col_frames.contains(&clb_pos.frame));
    }

    #[test]
    fn nonexistent_pip_has_no_position() {
        let layout = Layout::of(Device::XCV50);
        let t = TileCoord::new(3, 3);
        let bogus = Pip {
            loc: t,
            from: Wire::new(t, virtex::WireKind::Omux(0)),
            to: Wire::new(t, virtex::WireKind::Omux(1)),
        };
        assert_eq!(layout.pip_pos(&bogus), None);
    }

    #[test]
    fn tiles_without_a_window_have_no_positions() {
        let layout = Layout::of(Device::XCV50);
        let (rows, cols) = (16, 24);
        let clb = TileCoord::new(2, 2);
        let iob = TileCoord::new(-1, 2);
        for t in [
            TileCoord::new(-1, -1),
            TileCoord::new(rows, cols),
            TileCoord::new(2, 222),
            TileCoord::new(i32::MAX, i32::MIN),
            TileCoord::new(i32::MIN, -1),
        ] {
            assert_eq!(layout.window_bounds(t), None, "{t:?}");
            assert_eq!(layout.clb_resource_bit(t, ckinv(), 0), None, "{t:?}");
            let pip = Pip {
                loc: t,
                ..layout.graph().tile_pips(clb)[0]
            };
            assert_eq!(layout.pip_pos(&pip), None, "{t:?}");
        }
        // Wrong kind, and a pad past the last one.
        assert_eq!(layout.clb_resource_bit(iob, ckinv(), 0), None);
        assert_eq!(layout.capture_pos(iob, SliceId::S0, true), None);
        let pad = IobResource::InputEnable;
        assert_eq!(layout.iob_resource_bit(clb, 0, pad, 0), None);
        assert_eq!(
            layout.iob_resource_bit(iob, PADS_PER_IOB as u8, pad, 0),
            None
        );
        assert!(layout
            .iob_resource_bit(iob, PADS_PER_IOB as u8 - 1, pad, 0)
            .is_some());
    }
}
