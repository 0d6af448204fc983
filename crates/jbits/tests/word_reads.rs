//! Differential test of the word-level reads against bit-by-bit
//! references: [`Jbits::enabled_pips`] against `tile_pips` filtered by
//! [`Jbits::get_pip`], and [`Jbits::tile_in_use`] against a scan of every
//! bit in the tile's window. Seeded random PIP, LUT and IOB writes on the
//! smallest and largest devices, over CLB tiles, all four IOB sides and
//! row slots that straddle a 32-bit word boundary.

use jbits::{Jbits, Layout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use virtex::config::BITS_PER_ROW;
use virtex::routing::PADS_PER_IOB;
use virtex::{Device, IobResource, LutId, Pip, ResourceValue, SliceId, TileCoord, TileKind};

/// Reference: `tile`'s PIPs one `get_pip` at a time, in canonical order.
fn enabled_pips_by_lookup(jb: &Jbits, tile: TileCoord) -> Vec<Pip> {
    let graph = Layout::of(jb.device()).graph();
    graph
        .tile_pips(tile)
        .into_iter()
        .filter(|p| jb.get_pip(p) == Some(true))
        .collect()
}

/// Reference: any set bit in `tile`'s window, one `get_bit` at a time.
fn in_use_by_bits(jb: &Jbits, tile: TileCoord) -> bool {
    let Some((frames, row_slot)) = Layout::of(jb.device()).window_bounds(tile) else {
        return false;
    };
    frames
        .flat_map(|f| (row_slot..row_slot + BITS_PER_ROW).map(move |b| (f, b)))
        .any(|(f, b)| jb.memory().get_bit(f, b))
}

/// Whether `tile`'s 18-bit row slot spans two frame words.
fn straddles_word(tile: TileCoord) -> bool {
    let row_slot = (tile.row + 1) as usize * BITS_PER_ROW;
    row_slot % 32 + BITS_PER_ROW > 32
}

/// Tiles under test: a random column's top pad, first two CLB rows and
/// bottom pad (slots 0, 18, 36: the first CLB row's bits 18..36 cross
/// words 0 and 1, and the neighbours share those words), a left and a
/// right pad tile, and random CLBs.
fn tiles(device: Device, rng: &mut StdRng) -> Vec<TileCoord> {
    let g = device.geometry();
    let (rows, cols) = (g.clb_rows as i32, g.clb_cols as i32);
    let col = rng.gen_range(0..cols);
    let row = rng.gen_range(0..rows);
    let mut tiles = vec![
        TileCoord::new(-1, col),
        TileCoord::new(0, col),
        TileCoord::new(1, col),
        TileCoord::new(rows, col),
        TileCoord::new(row, -1),
        TileCoord::new(row, cols),
    ];
    for _ in 0..6 {
        tiles.push(TileCoord::new(
            rng.gen_range(0..rows),
            rng.gen_range(0..cols),
        ));
    }
    tiles.sort_unstable();
    tiles.dedup();
    tiles
}

/// Seeded writes into `tiles`: each tile gets some mix of PIPs, LUTs or
/// pad settings, or is left blank.
fn write_random(jb: &mut Jbits, tiles: &[TileCoord], rng: &mut StdRng) {
    let device = jb.device();
    let graph = Layout::of(device).graph();
    for &tile in tiles {
        match rng.gen_range(0u32..4) {
            0 => continue, // left blank
            1 => {}        // logic only, no PIPs
            _ => {
                let pips = graph.tile_pips(tile);
                let density = [0.01, 0.1, 0.5][rng.gen_range(0usize..3)];
                for pip in &pips {
                    if rng.gen_bool(density) {
                        assert!(jb.set_pip(pip, true));
                    }
                }
                // The first and last PIP bits, where the region's masks
                // cut.
                if rng.gen_bool(0.5) {
                    assert!(jb.set_pip(&pips[0], true));
                    assert!(jb.set_pip(pips.last().unwrap(), true));
                }
            }
        }
        if tile.kind(device) == TileKind::Clb {
            if rng.gen_bool(0.5) {
                let slice = SliceId::ALL[rng.gen_range(0usize..2)];
                jb.set_lut(tile, slice, LutId::G, rng.gen_range(1u16..=u16::MAX));
            }
        } else if rng.gen_bool(0.5) {
            let pad = rng.gen_range(0..PADS_PER_IOB as u8);
            jb.set_iob(
                tile,
                pad,
                IobResource::OutputEnable,
                ResourceValue::bit(true),
            );
        }
    }
}

#[test]
fn word_reads_match_bit_by_bit_references() {
    let mut straddling = 0;
    let mut kinds = BTreeSet::new();
    let mut pips_seen = 0;
    for device in [Device::XCV50, Device::XCV1000] {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tiles = tiles(device, &mut rng);
            let mut jb = Jbits::new(device);
            write_random(&mut jb, &tiles, &mut rng);
            let mut got = Vec::new();
            for &tile in &tiles {
                got.clear();
                jb.enabled_pips(tile, &mut got);
                let want = enabled_pips_by_lookup(&jb, tile);
                assert_eq!(got, want, "{device:?} seed {seed} tile {tile}");
                assert_eq!(
                    jb.tile_in_use(tile),
                    in_use_by_bits(&jb, tile),
                    "{device:?} seed {seed} tile {tile}"
                );
                pips_seen += got.len();
                straddling += usize::from(straddles_word(tile));
                kinds.insert(format!("{:?}", tile.kind(device)));
            }
        }
    }
    assert!(pips_seen > 1000, "only {pips_seen} enabled PIPs compared");
    assert!(straddling > 0, "no straddling row slot covered");
    assert_eq!(kinds.len(), 5, "tile kinds covered: {kinds:?}");
}

#[test]
fn enabled_pips_appends_and_skips_tiles_without_a_window() {
    let device = Device::XCV50;
    let mut jb = Jbits::new(device);
    let tile = TileCoord::new(3, 4);
    let pips = Layout::of(device).graph().tile_pips(tile);
    assert!(jb.set_pip(&pips[5], true));
    let mut out = vec![pips[0]];
    jb.enabled_pips(tile, &mut out);
    assert_eq!(out, vec![pips[0], pips[5]], "appends after existing items");
    let g = device.geometry();
    for t in [
        TileCoord::new(-1, -1),
        TileCoord::new(g.clb_rows as i32, g.clb_cols as i32),
        TileCoord::new(500, 3),
    ] {
        jb.enabled_pips(t, &mut out);
        assert!(!jb.tile_in_use(t));
    }
    assert_eq!(out.len(), 2);
}
