//! Device-edge boundary regressions: frame addressing at the first and
//! last frames, `region_frame_ranges` at the leftmost/rightmost CLB
//! columns, pad-frame behaviour when a write run ends on the device's
//! final frame, and the last BRAM content column — on the smallest
//! (XCV50) and largest (XCV1000) devices the harness fuzzes over.

use bitstream::{partial_bitstream, FrameRange, Interpreter};
use jpg::region_frame_ranges;
use virtex::{BlockType, ConfigMemory, Device, FrameAddress};
use xdl::Rect;

fn full_height_region(d: Device, c0: i32, c1: i32) -> Rect {
    let rows = d.geometry().clb_rows as i32;
    Rect::new(0, c0, rows - 1, c1)
}

#[test]
fn frame_address_roundtrips_at_device_extremes() {
    for d in [Device::XCV50, Device::XCV1000] {
        let geom = ConfigMemory::new(d).geometry().clone();
        let total = geom.total_frames();
        for idx in [0, 1, total - 2, total - 1] {
            let far = geom.frame_address(idx).expect("in range");
            assert_eq!(geom.frame_index(far), Some(idx), "{d:?} frame {idx}");
            // And through the 32-bit FAR encoding the stream carries.
            let word = far.to_word();
            assert_eq!(FrameAddress::from_word(word), Some(far), "{d:?} {idx}");
        }
        assert_eq!(geom.frame_address(total), None, "one past the end");
    }
}

#[test]
fn region_ranges_at_column_zero_and_rightmost_column() {
    for d in [Device::XCV50, Device::XCV1000] {
        let mem = ConfigMemory::new(d);
        let geom = mem.geometry();
        let last_col = d.geometry().clb_cols - 1;

        for col in [0usize, last_col] {
            let region = full_height_region(d, col as i32, col as i32);
            let ranges = region_frame_ranges(&mem, region);
            // One CLB column plus the two IOB edge columns.
            assert_eq!(ranges.len(), 3, "{d:?} col {col}");
            for r in &ranges {
                assert!(r.valid_for(geom), "{d:?} col {col}: {r:?}");
            }
            let major = geom.major_for_clb_col(col).unwrap();
            let expect = FrameRange::for_column(geom, BlockType::Clb, major).unwrap();
            assert_eq!(ranges[0], expect, "{d:?} col {col}");
        }
    }
}

#[test]
fn region_touching_iob_ring_does_not_wrap() {
    // Columns -1/-2 are the IOB ring; before the `Rect::cols` fix they
    // wrapped to huge usize values and the column walk started at
    // usize::MAX.
    let mem = ConfigMemory::new(Device::XCV50);
    let region = full_height_region(Device::XCV50, -1, 1);
    let ranges = region_frame_ranges(&mem, region);
    // CLB columns 0 and 1 plus the two IOB edge columns.
    assert_eq!(ranges.len(), 4);
    let geom = mem.geometry();
    for r in &ranges {
        assert!(r.valid_for(geom));
    }
}

#[test]
fn huge_area_group_end_column_is_clamped_to_the_die() {
    // An `AREA_GROUP` ending at column 2^31 - 1 used to walk every
    // column up to it, each step a linear major search: ~2^31 steps.
    let ucf = "AREA_GROUP \"AG\" RANGE = CLB_R1C1:CLB_R16C2147483647 ;";
    let region = xdl::Constraints::parse(ucf).unwrap().groups["AG"];
    assert_eq!(region.col1, i32::MAX - 1);
    let d = Device::XCV50;
    let mem = ConfigMemory::new(d);
    let clb_cols = d.geometry().clb_cols;
    let clamped = full_height_region(d, 0, clb_cols as i32 - 1);
    let ranges = region_frame_ranges(&mem, region);
    assert_eq!(ranges, region_frame_ranges(&mem, clamped));
    // Every CLB column, then the two IOB edge columns.
    let geom = mem.geometry();
    let majors = (0..clb_cols)
        .map(|c| geom.major_for_clb_col(c).unwrap())
        .chain([clb_cols as u8 + 1, clb_cols as u8 + 2]);
    let expect: Vec<FrameRange> = majors
        .map(|m| FrameRange::for_column(geom, BlockType::Clb, m).unwrap())
        .collect();
    assert_eq!(ranges, expect);
}

#[test]
fn rightmost_clb_and_iob_majors_are_distinct_columns() {
    for d in [Device::XCV50, Device::XCV1000] {
        let mem = ConfigMemory::new(d);
        let geom = mem.geometry();
        let clb_cols = d.geometry().clb_cols;
        let last_major = geom.major_for_clb_col(clb_cols - 1).unwrap();
        let iob_right = clb_cols as u8 + 1;
        let iob_left = clb_cols as u8 + 2;
        let a = FrameRange::for_column(geom, BlockType::Clb, last_major).unwrap();
        let b = FrameRange::for_column(geom, BlockType::Clb, iob_right).unwrap();
        let c = FrameRange::for_column(geom, BlockType::Clb, iob_left).unwrap();
        for (x, y) in [(a, b), (a, c), (b, c)] {
            assert!(
                x.frames().all(|f| !y.frames().contains(&f)),
                "{d:?}: columns overlap"
            );
        }
        // No CLB-space major beyond the IOB columns.
        assert!(FrameRange::for_column(geom, BlockType::Clb, iob_left + 1).is_none());
    }
}

#[test]
fn write_run_ending_on_last_device_frame_commits_cleanly() {
    // The pipeline pad frame of an FDRI run targeting the final frame
    // must not be counted against the device bounds.
    for d in [Device::XCV50, Device::XCV1000] {
        let mut mem = ConfigMemory::new(d);
        let total = mem.frame_count();
        mem.frame_mut(total - 1)[0] = 0xDEAD_0001;
        mem.frame_mut(total - 2)[1] = 0xDEAD_0002;
        let partial = partial_bitstream(&mem, &[FrameRange::new(total - 2, 2)]);
        let mut dev = Interpreter::new(d);
        dev.feed(&partial).expect("last-frame run decodes");
        assert_eq!(dev.memory(), &mem, "{d:?}");
    }
}

#[test]
fn last_bram_content_column_covers_the_device_tail() {
    for d in [Device::XCV50, Device::XCV1000] {
        let mem = ConfigMemory::new(d);
        let geom = mem.geometry();
        // BRAM content majors: 0 = right column, 1 = left column; the
        // left one is the last column in linear frame order.
        let right = FrameRange::for_column(geom, BlockType::BramContent, 0).unwrap();
        let left = FrameRange::for_column(geom, BlockType::BramContent, 1).unwrap();
        let content_frames = virtex::config::BRAM_CONTENT_FRAMES;
        assert_eq!(right.len, content_frames, "{d:?}");
        assert_eq!(left.len, content_frames, "{d:?}");
        let tail = right.start.max(left.start);
        assert_eq!(
            tail + content_frames,
            geom.total_frames(),
            "{d:?}: a BRAM content column ends the frame sequence"
        );
        assert!(FrameRange::for_column(geom, BlockType::BramContent, 2).is_none());
    }
}
