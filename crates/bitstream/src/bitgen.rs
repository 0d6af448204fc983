//! Bitstream generation: the complete-configuration path (what the vendor
//! `bitgen` tool does) and the partial path (what JPG adds).
//!
//! Both paths speak the same packet protocol:
//!
//! * a full bitstream resets the CRC, programs `FLR`/`COR`/`IDCODE`, seeks
//!   `FAR` to frame 0 and streams *every* frame through one giant type-2
//!   `FDRI` write (plus one trailing pad frame for the frame pipeline);
//! * a partial bitstream seeks `FAR` to the first frame of each dirty
//!   range and streams just those frames, one `FDRI` write per contiguous
//!   range.
//!
//! The trailing pad frame per `FDRI` run mirrors the silicon's one-frame
//! write pipeline: the final frame of any run is never committed.

use crate::regs::{Command, Register};
use crate::writer::{Bitstream, BitstreamWriter};
use serde::{Deserialize, Serialize};
use virtex::{BlockType, ConfigGeometry, ConfigMemory};

/// Default configuration-options word written to `COR`.
pub const DEFAULT_COR: u32 = 0x0000_3FE5;

/// A contiguous run of frames in linear frame-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameRange {
    /// First frame (linear index).
    pub start: usize,
    /// Number of frames.
    pub len: usize,
}

impl FrameRange {
    /// A range of `len` frames starting at `start`.
    pub fn new(start: usize, len: usize) -> Self {
        FrameRange { start, len }
    }

    /// The whole device.
    pub fn whole_device(geom: &ConfigGeometry) -> Self {
        FrameRange::new(0, geom.total_frames())
    }

    /// All frames of one configuration column.
    pub fn for_column(geom: &ConfigGeometry, block: BlockType, major: u8) -> Option<Self> {
        let col = geom.column(block, major)?;
        Some(FrameRange::new(col.first_frame_index(), col.frame_count()))
    }

    /// Frame indices covered.
    pub fn frames(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }

    /// Whether the range is within the device.
    pub fn valid_for(&self, geom: &ConfigGeometry) -> bool {
        self.len > 0 && self.start + self.len <= geom.total_frames()
    }
}

/// Merge overlapping/adjacent frame indices into maximal contiguous
/// ranges. The input need not be sorted.
pub fn coalesce_frames(frames: Vec<usize>) -> Vec<FrameRange> {
    coalesce_frames_bridged(frames, 0)
}

/// [`coalesce_frames`], additionally bridging gaps of up to `max_gap`
/// frames between runs. A bridged frame is emitted with its current
/// content — a no-op write when it is unchanged — which costs
/// `frame_words` payload words but saves a packet run's `FAR`/`WCFG`/
/// `FDRI` headers plus its pipeline pad frame. For single-frame gaps
/// that trade is a net win (in both bytes and CRC work) on every Virtex
/// geometry, so incremental generators pass `max_gap = 1`.
pub fn coalesce_frames_bridged(mut frames: Vec<usize>, max_gap: usize) -> Vec<FrameRange> {
    let mut out = Vec::new();
    coalesce_frames_bridged_into(&mut frames, max_gap, &mut out);
    out
}

/// [`coalesce_frames_bridged`] into caller-owned buffers: `frames` is
/// sorted and deduplicated in place, `out` is cleared and refilled.
/// Allocation-free once both vectors have grown to their working size.
pub fn coalesce_frames_bridged_into(
    frames: &mut Vec<usize>,
    max_gap: usize,
    out: &mut Vec<FrameRange>,
) {
    frames.sort_unstable();
    frames.dedup();
    out.clear();
    for &f in frames.iter() {
        match out.last_mut() {
            Some(r) if f - (r.start + r.len) <= max_gap => r.len = f - r.start + 1,
            _ => out.push(FrameRange::new(f, 1)),
        }
    }
}

/// [`coalesce_frames_bridged`] that additionally refuses to merge runs
/// across `boundaries`: a sorted list of frame indices at which a new
/// relocation region begins. Two regions that happen to sit adjacent in
/// frame space after relocation still have **different origins** — a
/// bridged run spanning both would re-emit bridge frames that belong to
/// the neighbouring region's stream, so the relocation engine and the
/// defragmenter's store must keep their runs separate even where plain
/// bridging would merge them.
pub fn coalesce_frames_bridged_bounded(
    mut frames: Vec<usize>,
    max_gap: usize,
    boundaries: &[usize],
) -> Vec<FrameRange> {
    debug_assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "unsorted boundaries"
    );
    frames.sort_unstable();
    frames.dedup();
    let region_of = |f: usize| boundaries.partition_point(|&b| b <= f);
    let mut out: Vec<FrameRange> = Vec::new();
    for &f in &frames {
        match out.last_mut() {
            Some(r) if f - (r.start + r.len) <= max_gap && region_of(f) == region_of(r.start) => {
                r.len = f - r.start + 1
            }
            _ => out.push(FrameRange::new(f, 1)),
        }
    }
    out
}

fn frame_payload(mem: &ConfigMemory, range: FrameRange) -> Vec<u32> {
    let fw = mem.frame_words();
    let mut data = Vec::with_capacity((range.len + 1) * fw);
    data.extend_from_slice(mem.frame_span(range.start, range.len));
    data.extend(std::iter::repeat_n(0, fw)); // pipeline pad frame
    data
}

/// Reusable buffers for repeated partial generation: the writer's word
/// buffer and one zeroed pad frame. Hand the finished [`Bitstream`] back
/// through [`GenScratch::recycle`] and the next generation allocates
/// nothing once the buffers reach their working size.
#[derive(Debug, Default)]
pub struct GenScratch {
    pad: Vec<u32>,
    buf: Vec<u32>,
}

impl GenScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        GenScratch::default()
    }

    /// Reclaim a bitstream's word buffer for the next generation.
    pub fn recycle(&mut self, bits: Bitstream) {
        self.buf = bits.into_words();
    }
}

fn far_word(geom: &ConfigGeometry, frame: usize) -> u32 {
    geom.frame_address(frame)
        .expect("frame index in range")
        .to_word()
}

/// Generate a complete configuration bitstream for `mem` — the vendor
/// `bitgen` equivalent.
pub fn full_bitstream(mem: &ConfigMemory) -> Bitstream {
    let _g = obs::span!("bitgen_full");
    let geom = mem.geometry();
    let mut w = BitstreamWriter::new();
    w.sync()
        .command(Command::Rcrc)
        .reset_crc()
        .write_reg(Register::Idcode, &[mem.device().idcode()])
        .write_reg(Register::Flr, &[geom.frame_words() as u32])
        .write_reg(Register::Cor, &[DEFAULT_COR])
        .write_reg(Register::Mask, &[0xFFFF_FFFF])
        .write_reg(Register::Ctl, &[0])
        .write_reg(Register::Far, &[far_word(geom, 0)])
        .command(Command::Wcfg);
    let payload = frame_payload(mem, FrameRange::whole_device(geom));
    w.write_reg_auto(Register::Fdri, &payload);
    w.write_crc()
        .command(Command::Lfrm)
        .command(Command::Start)
        .command(Command::Desynch);
    let bits = w.finish();
    obs::counter!("bitgen_runs_total").inc();
    obs::counter!("bitgen_frames_emitted_total").add(geom.total_frames() as u64);
    obs::counter!("bitgen_bytes_total").add(bits.byte_len() as u64);
    bits
}

/// Generate a partial bitstream writing only `ranges` of `mem`'s frames.
///
/// This is the output format of the JPG tool: a syncable packet stream
/// that seeks to each dirty column and rewrites it, leaving the rest of
/// the device untouched. `GHIGH` is asserted around the frame writes so
/// in-flight logic is isolated during reconfiguration, matching the
/// behaviour the paper relies on for dynamic updates.
pub fn partial_bitstream(mem: &ConfigMemory, ranges: &[FrameRange]) -> Bitstream {
    let mut pad = Vec::new();
    emit_partial_with(mem, ranges, Vec::new(), &mut pad)
}

/// [`partial_bitstream`] on recycled buffers: byte-identical output,
/// zero steady-state allocation. The caller owns the [`GenScratch`] and
/// feeds the returned stream back via [`GenScratch::recycle`] once done
/// with it.
pub fn partial_bitstream_pooled(
    mem: &ConfigMemory,
    ranges: &[FrameRange],
    scratch: &mut GenScratch,
) -> Bitstream {
    let buf = std::mem::take(&mut scratch.buf);
    emit_partial_with(mem, ranges, buf, &mut scratch.pad)
}

/// Alias of [`partial_bitstream`]. It stays only because the repository
/// benchmark's `bitgen.emit` probe (`perfbench/`) calls it by this name.
pub fn partial_bitstream_par(mem: &ConfigMemory, ranges: &[FrameRange]) -> Bitstream {
    partial_bitstream(mem, ranges)
}

/// The one partial emitter: one `FAR`/`WCFG`/`FDRI` run per range, with
/// frame payloads taken straight out of the config-memory slab
/// ([`ConfigMemory::frame_span`]) and a shared zeroed pad frame — no
/// per-range payload staging. Records the `bitgen_partial` span and the
/// emission counters: packet runs, frames written (pad frames excluded),
/// bytes out.
fn emit_partial_with(
    mem: &ConfigMemory,
    ranges: &[FrameRange],
    buf: Vec<u32>,
    pad: &mut Vec<u32>,
) -> Bitstream {
    let _g = obs::span!("bitgen_partial", "runs" => ranges.len());
    let geom = mem.geometry();
    pad.clear();
    pad.resize(mem.frame_words(), 0); // pipeline pad frame
    let mut w = BitstreamWriter::with_buffer(buf);
    w.sync()
        .command(Command::Rcrc)
        .reset_crc()
        .write_reg(Register::Idcode, &[mem.device().idcode()])
        .write_reg(Register::Flr, &[geom.frame_words() as u32]);
    for range in ranges {
        assert!(range.valid_for(geom), "frame range out of bounds");
        w.write_reg(Register::Far, &[far_word(geom, range.start)])
            .command(Command::Wcfg);
        w.write_reg_slices(
            Register::Fdri,
            &[mem.frame_span(range.start, range.len), pad],
        );
    }
    w.write_crc()
        .command(Command::Lfrm)
        .command(Command::Start)
        .command(Command::Desynch);
    let bits = w.finish();
    obs::counter!("bitgen_runs_total").add(ranges.len() as u64);
    obs::counter!("bitgen_frames_emitted_total").add(ranges.iter().map(|r| r.len as u64).sum());
    obs::counter!("bitgen_bytes_total").add(bits.byte_len() as u64);
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::Device;

    #[test]
    fn full_bitstream_size_scales_with_device() {
        let mut prev = 0;
        for d in [Device::XCV50, Device::XCV300, Device::XCV1000] {
            let mem = ConfigMemory::new(d);
            let bs = full_bitstream(&mem);
            // Payload dominates: total frames x frame words, plus headers.
            let payload = mem.geometry().total_words();
            assert!(bs.word_len() > payload);
            assert!(bs.word_len() < payload + 100, "header overhead too big");
            assert!(bs.word_len() > prev);
            prev = bs.word_len();
        }
    }

    #[test]
    fn partial_is_fraction_of_full_for_one_column() {
        let mem = ConfigMemory::new(Device::XCV100);
        let geom = mem.geometry();
        let major = geom.major_for_clb_col(10).unwrap();
        let range = FrameRange::for_column(geom, BlockType::Clb, major).unwrap();
        let partial = partial_bitstream(&mem, &[range]);
        let full = full_bitstream(&mem);
        let ratio = partial.byte_len() as f64 / full.byte_len() as f64;
        // One CLB column of 30 is a few percent of the device.
        assert!(ratio < 0.1, "one-column partial is {ratio:.3} of full");
        assert!(ratio > 0.005);
    }

    #[test]
    fn coalesce_merges_adjacent_and_dedups() {
        let ranges = coalesce_frames(vec![5, 3, 4, 4, 9, 10, 12]);
        assert_eq!(
            ranges,
            vec![
                FrameRange::new(3, 3),
                FrameRange::new(9, 2),
                FrameRange::new(12, 1)
            ]
        );
        assert!(coalesce_frames(vec![]).is_empty());
    }

    #[test]
    fn bridged_coalesce_spans_small_gaps_only() {
        // 3,4 | gap 1 | 6 bridges into one run; 9 stays separate.
        assert_eq!(
            coalesce_frames_bridged(vec![3, 4, 6, 9], 1),
            vec![FrameRange::new(3, 4), FrameRange::new(9, 1)]
        );
        // max_gap 0 behaves exactly like plain coalescing.
        assert_eq!(
            coalesce_frames_bridged(vec![3, 4, 6, 9], 0),
            coalesce_frames(vec![3, 4, 6, 9])
        );
        // A bridged partial still lands the right device state.
        let mut mem = ConfigMemory::new(Device::XCV50);
        mem.set_bit(3, 1, true);
        mem.set_bit(6, 2, true);
        let runs = coalesce_frames_bridged(mem.dirty_frames(), 1);
        assert_eq!(runs.len(), 2); // gap of 2 between 3 and 6: not bridged
        let runs = coalesce_frames_bridged(vec![3, 5, 6], 1);
        assert_eq!(runs, vec![FrameRange::new(3, 4)]);
        let mut dev = crate::Interpreter::new(Device::XCV50);
        dev.feed(&partial_bitstream(&mem, &runs)).unwrap();
        assert_eq!(dev.memory(), &mem);
    }

    #[test]
    fn bounded_bridging_stops_at_region_boundaries() {
        // Frames 10,11 | gap | 13,14 with a region boundary at 13: plain
        // bridging would merge across the gap, bounded must not — the
        // two sides belong to regions with different origins.
        let frames = vec![10, 11, 13, 14];
        assert_eq!(
            coalesce_frames_bridged(frames.clone(), 1),
            vec![FrameRange::new(10, 5)]
        );
        assert_eq!(
            coalesce_frames_bridged_bounded(frames.clone(), 1, &[13]),
            vec![FrameRange::new(10, 2), FrameRange::new(13, 2)]
        );
        // Even *adjacent* frames split at a boundary (gap 0 merge is
        // still a merge across origins).
        assert_eq!(
            coalesce_frames_bridged_bounded(vec![12, 13], 1, &[13]),
            vec![FrameRange::new(12, 1), FrameRange::new(13, 1)]
        );
        // No boundaries: identical to plain bridging.
        assert_eq!(
            coalesce_frames_bridged_bounded(frames.clone(), 1, &[]),
            coalesce_frames_bridged(frames.clone(), 1)
        );
        // A boundary outside the touched span changes nothing.
        assert_eq!(
            coalesce_frames_bridged_bounded(frames, 1, &[100]),
            vec![FrameRange::new(10, 5)]
        );
    }

    #[test]
    fn bounded_bridging_matches_device_state_per_region() {
        // Two relocated regions adjacent in frame space: the bounded
        // runs still land the right device state and neither run leaks
        // into the other region's frames.
        let mut mem = ConfigMemory::new(Device::XCV50);
        mem.set_bit(20, 3, true);
        mem.set_bit(22, 4, true); // same region, 1-frame gap: bridged
        mem.set_bit(23, 5, true); // next region starts at frame 23
        let runs = coalesce_frames_bridged_bounded(mem.dirty_frames(), 1, &[23]);
        assert_eq!(runs, vec![FrameRange::new(20, 3), FrameRange::new(23, 1)]);
        let mut dev = crate::Interpreter::new(Device::XCV50);
        dev.feed(&partial_bitstream(&mem, &runs)).unwrap();
        assert_eq!(dev.memory(), &mem);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn partial_rejects_out_of_range() {
        let mem = ConfigMemory::new(Device::XCV50);
        let total = mem.geometry().total_frames();
        let _ = partial_bitstream(&mem, &[FrameRange::new(total - 1, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn partial_pooled_rejects_out_of_range() {
        let mem = ConfigMemory::new(Device::XCV50);
        let total = mem.geometry().total_frames();
        let _ = partial_bitstream_pooled(
            &mem,
            &[FrameRange::new(total - 1, 2)],
            &mut GenScratch::new(),
        );
    }

    #[test]
    fn column_partial_lands_its_frames_and_nothing_else() {
        let mut mem = ConfigMemory::new(Device::XCV100);
        for f in [0, 9, 300, 301, 700] {
            mem.frame_mut(f)[0] = 0xC0DE_0000 | f as u32;
        }
        let geom = mem.geometry().clone();
        let m1 = geom.major_for_clb_col(3).unwrap();
        let m2 = geom.major_for_clb_col(17).unwrap();
        let ranges = [
            FrameRange::new(0, 2),
            FrameRange::for_column(&geom, BlockType::Clb, m1).unwrap(),
            FrameRange::for_column(&geom, BlockType::Clb, m2).unwrap(),
            FrameRange::new(700, 1),
        ];
        let bits = partial_bitstream(&mem, &ranges);
        // Over a device that already holds other content, only the
        // ranges' frames change.
        let mut other = ConfigMemory::new(Device::XCV100);
        for f in [1, 150, 301, 900] {
            other.frame_mut(f)[2] = 0xBEEF;
        }
        let mut dev = crate::Interpreter::with_memory(other.clone());
        dev.feed(&bits).unwrap();
        for f in 0..geom.total_frames() {
            let written = ranges.iter().any(|r| r.frames().contains(&f));
            let expect = if written { &mem } else { &other };
            assert_eq!(dev.memory().frame(f), expect.frame(f), "frame {f}");
        }
        let pooled = partial_bitstream_pooled(&mem, &ranges, &mut GenScratch::new());
        assert_eq!(bits, pooled);
    }

    #[test]
    fn pooled_partial_is_byte_identical_and_reuses_buffers() {
        let mut mem = ConfigMemory::new(Device::XCV100);
        for f in [0, 9, 300, 301, 700] {
            mem.frame_mut(f)[0] = 0xC0DE_0000 | f as u32;
        }
        let ranges = [
            FrameRange::new(0, 2),
            FrameRange::new(299, 4),
            FrameRange::new(700, 1),
        ];
        let mut scratch = GenScratch::new();
        let first = partial_bitstream_pooled(&mem, &ranges, &mut scratch);
        assert_eq!(first, partial_bitstream(&mem, &ranges));
        let words = first.into_words();
        let cap = words.capacity();
        scratch.recycle(Bitstream::from_words(words));
        // Different content, same shape: second pass reuses the buffer
        // and still matches the fresh serial generator.
        mem.frame_mut(300)[1] = 0xFEED_F00D;
        let second = partial_bitstream_pooled(&mem, &ranges, &mut scratch);
        assert_eq!(second, partial_bitstream(&mem, &ranges));
        assert!(second.into_words().capacity() >= cap);
    }

    #[test]
    fn coalesce_into_reuses_buffers_and_matches_owned() {
        let mut frames = vec![5, 3, 4, 4, 9, 10, 12];
        let mut out = vec![FrameRange::new(0, 99)]; // stale content cleared
        coalesce_frames_bridged_into(&mut frames, 0, &mut out);
        assert_eq!(out, coalesce_frames(vec![5, 3, 4, 4, 9, 10, 12]));
        frames.clear();
        frames.extend([3, 4, 6, 9]);
        coalesce_frames_bridged_into(&mut frames, 1, &mut out);
        assert_eq!(out, coalesce_frames_bridged(vec![3, 4, 6, 9], 1));
    }

    #[test]
    fn partial_handles_type2_payloads() {
        // A range long enough that the FDRI write needs a type-2 header.
        let mut mem = ConfigMemory::new(Device::XCV300);
        let need = crate::packet::TYPE1_MAX_COUNT / mem.frame_words() + 2;
        for f in 10..10 + need {
            mem.frame_mut(f)[1] = f as u32;
        }
        let ranges = [FrameRange::new(10, need)];
        let bits = partial_bitstream(&mem, &ranges);
        let type2 = crate::Packet::write2((need + 1) * mem.frame_words()).encode();
        assert!(bits.words().contains(&type2), "no type-2 FDRI header");
        let mut dev = crate::Interpreter::new(Device::XCV300);
        dev.feed(&bits).unwrap();
        assert_eq!(dev.memory(), &mem);
        assert_eq!(
            bits,
            partial_bitstream_pooled(&mem, &ranges, &mut GenScratch::new())
        );
    }

    #[test]
    fn partial_with_no_ranges_changes_nothing() {
        let mut mem = ConfigMemory::new(Device::XCV50);
        mem.set_bit(40, 3, true);
        let bits = partial_bitstream(&mem, &[]);
        let mut dev = crate::Interpreter::new(Device::XCV50);
        dev.feed(&bits).unwrap();
        assert_eq!(dev.memory(), &ConfigMemory::new(Device::XCV50));
        assert_eq!(
            bits,
            partial_bitstream_pooled(&mem, &[], &mut GenScratch::new())
        );
    }

    #[test]
    fn whole_device_range_covers_all_frames() {
        let mem = ConfigMemory::new(Device::XCV50);
        let geom = mem.geometry();
        let r = FrameRange::whole_device(geom);
        assert_eq!(r.frames().len(), geom.total_frames());
        assert!(r.valid_for(geom));
    }
}
