//! The relocation engine: FAR rewriting with CRC re-stitching.
//!
//! Relocation is *per frame*, not per run: Virtex CLB majors alternate
//! right/left outward from the center clock column, so two columns that
//! are neighbours in the CLB array are far apart in major order and a
//! source run's frames generally land scattered after a column shift.
//! The engine therefore maps every frame of every parsed run to its
//! target linear index, sorts the moved frames into target order,
//! re-coalesces maximal contiguous runs, and emits each run as an
//! independent section whose CRC16 contribution (computed from a zero
//! register) is spliced into the running stream CRC through the GF(2)
//! matrix machinery ([`BitstreamWriter::append_section`]), which is what
//! makes the output **byte-identical** to a partial freshly generated at
//! the target origin.

use crate::parse::parse_partial;
use crate::RelocError;
use bitstream::crc::{Crc16, BITS_PER_UPDATE};
use bitstream::packet::{Packet, TYPE1_MAX_COUNT};
use bitstream::regs::{Command, Register};
use bitstream::{Bitstream, BitstreamWriter};
use virtex::{BlockType, ColumnKind, ConfigGeometry, Device, FrameAddress};

/// A relocation request: how far to shift each relocatable column class.
///
/// CLB columns move by `clb_delta` positions in the CLB array (signed;
/// positive is rightward). BRAM columns move by `bram_delta` major
/// positions within their block type. The clock and IOB columns are
/// fixed by the architecture; a partial touching them only relocates
/// under a zero delta for that class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelocSpec {
    /// CLB-array column shift.
    pub clb_delta: i32,
    /// BRAM major-address shift.
    pub bram_delta: i32,
}

impl RelocSpec {
    /// Shift CLB columns only.
    pub fn columns(clb_delta: i32) -> RelocSpec {
        RelocSpec {
            clb_delta,
            bram_delta: 0,
        }
    }

    /// Whether this spec moves nothing.
    pub fn is_identity(&self) -> bool {
        self.clb_delta == 0 && self.bram_delta == 0
    }
}

/// How relocation rebuilds `FDRI` sections from the moved frames.
///
/// Gap-0 streams want [`Regroup`](RegroupPolicy::Regroup): columns that
/// are array-neighbours at the target are major-adjacent near the die
/// center, and fresh gap-0 generation merges them — regrouping is what
/// keeps relocation byte-identical to fresh generation there. Bridged
/// (gap>0) streams want [`PreserveSections`](RegroupPolicy::PreserveSections):
/// their sections carry bridge frames whose grouping encodes the
/// generator's `max_gap` decision, which regrouping would discard — a
/// bridged incremental partial relocates to a byte-identical bridged
/// stream only if each source section moves as a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegroupPolicy {
    /// Re-coalesce maximal contiguous runs in target order (the
    /// default; byte-identical to fresh gap-0 generation).
    #[default]
    Regroup,
    /// Keep every source section intact: one output section per parsed
    /// run, emitted in target order. A section whose frames scatter at
    /// the target (a seam-spanning run under a shift that separates the
    /// columns) is a typed [`RelocError::ScatteredRun`].
    PreserveSections,
}

/// The class of a column kind for compatibility checks (sides and array
/// positions may differ between source and target; the resource class
/// may not).
fn kind_class(k: ColumnKind) -> &'static str {
    match k {
        ColumnKind::Clock => "clock",
        ColumnKind::Clb(_) => "clb",
        ColumnKind::Iob(_) => "iob",
        ColumnKind::BramInterconnect(_) => "bram-interconnect",
        ColumnKind::BramContent(_) => "bram-content",
    }
}

/// Map one frame (linear index) through `spec`, validating resource
/// compatibility. Returns the target linear index.
pub fn map_frame(
    geom: &ConfigGeometry,
    frame: usize,
    spec: RelocSpec,
) -> Result<usize, RelocError> {
    let far = geom
        .frame_address(frame)
        .ok_or(RelocError::RunOverrun { frame })?;
    let src = geom
        .column(far.block, far.major)
        .expect("frame_address names an existing column");

    let target_major = match far.block {
        BlockType::Clb => match geom.clb_col_for_major(far.major) {
            Some(col) => {
                let target_col = col as i64 + spec.clb_delta as i64;
                if target_col < 0 {
                    return Err(RelocError::OutOfDevice {
                        block: far.block,
                        col: target_col,
                    });
                }
                geom.major_for_clb_col(target_col as usize)
                    .ok_or(RelocError::OutOfDevice {
                        block: far.block,
                        col: target_col,
                    })?
            }
            // Clock and IOB columns have fixed positions.
            None => {
                if spec.clb_delta != 0 {
                    return Err(RelocError::FixedColumn {
                        block: far.block,
                        major: far.major,
                    });
                }
                far.major
            }
        },
        BlockType::BramInterconnect | BlockType::BramContent => {
            let target = far.major as i64 + spec.bram_delta as i64;
            if !(0..=u8::MAX as i64).contains(&target) {
                return Err(RelocError::OutOfDevice {
                    block: far.block,
                    col: target,
                });
            }
            if geom.column(far.block, target as u8).is_none() {
                return Err(RelocError::OutOfDevice {
                    block: far.block,
                    col: target,
                });
            }
            target as u8
        }
    };

    let dst = geom
        .column(far.block, target_major)
        .expect("target column checked above");
    if kind_class(src.kind) != kind_class(dst.kind) {
        return Err(RelocError::KindMismatch {
            from: src.kind,
            to: dst.kind,
        });
    }
    if src.frame_count() != dst.frame_count() {
        return Err(RelocError::FrameCountMismatch {
            from: src.frame_count(),
            to: dst.frame_count(),
        });
    }
    Ok(geom
        .frame_index(FrameAddress::new(far.block, target_major, far.minor))
        .expect("minor bounded by equal frame counts"))
}

/// One relocated run ready for emission: target start index plus the
/// source frame payloads in target order.
struct MovedRun<'a> {
    start: usize,
    frames: Vec<&'a [u32]>,
}

/// Emit one run as an independent section with its CRC contribution
/// computed from a zero register, for [`BitstreamWriter::append_section`]
/// to splice in order.
fn emit_moved_section(
    geom: &ConfigGeometry,
    fw: usize,
    run: &MovedRun<'_>,
) -> (Vec<u32>, u16, usize) {
    let payload_len = (run.frames.len() + 1) * fw;
    let mut words = Vec::with_capacity(payload_len + 6);
    let mut crc = Crc16::new();

    let far = geom
        .frame_address(run.start)
        .expect("relocated start in range")
        .to_word();
    words.push(Packet::write1(Register::Far, 1).encode());
    words.push(far);
    crc.update(Register::Far, far);

    let wcfg = Command::Wcfg.code();
    words.push(Packet::write1(Register::Cmd, 1).encode());
    words.push(wcfg);
    crc.update(Register::Cmd, wcfg);

    if payload_len <= TYPE1_MAX_COUNT {
        words.push(Packet::write1(Register::Fdri, payload_len).encode());
    } else {
        words.push(Packet::write1(Register::Fdri, 0).encode());
        words.push(Packet::write2(payload_len).encode());
    }
    let payload_at = words.len();
    for f in &run.frames {
        words.extend_from_slice(f);
    }
    words.extend(std::iter::repeat_n(0, fw)); // pipeline pad frame
    crc.update_slice(Register::Fdri, &words[payload_at..]);

    // Covered words: FAR, WCFG and the FDRI payload (headers exempt).
    (words, crc.value(), (payload_len + 2) * BITS_PER_UPDATE)
}

/// Relocate `partial` by `spec` against `device`'s geometry.
///
/// The result is byte-identical to a partial freshly generated at the
/// target origin from the same frame contents (for streams whose runs
/// were coalesced without gap bridging; bridged streams relocate to the
/// same device state but may regroup runs).
pub fn relocate(
    device: Device,
    partial: &Bitstream,
    spec: RelocSpec,
) -> Result<Bitstream, RelocError> {
    relocate_with(device, partial, spec, RegroupPolicy::Regroup)
}

/// [`relocate`] with an explicit [`RegroupPolicy`] — use
/// [`RegroupPolicy::PreserveSections`] for bridged (gap>0) streams so
/// section boundaries survive the move.
pub fn relocate_with(
    device: Device,
    partial: &Bitstream,
    spec: RelocSpec,
    policy: RegroupPolicy,
) -> Result<Bitstream, RelocError> {
    let geom = device.config_geometry();
    let parsed = parse_partial(device, &geom, partial)?;
    let fw = parsed.flr;

    // Map every frame to its target index, remembering which parsed run
    // it came from so `PreserveSections` can keep sections whole.
    let mut moved: Vec<(usize, &[u32])> = Vec::with_capacity(parsed.total_frames());
    let mut section_of: Vec<usize> = Vec::with_capacity(parsed.total_frames());
    for (ri, run) in parsed.runs.iter().enumerate() {
        for (i, frame) in run.frames.chunks_exact(fw).enumerate() {
            let t = map_frame(&geom, run.start + i, spec)?;
            if policy == RegroupPolicy::PreserveSections
                && i > 0
                && t != moved.last().unwrap().0 + 1
            {
                return Err(RelocError::ScatteredRun {
                    run_start: run.start,
                    frame: run.start + i,
                });
            }
            moved.push((t, frame));
            section_of.push(ri);
        }
    }

    // Target order, with overlap detection (two sources on one target
    // would silently drop a frame). Sections stay contiguous under this
    // sort in `PreserveSections` mode because each maps to a contiguous
    // target span and spans cannot interleave without overlapping.
    let mut order: Vec<usize> = (0..moved.len()).collect();
    order.sort_by_key(|&i| moved[i].0);
    for w in order.windows(2) {
        if moved[w[0]].0 == moved[w[1]].0 {
            return Err(RelocError::TargetOverlap {
                frame: moved[w[0]].0,
            });
        }
    }

    // Rebuild sections: maximal contiguous target runs under `Regroup`,
    // source-section boundaries under `PreserveSections`.
    let mut runs: Vec<MovedRun<'_>> = Vec::new();
    for &i in &order {
        let (t, frame) = moved[i];
        match runs.last_mut() {
            Some(r)
                if t == r.start + r.frames.len()
                    && (policy == RegroupPolicy::Regroup
                        || (i > 0 && section_of[i] == section_of[i - 1])) =>
            {
                r.frames.push(frame)
            }
            _ => runs.push(MovedRun {
                start: t,
                frames: vec![frame],
            }),
        }
    }

    let mut w = BitstreamWriter::new();
    w.sync()
        .command(Command::Rcrc)
        .reset_crc()
        .write_reg(Register::Idcode, &[device.idcode()])
        .write_reg(Register::Flr, &[fw as u32]);
    for run in &runs {
        let (words, crc, bits) = emit_moved_section(&geom, fw, run);
        w.append_section(&words, crc, bits);
    }
    w.write_crc()
        .command(Command::Lfrm)
        .command(Command::Start)
        .command(Command::Desynch);
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::bitgen::{self, FrameRange};
    use bitstream::Interpreter;
    use virtex::ConfigMemory;

    /// Write a deterministic per-column pattern into `cols` (CLB array
    /// columns, addressed relative so a shifted copy matches), return
    /// the gap-0 partial of the touched frames.
    fn stamp_cols(device: Device, cols: &[usize]) -> (ConfigMemory, Bitstream) {
        let mut mem = ConfigMemory::new(device);
        let geom = mem.geometry().clone();
        for (rel, &c) in cols.iter().enumerate() {
            let major = geom.major_for_clb_col(c).unwrap();
            let r = FrameRange::for_column(&geom, BlockType::Clb, major).unwrap();
            for (minor, f) in r.frames().enumerate() {
                for k in 0..mem.frame_words() {
                    mem.frame_mut(f)[k] =
                        (rel as u32) << 24 | (minor as u32) << 12 | k as u32 | 0x8000_0000;
                }
            }
        }
        let runs = bitgen::coalesce_frames(mem.dirty_frames());
        let bits = bitgen::partial_bitstream(&mem, &runs);
        (mem, bits)
    }

    #[test]
    fn relocated_is_byte_identical_to_fresh_at_target() {
        for device in [Device::XCV50, Device::XCV300] {
            let cols = [3usize, 4, 5];
            let delta = 7i32;
            let (_, src) = stamp_cols(device, &cols);
            let shifted: Vec<usize> = cols.iter().map(|&c| c + delta as usize).collect();
            let (_, fresh) = stamp_cols(device, &shifted);
            let moved = relocate(device, &src, RelocSpec::columns(delta)).unwrap();
            assert_eq!(moved.to_bytes(), fresh.to_bytes(), "{device:?}");
        }
    }

    #[test]
    fn relocation_round_trips_and_identity_is_exact() {
        let device = Device::XCV100;
        let (_, src) = stamp_cols(device, &[10, 11]);
        let moved = relocate(device, &src, RelocSpec::columns(5)).unwrap();
        let back = relocate(device, &moved, RelocSpec::columns(-5)).unwrap();
        assert_eq!(back, src);
        assert_eq!(relocate(device, &src, RelocSpec::default()).unwrap(), src);
    }

    #[test]
    fn relocated_partial_lands_target_device_state() {
        let device = Device::XCV50;
        let cols = [2usize, 3];
        let delta = 9i32;
        let (_, src) = stamp_cols(device, &cols);
        let shifted: Vec<usize> = cols.iter().map(|&c| c + delta as usize).collect();
        let (oracle, _) = stamp_cols(device, &shifted);
        let moved = relocate(device, &src, RelocSpec::columns(delta)).unwrap();
        let mut dev = Interpreter::new(device);
        dev.feed(&moved).unwrap();
        assert_eq!(dev.memory(), &oracle);
    }

    #[test]
    fn bram_relocation_matches_fresh() {
        let device = Device::XCV50;
        let geom = device.config_geometry();
        let stamp_bram = |major: u8| {
            let mut mem = ConfigMemory::new(device);
            for block in [BlockType::BramInterconnect, BlockType::BramContent] {
                let r = FrameRange::for_column(&geom, block, major).unwrap();
                for (minor, f) in r.frames().enumerate() {
                    mem.frame_mut(f)[0] = 0xB000_0000 | (minor as u32) << 8;
                }
            }
            let runs = bitgen::coalesce_frames(mem.dirty_frames());
            bitgen::partial_bitstream(&mem, &runs)
        };
        let src = stamp_bram(0);
        let fresh = stamp_bram(1);
        let moved = relocate(
            device,
            &src,
            RelocSpec {
                clb_delta: 0,
                bram_delta: 1,
            },
        )
        .unwrap();
        assert_eq!(moved.to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn incompatible_targets_are_typed_errors() {
        let device = Device::XCV50;
        let geom = device.config_geometry();

        // Off the right edge of the CLB array.
        let (_, src) = stamp_cols(device, &[20]);
        let err = relocate(device, &src, RelocSpec::columns(10)).unwrap_err();
        assert!(matches!(err, RelocError::OutOfDevice { .. }), "{err}");
        // Off the left edge (negative target column).
        let err = relocate(device, &src, RelocSpec::columns(-25)).unwrap_err();
        assert!(matches!(err, RelocError::OutOfDevice { .. }), "{err}");

        // A partial touching the clock column cannot shift.
        let mut mem = ConfigMemory::new(device);
        mem.frame_mut(0)[0] = 1;
        let runs = bitgen::coalesce_frames(mem.dirty_frames());
        let clocked = bitgen::partial_bitstream(&mem, &runs);
        let err = relocate(device, &clocked, RelocSpec::columns(1)).unwrap_err();
        assert!(matches!(err, RelocError::FixedColumn { .. }), "{err}");
        // ... but relocates untouched under the identity.
        assert_eq!(
            relocate(device, &clocked, RelocSpec::default()).unwrap(),
            clocked
        );

        // An IOB column cannot shift either.
        let iob_major = geom.device().geometry().clb_cols as u8 + 1;
        let mut mem = ConfigMemory::new(device);
        let r = FrameRange::for_column(&geom, BlockType::Clb, iob_major).unwrap();
        mem.frame_mut(r.start)[0] = 1;
        let runs = bitgen::coalesce_frames(mem.dirty_frames());
        let iob = bitgen::partial_bitstream(&mem, &runs);
        let err = relocate(device, &iob, RelocSpec::columns(1)).unwrap_err();
        assert!(matches!(err, RelocError::FixedColumn { .. }), "{err}");

        // BRAM shifted off its side pair.
        let err = relocate(
            device,
            &src,
            RelocSpec {
                clb_delta: 0,
                bram_delta: 0,
            },
        );
        assert!(err.is_ok());
        let mut mem = ConfigMemory::new(device);
        let r = FrameRange::for_column(&geom, BlockType::BramContent, 0).unwrap();
        mem.frame_mut(r.start)[0] = 1;
        let runs = bitgen::coalesce_frames(mem.dirty_frames());
        let bram = bitgen::partial_bitstream(&mem, &runs);
        let err = relocate(
            device,
            &bram,
            RelocSpec {
                clb_delta: 0,
                bram_delta: 2,
            },
        )
        .unwrap_err();
        assert!(matches!(err, RelocError::OutOfDevice { .. }), "{err}");
    }

    /// Stamp a sparse minor set (gaps of one frame, clear of column
    /// edges) in each of `cols`, exactly what incremental generation
    /// produces before gap-1 bridging.
    fn stamp_sparse(device: Device, cols: &[usize]) -> (ConfigMemory, Vec<usize>) {
        let mut mem = ConfigMemory::new(device);
        let geom = mem.geometry().clone();
        let mut dirty = Vec::new();
        for (rel, &c) in cols.iter().enumerate() {
            let major = geom.major_for_clb_col(c).unwrap();
            let r = FrameRange::for_column(&geom, BlockType::Clb, major).unwrap();
            // Minors 2,4,5,8,10 of a 48-frame CLB column: bridged with
            // max_gap 1 this coalesces to sections [2..6) and [8..11).
            for (minor, f) in r.frames().enumerate() {
                if ![2usize, 4, 5, 8, 10].contains(&minor) {
                    continue;
                }
                for k in 0..mem.frame_words() {
                    mem.frame_mut(f)[k] =
                        (rel as u32) << 24 | (minor as u32) << 12 | k as u32 | 0x4000_0000;
                }
                dirty.push(f);
            }
        }
        (mem, dirty)
    }

    #[test]
    fn bridged_stream_relocates_to_byte_identical_bridged_stream() {
        // The PR-7 leftover: a bridged (gap>0) stream's sections carry
        // bridge frames whose grouping regrouping used to discard.
        // Under `PreserveSections` the relocated stream is byte-identical
        // to fresh bridged generation at the target origin.
        for device in [Device::XCV50, Device::XCV300] {
            let cols = [3usize, 7, 9];
            let delta = 5i32;
            let (mem, dirty) = stamp_sparse(device, &cols);
            let runs = bitgen::coalesce_frames_bridged(dirty.clone(), 1);
            assert!(
                runs.iter().any(|r| r.len > 1),
                "scenario must actually bridge"
            );
            let src = bitgen::partial_bitstream(&mem, &runs);

            // Fresh bridged generation at the target origin.
            let shifted: Vec<usize> = cols.iter().map(|&c| c + delta as usize).collect();
            let (mem2, dirty2) = stamp_sparse(device, &shifted);
            let runs2 = bitgen::coalesce_frames_bridged(dirty2, 1);
            let fresh = bitgen::partial_bitstream(&mem2, &runs2);

            let moved = relocate_with(
                device,
                &src,
                RelocSpec::columns(delta),
                RegroupPolicy::PreserveSections,
            )
            .unwrap();
            assert_eq!(moved.to_bytes(), fresh.to_bytes(), "{device:?}");

            // The section-preserving identity move is exact too.
            let id = relocate_with(
                device,
                &src,
                RelocSpec::default(),
                RegroupPolicy::PreserveSections,
            )
            .unwrap();
            assert_eq!(id, src, "{device:?}");
        }
    }

    #[test]
    fn preserve_sections_round_trips_bridged_streams() {
        let device = Device::XCV100;
        let (mem, dirty) = stamp_sparse(device, &[4, 6]);
        let runs = bitgen::coalesce_frames_bridged(dirty, 1);
        let src = bitgen::partial_bitstream(&mem, &runs);
        let there = relocate_with(
            device,
            &src,
            RelocSpec::columns(8),
            RegroupPolicy::PreserveSections,
        )
        .unwrap();
        let back = relocate_with(
            device,
            &there,
            RelocSpec::columns(-8),
            RegroupPolicy::PreserveSections,
        )
        .unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn seam_spanning_section_is_a_typed_scatter_error() {
        // A gap-0 run spanning the seam between majors 1 and 2 (the two
        // center columns) scatters under any shift that separates the
        // columns: `PreserveSections` must reject it, `Regroup` must
        // still relocate it to the correct device state.
        let device = Device::XCV50;
        let mut mem = ConfigMemory::new(device);
        let geom = mem.geometry().clone();
        let r1 = FrameRange::for_column(&geom, BlockType::Clb, 1).unwrap();
        let r2 = FrameRange::for_column(&geom, BlockType::Clb, 2).unwrap();
        assert_eq!(r1.start + r1.len, r2.start, "majors 1,2 are seam-adjacent");
        let last_of_1 = r1.start + r1.len - 1;
        let first_of_2 = r2.start;
        for f in [last_of_1, first_of_2] {
            mem.frame_mut(f)[0] = 0xC0DE_0000 | f as u32;
        }
        let runs = bitgen::coalesce_frames(mem.dirty_frames());
        assert_eq!(runs.len(), 1, "one seam-spanning run");
        let src = bitgen::partial_bitstream(&mem, &runs);

        let err = relocate_with(
            device,
            &src,
            RelocSpec::columns(2),
            RegroupPolicy::PreserveSections,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                RelocError::ScatteredRun { run_start, frame }
                    if run_start == last_of_1 && frame == first_of_2
            ),
            "{err}"
        );

        let moved = relocate(device, &src, RelocSpec::columns(2)).unwrap();
        let mut dev = Interpreter::new(device);
        dev.feed(&moved).unwrap();
        for f in [last_of_1, first_of_2] {
            let t = map_frame(&geom, f, RelocSpec::columns(2)).unwrap();
            assert_eq!(dev.memory().frame(t)[0], 0xC0DE_0000 | f as u32);
        }
    }

    #[test]
    fn adjacent_array_columns_scatter_in_major_space_yet_still_match_fresh() {
        // Columns either side of the die center are major-adjacent to
        // nothing: relocation must regroup runs in target order.
        let device = Device::XCV50;
        let half = device.geometry().clb_cols / 2; // 12
        let cols = [half - 1, half, half + 1];
        let (_, src) = stamp_cols(device, &cols);
        let delta = -3i32;
        let shifted: Vec<usize> = cols
            .iter()
            .map(|&c| (c as i64 + delta as i64) as usize)
            .collect();
        let (_, fresh) = stamp_cols(device, &shifted);
        let moved = relocate(device, &src, RelocSpec::columns(delta)).unwrap();
        assert_eq!(moved.to_bytes(), fresh.to_bytes());
    }
}
