//! Bitstream container and packet-stream builder.

use crate::crc::{crc_covered, Crc16};
use crate::packet::{Packet, DUMMY_WORD, SYNC_WORD, TYPE1_MAX_COUNT};
use crate::regs::{Command, Register};
use serde::{Deserialize, Serialize};

/// A complete or partial configuration bitstream: the raw 32-bit word
/// sequence, dummy/sync words included.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitstream {
    words: Vec<u32>,
}

impl Bitstream {
    /// Wrap a raw word sequence.
    pub fn from_words(words: Vec<u32>) -> Self {
        Bitstream { words }
    }

    /// The raw words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Length in 32-bit words.
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Length in bytes — the figure the paper's download-time arguments
    /// are about.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 4
    }

    /// Serialize to big-endian bytes (the order a SelectMAP port consumes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        for w in &self.words {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Parse from big-endian bytes. Returns `None` if not a whole number
    /// of words.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(4) {
            return None;
        }
        let words = bytes
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Some(Bitstream { words })
    }

    /// Take back the word buffer, e.g. to recycle its allocation through
    /// [`BitstreamWriter::with_buffer`].
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }
}

/// Builds a packet stream with a correctly maintained running CRC, exactly
/// like the vendor `bitgen` would.
#[derive(Debug)]
pub struct BitstreamWriter {
    words: Vec<u32>,
    crc: Crc16,
    synced: bool,
}

impl Default for BitstreamWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl BitstreamWriter {
    /// Start an empty stream.
    pub fn new() -> Self {
        Self::with_buffer(Vec::new())
    }

    /// Start an empty stream on a recycled word buffer (cleared, capacity
    /// kept) — the steady-state-allocation-free entry point for repeated
    /// generation.
    pub fn with_buffer(mut words: Vec<u32>) -> Self {
        words.clear();
        BitstreamWriter {
            words,
            crc: Crc16::new(),
            synced: false,
        }
    }

    /// Emit the dummy + sync preamble. Must be called before any packet.
    pub fn sync(&mut self) -> &mut Self {
        assert!(!self.synced, "sync emitted twice");
        self.words.push(DUMMY_WORD);
        self.words.push(SYNC_WORD);
        self.synced = true;
        self
    }

    fn push_payload(&mut self, reg: Register, data: &[u32]) {
        self.words.extend_from_slice(data);
        if crc_covered(reg) {
            self.crc.update_slice(reg, data);
        }
    }

    /// Write `data` to `reg` using a type-1 packet (data must fit the
    /// 11-bit count).
    pub fn write_reg(&mut self, reg: Register, data: &[u32]) -> &mut Self {
        assert!(self.synced, "write before sync");
        self.words.push(Packet::write1(reg, data.len()).encode());
        self.push_payload(reg, data);
        self
    }

    /// Write a large payload to `reg` using a zero-count type-1 header
    /// followed by a type-2 header (the FDRI idiom).
    pub fn write_reg_type2(&mut self, reg: Register, data: &[u32]) -> &mut Self {
        assert!(self.synced, "write before sync");
        self.words.push(Packet::write1(reg, 0).encode());
        self.words.push(Packet::write2(data.len()).encode());
        self.push_payload(reg, data);
        self
    }

    /// Write a payload to `reg`, picking the packet form by size.
    pub fn write_reg_auto(&mut self, reg: Register, data: &[u32]) -> &mut Self {
        if data.len() <= TYPE1_MAX_COUNT {
            self.write_reg(reg, data)
        } else {
            self.write_reg_type2(reg, data)
        }
    }

    /// Write one payload assembled from several word slices — the
    /// zero-copy spelling of [`Self::write_reg_auto`] for payloads that
    /// live as a contiguous slab span plus a trailing pad frame. The
    /// packet form is picked from the total length; the emitted words and
    /// CRC are identical to concatenating the chunks first.
    pub fn write_reg_slices(&mut self, reg: Register, chunks: &[&[u32]]) -> &mut Self {
        assert!(self.synced, "write before sync");
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        if total <= TYPE1_MAX_COUNT {
            self.words.push(Packet::write1(reg, total).encode());
        } else {
            self.words.push(Packet::write1(reg, 0).encode());
            self.words.push(Packet::write2(total).encode());
        }
        for chunk in chunks {
            self.push_payload(reg, chunk);
        }
        self
    }

    /// Write a command to `CMD`.
    pub fn command(&mut self, cmd: Command) -> &mut Self {
        self.write_reg(Register::Cmd, &[cmd.code()])
    }

    /// Splice in a pre-built packet run whose CRC contribution was
    /// computed independently from a zero register. `section_bits` is the
    /// number of CRC-covered bits the section fed (use
    /// [`crate::crc::BITS_PER_UPDATE`] per covered word); header words of
    /// CRC-exempt registers contribute zero bits. The running CRC advances
    /// exactly as if the section's writes had gone through this writer.
    pub fn append_section(
        &mut self,
        words: &[u32],
        section_crc: u16,
        section_bits: usize,
    ) -> &mut Self {
        assert!(self.synced, "write before sync");
        self.words.extend_from_slice(words);
        self.crc.combine(section_crc, section_bits);
        self
    }

    /// Write the accumulated CRC to the `CRC` register (the device will
    /// compare). Resets the running value afterwards, as the silicon does.
    pub fn write_crc(&mut self) -> &mut Self {
        let v = self.crc.value() as u32;
        self.write_reg(Register::Crc, &[v]);
        self.crc.reset();
        self
    }

    /// The running CRC value (for tests).
    pub fn crc_value(&self) -> u16 {
        self.crc.value()
    }

    /// Reset the running CRC, mirroring an `RCRC` command.
    pub fn reset_crc(&mut self) -> &mut Self {
        self.crc.reset();
        self
    }

    /// Finish and return the bitstream.
    pub fn finish(self) -> Bitstream {
        Bitstream::from_words(self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_then_packets() {
        let mut w = BitstreamWriter::new();
        w.sync().command(Command::Rcrc);
        let bs = w.finish();
        assert_eq!(bs.words()[0], DUMMY_WORD);
        assert_eq!(bs.words()[1], SYNC_WORD);
        let hdr = Packet::decode(bs.words()[2]).unwrap();
        assert_eq!(hdr, Packet::write1(Register::Cmd, 1));
        assert_eq!(bs.words()[3], Command::Rcrc.code());
    }

    #[test]
    #[should_panic(expected = "write before sync")]
    fn write_before_sync_panics() {
        let mut w = BitstreamWriter::new();
        w.command(Command::Null);
    }

    #[test]
    fn auto_picks_type2_for_large_payloads() {
        let big = vec![0u32; TYPE1_MAX_COUNT + 1];
        let mut w = BitstreamWriter::new();
        w.sync().write_reg_auto(Register::Fdri, &big);
        let bs = w.finish();
        assert_eq!(
            Packet::decode(bs.words()[2]).unwrap(),
            Packet::write1(Register::Fdri, 0)
        );
        assert_eq!(
            Packet::decode(bs.words()[3]).unwrap(),
            Packet::write2(big.len())
        );
        assert_eq!(bs.word_len(), 4 + big.len());
    }

    #[test]
    fn write_reg_slices_matches_contiguous_payload() {
        let data: Vec<u32> = (0..TYPE1_MAX_COUNT as u32 + 40)
            .map(|i| i * 3 + 7)
            .collect();
        for cut in [0, 1, 17, data.len() - 1, data.len()] {
            // Large payload split in two chunks vs one contiguous write.
            let mut a = BitstreamWriter::new();
            a.sync()
                .write_reg_slices(Register::Fdri, &[&data[..cut], &data[cut..]]);
            let mut b = BitstreamWriter::new();
            b.sync().write_reg_auto(Register::Fdri, &data);
            assert_eq!(a.crc_value(), b.crc_value(), "cut at {cut}");
            assert_eq!(a.finish(), b.finish(), "cut at {cut}");
        }
        // Small total picks the type-1 form, like write_reg_auto.
        let small = [1u32, 2, 3];
        let mut a = BitstreamWriter::new();
        a.sync()
            .write_reg_slices(Register::Far, &[&small[..1], &small[1..]]);
        let mut b = BitstreamWriter::new();
        b.sync().write_reg_auto(Register::Far, &small);
        assert_eq!(a.finish(), b.finish());
    }

    /// One `FAR`/`WCFG`/`FDRI` run built as a standalone section, its CRC
    /// taken from a zero register — the shape the relocation engine
    /// splices.
    fn section(far: u32, payload: &[u32]) -> (Vec<u32>, u16, usize) {
        let mut words = vec![Packet::write1(Register::Far, 1).encode(), far];
        let mut crc = Crc16::new();
        crc.update(Register::Far, far);
        let wcfg = Command::Wcfg.code();
        words.extend([Packet::write1(Register::Cmd, 1).encode(), wcfg]);
        crc.update(Register::Cmd, wcfg);
        if payload.len() <= TYPE1_MAX_COUNT {
            words.push(Packet::write1(Register::Fdri, payload.len()).encode());
        } else {
            words.push(Packet::write1(Register::Fdri, 0).encode());
            words.push(Packet::write2(payload.len()).encode());
        }
        words.extend_from_slice(payload);
        crc.update_slice(Register::Fdri, payload);
        let bits = (payload.len() + 2) * crate::crc::BITS_PER_UPDATE;
        (words, crc.value(), bits)
    }

    #[test]
    fn spliced_sections_match_direct_writes() {
        let small: Vec<u32> = (0..40).map(|i| i * 11 + 1).collect();
        let big: Vec<u32> = (0..TYPE1_MAX_COUNT as u32 + 200)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        // Type-1 and type-2 FDRI runs, and an empty run list.
        for runs in [
            vec![(0x0042_0000, &small)],
            vec![(0x0042_0000, &small), (0x0084_0200, &big)],
            vec![],
        ] {
            let mut spliced = BitstreamWriter::new();
            spliced.sync().reset_crc().write_reg(Register::Flr, &[12]);
            let mut direct = BitstreamWriter::new();
            direct.sync().reset_crc().write_reg(Register::Flr, &[12]);
            for &(far, payload) in &runs {
                let (words, crc, bits) = section(far, payload);
                spliced.append_section(&words, crc, bits);
                let (head, tail) = payload.split_at(payload.len() / 2);
                direct
                    .write_reg(Register::Far, &[far])
                    .command(Command::Wcfg)
                    .write_reg_slices(Register::Fdri, &[head, tail]);
            }
            assert_eq!(
                spliced.crc_value(),
                direct.crc_value(),
                "{} runs",
                runs.len()
            );
            spliced.write_crc();
            direct.write_crc();
            assert_eq!(spliced.finish(), direct.finish(), "{} runs", runs.len());
        }
        // An empty section moves neither the words nor the running CRC.
        let mut w = BitstreamWriter::new();
        w.sync().write_reg(Register::Far, &[7]);
        let crc = w.crc_value();
        w.append_section(&[], 0, 0);
        assert_eq!(w.crc_value(), crc);
        assert_eq!(w.finish().word_len(), 4);
    }

    #[test]
    fn with_buffer_recycles_capacity_and_clears() {
        let mut w = BitstreamWriter::new();
        w.sync().write_reg(Register::Far, &[0xAB]);
        let words = w.finish().into_words();
        let cap = words.capacity();
        assert!(!words.is_empty());
        let mut w2 = BitstreamWriter::with_buffer(words);
        w2.sync().command(Command::Rcrc);
        let bs = w2.finish();
        assert_eq!(bs.words()[0], DUMMY_WORD, "stale words cleared");
        assert!(bs.into_words().capacity() >= cap.min(4));
    }

    #[test]
    fn crc_accumulates_and_resets_on_check() {
        let mut w = BitstreamWriter::new();
        w.sync().write_reg(Register::Far, &[0x1234]);
        assert_ne!(w.crc_value(), 0);
        w.write_crc();
        assert_eq!(w.crc_value(), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut w = BitstreamWriter::new();
        w.sync().command(Command::Start);
        let bs = w.finish();
        let bytes = bs.to_bytes();
        assert_eq!(bytes.len(), bs.byte_len());
        assert_eq!(Bitstream::from_bytes(&bytes).unwrap(), bs);
        assert!(Bitstream::from_bytes(&bytes[..5]).is_none());
    }
}
