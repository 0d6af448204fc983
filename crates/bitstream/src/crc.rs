//! The running CRC the configuration logic keeps while a bitstream loads.
//!
//! Virtex computes a 16-bit CRC over every word written to a CRC-covered
//! register together with the register's address; a write to the `CRC`
//! register compares the accumulated value and aborts configuration on
//! mismatch. The exact silicon polynomial was never published; we use
//! CRC-16/IBM (polynomial 0x8005, LSB-first) over the 32 data bits followed
//! by the 4-bit register address, which preserves the protocol behaviour
//! (any corrupted word or misdirected write is detected).

use crate::regs::Register;

/// The polynomial, reflected form of 0x8005.
const POLY: u16 = 0xA001;

/// Bits fed into the CRC per register write: 32 data bits + 4 address
/// bits. The unit [`Crc16::combine`] counts section lengths in.
pub const BITS_PER_UPDATE: usize = 36;

/// Byte-at-a-time table for the reflected polynomial, built at compile
/// time. `TABLE[b]` is the register after shifting 8 zero bits through a
/// register whose low byte was `b`.
const TABLE: [u16; 256] = build_table();

const fn build_table() -> [u16; 256] {
    let mut t = [0u16; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut v = i as u16;
        let mut b = 0;
        while b < 8 {
            v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
            b += 1;
        }
        t[i] = v;
        i += 1;
    }
    t
}

/// Slicing-by-4 tables: `TABLES[k][b]` is the register after byte `b`
/// has been fed and then shifted through `k` further zero bytes. One
/// 32-bit data word becomes four independent lookups XOR'd together
/// instead of a four-iteration dependency chain.
const TABLES: [[u16; 256]; 4] = build_tables();

const fn build_tables() -> [[u16; 256]; 4] {
    let mut t = [[0u16; 256]; 4];
    t[0] = TABLE;
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Nibble table for the 4 register-address bits fed after each word:
/// `NIBBLE[n]` is the register after shifting 4 zero bits through a
/// register whose low nibble was `n`.
const NIBBLE: [u16; 16] = build_nibble();

const fn build_nibble() -> [u16; 16] {
    let mut t = [0u16; 16];
    let mut i = 0usize;
    while i < 16 {
        let mut v = i as u16;
        let mut b = 0;
        while b < 4 {
            v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
            b += 1;
        }
        t[i] = v;
        i += 1;
    }
    t
}

/// Feed one 32-bit word (LSB-first bytes) through the register in four
/// table lookups. The 16-bit register only reaches the first two byte
/// lanes; the later bytes enter as pure table terms (GF(2) linearity).
#[inline]
fn word_step(v: u16, word: u32) -> u16 {
    let [b0, b1, b2, b3] = word.to_le_bytes();
    TABLES[3][((v ^ b0 as u16) & 0xFF) as usize]
        ^ TABLES[2][(((v >> 8) ^ b1 as u16) & 0xFF) as usize]
        ^ TABLES[1][b2 as usize]
        ^ TABLES[0][b3 as usize]
}

/// Feed the 4-bit register address (LSB first).
#[inline]
fn addr_step(v: u16, addr: u16) -> u16 {
    (v >> 4) ^ NIBBLE[((v ^ addr) & 0xF) as usize]
}

/// A 16×16 GF(2) matrix: `m[i]` is the image of basis vector `1 << i`.
type Matrix = [u16; 16];

const fn mat_apply(m: &Matrix, v: u16) -> u16 {
    let mut out = 0u16;
    let mut bits = v;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        out ^= m[i];
        bits &= bits - 1;
    }
    out
}

const fn mat_mul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = [0u16; 16];
    let mut i = 0;
    while i < 16 {
        out[i] = mat_apply(a, b[i]);
        i += 1;
    }
    out
}

/// The shift-one-zero-bit-in operator `L(v) = (v >> 1) ^ ((v & 1) * POLY)`
/// as a matrix.
const fn step_matrix() -> Matrix {
    let mut m = [0u16; 16];
    m[0] = POLY; // bit 0 shifts out and folds the polynomial back in
    let mut i = 1;
    while i < 16 {
        m[i] = 1 << (i - 1);
        i += 1;
    }
    m
}

/// `POW2[k] = L^(2^k)`, the step matrix repeatedly squared at compile
/// time, covering every possible `usize` section length.
const POW2: [Matrix; usize::BITS as usize] = build_pow2();

const fn build_pow2() -> [Matrix; usize::BITS as usize] {
    let mut p = [[0u16; 16]; usize::BITS as usize];
    p[0] = step_matrix();
    let mut k = 1;
    while k < usize::BITS as usize {
        p[k] = mat_mul(&p[k - 1], &p[k - 1]);
        k += 1;
    }
    p
}

/// Advance `state` through `bits` zero input bits: `L^bits(state)`. With
/// the squared powers precomputed this is one 16-op vector apply per set
/// bit of `bits` — cheap enough to run once per spliced section.
fn advance(state: u16, bits: usize) -> u16 {
    let mut result = state;
    let mut n = bits;
    while n != 0 {
        let k = n.trailing_zeros() as usize;
        result = mat_apply(&POW2[k], result);
        n &= n - 1;
    }
    result
}

/// A running 16-bit configuration CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Crc16 {
    value: u16,
}

impl Crc16 {
    /// A freshly reset CRC (as after the `RCRC` command).
    pub fn new() -> Self {
        Crc16 { value: 0 }
    }

    /// A CRC register holding `value` (deserialized or combined state).
    pub fn from_value(value: u16) -> Self {
        Crc16 { value }
    }

    /// Reset to zero (`RCRC`).
    pub fn reset(&mut self) {
        self.value = 0;
    }

    #[cfg(test)]
    fn feed_bit(&mut self, bit: bool) {
        let inv = (self.value & 1 != 0) ^ bit;
        self.value >>= 1;
        if inv {
            self.value ^= POLY;
        }
    }

    /// Reference bit-serial update (kept as the specification the
    /// table-driven path is tested against).
    #[cfg(test)]
    fn update_bitwise(&mut self, reg: Register, word: u32) {
        for i in 0..32 {
            self.feed_bit((word >> i) & 1 == 1);
        }
        let addr = reg.addr() as u16;
        for i in 0..4 {
            self.feed_bit((addr >> i) & 1 == 1);
        }
    }

    /// Accumulate one register write: 32 data bits (LSB first) then the
    /// 4-bit register address. Slicing-by-4 over the data bytes plus one
    /// nibble lookup for the address.
    pub fn update(&mut self, reg: Register, word: u32) {
        self.value = addr_step(word_step(self.value, word), reg.addr() as u16);
    }

    /// Accumulate a run of writes to the same register — the streaming
    /// spelling of [`Self::update`] for multi-word payloads (FDRI frame
    /// data), keeping the register value local across the whole slice.
    pub fn update_slice(&mut self, reg: Register, words: &[u32]) {
        let addr = reg.addr() as u16;
        let mut v = self.value;
        for &w in words {
            v = addr_step(word_step(v, w), addr);
        }
        self.value = v;
    }

    /// Append a section that was CRC'd independently from a zero register.
    ///
    /// The update recurrence is affine over GF(2): feeding a bit `b` maps
    /// the register through `v → L(v) ⊕ b·POLY` with linear `L`. Feeding a
    /// whole section therefore splits into `L^bits(state)` (the old state
    /// shifted through the section's length) XOR the section's own CRC
    /// computed from zero. This is what lets per-column workers checksum
    /// their frames independently and still reproduce the serial running
    /// CRC exactly.
    pub fn combine(&mut self, section_crc: u16, section_bits: usize) {
        self.value = advance(self.value, section_bits) ^ section_crc;
    }

    /// The current accumulated value.
    pub fn value(&self) -> u16 {
        self.value
    }
}

/// Whether writes to `reg` are covered by the running CRC. Mirrors the
/// silicon: `CRC` itself (the check write), `LOUT` (daisy-chain pass-
/// through) and command/status plumbing that the tools rewrite freely are
/// excluded.
pub fn crc_covered(reg: Register) -> bool {
    !matches!(
        reg,
        Register::Crc | Register::Lout | Register::Stat | Register::Fdro
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Crc16::new();
        a.update(Register::Fdri, 0xDEAD_BEEF);
        a.update(Register::Fdri, 0x0000_0001);
        let mut b = Crc16::new();
        b.update(Register::Fdri, 0x0000_0001);
        b.update(Register::Fdri, 0xDEAD_BEEF);
        assert_ne!(a.value(), b.value(), "CRC must depend on word order");

        let mut c = Crc16::new();
        c.update(Register::Fdri, 0xDEAD_BEEF);
        c.update(Register::Fdri, 0x0000_0001);
        assert_eq!(a.value(), c.value(), "CRC must be deterministic");
    }

    #[test]
    fn address_is_mixed_in() {
        let mut a = Crc16::new();
        a.update(Register::Fdri, 42);
        let mut b = Crc16::new();
        b.update(Register::Far, 42);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn reset_restores_zero() {
        let mut a = Crc16::new();
        a.update(Register::Cmd, 7);
        assert_ne!(a.value(), 0);
        a.reset();
        assert_eq!(a.value(), 0);
    }

    #[test]
    fn single_bit_flip_detected() {
        for bit in [0, 1, 15, 31] {
            let mut a = Crc16::new();
            a.update(Register::Fdri, 0x1234_5678);
            let mut b = Crc16::new();
            b.update(Register::Fdri, 0x1234_5678 ^ (1 << bit));
            assert_ne!(a.value(), b.value(), "flip of bit {bit} undetected");
        }
    }

    #[test]
    fn table_update_matches_bitwise_reference() {
        let words = [
            0u32,
            1,
            0xFFFF_FFFF,
            0xDEAD_BEEF,
            0xAA99_5566,
            0x1234_5678,
            0x8000_0001,
        ];
        for reg in [Register::Fdri, Register::Far, Register::Cmd, Register::Flr] {
            let mut fast = Crc16::new();
            let mut slow = Crc16::new();
            for &w in &words {
                fast.update(reg, w);
                slow.update_bitwise(reg, w);
                assert_eq!(fast.value(), slow.value(), "reg {reg:?} word {w:#010x}");
            }
        }
    }

    #[test]
    fn update_slice_matches_per_word_updates() {
        let words: Vec<u32> = (0..97)
            .map(|i| (i as u32).wrapping_mul(0xB529_7A4D) ^ 0xAA99_5566)
            .collect();
        for reg in [Register::Fdri, Register::Far, Register::Cmd] {
            let mut sliced = Crc16::from_value(0x1D0F);
            sliced.update_slice(reg, &words);
            let mut serial = Crc16::from_value(0x1D0F);
            for &w in &words {
                serial.update(reg, w);
            }
            assert_eq!(sliced.value(), serial.value(), "reg {reg:?}");
        }
        let mut empty = Crc16::from_value(0xABCD);
        empty.update_slice(Register::Fdri, &[]);
        assert_eq!(empty.value(), 0xABCD, "empty slice is the identity");
    }

    #[test]
    fn combine_matches_sequential() {
        // Split a word stream at several points; processing the tail from
        // zero and combining must equal straight-through processing.
        let words: Vec<u32> = (0..50)
            .map(|i| (i as u32).wrapping_mul(0x9E37_79B9))
            .collect();
        let mut whole = Crc16::new();
        whole.update(Register::Far, 0x0000_1200);
        for &w in &words {
            whole.update(Register::Fdri, w);
        }
        for split in [0, 1, 7, 25, 49, 50] {
            let mut head = Crc16::new();
            head.update(Register::Far, 0x0000_1200);
            for &w in &words[..split] {
                head.update(Register::Fdri, w);
            }
            let mut tail = Crc16::new();
            for &w in &words[split..] {
                tail.update(Register::Fdri, w);
            }
            head.combine(tail.value(), (words.len() - split) * BITS_PER_UPDATE);
            assert_eq!(head.value(), whole.value(), "split at {split}");
        }
    }

    #[test]
    fn combine_empty_section_is_identity() {
        let mut a = Crc16::new();
        a.update(Register::Cmd, 7);
        let before = a.value();
        a.combine(0, 0);
        assert_eq!(a.value(), before);
    }

    #[test]
    fn from_value_roundtrip() {
        assert_eq!(Crc16::from_value(0xABCD).value(), 0xABCD);
    }

    #[test]
    fn coverage_excludes_check_and_readback_registers() {
        assert!(!crc_covered(Register::Crc));
        assert!(!crc_covered(Register::Lout));
        assert!(!crc_covered(Register::Fdro));
        assert!(crc_covered(Register::Fdri));
        assert!(crc_covered(Register::Far));
        assert!(crc_covered(Register::Cmd));
    }
}
