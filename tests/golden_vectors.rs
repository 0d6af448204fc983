//! Golden-vector regression: a committed base bitstream and one variant
//! partial, reproduced bit-for-bit.
//!
//! The vectors are built from fixed, direct JBits writes (no CAD flow,
//! no RNG), so any change to packet framing, CRC accounting, frame
//! ordering or payload layout shows up as a fixture mismatch here before
//! it shows up on a board. Regenerate deliberately with
//! `REGEN_GOLDEN=1 cargo test --test golden_vectors` after an intended
//! format change, and review the diff.

use bitstream::Bitstream;
use jbits::{Granularity, Jbits};
use std::fmt::Write as _;
use std::path::PathBuf;
use virtex::{Device, LutId, SliceId, TileCoord};

const BASE_FIXTURE: &str = "tests/common/golden_base_xcv50.hex";
const PARTIAL_FIXTURE: &str = "tests/common/golden_partial_xcv50.hex";

/// The golden base design: a handful of LUTs and routes spread over
/// three columns of an XCV50, written directly through the JBits API.
fn golden_base() -> Jbits {
    let mut jb = Jbits::new(Device::XCV50);
    for row in 0..8 {
        let t = TileCoord::new(2, row);
        jb.set_lut(t, SliceId::S0, LutId::F, 0x8000u16.rotate_right(row as u32));
        jb.set_lut(t, SliceId::S1, LutId::G, 0x6996);
    }
    for row in 4..10 {
        let t = TileCoord::new(9, row);
        jb.set_lut(t, SliceId::S0, LutId::G, 0xCAFE ^ (row as u16));
    }
    jb.set_lut(TileCoord::new(15, 15), SliceId::S1, LutId::F, 0x0001);
    jb
}

/// The golden variant: the module in column 9 replaced (its LUTs
/// rewritten), emitted as a column-granular partial against the base.
fn golden_partial(base: &Jbits) -> Bitstream {
    let mut var = Jbits::from_memory(base.memory().clone());
    for row in 4..10 {
        let t = TileCoord::new(9, row);
        var.set_lut(t, SliceId::S0, LutId::G, 0x1234 + row as u16);
        var.set_lut(t, SliceId::S1, LutId::F, 0x00FF);
    }
    var.partial_bitstream(Granularity::Column)
}

fn fixture_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn to_hex(bs: &Bitstream) -> String {
    let mut out = String::with_capacity(bs.word_len() * 9);
    for chunk in bs.words().chunks(8) {
        let line: Vec<String> = chunk.iter().map(|w| format!("{w:08x}")).collect();
        writeln!(out, "{}", line.join(" ")).unwrap();
    }
    out
}

fn from_hex(text: &str) -> Bitstream {
    let words: Vec<u32> = text
        .split_whitespace()
        .map(|t| u32::from_str_radix(t, 16).expect("hex word"))
        .collect();
    Bitstream::from_words(words)
}

fn check_fixture(rel: &str, actual: &Bitstream) {
    let path = fixture_path(rel);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, to_hex(actual)).expect("write fixture");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {rel} unreadable ({e}); REGEN_GOLDEN=1 to create"));
    let expected = from_hex(&text);
    assert_eq!(
        expected.word_len(),
        actual.word_len(),
        "{rel}: length changed"
    );
    if expected != *actual {
        let first = expected
            .words()
            .iter()
            .zip(actual.words())
            .position(|(a, b)| a != b)
            .unwrap();
        panic!(
            "{rel}: first mismatch at word {first}: fixture {:08x}, generated {:08x}",
            expected.words()[first],
            actual.words()[first]
        );
    }
}

#[test]
fn golden_base_bitstream_is_stable() {
    check_fixture(BASE_FIXTURE, &golden_base().full_bitstream());
}

#[test]
fn golden_partial_bitstream_is_stable() {
    let base = golden_base();
    let partial = golden_partial(&base);
    check_fixture(PARTIAL_FIXTURE, &partial);
}

#[test]
fn golden_partial_applies_onto_golden_base() {
    // The fixtures are not just stable — they are a working pair: base
    // then partial lands the device in the variant state.
    let base = golden_base();
    let partial = golden_partial(&base);
    let mut dev = bitstream::Interpreter::new(Device::XCV50);
    dev.feed(&base.full_bitstream()).unwrap();
    dev.feed(&partial).unwrap();
    let check = Jbits::from_memory(dev.into_memory());
    assert_eq!(
        check.get_lut(TileCoord::new(9, 5), SliceId::S0, LutId::G),
        0x1239
    );
    assert_eq!(
        check.get_lut(TileCoord::new(2, 3), SliceId::S1, LutId::G),
        0x6996
    );
}
