//! XDL front-end fuzzing. Design files cross a trust boundary, so every
//! XDL + UCF pair, however malformed, must end as a translated session or
//! as a typed error — never a panic.
//!
//! A case runs its files down the path a user's files take:
//! [`xdl::parse`], then [`Constraints::parse`] and the frame ranges of
//! every `AREA_GROUP` ([`jpg::region_frame_ranges`]), then
//! [`jpg::apply_design`] onto an XCV100 session. Even seeds byte-mutate
//! the parser's sample design (or a design that translates cleanly) and
//! its UCF. Odd seeds are grammar-aware: well-formed files whose sites,
//! PIPs or regions sit where the device has no configuration bits, or
//! whose regions run far past it, each pinned to the typed outcome it
//! must end in.

use crate::harness::Failure;
use jbits::Jbits;
use jpg::TranslateError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use virtex::{Device, RoutingGraph, TileCoord};
use xdl::{Constraints, ParseError, UcfError};

/// The session device; the grammar-aware cases aim just outside it.
const DEVICE: Device = Device::XCV100;

/// The `xdl` parser's sample design: the paper's §3.2.2 slice, a clock
/// pad and an unplaced slice.
const SAMPLE_XDL: &str = r#"
# Produced by xdl -ncd2xdl
design "top" XCV100 v3.1 ;
inst "u1/nrz" "SLICE" , placed R3C23 CLB_R3C23.S0 ,
  cfg "CKINV::1 DYMUX::1 G:u1/C307:#LUT:D=(A1@A4) CEMUX::CE SRMUX::SR GYMUX::G SYNC_ATTR::ASYNC SRFFMUX::0 INITY::LOW FFY:u1/nrz_reg:#FF" ;
inst "pad_clk" "IOB" , placed R0C6 IOB_R0C6.P2 , cfg "IOMUX::I" ;
inst "u2" "SLICE" , unplaced ;
net "u1/nrz" ,
  outpin "u1/nrz" Y ,
  inpin "u1/nrz" G1 ,
  pip R3C23 R3C23/OMUX1 -> R3C23/SINGLE_E1 ,
  ;
net "clk" clock , outpin "pad_clk" I , inpin "u1/nrz" CLK , ;
"#;

/// A UCF floorplanning the sample.
const SAMPLE_UCF: &str = r#"INST "u1/*" AREA_GROUP = "AG_u1" ;
AREA_GROUP "AG_u1" RANGE = CLB_R1C20:CLB_R20C25 ;
NET "clk" LOC = "IOB_R0C6.P2" ;
"#;

/// The paper's slice configuration string.
const PAPER_CFG: &str = "CKINV::1 DYMUX::1 G:u1/C307:#LUT:D=(A1@A4) CEMUX::CE SRMUX::SR \
                         GYMUX::G SYNC_ATTR::ASYNC SRFFMUX::0 INITY::LOW FFY:u1/nrz_reg:#FF";

/// How a front-end case ended. A panic is the only other ending, and it
/// is a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontEnd {
    /// Every instance and PIP was written.
    Translated,
    /// The XDL was rejected.
    Parse(ParseError),
    /// The UCF was rejected.
    Ucf(UcfError),
    /// The design was rejected against the device.
    Translate(TranslateError),
}

/// Run one XDL + UCF pair through parse, constraint parse and translate.
fn front_end(xdl_text: &str, ucf_text: &str) -> FrontEnd {
    let design = match xdl::parse(xdl_text) {
        Ok(d) => d,
        Err(e) => return FrontEnd::Parse(e),
    };
    let constraints = match Constraints::parse(ucf_text) {
        Ok(c) => c,
        Err(e) => return FrontEnd::Ucf(e),
    };
    let mut jb = Jbits::new(DEVICE);
    for &region in constraints.groups.values() {
        jpg::region_frame_ranges(jb.memory(), region);
    }
    match jpg::apply_design(&mut jb, &design) {
        Ok(_) => FrontEnd::Translated,
        Err(e) => FrontEnd::Translate(e),
    }
}

/// The outcome a grammar-aware case is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Translated,
    Parse,
    Ucf,
    BadSite,
    BadPip,
}

impl Expect {
    fn admits(self, got: &FrontEnd) -> bool {
        matches!(
            (self, got),
            (Expect::Translated, FrontEnd::Translated)
                | (Expect::Parse, FrontEnd::Parse(_))
                | (Expect::Ucf, FrontEnd::Ucf(_))
                | (
                    Expect::BadSite,
                    FrontEnd::Translate(TranslateError::BadSite { .. })
                )
                | (
                    Expect::BadPip,
                    FrontEnd::Translate(TranslateError::BadPip { .. })
                )
        )
    }
}

/// The grammar-aware case families, cycled through by seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grammar {
    /// A slice or pad beyond the die edge.
    OffDevice,
    /// Negative coordinates in sites and PIP locations.
    Negative,
    /// Coordinates at and past the `i32` limits.
    Huge,
    /// A pad on one of the four corner tiles.
    Corner,
    /// A slice on the IOB ring, a pad on a CLB tile, or a pad index past
    /// the last one.
    WrongKind,
    /// A PIP the fabric does not have.
    UnknownPip,
    /// The same instance placed twice.
    DuplicateInstance,
    /// An `AREA_GROUP` range outside the die.
    AreaGroupOutsideDie,
    /// An `AREA_GROUP` range from inside the die to column 2^31 - 1.
    HugeAreaGroupRange,
}

/// All families, in the order the odd seeds cycle through them.
const GRAMMAR: [Grammar; 9] = [
    Grammar::OffDevice,
    Grammar::Negative,
    Grammar::Huge,
    Grammar::Corner,
    Grammar::WrongKind,
    Grammar::UnknownPip,
    Grammar::DuplicateInstance,
    Grammar::AreaGroupOutsideDie,
    Grammar::HugeAreaGroupRange,
];

/// A design that translates cleanly — the paper's slice, an input pad
/// and one real PIP — plus the `extra` statements.
fn design(extra: &str) -> String {
    let pip = RoutingGraph::new(DEVICE).tile_pips(TileCoord::new(2, 22))[0];
    format!(
        "design \"fuzz\" XCV100 ;\n\
         inst \"u1/nrz\" \"SLICE\" , placed R3C23 CLB_R3C23.S0 , cfg \"{PAPER_CFG}\" ;\n\
         inst \"pad_clk\" \"IOB\" , placed R0C6 IOB_R0C6.P2 , cfg \"INBUF::1\" ;\n\
         net \"u1/nrz\" , {pip} , ;\n\
         {extra}\n"
    )
}

/// A slice instance on `CLB_R{row}C{col}.S{slice}` (1-based names).
fn slice_at(row: impl std::fmt::Display, col: impl std::fmt::Display, slice: u8) -> String {
    format!(
        r#"inst "fz" "SLICE" , placed R{row}C{col} CLB_R{row}C{col}.S{slice} , cfg "FFX:fz:#FF" ;"#
    )
}

/// A pad instance on `IOB_R{row}C{col}.P{pad}` (1-based names).
fn pad_at(
    row: impl std::fmt::Display,
    col: impl std::fmt::Display,
    pad: impl std::fmt::Display,
) -> String {
    format!(r#"inst "fz" "IOB" , placed R{row}C{col} IOB_R{row}C{col}.P{pad} , cfg "INBUF::1" ;"#)
}

/// A net with one PIP at `R{row}C{col}` between two of its own wires.
fn pip_at(
    row: impl std::fmt::Display,
    col: impl std::fmt::Display,
    from: &str,
    to: &str,
) -> String {
    format!(r#"net "fz" , pip R{row}C{col} R{row}C{col}/{from} -> R{row}C{col}/{to} , ;"#)
}

/// Build a grammar-aware case: `(xdl, ucf, pinned outcome)`.
fn grammar_case(family: Grammar, rng: &mut StdRng) -> (String, String, Expect) {
    let g = DEVICE.geometry();
    // 1-based names: CLBs are 1..=rows × 1..=cols, the ring is 0 and
    // rows+1 / cols+1.
    let (rows, cols) = (g.clb_rows as i64, g.clb_cols as i64);
    let row = rng.gen_range(1..=rows);
    let col = rng.gen_range(1..=cols);
    let slice = rng.gen_range(0u8..2);
    let pad = rng.gen_range(0u8..4);
    let beyond = rng.gen_range(2..=1000i64);
    let ucf = SAMPLE_UCF.to_string();
    let case = |xdl: String, expect| (xdl, ucf.clone(), expect);
    match family {
        Grammar::OffDevice => match rng.gen_range(0u32..3) {
            0 => case(
                design(&slice_at(row, cols + beyond, slice)),
                Expect::BadSite,
            ),
            1 => case(
                design(&slice_at(rows + beyond, col, slice)),
                Expect::BadSite,
            ),
            _ => case(design(&pad_at(rows + beyond, col, pad)), Expect::BadSite),
        },
        Grammar::Negative => match rng.gen_range(0u32..3) {
            0 => case(design(&slice_at(-beyond, col, slice)), Expect::Parse),
            1 => case(design(&pad_at(row, -beyond, pad)), Expect::BadSite),
            _ => case(
                design(&pip_at(-beyond, col, "OMUX1", "SINGLE_E1")),
                Expect::BadPip,
            ),
        },
        Grammar::Huge => match rng.gen_range(0u32..5) {
            0 => case(design(&slice_at(1i64 << 31, col, slice)), Expect::Parse),
            1 => case(design(&pad_at(i32::MAX, col, pad)), Expect::BadSite),
            2 => case(design(&pad_at(i32::MIN, col, pad)), Expect::Parse),
            3 => case(
                design(&pip_at(i32::MAX, i32::MAX, "OMUX1", "SINGLE_E1")),
                Expect::BadPip,
            ),
            _ => case(
                design(&pip_at(row, i32::MIN, "OMUX1", "SINGLE_E1")),
                Expect::Parse,
            ),
        },
        Grammar::Corner => {
            let (r, c) = [(0, 0), (0, cols + 1), (rows + 1, 0), (rows + 1, cols + 1)]
                [rng.gen_range(0usize..4)];
            case(design(&pad_at(r, c, pad)), Expect::BadSite)
        }
        Grammar::WrongKind => match rng.gen_range(0u32..4) {
            0 => case(design(&slice_at(rows + 1, col, slice)), Expect::BadSite),
            1 => case(design(&slice_at(row, cols + 1, slice)), Expect::BadSite),
            2 => case(design(&pad_at(row, col, pad)), Expect::BadSite),
            _ => case(
                design(&pad_at(0, col, rng.gen_range(4u16..=255))),
                Expect::BadSite,
            ),
        },
        Grammar::UnknownPip => {
            let (i, j) = (rng.gen_range(0u8..8), rng.gen_range(0u8..8));
            let from = format!("OMUX{i}");
            let to = format!("OMUX{j}");
            if rng.gen_bool(0.5) {
                case(design(&pip_at(row, col, &from, &to)), Expect::BadPip)
            } else {
                // Wire names the parser has never heard of.
                case(design(&pip_at(row, col, &from, "WIRE9")), Expect::Parse)
            }
        }
        Grammar::DuplicateInstance => {
            let line = slice_at(row, col, slice);
            case(design(&format!("{line}\n{line}")), Expect::Translated)
        }
        Grammar::AreaGroupOutsideDie => {
            let (r0, c0) = (rng.gen_range(1..=rows + 1000), cols + beyond);
            let (r1, c1) = match rng.gen_range(0u32..3) {
                0 => (r0 + beyond, c0 + beyond),
                1 => (0, c0),
                _ => (i32::MAX as i64 + 1, c0),
            };
            let expect = if r1 >= 1 && r1 <= i32::MAX as i64 {
                Expect::Translated
            } else {
                Expect::Ucf
            };
            let ucf = format!(
                "INST \"u1/*\" AREA_GROUP = \"AG_far\" ;\n\
                 AREA_GROUP \"AG_far\" RANGE = CLB_R{r0}C{c0}:CLB_R{r1}C{c1} ;\n"
            );
            (design(""), ucf, expect)
        }
        Grammar::HugeAreaGroupRange => {
            let ucf = format!(
                "INST \"u1/*\" AREA_GROUP = \"AG_huge\" ;\n\
                 AREA_GROUP \"AG_huge\" RANGE = CLB_R1C{col}:CLB_R{rows}C{} ;\n",
                i32::MAX
            );
            (design(""), ucf, Expect::Translated)
        }
    }
}

/// Bytes the mutator favours: the ones the XDL and UCF grammars give
/// meaning to.
const SYNTAX: &[u8] = b"0123456789-RCSP._:/\";, \n>#*";

/// Numbers the mutator splices over digit runs.
const EDGE_NUMBERS: [&str; 10] = [
    "0",
    "-1",
    "21",
    "31",
    "255",
    "256",
    "2147483647",
    "-2147483648",
    "2147483648",
    "99999999999999999999",
];

/// Apply 1–6 seeded byte-level mutations to `text`.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1u32..=6) {
        if b.is_empty() {
            b.push(SYNTAX[rng.gen_range(0..SYNTAX.len())]);
            continue;
        }
        let at = rng.gen_range(0..b.len());
        match rng.gen_range(0u32..5) {
            0 => {
                b[at] = if rng.gen_bool(0.8) {
                    SYNTAX[rng.gen_range(0..SYNTAX.len())]
                } else {
                    rng.gen_range(0u8..=255)
                }
            }
            1 => {
                let end = (at + rng.gen_range(1usize..8)).min(b.len());
                b.drain(at..end);
            }
            2 => b.insert(at, SYNTAX[rng.gen_range(0..SYNTAX.len())]),
            3 => {
                let end = (at + rng.gen_range(1usize..40)).min(b.len());
                let chunk = b[at..end].to_vec();
                let to = rng.gen_range(0..=b.len());
                b.splice(to..to, chunk);
            }
            _ => {
                // Replace the digit run at or after `at` with an edge number.
                let Some(start) = b[at..].iter().position(u8::is_ascii_digit) else {
                    continue;
                };
                let start = at + start;
                let len = b[start..].iter().take_while(|c| c.is_ascii_digit()).count();
                let n = EDGE_NUMBERS[rng.gen_range(0..EDGE_NUMBERS.len())];
                b.splice(start..start + len, n.bytes());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Run one seeded front-end case. Fails on a panic, or when a
/// grammar-aware case ends other than as pinned.
pub fn xdl_fuzz_case(seed: u64) -> Result<FrontEnd, Failure> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0D1_F022_5EED);
    let fail = |stage, detail| Failure {
        seed,
        stage,
        detail,
    };
    let (xdl_text, ucf_text, expect) = if seed.is_multiple_of(2) {
        let base = if rng.gen_bool(0.5) {
            SAMPLE_XDL.to_string()
        } else {
            design("")
        };
        let (mutate_xdl, mutate_ucf) = match rng.gen_range(0u32..4) {
            0 => (false, true),
            1 => (true, true),
            _ => (true, false),
        };
        let xdl_text = if mutate_xdl {
            mutate(&base, &mut rng)
        } else {
            base
        };
        let ucf_text = if mutate_ucf {
            mutate(SAMPLE_UCF, &mut rng)
        } else {
            SAMPLE_UCF.to_string()
        };
        (xdl_text, ucf_text, None)
    } else {
        let family = GRAMMAR[((seed / 2) % GRAMMAR.len() as u64) as usize];
        let (x, u, e) = grammar_case(family, &mut rng);
        (x, u, Some(e))
    };
    let got = catch_unwind(AssertUnwindSafe(|| front_end(&xdl_text, &ucf_text))).map_err(|_| {
        fail(
            "xdl-fuzz-panic",
            format!("front end panicked on\n{xdl_text}\n--- ucf ---\n{ucf_text}"),
        )
    })?;
    match expect {
        Some(e) if !e.admits(&got) => Err(fail(
            "xdl-fuzz-outcome",
            format!("expected {e:?}, got {got:?} on\n{xdl_text}\n--- ucf ---\n{ucf_text}"),
        )),
        _ => Ok(got),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_design_translates() {
        assert_eq!(front_end(&design(""), SAMPLE_UCF), FrontEnd::Translated);
    }

    #[test]
    fn every_grammar_family_ends_as_pinned() {
        // Odd seeds 1, 3, … walk the families in order; three rounds
        // cover most sub-cases.
        for seed in (1..GRAMMAR.len() as u64 * 2 * 3).step_by(2) {
            if let Err(f) = xdl_fuzz_case(seed) {
                panic!("{f}");
            }
        }
    }

    #[test]
    fn mutation_cases_end_typed() {
        for seed in (0..400).step_by(2) {
            if let Err(f) = xdl_fuzz_case(seed) {
                panic!("{f}");
            }
        }
    }
}
