//! XDL text → [`Design`] parser.
//!
//! Grammar (the subset produced by `xdl -ncd2xdl` that JPG consumes):
//!
//! ```text
//! file   := design (inst | net)* ;
//! design := 'design' STRING DEVICE VERSION? ';'
//! inst   := 'inst' STRING STRING ',' place (',' 'cfg' STRING)? ';'
//! place  := 'placed' TILE SITE | 'unplaced'
//! net    := 'net' STRING kind? (',' conn)* ',' ';'
//! kind   := 'clock' | 'power'
//! conn   := 'outpin' STRING PIN | 'inpin' STRING PIN
//!         | 'pip' TILE WIRE '->' WIRE
//! ```

use crate::design::{CfgEntry, Design, Instance, InstanceKind, Net, NetKind, PinRef, Placement};
use std::fmt;
use virtex::{Device, IobCoord, Pip, SliceCoord, TileCoord, Wire};

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XDL parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    Comma,
    Semi,
    Arrow,
}

struct Lexer {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Lexer {
    fn new(text: &str) -> Result<Lexer, ParseError> {
        let mut toks = Vec::new();
        for (ln0, raw_line) in text.lines().enumerate() {
            let line = ln0 + 1;
            let code = raw_line;
            let mut chars = code.char_indices().peekable();
            while let Some(&(i, c)) = chars.peek() {
                match c {
                    // '#' starts a comment — but only outside strings
                    // (cfg values legitimately contain '#LUT:'/'#FF').
                    '#' => break,
                    c if c.is_whitespace() => {
                        chars.next();
                    }
                    ',' => {
                        toks.push((line, Tok::Comma));
                        chars.next();
                    }
                    ';' => {
                        toks.push((line, Tok::Semi));
                        chars.next();
                    }
                    '"' => {
                        chars.next();
                        let start = i + 1;
                        let mut end = None;
                        for (j, c2) in chars.by_ref() {
                            if c2 == '"' {
                                end = Some(j);
                                break;
                            }
                        }
                        let end = end.ok_or_else(|| ParseError {
                            line,
                            message: "unterminated string".into(),
                        })?;
                        toks.push((line, Tok::Str(code[start..end].to_string())));
                    }
                    '-' => {
                        chars.next();
                        match chars.peek() {
                            Some(&(_, '>')) => {
                                chars.next();
                                toks.push((line, Tok::Arrow));
                            }
                            _ => {
                                return Err(ParseError {
                                    line,
                                    message: "stray '-'".into(),
                                })
                            }
                        }
                    }
                    _ => {
                        let start = i;
                        let mut end = code.len();
                        while let Some(&(j, c2)) = chars.peek() {
                            if c2.is_whitespace() || matches!(c2, ',' | ';' | '"') {
                                end = j;
                                break;
                            }
                            chars.next();
                            end = j + c2.len_utf8();
                        }
                        toks.push((line, Tok::Word(code[start..end].to_string())));
                    }
                }
            }
        }
        Ok(Lexer { toks, pos: 0 })
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|(l, _)| *l)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_word(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Word(w)) => Ok(w),
            other => Err(self.err(format!("expected word, found {other:?}"))),
        }
    }

    fn expect_str(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(s),
            other => Err(self.err(format!("expected string, found {other:?}"))),
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(ref got) if *got == t => Ok(()),
            other => Err(self.err(format!("expected {t:?}, found {other:?}"))),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

fn parse_tile(lex: &Lexer, w: &str) -> Result<TileCoord, ParseError> {
    let rc = w
        .strip_prefix('R')
        .ok_or_else(|| lex.err("bad tile name"))?;
    let (r, c) = rc.split_once('C').ok_or_else(|| lex.err("bad tile name"))?;
    let row: i32 = r.parse().map_err(|_| lex.err("bad tile row"))?;
    let col: i32 = c.parse().map_err(|_| lex.err("bad tile column"))?;
    let row = row.checked_sub(1).ok_or_else(|| lex.err("bad tile row"))?;
    let col = col
        .checked_sub(1)
        .ok_or_else(|| lex.err("bad tile column"))?;
    Ok(TileCoord::new(row, col))
}

/// Parse XDL text into a design database.
pub fn parse(text: &str) -> Result<Design, ParseError> {
    match parse_inner(text) {
        Ok(design) => {
            obs::counter!("xdl_lines_parsed_total").add(text.lines().count() as u64);
            obs::counter!("xdl_records_parsed_total")
                .add((design.instances.len() + design.nets.len()) as u64);
            Ok(design)
        }
        Err(e) => {
            obs::counter!("xdl_parse_errors_total").inc();
            Err(e)
        }
    }
}

fn parse_inner(text: &str) -> Result<Design, ParseError> {
    let mut lex = Lexer::new(text)?;

    // design "name" DEVICE [version] ;
    let kw = lex.expect_word()?;
    if kw != "design" {
        return Err(lex.err("file must start with a design statement"));
    }
    let name = lex.expect_str()?;
    let dev_word = lex.expect_word()?;
    let device: Device = dev_word.parse().map_err(|e| lex.err(format!("{e}")))?;
    // Optional version word.
    if matches!(lex.peek(), Some(Tok::Word(_))) {
        lex.next();
    }
    lex.expect(Tok::Semi)?;

    let mut design = Design::new(name, device);

    while let Some(tok) = lex.peek().cloned() {
        let kw = match tok {
            Tok::Word(w) => {
                lex.next();
                w
            }
            other => return Err(lex.err(format!("expected statement, found {other:?}"))),
        };
        match kw.as_str() {
            "inst" | "instance" => {
                let name = lex.expect_str()?;
                let kind_s = lex.expect_str()?;
                let kind = match kind_s.as_str() {
                    "SLICE" => InstanceKind::Slice,
                    "IOB" => InstanceKind::Iob,
                    other => return Err(lex.err(format!("unknown primitive {other:?}"))),
                };
                lex.expect(Tok::Comma)?;
                let state = lex.expect_word()?;
                let placement = match state.as_str() {
                    "unplaced" => Placement::Unplaced,
                    "placed" => {
                        let _tile = lex.expect_word()?; // redundant tile name
                        let site = lex.expect_word()?;
                        match kind {
                            InstanceKind::Slice => Placement::Slice(
                                SliceCoord::parse_site_name(&site)
                                    .ok_or_else(|| lex.err(format!("bad slice site {site:?}")))?,
                            ),
                            InstanceKind::Iob => Placement::Iob(
                                IobCoord::parse_site_name(&site)
                                    .ok_or_else(|| lex.err(format!("bad IOB site {site:?}")))?,
                            ),
                        }
                    }
                    other => return Err(lex.err(format!("expected placement, found {other:?}"))),
                };
                let mut cfg = Vec::new();
                if lex.eat(&Tok::Comma) {
                    let kw = lex.expect_word()?;
                    if kw != "cfg" {
                        return Err(lex.err(format!("expected cfg, found {kw:?}")));
                    }
                    let cfg_s = lex.expect_str()?;
                    for token in cfg_s.split_whitespace() {
                        // _PINMAP and other underscore-prefixed bookkeeping
                        // entries are carried verbatim.
                        let entry = CfgEntry::parse(token)
                            .ok_or_else(|| lex.err(format!("bad cfg token {token:?}")))?;
                        cfg.push(entry);
                    }
                }
                lex.expect(Tok::Semi)?;
                design.instances.push(Instance {
                    name,
                    kind,
                    placement,
                    cfg,
                });
            }
            "net" => {
                let name = lex.expect_str()?;
                let kind = match lex.peek() {
                    Some(Tok::Word(w)) if w == "clock" => {
                        lex.next();
                        NetKind::Clock
                    }
                    Some(Tok::Word(w)) if w == "power" => {
                        lex.next();
                        NetKind::Power
                    }
                    _ => NetKind::Wire,
                };
                let mut net = Net::new(name, kind);
                while lex.eat(&Tok::Comma) {
                    // Trailing comma before the semicolon is legal.
                    if lex.peek() == Some(&Tok::Semi) {
                        break;
                    }
                    let kw = lex.expect_word()?;
                    match kw.as_str() {
                        "outpin" => {
                            let inst = lex.expect_str()?;
                            let pin = lex.expect_word()?;
                            net.outpin = Some(PinRef::new(inst, pin));
                        }
                        "inpin" => {
                            let inst = lex.expect_str()?;
                            let pin = lex.expect_word()?;
                            net.inpins.push(PinRef::new(inst, pin));
                        }
                        "pip" => {
                            let tile_w = lex.expect_word()?;
                            let loc = parse_tile(&lex, &tile_w)?;
                            let from_w = lex.expect_word()?;
                            lex.expect(Tok::Arrow)?;
                            let to_w = lex.expect_word()?;
                            let from = Wire::parse(&from_w)
                                .ok_or_else(|| lex.err(format!("bad wire {from_w:?}")))?;
                            let to = Wire::parse(&to_w)
                                .ok_or_else(|| lex.err(format!("bad wire {to_w:?}")))?;
                            net.pips.push(Pip { loc, from, to });
                        }
                        other => return Err(lex.err(format!("unknown net item {other:?}"))),
                    }
                }
                lex.expect(Tok::Semi)?;
                design.nets.push(net);
            }
            other => return Err(lex.err(format!("unknown statement {other:?}"))),
        }
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::SliceId;

    const SAMPLE: &str = r#"
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

    #[test]
    fn parses_paper_style_file() {
        let d = parse(SAMPLE).unwrap();
        assert_eq!(d.name, "top");
        assert_eq!(d.device, Device::XCV100);
        assert_eq!(d.instances.len(), 3);
        assert_eq!(d.nets.len(), 2);

        let u1 = d.instance("u1/nrz").unwrap();
        assert_eq!(u1.kind, InstanceKind::Slice);
        assert_eq!(
            u1.placement,
            Placement::Slice(SliceCoord::new(TileCoord::new(2, 22), SliceId::S0))
        );
        assert_eq!(u1.cfg_value("CKINV"), Some("1"));
        assert_eq!(u1.cfg_value("G"), Some("#LUT:D=(A1@A4)"));
        assert_eq!(u1.cfg_value("FFY"), Some("#FF"));
        let ffy = u1.cfg.iter().find(|e| e.attr == "FFY").unwrap();
        assert_eq!(ffy.logical, "u1/nrz_reg");

        let net = d.net("u1/nrz").unwrap();
        assert_eq!(net.kind, NetKind::Wire);
        assert_eq!(net.outpin, Some(PinRef::new("u1/nrz", "Y")));
        assert_eq!(net.pips.len(), 1);
        assert_eq!(net.pips[0].loc, TileCoord::new(2, 22));

        let clk = d.net("clk").unwrap();
        assert_eq!(clk.kind, NetKind::Clock);

        let u2 = d.instance("u2").unwrap();
        assert_eq!(u2.placement, Placement::Unplaced);
    }

    #[test]
    fn error_reports_line() {
        let bad = "design \"x\" XCV100 ;\ninst \"a\" \"BOGUS\" , unplaced ;";
        let err = parse(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("BOGUS"));
    }

    #[test]
    fn rejects_missing_design() {
        assert!(parse("inst \"a\" \"SLICE\" , unplaced ;").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_unknown_device() {
        let err = parse("design \"x\" XCV9999 ;").unwrap_err();
        assert!(err.message.contains("XCV9999"));
    }

    #[test]
    fn rejects_unterminated_string() {
        let err = parse("design \"x XCV100 ;").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }
}
