//! The XDL → JBits translator (paper §3.2.2): "The JPG parser scans
//! through the complete .xdl file and makes appropriate JBits calls to
//! program the device."

use jbits::Jbits;
use std::fmt;
use virtex::routing::PADS_PER_IOB;
use virtex::{
    ClbResource, IobResource, LutId, MuxSetting, ResourceValue, SliceId, SliceResource, TileCoord,
};
use xdl::{Design, Instance, InstanceKind, Placement};

/// Translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The design targets a different device than the JBits session.
    DeviceMismatch {
        /// Design's device.
        design: String,
        /// Session's device.
        session: String,
    },
    /// An instance is unplaced — JPG needs fully implemented modules.
    Unplaced {
        /// Offending instance.
        instance: String,
    },
    /// A cfg attribute value could not be interpreted.
    BadCfg {
        /// Instance name.
        instance: String,
        /// Attribute.
        attr: String,
        /// Value.
        value: String,
    },
    /// An instance is placed on a site with no configuration bits of its
    /// kind: off the device, on a corner, on a tile of the wrong kind, or
    /// on a pad past the last one.
    BadSite {
        /// Offending instance.
        instance: String,
        /// The site it is placed on.
        site: String,
    },
    /// A routed PIP does not exist in the fabric.
    BadPip {
        /// Net name.
        net: String,
        /// PIP description.
        pip: String,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::DeviceMismatch { design, session } => {
                write!(f, "design targets {design}, session is {session}")
            }
            TranslateError::Unplaced { instance } => {
                write!(f, "instance {instance:?} is unplaced")
            }
            TranslateError::BadCfg {
                instance,
                attr,
                value,
            } => write!(f, "instance {instance:?}: bad cfg {attr}::{value}"),
            TranslateError::BadSite { instance, site } => {
                write!(f, "instance {instance:?}: no {site} on this device")
            }
            TranslateError::BadPip { net, pip } => {
                write!(f, "net {net:?}: pip {pip} not in fabric")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Counters for the calls made — the paper's "JBits calls" inner loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslateStats {
    /// LUT table writes.
    pub lut_writes: usize,
    /// Other slice-resource writes.
    pub resource_writes: usize,
    /// IOB resource writes.
    pub iob_writes: usize,
    /// PIP enables.
    pub pip_writes: usize,
}

impl TranslateStats {
    /// Total JBits calls.
    pub fn total(&self) -> usize {
        self.lut_writes + self.resource_writes + self.iob_writes + self.pip_writes
    }
}

fn mux_value(v: &str, primary_name: &str) -> Option<MuxSetting> {
    match v {
        "OFF" | "0" => Some(MuxSetting::Off),
        "1" => Some(MuxSetting::One),
        _ if v == primary_name => Some(MuxSetting::Primary),
        _ => None,
    }
}

fn apply_slice_cfg(
    jb: &mut Jbits,
    tile: TileCoord,
    slice: SliceId,
    inst: &Instance,
    stats: &mut TranslateStats,
) -> Result<(), TranslateError> {
    let bad = |attr: &str, value: &str| TranslateError::BadCfg {
        instance: inst.name.clone(),
        attr: attr.to_string(),
        value: value.to_string(),
    };
    let set = |jb: &mut Jbits, res: SliceResource, v: ResourceValue, stats: &mut TranslateStats| {
        jb.set(tile, ClbResource::new(slice, res), v);
        stats.resource_writes += 1;
    };
    for entry in &inst.cfg {
        let attr = entry.attr.as_str();
        let value = entry.value.as_str();
        match attr {
            "F" | "G" => {
                let table = xdl::expr_to_truth(value).map_err(|_| bad(attr, value))?;
                let lut = if attr == "F" { LutId::F } else { LutId::G };
                jb.set_lut(tile, slice, lut, table);
                stats.lut_writes += 1;
            }
            "FFX" | "FFY" => {
                if value != "#FF" {
                    return Err(bad(attr, value));
                }
                let res = if attr == "FFX" {
                    SliceResource::FfX
                } else {
                    SliceResource::FfY
                };
                set(jb, res, ResourceValue::bit(true), stats);
            }
            "INITX" | "INITY" => {
                let v = match value {
                    "LOW" | "0" => false,
                    "HIGH" | "1" => true,
                    _ => return Err(bad(attr, value)),
                };
                let res = if attr == "INITX" {
                    SliceResource::InitX
                } else {
                    SliceResource::InitY
                };
                set(jb, res, ResourceValue::bit(v), stats);
            }
            "DXMUX" | "DYMUX" => {
                let v = match value {
                    "0" | "LUT" => false,
                    "1" | "BX" | "BY" => true,
                    _ => return Err(bad(attr, value)),
                };
                let res = if attr == "DXMUX" {
                    SliceResource::DxMux
                } else {
                    SliceResource::DyMux
                };
                set(jb, res, ResourceValue::bit(v), stats);
            }
            "FXMUX" => {
                let m = mux_value(value, "F").ok_or_else(|| bad(attr, value))?;
                set(
                    jb,
                    SliceResource::FxMux,
                    ResourceValue::new(m.encode(), 2),
                    stats,
                );
            }
            "GYMUX" => {
                let m = mux_value(value, "G").ok_or_else(|| bad(attr, value))?;
                set(
                    jb,
                    SliceResource::GyMux,
                    ResourceValue::new(m.encode(), 2),
                    stats,
                );
            }
            "CEMUX" => {
                let m = mux_value(value, "CE").ok_or_else(|| bad(attr, value))?;
                set(
                    jb,
                    SliceResource::CeMux,
                    ResourceValue::new(m.encode(), 2),
                    stats,
                );
            }
            "SRMUX" => {
                let m = mux_value(value, "SR").ok_or_else(|| bad(attr, value))?;
                set(
                    jb,
                    SliceResource::SrMux,
                    ResourceValue::new(m.encode(), 2),
                    stats,
                );
            }
            "CKINV" => {
                let v = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(attr, value)),
                };
                set(jb, SliceResource::CkInv, ResourceValue::bit(v), stats);
            }
            "SRFFMUX" => {
                let v = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(attr, value)),
                };
                set(jb, SliceResource::SrFfMux, ResourceValue::bit(v), stats);
            }
            "SYNC_ATTR" => {
                let v = match value {
                    "ASYNC" => false,
                    "SYNC" => true,
                    _ => return Err(bad(attr, value)),
                };
                set(jb, SliceResource::SyncAttr, ResourceValue::bit(v), stats);
            }
            // Bookkeeping attributes carried through XDL verbatim.
            "_PINMAP" => {}
            _ => return Err(bad(attr, value)),
        }
    }
    Ok(())
}

fn apply_iob_cfg(
    jb: &mut Jbits,
    tile: TileCoord,
    pad: u8,
    inst: &Instance,
    stats: &mut TranslateStats,
) -> Result<(), TranslateError> {
    for entry in &inst.cfg {
        match entry.attr.as_str() {
            "INBUF" => {
                jb.set_iob(
                    tile,
                    pad,
                    IobResource::InputEnable,
                    ResourceValue::bit(true),
                );
                stats.iob_writes += 1;
            }
            "OUTBUF" => {
                jb.set_iob(
                    tile,
                    pad,
                    IobResource::OutputEnable,
                    ResourceValue::bit(true),
                );
                stats.iob_writes += 1;
            }
            "CLKBUF" | "_PINMAP" => {}
            "SLEW" => {
                let fast = entry.value == "FAST";
                jb.set_iob(tile, pad, IobResource::Slew, ResourceValue::bit(fast));
                stats.iob_writes += 1;
            }
            attr => {
                return Err(TranslateError::BadCfg {
                    instance: inst.name.clone(),
                    attr: attr.to_string(),
                    value: entry.value.clone(),
                })
            }
        }
    }
    Ok(())
}

/// Apply a placed-and-routed design to a JBits session: the JPG inner
/// loop. Returns the call counts.
pub fn apply_design(jb: &mut Jbits, design: &Design) -> Result<TranslateStats, TranslateError> {
    if design.device != jb.device() {
        return Err(TranslateError::DeviceMismatch {
            design: design.device.to_string(),
            session: jb.device().to_string(),
        });
    }
    let device = jb.device();
    let bad_site = |inst: &Instance, site: String| TranslateError::BadSite {
        instance: inst.name.clone(),
        site,
    };
    let mut stats = TranslateStats::default();
    for inst in &design.instances {
        match (&inst.placement, inst.kind) {
            (Placement::Slice(sc), InstanceKind::Slice) => {
                if !sc.tile.is_clb(device) {
                    return Err(bad_site(inst, sc.site_name()));
                }
                apply_slice_cfg(jb, sc.tile, sc.slice, inst, &mut stats)?;
            }
            (Placement::Iob(io), InstanceKind::Iob) => {
                if !io.tile.is_iob(device) || io.pad as usize >= PADS_PER_IOB {
                    return Err(bad_site(inst, io.site_name()));
                }
                apply_iob_cfg(jb, io.tile, io.pad, inst, &mut stats)?;
            }
            _ => {
                return Err(TranslateError::Unplaced {
                    instance: inst.name.clone(),
                })
            }
        }
    }
    for net in &design.nets {
        for pip in &net.pips {
            if !jb.set_pip(pip, true) {
                return Err(TranslateError::BadPip {
                    net: net.name.clone(),
                    pip: pip.to_string(),
                });
            }
            stats.pip_writes += 1;
        }
    }
    // One aggregate add per kind, not one per set_bit: keeps the obs
    // cost off the inner loop.
    obs::counter!("jbits_writes_total", "kind" => "lut").add(stats.lut_writes as u64);
    obs::counter!("jbits_writes_total", "kind" => "resource").add(stats.resource_writes as u64);
    obs::counter!("jbits_writes_total", "kind" => "iob").add(stats.iob_writes as u64);
    obs::counter!("jbits_writes_total", "kind" => "pip").add(stats.pip_writes as u64);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadflow::{gen, implement, FlowOptions};
    use virtex::Device;
    use xdl::Constraints;

    fn implemented(seed: u64) -> Design {
        let nl = gen::counter("cnt", 4);
        let cons = Constraints::default();
        let mut opts = FlowOptions::default();
        opts.place.seed = seed;
        let (d, _) = implement(&nl, Device::XCV50, &cons, "m/", None, &opts).unwrap();
        d
    }

    #[test]
    fn translates_flow_output_without_errors() {
        let d = implemented(3);
        let mut jb = Jbits::new(Device::XCV50);
        let stats = apply_design(&mut jb, &d).unwrap();
        assert!(stats.lut_writes > 0);
        assert!(stats.pip_writes > 0);
        assert!(stats.iob_writes > 0);
        assert!(jb.is_dirty());
    }

    #[test]
    fn translation_is_idempotent() {
        let d = implemented(5);
        let mut jb1 = Jbits::new(Device::XCV50);
        apply_design(&mut jb1, &d).unwrap();
        let once = jb1.memory().clone();
        apply_design(&mut jb1, &d).unwrap();
        assert_eq!(jb1.memory(), &once);
    }

    #[test]
    fn device_mismatch_rejected() {
        let d = implemented(7);
        let mut jb = Jbits::new(Device::XCV100);
        let err = apply_design(&mut jb, &d).unwrap_err();
        assert!(matches!(err, TranslateError::DeviceMismatch { .. }));
    }

    #[test]
    fn unplaced_design_rejected() {
        let mut d = implemented(9);
        d.instances[0].placement = Placement::Unplaced;
        let mut jb = Jbits::new(Device::XCV50);
        let err = apply_design(&mut jb, &d).unwrap_err();
        assert!(matches!(err, TranslateError::Unplaced { .. }));
    }

    #[test]
    fn bad_cfg_rejected() {
        let mut d = implemented(11);
        let slice = d
            .instances
            .iter_mut()
            .find(|i| i.kind == InstanceKind::Slice)
            .unwrap();
        slice.set_cfg("BOGUS", "", "1");
        let mut jb = Jbits::new(Device::XCV50);
        let err = apply_design(&mut jb, &d).unwrap_err();
        assert!(matches!(err, TranslateError::BadCfg { .. }));
    }

    #[test]
    fn paper_sample_cfg_string_translates() {
        // The exact attribute set from the paper's §3.2.2 example.
        let text = r#"
design "paper" XCV100 ;
inst "u1/nrz" "SLICE" , placed R3C23 CLB_R3C23.S0 ,
  cfg "CKINV::1 DYMUX::1 G:u1/C307:#LUT:D=(A1@A4) CEMUX::CE SRMUX::SR GYMUX::G SYNC_ATTR::ASYNC SRFFMUX::0 INITY::LOW FFY:u1/nrz_reg:#FF" ;
"#;
        let d = xdl::parse(text).unwrap();
        let mut jb = Jbits::new(Device::XCV100);
        let stats = apply_design(&mut jb, &d).unwrap();
        assert_eq!(stats.lut_writes, 1);
        assert!(stats.resource_writes >= 7);
        // The G LUT received the XOR-of-A1,A4 table.
        let t = jb.get_lut(TileCoord::new(2, 22), SliceId::S0, LutId::G);
        assert_eq!(t, xdl::expr_to_truth("#LUT:D=(A1@A4)").unwrap());
    }

    #[test]
    fn sites_without_configuration_bits_are_typed_errors() {
        // XCV100: 20 rows x 30 columns; the IOB ring is row/column 0 and
        // 21/31 in 1-based site names.
        let bad_site = |site: &str| {
            Err(TranslateError::BadSite {
                instance: "x".into(),
                site: site.into(),
            })
        };
        let cases: [(&str, Result<TranslateStats, TranslateError>); 6] = [
            // Off the device.
            (
                r#"inst "x" "SLICE" , placed R3C223 CLB_R3C223.S0 , cfg "FFX:x:#FF" ;"#,
                bad_site("CLB_R3C223.S0"),
            ),
            // A slice on the bottom IOB ring.
            (
                r#"inst "x" "SLICE" , placed R21C5 CLB_R21C5.S0 , cfg "FFX:x:#FF" ;"#,
                bad_site("CLB_R21C5.S0"),
            ),
            // An IOB on a CLB tile.
            (
                r#"inst "x" "IOB" , placed R5C5 IOB_R5C5.P0 , cfg "INBUF::1" ;"#,
                bad_site("IOB_R5C5.P0"),
            ),
            // A pad past the last one.
            (
                r#"inst "x" "IOB" , placed R0C6 IOB_R0C6.P9 , cfg "INBUF::1" ;"#,
                bad_site("IOB_R0C6.P9"),
            ),
            // A corner tile.
            (
                r#"inst "x" "IOB" , placed R0C0 IOB_R0C0.P0 , cfg "INBUF::1" ;"#,
                bad_site("IOB_R0C0.P0"),
            ),
            // A PIP at an off-device location.
            (
                r#"net "n" , pip R3C223 R3C223/OMUX1 -> R3C223/SINGLE_E1 , ;"#,
                Err(TranslateError::BadPip {
                    net: "n".into(),
                    pip: "pip R3C223 R3C223/OMUX1 -> R3C223/SINGLE_E1".into(),
                }),
            ),
        ];
        for (body, want) in cases {
            let d = xdl::parse(&format!("design \"t\" XCV100 ;\n{body}\n")).unwrap();
            let mut jb = Jbits::new(Device::XCV100);
            assert_eq!(apply_design(&mut jb, &d), want, "{body}");
            assert!(!jb.is_dirty(), "{body}: wrote before failing");
        }
    }
}
