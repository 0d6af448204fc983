//! The benchmark's definition: workloads, metrics with their units and
//! clock domains, and the seeds. `BENCHMARK.json` and
//! `perfbench/manifest.json` are printed from here (`--manifest`), and
//! the smoke test fails when the committed files drift from it.

use crate::cad_swap::{PINNED_FINGERPRINT, PINNED_SEED};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cad_swap",
        why: "XDL+UCF text in to region verified, one caller: CAD layers do the host work, no fabric or scheduler runs; the control for fleet-side changes",
    },
    Workload {
        name: "fleet_real",
        why: "4 real boards serve Zipf rounds with faults and rebases: the only workload running fabric decode, device-side apply, verify and the store",
    },
    Workload {
        name: "fleet_model",
        why: "1k modelled boards on a seeded open-loop trace: the scheduler does the host work, no CAD or fabric runs; the control for CAD and emulator changes",
    },
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// A seed no change is tuned against: claims are re-checked on it.
pub const HELD_OUT_SEED: u64 = 7_919_813;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// Gated: may worsen by at most `bound` of the parent's median.
    EndToEnd { bound: f64 },
    /// Reported by the traced run only; no bound.
    Layer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "wall" (host), "modelled" (SelectMAP port model), "virtual"
    /// (scheduler clock) or "none" (counts and ratios of counts).
    pub clock: &'static str,
    pub better: &'static str,
    pub kind: Kind,
    /// Workloads whose path runs the measured calls; elsewhere the
    /// metric reads 0.
    pub workloads: &'static [&'static str],
    pub what: &'static str,
}

const ALL: &[&str] = &["cad_swap", "fleet_real", "fleet_model"];
const CAD: &[&str] = &["cad_swap"];
const REAL: &[&str] = &["fleet_real"];
const CAD_REAL: &[&str] = &["cad_swap", "fleet_real"];
const FLEETS: &[&str] = &["fleet_real", "fleet_model"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: "wall",
        better,
        kind: Kind::EndToEnd { bound },
        workloads: ALL,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: &'static str,
    workloads: &'static [&'static str],
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        kind: Kind::Layer,
        workloads,
        what,
    }
}

pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25, "median of several set-ups: place-and-route, library and fleet construction, trace generation, before the first timed op"),
    e2e("ops_per_s", "1/s", "higher", 0.25, "median over passes of verified swaps / served requests / simulated requests per host second"),
    layer("cad_ms_p50", "ms", "wall", "lower", CAD, "per swap, text in to JWC1 out: parse, translate, diff, emit, encode"),
    layer("cad_ms_p99", "ms", "wall", "lower", CAD, "99th percentile of cad_ms"),
    layer("port_us_p50", "us", "modelled", "lower", CAD_REAL, "per op: download plus verify reply, plus backoff on fleet_real"),
    layer("port_us_p99", "us", "modelled", "lower", CAD_REAL, "99th percentile of port_us"),
    layer("port_bytes_per_op", "bytes", "modelled", "lower", CAD_REAL, "port bytes per op, both directions"),
    layer("partial_fraction", "ratio", "none", "lower", CAD, "mean plain partial bytes / full bitstream bytes (the paper's ~1/3)"),
    layer("virtual_req_per_s", "1/s", "virtual", "higher", REAL, "served requests / summed round makespans"),
    layer("fail_share", "ratio", "none", "lower", ALL, "failed, unverified or wrong-output ops / ops attempted"),
    layer("xdl.parse_ms_p50", "ms", "wall", "lower", CAD, "xdl::parse + Constraints::parse per swap"),
    layer("xdl.parse_mb_per_s", "MB/s", "wall", "higher", CAD, "XDL+UCF text bytes parsed per second"),
    layer("translate.cold_ms_p50", "ms", "wall", "lower", CAD, "jpg::apply_design on a fresh Jbits::from_memory_tracked"),
    layer("translate.writes_per_s", "1/s", "wall", "higher", CAD, "JBits writes per second of cold translate"),
    layer("translate.cold_warm_ratio", "ratio", "wall", "lower", CAD, "cold apply_design p50 / a second apply on the same Jbits"),
    layer("project.wholesale_ms_p50", "ms", "wall", "lower", CAD, "JpgProject::generate_partial_from"),
    layer("project.incremental_ms_p50", "ms", "wall", "lower", CAD, "JpgProject::generate_partial_incremental"),
    layer("cache.hit_ratio", "ratio", "none", "higher", CAD, "FrameCache hits / lookups in one pass"),
    layer("cache.lookups", "count", "none", "lower", CAD, "FrameCache lookups in one pass"),
    layer("bitgen.emit_ms_p50", "ms", "wall", "lower", CAD, "bitstream::partial_bitstream_par over the partial's runs, bytes checked equal"),
    layer("bitgen.emit_mb_per_s", "MB/s", "wall", "higher", CAD, "partial bytes emitted per second"),
    layer("wire.encode_mb_per_s", "MB/s", "wall", "higher", CAD, "wire::encode, plain bytes in per second"),
    layer("wire.apply_mb_per_s", "MB/s", "wall", "higher", CAD_REAL, "wire::apply_streaming, decoded bytes per second"),
    layer("wire.ratio", "ratio", "none", "higher", CAD_REAL, "decoded bytes / container bytes"),
    layer("wire.peak_buffer_words", "words", "none", "lower", CAD_REAL, "largest streaming-decoder buffer"),
    layer("digest.mb_per_s", "MB/s", "wall", "higher", CAD, "virtex::RegionDigests::from_words, bytes digested per second"),
    layer("simboard.fabric_decode_ms_p50", "ms", "wall", "lower", REAL, "simboard::FabricModel::decode of each downloaded image"),
    layer("simboard.apply_ms_p50", "ms", "wall", "lower", REAL, "SimBoard::set_configuration_wire, decode included"),
    layer("simboard.downloads", "count", "none", "lower", REAL, "downloads the simboard metrics sample"),
    layer("store.miss_ms_p50", "ms", "wall", "lower", REAL, "ServingLibrary::resolve on a cold key after a rebase"),
    layer("store.hit_ratio", "ratio", "none", "higher", REAL, "requests whose resolve hit the store"),
    layer("sched.host_ns_per_req", "ns", "wall", "lower", FLEETS, "host time in Fleet::run / fleet::simulate per request"),
    layer("sched.downloads", "count", "none", "lower", FLEETS, "download attempts in one pass"),
    layer("sched.retries", "count", "none", "lower", FLEETS, "retried download attempts in one pass"),
    layer("sched.coalesced_share", "ratio", "none", "higher", FLEETS, "requests riding another's download"),
    layer("sched.resident_share", "ratio", "none", "higher", FLEETS, "requests served by a resident variant"),
    layer("sched.verify_escalations", "count", "none", "lower", FLEETS, "digest verifies escalated to a raw compare"),
    layer("sched.virtual_p99_us", "us", "virtual", "lower", FLEETS, "99th percentile arrival-to-completion latency"),
    layer("sched.virtual_req_per_s", "1/s", "virtual", "higher", FLEETS, "served requests per second of virtual time"),
    layer("obs.trace_overhead", "ratio", "wall", "lower", ALL, "untraced / traced ops_per_s - 1, from alternating passes"),
];

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn workloads_json() -> String {
    WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// `BENCHMARK.json`: the contract the benchmark is run against.
pub fn benchmark_json() -> String {
    let metrics = |end_to_end: bool| {
        METRICS
            .iter()
            .filter(|m| (m.kind != Kind::Layer) == end_to_end)
            .map(|m| {
                let bound = match m.kind {
                    Kind::EndToEnd { bound } => format!(", \"bound\": {bound}"),
                    Kind::Layer => String::new(),
                };
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads_json(),
        metrics(true),
        metrics(false),
    )
}

/// `perfbench/manifest.json`: what `BENCHMARK.json` has no keys for —
/// clock domains, where each metric is measured, the pinned output
/// fingerprint and the held-out seed.
pub fn manifest_json() -> String {
    let metrics: Vec<String> = METRICS
        .iter()
        .map(|m| {
            let on: Vec<String> = m.workloads.iter().map(|w| quote(w)).collect();
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"clock\": {}, \"kind\": {}, \"workloads\": [{}], \"what\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.clock),
                quote(if m.kind == Kind::Layer { "per_layer" } else { "end_to_end" }),
                on.join(", "),
                quote(m.what)
            )
        })
        .collect();
    format!(
        "{{\n  \"held_out_seed\": {HELD_OUT_SEED},\n  \"pinned\": {{\"workload\": \"cad_swap\", \"seed\": {PINNED_SEED}, \"fingerprint\": \"{PINNED_FINGERPRINT:#018x}\", \"over\": \"every partial and JWC1 container byte of one full-size pass\"}},\n  \"clocks\": {{\"wall\": \"host wall clock\", \"modelled\": \"SelectMAP byte-cycle port model\", \"virtual\": \"scheduler virtual time\", \"none\": \"count or ratio of counts\"}},\n  \"absent\": \"a metric reads 0 on workloads outside its list: the workload's path never calls that layer\",\n  \"workloads\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
        workloads_json(),
        metrics.join(",\n"),
    )
}
