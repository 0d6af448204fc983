//! Workspace-wide observability: metrics, span tracing, exporters.
//!
//! The paper's whole argument is quantitative — partial bitstreams are
//! about a third the size of complete ones and proportionally faster to
//! generate and download (PAPER.md §4.1, Figure 4) — so the pipeline
//! needs a first-class way to account for where bytes and time go.
//! This crate is that substrate:
//!
//! * [`metrics`] — lock-free [`Counter`]/[`Gauge`]/[`Histogram`]
//!   instruments (promoted from `fleet::metrics`, with configurable
//!   histogram buckets and a zero-saturating gauge);
//! * [`registry`] — named, labeled instruments in a [`Registry`]
//!   (process-global via [`global`], or per-component) with
//!   deterministic [`Snapshot`]s;
//! * [`trace`] — the one span record, [`TraceSpan`], stamped with its
//!   [`Clock`] (wall, modelled or virtual): [`ShardTracer`] rings merged
//!   into a [`Trace`], Chrome `trace_event`/JSONL exporters, the JSONL
//!   reader, per-stage and critical-path analysis, and the
//!   [`SloPolicy`]/[`SloReport`] error-budget engine;
//! * [`span`] — `obs::span!("stage")` wall-clock guards and
//!   [`record_duration`] for modelled SelectMAP port time, recording
//!   into one process-wide sink ([`install_sink`]/[`take_sink`]);
//! * [`export`] — Prometheus text, JSON snapshot and table renderers,
//!   all golden-test stable.
//!
//! Spans record only while a sink is installed (fleet tracers: while
//! their config asks for it), and the `obs-off` cargo feature compiles
//! all span recording out; metric instruments stay live either way.

pub mod export;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use export::{prometheus, snapshot_json, stage_table, table};
pub use metrics::{presets, Counter, Gauge, Histogram};
pub use registry::{global, Registry, Sample, Snapshot, Value};
pub use span::{install_sink, record_duration, take_sink, Span};
pub use trace::{
    stage_breakdown, Clock, FieldValue, ShardTracer, SloPolicy, SloReport, SloSample, StageStat,
    Trace, TraceParseError, TraceSpan, TRACE_RING_CAPACITY,
};
