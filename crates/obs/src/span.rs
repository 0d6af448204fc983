//! CAD-side span recording into one process-wide sink.
//!
//! A [`Span`] guard (`obs::span!("stage")`) times its scope on the wall
//! clock; [`record_duration`] enters a stage whose duration is
//! *modelled* rather than measured — SelectMAP port time in
//! `simboard`/`fleet`. Both build a [`TraceSpan`] with `trace = parent =
//! 0` and `shard` set to the recording thread's lane (a small id in
//! first-record order), so CAD dumps and fleet dumps share one record,
//! one exporter ([`Trace::jsonl`]) and one reader.
//!
//! Spans record only while a sink is installed ([`install_sink`]). The
//! sink is one bounded [`ShardTracer`] ring — a drop count and a
//! sequence — and [`take_sink`] drains it into a [`Trace`]. With no sink
//! a span costs one atomic load: no clock read, no allocation. The
//! `obs-off` cargo feature turns that load into a constant `false`, so
//! every span compiles to a no-op.

use crate::trace::{Clock, FieldSet, FieldValue, ShardTracer, Trace, TraceSpan};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Spans the sink keeps; past this the oldest are dropped and counted.
const SINK_CAPACITY: usize = 1 << 17;

// The flag publishes no data (the mutex guards the ring), so relaxed
// loads and stores suffice: a span racing an install or a drain is
// either recorded or not, never torn.
static RECORDING: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<ShardTracer>> = Mutex::new(None);

thread_local! {
    static LANE: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

fn recording() -> bool {
    cfg!(not(feature = "obs-off")) && RECORDING.load(Ordering::Relaxed)
}

// `Span::drop` records through here and must not panic; every ring
// update leaves the ring valid, so a poisoned guard is safe to reuse.
fn sink() -> MutexGuard<'static, Option<ShardTracer>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Install the process-wide sink: a ring keeping the newest 2^17
/// spans. Replaces (and discards) any sink already installed.
pub fn install_sink() {
    epoch();
    *sink() = Some(ShardTracer::new(0, SINK_CAPACITY, true));
    RECORDING.store(true, Ordering::Relaxed);
}

/// Uninstall the sink and drain it into a [`Trace`] ordered by start
/// time; `None` when no sink was installed.
pub fn take_sink() -> Option<Trace> {
    let mut slot = sink();
    RECORDING.store(false, Ordering::Relaxed);
    slot.take().map(|t| Trace::merge([t.into_spans()]))
}

fn field_set(fields: &[(&'static str, u64)]) -> FieldSet {
    let mut set = FieldSet::EMPTY;
    for &(k, v) in fields {
        set.push(k, FieldValue::U64(v));
    }
    set
}

fn push(stage: &'static str, clock: Clock, start: Instant, dur: Duration, fields: FieldSet) {
    let mut span = TraceSpan::new(
        0,
        0,
        stage,
        start.saturating_duration_since(epoch()).as_nanos() as u64,
        dur.as_nanos() as u64,
    );
    span.clock = clock;
    span.shard = LANE.with(|l| *l);
    span.fields = fields;
    if let Some(tracer) = sink().as_mut() {
        tracer.push(span);
    }
}

/// Record a stage whose duration is modelled, not measured (SelectMAP
/// byte-cycle downloads and readbacks): a [`Clock::Modelled`] span
/// starting now.
pub fn record_duration(stage: &'static str, dur: Duration, fields: &[(&'static str, u64)]) {
    if recording() {
        push(
            stage,
            Clock::Modelled,
            Instant::now(),
            dur,
            field_set(fields),
        );
    }
}

/// An RAII stage timer: created by [`crate::span!`], records a
/// [`Clock::Wall`] span when dropped.
#[must_use = "a span measures the scope it is bound to; bind it to a named guard"]
pub struct Span {
    active: Option<(&'static str, Instant, FieldSet)>,
}

impl Span {
    /// Enter a stage with integer fields. Records nothing, and reads no
    /// clock, when no sink is installed.
    pub fn enter(stage: &'static str, fields: &[(&'static str, u64)]) -> Span {
        Span {
            active: recording().then(|| (stage, Instant::now(), field_set(fields))),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stage, start, fields)) = self.active.take() {
            push(stage, Clock::Wall, start, start.elapsed(), fields);
        }
    }
}

/// Enter a named stage span: `let _g = obs::span!("generate");` or
/// `let _g = obs::span!("generate", "frames" => n);` with integer
/// field values. The guard records on drop; bind it to a named variable
/// (`_g`), never `_`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        $crate::Span::enter($name, &[$(($k, $v as u64)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-wide: one test drives it start to finish so
    // no two tests install and drain it concurrently.
    #[test]
    fn sink_gates_recording_and_drains_one_trace() {
        // No sink: nothing records.
        {
            let _g = crate::span!("quiet");
            record_duration("quiet", Duration::from_micros(1), &[]);
        }
        assert_eq!(take_sink(), None);

        install_sink();
        {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner", "k" => 7usize);
            record_duration("download", Duration::from_micros(123), &[("bytes", 9)]);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = crate::span!("worker");
                });
            }
        });
        let trace = take_sink().expect("sink was installed");
        assert_eq!(take_sink(), None, "draining uninstalls the sink");
        if cfg!(feature = "obs-off") {
            assert!(trace.spans.is_empty());
            return;
        }
        let stage = |name: &str| trace.spans.iter().find(|s| s.stage == name).unwrap();
        let (outer, inner, dl) = (stage("outer"), stage("inner"), stage("download"));
        assert_eq!((outer.clock, inner.clock), (Clock::Wall, Clock::Wall));
        assert!(outer.start_ns <= inner.start_ns && inner.dur_ns <= outer.dur_ns);
        assert_eq!(inner.fields.iter().next(), Some(&("k", FieldValue::U64(7))));
        assert_eq!((dl.clock, dl.dur_ns), (Clock::Modelled, 123_000));
        assert_eq!(
            dl.fields.iter().next(),
            Some(&("bytes", FieldValue::U64(9)))
        );
        assert_eq!((outer.trace, outer.parent, outer.board), (0, 0, -1));
        // One lane per recording thread.
        let mut lanes: Vec<u32> = trace
            .spans
            .iter()
            .filter(|s| s.stage == "worker")
            .map(|s| s.shard)
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 4);
        assert!(!lanes.contains(&outer.shard));
    }
}
