//! Measurement plumbing shared by the workloads: the span recorder the
//! traced run uses, the pass loop, and the small statistics the metrics
//! are made of.

use std::time::Instant;

/// One recorded span: a call from the benchmark into a layer's public
/// function. Spans of one operation share `(pass, op)`; the operation's
/// own `op` span is the parent — the cause — of every other span
/// carrying its id, probes that repeat its work outside its clock
/// included.
#[derive(Debug)]
struct Span {
    name: &'static str,
    pass: usize,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
    /// Work the call did, in the unit its metric names (bytes, writes).
    amount: u64,
}

/// In-memory span recorder. Switched off, `begin` returns `None` and
/// `end` records nothing, so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    pass: usize,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            pass: 0,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    pub fn end(&mut self, start: Option<Instant>, name: &'static str, op: u64, amount: u64) {
        if let Some(t) = start {
            self.spans.push(Span {
                name,
                pass: self.pass,
                op,
                start_ns: t.duration_since(self.origin).as_nanos() as u64,
                dur_ns: t.elapsed().as_nanos() as u64,
                amount,
            });
        }
    }

    /// Durations of every `name` span, in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Summed amount and summed seconds of every `name` span.
    pub fn totals(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(a, t), s| {
                (a + s.amount, t + s.dur_ns as f64 / 1e9)
            })
    }

    /// Median duration of `name` spans, ms (0 when none were recorded).
    pub fn p50_ms(&self, name: &str) -> f64 {
        median(&self.ms(name))
    }

    /// Throughput of `name` spans in MB/s of their amounts.
    pub fn mb_per_s(&self, name: &str) -> f64 {
        let (bytes, secs) = self.totals(name);
        ratio(bytes as f64 / 1e6, secs)
    }

    /// The spans as JSON lines; `parent` names the operation's root.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.name == "op" { "null" } else { "\"op\"" };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"pass\":{},\"op\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"amount\":{}}}\n",
                s.name, s.pass, s.op, parent, s.start_ns, s.dur_ns, s.amount
            ));
        }
        out
    }
}

/// Run passes for at least `seconds` of loop time and at least two
/// passes, so every run compares a repeated pass with the first. In a
/// traced run passes alternate untraced / traced, starting untraced, so
/// slow drift on the host lands on both sides of the overhead ratio.
/// Returns each pass's result with whether it was traced, or the first
/// pass's error.
pub fn run_passes<R>(
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> Result<R, String>,
) -> Result<Vec<(bool, R)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && out.len() % 2 == 1;
        tracer.set_on(traced);
        tracer.pass = out.len();
        out.push((traced, pass(tracer)?));
    }
    tracer.set_on(false);
    Ok(out)
}

/// Linear-interpolated quantile of `values` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Traced vs untraced throughput: how much slower the traced passes
/// ran, as a share of the traced rate.
pub fn trace_overhead(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0
}

/// FNV-1a/64 over a byte stream: the output fingerprints.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, words: &[u32]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64: the seeded generator every workload draws its inputs
/// from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The run's set-up timer. A workload sets up afresh before every pass
/// (and once before its checks), so its set-ups are spread over the
/// whole run and `setup_s` — their median — sees the same host as the
/// passes do.
#[derive(Debug, Default)]
pub struct SetupClock(Vec<f64>);

impl SetupClock {
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let out = f()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(out)
    }

    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that failed, did not verify or gave a wrong output.
    pub failed: u64,
    /// Failed checks, one line each (empty on a correct run).
    pub problems: Vec<String>,
    /// Metric values by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Worker threads the measured code ran on.
    pub workers: usize,
    /// Timed passes run.
    pub passes: usize,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}
