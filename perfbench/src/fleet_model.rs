//! `fleet_model`: `fleet::simulate` on the model backend — 1k boards,
//! 8 regions × 32 variants, the built-in seeded Zipf/bursty open-loop
//! trace at its auto-sized ~80% load, 5% faults, compressed wire,
//! adaptive verify, one worker per core.
//!
//! The scheduler does almost all the host work and no CAD or fabric
//! code runs. The set-up generates the trace; each pass generates it
//! afresh and simulates it, so every pass must give the same outcomes,
//! and one extra pass at a single worker must too.

use crate::ledger::{self, Fnv, Measured, SetupClock, Tracer};
use fleet::sim::{simulate_trace, FleetSimSpec, SimReport};
use fleet::{VerifyPolicy, WireFormat};
use std::time::Instant;

const REQUESTS: usize = 100_000;

fn spec(seed: u64, workers: usize, smoke: bool) -> FleetSimSpec {
    FleetSimSpec {
        boards: if smoke { 50 } else { 1000 },
        workers,
        requests: if smoke { 2_000 } else { REQUESTS },
        regions: 8,
        variants: 32,
        fault_rate: 0.05,
        wire: WireFormat::Compressed,
        verify: VerifyPolicy::Adaptive,
        seed,
        ..FleetSimSpec::default()
    }
}

/// Everything a pass must reproduce exactly, at any worker count.
#[derive(Debug, Clone, PartialEq)]
struct PassFacts {
    fingerprint: u64,
    counts: [u64; 9],
    p99_ns: u64,
    throughput_rps: f64,
}

fn facts(r: &SimReport) -> PassFacts {
    let mut fp = Fnv::new();
    for o in &r.outcomes {
        for v in [
            o.id,
            o.board.map_or(u64::MAX, u64::from),
            o.attempts as u64,
            o.bytes,
            o.port_ns,
            o.started.ns(),
            o.completed.ns(),
        ] {
            fp.u64(v);
        }
        fp.bytes(&[o.served() as u8, o.store_hit as u8]);
    }
    PassFacts {
        fingerprint: fp.0,
        counts: [
            r.served,
            r.failed,
            r.rejected,
            r.shed,
            r.coalesced,
            r.resident_hits,
            r.downloads,
            r.retries,
            r.verify_escalations,
        ],
        p99_ns: r.p99.as_nanos() as u64,
        throughput_rps: r.throughput_rps,
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = spec(seed, workers, smoke);
    let mut clock = SetupClock::default();
    let trace_of = |spec: &FleetSimSpec| Ok(spec.trace_spec().generate());
    let requests = clock.time(|| trace_of(&spec))?;
    m.workers = workers;

    // The single-worker pass doubles as the warm-up before timing.
    let one = facts(&simulate_trace(
        &FleetSimSpec {
            workers: 1,
            ..spec.clone()
        },
        requests.clone(),
    ));
    let passes = ledger::run_passes(seconds, trace, tr, |tr| {
        let input = clock.time(|| trace_of(&spec))?;
        let t = Instant::now();
        let s = tr.begin();
        let report = simulate_trace(&spec, input);
        tr.end(s, "op", 0, report.outcomes.len() as u64);
        let wall = t.elapsed().as_secs_f64();
        Ok((facts(&report), wall))
    })?;
    m.set("setup_s", clock.median_s());
    m.passes = passes.len();
    m.attempted = (requests.len() * passes.len()) as u64;
    let first = &passes[0].1 .0;
    for (i, (_, (f, _))) in passes.iter().enumerate().skip(1) {
        m.check(f == first, || {
            format!("pass {i} outcomes differ from pass 0")
        });
    }
    m.check(&one == first, || {
        format!("outcomes at 1 worker differ from {workers} workers")
    });
    let [served, failed, rejected, shed, coalesced, resident, downloads, retries, escalations] =
        first.counts;
    m.check(failed + rejected + shed == 0, || {
        format!("{failed} failed, {rejected} rejected, {shed} shed")
    });
    m.failed = (requests.len() as u64 - served) * passes.len() as u64;

    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, (_, w))| *w)
            .collect()
    };
    let n = requests.len() as f64;
    let ops_per_s = |traced: bool| n / ledger::median(&walls(traced));
    m.set("ops_per_s", ops_per_s(false));
    m.set("fail_share", m.failed as f64 / m.attempted as f64);
    m.set(
        "sched.host_ns_per_req",
        ledger::median(&walls(false)) * 1e9 / n,
    );
    m.set("sched.downloads", downloads as f64);
    m.set("sched.retries", retries as f64);
    m.set("sched.verify_escalations", escalations as f64);
    m.set("sched.coalesced_share", coalesced as f64 / n);
    m.set("sched.resident_share", resident as f64 / n);
    m.set("sched.virtual_p99_us", first.p99_ns as f64 / 1e3);
    m.set("sched.virtual_req_per_s", first.throughput_rps);
    if trace {
        m.set(
            "obs.trace_overhead",
            ledger::trace_overhead(ops_per_s(false), ops_per_s(true)),
        );
    }
    Ok(m)
}
