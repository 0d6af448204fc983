//! `fleet_real`: real-fabric serving through `fleet::Fleet` over a
//! `ServingLibrary` of the Figure-4 library — 4 boards, compressed
//! wire, adaptive verify, 5% seeded port faults.
//!
//! The load is a closed loop of small rounds: each round is one
//! `Fleet::run` with one request per board, keys in Zipf(1.1) shares
//! over the 10 variants, every request driving its region's input pads,
//! pulsing reset and stepping the clock so its outputs can be checked.
//! Rounds stay small because all requests of one `Fleet::run` arrive at
//! virtual time 0, and a large batch would coalesce into a handful of
//! downloads. Every few rounds the library is rebased onto the same
//! image, which bumps the epoch so the store regenerates: writes beside
//! reads.
//!
//! A pass sets up afresh — library, freshly booted boards, re-seeded
//! fault injectors — and replays the same rounds, so every pass of a run
//! must produce the same outcomes; without the fresh boards the fleet
//! would soon hold every variant resident and stop downloading. Before
//! timing, the pass's requests are served on one fault-free board with
//! plain wire and full verify, and every pad output must match.

use crate::cad_swap::{base_design, fig4_regions, FIG4_SEED};
use crate::ledger::{self, Fnv, Measured, Rng, SetupClock, Tracer};
use fleet::{Fleet, FleetConfig, FleetError, Request, ServingLibrary, VerifyPolicy, WireFormat};
use jbits::Xhwif;
use simboard::{FabricModel, SimBoard};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use virtex::ConfigMemory;

const BOARDS: usize = 4;
const FAULT_RATE: f64 = 0.05;
const ZIPF_S: f64 = 1.1;
const ROUNDS: usize = 48;
const REBASE_EVERY: usize = 8;
const PROBES_PER_PASS: usize = 48;

struct Serving {
    library: Arc<ServingLibrary>,
    base: ConfigMemory,
    /// Input pad names per region (the base module's inputs).
    inputs: Vec<Vec<String>>,
    fleet: Fleet,
}

fn config() -> FleetConfig {
    FleetConfig {
        wire: WireFormat::Compressed,
        verify: VerifyPolicy::Adaptive,
        ..FleetConfig::default()
    }
}

/// The set-up: place and route the library, boot the boards, seed
/// their port faults.
fn set_up(seed: u64) -> Result<Serving, String> {
    let regions = fig4_regions();
    let base = base_design("fig4", virtex::Device::XCV100, &regions, FIG4_SEED)?;
    let catalogues: Vec<(String, Vec<cadflow::netlist::Netlist>)> = regions
        .iter()
        .map(|(prefix, _, variants)| (prefix.to_string(), variants.clone()))
        .collect();
    let library =
        Arc::new(ServingLibrary::build(&base, &catalogues, FIG4_SEED).map_err(|e| e.to_string())?);
    let inputs = regions
        .iter()
        .map(|(prefix, _, variants)| {
            variants[0]
                .inputs
                .iter()
                .map(|(name, _)| format!("{prefix}{name}"))
                .collect()
        })
        .collect();
    let mut fleet = Fleet::new(library.clone(), BOARDS, config()).map_err(|e| e.to_string())?;
    fleet.inject_faults(FAULT_RATE, seed);
    Ok(Serving {
        library,
        base: base.memory,
        inputs,
        fleet,
    })
}

/// The pass's rounds of `BOARDS` requests. The keys are the library's
/// variants in catalogue order with Zipf(1.1) shares of the pass, the
/// seed shuffling their order and drawing each request's pad drives and
/// clock count: the seed moves the sequence, never the mix.
fn rounds(serving: &Serving, seed: u64, rounds: usize) -> Vec<Vec<Request>> {
    let keys: Vec<(usize, usize)> = serving
        .library
        .regions()
        .iter()
        .enumerate()
        .flat_map(|(r, cat)| (0..cat.variants.len()).map(move |v| (r, v)))
        .collect();
    let n = rounds * BOARDS;
    let weights: Vec<f64> = (1..=keys.len())
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    // Largest-remainder rounding keeps the counts summing to `n`.
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = n - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    let mut picks: Vec<(usize, usize)> = keys
        .iter()
        .zip(&counts)
        .flat_map(|(&key, &c)| std::iter::repeat_n(key, c))
        .collect();
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut picks);
    picks
        .chunks(BOARDS)
        .enumerate()
        .map(|(round, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, &(region, variant))| Request {
                    id: (round * BOARDS + i) as u64,
                    region,
                    variant,
                    drive: serving.inputs[region]
                        .iter()
                        .map(|name| (name.clone(), rng.below(2) == 1))
                        .collect(),
                    reset: true,
                    clocks: 1 + rng.below(8) as u64,
                })
                .collect()
        })
        .collect()
}

/// Everything a pass must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Default)]
struct PassFacts {
    fingerprint: u64,
    requests: u64,
    served: u64,
    /// Per-request modelled port time (ns) and configuration bytes.
    port_ns: Vec<u64>,
    bytes: u64,
    readback_bytes: u64,
    makespan_ns: u64,
    store_hits: u64,
    downloads: u64,
    retries: u64,
    verify_escalations: u64,
    resident_hits: u64,
    coalesced: u64,
    virtual_p99_ns: u64,
}

struct PassRun {
    facts: PassFacts,
    outputs: HashMap<u64, Vec<(String, bool)>>,
    /// Wall time inside `Fleet::run`, and of the whole loop with the
    /// rebases, seconds.
    run_s: f64,
    loop_s: f64,
}

/// A shadow board and interpreter the traced run downloads each served
/// variant onto, to time the device-side layers the fleet keeps inside.
struct Shadow {
    board: SimBoard,
    interp: bitstream::Interpreter,
    /// Probes left in this pass: enough samples for the medians while
    /// keeping a traced run well inside its time limit.
    left: usize,
}

/// What the shadow downloads decoded, across the traced passes.
#[derive(Default)]
struct ShadowTotals {
    decoded_bytes: u64,
    container_bytes: u64,
    peak_buffer_words: usize,
}

fn pass(
    serving: &Serving,
    reqs: &[Vec<Request>],
    tr: &mut Tracer,
    m: &mut Measured,
    totals: &mut ShadowTotals,
) -> Result<PassRun, String> {
    let fleet = &serving.fleet;
    let mut shadow = if tr.is_on() {
        let mut board = SimBoard::new(serving.library.device());
        board
            .set_configuration(&serving.library.base_bitstream())
            .map_err(|e| e.to_string())?;
        Some(Shadow {
            board,
            interp: bitstream::Interpreter::with_memory(serving.base.clone()),
            left: PROBES_PER_PASS,
        })
    } else {
        None
    };
    let mut fp = Fnv::new();
    let mut facts = PassFacts::default();
    let mut outputs = HashMap::new();
    let (mut run_s, mut loop_s) = (0.0, 0.0);
    for (round, batch) in reqs.iter().enumerate() {
        let batch = batch.clone();
        let t = Instant::now();
        if round % REBASE_EVERY == 0 {
            serving.library.rebase(serving.base.clone());
        }
        let t_run = Instant::now();
        let report = fleet.run(batch);
        run_s += t_run.elapsed().as_secs_f64();
        loop_s += t.elapsed().as_secs_f64();
        tr.end(tr.is_on().then_some(t_run), "op", round as u64, 0);

        facts.makespan_ns += report.makespan.as_nanos() as u64;
        facts.served += report.served;
        for r in &report.responses {
            facts.requests += 1;
            facts.port_ns.push(r.port_time.as_nanos() as u64);
            facts.bytes += r.bytes;
            facts.store_hits += r.store_hit as u64;
            for v in [
                r.id,
                r.board as u64,
                r.attempts as u64,
                r.bytes,
                r.port_time.as_nanos() as u64,
            ] {
                fp.u64(v);
            }
            // Which of two same-key requests on different shards takes the
            // store miss depends on thread timing; the count does not.
            fp.bytes(&[
                r.resident_hit as u8,
                r.coalesced as u8,
                r.error.is_some() as u8,
            ]);
            for (_, bit) in &r.outputs {
                fp.bytes(&[*bit as u8]);
            }
            if r.error.is_some() {
                m.failed += 1;
            }
            outputs.insert(r.id, r.outputs.clone());
            if let Some(sh) = shadow.as_mut().filter(|sh| r.attempts > 0 && sh.left > 0) {
                sh.left -= 1;
                probe(
                    serving,
                    sh,
                    (r.region, r.variant),
                    round as u64,
                    tr,
                    m,
                    totals,
                );
            }
        }
    }
    let met = fleet.metrics();
    facts.readback_bytes = met.readback_bytes.get();
    facts.downloads = met.downloads.get();
    facts.retries = met.retries.get();
    facts.verify_escalations = met.verify_escalations.get();
    facts.resident_hits = met.resident_hits.get();
    facts.coalesced = met.coalesced.get();
    facts.virtual_p99_ns = met.e2e_latency.value_at_quantile(0.99).as_nanos() as u64;
    facts.fingerprint = fp.0;
    Ok(PassRun {
        facts,
        outputs,
        run_s,
        loop_s,
    })
}

/// Download `(region, variant)`'s base-free container onto the shadow:
/// the streaming apply alone, the board's whole configure-and-redecode,
/// and the fabric decode of the image it leaves.
fn probe(
    serving: &Serving,
    sh: &mut Shadow,
    (region, variant): (usize, usize),
    op: u64,
    tr: &mut Tracer,
    m: &mut Measured,
    totals: &mut ShadowTotals,
) {
    let (stored, _) = serving.library.resolve(region, variant);
    let stored = match stored {
        Ok(s) => s,
        Err(e) => return m.problems.push(format!("probe resolve: {e}")),
    };
    let container = &stored.wire_wholesale.bytes;
    let s = tr.begin();
    let applied = wire::apply_streaming(&mut sh.interp, container);
    let words = applied.as_ref().map(|a| a.words_applied).unwrap_or(0);
    tr.end(s, "wire.apply", op, words as u64 * 4);
    if let Ok(a) = &applied {
        totals.decoded_bytes += a.words_applied as u64 * 4;
        totals.container_bytes += container.len() as u64;
        totals.peak_buffer_words = totals.peak_buffer_words.max(a.peak_buffer_words);
    }
    let s = tr.begin();
    let configured = sh.board.set_configuration_wire(container);
    tr.end(s, "simboard.apply", op, container.len() as u64);
    let s = tr.begin();
    let decoded = FabricModel::decode(sh.board.port().interpreter().memory());
    tr.end(s, "simboard.fabric_decode", op, 0);
    m.check(
        applied.is_ok() && configured.is_ok() && decoded.is_ok(),
        || format!("shadow download of region {region} variant {variant} failed"),
    );
}

/// Resolve every key cold (right after a rebase) and warm again.
fn probe_store(serving: &Serving, tr: &mut Tracer) -> Result<(), FleetError> {
    tr.set_on(true);
    let keys = serving
        .library
        .regions()
        .iter()
        .enumerate()
        .flat_map(|(r, cat)| (0..cat.variants.len()).map(move |v| (r, v)));
    for (op, (r, v)) in keys.enumerate() {
        serving.library.rebase(serving.base.clone());
        for name in ["store.miss", "store.hit"] {
            let s = tr.begin();
            serving.library.resolve(r, v).0?;
            tr.end(s, name, op as u64, 0);
        }
    }
    tr.set_on(false);
    Ok(())
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut clock = SetupClock::default();
    let initial = clock.time(|| set_up(seed))?;
    let reqs = rounds(&initial, seed, if smoke { 2 } else { ROUNDS });

    // The oracle, which doubles as the warm-up: the same requests on one
    // fault-free board, plain wire, full readback verify.
    let oracle = Fleet::new(initial.library.clone(), 1, FleetConfig::default())
        .map_err(|e| e.to_string())?;
    let expected: HashMap<u64, Vec<(String, bool)>> = oracle
        .run(reqs.iter().flatten().cloned().collect())
        .responses
        .into_iter()
        .filter(|r| r.error.is_none())
        .map(|r| (r.id, r.outputs))
        .collect();

    let mut totals = ShadowTotals::default();
    let passes = ledger::run_passes(seconds, trace, tr, |tr| {
        let serving = clock.time(|| set_up(seed))?;
        pass(&serving, &reqs, tr, &mut m, &mut totals)
    })?;
    m.set("setup_s", clock.median_s());
    m.passes = passes.len();
    // `Fleet::run` schedules on one worker per core, up to one per board.
    m.workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(BOARDS));
    let first = &passes[0].1;
    m.attempted = first.facts.requests * passes.len() as u64;
    for (i, (_, p)) in passes.iter().enumerate().skip(1) {
        m.check(p.facts == first.facts, || {
            format!("pass {i} outcomes differ from pass 0")
        });
    }
    let wrong = first
        .outputs
        .iter()
        .filter(|(id, out)| expected.get(id) != Some(out))
        .count() as u64;
    m.check(wrong == 0, || {
        format!("{wrong} requests' pad outputs differ from the one-board replay")
    });
    m.failed += wrong * passes.len() as u64;

    let ops_per_s = |traced: bool| {
        ledger::median(
            &passes
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, p)| p.facts.served as f64 / p.loop_s)
                .collect::<Vec<_>>(),
        )
    };
    let untraced: Vec<&PassRun> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    m.set("ops_per_s", ops_per_s(false));

    let f = &first.facts;
    let n = f.requests as f64;
    let port_us: Vec<f64> = f.port_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    m.set("port_us_p50", ledger::median(&port_us));
    m.set("port_us_p99", ledger::quantile(&port_us, 0.99));
    m.set("port_bytes_per_op", (f.bytes + f.readback_bytes) as f64 / n);
    let virtual_rps = ledger::ratio(f.served as f64, f.makespan_ns as f64 / 1e9);
    m.set("virtual_req_per_s", virtual_rps);
    m.set("fail_share", m.failed as f64 / m.attempted as f64);
    m.set("store.hit_ratio", f.store_hits as f64 / n);
    m.set("sched.downloads", f.downloads as f64);
    m.set("sched.retries", f.retries as f64);
    m.set("sched.verify_escalations", f.verify_escalations as f64);
    m.set("sched.coalesced_share", f.coalesced as f64 / n);
    m.set("sched.resident_share", f.resident_hits as f64 / n);
    m.set("sched.virtual_p99_us", f.virtual_p99_ns as f64 / 1e3);
    m.set("sched.virtual_req_per_s", virtual_rps);
    let run_s: f64 = untraced.iter().map(|p| p.run_s).sum();
    let run_reqs = untraced.len() as f64 * n;
    m.set("sched.host_ns_per_req", run_s * 1e9 / run_reqs);

    if trace {
        probe_store(&initial, tr).map_err(|e| e.to_string())?;
        m.set(
            "obs.trace_overhead",
            ledger::trace_overhead(ops_per_s(false), ops_per_s(true)),
        );
        m.set(
            "simboard.fabric_decode_ms_p50",
            tr.p50_ms("simboard.fabric_decode"),
        );
        m.set("simboard.apply_ms_p50", tr.p50_ms("simboard.apply"));
        m.set(
            "simboard.downloads",
            tr.ms("simboard.fabric_decode").len() as f64,
        );
        m.set("store.miss_ms_p50", tr.p50_ms("store.miss"));
        m.set("wire.apply_mb_per_s", tr.mb_per_s("wire.apply"));
        m.set(
            "wire.ratio",
            ledger::ratio(totals.decoded_bytes as f64, totals.container_bytes as f64),
        );
        m.set("wire.peak_buffer_words", totals.peak_buffer_words as f64);
    }
    Ok(m)
}
