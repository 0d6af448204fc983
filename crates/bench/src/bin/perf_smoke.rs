//! CI perf-smoke guard for the hot-path overhaul (E13): the pipelined
//! Figure-4 library build must stay comfortably faster than the serial
//! reference — a conservative floor, far below the measured speedup, so
//! scheduler noise on shared CI runners cannot flake the job. The
//! serial reference runs no parallel code (partial emission is serial),
//! so two workers already give a real speedup to measure; on a
//! one-worker host the check degrades to the byte-identity assertion
//! alone.

use bench::hotpath::{interleaved_medians, pipelined_library, serial_library, verify_identical};
use bench::{fig4_base, fig4_regions};
use std::process::ExitCode;

/// Well under the 1.5–2.0x measured on 2 cores (EXPERIMENTS.md E13).
const FLOOR: f64 = 1.3;
/// Interleaved serial/pipelined pairs; the median of each side is used.
const RUNS: usize = 7;

fn main() -> ExitCode {
    let base = fig4_base();
    let regions = fig4_regions();
    verify_identical(&base, &regions);
    println!("perf-smoke: serial and pipelined libraries byte-identical");

    let workers = rayon::current_num_threads();
    if workers < 2 {
        println!("perf-smoke: only {workers} worker(s); skipping speedup floor");
        return ExitCode::SUCCESS;
    }

    let (t_serial, t_pipe) = interleaved_medians(
        RUNS,
        || serial_library(&base, &regions),
        || pipelined_library(&base, &regions),
    );
    let speedup = t_serial.as_secs_f64() / t_pipe.as_secs_f64();
    println!(
        "perf-smoke: serial {t_serial:?}, pipelined {t_pipe:?} \
         -> {speedup:.2}x on {workers} workers (floor {FLOOR}x)"
    );
    if speedup < FLOOR {
        eprintln!("perf-smoke: FAIL - pipelined library build speedup below floor");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
