//! Updating on-chip memory through partial reconfiguration.
//!
//! ```text
//! cargo run --example coefficient_update
//! ```
//!
//! The companion technique to JPG in the paper's milieu ("Efficient
//! Self-Reconfigurable Implementations Using On-Chip Memory", FPL 2000):
//! a DSP design keeps its coefficient tables in block RAM, and the host
//! retargets the filter by rewriting *only the BRAM content frames* — a
//! partial bitstream two orders of magnitude smaller than the full
//! configuration, generated directly from JBits calls with no CAD flow
//! run at all.

use bitstream::Interpreter;
use jbits::{Granularity, Jbits};
use simboard::port::download_time;
use virtex::bram::Side;
use virtex::{BramCoord, Device};

/// A "filter response" table: 256 16-bit coefficients.
fn coefficients(cutoff: u16) -> [u16; 256] {
    let mut t = [0u16; 256];
    for (i, v) in t.iter_mut().enumerate() {
        *v = if (i as u16) < cutoff {
            0xFFFF >> (i % 8)
        } else {
            0
        };
    }
    t
}

fn main() {
    let device = Device::XCV100;
    println!("Baseline configuration with low-pass coefficients in {device} BRAM…");
    let bram = BramCoord::new(Side::Left, 1);

    let mut jb = Jbits::new(device);
    assert!(jb.set_bram_contents(bram, &coefficients(64)));
    let full = jb.full_bitstream();
    println!(
        "  complete bitstream: {} bytes ({:?} download)",
        full.byte_len(),
        download_time(full.byte_len())
    );

    // Device configured with the baseline.
    let mut dev = Interpreter::new(device);
    dev.feed(&full).expect("configure");

    println!("\nHost retunes the filter three times:");
    for (k, cutoff) in [96u16, 160, 32].iter().enumerate() {
        jb.clear_dirty();
        assert!(jb.set_bram_contents(bram, &coefficients(*cutoff)));
        let partial = jb.partial_bitstream(Granularity::Frame);
        dev.feed(&partial).expect("partial reconfig");
        println!(
            "  update {}: cutoff {cutoff:3} -> partial of {:5} bytes ({:.2}% of full, {:?} download)",
            k + 1,
            partial.byte_len(),
            100.0 * partial.byte_len() as f64 / full.byte_len() as f64,
            download_time(partial.byte_len()),
        );
        // Verify the device really holds the new table (readback path).
        let check = Jbits::from_memory(dev.memory().clone());
        assert_eq!(check.get_bram_contents(bram), Some(coefficients(*cutoff)));
    }

    println!("\nCoefficient partials rewrite only the BRAM content frames —");
    println!("the logic fabric keeps running untouched while tables change.");
}
