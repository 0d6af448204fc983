//! Zero-allocation assertion for the fabric simulator's request loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator. After a
//! warm-up pass, what a served request does to a configured board —
//! drive an input pad, settle, step the clock, pulse reset — must not
//! touch the allocator: the simulator runs over dense wire indices and
//! owns its per-pass scratch buffers.
//!
//! This file holds exactly one test: the allocator count is global, so
//! a sibling test on another harness thread would pollute the window.

use cadflow::gen;
use jpg::workflow::{build_base, ModuleSpec};
use simboard::{FabricModel, FabricSim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use virtex::Device;
use xdl::Rect;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_fabric_sim_request_loop_is_allocation_free() {
    let modules = vec![ModuleSpec {
        prefix: "mod1/".into(),
        netlist: gen::counter("up", 4),
        region: Rect::new(0, 2, 15, 9),
    }];
    let base = build_base("alloc", Device::XCV50, &modules, 1).expect("base design");
    let model = FabricModel::decode(&base.memory).expect("decode");
    let inputs: Vec<_> = model
        .iobs
        .iter()
        .filter(|iob| iob.inbuf)
        .map(|iob| (iob.tile, iob.pad))
        .collect();
    let outputs: Vec<_> = model
        .iobs
        .iter()
        .filter(|iob| iob.outbuf)
        .map(|iob| (iob.tile, iob.pad))
        .collect();
    assert!(!inputs.is_empty() && !outputs.is_empty());
    let mut sim = FabricSim::new(model).expect("settles");

    // One served request: drive every input, settle, clock, read, reset.
    let request = |sim: &mut FabricSim, drive: bool| {
        for &(tile, pad) in &inputs {
            sim.set_pad(tile, pad, drive);
        }
        sim.settle().unwrap();
        for _ in 0..8 {
            sim.clock().unwrap();
        }
        let high = outputs
            .iter()
            .filter(|&&(tile, pad)| sim.get_pad(tile, pad))
            .count();
        sim.reset();
        high
    };

    // Warm-up, and the outputs the measured window must reproduce.
    let expected: Vec<usize> = [true, false].map(|d| request(&mut sim, d)).to_vec();
    assert!(expected[0] > 0, "the counter runs with its inputs high");

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10 {
        for (i, drive) in [true, false].into_iter().enumerate() {
            let high = request(&mut sim, drive);
            assert_eq!(high, expected[i], "steady-state output changed");
        }
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "warmed simulator allocated {delta} times");
}
