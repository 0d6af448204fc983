//! Zero-allocation assertion for the pooled generation hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass (scratch buffers sized, per-call-site metric handles
//! initialized), the steady-state loop — mark dirty, collect dirty
//! frames, cache-filter, coalesce, generate pooled, recycle — must not
//! touch the allocator at all. The `bitgen_partial` span is compiled in
//! and live; with no span sink installed (how a repeated-generation
//! service runs) it records nothing and allocates nothing.
//!
//! This file holds exactly one test: the allocator count is global, so
//! a sibling test on another harness thread would pollute the window.

use bitstream::bitgen::{self, GenScratch};
use jpg::FrameCache;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use virtex::{ConfigMemory, Device};

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
fn pooled_generation_loop_is_allocation_free_at_steady_state() {
    let device = Device::XCV50;
    let base = ConfigMemory::new(device);
    let cache = FrameCache::new();
    cache.prime_frames(&base, 0..base.frame_count());

    let mut mem = base.clone();
    let mut scratch = GenScratch::new();
    let mut frames = Vec::new();
    let mut changed = Vec::new();
    let mut ranges = Vec::new();

    // The iteration under test: the repeated-partial-generation loop of
    // a reconfiguration service, every stage in its `_into`/pooled form.
    let mut iteration = |mem: &mut ConfigMemory, flip: bool| {
        for f in [3usize, 4, 5, 40, 41, 120] {
            mem.set_bit(f, 17, true);
            mem.set_bit(f, 63, flip);
        }
        frames.clear();
        mem.dirty_frames_into(&mut frames);
        changed.clear();
        cache.filter_changed_into(mem, frames.iter().copied(), &mut changed);
        bitgen::coalesce_frames_bridged_into(&mut changed, 2, &mut ranges);
        let bits = bitgen::partial_bitstream_pooled(mem, &ranges, &mut scratch);
        let bytes = bits.byte_len();
        scratch.recycle(bits);
        mem.clear_dirty();
        bytes
    };

    // Strictly alternate the second write so every iteration really
    // toggles frame content (a same-value `set_bit` marks nothing dirty).
    let mut flip = false;

    // Warm-up: size every recycled buffer, initialize metric handles.
    let mut expected = 0;
    for _ in 0..4 {
        flip = !flip;
        expected = iteration(&mut mem, flip);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10 {
        flip = !flip;
        let bytes = iteration(&mut mem, flip);
        assert_eq!(bytes, expected, "steady-state output changed size");
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state generation loop allocated {delta} times"
    );
}
