//! Concurrent decodes over the shared per-device layout.
//!
//! `jbits::Layout::of` hands every session of a device the same layout,
//! whose tile windows fill lazily on first touch. This binary holds a
//! single test, so the XCV150 layout starts empty and the threads race
//! to fill the same slots; every thread must still decode exactly what
//! a single-threaded decode sees.

use jbits::Jbits;
use simboard::FabricModel;
use std::sync::Barrier;
use virtex::{
    ClbResource, ConfigMemory, Device, IobResource, LutId, MuxSetting, ResourceValue, SliceId,
    SliceResource,
};

/// One active slice and one enabled PIP in every CLB tile, one input pad
/// and one PIP in every IOB tile: decode touches every window.
fn busy_image(device: Device) -> ConfigMemory {
    let mut jb = Jbits::new(device);
    let graph = virtex::RoutingGraph::new(device);
    for (i, tile) in virtex::grid::clb_tiles(device).enumerate() {
        jb.set_lut(tile, SliceId::S0, LutId::F, i as u16);
        jb.set(
            tile,
            ClbResource::new(SliceId::S0, SliceResource::FxMux),
            ResourceValue::new(MuxSetting::Primary.encode(), 2),
        );
        assert!(jb.set_pip(&graph.tile_pips(tile)[0], true));
    }
    for tile in virtex::grid::iob_tiles(device) {
        jb.set_iob(tile, 1, IobResource::InputEnable, ResourceValue::bit(true));
        assert!(jb.set_pip(&graph.tile_pips(tile)[0], true));
    }
    jb.into_memory()
}

#[test]
fn racing_decodes_match_a_single_threaded_decode() {
    const THREADS: usize = 4;
    let mem = busy_image(Device::XCV150);
    let barrier = Barrier::new(THREADS);
    let models: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    format!("{:?}", FabricModel::decode(&mem).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let single = FabricModel::decode(&mem).unwrap();
    let g = Device::XCV150.geometry();
    assert_eq!(single.slices.len(), g.clb_rows * g.clb_cols);
    assert_eq!(single.iobs.len(), 2 * (g.clb_rows + g.clb_cols));
    for model in &models {
        assert_eq!(model, &format!("{single:?}"));
    }
}
