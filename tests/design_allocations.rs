//! FNAS-Design makes a bounded number of heap allocations per design.
//!
//! The tiling search visits every `⟨Tm, Tn⟩` pair a layer's DSP budget
//! allows, thousands of them per ImageNet design on a large device, and
//! the allocator does not scale that traffic across threads: with three
//! small `Vec`s per pair, a design at two search workers on a 2-vCPU VM
//! took 1.4–2.0× its single-thread time. A counting global allocator
//! checks that one design costs a fixed few allocator calls plus at most
//! two per layer (today 13 to 15 for 1 to 15 layers), and that the count
//! does not grow with the device's DSP budget, which sets how many pairs
//! the search visits.
//!
//! Calls are counted per thread, so the test harness's own threads do
//! not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fnas_fpga::design::PipelineDesign;
use fnas_fpga::device::FpgaDevice;
use fnas_fpga::layer::{ConvShape, Network};

struct Counting;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) this thread made.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count_call() {
    CALLS.with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the count is a thread-local `Cell` with a
// constant initialiser and no destructor, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls one design of `network` on `device` makes.
fn design_calls(network: &Network, device: &FpgaDevice) -> usize {
    let before = CALLS.with(Cell::get);
    let design = PipelineDesign::generate(network, device).expect("design");
    let calls = CALLS.with(Cell::get) - before;
    drop(design);
    calls
}

/// An ImageNet-space network: `layers` layers on the 48×48 reduced
/// ImageNet image, cycling through the space's kernels and filter counts.
fn imagenet_network(layers: usize) -> Network {
    let mut channels = 3;
    let shapes = (0..layers)
        .map(|i| {
            let filters = [16, 32, 64, 128][i % 4];
            let kernel = [3, 5, 7, 1][i % 4];
            let shape = ConvShape::square(channels, filters, 48, kernel).expect("shape");
            channels = filters;
            shape
        })
        .collect();
    Network::new(shapes).expect("chained channels")
}

#[test]
fn a_design_allocates_per_layer_not_per_candidate() {
    for layers in [1, 4, 8, 15] {
        let network = imagenet_network(layers);
        let small = design_calls(&network, &FpgaDevice::pynq());
        let large = design_calls(&network, &FpgaDevice::zu9eg());
        assert_eq!(
            small, large,
            "{layers} layers: pynq (220 DSPs) made {small} allocator calls, \
             zu9eg (2,520 DSPs) {large}"
        );
        assert!(
            large <= 16 + 2 * layers,
            "{layers} layers made {large} allocator calls"
        );
    }
}
