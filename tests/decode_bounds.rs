//! Decoders of untrusted bytes allocate in proportion to the bytes they
//! actually hold, not to the lengths those bytes declare.
//!
//! A counting global allocator records the peak heap growth of each
//! decode. The counter is process-wide, so every case runs inside one
//! `#[test]` (the harness runs separate tests on concurrent threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use fnas::checkpoint::SearchCheckpoint;
use fnas::experiment::ExperimentPreset;
use fnas::search::{SearchConfig, ShardRunner};
use fnas_coord::framing::{read_frame, MAGIC, MAX_FRAME};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak heap growth it caused.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

#[test]
fn declared_lengths_do_not_drive_allocation() {
    // An FNC1 header declaring the largest legal payload, then EOF: the
    // reader must fail without reserving the declared 64 MiB.
    let mut wire = MAGIC.to_vec();
    wire.extend_from_slice(&MAX_FRAME.to_le_bytes());
    let (result, peak) = peak_growth(|| read_frame(&mut Cursor::new(&wire)));
    assert!(result.is_err(), "a frame cut short must not decode");
    assert!(peak < 1 << 20, "truncated frame peaked at {peak} bytes");

    // A 4 MiB checkpoint whose trial count claims more trials than its
    // remaining bytes could hold (`remaining`), or trials far smaller
    // than their in-memory size (`remaining / 24`). An init checkpoint
    // has no trials, so its last eight bytes are the trial count.
    let dir = std::env::temp_dir().join(format!("fnas-decode-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("init.ckpt");
    let config = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(8), 10.0).with_seed(5);
    ShardRunner::write_init(&config, &path).unwrap();
    let init = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        init[init.len() - 8..],
        [0u8; 8],
        "init checkpoints hold no trials"
    );
    const SIZE: usize = 4 << 20;
    let header = init.len() - 8;
    let remaining = (SIZE - header - 8) as u64;
    for count in [remaining, remaining / 24] {
        let mut crafted = init[..header].to_vec();
        crafted.extend_from_slice(&count.to_le_bytes());
        crafted.resize(SIZE, 0);
        let (result, peak) = peak_growth(|| SearchCheckpoint::from_bytes(&crafted));
        assert!(result.is_err(), "a crafted checkpoint must not decode");
        assert!(
            peak <= 2 * SIZE,
            "a {SIZE}-byte checkpoint claiming {count} trials peaked at {peak} bytes"
        );
    }
}
