//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out at the end as a Chrome trace-event file (Perfetto opens it).
//!
//! A span carries its name, start, duration, thread and the span that
//! caused it. Spans opened on a thread with no open span of its own (the
//! engine's executor threads, the serve fleet) are parented to the
//! current root span, the repetition that caused them.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept in memory at most; later spans are counted, not stored.
const MAX_SPANS: usize = 2_000_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    tid: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static ROOT: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    root: bool,
}

fn open(name: &'static str, root: bool) -> Option<Guard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| ROOT.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    if root {
        ROOT.store(id, Ordering::SeqCst);
    }
    Some(Guard {
        id,
        parent,
        name,
        start: Instant::now(),
        root,
    })
}

/// Opens a span under this thread's innermost open span (or the root).
pub fn span(name: &'static str) -> Option<Guard> {
    open(name, false)
}

/// Opens a span that also parents spans from threads with none open.
pub fn root_span(name: &'static str) -> Option<Guard> {
    open(name, true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let start_ns =
            u64::try_from(self.start.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(at) = s.iter().rposition(|&id| id == self.id) {
                s.remove(at);
            }
        });
        if self.root {
            ROOT.store(self.parent, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns,
            dur_ns,
            tid: TID.with(|t| *t),
        };
        // A poisoned lock only means another recorder panicked mid-push;
        // the vector itself is always valid.
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Writes every recorded span to `path` in the Chrome trace-event JSON
/// format, with `provenance` as metadata, and returns `(spans written,
/// spans dropped)`.
pub fn write_chrome(path: &Path, provenance: &str) -> std::io::Result<(usize, u64)> {
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"displayTimeUnit\": \"ms\", \"otherData\": {{\"provenance\": \"{provenance}\"}}, \
         \"traceEvents\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()?;
    Ok((spans.len(), DROPPED.load(Ordering::Relaxed)))
}
