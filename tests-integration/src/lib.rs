//! Cross-crate integration tests for the FNAS reproduction.
//!
//! The tests live in the repository-level `tests/` directory (wired up as
//! `[[test]]` targets in this package's manifest) and exercise the public
//! APIs of every crate in the workspace together. The library holds only
//! what several of them share: [`spawn_bounded`], the one way a test waits
//! for a thread.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Instant;

/// A thread whose result is awaited with a bound, so a thread that never
/// returns (a server whose wake-up was lost, say) fails its test, naming
/// the thread, instead of hanging the suite.
#[derive(Debug)]
pub struct Bounded<T> {
    name: String,
    result: mpsc::Receiver<T>,
}

/// Runs `f` on a thread called `name`.
///
/// # Panics
///
/// If the thread cannot be spawned.
pub fn spawn_bounded<T: Send + 'static>(
    name: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Bounded<T> {
    let name = name.into();
    let (tx, result) = mpsc::channel();
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn a test thread");
    Bounded { name, result }
}

impl<T> Bounded<T> {
    /// The thread's result, waiting until `deadline` at the latest.
    ///
    /// # Panics
    ///
    /// If the thread has not returned by `deadline`, or if it panicked.
    pub fn join_by(self, deadline: Instant) -> T {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.result.recv_timeout(wait) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => {
                panic!("thread {:?} did not return in time", self.name)
            }
            Err(RecvTimeoutError::Disconnected) => panic!("thread {:?} panicked", self.name),
        }
    }
}
