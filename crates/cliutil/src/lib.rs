//! Shared argv plumbing for the `fnas-*` operator CLIs.
//!
//! Every bin in the workspace (`fnas-shard`, `fnas-coord`, `fnas-worker`,
//! `fnas-store`, `fnas-ckpt`) takes the same shape of command line — a
//! subcommand followed by `--flag value` pairs — and until this crate
//! existed each one hand-rolled the same `value()` closure and
//! `parse_num` helper. They now share one implementation, so a flag
//! behaves identically no matter which bin parses it: a missing value is
//! always `"--flag needs a value"`, a malformed one is always
//! `"--flag: bad value \"...\""`.
//!
//! `fnas-coord`, `fnas-serve` and `fnas-store` also write stdout through
//! [`write_line`] and [`emit`]: a reader that leaves early
//! (`fnas-serve watch … | head -n 1`) ends the bin with exit 0, where
//! `println!` would panic with exit 101.
//!
//! This crate is deliberately dependency-free (it sits below both `fnas`
//! and `fnas-store` in the workspace graph). The job-aware layer — which
//! flags make up a search job, and how they resolve to a config — lives
//! above it in `fnas::job::cli`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Write};
use std::process::ExitCode;

/// Parses a flag's value with the canonical error message shared by
/// every bin: `"--flag: bad value \"...\""`.
///
/// # Errors
///
/// A human-readable message naming the flag and the rejected value.
pub fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad value {s:?}"))
}

/// A cursor over `--flag value` argument pairs.
///
/// Wraps the `while let Some(flag) = it.next()` loop every bin used to
/// write by hand: [`Args::next_flag`] yields the next flag, and
/// [`Args::value`] consumes its value with the canonical
/// `"--flag needs a value"` error.
#[derive(Debug)]
pub struct Args<'a> {
    items: &'a [String],
    at: usize,
    /// The flag most recently returned by [`Args::next_flag`], used to
    /// name the flag in `value()` errors.
    current: &'a str,
}

impl<'a> Args<'a> {
    /// A cursor at the start of `items`.
    pub fn new(items: &'a [String]) -> Self {
        Args {
            items,
            at: 0,
            current: "",
        }
    }

    /// The next flag, or `None` when the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.items.get(self.at)?;
        self.at += 1;
        self.current = flag;
        Some(flag)
    }

    /// The current flag's value.
    ///
    /// # Errors
    ///
    /// `"--flag needs a value"` when the arguments end before one.
    pub fn value(&mut self) -> Result<&'a str, String> {
        let value = self
            .items
            .get(self.at)
            .ok_or_else(|| format!("{} needs a value", self.current))?;
        self.at += 1;
        Ok(value)
    }

    /// The current flag's value parsed via [`parse_num`].
    ///
    /// # Errors
    ///
    /// Either helper's canonical message.
    pub fn num<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let flag = self.current;
        parse_num(flag, self.value()?)
    }
}

/// Writes `msg` and a newline to `out` and flushes it. `Ok(false)` means
/// the reader closed the pipe early (`… | grep -q`): it has what it
/// wanted, so the caller stops writing and exits 0.
///
/// # Errors
///
/// Any other write error.
pub fn write_line(out: &mut impl Write, msg: &str) -> io::Result<bool> {
    match writeln!(out, "{msg}").and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e),
    }
}

/// Writes a bin's closing `msg` with [`write_line`] and turns the outcome
/// into its exit code: written or the reader gone early is a success; any
/// other write error is reported on stderr as `<prog>: writing stdout:
/// <error>` and fails the exit.
pub fn emit(out: &mut impl Write, prog: &str, msg: &str) -> ExitCode {
    match write_line(out, msg) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{prog}: writing stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn walks_flag_value_pairs() {
        let items = strings(&["--trials", "12", "--seed", "7", "--keep-all"]);
        let mut args = Args::new(&items);
        assert_eq!(args.next_flag(), Some("--trials"));
        assert_eq!(args.num::<usize>(), Ok(12));
        assert_eq!(args.next_flag(), Some("--seed"));
        assert_eq!(args.value(), Ok("7"));
        assert_eq!(args.next_flag(), Some("--keep-all"));
        assert_eq!(args.next_flag(), None);
    }

    #[test]
    fn missing_and_malformed_values_use_the_canonical_messages() {
        let items = strings(&["--trials"]);
        let mut args = Args::new(&items);
        args.next_flag();
        assert_eq!(args.value(), Err("--trials needs a value".to_string()));

        let items = strings(&["--trials", "many"]);
        let mut args = Args::new(&items);
        args.next_flag();
        assert_eq!(
            args.num::<usize>(),
            Err("--trials: bad value \"many\"".to_string())
        );
        assert_eq!(
            parse_num::<u64>("--seed", "0x7"),
            Err("--seed: bad value \"0x7\"".to_string())
        );
    }

    /// A stdout whose reader is gone, or that fails some other way.
    struct Closed(io::ErrorKind);

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_is_a_clean_exit_and_other_write_errors_fail() {
        let mut out = Vec::new();
        assert_eq!(emit(&mut out, "fnas-x", "3 settlements"), ExitCode::SUCCESS);
        assert_eq!(out, b"3 settlements\n");
        let broken = io::ErrorKind::BrokenPipe;
        assert!(!write_line(&mut Closed(broken), "x").unwrap());
        assert_eq!(emit(&mut Closed(broken), "fnas-x", "x"), ExitCode::SUCCESS);
        let full = io::ErrorKind::StorageFull;
        assert!(write_line(&mut Closed(full), "x").is_err());
        assert_eq!(emit(&mut Closed(full), "fnas-x", "x"), ExitCode::FAILURE);
    }
}
