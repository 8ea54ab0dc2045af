//! The shared argv layer of the operator bins.
//!
//! `fnas-shard`, `fnas-coord` and `fnas-serve` all accept the same job
//! flags (`--preset`, `--device`, `--trials`, `--seed`, `--budget-ms`);
//! before this module each bin hand-rolled the same parse loop, so "the
//! same command line" was a convention, not a guarantee. Now every bin
//! that names a job calls [`JobSpec::from_args`], which splits argv into
//! the job flags (one canonical [`JobSpec`]) and the bin-specific rest —
//! a job parsed by any bin resolves byte-identically, which is what
//! makes job digests agree across processes (the digest `fnas-coord
//! serve` banners is the one `fnas-ckpt` reads from an `fnas-shard`
//! init). `fnas-worker` takes no job flags: each assignment carries the
//! job's canonical spec bytes.
//!
//! The low-level helpers ([`parse_num`], [`Args`], and [`write_line`] and
//! [`emit`] for stdout) are re-exported from `fnas-cliutil`, the
//! dependency-free crate the `fnas-store` bin (which sits *below* this
//! crate in the workspace graph) shares.

pub use fnas_cliutil::{emit, parse_num, write_line, Args};

use super::JobSpec;

/// The usage block for the shared job flags, for bins to embed.
pub const JOB_USAGE: &str = "\
  job        --preset <mnist|mnist-low-end|cifar10>  experiment preset (default mnist)
             --device <xc7z020|xc7a50t|zu9eg|pynq>   device model override
             --trials <N>      total trial budget
             --seed <N>        parent run seed (default config default)
             --budget-ms <X>   FNAS latency budget rL in ms (default 10)";

impl JobSpec {
    /// Parses the job flags out of `args`, returning the spec and the
    /// remaining (bin-specific) arguments in their original order.
    ///
    /// Defaults mirror the historical CLI defaults: preset `mnist`,
    /// `rL` = 10 ms, no overrides. The preset/device *names* are
    /// recorded as submitted and validated later by
    /// [`JobSpec::resolve`], so "unknown preset" errors read identically
    /// in every bin.
    ///
    /// # Errors
    ///
    /// The canonical messages of [`Args`]: `"--flag needs a value"` and
    /// `"--flag: bad value \"...\""`.
    pub fn from_args(args: &[String]) -> Result<(JobSpec, Vec<String>), String> {
        let mut spec = JobSpec::new("mnist").with_required_ms(Some(10.0));
        let mut rest = Vec::new();
        let mut a = Args::new(args);
        while let Some(flag) = a.next_flag() {
            match flag {
                "--preset" => spec.preset = a.value()?.to_string(),
                "--device" => spec.device = Some(a.value()?.to_string()),
                "--trials" => spec.trials = Some(a.num()?),
                "--seed" => spec.seed = Some(a.num()?),
                "--budget-ms" => spec.required_ms = Some(a.num()?),
                other => rest.push(other.to_string()),
            }
        }
        Ok((spec, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn splits_job_flags_from_bin_flags() {
        let args = strings(
            "--dir /tmp/x --preset cifar10 --trials 24 --shard 1/3 --seed 77 \
             --budget-ms 2.5 --device zu9eg --workers 0",
        );
        let (spec, rest) = JobSpec::from_args(&args).unwrap();
        assert_eq!(spec.preset(), "cifar10");
        assert_eq!(spec.trials(), Some(24));
        assert_eq!(spec.seed(), Some(77));
        assert_eq!(spec.required_ms(), Some(2.5));
        assert_eq!(spec.device(), Some("zu9eg"));
        assert_eq!(rest, strings("--dir /tmp/x --shard 1/3 --workers 0"));
    }

    #[test]
    fn defaults_mirror_the_historical_cli() {
        let (spec, rest) = JobSpec::from_args(&[]).unwrap();
        assert_eq!(spec, JobSpec::default());
        assert!(rest.is_empty());
    }

    /// The flag matrix: every job flag × {good, missing, malformed}
    /// produces the same outcome no matter which bin parses it, because
    /// there is exactly one parser. The error strings are pinned — they
    /// are part of the shared CLI contract.
    #[test]
    fn flag_matrix_pins_shared_behavior() {
        let cases: &[(&str, Result<(), &str>)] = &[
            ("--preset mnist", Ok(())),
            ("--preset", Err("--preset needs a value")),
            ("--device xc7a50t", Ok(())),
            ("--device", Err("--device needs a value")),
            ("--trials 12", Ok(())),
            ("--trials", Err("--trials needs a value")),
            ("--trials twelve", Err("--trials: bad value \"twelve\"")),
            ("--seed 7", Ok(())),
            ("--seed", Err("--seed needs a value")),
            ("--seed -1", Err("--seed: bad value \"-1\"")),
            ("--budget-ms 2.5", Ok(())),
            ("--budget-ms", Err("--budget-ms needs a value")),
            ("--budget-ms fast", Err("--budget-ms: bad value \"fast\"")),
        ];
        for (argv, expected) in cases {
            let got = JobSpec::from_args(&strings(argv));
            match expected {
                Ok(()) => assert!(got.is_ok(), "{argv:?}: {got:?}"),
                Err(msg) => assert_eq!(got.unwrap_err(), *msg, "{argv:?}"),
            }
        }
        // Unknown names parse (they are recorded as submitted) and fail
        // at resolve time with the message every bin shows verbatim.
        let (spec, _) = JobSpec::from_args(&strings("--preset tpu")).unwrap();
        assert_eq!(
            spec.resolve().unwrap_err().to_string(),
            "invalid fnas config: unknown preset \"tpu\""
        );
    }
}
