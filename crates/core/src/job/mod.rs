//! First-class job identity: the canonical [`JobSpec`] and its digest.
//!
//! A *job* is the tuple a user actually submits to the search system —
//! experiment preset, device model override, latency spec `rL`, trial
//! budget, parent seed, oracle backend. Before this module existed that
//! tuple lived as duplicated flag-parsing in three bins and implicit
//! defaults in [`SearchConfig`]; nothing below the argv layer could tell
//! one job from another. Now it is a value with:
//!
//! * a **canonical little-endian codec** ([`JobSpec::encode`] /
//!   [`JobSpec::decode`]) — the byte string that *is* the job's identity;
//!   two specs are equal iff their encodings are equal;
//! * a pinned **FNV-1a/SplitMix64 digest** ([`JobSpec::job_digest`]) over
//!   that encoding, built from the `fnas_store::bytes` hashes — the `u64` key the
//!   `FNC1` protocol, the coordinator's WAL and the store's job namespace
//!   all carry (`tests/job_identity.rs` pins one canonical digest so
//!   silent schema drift fails CI);
//! * a **resolver** ([`JobSpec::resolve`]) that turns the spec into the
//!   [`SearchConfig`] the engine runs, stamping the spec into the config
//!   so every checkpoint written downstream carries its job
//!   (`FNASCKPT` v4, DESIGN.md §17).
//!
//! What is keyed by what (DESIGN.md §17): `job_digest` identifies a
//! *submission* (cross-job isolation of checkpoints, journals, protocol
//! sessions); `fnas_store::CacheKey` identifies an *oracle question*
//! (arch × device × backend — deliberately job-agnostic so jobs share
//! warm latency answers); the coordinator's *epoch* identifies an
//! incarnation within one job.
//!
//! The [`cli`] submodule is the shared argv layer: every operator bin
//! parses the same job flags through [`JobSpec::from_args`], so a job
//! parsed by `fnas-shard`, `fnas-coord` or `fnas-worker` resolves
//! byte-identically.

pub mod cli;

use fnas_fpga::device::FpgaDevice;
use fnas_store::bytes::{decode, finalize64, fnv1a, DecodeError, Reader, Writer, GOLDEN};

use crate::experiment::ExperimentPreset;
use crate::search::SearchConfig;
use crate::{FnasError, Result};

/// Which latency oracle answers the job's hardware questions.
///
/// The search prices every child with the analyzer, so only
/// [`OracleBackend::Analytic`] resolves; [`OracleBackend::Simulated`]
/// keeps its codec tag so that encoded specs and their digests stay
/// stable, and [`JobSpec::resolve`] refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleBackend {
    /// The closed-form FNAS-Analyzer (Eq. 5) — the default.
    #[default]
    Analytic,
    /// The cycle-accurate simulator; no search runs on it.
    Simulated,
}

/// The canonical description of one search job.
///
/// Option fields are *overrides*: `None` means "the preset's default",
/// and is encoded distinctly from an explicit value — the spec records
/// what was submitted, not what it resolves to.
///
/// Equality is defined over the canonical encoding, so two specs compare
/// equal exactly when they share a [`JobSpec::job_digest`] preimage.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Canonical preset name ([`ExperimentPreset::name`]).
    preset: String,
    /// Device model override; `None` targets the preset's device.
    device: Option<String>,
    /// The required latency `rL` in ms; `None` is an accuracy-only NAS run.
    required_ms: Option<f64>,
    /// Trial-budget override.
    trials: Option<usize>,
    /// Parent run seed override.
    seed: Option<u64>,
    /// The latency oracle backend.
    backend: OracleBackend,
}

/// Codec version word leading every encoded spec.
const CODEC_VERSION: u32 = 1;

/// The digest's offset basis — a domain tag, so a job digest can never
/// collide-by-construction with the store's or the protocol's hashes.
const DIGEST_SEED: u64 = u64::from_le_bytes(*b"FNASJOB1");

impl JobSpec {
    /// A job over the named preset with every override unset and the
    /// analytic backend — an accuracy-only NAS job until
    /// [`JobSpec::with_required_ms`] arms the latency spec.
    pub fn new(preset: impl Into<String>) -> Self {
        JobSpec {
            preset: preset.into(),
            device: None,
            required_ms: None,
            trials: None,
            seed: None,
            backend: OracleBackend::Analytic,
        }
    }

    /// Sets (or clears) the required latency `rL` in milliseconds.
    #[must_use]
    pub fn with_required_ms(mut self, ms: Option<f64>) -> Self {
        self.required_ms = ms;
        self
    }

    /// Sets (or clears) the trial-budget override.
    #[must_use]
    pub fn with_trials(mut self, trials: Option<usize>) -> Self {
        self.trials = trials;
        self
    }

    /// Sets (or clears) the parent-seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: Option<u64>) -> Self {
        self.seed = seed;
        self
    }

    /// Sets (or clears) the device model override.
    #[must_use]
    pub fn with_device(mut self, device: Option<String>) -> Self {
        self.device = device;
        self
    }

    /// Sets the oracle backend.
    #[must_use]
    pub fn with_backend(mut self, backend: OracleBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The canonical preset name.
    pub fn preset(&self) -> &str {
        &self.preset
    }

    /// The device model override, if any.
    pub fn device(&self) -> Option<&str> {
        self.device.as_deref()
    }

    /// The required latency `rL` in ms, if this is an FNAS job.
    pub fn required_ms(&self) -> Option<f64> {
        self.required_ms
    }

    /// The trial-budget override, if any.
    pub fn trials(&self) -> Option<usize> {
        self.trials
    }

    /// The parent-seed override, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The oracle backend.
    pub fn backend(&self) -> OracleBackend {
        self.backend
    }

    /// The canonical little-endian encoding — the job's identity bytes.
    ///
    /// Layout: codec version `u32`; preset as `u32` length + UTF-8
    /// bytes; then tagged options (`u8` 0 = unset, 1 = set followed by
    /// the value): device string, `rL` as IEEE-754 bits, trials `u64`,
    /// seed `u64`; finally the backend tag `u8`. Every field is
    /// length-prefixed or fixed-width, so the encoding is injective:
    /// distinct specs never share bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32 + self.preset.len());
        w.u32(CODEC_VERSION);
        w.str(&self.preset);
        w.opt(self.device.as_deref(), Writer::str);
        w.opt(self.required_ms, Writer::f64);
        w.opt(self.trials, |w, t| w.u64(t as u64));
        w.opt(self.seed, Writer::u64);
        w.u8(match self.backend {
            OracleBackend::Analytic => 0,
            OracleBackend::Simulated => 1,
        });
        w.into_bytes()
    }

    /// Decodes a canonical encoding; `None` on any defect (wrong
    /// version, bad tag, non-UTF-8 string, truncation, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Option<JobSpec> {
        decode(bytes, |r| {
            let version = r.u32()?;
            if version != CODEC_VERSION {
                return Err(DecodeError::Invalid(format!("job codec version {version}")));
            }
            let string = |r: &mut Reader<'_>| r.str().map(str::to_string);
            Ok(JobSpec {
                preset: string(r)?,
                device: r.opt(string)?,
                required_ms: r.opt(Reader::f64)?,
                trials: r.opt(|r| {
                    let t = r.u64()?;
                    usize::try_from(t).map_err(|_| DecodeError::Length(t))
                })?,
                seed: r.opt(Reader::u64)?,
                backend: if r.tag("backend")? {
                    OracleBackend::Simulated
                } else {
                    OracleBackend::Analytic
                },
            })
        })
        .ok()
    }

    /// The pinned job digest: FNV-1a over [`JobSpec::encode`] from the
    /// `FNASJOB1` offset basis, length-finalized, then avalanched by the
    /// bare SplitMix64 finaliser ([`finalize64`] — unlike the lanes of
    /// `fnas_store::digest128`, without the golden-ratio increment of
    /// `mix64`). This is the `u64` stamped into `FNC1` requests, WAL
    /// `EpochStarted` records and the store's job namespace;
    /// `tests/job_identity.rs` pins one canonical value.
    pub fn job_digest(&self) -> u64 {
        let bytes = self.encode();
        let h = fnv1a(DIGEST_SEED, &bytes);
        finalize64(h.wrapping_add((bytes.len() as u64).wrapping_mul(GOLDEN)))
    }

    /// Resolves the spec into the [`SearchConfig`] the engine runs.
    ///
    /// Preset names accept both the canonical [`ExperimentPreset::name`]
    /// and the CLI aliases (`mnist-low-end`, `cifar10`); overrides are
    /// applied on top, and the spec itself is stamped into the config so
    /// everything written downstream carries this job's identity. Two
    /// equal specs resolve to configs that run byte-identically, no
    /// matter which bin parsed them.
    ///
    /// # Errors
    ///
    /// [`FnasError::InvalidConfig`] for an unknown preset or device name,
    /// or for the [`OracleBackend::Simulated`] backend, which no search
    /// runs on.
    pub fn resolve(&self) -> Result<SearchConfig> {
        if self.backend != OracleBackend::Analytic {
            return Err(FnasError::InvalidConfig {
                what: "the simulated oracle backend cannot run a search; \
                       children are priced by the analyzer"
                    .to_string(),
            });
        }
        let mut preset = preset_by_name(&self.preset)?;
        if let Some(t) = self.trials {
            preset = preset.with_trials(t);
        }
        if let Some(d) = &self.device {
            preset = preset.with_device(device_by_name(d)?);
        }
        let mut config = match self.required_ms {
            Some(ms) => SearchConfig::fnas(preset, ms),
            None => SearchConfig::nas(preset),
        };
        if let Some(s) = self.seed {
            config = config.with_seed(s);
        }
        Ok(config.with_job(self.clone()))
    }
}

impl PartialEq for JobSpec {
    /// Identity is the canonical encoding (so e.g. two NaN latency specs
    /// with the same bit pattern are one job, matching the digest).
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

impl Eq for JobSpec {}

impl Default for JobSpec {
    /// The pinned default job: the `mnist` preset under the historical
    /// 10 ms budget, no overrides, analytic backend. Pinned by
    /// `tests/job_identity.rs`.
    fn default() -> Self {
        JobSpec::new("mnist").with_required_ms(Some(10.0))
    }
}

impl std::fmt::Display for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.preset)?;
        if let Some(d) = &self.device {
            write!(f, " on {d}")?;
        }
        match self.required_ms {
            Some(ms) => write!(f, ", rL {ms} ms")?,
            None => write!(f, ", accuracy-only")?,
        }
        if let Some(t) = self.trials {
            write!(f, ", {t} trials")?;
        }
        if let Some(s) = self.seed {
            write!(f, ", seed {s}")?;
        }
        if self.backend == OracleBackend::Simulated {
            write!(f, ", simulated oracle")?;
        }
        Ok(())
    }
}

/// Resolves a preset name — canonical or CLI alias.
fn preset_by_name(name: &str) -> Result<ExperimentPreset> {
    match name {
        "mnist" => Ok(ExperimentPreset::mnist()),
        "mnist-low-end" | "mnist-7a50t" => Ok(ExperimentPreset::mnist_low_end()),
        "cifar10" | "cifar-10" => Ok(ExperimentPreset::cifar10()),
        "imagenet" => Ok(ExperimentPreset::imagenet()),
        other => Err(FnasError::InvalidConfig {
            what: format!("unknown preset {other:?}"),
        }),
    }
}

/// Resolves a device model name.
fn device_by_name(name: &str) -> Result<FpgaDevice> {
    match name {
        "xc7z020" => Ok(FpgaDevice::xc7z020()),
        "xc7a50t" => Ok(FpgaDevice::xc7a50t()),
        "zu9eg" => Ok(FpgaDevice::zu9eg()),
        "pynq" => Ok(FpgaDevice::pynq()),
        other => Err(FnasError::InvalidConfig {
            what: format!("unknown device {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> JobSpec {
        JobSpec::new("cifar-10")
            .with_device(Some("zu9eg".to_string()))
            .with_required_ms(Some(2.5))
            .with_trials(Some(24))
            .with_seed(Some(77))
            .with_backend(OracleBackend::Simulated)
    }

    #[test]
    fn codec_round_trips_every_field_shape() {
        for spec in [
            JobSpec::default(),
            JobSpec::new("mnist"),
            JobSpec::new("").with_required_ms(Some(f64::NAN)),
            full(),
        ] {
            let bytes = spec.encode();
            let back = JobSpec::decode(&bytes).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.encode(), bytes, "re-encode must be canonical");
        }
    }

    #[test]
    fn decode_is_total_over_defects() {
        let bytes = full().encode();
        assert!(JobSpec::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(JobSpec::decode(&long).is_none());
        let mut bad_version = bytes.clone();
        bad_version[0] = 9;
        assert!(JobSpec::decode(&bad_version).is_none());
        let mut bad_backend = bytes.clone();
        *bad_backend.last_mut().unwrap() = 7;
        assert!(JobSpec::decode(&bad_backend).is_none());
        // A corrupt string length must not allocate or panic.
        let mut bad_len = bytes;
        bad_len[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(JobSpec::decode(&bad_len).is_none());
        assert!(JobSpec::decode(&[]).is_none());
    }

    #[test]
    fn digest_separates_each_field() {
        let base = JobSpec::default();
        let variants = [
            base.clone(),
            base.clone().with_trials(Some(60)),
            base.clone().with_seed(Some(0)),
            base.clone().with_required_ms(Some(10.000001)),
            base.clone().with_required_ms(None),
            base.clone().with_device(Some("xc7z020".to_string())),
            base.clone().with_backend(OracleBackend::Simulated),
            JobSpec::new("cifar-10").with_required_ms(Some(10.0)),
        ];
        for i in 0..variants.len() {
            for j in (i + 1)..variants.len() {
                assert_ne!(
                    variants[i].job_digest(),
                    variants[j].job_digest(),
                    "specs {i} and {j} collide"
                );
            }
        }
    }

    #[test]
    fn resolve_applies_overrides_and_stamps_the_job() {
        let spec = JobSpec::new("mnist")
            .with_required_ms(Some(10.0))
            .with_trials(Some(12))
            .with_seed(Some(77));
        let config = spec.resolve().unwrap();
        assert_eq!(config.seed(), 77);
        assert_eq!(config.preset().trials(), 12);
        assert_eq!(
            config.mode().required_latency().map(|m| m.get()),
            Some(10.0)
        );
        assert_eq!(config.job(), &spec);

        // Aliases resolve to the same preset as the canonical name; the
        // digests still differ because the *submitted* names differ.
        let alias = JobSpec::new("mnist-low-end").resolve().unwrap();
        assert_eq!(alias.preset().name(), "mnist-7a50t");
        let nas = JobSpec::new("mnist").resolve().unwrap();
        assert!(nas.mode().required_latency().is_none());

        let device = JobSpec::new("mnist")
            .with_device(Some("zu9eg".to_string()))
            .resolve()
            .unwrap();
        assert_eq!(device.preset().device().name(), "zu9eg");

        assert!(JobSpec::new("tpu").resolve().is_err());
        assert!(JobSpec::new("mnist")
            .with_device(Some("asic".to_string()))
            .resolve()
            .is_err());
        // A job naming the simulated oracle would be searched with the
        // analyzer, so it is refused rather than run under a false name.
        assert!(matches!(
            spec.clone()
                .with_backend(OracleBackend::Simulated)
                .resolve(),
            Err(FnasError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn display_names_the_whole_spec() {
        assert_eq!(JobSpec::default().to_string(), "mnist, rL 10 ms");
        assert_eq!(
            full().to_string(),
            "cifar-10 on zu9eg, rL 2.5 ms, 24 trials, seed 77, simulated oracle"
        );
        assert_eq!(JobSpec::new("mnist").to_string(), "mnist, accuracy-only");
    }
}
