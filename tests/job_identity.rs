//! The job-identity contract (DESIGN.md §17), pinned.
//!
//! Two claims keep every layer honest about what a *job* is:
//!
//! 1. **The codec is injective.** Two [`JobSpec`]s share an encoding iff
//!    they are field-for-field the same submission — the property that
//!    makes "equal digests" mean "same search" (up to hash collisions).
//! 2. **The digest is pinned.** The committed constants below are the
//!    digests every `FNC1` request, WAL record and store namespace carry
//!    for these specs; silent codec or hash drift re-keys every artifact
//!    in the field and must fail CI, not pass quietly.

use fnas::job::{JobSpec, OracleBackend};
use proptest::prelude::*;

/// The digest of [`JobSpec::default`]. Changing the codec, the hash, or
/// the default spec moves this constant; that is a breaking change and
/// must look like one.
const PINNED_DEFAULT_DIGEST: u64 = 0x149B_8DF2_5625_52C6;

/// The digest of a fully-specified spec, covering every optional field's
/// encoding (device, rL, trials, seed, simulated backend).
const PINNED_FULL_DIGEST: u64 = 0x9727_4AF2_2809_961B;

fn full_spec() -> JobSpec {
    JobSpec::new("cifar-10")
        .with_device(Some("zu9eg".to_string()))
        .with_required_ms(Some(2.5))
        .with_trials(Some(24))
        .with_seed(Some(77))
        .with_backend(OracleBackend::Simulated)
}

#[test]
fn canonical_digests_are_pinned() {
    assert_eq!(
        JobSpec::default().job_digest(),
        PINNED_DEFAULT_DIGEST,
        "the default job re-keyed: every pre-v4 checkpoint, journal and \
         store namespace in the field changes identity"
    );
    assert_eq!(
        full_spec().job_digest(),
        PINNED_FULL_DIGEST,
        "the JobSpec codec or digest drifted for fully-specified specs"
    );
    // The digest is a pure function of the encoding.
    assert_eq!(
        JobSpec::decode(&full_spec().encode()).unwrap().job_digest(),
        PINNED_FULL_DIGEST
    );
}

/// The raw field tuple of a spec, with `rL` as IEEE-754 bits so NaN
/// payloads compare exactly the way the codec stores them.
type Parts = (
    String,
    Option<String>,
    Option<u64>,
    Option<usize>,
    Option<u64>,
    bool,
);

fn spec_of(p: &Parts) -> JobSpec {
    let mut spec = JobSpec::new(p.0.clone())
        .with_device(p.1.clone())
        .with_required_ms(p.2.map(f64::from_bits))
        .with_trials(p.3)
        .with_seed(p.4);
    if p.5 {
        spec = spec.with_backend(OracleBackend::Simulated);
    }
    spec
}

/// Name alphabet for generated preset/device strings.
const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";

fn string_of(indices: Vec<usize>) -> String {
    indices.into_iter().map(|i| CHARS[i] as char).collect()
}

/// The vendored proptest shim has no `option::of`/`any`, so options are
/// generated as a presence tag plus a value drawn from the full domain
/// (`rL` bits cover every `f64`, NaNs and infinities included).
fn arb_parts() -> impl Strategy<Value = Parts> {
    (
        prop::collection::vec(0usize..CHARS.len(), 0usize..=8),
        (
            0u8..2,
            prop::collection::vec(0usize..CHARS.len(), 1usize..=6),
        ),
        (0u8..2, 0u64..=u64::MAX),
        (0u8..2, 0usize..1_000_000),
        (0u8..2, 0u64..=u64::MAX),
        0u8..2,
    )
        .prop_map(|(p, (dt, d), (mt, m), (tt, t), (st, s), b)| {
            (
                string_of(p),
                (dt == 1).then(|| string_of(d)),
                (mt == 1).then_some(m),
                (tt == 1).then_some(t),
                (st == 1).then_some(s),
                b == 1,
            )
        })
}

proptest! {
    /// Round-trip and canonical re-encode for arbitrary specs, and
    /// injectivity: encodings agree exactly when the submissions do.
    #[test]
    fn codec_round_trips_and_is_injective(a in arb_parts(), b in arb_parts()) {
        let (sa, sb) = (spec_of(&a), spec_of(&b));
        let (ea, eb) = (sa.encode(), sb.encode());
        let back = JobSpec::decode(&ea).expect("canonical bytes decode");
        prop_assert_eq!(back.encode(), ea.clone(), "re-encode is canonical");
        prop_assert_eq!(a == b, ea == eb, "encodings must separate exactly the distinct specs");
        if ea != eb {
            prop_assert_ne!(sa.job_digest(), sb.job_digest(),
                "distinct specs collided (astronomically unlikely unless the digest broke)");
        }
    }
}
