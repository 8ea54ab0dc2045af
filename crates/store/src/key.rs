//! Canonical cache keys and the content digest they are addressed by.
//!
//! A [`CacheKey`] names one oracle answer: a specific architecture digest,
//! evaluated against a specific device digest, lowered by a specific
//! pipeline, by a specific backend, under a specific payload schema. The key has a fixed-width canonical byte
//! encoding ([`CacheKey::encode`]) so the on-disk format cannot drift with
//! struct layout, and a derived [`CacheKey::path_digest`] that the store's
//! index looks records up by.

use crate::bytes::{decode, digest128, DecodeError, Writer};

/// Version of the record payload schemas understood by this build.
///
/// Bump this whenever the byte encoding of any stored payload or of the
/// key itself changes; records written under a different version are
/// treated as misses.
///
/// * v1 — initial 35-byte key (arch, device, backend, schema).
/// * v2 — 43-byte key: adds the 8-byte pipeline digest (the canonical
///   pass-pipeline fingerprint), so lowering changes rotate the store.
pub const SCHEMA_VERSION: u16 = 2;

/// Width in bytes of [`CacheKey::encode`].
pub const ENCODED_KEY_LEN: usize = 43;

/// Which oracle backend produced (or is asked for) the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The closed-form analytic latency model (the payload is a full
    /// `AnalyzerReport`, which lives in the FPGA crate).
    Analytic,
    /// The cycle-accurate simulator (a single `f64` milliseconds payload).
    Simulated,
}

impl Backend {
    /// Stable one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            Backend::Analytic => 1,
            Backend::Simulated => 2,
        }
    }

    /// Inverse of [`Backend::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Backend::Analytic),
            2 => Some(Backend::Simulated),
            _ => None,
        }
    }
}

/// Canonical identity of one stored oracle answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Digest of the canonical architecture encoding (layers + input shape).
    pub arch_digest: u128,
    /// Digest of the canonical device/cluster encoding.
    pub device_digest: u128,
    /// Fingerprint of the pipeline that lowers the architecture to the
    /// stored answer (the canonical pipeline fingerprint).
    pub pipeline_digest: u64,
    /// Backend that owns the payload format.
    pub backend: Backend,
    /// Payload schema version the record was written under.
    pub schema_version: u16,
}

impl CacheKey {
    /// Builds a key under the current [`SCHEMA_VERSION`].
    pub fn new(
        arch_digest: u128,
        device_digest: u128,
        pipeline_digest: u64,
        backend: Backend,
    ) -> Self {
        CacheKey {
            arch_digest,
            device_digest,
            pipeline_digest,
            backend,
            schema_version: SCHEMA_VERSION,
        }
    }

    /// Fixed-width canonical encoding: `arch_digest` (16 LE bytes),
    /// `device_digest` (16 LE bytes), `pipeline_digest` (8 LE bytes),
    /// backend tag (1 byte), schema version (2 LE bytes).
    pub fn encode(&self) -> [u8; ENCODED_KEY_LEN] {
        let mut w = Writer::with_capacity(ENCODED_KEY_LEN);
        w.u128(self.arch_digest);
        w.u128(self.device_digest);
        w.u64(self.pipeline_digest);
        w.u8(self.backend.tag());
        w.u16(self.schema_version);
        w.into_bytes()
            .try_into()
            .expect("the key encodes to its fixed width")
    }

    /// Decodes a canonical key encoding; `None` on wrong length or tag.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        decode(bytes, |r| {
            Ok(CacheKey {
                arch_digest: r.u128()?,
                device_digest: r.u128()?,
                pipeline_digest: r.u64()?,
                backend: Backend::from_tag(r.u8()?)
                    .ok_or_else(|| DecodeError::Invalid("unknown backend tag".into()))?,
                schema_version: r.u16()?,
            })
        })
        .ok()
    }

    /// Digest of the canonical encoding; the store indexes records by it.
    pub fn path_digest(&self) -> u128 {
        digest128(&self.encode())
    }

    /// Lower-case hex rendering of [`CacheKey::path_digest`] (32 chars).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.path_digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let key = CacheKey::new(
            0x0123_4567_89ab_cdef_u128,
            u128::MAX - 7,
            0xdead_beef_0bad_cafe,
            Backend::Simulated,
        );
        let bytes = key.encode();
        assert_eq!(CacheKey::decode(&bytes), Some(key));
    }

    #[test]
    fn decode_rejects_bad_input() {
        let key = CacheKey::new(1, 2, 3, Backend::Analytic);
        let mut bytes = key.encode().to_vec();
        assert!(CacheKey::decode(&bytes[..ENCODED_KEY_LEN - 1]).is_none());
        bytes[40] = 99; // unknown backend tag
        assert!(CacheKey::decode(&bytes).is_none());
    }

    #[test]
    fn hex_renders_the_path_digest() {
        let key = CacheKey::new(42, 43, 44, Backend::Analytic);
        assert_eq!(key.hex().len(), 32);
        assert_eq!(u128::from_str_radix(&key.hex(), 16), Ok(key.path_digest()));
        assert_eq!(key.hex(), key.hex().to_lowercase());
    }

    #[test]
    fn digest_depends_on_every_field() {
        let base = CacheKey::new(1, 2, 3, Backend::Analytic);
        let arch = CacheKey::new(9, 2, 3, Backend::Analytic);
        let dev = CacheKey::new(1, 9, 3, Backend::Analytic);
        let pipeline = CacheKey::new(1, 2, 9, Backend::Analytic);
        let backend = CacheKey::new(1, 2, 3, Backend::Simulated);
        let version = CacheKey {
            schema_version: SCHEMA_VERSION + 1,
            ..base
        };
        let digests = [base, arch, dev, pipeline, backend, version].map(|k| k.path_digest());
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn digest128_is_length_sensitive() {
        assert_ne!(digest128(b""), digest128(b"\0"));
        assert_ne!(digest128(b"\0"), digest128(b"\0\0"));
        assert_ne!(digest128(b"ab"), digest128(b"ba"));
    }
}
