//! Versioned record framing with checksums.
//!
//! A record is one [`crate::bytes::frame`], fully self-describing, and a
//! pack is a run of them:
//!
//! ```text
//! magic "FNASTOR1"  (8 bytes, framing version baked in)
//! canonical key     (43 bytes, see [`CacheKey::encode`])
//! payload length    (u32 LE)
//! payload           (opaque backend bytes)
//! checksum          (u64 LE, FNV-1a over everything above)
//! ```
//!
//! Decoding is total: any defect — wrong magic, truncated frame, trailing
//! garbage, key mismatch, schema-version skew, checksum failure — yields
//! `None` (a cache miss), never a panic. The embedded key is compared
//! against the key the reader asked for, so even a path-digest collision or
//! a misplaced frame degrades to a miss.

use crate::bytes::{frame, unframe};
use crate::key::{CacheKey, ENCODED_KEY_LEN};

/// Magic prefix of every record file; the trailing digit is the framing
/// version.
pub const RECORD_MAGIC: [u8; 8] = *b"FNASTOR1";

/// Frames `payload` under `key` into record bytes.
pub fn encode_record(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    frame(&RECORD_MAGIC, &key.encode(), payload)
}

/// Unframes record bytes written for `key`, returning the payload.
///
/// Returns `None` on any framing defect or if the embedded key differs
/// from `key`.
pub fn decode_record(bytes: &[u8], key: &CacheKey) -> Option<Vec<u8>> {
    decode_any_record(bytes)
        .filter(|(embedded, _)| embedded == key)
        .map(|(_, payload)| payload)
}

/// Unframes record bytes without an expected key, returning the embedded
/// key and payload; [`decode_record`] then checks the key.
pub fn decode_any_record(bytes: &[u8]) -> Option<(CacheKey, Vec<u8>)> {
    let (key, payload) = unframe(bytes, &RECORD_MAGIC, ENCODED_KEY_LEN)?;
    Some((CacheKey::decode(key)?, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Backend;

    fn key() -> CacheKey {
        CacheKey::new(0xdead_beef, 0xfeed_f00d, 0x00c0_ffee, Backend::Analytic)
    }

    #[test]
    fn roundtrip_preserves_payload() {
        let payload = b"schedule bytes".to_vec();
        let bytes = encode_record(&key(), &payload);
        assert_eq!(decode_record(&bytes, &key()), Some(payload));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let bytes = encode_record(&key(), &[]);
        assert_eq!(decode_record(&bytes, &key()), Some(Vec::new()));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_record(&key(), b"payload");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_record(&bad, &key()).is_none(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_extension_are_misses() {
        let bytes = encode_record(&key(), b"payload");
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut], &key()).is_none());
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_record(&long, &key()).is_none());
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let bytes = encode_record(&key(), b"payload");
        let other = CacheKey::new(1, 2, 3, Backend::Simulated);
        assert!(decode_record(&bytes, &other).is_none());
        assert!(decode_any_record(&bytes).is_some());
    }
}
