//! FNV-1a and SplitMix64 for this crate and `fnas-fpga`, which sit below
//! `fnas_store::bytes` and its copy (`tests/codec_properties.rs` pins the
//! two equal).

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `state` ([`FNV_OFFSET`] for the
/// plain 64-bit hash).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// One SplitMix64 step: the golden-ratio increment, then the finaliser —
/// a bijective avalanche mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
