//! The byte layer under all nine on-disk and on-wire formats (DESIGN.md
//! §19): the [`Writer`]/[`Reader`] cursors, one checksummed [`frame`],
//! [`publish_atomic`], and the hashes. `fnas_exec::hash` holds the one
//! other copy of FNV-1a and SplitMix64, for the crates below this one.
//! Decoding is total, and a declared length can only reserve memory in
//! proportion to the bytes actually present.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The golden-ratio increment of SplitMix64.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// FNV-1a over `bytes`, continuing from `state` ([`FNV_OFFSET`] for the
/// plain 64-bit hash).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The frame checksum: plain 64-bit FNV-1a of `bytes`.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// The SplitMix64 finaliser alone: a bijective avalanche mix without the
/// golden-ratio increment.
pub fn finalize64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: the golden-ratio increment, then the finaliser.
pub fn mix64(z: u64) -> u64 {
    finalize64(z.wrapping_add(GOLDEN))
}

/// 128-bit non-cryptographic content digest: two multiplicative lanes
/// (FNV-1a, and the golden ratio as multiplier from another basis), each
/// length-finalised through [`mix64`]. Meant only for content addressing:
/// a collision degrades to a wrong-key miss (records embed the full key).
pub fn digest128(bytes: &[u8]) -> u128 {
    let len = bytes.len() as u64;
    let a = mix64(fnv1a(FNV_OFFSET, bytes) ^ len);
    let b = bytes.iter().fold(0x6c62_272e_07bb_0142_u64, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(GOLDEN | 1)
    });
    let b = mix64(b ^ len.wrapping_mul(GOLDEN));
    (u128::from(a) << 64) | u128::from(b)
}

/// Why a byte string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a field.
    Truncated,
    /// A declared element count cannot fit in the bytes that remain.
    Length(u64),
    /// A tag byte (bool, option, enum) outside its domain.
    Tag {
        /// What the tag selects.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length-prefixed string is not UTF-8.
    Utf8,
    /// Bytes remain after the last field.
    Trailing,
    /// A format-level check failed (bad magic, unknown version, ...).
    Invalid(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "unexpected end of payload"),
            DecodeError::Length(n) => write!(f, "implausible length {n}"),
            DecodeError::Tag { what, tag } => write!(f, "bad {what} tag {tag}"),
            DecodeError::Utf8 => write!(f, "string is not UTF-8"),
            DecodeError::Trailing => write!(f, "trailing bytes after payload"),
            DecodeError::Invalid(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian writer. Byte strings and strings carry a `u32` length
/// prefix; tags and bools are one byte, 0 or 1.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer(Vec::with_capacity(n))
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Appends `bytes` verbatim, without a length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Appends an `f32` as its IEEE bits.
    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an option: tag 0, or tag 1 followed by `put(value)`.
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Appends a `u32` length prefix and `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// Appends a string as length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader, the inverse of [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next `n` bytes, verbatim.
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.raw(N)?.try_into().expect("raw returns N bytes"))
    }

    /// An `f32` from its IEEE bits.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.u32().map(f32::from_bits)
    }

    /// An `f64` from its IEEE bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// A one-byte tag that must be 0 or 1; `what` names it in the error.
    pub fn tag(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::Tag { what, tag }),
        }
    }

    /// A bool written by [`Writer::bool`].
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        self.tag("bool")
    }

    /// An option written by [`Writer::opt`].
    pub fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        if self.tag("option")? {
            get(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A byte string written by [`Writer::bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()?;
        self.raw(n as usize)
    }

    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::Utf8)
    }

    /// A `u32` element count, bounded by the remaining bytes divided by
    /// `min_size`, the fewest bytes one element can encode to.
    pub fn count32(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        self.bound(u64::from(n), min_size)
    }

    /// A `u64` element count, bounded like [`Reader::count32`].
    pub fn count64(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        self.bound(n, min_size)
    }

    fn bound(&self, n: u64, min_size: usize) -> Result<usize, DecodeError> {
        if n > (self.remaining() / min_size.max(1)) as u64 {
            return Err(DecodeError::Length(n));
        }
        Ok(n as usize)
    }

    /// `n` elements read by `get`, reserving up front no more memory than
    /// the remaining bytes; past that the vector grows as elements decode.
    pub fn vec<T>(
        &mut self,
        n: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut out = Vec::with_capacity(n.min(self.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }
}

/// The fixed-width integers, written and read little-endian.
macro_rules! le_ints {
    ($($t:ident),*) => {
        impl Writer {
            $(
                #[doc = concat!("Appends a `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self, v: $t) {
                    self.raw(&v.to_le_bytes());
                }
            )*
        }

        impl Reader<'_> {
            $(
                #[doc = concat!("A `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self) -> Result<$t, DecodeError> {
                    self.array().map($t::from_le_bytes)
                }
            )*
        }
    };
}

le_ints!(u8, u16, u32, u64, u128);

/// Decodes `bytes` with `read`, which must consume all of them.
///
/// # Errors
///
/// Whatever `read` returns, or [`DecodeError::Trailing`].
pub fn decode<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = read(&mut r)?;
    if r.remaining() > 0 {
        return Err(DecodeError::Trailing);
    }
    Ok(value)
}

/// Frames `payload`: `magic | header | u32 payload len | payload |
/// FNV-1a-64 of everything before`.
pub fn frame(magic: &[u8], header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(magic.len() + header.len() + 4 + payload.len() + 8);
    w.raw(magic);
    w.raw(header);
    w.bytes(payload);
    let sum = checksum(&w.0);
    w.u64(sum);
    w.into_bytes()
}

/// A decoded frame's header and payload, borrowed from its input.
pub type Frame<'a> = (&'a [u8], &'a [u8]);

/// Decodes the frame (with a `header_len`-byte header) at the start of
/// `bytes` into `(header, payload)` and the bytes it spans; `None` on a
/// short buffer, wrong magic or bad checksum. Later bytes are not read.
pub fn frame_prefix<'a>(
    bytes: &'a [u8],
    magic: &[u8],
    header_len: usize,
) -> Option<(Frame<'a>, usize)> {
    let mut r = Reader::new(bytes);
    if r.raw(magic.len()).ok()? != magic {
        return None;
    }
    let header = r.raw(header_len).ok()?;
    let payload = r.bytes().ok()?;
    let body = bytes.len() - r.remaining();
    if r.u64().ok()? != checksum(&bytes[..body]) {
        return None;
    }
    Some(((header, payload), body + 8))
}

/// How many bytes the frame at the start of `bytes` spans, as far as the
/// bytes present tell: its declared length once the length field is in,
/// the shortest frame before that. `None` when `bytes` does not start
/// with `magic` (or, if shorter, with a prefix of it). Nothing is
/// checksummed.
pub fn frame_len_hint(bytes: &[u8], magic: &[u8], header_len: usize) -> Option<u64> {
    let head = magic.len().min(bytes.len());
    if bytes[..head] != magic[..head] {
        return None;
    }
    let at = magic.len() + header_len;
    let payload = bytes.get(at..at + 4).map_or(0, |len| {
        u32::from_le_bytes(len.try_into().expect("a four-byte slice"))
    });
    Some((at + 4 + 8) as u64 + u64::from(payload))
}

/// Decodes a frame that must span all of `bytes`; `None` on any defect,
/// trailing bytes included.
pub fn unframe<'a>(bytes: &'a [u8], magic: &[u8], header_len: usize) -> Option<Frame<'a>> {
    match frame_prefix(bytes, magic, header_len)? {
        (parts, used) if used == bytes.len() => Some(parts),
        _ => None,
    }
}

/// Prefix of [`publish_atomic`]'s in-flight files; one found later is an
/// abandoned partial write and may be deleted at any time.
pub const TMP_PREFIX: &str = ".tmp-";

/// Writes `bytes` to `path` so readers see the old file or the whole new
/// one: a unique `.tmp-<pid>-<n>` sibling is written, fsynced and renamed
/// over `path`, and removed if any step fails. The directory must exist.
///
/// # Errors
///
/// I/O errors from the create, write, fsync or rename.
pub fn publish_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no parent"))?;
    let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{TMP_PREFIX}{}-{unique}", std::process::id()));
    let published = fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_rejects_defects() {
        assert_eq!(Reader::new(&[1, 2]).u32(), Err(DecodeError::Truncated));
        let bad_bool = Reader::new(&[2]).bool().unwrap_err();
        assert_eq!(bad_bool.to_string(), "bad bool tag 2");
        let not_utf8 = [2, 0, 0, 0, 0xFF, 0xFE];
        assert_eq!(Reader::new(&not_utf8).str(), Err(DecodeError::Utf8));
        assert_eq!(decode(&[0, 0], |r| r.u8()), Err(DecodeError::Trailing));
        // Four bytes remain after the count: room for one u32, not two.
        let bytes = [2, 0, 0, 0, 9, 9, 9, 9];
        assert_eq!(Reader::new(&bytes).count32(4), Err(DecodeError::Length(2)));
        assert_eq!(Reader::new(&bytes).count32(2), Ok(2));
    }

    #[test]
    fn frame_len_hint_reads_the_declared_length() {
        let bytes = frame(b"MAGC", b"hd", b"payload");
        let hint = |b: &[u8]| frame_len_hint(b, b"MAGC", 2);
        assert_eq!(hint(&bytes), Some(bytes.len() as u64));
        // Before the length field is in, the shortest frame.
        assert_eq!(hint(&bytes[..2]), Some(4 + 2 + 4 + 8));
        assert_eq!(hint(&bytes[..9]), Some(4 + 2 + 4 + 8));
        assert_eq!(hint(&bytes[..10]), Some(bytes.len() as u64));
        assert_eq!(hint(b"MAX"), None);
        assert_eq!(hint(b"XAGC and more"), None);
    }

    #[test]
    fn publish_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("fnas-bytes-publish-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact");
        publish_atomic(&path, b"first").unwrap();
        publish_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        // A failed rename (the target is a directory) cleans up its tmp.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("child")).unwrap();
        assert!(publish_atomic(&blocked, b"x").is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
