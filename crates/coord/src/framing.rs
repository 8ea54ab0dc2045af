//! Length-prefixed frames over a byte stream.
//!
//! One frame is `b"FNC1"` (magic) + payload length as a `u32` LE +
//! payload bytes. The magic catches a peer that is not speaking this
//! protocol at all (an HTTP probe, a stray telnet) before any payload is
//! trusted; the length cap bounds how much memory one connection can make
//! the coordinator allocate. Everything above frames —
//! [`crate::proto`] — is plain `io::Read`/`io::Write`, so the same codec
//! serves `TcpStream` in production and `Vec<u8>` cursors in tests.

use std::io::{self, Read, Write};

use fnas::FnasError;

/// Frame magic: protocol "FNC", wire revision 1.
pub const MAGIC: [u8; 4] = *b"FNC1";

/// Hard cap on one frame's payload (64 MiB). Checkpoints for paper-scale
/// runs are a few hundred KiB; anything near the cap is an error, not a
/// workload.
pub const MAX_FRAME: u32 = 64 << 20;

/// Payload bytes reserved before any arrive; beyond this the buffer grows
/// with the bytes received.
const PREALLOC: usize = 64 << 10;

fn corrupt(what: &str) -> FnasError {
    FnasError::InvalidConfig {
        what: format!("coord frame: {what}"),
    }
}

/// Writes `payload` as one frame.
///
/// # Errors
///
/// [`FnasError::InvalidConfig`] when `payload` exceeds [`MAX_FRAME`];
/// I/O errors from the underlying stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> fnas::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            corrupt(&format!(
                "payload of {} bytes exceeds the frame cap",
                payload.len()
            ))
        })?;
    w.write_all(&MAGIC)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// [`FnasError::InvalidConfig`] on a bad magic or an oversized length;
/// I/O errors (including EOF before the declared length) from the
/// underlying stream.
pub fn read_frame<R: Read>(r: &mut R) -> fnas::Result<Vec<u8>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(corrupt(&format!(
            "bad magic {magic:02x?} (peer is not speaking FNC1)"
        )));
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(corrupt(&format!(
            "declared payload of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    // Memory grows with the bytes that actually arrive, not with the
    // declared length: a header alone cannot make us reserve 64 MiB.
    let mut payload = Vec::with_capacity((len as usize).min(PREALLOC));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", &[0u8; 4096][..]] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            assert_eq!(&buf[..4], &MAGIC);
            let got = read_frame(&mut Cursor::new(&buf)).unwrap();
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"first");
        assert_eq!(read_frame(&mut cur).unwrap(), b"second");
    }

    #[test]
    fn bad_magic_is_rejected_before_any_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[0] = b'H'; // "HNC1" — an HTTP-ish probe
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn truncated_frames_surface_as_io_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_frame(&mut Cursor::new(&buf)).is_err());
    }
}
