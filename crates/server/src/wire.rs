//! The framed wire format.
//!
//! Every message is one frame:
//!
//! ```text
//! +------+----------+----------+------------------+
//! | type | seq      | len      | payload          |
//! | u8   | u32 (BE) | u32 (BE) | len bytes        |
//! +------+----------+----------+------------------+
//! ```
//!
//! `type` identifies the message (see [`crate::proto`]); `seq` is the
//! client's request sequence number, echoed verbatim in the response so
//! clients can match replies; `len` bounds the payload. All multi-byte
//! integers are big-endian. Payload truncation, oversized frames, and
//! unknown type bytes surface as [`Error::Protocol`] with the stable
//! `protocol` error code.

use scidb_core::error::{Error, Result};
use std::io::{Read, Write};

/// Upper bound on one frame's payload (64 MiB): a malformed length prefix
/// must not drive an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Message type byte (see [`crate::proto`]).
    pub msg_type: u8,
    /// Request sequence number (echoed in responses).
    pub seq: u32,
    /// Message payload.
    pub payload: Vec<u8>,
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    if frame.payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(Error::protocol(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
            frame.payload.len()
        )));
    }
    let mut header = [0u8; 9];
    header[0] = frame.msg_type;
    header[1..5].copy_from_slice(&frame.seq.to_be_bytes());
    header[5..9].copy_from_slice(&(frame.payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    let mut header = [0u8; 9];
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(Error::protocol("connection closed mid-frame-header"));
        }
        filled += n;
    }
    let msg_type = header[0];
    let seq = u32::from_be_bytes([header[1], header[2], header[3], header[4]]);
    let len = u32::from_be_bytes([header[5], header[6], header[7], header[8]]);
    if len > MAX_FRAME_LEN {
        return Err(Error::protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        let n = r.read(&mut payload[filled..])?;
        if n == 0 {
            return Err(Error::protocol("connection closed mid-frame-payload"));
        }
        filled += n;
    }
    Ok(Some(Frame {
        msg_type,
        seq,
        payload,
    }))
}

/// The payload primitives and bounds-checked reader, shared with every
/// other encoder of the array image.
pub use scidb_core::codec::{put_f64, put_i64, put_str, put_u16, put_u32, put_u64, put_u8, Reader};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let frame = Frame {
            msg_type: 0x42,
            seq: 7,
            payload: b"hello".to_vec(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = &buf[..];
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, frame);
        // Clean EOF at the boundary.
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_frames_are_protocol_errors() {
        let frame = Frame {
            msg_type: 1,
            seq: 1,
            payload: vec![1, 2, 3, 4],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            let err = read_frame(&mut cursor).unwrap_err();
            assert_eq!(err.code().name(), "protocol", "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.push(1u8);
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
