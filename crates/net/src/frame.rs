//! Length-prefixed framing over byte streams.
//!
//! Every frame is `u32-le length` followed by `length` payload bytes. The
//! durable log writes its records with [`write_frame`]/[`read_frame`];
//! the reactor transport puts the same format on its sockets with its own
//! nonblocking reassembly; the in-process transport ships unframed
//! payloads through channels (message boundaries come for free).

use crate::error::{NetError, NetResult};
use bytes::Bytes;
use std::io::{Read, Write};

/// Hard upper bound on a frame's payload; anything larger indicates
/// corruption or an attack and is rejected before allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one frame (length prefix + payload).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> NetResult<()> {
    if payload.len() > MAX_FRAME {
        return Err(NetError::FrameTooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame, returning its payload. A clean EOF before the length
/// prefix maps to [`NetError::Disconnected`].
pub fn read_frame<R: Read>(r: &mut R) -> NetResult<Bytes> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(NetError::Disconnected)
        }
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(NetError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Bytes::from(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world!").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(&read_frame(&mut cur).unwrap()[..], b"hello");
        assert_eq!(&read_frame(&mut cur).unwrap()[..], b"");
        assert_eq!(&read_frame(&mut cur).unwrap()[..], b"world!");
        assert!(matches!(read_frame(&mut cur), Err(NetError::Disconnected)));
    }

    #[test]
    fn oversized_frame_rejected_on_write_and_read() {
        let mut sink = Vec::new();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut sink, &huge),
            Err(NetError::FrameTooLarge(_))
        ));
        // A forged oversized length prefix is rejected before allocation.
        let mut forged = Vec::new();
        forged.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cur = Cursor::new(forged);
        assert!(matches!(
            read_frame(&mut cur),
            Err(NetError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn torn_frame_is_io_error_not_disconnect() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // prefix + 2 payload bytes
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(NetError::Io(_))));
    }
}
