//! Networking and codec errors.

use std::fmt;

/// Errors from the wire codec and transports.
#[derive(Debug)]
pub enum NetError {
    /// The buffer ended before the value was fully decoded.
    Truncated,
    /// An enum discriminant or flag byte had an unknown value.
    BadTag(u8),
    /// A length prefix exceeded the configured maximum frame size.
    FrameTooLarge(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// No endpoint is bound at the destination address.
    Unroutable(String),
    /// The peer endpoint was closed.
    Disconnected,
    /// Underlying I/O error (TCP transport).
    Io(std::io::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated => write!(f, "buffer truncated mid-value"),
            NetError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            NetError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            NetError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            NetError::Unroutable(a) => write!(f, "no endpoint bound at {a}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Result alias for net operations.
pub type NetResult<T> = Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(NetError::Truncated.to_string().contains("truncated"));
        assert!(NetError::BadTag(0xFF).to_string().contains("0xff"));
        assert!(NetError::Unroutable("m1".into()).to_string().contains("m1"));
    }

    #[test]
    fn io_error_converts() {
        let e: NetError = std::io::Error::other("boom").into();
        assert!(matches!(e, NetError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
