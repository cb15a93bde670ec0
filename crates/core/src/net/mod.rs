//! Network serving: the `oracled` wire protocol, server, and client.
//!
//! This is the process boundary in front of the in-process serving layer
//! ([`crate::serve`]): a hand-rolled length-prefixed binary protocol over
//! `std::net` (no dependencies), a thread-per-connection server whose
//! batcher coalesces queued requests into the batch query API, and a
//! minimal blocking client.
//!
//! Three design commitments, in order:
//!
//! 1. **One hardened decoder.** Wire frames are the persisted-image frames
//!    of [`crate::persist`] with a different magic and a small length cap;
//!    the same header parser and the same bounds-checked payload cursor
//!    validate both. Any hardening fix lands in one place and covers bytes
//!    from disk and bytes from the socket alike.
//! 2. **Coalescing never changes answers.** The batch APIs are
//!    element-wise, so batching is purely an admission/latency policy;
//!    `oracle-loadgen --verify` asserts socket answers are bit-identical
//!    to an in-process replay.
//! 3. **Bounded memory under hostile input.** Frame lengths are validated
//!    against the cap before buffering, the request queue is bounded
//!    (overflow answers [`Response::Busy`]), and responses are bounded by
//!    the request cap.

mod client;
mod protocol;
mod server;
mod stats;

pub use client::Connection;
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, FrameReader,
    Request, Response, MAX_METRICS_TEXT, MAX_PAIRS_PER_REQUEST, MAX_PATH_POINTS, WIRE_FRAME_CAP,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use server::{Backend, OracleServer, ServeConfig};

use crate::persist::PersistError;
use std::io;

/// A client-side failure talking to an `oracled` server.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed.
    Io(io::Error),
    /// A frame or payload failed validation (shared decoder error).
    Frame(PersistError),
    /// The server closed the connection.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Frame(e) => write!(f, "protocol error: {e}"),
            NetError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            NetError::Disconnected => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<PersistError> for NetError {
    fn from(e: PersistError) -> Self {
        NetError::Frame(e)
    }
}
