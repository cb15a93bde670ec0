//! Wire protocol for `oracled`: length-prefixed binary frames carrying
//! distance / path / metrics / shutdown requests and their responses.
//!
//! A wire frame is **exactly** the persisted-image frame of [`crate::persist`]
//! — magic, version, declared payload length, payload, FNV-1a checksum —
//! written by the same `framed` and validated by the same
//! `parse_frame_header`/`read_framed` pair, just with a wire-specific magic
//! ([`WIRE_MAGIC`]) and a much smaller length cap ([`WIRE_FRAME_CAP`]).
//! Sharing one decoder means every hardening rule the image loader obeys
//! (length validated before allocation, counts validated against remaining
//! bytes, checksum over the payload) holds for bytes from the socket too.
//!
//! Payload layout (all integers little-endian, matching the image format):
//!
//! | frame | payload |
//! |---|---|
//! | request  | `kind: u8`, `id: u64`, kind-specific body |
//! | response | `kind: u8`, `id: u64` (echo), kind-specific body |
//!
//! The `id` is an opaque client-chosen token echoed verbatim on the
//! response, so a client may pipeline requests and match answers even
//! though coalescing can reorder completion across connections.

// lint: query-path

use crate::persist::{framed, parse_frame_header, read_framed, Cursor, PersistError};

/// Magic for wire frames (`SEWF`, "space-efficient wire frame") —
/// deliberately distinct from the image magics so an oracle image piped at
/// the daemon (or a wire capture fed to the image loader) fails fast with
/// `BadMagic` instead of being misparsed.
pub const WIRE_MAGIC: [u8; 4] = *b"SEWF";

/// Wire protocol version; bumped on any frame- or payload-layout change.
/// Version 2 added the `Metrics` verb (request kind 5, response kind 7);
/// version 3 retired the `Stats` verb, whose kind bytes (request 3,
/// response 5) are never reused.
pub const WIRE_VERSION: u32 = 3;

/// Hard cap on a wire frame's declared payload length. Anything larger is
/// rejected from the 16-byte header alone — before a single payload byte
/// is buffered — so a hostile length field costs the peer nothing.
pub const WIRE_FRAME_CAP: u64 = 1 << 20;

/// Most pairs a single distance request may carry. Chosen so a maximal
/// request (13 + 8·n bytes) and its response (13 + 8·n bytes) both fit
/// [`WIRE_FRAME_CAP`] with room to spare.
pub const MAX_PAIRS_PER_REQUEST: usize = 65_536;

/// Most polyline points a [`Response::Path`] may carry: the largest `n`
/// for which the encoded payload (`kind: u8`, `id: u64`, `distance: f64`,
/// `count: u32`, then 24 bytes per point — 21 + 24·n) still fits
/// [`WIRE_FRAME_CAP`]. A longer polyline would frame fine on the server
/// but be rejected by the peer's [`FrameReader`] as `FrameTooLarge`,
/// killing the connection over a legitimate answer — so the server bounds
/// it at the source and answers [`ErrorCode::PathTooLong`] instead.
pub const MAX_PATH_POINTS: usize = (WIRE_FRAME_CAP as usize - 21) / 24;

/// Longest metrics exposition a [`Response::Metrics`] may carry; longer
/// texts are truncated at the encoder so the frame always fits
/// [`WIRE_FRAME_CAP`] (21 bytes of framing + payload header around it).
pub const MAX_METRICS_TEXT: usize = WIRE_FRAME_CAP as usize / 2;

const REQ_DISTANCE: u8 = 1;
const REQ_PATH: u8 = 2;
const REQ_SHUTDOWN: u8 = 4;
const REQ_METRICS: u8 = 5;

const RESP_DISTANCES: u8 = 1;
const RESP_PATH: u8 = 2;
const RESP_BUSY: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_SHUTTING_DOWN: u8 = 6;
const RESP_METRICS: u8 = 7;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Batch distance query: answer every `(s, t)` pair, in order.
    Distance {
        /// Client-chosen token echoed on the response.
        id: u64,
        /// Site-id pairs to answer.
        pairs: Vec<(u32, u32)>,
    },
    /// Shortest-path query for one pair (requires a path-enabled image).
    Path {
        /// Client-chosen token echoed on the response.
        id: u64,
        /// Source site id.
        s: u32,
        /// Target site id.
        t: u32,
    },
    /// Ask for the server's metrics registry in text exposition format:
    /// every counter the server keeps leaves through this verb.
    Metrics {
        /// Client-chosen token echoed on the response.
        id: u64,
    },
    /// Control verb: stop accepting work, drain in-flight batches, exit.
    Shutdown {
        /// Client-chosen token echoed on the response.
        id: u64,
    },
}

/// Why a request was answered with [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or payload failed to decode.
    BadRequest,
    /// A site id was outside `0..n_sites`.
    SiteOutOfRange,
    /// The backend's image is corrupt (a checksum-valid but hostile image
    /// can still violate the oracle's structural invariants).
    CorruptImage,
    /// The verb is not supported by this backend (e.g. `Path` against an
    /// image built without a path index).
    Unsupported,
    /// The server is draining and no longer admits new work.
    ShuttingDown,
    /// The answer polyline exceeds [`MAX_PATH_POINTS`], so its encoding
    /// would not fit a wire frame; the distance-only `Distance` verb still
    /// works for the pair.
    PathTooLong,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::SiteOutOfRange => 2,
            ErrorCode::CorruptImage => 3,
            ErrorCode::Unsupported => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::PathTooLong => 6,
        }
    }

    fn from_wire(b: u8) -> Result<Self, PersistError> {
        Ok(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::SiteOutOfRange,
            3 => ErrorCode::CorruptImage,
            4 => ErrorCode::Unsupported,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::PathTooLong,
            _ => return Err(PersistError::Corrupt("unknown error code")),
        })
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answers for a [`Request::Distance`], in request order.
    Distances {
        /// Echo of the request id.
        id: u64,
        /// One distance per requested pair, bit-identical to the
        /// in-process batch API on the same image.
        distances: Vec<f64>,
    },
    /// Answer for a [`Request::Path`].
    Path {
        /// Echo of the request id.
        id: u64,
        /// The oracle's ε-approximate distance for the pair.
        distance: f64,
        /// On-surface polyline as `(x, y, z)` points.
        points: Vec<(f64, f64, f64)>,
    },
    /// Backpressure: the bounded queue is full; retry later.
    Busy {
        /// Echo of the request id.
        id: u64,
        /// Queue depth at rejection time.
        queue_depth: u32,
    },
    /// The request failed; the connection stays usable unless the frame
    /// itself was malformed.
    Error {
        /// Echo of the request id (0 when the frame never decoded far
        /// enough to carry one).
        id: u64,
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Registry snapshot for a [`Request::Metrics`].
    Metrics {
        /// Echo of the request id.
        id: u64,
        /// Text exposition of the server's metrics registry, followed by
        /// the tile store's registry for an out-of-core atlas
        /// ([`obs::Registry::expose`] output), truncated at
        /// [`MAX_METRICS_TEXT`] bytes.
        text: String,
    },
    /// Acknowledgement of a [`Request::Shutdown`]; queued answers still
    /// drain before the server exits.
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
}

fn put_u32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(v: &mut Vec<u8>, x: f64) {
    v.extend_from_slice(&x.to_le_bytes());
}

/// Encodes a request as a complete wire frame, ready to write to a socket.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    match req {
        Request::Distance { id, pairs } => {
            p.push(REQ_DISTANCE);
            put_u64(&mut p, *id);
            put_u32(&mut p, pairs.len() as u32);
            for &(s, t) in pairs {
                put_u32(&mut p, s);
                put_u32(&mut p, t);
            }
        }
        Request::Path { id, s, t } => {
            p.push(REQ_PATH);
            put_u64(&mut p, *id);
            put_u32(&mut p, *s);
            put_u32(&mut p, *t);
        }
        Request::Metrics { id } => {
            p.push(REQ_METRICS);
            put_u64(&mut p, *id);
        }
        Request::Shutdown { id } => {
            p.push(REQ_SHUTDOWN);
            put_u64(&mut p, *id);
        }
    }
    framed(WIRE_MAGIC, WIRE_VERSION, p)
}

/// Decodes a request payload (the bytes inside an already-validated
/// frame). Every count is validated against the remaining input before it
/// drives an allocation — the same discipline as the image loaders.
pub fn decode_request(payload: &[u8]) -> Result<Request, PersistError> {
    let mut c = Cursor { buf: payload, at: 0 };
    let kind = c.u8()?;
    let id = c.u64()?;
    let req = match kind {
        REQ_DISTANCE => {
            let n = c.u32()? as usize;
            if n > MAX_PAIRS_PER_REQUEST {
                return Err(PersistError::Corrupt("distance request exceeds pair cap"));
            }
            if n > c.remaining() / 8 {
                return Err(PersistError::Corrupt("truncated distance request"));
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let s = c.u32()?;
                let t = c.u32()?;
                pairs.push((s, t));
            }
            Request::Distance { id, pairs }
        }
        REQ_PATH => {
            let s = c.u32()?;
            let t = c.u32()?;
            Request::Path { id, s, t }
        }
        REQ_METRICS => Request::Metrics { id },
        REQ_SHUTDOWN => Request::Shutdown { id },
        _ => return Err(PersistError::Corrupt("unknown request kind")),
    };
    if c.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes after request"));
    }
    Ok(req)
}

/// Encodes a response as a complete wire frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    match resp {
        Response::Distances { id, distances } => {
            p.push(RESP_DISTANCES);
            put_u64(&mut p, *id);
            put_u32(&mut p, distances.len() as u32);
            for &d in distances {
                put_f64(&mut p, d);
            }
        }
        Response::Path { id, distance, points } => {
            p.push(RESP_PATH);
            put_u64(&mut p, *id);
            put_f64(&mut p, *distance);
            put_u32(&mut p, points.len() as u32);
            for &(x, y, z) in points {
                put_f64(&mut p, x);
                put_f64(&mut p, y);
                put_f64(&mut p, z);
            }
        }
        Response::Busy { id, queue_depth } => {
            p.push(RESP_BUSY);
            put_u64(&mut p, *id);
            put_u32(&mut p, *queue_depth);
        }
        Response::Error { id, code, message } => {
            p.push(RESP_ERROR);
            put_u64(&mut p, *id);
            p.push(code.to_wire());
            let msg = message.as_bytes();
            let take = msg.len().min(1024);
            put_u32(&mut p, take as u32);
            p.extend_from_slice(&msg[..take]);
        }
        Response::Metrics { id, text } => {
            p.push(RESP_METRICS);
            put_u64(&mut p, *id);
            let bytes = text.as_bytes();
            let take = bytes.len().min(MAX_METRICS_TEXT);
            put_u32(&mut p, take as u32);
            p.extend_from_slice(&bytes[..take]);
        }
        Response::ShuttingDown { id } => {
            p.push(RESP_SHUTTING_DOWN);
            put_u64(&mut p, *id);
        }
    }
    framed(WIRE_MAGIC, WIRE_VERSION, p)
}

/// Decodes a response payload, with the same count-before-allocation
/// validation as [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, PersistError> {
    let mut c = Cursor { buf: payload, at: 0 };
    let kind = c.u8()?;
    let id = c.u64()?;
    let resp = match kind {
        RESP_DISTANCES => {
            let n = c.u32()? as usize;
            if n > c.remaining() / 8 {
                return Err(PersistError::Corrupt("truncated distance response"));
            }
            let mut distances = Vec::with_capacity(n);
            for _ in 0..n {
                distances.push(c.f64()?);
            }
            Response::Distances { id, distances }
        }
        RESP_PATH => {
            let distance = c.f64()?;
            let n = c.u32()? as usize;
            if n > c.remaining() / 24 {
                return Err(PersistError::Corrupt("truncated path response"));
            }
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let x = c.f64()?;
                let y = c.f64()?;
                let z = c.f64()?;
                points.push((x, y, z));
            }
            Response::Path { id, distance, points }
        }
        RESP_BUSY => Response::Busy { id, queue_depth: c.u32()? },
        RESP_ERROR => {
            let code = ErrorCode::from_wire(c.u8()?)?;
            let n = c.u32()? as usize;
            if n > c.remaining() {
                return Err(PersistError::Corrupt("truncated error message"));
            }
            let message = String::from_utf8_lossy(c.take(n)?).into_owned();
            Response::Error { id, code, message }
        }
        RESP_METRICS => {
            let n = c.u32()? as usize;
            if n > MAX_METRICS_TEXT || n > c.remaining() {
                return Err(PersistError::Corrupt("truncated metrics text"));
            }
            let text = String::from_utf8_lossy(c.take(n)?).into_owned();
            Response::Metrics { id, text }
        }
        RESP_SHUTTING_DOWN => Response::ShuttingDown { id },
        _ => return Err(PersistError::Corrupt("unknown response kind")),
    };
    if c.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes after response"));
    }
    Ok(resp)
}

/// Incremental frame assembler for a socket's byte stream.
///
/// Feed it whatever `read` returns; it yields complete, checksum-verified
/// payloads as they become available. The declared length is validated
/// against [`WIRE_FRAME_CAP`] from the 16-byte header **before** any
/// payload byte is buffered beyond what the peer already sent, so memory
/// per connection is bounded by the cap plus one read chunk regardless of
/// what the peer declares.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameReader { buf: Vec::new() }
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete payload, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes". An `Err` is unrecoverable for
    /// the connection (framing is lost): bad magic, unsupported version, a
    /// declared length over the cap, or a checksum mismatch.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, PersistError> {
        if self.buf.len() < 16 {
            return Ok(None);
        }
        let mut head = [0u8; 16];
        head.copy_from_slice(&self.buf[..16]);
        // Peers negotiate versions out of band, so unlike the image
        // loaders the wire accepts exactly one version (a single-element
        // range).
        let (_, len) =
            parse_frame_header(&head, WIRE_MAGIC, WIRE_VERSION..=WIRE_VERSION, WIRE_FRAME_CAP)?;
        let len = len as usize;
        let total = 16 + len + 8;
        if self.buf.len() < total {
            return Ok(None);
        }
        let rest = self.buf.split_off(total);
        let whole = std::mem::replace(&mut self.buf, rest);
        // Re-run the full shared validation (magic, version, cap,
        // checksum) over the complete frame.
        let (_, payload) =
            read_framed(&mut &whole[..], WIRE_MAGIC, WIRE_VERSION..=WIRE_VERSION, WIRE_FRAME_CAP)?;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Distance { id: 7, pairs: vec![(0, 1), (2, 3)] },
            Request::Distance { id: 8, pairs: vec![] },
            Request::Path { id: 9, s: 4, t: 5 },
            Request::Metrics { id: 12 },
            Request::Shutdown { id: 11 },
        ];
        for req in &reqs {
            let framed = encode_request(req);
            let mut fr = FrameReader::new();
            fr.feed(&framed);
            let payload = fr.next_payload().unwrap().unwrap();
            assert_eq!(&decode_request(&payload).unwrap(), req);
            assert_eq!(fr.buffered(), 0);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Distances { id: 1, distances: vec![1.5, 2.5] },
            Response::Path { id: 2, distance: 3.25, points: vec![(0.0, 1.0, 2.0)] },
            Response::Busy { id: 3, queue_depth: 17 },
            Response::Error {
                id: 4,
                code: ErrorCode::SiteOutOfRange,
                message: "site 99 out of range".into(),
            },
            Response::Metrics {
                id: 7,
                text: "# TYPE serve_requests_total counter\nserve_requests_total 4\n".into(),
            },
            Response::ShuttingDown { id: 6 },
        ];
        for resp in &resps {
            let framed = encode_response(resp);
            let mut fr = FrameReader::new();
            fr.feed(&framed);
            let payload = fr.next_payload().unwrap().unwrap();
            assert_eq!(&decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn maximal_path_response_fits_the_frame_cap_and_roundtrips() {
        // A polyline at exactly MAX_PATH_POINTS must encode within the
        // wire cap and survive the full FrameReader path; one more point
        // would overflow the cap, which is why the server refuses longer
        // answers with PathTooLong instead of framing them.
        let points: Vec<(f64, f64, f64)> =
            (0..MAX_PATH_POINTS).map(|i| (i as f64, i as f64 + 0.5, -(i as f64))).collect();
        let resp = Response::Path { id: 42, distance: 123.456, points };
        let framed = encode_response(&resp);
        let payload_len = framed.len() - 24; // 16-byte header + 8-byte checksum
        assert!(payload_len as u64 <= WIRE_FRAME_CAP);
        assert!((21 + 24 * (MAX_PATH_POINTS as u64 + 1)) > WIRE_FRAME_CAP);
        let mut fr = FrameReader::new();
        fr.feed(&framed);
        let payload = fr.next_payload().unwrap().unwrap();
        assert_eq!(decode_response(&payload).unwrap(), resp);
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn frame_reader_handles_split_and_pipelined_frames() {
        let a = encode_request(&Request::Metrics { id: 1 });
        let b = encode_request(&Request::Distance { id: 2, pairs: vec![(0, 1)] });
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut fr = FrameReader::new();
        // Feed one byte at a time: frames must come out whole, in order.
        let mut out = Vec::new();
        for &byte in &stream {
            fr.feed(&[byte]);
            while let Some(p) = fr.next_payload().unwrap() {
                out.push(decode_request(&p).unwrap());
            }
        }
        assert_eq!(
            out,
            vec![Request::Metrics { id: 1 }, Request::Distance { id: 2, pairs: vec![(0, 1)] }]
        );
    }

    #[test]
    fn oversized_declared_length_rejected_from_header() {
        let mut framed = encode_request(&Request::Metrics { id: 1 });
        framed[8..16].copy_from_slice(&(WIRE_FRAME_CAP + 1).to_le_bytes());
        let mut fr = FrameReader::new();
        fr.feed(&framed);
        match fr.next_payload() {
            Err(PersistError::FrameTooLarge { declared, cap }) => {
                assert_eq!(declared, WIRE_FRAME_CAP + 1);
                assert_eq!(cap, WIRE_FRAME_CAP);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn frames_stamped_with_an_older_wire_version_are_refused() {
        let mut framed = encode_request(&Request::Metrics { id: 1 });
        framed[4..8].copy_from_slice(&2u32.to_le_bytes());
        let mut fr = FrameReader::new();
        fr.feed(&framed);
        match fr.next_payload() {
            Err(PersistError::BadVersion { found: 2, supported: 3 }) => {}
            other => panic!("expected BadVersion {{ found: 2, supported: 3 }}, got {other:?}"),
        }
    }

    #[test]
    fn retired_stats_kind_bytes_do_not_decode() {
        // Request kind 3 and response kind 5 carried the `Stats` verb up
        // to wire version 2; they stay unassigned.
        let mut req = vec![3u8];
        req.extend_from_slice(&1u64.to_le_bytes());
        match decode_request(&req) {
            Err(PersistError::Corrupt(msg)) => assert_eq!(msg, "unknown request kind"),
            other => panic!("expected an unknown request kind, got {other:?}"),
        }
        let mut resp = vec![5u8];
        resp.extend_from_slice(&1u64.to_le_bytes());
        match decode_response(&resp) {
            Err(PersistError::Corrupt(msg)) => assert_eq!(msg, "unknown response kind"),
            other => panic!("expected an unknown response kind, got {other:?}"),
        }
    }

    #[test]
    fn image_magic_is_rejected_on_the_wire() {
        let mut framed = encode_request(&Request::Metrics { id: 1 });
        framed[0..4].copy_from_slice(b"SEOR");
        let mut fr = FrameReader::new();
        fr.feed(&framed);
        assert!(matches!(fr.next_payload(), Err(PersistError::BadMagic(_))));
    }

    #[test]
    fn corrupt_request_payloads_error_not_panic() {
        let framed = encode_request(&Request::Distance { id: 3, pairs: vec![(1, 2), (3, 4)] });
        let (_, payload) =
            read_framed(&mut &framed[..], WIRE_MAGIC, WIRE_VERSION..=WIRE_VERSION, WIRE_FRAME_CAP)
                .unwrap();
        for i in 0..payload.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = payload.clone();
                bad[i] ^= flip;
                // Any outcome but a panic or over-allocation is fine; the
                // count-field guards make hostile counts error out.
                let _ = decode_request(&bad);
            }
        }
        for cut in 0..payload.len() {
            assert!(decode_request(&payload[..cut]).is_err());
        }
    }
}
