//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! +-----+----------------+---------------------+
//! | tag | len (u32, LE)  | payload (len bytes) |
//! +-----+----------------+---------------------+
//! ```
//!
//! Request tags are [`OP_QUERY`] (`Q`, payload = UTF-8 SQL, response
//! carries materialized rows), [`OP_EXEC`] (`X`, payload = UTF-8 SQL,
//! any statement, counting mode), [`OP_METRICS`] (`M`, empty payload,
//! response = OpenMetrics text of the live registry), and [`OP_PING`]
//! (`P`, empty payload, empty response). Response tags are
//! [`STATUS_OK`] (`+`) and [`STATUS_ERR`] (`-`, payload = one error
//! kind byte + UTF-8 message).
//!
//! Payloads are capped at [`MAX_PAYLOAD`] (1 MiB). A frame announcing
//! more is a protocol violation: the receiver reports it without
//! reading the body — after which the stream cannot be resynchronized,
//! so the connection must close.
//!
//! Result payloads are records in the storage record codec
//! ([`cdpd_storage::codec`]), the format the catalog and the pager's
//! metadata are persisted in; rows and aggregates inside them are in
//! the storage row codec ([`cdpd_storage::codec::encode_row`]), so the
//! values that cross the wire are bit-identical to the values in the
//! pages they came from.

use cdpd_engine::QueryResult;
use cdpd_storage::codec::{self, put_framed, put_list, put_str, put_u64, put_u8, Reader};
use cdpd_storage::IoStats;
use cdpd_types::{Error, Result, Value};
use std::io::{Read, Write};

/// `Q`: parse and run one `SELECT`, materializing result rows.
pub const OP_QUERY: u8 = b'Q';
/// `X`: parse and run any statement (queries run in counting mode).
pub const OP_EXEC: u8 = b'X';
/// `M`: OpenMetrics exposition of the live metrics registry.
pub const OP_METRICS: u8 = b'M';
/// `P`: liveness probe; empty OK response.
pub const OP_PING: u8 = b'P';

/// Success response tag.
pub const STATUS_OK: u8 = b'+';
/// Error response tag; payload = kind byte + UTF-8 message.
pub const STATUS_ERR: u8 = b'-';

/// Hard cap on a frame payload (1 MiB): statements, result sets, and
/// metric expositions must all fit in one frame.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Append one frame to `out`: the header, then the payload `body`
/// appends, encoded in place. On error `out` is left as it was.
///
/// # Errors
/// The payload must fit [`MAX_PAYLOAD`].
pub(crate) fn put_frame(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - start - 5;
    if len > MAX_PAYLOAD {
        out.truncate(start);
        return Err(Error::TooLarge(format!(
            "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    out[start + 1..start + 5].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Write one frame.
///
/// # Errors
/// The payload must fit [`MAX_PAYLOAD`]; I/O errors propagate.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<()> {
    // One write per frame: a header-only segment followed by a payload
    // segment interacts badly with Nagle + delayed ACK on real sockets
    // (tens of milliseconds per request), so coalesce before writing.
    let mut frame = Vec::with_capacity(5 + payload.len());
    put_frame(&mut frame, tag, |out| out.extend_from_slice(payload))?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. Returns `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed between requests).
///
/// It makes three `read` calls on `r` (a byte, the rest of the header,
/// the payload), so a socket is read through a [`std::io::BufReader`]:
/// then a frame that arrived whole costs one `recv`, and frames that
/// arrived together are read out of the buffer in order.
///
/// # Errors
/// A frame announcing more than [`MAX_PAYLOAD`] bytes is rejected
/// *without* consuming its body — the stream is then unsynchronized
/// and the caller must drop the connection. Mid-frame EOF and I/O
/// errors propagate.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; 5];
    match r.read(&mut header[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut header[1..5])?,
    }
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(Error::TooLarge(format!(
            "peer announced a {len}-byte frame; the cap is {MAX_PAYLOAD}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((header[0], payload)))
}

/// The observable outcome of one remote statement: everything a
/// [`QueryResult`] carries that survives the
/// wire (the planner's cost estimate stays server-side).
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteResult {
    /// Rows matched / affected / aggregated.
    pub count: u64,
    /// Materialized rows (`Q` requests on non-aggregate queries).
    pub rows: Option<Vec<Vec<Value>>>,
    /// Aggregate value, for aggregate projections.
    pub aggregate: Option<Value>,
    /// Logical I/O the statement cost on the server, measured on the
    /// serving thread.
    pub io: IoStats,
    /// One-line plan description.
    pub plan: String,
}

/// A row as a blob of its row-codec bytes, encoded in place.
fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    put_framed(out, |out| codec::encode_row(row, out));
}

fn read_row(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    codec::decode_row(r.bytes()?)
}

/// `flags` bits of a result payload.
const HAS_ROWS: u8 = 1;
const HAS_AGGREGATE: u8 = 2;

/// Encode a [`QueryResult`] as an OK payload.
pub fn encode_result(r: &QueryResult) -> Vec<u8> {
    let mut out = Vec::new();
    encode_result_into(r, &mut out);
    out
}

/// Append [`encode_result`]'s payload to `out`.
pub(crate) fn encode_result_into(r: &QueryResult, out: &mut Vec<u8>) {
    put_u64(out, r.count);
    put_u64(out, r.io.reads);
    put_u64(out, r.io.writes);
    put_u64(out, r.io.allocs);
    let mut flags = 0;
    if r.rows.is_some() {
        flags |= HAS_ROWS;
    }
    if r.aggregate.is_some() {
        flags |= HAS_AGGREGATE;
    }
    put_u8(out, flags);
    if let Some(agg) = &r.aggregate {
        put_row(out, std::slice::from_ref(agg));
    }
    if let Some(rows) = &r.rows {
        put_list(out, rows, |out, row| put_row(out, row));
    }
    put_str(out, &r.plan);
}

/// Decode an OK payload back into a [`RemoteResult`]: the inverse of
/// [`encode_result`].
///
/// # Errors
/// The payload must be well-formed and fully consumed.
pub fn decode_result(payload: &[u8]) -> Result<RemoteResult> {
    let mut r = Reader::new(payload, "result payload");
    let count = r.u64()?;
    let io = IoStats {
        reads: r.u64()?,
        writes: r.u64()?,
        allocs: r.u64()?,
    };
    let flags = r.u8()?;
    if flags & !(HAS_ROWS | HAS_AGGREGATE) != 0 {
        return Err(Error::Corrupt(format!(
            "result payload: bad flags {flags:#x}"
        )));
    }
    let aggregate = if flags & HAS_AGGREGATE != 0 {
        let mut row = read_row(&mut r)?;
        match (row.pop(), row.is_empty()) {
            (Some(v), true) => Some(v),
            _ => return Err(Error::Corrupt("aggregate row is not one value".into())),
        }
    } else {
        None
    };
    let rows = if flags & HAS_ROWS != 0 {
        Some(r.list(read_row)?)
    } else {
        None
    };
    let plan = r.str()?;
    r.finish()?;
    Ok(RemoteResult {
        count,
        rows,
        aggregate,
        io,
        plan,
    })
}

/// Encode an [`Error`] as an error payload: one kind byte (so the
/// client resurrects the matching variant) + the message.
pub fn encode_error(err: &Error) -> Vec<u8> {
    let (kind, msg) = match err {
        Error::Parse { offset, message } => (b'P', format!("offset {offset}: {message}")),
        Error::NotFound(m) => (b'N', m.clone()),
        Error::AlreadyExists(m) => (b'A', m.clone()),
        Error::TypeMismatch(m) => (b'T', m.clone()),
        Error::Corrupt(m) => (b'C', m.clone()),
        Error::TooLarge(m) => (b'L', m.clone()),
        Error::Infeasible(m) => (b'F', m.clone()),
        Error::InvalidArgument(m) => (b'I', m.clone()),
        Error::Io(e) => (b'O', e.to_string()),
    };
    let mut out = Vec::with_capacity(1 + msg.len());
    out.push(kind);
    out.extend_from_slice(msg.as_bytes());
    out
}

/// Decode an error payload into the [`Error`] variant the server
/// reported (parse offsets are folded into the message).
pub fn decode_error(payload: &[u8]) -> Error {
    let Some((&kind, msg)) = payload.split_first() else {
        return Error::Corrupt("empty error payload".into());
    };
    let msg = String::from_utf8_lossy(msg).into_owned();
    match kind {
        b'P' => Error::Parse {
            offset: 0,
            message: msg,
        },
        b'N' => Error::NotFound(msg),
        b'A' => Error::AlreadyExists(msg),
        b'T' => Error::TypeMismatch(msg),
        b'C' => Error::Corrupt(msg),
        b'L' => Error::TooLarge(msg),
        b'F' => Error::Infeasible(msg),
        b'I' => Error::InvalidArgument(msg),
        b'O' => Error::Io(std::io::Error::other(msg)),
        _ => Error::Corrupt(format!("unknown error kind {kind:#x}: {msg}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_QUERY, b"SELECT a FROM t WHERE a = 1").unwrap();
        write_frame(&mut buf, OP_PING, b"").unwrap();
        let mut r = &buf[..];
        let (tag, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            (tag, payload.as_slice()),
            (OP_QUERY, &b"SELECT a FROM t WHERE a = 1"[..])
        );
        let (tag, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((tag, payload.len()), (OP_PING, 0));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let huge = vec![0u8; MAX_PAYLOAD + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, OP_EXEC, &huge),
            Err(Error::TooLarge(_))
        ));
        // A hand-forged oversized header is rejected without a read.
        let mut forged = vec![OP_EXEC];
        forged.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &forged[..]),
            Err(Error::TooLarge(_))
        ));
    }

    #[test]
    fn result_roundtrip() {
        let result = QueryResult {
            count: 3,
            rows: Some(vec![
                vec![Value::Int(1), Value::from("x")],
                vec![Value::Int(2), Value::from("y")],
            ]),
            aggregate: Some(Value::Int(42)),
            io: IoStats {
                reads: 7,
                writes: 1,
                allocs: 0,
            },
            est_cost: cdpd_types::Cost::ZERO,
            plan: "IndexScan(ix_t_a)".into(),
            path: cdpd_engine::PathKind::Other,
            index_backed: false,
        };
        let decoded = decode_result(&encode_result(&result)).unwrap();
        assert_eq!(decoded.count, 3);
        assert_eq!(decoded.rows, result.rows);
        assert_eq!(decoded.aggregate, Some(Value::Int(42)));
        assert_eq!(decoded.io, result.io);
        assert_eq!(decoded.plan, "IndexScan(ix_t_a)");
    }

    #[test]
    fn result_payload_layout_is_pinned() {
        let payload = encode_result(&QueryResult {
            count: 3,
            rows: Some(vec![vec![Value::Int(1)]]),
            aggregate: Some(Value::Int(42)),
            io: IoStats {
                reads: 7,
                writes: 1,
                allocs: 0,
            },
            est_cost: cdpd_types::Cost::ZERO,
            plan: "Scan".into(),
            path: cdpd_engine::PathKind::Other,
            index_backed: false,
        });
        let int = |v: i64| [&[0x01][..], &v.to_le_bytes()].concat();
        let mut want = Vec::new();
        for v in [3u64, 7, 1, 0] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        want.push(HAS_ROWS | HAS_AGGREGATE);
        want.extend_from_slice(&9u32.to_le_bytes());
        want.extend(int(42));
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&9u32.to_le_bytes());
        want.extend(int(1));
        want.extend_from_slice(&4u32.to_le_bytes());
        want.extend_from_slice(b"Scan");
        assert_eq!(payload, want);

        // Unknown flag bits and trailing bytes are corrupt.
        let mut bad_flags = payload.clone();
        bad_flags[32] |= 4;
        assert!(matches!(decode_result(&bad_flags), Err(Error::Corrupt(_))));
        let mut long = payload;
        long.push(0);
        assert!(matches!(decode_result(&long), Err(Error::Corrupt(_))));
    }

    #[test]
    fn error_roundtrip_preserves_kind() {
        for err in [
            Error::NotFound("index ix_t_a".into()),
            Error::AlreadyExists("index ix_t_a".into()),
            Error::TypeMismatch("expected INT".into()),
            Error::InvalidArgument("bad".into()),
            Error::TooLarge("row".into()),
        ] {
            let back = decode_error(&encode_error(&err));
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&err),
                "{err:?} -> {back:?}"
            );
        }
    }

    #[test]
    fn truncated_results_are_corrupt_not_panics() {
        let payload = encode_result(&QueryResult {
            count: 1,
            rows: Some(vec![vec![Value::Int(5)]]),
            aggregate: None,
            io: IoStats::default(),
            est_cost: cdpd_types::Cost::ZERO,
            plan: "Scan".into(),
            path: cdpd_engine::PathKind::Other,
            index_backed: false,
        });
        for cut in 0..payload.len() {
            assert!(decode_result(&payload[..cut]).is_err());
        }
    }
}
