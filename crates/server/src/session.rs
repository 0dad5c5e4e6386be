//! Per-connection sessions: one thread, one [`ThreadIoScope`] ledger.
//!
//! A session is a loop over request frames. Each statement executes on
//! the session's own thread, so a [`ThreadIoScope`] around it measures
//! *exactly* that statement's logical I/O even while other sessions
//! hammer the same pager — the per-session attribution the obs ledger
//! tests reconcile against the global counters. Statement errors — a
//! result too large for one frame among them — are reported in an
//! error frame and the session keeps serving; only protocol violations
//! (an oversized length prefix, after which the stream cannot be
//! resynchronized) and transport errors end it.
//!
//! Requests are read through one buffer per connection, so a frame
//! that arrived in one segment costs one `recv`, and frames that arrived
//! together are answered from the buffer in order. Each reply is encoded
//! once, straight into a reply buffer the session reuses, and leaves in
//! one `write`.

use crate::advisor_loop::Feed;
use crate::proto::{
    self, MAX_PAYLOAD, OP_EXEC, OP_METRICS, OP_PING, OP_QUERY, STATUS_ERR, STATUS_OK,
};
use cdpd_engine::{Database, QueryResult};
use cdpd_sql::Statement;
use cdpd_storage::ThreadIoScope;
use cdpd_types::{Error, Result};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Reply capacity a session keeps between replies; a larger reply
/// (a big result set, the metrics text) gives the rest back.
const REPLY_KEEP: usize = 64 << 10;

/// One connection: its read buffer and its reply buffer.
struct Conn {
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Conn {
    /// Send one frame whose payload `body` encodes into the reply
    /// buffer.
    fn send(&mut self, tag: u8, body: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        self.reply.clear();
        self.reply.shrink_to(REPLY_KEEP);
        proto::put_frame(&mut self.reply, tag, body)?;
        cdpd_obs::counter!("server.bytes_out").add(self.reply.len() as u64);
        self.reader.get_mut().write_all(&self.reply)?;
        Ok(())
    }

    fn respond_ok(&mut self, payload: &[u8]) -> Result<()> {
        self.send(STATUS_OK, |out| out.extend_from_slice(payload))
    }

    fn respond_err(&mut self, err: &Error) -> Result<()> {
        let payload = proto::encode_error(err);
        let payload = &payload[..payload.len().min(MAX_PAYLOAD)];
        self.send(STATUS_ERR, |out| out.extend_from_slice(payload))
    }
}

/// Serve one accepted connection until the peer disconnects or breaks
/// the protocol. Successfully executed workload statements (DML) are
/// forwarded to `advisor` when present, each with its predicted-vs-
/// actual pair — the live statement stream the in-loop advisor steps
/// on.
pub(crate) fn serve_connection(db: &Arc<Database>, stream: TcpStream, advisor: Option<&Feed>) {
    cdpd_obs::counter!("server.sessions.opened").inc();
    let _span = cdpd_obs::span!("server.session");
    let session_io = ThreadIoScope::start();
    let outcome = session_loop(db, stream, advisor);
    // Exact per-session attribution: everything this session's thread
    // did — statements, index maintenance, WAL commits — lands in its
    // thread-local ledger and is folded into the server totals here.
    let io = session_io.delta();
    cdpd_obs::counter!("server.io.reads").add(io.reads);
    cdpd_obs::counter!("server.io.writes").add(io.writes);
    cdpd_obs::counter!("server.io.allocs").add(io.allocs);
    if outcome.is_err() {
        // Transport/protocol failure (mid-frame disconnect, oversized
        // announcement). The session is gone; the catalog is not.
        cdpd_obs::counter!("server.sessions.aborted").inc();
    }
    cdpd_obs::counter!("server.sessions.closed").inc();
}

fn session_loop(db: &Arc<Database>, stream: TcpStream, advisor: Option<&Feed>) -> Result<()> {
    let mut conn = Conn {
        reader: BufReader::new(stream),
        reply: Vec::new(),
    };
    loop {
        let (tag, payload) = match proto::read_frame(&mut conn.reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // clean disconnect
            Err(e) => {
                // Oversized announcement: tell the peer why before
                // hanging up. Mid-frame EOF: nobody is listening.
                if matches!(e, Error::TooLarge(_)) {
                    let _ = conn.respond_err(&e);
                }
                return Err(e);
            }
        };
        cdpd_obs::counter!("server.bytes_in").add(5 + payload.len() as u64);
        match tag {
            OP_PING => conn.respond_ok(&[])?,
            OP_METRICS => {
                let text = cdpd_obs::openmetrics::render(&cdpd_obs::registry().snapshot());
                conn.respond_ok(text.as_bytes())?;
            }
            OP_QUERY | OP_EXEC => {
                cdpd_obs::counter!("server.statements").inc();
                let failed = match run_statement(db, tag, &payload, advisor) {
                    Ok(result) => {
                        match conn.send(STATUS_OK, |out| proto::encode_result_into(&result, out)) {
                            // A result over the frame cap left nothing on
                            // the wire: it fails its statement instead.
                            Err(e @ Error::TooLarge(_)) => Some(e),
                            sent => sent.map(|()| None)?,
                        }
                    }
                    Err(e) => Some(e),
                };
                if let Some(e) = failed {
                    // Statement failure: the session (and the epoch
                    // catalog under it) stays fully usable.
                    cdpd_obs::counter!("server.errors").inc();
                    conn.respond_err(&e)?;
                }
            }
            other => {
                // Unknown but well-framed op: recoverable.
                cdpd_obs::counter!("server.errors").inc();
                conn.respond_err(&Error::InvalidArgument(format!("unknown op {other:#x}")))?;
            }
        }
    }
}

/// Parse and execute one statement frame on the calling thread,
/// measuring its I/O with a dedicated [`ThreadIoScope`] so the result
/// reports exactly this statement's page accesses (including the WAL
/// commit a durable mutation triggers).
fn run_statement(
    db: &Arc<Database>,
    tag: u8,
    payload: &[u8],
    advisor: Option<&Feed>,
) -> Result<QueryResult> {
    let sql = std::str::from_utf8(payload)
        .map_err(|_| Error::InvalidArgument("statement is not UTF-8".into()))?;
    let stmt = cdpd_sql::parse(sql)?;
    // Only an attached advisor observes the statement.
    let observed = advisor.and_then(|feed| Some((feed, stmt.as_dml()?)));
    let scope = ThreadIoScope::start();
    let mut result = match (tag, stmt) {
        (OP_QUERY, Statement::Select(s)) => db.query(&s)?,
        (OP_QUERY, other) => {
            return Err(Error::InvalidArgument(format!(
                "QUERY takes a SELECT; got {other} (use EXEC)"
            )))
        }
        // EXEC runs queries in counting mode: all the cost, none of the
        // result bytes — the workload-replay view of a statement.
        (_, Statement::Select(s)) => db.query_count(&s)?,
        (_, stmt) => db.execute_statement(stmt)?,
    };
    // Report the statement's full thread-side cost (execution + index
    // maintenance + commit), not just the executor's measurement.
    result.io = scope.delta();
    if let Some((feed, dml)) = observed {
        let pair = cdpd::calibrate::pair(&feed.calibration, &result, None);
        // The advisor loop may have shut down first; serving goes on.
        let _ = feed.tx.send((dml, pair));
    }
    Ok(result)
}
