//! Per-connection sessions: one thread, one [`ThreadIoScope`] ledger.
//!
//! A session is a loop over request frames. Each statement executes on
//! the session's own thread, so a [`ThreadIoScope`] around it measures
//! *exactly* that statement's logical I/O even while other sessions
//! hammer the same pager — the per-session attribution the obs ledger
//! tests reconcile against the global counters. Statement errors are
//! reported in an error frame and the session keeps serving; only
//! protocol violations (an oversized length prefix, after which the
//! stream cannot be resynchronized) and transport errors end it.

use crate::advisor_loop::Feed;
use crate::proto::{
    self, MAX_PAYLOAD, OP_EXEC, OP_METRICS, OP_PING, OP_QUERY, STATUS_ERR, STATUS_OK,
};
use cdpd_engine::{Database, QueryResult};
use cdpd_sql::Statement;
use cdpd_storage::ThreadIoScope;
use cdpd_types::{Error, Result};
use std::net::TcpStream;
use std::sync::Arc;

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

fn session_loop(db: &Arc<Database>, mut stream: TcpStream, advisor: Option<&Feed>) -> Result<()> {
    loop {
        let (tag, payload) = match proto::read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // clean disconnect
            Err(e) => {
                // Oversized announcement: tell the peer why before
                // hanging up. Mid-frame EOF: nobody is listening.
                if matches!(e, Error::TooLarge(_)) {
                    let _ = respond_err(&mut stream, &e);
                }
                return Err(e);
            }
        };
        cdpd_obs::counter!("server.bytes_in").add(5 + payload.len() as u64);
        match tag {
            OP_PING => respond_ok(&mut stream, &[])?,
            OP_METRICS => {
                let text = cdpd_obs::openmetrics::render(&cdpd_obs::registry().snapshot());
                respond_ok(&mut stream, text.as_bytes())?;
            }
            OP_QUERY | OP_EXEC => {
                cdpd_obs::counter!("server.statements").inc();
                match run_statement(db, tag, &payload, advisor) {
                    Ok(result) => respond_ok(&mut stream, &proto::encode_result(&result))?,
                    Err(e) => {
                        // Statement failure: the session (and the epoch
                        // catalog under it) stays fully usable.
                        cdpd_obs::counter!("server.errors").inc();
                        respond_err(&mut stream, &e)?;
                    }
                }
            }
            other => {
                // Unknown but well-framed op: recoverable.
                cdpd_obs::counter!("server.errors").inc();
                respond_err(
                    &mut stream,
                    &Error::InvalidArgument(format!("unknown op {other:#x}")),
                )?;
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

fn respond_ok(stream: &mut TcpStream, payload: &[u8]) -> Result<()> {
    cdpd_obs::counter!("server.bytes_out").add(5 + payload.len() as u64);
    proto::write_frame(stream, STATUS_OK, payload)
}

fn respond_err(stream: &mut TcpStream, err: &Error) -> Result<()> {
    let mut payload = proto::encode_error(err);
    payload.truncate(MAX_PAYLOAD);
    cdpd_obs::counter!("server.bytes_out").add(5 + payload.len() as u64);
    proto::write_frame(stream, STATUS_ERR, &payload)
}
