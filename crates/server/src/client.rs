//! A blocking wire client: the test harness's and examples' view of a
//! running server. One [`Client`] is one connection (one server-side
//! session); requests are strictly serial per connection.

use crate::proto::{
    self, RemoteResult, OP_EXEC, OP_METRICS, OP_PING, OP_QUERY, STATUS_ERR, STATUS_OK,
};
use cdpd_types::{Error, Result};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

/// A connected session. Replies are read through one buffer, so a reply
/// that arrived in one segment costs one `recv`.
pub struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    /// Connection failures propagate as [`Error::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response frames are small and latency-bound; never
        // let Nagle hold one back waiting for a delayed ACK.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    fn call(&mut self, tag: u8, payload: &[u8]) -> Result<Vec<u8>> {
        proto::write_frame(self.stream.get_mut(), tag, payload)?;
        let (status, body) = proto::read_frame(&mut self.stream)?
            .ok_or_else(|| Error::Io(std::io::Error::other("server closed the connection")))?;
        match status {
            STATUS_OK => Ok(body),
            STATUS_ERR => Err(proto::decode_error(&body)),
            other => Err(Error::Corrupt(format!(
                "unknown response status {other:#x}"
            ))),
        }
    }

    /// Run a `SELECT` with materialized rows.
    ///
    /// # Errors
    /// Server-side statement errors come back as their original
    /// [`Error`] variant; transport errors as [`Error::Io`].
    pub fn query(&mut self, sql: &str) -> Result<RemoteResult> {
        let body = self.call(OP_QUERY, sql.as_bytes())?;
        proto::decode_result(&body)
    }

    /// Execute any statement (queries run in counting mode).
    ///
    /// # Errors
    /// Same conditions as [`Client::query`].
    pub fn exec(&mut self, sql: &str) -> Result<RemoteResult> {
        let body = self.call(OP_EXEC, sql.as_bytes())?;
        proto::decode_result(&body)
    }

    /// Fetch the server's live metrics registry as OpenMetrics text.
    ///
    /// # Errors
    /// Transport errors propagate; the exposition must be UTF-8.
    pub fn metrics(&mut self) -> Result<String> {
        let body = self.call(OP_METRICS, &[])?;
        String::from_utf8(body).map_err(|_| Error::Corrupt("metrics are not UTF-8".into()))
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Transport errors propagate.
    pub fn ping(&mut self) -> Result<()> {
        self.call(OP_PING, &[]).map(|_| ())
    }

    /// Send a raw frame and return the raw response, bypassing the
    /// request encoders — the hook protocol tests use to speak
    /// *malformed* requests on purpose.
    ///
    /// # Errors
    /// Transport errors propagate; an error frame comes back as its
    /// decoded [`Error`].
    pub fn raw(&mut self, tag: u8, payload: &[u8]) -> Result<Vec<u8>> {
        self.call(tag, payload)
    }

    /// The underlying stream (for tests that need to half-send a frame
    /// and hang up).
    pub fn stream(&mut self) -> &mut TcpStream {
        self.stream.get_mut()
    }
}
