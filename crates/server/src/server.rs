//! The accept loop and its lifecycle: bind, serve, drain, shut down.
//!
//! One listener thread accepts; each connection gets its own session
//! thread (see [`crate::session`]). The [`OnlineAdvisor`] — when
//! configured — runs on a dedicated thread *inside* the serving loop
//! (see [`crate::advisor_loop`]): sessions forward every executed
//! workload statement with its predicted-vs-actual pair over a
//! channel, and the loop runs [`OnlineAdvisor::step`] — the step
//! [`cdpd::replay::drive`] runs — on each, applying recommended DDL
//! through the epoch-versioned catalog foreground traffic is using.
//! [`Server::run`] first resumes the advisor a durable database saved
//! ([`OnlineAdvisor::resume`]), so a restart keeps the spent budget.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] sets a flag and
//! pokes the listener with a loopback connection so `accept` returns.
//! The server then stops accepting, joins every session thread, drops
//! the advisor channel (letting the loop drain its queue and seal the
//! tail window), and returns the advisor for inspection.

use crate::advisor_loop::{self, AdvisorReport, Feed};
use crate::session;
use cdpd::OnlineAdvisor;
use cdpd_engine::Database;
use cdpd_types::{Error, Result};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A bound, not-yet-running server. Call [`Server::run`] to serve
/// (blocking), typically from a dedicated thread.
pub struct Server {
    db: Arc<Database>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    advisor: Option<(OnlineAdvisor, Duration, usize)>,
}

/// Remote control for a running [`Server`]: cheap to clone into other
/// threads, able to stop the accept loop.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

/// What [`Server::run`] returns once the accept loop has drained.
pub struct ServerReport {
    /// Connections served over the server's lifetime.
    pub sessions: u64,
    /// The advisor and its decision/apply log, when one was running.
    pub advisor: Option<AdvisorReport>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop: set the flag, then poke the listener so
    /// a blocked `accept` observes it. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop; an error just means it is already gone.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    /// Binding can fail (address in use, permission).
    pub fn bind(db: Arc<Database>, addr: &str) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            db,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
            advisor: None,
        })
    }

    /// Run `advisor` inside the serving loop: sessions feed it every
    /// executed workload statement, windows additionally seal whenever
    /// `tick` elapses without traffic, and decisions are applied with
    /// up to `threads` concurrent index builds — interleaved with
    /// foreground statements through the epoch-versioned catalog. A
    /// saved advisor state in the database is resumed under `advisor`'s
    /// options instead.
    pub fn with_advisor(
        mut self,
        advisor: OnlineAdvisor,
        tick: Duration,
        threads: usize,
    ) -> Server {
        self.advisor = Some((advisor, tick, threads));
        self
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    /// Propagates the socket query.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A [`ServerHandle`] for stopping this server from another thread.
    ///
    /// # Errors
    /// Propagates the socket query.
    pub fn handle(&self) -> Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: self.shutdown.clone(),
        })
    }

    /// Serve until [`ServerHandle::shutdown`]: resume the advisor,
    /// accept connections, spawn a session thread per connection, then
    /// drain — join every session, stop the advisor loop, and report.
    ///
    /// # Errors
    /// A saved advisor state that does not restore
    /// ([`OnlineAdvisor::resume`]) and accept-loop I/O errors propagate
    /// (individual session errors do not — they end that session only).
    /// Advisor-loop panics surface as [`Error::Corrupt`].
    pub fn run(self) -> Result<ServerReport> {
        let Server {
            db,
            listener,
            shutdown,
            advisor,
        } = self;
        let (feed, advisor_join): (Option<Feed>, Option<JoinHandle<AdvisorReport>>) = match advisor
        {
            Some((advisor, tick, threads)) => {
                let advisor = advisor.resume(&db, threads)?;
                let (tx, rx) = mpsc::channel();
                let feed = Feed {
                    tx,
                    calibration: advisor.options().calibration.clone(),
                };
                let db = db.clone();
                let join = std::thread::Builder::new()
                    .name("cdpd-advisor".into())
                    .spawn(move || advisor_loop::run(&db, advisor, &rx, tick, threads))
                    .expect("spawn advisor thread");
                (Some(feed), Some(join))
            }
            None => (None, None),
        };

        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        let mut served = 0u64;
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => return Err(Error::Io(e)),
            };
            // Response frames are latency-bound; see proto::write_frame.
            let _ = stream.set_nodelay(true);
            served += 1;
            let db = db.clone();
            let feed = feed.clone();
            sessions.push(
                std::thread::Builder::new()
                    .name(format!("cdpd-session-{served}"))
                    .spawn(move || session::serve_connection(&db, stream, feed.as_ref()))
                    .expect("spawn session thread"),
            );
        }
        for s in sessions {
            let _ = s.join();
        }
        // Closing the last sender ends the advisor loop after it
        // drains everything sessions already sent.
        drop(feed);
        let advisor = match advisor_join {
            Some(join) => Some(
                join.join()
                    .map_err(|_| Error::Corrupt("advisor loop panicked".into()))?,
            ),
            None => None,
        };
        Ok(ServerReport {
            sessions: served,
            advisor,
        })
    }
}
