//! The load shape every wire workload shares: server and clients in
//! one process, a closed loop (each blocking connection sends its next
//! statement only after the previous reply), and [`CLIENTS`] client
//! threads on as many connections.

use crate::gen::{Class, Stream};
use crate::stats::{self, percentile};
use cdpd::OnlineAdvisor;
use cdpd_engine::Database;
use cdpd_server::proto;
use cdpd_server::{Client, RemoteResult, Server, ServerHandle, ServerReport};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client threads and connections. Two, not one: with a single client a
/// 10 µs statement is bimodal run to run, depending on whether the
/// client and its session thread happen to share a core.
pub const CLIENTS: usize = 2;

/// Equal parts the timed section is cut into. Every reported figure is
/// the median over the parts, so one scheduler hiccup moves one part.
pub const SLICES: usize = 5;

/// A server running on its own thread.
pub struct Served {
    handle: ServerHandle,
    join: JoinHandle<cdpd_types::Result<ServerReport>>,
}

impl Served {
    /// Bind an ephemeral loopback port and serve `db`, with `advisor`
    /// (idle tick, build threads) in the serving loop when given.
    pub fn start(db: Arc<Database>, advisor: Option<(OnlineAdvisor, Duration, usize)>) -> Served {
        let mut server = Server::bind(db, "127.0.0.1:0").expect("bind a loopback port");
        if let Some((advisor, tick, threads)) = advisor {
            server = server.with_advisor(advisor, tick, threads);
        }
        let handle = server.handle().expect("bound socket has an address");
        let join = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server.run())
            .expect("spawn server thread");
        Served { handle, join }
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stop accepting, join every session and the advisor loop.
    pub fn stop(self) -> ServerReport {
        self.handle.shutdown();
        self.join
            .join()
            .expect("server thread panicked")
            .expect("serving failed")
    }
}

/// Send one request and decode its reply, returning the result and the
/// bytes that crossed the wire in both directions.
pub fn call(client: &mut Client, tag: u8, sql: &str) -> cdpd_types::Result<(RemoteResult, u64)> {
    let body = client.raw(tag, sql.as_bytes())?;
    let bytes = (5 + sql.len() + 5 + body.len()) as u64;
    Ok((proto::decode_result(&body)?, bytes))
}

/// What one client saw during one slice of the timed section.
#[derive(Default)]
pub struct SliceLog {
    /// Latencies of `SELECT`s, ns.
    pub read_ns: Vec<u32>,
    /// Latencies of `UPDATE`s, ns.
    pub write_ns: Vec<u32>,
    /// Σ logical page reads + writes the replies reported.
    pub pages: u64,
    /// Σ request + reply bytes.
    pub bytes: u64,
}

/// One client's record of a run.
#[derive(Default)]
pub struct ClientLog {
    /// Per-slice samples of the timed section.
    pub slices: Vec<SliceLog>,
    /// Requests sent in the timed section.
    pub attempted: u64,
    /// Requests that failed or were refused in the timed section.
    pub failed: u64,
    /// Stream positions of every acknowledged write, warm-up included,
    /// in acknowledgement order.
    pub acked_writes: Vec<u32>,
    /// First error message, if any request failed.
    pub first_error: Option<String>,
}

fn push(slice: &mut SliceLog, class: Class, ns: u64) {
    let ns = u32::try_from(ns).unwrap_or(u32::MAX);
    match class {
        Class::Read => slice.read_ns.push(ns),
        Class::Write => slice.write_ns.push(ns),
    }
}

/// Drive `streams` (one per client) against `addr` in a closed loop:
/// `warmup` untimed, then `timed` recorded in [`SLICES`] parts. All
/// clients start together; each cycles its stream from the start.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Stream],
    warmup: Duration,
    timed: Duration,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(streams.len());
    let slice_len = timed / SLICES as u32;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to loopback server");
                    let mut log = ClientLog {
                        slices: (0..SLICES).map(|_| SliceLog::default()).collect(),
                        ..ClientLog::default()
                    };
                    barrier.wait();
                    let timed_from = Instant::now() + warmup;
                    let mut prev = Instant::now();
                    for i in (0..stream.ops.len()).cycle() {
                        let op = &stream.ops[i];
                        let reply = call(&mut client, op.tag, &op.sql);
                        let now = Instant::now();
                        if reply.is_ok() && op.class == Class::Write {
                            // Logged before anything else: the reply that
                            // ends the run acknowledged its write too.
                            log.acked_writes.push(i as u32);
                        }
                        // The slice this reply landed in, for statements
                        // sent after the warm-up.
                        let slice = (prev >= timed_from).then(|| {
                            ((now - timed_from).as_nanos() / slice_len.as_nanos()) as usize
                        });
                        if slice.is_some_and(|s| s >= SLICES) {
                            break;
                        }
                        log.attempted += u64::from(slice.is_some());
                        match (&reply, slice) {
                            (Ok((result, bytes)), Some(slice)) => {
                                let s = &mut log.slices[slice];
                                push(s, op.class, (now - prev).as_nanos() as u64);
                                s.pages += result.io.total();
                                s.bytes += bytes;
                            }
                            (Ok(_), None) => {}
                            (Err(e), _) => {
                                log.failed += u64::from(slice.is_some());
                                log.first_error
                                    .get_or_insert_with(|| format!("{}: {e}", op.sql));
                            }
                        }
                        prev = now;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The end-to-end figures of one closed-loop run.
pub struct WireStats {
    /// Statements completed per second (median slice).
    pub ops_per_s: f64,
    /// Median latency of the primary class, µs (median slice).
    pub lat_p50_us: Result<f64, String>,
    /// 99th-percentile latency of the primary class, µs (median slice).
    pub lat_p99_us: Result<f64, String>,
    /// 99th-percentile latency of `SELECT`s, µs (median slice).
    pub read_lat_p99_us: Result<f64, String>,
    /// Logical page reads + writes per statement (median slice).
    pub pages_per_op: f64,
    /// Request + reply bytes per statement.
    pub bytes_per_op: f64,
    /// Primary-class latency samples collected.
    pub samples: usize,
    /// Requests sent in the timed section.
    pub attempted: u64,
    /// Requests failed in the timed section.
    pub failed: u64,
    /// First error seen, if any.
    pub first_error: Option<String>,
}

/// Fold client logs into per-slice figures and take medians. A
/// percentile that too few samples support is refused, not guessed: it
/// comes back as the reason.
///
/// # Errors
/// A slice in which no statement completed.
pub fn summarize(logs: &[ClientLog], timed: Duration, primary: Class) -> Result<WireStats, String> {
    let slice_s = timed.as_secs_f64() / SLICES as f64;
    let merged = |slice: usize, class: Class| -> Vec<u64> {
        let mut v: Vec<u64> = logs
            .iter()
            .flat_map(|l| match class {
                Class::Read => l.slices[slice].read_ns.iter(),
                Class::Write => l.slices[slice].write_ns.iter(),
            })
            .map(|&ns| u64::from(ns))
            .collect();
        v.sort_unstable();
        v
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let (mut ops, mut p50, mut p99, mut read_p99, mut pages) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut total_ops, mut total_bytes) = (0usize, 0u64, 0u64);
    for slice in 0..SLICES {
        let prim = merged(slice, primary);
        let reads = merged(slice, Class::Read);
        let n: u64 = logs
            .iter()
            .map(|l| (l.slices[slice].read_ns.len() + l.slices[slice].write_ns.len()) as u64)
            .sum();
        if n == 0 {
            return Err(format!("slice {slice} completed no statement"));
        }
        samples += prim.len();
        total_ops += n;
        total_bytes += logs.iter().map(|l| l.slices[slice].bytes).sum::<u64>();
        ops.push(n as f64 / slice_s);
        pages.push(logs.iter().map(|l| l.slices[slice].pages).sum::<u64>() as f64 / n as f64);
        p50.push(percentile(&prim, 0.5).map(us));
        p99.push(percentile(&prim, 0.99).map(us));
        read_p99.push(percentile(&reads, 0.99).map(us));
    }
    // A slice too thin for its own percentile falls back to the whole
    // timed section; a section too thin for that fails the run.
    let whole = |class: Class, q: f64| -> Result<f64, String> {
        let mut all: Vec<u64> = (0..SLICES).flat_map(|s| merged(s, class)).collect();
        all.sort_unstable();
        percentile(&all, q)
            .map(us)
            .map_err(|e| format!("p{:.0} of {class:?} latencies: {e}", q * 100.0))
    };
    let settle =
        |per_slice: Vec<Result<f64, stats::TooFewSamples>>, class: Class, q: f64| match per_slice
            .into_iter()
            .collect::<Result<Vec<f64>, _>>()
        {
            Ok(v) => Ok(stats::median(&v)),
            Err(_) => whole(class, q),
        };
    Ok(WireStats {
        ops_per_s: stats::median(&ops),
        lat_p50_us: settle(p50, primary, 0.5),
        lat_p99_us: settle(p99, primary, 0.99),
        read_lat_p99_us: settle(read_p99, Class::Read, 0.99),
        pages_per_op: stats::median(&pages),
        bytes_per_op: total_bytes as f64 / total_ops as f64,
        samples,
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        first_error: logs.iter().find_map(|l| l.first_error.clone()),
    })
}

/// Median `PING` round trip, µs, with every client pinging at once for
/// `dur` — the floor under any statement's wire latency.
pub fn ping_rtt_us(addr: SocketAddr, dur: Duration) -> f64 {
    let barrier = Barrier::new(CLIENTS);
    let mut all: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to loopback server");
                    barrier.wait();
                    let end = Instant::now() + dur;
                    let mut out = Vec::new();
                    let mut prev = Instant::now();
                    while prev < end {
                        client.ping().expect("ping");
                        let now = Instant::now();
                        out.push((now - prev).as_nanos() as u64);
                        prev = now;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ping thread panicked"))
            .collect()
    });
    all.sort_unstable();
    all[all.len() / 2] as f64 / 1e3
}
