//! The [`OnlineAdvisor`] as a serving-loop citizen.
//!
//! Statements execute on session threads, concurrently; the advisor
//! only observes them. This loop drains the channel the sessions feed —
//! each executed workload statement with its predicted-vs-actual pair
//! ([`cdpd::calibrate::pair`]) — and runs [`OnlineAdvisor::step`] on
//! every message, or on a wall-clock tick when traffic goes quiet. The
//! step is the one [`cdpd::replay::drive`] runs too: at each seal it
//! folds the window's calibration, refreshes statistics, decides,
//! persists the spent budget on a durable database, and applies a
//! changed design as an *online* build that interleaves with the
//! foreground sessions instead of stalling them. This loop only counts
//! what the steps did.
//!
//! Advisor failures (an infeasible solve, a statement on the wrong
//! table, a failed build) are counted and skipped: an advisory
//! subsystem must never take serving down with it. A failure after a
//! window sealed stops the session, so every later step is counted as
//! an error too; a restart resumes the state the last good seal saved.

use cdpd::calibrate::{CalibrationOptions, CostPair};
use cdpd::online::Observed;
use cdpd::OnlineAdvisor;
use cdpd_engine::{Database, DdlReport};
use cdpd_sql::Dml;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// What a session needs to feed the advisor loop: the channel, and the
/// calibration knobs its pairs are made under.
#[derive(Clone)]
pub(crate) struct Feed {
    pub(crate) tx: Sender<(Dml, Option<CostPair>)>,
    pub(crate) calibration: CalibrationOptions,
}

/// The advisor's state and audit trail after the serving loop ends.
pub struct AdvisorReport {
    /// The advisor, with its full decision log
    /// ([`OnlineAdvisor::decisions`]) — ready for
    /// [`OnlineAdvisor::finish`] or state persistence.
    pub advisor: OnlineAdvisor,
    /// Design changes actually applied (decisions with
    /// [`cdpd::OnlineDecision::changed`]), in application order.
    pub applied: Vec<DdlReport>,
    /// Advisor errors skipped to keep the serving loop alive.
    pub errors: u64,
}

/// Run the advisor loop until every sender is gone and the queue is
/// drained, then force-seal the tail window so the last partial window
/// still produces a decision. Called on a dedicated thread by
/// [`crate::Server::run`].
pub(crate) fn run(
    db: &Database,
    advisor: OnlineAdvisor,
    rx: &Receiver<(Dml, Option<CostPair>)>,
    tick: Duration,
    threads: usize,
) -> AdvisorReport {
    let mut report = AdvisorReport {
        advisor,
        applied: Vec::new(),
        errors: 0,
    };
    loop {
        let message = rx.recv_timeout(tick);
        let input = match &message {
            Ok((stmt, pair)) => Observed::Statement(stmt, *pair),
            // A quiet wire seals whatever the open window holds, so the
            // design keeps adapting at wall-clock cadence; so does the
            // tail of a draining server, once every sender is gone.
            Err(_) => Observed::Tick,
        };
        // Count, never propagate. A decision is counted once its DDL
        // has been applied, so a client that sees
        // `server.advisor.decisions` move knows the design has too.
        match report.advisor.step(db, input, threads) {
            Ok(None) => {}
            Ok(Some(step)) => {
                if let Some(ddl) = step.applied {
                    cdpd_obs::counter!("server.advisor.applied").inc();
                    report.applied.push(ddl);
                }
                cdpd_obs::counter!("server.advisor.decisions").inc();
            }
            Err(_) => {
                report.errors += 1;
                cdpd_obs::counter!("server.advisor.errors").inc();
            }
        }
        if let Err(RecvTimeoutError::Disconnected) = message {
            return report;
        }
    }
}
