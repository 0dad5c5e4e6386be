//! Streaming ingestion: the online counterpart of
//! [`summarize`](crate::summarize::summarize).
//!
//! The batch pipeline takes a complete [`Trace`] and windows it after
//! the fact. A live advisor sees one statement at a time, so
//! [`StatementStream`] pushes statements one by one, building each
//! window's weighted [`Block`] as the statements arrive (O(1) amortized
//! per statement), with an optional sliding-window capacity bound.
//!
//! **Batch equivalence** is the design invariant, and holds by
//! construction: [`summarize`](crate::summarize::summarize)`(trace,
//! window_len)` *is* [`StatementStream::summarized`] after pushing the
//! whole trace through an *unbounded* stream, so the window-grouping
//! loop is written once. Everything the online advisor builds on top
//! inherits its batch-equivalence claim from this identity.

use crate::summarize::cost_signature;
use crate::summarize::{Block, SummarizedWorkload, WeightedStatement};
use crate::trace::Trace;
use cdpd_sql::Dml;
use cdpd_types::{Error, Result};
use std::collections::{HashMap, VecDeque};

/// In-progress state of the window currently being filled.
#[derive(Clone, Debug, Default)]
struct OpenWindow {
    /// Deduplicated weighted statements, in first-seen order.
    order: Vec<WeightedStatement>,
    /// `cost_signature → index into order` for O(1) merging.
    by_sig: HashMap<String, usize>,
    /// Raw statements in the window so far.
    len: usize,
}

impl OpenWindow {
    fn push(&mut self, stmt: &Dml) {
        match cost_signature(stmt) {
            Some(sig) => match self.by_sig.get(&sig) {
                Some(&i) => self.order[i].count += 1,
                None => {
                    self.by_sig.insert(sig, self.order.len());
                    self.order.push(WeightedStatement {
                        statement: stmt.clone(),
                        count: 1,
                    });
                }
            },
            None => self.order.push(WeightedStatement {
                statement: stmt.clone(),
                count: 1,
            }),
        }
        self.len += 1;
    }

    fn block(&self, start: usize) -> Block {
        Block {
            start,
            len: self.len,
            weighted: self.order.clone(),
        }
    }
}

/// A sliding window over a statement stream, maintaining per-window
/// weighted blocks incrementally.
///
/// With `max_windows = None` (unbounded) the stream retains every
/// sealed window and reproduces the batch pipeline exactly; with a
/// capacity, the oldest windows are evicted and [`StatementStream::evicted`]
/// (`StatementStream::evicted`) counts them. Block `start` offsets are
/// always absolute trace positions, so evicting history never renumbers
/// what remains.
#[derive(Clone, Debug)]
pub struct StatementStream {
    table: String,
    window_len: usize,
    max_windows: Option<usize>,
    sealed: VecDeque<Block>,
    evicted: usize,
    pushed: usize,
    open: OpenWindow,
}

impl StatementStream {
    /// An unbounded stream over statements for `table`, windowed every
    /// `window_len` statements.
    ///
    /// # Errors
    /// `window_len` must be positive.
    pub fn new(table: impl Into<String>, window_len: usize) -> Result<StatementStream> {
        StatementStream::with_capacity(table, window_len, None)
    }

    /// A stream retaining at most `max_windows` sealed windows
    /// (`None` = unbounded).
    ///
    /// # Errors
    /// `window_len` must be positive, and `max_windows`, when given,
    /// non-zero.
    pub fn with_capacity(
        table: impl Into<String>,
        window_len: usize,
        max_windows: Option<usize>,
    ) -> Result<StatementStream> {
        if window_len == 0 {
            return Err(Error::InvalidArgument("window_len must be positive".into()));
        }
        if max_windows == Some(0) {
            return Err(Error::InvalidArgument(
                "max_windows must be non-zero (use None for unbounded)".into(),
            ));
        }
        Ok(StatementStream {
            table: table.into(),
            window_len,
            max_windows,
            sealed: VecDeque::new(),
            evicted: 0,
            pushed: 0,
            open: OpenWindow::default(),
        })
    }

    /// The target table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The window length, in raw statements.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Total raw statements pushed so far.
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Statements in the open (unsealed) window. The next
    /// [`StatementStream::push`] seals exactly when this is
    /// `window_len - 1`; after a [`StatementStream::force_seal`] that is
    /// no longer a function of [`StatementStream::len`].
    pub fn open_len(&self) -> usize {
        self.open.len
    }

    /// Number of sealed windows currently retained.
    pub fn windows_sealed(&self) -> usize {
        self.sealed.len()
    }

    /// Number of sealed windows evicted to honor the capacity bound.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Ingest one statement. Returns `Some(window_index)` when this
    /// statement completes a window (indices are absolute: the first
    /// window is 0 even after eviction).
    ///
    /// # Errors
    /// The statement must target this stream's table.
    pub fn push(&mut self, stmt: &Dml) -> Result<Option<usize>> {
        if stmt.table() != self.table {
            return Err(Error::InvalidArgument(format!(
                "statement is on table {}, stream is for {}",
                stmt.table(),
                self.table
            )));
        }
        cdpd_obs::counter!("workload.stream.statements").inc();
        self.open.push(stmt);
        self.pushed += 1;
        if self.open.len == self.window_len {
            Ok(Some(self.seal()))
        } else {
            Ok(None)
        }
    }

    /// Ingest a batch of statements, returning the indices of every
    /// window sealed along the way.
    ///
    /// # Errors
    /// Every statement must target this stream's table; ingestion stops
    /// at the first mismatch.
    pub fn push_all<'a>(&mut self, stmts: impl IntoIterator<Item = &'a Dml>) -> Result<Vec<usize>> {
        let mut sealed = Vec::new();
        for stmt in stmts {
            if let Some(i) = self.push(stmt)? {
                sealed.push(i);
            }
        }
        Ok(sealed)
    }

    /// Seal the open window now, even though it is short of
    /// `window_len` — the boundary a serving loop forces on wall-clock
    /// ticks when traffic goes quiet. Returns the sealed window's
    /// absolute index, or `None` if the open window is empty (nothing
    /// to seal). The next pushed statement starts a fresh window.
    pub fn force_seal(&mut self) -> Option<usize> {
        if self.open.len == 0 {
            None
        } else {
            Some(self.seal())
        }
    }

    fn seal(&mut self) -> usize {
        let index = self.evicted + self.sealed.len();
        let start = self.pushed - self.open.len;
        let _span = cdpd_obs::span!("stream.seal", window = index, statements = self.open.len);
        let open = std::mem::take(&mut self.open);
        self.sealed.push_back(open.block(start));
        if let Some(cap) = self.max_windows {
            while self.sealed.len() > cap {
                self.sealed.pop_front();
                self.evicted += 1;
                cdpd_obs::counter!("workload.stream.evicted").inc();
            }
        }
        index
    }

    /// The retained sealed blocks, oldest first.
    pub fn sealed_blocks(&self) -> impl Iterator<Item = &Block> {
        self.sealed.iter()
    }

    /// The most recently sealed block, if any window has sealed and is
    /// still retained.
    pub fn last_sealed(&self) -> Option<&Block> {
        self.sealed.back()
    }

    /// The retained windows as a [`SummarizedWorkload`], including the
    /// open partial window (batch `summarize` also emits a ragged tail
    /// block). For an unbounded stream fed a complete trace this is
    /// bit-identical to [`summarize`](crate::summarize::summarize)`(trace, window_len)`.
    pub fn summarized(&self) -> SummarizedWorkload {
        let mut blocks: Vec<Block> = self.sealed.iter().cloned().collect();
        if self.open.len > 0 {
            blocks.push(self.open.block(self.pushed - self.open.len));
        }
        SummarizedWorkload {
            table: self.table.clone(),
            blocks,
        }
    }

    /// Snapshot the complete stream state for persistence. The open
    /// window is captured as its weighted statements; the dedup map is
    /// derived on [`StatementStream::from_state`], so the round trip is
    /// exact.
    pub fn state(&self) -> StreamState {
        StreamState {
            table: self.table.clone(),
            window_len: self.window_len,
            max_windows: self.max_windows,
            sealed: self.sealed.iter().cloned().collect(),
            evicted: self.evicted,
            pushed: self.pushed,
            open: self.open.order.clone(),
        }
    }

    /// Rebuild a stream from a persisted [`StreamState`]: the inverse
    /// of [`StatementStream::state`]. A restored stream behaves
    /// identically to the one that was saved — same future seals, same
    /// blocks.
    ///
    /// # Errors
    /// [`Error::Corrupt`] unless the state is internally consistent: a
    /// valid window length and capacity, every statement on the
    /// stream's table, an open window strictly smaller than
    /// `window_len`, and a pushed count covering the retained
    /// statements plus one per evicted window.
    pub fn from_state(state: StreamState) -> Result<StatementStream> {
        let corrupt = |what: String| Error::Corrupt(format!("stream state: {what}"));
        let mut stream =
            StatementStream::with_capacity(state.table, state.window_len, state.max_windows)
                .map_err(|e| corrupt(e.to_string()))?;
        let sealed_stmts = state.sealed.iter().flat_map(|b| &b.weighted);
        if let Some(ws) = sealed_stmts
            .chain(&state.open)
            .find(|ws| ws.statement.table() != stream.table)
        {
            return Err(corrupt(format!(
                "statement on table {}, stream is for {}",
                ws.statement.table(),
                stream.table
            )));
        }
        let mut open = OpenWindow::default();
        for ws in state.open {
            if let Some(sig) = cost_signature(&ws.statement) {
                if open.by_sig.insert(sig, open.order.len()).is_some() {
                    return Err(corrupt("open window has duplicate cost signatures".into()));
                }
            }
            open.len = usize::try_from(ws.count)
                .ok()
                .and_then(|n| open.len.checked_add(n))
                .ok_or_else(|| corrupt("open window count overflows".into()))?;
            open.order.push(ws);
        }
        if open.len >= state.window_len {
            return Err(corrupt(format!(
                "open window has {} statements, window length is {}",
                open.len, state.window_len
            )));
        }
        // Every evicted window held at least one statement.
        let accounted = state
            .sealed
            .iter()
            .try_fold(open.len, |sum, b| sum.checked_add(b.len))
            .and_then(|n| n.checked_add(state.evicted));
        if accounted.is_none_or(|n| state.pushed < n) {
            return Err(corrupt(
                "pushed count below the retained and evicted statements".into(),
            ));
        }
        stream.sealed = state.sealed.into();
        stream.evicted = state.evicted;
        stream.pushed = state.pushed;
        stream.open = open;
        Ok(stream)
    }
}

/// Owned snapshot of a [`StatementStream`], produced by
/// [`StatementStream::state`] and consumed by
/// [`StatementStream::from_state`]. All fields are public so callers
/// can serialize them with whatever codec they use.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamState {
    /// Target table.
    pub table: String,
    /// Statements per window.
    pub window_len: usize,
    /// Retention bound (`None` = unbounded).
    pub max_windows: Option<usize>,
    /// Retained sealed blocks, oldest first.
    pub sealed: Vec<Block>,
    /// Sealed windows evicted before this snapshot.
    pub evicted: usize,
    /// Total raw statements ever pushed.
    pub pushed: usize,
    /// The open (unsealed) window's weighted statements.
    pub open: Vec<WeightedStatement>,
}

/// Feed a whole trace through a fresh unbounded stream: the body of
/// the batch entry point [`summarize`](crate::summarize::summarize).
///
/// # Errors
/// Same conditions as [`StatementStream::new`] and
/// [`StatementStream::push`].
pub fn stream_trace(trace: &Trace, window_len: usize) -> Result<StatementStream> {
    let mut stream = StatementStream::new(trace.table(), window_len)?;
    stream.push_all(trace.statements())?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summarize::summarize;
    use crate::{generate, paper};

    fn w1_trace() -> Trace {
        let params = paper::PaperParams {
            domain: 1_000,
            ..Default::default()
        };
        generate(&paper::w1_with(&params), 7)
    }

    #[test]
    fn unbounded_stream_matches_batch_summarize() {
        let trace = w1_trace();
        let stream = stream_trace(&trace, 500).unwrap();
        assert_eq!(stream.summarized(), summarize(&trace, 500).unwrap());
        assert_eq!(stream.windows_sealed(), 30);
        assert_eq!(stream.evicted(), 0);
    }

    #[test]
    fn partial_tail_matches_batch() {
        let trace = w1_trace();
        // 700 does not divide 15_000: the open window must surface as a
        // ragged tail block exactly like batch summarize's.
        let stream = stream_trace(&trace, 700).unwrap();
        assert_eq!(stream.summarized(), summarize(&trace, 700).unwrap());
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let trace = w1_trace();
        let mut stream = StatementStream::with_capacity("t", 500, Some(4)).unwrap();
        stream.push_all(trace.statements()).unwrap();
        assert_eq!(stream.windows_sealed(), 4);
        assert_eq!(stream.evicted(), 26);
        // Retained blocks are the newest four, with absolute offsets.
        let batch = summarize(&trace, 500).unwrap();
        let retained: Vec<_> = stream.sealed_blocks().cloned().collect();
        assert_eq!(retained, batch.blocks[26..]);
        assert_eq!(stream.len(), trace.len());
    }

    #[test]
    fn push_returns_sealed_window_indices() {
        let mut stream = StatementStream::new("t", 2).unwrap();
        let q = |v| Dml::Select(cdpd_sql::SelectStmt::point("t", "a", v));
        assert_eq!(stream.push(&q(1)).unwrap(), None);
        assert_eq!(stream.push(&q(2)).unwrap(), Some(0));
        assert_eq!(stream.push(&q(3)).unwrap(), None);
        assert_eq!(stream.push(&q(4)).unwrap(), Some(1));
        assert!(!stream.is_empty() && stream.len() == 4);
    }

    #[test]
    fn invalid_arguments_rejected() {
        assert!(StatementStream::new("t", 0).is_err());
        assert!(StatementStream::with_capacity("t", 5, Some(0)).is_err());
        let mut stream = StatementStream::new("t", 5).unwrap();
        let wrong = Dml::Select(cdpd_sql::SelectStmt::point("u", "a", 1));
        assert!(stream.push(&wrong).is_err());
    }

    #[test]
    fn state_round_trips_and_inconsistent_state_is_corrupt() {
        let trace = w1_trace();
        let mut stream = StatementStream::with_capacity("t", 500, Some(4)).unwrap();
        stream.push_all(&trace.statements()[..2_250]).unwrap();
        let state = stream.state();
        let restored = StatementStream::from_state(state.clone()).unwrap();
        assert_eq!(restored.state(), state);
        assert_eq!(restored.open_len(), 250);

        let corrupt = |edit: &dyn Fn(&mut StreamState)| {
            let mut bad = state.clone();
            edit(&mut bad);
            let err = StatementStream::from_state(bad).err();
            assert!(matches!(err, Some(Error::Corrupt(_))), "{err:?}");
        };
        corrupt(&|s| s.window_len = 0);
        corrupt(&|s| s.max_windows = Some(0));
        corrupt(&|s| s.window_len = 250);
        corrupt(&|s| s.pushed = 10);
        corrupt(&|s| s.evicted = s.pushed);
        corrupt(&|s| s.open[0].count = u64::MAX);
        corrupt(&|s| s.table = "u".into());
        corrupt(&|s| {
            let dup = s.open[0].clone();
            s.open.push(dup);
        });
    }
}
