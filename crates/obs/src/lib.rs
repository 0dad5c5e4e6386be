//! `cdpd-obs` — zero-dependency observability for the cdpd workspace.
//!
//! Two cooperating layers:
//!
//! * a **metrics registry** ([`metrics`]): named lock-free counters,
//!   gauges, and log-2-bucketed histograms with percentile snapshots.
//!   Handles are `&'static`, updates are single relaxed atomic RMWs,
//!   and the whole registry can be snapshotted/diffed around an
//!   operation ([`MetricsSnapshot::delta`]), or exposed as OpenMetrics
//!   text ([`openmetrics`]).
//! * a **tracing layer** ([`trace`]): thread-local span stacks with
//!   monotonic timing and per-span deltas of *tracked* counters, a
//!   bounded in-memory ring sink, and a JSONL file sink gated by
//!   `CDPD_TRACE=1` / `CDPD_TRACE_FILE=path` (optionally bounded by
//!   `CDPD_TRACE_MAX_BYTES`). [`report`] folds recorded spans into a
//!   flamegraph-style self/total-time tree.
//!
//! Tracing is off by default; the [`span!`] macro then costs one relaxed
//! atomic load and evaluates none of its attribute expressions.
//!
//! ```
//! use cdpd_obs::{counter, span};
//!
//! cdpd_obs::trace::set_enabled(true);
//! {
//!     let _span = span!("demo.outer", items = 3usize);
//!     counter!("demo.widgets").add(3);
//! }
//! let records = cdpd_obs::trace::drain();
//! assert_eq!(records.last().unwrap().name, "demo.outer");
//! cdpd_obs::trace::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod openmetrics;
pub mod report;
pub mod trace;

pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use report::{aggregate, profile_since, Profile, ProfileNode};
pub use trace::{AttrValue, Span, SpanRecord};

/// Cached `&'static` handle to a registry counter.
///
/// The handle is interned once per call site (`OnceLock`), so the
/// steady-state cost of `counter!("name").add(1)` is one relaxed load
/// plus the `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// Like [`counter!`], but the counter is *tracked*: while tracing is
/// enabled, open spans attribute its per-thread deltas.
#[macro_export]
macro_rules! tracked_counter {
    ($name:literal) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::registry().counter_tracked($name))
    }};
}

/// Cached `&'static` handle to a registry gauge.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::registry().gauge($name))
    }};
}

/// Cached `&'static` handle to a registry histogram.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::registry().histogram($name))
    }};
}

/// Open a span: `let _span = span!("advisor.recommend", k = 4);`.
///
/// The span closes when the guard drops. When tracing is disabled this
/// is a single relaxed atomic load and the attribute expressions are
/// **not** evaluated. Attribute values can be any type convertible into
/// [`trace::AttrValue`] (integers, floats, bools, strings, chars).
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::enter(
                $name,
                ::std::vec![$((stringify!($key), $crate::trace::AttrValue::from($val))),*],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    };
}

/// Emit a diagnostic event with `format!` syntax: always printed to
/// stderr, and mirrored into the JSONL trace sink when tracing is
/// enabled.
#[macro_export]
macro_rules! event {
    ($($arg:tt)*) => {
        $crate::trace::emit_event(&::std::format!($($arg)*))
    };
}
