//! `cbs-obs` — the unified observability layer (DESIGN.md §10).
//!
//! Couchbase ships `cbstats`, per-vBucket stats and per-command latency
//! introspection as first-class operator features; this crate is the repro's
//! equivalent substrate, shared by every service so there is exactly one way
//! to count things:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free atomic primitives
//!   with zero-allocation hot-path recording ([`metrics`]).
//! - [`Registry`] — named get-or-create handles, mergeable
//!   [`RegistrySnapshot`]s, and the `service.component.metric` naming
//!   convention ([`registry`]).
//! - [`WindowedHistogram`] — ring of mergeable sub-window histograms
//!   rotated by a logical/injected clock, answering "what is the
//!   distribution *right now*" ([`window`]).
//! - [`TraceStore`] / [`TraceContext`] / [`span`] — the one span model:
//!   Dapper-style causal tracing with a context minted at entry points,
//!   carried across thread and service boundaries, and stitched back into
//!   one bounded span tree per operation. Spans on one thread go to a
//!   thread-local buffer first; slow or failed traces form the slow-op
//!   log, and a request's spans roll up into N1QL `phaseTimes` ([`store`]).
//! - [`Registry::record_event`] — the black-box flight recorder: bounded
//!   per-service rings of structured, timestamp-free lifecycle events
//!   ([`registry`]).
//! - [`PrometheusText`] — text exposition over any set of snapshots
//!   ([`fmt`]).

pub mod fmt;
pub mod metrics;
pub mod registry;
pub mod store;
pub mod window;

pub use fmt::PrometheusText;
pub use metrics::{
    bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer, NUM_BUCKETS,
};
pub use registry::{is_valid_metric_name, EventRec, Registry, RegistrySnapshot};
pub use store::{
    capture, chrome_trace_json, current_context, default_slow_threshold, span, Capture,
    CompletedTrace, SpanGuard, SpanRec, TraceContext, TraceSink, TraceStore, MAX_SPANS_PER_TRACE,
};
pub use window::{WindowedHistogram, WindowedSnapshot, WINDOW_SLOTS};
