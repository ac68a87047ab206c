//! `pns-obs` — typed event tracing and derived metrics for the product
//! network sorting stack.
//!
//! The crate follows the timely-dataflow logging shape: a cheap,
//! cloneable [`EventLogger`] handle stamps typed [`Event`]s, buffers
//! them **per thread**, and drains whole batches into a pluggable
//! [`Sink`]. A disabled logger costs one branch per call site and
//! never constructs the event (the event expression lives in a closure
//! that is skipped), so the instrumented hot paths in `pns-simulator`
//! pay nothing when tracing is off.
//!
//! Layering: this crate depends only on `serde`/`serde_json` (for the
//! JSONL sink); `pns-core` and `pns-simulator` depend on it and emit
//! events, and `pns-bench` selects sinks via the `PNS_OBS` environment
//! variable (`jsonl[:path]` | `summary` | `profile[:path]` |
//! `prom[:path]` | `off`).
//!
//! On top of the flat events sits v2's timing layer: RAII
//! [`SpanGuard`]s ([`EventLogger::span`]) stamp hierarchical
//! [`Event::SpanEnter`]/[`Event::SpanExit`] pairs whose durations a
//! [`Profile`] aggregates into per-`(tier, stage, round-class)` latency
//! histograms with self-vs-child attribution, and a [`Registry`] of
//! named counters/gauges/histograms snapshots everything as JSON or
//! Prometheus text.
//!
//! The one cross-crate invariant worth stating here: summing the
//! `units` fields of [`Event::S2Unit`] / [`Event::RouteUnit`] in a
//! run's stream reproduces the run's `Counters::s2_units` /
//! `Counters::route_units` exactly — emitters fire exactly where the
//! counters increment. [`ObsSummary`] implements that sum; experiment
//! E17 asserts the reconciliation end to end.

pub mod alloc;
pub mod event;
pub mod logger;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod span;

pub use alloc::CountingAlloc;
pub use event::{Event, TimedEvent};
pub use logger::EventLogger;
pub use metrics::{Histogram, ObsSummary};
pub use profile::{Profile, SpanKey, SpanStat};
pub use registry::Registry;
pub use sink::{
    from_env, sink_from_directive, try_from_env, Directive, DirectiveError, JsonlSink,
    MemoryReader, MemorySink, MultiSink, ProfileSink, PromSink, Sink, SummarySink,
};
pub use span::{SpanClass, SpanGuard, Stage, Tier, ROUND_OBS_MIN_OPS, SORT_OBS_MIN_OPS};
