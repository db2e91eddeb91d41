//! Std-only observability substrate for the WCP detection stack.
//!
//! Every quantitative claim of the paper is a claim about a *trajectory* —
//! where the token travelled, when a candidate died, how deep the snapshot
//! queues grew — yet aggregates alone cannot show any of that. This crate
//! provides the missing layer, with **zero external dependencies** so it
//! builds even when the registry is unreachable:
//!
//! - [`TraceEvent`] / [`StampedEvent`] — the typed vocabulary of things the
//!   detectors do (token hops, eliminations, polls, red-chain hops, …),
//!   each stamped with a logical time, the acting monitor, and optionally
//!   wall-clock nanoseconds (net runs).
//! - [`Recorder`] — the sink trait; [`RingRecorder`] keeps a bounded
//!   in-memory ring, [`NullRecorder`] compiles down to nothing.
//! - [`Log2Histogram`] and [`Counters`] — fixed-size log₂-bucket histograms
//!   and monotone counters for queue delays, buffer depths, work per
//!   interval.
//! - [`json`] — a small JSON value type with serializer and parser, used by
//!   the whole workspace in place of serde (the wire format is identical to
//!   what the previous serde derives produced).
//! - [`jsonl`] — newline-delimited JSON encoding of event streams.
//! - [`RunReport`] — an ASCII token-hop timeline plus per-monitor summary
//!   table rendered from a recorded event stream.
//! - [`rng`] — a seeded, deterministic PRNG (splitmix64-seeded
//!   xoshiro256**) replacing the external `rand` stack for workload
//!   generation and simulated latency.
//!
//! # Example
//!
//! ```rust
//! use wcp_obs::json::ToJson;
//! use wcp_obs::{LogicalTime, Recorder, RingRecorder, TraceEvent};
//!
//! let rec = RingRecorder::new(1024);
//! rec.record(0, LogicalTime::Tick(3), TraceEvent::TokenForwarded { to: 1, bytes: 18 });
//! rec.record(1, LogicalTime::Tick(5), TraceEvent::DetectionFound { cut: vec![2, 1] });
//! let events = rec.events();
//! assert_eq!(events.len(), 2);
//! assert!(events[0].to_json().to_string().contains("TokenForwarded"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
pub mod json;
pub mod jsonl;
pub mod merge;
mod recorder;
mod report;
pub mod rng;

pub use event::{LogicalTime, StampedEvent, TraceEvent};
pub use hist::{Counters, Log2Histogram};
pub use merge::{merge_streams, split_by_monitor};
pub use recorder::{NullRecorder, Recorder, RingRecorder, TeeRecorder, TelemetrySink};
pub use report::RunReport;
