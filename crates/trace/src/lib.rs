//! Distributed-computation traces for conjunctive-predicate detection.
//!
//! A [`Computation`] records a single run of a distributed program as the
//! paper models it (Section 2): `N` processes exchanging asynchronous
//! messages over reliable (not necessarily FIFO) channels. Each process
//! execution is a sequence of *communication intervals* separated by send
//! and receive events; each interval carries a boolean flag recording
//! whether the process's local predicate held during that interval.
//!
//! The crate provides:
//!
//! - [`Computation`] / [`ProcessTrace`] / [`Event`] — the trace model, with
//!   structural validation ([`Computation::validate`]),
//! - [`ComputationBuilder`] — an ergonomic way to script computations by
//!   hand (used heavily in tests and examples),
//! - [`Wcp`] — a weak conjunctive predicate: the subset of processes whose
//!   local predicates are conjoined,
//! - [`AnnotatedComputation`] — direct dependences and pred-true
//!   intervals from one replay, vector clocks built on demand (scope-wide
//!   for the [`VcSnapshotQueues`], full-width for happened-before
//!   queries), and cut-consistency checks,
//! - [`generate`] — seeded random workload generators with plantable
//!   satisfying cuts (the repo's substitute for the paper's example
//!   programs),
//! - [`lattice`] — Cooper–Marzullo enumeration of the global-state lattice,
//!   used as independent ground truth in the test suite.
//!
//! # Example
//!
//! ```rust
//! use wcp_clocks::ProcessId;
//! use wcp_trace::{ComputationBuilder, Wcp};
//!
//! // P0 ---m--> P1 ; predicate true at P0 interval 1, P1 interval 2.
//! let mut b = ComputationBuilder::new(2);
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//! b.mark_true(p0);
//! let m = b.send(p0, p1);
//! b.receive(p1, m);
//! b.mark_true(p1);
//! let computation = b.build().expect("valid computation");
//!
//! let wcp = Wcp::over_all(&computation);
//! let annotated = computation.annotate();
//! // (P0,1) happened before (P1,2): the cut ⟨1,2⟩ is NOT consistent...
//! assert!(annotated.first_satisfying_cut(&wcp).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotate;
mod builder;
pub mod channel;
mod computation;
mod event;
pub mod generate;
pub mod lattice;
mod predicate;
pub mod render;
mod stats;

pub use annotate::{AnnotatedComputation, VcSnapshotQueues, CLOCK_CELL_BUDGET};
pub use builder::ComputationBuilder;
pub use channel::{ChannelId, ChannelIndex, MessageSpan};
pub use computation::{Computation, ComputationError, ProcessTrace};
pub use event::{Event, MsgId};
pub use predicate::Wcp;
pub use stats::ComputationStats;
