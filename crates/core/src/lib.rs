//! Detection algorithms for weak conjunctive predicates.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Garg & Chase, *Distributed Algorithms for Detecting Conjunctive
//! Predicates*, ICDCS 1995): given a single run of a distributed program
//! (a [`wcp_trace::Computation`]) and a weak conjunctive predicate
//! ([`wcp_trace::Wcp`]), find the **first consistent cut** on which every
//! local predicate holds.
//!
//! Five detector families are provided, all behind the [`Detector`] trait:
//!
//! | Detector | Paper | Work | Per-process |
//! |---|---|---|---|
//! | [`CentralizedChecker`] | Garg–Waldecker baseline \[7\] | `O(n²m)` | `O(n²m)` at the checker |
//! | [`TokenDetector`] | §3, Figures 2–3 | `O(n²m)` | `O(nm)` |
//! | [`MultiTokenDetector`] | §3.5 | `O(n²m)` | `O(nm)`, `g`-way parallel |
//! | [`ParallelDetector`] | work-optimal rounds \[arXiv:2008.12516\] | `O(nm)` | `t`-way parallel sweeps |
//! | [`DirectDependenceDetector`] | §4, Figures 4–5 | `O(Nm)` | `O(m)` |
//! | [`LatticeDetector`] | Cooper–Marzullo \[3\] | exponential | — |
//!
//! Each family exists in two forms:
//!
//! - **offline** ([`offline`]) — an exact sequential emulation of the
//!   message-driven protocol operating directly on an annotated trace; this
//!   is what the complexity experiments measure, because it counts exactly
//!   the operations the paper's analyses count;
//! - **online** ([`online`]) — real actors exchanging real (simulated)
//!   messages on [`wcp_sim`], demonstrating that the algorithms are
//!   genuinely distributed; the online and offline variants detect the same
//!   cut.
//!
//! The Section 5 lower-bound adversary lives in [`lower_bound`].
//!
//! # Example
//!
//! ```rust
//! use wcp_clocks::ProcessId;
//! use wcp_detect::{Detection, Detector, TokenDetector};
//! use wcp_trace::{ComputationBuilder, Wcp};
//!
//! // Two processes that are concurrently "in the critical section".
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//! let mut b = ComputationBuilder::new(2);
//! let m = b.send(p0, p1);
//! b.mark_true(p0); // CS₀ during interval 2
//! b.receive(p1, m);
//! b.mark_true(p1); // CS₁ during interval 2
//! let computation = b.build()?;
//!
//! let report = TokenDetector::new().detect(&computation.annotate(), &Wcp::over_first(2));
//! match report.detection {
//!     Detection::Detected { cut } => assert_eq!(cut.as_slice(), &[2, 2]),
//!     Detection::Undetected => unreachable!("mutual exclusion is violated"),
//! }
//! # Ok::<(), wcp_trace::ComputationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod detector;
mod elimination;
pub mod gcp;
pub mod lower_bound;
mod meter;
mod metrics;
pub mod offline;
pub mod online;
mod snapshot;
mod streaming;
mod visit;

pub use audit::{audit_bounds, BoundAudit, BoundLimits};
pub use detector::{Detection, DetectionReport, Detector};
pub use elimination::{Elimination, HeadRow, Heads, ScopedRow};
pub use gcp::{ChannelPredicate, ChannelTerm, Gcp, GcpChecker};
pub use meter::replay_metrics;
pub use metrics::DetectionMetrics;
pub use offline::checker::CentralizedChecker;
pub use offline::direct::DirectDependenceDetector;
pub use offline::hierarchical::HierarchicalChecker;
pub use offline::lattice::LatticeDetector;
pub use offline::multi_token::MultiTokenDetector;
pub use offline::parallel::ParallelDetector;
pub use offline::token::{NextRedStrategy, TokenDetector};
pub use snapshot::{
    dd_snapshot_queues, vc_snapshot_queues, DdSnapshot, SnapshotBuffer, VcSnapshot,
    VcSnapshotQueues,
};
pub use streaming::{StreamingChecker, StreamingStatus};
