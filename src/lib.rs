//! `wcp` — distributed detection of weak conjunctive predicates.
//!
//! This is the facade crate of the workspace reproducing Garg & Chase,
//! *Distributed Algorithms for Detecting Conjunctive Predicates*
//! (ICDCS 1995). It re-exports the member crates:
//!
//! - [`clocks`] — vector clocks, scalar clocks, cuts, identifiers,
//! - [`trace`] — the computation model, workload generators, the
//!   global-state lattice,
//! - [`sim`] — the deterministic discrete-event message-passing simulator,
//! - [`detect`] — the detection algorithms themselves (the paper's
//!   contribution) and the Section 5 lower-bound adversary,
//! - [`obs`] — observability: trace recorders, histograms, run reports,
//!   and the dependency-free JSON and RNG utilities the workspace shares,
//! - [`net`] — real socket transport: wire codec, TCP/loopback links,
//!   deterministic fault injection, and socket-connected detection peers,
//! - [`session`] — the multi-tenant session layer: a predicate registry,
//!   shared arena-backed snapshot store, and router serving thousands of
//!   concurrent predicates over one event stream,
//! - [`fuzz`] — the differential conformance fuzzer: seeded campaigns
//!   over every detector family, deterministic shrinking, and the
//!   `tests/corpus/` regression format.
//!
//! # Quickstart
//!
//! ```rust
//! use wcp::clocks::ProcessId;
//! use wcp::detect::{Detection, Detector, TokenDetector};
//! use wcp::trace::{ComputationBuilder, Wcp};
//!
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//! let mut b = ComputationBuilder::new(2);
//! let m = b.send(p0, p1);
//! b.mark_true(p0);
//! b.receive(p1, m);
//! b.mark_true(p1);
//! let computation = b.build()?;
//!
//! let report = TokenDetector::new().detect(&computation.annotate(), &Wcp::over_first(2));
//! assert!(matches!(report.detection, Detection::Detected { .. }));
//! # Ok::<(), wcp::trace::ComputationError>(())
//! ```

#![forbid(unsafe_code)]

pub use wcp_clocks as clocks;
pub use wcp_detect as detect;
pub use wcp_fuzz as fuzz;
pub use wcp_net as net;
pub use wcp_obs as obs;
pub use wcp_record as record;
pub use wcp_session as session;
pub use wcp_sim as sim;
pub use wcp_trace as trace;
