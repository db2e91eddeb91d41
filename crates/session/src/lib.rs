//! Multi-tenant WCP detection sessions (DESIGN.md S25).
//!
//! The paper detects *one* conjunctive predicate per run; a production
//! monitor serves many — per-user invariants, per-shard alarms — over the
//! *same* application event stream. This crate is that session layer:
//!
//! - [`store`] — the shared snapshot store: every Figure 2 snapshot lands
//!   **once** in a per-process [`ClockArena`](wcp_clocks::ClockArena);
//!   sessions hold row indices into it, never copies, so the marginal cost
//!   of predicate `k+1` is predicate state, not re-ingested snapshots;
//! - [`registry`] — stable [`PredicateId`]s and the sharded concurrent
//!   session index (std-only: fixed shards under `RwLock`, readers never
//!   block each other);
//! - [`session`] — per-predicate detection state: the
//!   [`StreamingChecker`](wcp_detect::StreamingChecker) elimination
//!   algorithm re-expressed over shared store rows, with scope components
//!   read directly out of full-width clocks (no projection copies) and
//!   per-predicate [`DetectionMetrics`](wcp_detect::DetectionMetrics) in
//!   the paper's units;
//! - [`engine`] — the router: ingests one FIFO local-state stream per
//!   process and groups sessions into *scope classes* (equal process
//!   sets). Each class merges only its own processes' streams into its
//!   own routed log (a deterministic watermark merge, so every ingest
//!   interleaving yields the same log, and no class waits for a process
//!   its predicate does not name), and fans each entry out to the
//!   class's sessions;
//! - [`actors`]/[`runner`] — the service and controller actors, the
//!   family's [`Service`] layout, and its offline and simulator runners
//!   (`wcp-net` hosts the same layout over real sockets, and as `wcp serve
//!   --multi`).
//!
//! The core correctness claim, property-tested here and fuzzed in
//! `wcp-fuzz`: because a class's routed log is the projection of the
//! computation's canonical `(interval, process)` order onto its scope, a
//! pure function of the computation, a session's verdict **and its
//! `DetectionMetrics`** are bit-identical to running that predicate alone
//! on the same stream — no matter how many tenants share the engine, when
//! the session registered, or which transport delivered the snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod engine;
pub mod registry;
pub mod runner;
pub mod session;
pub mod store;

pub use actors::{CollectedVerdicts, MultiController, MultiService, ServiceMirror};
pub use engine::{EngineStats, IngestError, MultiEngine, RegisterError, SessionReport};
pub use registry::PredicateId;
pub use runner::{
    check_registrations, feed_annotated, run_multi_offline, run_multi_sim, run_single_offline,
    MultiReport, PredicateOutcome, Service,
};
pub use session::SessionVerdict;
pub use store::SharedStore;
