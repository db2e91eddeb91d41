//! Real socket transport for the online detection protocols (DESIGN.md
//! S22).
//!
//! Everything else in this workspace exchanges messages through the
//! discrete-event simulator; this crate is the real-concurrency substrate
//! and closes the loop to actual I/O. It provides, bottom to top:
//!
//! - [`codec`] — the one wire encoding: every frame kind, header
//!   included, bit-packed by one `ser`/`de` pair over [`wire2`], with
//!   vector clocks delta-compressed per link. Bytes on the wire are not
//!   the paper's unit: [`wire_size()`](wcp_sim::WireSize) stays the
//!   paper-unit accounting, and [`NetStats`] counts what the same frames
//!   cost under the retired fixed-width encoding;
//! - [`transport`] — the [`Transport`] trait with an in-memory loopback,
//!   the in-process TCP link that reads its own bytes back, and the TCP
//!   transport and reader threads of a standalone `wcp serve` peer, all
//!   over `std::net`;
//! - [`fault`] — seeded deterministic injection of drops, delays,
//!   duplicates, reorders and connection resets, recovered by
//!   retransmission, reconnect and receiver-side dedup; a delayed frame
//!   waits on the worker's virtual clock, not on a thread;
//! - [`peer`] — the per-peer endpoint (sequence numbers, dedup,
//!   resequencing, send-log replay) and the event loop hosting the
//!   unmodified detection actors;
//! - `worker` — the one thread that steps every peer of a run (the
//!   caller's, for an in-process run) and owns the virtual clock held
//!   frames wait on; it parks on a doorbell that only a standalone
//!   peer's TCP reader threads ring;
//! - [`runner`] — the two socket hosts of an online family's layout
//!   (`wcp_detect::online::Layout`): every peer in-process, or one
//!   standalone peer. [`run_net`] runs any detection family in-process,
//!   [`run_vc_token_net`] the Section 3 token, and [`serve_vc_peer`] one
//!   `wcp serve` peer of it, each reporting what the simulator reports,
//!   plus wire-level [`NetStats`];
//! - [`telemetry`] — the sidecar telemetry plane: per-peer
//!   [`SidecarRecorder`]s, bit-packed deltas ([`encode_delta`],
//!   [`decode_delta`]) and the [`TelemetryCollector`] that merges them;
//! - [`multi`] — the multi-tenant session service on the same hosts
//!   ([`run_multi_net`], [`serve_multi_peer`], `wcp serve --multi`):
//!   thousands of predicates registered over one shared snapshot stream,
//!   each with verdict and metrics bit-identical to running it alone;
//! - [`saturation`] — one link pumped flat out ([`saturate`]), the
//!   data-path benchmark.
//!
//! The detection verdict is a function of the computation alone (the first
//! consistent cut satisfying the predicate is unique), so a socket run —
//! even under a tolerated fault schedule — must equal the simulator's
//! verdict bit for bit; the equivalence tests pin exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod multi;
pub mod peer;
pub mod pool;
pub mod runner;
pub mod saturation;
pub mod stats;
pub mod telemetry;
pub mod transport;
pub mod wire2;
mod worker;

pub use codec::{decode_frame, encode_frame, CodecError, Frame, Payload};
pub use fault::{link_seed, FaultyTransport};
pub use multi::{run_multi_net, serve_multi_peer, MultiNetReport};
pub use peer::Endpoint;
pub use pool::{FramePool, PooledBuf};
pub use runner::{
    run_net, run_vc_token_net, serve_vc_peer, NetConfig, NetReport, PeerReport, TransportKind,
};
pub use saturation::{saturate, saturate_loopback, SaturationReport};
pub use stats::{NetCounters, NetStats};
pub use telemetry::{
    decode_delta, encode_delta, SidecarRecorder, TelemetryCollector, TelemetryDelta,
    TELEMETRY_VERSION,
};
pub use transport::{
    spawn_listener, Acceptor, InboxSender, LoopbackTransport, TcpTransport, Transport,
};
pub use wire2::{BitReader, BitWriter, ClockChains};
