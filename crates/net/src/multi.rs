//! The multi-tenant detection service over real transport (DESIGN.md
//! S25): `wcp serve --multi` and the in-process runner, both hosting the
//! session family's own layout ([`Service::layout`]).
//!
//! Peer layout: `N + 1` peers for an `N`-process computation. Peer `p`
//! (`p < N`) hosts application process `p` streaming full-width Figure 2
//! snapshots; peer `N` hosts the session service (actor id `N`) with its
//! `MultiEngine`; the controller (actor id `N + 1`) rides on peer 0 and
//! registers predicates, collects `MULTI_VERDICT` frames, and stops the
//! run when the service announces end-of-verdicts. Registration,
//! unregistration and verdict frames ride the same reliability layer
//! (sequence numbers, retransmit, dedup) as snapshots.
//!
//! Each session reads its scope class's routed log: the projection of
//! the computation's canonical `(interval, process)` order onto the
//! predicate's scope, whatever order the frames arrived in. That makes
//! every per-predicate verdict *and* its `DetectionMetrics` a pure
//! function of the computation, so a socket run — loopback or TCP, clean
//! or under a tolerated fault schedule — must be bit-identical to the
//! simulator and to `k` standalone single-predicate runs. The equivalence
//! tests pin exactly that.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use wcp_detect::online::{Layout, RunOptions};
use wcp_session::{MultiReport, Service};
use wcp_trace::Computation;

use crate::runner::{host, serve, NetConfig, NetReport, PeerReport};
use crate::stats::NetCounters;

/// Result of a multi-tenant net run: per-predicate outcomes plus wire
/// verdicts and engine counters — the shape the offline and simulator
/// runners report — and the wire counters of the whole run, including
/// the mirrored `multi_*` session counters.
pub type MultiNetReport = NetReport<MultiReport>;

/// The service's layout over `counters`: the service pumps with
/// `options.pump_threads` workers and mirrors its engine counters and its
/// count of refused messages into `counters` after every message, so the
/// telemetry plane (`wcp stats --net`, `wcp top`) sees them move while
/// the run is in flight — without adding a byte to the verdict path.
fn layout(
    computation: &Computation,
    service: &Service,
    options: &RunOptions,
    counters: &Arc<NetCounters>,
) -> Layout<MultiReport> {
    let mirror = Arc::clone(counters);
    service.layout(
        computation,
        options.pump_threads,
        Some(Box::new(move |stats, rejected| {
            mirror
                .multi_sessions_active
                .store(stats.sessions_active, Ordering::Relaxed);
            mirror
                .multi_routed_events
                .store(stats.routed_events, Ordering::Relaxed);
            mirror
                .multi_detections
                .store(stats.detections, Ordering::Relaxed);
            mirror.multi_rejected.store(rejected, Ordering::Relaxed);
        })),
    )
}

/// Runs `service` over real transport, every peer in-process: every
/// application process on its own peer, the session service on one more.
///
/// # Panics
///
/// Panics if the computation has no processes, a registration is invalid,
/// or the run stalls past the configured deadline.
pub fn run_multi_net(
    computation: &Computation,
    service: &Service,
    config: NetConfig,
    options: &RunOptions,
) -> MultiNetReport {
    let counters = NetCounters::shared();
    let layout = layout(computation, service, options, &counters);
    host(layout, &config, options, counters)
}

/// Runs peer `peer` of a multi-tenant detection as its own OS process —
/// the `wcp serve --multi` entry point. `addrs` lists `N + 1` addresses:
/// one per application process, then the service peer's. The service
/// peer reports every session's outcome, the controller peer (0) the
/// verdicts it collected off the wire.
///
/// Every peer must be started with the same computation and service;
/// peers dial with generous retries so start order does not matter.
///
/// # Errors
///
/// An I/O error naming the address if its own address cannot be bound or
/// another peer's cannot be dialled.
///
/// # Panics
///
/// Panics on bad indices, an invalid registration, or a stall past the
/// deadline.
pub fn serve_multi_peer(
    computation: &Computation,
    service: &Service,
    peer: usize,
    addrs: &[SocketAddr],
    config: NetConfig,
    options: &RunOptions,
) -> io::Result<PeerReport<MultiReport>> {
    let counters = NetCounters::shared();
    let layout = layout(computation, service, options, &counters);
    serve(layout, peer, addrs, &config, options, counters)
}
