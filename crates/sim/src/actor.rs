//! The actor abstraction shared by the simulator and the `wcp-net` peers.

use std::fmt;
use std::sync::Arc;

use wcp_obs::json::{FromJson, Json, JsonError, ToJson};
use wcp_obs::Recorder;

/// Identifier of an actor within one [`Simulation`](crate::Simulation) (or
/// one `wcp-net` run).
///
/// Note this is distinct from `wcp_clocks::ProcessId`: a detection setup
/// hosts `2N` actors (`N` application processes plus `N` monitor
/// processes); the mapping between the two id spaces is owned by the
/// detection layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ActorId(u32);

impl ActorId {
    /// Creates an actor id from a zero-based index.
    pub const fn new(index: u32) -> Self {
        ActorId(index)
    }

    /// Zero-based index, usable to index vectors of actors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

// An `ActorId` travels on the wire as a bare integer.
impl ToJson for ActorId {
    fn to_json(&self) -> Json {
        Json::UInt(u64::from(self.0))
    }
}

impl FromJson for ActorId {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let raw = value.expect_u64()?;
        u32::try_from(raw)
            .map(ActorId)
            .map_err(|_| JsonError::shape(format!("ActorId out of range: {raw}")))
    }
}

/// Size of a payload on the wire, in bytes.
///
/// The paper's analyses (Sections 3.4, 4.4) bound the number of *bits*
/// communicated; the metrics layer uses this trait to account them.
pub trait WireSize {
    /// Number of bytes this value occupies when transmitted.
    fn wire_size(&self) -> usize;
}

/// What an actor may do while handling an event.
///
/// Both the discrete-event [`Simulation`](crate::Simulation) and the
/// `wcp-net` peers implement this trait, so the same actor code runs on
/// either substrate.
pub trait Context<M> {
    /// This actor's own id.
    fn me(&self) -> ActorId;

    /// Sends `msg` asynchronously to `to`. Delivery order is only
    /// guaranteed on channels configured FIFO.
    fn send(&mut self, to: ActorId, msg: M);

    /// Records `units` of algorithmic work for this actor (the unit is
    /// defined by the algorithm; see DESIGN.md §3 "Work accounting").
    fn add_work(&mut self, units: u64);

    /// Requests that the whole run stop after this handler returns (used
    /// when the predicate has been detected).
    fn stop(&mut self);

    /// Current logical time, when the substrate has one. The discrete-event
    /// simulator reports its tick; the net peers have no global clock and
    /// report `0` (observability there uses wall-clock stamps instead).
    fn now(&self) -> u64 {
        0
    }
}

/// A process in the paper's model: a deterministic state machine driven by
/// message deliveries.
///
/// Actors must be `Send` so the same implementation can run on the net
/// peers' worker threads.
pub trait Actor<M>: Send {
    /// Invoked once before any message is delivered.
    fn on_start(&mut self, ctx: &mut dyn Context<M>) {
        let _ = ctx;
    }

    /// Invoked for each delivered message.
    fn on_message(&mut self, ctx: &mut dyn Context<M>, from: ActorId, msg: M);

    /// Hands the actor the recorder its host runs with; actors that
    /// stream protocol events keep it, the rest ignore it.
    fn set_recorder(&mut self, recorder: &Arc<dyn Recorder>) {
        let _ = recorder;
    }

    /// One line of protocol state for a stalled run's panic message, asked
    /// for only once the run has stalled; `None` for actors with nothing to
    /// report.
    fn status(&self) -> Option<String> {
        None
    }
}

/// The stall table of a run that ended without a verdict: one indented
/// line per actor that reports a [`status`](Actor::status).
pub fn status_report<'a, M: 'a>(actors: impl IntoIterator<Item = &'a dyn Actor<M>>) -> String {
    let rows: Vec<String> = actors
        .into_iter()
        .filter_map(|a| a.status())
        .map(|row| format!("  {row}"))
        .collect();
    if rows.is_empty() {
        return "  (no actor reported its state)".to_string();
    }
    rows.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_roundtrip_and_display() {
        let a = ActorId::new(4);
        assert_eq!(a.index(), 4);
        assert_eq!(a.to_string(), "A4");
        assert!(ActorId::new(1) < ActorId::new(2));
    }

    #[test]
    fn wire_size_is_object_safe() {
        struct Two;
        impl WireSize for Two {
            fn wire_size(&self) -> usize {
                2
            }
        }
        let b: Box<dyn WireSize> = Box::new(Two);
        assert_eq!(b.wire_size(), 2);
    }
}
