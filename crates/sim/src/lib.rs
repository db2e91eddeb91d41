//! Deterministic discrete-event simulator for asynchronous message passing.
//!
//! The paper's system model (Section 2) is "a loosely-coupled
//! message-passing system without any shared memory or a global clock",
//! with reliable, not-necessarily-FIFO channels. This crate provides that
//! substrate as a deterministic discrete-event simulation:
//!
//! - [`Actor`] — a process: a state machine reacting to delivered messages,
//! - [`Context`] — what an actor can do: send messages, count work units,
//!   stop the simulation,
//! - [`Simulation`] — the event loop: a seeded network with configurable
//!   latency, per-channel FIFO control, and per-actor metrics.
//!
//! Determinism: given the same actors, configuration and seed, a simulation
//! delivers the same messages in the same order, so every experiment in this
//! repository is replayable.
//!
//! # Example
//!
//! ```rust
//! use wcp_sim::{Actor, ActorId, Context, SimConfig, Simulation, WireSize};
//!
//! #[derive(Clone)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! /// Echoes each ping back with one less hop, stopping at zero.
//! struct Echo;
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut dyn Context<Ping>, from: ActorId, msg: Ping) {
//!         if msg.0 == 0 {
//!             ctx.stop();
//!         } else {
//!             ctx.send(from, Ping(msg.0 - 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let a = sim.add_actor(Box::new(Echo));
//! let b = sim.add_actor(Box::new(Echo));
//! sim.post(a, b, Ping(10)); // inject the first message
//! let outcome = sim.run();
//! assert_eq!(outcome.delivered, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod config;
mod metrics;
mod simulation;

pub use actor::{status_report, Actor, ActorId, Context, WireSize};
pub use config::{FaultConfig, LatencyModel, SimConfig};
pub use metrics::{ActorMetrics, SimMetrics};
pub use simulation::{SimOutcome, SimTime, Simulation, StopReason};
