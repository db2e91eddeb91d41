//! Online (message-driven) variants of the detection algorithms.
//!
//! The actors here run the exact protocols of the paper over the
//! [`wcp_sim`] discrete-event network (and, via `wcp-net`, over real
//! sockets): application processes replay their trace and stream snapshots
//! to mated monitors over FIFO channels; monitors exchange the token, polls
//! and replies over arbitrary asynchronous channels. Blocking receives in
//! the paper's pseudocode become actor state machines.
//!
//! Each family lays its actors out once ([`Family::layout`], a
//! [`Layout`]); [`simulate`] hosts a layout on the simulator, and
//! `wcp-net` hosts the same layouts on socket peers. Entry points:
//! [`run_online`] for any [`Family`], and [`run_vc_token`] (Section 3).

pub mod app;
pub mod checker_actor;
pub mod dd_monitor;
pub mod harness;
pub mod messages;
pub mod multi_token;
mod testing;
pub mod vc_monitor;

pub use app::{AppProcess, ClockMode};
pub use harness::{
    apps, run_online, run_vc_token, simulate, Channel, DetectActor, Family, Layout, OnlineReport,
    Placed, ReportFn, RunOptions,
};
pub use messages::{ClockTag, DetectMsg, GroupTokenMsg};
pub use vc_monitor::{OnlineDetection, OnlineStats, SharedOutcome, SharedStats};
