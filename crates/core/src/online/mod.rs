//! Online (message-driven) variants of the detection algorithms.
//!
//! The actors here run the exact protocols of the paper over the
//! [`wcp_sim`] discrete-event network (and, via `wcp-net`, over real
//! sockets): application processes replay their trace and stream snapshots
//! to mated monitors over FIFO channels; monitors exchange the token, polls
//! and replies over arbitrary asynchronous channels. Blocking receives in
//! the paper's pseudocode become actor state machines.
//!
//! Entry points: [`run_vc_token`] (Section 3) and [`run_direct`]
//! (Section 4, with the optional Section 4.5 parallel red chain).

pub mod app;
pub mod checker_actor;
pub mod dd_monitor;
pub mod harness;
pub mod messages;
pub mod multi_token;
mod testing;
pub mod vc_monitor;

pub use app::{AppProcess, ClockMode};
pub use checker_actor::run_checker;
pub use harness::adapters::{OnlineDirectDetector, OnlineMultiTokenDetector, OnlineTokenDetector};
pub use harness::{
    run_direct, run_direct_recorded, run_vc_token, run_vc_token_recorded, OnlineReport,
};
pub use messages::{ClockTag, DetectMsg, GroupTokenMsg};
pub use multi_token::run_multi_token;
pub use vc_monitor::{OnlineDetection, OnlineStats, SharedOutcome, SharedStats};
