//! The centralized checker as an online actor — the Garg–Waldecker
//! baseline (\[7\]) running as a real process, for like-for-like online
//! comparisons with the token algorithms.
//!
//! Every scope process streams its Figure 2 snapshots to the single checker
//! over FIFO channels; the checker runs the one
//! [`Elimination`](crate::Elimination) loop, through a
//! [`StreamingChecker`], as they arrive. All its cost — `O(n²m)` work and
//! `O(nm)` buffered snapshots — lands on one actor, which is exactly the
//! imbalance the paper's distributed algorithms remove.

use wcp_clocks::ProcessId;
use wcp_sim::{Actor, ActorId, Context};
use wcp_trace::{Computation, Wcp};

use crate::detector::DetectionReport;
use crate::online::app::ClockMode;
use crate::online::harness::{detection_layout, DetectActor, Layout};
use crate::online::messages::DetectMsg;
use crate::online::vc_monitor::{stall_row, OnlineDetection, SharedOutcome, SharedStats};
use crate::streaming::{StreamingChecker, StreamingStatus};

/// The checker actor: a [`StreamingChecker`] fed every scope process's
/// snapshots and end-of-trace markers as they arrive.
#[derive(Debug)]
pub struct CheckerProcess {
    /// Application actor id → scope position.
    position_of: Vec<Option<usize>>,
    checker: StreamingChecker,
    result: SharedOutcome,
    stats: SharedStats,
}

impl CheckerProcess {
    /// Builds the checker for `n` scope positions; `position_of[actor]`
    /// maps an application actor index to its scope position.
    pub fn new(
        n: usize,
        position_of: Vec<Option<usize>>,
        result: SharedOutcome,
        stats: SharedStats,
    ) -> Self {
        CheckerProcess {
            position_of,
            checker: StreamingChecker::new(n),
            result,
            stats,
        }
    }
}

impl Actor<DetectMsg> for CheckerProcess {
    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, from: ActorId, msg: DetectMsg) {
        let pos = self.position_of[from.index()].expect("snapshot from non-scope process");
        let work = self.checker.work();
        let status = match msg {
            DetectMsg::VcSnapshot(s) => {
                let status = self.checker.push(pos, s);
                self.stats.buffered(self.checker.peak_buffered());
                status
            }
            DetectMsg::EndOfTrace => self.checker.close(pos),
            other => unreachable!("checker: unexpected {other:?}"),
        };
        ctx.add_work(self.checker.work() - work);
        let verdict = match status {
            StreamingStatus::Detected(g) => Some(OnlineDetection::Detected(g)),
            StreamingStatus::Impossible => Some(OnlineDetection::Undetected),
            StreamingStatus::Pending | StreamingStatus::AlreadyDetected => None,
        };
        if let Some(verdict) = verdict {
            *self.result.lock().unwrap() = Some(verdict);
            ctx.stop();
        }
    }

    fn status(&self) -> Option<String> {
        let n = self.checker.width();
        let depths: Vec<usize> = (0..n).map(|i| self.checker.queued(i)).collect();
        let eot: Vec<bool> = (0..n).map(|i| self.checker.is_closed(i)).collect();
        Some(stall_row(
            "checker",
            depths.iter().sum(),
            eot.iter().all(|&e| e),
            self.result.lock().unwrap().is_some(),
            &format!("queue depths={depths:?} eot={eot:?}"),
        ))
    }
}

/// Lays out the centralized checker: applications `0..N`, each scope
/// process streaming to the checker at `N`, on peer 0.
pub(crate) fn layout(computation: &Computation, wcp: &Wcp) -> Layout<DetectionReport> {
    let n = wcp.n();
    let position_of: Vec<Option<usize>> = ProcessId::all(computation.process_count())
        .map(|p| wcp.position(p))
        .collect();
    detection_layout(
        computation,
        wcp,
        ClockMode::Vector,
        true,
        |result, stats| {
            let checker = CheckerProcess::new(n, position_of, result.clone(), stats.clone());
            vec![(0, Box::new(checker) as DetectActor)]
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::harness::{run_online, run_vc_token, Family, OnlineReport};
    use crate::online::testing::MockCtx;
    use crate::{CentralizedChecker, Detector};
    use std::sync::Arc;
    use wcp_sim::SimConfig;
    use wcp_trace::generate::{generate, GeneratorConfig};

    fn run_checker(c: &Computation, wcp: &Wcp, sim: SimConfig) -> OnlineReport {
        run_online(Family::Checker, c, wcp, sim)
    }

    #[test]
    fn online_checker_matches_offline_checker() {
        for seed in 0..20 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(4);
            let offline = CentralizedChecker::new().detect(&a, &wcp);
            let online = run_checker(&g.computation, &wcp, SimConfig::seeded(seed));
            assert_eq!(online.report.detection, offline.detection, "seed {seed}");
        }
    }

    #[test]
    fn online_checker_matches_online_token() {
        for seed in 0..10 {
            let cfg = GeneratorConfig::new(5, 8)
                .with_seed(seed)
                .with_predicate_density(0.25)
                .with_plant(0.6);
            let g = generate(&cfg);
            let wcp = Wcp::over_first(5);
            let checker = run_checker(&g.computation, &wcp, SimConfig::seeded(1));
            let token = run_vc_token(&g.computation, &wcp, SimConfig::seeded(1));
            assert_eq!(
                checker.report.detection, token.report.detection,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn checker_buffers_grow_with_the_run() {
        let cfg = GeneratorConfig::new(6, 20)
            .with_seed(3)
            .with_predicate_density(0.4);
        let g = generate(&cfg);
        let wcp = Wcp::over_first(6);
        let online = run_checker(&g.computation, &wcp, SimConfig::seeded(0));
        // The checker is a single participant carrying all the work.
        assert_eq!(online.report.metrics.per_process_work.len(), 1);
        assert!(online.report.metrics.max_buffered_snapshots >= 1);
    }

    #[test]
    fn a_dry_closed_queue_behind_an_empty_open_one_is_undetected() {
        // Position 1 ends with no snapshot while position 0 has sent
        // nothing yet: no cut can form, whatever position 0 sends later.
        let result: SharedOutcome = Arc::default();
        let mut checker =
            CheckerProcess::new(2, vec![Some(0), Some(1)], result.clone(), Arc::default());
        let mut ctx = MockCtx::default();
        checker.on_message(&mut ctx, ActorId::new(1), DetectMsg::EndOfTrace);
        assert_eq!(*result.lock().unwrap(), Some(OnlineDetection::Undetected));
        assert!(ctx.stopped);
    }
}
