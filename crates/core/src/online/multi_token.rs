//! Online multi-token algorithm (paper Section 3.5): group monitors and the
//! leader.
//!
//! Scope monitors are partitioned into `g` contiguous groups. Within a
//! group, the Figure 3 protocol runs on a group token that additionally
//! carries its members' candidate clocks; when a group runs out of red
//! members, the token returns to the leader. Once all `g` tokens are home,
//! the leader merges them, applies the Figure 3 elimination rule across
//! groups, and re-dispatches tokens into groups that still (or newly) have
//! red members. All-green at a merge is detection. The visit, the routing
//! and the merge are the offline [`MultiTokenDetector`](crate::MultiTokenDetector)'s
//! (`crate::visit`), so on a detected run both report the same work, hops
//! and control traffic.

use std::ops::Range;

use wcp_obs::NullRecorder;
use wcp_sim::{Actor, ActorId, Context};
use wcp_trace::{Computation, Wcp};

use crate::detector::DetectionReport;
use crate::online::app::ClockMode;
use crate::online::harness::{detection_layout, DetectActor, Layout, Placed};
use crate::online::messages::{DetectMsg, GroupTokenMsg};
use crate::online::vc_monitor::{
    describe_token_state, stall_row, OnlineDetection, SharedOutcome, SharedStats,
};
use crate::snapshot::SnapshotBuffer;
use crate::visit::{first_red, groups, merge, next_red_member, visit, ActorEffects, Inbox, Visit};

/// A group member: runs Figure 3 within its group on the group token.
#[derive(Debug)]
struct GroupMonitor {
    pos: usize,
    /// Scope positions of this monitor's group.
    members: Range<usize>,
    monitors: Vec<ActorId>,
    leader: ActorId,
    queue: SnapshotBuffer,
    eot: bool,
    token: Option<Box<GroupTokenMsg>>,
    done: bool,
    result: SharedOutcome,
    stats: SharedStats,
}

impl GroupMonitor {
    fn try_advance(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        if self.done {
            return;
        }
        let Some(t) = &mut self.token else { return };
        let mut inbox = Inbox {
            queue: &mut self.queue,
            eot: self.eot,
        };
        match visit(
            &mut t.token,
            self.pos,
            &mut inbox,
            &mut ActorEffects::new(ctx, &NullRecorder),
        ) {
            Visit::Blocked => return,
            Visit::Exhausted => {
                self.done = true;
                *self.result.lock().unwrap() = Some(OnlineDetection::Undetected);
                ctx.stop();
                return;
            }
            Visit::Accepted(id) => {
                t.candidates[self.pos] = Some(self.queue.row(id).to_vector_clock());
            }
        }
        let next = next_red_member(&t.token, &self.members, self.pos);
        let token = DetectMsg::GroupToken(self.token.take().expect("token present"));
        match next {
            Some(p) => {
                self.stats.hop();
                ctx.send(self.monitors[p], token);
            }
            // No red member left: home to the leader, a control message.
            None => ctx.send(self.leader, token),
        }
    }
}

impl Actor<DetectMsg> for GroupMonitor {
    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, _from: ActorId, msg: DetectMsg) {
        match msg {
            DetectMsg::VcSnapshot(s) => {
                self.queue.push(&s);
                self.stats.buffered(self.queue.len() as u64);
                self.try_advance(ctx);
            }
            DetectMsg::EndOfTrace => {
                self.eot = true;
                self.try_advance(ctx);
            }
            DetectMsg::GroupToken(t) => {
                if self.done {
                    return;
                }
                debug_assert!(self.token.is_none(), "duplicate group token");
                self.token = Some(t);
                self.try_advance(ctx);
            }
            other => unreachable!("group monitor {}: unexpected {other:?}", self.pos),
        }
    }

    fn status(&self) -> Option<String> {
        Some(stall_row(
            &format!("group[{}]", self.pos),
            self.queue.len(),
            self.eot,
            self.done,
            &describe_token_state(self.token.as_ref().map(|t| &t.token)),
        ))
    }
}

/// The Section 3.5 leader: collects all group tokens, merges, redistributes.
#[derive(Debug)]
struct Leader {
    n: usize,
    groups: Vec<Range<usize>>,
    monitors: Vec<ActorId>,
    /// Tokens currently parked at the leader, by group.
    parked: Vec<Option<GroupTokenMsg>>,
    /// Tokens currently circulating in their groups.
    outstanding: usize,
    done: bool,
    result: SharedOutcome,
}

impl Leader {
    /// Sends every parked token that has a red member to the first one.
    fn dispatch(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        for (slot, members) in self.parked.iter_mut().zip(&self.groups) {
            let Some(at) = slot.as_ref().and_then(|t| first_red(&t.token, members)) else {
                continue;
            };
            let token = Box::new(slot.take().expect("token parked"));
            self.outstanding += 1;
            ctx.send(self.monitors[at], DetectMsg::GroupToken(token));
        }
    }

    fn merge_and_redistribute(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        ctx.add_work((self.n * self.n) as u64);
        let mut tokens: Vec<GroupTokenMsg> = self
            .parked
            .iter_mut()
            .map(|t| t.take().expect("all tokens parked"))
            .collect();
        let detected = merge(&mut tokens, &self.groups);
        self.parked = tokens.into_iter().map(Some).collect();
        if let Some(g) = detected {
            self.done = true;
            *self.result.lock().unwrap() = Some(OnlineDetection::Detected(g));
            ctx.stop();
            return;
        }
        self.dispatch(ctx);
        debug_assert!(
            self.outstanding > 0,
            "red member implies a dispatched token"
        );
    }
}

impl Actor<DetectMsg> for Leader {
    fn on_start(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        // Every group starts with a fresh all-red token.
        self.dispatch(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, _from: ActorId, msg: DetectMsg) {
        match msg {
            DetectMsg::GroupToken(t) => {
                if self.done {
                    return;
                }
                let gi = t.group;
                debug_assert!(self.parked[gi].is_none(), "group token duplicated");
                self.parked[gi] = Some(*t);
                self.outstanding -= 1;
                if self.outstanding == 0 {
                    self.merge_and_redistribute(ctx);
                }
            }
            other => unreachable!("leader: unexpected {other:?}"),
        }
    }

    fn status(&self) -> Option<String> {
        let parked: Vec<usize> = (0..self.parked.len())
            .filter(|&gi| self.parked[gi].is_some())
            .collect();
        Some(stall_row(
            "leader",
            parked.len(),
            false,
            self.done,
            &format!("outstanding={} parked groups={parked:?}", self.outstanding),
        ))
    }
}

/// Lays out the Section 3.5 multi-token algorithm with `groups` tokens:
/// applications `0..N`, group monitors `N..N+n` (monitor `pos` on peer
/// `pos`), and the leader at `N+n`, on peer 0.
///
/// Detects the same cut as the single token; with more groups the
/// monitors work concurrently between leader merges, shrinking simulated
/// detection latency on wide computations.
pub(crate) fn layout(
    computation: &Computation,
    wcp: &Wcp,
    groups: usize,
) -> Layout<DetectionReport> {
    let n = wcp.n();
    assert!(groups >= 1, "need at least one group");
    let groups = self::groups(n, groups);
    let n_total = computation.process_count();
    let monitors: Vec<ActorId> = (0..n)
        .map(|pos| ActorId::new((n_total + pos) as u32))
        .collect();
    let leader = ActorId::new((n_total + n) as u32);
    detection_layout(
        computation,
        wcp,
        ClockMode::Vector,
        false,
        |result, stats| {
            let mut actors: Vec<Placed> = (0..n)
                .map(|pos| {
                    let members = groups
                        .iter()
                        .find(|m| m.contains(&pos))
                        .expect("the groups cover the scope")
                        .clone();
                    let monitor = GroupMonitor {
                        pos,
                        members,
                        monitors: monitors.clone(),
                        leader,
                        queue: SnapshotBuffer::new(n),
                        eot: false,
                        token: None,
                        done: false,
                        result: result.clone(),
                        stats: stats.clone(),
                    };
                    (pos as u32, Box::new(monitor) as DetectActor)
                })
                .collect();
            let leader = Leader {
                n,
                parked: (0..groups.len())
                    .map(|k| Some(GroupTokenMsg::new(k, n)))
                    .collect(),
                groups,
                monitors,
                outstanding: 0,
                done: false,
                result: result.clone(),
            };
            actors.push((0, Box::new(leader)));
            actors
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detection;
    use crate::online::harness::{run_online, run_vc_token, Family, OnlineReport};
    use wcp_sim::SimConfig;
    use wcp_trace::generate::{generate, GeneratorConfig};

    fn run_multi_token(c: &Computation, wcp: &Wcp, sim: SimConfig, groups: usize) -> OnlineReport {
        run_online(Family::MultiToken { groups }, c, wcp, sim)
    }

    #[test]
    fn multi_token_online_matches_single_token() {
        for seed in 0..20 {
            let cfg = GeneratorConfig::new(6, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let wcp = Wcp::over_first(6);
            let single = run_vc_token(&g.computation, &wcp, SimConfig::seeded(2));
            for groups in [1usize, 2, 3, 6] {
                let multi = run_multi_token(&g.computation, &wcp, SimConfig::seeded(2), groups);
                assert_eq!(
                    multi.report.detection, single.report.detection,
                    "seed {seed} groups {groups}"
                );
            }
        }
    }

    #[test]
    fn more_groups_help_latency_on_wide_runs() {
        let mut wins = 0usize;
        let total = 12usize;
        for seed in 0..total as u64 {
            let cfg = GeneratorConfig::new(8, 12)
                .with_seed(seed)
                .with_predicate_density(0.3)
                .with_plant(0.8);
            let g = generate(&cfg);
            let wcp = Wcp::over_first(8);
            let t1 = run_multi_token(&g.computation, &wcp, SimConfig::seeded(4), 1);
            let t4 = run_multi_token(&g.computation, &wcp, SimConfig::seeded(4), 4);
            assert_eq!(t1.report.detection, t4.report.detection, "seed {seed}");
            if t4.outcome.time <= t1.outcome.time {
                wins += 1;
            }
        }
        assert!(wins * 2 >= total, "4 groups won only {wins}/{total}");
    }

    #[test]
    fn undetected_propagates_through_groups() {
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(5)
                .with_predicate_density(0.0),
        );
        let wcp = Wcp::over_first(4);
        let r = run_multi_token(&g.computation, &wcp, SimConfig::seeded(0), 2);
        assert_eq!(r.report.detection, Detection::Undetected);
    }
}
