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
use std::sync::Arc;

use wcp_obs::NullRecorder;
use wcp_sim::{Actor, ActorId, Context, SimConfig};
use wcp_trace::{Computation, Wcp};

use crate::online::app::ClockMode;
use crate::online::harness::{actor_ids, simulate, OnlineReport};
use crate::online::messages::{DetectMsg, GroupTokenMsg};
use crate::online::vc_monitor::{
    describe_token_state, MonitorStall, OnlineDetection, SharedOutcome, SharedStats,
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
    fn record_stall(&self) {
        let detail = match &self.token {
            Some(t) => describe_token_state(&t.token),
            None => "no token".to_string(),
        };
        self.stats.lock().unwrap().note_stall(
            self.pos,
            MonitorStall {
                label: format!("group[{}]", self.pos),
                queued: self.queue.len() as u64,
                eot: self.eot,
                done: self.done,
                detail,
            },
        );
    }

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
                self.stats.lock().unwrap().token_hops += 1;
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
                {
                    let mut stats = self.stats.lock().unwrap();
                    stats.max_buffered = stats.max_buffered.max(self.queue.len() as u64);
                }
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
        self.record_stall();
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
    stats: SharedStats,
}

impl Leader {
    fn record_stall(&self) {
        let parked: Vec<usize> = self
            .parked
            .iter()
            .enumerate()
            .filter_map(|(gi, t)| t.as_ref().map(|_| gi))
            .collect();
        self.stats.lock().unwrap().note_stall(
            self.n,
            MonitorStall {
                label: "leader".to_string(),
                queued: parked.len() as u64,
                eot: false,
                done: self.done,
                detail: format!("outstanding={} parked groups={parked:?}", self.outstanding),
            },
        );
    }

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
        self.record_stall();
    }
}

/// Runs the Section 3.5 multi-token algorithm online with `groups` tokens.
///
/// Detects the same cut as [`run_vc_token`](crate::online::run_vc_token);
/// with more groups the monitors work concurrently between leader merges,
/// shrinking simulated detection latency on wide computations.
///
/// # Panics
///
/// Panics if the scope is empty, `groups == 0`, or the computation is
/// invalid.
pub fn run_multi_token(
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
    groups: usize,
) -> OnlineReport {
    let n = wcp.n();
    assert!(n >= 1, "WCP scope must name at least one process");
    assert!(groups >= 1, "need at least one group");
    let groups = self::groups(n, groups);

    // Actor layout: apps 0..N, monitors N..N+n, leader N+n.
    let n_total = computation.process_count();
    let monitors = actor_ids(n_total, n);
    let leader = ActorId::new((n_total + n) as u32);

    simulate(
        computation,
        wcp,
        ClockMode::Vector,
        sim_config,
        Arc::new(NullRecorder),
        false,
        |result, stats| {
            let mut actors: Vec<Box<dyn Actor<DetectMsg>>> = (0..n)
                .map(|pos| {
                    Box::new(GroupMonitor {
                        pos,
                        members: groups
                            .iter()
                            .find(|m| m.contains(&pos))
                            .expect("the groups cover the scope")
                            .clone(),
                        monitors: monitors.clone(),
                        leader,
                        queue: SnapshotBuffer::new(n),
                        eot: false,
                        token: None,
                        done: false,
                        result: result.clone(),
                        stats: stats.clone(),
                    }) as Box<dyn Actor<DetectMsg>>
                })
                .collect();
            actors.push(Box::new(Leader {
                n,
                parked: (0..groups.len())
                    .map(|k| Some(GroupTokenMsg::new(k, n)))
                    .collect(),
                groups,
                monitors: monitors.clone(),
                outstanding: 0,
                done: false,
                result: result.clone(),
                stats: stats.clone(),
            }));
            actors
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detection;
    use crate::online::harness::run_vc_token;
    use wcp_trace::generate::{generate, GeneratorConfig};

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
