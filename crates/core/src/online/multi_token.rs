//! Online multi-token algorithm (paper Section 3.5): group monitors and the
//! leader.
//!
//! Scope monitors are partitioned into `g` contiguous groups. Within a
//! group, the Figure 3 protocol runs on a group token that additionally
//! carries its members' candidate clocks; when a group runs out of red
//! members, the token returns to the leader. Once all `g` tokens are home,
//! the leader merges them, applies the Figure 3 elimination rule across
//! groups, and re-dispatches tokens into groups that still (or newly) have
//! red members. All-green at a merge is detection.

use std::sync::Arc;

use wcp_obs::NullRecorder;
use wcp_sim::{Actor, ActorId, Context, SimConfig};
use wcp_trace::{Computation, Wcp};

use crate::offline::token::Color;
use crate::online::app::ClockMode;
use crate::online::harness::{actor_ids, simulate, OnlineReport};
use crate::online::messages::{DetectMsg, GroupTokenMsg};
use crate::online::vc_monitor::{
    describe_token_state, MonitorStall, OnlineDetection, SharedOutcome, SharedStats,
};
use crate::snapshot::SnapshotBuffer;

/// A group member: runs Figure 3 within its group on the group token.
#[derive(Debug)]
struct GroupMonitor {
    pos: usize,
    n: usize,
    /// Scope positions belonging to this monitor's group, sorted.
    members: Vec<usize>,
    monitors: Vec<ActorId>,
    leader: ActorId,
    queue: SnapshotBuffer,
    eot: bool,
    token: Option<GroupTokenMsg>,
    done: bool,
    result: SharedOutcome,
    stats: SharedStats,
}

impl GroupMonitor {
    fn record_stall(&self) {
        let detail = match &self.token {
            Some(t) => describe_token_state(&t.g, |i| t.color[i]),
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
        let Some(token) = &mut self.token else { return };
        debug_assert_eq!(token.color[self.pos], Color::Red, "token held while green");

        let candidate = loop {
            let Some(row_id) = self.queue.pop() else {
                if self.eot {
                    self.done = true;
                    *self.result.lock().unwrap() = Some(OnlineDetection::Undetected);
                    ctx.stop();
                }
                return;
            };
            ctx.add_work(self.n as u64);
            // Figure 2: the clock's own component is the interval index.
            let interval = self.queue.row(row_id)[self.pos];
            if interval > token.g[self.pos] {
                token.g[self.pos] = interval;
                token.color[self.pos] = Color::Green;
                break row_id;
            }
        };
        let candidate = self.queue.row(candidate);
        token.candidates[self.pos] = Some(candidate.to_vector_clock());

        ctx.add_work(self.n as u64);
        for j in 0..self.n {
            if j == self.pos {
                continue;
            }
            let seen = candidate[j];
            if seen >= token.g[j] && seen > 0 {
                token.g[j] = seen;
                token.color[j] = Color::Red;
            }
        }

        // Next red member of *this group*, cyclically after `pos`; if none,
        // the token goes home to the leader.
        let my_rank = self
            .members
            .iter()
            .position(|&p| p == self.pos)
            .expect("own position is a member");
        let next_in_group = (1..=self.members.len())
            .map(|d| self.members[(my_rank + d) % self.members.len()])
            .find(|&p| token.color[p] == Color::Red && p != self.pos);
        let token = self.token.take().expect("token present");
        self.stats.lock().unwrap().token_hops += 1;
        match next_in_group {
            Some(p) => ctx.send(self.monitors[p], DetectMsg::GroupToken(token)),
            None => ctx.send(self.leader, DetectMsg::GroupToken(token)),
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
    /// Scope position → group index.
    group_of: Vec<usize>,
    /// Group → sorted member positions.
    members: Vec<Vec<usize>>,
    monitors: Vec<ActorId>,
    /// Tokens currently parked at the leader.
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

    fn merge_and_redistribute(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        let n = self.n;
        let g_count = self.members.len();
        ctx.add_work((n * n) as u64);

        let mut g_merged = vec![0u64; n];
        let mut color = vec![Color::Red; n];
        let mut candidates: Vec<Option<wcp_clocks::VectorClock>> = vec![None; n];
        for i in 0..n {
            let owner = self.parked[self.group_of[i]]
                .as_ref()
                .expect("all tokens parked");
            for t in self.parked.iter().flatten() {
                g_merged[i] = g_merged[i].max(t.g[i]);
            }
            candidates[i] = owner.candidates[i].clone();
            color[i] = if owner.color[i] == Color::Green && owner.g[i] == g_merged[i] {
                Color::Green
            } else {
                Color::Red
            };
        }
        // Cross-group Figure 3 elimination.
        for j in 0..n {
            if color[j] != Color::Green {
                continue;
            }
            let cand = candidates[j].as_ref().expect("green ⇒ candidate");
            for i in 0..n {
                if i == j {
                    continue;
                }
                let seen = cand.as_slice()[i];
                if seen >= g_merged[i] && seen > 0 {
                    g_merged[i] = seen;
                    color[i] = Color::Red;
                }
            }
        }

        if color.iter().all(|&c| c == Color::Green) {
            self.done = true;
            *self.result.lock().unwrap() = Some(OnlineDetection::Detected(g_merged));
            ctx.stop();
            return;
        }

        for gi in 0..g_count {
            let has_red = self.members[gi].iter().any(|&p| color[p] == Color::Red);
            if let Some(token) = &mut self.parked[gi] {
                token.g = g_merged.clone();
                token.color = color.clone();
                token.candidates = candidates.clone();
            }
            if has_red {
                let first_red = *self.members[gi]
                    .iter()
                    .find(|&&p| color[p] == Color::Red)
                    .expect("has_red");
                let token = self.parked[gi].take().expect("token parked");
                self.outstanding += 1;
                ctx.send(self.monitors[first_red], DetectMsg::GroupToken(token));
            }
        }
        debug_assert!(
            self.outstanding > 0,
            "red member implies a dispatched token"
        );
    }
}

impl Actor<DetectMsg> for Leader {
    fn on_start(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        // Dispatch a fresh all-red token into every group.
        for (gi, members) in self.members.iter().enumerate() {
            let token = GroupTokenMsg::new(gi, self.n);
            self.outstanding += 1;
            ctx.send(self.monitors[members[0]], DetectMsg::GroupToken(token));
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, _from: ActorId, msg: DetectMsg) {
        match msg {
            DetectMsg::GroupToken(t) => {
                if self.done {
                    return;
                }
                let gi = t.group;
                debug_assert!(self.parked[gi].is_none(), "group token duplicated");
                self.parked[gi] = Some(t);
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
    let g_count = groups.min(n);

    // Actor layout: apps 0..N, monitors N..N+n, leader N+n.
    let n_total = computation.process_count();
    let monitors = actor_ids(n_total, n);
    let leader = ActorId::new((n_total + n) as u32);

    let group_of: Vec<usize> = (0..n).map(|i| i * g_count / n).collect();
    let members: Vec<Vec<usize>> = (0..g_count)
        .map(|gi| (0..n).filter(|&i| group_of[i] == gi).collect())
        .collect();

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
                        n,
                        members: members[group_of[pos]].clone(),
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
                group_of,
                members,
                monitors: monitors.clone(),
                parked: (0..g_count).map(|_| None).collect(),
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
