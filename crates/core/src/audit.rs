//! Paper-bound auditing of merged telemetry timelines.
//!
//! The telemetry plane collects every peer's event stream and merges them
//! into one causally ordered timeline (`wcp_obs::merge_streams`). This
//! module folds that timeline back into paper units — messages, bits,
//! token hops, detection latency in causal steps — and checks them
//! against the Theorem bounds of Section 3.4: the token is sent at most
//! `(m+1)·n` times, at most `(m+1)·n` candidate snapshots are queued
//! (so `O(nm)` messages total), and every message is `O(n)` words
//! (so `O(n²m)` bits total).
//!
//! The audited counters come from [`replay_metrics`], i.e. from exactly
//! the events the detectors record in lockstep with their metrics, so an
//! audit over a faithfully merged timeline is an audit of the run itself.
//! [`BoundLimits`] carries the slack factors; [`BoundLimits::exact`]
//! (factor 1 on the combinatorial bounds) is the default, and
//! [`BoundLimits::sabotaged`] shrinks every limit to zero so the fuzz
//! battery can prove the auditor actually fires.

use wcp_obs::{StampedEvent, TraceEvent};

use crate::meter::replay_metrics;

/// Slack multipliers over the paper's Section 3.4 bounds.
///
/// The combinatorial counts (hops, messages) hold exactly — factor 1 —
/// for the online vector-clock token detector; the bit bound gets its
/// `O(n)` word constant from the concrete wire encoding (see
/// [`BoundLimits::bytes_per_message`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundLimits {
    /// Multiplier on the `(m+1)·n` token-hop bound.
    pub hop_factor: u64,
    /// Multiplier on the `2·(m+1)·n` total-message bound.
    pub message_factor: u64,
    /// Multiplier on the bit bound.
    pub bit_factor: u64,
}

impl BoundLimits {
    /// Factor-1 limits: the Theorem bounds as stated.
    pub fn exact() -> Self {
        BoundLimits {
            hop_factor: 1,
            message_factor: 1,
            bit_factor: 1,
        }
    }

    /// Every limit zero: any run with traffic violates. The fuzz
    /// battery's self-test — an auditor that passes sabotaged limits on
    /// a real run is not checking anything.
    pub fn sabotaged() -> Self {
        BoundLimits {
            hop_factor: 0,
            message_factor: 0,
            bit_factor: 0,
        }
    }

    /// Per-message byte allowance for scope size `n`: both the token
    /// (vector clock + candidate cursor) and a candidate snapshot
    /// (interval + vector clock) are at most `16 + 16·n` bytes on this
    /// implementation's wire — the concrete constant behind the paper's
    /// "`O(n)` words per message".
    pub fn bytes_per_message(n: u64) -> u64 {
        16 + 16 * n
    }
}

impl Default for BoundLimits {
    fn default() -> Self {
        BoundLimits::exact()
    }
}

/// The outcome of auditing one merged timeline against [`BoundLimits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundAudit {
    /// Scope size `n` (number of conjuncts).
    pub n: u64,
    /// `m + 1`: intervals per process (a process with `m` events has at
    /// most `m + 1` candidate intervals).
    pub m1: u64,
    /// Measured token hops.
    pub token_hops: u64,
    /// Limit: `hop_factor · (m+1) · n`.
    pub hop_limit: u64,
    /// Measured messages (control + snapshot).
    pub messages: u64,
    /// Limit: `message_factor · 2 · (m+1) · n`.
    pub message_limit: u64,
    /// Measured bits (control + snapshot payload bytes, times 8).
    pub bits: u64,
    /// Limit: `bit_factor · 2 · (m+1) · n · bytes_per_message(n) · 8`.
    pub bit_limit: u64,
    /// Detection latency in causal steps: the number of token movements
    /// on the merged timeline before the verdict event — the length of
    /// the token's causal chain when detection fired.
    pub detection_steps: u64,
    /// Limit: same as the hop limit (each step is one hop).
    pub step_limit: u64,
    /// Human-readable description of every exceeded bound; empty when
    /// the audit passes.
    pub violations: Vec<String>,
}

impl BoundAudit {
    /// Whether every measured counter is within its limit.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A compact multi-line report, one row per audited bound.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "paper-bound audit (n = {}, m+1 = {})\n",
            self.n, self.m1
        ));
        let row = |name: &str, got: u64, limit: u64| {
            let verdict = if got <= limit { "ok" } else { "VIOLATED" };
            format!("  {name:<16} {got:>12} / {limit:<12} {verdict}\n")
        };
        out.push_str(&row("token hops", self.token_hops, self.hop_limit));
        out.push_str(&row("messages", self.messages, self.message_limit));
        out.push_str(&row("bits", self.bits, self.bit_limit));
        out.push_str(&row("causal steps", self.detection_steps, self.step_limit));
        out
    }
}

/// Audits a merged telemetry timeline against the Section 3.4 bounds for
/// scope size `n` and `m1 = m + 1` intervals per process.
///
/// The timeline is folded with [`replay_metrics`], so it must contain
/// the monitors' protocol events (transport-level events are ignored by
/// the fold). Pass [`BoundLimits::exact`] for the Theorem bounds as
/// stated, or scaled limits for detectors with different constants.
pub fn audit_bounds(
    n: usize,
    m1: u64,
    timeline: &[StampedEvent],
    limits: &BoundLimits,
) -> BoundAudit {
    let n = n as u64;
    let metrics = replay_metrics(n as usize, timeline);
    let messages = metrics.control_messages + metrics.snapshot_messages;
    let bits = (metrics.control_bytes + metrics.snapshot_bytes) * 8;
    // Detection latency in causal steps: the length of the token's
    // movement chain up to the verdict event. (Raw logical times won't
    // do — the online simulator's ticks also advance on application
    // deliveries — but every token movement is itself recorded, so the
    // causal chain is counted directly off the merged timeline.)
    let mut detection_steps = 0u64;
    for e in timeline {
        match e.event {
            TraceEvent::TokenForwarded { .. } | TraceEvent::RedChainHop { .. } => {
                detection_steps += 1;
            }
            TraceEvent::DetectionFound { .. } | TraceEvent::DetectionExhausted => break,
            _ => {}
        }
    }

    let hop_limit = limits.hop_factor * m1 * n;
    let message_limit = limits.message_factor * 2 * m1 * n;
    let bit_limit = limits.bit_factor * 2 * m1 * n * BoundLimits::bytes_per_message(n) * 8;
    let step_limit = hop_limit;

    let mut violations = Vec::new();
    if metrics.token_hops > hop_limit {
        violations.push(format!(
            "token hops {} exceed the (m+1)·n bound {} (O(nm) messages, §3.4)",
            metrics.token_hops, hop_limit
        ));
    }
    if messages > message_limit {
        violations.push(format!(
            "messages {messages} exceed the 2·(m+1)·n bound {message_limit} (O(nm), §3.4)"
        ));
    }
    if bits > bit_limit {
        violations.push(format!(
            "bits {bits} exceed the O(n²m) bound {bit_limit} (§3.4, O(n) words per message)"
        ));
    }
    if detection_steps > step_limit {
        violations.push(format!(
            "detection after {detection_steps} causal steps exceeds the hop bound {step_limit}"
        ));
    }

    BoundAudit {
        n,
        m1,
        token_hops: metrics.token_hops,
        hop_limit,
        messages,
        message_limit,
        bits,
        bit_limit,
        detection_steps,
        step_limit,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wcp_obs::{merge_streams, split_by_monitor, RingRecorder};
    use wcp_sim::SimConfig;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::Wcp;

    use crate::online::{simulate, Family, RunOptions};

    fn recorded_run(seed: u64) -> (Vec<StampedEvent>, usize, u64) {
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(seed)
                .with_predicate_density(0.3)
                .with_plant(0.6),
        );
        let wcp = Wcp::over_first(3);
        let ring = Arc::new(RingRecorder::new(1 << 16));
        simulate(
            Family::VcToken.layout(&g.computation, &wcp),
            SimConfig::seeded(1),
            &RunOptions::recorded(ring.clone()),
        );
        let m1 = g.computation.max_events_per_process() as u64 + 1;
        (ring.events(), wcp.n(), m1)
    }

    #[test]
    fn online_vc_runs_pass_the_exact_bounds() {
        for seed in 0..10u64 {
            let (events, n, m1) = recorded_run(seed);
            // Audit the *merged* per-stream split, as the fuzz oracle
            // does: the round trip must not change the fold.
            let streams = split_by_monitor(&events);
            let borrowed: Vec<(u32, &[StampedEvent])> =
                streams.iter().map(|(m, s)| (*m, s.as_slice())).collect();
            let merged = merge_streams(&borrowed);
            let audit = audit_bounds(n, m1, &merged, &BoundLimits::exact());
            assert!(audit.ok(), "seed {seed}:\n{}", audit.render());
            assert!(audit.messages > 0, "seed {seed}: audit saw no traffic");
        }
    }

    #[test]
    fn sabotaged_limits_are_caught() {
        let (events, n, m1) = recorded_run(0);
        let audit = audit_bounds(n, m1, &events, &BoundLimits::sabotaged());
        assert!(!audit.ok(), "zeroed bounds must be violated by any run");
        assert!(audit.render().contains("VIOLATED"));
    }

    #[test]
    fn empty_timeline_passes_trivially() {
        let audit = audit_bounds(3, 5, &[], &BoundLimits::exact());
        assert!(audit.ok());
        assert_eq!(audit.messages, 0);
        assert_eq!(audit.detection_steps, 0);
    }

    #[test]
    fn render_shows_every_bound_row() {
        let (events, n, m1) = recorded_run(1);
        let audit = audit_bounds(n, m1, &events, &BoundLimits::exact());
        let rendered = audit.render();
        for name in ["token hops", "messages", "bits", "causal steps"] {
            assert!(rendered.contains(name), "missing row {name}");
        }
    }
}
