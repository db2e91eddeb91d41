//! The experiments (E2–E10). Each regenerates one of the paper's
//! quantitative claims as a markdown table; `harness all` runs them all.

use wcp_detect::lower_bound::run_optimal_algorithm;
use wcp_detect::online::{run_online, Family, OnlineReport};
use wcp_detect::{
    CentralizedChecker, Detector, DirectDependenceDetector, HierarchicalChecker, LatticeDetector,
    MultiTokenDetector, NextRedStrategy, TokenDetector,
};
use wcp_sim::{LatencyModel, SimConfig};

use crate::table::{ratio, Table};
use crate::workloads;

/// An experiment id accepted by [`run_experiment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Agreement sweep (Theorems 3.2/4.3): every algorithm finds the first cut.
    E2,
    /// Token vs checker scaling in `n` and `m` (§3.4).
    E3,
    /// Multi-token parallelism (§3.5).
    E4,
    /// Table 1 metamorphic check: dd mirrors vc.
    E5,
    /// Direct-dependence scaling (§4.4).
    E6,
    /// vc `O(n²m)` vs dd `O(Nm)` crossover (§1, §4).
    E7,
    /// Parallel red chain latency (§4.5).
    E8,
    /// Lower-bound adversary (Theorem 5.1).
    E9,
    /// Lattice baseline blow-up (Cooper–Marzullo \[3\]).
    E10,
    /// Ablation: token-routing strategy (the paper's "send token to M_j
    /// for some red j" leaves the choice open).
    E11,
    /// Online substrate comparison: all algorithm families as real
    /// message-driven processes on the simulated network.
    E12,
    /// The §1 hierarchical-checker blow-up the token algorithm fixes.
    E13,
}

impl Experiment {
    /// Parses an id like `"e3"`.
    pub fn parse(s: &str) -> Option<Experiment> {
        Some(match s.to_ascii_lowercase().as_str() {
            "e2" => Experiment::E2,
            "e3" => Experiment::E3,
            "e4" => Experiment::E4,
            "e5" => Experiment::E5,
            "e6" => Experiment::E6,
            "e7" => Experiment::E7,
            "e8" => Experiment::E8,
            "e9" => Experiment::E9,
            "e10" => Experiment::E10,
            "e11" => Experiment::E11,
            "e12" => Experiment::E12,
            "e13" => Experiment::E13,
            _ => return None,
        })
    }
}

/// Every experiment, in order.
pub fn all_experiments() -> Vec<Experiment> {
    use Experiment::*;
    vec![E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13]
}

/// Runs one experiment, returning its tables.
pub fn run_experiment(e: Experiment) -> Vec<Table> {
    match e {
        Experiment::E2 => e2_agreement(),
        Experiment::E3 => e3_token_vs_checker(),
        Experiment::E4 => e4_multi_token(),
        Experiment::E5 => e5_table1_metamorphic(),
        Experiment::E6 => e6_direct_scaling(),
        Experiment::E7 => e7_crossover(),
        Experiment::E8 => e8_parallel_chain(),
        Experiment::E9 => e9_lower_bound(),
        Experiment::E10 => e10_lattice_blowup(),
        Experiment::E11 => e11_routing_ablation(),
        Experiment::E12 => e12_online_substrates(),
        Experiment::E13 => e13_hierarchical_blowup(),
    }
}

/// E2 — agreement: for a batch of random runs, every detector reports the
/// same first cut as the ground truth (Theorems 3.2 and 4.3).
fn e2_agreement() -> Vec<Table> {
    const RUNS: u64 = 60;
    let mut t = Table::new(
        "E2 — first-cut agreement over random runs (Thm 3.2 / 4.3)",
        &["detector", "runs", "detected", "agree w/ ground truth"],
    );
    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(CentralizedChecker::new()),
        Box::new(TokenDetector::new()),
        Box::new(MultiTokenDetector::new(3)),
        Box::new(DirectDependenceDetector::new()),
    ];
    for d in &detectors {
        let mut detected = 0u64;
        let mut agree = 0u64;
        for seed in 0..RUNS {
            let c = if seed % 2 == 0 {
                workloads::detectable(6, 10, seed)
            } else {
                workloads::noisy(6, 10, seed)
            };
            let wcp = workloads::scope(5);
            let annotated = c.annotate();
            let truth = annotated
                .first_satisfying_cut(&wcp)
                .map(|c| wcp.project(&c));
            let got = d.detect(&annotated, &wcp);
            let got_proj = got.detection.cut().map(|c| wcp.project(c));
            if got.detection.is_detected() {
                detected += 1;
            }
            if got_proj == truth {
                agree += 1;
            }
        }
        t.row([
            d.name().to_string(),
            RUNS.to_string(),
            detected.to_string(),
            format!("{agree}/{RUNS}"),
        ]);
    }
    t.note("Expected: every detector agrees on every run (right column = runs).");
    vec![t]
}

/// E3 — §3.4: token total work `O(n²m)` ≈ checker total, but per-process
/// work and buffer space drop from `O(n²m)`/`O(n²m)` to `O(nm)`/`O(nm)`.
fn e3_token_vs_checker() -> Vec<Table> {
    let mut by_n = Table::new(
        "E3a — sweep n (staircase worst case, m = 40): token distributes the checker's cost",
        &[
            "n",
            "checker work",
            "token work",
            "token max/proc",
            "spread",
            "checker buf",
            "token buf",
            "hops",
        ],
    );
    for n in [2usize, 4, 8, 16, 32] {
        let c = workloads::staircase(n, 20); // m = 40, worst case
        let wcp = workloads::scope(n);
        let a = c.annotate();
        let checker = CentralizedChecker::new().detect(&a, &wcp);
        let token = TokenDetector::new().detect(&a, &wcp);
        by_n.row([
            n.to_string(),
            checker.metrics.total_work().to_string(),
            token.metrics.total_work().to_string(),
            token.metrics.max_process_work().to_string(),
            ratio(token.metrics.total_work(), token.metrics.max_process_work()),
            checker.metrics.max_buffered_snapshots.to_string(),
            token.metrics.max_buffered_snapshots.to_string(),
            token.metrics.token_hops.to_string(),
        ]);
    }
    by_n.note(
        "Expected shape: both totals grow ~n²·m; token max/proc grows only ~n·m (spread → n).",
    );

    let mut by_m = Table::new(
        "E3b — sweep m (staircase worst case, n = 8): all quantities linear in m",
        &["m", "token work", "token max/proc", "msgs", "bytes", "buf"],
    );
    for m in [10usize, 20, 40, 80, 160] {
        let c = workloads::staircase(8, m / 2); // worst case, m events/process
        let wcp = workloads::scope(8);
        let report = TokenDetector::new().detect(&c.annotate(), &wcp);
        by_m.row([
            m.to_string(),
            report.metrics.total_work().to_string(),
            report.metrics.max_process_work().to_string(),
            report.metrics.total_messages().to_string(),
            report.metrics.total_bytes().to_string(),
            report.metrics.max_buffered_snapshots.to_string(),
        ]);
    }
    by_m.note("Expected shape: every column grows ~linearly with m.");
    vec![by_n, by_m]
}

/// E4 — §3.5: more tokens shrink the critical path (offline) and the
/// simulated detection latency (online).
fn e4_multi_token() -> Vec<Table> {
    // Four independent 3-process clusters: a single token must drain the
    // four elimination chains serially; g tokens drain them concurrently.
    const CLUSTERS: usize = 4;
    const PER_CLUSTER: usize = 3;
    const ROUNDS: usize = 15; // m = 30 events per process
    let c = workloads::clustered_staircase(CLUSTERS, PER_CLUSTER, ROUNDS);
    let wcp = workloads::scope(CLUSTERS * PER_CLUSTER);
    let annotated = c.annotate();

    let mut t = Table::new(
        "E4 — multi-token parallelism (4 independent clusters × 3 processes, m = 30)",
        &[
            "g",
            "critical path (offline)",
            "speedup",
            "sim latency (online)",
            "speedup",
            "total work",
        ],
    );
    let mut base_path = 0f64;
    let mut base_lat = 0f64;
    for g in [1usize, 2, 4, 6, 12] {
        let offline = MultiTokenDetector::new(g).detect(&annotated, &wcp);
        let online = run_online(
            Family::MultiToken { groups: g },
            &c,
            &wcp,
            SimConfig::seeded(3),
        );
        assert!(offline.detection.is_detected());
        let path = offline.metrics.parallel_time as f64;
        let lat = online.outcome.time.0 as f64;
        if g == 1 {
            base_path = path;
            base_lat = lat;
        }
        t.row([
            g.to_string(),
            format!("{path:.0}"),
            format!("{:.2}×", base_path / path),
            format!("{lat:.0}"),
            format!("{:.2}×", base_lat / lat),
            offline.metrics.total_work().to_string(),
        ]);
    }
    t.note("Expected shape: critical path and latency shrink toward g = #clusters, then flatten; total work stays comparable.");
    vec![t]
}

/// E5 — Table 1: the direct-dependence algorithm's distributed state mirrors
/// the vc token; both eliminate down to the same first cut.
fn e5_table1_metamorphic() -> Vec<Table> {
    const RUNS: u64 = 100;
    let mut same_cut = 0u64;
    let mut same_verdict = 0u64;
    let mut detected = 0u64;
    for seed in 0..RUNS {
        let c = if seed % 2 == 0 {
            workloads::detectable(7, 12, seed)
        } else {
            workloads::noisy(7, 12, seed)
        };
        let wcp = workloads::scope(7); // n = N: both algorithms cover all processes
        let a = c.annotate();
        let vc = TokenDetector::new().detect(&a, &wcp);
        let dd = DirectDependenceDetector::new().detect(&a, &wcp);
        if vc.detection.is_detected() == dd.detection.is_detected() {
            same_verdict += 1;
        }
        match (vc.detection.cut(), dd.detection.cut()) {
            (Some(vcut), Some(dcut)) => {
                detected += 1;
                if wcp.project(vcut) == wcp.project(dcut) {
                    same_cut += 1;
                }
            }
            (None, None) => {}
            _ => {}
        }
    }
    let mut t = Table::new(
        "E5 — Table 1 correspondence: token.G/color vs M_i.G/M_i.color (n = N = 7)",
        &["runs", "same verdict", "both detected", "identical cut"],
    );
    t.row([
        RUNS.to_string(),
        format!("{same_verdict}/{RUNS}"),
        detected.to_string(),
        format!("{same_cut}/{detected}"),
    ]);
    t.note("Expected: verdicts always agree and every detected cut is identical.");
    vec![t]
}

/// E6 — §4.4: direct-dependence totals grow linearly in `N·m`, per-process
/// cost stays `O(m)` flat as `N` grows.
fn e6_direct_scaling() -> Vec<Table> {
    let mut by_n = Table::new(
        "E6a — sweep N (staircase, m = 30, n = N): totals linear in N, per-process flat",
        &[
            "N",
            "total work",
            "work/N",
            "max/proc",
            "msgs",
            "bytes",
            "buf",
        ],
    );
    for n in [4usize, 8, 16, 32, 64] {
        let c = workloads::staircase(n, 15); // m = 30, worst case
        let wcp = workloads::scope(n);
        let r = DirectDependenceDetector::new().detect(&c.annotate(), &wcp);
        by_n.row([
            n.to_string(),
            r.metrics.total_work().to_string(),
            format!("{:.1}", r.metrics.total_work() as f64 / n as f64),
            r.metrics.max_process_work().to_string(),
            r.metrics.total_messages().to_string(),
            r.metrics.total_bytes().to_string(),
            r.metrics.max_buffered_snapshots.to_string(),
        ]);
    }
    by_n.note("Expected shape: total work ~N·m; work/N and max/proc roughly constant in N.");

    let mut by_m = Table::new(
        "E6b — sweep m (staircase, N = 12): everything linear in m",
        &["m", "total work", "max/proc", "msgs", "hops"],
    );
    for m in [10usize, 20, 40, 80] {
        let c = workloads::staircase(12, m / 2);
        let wcp = workloads::scope(12);
        let r = DirectDependenceDetector::new().detect(&c.annotate(), &wcp);
        by_m.row([
            m.to_string(),
            r.metrics.total_work().to_string(),
            r.metrics.max_process_work().to_string(),
            r.metrics.total_messages().to_string(),
            r.metrics.token_hops.to_string(),
        ]);
    }
    by_m.note("Expected shape: linear in m.");
    vec![by_n, by_m]
}

/// E7 — the headline tradeoff: with `N` fixed, vc-token cost grows ~n²
/// while dd cost stays ~constant; "the relative values of n and N determine
/// which algorithm is more efficient" (§1).
fn e7_crossover() -> Vec<Table> {
    const N_TOTAL: usize = 36;
    const M: usize = 20;
    let mut t = Table::new(
        "E7 — crossover (staircase, N = 36, m = 20): vc-token O(n²m) vs dd O(Nm)",
        &[
            "n (scope)",
            "vc work",
            "vc bytes",
            "dd work",
            "dd bytes",
            "work winner",
            "bytes winner",
        ],
    );
    let c = workloads::staircase(N_TOTAL, M / 2);
    let a = c.annotate();
    for n in [2usize, 4, 6, 9, 12, 18, 24, 36] {
        let wcp = workloads::scope(n);
        let vc = TokenDetector::new().detect(&a, &wcp);
        let dd = DirectDependenceDetector::new().detect(&a, &wcp);
        let (vw, dw) = (vc.metrics.total_work(), dd.metrics.total_work());
        let (vb, db) = (vc.metrics.total_bytes(), dd.metrics.total_bytes());
        t.row([
            n.to_string(),
            vw.to_string(),
            vb.to_string(),
            dw.to_string(),
            db.to_string(),
            if vw <= dw { "vc" } else { "dd" }.to_string(),
            if vb <= db { "vc" } else { "dd" }.to_string(),
        ]);
    }
    t.note("Expected shape: vc columns grow superlinearly with n, dd columns stay ~flat; dd wins once n² outweighs N.");
    vec![t]
}

/// E8 — §4.5: the proactive red chain reduces simulated detection latency.
fn e8_parallel_chain() -> Vec<Table> {
    const SEEDS: u64 = 10;
    let mut t = Table::new(
        "E8 — parallel red chain (§4.5), mean simulated latency over 10 seeds",
        &[
            "N",
            "sequential",
            "parallel",
            "speedup",
            "extra polls (par/seq)",
        ],
    );
    for n in [4usize, 8, 16, 32] {
        let mut seq_lat = 0u64;
        let mut par_lat = 0u64;
        let mut seq_msgs = 0u64;
        let mut par_msgs = 0u64;
        for seed in 0..SEEDS {
            let c = workloads::detectable(n, 20, seed);
            let wcp = workloads::scope(n);
            let sim =
                SimConfig::seeded(seed).with_latency(LatencyModel::Uniform { min: 1, max: 10 });
            let seq = run_online(Family::Direct { parallel: false }, &c, &wcp, sim.clone());
            let par = run_online(Family::Direct { parallel: true }, &c, &wcp, sim);
            assert_eq!(
                seq.report.detection, par.report.detection,
                "N {n} seed {seed}"
            );
            seq_lat += seq.outcome.time.0;
            par_lat += par.outcome.time.0;
            seq_msgs += seq.report.metrics.control_messages;
            par_msgs += par.report.metrics.control_messages;
        }
        t.row([
            n.to_string(),
            format!("{:.0}", seq_lat as f64 / SEEDS as f64),
            format!("{:.0}", par_lat as f64 / SEEDS as f64),
            format!("{:.2}×", seq_lat as f64 / par_lat as f64),
            ratio(par_msgs, seq_msgs),
        ]);
    }
    t.note("Expected shape: parallel latency below sequential, growing with N; message overhead stays near 1×.");
    vec![t]
}

/// E9 — Theorem 5.1: the adversary forces at least `nm − n` deletions out of
/// any comparison-based algorithm.
fn e9_lower_bound() -> Vec<Table> {
    let mut t = Table::new(
        "E9 — lower-bound adversary: forced sequential deletions vs the nm − n bound",
        &[
            "n",
            "m",
            "forced deletions",
            "bound nm−n",
            "nm",
            "bound met",
        ],
    );
    for (n, m) in [
        (2usize, 10u64),
        (4, 10),
        (8, 10),
        (8, 50),
        (16, 50),
        (32, 100),
        (64, 200),
    ] {
        let stats = run_optimal_algorithm(n, m);
        t.row([
            n.to_string(),
            m.to_string(),
            stats.deletions.to_string(),
            stats.bound.to_string(),
            (n as u64 * m).to_string(),
            (stats.deletions >= stats.bound).to_string(),
        ]);
    }
    t.note("Expected: deletions ≥ nm − n always (and ≤ nm): the Ω(nm) bound is forced and tight to within n.");
    vec![t]
}

/// E10 — the Cooper–Marzullo baseline visits exponentially many global
/// states while the token algorithm's work stays polynomial.
fn e10_lattice_blowup() -> Vec<Table> {
    let mut t = Table::new(
        "E10 — lattice baseline blow-up (independent processes, m = 8, detection at the end)",
        &[
            "N",
            "lattice states visited",
            "(m+1)^N",
            "token work",
            "states/work",
        ],
    );
    for n in [2usize, 3, 4, 5, 6] {
        let c = workloads::independent(n, 8, 9);
        let wcp = workloads::scope(n);
        let a = c.annotate();
        let lattice = LatticeDetector::new()
            .with_max_states(5_000_000)
            .detect(&a, &wcp);
        let token = TokenDetector::new().detect(&a, &wcp);
        t.row([
            n.to_string(),
            lattice.metrics.lattice_states_visited.to_string(),
            9u64.pow(n as u32).to_string(),
            token.metrics.total_work().to_string(),
            ratio(
                lattice.metrics.lattice_states_visited,
                token.metrics.total_work(),
            ),
        ]);
    }
    t.note("Expected shape: lattice states = (m+1)^N exactly (exponential); token work grows only polynomially; ratio explodes.");
    vec![t]
}

/// E11 — ablation: Figure 3 leaves the next-red choice open; measure how
/// the routing strategy affects token hops and work (the detected cut is
/// identical by Theorem 3.2).
fn e11_routing_ablation() -> Vec<Table> {
    const SEEDS: u64 = 20;
    let mut t = Table::new(
        "E11 — token-routing ablation (n = 10, m = 20; mean over 20 random runs)",
        &[
            "strategy",
            "token hops",
            "total work",
            "candidates consumed",
        ],
    );
    for (name, strategy) in [
        ("cyclic (default)", NextRedStrategy::Cyclic),
        ("lowest index", NextRedStrategy::LowestIndex),
        ("most behind", NextRedStrategy::MostBehind),
    ] {
        let mut hops = 0u64;
        let mut work = 0u64;
        let mut consumed = 0u64;
        for seed in 0..SEEDS {
            let c = workloads::detectable(10, 20, seed);
            let wcp = workloads::scope(10);
            let r = TokenDetector::new()
                .with_strategy(strategy)
                .detect(&c.annotate(), &wcp);
            assert!(r.detection.is_detected());
            hops += r.metrics.token_hops;
            work += r.metrics.total_work();
            consumed += r.metrics.candidates_consumed;
        }
        t.row([
            name.to_string(),
            format!("{:.1}", hops as f64 / SEEDS as f64),
            format!("{:.1}", work as f64 / SEEDS as f64),
            format!("{:.1}", consumed as f64 / SEEDS as f64),
        ]);
    }
    t.note("All strategies detect the identical first cut (Thm 3.2); the choice only shifts constant factors.");
    vec![t]
}

/// E12 — the paper's architecture (Figure 1) live: every family as online
/// monitor processes exchanging real (simulated) messages. The checker
/// piles work and buffers on one process; the token spreads them; the
/// direct-dependence family trades vector clocks for polls.
fn e12_online_substrates() -> Vec<Table> {
    const SEEDS: u64 = 8;
    let mut t = Table::new(
        "E12 — online comparison (N = 8, m = 20, n = 8; mean over 8 network seeds)",
        &[
            "algorithm",
            "sim latency",
            "monitor work (total)",
            "max/monitor",
            "max buffered",
            "token hops",
        ],
    );
    let c = workloads::detectable(8, 20, 21);
    let wcp = workloads::scope(8);
    type Runner = Box<dyn Fn(u64) -> OnlineReport>;
    let entries: Vec<(&str, Runner)> = [
        ("checker", Family::Checker),
        ("token", Family::VcToken),
        ("multi-token g=4", Family::MultiToken { groups: 4 }),
        ("direct", Family::Direct { parallel: false }),
        ("direct ∥ (§4.5)", Family::Direct { parallel: true }),
    ]
    .map(|(name, family)| {
        let (c, wcp) = (c.clone(), wcp.clone());
        let run: Runner =
            Box::new(move |seed| run_online(family, &c, &wcp, SimConfig::seeded(seed)));
        (name, run)
    })
    .into();
    let mut reference: Option<bool> = None;
    for (name, run) in &entries {
        let mut lat = 0u64;
        let mut work = 0u64;
        let mut max_work = 0u64;
        let mut buf = 0u64;
        let mut hops = 0u64;
        for seed in 0..SEEDS {
            let r = run(seed);
            match reference {
                None => reference = Some(r.report.detection.is_detected()),
                Some(d) => assert_eq!(d, r.report.detection.is_detected(), "{name}"),
            }
            lat += r.outcome.time.0;
            work += r.report.metrics.total_work();
            max_work += r.report.metrics.max_process_work();
            buf += r.report.metrics.max_buffered_snapshots;
            hops += r.report.metrics.token_hops;
        }
        let f = SEEDS as f64;
        t.row([
            name.to_string(),
            format!("{:.0}", lat as f64 / f),
            format!("{:.0}", work as f64 / f),
            format!("{:.0}", max_work as f64 / f),
            format!("{:.0}", buf as f64 / f),
            format!("{:.1}", hops as f64 / f),
        ]);
    }
    t.note("Expected shape: checker's max/monitor equals its total (one hot process) and its buffer dwarfs the others; the token families spread both.");
    vec![t]
}

/// E13 — the Section 1 motivation: the grouped Garg–Waldecker checker must
/// ship exponentially many group-consistent states, while the token
/// algorithm's messages stay linear. Independent processes (maximal
/// concurrency) with all-true predicates are the worst case: a k-member
/// group with c candidates each ships exactly c^k states.
fn e13_hierarchical_blowup() -> Vec<Table> {
    let mut t = Table::new(
        "E13 — hierarchical checker (§1) vs token: states shipped to the overall checker (independent processes, m = 6, all-true predicates)",
        &[
            "n",
            "groups",
            "group size k",
            "states shipped",
            "c^k per group",
            "token msgs",
            "ratio",
        ],
    );
    for (n, groups) in [(4usize, 2usize), (6, 3), (6, 2), (8, 4), (8, 2)] {
        let g = generate_independent(n);
        let a = g.annotate();
        let wcp = workloads::scope(n);
        let h = HierarchicalChecker::new(groups)
            .with_max_states(10_000_000)
            .detect(&a, &wcp);
        let token = TokenDetector::new().detect(&a, &wcp);
        assert_eq!(h.detection, token.detection);
        let k = n / groups;
        let c = 7u64; // m + 1 candidates per process (m = 6, all true)
        t.row([
            n.to_string(),
            groups.to_string(),
            k.to_string(),
            h.metrics.control_messages.to_string(),
            format!("{}", c.pow(k as u32)),
            token.metrics.control_messages.to_string(),
            ratio(h.metrics.control_messages, token.metrics.control_messages),
        ]);
    }
    t.note("Expected shape: states shipped = groups · c^k — exponential in the group size — vs the token's ≤ nm messages.");
    vec![t]
}

/// Fully independent all-true workload for E13.
fn generate_independent(n: usize) -> wcp_trace::Computation {
    wcp_trace::generate::generate(
        &wcp_trace::generate::GeneratorConfig::new(n, 6)
            .with_seed(1)
            .with_send_fraction(1.0)
            .with_predicate_density(1.0),
    )
    .computation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_ids() {
        for e in all_experiments() {
            let name = format!("{e:?}").to_lowercase();
            assert_eq!(Experiment::parse(&name), Some(e));
        }
        assert_eq!(Experiment::parse("e99"), None);
    }

    #[test]
    fn e2_reports_full_agreement() {
        let tables = run_experiment(Experiment::E2);
        for row in &tables[0].rows {
            let agree = row.last().unwrap();
            let runs = &row[1];
            assert_eq!(agree, &format!("{runs}/{runs}"), "detector {}", row[0]);
        }
    }

    #[test]
    fn e5_reports_identity() {
        let tables = run_experiment(Experiment::E5);
        let row = &tables[0].rows[0];
        assert_eq!(row[1], format!("{}/{}", row[0], row[0]));
        let detected = &row[2];
        assert_eq!(row[3], format!("{detected}/{detected}"));
    }

    #[test]
    fn e9_all_bounds_met() {
        let tables = run_experiment(Experiment::E9);
        for row in &tables[0].rows {
            assert_eq!(row.last().unwrap(), "true");
        }
    }
}
