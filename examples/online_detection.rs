//! Running the detection protocols as genuinely distributed systems:
//! each online family lays its actors out once, and the same layout runs
//! first on the deterministic discrete-event simulator (with message
//! latency jitter and non-FIFO reordering), then on the net peers, which
//! carry the same actors' messages over the wire codec, every peer
//! stepped by one worker thread.
//!
//! Every family on every substrate must report the same first satisfying
//! cut.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example online_detection
//! ```

use wcp::detect::online::{run_online, Family, RunOptions};
use wcp::net::{run_net, NetConfig};
use wcp::sim::{LatencyModel, SimConfig};
use wcp::trace::generate::{generate, GeneratorConfig, Topology};
use wcp::trace::Wcp;

fn main() {
    let cfg = GeneratorConfig::new(6, 15)
        .with_seed(7)
        .with_topology(Topology::ClientServer { servers: 2 })
        .with_predicate_density(0.2)
        .with_plant(0.6);
    let generated = generate(&cfg);
    let computation = &generated.computation;
    let wcp = Wcp::over_first(6);
    println!("workload: {}", computation.stats());
    println!("predicate: {wcp}\n");

    let families = [
        Family::VcToken,
        Family::MultiToken { groups: 3 },
        Family::Checker,
        Family::Direct { parallel: false },
        Family::Direct { parallel: true },
    ];

    // Heavy jitter so non-FIFO reordering actually happens.
    let jittery = SimConfig::seeded(11).with_latency(LatencyModel::Uniform { min: 1, max: 40 });
    println!("--- simulated network (latency 1–40 ticks, non-FIFO) ---");
    let mut verdicts = Vec::new();
    for family in families {
        let run = run_online(family, computation, &wcp, jittery.clone());
        println!(
            "{:<12}: {:<28} sim-time {:>5}  hops {:>4}",
            family.to_string(),
            run.report.detection.to_string(),
            run.outcome.time,
            run.report.metrics.token_hops
        );
        verdicts.push(run.report.detection.cut().map(|c| wcp.project(c)));
    }

    println!("\n--- net peers, one worker (loopback wire) ---");
    for family in families {
        let net = run_net(
            family,
            computation,
            &wcp,
            NetConfig::loopback(),
            &RunOptions::default(),
        );
        println!(
            "{:<12}: {:<28} frames {:>5}  bytes {:>6}",
            family.to_string(),
            net.report.detection.to_string(),
            net.net.frames_sent,
            net.net.bytes_sent
        );
        verdicts.push(net.report.detection.cut().map(|c| wcp.project(c)));
    }

    // Cross-substrate, cross-family agreement on the scope projection.
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
    println!("\nAll substrates and algorithm families agree on the first cut.");
}
