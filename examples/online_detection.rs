//! Running the detection protocols as genuinely distributed systems:
//! first on the deterministic discrete-event simulator (with message
//! latency jitter and non-FIFO reordering), then on the net peers, which
//! run the same actors over the wire codec, every peer stepped by one
//! worker thread.
//!
//! Every substrate must report the same first satisfying cut.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example online_detection
//! ```

use wcp::detect::online::{run_direct, run_multi_token, run_vc_token};
use wcp::net::{run_direct_net, run_vc_token_net, NetConfig};
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

    // Heavy jitter so non-FIFO reordering actually happens.
    let jittery = SimConfig::seeded(11).with_latency(LatencyModel::Uniform { min: 1, max: 40 });

    println!("--- simulated network (latency 1–40 ticks, non-FIFO) ---");
    let vc = run_vc_token(computation, &wcp, jittery.clone());
    println!(
        "single token : {:<28} sim-time {:>5}  hops {:>4}",
        vc.report.detection.to_string(),
        vc.outcome.time,
        vc.report.metrics.token_hops
    );
    let mt = run_multi_token(computation, &wcp, jittery.clone(), 3);
    println!(
        "3 tokens     : {:<28} sim-time {:>5}  hops {:>4}",
        mt.report.detection.to_string(),
        mt.outcome.time,
        mt.report.metrics.token_hops
    );
    let dd = run_direct(computation, &wcp, jittery.clone(), false);
    println!(
        "direct-dep   : {:<28} sim-time {:>5}  hops {:>4}",
        dd.report.detection.to_string(),
        dd.outcome.time,
        dd.report.metrics.token_hops
    );
    let ddp = run_direct(computation, &wcp, jittery, true);
    println!(
        "direct-dep ∥ : {:<28} sim-time {:>5}  hops {:>4}",
        ddp.report.detection.to_string(),
        ddp.outcome.time,
        ddp.report.metrics.token_hops
    );

    println!("\n--- net peers, one worker (loopback wire) ---");
    let net_vc = run_vc_token_net(computation, &wcp, NetConfig::loopback());
    println!(
        "single token : {:<28} frames {:>5}  bytes {:>6}",
        net_vc.report.detection.to_string(),
        net_vc.net.frames_sent,
        net_vc.net.bytes_sent
    );
    let net_dd = run_direct_net(computation, &wcp, true, NetConfig::loopback());
    println!(
        "direct-dep ∥ : {:<28} frames {:>5}  bytes {:>6}",
        net_dd.report.detection.to_string(),
        net_dd.net.frames_sent,
        net_dd.net.bytes_sent
    );

    // Cross-substrate agreement.
    assert_eq!(vc.report.detection, mt.report.detection);
    assert_eq!(vc.report.detection, net_vc.report.detection);
    assert_eq!(dd.report.detection, ddp.report.detection);
    assert_eq!(dd.report.detection, net_dd.report.detection);
    let a = computation.annotate();
    if let (Some(c_vc), Some(c_dd)) = (vc.report.detection.cut(), dd.report.detection.cut()) {
        assert_eq!(wcp.project(c_vc), wcp.project(c_dd));
        assert!(a.is_consistent(c_dd));
    }
    println!("\nAll substrates and algorithm families agree on the first cut.");
}
