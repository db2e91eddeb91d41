//! Randomized property tests for the trace substrate.
//!
//! The key cross-checks: the vector-clock definition of consistency must
//! agree with the lattice (message-closure) definition, and the advancing-
//! cut ground truth must agree with exhaustive lattice search. Each
//! property runs on dozens of random configurations drawn from a fixed
//! seed via `wcp_obs::rng::Rng`, so failures reproduce exactly.

use std::collections::HashMap;

use wcp_clocks::{Cut, Dependence, ProcessId, StateId, VectorClock};
use wcp_obs::rng::Rng;
use wcp_trace::generate::{generate, GeneratorConfig, Topology};
use wcp_trace::lattice::LatticeExplorer;
use wcp_trace::{
    Computation, ComputationBuilder, ComputationError, Event, MsgId, ProcessTrace,
    VcSnapshotQueues, Wcp,
};

const CASES: usize = 64;

fn rand_config(rng: &mut Rng) -> GeneratorConfig {
    let n = rng.gen_range(2usize..5);
    let m = rng.gen_range(1usize..7);
    let topo = match rng.gen_range(0u32..3) {
        0 => Topology::Uniform,
        1 => Topology::Ring,
        _ => Topology::Neighbors {
            degree: rng.gen_range(1usize..3),
        },
    };
    let mut cfg = GeneratorConfig::new(n, m)
        .with_seed(rng.next_u64())
        .with_send_fraction(rng.gen_f64())
        .with_predicate_density(rng.gen_f64() * 0.5)
        .with_topology(topo);
    if rng.gen_bool(0.5) {
        cfg = cfg.with_plant(rng.gen_f64());
    }
    cfg
}

/// Every generated computation is structurally valid.
#[test]
fn generated_is_valid() {
    let mut rng = Rng::seed_from_u64(21);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let g = generate(&cfg);
        assert!(g.computation.validate().is_ok(), "{cfg:?}");
    }
}

/// Vector-clock consistency coincides with message-closure consistency for
/// arbitrary complete cuts.
#[test]
fn consistency_definitions_agree() {
    let mut rng = Rng::seed_from_u64(22);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let ex = LatticeExplorer::new(&g.computation);
        let n = g.computation.process_count();
        for _ in 0..2 {
            // A pseudorandom complete cut.
            let cut: Cut = (0..n)
                .map(|i| {
                    let span = a.interval_count(ProcessId::new(i as u32));
                    rng.next_u64() % span + 1
                })
                .collect();
            assert_eq!(
                a.is_consistent(&cut),
                ex.is_consistent_cut(&cut),
                "cut {cut} disagrees"
            );
        }
    }
}

/// The advancing-cut ground truth equals exhaustive lattice search, both
/// for full-scope and partial-scope predicates.
#[test]
fn advancing_cut_matches_lattice() {
    let mut rng = Rng::seed_from_u64(23);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let scope_n = rng.gen_range(1usize..4);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let n = g.computation.process_count();
        let wcp = Wcp::over_first(scope_n.min(n));

        let via_clocks = a.first_satisfying_full_cut(&wcp);
        let Ok(via_lattice) = LatticeExplorer::new(&g.computation).first_satisfying(&wcp, 200_000)
        else {
            continue;
        };
        assert_eq!(&via_clocks, &via_lattice);

        // And the scope-only cut projects identically.
        let scoped = a.first_satisfying_cut(&wcp);
        assert_eq!(scoped.is_some(), via_clocks.is_some());
        if let (Some(s), Some(f)) = (scoped, via_clocks) {
            assert_eq!(wcp.project(&s), wcp.project(&f));
        }
    }
}

/// Snapshot queues propagate only the scope's columns. Over random traces
/// and subset scopes (processes outside the scope relay causality), every
/// row equals the projection of the `N`-wide table, a build that projects
/// that table gives the same queues, and the first cut compared on the
/// rows is the scope projection of the one compared on the full table.
#[test]
fn scope_clocks_equal_projections_of_the_full_table() {
    let mut rng = Rng::seed_from_u64(29);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..10);
        let cfg = GeneratorConfig::new(n, rng.gen_range(1usize..10))
            .with_seed(rng.next_u64())
            .with_send_fraction(rng.gen_f64())
            .with_predicate_density(rng.gen_f64() * 0.7);
        let g = generate(&cfg);
        let mut scope: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
        scope.push(rng.gen_range(0..n));
        let wcp = Wcp::over(scope.into_iter().map(|p| ProcessId::new(p as u32)));
        // No N-wide table on this annotation: the queues replay the
        // scope's columns, and the cut is compared on them.
        let scoped = g.computation.annotate();
        let queues = VcSnapshotQueues::build(&scoped, &wcp);
        let cut = scoped.first_satisfying_cut(&wcp);

        // This one builds the N-wide table first.
        let full = g.computation.annotate();
        assert_eq!(queues.scope_width(), wcp.n());
        for (pos, &p) in wcp.scope().iter().enumerate() {
            assert_eq!(queues.queue_len(pos), full.true_intervals(p).len());
            for (i, &k) in full.true_intervals(p).iter().enumerate() {
                let clock = full.clock(StateId::new(p, k));
                let projected: Vec<u64> = wcp.scope().iter().map(|&q| clock[q]).collect();
                assert_eq!(
                    queues.clock(pos, i).as_slice(),
                    projected,
                    "{cfg:?} {wcp} {p}"
                );
            }
        }
        assert_eq!(
            VcSnapshotQueues::build(&full, &wcp),
            queues,
            "{cfg:?} {wcp}"
        );
        assert_eq!(
            cut.map(|c| wcp.project(&c)),
            full.first_satisfying_full_cut(&wcp)
                .map(|c| wcp.project(&c)),
            "{cfg:?} {wcp}"
        );
    }
}

/// A planted cut is always consistent, satisfying, and detection finds a
/// cut no later than it.
#[test]
fn planted_cut_guarantees_detection() {
    let mut rng = Rng::seed_from_u64(24);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng).with_plant(0.5);
        let g = generate(&cfg);
        let planted = g.planted.clone().expect("plant requested");
        let a = g.computation.annotate();
        assert!(a.is_consistent(&planted));
        let wcp = Wcp::over_all(&g.computation);
        let first = a
            .first_satisfying_full_cut(&wcp)
            .expect("planted ⇒ detectable");
        assert!(first.le(&planted), "first {first} ≤ planted {planted}");
        assert!(wcp.holds_on(&g.computation, &first));
    }
}

/// The first satisfying cut is the meet (componentwise minimum) of all
/// satisfying cuts (linearity of conjunctive predicates).
#[test]
fn first_cut_is_minimum_of_all() {
    let mut rng = Rng::seed_from_u64(25);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let g = generate(&cfg);
        let wcp = Wcp::over_all(&g.computation);
        let ex = LatticeExplorer::new(&g.computation);
        let Ok(all) = ex.all_satisfying(&wcp, 100_000) else {
            continue;
        };
        let a = g.computation.annotate();
        let first = a.first_satisfying_full_cut(&wcp);
        match (&first, all.is_empty()) {
            (None, true) => {}
            (Some(f), false) => {
                for cut in &all {
                    assert!(f.le(cut), "{f} not ≤ {cut}");
                }
            }
            _ => panic!("lattice and clocks disagree on existence"),
        }
    }
}

/// Happened-before is a strict partial order on sampled states.
#[test]
fn happened_before_is_partial_order() {
    let mut rng = Rng::seed_from_u64(26);
    for _ in 0..16 {
        let cfg = rand_config(&mut rng);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let n = g.computation.process_count();
        let states: Vec<_> = (0..n)
            .flat_map(|i| {
                let p = ProcessId::new(i as u32);
                (1..=a.interval_count(p)).map(move |k| wcp_clocks::StateId::new(p, k))
            })
            .collect();
        for &x in &states {
            assert!(!a.happened_before(x, x));
            for &y in &states {
                for &z in &states {
                    if a.happened_before(x, y) && a.happened_before(y, z) {
                        assert!(a.happened_before(x, z));
                    }
                }
            }
        }
    }
}

/// Per-event Figure 2 replay, kept as the oracle for the annotation: one
/// `VectorClock` per interval, the sender's clock held per message until
/// its receive joins it. Returns `(clocks, deps)` per process and interval.
#[allow(clippy::type_complexity)]
fn per_event_replay(c: &Computation) -> (Vec<Vec<VectorClock>>, Vec<Vec<Option<Dependence>>>) {
    let n = c.process_count();
    let mut clocks: Vec<Vec<VectorClock>> = (0..n)
        .map(|i| {
            let mut first = VectorClock::new(n);
            first.init_process(ProcessId::new(i as u32));
            vec![first]
        })
        .collect();
    let mut deps: Vec<Vec<Option<Dependence>>> = vec![vec![None]; n];
    let mut next = vec![0usize; n];
    let mut in_flight: HashMap<MsgId, VectorClock> = HashMap::new();
    let mut left = c.total_events();
    while left > 0 {
        let before = left;
        for (p, trace) in c.iter() {
            let i = p.index();
            while let Some(&event) = trace.events.get(next[i]) {
                let mut clock = clocks[i].last().unwrap().clone();
                let dep = match event {
                    Event::Send { msg, .. } => {
                        in_flight.insert(msg, clock.clone());
                        None
                    }
                    Event::Receive { from, msg } => {
                        let Some(carried) = in_flight.remove(&msg) else {
                            break;
                        };
                        clock = clock.join(&carried);
                        Some(Dependence::new(from, carried[from]))
                    }
                };
                clock.tick(p);
                clocks[i].push(clock);
                deps[i].push(dep);
                next[i] += 1;
                left -= 1;
            }
        }
        assert!(left < before, "oracle replay stuck");
    }
    (clocks, deps)
}

/// Every interval's clock, dependence and predicate flag equals the
/// per-event replay's.
fn assert_matches_per_event_replay(c: &Computation) {
    let a = c.annotate();
    let (clocks, deps) = per_event_replay(c);
    for (p, trace) in c.iter() {
        let i = p.index();
        assert_eq!(a.interval_count(p), clocks[i].len() as u64);
        for (k, (clock, dep)) in (1u64..).zip(clocks[i].iter().zip(&deps[i])) {
            let s = StateId::new(p, k);
            assert_eq!(a.clock(s).as_slice(), clock.as_slice(), "clock of {s}");
            assert_eq!(a.dependence_at(s), *dep, "dependence of {s}");
        }
        let want: Vec<u64> = (1u64..)
            .zip(&trace.pred)
            .filter_map(|(k, &f)| f.then_some(k))
            .collect();
        assert_eq!(
            a.true_intervals(p),
            want.as_slice(),
            "true intervals of {p}"
        );
    }
}

/// The flat single-replay annotation equals the per-event replay on
/// generated traces of every topology (n ≤ 16) and on a staircase.
#[test]
fn annotation_matches_per_event_replay() {
    let mut rng = Rng::seed_from_u64(27);
    for round in 0..40 {
        let n = rng.gen_range(2usize..17);
        let topology = match round % 5 {
            0 => Topology::Uniform,
            1 => Topology::Ring,
            2 => Topology::ClientServer {
                servers: rng.gen_range(1..n),
            },
            3 => Topology::Neighbors {
                degree: rng.gen_range(1usize..4),
            },
            _ => Topology::Phased {
                phase_len: rng.gen_range(1usize..4),
            },
        };
        let cfg = GeneratorConfig::new(n, rng.gen_range(1usize..16))
            .with_seed(rng.next_u64())
            .with_send_fraction(rng.gen_f64())
            .with_predicate_density(rng.gen_f64() * 0.5)
            .with_topology(topology);
        assert_matches_per_event_replay(&generate(&cfg).computation);
    }

    // A staircase: a token circles a shuffled ring of 9 processes 3 times.
    let mut order: Vec<u32> = (0..9).collect();
    rng.shuffle(&mut order);
    let mut b = ComputationBuilder::new(order.len());
    for step in 0..3 * order.len() {
        let holder = ProcessId::new(order[step % order.len()]);
        let next = ProcessId::new(order[(step + 1) % order.len()]);
        b.mark_true(holder);
        let m = b.send(holder, next);
        b.receive(next, m);
    }
    assert_matches_per_event_replay(&b.build().unwrap());
}

/// One malformed trace per `ComputationError` variant, each reporting
/// exactly that error.
#[test]
fn each_malformed_trace_reports_its_error() {
    let p = ProcessId::new;
    let send = |to, msg| Event::Send {
        to: p(to),
        msg: MsgId::new(msg),
    };
    let recv = |from, msg| Event::Receive {
        from: p(from),
        msg: MsgId::new(msg),
    };
    let of = |per_process: &[&[Event]]| {
        Computation::from_traces(
            per_process
                .iter()
                .map(|events| ProcessTrace {
                    events: events.to_vec(),
                    pred: vec![false; events.len() + 1],
                })
                .collect(),
        )
    };
    let short_pred = Computation::from_traces(vec![
        ProcessTrace::new(),
        ProcessTrace {
            events: vec![send(0, 0)],
            pred: vec![false],
        },
    ]);
    let table = [
        (of(&[]), ComputationError::NoProcesses),
        (
            short_pred,
            ComputationError::PredLengthMismatch {
                process: p(1),
                events: 1,
                pred_len: 1,
            },
        ),
        (
            of(&[&[send(1, 0)], &[recv(0, 0), send(2, 1)]]),
            ComputationError::PeerOutOfRange {
                process: p(1),
                peer: p(2),
            },
        ),
        (
            of(&[&[], &[send(1, 3)]]),
            ComputationError::SelfMessage {
                process: p(1),
                msg: MsgId::new(3),
            },
        ),
        (
            of(&[&[send(1, 2), send(1, 2)], &[recv(0, 2)]]),
            ComputationError::DuplicateSend(MsgId::new(2)),
        ),
        (
            of(&[&[send(1, 2)], &[recv(0, 2), recv(0, 2)]]),
            ComputationError::DuplicateReceive(MsgId::new(2)),
        ),
        (
            of(&[&[send(1, 0)], &[recv(0, 0), recv(0, 4)]]),
            ComputationError::ReceiveWithoutSend(MsgId::new(4)),
        ),
        (
            of(&[&[send(1, 0)], &[recv(2, 0)], &[]]),
            ComputationError::MismatchedEndpoints {
                msg: MsgId::new(0),
                send: (p(0), p(1)),
                receive: (p(2), p(1)),
            },
        ),
        (
            // P1 and P2 each wait for the other's send; P0's send runs.
            of(&[
                &[send(1, 0)],
                &[recv(2, 1), send(2, 2)],
                &[recv(1, 2), send(1, 1)],
            ]),
            ComputationError::CausalCycle { stuck_events: 4 },
        ),
    ];
    for (computation, want) in table {
        assert_eq!(computation.validate(), Err(want.clone()), "{computation}");
    }
}
