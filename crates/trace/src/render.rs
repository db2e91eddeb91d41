//! Space-time diagrams of computations.
//!
//! Renders a recorded run the way distributed-computing papers draw them
//! (one line per process, events in causal order), as plain text or as
//! Graphviz DOT. A detected cut can be overlaid — the fastest way to *see*
//! why a predicate was (or wasn't) detected.
//!
//! # Example
//!
//! ```rust
//! use wcp_clocks::ProcessId;
//! use wcp_trace::render::{ascii, DiagramOptions};
//! use wcp_trace::ComputationBuilder;
//!
//! let mut b = ComputationBuilder::new(2);
//! b.mark_true(ProcessId::new(0));
//! let m = b.send(ProcessId::new(0), ProcessId::new(1));
//! b.receive(ProcessId::new(1), m);
//! let c = b.build()?;
//! let diagram = ascii(&c, &DiagramOptions::default());
//! assert!(diagram.contains("P0"));
//! assert!(diagram.contains("S0")); // send of message m0
//! assert!(diagram.contains("R0")); // its receive
//! # Ok::<(), wcp_trace::ComputationError>(())
//! ```

use std::fmt::Write as _;

use wcp_clocks::Cut;

use crate::computation::Computation;
use crate::event::Event;

/// Rendering options.
#[derive(Debug, Clone, Default)]
pub struct DiagramOptions {
    /// A cut to overlay (drawn as `┊` between the intervals it separates).
    pub cut: Option<Cut>,
    /// Mark predicate-true intervals with `=` instead of `-`.
    pub show_predicates: bool,
}

impl DiagramOptions {
    /// Options with a cut overlay and predicate marking.
    pub fn with_cut(cut: Cut) -> Self {
        DiagramOptions {
            cut: Some(cut),
            show_predicates: true,
        }
    }
}

/// Assigns each event a global column such that program order and message
/// order are respected (a receive is strictly right of its send).
fn layout(computation: &Computation) -> Vec<Vec<usize>> {
    let mut cols: Vec<Vec<usize>> = computation
        .traces()
        .iter()
        .map(|t| Vec::with_capacity(t.events.len()))
        .collect();
    computation
        .replay(|p, _, send| {
            let prev = cols[p.index()].last().copied().unwrap_or(0);
            let sent = send.map_or(0, |(q, j)| cols[q.index()][j]);
            cols[p.index()].push(prev.max(sent) + 1);
        })
        .expect("invalid computation cannot be laid out");
    cols
}

/// Renders the computation as a text space-time diagram.
///
/// Each process is one line; `S<k>`/`R<k>` mark the send and receive of
/// message `m<k>`; with [`DiagramOptions::show_predicates`], segments where
/// the local predicate holds are drawn with `=`. A cut renders as `┊`
/// immediately after the last event inside it.
///
/// # Panics
///
/// Panics if the computation is invalid.
pub fn ascii(computation: &Computation, options: &DiagramOptions) -> String {
    let cols = layout(computation);
    let max_col = cols.iter().flatten().copied().max().unwrap_or(0);
    let label_width = computation
        .traces()
        .iter()
        .flat_map(|t| &t.events)
        .map(|e| format!("{}", e.msg().as_u64()).len() + 1)
        .max()
        .unwrap_or(2)
        .max(2);
    let cell = label_width + 2;
    let width = (max_col + 1) * cell + 2;

    let mut out = String::new();
    for (p, trace) in computation.iter() {
        let mut line: Vec<char> = vec![' '; width];
        let event_pos = |e: usize| cols[p.index()][e] * cell;
        // Fill each interval's segment.
        for k in 1..=trace.interval_count() as u64 {
            let start = if k == 1 {
                0
            } else {
                event_pos((k - 2) as usize) + label_width
            };
            let end = if (k as usize) <= trace.events.len() {
                event_pos((k - 1) as usize)
            } else {
                width
            };
            let ch = segment_char(trace, k, options);
            for c in line.iter_mut().take(end).skip(start) {
                *c = ch;
            }
        }
        // Event labels.
        for (e, event) in trace.events.iter().enumerate() {
            let tag = match event {
                Event::Send { msg, .. } => format!("S{}", msg.as_u64()),
                Event::Receive { msg, .. } => format!("R{}", msg.as_u64()),
            };
            for (o, ch) in tag.chars().enumerate() {
                line[event_pos(e) + o] = ch;
            }
        }
        // Cut marker: overwrite the first segment character of interval k.
        if let Some(cut) = &options.cut {
            if let Some(k) = cut.get(p) {
                if k >= 1 && k <= trace.interval_count() as u64 {
                    let pos = if k == 1 {
                        0
                    } else {
                        event_pos((k - 2) as usize) + label_width
                    };
                    line[pos.min(width - 1)] = '┊';
                }
            }
        }
        let _ = write!(out, "{:<4}", p.to_string());
        out.extend(line.iter());
        // Trim trailing spaces/segments of the final run for tidiness.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

fn segment_char(trace: &crate::ProcessTrace, interval: u64, options: &DiagramOptions) -> char {
    if options.show_predicates && trace.pred_at(interval) {
        '='
    } else {
        '-'
    }
}

/// Renders the computation as a Graphviz DOT digraph: one subgraph rank per
/// process, program-order edges, message edges, predicate-true states
/// filled, and (optionally) the cut's states outlined in bold.
///
/// Pipe the output through `dot -Tsvg` to visualize.
pub fn dot(computation: &Computation, options: &DiagramOptions) -> String {
    let mut out = String::new();
    out.push_str("digraph computation {\n  rankdir=LR;\n  node [shape=circle, fontsize=10];\n");
    // State nodes: one per interval.
    for (p, trace) in computation.iter() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", p.index());
        let _ = writeln!(out, "    label=\"{p}\"; color=lightgrey;");
        for k in 1..=trace.interval_count() as u64 {
            let mut attrs = Vec::new();
            if options.show_predicates && trace.pred_at(k) {
                attrs.push("style=filled, fillcolor=palegreen".to_string());
            }
            if options.cut.as_ref().and_then(|c| c.get(p)) == Some(k) {
                attrs.push("penwidth=3, color=red".to_string());
            }
            let _ = writeln!(
                out,
                "    s_{}_{k} [label=\"{k}\"{}{}];",
                p.index(),
                if attrs.is_empty() { "" } else { ", " },
                attrs.join(", ")
            );
        }
        // Program-order edges.
        for k in 1..trace.interval_count() as u64 {
            let label = match trace.events[(k - 1) as usize] {
                Event::Send { msg, .. } => format!("send m{}", msg.as_u64()),
                Event::Receive { msg, .. } => format!("recv m{}", msg.as_u64()),
            };
            let _ = writeln!(
                out,
                "    s_{0}_{k} -> s_{0}_{next} [label=\"{label}\", fontsize=8];",
                p.index(),
                k = k,
                next = k + 1,
            );
        }
        out.push_str("  }\n");
    }
    // Message edges: send interval → receive interval.
    let matching = computation.matching();
    for (p, trace) in computation.iter() {
        for (e, ev) in trace.events.iter().enumerate() {
            if let Some((sp, j)) = matching.send_of(p, e) {
                let _ = writeln!(
                    out,
                    "  s_{}_{} -> s_{}_{} [style=dashed, color=blue, label=\"m{}\", fontsize=8];",
                    sp.index(),
                    j + 1,
                    p.index(),
                    e + 2,
                    ev.msg().as_u64()
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;
    use wcp_clocks::ProcessId;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample() -> Computation {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        b.build().unwrap()
    }

    #[test]
    fn ascii_contains_events_and_processes() {
        let s = ascii(&sample(), &DiagramOptions::default());
        assert!(s.contains("P0"));
        assert!(s.contains("P1"));
        assert!(s.contains("S0"));
        assert!(s.contains("R0"));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn ascii_marks_true_intervals() {
        let opts = DiagramOptions {
            cut: None,
            show_predicates: true,
        };
        let s = ascii(&sample(), &opts);
        assert!(
            s.contains('='),
            "true interval should be drawn with =:\n{s}"
        );
    }

    #[test]
    fn ascii_overlays_cut() {
        let opts = DiagramOptions::with_cut(Cut::from_indices(vec![2, 2]));
        let s = ascii(&sample(), &opts);
        assert_eq!(s.matches('┊').count(), 2, "one marker per process:\n{s}");
    }

    #[test]
    fn receive_is_right_of_send() {
        let cols = layout(&sample());
        assert!(cols[1][0] > cols[0][0], "R0 must be right of S0");
    }

    #[test]
    fn dot_is_well_formed() {
        let opts = DiagramOptions::with_cut(Cut::from_indices(vec![1, 2]));
        let s = dot(&sample(), &opts);
        assert!(s.starts_with("digraph"));
        assert!(s.ends_with("}\n"));
        assert!(s.contains("cluster_0"));
        assert!(s.contains("style=dashed"), "message edge present");
        assert!(s.contains("penwidth=3"), "cut highlight present");
        assert!(s.contains("palegreen"), "true state filled");
        // Balanced braces.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn empty_computation_renders() {
        let c = ComputationBuilder::new(1).build().unwrap();
        let s = ascii(&c, &DiagramOptions::default());
        assert!(s.contains("P0"));
        let d = dot(&c, &DiagramOptions::default());
        assert!(d.contains("s_0_1"));
    }
}
