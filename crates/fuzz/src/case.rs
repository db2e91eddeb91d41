//! The fuzz case model: one self-contained description of a differential
//! check — workload generator, predicate scope, channel behaviour, and
//! which optional detector stacks to exercise.
//!
//! A [`FuzzCase`] round-trips through JSON so a shrunk repro can be pinned
//! under `tests/corpus/` and replayed forever.

use wcp_clocks::ProcessId;
use wcp_obs::json::{FromJson, Json, JsonError, ToJson};
use wcp_obs::rng::Rng;
use wcp_sim::{FaultConfig, LatencyModel};
use wcp_trace::generate::{GeneratorConfig, Topology};
use wcp_trace::{Computation, Wcp};

/// Schema tag written into every corpus file; bump on incompatible change.
pub const CASE_SCHEMA: &str = "wcp-fuzz-case-v1";

/// One differential-conformance check, fully determined by its fields.
///
/// Everything a detector's behaviour can depend on is in here: the
/// generated computation (via [`GeneratorConfig`]), the predicate scope,
/// the simulated channel order (`sim_seed` + `latency`), the multi-token
/// group count, the streaming interleave (`stream_seed`), and the optional
/// socket-level fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Workload: topology, size, plant, predicate density.
    pub gen: GeneratorConfig,
    /// Number of scope processes (`Wcp::over_first`), clamped to `N` at use.
    pub scope_n: usize,
    /// Seed for the online simulator's event queue tie-breaking.
    pub sim_seed: u64,
    /// Channel latency model for the online simulator.
    pub latency: LatencyModel,
    /// Multi-token / hierarchical group count (`>= 1`).
    pub groups: usize,
    /// Seed for the streaming checker's push/close interleave.
    pub stream_seed: u64,
    /// Socket fault schedule for the net runs, if any.
    pub fault: Option<FaultConfig>,
    /// Whether to run the detectors on socket peers, over loopback and
    /// in-process TCP (slow).
    pub net: bool,
    /// Concurrent predicate count for the multi-tenant session engine
    /// (`>= 1`); each is cross-checked predicate-by-predicate against the
    /// Theorem 3.2 oracle and the alone-metrics identity. Corpus files
    /// written before this field existed default to `1`.
    pub multi_predicates: usize,
    /// Whether the multi-tenant cross-check also drives the sharded
    /// parallel pump and pins its report bit-identical to the serial
    /// engine's. Corpus files written before this field existed default
    /// to `false` (they pinned serial-pump behaviour).
    pub pump_parallel: bool,
    /// Whether the offline battery also runs the work-optimal
    /// `ParallelDetector` with a multi-thread worker pool and pins its
    /// report (verdict, metrics, event stream) bit-identical to the
    /// single-thread run. Corpus files written before this field existed
    /// default to `false` (they pinned single-thread behaviour).
    pub parallel_detect: bool,
}

impl FuzzCase {
    /// The predicate scope for this case over `computation`: the first
    /// `scope_n` processes, clamped to `[1, N]`.
    pub fn wcp(&self, computation: &Computation) -> Wcp {
        let n = computation.process_count().max(1);
        Wcp::over_first(self.scope_n.clamp(1, n))
    }

    /// Draws a random case. Degenerate shapes (single process, empty
    /// traces, all-true and never-true predicates, no plant) are sampled
    /// deliberately often: that is where edge-case bugs live.
    pub fn random(rng: &mut Rng) -> FuzzCase {
        let n = if rng.gen_bool(0.1) {
            1
        } else {
            rng.gen_range(2usize..7)
        };
        let m = if rng.gen_bool(0.08) {
            0
        } else {
            rng.gen_range(1usize..10)
        };
        let topology = match rng.gen_range(0u32..5) {
            0 => Topology::Uniform,
            1 => Topology::Ring,
            2 if n >= 2 => Topology::ClientServer {
                servers: rng.gen_range(1usize..n),
            },
            3 => Topology::Neighbors {
                degree: rng.gen_range(1usize..3),
            },
            4 => Topology::Phased {
                phase_len: rng.gen_range(1usize..4),
            },
            _ => Topology::Uniform,
        };
        let send_fraction = if rng.gen_bool(0.1) {
            0.0
        } else {
            0.1 + rng.gen_f64() * 0.8
        };
        let predicate_density = match rng.gen_range(0u32..10) {
            0 => 1.0, // all-true local predicates
            1 => 0.0, // never-true local predicates
            _ => 0.05 + rng.gen_f64() * 0.55,
        };
        let mut gen = GeneratorConfig::new(n, m)
            .with_seed(rng.next_u64())
            .with_topology(topology)
            .with_send_fraction(send_fraction)
            .with_predicate_density(predicate_density);
        if rng.gen_bool(0.5) {
            gen = gen.with_plant(rng.gen_f64());
        }
        let latency = if rng.gen_bool(0.4) {
            LatencyModel::Fixed {
                ticks: rng.gen_range(0u64..3),
            }
        } else {
            LatencyModel::Uniform { min: 1, max: 25 }
        };
        let fault = if rng.gen_bool(0.25) {
            Some(FaultConfig {
                seed: rng.next_u64(),
                drop: rng.gen_f64() * 0.05,
                duplicate: rng.gen_f64() * 0.05,
                delay: rng.gen_f64() * 0.05,
                max_delay_ms: rng.gen_range(1u64..4),
                reorder: rng.gen_f64() * 0.05,
                reset: rng.gen_f64() * 0.02,
                max_retries: 10,
                backoff_base_ms: 1,
            })
        } else {
            None
        };
        let scope_n = rng.gen_range(1usize..8); // may exceed N; clamped at use
        let sim_seed = rng.next_u64();
        let groups = rng.gen_range(1usize..4);
        let stream_seed = rng.next_u64();
        FuzzCase {
            gen,
            scope_n,
            sim_seed,
            latency,
            groups,
            stream_seed,
            fault,
            net: rng.gen_bool(0.08),
            // Derived from entropy already drawn (no extra rng draw), so
            // existing seeds reproduce the same cases: 1..=8 concurrent
            // predicates.
            multi_predicates: 1 + ((stream_seed >> 16) % 8) as usize,
            // One more derived bit: about half the cases cross-check the
            // parallel pump against the serial engine.
            pump_parallel: (stream_seed >> 8) & 1 == 1,
            // And another: about half the cases run the work-optimal
            // detector's multi-thread leg against its sequential twin.
            parallel_detect: (stream_seed >> 24) & 1 == 1,
        }
    }

    /// Whether the case is realizable as written (generator asserts would
    /// not fire). Shrink candidates that fail this are discarded.
    pub fn is_realizable(&self) -> bool {
        if self.gen.processes == 0 || self.scope_n == 0 || self.groups == 0 {
            return false;
        }
        if self.multi_predicates == 0 {
            return false;
        }
        match self.gen.topology {
            Topology::ClientServer { servers } => servers >= 1 && servers < self.gen.processes,
            Topology::Neighbors { degree } => degree >= 1,
            Topology::Phased { phase_len } => phase_len >= 1,
            _ => true,
        }
    }

    /// The scope as explicit process ids (for diagnostics).
    pub fn scope_ids(&self, computation: &Computation) -> Vec<ProcessId> {
        self.wcp(computation).scope().to_vec()
    }
}

impl ToJson for FuzzCase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("gen", self.gen.to_json()),
            ("scope_n", Json::UInt(self.scope_n as u64)),
            ("sim_seed", Json::UInt(self.sim_seed)),
            ("latency", self.latency.to_json()),
            ("groups", Json::UInt(self.groups as u64)),
            ("stream_seed", Json::UInt(self.stream_seed)),
            (
                "fault",
                match &self.fault {
                    Some(f) => f.to_json(),
                    None => Json::Null,
                },
            ),
            ("net", Json::Bool(self.net)),
            ("multi_predicates", Json::UInt(self.multi_predicates as u64)),
            ("pump_parallel", Json::Bool(self.pump_parallel)),
            ("parallel_detect", Json::Bool(self.parallel_detect)),
        ])
    }
}

impl FromJson for FuzzCase {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let fault = match value.field("fault")? {
            Json::Null => None,
            other => Some(FaultConfig::from_json(other)?),
        };
        Ok(FuzzCase {
            gen: GeneratorConfig::from_json(value.field("gen")?)?,
            scope_n: value.field("scope_n")?.expect_u64()? as usize,
            sim_seed: value.field("sim_seed")?.expect_u64()?,
            latency: LatencyModel::from_json(value.field("latency")?)?,
            groups: value.field("groups")?.expect_u64()? as usize,
            stream_seed: value.field("stream_seed")?.expect_u64()?,
            fault,
            net: value
                .field("net")?
                .as_bool()
                .ok_or_else(|| JsonError::shape("net: expected a bool"))?,
            // Absent in pre-session corpus files: those pinned the
            // single-tenant behaviour, replayed as one session.
            multi_predicates: match value.get("multi_predicates") {
                Some(v) => v.expect_u64()? as usize,
                None => 1,
            },
            // Absent in pre-sharding corpus files: those pinned
            // serial-pump behaviour, so they keep replaying serially.
            pump_parallel: match value.get("pump_parallel") {
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| JsonError::shape("pump_parallel: expected a bool"))?,
                None => false,
            },
            // Absent in pre-work-optimal corpus files: those pinned the
            // single-thread detector, so they keep replaying sequentially.
            parallel_detect: match value.get("parallel_detect") {
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| JsonError::shape("parallel_detect: expected a bool"))?,
                None => false,
            },
        })
    }
}

/// Wraps a case in the corpus envelope: schema tag, human note, case body.
pub fn corpus_entry(case: &FuzzCase, note: &str) -> Json {
    Json::obj([
        ("schema", Json::Str(CASE_SCHEMA.to_string())),
        ("note", Json::Str(note.to_string())),
        ("case", case.to_json()),
    ])
}

/// Parses a corpus envelope, checking the schema tag.
pub fn parse_corpus_entry(value: &Json) -> Result<(FuzzCase, String), JsonError> {
    let schema = value
        .field("schema")?
        .as_str()
        .ok_or_else(|| JsonError::shape("schema: expected a string"))?;
    if schema != CASE_SCHEMA {
        return Err(JsonError::shape(format!(
            "unsupported corpus schema `{schema}` (expected `{CASE_SCHEMA}`)"
        )));
    }
    let note = value
        .field("note")?
        .as_str()
        .unwrap_or_default()
        .to_string();
    Ok((FuzzCase::from_json(value.field("case")?)?, note))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..200 {
            let case = FuzzCase::random(&mut rng);
            let json = case.to_json();
            let back = FuzzCase::from_json(&Json::parse(&json.to_string_compact()).unwrap())
                .expect("roundtrip");
            assert_eq!(case, back);
        }
    }

    #[test]
    fn random_cases_cover_degenerate_shapes() {
        let mut rng = Rng::seed_from_u64(11);
        let cases: Vec<FuzzCase> = (0..500).map(|_| FuzzCase::random(&mut rng)).collect();
        assert!(cases.iter().all(|c| c.is_realizable()));
        assert!(cases.iter().any(|c| c.gen.processes == 1));
        assert!(cases.iter().any(|c| c.gen.events_per_process == 0));
        assert!(cases.iter().any(|c| c.gen.plant_at.is_none()));
        assert!(cases.iter().any(|c| c.gen.predicate_density == 1.0));
        assert!(cases.iter().any(|c| c.gen.predicate_density == 0.0));
        assert!(cases.iter().any(|c| c.fault.is_some()));
        assert!(cases.iter().any(|c| c.net));
        assert!(cases.iter().any(|c| c.multi_predicates == 1));
        assert!(cases.iter().any(|c| c.multi_predicates >= 4));
        assert!(cases.iter().any(|c| c.pump_parallel));
        assert!(cases.iter().any(|c| !c.pump_parallel));
        assert!(cases.iter().any(|c| c.parallel_detect));
        assert!(cases.iter().any(|c| !c.parallel_detect));
        assert!(
            cases
                .iter()
                .any(|c| c.parallel_detect && c.gen.processes == 1),
            "multi-thread detector leg on a single-process run never sampled"
        );
        assert!(
            cases
                .iter()
                .any(|c| c.pump_parallel && c.multi_predicates >= 4),
            "parallel pump with several tenants never sampled"
        );
        assert!(
            cases.iter().any(|c| c.net && c.fault.is_some()),
            "net runs under faults never sampled"
        );
    }

    #[test]
    fn retired_wire_fields_still_parse() {
        let mut rng = Rng::seed_from_u64(17);
        let case = FuzzCase::random(&mut rng);
        // Files written while the write mode and the wire version were
        // fuzz bits carry `net_batch` and `wire_v2` fields, at either
        // value. Both are ignored: every net case runs batched writes and
        // the one encoding.
        for field in ["net_batch", "wire_v2"] {
            for value in [false, true] {
                let mut json = case.to_json();
                if let Json::Obj(pairs) = &mut json {
                    pairs.push((field.into(), Json::Bool(value)));
                }
                let back = FuzzCase::from_json(&json).unwrap();
                assert_eq!(back, case, "{field}: {value}");
            }
        }
    }

    #[test]
    fn pre_session_corpus_files_default_to_one_predicate() {
        let mut rng = Rng::seed_from_u64(17);
        let mut case = FuzzCase::random(&mut rng);
        case.multi_predicates = 5;
        let mut json = case.to_json();
        // An old corpus entry simply lacks the field.
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "multi_predicates");
        }
        let back = FuzzCase::from_json(&json).unwrap();
        assert_eq!(
            back.multi_predicates, 1,
            "missing field replays single-tenant"
        );
    }

    #[test]
    fn pre_sharding_corpus_files_default_to_the_serial_pump() {
        let mut rng = Rng::seed_from_u64(17);
        let mut case = FuzzCase::random(&mut rng);
        case.pump_parallel = true;
        let mut json = case.to_json();
        // An old corpus entry simply lacks the field.
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "pump_parallel");
        }
        let back = FuzzCase::from_json(&json).unwrap();
        assert!(!back.pump_parallel, "missing field replays serially");
    }

    #[test]
    fn pre_work_optimal_corpus_files_default_to_one_detector_thread() {
        let mut rng = Rng::seed_from_u64(17);
        let mut case = FuzzCase::random(&mut rng);
        case.parallel_detect = true;
        let mut json = case.to_json();
        // An old corpus entry simply lacks the field.
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "parallel_detect");
        }
        let back = FuzzCase::from_json(&json).unwrap();
        assert!(!back.parallel_detect, "missing field replays sequentially");
    }

    #[test]
    fn corpus_envelope_roundtrips_and_rejects_bad_schema() {
        let mut rng = Rng::seed_from_u64(13);
        let case = FuzzCase::random(&mut rng);
        let entry = corpus_entry(&case, "example");
        let (back, note) = parse_corpus_entry(&entry).unwrap();
        assert_eq!(back, case);
        assert_eq!(note, "example");

        let bad = Json::obj([
            ("schema", Json::Str("wcp-fuzz-case-v999".to_string())),
            ("note", Json::Str(String::new())),
            ("case", case.to_json()),
        ]);
        assert!(parse_corpus_entry(&bad).is_err());
    }
}
