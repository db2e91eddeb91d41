//! The unified detector interface.

use std::fmt;

use wcp_clocks::Cut;
use wcp_obs::json::{FromJson, Json, JsonError, ToJson};
use wcp_trace::{AnnotatedComputation, ComputationError, Wcp};

use crate::metrics::DetectionMetrics;

/// Outcome of a detection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// The WCP became true; `cut` is the first consistent cut satisfying it.
    ///
    /// For scope-only algorithms (Section 3 family) the cut has nonzero
    /// entries only for the predicate's scope processes; for the
    /// direct-dependence algorithm (Section 4) every entry is filled. The
    /// scope projections always agree.
    Detected {
        /// The detected cut.
        cut: Cut,
    },
    /// The predicate never held on a consistent cut of this run.
    Undetected,
}

impl Detection {
    /// The detected cut, if any.
    pub fn cut(&self) -> Option<&Cut> {
        match self {
            Detection::Detected { cut } => Some(cut),
            Detection::Undetected => None,
        }
    }

    /// `true` iff the predicate was detected.
    pub fn is_detected(&self) -> bool {
        matches!(self, Detection::Detected { .. })
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detection::Detected { cut } => write!(f, "detected at {cut}"),
            Detection::Undetected => write!(f, "undetected"),
        }
    }
}

impl ToJson for Detection {
    fn to_json(&self) -> Json {
        match self {
            Detection::Detected { cut } => {
                Json::obj([("Detected", Json::obj([("cut", cut.to_json())]))])
            }
            Detection::Undetected => Json::Str("Undetected".to_string()),
        }
    }
}

impl FromJson for Detection {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = value {
            if s == "Undetected" {
                return Ok(Detection::Undetected);
            }
        }
        match value.as_object() {
            Some([(tag, payload)]) if tag == "Detected" => Ok(Detection::Detected {
                cut: Cut::from_json(payload.field("cut")?)?,
            }),
            _ => Err(JsonError::shape(format!(
                "expected \"Undetected\" or {{\"Detected\":…}}, got {value}"
            ))),
        }
    }
}

/// A detection outcome together with its cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionReport {
    /// What was detected.
    pub detection: Detection,
    /// What it cost.
    pub metrics: DetectionMetrics,
}

impl fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.detection, self.metrics)
    }
}

impl ToJson for DetectionReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("detection", self.detection.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl FromJson for DetectionReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(DetectionReport {
            detection: Detection::from_json(value.field("detection")?)?,
            metrics: DetectionMetrics::from_json(value.field("metrics")?)?,
        })
    }
}

/// A WCP detection algorithm.
///
/// All detectors in this crate find the *first* satisfying cut (Theorems
/// 3.2 and 4.3 of the paper), so any two detectors agree on the scope
/// projection of their results — a property the integration tests check
/// exhaustively.
pub trait Detector {
    /// Short identifier used in experiment tables (e.g. `"token"`).
    fn name(&self) -> &str;

    /// Runs detection of `wcp` over the annotated computation.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport;

    /// [`detect`](Self::detect), or a typed error where the run would
    /// exceed a budget. The default first checks, without building them,
    /// that the scope's snapshot clocks fit
    /// [`CLOCK_CELL_BUDGET`](wcp_trace::CLOCK_CELL_BUDGET): every
    /// vector-clock family builds them
    /// ([`VcSnapshotQueues::build`](crate::VcSnapshotQueues::build)). A
    /// detector that reads no vector clock, or has a budget of its own,
    /// overrides it.
    ///
    /// # Errors
    ///
    /// [`ComputationError::ClockBudget`] if the clocks do not fit;
    /// [`ComputationError::LatticeBudget`] if the lattice baseline
    /// exceeds its state budget.
    fn try_detect(
        &self,
        annotated: &AnnotatedComputation<'_>,
        wcp: &Wcp,
    ) -> Result<DetectionReport, ComputationError> {
        annotated.check_scope_clocks(wcp)?;
        Ok(self.detect(annotated, wcp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_accessors() {
        let d = Detection::Detected {
            cut: Cut::from_indices(vec![1, 2]),
        };
        assert!(d.is_detected());
        assert_eq!(d.cut().unwrap().as_slice(), &[1, 2]);
        assert!(!Detection::Undetected.is_detected());
        assert_eq!(Detection::Undetected.cut(), None);
    }

    #[test]
    fn display_forms() {
        let d = Detection::Detected {
            cut: Cut::from_indices(vec![1, 2]),
        };
        assert_eq!(d.to_string(), "detected at ⟨1,2⟩");
        assert_eq!(Detection::Undetected.to_string(), "undetected");
        let r = DetectionReport {
            detection: Detection::Undetected,
            metrics: DetectionMetrics::new(1),
        };
        assert!(r.to_string().starts_with("undetected ["));
    }

    #[test]
    fn json_roundtrip() {
        let r = DetectionReport {
            detection: Detection::Detected {
                cut: Cut::from_indices(vec![3]),
            },
            metrics: DetectionMetrics::new(2),
        };
        let json = r.to_json().to_string();
        assert!(
            json.starts_with("{\"detection\":{\"Detected\":{\"cut\":[3]}}"),
            "{json}"
        );
        let back = DetectionReport::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
        // The undetected arm serializes as a bare string, like serde's
        // externally-tagged unit variant.
        assert_eq!(
            Detection::Undetected.to_json().to_string(),
            "\"Undetected\""
        );
        let u = Detection::from_json(&Json::parse("\"Undetected\"").unwrap()).unwrap();
        assert_eq!(u, Detection::Undetected);
    }
}
