//! What a leg of the benchmark measured.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `offline_token_traces_per_s`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of measuring one leg.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: pipelines, runs, or session verdicts and
    /// registrations.
    pub attempted: u64,
    /// Operations whose verdict or cut differed from the oracle, that
    /// panicked, or that ran past their deadline.
    pub failed: u64,
    /// Geometric mean over the leg's variants of work completed per second.
    pub throughput_per_s: f64,
    /// The leg's median latency, in ms.
    pub latency_ms_p50: f64,
    /// The leg's own end-to-end metrics, by name.
    pub named: Vec<Metric>,
    /// Per-layer metrics; filled only when tracing.
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}
