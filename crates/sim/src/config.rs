//! Simulation configuration.

use wcp_obs::json::{FromJson, Json, JsonError, ToJson};

use crate::actor::ActorId;

/// Message latency model for the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly `ticks` time units.
    Fixed {
        /// Delivery delay in time units (may be 0).
        ticks: u64,
    },
    /// Latency drawn uniformly from `min..=max` per message; with a non-FIFO
    /// channel this reorders messages, exercising the paper's "no FIFO
    /// assumption" (Section 2).
    Uniform {
        /// Minimum delay.
        min: u64,
        /// Maximum delay (inclusive).
        max: u64,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Uniform { min: 1, max: 10 }
    }
}

// A `LatencyModel` travels in fuzz corpus case files as a one-key object.
impl ToJson for LatencyModel {
    fn to_json(&self) -> Json {
        match *self {
            LatencyModel::Fixed { ticks } => Json::obj([("fixed", Json::UInt(ticks))]),
            LatencyModel::Uniform { min, max } => Json::obj([(
                "uniform",
                Json::obj([("min", Json::UInt(min)), ("max", Json::UInt(max))]),
            )]),
        }
    }
}

impl FromJson for LatencyModel {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_object() {
            Some([(tag, payload)]) if tag == "fixed" => Ok(LatencyModel::Fixed {
                ticks: payload.expect_u64()?,
            }),
            Some([(tag, payload)]) if tag == "uniform" => Ok(LatencyModel::Uniform {
                min: payload.field("min")?.expect_u64()?,
                max: payload.field("max")?.expect_u64()?,
            }),
            _ => Err(JsonError::shape(format!(
                "expected {{\"fixed\":…}} or {{\"uniform\":…}}, got {value}"
            ))),
        }
    }
}

/// A seeded, per-link fault schedule, which `wcp-net`'s `FaultyTransport`
/// injects on a socket run's links.
///
/// Each probability (in `0.0..=1.0`) is the chance the corresponding
/// fault is injected on one frame transmission. Which frames are hit is
/// fully determined by `seed` (each link derives its own RNG stream from
/// it). A frame not sent at once waits for a virtual millisecond on the
/// clock of the worker stepping its sender, which moves only when no
/// peer can, so an in-process run repeats exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// RNG seed the per-link fault streams are derived from.
    pub seed: u64,
    /// Probability a transmission is dropped; the link layer retransmits
    /// with exponential backoff, so a drop costs retries, not delivery.
    pub drop: f64,
    /// Probability a frame is transmitted twice (receiver dedups by seq).
    pub duplicate: f64,
    /// Probability a frame is held back `1..=max_delay_ms` virtual
    /// milliseconds, letting later frames overtake it.
    pub delay: f64,
    /// Upper bound on an injected delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Probability a frame is held back one virtual millisecond, so the
    /// frames sent after it before that clock next moves overtake it.
    pub reorder: f64,
    /// Probability the connection is torn down before a transmission; the
    /// sender reconnects and replays its log.
    pub reset: f64,
    /// Most consecutive lost transmissions of one dropped frame.
    pub max_retries: u32,
    /// Base retransmit backoff, in virtual ms; lost attempt `k` waits `base << k`.
    pub backoff_base_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay_ms: 5,
            reorder: 0.0,
            reset: 0.0,
            max_retries: 8,
            backoff_base_ms: 1,
        }
    }
}

impl FaultConfig {
    /// A fault-free schedule with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// The canonical tolerated-fault schedule: delay + duplicate + reorder
    /// (no drops or resets), which the detection protocols must mask
    /// without changing the `Detection`.
    pub fn delay_duplicate_reorder(seed: u64) -> Self {
        FaultConfig {
            delay: 0.25,
            duplicate: 0.2,
            reorder: 0.2,
            ..FaultConfig::seeded(seed)
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the delay probability.
    pub fn with_delay(mut self, p: f64) -> Self {
        self.delay = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the connection-reset probability.
    pub fn with_reset(mut self, p: f64) -> Self {
        self.reset = p;
        self
    }

    /// Whether the schedule injects any fault at all.
    pub fn is_quiet(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.reorder == 0.0
            && self.reset == 0.0
    }
}

// A `FaultConfig` round-trips through JSON exactly, so a fuzz corpus case
// replays the same deterministic fault schedule.
impl ToJson for FaultConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::UInt(self.seed)),
            ("drop", Json::Float(self.drop)),
            ("duplicate", Json::Float(self.duplicate)),
            ("delay", Json::Float(self.delay)),
            ("max_delay_ms", Json::UInt(self.max_delay_ms)),
            ("reorder", Json::Float(self.reorder)),
            ("reset", Json::Float(self.reset)),
            ("max_retries", Json::UInt(self.max_retries as u64)),
            ("backoff_base_ms", Json::UInt(self.backoff_base_ms)),
        ])
    }
}

impl FromJson for FaultConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let f64_field = |name: &str| -> Result<f64, JsonError> {
            value
                .field(name)?
                .as_f64()
                .ok_or_else(|| JsonError::shape(format!("{name}: expected a number")))
        };
        Ok(FaultConfig {
            seed: value.field("seed")?.expect_u64()?,
            drop: f64_field("drop")?,
            duplicate: f64_field("duplicate")?,
            delay: f64_field("delay")?,
            max_delay_ms: value.field("max_delay_ms")?.expect_u64()?,
            reorder: f64_field("reorder")?,
            reset: f64_field("reset")?,
            max_retries: value.field("max_retries")?.expect_u64()? as u32,
            backoff_base_ms: value.field("backoff_base_ms")?.expect_u64()?,
        })
    }
}

/// Configuration of a [`Simulation`](crate::Simulation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// Latency model for all channels.
    pub latency: LatencyModel,
    /// Whether channels preserve order by default. The paper requires FIFO
    /// only between an application process and its monitor; the default is
    /// non-FIFO, matching the paper's weakest assumption.
    pub fifo_by_default: bool,
    /// Channels forced FIFO regardless of the default (e.g. application →
    /// monitor links).
    pub fifo_channels: Vec<(ActorId, ActorId)>,
    /// RNG seed for latency draws.
    pub seed: u64,
    /// Safety valve: abort after this many deliveries (0 = unlimited).
    pub max_deliveries: u64,
}

impl SimConfig {
    /// Config with a specific seed and defaults otherwise.
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Makes every channel FIFO.
    pub fn with_fifo_default(mut self, fifo: bool) -> Self {
        self.fifo_by_default = fifo;
        self
    }

    /// Forces the `from → to` channel to be FIFO.
    pub fn with_fifo_channel(mut self, from: ActorId, to: ActorId) -> Self {
        self.fifo_channels.push((from, to));
        self
    }

    /// Sets the delivery safety valve.
    pub fn with_max_deliveries(mut self, max: u64) -> Self {
        self.max_deliveries = max;
        self
    }

    /// Whether the `from → to` channel preserves order.
    pub fn is_fifo(&self, from: ActorId, to: ActorId) -> bool {
        self.fifo_by_default || self.fifo_channels.contains(&(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_non_fifo_uniform() {
        let c = SimConfig::default();
        assert!(!c.fifo_by_default);
        assert_eq!(c.latency, LatencyModel::Uniform { min: 1, max: 10 });
        assert!(!c.is_fifo(ActorId::new(0), ActorId::new(1)));
    }

    #[test]
    fn fifo_channel_overrides() {
        let c = SimConfig::default().with_fifo_channel(ActorId::new(0), ActorId::new(1));
        assert!(c.is_fifo(ActorId::new(0), ActorId::new(1)));
        assert!(!c.is_fifo(ActorId::new(1), ActorId::new(0)));
    }

    #[test]
    fn fifo_default_covers_all_channels() {
        let c = SimConfig::default().with_fifo_default(true);
        assert!(c.is_fifo(ActorId::new(3), ActorId::new(4)));
    }

    #[test]
    fn fault_config_defaults_are_quiet() {
        let f = FaultConfig::seeded(11);
        assert!(f.is_quiet());
        assert_eq!(f.seed, 11);
        let f = f.with_delay(0.5).with_duplicate(0.1);
        assert!(!f.is_quiet());
        assert!(FaultConfig::delay_duplicate_reorder(3).drop == 0.0);
        assert!(!FaultConfig::delay_duplicate_reorder(3).is_quiet());
    }

    #[test]
    fn latency_and_fault_json_roundtrip() {
        for model in [
            LatencyModel::Fixed { ticks: 0 },
            LatencyModel::Fixed { ticks: 7 },
            LatencyModel::Uniform { min: 1, max: 25 },
        ] {
            let json = model.to_json().pretty();
            let back = LatencyModel::from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, model, "{json}");
        }
        assert!(LatencyModel::from_json(&Json::Str("fast".into())).is_err());

        let faults = FaultConfig::delay_duplicate_reorder(42)
            .with_drop(0.125)
            .with_reset(0.0625);
        let json = faults.to_json().pretty();
        let back = FaultConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, faults, "{json}");
    }

    #[test]
    fn builder_chains() {
        let c = SimConfig::seeded(9)
            .with_latency(LatencyModel::Fixed { ticks: 2 })
            .with_max_deliveries(100);
        assert_eq!(c.seed, 9);
        assert_eq!(c.latency, LatencyModel::Fixed { ticks: 2 });
        assert_eq!(c.max_deliveries, 100);
    }
}
