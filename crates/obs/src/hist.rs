//! Log₂-bucket histograms and monotone counters.

use std::fmt;

use crate::json::{Json, ToJson};

/// A histogram with logarithmic (power-of-two) buckets.
///
/// Bucket `i` holds values `v` with `2^(i-1) ≤ v < 2^i` (bucket 0 holds
/// exactly `0`), so 65 fixed buckets cover the whole `u64` range with no
/// allocation. Good enough resolution for latency/queue-depth style
/// measurements and cheap to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_index(value: u64) -> usize {
    match value {
        0 => 0,
        v => 64 - v.leading_zeros() as usize,
    }
}

/// Lower bound of bucket `i` (inclusive).
fn bucket_floor(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(floor, count)` pairs, lowest first.
    pub fn occupied(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
            .collect()
    }

    /// One-line ASCII rendering: `[floor..] ▏bar count` per occupied bucket.
    pub fn render(&self, label: &str) -> String {
        if self.is_empty() {
            return format!("{label}: (no samples)\n");
        }
        let mut out = format!(
            "{label}: n={} min={} mean={:.1} max={}\n",
            self.count,
            self.min,
            self.mean().unwrap_or(0.0),
            self.max
        );
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let width = ((c * 40).div_ceil(peak)) as usize;
            out.push_str(&format!(
                "  {:>10} | {:<40} {}\n",
                format!("≥{}", bucket_floor(i)),
                "#".repeat(width),
                c
            ));
        }
        out
    }
}

impl ToJson for Log2Histogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(if self.count > 0 { self.min } else { 0 })),
            ("max", Json::UInt(self.max)),
            (
                "buckets",
                Json::Arr(
                    self.occupied()
                        .into_iter()
                        .map(|(floor, c)| {
                            Json::obj([("ge", Json::UInt(floor)), ("count", Json::UInt(c))])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Log2Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render("histogram").trim_end())
    }
}

/// A small ordered set of named monotone counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    entries: Vec<(String, u64)>,
}

impl Counters {
    /// An empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => self.entries.push((name.to_string(), delta)),
        }
    }

    /// Increments the counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value (0 when never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// All counters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no counter exists.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(n, v)| (n.as_str().into(), Json::UInt(*v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(11), 1024);
    }

    #[test]
    fn summary_statistics() {
        let mut h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        for v in [0, 1, 2, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 21.6).abs() < 1e-9);
        assert_eq!(h.occupied(), vec![(0, 1), (1, 1), (2, 1), (4, 1), (64, 1)]);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Log2Histogram::new();
        a.record(3);
        let mut b = Log2Histogram::new();
        b.record(1000);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(1000));
    }

    #[test]
    fn render_shows_bars() {
        let mut h = Log2Histogram::new();
        for _ in 0..10 {
            h.record(4);
        }
        h.record(1);
        let text = h.render("delay");
        assert!(text.contains("delay: n=11"));
        assert!(text.contains("≥4"));
        assert!(text.contains('#'));
        assert_eq!(Log2Histogram::new().render("x"), "x: (no samples)\n");
    }

    #[test]
    fn histogram_json_shape() {
        let mut h = Log2Histogram::new();
        h.record(2);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(
            j.get("buckets").unwrap().as_array().unwrap()[0]
                .get("ge")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn counters_accumulate_in_order() {
        let mut c = Counters::new();
        c.incr("hops");
        c.add("hops", 4);
        c.add("polls", 2);
        assert_eq!(c.get("hops"), 5);
        assert_eq!(c.get("polls"), 2);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.len(), 2);
        let names: Vec<_> = c.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["hops", "polls"]);
        assert_eq!(c.to_json().to_string(), "{\"hops\":5,\"polls\":2}");
    }
}
