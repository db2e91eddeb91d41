//! `perfbench compare A B`: compares two result sets.
//!
//! A result set is a file holding the printed output of one or more runs,
//! one after another. Runs of `A` and `B` are paired in file order within
//! each workload, so alternate which side runs first when collecting them.
//! For every (metric, workload) pair the report gives each side's median
//! and quartiles, the fraction of pairs the change (`B`) wins, and a
//! verdict:
//!
//! - `improved`: `B` wins at least nine tenths of the pairs (ties count
//!   for neither) and the medians differ by more than `A`'s quartile
//!   distance, or every run of `B` reads better than every run of `A`;
//! - `worse`: `B`'s median is worse than `A`'s by more than the metric's
//!   bound, or, for a metric without a bound, `A` wins as `B` would have to;
//! - `unresolved`: the spread of either side is wider than the bound;
//! - `unchanged`: otherwise.
//!
//! Traced runs form their own series, labelled `<workload>+trace`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// All runs of one (workload and trace mode, metric).
#[derive(Debug, Default)]
struct Series {
    values: Vec<f64>,
    unit: String,
    higher_is_better: bool,
    bound: Option<f64>,
}

type Key = (String, String);

fn load(path: &str) -> Result<BTreeMap<Key, Series>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text)
}

/// Parses printed run output into series keyed by (workload and trace
/// mode, metric).
fn parse(text: &str) -> Result<BTreeMap<Key, Series>, String> {
    let mut out: BTreeMap<Key, Series> = BTreeMap::new();
    let mut workload: Option<String> = None;
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("# perfbench ") {
            let field = |key: &str| {
                header
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key))
                    .map(String::from)
            };
            let traced = field("trace=").as_deref() == Some("1");
            workload = field("workload=").map(|w| if traced { w + "+trace" } else { w });
            continue;
        }
        let Some(rest) = line.strip_prefix("metric ") else {
            continue;
        };
        let w = workload
            .clone()
            .ok_or_else(|| format!("metric line before any run header: {line}"))?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let (name, value, unit, better) = match f.as_slice() {
            [n, v, u, b, ..] => (*n, *v, *u, *b),
            _ => return Err(format!("malformed metric line: {line}")),
        };
        let value: f64 = value.parse().map_err(|_| format!("bad value in: {line}"))?;
        let s = out.entry((w, name.to_string())).or_default();
        s.values.push(value);
        s.unit = unit.to_string();
        s.higher_is_better = better == "higher";
        s.bound = f.get(4).and_then(|b| b.parse().ok());
    }
    Ok(out)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    if d.len() < 2 {
        let v = d.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let ld = d.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The verdict of one (metric, workload) comparison.
fn verdict(a: &Series, b: &Series) -> (&'static str, usize, usize) {
    let better = |x: f64, y: f64| {
        if a.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let pairs = a.values.len().min(b.values.len());
    let wins = (0..pairs)
        .filter(|&i| better(b.values[i], a.values[i]))
        .count();
    let losses = (0..pairs)
        .filter(|&i| better(a.values[i], b.values[i]))
        .count();
    let (a1, am, a3) = quartiles(&a.values);
    let (b1, bm, b3) = quartiles(&b.values);
    let gap = (bm - am).abs();
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    let all_better = a
        .values
        .iter()
        .all(|&x| b.values.iter().all(|&y| better(y, x)));
    let worse_by = if a.higher_is_better {
        (am - bm) / am.abs()
    } else {
        (bm - am) / am.abs()
    };
    let v = if all_better || (pairs > 0 && wins * 10 >= pairs * 9 && gap > a3 - a1) {
        "improved"
    } else if match a.bound {
        Some(bound) => worse_by > bound,
        None => pairs > 0 && losses * 10 >= pairs * 9 && gap > a3 - a1,
    } {
        "worse"
    } else if a.bound.is_some_and(|bound| spread > bound) {
        "unresolved"
    } else {
        "unchanged"
    };
    (v, wins, pairs)
}

/// Runs the compare command on `[A, B]`.
pub fn run(args: &[String]) -> Result<String, String> {
    let [a, b] = args else {
        return Err("usage: perfbench compare <A> <B>".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    Ok(report(&a, &b))
}

fn report(a: &BTreeMap<Key, Series>, b: &BTreeMap<Key, Series>) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16} {:<36} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for (key, sa) in a {
        let Some(sb) = b.get(key) else { continue };
        let (a1, am, a3) = quartiles(&sa.values);
        let (b1, bm, b3) = quartiles(&sb.values);
        let (v, wins, pairs) = verdict(sa, sb);
        let _ = writeln!(
            s,
            "{:<16} {:<36} {:>30} {:>30} {:>7}  {v}",
            key.0,
            format!("{} ({})", key.1, sa.unit),
            format!("{am:.4} [{a1:.4}, {a3:.4}]"),
            format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
            format!("{wins}/{pairs}")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    "# perfbench workload=w seed=1 seconds=1 trace=0\nmetric t {v} ms lower 0.1\n"
                )
            })
            .collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let a = parse(&runs(&base)).unwrap();
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        let key = ("w".to_string(), "t".to_string());
        let v = |b: &[f64]| verdict(&a[&key], &parse(&runs(b)).unwrap()[&key]).0;
        assert_eq!(v(&faster), "improved");
        assert_eq!(v(&slower), "worse");
        assert_eq!(v(&base), "unchanged");
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(v(&noisy), "unresolved");
        assert!(report(&a, &a).contains("unchanged"));
        let traced = runs(&base).replace("trace=0", "trace=1");
        assert!(parse(&traced)
            .unwrap()
            .contains_key(&("w+trace".to_string(), "t".to_string())));
    }
}
