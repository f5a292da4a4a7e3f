//! Sample statistics, the host fingerprint and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Raw per-request latencies. Percentiles come from every sample of
/// the timed phase, never from histogram buckets.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    /// Records a request that started (or was due) at `since` and
    /// completes now.
    pub fn record(&mut self, since: Instant) {
        let ns = Instant::now().saturating_duration_since(since).as_nanos();
        self.ns.push(ns as u64);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// `(value in µs, samples strictly beyond it)` at quantile `q` over
    /// every sample.
    pub fn percentile_us(&self, q: f64) -> (f64, usize) {
        let v = sorted_us(self.ns.iter());
        let value = quantile(&v, q);
        let beyond = v.len() - v.partition_point(|&x| x <= value);
        (value, beyond)
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64 / 1e3
    }
}

fn sorted_us<'a>(ns: impl Iterator<Item = &'a u64>) -> Vec<f64> {
    let mut v: Vec<f64> = ns.map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// A Prometheus text exposition, reduced to what the benchmark reads:
/// histogram sums, counts and cumulative bucket counts.
pub struct Exposition {
    values: Vec<(String, f64)>,
}

impl Exposition {
    pub fn parse(text: &str) -> Exposition {
        let values = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect();
        Exposition { values }
    }

    /// The value of `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Mean of histogram `name` (sum over count; 0 when empty).
    pub fn mean(&self, name: &str) -> f64 {
        let count = self.get(&format!("{name}_count"));
        if count > 0.0 {
            self.get(&format!("{name}_sum")) / count
        } else {
            0.0
        }
    }

    /// Quantile `q` of histogram `name`, interpolated linearly inside the
    /// log₂ bucket that holds it (a bucket bound alone would read the
    /// same on every run).
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let prefix = format!("{name}_bucket{{le=\"");
        let buckets: Vec<(f64, f64)> = self
            .values
            .iter()
            .filter_map(|(n, cum)| {
                let le = n.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                Some((le.parse().ok()?, *cum))
            })
            .collect();
        let total = self.get(&format!("{name}_count"));
        let want = q * total;
        let (mut lower, mut below) = (0.0, 0.0);
        for (upper, cum) in buckets {
            if cum >= want && cum > below {
                return lower + (upper - lower) * (want - below) / (cum - below);
            }
            (lower, below) = (upper, cum);
        }
        lower
    }
}

/// Cores, CPU model and kernel of the measuring host.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!("cores={cores} cpu=\"{model}\" kernel={kernel}")
}

/// The host's CPU time counters from `/proc/stat`: how much the
/// hypervisor stole and how much passed in all. Printed beside the
/// results so a slow run can be told apart from a slow program.
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    /// The counters now (zero where `/proc/stat` is unavailable).
    pub fn now() -> Steal {
        let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("cpu "))?.to_string();
                Some(
                    line.split_whitespace()
                        .skip(1)
                        .filter_map(|f| f.parse().ok())
                        .collect(),
                )
            })
            .unwrap_or_default();
        Steal {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of all CPU time since `earlier` that was stolen.
    pub fn share_since(&self, earlier: &Steal) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The ordered metric set a run reports.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The result object: `correct`, `attempted`, `failed` and every metric
/// as `{"value", "unit"}`, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that could not be
        // measured is reported as 0 and the run fails its check.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let s = Samples {
            ns: (1..=1000).map(|i| i * 1000).collect(),
        };
        let (p99, beyond) = s.percentile_us(0.99);
        assert_eq!(p99, 990.0);
        assert_eq!(beyond, 10);
        assert_eq!(s.mean_us(), 500.5);
    }

    #[test]
    fn exposition_interpolates_inside_a_bucket() {
        let text = "# TYPE lat histogram\nlat_bucket{le=\"0\"} 0\nlat_bucket{le=\"1\"} 0\n\
                    lat_bucket{le=\"3\"} 0\nlat_bucket{le=\"7\"} 4\nlat_bucket{le=\"15\"} 8\n\
                    lat_bucket{le=\"+Inf\"} 8\nlat_sum 60\nlat_count 8\n";
        let m = Exposition::parse(text);
        assert_eq!(m.mean("lat"), 7.5);
        assert_eq!(m.quantile("lat", 0.5), 7.0);
        assert_eq!(m.quantile("lat", 0.25), 5.0);
        assert_eq!(m.mean("missing"), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
